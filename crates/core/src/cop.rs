//! Column-oriented Pull (paper §3.3, Algorithm 3).
//!
//! Processing column `i`: derive `D_i = reset(S_i)` from one read of
//! `S_i`; stream in-blocks `(0, i)..(P-1, i)` sequentially, loading `S_j`
//! and the in-index per block (the diagonal block `(i, i)` reuses the
//! `S_i` already read, and an interval the store holds resident costs
//! no read); every destination vertex of interval `i` with in-edges in
//! the block walks its own range and pulls from active in-neighbors, in
//! one tight sequential loop per block.
//!
//! The unit of parallelism is the column (§3.5 parallelizes per
//! destination vertex; whole columns are the coarsest such split).
//! The columns write disjoint `D` buffers, so [`run_columns`] pulls
//! them concurrently with no write conflicts, and every destination
//! keeps its in-edge accumulation order — results are bit-identical at
//! every thread count. This is GraphMP's one shard per worker;
//! splitting each block across threads instead costs a fan-out per
//! block and balances vertices, not edges.
//!
//! With one thread the same loop runs on the caller. The paper's §3.5
//! overlap of the next block's read with the current block's pull
//! comes from the other columns' workers, and from the kernel's
//! sequential prefetch on the column's `in_<j>.edges` file for a lone
//! worker on the `file` and `mmap` backends (`direct` bypasses the page
//! cache, so there a lone worker does not overlap).

use crate::graph::{EdgeRecords, HusGraph};
use crate::index::BlockIndex;
use crate::meta::Orientation;
use crate::predict::IoPlan;
use crate::program::{EdgeCtx, VertexProgram};
use crate::rop::{reset_values, IterCtx};
use crate::vertex_store::VertexStore;
use hus_obs::span;
use hus_storage::{Access, Result};
use rayon::prelude::*;
use std::borrow::Cow;

/// Sizes (in edge records) of the streamed in-blocks — the distribution
/// behind COP's sequential-I/O bill.
static BLOCK_EDGES: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("cop.block_edges");

/// One fetched in-block, ready to pull.
struct FetchedBlock<'a, V: Clone> {
    /// Source interval of the block.
    src_interval: usize,
    /// `S_j`: the source interval's current values.
    s_block: Cow<'a, [V]>,
    /// Where each destination's in-edges are.
    index: BlockIndex<'a>,
    /// The block's edge records.
    records: EdgeRecords,
}

/// The I/O plan of a whole COP sweep with nothing resident ([`plan`]):
/// exactly the bytes [`run_columns`] bills for all `P` columns of a
/// forced-COP run. Nothing here depends on the frontier — COP pays for
/// every in-edge, active or not.
pub fn sweep_plan(graph: &HusGraph, value_bytes: u64) -> IoPlan {
    plan(graph, value_bytes, &vec![false; graph.p()])
}

/// The I/O plan of a whole COP sweep while the store holds the
/// intervals `resident` marks. Each `D_j` is written back once and
/// derived from one read of `S_j`, which is also the source values of
/// in-block `(j, j)`; every non-empty in-block `(i, j)` costs its
/// in-index's `occupied + 1` offsets, its encoded payload and, off the
/// diagonal, its `S_i`, all sequential. Reads of a resident interval
/// are free, the occupancy bitmaps are resident, an overlay-resident
/// block is served from memory, and the stream bypasses the
/// decoded-block cache, so a compressed block bills its payload every
/// sweep.
pub fn plan(graph: &HusGraph, value_bytes: u64, resident: &[bool]) -> IoPlan {
    let meta = graph.meta();
    let interval_bytes = |i: usize| meta.interval_len(i) as u64 * value_bytes;
    let mut plan = IoPlan::default();
    for col in 0..graph.p() {
        plan.write += interval_bytes(col);
        if !resident[col] {
            plan.sequential += interval_bytes(col);
        }
        for i in (0..graph.p()).filter(|&i| graph.in_block_len(i, col) > 0) {
            if i != col && !resident[i] {
                plan.sequential += interval_bytes(i);
            }
            if !graph.in_block_resident(i, col) {
                let block = meta.in_block(i, col);
                plan.sequential += block.offsets_bytes() + block.encoded_bytes;
            }
        }
    }
    plan
}

/// Pull every column and write each one's `D` back (the caller commits
/// them together afterwards). The columns write disjoint `D` buffers,
/// so they fan out over the run's pool with no write conflicts; the
/// first error in column order wins. Returns the total edge records
/// streamed.
pub fn run_columns<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
) -> Result<u64> {
    let streamed = (0..ctx.graph.p())
        .into_par_iter()
        .map(|col| {
            let _s = span!("cop.column", interval = col);
            let (d_col, n) = pull_column(ctx, store, col)?;
            store.write_next(col, &d_col)?;
            Ok(n)
        })
        .collect::<Result<Vec<u64>>>()?;
    Ok(streamed.iter().sum())
}

/// Pull column `col`: derive `D_col = reset(S_col)`, then fetch and
/// pull its non-empty in-blocks in source order. Returns the updated
/// `D_col` (not yet written back) and the number of edge records
/// streamed (COP pays for every in-edge of the column, active or not —
/// that is its trade).
fn pull_column<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
    col: usize,
) -> Result<(Vec<Pr::Value>, u64)> {
    // One read of S_col serves D_col and in-block (col, col), which
    // takes it over; it is not held when that block is empty.
    let s_col = store.current(col, Access::Sequential)?;
    let dst_base = ctx.graph.meta().interval_start(col);
    let mut d_col = reset_values(ctx.program, dst_base, &s_col);
    let mut s_col = (ctx.graph.in_block_len(col, col) > 0).then_some(s_col);
    let mut streamed = 0u64;
    for i in (0..ctx.graph.p()).filter(|&i| ctx.graph.in_block_len(i, col) > 0) {
        crate::engine::check_deadline(ctx.deadline.as_ref())?;
        // The whole fetch (vertex chunk + index + edge stream) runs
        // under block (i, col)'s attribution scope, so the heatmap sees
        // the column's vertex-value traffic too, not just edge bytes.
        let block = hus_obs::attr::with_block(i as u32, col as u32, || -> Result<_> {
            let s_block = if i == col {
                s_col.take().expect("S_col is held for the diagonal block")
            } else {
                store.current(i, Access::Sequential)?
            };
            let index = ctx.graph.block_index(Orientation::In, i, col, Access::Sequential)?;
            let records = ctx.graph.stream_in_block(i, col)?;
            Ok(FetchedBlock { src_interval: i, s_block, index, records })
        })?;
        BLOCK_EDGES.record(block.records.len() as u64);
        streamed += block.records.len() as u64;
        pull_block(ctx, &block, dst_base, &mut d_col);
    }
    Ok((d_col, streamed))
}

/// The in-memory pull of one fetched block into `D_col`: every
/// destination with in-edges in the block walks its own range in record
/// order, so its accumulation order is the same at every thread count.
fn pull_block<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    block: &FetchedBlock<'_, Pr::Value>,
    dst_base: u32,
    d_col: &mut [Pr::Value],
) {
    let src_base = ctx.graph.meta().interval_start(block.src_interval);
    let degrees = ctx.graph.out_degrees();
    // Every source of an always-active program is active, and its next
    // frontier is already full: no frontier bit to load or set.
    let all_active = ctx.program.always_active();
    for (local, lo, hi) in block.index.ranges() {
        let (dst, dst_val) = (dst_base + local as u32, &mut d_col[local]);
        let mut changed = false;
        for (src, weight) in block.records.walk(lo as usize, hi as usize) {
            if !all_active && !ctx.active.get(src) {
                continue;
            }
            let ectx = EdgeCtx { src, dst, weight, src_out_degree: degrees[src as usize] };
            if let Some(msg) = ctx.program.scatter(&block.s_block[(src - src_base) as usize], &ectx)
            {
                changed |= ctx.program.combine(dst_val, msg);
            }
        }
        if changed && !all_active {
            ctx.next_active.set(dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::active::ActiveSet;
    use crate::builder::BuildConfig;
    use crate::engine::{Deadline, Engine, RunConfig, UpdateMode};
    use crate::graph::HusGraph;
    use crate::meta::GraphMeta;
    use crate::predict::IoPlan;
    use crate::program::{EdgeCtx, VertexProgram};
    use crate::rop::IterCtx;
    use crate::vertex_store::VertexStore;
    use hus_storage::{BackendKind, StorageDir};

    struct MinLabel;

    impl VertexProgram for MinLabel {
        type Value = u32;
        fn init(&self, v: u32) -> u32 {
            v
        }
        fn initially_active(&self, _v: u32) -> bool {
            true
        }
        fn scatter(&self, s: &u32, _c: &EdgeCtx) -> Option<u32> {
            Some(*s)
        }
        fn combine(&self, d: &mut u32, m: u32) -> bool {
            if m < *d {
                *d = m;
                true
            } else {
                false
            }
        }
    }

    /// A mid-stream fetch failure must surface as an error to the
    /// caller (not hang, not panic a worker) — from the caller's own loop
    /// at one thread and from the column workers at four. The in-edges
    /// shard is truncated *after* open, so the device's cached length
    /// admits the read and the underlying `pread` fails mid-column. That
    /// premise holds for the `file` and `direct` devices, which read the
    /// file at read time, so the test runs on both; `mmap` is left out by
    /// design: the vendored `memmap2` stand-in copies the whole file at
    /// open, so a truncation after open cannot be seen through it.
    #[test]
    fn mid_stream_storage_error_surfaces_not_hangs() {
        let (file, direct) = (BackendKind::File, BackendKind::Direct);
        for (kind, threads) in [(file, 1), (file, 4), (direct, 1), (direct, 4)] {
            let el = hus_gen::rmat(300, 3000, 5, Default::default());
            let tmp = tempfile::tempdir().unwrap();
            let dir = StorageDir::create_with(tmp.path().join("g"), kind).unwrap();
            let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();

            // Corrupt column 2's in-edge shard under the open graph.
            let victim = dir.path(&GraphMeta::in_edges_file(2));
            let orig_len = std::fs::metadata(&victim).unwrap().len();
            assert!(orig_len > 8);
            let f = std::fs::OpenOptions::new().write(true).open(&victim).unwrap();
            f.set_len(4).unwrap();
            drop(f);

            let cfg = RunConfig { mode: UpdateMode::ForceCop, threads, ..Default::default() };
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let handle = std::thread::spawn(move || {
                let result = Engine::new(&g, &MinLabel, cfg).run();
                done_tx.send(result.is_err()).unwrap();
            });
            // The run must finish promptly with an error; a deadlocked
            // run would leave the channel empty.
            let failed = done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("COP run hung on a mid-stream storage error");
            assert!(failed, "{kind:?}, {threads} threads: truncated shard must surface an error");
            handle.join().unwrap();
        }
    }

    /// A panic in one column worker reaches the caller once the other
    /// workers are done; nothing waits forever on the dead one.
    #[test]
    fn a_panicking_column_worker_propagates_and_does_not_hang() {
        /// Min-label that panics on any edge into the last interval.
        struct Explodes {
            from: u32,
        }
        impl VertexProgram for Explodes {
            type Value = u32;
            fn init(&self, v: u32) -> u32 {
                v
            }
            fn initially_active(&self, _v: u32) -> bool {
                true
            }
            fn scatter(&self, s: &u32, c: &EdgeCtx) -> Option<u32> {
                assert!(c.dst < self.from, "injected panic");
                Some(*s)
            }
            fn combine(&self, d: &mut u32, m: u32) -> bool {
                MinLabel.combine(d, m)
            }
        }
        let el = hus_gen::rmat(300, 3000, 5, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g =
            std::sync::Arc::new(HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap());
        for threads in [1, 2] {
            let (g, (done_tx, done_rx)) = (g.clone(), std::sync::mpsc::channel::<()>());
            let handle = std::thread::spawn(move || {
                let _done = done_tx; // dropped when the run returns or unwinds
                let program = Explodes { from: g.meta().interval_start(3) };
                let cfg = RunConfig { mode: UpdateMode::ForceCop, threads, ..Default::default() };
                Engine::new(&g, &program, cfg).run().map(|_| ())
            });
            let outcome = done_rx.recv_timeout(std::time::Duration::from_secs(30));
            assert!(
                matches!(outcome, Err(std::sync::mpsc::RecvTimeoutError::Disconnected)),
                "{threads} threads: the run hung after a worker panicked"
            );
            assert!(handle.join().is_err(), "{threads} threads: the panic must propagate");
        }
    }

    /// A crossed deadline stops the sweep with the typed error — in the
    /// column workers (two threads) as on the caller (one).
    #[test]
    fn expired_deadline_stops_column_workers_with_the_typed_error() {
        let el = hus_gen::rmat(300, 3000, 5, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        let starts = &g.meta().interval_starts;
        let store = VertexStore::create(&dir.subdir("vals").unwrap(), "v", starts, |v| v).unwrap();
        let (active, next_active) = (ActiveSet::all(300), ActiveSet::new(300));
        let ctx = IterCtx {
            graph: &g,
            program: &MinLabel,
            active: &active,
            next_active: &next_active,
            coalesce_ratio: 1.0,
            index_ratio: 1.0,
            deadline: Some(Deadline {
                at: std::time::Instant::now() - std::time::Duration::from_millis(1),
                budget_ms: 7,
            }),
        };
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let err = pool.install(|| super::run_columns(&ctx, &store));
            let err = err.unwrap_err();
            assert!(err.is_deadline(), "{threads} threads: {err}");
        }
    }

    /// [`super::sweep_plan`] is the bill of a COP iteration, to the byte
    /// — at one thread and with column workers, also with a delta
    /// overlay attached, whose touched blocks are served from memory.
    #[test]
    fn sweep_plan_is_what_a_cop_iteration_bills() {
        let el = hus_gen::rmat(300, 3000, 9, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        let base = HusGraph::open(dir.clone()).unwrap();
        let mut dynamic = crate::delta::DynamicGraph::open(dir).unwrap();
        dynamic.insert_edge(1, 299, 1.0).unwrap();
        dynamic.insert_edge(150, 2, 1.0).unwrap();
        let overlaid = dynamic.snapshot().unwrap();
        let plans = [&base, overlaid].map(|g| {
            let plan = super::sweep_plan(g, 4);
            for threads in [1, 2] {
                let cfg = RunConfig { mode: UpdateMode::ForceCop, threads, ..Default::default() };
                let (_, stats) = Engine::new(g, &MinLabel, cfg).run().unwrap();
                for it in &stats.iterations {
                    let at = (threads, it.iteration);
                    assert_eq!(IoPlan::billed(&it.io), plan, "{at:?}");
                }
            }
            plan
        });
        assert!(plans[1].sequential < plans[0].sequential, "overlay blocks cost no device I/O");
    }
}
