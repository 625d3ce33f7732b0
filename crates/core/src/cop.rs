//! Column-oriented Pull (paper §3.3, Algorithm 3).
//!
//! Processing column `i`: load `D_i` once; stream in-blocks
//! `(0, i)..(P-1, i)` sequentially, loading `S_j` and the in-index per
//! block; every destination vertex of interval `i` walks its own
//! in-edge range and pulls from active in-neighbors, in one tight
//! sequential loop per block.
//!
//! The unit of parallelism is the column (§3.5 parallelizes per
//! destination vertex; whole columns are the coarsest such split).
//! The columns of one unit write disjoint `D` buffers, so
//! [`run_columns`] pulls them concurrently with no write conflicts, and
//! every destination keeps its in-edge accumulation order — results are
//! bit-identical at every thread count. This is GraphMP's one shard per
//! worker; splitting each block across threads instead costs a fan-out
//! per block and balances vertices, not edges.
//!
//! A unit with a single worker (one thread, Gauss-Seidel's one-column
//! units, a one-column mixed unit) has no other column to overlap its
//! I/O with, so it overlaps disk and CPU as the paper describes (§3.5:
//! "the out-edges of the next out-block can be loaded before the
//! processing of current out-block is finished if the memory is
//! sufficient"): a small pool of producer threads fetches a window of
//! blocks (the run's thread budget, clamped to 2..=8) ahead of the
//! consumer — each block's `S_j`, in-index and edge records. Blocks are
//! delivered strictly in column order regardless of which producer
//! finishes first, so the result is bit-identical to a serial fetch
//! loop; a fetch error cancels the remaining producers eagerly and
//! surfaces to the caller, with the bytes of any
//! already-prefetched-but-unconsumed blocks reported via the
//! `cop.readahead_unused_bytes` counter.

use crate::graph::{EdgeRecords, HusGraph};
use crate::meta::INDEX_ENTRY_BYTES;
use crate::predict::IoPlan;
use crate::program::{EdgeCtx, VertexProgram};
use crate::rop::{load_d, IterCtx};
use crate::vertex_store::VertexStore;
use hus_obs::span;
use hus_storage::direct::DEFAULT_QUEUE_DEPTH;
use hus_storage::{Access, Result};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Sizes (in edge records) of the streamed in-blocks — the distribution
/// behind COP's sequential-I/O bill.
static BLOCK_EDGES: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("cop.block_edges");
/// Readahead window depth currently in effect.
static READAHEAD_DEPTH: hus_obs::LazyGauge = hus_obs::LazyGauge::new("cop.readahead_depth");
/// Nanoseconds the consumer waited for its next in-order block — near
/// zero when the prefetchers keep up, the full fetch latency when not.
static QUEUE_WAIT_NS: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("cop.queue_wait_ns");
/// Edge-record bytes fetched ahead but never consumed (error paths).
static READAHEAD_UNUSED: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("cop.readahead_unused_bytes");
/// Columns degraded from the readahead pipeline to a synchronous fetch
/// loop after a non-corruption pipeline failure.
static OBS_SYNC_FALLBACKS: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("storage.fallback.sync");
/// Log the pipeline→synchronous degradation once per process.
static SYNC_FALLBACK_ONCE: std::sync::Once = std::sync::Once::new();

/// One fetched in-block, ready to process.
struct FetchedBlock<V> {
    /// Source interval of the block.
    src_interval: usize,
    /// `S_j`: the source interval's current values.
    s_block: Vec<V>,
    /// Per-destination CSR offsets.
    index: Vec<u32>,
    /// The block's edge records.
    records: EdgeRecords,
}

/// Unwind guard for the prefetch pipeline: if the thread holding it
/// panics (e.g. the consumer processing damaged-but-unverified bytes,
/// see DESIGN.md §9), the pipeline is cancelled and every parked
/// thread woken — otherwise the enclosing `thread::scope` would join
/// producers that are waiting on a condvar nobody will ever signal,
/// turning the panic into a deadlock.
struct CancelOnUnwind<'a, V> {
    state: &'a Mutex<PipelineState<V>>,
    wakeup: &'a Condvar,
}

impl<V> Drop for CancelOnUnwind<'_, V> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut st) = self.state.lock() {
                st.cancelled = true;
            }
            self.wakeup.notify_all();
        }
    }
}

/// Shared state of the ordered prefetch pipeline.
struct PipelineState<V> {
    /// Blocks fetched but not yet consumed, keyed by sequence number.
    ready: BTreeMap<usize, Result<FetchedBlock<V>>>,
    /// Next sequence number the consumer will take; producers stay
    /// within `next_emit + depth`.
    next_emit: usize,
    /// Set by the consumer (on error) or by a failed producer; everyone
    /// drains out promptly instead of fetching blocks nobody will read.
    cancelled: bool,
}

/// How many in-blocks the producer pool may fetch ahead of the
/// consumer: the run's thread budget, clamped to 2..=8 — each resident
/// block costs one in-block plus one `S` interval of memory.
fn readahead_window() -> usize {
    rayon::current_num_threads().clamp(2, 8)
}

/// Process column `col` under COP with a [`readahead_window`] of blocks
/// and at most [`DEFAULT_QUEUE_DEPTH`] concurrent producer fetches.
/// Returns the updated `D_col` (not yet written back) and the number of
/// edge records streamed (COP pays for every in-edge of the column,
/// active or not — that is its trade).
///
/// If the readahead pipeline fails with a non-corruption error (a
/// transient fault that survived the retry policy, a thread-pool
/// breakage, ...), the column is re-run once with a plain synchronous
/// fetch loop before the error is surfaced — the degradation is logged
/// once and counted in `storage.fallback.sync` / the run's
/// [`ResilienceSnapshot`](hus_storage::ResilienceSnapshot). Corruption
/// (checksum mismatches, bad casts) is never masked by a retry.
fn process_column<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
    col: usize,
) -> Result<(Vec<Pr::Value>, u64)> {
    match process_column_inner(ctx, store, col, true) {
        // A crossed deadline is a final verdict on the query, not a
        // pipeline fault — re-running the column synchronously would
        // only overshoot the budget further.
        Err(e) if !e.is_corruption() && !e.is_deadline() => {
            hus_storage::retry::warn_once(
                &SYNC_FALLBACK_ONCE,
                "COP readahead pipeline failed; degrading to synchronous block fetches",
            );
            OBS_SYNC_FALLBACKS.add(1);
            ctx.graph.dir().resilience().record_sync_fallback();
            if hus_obs::heatmap_enabled() {
                // Every non-empty block of the column is re-fetched
                // synchronously; mark them all degraded on the heatmap.
                for i in 0..ctx.graph.p() {
                    if ctx.graph.in_block_len(i, col) > 0 {
                        hus_obs::attr::record_at(
                            i as u32,
                            col as u32,
                            hus_obs::BlockStat::Degradations,
                            1,
                        );
                    }
                }
            }
            process_column_inner(ctx, store, col, false)
        }
        other => other,
    }
}

/// The actual column walk; without `pipelined` it is the fully
/// synchronous fetch loop (a column worker's, and the degraded mode).
fn process_column_inner<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
    col: usize,
    pipelined: bool,
) -> Result<(Vec<Pr::Value>, u64)> {
    let meta = ctx.graph.meta();
    let mut d_col = load_d(ctx.program, store, col, Access::Sequential)?;
    let dst_base = meta.interval_start(col);
    let mut streamed = 0u64;

    let fetch = |i: usize| -> Result<FetchedBlock<Pr::Value>> {
        // The whole fetch (vertex chunk + index + edge stream) runs
        // under block (i, col)'s attribution scope, so the heatmap sees
        // the column's vertex-value traffic too, not just edge bytes.
        hus_obs::attr::with_block(i as u32, col as u32, || {
            let s_block = store.load_current(i, Access::Sequential)?;
            let index = ctx.graph.load_in_index(i, col, Access::Sequential)?;
            let records = ctx.graph.stream_in_block(i, col)?;
            Ok(FetchedBlock { src_interval: i, s_block, index, records })
        })
    };

    let blocks: Vec<usize> =
        (0..ctx.graph.p()).filter(|&i| ctx.graph.in_block_len(i, col) > 0).collect();

    let depth = if pipelined { readahead_window().min(blocks.len()) } else { 1 };
    READAHEAD_DEPTH.set(depth as u64);
    if depth <= 1 {
        // Nothing to overlap (a column worker, or degraded mode): fetch
        // inline.
        for &i in &blocks {
            crate::engine::check_deadline(ctx.deadline.as_ref())?;
            let block = fetch(i)?;
            BLOCK_EDGES.record(block.records.len() as u64);
            streamed += block.records.len() as u64;
            pull_block(ctx, &block, dst_base, &mut d_col);
        }
        return Ok((d_col, streamed));
    }

    // N-deep ordered prefetch pipeline (paper §3.5): producers claim
    // sequence numbers, fetch within the sliding window, and park the
    // result in the ready map; the consumer takes blocks strictly in
    // order.
    let state = Mutex::new(PipelineState::<Pr::Value> {
        ready: BTreeMap::new(),
        next_emit: 0,
        cancelled: false,
    });
    let wakeup = Condvar::new();
    let next_fetch = AtomicUsize::new(0);
    // Producer fan-out = the software queue depth presented to the
    // storage backend (the direct-I/O backend's read fan-out has the
    // same width), clamped by the window (more producers than resident
    // slots would just park).
    let producers = depth.min(DEFAULT_QUEUE_DEPTH);
    let record_bytes = meta.edge_record_bytes();

    let result: Result<()> = std::thread::scope(|scope| {
        for _ in 0..producers {
            scope.spawn(|| {
                let _cancel = CancelOnUnwind { state: &state, wakeup: &wakeup };
                loop {
                    let seq = next_fetch.fetch_add(1, Ordering::Relaxed);
                    if seq >= blocks.len() {
                        break;
                    }
                    {
                        let mut st = state.lock().expect("pipeline state poisoned");
                        while !st.cancelled && seq >= st.next_emit + depth {
                            st = wakeup.wait(st).expect("pipeline state poisoned");
                        }
                        if st.cancelled {
                            break;
                        }
                    }
                    let fetched = fetch(blocks[seq]);
                    let failed = fetched.is_err();
                    let mut st = state.lock().expect("pipeline state poisoned");
                    if failed {
                        // Stop the pool eagerly; the consumer will hit the
                        // error when it reaches this sequence number.
                        st.cancelled = true;
                    }
                    st.ready.insert(seq, fetched);
                    wakeup.notify_all();
                    if failed {
                        break;
                    }
                }
            });
        }

        let _cancel = CancelOnUnwind { state: &state, wakeup: &wakeup };
        for seq in 0..blocks.len() {
            if let Err(e) = crate::engine::check_deadline(ctx.deadline.as_ref()) {
                // Same teardown as a fetch error: cancel the producer
                // pool so no thread keeps reading past the deadline.
                let mut st = state.lock().expect("pipeline state poisoned");
                st.cancelled = true;
                st.ready.clear();
                wakeup.notify_all();
                return Err(e);
            }
            let t0 = hus_obs::latency_timer();
            let fetched = {
                let mut st = state.lock().expect("pipeline state poisoned");
                loop {
                    if let Some(b) = st.ready.remove(&seq) {
                        st.next_emit = seq + 1;
                        wakeup.notify_all();
                        break b;
                    }
                    st = wakeup.wait(st).expect("pipeline state poisoned");
                }
            };
            QUEUE_WAIT_NS.record_elapsed(t0);
            let block = match fetched {
                Ok(b) => b,
                Err(e) => {
                    // Cancel the pool and account for blocks that were
                    // fetched ahead but will never be consumed.
                    let mut st = state.lock().expect("pipeline state poisoned");
                    st.cancelled = true;
                    let unused: u64 = st
                        .ready
                        .values()
                        .filter_map(|r| r.as_ref().ok())
                        .map(|b| b.records.len() as u64 * record_bytes)
                        .sum();
                    if unused > 0 {
                        READAHEAD_UNUSED.add(unused);
                    }
                    st.ready.clear();
                    wakeup.notify_all();
                    return Err(e);
                }
            };
            BLOCK_EDGES.record(block.records.len() as u64);
            streamed += block.records.len() as u64;
            pull_block(ctx, &block, dst_base, &mut d_col);
        }
        Ok(())
    });
    result?;

    Ok((d_col, streamed))
}

/// The I/O plan of pulling column `col`: exactly the bytes
/// [`run_columns`] bills for it. `D_col` is read and written back once; every
/// non-empty in-block `(i, col)` costs its `S_i`, its in-index and its
/// encoded payload, all sequential (an overlay-resident block is
/// served from memory; the stream bypasses the decoded-block cache, so
/// a compressed block bills its payload every sweep). Nothing here
/// depends on the frontier — COP pays for every in-edge, active or not.
pub fn column_plan(graph: &HusGraph, col: usize, value_bytes: u64) -> IoPlan {
    let meta = graph.meta();
    let d_bytes = meta.interval_len(col) as u64 * value_bytes;
    let mut plan = IoPlan { sequential: d_bytes, write: d_bytes, ..Default::default() };
    for i in (0..graph.p()).filter(|&i| graph.in_block_len(i, col) > 0) {
        plan.sequential += meta.interval_len(i) as u64 * value_bytes;
        if !graph.in_block_resident(i, col) {
            plan.sequential += (meta.interval_len(col) as u64 + 1) * INDEX_ENTRY_BYTES
                + meta.in_block(i, col).encoded_bytes;
        }
    }
    plan
}

/// The I/O plan of a whole COP sweep (all `P` columns); static for a
/// run, so the engine computes it once.
pub fn sweep_plan(graph: &HusGraph, value_bytes: u64) -> IoPlan {
    (0..graph.p()).map(|col| column_plan(graph, col, value_bytes)).sum()
}

/// Pull the columns `cols` and write each one's `D` back (the caller
/// commits them together afterwards). The columns write disjoint `D`
/// buffers, so they fan out over the run's pool with no write
/// conflicts; the first error in column order wins. A unit with one
/// worker streams its columns through the readahead pipeline, its only
/// overlap; with more, every worker fetches its own column
/// synchronously and the other workers' columns are the overlap.
/// Returns the total edge records streamed.
pub fn run_columns<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
    cols: &[usize],
) -> Result<u64> {
    let pipelined = rayon::current_num_threads().min(cols.len()) == 1;
    let streamed = cols
        .to_vec()
        .into_par_iter()
        .map(|col| {
            let _s = span!("cop.column", interval = col);
            let (d_col, n) = if pipelined {
                process_column(ctx, store, col)?
            } else {
                process_column_inner(ctx, store, col, false)?
            };
            store.write_next(col, &d_col)?;
            Ok(n)
        })
        .collect::<Result<Vec<u64>>>()?;
    Ok(streamed.iter().sum())
}

/// The in-memory pull of one fetched block into `D_col`: every
/// destination walks its own in-edge range in record order, so its
/// accumulation order is the same at every thread count.
fn pull_block<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    block: &FetchedBlock<Pr::Value>,
    dst_base: u32,
    d_col: &mut [Pr::Value],
) {
    let src_base = ctx.graph.meta().interval_start(block.src_interval);
    let degrees = ctx.graph.out_degrees();
    // Every source of an always-active program is active, and its next
    // frontier is already full: no frontier bit to load or set.
    let all_active = ctx.program.always_active();
    for ((dst, dst_val), range) in (dst_base..).zip(d_col).zip(block.index.windows(2)) {
        let mut changed = false;
        for (src, weight) in block.records.walk(range[0] as usize, range[1] as usize) {
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
    use crate::engine::{Deadline, Engine, RunConfig, Synchrony, UpdateMode};
    use crate::graph::HusGraph;
    use crate::meta::GraphMeta;
    use crate::predict::IoPlan;
    use crate::program::{EdgeCtx, VertexProgram};
    use crate::rop::IterCtx;
    use crate::vertex_store::VertexStore;
    use hus_storage::StorageDir;

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
    /// caller (not hang the pipeline, not panic a producer) — through
    /// the readahead pipeline at one thread and through the column
    /// workers at four. The in-edges shard is truncated *after* open, so
    /// `FileBackend`'s cached length admits the read and the underlying
    /// `pread` fails mid-column.
    #[test]
    fn mid_stream_storage_error_surfaces_not_hangs() {
        for threads in [1, 4] {
            let el = hus_gen::rmat(300, 3000, 5, Default::default());
            let tmp = tempfile::tempdir().unwrap();
            let dir = StorageDir::create(tmp.path().join("g")).unwrap();
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
            // pipeline would leave the channel empty.
            let failed = done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("COP run hung on a mid-stream storage error");
            assert!(failed, "{threads} threads: truncated shard must surface a StorageError");
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

    /// A crossed deadline stops the unit with the typed error — in the
    /// column workers (two threads) as in the pipeline (one).
    #[test]
    fn expired_deadline_stops_column_workers_with_the_typed_error() {
        let el = hus_gen::rmat(300, 3000, 5, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        let starts = &g.meta().interval_starts;
        let store = VertexStore::create(&dir.subdir("vals").unwrap(), "v", starts, |v| v).unwrap();
        let (active, next_active) = (ActiveSet::all(300), ActiveSet::new(300));
        let row_edges = crate::rop::row_edge_totals(&g);
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
            row_edges: &row_edges,
        };
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let err = pool.install(|| super::run_columns(&ctx, &store, &[0, 1, 2, 3]));
            let err = err.unwrap_err();
            assert!(err.is_deadline(), "{threads} threads: {err}");
        }
    }

    /// [`super::sweep_plan`] is the bill of a COP iteration, to the byte
    /// — at one thread and with column workers, also with a delta
    /// overlay attached, whose touched blocks are served from memory,
    /// and also under Gauss-Seidel, whose `P` one-column units together
    /// bill the one sweep.
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
            for synchrony in [Synchrony::Synchronous, Synchrony::GaussSeidel] {
                for threads in [1, 2] {
                    let mode = UpdateMode::ForceCop;
                    let cfg = RunConfig { mode, synchrony, threads, ..Default::default() };
                    let (_, stats) = Engine::new(g, &MinLabel, cfg).run().unwrap();
                    for it in &stats.iterations {
                        let at = (synchrony, threads, it.iteration);
                        assert_eq!(IoPlan::billed(&it.io), plan, "{at:?}");
                    }
                }
            }
            plan
        });
        assert!(plans[1].sequential < plans[0].sequential, "overlay blocks cost no device I/O");
    }
}
