//! Row-oriented Push (paper §3.3, Algorithm 2).
//!
//! Processing row `i`: load `S_i`; for every out-block `(i, j)` look up
//! the out-index, selectively fetch each active vertex's out-edge range
//! (random I/O — the whole point of ROP is to pay random access in
//! exchange for touching only active edges), derive `D_j = reset(S_j)`
//! on the first block that actually has edges to push, and push messages
//! into it; the touched `D_j` becomes current at the end of the push.
//! Out-blocks of a row have
//! disjoint destination intervals, so they are processed in parallel
//! (§3.5) with no write conflicts and no atomics on vertex values.
//!
//! An interval's values cross the device at most once per iteration
//! ([`Intervals`]): one read of `S_j` serves both row `j` and
//! `D_j = reset(S_j)`, and is freed once neither needs it. Each touched
//! `D_j` is committed to the [`VertexStore`] unwritten, as interval
//! `j`'s resident current copy, so the next iteration reads none of it;
//! it is written back only by the push that drops it — one that neither
//! pushes into interval `j` nor re-derives it ([`Intervals::finish`]).
//!
//! A run keeps every out-block's offset array it reads whole
//! ([`KeptOffsets`]): the first whole read of a base block's offsets is
//! billed and CRC-checked, and every later lookup in that block during
//! the run — a whole-array range or a would-be probe — is answered from
//! memory. The paper's Algorithm 2 reloads the index on every push; held
//! for a run it costs at most 4 B per occupied (vertex, block) plus one
//! terminal offset per block, where re-reading it costs that every
//! iteration the block is touched.
//!
//! [`plan`] prices an iteration before it runs by walking the same
//! choices over a one-pass [`Frontier`] summary — the `C_rop` side of
//! the hybrid predictor ([`crate::predict`]); a kept block is priced by
//! its actual ranges, as the executor fetches them.

use crate::active::ActiveSet;
use crate::graph::{EdgeRecords, HusGraph};
use crate::index::BlockIndex;
use crate::meta::{Orientation, INDEX_ENTRY_BYTES, INDEX_PROBE_BYTES};
use crate::predict::IoPlan;
use crate::program::{EdgeCtx, VertexProgram};
use crate::vertex_store::{count_served, VertexStore};
use crate::VertexId;
use hus_storage::pod::Pod;
use hus_storage::{Access, Result};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Sizes (in edges) of the selectively-fetched per-vertex ranges — the
/// distribution behind ROP's random-I/O bill.
static RANGE_EDGES: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("rop.range_edges");
/// Blocks processed with one coalesced (elevator) sweep.
static COALESCED_SWEEPS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("rop.coalesced_sweeps");
/// Blocks processed with per-vertex selective fetches.
static SELECTIVE_BLOCKS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("rop.selective_blocks");
/// Ranges per coalesced multi-range run (runs of length 1 stay random
/// reads and are not recorded here).
static MERGED_RUN_RANGES: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("rop.merged_run_ranges");
/// Bytes of out-offset arrays the run in flight keeps ([`KeptOffsets`]).
static KEPT_OFFSET_BYTES: hus_obs::LazyGauge = hus_obs::LazyGauge::new("rop.kept_offset_bytes");

/// The out-offset arrays one run keeps: a slot per out-block `(i, j)`,
/// filled by the first whole read of a base block's offsets
/// ([`plan_block_fetch`]) and read from memory for the rest of the run.
/// Overlay blocks lend their offsets from memory already and are never
/// kept. The engine owns one per [`Engine::run`](crate::Engine::run),
/// so a run's bill does not depend on the runs before it.
pub struct KeptOffsets {
    p: usize,
    slots: Box<[OnceLock<Box<[u32]>>]>,
    bytes: AtomicU64,
}

impl KeptOffsets {
    /// Empty slots for the `P × P` out-blocks of a graph with `p`
    /// intervals; the `rop.kept_offset_bytes` gauge restarts from zero.
    pub fn new(p: usize) -> Self {
        KEPT_OFFSET_BYTES.set(0);
        let slots = (0..p * p).map(|_| OnceLock::new()).collect();
        KeptOffsets { p, slots, bytes: AtomicU64::new(0) }
    }

    /// Out-block `(i, j)`'s offsets, once kept.
    fn get(&self, i: usize, j: usize) -> Option<&[u32]> {
        self.slots[i * self.p + j].get().map(|offsets| &offsets[..])
    }

    /// Keep `index`, just read for out-block `(i, j)`, for the rest of
    /// the run, and answer from the kept copy; an index that lends its
    /// offsets from memory (an overlay block) is used as it is. Only the
    /// one worker pushing the block in an iteration fills its slot.
    fn keep<'x>(&'x self, i: usize, j: usize, index: BlockIndex<'x>) -> BlockIndex<'x> {
        let occupancy = index.occupancy();
        let offsets = match index.into_read_offsets() {
            Ok(offsets) => offsets,
            Err(lent) => return lent,
        };
        let slot = &self.slots[i * self.p + j];
        let bytes = std::mem::size_of_val(&offsets[..]) as u64;
        if slot.set(offsets.into_boxed_slice()).is_ok() {
            KEPT_OFFSET_BYTES.set(self.bytes.fetch_add(bytes, Ordering::Relaxed) + bytes);
        }
        BlockIndex::new(occupancy, &slot.get().expect("just kept")[..])
    }

    /// Bytes of the offset arrays kept so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Shared read-only state for one iteration's workers.
pub struct IterCtx<'a, Pr: VertexProgram> {
    /// The graph being processed.
    pub graph: &'a HusGraph,
    /// The user program.
    pub program: &'a Pr,
    /// This iteration's frontier (read-only).
    pub active: &'a ActiveSet,
    /// Next iteration's frontier (written concurrently).
    pub next_active: &'a ActiveSet,
    /// `T_batched / T_random` of the device: per-vertex selective
    /// fetches are used only while they are predicted cheaper than one
    /// coalesced sweep of the block (the fetch choice of [`run_row`]).
    pub coalesce_ratio: f64,
    /// `T_sequential / T_random` of the device: per-vertex index *entry*
    /// fetches are used only while they are predicted cheaper than
    /// loading the block's whole offset array.
    pub index_ratio: f64,
    /// Cooperative deadline
    /// ([`RunConfig::deadline`](crate::engine::RunConfig)), checked at
    /// every block boundary of the ROP/COP loops.
    pub deadline: Option<crate::engine::Deadline>,
    /// The run's kept out-offset arrays.
    pub kept: &'a KeptOffsets,
}

/// Maximum byte gap between two selective edge ranges that are still
/// merged into one batched multi-range read: one 4 KiB device sector —
/// ranges closer than a sector apart cost the device nothing extra to
/// read as one run. Merging is disabled whenever `coalesce_ratio <= 1.0`
/// — if batched transfers are no faster than random ones there is
/// nothing to win.
pub const DEFAULT_MERGE_SLACK: u64 = 4096;

impl<Pr: VertexProgram> IterCtx<'_, Pr> {
    /// The slack [`merge_runs`] groups ranges under; `None` (no merging)
    /// when batched transfers are no faster than random ones.
    fn merge_slack(&self) -> Option<u64> {
        (self.coalesce_ratio > 1.0).then_some(DEFAULT_MERGE_SLACK)
    }

    fn scatter_ctx(&self, src: VertexId, dst: VertexId, weight: f32) -> EdgeCtx {
        EdgeCtx { src, dst, weight, src_out_degree: self.graph.out_degrees()[src as usize] }
    }
}

/// `D = reset(S)` of the interval whose first vertex is `base`: an
/// interval starts its iteration from its current values, reset.
pub fn reset_values<Pr: VertexProgram>(
    program: &Pr,
    base: VertexId,
    s: &[Pr::Value],
) -> Vec<Pr::Value> {
    s.iter().enumerate().map(|(k, v)| program.reset(base + k as u32, v)).collect()
}

/// One push iteration's vertex intervals, each crossing the device at
/// most once.
///
/// `S_j` is read when it is first needed: by row `j` as it starts, or to
/// derive `D_j = reset(S_j)` for the first out-block that has edges to
/// push into interval `j` ([`run_row`]); either use then finds it in
/// memory. The push takes the store's resident copies (the previous
/// push's unwritten `D` buffers) over as the `S` of their intervals, so
/// those are not read at all. An `S_j` is freed as soon as it has no use
/// left — once row `j` has run (or is not active) and `D_j` is derived —
/// and `D_j` then reuses its buffer when no row still reads it.
/// Otherwise it is kept to the end of the push, where a `reset`
/// re-derivation may still need it, or, if it was carried, its
/// write-back. `D` buffers live for the whole iteration, as under the
/// paper's per-row parallelism; one no active vertex pushes into is
/// never derived, and is swapped only to write a carried copy back —
/// otherwise its current values stay valid — which is what makes ROP
/// cheap on wavefront workloads that touch a couple of intervals per
/// iteration.
pub struct Intervals<'s, V: Pod> {
    store: &'s VertexStore<V>,
    sources: Vec<Mutex<Source<V>>>,
    /// `D_j` per interval, once derived.
    dests: Vec<Mutex<Option<Vec<V>>>>,
}

/// One interval's current values during a push.
struct Source<V> {
    /// `S_j` while it is in memory.
    values: Option<Arc<Vec<V>>>,
    /// `values` started as the store's resident copy, the interval's
    /// only current copy: written back at the end of the push unless a
    /// newer `D_j` supersedes it.
    carried: bool,
    /// `values` has been used (a carried copy counts as served once).
    used: bool,
    /// Row `j` is active and has not run yet.
    row_pending: bool,
    /// `D_j` has been derived.
    derived: bool,
}

impl<'s, V: Pod> Intervals<'s, V> {
    /// A push over the active `rows`, holding the store's resident
    /// copies; nothing is read yet.
    pub fn new(store: &'s mut VertexStore<V>, rows: &[usize]) -> Self {
        let carried = store.take_resident();
        let store: &'s VertexStore<V> = store;
        let sources = carried
            .into_iter()
            .enumerate()
            .map(|(j, values)| {
                Mutex::new(Source {
                    carried: values.is_some(),
                    used: false,
                    values: values.map(Arc::new),
                    row_pending: rows.contains(&j),
                    derived: false,
                })
            })
            .collect();
        let dests = (0..store.num_intervals()).map(|_| Mutex::new(None)).collect();
        Intervals { store, sources, dests }
    }

    /// `S_j`: from memory, or one load of interval `j`, kept for its
    /// other use. Interval values are contiguous transfers, billed
    /// sequential.
    fn source(&self, j: usize) -> Result<Arc<Vec<V>>> {
        let slot = &mut *self.sources[j].lock();
        match &slot.values {
            Some(values) if slot.carried && !std::mem::replace(&mut slot.used, true) => {
                count_served(values)
            }
            Some(_) => {}
            None => {
                let values = self.store.load_current(j, Access::Sequential)?;
                slot.values = Some(Arc::new(values));
            }
        }
        Ok(Arc::clone(slot.values.as_ref().expect("just loaded")))
    }

    /// Row `row` has run: its `S_row` is freed once `D_row` is derived.
    fn row_done(&self, row: usize) {
        let mut slot = self.sources[row].lock();
        slot.row_pending = false;
        if slot.derived {
            slot.values = None;
        }
    }

    /// `D_j = reset(S_j)`. `S_j` is freed unless row `j` still has to
    /// run, and the reset is done in place when nothing else holds it.
    fn derive<Pr: VertexProgram<Value = V>>(&self, program: &Pr, j: usize) -> Result<Vec<V>> {
        let s = self.source(j)?;
        {
            let mut slot = self.sources[j].lock();
            slot.derived = true;
            if !slot.row_pending {
                slot.values = None;
            }
        }
        let base = self.store.interval_start(j);
        Ok(match Arc::try_unwrap(s) {
            Ok(mut values) => {
                for (k, v) in values.iter_mut().enumerate() {
                    *v = program.reset(base + k as u32, v);
                }
                values
            }
            Err(s) => reset_values(program, base, &s),
        })
    }

    /// Settle every interval once the rows have pushed. A pushed-into
    /// `D_j` is handed back unwritten, to become interval `j`'s resident
    /// current copy. Under a non-identity `reset` every other interval is
    /// re-derived and written to the store's next file. Otherwise a
    /// carried copy nothing superseded is written back there — the one
    /// write of a resident copy, by the push that drops it — and the
    /// rest stand. One tracked write per written interval.
    pub fn finish<Pr: VertexProgram<Value = V>>(self, program: &Pr) -> Result<Vec<Commit<V>>> {
        let mut commits = Vec::with_capacity(self.dests.len());
        for (j, d) in self.dests.iter().enumerate() {
            let commit = match d.lock().take() {
                Some(values) => Commit::Resident(values),
                None if program.needs_reset() => {
                    self.store.write_next(j, &self.derive(program, j)?)?;
                    Commit::Written
                }
                None if !self.sources[j].lock().carried => Commit::Unchanged,
                None => {
                    let values = self.sources[j].lock().values.take();
                    let values = values.expect("an underived carried copy is held");
                    self.store.write_next(j, &values)?;
                    Commit::Written
                }
            };
            commits.push(commit);
        }
        Ok(commits)
    }
}

/// How a push leaves one interval's current values
/// ([`Intervals::finish`]).
#[derive(Debug, PartialEq)]
pub enum Commit<V> {
    /// Pushed into: the new values, to be kept resident and unwritten
    /// ([`VertexStore::commit_resident`]).
    Resident(Vec<V>),
    /// The new values, or the dropped resident copy, are in the store's
    /// next file ([`VertexStore::commit`]).
    Written,
    /// Neither pushed into nor carried: the current file holds its
    /// values.
    Unchanged,
}

/// Process row `i` under ROP, pushing its active vertices' edges of
/// every out-block `(row, j)` into the iteration's `D` buffers. `row`
/// must be one of the active rows `intervals` was made for. Returns
/// the number of edges pushed.
pub fn run_row<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    intervals: &Intervals<'_, Pr::Value>,
    row: usize,
) -> Result<u64> {
    let meta = ctx.graph.meta();
    let base = meta.interval_start(row);
    let end = meta.interval_starts[row + 1];
    let marked = ctx.active.marked_words(base, end);
    // S_i: read-only source values for the whole row. Index transfers
    // are contiguous, so they are billed sequential, like the interval
    // values; only the per-vertex edge-range fetches below are random.
    let s_row = intervals.source(row)?;

    // The row's out-blocks in parallel: disjoint destination intervals,
    // so each worker owns its D_j lock without contention. The lock is
    // taken only once the block is known to have edges to push, so rows
    // running concurrently overlap their index reads.
    let edge_counts: Vec<u64> = (0..ctx.graph.p())
        .into_par_iter()
        .map(|j| {
            crate::engine::check_deadline(ctx.deadline.as_ref())?;
            let Some(fetch) = plan_block_fetch(ctx, row, j, base, &marked)? else {
                return Ok(0);
            };
            let mut slot = intervals.dests[j].lock();
            if slot.is_none() {
                *slot = Some(intervals.derive(ctx.program, j)?);
            }
            let d_j = slot.as_mut().expect("just derived");
            push_fetch(ctx, (row, j), base, fetch, &s_row, d_j)
        })
        .collect::<Result<Vec<u64>>>()?;
    drop(s_row);
    intervals.row_done(row);
    Ok(edge_counts.iter().sum())
}

/// Whether `active_count` active sources with edges in a block whose
/// index holds `entries` occupied vertices should probe each one's two
/// delimiting offsets individually ([`INDEX_PROBE_BYTES`] random bytes
/// each) rather than read the block's whole `entries + 1`-entry offset
/// array. Actives without an edge in the block are neither: the
/// resident occupancy bitmap rules them out without I/O.
///
/// The crossover is a byte-cost comparison at the device's
/// `T_sequential / T_random` ratio (`index_ratio`):
/// `active_count * INDEX_PROBE_BYTES * index_ratio <
///  (entries + 1) * INDEX_ENTRY_BYTES`.
pub fn selective_index_probe(active_count: usize, entries: usize, index_ratio: f64) -> bool {
    active_count as f64 * INDEX_PROBE_BYTES as f64 * index_ratio
        < (entries + 1) as f64 * INDEX_ENTRY_BYTES as f64
}

/// Group sorted disjoint `(vertex, lo, hi)` edge ranges into coalesced
/// runs: consecutive ranges whose byte gap is at most `slack_bytes`
/// share a run (issued as one batched multi-range read). `None` disables
/// merging — every range becomes its own singleton run.
///
/// The plan must be sorted by record offset (it is built by an ascending
/// vertex walk, and vertex order equals offset order within a block) —
/// that is what makes each merged run a valid sorted batch for
/// [`ReadBackend::read_ranges`](hus_storage::ReadBackend::read_ranges),
/// which asserts sortedness in debug builds.
fn merge_runs(
    plan: &[(VertexId, u32, u32)],
    record_bytes: u64,
    slack_bytes: Option<u64>,
) -> Vec<std::ops::Range<usize>> {
    debug_assert!(
        plan.windows(2).all(|w| w[0].1 <= w[1].1),
        "selective ROP plan must be sorted by record offset"
    );
    if plan.is_empty() {
        return Vec::new();
    }
    let mut runs = Vec::new();
    let mut start = 0usize;
    for k in 1..plan.len() {
        if !joins(plan[k - 1].2, plan[k].1, record_bytes, slack_bytes) {
            runs.push(start..k);
            start = k;
        }
    }
    runs.push(start..plan.len());
    runs
}

/// Whether a range starting at record `lo` joins the run that ends at
/// record `end`: their byte gap is at most `slack_bytes` (`None`: no
/// range ever does) — [`merge_runs`]'s rule.
fn joins(end: u32, lo: u32, record_bytes: u64, slack_bytes: Option<u64>) -> bool {
    slack_bytes.is_some_and(|slack| lo.saturating_sub(end) as u64 * record_bytes <= slack)
}

/// What out-block `(row, j)` fetches for this frontier, decided from its
/// index ([`plan_block_fetch`]).
pub struct BlockFetch {
    /// The active vertices' non-empty `(vertex, lo, hi)` record ranges,
    /// ascending (`LoadOutEdges` in Algorithm 2).
    ranges: Vec<(VertexId, u32, u32)>,
    /// Read the block whole in one coalesced sweep instead of fetching
    /// the ranges selectively.
    sweep: bool,
}

/// How ROP fetches a raw block's selected `ranges` ([`fetch_choice`]).
struct FetchChoice {
    /// One coalesced sweep of the whole block is predicted no dearer
    /// than the selective fetch.
    sweep: bool,
    /// Records in singleton runs, fetched at the random rate when not
    /// swept.
    single: u64,
    /// Records in merged runs, fetched at the batched rate when not
    /// swept.
    merged: u64,
}

/// The fetch choice for the ascending `(lo, hi)` record ranges of a
/// block of `block_edges` records: they are grouped into runs by
/// [`merge_runs`]'s rule under the context's slack, and the block is
/// swept when its singleton records at the random rate plus its merged
/// ones at the batched rate cost at least one batched sweep of every
/// record. [`plan_block_fetch`] fetches by it and [`plan`] prices a
/// kept block by it, walking the ranges once without collecting them.
fn fetch_choice<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    ranges: impl IntoIterator<Item = (u32, u32)>,
    block_edges: u64,
) -> FetchChoice {
    let (record_bytes, slack) = (ctx.graph.meta().edge_record_bytes(), ctx.merge_slack());
    let (mut single, mut merged) = (0u64, 0u64);
    let mut close = |(len, records, _): (usize, u64, u32)| {
        *if len == 1 { &mut single } else { &mut merged } += records;
    };
    // The open run: its range count, records and end.
    let mut run: Option<(usize, u64, u32)> = None;
    for (lo, hi) in ranges {
        let records = (hi - lo) as u64;
        run = match run {
            Some((len, sum, end)) if joins(end, lo, record_bytes, slack) => {
                Some((len + 1, sum + records, hi))
            }
            open => {
                open.map(&mut close);
                Some((1, records, hi))
            }
        };
    }
    run.map(close);
    let sweep = single as f64 * ctx.coalesce_ratio + merged as f64 >= block_edges as f64;
    FetchChoice { sweep, single, merged }
}

/// `(vertex, lo, hi)` of the occupied `locals` of the interval starting
/// at `row_base`, looked up in `index`.
fn lookup(
    index: &BlockIndex<'_>,
    row_base: VertexId,
    locals: &[usize],
) -> Vec<(VertexId, u32, u32)> {
    (locals.iter())
        .map(|&l| {
            let (lo, hi) = index.range(l);
            (row_base + l as VertexId, lo, hi)
        })
        .collect()
}

/// Look up out-block `(row, j)`'s index for the row's active vertices,
/// `marked` ([`ActiveSet::marked_words`] of the interval starting at
/// `row_base`), and choose its fetch plan; `None` when no active vertex
/// has an edge in the block, so the caller never loads `D_j` for it.
///
/// The block's resident occupancy bitmap first drops the actives with
/// no edge in it, at no I/O; only the rest are looked up. A block whose
/// offsets the run keeps ([`KeptOffsets`]) answers from memory. Any
/// other is looked up by probes or one read of the offset array
/// ([`selective_index_probe`]); a base block's array read whole is kept
/// for the rest of the run. Then ROP chooses between two fetch plans
/// with the same cost model the predictor uses (`fetch_choice`):
/// fetching the active vertices' ranges selectively costs
/// `bytes / T_random` for isolated ranges and `bytes / T_batched` for
/// ranges `merge_runs` coalesces; one ascending sweep of the whole block
/// costs `block_bytes / T_batched`. The cheaper plan is taken, so a
/// dense scattered frontier gracefully degrades to an elevator sweep
/// instead of a seek storm, while a clustered one keeps reading only its
/// runs. A probed block, whose index cost already bet on a tiny
/// frontier, is fetched selectively. On a compressed graph a block that
/// is not in the decoded-block cache is always swept: any read of it
/// fetches the whole encoded payload, so the selective plan would move
/// the same bytes at the random rate.
///
/// [`run_row`] and the semi-external baseline, which holds every vertex
/// value in memory, fetch edges through here and [`push_fetch`].
pub fn plan_block_fetch<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    row: usize,
    j: usize,
    row_base: VertexId,
    marked: &[(usize, u64)],
) -> Result<Option<BlockFetch>> {
    let block_edges = ctx.graph.out_block_len(row, j);
    if block_edges == 0 {
        return Ok(None);
    }
    let occupancy = ctx.graph.occupied(Orientation::Out, row, j);
    let locals: Vec<usize> = occupancy.among(marked).collect();
    if locals.is_empty() {
        return Ok(None);
    }
    // Index probes land on (row, j)'s attribution cell, like the edge
    // fetches of `push_fetch`.
    hus_obs::attr::with_block(row as u32, j as u32, || {
        let mut sweep = !ctx.graph.codec().is_raw() && !ctx.graph.out_records_cached(row, j);
        let kept = ctx.kept.get(row, j);
        let probed = kept.is_none()
            && selective_index_probe(locals.len(), occupancy.count(), ctx.index_ratio);
        // Every looked-up vertex has a non-empty range.
        let ranges = if let Some(offsets) = kept {
            lookup(&BlockIndex::new(occupancy, offsets), row_base, &locals)
        } else if probed {
            // Tiny frontiers probe each vertex's two offsets (nearby
            // probes batched into one read, billed per probe) instead
            // of reading the block's whole offset array — the same
            // cost logic as every other fetch choice here.
            let found = ctx.graph.load_out_index_entries(row, j, &locals)?;
            let vertex = |local: usize| row_base + local as VertexId;
            locals.iter().zip(found).map(|(&l, (lo, hi))| (vertex(l), lo, hi)).collect()
        } else {
            let index = ctx.graph.block_index(Orientation::Out, row, j, Access::Sequential)?;
            lookup(&ctx.kept.keep(row, j, index), row_base, &locals)
        };
        // The probed ranges are fetched selectively.
        if !probed {
            let ranges = ranges.iter().map(|&(_, lo, hi)| (lo, hi));
            sweep |= fetch_choice(ctx, ranges, block_edges).sweep;
        }
        if sweep { &COALESCED_SWEEPS } else { &SELECTIVE_BLOCKS }.incr();
        Ok(Some(BlockFetch { ranges, sweep }))
    })
}

/// Fetch the edges `fetch` names and push them from the row's source
/// values `s_row` into `D_j`; returns the number of edges pushed. The
/// selective plan goes through [`fetch_selective`] under the context's
/// merge slack.
pub fn push_fetch<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    (row, j): (usize, usize),
    row_base: VertexId,
    fetch: BlockFetch,
    s_row: &[Pr::Value],
    d_j: &mut [Pr::Value],
) -> Result<u64> {
    let meta = ctx.graph.meta();
    let dst_base = meta.interval_start(j);
    let mut pushed = 0u64;
    // An always-active program's next frontier is already full.
    let all_active = ctx.program.always_active();

    let mut push_range = |v: VertexId, recs: &EdgeRecords, lo: usize, hi: usize| {
        let src_val = &s_row[(v - row_base) as usize];
        for (dst, weight) in recs.walk(lo, hi) {
            if let Some(msg) = ctx.program.scatter(src_val, &ctx.scatter_ctx(v, dst, weight)) {
                if ctx.program.combine(&mut d_j[(dst - dst_base) as usize], msg) && !all_active {
                    ctx.next_active.set(dst);
                }
            }
        }
        pushed += (hi - lo) as u64;
    };

    let BlockFetch { ranges, sweep } = fetch;
    hus_obs::attr::with_block(row as u32, j as u32, || -> Result<()> {
        if sweep {
            let recs = ctx.graph.load_out_block_batch(row, j)?;
            for (v, lo, hi) in ranges {
                push_range(v, &recs, lo as usize, hi as usize);
            }
            return Ok(());
        }
        fetch_selective(ctx.graph, (row, j), &ranges, ctx.merge_slack(), |v, recs| {
            push_range(v, recs, 0, recs.len())
        })
    })?;
    Ok(pushed)
}

/// Selectively fetch the non-empty `(vertex, lo, hi)` record ranges of
/// out-block `(i, j)`, sorted by vertex, handing each vertex's records
/// to `each` in order. Ranges arrive in ascending file order, so
/// ranges at most `slack_bytes` apart form one run (`None`: no
/// merging): each multi-range run is one batched operation billing
/// exactly the requested bytes, singletons stay random reads. ROP's
/// non-sweep fetch and `hus serve`'s lookups both read records through
/// here.
pub fn fetch_selective(
    graph: &HusGraph,
    (i, j): (usize, usize),
    ranges: &[(VertexId, u32, u32)],
    slack_bytes: Option<u64>,
    mut each: impl FnMut(VertexId, &EdgeRecords),
) -> Result<()> {
    for run_at in merge_runs(ranges, graph.meta().edge_record_bytes(), slack_bytes) {
        let run = &ranges[run_at];
        if let [(v, lo, hi)] = *run {
            RANGE_EDGES.record((hi - lo) as u64);
            each(v, &graph.load_out_records(i, j, lo, hi)?);
        } else {
            MERGED_RUN_RANGES.record(run.len() as u64);
            let wanted: Vec<(u32, u32)> = run.iter().map(|&(_, lo, hi)| (lo, hi)).collect();
            let fetched = graph.load_out_record_ranges(i, j, &wanted)?;
            for (recs, &(v, lo, hi)) in fetched.iter().zip(run) {
                RANGE_EDGES.record((hi - lo) as u64);
                each(v, recs);
            }
        }
    }
    Ok(())
}

/// Log₂ buckets of [`RowFrontier`]'s nearest-neighbour distances;
/// vertices farther than `2^NEAR_BUCKETS` ids from any other active
/// vertex count as isolated.
const NEAR_BUCKETS: usize = 24;

/// One source interval's part of the frontier.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowFrontier {
    /// Active vertices in the interval (`|A_i|`).
    pub actives: u64,
    /// Their out-degrees summed (`Σ_{v∈A_i} d_v`).
    pub degree_sum: u64,
    /// Per out-block `(i, j)`: the active vertices with edges in it, read
    /// off its resident occupancy — exactly the vertices [`run_row`]
    /// looks up there.
    pub occupied: Vec<u64>,
    /// `near[b]`: summed out-degree of the active vertices whose nearest
    /// active neighbour in the interval is fewer than `2^(b+1)` vertex
    /// ids away — how much of the row's edge traffic sits in clusters
    /// that [`merge_runs`] will coalesce.
    near: [u64; NEAR_BUCKETS],
}

impl RowFrontier {
    fn record(&mut self, degree: u32, nearest: u32) {
        self.actives += 1;
        self.degree_sum += degree as u64;
        if let Some(slot) = self.near.get_mut(nearest.ilog2() as usize) {
            *slot += degree as u64;
        }
    }

    /// Share of the row's active out-degree whose vertex has another
    /// active vertex at most `reach` ids away (linear within a bucket).
    fn share_within(&self, reach: f64) -> f64 {
        if reach < 1.0 || self.degree_sum == 0 {
            return 0.0;
        }
        let b = (reach as u64).ilog2() as usize;
        if b >= NEAR_BUCKETS {
            return self.near[NEAR_BUCKETS - 1] as f64 / self.degree_sum as f64;
        }
        let below = if b > 0 { self.near[b - 1] } else { 0 };
        let width = (1u64 << b) as f64;
        let inside = ((reach - width + 1.0) / width).min(1.0);
        (below as f64 + (self.near[b] - below) as f64 * inside) / self.degree_sum as f64
    }
}

/// What [`plan`] needs to know about an iteration's frontier, gathered
/// in the one pass that also yields the active out-edge count.
#[derive(Debug, Clone, PartialEq)]
pub struct Frontier {
    /// Per source interval.
    pub rows: Vec<RowFrontier>,
}

impl Frontier {
    /// Summarize `active` per source interval of `graph`.
    pub fn scan(graph: &HusGraph, active: &ActiveSet) -> Self {
        let meta = graph.meta();
        let degrees = graph.out_degrees();
        let rows = (0..graph.p())
            .map(|i| {
                let occupancy: Vec<_> =
                    (0..graph.p()).map(|j| graph.occupied(Orientation::Out, i, j)).collect();
                let mut row =
                    RowFrontier { occupied: vec![0; graph.p()], ..RowFrontier::default() };
                // A vertex is recorded once its successor is known: its
                // nearest active neighbour is the closer of the two.
                let base = meta.interval_start(i);
                let mut prev: Option<(VertexId, u32)> = None;
                for v in active.iter_range(base, meta.interval_starts[i + 1]) {
                    let local = (v - base) as usize;
                    for (count, occupied) in row.occupied.iter_mut().zip(&occupancy) {
                        *count += occupied.contains(local) as u64;
                    }
                    let mut gap = u32::MAX;
                    if let Some((u, before)) = prev {
                        gap = v - u;
                        row.record(degrees[u as usize], before.min(gap));
                    }
                    prev = Some((v, gap));
                }
                if let Some((u, before)) = prev {
                    row.record(degrees[u as usize], before);
                }
                for b in 1..NEAR_BUCKETS {
                    row.near[b] += row.near[b - 1];
                }
                row
            })
            .collect();
        Frontier { rows }
    }

    /// Active out-edges of the whole frontier (`Σ_{v active} d_v`).
    pub fn active_edges(&self) -> u64 {
        self.rows.iter().map(|r| r.degree_sum).sum()
    }
}

/// The I/O plan of pushing `frontier` ([`run_row`] over every active
/// row) while the store holds the intervals `resident` marks. It walks
/// the executor's own choices with the frontier summarized per row:
///
/// * each interval the iteration reads — an active row's `S_i`, a
///   pushed-into `D_j = reset(S_j)`, and, for programs with a
///   non-identity `reset`, every other interval — once, sequential,
///   unless it is resident ([`Intervals`]);
/// * per out-block `(i, j)` in which some active vertex has edges (the
///   frontier counts them off the resident occupancy, as the executor
///   does): index probes (random) or the whole `occupied + 1`-entry
///   offset array (sequential), by [`selective_index_probe`] — nothing
///   for a block whose offsets the run keeps; then the requested edges
///   — each such vertex bringing the block's mean range — either as one
///   coalesced sweep of the block (batched) or selectively, the share
///   of them that sits in mergeable clusters (gaps within the merge
///   slack) batched and the rest random; on a compressed graph, the
///   whole encoded block swept once, or nothing while the decoded-block
///   cache holds it. A kept block of a raw graph is priced by its
///   actual ranges under the executor's `fetch_choice`, so its plan
///   is its bill;
/// * one write of each interval the push does not push into (no block
///   has edges to push into it) but must write: every such interval for
///   programs with a non-identity `reset`, which re-derive it, and
///   otherwise each resident one, whose carried copy the push drops.
///   A pushed-into `D_j` stays resident unwritten.
///
/// Overlay-resident blocks are read from memory and cost nothing.
pub fn plan<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    frontier: &Frontier,
    resident: &[bool],
) -> IoPlan {
    let meta = ctx.graph.meta();
    let value_bytes = std::mem::size_of::<Pr::Value>() as f64;
    // Estimates are fractional; each class is rounded once at the end.
    let (mut sequential, mut batched, mut random) = (0.0f64, 0.0f64, 0.0f64);
    let mut pushed_into = vec![false; ctx.graph.p()];
    let mut source = vec![false; ctx.graph.p()];
    let record_bytes = meta.edge_record_bytes() as f64;
    for (i, row) in frontier.rows.iter().enumerate().filter(|(_, row)| row.actives > 0) {
        let len = meta.interval_len(i) as f64;
        let base = meta.interval_start(i);
        // The row's actives as a bitmap over the interval, its nonzero
        // words listed once a kept block needs their actual ranges.
        let mut marked: Option<Vec<(usize, u64)>> = None;
        source[i] = true;
        for (j, touched) in pushed_into.iter_mut().enumerate() {
            let looked_up = row.occupied[j];
            if looked_up == 0 {
                continue;
            }
            *touched = true;
            if ctx.graph.out_block_resident(i, j) {
                continue;
            }
            let block = meta.out_block(i, j);
            // A kept block's index is in memory; any other is probed or
            // read whole.
            let kept = ctx.kept.get(i, j);
            let probe = kept.is_none()
                && selective_index_probe(
                    looked_up as usize,
                    block.occupied as usize,
                    ctx.index_ratio,
                );
            if probe {
                random += (looked_up * INDEX_PROBE_BYTES) as f64;
            } else if kept.is_none() {
                sequential += block.offsets_bytes() as f64;
            }
            let block_bytes = block.encoded_bytes as f64;
            let ranges = looked_up as f64;
            if ctx.graph.out_records_cached(i, j) {
                // Decoded-block cache hit: the records cost nothing.
            } else if !ctx.graph.codec().is_raw() {
                batched += block_bytes;
            } else if let Some(offsets) = kept {
                // The row's actual ranges, fetched by the executor's own
                // choice: priced exactly.
                let marked = marked.get_or_insert_with(|| {
                    ctx.active.marked_words(base, meta.interval_starts[i + 1])
                });
                let occupancy = ctx.graph.occupied(Orientation::Out, i, j);
                let index = BlockIndex::new(occupancy, offsets);
                let ranges = occupancy.among(marked).map(|l| index.range(l));
                let choice = fetch_choice(ctx, ranges, block.edge_count);
                if choice.sweep {
                    batched += block_bytes;
                } else {
                    batched += choice.merged as f64 * record_bytes;
                    random += choice.single as f64 * record_bytes;
                }
            } else {
                let block_edges = block.edge_count as f64;
                let requested = ranges * block_edges / block.occupied as f64;
                // Two ranges merge when the records between them fit the
                // slack: at the block's mean density that is `reach`
                // vertex ids, shrunk by how much sparser the block's
                // ranges are than the row's actives.
                let merged = if ctx.merge_slack().is_some() && ranges >= 2.0 {
                    let reach = DEFAULT_MERGE_SLACK as f64 * len / block_bytes + 1.0;
                    row.share_within(reach * ranges / row.actives as f64)
                } else {
                    0.0
                };
                let rated = requested * (merged + (1.0 - merged) * ctx.coalesce_ratio);
                if !probe && rated >= block_edges {
                    batched += block_bytes;
                } else {
                    let bytes = requested / block_edges * block_bytes;
                    batched += bytes * merged;
                    random += bytes * (1.0 - merged);
                }
            }
        }
    }
    let reset = ctx.program.needs_reset();
    let derived = |j: usize| pushed_into[j] || reset;
    let written = |j: usize| !pushed_into[j] && (resident[j] || reset);
    let interval_bytes = |j: usize| meta.interval_len(j) as u64 * value_bytes as u64;
    let read: u64 = (0..ctx.graph.p())
        .filter(|&j| (source[j] || derived(j)) && !resident[j])
        .map(interval_bytes)
        .sum();
    IoPlan {
        sequential: sequential.round() as u64 + read,
        batched: batched.round() as u64,
        random: random.round() as u64,
        write: (0..ctx.graph.p()).filter(|&j| written(j)).map(interval_bytes).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunConfig, UpdateMode};
    use crate::BuildConfig;
    use hus_storage::StorageDir;

    /// Counts messages; only vertex 5 starts active. `reset` to zero (a
    /// PageRank-family accumulator) is opt-in.
    struct CountFromFive {
        reset: bool,
    }

    impl VertexProgram for CountFromFive {
        type Value = u32;
        fn init(&self, v: u32) -> u32 {
            100 + v
        }
        fn initially_active(&self, v: u32) -> bool {
            v == 5
        }
        fn scatter(&self, _src: &u32, _ctx: &EdgeCtx) -> Option<u32> {
            Some(1)
        }
        fn combine(&self, dst: &mut u32, msg: u32) -> bool {
            *dst += msg;
            true
        }
        fn reset(&self, _v: u32, prev: &u32) -> u32 {
            if self.reset {
                0
            } else {
                *prev
            }
        }
        fn needs_reset(&self) -> bool {
            self.reset
        }
    }

    /// A 64-cycle in four 16-vertex intervals (raw codec: the byte
    /// counts are pinned).
    fn cycle64() -> (tempfile::TempDir, HusGraph) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let config = BuildConfig::with_p_codec(4, hus_codec::Codec::Raw);
        let g = HusGraph::build_into(&hus_gen::classic::cycle(64), &dir, &config).unwrap();
        (tmp, g)
    }

    /// `iterations` push iterations of [`CountFromFive`] over
    /// [`cycle64`].
    fn one_push_from_five(reset: bool, iterations: usize) -> (Vec<u32>, crate::RunStats) {
        let (_tmp, g) = cycle64();
        let config = RunConfig {
            max_iterations: iterations,
            threads: 1,
            throughput: SLOW_SWEEPS,
            ..RunConfig::with_mode(UpdateMode::ForceRop)
        };
        Engine::new(&g, &CountFromFive { reset }, config).run().unwrap()
    }

    /// An HDD whose coalesced sweeps are only twice as fast as random
    /// reads, so that even this graph's 15-record blocks are read
    /// selectively (at the preset's 40:1 one record justifies a sweep).
    const SLOW_SWEEPS: hus_storage::Throughput =
        hus_storage::Throughput { sequential_bps: 120e6, random_bps: 1e6, batched_bps: 2e6 };

    /// The executor's side of the plan: a frontier of one vertex whose
    /// only edge (5 → 6) lands in out-block (0, 0) touches `S_0`, that
    /// block's index and one `D_0` — neither the index nor the `D_1` of
    /// the row's other non-empty block (0, 1), whose resident bitmap
    /// says it holds 15 → 16 but nothing of vertex 5's.
    #[test]
    fn one_vertex_frontier_reads_one_source_and_one_destination_interval() {
        let (values, stats) = one_push_from_five(false, 1);
        assert_eq!(values[6], 107, "one message into 6");
        assert_eq!(values[16], 116, "interval 1 is untouched");
        let io = &stats.iterations[0].io;
        // S_0: 16 values × 4 B, read once: D_0 = reset(S_0) is derived
        // from the same buffer. Index: block (0, 0)'s 15 occupied
        // vertices make a 16-entry offset array, and reading it whole
        // (64 B sequential) beats one 8-byte probe at the HDD's 120:1
        // ratio.
        assert_eq!(io.seq_read_bytes, 64 + 64);
        // D_0 stays resident unwritten, and the run's result takes it
        // from memory: no interval is written.
        assert_eq!((io.write_bytes, io.write_ops), (0, 0));
        // The one requested record, a singleton run.
        assert_eq!((io.rand_read_bytes, io.rand_read_ops), (4, 1));
        assert_eq!(io.batched_read_bytes, 0);
    }

    /// A PageRank-family program re-derives every vertex each iteration:
    /// intervals nothing was pushed into are still reset and written;
    /// the pushed-into `D_0` stays resident unwritten.
    #[test]
    fn reset_programs_still_rederive_untouched_intervals() {
        let (values, stats) = one_push_from_five(true, 1);
        let mut want = vec![0u32; 64];
        want[6] = 1;
        assert_eq!(values, want);
        let io = &stats.iterations[0].io;
        assert_eq!((io.write_bytes, io.write_ops), (3 * 64, 3));
        // S_0 (which D_0 is reset from), one index, and the other three
        // intervals read for their reset.
        assert_eq!(io.seq_read_bytes, 64 + 64 + 3 * 64);
    }

    /// Each `S_j` is read once and freed as soon as it has no use left:
    /// after `D_j` is derived when row `j` is not active, after row `j`
    /// has run when `D_j` was derived first, and at the end of the push
    /// otherwise. A carried (resident) copy is used without a read.
    #[test]
    fn a_source_interval_is_read_once_and_freed_after_its_last_use() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let mut store = VertexStore::create(&dir, "v", &[0, 2, 4, 6, 8], |v| 100 + v).unwrap();
        store.commit_resident(2, vec![7, 8]);
        dir.tracker().reset();
        let program = CountFromFive { reset: true };
        let held = |iv: &Intervals<'_, u32>, j: usize| iv.sources[j].lock().values.is_some();
        // What `run_row` does on the first push into interval `j`.
        let derive = |iv: &Intervals<'_, u32>, j: usize| {
            let d = iv.derive(&program, j).unwrap();
            assert_eq!(d, [0, 0]);
            *iv.dests[j].lock() = Some(d);
        };
        let intervals = Intervals::new(&mut store, &[0, 1]);

        // Row 0 runs while D_0 is derived from its S_0: one read.
        let s0 = intervals.source(0).unwrap();
        derive(&intervals, 0);
        assert!(held(&intervals, 0), "row 0 still runs");
        drop(s0);
        intervals.row_done(0);
        assert!(!held(&intervals, 0), "row 0 has run and D_0 is derived");
        // D_1 before row 1: S_1 is kept for the row, then freed.
        derive(&intervals, 1);
        assert_eq!(*intervals.source(1).unwrap(), [102, 103]);
        intervals.row_done(1);
        assert!(!held(&intervals, 1));
        // Interval 2 (no active row) is carried: its D derives in place.
        assert!(held(&intervals, 2));
        derive(&intervals, 2);
        assert!(!held(&intervals, 2));
        let io = dir.tracker().snapshot();
        assert_eq!((io.seq_read_bytes, io.seq_read_ops), (2 * 8, 2), "S_0 and S_1, once each");

        // Interval 3 is neither pushed into nor active: the reset
        // re-derivation reads it once at the end of the push, and is the
        // one interval written. The pushed-into D's are handed back
        // unwritten.
        let commits = intervals.finish(&program).unwrap();
        let pushed = || Commit::Resident(vec![0, 0]);
        assert_eq!(commits, [pushed(), pushed(), pushed(), Commit::Written]);
        let io = dir.tracker().snapshot();
        assert_eq!((io.seq_read_bytes, io.write_bytes, io.write_ops), (3 * 8, 8, 1));
        assert_eq!(store.resident_mask(), [false; 4], "the push took the carried copy");
    }

    /// The second of two pushes neither reads nor writes the interval
    /// the first pushed into: `S_0` and `D_0` come from the resident
    /// copy, and the new `D_0` supersedes it unwritten.
    #[test]
    fn a_pushed_interval_is_not_read_or_written_by_the_next_push() {
        let (values, stats) = one_push_from_five(false, 2);
        assert_eq!((values[6], values[7]), (107, 108), "5 → 6, then 6 → 7");
        let second = &stats.iterations[1];
        assert_eq!(second.active_vertices, 1, "vertex 6");
        // The one record only: block (0, 0)'s 64 B offset array was kept
        // by the first push.
        assert_eq!(second.io.seq_read_bytes, 0);
        assert_eq!(stats.kept_offset_bytes, 64);
        assert_eq!((second.io.rand_read_bytes, second.io.rand_read_ops), (4, 1));
        assert_eq!((second.io.write_bytes, second.io.write_ops), (0, 0));
        // The returned values (`read_all_current`, interval 0 from
        // memory) equal a run that keeps nothing resident.
        let config = RunConfig { max_iterations: 2, threads: 1, ..Default::default() };
        let cop = RunConfig { mode: UpdateMode::ForceCop, ..config };
        let (_tmp, g) = cycle64();
        let (pulled, _) = Engine::new(&g, &CountFromFive { reset: false }, cop).run().unwrap();
        assert_eq!(values, pulled);
    }

    /// The planner's side: [`plan`] prices exactly those bytes.
    #[test]
    fn plan_of_a_one_vertex_frontier_is_what_the_executor_bills() {
        let (_tmp, g) = cycle64();
        let active = ActiveSet::from_fn(64, |v| v == 5);
        let frontier = Frontier::scan(&g, &active);
        assert_eq!((frontier.rows[0].actives, frontier.active_edges()), (1, 1));
        assert_eq!(frontier.rows[0].occupied, [1, 0, 0, 0], "vertex 5 has edges in (0, 0)");
        for reset in [false, true] {
            let ctx = IterCtx {
                graph: &g,
                program: &CountFromFive { reset },
                active: &active,
                next_active: &ActiveSet::new(64),
                coalesce_ratio: SLOW_SWEEPS.batched_bps / SLOW_SWEEPS.random_bps,
                index_ratio: SLOW_SWEEPS.sequential_bps / SLOW_SWEEPS.random_bps,
                deadline: None,
                kept: &KeptOffsets::new(4),
            };
            // Vertex 5 has edges in block (0, 0) only: one range of the
            // block's mean length (15 records over 15 occupied vertices)
            // and one destination interval, the one of each the executor
            // moves in the tests above. Each interval read is read once;
            // the pushed-into D_0 is not written, a re-derived one is.
            let d = if reset { 4 * 64 } else { 64 };
            let rederived = if reset { 3 * 64 } else { 0 };
            let want = IoPlan { sequential: 64 + d, random: 4, write: rederived, batched: 0 };
            assert_eq!(plan(&ctx, &frontier, &[false; 4]), want, "reset {reset}");
            // Resident intervals are read from memory. The push drops
            // the two it does not push into (2 and 3), writing each
            // back once — a write a re-derivation makes anyway.
            let free = [true, false, true, true];
            let kept = if reset { 64 } else { 0 };
            let dropped = if reset { 3 * 64 } else { 2 * 64 };
            let want = IoPlan { sequential: 64 + kept, write: dropped, ..want };
            assert_eq!(plan(&ctx, &frontier, &free), want, "reset {reset}, resident");
        }
    }

    /// Vertex `5 + t` is the frontier of iteration `t`. It pushes into
    /// interval 0 until vertex 15's edge 15 → 16 moves the wavefront
    /// into interval 1 at iteration 10: that push drops interval 0's
    /// carried copy and writes it back, the run's one interval write.
    #[test]
    fn an_interval_no_longer_pushed_into_is_written_once_by_the_push_that_drops_it() {
        let (values, stats) = one_push_from_five(false, 12);
        let want: Vec<u32> = (0..64).map(|v| 100 + v + (6..18).contains(&v) as u32).collect();
        assert_eq!(values, want, "one message into each of 6..=17");
        let writes: Vec<_> =
            stats.iterations.iter().map(|it| (it.io.write_bytes, it.io.write_ops)).collect();
        let mut want = vec![(0, 0); 12];
        want[10] = (64, 1);
        assert_eq!(writes, want);
    }

    /// Sends one message along every edge of a frontier of 16
    /// consecutive vertices.
    struct CountFromCluster;

    const CLUSTER: std::ops::Range<u32> = 100..116;

    impl VertexProgram for CountFromCluster {
        type Value = u32;
        fn init(&self, _v: u32) -> u32 {
            0
        }
        fn initially_active(&self, v: u32) -> bool {
            CLUSTER.contains(&v)
        }
        fn scatter(&self, _src: &u32, _ctx: &EdgeCtx) -> Option<u32> {
            Some(1)
        }
        fn combine(&self, dst: &mut u32, msg: u32) -> bool {
            *dst += msg;
            true
        }
    }

    /// A small clustered frontier on the HDD profile takes the
    /// selective-probe branch: its probes bill the random bytes of one
    /// `load_out_index_entry` per (active vertex, block it has edges
    /// in), but as one batched read per block.
    #[test]
    fn clustered_probes_bill_per_entry_bytes_in_fewer_ops() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let config = BuildConfig::with_p_codec(2, hus_codec::Codec::Raw);
        let g = HusGraph::build_into(&hus_gen::classic::cycle(1 << 14), &dir, &config).unwrap();
        let hdd = hus_storage::DeviceProfile::hdd().read;
        let ratio = hdd.sequential_bps / hdd.random_bps;
        // Out-block (0, 0) has edges from 8191 of interval 0's vertices.
        assert_eq!(g.meta().out_block(0, 0).occupied, (1 << 13) - 1);
        assert!(selective_index_probe(CLUSTER.len(), (1 << 13) - 1, ratio));

        // The per-entry bill: one 8-byte random read per probe in
        // out-block (0, 0). The row's other non-empty block, (0, 1),
        // holds only 8191 → 8192: its bitmap answers for the cluster
        // without I/O.
        g.dir().tracker().reset();
        let mut probes = 0u64;
        for j in 0..2 {
            for v in CLUSTER {
                let (lo, hi) = g.load_out_index_entry(0, j, v as usize).unwrap();
                assert_eq!(hi - lo, (j == 0) as u32, "vertex {v}, block (0, {j})");
                probes += (j == 0) as u64;
            }
        }
        let per_entry = g.dir().tracker().snapshot();
        assert_eq!((per_entry.rand_read_bytes, per_entry.rand_read_ops), (8 * 16, probes));

        let config = RunConfig {
            max_iterations: 1,
            threads: 1,
            ..RunConfig::with_mode(UpdateMode::ForceRop)
        };
        let (values, stats) = Engine::new(&g, &CountFromCluster, config).run().unwrap();
        assert!(CLUSTER.into_iter().all(|v| values[v as usize + 1] == 1));
        assert_eq!(values.iter().sum::<u32>(), 16);
        let io = &stats.iterations[0].io;
        // The cluster's 16 adjacent records are one merged run.
        assert_eq!((io.batched_read_bytes, io.batched_read_ops), (4 * 16, 1));
        assert_eq!(io.rand_read_bytes, per_entry.rand_read_bytes);
        assert_eq!(io.rand_read_ops, 1, "one probe run, not {probes}");
    }

    /// Sends one message along every edge of an arbitrary frontier.
    struct Touch;

    impl VertexProgram for Touch {
        type Value = u32;
        fn init(&self, _v: u32) -> u32 {
            0
        }
        fn initially_active(&self, _v: u32) -> bool {
            false
        }
        fn scatter(&self, _src: &u32, _ctx: &EdgeCtx) -> Option<u32> {
            Some(1)
        }
        fn combine(&self, dst: &mut u32, msg: u32) -> bool {
            *dst += msg;
            true
        }
    }

    /// One push of `active` over `g` from a fresh vertex store, keeping
    /// offsets in `kept`: the plan priced before it and its bill.
    fn priced_push(
        g: &HusGraph,
        kept: &KeptOffsets,
        active: &ActiveSet,
        tput: hus_storage::Throughput,
    ) -> (IoPlan, IoPlan) {
        let n = g.meta().num_vertices;
        let next_active = ActiveSet::new(n);
        let ctx = IterCtx {
            graph: g,
            program: &Touch,
            active,
            next_active: &next_active,
            coalesce_ratio: tput.batched_bps / tput.random_bps,
            index_ratio: tput.sequential_bps / tput.random_bps,
            deadline: None,
            kept,
        };
        let meta = g.meta();
        let scratch = g.dir().subdir("priced_push").unwrap();
        let mut store = VertexStore::create(&scratch, "v", &meta.interval_starts, |_| 0).unwrap();
        let planned = plan(&ctx, &Frontier::scan(g, active), &store.resident_mask());
        let before = g.dir().tracker().snapshot();
        let rows: Vec<usize> = (0..g.p())
            .filter(|&i| {
                active.count_range(meta.interval_start(i), meta.interval_starts[i + 1]) > 0
            })
            .collect();
        let intervals = Intervals::new(&mut store, &rows);
        for &row in &rows {
            run_row(&ctx, &intervals, row).unwrap();
        }
        intervals.finish(&Touch).unwrap();
        (planned, IoPlan::billed(&g.dir().tracker().snapshot().since(&before)))
    }

    /// Once an all-active push has kept every out-block's offsets, a
    /// push of any frontier reads no index, and [`plan`] prices its
    /// records by the row's actual ranges under the executor's own fetch
    /// choice: every access class is planned to the byte.
    #[test]
    fn an_iteration_over_kept_blocks_is_planned_equal_to_its_bill() {
        let hdd = hus_storage::DeviceProfile::hdd().read;
        let graphs = [
            hus_gen::watts_strogatz(1 << 12, 8, 0.05, 5),
            hus_gen::rmat(1 << 12, 40_000, 6, hus_gen::RmatConfig::default()),
        ];
        let (mut swept, mut merged, mut random) = (0, 0, 0);
        for (k, el) in graphs.iter().enumerate() {
            let tmp = tempfile::tempdir().unwrap();
            let dir = StorageDir::create(tmp.path().join("g")).unwrap();
            let config = BuildConfig::with_p_codec(4, hus_codec::Codec::Raw);
            let g = HusGraph::build_into(el, &dir, &config).unwrap();
            let n = el.num_vertices;
            for tput in [hdd, SLOW_SWEEPS] {
                let kept = KeptOffsets::new(4);
                priced_push(&g, &kept, &ActiveSet::all(n), tput);
                let blocks = (0..16).filter(|&b| g.out_block_len(b / 4, b % 4) > 0).count();
                assert!((0..16).all(
                    |b| kept.get(b / 4, b % 4).is_some() || g.out_block_len(b / 4, b % 4) == 0
                ));
                assert!(blocks > 4, "graph {k}");
                // Frontiers from a handful of scattered vertices to
                // dense clusters.
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ k as u64;
                for density in [1u64, 4, 30, 200, 700] {
                    let active = ActiveSet::from_fn(n, |v| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let clustered = (v / 64) % 5 == 0 && density > 100;
                        (x >> 33) % 1000 < density || clustered
                    });
                    let (planned, billed) = priced_push(&g, &kept, &active, tput);
                    let at = format!("graph {k}, {tput:?}, density {density}");
                    assert_eq!(planned, billed, "{at}");
                    swept += (billed.batched > 0 && billed.random == 0) as u32;
                    merged += (billed.batched > 0) as u32;
                    random += (billed.random > 0) as u32;
                }
            }
        }
        assert!(swept > 0 && merged > 0 && random > 0, "{swept} {merged} {random}");
    }

    #[test]
    fn frontier_scan_buckets_actives_by_nearest_neighbour() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&hus_gen::classic::cycle(64), &dir, &BuildConfig::with_p(2))
            .unwrap();
        // Row 0: a pair (3, 4), then 20 (16 away from 4), row 1: 40 alone.
        let active = ActiveSet::from_fn(64, |v| [3, 4, 20, 40].contains(&v));
        let f = Frontier::scan(&g, &active);
        assert_eq!((f.rows[0].actives, f.rows[0].degree_sum), (3, 3));
        assert_eq!((f.rows[1].actives, f.rows[1].degree_sum), (1, 1));
        assert_eq!(f.active_edges(), 4);
        // Within 1 id: the pair, two thirds of the row's out-degree;
        // 20's nearest neighbour is 16 ids away; 40 is isolated.
        assert_eq!(f.rows[0].share_within(0.5), 0.0);
        assert!((f.rows[0].share_within(1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((f.rows[0].share_within(15.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((f.rows[0].share_within(16.0) - (2.0 + 1.0 / 16.0) / 3.0).abs() < 1e-12);
        assert_eq!(f.rows[0].share_within(31.0), 1.0);
        assert_eq!(f.rows[1].share_within(1e9), 0.0);
    }

    /// Regression: the selective-index crossover is pinned to the
    /// on-disk layout constants. If the record layout changes (e.g. u64
    /// offsets), these exact boundaries move and this test must be
    /// updated together with [`crate::meta::INDEX_ENTRY_BYTES`].
    #[test]
    fn selective_index_crossover_is_pinned_to_layout() {
        // index_ratio 3.0, a block with 600 occupied vertices: its offset
        // array costs (600 + 1) * 4 = 2404 sequential bytes; one probe
        // costs 8 * 3.0 = 24 random-byte equivalents. Crossover at
        // 2404 / 24 = 100.17 actives with edges in the block.
        assert!(selective_index_probe(100, 600, 3.0));
        assert!(!selective_index_probe(101, 600, 3.0));
        // index_ratio 1.0 degenerates to "probe while fewer than half
        // the offsets are needed": (99 + 1) * 4 / 8 = 50.
        assert!(selective_index_probe(49, 99, 1.0));
        assert!(!selective_index_probe(50, 99, 1.0));
        // An empty frontier always probes (vacuously cheap).
        assert!(selective_index_probe(0, 1_000_000, 100.0));
    }

    #[test]
    fn merge_runs_groups_by_byte_gap() {
        // Ranges in records; record_bytes 4 → byte gap = 4 * record gap.
        let plan: Vec<(VertexId, u32, u32)> =
            vec![(0, 0, 10), (1, 10, 12), (2, 14, 20), (3, 100, 101)];
        // Slack 8 bytes = 2 records: gaps are 0, 2, and 80 records.
        let runs = merge_runs(&plan, 4, Some(8));
        assert_eq!(runs, vec![0..3, 3..4]);
        // Slack 0 still merges directly adjacent ranges.
        assert_eq!(merge_runs(&plan, 4, Some(0)), vec![0..2, 2..3, 3..4]);
        // Disabled merging yields singletons.
        assert_eq!(merge_runs(&plan, 4, None), vec![0..1, 1..2, 2..3, 3..4]);
        assert!(merge_runs(&[], 4, Some(64)).is_empty());
    }

    /// An out-of-order plan is a logic error upstream (the vertex walk
    /// is ascending); debug builds must refuse to batch it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted by record offset")]
    fn merge_runs_rejects_unsorted_plan_in_debug() {
        let plan: Vec<(VertexId, u32, u32)> = vec![(0, 10, 12), (1, 0, 4)];
        let _ = merge_runs(&plan, 4, Some(8));
    }
}
