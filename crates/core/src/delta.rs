//! Dynamic graphs: streaming edge ingest over a built dual-block graph
//! (DESIGN.md §11).
//!
//! [`DynamicGraph`] wraps an opened [`HusGraph`] with an LSM-style
//! write path: [`DynamicGraph::insert_edge`] and
//! [`DynamicGraph::delete_edge`] land in an in-memory *memtable*
//! (per-block sorted maps; deletes are tombstones). When the memtable
//! crosses its byte budget (`HUS_MEMTABLE_BYTES`) it spills to an
//! immutable, CRC-sealed *delta run* on disk
//! ([`hus_storage::delta::DeltaRun`]) and the run is recorded in the
//! directory's `MANIFEST` under a bumped generation. Reads go through
//! [`DynamicGraph::snapshot`], which materializes a merged *overlay*
//! for every touched block and attaches it to the graph handle, so
//! PageRank/WCC/BFS see the updated edge set with no rebuild. Every run
//! section and memtable block is sorted by key, so the overlay is built
//! by merging, never by sorting out-blocks: the layers resolve into one
//! sorted newest-wins op list per block by successive two-way merges
//! (oldest run → newest run → memtable), and each op list is
//! two-pointer-merged with the block's base records into a block laid
//! out as the builders lay out theirs — occupancy bitmap, one offset per
//! occupied vertex, records (in-blocks re-key their ops to `(dst, src)`
//! and sort them first). [`DynamicGraph::compact`] writes the
//! overlay-aware blocks shard by shard through the builders' shard
//! writer into a new base build with the same partition (the
//! crash-consistent staged build of DESIGN.md §10), dropping every run
//! in the same atomic rename.
//!
//! Ordering semantics: within one key `(src, dst)` the newest write
//! wins — memtable over runs, higher run sequence over lower. A
//! tombstone erases the edge; a later insert resurrects it. Because
//! base blocks store records in canonical `(src, dst)` / `(dst, src)`
//! order, the merged overlay is byte-identical to what a from-scratch
//! rebuild of the same final edge set would produce for that block.

use crate::graph::{load_manifest, EdgeRecords, HusGraph};
use crate::index::{BlockIndex, BlockParts, Occupancy};
use crate::meta::Orientation;
use crate::partition::interval_of;
use hus_storage::delta::{DeltaRecord, DeltaRun, DELTA_RECORD_BYTES};
use hus_storage::{durable, Access, Result, StorageDir, StorageError};
use std::collections::BTreeMap;
use std::collections::HashMap;

static INSERTS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("ingest.inserts");
static DELETES: hus_obs::LazyCounter = hus_obs::LazyCounter::new("ingest.deletes");
static SPILLS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("delta.spills");
static COMPACTIONS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("delta.compactions");
static RUNS_GAUGE: hus_obs::LazyGauge = hus_obs::LazyGauge::new("delta.runs");
static MEMTABLE_GAUGE: hus_obs::LazyGauge = hus_obs::LazyGauge::new("delta.memtable_bytes");
static DEGRADED_GAUGE: hus_obs::LazyGauge = hus_obs::LazyGauge::new("ingest.degraded");

/// Approximate resident cost of one memtable entry: the 8-byte key,
/// the 8-byte op, and B-tree node overhead. Only used for the spill
/// trigger, so precision is not load-bearing.
const MEMTABLE_ENTRY_BYTES: u64 = 64;

/// Default memtable budget when `HUS_MEMTABLE_BYTES` is unset: 64 MiB.
pub const DEFAULT_MEMTABLE_BYTES: u64 = 64 << 20;

/// One buffered update for an edge key `(src, dst)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// Insert the edge (or overwrite its weight if it already exists).
    Put(f32),
    /// Delete the edge; a tombstone until compaction folds it away.
    Delete,
}

/// The in-memory write buffer: per-block sorted maps from edge key to
/// the newest buffered op. Upserts are idempotent per key — a second
/// write to the same `(src, dst)` replaces the first, which is exactly
/// the newest-wins semantics runs have on disk.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    /// Keyed by base-graph block `(i, j)`; each block's map is keyed by
    /// `(src, dst)` so spilling iterates in the run's required order.
    blocks: BTreeMap<(u32, u32), BTreeMap<(u32, u32), DeltaOp>>,
    entries: u64,
}

impl Memtable {
    fn put(&mut self, i: u32, j: u32, src: u32, dst: u32, op: DeltaOp) {
        if self.blocks.entry((i, j)).or_default().insert((src, dst), op).is_none() {
            self.entries += 1;
        }
    }

    fn approx_bytes(&self) -> u64 {
        self.entries * MEMTABLE_ENTRY_BYTES
    }

    fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// One fully merged block of the overlay: base records plus every
/// resolved delta, indexed as a base block is — its occupancy and
/// `occupied + 1` offsets. Memory-resident — reads of a touched block
/// are served from here without device I/O.
#[derive(Debug)]
pub(crate) struct MergedBlock {
    /// Which vertices of the owning interval have records here.
    pub(crate) occupancy: Occupancy,
    /// The first record of every occupied vertex, then the record count.
    pub(crate) offsets: Vec<u32>,
    /// Merged records in canonical order for the orientation.
    pub(crate) records: EdgeRecords,
}

impl MergedBlock {
    /// Keep an assembled block over an interval of `len` vertices.
    fn new(parts: BlockParts, len: usize, weighted: bool) -> Self {
        let BlockParts { words, mut offsets, mut raw, .. } = parts;
        offsets.shrink_to_fit();
        raw.shrink_to_fit();
        let occupancy = Occupancy::new(words, len).expect("an assembled bitmap fits its interval");
        MergedBlock { occupancy, offsets, records: EdgeRecords::from_raw(raw, weighted) }
    }

    /// Number of merged records in the block.
    pub(crate) fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// The block's index, lent from memory.
    pub(crate) fn index(&self) -> BlockIndex<'_> {
        BlockIndex::new(&self.occupancy, self.offsets.as_slice())
    }
}

/// A materialized read overlay: merged blocks for both orientations of
/// every touched `(i, j)`, plus the adjusted degree table and edge
/// count. Attached to [`HusGraph`] by [`DynamicGraph::snapshot`];
/// untouched blocks keep reading through the tracked base path.
#[derive(Debug)]
pub(crate) struct DeltaOverlay {
    /// Merged blocks keyed `(i, j)`, one map per [`Orientation`]
    /// (indexed `o as usize`).
    pub(crate) blocks: [HashMap<(usize, usize), MergedBlock>; 2],
    /// Out-degree table with every delta applied.
    pub(crate) out_degrees: Vec<u32>,
    /// Edge count with every delta applied.
    pub(crate) num_edges: u64,
    /// Resident delta bytes (runs + memtable records at the on-disk
    /// record width) — the read-path overhead the cost model charges.
    pub(crate) delta_bytes: u64,
}

/// One block's resolved updates: newest-wins ops, sorted by key and
/// unique.
type BlockOps = Vec<((u32, u32), DeltaOp)>;

/// Two-pointer merge of one block orientation into `parts`: `index` and
/// `base` are its base block, whose interval starts at `first`, and
/// `ops` its resolved newest-wins deltas sorted by `(own vertex,
/// neighbor)` — `(src, dst)` for out-blocks, `(dst, src)` for in-blocks.
/// Relies on the canonical neighbor-sorted base order the builders
/// guarantee. Base records between two ops pass through as one copied
/// span; an op supersedes every base record of its key, and a put adds
/// one record of its own.
fn merge_block(
    parts: &mut BlockParts,
    first: u32,
    index: &BlockIndex<'_>,
    base: &EdgeRecords,
    ops: &[((u32, u32), DeltaOp)],
) {
    let ranges = index.ranges().map(|(l, lo, hi)| (first + l as u32, lo as usize, hi as usize));
    let (mut ranges, mut ops) = (ranges.peekable(), ops.iter().peekable());
    loop {
        // The next vertex with base records or ops.
        let v = match (ranges.peek(), ops.peek()) {
            (Some(&(v, ..)), Some(&&((u, _), _))) => v.min(u),
            (Some(&(v, ..)), None) | (None, Some(&&((v, _), _))) => v,
            (None, None) => return,
        };
        let (mut k, end) = ranges.next_if(|r| r.0 == v).map_or((0, 0), |(_, lo, hi)| (lo, hi));
        while let Some(&((_, neighbor), op)) = ops.next_if(|((u, _), _)| *u == v) {
            let from = k;
            while k < end && base.neighbor(k) < neighbor {
                k += 1;
            }
            parts.push_raw(v, base.raw(from, k));
            while k < end && base.neighbor(k) == neighbor {
                k += 1;
            }
            if let DeltaOp::Put(w) = op {
                parts.push(v, neighbor, w);
            }
        }
        parts.push_raw(v, base.raw(k, end));
    }
}

/// Merge two sorted, key-unique op lists into one; on a shared key the
/// `newer` op wins.
fn merge_newest_wins(
    older: BlockOps,
    newer: impl Iterator<Item = ((u32, u32), DeltaOp)>,
) -> BlockOps {
    let (lo, hi) = newer.size_hint();
    let mut out = Vec::with_capacity(older.len() + hi.unwrap_or(lo));
    let mut older = older.into_iter().peekable();
    for (key, op) in newer {
        while let Some(old) = older.next_if(|&(k, _)| k <= key) {
            if old.0 < key {
                out.push(old);
            }
        }
        out.push((key, op));
    }
    out.extend(older);
    out
}

/// Resolve runs (oldest → newest) then the memtable into one
/// newest-wins op list per touched block, keyed and sorted `(src, dst)`.
/// Every run section and memtable block is already sorted and unique by
/// key, so each layer is one two-way merge into the older result.
fn resolve_ops(runs: &[DeltaRun], memtable: &Memtable) -> BTreeMap<(u32, u32), BlockOps> {
    let mut resolved: BTreeMap<(u32, u32), BlockOps> = BTreeMap::new();
    for run in runs {
        for (&block, recs) in &run.blocks {
            let slot = resolved.entry(block).or_default();
            let newer = recs.iter().map(|r| {
                let op = if r.tombstone { DeltaOp::Delete } else { DeltaOp::Put(r.weight) };
                ((r.src, r.dst), op)
            });
            *slot = merge_newest_wins(std::mem::take(slot), newer);
        }
    }
    for (&block, map) in &memtable.blocks {
        let slot = resolved.entry(block).or_default();
        *slot = merge_newest_wins(std::mem::take(slot), map.iter().map(|(&key, &op)| (key, op)));
    }
    resolved
}

/// Materialize the overlay for `graph` from `runs` + `memtable`. The
/// graph must have no overlay attached (base reads only) — the caller
/// detaches before refreshing.
pub(crate) fn build_overlay(
    graph: &HusGraph,
    runs: &[DeltaRun],
    memtable: &Memtable,
) -> Result<DeltaOverlay> {
    let meta = graph.meta();
    let weighted = meta.weighted;
    let resolved = resolve_ops(runs, memtable);
    let delta_records: u64 =
        runs.iter().map(DeltaRun::record_count).sum::<u64>() + memtable.entries;
    let mut overlay = DeltaOverlay {
        blocks: [HashMap::new(), HashMap::new()],
        out_degrees: graph.base_out_degrees().to_vec(),
        num_edges: meta.num_edges,
        delta_bytes: delta_records * DELTA_RECORD_BYTES,
    };
    let mut rekeyed: BlockOps = Vec::new();
    for (&(i, j), ops) in &resolved {
        let (i, j) = (i as usize, j as usize);
        for o in Orientation::BOTH {
            // The orientation's own vertex (src in out-blocks, dst in
            // in-blocks) indexes the block; the other is the neighbor.
            let own = o.orient(i, j).0;
            let interval = meta.interval_start(own)..meta.interval_start(own + 1);
            let base_index = graph.block_index(o, i, j, Access::Sequential)?;
            let base = graph.records(o, i, j, None, Access::Sequential)?;
            // Ops are sorted `(src, dst)`: out-blocks take them as they
            // are, in-blocks re-key to `(dst, src)` and sort.
            let keyed = match o {
                Orientation::Out => ops,
                Orientation::In => {
                    rekeyed.clear();
                    rekeyed.extend(ops.iter().map(|&((src, dst), op)| ((dst, src), op)));
                    rekeyed.sort_unstable_by_key(|&(key, _)| key);
                    &rekeyed
                }
            };
            let mut parts = BlockParts::default();
            parts.start(interval.clone(), weighted);
            merge_block(&mut parts, interval.start, &base_index, &base, keyed);
            parts.finish((o, i, j))?;
            let merged = MergedBlock::new(parts, interval.len(), weighted);
            if o == Orientation::Out {
                let degrees = &mut overlay.out_degrees[interval.start as usize..];
                base_index.ranges().for_each(|(local, lo, hi)| degrees[local] -= hi - lo);
                merged.index().ranges().for_each(|(local, lo, hi)| degrees[local] += hi - lo);
                overlay.num_edges = overlay.num_edges + merged.len() - base.len() as u64;
            }
            overlay.blocks[o as usize].insert((i, j), merged);
        }
    }
    Ok(overlay)
}

/// A dual-block graph that accepts streaming edge updates.
///
/// Open one over a built directory, ingest with
/// [`insert_edge`](DynamicGraph::insert_edge) /
/// [`delete_edge`](DynamicGraph::delete_edge), and read through
/// [`snapshot`](DynamicGraph::snapshot):
///
/// ```
/// use hus_core::{BuildConfig, DynamicGraph};
/// use hus_gen::{Edge, EdgeList};
/// use hus_storage::StorageDir;
///
/// let tmp = tempfile::tempdir()?;
/// let dir = StorageDir::create(tmp.path().join("g"))?;
/// let el = EdgeList {
///     num_vertices: 4,
///     edges: vec![Edge::new(0, 1), Edge::new(1, 2)],
///     weights: None,
/// };
/// hus_core::build(&el, &dir, &BuildConfig::with_p(2))?;
///
/// let mut dg = DynamicGraph::open(dir)?;
/// dg.insert_edge(2, 3, 1.0)?; // buffered in the memtable
/// dg.delete_edge(0, 1)?;      // tombstoned
/// let g = dg.snapshot()?;     // merged view, no rebuild
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.out_degrees()[2], 1);
/// dg.compact()?;              // fold everything into a new base build
/// assert_eq!(dg.snapshot()?.num_edges(), 2);
/// # Ok::<(), hus_storage::StorageError>(())
/// ```
pub struct DynamicGraph {
    dir: StorageDir,
    graph: HusGraph,
    memtable: Memtable,
    runs: Vec<DeltaRun>,
    memtable_budget: u64,
    /// Overlay is stale (memtable/runs changed since the last refresh).
    dirty: bool,
    /// `MANIFEST` generation this handle is pinned to. Spills and
    /// compactions advance it in lock-step with the on-disk manifest.
    generation: u64,
    /// Read-only degraded mode: a spill/compaction failed and was
    /// rolled back. Reads keep serving the last committed generation;
    /// ingest calls first retry the spill (auto-recovery) and, while it
    /// keeps failing, are rejected with the spill's (typically
    /// `is_no_space`-classified) error. See DESIGN.md §9.
    degraded: bool,
}

impl DynamicGraph {
    /// Open a built graph directory for streaming updates, loading (and
    /// CRC-verifying) every delta run its `MANIFEST` lists.
    ///
    /// The spill threshold `HUS_MEMTABLE_BYTES` (default 64 MiB) is
    /// read once here.
    pub fn open(dir: StorageDir) -> Result<Self> {
        let graph = HusGraph::open(dir.clone())?;
        let manifest = load_manifest(dir.root())?;
        let mut runs = Vec::with_capacity(manifest.runs.len());
        for entry in &manifest.runs {
            let run = DeltaRun::load_from(&dir, &entry.name)?;
            if run.p != graph.meta().p {
                return Err(StorageError::Corrupt(format!(
                    "{}: run partitioned {}-way but the base graph is {}-way",
                    entry.name,
                    run.p,
                    graph.meta().p
                )));
            }
            runs.push(run);
        }
        runs.sort_by_key(|r| r.seq);
        let dirty = !runs.is_empty();
        RUNS_GAUGE.set(runs.len() as u64);
        MEMTABLE_GAUGE.set(0);
        Ok(DynamicGraph {
            dir,
            graph,
            memtable: Memtable::default(),
            runs,
            memtable_budget: hus_obs::env::parse("HUS_MEMTABLE_BYTES", DEFAULT_MEMTABLE_BYTES)
                .max(MEMTABLE_ENTRY_BYTES),
            dirty,
            generation: manifest.generation,
            degraded: false,
        })
    }

    fn locate(&self, src: u32, dst: u32) -> Result<(u32, u32)> {
        let meta = self.graph.meta();
        if src >= meta.num_vertices || dst >= meta.num_vertices {
            return Err(StorageError::Corrupt(format!(
                "edge ({src}, {dst}) outside the {}-vertex graph (dynamic graphs \
                 never grow the vertex set; rebuild to add vertices)",
                meta.num_vertices
            )));
        }
        Ok((
            interval_of(&meta.interval_starts, src) as u32,
            interval_of(&meta.interval_starts, dst) as u32,
        ))
    }

    /// Buffer an edge insert (or weight update for an existing edge).
    ///
    /// Lands in the memtable; spills automatically once the buffered
    /// updates cross `HUS_MEMTABLE_BYTES`:
    ///
    /// ```
    /// # use hus_core::{BuildConfig, DynamicGraph};
    /// # use hus_gen::{Edge, EdgeList};
    /// # use hus_storage::StorageDir;
    /// # let tmp = tempfile::tempdir()?;
    /// # let dir = StorageDir::create(tmp.path().join("g"))?;
    /// # let el = EdgeList { num_vertices: 4, edges: vec![Edge::new(0, 1)], weights: None };
    /// # hus_core::build(&el, &dir, &BuildConfig::with_p(2))?;
    /// let mut dg = DynamicGraph::open(dir)?;
    /// dg.insert_edge(1, 3, 1.0)?;
    /// assert!(dg.insert_edge(9, 0, 1.0).is_err(), "vertex 9 does not exist");
    /// assert_eq!(dg.snapshot()?.num_edges(), 2);
    /// # Ok::<(), hus_storage::StorageError>(())
    /// ```
    pub fn insert_edge(&mut self, src: u32, dst: u32, weight: f32) -> Result<()> {
        let (i, j) = self.locate(src, dst)?;
        self.recover_if_degraded()?;
        self.memtable.put(i, j, src, dst, DeltaOp::Put(weight));
        INSERTS.incr();
        MEMTABLE_GAUGE.set(self.memtable.approx_bytes());
        self.dirty = true;
        self.maybe_spill();
        Ok(())
    }

    /// Buffer an edge delete as a tombstone. Deleting an edge that does
    /// not exist is a no-op at merge time (the tombstone matches no base
    /// record):
    ///
    /// ```
    /// # use hus_core::{BuildConfig, DynamicGraph};
    /// # use hus_gen::{Edge, EdgeList};
    /// # use hus_storage::StorageDir;
    /// # let tmp = tempfile::tempdir()?;
    /// # let dir = StorageDir::create(tmp.path().join("g"))?;
    /// # let el = EdgeList { num_vertices: 4, edges: vec![Edge::new(0, 1)], weights: None };
    /// # hus_core::build(&el, &dir, &BuildConfig::with_p(2))?;
    /// let mut dg = DynamicGraph::open(dir)?;
    /// dg.delete_edge(0, 1)?;
    /// dg.delete_edge(2, 3)?; // no such edge — harmless
    /// assert_eq!(dg.snapshot()?.num_edges(), 0);
    /// # Ok::<(), hus_storage::StorageError>(())
    /// ```
    pub fn delete_edge(&mut self, src: u32, dst: u32) -> Result<()> {
        let (i, j) = self.locate(src, dst)?;
        self.recover_if_degraded()?;
        self.memtable.put(i, j, src, dst, DeltaOp::Delete);
        DELETES.incr();
        MEMTABLE_GAUGE.set(self.memtable.approx_bytes());
        self.dirty = true;
        self.maybe_spill();
        Ok(())
    }

    /// While degraded, retry the rolled-back spill before accepting a
    /// new update. Success (or nothing left to spill) re-arms ingest;
    /// failure rejects the update with the spill's error — typically
    /// [`StorageError::is_no_space`]-classified under real or injected
    /// `ENOSPC` — *without* buffering it, so a caller that got an error
    /// knows the update is not in the graph.
    fn recover_if_degraded(&mut self) -> Result<()> {
        if !self.degraded {
            return Ok(());
        }
        self.flush().map(|_| ())
    }

    /// Budget-triggered spill. The update that crossed the budget is
    /// already buffered (and acked): a failed spill rolls back and
    /// enters degraded mode, but the update stays in the memtable and
    /// commits with a later successful spill — it is not an ingest
    /// error, so the failure is not propagated here.
    fn maybe_spill(&mut self) {
        if self.memtable.approx_bytes() >= self.memtable_budget {
            let _ = self.flush();
        }
    }

    /// Spill the memtable to a new on-disk delta run and record it in
    /// the `MANIFEST` under a bumped generation. No-op on an empty
    /// memtable. Returns the committed run file name.
    ///
    /// Durability: the run commits first (tmp + fsync + rename), then
    /// the manifest is rewritten the same way. A crash between the two
    /// leaves an *orphaned* run the manifest never references — opens
    /// ignore it, `hus fsck` flags it, `--repair` deletes it. The
    /// memtable itself is volatile: updates not yet spilled are lost on
    /// a crash (the documented failure model — there is no WAL).
    ///
    /// Failure: a spill that errors anywhere (real or injected `ENOSPC`,
    /// short write, torn write, fsync failure) is rolled back — leftover
    /// tmp files and the orphaned run are quarantined, nothing in memory
    /// changes, and the handle enters read-only degraded mode until a
    /// retry succeeds. Counted under `resilience.spill_rollbacks` /
    /// `resilience.degraded_mode_entries`.
    pub fn flush(&mut self) -> Result<Option<String>> {
        if self.memtable.is_empty() {
            // Nothing pending: a degraded handle (e.g. after a
            // rolled-back compaction) is consistent again by definition.
            self.exit_degraded();
            return Ok(None);
        }
        let seq = self.runs.last().map_or(1, |r| r.seq + 1);
        let mut run = DeltaRun::new(seq, self.graph.meta().p);
        for (&(i, j), map) in &self.memtable.blocks {
            for (&(src, dst), &op) in map {
                let rec = match op {
                    DeltaOp::Put(w) => DeltaRecord::insert(src, dst, w),
                    DeltaOp::Delete => DeltaRecord::tombstone(src, dst),
                };
                run.push(i, j, rec);
            }
        }
        let name = match run.write_to(&self.dir) {
            Ok(n) => n,
            Err(e) => return Err(self.spill_rollback(e, None)),
        };
        durable::crash_point("delta.spill_run");
        let generation = match self.commit_run_manifest(&name) {
            Ok(g) => g,
            // The run itself committed but the manifest rewrite did
            // not: quarantine the orphan too, or post-rollback `fsck`
            // would flag it.
            Err(e) => return Err(self.spill_rollback(e, Some(&name))),
        };

        self.generation = generation;
        self.runs.push(run);
        self.memtable = Memtable::default();
        self.exit_degraded();
        SPILLS.incr();
        RUNS_GAUGE.set(self.runs.len() as u64);
        MEMTABLE_GAUGE.set(0);
        Ok(Some(name))
    }

    /// Re-list the committed run `name` in the manifest under a bumped
    /// generation. Mutates no in-memory state, so a failure anywhere
    /// leaves the prior generation authoritative.
    fn commit_run_manifest(&self, name: &str) -> Result<u64> {
        let root = self.dir.root().to_path_buf();
        let mut manifest = load_manifest(&root)?;
        manifest.generation += 1;
        let run_path = self.dir.path(name);
        let run_len =
            std::fs::metadata(&run_path).map_err(|e| StorageError::io_at(&run_path, e))?.len();
        manifest.push_run(name, run_len, hus_storage::manifest::read_trailing_crc(&run_path)?);
        // The manifest is rewritten via tmp + rename (through the
        // write-fault-aware durable path, so injected faults surface as
        // errors here instead of tearing the MANIFEST in place): an
        // in-place write torn by a crash would leave the directory
        // unopenable.
        let tmp_name = format!("{}.tmp", hus_storage::MANIFEST_FILE);
        self.dir.durable_write(&tmp_name, manifest.encode().as_bytes())?;
        let dst = root.join(hus_storage::MANIFEST_FILE);
        std::fs::rename(root.join(&tmp_name), &dst).map_err(|e| StorageError::io_at(&dst, e))?;
        durable::sync_parent_dir(&dst)?;
        durable::crash_point("delta.spill_manifest");
        Ok(manifest.generation)
    }

    /// Roll a failed spill back to the prior committed generation:
    /// quarantine tmp leftovers (plus the orphaned run file when the run
    /// committed but the manifest rewrite failed), count the rollback,
    /// and enter read-only degraded mode. In-memory state is untouched —
    /// the memtable keeps every acked update for the next attempt.
    fn spill_rollback(&mut self, err: StorageError, orphan: Option<&str>) -> StorageError {
        let root = self.dir.root().to_path_buf();
        let mut victims: Vec<std::path::PathBuf> = Vec::new();
        if let Some(name) = orphan {
            victims.push(root.join(name));
        }
        if let Ok(entries) = std::fs::read_dir(&root) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if name == format!("{}.tmp", hus_storage::MANIFEST_FILE)
                    || name.ends_with(".run.tmp")
                {
                    victims.push(e.path());
                }
            }
        }
        // Best effort, into the directory `hus fsck --repair` uses, so
        // a subsequent `fsck` finds the root clean. A missing victim is
        // fine: an injected `ENOSPC` that wrote nothing leaves no file.
        for path in victims.iter().filter(|path| path.exists()) {
            let _ = self.dir.quarantine(path);
        }
        self.dir.resilience().record_spill_rollback();
        self.enter_degraded();
        err
    }

    fn enter_degraded(&mut self) {
        if !self.degraded {
            self.degraded = true;
            self.dir.resilience().record_degraded_mode_entry();
            DEGRADED_GAUGE.set(1);
        }
    }

    fn exit_degraded(&mut self) {
        if self.degraded {
            self.degraded = false;
            DEGRADED_GAUGE.set(0);
        }
    }

    /// Whether the handle is in read-only degraded mode: a failed
    /// spill or compaction was rolled back, ingest is rejected (after
    /// one recovery attempt per call) until a spill succeeds, and reads
    /// keep serving the last committed generation.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Fold every buffered update — memtable and runs — into a full
    /// re-encoded base build, committed atomically as a new `MANIFEST`
    /// generation by the staged-build machinery (DESIGN.md §10). The
    /// rename that publishes the new build simultaneously drops every
    /// old run file, so a crash anywhere leaves either the old
    /// generation (runs intact) or the new one (runs folded) — never a
    /// mix. Returns `false` if there was nothing to fold.
    ///
    /// The refreshed overlay already holds every touched block merged
    /// in canonical order, so the new build writes it shard by shard as
    /// it stands (reading each untouched block once per orientation)
    /// and keeps the base's partition, codec and weightedness. A failed
    /// compaction leaves the overlay attached and valid: the next
    /// snapshot is free.
    pub fn compact(&mut self) -> Result<bool> {
        if self.runs.is_empty() && self.memtable.is_empty() {
            return Ok(false);
        }
        self.refresh_overlay()?;
        if let Err(e) = crate::builder::build_from(&self.graph) {
            // The staged build cleans its own staging directory on drop
            // and the prior generation was never touched — rollback is
            // the default. Degrade until a later spill (or compaction
            // retry) succeeds.
            self.dir.resilience().record_spill_rollback();
            self.enter_degraded();
            return Err(e);
        }
        self.graph = HusGraph::open(self.dir.clone())?;
        self.generation = load_manifest(self.dir.root())?.generation;
        self.runs.clear();
        self.memtable = Memtable::default();
        self.dirty = false;
        self.exit_degraded();
        COMPACTIONS.incr();
        RUNS_GAUGE.set(0);
        MEMTABLE_GAUGE.set(0);
        Ok(true)
    }

    fn refresh_overlay(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        // Detach first: the refresh must read base blocks, not a stale
        // merged view of them.
        self.graph.overlay = None;
        if self.runs.is_empty() && self.memtable.is_empty() {
            self.dirty = false;
            return Ok(());
        }
        let overlay = build_overlay(&self.graph, &self.runs, &self.memtable)?;
        self.graph.overlay = Some(overlay);
        self.dirty = false;
        Ok(())
    }

    /// The current merged view of the graph: base blocks plus every
    /// buffered update, served through the normal [`HusGraph`] read
    /// APIs (so the engine, `hus pagerank`, etc. run unchanged).
    /// Refreshes the overlay only if updates arrived since the last
    /// call — repeated snapshots are free.
    pub fn snapshot(&mut self) -> Result<&HusGraph> {
        self.refresh_overlay()?;
        Ok(&self.graph)
    }

    /// Consume the dynamic graph and return an owned [`HusGraph`] with
    /// the overlay (every live delta run; the memtable is volatile and
    /// must be [`flush`](Self::flush)ed first if it should be included)
    /// already materialized. This is the read-only entry point for
    /// tools that just want "the current graph, updates included" —
    /// `hus pagerank` and friends open directories through it so a
    /// directory carrying un-compacted delta runs is never silently
    /// served as its stale base generation.
    pub fn into_snapshot(mut self) -> Result<HusGraph> {
        self.refresh_overlay()?;
        Ok(self.graph)
    }

    /// Number of on-disk delta runs currently layered over the base.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The `MANIFEST` generation this handle is pinned to. Together
    /// with [`run_count`](Self::run_count) this identifies the exact
    /// snapshot a reader sees — `hus stats` and the serve status
    /// response surface both for stale-read diagnosis.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Approximate resident bytes of the not-yet-spilled memtable.
    pub fn memtable_bytes(&self) -> u64 {
        self.memtable.approx_bytes()
    }

    /// Number of distinct edge keys buffered in the memtable.
    pub fn memtable_len(&self) -> u64 {
        self.memtable.entries
    }

    /// The underlying storage directory.
    pub fn dir(&self) -> &StorageDir {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, BuildConfig};
    use hus_codec::Codec;
    use hus_gen::rmat::{rmat, RmatConfig};
    use hus_gen::EdgeList;

    fn built(el: &EdgeList, p: u32) -> (tempfile::TempDir, StorageDir) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        build(el, &dir, &BuildConfig::with_p_codec(p, Codec::Raw)).unwrap();
        (tmp, dir)
    }

    /// Reconstruct the edge set via the overlay-aware `o`-blocks.
    fn edges_via(g: &HusGraph, o: Orientation) -> Vec<(u32, u32)> {
        crate::graph::tests::edges_via(g, o).into_iter().map(|(s, d, _)| (s, d)).collect()
    }

    /// `(src, dst, weight)` triples as an edge list, in order.
    fn to_edge_list(num_vertices: u32, edges: &[(u32, u32, f32)], weighted: bool) -> EdgeList {
        EdgeList {
            num_vertices,
            edges: edges.iter().map(|&(s, d, _)| hus_gen::Edge::new(s, d)).collect(),
            weights: weighted.then(|| edges.iter().map(|&(_, _, w)| w).collect()),
        }
    }

    /// The merged edge list (weights included on a weighted graph), in
    /// out-block walk order.
    fn merged_edge_list(g: &HusGraph) -> EdgeList {
        let walked = crate::graph::tests::edges_via(g, Orientation::Out);
        to_edge_list(g.meta().num_vertices, &walked, g.meta().weighted)
    }

    #[test]
    fn overlay_reflects_inserts_and_deletes_in_both_orientations() {
        let el = rmat(100, 500, 7, RmatConfig::default());
        let (_t, dir) = built(&el, 3);
        let mut dg = DynamicGraph::open(dir).unwrap();
        let mut want: std::collections::BTreeSet<(u32, u32)> =
            el.edges.iter().map(|e| (e.src, e.dst)).collect();
        // Delete a handful of real edges, insert a handful of new ones.
        let victims: Vec<(u32, u32)> = want.iter().copied().step_by(17).take(8).collect();
        for &(s, d) in &victims {
            dg.delete_edge(s, d).unwrap();
            want.remove(&(s, d));
        }
        for k in 0..10u32 {
            let (s, d) = (k * 9 % 100, k * 31 % 100);
            dg.insert_edge(s, d, 1.0).unwrap();
            want.insert((s, d));
        }
        let g = dg.snapshot().unwrap();
        let want: Vec<(u32, u32)> = want.into_iter().collect();
        for o in Orientation::BOTH {
            let mut got = edges_via(g, o);
            got.sort_unstable();
            assert_eq!(got, want, "{o:?}");
        }
        assert_eq!(g.num_edges(), want.len() as u64);
        // Degrees track the merged edge set.
        let mut deg = vec![0u32; 100];
        for &(s, _) in &want {
            deg[s as usize] += 1;
        }
        assert_eq!(g.out_degrees(), deg.as_slice());
    }

    #[test]
    fn newest_wins_across_memtable_runs_and_resurrection() {
        let el = rmat(40, 150, 3, RmatConfig::default());
        let (_t, dir) = built(&el, 2);
        let mut dg = DynamicGraph::open(dir).unwrap();
        let (s, d) = (el.edges[0].src, el.edges[0].dst);
        // Run 1: delete the edge. Run 2: resurrect it. Memtable: delete
        // it again. Newest (memtable) wins.
        dg.delete_edge(s, d).unwrap();
        dg.flush().unwrap().unwrap();
        dg.insert_edge(s, d, 1.0).unwrap();
        dg.flush().unwrap().unwrap();
        dg.delete_edge(s, d).unwrap();
        assert_eq!(dg.run_count(), 2);
        let g = dg.snapshot().unwrap();
        assert!(!edges_via(g, Orientation::Out).contains(&(s, d)));
        assert_eq!(g.num_edges(), el.edges.len() as u64 - 1);
    }

    #[test]
    fn reopen_sees_spilled_runs() {
        let el = rmat(60, 200, 5, RmatConfig::default());
        let (_t, dir) = built(&el, 2);
        let mut dg = DynamicGraph::open(dir.clone()).unwrap();
        dg.insert_edge(1, 2, 1.0).unwrap();
        dg.insert_edge(3, 4, 1.0).unwrap();
        dg.flush().unwrap().unwrap();
        let want = {
            let mut v = edges_via(dg.snapshot().unwrap(), Orientation::Out);
            v.sort_unstable();
            v
        };
        drop(dg);
        let mut dg2 = DynamicGraph::open(dir).unwrap();
        assert_eq!(dg2.run_count(), 1);
        let mut got = edges_via(dg2.snapshot().unwrap(), Orientation::Out);
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn compaction_folds_runs_into_a_new_generation() {
        let el = rmat(80, 400, 11, RmatConfig::default());
        let (_t, dir) = built(&el, 2);
        let gen0 = load_manifest(dir.root()).unwrap().generation;
        let mut dg = DynamicGraph::open(dir.clone()).unwrap();
        dg.insert_edge(0, 79, 1.0).unwrap();
        dg.flush().unwrap().unwrap();
        dg.delete_edge(0, 79).unwrap();
        dg.insert_edge(79, 0, 1.0).unwrap();
        let before = {
            let mut v = edges_via(dg.snapshot().unwrap(), Orientation::Out);
            v.sort_unstable();
            v
        };
        assert!(dg.compact().unwrap());
        assert_eq!(dg.run_count(), 0);
        assert_eq!(dg.memtable_len(), 0);
        let manifest = load_manifest(dir.root()).unwrap();
        assert!(manifest.generation > gen0, "compaction bumps the generation");
        assert!(manifest.runs.is_empty(), "compaction folds every run away");
        // No run files survive the directory swap.
        for f in std::fs::read_dir(dir.root()).unwrap() {
            let name = f.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".run"),
                "stale run file {name:?} after compaction"
            );
        }
        let mut after = edges_via(dg.snapshot().unwrap(), Orientation::Out);
        after.sort_unstable();
        assert_eq!(after, before, "compaction preserves the merged edge set");
        assert!(!dg.compact().unwrap(), "nothing left to fold");
    }

    #[test]
    fn weighted_updates_roundtrip_bitwise() {
        let el = rmat(50, 200, 9, RmatConfig::default()).with_hash_weights(0.5, 2.5);
        let (_t, dir) = built(&el, 2);
        let mut dg = DynamicGraph::open(dir).unwrap();
        let (s, d) = (el.edges[3].src, el.edges[3].dst);
        dg.insert_edge(s, d, 7.25).unwrap(); // weight update of an existing edge
        dg.insert_edge(5, 6, 0.125).unwrap();
        let g = dg.snapshot().unwrap();
        let meta = g.meta().clone();
        let find = |s: u32, d: u32| -> Option<f32> {
            let i = interval_of(&meta.interval_starts, s);
            let j = interval_of(&meta.interval_starts, d);
            let idx = g.load_out_index(i, j, Access::Sequential).unwrap();
            let recs = g.stream_out_block(i, j).unwrap();
            let v = (s - meta.interval_start(i)) as usize;
            recs.walk(idx[v] as usize, idx[v + 1] as usize)
                .find(|&(neighbor, _)| neighbor == d)
                .map(|(_, weight)| weight)
        };
        assert_eq!(find(s, d), Some(7.25));
        assert_eq!(find(5, 6), Some(0.125));
    }

    #[test]
    fn out_of_range_vertices_are_rejected() {
        let el = rmat(10, 30, 1, RmatConfig::default());
        let (_t, dir) = built(&el, 2);
        let mut dg = DynamicGraph::open(dir).unwrap();
        assert!(dg.insert_edge(10, 0, 1.0).is_err());
        assert!(dg.delete_edge(0, 10).is_err());
        assert_eq!(dg.memtable_len(), 0, "rejected updates are not buffered");
    }

    #[test]
    fn memtable_budget_triggers_auto_spill() {
        let el = rmat(200, 600, 13, RmatConfig::default());
        let (_t, dir) = built(&el, 2);
        let mut dg = DynamicGraph::open(dir).unwrap();
        dg.memtable_budget = 4 * MEMTABLE_ENTRY_BYTES;
        let keys: Vec<(u32, u32)> = (0..9u32).map(|k| (k, k + 100)).collect();
        for &(s, d) in &keys {
            dg.insert_edge(s, d, 1.0).unwrap();
        }
        assert!(dg.run_count() >= 2, "budget crossings spilled: {}", dg.run_count());
        assert!(dg.memtable_bytes() < 4 * MEMTABLE_ENTRY_BYTES);
        let g = dg.snapshot().unwrap();
        // An insert replaces every base copy of its key, so the expected
        // count is the base multiset minus the touched keys plus one
        // record per touched key.
        let untouched = el.edges.iter().filter(|e| !keys.contains(&(e.src, e.dst))).count() as u64;
        assert_eq!(g.num_edges(), untouched + keys.len() as u64);
    }

    /// All-active damped sum over in-edges (PageRank's shape): its
    /// values depend on every merged block, the degree table and the
    /// float accumulation order.
    struct Rank;

    impl crate::VertexProgram for Rank {
        type Value = f32;

        fn init(&self, _v: u32) -> f32 {
            1.0
        }

        fn initially_active(&self, _v: u32) -> bool {
            true
        }

        fn scatter(&self, src_val: &f32, ctx: &crate::EdgeCtx) -> Option<f32> {
            Some(0.85 * src_val / ctx.src_out_degree as f32)
        }

        fn combine(&self, dst_val: &mut f32, msg: f32) -> bool {
            *dst_val += msg;
            true
        }

        fn reset(&self, _v: u32, _prev: &f32) -> f32 {
            0.15
        }

        fn needs_reset(&self) -> bool {
            true
        }

        fn always_active(&self) -> bool {
            true
        }
    }

    fn rank_bits(g: &HusGraph) -> Vec<u32> {
        let config = crate::RunConfig { max_iterations: 4, threads: 1, ..Default::default() };
        let (ranks, _) = crate::Engine::new(g, &Rank, config).run().unwrap();
        ranks.iter().map(|r| r.to_bits()).collect()
    }

    #[test]
    fn two_handles_build_equal_overlays_independently() {
        let el = rmat(120, 700, 17, RmatConfig::default());
        let (_t, dir) = built(&el, 3);
        let mut dg = DynamicGraph::open(dir.clone()).unwrap();
        for k in 0..25u32 {
            dg.insert_edge(k * 7 % 120, k * 13 % 120, 1.0).unwrap();
        }
        dg.delete_edge(el.edges[5].src, el.edges[5].dst).unwrap();
        dg.flush().unwrap().unwrap();
        drop(dg);

        let a = DynamicGraph::open(StorageDir::open(dir.root()).unwrap()).unwrap();
        let b = DynamicGraph::open(StorageDir::open(dir.root()).unwrap()).unwrap();
        let (a, b) = (a.into_snapshot().unwrap(), b.into_snapshot().unwrap());
        assert_ne!(a.num_edges(), el.edges.len() as u64, "the run changed the edge count");
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.out_degrees(), b.out_degrees());
        for o in Orientation::BOTH {
            assert_eq!(edges_via(&a, o), edges_via(&b, o), "{o:?}");
        }
        let ranks = rank_bits(&a);
        // Each handle owns its overlay: one outlives the other.
        drop(a);
        assert_eq!(rank_bits(&b), ranks);
    }

    #[test]
    fn repeated_snapshot_is_free_and_compaction_matches_a_rebuild() {
        let el = rmat(120, 700, 19, RmatConfig::default());
        let (tmp, dir) = built(&el, 3);
        let mut dg = DynamicGraph::open(dir.clone()).unwrap();
        for k in 0..20u32 {
            dg.insert_edge(k * 5 % 120, k * 11 % 120, 1.0).unwrap();
        }
        dg.flush().unwrap().unwrap();
        dg.delete_edge(el.edges[9].src, el.edges[9].dst).unwrap();

        let mut merged = merged_edge_list(dg.snapshot().unwrap());
        // The dirty flag alone keeps an unchanged snapshot from rebuilding.
        let before = dir.tracker().snapshot().total_bytes();
        dg.snapshot().unwrap();
        assert_eq!(dir.tracker().snapshot().total_bytes(), before, "second snapshot did I/O");

        assert!(dg.compact().unwrap());
        merged.edges.reverse();
        let reference = StorageDir::create(tmp.path().join("ref")).unwrap();
        build(&merged, &reference, &BuildConfig::with_p_codec(3, Codec::Raw)).unwrap();
        for (name, _) in crate::meta::GraphMeta::data_files(3) {
            assert_eq!(
                std::fs::read(dir.path(&name)).unwrap(),
                std::fs::read(reference.path(&name)).unwrap(),
                "{name} differs from a from-scratch rebuild"
            );
        }
    }

    /// Reopen a built directory with a write-fault spec layered on.
    fn faulty(root: &std::path::Path, spec: hus_storage::FaultSpec) -> StorageDir {
        StorageDir::open(root).unwrap().with_faults(Some(spec))
    }

    #[test]
    fn degraded_ingest_is_rejected_with_no_space() {
        let el = rmat(40, 100, 34, RmatConfig::default());
        let (_t, dir) = built(&el, 2);
        let root = dir.root().to_path_buf();
        let dir =
            faulty(&root, hus_storage::FaultSpec { seed: 1, enospc: 1.0, ..Default::default() });
        let resilience = dir.resilience();
        let mut dg = DynamicGraph::open(dir).unwrap();
        dg.insert_edge(1, 2, 1.0).unwrap(); // buffered; under budget, no spill yet
        assert!(dg.flush().unwrap_err().is_no_space());
        assert!(dg.is_degraded());
        let buffered = dg.memtable_len();
        // Every further ingest first retries the spill (which fails
        // again under enospc=1.0) and is rejected without buffering.
        assert!(dg.insert_edge(3, 4, 1.0).unwrap_err().is_no_space());
        assert!(dg.delete_edge(1, 2).unwrap_err().is_no_space());
        assert_eq!(dg.memtable_len(), buffered, "rejected ops must not be buffered");
        // Reads keep serving: base generation plus the acked update.
        assert!(edges_via(dg.snapshot().unwrap(), Orientation::Out).contains(&(1, 2)));
        let snap = resilience.snapshot();
        assert!(snap.write_faults >= 3, "every failed attempt drew a fault: {snap:?}");
        assert!(snap.spill_rollbacks >= 3, "every failed attempt rolled back: {snap:?}");
        assert_eq!(snap.degraded_mode_entries, 1, "one transition, not one per failure");
        // Rollback quarantined every leftover; nothing stale in the root.
        for entry in std::fs::read_dir(&root).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(!name.ends_with(".tmp"), "stray tmp file {name} after rollback");
        }
    }

    #[test]
    fn budget_spill_failure_is_swallowed_but_degrades() {
        let el = rmat(40, 100, 36, RmatConfig::default());
        let (_t, dir) = built(&el, 2);
        let root = dir.root().to_path_buf();
        let dir =
            faulty(&root, hus_storage::FaultSpec { seed: 2, torn: 1.0, ..Default::default() });
        let mut dg = DynamicGraph::open(dir).unwrap();
        // Budget 1: every insert crosses it. The crossing update is
        // acked — it was buffered before the spill was attempted — and
        // survives the rollback in memory.
        dg.memtable_budget = 1;
        dg.insert_edge(1, 2, 1.0).unwrap();
        assert!(dg.is_degraded());
        assert_eq!(dg.memtable_len(), 1);
        assert!(dg.insert_edge(2, 3, 1.0).is_err(), "degraded: next ingest is rejected");
    }

    #[test]
    fn spill_failure_recovers_once_a_retry_succeeds() {
        let el = rmat(50, 150, 37, RmatConfig::default());
        let (_t, dir) = built(&el, 2);
        let root = dir.root().to_path_buf();
        // ~half of all writes fail: with a deterministic seed the flush
        // retry loop must observe both a rollback and a later success.
        let dir =
            faulty(&root, hus_storage::FaultSpec { seed: 9, enospc: 0.5, ..Default::default() });
        let mut dg = DynamicGraph::open(dir).unwrap();
        dg.insert_edge(1, 2, 1.0).unwrap();
        let (mut failures, mut committed) = (0u32, false);
        for _ in 0..128 {
            match dg.flush() {
                Err(e) => {
                    assert!(e.is_no_space(), "unexpected spill error: {e}");
                    assert!(dg.is_degraded());
                    failures += 1;
                }
                Ok(run) => {
                    assert!(run.is_some(), "memtable non-empty until the spill commits");
                    committed = true;
                    break;
                }
            }
        }
        assert!(failures > 0 && committed, "seed must exercise both paths");
        assert!(!dg.is_degraded(), "successful spill exits degraded mode");
        assert_eq!(dg.run_count(), 1);
        assert!(edges_via(dg.snapshot().unwrap(), Orientation::Out).contains(&(1, 2)));
    }

    #[test]
    fn compaction_failure_rolls_back_and_degrades() {
        let el = rmat(40, 100, 35, RmatConfig::default());
        let (_t, dir) = built(&el, 2);
        let root = dir.root().to_path_buf();
        {
            let mut dg = DynamicGraph::open(StorageDir::open(&root).unwrap()).unwrap();
            dg.insert_edge(1, 2, 1.0).unwrap();
            dg.flush().unwrap(); // fault-free: one committed run
        }
        let dir =
            faulty(&root, hus_storage::FaultSpec { seed: 3, enospc: 1.0, ..Default::default() });
        let resilience = dir.resilience();
        let tracker = dir.tracker();
        let mut dg = DynamicGraph::open(dir).unwrap();
        let before: Vec<_> = Orientation::BOTH.map(|o| edges_via(dg.snapshot().unwrap(), o)).into();
        assert!(dg.compact().is_err());
        assert!(dg.is_degraded());
        assert_eq!(dg.run_count(), 1, "prior generation (base + run) intact");
        assert!(resilience.snapshot().spill_rollbacks >= 1);
        // The overlay stays attached and valid: the next snapshot reads
        // nothing and serves the same edge set.
        let billed = tracker.snapshot().total_bytes();
        let g = dg.snapshot().unwrap();
        assert_eq!(tracker.snapshot().total_bytes(), billed, "snapshot after a rollback did I/O");
        let after: Vec<_> = Orientation::BOTH.map(|o| edges_via(g, o)).into();
        assert_eq!(after, before);
        assert!(after[0].contains(&(1, 2)));
    }

    /// One generated update: `(src, dst, Some(weight))` inserts,
    /// `(src, dst, None)` deletes.
    type Update = (u32, u32, Option<f32>);

    /// The in-memory model of the merged edge list: an insert replaces
    /// every copy of its key (so base duplicates collapse to one record),
    /// a delete erases them all. Untouched records keep their order.
    fn apply_to_model(model: &mut Vec<(u32, u32, f32)>, &(src, dst, op): &Update) {
        model.retain(|&(s, d, _)| (s, d) != (src, dst));
        if let Some(w) = op {
            model.push((src, dst, w));
        }
    }

    /// The model's starting point: `el` as triples, weight 1.0 when
    /// unweighted.
    fn model_of(el: &EdgeList) -> Vec<(u32, u32, f32)> {
        let weight = |k: usize| el.weights.as_ref().map_or(1.0, |w| w[k]);
        el.edges.iter().enumerate().map(|(k, e)| (e.src, e.dst, weight(k))).collect()
    }

    /// Build `el` under `config`, spill `updates` as three runs with the
    /// last quarter left in the memtable, compact, and require every
    /// data file and the manifest to equal a from-scratch build of the
    /// model's edge list over the base's interval boundaries.
    fn assert_compaction_matches_rebuild(
        case: &str,
        el: &EdgeList,
        config: &BuildConfig,
        updates: &[Update],
    ) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let base = build(el, &dir, config).unwrap();
        let mut dg = DynamicGraph::open(dir.clone()).unwrap();
        let mut model = model_of(el);
        let quarter = updates.len().div_ceil(4);
        for (k, batch) in updates.chunks(quarter.max(1)).enumerate() {
            for u in batch {
                match u.2 {
                    Some(w) => dg.insert_edge(u.0, u.1, w).unwrap(),
                    None => dg.delete_edge(u.0, u.1).unwrap(),
                }
                apply_to_model(&mut model, u);
            }
            if k < 3 {
                dg.flush().unwrap();
            }
        }
        assert!(dg.compact().unwrap(), "{case}");
        let meta = dg.snapshot().unwrap().meta().clone();
        assert_eq!(meta.interval_starts, base.interval_starts, "{case}: partition kept");

        let want = to_edge_list(el.num_vertices, &model, el.is_weighted());
        let reference = StorageDir::create(tmp.path().join("ref")).unwrap();
        let ref_meta = crate::builder::build_partitioned(
            &want,
            &want.out_degrees(),
            &reference,
            base.interval_starts.clone(),
            config.codec,
        )
        .unwrap();
        assert_eq!(meta, ref_meta, "{case}: manifest");
        for (name, _) in crate::meta::GraphMeta::data_files(meta.p) {
            assert_eq!(
                std::fs::read(dir.path(&name)).unwrap(),
                std::fs::read(reference.path(&name)).unwrap(),
                "{case}: {name} differs from a from-scratch build with the same partition"
            );
        }
    }

    /// `n` seeded updates over `num_vertices`: inserts with distinct
    /// weights, deletes of base edges and of random keys.
    fn random_updates(el: &EdgeList, n: usize, seed: u64) -> Vec<Update> {
        (0..n)
            .map(|k| {
                let r = hus_gen::types::splitmix64(seed << 32 | k as u64);
                if r.is_multiple_of(3) {
                    let e = el.edges[(r >> 8) as usize % el.edges.len()];
                    (e.src, e.dst, None)
                } else {
                    let v = el.num_vertices as u64;
                    (((r >> 8) % v) as u32, ((r >> 32) % v) as u32, Some(k as f32 + 0.25))
                }
            })
            .collect()
    }

    #[test]
    fn compaction_keeps_a_degree_balanced_partition() {
        // Degree-balanced intervals of a skewed graph are far from equal
        // vertex counts; compaction must not re-partition them.
        let el = rmat(1000, 8000, 41, RmatConfig::default());
        let config = BuildConfig {
            p: Some(4),
            partition: crate::PartitionStrategy::BalancedOutDegree,
            ..BuildConfig::with_p_codec(4, Codec::Raw)
        };
        let updates = random_updates(&el, 600, 5);
        assert_compaction_matches_rebuild("degree-balanced", &el, &config, &updates);
    }

    #[test]
    fn compaction_matches_a_same_partition_rebuild_across_codecs_and_weights() {
        let el = rmat(300, 2500, 23, RmatConfig::default());
        // Weighted, with duplicate base edges carrying distinct weights:
        // some duplicate keys are overwritten or deleted, others are
        // copied through in input order.
        let mut dup = el.clone();
        for k in 0..40 {
            dup.edges.push(el.edges[k * 7]);
        }
        dup.weights = Some((0..dup.edges.len()).map(|k| k as f32 * 0.5 + 1.0).collect());
        let mut dup_updates = random_updates(&dup, 200, 9);
        for k in (0..40).step_by(4) {
            let e = el.edges[k * 7];
            dup_updates.push((e.src, e.dst, if k % 8 == 0 { None } else { Some(99.5) }));
        }
        // Updates confined to blocks (0, 0) and (2, 3) of a 4 × 4 grid;
        // every other block is copied through from the base.
        let confined: Vec<Update> = (0..60u32)
            .map(|k| {
                let (src, dst) = if k % 2 == 0 { (k % 75, k * 7 % 75) } else { (150 + k, 225 + k) };
                (src, dst, if k % 5 == 0 { None } else { Some(1.0) })
            })
            .collect();
        for codec in [Codec::Raw, Codec::DeltaVarint] {
            let config = BuildConfig::with_p_codec(4, codec);
            let name = codec.name();
            assert_compaction_matches_rebuild(
                &format!("{name} unweighted"),
                &el,
                &config,
                &random_updates(&el, 300, 3),
            );
            assert_compaction_matches_rebuild(
                &format!("{name} weighted duplicates"),
                &dup,
                &config,
                &dup_updates,
            );
            assert_compaction_matches_rebuild(&format!("{name} confined"), &el, &config, &confined);
        }
    }

    #[test]
    fn resolve_and_snapshot_match_a_newest_wins_model() {
        let el = rmat(64, 400, 29, RmatConfig::default()).with_hash_weights(1.0, 2.0);
        let (_t, dir) = built(&el, 3);
        let mut dg = DynamicGraph::open(dir).unwrap();
        let mut model = model_of(&el);
        let mut reference: BTreeMap<(u32, u32), BTreeMap<(u32, u32), DeltaOp>> = BTreeMap::new();
        let mut apply = |dg: &mut DynamicGraph, u: Update| {
            let op = match u.2 {
                Some(w) => {
                    dg.insert_edge(u.0, u.1, w).unwrap();
                    DeltaOp::Put(w)
                }
                None => {
                    dg.delete_edge(u.0, u.1).unwrap();
                    DeltaOp::Delete
                }
            };
            let (i, j) = dg.locate(u.0, u.1).unwrap();
            reference.entry((i, j)).or_default().insert((u.0, u.1), op);
            apply_to_model(&mut model, &u);
        };
        // A base edge deleted, resurrected, deleted and resurrected again
        // across three runs and the memtable.
        let e = el.edges[0];
        for layer in 0..4u64 {
            let op = if layer % 2 == 0 { None } else { Some(10.0 + layer as f32) };
            apply(&mut dg, (e.src, e.dst, op));
            // Keys drawn from a 16 × 64 corner repeat within and across
            // layers and land in several blocks.
            for k in 0..150 {
                let r = hus_gen::types::splitmix64(layer << 32 | k);
                let (src, dst) = ((r % 16) as u32 * 4, ((r >> 16) % 64) as u32);
                let op = !(r >> 40).is_multiple_of(3);
                apply(&mut dg, (src, dst, op.then_some(k as f32 + 0.5)));
            }
            if layer < 3 {
                dg.flush().unwrap().unwrap();
            }
        }
        assert_eq!(dg.run_count(), 3);
        assert!(dg.memtable_len() > 0);

        let resolved = resolve_ops(&dg.runs, &dg.memtable);
        let want: BTreeMap<(u32, u32), BlockOps> =
            reference.into_iter().map(|(b, ops)| (b, ops.into_iter().collect())).collect();
        assert_eq!(resolved, want);

        let g = dg.snapshot().unwrap();
        let bits = |v: Vec<(u32, u32, f32)>| {
            let mut v: Vec<(u32, u32, u32)> =
                v.into_iter().map(|(s, d, w)| (s, d, w.to_bits())).collect();
            v.sort_unstable();
            v
        };
        let want = bits(model);
        for o in Orientation::BOTH {
            assert_eq!(bits(crate::graph::tests::edges_via(g, o)), want, "{o:?}");
        }
        assert_eq!(g.num_edges(), want.len() as u64);
    }
}
