//! External-memory (streaming) construction of the dual-block format.
//!
//! [`crate::build`] keeps the whole edge list in memory, which is fine
//! for experiments but not for graphs that are the *reason* out-of-core
//! systems exist. This builder makes two streaming passes over a
//! re-scannable edge source with memory bounded by
//! `O(|V| + max_shard_edges)`:
//!
//! 1. **Degree pass** — count out-degrees (one `u32` per vertex) and fix
//!    the interval boundaries. The degrees then make way for a table of
//!    as many words that maps each vertex to its interval.
//! 2. **Spill pass** — append every edge to one *out-spill* (keyed by
//!    its source interval) and one *in-spill* (destination interval),
//!    all writes buffered and tracked.
//! 3. **Per-shard finish** — each spill (≈ `|E|/P` edges, in memory by
//!    the choice of `P`, exactly the paper's block-sizing rule) is read
//!    back straight into its `P` blocks by one stable counting pass on
//!    the neighbor's interval; `order_block` then puts each block in
//!    canonical order with two more counting passes, and `write_shard`
//!    — the one function that writes a shard's blocks, sparse indices
//!    and footers — emits them. The in-memory builder ([`crate::build`])
//!    orders and emits its blocks through the same two functions. At
//!    most one spill's records plus one block of scratch are held (the
//!    spill's raw bytes only while they are split).
//!
//! The output is therefore **byte-identical** to the in-memory
//! builder's (the tests assert it), so either path can build a graph
//! directory.
//!
//! Like the in-memory builder, everything is written into a sibling
//! staging directory and committed by one atomic rename. On top of
//! that, the external builder is **resumable**: after each phase
//! (degrees, spill, every finished shard) it records a CRC-sealed
//! [`PROGRESS_FILE`] inside the staging directory, so a build that is
//! killed mid-way picks up from the last durable phase instead of
//! repeating the spill pass and the finished shards. The record is
//! bound to the input — edge count and a CRC-32C of the edge stream,
//! re-derived by the (read-only) degree pass of every invocation — so
//! staging left by a build of a different edge list is never adopted
//! (DESIGN.md §10).

use crate::builder::{finalize_build, BuildConfig};
use crate::index::BlockParts;
use crate::meta::{BlockMeta, GraphMeta, Orientation, DEGREES_FILE};
use crate::partition::{interval_starts, interval_table};
use hus_gen::Edge;
use hus_storage::checksum::{Crc32c, ShardFooter};
use hus_storage::durable::crash_point;
use hus_storage::manifest::{seal_text, unseal_text};
use hus_storage::{pod, Access, Result, StagingDir, StorageDir, StorageError};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A re-scannable stream of `(edge, weight)` pairs (weight ignored when
/// `weighted` is false). Each call must yield the same sequence.
pub trait EdgeSource {
    /// The pass iterator.
    type Iter: Iterator<Item = (Edge, f32)>;

    /// Number of vertices.
    fn num_vertices(&self) -> u32;

    /// Whether weights are meaningful.
    fn weighted(&self) -> bool;

    /// Start a fresh pass over the edges.
    fn scan(&self) -> Result<Self::Iter>;
}

/// An in-memory [`EdgeSource`] over an [`hus_gen::EdgeList`] (useful for
/// tests and for small graphs; the memory bound then excludes the input
/// itself).
pub struct ListSource<'a>(pub &'a hus_gen::EdgeList);

impl<'a> EdgeSource for ListSource<'a> {
    type Iter = Box<dyn Iterator<Item = (Edge, f32)> + 'a>;

    fn num_vertices(&self) -> u32 {
        self.0.num_vertices
    }

    fn weighted(&self) -> bool {
        self.0.is_weighted()
    }

    fn scan(&self) -> Result<Self::Iter> {
        let el = self.0;
        Ok(match &el.weights {
            Some(w) => Box::new(el.edges.iter().zip(w.iter()).map(|(e, &w)| (*e, w))),
            None => Box::new(el.edges.iter().map(|e| (*e, 1.0f32))),
        })
    }
}

/// A streaming [`EdgeSource`] over a binary edge-list file written by
/// [`hus_gen::io::write_binary`]; each pass re-opens the file.
pub struct BinaryFileSource {
    path: std::path::PathBuf,
    header: hus_gen::io::BinaryHeader,
}

impl BinaryFileSource {
    /// Open `path` and read its header.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let header =
            hus_gen::io::read_binary_header(&path).map_err(|e| StorageError::io_at(&path, e))?;
        Ok(BinaryFileSource { path, header })
    }
}

impl EdgeSource for BinaryFileSource {
    type Iter = hus_gen::io::BinaryEdgeStream;

    fn num_vertices(&self) -> u32 {
        self.header.num_vertices
    }

    fn weighted(&self) -> bool {
        self.header.weighted
    }

    fn scan(&self) -> Result<Self::Iter> {
        hus_gen::io::stream_binary(&self.path).map_err(|e| StorageError::io_at(&self.path, e))
    }
}

/// Name of the CRC-sealed per-phase progress file an external build
/// keeps inside its staging directory. Never present in a committed
/// graph directory.
pub const PROGRESS_FILE: &str = "progress.json";

/// Per-phase progress of a staged external build, persisted (sealed
/// with a `#crc32c:` trailer like the `MANIFEST`) after every durable
/// phase so an interrupted build can resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BuildProgress {
    /// Identity of (input, config): shape, configuration, edge count and
    /// a checksum of the edge stream. A resume with a different input or
    /// configuration discards the stale staging directory.
    fingerprint: String,
    /// The manifest under construction; present once the degree pass
    /// has fixed `P` and the interval boundaries (and `degrees.bin` is
    /// durable). Block descriptors fill in shard by shard.
    meta: Option<GraphMeta>,
    spilled: bool,
    /// Shards fully written (edges + index + footers durable), counted
    /// along the build order: `P` out-shards, then `P` in-shards.
    shards_done: u32,
}

impl BuildProgress {
    /// Shape invariants that make the resumed state safe to index into.
    fn coherent(&self) -> bool {
        let Some(meta) = &self.meta else {
            return !self.spilled && self.shards_done == 0;
        };
        let p = meta.p as usize;
        p >= 1
            && meta.interval_starts.len() == p + 1
            && Orientation::BOTH.iter().all(|&o| meta.blocks(o).len() == p * p)
            && self.shards_done as usize <= 2 * p
            && (self.spilled || self.shards_done == 0)
    }
}

fn save_progress(out: &StorageDir, prog: &BuildProgress) -> Result<()> {
    let mut body = serde_json::to_string(prog).expect("progress serializes");
    body.push('\n');
    out.put_meta(PROGRESS_FILE, &seal_text(&body))?;
    hus_storage::durable::sync_file(&out.path(PROGRESS_FILE))
}

/// Load and validate the progress file of a staging directory; `None`
/// when absent, torn, or recorded for a different (input, config).
fn load_progress(out: &StorageDir, fingerprint: &str) -> Option<BuildProgress> {
    let text = out.get_meta(PROGRESS_FILE).ok()?;
    let body = unseal_text(&text).ok()?;
    let prog: BuildProgress = serde_json::from_str(body).ok()?;
    (prog.fingerprint == fingerprint && prog.coherent()).then_some(prog)
}

/// Adopt the most recent resumable staging sibling of `dir`, or begin a
/// fresh one. Staging directories whose progress is missing, torn, or
/// from a different build are discarded (their `StagingDir` drop
/// removes them).
fn adopt_or_begin(dir: &StorageDir, fingerprint: &str) -> Result<(StagingDir, BuildProgress)> {
    for cand in dir.staging_siblings().into_iter().rev() {
        let Ok(staging) = StagingDir::adopt(dir, cand) else { continue };
        match load_progress(staging.dir(), fingerprint) {
            Some(prog) => return Ok((staging, prog)),
            None => drop(staging), // stale: removed by Drop
        }
    }
    let fresh = BuildProgress {
        fingerprint: fingerprint.to_string(),
        meta: None,
        spilled: false,
        shards_done: 0,
    };
    Ok((dir.staging()?, fresh))
}

fn spill_file(o: Orientation, k: usize) -> String {
    format!("spill_{}_{k}.tmp", o.name())
}

/// Build the dual-block representation of `source` into `dir` with two
/// streaming passes and bounded memory. Produces the same files as
/// [`crate::build`], staged and committed atomically; an interrupted
/// build of the *same input* left in a staging sibling resumes from its
/// last durable phase.
pub fn build_external<S: EdgeSource>(
    source: &S,
    dir: &StorageDir,
    config: &BuildConfig,
) -> Result<GraphMeta> {
    let num_vertices = source.num_vertices();
    let weighted = source.weighted();

    // Pass 1: out-degrees; also counts, validates and checksums the
    // edge stream. It runs on a resume too — what it derives is the
    // input's identity, and nothing staged is trusted before that
    // identity matches the one the staging directory was recorded for.
    let mut out_degrees = vec![0u32; num_vertices as usize];
    let mut num_edges = 0u64;
    let mut stream_crc = Crc32c::new();
    for (e, w) in source.scan()? {
        if e.src >= num_vertices || e.dst >= num_vertices {
            return Err(StorageError::Corrupt(format!(
                "edge {} -> {} out of range for {} vertices",
                e.src, e.dst, num_vertices
            )));
        }
        out_degrees[e.src as usize] += 1;
        num_edges += 1;
        stream_crc.update(&e.src.to_le_bytes());
        stream_crc.update(&e.dst.to_le_bytes());
        if weighted {
            stream_crc.update(&w.to_le_bytes());
        }
    }
    let fingerprint = format!(
        "v={num_vertices} w={weighted} codec={} part={:?} p={:?} budget={} edges={num_edges} \
         crc32c={:08x}",
        config.codec.name(),
        config.partition,
        config.p,
        config.memory_budget_bytes,
        stream_crc.finish(),
    );

    let (staging, mut prog) = adopt_or_begin(dir, &fingerprint)?;
    let out = staging.dir().clone();

    if prog.meta.is_none() {
        let p = config.resolve_p(num_vertices, num_edges, if weighted { 8 } else { 4 });
        let starts = interval_starts(num_vertices, p, config.partition, &out_degrees);
        // degrees.bin is both a final output and the first checkpoint.
        let mut deg_w = out.writer(DEGREES_FILE)?;
        deg_w.write_pod_slice(&out_degrees)?;
        deg_w.finish_synced()?;
        prog.meta =
            Some(GraphMeta::unbuilt(num_vertices, num_edges, starts, weighted, config.codec));
        save_progress(&out, &prog)?;
        crash_point("ext.degrees");
    }
    drop(out_degrees); // makes way for the interval table below
    let starts = prog.meta.as_ref().expect("recorded by the degree phase").interval_starts.clone();
    let p = starts.len() - 1;
    let interval = interval_table(&starts);

    if !prog.spilled {
        // Pass 2: spill every edge into its source-interval and
        // destination-interval staging files (truncating any partial
        // spill from an interrupted earlier attempt).
        let mut spills = Vec::with_capacity(2 * p);
        for o in Orientation::BOTH {
            for k in 0..p {
                spills.push(out.writer(&spill_file(o, k))?);
            }
        }
        for (e, w) in source.scan()? {
            let grid = (interval[e.src as usize] as usize, interval[e.dst as usize] as usize);
            for o in Orientation::BOTH {
                let writer = &mut spills[o as usize * p + o.orient(grid.0, grid.1).0];
                writer.write_pod(&e.src)?;
                writer.write_pod(&e.dst)?;
                if weighted {
                    writer.write_pod(&w)?;
                }
            }
        }
        for w in spills {
            w.finish_synced()?;
        }
        prog.spilled = true;
        save_progress(&out, &prog)?;
        crash_point("ext.spill");
    }

    // Per-shard finish: split one spill at a time into its blocks, then
    // order and emit them. Each completed shard advances the durable
    // progress cursor, so a resume re-does at most one shard.
    let mut scratch = OrderScratch::default();
    for k in prog.shards_done as usize..2 * p {
        let (o, own) = (Orientation::BOTH[k / p], k % p);
        let (mut records, ends) =
            split_spill(&out, &spill_file(o, own), o, weighted, &interval, p)?;
        let meta = prog.meta.as_mut().expect("recorded by the degree phase");
        write_blocks(&out, meta, o, own, &mut records, &ends, &mut scratch)?;
        prog.shards_done = k as u32 + 1;
        save_progress(&out, &prog)?;
        crash_point("ext.shard");
        std::fs::remove_file(out.path(&spill_file(o, own))).ok();
    }
    let meta = prog.meta.expect("recorded by the degree phase");

    // Sweep build-time scratch so it never ships in the committed
    // directory (a crash after a shard's progress record can leave its
    // spill behind).
    std::fs::remove_file(out.path(PROGRESS_FILE)).ok();
    for o in Orientation::BOTH {
        for k in 0..p {
            std::fs::remove_file(out.path(&spill_file(o, k))).ok();
        }
    }
    finalize_build(staging, &meta)?;
    Ok(meta)
}

/// Read one spill back as `(own vertex, neighbor, weight)` records of
/// orientation `o` (weight 1.0 when unweighted), split into the shard's
/// `P` blocks by one stable counting pass on the neighbor's interval:
/// block `other` is `records[ends[other - 1]..ends[other]]`, in spill
/// (input) order.
fn split_spill(
    dir: &StorageDir,
    name: &str,
    o: Orientation,
    weighted: bool,
    interval: &[u32],
    p: usize,
) -> Result<(Vec<Record>, Vec<usize>)> {
    let reader = dir.reader(name)?;
    let mut bytes = vec![0u8; reader.len() as usize];
    if !bytes.is_empty() {
        reader.read_at(0, &mut bytes, Access::Sequential)?;
    }
    let field = |rec: &[u8], at: usize| {
        u32::from_le_bytes(rec[at..at + 4].try_into().expect("4-byte field"))
    };
    let record_bytes = if weighted { 12 } else { 8 };
    let spilled = bytes.chunks_exact(record_bytes).map(|rec| {
        let (v, neighbor) = o.orient(field(rec, 0), field(rec, 4));
        (v, neighbor, if weighted { f32::from_bits(field(rec, 8)) } else { 1.0 })
    });
    let mut records = vec![(0, 0, 0.0); bytes.len() / record_bytes];
    let mut ends = Vec::with_capacity(p);
    counting_pass(spilled, &mut records, &mut ends, p, |r| interval[r.1 as usize]);
    Ok((records, ends))
}

/// One block's records as the builders carry them: `(own vertex,
/// neighbor, weight)`, the weight 1.0 in an unweighted graph.
pub(crate) type Record = (u32, u32, f32);

/// Reusable buffers of [`order_block`]: the records between its two
/// passes and one histogram, both grown to the largest block seen.
#[derive(Default)]
pub(crate) struct OrderScratch {
    records: Vec<Record>,
    counts: Vec<usize>,
}

/// Put one block's records, given in input order, into the canonical
/// order [`write_shard`] takes: by own vertex, then by neighbor,
/// duplicate edges in input order. Neighbor-sorted adjacency makes
/// shard bytes a function of the edge *set* and lets the delta overlay
/// merge runs with an exact two-pointer walk.
///
/// Two stable counting passes — by neighbor into the scratch, then by
/// own vertex back into `block` — with histograms over the block's own
/// (`own`) and neighbor (`other`) vertex ranges: O(records + interval
/// lengths).
fn order_block(
    block: &mut [Record],
    own: Range<u32>,
    other: Range<u32>,
    scratch: &mut OrderScratch,
) {
    if block.len() < 2 {
        return;
    }
    let OrderScratch { records, counts } = scratch;
    records.clear();
    records.resize(block.len(), block[0]);
    counting_pass(block.iter().copied(), records, counts, other.len(), |r| r.1 - other.start);
    counting_pass(records.iter().copied(), block, counts, own.len(), |r| r.0 - own.start);
}

/// Write `o`-shard `own` from its records in input order, block
/// `other` being `shard[ends[other - 1]..ends[other]]`: [`order_block`]
/// each block, then [`write_shard`] them. Both builders end here.
pub(crate) fn write_blocks(
    dir: &StorageDir,
    meta: &mut GraphMeta,
    o: Orientation,
    own: usize,
    shard: &mut [Record],
    ends: &[usize],
    scratch: &mut OrderScratch,
) -> Result<()> {
    let range = |k: usize| meta.interval_start(k)..meta.interval_start(k + 1);
    let mut start = 0;
    for (other, &end) in ends.iter().enumerate() {
        let block = &mut shard[std::mem::replace(&mut start, end)..end];
        order_block(block, range(own), range(other), scratch);
    }
    let mut start = 0;
    let runs =
        ends.iter().map(|&end| shard[std::mem::replace(&mut start, end)..end].iter().copied());
    write_shard(dir, meta, o, own, runs)
}

/// Stable counting sort of `src` into `dst` by `key` in `0..keys`;
/// leaves `counts[k]` at the end of key `k`'s records in `dst`.
fn counting_pass(
    src: impl Iterator<Item = Record> + Clone,
    dst: &mut [Record],
    counts: &mut Vec<usize>,
    keys: usize,
    key: impl Fn(&Record) -> u32,
) {
    counts.clear();
    counts.resize(keys, 0);
    for r in src.clone() {
        counts[key(&r) as usize] += 1;
    }
    // Exclusive prefix sums: where each key's first record goes.
    let mut next = 0;
    for c in counts.iter_mut() {
        next += std::mem::replace(c, next);
    }
    for r in src {
        let at = &mut counts[key(&r) as usize];
        dst[*at] = r;
        *at += 1;
    }
}

/// Write `o`-shard `own` — `P` codec-encoded blocks, each with its
/// sparse index, and the two CRC footers. This is the one place that
/// spells out the shard format of `docs/FORMAT.md`; both builders and
/// compaction end here, which is what makes their output
/// byte-identical.
///
/// `runs` yields the shard's `P` blocks in file order, each as
/// `(own vertex, neighbor, weight)` records in canonical
/// `(own vertex, neighbor)` order, laid out by [`BlockParts`] as the
/// delta overlay lays out its blocks. The `.index` file gets each
/// block's offset array — one offset per own vertex with records in the
/// block, plus the terminal one — and then the `P` occupancy bitmaps, which
/// are held until the last block is written (`P · len / 8` bytes). The
/// block descriptors are recorded into `meta`. The per-block CRC-32C
/// covers the *encoded* bytes of an `.edges` block, and the bitmap
/// followed by the offsets of an `.index` block; footers are appended
/// untracked (integrity metadata, not modeled data I/O).
pub(crate) fn write_shard<R: Iterator<Item = (u32, u32, f32)>>(
    dir: &StorageDir,
    meta: &mut GraphMeta,
    o: Orientation,
    own: usize,
    runs: impl Iterator<Item = R>,
) -> Result<()> {
    let codec = meta.codec().map_err(StorageError::Corrupt)?;
    let (p, weighted) = (meta.p as usize, meta.weighted);
    let interval = meta.interval_start(own)..meta.interval_start(own + 1);
    let record_bytes = meta.edge_record_bytes() as usize;
    let (edges_name, index_name) = (GraphMeta::edges_file(o, own), GraphMeta::index_file(o, own));
    let mut edges_w = dir.writer(&edges_name)?;
    let mut index_w = dir.writer(&index_name)?;
    let mut edge_crcs = Vec::with_capacity(p);
    let mut index_crcs = Vec::with_capacity(p);
    let mut bitmaps = Vec::with_capacity(p * meta.bitmap_words(own) as usize);
    // Reusable per-block scratch: the assembled block and its encoded
    // payload.
    let mut block = BlockParts::default();
    let mut enc_buf: Vec<u8> = Vec::new();
    let mut decoded_pos = 0u64;
    for (other, run) in runs.enumerate() {
        let (i, j) = o.orient(own, other);
        // A block too large for `u32` offsets is refused before a byte
        // of it is written.
        block.start(interval.clone(), weighted);
        run.for_each(|(v, neighbor, weight)| block.push(v, neighbor, weight));
        block.finish((o, i, j))?;
        codec.encode(&block.raw, record_bytes, &mut enc_buf);
        *meta.block_mut(o, i, j) = BlockMeta {
            edge_offset: decoded_pos,
            edge_count: block.len(),
            index_offset: index_w.position(),
            occupied: block.offsets.len() as u64 - 1,
            encoded_offset: edges_w.position(),
            encoded_bytes: enc_buf.len() as u64,
        };
        decoded_pos += block.raw.len() as u64;
        let mut crc = Crc32c::new();
        crc.update(pod::as_bytes(&block.words));
        crc.update(pod::as_bytes(&block.offsets));
        index_crcs.push(crc.finish());
        index_w.write_pod_slice(&block.offsets)?;
        bitmaps.extend_from_slice(&block.words);
        edge_crcs.push(hus_storage::crc32c(&enc_buf));
        edges_w.write_all(&enc_buf)?;
    }
    assert_eq!(edge_crcs.len(), p, "a shard has exactly P blocks");
    index_w.write_pod_slice(&bitmaps)?;
    crash_point("build.shard_mid"); // torn: buffered writes lost
    edges_w.finish()?;
    index_w.finish()?;
    ShardFooter::with_codec(edge_crcs, codec.id()).append_to(&dir.path(&edges_name))?;
    ShardFooter::new(index_crcs).append_to(&dir.path(&index_name))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use hus_codec::Codec;
    use hus_gen::rmat;

    fn file_bytes(dir: &StorageDir, name: &str) -> Vec<u8> {
        std::fs::read(dir.path(name)).unwrap()
    }

    fn assert_dirs_identical(a: &StorageDir, b: &StorageDir, p: usize) {
        for (name, _) in GraphMeta::data_files(p as u32) {
            assert_eq!(file_bytes(a, &name), file_bytes(b, &name), "{name}");
        }
    }

    /// Build `el` with both builders and require the same manifest and
    /// the same bytes in every data file.
    fn assert_builders_agree(case: &str, el: &hus_gen::EdgeList, cfg: &BuildConfig) {
        let tmp = tempfile::tempdir().unwrap();
        let mem_dir = StorageDir::create(tmp.path().join("mem")).unwrap();
        let ext_dir = StorageDir::create(tmp.path().join("ext")).unwrap();
        let mem_meta = build(el, &mem_dir, cfg).unwrap();
        let ext_meta = build_external(&ListSource(el), &ext_dir, cfg).unwrap();
        assert_eq!(mem_meta, ext_meta, "{case}");
        assert_eq!(mem_meta.codec().unwrap(), cfg.codec, "{case}");
        assert_dirs_identical(&mem_dir, &ext_dir, mem_meta.p as usize);
    }

    /// 12 vertices in 3 intervals; interval 1 (vertices 4..8) has no
    /// edge in or out, and several edges repeat.
    fn sparse_with_duplicates() -> hus_gen::EdgeList {
        hus_gen::EdgeList::from_pairs([
            (0, 9),
            (3, 1),
            (0, 9),
            (11, 2),
            (9, 0),
            (3, 1),
            (0, 9),
            (10, 11),
        ])
    }

    #[test]
    fn external_build_matches_in_memory_build_exactly() {
        let el = rmat(300, 2500, 21, Default::default());
        assert_builders_agree("rmat", &el, &BuildConfig::with_p(4));
        assert_builders_agree("P = 1", &el, &BuildConfig::with_p(1));
        assert_builders_agree(
            "empty interval + duplicates",
            &sparse_with_duplicates(),
            &BuildConfig::with_p(3),
        );
        assert_builders_agree("edgeless", &hus_gen::EdgeList::empty(10), &BuildConfig::with_p(2));
    }

    #[test]
    fn external_build_matches_for_weighted_graphs() {
        let el = rmat(150, 1200, 33, Default::default()).with_hash_weights(0.5, 3.0);
        assert_builders_agree("rmat", &el, &BuildConfig::with_p(3));
        assert_builders_agree(
            "weighted x delta-varint",
            &el,
            &BuildConfig::with_p_codec(3, Codec::DeltaVarint),
        );
        // Duplicate edges carrying different weights: both builders must
        // keep them in input order (the ordering passes are stable).
        let mut dup = sparse_with_duplicates();
        dup.weights = Some((0..dup.edges.len()).map(|k| k as f32 + 0.5).collect());
        for codec in [Codec::Raw, Codec::DeltaVarint] {
            assert_builders_agree(
                "weighted duplicates",
                &dup,
                &BuildConfig::with_p_codec(3, codec),
            );
        }
    }

    #[test]
    fn external_build_matches_under_delta_varint() {
        // The byte-identity guarantee holds per codec, not just for raw.
        let el = rmat(300, 2500, 21, Default::default());
        let dv = |p| BuildConfig::with_p_codec(p, Codec::DeltaVarint);
        assert_builders_agree("rmat", &el, &dv(4));
        assert_builders_agree("P = 1", &el, &dv(1));
        assert_builders_agree("empty interval + duplicates", &sparse_with_duplicates(), &dv(3));
        assert_builders_agree("edgeless", &hus_gen::EdgeList::empty(10), &dv(2));
    }

    #[test]
    fn binary_file_source_streams_to_the_same_graph() {
        let el = rmat(200, 1500, 44, Default::default()).with_hash_weights(1.0, 2.0);
        let tmp = tempfile::tempdir().unwrap();
        let file = tmp.path().join("g.husg");
        hus_gen::io::write_binary(&el, &file).unwrap();

        let mem_dir = StorageDir::create(tmp.path().join("mem")).unwrap();
        let ext_dir = StorageDir::create(tmp.path().join("ext")).unwrap();
        let cfg = BuildConfig::with_p(4);
        build(&el, &mem_dir, &cfg).unwrap();
        let source = BinaryFileSource::open(&file).unwrap();
        build_external(&source, &ext_dir, &cfg).unwrap();
        assert_dirs_identical(&mem_dir, &ext_dir, 4);
        // A built graph opens and runs.
        let g = crate::HusGraph::open(ext_dir).unwrap();
        assert_eq!(g.meta().num_edges, el.num_edges() as u64);
    }

    #[test]
    fn spill_files_are_cleaned_up() {
        let el = rmat(100, 600, 55, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        build_external(&ListSource(&el), &dir, &BuildConfig::with_p(3)).unwrap();
        assert!(!dir.exists("spill_out_0.tmp"));
        assert!(!dir.exists("spill_in_2.tmp"));
    }

    #[test]
    fn stale_staging_with_mismatched_fingerprint_is_discarded() {
        let el = rmat(100, 600, 55, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        // Plant a staging sibling recorded for a different build and
        // "crash" so its Drop cleanup never runs.
        let staging = dir.staging().unwrap();
        let other = BuildProgress {
            fingerprint: "other-build".into(),
            meta: None,
            spilled: false,
            shards_done: 0,
        };
        save_progress(staging.dir(), &other).unwrap();
        std::mem::forget(staging);
        assert_eq!(dir.staging_siblings().len(), 1);

        let meta = build_external(&ListSource(&el), &dir, &BuildConfig::with_p(3)).unwrap();
        assert!(dir.staging_siblings().is_empty(), "stale staging swept");
        assert_eq!(meta.p, 3);
        crate::HusGraph::open(dir).unwrap();
    }

    #[test]
    fn committed_directory_has_no_progress_file() {
        let el = rmat(100, 600, 55, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        build_external(&ListSource(&el), &dir, &BuildConfig::with_p(3)).unwrap();
        assert!(!dir.exists(PROGRESS_FILE));
        assert!(dir.exists(hus_storage::MANIFEST_FILE));
    }

    /// Check [`order_block`] on every block of `el` under `starts`
    /// against the comparison order the builders used before it:
    /// `sort_unstable` on `(own vertex, neighbor, input position)`. Each
    /// record's weight is its input position, so a misplaced duplicate
    /// shows.
    fn assert_order_matches_reference(case: &str, el: &hus_gen::EdgeList, starts: &[u32]) {
        use crate::partition::interval_of;
        let p = starts.len() - 1;
        let mut scratch = OrderScratch::default();
        for o in Orientation::BOTH {
            let mut blocks: Vec<Vec<Record>> = vec![Vec::new(); p * p];
            for (k, e) in el.edges.iter().enumerate() {
                let (v, neighbor) = o.orient(e.src, e.dst);
                let (own, other) = (interval_of(starts, v), interval_of(starts, neighbor));
                blocks[own * p + other].push((v, neighbor, k as f32));
            }
            for (b, block) in blocks.iter_mut().enumerate() {
                let (own, other) = (b / p, b % p);
                let mut expected = block.clone();
                expected.sort_unstable_by_key(|&(v, neighbor, k)| (v, neighbor, k as u32));
                let ranges = (starts[own]..starts[own + 1], starts[other]..starts[other + 1]);
                order_block(block, ranges.0, ranges.1, &mut scratch);
                let (i, j) = o.orient(own, other);
                assert_eq!(*block, expected, "{case}: {}-block ({i}, {j})", o.name());
            }
        }
    }

    /// `el` with every third edge repeated after the original edges, so
    /// duplicates are spread over the blocks with distinct positions.
    fn with_duplicates(mut el: hus_gen::EdgeList) -> hus_gen::EdgeList {
        let repeats: Vec<_> = el.edges.iter().step_by(3).copied().collect();
        el.edges.extend(repeats);
        el
    }

    #[test]
    fn order_block_matches_the_comparison_order() {
        use crate::partition::{interval_starts, PartitionStrategy};
        for seed in 0..4 {
            let el = with_duplicates(rmat(200, 3000, seed, Default::default()));
            let degrees = el.out_degrees();
            for strategy in [PartitionStrategy::EqualVertices, PartitionStrategy::BalancedOutDegree]
            {
                for p in [1, 4, 200] {
                    let starts = interval_starts(el.num_vertices, p, strategy, &degrees);
                    assert_order_matches_reference(
                        &format!("rmat seed {seed} {strategy:?} P = {p}"),
                        &el,
                        &starts,
                    );
                }
            }
        }
        // A hub holding most out-edges leaves degree-balanced intervals
        // empty.
        let hub = hus_gen::EdgeList::from_pairs((0..400u32).map(|k| {
            if k % 10 == 0 {
                (k % 30, (k * 7) % 30)
            } else {
                (0, k % 30)
            }
        }));
        let starts =
            interval_starts(30, 8, PartitionStrategy::BalancedOutDegree, &hub.out_degrees());
        assert!(starts.windows(2).any(|w| w[0] == w[1]), "an empty interval: {starts:?}");
        assert_order_matches_reference("hub, empty intervals", &hub, &starts);
        let starts = interval_starts(12, 3, PartitionStrategy::EqualVertices, &[]);
        assert_order_matches_reference("sparse duplicates", &sparse_with_duplicates(), &starts);
        let edgeless = hus_gen::EdgeList::empty(10);
        for p in [1, 3, 10] {
            let starts = interval_starts(10, p, PartitionStrategy::EqualVertices, &[]);
            assert_order_matches_reference(&format!("edgeless P = {p}"), &edgeless, &starts);
        }
    }

    #[test]
    fn rejects_out_of_range_edges() {
        let mut el = hus_gen::EdgeList::from_pairs([(0, 5)]);
        el.num_vertices = 3;
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        assert!(build_external(&ListSource(&el), &dir, &BuildConfig::with_p(2)).is_err());
    }
}
