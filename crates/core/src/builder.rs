//! Preprocessing: edge list → dual-block representation on disk.
//!
//! Mirrors the paper's §3.2: vertices are split into `P` intervals; each
//! interval's out-edges and in-edges are written as an out-shard and an
//! in-shard, each internally partitioned into `P` blocks by the other
//! endpoint's interval, with a sparse per-vertex index per block (the
//! `out-index(i,j)` / `in-index(i,j)` structures that enable ROP's
//! selective loads and COP's per-destination parallelism).

use crate::external::{write_blocks, write_shard, OrderScratch, Record};
use crate::graph::HusGraph;
use crate::meta::{GraphMeta, Orientation, DEGREES_FILE, META_FILE};
pub use crate::partition::PartitionStrategy;
use crate::partition::{interval_starts, interval_table};
use hus_codec::Codec;
use hus_gen::EdgeList;
use hus_storage::durable::crash_point;
use hus_storage::{Access, BuildManifest, Result, StagingDir, StorageDir, StorageError};

/// Build-time configuration.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Number of intervals `P`; `None` selects automatically from the
    /// memory budget (paper: "by selecting P such that each in-block or
    /// out-block and the corresponding vertices can fit in memory").
    pub p: Option<u32>,
    /// Vertex partitioning strategy.
    pub partition: PartitionStrategy,
    /// Memory budget used by automatic `P` selection.
    pub memory_budget_bytes: u64,
    /// Per-block edge codec for the `.edges` payloads (defaults to the
    /// `HUS_CODEC` knob, falling back to raw; a malformed value is
    /// reported once). Recorded in `meta.json` and every shard footer
    /// so readers auto-detect.
    pub codec: Codec,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            p: None,
            partition: PartitionStrategy::EqualVertices,
            memory_budget_bytes: 64 << 20,
            codec: hus_obs::env::parse("HUS_CODEC", Codec::Raw),
        }
    }
}

impl BuildConfig {
    /// Fixed interval count.
    pub fn with_p(p: u32) -> Self {
        BuildConfig { p: Some(p), ..Default::default() }
    }

    /// Fixed interval count and explicit codec (ignoring `HUS_CODEC`);
    /// used by tests that assert raw byte layouts or compare codecs.
    pub fn with_p_codec(p: u32, codec: Codec) -> Self {
        BuildConfig { p: Some(p), codec, ..Default::default() }
    }

    /// Resolve the interval count for a graph of the given size.
    pub fn resolve_p(&self, num_vertices: u32, num_edges: u64, edge_bytes: u64) -> u32 {
        if let Some(p) = self.p {
            return p.clamp(1, num_vertices.max(1));
        }
        // An average block holds E/P² edges and its two vertex intervals
        // hold 2V/P values; pick the smallest P where a block plus its
        // vertices fit in (a quarter of) the budget, approximating with
        // the dominant E·M/P² term.
        let budget = (self.memory_budget_bytes / 4).max(1);
        let p = ((num_edges.saturating_mul(edge_bytes)) as f64 / budget as f64).sqrt().ceil();
        (p as u32).clamp(1, 256).min(num_vertices.max(1))
    }
}

/// Finish a staged build: validate the manifest, persist `meta.json`,
/// capture and write the generation-stamped `MANIFEST` over the staged
/// files, and atomically commit the staging directory into place
/// (DESIGN.md §10). Shared by every builder.
pub(crate) fn finalize_build(staging: StagingDir, meta: &GraphMeta) -> Result<()> {
    meta.validate().map_err(StorageError::Corrupt)?;
    let out = staging.dir();
    out.put_meta(META_FILE, &serde_json::to_string_pretty(meta).expect("meta serializes"))?;
    crash_point("build.meta");
    let files = GraphMeta::data_files(meta.p);
    let manifest = BuildManifest::capture(
        out.root(),
        staging.generation(),
        files.iter().map(|(name, footer)| (name.as_str(), *footer)),
    )?;
    manifest.write_with(out)?;
    crash_point("build.manifest");
    staging.commit()
}

/// Write the out-degree table (used by scatter contexts and the
/// predictor), then [`finalize_build`]: the tail of the in-memory build
/// and of compaction. The external builder writes its degrees first, as
/// its resume checkpoint.
fn finish_build(staging: StagingDir, meta: &GraphMeta, out_degrees: &[u32]) -> Result<()> {
    let mut deg_w = staging.dir().writer(DEGREES_FILE)?;
    deg_w.write_pod_slice(out_degrees)?;
    deg_w.finish()?;
    crash_point("build.degrees");
    finalize_build(staging, meta)
}

/// Build the dual-block representation of `el` inside `dir`, returning
/// the manifest (also persisted as `meta.json`).
///
/// The build is **atomic**: everything is written into a sibling
/// `<dir>.tmp-<nonce>` staging directory, fsync'd, sealed with a
/// `MANIFEST`, and renamed over `dir` in one step — a crash at any
/// point leaves `dir` either untouched or fully built, never half
/// written (see DESIGN.md §10).
pub fn build(el: &EdgeList, dir: &StorageDir, config: &BuildConfig) -> Result<GraphMeta> {
    el.validate().map_err(StorageError::Corrupt)?;
    let p = config.resolve_p(
        el.num_vertices,
        el.num_edges() as u64,
        if el.is_weighted() { 8 } else { 4 },
    );
    let out_degrees = el.out_degrees();
    let starts = interval_starts(el.num_vertices, p, config.partition, &out_degrees);
    build_partitioned(el, &out_degrees, dir, starts, config.codec)
}

/// [`build`] over fixed interval boundaries `starts` (`P + 1` vertex
/// ids), given `el`'s out-degree table.
pub(crate) fn build_partitioned(
    el: &EdgeList,
    out_degrees: &[u32],
    dir: &StorageDir,
    starts: Vec<u32>,
    codec: Codec,
) -> Result<GraphMeta> {
    let p = starts.len() - 1;
    // Bucket positions are `u32`.
    if el.num_edges() as u64 > u32::MAX as u64 {
        return Err(StorageError::CapacityExceeded {
            what: "edges in an in-memory build".into(),
            count: el.num_edges() as u64,
            limit: u32::MAX as u64,
        });
    }
    let staging = dir.staging()?;
    let out = staging.dir().clone();

    // Bucket edge positions into the P×P grid, in input order.
    let interval = interval_table(&starts);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); p * p];
    for (k, e) in el.edges.iter().enumerate() {
        let (i, j) = (interval[e.src as usize] as usize, interval[e.dst as usize] as usize);
        buckets[i * p + j].push(k as u32);
    }

    // Out-shards (blocks `(i, 0..P)` of each source interval `i`), then
    // in-shards (blocks `(0..P, j)` of each destination interval `j`).
    let num_edges = el.num_edges() as u64;
    let mut meta = GraphMeta::unbuilt(el.num_vertices, num_edges, starts, el.is_weighted(), codec);
    // One shard's records, its blocks back to back in input order, and
    // where each block ends.
    let mut shard: Vec<Record> = Vec::new();
    let mut ends: Vec<usize> = Vec::with_capacity(p);
    let mut scratch = OrderScratch::default();
    for o in Orientation::BOTH {
        for own in 0..p {
            shard.clear();
            ends.clear();
            for other in 0..p {
                let (i, j) = o.orient(own, other);
                shard.extend(buckets[i * p + j].iter().map(|&k| {
                    let e = el.edges[k as usize];
                    let (v, neighbor) = o.orient(e.src, e.dst);
                    (v, neighbor, el.weights.as_ref().map_or(1.0, |w| w[k as usize]))
                }));
                ends.push(shard.len());
            }
            write_blocks(&out, &mut meta, o, own, &mut shard, &ends, &mut scratch)?;
            crash_point("build.shard");
        }
    }
    finish_build(staging, &meta, out_degrees)?;
    Ok(meta)
}

/// Re-encode `graph` as read through its overlay-aware block loaders —
/// base blocks with every attached delta merged in — as a new build of
/// its own directory: the write half of compaction (DESIGN.md §11.3).
///
/// Every block is already in canonical order, so each `o`-shard goes
/// straight from its blocks' indices and records
/// ([`HusGraph::block_index`] + [`HusGraph::records`]) to
/// [`write_shard`]: no edge list, no bucketing, no sort. The new build
/// keeps the base's interval boundaries, `P`, codec and weightedness,
/// and commits through the same staged, crash-pointed tail as
/// [`build`]. Overlay blocks cost no I/O; every other block is read
/// once per orientation.
pub(crate) fn build_from(graph: &HusGraph) -> Result<GraphMeta> {
    let base = graph.meta();
    let p = base.p as usize;
    let staging = graph.dir().staging()?;
    let out = staging.dir().clone();
    let mut meta = GraphMeta::unbuilt(
        base.num_vertices,
        graph.num_edges(),
        base.interval_starts.clone(),
        base.weighted,
        graph.codec(),
    );
    for o in Orientation::BOTH {
        for own in 0..p {
            let first = base.interval_start(own);
            let blocks = (0..p)
                .map(|other| {
                    let (i, j) = o.orient(own, other);
                    let index = graph.block_index(o, i, j, Access::Sequential)?;
                    Ok((index, graph.records(o, i, j, None, Access::Sequential)?))
                })
                .collect::<Result<Vec<_>>>()?;
            let runs = blocks.iter().map(|(index, records)| {
                index.ranges().flat_map(move |(local, lo, hi)| {
                    let v = first + local as u32;
                    records.walk(lo as usize, hi as usize).map(move |(n, w)| (v, n, w))
                })
            });
            write_shard(&out, &mut meta, o, own, runs)?;
            crash_point("build.shard");
        }
    }
    finish_build(staging, &meta, graph.out_degrees())?;
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_gen::rmat::{rmat, RmatConfig};
    use hus_storage::checksum::ShardFooter;

    fn build_tmp(el: &EdgeList, p: u32) -> (tempfile::TempDir, StorageDir, GraphMeta) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let meta = build(el, &dir, &BuildConfig::with_p(p)).unwrap();
        (tmp, dir, meta)
    }

    #[test]
    fn env_selection_defaults_to_raw() {
        // The default config reads HUS_CODEC; in the test environment the
        // variable is either unset (raw) or set by a CI matrix leg.
        let got = BuildConfig::default().codec;
        match std::env::var("HUS_CODEC") {
            Ok(v) => assert_eq!(got, v.parse().unwrap_or_default()),
            Err(_) => assert_eq!(got, Codec::Raw),
        }
    }

    #[test]
    fn builds_consistent_meta() {
        let el = rmat(100, 600, 1, RmatConfig::default());
        let (_t, dir, meta) = build_tmp(&el, 4);
        assert_eq!(meta.p, 4);
        assert_eq!(meta.num_edges, el.num_edges() as u64);
        meta.validate().unwrap();
        for i in 0..4 {
            assert!(dir.exists(&GraphMeta::out_edges_file(i)));
            assert!(dir.exists(&GraphMeta::in_edges_file(i)));
        }
        assert!(dir.exists(META_FILE));
        assert!(dir.exists(DEGREES_FILE));
    }

    #[test]
    fn shard_files_have_expected_sizes() {
        // Codec-generic: every `.edges` file is exactly its blocks'
        // encoded payloads plus the footer, whatever HUS_CODEC is set to;
        // every `.index` file one offset per source with edges in a
        // block plus a terminal one per block, then one bitmap word per
        // 64 vertices per block, then the footer.
        let el = rmat(100, 300, 2, RmatConfig::default());
        let (_t, dir, meta) = build_tmp(&el, 2);
        let footer = hus_storage::checksum::footer_len(2);
        for i in 0..2usize {
            let payload: u64 = (0..2).map(|j| meta.out_block(i, j).encoded_bytes).sum();
            assert_eq!(dir.file_len(&GraphMeta::out_edges_file(i)).unwrap(), payload + footer);
            let mut offsets = 0;
            for j in 0..2usize {
                let range = |k: usize| meta.interval_start(k)..meta.interval_start(k + 1);
                let sources: std::collections::BTreeSet<u32> = (el.edges.iter())
                    .filter(|e| range(i).contains(&e.src) && range(j).contains(&e.dst))
                    .map(|e| e.src)
                    .collect();
                assert_eq!(meta.out_block(i, j).occupied, sources.len() as u64, "({i}, {j})");
                offsets += (sources.len() as u64 + 1) * 4;
            }
            // Intervals of 50 vertices: one bitmap word per block.
            assert_eq!(meta.interval_len(i), 50);
            assert_eq!(
                dir.file_len(&GraphMeta::out_index_file(i)).unwrap(),
                offsets + 2 * 8 + footer
            );
        }
    }

    #[test]
    fn raw_codec_layout_is_byte_identical_to_decoded() {
        // Under the raw codec (pinned, regardless of HUS_CODEC) the
        // encoded space equals the decoded space: each record is 4/8
        // bytes at its logical offset.
        let el = rmat(64, 300, 2, RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let meta = build(&el, &dir, &BuildConfig::with_p_codec(2, Codec::Raw)).unwrap();
        let footer = hus_storage::checksum::footer_len(2);
        for i in 0..2usize {
            let edges_in_shard: u64 = (0..2).map(|j| meta.out_block(i, j).edge_count).sum();
            assert_eq!(
                dir.file_len(&GraphMeta::out_edges_file(i)).unwrap(),
                edges_in_shard * meta.edge_record_bytes() + footer
            );
            for j in 0..2usize {
                let b = meta.out_block(i, j);
                assert_eq!(b.encoded_offset, b.edge_offset);
                assert_eq!(b.encoded_bytes, b.edge_count * meta.edge_record_bytes());
            }
        }
    }

    #[test]
    fn weighted_records_are_8_bytes() {
        let el = rmat(64, 200, 3, RmatConfig::default()).with_hash_weights(1.0, 2.0);
        let (_t, dir, meta) = build_tmp(&el, 2);
        assert!(meta.weighted);
        assert_eq!(meta.edge_record_bytes(), 8);
        let payload: u64 = (0..2).map(|j| meta.out_block(0, j).encoded_bytes).sum();
        assert_eq!(
            dir.file_len(&GraphMeta::out_edges_file(0)).unwrap(),
            payload + hus_storage::checksum::footer_len(2)
        );
    }

    #[test]
    fn footers_record_per_block_payload_crcs() {
        // Codec-generic: footers checksum the encoded payload bytes and
        // carry the codec's wire id.
        let el = rmat(64, 300, 4, RmatConfig::default());
        let (_t, dir, meta) = build_tmp(&el, 2);
        assert!(meta.checksums);
        for i in 0..2usize {
            let name = GraphMeta::out_edges_file(i);
            let footer = ShardFooter::read_from(&dir.path(&name), 2).unwrap();
            assert_eq!(footer.codec, meta.codec().unwrap().id());
            let bytes = std::fs::read(dir.path(&name)).unwrap();
            for j in 0..2usize {
                let b = meta.out_block(i, j);
                let start = b.encoded_offset as usize;
                let end = start + b.encoded_bytes as usize;
                assert_eq!(
                    footer.crcs[j],
                    hus_storage::crc32c(&bytes[start..end]),
                    "out-shard {i} block {j}"
                );
            }
            // Index files are never compressed.
            let idx = ShardFooter::read_from(&dir.path(&GraphMeta::out_index_file(i)), 2).unwrap();
            assert_eq!(idx.codec, hus_codec::CODEC_RAW);
        }
    }

    #[test]
    fn delta_varint_build_shrinks_shards() {
        let el = rmat(1 << 12, 40_000, 7, RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let meta = build(&el, &dir, &BuildConfig::with_p_codec(4, Codec::DeltaVarint)).unwrap();
        assert_eq!(meta.codec().unwrap(), Codec::DeltaVarint);
        meta.validate().unwrap();
        assert!(
            meta.encoded_edge_bytes() < meta.decoded_edge_bytes(),
            "delta-varint should shrink sorted shard payloads: {} vs {}",
            meta.encoded_edge_bytes(),
            meta.decoded_edge_bytes()
        );
        assert!(meta.compression_ratio() > 1.0);
        assert!(meta.disk_edge_bytes() < meta.edge_record_bytes() as f64);
        // Blocks remain decodable one by one against meta's spans.
        let bytes = std::fs::read(dir.path(&GraphMeta::out_edges_file(0))).unwrap();
        for j in 0..4usize {
            let b = meta.out_block(0, j);
            let enc =
                &bytes[b.encoded_offset as usize..(b.encoded_offset + b.encoded_bytes) as usize];
            let mut dec = vec![0u8; (b.edge_count * 4) as usize];
            Codec::DeltaVarint.decode(enc, 4, &mut dec).unwrap();
        }
    }

    #[test]
    fn block_assignment_respects_intervals() {
        // 4 vertices, P=2: intervals {0,1} and {2,3}.
        let el = EdgeList::from_pairs([(0, 0), (0, 2), (2, 1), (3, 3), (1, 3)]);
        let (_t, _d, meta) = build_tmp(&el, 2);
        assert_eq!(meta.out_block(0, 0).edge_count, 1); // 0->0
        assert_eq!(meta.out_block(0, 1).edge_count, 2); // 0->2, 1->3
        assert_eq!(meta.out_block(1, 0).edge_count, 1); // 2->1
        assert_eq!(meta.out_block(1, 1).edge_count, 1); // 3->3
                                                        // In-blocks mirror the same grid.
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(
                    meta.out_block(i, j).edge_count,
                    meta.in_block(i, j).edge_count,
                    "block ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn build_writes_a_manifest_and_leaves_no_staging_residue() {
        let el = rmat(100, 600, 1, RmatConfig::default());
        let (_t, dir, meta) = build_tmp(&el, 2);
        let manifest = BuildManifest::load_from(dir.root()).unwrap().expect("manifest written");
        assert_eq!(manifest.generation, 1);
        assert_eq!(manifest.files.len(), 4 * 2 + 1, "4 files per interval plus degrees");
        manifest.verify_files(dir.root()).unwrap();
        assert!(dir.staging_siblings().is_empty(), "no staging residue");
        // A rebuild over the existing dir swaps wholesale and bumps the
        // generation stamp.
        let meta2 = build(&el, &dir, &BuildConfig::with_p(2)).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(BuildManifest::load_from(dir.root()).unwrap().unwrap().generation, 2);
        assert!(dir.staging_siblings().is_empty());
    }

    #[test]
    fn auto_p_grows_with_graph_size() {
        let small = BuildConfig::default().resolve_p(1000, 10_000, 4);
        let large = BuildConfig::default().resolve_p(10_000_000, 2_000_000_000, 4);
        assert!(large > small, "small {small} large {large}");
        assert!(small >= 1);
        assert!(large <= 256);
    }

    #[test]
    fn p_never_exceeds_vertex_count() {
        assert_eq!(BuildConfig::with_p(100).resolve_p(5, 10, 4), 5);
    }

    #[test]
    fn rejects_invalid_edge_list() {
        let mut el = EdgeList::from_pairs([(0, 1)]);
        el.num_vertices = 1; // endpoint out of range
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        assert!(build(&el, &dir, &BuildConfig::with_p(1)).is_err());
    }

    #[test]
    fn empty_graph_builds() {
        let el = EdgeList::empty(10);
        let (_t, _d, meta) = build_tmp(&el, 2);
        assert_eq!(meta.num_edges, 0);
        meta.validate().unwrap();
    }

    #[test]
    fn degree_balanced_partition_builds() {
        let el = rmat(200, 2000, 5, RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let cfg = BuildConfig {
            p: Some(4),
            partition: PartitionStrategy::BalancedOutDegree,
            ..Default::default()
        };
        let meta = build(&el, &dir, &cfg).unwrap();
        meta.validate().unwrap();
        // Degree-balanced intervals should not be wildly uneven in edges.
        let row_edges: Vec<u64> =
            (0..4).map(|i| (0..4).map(|j| meta.out_block(i, j).edge_count).sum()).collect();
        let max = *row_edges.iter().max().unwrap();
        let min = *row_edges.iter().min().unwrap();
        assert!(max <= min.max(1) * 4, "rows {row_edges:?}");
    }
}
