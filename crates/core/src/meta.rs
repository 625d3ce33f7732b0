//! On-disk layout metadata for the dual-block representation.
//!
//! A built graph directory contains (for `P` intervals):
//!
//! | file | contents |
//! |---|---|
//! | `meta.json` | the [`GraphMeta`] manifest |
//! | `out_<i>.edges` | out-shard of interval `i`: out-blocks `(i,0)..(i,P-1)` concatenated; records sorted by source within each block |
//! | `out_<i>.index` | per-block sparse index over interval `i`'s sources: one u32 offset per source with edges in the block plus the terminal offset, then every block's occupancy bitmap |
//! | `in_<j>.edges` | in-shard of interval `j`: in-blocks `(0,j)..(P-1,j)` concatenated; records grouped by destination within each block |
//! | `in_<j>.index` | the same sparse index over interval `j`'s destinations |
//! | `degrees.bin` | out-degree of every vertex (u32), used by scatter contexts and the predictor |
//!
//! Edge records are compact: an out-block stores only each edge's
//! **destination** (the source is implied by the index), an in-block only
//! its **source** — 4 bytes unweighted, 8 with an f32 weight. This is the
//! "more space-efficient storage format" the paper credits for part of
//! its PageRank I/O advantage over edge-list systems (§4.4).
//!
//! When [`GraphMeta::checksums`] is set (the builder always sets it),
//! every `.edges` / `.index` file additionally ends with a per-block
//! CRC-32C footer ([`hus_storage::checksum`]). The byte-authoritative
//! spec of all of the above lives in `docs/FORMAT.md`.

use hus_storage::StorageError;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Manifest name inside a graph directory.
pub const META_FILE: &str = "meta.json";
/// Out-degree file name.
pub const DEGREES_FILE: &str = "degrees.bin";

/// The on-disk layout this build reads and writes, recorded as
/// `meta.json`'s `format`. Version 2 is the sparse block index
/// (`docs/FORMAT.md`); a directory without the field is version 1, the
/// dense `len + 1` offset arrays, and is refused at open with
/// [`StorageError::UnsupportedFormat`].
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of one offset entry in a shard `.index` file (little-endian
/// `u32`). ROP's cost comparisons are phrased in these units; changing
/// the on-disk offset width must update this constant (and the crossover
/// regression test in [`crate::rop`]) in the same commit.
pub const INDEX_ENTRY_BYTES: u64 = 4;
/// Bytes fetched when probing a single vertex's edge range: its two
/// delimiting offsets, read as one 8-byte random access
/// ([`crate::graph::HusGraph::load_out_index_entry`]). Only a vertex
/// with edges in the block is probed; the resident occupancy bitmap
/// answers for the others.
pub const INDEX_PROBE_BYTES: u64 = 2 * INDEX_ENTRY_BYTES;
/// Bytes of one occupancy bitmap word (little-endian `u64`, bit `k % 64`
/// of word `k / 64` set when local vertex `k` has edges in the block).
pub const BITMAP_WORD_BYTES: u64 = 8;

/// Which endpoint owns a shard — the one place that knows how the two
/// halves of the dual-block representation differ. An out-shard and an
/// in-shard are the same structure (`P` blocks, a sparse per-vertex
/// index per block, a CRC footer) with source and destination swapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Out-shard of a source interval: indexed by source, blocked by
    /// destination interval, records store the destination.
    Out,
    /// In-shard of a destination interval: indexed by destination,
    /// blocked by source interval, records store the source.
    In,
}

impl Orientation {
    /// Both orientations, in build order.
    pub const BOTH: [Orientation; 2] = [Orientation::Out, Orientation::In];

    /// File-name prefix (`out` / `in`).
    pub fn name(self) -> &'static str {
        match self {
            Orientation::Out => "out",
            Orientation::In => "in",
        }
    }

    /// Map a `(source side, destination side)` pair to this
    /// orientation's `(own, other)` pair — or back, the swap being its
    /// own inverse. Applies alike to an edge's endpoints (`own` indexes
    /// the shard, `other` is the stored neighbor) and to grid
    /// coordinates (`own` names the shard file, `other` the block's
    /// position inside it).
    pub fn orient<T>(self, src_side: T, dst_side: T) -> (T, T) {
        match self {
            Orientation::Out => (src_side, dst_side),
            Orientation::In => (dst_side, src_side),
        }
    }
}

/// Location of one edge block inside its shard files.
///
/// Blocks carry both address spaces: `edge_offset` is the block's
/// position in the *decoded* record stream (what readers address), and
/// `encoded_offset` / `encoded_bytes` locate the possibly-compressed
/// payload actually stored in the `.edges` file. Under the `raw` codec
/// the two spaces coincide (`encoded_offset == edge_offset`,
/// `encoded_bytes == edge_count * record_bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockMeta {
    /// Byte offset of the block's first edge record in the decoded
    /// record stream of its shard (equals the on-disk offset for the
    /// `raw` codec).
    pub edge_offset: u64,
    /// Number of edge records in the block.
    pub edge_count: u64,
    /// Byte offset of the block's offset array in the shard `.index`
    /// file (index files are never compressed).
    pub index_offset: u64,
    /// Vertices of the owning interval with at least one record in the
    /// block: the bits set in its occupancy bitmap, one less than the
    /// entries of its offset array.
    pub occupied: u64,
    /// Byte offset of the block's encoded payload in the `.edges` file.
    pub encoded_offset: u64,
    /// Encoded payload length in bytes (on-disk size of the block).
    pub encoded_bytes: u64,
}

impl BlockMeta {
    /// Decoded size of the block in bytes.
    pub fn decoded_bytes(&self, record_bytes: u64) -> u64 {
        self.edge_count * record_bytes
    }

    /// On-disk bytes of the block's offset array: one entry per occupied
    /// vertex plus the terminal one.
    pub fn offsets_bytes(&self) -> u64 {
        (self.occupied + 1) * INDEX_ENTRY_BYTES
    }
}

/// Manifest describing a built dual-block graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphMeta {
    /// On-disk layout version, [`FORMAT_VERSION`].
    pub format: u32,
    /// Number of vertices.
    pub num_vertices: u32,
    /// Number of directed edges.
    pub num_edges: u64,
    /// Number of vertex intervals (the paper's `P`).
    pub p: u32,
    /// Whether edge records carry an f32 weight.
    pub weighted: bool,
    /// Whether every shard and index file carries a per-block CRC-32C
    /// checksum footer (see `docs/FORMAT.md`). Written by the builder;
    /// read-side verification is gated separately by
    /// `RunConfig::verify_checksums` / `HUS_VERIFY`.
    pub checksums: bool,
    /// Name of the per-block edge codec the `.edges` payloads are
    /// encoded with (`raw` or `delta-varint`; see the `hus-codec`
    /// crate). Also recorded as a wire id in every shard footer, which
    /// readers cross-check at open.
    pub codec: String,
    /// Interval boundaries, `p + 1` entries; interval `i` is
    /// `interval_starts[i]..interval_starts[i+1]`.
    pub interval_starts: Vec<u32>,
    /// Out-block descriptors, row-major: entry `i * p + j` is out-block
    /// `(i, j)` (sources in interval `i`, destinations in interval `j`),
    /// stored in `out_<i>`.
    pub out_blocks: Vec<BlockMeta>,
    /// In-block descriptors, entry `i * p + j` is in-block `(i, j)`
    /// (sources in interval `i`, destinations in interval `j`), stored in
    /// `in_<j>`.
    pub in_blocks: Vec<BlockMeta>,
}

impl GraphMeta {
    /// The manifest a builder starts from: shape and format fixed, every
    /// block descriptor still empty (the shard writer fills them in).
    pub(crate) fn unbuilt(
        num_vertices: u32,
        num_edges: u64,
        interval_starts: Vec<u32>,
        weighted: bool,
        codec: hus_codec::Codec,
    ) -> Self {
        let p = interval_starts.len() - 1;
        GraphMeta {
            format: FORMAT_VERSION,
            num_vertices,
            num_edges,
            p: p as u32,
            weighted,
            checksums: true,
            codec: codec.name().to_string(),
            interval_starts,
            out_blocks: vec![BlockMeta::default(); p * p],
            in_blocks: vec![BlockMeta::default(); p * p],
        }
    }

    /// Parse the text of `meta.json` in the graph directory at `root`.
    /// A directory in another on-disk layout — one without a `format`
    /// field predates it — is refused with
    /// [`StorageError::UnsupportedFormat`] before its fields are read.
    pub fn parse(text: &str, root: &Path) -> hus_storage::Result<GraphMeta> {
        let bad = |e: serde_json::Error| StorageError::Corrupt(format!("bad meta.json: {e}"));
        let value = serde_json::parse_value_str(text).map_err(bad)?;
        let found = match value.get("format") {
            None => 1,
            Some(v) => u32::from_value(v).map_err(|e| bad(e.into()))?,
        };
        if found != FORMAT_VERSION {
            return Err(StorageError::UnsupportedFormat {
                path: root.to_path_buf(),
                found,
                expected: FORMAT_VERSION,
            });
        }
        GraphMeta::from_value(&value).map_err(|e| bad(e.into()))
    }

    /// Size in bytes of one *decoded* edge record.
    pub fn edge_record_bytes(&self) -> u64 {
        if self.weighted {
            8
        } else {
            4
        }
    }

    /// Resolve the manifest's codec name to a [`hus_codec::Codec`].
    pub fn codec(&self) -> Result<hus_codec::Codec, String> {
        hus_codec::Codec::from_name(&self.codec)
            .ok_or_else(|| format!("meta.json names unknown codec {:?}", self.codec))
    }

    /// Total encoded (on-disk) bytes of all out-shard plus in-shard edge
    /// payloads, excluding index files and checksum footers.
    pub fn encoded_edge_bytes(&self) -> u64 {
        self.out_blocks.iter().chain(&self.in_blocks).map(|b| b.encoded_bytes).sum()
    }

    /// Total decoded bytes of the same payloads
    /// (`2 * num_edges * record_bytes`).
    pub fn decoded_edge_bytes(&self) -> u64 {
        2 * self.num_edges * self.edge_record_bytes()
    }

    /// Mean bytes-on-disk per stored edge record — the paper's `M`
    /// reinterpreted for compressed shards, consumed by the ROP/COP
    /// cost predictor. Each edge is stored twice (one out-block, one
    /// in-block record), so the denominator is `2 * num_edges`. Falls
    /// back to the decoded record width for empty graphs.
    pub fn disk_edge_bytes(&self) -> f64 {
        if self.num_edges == 0 {
            return self.edge_record_bytes() as f64;
        }
        self.encoded_edge_bytes() as f64 / (2.0 * self.num_edges as f64)
    }

    /// Decoded-to-encoded size ratio of the edge payloads (1.0 for the
    /// raw codec or an empty graph; > 1.0 means the codec saved bytes).
    pub fn compression_ratio(&self) -> f64 {
        let encoded = self.encoded_edge_bytes();
        if encoded == 0 {
            return 1.0;
        }
        self.decoded_edge_bytes() as f64 / encoded as f64
    }

    /// Vertices in interval `i`.
    pub fn interval_len(&self, i: usize) -> u32 {
        self.interval_starts[i + 1] - self.interval_starts[i]
    }

    /// First vertex of interval `i`.
    pub fn interval_start(&self, i: usize) -> u32 {
        self.interval_starts[i]
    }

    /// One orientation's descriptors, row-major over the `(i, j)` grid.
    pub fn blocks(&self, o: Orientation) -> &[BlockMeta] {
        match o {
            Orientation::Out => &self.out_blocks,
            Orientation::In => &self.in_blocks,
        }
    }

    pub(crate) fn block_mut(&mut self, o: Orientation, i: usize, j: usize) -> &mut BlockMeta {
        let at = i * self.p as usize + j;
        match o {
            Orientation::Out => &mut self.out_blocks[at],
            Orientation::In => &mut self.in_blocks[at],
        }
    }

    /// The `o`-block `(i, j)` descriptor (sources in interval `i`,
    /// destinations in interval `j`, whichever shard stores it).
    pub fn block(&self, o: Orientation, i: usize, j: usize) -> &BlockMeta {
        &self.blocks(o)[i * self.p as usize + j]
    }

    /// The `P` blocks of `o`-shard `own`, in file order.
    pub fn shard_blocks(&self, o: Orientation, own: usize) -> impl Iterator<Item = &BlockMeta> {
        (0..self.p as usize).map(move |other| {
            let (i, j) = o.orient(own, other);
            self.block(o, i, j)
        })
    }

    /// Words of one occupancy bitmap over interval `own`.
    pub fn bitmap_words(&self, own: usize) -> u64 {
        (self.interval_len(own) as u64).div_ceil(64)
    }

    /// Byte offset of the occupancy bitmaps in interval `own`'s
    /// `o`-shard `.index` file: they follow every block's offset array.
    pub fn bitmaps_offset(&self, o: Orientation, own: usize) -> u64 {
        self.shard_blocks(o, own).map(BlockMeta::offsets_bytes).sum()
    }

    /// Byte offset of the occupancy bitmap of the block at position
    /// `other` of interval `own`'s `o`-shard, in its `.index` file.
    pub fn bitmap_offset(&self, o: Orientation, own: usize, other: usize) -> u64 {
        self.bitmaps_offset(o, own) + other as u64 * self.bitmap_words(own) * BITMAP_WORD_BYTES
    }

    /// Payload bytes of interval `own`'s `o`-shard `.index` file (its
    /// offset arrays and bitmaps, without the footer).
    pub fn index_file_bytes(&self, o: Orientation, own: usize) -> u64 {
        self.bitmap_offset(o, own, self.p as usize)
    }

    /// Occupancy bitmap bytes of every block of both orientations: what
    /// [`crate::HusGraph::open`] reads and keeps resident (its rank
    /// directory adds one `u32` per 512 bits).
    pub fn bitmap_bytes(&self) -> u64 {
        let p = self.p as u64;
        2 * p * (0..self.p as usize).map(|k| self.bitmap_words(k)).sum::<u64>() * BITMAP_WORD_BYTES
    }

    /// Offset-array bytes of every block of both orientations.
    pub fn offsets_bytes(&self) -> u64 {
        self.out_blocks.iter().chain(&self.in_blocks).map(BlockMeta::offsets_bytes).sum()
    }

    /// Name of interval `k`'s `o`-shard edge file.
    pub fn edges_file(o: Orientation, k: usize) -> String {
        format!("{}_{k}.edges", o.name())
    }

    /// Name of interval `k`'s `o`-shard index file.
    pub fn index_file(o: Orientation, k: usize) -> String {
        format!("{}_{k}.index", o.name())
    }

    /// The out-block `(i, j)` descriptor.
    pub fn out_block(&self, i: usize, j: usize) -> &BlockMeta {
        self.block(Orientation::Out, i, j)
    }

    /// The in-block `(i, j)` descriptor.
    pub fn in_block(&self, i: usize, j: usize) -> &BlockMeta {
        self.block(Orientation::In, i, j)
    }

    /// Name of interval `i`'s out-shard edge file.
    pub fn out_edges_file(i: usize) -> String {
        Self::edges_file(Orientation::Out, i)
    }

    /// Name of interval `i`'s out-shard index file.
    pub fn out_index_file(i: usize) -> String {
        Self::index_file(Orientation::Out, i)
    }

    /// Name of interval `j`'s in-shard edge file.
    pub fn in_edges_file(j: usize) -> String {
        Self::edges_file(Orientation::In, j)
    }

    /// Name of interval `j`'s in-shard index file.
    pub fn in_index_file(j: usize) -> String {
        Self::index_file(Orientation::In, j)
    }

    /// Every data file of a graph with `p` intervals, in deterministic
    /// build order, each paired with whether it carries a per-block
    /// checksum footer (all shard and index files do; the degree table
    /// does not). This is the file set the build `MANIFEST` records
    /// and open-time validation / `hus fsck` walk.
    pub fn data_files(p: u32) -> Vec<(String, bool)> {
        let mut out = Vec::with_capacity(4 * p as usize + 1);
        for o in Orientation::BOTH {
            for k in 0..p as usize {
                out.push((Self::edges_file(o, k), true));
                out.push((Self::index_file(o, k), true));
            }
        }
        out.push((DEGREES_FILE.to_string(), false));
        out
    }

    /// Validate internal consistency (boundaries monotone, block counts
    /// match `p`², edge totals add up).
    pub fn validate(&self) -> Result<(), String> {
        let p = self.p as usize;
        if self.interval_starts.len() != p + 1 {
            return Err(format!(
                "expected {} interval boundaries, found {}",
                p + 1,
                self.interval_starts.len()
            ));
        }
        if self.interval_starts[0] != 0 || self.interval_starts[p] != self.num_vertices {
            return Err("interval boundaries must span [0, num_vertices]".into());
        }
        if !self.interval_starts.windows(2).all(|w| w[0] <= w[1]) {
            return Err("interval boundaries must be monotone".into());
        }
        if self.out_blocks.len() != p * p || self.in_blocks.len() != p * p {
            return Err(format!(
                "expected {} blocks per direction, found {} out / {} in",
                p * p,
                self.out_blocks.len(),
                self.in_blocks.len()
            ));
        }
        let out_total: u64 = self.out_blocks.iter().map(|b| b.edge_count).sum();
        let in_total: u64 = self.in_blocks.iter().map(|b| b.edge_count).sum();
        if out_total != self.num_edges || in_total != self.num_edges {
            return Err(format!(
                "edge totals disagree: meta {} vs out {} vs in {}",
                self.num_edges, out_total, in_total
            ));
        }
        for o in Orientation::BOTH {
            // Index entries are `u32` (docs/FORMAT.md).
            if let Some(k) = self.blocks(o).iter().position(|b| b.edge_count > u32::MAX as u64) {
                return Err(format!(
                    "{}-block {k} holds {} records, more than its u32 index can address",
                    o.name(),
                    self.blocks(o)[k].edge_count
                ));
            }
        }
        for o in Orientation::BOTH {
            for own in 0..p {
                let len = self.interval_len(own) as u64;
                let mut at = 0;
                for (other, b) in self.shard_blocks(o, own).enumerate() {
                    let (i, j) = o.orient(own, other);
                    let name = format!("{}-block ({i}, {j})", o.name());
                    if b.occupied > len.min(b.edge_count)
                        || (b.occupied == 0) != (b.edge_count == 0)
                    {
                        return Err(format!(
                            "{name}: {} occupied vertices for {} records over {len} vertices",
                            b.occupied, b.edge_count
                        ));
                    }
                    if b.index_offset != at {
                        return Err(format!(
                            "{name}: index offset {} where its offsets begin at {at}",
                            b.index_offset
                        ));
                    }
                    at += b.offsets_bytes();
                }
            }
        }
        for i in 0..p {
            for j in 0..p {
                if self.out_block(i, j).edge_count != self.in_block(i, j).edge_count {
                    return Err(format!("block ({i},{j}) edge counts differ between directions"));
                }
            }
        }
        let codec = self.codec()?;
        if codec.is_raw() {
            let m = self.edge_record_bytes();
            for o in Orientation::BOTH {
                for (k, b) in self.blocks(o).iter().enumerate() {
                    if b.encoded_offset != b.edge_offset || b.encoded_bytes != b.edge_count * m {
                        return Err(format!(
                            "raw codec requires encoded == decoded layout, violated by \
                             {}-block {k}",
                            o.name()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A raw-layout block descriptor: encoded space == decoded space.
    fn raw_block(edge_offset: u64, edge_count: u64, index_offset: u64, occupied: u64) -> BlockMeta {
        BlockMeta {
            edge_offset,
            edge_count,
            index_offset,
            occupied,
            encoded_offset: edge_offset,
            encoded_bytes: edge_count * 4,
        }
    }

    fn sample() -> GraphMeta {
        GraphMeta {
            format: FORMAT_VERSION,
            num_vertices: 10,
            num_edges: 4,
            p: 2,
            weighted: false,
            checksums: false,
            codec: "raw".into(),
            interval_starts: vec![0, 5, 10],
            out_blocks: vec![
                raw_block(0, 1, 0, 1),
                raw_block(4, 1, 8, 1),
                raw_block(0, 2, 0, 2),
                raw_block(8, 0, 12, 0),
            ],
            in_blocks: vec![
                raw_block(0, 1, 0, 1),
                raw_block(0, 1, 0, 1),
                raw_block(4, 2, 8, 1),
                raw_block(4, 0, 8, 0),
            ],
        }
    }

    #[test]
    fn validate_accepts_consistent_meta() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_boundaries() {
        let mut m = sample();
        m.interval_starts = vec![0, 7, 3];
        assert!(m.validate().is_err());
        let mut m = sample();
        m.interval_starts = vec![0, 5, 9];
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_edge_count_mismatch() {
        let mut m = sample();
        m.num_edges = 5;
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_direction_disagreement() {
        let mut m = sample();
        m.out_blocks[0].edge_count = 0;
        m.out_blocks[1].edge_count = 2;
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_blocks_beyond_u32_index_entries() {
        // A block of u32::MAX records is addressable; one more would wrap
        // its u32 offsets.
        let mut m = sample();
        let fits = u32::MAX as u64;
        m.num_edges = fits;
        for blocks in [&mut m.out_blocks, &mut m.in_blocks] {
            blocks.fill(raw_block(0, 0, 4, 0));
            blocks[0] = raw_block(0, fits, 0, 0);
        }
        // Block 0 leads its shard; with no occupied vertex its offsets
        // take 4 bytes, so its shard successor's index starts there.
        m.out_blocks[2].index_offset = 0;
        m.in_blocks[1].index_offset = 0;
        m.out_blocks[0].occupied = 1;
        m.in_blocks[0].occupied = 1;
        m.out_blocks[1].index_offset = 8;
        m.in_blocks[2].index_offset = 8;
        m.validate().unwrap();
        m.num_edges += 1;
        for blocks in [&mut m.out_blocks, &mut m.in_blocks] {
            blocks[0] = raw_block(0, fits + 1, 0, 1);
        }
        let err = m.validate().unwrap_err();
        assert!(err.contains("out-block 0") && err.contains("u32 index"), "{err}");
    }

    #[test]
    fn validate_checks_the_sparse_index_layout() {
        // More occupied vertices than the interval holds.
        let mut m = sample();
        m.out_blocks[2].occupied = 6;
        assert!(m.validate().unwrap_err().contains("occupied"));
        // A non-empty block with no occupied vertex.
        let mut m = sample();
        m.in_blocks[0].occupied = 0;
        assert!(m.validate().unwrap_err().contains("occupied"));
        // An offset array that does not start where its predecessor's ends.
        let mut m = sample();
        m.out_blocks[1].index_offset = 12;
        assert!(m.validate().unwrap_err().contains("index offset"));
    }

    #[test]
    fn sparse_index_file_layout() {
        let m = sample();
        // Out-shard 1: offsets of 2 + 1 and 0 + 1 entries, then two
        // one-word bitmaps (5 vertices each).
        assert_eq!(m.bitmap_words(1), 1);
        assert_eq!(m.bitmaps_offset(Orientation::Out, 1), 16);
        assert_eq!(m.bitmap_offset(Orientation::Out, 1, 1), 24);
        assert_eq!(m.index_file_bytes(Orientation::Out, 1), 32);
        assert_eq!(m.bitmap_bytes(), 2 * 2 * 2 * 8);
        assert_eq!(m.offsets_bytes(), 4 * (2 + 2 + 3 + 1 + 2 + 2 + 2 + 1));
    }

    #[test]
    fn parse_refuses_other_formats_with_a_typed_error() {
        let root = Path::new("/g");
        let text = serde_json::to_string(&sample()).unwrap();
        assert_eq!(GraphMeta::parse(&text, root).unwrap(), sample());
        // A dense-index directory has no `format` field at all.
        let dense = text.replacen(&format!("\"format\":{FORMAT_VERSION},"), "", 1);
        assert_ne!(dense, text);
        let later = text.replacen(&format!("\"format\":{FORMAT_VERSION}"), "\"format\":9", 1);
        for (text, found) in [(dense, 1), (later, 9)] {
            match GraphMeta::parse(&text, root) {
                Err(StorageError::UnsupportedFormat { found: f, expected, path }) => {
                    assert_eq!((f, expected, path.as_path()), (found, FORMAT_VERSION, root));
                }
                other => panic!("format {found}: {other:?}"),
            }
        }
        assert!(matches!(GraphMeta::parse("{", root), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn record_size_reflects_weights() {
        let mut m = sample();
        assert_eq!(m.edge_record_bytes(), 4);
        m.weighted = true;
        assert_eq!(m.edge_record_bytes(), 8);
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.interval_len(0), 5);
        assert_eq!(m.interval_start(1), 5);
        assert_eq!(m.out_block(1, 0).edge_count, 2);
        assert_eq!(m.in_block(0, 1).edge_count, 1);
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let s = serde_json::to_string(&m).unwrap();
        let back: GraphMeta = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn validate_rejects_unknown_codec_and_fake_raw_layout() {
        let mut m = sample();
        m.codec = "lz77".into();
        assert!(m.validate().unwrap_err().contains("unknown codec"));
        // Raw codec with an encoded layout that disagrees with the
        // decoded one is inconsistent.
        let mut m = sample();
        m.out_blocks[0].encoded_bytes = 3;
        assert!(m.validate().unwrap_err().contains("raw codec"));
    }

    #[test]
    fn disk_edge_bytes_reflects_encoded_payload() {
        let mut m = sample();
        assert_eq!(m.codec().unwrap(), hus_codec::Codec::Raw);
        // Raw: on-disk bytes per edge == record width exactly.
        assert_eq!(m.disk_edge_bytes(), 4.0);
        assert_eq!(m.compression_ratio(), 1.0);
        // Compressed: halve every encoded payload.
        m.codec = "delta-varint".into();
        for b in m.out_blocks.iter_mut().chain(&mut m.in_blocks) {
            b.encoded_bytes = b.edge_count * 2;
        }
        m.validate().unwrap();
        assert_eq!(m.disk_edge_bytes(), 2.0);
        assert_eq!(m.compression_ratio(), 2.0);
        // Empty graphs fall back to the record width.
        let empty = GraphMeta {
            num_edges: 0,
            out_blocks: vec![Default::default(); 4],
            in_blocks: vec![Default::default(); 4],
            ..sample()
        };
        assert_eq!(empty.disk_edge_bytes(), 4.0);
        assert_eq!(empty.compression_ratio(), 1.0);
    }
}
