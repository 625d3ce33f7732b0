//! Runtime handle to a built dual-block graph.

use crate::builder::{build, BuildConfig};
use crate::delta::{DeltaOverlay, MergedBlock};
use crate::index::{BlockIndex, Occupancy};
use crate::meta::{
    BlockMeta, GraphMeta, Orientation, BITMAP_WORD_BYTES, DEGREES_FILE, INDEX_ENTRY_BYTES,
    INDEX_PROBE_BYTES, META_FILE,
};
use crate::rop::DEFAULT_MERGE_SLACK;
use hus_codec::Codec;
use hus_gen::EdgeList;
use hus_storage::checksum::ShardFooter;
use hus_storage::{
    Access, BuildManifest, RangeRead, ReadBackend, Result, StorageDir, StorageError, MANIFEST_FILE,
};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `file`, which every builder writes, is absent from the built
/// directory at `root`: an incomplete build naming it (DESIGN.md §10).
fn missing(root: &Path, file: &str) -> StorageError {
    StorageError::IncompleteBuild {
        path: root.to_path_buf(),
        detail: format!("{file} is missing — interrupted or partially deleted build"),
    }
}

/// Load the `MANIFEST` of a built graph directory. It is the last file
/// a build stages, so a directory without one never finished building.
pub(crate) fn load_manifest(root: &Path) -> Result<BuildManifest> {
    BuildManifest::load_from(root)?.ok_or_else(|| missing(root, MANIFEST_FILE))
}

/// One opened shard: its two files, its blocks' resident occupancy
/// bitmaps, on a checksummed graph (`GraphMeta::checksums`) the
/// per-block CRC-32C rows of their footers, and on a compressed graph
/// the decoded-block cache of its `.edges` file — each indexed by the
/// block's position within the shard.
struct Shard {
    edges: Arc<dyn ReadBackend>,
    index: Arc<dyn ReadBackend>,
    occupancy: Vec<Occupancy>,
    edge_crcs: Option<Vec<u32>>,
    index_crcs: Option<Vec<u32>>,
    /// `None` under the raw codec.
    decoded: Option<DecodedCache>,
}

/// Decoded-block cache budget per `.edges` file.
const DECODED_CACHE_BYTES: usize = 16 << 20;

/// Lock shards of a [`DecodedCache`] (a power of two; a block picks one
/// by the low bits of its position within the shard file).
const DECODED_CACHE_SHARDS: usize = 8;

/// Encoded bytes fetched from the device for compressed blocks.
static ENCODED_BYTES: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("storage.codec.encoded_bytes_read");
/// Decoded bytes produced from compressed blocks.
static DECODED_BYTES: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("storage.codec.decoded_bytes");
/// Nanoseconds spent decoding one block.
static DECODE_NS: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("storage.codec.decode_ns");
/// Compressed-block reads served from the decoded-block cache.
static CACHE_HITS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("storage.codec.cache_hits");
/// Compressed-block reads that fetched, decoded and cached their block.
static CACHE_MISSES: hus_obs::LazyCounter = hus_obs::LazyCounter::new("storage.codec.cache_misses");

thread_local! {
    /// Reusable scratch buffer for a block's encoded bytes.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// LRU of one compressed `.edges` file's decoded blocks, keyed by the
/// block's position within the shard. Partial reads park their whole
/// decoded block here, so later reads of it bill no I/O and no decode;
/// COP's whole-block streams bypass it (DESIGN.md §9.2).
#[derive(Default)]
struct DecodedCache(Box<[Mutex<DecodedShard>; DECODED_CACHE_SHARDS]>);

#[derive(Default)]
struct DecodedShard {
    /// Block position → (decoded bytes, LRU stamp).
    blocks: HashMap<usize, (Arc<Vec<u8>>, u64)>,
    bytes: usize,
    clock: u64,
}

impl DecodedCache {
    /// A lock shard's budget: a block decoding to more is never cached.
    const SHARD_BUDGET: usize = DECODED_CACHE_BYTES / DECODED_CACHE_SHARDS;

    fn shard(&self, pos: usize) -> &Mutex<DecodedShard> {
        &self.0[pos & (DECODED_CACHE_SHARDS - 1)]
    }

    /// The cached block at `pos`, refreshing its LRU stamp.
    fn get(&self, pos: usize) -> Option<Arc<Vec<u8>>> {
        let mut shard = self.shard(pos).lock();
        let stamp = shard.clock;
        shard.clock += 1;
        shard.blocks.get_mut(&pos).map(|(data, s)| {
            *s = stamp;
            Arc::clone(data)
        })
    }

    /// Whether the block at `pos` is cached — a peek that leaves its
    /// LRU stamp alone.
    fn contains(&self, pos: usize) -> bool {
        self.shard(pos).lock().blocks.contains_key(&pos)
    }

    /// Park the block at `pos`, evicting least recently used blocks of
    /// its lock shard to fit.
    fn insert(&self, pos: usize, data: Arc<Vec<u8>>) {
        if data.len() > Self::SHARD_BUDGET {
            return;
        }
        let mut shard = self.shard(pos).lock();
        while shard.bytes + data.len() > Self::SHARD_BUDGET {
            let Some(victim) = shard.blocks.iter().min_by_key(|(_, e)| e.1).map(|(&k, _)| k) else {
                break;
            };
            if let Some((evicted, _)) = shard.blocks.remove(&victim) {
                shard.bytes -= evicted.len();
            }
        }
        let stamp = shard.clock;
        shard.clock += 1;
        shard.bytes += data.len();
        shard.blocks.insert(pos, (data, stamp));
    }
}

/// Read the occupancy bitmaps of interval `own`'s `o`-shard, which
/// follow its blocks' offset arrays in the `.index` file, and build
/// their rank directories. Like the degree table they are loaded once
/// at open and read untracked; a bitmap whose padding bits are set, or
/// whose population disagrees with the block's `occupied` count, makes
/// the directory corrupt.
fn load_occupancy(
    dir: &StorageDir,
    meta: &GraphMeta,
    o: Orientation,
    own: usize,
) -> Result<Vec<Occupancy>> {
    use std::io::{Read, Seek, SeekFrom};
    let name = GraphMeta::index_file(o, own);
    let path = dir.path(&name);
    let words = meta.bitmap_words(own) as usize;
    let mut bytes = vec![0u8; meta.p as usize * words * BITMAP_WORD_BYTES as usize];
    let mut file = std::fs::File::open(&path).map_err(|e| StorageError::io_at(&path, e))?;
    file.seek(SeekFrom::Start(meta.bitmaps_offset(o, own)))
        .and_then(|_| file.read_exact(&mut bytes))
        .map_err(|e| StorageError::io_at(&path, e))?;
    let bits = hus_storage::pod::to_vec::<u64>(&bytes)?;
    let len = meta.interval_len(own) as usize;
    meta.shard_blocks(o, own)
        .enumerate()
        .map(|(other, block)| {
            let (i, j) = o.orient(own, other);
            let bitmap = bits[other * words..(other + 1) * words].to_vec();
            let occupancy = Occupancy::new(bitmap, len)
                .and_then(|occ| match occ.count() as u64 == block.occupied {
                    true => Ok(occ),
                    false => Err(format!(
                        "{} occupied vertices where meta.json says {}",
                        occ.count(),
                        block.occupied
                    )),
                })
                .map_err(|e| {
                    StorageError::Corrupt(format!("{name}: bitmap of block ({i}, {j}): {e}"))
                })?;
            Ok(occupancy)
        })
        .collect()
}

/// Where reads of one block are served from.
enum Source<'a> {
    /// The block was touched by buffered updates: its merged in-memory
    /// form, read without device I/O.
    Overlay(&'a MergedBlock),
    /// The base shard and the block's descriptor in it.
    Base(&'a Shard, &'a BlockMeta),
}

/// An opened dual-block graph: manifest, shard readers, and the
/// out-degree table.
pub struct HusGraph {
    dir: StorageDir,
    meta: GraphMeta,
    codec: Codec,
    out_degrees: Vec<u32>,
    /// `shards[o as usize][k]` is interval `k`'s `o`-shard.
    shards: [Vec<Shard>; 2],
    verify: AtomicBool,
    /// Dynamic-graph read overlay (DESIGN.md §11): merged blocks for
    /// every block touched by buffered edge updates, served from memory
    /// while untouched blocks keep reading the base shards. Attached and
    /// detached by the [`crate::delta::DynamicGraph`] that owns this
    /// handle, which builds it once; it is dropped with the handle.
    /// `None` on a plain opened graph.
    pub(crate) overlay: Option<DeltaOverlay>,
}

impl HusGraph {
    /// Build `el` into `dir` and open the result.
    pub fn build_into(el: &EdgeList, dir: &StorageDir, config: &BuildConfig) -> Result<Self> {
        build(el, dir, config)?;
        Self::open(dir.clone())
    }

    /// Open a previously built graph directory.
    ///
    /// Opening validates the directory against its generation-stamped
    /// `MANIFEST` (every data file present with its recorded length);
    /// a directory left behind by an interrupted build or partial
    /// deletion is rejected with a typed
    /// [`StorageError::IncompleteBuild`] /
    /// [`StorageError::ManifestMismatch`] naming the offending file —
    /// the `MANIFEST` itself included (DESIGN.md §10).
    pub fn open(dir: StorageDir) -> Result<Self> {
        load_manifest(dir.root())?.verify_files(dir.root())?;
        let meta_text = match dir.get_meta(META_FILE) {
            Err(_) if !dir.exists(META_FILE) => return Err(missing(dir.root(), META_FILE)),
            other => other?,
        };
        let meta = GraphMeta::parse(&meta_text, dir.root())?;
        meta.validate().map_err(StorageError::Corrupt)?;
        let p = meta.p as usize;
        // Degrees are loaded once at open; like the manifest this is
        // setup, so it is read untracked via std I/O.
        let deg_bytes = std::fs::read(dir.path(DEGREES_FILE))
            .map_err(|e| StorageError::io_at(dir.path(DEGREES_FILE), e))?;
        let out_degrees = hus_storage::pod::to_vec::<u32>(&deg_bytes)?;
        if out_degrees.len() != meta.num_vertices as usize {
            return Err(StorageError::Corrupt(format!(
                "degree table has {} entries for {} vertices",
                out_degrees.len(),
                meta.num_vertices
            )));
        }
        let codec = meta.codec().map_err(StorageError::Corrupt)?;
        let verify = AtomicBool::new(hus_obs::env::flag("HUS_VERIFY", false));
        // Footers are integrity metadata, loaded untracked at open like
        // the manifest. A graph that claims
        // checksums but lacks a valid footer on any shard file — or
        // whose footer names a different codec than the manifest — is
        // rejected as corrupt.
        let footer_crcs = |name: &str, expect: u16| -> Result<Option<Vec<u32>>> {
            if !meta.checksums {
                return Ok(None);
            }
            let f = ShardFooter::read_from(&dir.path(name), p)?;
            if f.codec != expect {
                return Err(StorageError::Corrupt(format!(
                    "{name}: footer codec id {} disagrees with meta.json codec {:?} (id {expect})",
                    f.codec, meta.codec
                )));
            }
            Ok(Some(f.crcs))
        };
        let open_shard = |o: Orientation, own: usize| -> Result<Shard> {
            let (edges_name, index_name) =
                (GraphMeta::edges_file(o, own), GraphMeta::index_file(o, own));
            let edge_crcs = footer_crcs(&edges_name, codec.id())?;
            // Index files are never compressed.
            let index_crcs = footer_crcs(&index_name, hus_codec::CODEC_RAW)?;
            Ok(Shard {
                edges: dir.reader(&edges_name)?,
                index: dir.reader(&index_name)?,
                occupancy: load_occupancy(&dir, &meta, o, own)?,
                edge_crcs,
                index_crcs,
                decoded: (!codec.is_raw()).then(DecodedCache::default),
            })
        };
        let mut shards = [Vec::with_capacity(p), Vec::with_capacity(p)];
        for o in Orientation::BOTH {
            for own in 0..p {
                shards[o as usize].push(open_shard(o, own)?);
            }
        }
        Ok(HusGraph { dir, meta, codec, out_degrees, shards, verify, overlay: None })
    }

    /// Which vertices of the owning interval have records in `o`-block
    /// `(i, j)`, reflecting any overlay; resident, so asking costs no
    /// I/O.
    pub(crate) fn occupied(&self, o: Orientation, i: usize, j: usize) -> &Occupancy {
        match self.source(o, i, j) {
            Source::Overlay(m) => &m.occupancy,
            Source::Base(shard, _) => &shard.occupancy[o.orient(i, j).1],
        }
    }

    /// Keep the local vertices of `locals` (of interval `i`) that have
    /// edges in out-block `(i, j)`, reflecting any overlay. Answered from
    /// memory: only such a vertex is worth an index probe.
    pub fn retain_out_occupied(&self, i: usize, j: usize, locals: &mut Vec<usize>) {
        let occupied = self.occupied(Orientation::Out, i, j);
        locals.retain(|&local| occupied.contains(local));
    }

    /// Vertices with records in `o`-block `(i, j)`, reflecting any
    /// overlay: the entries of its offset array but the terminal one.
    pub fn index_entries(&self, o: Orientation, i: usize, j: usize) -> u64 {
        self.occupied(o, i, j).count() as u64
    }

    /// Bytes the block index holds in memory: every base bitmap with its
    /// rank directory and, with an overlay attached, each overlay
    /// block's occupancy and offsets.
    pub fn resident_index_bytes(&self) -> u64 {
        let base = self.shards.iter().flatten().flat_map(|s| &s.occupancy);
        let overlay = self.overlay.iter().flat_map(|ov| ov.blocks.iter().flat_map(|b| b.values()));
        let overlay = overlay.map(|m| m.occupancy.resident_bytes() + 4 * m.offsets.len() as u64);
        base.map(Occupancy::resident_bytes).sum::<u64>() + overlay.sum::<u64>()
    }

    /// Resolve `o`-block `(i, j)` to what serves its reads — the one
    /// place the block loaders consult the overlay.
    fn source(&self, o: Orientation, i: usize, j: usize) -> Source<'_> {
        if let Some(m) = self.overlay.as_ref().and_then(|ov| ov.blocks[o as usize].get(&(i, j))) {
            return Source::Overlay(m);
        }
        Source::Base(&self.shards[o as usize][o.orient(i, j).0], self.meta.block(o, i, j))
    }

    /// Enable or disable read-side checksum verification at runtime
    /// (initially set from the `HUS_VERIFY` environment variable; the
    /// engine re-applies `RunConfig::verify_checksums` before each run).
    /// Verification requires the graph to carry checksum footers
    /// ([`GraphMeta::checksums`]); enabling it on an unchecksummed graph
    /// is a no-op.
    pub fn set_verify(&self, on: bool) {
        self.verify.store(on, Ordering::Relaxed);
    }

    /// Whether full-block reads are currently verified against the shard
    /// checksum footers.
    pub fn verify_enabled(&self) -> bool {
        self.verify.load(Ordering::Relaxed) && self.meta.checksums
    }

    /// With verification on, check freshly read bytes of `o`-block
    /// `(i, j)` — its whole edge payload (`edges`; encoded on a
    /// compressed graph) or its whole index, the resident bitmap
    /// followed by the offsets just read — against the CRC stored in its
    /// shard's footer. Under the raw codec, CRCs cover whole blocks, so
    /// strictly partial record reads pass through unchecked — see
    /// DESIGN.md §9.
    fn verify_block(
        &self,
        o: Orientation,
        (i, j): (usize, usize),
        edges: bool,
        parts: &[&[u8]],
        offset: u64,
    ) -> Result<()> {
        if !self.verify_enabled() {
            return Ok(());
        }
        let (own, other) = o.orient(i, j);
        let shard = &self.shards[o as usize][own];
        let crcs = if edges { &shard.edge_crcs } else { &shard.index_crcs };
        let Some(stored) = crcs.as_ref().map(|row| row[other]) else { return Ok(()) };
        let mut crc = hus_storage::checksum::Crc32c::new();
        parts.iter().for_each(|part| crc.update(part));
        let actual = crc.finish();
        if actual == stored {
            return Ok(());
        }
        self.dir.resilience().record_checksum_failure();
        hus_obs::attr::record_at(i as u32, j as u32, hus_obs::BlockStat::Retries, 1);
        let file =
            if edges { GraphMeta::edges_file(o, own) } else { GraphMeta::index_file(o, own) };
        Err(StorageError::ChecksumMismatch {
            path: self.dir.path(&file),
            block: (i as u32, j as u32),
            offset,
            expected: stored,
            actual,
        })
    }

    /// The manifest.
    pub fn meta(&self) -> &GraphMeta {
        &self.meta
    }

    /// The storage directory (shared tracker lives here).
    pub fn dir(&self) -> &StorageDir {
        &self.dir
    }

    /// The per-block edge codec this graph was built with.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Out-degree table (`d_v` of the predictor), reflecting any
    /// attached dynamic-graph overlay.
    pub fn out_degrees(&self) -> &[u32] {
        match &self.overlay {
            Some(ov) => &ov.out_degrees,
            None => &self.out_degrees,
        }
    }

    /// The base build's out-degree table, ignoring any overlay (used
    /// while materializing one).
    pub(crate) fn base_out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }

    /// Number of directed edges, reflecting any attached overlay
    /// (inserts minus deletes). Prefer this over `meta().num_edges`,
    /// which only describes the base build.
    pub fn num_edges(&self) -> u64 {
        self.overlay.as_ref().map_or(self.meta.num_edges, |ov| ov.num_edges)
    }

    /// Record count of `o`-block `(i, j)`, reflecting any overlay.
    fn block_len(&self, o: Orientation, i: usize, j: usize) -> u64 {
        match self.source(o, i, j) {
            Source::Overlay(m) => m.len(),
            Source::Base(_, block) => block.edge_count,
        }
    }

    /// Record count of out-block `(i, j)`, reflecting any overlay.
    /// Prefer this over `meta().out_block(i, j).edge_count` for
    /// skip/coalesce decisions.
    pub fn out_block_len(&self, i: usize, j: usize) -> u64 {
        self.block_len(Orientation::Out, i, j)
    }

    /// Record count of in-block `(i, j)`, reflecting any overlay.
    pub fn in_block_len(&self, i: usize, j: usize) -> u64 {
        self.block_len(Orientation::In, i, j)
    }

    /// Whether out-block `(i, j)` is served from the in-memory overlay:
    /// neither its index nor its record reads bill device I/O (the I/O
    /// plans of [`crate::rop`] price such blocks at zero).
    pub fn out_block_resident(&self, i: usize, j: usize) -> bool {
        matches!(self.source(Orientation::Out, i, j), Source::Overlay(_))
    }

    /// Whether in-block `(i, j)` is served from the in-memory overlay
    /// (see [`Self::out_block_resident`]; used by [`crate::cop`]'s plan).
    pub fn in_block_resident(&self, i: usize, j: usize) -> bool {
        matches!(self.source(Orientation::In, i, j), Source::Overlay(_))
    }

    /// Whether reads of out-block `(i, j)`'s edge *records* bill no
    /// device I/O right now: the block is overlay-resident, or its
    /// compressed shard holds it in the decoded-block cache. On a
    /// compressed graph any other read of the block fetches its whole
    /// encoded payload, whatever range was asked for.
    pub fn out_records_cached(&self, i: usize, j: usize) -> bool {
        match self.source(Orientation::Out, i, j) {
            Source::Overlay(_) => true,
            Source::Base(shard, _) => {
                shard.decoded.as_ref().is_some_and(|c| c.contains(Orientation::Out.orient(i, j).1))
            }
        }
    }

    /// On-disk bytes per edge (`M` of the predictor), inflated by the
    /// resident delta bytes when an overlay is attached — the cost
    /// model's view of the read amplification buffered updates add.
    pub fn disk_edge_bytes(&self) -> f64 {
        match &self.overlay {
            Some(ov) if ov.num_edges > 0 => {
                (self.meta.encoded_edge_bytes() + ov.delta_bytes) as f64
                    / (2.0 * ov.num_edges as f64)
            }
            Some(_) => self.meta.edge_record_bytes() as f64,
            None => self.meta.disk_edge_bytes(),
        }
    }

    /// Number of intervals.
    pub fn p(&self) -> usize {
        self.meta.p as usize
    }

    /// Load the index of `o`-block `(i, j)`. A base block reads its
    /// `occupied + 1` offsets, billed under `access`, beside its resident
    /// bitmap; an overlay block lends its in-memory offsets.
    pub(crate) fn block_index(
        &self,
        o: Orientation,
        i: usize,
        j: usize,
        access: Access,
    ) -> Result<BlockIndex<'_>> {
        let (shard, block) = match self.source(o, i, j) {
            Source::Overlay(m) => return Ok(m.index()),
            Source::Base(shard, block) => (shard, block),
        };
        let occupancy = &shard.occupancy[o.orient(i, j).1];
        let count = block.occupied as usize + 1;
        let offsets: Vec<u32> = hus_obs::attr::with_block(i as u32, j as u32, || {
            hus_storage::read_pod_vec(&shard.index, block.index_offset, count, access)
        })?;
        let parts = [occupancy.as_bytes(), hus_storage::pod::as_bytes(&offsets)];
        self.verify_block(o, (i, j), false, &parts, block.index_offset)?;
        Ok(BlockIndex::new(occupancy, offsets))
    }

    /// Load records `[lo, hi)` of `o`-block `(i, j)`, or the whole block
    /// when `range` is `None`, as one read billed under `access`. On a
    /// raw-codec graph with verification on, a read that spans the whole
    /// block is checked against the footer CRC; a compressed block is
    /// read by [`Self::decoded_records`], which verifies every shape.
    pub(crate) fn records(
        &self,
        o: Orientation,
        i: usize,
        j: usize,
        range: Option<(u32, u32)>,
        access: Access,
    ) -> Result<EdgeRecords> {
        let (shard, block) = match self.source(o, i, j) {
            Source::Overlay(m) => {
                let (lo, hi) = range.map_or((0, m.records.len()), |(lo, hi)| (lo as _, hi as _));
                return Ok(m.records.slice(lo, hi));
            }
            Source::Base(shard, block) => (shard, block),
        };
        let (lo, hi) = range.map_or((0, block.edge_count), |(lo, hi)| (lo as u64, hi as u64));
        debug_assert!(lo <= hi && hi <= block.edge_count);
        if let Some(cache) = &shard.decoded {
            return self.decoded_records(o, (i, j), shard, cache, block, (lo, hi), access);
        }
        let m = self.meta.edge_record_bytes();
        let mut data = vec![0u8; ((hi - lo) * m) as usize];
        // An empty block is never fetched; an explicit empty range still
        // bills its (zero-byte) operation, as selective callers expect.
        if range.is_some() || !data.is_empty() {
            hus_obs::attr::with_block(i as u32, j as u32, || {
                shard.edges.read_at(block.edge_offset + lo * m, &mut data, access)
            })?;
        }
        if lo == 0 && hi == block.edge_count {
            self.verify_block(o, (i, j), true, &[&data], block.edge_offset)?;
        }
        Ok(EdgeRecords { data, weighted: self.meta.weighted })
    }

    /// Records `[lo, hi)` of compressed base `o`-block `(i, j)`. A block
    /// in the shard's decoded-block cache is sliced at no I/O; otherwise
    /// its whole encoded payload is fetched under `access` and decoded.
    /// A whole-block sequential read (a COP stream) is returned
    /// uncached; any other read parks the decoded block in the cache.
    #[allow(clippy::too_many_arguments)]
    fn decoded_records(
        &self,
        o: Orientation,
        (i, j): (usize, usize),
        shard: &Shard,
        cache: &DecodedCache,
        block: &BlockMeta,
        (lo, hi): (u64, u64),
        access: Access,
    ) -> Result<EdgeRecords> {
        let m = self.meta.edge_record_bytes() as usize;
        let weighted = self.meta.weighted;
        if lo == hi {
            return Ok(EdgeRecords { data: Vec::new(), weighted });
        }
        let (lo, hi) = (lo as usize * m, hi as usize * m);
        let pos = o.orient(i, j).1;
        let cell = (i as u32, j as u32);
        if let Some(data) = cache.get(pos) {
            CACHE_HITS.incr();
            hus_obs::attr::record_at(cell.0, cell.1, hus_obs::BlockStat::CacheHits, 1);
            return Ok(EdgeRecords { data: data[lo..hi].to_vec(), weighted });
        }
        let data = self.fetch_decode(o, (i, j), shard, block, access)?;
        if hi - lo == data.len() && access == Access::Sequential {
            return Ok(EdgeRecords { data, weighted });
        }
        CACHE_MISSES.incr();
        hus_obs::attr::record_at(cell.0, cell.1, hus_obs::BlockStat::CacheMisses, 1);
        let records = EdgeRecords { data: data[lo..hi].to_vec(), weighted };
        cache.insert(pos, Arc::new(data));
        Ok(records)
    }

    /// Fetch compressed base `o`-block `(i, j)`'s encoded payload, billed
    /// to `access`, check it against the footer CRC (with verification
    /// on) and decode it.
    fn fetch_decode(
        &self,
        o: Orientation,
        (i, j): (usize, usize),
        shard: &Shard,
        block: &BlockMeta,
        access: Access,
    ) -> Result<Vec<u8>> {
        let cell = (i as u32, j as u32);
        let m = self.meta.edge_record_bytes();
        SCRATCH.with(|scratch| {
            let mut enc = scratch.borrow_mut();
            enc.resize(block.encoded_bytes as usize, 0);
            hus_obs::attr::with_block(cell.0, cell.1, || {
                shard.edges.read_at(block.encoded_offset, &mut enc, access)
            })?;
            let encoded = block.encoded_bytes;
            ENCODED_BYTES.add(encoded);
            hus_obs::attr::record_at(cell.0, cell.1, hus_obs::BlockStat::EncodedBytes, encoded);
            self.verify_block(o, (i, j), true, &[&enc], block.encoded_offset)?;
            let t0 =
                (hus_obs::enabled() || hus_obs::heatmap_enabled()).then(std::time::Instant::now);
            let mut data = vec![0u8; (block.edge_count * m) as usize];
            self.codec.decode(&enc, m as usize, &mut data).map_err(|e| {
                StorageError::Corrupt(format!(
                    "{}: block ({i}, {j}): {} decode failed: {e}",
                    self.dir.path(&GraphMeta::edges_file(o, o.orient(i, j).0)).display(),
                    self.codec.name(),
                ))
            })?;
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                DECODE_NS.record(ns);
                hus_obs::attr::record_at(cell.0, cell.1, hus_obs::BlockStat::DecodeNs, ns);
            }
            let decoded = data.len() as u64;
            DECODED_BYTES.add(decoded);
            hus_obs::attr::record_at(cell.0, cell.1, hus_obs::BlockStat::DecodedBytes, decoded);
            Ok(data)
        })
    }

    /// Load several record ranges `[lo, hi)` of `o`-block `(i, j)` as
    /// one batched multi-range request (on a compressed block, one
    /// cached read per range). Ranges must be sorted ascending and
    /// non-overlapping.
    fn record_ranges(
        &self,
        o: Orientation,
        i: usize,
        j: usize,
        ranges: &[(u32, u32)],
    ) -> Result<Vec<EdgeRecords>> {
        let (shard, block) = match self.source(o, i, j) {
            Source::Overlay(m) => {
                return Ok(ranges
                    .iter()
                    .map(|&(lo, hi)| m.records.slice(lo as usize, hi as usize))
                    .collect())
            }
            Source::Base(shard, block) => (shard, block),
        };
        if shard.decoded.is_some() {
            // The first range fetches and caches the block; the rest hit.
            return ranges
                .iter()
                .map(|&r| self.records(o, i, j, Some(r), Access::Batched))
                .collect();
        }
        let m = self.meta.edge_record_bytes();
        let mut bufs: Vec<Vec<u8>> = ranges
            .iter()
            .map(|&(lo, hi)| {
                debug_assert!(lo <= hi && (hi as u64) <= block.edge_count);
                vec![0u8; (hi - lo) as usize * m as usize]
            })
            .collect();
        let mut reqs: Vec<RangeRead<'_>> = bufs
            .iter_mut()
            .zip(ranges)
            .map(|(buf, &(lo, _))| RangeRead {
                offset: block.edge_offset + lo as u64 * m,
                buf: buf.as_mut_slice(),
            })
            .collect();
        hus_obs::attr::with_block(i as u32, j as u32, || {
            shard.edges.read_ranges(&mut reqs, Access::Batched)
        })?;
        drop(reqs);
        if let [(0, hi)] = ranges {
            // A single merged range that swallowed the whole block is a
            // full-block read in disguise; verify it as one.
            if *hi as u64 == block.edge_count {
                self.verify_block(o, (i, j), true, &[&bufs[0]], block.edge_offset)?;
            }
        }
        Ok(bufs
            .into_iter()
            .map(|data| EdgeRecords { data, weighted: self.meta.weighted })
            .collect())
    }

    /// Load out-index `(i, j)` as its dense view: `interval_len(i) + 1`
    /// offsets local to out-block `(i, j)`, expanded in memory from the
    /// `occupied + 1` entries read.
    pub fn load_out_index(&self, i: usize, j: usize, access: Access) -> Result<Vec<u32>> {
        let len = self.meta.interval_len(i) as usize;
        Ok(self.block_index(Orientation::Out, i, j, access)?.to_dense(len))
    }

    /// Load in-index `(i, j)` as its dense view: `interval_len(j) + 1`
    /// offsets local to in-block `(i, j)`.
    pub fn load_in_index(&self, i: usize, j: usize, access: Access) -> Result<Vec<u32>> {
        let len = self.meta.interval_len(j) as usize;
        Ok(self.block_index(Orientation::In, i, j, access)?.to_dense(len))
    }

    /// Randomly load the two offsets delimiting one vertex's edge range
    /// in out-block `(i, j)` — an 8-byte random read when the vertex has
    /// edges in the block, none when its resident occupancy bit says it
    /// has not (the range is then empty). When the frontier is far
    /// smaller than the block's occupied vertices, fetching entries
    /// per-vertex beats loading the whole offset array (the engine
    /// chooses by predicted cost).
    pub fn load_out_index_entry(&self, i: usize, j: usize, local: usize) -> Result<(u32, u32)> {
        Ok(self.load_out_index_entries(i, j, &[local])?[0])
    }

    /// [`Self::load_out_index_entry`] for several local vertices of
    /// out-block `(i, j)` at once, `locals` ascending: the probe loader
    /// of ROP's selective branch and of `hus serve`'s lookups. A vertex
    /// with no edge in the block gets the empty range `(0, 0)` from
    /// memory, in an overlay block as in a base one. The others are
    /// read at their rank in the block's offsets — from memory in an
    /// overlay block; in a base block they are probed, and probes
    /// whose byte gap is at most [`DEFAULT_MERGE_SLACK`] share one
    /// `read_ranges` call, in which vertices adjacent in rank overlap by
    /// one offset. Each probe still bills [`INDEX_PROBE_BYTES`] random
    /// bytes — those of one `load_out_index_entry` — so only the
    /// operation count falls.
    pub fn load_out_index_entries(
        &self,
        i: usize,
        j: usize,
        locals: &[usize],
    ) -> Result<Vec<(u32, u32)>> {
        debug_assert!(locals.windows(2).all(|w| w[0] <= w[1]), "probes must be ascending");
        let occupancy = self.occupied(Orientation::Out, i, j);
        // (position in `locals`, rank) of every vertex worth a probe.
        let probes: Vec<(usize, usize)> = (locals.iter().enumerate())
            .filter(|&(_, &l)| occupancy.contains(l))
            .map(|(k, &l)| (k, occupancy.rank(l)))
            .collect();
        let mut entries = vec![(0, 0); locals.len()];
        let (shard, block) = match self.source(Orientation::Out, i, j) {
            Source::Overlay(m) => {
                for &(k, rank) in &probes {
                    entries[k] = (m.offsets[rank], m.offsets[rank + 1]);
                }
                return Ok(entries);
            }
            Source::Base(shard, block) => (shard, block),
        };
        if probes.is_empty() {
            return Ok(entries);
        }
        let probe = INDEX_PROBE_BYTES as usize;
        let mut bytes = vec![0u8; probes.len() * probe];
        let mut reqs: Vec<RangeRead<'_>> = bytes
            .chunks_exact_mut(probe)
            .zip(&probes)
            .map(|(buf, &(_, rank))| RangeRead {
                offset: block.index_offset + rank as u64 * INDEX_ENTRY_BYTES,
                buf,
            })
            .collect();
        hus_obs::attr::with_block(i as u32, j as u32, || -> Result<()> {
            let mut rest = reqs.as_mut_slice();
            while !rest.is_empty() {
                let reach = |w: &[RangeRead<'_>]| {
                    w[1].offset <= w[0].offset + INDEX_PROBE_BYTES + DEFAULT_MERGE_SLACK
                };
                let len = 1 + rest.windows(2).take_while(|w| reach(w)).count();
                let (run, tail) = rest.split_at_mut(len);
                shard.index.read_ranges(run, Access::Random)?;
                rest = tail;
            }
            Ok(())
        })?;
        drop(reqs);
        let offset = |e: &[u8], at: usize| {
            u32::from_le_bytes(e[at..at + 4].try_into().expect("an offset is four bytes"))
        };
        for (e, &(k, _)) in bytes.chunks_exact(probe).zip(&probes) {
            entries[k] = (offset(e, 0), offset(e, 4));
        }
        Ok(entries)
    }

    /// Randomly load records `[lo, hi)` of out-block `(i, j)` — ROP's
    /// selective per-vertex edge fetch (`LoadOutEdges` in Algorithm 2).
    pub fn load_out_records(&self, i: usize, j: usize, lo: u32, hi: u32) -> Result<EdgeRecords> {
        self.records(Orientation::Out, i, j, Some((lo, hi)), Access::Random)
    }

    /// Load several record ranges `[lo, hi)` of out-block `(i, j)` as one
    /// batched multi-range request — ROP's coalesced selective fetch.
    /// The engine merges nearby active vertices' ranges (sorted, gaps
    /// under a slack) and issues each merged run through
    /// [`ReadBackend::read_ranges`], so a run of `k` ranges costs one
    /// tracked operation billing exactly the requested bytes. Ranges must
    /// be sorted ascending and non-overlapping.
    pub fn load_out_record_ranges(
        &self,
        i: usize,
        j: usize,
        ranges: &[(u32, u32)],
    ) -> Result<Vec<EdgeRecords>> {
        self.record_ranges(Orientation::Out, i, j, ranges)
    }

    /// Load the whole out-block `(i, j)` in one coalesced request: ROP's
    /// elevator fetch. When a frontier is dense enough that its
    /// per-vertex ranges cover most of a block, issuing them as one
    /// ascending sweep is what a real disk scheduler converges to;
    /// billed at the device's batched-sweep throughput.
    pub fn load_out_block_batch(&self, i: usize, j: usize) -> Result<EdgeRecords> {
        self.records(Orientation::Out, i, j, None, Access::Batched)
    }

    /// Sequentially stream the whole in-block `(i, j)` — COP's
    /// `LoadInEdges` (Algorithm 3). The paper sizes `P` so a block fits
    /// in memory; we load it in one tracked sequential read.
    pub fn stream_in_block(&self, i: usize, j: usize) -> Result<EdgeRecords> {
        self.records(Orientation::In, i, j, None, Access::Sequential)
    }

    /// Sequentially stream the whole out-block `(i, j)` (used by the
    /// ablation harness to measure layout costs; ROP itself reads
    /// selectively).
    pub fn stream_out_block(&self, i: usize, j: usize) -> Result<EdgeRecords> {
        self.records(Orientation::Out, i, j, None, Access::Sequential)
    }
}

/// A decoded run of edge records (neighbor id + optional weight each).
///
/// Accessors read unaligned little-endian fields straight out of the byte
/// buffer, so no alignment requirements are imposed on block offsets.
#[derive(Debug, Clone)]
pub struct EdgeRecords {
    data: Vec<u8>,
    weighted: bool,
}

impl EdgeRecords {
    /// Wrap raw record bytes (the dynamic-graph overlay builds merged
    /// blocks in memory).
    pub(crate) fn from_raw(data: Vec<u8>, weighted: bool) -> Self {
        EdgeRecords { data, weighted }
    }

    /// The raw bytes of records `[lo, hi)`, for copy-through merging.
    pub(crate) fn raw(&self, lo: usize, hi: usize) -> &[u8] {
        &self.data[lo * self.stride()..hi * self.stride()]
    }

    /// Copy out records `[lo, hi)` as a standalone buffer.
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> EdgeRecords {
        debug_assert!(lo <= hi && hi <= self.len());
        let s = self.stride();
        EdgeRecords { data: self.data[lo * s..hi * s].to_vec(), weighted: self.weighted }
    }

    /// Record size in bytes.
    fn stride(&self) -> usize {
        if self.weighted {
            8
        } else {
            4
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.data.len() / self.stride()
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Neighbor id of record `k` (destination in out-blocks, source in
    /// in-blocks).
    #[inline]
    pub fn neighbor(&self, k: usize) -> u32 {
        let s = k * self.stride();
        u32::from_le_bytes(self.data[s..s + 4].try_into().unwrap())
    }

    /// Weight of record `k` (1.0 for unweighted graphs).
    #[inline]
    pub fn weight(&self, k: usize) -> f32 {
        if !self.weighted {
            return 1.0;
        }
        let s = k * 8 + 4;
        f32::from_le_bytes(self.data[s..s + 4].try_into().unwrap())
    }

    /// Records `[lo, hi)` in order, as `(neighbor, weight)` pairs.
    pub(crate) fn walk(&self, lo: usize, hi: usize) -> Walk<'_> {
        let s = self.stride();
        Walk { records: self.data[lo * s..hi * s].chunks_exact(s), weighted: self.weighted }
    }
}

impl<'a> IntoIterator for &'a EdgeRecords {
    type Item = (u32, f32);
    type IntoIter = Walk<'a>;

    /// Every record in order, as `(neighbor, weight)` pairs.
    fn into_iter(self) -> Walk<'a> {
        self.walk(0, self.len())
    }
}

/// A walk over a run of [`EdgeRecords`], one `(neighbor, weight)` pair
/// per record (weight 1.0 on unweighted graphs). Records are fixed-width,
/// so skipping ahead (`nth`, `skip`) costs nothing.
#[derive(Debug, Clone)]
pub struct Walk<'a> {
    records: std::slice::ChunksExact<'a, u8>,
    weighted: bool,
}

impl Walk<'_> {
    #[inline]
    fn decode(&self, record: &[u8]) -> (u32, f32) {
        let field = |at: usize| -> [u8; 4] {
            record[at..at + 4].try_into().expect("a record field is four bytes")
        };
        let weight = if self.weighted { f32::from_le_bytes(field(4)) } else { 1.0 };
        (u32::from_le_bytes(field(0)), weight)
    }
}

impl Iterator for Walk<'_> {
    type Item = (u32, f32);

    #[inline]
    fn next(&mut self) -> Option<(u32, f32)> {
        let record = self.records.next()?;
        Some(self.decode(record))
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<(u32, f32)> {
        let record = self.records.nth(n)?;
        Some(self.decode(record))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hus_gen::rmat::{rmat, RmatConfig};
    use hus_gen::{Csr, Edge};
    use hus_storage::BackendKind;

    fn open_graph(el: &EdgeList, p: u32) -> (tempfile::TempDir, HusGraph) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p(p)).unwrap();
        (tmp, g)
    }

    /// Build with an explicit codec (ignoring `HUS_CODEC`) — used by
    /// tests that assert on-disk byte counts or compare codecs.
    fn open_graph_codec(el: &EdgeList, p: u32, codec: Codec) -> (tempfile::TempDir, HusGraph) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p_codec(p, codec)).unwrap();
        (tmp, g)
    }

    /// Every `(src, dst, weight)` reconstructed through the public
    /// `o`-orientation loaders — whole index, whole block — walked shard
    /// by shard, block by block; overlay-aware.
    pub(crate) fn edges_via(g: &HusGraph, o: Orientation) -> Vec<(u32, u32, f32)> {
        let mut edges = Vec::new();
        for own in 0..g.p() {
            let first = g.meta().interval_start(own);
            for other in 0..g.p() {
                let (i, j) = o.orient(own, other);
                let (idx, recs) = match o {
                    Orientation::Out => (
                        g.load_out_index(i, j, Access::Sequential).unwrap(),
                        g.stream_out_block(i, j).unwrap(),
                    ),
                    Orientation::In => (
                        g.load_in_index(i, j, Access::Sequential).unwrap(),
                        g.stream_in_block(i, j).unwrap(),
                    ),
                };
                for (v, range) in (first..).zip(idx.windows(2)) {
                    for (neighbor, weight) in recs.walk(range[0] as usize, range[1] as usize) {
                        let (src, dst) = o.orient(v, neighbor);
                        edges.push((src, dst, weight));
                    }
                }
            }
        }
        edges
    }

    /// The edge set reconstructed through the `o`-blocks + `o`-indices,
    /// sorted.
    fn edges_via_blocks(g: &HusGraph, o: Orientation) -> Vec<Edge> {
        let mut edges: Vec<Edge> =
            edges_via(g, o).into_iter().map(|(src, dst, _)| Edge::new(src, dst)).collect();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn blocks_of_either_orientation_reconstruct_the_graph() {
        let el = rmat(120, 700, 9, RmatConfig::default());
        let (_t, g) = open_graph(&el, 4);
        let mut want = el.edges;
        want.sort_unstable();
        for o in Orientation::BOTH {
            assert_eq!(edges_via_blocks(&g, o), want, "{o:?}");
        }
    }

    #[test]
    fn selective_out_load_matches_csr() {
        let el = rmat(80, 400, 4, RmatConfig::default());
        let csr = Csr::from_edge_list(&el);
        let (_t, g) = open_graph(&el, 3);
        // For every vertex, gather out-neighbors through selective loads
        // across all blocks of its row and compare to the CSR.
        for v in 0..el.num_vertices {
            let i = crate::partition::interval_of(&g.meta().interval_starts, v);
            let local = (v - g.meta().interval_start(i)) as usize;
            let mut got: Vec<u32> = Vec::new();
            for j in 0..g.p() {
                let idx = g.load_out_index(i, j, Access::Random).unwrap();
                let (lo, hi) = (idx[local], idx[local + 1]);
                if lo < hi {
                    let recs = g.load_out_records(i, j, lo, hi).unwrap();
                    got.extend(recs.into_iter().map(|(neighbor, _)| neighbor));
                }
            }
            let mut want: Vec<u32> = csr.out_neighbors(v).to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "vertex {v}");
        }
    }

    #[test]
    fn multi_range_load_matches_per_range_loads() {
        let el = rmat(100, 600, 11, RmatConfig::default());
        // Raw pinned: the assertions below equate billed bytes with
        // decoded (requested) bytes, which only holds uncompressed.
        let (_t, g) = open_graph_codec(&el, 3, Codec::Raw);
        let idx = g.load_out_index(0, 1, Access::Sequential).unwrap();
        let ranges: Vec<(u32, u32)> =
            (0..idx.len() - 1).map(|v| (idx[v], idx[v + 1])).filter(|(lo, hi)| lo < hi).collect();
        assert!(ranges.len() > 1, "need several non-empty ranges");
        g.dir().tracker().reset();
        let batched = g.load_out_record_ranges(0, 1, &ranges).unwrap();
        let s = g.dir().tracker().snapshot();
        let requested: u64 = ranges.iter().map(|&(lo, hi)| (hi - lo) as u64 * 4).sum();
        assert_eq!(s.batched_read_bytes, requested, "bills exactly the requested bytes");
        assert_eq!(s.batched_read_ops, 1, "one tracked op for the whole run");
        assert_eq!(s.rand_read_bytes, 0);
        for (recs, &(lo, hi)) in batched.iter().zip(&ranges) {
            let single = g.load_out_records(0, 1, lo, hi).unwrap();
            assert!(recs.into_iter().eq(&single));
        }
    }

    /// `locals` ascending in an interval of `len` vertices: its first
    /// three and last two vertices (adjacent probes overlap by one
    /// offset), its middle one, and a seeded random sprinkle over its
    /// first tenth.
    fn probe_locals(len: usize, seed: u64) -> Vec<usize> {
        let mut locals = vec![0, 1, 2, len / 2, len - 2, len - 1];
        let tenth = len as u64 / 10;
        locals.extend((0..40).map(|k| (hus_gen::types::splitmix64(seed + k) % tenth) as usize));
        locals.sort_unstable();
        locals.dedup();
        locals
    }

    /// A record range with every empty range written `(0, 0)`: an
    /// unoccupied vertex's probe names no position.
    fn records_named((lo, hi): (u32, u32)) -> (u32, u32) {
        if lo < hi {
            (lo, hi)
        } else {
            (0, 0)
        }
    }

    /// Every probe of `locals` in out-block `(i, j)`: the batched loader
    /// answers what one `load_out_index_entry` each and the dense view
    /// do, and bills the random bytes of the per-entry probes — 8 per
    /// vertex with edges in a base block, none for the others. Returns
    /// the loader's random-read op count.
    fn batched_probes_match(g: &HusGraph, (i, j): (usize, usize), locals: &[usize]) -> u64 {
        let index = g.load_out_index(i, j, Access::Sequential).unwrap();
        let want: Vec<(u32, u32)> =
            locals.iter().map(|&l| records_named((index[l], index[l + 1]))).collect();
        let tracker = g.dir().tracker();
        tracker.reset();
        let one_by_one: Vec<(u32, u32)> = (locals.iter())
            .map(|&l| records_named(g.load_out_index_entry(i, j, l).unwrap()))
            .collect();
        let per_entry = tracker.snapshot();
        tracker.reset();
        let batched = g.load_out_index_entries(i, j, locals).unwrap();
        let s = tracker.snapshot();
        assert_eq!(one_by_one, want, "block ({i}, {j})");
        assert_eq!(batched.into_iter().map(records_named).collect::<Vec<_>>(), want);
        assert_eq!(s.rand_read_bytes, per_entry.rand_read_bytes, "block ({i}, {j})");
        assert_eq!(s.total_bytes(), s.rand_read_bytes, "probes bill only random bytes");
        if !g.out_block_resident(i, j) {
            let occupied = g.occupied(Orientation::Out, i, j);
            let probed = locals.iter().filter(|&&l| occupied.contains(l)).count() as u64;
            assert_eq!(s.rand_read_bytes, 8 * probed, "block ({i}, {j})");
        }
        s.rand_read_ops
    }

    /// The occupied vertex of base `o`-block `(i, j)` at rank `rank`.
    fn occupied_at_rank(
        g: &HusGraph,
        o: Orientation,
        (i, j): (usize, usize),
        rank: usize,
    ) -> usize {
        let occupancy = g.occupied(o, i, j);
        occupancy.iter().nth(rank).expect("rank within the block's occupied vertices")
    }

    #[test]
    fn batched_index_probes_equal_per_entry_probes() {
        // Uniform degrees (~3 edges per vertex and block) make neighbouring
        // vertices' entries differ, so a misplaced probe cannot hide.
        let el = hus_gen::erdos_renyi(9000, 90_000, 29);
        for kind in [BackendKind::File, BackendKind::Mmap, BackendKind::Direct] {
            let tmp = tempfile::tempdir().unwrap();
            // Filesystems that refuse O_DIRECT degrade `Direct` to `File`.
            let dir = StorageDir::create(tmp.path().join("g")).unwrap().with_backend(kind);
            build(&el, &dir, &BuildConfig::with_p(3)).unwrap();
            let g = HusGraph::open(dir.clone()).unwrap();
            let len = g.meta().interval_len(1) as usize;
            let (src, dst) = (g.meta().interval_start(1), g.meta().interval_start(2));
            assert_eq!(len, 3000);
            for j in 0..3 {
                // Three runs: the first tenth, the middle vertex and the
                // last two are over a slack (1 026 vertices) apart.
                let locals = probe_locals(len, j as u64);
                assert_eq!(batched_probes_match(&g, (1, j), &locals), 3, "{kind:?}");
                // A clustered list is one run.
                let clustered: Vec<usize> = (100..164).collect();
                assert_eq!(batched_probes_match(&g, (1, j), &clustered), 1, "{kind:?}");
                // Probes 1 026 offset entries (ranks) apart leave a gap
                // of exactly the slack (4 096 bytes) after the first
                // probe's 8; one more entry splits them.
                let at = |rank| occupied_at_rank(&g, Orientation::Out, (1, j), rank);
                assert_eq!(batched_probes_match(&g, (1, j), &[at(7), at(7 + 1026)]), 1);
                assert_eq!(batched_probes_match(&g, (1, j), &[at(7), at(7 + 1027)]), 2);
                // Vertices without edges in the block cost nothing.
                let len_j = g.meta().interval_len(1) as usize;
                let occupied = g.occupied(Orientation::Out, 1, j);
                let empty: Vec<usize> = (0..len_j).filter(|&l| !occupied.contains(l)).collect();
                assert!(!empty.is_empty(), "{kind:?}: block (1, {j}) is fully occupied");
                assert_eq!(batched_probes_match(&g, (1, j), &empty), 0, "{kind:?}");
            }
            drop(g);

            // Buffered updates put out-block (1, 2) in the overlay: its
            // probes are answered from memory and bill nothing.
            let mut dg = crate::delta::DynamicGraph::open(dir).unwrap();
            dg.insert_edge(src, dst, 1.0).unwrap();
            dg.insert_edge(src + 3, dst + 7, 1.0).unwrap();
            let e = el.edges.iter().find(|e| e.src >= src && e.src < src + len as u32).unwrap();
            dg.delete_edge(e.src, e.dst).unwrap();
            let g = dg.snapshot().unwrap();
            assert!(g.out_block_resident(1, 2));
            assert_eq!(batched_probes_match(g, (1, 2), &probe_locals(len, 9)), 0, "{kind:?}");
            assert_eq!(g.dir().tracker().snapshot().total_bytes(), 0);
        }
    }

    #[test]
    fn resident_index_bytes_count_the_overlay_blocks() {
        let el = rmat(200, 1000, 3, RmatConfig::default());
        let (_t, g) = open_graph(&el, 2);
        assert_eq!(g.meta().interval_len(0), 100);
        // Each of the 2 · 4 base blocks keeps a bitmap of two words over
        // a 100-vertex interval and one rank-directory entry: 20 bytes.
        let base = g.resident_index_bytes();
        assert_eq!(base, 8 * 20);
        // One insert touches block (0, 1): its out- and in-block each add
        // a 20-byte occupancy and `occupied + 1` four-byte offsets.
        let mut dg = crate::delta::DynamicGraph::open(g.dir().clone()).unwrap();
        dg.insert_edge(3, 150, 1.0).unwrap();
        let g = dg.snapshot().unwrap();
        let touched = g.overlay.as_ref().unwrap().blocks.each_ref().map(|b| b.len());
        assert_eq!(touched, [1, 1]);
        assert!(g.out_block_resident(0, 1) && g.in_block_resident(0, 1));
        let entries = |o| g.index_entries(o, 0, 1) + 1;
        let offsets = 4 * (entries(Orientation::Out) + entries(Orientation::In));
        assert_eq!(g.resident_index_bytes(), base + 2 * 20 + offsets);
    }

    #[test]
    fn weights_survive_the_dual_block_roundtrip() {
        let el = rmat(60, 300, 6, RmatConfig::default()).with_hash_weights(0.5, 4.5);
        let (_t, g) = open_graph(&el, 2);
        // Sum of weights through in-blocks equals the edge list's sum.
        let mut total = 0.0f64;
        for j in 0..g.p() {
            for i in 0..g.p() {
                let recs = g.stream_in_block(i, j).unwrap();
                total += recs.into_iter().map(|(_, w)| w as f64).sum::<f64>();
            }
        }
        let want: f64 = el.weights.as_ref().unwrap().iter().map(|&w| w as f64).sum();
        assert!((total - want).abs() < 1e-3, "{total} vs {want}");
    }

    #[test]
    fn degrees_match_edge_list() {
        let el = rmat(90, 500, 7, RmatConfig::default());
        let (_t, g) = open_graph(&el, 4);
        assert_eq!(g.out_degrees(), el.out_degrees().as_slice());
    }

    #[test]
    fn io_is_tracked_per_access_kind() {
        let el = rmat(64, 400, 8, RmatConfig::default());
        // Raw pinned: billed bytes are compared against record counts.
        let (_t, g) = open_graph_codec(&el, 2, Codec::Raw);
        g.dir().tracker().reset();
        g.stream_in_block(0, 0).unwrap();
        let s = g.dir().tracker().snapshot();
        assert_eq!(s.seq_read_bytes, g.meta().in_block(0, 0).edge_count * 4);
        assert_eq!(s.rand_read_bytes, 0);
        g.load_out_records(0, 0, 0, 1).unwrap();
        let s = g.dir().tracker().snapshot();
        assert_eq!(s.rand_read_bytes, 4);
    }

    #[test]
    fn open_rejects_missing_meta() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("empty")).unwrap();
        assert!(HusGraph::open(dir).is_err());
    }

    fn built_dir(el: &EdgeList, p: u32) -> (tempfile::TempDir, StorageDir) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        build(el, &dir, &BuildConfig::with_p(p)).unwrap();
        (tmp, dir)
    }

    #[test]
    fn open_rejects_partially_deleted_dir_naming_the_file() {
        let el = rmat(120, 700, 13, RmatConfig::default());
        let (_tmp, dir) = built_dir(&el, 3);
        std::fs::remove_file(dir.path(&GraphMeta::out_edges_file(1))).unwrap();
        match HusGraph::open(dir) {
            Err(StorageError::IncompleteBuild { detail, .. }) => {
                assert!(detail.contains("out_1.edges"), "names the file: {detail}");
            }
            Err(other) => panic!("expected IncompleteBuild, got {other:?}"),
            Ok(_) => panic!("open accepted an incomplete directory"),
        }
    }

    #[test]
    fn open_rejects_truncated_shard_with_typed_error() {
        let el = rmat(120, 700, 13, RmatConfig::default());
        let (_tmp, dir) = built_dir(&el, 3);
        let path = dir.path(&GraphMeta::in_index_file(2));
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 7).unwrap();
        match HusGraph::open(dir) {
            Err(StorageError::ManifestMismatch { file, detail, .. }) => {
                assert_eq!(file, "in_2.index");
                assert!(detail.contains("found"), "states found length: {detail}");
            }
            Err(other) => panic!("expected ManifestMismatch, got {other:?}"),
            Ok(_) => panic!("open accepted a truncated file"),
        }
    }

    #[test]
    fn open_rejects_dir_without_manifest_naming_it() {
        let el = rmat(120, 700, 13, RmatConfig::default());
        let (_tmp, dir) = built_dir(&el, 3);
        std::fs::remove_file(dir.path(MANIFEST_FILE)).unwrap();
        match HusGraph::open(dir) {
            Err(StorageError::IncompleteBuild { detail, .. }) => {
                assert!(detail.contains(MANIFEST_FILE), "names the file: {detail}");
            }
            Err(other) => panic!("expected IncompleteBuild, got {other:?}"),
            Ok(_) => panic!("open accepted a directory without a MANIFEST"),
        }
    }

    /// A directory of the dense-index layout (no `format` in its
    /// `meta.json`) is refused with a typed error, not misread.
    #[test]
    fn open_refuses_a_dense_index_directory_with_a_typed_error() {
        let el = rmat(120, 700, 13, RmatConfig::default());
        let (_tmp, dir) = built_dir(&el, 3);
        let text = dir.get_meta(META_FILE).unwrap();
        let field = format!("\"format\": {},", crate::meta::FORMAT_VERSION);
        let dense = text.lines().filter(|l| l.trim() != field).collect::<Vec<_>>();
        assert_eq!(dense.len() + 1, text.lines().count(), "one line dropped");
        dir.put_meta(META_FILE, &dense.join("\n")).unwrap();
        match HusGraph::open(dir.clone()) {
            Err(StorageError::UnsupportedFormat { found: 1, expected, path }) => {
                assert_eq!((expected, path.as_path()), (crate::meta::FORMAT_VERSION, dir.root()));
            }
            Err(other) => panic!("expected UnsupportedFormat, got {other:?}"),
            Ok(_) => panic!("open accepted a dense-index directory"),
        }
    }

    /// A bitmap whose population disagrees with `meta.json` makes open
    /// fail, naming the file and the block.
    #[test]
    fn open_rejects_a_bitmap_that_disagrees_with_the_manifest() {
        let el = rmat(120, 700, 13, RmatConfig::default());
        let (_tmp, dir) = built_dir(&el, 3);
        let meta = GraphMeta::parse(&dir.get_meta(META_FILE).unwrap(), dir.root()).unwrap();
        let name = GraphMeta::in_index_file(2);
        let at = meta.bitmap_offset(Orientation::In, 2, 1) as usize;
        let mut bytes = std::fs::read(dir.path(&name)).unwrap();
        bytes[at] ^= 1; // local vertex 0 of in-block (1, 2)
        std::fs::write(dir.path(&name), bytes).unwrap();
        let err = HusGraph::open(dir).err().expect("a corrupt bitmap");
        let msg = err.to_string();
        assert!(msg.contains("in_2.index") && msg.contains("block (1, 2)"), "{msg}");
    }

    #[test]
    fn verification_catches_on_disk_corruption_at_exact_block() {
        let el = rmat(120, 700, 13, RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        // Raw pinned: the test flips a byte at the block's *decoded*
        // offset, which is only its on-disk offset uncompressed.
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(3, Codec::Raw)).unwrap();
        let (i, j) = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .find(|&(i, j)| g.meta().out_block(i, j).edge_count > 0)
            .expect("some non-empty block");
        let block = *g.meta().out_block(i, j);
        drop(g);

        // Flip one payload byte of that block on disk.
        let path = dir.path(&GraphMeta::out_edges_file(i));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[block.edge_offset as usize + 2] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();

        let g = HusGraph::open(dir).unwrap();
        // Verification off: the damaged bytes are served silently.
        g.set_verify(false);
        g.stream_out_block(i, j).unwrap();
        assert_eq!(g.dir().resilience().snapshot().checksum_failures, 0);
        // Verification on: the exact block and offset are named.
        g.set_verify(true);
        assert!(g.verify_enabled());
        match g.stream_out_block(i, j).unwrap_err() {
            StorageError::ChecksumMismatch { path, block: b, offset, expected, actual } => {
                assert!(path.ends_with(GraphMeta::out_edges_file(i)));
                assert_eq!(b, (i as u32, j as u32));
                assert_eq!(offset, block.edge_offset);
                assert_ne!(expected, actual);
            }
            other => panic!("expected ChecksumMismatch, got {other}"),
        }
        assert_eq!(g.dir().resilience().snapshot().checksum_failures, 1);
        // The sibling batched loader reports the same failure.
        assert!(g.load_out_block_batch(i, j).unwrap_err().is_corruption());
        // Undamaged blocks still verify clean.
        for jj in 0..3 {
            if jj != j {
                g.stream_out_block(i, jj).unwrap();
            }
        }
    }

    #[test]
    fn raw_full_block_selective_reads_are_verified() {
        // PR 3 left ROP's selective reads entirely outside checksum
        // coverage; a selective read spanning the whole block is now
        // verified like a full-block load.
        let el = rmat(120, 700, 13, RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(3, Codec::Raw)).unwrap();
        let (i, j) = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .find(|&(i, j)| g.meta().out_block(i, j).edge_count > 1)
            .expect("some block with several edges");
        let block = *g.meta().out_block(i, j);
        drop(g);
        let path = dir.path(&GraphMeta::out_edges_file(i));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[block.edge_offset as usize] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();

        let g = HusGraph::open(dir).unwrap();
        g.set_verify(true);
        let n = block.edge_count as u32;
        // Full-span selective read: caught.
        assert!(g.load_out_records(i, j, 0, n).unwrap_err().is_corruption());
        // Full-span single batched range: caught.
        assert!(g.load_out_record_ranges(i, j, &[(0, n)]).unwrap_err().is_corruption());
        // A strictly partial read still passes unchecked — the
        // documented raw-codec exemption (DESIGN.md §9).
        g.load_out_records(i, j, 1, n).unwrap();
    }

    #[test]
    fn delta_varint_graph_reads_decode_transparently() {
        let el = rmat(200, 1400, 17, RmatConfig::default()).with_hash_weights(0.5, 2.5);
        let (_t, g) = open_graph_codec(&el, 3, Codec::DeltaVarint);
        assert_eq!(g.codec(), Codec::DeltaVarint);
        // Both traversal directions reconstruct the graph through the
        // block decoder, weights intact.
        let mut want = el.edges.clone();
        want.sort_unstable();
        for o in Orientation::BOTH {
            assert_eq!(edges_via_blocks(&g, o), want, "{o:?}");
        }
        // A COP stream bills the block's *encoded* bytes.
        let (i, j) = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .find(|&(i, j)| g.meta().in_block(i, j).edge_count > 0)
            .unwrap();
        g.dir().tracker().reset();
        g.stream_in_block(i, j).unwrap();
        let s = g.dir().tracker().snapshot();
        assert_eq!(s.seq_read_bytes, g.meta().in_block(i, j).encoded_bytes);
        assert!(s.seq_read_bytes < g.meta().in_block(i, j).edge_count * 8);
    }

    #[test]
    fn delta_varint_verification_catches_encoded_corruption() {
        let el = rmat(150, 900, 19, RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(3, Codec::DeltaVarint))
            .unwrap();
        let (i, j) = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .find(|&(i, j)| g.meta().out_block(i, j).edge_count > 1)
            .unwrap();
        let block = *g.meta().out_block(i, j);
        drop(g);
        let path = dir.path(&GraphMeta::out_edges_file(i));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[block.encoded_offset as usize] ^= 0x04;
        std::fs::write(&path, bytes).unwrap();

        let g = HusGraph::open(dir).unwrap();
        // Unverified, the damage either decodes to wrong values or
        // trips the decoder; it must not panic. Verified, even a
        // 1-record selective read of the block is caught — compressed
        // graphs have no partial-read exemption.
        g.set_verify(true);
        let err = g.load_out_records(i, j, 0, 1).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert_eq!(g.dir().resilience().snapshot().checksum_failures, 1);
    }

    /// The first out-block of `g` holding at least `min_edges` records.
    fn out_block_with(g: &HusGraph, min_edges: u64) -> (usize, usize) {
        let p = g.p();
        (0..p)
            .flat_map(|i| (0..p).map(move |j| (i, j)))
            .find(|&(i, j)| g.meta().out_block(i, j).edge_count >= min_edges)
            .expect("a block that large")
    }

    #[test]
    fn compressed_partial_reads_bill_encoded_bytes_once_then_hit() {
        let el = rmat(200, 1400, 17, RmatConfig::default());
        let (_t, g) = open_graph_codec(&el, 3, Codec::DeltaVarint);
        let (i, j) = out_block_with(&g, 4);
        let block = *g.meta().out_block(i, j);
        let n = block.edge_count as u32;
        assert!(block.encoded_bytes < block.edge_count * 4, "payload actually compressed");
        let whole: Vec<(u32, f32)> = g.stream_out_block(i, j).unwrap().into_iter().collect();
        assert!(!g.out_records_cached(i, j));
        let tracker = g.dir().tracker();
        tracker.reset();
        // A miss fetches the whole encoded block, whatever range was asked.
        let one = g.load_out_records(i, j, 1, 2).unwrap();
        assert_eq!(one.into_iter().collect::<Vec<_>>(), whole[1..2]);
        assert_eq!(tracker.snapshot().rand_read_bytes, block.encoded_bytes);
        assert!(g.out_records_cached(i, j));
        // Every later read of the block, of any shape, is a free hit.
        let ranges = g.load_out_record_ranges(i, j, &[(0, 1), (n - 2, n)]).unwrap();
        assert_eq!(ranges[1].into_iter().collect::<Vec<_>>(), whole[n as usize - 2..]);
        let batch = g.load_out_block_batch(i, j).unwrap();
        assert_eq!(batch.into_iter().collect::<Vec<_>>(), whole);
        g.stream_out_block(i, j).unwrap();
        assert_eq!(tracker.snapshot().total_bytes(), block.encoded_bytes);

        // A batched multi-range read of another block: the first range
        // misses and bills the block once; the rest hit.
        let (i2, j2) = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .find(|&b| b != (i, j) && g.meta().out_block(b.0, b.1).edge_count >= 3)
            .expect("a second block");
        let n2 = g.meta().out_block(i2, j2).edge_count as u32;
        tracker.reset();
        g.load_out_record_ranges(i2, j2, &[(0, 1), (1, 2), (n2 - 1, n2)]).unwrap();
        let s = tracker.snapshot();
        assert_eq!(s.batched_read_bytes, g.meta().out_block(i2, j2).encoded_bytes);
        assert_eq!(s.total_bytes(), s.batched_read_bytes);
    }

    #[test]
    fn compressed_streams_bill_every_pass_and_stay_uncached() {
        let el = rmat(200, 1400, 17, RmatConfig::default());
        let (_t, g) = open_graph_codec(&el, 3, Codec::DeltaVarint);
        let (i, j) = out_block_with(&g, 1);
        g.dir().tracker().reset();
        g.stream_out_block(i, j).unwrap();
        g.stream_out_block(i, j).unwrap();
        // A stream pays its encoded bytes every pass and does not fill
        // the decoded-block cache.
        let s = g.dir().tracker().snapshot();
        assert_eq!(s.seq_read_bytes, 2 * g.meta().out_block(i, j).encoded_bytes);
        assert_eq!(s.total_bytes(), s.seq_read_bytes);
        assert!(!g.out_records_cached(i, j));
    }

    #[test]
    fn compressed_checksum_mismatch_names_block_and_encoded_offset() {
        let el = rmat(150, 900, 19, RmatConfig::default());
        let (_t, g) = open_graph_codec(&el, 3, Codec::DeltaVarint);
        let (i, j) = out_block_with(&g, 2);
        let block = *g.meta().out_block(i, j);
        let dir = g.dir().clone();
        drop(g);
        let path = dir.path(&GraphMeta::out_edges_file(i));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[block.encoded_offset as usize + 1] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();

        let g = HusGraph::open(dir).unwrap();
        g.set_verify(true);
        match g.load_out_records(i, j, 0, 1).unwrap_err() {
            StorageError::ChecksumMismatch { path, block: b, offset, .. } => {
                assert!(path.ends_with(GraphMeta::out_edges_file(i)));
                assert_eq!(b, (i as u32, j as u32));
                assert_eq!(offset, block.encoded_offset);
            }
            other => panic!("expected ChecksumMismatch, got {other}"),
        }
        assert_eq!(g.dir().resilience().snapshot().checksum_failures, 1);
        // The undamaged blocks of the same file still read.
        for jj in (0..3).filter(|&jj| jj != j) {
            if g.meta().out_block(i, jj).edge_count > 0 {
                g.load_out_records(i, jj, 0, 1).unwrap();
            }
        }
    }

    #[test]
    fn compressed_decode_failure_is_corruption() {
        let el = rmat(150, 900, 19, RmatConfig::default());
        let (_t, g) = open_graph_codec(&el, 3, Codec::DeltaVarint);
        let (i, j) = out_block_with(&g, 2);
        let block = *g.meta().out_block(i, j);
        let dir = g.dir().clone();
        drop(g);
        // Every byte a varint continuation byte: the stream never ends.
        let path = dir.path(&GraphMeta::out_edges_file(i));
        let mut bytes = std::fs::read(&path).unwrap();
        let at = block.encoded_offset as usize;
        bytes[at..at + block.encoded_bytes as usize].fill(0x80);
        std::fs::write(&path, bytes).unwrap();

        let g = HusGraph::open(dir).unwrap();
        g.set_verify(false);
        let err = g.stream_out_block(i, j).unwrap_err();
        let want = format!("block ({i}, {j}): delta-varint decode failed");
        assert!(matches!(&err, StorageError::Corrupt(m) if m.contains(&want)), "{err}");
        assert!(err.to_string().contains(&GraphMeta::out_edges_file(i)), "{err}");
        assert!(err.is_corruption());
    }

    #[test]
    fn compressed_block_over_a_cache_shard_budget_is_never_cached() {
        let el = hus_gen::erdos_renyi(4000, 300_000, 31).with_hash_weights(0.5, 4.5);
        let (_t, g) = open_graph_codec(&el, 1, Codec::DeltaVarint);
        let block = *g.meta().out_block(0, 0);
        assert!(block.edge_count * 8 > 2 << 20, "decodes to more than 2 MiB");
        g.dir().tracker().reset();
        for k in 1..=3 {
            g.load_out_records(0, 0, 0, 1).unwrap();
            assert_eq!(g.dir().tracker().snapshot().rand_read_bytes, k * block.encoded_bytes);
            assert!(!g.out_records_cached(0, 0));
        }
    }

    #[test]
    fn open_rejects_footer_codec_mismatch() {
        let el = rmat(80, 400, 23, RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        build(&el, &dir, &BuildConfig::with_p_codec(2, Codec::Raw)).unwrap();
        // Rewrite meta.json to claim delta-varint: the raw footers now
        // disagree and open() must refuse.
        let meta_path = dir.path(META_FILE);
        let text = std::fs::read_to_string(&meta_path).unwrap();
        std::fs::write(&meta_path, text.replace("\"raw\"", "\"delta-varint\"")).unwrap();
        let Err(err) = HusGraph::open(dir) else {
            panic!("open accepted a graph whose footers contradict meta.json");
        };
        assert!(err.to_string().contains("codec"), "{err}");
    }

    #[test]
    fn unweighted_records_report_unit_weight() {
        let recs = EdgeRecords { data: vec![1, 0, 0, 0, 2, 0, 0, 0], weighted: false };
        assert_eq!(recs.len(), 2);
        assert_eq!(recs.neighbor(0), 1);
        assert_eq!(recs.neighbor(1), 2);
        assert_eq!(recs.weight(0), 1.0);
        assert_eq!(recs.into_iter().collect::<Vec<_>>(), [(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn walks_agree_with_the_indexed_accessors() {
        let mut data = Vec::new();
        for k in 0..5u32 {
            data.extend(k.to_le_bytes());
            data.extend((k as f32 * 0.5).to_le_bytes());
        }
        let recs = EdgeRecords { data, weighted: true };
        let indexed: Vec<(u32, f32)> = (1..4).map(|k| (recs.neighbor(k), recs.weight(k))).collect();
        assert_eq!(recs.walk(1, 4).collect::<Vec<_>>(), indexed);
        assert_eq!(recs.walk(2, 2).count(), 0);
        // Skipping ahead lands on the same record as walking there.
        assert_eq!(recs.into_iter().nth(3), Some((3, 1.5)));
        assert_eq!(recs.into_iter().skip(1).take(3).collect::<Vec<_>>(), indexed);
        assert_eq!(recs.into_iter().nth(5), None);
    }
}
