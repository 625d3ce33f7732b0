//! Decoding view over an encoded shard file: a [`CodecBackend`] wraps
//! the tracked backend stack and presents the shard's *decoded*
//! address space, so every existing reader (COP streams, ROP selective
//! loads, batched range reads) keeps addressing blocks by logical
//! record offsets while the bytes actually travelling from the device
//! are the codec-compressed payload.
//!
//! Placement in the stack: `Codec( Cached?( Retry( Fault?( File|Mmap ))))`
//! — decoding sits *above* billing, so the tracker records the encoded
//! (on-disk) byte counts, which is exactly what the ROP/COP cost
//! predictor consumes.
//!
//! Read semantics per request shape:
//!
//! * **Full-block sequential reads** (COP streams) decode straight into
//!   the caller's buffer through a reusable thread-local scratch and
//!   are *not* cached: a stream pays its encoded bytes every
//!   iteration, preserving the out-of-core billing model.
//! * **Partial reads** (ROP selective loads, batched ranges) fetch and
//!   decode the whole containing block once, park the decoded block in
//!   a small per-file LRU cache ([`DEFAULT_DECODED_CACHE_BYTES`]), and
//!   serve the requested slice. Later touches of the same block are
//!   cache hits: zero device I/O billed, zero decode time.
//!
//! Checksums: when verification is on, the CRC-32C from the shard
//! footer is checked against the **encoded** payload on every fetch —
//! a corrupt block is therefore detected before the decoder ever sees
//! it, for *any* read shape (this closes the ROP partial-read
//! verification gap for compressed graphs; see DESIGN.md §9).

use crate::cache::CacheStats;
use crate::checksum::crc32c;
use crate::error::{Result, StorageError};
use crate::retry::ResilienceTracker;
use crate::tracker::Access;
use crate::ReadBackend;
use hus_codec::EdgeBlockCodec;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Decoded-block cache budget per shard file.
pub const DEFAULT_DECODED_CACHE_BYTES: usize = 16 << 20;

/// Shards of the decoded-block cache (power of two; keyed by the low
/// bits of the block index, like [`crate::cache::CachedBackend`]).
const CACHE_SHARDS: usize = 8;

const PER_SHARD_BUDGET: usize = DEFAULT_DECODED_CACHE_BYTES / CACHE_SHARDS;

/// Encoded bytes fetched from the device by codec backends.
static ENCODED_BYTES: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("storage.codec.encoded_bytes_read");
/// Decoded bytes produced by codec backends.
static DECODED_BYTES: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("storage.codec.decoded_bytes");
/// Nanoseconds spent decoding one block.
static DECODE_NS: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("storage.codec.decode_ns");
/// Partial reads served from the decoded-block cache (no I/O, no decode).
static CACHE_HITS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("storage.codec.cache_hits");
/// Partial reads that had to fetch and decode their block.
static CACHE_MISSES: hus_obs::LazyCounter = hus_obs::LazyCounter::new("storage.codec.cache_misses");

thread_local! {
    /// Reusable scratch buffer for a block's encoded bytes.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Where one block lives in the decoded and encoded address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// Grid coordinates `(i, j)` for error reports.
    pub id: (u32, u32),
    /// Byte offset of the block in the decoded address space.
    pub decoded_offset: u64,
    /// Decoded length in bytes (`edge_count * record_bytes`).
    pub decoded_len: u64,
    /// Byte offset of the encoded payload within the file.
    pub encoded_offset: u64,
    /// Encoded payload length in bytes.
    pub encoded_len: u64,
}

struct CacheEntry {
    data: Arc<Vec<u8>>,
    stamp: u64,
}

#[derive(Default)]
struct CacheShard {
    blocks: HashMap<usize, CacheEntry>,
    bytes: usize,
    clock: u64,
}

/// Decoding [`ReadBackend`] over an encoded shard file. See the module
/// docs for the read semantics.
pub struct CodecBackend {
    inner: Arc<dyn ReadBackend>,
    codec: &'static dyn EdgeBlockCodec,
    /// Record width in bytes (4 unweighted, 8 weighted).
    record_bytes: usize,
    spans: Vec<BlockSpan>,
    decoded_total: u64,
    /// Per-block CRC-32C of the *encoded* payload, from the shard
    /// footer (absent when the graph was built without checksums).
    crcs: Option<Vec<u32>>,
    /// Shared verification switch (the graph toggles it per run).
    verify: Arc<AtomicBool>,
    path: PathBuf,
    resilience: Arc<ResilienceTracker>,
    cache: Vec<Mutex<CacheShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CodecBackend {
    /// Wrap `inner` (the tracked backend stack for one shard file) with
    /// a decoding view. `record_bytes` is the record width (4
    /// unweighted, 8 weighted); `spans` lists every block in
    /// decoded-offset order, starting at decoded offset 0 with no gaps;
    /// `crcs` are the footer's per-block checksums over the encoded
    /// payload, checked whenever `verify` is set.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        inner: Arc<dyn ReadBackend>,
        codec: &'static dyn EdgeBlockCodec,
        record_bytes: usize,
        spans: Vec<BlockSpan>,
        crcs: Option<Vec<u32>>,
        verify: Arc<AtomicBool>,
        path: PathBuf,
        resilience: Arc<ResilienceTracker>,
    ) -> Self {
        debug_assert!(spans
            .windows(2)
            .all(|w| w[0].decoded_offset + w[0].decoded_len == w[1].decoded_offset));
        debug_assert!(spans.first().is_none_or(|s| s.decoded_offset == 0));
        if let Some(crcs) = &crcs {
            assert_eq!(crcs.len(), spans.len(), "one footer CRC per block");
        }
        let decoded_total = spans.last().map_or(0, |s| s.decoded_offset + s.decoded_len);
        CodecBackend {
            inner,
            codec,
            record_bytes,
            spans,
            decoded_total,
            crcs,
            verify,
            path,
            resilience,
            cache: (0..CACHE_SHARDS).map(|_| Mutex::new(CacheShard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Hit/miss/eviction counters of this file's decoded-block cache.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The codec decoding this file.
    pub fn codec(&self) -> &'static dyn EdgeBlockCodec {
        self.codec
    }

    fn shard_of(&self, block: usize) -> &Mutex<CacheShard> {
        &self.cache[block & (CACHE_SHARDS - 1)]
    }

    fn cached(&self, block: usize) -> Option<Arc<Vec<u8>>> {
        let mut shard = self.shard_of(block).lock();
        let stamp = shard.clock;
        shard.clock += 1;
        shard.blocks.get_mut(&block).map(|e| {
            e.stamp = stamp;
            Arc::clone(&e.data)
        })
    }

    fn insert(&self, block: usize, data: Arc<Vec<u8>>) {
        if data.len() > PER_SHARD_BUDGET {
            return; // oversized for the budget; serve uncached
        }
        let mut shard = self.shard_of(block).lock();
        while shard.bytes + data.len() > PER_SHARD_BUDGET {
            let Some((&victim, _)) = shard.blocks.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            if let Some(e) = shard.blocks.remove(&victim) {
                shard.bytes -= e.data.len();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = shard.clock;
        shard.clock += 1;
        shard.bytes += data.len();
        shard.blocks.insert(block, CacheEntry { data, stamp });
    }

    /// Fetch block `b`'s encoded payload (billed to `access` through
    /// the inner stack), verify it against the footer CRC, and decode
    /// it into `out` (sized to the block's exact decoded length).
    fn fetch_decode(&self, b: usize, access: Access, out: &mut [u8]) -> Result<()> {
        let span = self.spans[b];
        debug_assert_eq!(out.len() as u64, span.decoded_len);
        SCRATCH.with(|scratch| {
            let mut enc = scratch.borrow_mut();
            enc.resize(span.encoded_len as usize, 0);
            // The inner read runs under this block's attribution scope,
            // so layers below (tracker, page cache, retry) land their
            // samples on the right heatmap cell.
            hus_obs::attr::with_block(span.id.0, span.id.1, || {
                self.inner.read_at(span.encoded_offset, &mut enc, access)
            })?;
            ENCODED_BYTES.add(span.encoded_len);
            hus_obs::attr::record_at(
                span.id.0,
                span.id.1,
                hus_obs::BlockStat::EncodedBytes,
                span.encoded_len,
            );
            if self.verify.load(Ordering::Relaxed) {
                if let Some(crcs) = &self.crcs {
                    let actual = crc32c(&enc);
                    if actual != crcs[b] {
                        self.resilience.record_checksum_failure();
                        hus_obs::attr::record_at(
                            span.id.0,
                            span.id.1,
                            hus_obs::BlockStat::Retries,
                            1,
                        );
                        return Err(StorageError::ChecksumMismatch {
                            path: self.path.clone(),
                            block: span.id,
                            offset: span.encoded_offset,
                            expected: crcs[b],
                            actual,
                        });
                    }
                }
            }
            let t0 =
                (hus_obs::enabled() || hus_obs::heatmap_enabled()).then(std::time::Instant::now);
            self.codec.decode(&enc, self.record_bytes, out).map_err(|e| {
                StorageError::Corrupt(format!(
                    "{}: block ({}, {}): {} decode failed: {e}",
                    self.path.display(),
                    span.id.0,
                    span.id.1,
                    self.codec.name(),
                ))
            })?;
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                DECODE_NS.record(ns);
                hus_obs::attr::record_at(span.id.0, span.id.1, hus_obs::BlockStat::DecodeNs, ns);
            }
            DECODED_BYTES.add(span.decoded_len);
            hus_obs::attr::record_at(
                span.id.0,
                span.id.1,
                hus_obs::BlockStat::DecodedBytes,
                span.decoded_len,
            );
            Ok(())
        })
    }
}

impl ReadBackend for CodecBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let end = offset + buf.len() as u64;
        if end > self.decoded_total {
            return Err(StorageError::OutOfBounds {
                offset,
                len: buf.len() as u64,
                file_len: self.decoded_total,
            });
        }
        // First block whose decoded span extends past `offset`.
        let mut b = self.spans.partition_point(|s| s.decoded_offset + s.decoded_len <= offset);
        let mut cur = offset;
        let mut written = 0usize;
        while cur < end {
            let span = self.spans[b];
            let take_end = end.min(span.decoded_offset + span.decoded_len);
            if take_end == cur {
                b += 1; // empty block sharing this decoded offset
                continue;
            }
            let in_block = (cur - span.decoded_offset) as usize;
            let n = (take_end - cur) as usize;
            let dst = &mut buf[written..written + n];
            let whole_block = n as u64 == span.decoded_len;
            if let Some(data) = self.cached(b) {
                // Zero decode, zero billed I/O on a hit.
                dst.copy_from_slice(&data[in_block..in_block + n]);
                self.hits.fetch_add(1, Ordering::Relaxed);
                CACHE_HITS.incr();
                hus_obs::attr::record_at(span.id.0, span.id.1, hus_obs::BlockStat::CacheHits, 1);
            } else if whole_block && access == Access::Sequential {
                // COP stream: decode straight into the caller, uncached.
                self.fetch_decode(b, access, dst)?;
            } else {
                let mut data = vec![0u8; span.decoded_len as usize];
                self.fetch_decode(b, access, &mut data)?;
                dst.copy_from_slice(&data[in_block..in_block + n]);
                self.misses.fetch_add(1, Ordering::Relaxed);
                CACHE_MISSES.incr();
                hus_obs::attr::record_at(span.id.0, span.id.1, hus_obs::BlockStat::CacheMisses, 1);
                self.insert(b, Arc::new(data));
            }
            written += n;
            cur = take_end;
            b += 1;
        }
        Ok(())
    }

    // `read_ranges` keeps the trait's per-range loop: the first range
    // touching a block decodes and caches it; the rest are hits, so a
    // batched selective plan bills each block's encoded bytes once.

    fn len(&self) -> u64 {
        self.decoded_total
    }

    fn is_resident(&self, offset: u64) -> bool {
        // A peek: unlike `cached`, it must not refresh the LRU stamp.
        let b = self.spans.partition_point(|s| s.decoded_offset + s.decoded_len <= offset);
        b < self.spans.len() && self.shard_of(b).lock().blocks.contains_key(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::StorageDir;
    use hus_codec::{Codec, DeltaVarintCodec};

    /// Write two delta-varint blocks into a file and return the
    /// backend plus the dir (for tracker assertions) and raw payloads.
    fn setup(verify_on: bool) -> (tempfile::TempDir, StorageDir, CodecBackend, Vec<Vec<u8>>) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let blocks: Vec<Vec<u32>> =
            vec![(0..300).map(|k| 1000 + k * 3).collect(), vec![], (0..50).rev().collect()];
        let raw: Vec<Vec<u8>> =
            blocks.iter().map(|ns| ns.iter().flat_map(|n| n.to_le_bytes()).collect()).collect();
        let mut spans = Vec::new();
        let mut crcs = Vec::new();
        let mut w = dir.writer("b.edges").unwrap();
        let mut decoded_offset = 0u64;
        for (i, r) in raw.iter().enumerate() {
            let mut enc = Vec::new();
            Codec::DeltaVarint.encode(r, 4, &mut enc);
            spans.push(BlockSpan {
                id: (i as u32, 0),
                decoded_offset,
                decoded_len: r.len() as u64,
                encoded_offset: w.position(),
                encoded_len: enc.len() as u64,
            });
            crcs.push(crc32c(&enc));
            w.write_all(&enc).unwrap();
            decoded_offset += r.len() as u64;
        }
        w.finish().unwrap();
        let backend = CodecBackend::new(
            dir.reader("b.edges").unwrap(),
            &DeltaVarintCodec,
            4,
            spans,
            Some(crcs),
            Arc::new(AtomicBool::new(verify_on)),
            tmp.path().join("s/b.edges"),
            dir.resilience(),
        );
        (tmp, dir, backend, raw)
    }

    #[test]
    fn decoded_address_space_matches_raw_layout() {
        let (_t, _d, backend, raw) = setup(false);
        let flat: Vec<u8> = raw.concat();
        assert_eq!(backend.len(), flat.len() as u64);
        // Whole-file sequential read crossing all blocks (including the
        // empty one).
        let mut all = vec![0u8; flat.len()];
        backend.read_at(0, &mut all, Access::Sequential).unwrap();
        assert_eq!(all, flat);
        // Arbitrary partial reads, including block-straddling ones.
        for (off, n) in [(0usize, 7), (1197, 10), (3, 1200), (1300, 50)] {
            let mut buf = vec![0u8; n];
            backend.read_at(off as u64, &mut buf, Access::Random).unwrap();
            assert_eq!(buf, &flat[off..off + n], "offset {off} len {n}");
        }
        // Out-of-bounds reads are rejected like any backend.
        let mut buf = [0u8; 8];
        assert!(matches!(
            backend.read_at(flat.len() as u64 - 4, &mut buf, Access::Random),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn partial_reads_bill_encoded_bytes_once_then_hit_cache() {
        let (_t, dir, backend, raw) = setup(false);
        dir.tracker().reset();
        let mut buf = [0u8; 8];
        backend.read_at(100, &mut buf, Access::Random).unwrap();
        let billed = dir.tracker().snapshot().rand_read_bytes;
        let enc0 = backend.spans[0].encoded_len;
        assert_eq!(billed, enc0, "miss bills the block's encoded bytes");
        assert!(enc0 < raw[0].len() as u64, "payload actually compressed");
        // Re-reads of the same block are decoded-cache hits: free.
        for off in [0u64, 40, 1100] {
            backend.read_at(off, &mut buf, Access::Random).unwrap();
        }
        assert_eq!(dir.tracker().snapshot().rand_read_bytes, billed);
        let s = backend.cache_stats();
        assert_eq!((s.hits, s.misses), (3, 1));
    }

    #[test]
    fn sequential_full_block_reads_stay_uncached() {
        let (_t, dir, backend, raw) = setup(false);
        dir.tracker().reset();
        let mut buf = vec![0u8; raw[0].len()];
        backend.read_at(0, &mut buf, Access::Sequential).unwrap();
        backend.read_at(0, &mut buf, Access::Sequential).unwrap();
        // Streams bill their encoded bytes every pass (out-of-core
        // model: a stream does not pollute the decoded cache).
        assert_eq!(dir.tracker().snapshot().seq_read_bytes, 2 * backend.spans[0].encoded_len);
        assert_eq!(backend.cache_stats().hits, 0);
    }

    #[test]
    fn verification_catches_encoded_corruption_for_partial_reads() {
        let (tmp, dir, backend, _raw) = setup(true);
        // Flip one byte inside block 2's *encoded* payload on disk.
        let path = tmp.path().join("s/b.edges");
        let mut bytes = std::fs::read(&path).unwrap();
        let off = backend.spans[2].encoded_offset as usize + 1;
        bytes[off] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        // A *partial* (2-record) read of the damaged block is detected:
        // encoded-payload CRCs cover every read shape.
        let mut buf = [0u8; 8];
        let err = backend.read_at(backend.spans[2].decoded_offset, &mut buf, Access::Random);
        match err {
            Err(StorageError::ChecksumMismatch { block, offset, .. }) => {
                assert_eq!(block, (2, 0));
                assert_eq!(offset, backend.spans[2].encoded_offset);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        assert_eq!(dir.resilience().snapshot().checksum_failures, 1);
        // Undamaged blocks still read clean.
        backend.read_at(0, &mut buf, Access::Random).unwrap();
    }

    #[test]
    fn decode_failure_is_reported_as_corruption() {
        let (tmp, _dir, backend, _raw) = setup(false);
        // Truncate block 2's varint stream by overwriting its tail with
        // continuation bytes; CRC is off, so the decoder sees it.
        let path = tmp.path().join("s/b.edges");
        let mut bytes = std::fs::read(&path).unwrap();
        let span = backend.spans[2];
        for b in &mut bytes
            [span.encoded_offset as usize..(span.encoded_offset + span.encoded_len) as usize]
        {
            *b = 0x80;
        }
        std::fs::write(&path, &bytes).unwrap();
        let mut buf = vec![0u8; span.decoded_len as usize];
        let err = backend.read_at(span.decoded_offset, &mut buf, Access::Sequential).unwrap_err();
        assert!(matches!(&err, StorageError::Corrupt(m) if m.contains("delta-varint")), "{err}");
        assert!(err.is_corruption());
    }
}
