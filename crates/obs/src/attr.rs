//! Per-block I/O attribution — the telemetry "heatmap".
//!
//! The grid layout (P×P edge blocks, paper §3.1) makes *which block*
//! burned the bytes the natural unit of attribution: a skewed graph
//! concentrates traffic in a few hub blocks, and the hybrid's ROP/COP
//! choice changes which blocks are touched at all. This module keeps a
//! sharded map from block `(i, j)` to a bundle of relaxed atomic
//! counters (raw/encoded/decoded bytes, decoded-block cache hits/misses,
//! decode nanoseconds, retries) that the storage and engine layers feed.
//!
//! Attribution is gated by its own flag (env knob `HUS_HEATMAP`),
//! independent of the main metrics switch: when disabled every
//! instrumentation site is one relaxed load and a branch — measured in
//! the `telemetry_overhead` bench to keep the disabled path free.
//!
//! Layers that know their block (the per-block readers and the block
//! decoder in `hus-core::graph`) record directly with
//! [`record_at`]. Layers that see only file offsets (the retry wrapper,
//! the byte tracker) attribute to the *current block*: a thread-local
//! set by [`with_block`] around each per-block operation, so a retry
//! deep inside the backend stack still lands on the right cell of the
//! heatmap.

use serde::Serialize;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Env knob enabling per-block attribution (`1` turns the heatmap on).
pub const HEATMAP_ENV: &str = "HUS_HEATMAP";

/// Shard count for the block map (power of two; blocks hash by
/// `i * 31 + j` low bits so neighbouring blocks spread out).
const ATTR_SHARDS: usize = 16;

static HEATMAP: AtomicBool = AtomicBool::new(false);

/// Whether per-block attribution is collecting. The disabled fast path
/// is one relaxed load + branch per site.
#[inline(always)]
pub fn heatmap_enabled() -> bool {
    HEATMAP.load(Ordering::Relaxed)
}

/// Turn per-block attribution on or off globally.
pub fn set_heatmap_enabled(on: bool) {
    HEATMAP.store(on, Ordering::Relaxed);
}

/// What a per-block sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockStat {
    /// Bytes billed to the device (reads that reached a backend).
    RawBytes,
    /// Encoded (on-disk, post-codec) bytes fetched for this block.
    EncodedBytes,
    /// Decoded bytes produced for this block.
    DecodedBytes,
    /// Reads served from the decoded-block cache.
    CacheHits,
    /// Reads that missed the decoded-block cache and went to the device.
    CacheMisses,
    /// Nanoseconds spent decoding this block's shard payload.
    DecodeNs,
    /// Read retries (transient I/O errors and checksum re-verifies).
    Retries,
}

/// One block's counters (relaxed atomics; cheap to share via `Arc`).
#[derive(Debug, Default)]
struct BlockCounters {
    raw_bytes: AtomicU64,
    encoded_bytes: AtomicU64,
    decoded_bytes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    decode_ns: AtomicU64,
    retries: AtomicU64,
}

impl BlockCounters {
    fn add(&self, stat: BlockStat, n: u64) {
        let cell = match stat {
            BlockStat::RawBytes => &self.raw_bytes,
            BlockStat::EncodedBytes => &self.encoded_bytes,
            BlockStat::DecodedBytes => &self.decoded_bytes,
            BlockStat::CacheHits => &self.cache_hits,
            BlockStat::CacheMisses => &self.cache_misses,
            BlockStat::DecodeNs => &self.decode_ns,
            BlockStat::Retries => &self.retries,
        };
        cell.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self, i: u32, j: u32) -> BlockIo {
        BlockIo {
            i,
            j,
            raw_bytes: self.raw_bytes.load(Ordering::Relaxed),
            encoded_bytes: self.encoded_bytes.load(Ordering::Relaxed),
            decoded_bytes: self.decoded_bytes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one block's attribution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BlockIo {
    /// Source interval (grid row).
    pub i: u32,
    /// Destination interval (grid column).
    pub j: u32,
    /// Bytes billed to the device for this block.
    pub raw_bytes: u64,
    /// Encoded (post-codec) bytes fetched.
    pub encoded_bytes: u64,
    /// Decoded bytes produced.
    pub decoded_bytes: u64,
    /// Cache-served reads.
    pub cache_hits: u64,
    /// Cache-missing reads.
    pub cache_misses: u64,
    /// Nanoseconds spent decoding.
    pub decode_ns: u64,
    /// Read retries.
    pub retries: u64,
}

impl BlockIo {
    /// Fraction of cache touches served from cache (0.0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One shard of the block map, keyed by `(i, j)`.
type AttrShard = RwLock<HashMap<(u32, u32), Arc<BlockCounters>>>;

/// Sharded block → counters map.
struct BlockAttr {
    shards: Vec<AttrShard>,
}

impl BlockAttr {
    fn new() -> Self {
        BlockAttr { shards: (0..ATTR_SHARDS).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    fn shard(&self, i: u32, j: u32) -> &AttrShard {
        &self.shards[(i as usize).wrapping_mul(31).wrapping_add(j as usize) & (ATTR_SHARDS - 1)]
    }

    fn block(&self, i: u32, j: u32) -> Arc<BlockCounters> {
        let shard = self.shard(i, j);
        if let Some(b) = shard.read().unwrap().get(&(i, j)) {
            return Arc::clone(b);
        }
        Arc::clone(shard.write().unwrap().entry((i, j)).or_default())
    }
}

fn global() -> &'static BlockAttr {
    static GLOBAL: OnceLock<BlockAttr> = OnceLock::new();
    GLOBAL.get_or_init(BlockAttr::new)
}

thread_local! {
    static CURRENT_BLOCK: Cell<Option<(u32, u32)>> = const { Cell::new(None) };
}

/// Restores the previous thread-local block on drop (panic-safe).
struct BlockScope(Option<(u32, u32)>);

impl Drop for BlockScope {
    fn drop(&mut self) {
        CURRENT_BLOCK.with(|c| c.set(self.0));
    }
}

/// Run `f` with `(i, j)` as the thread's current block: storage layers
/// below that only see file offsets ([`record`] callers) attribute to
/// it. Scopes nest; the previous block is restored on exit, including
/// on unwind. When the heatmap is disabled this is one relaxed load
/// and a direct call.
#[inline]
pub fn with_block<R>(i: u32, j: u32, f: impl FnOnce() -> R) -> R {
    if !heatmap_enabled() {
        return f();
    }
    let _scope = BlockScope(CURRENT_BLOCK.with(|c| c.replace(Some((i, j)))));
    f()
}

/// The thread's current attribution block, if inside a [`with_block`]
/// scope (always `None` while the heatmap is disabled).
pub fn current_block() -> Option<(u32, u32)> {
    if !heatmap_enabled() {
        return None;
    }
    CURRENT_BLOCK.with(|c| c.get())
}

/// Attribute `n` units of `stat` to the thread's current block (no-op
/// outside a [`with_block`] scope or while the heatmap is disabled).
#[inline]
pub fn record(stat: BlockStat, n: u64) {
    if !heatmap_enabled() {
        return;
    }
    if let Some((i, j)) = CURRENT_BLOCK.with(|c| c.get()) {
        global().block(i, j).add(stat, n);
    }
}

/// Attribute `n` units of `stat` to block `(i, j)` directly (layers
/// that know their block, e.g. codec spans).
#[inline]
pub fn record_at(i: u32, j: u32, stat: BlockStat, n: u64) {
    if !heatmap_enabled() {
        return;
    }
    global().block(i, j).add(stat, n);
}

/// Snapshot every attributed block, sorted by `(i, j)`.
pub fn snapshot() -> Vec<BlockIo> {
    let mut out = Vec::new();
    for shard in &global().shards {
        for (&(i, j), c) in shard.read().unwrap().iter() {
            out.push(c.snapshot(i, j));
        }
    }
    out.sort_by_key(|b| (b.i, b.j));
    out
}

/// The `k` hottest blocks by raw (device-billed) bytes, descending;
/// ties broken by `(i, j)` so the order is deterministic.
pub fn top_k(k: usize) -> Vec<BlockIo> {
    let mut all = snapshot();
    all.sort_by(|a, b| b.raw_bytes.cmp(&a.raw_bytes).then(a.i.cmp(&b.i)).then(a.j.cmp(&b.j)));
    all.truncate(k);
    all
}

/// Drop every block's counters (tests and `hus top` between runs).
pub fn reset() {
    for shard in &global().shards {
        shard.write().unwrap().clear();
    }
}

/// Render the attributed blocks as a compact ASCII heatmap: one grid
/// cell per block, shaded by raw bytes relative to the hottest block
/// (` .:-=+*#%@`), rows = source interval `i`, columns = destination
/// interval `j`. Returns an empty string when nothing was attributed.
pub fn render_heatmap(blocks: &[BlockIo]) -> String {
    if blocks.is_empty() {
        return String::new();
    }
    let p = blocks.iter().map(|b| b.i.max(b.j) as usize + 1).max().unwrap_or(0);
    let max = blocks.iter().map(|b| b.raw_bytes).max().unwrap_or(0);
    let mut grid = vec![vec![0u64; p]; p];
    for b in blocks {
        grid[b.i as usize][b.j as usize] = b.raw_bytes;
    }
    const SHADES: &[u8] = b" .:-=+*#%@";
    let mut out = String::new();
    out.push_str("      j→ ");
    for j in 0..p {
        out.push_str(&format!("{:>2}", j % 100));
    }
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        out.push_str(&format!("  i={i:>3} [ "));
        for &v in row {
            let shade = if max == 0 || v == 0 {
                SHADES[0]
            } else {
                // Hottest block gets the densest shade; everything else
                // scales linearly into the remaining ramp.
                let idx = 1 + (v * (SHADES.len() as u64 - 2) / max) as usize;
                SHADES[idx.min(SHADES.len() - 1)]
            };
            out.push(shade as char);
            out.push(' ');
        }
        out.push_str("]\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-global heatmap flag.
    static HEATMAP_GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = HEATMAP_GATE.lock();
        set_heatmap_enabled(false);
        reset();
        record_at(1, 1, BlockStat::RawBytes, 100);
        with_block(2, 2, || record(BlockStat::CacheHits, 1));
        assert!(current_block().is_none());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn records_and_snapshots_per_block() {
        let _g = HEATMAP_GATE.lock();
        set_heatmap_enabled(true);
        reset();
        record_at(0, 1, BlockStat::RawBytes, 64);
        record_at(0, 1, BlockStat::RawBytes, 36);
        record_at(0, 1, BlockStat::DecodeNs, 500);
        record_at(2, 0, BlockStat::EncodedBytes, 10);
        let snap = snapshot();
        set_heatmap_enabled(false);
        assert_eq!(snap.len(), 2);
        assert_eq!((snap[0].i, snap[0].j, snap[0].raw_bytes, snap[0].decode_ns), (0, 1, 100, 500));
        assert_eq!((snap[1].i, snap[1].j, snap[1].encoded_bytes), (2, 0, 10));
    }

    #[test]
    fn with_block_scopes_nest_and_restore() {
        let _g = HEATMAP_GATE.lock();
        set_heatmap_enabled(true);
        reset();
        with_block(3, 4, || {
            assert_eq!(current_block(), Some((3, 4)));
            record(BlockStat::CacheMisses, 1);
            with_block(5, 6, || {
                assert_eq!(current_block(), Some((5, 6)));
                record(BlockStat::CacheHits, 2);
            });
            assert_eq!(current_block(), Some((3, 4)));
            record(BlockStat::Retries, 1);
        });
        assert_eq!(current_block(), None);
        // Outside any scope the sample is dropped, not misattributed.
        record(BlockStat::Retries, 9);
        let snap = snapshot();
        set_heatmap_enabled(false);
        assert_eq!(snap.len(), 2);
        let outer = snap.iter().find(|b| (b.i, b.j) == (3, 4)).unwrap();
        let inner = snap.iter().find(|b| (b.i, b.j) == (5, 6)).unwrap();
        assert_eq!((outer.cache_misses, outer.retries), (1, 1));
        assert_eq!(inner.cache_hits, 2);
    }

    #[test]
    fn top_k_orders_by_raw_bytes() {
        let _g = HEATMAP_GATE.lock();
        set_heatmap_enabled(true);
        reset();
        record_at(0, 0, BlockStat::RawBytes, 10);
        record_at(1, 1, BlockStat::RawBytes, 1000);
        record_at(2, 2, BlockStat::RawBytes, 100);
        let top = top_k(2);
        set_heatmap_enabled(false);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].i, top[0].raw_bytes), (1, 1000));
        assert_eq!((top[1].i, top[1].raw_bytes), (2, 100));
    }

    #[test]
    fn heatmap_render_shades_by_intensity() {
        let blocks = [
            BlockIo { i: 0, j: 0, raw_bytes: 1000, ..Default::default() },
            BlockIo { i: 1, j: 1, raw_bytes: 1, ..Default::default() },
        ];
        let art = render_heatmap(&blocks);
        assert!(art.contains('@'), "hottest block gets densest shade:\n{art}");
        assert!(art.contains("i=  0"));
        assert_eq!(art.lines().count(), 3, "header + 2 rows:\n{art}");
        assert_eq!(render_heatmap(&[]), "");
    }

    #[test]
    fn hit_rate_is_nan_free() {
        assert_eq!(BlockIo::default().hit_rate(), 0.0);
        let b = BlockIo { cache_hits: 3, cache_misses: 1, ..Default::default() };
        assert_eq!(b.hit_rate(), 0.75);
    }
}
