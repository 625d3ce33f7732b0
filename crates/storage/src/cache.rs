//! A sharded LRU page cache over any [`ReadBackend`] — a controllable
//! stand-in for the OS page cache.
//!
//! Out-of-core evaluations (the paper gives every system an 8 GB memory
//! budget, §4.1) are really evaluations of what happens *below* the
//! cache. Wrapping a backend in a [`CachedBackend`] with a fixed byte
//! budget lets experiments model that budget explicitly: reads served
//! from cache are **not** billed to the tracker (they never reach the
//! device), and hit/miss counters expose the cache's effectiveness.
//!
//! Pages are fixed-size; a read spanning `k` pages touches each of them
//! (misses fetch whole pages from the inner backend — one page-sized
//! inner read per missing page, billed sequential/batched since a page
//! fetch is one contiguous transfer).
//!
//! The page map is split into power-of-two **shards**, each with its own
//! LRU clock, page table and stats, selected by the low bits of the page
//! number. Concurrent readers (parallel ROP rows, COP column workers)
//! therefore contend only when they touch the same shard; the
//! `storage.cache.shard_contention` counter records how often a reader
//! found its shard lock held.

use crate::error::Result;
use crate::tracker::Access;
use crate::ReadBackend;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default page size (64 KiB — one large sequential read request).
pub const DEFAULT_PAGE_BYTES: usize = 64 << 10;

/// Upper bound on the default shard count (per-cache; explicit
/// [`CachedBackend::with_shards`] callers may exceed it).
pub const MAX_DEFAULT_SHARDS: usize = 64;

/// Process-wide cache effectiveness counters (sum across all caches).
/// The hit counter is flushed in [`GLOBAL_HIT_FLUSH`]-sized batches per
/// shard — a per-hit RMW on one shared cacheline would serialise the
/// very hit path sharding parallelises. Exact counts (including the
/// unflushed tail) live in each cache's [`CacheStats`].
static HITS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("storage.cache.hits");
static MISSES: hus_obs::LazyCounter = hus_obs::LazyCounter::new("storage.cache.misses");
static EVICTIONS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("storage.cache.evictions");
/// Times a reader found its shard lock held by another thread.
static SHARD_CONTENTION: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("storage.cache.shard_contention");
/// Nanoseconds to fetch one page from the inner backend on a miss.
static PAGE_FETCH_NS: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("storage.cache.page_fetch_ns");

/// Hits accumulated in a shard between flushes of the process-wide
/// [`HITS`] counter.
const GLOBAL_HIT_FLUSH: u64 = 1024;

/// Cache hit/miss counters (one shard's, or the aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Pages served from cache.
    pub hits: u64,
    /// Pages fetched from the inner backend.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of page touches served from cache.
    ///
    /// Returns 0.0 when no pages have been touched at all (`hits +
    /// misses == 0`) — an empty run has no hit rate, and callers that
    /// divide dashboards by it must not see `NaN`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Element-wise sum (used to aggregate shard stats).
    fn plus(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

struct PageEntry {
    data: Vec<u8>,
    /// Last-touch stamp for LRU eviction (shard-local clock).
    stamp: u64,
}

struct ShardState {
    pages: HashMap<u64, PageEntry>,
    stats: CacheStats,
}

struct Shard {
    clock: AtomicU64,
    max_pages: usize,
    state: Mutex<ShardState>,
}

impl Shard {
    fn new(max_pages: usize) -> Self {
        Shard {
            clock: AtomicU64::new(0),
            max_pages,
            state: Mutex::new(ShardState { pages: HashMap::new(), stats: CacheStats::default() }),
        }
    }

    /// Lock the shard, counting the times the lock was already held.
    fn lock(&self) -> parking_lot::MutexGuard<'_, ShardState> {
        match self.state.try_lock() {
            Some(guard) => guard,
            None => {
                SHARD_CONTENTION.incr();
                self.state.lock()
            }
        }
    }
}

/// Sharded LRU page cache wrapping an inner backend. See the module docs.
///
/// ```
/// use hus_storage::{Access, CachedBackend, ReadBackend, StorageDir};
///
/// let tmp = tempfile::tempdir().unwrap();
/// let dir = StorageDir::create(tmp.path().join("s")).unwrap();
/// let mut w = dir.writer("data.bin").unwrap();
/// w.write_all(&[7u8; 4096]).unwrap();
/// w.finish().unwrap();
///
/// let cached = CachedBackend::with_budget(dir.reader("data.bin").unwrap(), 1 << 20);
/// let mut buf = [0u8; 16];
/// cached.read_at(0, &mut buf, Access::Random).unwrap(); // miss: billed
/// cached.read_at(0, &mut buf, Access::Random).unwrap(); // hit: free
/// assert_eq!(cached.stats().hits, 1);
/// ```
pub struct CachedBackend<B> {
    inner: B,
    page_bytes: usize,
    shards: Vec<Shard>,
}

/// Largest power of two `<= n` (1 for `n == 0`).
fn floor_pow2(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

fn default_shards() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.next_power_of_two().min(MAX_DEFAULT_SHARDS)
}

impl<B: ReadBackend> CachedBackend<B> {
    /// Cache up to `budget_bytes` of `inner` in `page_bytes` pages,
    /// sharded for the machine's core count.
    pub fn new(inner: B, budget_bytes: usize, page_bytes: usize) -> Self {
        Self::with_shards(inner, budget_bytes, page_bytes, default_shards())
    }

    /// Cache with the default page size and shard count.
    pub fn with_budget(inner: B, budget_bytes: usize) -> Self {
        Self::new(inner, budget_bytes, DEFAULT_PAGE_BYTES)
    }

    /// Cache with an explicit shard count, rounded up to a power of two
    /// and clamped so every shard holds at least one page without
    /// exceeding the byte budget (`shards <= total page budget`). Pass 1
    /// for the old single-lock behavior (deterministic global LRU).
    pub fn with_shards(inner: B, budget_bytes: usize, page_bytes: usize, shards: usize) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        let max_pages = (budget_bytes / page_bytes).max(1);
        let n = shards.max(1).next_power_of_two().min(floor_pow2(max_pages));
        let per_shard = (max_pages / n).max(1);
        CachedBackend { inner, page_bytes, shards: (0..n).map(|_| Shard::new(per_shard)).collect() }
    }

    /// Number of shards (always a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate hit/miss counters across all shards.
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, s| acc.plus(&s.state.lock().stats))
    }

    /// Per-shard hit/miss counters, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.state.lock().stats).collect()
    }

    /// Drop every cached page in every shard (counters survive).
    pub fn clear(&self) {
        for s in &self.shards {
            s.state.lock().pages.clear();
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn shard_of(&self, page: u64) -> &Shard {
        &self.shards[page as usize & (self.shards.len() - 1)]
    }

    fn load_page(&self, page: u64, access: Access) -> Result<Vec<u8>> {
        let start = page * self.page_bytes as u64;
        let len = (self.inner.len().saturating_sub(start)).min(self.page_bytes as u64) as usize;
        let mut buf = vec![0u8; len];
        if len > 0 {
            // A miss fetches one contiguous page regardless of how small
            // the caller's request was: a scattered (Random) request is
            // therefore billed at the batched-sweep rate — the effective
            // small-request random throughput already assumes requests
            // far below a page.
            let billed = match access {
                Access::Random => Access::Batched,
                other => other,
            };
            let t0 = hus_obs::latency_timer();
            self.inner.read_at(start, &mut buf, billed)?;
            PAGE_FETCH_NS.record_elapsed(t0);
        }
        Ok(buf)
    }
}

impl<B: ReadBackend> ReadBackend for CachedBackend<B> {
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        if offset + buf.len() as u64 > self.inner.len() {
            return Err(crate::StorageError::OutOfBounds {
                offset,
                len: buf.len() as u64,
                file_len: self.inner.len(),
            });
        }
        let first = offset / self.page_bytes as u64;
        let last = (offset + buf.len() as u64 - 1) / self.page_bytes as u64;
        let mut written = 0usize;
        for page in first..=last {
            let page_start = page * self.page_bytes as u64;
            // Slice of this page the caller wants.
            let want_start = offset.max(page_start);
            let want_end = (offset + buf.len() as u64).min(page_start + self.page_bytes as u64);
            let in_page = (want_start - page_start) as usize;
            let n = (want_end - want_start) as usize;

            let shard = self.shard_of(page);
            let stamp = shard.clock.fetch_add(1, Ordering::Relaxed);
            // Fast path: copy straight from the resident page into the
            // caller's buffer under the shard lock — no intermediate
            // allocation on the hit path. Fetch outside the lock on miss.
            // `None` = miss; `Some(flush)` = hit, flushing a batch of
            // shard-local hits into the global counter when due.
            let served = {
                let mut state = shard.lock();
                if let Some(entry) = state.pages.get_mut(&page) {
                    entry.stamp = stamp;
                    buf[written..written + n].copy_from_slice(&entry.data[in_page..in_page + n]);
                    state.stats.hits += 1;
                    Some(state.stats.hits.is_multiple_of(GLOBAL_HIT_FLUSH))
                } else {
                    None
                }
            };
            if let Some(flush) = served {
                if flush {
                    HITS.add(GLOBAL_HIT_FLUSH);
                }
                hus_obs::attr::record(hus_obs::BlockStat::CacheHits, 1);
            } else {
                let data = self.load_page(page, access)?;
                buf[written..written + n].copy_from_slice(&data[in_page..in_page + n]);
                MISSES.incr();
                hus_obs::attr::record(hus_obs::BlockStat::CacheMisses, 1);
                let mut state = shard.lock();
                state.stats.misses += 1;
                if state.pages.len() >= shard.max_pages {
                    // Evict the shard's least-recently used page.
                    if let Some((&victim, _)) = state.pages.iter().min_by_key(|(_, e)| e.stamp) {
                        state.pages.remove(&victim);
                        state.stats.evictions += 1;
                        EVICTIONS.incr();
                    }
                }
                state.pages.insert(page, PageEntry { data, stamp });
            }
            written += n;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::StorageDir;
    use crate::tracker::IoTracker;
    use std::sync::Arc;

    fn backing(data: &[u8]) -> (tempfile::TempDir, StorageDir) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let mut w = dir.writer("f.bin").unwrap();
        w.write_all(data).unwrap();
        w.finish().unwrap();
        (tmp, dir)
    }

    #[test]
    fn repeated_reads_hit_cache_and_skip_tracker() {
        let data: Vec<u8> = (0..255u8).cycle().take(10_000).collect();
        let (_t, dir) = backing(&data);
        dir.tracker().reset();
        let cached = CachedBackend::new(dir.reader("f.bin").unwrap(), 1 << 20, 1024);
        let mut buf = [0u8; 100];
        cached.read_at(500, &mut buf, Access::Random).unwrap();
        assert_eq!(&buf[..], &data[500..600]);
        let billed_after_first = dir.tracker().snapshot().total_bytes();
        assert!(billed_after_first > 0, "first read misses");
        for _ in 0..10 {
            cached.read_at(500, &mut buf, Access::Random).unwrap();
        }
        assert_eq!(
            dir.tracker().snapshot().total_bytes(),
            billed_after_first,
            "hits must not be billed"
        );
        let s = cached.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 10);
        assert!(s.hit_rate() > 0.9);
    }

    #[test]
    fn reads_spanning_pages_assemble_correctly() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let (_t, dir) = backing(&data);
        let cached = CachedBackend::new(dir.reader("f.bin").unwrap(), 1 << 20, 256);
        let mut buf = vec![0u8; 1000];
        cached.read_at(100, &mut buf, Access::Sequential).unwrap();
        assert_eq!(&buf[..], &data[100..1100]);
        assert_eq!(cached.stats().misses, 5, "offsets 100..1100 touch 5 pages of 256");
    }

    #[test]
    fn lru_evicts_oldest_under_pressure() {
        let data = vec![7u8; 4096];
        let (_t, dir) = backing(&data);
        // Two-page budget; one shard so the LRU order is global and
        // deterministic.
        let cached = CachedBackend::with_shards(dir.reader("f.bin").unwrap(), 512, 256, 1);
        assert_eq!(cached.num_shards(), 1);
        let mut b = [0u8; 1];
        cached.read_at(0, &mut b, Access::Random).unwrap(); // page 0
        cached.read_at(256, &mut b, Access::Random).unwrap(); // page 1
        cached.read_at(0, &mut b, Access::Random).unwrap(); // refresh page 0
        cached.read_at(512, &mut b, Access::Random).unwrap(); // evicts page 1
        assert_eq!(cached.stats().evictions, 1);
        cached.read_at(0, &mut b, Access::Random).unwrap(); // page 0 survived
        assert_eq!(cached.stats().hits, 2);
        cached.read_at(256, &mut b, Access::Random).unwrap(); // page 1 is gone
        assert_eq!(cached.stats().misses, 4);
    }

    #[test]
    fn tail_page_is_partial() {
        let data = vec![9u8; 300];
        let (_t, dir) = backing(&data);
        let cached = CachedBackend::new(dir.reader("f.bin").unwrap(), 1 << 20, 256);
        let mut buf = vec![0u8; 44];
        cached.read_at(256, &mut buf, Access::Sequential).unwrap();
        assert_eq!(buf, vec![9u8; 44]);
        assert_eq!(cached.len(), 300);
        // Reading past the end still errors through the page fetch.
        let mut over = vec![0u8; 100];
        assert!(cached.read_at(256, &mut over, Access::Sequential).is_err());
    }

    #[test]
    fn clear_drops_pages_but_keeps_counters() {
        let data = vec![1u8; 2048];
        let (_t, dir) = backing(&data);
        let cached = CachedBackend::with_budget(dir.reader("f.bin").unwrap(), 1 << 20);
        let mut b = [0u8; 8];
        cached.read_at(0, &mut b, Access::Random).unwrap();
        cached.clear();
        cached.read_at(0, &mut b, Access::Random).unwrap();
        assert_eq!(cached.stats().misses, 2);
    }

    #[test]
    fn hit_rate_is_zero_on_untouched_cache() {
        // Satellite: the documented empty-run behavior, both on the
        // plain struct and a cache nothing ever read through.
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let (_t, dir) = backing(&[0u8; 64]);
        let cached = CachedBackend::with_budget(dir.reader("f.bin").unwrap(), 1 << 20);
        assert_eq!(cached.stats().hit_rate(), 0.0);
        assert!(!cached.stats().hit_rate().is_nan());
    }

    #[test]
    fn hit_rate_counters_survive_clear() {
        let data = vec![5u8; 1024];
        let (_t, dir) = backing(&data);
        let cached = CachedBackend::with_shards(dir.reader("f.bin").unwrap(), 1 << 20, 256, 1);
        let mut b = [0u8; 4];
        cached.read_at(0, &mut b, Access::Random).unwrap(); // miss
        cached.read_at(0, &mut b, Access::Random).unwrap(); // hit
        assert_eq!(cached.stats().hit_rate(), 0.5);
        cached.clear();
        // clear() drops pages, not history: the rate is unchanged until
        // new touches dilute it.
        assert_eq!(cached.stats().hit_rate(), 0.5);
        cached.read_at(0, &mut b, Access::Random).unwrap(); // miss again
        let s = cached.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn shard_stats_aggregate_to_totals() {
        let data = vec![2u8; 64 * 256];
        let (_t, dir) = backing(&data);
        let cached = CachedBackend::with_shards(dir.reader("f.bin").unwrap(), 1 << 20, 256, 4);
        assert_eq!(cached.num_shards(), 4);
        let mut b = [0u8; 1];
        for page in 0..16u64 {
            cached.read_at(page * 256, &mut b, Access::Random).unwrap();
            cached.read_at(page * 256, &mut b, Access::Random).unwrap();
        }
        let per_shard = cached.shard_stats();
        assert_eq!(per_shard.len(), 4);
        // Pages 0..16 spread evenly over 4 shards by low bits.
        for s in &per_shard {
            assert_eq!(s.misses, 4);
            assert_eq!(s.hits, 4);
        }
        let total = cached.stats();
        assert_eq!(total.misses, per_shard.iter().map(|s| s.misses).sum::<u64>());
        assert_eq!(total.hits, 16);
    }

    #[test]
    fn shard_count_is_clamped_to_page_budget() {
        let (_t, dir) = backing(&[0u8; 1024]);
        // 2-page budget cannot support 8 shards; clamp keeps total
        // capacity within the byte budget.
        let cached = CachedBackend::with_shards(dir.reader("f.bin").unwrap(), 512, 256, 8);
        assert_eq!(cached.num_shards(), 2);
        let one = CachedBackend::with_shards(dir.reader("f.bin").unwrap(), 256, 256, 8);
        assert_eq!(one.num_shards(), 1);
    }

    #[test]
    fn concurrent_readers_see_consistent_data() {
        let data: Vec<u8> = (0..=255u8).cycle().take(64 * 1024).collect();
        let (_t, dir) = backing(&data);
        let cached = Arc::new(CachedBackend::new(dir.reader("f.bin").unwrap(), 16 << 10, 1024));
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let cached = Arc::clone(&cached);
                let data = &data;
                scope.spawn(move || {
                    let mut buf = [0u8; 64];
                    for i in 0..200usize {
                        let off = ((t * 7919 + i * 524287) % (data.len() - 64)) as u64;
                        cached.read_at(off, &mut buf, Access::Random).unwrap();
                        assert_eq!(&buf[..], &data[off as usize..off as usize + 64]);
                    }
                });
            }
        });
        let s = cached.stats();
        assert!(s.hits + s.misses >= 1600, "every page touch is counted");
    }

    #[test]
    fn works_behind_arc_tracker() {
        // The cache composes with any ReadBackend, including a fresh
        // FileBackend with its own tracker.
        let data = vec![3u8; 1024];
        let tmp = tempfile::tempdir().unwrap();
        std::fs::write(tmp.path().join("x.bin"), &data).unwrap();
        let tracker = Arc::new(IoTracker::new());
        let fb = crate::FileBackend::open(tmp.path().join("x.bin"), Arc::clone(&tracker)).unwrap();
        let cached = CachedBackend::with_budget(fb, 1 << 20);
        let mut buf = [0u8; 16];
        cached.read_at(0, &mut buf, Access::Sequential).unwrap();
        cached.read_at(0, &mut buf, Access::Sequential).unwrap();
        assert_eq!(cached.stats().hits, 1);
    }
}
