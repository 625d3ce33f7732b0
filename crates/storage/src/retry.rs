//! Retry policy, resilience accounting, and the retrying read wrapper.
//!
//! Transient storage errors (see
//! [`StorageError::is_transient`](crate::error::StorageError::is_transient)) are
//! retried with bounded exponential backoff and deterministic jitter;
//! every other error propagates immediately. Single and batched reads
//! share one retry loop: no device fails a batch that its single reads
//! would serve, so a batch that keeps failing is not split.
//!
//! Every retry-layer event is counted twice: in the always-on per-directory
//! [`ResilienceTracker`] (surfaced through `RunStats`), and in the
//! trace-gated obs counters `storage.retries` / `storage.giveups` for
//! `HUS_TRACE` sessions.

use crate::error::Result;
#[cfg(test)]
use crate::error::StorageError;
use crate::tracker::Access;
use crate::{RangeRead, ReadBackend};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static OBS_RETRIES: hus_obs::LazyCounter = hus_obs::LazyCounter::new("storage.retries");
static OBS_GIVEUPS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("storage.giveups");

/// Registry gauges mirroring the always-on [`ResilienceTracker`] totals
/// (see [`ResilienceTracker::publish`]). Unlike the event counters
/// above — which only tick while collection is enabled — these reflect
/// the tracker's full history at publish time, so an exporter attached
/// mid-run still reports every resilience event since the directory
/// opened.
static GAUGE_RETRIES: hus_obs::LazyGauge = hus_obs::LazyGauge::new("resilience.retries");
static GAUGE_GIVEUPS: hus_obs::LazyGauge = hus_obs::LazyGauge::new("resilience.giveups");
static GAUGE_MMAP_FB: hus_obs::LazyGauge = hus_obs::LazyGauge::new("resilience.mmap_fallbacks");
static GAUGE_DIRECT_FB: hus_obs::LazyGauge = hus_obs::LazyGauge::new("resilience.direct_fallbacks");
static GAUGE_CRC_FAIL: hus_obs::LazyGauge = hus_obs::LazyGauge::new("resilience.checksum_failures");
static GAUGE_WRITE_FAULTS: hus_obs::LazyGauge = hus_obs::LazyGauge::new("resilience.write_faults");
static GAUGE_SPILL_ROLLBACKS: hus_obs::LazyGauge =
    hus_obs::LazyGauge::new("resilience.spill_rollbacks");
static GAUGE_DEGRADED_ENTRIES: hus_obs::LazyGauge =
    hus_obs::LazyGauge::new("resilience.degraded_mode_entries");

/// Log `msg` to stderr the first time `once` fires — degradation events
/// are reported once per process, then only counted.
pub fn warn_once(once: &'static std::sync::Once, msg: &str) {
    once.call_once(|| eprintln!("[hus-storage] {msg}"));
}

/// Bounded-attempt exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try + retries). `1` disables
    /// retrying.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based), jittered ±25% by a
    /// hash of `salt` so concurrent retries of different offsets spread
    /// out, deterministically.
    pub fn backoff(&self, retry: u32, salt: u64) -> Duration {
        let base = self.base_delay.as_nanos() as u64;
        let exp = base.saturating_mul(1u64 << retry.min(20));
        // xorshift-style mix of salt and retry → jitter factor in [0.75, 1.25).
        let mut h = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (retry as u64).rotate_left(32);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        let jitter = 0.75 + (h >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        let ns = ((exp as f64 * jitter) as u64).min(self.max_delay.as_nanos() as u64);
        Duration::from_nanos(ns)
    }
}

/// Always-on counters of resilience events for one [`crate::StorageDir`]
/// tree (shared by subdirectories, like the I/O tracker).
#[derive(Debug, Default)]
pub struct ResilienceTracker {
    retries: AtomicU64,
    giveups: AtomicU64,
    mmap_fallbacks: AtomicU64,
    direct_fallbacks: AtomicU64,
    checksum_failures: AtomicU64,
    write_faults: AtomicU64,
    spill_rollbacks: AtomicU64,
    degraded_mode_entries: AtomicU64,
}

impl ResilienceTracker {
    /// Fresh tracker with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one retried read attempt.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one operation whose transient error exhausted its attempts.
    pub fn record_giveup(&self) {
        self.giveups.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one mmap→file backend degradation.
    pub fn record_mmap_fallback(&self) {
        self.mmap_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one direct→file backend degradation (`O_DIRECT` refused by
    /// the filesystem or kernel).
    pub fn record_direct_fallback(&self) {
        self.direct_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one checksum verification failure.
    pub fn record_checksum_failure(&self) {
        self.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one injected (or real) write-path fault.
    pub fn record_write_fault(&self) {
        self.write_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one spill/compaction/checkpoint rolled back to the prior
    /// generation after a write failure.
    pub fn record_spill_rollback(&self) {
        self.spill_rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one transition of a dynamic graph into read-only degraded
    /// mode.
    pub fn record_degraded_mode_entry(&self) {
        self.degraded_mode_entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Push the current totals into the metric registry as
    /// `resilience.*` gauges (no-op while collection is disabled). The
    /// engine calls this once per iteration so `/metrics` and `hus
    /// top` always show the tracker's true cumulative counts.
    pub fn publish(&self) {
        if !hus_obs::enabled() {
            return;
        }
        let s = self.snapshot();
        GAUGE_RETRIES.set(s.retries);
        GAUGE_GIVEUPS.set(s.giveups);
        GAUGE_MMAP_FB.set(s.mmap_fallbacks);
        GAUGE_DIRECT_FB.set(s.direct_fallbacks);
        GAUGE_CRC_FAIL.set(s.checksum_failures);
        GAUGE_WRITE_FAULTS.set(s.write_faults);
        GAUGE_SPILL_ROLLBACKS.set(s.spill_rollbacks);
        GAUGE_DEGRADED_ENTRIES.set(s.degraded_mode_entries);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> ResilienceSnapshot {
        ResilienceSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            giveups: self.giveups.load(Ordering::Relaxed),
            mmap_fallbacks: self.mmap_fallbacks.load(Ordering::Relaxed),
            direct_fallbacks: self.direct_fallbacks.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            write_faults: self.write_faults.load(Ordering::Relaxed),
            spill_rollbacks: self.spill_rollbacks.load(Ordering::Relaxed),
            degraded_mode_entries: self.degraded_mode_entries.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`ResilienceTracker`], reported per run in
/// `RunStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceSnapshot {
    /// Read attempts repeated after a transient error.
    pub retries: u64,
    /// Operations abandoned after exhausting their retry budget.
    pub giveups: u64,
    /// mmap→file backend degradations.
    pub mmap_fallbacks: u64,
    /// direct→file backend degradations (`O_DIRECT` refused).
    pub direct_fallbacks: u64,
    /// Block reads whose CRC-32C did not match the shard footer.
    pub checksum_failures: u64,
    /// Write-path faults (injected or real) on durable writes.
    pub write_faults: u64,
    /// Spills/compactions/checkpoints rolled back after a write
    /// failure.
    pub spill_rollbacks: u64,
    /// Entries into read-only degraded mode.
    pub degraded_mode_entries: u64,
}

impl ResilienceSnapshot {
    /// Events since an `earlier` snapshot of the same tracker.
    pub fn since(&self, earlier: &ResilienceSnapshot) -> ResilienceSnapshot {
        ResilienceSnapshot {
            retries: self.retries.saturating_sub(earlier.retries),
            giveups: self.giveups.saturating_sub(earlier.giveups),
            mmap_fallbacks: self.mmap_fallbacks.saturating_sub(earlier.mmap_fallbacks),
            direct_fallbacks: self.direct_fallbacks.saturating_sub(earlier.direct_fallbacks),
            checksum_failures: self.checksum_failures.saturating_sub(earlier.checksum_failures),
            write_faults: self.write_faults.saturating_sub(earlier.write_faults),
            spill_rollbacks: self.spill_rollbacks.saturating_sub(earlier.spill_rollbacks),
            degraded_mode_entries: self
                .degraded_mode_entries
                .saturating_sub(earlier.degraded_mode_entries),
        }
    }

    /// Total degradation events of any kind.
    pub fn total_fallbacks(&self) -> u64 {
        self.mmap_fallbacks + self.direct_fallbacks
    }

    /// Whether any resilience event occurred at all.
    pub fn any(&self) -> bool {
        self.retries
            + self.giveups
            + self.total_fallbacks()
            + self.checksum_failures
            + self.write_faults
            + self.spill_rollbacks
            + self.degraded_mode_entries
            > 0
    }
}

/// A [`ReadBackend`] wrapper that retries transient errors per a
/// [`RetryPolicy`] and returns every other error at once.
///
/// [`crate::StorageDir::reader`] composes every backend it hands out as
/// `Retry(FaultInject?(Metered(File|Mmap|Direct)))`, so retries sit above fault
/// injection and injected transient faults exercise this exact code path.
pub struct RetryBackend {
    inner: Arc<dyn ReadBackend>,
    policy: RetryPolicy,
    resilience: Arc<ResilienceTracker>,
}

impl RetryBackend {
    /// Wrap `inner`, counting events in `resilience`.
    pub fn new(
        inner: Arc<dyn ReadBackend>,
        policy: RetryPolicy,
        resilience: Arc<ResilienceTracker>,
    ) -> Self {
        RetryBackend { inner, policy, resilience }
    }

    /// Run `op` until it succeeds, fails with a non-transient error, or
    /// exhausts the policy's attempts; `salt` jitters the backoff.
    fn retrying(&self, salt: u64, mut op: impl FnMut() -> Result<()>) -> Result<()> {
        let mut retry = 0;
        loop {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && retry + 1 < self.policy.max_attempts => {
                    self.resilience.record_retry();
                    OBS_RETRIES.add(1);
                    hus_obs::attr::record(hus_obs::BlockStat::Retries, 1);
                    std::thread::sleep(self.policy.backoff(retry, salt));
                    retry += 1;
                }
                Err(e) => {
                    if e.is_transient() {
                        self.resilience.record_giveup();
                        OBS_GIVEUPS.add(1);
                    }
                    return Err(e);
                }
            }
        }
    }
}

impl ReadBackend for RetryBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        self.retrying(offset, || self.inner.read_at(offset, buf, access))
    }

    fn read_ranges(&self, ranges: &mut [RangeRead<'_>], access: Access) -> Result<()> {
        let salt = ranges.first().map_or(0, |r| r.offset);
        self.retrying(salt, || self.inner.read_ranges(ranges, access))
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Backend that fails the first `fail_first` read attempts with a
    /// transient error, then serves zeroes.
    struct Flaky {
        fail_first: u32,
        attempts: AtomicU32,
        permanent: bool,
    }

    impl Flaky {
        fn transient(fail_first: u32) -> Self {
            Flaky { fail_first, attempts: AtomicU32::new(0), permanent: false }
        }
    }

    impl ReadBackend for Flaky {
        fn read_at(&self, _offset: u64, buf: &mut [u8], _access: Access) -> Result<()> {
            let n = self.attempts.fetch_add(1, Ordering::SeqCst);
            if self.permanent {
                return Err(StorageError::Corrupt("permanent".into()));
            }
            if n < self.fail_first {
                return Err(StorageError::Io {
                    path: None,
                    source: std::io::Error::from_raw_os_error(5),
                });
            }
            buf.fill(0);
            Ok(())
        }

        fn len(&self) -> u64 {
            1 << 20
        }
    }

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(100),
        }
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let res = Arc::new(ResilienceTracker::new());
        let b = RetryBackend::new(Arc::new(Flaky::transient(2)), fast_policy(4), res.clone());
        let mut buf = [1u8; 8];
        b.read_at(0, &mut buf, Access::Random).unwrap();
        let s = res.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.giveups, 0);
        assert!(s.any());
    }

    #[test]
    fn exhausted_retries_give_up_with_original_error() {
        let res = Arc::new(ResilienceTracker::new());
        let b = RetryBackend::new(Arc::new(Flaky::transient(100)), fast_policy(3), res.clone());
        let mut buf = [0u8; 8];
        let err = b.read_at(0, &mut buf, Access::Random).unwrap_err();
        assert!(err.is_transient());
        let s = res.snapshot();
        assert_eq!(s.retries, 2, "max_attempts=3 → 2 retries");
        assert_eq!(s.giveups, 1);
    }

    #[test]
    fn permanent_errors_never_retry() {
        let res = Arc::new(ResilienceTracker::new());
        let flaky = Flaky { fail_first: 0, attempts: AtomicU32::new(0), permanent: true };
        let flaky = Arc::new(flaky);
        let b = RetryBackend::new(flaky.clone(), fast_policy(5), res.clone());
        let mut buf = [0u8; 8];
        assert!(b.read_at(0, &mut buf, Access::Random).unwrap_err().is_corruption());
        assert_eq!(flaky.attempts.load(Ordering::SeqCst), 1, "single attempt");
        assert_eq!(res.snapshot().retries, 0);
        assert_eq!(res.snapshot().giveups, 0, "permanent failures are not giveups");
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let p = RetryPolicy::default();
        for retry in 0..16 {
            let d = p.backoff(retry, 12345);
            assert!(d <= p.max_delay, "retry {retry}: {d:?}");
            assert_eq!(d, p.backoff(retry, 12345), "deterministic for a fixed salt");
        }
        assert!(p.backoff(0, 1) >= Duration::from_nanos(750_000), "±25% around 1ms");
        let snap = ResilienceSnapshot { retries: 5, giveups: 1, ..Default::default() };
        let earlier = ResilienceSnapshot { retries: 2, ..Default::default() };
        assert_eq!(snap.since(&earlier).retries, 3);
        assert_eq!(snap.since(&earlier).giveups, 1);
    }
}
