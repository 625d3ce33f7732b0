//! Deterministic fault injection for exercising failure paths.
//!
//! [`FaultInjectBackend`] wraps any [`ReadBackend`] and injects faults
//! according to a [`FaultSpec`], normally supplied through the `HUS_FAULT`
//! environment variable (captured when a [`crate::StorageDir`] is created)
//! or per-directory via [`crate::StorageDir::with_faults`]. Four fault
//! classes are modeled:
//!
//! * **Transient `EIO`** (`eio=p`) — the read fails with the raw OS error
//!   `EIO` before touching the device; a retry sees a fresh draw.
//! * **Short read** (`short=p`) — the read fails with `UnexpectedEof`, the
//!   error a positioned `read_exact` surfaces when a device returns fewer
//!   bytes than asked.
//! * **Bit flip** (`flip=p`) — one bit of the returned buffer is inverted.
//!   Flips are keyed by the *read offset*, not the attempt number, so the
//!   same read always sees the same damage: a flip models **permanent**
//!   on-media corruption that only checksum verification can catch.
//! * **Latency spike** (`delay_p=p`, `delay_ms=n`) — the read sleeps
//!   `n` ms before being served, exercising timeout-adjacent paths.
//!
//! The **write side** mirrors this through [`FaultInjectWriter`], which
//! sits under every durable write (delta-run spills, `MANIFEST`
//! rewrites, checkpoint slots, the staged builder's shard streams — see
//! DESIGN.md §9). Four write-fault kinds share the same grammar:
//!
//! * **`enospc=p`** — the write fails with the raw OS error `ENOSPC`
//!   before a single byte lands, modeling a full disk.
//! * **`shortw=p`** — a deterministic prefix of the payload is written,
//!   then the write fails with `WriteZero`, modeling a device that
//!   accepted fewer bytes than asked.
//! * **`torn=p`** — a deterministic prefix is written and the failure
//!   only surfaces at fsync time (raw `EIO`), modeling a tear that a
//!   crash would have produced mid-file.
//! * **`fsync_fail=p`** — the full payload is written but the fsync
//!   fails (raw `EIO`): the bytes' durability is unknown, so callers
//!   must treat the write as failed.
//!
//! Every write-path fire is counted in `resilience.write_faults`. All
//! write faults strike *before* the commit rename of the artifact being
//! written, so damage is always confined to `*.tmp`-named files the
//! recovery path already knows to ignore (rollback-safe tmp naming,
//! `docs/FORMAT.md`).
//!
//! All draws derive from a user-supplied `seed` through a splitmix64 hash,
//! so a fixed seed and a fixed read sequence reproduce the same fault
//! pattern. Transient draws are keyed by a per-backend operation counter;
//! under multi-threaded runs the interleaving (and hence which operation
//! draws a fault) can vary, but flips stay bound to their offsets. Write
//! draws use an independent per-directory counter shared across
//! subdirectories, so read traffic never perturbs the write-fault
//! schedule.
//!
//! ```
//! use hus_storage::fault::FaultSpec;
//! let spec = FaultSpec::parse("seed=42,eio=0.01,delay_p=0.005,delay_ms=2").unwrap();
//! assert_eq!(spec.seed, 42);
//! assert!(spec.eio > 0.0 && spec.flip == 0.0);
//! ```

use crate::error::{Result, StorageError};
use crate::retry::ResilienceTracker;
use crate::tracker::Access;
use crate::{durable, RangeRead, ReadBackend};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable holding the fault specification.
pub const FAULT_ENV: &str = "HUS_FAULT";

/// Parsed fault-injection specification (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed for all deterministic draws.
    pub seed: u64,
    /// Probability of a transient `EIO` per read operation.
    pub eio: f64,
    /// Probability of a short read (`UnexpectedEof`) per read operation.
    pub short: f64,
    /// Probability of a (permanent, offset-keyed) bit flip per range read.
    pub flip: f64,
    /// Probability of a latency spike per read operation.
    pub delay_p: f64,
    /// Duration of a latency spike in milliseconds.
    pub delay_ms: u64,
    /// Probability of an `ENOSPC` failure per write operation (nothing
    /// is written).
    pub enospc: f64,
    /// Probability of a short write per write operation (a prefix is
    /// written, then `WriteZero`).
    pub shortw: f64,
    /// Probability of a torn write per write operation (a prefix is
    /// written; the failure surfaces at fsync as raw `EIO`).
    pub torn: f64,
    /// Probability of an fsync failure per write operation (the full
    /// payload is written but durability is unknown).
    pub fsync_fail: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            eio: 0.0,
            short: 0.0,
            flip: 0.0,
            delay_p: 0.0,
            delay_ms: 1,
            enospc: 0.0,
            shortw: 0.0,
            torn: 0.0,
            fsync_fail: 0.0,
        }
    }
}

impl FaultSpec {
    /// Parse a comma-separated `key=value` spec, e.g.
    /// `seed=42,eio=0.01,short=0.005,flip=0.001,delay_p=0.01,delay_ms=5`.
    /// Unknown keys and malformed values are rejected.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let mut spec = FaultSpec::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("missing '=' in `{part}`"))?;
            let prob = |v: &str| -> std::result::Result<f64, String> {
                let p: f64 = v.parse().map_err(|_| format!("bad probability `{v}` for {key}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {p} for {key} outside [0, 1]"));
                }
                Ok(p)
            };
            match key.trim() {
                "seed" => {
                    spec.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                }
                "eio" => spec.eio = prob(value)?,
                "short" => spec.short = prob(value)?,
                "flip" => spec.flip = prob(value)?,
                "delay_p" => spec.delay_p = prob(value)?,
                "delay_ms" => {
                    spec.delay_ms = value.parse().map_err(|_| format!("bad delay_ms `{value}`"))?;
                }
                "enospc" => spec.enospc = prob(value)?,
                "shortw" => spec.shortw = prob(value)?,
                "torn" => spec.torn = prob(value)?,
                "fsync_fail" => spec.fsync_fail = prob(value)?,
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(spec)
    }

    /// Read and parse [`FAULT_ENV`]. Returns `None` when unset or when the
    /// spec injects nothing; an unparsable spec is reported to stderr once
    /// and treated as absent (never silently corrupts a run).
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var(FAULT_ENV).ok()?;
        match Self::parse(&raw) {
            Ok(spec) if spec.injects_faults() => Some(spec),
            Ok(_) => None,
            Err(e) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| eprintln!("[hus-storage] ignoring invalid {FAULT_ENV}: {e}"));
                None
            }
        }
    }

    /// Whether any fault class has nonzero probability.
    pub fn injects_faults(&self) -> bool {
        self.injects_read_faults() || self.injects_write_faults()
    }

    /// Whether any *read*-side class (eio, short, flip, delay) fires.
    pub fn injects_read_faults(&self) -> bool {
        self.eio > 0.0 || self.short > 0.0 || self.flip > 0.0 || self.delay_p > 0.0
    }

    /// Whether any *write*-side class (enospc, shortw, torn,
    /// fsync_fail) fires.
    pub fn injects_write_faults(&self) -> bool {
        self.enospc > 0.0 || self.shortw > 0.0 || self.torn > 0.0 || self.fsync_fail > 0.0
    }
}

/// splitmix64 finalizer — a cheap, well-mixed hash for fault draws.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`ReadBackend`] wrapper injecting deterministic faults per a
/// [`FaultSpec`]. Wraps *below* the retry layer, so transient injected
/// faults exercise the real retry path end to end.
pub struct FaultInjectBackend {
    inner: Arc<dyn ReadBackend>,
    spec: FaultSpec,
    ops: AtomicU64,
}

impl FaultInjectBackend {
    /// Wrap `inner`, injecting faults per `spec`.
    pub fn new(inner: Arc<dyn ReadBackend>, spec: FaultSpec) -> Self {
        FaultInjectBackend { inner, spec, ops: AtomicU64::new(0) }
    }

    /// Draw the transient faults (delay, EIO, short read) for one
    /// operation. Returns an error if the operation should fail.
    fn transient_draw(&self) -> Result<()> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let h = mix(self.spec.seed ^ op);
        if self.spec.delay_p > 0.0 && unit(mix(h ^ 0xD31A)) < self.spec.delay_p {
            std::thread::sleep(std::time::Duration::from_millis(self.spec.delay_ms));
        }
        if self.spec.eio > 0.0 && unit(mix(h ^ 0xE10)) < self.spec.eio {
            return Err(StorageError::Io {
                path: None,
                source: std::io::Error::from_raw_os_error(5), // EIO
            });
        }
        if self.spec.short > 0.0 && unit(mix(h ^ 0x5807)) < self.spec.short {
            return Err(StorageError::Io {
                path: None,
                source: std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "injected short read",
                ),
            });
        }
        Ok(())
    }

    /// Apply the (offset-keyed, hence permanent) bit-flip draw to a
    /// successfully read buffer.
    fn maybe_flip(&self, offset: u64, buf: &mut [u8]) {
        if self.spec.flip <= 0.0 || buf.is_empty() {
            return;
        }
        let h = mix(self.spec.seed ^ 0xF11F ^ offset.rotate_left(17));
        if unit(h) < self.spec.flip {
            let bit = (mix(h) % (buf.len() as u64 * 8)) as usize;
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// One drawn write fault (see the [module docs](self) for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Fail with raw `ENOSPC` before a single byte lands.
    Enospc,
    /// Write a `keep`-byte prefix, then fail with `WriteZero`.
    ShortWrite {
        /// Bytes that reach the file before the failure.
        keep: usize,
    },
    /// Write a `keep`-byte prefix; the failure surfaces at fsync.
    Torn {
        /// Bytes that reach the file before the tear.
        keep: usize,
    },
    /// Write the full payload; the fsync itself fails.
    FsyncFail,
}

/// Deterministic write-side fault injector — the durable-write
/// counterpart of [`FaultInjectBackend`].
///
/// One injector is shared (via `Arc`) by a [`crate::StorageDir`] and all
/// its subdirectories, so the per-operation draw counter spans every
/// write site under one root: delta-run spills, `MANIFEST` rewrites,
/// checkpoint slots, and the staged builder's shard streams. Every fire
/// is recorded as `resilience.write_faults` on the shared
/// [`ResilienceTracker`].
pub struct FaultInjectWriter {
    spec: FaultSpec,
    ops: AtomicU64,
    resilience: Arc<ResilienceTracker>,
}

impl FaultInjectWriter {
    /// Build an injector for `spec`, recording fires on `resilience`.
    pub fn new(spec: FaultSpec, resilience: Arc<ResilienceTracker>) -> Self {
        FaultInjectWriter { spec, ops: AtomicU64::new(0), resilience }
    }

    /// The spec this injector draws from.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Draw the fault (if any) for one write operation of `len` payload
    /// bytes, recording a fire in `resilience.write_faults`. Kinds are
    /// checked in fixed order (enospc, shortw, torn, fsync_fail) with
    /// independent salted draws, mirroring the read side.
    pub fn draw(&self, len: usize) -> Option<WriteFault> {
        self.draw_kinds(len, true, true)
    }

    /// Draw only the kinds that fire on a plain (not-yet-synced) stream
    /// write: enospc, shortw, torn. Used by the staged builder's
    /// streaming writers, where the fsync-failure kind is drawn
    /// separately at sync time (see [`Self::draw_fsync`]).
    pub fn draw_stream(&self, len: usize) -> Option<WriteFault> {
        self.draw_kinds(len, true, false)
    }

    /// Draw only the fsync-failure kind for one sync operation,
    /// recording a fire. Returns `true` when the fsync should fail.
    pub fn draw_fsync(&self) -> bool {
        matches!(self.draw_kinds(0, false, true), Some(WriteFault::FsyncFail))
    }

    fn draw_kinds(&self, len: usize, stream: bool, fsync: bool) -> Option<WriteFault> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let h = mix(self.spec.seed ^ 0x77F1 ^ op);
        let keep = |salt: u64| -> usize {
            if len == 0 {
                0
            } else {
                (mix(h ^ salt) % len as u64) as usize
            }
        };
        let fault = if stream && self.spec.enospc > 0.0 && unit(mix(h ^ 0xE205)) < self.spec.enospc
        {
            WriteFault::Enospc
        } else if stream && self.spec.shortw > 0.0 && unit(mix(h ^ 0x5808)) < self.spec.shortw {
            WriteFault::ShortWrite { keep: keep(0x1E41) }
        } else if stream && self.spec.torn > 0.0 && unit(mix(h ^ 0x7027)) < self.spec.torn {
            WriteFault::Torn { keep: keep(0x1E42) }
        } else if fsync
            && self.spec.fsync_fail > 0.0
            && unit(mix(h ^ 0xF5F0)) < self.spec.fsync_fail
        {
            WriteFault::FsyncFail
        } else {
            return None;
        };
        self.resilience.record_write_fault();
        Some(fault)
    }

    /// The typed error a drawn `fault` surfaces at `path`. `Enospc` is
    /// the raw OS error 28 so [`StorageError::is_no_space`] classifies
    /// it exactly like a real full disk.
    pub fn error_of(fault: WriteFault, path: &Path) -> StorageError {
        let source = match fault {
            WriteFault::Enospc => std::io::Error::from_raw_os_error(28), // ENOSPC
            WriteFault::ShortWrite { .. } => {
                std::io::Error::new(std::io::ErrorKind::WriteZero, "injected short write")
            }
            WriteFault::Torn { .. } => std::io::Error::other("injected torn write (EIO at fsync)"),
            WriteFault::FsyncFail => std::io::Error::other("injected fsync failure (EIO)"),
        };
        StorageError::Io { path: Some(path.to_path_buf()), source }
    }

    /// Fault-aware durable whole-file write: write `bytes` to `path`
    /// and fsync, or fail per the drawn fault leaving exactly the
    /// damage that kind models (nothing / a prefix / the full payload
    /// without durability).
    pub fn durable_write(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        match self.draw(bytes.len()) {
            None => {
                std::fs::write(path, bytes).map_err(|e| StorageError::io_at(path, e))?;
                durable::sync_file(path)
            }
            Some(fault) => {
                match fault {
                    WriteFault::Enospc => {}
                    WriteFault::ShortWrite { keep } | WriteFault::Torn { keep } => {
                        let _ = std::fs::write(path, &bytes[..keep]);
                    }
                    WriteFault::FsyncFail => {
                        let _ = std::fs::write(path, bytes);
                    }
                }
                Err(Self::error_of(fault, path))
            }
        }
    }
}

impl ReadBackend for FaultInjectBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        self.transient_draw()?;
        self.inner.read_at(offset, buf, access)?;
        self.maybe_flip(offset, buf);
        Ok(())
    }

    fn read_ranges(&self, ranges: &mut [RangeRead<'_>], access: Access) -> Result<()> {
        // One transient draw per batched operation (it is one device
        // request), then per-range flip draws keyed by each range offset.
        self.transient_draw()?;
        self.inner.read_ranges(ranges, access)?;
        for r in ranges {
            self.maybe_flip(r.offset, r.buf);
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
    use crate::file::FileDevice;
    use crate::metered::Metered;
    use crate::tracker::IoTracker;
    use std::io::Write;

    fn backend(content: &[u8]) -> (tempfile::TempDir, Arc<dyn ReadBackend>) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("d.bin");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content).unwrap();
        drop(f);
        let b = Metered::new(FileDevice::open(&path).unwrap(), Arc::new(IoTracker::new()));
        (dir, Arc::new(b))
    }

    #[test]
    fn parse_full_spec_and_rejects_garbage() {
        let s = FaultSpec::parse("seed=7, eio=0.5, short=0.25, flip=1, delay_p=0.1, delay_ms=3")
            .unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.eio, 0.5);
        assert_eq!(s.short, 0.25);
        assert_eq!(s.flip, 1.0);
        assert_eq!(s.delay_ms, 3);
        assert!(s.injects_faults());
        assert!(FaultSpec::parse("eio=2").is_err(), "probability > 1");
        assert!(FaultSpec::parse("bogus=1").is_err(), "unknown key");
        assert!(FaultSpec::parse("eio").is_err(), "missing value");
        assert!(!FaultSpec::parse("seed=9").unwrap().injects_faults());
    }

    #[test]
    fn eio_faults_are_transient_and_seed_deterministic() {
        let (_d, inner) = backend(&[7u8; 64]);
        let spec = FaultSpec { seed: 1, eio: 0.5, ..Default::default() };
        let f = FaultInjectBackend::new(Arc::clone(&inner), spec);
        let mut outcomes = Vec::new();
        let mut buf = [0u8; 8];
        for _ in 0..64 {
            outcomes.push(f.read_at(0, &mut buf, Access::Random).is_ok());
        }
        assert!(outcomes.iter().any(|&ok| ok), "some reads succeed");
        assert!(outcomes.iter().any(|&ok| !ok), "some reads fail at p=0.5");
        // Same seed, same op sequence → identical outcome pattern.
        let f2 = FaultInjectBackend::new(inner, spec);
        let replay: Vec<bool> =
            (0..64).map(|_| f2.read_at(0, &mut buf, Access::Random).is_ok()).collect();
        assert_eq!(outcomes, replay);
        // Every injected failure is classified transient.
        let f3 = FaultInjectBackend::new(f2.inner.clone(), FaultSpec { eio: 1.0, ..spec });
        let err = f3.read_at(0, &mut buf, Access::Random).unwrap_err();
        assert!(err.is_transient(), "{err}");
    }

    #[test]
    fn short_reads_surface_as_unexpected_eof() {
        let (_d, inner) = backend(&[7u8; 64]);
        let spec = FaultSpec { seed: 3, short: 1.0, ..Default::default() };
        let f = FaultInjectBackend::new(inner, spec);
        let mut buf = [0u8; 8];
        let err = f.read_at(0, &mut buf, Access::Sequential).unwrap_err();
        assert!(err.is_transient());
        assert!(err.to_string().contains("short read"), "{err}");
    }

    #[test]
    fn bit_flips_are_permanent_per_offset() {
        let (_d, inner) = backend(&[0u8; 256]);
        let spec = FaultSpec { seed: 5, flip: 1.0, ..Default::default() };
        let f = FaultInjectBackend::new(inner, spec);
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        f.read_at(64, &mut a, Access::Random).unwrap();
        f.read_at(64, &mut b, Access::Random).unwrap();
        assert_ne!(a, [0u8; 32], "exactly one bit flipped");
        assert_eq!(a, b, "same offset → same damage on every attempt");
        assert_eq!(a.iter().map(|x| x.count_ones()).sum::<u32>(), 1);
        let mut c = [0u8; 32];
        f.read_at(128, &mut c, Access::Random).unwrap();
        assert_ne!(a, c, "different offsets see independent flips");
    }

    #[test]
    fn parse_write_spec_and_classification() {
        let s = FaultSpec::parse("seed=9,enospc=0.5,shortw=0.25,torn=0.1,fsync_fail=0.05").unwrap();
        assert_eq!(s.enospc, 0.5);
        assert_eq!(s.shortw, 0.25);
        assert_eq!(s.torn, 0.1);
        assert_eq!(s.fsync_fail, 0.05);
        assert!(s.injects_faults(), "write-only spec still injects");
        assert!(s.injects_write_faults());
        assert!(!s.injects_read_faults());
        assert!(FaultSpec::parse("enospc=1.5").is_err(), "probability > 1");
    }

    #[test]
    fn enospc_writes_nothing_and_classifies_as_no_space() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("out.bin");
        let resilience = Arc::new(ResilienceTracker::new());
        let spec = FaultSpec { seed: 2, enospc: 1.0, ..Default::default() };
        let w = FaultInjectWriter::new(spec, Arc::clone(&resilience));
        let err = w.durable_write(&path, &[1u8; 128]).unwrap_err();
        assert!(err.is_no_space(), "{err}");
        assert!(!path.exists(), "nothing may land on ENOSPC");
        assert_eq!(resilience.snapshot().write_faults, 1);
    }

    #[test]
    fn short_and_torn_writes_leave_a_deterministic_prefix() {
        let dir = tempfile::tempdir().unwrap();
        let resilience = Arc::new(ResilienceTracker::new());
        let payload = [7u8; 256];
        for (spec, name) in [
            (FaultSpec { seed: 4, shortw: 1.0, ..Default::default() }, "shortw.bin"),
            (FaultSpec { seed: 4, torn: 1.0, ..Default::default() }, "torn.bin"),
        ] {
            let path = dir.path().join(name);
            let w = FaultInjectWriter::new(spec, Arc::clone(&resilience));
            let err = w.durable_write(&path, &payload).unwrap_err();
            assert!(!err.is_no_space(), "{err}");
            let on_disk = std::fs::read(&path).unwrap();
            assert!(on_disk.len() < payload.len(), "{name}: prefix only");
            // Same seed, same op index → identical prefix length.
            let path2 = dir.path().join(format!("{name}.replay"));
            let w2 = FaultInjectWriter::new(spec, Arc::clone(&resilience));
            let _ = w2.durable_write(&path2, &payload);
            assert_eq!(std::fs::read(&path2).unwrap().len(), on_disk.len());
        }
        assert_eq!(resilience.snapshot().write_faults, 4);
    }

    #[test]
    fn fsync_fail_writes_everything_but_still_errors() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("f.bin");
        let resilience = Arc::new(ResilienceTracker::new());
        let spec = FaultSpec { seed: 6, fsync_fail: 1.0, ..Default::default() };
        let w = FaultInjectWriter::new(spec, resilience);
        let err = w.durable_write(&path, &[9u8; 64]).unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), [9u8; 64]);
    }

    #[test]
    fn write_draws_are_seed_deterministic_and_eventually_pass() {
        let resilience = Arc::new(ResilienceTracker::new());
        let spec = FaultSpec { seed: 8, enospc: 0.5, ..Default::default() };
        let w = FaultInjectWriter::new(spec, Arc::clone(&resilience));
        let pattern: Vec<bool> = (0..64).map(|_| w.draw(100).is_some()).collect();
        assert!(pattern.iter().any(|&f| f), "some ops fault at p=0.5");
        assert!(pattern.iter().any(|&f| !f), "some ops pass at p=0.5");
        let w2 = FaultInjectWriter::new(spec, resilience);
        let replay: Vec<bool> = (0..64).map(|_| w2.draw(100).is_some()).collect();
        assert_eq!(pattern, replay, "same seed → same write-fault schedule");
    }

    #[test]
    fn read_ranges_one_draw_per_batch_and_flips_by_range() {
        let (_d, inner) = backend(&(0..=255u8).collect::<Vec<_>>());
        let spec = FaultSpec { seed: 11, flip: 1.0, ..Default::default() };
        let f = FaultInjectBackend::new(inner, spec);
        let (mut x, mut y) = ([0u8; 4], [0u8; 4]);
        let mut ranges =
            [RangeRead { offset: 0, buf: &mut x }, RangeRead { offset: 16, buf: &mut y }];
        f.read_ranges(&mut ranges, Access::Batched).unwrap();
        assert_ne!(x, [0, 1, 2, 3], "first range drew its own flip");
        assert_ne!(y, [16, 17, 18, 19], "second range drew its own flip");
    }
}
