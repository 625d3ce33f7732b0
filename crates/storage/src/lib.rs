//! # hus-storage — tracked out-of-core storage substrate
//!
//! Every out-of-core engine in this workspace (HUS-Graph itself as well as
//! the GraphChi- and GridGraph-style baselines) performs its disk I/O
//! through this crate, so that all systems are measured identically.
//!
//! The crate provides:
//!
//! * [`StorageDir`] — a directory of named data files with a shared
//!   [`IoTracker`]; readers classify every access as [`Access::Sequential`]
//!   or [`Access::Random`], mirroring the distinction at the heart of the
//!   HUS-Graph paper (§2.1, §3.4).
//! * [`ReadBackend`] readers over three devices — positioned file reads,
//!   a memory map, or `O_DIRECT` ([`BackendKind`]) — that differ only in
//!   how they move bytes: bounds, billing and read latency are done once,
//!   by one metered layer above them. They serve the bytes on disk: a
//!   codec-compressed block (see the `hus-codec` crate) travels and is
//!   billed encoded, and its reader decodes it.
//! * [`DeviceProfile`] / [`CostModel`] — the paper's I/O time model
//!   (`bytes / throughput`), with HDD and SSD presets used by the
//!   experiment harness to reproduce Figure 11.
//! * [`probe`] — a small `fio`-like throughput measurement of the host,
//!   which can feed measured `T_sequential` / `T_random` into the
//!   predictor instead of a preset profile.
//! * [`pod`] — safe-by-construction byte ⇄ typed-slice conversions used by
//!   the on-disk formats of all engines.
//! * [`checksum`] / [`fault`] / [`retry`] — the storage resilience layer:
//!   CRC-32C shard footers, deterministic fault injection (`HUS_FAULT`),
//!   and transparent retry with bounded backoff plus degradation paths
//!   (mmap→file, direct→file). See DESIGN.md §9.
//! * [`delta`] — on-disk delta runs: the spilled, CRC-sealed form of the
//!   dynamic-graph write buffer, merged newest-first into reads and
//!   folded away by compaction. See DESIGN.md §11.
//! * [`manifest`] / [`durable`] / [`StagingDir`] — the crash-consistent
//!   build lifecycle: sibling staging directories committed by atomic
//!   rename, generation-stamped `MANIFEST` files, fsync discipline with
//!   a `HUS_NO_FSYNC` escape hatch, and `HUS_CRASH_AT` crash points for
//!   the recovery test harness. See DESIGN.md §10.

#![warn(missing_docs)]

mod aligned;
pub mod buffer;
pub mod checksum;
pub mod delta;
pub mod device;
pub mod dir;
mod direct;
pub mod durable;
pub mod error;
pub mod fault;
mod file;
pub mod manifest;
mod metered;
mod mmap;
pub mod pod;
pub mod probe;
pub mod retry;
pub mod tracker;

pub use buffer::TrackedWriter;
pub use checksum::{crc32c, Crc32c, ShardFooter};
pub use delta::{DeltaRecord, DeltaRun};
pub use device::{CostModel, DeviceProfile, Throughput};
pub use dir::{BackendKind, StagingDir, StorageDir};
pub use error::{Result, StorageError};
pub use fault::{FaultInjectBackend, FaultInjectWriter, FaultSpec, WriteFault};
pub use manifest::{BuildManifest, ManifestEntry, MANIFEST_FILE};
pub use metered::TrackedFile;
pub use pod::Pod;
pub use retry::{ResilienceSnapshot, ResilienceTracker, RetryBackend, RetryPolicy};
pub use tracker::{Access, IoSnapshot, IoTracker};

/// Object-safe read interface of every reader in the storage stack.
///
/// Offsets are absolute byte offsets within the backing file. Callers must
/// classify each access so that the shared [`IoTracker`] can attribute the
/// traffic to the sequential or random bucket.
///
/// Readers are normally obtained from [`StorageDir::reader`], which
/// composes metering, fault injection and retry:
///
/// ```
/// use hus_storage::{Access, ReadBackend, StorageDir};
///
/// let tmp = tempfile::tempdir()?;
/// let dir = StorageDir::create(tmp.path())?;
/// let mut w = dir.writer("edges.bin")?;
/// w.write_all(&[10, 20, 30, 40])?;
/// w.finish()?;
///
/// let r = dir.reader("edges.bin")?;
/// let mut buf = [0u8; 2];
/// r.read_at(1, &mut buf, Access::Random)?;
/// assert_eq!(buf, [20, 30]);
/// assert_eq!(r.len(), 4);
/// # Ok::<(), hus_storage::StorageError>(())
/// ```
pub trait ReadBackend: Send + Sync {
    /// Read exactly `buf.len()` bytes starting at byte `offset`.
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()>;

    /// Fill several disjoint ranges in one logical request.
    ///
    /// The default implementation loops [`ReadBackend::read_at`] (one
    /// tracked access per range). A device reader overrides it — one
    /// device read from the first range's start to the furthest range
    /// end, then a copy out per range, on `file` and `direct` alike; one
    /// copy per range out of the map on `mmap` — and bills the
    /// *requested* bytes once, so the modeled byte count is identical
    /// either way and only the operation count shrinks. Callers pass
    /// ranges sorted by offset — the spanning read starts at the first —
    /// and the metered layer debug-asserts it. Sorted ranges may overlap
    /// (adjacent vertices' 8-byte index probes share an offset); each is
    /// filled and billed in full.
    fn read_ranges(&self, ranges: &mut [RangeRead<'_>], access: Access) -> Result<()> {
        debug_assert_ranges_sorted(ranges);
        for r in ranges {
            self.read_at(r.offset, r.buf, access)?;
        }
        Ok(())
    }

    /// Total length of the backing file in bytes.
    fn len(&self) -> u64;

    /// Whether the backing file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One destination range of a [`ReadBackend::read_ranges`] request: fill
/// `buf` from the backing file starting at byte `offset`.
pub struct RangeRead<'a> {
    /// Absolute byte offset of the range.
    pub offset: u64,
    /// Destination buffer; its length is the range length.
    pub buf: &'a mut [u8],
}

/// Debug-assert the [`ReadBackend::read_ranges`] calling convention:
/// ranges sorted by offset, so that a batch's span starts at its first
/// range.
pub(crate) fn debug_assert_ranges_sorted(ranges: &[RangeRead<'_>]) {
    debug_assert!(
        ranges.windows(2).all(|w| w[0].offset <= w[1].offset),
        "read_ranges requires ranges sorted by offset"
    );
}

impl<T: ReadBackend + ?Sized> ReadBackend for std::sync::Arc<T> {
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        (**self).read_at(offset, buf, access)
    }

    fn read_ranges(&self, ranges: &mut [RangeRead<'_>], access: Access) -> Result<()> {
        (**self).read_ranges(ranges, access)
    }

    fn len(&self) -> u64 {
        (**self).len()
    }
}

/// Read a `Vec<T>` of `count` items starting at `offset`, copying out of the
/// backend (alignment-safe for any `offset`).
pub fn read_pod_vec<T: Pod, B: ReadBackend + ?Sized>(
    backend: &B,
    offset: u64,
    count: usize,
    access: Access,
) -> Result<Vec<T>> {
    let mut out: Vec<T> = vec![T::zeroed(); count];
    backend.read_at(offset, pod::as_bytes_mut(&mut out), access)?;
    Ok(out)
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// Backend that serves a constant pattern — just enough to drive the
    /// default `read_ranges` implementation.
    struct Patterned(u64);

    impl ReadBackend for Patterned {
        fn read_at(&self, offset: u64, buf: &mut [u8], _access: Access) -> Result<()> {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = ((offset + i as u64) % 251) as u8;
            }
            Ok(())
        }

        fn len(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn default_read_ranges_accepts_sorted_input() {
        let b = Patterned(1024);
        let (mut x, mut y) = ([0u8; 4], [0u8; 4]);
        let mut ranges =
            [RangeRead { offset: 8, buf: &mut x }, RangeRead { offset: 100, buf: &mut y }];
        b.read_ranges(&mut ranges, Access::Batched).unwrap();
        assert_eq!(x, [8, 9, 10, 11]);
    }

    /// The documented contract — ranges sorted by offset — is now
    /// enforced in debug builds rather than silently assumed.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted by offset")]
    fn default_read_ranges_rejects_unsorted_input_in_debug() {
        let b = Patterned(1024);
        let (mut x, mut y) = ([0u8; 4], [0u8; 4]);
        let mut ranges =
            [RangeRead { offset: 100, buf: &mut x }, RangeRead { offset: 8, buf: &mut y }];
        let _ = b.read_ranges(&mut ranges, Access::Batched);
    }
}
