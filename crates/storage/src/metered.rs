//! The one metered read path.
//!
//! The paper's I/O amounts (Fig. 9) and the predictor's `C_rop`/`C_cop`
//! (§3.4) rest on one accounting rule: every read is classed by its
//! caller's [`Access`] and billed exactly its requested bytes. A
//! [`Device`] — `pread` on a file, a copy out of a map, or an `O_DIRECT`
//! bounce read — only moves bytes; [`Metered`] wraps one and applies the
//! rule, once for all of them: the bounds check, the zero-length cases,
//! the sorted-ranges convention, the `storage.read_ns.*` latency
//! histograms and the single [`IoTracker::record_read`] call. Backends
//! can therefore differ in how they move bytes, never in how a read is
//! billed.

use crate::error::{Result, StorageError};
use crate::file::FileDevice;
use crate::tracker::{Access, IoTracker};
use crate::{RangeRead, ReadBackend};
use std::path::Path;
use std::sync::Arc;

/// Per-access-class device read latency in nanoseconds, whichever device
/// served the read.
static READ_NS_SEQ: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("storage.read_ns.seq");
static READ_NS_RAND: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("storage.read_ns.rand");
static READ_NS_BATCHED: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("storage.read_ns.batched");
/// [`TrackedFile::write_at`] latency in nanoseconds.
static WRITE_NS: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("storage.write_ns");

/// A byte mover under [`Metered`]. It is only ever asked for non-empty,
/// in-bounds requests.
pub(crate) trait Device: Send + Sync {
    /// Length of the backing file in bytes.
    fn len(&self) -> u64;

    /// Fill `buf` with the bytes starting at `offset`.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Fill two or more ranges, sorted by offset. One spanning
    /// [`Device::read_exact_at`], then scatter: the disk head travels the
    /// run once (the elevator pass a real scheduler would make from the
    /// same queue) for one request. Gap bytes are read, never billed.
    fn read_ranges(&self, ranges: &mut [RangeRead<'_>]) -> Result<()> {
        let lo = ranges.iter().map(|r| r.offset).min().unwrap_or(0);
        let hi = ranges.iter().map(|r| r.offset + r.buf.len() as u64).max().unwrap_or(lo);
        let mut span = vec![0u8; (hi - lo) as usize];
        self.read_exact_at(lo, &mut span)?;
        for r in ranges.iter_mut() {
            let s = (r.offset - lo) as usize;
            r.buf.copy_from_slice(&span[s..s + r.buf.len()]);
        }
        Ok(())
    }
}

/// A [`Device`] under the accounting rule. [`crate::StorageDir::reader`]
/// hands out `Retry(FaultInject?(Metered(device)))`, so every billed byte
/// of a reader is billed here, beneath fault injection and retry.
pub(crate) struct Metered<D> {
    device: D,
    tracker: Arc<IoTracker>,
}

impl<D: Device> Metered<D> {
    /// Meter `device`, attributing its traffic to `tracker`.
    pub(crate) fn new(device: D, tracker: Arc<IoTracker>) -> Self {
        Metered { device, tracker }
    }

    fn check_bounds(&self, offset: u64, len: usize) -> Result<()> {
        let file_len = self.device.len();
        // An offset read from a damaged index can be near `u64::MAX`.
        if offset.checked_add(len as u64).is_none_or(|end| end > file_len) {
            return Err(StorageError::OutOfBounds { offset, len: len as u64, file_len });
        }
        Ok(())
    }

    /// Run `io` on the device (skipped for zero bytes), time it, and
    /// bill `bytes` as one `access` operation once it succeeded.
    fn meter(&self, access: Access, bytes: u64, io: impl FnOnce(&D) -> Result<()>) -> Result<()> {
        if bytes > 0 {
            let t0 = hus_obs::latency_timer();
            io(&self.device)?;
            match access {
                Access::Sequential => &READ_NS_SEQ,
                Access::Random => &READ_NS_RAND,
                Access::Batched => &READ_NS_BATCHED,
            }
            .record_elapsed(t0);
        }
        self.tracker.record_read(access, bytes);
        Ok(())
    }
}

impl<D: Device> ReadBackend for Metered<D> {
    /// A zero-length read bills one 0-byte operation and leaves the
    /// device untouched.
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        self.check_bounds(offset, buf.len())?;
        self.meter(access, buf.len() as u64, |d| d.read_exact_at(offset, buf))
    }

    /// Every range is bounds-checked before the device moves a byte; the
    /// requested bytes are billed as one operation. A request whose
    /// ranges are all empty bills nothing.
    fn read_ranges(&self, ranges: &mut [RangeRead<'_>], access: Access) -> Result<()> {
        crate::debug_assert_ranges_sorted(ranges);
        if let [only] = ranges {
            return self.read_at(only.offset, only.buf, access);
        }
        let mut requested = 0u64;
        for r in ranges.iter() {
            self.check_bounds(r.offset, r.buf.len())?;
            requested += r.buf.len() as u64;
        }
        if requested == 0 {
            return Ok(());
        }
        self.meter(access, requested, |d| d.read_ranges(ranges))
    }

    fn len(&self) -> u64 {
        self.device.len()
    }
}

/// A read-write file handle: metered positioned reads plus tracked
/// positioned writes. Its length follows its own writes and
/// [`TrackedFile::set_len`].
///
/// Used by engines for vertex-value stores that are updated in place
/// (e.g. swapping `S_i`/`D_i` interval values back to disk).
pub struct TrackedFile(Metered<FileDevice>);

impl TrackedFile {
    /// Open (creating if needed) `path` for read/write access.
    pub fn open_rw(path: impl AsRef<Path>, tracker: Arc<IoTracker>) -> Result<Self> {
        Ok(TrackedFile(Metered::new(FileDevice::open_rw(path.as_ref())?, tracker)))
    }

    /// Write `data` at `offset`, growing the file if needed.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let t0 = hus_obs::latency_timer();
        self.0.device.write_at(offset, data)?;
        WRITE_NS.record_elapsed(t0);
        self.0.tracker.record_write(data.len() as u64);
        Ok(())
    }

    /// Pre-size the file to `len` bytes (not billed as data I/O).
    pub fn set_len(&self, len: u64) -> Result<()> {
        self.0.device.set_len(len)
    }

    /// Flush file contents to the OS.
    pub fn sync(&self) -> Result<()> {
        self.0.device.sync()
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        self.0.device.path()
    }
}

impl ReadBackend for TrackedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        self.0.read_at(offset, buf, access)
    }

    fn len(&self) -> u64 {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectDevice;
    use crate::fault::{FaultInjectBackend, FaultSpec};
    use crate::mmap::MmapDevice;
    use crate::retry::{ResilienceTracker, RetryBackend, RetryPolicy};

    fn patterned(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(31) % 251) as u8).collect()
    }

    /// A metered reader and the tracker it bills.
    type Billed = (Arc<IoTracker>, Arc<dyn ReadBackend>);

    /// `content` metered through every device this filesystem offers
    /// (`O_DIRECT` is refused on tmpfs), each with its own tracker.
    fn every_device(content: &[u8]) -> (tempfile::TempDir, Vec<Billed>) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("data.bin");
        std::fs::write(&path, content).unwrap();
        let (f, m, d) =
            (Arc::new(IoTracker::new()), Arc::new(IoTracker::new()), Arc::new(IoTracker::new()));
        let mut out: Vec<Billed> = vec![
            (Arc::clone(&f), Arc::new(Metered::new(FileDevice::open(&path).unwrap(), f))),
            (Arc::clone(&m), Arc::new(Metered::new(MmapDevice::open(&path).unwrap(), m))),
        ];
        match DirectDevice::open(&path) {
            Ok(direct) => out.push((Arc::clone(&d), Arc::new(Metered::new(direct, d)))),
            Err(e) => eprintln!("O_DIRECT unavailable here ({e}); skipping the direct device"),
        }
        (dir, out)
    }

    /// A device that serves `patterned` bytes and logs every
    /// `read_exact_at` it is asked for; it takes the provided `read_ranges`.
    struct Counting {
        len: u64,
        reads: std::sync::Mutex<Vec<(u64, usize)>>,
    }

    impl Device for Counting {
        fn len(&self) -> u64 {
            self.len
        }

        fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.reads.lock().unwrap().push((offset, buf.len()));
            buf.copy_from_slice(&patterned(offset as usize + buf.len())[offset as usize..]);
            Ok(())
        }
    }

    #[test]
    fn a_sorted_batch_is_one_spanning_device_read() {
        let data = patterned(4096);
        let device = Counting { len: 4096, reads: Default::default() };
        let tracker = Arc::new(IoTracker::new());
        let metered = Metered::new(device, Arc::clone(&tracker));
        // The second range overlaps the first, and the third ends past the
        // fourth: the span runs to the furthest end, not the last range's.
        let (mut a, mut b, mut c, mut d) = ([0u8; 16], [0u8; 8], [0u8; 900], [0u8; 4]);
        let mut ranges = [
            RangeRead { offset: 100, buf: &mut a },
            RangeRead { offset: 108, buf: &mut b },
            RangeRead { offset: 1000, buf: &mut c },
            RangeRead { offset: 1200, buf: &mut d },
        ];
        metered.read_ranges(&mut ranges, Access::Batched).unwrap();
        assert_eq!(*metered.device.reads.lock().unwrap(), [(100, 1900 - 100)]);
        assert_eq!((&a[..], &b[..]), (&data[100..116], &data[108..116]));
        assert_eq!((&c[..], &d[..]), (&data[1000..1900], &data[1200..1204]));
        let s = tracker.snapshot();
        assert_eq!((s.batched_read_bytes, s.batched_read_ops), (16 + 8 + 900 + 4, 1));
    }

    #[test]
    fn every_device_bills_requested_bytes_as_one_op() {
        let data = patterned(64 * 4096);
        let (_d, backends) = every_device(&data);
        for (tracker, b) in backends {
            let mut buf = vec![0u8; 100];
            b.read_at(50, &mut buf, Access::Random).unwrap();
            assert_eq!(buf, data[50..150]);
            b.read_at(100, &mut [], Access::Sequential).unwrap();

            let (mut a, mut m, mut z) = ([0u8; 8], [0u8; 5000], [0u8; 4]);
            let mut ranges = [
                RangeRead { offset: 10, buf: &mut a },
                RangeRead { offset: 4096 - 100, buf: &mut m },
                RangeRead { offset: 3 * 4096 + 500, buf: &mut z },
            ];
            b.read_ranges(&mut ranges, Access::Batched).unwrap();
            assert_eq!((&a[..], &z[..]), (&data[10..18], &data[3 * 4096 + 500..3 * 4096 + 504]));
            assert_eq!(m[..], data[4096 - 100..4096 - 100 + 5000]);

            // A long batch: 32 ranges of 777 bytes, each past the next
            // sector boundary.
            let at = |i: usize| 2 * 4096 * i + 13 * i;
            let mut bufs = vec![[0u8; 777]; 32];
            let mut ranges: Vec<RangeRead<'_>> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, buf)| RangeRead { offset: at(i) as u64, buf })
                .collect();
            b.read_ranges(&mut ranges, Access::Batched).unwrap();
            for (i, buf) in bufs.iter().enumerate() {
                assert_eq!(buf[..], data[at(i)..at(i) + 777], "range {i}");
            }

            // Overlapping ranges (adjacent index probes) are each filled
            // and billed in full.
            let (mut x, mut y) = ([0u8; 8], [0u8; 8]);
            let mut ranges =
                [RangeRead { offset: 4, buf: &mut x }, RangeRead { offset: 8, buf: &mut y }];
            b.read_ranges(&mut ranges, Access::Random).unwrap();
            assert_eq!((&x[..], &y[..]), (&data[4..12], &data[8..16]));

            let s = tracker.snapshot();
            assert_eq!((s.rand_read_bytes, s.rand_read_ops), (100 + 16, 2));
            assert_eq!((s.seq_read_bytes, s.seq_read_ops), (0, 1), "zero-length read");
            assert_eq!((s.batched_read_bytes, s.batched_read_ops), (8 + 5000 + 4 + 32 * 777, 2));
        }
    }

    #[test]
    fn out_of_bounds_is_rejected_before_any_device_read() {
        let (_d, backends) = every_device(&patterned(4096));
        for (tracker, b) in backends {
            let mut buf = [0u8; 8];
            assert!(matches!(
                b.read_at(4096 - 4, &mut buf, Access::Random),
                Err(StorageError::OutOfBounds { offset: 4092, len: 8, file_len: 4096 })
            ));
            assert!(matches!(
                b.read_at(u64::MAX - 2, &mut buf, Access::Random),
                Err(StorageError::OutOfBounds { .. })
            ));
            let (mut a, mut z) = ([0u8; 8], [0u8; 8]);
            let mut ranges =
                [RangeRead { offset: 0, buf: &mut a }, RangeRead { offset: 4092, buf: &mut z }];
            assert!(matches!(
                b.read_ranges(&mut ranges, Access::Batched),
                Err(StorageError::OutOfBounds { .. })
            ));
            assert_eq!(tracker.snapshot().total_bytes(), 0);
            assert_eq!(tracker.snapshot().batched_read_ops, 0);
        }
    }

    #[test]
    fn short_read_faults_under_retry_serve_the_same_bytes_on_every_device() {
        let data = patterned(8 * 4096 + 123);
        let spec = FaultSpec::parse("seed=42,short=0.2").unwrap();
        let (_d, backends) = every_device(&data);
        for (_, b) in backends {
            let resilience = Arc::new(ResilienceTracker::default());
            let faulty = FaultInjectBackend::new(b, spec);
            let retried = RetryBackend::new(Arc::new(faulty), RetryPolicy::default(), resilience);
            for &(off, len) in &[(0u64, 4096usize), (5000, 9000), (8 * 4096, 123), (1, 1)] {
                let mut buf = vec![0u8; len];
                retried.read_at(off, &mut buf, Access::Random).unwrap();
                assert_eq!(buf, data[off as usize..off as usize + len]);
            }
            let (mut a, mut z) = (vec![0u8; 300], vec![0u8; 700]);
            let mut ranges =
                [RangeRead { offset: 100, buf: &mut a }, RangeRead { offset: 20_000, buf: &mut z }];
            retried.read_ranges(&mut ranges, Access::Batched).unwrap();
            assert_eq!((&a[..], &z[..]), (&data[100..400], &data[20_000..20_700]));
        }
    }

    #[test]
    fn tracked_file_write_then_read() {
        let dir = tempfile::tempdir().unwrap();
        let tracker = Arc::new(IoTracker::new());
        let f = TrackedFile::open_rw(dir.path().join("rw.bin"), Arc::clone(&tracker)).unwrap();
        f.write_at(0, &[9, 8, 7, 6]).unwrap();
        f.write_at(4, &[5, 4]).unwrap();
        assert_eq!(f.len(), 6);
        let mut buf = [0u8; 6];
        f.read_at(0, &mut buf, Access::Sequential).unwrap();
        assert_eq!(buf, [9, 8, 7, 6, 5, 4]);
        let s = tracker.snapshot();
        assert_eq!((s.write_bytes, s.write_ops), (6, 2));
        assert_eq!((s.seq_read_bytes, s.seq_read_ops), (6, 1));
        assert!(matches!(
            f.read_at(4, &mut buf, Access::Random),
            Err(StorageError::OutOfBounds { file_len: 6, .. })
        ));
    }

    #[test]
    fn tracked_file_set_len_grows_without_io_billing() {
        let dir = tempfile::tempdir().unwrap();
        let tracker = Arc::new(IoTracker::new());
        let f = TrackedFile::open_rw(dir.path().join("g.bin"), Arc::clone(&tracker)).unwrap();
        f.set_len(128).unwrap();
        assert_eq!(f.len(), 128);
        assert_eq!(tracker.snapshot().write_bytes, 0);
        let mut buf = [0u8; 128];
        f.read_at(0, &mut buf, Access::Sequential).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn tracked_file_reopens_existing() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("persist.bin");
        let tracker = Arc::new(IoTracker::new());
        {
            let f = TrackedFile::open_rw(&path, Arc::clone(&tracker)).unwrap();
            f.write_at(0, &[42; 16]).unwrap();
            f.sync().unwrap();
        }
        let f = TrackedFile::open_rw(&path, tracker).unwrap();
        assert_eq!((f.len(), f.path()), (16, path.as_path()));
        let mut buf = [0u8; 16];
        f.read_at(0, &mut buf, Access::Random).unwrap();
        assert_eq!(buf, [42; 16]);
    }
}
