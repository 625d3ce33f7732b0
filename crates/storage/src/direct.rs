//! `O_DIRECT` read backend: page-cache-bypassing reads from a pool of
//! 4 KiB-aligned buffers, with truly vectored `read_ranges` submission.
//!
//! The out-of-core premise of HUS-Graph (paper §1, §4) is that the I/O
//! device, not the CPU, should bound runtime — but reading shards through
//! the OS page cache double-buffers every byte under our own LRU and hides
//! the device's actual queue behavior. `DirectBackend` opens shard and
//! index files with `O_DIRECT` and serves arbitrary (unaligned) reads by
//! bouncing through reused aligned buffers ([`crate::aligned`]), keeping
//! alignment strictly *below* the checksum/codec/billing layers: callers
//! see the same byte-exact semantics and the tracker bills the same
//! requested bytes as [`crate::FileBackend`].
//!
//! `read_ranges` is submitted at queue depth instead of as one spanning
//! `pread`: a scoped-thread fan-out of up to `DEFAULT_QUEUE_DEPTH` (8)
//! aligned bounce reads, billed as the requested bytes in one operation.

use crate::aligned::{align_down, align_up, AlignedBuf, BufPool, DIRECT_ALIGN};
use crate::error::{Result, StorageError};
use crate::tracker::{Access, IoTracker};
use crate::{RangeRead, ReadBackend};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[cfg(unix)]
use std::os::unix::fs::{FileExt, OpenOptionsExt};

/// `O_DIRECT` differs per architecture; these cover the targets we build.
#[cfg(any(target_arch = "aarch64", target_arch = "arm", target_arch = "powerpc64"))]
const O_DIRECT: i32 = 0o200000;
#[cfg(not(any(target_arch = "aarch64", target_arch = "arm", target_arch = "powerpc64")))]
const O_DIRECT: i32 = 0o40000;

/// I/O queue depth: the in-flight request target of a vectored
/// submission.
const DEFAULT_QUEUE_DEPTH: usize = 8;

/// Per-access-class direct-read latency in nanoseconds (the direct twin of
/// `storage.file.read_ns.*`).
static READ_NS_SEQ: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("storage.direct.read_ns.seq");
static READ_NS_RAND: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("storage.direct.read_ns.rand");
static READ_NS_BATCHED: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("storage.direct.read_ns.batched");

fn read_latency_hist(access: Access) -> &'static hus_obs::LazyHistogram {
    match access {
        Access::Sequential => &READ_NS_SEQ,
        Access::Random => &READ_NS_RAND,
        Access::Batched => &READ_NS_BATCHED,
    }
}

/// One aligned bounce read covering a caller range.
struct AlignedJob {
    /// Aligned file offset the bounce read starts at.
    lo: u64,
    /// Bytes that must be present in the bounce buffer (unaligned tail of
    /// the caller's range relative to `lo`).
    needed: usize,
    /// Aligned transfer length.
    alen: usize,
    buf: AlignedBuf,
}

/// Read-only `O_DIRECT` backend over a shard or index file.
///
/// Construction probes the filesystem: `O_DIRECT` opens succeed on tmpfs
/// and some network filesystems only to fail at the first read, so
/// [`DirectBackend::open`] performs one aligned probe read and surfaces
/// the failure immediately — [`crate::StorageDir`] then degrades to the
/// plain file backend, mirroring the mmap→file ladder.
pub struct DirectBackend {
    path: PathBuf,
    file: File,
    len: u64,
    tracker: Arc<IoTracker>,
    pool: BufPool,
}

impl DirectBackend {
    /// Open `path` with `O_DIRECT`, attributing traffic to `tracker`.
    #[cfg(unix)]
    pub fn open(path: impl AsRef<Path>, tracker: Arc<IoTracker>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .custom_flags(O_DIRECT)
            .open(&path)
            .map_err(|e| StorageError::io_at(&path, e))?;
        let len = file.metadata().map_err(|e| StorageError::io_at(&path, e))?.len();
        let backend = DirectBackend {
            path,
            file,
            len,
            tracker,
            // Enough idle buffers to serve a full-depth batch without
            // re-allocating, plus slack for concurrent readers.
            pool: BufPool::new(2 * DEFAULT_QUEUE_DEPTH),
        };
        backend.probe_read()?;
        Ok(backend)
    }

    /// Non-unix stub: always fails, so callers degrade to the portable
    /// file backend.
    #[cfg(not(unix))]
    pub fn open(path: impl AsRef<Path>, _tracker: Arc<IoTracker>) -> Result<Self> {
        Err(StorageError::io_at(
            path.as_ref(),
            std::io::Error::new(std::io::ErrorKind::Unsupported, "O_DIRECT requires unix"),
        ))
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Verify the filesystem actually honors `O_DIRECT` reads: tmpfs (and
    /// some network filesystems) accept the open flag but fail the first
    /// read with `EINVAL`.
    #[cfg(unix)]
    fn probe_read(&self) -> Result<()> {
        if self.len == 0 {
            return Ok(());
        }
        let mut buf = AlignedBuf::zeroed(DIRECT_ALIGN);
        let n = self
            .file
            .read_at(&mut buf[..DIRECT_ALIGN], 0)
            .map_err(|e| StorageError::io_at(&self.path, e))?;
        if n == 0 {
            return Err(StorageError::io_at(
                &self.path,
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "O_DIRECT probe read"),
            ));
        }
        Ok(())
    }

    /// `pread` loop over an aligned span. Returns bytes filled; short only
    /// at EOF (an unaligned partial return under `O_DIRECT` means the file
    /// tail was reached).
    #[cfg(unix)]
    fn pread_aligned(&self, lo: u64, buf: &mut [u8]) -> Result<usize> {
        debug_assert!((lo as usize).is_multiple_of(DIRECT_ALIGN));
        debug_assert!(buf.len().is_multiple_of(DIRECT_ALIGN));
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.file.read_at(&mut buf[filled..], lo + filled as u64) {
                Ok(0) => break,
                Ok(n) => {
                    filled += n;
                    if !filled.is_multiple_of(DIRECT_ALIGN) {
                        break; // EOF tail: cannot continue aligned.
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(StorageError::io_at(&self.path, e)),
            }
        }
        Ok(filled)
    }

    fn job_for(&self, offset: u64, len: usize) -> AlignedJob {
        let lo = align_down(offset);
        let needed = (offset + len as u64 - lo) as usize;
        let alen = align_up(needed as u64) as usize;
        AlignedJob { lo, needed, alen, buf: self.pool.take(alen) }
    }

    fn check_filled(&self, job: &AlignedJob, filled: usize) -> Result<()> {
        if filled < job.needed {
            return Err(StorageError::io_at(
                &self.path,
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!(
                        "direct read at {} got {filled} of {} aligned bytes",
                        job.lo, job.needed
                    ),
                ),
            ));
        }
        Ok(())
    }

    /// Thread-pool fan-out over aligned jobs: up to [`DEFAULT_QUEUE_DEPTH`]
    /// scoped worker threads claim jobs from a shared counter and `pread`
    /// them concurrently.
    #[cfg(unix)]
    fn fan_out(&self, jobs: &mut [AlignedJob]) -> Result<()> {
        let workers = DEFAULT_QUEUE_DEPTH.min(jobs.len());
        if workers <= 1 {
            for job in jobs.iter_mut() {
                let filled = self.pread_aligned(job.lo, &mut job.buf[..job.alen])?;
                self.check_filled(job, filled)?;
            }
            return Ok(());
        }
        let next = AtomicUsize::new(0);
        let results: Vec<parking_lot::Mutex<Option<Result<()>>>> =
            jobs.iter().map(|_| parking_lot::Mutex::new(None)).collect();
        let jobs_cells: Vec<parking_lot::Mutex<&mut AlignedJob>> =
            jobs.iter_mut().map(parking_lot::Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs_cells.len() {
                        break;
                    }
                    let mut job = jobs_cells[i].lock();
                    let job = &mut **job;
                    let res = self
                        .pread_aligned(job.lo, &mut job.buf[..job.alen])
                        .and_then(|filled| self.check_filled(job, filled));
                    *results[i].lock() = Some(res);
                });
            }
        });
        for cell in results {
            cell.into_inner().expect("worker completed every claimed job")?;
        }
        Ok(())
    }
}

impl ReadBackend for DirectBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        let want = buf.len() as u64;
        if offset + want > self.len {
            return Err(StorageError::OutOfBounds { offset, len: want, file_len: self.len });
        }
        if want == 0 {
            self.tracker.record_read(access, 0);
            return Ok(());
        }
        let mut job = self.job_for(offset, buf.len());
        let t0 = hus_obs::latency_timer();
        let filled = self.pread_aligned(job.lo, &mut job.buf[..job.alen])?;
        self.check_filled(&job, filled)?;
        read_latency_hist(access).record_elapsed(t0);
        let skip = (offset - job.lo) as usize;
        buf.copy_from_slice(&job.buf[skip..skip + buf.len()]);
        self.tracker.record_read(access, want);
        self.pool.give(job.buf);
        Ok(())
    }

    /// Vectored multi-range read: one aligned bounce read per range,
    /// overlapped at queue depth by the scoped-thread fan-out. The
    /// *requested* bytes are billed once as a single tracked operation —
    /// byte-for-byte the same model as
    /// [`FileBackend::read_ranges`](crate::FileBackend), only the
    /// submission shape differs.
    fn read_ranges(&self, ranges: &mut [RangeRead<'_>], access: Access) -> Result<()> {
        crate::debug_assert_ranges_sorted(ranges);
        match ranges {
            [] => return Ok(()),
            [only] => return self.read_at(only.offset, only.buf, access),
            _ => {}
        }
        let mut requested = 0u64;
        for r in ranges.iter() {
            let end = r.offset + r.buf.len() as u64;
            if end > self.len {
                return Err(StorageError::OutOfBounds {
                    offset: r.offset,
                    len: r.buf.len() as u64,
                    file_len: self.len,
                });
            }
            requested += r.buf.len() as u64;
        }
        if requested == 0 {
            return Ok(());
        }
        let mut jobs: Vec<AlignedJob> =
            ranges.iter().map(|r| self.job_for(r.offset, r.buf.len())).collect();
        let t0 = hus_obs::latency_timer();
        self.fan_out(&mut jobs)?;
        read_latency_hist(access).record_elapsed(t0);
        for (r, job) in ranges.iter_mut().zip(&jobs) {
            let skip = (r.offset - job.lo) as usize;
            r.buf.copy_from_slice(&job.buf[skip..skip + r.buf.len()]);
        }
        self.tracker.record_read(access, requested);
        for job in jobs {
            self.pool.give(job.buf);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjectBackend, FaultSpec};
    use crate::file::FileBackend;
    use crate::retry::{RetryBackend, RetryPolicy};
    use std::io::Write;

    fn patterned(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(31) % 251) as u8).collect()
    }

    fn tmp_file(content: &[u8]) -> (tempfile::TempDir, PathBuf) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("data.bin");
        let mut f = File::create(&path).unwrap();
        f.write_all(content).unwrap();
        f.sync_all().unwrap();
        (dir, path)
    }

    /// Open a direct backend or skip the test when the filesystem refuses
    /// `O_DIRECT` (tmpfs in CI containers).
    fn open_or_skip(path: &Path, tracker: Arc<IoTracker>) -> Option<DirectBackend> {
        match DirectBackend::open(path, tracker) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("O_DIRECT unavailable here ({e}); skipping");
                None
            }
        }
    }

    #[test]
    fn straddling_and_tail_reads_match_file_backend() {
        // 2.5 blocks: exercises sub-block tails and boundary straddles.
        let data = patterned(2 * DIRECT_ALIGN + DIRECT_ALIGN / 2);
        let (_d, path) = tmp_file(&data);
        let Some(direct) = open_or_skip(&path, Arc::new(IoTracker::new())) else { return };
        let file = FileBackend::open(&path, Arc::new(IoTracker::new())).unwrap();
        assert_eq!(direct.len(), file.len());

        let cases: &[(u64, usize)] = &[
            (0, 1),
            (0, DIRECT_ALIGN),
            (1, DIRECT_ALIGN),            // straddles the first boundary
            (DIRECT_ALIGN as u64 - 1, 2), // 2 bytes across a boundary
            (DIRECT_ALIGN as u64 - 1, DIRECT_ALIGN + 2), // spans a full block + both edges
            (7, 3 * DIRECT_ALIGN / 2),
            (data.len() as u64 - 1, 1), // last byte of the unaligned tail
            (2 * DIRECT_ALIGN as u64, DIRECT_ALIGN / 2), // entire sub-block tail
            (2 * DIRECT_ALIGN as u64 + 17, 100), // interior of the tail
        ];
        for &(off, len) in cases {
            let mut a = vec![0u8; len];
            let mut b = vec![0xffu8; len];
            direct.read_at(off, &mut a, Access::Random).unwrap();
            file.read_at(off, &mut b, Access::Random).unwrap();
            assert_eq!(a, b, "mismatch at offset {off} len {len}");
            assert_eq!(a, &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn billing_matches_file_backend() {
        let data = patterned(3 * DIRECT_ALIGN);
        let (_d, path) = tmp_file(&data);
        let tracker = Arc::new(IoTracker::new());
        let Some(direct) = open_or_skip(&path, Arc::clone(&tracker)) else { return };
        let mut buf = vec![0u8; 100];
        direct.read_at(50, &mut buf, Access::Random).unwrap();
        let s = tracker.snapshot();
        // Requested bytes billed — not the aligned bounce transfer.
        assert_eq!(s.rand_read_bytes, 100);
        assert_eq!(s.rand_read_ops, 1);
    }

    #[test]
    fn read_ranges_scatters_and_bills_once() {
        let data = patterned(4 * DIRECT_ALIGN);
        let (_d, path) = tmp_file(&data);
        let tracker = Arc::new(IoTracker::new());
        let Some(direct) = open_or_skip(&path, Arc::clone(&tracker)) else { return };
        let (mut a, mut m, mut z) = ([0u8; 8], [0u8; 5000], [0u8; 4]);
        let mut ranges = [
            RangeRead { offset: 10, buf: &mut a },
            RangeRead { offset: DIRECT_ALIGN as u64 - 100, buf: &mut m },
            RangeRead { offset: 3 * DIRECT_ALIGN as u64 + 500, buf: &mut z },
        ];
        direct.read_ranges(&mut ranges, Access::Batched).unwrap();
        assert_eq!(a, data[10..18]);
        assert_eq!(m[..], data[DIRECT_ALIGN - 100..DIRECT_ALIGN - 100 + 5000]);
        assert_eq!(z, data[3 * DIRECT_ALIGN + 500..3 * DIRECT_ALIGN + 504]);
        let s = tracker.snapshot();
        assert_eq!(s.batched_read_bytes, 8 + 5000 + 4);
        assert_eq!(s.batched_read_ops, 1);
    }

    #[test]
    fn out_of_bounds_rejected_before_reading() {
        let (_d, path) = tmp_file(&patterned(DIRECT_ALIGN));
        let tracker = Arc::new(IoTracker::new());
        let Some(direct) = open_or_skip(&path, Arc::clone(&tracker)) else { return };
        let mut buf = [0u8; 8];
        assert!(matches!(
            direct.read_at(DIRECT_ALIGN as u64 - 4, &mut buf, Access::Random),
            Err(StorageError::OutOfBounds { .. })
        ));
        let (mut a, mut b) = ([0u8; 8], [0u8; 8]);
        let mut ranges = [
            RangeRead { offset: 0, buf: &mut a },
            RangeRead { offset: DIRECT_ALIGN as u64 - 4, buf: &mut b },
        ];
        assert!(matches!(
            direct.read_ranges(&mut ranges, Access::Batched),
            Err(StorageError::OutOfBounds { .. })
        ));
        assert_eq!(tracker.snapshot().total_bytes(), 0);
    }

    #[test]
    fn many_ranges_exceeding_queue_depth() {
        let data = patterned(8 * DEFAULT_QUEUE_DEPTH * DIRECT_ALIGN);
        let (_d, path) = tmp_file(&data);
        let tracker = Arc::new(IoTracker::new());
        let Some(direct) = open_or_skip(&path, Arc::clone(&tracker)) else { return };
        // Four claims per fan-out worker.
        let n = 4 * DEFAULT_QUEUE_DEPTH;
        let mut bufs: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; 777]).collect();
        let mut ranges: Vec<RangeRead<'_>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| RangeRead { offset: (i * 2 * DIRECT_ALIGN + 13 * i) as u64, buf: b })
            .collect();
        direct.read_ranges(&mut ranges, Access::Batched).unwrap();
        drop(ranges);
        for (i, b) in bufs.iter().enumerate() {
            let off = i * 2 * DIRECT_ALIGN + 13 * i;
            assert_eq!(b[..], data[off..off + 777], "range {i}");
        }
        let s = tracker.snapshot();
        assert_eq!(s.batched_read_bytes, n as u64 * 777);
        assert_eq!(s.batched_read_ops, 1);
    }

    #[test]
    fn short_read_fault_injection_matches_file_backend() {
        // Satellite: DirectBackend under HUS_FAULT-style short-read
        // injection, wrapped in the retry layer, must stay bit-identical
        // with FileBackend under the same fault schedule.
        let data = patterned(8 * DIRECT_ALIGN + 123);
        let (_d, path) = tmp_file(&data);
        let spec = FaultSpec::parse("seed=42,short=0.2").unwrap();
        let policy = RetryPolicy::default();

        let run = |base: Arc<dyn ReadBackend>| -> Vec<u8> {
            let resilience = Arc::new(crate::retry::ResilienceTracker::default());
            let faulty = FaultInjectBackend::new(base, spec);
            let retried = RetryBackend::new(Arc::new(faulty), policy, resilience);
            let mut out = Vec::new();
            for &(off, len) in
                &[(0u64, 4096usize), (5000, 9000), (8 * DIRECT_ALIGN as u64, 123), (1, 1)]
            {
                let mut buf = vec![0u8; len];
                retried.read_at(off, &mut buf, Access::Random).unwrap();
                out.extend_from_slice(&buf);
            }
            let (mut a, mut b) = (vec![0u8; 300], vec![0u8; 700]);
            let mut ranges =
                [RangeRead { offset: 100, buf: &mut a }, RangeRead { offset: 20_000, buf: &mut b }];
            retried.read_ranges(&mut ranges, Access::Batched).unwrap();
            out.extend_from_slice(&a);
            out.extend_from_slice(&b);
            out
        };

        let tracker = Arc::new(IoTracker::new());
        let Some(direct) = open_or_skip(&path, Arc::clone(&tracker)) else { return };
        let via_direct = run(Arc::new(direct));
        let via_file = run(Arc::new(FileBackend::open(&path, Arc::new(IoTracker::new())).unwrap()));
        assert_eq!(via_direct, via_file);
    }

    #[test]
    fn zero_length_read_is_ok() {
        let (_d, path) = tmp_file(&patterned(DIRECT_ALIGN));
        let Some(direct) = open_or_skip(&path, Arc::new(IoTracker::new())) else { return };
        let mut empty = [0u8; 0];
        direct.read_at(100, &mut empty, Access::Sequential).unwrap();
    }
}
