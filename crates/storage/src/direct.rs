//! `O_DIRECT` device: page-cache-bypassing reads from a pool of 4 KiB-aligned
//! buffers, with multi-range requests fanned out at queue depth.
//!
//! The out-of-core premise of HUS-Graph (paper §1, §4) is that the I/O
//! device, not the CPU, should bound runtime — but reading shards through
//! the OS page cache double-buffers every byte and hides the device's
//! actual queue behavior. `DirectDevice` opens shard and index files with
//! `O_DIRECT` and serves arbitrary (unaligned) reads by bouncing through
//! reused aligned buffers ([`crate::aligned`]), keeping alignment strictly
//! *below* the metered layer: callers see the same byte-exact semantics,
//! and the requested bytes — not the aligned transfer — are billed.
//!
//! A multi-range request is submitted at queue depth instead of as one
//! spanning `pread`: a scoped-thread fan-out of up to
//! `DEFAULT_QUEUE_DEPTH` (8) aligned bounce reads.

use crate::aligned::{align_down, align_up, AlignedBuf, BufPool, DIRECT_ALIGN};
use crate::error::{Result, StorageError};
use crate::metered::Device;
use crate::RangeRead;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Read-only `O_DIRECT` device over a shard or index file.
///
/// Construction probes the filesystem: `O_DIRECT` opens succeed on tmpfs
/// and some network filesystems only to fail at the first read, so
/// [`DirectDevice::open`] performs one aligned probe read and surfaces
/// the failure immediately — [`crate::StorageDir`] then degrades to the
/// plain file device, as it does when a map fails.
pub(crate) struct DirectDevice {
    path: PathBuf,
    file: File,
    len: u64,
    pool: BufPool,
}

impl DirectDevice {
    /// Open `path` with `O_DIRECT`.
    #[cfg(unix)]
    pub(crate) fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .custom_flags(O_DIRECT)
            .open(path)
            .map_err(|e| StorageError::io_at(path, e))?;
        let len = file.metadata().map_err(|e| StorageError::io_at(path, e))?.len();
        let device = DirectDevice {
            path: path.to_path_buf(),
            file,
            len,
            // Enough idle buffers to serve a full-depth batch without
            // re-allocating, plus slack for concurrent readers.
            pool: BufPool::new(2 * DEFAULT_QUEUE_DEPTH),
        };
        device.probe_read()?;
        Ok(device)
    }

    /// Non-unix stub: always fails, so callers degrade to the portable
    /// file device.
    #[cfg(not(unix))]
    pub(crate) fn open(path: &Path) -> Result<Self> {
        Err(StorageError::io_at(
            path,
            std::io::Error::new(std::io::ErrorKind::Unsupported, "O_DIRECT requires unix"),
        ))
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

impl Device for DirectDevice {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_ranges(&mut [RangeRead { offset, buf }])
    }

    /// Vectored multi-range read: one aligned bounce read per range,
    /// overlapped at queue depth by the scoped-thread fan-out.
    fn read_ranges(&self, ranges: &mut [RangeRead<'_>]) -> Result<()> {
        let mut jobs: Vec<AlignedJob> =
            ranges.iter().map(|r| self.job_for(r.offset, r.buf.len())).collect();
        self.fan_out(&mut jobs)?;
        for (r, job) in ranges.iter_mut().zip(&jobs) {
            let skip = (r.offset - job.lo) as usize;
            r.buf.copy_from_slice(&job.buf[skip..skip + r.buf.len()]);
        }
        for job in jobs {
            self.pool.give(job.buf);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileDevice;

    fn patterned(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(31) % 251) as u8).collect()
    }

    /// A direct device over `content` beside a file device over the same
    /// file, or `None` when the filesystem refuses `O_DIRECT` (tmpfs).
    fn open_or_skip(content: &[u8]) -> Option<(tempfile::TempDir, DirectDevice, FileDevice)> {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("data.bin");
        std::fs::write(&path, content).unwrap();
        match DirectDevice::open(&path) {
            Ok(d) => Some((dir, d, FileDevice::open(&path).unwrap())),
            Err(e) => {
                eprintln!("O_DIRECT unavailable here ({e}); skipping");
                None
            }
        }
    }

    #[test]
    fn straddling_and_tail_reads_match_file_device() {
        // 2.5 blocks: exercises sub-block tails and boundary straddles.
        let data = patterned(2 * DIRECT_ALIGN + DIRECT_ALIGN / 2);
        let Some((_d, direct, file)) = open_or_skip(&data) else { return };
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
            direct.read_exact_at(off, &mut a).unwrap();
            file.read_exact_at(off, &mut b).unwrap();
            assert_eq!(a, b, "mismatch at offset {off} len {len}");
            assert_eq!(a, &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn read_ranges_scatters_aligned_jobs() {
        let data = patterned(4 * DIRECT_ALIGN);
        let Some((_d, direct, _)) = open_or_skip(&data) else { return };
        let (mut a, mut m, mut z) = ([0u8; 8], [0u8; 5000], [0u8; 4]);
        let mut ranges = [
            RangeRead { offset: 10, buf: &mut a },
            RangeRead { offset: DIRECT_ALIGN as u64 - 100, buf: &mut m },
            RangeRead { offset: 3 * DIRECT_ALIGN as u64 + 500, buf: &mut z },
        ];
        direct.read_ranges(&mut ranges).unwrap();
        assert_eq!(a, data[10..18]);
        assert_eq!(m[..], data[DIRECT_ALIGN - 100..DIRECT_ALIGN - 100 + 5000]);
        assert_eq!(z, data[3 * DIRECT_ALIGN + 500..3 * DIRECT_ALIGN + 504]);
    }

    #[test]
    fn many_ranges_exceeding_queue_depth() {
        let data = patterned(8 * DEFAULT_QUEUE_DEPTH * DIRECT_ALIGN);
        let Some((_d, direct, _)) = open_or_skip(&data) else { return };
        // Four claims per fan-out worker.
        let n = 4 * DEFAULT_QUEUE_DEPTH;
        let mut bufs: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; 777]).collect();
        let mut ranges: Vec<RangeRead<'_>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| RangeRead { offset: (i * 2 * DIRECT_ALIGN + 13 * i) as u64, buf: b })
            .collect();
        direct.read_ranges(&mut ranges).unwrap();
        drop(ranges);
        for (i, b) in bufs.iter().enumerate() {
            let off = i * 2 * DIRECT_ALIGN + 13 * i;
            assert_eq!(b[..], data[off..off + 777], "range {i}");
        }
    }
}
