//! Positioned-read file backend and a read/write tracked file handle.

use crate::error::{Result, StorageError};
use crate::tracker::{Access, IoTracker};
use crate::{RangeRead, ReadBackend};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Per-access-class `pread` latency in nanoseconds.
static READ_NS_SEQ: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("storage.file.read_ns.seq");
static READ_NS_RAND: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("storage.file.read_ns.rand");
static READ_NS_BATCHED: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("storage.file.read_ns.batched");
/// `pwrite` latency in nanoseconds.
static WRITE_NS: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("storage.file.write_ns");

fn read_latency_hist(access: Access) -> &'static hus_obs::LazyHistogram {
    match access {
        Access::Sequential => &READ_NS_SEQ,
        Access::Random => &READ_NS_RAND,
        Access::Batched => &READ_NS_BATCHED,
    }
}

/// Read-only backend over a plain file using positioned (`pread`) reads.
///
/// Safe for concurrent use from many threads: positioned reads carry their
/// own offset and never touch the shared file cursor.
pub struct FileBackend {
    path: PathBuf,
    file: File,
    len: u64,
    tracker: Arc<IoTracker>,
}

impl FileBackend {
    /// Open `path` read-only, attributing traffic to `tracker`.
    pub fn open(path: impl AsRef<Path>, tracker: Arc<IoTracker>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| StorageError::io_at(&path, e))?;
        let len = file.metadata().map_err(|e| StorageError::io_at(&path, e))?.len();
        Ok(FileBackend { path, file, len, tracker })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl ReadBackend for FileBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        let want = buf.len() as u64;
        if offset + want > self.len {
            return Err(StorageError::OutOfBounds { offset, len: want, file_len: self.len });
        }
        let t0 = hus_obs::latency_timer();
        self.file.read_exact_at(buf, offset).map_err(|e| StorageError::io_at(&self.path, e))?;
        read_latency_hist(access).record_elapsed(t0);
        self.tracker.record_read(access, want);
        Ok(())
    }

    /// Multi-range read as one spanning `pread`: the disk head travels
    /// the run once (the elevator pass a real scheduler would make from
    /// the same queue), the requested slices are scattered out of the
    /// spanning buffer, and the *requested* bytes are billed as a single
    /// tracked operation — same bytes modeled, one syscall.
    fn read_ranges(&self, ranges: &mut [RangeRead<'_>], access: Access) -> Result<()> {
        crate::debug_assert_ranges_sorted(ranges);
        match ranges {
            [] => return Ok(()),
            [only] => return self.read_at(only.offset, only.buf, access),
            _ => {}
        }
        let mut span_lo = u64::MAX;
        let mut span_hi = 0u64;
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
            span_lo = span_lo.min(r.offset);
            span_hi = span_hi.max(end);
            requested += r.buf.len() as u64;
        }
        if requested == 0 {
            return Ok(());
        }
        let mut span = vec![0u8; (span_hi - span_lo) as usize];
        let t0 = hus_obs::latency_timer();
        self.file
            .read_exact_at(&mut span, span_lo)
            .map_err(|e| StorageError::io_at(&self.path, e))?;
        read_latency_hist(access).record_elapsed(t0);
        for r in ranges.iter_mut() {
            let s = (r.offset - span_lo) as usize;
            r.buf.copy_from_slice(&span[s..s + r.buf.len()]);
        }
        self.tracker.record_read(access, requested);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// A read-write file handle with tracked positioned reads and writes.
///
/// Used by engines for vertex-value stores that are updated in place
/// (e.g. swapping `S_i`/`D_i` interval values back to disk).
pub struct TrackedFile {
    path: PathBuf,
    file: File,
    len: AtomicU64,
    tracker: Arc<IoTracker>,
}

impl TrackedFile {
    /// Open (creating if needed) `path` for read/write access.
    pub fn open_rw(path: impl AsRef<Path>, tracker: Arc<IoTracker>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StorageError::io_at(&path, e))?;
        let len = file.metadata().map_err(|e| StorageError::io_at(&path, e))?.len();
        Ok(TrackedFile { path, file, len: AtomicU64::new(len), tracker })
    }

    /// Write `data` at `offset`, growing the file if needed.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let t0 = hus_obs::latency_timer();
        self.file.write_all_at(data, offset).map_err(|e| StorageError::io_at(&self.path, e))?;
        WRITE_NS.record_elapsed(t0);
        self.tracker.record_write(data.len() as u64);
        let end = offset + data.len() as u64;
        self.len.fetch_max(end, Ordering::Relaxed);
        Ok(())
    }

    /// Pre-size the file to `len` bytes (not billed as data I/O).
    pub fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len).map_err(|e| StorageError::io_at(&self.path, e))?;
        self.len.store(len, Ordering::Relaxed);
        Ok(())
    }

    /// Flush file contents to the OS.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data().map_err(|e| StorageError::io_at(&self.path, e))
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl ReadBackend for TrackedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8], access: Access) -> Result<()> {
        let want = buf.len() as u64;
        let len = self.len.load(Ordering::Relaxed);
        if offset + want > len {
            return Err(StorageError::OutOfBounds { offset, len: want, file_len: len });
        }
        let t0 = hus_obs::latency_timer();
        self.file.read_exact_at(buf, offset).map_err(|e| StorageError::io_at(&self.path, e))?;
        read_latency_hist(access).record_elapsed(t0);
        self.tracker.record_read(access, want);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_file(content: &[u8]) -> (tempfile::TempDir, PathBuf) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("data.bin");
        let mut f = File::create(&path).unwrap();
        f.write_all(content).unwrap();
        (dir, path)
    }

    #[test]
    fn file_backend_reads_and_tracks() {
        let (_d, path) = tmp_file(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let tracker = Arc::new(IoTracker::new());
        let b = FileBackend::open(&path, Arc::clone(&tracker)).unwrap();
        assert_eq!(b.len(), 8);
        let mut buf = [0u8; 4];
        b.read_at(2, &mut buf, Access::Random).unwrap();
        assert_eq!(buf, [3, 4, 5, 6]);
        let s = tracker.snapshot();
        assert_eq!(s.rand_read_bytes, 4);
        assert_eq!(s.rand_read_ops, 1);
    }

    #[test]
    fn file_backend_rejects_out_of_bounds() {
        let (_d, path) = tmp_file(&[0u8; 10]);
        let b = FileBackend::open(&path, Arc::new(IoTracker::new())).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            b.read_at(8, &mut buf, Access::Sequential),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn read_ranges_scatters_one_spanning_read() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        let (_d, path) = tmp_file(&data);
        let tracker = Arc::new(IoTracker::new());
        let b = FileBackend::open(&path, Arc::clone(&tracker)).unwrap();
        let (mut a, mut m, mut z) = ([0u8; 8], [0u8; 16], [0u8; 4]);
        let mut ranges = [
            RangeRead { offset: 10, buf: &mut a },
            RangeRead { offset: 100, buf: &mut m },
            RangeRead { offset: 500, buf: &mut z },
        ];
        b.read_ranges(&mut ranges, Access::Batched).unwrap();
        assert_eq!(a, data[10..18]);
        assert_eq!(m, data[100..116]);
        assert_eq!(z, data[500..504]);
        let s = tracker.snapshot();
        // Requested bytes billed, gap bytes not; one tracked op.
        assert_eq!(s.batched_read_bytes, 8 + 16 + 4);
        assert_eq!(s.batched_read_ops, 1);
    }

    #[test]
    fn read_ranges_fills_overlapping_ranges() {
        let data: Vec<u8> = (0..64u8).collect();
        let (_d, path) = tmp_file(&data);
        let tracker = Arc::new(IoTracker::new());
        let b = FileBackend::open(&path, Arc::clone(&tracker)).unwrap();
        let (mut a, mut m) = ([0u8; 8], [0u8; 8]);
        let mut ranges =
            [RangeRead { offset: 4, buf: &mut a }, RangeRead { offset: 8, buf: &mut m }];
        b.read_ranges(&mut ranges, Access::Random).unwrap();
        assert_eq!((a, m), (data[4..12].try_into().unwrap(), data[8..16].try_into().unwrap()));
        let s = tracker.snapshot();
        assert_eq!((s.rand_read_bytes, s.rand_read_ops), (16, 1));
    }

    #[test]
    fn read_ranges_rejects_out_of_bounds_before_reading() {
        let (_d, path) = tmp_file(&[0u8; 64]);
        let tracker = Arc::new(IoTracker::new());
        let b = FileBackend::open(&path, Arc::clone(&tracker)).unwrap();
        let (mut a, mut z) = ([0u8; 8], [0u8; 8]);
        let mut ranges =
            [RangeRead { offset: 0, buf: &mut a }, RangeRead { offset: 60, buf: &mut z }];
        assert!(matches!(
            b.read_ranges(&mut ranges, Access::Batched),
            Err(StorageError::OutOfBounds { .. })
        ));
        assert_eq!(tracker.snapshot().total_bytes(), 0);
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
        assert_eq!(s.write_bytes, 6);
        assert_eq!(s.write_ops, 2);
        assert_eq!(s.seq_read_bytes, 6);
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
        assert_eq!(f.len(), 16);
        let mut buf = [0u8; 16];
        f.read_at(0, &mut buf, Access::Random).unwrap();
        assert_eq!(buf, [42; 16]);
    }
}
