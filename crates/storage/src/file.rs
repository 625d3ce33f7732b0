//! Positioned-read (`pread`) device, read-only for data files and
//! read-write under [`crate::TrackedFile`].

use crate::error::{Result, StorageError};
use crate::metered::Device;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// A file read with positioned reads. Safe for concurrent use from many
/// threads: positioned reads carry their own offset and never touch the
/// shared file cursor.
///
/// The length is cached at open, so a file truncated afterwards fails at
/// the `pread`, not at the bounds check; only this handle's own writes
/// and [`FileDevice::set_len`] move it.
pub(crate) struct FileDevice {
    path: PathBuf,
    file: File,
    len: AtomicU64,
}

impl FileDevice {
    /// Open `path` read-only.
    pub(crate) fn open(path: &Path) -> Result<Self> {
        Self::with_file(path, File::open(path))
    }

    /// Open (creating if needed) `path` for reading and writing.
    pub(crate) fn open_rw(path: &Path) -> Result<Self> {
        Self::with_file(
            path,
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path),
        )
    }

    fn with_file(path: &Path, file: std::io::Result<File>) -> Result<Self> {
        let file = file.map_err(|e| StorageError::io_at(path, e))?;
        let len = file.metadata().map_err(|e| StorageError::io_at(path, e))?.len();
        Ok(FileDevice { path: path.to_path_buf(), file, len: AtomicU64::new(len) })
    }

    /// Write `data` at `offset`, growing the file if needed.
    pub(crate) fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.file.write_all_at(data, offset).map_err(|e| StorageError::io_at(&self.path, e))?;
        self.len.fetch_max(offset + data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Resize the file to `len` bytes.
    pub(crate) fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len).map_err(|e| StorageError::io_at(&self.path, e))?;
        self.len.store(len, Ordering::Relaxed);
        Ok(())
    }

    /// Flush file contents to the OS.
    pub(crate) fn sync(&self) -> Result<()> {
        self.file.sync_data().map_err(|e| StorageError::io_at(&self.path, e))
    }

    /// Path of the backing file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Device for FileDevice {
    fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.file.read_exact_at(buf, offset).map_err(|e| StorageError::io_at(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RangeRead;

    fn device(content: &[u8]) -> (tempfile::TempDir, FileDevice) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("data.bin");
        std::fs::write(&path, content).unwrap();
        let d = FileDevice::open(&path).unwrap();
        (dir, d)
    }

    #[test]
    fn read_ranges_scatters_one_spanning_read() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        let (_d, f) = device(&data);
        assert_eq!(f.len(), 1024);
        let (mut a, mut m, mut z) = ([0u8; 8], [0u8; 16], [0u8; 4]);
        let mut ranges = [
            RangeRead { offset: 10, buf: &mut a },
            RangeRead { offset: 100, buf: &mut m },
            RangeRead { offset: 500, buf: &mut z },
        ];
        f.read_ranges(&mut ranges).unwrap();
        assert_eq!(a, data[10..18]);
        assert_eq!(m, data[100..116]);
        assert_eq!(z, data[500..504]);
    }

    #[test]
    fn read_ranges_fills_overlapping_ranges() {
        let data: Vec<u8> = (0..64u8).collect();
        let (_d, f) = device(&data);
        let (mut a, mut m) = ([0u8; 8], [0u8; 8]);
        let mut ranges =
            [RangeRead { offset: 4, buf: &mut a }, RangeRead { offset: 8, buf: &mut m }];
        f.read_ranges(&mut ranges).unwrap();
        assert_eq!((a, m), (data[4..12].try_into().unwrap(), data[8..16].try_into().unwrap()));
    }

    #[test]
    fn writes_and_set_len_move_the_length() {
        let dir = tempfile::tempdir().unwrap();
        let f = FileDevice::open_rw(&dir.path().join("rw.bin")).unwrap();
        f.write_at(0, &[9, 8, 7, 6]).unwrap();
        f.write_at(4, &[5, 4]).unwrap();
        assert_eq!(f.len(), 6);
        let mut buf = [0u8; 6];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7, 6, 5, 4]);
        f.set_len(128).unwrap();
        assert_eq!(f.len(), 128);
    }
}
