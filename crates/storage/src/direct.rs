//! `O_DIRECT` device: page-cache-bypassing reads through a pool of 4 KiB-
//! aligned bounce buffers.
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
//! Every read is one aligned bounce read, from the sector at or below its
//! start to the sector boundary at or past its end. A multi-range request
//! takes the shared span-and-scatter of [`Device::read_ranges`], so a
//! batch is one request on this device as on the file device.

use crate::aligned::{align_down, align_up, AlignedBuf, BufPool, DIRECT_ALIGN};
use crate::error::{Result, StorageError};
use crate::metered::Device;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

#[cfg(unix)]
use std::os::unix::fs::{FileExt, OpenOptionsExt};

/// `O_DIRECT` differs per architecture; these cover the targets we build.
#[cfg(any(target_arch = "aarch64", target_arch = "arm", target_arch = "powerpc64"))]
const O_DIRECT: i32 = 0o200000;
#[cfg(not(any(target_arch = "aarch64", target_arch = "arm", target_arch = "powerpc64")))]
const O_DIRECT: i32 = 0o40000;

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
            // Idle bounce buffers kept for concurrent readers (ROP rows,
            // COP columns) so that a read rarely allocates.
            pool: BufPool::new(16),
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
}

impl Device for DirectDevice {
    fn len(&self) -> u64 {
        self.len
    }

    /// One aligned bounce read covering the request, then a copy out.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let lo = align_down(offset);
        let needed = (offset + buf.len() as u64 - lo) as usize;
        let alen = align_up(needed as u64) as usize;
        let mut bounce = self.pool.take(alen);
        let filled = self.pread_aligned(lo, &mut bounce[..alen])?;
        if filled < needed {
            return Err(StorageError::io_at(
                &self.path,
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("direct read at {lo} got {filled} of {needed} aligned bytes"),
                ),
            ));
        }
        let skip = (offset - lo) as usize;
        buf.copy_from_slice(&bounce[skip..skip + buf.len()]);
        self.pool.give(bounce);
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
}
