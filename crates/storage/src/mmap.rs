//! Memory-map device: reads are copies out of the map.
//!
//! In this build `memmap2` is the offline stand-in under `vendor/`, which
//! reads the whole file into a heap buffer at open. Two consequences
//! follow: the contents are frozen at open (a later change to the file is
//! not seen), and every opened file stays resident for as long as its
//! reader lives, which counts toward the process's peak RSS. Billing is
//! the metered layer's and therefore the same as on every other device:
//! the tracker measures *logical* out-of-core traffic, which is what the
//! paper's I/O-amount figures report.

use crate::error::{Result, StorageError};
use crate::metered::Device;
use crate::RangeRead;
use memmap2::Mmap;
use std::fs::File;
use std::path::Path;

/// A read-only map of one file; `None` for an empty file.
pub(crate) struct MmapDevice {
    map: Option<Mmap>,
}

impl MmapDevice {
    /// Map `path` read-only.
    pub(crate) fn open(path: &Path) -> Result<Self> {
        let file = File::open(path).map_err(|e| StorageError::io_at(path, e))?;
        let len = file.metadata().map_err(|e| StorageError::io_at(path, e))?.len();
        // mmap of an empty file fails on some platforms; model it as None.
        let map = if len == 0 {
            None
        } else {
            // SAFETY: we map read-only and the engines in this workspace
            // never modify a data file after it has been published by its
            // builder (builders write to a temp name and rename).
            Some(unsafe { Mmap::map(&file) }.map_err(|e| StorageError::io_at(path, e))?)
        };
        Ok(MmapDevice { map })
    }

    fn bytes(&self) -> &[u8] {
        self.map.as_deref().unwrap_or(&[])
    }
}

impl Device for MmapDevice {
    fn len(&self) -> u64 {
        self.bytes().len() as u64
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let s = offset as usize;
        buf.copy_from_slice(&self.bytes()[s..s + buf.len()]);
        Ok(())
    }

    /// One copy per range: a map makes no request that a span could save.
    fn read_ranges(&self, ranges: &mut [RangeRead<'_>]) -> Result<()> {
        for r in ranges.iter_mut() {
            self.read_exact_at(r.offset, r.buf)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileDevice;

    #[test]
    fn copies_match_the_file_device() {
        let data: Vec<u8> = (0..=255).collect();
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("data.bin");
        std::fs::write(&path, &data).unwrap();
        let (m, f) = (MmapDevice::open(&path).unwrap(), FileDevice::open(&path).unwrap());
        assert_eq!((m.len(), f.len()), (256, 256));
        let (mut a, mut b) = ([0u8; 16], [0u8; 16]);
        m.read_exact_at(100, &mut a).unwrap();
        f.read_exact_at(100, &mut b).unwrap();
        assert_eq!((&a[..], &b[..]), (&data[100..116], &data[100..116]));
    }

    #[test]
    fn empty_file_maps_as_empty() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("empty.bin");
        std::fs::write(&path, []).unwrap();
        assert_eq!(MmapDevice::open(&path).unwrap().len(), 0);
    }
}
