//! Buffered tracked writing.

use crate::error::{Result, StorageError};
use crate::fault::{FaultInjectWriter, WriteFault};
use crate::pod::{self, Pod};
use crate::tracker::IoTracker;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Buffered writer that bills every byte to the shared tracker.
pub struct TrackedWriter {
    path: PathBuf,
    inner: BufWriter<File>,
    tracker: Arc<IoTracker>,
    written: u64,
    faults: Option<Arc<FaultInjectWriter>>,
}

impl TrackedWriter {
    /// Create (truncate) `path` for streaming output.
    pub fn create(path: impl AsRef<Path>, tracker: Arc<IoTracker>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path).map_err(|e| StorageError::io_at(&path, e))?;
        Ok(TrackedWriter {
            path,
            inner: BufWriter::with_capacity(1 << 20, file),
            tracker,
            written: 0,
            faults: None,
        })
    }

    /// Attach a write-fault injector: each `write_all` draws transient
    /// write faults (ENOSPC / short write / torn) and `finish_synced`
    /// draws the fsync-failure kind, so a streaming build exercises the
    /// same failure modes as whole-file durable writes.
    pub fn with_faults(mut self, faults: Arc<FaultInjectWriter>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Append raw bytes.
    pub fn write_all(&mut self, data: &[u8]) -> Result<()> {
        if let Some(inj) = &self.faults {
            match inj.draw_stream(data.len()) {
                None | Some(WriteFault::FsyncFail) => {}
                Some(fault @ WriteFault::Enospc) => {
                    return Err(FaultInjectWriter::error_of(fault, &self.path));
                }
                Some(fault @ (WriteFault::ShortWrite { keep } | WriteFault::Torn { keep })) => {
                    let _ = self.inner.write_all(&data[..keep]);
                    self.written += keep as u64;
                    return Err(FaultInjectWriter::error_of(fault, &self.path));
                }
            }
        }
        self.inner.write_all(data).map_err(|e| StorageError::io_at(&self.path, e))?;
        self.written += data.len() as u64;
        Ok(())
    }

    /// Append a typed slice as raw little-endian bytes.
    pub fn write_pod_slice<T: Pod>(&mut self, items: &[T]) -> Result<()> {
        self.write_all(pod::as_bytes(items))
    }

    /// Append a single typed value.
    pub fn write_pod<T: Pod>(&mut self, item: &T) -> Result<()> {
        self.write_pod_slice(std::slice::from_ref(item))
    }

    /// Bytes written so far (== the offset the next write lands at).
    pub fn position(&self) -> u64 {
        self.written
    }

    /// Flush, record the traffic, and close the file.
    pub fn finish(mut self) -> Result<u64> {
        self.inner.flush().map_err(|e| StorageError::io_at(&self.path, e))?;
        self.tracker.record_write(self.written);
        Ok(self.written)
    }

    /// Like [`TrackedWriter::finish`], but also fsync the file so the
    /// bytes are durable before the caller records progress past them
    /// (subject to the `HUS_NO_FSYNC` escape hatch). Builders use this
    /// for files whose existence a later crash-recovery phase relies
    /// on; see DESIGN.md §10.
    pub fn finish_synced(mut self) -> Result<u64> {
        self.inner.flush().map_err(|e| StorageError::io_at(&self.path, e))?;
        if let Some(inj) = &self.faults {
            if inj.draw_fsync() {
                self.tracker.record_write(self.written);
                return Err(FaultInjectWriter::error_of(WriteFault::FsyncFail, &self.path));
            }
        }
        if crate::durable::fsync_enabled() {
            self.inner.get_ref().sync_all().map_err(|e| StorageError::io_at(&self.path, e))?;
        }
        self.tracker.record_write(self.written);
        Ok(self.written)
    }
}

#[cfg(test)]
mod tests {
    use crate::dir::StorageDir;
    use crate::tracker::Access;

    #[test]
    fn writer_tracks_on_finish_only() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let mut w = dir.writer("f.bin").unwrap();
        w.write_all(&[0; 100]).unwrap();
        assert_eq!(dir.tracker().snapshot().write_bytes, 0);
        assert_eq!(w.position(), 100);
        let n = w.finish().unwrap();
        assert_eq!(n, 100);
        assert_eq!(dir.tracker().snapshot().write_bytes, 100);
    }

    #[test]
    fn pod_writes_roundtrip() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let mut w = dir.writer("v.bin").unwrap();
        w.write_pod_slice(&[1u32, 2, 3]).unwrap();
        w.write_pod(&99u32).unwrap();
        w.finish().unwrap();
        let r = dir.reader("v.bin").unwrap();
        let v: Vec<u32> = crate::read_pod_vec(&*r, 0, 4, Access::Sequential).unwrap();
        assert_eq!(v, vec![1, 2, 3, 99]);
    }
}
