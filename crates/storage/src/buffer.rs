//! Streaming helpers: buffered tracked writing and chunked block scans.

use crate::error::{Result, StorageError};
use crate::fault::{FaultInjectWriter, WriteFault};
use crate::pod::{self, Pod};
use crate::tracker::{Access, IoTracker};
use crate::ReadBackend;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default chunk size for streaming scans (large enough that per-chunk
/// tracker updates are negligible).
pub const DEFAULT_CHUNK: usize = 4 << 20;

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

/// Chunked sequential scan over a byte range of a backend.
///
/// Engines use this to stream whole in-blocks/edge-blocks; every chunk is
/// billed as [`Access::Sequential`].
pub struct BlockStream<'a> {
    backend: &'a dyn ReadBackend,
    pos: u64,
    end: u64,
    chunk: usize,
    buf: Vec<u8>,
}

impl<'a> BlockStream<'a> {
    /// Stream bytes `[start, end)` of `backend` in `chunk`-sized pieces.
    pub fn new(backend: &'a dyn ReadBackend, start: u64, end: u64, chunk: usize) -> Self {
        assert!(start <= end, "invalid range {start}..{end}");
        assert!(chunk > 0, "chunk must be positive");
        BlockStream { backend, pos: start, end, chunk, buf: Vec::new() }
    }

    /// Stream with the default chunk size.
    pub fn over(backend: &'a dyn ReadBackend, start: u64, end: u64) -> Self {
        Self::new(backend, start, end, DEFAULT_CHUNK)
    }

    /// Read the next chunk; `None` at end of range.
    #[allow(clippy::should_implement_trait)] // lending iterator: borrows self
    pub fn next(&mut self) -> Result<Option<&[u8]>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let want = ((self.end - self.pos) as usize).min(self.chunk);
        self.buf.resize(want, 0);
        self.backend.read_at(self.pos, &mut self.buf, Access::Sequential)?;
        self.pos += want as u64;
        Ok(Some(&self.buf))
    }

    /// Remaining bytes in the range.
    pub fn remaining(&self) -> u64 {
        self.end - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::StorageDir;

    fn store_with(name: &str, data: &[u8]) -> (tempfile::TempDir, StorageDir) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let mut w = dir.writer(name).unwrap();
        w.write_all(data).unwrap();
        w.finish().unwrap();
        (tmp, dir)
    }

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

    #[test]
    fn block_stream_covers_range_in_chunks() {
        let data: Vec<u8> = (0..100u8).collect();
        let (_t, dir) = store_with("d.bin", &data);
        let r = dir.reader("d.bin").unwrap();
        let mut s = BlockStream::new(&*r, 10, 90, 32);
        let mut collected = Vec::new();
        let mut chunks = 0;
        while let Some(c) = s.next().unwrap() {
            collected.extend_from_slice(c);
            chunks += 1;
        }
        assert_eq!(collected, &data[10..90]);
        assert_eq!(chunks, 3); // 32 + 32 + 16
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn block_stream_empty_range() {
        let (_t, dir) = store_with("d.bin", &[0u8; 8]);
        let r = dir.reader("d.bin").unwrap();
        let mut s = BlockStream::over(&*r, 4, 4);
        assert!(s.next().unwrap().is_none());
    }

    #[test]
    fn stream_bills_sequential() {
        let (_t, dir) = store_with("d.bin", &[0u8; 64]);
        dir.tracker().reset();
        let r = dir.reader("d.bin").unwrap();
        let mut s = BlockStream::new(&*r, 0, 64, 16);
        while s.next().unwrap().is_some() {}
        let snap = dir.tracker().snapshot();
        assert_eq!(snap.seq_read_bytes, 64);
        assert_eq!(snap.rand_read_bytes, 0);
        assert_eq!(snap.seq_read_ops, 4);
    }
}
