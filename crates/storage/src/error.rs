//! Error type for the storage substrate.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors raised by the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O error, annotated with the file it occurred on.
    Io {
        /// Path of the file involved, when known.
        path: Option<PathBuf>,
        /// The raw OS error.
        source: io::Error,
    },
    /// A read past the end of a backing file.
    OutOfBounds {
        /// Requested start offset.
        offset: u64,
        /// Requested length in bytes.
        len: u64,
        /// Actual file size in bytes.
        file_len: u64,
    },
    /// A named file was not found inside a [`crate::StorageDir`].
    MissingFile(PathBuf),
    /// A byte buffer could not be reinterpreted as a typed slice.
    BadCast {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Metadata (header/manifest) content failed validation.
    Corrupt(String),
    /// A block's payload bytes did not match the CRC-32C recorded in the
    /// shard's checksum footer (see `docs/FORMAT.md`). Names the exact
    /// file, block and byte offset so the damage can be located on disk.
    ChecksumMismatch {
        /// Path of the shard or index file.
        path: PathBuf,
        /// Grid coordinates `(i, j)` of the damaged block.
        block: (u32, u32),
        /// Byte offset of the block's payload within the file.
        offset: u64,
        /// CRC-32C recorded by the builder.
        expected: u32,
        /// CRC-32C computed over the bytes actually read.
        actual: u32,
    },
    /// A graph directory is not a complete build: its `MANIFEST` is
    /// missing or torn, or a file the build must produce never made it
    /// to disk. Raised by open-time validation so an interrupted build
    /// (crash before the atomic rename, partial deletion) surfaces as
    /// one actionable error instead of an arbitrary downstream I/O
    /// failure. See DESIGN.md §10.
    IncompleteBuild {
        /// Root of the offending graph directory.
        path: PathBuf,
        /// What exactly is incomplete (names the missing piece).
        detail: String,
    },
    /// A file disagrees with what the directory's `MANIFEST` says it
    /// should be — typically a length mismatch from truncation.
    ManifestMismatch {
        /// Root of the offending graph directory.
        path: PathBuf,
        /// Name of the file that disagrees.
        file: String,
        /// How it disagrees (expected vs found).
        detail: String,
    },
    /// A cooperatively cancelled operation: its per-query deadline
    /// passed before it finished. Checked at block boundaries in the
    /// COP/ROP loops, so partial work is abandoned cleanly — nothing
    /// on disk is touched. Neither transient (retrying cannot beat an
    /// already-expired deadline) nor corruption.
    DeadlineExceeded {
        /// Milliseconds the operation had been granted.
        budget_ms: u64,
    },
    /// Input larger than the on-disk format can address — a block of
    /// more than `u32::MAX` records, whose `u32` CSR index entries
    /// (`docs/FORMAT.md`) would wrap. Raised before anything of the
    /// offending unit is written; permanent and not corruption.
    CapacityExceeded {
        /// What overflowed (e.g. "records in out-block (0, 3)").
        what: String,
        /// How many there are.
        count: u64,
        /// The most the format can hold.
        limit: u64,
    },
    /// A graph directory written in an on-disk layout this build does
    /// not read (`meta.json`'s `format`; a directory without the field
    /// predates it). Permanent and not corruption: the directory is
    /// intact, only older — rebuild it.
    UnsupportedFormat {
        /// Root of the graph directory.
        path: PathBuf,
        /// The layout version it was written in.
        found: u32,
        /// The layout version this build reads.
        expected: u32,
    },
}

impl StorageError {
    /// Wrap an [`io::Error`] with the path that produced it.
    pub fn io_at(path: impl Into<PathBuf>, source: io::Error) -> Self {
        StorageError::Io { path: Some(path.into()), source }
    }

    /// Whether retrying the same operation could plausibly succeed.
    ///
    /// Transient errors are interrupted/timed-out syscalls, short reads
    /// (`UnexpectedEof` from a racing writer or a flaky device) and the
    /// raw `EIO`/`EAGAIN` family. Everything else — corruption, checksum
    /// mismatches, out-of-bounds requests, missing files, cast failures —
    /// is permanent: retrying would deterministically fail again.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io { source, .. } => {
                matches!(
                    source.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::UnexpectedEof
                ) || matches!(source.raw_os_error(), Some(code) if code == 5 /* EIO */ || code == 11 /* EAGAIN */)
            }
            _ => false,
        }
    }

    /// Whether this error indicates damaged on-disk data (as opposed to a
    /// failed access): a bad checksum, an undecodable or mis-sized
    /// block, or a build or manifest that does not match the files.
    /// Retrying cannot cure it ([`Self::is_transient`] is `false`), so a
    /// caller that sees it should report the damage, not try again.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StorageError::Corrupt(_)
                | StorageError::ChecksumMismatch { .. }
                | StorageError::BadCast { .. }
                | StorageError::IncompleteBuild { .. }
                | StorageError::ManifestMismatch { .. }
        )
    }

    /// Whether this error is a (real or injected) out-of-space
    /// condition — the class a degraded dynamic graph reports for
    /// rejected ingest while the disk stays full.
    pub fn is_no_space(&self) -> bool {
        matches!(
            self,
            StorageError::Io { source, .. } if source.raw_os_error() == Some(28) /* ENOSPC */
        )
    }

    /// Whether this error is a cooperative deadline cancellation.
    pub fn is_deadline(&self) -> bool {
        matches!(self, StorageError::DeadlineExceeded { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { path: Some(p), source } => {
                write!(f, "I/O error on {}: {source}", p.display())
            }
            StorageError::Io { path: None, source } => write!(f, "I/O error: {source}"),
            StorageError::OutOfBounds { offset, len, file_len } => {
                write!(f, "read of {len} bytes at offset {offset} exceeds file length {file_len}")
            }
            StorageError::MissingFile(p) => write!(f, "missing storage file {}", p.display()),
            StorageError::BadCast { detail } => write!(f, "bad pod cast: {detail}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage metadata: {msg}"),
            StorageError::ChecksumMismatch { path, block, offset, expected, actual } => write!(
                f,
                "checksum mismatch in {} block ({}, {}) at offset {offset}: \
                 stored 0x{expected:08X}, computed 0x{actual:08X}",
                path.display(),
                block.0,
                block.1
            ),
            StorageError::IncompleteBuild { path, detail } => {
                write!(f, "incomplete build at {}: {detail}", path.display())
            }
            StorageError::ManifestMismatch { path, file, detail } => {
                write!(f, "manifest mismatch in {}: {file}: {detail}", path.display())
            }
            StorageError::DeadlineExceeded { budget_ms } => {
                write!(f, "query deadline of {budget_ms} ms exceeded")
            }
            StorageError::CapacityExceeded { what, count, limit } => {
                write!(f, "{what}: {count} exceeds the format limit of {limit}")
            }
            StorageError::UnsupportedFormat { path, found, expected } => write!(
                f,
                "{} is in on-disk format {found}, but this build reads format {expected}: \
                 rebuild it with `hus build`",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(source: io::Error) -> Self {
        StorageError::Io { path: None, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_path() {
        let err = StorageError::io_at("/tmp/x.bin", io::Error::other("boom"));
        let msg = err.to_string();
        assert!(msg.contains("/tmp/x.bin"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn display_out_of_bounds() {
        let err = StorageError::OutOfBounds { offset: 10, len: 20, file_len: 16 };
        let msg = err.to_string();
        assert!(msg.contains("20 bytes at offset 10"), "{msg}");
        assert!(msg.contains("16"), "{msg}");
    }

    #[test]
    fn from_io_error_has_source() {
        use std::error::Error as _;
        let err: StorageError = io::Error::other("inner").into();
        assert!(err.source().is_some());
    }

    #[test]
    fn transient_classification() {
        let eintr: StorageError = io::Error::from(io::ErrorKind::Interrupted).into();
        assert!(eintr.is_transient());
        let eio: StorageError = io::Error::from_raw_os_error(5).into();
        assert!(eio.is_transient());
        let short: StorageError = io::Error::from(io::ErrorKind::UnexpectedEof).into();
        assert!(short.is_transient());
        let denied: StorageError = io::Error::from(io::ErrorKind::PermissionDenied).into();
        assert!(!denied.is_transient());
        assert!(!StorageError::Corrupt("x".into()).is_transient());
        assert!(!StorageError::MissingFile("/x".into()).is_transient());
    }

    #[test]
    fn corruption_classification_and_display() {
        let err = StorageError::ChecksumMismatch {
            path: "/tmp/out_3.edges".into(),
            block: (3, 1),
            offset: 8192,
            expected: 0xDEAD_BEEF,
            actual: 0x0BAD_F00D,
        };
        assert!(err.is_corruption());
        assert!(!err.is_transient());
        let msg = err.to_string();
        assert!(msg.contains("out_3.edges"), "{msg}");
        assert!(msg.contains("(3, 1)"), "{msg}");
        assert!(msg.contains("8192"), "{msg}");
        assert!(msg.contains("0xDEADBEEF"), "{msg}");
        assert!(!StorageError::OutOfBounds { offset: 0, len: 1, file_len: 0 }.is_corruption());
    }

    #[test]
    fn build_lifecycle_errors_classify_as_corruption() {
        let incomplete = StorageError::IncompleteBuild {
            path: "/tmp/g".into(),
            detail: "out_1.edges is missing".into(),
        };
        assert!(incomplete.is_corruption());
        assert!(!incomplete.is_transient());
        let msg = incomplete.to_string();
        assert!(msg.contains("incomplete build"), "{msg}");
        assert!(msg.contains("out_1.edges"), "{msg}");

        let mismatch = StorageError::ManifestMismatch {
            path: "/tmp/g".into(),
            file: "out_0.index".into(),
            detail: "expected 128 bytes, found 100".into(),
        };
        assert!(mismatch.is_corruption());
        assert!(!mismatch.is_transient());
        let msg = mismatch.to_string();
        assert!(msg.contains("out_0.index"), "{msg}");
        assert!(msg.contains("expected 128 bytes, found 100"), "{msg}");
    }

    #[test]
    fn no_space_and_deadline_classification() {
        let enospc: StorageError = io::Error::from_raw_os_error(28).into();
        assert!(enospc.is_no_space());
        assert!(!enospc.is_transient(), "a full disk does not clear on retry");
        assert!(!enospc.is_corruption());
        let eio: StorageError = io::Error::from_raw_os_error(5).into();
        assert!(!eio.is_no_space());

        let deadline = StorageError::DeadlineExceeded { budget_ms: 250 };
        assert!(deadline.is_deadline());
        assert!(!deadline.is_transient());
        assert!(!deadline.is_corruption());
        assert!(!deadline.is_no_space());
        let msg = deadline.to_string();
        assert!(msg.contains("250 ms"), "{msg}");
    }

    #[test]
    fn capacity_exceeded_is_permanent_and_names_the_limit() {
        let err = StorageError::CapacityExceeded {
            what: "records in out-block (0, 0)".into(),
            count: 1 << 32,
            limit: u32::MAX as u64,
        };
        assert!(!err.is_transient());
        assert!(!err.is_corruption());
        let msg = err.to_string();
        assert!(msg.contains("out-block (0, 0)") && msg.contains("4294967295"), "{msg}");
    }
}
