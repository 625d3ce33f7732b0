//! Durability primitives for crash-consistent writes.
//!
//! Two small facilities shared by the builders, the checkpoint module
//! and the staging-commit machinery in [`crate::dir`]:
//!
//! * **fsync helpers** — [`sync_file`] / [`sync_dir`] flush a file's (or
//!   directory entry's) bytes to stable storage, honoring the
//!   `HUS_NO_FSYNC=1` escape hatch that test suites use to trade
//!   durability for speed.
//! * **crash points** — [`crash_point`] lets the recovery test harness
//!   kill the process at a *named* staged-write point
//!   (`HUS_CRASH_AT=<name>` or `<name>:<n>` for the n-th hit). The
//!   process exits abruptly via [`std::process::exit`], so buffered
//!   writes that were never flushed are genuinely lost — the surviving
//!   on-disk state is exactly what a power cut at that point would
//!   leave behind. Production runs never set the variable and the hook
//!   compiles down to one relaxed atomic load.
//!
//! See DESIGN.md §10 for the write-ordering contract these primitives
//! implement.

use crate::error::{Result, StorageError};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process exit code used by a triggered [`crash_point`], chosen to be
/// distinguishable from panics (101) and ordinary failures (1) so the
/// recovery harness can assert the crash actually fired.
pub const CRASH_EXIT_CODE: i32 = 86;

/// Whether fsync calls are live (`true` unless the `HUS_NO_FSYNC` flag
/// is on). Cached on first use: the knob is a process-level test
/// accommodation, not a runtime toggle.
pub fn fsync_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| !hus_obs::env::flag("HUS_NO_FSYNC", false))
}

/// Flush a regular file's data and metadata to stable storage
/// (no-op under `HUS_NO_FSYNC=1`).
pub fn sync_file(path: &Path) -> Result<()> {
    if !fsync_enabled() {
        return Ok(());
    }
    let f = std::fs::File::open(path).map_err(|e| StorageError::io_at(path, e))?;
    f.sync_all().map_err(|e| StorageError::io_at(path, e))
}

/// Flush a directory's entry list to stable storage, making renames and
/// file creations inside it durable (no-op under `HUS_NO_FSYNC=1`).
pub fn sync_dir(path: &Path) -> Result<()> {
    if !fsync_enabled() {
        return Ok(());
    }
    // On Linux a directory opened read-only can be fsync'd like a file.
    let f = std::fs::File::open(path).map_err(|e| StorageError::io_at(path, e))?;
    f.sync_all().map_err(|e| StorageError::io_at(path, e))
}

/// Flush the parent directory of `path` (see [`sync_dir`]); no-op for
/// paths without a named parent.
pub fn sync_parent_dir(path: &Path) -> Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => sync_dir(parent),
        _ => Ok(()),
    }
}

/// The parsed `HUS_CRASH_AT` spec: crash at the `nth` (1-based) hit of
/// the point called `name`.
struct CrashSpec {
    name: String,
    nth: u64,
}

fn crash_spec() -> Option<&'static CrashSpec> {
    static SPEC: OnceLock<Option<CrashSpec>> = OnceLock::new();
    SPEC.get_or_init(|| {
        let raw = std::env::var("HUS_CRASH_AT").ok()?;
        if raw.is_empty() {
            return None;
        }
        match raw.rsplit_once(':') {
            Some((name, n)) => {
                let nth = n.parse().ok()?;
                Some(CrashSpec { name: name.to_string(), nth })
            }
            None => Some(CrashSpec { name: raw, nth: 1 }),
        }
    })
    .as_ref()
}

/// Number of times the armed crash point has been passed.
static HITS: AtomicU64 = AtomicU64::new(0);

/// Simulated-crash hook for the recovery harness.
///
/// If `HUS_CRASH_AT` names this point (optionally `name:n` for the n-th
/// hit), the process exits immediately with [`CRASH_EXIT_CODE`] —
/// without unwinding, flushing buffered writers or running `Drop`
/// cleanup, so the on-disk state is what a real crash would leave.
/// Otherwise this is (nearly) free and always returns.
pub fn crash_point(name: &str) {
    let Some(spec) = crash_spec() else { return };
    if spec.name != name {
        return;
    }
    let hit = HITS.fetch_add(1, Ordering::Relaxed) + 1;
    if hit >= spec.nth {
        eprintln!("HUS_CRASH_AT: simulated crash at point `{name}` (hit {hit})");
        std::process::exit(CRASH_EXIT_CODE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_helpers_accept_real_paths() {
        let tmp = tempfile::tempdir().unwrap();
        let f = tmp.path().join("x.bin");
        std::fs::write(&f, b"abc").unwrap();
        sync_file(&f).unwrap();
        sync_dir(tmp.path()).unwrap();
        sync_parent_dir(&f).unwrap();
    }

    #[test]
    fn sync_file_reports_missing_path() {
        if !fsync_enabled() {
            return; // under HUS_NO_FSYNC the helper never touches the path
        }
        let tmp = tempfile::tempdir().unwrap();
        let err = sync_file(&tmp.path().join("absent.bin")).unwrap_err();
        assert!(err.to_string().contains("absent.bin"), "{err}");
    }

    #[test]
    fn unarmed_crash_point_is_inert() {
        // The test process does not set HUS_CRASH_AT (the recovery
        // harness only sets it on spawned children), so this must
        // return.
        crash_point("test.never_armed");
        crash_point("test.never_armed");
    }
}
