//! A directory of named storage files sharing one I/O tracker.
//!
//! Each engine's on-disk representation (dual-block shards, PSW shards,
//! grid blocks, vertex stores) lives inside a `StorageDir`. The directory
//! decides which device serves reads (positioned file reads, mmap or
//! `O_DIRECT`) and hands out metered readers and tracked writers.

use crate::buffer::TrackedWriter;
use crate::direct::DirectDevice;
use crate::durable;
use crate::error::{Result, StorageError};
use crate::fault::{FaultInjectBackend, FaultInjectWriter, FaultSpec};
use crate::file::FileDevice;
use crate::manifest::BuildManifest;
use crate::metered::{Device, Metered, TrackedFile};
use crate::mmap::MmapDevice;
use crate::retry::{warn_once, ResilienceTracker, RetryBackend, RetryPolicy};
use crate::tracker::IoTracker;
use crate::ReadBackend;
use std::path::{Path, PathBuf};
use std::sync::Arc;

static OBS_MMAP_FALLBACKS: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("storage.fallback.mmap");
static OBS_DIRECT_FALLBACKS: hus_obs::LazyCounter =
    hus_obs::LazyCounter::new("storage.fallback.direct");

/// Environment variable selecting the default read backend
/// (`file` | `mmap` | `direct`) for directories opened without an
/// explicit [`BackendKind`].
pub const BACKEND_ENV: &str = "HUS_BACKEND";

/// Which mechanism serves reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Positioned `pread` calls on a shared file descriptor.
    #[default]
    File,
    /// Copies out of a read-only memory map. The vendored `memmap2`
    /// stand-in reads the whole file into memory at open: contents are
    /// frozen at open and every opened file stays resident.
    Mmap,
    /// `O_DIRECT` positioned reads bypassing the OS page cache, each one
    /// aligned read into a pooled 4 KiB-aligned buffer; a multi-range
    /// request is one spanning read, as on [`BackendKind::File`].
    /// Degrades to [`BackendKind::File`] on filesystems that refuse
    /// `O_DIRECT` (e.g. tmpfs).
    Direct,
}

impl BackendKind {
    /// The default backend, honoring the `HUS_BACKEND` environment
    /// variable (`file` | `mmap` | `direct`). Unknown values are
    /// reported once and fall back to [`BackendKind::File`]; explicit
    /// [`StorageDir::with_backend`] / [`StorageDir::create_with`]
    /// selections are never overridden by the environment.
    pub fn default_from_env() -> BackendKind {
        match std::env::var(BACKEND_ENV) {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "" | "file" => BackendKind::File,
                "mmap" => BackendKind::Mmap,
                "direct" => BackendKind::Direct,
                other => {
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    warn_once(
                        &WARNED,
                        &format!("unknown {BACKEND_ENV}={other:?}; using the file backend"),
                    );
                    BackendKind::File
                }
            },
            Err(_) => BackendKind::File,
        }
    }
}

/// A directory of named data files with shared I/O accounting.
#[derive(Clone)]
pub struct StorageDir {
    root: PathBuf,
    tracker: Arc<IoTracker>,
    kind: BackendKind,
    resilience: Arc<ResilienceTracker>,
    retry: RetryPolicy,
    faults: Option<FaultSpec>,
    write_faults: Option<Arc<FaultInjectWriter>>,
}

impl StorageDir {
    /// Create (or reuse) the directory at `root` with the default read
    /// backend (`HUS_BACKEND`, or positioned file reads when unset).
    pub fn create(root: impl AsRef<Path>) -> Result<Self> {
        Self::create_with(root, BackendKind::default_from_env())
    }

    /// Create (or reuse) the directory at `root`, selecting the read
    /// backend. The fault-injection spec, if any, is captured from
    /// `HUS_FAULT` at this point.
    pub fn create_with(root: impl AsRef<Path>, kind: BackendKind) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root).map_err(|e| StorageError::io_at(&root, e))?;
        Ok(Self::assemble(root, kind))
    }

    /// Open an existing directory (errors if absent) with the default
    /// read backend (`HUS_BACKEND`, or positioned file reads when unset).
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        if !root.is_dir() {
            return Err(StorageError::MissingFile(root));
        }
        Ok(Self::assemble(root, BackendKind::default_from_env()))
    }

    fn assemble(root: PathBuf, kind: BackendKind) -> Self {
        let resilience = Arc::new(ResilienceTracker::new());
        let faults = FaultSpec::from_env();
        let write_faults = Self::write_injector_for(faults, &resilience);
        StorageDir {
            root,
            tracker: Arc::new(IoTracker::new()),
            kind,
            resilience,
            retry: RetryPolicy::default(),
            faults,
            write_faults,
        }
    }

    /// A shared write-fault injector for `faults`, when the spec has any
    /// write-side probability. The injector is shared by subdirectories
    /// and staging clones so the write-op draw counter spans the tree.
    fn write_injector_for(
        faults: Option<FaultSpec>,
        resilience: &Arc<ResilienceTracker>,
    ) -> Option<Arc<FaultInjectWriter>> {
        faults
            .filter(FaultSpec::injects_write_faults)
            .map(|s| Arc::new(FaultInjectWriter::new(s, Arc::clone(resilience))))
    }

    /// Switch the read backend (builder-style).
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Override the fault-injection spec captured from `HUS_FAULT`
    /// (builder-style). `None` disables injection. Tests use this instead
    /// of mutating process-global environment variables.
    pub fn with_faults(mut self, spec: Option<FaultSpec>) -> Self {
        self.faults = spec.filter(FaultSpec::injects_faults);
        self.write_faults = Self::write_injector_for(self.faults, &self.resilience);
        self
    }

    /// Override the retry policy (builder-style).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// A nested directory sharing this directory's tracker, backend and
    /// resilience accounting (used e.g. for per-run vertex-store scratch
    /// space whose traffic must count toward the same run's I/O).
    pub fn subdir(&self, name: &str) -> Result<StorageDir> {
        let root = self.root.join(name);
        std::fs::create_dir_all(&root).map_err(|e| StorageError::io_at(&root, e))?;
        Ok(self.rerooted(root))
    }

    /// The shared tracker for this directory.
    pub fn tracker(&self) -> Arc<IoTracker> {
        Arc::clone(&self.tracker)
    }

    /// The shared resilience (retry/fallback/corruption) counters for
    /// this directory tree.
    pub fn resilience(&self) -> Arc<ResilienceTracker> {
        Arc::clone(&self.resilience)
    }

    /// Root path of the directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path of a named file inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Whether a named file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.path(name).is_file()
    }

    /// Length in bytes of a named file.
    pub fn file_len(&self, name: &str) -> Result<u64> {
        let p = self.path(name);
        let md = std::fs::metadata(&p).map_err(|e| StorageError::io_at(&p, e))?;
        Ok(md.len())
    }

    /// Open a named file for tracked reading with the configured backend.
    ///
    /// The handed-out reader is composed as
    /// `Retry( FaultInject?( Metered( File | Mmap | Direct ) ) )`: the
    /// device only moves bytes, the metered layer bounds-checks, times and
    /// bills every read, and retries sit above fault injection, so
    /// injected transient faults exercise the real retry path. If an mmap
    /// cannot be established, or the filesystem refuses `O_DIRECT`
    /// (tmpfs, some network mounts), the reader degrades to the
    /// positioned-read file device — logged once and counted in
    /// [`ResilienceTracker::snapshot`] as an `mmap_fallback` /
    /// `direct_fallback`.
    pub fn reader(&self, name: &str) -> Result<Arc<dyn ReadBackend>> {
        let p = self.path(name);
        if !p.is_file() {
            return Err(StorageError::MissingFile(p));
        }
        let opened = match self.kind {
            BackendKind::File => Ok(self.metered(FileDevice::open(&p)?)),
            BackendKind::Mmap => MmapDevice::open(&p).map(|d| self.metered(d)),
            BackendKind::Direct => DirectDevice::open(&p).map(|d| self.metered(d)),
        };
        let base = match opened {
            Ok(base) => base,
            Err(e) => {
                static WARNED: [std::sync::Once; 2] =
                    [std::sync::Once::new(), std::sync::Once::new()];
                let direct = self.kind == BackendKind::Direct;
                let what = if direct { "O_DIRECT open" } else { "mmap" };
                warn_once(
                    &WARNED[direct as usize],
                    &format!("{what} of {} failed ({e}); degrading to file backend", p.display()),
                );
                if direct {
                    self.resilience.record_direct_fallback();
                    OBS_DIRECT_FALLBACKS.add(1);
                } else {
                    self.resilience.record_mmap_fallback();
                    OBS_MMAP_FALLBACKS.add(1);
                }
                self.metered(FileDevice::open(&p)?)
            }
        };
        let faulty: Arc<dyn ReadBackend> = match self.faults.filter(FaultSpec::injects_read_faults)
        {
            Some(spec) => Arc::new(FaultInjectBackend::new(base, spec)),
            None => base,
        };
        Ok(Arc::new(RetryBackend::new(faulty, self.retry, Arc::clone(&self.resilience))))
    }

    fn metered<D: Device + 'static>(&self, device: D) -> Arc<dyn ReadBackend> {
        Arc::new(Metered::new(device, self.tracker()))
    }

    /// Create (truncate) a named file and return a buffered tracked
    /// writer for streaming output. When the directory carries a
    /// write-fault spec the writer injects per-operation faults, so the
    /// staged builder's shard streams exercise the same failure modes
    /// as whole-file durable writes.
    pub fn writer(&self, name: &str) -> Result<TrackedWriter> {
        if let Some(parent) = self.path(name).parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| StorageError::io_at(parent.to_path_buf(), e))?;
        }
        let w = TrackedWriter::create(self.path(name), self.tracker())?;
        Ok(match &self.write_faults {
            Some(inj) => w.with_faults(Arc::clone(inj)),
            None => w,
        })
    }

    /// Durably write a whole named file: write + fsync, routed through
    /// the write-fault injector when one is configured. This is the
    /// write primitive under every commit-protocol artifact that is
    /// first produced tmp-named and then renamed into place (delta-run
    /// spills, `MANIFEST` rewrites, checkpoint slots) — a drawn fault
    /// therefore never damages a committed file, only the tmp copy.
    pub fn durable_write(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let p = self.path(name);
        if let Some(parent) = p.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| StorageError::io_at(parent.to_path_buf(), e))?;
        }
        match &self.write_faults {
            Some(inj) => inj.durable_write(&p, bytes),
            None => {
                std::fs::write(&p, bytes).map_err(|e| StorageError::io_at(&p, e))?;
                durable::sync_file(&p)
            }
        }
    }

    /// Open (creating if needed) a named file for tracked positioned
    /// read/write access.
    pub fn update(&self, name: &str) -> Result<TrackedFile> {
        if let Some(parent) = self.path(name).parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| StorageError::io_at(parent.to_path_buf(), e))?;
        }
        TrackedFile::open_rw(self.path(name), self.tracker())
    }

    /// Write a small metadata string (manifest); not billed as data I/O.
    pub fn put_meta(&self, name: &str, contents: &str) -> Result<()> {
        let p = self.path(name);
        std::fs::write(&p, contents).map_err(|e| StorageError::io_at(p, e))
    }

    /// Read back a metadata string; not billed as data I/O.
    pub fn get_meta(&self, name: &str) -> Result<String> {
        let p = self.path(name);
        std::fs::read_to_string(&p).map_err(|e| StorageError::io_at(p, e))
    }

    /// Begin an atomic build of this directory: a same-filesystem
    /// sibling staging directory `<root>.tmp-<nonce>` sharing this
    /// directory's tracker, backend and resilience accounting. Write
    /// the build into [`StagingDir::dir`], then [`StagingDir::commit`]
    /// to fsync and atomically rename it over this root. Dropping the
    /// handle without committing removes the staging directory; a
    /// crash (no `Drop`) leaves it behind for resume or
    /// `hus fsck --repair` quarantine.
    pub fn staging(&self) -> Result<StagingDir> {
        StagingDir::begin(self)
    }

    /// Leftover `<root>.tmp-*` staging siblings of this directory —
    /// the residue of crashed builds, candidates for resume
    /// (external builder) or quarantine (`hus fsck --repair`).
    pub fn staging_siblings(&self) -> Vec<PathBuf> {
        staging_siblings_of(&self.root)
    }

    /// Move `path` into `<root>/quarantine/` and return where it landed.
    /// A name already taken there gets a numeric suffix (`.1`, `.2`, …),
    /// so a later quarantine never overwrites earlier evidence.
    /// `hus fsck --repair` and a rolled-back delta spill both move their
    /// leftovers through here.
    pub fn quarantine(&self, path: &Path) -> Result<PathBuf> {
        let qdir = self.root.join("quarantine");
        std::fs::create_dir_all(&qdir).map_err(|e| StorageError::io_at(&qdir, e))?;
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let (mut dest, mut n) = (qdir.join(&name), 0u32);
        while dest.exists() {
            n += 1;
            dest = qdir.join(format!("{name}.{n}"));
        }
        std::fs::rename(path, &dest).map_err(|e| StorageError::io_at(path, e))?;
        Ok(dest)
    }

    /// Clone of this handle rooted elsewhere, sharing the tracker,
    /// backend, resilience counters, retry policy and fault spec.
    fn rerooted(&self, root: PathBuf) -> StorageDir {
        StorageDir {
            root,
            tracker: Arc::clone(&self.tracker),
            kind: self.kind,
            resilience: Arc::clone(&self.resilience),
            retry: self.retry,
            faults: self.faults,
            write_faults: self.write_faults.clone(),
        }
    }

    /// Sum of the sizes of all regular files under the directory —
    /// the on-disk footprint of a representation.
    pub fn disk_footprint(&self) -> Result<u64> {
        fn walk(dir: &Path, acc: &mut u64) -> std::io::Result<()> {
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let md = entry.metadata()?;
                if md.is_dir() {
                    walk(&entry.path(), acc)?;
                } else {
                    *acc += md.len();
                }
            }
            Ok(())
        }
        let mut acc = 0;
        walk(&self.root, &mut acc).map_err(|e| StorageError::io_at(self.root.clone(), e))?;
        Ok(acc)
    }
}

/// `<base>.<suffix>` next to `base` (same parent directory, so renames
/// between the two are atomic same-filesystem operations).
fn sibling_path(base: &Path, suffix: &str) -> PathBuf {
    let name = base.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    base.with_file_name(format!("{name}.{suffix}"))
}

fn staging_siblings_of(root: &Path) -> Vec<PathBuf> {
    let Some(name) = root.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Vec::new();
    };
    let prefix = format!("{name}.tmp-");
    let Some(parent) = root.parent() else { return Vec::new() };
    let parent = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
    let Ok(entries) = std::fs::read_dir(parent) else { return Vec::new() };
    let mut out: Vec<PathBuf> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix) && e.path().is_dir())
        .map(|e| e.path())
        .collect();
    out.sort();
    out
}

/// An in-progress atomic build of a [`StorageDir`] (see
/// [`StorageDir::staging`]).
///
/// The commit protocol (DESIGN.md §10): fsync every staged file, fsync
/// the staging directory, atomically rename it over the target root,
/// fsync the parent directory. A crash before the rename leaves the
/// target untouched; after it, the target is the complete new build.
pub struct StagingDir {
    dir: StorageDir,
    target_root: PathBuf,
    nonce: String,
    generation: u64,
    committed: bool,
}

impl StagingDir {
    fn begin(target: &StorageDir) -> Result<Self> {
        let nonce = format!(
            "{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        );
        let root = sibling_path(&target.root, &format!("tmp-{nonce}"));
        std::fs::create_dir_all(&root).map_err(|e| StorageError::io_at(&root, e))?;
        Ok(StagingDir {
            dir: target.rerooted(root),
            target_root: target.root.clone(),
            nonce,
            generation: BuildManifest::next_generation(&target.root),
            committed: false,
        })
    }

    /// Adopt an existing staging sibling (from
    /// [`StorageDir::staging_siblings`]) left behind by a crashed
    /// build, so a resumable builder can continue where it stopped.
    pub fn adopt(target: &StorageDir, staging_root: PathBuf) -> Result<Self> {
        if !staging_root.is_dir() {
            return Err(StorageError::MissingFile(staging_root));
        }
        let nonce = staging_root
            .file_name()
            .and_then(|n| n.to_string_lossy().rsplit_once(".tmp-").map(|(_, s)| s.to_string()))
            .unwrap_or_else(|| format!("{}", std::process::id()));
        Ok(StagingDir {
            dir: target.rerooted(staging_root),
            target_root: target.root.clone(),
            nonce,
            generation: BuildManifest::next_generation(&target.root),
            committed: false,
        })
    }

    /// The staging directory to write the build into.
    pub fn dir(&self) -> &StorageDir {
        &self.dir
    }

    /// Generation number this build will stamp into its manifest.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Make the staged build durable and atomically swap it into place
    /// at the target root. On return the target directory is the new
    /// build; the staging directory no longer exists.
    pub fn commit(mut self) -> Result<()> {
        sync_tree(self.dir.root())?;
        durable::crash_point("build.pre_rename");
        let staging = self.dir.root().to_path_buf();
        match std::fs::rename(&staging, &self.target_root) {
            Ok(()) => {}
            Err(_) => {
                // The target exists and is non-empty (a rebuild):
                // rename it aside, swap in the staging dir, drop the
                // old build. A crash between the two renames leaves
                // the target absent — a state open-time validation
                // reports cleanly.
                let old = sibling_path(&self.target_root, &format!("old-{}", self.nonce));
                std::fs::rename(&self.target_root, &old)
                    .map_err(|e| StorageError::io_at(&self.target_root, e))?;
                std::fs::rename(&staging, &self.target_root)
                    .map_err(|e| StorageError::io_at(&staging, e))?;
                let _ = std::fs::remove_dir_all(&old);
            }
        }
        durable::sync_parent_dir(&self.target_root)?;
        durable::crash_point("build.post_rename");
        self.committed = true;
        Ok(())
    }
}

impl Drop for StagingDir {
    fn drop(&mut self) {
        if !self.committed {
            // Failed (errored) build: clean up. A *crash* never runs
            // this, deliberately leaving the staging dir for resume.
            let _ = std::fs::remove_dir_all(self.dir.root());
        }
    }
}

/// Fsync every regular file and directory under `root`, depth-first
/// (no-op under `HUS_NO_FSYNC=1`).
fn sync_tree(root: &Path) -> Result<()> {
    if !durable::fsync_enabled() {
        return Ok(());
    }
    for entry in std::fs::read_dir(root).map_err(|e| StorageError::io_at(root, e))? {
        let entry = entry.map_err(|e| StorageError::io_at(root, e))?;
        let path = entry.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            durable::sync_file(&path)?;
        }
    }
    durable::sync_dir(root)
}

#[cfg(test)]
mod staging_tests {
    use super::*;

    #[test]
    fn commit_swaps_staging_over_empty_target() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let staging = dir.staging().unwrap();
        assert_eq!(staging.generation(), 1);
        staging.dir().put_meta("hello.txt", "hi").unwrap();
        let staging_root = staging.dir().root().to_path_buf();
        assert!(staging_root.is_dir());
        staging.commit().unwrap();
        assert!(!staging_root.exists(), "staging dir must be gone after commit");
        assert_eq!(dir.get_meta("hello.txt").unwrap(), "hi");
    }

    #[test]
    fn commit_replaces_nonempty_target_and_bumps_generation() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        dir.put_meta("stale.txt", "old").unwrap();
        BuildManifest::new(4).write_to(dir.root()).unwrap();
        let staging = dir.staging().unwrap();
        assert_eq!(staging.generation(), 5, "generation continues from the old manifest");
        staging.dir().put_meta("fresh.txt", "new").unwrap();
        staging.commit().unwrap();
        assert!(!dir.exists("stale.txt"), "old build contents are replaced wholesale");
        assert_eq!(dir.get_meta("fresh.txt").unwrap(), "new");
        // No .old- or .tmp- residue.
        assert!(dir.staging_siblings().is_empty());
        let residue: Vec<_> = std::fs::read_dir(tmp.path())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != "g")
            .collect();
        assert!(residue.is_empty(), "leftovers: {residue:?}");
    }

    #[test]
    fn dropped_staging_cleans_up_and_siblings_are_listed() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        {
            let staging = dir.staging().unwrap();
            staging.dir().put_meta("x", "y").unwrap();
            assert_eq!(dir.staging_siblings().len(), 1);
        } // dropped uncommitted
        assert!(dir.staging_siblings().is_empty(), "drop must clean up");

        // A crashed build's leftover (simulated by creating one
        // manually) is listed and adoptable.
        let leftover = tmp.path().join("g.tmp-dead");
        std::fs::create_dir(&leftover).unwrap();
        std::fs::write(leftover.join("partial.bin"), [0u8; 3]).unwrap();
        assert_eq!(dir.staging_siblings(), vec![leftover.clone()]);
        let adopted = StagingDir::adopt(&dir, leftover).unwrap();
        assert!(adopted.dir().exists("partial.bin"));
        adopted.commit().unwrap();
        assert!(dir.exists("partial.bin"));
    }

    #[test]
    fn staging_shares_the_io_tracker() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let staging = dir.staging().unwrap();
        let mut w = staging.dir().writer("data.bin").unwrap();
        w.write_all(&[0u8; 64]).unwrap();
        w.finish().unwrap();
        assert_eq!(dir.tracker().snapshot().write_bytes, 64);
        staging.commit().unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{Access, IoSnapshot};
    use crate::RangeRead;

    #[test]
    fn write_then_read_roundtrip() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("store")).unwrap();
        let mut w = dir.writer("edges.bin").unwrap();
        w.write_all(&[1, 2, 3, 4]).unwrap();
        w.finish().unwrap();
        let r = dir.reader("edges.bin").unwrap();
        let mut buf = [0u8; 4];
        r.read_at(0, &mut buf, Access::Sequential).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        let s = dir.tracker().snapshot();
        assert_eq!(s.write_bytes, 4);
        assert_eq!(s.seq_read_bytes, 4);
    }

    #[test]
    fn mmap_backend_selected() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create_with(tmp.path().join("m"), BackendKind::Mmap).unwrap();
        let mut w = dir.writer("x.bin").unwrap();
        w.write_all(&[9; 32]).unwrap();
        w.finish().unwrap();
        let r = dir.reader("x.bin").unwrap();
        assert_eq!(r.len(), 32);
    }

    #[test]
    fn direct_kind_reads_correctly_or_degrades() {
        // On filesystems without O_DIRECT (tmpfs) the reader silently
        // degrades to the file backend; either way the bytes and the
        // billing must be identical to BackendKind::File.
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create_with(tmp.path().join("d"), BackendKind::Direct).unwrap();
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        let mut w = dir.writer("x.bin").unwrap();
        w.write_all(&data).unwrap();
        w.finish().unwrap();
        dir.tracker().reset();
        let r = dir.reader("x.bin").unwrap();
        assert_eq!(r.len(), data.len() as u64);
        let mut buf = vec![0u8; 5000];
        r.read_at(3000, &mut buf, Access::Random).unwrap();
        assert_eq!(buf, data[3000..8000]);
        let s = dir.tracker().snapshot();
        assert_eq!(s.rand_read_bytes, 5000, "requested bytes billed, not aligned transfer");
        assert_eq!(s.rand_read_ops, 1);
    }

    /// Zero-length reads of an empty file are `Ok` on every backend and
    /// billed alike: one 0-byte op for `read_at`, nothing for a
    /// `read_ranges` whose ranges are all empty.
    #[test]
    fn empty_file_zero_length_reads_bill_alike_on_every_backend() {
        let tmp = tempfile::tempdir().unwrap();
        let mut bills = Vec::new();
        for kind in [BackendKind::File, BackendKind::Mmap, BackendKind::Direct] {
            let dir = StorageDir::create_with(tmp.path().join(format!("{kind:?}")), kind).unwrap();
            dir.writer("empty.bin").unwrap().finish().unwrap();
            dir.tracker().reset();
            let r = dir.reader("empty.bin").unwrap();
            assert_eq!(r.len(), 0);
            r.read_at(0, &mut [], Access::Random).unwrap();
            let (mut a, mut b) = ([0u8; 0], [0u8; 0]);
            let mut ranges =
                [RangeRead { offset: 0, buf: &mut a }, RangeRead { offset: 0, buf: &mut b }];
            r.read_ranges(&mut ranges, Access::Batched).unwrap();
            bills.push(dir.tracker().snapshot());
        }
        assert_eq!((bills[0].rand_read_ops, bills[0].total_bytes()), (1, 0));
        assert_eq!(bills[0].batched_read_ops, 0);
        assert!(bills.iter().all(|b| *b == bills[0]), "{bills:?}");
    }

    /// A batch with one range past the end fails as a whole, before
    /// any device read: nothing billed, nothing retried, no range split
    /// off and served alone.
    #[test]
    fn out_of_bounds_batch_fails_whole_and_bills_nothing() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let mut w = dir.writer("x.bin").unwrap();
        w.write_all(&[7; 64]).unwrap();
        w.finish().unwrap();
        dir.tracker().reset();
        let r = dir.reader("x.bin").unwrap();
        let (mut a, mut b) = ([0u8; 8], [0u8; 8]);
        let mut ranges =
            [RangeRead { offset: 0, buf: &mut a }, RangeRead { offset: 60, buf: &mut b }];
        let err = r.read_ranges(&mut ranges, Access::Batched).unwrap_err();
        assert!(matches!(err, StorageError::OutOfBounds { .. }), "{err:?}");
        assert_eq!(dir.tracker().snapshot(), IoSnapshot::default());
        assert_eq!(dir.resilience().snapshot(), Default::default());
    }

    #[test]
    fn missing_file_error() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        assert!(matches!(dir.reader("nope.bin"), Err(StorageError::MissingFile(_))));
        assert!(!dir.exists("nope.bin"));
    }

    #[test]
    fn nested_names_create_subdirs() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let mut w = dir.writer("shards/out/0.bin").unwrap();
        w.write_all(&[1]).unwrap();
        w.finish().unwrap();
        assert!(dir.exists("shards/out/0.bin"));
        assert_eq!(dir.file_len("shards/out/0.bin").unwrap(), 1);
    }

    #[test]
    fn meta_roundtrip_not_billed() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        dir.put_meta("meta.json", "{\"p\":4}").unwrap();
        assert_eq!(dir.get_meta("meta.json").unwrap(), "{\"p\":4}");
        assert_eq!(dir.tracker().snapshot().total_bytes(), 0);
    }

    #[test]
    fn disk_footprint_sums_files() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let mut w = dir.writer("a.bin").unwrap();
        w.write_all(&[0; 10]).unwrap();
        w.finish().unwrap();
        let mut w = dir.writer("sub/b.bin").unwrap();
        w.write_all(&[0; 5]).unwrap();
        w.finish().unwrap();
        assert_eq!(dir.disk_footprint().unwrap(), 15);
    }

    #[test]
    fn open_missing_dir_fails() {
        let tmp = tempfile::tempdir().unwrap();
        assert!(StorageDir::open(tmp.path().join("absent")).is_err());
    }
}
