//! MVCC snapshot management: pinning an immutable graph view per
//! `MANIFEST` generation and refreshing it behind in-flight queries.
//!
//! A [`GraphSnapshot`] wraps one opened [`HusGraph`] (base shards plus
//! the delta-run overlay current at open time) with the generation and
//! run set it was pinned to. The [`SnapshotManager`] keeps the latest
//! snapshot behind an `RwLock<Arc<..>>`; queries call
//! [`SnapshotManager::current`] and hold their `Arc` for the whole
//! query. When ingest spills a run or compaction rewrites the
//! directory, [`SnapshotManager::refresh`] opens the new state and
//! swaps the `Arc` — readers still holding the old snapshot finish on
//! the old generation, because every file handle they need (shards,
//! indices, vertex-store scratch) was opened before the swap and POSIX
//! keeps unlinked-but-open descriptors readable.
//!
//! An unchanged generation is never re-opened: a refresh that finds
//! nothing new costs one `MANIFEST` read + parse. Each snapshot owns
//! its overlay, which is freed when the last query holding it finishes.

use std::sync::Arc;

use hus_core::DynamicGraph;
use hus_core::HusGraph;
use std::sync::RwLock;

use hus_storage::{BuildManifest, Result, StorageDir};

static GENERATION_GAUGE: hus_obs::LazyGauge = hus_obs::LazyGauge::new("serve.snapshot_generation");

/// An immutable graph view pinned to one `MANIFEST` generation.
pub struct GraphSnapshot {
    graph: HusGraph,
    generation: u64,
    runs: usize,
}

impl GraphSnapshot {
    /// The graph (base shards + delta overlay as of the pin).
    pub fn graph(&self) -> &HusGraph {
        &self.graph
    }

    /// The `MANIFEST` generation this snapshot is pinned to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of on-disk delta runs merged into the overlay.
    pub fn runs(&self) -> usize {
        self.runs
    }
}

/// Owns the storage directory and the latest [`GraphSnapshot`];
/// hands out `Arc` clones to queries and swaps in fresh pins.
pub struct SnapshotManager {
    dir: StorageDir,
    current: RwLock<Arc<GraphSnapshot>>,
}

impl SnapshotManager {
    /// Open the graph under `dir` and pin the initial snapshot.
    pub fn open(dir: StorageDir) -> Result<Self> {
        let snap = Self::load(&dir)?;
        GENERATION_GAUGE.set(snap.generation);
        Ok(SnapshotManager { dir, current: RwLock::new(Arc::new(snap)) })
    }

    fn load(dir: &StorageDir) -> Result<GraphSnapshot> {
        let dg = DynamicGraph::open(dir.clone())?;
        let generation = dg.generation();
        let runs = dg.run_count();
        let graph = dg.into_snapshot()?;
        Ok(GraphSnapshot { graph, generation, runs })
    }

    /// The latest pinned snapshot. Queries clone the `Arc` once and use
    /// it for their whole run — later refreshes don't affect them.
    pub fn current(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// The storage directory this manager serves.
    pub fn dir(&self) -> &StorageDir {
        &self.dir
    }

    /// The on-disk `MANIFEST` generation right now. `0` — never a
    /// pinned generation — while no `MANIFEST` is visible (between the
    /// two renames of a compaction's directory swap), so
    /// [`refresh`](Self::refresh) goes on to the open and reports its
    /// typed error.
    pub fn disk_generation(&self) -> Result<u64> {
        Ok(BuildManifest::load_from(self.dir.root())?.map_or(0, |m| m.generation))
    }

    /// Re-pin if the on-disk generation moved past the current pin.
    /// Returns `true` when a new snapshot was swapped in. In-flight
    /// queries keep their old `Arc` untouched (MVCC).
    ///
    /// A compaction's directory swap that lands while the new snapshot
    /// is being opened would mix two generations' files in one view, so
    /// only a generation that held still across the whole open is
    /// pinned; otherwise the refresh is retried on the next tick.
    pub fn refresh(&self) -> Result<bool> {
        let pinned = self.current.read().unwrap().generation;
        let on_disk = self.disk_generation()?;
        if on_disk == pinned {
            return Ok(false);
        }
        let snap = Arc::new(Self::load(&self.dir)?);
        if snap.generation != on_disk || self.disk_generation()? != on_disk {
            return Ok(false);
        }
        GENERATION_GAUGE.set(snap.generation);
        *self.current.write().unwrap() = snap;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_core::BuildConfig;

    fn build_dir(root: &std::path::Path) -> StorageDir {
        let el = hus_gen::rmat(64, 256, 7, Default::default());
        let dir = StorageDir::create(root.join("g")).unwrap();
        HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        dir
    }

    #[test]
    fn refresh_noop_when_generation_unchanged() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = build_dir(tmp.path());
        let mgr = SnapshotManager::open(dir).unwrap();
        let before = mgr.current();
        assert!(!mgr.refresh().unwrap());
        // Same Arc — no reopen happened.
        assert!(Arc::ptr_eq(&before, &mgr.current()));
    }

    #[test]
    fn refresh_repins_after_ingest() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = build_dir(tmp.path());
        let mgr = SnapshotManager::open(dir.clone()).unwrap();
        let old = mgr.current();

        let mut dg = DynamicGraph::open(dir).unwrap();
        dg.insert_edge(0, 63, 1.0).unwrap();
        dg.flush().unwrap();
        drop(dg);

        assert!(mgr.refresh().unwrap());
        let new = mgr.current();
        assert!(new.generation() > old.generation());
        assert_eq!(new.graph().num_edges(), old.graph().num_edges() + 1);
        // The old snapshot still answers queries at its pinned state.
        assert_eq!(old.graph().num_edges() + 1, new.graph().num_edges());
    }
}
