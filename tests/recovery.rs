//! Crash-recovery: the crash-at-any-point property for both builders,
//! resumable external builds, and checkpointed engine runs.
//!
//! The harness re-executes this test binary as a child process with
//! `HUS_CRASH_AT=<point>` armed, so the child genuinely dies (exit code
//! [`CRASH_EXIT_CODE`], no `Drop` cleanup, buffered writes lost) at each
//! staged write point. The parent then asserts the contract from
//! DESIGN.md §10: after a crash at *any* point, the target directory is
//! either absent, fully valid (deep-verified by `fsck`), or `open()`
//! fails with a typed `IncompleteBuild`/`ManifestMismatch` error —
//! never silently wrong. On top of that, interrupted external builds
//! must resume to byte-identical output, and a killed checkpointed
//! engine run must resume to bit-identical PageRank values — and, under
//! ROP, whose pushed intervals stay resident unwritten, to the same BFS
//! levels.
//!
//! The guarded `recovery_child_*` tests are the child-process entry
//! points: inert (they return immediately) unless `RECOVERY_CHILD`
//! names them, so a normal `cargo test` run is unaffected.

use std::path::{Path, PathBuf};
use std::process::Command;

use husgraph::algos::{reference, Bfs, PageRank};
use husgraph::core::{
    build_external, fsck, BuildConfig, EdgeSource, Engine, HusGraph, ListSource, RunConfig,
    UpdateMode,
};
use husgraph::gen::{Csr, EdgeList};
use husgraph::storage::durable::CRASH_EXIT_CODE;
use husgraph::storage::{StorageDir, StorageError};

/// Deterministic workload shared by parent and child processes.
fn edges() -> EdgeList {
    husgraph::gen::rmat(600, 5_000, 42, Default::default())
}

fn build_config() -> BuildConfig {
    BuildConfig::with_p(3)
}

/// Engine config for the kill/resume test: single-threaded (so float
/// accumulation order is fixed and bitwise comparison is meaningful),
/// checkpoint every 2 iterations into a well-known scratch name.
fn engine_config() -> RunConfig {
    RunConfig {
        threads: 1,
        max_iterations: 8,
        checkpoint_every: 2,
        scratch_name: Some("rck".into()),
        ..Default::default()
    }
}

fn child_role() -> Option<String> {
    std::env::var("RECOVERY_CHILD").ok()
}

fn recovery_dir() -> PathBuf {
    PathBuf::from(std::env::var("RECOVERY_DIR").expect("RECOVERY_DIR set for child"))
}

/// Child entry point: in-memory build of the shared workload.
#[test]
fn recovery_child_mem_build() {
    if child_role().as_deref() != Some("mem_build") {
        return;
    }
    let dir = StorageDir::create(recovery_dir().join("g")).unwrap();
    HusGraph::build_into(&edges(), &dir, &build_config()).unwrap();
}

/// Child entry point: external (streaming) build of the shared workload.
#[test]
fn recovery_child_ext_build() {
    if child_role().as_deref() != Some("ext_build") {
        return;
    }
    let el = edges();
    let dir = StorageDir::create(recovery_dir().join("g")).unwrap();
    build_external(&ListSource(&el), &dir, &build_config()).unwrap();
}

/// Child entry point: checkpointed PageRank over a pre-built graph.
#[test]
fn recovery_child_engine_run() {
    if child_role().as_deref() != Some("engine_run") {
        return;
    }
    let g = HusGraph::open(StorageDir::open(recovery_dir().join("g")).unwrap()).unwrap();
    let pr = PageRank::new(g.meta().num_vertices);
    Engine::new(&g, &pr, engine_config()).run().unwrap();
}

/// A ring lattice with a few shortcuts (P 4): BFS from 0 runs about a
/// hundred iterations, each pushing into one or two intervals.
fn mesh_edges() -> EdgeList {
    husgraph::gen::watts_strogatz(1_200, 3, 0.005, 5)
}

/// Forced-ROP BFS for the ROP kill/resume test: every iteration is a
/// push, so checkpoints are taken while intervals are resident and their
/// files are older than their values.
fn rop_config() -> RunConfig {
    RunConfig {
        checkpoint_every: 2,
        scratch_name: Some("rck_rop".into()),
        ..RunConfig::with_mode(UpdateMode::ForceRop)
    }
}

/// Child entry point: checkpointed forced-ROP BFS over a pre-built
/// graph.
#[test]
fn recovery_child_rop_bfs_run() {
    if child_role().as_deref() != Some("rop_bfs_run") {
        return;
    }
    let g = HusGraph::open(StorageDir::open(recovery_dir().join("g")).unwrap()).unwrap();
    Engine::new(&g, &Bfs::new(0), RunConfig { threads: 1, ..rop_config() }).run().unwrap();
}

/// Re-execute this test binary running exactly `test` with
/// `HUS_CRASH_AT=crash_at` armed; returns the child's exit code.
/// `HUS_NO_FSYNC=1` keeps the sweep fast — crash points fire via
/// `process::exit`, so buffered-but-unflushed data is lost either way.
fn run_child(test: &str, role: &str, dir: &Path, crash_at: &str) -> Option<i32> {
    let status = Command::new(std::env::current_exe().unwrap())
        .arg(test)
        .arg("--exact")
        .arg("--test-threads=1")
        .env("RECOVERY_CHILD", role)
        .env("RECOVERY_DIR", dir)
        .env("HUS_CRASH_AT", crash_at)
        .env("HUS_NO_FSYNC", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    status.code()
}

/// The §10 contract: after a crash, the target is absent, fully valid
/// (deep-verified), or rejected by `open()` with a typed lifecycle
/// error. Anything else is silent corruption.
fn assert_crash_left_consistent_state(target: &Path, point: &str) {
    if !target.exists() {
        return; // crash before the staging dir was even created
    }
    let dir = StorageDir::open(target).unwrap();
    match HusGraph::open(dir.clone()) {
        Ok(_) => {
            let report = fsck(&dir, false).unwrap();
            assert!(
                report.is_clean(),
                "crash at `{point}`: directory opened but fsck disagrees:\n{}",
                report.render()
            );
        }
        Err(StorageError::IncompleteBuild { .. }) | Err(StorageError::ManifestMismatch { .. }) => {}
        Err(other) => panic!("crash at `{point}` surfaced as an untyped error: {other}"),
    }
}

/// Crash the given builder child at `point`, check the §10 contract,
/// then rebuild over the crashed state and require a clean result.
fn crash_then_recover(test: &str, role: &str, point: &str, rebuild: impl Fn(&StorageDir)) {
    let tmp = tempfile::tempdir().unwrap();
    let code = run_child(test, role, tmp.path(), point);
    assert_eq!(code, Some(CRASH_EXIT_CODE), "point `{point}` never fired (exit {code:?})");

    let target = tmp.path().join("g");
    assert_crash_left_consistent_state(&target, point);

    // Recovery: building again over whatever the crash left behind must
    // succeed and deep-verify clean.
    let dir = StorageDir::create(&target).unwrap();
    rebuild(&dir);
    let report = fsck(&dir, false).unwrap();
    assert!(report.is_clean(), "rebuild after `{point}` not clean:\n{}", report.render());
    let g = HusGraph::open(dir).unwrap();
    assert_eq!(g.meta().num_edges, edges().num_edges() as u64);
}

#[test]
fn in_memory_build_crash_at_any_point_is_never_silently_wrong() {
    // Every staged write point of the in-memory builder, including a
    // torn shard (`build.shard_mid` fires with writes still buffered)
    // and both sides of the atomic rename.
    for point in [
        "build.shard_mid",
        "build.shard",
        "build.shard:3",
        "build.degrees",
        "build.meta",
        "build.manifest",
        "build.pre_rename",
        "build.post_rename",
    ] {
        crash_then_recover("recovery_child_mem_build", "mem_build", point, |dir| {
            HusGraph::build_into(&edges(), dir, &build_config()).unwrap();
        });
    }
}

#[test]
fn external_build_crash_at_any_point_is_never_silently_wrong() {
    // External-builder phase boundaries plus the shared finalize points.
    for point in [
        "ext.degrees",
        "ext.spill",
        "ext.shard",
        "ext.shard:3",
        "build.meta",
        "build.manifest",
        "build.pre_rename",
        "build.post_rename",
    ] {
        crash_then_recover("recovery_child_ext_build", "ext_build", point, |dir| {
            let el = edges();
            build_external(&ListSource(&el), dir, &build_config()).unwrap();
        });
    }
}

#[test]
fn interrupted_external_build_resumes_to_byte_identical_output() {
    let tmp = tempfile::tempdir().unwrap();
    let el = edges();

    // Uninterrupted reference build.
    let ref_dir = StorageDir::create(tmp.path().join("ref")).unwrap();
    build_external(&ListSource(&el), &ref_dir, &build_config()).unwrap();

    // Crash mid shard phase: degrees and spills are durable, some
    // shards are done, progress.json records exactly how far.
    let code = run_child("recovery_child_ext_build", "ext_build", tmp.path(), "ext.shard:2");
    assert_eq!(code, Some(CRASH_EXIT_CODE));

    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    assert!(!dir.staging_siblings().is_empty(), "crash left a resumable staging sibling");
    build_external(&ListSource(&el), &dir, &build_config()).unwrap();
    assert!(dir.staging_siblings().is_empty(), "staging sibling adopted and committed");

    // Every committed file — shards, indexes, degrees, meta.json and the
    // generation-stamped MANIFEST — is byte-identical to the reference.
    let listing = |root: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let names = listing(&tmp.path().join("ref"));
    assert_eq!(names, listing(&tmp.path().join("g")));
    for name in &names {
        let a = std::fs::read(tmp.path().join("ref").join(name)).unwrap();
        let b = std::fs::read(tmp.path().join("g").join(name)).unwrap();
        assert_eq!(a, b, "file `{name}` differs between resumed and uninterrupted builds");
    }
}

/// An [`EdgeSource`] that counts its passes: a fresh external build
/// scans twice (degree pass, spill pass), a resume past the spill phase
/// only once (the degree pass, which re-derives the input's identity).
struct CountingSource<'a> {
    list: ListSource<'a>,
    scans: std::cell::Cell<u32>,
}

impl<'a> CountingSource<'a> {
    fn new(el: &'a EdgeList) -> Self {
        CountingSource { list: ListSource(el), scans: std::cell::Cell::new(0) }
    }
}

impl<'a> EdgeSource for CountingSource<'a> {
    type Iter = <ListSource<'a> as EdgeSource>::Iter;

    fn num_vertices(&self) -> u32 {
        self.list.num_vertices()
    }

    fn weighted(&self) -> bool {
        self.list.weighted()
    }

    fn scan(&self) -> husgraph::storage::Result<Self::Iter> {
        self.scans.set(self.scans.get() + 1);
        self.list.scan()
    }
}

#[test]
fn interrupted_external_build_is_resumed_only_for_the_same_input() {
    let a = edges();
    // Same |V|, weights and config as `a` — everything the progress
    // record used to be bound to — but a different edge stream.
    let b = husgraph::gen::rmat(a.num_vertices, 3_000, 43, Default::default());
    assert_ne!(a.num_edges(), b.num_edges());
    let refs = tempfile::tempdir().unwrap();
    let reference = |el: &EdgeList, name: &str| {
        let dir = StorageDir::create(refs.path().join(name)).unwrap();
        build_external(&ListSource(el), &dir, &build_config()).unwrap()
    };

    // Kill a build of A after its spill phase, then build B into the
    // same directory: A's staged degrees and spills must be discarded,
    // not committed under B's name.
    let tmp = tempfile::tempdir().unwrap();
    let code = run_child("recovery_child_ext_build", "ext_build", tmp.path(), "ext.spill");
    assert_eq!(code, Some(CRASH_EXIT_CODE));
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    assert_eq!(dir.staging_siblings().len(), 1, "crash left a staging sibling");
    let source = CountingSource::new(&b);
    let meta = build_external(&source, &dir, &build_config()).unwrap();
    assert_eq!(meta.num_edges, b.num_edges() as u64, "committed graph is not the input's");
    assert_eq!(meta, reference(&b, "b"));
    assert_eq!(source.scans.get(), 2, "stale staging discarded: full two-pass build");
    assert!(dir.staging_siblings().is_empty(), "stale staging sibling swept");
    assert!(fsck(&dir, false).unwrap().is_clean());

    // The same crash followed by the *same* input still resumes: the
    // spill pass is not repeated.
    let tmp = tempfile::tempdir().unwrap();
    let code = run_child("recovery_child_ext_build", "ext_build", tmp.path(), "ext.spill");
    assert_eq!(code, Some(CRASH_EXIT_CODE));
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    let source = CountingSource::new(&a);
    let meta = build_external(&source, &dir, &build_config()).unwrap();
    assert_eq!(source.scans.get(), 1, "resume re-derives the input identity, nothing more");
    assert_eq!(meta, reference(&a, "a"));
    assert!(fsck(&dir, false).unwrap().is_clean());
}

#[test]
fn killed_checkpointed_run_resumes_bit_identical_pagerank() {
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    HusGraph::build_into(&edges(), &dir, &build_config()).unwrap();

    // Uninterrupted 8-iteration reference (separate scratch, no
    // checkpointing so nothing could possibly leak between the runs).
    let g = HusGraph::open(StorageDir::open(tmp.path().join("g")).unwrap()).unwrap();
    let pr = PageRank::new(g.meta().num_vertices);
    let ref_cfg =
        RunConfig { scratch_name: Some("ref".into()), checkpoint_every: 0, ..engine_config() };
    let (ref_vals, ref_stats) = Engine::new(&g, &pr, ref_cfg).run().unwrap();
    assert_eq!(ref_stats.num_iterations(), 8);

    // Kill a checkpointed run at the end of iteration 4 (the 5th hit of
    // `engine.iteration_end`). Checkpoints were saved after iterations
    // 1 and 3, so the freshest durable snapshot is iteration 3.
    let code =
        run_child("recovery_child_engine_run", "engine_run", tmp.path(), "engine.iteration_end:5");
    assert_eq!(code, Some(CRASH_EXIT_CODE));

    // Resume with the same scratch: re-enters at iteration 4 and the
    // final ranks are bit-for-bit the uninterrupted run's.
    let (vals, stats) = Engine::new(&g, &pr, engine_config()).run().unwrap();
    assert_eq!(stats.checkpoints.resumed_from, Some(3), "resumed from the iteration-3 snapshot");
    assert_eq!(stats.num_iterations(), 4, "iterations 4..8 re-run, 0..4 skipped");
    assert!(stats.checkpoints.written > 0);
    assert_eq!(
        vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        ref_vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "resumed PageRank is not bit-identical to the uninterrupted run"
    );
}

#[test]
fn killed_checkpointed_rop_run_resumes_to_the_same_levels() {
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    let el = mesh_edges();
    let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
    let want = reference::bfs_levels(&Csr::from_edge_list(&el), 0);
    let config = RunConfig { threads: 1, ..rop_config() };
    let uninterrupted = RunConfig { scratch_name: Some("ref".into()), ..config.clone() };
    let (levels, stats) = Engine::new(&g, &Bfs::new(0), uninterrupted).run().unwrap();
    assert_eq!(levels, want, "the uninterrupted run");
    assert!(stats.num_iterations() > 20, "{} iterations", stats.num_iterations());

    // Kill the run at the end of iteration 5, right after its
    // iteration-5 checkpoint: the push has just left the intervals it
    // pushed into resident and unwritten.
    let code = run_child(
        "recovery_child_rop_bfs_run",
        "rop_bfs_run",
        tmp.path(),
        "engine.iteration_end:6",
    );
    assert_eq!(code, Some(CRASH_EXIT_CODE));

    let (resumed, stats) = Engine::new(&g, &Bfs::new(0), config).run().unwrap();
    assert_eq!(stats.checkpoints.resumed_from, Some(5), "resumed from the iteration-5 snapshot");
    assert_eq!(resumed, levels, "resumed BFS differs from the uninterrupted run");
    assert_eq!(resumed, want);
}

/// Deterministic update batch shared by the delta-crash children and
/// their parents: 50 inserts with distinct keys, then a tombstone for
/// one of them (so the batch exercises puts *and* a delete of a
/// just-put key).
fn apply_updates(dg: &mut husgraph::core::DynamicGraph) {
    for k in 0..50u32 {
        dg.insert_edge(k, (k * 7 + 1) % 600, 1.0).unwrap();
    }
    dg.delete_edge(2, 15).unwrap();
}

/// Edge count of the base workload after `apply_updates` is fully
/// durable: base edges whose key the batch never touched (an insert
/// collapses every base copy of its key) plus the 49 surviving puts.
fn expected_edges_after_updates() -> u64 {
    let keys: std::collections::BTreeSet<(u32, u32)> =
        (0..50u32).map(|k| (k, (k * 7 + 1) % 600)).collect();
    let untouched = edges().edges.iter().filter(|e| !keys.contains(&(e.src, e.dst))).count() as u64;
    untouched + 49
}

/// Child entry point: streaming updates + memtable spill over a
/// pre-built graph.
#[test]
fn recovery_child_delta_spill() {
    if child_role().as_deref() != Some("delta_spill") {
        return;
    }
    let mut dg =
        husgraph::core::DynamicGraph::open(StorageDir::open(recovery_dir().join("g")).unwrap())
            .unwrap();
    apply_updates(&mut dg);
    dg.flush().unwrap();
}

/// Child entry point: compaction of a graph carrying a live delta run.
#[test]
fn recovery_child_delta_compact() {
    if child_role().as_deref() != Some("delta_compact") {
        return;
    }
    let mut dg =
        husgraph::core::DynamicGraph::open(StorageDir::open(recovery_dir().join("g")).unwrap())
            .unwrap();
    dg.compact().unwrap();
}

#[test]
fn delta_spill_crash_at_any_point_is_never_silently_wrong() {
    // The spill's own staged-write points: before the run's rename
    // (only a quarantinable .tmp survives), after the run commits but
    // before the manifest lists it (an orphaned run — stale, not
    // corruption), and after the manifest rewrite (fully durable).
    for point in ["delta.run_tmp", "delta.spill_run", "delta.spill_manifest"] {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        HusGraph::build_into(&edges(), &dir, &build_config()).unwrap();

        let code = run_child("recovery_child_delta_spill", "delta_spill", tmp.path(), point);
        assert_eq!(code, Some(CRASH_EXIT_CODE), "point `{point}` never fired (exit {code:?})");
        assert_crash_left_consistent_state(&tmp.path().join("g"), point);

        // The base build is untouched by any spill crash, and repair
        // quarantines whatever the crash left behind.
        let dir = StorageDir::open(tmp.path().join("g")).unwrap();
        HusGraph::open(dir.clone()).unwrap();
        let report = fsck(&dir, true).unwrap();
        assert!(report.is_clean(), "crash at `{point}`:\n{}", report.render());

        // Recovery is redo: the memtable is volatile by contract, so
        // the writer re-applies the batch; inserts and tombstones are
        // idempotent, so this is safe whether or not the crashed spill
        // made it to disk.
        let mut dg = husgraph::core::DynamicGraph::open(dir).unwrap();
        apply_updates(&mut dg);
        dg.flush().unwrap();
        assert!(dg.compact().unwrap());
        assert_eq!(dg.snapshot().unwrap().num_edges(), expected_edges_after_updates());
        let dir = StorageDir::open(tmp.path().join("g")).unwrap();
        let report = fsck(&dir, false).unwrap();
        assert!(report.is_clean(), "after redo at `{point}`:\n{}", report.render());
    }
}

#[test]
fn delta_compaction_crash_at_any_point_is_never_silently_wrong() {
    // Compaction is an ordinary staged build, so it inherits the
    // builder's crash points: a crash before the commit rename leaves
    // the old base + delta runs fully intact; after it, the folded
    // build. Either way the update batch is durable (it was spilled
    // before compaction started) and must survive.
    for point in
        ["build.shard", "build.meta", "build.manifest", "build.pre_rename", "build.post_rename"]
    {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        HusGraph::build_into(&edges(), &dir, &build_config()).unwrap();
        let mut dg = husgraph::core::DynamicGraph::open(dir).unwrap();
        apply_updates(&mut dg);
        dg.flush().unwrap();
        assert_eq!(dg.run_count(), 1);
        drop(dg);

        let code = run_child("recovery_child_delta_compact", "delta_compact", tmp.path(), point);
        assert_eq!(code, Some(CRASH_EXIT_CODE), "point `{point}` never fired (exit {code:?})");
        assert_crash_left_consistent_state(&tmp.path().join("g"), point);

        // Recovery: reopen, finish (or redo) the compaction, and the
        // spilled updates are all still there.
        let mut dg =
            husgraph::core::DynamicGraph::open(StorageDir::open(tmp.path().join("g")).unwrap())
                .unwrap();
        assert_eq!(
            dg.snapshot().unwrap().num_edges(),
            expected_edges_after_updates(),
            "crash at `{point}` lost durable updates"
        );
        if dg.run_count() > 0 {
            assert!(dg.compact().unwrap());
        }
        assert_eq!(dg.run_count(), 0);
        assert_eq!(dg.snapshot().unwrap().num_edges(), expected_edges_after_updates());
        let dir = StorageDir::open(tmp.path().join("g")).unwrap();
        let report = fsck(&dir, true).unwrap();
        assert!(report.is_clean(), "after recovery at `{point}`:\n{}", report.render());
    }
}
