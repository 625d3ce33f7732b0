//! Determinism stress tests for the parallel I/O pipeline: row-parallel
//! ROP and deep COP readahead must be invisible to the algorithm — the
//! same vertex values, bit for bit, and the same tracked I/O bytes as
//! the serial single-threaded walk. (Unused readahead on early abort is
//! reported via a separate counter, not folded into the run's totals.)
//!
//! The programs used here combine with `min`, which is commutative *and*
//! order-insensitive in its bit pattern, so "bit-identical" is a hard
//! assertion, not a tolerance check.

use husgraph::algos::{Bfs, Wcc};
use husgraph::core::{BuildConfig, Engine, HusGraph, RunConfig, UpdateMode};
use husgraph::storage::StorageDir;

fn build(p: u32) -> (tempfile::TempDir, HusGraph) {
    let el = husgraph::gen::rmat(800, 8000, 99, Default::default());
    let tmp = tempfile::tempdir().unwrap();
    // Raw pinned: these tests equate the serial and parallel runs'
    // billed bytes, which requires stateless reads. Under a compressed
    // codec the first run warms the decoded-block cache and later
    // partial reads legitimately bill zero (see DESIGN.md §9 /
    // docs/FORMAT.md), so cross-run byte equality does not hold.
    let g = HusGraph::build_into(
        &el,
        &StorageDir::create(tmp.path()).unwrap(),
        &BuildConfig::with_p_codec(p, husgraph::codec::Codec::Raw),
    )
    .unwrap();
    g.dir().tracker().reset();
    (tmp, g)
}

/// One thread is the serial walk: rows run inline, in order, and COP's
/// readahead window (sized from the thread budget, clamped to 2..=8) is
/// at its shallowest.
fn cfg(mode: UpdateMode, threads: usize) -> RunConfig {
    RunConfig { threads, ..RunConfig::with_mode(mode) }
}

#[test]
fn parallel_rop_rows_match_serial_bit_for_bit() {
    let (_tmp, g) = build(6);
    let serial_cfg = cfg(UpdateMode::ForceRop, 1);
    let (serial_vals, serial_stats) = Engine::new(&g, &Bfs::new(0), serial_cfg).run().unwrap();

    for threads in [4, 8] {
        g.dir().tracker().reset();
        let par_cfg = cfg(UpdateMode::ForceRop, threads);
        let (par_vals, par_stats) = Engine::new(&g, &Bfs::new(0), par_cfg).run().unwrap();
        assert_eq!(serial_vals, par_vals, "BFS values diverged at {threads} threads");
        assert_eq!(
            serial_stats.total_io.total_bytes(),
            par_stats.total_io.total_bytes(),
            "tracked I/O bytes diverged at {threads} threads"
        );
        assert_eq!(serial_stats.iterations.len(), par_stats.iterations.len());
    }
}

#[test]
fn parallel_rop_repeated_runs_are_stable() {
    // Re-running the parallel configuration must keep producing the same
    // answer — a cheap loom-free probe for row-interleaving races.
    let (_tmp, g) = build(5);
    let mut baseline: Option<Vec<u32>> = None;
    for round in 0..4 {
        g.dir().tracker().reset();
        let (vals, _) = Engine::new(&g, &Wcc, cfg(UpdateMode::ForceRop, 8)).run().unwrap();
        match &baseline {
            None => baseline = Some(vals),
            Some(b) => assert_eq!(b, &vals, "WCC diverged on parallel round {round}"),
        }
    }
}

#[test]
fn deep_cop_readahead_matches_serial_bit_for_bit() {
    let (_tmp, g) = build(6);
    let serial_cfg = cfg(UpdateMode::ForceCop, 1);
    let (serial_vals, serial_stats) = Engine::new(&g, &Wcc, serial_cfg).run().unwrap();

    // Windows of 4 and 6 blocks (the whole column at P = 6).
    for threads in [4, 8] {
        g.dir().tracker().reset();
        let deep_cfg = cfg(UpdateMode::ForceCop, threads);
        let (deep_vals, deep_stats) = Engine::new(&g, &Wcc, deep_cfg).run().unwrap();
        assert_eq!(serial_vals, deep_vals, "WCC values diverged at {threads} threads");
        assert_eq!(
            serial_stats.total_io.total_bytes(),
            deep_stats.total_io.total_bytes(),
            "tracked I/O bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn hybrid_pipeline_matches_serial_hybrid() {
    // The full hybrid schedule — predictor picking ROP or COP per
    // iteration — fanned out and read ahead as far as it goes vs the
    // serial walk.
    let (_tmp, g) = build(4);
    let (serial_vals, serial_stats) =
        Engine::new(&g, &Bfs::new(0), cfg(UpdateMode::Hybrid, 1)).run().unwrap();
    g.dir().tracker().reset();
    let (par_vals, par_stats) =
        Engine::new(&g, &Bfs::new(0), cfg(UpdateMode::Hybrid, 8)).run().unwrap();
    assert_eq!(serial_vals, par_vals);
    assert_eq!(serial_stats.total_io.total_bytes(), par_stats.total_io.total_bytes());
}
