//! Determinism stress tests for the parallel I/O pipeline: row-parallel
//! ROP and column-parallel COP must be invisible to the algorithm — the
//! same vertex values, bit for bit, and the same tracked I/O bytes as
//! the serial single-threaded walk.
//!
//! `min` is order-insensitive in its bit pattern; the summing programs
//! are not (float addition), so their bit-identity also pins every
//! destination's accumulation order.

use husgraph::algos::{Bfs, PageRank, Wcc};
use husgraph::codec::Codec;
use husgraph::core::{
    BuildConfig, EdgeCtx, Engine, HusGraph, RunConfig, RunStats, UpdateMode, VertexProgram,
};
use husgraph::gen::EdgeList;
use husgraph::storage::{IoSnapshot, StorageDir};

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
        &BuildConfig::with_p_codec(p, Codec::Raw),
    )
    .unwrap();
    g.dir().tracker().reset();
    (tmp, g)
}

/// One thread is the serial walk: rows run inline, in order, and COP
/// pulls one column at a time, fetching its blocks in order.
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
fn hybrid_pipeline_matches_serial_hybrid() {
    // The full hybrid schedule — predictor picking ROP or COP per
    // iteration — fanned out over eight threads vs the serial walk.
    let (_tmp, g) = build(4);
    let (serial_vals, serial_stats) =
        Engine::new(&g, &Bfs::new(0), cfg(UpdateMode::Hybrid, 1)).run().unwrap();
    g.dir().tracker().reset();
    let (par_vals, par_stats) =
        Engine::new(&g, &Bfs::new(0), cfg(UpdateMode::Hybrid, 8)).run().unwrap();
    assert_eq!(serial_vals, par_vals);
    assert_eq!(serial_stats.total_io.total_bytes(), par_stats.total_io.total_bytes());
}

/// Min-label propagation from the vertices below `active_below`.
struct MinLabel {
    active_below: u32,
}

impl VertexProgram for MinLabel {
    type Value = u32;
    fn init(&self, v: u32) -> u32 {
        v
    }
    fn initially_active(&self, v: u32) -> bool {
        v < self.active_below
    }
    fn scatter(&self, src: &u32, _ctx: &EdgeCtx) -> Option<u32> {
        Some(*src)
    }
    fn combine(&self, dst: &mut u32, msg: u32) -> bool {
        let smaller = msg < *dst;
        *dst = (*dst).min(msg);
        smaller
    }
}

/// Run `program` at every thread count on a freshly opened handle of
/// `el` (built once per codec, so no run inherits another's decoded-
/// block cache) and require values and every iteration's I/O to equal
/// the one-thread run. Returns the one-thread stats.
fn same_at_every_thread_count<Pr>(
    el: &EdgeList,
    p: u32,
    program: &Pr,
    config: impl Fn(usize) -> RunConfig,
) -> Vec<RunStats>
where
    Pr: VertexProgram,
    Pr::Value: PartialEq + std::fmt::Debug,
{
    let mut serial = Vec::new();
    for codec in [Codec::Raw, Codec::DeltaVarint] {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        HusGraph::build_into(el, &dir, &BuildConfig::with_p_codec(p, codec)).unwrap();
        let run = |threads| {
            let g = HusGraph::open(StorageDir::open(dir.root()).unwrap()).unwrap();
            Engine::new(&g, program, config(threads)).run().unwrap()
        };
        let io = |stats: &RunStats| -> Vec<IoSnapshot> {
            stats.iterations.iter().map(|it| it.io).collect()
        };
        let (want, one) = run(1);
        for threads in [2, 3, 8] {
            let (got, stats) = run(threads);
            assert_eq!(got, want, "{codec:?}, P = {p}, {threads} threads: values");
            assert_eq!(io(&stats), io(&one), "{codec:?}, P = {p}, {threads} threads: I/O");
        }
        serial.push(one);
    }
    serial
}

/// COP's column workers against the one-thread walk: a skewed rmat
/// at P = 8 (more columns than some thread counts, fewer than others)
/// and a P = 1 graph (one column, so one worker at any thread count),
/// both codecs, an always-active PageRank and a frontier-reading
/// min-label.
#[test]
fn cop_column_workers_match_one_thread_bit_for_bit() {
    let el = husgraph::gen::rmat(3000, 30_000, 17, Default::default());
    for p in [8, 1] {
        let pagerank = PageRank::new(el.num_vertices);
        let capped =
            |threads| RunConfig { max_iterations: 5, ..cfg(UpdateMode::ForceCop, threads) };
        same_at_every_thread_count(&el, p, &pagerank, capped);
        let all = u32::MAX;
        same_at_every_thread_count(&el, p, &MinLabel { active_below: all }, |threads| {
            cfg(UpdateMode::ForceCop, threads)
        });
    }
}

/// Each phase's wall time is the engine thread's, not the sum of
/// worker spans that overlap in time (concurrent ROP rows or COP
/// columns at two threads sum to about twice the phase): the phases of
/// an iteration fit inside it.
#[test]
fn phase_wall_times_fit_inside_their_iteration() {
    let el = husgraph::gen::rmat(1 << 14, 200_000, 5, Default::default());
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(8)).unwrap();
    husgraph::obs::set_enabled(true);
    for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop] {
        let program = MinLabel { active_below: u32::MAX };
        let (_, stats) = Engine::new(&g, &program, cfg(mode, 2)).run().unwrap();
        assert!(stats.iterations.iter().any(|it| !it.phases.is_empty()), "{mode:?}: no phases");
        for it in &stats.iterations {
            let phases = husgraph::obs::phase::total_wall_seconds(&it.phases);
            assert!(
                phases <= it.wall_seconds + 1e-3,
                "{mode:?} iteration {}: phases {phases} s in {} s: {:?}",
                it.iteration,
                it.wall_seconds,
                it.phases
            );
        }
    }
    husgraph::obs::set_enabled(false);
}
