//! The hybrid predictor prices the bytes ROP and COP really bill.
//!
//! On the workload built to sit on the ROP/COP crossover — BFS over a
//! small-world mesh, whose wavefront frontier stays a few hundred to a
//! few thousand vertices for over a hundred iterations — the plans of
//! `hus_core::{rop, cop}` must be close enough to the billed bytes that
//! the hybrid never loses to a constant policy, for both edge codecs.
//! On an rmat graph, whose BFS frontier grows past any fixed active
//! fraction and shrinks again, every iteration that leaves a vertex
//! inactive must be priced, and pricing must keep the hybrid level with
//! the better constant policy.

use husgraph::algos::Bfs;
use husgraph::codec::Codec;
use husgraph::core::audit::{audit_rows, misprediction_ratio};
use husgraph::core::predict::IoPlan;
use husgraph::core::{
    cop, BuildConfig, Engine, HusGraph, RunConfig, RunStats, UpdateMode, UpdateModel,
};
use husgraph::gen::{rmat, watts_strogatz};
use husgraph::storage::{CostModel, DeviceProfile, StorageDir};

const P: u32 = 8;

/// The terms of every priced iteration's plan that do not estimate the
/// frontier's records are its bill: a push's sequential reads (interval
/// values, each once and none while resident, and whole offset arrays)
/// and its write-backs, and all of a pull.
fn assert_exact_terms(hybrid: &RunStats, what: &str) {
    for it in hybrid.iterations.iter().filter(|it| !it.gated) {
        let (plan, billed) = (it.plan.expect("a priced iteration"), IoPlan::billed(&it.io));
        let at = format!("{what}: iteration {} ({})", it.iteration, it.model);
        match it.model {
            UpdateModel::Rop => {
                assert_eq!(plan.sequential, billed.sequential, "{at}");
                assert_eq!(plan.write, billed.write, "{at}");
            }
            UpdateModel::Cop => assert_eq!(plan, billed, "{at}"),
        }
    }
}

/// One BFS on a freshly opened handle: every mode starts from the same
/// cold decoded-block cache, so their billed bytes are comparable.
fn bfs(dir: &StorageDir, source: u32, mode: UpdateMode) -> (Vec<u32>, RunStats) {
    let graph = HusGraph::open(dir.clone()).unwrap();
    let config = RunConfig { threads: 1, ..RunConfig::with_mode(mode) };
    let (levels, stats) = Engine::new(&graph, &Bfs::new(source), config).run().unwrap();
    assert!(stats.converged, "{mode:?}");
    (levels, stats)
}

#[test]
fn hybrid_on_the_mesh_crossover_never_loses_to_a_constant_policy() {
    let hdd = CostModel::new(DeviceProfile::hdd());
    for seed in [1u64, 2] {
        let el = watts_strogatz(1 << 14, 8, 0.002, seed);
        for codec in [Codec::Raw, Codec::DeltaVarint] {
            let what = format!("seed {seed}, {codec:?}");
            let tmp = tempfile::tempdir().unwrap();
            let dir = StorageDir::create(tmp.path().join("g")).unwrap();
            HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(P, codec)).unwrap();
            let source = (seed as u32 * 7919) % el.num_vertices;

            let (rop_levels, rop) = bfs(&dir, source, UpdateMode::ForceRop);
            let (cop_levels, cop) = bfs(&dir, source, UpdateMode::ForceCop);
            let (hybrid_levels, hybrid) = bfs(&dir, source, UpdateMode::Hybrid);
            assert_eq!(rop_levels, cop_levels, "{what}");
            assert_eq!(rop_levels, hybrid_levels, "{what}");
            assert!(hybrid.num_iterations() > 100, "{what}: a long thin frontier");

            // COP's plan is exact: every sweep bills precisely its bytes.
            let sweep = cop::sweep_plan(&HusGraph::open(dir.clone()).unwrap(), 4);
            for it in &cop.iterations {
                assert_eq!(IoPlan::billed(&it.io), sweep, "{what}: iteration {}", it.iteration);
            }

            // No iteration here has every vertex active, so every one is
            // a priced decision; the hybrid's total on the paper's HDD
            // is within 2 % of the better constant policy's.
            assert!(hybrid.iterations.iter().all(|it| !it.gated && it.plan.is_some()), "{what}");
            let modeled = |stats: &RunStats| stats.modeled_seconds(&hdd);
            let best = modeled(&rop).min(modeled(&cop));
            assert!(
                modeled(&hybrid) <= 1.02 * best,
                "{what}: hybrid {:.4} s vs ROP {:.4} s / COP {:.4} s",
                modeled(&hybrid),
                modeled(&rop),
                modeled(&cop),
            );

            // And the chosen plans are what the iterations then billed:
            // mean |predicted − billed| / billed at most 30 %
            // (`misprediction_ratio` is in percent).
            let rows = audit_rows(&hybrid, &DeviceProfile::hdd().read);
            let error_pct = misprediction_ratio(&rows).expect("priced iterations");
            assert!(error_pct <= 30.0, "{what}: misprediction {error_pct:.1} %");
            assert_exact_terms(&hybrid, &what);
        }
    }
}

/// A 32-vertex rmat graph (16 edges per vertex, P 8), searched from its
/// lowest out-degree vertex: a one-vertex frontier twice, then three
/// quarters of the graph, then a few vertices. The dense middle
/// iteration is priced like the others, so the hybrid is level with the
/// better constant policy. A 5 % active-fraction gate, which sends every
/// frontier of two or more vertices here to COP unpriced, makes the
/// hybrid 1.17 × the better policy on the raw codec and 1.70 × on
/// delta-varint.
#[test]
fn hybrid_prices_every_rmat_iteration_with_an_inactive_vertex() {
    let hdd = CostModel::new(DeviceProfile::hdd());
    let el = rmat(1 << 5, 16 << 5, 1, Default::default());
    for codec in [Codec::Raw, Codec::DeltaVarint] {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let graph = HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(P, codec)).unwrap();
        let degrees = graph.out_degrees();
        let source = (0..el.num_vertices)
            .filter(|&v| degrees[v as usize] > 0)
            .min_by_key(|&v| degrees[v as usize])
            .unwrap();

        let (rop_levels, rop) = bfs(&dir, source, UpdateMode::ForceRop);
        let (cop_levels, cop) = bfs(&dir, source, UpdateMode::ForceCop);
        let (hybrid_levels, hybrid) = bfs(&dir, source, UpdateMode::Hybrid);
        assert_eq!(rop_levels, cop_levels, "{codec:?}");
        assert_eq!(rop_levels, hybrid_levels, "{codec:?}");

        let v = el.num_vertices as u64;
        for it in hybrid.iterations.iter().filter(|it| it.active_vertices < v) {
            let at = (codec, it.iteration, it.active_vertices);
            assert!(it.plan.is_some() && !it.gated, "{at:?}: an unpriced iteration");
        }
        assert_exact_terms(&hybrid, &format!("{codec:?}"));
        let modeled = |stats: &RunStats| stats.modeled_seconds(&hdd);
        let best = modeled(&rop).min(modeled(&cop));
        assert!(
            modeled(&hybrid) <= 1.05 * best,
            "{codec:?}: hybrid {:.6} s vs ROP {:.6} s / COP {:.6} s",
            modeled(&hybrid),
            modeled(&rop),
            modeled(&cop),
        );
    }
}
