//! The hybrid predictor prices the bytes ROP and COP really bill.
//!
//! On the workload built to sit on the ROP/COP crossover — BFS over a
//! small-world mesh, whose wavefront frontier stays a few hundred to a
//! few thousand vertices for over a hundred iterations — the plans of
//! `hus_core::{rop, cop}` must be close enough to the billed bytes that
//! the hybrid never loses to a constant policy, for both edge codecs.

use husgraph::algos::Bfs;
use husgraph::codec::Codec;
use husgraph::core::audit::{audit_rows, misprediction_ratio};
use husgraph::core::predict::IoPlan;
use husgraph::core::{cop, BuildConfig, Engine, HusGraph, RunConfig, RunStats, UpdateMode};
use husgraph::gen::watts_strogatz;
use husgraph::storage::{CostModel, DeviceProfile, StorageDir};

const P: u32 = 8;

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

            // Every iteration here is below the α gate, so every one is
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
        }
    }
}
