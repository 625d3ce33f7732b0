//! Generated tests over the core invariants:
//!
//! * the dual-block representation is a lossless re-encoding of any edge
//!   list (both directions), and both builders write the same bytes,
//! * push (ROP), pull (COP) and the hybrid are observationally
//!   equivalent for min-propagation programs on random graphs,
//! * the predictor's ROP plan is monotone in the frontier and its COP
//!   plan independent of it,
//! * interval partitioning always covers `[0, V)` exactly.
//!
//! Each property runs [`recorded`] first when its bounds admit it, then
//! its generated cases from a logged seed; a failure names its case,
//! and putting the logged seed into [`REPLAY`] reruns the same cases.

mod common;

use std::collections::BTreeSet;

use common::{graph_cases, SplitMix};
use husgraph::algos::{reference, Bfs, Wcc};
use husgraph::core::partition::{interval_of, interval_starts, PartitionStrategy};
use husgraph::core::predict::Predictor;
use husgraph::core::{BuildConfig, Engine, HusGraph, RunConfig, UpdateMode};
use husgraph::gen::{Csr, Edge, EdgeList};
use husgraph::storage::{Access, StorageDir, Throughput};

/// Replay a failure by putting its logged seed here.
const REPLAY: Option<u64> = None;

/// A case once recorded as failing: 63 edges, self-loops and
/// duplicates, over 2 vertices, built with P 5 (more intervals than
/// vertices).
fn recorded() -> (EdgeList, u32) {
    #[rustfmt::skip]
    const EDGES: [(u32, u32); 63] = [
        (1, 0), (0, 0), (1, 1), (0, 0), (0, 1), (1, 0), (1, 0), (0, 0), (0, 1), (1, 0), (0, 0),
        (0, 0), (0, 0), (1, 0), (1, 1), (0, 0), (0, 1), (0, 1), (0, 1), (0, 0), (0, 0), (0, 0),
        (0, 1), (1, 1), (0, 1), (1, 0), (0, 1), (0, 0), (0, 0), (0, 0), (0, 0), (1, 1), (0, 1),
        (0, 1), (0, 1), (0, 1), (1, 1), (1, 0), (1, 1), (1, 0), (0, 0), (0, 0), (1, 0), (0, 0),
        (0, 1), (0, 1), (1, 1), (1, 1), (0, 0), (0, 0), (0, 0), (1, 0), (1, 0), (1, 0), (1, 1),
        (0, 1), (0, 0), (1, 0), (0, 1), (1, 1), (0, 0), (0, 0), (1, 1),
    ];
    (EdgeList::from_pairs(EDGES), 5)
}

/// A set of up to `len` draws from `0..below` (duplicates collapse),
/// at least one when `len` starts above 0.
fn set(rng: &mut SplitMix, below: u32, len: std::ops::Range<usize>) -> BTreeSet<u32> {
    let len = rng.range(len.start as u64, len.end as u64);
    (0..len).map(|_| rng.below(below.into()) as u32).collect()
}

#[test]
fn dual_block_roundtrips_any_edge_list() {
    let what = "dual_block_roundtrips_any_edge_list";
    graph_cases(what, REPLAY, &recorded(), 16, (2..80, 0..500, 1..9), |_, el, p, at| {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p(p)).unwrap();
        let meta = g.meta();

        // Reconstruct via out-blocks.
        let mut via_out = Vec::new();
        for i in 0..g.p() {
            let base = meta.interval_start(i);
            for j in 0..g.p() {
                let idx = g.load_out_index(i, j, Access::Sequential).unwrap();
                let recs = g.stream_out_block(i, j).unwrap();
                for local in 0..meta.interval_len(i) as usize {
                    for k in idx[local]..idx[local + 1] {
                        via_out.push(Edge::new(base + local as u32, recs.neighbor(k as usize)));
                    }
                }
            }
        }
        // Reconstruct via in-blocks.
        let mut via_in = Vec::new();
        for j in 0..g.p() {
            let base = meta.interval_start(j);
            for i in 0..g.p() {
                let idx = g.load_in_index(i, j, Access::Sequential).unwrap();
                let recs = g.stream_in_block(i, j).unwrap();
                for local in 0..meta.interval_len(j) as usize {
                    for k in idx[local]..idx[local + 1] {
                        via_in.push(Edge::new(recs.neighbor(k as usize), base + local as u32));
                    }
                }
            }
        }
        let mut want = el.edges.clone();
        want.sort_unstable();
        via_out.sort_unstable();
        via_in.sort_unstable();
        assert_eq!(via_out, want, "{at}: out-blocks");
        assert_eq!(via_in, want, "{at}: in-blocks");
    });
}

#[test]
fn all_execution_strategies_agree_on_bfs() {
    let what = "all_execution_strategies_agree_on_bfs";
    graph_cases(what, REPLAY, &recorded(), 16, (2..60, 0..300, 1..6), |_, el, p, at| {
        let want = reference::bfs_levels(&Csr::from_edge_list(el), 0);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p(p)).unwrap();
        for (mode, threads) in [
            (UpdateMode::ForceRop, 1),
            (UpdateMode::ForceCop, 1),
            (UpdateMode::Hybrid, 1),
            (UpdateMode::Hybrid, 2),
        ] {
            let config = RunConfig { mode, threads, ..Default::default() };
            let (got, stats) = Engine::new(&g, &Bfs::new(0), config).run().unwrap();
            assert!(stats.converged, "{at}: {mode:?}");
            assert_eq!(got, want, "{at}: {mode:?}");
            // One model per iteration: every unit pushes, or every unit pulls.
            for it in &stats.iterations {
                assert!(it.rop_units == 0 || it.cop_units == 0, "{at}: {mode:?}: {it:?}");
            }
        }
    });
}

#[test]
fn wcc_on_symmetrized_graph_matches_union_find() {
    let what = "wcc_on_symmetrized_graph_matches_union_find";
    graph_cases(what, REPLAY, &recorded(), 16, (2..50, 0..200, 1..5), |_, el, p, at| {
        let el = el.clone().symmetrize();
        let want = reference::wcc_labels(&Csr::from_edge_list(&el));
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(p)).unwrap();
        let (got, _) = Engine::new(&g, &Wcc, RunConfig::default()).run().unwrap();
        assert_eq!(got, want, "{at}");
    });
}

#[test]
fn interval_partition_covers_exactly() {
    let check = |n: u32, p: u32, at: &str| {
        let starts = interval_starts(n, p, PartitionStrategy::EqualVertices, &[]);
        assert_eq!(starts.len(), p as usize + 1, "{at}");
        assert_eq!(starts[0], 0, "{at}");
        assert_eq!(*starts.last().unwrap(), n, "{at}");
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{at}: {starts:?}");
        // Every vertex belongs to exactly the interval interval_of says.
        for v in (0..n).step_by((n as usize / 50).max(1)) {
            let i = interval_of(&starts, v);
            assert!(starts[i] <= v && v < starts[i + 1], "{at}: vertex {v}");
        }
    };
    let (el, p) = recorded();
    check(el.num_vertices, p, "recorded case");
    let mut rng = SplitMix::logged("interval_partition_covers_exactly", REPLAY);
    for case in 0..16 {
        let (n, p) = (rng.range(1, 5000) as u32, rng.range(1, 64) as u32);
        check(n, p, &format!("case {case} ({n} vertices, P {p})"));
    }
}

#[test]
fn balanced_partition_covers_exactly() {
    let check = |degrees: &[u32], p: u32, at: &str| {
        let n = degrees.len() as u32;
        let starts = interval_starts(n, p, PartitionStrategy::BalancedOutDegree, degrees);
        assert_eq!(starts.len(), p as usize + 1, "{at}");
        assert_eq!(starts[0], 0, "{at}");
        assert_eq!(*starts.last().unwrap(), n, "{at}");
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{at}: {starts:?}");
    };
    let (el, p) = recorded();
    check(&el.out_degrees(), p, "recorded case");
    let mut rng = SplitMix::logged("balanced_partition_covers_exactly", REPLAY);
    for case in 0..16 {
        let degrees: Vec<u32> = (0..rng.range(1, 400)).map(|_| rng.below(50) as u32).collect();
        let p = rng.range(1, 16) as u32;
        check(&degrees, p, &format!("case {case} ({} vertices, P {p})", degrees.len()));
    }
}

#[test]
fn predictor_plans_are_monotone_in_the_frontier() {
    use husgraph::core::rop::{self, Frontier, IterCtx};
    use husgraph::core::{cop, ActiveSet, UpdateModel};
    let what = "predictor_plans_are_monotone_in_the_frontier";
    graph_cases(what, REPLAY, &recorded(), 16, (2..80, 0..500, 1..6), |rng, el, p, at| {
        let (small, extra) = (set(rng, 80, 0..20), set(rng, 80, 1..20));
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p(p)).unwrap();
        let n = el.num_vertices;
        // Batched no faster than random: run merging is off, so adding
        // an active vertex can only add cost (with merging on, a vertex
        // that bridges two singleton ranges rightly makes both cheaper).
        let tput = Throughput { sequential_bps: 120e6, random_bps: 1e6, batched_bps: 1e6 };
        let program = Bfs::new(0);
        let c_rop = |frontier: &BTreeSet<u32>| {
            let active = ActiveSet::from_fn(n, |v| frontier.contains(&v));
            let ctx = IterCtx {
                graph: &g,
                program: &program,
                active: &active,
                next_active: &ActiveSet::new(n),
                coalesce_ratio: tput.batched_bps / tput.random_bps,
                index_ratio: tput.sequential_bps / tput.random_bps,
                deadline: None,
            };
            rop::plan(&ctx, &Frontier::scan(&g, &active), &vec![false; p as usize])
        };
        let sparse = c_rop(&small);
        let dense = c_rop(&small.union(&extra).copied().collect());
        // C_rop is non-decreasing in the frontier, in bytes and seconds.
        assert!(dense.total_bytes() >= sparse.total_bytes(), "{at}: {sparse:?} vs {dense:?}");
        assert!(dense.seconds(&tput) >= sparse.seconds(&tput), "{at}: {sparse:?} vs {dense:?}");
        // C_cop never sees the frontier: one plan per run. So decisions
        // flip at most once along the density axis.
        let sweep = cop::sweep_plan(&g, 4);
        let pred = Predictor::new(tput, 4.0, 4);
        if pred.compare(&sparse, &sweep).model == UpdateModel::Cop {
            assert_eq!(pred.compare(&dense, &sweep).model, UpdateModel::Cop, "{at}");
        }
    });
}

#[test]
fn active_set_iter_matches_membership() {
    let mut rng = SplitMix::logged("active_set_iter_matches_membership", REPLAY);
    for case in 0..16 {
        let bits = set(&mut rng, 500, 0..80);
        let set = husgraph::core::ActiveSet::new(500);
        for &b in &bits {
            set.set(b);
        }
        let collected: Vec<u32> = set.iter().collect();
        let want: Vec<u32> = bits.iter().copied().collect();
        assert_eq!(collected, want, "case {case}");
        assert_eq!(set.count(), bits.len() as u64, "case {case}");
    }
}

#[test]
fn external_builder_matches_in_memory_builder() {
    use husgraph::core::{build, build_external, BuildConfig, GraphMeta, ListSource};
    let what = "external_builder_matches_in_memory_builder";
    graph_cases(what, REPLAY, &recorded(), 8, (2..60, 0..250, 1..6), |_, el, p, at| {
        let tmp = tempfile::tempdir().unwrap();
        let a = StorageDir::create(tmp.path().join("a")).unwrap();
        let b = StorageDir::create(tmp.path().join("b")).unwrap();
        let cfg = BuildConfig { p: Some(p), ..Default::default() };
        let meta_a = build(el, &a, &cfg).unwrap();
        let meta_b = build_external(&ListSource(el), &b, &cfg).unwrap();
        assert_eq!(meta_a, meta_b, "{at}");
        // The builders clamp P to the vertex count; iterate what was built.
        for i in 0..meta_a.p as usize {
            for name in [
                GraphMeta::out_edges_file(i),
                GraphMeta::out_index_file(i),
                GraphMeta::in_edges_file(i),
                GraphMeta::in_index_file(i),
            ] {
                let (got_a, got_b) = (std::fs::read(a.path(&name)), std::fs::read(b.path(&name)));
                assert_eq!(got_a.unwrap(), got_b.unwrap(), "{at}: {name}");
            }
        }
    });
}

#[test]
fn relabel_preserves_bfs_reachability_count() {
    use husgraph::algos::reference::bfs_levels;
    let what = "relabel_preserves_bfs_reachability_count";
    graph_cases(what, REPLAY, &recorded(), 8, (2..60, 0..250, 1..6), |rng, el, _, at| {
        let seed = rng.next();
        let relabeled = el.clone().relabel(seed);
        // Reachable-set *sizes* from corresponding sources must match.
        // Recover the permutation by relabeling the identity positions.
        let n = el.num_vertices;
        let mut probe = EdgeList::empty(n);
        probe.edges = (0..n.saturating_sub(1)).map(|v| Edge::new(v, v + 1)).collect();
        let probe_r = probe.clone().relabel(seed);
        // perm[v] = relabeled id of v, read off the probe's edges.
        let mut perm: Vec<u32> = (0..n).collect();
        for (orig, new) in probe.edges.iter().zip(&probe_r.edges) {
            perm[orig.src as usize] = new.src;
            perm[orig.dst as usize] = new.dst;
        }
        let csr_a = Csr::from_edge_list(el);
        let csr_b = Csr::from_edge_list(&relabeled);
        let src = 0u32;
        let ra = bfs_levels(&csr_a, src).iter().filter(|&&l| l != u32::MAX).count();
        let rb = bfs_levels(&csr_b, perm[src as usize]).iter().filter(|&&l| l != u32::MAX).count();
        assert_eq!(ra, rb, "{at}: relabel seed {seed:#x}");
    });
}
