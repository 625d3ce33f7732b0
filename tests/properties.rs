//! Property-based tests over the core invariants:
//!
//! * the dual-block representation is a lossless re-encoding of any edge
//!   list (both directions),
//! * push (ROP), pull (COP), the hybrid, and the per-column schedule are
//!   observationally equivalent for min-propagation programs on random
//!   graphs,
//! * the predictor's ROP plan is monotone in the frontier and its COP
//!   plan independent of it,
//! * interval partitioning always covers `[0, V)` exactly.

use husgraph::algos::{reference, Bfs, Wcc};
use husgraph::core::partition::{interval_of, interval_starts, PartitionStrategy};
use husgraph::core::predict::Predictor;
use husgraph::core::{BuildConfig, Engine, HusGraph, RunConfig, UpdateMode};
use husgraph::gen::{Csr, Edge, EdgeList};
use husgraph::storage::{Access, StorageDir, Throughput};
use proptest::prelude::*;

fn arb_edge_list(max_v: u32, max_e: usize) -> impl Strategy<Value = EdgeList> {
    (2..max_v).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_e).prop_map(move |pairs| {
            let mut el = EdgeList::from_pairs(pairs);
            el.num_vertices = n;
            el
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dual_block_roundtrips_any_edge_list(el in arb_edge_list(80, 500), p in 1u32..9) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(p)).unwrap();
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
        prop_assert_eq!(&via_out, &want);
        prop_assert_eq!(&via_in, &want);
    }

    #[test]
    fn all_execution_strategies_agree_on_bfs(el in arb_edge_list(60, 300), p in 1u32..6) {
        let want = reference::bfs_levels(&Csr::from_edge_list(&el), 0);
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(p)).unwrap();
        for (mode, threads) in [
            (UpdateMode::ForceRop, 1),
            (UpdateMode::ForceCop, 1),
            (UpdateMode::Hybrid, 1),
            (UpdateMode::Hybrid, 2),
        ] {
            let config = RunConfig { mode, threads, ..Default::default() };
            let (got, stats) = Engine::new(&g, &Bfs::new(0), config).run().unwrap();
            prop_assert!(stats.converged);
            prop_assert_eq!(&got, &want);
            // One model per iteration: every unit pushes, or every unit pulls.
            for it in &stats.iterations {
                prop_assert!(it.rop_units == 0 || it.cop_units == 0, "{mode:?}: {it:?}");
            }
        }
    }

    #[test]
    fn wcc_on_symmetrized_graph_matches_union_find(el in arb_edge_list(50, 200), p in 1u32..5) {
        let el = el.symmetrize();
        let want = reference::wcc_labels(&Csr::from_edge_list(&el));
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(p)).unwrap();
        let (got, _) = Engine::new(&g, &Wcc, RunConfig::default()).run().unwrap();
        prop_assert_eq!(&got, &want);
    }

    #[test]
    fn interval_partition_covers_exactly(n in 1u32..5000, p in 1u32..64) {
        let starts = interval_starts(n, p, PartitionStrategy::EqualVertices, &[]);
        prop_assert_eq!(starts.len(), p as usize + 1);
        prop_assert_eq!(starts[0], 0);
        prop_assert_eq!(*starts.last().unwrap(), n);
        prop_assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        // Every vertex belongs to exactly the interval interval_of says.
        for v in (0..n).step_by((n as usize / 50).max(1)) {
            let i = interval_of(&starts, v);
            prop_assert!(starts[i] <= v && v < starts[i + 1]);
        }
    }

    #[test]
    fn balanced_partition_covers_exactly(
        degrees in proptest::collection::vec(0u32..50, 1..400),
        p in 1u32..16,
    ) {
        let n = degrees.len() as u32;
        let starts = interval_starts(n, p, PartitionStrategy::BalancedOutDegree, &degrees);
        prop_assert_eq!(starts.len(), p as usize + 1);
        prop_assert_eq!(starts[0], 0);
        prop_assert_eq!(*starts.last().unwrap(), n);
        prop_assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn predictor_plans_are_monotone_in_the_frontier(
        el in arb_edge_list(80, 500),
        p in 1u32..6,
        small in proptest::collection::btree_set(0u32..80, 0..20),
        extra in proptest::collection::btree_set(0u32..80, 1..20),
    ) {
        use husgraph::core::rop::{self, Frontier, IterCtx};
        use husgraph::core::{cop, ActiveSet, UpdateModel};
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(p)).unwrap();
        let n = el.num_vertices;
        // Batched no faster than random: run merging is off, so adding
        // an active vertex can only add cost (with merging on, a vertex
        // that bridges two singleton ranges rightly makes both cheaper).
        let tput = Throughput { sequential_bps: 120e6, random_bps: 1e6, batched_bps: 1e6 };
        let program = Bfs::new(0);
        let c_rop = |frontier: &std::collections::BTreeSet<u32>| {
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
        prop_assert!(dense.total_bytes() >= sparse.total_bytes(), "{sparse:?} vs {dense:?}");
        prop_assert!(dense.seconds(&tput) >= sparse.seconds(&tput), "{sparse:?} vs {dense:?}");
        // C_cop never sees the frontier: one plan per run. So decisions
        // flip at most once along the density axis.
        let sweep = cop::sweep_plan(&g, 4);
        let pred = Predictor::new(tput, 4.0, 4);
        if pred.compare(&sparse, &sweep).model == UpdateModel::Cop {
            prop_assert_eq!(pred.compare(&dense, &sweep).model, UpdateModel::Cop);
        }
    }

    #[test]
    fn active_set_iter_matches_membership(
        bits in proptest::collection::btree_set(0u32..500, 0..80),
    ) {
        let set = husgraph::core::ActiveSet::new(500);
        for &b in &bits {
            set.set(b);
        }
        let collected: Vec<u32> = set.iter().collect();
        let want: Vec<u32> = bits.iter().copied().collect();
        prop_assert_eq!(collected, want);
        prop_assert_eq!(set.count(), bits.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn external_builder_matches_in_memory_builder(
        el in arb_edge_list(60, 250),
        p in 1u32..6,
    ) {
        use husgraph::core::{build, build_external, BuildConfig, ListSource};
        let tmp = tempfile::tempdir().unwrap();
        let a = StorageDir::create(tmp.path().join("a")).unwrap();
        let b = StorageDir::create(tmp.path().join("b")).unwrap();
        let cfg = BuildConfig { p: Some(p), ..Default::default() };
        let meta_a = build(&el, &a, &cfg).unwrap();
        let meta_b = build_external(&ListSource(&el), &b, &cfg).unwrap();
        prop_assert_eq!(&meta_a, &meta_b);
        // The builders clamp P to the vertex count; iterate what was built.
        for i in 0..meta_a.p as usize {
            for name in [
                husgraph::core::GraphMeta::out_edges_file(i),
                husgraph::core::GraphMeta::out_index_file(i),
                husgraph::core::GraphMeta::in_edges_file(i),
                husgraph::core::GraphMeta::in_index_file(i),
            ] {
                prop_assert_eq!(
                    std::fs::read(a.path(&name)).unwrap(),
                    std::fs::read(b.path(&name)).unwrap(),
                    "{}", name
                );
            }
        }
    }

    #[test]
    fn relabel_preserves_bfs_reachability_count(
        el in arb_edge_list(60, 250),
        seed in any::<u64>(),
    ) {
        use husgraph::algos::reference::bfs_levels;
        if el.num_vertices == 0 { return Ok(()); }
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
        let csr_a = Csr::from_edge_list(&el);
        let csr_b = Csr::from_edge_list(&relabeled);
        let src = 0u32;
        let ra = bfs_levels(&csr_a, src).iter().filter(|&&l| l != u32::MAX).count();
        let rb = bfs_levels(&csr_b, perm[src as usize]).iter().filter(|&&l| l != u32::MAX).count();
        prop_assert_eq!(ra, rb);
    }
}
