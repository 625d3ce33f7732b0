//! Algorithm-level invariants checked on engine output (not just
//! equality with references): structural facts that must hold for *any*
//! correct BFS/SSSP/WCC/PageRank, probed on generated graphs.
//!
//! Each property runs [`recorded`] first when its bounds admit it, then
//! its generated cases from a logged seed; a failure names its case,
//! and putting the logged seed into [`REPLAY`] reruns the same cases.

mod common;

use common::graph_cases;
use husgraph::algos::{Bfs, PageRank, Sssp, Wcc, UNREACHED};
use husgraph::core::{BuildConfig, Engine, HusGraph, RunConfig};
use husgraph::gen::{Csr, EdgeList};
use husgraph::storage::StorageDir;

/// Replay a failure by putting its logged seed here.
const REPLAY: Option<u64> = None;

/// A case once recorded as failing: 136 edges over 49 vertices, built
/// with P 4.
fn recorded() -> (EdgeList, u32) {
    #[rustfmt::skip]
    const EDGES: [(u32, u32); 136] = [
        (22, 41), (18, 3), (32, 28), (26, 31), (46, 12), (43, 27), (22, 11), (26, 34), (34, 26),
        (7, 32), (46, 43), (46, 37), (16, 5), (0, 30), (35, 12), (18, 4), (20, 31), (4, 18),
        (26, 8), (0, 18), (44, 12), (12, 48), (35, 21), (38, 44), (9, 12), (47, 36), (22, 11),
        (27, 47), (6, 11), (9, 6), (31, 24), (30, 37), (38, 36), (20, 16), (20, 48), (10, 12),
        (44, 17), (38, 34), (43, 12), (1, 44), (8, 31), (18, 7), (34, 32), (36, 35), (24, 36),
        (34, 47), (6, 25), (24, 19), (48, 36), (3, 4), (28, 26), (3, 5), (13, 48), (22, 6),
        (34, 16), (44, 7), (33, 44), (13, 3), (7, 45), (17, 8), (1, 24), (4, 18), (41, 31), (36, 4),
        (44, 39), (40, 5), (39, 30), (33, 44), (36, 34), (26, 32), (1, 28), (29, 12), (38, 9),
        (13, 27), (28, 40), (31, 35), (37, 27), (14, 23), (28, 21), (44, 18), (33, 5), (26, 7),
        (8, 44), (18, 35), (24, 7), (17, 47), (39, 30), (39, 45), (31, 33), (15, 12), (30, 14),
        (21, 22), (29, 34), (20, 2), (39, 47), (9, 16), (14, 41), (21, 36), (26, 31), (43, 42),
        (34, 16), (35, 0), (3, 43), (37, 46), (35, 45), (40, 23), (9, 12), (30, 43), (44, 8),
        (18, 48), (46, 4), (7, 30), (31, 43), (14, 21), (1, 4), (38, 24), (35, 41), (8, 14),
        (44, 43), (34, 11), (30, 15), (36, 46), (7, 25), (30, 11), (30, 39), (22, 6), (16, 20),
        (13, 26), (29, 28), (30, 37), (33, 37), (18, 14), (36, 44), (5, 20), (33, 11), (47, 10),
    ];
    (EdgeList { num_vertices: 49, ..EdgeList::from_pairs(EDGES) }, 4)
}

fn build(el: &EdgeList, p: u32) -> (tempfile::TempDir, HusGraph) {
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p(p)).unwrap();
    (tmp, g)
}

/// BFS levels satisfy the edge relaxation property:
/// `level[dst] <= level[src] + 1` for every edge with reached src,
/// and every reached non-source vertex has an in-neighbor exactly
/// one level shallower (a valid BFS tree exists).
#[test]
fn bfs_levels_are_tight() {
    let what = "bfs_levels_are_tight";
    graph_cases(what, REPLAY, &recorded(), 12, (3..60, 1..300, 1..5), |_, el, p, at| {
        let (_t, g) = build(el, p);
        let (levels, _) = Engine::new(&g, &Bfs::new(0), RunConfig::default()).run().unwrap();
        for e in &el.edges {
            let (ls, ld) = (levels[e.src as usize], levels[e.dst as usize]);
            if ls != UNREACHED {
                assert!(ld != UNREACHED && ld <= ls + 1, "{at}: edge {e:?}: {ls} -> {ld}");
            }
        }
        let csr = Csr::from_edge_list(el);
        for v in 0..el.num_vertices {
            let l = levels[v as usize];
            if v == 0 || l == UNREACHED {
                continue;
            }
            let has_parent = csr
                .in_neighbors(v)
                .iter()
                .any(|&u| levels[u as usize] != UNREACHED && levels[u as usize] + 1 == l);
            assert!(has_parent, "{at}: vertex {v} at level {l} has no parent");
        }
    });
}

/// SSSP distances satisfy the triangle inequality over every edge and
/// are realized by some in-edge (each reached vertex's distance is
/// exactly an in-neighbor's distance plus the edge weight).
#[test]
fn sssp_distances_are_tight() {
    let what = "sssp_distances_are_tight";
    graph_cases(what, REPLAY, &recorded(), 12, (3..50, 1..250, 1..5), |_, el, p, at| {
        let el = el.clone().with_hash_weights(0.5, 2.0);
        let (_t, g) = build(&el, p);
        let (dist, _) = Engine::new(&g, &Sssp::new(0), RunConfig::default()).run().unwrap();
        let csr = Csr::from_edge_list(&el);
        for v in 0..el.num_vertices {
            let ws = csr.out_edge_weights(v);
            for (k, &w) in csr.out_neighbors(v).iter().enumerate() {
                let lhs = dist[w as usize];
                let rhs = dist[v as usize] + ws[k];
                assert!(
                    lhs <= rhs + 1e-4,
                    "{at}: edge {v}->{w}: {lhs} > {} + {}",
                    dist[v as usize],
                    ws[k]
                );
            }
        }
        for v in 1..el.num_vertices {
            let d = dist[v as usize];
            if !d.is_finite() {
                continue;
            }
            let ws = csr.in_edge_weights(v);
            let realized = csr
                .in_neighbors(v)
                .iter()
                .enumerate()
                .any(|(k, &u)| (dist[u as usize] + ws[k] - d).abs() <= 1e-4 * d.max(1.0));
            assert!(realized, "{at}: vertex {v} distance {d} realized by no in-edge");
        }
    });
}

/// WCC labels on a symmetrized graph: endpoints of every edge share a
/// label, every label is the minimum id of its member set, and labels
/// are themselves members of their own component.
#[test]
fn wcc_labels_are_consistent() {
    let what = "wcc_labels_are_consistent";
    graph_cases(what, REPLAY, &recorded(), 12, (3..50, 1..200, 1..5), |_, el, p, at| {
        let el = el.clone().symmetrize();
        let (_t, g) = build(&el, p);
        let (labels, _) = Engine::new(&g, &Wcc, RunConfig::default()).run().unwrap();
        for e in &el.edges {
            assert_eq!(labels[e.src as usize], labels[e.dst as usize], "{at}: edge {e:?}");
        }
        for (v, &l) in labels.iter().enumerate() {
            assert!(l <= v as u32, "{at}: label {l} exceeds member id {v}");
            assert_eq!(labels[l as usize], l, "{at}: label {l} is not its own root");
        }
    });
}

/// PageRank: every rank is at least the teleport term, total rank is
/// bounded by 1, and rank mass is conserved exactly on graphs where
/// every vertex has an out-edge.
#[test]
fn pagerank_mass_properties() {
    let what = "pagerank_mass_properties";
    graph_cases(what, REPLAY, &recorded(), 12, (3..40, 1..300, 1..4), |_, el, p, at| {
        // Ensure no dangling vertices: add a cycle over all vertices.
        let n = el.num_vertices;
        let mut el = el.clone();
        for v in 0..n {
            el.edges.push(husgraph::gen::Edge::new(v, (v + 1) % n));
        }
        let el = el.dedup();
        let (_t, g) = build(&el, p);
        let pr = PageRank::new(n);
        let config = RunConfig { max_iterations: 5, ..Default::default() };
        let (ranks, _) = Engine::new(&g, &pr, config).run().unwrap();
        let base = 0.15 / n as f32;
        let total: f32 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "{at}: mass {total}");
        for (v, &r) in ranks.iter().enumerate() {
            assert!(r >= base * 0.999, "{at}: vertex {v} rank {r} below teleport {base}");
        }
    });
}

/// The engine's per-iteration statistics are internally consistent:
/// iteration indices are dense, frontier counts match what the
/// algorithm reports, and the per-iteration I/O deltas sum to the
/// run's total.
#[test]
fn run_stats_are_internally_consistent() {
    let what = "run_stats_are_internally_consistent";
    graph_cases(what, REPLAY, &recorded(), 12, (3..60, 1..250, 1..5), |_, el, p, at| {
        let (_t, g) = build(el, p);
        let (_, stats) = Engine::new(&g, &Bfs::new(0), RunConfig::default()).run().unwrap();
        for (k, it) in stats.iterations.iter().enumerate() {
            assert_eq!(it.iteration, k, "{at}");
            assert!(it.active_vertices > 0, "{at}: empty frontier must terminate");
        }
        let summed = stats
            .iterations
            .iter()
            .fold(husgraph::storage::IoSnapshot::default(), |acc, it| acc.plus(&it.io));
        // Total includes vertex-store setup, so it dominates the sum.
        assert!(summed.total_bytes() <= stats.total_io.total_bytes(), "{at}");
        let edges: u64 = stats.iterations.iter().map(|it| it.edges_processed).sum();
        assert_eq!(edges, stats.edges_processed, "{at}");
    });
}
