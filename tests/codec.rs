//! Codec subsystem end-to-end tests: per-codec round-trips over the
//! workspace generators, bit-identical algorithm results between `raw`
//! and `delta-varint` builds, and the PR's acceptance criterion — a
//! full PageRank over an RMAT graph of >= 2^20 edges must read >= 30%
//! fewer shard bytes under delta-varint with bit-identical ranks.

use husgraph::algos::{PageRank, Wcc};
use husgraph::codec::Codec;
use husgraph::core::{
    BuildConfig, Engine, HusGraph, RunConfig, RunStats, UpdateMode, VertexProgram,
};
use husgraph::gen::{Edge, EdgeList, RmatConfig};
use husgraph::storage::{Access, StorageDir};

fn build(el: &EdgeList, p: u32, codec: Codec) -> (tempfile::TempDir, HusGraph) {
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p_codec(p, codec)).unwrap();
    (tmp, g)
}

/// Reconstruct the edge multiset through the out-blocks (decoded by
/// whatever codec the graph was built with).
fn edges_via_out_blocks(g: &HusGraph) -> Vec<Edge> {
    let mut edges = Vec::new();
    for i in 0..g.p() {
        let base = g.meta().interval_start(i);
        for j in 0..g.p() {
            let idx = g.load_out_index(i, j, Access::Sequential).unwrap();
            let recs = g.stream_out_block(i, j).unwrap();
            for v_local in 0..g.meta().interval_len(i) as usize {
                for k in idx[v_local]..idx[v_local + 1] {
                    edges.push(Edge::new(base + v_local as u32, recs.neighbor(k as usize)));
                }
            }
        }
    }
    edges
}

/// Same reconstruction through the in-blocks.
fn edges_via_in_blocks(g: &HusGraph) -> Vec<Edge> {
    let mut edges = Vec::new();
    for j in 0..g.p() {
        let base = g.meta().interval_start(j);
        for i in 0..g.p() {
            let idx = g.load_in_index(i, j, Access::Sequential).unwrap();
            let recs = g.stream_in_block(i, j).unwrap();
            for v_local in 0..g.meta().interval_len(j) as usize {
                for k in idx[v_local]..idx[v_local + 1] {
                    edges.push(Edge::new(recs.neighbor(k as usize), base + v_local as u32));
                }
            }
        }
    }
    edges
}

#[test]
fn every_generator_round_trips_under_every_codec() {
    let graphs: Vec<(&str, EdgeList, u32)> = vec![
        ("rmat", husgraph::gen::rmat(500, 4000, 3, RmatConfig::default()), 4),
        ("er-weighted", husgraph::gen::erdos_renyi(400, 3000, 5).with_hash_weights(0.5, 2.0), 4),
        ("chung-lu", husgraph::gen::chung_lu(350, 1200, 2.5, 9).symmetrize(), 3),
    ];
    for (name, el, p) in &graphs {
        let mut want = el.edges.clone();
        want.sort_unstable();
        for codec in Codec::ALL {
            let (_t, g) = build(el, *p, codec);
            assert_eq!(g.codec(), codec, "{name}");
            assert_eq!(g.meta().codec().unwrap(), codec, "{name}");
            let mut out = edges_via_out_blocks(&g);
            out.sort_unstable();
            assert_eq!(out, want, "{name}/{codec:?} via out-blocks");
            let mut inn = edges_via_in_blocks(&g);
            inn.sort_unstable();
            assert_eq!(inn, want, "{name}/{codec:?} via in-blocks");
            if let Some(weights) = &el.weights {
                let mut total = 0.0f64;
                for j in 0..g.p() {
                    for i in 0..g.p() {
                        let recs = g.stream_in_block(i, j).unwrap();
                        total += (0..recs.len()).map(|k| recs.weight(k) as f64).sum::<f64>();
                    }
                }
                let exact: f64 = weights.iter().map(|&w| w as f64).sum();
                assert!((total - exact).abs() < 1e-3, "{name}/{codec:?}: {total} vs {exact}");
            }
            match codec {
                // Raw is the identity: on-disk equals decoded.
                Codec::Raw => {
                    assert_eq!(g.meta().encoded_edge_bytes(), g.meta().decoded_edge_bytes())
                }
                // Interval-bounded neighbor ids make delta-varint a
                // guaranteed win at these sizes.
                Codec::DeltaVarint => {
                    assert!(
                        g.meta().encoded_edge_bytes() < g.meta().decoded_edge_bytes(),
                        "{name}: {} !< {}",
                        g.meta().encoded_edge_bytes(),
                        g.meta().decoded_edge_bytes()
                    )
                }
            }
        }
    }
}

fn run<Pr: VertexProgram>(
    g: &HusGraph,
    program: &Pr,
    mode: UpdateMode,
    max_iterations: usize,
) -> (Vec<Pr::Value>, RunStats) {
    let config = RunConfig { mode, max_iterations, threads: 2, ..Default::default() };
    Engine::new(g, program, config).run().unwrap()
}

#[test]
fn pagerank_is_bit_identical_across_codecs_and_cop_reads_fewer_bytes() {
    let el = husgraph::gen::rmat(2000, 16000, 29, RmatConfig::default());
    let (_t1, raw) = build(&el, 4, Codec::Raw);
    let (_t2, dv) = build(&el, 4, Codec::DeltaVarint);
    let pr = PageRank::new(el.num_vertices);

    // Hybrid runs: the codecs may legitimately disagree on ROP vs COP
    // (the predictor sees different on-disk bytes per edge) but the
    // ranks must match bit for bit — decoded blocks preserve record
    // order, so float accumulation order is identical.
    let (ranks_raw, _) = run(&raw, &pr, UpdateMode::Hybrid, 5);
    let (ranks_dv, _) = run(&dv, &pr, UpdateMode::Hybrid, 5);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&ranks_raw), bits(&ranks_dv), "hybrid ranks differ between codecs");

    // Forced-COP runs stream whole in-blocks, so the compressed build
    // must move strictly fewer bytes through the same iterations.
    let (cop_raw, stats_raw) = run(&raw, &pr, UpdateMode::ForceCop, 5);
    let (cop_dv, stats_dv) = run(&dv, &pr, UpdateMode::ForceCop, 5);
    assert_eq!(bits(&cop_raw), bits(&cop_dv));
    assert_eq!(stats_raw.num_iterations(), stats_dv.num_iterations());
    for (a, b) in stats_raw.iterations.iter().zip(&stats_dv.iterations) {
        assert_eq!(a.model, b.model, "iteration {}", a.iteration);
        assert_eq!(a.edges_processed, b.edges_processed, "iteration {}", a.iteration);
    }
    assert!(
        stats_dv.total_io.total_bytes() < stats_raw.total_io.total_bytes(),
        "delta-varint COP should read fewer bytes: {} !< {}",
        stats_dv.total_io.total_bytes(),
        stats_raw.total_io.total_bytes()
    );
}

#[test]
fn wcc_is_bit_identical_across_codecs_and_cop_reads_fewer_bytes() {
    let el = husgraph::gen::chung_lu(1500, 6000, 2.3, 31).symmetrize();
    let (_t1, raw) = build(&el, 4, Codec::Raw);
    let (_t2, dv) = build(&el, 4, Codec::DeltaVarint);

    let (labels_raw, _) = run(&raw, &Wcc, UpdateMode::Hybrid, 1000);
    let (labels_dv, _) = run(&dv, &Wcc, UpdateMode::Hybrid, 1000);
    assert_eq!(labels_raw, labels_dv, "hybrid WCC labels differ between codecs");

    let (cop_raw, stats_raw) = run(&raw, &Wcc, UpdateMode::ForceCop, 1000);
    let (cop_dv, stats_dv) = run(&dv, &Wcc, UpdateMode::ForceCop, 1000);
    assert_eq!(cop_raw, cop_dv);
    assert_eq!(labels_raw, cop_raw, "hybrid and COP disagree on the fixpoint");
    assert_eq!(stats_raw.num_iterations(), stats_dv.num_iterations());
    assert!(stats_dv.total_io.total_bytes() < stats_raw.total_io.total_bytes());
}

/// The PR's acceptance criterion: on an RMAT graph with >= 2^20 edges,
/// a full PageRank run under delta-varint reads >= 30% fewer shard
/// bytes than under raw, with bit-identical ranks. Byte savings are
/// accounted exactly: the two runs differ *only* in encoded shard
/// payload, so the gap in total I/O equals the gap in per-iteration
/// in-shard bytes times the iteration count.
#[test]
fn acceptance_rmat_2_20_pagerank_saves_thirty_percent_shard_bytes() {
    // dedup off: the criterion is on the edge count, so keep all 2^20.
    let el = husgraph::gen::rmat(
        1 << 17,
        1 << 20,
        42,
        RmatConfig { dedup: false, ..Default::default() },
    );
    assert!(el.edges.len() >= 1 << 20);
    // Explicit P = 8: auto-selection is not under test here.
    let (_t1, raw) = build(&el, 8, Codec::Raw);
    let (_t2, dv) = build(&el, 8, Codec::DeltaVarint);
    let pr = PageRank::new(el.num_vertices);
    let iters = 4;

    let (ranks_raw, stats_raw) = run(&raw, &pr, UpdateMode::ForceCop, iters);
    let (ranks_dv, stats_dv) = run(&dv, &pr, UpdateMode::ForceCop, iters);
    assert_eq!(stats_raw.num_iterations(), iters);
    assert_eq!(stats_dv.num_iterations(), iters);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&ranks_raw), bits(&ranks_dv), "ranks must be bit-identical");

    // Shard bytes per COP iteration: every in-block streamed once, at
    // its encoded size.
    let in_shard_bytes = |g: &HusGraph| -> u64 {
        (0..8)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| g.meta().in_block(i, j).encoded_bytes)
            .sum()
    };
    let shard_raw = iters as u64 * in_shard_bytes(&raw);
    let shard_dv = iters as u64 * in_shard_bytes(&dv);
    assert!(
        shard_dv * 10 <= shard_raw * 7,
        ">= 30% shard-byte saving required: dv {shard_dv} vs raw {shard_raw}"
    );

    // Exact accounting: everything else the runs read (indices,
    // degrees, vertex values) is codec-independent, so the total-I/O
    // gap is exactly the shard-byte gap.
    let (total_raw, total_dv) = (stats_raw.total_io.total_bytes(), stats_dv.total_io.total_bytes());
    assert_eq!(
        total_raw - total_dv,
        shard_raw - shard_dv,
        "I/O gap must be fully explained by encoded shard payload"
    );
    assert!(
        10 * (total_raw - total_dv) >= 3 * shard_raw,
        "whole-run saving should also clear 30% of shard traffic"
    );
}
