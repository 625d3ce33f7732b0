//! The sparse block index against its ground truth, over generated
//! graphs and fixed corner cases.
//!
//! For every case both builders write the directory, which must come
//! out byte-identical; then the dense view of every block's index must
//! equal the offsets derived from an in-memory CSR, every vertex's
//! probe must name the same records as the dense view, BFS, SSSP and
//! PageRank under ROP, COP and the hybrid must equal the reference
//! implementations, and COP's sweep plan must be its bill to the byte.
//!
//! The overlay leg applies generated inserts and deletes through
//! [`DynamicGraph`] — some in flushed delta runs, some left in the
//! memtable — and requires every block the snapshot serves to equal the
//! same block of a fresh build of the final edge set, probes included,
//! before running the same algorithm checks.
//!
//! The generated cases come from a logged seed; a failure prints it,
//! and pasting it into [`REPLAY`] reruns the same cases.

mod common;

use common::SplitMix;
use husgraph::algos::{reference, Bfs, PageRank, Sssp};
use husgraph::codec::Codec;
use husgraph::core::predict::IoPlan;
use husgraph::core::{
    build, build_external, cop, BuildConfig, DynamicGraph, Engine, HusGraph, ListSource,
    Orientation, RunConfig, UpdateMode, VertexProgram,
};
use husgraph::gen::{Csr, Edge, EdgeList};
use husgraph::storage::{Access, StorageDir};
use std::collections::BTreeMap;

/// Replay a failure by putting its logged seed here.
const REPLAY: Option<u64> = None;

struct Case {
    what: String,
    el: EdgeList,
    p: u32,
    codec: Codec,
}

impl Case {
    fn new(what: impl Into<String>, el: EdgeList, p: u32, codec: Codec) -> Self {
        Case { what: format!("{} (P {p}, {codec:?})", what.into()), el, p, codec }
    }
}

/// Every file of a built directory, by name.
fn files(dir: &StorageDir) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir.root())
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap()))
        .collect();
    out.sort();
    out
}

/// The dense offsets of `o`-block `(i, j)` derived from the CSR: entry
/// `k` counts the records of the interval's vertices before local `k`.
fn csr_offsets(csr: &Csr, starts: &[u32], o: Orientation, (i, j): (usize, usize)) -> Vec<u32> {
    let (own, other) = o.orient(i, j);
    let neighbors = |v| match o {
        Orientation::Out => csr.out_neighbors(v),
        Orientation::In => csr.in_neighbors(v),
    };
    let mut offsets = vec![0u32];
    for v in starts[own]..starts[own + 1] {
        let inside = neighbors(v).iter().filter(|&&w| w >= starts[other] && w < starts[other + 1]);
        offsets.push(offsets.last().unwrap() + inside.count() as u32);
    }
    offsets
}

/// A record range with every empty range written `(0, 0)`: an
/// unoccupied vertex's probe names no position.
fn records_named((lo, hi): (u32, u32)) -> (u32, u32) {
    if lo < hi {
        (lo, hi)
    } else {
        (0, 0)
    }
}

fn run<Pr: VertexProgram>(
    g: &HusGraph,
    program: &Pr,
    mode: UpdateMode,
    iterations: usize,
) -> (Vec<Pr::Value>, husgraph::core::RunStats) {
    let config = RunConfig { max_iterations: iterations, threads: 2, ..RunConfig::with_mode(mode) };
    Engine::new(g, program, config).run().unwrap()
}

fn check(case: &Case, source: u32) {
    let what = &case.what;
    let tmp = tempfile::tempdir().unwrap();
    let mem = StorageDir::create(tmp.path().join("mem")).unwrap();
    let ext = StorageDir::create(tmp.path().join("ext")).unwrap();
    let config = BuildConfig::with_p_codec(case.p, case.codec);
    build(&case.el, &mem, &config).unwrap();
    build_external(&ListSource(&case.el), &ext, &config).unwrap();
    assert!(files(&mem) == files(&ext), "{what}: the builders wrote different bytes");

    let g = HusGraph::open(mem.clone()).unwrap();
    let meta = g.meta().clone();
    let csr = Csr::from_edge_list(&case.el);
    let p = g.p();
    for i in 0..p {
        for j in 0..p {
            for o in Orientation::BOTH {
                let dense = match o {
                    Orientation::Out => g.load_out_index(i, j, Access::Sequential).unwrap(),
                    Orientation::In => g.load_in_index(i, j, Access::Sequential).unwrap(),
                };
                let want = csr_offsets(&csr, &meta.interval_starts, o, (i, j));
                assert_eq!(dense, want, "{what}: {}-block ({i}, {j})", o.name());
                let block = meta.block(o, i, j);
                let occupied = want.windows(2).filter(|w| w[0] < w[1]).count() as u64;
                assert_eq!(block.occupied, occupied, "{what}: {}-block ({i}, {j})", o.name());
            }
            let dense = g.load_out_index(i, j, Access::Sequential).unwrap();
            let locals: Vec<usize> = (0..meta.interval_len(i) as usize).collect();
            let probed = g.load_out_index_entries(i, j, &locals).unwrap();
            for (&l, got) in locals.iter().zip(probed) {
                let want = records_named((dense[l], dense[l + 1]));
                assert_eq!(records_named(got), want, "{what}: out-block ({i}, {j}) vertex {l}");
            }
            let mut occupied = locals.clone();
            g.retain_out_occupied(i, j, &mut occupied);
            let with_edges = locals.into_iter().filter(|&l| dense[l] < dense[l + 1]);
            assert!(occupied.into_iter().eq(with_edges), "{what}: out-block ({i}, {j})");
        }
    }
    check_runs(&g, &csr, source, what);
}

/// BFS, SSSP and PageRank from `source` under ROP, COP and the hybrid
/// equal the reference implementations over `csr`, and every COP
/// iteration bills exactly the sweep plan.
fn check_runs(g: &HusGraph, csr: &Csr, source: u32, what: &str) {
    let levels = reference::bfs_levels(csr, source);
    let distances = reference::sssp_distances(csr, source);
    let ranks = reference::pagerank(csr, 0.85, 5);
    let sweep = cop::sweep_plan(g, 4);
    for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop, UpdateMode::Hybrid] {
        let at = format!("{what}: {mode:?}");
        assert_eq!(run(g, &Bfs::new(source), mode, 10_000).0, levels, "{at}: BFS");
        let (got, _) = run(g, &Sssp::new(source), mode, 10_000);
        for (v, (g, w)) in got.iter().zip(&distances).enumerate() {
            let same = (g.is_infinite() && w.is_infinite()) || (g - w).abs() <= 1e-4 * w.max(1.0);
            assert!(same, "{at}: SSSP vertex {v}: {g} vs {w}");
        }
        let (got, stats) = run(g, &PageRank::new(g.meta().num_vertices), mode, 5);
        for (v, (g, w)) in got.iter().zip(&ranks).enumerate() {
            assert!((g - w).abs() <= 1e-3 * w.max(1e-6), "{at}: PageRank vertex {v}: {g} vs {w}");
        }
        if mode == UpdateMode::ForceCop {
            for it in &stats.iterations {
                assert_eq!(IoPlan::billed(&it.io), sweep, "{at}: iteration {}", it.iteration);
            }
        }
    }
}

/// The fixed cases: an empty graph, one partition, intervals that end
/// inside a bitmap word, a cycle whose one block is fully occupied, a
/// small-world graph whose off-diagonal blocks are nearly empty, and
/// weighted records under both codecs.
fn fixed_cases() -> Vec<Case> {
    let rmat = |n, m, seed| husgraph::gen::rmat(n, m, seed, Default::default());
    let mut cases = vec![
        Case::new("empty graph", EdgeList::empty(5), 1, Codec::Raw),
        Case::new("empty graph", EdgeList::empty(200), 3, Codec::DeltaVarint),
        Case::new("rmat, one partition", rmat(700, 5000, 3), 1, Codec::Raw),
        Case::new("rmat, 333-vertex intervals", rmat(1000, 8000, 4), 3, Codec::Raw),
        Case::new("cycle: every block full", husgraph::gen::classic::cycle(130), 1, Codec::Raw),
    ];
    for codec in [Codec::Raw, Codec::DeltaVarint] {
        let ws = husgraph::gen::watts_strogatz(2000, 4, 0.01, 5);
        cases.push(Case::new("small world", ws, 8, codec));
        let weighted = rmat(600, 4000, 6).with_hash_weights(0.5, 4.0);
        cases.push(Case::new("weighted rmat", weighted, 4, codec));
    }
    cases
}

#[test]
fn fixed_cases_match_the_csr_and_the_reference() {
    for case in fixed_cases() {
        check(&case, case.el.num_vertices / 3);
    }
    // The small-world case is the shape the index is for: blocks off the
    // diagonal hold a few rewired edges, those on it nearly every
    // vertex; the cycle's one block holds every vertex.
    let occupancy = |el: &EdgeList, p: u32| {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let meta = build(el, &dir, &BuildConfig::with_p(p)).unwrap();
        let p = p as usize;
        let share =
            |i: usize, j: usize| meta.out_block(i, j).occupied as f64 / meta.interval_len(i) as f64;
        (0..p).flat_map(|i| (0..p).map(move |j| (i, j, share(i, j)))).collect::<Vec<_>>()
    };
    let ws = occupancy(&husgraph::gen::watts_strogatz(2000, 4, 0.01, 5), 8);
    assert!(ws.iter().all(|&(i, j, share)| (i == j) == (share > 0.95)), "{ws:?}");
    assert!(ws.iter().all(|&(i, j, share)| i == j || share < 0.05), "{ws:?}");
    assert_eq!(occupancy(&husgraph::gen::classic::cycle(130), 1), [(0, 0, 1.0)]);
}

#[test]
fn generated_cases_match_the_csr_and_the_reference() {
    let mut rng = SplitMix::logged("sparse index differential", REPLAY);
    let seed = rng.0;
    for k in 0..8 {
        let n = rng.range(4, 1500) as u32;
        let m = rng.range(0, 8 * n as u64) as usize;
        let family = rng.range(0, 3);
        let graph_seed = rng.next();
        let mut el = match family {
            0 => husgraph::gen::rmat(n, m, graph_seed, Default::default()),
            1 => husgraph::gen::erdos_renyi(n, m, graph_seed),
            _ => {
                let k = rng.range(1, (n as u64 / 2).clamp(2, 6)) as u32;
                husgraph::gen::watts_strogatz(n, k, 0.02, graph_seed)
            }
        };
        if rng.next().is_multiple_of(2) {
            el = el.with_hash_weights(0.1, 5.0);
        }
        let p = rng.range(1, 10.min(n as u64) + 1) as u32;
        let codec = if rng.next().is_multiple_of(2) { Codec::Raw } else { Codec::DeltaVarint };
        let source = rng.range(0, n as u64) as u32;
        let what = format!("seed {seed:#x} case {k}: family {family}, {n} vertices, {m} edges");
        check(&Case::new(what, el, p, codec), source);
    }
}

/// One update: `(src, dst, Some(weight))` inserts, `(src, dst, None)`
/// deletes.
type Update = (u32, u32, Option<f32>);

/// `el` with `updates` applied, newest wins: the last update of a key
/// replaces every record of it, duplicates included, and untouched
/// records keep their order.
fn apply(el: &EdgeList, updates: &[Update]) -> EdgeList {
    let newest: BTreeMap<(u32, u32), Option<f32>> =
        updates.iter().map(|&(src, dst, w)| ((src, dst), w)).collect();
    let weight = |k: usize| el.weights.as_ref().map_or(1.0, |w| w[k]);
    let kept = (el.edges.iter().enumerate())
        .filter(|(_, e)| !newest.contains_key(&(e.src, e.dst)))
        .map(|(k, &e)| (e, weight(k)));
    let put = newest.iter().filter_map(|(&(src, dst), &w)| Some((Edge::new(src, dst), w?)));
    let (edges, weights): (Vec<Edge>, Vec<f32>) = kept.chain(put).unzip();
    EdgeList {
        num_vertices: el.num_vertices,
        edges,
        weights: el.weights.is_some().then_some(weights),
    }
}

/// Apply `updates` to `case`'s graph through [`DynamicGraph`] — three
/// quarters in three flushed delta runs, the last quarter left in the
/// memtable — and require the snapshot to serve, block by block, what a
/// fresh build of the final edge set holds: record counts, index
/// entries, dense offsets, records, every vertex's probe and occupancy.
/// A vertex without records in an overlay block must probe as `(0, 0)`,
/// as it does in a base block. Then run the algorithm checks on it.
fn check_overlay(case: &Case, updates: &[Update], source: u32) {
    let what = &case.what;
    let tmp = tempfile::tempdir().unwrap();
    let live = StorageDir::create(tmp.path().join("live")).unwrap();
    let fresh = StorageDir::create(tmp.path().join("fresh")).unwrap();
    let config = BuildConfig::with_p_codec(case.p, case.codec);
    build(&case.el, &live, &config).unwrap();
    let final_el = apply(&case.el, updates);
    build(&final_el, &fresh, &config).unwrap();
    let want = HusGraph::open(fresh).unwrap();

    let mut dg = DynamicGraph::open(live).unwrap();
    for (k, batch) in updates.chunks(updates.len().div_ceil(4).max(1)).enumerate() {
        for &(src, dst, op) in batch {
            match op {
                Some(w) => dg.insert_edge(src, dst, w).unwrap(),
                None => dg.delete_edge(src, dst).unwrap(),
            }
        }
        if k < 3 {
            dg.flush().unwrap();
        }
    }
    let g = dg.snapshot().unwrap();
    assert_eq!(g.num_edges(), want.num_edges(), "{what}");
    assert_eq!(g.out_degrees(), want.out_degrees(), "{what}");
    let records = |recs: husgraph::core::graph::EdgeRecords| {
        recs.into_iter().map(|(v, w)| (v, w.to_bits())).collect::<Vec<_>>()
    };
    let p = g.p();
    for i in 0..p {
        for j in 0..p {
            let at = format!("{what}: block ({i}, {j})");
            assert_eq!(g.out_block_len(i, j), want.out_block_len(i, j), "{at}");
            assert_eq!(g.in_block_len(i, j), want.in_block_len(i, j), "{at}");
            for o in Orientation::BOTH {
                assert_eq!(g.index_entries(o, i, j), want.index_entries(o, i, j), "{at}: {o:?}");
            }
            let dense = g.load_out_index(i, j, Access::Sequential).unwrap();
            assert_eq!(dense, want.load_out_index(i, j, Access::Sequential).unwrap(), "{at}");
            let dense_in = g.load_in_index(i, j, Access::Sequential).unwrap();
            assert_eq!(dense_in, want.load_in_index(i, j, Access::Sequential).unwrap(), "{at}");
            let (out, want_out) = (g.stream_out_block(i, j), want.stream_out_block(i, j));
            assert_eq!(records(out.unwrap()), records(want_out.unwrap()), "{at}: out");
            let (inb, want_in) = (g.stream_in_block(i, j), want.stream_in_block(i, j));
            assert_eq!(records(inb.unwrap()), records(want_in.unwrap()), "{at}: in");

            let locals: Vec<usize> = (0..g.meta().interval_len(i) as usize).collect();
            let probed = g.load_out_index_entries(i, j, &locals).unwrap();
            assert_eq!(probed, want.load_out_index_entries(i, j, &locals).unwrap(), "{at}");
            let mut occupied = locals.clone();
            g.retain_out_occupied(i, j, &mut occupied);
            let mut want_occupied = locals.clone();
            want.retain_out_occupied(i, j, &mut want_occupied);
            assert_eq!(occupied, want_occupied, "{at}");
            for (l, range) in locals.into_iter().zip(probed) {
                let empty = dense[l] == dense[l + 1];
                assert_eq!(empty, occupied.binary_search(&l).is_err(), "{at}: vertex {l}");
                if empty {
                    assert_eq!(range, (0, 0), "{at}: unoccupied vertex {l}");
                }
            }
        }
    }
    assert!(g.resident_index_bytes() > want.resident_index_bytes(), "{what}");
    check_runs(g, &Csr::from_edge_list(&final_el), source, what);
}

#[test]
fn generated_overlays_match_a_fresh_build_and_the_reference() {
    let mut rng = SplitMix::logged("sparse index overlay", REPLAY);
    let seed = rng.0;
    for k in 0..6 {
        let n = rng.range(4, 1200) as u32;
        let m = rng.range(0, 6 * n as u64) as usize;
        let graph_seed = rng.next();
        let mut el = match rng.range(0, 2) {
            0 => husgraph::gen::rmat(n, m, graph_seed, Default::default()),
            _ => husgraph::gen::erdos_renyi(n, m, graph_seed),
        };
        if rng.next().is_multiple_of(2) {
            // Duplicate base edges: an update supersedes every copy.
            let copies: Vec<Edge> = el.edges.iter().step_by(5).copied().collect();
            el.edges.extend(copies);
        }
        if rng.next().is_multiple_of(2) {
            // Weights that tell duplicates apart, so their order shows.
            el.weights = Some((0..el.edges.len()).map(|k| 0.1 + (k % 50) as f32 * 0.1).collect());
        }
        // P 1 and 8 always, the rest drawn from 1..=8; both codecs.
        let p = [1, 8].get(k).copied().unwrap_or_else(|| rng.range(1, 9)).min(n as u64) as u32;
        let codec = if k % 2 == 0 { Codec::Raw } else { Codec::DeltaVarint };
        // Deletes of base edges and of random keys, inserts of new keys
        // and weight updates of base edges.
        let base_edge = |r: u64| el.edges.get(r as usize % el.edges.len().max(1)).copied();
        let updates: Vec<Update> = (0..rng.range(1, 2 * m as u64 + 40))
            .map(|u| {
                let (r, key) = (rng.next(), (rng.range(0, n as u64), rng.range(0, n as u64)));
                let random = (key.0 as u32, key.1 as u32);
                let (src, dst) = match r % 4 {
                    0 | 1 => base_edge(r >> 8).map_or(random, |e| (e.src, e.dst)),
                    _ => random,
                };
                (src, dst, (r % 4 % 3 != 0).then_some(u as f32 + 0.25))
            })
            .collect();
        let source = rng.range(0, n as u64) as u32;
        let what = format!("seed {seed:#x} overlay case {k}: {n} vertices, {m} edges");
        check_overlay(&Case::new(what, el, p, codec), &updates, source);
    }
}
