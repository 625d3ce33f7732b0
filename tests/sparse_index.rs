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
//! The generated cases come from a logged seed; a failure prints it,
//! and pasting it into [`REPLAY`] reruns the same cases.

use husgraph::algos::{reference, Bfs, PageRank, Sssp};
use husgraph::codec::Codec;
use husgraph::core::predict::IoPlan;
use husgraph::core::{
    build, build_external, cop, BuildConfig, Engine, HusGraph, ListSource, Orientation, RunConfig,
    UpdateMode, VertexProgram,
};
use husgraph::gen::{Csr, EdgeList};
use husgraph::storage::{Access, StorageDir};

/// Replay a failure by putting its logged seed here.
const REPLAY: Option<u64> = None;

/// splitmix64, the generator of the cases.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        husgraph::gen::types::splitmix64(self.0)
    }

    /// A draw from `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

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

    let levels = reference::bfs_levels(&csr, source);
    let distances = reference::sssp_distances(&csr, source);
    let ranks = reference::pagerank(&csr, 0.85, 5);
    let sweep = cop::sweep_plan(&g, 4);
    for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop, UpdateMode::Hybrid] {
        let at = format!("{what}: {mode:?}");
        assert_eq!(run(&g, &Bfs::new(source), mode, 10_000).0, levels, "{at}: BFS");
        let (got, _) = run(&g, &Sssp::new(source), mode, 10_000);
        for (v, (g, w)) in got.iter().zip(&distances).enumerate() {
            let same = (g.is_infinite() && w.is_infinite()) || (g - w).abs() <= 1e-4 * w.max(1.0);
            assert!(same, "{at}: SSSP vertex {v}: {g} vs {w}");
        }
        let (got, stats) = run(&g, &PageRank::new(meta.num_vertices), mode, 5);
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
    let seed = REPLAY.unwrap_or_else(|| {
        let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
        now.map_or(0, |d| d.as_nanos() as u64)
    });
    eprintln!("sparse index differential seed: {seed:#x}");
    let mut rng = SplitMix(seed);
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
