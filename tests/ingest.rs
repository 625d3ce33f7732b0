//! Streaming-ingest equivalence: after *any* interleaving of inserts,
//! deletes, memtable spills and compactions, algorithms running on the
//! dynamic graph must be **bit-identical** to the same algorithms on a
//! from-scratch rebuild of the final edge set — across read backends
//! and base codecs. This is the end-to-end contract of DESIGN.md §11:
//! the delta overlay is invisible to the engine.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::SplitMix;
use husgraph::algos::{PageRank, Sssp, Wcc};
use husgraph::codec::Codec;
use husgraph::core::{
    BuildConfig, DynamicGraph, Engine, HusGraph, RunConfig, UpdateMode, VertexProgram,
};
use husgraph::gen::{Edge, EdgeList};
use husgraph::storage::{BackendKind, StorageDir};

const P: u32 = 4;
const NV: u32 = 400;

/// Truth model and device under test, kept in lockstep: every update
/// is applied to both, and `verify` rebuilds the truth from scratch
/// and demands bitwise agreement.
struct Harness {
    tmp: tempfile::TempDir,
    codec: Codec,
    backend: BackendKind,
    /// The exact current edge set (the base is deduplicated before the
    /// build so set semantics are exact: an insert replaces all copies
    /// of its key with one edge, and copies are always one).
    truth: BTreeSet<(u32, u32)>,
    dg: DynamicGraph,
    rebuilds: usize,
}

impl Harness {
    fn new(codec: Codec, backend: BackendKind) -> Self {
        let raw = husgraph::gen::rmat(NV, 2500, 42, Default::default());
        let truth: BTreeSet<(u32, u32)> = raw.edges.iter().map(|e| (e.src, e.dst)).collect();
        let el = EdgeList {
            num_vertices: NV,
            edges: truth.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            weights: None,
        };
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("dyn")).unwrap();
        HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(P, codec)).unwrap();
        let dg = Self::open_dg(tmp.path(), backend);
        Harness { tmp, codec, backend, truth, dg, rebuilds: 0 }
    }

    fn open_dg(root: &std::path::Path, backend: BackendKind) -> DynamicGraph {
        DynamicGraph::open(StorageDir::open(root.join("dyn")).unwrap().with_backend(backend))
            .unwrap()
    }

    /// Apply `n` pseudo-random updates to both the dynamic graph and
    /// the truth set. Every fourth op deletes an edge that really
    /// exists, so tombstones hit live keys, not just absent ones.
    fn apply_random(&mut self, n: usize, seed: u64) {
        let mut rng = SplitMix(seed);
        for k in 0..n {
            let x = rng.next();
            if k % 4 == 3 && !self.truth.is_empty() {
                let victim = *self.truth.iter().nth(x as usize % self.truth.len()).unwrap();
                self.dg.delete_edge(victim.0, victim.1).unwrap();
                self.truth.remove(&victim);
            } else {
                let src = (x % NV as u64) as u32;
                let dst = ((x >> 32) % NV as u64) as u32;
                if x.is_multiple_of(8) {
                    self.dg.delete_edge(src, dst).unwrap();
                    self.truth.remove(&(src, dst));
                } else {
                    self.dg.insert_edge(src, dst, 1.0).unwrap();
                    self.truth.insert((src, dst));
                }
            }
        }
    }

    /// Rebuild the truth set from scratch and demand the dynamic graph
    /// agrees bit for bit under both forced update models.
    fn verify(&mut self, label: &str) {
        self.rebuilds += 1;
        let el = EdgeList {
            num_vertices: NV,
            edges: self.truth.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            weights: None,
        };
        let ref_dir =
            StorageDir::create(self.tmp.path().join(format!("ref{}", self.rebuilds))).unwrap();
        HusGraph::build_into(&el, &ref_dir, &BuildConfig::with_p_codec(P, self.codec)).unwrap();
        let reference =
            HusGraph::open(StorageDir::open(ref_dir.root()).unwrap().with_backend(self.backend))
                .unwrap();

        let live = self.dg.snapshot().unwrap();
        assert_eq!(live.num_edges(), self.truth.len() as u64, "{label}: edge count");
        assert_eq!(live.out_degrees(), reference.out_degrees(), "{label}: degree table");

        for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop] {
            let tag = format!("{label}/{mode:?}/{:?}/{}", self.backend, self.codec.name());
            let pr = run(live, &PageRank::new(NV), mode, 5);
            let pr_ref = run(&reference, &PageRank::new(NV), mode, 5);
            assert_eq!(bits(&pr), bits(&pr_ref), "{tag}: PageRank not bit-identical");

            let wcc = run(live, &Wcc, mode, 1000);
            let wcc_ref = run(&reference, &Wcc, mode, 1000);
            assert_eq!(wcc, wcc_ref, "{tag}: WCC labels differ");
        }
    }
}

/// Single-threaded run so float accumulation order is fixed and
/// bitwise comparison is meaningful.
fn run<Pr: VertexProgram>(
    g: &HusGraph,
    program: &Pr,
    mode: UpdateMode,
    max_iterations: usize,
) -> Vec<Pr::Value> {
    let config = RunConfig { mode, max_iterations, threads: 1, ..Default::default() };
    Engine::new(g, program, config).run().unwrap().0
}

fn bits(vals: &[f32]) -> Vec<u32> {
    vals.iter().map(|v| v.to_bits()).collect()
}

fn scenario(codec: Codec, backend: BackendKind) {
    let mut h = Harness::new(codec, backend);

    // Memtable only: updates visible with zero disk state.
    h.apply_random(120, 1);
    h.verify("memtable");

    // One spilled run plus a fresh memtable on top.
    h.dg.flush().unwrap().expect("non-empty memtable spills");
    h.apply_random(120, 2);
    h.verify("run+memtable");

    // Second spill, then reopen from disk: persisted runs alone must
    // reconstruct the same graph (the memtable is volatile by design,
    // so flush first).
    h.dg.flush().unwrap();
    assert_eq!(h.dg.run_count(), 2);
    h.dg = Harness::open_dg(h.tmp.path(), backend);
    assert_eq!(h.dg.run_count(), 2, "reopen sees both spilled runs");
    h.verify("reopened");

    // Compaction folds everything into a new base generation.
    assert!(h.dg.compact().unwrap());
    assert_eq!(h.dg.run_count(), 0);
    h.verify("compacted");

    // And the cycle restarts cleanly on the compacted base.
    h.apply_random(60, 3);
    h.verify("post-compaction");
}

#[test]
fn ingest_matches_rebuild_raw_file() {
    scenario(Codec::Raw, BackendKind::File);
}

#[test]
fn ingest_matches_rebuild_raw_mmap() {
    scenario(Codec::Raw, BackendKind::Mmap);
}

#[test]
fn ingest_matches_rebuild_raw_direct() {
    scenario(Codec::Raw, BackendKind::Direct);
}

#[test]
fn ingest_matches_rebuild_delta_varint_file() {
    scenario(Codec::DeltaVarint, BackendKind::File);
}

#[test]
fn ingest_matches_rebuild_delta_varint_mmap() {
    scenario(Codec::DeltaVarint, BackendKind::Mmap);
}

#[test]
fn ingest_matches_rebuild_delta_varint_direct() {
    scenario(Codec::DeltaVarint, BackendKind::Direct);
}

/// Weighted graphs: inserted weights override the base weights and
/// survive the spill → merge → compact cycle, verified bitwise through
/// SSSP (min-plus is single-threaded deterministic).
#[test]
fn weighted_updates_match_rebuild_bitwise() {
    let raw = husgraph::gen::rmat(NV, 2500, 9, Default::default()).with_hash_weights(0.1, 10.0);
    let mut truth: BTreeMap<(u32, u32), f32> = BTreeMap::new();
    for (e, w) in raw.edges.iter().zip(raw.weights.as_ref().unwrap()) {
        truth.insert((e.src, e.dst), *w);
    }
    let el = |truth: &BTreeMap<(u32, u32), f32>| EdgeList {
        num_vertices: NV,
        edges: truth.keys().map(|&(s, d)| Edge::new(s, d)).collect(),
        weights: Some(truth.values().copied().collect()),
    };
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("dyn")).unwrap();
    HusGraph::build_into(&el(&truth), &dir, &BuildConfig::with_p(P)).unwrap();

    let mut dg = DynamicGraph::open(StorageDir::open(tmp.path().join("dyn")).unwrap()).unwrap();
    let mut rng = SplitMix(77);
    for k in 0..150 {
        let x = rng.next();
        let src = (x % NV as u64) as u32;
        let dst = ((x >> 32) % NV as u64) as u32;
        if x.is_multiple_of(5) {
            dg.delete_edge(src, dst).unwrap();
            truth.remove(&(src, dst));
        } else {
            // Weight updates of existing edges and brand-new edges alike.
            let w = 0.1 + (x >> 16 & 0xfff) as f32 / 512.0;
            dg.insert_edge(src, dst, w).unwrap();
            truth.insert((src, dst), w);
        }
        if k == 75 {
            dg.flush().unwrap();
        }
    }

    let ref_dir = StorageDir::create(tmp.path().join("ref")).unwrap();
    HusGraph::build_into(&el(&truth), &ref_dir, &BuildConfig::with_p(P)).unwrap();
    let reference = HusGraph::open(StorageDir::open(ref_dir.root()).unwrap()).unwrap();

    for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop] {
        let a = run(dg.snapshot().unwrap(), &Sssp::new(0), mode, 1000);
        let b = run(&reference, &Sssp::new(0), mode, 1000);
        assert_eq!(bits(&a), bits(&b), "{mode:?}: SSSP over merged weights not bit-identical");
    }

    // Compaction bakes the weights into the base; still identical.
    assert!(dg.compact().unwrap());
    for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop] {
        let a = run(dg.snapshot().unwrap(), &Sssp::new(0), mode, 1000);
        let b = run(&reference, &Sssp::new(0), mode, 1000);
        assert_eq!(bits(&a), bits(&b), "{mode:?}: SSSP after compaction not bit-identical");
    }
}
