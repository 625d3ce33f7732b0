//! Shared machinery: prepare workloads, build all three representations,
//! run any (system, algorithm) pair, and model device time.

use hus_algos::{Bfs, PageRank, Sssp, Wcc};
use hus_baselines::{
    BaselineConfig, GraphChiEngine, GridGraphEngine, GridStore, PswStore, SemiExternalEngine,
    XStreamEngine, XStreamStore,
};
use hus_core::{BuildConfig, Engine, HusGraph, RunConfig, RunStats, UpdateMode, VertexProgram};
use hus_gen::{Dataset, EdgeList};
use hus_storage::{CostModel, DeviceProfile, Result, StorageDir, Throughput};
use std::path::Path;

/// Which engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// HUS-Graph with the hybrid update strategy.
    Hus,
    /// HUS-Graph forced to Row-oriented Push in all iterations.
    HusRop,
    /// HUS-Graph forced to Column-oriented Pull in all iterations.
    HusCop,
    /// The GridGraph-style baseline.
    GridGraph,
    /// The GraphChi-style baseline.
    GraphChi,
    /// The X-Stream-style baseline (edge-centric scatter-gather).
    XStream,
    /// FlashGraph-style semi-external execution over the HUS store.
    SemiExternal,
}

impl SystemKind {
    /// Display name matching the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Hus => "HUS-Graph",
            SystemKind::HusRop => "ROP",
            SystemKind::HusCop => "COP",
            SystemKind::GridGraph => "GridGraph",
            SystemKind::GraphChi => "GraphChi",
            SystemKind::XStream => "X-Stream",
            SystemKind::SemiExternal => "SemiExt",
        }
    }
}

/// Which benchmark algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// 5 iterations of standard PageRank (all vertices active).
    PageRank,
    /// Breadth-first search to convergence.
    Bfs,
    /// Weakly connected components to convergence (symmetrized graph).
    Wcc,
    /// Single-source shortest paths to convergence (hash weights).
    Sssp,
}

impl AlgoKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoKind::PageRank => "PageRank",
            AlgoKind::Bfs => "BFS",
            AlgoKind::Wcc => "WCC",
            AlgoKind::Sssp => "SSSP",
        }
    }

    /// All four benchmark algorithms in the paper's order.
    pub const ALL: [AlgoKind; 4] =
        [AlgoKind::PageRank, AlgoKind::Bfs, AlgoKind::Wcc, AlgoKind::Sssp];
}

/// A prepared workload: the edge list in the form the algorithm needs,
/// plus run parameters.
pub struct Workload {
    /// Dataset display name.
    pub name: String,
    /// The edge list (symmetrized for WCC, weighted for SSSP).
    pub el: EdgeList,
    /// Algorithm to run.
    pub algo: AlgoKind,
    /// BFS/SSSP source (see [`pick_source`]).
    pub source: u32,
}

/// Prepare the workload for `(dataset, algo)` at the `HUS_SCALE` scale.
pub fn workload(dataset: Dataset, algo: AlgoKind) -> Workload {
    workload_from(dataset.name(), dataset.generate(), algo)
}

/// Prepare a workload from an explicit edge list.
pub fn workload_from(name: &str, el: EdgeList, algo: AlgoKind) -> Workload {
    let el = match algo {
        AlgoKind::Wcc => el.symmetrize(),
        AlgoKind::Sssp => el.with_hash_weights(1.0, 1.25),
        _ => el,
    };
    let source = pick_source(&el);
    Workload { name: name.to_string(), el, algo, source }
}

/// BFS/SSSP source selection: the lowest-out-degree vertex that still
/// reaches at least a quarter of the graph (verified with an in-memory
/// BFS). Starting at a hub collapses power-law traversals into 2–3
/// levels; a peripheral source gives the ramp-up levels real BFS
/// evaluations (e.g. Graph500's random roots) exhibit. Falls back to the
/// max-degree hub if no low-degree vertex reaches enough.
pub fn pick_source(el: &EdgeList) -> u32 {
    let degrees = el.out_degrees();
    if el.num_edges() == 0 {
        return 0;
    }
    let csr = hus_gen::Csr::from_edge_list(el);
    let mut candidates: Vec<u32> =
        (0..el.num_vertices).filter(|&v| degrees[v as usize] > 0).collect();
    candidates.sort_by_key(|&v| degrees[v as usize]);
    for &v in candidates.iter().take(16) {
        let levels = hus_algos::reference::bfs_levels(&csr, v);
        let reached = levels.iter().filter(|&&l| l != hus_algos::UNREACHED).count();
        if reached * 4 >= el.num_vertices as usize {
            return v;
        }
    }
    degrees.iter().enumerate().max_by_key(|(_, &d)| d).map(|(v, _)| v as u32).unwrap_or(0)
}

/// All three on-disk representations of one edge list, each in its own
/// subdirectory with its own tracker.
pub struct Stores {
    /// HUS-Graph dual-block representation.
    pub hus: HusGraph,
    /// GridGraph-style grid.
    pub grid: GridStore,
    /// GraphChi-style PSW shards.
    pub psw: PswStore,
    /// X-Stream-style streaming partitions.
    pub xs: XStreamStore,
}

/// Build all three representations of `el` under `root` with `p`
/// partitions each.
pub fn build_stores(el: &EdgeList, p: u32, root: &Path) -> Result<Stores> {
    let hus_dir = StorageDir::create(root.join("hus"))?;
    let hus = HusGraph::build_into(el, &hus_dir, &BuildConfig::with_p(p))?;
    let grid_dir = StorageDir::create(root.join("grid"))?;
    let grid = GridStore::build_into(el, &grid_dir, p)?;
    let psw_dir = StorageDir::create(root.join("psw"))?;
    let psw = PswStore::build_into(el, &psw_dir, p)?;
    let xs_dir = StorageDir::create(root.join("xs"))?;
    let xs = XStreamStore::build_into(el, &xs_dir, p)?;
    // Builder traffic must not pollute run measurements.
    hus.dir().tracker().reset();
    grid.dir().tracker().reset();
    psw.dir().tracker().reset();
    xs.dir().tracker().reset();
    Ok(Stores { hus, grid, psw, xs })
}

/// PageRank iteration count used throughout (paper: "five iterations").
pub const PAGERANK_ITERS: usize = 5;

/// A system and its configuration, ready to run any program: adding a
/// system is one arm of [`Target::run`], adding an algorithm one arm of
/// [`Target::run_workload`].
enum Target<'a> {
    Hus(&'a HusGraph, RunConfig),
    Grid(&'a GridStore, BaselineConfig),
    Psw(&'a PswStore, BaselineConfig),
    Xs(&'a XStreamStore, BaselineConfig),
    SemiExt(&'a HusGraph, BaselineConfig),
}

impl Target<'_> {
    fn run<Pr: VertexProgram>(self, program: &Pr) -> Result<RunStats> {
        Ok(match self {
            Target::Hus(graph, cfg) => Engine::new(graph, program, cfg).run()?.1,
            Target::Grid(store, cfg) => GridGraphEngine::new(store, program, cfg).run()?.1,
            Target::Psw(store, cfg) => GraphChiEngine::new(store, program, cfg).run()?.1,
            Target::Xs(store, cfg) => XStreamEngine::new(store, program, cfg).run()?.1,
            Target::SemiExt(graph, cfg) => SemiExternalEngine::new(graph, program, cfg).run()?.1,
        })
    }

    fn run_workload(self, w: &Workload) -> Result<RunStats> {
        match w.algo {
            AlgoKind::PageRank => self.run(&PageRank::new(w.el.num_vertices)),
            AlgoKind::Bfs => self.run(&Bfs::new(w.source)),
            AlgoKind::Wcc => self.run(&Wcc),
            AlgoKind::Sssp => self.run(&Sssp::new(w.source)),
        }
    }
}

/// Run `workload` on the HUS engine with an explicit configuration.
pub fn run_hus(graph: &HusGraph, w: &Workload, mut config: RunConfig) -> Result<RunStats> {
    if w.algo == AlgoKind::PageRank {
        config.max_iterations = PAGERANK_ITERS;
    }
    if let Some(tp) = env_probe_throughput() {
        config.throughput = tp;
    }
    Target::Hus(graph, config).run_workload(w)
}

/// Run `workload` on any system with `threads` workers.
pub fn run_system(
    stores: &Stores,
    system: SystemKind,
    w: &Workload,
    threads: usize,
) -> Result<RunStats> {
    let cfg =
        BaselineConfig { threads, max_iterations: baseline_iters(w.algo), ..Default::default() };
    let (dir, target) = match system {
        SystemKind::Hus | SystemKind::HusRop | SystemKind::HusCop => {
            let mode = match system {
                SystemKind::HusRop => UpdateMode::ForceRop,
                SystemKind::HusCop => UpdateMode::ForceCop,
                _ => UpdateMode::Hybrid,
            };
            stores.hus.dir().tracker().reset();
            return run_hus(&stores.hus, w, RunConfig { mode, threads, ..Default::default() });
        }
        SystemKind::GridGraph => (stores.grid.dir(), Target::Grid(&stores.grid, cfg)),
        SystemKind::GraphChi => (stores.psw.dir(), Target::Psw(&stores.psw, cfg)),
        SystemKind::XStream => (stores.xs.dir(), Target::Xs(&stores.xs, cfg)),
        SystemKind::SemiExternal => (stores.hus.dir(), Target::SemiExt(&stores.hus, cfg)),
    };
    dir.tracker().reset();
    target.run_workload(w)
}

fn baseline_iters(algo: AlgoKind) -> usize {
    match algo {
        AlgoKind::PageRank => PAGERANK_ITERS,
        _ => 1_000,
    }
}

/// Modeled HDD runtime of a run (the paper's evaluation device).
pub fn modeled_hdd_seconds(stats: &RunStats) -> f64 {
    stats.modeled_seconds(&CostModel::new(DeviceProfile::hdd()))
}

/// Environment knob: partition count (default 8).
pub fn env_p() -> u32 {
    hus_obs::env::parse("HUS_P", 8)
}

/// Environment knob: worker threads (default 16, the paper machine's
/// core count — the pool genuinely runs that many workers, and the
/// modeled CPU term divides by it).
pub fn env_threads() -> usize {
    hus_obs::env::parse("HUS_THREADS", 16)
}

/// Environment knob: `HUS_PROBE=1` measures the host's real read
/// throughputs with the fio-style probe (`hus_storage::probe`, the same
/// measurement `hus probe` prints) and feeds them to the hybrid
/// predictor in place of the device preset. Measured once per process;
/// probe failures fall back to the preset with a warning.
pub fn env_probe_throughput() -> Option<Throughput> {
    static PROBED: std::sync::OnceLock<Option<Throughput>> = std::sync::OnceLock::new();
    *PROBED.get_or_init(|| {
        if !hus_obs::env::flag("HUS_PROBE", false) {
            return None;
        }
        let opts = hus_storage::probe::ProbeOptions::default();
        match hus_storage::probe::measure(&std::env::temp_dir(), &opts) {
            Ok(report) => Some(report.read),
            Err(e) => {
                eprintln!("warning: HUS_PROBE probe failed ({e}); using the device preset");
                None
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload(algo: AlgoKind) -> Workload {
        let el = hus_gen::rmat(200, 1500, 5, Default::default());
        workload_from("tiny", el, algo)
    }

    #[test]
    fn workload_prepares_per_algo() {
        let base = tiny_workload(AlgoKind::Bfs);
        let wcc = tiny_workload(AlgoKind::Wcc);
        let sssp = tiny_workload(AlgoKind::Sssp);
        assert!(wcc.el.num_edges() == 2 * base.el.num_edges(), "WCC symmetrized");
        assert!(sssp.el.is_weighted(), "SSSP weighted");
        assert!(!base.el.is_weighted());
        // Source reaches a substantial part of the graph.
        let csr = hus_gen::Csr::from_edge_list(&base.el);
        let levels = hus_algos::reference::bfs_levels(&csr, base.source);
        let reached = levels.iter().filter(|&&l| l != hus_algos::UNREACHED).count();
        assert!(reached * 4 >= base.el.num_vertices as usize, "reached {reached}");
    }

    #[test]
    fn all_systems_run_all_algorithms() {
        let tmp = tempfile::tempdir().unwrap();
        for algo in AlgoKind::ALL {
            let w = tiny_workload(algo);
            let stores = build_stores(&w.el, 3, &tmp.path().join(algo.name())).unwrap();
            for system in [
                SystemKind::Hus,
                SystemKind::HusRop,
                SystemKind::HusCop,
                SystemKind::GridGraph,
                SystemKind::GraphChi,
                SystemKind::XStream,
                SystemKind::SemiExternal,
            ] {
                let stats = run_system(&stores, system, &w, 2).unwrap();
                assert!(stats.num_iterations() > 0, "{system:?} {algo:?}");
                assert!(stats.total_io.total_bytes() > 0, "{system:?} {algo:?}");
                assert!(modeled_hdd_seconds(&stats) > 0.0);
            }
        }
    }

    #[test]
    fn pagerank_runs_exactly_five_iterations_everywhere() {
        let tmp = tempfile::tempdir().unwrap();
        let w = tiny_workload(AlgoKind::PageRank);
        let stores = build_stores(&w.el, 2, tmp.path()).unwrap();
        for system in [SystemKind::Hus, SystemKind::GridGraph, SystemKind::GraphChi] {
            let stats = run_system(&stores, system, &w, 1).unwrap();
            assert_eq!(stats.num_iterations(), PAGERANK_ITERS, "{system:?}");
        }
    }
}
