//! # husgraph — I/O-efficient out-of-core graph processing with a hybrid
//! update strategy
//!
//! A from-scratch Rust reproduction of **HUS-Graph** (Xu, Wang, Jiang,
//! Cheng, Feng, Zhang — ICPP 2018): a single-machine out-of-core graph
//! engine that balances I/O amount against I/O access locality by
//! adaptively switching between **Row-oriented Push** (selective random
//! loads of only the active edges) and **Column-oriented Pull**
//! (sequential streaming of whole in-edge blocks), driven by an I/O-based
//! cost predictor.
//!
//! This umbrella crate re-exports the workspace and offers a compact
//! facade ([`Graph`]) for the common case:
//!
//! ```
//! use husgraph::Graph;
//!
//! let edges = husgraph::gen::rmat(1_000, 8_000, 42, Default::default());
//! let tmp = tempfile::tempdir().unwrap();
//! let graph = Graph::build(&edges, tmp.path().join("g")).unwrap();
//! let (levels, stats) = graph.bfs(0).unwrap();
//! assert_eq!(levels[0], 0);
//! println!("BFS took {} iterations, {:.1} MB of I/O",
//!          stats.num_iterations(), stats.total_io.total_bytes() as f64 / 1e6);
//! ```
//!
//! The full API lives in the member crates:
//!
//! * [`storage`] — file/mmap/`O_DIRECT` readers under one metered layer, device cost models
//! * [`codec`] — per-block edge codecs (raw, delta-varint)
//! * [`gen`] — synthetic graph generators and dataset presets
//! * [`core`] — the dual-block representation, ROP/COP, the hybrid engine
//! * [`algos`] — BFS, WCC, SSSP, PageRank(-Delta), PPR, SpMV + references
//! * [`baselines`] — GraphChi-style and GridGraph-style engines
//! * [`serve`] — the concurrent multi-query daemon behind `hus serve`

#![warn(missing_docs)]

pub use hus_algos as algos;
pub use hus_baselines as baselines;
pub use hus_codec as codec;
pub use hus_core as core;
pub use hus_gen as gen;
pub use hus_obs as obs;
pub use hus_serve as serve;
pub use hus_storage as storage;

use hus_algos::{Bfs, PageRank, Sssp, Wcc};
use hus_core::{BuildConfig, Engine, HusGraph, RunConfig, RunStats, VertexProgram};
use hus_gen::EdgeList;
use hus_storage::{Result, StorageDir};
use std::path::Path;

/// High-level handle: build or open a dual-block graph and run the
/// bundled algorithms with default settings.
pub struct Graph {
    inner: HusGraph,
}

impl Graph {
    /// Build `edges` into a new graph directory at `path` with default
    /// build settings (automatic interval count).
    pub fn build(edges: &EdgeList, path: impl AsRef<Path>) -> Result<Self> {
        Self::build_with(edges, path, &BuildConfig::default())
    }

    /// Build with explicit build configuration.
    pub fn build_with(
        edges: &EdgeList,
        path: impl AsRef<Path>,
        config: &BuildConfig,
    ) -> Result<Self> {
        let dir = StorageDir::create(path)?;
        Ok(Graph { inner: HusGraph::build_into(edges, &dir, config)? })
    }

    /// Open a previously built graph directory.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Graph { inner: HusGraph::open(StorageDir::open(path)?)? })
    }

    /// The underlying engine-level graph.
    pub fn inner(&self) -> &HusGraph {
        &self.inner
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.inner.meta().num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.inner.meta().num_edges
    }

    /// Run any [`VertexProgram`] with an explicit run configuration.
    pub fn run<Pr: VertexProgram>(
        &self,
        program: &Pr,
        config: RunConfig,
    ) -> Result<(Vec<Pr::Value>, RunStats)> {
        Engine::new(&self.inner, program, config).run()
    }

    /// BFS levels from `source` (`u32::MAX` = unreachable).
    pub fn bfs(&self, source: u32) -> Result<(Vec<u32>, RunStats)> {
        self.run(&Bfs::new(source), RunConfig::default())
    }

    /// Weakly-connected-component labels (build the graph from a
    /// symmetrized edge list for meaningful results).
    pub fn wcc(&self) -> Result<(Vec<u32>, RunStats)> {
        self.run(&Wcc, RunConfig::default())
    }

    /// Shortest-path distances from `source` (`f32::INFINITY` =
    /// unreachable; unweighted edges count 1.0).
    pub fn sssp(&self, source: u32) -> Result<(Vec<f32>, RunStats)> {
        self.run(&Sssp::new(source), RunConfig::default())
    }

    /// PageRank for a fixed number of iterations (the paper uses 5).
    pub fn pagerank(&self, iterations: usize) -> Result<(Vec<f32>, RunStats)> {
        let config = RunConfig { max_iterations: iterations, ..Default::default() };
        self.run(&PageRank::new(self.num_vertices()), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_roundtrip() {
        let el = hus_gen::classic::cycle(12);
        let tmp = tempfile::tempdir().unwrap();
        let g = Graph::build(&el, tmp.path().join("g")).unwrap();
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 12);
        let (levels, stats) = g.bfs(3).unwrap();
        assert_eq!(levels[3], 0);
        assert_eq!(levels[2], 11);
        assert!(stats.converged);
        // Re-open from disk.
        let g2 = Graph::open(tmp.path().join("g")).unwrap();
        assert_eq!(g2.num_vertices(), 12);
        let (levels2, _) = g2.bfs(3).unwrap();
        assert_eq!(levels, levels2);
    }

    #[test]
    fn facade_pagerank_and_wcc() {
        let el = hus_gen::rmat(100, 600, 1, Default::default()).symmetrize();
        let tmp = tempfile::tempdir().unwrap();
        let g = Graph::build(&el, tmp.path().join("g")).unwrap();
        let (ranks, _) = g.pagerank(5).unwrap();
        assert_eq!(ranks.len(), 100);
        assert!(ranks.iter().all(|r| *r > 0.0));
        let (labels, _) = g.wcc().unwrap();
        assert!(labels.iter().all(|&l| l < 100));
    }
}
