//! Standard fixed-iteration PageRank.
//!
//! The paper's representative "sparse matrix multiplication" workload:
//! every vertex is active in every iteration (footnote 1), so the hybrid
//! engine always selects COP without pricing — the same behavior as the
//! paper's Table 3 / Figure 9 PageRank rows. Run for a fixed number of
//! iterations (`max_iterations` in the run config; the paper uses 5).
//!
//! Dangling vertices (out-degree 0) simply leak their rank mass, the
//! usual simplification in out-of-core system papers; ranks remain
//! comparable across engines because all use the same rule.

use hus_core::{EdgeCtx, VertexId, VertexProgram};

/// Fixed-iteration PageRank.
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    /// Number of vertices (needed for the teleport term).
    pub num_vertices: u32,
    /// Damping factor (0.85 conventionally).
    pub damping: f32,
}

impl PageRank {
    /// PageRank with damping 0.85.
    pub fn new(num_vertices: u32) -> Self {
        PageRank { num_vertices, damping: 0.85 }
    }

    /// The teleport term `(1 - d) / |V|` every vertex resets to each
    /// iteration.
    pub fn base_rank(&self) -> f32 {
        (1.0 - self.damping) / self.num_vertices as f32
    }
}

impl VertexProgram for PageRank {
    type Value = f32;

    fn init(&self, _v: VertexId) -> f32 {
        1.0 / self.num_vertices as f32
    }

    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    fn always_active(&self) -> bool {
        true
    }

    fn needs_reset(&self) -> bool {
        true
    }

    fn reset(&self, _v: VertexId, _prev: &f32) -> f32 {
        self.base_rank()
    }

    fn scatter(&self, src_val: &f32, ctx: &EdgeCtx) -> Option<f32> {
        debug_assert!(ctx.src_out_degree > 0, "scatter only fires along existing out-edges");
        Some(self.damping * src_val / ctx.src_out_degree as f32)
    }

    fn combine(&self, dst_val: &mut f32, msg: f32) -> bool {
        *dst_val += msg;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use hus_core::{BuildConfig, Engine, HusGraph, RunConfig, UpdateMode};
    use hus_gen::{classic, Csr, EdgeList};
    use hus_storage::StorageDir;

    fn run(el: &EdgeList, iters: usize, mode: UpdateMode, p: u32) -> Vec<f32> {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p(p)).unwrap();
        let cfg = RunConfig { mode, threads: 2, max_iterations: iters, ..Default::default() };
        Engine::new(&g, &PageRank::new(el.num_vertices), cfg).run().unwrap().0
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32, label: &str) {
        assert_eq!(got.len(), want.len());
        for (v, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= tol * w.abs().max(1e-6), "{label} vertex {v}: {g} vs {w}");
        }
    }

    #[test]
    fn cycle_ranks_are_uniform() {
        // On a directed cycle every vertex has in/out degree 1: ranks stay
        // uniform at 1/n.
        let el = classic::cycle(10);
        let ranks = run(&el, 5, UpdateMode::Hybrid, 2);
        assert_close(&ranks, &[0.1; 10], 1e-5, "cycle");
    }

    #[test]
    fn hub_of_star_outranks_leaves() {
        let el = classic::star(20);
        let ranks = run(&el, 10, UpdateMode::Hybrid, 2);
        for leaf in 1..20 {
            assert!(ranks[0] > ranks[leaf], "hub {} vs leaf {}", ranks[0], ranks[leaf]);
        }
    }

    #[test]
    fn matches_reference_pagerank() {
        let el = hus_gen::rmat(150, 1200, 41, hus_gen::RmatConfig::default());
        let csr = Csr::from_edge_list(&el);
        let want = reference::pagerank(&csr, 0.85, 5);
        for mode in [UpdateMode::ForceRop, UpdateMode::ForceCop, UpdateMode::Hybrid] {
            let got = run(&el, 5, mode, 4);
            assert_close(&got, &want, 1e-3, &format!("{mode:?}"));
        }
    }

    #[test]
    fn hybrid_selects_cop_for_pagerank() {
        // All vertices active ⇒ COP without pricing, as in the paper.
        let el = hus_gen::rmat(100, 800, 51, hus_gen::RmatConfig::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(2)).unwrap();
        let cfg = RunConfig { max_iterations: 3, ..Default::default() };
        let (_, stats) = Engine::new(&g, &PageRank::new(100), cfg).run().unwrap();
        for it in &stats.iterations {
            assert_eq!(it.model, hus_core::UpdateModel::Cop);
            assert!(it.gated);
        }
    }

    #[test]
    fn total_rank_bounded_by_one() {
        let el = hus_gen::rmat(120, 900, 61, hus_gen::RmatConfig::default());
        let ranks = run(&el, 5, UpdateMode::Hybrid, 3);
        let total: f32 = ranks.iter().sum();
        // Dangling mass leaks, so the total is in (0, 1].
        assert!(total > 0.1 && total <= 1.0 + 1e-4, "total {total}");
    }
}
