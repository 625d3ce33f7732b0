//! Semi-external engine in the style of FlashGraph (FAST'15) /
//! Graphene (FAST'17), discussed in the paper's related work (§5):
//! **vertex values live entirely in memory**, only adjacency data stays
//! on disk, and edge access is selective.
//!
//! It runs over the same dual-block representation as HUS-Graph
//! (out-blocks + indices), pushing from active vertices with ROP's own
//! index and edge fetches (`rop::plan_block_fetch`, keeping each offset
//! array it reads whole for the run, as HUS does), but pays **zero
//! vertex I/O**. The paper positions such systems as needing "expensive
//! SSD arrays and large memory" to shine; the `exp_semi_external`
//! experiment shows exactly that — on the HDD profile it behaves like
//! ROP, on the SSD profile it pulls far ahead.

use crate::common::BaselineConfig;
use hus_core::active::ActiveSet;
use hus_core::predict::{Decision, UpdateModel};
use hus_core::rop::{self, IterCtx, KeptOffsets};
use hus_core::stats::{RunRecorder, RunStats};
use hus_core::{HusGraph, VertexProgram};
use hus_obs::span;
use hus_storage::Result;

/// The semi-external engine (in-memory vertex state, on-disk edges).
pub struct SemiExternalEngine<'a, Pr: VertexProgram> {
    graph: &'a HusGraph,
    program: &'a Pr,
    config: BaselineConfig,
}

impl<'a, Pr: VertexProgram> SemiExternalEngine<'a, Pr> {
    /// Create an engine for `program` over a dual-block graph.
    pub fn new(graph: &'a HusGraph, program: &'a Pr, config: BaselineConfig) -> Self {
        SemiExternalEngine { graph, program, config }
    }

    /// Execute to convergence (or `max_iterations`).
    pub fn run(&self) -> Result<(Vec<Pr::Value>, RunStats)> {
        let meta = self.graph.meta();
        let v = meta.num_vertices;
        let p = self.graph.p();
        let mut rec = RunRecorder::start("semi-external", self.graph.dir(), self.config.threads);

        // All vertex state pinned in memory: the semi-external premise
        // (so there is no scratch directory either).
        let mut current: Vec<Pr::Value> = (0..v).map(|x| self.program.init(x)).collect();
        let mut active = ActiveSet::initial(self.program, v);
        let mut converged = false;
        let kept = KeptOffsets::new(p);

        for iteration in 0..self.config.max_iterations {
            let active_vertices = active.count();
            if active_vertices == 0 {
                converged = true;
                break;
            }
            let active_edges = active.active_degree_sum(0, v, self.graph.out_degrees());
            rec.begin_iteration(iteration, active_vertices, active_edges);
            let next_active = ActiveSet::next(self.program, v);
            let mut edges_this_iter = 0u64;
            // ROP's own index and edge fetch choices, priced on the HUS
            // engine's default device.
            let device = hus_storage::DeviceProfile::hdd().read;
            let ctx = IterCtx {
                graph: self.graph,
                program: self.program,
                active: &active,
                next_active: &next_active,
                coalesce_ratio: device.batched_bps / device.random_bps,
                index_ratio: device.sequential_bps / device.random_bps,
                deadline: None,
                kept: &kept,
            };

            // Next values start from reset(current) — synchronous.
            let mut next: Vec<Pr::Value> = current
                .iter()
                .enumerate()
                .map(|(x, val)| self.program.reset(x as u32, val))
                .collect();

            for i in 0..p {
                let base = meta.interval_start(i);
                let end = meta.interval_starts[i + 1];
                let marked = active.marked_words(base, end);
                if marked.is_empty() {
                    continue;
                }
                let _s = span!("push.row", interval = i);
                let s_row = &current[base as usize..end as usize];
                for j in 0..p {
                    let Some(fetch) = rop::plan_block_fetch(&ctx, i, j, base, &marked)? else {
                        continue;
                    };
                    let dst = meta.interval_start(j) as usize..meta.interval_starts[j + 1] as usize;
                    edges_this_iter +=
                        rop::push_fetch(&ctx, (i, j), base, fetch, s_row, &mut next[dst])?;
                }
            }

            current = next;
            let push = Decision::forced(UpdateModel::Rop, false);
            rec.end_iteration(push, None, (p as u32, 0), edges_this_iter);
            active = next_active;
        }
        rec.kept_offsets(kept.bytes());
        rec.finish(converged, Default::default(), || Ok(current))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_algos::{reference, Bfs, PageRank, Wcc};
    use hus_core::BuildConfig;
    use hus_gen::{Csr, EdgeList};
    use hus_storage::StorageDir;

    fn graph(el: &EdgeList, p: u32) -> (tempfile::TempDir, HusGraph) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(el, &dir, &BuildConfig::with_p(p)).unwrap();
        (tmp, g)
    }

    #[test]
    fn bfs_matches_reference() {
        let el = hus_gen::rmat(200, 1500, 3, Default::default());
        let want = reference::bfs_levels(&Csr::from_edge_list(&el), 0);
        let (_t, g) = graph(&el, 4);
        let (got, stats) =
            SemiExternalEngine::new(&g, &Bfs::new(0), BaselineConfig::default()).run().unwrap();
        assert!(stats.converged);
        assert_eq!(got, want);
    }

    #[test]
    fn wcc_matches_reference() {
        let el = hus_gen::rmat(150, 600, 4, Default::default()).symmetrize();
        let want = reference::wcc_labels(&Csr::from_edge_list(&el));
        let (_t, g) = graph(&el, 3);
        let (got, _) = SemiExternalEngine::new(&g, &Wcc, BaselineConfig::default()).run().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn pagerank_matches_reference() {
        let el = hus_gen::rmat(120, 900, 5, Default::default());
        let want = reference::pagerank(&Csr::from_edge_list(&el), 0.85, 5);
        let (_t, g) = graph(&el, 3);
        let cfg = BaselineConfig { max_iterations: 5, ..Default::default() };
        let (got, _) = SemiExternalEngine::new(&g, &PageRank::new(120), cfg).run().unwrap();
        for (v, (gv, w)) in got.iter().zip(&want).enumerate() {
            assert!((gv - w).abs() <= 1e-3 * w.max(1e-6), "v{v}: {gv} vs {w}");
        }
    }

    #[test]
    fn performs_no_vertex_io() {
        // Semi-external reads only edge data: no writes at all, and
        // total reads bounded by edges + indices.
        let el = hus_gen::rmat(150, 1000, 6, Default::default());
        let (_t, g) = graph(&el, 3);
        g.dir().tracker().reset();
        let (_vals, stats) =
            SemiExternalEngine::new(&g, &Bfs::new(0), BaselineConfig::default()).run().unwrap();
        assert_eq!(stats.total_io.write_bytes, 0, "vertex state never hits disk");
        let hus_io = {
            g.dir().tracker().reset();
            let cfg = hus_core::RunConfig::default();
            let (_, s) = hus_core::Engine::new(&g, &Bfs::new(0), cfg).run().unwrap();
            s.total_io.total_bytes()
        };
        assert!(
            stats.total_io.total_bytes() < hus_io,
            "semi-external {} must beat out-of-core {hus_io} on I/O",
            stats.total_io.total_bytes()
        );
    }
}
