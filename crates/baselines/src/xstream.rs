//! X-Stream-style baseline: edge-centric scatter-gather over streaming
//! partitions (Roy, Mihailovic, Zwaenepoel — SOSP'13).
//!
//! The graph is split into `K` streaming partitions, each owning a
//! vertex interval and an **unordered** edge file (all edges whose
//! source lies in the interval — no sorting, no index; X-Stream's pitch
//! was trading all pre-processing for pure streaming). An iteration is
//! two phases:
//!
//! * **Scatter**: stream every partition's edge file; each edge with an
//!   active source appends an `(dst, message)` update record to the
//!   *update file* of the destination's partition — intermediate data
//!   written to disk, like the original.
//! * **Gather**: stream every partition's update file, folding messages
//!   into the vertex values; update files are then discarded.
//!
//! Per iteration it therefore reads all `E` edges and both writes and
//! reads one update record per live edge — the I/O profile that placed
//! X-Stream between GraphChi and GridGraph historically, and the system
//! the paper's Figure 11 quotes an SSD speedup for.
//!
//! Synchronous semantics via the shared double-buffered vertex store, so
//! results are bit-comparable with the other synchronous engines.

use crate::common::BaselineConfig;
use hus_core::active::ActiveSet;
use hus_core::predict::{Decision, UpdateModel};
use hus_core::program::EdgeCtx;
use hus_core::stats::{RunRecorder, RunStats};
use hus_core::vertex_store::VertexStore;
use hus_core::VertexProgram;
use hus_gen::EdgeList;
use hus_obs::span;
use hus_storage::{pod, Access, ReadBackend, Result, StorageDir, StorageError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// X-Stream manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XStreamMeta {
    /// Vertex count.
    pub num_vertices: u32,
    /// Edge count.
    pub num_edges: u64,
    /// Number of streaming partitions.
    pub k: u32,
    /// Whether records carry weights.
    pub weighted: bool,
    /// Interval boundaries (`k + 1` entries).
    pub interval_starts: Vec<u32>,
    /// Edge record count per partition.
    pub partition_counts: Vec<u64>,
}

impl XStreamMeta {
    /// Edge record size (src + dst [+ weight]).
    pub fn record_bytes(&self) -> u64 {
        if self.weighted {
            12
        } else {
            8
        }
    }
}

const XS_META: &str = "xstream_meta.json";

fn partition_file(i: usize) -> String {
    format!("xs_part_{i}.edges")
}

/// A built X-Stream representation.
pub struct XStreamStore {
    dir: StorageDir,
    meta: XStreamMeta,
    partitions: Vec<Arc<dyn ReadBackend>>,
    out_degrees: Vec<u32>,
}

impl XStreamStore {
    /// Build the streaming partitions of `el` into `dir`. No sorting —
    /// edges are appended to their source partition in input order.
    pub fn build_into(el: &EdgeList, dir: &StorageDir, k: u32) -> Result<Self> {
        el.validate().map_err(StorageError::Corrupt)?;
        let k = k.clamp(1, el.num_vertices.max(1));
        let starts = hus_core::partition::interval_starts(
            el.num_vertices,
            k,
            hus_core::partition::PartitionStrategy::EqualVertices,
            &[],
        );
        let ku = k as usize;
        let weighted = el.is_weighted();
        let mut writers: Vec<_> =
            (0..ku).map(|i| dir.writer(&partition_file(i))).collect::<Result<Vec<_>>>()?;
        let mut partition_counts = vec![0u64; ku];
        for (idx, e) in el.edges.iter().enumerate() {
            let i = hus_core::partition::interval_of(&starts, e.src);
            partition_counts[i] += 1;
            writers[i].write_pod(&e.src)?;
            writers[i].write_pod(&e.dst)?;
            if weighted {
                writers[i].write_pod(&el.weights.as_ref().unwrap()[idx])?;
            }
        }
        for w in writers {
            w.finish()?;
        }
        let meta = XStreamMeta {
            num_vertices: el.num_vertices,
            num_edges: el.num_edges() as u64,
            k,
            weighted,
            interval_starts: starts,
            partition_counts,
        };
        dir.put_meta(XS_META, &serde_json::to_string_pretty(&meta).expect("serializes"))?;
        let mut dw = dir.writer("xs_degrees.bin")?;
        dw.write_pod_slice(&el.out_degrees())?;
        dw.finish()?;
        Self::open(dir.clone())
    }

    /// Open a previously built X-Stream directory.
    pub fn open(dir: StorageDir) -> Result<Self> {
        let meta: XStreamMeta = serde_json::from_str(&dir.get_meta(XS_META)?)
            .map_err(|e| StorageError::Corrupt(format!("bad xstream meta: {e}")))?;
        let partitions = (0..meta.k as usize)
            .map(|i| dir.reader(&partition_file(i)))
            .collect::<Result<Vec<_>>>()?;
        let deg_bytes = std::fs::read(dir.path("xs_degrees.bin"))
            .map_err(|e| StorageError::io_at(dir.path("xs_degrees.bin"), e))?;
        let out_degrees = pod::to_vec::<u32>(&deg_bytes)?;
        Ok(XStreamStore { dir, meta, partitions, out_degrees })
    }

    /// The manifest.
    pub fn meta(&self) -> &XStreamMeta {
        &self.meta
    }

    /// Storage directory (tracker).
    pub fn dir(&self) -> &StorageDir {
        &self.dir
    }
}

/// The edge-centric scatter-gather engine.
pub struct XStreamEngine<'a, Pr: VertexProgram> {
    store: &'a XStreamStore,
    program: &'a Pr,
    config: BaselineConfig,
}

impl<'a, Pr: VertexProgram> XStreamEngine<'a, Pr> {
    /// Create an engine for `program` over the X-Stream store.
    pub fn new(store: &'a XStreamStore, program: &'a Pr, config: BaselineConfig) -> Self {
        XStreamEngine { store, program, config }
    }

    /// Execute to convergence (or `max_iterations`).
    pub fn run(&self) -> Result<(Vec<Pr::Value>, RunStats)> {
        let meta = &self.store.meta;
        let v = meta.num_vertices;
        let k = meta.k as usize;
        let m = meta.record_bytes() as usize;
        let value_size = std::mem::size_of::<Pr::Value>();
        let update_size = 4 + value_size; // dst id + message
        let mut rec = RunRecorder::start("xstream", &self.store.dir, self.config.threads);
        let scratch = rec.scratch(self.config.scratch_name.as_deref())?;
        let mut values: VertexStore<Pr::Value> =
            VertexStore::create(&scratch, "vals", &meta.interval_starts, |x| self.program.init(x))?;
        let mut active = ActiveSet::initial(self.program, v);
        let mut converged = false;

        for iteration in 0..self.config.max_iterations {
            let active_vertices = active.count();
            if active_vertices == 0 {
                converged = true;
                break;
            }
            let active_edges = active.active_degree_sum(0, v, &self.store.out_degrees);
            rec.begin_iteration(iteration, active_vertices, active_edges);
            let next_active = ActiveSet::next(self.program, v);
            let mut edges_this_iter = 0u64;

            // --- Scatter phase: stream every edge, emit updates. --------
            let mut update_writers: Vec<_> = (0..k)
                .map(|j| scratch.writer(&format!("updates_{j}.bin")))
                .collect::<Result<Vec<_>>>()?;
            for i in 0..k {
                let _s = span!("scatter.partition", interval = i);
                let s_i = values.load_current(i, Access::Sequential)?;
                let src_base = meta.interval_starts[i];
                let count = meta.partition_counts[i] as usize;
                let mut bytes = vec![0u8; count * m];
                if count > 0 {
                    self.store.partitions[i].read_at(0, &mut bytes, Access::Sequential)?;
                }
                edges_this_iter += count as u64;
                for r in 0..count {
                    let rec = &bytes[r * m..(r + 1) * m];
                    let src = u32::from_le_bytes(rec[0..4].try_into().unwrap());
                    if !active.get(src) {
                        continue;
                    }
                    let dst = u32::from_le_bytes(rec[4..8].try_into().unwrap());
                    let weight = if meta.weighted {
                        f32::from_le_bytes(rec[8..12].try_into().unwrap())
                    } else {
                        1.0
                    };
                    let ctx = EdgeCtx {
                        src,
                        dst,
                        weight,
                        src_out_degree: self.store.out_degrees[src as usize],
                    };
                    if let Some(msg) = self.program.scatter(&s_i[(src - src_base) as usize], &ctx) {
                        let j = hus_core::partition::interval_of(&meta.interval_starts, dst);
                        update_writers[j].write_pod(&dst)?;
                        update_writers[j].write_pod(&msg)?;
                    }
                }
            }
            for w in update_writers {
                w.finish()?;
            }

            // --- Gather phase: stream updates, fold into vertex values. --
            for j in 0..k {
                let _s = span!("gather.partition", interval = j);
                let dst_base = meta.interval_starts[j];
                let s_j = values.load_current(j, Access::Sequential)?;
                let mut d_j: Vec<Pr::Value> = s_j
                    .iter()
                    .enumerate()
                    .map(|(x, val)| self.program.reset(dst_base + x as u32, val))
                    .collect();
                let reader = scratch.reader(&format!("updates_{j}.bin"))?;
                let len = reader.len() as usize;
                let mut bytes = vec![0u8; len];
                if len > 0 {
                    reader.read_at(0, &mut bytes, Access::Sequential)?;
                }
                for r in 0..len / update_size {
                    let at = r * update_size;
                    let dst = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                    let msg = pod::to_vec::<Pr::Value>(&bytes[at + 4..at + 4 + value_size])?[0];
                    if self.program.combine(&mut d_j[(dst - dst_base) as usize], msg) {
                        next_active.set(dst);
                    }
                }
                values.write_next(j, &d_j)?;
            }
            {
                let _s = span!("sync");
                for j in 0..k {
                    values.commit(j);
                }
            }

            // Edge-centric scatter = push classification (§2.2).
            let push = Decision::forced(UpdateModel::Rop, false);
            rec.end_iteration(push, None, (k as u32, 0), edges_this_iter);
            active = next_active;
        }
        rec.finish(converged, Default::default(), || values.read_all_current())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_algos::{reference, Bfs, PageRank, Wcc};
    use hus_gen::Csr;

    fn xs(el: &EdgeList, k: u32) -> (tempfile::TempDir, XStreamStore) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("xs")).unwrap();
        let store = XStreamStore::build_into(el, &dir, k).unwrap();
        (tmp, store)
    }

    #[test]
    fn partitions_preserve_input_order_unsorted() {
        let el = EdgeList::from_pairs([(0, 3), (0, 1), (3, 0), (1, 2)]);
        let (_t, store) = xs(&el, 2);
        assert_eq!(store.meta.partition_counts, vec![3, 1]);
        // Partition 0 holds the src<2 edges in input order (no sorting).
        let mut bytes = vec![0u8; 24];
        store.partitions[0].read_at(0, &mut bytes, Access::Sequential).unwrap();
        let first_dst = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        assert_eq!(first_dst, 3, "input order kept");
    }

    #[test]
    fn bfs_matches_reference() {
        let el = hus_gen::rmat(200, 1500, 3, Default::default());
        let want = reference::bfs_levels(&Csr::from_edge_list(&el), 0);
        let (_t, store) = xs(&el, 4);
        let (got, stats) =
            XStreamEngine::new(&store, &Bfs::new(0), BaselineConfig::default()).run().unwrap();
        assert!(stats.converged);
        assert_eq!(got, want);
    }

    #[test]
    fn wcc_matches_reference() {
        let el = hus_gen::rmat(150, 600, 4, Default::default()).symmetrize();
        let want = reference::wcc_labels(&Csr::from_edge_list(&el));
        let (_t, store) = xs(&el, 3);
        let (got, _) = XStreamEngine::new(&store, &Wcc, BaselineConfig::default()).run().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn pagerank_matches_reference_exactly() {
        let el = hus_gen::rmat(120, 900, 5, Default::default());
        let want = reference::pagerank(&Csr::from_edge_list(&el), 0.85, 5);
        let (_t, store) = xs(&el, 3);
        let cfg = BaselineConfig { max_iterations: 5, ..Default::default() };
        let (got, _) = XStreamEngine::new(&store, &PageRank::new(120), cfg).run().unwrap();
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= 1e-3 * w.max(1e-6), "v{v}: {g} vs {w}");
        }
    }

    #[test]
    fn writes_update_files_proportional_to_live_edges() {
        // PageRank scatters every edge: per iteration the update files
        // carry one (dst, msg) record per edge — written AND read back.
        let el = hus_gen::rmat(150, 1200, 6, Default::default());
        let (_t, store) = xs(&el, 3);
        let cfg = BaselineConfig { max_iterations: 2, ..Default::default() };
        let (_vals, stats) = XStreamEngine::new(&store, &PageRank::new(150), cfg).run().unwrap();
        let e = el.num_edges() as u64;
        for it in &stats.iterations {
            assert!(
                it.io.write_bytes >= e * 8,
                "iteration {} wrote {} for {e} updates",
                it.iteration,
                it.io.write_bytes
            );
        }
    }

    #[test]
    fn io_sits_between_gridgraph_and_graphchi_on_pagerank() {
        let el = hus_gen::rmat(200, 1600, 7, Default::default());
        let (_t1, xs_store) = xs(&el, 3);
        let t2 = tempfile::tempdir().unwrap();
        let grid = crate::gridgraph::GridStore::build_into(
            &el,
            &StorageDir::create(t2.path().join("gg")).unwrap(),
            3,
        )
        .unwrap();
        let t3 = tempfile::tempdir().unwrap();
        let psw = crate::graphchi::PswStore::build_into(
            &el,
            &StorageDir::create(t3.path().join("psw")).unwrap(),
            3,
        )
        .unwrap();
        let cfg = BaselineConfig { max_iterations: 5, ..Default::default() };
        let pr = PageRank::new(200);
        let xs_io =
            XStreamEngine::new(&xs_store, &pr, cfg.clone()).run().unwrap().1.total_io.total_bytes();
        grid.dir().tracker().reset();
        let grid_io = crate::gridgraph::GridGraphEngine::new(&grid, &pr, cfg.clone())
            .run()
            .unwrap()
            .1
            .total_io
            .total_bytes();
        psw.dir().tracker().reset();
        let psw_io = crate::graphchi::GraphChiEngine::new(&psw, &pr, cfg)
            .run()
            .unwrap()
            .1
            .total_io
            .total_bytes();
        assert!(grid_io < xs_io, "GridGraph {grid_io} < X-Stream {xs_io}");
        assert!(xs_io < psw_io, "X-Stream {xs_io} < GraphChi {psw_io}");
    }
}
