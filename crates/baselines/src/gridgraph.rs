//! GridGraph-style baseline: 2-level hierarchical partitioning with a
//! streaming-apply push model (Zhu, Han, Chen — USENIX ATC'15).
//!
//! Edges are partitioned into a `P×P` grid of blocks keyed by
//! (source interval, destination interval) and stored as plain edge
//! lists (8–12 bytes per record — deliberately the less compact format
//! the HUS-Graph paper contrasts its dual-block records against, §4.4).
//! An iteration streams blocks in destination-major order: per
//! destination column, the destination vertex chunk is loaded once, and
//! each block with at least one active source vertex is streamed in full
//! with updates applied on the fly. **Selective scheduling operates at
//! block granularity**: a block whose source interval has *any* active
//! vertex is streamed whole — there is no per-vertex selective load,
//! which is exactly the I/O HUS-Graph's ROP saves.

use crate::common::BaselineConfig;
use hus_core::active::ActiveSet;
use hus_core::predict::{Decision, UpdateModel};
use hus_core::program::EdgeCtx;
use hus_core::stats::{RunRecorder, RunStats};
use hus_core::vertex_store::VertexStore;
use hus_core::VertexProgram;
use hus_gen::EdgeList;
use hus_obs::span;
use hus_storage::{Access, ReadBackend, Result, StorageDir, StorageError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Grid manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridMeta {
    /// Vertex count.
    pub num_vertices: u32,
    /// Edge count.
    pub num_edges: u64,
    /// Grid dimension `P`.
    pub p: u32,
    /// Whether records carry weights.
    pub weighted: bool,
    /// Interval boundaries (`p + 1` entries).
    pub interval_starts: Vec<u32>,
    /// Record counts per block, destination-major: entry `j * p + i` is
    /// block `(i, j)`; blocks are stored contiguously in this order.
    pub block_counts: Vec<u64>,
}

impl GridMeta {
    /// Record size in bytes.
    pub fn record_bytes(&self) -> u64 {
        if self.weighted {
            12
        } else {
            8
        }
    }

    /// Record count of block `(i, j)`.
    pub fn block_count(&self, i: usize, j: usize) -> u64 {
        self.block_counts[j * self.p as usize + i]
    }

    /// Byte offset of block `(i, j)` in the grid file (destination-major
    /// storage order — the streaming order).
    pub fn block_offset(&self, i: usize, j: usize) -> u64 {
        let idx = j * self.p as usize + i;
        self.block_counts[..idx].iter().sum::<u64>() * self.record_bytes()
    }
}

const GRID_META: &str = "grid_meta.json";
const GRID_EDGES: &str = "grid.edges";

/// A built GridGraph-style representation.
pub struct GridStore {
    dir: StorageDir,
    meta: GridMeta,
    edges: Arc<dyn ReadBackend>,
    out_degrees: Vec<u32>,
}

impl GridStore {
    /// Build the grid representation of `el` into `dir` with `p²` blocks.
    pub fn build_into(el: &EdgeList, dir: &StorageDir, p: u32) -> Result<Self> {
        el.validate().map_err(StorageError::Corrupt)?;
        let p = p.clamp(1, el.num_vertices.max(1));
        let starts = hus_core::partition::interval_starts(
            el.num_vertices,
            p,
            hus_core::partition::PartitionStrategy::EqualVertices,
            &[],
        );
        let pu = p as usize;
        let weighted = el.is_weighted();

        // Bucket destination-major.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); pu * pu];
        for (k, e) in el.edges.iter().enumerate() {
            let i = hus_core::partition::interval_of(&starts, e.src);
            let j = hus_core::partition::interval_of(&starts, e.dst);
            buckets[j * pu + i].push(k as u32);
        }

        let mut w = dir.writer(GRID_EDGES)?;
        let mut block_counts = vec![0u64; pu * pu];
        for (b, ids) in buckets.iter().enumerate() {
            block_counts[b] = ids.len() as u64;
            for &k in ids {
                let e = &el.edges[k as usize];
                w.write_pod(&e.src)?;
                w.write_pod(&e.dst)?;
                if weighted {
                    w.write_pod(&el.weights.as_ref().unwrap()[k as usize])?;
                }
            }
        }
        w.finish()?;

        let meta = GridMeta {
            num_vertices: el.num_vertices,
            num_edges: el.num_edges() as u64,
            p,
            weighted,
            interval_starts: starts,
            block_counts,
        };
        dir.put_meta(GRID_META, &serde_json::to_string_pretty(&meta).expect("serializes"))?;
        // Out-degrees (GridGraph keeps per-vertex metadata for PageRank).
        let mut dw = dir.writer("grid_degrees.bin")?;
        dw.write_pod_slice(&el.out_degrees())?;
        dw.finish()?;
        Self::open(dir.clone())
    }

    /// Open a previously built grid directory.
    pub fn open(dir: StorageDir) -> Result<Self> {
        let meta: GridMeta = serde_json::from_str(&dir.get_meta(GRID_META)?)
            .map_err(|e| StorageError::Corrupt(format!("bad grid meta: {e}")))?;
        let edges = dir.reader(GRID_EDGES)?;
        let deg_bytes = std::fs::read(dir.path("grid_degrees.bin"))
            .map_err(|e| StorageError::io_at(dir.path("grid_degrees.bin"), e))?;
        let out_degrees = hus_storage::pod::to_vec::<u32>(&deg_bytes)?;
        Ok(GridStore { dir, meta, edges, out_degrees })
    }

    /// The manifest.
    pub fn meta(&self) -> &GridMeta {
        &self.meta
    }

    /// Storage directory (tracker).
    pub fn dir(&self) -> &StorageDir {
        &self.dir
    }
}

/// The streaming-apply engine.
pub struct GridGraphEngine<'a, Pr: VertexProgram> {
    store: &'a GridStore,
    program: &'a Pr,
    config: BaselineConfig,
}

impl<'a, Pr: VertexProgram> GridGraphEngine<'a, Pr> {
    /// Create an engine for `program` over the grid store.
    pub fn new(store: &'a GridStore, program: &'a Pr, config: BaselineConfig) -> Self {
        GridGraphEngine { store, program, config }
    }

    /// Execute to convergence (or `max_iterations`).
    pub fn run(&self) -> Result<(Vec<Pr::Value>, RunStats)> {
        let meta = &self.store.meta;
        let v = meta.num_vertices;
        let p = meta.p as usize;
        let m = meta.record_bytes() as usize;
        let mut rec = RunRecorder::start("gridgraph", &self.store.dir, self.config.threads);
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

            // Which source intervals have any active vertex (block-level
            // selective scheduling).
            let row_active: Vec<bool> = (0..p)
                .map(|i| {
                    active.count_range(meta.interval_starts[i], meta.interval_starts[i + 1]) > 0
                })
                .collect();

            // Destination-major streaming-apply pass.
            for j in 0..p {
                let _s = span!("stream.column", interval = j);
                let dst_base = meta.interval_starts[j];
                // D_j: destination chunk, loaded once per column,
                // initialized from reset(S_j).
                let s_j = values.load_current(j, Access::Sequential)?;
                let mut d_j: Vec<Pr::Value> = s_j
                    .iter()
                    .enumerate()
                    .map(|(k, val)| self.program.reset(dst_base + k as u32, val))
                    .collect();
                #[allow(clippy::needless_range_loop)] // i indexes meta tables and chunk state alike
                for i in 0..p {
                    if !row_active[i] || meta.block_count(i, j) == 0 {
                        continue; // selective scheduling skips the block
                    }
                    let s_i = values.load_current(i, Access::Sequential)?;
                    let src_base = meta.interval_starts[i];
                    // Stream the whole block — edge-list records.
                    let count = meta.block_count(i, j) as usize;
                    let mut bytes = vec![0u8; count * m];
                    self.store.edges.read_at(
                        meta.block_offset(i, j),
                        &mut bytes,
                        Access::Sequential,
                    )?;
                    edges_this_iter += count as u64;
                    for r in 0..count {
                        let rec = &bytes[r * m..(r + 1) * m];
                        let src = u32::from_le_bytes(rec[0..4].try_into().unwrap());
                        if !active.get(src) {
                            continue; // streamed but not applied
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
                        let src_val = &s_i[(src - src_base) as usize];
                        if let Some(msg) = self.program.scatter(src_val, &ctx) {
                            if self.program.combine(&mut d_j[(dst - dst_base) as usize], msg) {
                                next_active.set(dst);
                            }
                        }
                    }
                }
                values.write_next(j, &d_j)?;
            }
            {
                let _s = span!("sync");
                for j in 0..p {
                    values.commit(j);
                }
            }

            // GridGraph is a pure push system (paper §2.2).
            let push = Decision::forced(UpdateModel::Rop, false);
            rec.end_iteration(push, None, (p as u32, 0), edges_this_iter);
            active = next_active;
        }
        rec.finish(converged, Default::default(), || values.read_all_current())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_algos::{reference, Bfs, PageRank, Wcc};
    use hus_gen::{classic, Csr};

    fn grid(el: &EdgeList, p: u32) -> (tempfile::TempDir, GridStore) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("gg")).unwrap();
        let store = GridStore::build_into(el, &dir, p).unwrap();
        (tmp, store)
    }

    #[test]
    fn block_layout_is_destination_major_and_complete() {
        let el = hus_gen::rmat(100, 600, 2, hus_gen::RmatConfig::default());
        let (_t, store) = grid(&el, 4);
        let total: u64 = store.meta.block_counts.iter().sum();
        assert_eq!(total, el.num_edges() as u64);
        assert_eq!(store.dir.file_len(GRID_EDGES).unwrap(), total * store.meta.record_bytes());
        // Offsets are monotone in storage order.
        let mut prev = 0;
        for j in 0..4 {
            for i in 0..4 {
                let off = store.meta.block_offset(i, j);
                assert!(off >= prev);
                prev = off;
            }
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let el = hus_gen::rmat(200, 1500, 3, hus_gen::RmatConfig::default());
        let csr = Csr::from_edge_list(&el);
        let want = reference::bfs_levels(&csr, 0);
        let (_t, store) = grid(&el, 4);
        let (got, stats) =
            GridGraphEngine::new(&store, &Bfs::new(0), BaselineConfig::default()).run().unwrap();
        assert!(stats.converged);
        assert_eq!(got, want);
    }

    #[test]
    fn wcc_matches_reference() {
        let el = hus_gen::rmat(150, 500, 4, hus_gen::RmatConfig::default()).symmetrize();
        let csr = Csr::from_edge_list(&el);
        let want = reference::wcc_labels(&csr);
        let (_t, store) = grid(&el, 3);
        let (got, _) = GridGraphEngine::new(&store, &Wcc, BaselineConfig::default()).run().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn pagerank_matches_reference() {
        let el = hus_gen::rmat(120, 900, 5, hus_gen::RmatConfig::default());
        let csr = Csr::from_edge_list(&el);
        let want = reference::pagerank(&csr, 0.85, 5);
        let (_t, store) = grid(&el, 3);
        let cfg = BaselineConfig { max_iterations: 5, ..Default::default() };
        let (got, _) = GridGraphEngine::new(&store, &PageRank::new(120), cfg).run().unwrap();
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= 1e-3 * w.max(1e-6), "v{v}: {g} vs {w}");
        }
    }

    #[test]
    fn selective_scheduling_skips_inactive_blocks() {
        // Path graph, BFS from the last vertex: frontier is empty after
        // one iteration, so almost no blocks stream.
        let el = classic::path(100);
        let (_t, store) = grid(&el, 4);
        store.dir().tracker().reset();
        let (_vals, stats) =
            GridGraphEngine::new(&store, &Bfs::new(99), BaselineConfig::default()).run().unwrap();
        // Vertex 99 has no out-edges: one iteration, zero edges streamed
        // except blocks of its (active) interval.
        let streamed = stats.edges_processed;
        assert!(streamed < el.num_edges() as u64, "streamed {streamed}");
    }

    #[test]
    fn streams_whole_blocks_for_single_active_vertex() {
        // One active source in an interval forces the entire block row
        // to stream — the waste HUS's ROP avoids.
        let el = hus_gen::rmat(200, 2000, 6, hus_gen::RmatConfig::default());
        let (_t, store) = grid(&el, 2);
        let (_vals, stats) =
            GridGraphEngine::new(&store, &Bfs::new(0), BaselineConfig::default()).run().unwrap();
        let first_iter = &stats.iterations[0];
        // Vertex 0's interval spans half the grid: both its blocks
        // stream fully even though only vertex 0 is active.
        let row0_edges: u64 = (0..2).map(|j| store.meta.block_count(0, j)).sum();
        assert_eq!(first_iter.edges_processed, row0_edges);
        assert!(row0_edges as f64 > store.out_degrees[0] as f64);
    }

    #[test]
    fn io_is_sequential_only() {
        let el = hus_gen::rmat(100, 700, 7, hus_gen::RmatConfig::default());
        let (_t, store) = grid(&el, 2);
        let (_vals, stats) =
            GridGraphEngine::new(&store, &Bfs::new(0), BaselineConfig::default()).run().unwrap();
        assert_eq!(stats.total_io.rand_read_bytes, 0, "GridGraph never reads randomly");
        assert!(stats.total_io.seq_read_bytes > 0);
    }
}
