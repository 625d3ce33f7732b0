//! GraphChi-style baseline: parallel sliding windows (Kyrola, Blelloch,
//! Guestrin — OSDI'12).
//!
//! The graph is split into `P` shards by destination interval, each
//! sorted by source. Executing interval `j` loads its *memory shard*
//! (all in-edges of interval `j`) plus a *sliding window* of every other
//! shard (the records whose sources lie in interval `j` — interval `j`'s
//! out-edges), reconstructs the in-edge subgraph in memory (the
//! "time-consuming subgraph construction phase" the HUS-Graph paper
//! calls out, §4.4), runs the vertex-centric update, and **writes the
//! edge values back** — messages travel through per-edge values on disk,
//! which is what makes GraphChi's I/O volume large (reads *and* writes
//! roughly `2·E` edge values per iteration).
//!
//! Like the original, execution is asynchronous: values written by
//! earlier execution intervals of an iteration are visible to later
//! ones. Propagation algorithms reach the same fixpoint as the
//! synchronous engines; PageRank reaches the same fixpoint along a
//! slightly different trajectory (the tests compare converged ranks).

use crate::common::BaselineConfig;
use hus_core::active::ActiveSet;
use hus_core::predict::{Decision, UpdateModel};
use hus_core::program::EdgeCtx;
use hus_core::stats::{RunRecorder, RunStats};
use hus_core::VertexProgram;
use hus_gen::EdgeList;
use hus_obs::span;
use hus_storage::TrackedFile;
use hus_storage::{pod, Access, ReadBackend, Result, StorageDir, StorageError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// PSW manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PswMeta {
    /// Vertex count.
    pub num_vertices: u32,
    /// Edge count.
    pub num_edges: u64,
    /// Shard count `P`.
    pub p: u32,
    /// Whether records carry weights.
    pub weighted: bool,
    /// Interval boundaries (`p + 1` entries).
    pub interval_starts: Vec<u32>,
    /// Per shard: `p + 1` record indices delimiting the source-interval
    /// windows (shard records are sorted by source, so window `i` of
    /// shard `k` is records `window_offsets[k][i]..window_offsets[k][i+1]`).
    pub window_offsets: Vec<Vec<u64>>,
}

impl PswMeta {
    /// Edge record size in bytes (src + dst [+ weight]).
    pub fn record_bytes(&self) -> u64 {
        if self.weighted {
            12
        } else {
            8
        }
    }

    /// Record count of shard `k`.
    pub fn shard_count(&self, k: usize) -> u64 {
        *self.window_offsets[k].last().unwrap()
    }
}

const PSW_META: &str = "psw_meta.json";

fn shard_file(k: usize) -> String {
    format!("psw_shard_{k}.edges")
}

/// A built PSW representation.
pub struct PswStore {
    dir: StorageDir,
    meta: PswMeta,
    shards: Vec<Arc<dyn ReadBackend>>,
    out_degrees: Vec<u32>,
}

impl PswStore {
    /// Build the PSW shards of `el` into `dir`.
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

        // Bucket by destination interval, then sort each shard by source.
        let mut shard_edges: Vec<Vec<u32>> = vec![Vec::new(); pu];
        for (k, e) in el.edges.iter().enumerate() {
            let j = hus_core::partition::interval_of(&starts, e.dst);
            shard_edges[j].push(k as u32);
        }
        let mut window_offsets = Vec::with_capacity(pu);
        for (j, ids) in shard_edges.iter_mut().enumerate() {
            ids.sort_by_key(|&k| el.edges[k as usize].src);
            let mut w = dir.writer(&shard_file(j))?;
            let mut offsets = vec![0u64; pu + 1];
            for &k in ids.iter() {
                let e = &el.edges[k as usize];
                let i = hus_core::partition::interval_of(&starts, e.src);
                offsets[i + 1] += 1;
                w.write_pod(&e.src)?;
                w.write_pod(&e.dst)?;
                if weighted {
                    w.write_pod(&el.weights.as_ref().unwrap()[k as usize])?;
                }
            }
            for i in 0..pu {
                offsets[i + 1] += offsets[i];
            }
            window_offsets.push(offsets);
            w.finish()?;
        }

        let meta = PswMeta {
            num_vertices: el.num_vertices,
            num_edges: el.num_edges() as u64,
            p,
            weighted,
            interval_starts: starts,
            window_offsets,
        };
        dir.put_meta(PSW_META, &serde_json::to_string_pretty(&meta).expect("serializes"))?;
        let mut dw = dir.writer("psw_degrees.bin")?;
        dw.write_pod_slice(&el.out_degrees())?;
        dw.finish()?;
        Self::open(dir.clone())
    }

    /// Open a previously built PSW directory.
    pub fn open(dir: StorageDir) -> Result<Self> {
        let meta: PswMeta = serde_json::from_str(&dir.get_meta(PSW_META)?)
            .map_err(|e| StorageError::Corrupt(format!("bad psw meta: {e}")))?;
        let shards =
            (0..meta.p as usize).map(|k| dir.reader(&shard_file(k))).collect::<Result<Vec<_>>>()?;
        let deg_bytes = std::fs::read(dir.path("psw_degrees.bin"))
            .map_err(|e| StorageError::io_at(dir.path("psw_degrees.bin"), e))?;
        let out_degrees = pod::to_vec::<u32>(&deg_bytes)?;
        Ok(PswStore { dir, meta, shards, out_degrees })
    }

    /// The manifest.
    pub fn meta(&self) -> &PswMeta {
        &self.meta
    }

    /// Storage directory (tracker).
    pub fn dir(&self) -> &StorageDir {
        &self.dir
    }

    fn read_records(&self, k: usize, lo: u64, hi: u64) -> Result<Vec<u8>> {
        let m = self.meta.record_bytes();
        let mut bytes = vec![0u8; ((hi - lo) * m) as usize];
        if hi > lo {
            self.shards[k].read_at(lo * m, &mut bytes, Access::Sequential)?;
        }
        Ok(bytes)
    }
}

/// Per-run edge-value state for one shard (values + validity bytes).
struct ShardValues<V> {
    vals: TrackedFile,
    valid: TrackedFile,
    _marker: std::marker::PhantomData<V>,
}

impl<V: pod::Pod> ShardValues<V> {
    fn create(scratch: &StorageDir, k: usize, count: u64) -> Result<Self> {
        let vals = scratch.update(&format!("vals_{k}.bin"))?;
        let valid = scratch.update(&format!("valid_{k}.bin"))?;
        vals.set_len(count * std::mem::size_of::<V>() as u64)?;
        valid.set_len(count)?;
        Ok(ShardValues { vals, valid, _marker: std::marker::PhantomData })
    }

    fn load(&self, lo: u64, hi: u64) -> Result<(Vec<V>, Vec<u8>)> {
        let n = (hi - lo) as usize;
        let vals = hus_storage::read_pod_vec::<V, _>(
            &self.vals,
            lo * std::mem::size_of::<V>() as u64,
            n,
            Access::Sequential,
        )?;
        let valid = hus_storage::read_pod_vec::<u8, _>(&self.valid, lo, n, Access::Sequential)?;
        Ok((vals, valid))
    }

    fn store(&self, lo: u64, vals: &[V], valid: &[u8]) -> Result<()> {
        self.vals.write_at(lo * std::mem::size_of::<V>() as u64, pod::as_bytes(vals))?;
        self.valid.write_at(lo, valid)?;
        Ok(())
    }
}

/// The PSW engine.
pub struct GraphChiEngine<'a, Pr: VertexProgram> {
    store: &'a PswStore,
    program: &'a Pr,
    config: BaselineConfig,
}

impl<'a, Pr: VertexProgram> GraphChiEngine<'a, Pr> {
    /// Create an engine for `program` over the PSW store.
    pub fn new(store: &'a PswStore, program: &'a Pr, config: BaselineConfig) -> Self {
        GraphChiEngine { store, program, config }
    }

    /// Execute to convergence (or `max_iterations`).
    pub fn run(&self) -> Result<(Vec<Pr::Value>, RunStats)> {
        let meta = &self.store.meta;
        let v = meta.num_vertices;
        let p = meta.p as usize;
        let m = meta.record_bytes() as usize;
        let mut rec = RunRecorder::start("graphchi", &self.store.dir, self.config.threads);
        let scratch = rec.scratch(self.config.scratch_name.as_deref())?;
        // Per-shard edge-value state, zero-initialized (invalid).
        let shard_values: Vec<ShardValues<Pr::Value>> = (0..p)
            .map(|k| ShardValues::create(&scratch, k, meta.shard_count(k)))
            .collect::<Result<Vec<_>>>()?;
        // Vertex values (single buffer — PSW is asynchronous).
        let vertex_vals = scratch.update("vertex_vals.bin")?;
        {
            let init: Vec<Pr::Value> = (0..v).map(|x| self.program.init(x)).collect();
            vertex_vals.set_len(v as u64 * std::mem::size_of::<Pr::Value>() as u64)?;
            vertex_vals.write_at(0, pod::as_bytes(&init))?;
        }

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

            for j in 0..p {
                let _s = span!("psw.interval", interval = j);
                edges_this_iter += self.execute_interval(
                    j,
                    m,
                    &shard_values,
                    &vertex_vals,
                    &active,
                    &next_active,
                )?;
            }

            // Vertex-centric gather — the pull side of the paper's
            // classification (§2.2).
            let pull = Decision::forced(UpdateModel::Cop, false);
            rec.end_iteration(pull, None, (0, p as u32), edges_this_iter);
            active = next_active;
        }

        // PSW keeps the vertex values on disk like any other state: the
        // final read is part of the run's I/O.
        let values: Vec<Pr::Value> =
            hus_storage::read_pod_vec(&vertex_vals, 0, v as usize, Access::Sequential)?;
        rec.finish(converged, Default::default(), || Ok(values))
    }

    /// One PSW execution interval: memory shard + sliding windows,
    /// gather-apply-scatter, write-back. Returns edge records touched.
    #[allow(clippy::too_many_arguments)]
    fn execute_interval(
        &self,
        j: usize,
        m: usize,
        shard_values: &[ShardValues<Pr::Value>],
        vertex_vals: &TrackedFile,
        active: &ActiveSet,
        next_active: &ActiveSet,
    ) -> Result<u64> {
        let meta = &self.store.meta;
        let p = meta.p as usize;
        let base = meta.interval_starts[j];
        let len = (meta.interval_starts[j + 1] - base) as usize;
        let value_size = std::mem::size_of::<Pr::Value>() as u64;
        let mut touched = 0u64;

        // --- Load phase ---------------------------------------------------
        // Memory shard: every in-edge of interval j, with values+validity.
        let mem_count = meta.shard_count(j);
        let mem_edges = self.store.read_records(j, 0, mem_count)?;
        let (mut mem_vals, mut mem_valid) = shard_values[j].load(0, mem_count)?;
        touched += mem_count;

        // Sliding windows: interval j's out-edges in every other shard.
        struct Window<V> {
            shard: usize,
            lo: u64,
            edges: Vec<u8>,
            vals: Vec<V>,
            valid: Vec<u8>,
            /// per-local-source record offsets within the window
            src_offsets: Vec<u32>,
        }
        let mut windows: Vec<Window<Pr::Value>> = Vec::with_capacity(p - 1);
        #[allow(clippy::needless_range_loop)] // k indexes meta tables and shard state alike
        for k in 0..p {
            if k == j {
                continue;
            }
            let (lo, hi) = (meta.window_offsets[k][j], meta.window_offsets[k][j + 1]);
            if lo == hi {
                continue;
            }
            let edges = self.store.read_records(k, lo, hi)?;
            let (vals, valid) = shard_values[k].load(lo, hi)?;
            touched += hi - lo;
            let src_offsets = src_offsets_of(&edges, m, base, len);
            windows.push(Window { shard: k, lo, edges, vals, valid, src_offsets });
        }
        // The memory shard's own window (sources in interval j, inside
        // shard j) is scattered to in place.
        let own_lo = meta.window_offsets[j][j] as usize;
        let own_hi = meta.window_offsets[j][j + 1] as usize;
        let own_offsets = src_offsets_of(&mem_edges[own_lo * m..own_hi * m], m, base, len);

        // Vertex values of the execution interval.
        let mut vals: Vec<Pr::Value> = hus_storage::read_pod_vec(
            vertex_vals,
            base as u64 * value_size,
            len,
            Access::Sequential,
        )?;

        // Subgraph construction: in-edge record indices per destination.
        let mut in_counts = vec![0u32; len + 1];
        for r in 0..mem_count as usize {
            let dst = rec_dst(&mem_edges, m, r);
            in_counts[(dst - base) as usize + 1] += 1;
        }
        for i in 0..len {
            in_counts[i + 1] += in_counts[i];
        }
        let mut in_pos = in_counts.clone();
        let mut in_records = vec![0u32; mem_count as usize];
        for r in 0..mem_count as usize {
            let dst = rec_dst(&mem_edges, m, r);
            let slot = &mut in_pos[(dst - base) as usize];
            in_records[*slot as usize] = r as u32;
            *slot += 1;
        }

        // --- Update phase --------------------------------------------------
        for local in 0..len {
            let vertex = base + local as u32;
            // Gather: fold valid in-edge values into reset(prev).
            let prev = vals[local];
            let mut newval = self.program.reset(vertex, &prev);
            for &r in &in_records[in_counts[local] as usize..in_counts[local + 1] as usize] {
                if mem_valid[r as usize] != 0 {
                    self.program.combine(&mut newval, mem_vals[r as usize]);
                }
            }
            let changed = newval != prev;
            if changed {
                vals[local] = newval;
            }
            if !(changed || active.get(vertex)) {
                continue;
            }
            // Scatter: write messages onto the vertex's out-edges. A
            // destination is (re)scheduled only when the edge's value
            // actually changes — GraphChi's selective scheduling; without
            // it the frontier never drains.
            let scatter_region =
                |edges: &[u8], vals: &mut [Pr::Value], valid: &mut [u8], lo: u32, hi: u32| {
                    for r in lo as usize..hi as usize {
                        let dst = rec_dst(edges, m, r);
                        let ctx = EdgeCtx {
                            src: vertex,
                            dst,
                            weight: rec_weight(edges, m, r, meta.weighted),
                            src_out_degree: self.store.out_degrees[vertex as usize],
                        };
                        if let Some(msg) = self.program.scatter(&newval, &ctx) {
                            if valid[r] == 0 || vals[r] != msg {
                                vals[r] = msg;
                                valid[r] = 1;
                                next_active.set(dst);
                            }
                        }
                    }
                };
            // Own-shard region (offsets relative to own window start).
            let (lo, hi) = (own_offsets[local], own_offsets[local + 1]);
            if lo < hi {
                let (lo, hi) = (own_lo as u32 + lo, own_lo as u32 + hi);
                scatter_region(&mem_edges, &mut mem_vals, &mut mem_valid, lo, hi);
            }
            for w in &mut windows {
                let (lo, hi) = (w.src_offsets[local], w.src_offsets[local + 1]);
                if lo < hi {
                    scatter_region(&w.edges, &mut w.vals, &mut w.valid, lo, hi);
                }
            }
        }

        // --- Write-back phase ----------------------------------------------
        shard_values[j].store(0, &mem_vals, &mem_valid)?;
        for w in &windows {
            shard_values[w.shard].store(w.lo, &w.vals, &w.valid)?;
        }
        vertex_vals.write_at(base as u64 * value_size, pod::as_bytes(&vals))?;
        Ok(touched)
    }
}

#[inline]
fn rec_src(edges: &[u8], m: usize, r: usize) -> u32 {
    u32::from_le_bytes(edges[r * m..r * m + 4].try_into().unwrap())
}

#[inline]
fn rec_dst(edges: &[u8], m: usize, r: usize) -> u32 {
    u32::from_le_bytes(edges[r * m + 4..r * m + 8].try_into().unwrap())
}

#[inline]
fn rec_weight(edges: &[u8], m: usize, r: usize, weighted: bool) -> f32 {
    if weighted {
        f32::from_le_bytes(edges[r * m + 8..r * m + 12].try_into().unwrap())
    } else {
        1.0
    }
}

/// Per-local-source record offsets of a source-sorted record region.
fn src_offsets_of(edges: &[u8], m: usize, base: u32, len: usize) -> Vec<u32> {
    let count = edges.len() / m.max(1);
    let mut offsets = vec![0u32; len + 1];
    for r in 0..count {
        let src = rec_src(edges, m, r);
        offsets[(src - base) as usize + 1] += 1;
    }
    for i in 0..len {
        offsets[i + 1] += offsets[i];
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_algos::{reference, Bfs, PageRank, Sssp, Wcc};
    use hus_gen::Csr;

    fn psw(el: &EdgeList, p: u32) -> (tempfile::TempDir, PswStore) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("psw")).unwrap();
        let store = PswStore::build_into(el, &dir, p).unwrap();
        (tmp, store)
    }

    #[test]
    fn window_offsets_partition_each_shard() {
        let el = hus_gen::rmat(100, 700, 2, hus_gen::RmatConfig::default());
        let (_t, store) = psw(&el, 4);
        let total: u64 = (0..4).map(|k| store.meta.shard_count(k)).sum();
        assert_eq!(total, el.num_edges() as u64);
        for k in 0..4 {
            let offs = &store.meta.window_offsets[k];
            assert!(offs.windows(2).all(|w| w[0] <= w[1]), "shard {k}: {offs:?}");
            assert_eq!(offs[0], 0);
        }
    }

    #[test]
    fn bfs_reaches_reference_fixpoint() {
        let el = hus_gen::rmat(200, 1500, 3, hus_gen::RmatConfig::default());
        let csr = Csr::from_edge_list(&el);
        let want = reference::bfs_levels(&csr, 0);
        let (_t, store) = psw(&el, 4);
        let (got, stats) =
            GraphChiEngine::new(&store, &Bfs::new(0), BaselineConfig::default()).run().unwrap();
        assert!(stats.converged);
        assert_eq!(got, want);
    }

    #[test]
    fn wcc_reaches_reference_fixpoint() {
        let el = hus_gen::rmat(120, 500, 4, hus_gen::RmatConfig::default()).symmetrize();
        let csr = Csr::from_edge_list(&el);
        let want = reference::wcc_labels(&csr);
        let (_t, store) = psw(&el, 3);
        let (got, _) = GraphChiEngine::new(&store, &Wcc, BaselineConfig::default()).run().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn sssp_reaches_dijkstra_distances() {
        let el =
            hus_gen::rmat(150, 1100, 5, hus_gen::RmatConfig::default()).with_hash_weights(0.1, 4.0);
        let csr = Csr::from_edge_list(&el);
        let want = reference::sssp_distances(&csr, 0);
        let (_t, store) = psw(&el, 3);
        let (got, _) =
            GraphChiEngine::new(&store, &Sssp::new(0), BaselineConfig::default()).run().unwrap();
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            let ok =
                (g.is_infinite() && w.is_infinite()) || (g - w).abs() <= 1e-4 * w.abs().max(1.0);
            assert!(ok, "v{v}: {g} vs {w}");
        }
    }

    #[test]
    fn pagerank_converges_to_reference_fixpoint() {
        let el = hus_gen::rmat(100, 800, 6, hus_gen::RmatConfig::default());
        let csr = Csr::from_edge_list(&el);
        let want = reference::pagerank(&csr, 0.85, 60);
        let (_t, store) = psw(&el, 3);
        let cfg = BaselineConfig { max_iterations: 60, ..Default::default() };
        let (got, _) = GraphChiEngine::new(&store, &PageRank::new(100), cfg).run().unwrap();
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= 0.02 * w.max(1e-6), "v{v}: {g} vs {w}");
        }
    }

    #[test]
    fn writes_edge_values_every_iteration() {
        // The defining I/O trait of GraphChi: per iteration it writes on
        // the order of the edge-value volume back to disk.
        let el = hus_gen::rmat(150, 1200, 7, hus_gen::RmatConfig::default());
        let (_t, store) = psw(&el, 3);
        let cfg = BaselineConfig { max_iterations: 3, ..Default::default() };
        let (_vals, stats) = GraphChiEngine::new(&store, &PageRank::new(150), cfg).run().unwrap();
        let e = el.num_edges() as u64;
        for it in &stats.iterations {
            // mem shard + windows ≈ 2E values of 4 bytes plus validity.
            assert!(
                it.io.write_bytes >= e * 4,
                "iteration {} wrote only {} bytes for {e} edges",
                it.iteration,
                it.io.write_bytes
            );
        }
    }

    #[test]
    fn io_volume_exceeds_gridgraph_on_pagerank() {
        // Figure 9's qualitative claim, at unit-test scale.
        let el = hus_gen::rmat(200, 1600, 8, hus_gen::RmatConfig::default());
        let (_t1, psw_store) = psw(&el, 3);
        let tmp2 = tempfile::tempdir().unwrap();
        let grid_dir = StorageDir::create(tmp2.path().join("gg")).unwrap();
        let grid = crate::gridgraph::GridStore::build_into(&el, &grid_dir, 3).unwrap();
        let cfg = BaselineConfig { max_iterations: 5, ..Default::default() };
        let (_, chi_stats) =
            GraphChiEngine::new(&psw_store, &PageRank::new(200), cfg.clone()).run().unwrap();
        let (_, grid_stats) =
            crate::gridgraph::GridGraphEngine::new(&grid, &PageRank::new(200), cfg).run().unwrap();
        assert!(
            chi_stats.total_io.total_bytes() > grid_stats.total_io.total_bytes(),
            "GraphChi {} vs GridGraph {}",
            chi_stats.total_io.total_bytes(),
            grid_stats.total_io.total_bytes()
        );
    }
}
