//! Query execution against one pinned [`GraphSnapshot`].
//!
//! Point lookups (`degree`, `neighbors`, `khop`) read the way ROP does
//! (paper §3.3, `LoadOutEdges`): one hop of a sorted frontier walks its
//! source interval's out-blocks in order, probes the index entries of
//! the frontier's vertices that the block's resident occupancy bitmap
//! says have edges there, in one batched read per block
//! ([`HusGraph::load_out_index_entries`]), and fetches the found record
//! ranges through [`rop::fetch_selective`] — nearby ranges merged into
//! one batched read. So a degree-0 vertex never probes, and a block
//! that holds none of the frontier is skipped without I/O. A lookup
//! touches only the blocks its frontier lives in, whatever codec or
//! backend the graph was built with. Full analytics instantiate an
//! [`Engine`] run on the shared snapshot, exactly the code path the CLI
//! uses, which is what makes serve results bit-identical to
//! single-threaded CLI runs.
//!
//! Every fetch is charged to the query's [`ByteMeter`] before it is
//! made; analytics are charged a pre-flight whole-scan estimate instead
//! so an over-budget scan is rejected before it starts, not after it
//! finished.

use hus_algos::{Bfs, PageRank, PersonalizedPageRank, Sssp, Wcc};
use hus_core::meta::INDEX_PROBE_BYTES;
use hus_core::partition::interval_of;
use hus_core::rop::{self, DEFAULT_MERGE_SLACK};
use hus_core::{check_deadline, Deadline, Engine, HusGraph, RunConfig, VertexProgram};
use hus_storage::pod;

use crate::admission::ByteMeter;
use crate::protocol::{Op, ResponseBuilder};
use crate::snapshot::GraphSnapshot;
use crate::{fnv1a64, ServeError};

/// Reject a vertex id outside the graph as a bad request.
fn check_vertex(graph: &HusGraph, v: u32) -> Result<(), ServeError> {
    let n = graph.meta().num_vertices;
    if v >= n {
        return Err(ServeError::BadRequest(format!("vertex {v} out of range (|V| = {n})")));
    }
    Ok(())
}

/// One hop from `frontier` (sorted, duplicate-free, in range): `emit`
/// receives every out-neighbor, block by block. Per source interval the
/// out-blocks are walked in ascending order; each probes, in one batched
/// read, the frontier's vertices that its occupancy bitmap holds, then
/// fetches their ranges. The meter is charged [`INDEX_PROBE_BYTES`] per
/// probe and the record bytes before each read; the deadline is checked
/// per probed block. A frontier of one vertex yields its neighbors in
/// ascending order.
fn expand(
    graph: &HusGraph,
    frontier: &[u32],
    meter: &mut ByteMeter,
    deadline: Option<&Deadline>,
    mut emit: impl FnMut(u32),
) -> Result<(), ServeError> {
    let meta = graph.meta();
    let rec_bytes = meta.edge_record_bytes();
    let (mut locals, mut ranges) = (Vec::new(), Vec::new());
    let mut rest = frontier;
    while let Some(&first) = rest.first() {
        let i = interval_of(&meta.interval_starts, first);
        let base = meta.interval_start(i);
        let (here, later) =
            rest.split_at(rest.partition_point(|&u| u < meta.interval_starts[i + 1]));
        rest = later;
        for j in 0..graph.p() {
            locals.clear();
            locals.extend(here.iter().map(|&u| (u - base) as usize));
            graph.retain_out_occupied(i, j, &mut locals);
            if locals.is_empty() {
                continue;
            }
            check_deadline(deadline)?;
            meter.charge(locals.len() as u64 * INDEX_PROBE_BYTES)?;
            let entries = graph.load_out_index_entries(i, j, &locals)?;
            ranges.clear();
            ranges
                .extend(locals.iter().zip(entries).map(|(&l, (lo, hi))| (base + l as u32, lo, hi)));
            let records: u64 = ranges.iter().map(|&(_, lo, hi)| u64::from(hi - lo)).sum();
            meter.charge(records * rec_bytes)?;
            rop::fetch_selective(graph, (i, j), &ranges, Some(DEFAULT_MERGE_SLACK), |_, recs| {
                recs.into_iter().for_each(|(w, _)| emit(w))
            })?;
        }
    }
    Ok(())
}

/// Sorted out-neighbors of `v`: [`expand`] from `[v]`.
fn neighbors(
    graph: &HusGraph,
    v: u32,
    meter: &mut ByteMeter,
    deadline: Option<&Deadline>,
) -> Result<Vec<u32>, ServeError> {
    check_vertex(graph, v)?;
    let mut out = Vec::with_capacity(graph.out_degrees()[v as usize] as usize);
    expand(graph, &[v], meter, deadline, |w| out.push(w))?;
    Ok(out)
}

/// Breadth-first expansion from `v` for at most `depth` hops, one
/// [`expand`] per hop. Returns the sorted visited set (root included),
/// read off a `|V|`-bit visited bitset, and the frontier size per
/// completed hop.
fn khop(
    graph: &HusGraph,
    v: u32,
    depth: u32,
    meter: &mut ByteMeter,
    deadline: Option<&Deadline>,
) -> Result<(Vec<u32>, Vec<u64>), ServeError> {
    check_vertex(graph, v)?;
    let mut visited = vec![0u64; (graph.meta().num_vertices as usize).div_ceil(64)];
    visited[v as usize / 64] |= 1 << (v % 64);
    let mut frontier = vec![v];
    let mut frontier_sizes = Vec::new();
    for hop in 1..=depth {
        let mut next = Vec::new();
        expand(graph, &frontier, meter, deadline, |w| {
            let (word, bit) = (&mut visited[w as usize / 64], 1u64 << (w % 64));
            if *word & bit == 0 {
                *word |= bit;
                next.push(w);
            }
        })?;
        if next.is_empty() {
            break;
        }
        frontier_sizes.push(next.len() as u64);
        // Only a frontier that is expanded again needs [`expand`]'s order.
        if hop < depth {
            next.sort_unstable();
        }
        frontier = next;
    }
    let count = 1 + frontier_sizes.iter().sum::<u64>() as usize;
    let mut all = Vec::with_capacity(count);
    for (k, &word) in visited.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            all.push(k as u32 * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    Ok((all, frontier_sizes))
}

/// Pre-flight byte charge for a full analytics run: `scans` whole-graph
/// edge scans at the encoded (on-disk) size. Coarse by design — the
/// budget gates whether a scan may start at all; per-fetch accounting
/// for scans would only reject them after the I/O was already done.
fn preflight(graph: &HusGraph, scans: u64, meter: &mut ByteMeter) -> Result<(), ServeError> {
    meter.charge(scans.max(1) * graph.meta().encoded_edge_bytes())
}

fn run_program<Pr: VertexProgram>(
    graph: &HusGraph,
    program: &Pr,
    threads: usize,
    max_iterations: usize,
    deadline: Option<&Deadline>,
) -> Result<Vec<Pr::Value>, ServeError> {
    let config =
        RunConfig { threads, max_iterations, deadline: deadline.copied(), ..Default::default() };
    let (values, _stats) = Engine::new(graph, program, config).run()?;
    Ok(values)
}

/// Execute one query op against `snap`, appending result fields to
/// `resp`. Admin ops (`status`, `shutdown`) are the server's job and
/// rejected here. `deadline`, when set, is checked cooperatively at
/// block boundaries of every fetch loop and engine iteration; crossing
/// it surfaces as the typed `deadline` error.
pub fn execute(
    snap: &GraphSnapshot,
    op: &Op,
    meter: &mut ByteMeter,
    threads: usize,
    deadline: Option<&Deadline>,
    resp: ResponseBuilder,
) -> Result<ResponseBuilder, ServeError> {
    let graph = snap.graph();
    let threads = threads.max(1);
    match *op {
        Op::Degree { v } => {
            check_vertex(graph, v)?;
            meter.charge(4)?;
            Ok(resp.u64("degree", u64::from(graph.out_degrees()[v as usize])))
        }
        Op::Neighbors { v } => {
            let nbrs = neighbors(graph, v, meter, deadline)?;
            let hash = fnv1a64(pod::as_bytes(&nbrs));
            Ok(resp
                .u64("count", nbrs.len() as u64)
                .u64_array("neighbors", nbrs.into_iter().map(u64::from))
                .u64("hash", hash))
        }
        Op::KHop { v, depth } => {
            let (visited, frontier) = khop(graph, v, depth, meter, deadline)?;
            let hash = fnv1a64(pod::as_bytes(&visited));
            Ok(resp
                .u64("count", visited.len() as u64)
                .u64_array("frontier", frontier)
                .u64("hash", hash))
        }
        Op::Bfs { source } => {
            check_vertex(graph, source)?;
            preflight(graph, 1, meter)?;
            let levels = run_program(graph, &Bfs::new(source), threads, 1_000, deadline)?;
            let reached = levels.iter().filter(|&&l| l != hus_algos::UNREACHED).count();
            Ok(resp.u64("reached", reached as u64).u64("hash", fnv1a64(pod::as_bytes(&levels))))
        }
        Op::Sssp { source } => {
            check_vertex(graph, source)?;
            preflight(graph, 1, meter)?;
            let dist = run_program(graph, &Sssp::new(source), threads, 1_000, deadline)?;
            let reached = dist.iter().filter(|d| d.is_finite()).count();
            Ok(resp.u64("reached", reached as u64).u64("hash", fnv1a64(pod::as_bytes(&dist))))
        }
        Op::Wcc => {
            preflight(graph, 1, meter)?;
            let labels = run_program(graph, &Wcc, threads, 1_000, deadline)?;
            let mut roots: Vec<u32> = labels.clone();
            roots.sort_unstable();
            roots.dedup();
            Ok(resp
                .u64("components", roots.len() as u64)
                .u64("hash", fnv1a64(pod::as_bytes(&labels))))
        }
        Op::PageRank { iters } => {
            preflight(graph, u64::from(iters), meter)?;
            let n = graph.meta().num_vertices;
            let ranks = run_program(graph, &PageRank::new(n), threads, iters as usize, deadline)?;
            Ok(finish_ranks(resp, &ranks))
        }
        Op::Ppr { source, iters } => {
            check_vertex(graph, source)?;
            preflight(graph, u64::from(iters), meter)?;
            let ranks = run_program(
                graph,
                &PersonalizedPageRank::new(source),
                threads,
                iters as usize,
                deadline,
            )?;
            Ok(finish_ranks(resp, &ranks))
        }
        // Chaos-harness ops: the server gates these behind
        // `ServeConfig::chaos_ops` before calling in; executing one here
        // exercises the worker's panic containment / slow-query paths.
        Op::ChaosPanic => panic!("chaos_panic op requested by the chaos harness"),
        Op::ChaosSleep { ms } => {
            std::thread::sleep(std::time::Duration::from_millis(ms.min(10_000)));
            Ok(resp.u64("slept_ms", ms.min(10_000)))
        }
        Op::Status | Op::Shutdown => {
            Err(ServeError::BadRequest("admin ops are handled by the server".into()))
        }
    }
}

fn finish_ranks(resp: ResponseBuilder, ranks: &[f32]) -> ResponseBuilder {
    let top = ranks
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(v, _)| v as u64);
    resp.u64("top", top).u64("hash", fnv1a64(pod::as_bytes(ranks)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_core::{BuildConfig, DynamicGraph, HusGraph};
    use hus_gen::{Csr, Edge, EdgeList};
    use hus_storage::StorageDir;
    use std::collections::BTreeSet;

    fn snapshot() -> (tempfile::TempDir, crate::SnapshotManager) {
        let tmp = tempfile::tempdir().unwrap();
        let el = hus_gen::rmat(100, 600, 11, Default::default());
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        let mgr = crate::SnapshotManager::open(dir).unwrap();
        (tmp, mgr)
    }

    #[test]
    fn neighbors_match_degree_and_are_sorted() {
        let (_tmp, mgr) = snapshot();
        let snap = mgr.current();
        let g = snap.graph();
        let mut meter = ByteMeter::new(0);
        for v in 0..g.meta().num_vertices {
            let nbrs = neighbors(g, v, &mut meter, None).unwrap();
            assert_eq!(nbrs.len() as u32, g.out_degrees()[v as usize], "vertex {v}");
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "vertex {v} not sorted");
        }
        assert!(meter.spent() > 0);
    }

    #[test]
    fn khop_visited_set_equals_bfs_levels() {
        let (_tmp, mgr) = snapshot();
        let snap = mgr.current();
        let g = snap.graph();
        let depth = 2u32;
        let (visited, _) = khop(g, 0, depth, &mut ByteMeter::new(0), None).unwrap();
        let levels = run_program(g, &Bfs::new(0), 1, 1_000, None).unwrap();
        let expected: Vec<u32> =
            (0..g.meta().num_vertices).filter(|&v| levels[v as usize] <= depth).collect();
        assert_eq!(visited, expected);
    }

    const N: u32 = 300;

    fn edge_list(edges: &BTreeSet<(u32, u32)>) -> EdgeList {
        EdgeList {
            num_vertices: N,
            edges: edges.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            weights: None,
        }
    }

    /// `khop` from first principles: the visited set (root included) and
    /// the size of every non-empty hop.
    fn khop_truth(csr: &Csr, v: u32, depth: u32) -> (Vec<u32>, Vec<u64>) {
        let mut seen = BTreeSet::from([v]);
        let (mut frontier, mut sizes) = (vec![v], Vec::new());
        for _ in 0..depth {
            let next: Vec<u32> = frontier
                .iter()
                .flat_map(|&u| csr.out_neighbors(u))
                .copied()
                .filter(|&w| seen.insert(w))
                .collect();
            if next.is_empty() {
                break;
            }
            sizes.push(next.len() as u64);
            frontier = next;
        }
        (seen.into_iter().collect(), sizes)
    }

    /// Every vertex's `neighbors` (list, so count, order and hash) and
    /// `khop` at depths 0–3 (visited set, so count and hash, and the
    /// frontier sizes) against the CSR of `edges`. A `neighbors` lookup
    /// is charged one probe per out-block whose occupancy bitmap holds
    /// the vertex plus its records, so a vertex without out-edges is
    /// answered without charging a byte.
    fn assert_lookups_match_csr(g: &HusGraph, edges: &BTreeSet<(u32, u32)>, what: &str) {
        let csr = Csr::from_edge_list(&edge_list(edges));
        let meta = g.meta();
        for v in 0..N {
            let mut want = csr.out_neighbors(v).to_vec();
            want.sort_unstable();
            let mut meter = ByteMeter::new(0);
            assert_eq!(neighbors(g, v, &mut meter, None).unwrap(), want, "{what}: vertex {v}");
            let i = interval_of(&meta.interval_starts, v);
            let holds = |j| {
                let mut local = vec![(v - meta.interval_start(i)) as usize];
                g.retain_out_occupied(i, j, &mut local);
                !local.is_empty()
            };
            let blocks = (0..g.p()).filter(|&j| holds(j)).count() as u64;
            let bill = blocks * INDEX_PROBE_BYTES + want.len() as u64 * meta.edge_record_bytes();
            assert_eq!(meter.spent(), bill, "{what}: vertex {v} ({blocks} blocks)");
            for depth in 0..=3 {
                let got = khop(g, v, depth, &mut ByteMeter::new(0), None).unwrap();
                assert_eq!(got, khop_truth(&csr, v, depth), "{what}: vertex {v} depth {depth}");
            }
        }
    }

    fn build(edges: &BTreeSet<(u32, u32)>, codec: &str) -> (tempfile::TempDir, StorageDir) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let config =
            BuildConfig { p: Some(4), codec: codec.parse().unwrap(), ..Default::default() };
        hus_core::build(&edge_list(edges), &dir, &config).unwrap();
        (tmp, dir)
    }

    fn base_edges() -> BTreeSet<(u32, u32)> {
        hus_gen::rmat(N, 2400, 5, Default::default()).edges.iter().map(|e| (e.src, e.dst)).collect()
    }

    #[test]
    fn lookups_match_csr_on_raw_and_delta_varint_graphs() {
        let edges = base_edges();
        for codec in ["raw", "delta-varint"] {
            let (_tmp, dir) = build(&edges, codec);
            assert_lookups_match_csr(&HusGraph::open(dir).unwrap(), &edges, codec);
        }
    }

    /// Buffered (unflushed) inserts and deletes: the overlay blocks'
    /// occupancy bitmaps decide which blocks a vertex probes, so a vertex
    /// that lost every out-edge must not probe and one that gained its
    /// first must.
    #[test]
    fn lookups_match_csr_through_buffered_updates() {
        let mut edges = base_edges();
        let (_tmp, dir) = build(&edges, "raw");
        let mut dg = DynamicGraph::open(dir).unwrap();
        let mut degrees = vec![0u32; N as usize];
        edges.iter().for_each(|&(s, _)| degrees[s as usize] += 1);
        let hub = (0..N).max_by_key(|&v| degrees[v as usize]).unwrap();
        let lonely = (0..N).rev().find(|&v| degrees[v as usize] == 0).expect("a degree-0 vertex");
        let mut delete: Vec<(u32, u32)> = edges.range((hub, 0)..(hub + 1, 0)).copied().collect();
        delete.extend(edges.iter().step_by(37).copied());
        for (s, d) in delete {
            dg.delete_edge(s, d).unwrap();
            edges.remove(&(s, d));
        }
        let mut insert = vec![(lonely, 0), (lonely, N - 1), (lonely, lonely)];
        insert.extend((0..60u64).map(|k| {
            let r = hus_gen::types::splitmix64(k);
            ((r % u64::from(N)) as u32, (r >> 32) as u32 % N)
        }));
        for (s, d) in insert {
            dg.insert_edge(s, d, 1.0).unwrap();
            edges.insert((s, d));
        }
        let g = dg.snapshot().unwrap();
        assert_eq!(g.out_degrees()[hub as usize], 0);
        assert_lookups_match_csr(g, &edges, "buffered updates");
    }

    /// Half the bill of the costliest depth-3 `khop` is crossed after its
    /// first fetches were charged and surfaces as the typed `budget`
    /// error; an expired deadline surfaces as `deadline`.
    #[test]
    fn budget_and_deadline_stay_typed_mid_expansion() {
        let (_tmp, mgr) = snapshot();
        let snap = mgr.current();
        let g = snap.graph();
        let cost = |v: u32| {
            let mut meter = ByteMeter::new(0);
            khop(g, v, 3, &mut meter, None).unwrap();
            meter.spent()
        };
        let v = (0..g.meta().num_vertices).max_by_key(|&v| cost(v)).unwrap();
        let err = khop(g, v, 3, &mut ByteMeter::new(cost(v) / 2), None).unwrap_err();
        assert_eq!(err.code(), "budget", "{err}");
        let past = Deadline {
            at: std::time::Instant::now() - std::time::Duration::from_millis(1),
            budget_ms: 3,
        };
        let err = khop(g, v, 3, &mut ByteMeter::new(0), Some(&past)).unwrap_err();
        assert_eq!(err.code(), "deadline", "{err}");
    }

    #[test]
    fn out_of_range_vertex_is_bad_request() {
        let (_tmp, mgr) = snapshot();
        let snap = mgr.current();
        let err = execute(
            &snap,
            &Op::Degree { v: 10_000 },
            &mut ByteMeter::new(0),
            1,
            None,
            ResponseBuilder::ok(None, snap.generation()),
        )
        .unwrap_err();
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn expired_deadline_yields_the_typed_code() {
        let (_tmp, mgr) = snapshot();
        let snap = mgr.current();
        let past = Deadline {
            at: std::time::Instant::now() - std::time::Duration::from_millis(1),
            budget_ms: 3,
        };
        for op in [Op::Neighbors { v: 0 }, Op::KHop { v: 0, depth: 3 }, Op::Wcc] {
            let err = execute(
                &snap,
                &op,
                &mut ByteMeter::new(0),
                1,
                Some(&past),
                ResponseBuilder::ok(None, snap.generation()),
            )
            .unwrap_err();
            assert_eq!(err.code(), "deadline", "{op:?}: {err}");
        }
    }

    #[test]
    fn analytics_preflight_rejects_tiny_budget() {
        let (_tmp, mgr) = snapshot();
        let snap = mgr.current();
        let err = execute(
            &snap,
            &Op::PageRank { iters: 5 },
            &mut ByteMeter::new(16),
            1,
            None,
            ResponseBuilder::ok(None, snap.generation()),
        )
        .unwrap_err();
        assert_eq!(err.code(), "budget");
    }
}
