//! End-to-end contract of `hus serve` (DESIGN.md §12):
//!
//! * concurrent mixed queries against a live daemon are **bit-identical**
//!   to single-threaded CLI-style runs, across read backends × codecs
//!   (the response carries an FNV-1a hash of the full value vector);
//! * admission control rejects over-capacity queries with a typed
//!   `busy` error and byte budgets reject over-budget queries with a
//!   typed `budget` error;
//! * MVCC snapshot isolation: queries in flight across ingest and
//!   compaction finish on the generation they started on, and new
//!   queries see the new generation once the refresher re-pins.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

use husgraph::algos::{Bfs, PageRank, PersonalizedPageRank, Sssp, Wcc};
use husgraph::codec::Codec;
use husgraph::core::{BuildConfig, DynamicGraph, Engine, HusGraph, RunConfig, VertexProgram};
use husgraph::gen::{Edge, EdgeList};
use husgraph::serve::client::{error_code, field_u64, is_ok};
use husgraph::serve::{fnv1a64, serve, Client, ServeConfig};
use husgraph::storage::{pod, BackendKind, StorageDir};

const NV: u32 = 200;
const P: u32 = 4;
const PR_ITERS: u32 = 5;
const KHOP_DEPTH: u32 = 2;
const SOURCE: u32 = 3;

/// Deduplicated deterministic edge set (the builder keeps duplicates,
/// so dedup up front to make the adjacency truth exact).
fn edge_list() -> (EdgeList, BTreeSet<(u32, u32)>) {
    let raw = husgraph::gen::rmat(NV, 1200, 99, Default::default());
    let set: BTreeSet<(u32, u32)> = raw.edges.iter().map(|e| (e.src, e.dst)).collect();
    let el = EdgeList {
        num_vertices: NV,
        edges: set.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
        weights: None,
    };
    (el, set)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_inflight: 4,
        byte_budget: 0,
        accept_queue: 16,
        query_threads: 1,
        refresh_interval_ms: 25,
        deadline_ms: 0,
        idle_ms: 30_000,
        chaos_ops: false,
    }
}

/// Expected results computed the single-threaded CLI way: open through
/// `DynamicGraph` (delta runs layered), run the engine with one thread.
struct Expected {
    degrees: Vec<u32>,
    neighbor_hashes: BTreeMap<u32, (u64, u64)>,
    khop: (u64, u64),
    bfs: (u64, u64),
    sssp: (u64, u64),
    wcc: (u64, u64),
    pagerank: u64,
    ppr: u64,
}

fn open_snapshot(root: &Path, backend: BackendKind) -> HusGraph {
    DynamicGraph::open(StorageDir::open(root).unwrap().with_backend(backend))
        .unwrap()
        .into_snapshot()
        .unwrap()
}

fn run1<Pr: VertexProgram>(g: &HusGraph, pr: &Pr, iters: usize) -> Vec<Pr::Value> {
    let cfg = RunConfig { threads: 1, max_iterations: iters, ..Default::default() };
    Engine::new(g, pr, cfg).run().unwrap().0
}

fn expected(root: &Path, backend: BackendKind, truth: &BTreeSet<(u32, u32)>) -> Expected {
    let g = open_snapshot(root, backend);
    let degrees = g.out_degrees().to_vec();
    let mut neighbor_hashes = BTreeMap::new();
    for v in [0u32, SOURCE, 17, 100, NV - 1] {
        let nbrs: Vec<u32> = truth.iter().filter(|&&(s, _)| s == v).map(|&(_, d)| d).collect();
        neighbor_hashes.insert(v, (nbrs.len() as u64, fnv1a64(pod::as_bytes(&nbrs))));
    }
    let levels = run1(&g, &Bfs::new(SOURCE), 1_000);
    let bfs_reached = levels.iter().filter(|&&l| l != husgraph::algos::UNREACHED).count() as u64;
    let visited: Vec<u32> = (0..NV).filter(|&v| levels[v as usize] <= KHOP_DEPTH).collect();
    let khop = (visited.len() as u64, fnv1a64(pod::as_bytes(&visited)));
    let bfs = (bfs_reached, fnv1a64(pod::as_bytes(&levels)));
    let dist = run1(&g, &Sssp::new(SOURCE), 1_000);
    let sssp =
        (dist.iter().filter(|d| d.is_finite()).count() as u64, fnv1a64(pod::as_bytes(&dist)));
    let labels = run1(&g, &Wcc, 1_000);
    let mut roots = labels.clone();
    roots.sort_unstable();
    roots.dedup();
    let wcc = (roots.len() as u64, fnv1a64(pod::as_bytes(&labels)));
    let ranks = run1(&g, &PageRank::new(NV), PR_ITERS as usize);
    let pagerank = fnv1a64(pod::as_bytes(&ranks));
    let ppr_ranks = run1(&g, &PersonalizedPageRank::new(SOURCE), PR_ITERS as usize);
    let ppr = fnv1a64(pod::as_bytes(&ppr_ranks));
    Expected { degrees, neighbor_hashes, khop, bfs, sssp, wcc, pagerank, ppr }
}

/// One client's worth of mixed queries, all asserted bit-identical to
/// the single-threaded expectation.
fn mixed_queries(addr: &str, exp: &Expected, label: &str) {
    let mut c = Client::connect(addr).unwrap();
    for (&v, &(count, hash)) in &exp.neighbor_hashes {
        let r = c.request(&format!(r#"{{"op":"degree","v":{v}}}"#)).unwrap();
        assert!(is_ok(&r), "{label} degree({v}): {r:?}");
        assert_eq!(field_u64(&r, "degree"), Some(u64::from(exp.degrees[v as usize])), "{label}");
        let r = c.request(&format!(r#"{{"op":"neighbors","v":{v}}}"#)).unwrap();
        assert!(is_ok(&r), "{label} neighbors({v}): {r:?}");
        assert_eq!(field_u64(&r, "count"), Some(count), "{label} neighbors({v})");
        assert_eq!(field_u64(&r, "hash"), Some(hash), "{label} neighbors({v})");
    }
    let r = c.request(&format!(r#"{{"op":"khop","v":{SOURCE},"depth":{KHOP_DEPTH}}}"#)).unwrap();
    assert!(is_ok(&r), "{label} khop: {r:?}");
    assert_eq!(field_u64(&r, "count"), Some(exp.khop.0), "{label} khop count");
    assert_eq!(field_u64(&r, "hash"), Some(exp.khop.1), "{label} khop hash");
    for (op, line, (reached, hash)) in [
        ("bfs", format!(r#"{{"op":"bfs","source":{SOURCE}}}"#), exp.bfs),
        ("sssp", format!(r#"{{"op":"sssp","source":{SOURCE}}}"#), exp.sssp),
        ("wcc", r#"{"op":"wcc"}"#.to_string(), exp.wcc),
    ] {
        let r = c.request(&line).unwrap();
        assert!(is_ok(&r), "{label} {op}: {r:?}");
        let got_count = field_u64(&r, "reached").or_else(|| field_u64(&r, "components"));
        assert_eq!(got_count, Some(reached), "{label} {op} count");
        assert_eq!(field_u64(&r, "hash"), Some(hash), "{label} {op} hash");
    }
    let r = c.request(&format!(r#"{{"op":"pagerank","iters":{PR_ITERS}}}"#)).unwrap();
    assert!(is_ok(&r), "{label} pagerank: {r:?}");
    assert_eq!(field_u64(&r, "hash"), Some(exp.pagerank), "{label} pagerank hash");
    let r = c.request(&format!(r#"{{"op":"ppr","source":{SOURCE},"iters":{PR_ITERS}}}"#)).unwrap();
    assert!(is_ok(&r), "{label} ppr: {r:?}");
    assert_eq!(field_u64(&r, "hash"), Some(exp.ppr), "{label} ppr hash");
}

#[test]
fn concurrent_queries_bit_identical_across_backends_and_codecs() {
    let (el, truth) = edge_list();
    for codec in [Codec::Raw, Codec::DeltaVarint] {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(P, codec)).unwrap();
        for backend in [BackendKind::File, BackendKind::Mmap, BackendKind::Direct] {
            let label = format!("{codec:?}/{backend:?}");
            let exp = expected(&tmp.path().join("g"), backend, &truth);
            let serve_dir = StorageDir::open(tmp.path().join("g")).unwrap().with_backend(backend);
            let mut server = serve(serve_dir, test_config()).unwrap();
            let addr = server.addr().to_string();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| mixed_queries(&addr, &exp, &label));
                }
            });
            // Wire-op shutdown drains the daemon like SIGTERM would.
            let mut c = Client::connect(&addr).unwrap();
            let r = c.request(r#"{"op":"shutdown"}"#).unwrap();
            assert!(is_ok(&r), "{label} shutdown: {r:?}");
            server.wait();
        }
    }
}

#[test]
fn status_reports_snapshot_and_capacity() {
    let (el, _) = edge_list();
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    HusGraph::build_into(&el, &dir, &BuildConfig::with_p(P)).unwrap();
    let mut server = serve(dir, test_config()).unwrap();
    let mut c = Client::connect(&server.addr().to_string()).unwrap();
    let r = c.request(r#"{"id":9,"op":"status"}"#).unwrap();
    assert!(is_ok(&r), "{r:?}");
    assert_eq!(field_u64(&r, "id"), Some(9));
    assert_eq!(field_u64(&r, "runs"), Some(0));
    assert_eq!(field_u64(&r, "active"), Some(0));
    assert_eq!(field_u64(&r, "capacity"), Some(4));
    assert_eq!(field_u64(&r, "num_vertices"), Some(u64::from(NV)));
    assert!(field_u64(&r, "generation").is_some());
    server.shutdown();
}

/// Every analytics query is an engine run with a derived scratch
/// directory, which must go with the query: a long-lived daemon would
/// otherwise grow the graph directory by two vertex stores per request.
#[test]
fn analytics_queries_leave_no_scratch_behind() {
    let (el, _) = edge_list();
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    HusGraph::build_into(&el, &dir, &BuildConfig::with_p(P)).unwrap();
    let footprint = dir.disk_footprint().unwrap();
    let mut server = serve(dir.clone(), test_config()).unwrap();
    let mut c = Client::connect(&server.addr().to_string()).unwrap();
    for line in [
        format!(r#"{{"op":"bfs","source":{SOURCE}}}"#),
        format!(r#"{{"op":"pagerank","iters":{PR_ITERS}}}"#),
    ] {
        let r = c.request(&line).unwrap();
        assert!(is_ok(&r), "{line}: {r:?}");
    }
    server.shutdown();
    let left: Vec<_> = std::fs::read_dir(dir.root())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.contains("scratch"))
        .collect();
    assert!(left.is_empty(), "queries left {left:?} behind");
    assert_eq!(dir.disk_footprint().unwrap(), footprint);
}

#[test]
fn byte_budget_rejects_with_typed_error() {
    let (el, _) = edge_list();
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    HusGraph::build_into(&el, &dir, &BuildConfig::with_p(P)).unwrap();
    // Budget big enough for a point lookup, far too small for a scan.
    let config = ServeConfig { byte_budget: 256, ..test_config() };
    let mut server = serve(dir, config).unwrap();
    let mut c = Client::connect(&server.addr().to_string()).unwrap();
    let r = c.request(r#"{"op":"degree","v":0}"#).unwrap();
    assert!(is_ok(&r), "cheap lookup fits the budget: {r:?}");
    let r = c.request(r#"{"op":"pagerank","iters":5}"#).unwrap();
    assert!(!is_ok(&r), "{r:?}");
    assert_eq!(error_code(&r), Some("budget"), "{r:?}");
    assert!(field_u64(&r, "needed").unwrap() > 256, "{r:?}");
    assert_eq!(field_u64(&r, "budget"), Some(256));
    // The connection survives a rejected query.
    let r = c.request(r#"{"op":"degree","v":1}"#).unwrap();
    assert!(is_ok(&r), "{r:?}");
    server.shutdown();
}

#[test]
fn admission_control_rejects_when_slots_are_full() {
    let (el, _) = edge_list();
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    HusGraph::build_into(&el, &dir, &BuildConfig::with_p(P)).unwrap();
    let config = ServeConfig { max_inflight: 1, ..test_config() };
    let mut server = serve(dir, config).unwrap();
    let addr = server.addr().to_string();

    // Client A occupies the only slot with a long always-active run.
    let addr_a = addr.clone();
    let slow = std::thread::spawn(move || {
        let mut a = Client::connect(&addr_a).unwrap();
        a.request(r#"{"op":"pagerank","iters":4000}"#).unwrap()
    });
    // Status bypasses admission: poll until A holds the slot.
    let mut status = Client::connect(&addr).unwrap();
    let mut active = 0;
    for _ in 0..2_000 {
        let r = status.request(r#"{"op":"status"}"#).unwrap();
        active = field_u64(&r, "active").unwrap();
        if active >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(active, 1, "client A never acquired the slot");
    // While the slot is held, any query is rejected busy.
    let mut b = Client::connect(&addr).unwrap();
    let r = b.request(r#"{"op":"degree","v":0}"#).unwrap();
    assert!(!is_ok(&r), "{r:?}");
    assert_eq!(error_code(&r), Some("busy"), "{r:?}");
    // But admin ops still work under overload.
    let r = status.request(r#"{"op":"status"}"#).unwrap();
    assert!(is_ok(&r), "{r:?}");
    // A's query was admitted first and completes normally.
    let r = slow.join().unwrap();
    assert!(is_ok(&r), "{r:?}");
    // Slot released: B is admitted now.
    let r = b.request(r#"{"op":"degree","v":0}"#).unwrap();
    assert!(is_ok(&r), "{r:?}");
    server.shutdown();
}

#[test]
fn snapshot_isolation_across_ingest_and_compaction() {
    let (el, _) = edge_list();
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path().join("g");
    let dir = StorageDir::create(&root).unwrap();
    HusGraph::build_into(&el, &dir, &BuildConfig::with_p(P)).unwrap();

    // Pre-update expectation, single-threaded.
    let g0 = open_snapshot(&root, BackendKind::File);
    let pre_ranks = run1(&g0, &PageRank::new(NV), 2_000);
    let pre_hash = fnv1a64(pod::as_bytes(&pre_ranks));
    let pre_edges = g0.num_edges();
    drop(g0);

    let mut server = serve(StorageDir::open(&root).unwrap(), test_config()).unwrap();
    let addr = server.addr().to_string();
    let gen0 = {
        let mut c = Client::connect(&addr).unwrap();
        let r = c.request(r#"{"op":"status"}"#).unwrap();
        field_u64(&r, "generation").unwrap()
    };

    // Long query pinned to generation 0 (always-active, 2000 iters).
    let addr_q = addr.clone();
    let old_reader = std::thread::spawn(move || {
        let mut c = Client::connect(&addr_q).unwrap();
        c.request(r#"{"op":"pagerank","iters":2000}"#).unwrap()
    });
    // Wait until it holds a slot so it's genuinely in flight.
    let mut status = Client::connect(&addr).unwrap();
    for _ in 0..2_000 {
        let r = status.request(r#"{"op":"status"}"#).unwrap();
        if field_u64(&r, "active").unwrap() >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Ingest + flush (new delta run, generation bump), then compact
    // (whole-directory staged swap) — under the live server.
    let mut dg = DynamicGraph::open(StorageDir::open(&root).unwrap()).unwrap();
    for k in 0..40u32 {
        dg.insert_edge(k % NV, (k * 7 + 1) % NV, 1.0).unwrap();
    }
    dg.flush().unwrap();
    assert!(dg.compact().unwrap());
    drop(dg);

    // The in-flight query finishes on the OLD generation: bit-identical
    // to the pre-update run.
    let r = old_reader.join().unwrap();
    assert!(is_ok(&r), "{r:?}");
    assert_eq!(field_u64(&r, "generation"), Some(gen0), "old reader kept its pin");
    assert_eq!(field_u64(&r, "hash"), Some(pre_hash), "old reader saw pre-update data");

    // The refresher re-pins; new queries see the new generation.
    let mut new_gen = gen0;
    for _ in 0..400 {
        let r = status.request(r#"{"op":"status"}"#).unwrap();
        new_gen = field_u64(&r, "generation").unwrap();
        if new_gen > gen0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(new_gen > gen0, "snapshot never refreshed past generation {gen0}");

    // Post-update expectation, computed the single-threaded way.
    let g1 = open_snapshot(&root, BackendKind::File);
    let post_ranks = run1(&g1, &PageRank::new(NV), PR_ITERS as usize);
    let post_hash = fnv1a64(pod::as_bytes(&post_ranks));
    assert!(g1.num_edges() > pre_edges, "ingest added edges");
    drop(g1);

    let mut c = Client::connect(&addr).unwrap();
    let r = c.request(&format!(r#"{{"op":"pagerank","iters":{PR_ITERS}}}"#)).unwrap();
    assert!(is_ok(&r), "{r:?}");
    assert_eq!(field_u64(&r, "generation"), Some(new_gen));
    assert_eq!(field_u64(&r, "hash"), Some(post_hash), "new reader sees post-update data");
    server.shutdown();
}

fn small_server() -> (tempfile::TempDir, husgraph::serve::Server) {
    let (el, _) = edge_list();
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    HusGraph::build_into(&el, &dir, &BuildConfig::with_p(P)).unwrap();
    let server = serve(dir, test_config()).unwrap();
    (tmp, server)
}

/// Read one `\n`-terminated line; `None` at EOF.
fn read_reply(reader: &mut impl BufRead) -> Option<String> {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.strip_suffix('\n').map(str::to_string)
}

/// Pipelined requests written at once are answered in order, each with
/// exactly the bytes it gets when sent alone.
#[test]
fn pipelined_requests_are_answered_in_order_byte_for_byte() {
    let (_tmp, mut server) = small_server();
    let addr = server.addr().to_string();
    let requests: Vec<String> = (0..64u32)
        .map(|id| {
            let v = id * 3 % NV;
            match id % 3 {
                0 => format!(r#"{{"id":{id},"op":"degree","v":{v}}}"#),
                1 => format!(r#"{{"id":{id},"op":"neighbors","v":{v}}}"#),
                _ => format!(r#"{{"id":{id},"op":"khop","v":{v},"depth":2}}"#),
            }
        })
        .collect();
    let mut c = Client::connect(&addr).unwrap();
    let alone: Vec<String> = requests.iter().map(|r| c.request_raw(r).unwrap()).collect();

    let mut stream = TcpStream::connect(&addr).unwrap();
    let batch: String = requests.iter().map(|r| format!("{r}\n")).collect();
    stream.write_all(batch.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for (id, want) in alone.iter().enumerate() {
        assert!(want.starts_with(&format!(r#"{{"id":{id},"ok":true,"#)), "{want}");
        assert_eq!(read_reply(&mut reader).as_ref(), Some(want), "reply {id}");
    }
    server.shutdown();
}

/// A request trickled in one byte per segment is reassembled.
#[test]
fn a_request_sent_one_byte_at_a_time_is_answered() {
    let (_tmp, mut server) = small_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for b in b"{\"id\":5,\"op\":\"degree\",\"v\":3}\n" {
        stream.write_all(&[*b]).unwrap();
    }
    let reply = read_reply(&mut BufReader::new(stream)).unwrap();
    assert!(reply.starts_with(r#"{"id":5,"ok":true,"#), "{reply}");
    assert!(reply.contains(r#""degree":"#), "{reply}");
    server.shutdown();
}

/// A client streaming bytes with no newline is cut off at the line cap
/// with one typed reply, and the daemon keeps serving others.
#[test]
fn an_overlong_request_line_is_rejected_and_closed() {
    let (_tmp, mut server) = small_server();
    let addr = server.addr().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    // The daemon stops reading at the cap, so the tail may be refused.
    let _ = stream.write_all(&vec![b'x'; 100 << 10]);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reader = BufReader::new(stream);
    let reply = read_reply(&mut reader).unwrap();
    assert_eq!(
        reply,
        r#"{"ok":false,"code":"bad_request","error":"bad request: request line exceeds 65536 bytes"}"#
    );
    assert_eq!(read_reply(&mut reader), None, "connection closed after the reply");

    let r = Client::connect(&addr).unwrap().request(r#"{"op":"degree","v":1}"#).unwrap();
    assert!(is_ok(&r), "{r:?}");
    server.shutdown();
}
