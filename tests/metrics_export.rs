//! Integration tests for the telemetry layer (DESIGN.md §8): the
//! OpenMetrics exporter must serve a valid exposition while an engine
//! run is in flight, and the resilience counters must surface in the
//! registry and the `/metrics` text when faults are injected.

use husgraph::algos::PageRank;
use husgraph::core::{BuildConfig, Engine, HusGraph, RunConfig};
use husgraph::obs as hus_obs;
use husgraph::storage::{FaultSpec, RetryPolicy, StorageDir};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests that flip the process-global collection/heatmap
/// flags and assert on the shared registry.
static GATE: Mutex<()> = Mutex::new(());

fn build_graph(path: &Path, vertices: u32, edges: usize) -> HusGraph {
    let el = hus_gen::rmat(vertices, edges, 42, Default::default());
    let dir = StorageDir::create(path).unwrap();
    let cfg = BuildConfig::with_p_codec(4, husgraph::codec::Codec::Raw);
    HusGraph::build_into(&el, &dir, &cfg).unwrap()
}

/// Minimal line-level OpenMetrics checker: every line is a
/// `# TYPE`/`# HELP`/`# EOF` comment or `name[{labels}] value` with a
/// parseable float, and the text ends with exactly one `# EOF`.
fn check_exposition(text: &str) -> Result<(), String> {
    let mut saw_eof = false;
    for (ln, line) in text.lines().enumerate() {
        let ctx = |msg: &str| format!("line {}: {msg}: {line:?}", ln + 1);
        if saw_eof {
            return Err(ctx("content after # EOF"));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if rest == "EOF" {
                saw_eof = true;
            } else if let Some(decl) = rest.strip_prefix("TYPE ") {
                let kind = decl.split(' ').nth(1).unwrap_or("");
                if !["counter", "gauge", "histogram", "summary"].contains(&kind) {
                    return Err(ctx("bad metric type"));
                }
            } else if !rest.starts_with("HELP ") {
                return Err(ctx("unknown comment"));
            }
            continue;
        }
        let name_end = line.find(['{', ' ']).ok_or_else(|| ctx("no name/value split"))?;
        let name = &line[..name_end];
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(ctx("bad metric name"));
        }
        let value = line.rsplit(' ').next().unwrap_or("");
        value.parse::<f64>().map_err(|_| ctx("unparseable sample value"))?;
    }
    if saw_eof {
        Ok(())
    } else {
        Err("missing trailing # EOF".into())
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // One write_all: the server reads the request exactly once, so a
    // fragmented request would race its response.
    let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn metrics_endpoint_serves_valid_exposition_during_pagerank() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let tmp = tempfile::tempdir().unwrap();
    let graph = build_graph(&tmp.path().join("g"), 30_000, 300_000);
    hus_obs::set_enabled(true);
    hus_obs::set_heatmap_enabled(true);
    hus_obs::attr::reset();

    let server = hus_obs::export::serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let worker = std::thread::spawn(move || {
        let n = graph.meta().num_vertices;
        let cfg = RunConfig { max_iterations: 20, threads: 2, ..Default::default() };
        Engine::new(&graph, &PageRank::new(n), cfg).run().unwrap().1
    });

    // Scrape while the run is in flight; every response must be a valid
    // exposition (partially-updated registries included).
    let (head, body) = http_get(addr, "/metrics");
    let in_flight = !worker.is_finished();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/openmetrics-text"), "{head}");
    check_exposition(&body).unwrap();
    assert!(body.contains("hus_build_info"), "{body}");

    let (hhead, hbody) = http_get(addr, "/healthz");
    assert!(hhead.starts_with("HTTP/1.1 200"), "{hhead}");
    assert_eq!(hbody, "ok\n");

    let stats = worker.join().unwrap();
    assert_eq!(stats.iterations.len(), 20);
    assert!(in_flight, "run finished before the first scrape; grow the workload");

    // After the run: engine + predictor families and the per-block
    // heatmap gauges must all be present and still valid.
    let (_, body) = http_get(addr, "/metrics");
    check_exposition(&body).unwrap();
    for family in ["hus_engine_iteration", "hus_predict_gated_total", "hus_block_raw_bytes{"] {
        assert!(body.contains(family), "missing {family} in:\n{body}");
    }
    let (nf_head, _) = http_get(addr, "/nope");
    assert!(nf_head.starts_with("HTTP/1.1 404"), "{nf_head}");
    server.shutdown();
}

#[test]
fn resilience_counters_tick_in_registry_and_exposition_under_faults() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    build_graph(&path, 600, 6000);
    hus_obs::set_enabled(true);

    let faults = FaultSpec { seed: 7, eio: 0.05, ..Default::default() };
    let retry = RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_micros(400),
    };
    let dir = StorageDir::open(&path).unwrap().with_retry(retry).with_faults(Some(faults));
    let g = HusGraph::open(dir).unwrap();
    // PageRank (always-active) re-reads the same shard files every
    // iteration, driving each backend's deterministic per-op fault
    // draws deep enough to guarantee injected EIOs.
    let cfg = RunConfig { threads: 1, max_iterations: 5, ..Default::default() };
    let n = g.meta().num_vertices;
    let (_, stats) = Engine::new(&g, &PageRank::new(n), cfg).run().unwrap();
    assert!(stats.resilience.retries > 0, "fault injection produced no retries: {stats:?}");

    // The engine publishes the tracker totals into `resilience.*`
    // gauges each iteration, so the registry mirrors the run's history.
    let reg = hus_obs::metrics::global();
    let gauge = |name: &str| {
        reg.gauge_values().iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0)
    };
    assert!(gauge("resilience.retries") >= stats.resilience.retries);

    // And the exporter renders them as a valid gauge family.
    let body = hus_obs::export::render(reg);
    check_exposition(&body).unwrap();
    let line = body
        .lines()
        .find(|l| l.starts_with("hus_resilience_retries "))
        .expect("hus_resilience_retries sample missing");
    let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(v >= stats.resilience.retries as f64, "{line}");
}
