//! Run child of `lookup_serve`: one `hus_serve::Client` in a closed loop
//! (depth 1) against an in-process `serve()` daemon, on one CPU. Client
//! and daemon share that CPU by design: the callers this models are
//! application threads that wait for their reply. The whole seeded stream
//! is sent once (checked, and its I/O counted); one timed sample is then a
//! pass over the stream's first 25 000 requests, so every sample does the
//! same work.

use crate::engine_wl::push_io_counts;
use crate::harness::{sample_loop, timed, Res, SampleCtx};
use crate::inputs::read_u64s;
use crate::report::Samples;
use crate::stats::{median, percentile_sorted};
use crate::{host, probes, setup, trace};
use husgraph::serve::exec::execute;
use husgraph::serve::protocol::{parse_request, ResponseBuilder};
use husgraph::serve::{Admission, ByteMeter, Client, SnapshotManager};
use husgraph::storage::{DeviceProfile, StorageDir};
use std::path::Path;
use std::time::Instant;

/// Requests of one timed sample: the first this many of the stream.
const TIMED_PREFIX: usize = 25_000;
/// Requests per op class timed stage by stage in process.
const STAGE_BATCH: usize = 512;
const OPS: [&str; 3] = ["degree", "neighbors", "khop"];

/// The reply field that carries each op's answer.
fn answer_field(op: usize) -> &'static str {
    ["\"degree\":", "\"hash\":", "\"count\":"][op]
}

fn op_of(line: &str) -> usize {
    OPS.iter()
        .position(|op| line.contains(&format!("\"op\":\"{op}\"")))
        .expect("stream holds only lookups")
}

/// The unsigned integer after `field` in a reply line.
fn field_u64(reply: &str, field: &str) -> Option<u64> {
    let rest = &reply[reply.find(field)? + field.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct Stream {
    lines: Vec<String>,
    ops: Vec<usize>,
    expected: Vec<u64>,
}

/// Send request `k` and check the reply against the CSR's answer. Returns
/// the client-observed latency in ns, whether the reply was right, and
/// whether it was a `busy` rejection.
fn lookup(client: &mut Client, stream: &Stream, k: usize) -> Res<(u32, bool, bool)> {
    let t0 = Instant::now();
    let reply = client.request_raw(&stream.lines[k])?;
    let ns = t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
    let ok = reply.contains("\"ok\":true")
        && field_u64(&reply, answer_field(stream.ops[k])) == Some(stream.expected[k]);
    Ok((ns, ok, !ok && reply.contains("\"code\":\"busy\"")))
}

pub fn run(wdir: &Path, seconds: f64, traced_run: bool) -> Res<Samples> {
    host::pin_to_first(1)?;
    let lines: Vec<String> = std::fs::read_to_string(wdir.join("in/requests.txt"))?
        .lines()
        .map(str::to_string)
        .collect();
    let stream = Stream {
        ops: lines.iter().map(|l| op_of(l)).collect(),
        expected: read_u64s(&wdir.join("in/expected.u64"))?,
        lines,
    };
    let n = stream.lines.len();
    if n != stream.expected.len() || n == 0 {
        return Err("request stream and expected answers disagree".into());
    }
    let timed_n = n.min(TIMED_PREFIX);
    let graph = wdir.join("graph");
    let hdd = DeviceProfile::hdd();
    let mut out = Samples::default();
    let (mut server, mut client) = setup::start_daemon(&graph)?;
    let tracker = server.snapshots().current().graph().dir().tracker();
    let result = (|| -> Res<()> {
        let mut latencies: Vec<(u32, u8)> = Vec::new();
        let (mut attempted, mut failed, mut rejected, mut in_region_s) = (0u64, 0u64, 0u64, 0.0);
        // One pass over requests `0..count`: seconds, wrong replies, `busy`.
        let mut pass = |count: usize, latencies: &mut Vec<(u32, u8)>| -> Res<(f64, u64, u64)> {
            let (mut wrong, mut busy) = (0u64, 0u64);
            let (r, wall) = timed("serve.pass", || -> Res<()> {
                for k in 0..count {
                    let (ns, ok, was_busy) = lookup(&mut client, &stream, k)?;
                    latencies.push((ns, stream.ops[k] as u8));
                    wrong += u64::from(!ok);
                    busy += u64::from(was_busy);
                }
                Ok(())
            });
            r?;
            Ok((wall, wrong, busy))
        };

        // The whole stream once: every distinct request is checked, the
        // exact I/O of a fixed request list is read off the daemon's
        // tracker, and the caches the timed passes rely on are warm.
        let io0 = tracker.snapshot();
        let (_, wrong, busy) = pass(n, &mut Vec::new())?;
        let io = tracker.snapshot().since(&io0);
        attempted += n as u64;
        failed += wrong;
        rejected += busy;
        let io_per_100k = 100_000.0 / n as f64;
        let s_per_100k = 100_000.0 / timed_n as f64;

        let host_rows = sample_loop(seconds, traced_run, false, |ctx: SampleCtx| {
            let cpu0 = host::cpu_seconds();
            let (wall, wrong, busy) = pass(timed_n, &mut latencies)?;
            attempted += timed_n as u64;
            failed += wrong;
            rejected += busy;
            in_region_s += wall;
            if !traced_run {
                out.push("run_s", wall * s_per_100k);
            } else if ctx.traced {
                out.push("trace.run_s", wall * s_per_100k);
                out.push("host.cpu_s", host::cpu_seconds() - cpu0);
            } else {
                out.push("plain_run_s", wall * s_per_100k);
            }
            Ok(())
        })?;
        if !traced_run {
            out.push("io_mb", io.total_bytes() as f64 / 1e6 * io_per_100k);
            out.push("modeled_hdd_s", hdd.io_seconds(&io) * io_per_100k);
        } else {
            push_io_counts(&mut out, &io, 0);
        }
        out.push("attempted", attempted as f64);
        out.push("failed", failed as f64);
        if !traced_run {
            return Ok(());
        }

        host_rows.push_traced(&mut out);
        out.push("serve.lookup_qps", latencies.len() as f64 / in_region_s);
        out.push("serve.rejected", rejected as f64);
        let mut all: Vec<u32> = latencies.iter().map(|l| l.0).collect();
        all.sort_unstable();
        let (p50, _) = percentile_sorted(&all, 50.0);
        let (p99, beyond) = percentile_sorted(&all, 99.0);
        out.push("serve.lookup_p50_us", f64::from(p50) / 1e3);
        out.push("serve.lookup_p99_us", f64::from(p99) / 1e3);
        eprintln!("lookup_serve: latency n = {}, {beyond} samples beyond p99", all.len());
        let mut degree: Vec<u32> = latencies.iter().filter(|l| l.1 == 0).map(|l| l.0).collect();
        degree.sort_unstable();
        let client_degree_us = f64::from(percentile_sorted(&degree, 50.0).0) / 1e3;

        trace::set_on(true);
        let in_process_degree_us = stages(&graph, &stream, &mut out)?;
        out.push("serve.socket_us", client_degree_us - in_process_degree_us);
        probes::common(&graph, &mut out)?;
        trace::set_on(false);
        Ok(())
    })();
    drop(client);
    server.shutdown();
    result?;
    Ok(out)
}

/// The daemon's per-request stages called in process through its public
/// functions, a batch of each op class at a time: parse, admit + pin,
/// execute, render. Returns the four stages' sum for `degree`, in us.
fn stages(graph: &Path, stream: &Stream, out: &mut Samples) -> Res<f64> {
    let manager = SnapshotManager::open(StorageDir::open(graph)?)?;
    let admission = Admission::new(8);
    let (mut parse_ns, mut admit_ns, mut render_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut degree_sum_us = 0.0;
    for (op, name) in OPS.iter().enumerate() {
        let lines: Vec<&String> = stream
            .lines
            .iter()
            .zip(&stream.ops)
            .filter(|(_, &o)| o == op)
            .map(|(l, _)| l)
            .take(STAGE_BATCH)
            .collect();
        let n = lines.len().max(1) as f64;
        let (requests, s) = timed("serve.parse", || {
            lines.iter().map(|l| parse_request(l)).collect::<Result<Vec<_>, _>>()
        });
        let requests = requests.map_err(|e| e.to_string())?;
        let parse = s / n;
        let ((), s) = timed("serve.admit_pin", || {
            for _ in &requests {
                let slot = admission.try_acquire();
                let snap = manager.current();
                std::hint::black_box((&slot, &snap));
            }
        });
        let admit = s / n;
        let snap = manager.current();
        let (responses, s) = timed("serve.exec", || {
            requests
                .iter()
                .map(|r| {
                    let mut meter = ByteMeter::new(0);
                    let response = ResponseBuilder::ok(r.id, snap.generation());
                    execute(&snap, &r.op, &mut meter, 1, None, response)
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let responses = responses.map_err(|e| e.to_string())?;
        let exec = s / n;
        let (bytes, s) = timed("serve.render", || {
            responses.into_iter().map(|r| r.render().len()).sum::<usize>()
        });
        std::hint::black_box(bytes);
        let render = s / n;
        parse_ns.push(parse * 1e9);
        admit_ns.push(admit * 1e9);
        render_ns.push(render * 1e9);
        match *name {
            "degree" => {
                out.push("serve.exec_degree_ns", exec * 1e9);
                degree_sum_us = (parse + admit + exec + render) * 1e6;
            }
            "neighbors" => out.push("serve.exec_neighbors_us", exec * 1e6),
            _ => out.push("serve.exec_khop_us", exec * 1e6),
        }
    }
    // The mix is 45/45/10: weight the per-class costs accordingly.
    let mix = |v: &[f64]| 0.45 * v[0] + 0.45 * v[1] + 0.10 * v[2];
    out.push("serve.parse_ns", mix(&parse_ns));
    out.push("serve.admit_pin_ns", median(&admit_ns));
    out.push("serve.render_ns", mix(&render_ns));
    Ok(degree_sum_us)
}
