//! The build child: everything the program does before the measured
//! region, timed. One repetition is build + open, plus what the workload
//! adds (a working copy and `DynamicGraph::open`; a daemon start up to its
//! first `status` reply). Repetitions continue until two exist and a
//! second has gone into them; `setup_s` is the fastest. The last build
//! stays on disk for the run child.

use crate::harness::{timed, Res};
use crate::inputs::read_facts;
use crate::report::Samples;
use crate::{host, inputs, spec, trace};
use husgraph::codec::Codec;
use husgraph::core::{build, build_external, BuildConfig, DynamicGraph, HusGraph, ListSource};
use husgraph::gen::EdgeList;
use husgraph::serve::{serve, Client, ServeConfig, Server};
use husgraph::storage::StorageDir;
use std::path::Path;
use std::time::Instant;

/// Intervals per graph, all workloads.
pub const P: u32 = 8;
/// Edges of the `P = 1` delta-varint build whose single block (4 MB
/// decoded) cannot enter its 2 MiB cache shard.
pub const MISS_PROBE_EDGES: usize = 1_000_000;

pub fn codec_of(workload: &str) -> Codec {
    if workload == "pr_dv" {
        Codec::DeltaVarint
    } else {
        Codec::Raw
    }
}

/// Copy the regular files of a built graph directory (it is flat; engine
/// scratch subdirectories are not part of the graph).
pub fn copy_graph(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

pub fn remove_dir(path: &Path) {
    if path.exists() {
        std::fs::remove_dir_all(path).ok();
    }
}

/// Start the daemon the way `lookup_serve` runs it and return it with a
/// connected client that has seen one `status` reply.
pub fn start_daemon(graph: &Path) -> Res<(Server, Client)> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_inflight: 8,
        query_threads: 1,
        ..ServeConfig::from_env()
    };
    let server = serve(StorageDir::open(graph)?, config)?;
    let mut client = Client::connect(&server.addr().to_string())?;
    let reply = client.request_raw("{\"op\":\"status\"}")?;
    if !reply.contains("\"ok\":true") {
        return Err(format!("daemon status: {reply}").into());
    }
    Ok((server, client))
}

pub fn build_into(el: &EdgeList, dir: &Path, p: u32, codec: Codec) -> Res<()> {
    remove_dir(dir);
    build(el, &StorageDir::create(dir)?, &BuildConfig::with_p_codec(p, codec))?;
    Ok(())
}

pub fn run(workload: &str, wdir: &Path, traced: bool) -> Res<Samples> {
    host::pin_to_first(spec::cpus_of(workload).ok_or("unknown workload")?)?;
    trace::set_on(traced);
    let facts = read_facts(&wdir.join("in"))?;
    let edges: f64 = inputs::fact(&facts, "num_edges")?;
    let el = husgraph::gen::io::read_binary(wdir.join("in/edges.husg"))?;
    let graph = wdir.join("graph");
    let codec = codec_of(workload);
    let mut out = Samples::default();

    let began = Instant::now();
    while out.get("setup_s").len() < 2 || began.elapsed().as_secs_f64() < 1.0 {
        let (r, build_s) = timed("build.build", || build_into(&el, &graph, P, codec));
        r?;
        let (g, open_s) = timed("graph.open", || HusGraph::open(StorageDir::open(&graph)?));
        drop(g?);
        let mut total = build_s + open_s;
        match workload {
            "delta_mixed" => {
                let copy = wdir.join("setup_copy");
                remove_dir(&copy);
                let (r, s) = timed("delta.copy_open", || -> Res<()> {
                    copy_graph(&graph, &copy)?;
                    DynamicGraph::open(StorageDir::open(&copy)?)?;
                    Ok(())
                });
                r?;
                total += s;
                remove_dir(&copy);
            }
            "lookup_serve" => {
                let (r, s) = timed("serve.start", || start_daemon(&graph));
                let (mut server, client) = r?;
                total += s;
                drop(client);
                server.shutdown();
            }
            _ => {}
        }
        out.push("setup_s", total);
        out.push("build.medges_per_s", edges / build_s / 1e6);
        out.push("graph.open_ms", open_s * 1e3);
    }
    out.push("disk_bytes_per_edge", StorageDir::open(&graph)?.disk_footprint()? as f64 / edges);

    if traced {
        match workload {
            // The same edges under the raw codec, and a one-block build
            // too large for the decoded-block cache: the run child
            // compares `pr_dv` against both.
            "pr_dv" => {
                build_into(&el, &wdir.join("graph_raw"), P, Codec::Raw)?;
                let prefix = EdgeList {
                    num_vertices: el.num_vertices,
                    edges: el.edges[..el.edges.len().min(MISS_PROBE_EDGES)].to_vec(),
                    weights: None,
                };
                build_into(&prefix, &wdir.join("graph_p1"), 1, Codec::DeltaVarint)?;
            }
            "bfs_mesh" => {
                let ext = wdir.join("graph_ext");
                remove_dir(&ext);
                let dir = StorageDir::create(&ext)?;
                let config = BuildConfig::with_p_codec(P, codec);
                let (r, s) =
                    timed("build.external", || build_external(&ListSource(&el), &dir, &config));
                r?;
                out.push("build.ext_medges_per_s", edges / s / 1e6);
                remove_dir(&ext);
            }
            _ => {}
        }
        trace::finish(&wdir.with_file_name(format!("trace_{workload}_build.jsonl")))?;
    }
    Ok(out)
}
