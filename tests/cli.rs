//! The `hus` binary driven as a user drives it: what a command reports
//! must be what the next process finds on disk, and a reader closing
//! the pipe early is not a crash.

use std::process::{Command, Stdio};

use husgraph::core::{BuildConfig, DynamicGraph, HusGraph, Orientation};
use husgraph::storage::StorageDir;

fn hus() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hus"));
    cmd.env("HUS_NO_FSYNC", "1");
    cmd
}

fn built(tmp: &tempfile::TempDir) -> (std::path::PathBuf, u64) {
    let el = husgraph::gen::rmat(300, 2_000, 5, Default::default());
    let root = tmp.path().join("g");
    let dir = StorageDir::create(&root).unwrap();
    let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(3)).unwrap();
    (root, g.num_edges())
}

#[test]
fn ingest_without_flush_is_durable_when_it_returns() {
    let tmp = tempfile::tempdir().unwrap();
    let (root, base_edges) = built(&tmp);
    let out = hus()
        .arg("ingest")
        .arg(&root)
        .args(["--random", "400", "--seed", "9", "--verify"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("1 delta run(s), 0.0 KB buffered"), "{stdout}");

    // A fresh open sees what the command acked.
    let mut dg = DynamicGraph::open(StorageDir::open(&root).unwrap()).unwrap();
    assert_eq!(dg.run_count(), 1, "the acked updates were committed as one run");
    let edges = dg.snapshot().unwrap().num_edges();
    assert_ne!(edges, base_edges, "the updates changed the edge count");
    assert!(stdout.contains(&format!(": {edges} edges,")), "reported == on disk: {stdout}");
}

#[test]
fn stats_into_a_closed_pipe_exits_without_a_panic() {
    let tmp = tempfile::tempdir().unwrap();
    let (root, _) = built(&tmp);
    let mut child = hus()
        .arg("stats")
        .arg(&root)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the child has opened the graph, let
    // alone printed: its first `println!` hits EPIPE.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked") && !stderr.contains("Broken pipe"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

/// Run `hus` with `args` and require a usage error: exit 1, an
/// `error:` line containing `bound`, and no panic.
fn assert_usage_error(args: &[&str], bound: &str) {
    let out = hus().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let error = stderr.lines().find(|l| l.starts_with("error:")).unwrap_or_default();
    assert!(error.contains(bound), "{args:?} should name {bound:?}: {stderr}");
}

#[test]
fn gen_rejects_parameters_outside_each_family_bounds() {
    let tmp = tempfile::tempdir().unwrap();
    let out = tmp.path().join("out.husg");
    let out = out.to_str().unwrap();
    assert_usage_error(&["gen", "ws", "100", "60", out], "[1, n/2)");
    assert_usage_error(&["gen", "ws", "3", "1", out], "at least 4 vertices");
    assert_usage_error(&["gen", "ba", "10", "20", out], "[1, n)");
    assert_usage_error(&["gen", "rmat", "0", "10", out], "at least 1 vertex");
    assert_usage_error(&["gen", "er", "1", "10", out], "at least 2 vertices");
    assert!(!tmp.path().join("out.husg").exists(), "nothing written");
    // The bounds themselves are accepted.
    let ok = hus().args(["gen", "ws", "100", "49", out]).output().unwrap();
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
}

#[test]
fn build_rejects_zero_partitions() {
    let tmp = tempfile::tempdir().unwrap();
    let input = tmp.path().join("g.husg");
    let input = input.to_str().unwrap();
    let gen = hus().args(["gen", "rmat", "100", "500", input]).output().unwrap();
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    let graph = tmp.path().join("g");
    let graph = graph.to_str().unwrap();
    assert_usage_error(&["build", input, graph, "--p", "0"], "at least 1");
    assert_usage_error(&["build", input, graph, "--p", "0", "--external"], "at least 1");
    assert!(!tmp.path().join("g").exists(), "nothing built");
}

/// A flag's value is not an argument: each flag may come before or
/// after the arguments, and both spellings do the same.
#[test]
fn flags_before_or_after_the_arguments_do_the_same() {
    let (first, last) = (tempfile::tempdir().unwrap(), tempfile::tempdir().unwrap());
    // What `hus args` prints in `cwd`, wall-clock figures cut.
    let run = |cwd: &tempfile::TempDir, args: &[&str]| {
        let out = hus().current_dir(cwd.path()).args(args).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{args:?}: {stdout}{}", String::from_utf8_lossy(&out.stderr));
        let untimed = |l: &str| match l.strip_prefix("built ") {
            Some(_) => l.rsplit_once(", ").map_or(l, |(head, _)| head).to_string(),
            None => l.to_string(),
        };
        stdout.lines().filter(|l| !l.starts_with("wall ")).map(untimed).collect::<Vec<_>>()
    };
    let spellings = [
        (
            ["gen", "--seed", "5", "rmat", "300", "2000", "g.husg"],
            ["gen", "rmat", "300", "2000", "g.husg", "--seed", "5"],
        ),
        (
            ["build", "--p", "4", "--codec", "raw", "g.husg", "g"],
            ["build", "g.husg", "g", "--p", "4", "--codec", "raw"],
        ),
    ];
    for (flags_first, flags_last) in spellings {
        assert_eq!(run(&first, &flags_first), run(&last, &flags_last), "{flags_first:?}");
    }
    let files = |cwd: &tempfile::TempDir| {
        let mut files: Vec<_> = std::fs::read_dir(cwd.path().join("g"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.file_name().unwrap().to_owned(), std::fs::read(&p).unwrap()))
            .collect();
        files.sort();
        files
    };
    assert_eq!(files(&first), files(&last), "both builds write the same graph");
    let built = run(&first, &["stats", "--backend", "mmap", "g"]);
    assert!(built.iter().any(|l| l == "intervals: 4"), "{built:?}");
    assert_eq!(built, run(&last, &["stats", "g", "--backend", "mmap"]));
    let bfs = run(&first, &["bfs", "--mode", "rop", "g", "0"]);
    assert!(bfs.iter().any(|l| l.contains(" ROP ")), "{bfs:?}");
    assert_eq!(bfs, run(&last, &["bfs", "g", "0", "--mode", "rop"]));
}

/// The bytes `hus stats` prints per part of the directory — edge
/// payload, sparse index, `degrees.bin`, footers, metadata files and
/// delta runs — add up to `StorageDir::disk_footprint`, for a fresh
/// build and for one carrying a delta run.
#[test]
fn stats_parts_sum_to_the_disk_footprint() {
    let tmp = tempfile::tempdir().unwrap();
    let (root, _) = built(&tmp);
    for ingest in [false, true] {
        if ingest {
            let out = hus().arg("ingest").arg(&root).args(["--random", "300"]).output().unwrap();
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        }
        let out = hus().arg("stats").arg(&root).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        let footprint = StorageDir::open(&root).unwrap().disk_footprint().unwrap();
        let total = stdout.lines().find_map(|l| l.strip_prefix("bytes on disk: "));
        let total: u64 = total.and_then(|t| t.split(' ').next()?.parse().ok()).expect("a total");
        assert_eq!(total, footprint, "{stdout}");
        let parts: Vec<(&str, u64)> = (stdout.lines())
            .filter_map(|l| {
                let (part, rest) = l.strip_prefix("  ")?.split_once(':')?;
                let bytes = rest.trim_start().strip_suffix(')')?.split(" B (").next()?;
                Some((part, bytes.parse().ok()?))
            })
            .collect();
        let names: Vec<&str> = parts.iter().map(|p| p.0).collect();
        assert_eq!(
            names,
            ["edge payload", "index", "degrees.bin", "footers", "metadata", "delta runs"],
            "no bytes outside the format: {stdout}"
        );
        assert_eq!(parts.iter().map(|p| p.1).sum::<u64>(), footprint, "{stdout}");
        assert_eq!(parts[5].1 > 0, ingest, "{stdout}");
        assert!(stdout.contains("mean block occupancy: "), "{stdout}");
        assert!(stdout.contains("resident index: "), "{stdout}");
    }
}

/// Every per-edge figure `hus stats` prints on a directory with a live
/// delta run is its printed bytes over its printed edge count: the codec
/// line's over the base edges it names (the payload holds each edge once
/// per orientation), the footprint and its parts over the edges served.
#[test]
fn stats_per_edge_figures_follow_from_their_printed_bytes_and_base() {
    let tmp = tempfile::tempdir().unwrap();
    let (root, base_edges) = built(&tmp);
    let out =
        hus().arg("ingest").arg(&root).args(["--random", "400", "--seed", "9"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = hus().arg("stats").arg(&root).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let line = |prefix: &str| {
        let found = stdout.lines().find_map(|l| l.strip_prefix(prefix));
        found.unwrap_or_else(|| panic!("no {prefix:?} line: {stdout}"))
    };
    let close = |printed: f64, bytes: f64, edges: f64| {
        assert!(
            (printed - bytes / edges).abs() <= 0.005,
            "{printed} vs {bytes} / {edges}: {stdout}"
        );
    };

    let served = number_between(line("edges:"), "", " ");
    let on_disk = line("on disk:");
    let base = number_between(on_disk, "over ", " base edges");
    assert_eq!(base, base_edges as f64, "{stdout}");
    assert_ne!(served, base, "the updates changed the edge count");
    let payload = number_between(line("  edge payload:"), "", " B");
    close(number_between(on_disk, "", " bytes/edge"), payload, 2.0 * base);
    let record = number_between(line("record:"), "", " bytes/edge");
    let ratio = number_between(on_disk, "(", "x compression");
    assert!((ratio - 2.0 * base * record / payload).abs() <= 0.005, "{stdout}");

    let total = line("bytes on disk: ");
    assert_eq!(number_between(total, "over ", " served edges"), served, "{stdout}");
    close(number_between(total, "(", " per edge"), number_between(total, "", " "), served);
    let parts: Vec<&str> =
        stdout.lines().filter(|l| l.starts_with("  ") && l.contains(" B (")).collect();
    assert_eq!(parts.len(), 6, "{stdout}");
    for part in parts {
        let (_, rest) = part.split_once(':').unwrap();
        close(number_between(rest, " B (", " per edge"), number_between(rest, "", " B ("), served);
    }
}

/// The number in `text` between `start` and the next `end` after it.
fn number_between(text: &str, start: &str, end: &str) -> f64 {
    let rest = text[text.find(start).expect(start) + start.len()..].trim_start();
    let number = &rest[..rest.find(end).expect(end)];
    number.parse().unwrap_or_else(|e| panic!("{number:?} in {text:?}: {e}"))
}

/// On a directory with a live delta run, `hus stats` describes the graph
/// served: its per-interval out-edge rows sum to the printed edge count,
/// and the occupancy and resident index lines count the overlay blocks.
#[test]
fn stats_rows_describe_the_graph_with_its_delta_runs() {
    let tmp = tempfile::tempdir().unwrap();
    let (root, base_edges) = built(&tmp);
    let out =
        hus().arg("ingest").arg(&root).args(["--random", "400", "--seed", "9"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = hus().arg("stats").arg(&root).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));

    let mut dg = DynamicGraph::open(StorageDir::open(&root).unwrap()).unwrap();
    let g = dg.snapshot().unwrap();
    assert_ne!(g.num_edges(), base_edges, "the updates changed the edge count");
    let edges = stdout.lines().find_map(|l| l.strip_prefix("edges:"));
    let edges = edges.and_then(|e| e.split_whitespace().next()?.parse::<u64>().ok());
    assert_eq!(edges, Some(g.num_edges()), "{stdout}");
    let rows: u64 = (stdout.lines())
        .filter(|l| l.starts_with("  interval "))
        .map(|l| l.rsplit_once("out-edges ").unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(rows, g.num_edges(), "{stdout}");
    let p = g.p();
    let occupied: u64 = (Orientation::BOTH.iter())
        .flat_map(|&o| (0..p * p).map(move |b| (o, b / p, b % p)))
        .map(|(o, i, j)| g.index_entries(o, i, j))
        .sum();
    assert!(stdout.contains(&format!("({occupied} of ")), "{occupied}: {stdout}");
    let resident = format!("resident index: {} B", g.resident_index_bytes());
    assert!(stdout.contains(&resident), "{resident}: {stdout}");
}
