//! Fault-matrix integration tests for the storage resilience layer
//! (DESIGN.md §9): PageRank and BFS under every injected fault class,
//! asserting either bit-identical results with the expected resilience
//! counters (transient faults) or a clean typed error (permanent
//! corruption) — under both serial and parallel configurations.

use husgraph::algos::{Bfs, PageRank};
use husgraph::core::{BuildConfig, Engine, GraphMeta, HusGraph, RunConfig, RunStats, UpdateMode};
use husgraph::storage::{crc32c, FaultSpec, RetryPolicy, StorageDir, StorageError};
use std::path::Path;
use std::time::Duration;

/// A retry policy with microsecond backoffs so heavy fault rates don't
/// slow the suite, and a deep budget so transient storms never give up.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_micros(400),
    }
}

fn build_graph(path: &Path) -> HusGraph {
    let el = hus_gen::rmat(600, 6000, 42, Default::default());
    let dir = StorageDir::create(path).unwrap();
    // Raw pinned (regardless of HUS_CODEC): the corruption tests below
    // flip bytes at blocks' decoded offsets, which are only their
    // on-disk offsets in the uncompressed layout.
    let cfg = BuildConfig::with_p_codec(4, husgraph::codec::Codec::Raw);
    HusGraph::build_into(&el, &dir, &cfg).unwrap()
}

fn reopen(path: &Path, faults: Option<FaultSpec>, verify: bool) -> HusGraph {
    let dir = StorageDir::open(path).unwrap().with_retry(fast_retry()).with_faults(faults);
    let g = HusGraph::open(dir).unwrap();
    g.set_verify(verify);
    g
}

/// Serial config: one thread — ROP rows and COP columns run inline on
/// the caller, in order.
fn serial(verify: bool) -> RunConfig {
    RunConfig { threads: 1, max_iterations: 5, verify_checksums: verify, ..Default::default() }
}

/// Parallel config: four threads — ROP rows and COP columns fan out over
/// the pool, one column per worker.
fn parallel(verify: bool) -> RunConfig {
    RunConfig { threads: 4, max_iterations: 5, verify_checksums: verify, ..Default::default() }
}

fn pagerank(g: &HusGraph, cfg: RunConfig) -> husgraph::storage::Result<(Vec<f32>, RunStats)> {
    Engine::new(g, &PageRank::new(g.meta().num_vertices), cfg).run()
}

fn bfs(g: &HusGraph, cfg: RunConfig) -> husgraph::storage::Result<(Vec<u32>, RunStats)> {
    let cfg = RunConfig { max_iterations: 1000, ..cfg };
    Engine::new(g, &Bfs::new(0), cfg).run()
}

/// Transient fault classes: every read may fail with an `EIO`, come up
/// short, or stall — the retry layer must absorb all of it and the
/// results must be bit-identical to a fault-free run.
fn transient_specs() -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("eio", FaultSpec { seed: 7, eio: 0.05, ..Default::default() }),
        ("short-read", FaultSpec { seed: 11, short: 0.05, ..Default::default() }),
        ("latency-spike", FaultSpec { seed: 13, delay_p: 0.02, delay_ms: 1, ..Default::default() }),
        (
            "mixed",
            FaultSpec { seed: 17, eio: 0.02, short: 0.02, delay_p: 0.01, ..Default::default() },
        ),
    ]
}

#[test]
fn transient_faults_are_bit_identical_with_retries_and_no_giveups() {
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    drop(build_graph(&path));

    let clean = reopen(&path, None, false);
    let (pr_want, _) = pagerank(&clean, serial(false)).unwrap();
    let (bfs_want, _) = bfs(&clean, serial(false)).unwrap();
    drop(clean);

    for (name, spec) in transient_specs() {
        for (cfg_name, cfg) in [("serial", serial(false)), ("parallel", parallel(false))] {
            let g = reopen(&path, Some(spec), false);
            let (pr, pr_stats) = pagerank(&g, cfg.clone())
                .unwrap_or_else(|e| panic!("[{name}/{cfg_name}] pagerank failed: {e}"));
            assert_eq!(
                pr.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                pr_want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "[{name}/{cfg_name}] PageRank diverged under transient faults"
            );
            let (levels, bfs_stats) = bfs(&g, cfg.clone())
                .unwrap_or_else(|e| panic!("[{name}/{cfg_name}] bfs failed: {e}"));
            assert_eq!(levels, bfs_want, "[{name}/{cfg_name}] BFS diverged");

            let total = pr_stats.resilience;
            assert_eq!(total.giveups + bfs_stats.resilience.giveups, 0, "[{name}/{cfg_name}]");
            assert_eq!(total.checksum_failures, 0, "[{name}/{cfg_name}]");
            if spec.eio > 0.0 || spec.short > 0.0 {
                assert!(
                    total.retries > 0,
                    "[{name}/{cfg_name}] expected nonzero retries, stats: {}",
                    pr_stats.summary()
                );
                assert!(pr_stats.summary().contains("retries"), "{}", pr_stats.summary());
            }
        }
    }
}

/// A ~1% transient fault rate (the acceptance scenario): PageRank is
/// bit-identical, retried, and never gives up.
#[test]
fn one_percent_eio_rate_is_absorbed() {
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    drop(build_graph(&path));
    // At 1% per op most reads are clean; run enough iterations that the
    // deterministic draws are guaranteed to include some faults (the
    // page cache keeps the op count per iteration small).
    let cfg = RunConfig { max_iterations: 30, ..parallel(false) };
    let clean = reopen(&path, None, false);
    let (want, _) = pagerank(&clean, cfg.clone()).unwrap();
    drop(clean);
    let spec = FaultSpec { seed: 3, eio: 0.01, short: 0.005, ..Default::default() };
    let g = reopen(&path, Some(spec), false);
    let (got, stats) = pagerank(&g, cfg).unwrap();
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    assert!(stats.resilience.retries > 0, "{}", stats.summary());
    assert_eq!(stats.resilience.giveups, 0, "{}", stats.summary());
}

/// Permanent unavailability (every read errors): the retry budget is
/// exhausted, the giveup is counted, and a transient-class error — not
/// a hang, not a panic, not corruption — surfaces to the caller.
#[test]
fn permanent_eio_gives_up_with_typed_error() {
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    drop(build_graph(&path));

    let spec = FaultSpec { seed: 1, eio: 1.0, ..Default::default() };
    for cfg in [serial(false), parallel(false)] {
        let g = reopen(&path, Some(spec), false);
        let err = pagerank(&g, cfg).unwrap_err();
        assert!(err.is_transient(), "expected a transient-class error, got: {err}");
        assert!(!err.is_corruption());
        let res = g.dir().resilience().snapshot();
        assert!(res.giveups > 0, "giveups not counted: {res:?}");
        assert!(res.retries > 0);
    }
}

/// Injected bit flips are permanent (keyed by read offset) and
/// invisible without verification; with `verify_checksums` the run
/// fails with a corruption-class error instead of silently computing
/// on damaged bytes — under both serial and parallel configs.
#[test]
fn bit_flips_surface_as_corruption_when_verifying() {
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    drop(build_graph(&path));

    let spec = FaultSpec { seed: 23, flip: 1.0, ..Default::default() };
    for (cfg_name, cfg) in [("serial", serial(true)), ("parallel", parallel(true))] {
        let g = reopen(&path, Some(spec), true);
        // COP streams whole blocks, all of which verify.
        let cfg = RunConfig { mode: UpdateMode::ForceCop, ..cfg };
        let err = pagerank(&g, cfg).unwrap_err();
        assert!(err.is_corruption(), "[{cfg_name}] expected corruption, got: {err}");
        assert!(!err.is_transient(), "[{cfg_name}] corruption must never be retried");
        assert!(
            matches!(err, StorageError::ChecksumMismatch { .. }),
            "[{cfg_name}] expected ChecksumMismatch, got: {err}"
        );
        assert!(g.dir().resilience().snapshot().checksum_failures > 0, "[{cfg_name}]");
    }
}

/// On-disk (not injected) single-byte damage is reported with the
/// exact file, block coordinates and byte offset, and the engine run
/// surfaces it; with verification off the damage passes silently.
#[test]
fn on_disk_flip_names_the_exact_block_through_the_engine() {
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    let g = build_graph(&path);
    let p = g.p();
    // Damage the first non-empty in-block: COP streams in-shards.
    let (bi, bj) = (0..p)
        .flat_map(|i| (0..p).map(move |j| (i, j)))
        .find(|&(i, j)| g.meta().in_block(i, j).edge_count > 0)
        .expect("some non-empty in-block");
    let block = *g.meta().in_block(bi, bj);
    drop(g);

    let victim = path.join(GraphMeta::in_edges_file(bj));
    let mut bytes = std::fs::read(&victim).unwrap();
    // Flip a bit of the first record's source id, picked so the damaged
    // id stays inside source interval `bi` — the verification-off run
    // below must compute on the wrong bytes, not crash on an
    // out-of-interval index.
    let meta = reopen(&path, None, false).meta().clone();
    let (lo, hi) = (meta.interval_start(bi), meta.interval_start(bi + 1));
    let off = block.edge_offset as usize;
    let orig = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let flipped = (0..32)
        .map(|k| orig ^ (1 << k))
        .find(|&v| v != orig && v >= lo && v < hi)
        .expect("some in-interval bit flip");
    bytes[off..off + 4].copy_from_slice(&flipped.to_le_bytes());
    std::fs::write(&victim, bytes).unwrap();

    // Verification off: the damaged graph still runs (wrong bytes,
    // clean exit) — this is exactly the failure mode checksums close.
    let g = reopen(&path, None, false);
    pagerank(&g, RunConfig { mode: UpdateMode::ForceCop, ..serial(false) }).unwrap();
    drop(g);

    let g = reopen(&path, None, true);
    let err = pagerank(&g, RunConfig { mode: UpdateMode::ForceCop, ..serial(true) }).unwrap_err();
    match err {
        StorageError::ChecksumMismatch { path: p, block: b, offset, expected, actual } => {
            assert!(p.ends_with(GraphMeta::in_edges_file(bj)), "wrong file: {}", p.display());
            assert_eq!(b, (bi as u32, bj as u32), "wrong block");
            assert_eq!(offset, block.edge_offset, "wrong offset");
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other}"),
    }
}

/// Damage that drives a vertex id out of its interval panics the COP
/// column worker pulling that block when verification is off (garbage
/// in, panic out) — but it must be a prompt panic, never a deadlock: the
/// panic reaches the caller once the other column workers are done.
/// With verification on, the same damage is a clean typed corruption
/// error instead.
#[test]
fn wild_corruption_panics_promptly_instead_of_hanging_the_column_workers() {
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    let g = build_graph(&path);
    let p = g.p();
    let (bi, bj) = (0..p)
        .flat_map(|i| (0..p).map(move |j| (i, j)))
        .find(|&(i, j)| g.meta().in_block(i, j).edge_count > 0)
        .expect("some non-empty in-block");
    let block = *g.meta().in_block(bi, bj);
    drop(g);

    // Blast the first record's source id far outside every interval.
    let victim = path.join(GraphMeta::in_edges_file(bj));
    let mut bytes = std::fs::read(&victim).unwrap();
    let off = block.edge_offset as usize;
    bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&victim, bytes).unwrap();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let g = reopen(&path, None, false);
        let cfg = RunConfig { mode: UpdateMode::ForceCop, ..parallel(false) };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pagerank(&g, cfg)));
        // Either a panic (index out of bounds in the pull) or an error
        // is acceptable; silently "succeeding" on wild garbage is not.
        done_tx.send(!matches!(result, Ok(Ok(_)))).unwrap();
        drop(g);

        // Verification on: same damage, clean typed error, no panic.
        let tmp_path = tmp.path().join("g");
        let g = reopen(&tmp_path, None, true);
        let cfg = RunConfig { mode: UpdateMode::ForceCop, ..parallel(true) };
        let err = pagerank(&g, cfg).unwrap_err();
        done_tx.send(err.is_corruption()).unwrap();
    });
    let timeout = Duration::from_secs(30);
    assert!(
        done_rx.recv_timeout(timeout).expect("COP column workers hung on wild corruption"),
        "wild corruption must not produce a silent success"
    );
    assert!(
        done_rx.recv_timeout(timeout).expect("verified run hung on wild corruption"),
        "with verification on, wild corruption must be a corruption-class error"
    );
    handle.join().unwrap();
}

/// The builder's footers hold real CRC-32C values: recomputing any
/// block's CRC from the on-disk payload matches the stored footer, and
/// the implementation matches the published check vectors.
#[test]
fn footers_store_standard_crc32c() {
    assert_eq!(crc32c(b""), 0);
    assert_eq!(crc32c(b"123456789"), 0xE306_9283);

    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    let g = build_graph(&path);
    let p = g.p();
    let meta = g.meta().clone();
    drop(g);

    for i in 0..p {
        let file = path.join(GraphMeta::out_edges_file(i));
        let bytes = std::fs::read(&file).unwrap();
        let footer = husgraph::storage::ShardFooter::read_from(&file, p).unwrap();
        assert_eq!(footer.crcs.len(), p);
        for j in 0..p {
            let b = meta.out_block(i, j);
            let lo = b.edge_offset as usize;
            let hi = lo + (b.edge_count * meta.edge_record_bytes()) as usize;
            assert_eq!(footer.crcs[j], crc32c(&bytes[lo..hi]), "out-block ({i}, {j})");
        }
    }
}
