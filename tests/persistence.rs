//! Persistence and lifecycle: a built graph directory can be reopened
//! cold and produces identical results; edge-list files round-trip
//! through the on-disk formats into the engines.

use husgraph::gen::io as gio;
use husgraph::Graph;

#[test]
fn reopened_graph_produces_identical_results() {
    let el = husgraph::gen::rmat(300, 2500, 99, Default::default());
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("persisted");

    let (levels_a, ranks_a) = {
        let g = Graph::build(&el, &path).unwrap();
        (g.bfs(0).unwrap().0, g.pagerank(5).unwrap().0)
    };
    // Fresh handle from disk only.
    let g = Graph::open(&path).unwrap();
    assert_eq!(g.num_vertices(), 300);
    assert_eq!(g.num_edges(), el.num_edges() as u64);
    assert_eq!(g.bfs(0).unwrap().0, levels_a);
    assert_eq!(g.pagerank(5).unwrap().0, ranks_a);
}

#[test]
fn binary_edge_list_to_engine_pipeline() {
    let tmp = tempfile::tempdir().unwrap();
    let el = husgraph::gen::rmat(150, 1200, 5, Default::default()).with_hash_weights(0.5, 2.0);
    let file = tmp.path().join("graph.husg");
    gio::write_binary(&el, &file).unwrap();

    let loaded = gio::read_binary(&file).unwrap();
    assert_eq!(loaded, el);
    let g = Graph::build(&loaded, tmp.path().join("g")).unwrap();
    let (dist, stats) = g.sssp(0).unwrap();
    assert!(stats.converged);
    assert_eq!(dist[0], 0.0);
}

#[test]
fn text_edge_list_to_engine_pipeline() {
    let tmp = tempfile::tempdir().unwrap();
    let text = "# tiny road net\n0 1 2.5\n1 2 1.0\n0 2 5.0\n2 3 1.0\n";
    let file = tmp.path().join("roads.txt");
    std::fs::write(&file, text).unwrap();
    let el = gio::read_text(&file).unwrap();
    let g = Graph::build(&el, tmp.path().join("g")).unwrap();
    let (dist, _) = g.sssp(0).unwrap();
    assert_eq!(dist, vec![0.0, 2.5, 3.5, 4.5]);
}

#[test]
fn corrupted_manifest_is_rejected_cleanly() {
    let el = husgraph::gen::rmat(50, 300, 1, Default::default());
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    Graph::build(&el, &path).unwrap();
    std::fs::write(path.join("meta.json"), "{ not json").unwrap();
    let err = Graph::open(&path);
    assert!(err.is_err(), "corrupt manifest must not open");
}

#[test]
fn concurrent_runs_on_one_graph_do_not_interfere() {
    let el = husgraph::gen::rmat(200, 1500, 3, Default::default());
    let tmp = tempfile::tempdir().unwrap();
    let g = Graph::build(&el, tmp.path().join("g")).unwrap();
    let (want, _) = g.bfs(0).unwrap();
    // Engine scratch directories are uniquely named, so interleaved runs
    // on the same graph handle can't clobber each other's vertex stores.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let g = &g;
                s.spawn(move || g.bfs(0).unwrap().0)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), want);
        }
    });
}

#[test]
fn mmap_backend_produces_identical_results() {
    use husgraph::core::{BuildConfig, Engine, HusGraph, RunConfig};
    use husgraph::storage::{BackendKind, StorageDir};
    let el = husgraph::gen::rmat(250, 2000, 77, Default::default());
    let tmp = tempfile::tempdir().unwrap();
    let path = tmp.path().join("g");
    HusGraph::build_into(&el, &StorageDir::create(&path).unwrap(), &BuildConfig::with_p(4))
        .unwrap();
    // Read the same directory once through each read backend.
    let run = |kind| {
        let g = HusGraph::open(StorageDir::open(&path).unwrap().with_backend(kind)).unwrap();
        Engine::new(&g, &husgraph::algos::Bfs::new(0), RunConfig::default()).run().unwrap()
    };
    let (want, file_stats) = run(BackendKind::File);
    let (got, stats) = run(BackendKind::Mmap);
    assert_eq!(got, want);
    // Accounting is identical regardless of the backend serving reads.
    assert!(stats.total_io.total_bytes() > 0);
    assert_eq!(stats.total_io, file_stats.total_io);
}

#[test]
fn all_backends_and_codecs_agree_bit_for_bit() {
    use husgraph::algos::{PageRank, Wcc};
    use husgraph::codec::Codec;
    use husgraph::core::{BuildConfig, Engine, HusGraph, RunConfig};
    use husgraph::storage::{BackendKind, StorageDir};
    let el = husgraph::gen::rmat(400, 3500, 31, Default::default());
    let tmp = tempfile::tempdir().unwrap();
    // PageRank is float arithmetic, so "agree" here is the strongest
    // claim available: bit-identical vertex values for every (backend,
    // codec) combination, regardless of how reads were aligned,
    // batched or decoded underneath.
    let mut want: Option<(Vec<f32>, Vec<u32>)> = None;
    for (ci, codec) in [Codec::Raw, Codec::DeltaVarint].into_iter().enumerate() {
        let path = tmp.path().join(format!("g{ci}"));
        let dir = StorageDir::create(&path).unwrap();
        HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(4, codec)).unwrap();
        // Billing is the same under every backend: bytes and ops per
        // access class, for both algorithms.
        let mut want_io = None;
        for kind in [BackendKind::File, BackendKind::Mmap, BackendKind::Direct] {
            let g = HusGraph::open(StorageDir::open(&path).unwrap().with_backend(kind)).unwrap();
            let cfg = RunConfig { max_iterations: 5, ..RunConfig::default() };
            let (ranks, rank_stats) =
                Engine::new(&g, &PageRank::new(el.num_vertices), cfg.clone()).run().unwrap();
            let (comps, wcc_stats) = Engine::new(&g, &Wcc, cfg).run().unwrap();
            match &want {
                None => want = Some((ranks, comps)),
                Some((wr, wc)) => {
                    assert_eq!(&ranks, wr, "PageRank diverged under {kind:?}/{codec}");
                    assert_eq!(&comps, wc, "WCC diverged under {kind:?}/{codec}");
                }
            }
            let io = (rank_stats.total_io, wcc_stats.total_io);
            match &want_io {
                None => want_io = Some(io),
                Some(w) => assert_eq!(&io, w, "billing diverged under {kind:?}/{codec}"),
            }
        }
    }
}
