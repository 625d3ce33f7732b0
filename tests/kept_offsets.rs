//! A run keeps every out-offset array it reads whole: each out-block's
//! index crosses the device at most once per run, whatever number of
//! iterations push through the block.
//!
//! The check reads the per-block attribution (the heatmap), which is
//! process-global, so this file holds this one test.

use husgraph::algos::Bfs;
use husgraph::codec::Codec;
use husgraph::core::{BuildConfig, Engine, HusGraph, RunConfig, UpdateMode};
use husgraph::obs as hus_obs;
use husgraph::storage::{StorageDir, Throughput};

/// Forced-ROP BFS over a small-world mesh on a device whose sequential
/// reads are so fast that an index is never probed, and whose batched
/// reads are no faster than random ones (no merging; a block is swept
/// only when every record is asked for). Every vertex is reached and
/// pushes once, so each out-block's device bytes over the run are its
/// records once plus its offset array once — a second read of the array
/// would show as `offsets_bytes` more.
#[test]
fn forced_rop_bfs_reads_each_out_offset_array_once() {
    let el = husgraph::gen::watts_strogatz(1 << 13, 8, 0.01, 11);
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(8, Codec::Raw)).unwrap();
    let throughput = Throughput { sequential_bps: 1e12, random_bps: 1e6, batched_bps: 1e6 };
    let config = RunConfig { threads: 2, throughput, ..RunConfig::with_mode(UpdateMode::ForceRop) };
    hus_obs::attr::set_heatmap_enabled(true);
    hus_obs::attr::reset();
    let run = Engine::new(&g, &Bfs::new(0), config).run();
    let blocks = hus_obs::attr::snapshot();
    hus_obs::attr::set_heatmap_enabled(false);
    let (levels, stats) = run.unwrap();
    assert!(levels.iter().all(|&l| l != u32::MAX), "the mesh is connected");
    assert!(stats.num_iterations() > 20, "a long wavefront");

    let meta = g.meta();
    let record_bytes = meta.edge_record_bytes();
    let mut kept = 0;
    let mut pushed = 0;
    for i in 0..8 {
        for j in 0..8 {
            let block = meta.out_block(i, j);
            let billed = (blocks.iter())
                .find(|b| (b.i, b.j) == (i as u32, j as u32))
                .map_or(0, |b| b.raw_bytes);
            if block.edge_count == 0 {
                assert_eq!(billed, 0, "out-block ({i}, {j}) is empty");
                continue;
            }
            let want = block.offsets_bytes() + block.edge_count * record_bytes;
            assert_eq!(billed, want, "out-block ({i}, {j}): offsets once, records once");
            kept += block.offsets_bytes();
            pushed += 1;
        }
    }
    assert!(pushed > 8, "off-diagonal blocks are pushed through too");
    assert_eq!(stats.kept_offset_bytes, kept);
}
