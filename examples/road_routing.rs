//! Road-network routing: weighted SSSP over a grid-like road mesh,
//! comparing the three update strategies on a workload whose frontier is
//! *never* dense (a wavefront expanding over a planar-ish mesh).
//!
//! Road networks are the opposite extreme from power-law social graphs:
//! huge diameter, bounded degree. Full-I/O systems rescan the whole map
//! every wavefront step; selective access wins by orders of magnitude —
//! the strongest case for ROP in the paper's design space.
//!
//! ```sh
//! cargo run --release --example road_routing
//! ```

use husgraph::algos::Sssp;
use husgraph::core::{Engine, RunConfig, UpdateMode};
use husgraph::storage::{CostModel, DeviceProfile};
use husgraph::Graph;

fn main() -> hus_storage::Result<()> {
    // A 200x200 city grid; travel times vary per road segment.
    let roads = husgraph::gen::grid2d(200, 200).with_hash_weights(1.0, 5.0);
    println!(
        "road mesh: {} intersections, {} road segments",
        roads.num_vertices,
        roads.num_edges()
    );

    let dir = std::env::temp_dir().join(format!("husgraph-roads-{}", std::process::id()));
    // Row-major grid ids give the wavefront strong interval locality:
    // with P = 8, each step touches only a couple of intervals, so ROP
    // loads a fraction of the index/vertex data per step.
    let graph = Graph::build_with(&roads, &dir, &husgraph::core::BuildConfig::with_p(8))?;

    // Route from the north-west corner.
    let depot = 0u32;
    let model = CostModel::new(DeviceProfile::hdd());
    println!("\n{:<8} {:>11} {:>12} {:>14}", "mode", "iterations", "I/O (MB)", "modeled HDD");
    let mut travel_times = Vec::new();
    for (name, mode) in [
        ("ROP", UpdateMode::ForceRop),
        ("COP", UpdateMode::ForceCop),
        ("Hybrid", UpdateMode::Hybrid),
    ] {
        let config = RunConfig { mode, max_iterations: 5_000, ..Default::default() };
        let (times, stats) = Engine::new(graph.inner(), &Sssp::new(depot), config).run()?;
        println!(
            "{:<8} {:>11} {:>12.1} {:>12.2} s",
            name,
            stats.num_iterations(),
            stats.total_io.total_bytes() as f64 / 1e6,
            stats.modeled_seconds(&model),
        );
        travel_times = times;
    }

    // All three agree on the answer; print a few routes.
    println!("\ntravel times from the depot (intersection 0):");
    for (r, c) in [(0u32, 199u32), (199, 0), (199, 199), (100, 100)] {
        let v = r * 200 + c;
        println!("  to ({r:3},{c:3}): {:7.1} minutes", travel_times[v as usize]);
    }
    println!(
        "\nOn a high-diameter mesh the wavefront stays a thin ring: the \
         predictor prices ROP cheaper at every step, so the hybrid runs ROP \
         throughout and matches it, while COP pays a full map rescan for every \
         one of the hundreds of wavefront steps."
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
