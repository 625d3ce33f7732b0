//! Shared configuration and helpers for the baseline engines.

/// Run configuration shared by both baseline engines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Worker threads (recorded into the stats; both baseline inner
    /// loops are sequential per block, as their papers' streaming orders
    /// are, so threads enter only the modeled CPU term).
    pub threads: usize,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Scratch directory name for per-run state (edge values / vertex
    /// values), created under the store directory and kept after the
    /// run. `None` derives a unique name; that directory is removed when
    /// the run ends.
    pub scratch_name: Option<String>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            max_iterations: 1_000,
            scratch_name: None,
        }
    }
}
