//! The I/O-based performance prediction method (paper §3.4).
//!
//! Per iteration the hybrid engine runs whichever update model moves
//! its bytes faster. The paper states both costs in closed form over
//! `|E|`, `|V|`, `P` and the frontier's active out-edges; this engine
//! instead prices the **I/O plan** each executor would actually bill —
//! an [`IoPlan`] of bytes per access class (sequential / batched /
//! random / write):
//!
//! * [`crate::cop::plan`] is the plan of a COP sweep, and it is
//!   *exact*: per column one read of `S_j`, which derives
//!   `D_j = reset(S_j)` and serves the diagonal block, and one `D_j`
//!   write-back; per non-empty in-block the encoded block, its
//!   in-index and, off the diagonal, `S_i`. The engine prices it for
//!   every priced iteration; with nothing resident it is
//!   [`crate::cop::sweep_plan`], which depends only on the graph.
//! * [`crate::rop::plan`] is the plan of a ROP iteration, computed
//!   from one pass over the frontier ([`crate::rop::Frontier::scan`])
//!   by walking the same choices `rop.rs` makes when it executes: one
//!   read of each interval an active row or a push needs, index probes
//!   vs. the whole offset array, selective ranges vs. one coalesced
//!   sweep per out-block, merged runs at `T_batched`, and one write per
//!   interval the push re-derives or whose resident copy it drops.
//!
//! A push's `D` buffers stay resident, unwritten, in the vertex store
//! for one iteration ([`crate::vertex_store`]); both plans price reads
//! of resident intervals at zero, and a ROP plan prices the write-back
//! of each resident interval it does not push into.
//!
//! Both plans are priced by [`IoPlan::seconds`] — the same function
//! [`crate::audit`] prices the billed bytes with — and ROP is selected
//! iff `C_rop ≤ C_cop`, on every iteration that has an inactive vertex.
//! When every vertex is active (the PageRank family) COP is chosen
//! without pricing ([`Predictor::gates`]): a push would then read every
//! edge as well, in coalesced sweeps no faster than COP's stream.
//!
//! The paper prices only below an active fraction `α·|V|` (α = 5 %)
//! and picks COP above it. That gate is kept for the verbatim predictor
//! alone ([`PAPER_ALPHA`]), as the paper's reference: above it the
//! priced comparison still picks ROP on many BFS and WCC iterations and
//! moves fewer bytes (EXPERIMENTS.md, "Ablations").
//!
//! ## The paper's verbatim formulas
//!
//! ```text
//! C_rop(i) = ( Σ_{v∈A_i} d_v · M  +  (2|V|/P + |V|) · N ) / T_random
//! C_cop(i) = (       |E|/P · M    +  (2|V|/P + |V|) · N ) / T_sequential
//! ```
//!
//! survive as [`Predictor::literal_plans`], used only when
//! [`Predictor::paper_literal`] is set (the ablation binaries). Billing
//! ROP's contiguous whole-interval vertex transfers at a small-request
//! `T_random` (≈1 MB/s on the paper's HDD) makes `C_rop` exceed `C_cop`
//! even with an *empty* frontier, so the verbatim model never picks ROP
//! on such a device — the reason it is not the default.

use hus_storage::{IoSnapshot, Throughput};
use serde::{Deserialize, Serialize};

/// Bytes an iteration moves, per access class —
/// the unit both cost estimates and the audit of billed I/O share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoPlan {
    /// Bytes read as part of a streaming scan ([`hus_storage::Access::Sequential`]).
    pub sequential: u64,
    /// Bytes read in coalesced ascending sweeps ([`hus_storage::Access::Batched`]).
    pub batched: u64,
    /// Bytes read by isolated positioned reads ([`hus_storage::Access::Random`]).
    pub random: u64,
    /// Bytes written (vertex-interval write-backs).
    pub write: u64,
}

impl IoPlan {
    /// The billed bytes of `io`, in plan form.
    pub fn billed(io: &IoSnapshot) -> Self {
        IoPlan {
            sequential: io.seq_read_bytes,
            batched: io.batched_read_bytes,
            random: io.rand_read_bytes,
            write: io.write_bytes,
        }
    }

    /// All bytes of the plan, reads and writes.
    pub fn total_bytes(&self) -> u64 {
        self.sequential + self.batched + self.random + self.write
    }

    /// Seconds the plan takes at the given read throughputs. Writes are
    /// whole vertex intervals and are billed sequentially. This is
    /// deliberately the predictor's view of the device, not the richer
    /// [`hus_storage::CostModel`]: predicted and billed bytes priced
    /// here differ only by the *prediction* error. It differs from
    /// [`hus_storage::DeviceProfile::io_seconds`] only in the write rate
    /// (the device's `write_bps` there).
    pub fn seconds(&self, t: &Throughput) -> f64 {
        (self.sequential + self.write) as f64 / t.sequential_bps
            + self.batched as f64 / t.batched_bps
            + self.random as f64 / t.random_bps
    }
}

impl std::ops::AddAssign for IoPlan {
    fn add_assign(&mut self, o: IoPlan) {
        self.sequential += o.sequential;
        self.batched += o.batched;
        self.random += o.random;
        self.write += o.write;
    }
}

impl std::iter::Sum for IoPlan {
    fn sum<I: Iterator<Item = IoPlan>>(iter: I) -> IoPlan {
        iter.fold(IoPlan::default(), |mut acc, p| {
            acc += p;
            acc
        })
    }
}

/// The two update models of the hybrid strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateModel {
    /// Row-oriented Push: selective random loads of active out-edges.
    Rop,
    /// Column-oriented Pull: sequential streaming of all in-edges.
    Cop,
}

impl std::fmt::Display for UpdateModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateModel::Rop => write!(f, "ROP"),
            UpdateModel::Cop => write!(f, "COP"),
        }
    }
}

/// The paper's active-fraction gate α (§3.4): the verbatim predictor
/// ([`Predictor::paper_literal`]) prices an iteration only while fewer
/// than `α·|V|` vertices are active.
pub const PAPER_ALPHA: f64 = 0.05;

/// The cost predictor: a comparison of two priced [`IoPlan`]s, skipped
/// when every vertex is active.
///
/// ```
/// use hus_core::predict::{IoPlan, Predictor, UpdateModel};
/// use hus_storage::DeviceProfile;
///
/// let p = Predictor::new(DeviceProfile::hdd().read, 4.0, 4);
/// let cop = IoPlan { sequential: 200_000_000, write: 4_000_000, ..Default::default() };
/// // A tiny frontier reads a few scattered ranges: selective pushes win...
/// let sparse = IoPlan { sequential: 500_000, random: 4_000, write: 500_000, ..Default::default() };
/// assert!(!p.gates(100, 1_000_000));
/// assert_eq!(p.compare(&sparse, &cop).model, UpdateModel::Rop);
/// // ...a dense one is priced too, and loses to streaming pulls...
/// let dense = IoPlan { sequential: 500_000, random: 90_000_000, write: 4_000_000, ..Default::default() };
/// assert!(!p.gates(900_000, 1_000_000));
/// assert_eq!(p.compare(&dense, &cop).model, UpdateModel::Cop);
/// // ...and an all-active one goes to COP with no plan built.
/// assert!(p.gates(1_000_000, 1_000_000));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predictor {
    /// Measured or assumed disk throughputs (`T_sequential`, `T_random`,
    /// `T_batched`) the plans are priced at.
    pub throughput: Throughput,
    /// On-disk bytes per edge record `M` of the verbatim formulas
    /// ([`crate::graph::HusGraph::disk_edge_bytes`]: the encoded shard
    /// payload divided by the stored record count).
    pub edge_bytes: f64,
    /// Vertex value size `N` in bytes.
    pub value_bytes: u64,
    /// Price the paper's verbatim closed-form costs
    /// ([`Predictor::literal_plans`]) instead of the executors' plans
    /// (see module docs). Default `false`.
    pub paper_literal: bool,
}

impl Predictor {
    /// Predictor with the paper's defaults on the given device
    /// throughputs.
    pub fn new(throughput: Throughput, edge_bytes: f64, value_bytes: u64) -> Self {
        Predictor { throughput, edge_bytes, value_bytes, paper_literal: false }
    }

    /// The verbatim formulas' vertex-value transfer bytes per interval:
    /// `(2|V|/P + |V|) · N` (source interval + indices + all destination
    /// intervals).
    pub fn vertex_bytes(&self, num_vertices: u64, p: u64) -> u64 {
        (2 * num_vertices / p + num_vertices) * self.value_bytes
    }

    /// The paper's closed-form `(C_rop, C_cop)` as plans: ROP moves
    /// `active_out_edges · M + vertex_bytes` at `T_random`, COP
    /// `streamed_edges · M + vertex_bytes` at `T_sequential`. One
    /// interval passes `|E|/P` and [`Self::vertex_bytes`]; a whole
    /// iteration `|E|` and `P` times the vertex bytes.
    pub fn literal_plans(
        &self,
        active_out_edges: u64,
        streamed_edges: u64,
        vertex_bytes: u64,
    ) -> (IoPlan, IoPlan) {
        let edge_bytes = |edges: u64| (edges as f64 * self.edge_bytes).round() as u64;
        (
            IoPlan { random: edge_bytes(active_out_edges) + vertex_bytes, ..Default::default() },
            IoPlan { sequential: edge_bytes(streamed_edges) + vertex_bytes, ..Default::default() },
        )
    }

    /// Whether the hybrid decision is COP without pricing: every vertex
    /// is active, or, for the verbatim predictor, at least
    /// [`PAPER_ALPHA`]`·|V|` are. The engine asks first, so that a
    /// gated iteration never builds the plans.
    pub fn gates(&self, active_vertices: u64, num_vertices: u64) -> bool {
        if self.paper_literal {
            active_vertices as f64 >= PAPER_ALPHA * num_vertices as f64
        } else {
            active_vertices >= num_vertices
        }
    }

    /// The cheaper of the two plans at this predictor's throughputs
    /// (ROP on a tie).
    pub fn compare(&self, rop: &IoPlan, cop: &IoPlan) -> Decision {
        let c_rop = rop.seconds(&self.throughput);
        let c_cop = cop.seconds(&self.throughput);
        let model = if c_rop <= c_cop { UpdateModel::Rop } else { UpdateModel::Cop };
        Decision { model, gated: false, c_rop, c_cop }
    }
}

static GATED: hus_obs::LazyCounter = hus_obs::LazyCounter::new("predict.gated");
static ROP_SELECTED: hus_obs::LazyCounter = hus_obs::LazyCounter::new("predict.rop_selected");
static COP_SELECTED: hus_obs::LazyCounter = hus_obs::LazyCounter::new("predict.cop_selected");

/// Count a committed decision in the metric registry. The engine calls
/// this for decisions it acts on — not from inside [`Predictor::compare`],
/// which tests and benchmarks may evaluate speculatively.
pub fn count_decision(d: &Decision) {
    if !hus_obs::enabled() {
        return;
    }
    if d.gated {
        GATED.incr();
    } else if d.model == UpdateModel::Rop {
        ROP_SELECTED.incr();
    } else {
        COP_SELECTED.incr();
    }
}

/// Outcome of a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Selected model.
    pub model: UpdateModel,
    /// Whether the hybrid chose COP without pricing
    /// ([`Predictor::gates`]: every vertex active).
    pub gated: bool,
    /// Predicted ROP cost in seconds (NaN when gated).
    pub c_rop: f64,
    /// Predicted COP cost in seconds (NaN when gated).
    pub c_cop: f64,
}

impl Decision {
    /// A decision made without pricing any plan: a forced update mode,
    /// or (`gated`) the hybrid's all-active rule.
    pub fn forced(model: UpdateModel, gated: bool) -> Self {
        Decision { model, gated, c_rop: f64::NAN, c_cop: f64::NAN }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdd_predictor() -> Predictor {
        Predictor::new(
            Throughput { sequential_bps: 120e6, random_bps: 1e6, batched_bps: 40e6 },
            4.0,
            4,
        )
    }

    #[test]
    fn plan_seconds_bill_each_class_at_its_rate() {
        let plan = IoPlan {
            sequential: 120_000_000, // 1s
            batched: 40_000_000,     // 1s
            random: 1_000_000,       // 1s
            write: 240_000_000,      // 2s at sequential
        };
        assert!((plan.seconds(&hdd_predictor().throughput) - 5.0).abs() < 1e-9);
        assert_eq!(plan.total_bytes(), 401_000_000);
    }

    #[test]
    fn billed_plan_mirrors_the_snapshot_classes() {
        let io = IoSnapshot {
            seq_read_bytes: 1,
            batched_read_bytes: 2,
            rand_read_bytes: 3,
            write_bytes: 4,
            ..Default::default()
        };
        let want = IoPlan { sequential: 1, batched: 2, random: 3, write: 4 };
        assert_eq!(IoPlan::billed(&io), want);
    }

    #[test]
    fn cheaper_plan_wins_and_ties_go_to_rop() {
        let p = hdd_predictor();
        let cop = IoPlan { sequential: 120_000_000, ..Default::default() };
        let cheap = IoPlan { random: 999_999, ..Default::default() };
        let tie = IoPlan { random: 1_000_000, ..Default::default() };
        let dear = IoPlan { random: 1_000_001, ..Default::default() };
        assert_eq!(p.compare(&cheap, &cop).model, UpdateModel::Rop);
        assert_eq!(p.compare(&tie, &cop).model, UpdateModel::Rop);
        let d = p.compare(&dear, &cop);
        assert_eq!(d.model, UpdateModel::Cop);
        assert!(!d.gated && d.c_rop > d.c_cop);
    }

    #[test]
    fn dense_frontier_is_priced_and_all_active_is_gated() {
        let p = hdd_predictor();
        // A frontier of all but one vertex is still priced: a free push
        // beats the sweep.
        assert!(!p.gates(999_999, 1_000_000));
        let free = IoPlan::default();
        let sweep = IoPlan { sequential: 120_000_000, ..Default::default() };
        let d = p.compare(&free, &sweep);
        assert!(d.model == UpdateModel::Rop && !d.gated);
        assert!(p.gates(1_000_000, 1_000_000));
        let d = Decision::forced(UpdateModel::Cop, true);
        assert!(d.gated && d.c_rop.is_nan() && d.c_cop.is_nan());
    }

    #[test]
    fn paper_literal_gate_is_the_papers_alpha_fraction() {
        let mut p = hdd_predictor();
        p.paper_literal = true;
        assert!(!p.gates(49_999, 1_000_000));
        assert!(p.gates(50_000, 1_000_000));
        p.paper_literal = false;
        assert!(!p.gates(50_000, 1_000_000));
    }

    #[test]
    fn literal_plans_are_the_papers_formulas() {
        let p = hdd_predictor();
        let (v, e, parts) = (1_000_000u64, 10_000_000u64, 8u64);
        let vb = p.vertex_bytes(v, parts);
        assert_eq!(vb, (2 * v / parts + v) * 4);
        let (rop, cop) = p.literal_plans(10_000, e / parts, vb);
        assert_eq!(rop, IoPlan { random: 40_000 + vb, ..Default::default() });
        assert_eq!(cop, IoPlan { sequential: e / parts * 4 + vb, ..Default::default() });
        // With small-request T_random the vertex term alone dwarfs
        // C_cop: the verbatim formula never picks ROP on this device,
        // even with an empty frontier (why it is not the default).
        let (idle, _) = p.literal_plans(0, e / parts, vb);
        assert_eq!(p.compare(&idle, &cop).model, UpdateModel::Cop);
    }

    #[test]
    fn literal_edge_terms_scale_with_fractional_encoded_bytes() {
        // `M` is the *encoded* on-disk payload per edge, rarely
        // integral: a codec that stores 2.5 bytes per edge must bill
        // exactly that, not a rounded width.
        let tput = Throughput { sequential_bps: 100e6, random_bps: 1e6, batched_bps: 40e6 };
        let (rop, cop) = Predictor::new(tput, 2.5, 4).literal_plans(1_000, 1_000_000, 0);
        assert_eq!((rop.random, cop.sequential), (2_500, 2_500_000));
    }

    #[test]
    fn faster_random_device_shifts_the_choice_toward_rop() {
        let ssd = Predictor::new(
            Throughput { sequential_bps: 450e6, random_bps: 250e6, batched_bps: 400e6 },
            4.0,
            4,
        );
        // The same two plans: the HDD prefers the stream, the SSD,
        // whose random reads are nearly free, the selective reads.
        let rop = IoPlan { random: 4_000_000, ..Default::default() };
        let cop = IoPlan { sequential: 400_000_000, ..Default::default() };
        assert_eq!(hdd_predictor().compare(&rop, &cop).model, UpdateModel::Cop);
        assert_eq!(ssd.compare(&rop, &cop).model, UpdateModel::Rop);
    }
}
