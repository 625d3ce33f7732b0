//! # hus-core — the HUS-Graph out-of-core engine
//!
//! Implements the paper's contribution end to end:
//!
//! * **Dual-block representation** ([`builder`], [`meta`], [`graph`]) —
//!   `P` vertex intervals, each owning an out-shard and an in-shard that
//!   are further split into `P` blocks, each indexed by an occupancy
//!   bitmap and one offset per occupied vertex (paper §3.2, Figure 4).
//! * **Row-oriented Push** ([`rop`]) — selective random loads of active
//!   vertices' out-edge ranges, pushed to destination values; out-blocks
//!   of a row processed in parallel (paper §3.3, Algorithm 2; §3.5).
//! * **Column-oriented Pull** ([`cop`]) — whole in-blocks streamed
//!   sequentially, destinations pull from active sources in parallel
//!   within a block (paper §3.3, Algorithm 3; §3.5).
//! * **I/O-based performance prediction** ([`predict`]) — the `C_rop` /
//!   `C_cop` comparison (paper §3.4, Table 1), over the I/O plans
//!   [`rop::plan`] and [`cop::plan`] build of the bytes each
//!   executor would bill; an all-active iteration pulls unpriced.
//! * **The hybrid engine** ([`engine`]) — per-iteration model selection,
//!   double-buffered vertex stores ([`vertex_store`]), frontier tracking
//!   ([`active`]), and per-iteration statistics ([`stats`]).
//!
//! ## A note on selection granularity
//!
//! Algorithm 1 of the paper selects ROP/COP *per vertex interval*. With a
//! mixed selection, edges from a COP-selected interval `i` to a
//! ROP-selected interval `j` are traversed by neither `row i` (not
//! pushed — interval `i` chose COP) nor `column j` (not pulled — interval
//! `j` chose ROP), so updates can be silently dropped. This crate
//! therefore makes the hybrid decision **once per iteration**, pricing
//! the whole iteration under either model — which matches how the paper
//! itself reports model choices (Figure 8 labels whole iterations ROP or
//! COP). An iteration is then one step — pull every column, or push
//! every active row into every column — followed by one commit, so all
//! of its updates become visible together (Jacobi). The paper's
//! `Swap(S, D)` after every row or column (Algorithms 2 and 3) is not
//! implemented: under the hybrid it moved more bytes for no gain in
//! modeled time.

#![warn(missing_docs)]

pub mod active;
pub mod audit;
pub mod builder;
pub mod checkpoint;
pub mod cop;
pub mod delta;
pub mod engine;
pub mod external;
pub mod fsck;
pub mod graph;
mod index;
pub mod meta;
pub mod partition;
pub mod predict;
pub mod program;
pub mod rop;
pub mod stats;
pub mod vertex_store;

pub use active::ActiveSet;
pub use builder::{build, BuildConfig, PartitionStrategy};
pub use delta::{DeltaOp, DynamicGraph};
pub use engine::{check_deadline, Deadline, Engine, RunConfig, UpdateMode};
pub use external::{build_external, BinaryFileSource, EdgeSource, ListSource};
pub use fsck::{fsck, FsckReport};
pub use graph::HusGraph;
pub use meta::{BlockMeta, GraphMeta, Orientation};
pub use predict::{Predictor, UpdateModel};
pub use program::{EdgeCtx, VertexProgram};
pub use stats::{CheckpointStats, IterationStats, RunStats};

/// Re-export of the vertex id type used across the workspace.
pub type VertexId = hus_gen::VertexId;
