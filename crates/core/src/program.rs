//! The vertex-program abstraction shared by HUS-Graph and both baselines.
//!
//! The paper expresses algorithms as a "user-defined update function"
//! applied along edges (Algorithms 2 and 3). To make the *same* program
//! runnable under push (ROP), pull (COP), GraphChi-style PSW and
//! GridGraph-style streaming, we factor it into scatter/combine:
//!
//! * [`VertexProgram::scatter`] computes the message an edge carries from
//!   its (active) source's value;
//! * [`VertexProgram::combine`] folds a message into the destination's
//!   value and reports whether it changed (change ⇒ the destination joins
//!   the next frontier).
//!
//! `combine` must be **commutative and associative** in its messages —
//! push applies messages in block order, pull in in-edge order, and the
//! engines are free to parallelize — and for correct operation under
//! asynchronous schedules (the GraphChi baseline) it should be
//! **idempotent** per (source value, edge), as min/or-style
//! propagation algorithms are.
//! Sum-style programs (PageRank) are non-idempotent but run with all
//! vertices active, where every edge is applied exactly once per
//! iteration under every engine here.

use crate::VertexId;
use hus_storage::pod::Pod;

/// Per-edge context handed to [`VertexProgram::scatter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCtx {
    /// Source vertex of the edge.
    pub src: VertexId,
    /// Destination vertex of the edge.
    pub dst: VertexId,
    /// Edge weight (1.0 for unweighted graphs).
    pub weight: f32,
    /// Out-degree of the source (PageRank-style programs divide by it).
    pub src_out_degree: u32,
}

/// A graph algorithm expressed as scatter/combine over vertex values.
pub trait VertexProgram: Send + Sync {
    /// Per-vertex state, stored on disk between iterations
    /// (`N` bytes in the paper's cost model).
    type Value: Pod + PartialEq + std::fmt::Debug;

    /// Initial value of vertex `v`.
    fn init(&self, v: VertexId) -> Self::Value;

    /// Whether `v` starts in the frontier (ignored when
    /// [`VertexProgram::always_active`] is `true`).
    fn initially_active(&self, v: VertexId) -> bool;

    /// Message carried by an edge whose source is active; `None` sends
    /// nothing.
    fn scatter(&self, src_val: &Self::Value, ctx: &EdgeCtx) -> Option<Self::Value>;

    /// Fold `msg` into the destination value; return `true` iff the value
    /// changed (which schedules the destination for the next iteration).
    fn combine(&self, dst_val: &mut Self::Value, msg: Self::Value) -> bool;

    /// Value a vertex starts the iteration with, given its previous
    /// value. Identity for propagation algorithms (min keeps improving a
    /// persistent value); accumulator algorithms override it (PageRank
    /// resets each vertex to the teleport term before summing messages).
    fn reset(&self, _v: VertexId, prev: &Self::Value) -> Self::Value {
        *prev
    }

    /// Whether [`VertexProgram::reset`] is *not* the identity, i.e.
    /// every vertex's value must be re-derived at each iteration start
    /// even if it receives no messages (PageRank's teleport term, SpMV's
    /// zeroed accumulator). Propagation algorithms whose values persist
    /// (BFS/WCC/SSSP) leave this `false`, which lets push iterations skip
    /// untouched intervals entirely.
    fn needs_reset(&self) -> bool {
        false
    }

    /// If `true`, every vertex is active in every iteration (the paper's
    /// standard PageRank: "all edges are always active as all vertices
    /// compute their PR values in each iteration").
    fn always_active(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal min-propagation program used to exercise the trait's
    /// default methods.
    struct MinProp;

    impl VertexProgram for MinProp {
        type Value = u32;

        fn init(&self, v: VertexId) -> u32 {
            v
        }

        fn initially_active(&self, _v: VertexId) -> bool {
            true
        }

        fn scatter(&self, src_val: &u32, _ctx: &EdgeCtx) -> Option<u32> {
            Some(*src_val)
        }

        fn combine(&self, dst_val: &mut u32, msg: u32) -> bool {
            if msg < *dst_val {
                *dst_val = msg;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn default_reset_is_identity() {
        let p = MinProp;
        assert_eq!(p.reset(3, &7), 7);
    }

    #[test]
    fn default_always_active_is_false() {
        assert!(!MinProp.always_active());
    }

    #[test]
    fn combine_reports_change() {
        let p = MinProp;
        let mut v = 5;
        assert!(p.combine(&mut v, 3));
        assert_eq!(v, 3);
        assert!(!p.combine(&mut v, 4));
        assert_eq!(v, 3);
    }

    #[test]
    fn edge_ctx_is_small() {
        // scatter is the hottest call in every engine; keep its argument
        // register-friendly.
        assert!(std::mem::size_of::<EdgeCtx>() <= 16);
    }
}
