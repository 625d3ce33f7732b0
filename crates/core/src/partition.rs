//! Vertex-interval partitioning.
//!
//! The paper "splits the vertices V of graph G into P disjoint intervals"
//! (§3.2) and analyzes costs assuming `|V|/P` vertices per interval. We
//! implement that equal split plus a degree-balanced alternative (equal
//! *edges* per interval), which is the natural ablation for power-law
//! graphs where a few hubs make equal-vertex intervals wildly uneven.

use crate::VertexId;
use serde::{Deserialize, Serialize};

/// How vertices are assigned to intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PartitionStrategy {
    /// Equal vertex count per interval (the paper's model).
    #[default]
    EqualVertices,
    /// Intervals sized so each holds roughly `|E|/P` out-edges.
    BalancedOutDegree,
}

/// Compute interval boundaries: a vector of `p + 1` vertex ids,
/// `starts[i]..starts[i+1]` being interval `i`.
pub fn interval_starts(
    num_vertices: u32,
    p: u32,
    strategy: PartitionStrategy,
    out_degrees: &[u32],
) -> Vec<VertexId> {
    assert!(p >= 1, "need at least one interval");
    match strategy {
        PartitionStrategy::EqualVertices => {
            let mut starts = Vec::with_capacity(p as usize + 1);
            for i in 0..=p as u64 {
                starts.push((i * num_vertices as u64 / p as u64) as u32);
            }
            starts
        }
        PartitionStrategy::BalancedOutDegree => {
            assert_eq!(out_degrees.len(), num_vertices as usize);
            let total: u64 = out_degrees.iter().map(|&d| d as u64).sum();
            let mut starts = vec![0u32; 1];
            let mut acc = 0u64;
            let mut next_interval = 1u64;
            for (v, &d) in out_degrees.iter().enumerate() {
                // Close intervals whenever the running degree mass passes
                // the next multiple of total/p.
                while next_interval < p as u64 && acc * p as u64 >= next_interval * total {
                    starts.push(v as u32);
                    next_interval += 1;
                }
                acc += d as u64;
            }
            while starts.len() < p as usize + 1 {
                starts.push(num_vertices);
            }
            starts[p as usize] = num_vertices;
            starts
        }
    }
}

/// Locate the interval containing vertex `v` via binary search on the
/// boundary array.
pub fn interval_of(starts: &[VertexId], v: VertexId) -> usize {
    debug_assert!(starts.len() >= 2);
    // partition_point returns the first index whose start exceeds v; the
    // interval is one before it.
    starts.partition_point(|&s| s <= v) - 1
}

/// The interval of every vertex: `table[v] == interval_of(starts, v)`,
/// one word per vertex, for per-edge loops that would otherwise binary
/// search twice per edge.
pub(crate) fn interval_table(starts: &[VertexId]) -> Vec<u32> {
    let mut table = vec![0u32; *starts.last().expect("P + 1 boundaries") as usize];
    for (i, w) in starts.windows(2).enumerate() {
        table[w[0] as usize..w[1] as usize].fill(i as u32);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_table_agrees_with_interval_of() {
        let degrees: Vec<u32> = (0..50).map(|v| if v % 7 == 0 { 40 } else { v % 3 }).collect();
        for strategy in [PartitionStrategy::EqualVertices, PartitionStrategy::BalancedOutDegree] {
            for p in [1, 3, 8, 50] {
                let starts = interval_starts(50, p, strategy, &degrees);
                let table = interval_table(&starts);
                assert_eq!(table.len(), 50);
                for v in 0..50 {
                    assert_eq!(
                        table[v as usize] as usize,
                        interval_of(&starts, v),
                        "{strategy:?} P={p}"
                    );
                }
            }
        }
        assert!(interval_table(&[0, 0, 0]).is_empty());
    }

    #[test]
    fn equal_split_covers_everything() {
        let starts = interval_starts(10, 3, PartitionStrategy::EqualVertices, &[]);
        assert_eq!(starts, vec![0, 3, 6, 10]);
        assert_eq!(starts.len(), 4);
    }

    #[test]
    fn equal_split_p_exceeds_v() {
        // More intervals than vertices: some intervals are empty, but the
        // boundary array stays monotone and covers [0, V).
        let starts = interval_starts(3, 5, PartitionStrategy::EqualVertices, &[]);
        assert_eq!(*starts.first().unwrap(), 0);
        assert_eq!(*starts.last().unwrap(), 3);
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn interval_of_matches_boundaries() {
        let starts = vec![0u32, 3, 6, 10];
        assert_eq!(interval_of(&starts, 0), 0);
        assert_eq!(interval_of(&starts, 2), 0);
        assert_eq!(interval_of(&starts, 3), 1);
        assert_eq!(interval_of(&starts, 5), 1);
        assert_eq!(interval_of(&starts, 6), 2);
        assert_eq!(interval_of(&starts, 9), 2);
    }

    #[test]
    fn balanced_split_evens_out_degree_mass() {
        // One hub with degree 90, then 9 vertices of degree 10 each.
        let mut degrees = vec![90u32];
        degrees.extend(std::iter::repeat_n(10u32, 9));
        let starts = interval_starts(10, 2, PartitionStrategy::BalancedOutDegree, &degrees);
        assert_eq!(starts.len(), 3);
        assert_eq!(starts[0], 0);
        assert_eq!(starts[2], 10);
        // The hub alone is half the mass, so the first interval should be
        // tiny.
        let first: u64 = degrees[..starts[1] as usize].iter().map(|&d| d as u64).sum();
        let second: u64 = degrees[starts[1] as usize..].iter().map(|&d| d as u64).sum();
        assert!(first.abs_diff(second) <= 90, "first {first}, second {second}");
    }

    #[test]
    fn balanced_split_handles_zero_degrees() {
        let degrees = vec![0u32; 8];
        let starts = interval_starts(8, 4, PartitionStrategy::BalancedOutDegree, &degrees);
        assert_eq!(*starts.last().unwrap(), 8);
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn single_interval() {
        let starts = interval_starts(100, 1, PartitionStrategy::EqualVertices, &[]);
        assert_eq!(starts, vec![0, 100]);
        assert_eq!(interval_of(&starts, 99), 0);
    }
}
