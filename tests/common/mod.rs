//! The generated-test driver of the integration tests: a splitmix64
//! stream from a logged seed, and one edge-list generator.
//!
//! A test takes its stream from [`SplitMix::logged`], which prints the
//! seed on stderr (shown when the test fails); putting that seed into
//! the test file's `REPLAY` constant reruns the same cases.

// Each test crate compiles this module and uses a part of it.
#![allow(dead_code)]

use std::ops::Range;

use husgraph::gen::types::splitmix64;
use husgraph::gen::EdgeList;

/// The splitmix64 stream whose state is the field.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The stream of a test's cases: `replay`'s seed or the clock's,
    /// logged under `what`.
    pub fn logged(what: &str, replay: Option<u64>) -> Self {
        let seed = replay.unwrap_or_else(|| {
            let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
            now.map_or(0, |d| d.as_nanos() as u64)
        });
        eprintln!("{what} seed: {seed:#x}");
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// A draw from `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A draw from `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

/// An unweighted graph with a vertex count drawn from `vertices` and an
/// edge count drawn from `edges`, each edge's endpoints uniform over
/// the vertices (self-loops and duplicates included).
pub fn edge_list(rng: &mut SplitMix, vertices: Range<u32>, edges: Range<usize>) -> EdgeList {
    let n = rng.range(vertices.start.into(), vertices.end.into()) as u32;
    let m = rng.range(edges.start as u64, edges.end as u64);
    let pairs = (0..m).map(|_| (rng.below(n.into()) as u32, rng.below(n.into()) as u32));
    EdgeList { num_vertices: n, ..EdgeList::from_pairs(pairs) }
}

/// `property` on `recorded` — a graph and its P — when `vertices`,
/// `edges` and `ps` admit it, then on `cases` graphs from [`edge_list`]
/// with a P drawn from `ps`, all from the stream logged under `what`.
/// The property gets the stream for further draws and the case's name
/// for its messages.
pub fn graph_cases(
    what: &str,
    replay: Option<u64>,
    recorded: &(EdgeList, u32),
    cases: usize,
    (vertices, edges, ps): (Range<u32>, Range<usize>, Range<u32>),
    mut property: impl FnMut(&mut SplitMix, &EdgeList, u32, &str),
) {
    let mut rng = SplitMix::logged(what, replay);
    let (el, p) = recorded;
    if vertices.contains(&el.num_vertices) && edges.contains(&el.edges.len()) && ps.contains(p) {
        property(&mut rng, el, *p, "recorded case");
    }
    for case in 0..cases {
        let el = edge_list(&mut rng, vertices.clone(), edges.clone());
        let p = rng.range(ps.start.into(), ps.end.into()) as u32;
        let (n, m) = (el.num_vertices, el.edges.len());
        property(&mut rng, &el, p, &format!("case {case} ({n} vertices, {m} edges, P {p})"));
    }
}
