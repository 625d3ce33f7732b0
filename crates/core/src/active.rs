//! Concurrent active-vertex set (the frontier).
//!
//! The paper schedules work from the set of active vertices — vertices
//! whose value changed in the previous iteration (§1, Algorithm 1). This
//! is a fixed-size atomic bitmap: readers scan it per interval, and the
//! ROP/COP workers mark newly-activated vertices concurrently.

use crate::program::VertexProgram;
use crate::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic bitmap over vertex ids with helpers for per-interval queries.
///
/// ```
/// use hus_core::ActiveSet;
///
/// let frontier = ActiveSet::new(100);
/// assert!(frontier.set(7));    // newly activated
/// assert!(!frontier.set(7));   // already active
/// frontier.set(64);
/// assert_eq!(frontier.iter().collect::<Vec<_>>(), vec![7, 64]);
/// assert_eq!(frontier.count_range(0, 10), 1);
/// ```
#[derive(Debug)]
pub struct ActiveSet {
    words: Vec<AtomicU64>,
    num_vertices: u32,
}

impl ActiveSet {
    /// An empty set over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        let words = (num_vertices as usize).div_ceil(64);
        ActiveSet { words: (0..words).map(|_| AtomicU64::new(0)).collect(), num_vertices }
    }

    /// A set with every vertex active.
    pub fn all(num_vertices: u32) -> Self {
        let set = Self::new(num_vertices);
        for (w, word) in set.words.iter().enumerate() {
            let base = (w * 64) as u64;
            let valid = (num_vertices as u64).saturating_sub(base).min(64);
            let mask = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
            word.store(mask, Ordering::Relaxed);
        }
        set
    }

    /// Build from a predicate.
    pub fn from_fn(num_vertices: u32, mut f: impl FnMut(VertexId) -> bool) -> Self {
        let set = Self::new(num_vertices);
        for v in 0..num_vertices {
            if f(v) {
                set.set(v);
            }
        }
        set
    }

    /// The frontier `program` starts from: every vertex if it is always
    /// active, otherwise the initially active ones.
    pub fn initial<Pr: VertexProgram>(program: &Pr, num_vertices: u32) -> Self {
        if program.always_active() {
            Self::all(num_vertices)
        } else {
            Self::from_fn(num_vertices, |v| program.initially_active(v))
        }
    }

    /// The frontier an iteration of `program` fills for the next one:
    /// empty — or, if it is always active, already full.
    pub fn next<Pr: VertexProgram>(program: &Pr, num_vertices: u32) -> Self {
        if program.always_active() {
            Self::all(num_vertices)
        } else {
            Self::new(num_vertices)
        }
    }

    /// Number of vertices the set ranges over.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Mark `v` active. Returns `true` if it was newly activated.
    pub fn set(&self, v: VertexId) -> bool {
        debug_assert!(v < self.num_vertices);
        let bit = 1u64 << (v % 64);
        let prev = self.words[v as usize / 64].fetch_or(bit, Ordering::Relaxed);
        prev & bit == 0
    }

    /// Whether `v` is active.
    pub fn get(&self, v: VertexId) -> bool {
        debug_assert!(v < self.num_vertices);
        self.words[v as usize / 64].load(Ordering::Relaxed) & (1u64 << (v % 64)) != 0
    }

    /// Total number of active vertices.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as u64).sum()
    }

    /// Active vertices in `[start, end)`.
    pub fn count_range(&self, start: VertexId, end: VertexId) -> u64 {
        self.iter_range(start, end).count() as u64
    }

    /// The active vertices of `[start, end)` as a bitmap over the range
    /// — local vertex `k` at bit `k % 64` of word `k / 64` — listed by
    /// its nonzero words, `(word index, word)`, ascending. Reads whole
    /// words, never single vertices.
    pub fn marked_words(&self, start: VertexId, end: VertexId) -> Vec<(usize, u64)> {
        assert!(start <= end && end <= self.num_vertices);
        let (len, first, shift) = ((end - start) as usize, start as usize / 64, start % 64);
        let word = |w: usize| self.words.get(w).map_or(0, |x| x.load(Ordering::Relaxed));
        (0..len.div_ceil(64))
            .filter_map(|k| {
                let mut bits = word(first + k) >> shift;
                if shift > 0 {
                    bits |= word(first + k + 1) << (64 - shift);
                }
                if len - 64 * k < 64 {
                    bits &= (1 << (len - 64 * k)) - 1;
                }
                (bits != 0).then_some((k, bits))
            })
            .collect()
    }

    /// Whether no vertex is active.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Relaxed) == 0)
    }

    /// Iterate the active vertices in `[start, end)` in ascending order.
    ///
    /// The iterator reads each word once; bits set concurrently during
    /// iteration may or may not be observed (callers only iterate the
    /// *previous* iteration's frontier, which is no longer mutated).
    pub fn iter_range(&self, start: VertexId, end: VertexId) -> ActiveIter<'_> {
        assert!(start <= end && end <= self.num_vertices);
        ActiveIter { set: self, next: start, end, word: 0, word_index: usize::MAX }
    }

    /// Iterate every active vertex.
    pub fn iter(&self) -> ActiveIter<'_> {
        self.iter_range(0, self.num_vertices)
    }

    /// Snapshot the raw bitmap words (little-endian bit order within
    /// each word), for checkpointing. Taken between iterations, when no
    /// concurrent mutation is in flight.
    pub fn to_words(&self) -> Vec<u64> {
        self.words.iter().map(|w| w.load(Ordering::Relaxed)).collect()
    }

    /// Rebuild a set from a [`ActiveSet::to_words`] snapshot. Returns
    /// `None` when the snapshot's shape contradicts `num_vertices`
    /// (wrong word count, or bits set past the last vertex) — callers
    /// treat that as an invalid checkpoint, not a panic.
    pub fn from_words(num_vertices: u32, words: &[u64]) -> Option<Self> {
        let set = Self::new(num_vertices);
        if words.len() != set.words.len() {
            return None;
        }
        let valid_last = match num_vertices % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        };
        for (i, (&w, slot)) in words.iter().zip(&set.words).enumerate() {
            if i + 1 == words.len() && w & !valid_last != 0 {
                return None;
            }
            slot.store(w, Ordering::Relaxed);
        }
        Some(set)
    }

    /// Sum of `degrees[v]` over active `v` in `[start, end)` — the
    /// paper's `Σ_{v ∈ A_i} d_v` (number of active out-edges of an
    /// interval, §3.4).
    pub fn active_degree_sum(&self, start: VertexId, end: VertexId, degrees: &[u32]) -> u64 {
        self.iter_range(start, end).map(|v| degrees[v as usize] as u64).sum()
    }
}

/// Iterator over set bits; see [`ActiveSet::iter_range`].
pub struct ActiveIter<'a> {
    set: &'a ActiveSet,
    next: VertexId,
    end: VertexId,
    word: u64,
    word_index: usize,
}

impl Iterator for ActiveIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        loop {
            if self.next >= self.end {
                return None;
            }
            let wi = self.next as usize / 64;
            if wi != self.word_index {
                self.word_index = wi;
                self.word = self.set.words[wi].load(Ordering::Relaxed);
                // Mask off bits below `next`.
                self.word &= u64::MAX << (self.next % 64);
            }
            if self.word == 0 {
                // Jump to the next word boundary.
                self.next = ((wi as u32) + 1) * 64;
                continue;
            }
            let bit = self.word.trailing_zeros();
            let v = (wi as u32) * 64 + bit;
            self.word &= self.word - 1; // clear lowest set bit
            self.next = v + 1;
            if v >= self.end {
                return None;
            }
            return Some(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let s = ActiveSet::new(100);
        assert!(s.is_empty());
        assert!(s.set(5));
        assert!(!s.set(5), "second set reports already active");
        s.set(64);
        s.set(99);
        assert!(s.get(5) && s.get(64) && s.get(99));
        assert!(!s.get(6));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn all_counts_exactly_n() {
        for n in [1u32, 63, 64, 65, 128, 1000] {
            let s = ActiveSet::all(n);
            assert_eq!(s.count(), n as u64, "n = {n}");
            assert!(s.get(n - 1));
        }
    }

    #[test]
    fn iter_range_respects_bounds() {
        let s = ActiveSet::new(256);
        for v in [0u32, 1, 63, 64, 65, 127, 128, 200, 255] {
            s.set(v);
        }
        let got: Vec<u32> = s.iter_range(1, 200).collect();
        assert_eq!(got, vec![1, 63, 64, 65, 127, 128]);
        let all: Vec<u32> = s.iter().collect();
        assert_eq!(all, vec![0, 1, 63, 64, 65, 127, 128, 200, 255]);
    }

    #[test]
    fn marked_words_are_the_range_rebased_to_its_start() {
        let s = ActiveSet::from_fn(300, |v| v % 7 == 3 || (100..170).contains(&v));
        for (start, end) in [(0, 300), (1, 200), (64, 128), (70, 299), (130, 131), (5, 5)] {
            let mut want: Vec<(usize, u64)> = Vec::new();
            for v in s.iter_range(start, end) {
                let k = (v - start) as usize;
                match want.last_mut() {
                    Some((w, bits)) if *w == k / 64 => *bits |= 1 << (k % 64),
                    _ => want.push((k / 64, 1 << (k % 64))),
                }
            }
            assert_eq!(s.marked_words(start, end), want, "[{start}, {end})");
        }
    }

    #[test]
    fn iter_empty_and_full_words() {
        let s = ActiveSet::new(300);
        s.set(290);
        let got: Vec<u32> = s.iter_range(0, 300).collect();
        assert_eq!(got, vec![290]);
        assert_eq!(s.count_range(0, 290), 0);
        assert_eq!(s.count_range(290, 300), 1);
    }

    #[test]
    fn from_fn_builds_predicate_set() {
        let s = ActiveSet::from_fn(50, |v| v % 10 == 0);
        assert_eq!(s.count(), 5);
        assert!(s.get(40));
        assert!(!s.get(41));
    }

    #[test]
    fn active_degree_sum_matches_paper_formula() {
        let degrees: Vec<u32> = (0..10).collect();
        let s = ActiveSet::from_fn(10, |v| v % 2 == 1);
        // active: 1,3,5,7,9 with degrees 1,3,5,7,9
        assert_eq!(s.active_degree_sum(0, 10, &degrees), 25);
        assert_eq!(s.active_degree_sum(0, 5, &degrees), 4);
        assert_eq!(s.active_degree_sum(5, 10, &degrees), 21);
    }

    #[test]
    fn words_snapshot_roundtrips_and_rejects_bad_shapes() {
        let s = ActiveSet::from_fn(100, |v| v % 7 == 0);
        let words = s.to_words();
        let r = ActiveSet::from_words(100, &words).unwrap();
        assert_eq!(r.iter().collect::<Vec<_>>(), s.iter().collect::<Vec<_>>());
        // Wrong word count.
        assert!(ActiveSet::from_words(100, &words[..1]).is_none());
        // Bits past the last vertex.
        let mut bad = words.clone();
        *bad.last_mut().unwrap() |= 1u64 << 63;
        assert!(ActiveSet::from_words(100, &bad).is_none());
        // Exact multiples of 64 use the full last word.
        let full = ActiveSet::all(128);
        assert_eq!(ActiveSet::from_words(128, &full.to_words()).unwrap().count(), 128);
    }

    #[test]
    fn concurrent_sets_count_once() {
        let s = std::sync::Arc::new(ActiveSet::new(64));
        let mut newly = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = std::sync::Arc::clone(&s);
                    scope.spawn(move || (0..64).filter(|&v| s.set(v)).count())
                })
                .collect();
            for h in handles {
                newly.push(h.join().unwrap());
            }
        });
        assert_eq!(newly.iter().sum::<usize>(), 64, "each bit newly set exactly once");
        assert_eq!(s.count(), 64);
    }
}
