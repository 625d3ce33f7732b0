//! The sparse block index, in memory.
//!
//! On disk (`docs/FORMAT.md`) a block's index is an occupancy bitmap
//! over the interval that owns its shard plus one `u32` offset per
//! occupied vertex and a terminal one — DCSC (Buluç & Gilbert, IPDPS
//! 2008) with one bitmap. [`crate::HusGraph::open`] loads every bitmap
//! once and keeps it resident as an [`Occupancy`] with a rank directory,
//! so asking whether a vertex has edges in a block, or where its offset
//! sits in the block's offset array, costs no I/O. Only the offsets are
//! read per run: a probe of an occupied vertex is one 8-byte read at its
//! rank, a whole-index load reads `(occupied + 1)` entries — which an
//! engine run then keeps for its remaining pushes
//! ([`crate::rop::KeptOffsets`]).
//!
//! A block of the delta overlay has the same two parts, built in memory
//! by the same [`BlockParts`] that lays out every block the
//! shard writer writes, so every reader sees one [`BlockIndex`] type
//! whichever source serves the block.

use crate::meta::Orientation;
use hus_storage::{pod, Result, StorageError};
use std::borrow::Cow;
use std::ops::Range;

/// Bitmap words covered by one rank-directory entry (512 bits).
const RANK_WORDS: usize = 8;

/// One block's occupancy bitmap and its rank directory: which local
/// vertices of the owning interval have records in the block, and how
/// many occupied vertices precede each one.
#[derive(Debug)]
pub struct Occupancy {
    /// Bit `k % 64` of word `k / 64` is local vertex `k`; bits past the
    /// interval's end are zero.
    words: Box<[u64]>,
    /// `ranks[b]`: set bits in `words[..b * RANK_WORDS]`.
    ranks: Box<[u32]>,
    /// Set bits in all of `words`.
    count: u32,
}

impl Occupancy {
    /// The occupancy of a block over an interval of `len` vertices from
    /// its bitmap words, or what is wrong with them: a word count that
    /// does not cover `len` exactly, or a set bit past `len`.
    pub fn new(words: Vec<u64>, len: usize) -> std::result::Result<Self, String> {
        if words.len() != len.div_ceil(64) {
            return Err(format!("{} bitmap words for {len} vertices", words.len()));
        }
        if let Some(&last) = words.last().filter(|_| !len.is_multiple_of(64)) {
            if last >> (len % 64) != 0 {
                return Err(format!("bits set past the interval's {len} vertices"));
            }
        }
        let mut ranks = Vec::with_capacity(words.len().div_ceil(RANK_WORDS));
        let mut count = 0u32;
        for chunk in words.chunks(RANK_WORDS) {
            ranks.push(count);
            count += chunk.iter().map(|w| w.count_ones()).sum::<u32>();
        }
        Ok(Occupancy { words: words.into(), ranks: ranks.into(), count })
    }

    /// Number of occupied vertices.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Whether local vertex `local` has records in the block.
    #[inline]
    pub fn contains(&self, local: usize) -> bool {
        self.words[local / 64] >> (local % 64) & 1 == 1
    }

    /// Occupied vertices before local vertex `local`: the position of
    /// `local`'s offset in the block's offset array when it is occupied.
    #[inline]
    pub fn rank(&self, local: usize) -> usize {
        let w = local / 64;
        let from = w - w % RANK_WORDS;
        let before: u32 = self.words[from..w].iter().map(|x| x.count_ones()).sum();
        let below = self.words[w] & ((1u64 << (local % 64)) - 1);
        (self.ranks[w / RANK_WORDS] + before + below.count_ones()) as usize
    }

    /// The occupied local vertices among those a bitmap over the
    /// interval marks, ascending. `marked` lists the bitmap's nonzero
    /// words as `(word index, word)`, ascending
    /// ([`crate::ActiveSet::marked_words`]); each is one AND with the
    /// occupancy, not one test per vertex.
    pub fn among<'s>(&'s self, marked: &'s [(usize, u64)]) -> impl Iterator<Item = usize> + 's {
        marked.iter().flat_map(move |&(w, bits)| {
            let mut hit = bits & self.words[w];
            std::iter::from_fn(move || {
                let k = (hit != 0).then(|| w * 64 + hit.trailing_zeros() as usize);
                hit &= hit.wrapping_sub(1);
                k
            })
        })
    }

    /// Every occupied local vertex, ascending.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let k = (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize);
                bits &= bits.wrapping_sub(1);
                k
            })
        })
    }

    /// The bitmap as stored on disk.
    pub fn as_bytes(&self) -> &[u8] {
        pod::as_bytes(&self.words)
    }

    /// Bytes held in memory: the bitmap and its rank directory.
    pub fn resident_bytes(&self) -> u64 {
        (self.words.len() * 8 + self.ranks.len() * 4) as u64
    }
}

/// One block's index: its occupancy and its `occupied + 1` offsets —
/// read from disk for a base block, lent from memory by an overlay
/// block.
#[derive(Debug)]
pub struct BlockIndex<'a> {
    occupancy: &'a Occupancy,
    offsets: Cow<'a, [u32]>,
}

impl<'a> BlockIndex<'a> {
    /// The index of a block with `occupancy` and its offsets.
    pub(crate) fn new(occupancy: &'a Occupancy, offsets: impl Into<Cow<'a, [u32]>>) -> Self {
        BlockIndex { occupancy, offsets: offsets.into() }
    }

    /// The block's occupancy.
    pub(crate) fn occupancy(&self) -> &'a Occupancy {
        self.occupancy
    }

    /// The offsets, when they were read from disk (a base block) for the
    /// caller to keep; the index itself when it lends them from memory
    /// (an overlay block).
    pub(crate) fn into_read_offsets(self) -> std::result::Result<Vec<u32>, Self> {
        match self.offsets {
            Cow::Owned(offsets) => Ok(offsets),
            Cow::Borrowed(_) => Err(self),
        }
    }

    /// Records `[lo, hi)` of local vertex `local`; `(0, 0)` when it has
    /// none.
    #[inline]
    pub fn range(&self, local: usize) -> (u32, u32) {
        if !self.occupancy.contains(local) {
            return (0, 0);
        }
        let r = self.occupancy.rank(local);
        (self.offsets[r], self.offsets[r + 1])
    }

    /// `(local, lo, hi)` of every vertex with records in the block,
    /// ascending — which is record order.
    #[inline]
    pub fn ranges(&self) -> impl Iterator<Item = (usize, u32, u32)> + '_ {
        self.occupancy.iter().zip(self.offsets.windows(2)).map(|(local, w)| (local, w[0], w[1]))
    }

    /// The dense view over an interval of `len` vertices: `len + 1`
    /// offsets, entry `k` the first record of local vertex `k` and entry
    /// `len` the block's record count.
    pub fn to_dense(&self, len: usize) -> Vec<u32> {
        let mut dense = Vec::with_capacity(len + 1);
        let mut r = 0;
        for local in 0..len {
            dense.push(self.offsets[r]);
            r += self.occupancy.contains(local) as usize;
        }
        dense.push(self.offsets[r]);
        dense
    }
}

/// One block laid out as the format stores it — occupancy bitmap words,
/// `occupied + 1` offsets and the raw records — from its records in
/// canonical order: the shard writer writes it, the delta overlay keeps
/// it. [`Self::start`] empties the buffers for reuse, records are pushed
/// by own vertex, ascending, and [`Self::finish`] seals the block.
#[derive(Debug, Default)]
pub(crate) struct BlockParts {
    /// Bit `k % 64` of word `k / 64` is local vertex `k`.
    pub(crate) words: Vec<u64>,
    /// The first record of every occupied vertex, then the record count.
    pub(crate) offsets: Vec<u32>,
    /// The records, neighbor then (on a weighted graph) weight each.
    pub(crate) raw: Vec<u8>,
    /// The owning interval's first vertex.
    first: u32,
    /// Whether a record carries its weight.
    weighted: bool,
    /// Records appended.
    count: u64,
    /// The local vertex appended to last.
    last: Option<usize>,
}

impl BlockParts {
    /// Empty the parts for a block over the owning interval `interval`.
    pub(crate) fn start(&mut self, interval: Range<u32>, weighted: bool) {
        self.words.clear();
        self.words.resize(interval.len().div_ceil(64), 0);
        self.offsets.clear();
        self.raw.clear();
        (self.first, self.weighted, self.count, self.last) = (interval.start, weighted, 0, None);
    }

    /// Append `raw`, whole records as stored, to own vertex `v`: the
    /// vertex appended to last or a later one.
    #[inline]
    pub(crate) fn push_raw(&mut self, v: u32, raw: &[u8]) {
        if !raw.is_empty() {
            self.open(v);
            self.count += (raw.len() / if self.weighted { 8 } else { 4 }) as u64;
            self.raw.extend_from_slice(raw);
        }
    }

    /// Append one record to own vertex `v` (as [`Self::push_raw`]).
    #[inline]
    pub(crate) fn push(&mut self, v: u32, neighbor: u32, weight: f32) {
        self.open(v);
        self.count += 1;
        self.raw.extend_from_slice(&neighbor.to_le_bytes());
        if self.weighted {
            self.raw.extend_from_slice(&weight.to_le_bytes());
        }
    }

    /// Mark own vertex `v` occupied, its first record the next one.
    #[inline]
    fn open(&mut self, v: u32) {
        let local = (v - self.first) as usize;
        if self.last != Some(local) {
            debug_assert!(self.last < Some(local), "records must arrive by own vertex");
            self.words[local / 64] |= 1 << (local % 64);
            self.offsets.push(self.count as u32);
            self.last = Some(local);
        }
    }

    /// Seal the parts as `o`-block `(i, j)` with the terminal offset.
    /// Offsets are `u32` (docs/FORMAT.md): a block of more records is
    /// refused.
    pub(crate) fn finish(&mut self, (o, i, j): (Orientation, usize, usize)) -> Result<()> {
        let count = self.len();
        if count > u32::MAX as u64 {
            return Err(StorageError::CapacityExceeded {
                what: format!("records in {}-block ({i}, {j})", o.name()),
                count,
                limit: u32::MAX as u64,
            });
        }
        self.offsets.push(count as u32);
        Ok(())
    }

    /// Records in the block.
    pub(crate) fn len(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The occupancy of `len` vertices with `set` occupied.
    fn occupancy(len: usize, set: &[usize]) -> Occupancy {
        let mut words = vec![0u64; len.div_ceil(64)];
        for &k in set {
            words[k / 64] |= 1 << (k % 64);
        }
        Occupancy::new(words, len).unwrap()
    }

    #[test]
    fn rank_counts_the_occupied_vertices_before() {
        for len in [1usize, 63, 64, 65, 600, 1200] {
            let set: Vec<usize> = (0..len).filter(|k| k % 3 == 0 || k % 7 == 5).collect();
            let occ = occupancy(len, &set);
            assert_eq!(occ.count(), set.len(), "len {len}");
            for local in 0..len {
                let want = set.iter().filter(|&&k| k < local).count();
                assert_eq!(occ.rank(local), want, "len {len}, vertex {local}");
                assert_eq!(occ.contains(local), set.contains(&local));
            }
            assert_eq!(occ.iter().collect::<Vec<_>>(), set);
        }
    }

    #[test]
    fn malformed_bitmaps_are_refused() {
        assert!(Occupancy::new(vec![0; 2], 64).unwrap_err().contains("2 bitmap words"));
        assert!(Occupancy::new(vec![1 << 5], 5).unwrap_err().contains("past"));
        assert!(Occupancy::new(vec![u64::MAX], 64).is_ok());
        assert_eq!(Occupancy::new(Vec::new(), 0).unwrap().count(), 0);
    }

    #[test]
    fn sparse_and_dense_views_agree() {
        // Vertices 1 and 4 of 6 hold records [0, 2) and [2, 5).
        let occ = occupancy(6, &[1, 4]);
        let index = BlockIndex::new(&occ, vec![0, 2, 5]);
        assert_eq!(index.to_dense(6), [0, 0, 2, 2, 2, 5, 5]);
        assert_eq!(index.ranges().collect::<Vec<_>>(), [(1, 0, 2), (4, 2, 5)]);
        assert_eq!(index.range(4), (2, 5));
        assert_eq!(index.range(3), (0, 0));
    }

    #[test]
    fn among_keeps_the_marked_occupied_vertices() {
        let set: Vec<usize> = (0..1200).filter(|k| k % 3 == 0 || k % 7 == 5).collect();
        let occ = occupancy(1200, &set);
        let marked_vertices: Vec<usize> = (0..1200).filter(|k| k % 5 == 0 || *k > 1100).collect();
        let mut marked: Vec<(usize, u64)> = Vec::new();
        for &k in &marked_vertices {
            match marked.last_mut() {
                Some((w, bits)) if *w == k / 64 => *bits |= 1 << (k % 64),
                _ => marked.push((k / 64, 1 << (k % 64))),
            }
        }
        let want: Vec<usize> = marked_vertices.into_iter().filter(|&k| occ.contains(k)).collect();
        assert!(want.len() > 100);
        assert_eq!(occ.among(&marked).collect::<Vec<_>>(), want);
    }
}
