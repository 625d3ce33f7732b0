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
//! rank, a whole-index load reads `(occupied + 1)` entries.

use hus_storage::pod;

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
    pub fn new(words: Vec<u64>, len: usize) -> Result<Self, String> {
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

    /// Call `f` with every occupied local vertex, ascending.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
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

/// Which vertices of the owning interval have records in one block,
/// whatever serves it. Resident: asking costs no I/O.
#[derive(Debug)]
pub enum Occupied<'a> {
    /// A base block: its bitmap, loaded at open.
    Bitmap(&'a Occupancy),
    /// A block of the delta overlay: its in-memory dense offsets.
    Dense(&'a [u32]),
}

impl Occupied<'_> {
    /// Whether local vertex `local` has records in the block.
    #[inline]
    pub fn contains(&self, local: usize) -> bool {
        match self {
            Occupied::Bitmap(occupancy) => occupancy.contains(local),
            Occupied::Dense(index) => index[local] < index[local + 1],
        }
    }
}

/// A loaded block index: where each vertex of the owning interval finds
/// its records in the block.
#[derive(Debug)]
pub enum BlockIndex<'a> {
    /// A base block: its resident occupancy and the `occupied + 1`
    /// offsets read from disk.
    Sparse(&'a Occupancy, Vec<u32>),
    /// A block of the delta overlay: `len + 1` dense offsets in memory.
    Dense(&'a [u32]),
}

impl BlockIndex<'_> {
    /// Records `[lo, hi)` of local vertex `local`; `lo == hi` when it has
    /// none.
    #[inline]
    pub fn range(&self, local: usize) -> (u32, u32) {
        match self {
            BlockIndex::Sparse(occupancy, offsets) => {
                if !occupancy.contains(local) {
                    return (0, 0);
                }
                let r = occupancy.rank(local);
                (offsets[r], offsets[r + 1])
            }
            BlockIndex::Dense(index) => (index[local], index[local + 1]),
        }
    }

    /// Call `f(local, lo, hi)` for every vertex with records in the
    /// block, ascending — which is record order.
    #[inline]
    pub fn for_each_range(&self, mut f: impl FnMut(usize, u32, u32)) {
        match self {
            BlockIndex::Sparse(occupancy, offsets) => {
                let mut r = 0;
                occupancy.for_each(|local| {
                    f(local, offsets[r], offsets[r + 1]);
                    r += 1;
                });
            }
            BlockIndex::Dense(index) => {
                for (local, w) in index.windows(2).enumerate().filter(|(_, w)| w[0] < w[1]) {
                    f(local, w[0], w[1]);
                }
            }
        }
    }

    /// The dense view over an interval of `len` vertices: `len + 1`
    /// offsets, entry `k` the first record of local vertex `k` and entry
    /// `len` the block's record count.
    pub fn to_dense(&self, len: usize) -> Vec<u32> {
        match self {
            BlockIndex::Sparse(occupancy, offsets) => {
                let mut dense = Vec::with_capacity(len + 1);
                let mut r = 0;
                for local in 0..len {
                    dense.push(offsets[r]);
                    r += occupancy.contains(local) as usize;
                }
                dense.push(offsets[r]);
                dense
            }
            BlockIndex::Dense(index) => index.to_vec(),
        }
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
            let mut seen = Vec::new();
            occ.for_each(|k| seen.push(k));
            assert_eq!(seen, set);
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
        let sparse = BlockIndex::Sparse(&occ, vec![0, 2, 5]);
        let dense = sparse.to_dense(6);
        assert_eq!(dense, [0, 0, 2, 2, 2, 5, 5]);
        let dense = BlockIndex::Dense(&dense);
        for index in [&sparse, &dense] {
            let mut ranges = Vec::new();
            index.for_each_range(|k, lo, hi| ranges.push((k, lo, hi)));
            assert_eq!(ranges, [(1, 0, 2), (4, 2, 5)]);
            assert_eq!(index.range(4), (2, 5));
            let (lo, hi) = index.range(3);
            assert_eq!(lo, hi);
        }
    }
}
