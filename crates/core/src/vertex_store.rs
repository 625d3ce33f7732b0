//! Double-buffered on-disk vertex value store.
//!
//! The paper keeps two copies of the vertex values per interval: `S_i`
//! (previous iteration, read-only) and `D_i` (current iteration,
//! write-only), swapped once the interval's row/column has been processed
//! (§3.3). We realize this with two files and a per-interval "which file
//! is current" flag, so a swap is a flag flip rather than a data copy.
//!
//! All loads and stores go through the tracked storage layer; the caller
//! supplies the [`Access`] classification because the same transfer is
//! billed at random throughput under ROP and sequential under COP
//! (exactly as the paper's `C_rop`/`C_cop` formulas do).
//!
//! An interval's current values may also be *resident*, and the store is
//! then write-back, not write-through: a ROP push hands each `D_j` it
//! pushed into over with [`VertexStore::commit_resident`], which flips
//! the interval and keeps the buffer as its only current copy without
//! writing it. Loads of that interval are served from memory, unbilled,
//! by [`VertexStore::current`]. The next push takes every resident copy
//! over ([`VertexStore::take_resident`]) and settles each one: it
//! commits a newer value (a push into the interval or a `reset`
//! re-derivation), or writes the carried copy to the next file and
//! commits that — the one write a resident copy ever costs, in the
//! iteration that drops it. A pull writes and commits every column,
//! superseding every resident copy unwritten. So residency lasts one
//! iteration and between iterations never exceeds the `D` buffers the
//! previous push held, and the files alone are not a result:
//! [`VertexStore::read_all_current`] (results, checkpoints) takes a
//! resident interval from memory and the rest from the files. A copy is
//! never discarded any other way: reading an interval whose copy a push
//! has taken and not settled panics.

use crate::VertexId;
use hus_storage::pod::{self, Pod};
use hus_storage::TrackedFile;
use hus_storage::{Access, Result, StorageDir};
use std::borrow::Cow;

/// Nanosecond latency of interval value loads (`S_i`/`D_i` reads).
static LOAD_NS: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("store.load_ns");
/// Nanosecond latency of interval value writes (`D_i` stores: COP
/// columns, `reset` re-derivations and the write-back of a resident copy
/// a push drops).
static WRITE_NS: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("store.write_ns");
/// Interval value bytes served from a resident copy instead of a load.
static RESIDENT_BYTES: hus_obs::LazyCounter = hus_obs::LazyCounter::new("store.resident_bytes");

/// Count `values`, a resident copy, as served from memory instead of
/// loaded (`store.resident_bytes`).
pub fn count_served<V: Pod>(values: &[V]) {
    RESIDENT_BYTES.add(std::mem::size_of_val(values) as u64);
}

/// Two-file double buffer of `V` values partitioned into intervals.
pub struct VertexStore<V: Pod> {
    file_a: TrackedFile,
    file_b: TrackedFile,
    /// Per interval: whether the *current* copy lives in `file_a`.
    current_is_a: Vec<bool>,
    /// Per interval: where its current values are.
    current: Vec<Current<V>>,
    starts: Vec<VertexId>,
}

/// Where one interval's current values are.
enum Current<V> {
    /// In the current file.
    File,
    /// Only in memory: the current file holds an older copy.
    Resident(Vec<V>),
    /// Handed to a push ([`VertexStore::take_resident`]), which commits
    /// newer values or writes this copy back.
    Taken,
}

impl<V: Pod> VertexStore<V> {
    /// Create the two backing files under `dir` (named `<prefix>_a.bin` /
    /// `<prefix>_b.bin`) and initialize every vertex's current value with
    /// `init`. The initial population is written (and billed) once.
    pub fn create(
        dir: &StorageDir,
        prefix: &str,
        starts: &[VertexId],
        mut init: impl FnMut(VertexId) -> V,
    ) -> Result<Self> {
        assert!(starts.len() >= 2, "need at least one interval");
        let num_vertices = *starts.last().unwrap();
        let bytes = num_vertices as u64 * std::mem::size_of::<V>() as u64;
        let file_a = dir.update(&format!("{prefix}_a.bin"))?;
        let file_b = dir.update(&format!("{prefix}_b.bin"))?;
        file_a.set_len(bytes)?;
        file_b.set_len(bytes)?;
        let values: Vec<V> = (0..num_vertices).map(&mut init).collect();
        file_a.write_at(0, pod::as_bytes(&values))?;
        Ok(VertexStore {
            file_a,
            file_b,
            current_is_a: vec![true; starts.len() - 1],
            current: (1..starts.len()).map(|_| Current::File).collect(),
            starts: starts.to_vec(),
        })
    }

    /// Number of intervals.
    pub fn num_intervals(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of vertices in interval `i`.
    pub fn interval_len(&self, i: usize) -> u32 {
        self.starts[i + 1] - self.starts[i]
    }

    /// First vertex id of interval `i`.
    pub fn interval_start(&self, i: usize) -> VertexId {
        self.starts[i]
    }

    fn byte_range(&self, i: usize) -> (u64, usize) {
        let sz = std::mem::size_of::<V>() as u64;
        (self.starts[i] as u64 * sz, self.interval_len(i) as usize)
    }

    fn load_from(&self, from_a: bool, i: usize, access: Access) -> Result<Vec<V>> {
        let (offset, count) = self.byte_range(i);
        let file = if from_a { &self.file_a } else { &self.file_b };
        let t0 = hus_obs::latency_timer();
        let values = hus_storage::read_pod_vec(file, offset, count, access);
        LOAD_NS.record_elapsed(t0);
        values
    }

    /// Interval `i`'s **current** (`S_i`) values: borrowed from its
    /// resident copy at no I/O, otherwise one tracked load.
    ///
    /// # Panics
    /// If a push has taken the interval's resident copy and not yet
    /// settled it: the file holds older values.
    pub fn current(&self, i: usize, access: Access) -> Result<Cow<'_, [V]>> {
        match self.resident(i) {
            Some(values) => {
                count_served(values);
                Ok(Cow::Borrowed(values))
            }
            None => Ok(Cow::Owned(self.load_from(self.current_is_a[i], i, access)?)),
        }
    }

    /// Interval `i`'s resident copy; `None` when the current file holds
    /// its current values.
    fn resident(&self, i: usize) -> Option<&[V]> {
        match &self.current[i] {
            Current::Resident(values) => Some(values),
            Current::File => None,
            Current::Taken => panic!("interval {i}'s current values are held by a push"),
        }
    }

    /// Interval `i`'s **current** (`S_i`) values, owned
    /// ([`Self::current`]).
    pub fn load_current(&self, i: usize, access: Access) -> Result<Vec<V>> {
        Ok(self.current(i, access)?.into_owned())
    }

    /// Load interval `i`'s in-progress **next** (`D_i`) values (valid
    /// only after a prior [`Self::write_next`] this iteration).
    pub fn load_next(&self, i: usize, access: Access) -> Result<Vec<V>> {
        self.load_from(!self.current_is_a[i], i, access)
    }

    /// Write interval `i`'s next (`D_i`) values.
    pub fn write_next(&self, i: usize, values: &[V]) -> Result<()> {
        assert_eq!(values.len(), self.interval_len(i) as usize, "interval {i} length mismatch");
        let (offset, _) = self.byte_range(i);
        let file = if self.current_is_a[i] { &self.file_b } else { &self.file_a };
        let t0 = hus_obs::latency_timer();
        let res = file.write_at(offset, pod::as_bytes(values));
        WRITE_NS.record_elapsed(t0);
        res
    }

    /// Swap `S_i` and `D_i`: the next buffer, just written by
    /// [`Self::write_next`], becomes current (paper's `Swap(S_i, D_i)`).
    /// A metadata flip; no data moves. The interval's resident or taken
    /// copy, which held the old current values, is superseded.
    pub fn commit(&mut self, i: usize) {
        self.current_is_a[i] = !self.current_is_a[i];
        self.current[i] = Current::File;
    }

    /// Make `values` interval `i`'s current values without writing them:
    /// the interval flips, and the buffer is its only current copy until
    /// a later [`Self::commit`] supersedes it or a push that takes it
    /// over writes it back.
    pub fn commit_resident(&mut self, i: usize, values: Vec<V>) {
        assert_eq!(values.len(), self.interval_len(i) as usize, "interval {i} length mismatch");
        self.current_is_a[i] = !self.current_is_a[i];
        self.current[i] = Current::Resident(values);
    }

    /// Hand every interval's resident copy over to the caller (a push,
    /// which frees each as soon as it has no further use). The caller
    /// settles each interval it takes: it commits newer values, or
    /// writes the copy to the next file ([`Self::write_next`]) and
    /// commits that. Until then the interval cannot be read. A copy the
    /// caller uses in place of a load is counted with [`count_served`].
    pub fn take_resident(&mut self) -> Vec<Option<Vec<V>>> {
        (self.current.iter_mut())
            .map(|slot| match slot {
                Current::Resident(values) => {
                    let values = std::mem::take(values);
                    *slot = Current::Taken;
                    Some(values)
                }
                _ => None,
            })
            .collect()
    }

    /// Per interval: whether its current values are resident.
    pub fn resident_mask(&self) -> Vec<bool> {
        self.current.iter().map(|slot| matches!(slot, Current::Resident(_))).collect()
    }

    /// Every vertex's current value: resident intervals from memory, the
    /// rest read back from the files (not billed — this is result and
    /// checkpoint collection, not part of the iteration I/O).
    pub fn read_all_current(&self) -> Result<Vec<V>> {
        let mut out = Vec::with_capacity(*self.starts.last().unwrap() as usize);
        for i in 0..self.num_intervals() {
            match self.resident(i) {
                Some(values) => out.extend_from_slice(values),
                None => out.extend(self.load_from(self.current_is_a[i], i, Access::Sequential)?),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(starts: &[u32]) -> (tempfile::TempDir, StorageDir, VertexStore<u32>) {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let vs = VertexStore::create(&dir, "vals", starts, |v| v * 10).unwrap();
        (tmp, dir, vs)
    }

    #[test]
    fn initial_values_visible() {
        let (_t, _d, vs) = store(&[0, 3, 7]);
        assert_eq!(vs.load_current(0, Access::Sequential).unwrap(), vec![0, 10, 20]);
        assert_eq!(vs.load_current(1, Access::Sequential).unwrap(), vec![30, 40, 50, 60]);
        assert_eq!(vs.read_all_current().unwrap(), vec![0, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn write_next_invisible_until_commit() {
        let (_t, _d, mut vs) = store(&[0, 3, 7]);
        vs.write_next(0, &[1, 2, 3]).unwrap();
        assert_eq!(vs.load_current(0, Access::Random).unwrap(), vec![0, 10, 20]);
        assert_eq!(vs.load_next(0, Access::Random).unwrap(), vec![1, 2, 3]);
        vs.commit(0);
        assert_eq!(vs.load_current(0, Access::Random).unwrap(), vec![1, 2, 3]);
        // Interval 1 unaffected.
        assert_eq!(vs.load_current(1, Access::Random).unwrap(), vec![30, 40, 50, 60]);
    }

    #[test]
    fn per_interval_flips_are_independent() {
        let (_t, _d, mut vs) = store(&[0, 2, 4]);
        vs.write_next(1, &[7, 8]).unwrap();
        vs.commit(1);
        vs.write_next(0, &[5, 6]).unwrap();
        // interval 0 not committed yet
        assert_eq!(vs.read_all_current().unwrap(), vec![0, 10, 7, 8]);
        vs.commit(0);
        assert_eq!(vs.read_all_current().unwrap(), vec![5, 6, 7, 8]);
    }

    #[test]
    fn double_commit_returns_to_original_buffer() {
        let (_t, _d, mut vs) = store(&[0, 2]);
        vs.write_next(0, &[1, 1]).unwrap();
        vs.commit(0);
        vs.write_next(0, &[2, 2]).unwrap();
        vs.commit(0);
        assert_eq!(vs.load_current(0, Access::Sequential).unwrap(), vec![2, 2]);
        // The now-next buffer holds the iteration-1 values.
        assert_eq!(vs.load_next(0, Access::Sequential).unwrap(), vec![1, 1]);
    }

    #[test]
    fn io_is_tracked_with_callers_classification() {
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("s")).unwrap();
        let vs: VertexStore<u64> = VertexStore::create(&dir, "v", &[0, 4], |_| 0).unwrap();
        dir.tracker().reset();
        vs.load_current(0, Access::Random).unwrap();
        vs.write_next(0, &[1, 2, 3, 4]).unwrap();
        let s = dir.tracker().snapshot();
        assert_eq!(s.rand_read_bytes, 32);
        assert_eq!(s.write_bytes, 32);
    }

    /// A resident interval is its only current copy: loads and
    /// `read_all_current` take it from memory, unbilled, and it is
    /// written only when a push that takes it over drops it.
    #[test]
    fn resident_intervals_are_served_unbilled_and_written_back_when_dropped() {
        let (_t, dir, mut vs) = store(&[0, 3, 7]);
        dir.tracker().reset();
        vs.commit_resident(1, vec![1, 2, 3, 4]);
        assert_eq!(vs.resident_mask(), [false, true]);
        assert!(matches!(vs.current(1, Access::Sequential).unwrap(), Cow::Borrowed([1, 2, 3, 4])));
        assert_eq!(vs.load_current(1, Access::Sequential).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(dir.tracker().snapshot().read_bytes(), 0, "served from memory");
        assert!(matches!(vs.current(0, Access::Sequential).unwrap(), Cow::Owned(_)));
        let io = dir.tracker().snapshot();
        assert_eq!((io.seq_read_bytes, io.write_bytes), (12, 0), "interval 0 is loaded");
        assert_eq!(vs.read_all_current().unwrap(), vec![0, 10, 20, 1, 2, 3, 4]);

        // A push takes the copy over and, not replacing it, writes it
        // back: one write of the interval.
        let taken = vs.take_resident();
        assert_eq!(taken, [None, Some(vec![1, 2, 3, 4])]);
        assert_eq!(vs.resident_mask(), [false, false]);
        dir.tracker().reset();
        vs.write_next(1, taken[1].as_deref().unwrap()).unwrap();
        vs.commit(1);
        assert_eq!(dir.tracker().snapshot().write_bytes, 16);
        assert_eq!(vs.read_all_current().unwrap(), vec![0, 10, 20, 1, 2, 3, 4]);
        // A commit supersedes a resident copy, which is never written.
        vs.commit_resident(0, vec![5, 6, 7]);
        vs.write_next(0, &[8, 9, 9]).unwrap();
        vs.commit(0);
        assert_eq!(vs.resident_mask(), [false, false]);
        assert_eq!(vs.load_current(0, Access::Sequential).unwrap(), vec![8, 9, 9]);
    }

    /// A copy a push has taken and not settled is nowhere else: the
    /// store refuses to read the interval's older file copy.
    #[test]
    #[should_panic(expected = "held by a push")]
    fn an_unsettled_taken_copy_cannot_be_read() {
        let (_t, _d, mut vs) = store(&[0, 3, 7]);
        vs.commit_resident(1, vec![1, 2, 3, 4]);
        let _taken = vs.take_resident();
        let _ = vs.read_all_current();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn write_next_rejects_wrong_length() {
        let (_t, _d, vs) = store(&[0, 3, 7]);
        vs.write_next(0, &[1, 2]).unwrap();
    }
}
