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
//! An interval's current values may also be *resident*: a ROP
//! write-back hands its `D_j` buffer over with
//! [`VertexStore::commit_resident`] after writing it through to the file,
//! and loads of that interval are then served from memory, unbilled, by
//! [`VertexStore::current`]. Every other commit drops the interval's
//! resident copy, and the next push takes every resident copy over
//! ([`VertexStore::take_resident`]), so residency lasts one iteration
//! and between iterations never exceeds the `D` buffers the previous
//! push held. The files stay complete, so
//! [`VertexStore::read_all_current`] (results, checkpoints) reads them
//! alone.

use crate::VertexId;
use hus_storage::pod::{self, Pod};
use hus_storage::TrackedFile;
use hus_storage::{Access, Result, StorageDir};
use std::borrow::Cow;

/// Nanosecond latency of interval value loads (`S_i`/`D_i` reads).
static LOAD_NS: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("store.load_ns");
/// Nanosecond latency of interval value write-backs (`D_i` stores).
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
    /// Per interval: its current values held in memory, equal to the
    /// current file's copy.
    resident: Vec<Option<Vec<V>>>,
    starts: Vec<VertexId>,
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
            resident: (1..starts.len()).map(|_| None).collect(),
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
    pub fn current(&self, i: usize, access: Access) -> Result<Cow<'_, [V]>> {
        match &self.resident[i] {
            Some(values) => {
                count_served(values);
                Ok(Cow::Borrowed(values))
            }
            None => Ok(Cow::Owned(self.load_from(self.current_is_a[i], i, access)?)),
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

    /// Swap `S_i` and `D_i`: the next buffer becomes current (paper's
    /// `Swap(S_i, D_i)`). A metadata flip; no data moves. The interval's
    /// resident copy, which held the old current values, is dropped.
    pub fn commit(&mut self, i: usize) {
        self.current_is_a[i] = !self.current_is_a[i];
        self.resident[i] = None;
    }

    /// [`Self::commit`] interval `i`, whose next values `values` were
    /// just written by [`Self::write_next`], and keep them resident as
    /// its current copy.
    pub fn commit_resident(&mut self, i: usize, values: Vec<V>) {
        assert_eq!(values.len(), self.interval_len(i) as usize, "interval {i} length mismatch");
        self.current_is_a[i] = !self.current_is_a[i];
        self.resident[i] = Some(values);
    }

    /// Hand every interval's resident copy over to the caller (a push,
    /// which frees each as soon as it has no further use); the file
    /// copies stay current and nothing is resident afterwards. A copy
    /// the caller uses in place of a load is counted with
    /// [`count_served`].
    pub fn take_resident(&mut self) -> Vec<Option<Vec<V>>> {
        self.resident.iter_mut().map(Option::take).collect()
    }

    /// Per interval: whether its current values are resident.
    pub fn resident_mask(&self) -> Vec<bool> {
        self.resident.iter().map(Option::is_some).collect()
    }

    /// Read back every vertex's current value from the files (not
    /// billed — this is the final result collection, not part of the
    /// iteration I/O).
    pub fn read_all_current(&self) -> Result<Vec<V>> {
        let mut out = Vec::with_capacity(*self.starts.last().unwrap() as usize);
        for i in 0..self.num_intervals() {
            out.extend(self.load_from(self.current_is_a[i], i, Access::Sequential)?);
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

    /// A written-through interval kept resident is served from memory,
    /// unbilled; its file copy is what remains once it is taken over.
    #[test]
    fn resident_intervals_are_served_unbilled_and_written_through() {
        let (_t, dir, mut vs) = store(&[0, 3, 7]);
        vs.write_next(1, &[1, 2, 3, 4]).unwrap();
        vs.commit_resident(1, vec![1, 2, 3, 4]);
        assert_eq!(vs.resident_mask(), [false, true]);
        dir.tracker().reset();
        assert!(matches!(vs.current(1, Access::Sequential).unwrap(), Cow::Borrowed([1, 2, 3, 4])));
        assert_eq!(vs.load_current(1, Access::Sequential).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(dir.tracker().snapshot().read_bytes(), 0, "served from memory");
        assert!(matches!(vs.current(0, Access::Sequential).unwrap(), Cow::Owned(_)));
        assert_eq!(dir.tracker().snapshot().seq_read_bytes, 12, "interval 0 is loaded");

        let taken = vs.take_resident();
        assert_eq!(taken, [None, Some(vec![1, 2, 3, 4])]);
        assert_eq!(vs.resident_mask(), [false, false]);
        assert_eq!(vs.read_all_current().unwrap(), vec![0, 10, 20, 1, 2, 3, 4]);
        // A plain commit drops what it overwrites.
        vs.write_next(0, &[5, 6, 7]).unwrap();
        vs.commit_resident(0, vec![5, 6, 7]);
        vs.write_next(0, &[8, 9, 9]).unwrap();
        vs.commit(0);
        assert_eq!(vs.resident_mask(), [false, false]);
        assert_eq!(vs.load_current(0, Access::Sequential).unwrap(), vec![8, 9, 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn write_next_rejects_wrong_length() {
        let (_t, _d, vs) = store(&[0, 3, 7]);
        vs.write_next(0, &[1, 2]).unwrap();
    }
}
