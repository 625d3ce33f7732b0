//! 4 KiB-aligned I/O buffers and a reusing free-list pool.
//!
//! `O_DIRECT` reads bypass the OS page cache and therefore require the
//! destination buffer address, the file offset and the transfer length to
//! all be aligned to the device's logical block size. We align to 4096
//! bytes — a multiple of every logical block size in practice — so one
//! buffer shape serves every device. Allocating page-aligned memory per
//! read would dominate small-read latency, so [`BufPool`] keeps returned
//! buffers on a free list for reuse.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Mutex;

/// Alignment (bytes) required for `O_DIRECT` transfers: buffer address,
/// file offset and length must all be multiples of this.
pub(crate) const DIRECT_ALIGN: usize = 4096;

/// Round `n` up to the next multiple of [`DIRECT_ALIGN`].
pub(crate) fn align_up(n: u64) -> u64 {
    n.div_ceil(DIRECT_ALIGN as u64) * DIRECT_ALIGN as u64
}

/// Round `n` down to the previous multiple of [`DIRECT_ALIGN`].
pub(crate) fn align_down(n: u64) -> u64 {
    n - n % DIRECT_ALIGN as u64
}

/// A heap buffer whose address and length are both multiples of
/// [`DIRECT_ALIGN`], suitable as an `O_DIRECT` transfer target.
///
/// Dereferences to `[u8]` over the full aligned capacity.
pub(crate) struct AlignedBuf {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the buffer exclusively owns its allocation; the raw pointer is
// never aliased outside `&self`/`&mut self` borrows.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Allocate a zeroed buffer of at least `min_len` bytes, rounded up to
    /// the alignment quantum. `min_len` of zero still allocates one block
    /// so the pointer stays valid.
    pub(crate) fn zeroed(min_len: usize) -> AlignedBuf {
        let len = (align_up(min_len.max(1) as u64)) as usize;
        let layout = Layout::from_size_align(len, DIRECT_ALIGN).expect("aligned layout");
        // SAFETY: `len` is non-zero and the layout is valid by construction.
        let raw = unsafe { alloc_zeroed(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        AlignedBuf { ptr, len }
    }

    /// Aligned capacity in bytes (a multiple of [`DIRECT_ALIGN`]).
    pub(crate) fn capacity(&self) -> usize {
        self.len
    }
}

impl Deref for AlignedBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` points at `len` initialized bytes we own.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: `ptr` points at `len` initialized bytes we own exclusively.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.len, DIRECT_ALIGN).expect("aligned layout");
        // SAFETY: allocated in `zeroed` with exactly this layout.
        unsafe { dealloc(self.ptr.as_ptr(), layout) };
    }
}

/// A free list of [`AlignedBuf`]s reused across reads.
///
/// [`take`](BufPool::take) hands out a buffer of at least the requested
/// capacity (reusing a pooled one when large enough, allocating
/// otherwise); [`give`](BufPool::give) returns it. The pool keeps at most
/// `max_pooled` buffers and drops the smallest first when over budget, so
/// a burst of large bounce buffers does not pin memory forever.
pub(crate) struct BufPool {
    free: Mutex<Vec<AlignedBuf>>,
    max_pooled: usize,
}

impl BufPool {
    /// Create a pool retaining at most `max_pooled` idle buffers.
    pub(crate) fn new(max_pooled: usize) -> BufPool {
        BufPool { free: Mutex::new(Vec::new()), max_pooled }
    }

    /// Obtain a buffer with capacity ≥ `min_len` (aligned up).
    pub(crate) fn take(&self, min_len: usize) -> AlignedBuf {
        let mut free = self.free.lock().unwrap();
        if let Some(i) = free.iter().position(|b| b.capacity() >= min_len) {
            return free.swap_remove(i);
        }
        drop(free);
        AlignedBuf::zeroed(min_len)
    }

    /// Return a buffer to the free list for reuse.
    pub(crate) fn give(&self, buf: AlignedBuf) {
        let mut free = self.free.lock().unwrap();
        free.push(buf);
        if free.len() > self.max_pooled {
            // Drop the smallest buffer: large ones are the expensive
            // allocations worth keeping.
            if let Some((i, _)) = free.iter().enumerate().min_by_key(|(_, b)| b.capacity()) {
                free.swap_remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_aligned_and_rounded() {
        for want in [0usize, 1, 4095, 4096, 4097, 100_000] {
            let b = AlignedBuf::zeroed(want);
            assert_eq!(b.as_ptr() as usize % DIRECT_ALIGN, 0);
            assert!(b.capacity() >= want.max(1));
            assert_eq!(b.capacity() % DIRECT_ALIGN, 0);
            assert!(b.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn align_helpers() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 4096);
        assert_eq!(align_up(4096), 4096);
        assert_eq!(align_up(4097), 8192);
        assert_eq!(align_down(4095), 0);
        assert_eq!(align_down(4096), 4096);
        assert_eq!(align_down(8191), 4096);
    }

    #[test]
    fn pool_reuses_and_caps() {
        let pool = BufPool::new(2);
        let a = pool.take(4096);
        let a_ptr = a.as_ptr() as usize;
        pool.give(a);
        let b = pool.take(100);
        assert_eq!(b.as_ptr() as usize, a_ptr, "pooled buffer should be reused");
        pool.give(b);
        pool.give(AlignedBuf::zeroed(8192));
        pool.give(AlignedBuf::zeroed(16384));
        // Over the cap of two, the smallest buffer was dropped: the two
        // largest are what any request now gets back.
        let (x, y) = (pool.take(100), pool.take(100));
        assert_eq!(x.capacity() + y.capacity(), 8192 + 16384);
    }

    #[test]
    fn writes_round_trip() {
        let mut b = AlignedBuf::zeroed(4096);
        b[0] = 7;
        b[4095] = 9;
        assert_eq!((b[0], b[4095]), (7, 9));
    }
}
