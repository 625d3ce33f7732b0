//! Plain-old-data casting helpers for on-disk formats.
//!
//! Every engine in the workspace stores fixed-width records (edges, CSR
//! offsets, vertex values) as raw little-endian bytes. This module
//! centralizes the `&[u8]` ⇄ `&[T]` conversions so the `unsafe` surface is
//! small and audited.

use crate::error::{Result, StorageError};

/// Marker for types that are valid for any bit pattern and contain no
/// padding, so they can be serialized by memcpy.
///
/// # Safety
///
/// Implementors must guarantee:
/// * every bit pattern is a valid value (no `bool`, no enums with gaps),
/// * the type has no padding bytes (`size_of::<T>()` equals the sum of its
///   field sizes under `#[repr(C)]`),
/// * the type contains no pointers or references.
pub unsafe trait Pod: Copy + Send + Sync + 'static {
    /// The all-zero value (always valid for a `Pod` type).
    fn zeroed() -> Self {
        // SAFETY: Pod guarantees all bit patterns, including all-zero, are
        // valid values of Self.
        unsafe { std::mem::zeroed() }
    }
}

// SAFETY: primitive integers/floats have no padding and allow all bit
// patterns.
unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
unsafe impl Pod for usize {}

// SAFETY: arrays of Pod are Pod (no padding between elements).
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// View a typed slice as raw bytes.
pub fn as_bytes<T: Pod>(slice: &[T]) -> &[u8] {
    // SAFETY: Pod types have no padding, so every byte is initialized, and
    // u8 has alignment 1.
    unsafe { std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), std::mem::size_of_val(slice)) }
}

/// View a typed slice as mutable raw bytes.
pub fn as_bytes_mut<T: Pod>(slice: &mut [T]) -> &mut [u8] {
    // SAFETY: as above; Pod additionally guarantees any bytes written are a
    // valid T.
    unsafe {
        std::slice::from_raw_parts_mut(
            slice.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(slice),
        )
    }
}

/// Copy a byte slice into an owned `Vec<T>` (works for any alignment).
pub fn to_vec<T: Pod>(bytes: &[u8]) -> Result<Vec<T>> {
    let size = std::mem::size_of::<T>();
    if size == 0 || !bytes.len().is_multiple_of(size) {
        return Err(StorageError::BadCast {
            detail: format!("{} bytes is not a multiple of item size {}", bytes.len(), size),
        });
    }
    let count = bytes.len() / size;
    let mut out: Vec<T> = vec![T::zeroed(); count];
    as_bytes_mut(&mut out).copy_from_slice(bytes);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u32() {
        let values: Vec<u32> = vec![1, 2, 0xdead_beef, u32::MAX];
        let bytes = as_bytes(&values);
        assert_eq!(bytes.len(), 16);
        let owned: Vec<u32> = to_vec(bytes).unwrap();
        assert_eq!(owned, values);
    }

    #[test]
    fn to_vec_rejects_bad_length() {
        let bytes = [0u8; 7];
        assert!(to_vec::<u32>(&bytes).is_err());
    }

    #[test]
    fn to_vec_accepts_misaligned() {
        let bytes = [0u8; 12];
        // Find a deliberately misaligned start within the buffer.
        let start = if (bytes.as_ptr() as usize).is_multiple_of(4) { 1 } else { 0 };
        let sub = &bytes[start..start + 8];
        assert!(to_vec::<u32>(sub).is_ok());
    }

    #[test]
    fn zeroed_is_zero() {
        assert_eq!(u64::zeroed(), 0);
        assert_eq!(<[u32; 3]>::zeroed(), [0, 0, 0]);
    }

    #[test]
    fn as_bytes_mut_writes_through() {
        let mut values = [0u16; 2];
        as_bytes_mut(&mut values).copy_from_slice(&[0x34, 0x12, 0x78, 0x56]);
        assert_eq!(values, [0x1234, 0x5678]); // little-endian host assumed in tests
    }
}
