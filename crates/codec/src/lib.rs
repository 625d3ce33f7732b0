//! Pluggable per-block edge codecs for HUS-Graph shard files.
//!
//! Every edge block in a shard (`out_<i>.edges` / `in_<j>.edges`) is a
//! run of fixed-width records: a little-endian `u32` neighbor id,
//! optionally followed by an `f32` weight. A [`Codec`] maps such a
//! *decoded* record run to the *encoded* bytes actually stored on disk;
//! there are two:
//!
//! * [`Codec::Raw`] — the identity transform; bit-compatible with the
//!   pre-codec on-disk format.
//! * [`Codec::DeltaVarint`] — delta + LEB128 varint compression of the
//!   neighbor column. Blocks are written from per-source (per-dest)
//!   CSR runs of sorted neighbor ids confined to one destination
//!   (source) interval, so consecutive deltas are small; zigzag
//!   encoding keeps the occasional negative delta at a run boundary
//!   cheap. Weights, when present, are stored raw after the neighbor
//!   stream (they are incompressible float bits).
//!
//! The codec in force is chosen at build time (`hus build --codec` /
//! the `HUS_CODEC` environment variable), recorded in `meta.json` and
//! in every shard footer, and auto-detected by readers. Encoding is
//! strictly per block: a block can always be decoded knowing only its
//! encoded bytes, its decoded length, and the record width.

#![warn(missing_docs)]

use std::fmt;

/// Environment variable naming the build-time codec (`raw` or
/// `delta-varint`).
pub const CODEC_ENV: &str = "HUS_CODEC";

/// Wire id of [`Codec::Raw`], stored in `meta.json` and shard footers.
pub const CODEC_RAW: u16 = 0;

/// Wire id of [`Codec::DeltaVarint`].
pub const CODEC_DELTA_VARINT: u16 = 1;

/// Decode-side failure: the encoded bytes do not describe a block of
/// the expected decoded length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The encoded payload ended before the expected record count was
    /// produced.
    Truncated {
        /// Records successfully decoded before input ran out.
        decoded_records: usize,
        /// Records the caller expected.
        expected_records: usize,
    },
    /// Bytes were left over after decoding the expected record count.
    TrailingBytes {
        /// Number of undecoded bytes at the tail of the payload.
        extra: usize,
    },
    /// A varint ran past 10 bytes or past the end of the payload.
    BadVarint,
    /// A decoded neighbor id fell outside the `u32` range (corrupt
    /// delta chain).
    ValueOutOfRange,
    /// The caller-supplied decoded length is not a whole number of
    /// records.
    BadDecodedLen {
        /// The offending decoded length in bytes.
        decoded_len: usize,
        /// The record width in bytes.
        record_bytes: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { decoded_records, expected_records } => write!(
                f,
                "encoded block truncated: {decoded_records} of {expected_records} records"
            ),
            CodecError::TrailingBytes { extra } => {
                write!(f, "encoded block has {extra} trailing bytes")
            }
            CodecError::BadVarint => write!(f, "malformed LEB128 varint"),
            CodecError::ValueOutOfRange => write!(f, "decoded neighbor id out of u32 range"),
            CodecError::BadDecodedLen { decoded_len, record_bytes } => write!(
                f,
                "decoded length {decoded_len} is not a multiple of record width {record_bytes}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// [`Codec::Raw`] decode: the payload must be exactly the decoded run.
fn decode_raw(encoded: &[u8], record_bytes: usize, out: &mut [u8]) -> Result<(), CodecError> {
    if !out.len().is_multiple_of(record_bytes) {
        return Err(CodecError::BadDecodedLen { decoded_len: out.len(), record_bytes });
    }
    if encoded.len() < out.len() {
        return Err(CodecError::Truncated {
            decoded_records: encoded.len() / record_bytes,
            expected_records: out.len() / record_bytes,
        });
    }
    if encoded.len() > out.len() {
        return Err(CodecError::TrailingBytes { extra: encoded.len() - out.len() });
    }
    out.copy_from_slice(encoded);
    Ok(())
}

/// [`Codec::DeltaVarint`] encode (payload layout on the variant).
fn encode_delta_varint(raw: &[u8], record_bytes: usize, out: &mut Vec<u8>) {
    debug_assert!(record_bytes == 4 || record_bytes == 8);
    debug_assert_eq!(raw.len() % record_bytes, 0);
    out.clear();
    let n = raw.len() / record_bytes;
    if n == 0 {
        return;
    }
    let neighbor = |k: usize| {
        let at = k * record_bytes;
        u32::from_le_bytes(raw[at..at + 4].try_into().unwrap())
    };
    let base = (0..n).map(neighbor).min().unwrap();
    write_varint(out, base as u64);
    let mut prev = base as i64;
    for k in 0..n {
        let v = neighbor(k) as i64;
        write_varint(out, zigzag(v - prev));
        prev = v;
    }
    if record_bytes == 8 {
        for k in 0..n {
            let at = k * record_bytes + 4;
            out.extend_from_slice(&raw[at..at + 4]);
        }
    }
}

/// [`Codec::DeltaVarint`] decode.
fn decode_delta_varint(
    encoded: &[u8],
    record_bytes: usize,
    out: &mut [u8],
) -> Result<(), CodecError> {
    if !out.len().is_multiple_of(record_bytes) {
        return Err(CodecError::BadDecodedLen { decoded_len: out.len(), record_bytes });
    }
    let n = out.len() / record_bytes;
    if n == 0 {
        return if encoded.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes { extra: encoded.len() })
        };
    }
    let mut pos = 0usize;
    let base = read_varint(encoded, &mut pos)
        .map_err(|_| CodecError::Truncated { decoded_records: 0, expected_records: n })?;
    if base > u32::MAX as u64 {
        return Err(CodecError::ValueOutOfRange);
    }
    decode_deltas(encoded, record_bytes, out, n, &mut pos, base as i64)?;
    if record_bytes == 8 {
        let want = 4 * n;
        let have = encoded.len() - pos;
        if have < want {
            return Err(CodecError::Truncated { decoded_records: have / 4, expected_records: n });
        }
        for k in 0..n {
            let at = k * record_bytes + 4;
            out[at..at + 4].copy_from_slice(&encoded[pos..pos + 4]);
            pos += 4;
        }
    }
    if pos != encoded.len() {
        return Err(CodecError::TrailingBytes { extra: encoded.len() - pos });
    }
    Ok(())
}

/// Decode the `n` zigzag delta varints of a block into the neighbor
/// column of `out`, dispatching to the BMI2 (`pext`) hot loop when the
/// host supports it. Error semantics are bit-identical to a plain
/// [`read_varint`] loop — the round-trip and malformed-payload tests
/// pin this.
fn decode_deltas(
    encoded: &[u8],
    record_bytes: usize,
    out: &mut [u8],
    n: usize,
    pos: &mut usize,
    prev: i64,
) -> Result<(), CodecError> {
    #[cfg(target_arch = "x86_64")]
    if bmi2_available() {
        // SAFETY: gated on the runtime BMI2 check above.
        return unsafe { decode_deltas_bmi2(encoded, record_bytes, out, n, pos, prev) };
    }
    decode_deltas_impl(varint_bits_portable, encoded, record_bytes, out, n, pos, prev)
}

#[cfg(target_arch = "x86_64")]
fn bmi2_available() -> bool {
    static BMI2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *BMI2.get_or_init(|| std::arch::is_x86_feature_detected!("bmi2"))
}

/// BMI2 flavor: `pext` gathers the varint's payload bits (the low 7 of
/// each byte between its start bit `lo` and terminator bit `t`) in one
/// instruction, with no per-varint shifts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn decode_deltas_bmi2(
    encoded: &[u8],
    record_bytes: usize,
    out: &mut [u8],
    n: usize,
    pos: &mut usize,
    prev: i64,
) -> Result<(), CodecError> {
    decode_deltas_impl(
        #[inline(always)]
        |w: u64, lo: u64, t: u64| {
            // Bytes lo..=t of the word, low 7 bits of each — the
            // varint's payload bits, used as the pext mask so they pack
            // down from bit 0 of the result.
            let bytes = (t << 1).wrapping_sub(lo);
            // SAFETY: the enclosing `target_feature` fn requires BMI2,
            // and the closure inherits its unsafe context.
            std::arch::x86_64::_pext_u64(w, bytes & 0x7f7f_7f7f_7f7f_7f7f)
        },
        encoded,
        record_bytes,
        out,
        n,
        pos,
        prev,
    )
}

/// Portable extraction of a ≤8-byte LEB128 varint's payload bits from a
/// little-endian word. `lo` is bit 0 of the varint's first byte, `t`
/// the high (terminator) bit of its last byte. Byte `k`'s low 7 bits
/// land at bit `7k`; the cascade is branch-free.
#[inline(always)]
fn varint_bits_portable(w: u64, lo: u64, t: u64) -> u64 {
    let w = (w & ((t << 1).wrapping_sub(lo))) >> lo.trailing_zeros();
    (w & 0x7f)
        | ((w >> 1) & (0x7f << 7))
        | ((w >> 2) & (0x7f << 14))
        | ((w >> 3) & (0x7f << 21))
        | ((w >> 4) & (0x7f << 28))
        | ((w >> 5) & (0x7f << 35))
        | ((w >> 6) & (0x7f << 42))
        | ((w >> 7) & (0x7f << 49))
}

/// Vector decode of one uniform four-×-2-byte-varint word (the dominant
/// word shape in real delta streams): splices each varint's 14 payload
/// bits in 16-bit lanes, widens to 32-bit lanes, undoes zigzag, runs a
/// lane-shift prefix sum, adds the broadcast running value and stores
/// all four ids with one 16-byte write. Returns the new running value
/// and the lanes' sign-bit mask.
///
/// Lane arithmetic is mod 2³², so the caller must rule out true i64
/// values outside `0..=u32::MAX`: each delta here is at most ±8191, so
/// `prev <= u32::MAX - 4 * 8191` rules out positive overflow, and when
/// `prev < 2³¹ - 4 * 8191` a dip below zero wraps to a value with its
/// sign bit set while every legal id keeps it clear — the returned
/// mask being non-zero is then exactly `ValueOutOfRange`. For larger
/// `prev` no dip is possible and the mask is meaningless.
///
/// # Safety
/// `dst` must have room for 16 bytes. (SSE2 itself is baseline x86_64.)
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn decode4_2byte_sse2(w: u64, prev: u32, dst: *mut u8) -> (u32, u32) {
    use std::arch::x86_64::*;
    let v = _mm_cvtsi64_si128(w as i64);
    // Per 16-bit lane [payload0, payload1|0x80]: value = low 7 bits of
    // byte 0, then the next 7 bits from byte 1 shifted down past the
    // continuation bit.
    let z16 = _mm_or_si128(
        _mm_and_si128(v, _mm_set1_epi16(0x7f)),
        _mm_and_si128(_mm_srli_epi16(v, 1), _mm_set1_epi16(0x3f80)),
    );
    let z = _mm_unpacklo_epi16(z16, _mm_setzero_si128());
    // unzigzag in lanes: (z >> 1) ^ sign-extend(z & 1).
    let half = _mm_srli_epi32(z, 1);
    let sign = _mm_srai_epi32(_mm_slli_epi32(z, 31), 31);
    let d = _mm_xor_si128(half, sign);
    // Inclusive prefix sum across the four lanes.
    let d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
    let d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
    let ids = _mm_add_epi32(d, _mm_set1_epi32(prev as i32));
    _mm_storeu_si128(dst as *mut __m128i, ids);
    (
        _mm_cvtsi128_si32(_mm_shuffle_epi32(ids, 0xFF)) as u32,
        _mm_movemask_ps(_mm_castsi128_ps(ids)) as u32,
    )
}

/// The shared delta-decode hot loop: while at least a whole `u64` of
/// payload remains, load it once, locate **every** varint terminator in
/// it with one bit-scan pass, and decode all complete varints of the
/// word before advancing — so the serial position chain (load → find
/// terminator → advance) is amortised over the ~4 varints a word
/// typically holds, and the per-varint extraction (`extract` is the
/// portable shift-mask cascade or BMI2 `pext`) runs with instruction
/// parallelism against the same register. The last few records — and
/// any varint longer than 8 bytes, which no well-formed delta produces
/// — fall back to the byte-at-a-time [`read_varint`] so malformed
/// payloads surface the same errors as the original scalar decoder.
#[inline(always)]
fn decode_deltas_impl(
    extract: impl Fn(u64, u64, u64) -> u64,
    encoded: &[u8],
    record_bytes: usize,
    out: &mut [u8],
    n: usize,
    pos: &mut usize,
    mut prev: i64,
) -> Result<(), CodecError> {
    // Upholds the unsafe stores below; record_bytes is 4 or 8 for every
    // wire format this crate defines (a violation panicked before, too,
    // as a slice-bounds overrun in the write loop).
    assert!(out.len() == n * record_bytes && record_bytes >= 4);
    let mut p = *pos;
    let mut k = 0usize;
    // Neighbor-column write cursor, bumped by one record per decode —
    // kept in lockstep with `k` (the scalar tail re-derives from `k`).
    let mut dst = out.as_mut_ptr();
    while k < n && p + 8 <= encoded.len() {
        // SAFETY: `p + 8 <= encoded.len()` was just checked.
        let w = unsafe { (encoded.as_ptr().add(p) as *const u64).read_unaligned() }.to_le();
        let mut term = !w & 0x8080_8080_8080_8080;
        if term == 0 {
            break; // ≥9-byte varint: let the scalar path judge it.
        }
        // Out-of-range detection is deferred to the end of the word:
        // `acc` ORs every decoded value, and any bit at or above 32 —
        // a negative value seen as u64, or a positive overflow — means
        // some record left u32 range, so the hot loop carries no
        // per-record branch. Values written after a bad one are
        // garbage, but `out` is unspecified on error and the chain
        // cannot overflow within one word.
        let mut acc = 0u64;
        // `lo` walks the word: bit 0 of the varint being decoded.
        let mut lo = 1u64;
        // One record: isolate the lowest terminator bit, extract the
        // payload bits between `lo` and it, undo zigzag, step cursors.
        macro_rules! rec {
            () => {{
                let t = term & term.wrapping_neg();
                let z = extract(w, lo, t);
                let v = prev.wrapping_add(unzigzag(z));
                acc |= v as u64;
                // SAFETY: `dst` has stepped `< n` records of size
                // `record_bytes >= 4` through an `n * record_bytes`
                // buffer, so 4 bytes here are in bounds.
                unsafe {
                    (dst as *mut [u8; 4]).write_unaligned((v as u32).to_le_bytes());
                    dst = dst.add(record_bytes);
                }
                prev = v;
                lo = t << 1;
                term &= term - 1;
            }};
        }
        // Uniform-width fast words: real delta streams are dominated by
        // words that are exactly four 2-byte varints (gaps of 64..8191)
        // or eight 1-byte ones (dense runs), and for those the payload
        // extraction collapses to a constant shift/mask — no per-varint
        // bit isolation at all.
        if term == 0x8000_8000_8000_8000 && n - k >= 4 {
            p += 8;
            k += 4;
            #[cfg(target_arch = "x86_64")]
            {
                // Take the SSE2 lane decode unless `prev` sits within
                // one word's worst-case positive swing of `u32::MAX`
                // (where only the i64 chain can judge overflow) or
                // records carry weights (strided stores).
                const SWING: i64 = 4 * 8191;
                if record_bytes == 4 && prev <= u32::MAX as i64 - SWING {
                    // SAFETY: k + 4 <= n and record_bytes == 4, so 16
                    // bytes of `out` remain.
                    let (next, signs) = unsafe { decode4_2byte_sse2(w, prev as u32, dst) };
                    // Below 2³¹ every legal id this word keeps its sign
                    // bit clear, so a set one is a mod-2³² wrap: the
                    // true chain went negative.
                    if signs != 0 && prev < (1i64 << 31) - SWING {
                        return Err(CodecError::ValueOutOfRange);
                    }
                    prev = next as i64;
                    // SAFETY: stays in lockstep with `k += 4` above.
                    unsafe { dst = dst.add(16) };
                    continue;
                }
            }
            // Each 16-bit lane holds one varint: low 7 payload bits in
            // byte 0, next 7 in byte 1 (its top bit is the terminator).
            let mut zs = (w & 0x007f_007f_007f_007f) | ((w >> 1) & 0x3f80_3f80_3f80_3f80);
            for _ in 0..4 {
                let v = prev.wrapping_add(unzigzag(zs & 0xffff));
                acc |= v as u64;
                // SAFETY: as in `rec!` — at most `n` records stored.
                unsafe {
                    (dst as *mut [u8; 4]).write_unaligned((v as u32).to_le_bytes());
                    dst = dst.add(record_bytes);
                }
                prev = v;
                zs >>= 16;
            }
        } else if term == 0x8080_8080_8080_8080 && n - k >= 8 {
            p += 8;
            k += 8;
            let mut zs = w & 0x7f7f_7f7f_7f7f_7f7f;
            for _ in 0..8 {
                let v = prev.wrapping_add(unzigzag(zs & 0x7f));
                acc |= v as u64;
                // SAFETY: as in `rec!` — at most `n` records stored.
                unsafe {
                    (dst as *mut [u8; 4]).write_unaligned((v as u32).to_le_bytes());
                    dst = dst.add(record_bytes);
                }
                prev = v;
                zs >>= 8;
            }
        } else if term.count_ones() as usize <= n - k {
            let nvar = term.count_ones() as usize;
            // Every complete varint of this word is wanted. Advance `p`
            // NOW, from the highest terminator alone, so the next
            // word's load does not wait for this word's decode loop.
            p += 8 - (term.leading_zeros() / 8) as usize;
            k += nvar;
            let mut left = nvar;
            while left >= 2 {
                rec!();
                rec!();
                left -= 2;
            }
            if left == 1 {
                rec!();
            }
            // The cursors the last `rec!` updated are dead here — the
            // next word rebuilds them.
            let _ = (lo, term);
        } else {
            // Fewer records wanted than varints present (the block's
            // last word): decode only what fits, then count the bytes
            // actually consumed off `lo`. `lo` cannot wrap to 0 here —
            // a terminator in byte 7 would be the word's last varint,
            // which this branch never reaches.
            for _ in 0..(n - k) {
                rec!();
            }
            k = n;
            p += (lo.trailing_zeros() / 8) as usize;
        }
        if acc >> 32 != 0 {
            return Err(CodecError::ValueOutOfRange);
        }
    }
    while k < n {
        let z = read_varint(encoded, &mut p)
            .map_err(|_| CodecError::Truncated { decoded_records: k, expected_records: n })?;
        let v = prev + unzigzag(z);
        if !(0..=u32::MAX as i64).contains(&v) {
            return Err(CodecError::ValueOutOfRange);
        }
        let at = k * record_bytes;
        out[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes());
        prev = v;
        k += 1;
    }
    *pos = p;
    Ok(())
}

/// A reversible transform between a block's decoded record run and its
/// on-disk bytes — a copyable selector used in build configs,
/// `meta.json`, and footers.
///
/// Both codecs are pure functions of their inputs: the same decoded
/// bytes always encode to the same payload (builders rely on this for
/// reproducible shards), and `decode(encode(x)) == x` for every
/// well-formed record run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Codec {
    /// Identity codec: encoded bytes are the decoded record run;
    /// bit-compatible with the pre-codec format.
    #[default]
    Raw,
    /// Delta + LEB128 varint compression of the neighbor column.
    ///
    /// Payload layout for a block of `n > 0` records (empty blocks
    /// encode to zero bytes):
    ///
    /// 1. `varint(base)` where `base` is the smallest neighbor id in
    ///    the block;
    /// 2. `n` varints, the `k`-th being `zigzag(neighbor[k] - prev)`
    ///    with `prev` starting at `base` and then tracking
    ///    `neighbor[k-1]`;
    /// 3. for weighted graphs, `n` raw little-endian `f32` weights in
    ///    record order.
    ///
    /// Record order is preserved exactly — decoding reproduces the
    /// input bit for bit, so engine results (including float
    /// accumulation order) are identical across codecs.
    DeltaVarint,
}

impl Codec {
    /// Every built-in codec, in wire-id order.
    pub const ALL: [Codec; 2] = [Codec::Raw, Codec::DeltaVarint];

    /// Wire id (`meta.json` / footer field).
    pub fn id(self) -> u16 {
        match self {
            Codec::Raw => CODEC_RAW,
            Codec::DeltaVarint => CODEC_DELTA_VARINT,
        }
    }

    /// Canonical name, as written to `meta.json` and accepted by
    /// `hus build --codec` / `HUS_CODEC`.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::DeltaVarint => "delta-varint",
        }
    }

    /// Look a codec up by wire id.
    pub fn from_id(id: u16) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.id() == id)
    }

    /// Parse a codec name (case-insensitive; `delta_varint`,
    /// `deltavarint`, and `dv` are accepted aliases).
    pub fn from_name(name: &str) -> Option<Codec> {
        match name.to_ascii_lowercase().as_str() {
            "raw" => Some(Codec::Raw),
            "delta-varint" | "delta_varint" | "deltavarint" | "dv" => Some(Codec::DeltaVarint),
            _ => None,
        }
    }

    /// Read `HUS_CODEC` from the environment; unset, empty, or
    /// unparsable values fall back to [`Codec::Raw`], matching how the
    /// engine treats its other knobs.
    pub fn from_env() -> Codec {
        match std::env::var(CODEC_ENV) {
            Ok(v) => Codec::from_name(v.trim()).unwrap_or_default(),
            Err(_) => Codec::Raw,
        }
    }

    /// True for the identity codec, whose encoded bytes equal the
    /// decoded record run.
    pub fn is_raw(self) -> bool {
        self == Codec::Raw
    }

    /// Encode `raw` (a whole block of `record_bytes`-wide records)
    /// into `out`. `out` is cleared first; on return it holds exactly
    /// the on-disk payload.
    pub fn encode(self, raw: &[u8], record_bytes: usize, out: &mut Vec<u8>) {
        match self {
            Codec::Raw => {
                out.clear();
                out.extend_from_slice(raw);
            }
            Codec::DeltaVarint => encode_delta_varint(raw, record_bytes, out),
        }
    }

    /// Decode `encoded` into `out`, which the caller sizes to the
    /// block's exact decoded length. Fails if the payload does not
    /// describe exactly `out.len() / record_bytes` records.
    pub fn decode(
        self,
        encoded: &[u8],
        record_bytes: usize,
        out: &mut [u8],
    ) -> Result<(), CodecError> {
        match self {
            Codec::Raw => decode_raw(encoded, record_bytes, out),
            Codec::DeltaVarint => decode_delta_varint(encoded, record_bytes, out),
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Codec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Codec::from_name(s).ok_or_else(|| {
            let names: Vec<_> = Codec::ALL.iter().map(|c| c.name()).collect();
            format!("unknown codec {s:?} (expected one of: {})", names.join(", "))
        })
    }
}

/// Append `v` to `out` as an LEB128 varint (7 payload bits per byte,
/// high bit = continuation).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an LEB128 varint from `buf` at `*pos`, advancing `*pos` past
/// it. Fails on truncation or a varint longer than 10 bytes.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::BadVarint)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::BadVarint);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-map a signed delta to an unsigned varint payload
/// (`0, -1, 1, -2, … → 0, 1, 2, 3, …`).
pub fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(neighbors: &[u32], weights: Option<&[f32]>) -> (Vec<u8>, usize) {
        let mut raw = Vec::new();
        for (k, &n) in neighbors.iter().enumerate() {
            raw.extend_from_slice(&n.to_le_bytes());
            if let Some(w) = weights {
                raw.extend_from_slice(&w[k].to_le_bytes());
            }
        }
        (raw, if weights.is_some() { 8 } else { 4 })
    }

    fn roundtrip(codec: Codec, neighbors: &[u32], weights: Option<&[f32]>) -> usize {
        let (raw, m) = records(neighbors, weights);
        let mut enc = Vec::new();
        codec.encode(&raw, m, &mut enc);
        let mut dec = vec![0u8; raw.len()];
        codec.decode(&enc, m, &mut dec).unwrap();
        assert_eq!(dec, raw, "{codec} round trip diverged");
        enc.len()
    }

    #[test]
    fn varint_roundtrip_at_boundaries() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            buf.clear();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), Err(CodecError::BadVarint));
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80; 11], &mut pos), Err(CodecError::BadVarint));
    }

    #[test]
    fn zigzag_is_a_bijection_on_small_deltas() {
        for d in -1000i64..=1000 {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        for d in [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        // Small magnitudes stay small: one varint byte up to |d| = 63.
        assert!(zigzag(63) < 128 && zigzag(-63) < 128);
    }

    #[test]
    fn both_codecs_roundtrip_typical_blocks() {
        let sorted: Vec<u32> = (0..500).map(|k| k * 3 + 7).collect();
        let unsorted = [9u32, 2, 2, 40_000, 3, u32::MAX, 0, 12345];
        let weights: Vec<f32> = (0..8).map(|k| k as f32 * 0.5 - 1.0).collect();
        for codec in Codec::ALL {
            roundtrip(codec, &[], None);
            roundtrip(codec, &[42], None);
            roundtrip(codec, &sorted, None);
            roundtrip(codec, &unsorted, None);
            roundtrip(codec, &unsorted, Some(&weights));
            roundtrip(codec, &[u32::MAX, 0, u32::MAX], None);
        }
    }

    #[test]
    fn delta_varint_word_paths_cover_u32_boundaries() {
        // Sequences chosen so the decoder's whole-word fast paths (all
        // 1-byte, all 2-byte / SSE2 lanes, mixed widths) hit every range
        // guard: small ids near zero, ids straddling 2^31 (lane sign
        // bits set on legal data), and ids within one word's swing of
        // u32::MAX (forced off the lane path).
        let two_byte_steps: Vec<u32> = (0..64).map(|k| 100 + k * 500).collect();
        let sawtooth: Vec<u32> =
            (0..64).map(|k| 40_000 + (k % 7) * 4000 - 2000 * (k % 2)).collect();
        let straddle: Vec<u32> = (0..64).map(|k| (1u32 << 31) - 8_000 + k * 300).collect();
        let near_max: Vec<u32> = (0..64).map(|k| u32::MAX - 40_000 + k * 600).collect();
        let one_byte: Vec<u32> = (0..64).map(|k| 5_000 + k * 31).collect();
        let weights: Vec<f32> = (0..64).map(|k| k as f32 * 0.25).collect();
        for seq in [&two_byte_steps, &sawtooth, &straddle, &near_max, &one_byte] {
            roundtrip(Codec::DeltaVarint, seq, None);
            roundtrip(Codec::DeltaVarint, seq, Some(&weights));
        }

        // A whole word of 2-byte deltas whose chain dips below zero:
        // the lane path must report it as out of range, exactly like
        // the scalar chain.
        let mut bad = Vec::new();
        write_varint(&mut bad, 1000); // base
        for _ in 0..4 {
            write_varint(&mut bad, zigzag(-2000)); // 2 bytes each
        }
        let mut out = vec![0u8; 16];
        assert_eq!(Codec::DeltaVarint.decode(&bad, 4, &mut out), Err(CodecError::ValueOutOfRange));
    }

    #[test]
    fn delta_varint_shrinks_sorted_runs() {
        // Dense sorted neighbors in a 16 Ki interval: one byte per
        // delta vs four raw.
        let run: Vec<u32> = (0..4096).map(|k| 100_000 + k * 2).collect();
        let enc = roundtrip(Codec::DeltaVarint, &run, None);
        let raw = roundtrip(Codec::Raw, &run, None);
        assert!(enc * 2 < raw, "expected >2x compression, got {enc} vs {raw}");
    }

    #[test]
    fn raw_codec_is_the_identity() {
        let (raw, m) = records(&[1, 2, 3], None);
        let mut enc = Vec::new();
        Codec::Raw.encode(&raw, m, &mut enc);
        assert_eq!(enc, raw);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let (raw, m) = records(&[5, 6, 7], None);
        let mut enc = Vec::new();
        for codec in Codec::ALL {
            codec.encode(&raw, m, &mut enc);
            let mut out = vec![0u8; raw.len()];
            // Truncated payload.
            assert!(codec.decode(&enc[..enc.len() - 1], m, &mut out).is_err());
            // Trailing garbage.
            let mut long = enc.clone();
            long.push(0);
            assert!(codec.decode(&long, m, &mut out).is_err());
            // Misaligned decoded length.
            assert!(matches!(
                codec.decode(&enc, m, &mut [0u8; 5]),
                Err(CodecError::BadDecodedLen { .. })
            ));
        }
        // A delta chain that runs past u32::MAX.
        let mut bad = Vec::new();
        write_varint(&mut bad, u32::MAX as u64); // base
        write_varint(&mut bad, zigzag(0));
        write_varint(&mut bad, zigzag(1)); // overflows u32
        let mut out = vec![0u8; 8];
        assert_eq!(Codec::DeltaVarint.decode(&bad, 4, &mut out), Err(CodecError::ValueOutOfRange));
    }

    #[test]
    fn names_and_ids_resolve_and_are_distinct() {
        for codec in Codec::ALL {
            assert_eq!(Codec::from_id(codec.id()), Some(codec));
            assert_eq!(Codec::from_name(codec.name()), Some(codec));
            assert_eq!(codec.name().parse::<Codec>().unwrap(), codec);
        }
        assert_eq!(Codec::from_name("DELTA_VARINT"), Some(Codec::DeltaVarint));
        assert_eq!(Codec::from_name("lz77"), None);
        assert!("lz77".parse::<Codec>().is_err());
        assert_eq!(Codec::from_id(99), None);
    }

    #[test]
    fn env_selection_defaults_to_raw() {
        // `from_env` reads HUS_CODEC; in the test environment the
        // variable is either unset (raw) or set by a CI matrix leg.
        let got = Codec::from_env();
        match std::env::var(CODEC_ENV) {
            Ok(v) => assert_eq!(got, Codec::from_name(&v).unwrap_or_default()),
            Err(_) => assert_eq!(got, Codec::Raw),
        }
    }
}
