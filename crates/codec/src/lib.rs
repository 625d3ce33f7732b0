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
//!
//! Delta-varint decoding is one word loop: it loads 8 payload bytes,
//! finds every varint terminator in them with one bit scan, and pulls
//! each complete varint's payload bits out with one of two extractors:
//! BMI2 `pext` where the host has it (checked once at run time), a
//! portable shift-and-mask cascade everywhere else. On the 64 in-blocks
//! of husbench's `pr_dv` graph (rmat, 2^19 vertices, 8 M edges, P 8;
//! one pinned CPU of a 2-vCPU Xeon guest, 41 rounds) `pext` decodes at
//! about 690 MB/s and the cascade at about 370 MB/s. Kernels for words
//! of four 2-byte or eight 1-byte varints (16 % of those blocks' words)
//! made no measurable difference next to `pext` (688 → 692 MB/s) and
//! were removed. Without BMI2 (every non-x86_64 build) they were worth
//! about 11 % of decode throughput (419 → 371 MB/s; 17 % on the denser
//! out-blocks, 470 → 389 MB/s); every host this repo's numbers come
//! from has BMI2. On AMD Zen 1 and 2, whose `pext` is microcoded, the
//! cascade may be the faster extractor; nothing here measures that.

#![warn(missing_docs)]

use std::fmt;

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
/// column of `out`: the one word loop, [`decode_deltas_impl`], run with
/// BMI2 `pext` as its extractor when the host has BMI2 and with
/// [`varint_bits_portable`] otherwise (the crate doc gives the cost).
/// Results and errors are bit-identical to a plain [`read_varint`]
/// chain with either extractor — the differential test pins this.
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
///
/// # Safety
/// The host must support BMI2 ([`bmi2_available`]).
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

/// The delta-decode word loop. While at least a whole `u64` of payload
/// remains, load it once, locate **every** varint terminator in it with
/// one bit scan, and decode all complete varints of the word before
/// advancing — so the serial position chain (load → find terminator →
/// advance) is amortised over the ~4 varints a word typically holds,
/// and the per-varint extraction runs with instruction parallelism
/// against the same register. `extract(w, lo, t)` returns the payload
/// bits of the varint between start bit `lo` and terminator bit `t`:
/// BMI2 `pext` or [`varint_bits_portable`]. Every word takes the same
/// path, whatever its varint widths. The last few records — and any
/// varint longer than 8 bytes, which no well-formed delta produces —
/// fall back to the byte-at-a-time [`read_varint`] so malformed
/// payloads surface the same errors as the scalar chain.
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
        let nvar = term.count_ones() as usize;
        if nvar <= n - k {
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

    /// The delta section of a block decoded by one of the decoders under
    /// test (same contract as [`decode_deltas`]).
    type Deltas = fn(&[u8], usize, &mut [u8], usize, &mut usize, i64) -> Result<(), CodecError>;

    /// The reference chain: one [`read_varint`] per record, range-checked
    /// as it goes.
    fn reference_deltas(
        encoded: &[u8],
        record_bytes: usize,
        out: &mut [u8],
        n: usize,
        pos: &mut usize,
        mut prev: i64,
    ) -> Result<(), CodecError> {
        for k in 0..n {
            let z = read_varint(encoded, pos)
                .map_err(|_| CodecError::Truncated { decoded_records: k, expected_records: n })?;
            prev += unzigzag(z);
            if !(0..=u32::MAX as i64).contains(&prev) {
                return Err(CodecError::ValueOutOfRange);
            }
            out[k * record_bytes..k * record_bytes + 4]
                .copy_from_slice(&(prev as u32).to_le_bytes());
        }
        Ok(())
    }

    fn portable_deltas(
        e: &[u8],
        rb: usize,
        out: &mut [u8],
        n: usize,
        pos: &mut usize,
        prev: i64,
    ) -> Result<(), CodecError> {
        decode_deltas_impl(varint_bits_portable, e, rb, out, n, pos, prev)
    }

    /// A whole delta-varint block (base, deltas, weights, trailing
    /// check, as the variant doc lays it out) with `deltas` decoding
    /// the delta section.
    fn decode_with(
        deltas: Deltas,
        encoded: &[u8],
        record_bytes: usize,
        out: &mut [u8],
    ) -> Result<(), CodecError> {
        if !out.len().is_multiple_of(record_bytes) {
            return Err(CodecError::BadDecodedLen { decoded_len: out.len(), record_bytes });
        }
        let n = out.len() / record_bytes;
        if n == 0 {
            return match encoded.len() {
                0 => Ok(()),
                extra => Err(CodecError::TrailingBytes { extra }),
            };
        }
        let mut pos = 0;
        let base = read_varint(encoded, &mut pos)
            .map_err(|_| CodecError::Truncated { decoded_records: 0, expected_records: n })?;
        if base > u32::MAX as u64 {
            return Err(CodecError::ValueOutOfRange);
        }
        deltas(encoded, record_bytes, out, n, &mut pos, base as i64)?;
        if record_bytes == 8 {
            let have = encoded.len() - pos;
            if have < 4 * n {
                return Err(CodecError::Truncated {
                    decoded_records: have / 4,
                    expected_records: n,
                });
            }
            for k in 0..n {
                out[8 * k + 4..8 * k + 8].copy_from_slice(&encoded[pos..pos + 4]);
                pos += 4;
            }
        }
        match encoded.len() - pos {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }

    /// Every decoder must return exactly what the reference chain
    /// returns for `encoded` decoded to `decoded_len` bytes: the same
    /// bytes on `Ok`, the same error otherwise.
    fn assert_decoders_agree(encoded: &[u8], record_bytes: usize, decoded_len: usize, ctx: &str) {
        let run = |decode: &dyn Fn(&mut [u8]) -> Result<(), CodecError>| {
            let mut out = vec![0u8; decoded_len];
            decode(&mut out).map(|()| out)
        };
        let want = run(&|out| decode_with(reference_deltas, encoded, record_bytes, out));
        let mut decoders: Vec<(&str, Deltas)> = vec![("portable", portable_deltas)];
        // On a BMI2 host the dispatcher runs the word loop with `pext`.
        #[cfg(target_arch = "x86_64")]
        if bmi2_available() {
            decoders.push(("pext", decode_deltas));
        }
        for (name, deltas) in decoders {
            let got = run(&|out| decode_with(deltas, encoded, record_bytes, out));
            assert_eq!(got, want, "{name} decoder diverged: {ctx}, payload {encoded:02x?}");
        }
        let got = run(&|out| Codec::DeltaVarint.decode(encoded, record_bytes, out));
        assert_eq!(got, want, "Codec::decode diverged: {ctx}, payload {encoded:02x?}");
    }

    /// splitmix64, the differential driver's generator.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A neighbor run of up to 40 ids starting near 0, straddling 2^31 or
    /// within 40 k of `u32::MAX`, whose deltas encode to 1, 2, 3 or 5
    /// varint bytes (one width for the run, or mixed per record).
    fn neighbor_run(rng: &mut SplitMix) -> Vec<u32> {
        // Delta magnitudes by varint width: zigzag doubles them, so
        // [64, 8192) takes 2 bytes, [2^27, 2^31) takes 5.
        const MAGNITUDES: [(u64, u64); 4] =
            [(0, 64), (64, 8192), (8192, 1 << 20), (1 << 27, 1 << 31)];
        let mut id = match rng.below(3) {
            0 => rng.below(1000) as i64,
            1 => (1i64 << 31) - 20_000 + rng.below(40_000) as i64,
            _ => u32::MAX as i64 - rng.below(40_000) as i64,
        };
        let fixed = rng.below(5) as usize;
        (0..rng.below(41))
            .map(|_| {
                let cur = id as u32;
                let (lo, hi) = MAGNITUDES[if fixed < 4 { fixed } else { rng.below(4) as usize }];
                let d = (lo + rng.below(hi - lo)) as i64;
                let d = if rng.below(2) == 0 { d } else { -d };
                // At most one direction leaves u32 range; take the other.
                id = if (0..=u32::MAX as i64).contains(&(id + d)) { id + d } else { id - d };
                cur
            })
            .collect()
    }

    /// Damage an encoded block one of five ways (or not at all) and pick
    /// the decoded length to ask for.
    fn mutate(rng: &mut SplitMix, enc: &mut Vec<u8>, decoded_len: usize, rb: usize) -> usize {
        match rng.below(6) {
            1 if !enc.is_empty() => {
                for _ in 0..=rng.below(3) {
                    let bit = rng.below(8 * enc.len() as u64) as usize;
                    enc[bit / 8] ^= 1 << (bit % 8);
                }
            }
            2 => enc.truncate(rng.below(enc.len() as u64 + 1) as usize),
            3 => enc.extend((0..=rng.below(9)).map(|_| rng.next() as u8)),
            4 => {
                let at = rng.below(enc.len() as u64 + 1) as usize;
                let len = rng.below(17) as usize;
                enc.truncate(at);
                enc.extend((0..len).map(|_| rng.next() as u8));
            }
            5 => {
                let records = (decoded_len / rb) as u64;
                return match rng.below(3) {
                    0 => (records + 1 + rng.below(3)) as usize * rb,
                    1 => rng.below(records + 1) as usize * rb,
                    _ => decoded_len + 1 + rng.below(rb as u64 - 1) as usize,
                };
            }
            _ => {}
        }
        decoded_len
    }

    #[test]
    fn delta_varint_decoders_match_the_reference_chain() {
        // Replay a failure by putting its logged seed here.
        const REPLAY: Option<u64> = None;
        let seed = REPLAY.unwrap_or_else(|| {
            let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
            now.map_or(0, |d| d.as_nanos() as u64)
        });
        eprintln!("delta-varint differential seed: {seed:#x}");
        let mut rng = SplitMix(seed);
        let check = |ids: &[u32], weights: &[u32], rng: &mut SplitMix, ctx: &str| {
            for rb in [4, 8] {
                let mut raw = Vec::new();
                for (id, w) in ids.iter().zip(weights) {
                    raw.extend_from_slice(&id.to_le_bytes());
                    if rb == 8 {
                        raw.extend_from_slice(&w.to_le_bytes());
                    }
                }
                let mut enc = Vec::new();
                Codec::DeltaVarint.encode(&raw, rb, &mut enc);
                assert_decoders_agree(&enc, rb, raw.len(), ctx);
                let len = mutate(rng, &mut enc, raw.len(), rb);
                assert_decoders_agree(&enc, rb, len, &format!("{ctx} (mutated)"));
            }
        };

        // Fixed sequences: whole words of 2-byte and 1-byte varints, ids
        // near zero, straddling 2^31 and within a word's swing of
        // u32::MAX.
        let fixed: [Vec<u32>; 5] = [
            (0..64).map(|k| 100 + k * 500).collect(),
            (0..64).map(|k| 40_000 + (k % 7) * 4000 - 2000 * (k % 2)).collect(),
            (0..64).map(|k| (1u32 << 31) - 8_000 + k * 300).collect(),
            (0..64).map(|k| u32::MAX - 40_000 + k * 600).collect(),
            (0..64).map(|k| 5_000 + k * 31).collect(),
        ];
        let weights: Vec<u32> = (0..64).map(|k| (k as f32 * 0.25).to_bits()).collect();
        for (s, seq) in fixed.iter().enumerate() {
            check(seq, &weights, &mut rng, &format!("seed {seed:#x} fixed sequence {s}"));
        }
        // A whole word of 2-byte deltas whose chain dips below zero.
        let mut dip = Vec::new();
        write_varint(&mut dip, 1000); // base
        for _ in 0..4 {
            write_varint(&mut dip, zigzag(-2000)); // 2 bytes each
        }
        let mut out = [0u8; 16];
        assert_eq!(
            decode_with(reference_deltas, &dip, 4, &mut out),
            Err(CodecError::ValueOutOfRange)
        );
        assert_decoders_agree(&dip, 4, 16, "dip below zero");
        // Varints of every length 1..=10 at every byte offset of a word:
        // zero-padded (overlong, a small legal delta) or with their top
        // group set (out of range from 6 bytes on). No encoder writes
        // them; a corrupt payload can.
        for len in 1..=10 {
            for shift in 0..8 {
                for top in [false, true] {
                    let mut enc = Vec::new();
                    write_varint(&mut enc, 1000); // base
                    enc.resize(enc.len() + shift, 0); // zero deltas
                    let z: u64 = if top { 1 << (7 * (len - 1)) } else { 2 };
                    enc.extend((0..len).map(|g| {
                        let group = z.checked_shr(7 * g as u32).unwrap_or(0) as u8 & 0x7f;
                        group | if g + 1 < len { 0x80 } else { 0 }
                    }));
                    enc.resize(enc.len() + 12, 2); // +1 deltas
                    let n = shift + 13;
                    assert_decoders_agree(&enc, 4, 4 * n, &format!("{len}-byte varint"));
                    enc.resize(enc.len() + 4 * n, 0x3f); // weights
                    assert_decoders_agree(&enc, 8, 8 * n, &format!("{len}-byte varint"));
                }
            }
        }

        // 50 000 random runs, each weighted and unweighted.
        for case in 0..50_000 {
            let ids = neighbor_run(&mut rng);
            let weights: Vec<u32> = ids.iter().map(|_| rng.next() as u32).collect();
            check(&ids, &weights, &mut rng, &format!("seed {seed:#x} case {case}"));
        }
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
}
