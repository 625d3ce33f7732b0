//! CRC32C block checksums and the shard footer format.
//!
//! Every shard and index file written by a checksum-aware builder carries a
//! small *footer* after its payload bytes: one CRC32C per block (the file's
//! `P` blocks, in block order) plus a self-checksummed trailer. Readers that
//! know the block boundaries (from the manifest) can verify any full-block
//! read against the stored CRC and report corruption down to the exact
//! block and byte offset. See `docs/FORMAT.md` § "Checksum footer" for the
//! byte-level layout.
//!
//! The CRC is CRC-32C (Castagnoli, polynomial `0x1EDC6F41`), the same
//! checksum used by iSCSI, ext4 and Btrfs. [`Crc32c::update`] runs the
//! SSE4.2 `crc32` instruction eight bytes at a time on x86_64 hosts that
//! have it (checked once per process) and a byte-at-a-time table loop
//! everywhere else; both compute the same values, so the choice never
//! shows on disk.
//!
//! ```
//! use hus_storage::checksum::crc32c;
//! // The canonical CRC-32C test vector.
//! assert_eq!(crc32c(b"123456789"), 0xE306_9283);
//! ```

use crate::error::{Result, StorageError};
use std::io::Write;
use std::path::Path;

/// Magic number opening a shard footer: the bytes `HUSC` read as a
/// little-endian `u32`.
pub const FOOTER_MAGIC: u32 = u32::from_le_bytes(*b"HUSC");

/// Version of the footer layout described in `docs/FORMAT.md`.
/// Version 2 repurposed the reserved flags field as the codec id.
pub const FOOTER_VERSION: u16 = 2;

/// Footer bytes independent of the block count: magic (4) + version (2) +
/// codec id (2) + block count (4) + trailing footer CRC (4).
pub const FOOTER_FIXED_BYTES: u64 = 16;

/// Reflected CRC-32C polynomial (Castagnoli).
const POLY: u32 = 0x82F6_3B78;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// Incremental CRC-32C hasher for streaming writers.
///
/// ```
/// use hus_storage::checksum::{crc32c, Crc32c};
/// let mut h = Crc32c::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finish(), crc32c(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32c { state: 0xFFFF_FFFF }
    }

    /// Feed more payload bytes.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if sse42_available() {
            // SAFETY: gated on the runtime SSE4.2 check above.
            self.state = unsafe { update_sse42(self.state, data) };
            return;
        }
        self.state = update_table(self.state, data);
    }

    /// Final checksum of everything fed so far (does not consume; further
    /// `update` calls continue the stream).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// The portable kernel: one table lookup per byte.
fn update_table(mut s: u32, data: &[u8]) -> u32 {
    for &b in data {
        s = TABLE[((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
    }
    s
}

#[cfg(target_arch = "x86_64")]
fn sse42_available() -> bool {
    static SSE42: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SSE42.get_or_init(|| std::arch::is_x86_feature_detected!("sse4.2"))
}

/// The SSE4.2 kernel: the `crc32` instruction computes this reflected
/// CRC-32C step directly, eight bytes per instruction, then one byte at
/// a time for the tail.
///
/// # Safety
///
/// The CPU must support SSE4.2 ([`sse42_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(s: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut s = u64::from(s);
    for w in &mut words {
        s = _mm_crc32_u64(s, u64::from_le_bytes(w.try_into().expect("an 8-byte word")));
    }
    let mut s = s as u32;
    for &b in words.remainder() {
        s = _mm_crc32_u8(s, b);
    }
    s
}

/// One-shot CRC-32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(data);
    h.finish()
}

/// Total footer length in bytes for a file holding `blocks` blocks.
pub fn footer_len(blocks: usize) -> u64 {
    FOOTER_FIXED_BYTES + 4 * blocks as u64
}

/// Decoded per-block checksum footer of one shard or index file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFooter {
    /// CRC-32C of each block's *on-disk* (encoded) payload bytes, in
    /// block order.
    pub crcs: Vec<u32>,
    /// Wire id of the codec the payload blocks are encoded with
    /// (`hus_codec::CODEC_RAW` for index files and uncompressed
    /// shards). Readers cross-check this against `meta.json` so a
    /// mismatched manifest is detected before any block is decoded.
    pub codec: u16,
}

impl ShardFooter {
    /// Footer over the given per-block checksums, for a raw-encoded
    /// payload.
    pub fn new(crcs: Vec<u32>) -> Self {
        ShardFooter { crcs, codec: hus_codec::CODEC_RAW }
    }

    /// Footer over the given per-block checksums with an explicit
    /// codec id.
    pub fn with_codec(crcs: Vec<u32>, codec: u16) -> Self {
        ShardFooter { crcs, codec }
    }

    /// Serialize to the on-disk layout (see `docs/FORMAT.md`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(footer_len(self.crcs.len()) as usize);
        out.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
        out.extend_from_slice(&FOOTER_VERSION.to_le_bytes());
        out.extend_from_slice(&self.codec.to_le_bytes());
        out.extend_from_slice(&(self.crcs.len() as u32).to_le_bytes());
        for crc in &self.crcs {
            out.extend_from_slice(&crc.to_le_bytes());
        }
        let trailer = crc32c(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    /// Parse a footer from its exact byte image.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let fixed = FOOTER_FIXED_BYTES as usize;
        if bytes.len() < fixed {
            return Err(StorageError::Corrupt(format!(
                "shard footer truncated: {} bytes, need at least {fixed}",
                bytes.len()
            )));
        }
        let body = &bytes[..bytes.len() - 4];
        let stored_trailer = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let actual_trailer = crc32c(body);
        if stored_trailer != actual_trailer {
            return Err(StorageError::Corrupt(format!(
                "shard footer self-check failed: stored 0x{stored_trailer:08X}, computed 0x{actual_trailer:08X}"
            )));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != FOOTER_MAGIC {
            return Err(StorageError::Corrupt(format!(
                "bad shard footer magic 0x{magic:08X} (expected 0x{FOOTER_MAGIC:08X})"
            )));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != FOOTER_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported shard footer version {version} (expected {FOOTER_VERSION})"
            )));
        }
        let codec = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        if bytes.len() != footer_len(count) as usize {
            return Err(StorageError::Corrupt(format!(
                "shard footer length {} does not match block count {count}",
                bytes.len()
            )));
        }
        let crcs = bytes[12..12 + 4 * count]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(ShardFooter { crcs, codec })
    }

    /// Append this footer to an existing payload file. The write is *not*
    /// billed to any tracker: the footer is integrity metadata, like the
    /// manifest, not modeled data I/O.
    pub fn append_to(&self, path: &Path) -> Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| StorageError::io_at(path, e))?;
        f.write_all(&self.encode()).map_err(|e| StorageError::io_at(path, e))?;
        f.sync_data().map_err(|e| StorageError::io_at(path, e))?;
        Ok(())
    }

    /// Read and validate the footer at the end of `path`, expecting
    /// `blocks` per-block checksums.
    pub fn read_from(path: &Path, blocks: usize) -> Result<Self> {
        let want = footer_len(blocks);
        let bytes = std::fs::read(path).map_err(|e| StorageError::io_at(path, e))?;
        if (bytes.len() as u64) < want {
            return Err(StorageError::Corrupt(format!(
                "{}: file too short ({} bytes) for a {blocks}-block checksum footer ({want} bytes)",
                path.display(),
                bytes.len()
            )));
        }
        let footer = Self::decode(&bytes[bytes.len() - want as usize..])
            .map_err(|e| StorageError::Corrupt(format!("{}: {e}", path.display())))?;
        Ok(footer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Canonical CRC-32C vectors (RFC 3720 appendix B.4 style).
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    /// The portable kernel from a fresh state, finished.
    fn table_crc(data: &[u8]) -> u32 {
        !update_table(0xFFFF_FFFF, data)
    }

    #[test]
    fn dispatched_kernel_equals_the_table_loop() {
        assert_eq!(table_crc(b"123456789"), 0xE306_9283);
        // Seeded splitmix64 bytes: every length 0..=2048 one-shot, and
        // streamed in three pieces split at 0, len/3 and len.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..2048 + 8)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for len in 0..=2048 {
            let want = table_crc(&data[..len]);
            assert_eq!(crc32c(&data[..len]), want, "length {len}");
            let mut h = Crc32c::new();
            let (a, b) = (0, len / 3);
            for piece in [&data[..a], &data[a..b], &data[b..len], &data[len..len]] {
                h.update(piece);
            }
            assert_eq!(h.finish(), want, "length {len} split at 0, {b}, {len}");
        }
        // Slices that start off an 8-byte boundary.
        for at in 1..8 {
            for len in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
                let slice = &data[at..at + len];
                assert_eq!(crc32c(slice), table_crc(slice), "offset {at} length {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut h = Crc32c::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32c(&data));
    }

    #[test]
    fn footer_roundtrip() {
        let f = ShardFooter::new(vec![0xDEAD_BEEF, 0, 42]);
        let bytes = f.encode();
        assert_eq!(bytes.len() as u64, footer_len(3));
        assert_eq!(ShardFooter::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn footer_records_the_codec_id() {
        let f = ShardFooter::with_codec(vec![1, 2], hus_codec::CODEC_DELTA_VARINT);
        let bytes = f.encode();
        // The codec id sits in the former reserved-flags slot.
        assert_eq!(u16::from_le_bytes(bytes[6..8].try_into().unwrap()), f.codec);
        let back = ShardFooter::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(ShardFooter::new(vec![1]).codec, hus_codec::CODEC_RAW);
    }

    #[test]
    fn footer_detects_its_own_corruption() {
        let f = ShardFooter::new(vec![1, 2, 3, 4]);
        let mut bytes = f.encode();
        bytes[13] ^= 0x40; // flip a bit inside a stored CRC
        let err = ShardFooter::decode(&bytes).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn footer_rejects_bad_magic_and_version() {
        let f = ShardFooter::new(vec![7]);
        let mut bad_magic = f.encode();
        bad_magic[0] ^= 0xFF;
        // Re-seal the trailer so only the magic is wrong.
        let n = bad_magic.len();
        let t = crc32c(&bad_magic[..n - 4]);
        bad_magic[n - 4..].copy_from_slice(&t.to_le_bytes());
        assert!(ShardFooter::decode(&bad_magic).unwrap_err().to_string().contains("magic"));

        let mut bad_ver = f.encode();
        bad_ver[4] = 0x7F;
        let t = crc32c(&bad_ver[..n - 4]);
        bad_ver[n - 4..].copy_from_slice(&t.to_le_bytes());
        assert!(ShardFooter::decode(&bad_ver).unwrap_err().to_string().contains("version"));
    }

    #[test]
    fn append_and_read_from_file() {
        let tmp = tempfile::tempdir().unwrap();
        let p = tmp.path().join("x.edges");
        std::fs::write(&p, [9u8; 100]).unwrap();
        let f = ShardFooter::new(vec![crc32c(&[9u8; 60]), crc32c(&[9u8; 40])]);
        f.append_to(&p).unwrap();
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 100 + footer_len(2));
        assert_eq!(ShardFooter::read_from(&p, 2).unwrap(), f);
        // Wrong expected block count is rejected.
        assert!(ShardFooter::read_from(&p, 3).is_err());
    }
}
