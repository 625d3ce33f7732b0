//! The build `MANIFEST`: a generation-stamped, self-checksummed record
//! of every data file a completed build produced.
//!
//! A crash-consistent build (see DESIGN.md §10) stages its output in a
//! sibling `<dir>.tmp-<nonce>` directory, fsyncs the data files, writes
//! this manifest *last*, fsyncs it, and only then renames the staging
//! directory into place. Open-time validation therefore has a single
//! authoritative answer to "is this directory a complete build?": a
//! valid `MANIFEST` whose listed files all exist with their recorded
//! lengths. A missing or torn manifest means the build never finished
//! ([`crate::StorageError::IncompleteBuild`]); a listed file that
//! disagrees means post-build damage
//! ([`crate::StorageError::ManifestMismatch`]).
//!
//! The format is deliberately line-oriented plain text (no JSON parser
//! in this crate) and ends with a `#crc32c:` trailer over everything
//! above it, so a torn write is detected rather than misparsed:
//!
//! ```text
//! HUS-MANIFEST 1
//! generation 3
//! file out_0.edges 16400 crc32c:89ABCDEF
//! file degrees.bin 4000 -
//! #crc32c:0153CF10
//! ```
//!
//! The per-file `crc32c:` column stores the *trailing self-CRC of the
//! file's checksum footer* (its last four bytes) — a cheap fingerprint
//! of the whole footer, which in turn covers every block payload. Files
//! without a footer (the degree table) record `-`. `hus fsck` uses the
//! fingerprint to cross-check manifest and footers; open-time
//! validation only checks existence and length.

use crate::checksum::crc32c;
use crate::error::{Result, StorageError};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Manifest file name inside a graph directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Version of the manifest layout described in `docs/FORMAT.md`.
pub const MANIFEST_VERSION: u32 = 1;

/// First-line magic token of a manifest.
pub const MANIFEST_MAGIC: &str = "HUS-MANIFEST";

/// Prefix of the self-checksum trailer line used by the manifest (and
/// by the external builder's progress file).
pub const TRAILER_PREFIX: &str = "#crc32c:";

/// Append a `#crc32c:` trailer line covering `body` (which must end
/// with a newline).
pub fn seal_text(body: &str) -> String {
    debug_assert!(body.ends_with('\n'));
    format!("{body}{TRAILER_PREFIX}{:08X}\n", crc32c(body.as_bytes()))
}

/// Verify and strip the `#crc32c:` trailer line, returning the body.
/// Fails with [`StorageError::Corrupt`] on a missing trailer or a CRC
/// mismatch (i.e. a torn or tampered write).
pub fn unseal_text(text: &str) -> Result<&str> {
    let stripped = text.strip_suffix('\n').unwrap_or(text);
    let (body_end, trailer) = match stripped.rfind('\n') {
        Some(pos) => (pos + 1, &stripped[pos + 1..]),
        None => (0, stripped),
    };
    let stored = trailer
        .strip_prefix(TRAILER_PREFIX)
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| StorageError::Corrupt(format!("missing `{TRAILER_PREFIX}` trailer line")))?;
    let body = &text[..body_end];
    let actual = crc32c(body.as_bytes());
    if stored != actual {
        return Err(StorageError::Corrupt(format!(
            "trailer CRC mismatch: stored 0x{stored:08X}, computed 0x{actual:08X} \
             (torn or tampered write)"
        )));
    }
    Ok(body)
}

/// One data file recorded in a [`BuildManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name relative to the graph directory.
    pub name: String,
    /// Expected length in bytes (payload plus checksum footer).
    pub len: u64,
    /// Trailing self-CRC of the file's checksum footer (its last four
    /// bytes), or `None` for files without a footer.
    pub footer_crc: Option<u32>,
}

/// A parsed (or under-construction) build manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildManifest {
    /// Build generation: 1 for the first build of a directory, then
    /// one more than the manifest the build replaces. Lets operators
    /// (and `hus fsck`) tell rebuilds apart.
    pub generation: u64,
    /// Every data file of the build, in deterministic build order.
    pub files: Vec<ManifestEntry>,
    /// Live delta runs layered over the build, oldest first (`run`
    /// lines; see `docs/FORMAT.md` § "Delta runs"). Empty for a freshly
    /// built or freshly compacted directory; spills append one entry
    /// and rewrite the manifest under a bumped generation. The entry's
    /// `footer_crc` is the run file's trailing self-CRC.
    pub runs: Vec<ManifestEntry>,
}

impl BuildManifest {
    /// Empty manifest for a build of the given generation.
    pub fn new(generation: u64) -> Self {
        BuildManifest { generation, files: Vec::new(), runs: Vec::new() }
    }

    /// Record one data file.
    pub fn push(&mut self, name: impl Into<String>, len: u64, footer_crc: Option<u32>) {
        self.files.push(ManifestEntry { name: name.into(), len, footer_crc });
    }

    /// Record one live delta run (appended after every `file` line when
    /// encoded).
    pub fn push_run(&mut self, name: impl Into<String>, len: u64, trailer_crc: u32) {
        self.runs.push(ManifestEntry { name: name.into(), len, footer_crc: Some(trailer_crc) });
    }

    /// Look up a file's entry by name.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.files.iter().find(|e| e.name == name)
    }

    /// Look up a live run's entry by name.
    pub fn run_entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.runs.iter().find(|e| e.name == name)
    }

    /// Serialize to the on-disk text format (including the trailer).
    pub fn encode(&self) -> String {
        let mut body = format!("{MANIFEST_MAGIC} {MANIFEST_VERSION}\n");
        body.push_str(&format!("generation {}\n", self.generation));
        for (kw, entries) in [("file", &self.files), ("run", &self.runs)] {
            for e in entries {
                let crc = match e.footer_crc {
                    Some(c) => format!("crc32c:{c:08X}"),
                    None => "-".to_string(),
                };
                body.push_str(&format!("{kw} {} {} {crc}\n", e.name, e.len));
            }
        }
        seal_text(&body)
    }

    /// Parse the on-disk text format, verifying the trailer first.
    pub fn decode(text: &str) -> Result<Self> {
        let corrupt = |msg: String| StorageError::Corrupt(format!("MANIFEST: {msg}"));
        let body = unseal_text(text).map_err(|e| corrupt(e.to_string()))?;
        let mut lines = body.lines();
        let header = lines.next().unwrap_or_default();
        match header.strip_prefix(MANIFEST_MAGIC).map(str::trim) {
            Some(v) if v == MANIFEST_VERSION.to_string() => {}
            Some(v) => return Err(corrupt(format!("unsupported version {v:?}"))),
            None => return Err(corrupt(format!("bad magic line {header:?}"))),
        }
        let gen_line = lines.next().unwrap_or_default();
        let generation = gen_line
            .strip_prefix("generation ")
            .and_then(|g| g.parse().ok())
            .ok_or_else(|| corrupt(format!("bad generation line {gen_line:?}")))?;
        let mut files = Vec::new();
        let mut runs = Vec::new();
        for line in lines {
            let mut cols = line.split(' ');
            let (kw, name, len, crc) = (cols.next(), cols.next(), cols.next(), cols.next());
            let parsed = match (kw, name, len, crc, cols.next()) {
                (Some(kw @ ("file" | "run")), Some(name), Some(len), Some(crc), None) => {
                    len.parse().ok().and_then(|len| {
                        let footer_crc = match crc {
                            "-" => Some(None),
                            c => c
                                .strip_prefix("crc32c:")
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .map(Some),
                        }?;
                        Some((kw, ManifestEntry { name: name.to_string(), len, footer_crc }))
                    })
                }
                _ => None,
            };
            let (kw, entry) = parsed.ok_or_else(|| corrupt(format!("bad file line {line:?}")))?;
            if kw == "run" {
                runs.push(entry)
            } else {
                files.push(entry)
            }
        }
        Ok(BuildManifest { generation, files, runs })
    }

    /// Load the manifest of a graph directory. `Ok(None)` when there is
    /// none — the not-yet-built target a staging build probes; readers
    /// treat it as an incomplete build.
    /// [`StorageError::IncompleteBuild`] when a manifest exists but is
    /// torn or unparseable — the signature of a build that crashed
    /// mid-write.
    pub fn load_from(root: &Path) -> Result<Option<Self>> {
        let path = root.join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StorageError::io_at(path, e)),
        };
        Self::decode(&text).map(Some).map_err(|e| StorageError::IncompleteBuild {
            path: root.to_path_buf(),
            detail: format!("{e} — likely an interrupted build"),
        })
    }

    /// Write the manifest into `root` and fsync it (the final staged
    /// write of a build, before the atomic rename).
    pub fn write_to(&self, root: &Path) -> Result<()> {
        let path = root.join(MANIFEST_FILE);
        std::fs::write(&path, self.encode()).map_err(|e| StorageError::io_at(&path, e))?;
        crate::durable::sync_file(&path)
    }

    /// Like [`BuildManifest::write_to`], but routed through `dir`'s
    /// write-fault injector when one is configured — the staged
    /// builder's manifest write draws from the same fault schedule as
    /// every other durable write under that root.
    pub fn write_with(&self, dir: &crate::StorageDir) -> Result<()> {
        dir.durable_write(MANIFEST_FILE, self.encode().as_bytes())
    }

    /// Check that every listed file — data files and live delta runs —
    /// exists in `root` with its recorded length. Cheap (metadata
    /// only) — deep per-block verification is `hus fsck`'s job.
    pub fn verify_files(&self, root: &Path) -> Result<()> {
        for e in self.files.iter().chain(&self.runs) {
            let path = root.join(&e.name);
            let md = match std::fs::metadata(&path) {
                Ok(md) => md,
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                    return Err(StorageError::IncompleteBuild {
                        path: root.to_path_buf(),
                        detail: format!("{} is missing (manifest expects {} bytes)", e.name, e.len),
                    });
                }
                Err(err) => return Err(StorageError::io_at(path, err)),
            };
            if md.len() != e.len {
                return Err(StorageError::ManifestMismatch {
                    path: root.to_path_buf(),
                    file: e.name.clone(),
                    detail: format!("expected {} bytes, found {}", e.len, md.len()),
                });
            }
        }
        Ok(())
    }

    /// Build a manifest describing `files` as they currently exist
    /// under `root`: lengths from the filesystem and, for entries
    /// flagged `has_footer`, the footer's trailing self-CRC (the
    /// file's last four bytes).
    pub fn capture<'a>(
        root: &Path,
        generation: u64,
        files: impl IntoIterator<Item = (&'a str, bool)>,
    ) -> Result<Self> {
        let mut m = Self::new(generation);
        for (name, has_footer) in files {
            let path = root.join(name);
            let md = std::fs::metadata(&path).map_err(|e| StorageError::io_at(&path, e))?;
            let footer_crc = if has_footer { Some(read_trailing_crc(&path)?) } else { None };
            m.push(name, md.len(), footer_crc);
        }
        Ok(m)
    }

    /// The generation number the next build of `root` should stamp:
    /// one past the current manifest's, or 1 for a fresh or
    /// torn-manifest directory.
    pub fn next_generation(root: &Path) -> u64 {
        match Self::load_from(root) {
            Ok(Some(m)) => m.generation + 1,
            _ => 1,
        }
    }
}

/// Read the last four bytes of a file as a little-endian CRC value: a
/// checksum footer's or a delta run's trailing self-CRC. A file shorter
/// than four bytes is [`StorageError::Corrupt`].
pub fn read_trailing_crc(path: &Path) -> Result<u32> {
    let at = |e| StorageError::io_at(path, e);
    let mut f = std::fs::File::open(path).map_err(at)?;
    let len = f.metadata().map_err(at)?.len();
    if len < 4 {
        return Err(StorageError::Corrupt(format!(
            "{}: too short ({len} bytes) to carry a checksum footer",
            path.display()
        )));
    }
    f.seek(SeekFrom::End(-4)).map_err(at)?;
    let mut buf = [0u8; 4];
    f.read_exact(&mut buf).map_err(at)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BuildManifest {
        let mut m = BuildManifest::new(3);
        m.push("out_0.edges", 16400, Some(0x89AB_CDEF));
        m.push("out_0.index", 128, Some(7));
        m.push("degrees.bin", 4000, None);
        m
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        let text = m.encode();
        assert!(text.starts_with("HUS-MANIFEST 1\n"), "{text}");
        assert!(text.contains("generation 3\n"));
        assert!(text.contains("file degrees.bin 4000 -\n"));
        assert_eq!(BuildManifest::decode(&text).unwrap(), m);
    }

    #[test]
    fn run_lines_roundtrip_after_the_file_lines() {
        let mut m = sample();
        m.push_run("delta_000001.run", 96, 0x0153_CF10);
        m.push_run("delta_000002.run", 64, 7);
        let text = m.encode();
        assert!(text.contains("run delta_000001.run 96 crc32c:0153CF10\n"), "{text}");
        let files_at = text.find("file ").unwrap();
        let runs_at = text.find("run ").unwrap();
        assert!(files_at < runs_at, "run lines follow file lines");
        let back = BuildManifest::decode(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.run_entry("delta_000002.run").unwrap().len, 64);
        assert!(back.run_entry("delta_000009.run").is_none());
    }

    #[test]
    fn verify_files_checks_run_entries_too() {
        let tmp = tempfile::tempdir().unwrap();
        std::fs::write(tmp.path().join("a.bin"), [0u8; 10]).unwrap();
        std::fs::write(tmp.path().join("delta_000001.run"), [0u8; 36]).unwrap();
        let mut m = BuildManifest::new(1);
        m.push("a.bin", 10, None);
        m.push_run("delta_000001.run", 36, 9);
        m.verify_files(tmp.path()).unwrap();
        m.push_run("delta_000002.run", 36, 9);
        let err = m.verify_files(tmp.path()).unwrap_err();
        assert!(err.to_string().contains("delta_000002.run"), "{err}");
    }

    #[test]
    fn torn_manifest_is_detected() {
        let text = sample().encode();
        // A torn write: the tail (including the trailer) never landed.
        let torn = &text[..text.len() / 2];
        assert!(BuildManifest::decode(torn).is_err());
        // A flipped byte inside the body.
        let mut bytes = text.clone().into_bytes();
        bytes[20] ^= 0x01;
        let err = BuildManifest::decode(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn seal_unseal_roundtrip_and_detects_edits() {
        let sealed = seal_text("hello\nworld\n");
        assert_eq!(unseal_text(&sealed).unwrap(), "hello\nworld\n");
        let tampered = sealed.replace("world", "w0rld");
        assert!(unseal_text(&tampered).is_err());
        assert!(unseal_text("no trailer at all").is_err());
    }

    #[test]
    fn load_from_distinguishes_absent_and_torn() {
        let tmp = tempfile::tempdir().unwrap();
        assert!(BuildManifest::load_from(tmp.path()).unwrap().is_none());
        std::fs::write(tmp.path().join(MANIFEST_FILE), "HUS-MANIFEST 1\ngener").unwrap();
        let err = BuildManifest::load_from(tmp.path()).unwrap_err();
        assert!(
            matches!(err, StorageError::IncompleteBuild { .. }),
            "torn manifest must read as an incomplete build: {err}"
        );
        assert_eq!(BuildManifest::next_generation(tmp.path()), 1);
    }

    #[test]
    fn verify_files_names_the_offender() {
        let tmp = tempfile::tempdir().unwrap();
        std::fs::write(tmp.path().join("a.bin"), [0u8; 10]).unwrap();
        std::fs::write(tmp.path().join("b.bin"), [0u8; 4]).unwrap();
        let mut m = BuildManifest::new(1);
        m.push("a.bin", 10, None);
        m.push("b.bin", 4, None);
        m.verify_files(tmp.path()).unwrap();

        m.push("gone.bin", 9, None);
        let err = m.verify_files(tmp.path()).unwrap_err();
        assert!(matches!(&err, StorageError::IncompleteBuild { .. }), "{err}");
        assert!(err.to_string().contains("gone.bin"), "{err}");

        let mut m = BuildManifest::new(1);
        m.push("a.bin", 11, None);
        let err = m.verify_files(tmp.path()).unwrap_err();
        assert!(
            matches!(&err, StorageError::ManifestMismatch { file, .. } if file == "a.bin"),
            "{err}"
        );
    }

    #[test]
    fn capture_reads_lengths_and_footer_tails() {
        let tmp = tempfile::tempdir().unwrap();
        let mut payload = vec![1u8, 2, 3, 4];
        payload.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        std::fs::write(tmp.path().join("x.edges"), &payload).unwrap();
        std::fs::write(tmp.path().join("degrees.bin"), [0u8; 8]).unwrap();
        let m = BuildManifest::capture(tmp.path(), 2, [("x.edges", true), ("degrees.bin", false)])
            .unwrap();
        assert_eq!(m.generation, 2);
        assert_eq!(m.entry("x.edges").unwrap().len, 8);
        assert_eq!(m.entry("x.edges").unwrap().footer_crc, Some(0xDEAD_BEEF));
        assert_eq!(m.entry("degrees.bin").unwrap().footer_crc, None);
        // Round-trips through disk and bumps the next generation.
        m.write_to(tmp.path()).unwrap();
        assert_eq!(BuildManifest::load_from(tmp.path()).unwrap().unwrap(), m);
        assert_eq!(BuildManifest::next_generation(tmp.path()), 3);
    }

    #[test]
    fn trailing_crc_of_a_short_file_is_corrupt() {
        let tmp = tempfile::tempdir().unwrap();
        let path = tmp.path().join("short.run");
        std::fs::write(&path, [1u8, 2, 3]).unwrap();
        let err = read_trailing_crc(&path).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("short.run") && m.contains("3 bytes")),
            "{err}"
        );
        std::fs::write(&path, 0x0153_CF10u32.to_le_bytes()).unwrap();
        assert_eq!(read_trailing_crc(&path).unwrap(), 0x0153_CF10);
    }
}
