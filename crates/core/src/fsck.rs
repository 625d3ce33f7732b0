//! Deep offline integrity check for graph directories (`hus fsck`).
//!
//! Open-time validation ([`crate::HusGraph::open`]) is deliberately
//! shallow — manifest presence plus per-file lengths. This module is
//! the thorough counterpart: it walks the `MANIFEST`, re-verifies every
//! block payload and sparse index (bitmap and offsets) against the shard
//! footers' CRC-32C tables, cross-checks the footer codec ids against
//! `meta.json`, and validates each index — bitmap population against
//! offset count, no set bit past the interval, every occupied vertex's
//! range non-empty, the terminal offset at the block's edge count —
//! reporting every problem it finds instead of stopping at the first
//! (DESIGN.md §10).
//!
//! Delta runs (DESIGN.md §11) are covered too: every run the
//! `MANIFEST` lists is fully re-read and CRC-verified, its trailer is
//! cross-checked against the manifest's recorded fingerprint, and its
//! partitioning against `meta.json`.
//!
//! With `repair`, it also quarantines leftovers that are *not* part of
//! the committed directory: stale `.tmp-*` staging siblings from
//! interrupted builds, orphaned iteration checkpoints in scratch
//! directories, orphaned delta runs a crash stranded between the run
//! commit and its manifest listing, and `.run.tmp` / `MANIFEST.tmp`
//! remnants of interrupted spills.

use crate::checkpoint::CKPT_SLOTS;
use crate::index::Occupancy;
use crate::meta::{GraphMeta, Orientation, DEGREES_FILE, META_FILE};
use hus_storage::checksum::{footer_len, ShardFooter};
use hus_storage::{crc32c, Access, Result, StorageDir};
use std::path::PathBuf;

/// Everything one `fsck` pass found.
pub struct FsckReport {
    /// Directory checked.
    pub root: PathBuf,
    /// Manifest generation, when a valid `MANIFEST` is present.
    pub generation: Option<u64>,
    /// Data files examined.
    pub files_checked: usize,
    /// Blocks whose payload CRC was re-verified.
    pub blocks_checked: u64,
    /// Integrity problems; empty means the directory is sound.
    pub issues: Vec<String>,
    /// Leftovers that are not corruption but warrant cleanup: stale
    /// staging siblings and orphaned checkpoints. Quarantined when
    /// `repair` is set.
    pub stale: Vec<String>,
    /// Repair actions performed (with `repair`).
    pub repairs: Vec<String>,
}

impl FsckReport {
    /// Whether the committed directory itself is fully intact.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut s = format!("fsck {}\n", self.root.display());
        match self.generation {
            Some(g) => s.push_str(&format!("  manifest: generation {g}\n")),
            None => s.push_str("  manifest: missing or unreadable\n"),
        }
        s.push_str(&format!(
            "  checked: {} files, {} blocks\n",
            self.files_checked, self.blocks_checked
        ));
        for issue in &self.issues {
            s.push_str(&format!("  ISSUE: {issue}\n"));
        }
        for stale in &self.stale {
            s.push_str(&format!("  stale: {stale}\n"));
        }
        for repair in &self.repairs {
            s.push_str(&format!("  repaired: {repair}\n"));
        }
        s.push_str(if self.is_clean() { "  status: clean\n" } else { "  status: CORRUPT\n" });
        s
    }
}

/// Run a full integrity check over `dir`; with `repair`, also
/// quarantine stale staging siblings and orphaned checkpoints into
/// `<dir>/quarantine/`. Returns `Err` only for environmental failures
/// (e.g. an unreadable root); corruption is reported in the
/// [`FsckReport`], never as an error.
pub fn fsck(dir: &StorageDir, repair: bool) -> Result<FsckReport> {
    let mut report = FsckReport {
        root: dir.root().to_path_buf(),
        generation: None,
        files_checked: 0,
        blocks_checked: 0,
        issues: Vec::new(),
        stale: Vec::new(),
        repairs: Vec::new(),
    };

    // 1. Manifest: shape and per-file lengths; then every listed delta
    //    run, fully re-read and CRC-verified.
    let mut listed_runs: Vec<String> = Vec::new();
    let mut run_partitions: Vec<(String, u32)> = Vec::new();
    match crate::graph::load_manifest(dir.root()) {
        Ok(manifest) => {
            report.generation = Some(manifest.generation);
            if let Err(e) = manifest.verify_files(dir.root()) {
                report.issues.push(e.to_string());
            }
            for entry in &manifest.runs {
                listed_runs.push(entry.name.clone());
                report.files_checked += 1;
                match hus_storage::delta::DeltaRun::load_from(dir, &entry.name) {
                    Ok(run) => {
                        report.blocks_checked += run.blocks.len() as u64;
                        run_partitions.push((entry.name.clone(), run.p));
                        // The manifest's fingerprint is the run's trailing
                        // self-CRC; a mismatch means the file was swapped
                        // or rewritten after the spill committed.
                        // `load_from` read the whole run, so an error here
                        // adds nothing to report.
                        match hus_storage::manifest::read_trailing_crc(&dir.path(&entry.name)) {
                            Ok(tail) if Some(tail) != entry.footer_crc => {
                                report.issues.push(format!(
                                    "{}: trailer CRC {tail:08X} disagrees with MANIFEST \
                                     ({:08X})",
                                    entry.name,
                                    entry.footer_crc.unwrap_or(0)
                                ));
                            }
                            _ => {}
                        }
                    }
                    Err(e) => report.issues.push(e.to_string()),
                }
            }
        }
        Err(e) => report.issues.push(e.to_string()),
    }

    // 2. meta.json: without it no deep checks are possible.
    let meta: GraphMeta =
        match dir.get_meta(META_FILE).and_then(|text| GraphMeta::parse(&text, dir.root())) {
            Ok(meta) => meta,
            Err(e) => {
                report.issues.push(e.to_string());
                scan_stale(dir, repair, &mut report, &listed_runs);
                return Ok(report);
            }
        };
    if let Err(e) = meta.validate() {
        report.issues.push(format!("{META_FILE}: {e}"));
        scan_stale(dir, repair, &mut report, &listed_runs);
        return Ok(report);
    }
    for (name, run_p) in &run_partitions {
        if *run_p != meta.p {
            report.issues.push(format!(
                "{name}: run partitioned {run_p}-way but {META_FILE} says P = {}",
                meta.p
            ));
        }
    }
    report.files_checked += 1;
    let p = meta.p as usize;
    let codec = match meta.codec() {
        Ok(c) => c,
        Err(e) => {
            report.issues.push(format!("{META_FILE}: {e}"));
            scan_stale(dir, repair, &mut report, &listed_runs);
            return Ok(report);
        }
    };

    // 3. Every shard file: length, footer, per-block payload CRCs, and
    //    the sparse index's invariants.
    for own in 0..p {
        for o in Orientation::BOTH {
            let edges_name = GraphMeta::edges_file(o, own);
            let blocks = meta.shard_blocks(o, own).map(|b| (b.encoded_offset, b.encoded_bytes));
            if let Ok(Some(crcs)) = check_file(
                dir,
                &edges_name,
                &mut report,
                meta.checksums.then_some(codec.id()),
                p,
                meta.shard_blocks(o, own).map(|b| b.encoded_bytes).sum(),
            ) {
                check_crcs(dir, &edges_name, &mut report, &crcs, blocks);
            }
            check_index_file(dir, &meta, o, own, &mut report);
        }
    }

    // 4. Degree table.
    report.files_checked += 1;
    let want = meta.num_vertices as u64 * 4;
    match std::fs::metadata(dir.path(DEGREES_FILE)) {
        Err(_) => report.issues.push(format!("{DEGREES_FILE} is missing")),
        Ok(md) if md.len() != want => {
            report.issues.push(format!("{DEGREES_FILE}: expected {want} bytes, found {}", md.len()))
        }
        Ok(_) => {}
    }

    scan_stale(dir, repair, &mut report, &listed_runs);
    Ok(report)
}

/// Length and footer checks for one shard file of `payload` bytes plus,
/// on a checksummed graph (`footer_codec` set), its footer naming
/// `footer_codec`. `Err` when the file failed them (the issue is
/// reported); otherwise the footer's CRC table, `None` on an
/// un-checksummed graph.
fn check_file(
    dir: &StorageDir,
    name: &str,
    report: &mut FsckReport,
    footer_codec: Option<u16>,
    p: usize,
    payload: u64,
) -> std::result::Result<Option<Vec<u32>>, ()> {
    report.files_checked += 1;
    let want = payload + footer_codec.map_or(0, |_| footer_len(p));
    let issue = match std::fs::metadata(dir.path(name)) {
        Err(_) => format!("{name} is missing"),
        Ok(md) if md.len() != want => format!("{name}: expected {want} bytes, found {}", md.len()),
        Ok(_) => {
            let Some(expect_codec) = footer_codec else { return Ok(None) };
            match ShardFooter::read_from(&dir.path(name), p) {
                Ok(footer) if footer.codec == expect_codec => return Ok(Some(footer.crcs)),
                Ok(footer) => format!(
                    "{name}: footer codec id {} disagrees with {META_FILE} (id {expect_codec})",
                    footer.codec
                ),
                Err(e) => format!("{name}: bad footer: {e}"),
            }
        }
    };
    report.issues.push(issue);
    Err(())
}

/// Re-verify every block of shard file `name` against its footer CRC
/// table `crcs`, reading through the tracked/fault-injected reader
/// stack. `blocks` holds each block's `(offset, byte length)` within the
/// file's payload region.
fn check_crcs(
    dir: &StorageDir,
    name: &str,
    report: &mut FsckReport,
    crcs: &[u32],
    blocks: impl Iterator<Item = (u64, u64)>,
) {
    let reader = match dir.reader(name) {
        Ok(r) => r,
        Err(e) => {
            report.issues.push(format!("{name}: unreadable: {e}"));
            return;
        }
    };
    for (b, (offset, len)) in blocks.enumerate() {
        let mut buf = vec![0u8; len as usize];
        if let Err(e) = reader.read_at(offset, &mut buf, Access::Sequential) {
            report.issues.push(format!("{name}: block {b}: read failed: {e}"));
            continue;
        }
        report.blocks_checked += 1;
        let got = crc32c(&buf);
        if got != crcs[b] {
            report.issues.push(format!(
                "{name}: block {b}: payload CRC mismatch (footer {:08X}, found {got:08X})",
                crcs[b]
            ));
        }
    }
}

/// Check interval `own`'s `o`-shard `.index` file: its length and
/// footer, then per block the CRC of its bitmap and offsets and the
/// sparse-index invariants of [`check_index_block`].
fn check_index_file(
    dir: &StorageDir,
    meta: &GraphMeta,
    o: Orientation,
    own: usize,
    report: &mut FsckReport,
) {
    let name = GraphMeta::index_file(o, own);
    let p = meta.p as usize;
    let footer_codec = meta.checksums.then_some(hus_codec::CODEC_RAW);
    let payload = meta.index_file_bytes(o, own);
    let Ok(crcs) = check_file(dir, &name, report, footer_codec, p, payload) else {
        return;
    };
    let reader = match dir.reader(&name) {
        Ok(r) => r,
        Err(e) => {
            report.issues.push(format!("{name}: unreadable: {e}"));
            return;
        }
    };
    let words = meta.bitmap_words(own) as usize;
    let len = meta.interval_len(own) as usize;
    for (other, block) in meta.shard_blocks(o, own).enumerate() {
        let (i, j) = o.orient(own, other);
        let at = format!("{name}: block {other} ({}-block ({i}, {j}))", o.name());
        let read = hus_storage::read_pod_vec::<u64, _>(
            &*reader,
            meta.bitmap_offset(o, own, other),
            words,
            Access::Sequential,
        )
        .and_then(|bitmap| {
            let count = block.occupied as usize + 1;
            let offsets = hus_storage::read_pod_vec::<u32, _>(
                &*reader,
                block.index_offset,
                count,
                Access::Sequential,
            )?;
            Ok((bitmap, offsets))
        });
        let (bitmap, offsets) = match read {
            Ok(read) => read,
            Err(e) => {
                report.issues.push(format!("{at}: read failed: {e}"));
                continue;
            }
        };
        report.blocks_checked += 1;
        if let Some(&stored) = crcs.as_ref().and_then(|crcs| crcs.get(other)) {
            let mut crc = hus_storage::checksum::Crc32c::new();
            crc.update(hus_storage::pod::as_bytes(&bitmap));
            crc.update(hus_storage::pod::as_bytes(&offsets));
            let got = crc.finish();
            if got != stored {
                report.issues.push(format!(
                    "{at}: index CRC mismatch (footer {stored:08X}, found {got:08X})"
                ));
            }
        }
        if let Err(issue) = check_index_block(bitmap, len, &offsets, block.edge_count) {
            report.issues.push(format!("{at}: {issue}"));
        }
    }
}

/// Sparse-index invariants of one block over an interval of `len`
/// vertices: no bitmap bit set past the interval, one offset per set
/// bit plus the terminal one, offsets that start at 0 and strictly
/// increase (an occupied vertex owns at least one record), and a
/// terminal offset equal to the block's edge count.
fn check_index_block(
    bitmap: Vec<u64>,
    len: usize,
    offsets: &[u32],
    edge_count: u64,
) -> std::result::Result<(), String> {
    let occupancy = Occupancy::new(bitmap, len)?;
    if occupancy.count() + 1 != offsets.len() {
        return Err(format!(
            "bitmap marks {} occupied vertices, but the block has {} offsets",
            occupancy.count(),
            offsets.len()
        ));
    }
    if offsets.first() != Some(&0) {
        return Err(format!("offsets start at {:?}, not 0", offsets.first()));
    }
    if let Some(k) = offsets.windows(2).position(|w| w[0] >= w[1]) {
        return Err(format!(
            "the occupied vertex at offset entry {k} has an empty range ({} .. {})",
            offsets[k],
            offsets[k + 1]
        ));
    }
    let terminal = offsets.last().copied().unwrap_or(0);
    if terminal as u64 != edge_count {
        return Err(format!(
            "terminal offset is {terminal}, but the block holds {edge_count} edges"
        ));
    }
    Ok(())
}

/// Find (and with `repair`, quarantine) stale staging siblings,
/// orphaned checkpoint slots in scratch subdirectories, and delta-spill
/// leftovers: run files the `MANIFEST` does not list (a crash landed
/// between the run commit and the manifest rewrite) plus `.run.tmp` /
/// `MANIFEST.tmp` remnants of torn spills.
fn scan_stale(dir: &StorageDir, repair: bool, report: &mut FsckReport, listed_runs: &[String]) {
    let mut targets: Vec<PathBuf> = dir.staging_siblings();
    // Orphaned checkpoints: scratch subdirectories still holding slot
    // files (their run was killed; a finished run clears them).
    if let Ok(entries) = std::fs::read_dir(dir.root()) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() && CKPT_SLOTS.iter().any(|s| path.join(s).is_file()) {
                targets.push(path);
            } else if path.is_file() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let orphaned_run = hus_storage::delta::parse_run_file(&name).is_some()
                    && !listed_runs.iter().any(|l| l == &name);
                if orphaned_run
                    || name.ends_with(".run.tmp")
                    || name == format!("{}.tmp", hus_storage::MANIFEST_FILE)
                {
                    targets.push(path);
                }
            }
        }
    }
    targets.sort();
    for path in targets {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
        if repair {
            match dir.quarantine(&path) {
                Ok(dest) => {
                    let landed = dest.file_name().and_then(|n| n.to_str()).unwrap_or("?");
                    report.repairs.push(format!("{name} -> quarantine/{landed}"));
                }
                Err(e) => report.issues.push(format!("quarantine of {name} failed: {e}")),
            }
        } else {
            report.stale.push(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, BuildConfig};
    use hus_gen::rmat::rmat;

    fn built(p: u32) -> (tempfile::TempDir, StorageDir) {
        let el = rmat(150, 900, 17, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        build(&el, &dir, &BuildConfig::with_p(p)).unwrap();
        (tmp, dir)
    }

    #[test]
    fn clean_directory_passes() {
        let (_t, dir) = built(3);
        let report = fsck(&dir, false).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.generation, Some(1));
        // meta + degrees + 4 files per interval.
        assert_eq!(report.files_checked, 2 + 4 * 3);
        // 2 shard kinds × 2 file kinds × p files × p blocks.
        assert_eq!(report.blocks_checked, 4 * 3 * 3);
        assert!(report.render().contains("status: clean"));
    }

    #[test]
    fn flipped_payload_byte_is_pinned_to_its_block() {
        let (_t, dir) = built(3);
        let name = GraphMeta::out_edges_file(1);
        let path = dir.path(&name);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x01; // first payload byte = block 0 of out-shard 1
        std::fs::write(&path, &bytes).unwrap();
        let report = fsck(&dir, false).unwrap();
        assert!(!report.is_clean());
        assert!(
            report.issues.iter().any(|i| i.contains(&name) && i.contains("block 0")),
            "issue names file and block: {:?}",
            report.issues
        );
    }

    /// The manifest of the directory `built` made.
    fn meta_of(dir: &StorageDir) -> GraphMeta {
        GraphMeta::parse(&dir.get_meta(META_FILE).unwrap(), dir.root()).unwrap()
    }

    /// Overwrite the bytes at `at` of file `name` with `bytes`.
    fn patch(dir: &StorageDir, name: &str, at: u64, bytes: &[u8]) {
        let path = dir.path(name);
        let mut file = std::fs::read(&path).unwrap();
        file[at as usize..at as usize + bytes.len()].copy_from_slice(bytes);
        std::fs::write(&path, file).unwrap();
    }

    /// Damage one block of `out_1.index` — the first whose occupancy
    /// `pick` accepts — with `damage(meta, block position)`, then
    /// require fsck to name that block with an issue containing `want`.
    fn index_damage_is_named(
        pick: impl Fn(&crate::BlockMeta, u64) -> bool,
        damage: impl Fn(&StorageDir, &GraphMeta, usize),
        want: &str,
    ) {
        let (_t, dir) = built(3);
        let meta = meta_of(&dir);
        let len = meta.interval_len(1) as u64;
        assert_eq!(len % 64, 50, "the interval ends inside a bitmap word");
        let other = (meta.shard_blocks(Orientation::Out, 1).position(|b| pick(b, len)))
            .expect("a block to damage");
        damage(&dir, &meta, other);
        let report = fsck(&dir, false).unwrap();
        let block = format!("out_1.index: block {other}");
        assert!(
            report.issues.iter().any(|i| i.contains(&block) && i.contains(want)),
            "want an issue naming `{block}` with `{want}`: {}",
            report.render()
        );
    }

    /// The offset entry `k` of out-shard 1's block at position `other`.
    fn offset_at(meta: &GraphMeta, other: usize, k: u64) -> u64 {
        meta.shard_blocks(Orientation::Out, 1).nth(other).unwrap().index_offset + 4 * k
    }

    #[test]
    fn bitmap_population_disagreeing_with_the_offsets_is_named() {
        // Mark one more vertex occupied than the block has offsets for.
        index_damage_is_named(
            |b, len| b.occupied < len,
            |dir, meta, other| {
                let at = meta.bitmap_offset(Orientation::Out, 1, other);
                let word = u64::from_le_bytes(
                    std::fs::read(dir.path("out_1.index")).unwrap()[at as usize..at as usize + 8]
                        .try_into()
                        .unwrap(),
                );
                let free = (!word).trailing_zeros();
                assert!(free < 50);
                patch(dir, "out_1.index", at, &(word | 1 << free).to_le_bytes());
            },
            "occupied vertices, but the block has",
        );
    }

    #[test]
    fn occupied_vertex_with_an_empty_range_is_named() {
        // The second occupied vertex's range starts where the first's
        // does: the first owns no record.
        index_damage_is_named(
            |b, _| b.occupied >= 2,
            |dir, meta, other| patch(dir, "out_1.index", offset_at(meta, other, 1), &[0; 4]),
            "has an empty range",
        );
    }

    #[test]
    fn terminal_offset_off_the_edge_count_is_named() {
        index_damage_is_named(
            |b, _| b.occupied >= 1,
            |dir, meta, other| {
                let b = meta.shard_blocks(Orientation::Out, 1).nth(other).unwrap();
                let terminal = (b.edge_count as u32 + 1).to_le_bytes();
                patch(dir, "out_1.index", offset_at(meta, other, b.occupied), &terminal);
            },
            "terminal offset",
        );
    }

    #[test]
    fn padding_bits_past_the_interval_are_named() {
        // Bit 63 of the only bitmap word lies past the interval's 50
        // vertices.
        index_damage_is_named(
            |_, _| true,
            |dir, meta, other| {
                let at = meta.bitmap_offset(Orientation::Out, 1, other) + 7;
                let top = std::fs::read(dir.path("out_1.index")).unwrap()[at as usize] | 0x80;
                patch(dir, "out_1.index", at, &[top]);
            },
            "past the interval",
        );
    }

    #[test]
    fn dense_index_directory_is_reported_as_an_older_format() {
        let (_t, dir) = built(2);
        let text = dir.get_meta(META_FILE).unwrap();
        let version = format!("\"format\": {}", crate::meta::FORMAT_VERSION);
        assert!(text.contains(&version), "{text}");
        dir.put_meta(META_FILE, &text.replacen(&version, "\"format\": 1", 1)).unwrap();
        let report = fsck(&dir, false).unwrap();
        assert!(
            report.issues.iter().any(|i| i.contains("format 1") && i.contains("rebuild")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn truncated_and_missing_files_are_reported_not_fatal() {
        let (_t, dir) = built(3);
        std::fs::remove_file(dir.path(&GraphMeta::in_index_file(0))).unwrap();
        let path = dir.path(&GraphMeta::out_index_file(2));
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();
        let report = fsck(&dir, false).unwrap();
        assert!(report.issues.iter().any(|i| i.contains("in_0.index")), "{:?}", report.issues);
        assert!(report.issues.iter().any(|i| i.contains("out_2.index")), "{:?}", report.issues);
    }

    #[test]
    fn repair_quarantines_staging_and_orphaned_checkpoints() {
        let (_t, dir) = built(2);
        // Stale staging sibling (simulated crash: no Drop).
        let staging = dir.staging().unwrap();
        staging.dir().put_meta("partial.bin", "x").unwrap();
        std::mem::forget(staging);
        // Orphaned checkpoint in a scratch dir.
        let scratch = dir.subdir("scratch_dead").unwrap();
        let mut mgr = crate::checkpoint::CheckpointManager::new(scratch, 4);
        mgr.save(1, &[1u32, 2, 3, 4], &crate::ActiveSet::new(4)).unwrap();

        let before = fsck(&dir, false).unwrap();
        assert!(before.is_clean(), "stale leftovers are not corruption");
        assert_eq!(before.stale.len(), 2, "{:?}", before.stale);

        let repaired = fsck(&dir, true).unwrap();
        assert_eq!(repaired.repairs.len(), 2, "{:?}", repaired.repairs);
        assert!(dir.staging_siblings().is_empty());
        assert!(!dir.path("scratch_dead").exists());
        assert!(dir.root().join("quarantine").is_dir());

        let after = fsck(&dir, false).unwrap();
        assert!(after.is_clean());
        assert!(after.stale.is_empty());
    }

    /// A second repair of a leftover under the same name keeps the
    /// first one's copy, and the report names where each landed.
    #[test]
    fn repeated_repairs_keep_every_quarantined_copy() {
        let (_t, dir) = built(2);
        let manifest_tmp = format!("{}.tmp", hus_storage::MANIFEST_FILE);
        let mut repairs = Vec::new();
        for contents in ["A", "B"] {
            dir.put_meta(&manifest_tmp, contents).unwrap();
            repairs.extend(fsck(&dir, true).unwrap().repairs);
        }
        assert_eq!(
            repairs,
            [
                format!("{manifest_tmp} -> quarantine/{manifest_tmp}"),
                format!("{manifest_tmp} -> quarantine/{manifest_tmp}.1"),
            ]
        );
        let qdir = dir.root().join("quarantine");
        let read = |name: String| std::fs::read_to_string(qdir.join(name)).unwrap();
        assert_eq!(read(manifest_tmp.clone()), "A");
        assert_eq!(read(format!("{manifest_tmp}.1")), "B");
    }

    #[test]
    fn listed_delta_runs_are_verified_and_corruption_is_caught() {
        let (_t, dir) = built(3);
        let mut dg = crate::delta::DynamicGraph::open(dir.clone()).unwrap();
        dg.insert_edge(0, 149, 1.0).unwrap();
        dg.delete_edge(1, 2).unwrap();
        dg.flush().unwrap().unwrap();
        drop(dg);
        let clean = fsck(&dir, false).unwrap();
        assert!(clean.is_clean(), "{}", clean.render());

        // Flip one payload byte inside the run: the whole-file CRC (and
        // the block CRC) must catch it.
        let path = dir.path("delta_000001.run");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let report = fsck(&dir, false).unwrap();
        assert!(!report.is_clean());
        assert!(
            report.issues.iter().any(|i| i.contains("delta_000001.run")),
            "issue names the run: {:?}",
            report.issues
        );
    }

    #[test]
    fn orphaned_runs_and_spill_tmp_leftovers_are_stale_and_repairable() {
        let (_t, dir) = built(2);
        // An orphaned run: committed on disk, never listed (the shape a
        // crash at `delta.spill_run` leaves behind).
        let mut orphan = hus_storage::DeltaRun::new(7, 2);
        orphan.push(0, 0, hus_storage::DeltaRecord::insert(0, 1, 1.0));
        orphan.write_to(&dir).unwrap();
        // Torn-spill remnants.
        std::fs::write(dir.path("delta_000009.run.tmp"), b"partial").unwrap();
        std::fs::write(dir.path("MANIFEST.tmp"), b"partial").unwrap();

        let before = fsck(&dir, false).unwrap();
        assert!(before.is_clean(), "leftovers are not corruption: {}", before.render());
        assert_eq!(before.stale.len(), 3, "{:?}", before.stale);
        assert!(before.stale.iter().any(|s| s == "delta_000007.run"));

        let repaired = fsck(&dir, true).unwrap();
        assert_eq!(repaired.repairs.len(), 3, "{:?}", repaired.repairs);
        assert!(!dir.exists("delta_000007.run"));
        assert!(!dir.exists("delta_000009.run.tmp"));
        assert!(!dir.exists("MANIFEST.tmp"));
        assert!(fsck(&dir, false).unwrap().stale.is_empty());

        // A *listed* run is never stale.
        let mut dg = crate::delta::DynamicGraph::open(dir.clone()).unwrap();
        dg.insert_edge(0, 1, 1.0).unwrap();
        dg.flush().unwrap().unwrap();
        drop(dg);
        let listed = fsck(&dir, false).unwrap();
        assert!(listed.is_clean(), "{}", listed.render());
        assert!(listed.stale.is_empty(), "{:?}", listed.stale);
    }

    #[test]
    fn injected_write_fault_leftovers_quarantine_and_prior_generation_opens() {
        let (_t, dir) = built(2);
        // A committed spill first, so "prior generation" includes a
        // manifest-listed run that must survive the mess below.
        let mut dg = crate::delta::DynamicGraph::open(dir.clone()).unwrap();
        dg.insert_edge(0, 1, 2.0).unwrap();
        dg.flush().unwrap().unwrap();
        drop(dg);
        let gen_before = fsck(&dir, false).unwrap().generation;
        assert!(gen_before.is_some());

        // A torn writer persists a corrupted prefix and then fails —
        // the on-disk shape an injected ENOSPC/torn spill leaves at the
        // exact moment before rollback cleanup would run (i.e. what a
        // crash inside the rollback itself leaves behind).
        let torn = dir.clone().with_faults(Some(hus_storage::FaultSpec {
            seed: 11,
            torn: 1.0,
            ..Default::default()
        }));
        let manifest_tmp = format!("{}.tmp", hus_storage::MANIFEST_FILE);
        assert!(torn.durable_write(&manifest_tmp, b"generation 99\n").is_err());
        assert!(torn.durable_write("delta_000031.run.tmp", &[0xAB; 64]).is_err());
        assert!(dir.exists(&manifest_tmp), "torn write leaves a partial file");

        let before = fsck(&dir, false).unwrap();
        assert!(before.is_clean(), "partial tmp files are stale, not corruption");
        assert_eq!(before.stale.len(), 2, "{:?}", before.stale);

        let repaired = fsck(&dir, true).unwrap();
        assert_eq!(repaired.repairs.len(), 2, "{:?}", repaired.repairs);
        assert!(!dir.exists(&manifest_tmp));
        assert!(!dir.exists("delta_000031.run.tmp"));
        assert!(dir.root().join("quarantine").join(&manifest_tmp).is_file());

        // The prior generation is untouched: same generation, clean
        // fsck, and the graph (base + committed run) still opens.
        let after = fsck(&dir, false).unwrap();
        assert!(after.is_clean(), "{}", after.render());
        assert_eq!(after.generation, gen_before);
        let mut dg = crate::delta::DynamicGraph::open(dir.clone()).unwrap();
        assert!(dg.snapshot().is_ok());
    }

    #[test]
    fn directory_without_manifest_is_reported_as_an_issue() {
        let (_t, dir) = built(2);
        std::fs::remove_file(dir.path(hus_storage::MANIFEST_FILE)).unwrap();
        let report = fsck(&dir, false).unwrap();
        assert_eq!(report.generation, None);
        assert!(
            report.issues.iter().any(|i| i.contains(hus_storage::MANIFEST_FILE)),
            "issue names the file: {}",
            report.render()
        );
    }
}
