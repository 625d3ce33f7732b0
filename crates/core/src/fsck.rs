//! Deep offline integrity check for graph directories (`hus fsck`).
//!
//! Open-time validation ([`crate::HusGraph::open`]) is deliberately
//! shallow — manifest presence plus per-file lengths. This module is
//! the thorough counterpart: it walks the `MANIFEST`, re-verifies every
//! block payload and CSR index segment against the shard footers'
//! CRC-32C tables, cross-checks the footer codec ids against
//! `meta.json`, and validates index monotonicity — reporting every
//! problem it finds instead of stopping at the first (DESIGN.md §10).
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
use crate::meta::{GraphMeta, Orientation, DEGREES_FILE, INDEX_ENTRY_BYTES, META_FILE};
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
        match dir.get_meta(META_FILE).map_err(|e| e.to_string()).and_then(|text| {
            serde_json::from_str(&text).map_err(|e| format!("bad {META_FILE}: {e}"))
        }) {
            Ok(meta) => meta,
            Err(e) => {
                report.issues.push(e);
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

    // 3. Every shard file: length, footer, per-block payload CRCs,
    //    index monotonicity.
    for own in 0..p {
        for o in Orientation::BOTH {
            let (edges_name, index_name) =
                (GraphMeta::edges_file(o, own), GraphMeta::index_file(o, own));
            check_file(
                dir,
                &edges_name,
                &mut report,
                meta.checksums.then_some(codec.id()),
                p,
                meta.shard_blocks(o, own).map(|b| (b.encoded_offset, b.encoded_bytes)).collect(),
            );
            let seg = (meta.interval_len(own) as u64 + 1) * INDEX_ENTRY_BYTES;
            check_file(
                dir,
                &index_name,
                &mut report,
                meta.checksums.then_some(hus_codec::CODEC_RAW),
                p,
                meta.shard_blocks(o, own).map(|b| (b.index_offset, seg)).collect(),
            );
            // CSR invariants per index block: offsets start at 0, are
            // non-decreasing, and end at the block's edge count.
            for (other, b) in meta.shard_blocks(o, own).enumerate() {
                if let Err(issue) =
                    check_index_block(dir, &index_name, b.index_offset, seg, b.edge_count)
                {
                    report.issues.push(format!("{index_name}: block {other}: {issue}"));
                }
            }
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

/// Length + footer + per-block CRC checks for one shard file.
/// `blocks` holds each block's `(offset, byte length)` within the
/// file's payload region.
fn check_file(
    dir: &StorageDir,
    name: &str,
    report: &mut FsckReport,
    footer_codec: Option<u16>,
    p: usize,
    blocks: Vec<(u64, u64)>,
) {
    report.files_checked += 1;
    let payload: u64 = blocks.iter().map(|&(_, len)| len).sum();
    let Some(expect_codec) = footer_codec else {
        // Un-checksummed graph: only the length is checkable.
        match std::fs::metadata(dir.path(name)) {
            Err(_) => report.issues.push(format!("{name} is missing")),
            Ok(md) if md.len() != payload => {
                report.issues.push(format!("{name}: expected {payload} bytes, found {}", md.len()))
            }
            Ok(_) => {}
        }
        return;
    };
    let want = payload + footer_len(p);
    match std::fs::metadata(dir.path(name)) {
        Err(_) => {
            report.issues.push(format!("{name} is missing"));
            return;
        }
        Ok(md) if md.len() != want => {
            report.issues.push(format!("{name}: expected {want} bytes, found {}", md.len()));
            return;
        }
        Ok(_) => {}
    }
    let footer = match ShardFooter::read_from(&dir.path(name), p) {
        Ok(f) => f,
        Err(e) => {
            report.issues.push(format!("{name}: bad footer: {e}"));
            return;
        }
    };
    if footer.codec != expect_codec {
        report.issues.push(format!(
            "{name}: footer codec id {} disagrees with {META_FILE} (id {expect_codec})",
            footer.codec
        ));
        return;
    }
    // Re-verify every block payload against the footer CRC table,
    // reading through the tracked/fault-injected reader stack.
    let reader = match dir.reader(name) {
        Ok(r) => r,
        Err(e) => {
            report.issues.push(format!("{name}: unreadable: {e}"));
            return;
        }
    };
    for (b, &(offset, len)) in blocks.iter().enumerate() {
        let mut buf = vec![0u8; len as usize];
        if let Err(e) = reader.read_at(offset, &mut buf, Access::Sequential) {
            report.issues.push(format!("{name}: block {b}: read failed: {e}"));
            continue;
        }
        report.blocks_checked += 1;
        let got = crc32c(&buf);
        if got != footer.crcs[b] {
            report.issues.push(format!(
                "{name}: block {b}: payload CRC mismatch (footer {:08X}, found {got:08X})",
                footer.crcs[b]
            ));
        }
    }
}

/// CSR offset-array invariants for one index block.
fn check_index_block(
    dir: &StorageDir,
    name: &str,
    offset: u64,
    len: u64,
    edge_count: u64,
) -> std::result::Result<(), String> {
    let reader = dir.reader(name).map_err(|e| format!("unreadable: {e}"))?;
    let offsets: Vec<u32> = hus_storage::read_pod_vec(
        &*reader,
        offset,
        (len / INDEX_ENTRY_BYTES) as usize,
        Access::Sequential,
    )
    .map_err(|e| format!("read failed: {e}"))?;
    if offsets.first() != Some(&0) {
        return Err(format!("CSR offsets start at {:?}, not 0", offsets.first()));
    }
    if let Some(w) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("CSR offsets decrease at entry {w}"));
    }
    if offsets.last().copied().unwrap_or(0) as u64 != edge_count {
        return Err(format!(
            "CSR offsets end at {}, but the block holds {edge_count} edges",
            offsets.last().copied().unwrap_or(0)
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
