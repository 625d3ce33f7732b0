//! Documentation-vs-code synchronization tests: the README's
//! environment-knob table is generated from `hus_obs::env::KNOBS`,
//! `docs/OBSERVABILITY.md`'s metric catalog names exactly the registered
//! metrics, `docs/FORMAT.md`'s byte offsets mirror the source
//! constants, and the experiment script and docs name only existing
//! binaries. These tests fail — printing the expected text — whenever
//! either side drifts.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The README's env table lives between these markers and must equal
/// `hus_obs::env::markdown_table()` verbatim.
#[test]
fn readme_env_table_matches_registry() {
    let readme = read("README.md");
    let begin = "<!-- env-table:begin";
    let end = "<!-- env-table:end -->";
    let start = readme.find(begin).expect("README.md lost its env-table:begin marker");
    let start = readme[start..].find('\n').map(|n| start + n + 1).unwrap();
    let stop = readme.find(end).expect("README.md lost its env-table:end marker");
    let actual = &readme[start..stop];
    let expected = husgraph::obs::env::markdown_table();
    assert!(
        actual == expected,
        "README env table is out of sync with hus_obs::env::KNOBS.\n\
         Replace the table between the markers with:\n\n{expected}"
    );
}

/// Every `HUS_*` variable read anywhere in the source tree must be
/// registered in `hus_obs::env::KNOBS`, and every registered knob must
/// still be read somewhere (no stale docs).
#[test]
fn env_registry_is_complete_and_live() {
    let mut sources = Vec::new();
    collect_rs(&repo_root().join("crates"), &mut sources);
    collect_rs(&repo_root().join("src"), &mut sources);
    assert!(sources.len() > 20, "source scan looks broken: {} files", sources.len());

    let mut used = BTreeSet::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).unwrap();
        for name in hus_tokens(&text) {
            used.insert(name);
        }
    }
    let registered: BTreeSet<String> =
        husgraph::obs::env::KNOBS.iter().map(|k| k.name.to_string()).collect();

    let unregistered: Vec<_> = used.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "HUS_* variables read in source but missing from hus_obs::env::KNOBS: {unregistered:?}"
    );
    let stale: Vec<_> = registered.difference(&used).collect();
    assert!(
        stale.is_empty(),
        "knobs registered in hus_obs::env::KNOBS but never read in source: {stale:?}"
    );
    // Ratchet: the knob count only moves down, toward ROADMAP's <= 18.
    // A new knob has to retire an old one.
    assert!(registered.len() <= 20, "{} HUS_* knobs registered; the cap is 20", registered.len());
}

/// The `HUS_FAULT` example in the knob registry (and so the README)
/// must be a spec `FaultSpec::parse` accepts and that injects faults —
/// `from_env` drops a spec it rejects as a whole.
#[test]
fn documented_fault_example_parses() {
    let effect = husgraph::obs::env::knob("HUS_FAULT").unwrap().effect;
    let example = effect
        .split('`')
        .find(|s| s.starts_with("seed="))
        .expect("the HUS_FAULT entry lost its `seed=...` example");
    let spec = husgraph::storage::FaultSpec::parse(example)
        .unwrap_or_else(|e| panic!("documented HUS_FAULT example `{example}`: {e}"));
    assert!(spec.injects_faults(), "`{example}` injects nothing");
    assert!(spec.delay_p > 0.0, "`{example}` lost its latency spike");
}

/// The metric names in `docs/OBSERVABILITY.md`'s catalog tables (first
/// column, `{a,b}` groups expanded) are exactly the names registered
/// through `Lazy{Counter,Gauge,Histogram}::new("…")` in the source tree,
/// `test.*` names aside.
#[test]
fn observability_catalog_matches_registered_metrics() {
    let doc = read("docs/OBSERVABILITY.md");
    let start = doc.find("## Metric catalog").expect("OBSERVABILITY.md lost its catalog");
    let end = start + doc[start..].find("\n## ").expect("catalog is the last section");
    let mut documented = BTreeSet::new();
    for row in doc[start..end].lines().filter(|l| l.starts_with("| `")) {
        let first_cell = row.split(" | ").next().unwrap();
        for name in first_cell.split('`').skip(1).step_by(2) {
            documented.extend(expand_braces(name));
        }
    }

    let mut sources = Vec::new();
    collect_rs(&repo_root().join("crates"), &mut sources);
    collect_rs(&repo_root().join("src"), &mut sources);
    let mut registered = BTreeSet::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).unwrap();
        for kind in ["LazyCounter", "LazyGauge", "LazyHistogram"] {
            let call = format!("{kind}::new(\"");
            for (at, _) in text.match_indices(&call) {
                let rest = &text[at + call.len()..];
                let name = &rest[..rest.find('"').unwrap()];
                if !name.starts_with("test.") {
                    registered.insert(name.to_string());
                }
            }
        }
    }
    assert!(registered.len() > 50, "metric scan looks broken: {registered:?}");

    let undocumented: Vec<_> = registered.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&registered).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "docs/OBSERVABILITY.md's metric catalog is out of sync with the source.\n\
         registered but undocumented: {undocumented:?}\n\
         documented but never registered: {stale:?}"
    );
}

/// `a.{b,c}.d` → `a.b.d`, `a.c.d` (groups may repeat, not nest).
fn expand_braces(name: &str) -> Vec<String> {
    let Some(open) = name.find('{') else { return vec![name.to_string()] };
    let close = open + name[open..].find('}').expect("unclosed brace group");
    let (head, tail) = (&name[..open], &name[close + 1..]);
    name[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{alt}{tail}")))
        .collect()
}

/// `docs/FORMAT.md` states byte-level constants; they must equal the
/// source-of-truth values in `hus_core::meta` and
/// `hus_storage::checksum`.
#[test]
fn format_md_constants_match_source() {
    use husgraph::core::meta::{
        BITMAP_WORD_BYTES, FORMAT_VERSION, INDEX_ENTRY_BYTES, INDEX_PROBE_BYTES,
    };
    use husgraph::storage::checksum::{
        footer_len, FOOTER_FIXED_BYTES, FOOTER_MAGIC, FOOTER_VERSION,
    };

    use husgraph::codec::{CODEC_DELTA_VARINT, CODEC_RAW};

    let fmt = read("docs/FORMAT.md");
    for row in [
        format!("| `INDEX_ENTRY_BYTES` | {INDEX_ENTRY_BYTES} |"),
        format!("| `INDEX_PROBE_BYTES` | {INDEX_PROBE_BYTES} |"),
        format!("| `BITMAP_WORD_BYTES` | {BITMAP_WORD_BYTES} |"),
        format!("| `FORMAT_VERSION` | {FORMAT_VERSION} |"),
        format!("| `FOOTER_MAGIC` | `0x{FOOTER_MAGIC:08X}` |"),
        format!("| `FOOTER_VERSION` | {FOOTER_VERSION} |"),
        format!("| `FOOTER_FIXED_BYTES` | {FOOTER_FIXED_BYTES} |"),
        format!("| `CODEC_RAW` | {CODEC_RAW} |"),
        format!("| `CODEC_DELTA_VARINT` | {CODEC_DELTA_VARINT} |"),
    ] {
        assert!(fmt.contains(&row), "docs/FORMAT.md is missing or has a stale row: {row}");
    }

    // The wire ids documented in FORMAT.md are the codecs' self-reported
    // ids, and names round-trip through the meta.json representation.
    for codec in husgraph::codec::Codec::ALL {
        assert_eq!(codec, codec.name().parse().unwrap());
        assert_eq!(Some(codec), husgraph::codec::Codec::from_id(codec.id()));
        assert!(
            fmt.contains(codec.name()),
            "docs/FORMAT.md never mentions codec `{}`",
            codec.name()
        );
    }

    // The magic really is the bytes "HUSC", as the doc claims.
    assert_eq!(FOOTER_MAGIC.to_le_bytes(), *b"HUSC");
    // The documented size formula.
    for n in [0usize, 1, 8, 1000] {
        assert_eq!(footer_len(n), FOOTER_FIXED_BYTES + 4 * n as u64);
    }
    // The documented CRC-32C check values.
    assert_eq!(husgraph::storage::crc32c(b""), 0);
    assert_eq!(husgraph::storage::crc32c(b"123456789"), 0xE306_9283);
    assert!(fmt.contains("0xE3069283"), "FORMAT.md lost its CRC check value");

    // Record sizes as documented.
    let mut meta = sample_meta();
    assert_eq!(meta.edge_record_bytes(), 4);
    meta.weighted = true;
    assert_eq!(meta.edge_record_bytes(), 8);
}

/// Shard/index/degree file names used throughout FORMAT.md match the
/// naming functions.
#[test]
fn format_md_file_names_match_source() {
    use husgraph::core::meta::{GraphMeta, DEGREES_FILE, META_FILE};
    let fmt = read("docs/FORMAT.md");
    assert_eq!(GraphMeta::out_edges_file(3), "out_3.edges");
    assert_eq!(GraphMeta::out_index_file(3), "out_3.index");
    assert_eq!(GraphMeta::in_edges_file(5), "in_5.edges");
    assert_eq!(GraphMeta::in_index_file(5), "in_5.index");
    for name in [META_FILE, DEGREES_FILE, "out_<i>.edges", "out_<i>.index", "in_<j>.edges"] {
        assert!(fmt.contains(name), "docs/FORMAT.md never mentions `{name}`");
    }
}

/// The crash-consistency artifacts documented in FORMAT.md — the build
/// `MANIFEST` and the engine's checkpoint slots — must match the
/// source constants byte for byte.
#[test]
fn format_md_lifecycle_constants_match_source() {
    use husgraph::core::checkpoint::{CKPT_HEADER_BYTES, CKPT_MAGIC, CKPT_SLOTS, CKPT_VERSION};
    use husgraph::storage::manifest::{
        MANIFEST_FILE, MANIFEST_MAGIC, MANIFEST_VERSION, TRAILER_PREFIX,
    };

    let fmt = read("docs/FORMAT.md");
    for row in [
        format!("| `MANIFEST_VERSION` | {MANIFEST_VERSION} |"),
        format!("| `CKPT_MAGIC` | `0x{CKPT_MAGIC:08X}` |"),
        format!("| `CKPT_VERSION` | {CKPT_VERSION} |"),
        format!("| `CKPT_HEADER_BYTES` | {CKPT_HEADER_BYTES} |"),
    ] {
        assert!(fmt.contains(&row), "docs/FORMAT.md is missing or has a stale row: {row}");
    }

    // The magic really is the bytes "HUSK", as the doc claims, and the
    // documented file/line tokens are the source-of-truth values.
    assert_eq!(CKPT_MAGIC.to_le_bytes(), *b"HUSK");
    assert_eq!(MANIFEST_FILE, "MANIFEST");
    for token in [MANIFEST_FILE, MANIFEST_MAGIC, TRAILER_PREFIX, "progress.json"] {
        assert!(fmt.contains(token), "docs/FORMAT.md never mentions `{token}`");
    }
    for slot in CKPT_SLOTS {
        assert!(fmt.contains(slot), "docs/FORMAT.md never mentions checkpoint slot `{slot}`");
    }
    assert_eq!(husgraph::core::external::PROGRESS_FILE, "progress.json");
}

/// The delta-run wire format documented in FORMAT.md § "Delta runs"
/// must match `hus_storage::delta` byte for byte.
#[test]
fn format_md_delta_constants_match_source() {
    use husgraph::storage::delta::{
        parse_run_file, run_file, DELTA_DIR_ENTRY_BYTES, DELTA_HEADER_BYTES, DELTA_MAGIC,
        DELTA_RECORD_BYTES, DELTA_VERSION,
    };

    let fmt = read("docs/FORMAT.md");
    for row in [
        format!("| `DELTA_MAGIC` | `0x{DELTA_MAGIC:08X}` |"),
        format!("| `DELTA_VERSION` | {DELTA_VERSION} |"),
        format!("| `DELTA_HEADER_BYTES` | {DELTA_HEADER_BYTES} |"),
        format!("| `DELTA_DIR_ENTRY_BYTES` | {DELTA_DIR_ENTRY_BYTES} |"),
        format!("| `DELTA_RECORD_BYTES` | {DELTA_RECORD_BYTES} |"),
    ] {
        assert!(fmt.contains(&row), "docs/FORMAT.md is missing or has a stale row: {row}");
    }

    // The magic really is the bytes "HUSD", as the doc claims, and the
    // documented naming scheme is the source-of-truth function.
    assert_eq!(DELTA_MAGIC.to_le_bytes(), *b"HUSD");
    assert_eq!(run_file(1), "delta_000001.run");
    assert_eq!(parse_run_file("delta_000001.run"), Some(1));
    for name in ["delta_<seq>.run", "delta_000001.run", ".run.tmp"] {
        assert!(fmt.contains(name), "docs/FORMAT.md never mentions `{name}`");
    }

    // The layout arithmetic the doc states: header + directory +
    // records + trailer is the whole file.
    let mut run = husgraph::storage::delta::DeltaRun::new(1, 2);
    run.push(0, 1, husgraph::storage::delta::DeltaRecord::insert(0, 3, 1.0));
    run.push(1, 0, husgraph::storage::delta::DeltaRecord::tombstone(2, 1));
    let bytes = run.encode().unwrap();
    assert_eq!(
        bytes.len() as u64,
        DELTA_HEADER_BYTES + 2 * DELTA_DIR_ENTRY_BYTES + 2 * DELTA_RECORD_BYTES + 4
    );

    // MANIFEST `run` lines are documented with the keyword the parser
    // accepts.
    assert!(fmt.contains("run delta_000001.run 96 crc32c:0153CF10"));
}

/// `run_experiments.sh` regenerates every experiment binary (all of
/// `crates/bench/src/bin` except the interactive `debug_profile`), and
/// every `--bin <name>` the docs tell a reader to run names a binary that
/// exists (`src/bin` or `crates/bench/src/bin`).
#[test]
fn experiment_binaries_match_script_and_docs() {
    let experiments = bin_names("crates/bench/src/bin");
    let script = read("run_experiments.sh");
    let line = script
        .lines()
        .find_map(|l| l.strip_prefix("BINS="))
        .expect("run_experiments.sh lost its BINS= line");
    let listed: BTreeSet<String> =
        line.trim_matches('"').split_whitespace().map(String::from).collect();
    let mut expected = experiments.clone();
    expected.remove("debug_profile");
    assert_eq!(listed, expected, "run_experiments.sh BINS differs from crates/bench/src/bin");

    let mut known = experiments;
    known.extend(bin_names("src/bin"));
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = read(doc);
        for (at, flag) in text.match_indices("--bin ") {
            let name: String = text[at + flag.len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            assert!(known.contains(&name), "{doc} runs `--bin {name}`, which is not a binary");
        }
    }
}

/// File stems of the `.rs` files directly under a binary directory.
fn bin_names(rel: &str) -> BTreeSet<String> {
    std::fs::read_dir(repo_root().join(rel))
        .unwrap_or_else(|e| panic!("reading {rel}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

fn sample_meta() -> husgraph::core::GraphMeta {
    husgraph::core::GraphMeta {
        format: husgraph::core::meta::FORMAT_VERSION,
        num_vertices: 2,
        num_edges: 1,
        p: 1,
        weighted: false,
        checksums: true,
        codec: "raw".into(),
        interval_starts: vec![0, 2],
        out_blocks: vec![Default::default()],
        in_blocks: vec![Default::default()],
    }
}

/// Recursively gather `.rs` files (skipping `target/`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extract `HUS_[A-Z0-9_]+` tokens from source text.
fn hus_tokens(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find("HUS_") {
        let start = i + pos;
        // Skip matches embedded in longer identifiers (e.g. `X_HUS_Y`).
        let standalone =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let mut end = start + 4;
        while end < bytes.len() && (bytes[end].is_ascii_uppercase() || bytes[end] == b'_') {
            end += 1;
        }
        if standalone && end > start + 4 {
            out.push(text[start..end].trim_end_matches('_').to_string());
        }
        i = end;
    }
    out
}
