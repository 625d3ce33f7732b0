//! Central registry of the workspace's `HUS_*` environment knobs.
//!
//! Every crate that reads an environment variable registers it here, so
//! there is exactly one place that knows the full set, its defaults and
//! its semantics. The README's "Environment knobs" table is generated
//! from this registry by [`markdown_table`] and kept in sync by the
//! `docs_sync` integration test — edit this file, then paste the
//! regenerated table between the README's `env-table` markers (the test
//! prints the expected text on mismatch).
//!
//! Knobs are read through [`flag`] and [`parse`], so every knob accepts
//! the same spellings and a malformed value is reported, not silently
//! read as something else.

/// One documented environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvKnob {
    /// Variable name, e.g. `HUS_TRACE`.
    pub name: &'static str,
    /// Rendered default (`unset` when absence is meaningful).
    pub default: &'static str,
    /// One-line effect description (markdown allowed).
    pub effect: &'static str,
}

/// Every `HUS_*` environment variable the workspace reads, sorted by
/// name. The `docs_sync` integration test greps the source tree and
/// fails if a variable is read but not registered here (or vice versa).
pub const KNOBS: &[EnvKnob] = &[
    EnvKnob {
        name: "HUS_BACKEND",
        default: "`file`",
        effect: "storage read backend for graphs opened without an explicit choice: \
                 `file` (buffered `pread`), `mmap` (copies out of a whole-file heap \
                 copy made at open: contents frozen at open, every opened shard \
                 resident) or `direct` (`O_DIRECT`, pooled aligned buffers; degrades \
                 to `file` on filesystems that refuse `O_DIRECT`, e.g. tmpfs — see \
                 `DESIGN.md` §6, piece 5)",
    },
    EnvKnob {
        name: "HUS_CKPT",
        default: "`0`",
        effect: "checkpoint the full iteration state (vertex values + frontier) into \
                 the run's scratch directory every this many iterations; a rerun with \
                 the same scratch resumes bit-identically (`0` disables; see \
                 `DESIGN.md` §10)",
    },
    EnvKnob {
        name: "HUS_CODEC",
        default: "`raw`",
        effect: "per-block edge codec for `hus build` and the builder APIs: `raw` \
                 (bit-compatible with pre-codec graphs) or `delta-varint` \
                 (delta + LEB128 varint of the non-indexed endpoint; see \
                 `docs/FORMAT.md`). Readers auto-detect from `meta.json`",
    },
    EnvKnob {
        name: "HUS_CRASH_AT",
        default: "unset",
        effect: "recovery-test hook: `<point>` (or `<point>:<n>` for the n-th hit) \
                 kills the process with exit code 86 at that named staged-write \
                 point, simulating a power cut (see `DESIGN.md` §10; never set in \
                 production)",
    },
    EnvKnob {
        name: "HUS_FAULT",
        default: "unset",
        effect: "storage fault injection for resilience testing, e.g. \
                 `seed=7,eio=0.01,short=0.005,flip=0.001,delay_p=0.01,delay_ms=2` \
                 (probabilities per read op) plus the write-path kinds \
                 `enospc`, `shortw`, `torn` and `fsync_fail` (probabilities per \
                 durable write; a fired write fault rolls the store back to the \
                 prior generation and enters degraded mode — see `docs/FORMAT.md` \
                 and `DESIGN.md` §9)",
    },
    EnvKnob {
        name: "HUS_HEATMAP",
        default: "unset",
        effect: "`1` enables per-block I/O attribution: raw/encoded/decoded bytes, \
                 cache hits/misses, decode time and retries per `(i, j)` edge \
                 block, rendered by `hus audit`, `hus top`, \
                 `debug_profile` and the `/metrics` exporter (see \
                 `docs/OBSERVABILITY.md`)",
    },
    EnvKnob {
        name: "HUS_MEMTABLE_BYTES",
        default: "`67108864`",
        effect: "byte budget of the dynamic-graph write buffer; crossing it spills \
                 the buffered edge updates to an on-disk delta run \
                 (`delta_<seq>.run`, listed in `MANIFEST`; see `docs/FORMAT.md` and \
                 `DESIGN.md` §11)",
    },
    EnvKnob {
        name: "HUS_METRICS_ADDR",
        default: "unset",
        effect: "`host:port` (e.g. `127.0.0.1:9464`) starts the dependency-free \
                 OpenMetrics/Prometheus exporter serving `/metrics` and `/healthz` \
                 from the live registry; setting it also enables metric collection \
                 (see `docs/OBSERVABILITY.md`)",
    },
    EnvKnob {
        name: "HUS_NO_FSYNC",
        default: "unset",
        effect: "`1` disables every fsync in the builders, staging commits and \
                 checkpoint writer — trades crash durability for speed (test \
                 suites); the write *ordering* is unchanged",
    },
    EnvKnob {
        name: "HUS_P",
        default: "`8`",
        effect: "partition/interval count for all systems (experiment binaries)",
    },
    EnvKnob {
        name: "HUS_PROBE",
        default: "unset",
        effect: "`1` measures the host's real `T_sequential`/`T_random` once with the \
                 built-in fio-style probe (same measurement as `hus probe`) and feeds \
                 them to the hybrid predictor instead of the device preset",
    },
    EnvKnob {
        name: "HUS_QUERY_BYTE_BUDGET",
        default: "`0`",
        effect: "per-query I/O byte budget of `hus serve`: point lookups are metered \
                 per fetch and full analytics are charged a pre-flight whole-scan \
                 estimate; crossing the budget rejects the query with a typed \
                 `budget` error (`0` = unlimited; see `DESIGN.md` §12)",
    },
    EnvKnob {
        name: "HUS_QUERY_DEADLINE_MS",
        default: "`0`",
        effect: "per-query wall-clock deadline of `hus serve` in milliseconds, \
                 enforced cooperatively at block boundaries in the COP/ROP loops; \
                 a crossed deadline aborts the query with a typed `deadline` error \
                 (`0` = unlimited; CLI override `--deadline-ms`; see `DESIGN.md` \
                 §12)",
    },
    EnvKnob {
        name: "HUS_SCALE",
        default: "`1000`",
        effect: "divides the paper's dataset sizes (smaller = bigger graphs)",
    },
    EnvKnob {
        name: "HUS_SERVE_ADDR",
        default: "`127.0.0.1:7464`",
        effect: "listen address of the `hus serve` query daemon (`host:port`; port \
                 `0` binds an ephemeral port, printed on startup)",
    },
    EnvKnob {
        name: "HUS_SERVE_IDLE_MS",
        default: "`30000`",
        effect: "reap a `hus serve` connection that has been idle (no complete \
                 request line) for this many milliseconds so a stalled or silent \
                 client can never hold a worker indefinitely (`0` = never; CLI \
                 override `--idle-ms`)",
    },
    EnvKnob {
        name: "HUS_SERVE_MAX_INFLIGHT",
        default: "`8`",
        effect: "max concurrently executing queries in `hus serve`; excess requests \
                 are rejected immediately with a `busy` error (the HTTP-429 \
                 analogue) instead of queueing unbounded latency (see `DESIGN.md` \
                 §12)",
    },
    EnvKnob {
        name: "HUS_THREADS",
        default: "`16`",
        effect: "worker threads (the paper machine's core count; experiment binaries)",
    },
    EnvKnob {
        name: "HUS_TRACE",
        default: "unset",
        effect: "`path.jsonl` enables observability and streams span/iteration/run \
                 records there (see `DESIGN.md` §8)",
    },
    EnvKnob {
        name: "HUS_VERIFY",
        default: "unset",
        effect: "`1` verifies per-block CRC-32C checksums on every full-block read, \
                 surfacing on-disk corruption as a typed error naming the exact block \
                 (see `docs/FORMAT.md`)",
    },
];

/// Look up a knob by variable name.
pub fn knob(name: &str) -> Option<&'static EnvKnob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// Read the boolean knob `name`: `1`/`true`/`yes`/`on` enable it,
/// `0`/`false`/`no`/`off` and the empty string disable it (any case),
/// and unset means `default`. Any other value is reported on stderr and
/// means `default`.
pub fn flag(name: &'static str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(raw) => flag_value(name, &raw, default),
        Err(_) => default,
    }
}

/// Read the knob `name` as a `T`; unset or empty means `default`. A
/// value that does not parse is reported on stderr and means `default`.
pub fn parse<T: std::str::FromStr + std::fmt::Display>(name: &'static str, default: T) -> T {
    match std::env::var(name) {
        Ok(raw) if !raw.is_empty() => parse_value(name, &raw, default),
        _ => default,
    }
}

fn flag_value(name: &'static str, raw: &str, default: bool) -> bool {
    match raw.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => true,
        "0" | "false" | "no" | "off" | "" => false,
        _ => malformed(name, raw, default),
    }
}

fn parse_value<T: std::str::FromStr + std::fmt::Display>(
    name: &'static str,
    raw: &str,
    default: T,
) -> T {
    raw.parse().unwrap_or_else(|_| malformed(name, raw, default))
}

/// Report a malformed value — once per knob, since some knobs are read
/// per run — and fall back to `default`.
fn malformed<T: std::fmt::Display>(name: &'static str, raw: &str, default: T) -> T {
    static WARNED: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if !warned.contains(&name) {
        warned.push(name);
        eprintln!("warning: ignoring malformed {name}={raw:?}; using {default}");
    }
    default
}

/// Render the registry as the README's markdown table (header + one row
/// per knob, sorted by name).
pub fn markdown_table() -> String {
    let mut out = String::from("| variable | default | effect |\n|---|---|---|\n");
    for k in KNOBS {
        out.push_str(&format!("| `{}` | {} | {} |\n", k.name, k.default, k.effect));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_are_sorted_and_unique() {
        for pair in KNOBS.windows(2) {
            assert!(pair[0].name < pair[1].name, "{} vs {}", pair[0].name, pair[1].name);
        }
    }

    #[test]
    fn every_knob_is_namespaced() {
        for k in KNOBS {
            assert!(k.name.starts_with("HUS_"), "{}", k.name);
            assert!(!k.effect.is_empty());
            assert!(!k.default.is_empty());
        }
    }

    #[test]
    fn lookup_finds_registered_names() {
        assert!(knob("HUS_TRACE").is_some());
        assert!(knob("NOT_A_REGISTERED_KNOB").is_none());
    }

    #[test]
    fn flags_accept_the_usual_spellings_in_any_case() {
        for raw in ["1", "true", "TRUE", "Yes", "on", "ON"] {
            assert!(flag_value("TEST_FLAG", raw, false), "{raw:?}");
        }
        for raw in ["0", "false", "False", "no", "NO", "off", ""] {
            assert!(!flag_value("TEST_FLAG", raw, true), "{raw:?}");
        }
    }

    #[test]
    fn malformed_values_fall_back_to_the_default() {
        for default in [false, true] {
            for raw in ["2", "enable", "y", " 1"] {
                assert_eq!(flag_value("TEST_FLAG", raw, default), default, "{raw:?}");
            }
        }
        assert_eq!(parse_value("TEST_NUM", "5s", 7u64), 7);
        assert_eq!(parse_value("TEST_NUM", "abc", 0usize), 0);
        assert_eq!(parse_value("TEST_NUM", "-1", 3u64), 3);
        assert_eq!(parse_value("TEST_NUM", "250", 0u64), 250);
        assert_eq!(parse_value("TEST_NUM", "2.5", 1.0f64), 2.5);
    }

    #[test]
    fn unset_knobs_read_as_the_default() {
        let unset = "TEST_KNOB_NEVER_SET";
        assert!(std::env::var(unset).is_err());
        assert!(flag(unset, true));
        assert!(!flag(unset, false));
        assert_eq!(parse(unset, 42u32), 42);
    }

    #[test]
    fn table_has_one_row_per_knob() {
        let t = markdown_table();
        assert_eq!(t.lines().count(), 2 + KNOBS.len());
        for k in KNOBS {
            assert!(t.contains(&format!("| `{}` |", k.name)));
        }
    }
}
