//! The benchmark's own spans: one around each call into a layer.
//!
//! Spans are recorded only while tracing is switched on (the traced
//! samples of a `--trace 1` run), buffered per thread, and written as
//! JSON lines when the run child exits. A span's self time is its
//! duration minus the time its direct children cover. `ops` lets one
//! span stand for a batch of calls that are individually too short to
//! time (a 40 ns admission check), so per-call cost is `dur / ops`.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span on the same thread; 0 = none.
    pub parent: u32,
    pub sample_id: u32,
    pub ops: u64,
    pub self_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SAMPLE: AtomicU32 = AtomicU32::new(0);
static FLUSHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static DONE: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switch span recording on or off.
pub fn set_on(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Spans opened from now on belong to sample `id`.
pub fn set_sample(id: u32) {
    SAMPLE.store(id, Ordering::Relaxed);
}

pub struct Guard(Option<(u32, &'static str, u64, u64)>);

/// Open a span for one call.
pub fn span(name: &'static str) -> Guard {
    span_ops(name, 1)
}

/// Open a span standing for `ops` calls.
pub fn span_ops(name: &'static str, ops: u64) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|o| o.borrow_mut().push(id));
    Guard(Some((id, name, ops, now_ns())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, name, ops, start_ns)) = self.0.take() else { return };
        let end_ns = now_ns();
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            o.pop();
            o.last().copied().unwrap_or(0)
        });
        let sample_id = SAMPLE.load(Ordering::Relaxed);
        DONE.with(|d| {
            d.borrow_mut().push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                sample_id,
                ops,
                self_ns: 0,
            })
        });
    }
}

/// Hand the calling thread's finished spans to the process-wide list.
/// Threads other than the one that calls [`finish`] call this before
/// they end.
pub fn flush_thread() {
    let mut spans = DONE.with(|d| std::mem::take(&mut *d.borrow_mut()));
    if !spans.is_empty() {
        FLUSHED.lock().expect("span list poisoned").append(&mut spans);
    }
}

/// Collect every span, fill in self times, and write them to `path` as
/// JSON lines.
pub fn finish(path: &Path) -> std::io::Result<Vec<Span>> {
    flush_thread();
    let mut spans = std::mem::take(&mut *FLUSHED.lock().expect("span list poisoned"));
    spans.sort_by_key(|s| s.id);
    let mut child_ns = std::collections::HashMap::new();
    for s in &spans {
        *child_ns.entry(s.parent).or_insert(0u64) += s.end_ns - s.start_ns;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &mut spans {
        let dur = s.end_ns - s.start_ns;
        s.self_ns = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"sample_id\":{},\"ops\":{},\"self_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.sample_id, s.ops, s.self_ns
        )?;
    }
    out.flush()?;
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sample_ids_and_self_time() {
        set_on(true);
        set_sample(7);
        {
            let _outer = span("t.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span_ops("t.inner", 10);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_on(false);
        drop(span("t.off"));
        let path =
            std::env::temp_dir().join(format!("husbench_trace_{}.jsonl", std::process::id()));
        let spans = finish(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let outer = spans.iter().find(|s| s.name == "t.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "t.inner").unwrap();
        assert!(spans.iter().all(|s| s.name != "t.off"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!((outer.parent, outer.sample_id), (0, 7));
        assert_eq!(
            outer.self_ns,
            (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
        );
        assert_eq!(inner.self_ns, inner.end_ns - inner.start_ns);
        assert_eq!(inner.ops, 10);
        assert_eq!(text.lines().count(), spans.len());
        assert!(text.contains("\"name\":\"t.inner\"") && text.contains("\"self_ns\":"));
    }
}
