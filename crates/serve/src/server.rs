//! The daemon: listener, bounded accept queue, worker pool, snapshot
//! refresher, signal handling, and graceful drain.
//!
//! Thread layout (all plain `std::thread`, matching the OpenMetrics
//! exporter's style — no async runtime):
//!
//! ```text
//! accept ──try_push──▶ BoundedQueue ──pop──▶ worker × N
//!    │ (full → busy + close)                    │ per query: Admission slot,
//!    │                                          │ ByteMeter, exec::execute
//!    └── polls stop flag + SIGINT/SIGTERM       ▼
//! refresher: polls MANIFEST generation, swaps GraphSnapshot
//! ```
//!
//! Shutdown — whether from [`Server::shutdown`], a `shutdown` wire op,
//! or a signal — follows one path: set the stop flag, let the accept
//! loop exit and close the queue, let workers drain queued connections
//! and finish their in-flight queries, join every thread, then shut
//! down the process-global metrics exporter via
//! [`hus_obs::export::shutdown_exporter`] so nothing is leaked.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hus_storage::{Result, StorageDir};

use crate::admission::{Admission, BoundedQueue, ByteMeter};
use crate::protocol::{error_response, parse_request, Op, ResponseBuilder, MAX_LINE_BYTES};
use crate::snapshot::SnapshotManager;
use crate::{exec, ServeConfig, ServeError};

static QUERIES_TOTAL: hus_obs::LazyCounter = hus_obs::LazyCounter::new("serve.queries");
static LOOKUP_LATENCY: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("serve.latency_lookup_ns");
static ANALYTICS_LATENCY: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("serve.latency_analytics_ns");
/// Query-worker panics contained by `catch_unwind` (the daemon stayed
/// up and the client got a typed `internal` error).
static WORKER_PANICS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("serve.worker_panics");
/// Connections closed for sitting idle past `HUS_SERVE_IDLE_MS`.
static IDLE_REAPED: hus_obs::LazyCounter = hus_obs::LazyCounter::new("serve.idle_reaped");

/// Set by the SIGINT/SIGTERM handler; polled by the accept loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Async-signal-safe by construction: the handler only stores to a
    // static atomic. Raw libc `signal` via FFI keeps the crate std-only.
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// A running serve daemon. Dropping without calling
/// [`Server::shutdown`] still drains and joins every thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    mgr: Arc<SnapshotManager>,
    queue: Arc<BoundedQueue<TcpStream>>,
    accept_thread: Option<JoinHandle<()>>,
    refresh_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Start serving the graph under `dir` per `config`. Installs
/// SIGINT/SIGTERM handlers so a signal triggers the same graceful
/// drain as a `shutdown` wire op.
pub fn serve(dir: StorageDir, config: ServeConfig) -> Result<Server> {
    install_signal_handlers();
    SIGNALLED.store(false, Ordering::SeqCst);
    let mgr = Arc::new(SnapshotManager::open(dir)?);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let stop = Arc::new(AtomicBool::new(false));
    let admission = Arc::new(Admission::new(config.max_inflight));
    let queue = Arc::new(BoundedQueue::new(config.accept_queue));

    // Workers: enough to keep every admission slot busy plus headroom
    // for connections that only carry admin ops.
    let worker_count = (config.max_inflight + 2).max(4);
    let mut workers = Vec::with_capacity(worker_count);
    for _ in 0..worker_count {
        let queue = Arc::clone(&queue);
        let mgr = Arc::clone(&mgr);
        let admission = Arc::clone(&admission);
        let stop = Arc::clone(&stop);
        let config = config.clone();
        workers.push(std::thread::spawn(move || {
            while let Some(stream) = queue.pop() {
                // Outer containment: even a panic that escapes the
                // per-query `catch_unwind` in `handle_line` (e.g. from
                // connection plumbing) must not kill the worker — the
                // pool is fixed-size, so a dead worker would shrink
                // serving capacity for the daemon's whole lifetime.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(stream, &mgr, &admission, &stop, &config);
                }));
                if caught.is_err() {
                    WORKER_PANICS.incr();
                }
            }
        }));
    }

    let accept_thread = {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        Some(std::thread::spawn(move || {
            loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if SIGNALLED.load(Ordering::SeqCst) {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if let Err(mut shed) = queue.try_push(stream) {
                            // Accept queue full: shed the connection
                            // with a busy line instead of queueing
                            // latency we can't serve.
                            let mut busy = error_response(None, &ServeError::Overloaded);
                            busy.push('\n');
                            let _ = shed.write_all(busy.as_bytes());
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => break,
                }
            }
            // No new connections past this point; let workers drain
            // what's queued, then exit on the closed queue.
            queue.close();
        }))
    };

    let refresh_thread = {
        let mgr = Arc::clone(&mgr);
        let stop = Arc::clone(&stop);
        let interval = Duration::from_millis(config.refresh_interval_ms.max(10));
        Some(std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                // A refresh failure (e.g. mid-swap manifest) is retried
                // on the next tick; the old snapshot stays pinned.
                let _ = mgr.refresh();
                std::thread::sleep(interval);
            }
        }))
    };

    Ok(Server { addr, stop, mgr, queue, accept_thread, refresh_thread, workers })
}

impl Server {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The snapshot manager (for status inspection in tests).
    pub fn snapshots(&self) -> &SnapshotManager {
        &self.mgr
    }

    /// Whether shutdown has been requested (flag, signal, or wire op).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Block until shutdown is requested, then drain and join all
    /// threads. Returns once the last in-flight query has finished.
    pub fn wait(&mut self) {
        while !self.stop.load(Ordering::SeqCst) && !SIGNALLED.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join_all();
    }

    /// Request shutdown and drain: stop accepting, serve what's queued,
    /// finish in-flight queries, join every thread, and shut down the
    /// global metrics exporter.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.join_all();
    }

    fn join_all(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept thread closes the queue on exit, but close again
        // in case it was never spawned to completion.
        self.queue.close();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.refresh_thread.take() {
            let _ = t.join();
        }
        // Same shutdown path for the metrics exporter the daemon
        // started via `hus_obs::init_from_env` — don't leak its thread.
        hus_obs::export::shutdown_exporter();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one connection: read request lines until EOF, stop, or a
/// fatal stream error; answer each with exactly one response line.
///
/// Every complete line buffered is answered in order, each reply and
/// its `\n` in one write, so a request costs one segment each way. The
/// input buffer lives as long as the connection.
fn handle_connection(
    mut stream: TcpStream,
    mgr: &SnapshotManager,
    admission: &Admission,
    stop: &Arc<AtomicBool>,
    config: &ServeConfig,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // A stalled *reader* must not hold a worker either: bound how long
    // a response write may block before the connection is dropped.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let mut input = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = std::time::Instant::now();
    // `input[..scanned]` holds no `\n` past the last served line.
    let mut scanned = 0;
    loop {
        let mut served = 0;
        while let Some(at) = input[scanned..].iter().position(|&b| b == b'\n') {
            let (start, end) = (served, scanned + at);
            served = end + 1;
            scanned = served;
            if end - start > MAX_LINE_BYTES {
                return reject_overlong(stream, stop);
            }
            let line = String::from_utf8_lossy(&input[start..end]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut response = handle_line(line, mgr, admission, stop, config);
            response.push('\n');
            if stream.write_all(response.as_bytes()).is_err() {
                return;
            }
        }
        input.drain(..served);
        scanned = input.len();
        if input.len() > MAX_LINE_BYTES {
            return reject_overlong(stream, stop);
        }
        if stop.load(Ordering::SeqCst) {
            // Drain policy: finish answering what was already buffered
            // (done above), then close.
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                input.extend_from_slice(&chunk[..n]);
                last_activity = std::time::Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle poll: re-check the stop flag, and reap the
                // connection once it has sat silent past the idle
                // budget — a worker is too scarce to park on a client
                // that stopped talking.
                if config.idle_ms > 0
                    && last_activity.elapsed() >= Duration::from_millis(config.idle_ms)
                {
                    IDLE_REAPED.incr();
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Answer a request line longer than [`MAX_LINE_BYTES`] with one
/// `bad_request` line and close.
///
/// The write half is shut first and what the client is still sending
/// is read and dropped for at most 500 ms in all, or until `stop`:
/// closing with unread input would reset the connection and could
/// destroy the reply in flight.
fn reject_overlong(mut stream: TcpStream, stop: &AtomicBool) {
    let err = ServeError::BadRequest(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
    let mut reply = error_response(None, &err);
    reply.push('\n');
    if stream.write_all(reply.as_bytes()).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let until = std::time::Instant::now() + Duration::from_millis(500);
    let mut sink = [0u8; 4096];
    while !stop.load(Ordering::SeqCst) {
        let left = until.saturating_duration_since(std::time::Instant::now());
        if left.is_zero()
            || stream.set_read_timeout(Some(left)).is_err()
            || !matches!(stream.read(&mut sink), Ok(n) if n > 0)
        {
            return;
        }
    }
}

/// Execute one request line and render its response line.
fn handle_line(
    line: &str,
    mgr: &SnapshotManager,
    admission: &Admission,
    stop: &Arc<AtomicBool>,
    config: &ServeConfig,
) -> String {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(e) => return error_response(None, &e),
    };
    QUERIES_TOTAL.incr();
    let snap = mgr.current();
    match req.op {
        // Admin ops bypass admission so the server stays
        // introspectable and stoppable under overload.
        Op::Status => ResponseBuilder::ok(req.id, snap.generation())
            .u64("runs", snap.runs() as u64)
            .u64("active", admission.active() as u64)
            .u64("capacity", admission.capacity() as u64)
            .u64("max_inflight", config.max_inflight as u64)
            .u64("byte_budget", config.byte_budget)
            .u64("num_vertices", u64::from(snap.graph().meta().num_vertices))
            .u64("num_edges", snap.graph().num_edges())
            .render(),
        Op::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            ResponseBuilder::ok(req.id, snap.generation()).u64("draining", 1).render()
        }
        ref op => {
            // Chaos ops exist only for the fault harness; a server not
            // built with `chaos_ops` treats them as unknown requests.
            if matches!(op, Op::ChaosPanic | Op::ChaosSleep { .. }) && !config.chaos_ops {
                return error_response(
                    req.id,
                    &ServeError::BadRequest("chaos ops are not enabled on this server".into()),
                );
            }
            let Some(_slot) = admission.try_acquire() else {
                return error_response(req.id, &ServeError::Overloaded);
            };
            let timer = hus_obs::latency_timer();
            let deadline = hus_core::Deadline::after_ms(config.deadline_ms);
            let mut meter = ByteMeter::new(config.byte_budget);
            let resp = ResponseBuilder::ok(req.id, snap.generation());
            // The slot guard is held *outside* `catch_unwind`: if the
            // query panics, unwinding drops `_slot` and gives the slot
            // back before we build the error line — the daemon keeps
            // its full capacity no matter how the query died.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec::execute(&snap, op, &mut meter, config.query_threads, deadline.as_ref(), resp)
            }));
            let hist = if op.is_analytics() { &ANALYTICS_LATENCY } else { &LOOKUP_LATENCY };
            hist.record_elapsed(timer);
            match caught {
                Ok(Ok(resp)) => resp.u64("bytes", meter.spent()).render(),
                Ok(Err(e)) => error_response(req.id, &e),
                Err(payload) => {
                    WORKER_PANICS.incr();
                    error_response(req.id, &ServeError::Panicked(panic_message(&*payload)))
                }
            }
        }
    }
}

/// Best-effort human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hus_core::{BuildConfig, HusGraph};
    use serde::Value;

    fn value_line(fields: Vec<(&str, u64)>) -> String {
        let mut all: Vec<(String, Value)> =
            fields.into_iter().map(|(k, v)| (k.to_string(), Value::U64(v))).collect();
        all.insert(1, ("ok".to_string(), Value::Bool(true)));
        serde_json::to_string(&Value::Object(all)).unwrap()
    }

    /// The admin replies, rendered directly, equal what the `Value`
    /// renderer makes of the same fields.
    #[test]
    fn status_and_shutdown_lines_match_the_value_renderer() {
        let tmp = tempfile::tempdir().unwrap();
        let el = hus_gen::rmat(100, 600, 11, Default::default());
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        let mgr = SnapshotManager::open(dir).unwrap();
        let snap = mgr.current();
        let admission = Admission::new(3);
        let stop = Arc::new(AtomicBool::new(false));
        let config =
            ServeConfig { max_inflight: 3, byte_budget: 1 << 40, ..ServeConfig::default() };
        let answer = |line: &str| handle_line(line, &mgr, &admission, &stop, &config);

        let status = value_line(vec![
            ("id", u64::MAX),
            ("generation", snap.generation()),
            ("runs", 0),
            ("active", 0),
            ("capacity", 3),
            ("max_inflight", 3),
            ("byte_budget", 1 << 40),
            ("num_vertices", 100),
            ("num_edges", snap.graph().num_edges()),
        ]);
        assert_eq!(answer(&format!(r#"{{"id":{},"op":"status"}}"#, u64::MAX)), status);
        assert!(!stop.load(Ordering::SeqCst));

        let shutdown =
            value_line(vec![("id", 0), ("generation", snap.generation()), ("draining", 1)]);
        assert_eq!(answer(r#"{"id":0,"op":"shutdown"}"#), shutdown);
        assert!(stop.load(Ordering::SeqCst));
    }

    /// A drain does not wait out the linger of an overlong-line
    /// rejection, even while the client keeps sending.
    #[test]
    fn a_drain_cuts_a_lingering_rejection_short() {
        use std::io::{BufRead, BufReader};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let lingering = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || reject_overlong(server_side, &stop))
        };
        // The reply is written before the linger starts.
        let mut reply = String::new();
        BufReader::new(client.try_clone().unwrap()).read_line(&mut reply).unwrap();
        assert!(reply.contains("request line exceeds 65536 bytes"), "{reply}");
        let mut sender = client;
        let streaming = std::thread::spawn(move || {
            while sender.write_all(&[b'x'; 1024]).is_ok() {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Left alone, the linger would run its full 500 ms.
        stop.store(true, Ordering::SeqCst);
        let drained = std::time::Instant::now();
        lingering.join().unwrap();
        let took = drained.elapsed();
        streaming.join().unwrap();
        assert!(took < Duration::from_millis(400), "linger outlived the drain by {took:?}");
    }
}
