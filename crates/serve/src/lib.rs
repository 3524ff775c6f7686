//! `polar serve`: a fault-isolated persistent rescoring service.
//!
//! Batch mode ([`polar_gb::BatchEngine`]) amortizes plan building across
//! one manifest; this crate keeps the same plan cache and scratch arenas
//! warm across *connections* — the docking-funnel deployment where
//! rescoring requests trickle in from many clients and the same receptor
//! geometries recur for hours. One [`polar_gb::ServeEngine`] is shared
//! by every worker thread behind a robustness envelope:
//!
//! * **Admission control** — a bounded queue (depth and in-flight
//!   bytes). Over either limit, requests are *shed* with a typed
//!   response carrying a `retry_after_ms` hint instead of queueing
//!   without bound.
//! * **Deadlines** — per-request budgets enforced cooperatively at the
//!   queue, plan and execute phase boundaries (never mid-kernel).
//! * **Fault isolation** — a panicking job is contained by
//!   `catch_unwind`, its plan-cache key is evicted (the entry could be
//!   torn), the client gets a typed `panicked` response, and the server
//!   keeps serving.
//! * **Tenant quotas** — per-tenant cache-byte budgets: a tenant that
//!   floods the cache evicts its *own* least-recently-used plans, never
//!   a neighbor's.
//! * **Graceful drain** — on `{"cmd":"drain"}` (or
//!   [`ServerHandle::drain`]) the server stops admitting, finishes or
//!   deadline-outs in-flight work, and answers with the final
//!   [`ServeReport`] whose counters reconcile:
//!   `admitted == completed + shed + deadline_exceeded + panicked + failed`.
//!
//! The wire protocol is line-delimited JSON over TCP, one request per
//! line, one response per request ([`wire`] documents the response
//! schema; [`polar_molecule::request`] documents the request schema).

mod wire;

use polar_gb::{BatchJob, GbParams, RescoreError, ServeEngine, ServeReport};
use polar_molecule::request::{parse_request, Control, ServeRequest};
use polar_molecule::{manifest::JobSource, ServeJob};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs; [`ServeConfig::default`] matches the CLI
/// defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads executing rescores.
    pub workers: usize,
    /// Admission queue depth bound; requests past it are shed.
    pub queue_depth: usize,
    /// Bound on the summed byte size of queued requests.
    pub max_inflight_bytes: usize,
    /// Default per-request deadline applied when the request carries
    /// none; `None` means no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Plan-cache capacity in bytes.
    pub cache_bytes: usize,
    /// Per-tenant cache-byte quota; `None` disables quotas.
    pub tenant_quota_bytes: Option<usize>,
    /// How long a drain waits for queued work before shedding it.
    pub drain_timeout: Duration,
    /// Largest accepted request line, bytes.
    pub max_request_bytes: usize,
    /// Largest accepted molecule, atoms.
    pub max_atoms: usize,
    /// Directory anchoring relative `"file"` job sources.
    pub base_dir: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            max_inflight_bytes: 8 << 20,
            default_deadline_ms: None,
            cache_bytes: 256 << 20,
            tenant_quota_bytes: None,
            drain_timeout: Duration::from_secs(10),
            max_request_bytes: 1 << 20,
            max_atoms: 200_000,
            base_dir: PathBuf::from("."),
        }
    }
}

/// One admitted request waiting for (or holding) a worker.
struct Queued {
    job: ServeJob,
    /// Byte size of the request line (in-flight byte accounting).
    bytes: usize,
    /// When the line was read; latency is measured from here.
    received_at: Instant,
    /// Absolute deadline, if any.
    deadline: Option<Instant>,
    writer: Arc<Mutex<TcpStream>>,
}

/// Queue state guarded by one mutex: the queue itself, its byte ledger,
/// and the count of popped-but-unanswered jobs (drain waits on both).
struct QueueState {
    q: VecDeque<Queued>,
    inflight_bytes: usize,
    active: usize,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    rejected: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    panicked: AtomicU64,
    failed: AtomicU64,
    control: AtomicU64,
    connections: AtomicU64,
    peak_queue_depth: AtomicU64,
    peak_inflight_bytes: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    engine: ServeEngine,
    queue: Mutex<QueueState>,
    /// Workers park here waiting for jobs.
    work_cv: Condvar,
    /// Drainers park here waiting for empty-queue + zero-active.
    idle_cv: Condvar,
    counters: Counters,
    latency_ms: Mutex<polar_gb::Histogram>,
    queue_depth: Mutex<polar_gb::Histogram>,
    draining: AtomicBool,
    stopping: AtomicBool,
    final_report: Mutex<Option<ServeReport>>,
    report_cv: Condvar,
    started: Instant,
}

/// Lock clearing poison: all critical sections leave the state
/// structurally consistent (job panics are contained inside the engine,
/// outside these locks).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::drain`] (or send `{"cmd":"drain"}` over a
/// connection, then [`ServerHandle::join`]).
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time report (counters may be mid-flight).
    pub fn snapshot(&self) -> ServeReport {
        snapshot(&self.shared)
    }

    /// Gracefully drain and shut down: stop admitting, wait for queued
    /// and in-flight work (shedding what the drain timeout strands),
    /// and return the final reconciled report.
    pub fn drain(mut self) -> ServeReport {
        let report = do_drain(&self.shared, |_| {});
        self.join_threads();
        report
    }

    /// Block until a client-initiated drain completes, then return the
    /// final report.
    pub fn join(mut self) -> ServeReport {
        let report = {
            let mut g = lock(&self.shared.final_report);
            while g.is_none() {
                g = self
                    .shared
                    .report_cv
                    .wait_timeout(g, Duration::from_millis(200))
                    .map(|(g, _)| g)
                    .unwrap_or_else(|p| p.into_inner().0);
            }
            g.clone().expect("loop exits only once the report is set")
        };
        self.join_threads();
        report
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Bind, spawn the accept loop and workers, return immediately.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared {
        engine: ServeEngine::new(cfg.cache_bytes, cfg.tenant_quota_bytes, workers),
        queue: Mutex::new(QueueState {
            q: VecDeque::new(),
            inflight_bytes: 0,
            active: 0,
        }),
        work_cv: Condvar::new(),
        idle_cv: Condvar::new(),
        counters: Counters::default(),
        latency_ms: Mutex::new(polar_gb::Histogram::latency_ms()),
        queue_depth: Mutex::new(polar_gb::Histogram::queue_depth()),
        draining: AtomicBool::new(false),
        stopping: AtomicBool::new(false),
        final_report: Mutex::new(None),
        report_cv: Condvar::new(),
        started: Instant::now(),
        cfg,
    });

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));

    Ok(ServerHandle {
        shared,
        local_addr,
        accept: Some(accept),
        workers: worker_handles,
    })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Replies are whole lines in one write; nothing is
                // gained by holding one back for coalescing.
                let _ = stream.set_nodelay(true);
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || connection_loop(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Per-connection reader: one thread per client, one response line per
/// request line. Read timeouts let the thread notice a server stop even
/// while the client holds the connection open silently; whatever arrived
/// before a timeout stays in `line`, so a request (or one multi-byte
/// character) split across ticks is reassembled. One byte past
/// `max_request_bytes` is the most a line ever buffers: that byte shows
/// the line is over the limit, it is answered on the spot, and the rest
/// of it is discarded as it streams in.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let limit = shared.cfg.max_request_bytes;
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    // Inside an over-limit line that has already been answered.
    let mut discarding = false;
    loop {
        let room = (limit + 1 - line.len()) as u64;
        let read = (&mut reader).take(room).read_until(b'\n', &mut line);
        let ended = line.last() == Some(&b'\n');
        if ended || line.len() > limit {
            if !discarding {
                handle_line(&line, &writer, shared);
            }
            discarding = !ended;
            line.clear();
        }
        match read {
            Ok(0) => {
                // EOF (`room` is never zero). A last line without its
                // newline still gets its one answer.
                if !line.is_empty() && !discarding {
                    handle_line(&line, &writer, shared);
                }
                return;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Send one reply line. The line and its newline leave in a single
/// `write`: a newline written on its own waits in the kernel for the
/// client's (delayed) ACK of the line before it — 40 ms of every round
/// trip.
fn respond<W: Write>(writer: &Mutex<W>, line: &str) {
    let reply = format!("{line}\n");
    let mut w = lock(writer);
    // A vanished client is the client's problem, not the server's.
    let _ = w.write_all(reply.as_bytes());
    let _ = w.flush();
}

/// Answer one request line (`raw` is the bytes as read, newline included;
/// an over-limit line arrives cut at one byte past the limit).
fn handle_line(raw: &[u8], writer: &Arc<Mutex<TcpStream>>, shared: &Arc<Shared>) {
    let received_at = Instant::now();
    let c = &shared.counters;
    let limit = shared.cfg.max_request_bytes;
    let parsed = if raw.len() > limit {
        Err(format!("request exceeds the {limit}-byte limit"))
    } else {
        match std::str::from_utf8(raw).map(str::trim) {
            Ok("") => return,
            Ok(line) => parse_request(line).map_err(|e| e.to_string()),
            Err(e) => Err(format!(
                "request is not valid UTF-8 (byte {})",
                e.valid_up_to()
            )),
        }
    };
    c.requests.fetch_add(1, Ordering::Relaxed);
    let request = match parsed {
        Ok(r) => r,
        Err(e) => {
            c.rejected.fetch_add(1, Ordering::Relaxed);
            respond(writer, &wire::bad_request(&e));
            return;
        }
    };

    match request {
        ServeRequest::Control(Control::Health) => {
            c.control.fetch_add(1, Ordering::Relaxed);
            respond(
                writer,
                &wire::health(shared.draining.load(Ordering::SeqCst)),
            );
        }
        ServeRequest::Control(Control::Stats) => {
            c.control.fetch_add(1, Ordering::Relaxed);
            respond(writer, &wire::stats(&snapshot(shared)));
        }
        ServeRequest::Control(Control::Drain) => {
            c.control.fetch_add(1, Ordering::Relaxed);
            do_drain(shared, |report| respond(writer, &wire::drained(report)));
        }
        ServeRequest::Job(job) => admit(*job, raw.len(), received_at, writer, shared),
    }
}

fn admit(
    job: ServeJob,
    bytes: usize,
    received_at: Instant,
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Arc<Shared>,
) {
    let c = &shared.counters;

    // Pre-admission validation: an impossible job is a bad request, not
    // a load problem.
    if let JobSource::Generate { n_atoms, .. } = &job.job.source {
        if *n_atoms > shared.cfg.max_atoms {
            c.rejected.fetch_add(1, Ordering::Relaxed);
            respond(
                writer,
                &wire::bad_request(&format!(
                    "request.n_atoms: {n_atoms} exceeds the {}-atom limit",
                    shared.cfg.max_atoms
                )),
            );
            return;
        }
    }

    c.admitted.fetch_add(1, Ordering::Relaxed);

    if shared.draining.load(Ordering::SeqCst) {
        c.shed.fetch_add(1, Ordering::Relaxed);
        respond(writer, &wire::shed(&job.id, 1000, "server is draining"));
        return;
    }

    let deadline = job
        .deadline_ms
        .or(shared.cfg.default_deadline_ms)
        .map(|ms| received_at + Duration::from_millis(ms));

    let mut qs = lock(&shared.queue);
    if qs.q.len() >= shared.cfg.queue_depth
        || qs.inflight_bytes + bytes > shared.cfg.max_inflight_bytes
    {
        let retry_after_ms = 10 * (qs.q.len() as u64 + 1);
        let reason = if qs.q.len() >= shared.cfg.queue_depth {
            format!("admission queue full ({} deep)", qs.q.len())
        } else {
            format!("{} request bytes in flight", qs.inflight_bytes)
        };
        drop(qs);
        c.shed.fetch_add(1, Ordering::Relaxed);
        respond(writer, &wire::shed(&job.id, retry_after_ms, &reason));
        return;
    }
    qs.inflight_bytes += bytes;
    qs.q.push_back(Queued {
        job,
        bytes,
        received_at,
        deadline,
        writer: Arc::clone(writer),
    });
    let depth = qs.q.len() as u64;
    let inflight = qs.inflight_bytes as u64;
    drop(qs);
    c.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    c.peak_inflight_bytes.fetch_max(inflight, Ordering::Relaxed);
    lock(&shared.queue_depth).record(depth as f64);
    shared.work_cv.notify_one();
}

fn worker_loop(shared: &Arc<Shared>) {
    // A miss builds its plan on this thread; with every worker building
    // at once, that build must not fork past this worker's share.
    polar_gb::set_callers(shared.cfg.workers.max(1));
    loop {
        let queued = {
            let mut qs = lock(&shared.queue);
            loop {
                if let Some(q) = qs.q.pop_front() {
                    qs.inflight_bytes -= q.bytes;
                    qs.active += 1;
                    break Some(q);
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    break None;
                }
                qs = shared
                    .work_cv
                    .wait_timeout(qs, Duration::from_millis(50))
                    .map(|(g, _)| g)
                    .unwrap_or_else(|p| p.into_inner().0);
            }
        };
        let Some(q) = queued else { return };
        process(q, shared);
        let mut qs = lock(&shared.queue);
        qs.active -= 1;
        if qs.q.is_empty() && qs.active == 0 {
            shared.idle_cv.notify_all();
        }
    }
}

/// Execute one admitted job end to end; every path increments exactly
/// one outcome counter and writes exactly one response line.
fn process(q: Queued, shared: &Arc<Shared>) {
    let c = &shared.counters;
    let id = q.job.id.clone();

    let outcome: &AtomicU64;
    let response: String;
    if let Some(d) = q.deadline.filter(|d| Instant::now() >= *d) {
        let waited = (d.duration_since(q.received_at)).as_millis();
        outcome = &c.deadline_exceeded;
        response = wire::deadline_exceeded(
            &id,
            "queue",
            &format!("deadline ({waited} ms) expired while queued"),
        );
    } else {
        match q.job.job.build_molecule(&shared.cfg.base_dir) {
            Err(e) => {
                outcome = &c.failed;
                response = wire::error(&id, &e.to_string());
            }
            Ok(mol) if mol.len() > shared.cfg.max_atoms => {
                outcome = &c.failed;
                response = wire::error(
                    &id,
                    &format!(
                        "molecule has {} atoms, over the {}-atom limit",
                        mol.len(),
                        shared.cfg.max_atoms
                    ),
                );
            }
            Ok(mol) => {
                let params = GbParams {
                    eps_born: q.job.job.eps_born,
                    eps_epol: q.job.job.eps_epol,
                    ..GbParams::default()
                };
                let mut batch_job = BatchJob::new(mol, params);
                if q.job.panic {
                    batch_job.panics = 1;
                }
                match shared.engine.rescore(&q.job.tenant, &batch_job, q.deadline) {
                    Ok(solve) => {
                        let wall_ms = q.received_at.elapsed().as_secs_f64() * 1e3;
                        outcome = &c.completed;
                        response = wire::ok(
                            &id,
                            solve.result.epol_kcal,
                            solve.cache_hit,
                            solve.patched,
                            wall_ms,
                        );
                    }
                    Err(e @ RescoreError::DeadlineExceeded { phase }) => {
                        outcome = &c.deadline_exceeded;
                        response = wire::deadline_exceeded(&id, phase, &e.to_string());
                    }
                    Err(e @ RescoreError::Panicked { .. }) => {
                        outcome = &c.panicked;
                        response = wire::panicked(&id, &e.to_string());
                    }
                    Err(e @ RescoreError::Solve { .. }) => {
                        outcome = &c.failed;
                        response = wire::error(&id, &e.to_string());
                    }
                }
            }
        }
    }
    outcome.fetch_add(1, Ordering::Relaxed);
    lock(&shared.latency_ms).record(q.received_at.elapsed().as_secs_f64() * 1e3);
    respond(&q.writer, &response);
}

/// The drain protocol. The first caller wins and runs it; racers block
/// until the winner publishes the final report, then share it. Each
/// caller hands the report to `reply` before returning, the winner
/// before it publishes: [`ServerHandle::join`] returns on the publish,
/// so a wire drain's answer is written by then.
fn do_drain(shared: &Arc<Shared>, reply: impl FnOnce(&ServeReport)) -> ServeReport {
    if shared.draining.swap(true, Ordering::SeqCst) {
        let mut g = lock(&shared.final_report);
        while g.is_none() {
            g = shared
                .report_cv
                .wait_timeout(g, Duration::from_millis(100))
                .map(|(g, _)| g)
                .unwrap_or_else(|p| p.into_inner().0);
        }
        let report = g.clone().expect("loop exits only once the report is set");
        drop(g);
        reply(&report);
        return report;
    }

    let give_up_at = Instant::now() + shared.cfg.drain_timeout;
    {
        let mut qs = lock(&shared.queue);
        loop {
            if qs.q.is_empty() && qs.active == 0 {
                break;
            }
            let now = Instant::now();
            if now >= give_up_at && !qs.q.is_empty() {
                // The timeout strands queued work: shed it (typed
                // response, counted) rather than leave it unanswered.
                while let Some(q) = qs.q.pop_front() {
                    qs.inflight_bytes -= q.bytes;
                    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                    respond(
                        &q.writer,
                        &wire::shed(&q.job.id, 0, "shed by drain timeout"),
                    );
                }
                continue; // keep waiting for active jobs to finish
            }
            let wait = if now >= give_up_at {
                Duration::from_millis(20)
            } else {
                (give_up_at - now).min(Duration::from_millis(50))
            };
            qs = shared
                .idle_cv
                .wait_timeout(qs, wait)
                .map(|(g, _)| g)
                .unwrap_or_else(|p| p.into_inner().0);
        }
    }

    shared.stopping.store(true, Ordering::SeqCst);
    shared.work_cv.notify_all();

    let mut report = snapshot(shared);
    report.drained = true;
    reply(&report);
    *lock(&shared.final_report) = Some(report.clone());
    shared.report_cv.notify_all();
    report
}

fn snapshot(shared: &Arc<Shared>) -> ServeReport {
    let c = &shared.counters;
    let cache = shared.engine.cache_stats();
    ServeReport {
        requests: c.requests.load(Ordering::Relaxed),
        rejected: c.rejected.load(Ordering::Relaxed),
        admitted: c.admitted.load(Ordering::Relaxed),
        completed: c.completed.load(Ordering::Relaxed),
        shed: c.shed.load(Ordering::Relaxed),
        deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
        panicked: c.panicked.load(Ordering::Relaxed),
        failed: c.failed.load(Ordering::Relaxed),
        control: c.control.load(Ordering::Relaxed),
        cache_hits: cache.hits,
        cache_patched: cache.patched,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        quota_evictions: cache.quota_evictions,
        poison_evictions: cache.poison_evictions,
        cache_bytes_held: cache.bytes_held,
        cache_capacity_bytes: cache.capacity_bytes,
        tenants: cache.tenants,
        arena_reuses: shared.engine.arena_reuses(),
        connections: c.connections.load(Ordering::Relaxed),
        workers: shared.cfg.workers.max(1),
        queue_capacity: shared.cfg.queue_depth,
        peak_queue_depth: c.peak_queue_depth.load(Ordering::Relaxed),
        peak_inflight_bytes: c.peak_inflight_bytes.load(Ordering::Relaxed),
        latency_ms: lock(&shared.latency_ms).clone(),
        queue_depth: lock(&shared.queue_depth).clone(),
        drained: false,
        wall_seconds: shared.started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn connect(handle: &ServerHandle) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (reader, stream)
    }

    fn roundtrip(reader: &mut BufReader<TcpStream>, stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response line");
        resp.trim().to_string()
    }

    #[test]
    fn a_reply_is_one_write_ending_in_a_newline() {
        /// Records every `write` call it receives.
        #[derive(Default)]
        struct Segments(Vec<Vec<u8>>);
        impl Write for Segments {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Mutex::new(Segments::default());
        for line in [wire::health(false), wire::bad_request("byte 3: oops")] {
            respond(&sink, &line);
            let segments = std::mem::take(&mut lock(&sink).0);
            assert_eq!(segments, [format!("{line}\n").into_bytes()]);
        }
    }

    #[test]
    fn serves_jobs_with_warm_cache_and_health() {
        let handle = start(ServeConfig::default()).expect("bind");
        let (mut reader, mut stream) = connect(&handle);
        let req = r#"{"id":"a","generate":"globular","n_atoms":120,"seed":3}"#;
        let cold = roundtrip(&mut reader, &mut stream, req);
        assert!(cold.contains("\"status\":\"ok\""), "{cold}");
        assert!(cold.contains("\"cache_hit\":false"), "{cold}");
        let warm = roundtrip(&mut reader, &mut stream, req);
        assert!(warm.contains("\"cache_hit\":true"), "{warm}");
        let health = roundtrip(&mut reader, &mut stream, r#"{"cmd":"health"}"#);
        assert!(health.contains("\"healthy\":true"), "{health}");
        let report = handle.drain();
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(report.completed, 2);
        assert_eq!(report.cache_hits, 1);
        assert!(report.drained);
    }

    #[test]
    fn malformed_lines_get_typed_rejections_not_disconnects() {
        let handle = start(ServeConfig::default()).expect("bind");
        let (mut reader, mut stream) = connect(&handle);
        let bad = roundtrip(&mut reader, &mut stream, "{nonsense");
        assert!(bad.contains("\"status\":\"bad_request\""), "{bad}");
        let bad = roundtrip(&mut reader, &mut stream, r#"{"n_atoms":5}"#);
        assert!(bad.contains("\"status\":\"bad_request\""), "{bad}");
        // The connection survived both.
        let ok = roundtrip(
            &mut reader,
            &mut stream,
            r#"{"generate":"ligand","n_atoms":50}"#,
        );
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        let report = handle.drain();
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(report.rejected, 2);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn oversized_requests_and_molecules_are_refused() {
        let cfg = ServeConfig {
            max_request_bytes: 200,
            max_atoms: 100,
            ..ServeConfig::default()
        };
        let handle = start(cfg).expect("bind");
        let (mut reader, mut stream) = connect(&handle);
        let huge = format!(
            r#"{{"generate":"globular","n_atoms":50,"seed":1,"name":"{}"}}"#,
            "x".repeat(400)
        );
        let resp = roundtrip(&mut reader, &mut stream, &huge);
        assert!(resp.contains("byte limit"), "{resp}");
        let resp = roundtrip(
            &mut reader,
            &mut stream,
            r#"{"generate":"globular","n_atoms":5000}"#,
        );
        assert!(resp.contains("atom limit"), "{resp}");
        let report = handle.drain();
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(report.rejected, 2);
        assert_eq!(report.admitted, 0);
    }

    #[test]
    fn queue_bound_sheds_with_retry_hint() {
        // One worker, queue depth 1: a burst must shed some requests.
        let cfg = ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        };
        let handle = start(cfg).expect("bind");
        let (mut reader, mut stream) = connect(&handle);
        // Fire a burst without reading responses, then collect.
        let n = 12;
        for i in 0..n {
            // Distinct geometries so nothing is a trivially fast hit.
            let line = format!(
                "{{\"id\":\"b{i}\",\"generate\":\"globular\",\"n_atoms\":200,\"seed\":{i}}}\n"
            );
            stream.write_all(line.as_bytes()).unwrap();
        }
        stream.flush().unwrap();
        let mut ok = 0u64;
        let mut shed = 0u64;
        for _ in 0..n {
            let mut resp = String::new();
            reader
                .read_line(&mut resp)
                .expect("one response per request");
            if resp.contains("\"status\":\"ok\"") {
                ok += 1;
            } else if resp.contains("\"status\":\"shed\"") {
                assert!(resp.contains("retry_after_ms"), "{resp}");
                shed += 1;
            } else {
                panic!("unexpected response {resp}");
            }
        }
        let report = handle.drain();
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(report.completed, ok);
        assert_eq!(report.shed, shed);
        assert!(shed > 0, "a 12-deep burst into a 1-deep queue must shed");
        assert!(ok > 0, "admitted work still completes");
    }

    #[test]
    fn drain_over_the_wire_returns_the_final_report() {
        let handle = start(ServeConfig::default()).expect("bind");
        let (mut reader, mut stream) = connect(&handle);
        let ok = roundtrip(
            &mut reader,
            &mut stream,
            r#"{"generate":"ligand","n_atoms":40}"#,
        );
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        let drained = roundtrip(&mut reader, &mut stream, r#"{"cmd":"drain"}"#);
        assert!(drained.contains("\"status\":\"drained\""), "{drained}");
        assert!(
            drained.contains("\"schema\":\"serve_report/v1\""),
            "{drained}"
        );
        assert!(drained.contains("\"drained\":true"), "{drained}");
        assert!(drained.contains("\"reconciles\":true"), "{drained}");
        // join() sees the same client-initiated final report.
        let report = handle.join();
        assert!(report.drained);
        assert_eq!(report.completed, 1);
        // Jobs after a drain are shed, not silently dropped: the
        // stopping server may no longer answer, but the counters did
        // reconcile at drain time, which is the contract.
    }

    #[test]
    fn join_returns_only_after_the_drain_reply_is_written() {
        // `polar serve` exits as soon as `join` returns, so a drain reply
        // still waiting on its socket would never reach the client. Hold
        // the connection's writer to make that write slow.
        let handle = start(ServeConfig::default()).expect("bind");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let writer = Arc::new(Mutex::new(listener.accept().unwrap().0));
        let held = lock(&writer);
        let drainer = {
            let (writer, shared) = (Arc::clone(&writer), Arc::clone(&handle.shared));
            std::thread::spawn(move || handle_line(b"{\"cmd\":\"drain\"}\n", &writer, &shared))
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let joiner = std::thread::spawn(move || tx.send(handle.join()).unwrap());
        assert!(
            rx.recv_timeout(Duration::from_millis(500)).is_err(),
            "join returned before the drain reply was written"
        );
        drop(held);
        let report = rx.recv_timeout(Duration::from_secs(30)).expect("join");
        assert!(report.drained);
        drainer.join().unwrap();
        joiner.join().unwrap();
        let mut reply = String::new();
        BufReader::new(client).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"status\":\"drained\""), "{reply}");
    }
}
