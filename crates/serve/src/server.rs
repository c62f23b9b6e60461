//! The job server: a bounded queue of [`SimRequest`]s executed by a
//! fixed worker pool, fronted by the content-addressed [`ResultCache`]
//! and a thread-per-connection HTTP listener.
//!
//! ## Endpoints (`/api/v1`)
//!
//! | method | path                  | meaning                                |
//! |--------|-----------------------|----------------------------------------|
//! | POST   | `/jobs[?wait=1]`      | submit a request body; `wait` blocks   |
//! | GET    | `/jobs/<id>`          | job status                             |
//! | GET    | `/jobs/<id>/<art>`    | artifact: `report` `metrics` `trace` `svg` |
//! | GET    | `/metrics[?format=prom]` | metric registry (JSON or Prometheus text) |
//! | GET    | `/healthz`            | liveness, queue depth, rolling p50/p95/p99 |
//! | GET    | `/trace[?format=…]`   | request-lifecycle trace: chrome JSON (default), `svg`, `flame`, `flamesvg` |
//! | POST   | `/pause`, `/resume`   | hold / release worker dispatch         |
//!
//! ## Observability
//!
//! Every submission gets a request id at accept (`X-Request-Id: r<n>`
//! on the response) and leaves a span tree in the bounded
//! [`LifecycleTrace`]: contiguous `parse` / `cache_lookup` / `wait` /
//! `respond` stages under one outer span, plus `queue_wait` / `execute`
//! on the executing worker's track — see [`crate::lifecycle`] for the
//! exact-attribution contract. Executed jobs also feed
//! `hist.serve_queue_wait_us` and the rolling latency/queue-wait
//! windows `/healthz` summarizes. All state transitions emit structured
//! JSONL events through the [`Logger`] in [`ServeConfig::log`]
//! (disabled by default; the CLI wires `--log-level`).
//!
//! ## Backpressure and lifecycle
//!
//! Submissions that miss the cache enter a `VecDeque` bounded at
//! `queue_depth`; a full queue answers **429** with the depth in the
//! body — never a silent drop. During shutdown every new submission
//! answers **503**, while already-queued jobs are *drained*: workers
//! ignore `pause` and keep executing until the queue is empty, so a
//! shutdown snapshot never contains a non-terminal job.
//!
//! A job that panics ends `failed` ("job panicked: …", a **500** to a
//! waiting client) and is counted under `serve.job_panics`; its worker
//! catches the unwind and goes on serving the queue.
//!
//! Identical in-flight requests are *coalesced* (single-flight): the
//! second submission of a queued/running content hash attaches to the
//! existing job instead of enqueueing a duplicate, counted under
//! `serve.coalesced` rather than as a hit or miss.
//!
//! `pause`/`resume` exist for tests and operations: a paused server
//! accepts submissions (the queue fills deterministically — this is how
//! the 429 path is tested without racing real workers) but dispatches
//! nothing.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::cache::ResultCache;
use crate::hash::{hash_hex, parse_hash_hex};
use crate::http::{read_request, write_response, write_response_with, Request};
use crate::lifecycle::{LifeRecord, LifecycleTrace, Stage, DEFAULT_TRACE_CAP};
use crate::request::SimRequest;
use crate::result::SimResult;
use crate::runner::run_request;
use wmpt_analyze::{collapsed_stacks, flame_svg, timeline_svg};
use wmpt_obs::json::{self, num, obj, s, Value};
use wmpt_obs::{render_prometheus, Level, Logger, MetricKey, MetricRegistry, RollingWindow};
use wmpt_par::ParPool;

/// Samples retained by the rolling latency / queue-wait windows behind
/// `/healthz`.
const WINDOW_CAP: usize = 512;

/// Server tuning knobs; the CLI's `serve` subcommand maps its flags
/// straight onto this.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum queued (not yet running) jobs before submissions get 429.
    pub queue_depth: usize,
    /// Cache byte budget (see [`ResultCache`]).
    pub cache_bytes: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// `--jobs` parallelism of each worker's simulation pool. Each worker
    /// owns its pool for its whole lifetime, so it keeps `jobs − 1`
    /// parked helper threads (none at the default `1`).
    pub jobs: usize,
    /// Structured-log destination (disabled by default; the CLI maps
    /// `--log-level` onto [`Logger::stderr`]).
    pub log: Logger,
    /// Lifecycle records retained for `GET /api/v1/trace`.
    pub trace_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 16,
            cache_bytes: 64 * 1024 * 1024,
            workers: 2,
            jobs: 1,
            log: Logger::disabled(),
            trace_cap: DEFAULT_TRACE_CAP,
        }
    }
}

/// Where a job is in its lifecycle. Terminal states are `Done` and
/// `Failed`.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting in the bounded queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; artifacts are (or were) in the cache.
    Done,
    /// Execution failed with a message.
    Failed(String),
}

impl JobStatus {
    fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }

    fn terminal(&self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed(_))
    }
}

/// A queued job: its key and request body plus the provenance the
/// lifecycle trace needs at dispatch time.
struct PendingJob {
    key: u128,
    req: SimRequest,
    /// Request id of the submission that enqueued it.
    rid: u64,
    /// Request kind (`layer`, `plan`, ...), for the job span name.
    kind: &'static str,
    /// When the job entered the queue, µs since the server epoch.
    enqueued_us: u64,
}

struct State {
    queue: VecDeque<PendingJob>,
    /// Every job ever submitted (including cache-hit phantoms), by
    /// content hash.
    jobs: HashMap<u128, JobStatus>,
    cache: ResultCache,
    metrics: MetricRegistry,
    evictions_seen: u64,
    shutting_down: bool,
    paused: bool,
    /// Bounded request-lifecycle span trees (`GET /api/v1/trace`).
    lifecycle: LifecycleTrace,
    /// Rolling executed-job latency (µs) behind `/healthz`.
    lat_window: RollingWindow,
    /// Rolling queue wait (µs) of executed jobs behind `/healthz`.
    qwait_window: RollingWindow,
}

impl State {
    /// Folds cache-eviction and residency deltas into the registry.
    fn sync_cache_metrics(&mut self) {
        let evictions = self.cache.evictions();
        if evictions > self.evictions_seen {
            self.metrics.inc(
                MetricKey::ServeCacheEvictions,
                evictions - self.evictions_seen,
            );
            self.evictions_seen = evictions;
        }
        self.metrics.set_gauge(
            MetricKey::ServeCacheBytes,
            self.cache.resident_bytes() as f64,
        );
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: queue non-empty, resume, or shutdown.
    work_cv: Condvar,
    /// Signals waiters: some job reached a terminal state.
    done_cv: Condvar,
    /// Structured-log sink shared by every server thread.
    log: Logger,
    /// The clock origin of every lifecycle timestamp.
    epoch: Instant,
    /// Request-id source; ids are assigned per connection at accept.
    next_rid: AtomicU64,
}

impl Shared {
    /// Microseconds since the server epoch — the unit of every
    /// lifecycle span and log timestamp.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// What one submission turned into.
enum Submit {
    /// Result already cached.
    Hit(u128),
    /// Attached to an identical queued/running job.
    Coalesced(u128),
    /// Newly enqueued.
    Enqueued(u128),
    /// Queue full.
    Overloaded { depth: usize },
    /// Server is draining.
    ShuttingDown,
}

/// Final state returned by [`Server::shutdown`]: the metric registry
/// and every job's terminal status — proof the drain left nothing
/// behind.
pub struct ShutdownReport {
    /// The server's metric registry at exit.
    pub metrics: MetricRegistry,
    /// `(job id hex, status name)` for every job ever submitted.
    pub jobs: Vec<(String, String)>,
}

impl ShutdownReport {
    /// True when every job ended in a terminal state.
    pub fn fully_drained(&self) -> bool {
        self.jobs
            .iter()
            .all(|(_, st)| st == "done" || st == "failed")
    }
}

/// The running server; dropping it without [`Server::shutdown`] leaks
/// the listener thread for the process lifetime (fine for a CLI that
/// exits right after).
pub struct Server {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop and workers.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Server> {
        Self::bind_with(addr, config, run_request)
    }

    /// [`Server::bind`] with the workers executing jobs through `run`.
    fn bind_with(addr: &str, config: ServeConfig, run: Runner) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                cache: ResultCache::new(config.cache_bytes),
                metrics: MetricRegistry::new(),
                evictions_seen: 0,
                shutting_down: false,
                paused: false,
                lifecycle: LifecycleTrace::new(config.trace_cap),
                lat_window: RollingWindow::new(WINDOW_CAP),
                qwait_window: RollingWindow::new(WINDOW_CAP),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            log: config.log.clone(),
            epoch: Instant::now(),
            next_rid: AtomicU64::new(0),
        });
        shared.log.event(
            Level::Info,
            "serve_start",
            None,
            &[
                ("addr", s(&local.to_string())),
                ("workers", num(config.workers.max(1) as f64)),
                ("queue_depth", num(config.queue_depth as f64)),
            ],
        );

        let mut worker_handles = Vec::with_capacity(config.workers.max(1));
        for widx in 0..config.workers.max(1) {
            let sh = Arc::clone(&shared);
            let jobs = config.jobs;
            worker_handles.push(thread::spawn(move || worker_loop(&sh, jobs, widx, run)));
        }
        let queue_depth = config.queue_depth;
        let accept_shared = Arc::clone(&shared);
        let accept_handle =
            thread::spawn(move || accept_loop(listener, accept_shared, queue_depth));

        Ok(Server {
            shared,
            addr: local,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Holds worker dispatch (submissions still accepted and queued).
    pub fn pause(&self) {
        self.shared.state.lock().expect("state lock").paused = true;
        self.shared.log.event(Level::Info, "pause", None, &[]);
    }

    /// Releases worker dispatch.
    pub fn resume(&self) {
        self.shared.state.lock().expect("state lock").paused = false;
        self.shared.work_cv.notify_all();
        self.shared.log.event(Level::Info, "resume", None, &[]);
    }

    /// Initiates shutdown: new submissions get 503, queued jobs drain,
    /// then all threads join. Returns the final snapshot.
    pub fn shutdown(self) -> ShutdownReport {
        let Server {
            shared,
            addr,
            mut accept_handle,
            worker_handles,
        } = self;
        {
            let mut st = shared.state.lock().expect("state lock");
            st.shutting_down = true;
            shared.log.event(
                Level::Info,
                "shutdown",
                None,
                &[("queued", num(st.queue.len() as f64))],
            );
        }
        shared.work_cv.notify_all();
        shared.done_cv.notify_all();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(addr);
        if let Some(h) = accept_handle.take() {
            let _ = h.join();
        }
        for h in worker_handles {
            let _ = h.join();
        }
        let mut st = shared.state.lock().expect("state lock");
        st.sync_cache_metrics();
        let mut jobs: Vec<(String, String)> = st
            .jobs
            .iter()
            .map(|(k, v)| (hash_hex(*k), v.name().to_string()))
            .collect();
        jobs.sort();
        ShutdownReport {
            metrics: st.metrics.clone(),
            jobs,
        }
    }
}

/// How a worker executes one job: [`run_request`], or a stand-in in the
/// tests.
type Runner = fn(&SimRequest, &ParPool) -> Result<SimResult, String>;

/// Runs one job through `run`, turning a panic into that job's failure so
/// the job still ends and its worker lives on. The flag says whether it
/// panicked.
fn run_caught(run: Runner, req: &SimRequest, pool: &ParPool) -> (Result<SimResult, String>, bool) {
    match panic::catch_unwind(AssertUnwindSafe(|| run(req, pool))) {
        Ok(outcome) => (outcome, false),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string payload".to_string());
            (Err(format!("job panicked: {msg}")), true)
        }
    }
}

/// One worker: pop, execute on a private deterministic pool, publish —
/// and leave a `queue_wait` + `execute` span pair on its own lifecycle
/// track.
fn worker_loop(shared: &Shared, jobs: usize, widx: usize, run: Runner) {
    let pool = ParPool::new(jobs.max(1));
    let track = format!("worker{widx}");
    loop {
        let job = {
            let mut st = shared.state.lock().expect("state lock");
            loop {
                // Drain overrides pause; an empty queue during shutdown
                // is the exit condition.
                let can_dispatch = !st.queue.is_empty() && (!st.paused || st.shutting_down);
                if can_dispatch {
                    break;
                }
                if st.shutting_down && st.queue.is_empty() {
                    return;
                }
                st = shared.work_cv.wait(st).expect("state lock");
            }
            let job = st.queue.pop_front().expect("queue non-empty");
            st.jobs.insert(job.key, JobStatus::Running);
            job
        };
        let key = job.key;
        let dequeued_us = shared.now_us().max(job.enqueued_us);
        let queue_wait_us = dequeued_us - job.enqueued_us;
        shared.log.event(
            Level::Debug,
            "dequeue",
            Some(job.rid),
            &[
                ("worker", num(widx as f64)),
                ("job", s(&hash_hex(key))),
                ("queue_wait_us", num(queue_wait_us as f64)),
            ],
        );
        let started = Instant::now();
        let (outcome, panicked) = run_caught(run, &job.req, &pool);
        let latency_us = started.elapsed().as_secs_f64() * 1e6;
        let done_us = shared.now_us().max(dequeued_us);
        let status = match &outcome {
            Ok(_) => "done",
            Err(_) => "failed",
        };
        let mut st = shared.state.lock().expect("state lock");
        st.metrics.inc(MetricKey::ServeJobsExecuted, 1);
        if panicked {
            st.metrics.inc(MetricKey::ServeJobPanics, 1);
        }
        st.metrics
            .observe(MetricKey::HistServeLatencyUs, latency_us);
        st.metrics
            .observe(MetricKey::HistServeQueueWaitUs, queue_wait_us as f64);
        st.lat_window.observe(latency_us);
        st.qwait_window.observe(queue_wait_us as f64);
        st.lifecycle.push(LifeRecord {
            track: track.clone(),
            name: format!("{}.job#r{}", job.kind, job.rid),
            start_us: job.enqueued_us,
            end_us: done_us,
            stages: vec![
                Stage {
                    name: "queue_wait",
                    start_us: job.enqueued_us,
                    end_us: dequeued_us,
                },
                Stage {
                    name: "execute",
                    start_us: dequeued_us,
                    end_us: done_us,
                },
            ],
        });
        match outcome {
            Ok(result) => {
                st.cache.insert(key, Arc::new(result));
                st.jobs.insert(key, JobStatus::Done);
            }
            Err(e) => {
                st.jobs.insert(key, JobStatus::Failed(e));
            }
        }
        st.sync_cache_metrics();
        drop(st);
        shared.log.event(
            Level::Info,
            "job_done",
            Some(job.rid),
            &[
                ("worker", num(widx as f64)),
                ("job", s(&hash_hex(key))),
                ("status", s(status)),
                ("latency_us", num(latency_us)),
            ],
        );
        shared.done_cv.notify_all();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, queue_depth: usize) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if shared.state.lock().expect("state lock").shutting_down {
            // The wake-up connection (or a late client): answer 503 on
            // real requests, then stop accepting.
            let mut stream = stream;
            let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            if read_request(&mut stream).is_ok() {
                write_response(&mut stream, 503, "text/plain", b"shutting down\n");
            }
            break;
        }
        let sh = Arc::clone(&shared);
        connections.push(thread::spawn(move || {
            let mut stream = stream;
            let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
            // The request id is assigned at accept; everything this
            // connection does — parse, queue, cache, execute, respond —
            // is attributable to it.
            let rid = sh.next_rid.fetch_add(1, Ordering::Relaxed);
            let accepted_us = sh.now_us();
            match read_request(&mut stream) {
                Ok(req) => {
                    sh.log.event(
                        Level::Debug,
                        "request",
                        Some(rid),
                        &[("method", s(&req.method)), ("path", s(&req.path))],
                    );
                    handle(&sh, &mut stream, &req, queue_depth, rid, accepted_us);
                }
                Err(e) => {
                    sh.log
                        .event(Level::Warn, "bad_request", Some(rid), &[("error", s(&e))]);
                    write_response(&mut stream, 400, "text/plain", e.as_bytes());
                }
            }
        }));
        // Reap finished handlers so the vec stays bounded on long runs.
        connections.retain(|h| !h.is_finished());
    }
    for h in connections {
        let _ = h.join();
    }
}

/// Submits a request under the single lock acquisition that decides
/// hit / coalesce / enqueue / reject. `rid` is the submitting request's
/// id; an enqueued job carries it so the worker's lifecycle record and
/// log events tie back to the submission.
fn submit(shared: &Shared, req: &SimRequest, queue_depth: usize, rid: u64) -> Submit {
    let key = req.cache_key();
    let mut st = shared.state.lock().expect("state lock");
    st.metrics.inc(MetricKey::ServeRequests, 1);
    let depth = st.queue.len() as f64;
    st.metrics.observe(MetricKey::HistServeQueueDepth, depth);
    if st.shutting_down {
        st.metrics.inc(MetricKey::ServeRejectedShutdown, 1);
        return Submit::ShuttingDown;
    }
    if st.cache.contains(key) {
        st.metrics.inc(MetricKey::ServeCacheHits, 1);
        st.jobs.insert(key, JobStatus::Done);
        return Submit::Hit(key);
    }
    match st.jobs.get(&key) {
        Some(JobStatus::Queued) | Some(JobStatus::Running) => {
            st.metrics.inc(MetricKey::ServeCoalesced, 1);
            return Submit::Coalesced(key);
        }
        _ => {}
    }
    if st.queue.len() >= queue_depth {
        st.metrics.inc(MetricKey::ServeRejectedOverload, 1);
        return Submit::Overloaded {
            depth: st.queue.len(),
        };
    }
    st.metrics.inc(MetricKey::ServeCacheMisses, 1);
    let enqueued_us = shared.now_us();
    st.queue.push_back(PendingJob {
        key,
        req: req.clone(),
        rid,
        kind: req.kind(),
        enqueued_us,
    });
    st.jobs.insert(key, JobStatus::Queued);
    drop(st);
    shared.work_cv.notify_all();
    Submit::Enqueued(key)
}

/// Blocks until `key` reaches a terminal state (or shutdown with an
/// empty queue, which guarantees it already has).
fn wait_terminal(shared: &Shared, key: u128) -> JobStatus {
    let mut st = shared.state.lock().expect("state lock");
    loop {
        match st.jobs.get(&key) {
            Some(status) if status.terminal() => return status.clone(),
            Some(_) => {}
            None => return JobStatus::Failed("unknown job".to_string()),
        }
        st = shared.done_cv.wait(st).expect("state lock");
    }
}

fn status_body(id: u128, status: &JobStatus, cached: bool) -> Vec<u8> {
    let mut members = vec![
        ("job", s(&hash_hex(id))),
        ("status", s(status.name())),
        ("cached", Value::Bool(cached)),
    ];
    if let JobStatus::Failed(e) = status {
        members.push(("error", s(e)));
    }
    (obj(members).render() + "\n").into_bytes()
}

/// Summarizes a rolling window as `{"count":…,"p50":…,"p95":…,"p99":…}`.
fn window_summary(w: &RollingWindow) -> Value {
    let (p50, p95, p99) = w.summary();
    obj(vec![
        ("count", num(w.len() as f64)),
        ("p50", num(p50)),
        ("p95", num(p95)),
        ("p99", num(p99)),
    ])
}

fn handle(
    shared: &Shared,
    stream: &mut TcpStream,
    req: &Request,
    queue_depth: usize,
    rid: u64,
    accepted_us: u64,
) {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("POST", "/api/v1/jobs") => {
            handle_submit(shared, stream, req, queue_depth, rid, accepted_us);
        }
        ("POST", "/api/v1/pause") => {
            shared.state.lock().expect("state lock").paused = true;
            shared.log.event(Level::Info, "pause", Some(rid), &[]);
            write_response(stream, 200, "text/plain", b"paused\n");
        }
        ("POST", "/api/v1/resume") => {
            shared.state.lock().expect("state lock").paused = false;
            shared.work_cv.notify_all();
            shared.log.event(Level::Info, "resume", Some(rid), &[]);
            write_response(stream, 200, "text/plain", b"resumed\n");
        }
        ("GET", "/api/v1/metrics") => {
            let mut st = shared.state.lock().expect("state lock");
            st.sync_cache_metrics();
            if req.query_param("format") == Some("prom") {
                let body = render_prometheus(&st.metrics);
                drop(st);
                write_response(
                    stream,
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    body.as_bytes(),
                );
            } else {
                let body = st.metrics.to_json().render() + "\n";
                drop(st);
                write_response(
                    stream,
                    200,
                    "application/json; charset=utf-8",
                    body.as_bytes(),
                );
            }
        }
        ("GET", "/api/v1/healthz") => {
            let st = shared.state.lock().expect("state lock");
            let body = obj(vec![
                ("ok", Value::Bool(true)),
                ("queued", num(st.queue.len() as f64)),
                ("paused", Value::Bool(st.paused)),
                ("cached_entries", num(st.cache.len() as f64)),
                ("cache_bytes", num(st.cache.resident_bytes() as f64)),
                (
                    "jobs_executed",
                    num(st.metrics.counter(MetricKey::ServeJobsExecuted) as f64),
                ),
                ("uptime_s", num(shared.epoch.elapsed().as_secs_f64())),
                ("latency_us", window_summary(&st.lat_window)),
                ("queue_wait_us", window_summary(&st.qwait_window)),
                (
                    "trace",
                    obj(vec![
                        ("records", num(st.lifecycle.len() as f64)),
                        ("total", num(st.lifecycle.total() as f64)),
                        ("dropped", num(st.lifecycle.dropped() as f64)),
                    ]),
                ),
            ])
            .render()
                + "\n";
            write_response(
                stream,
                200,
                "application/json; charset=utf-8",
                body.as_bytes(),
            );
        }
        ("GET", "/api/v1/trace") => {
            let tracer = shared
                .state
                .lock()
                .expect("state lock")
                .lifecycle
                .to_tracer();
            match req.query_param("format") {
                None | Some("chrome") | Some("json") => {
                    let body = tracer.chrome_trace().render();
                    write_response(
                        stream,
                        200,
                        "application/json; charset=utf-8",
                        body.as_bytes(),
                    );
                }
                Some("svg") => {
                    let body = timeline_svg(&tracer);
                    write_response(stream, 200, "image/svg+xml", body.as_bytes());
                }
                Some("flame") => {
                    let body = collapsed_stacks(&tracer);
                    write_response(stream, 200, "text/plain; charset=utf-8", body.as_bytes());
                }
                Some("flamesvg") => {
                    let body = flame_svg(&tracer);
                    write_response(stream, 200, "image/svg+xml", body.as_bytes());
                }
                Some(other) => {
                    let msg = format!(
                        "unknown trace format '{other}' (chrome, json, svg, flame, flamesvg)\n"
                    );
                    write_response(stream, 400, "text/plain", msg.as_bytes());
                }
            }
        }
        ("GET", _) if path.starts_with("/api/v1/jobs/") => {
            handle_job_get(shared, stream, &path["/api/v1/jobs/".len()..]);
        }
        (_, "/api/v1/jobs" | "/api/v1/metrics" | "/api/v1/healthz" | "/api/v1/trace") => {
            write_response(stream, 405, "text/plain", b"method not allowed\n");
        }
        _ => write_response(stream, 404, "text/plain", b"no such endpoint\n"),
    }
}

/// How `handle_submit` answers a submission: the logged outcome and
/// job, the lifecycle track, and the response.
struct Answer {
    outcome: &'static str,
    key: Option<u128>,
    track: &'static str,
    code: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Answer {
    fn json(
        outcome: &'static str,
        key: u128,
        track: &'static str,
        code: u16,
        body: Vec<u8>,
    ) -> Self {
        Answer {
            outcome,
            key: Some(key),
            track,
            code,
            content_type: "application/json; charset=utf-8",
            body,
        }
    }

    fn text(outcome: &'static str, track: &'static str, code: u16, msg: String) -> Self {
        Answer {
            outcome,
            key: None,
            track,
            code,
            content_type: "text/plain",
            body: msg.into_bytes(),
        }
    }
}

fn handle_submit(
    shared: &Shared,
    stream: &mut TcpStream,
    req: &Request,
    queue_depth: usize,
    rid: u64,
    accepted_us: u64,
) {
    let rid_text = format!("r{rid}");
    let headers: [(&str, &str); 1] = [("X-Request-Id", rid_text.as_str())];
    let parse = || -> Result<SimRequest, String> {
        let body =
            std::str::from_utf8(&req.body).map_err(|_| "body must be UTF-8 JSON\n".to_string())?;
        let parsed = json::parse(body).map_err(|e| format!("bad JSON: {e}\n"))?;
        SimRequest::from_json(&parsed).map_err(|e| format!("bad request: {e}\n"))
    };
    let parsed = parse();
    let parsed_us = shared.now_us();
    let (kind, decided_us, answer) = match parsed {
        Err(msg) => {
            shared.log.event(
                Level::Warn,
                "reject",
                Some(rid),
                &[("status", num(400.0)), ("error", s(msg.trim_end()))],
            );
            // Parse failed: the lookup stage is a zero-length point.
            (
                "invalid",
                parsed_us,
                Answer::text("invalid", "error", 400, msg),
            )
        }
        Ok(sim_req) => {
            let decision = submit(shared, &sim_req, queue_depth, rid);
            let decided_us = shared.now_us();
            let answer = match decision {
                Submit::Hit(key) => {
                    let body = status_body(key, &JobStatus::Done, true);
                    Answer::json("hit", key, "hit", 200, body)
                }
                Submit::Coalesced(key) | Submit::Enqueued(key) => {
                    let enqueued = matches!(decision, Submit::Enqueued(_));
                    let outcome = if enqueued { "miss" } else { "coalesced" };
                    if req.query_flag("wait") {
                        let status = wait_terminal(shared, key);
                        let code = if matches!(status, JobStatus::Done) {
                            200
                        } else {
                            500
                        };
                        let track = if enqueued { "executed" } else { "coalesced" };
                        Answer::json(outcome, key, track, code, status_body(key, &status, false))
                    } else {
                        let st = shared.state.lock().expect("state lock");
                        let status = st.jobs.get(&key).cloned().unwrap_or(JobStatus::Queued);
                        drop(st);
                        let track = if enqueued { "queued" } else { "coalesced" };
                        Answer::json(outcome, key, track, 202, status_body(key, &status, false))
                    }
                }
                Submit::Overloaded { depth } => Answer::text(
                    "rejected_overload",
                    "rejected",
                    429,
                    format!("queue full ({depth} jobs pending); retry later\n"),
                ),
                Submit::ShuttingDown => Answer::text(
                    "rejected_shutdown",
                    "rejected",
                    503,
                    "shutting down\n".to_string(),
                ),
            };
            let mut fields = vec![
                ("kind", s(sim_req.kind())),
                ("outcome", s(answer.outcome)),
                ("status", num(answer.code as f64)),
            ];
            if let Some(key) = answer.key {
                fields.push(("job", s(&hash_hex(key))));
            }
            shared.log.event(Level::Info, "submit", Some(rid), &fields);
            (sim_req.kind(), decided_us, answer)
        }
    };
    let ready_us = shared.now_us();
    write_response_with(
        stream,
        answer.code,
        answer.content_type,
        &headers,
        &answer.body,
    );
    let responded_us = shared.now_us();
    // The outer span over `[accepted, responded)` is tiled by four
    // contiguous stages: each starts where the previous ended, so stage
    // durations sum to the request's latency exactly.
    let record = LifeRecord {
        track: answer.track.to_string(),
        name: format!("{kind}#r{rid}"),
        start_us: accepted_us,
        end_us: responded_us,
        stages: vec![
            Stage {
                name: "parse",
                start_us: accepted_us,
                end_us: parsed_us,
            },
            Stage {
                name: "cache_lookup",
                start_us: parsed_us,
                end_us: decided_us,
            },
            Stage {
                name: "wait",
                start_us: decided_us,
                end_us: ready_us,
            },
            Stage {
                name: "respond",
                start_us: ready_us,
                end_us: responded_us,
            },
        ],
    };
    shared
        .state
        .lock()
        .expect("state lock")
        .lifecycle
        .push(record);
}

fn handle_job_get(shared: &Shared, stream: &mut TcpStream, rest: &str) {
    let (id_text, artifact) = match rest.split_once('/') {
        Some((id, art)) => (id, Some(art)),
        None => (rest, None),
    };
    let Some(key) = parse_hash_hex(id_text) else {
        write_response(stream, 404, "text/plain", b"malformed job id\n");
        return;
    };
    let mut st = shared.state.lock().expect("state lock");
    let Some(status) = st.jobs.get(&key).cloned() else {
        write_response(stream, 404, "text/plain", b"unknown job\n");
        return;
    };
    match artifact {
        None => {
            let cached = st.cache.contains(key);
            drop(st);
            let body = status_body(key, &status, cached);
            write_response(stream, 200, "application/json; charset=utf-8", &body);
        }
        Some(name) => {
            if let JobStatus::Failed(e) = &status {
                let msg = format!("job failed: {e}\n");
                write_response(stream, 500, "text/plain", msg.as_bytes());
                return;
            }
            if !status.terminal() {
                write_response(stream, 404, "text/plain", b"job not finished\n");
                return;
            }
            let Some(result) = st.cache.get(key) else {
                drop(st);
                write_response(stream, 410, "text/plain", b"result evicted from cache\n");
                return;
            };
            drop(st);
            match result.artifact(name) {
                Some((body, ctype)) => {
                    // Borrow ends before write: clone out the pieces.
                    let (body, ctype) = (body.as_bytes().to_vec(), ctype.to_string());
                    write_response(stream, 200, &ctype, &body);
                }
                None => write_response(stream, 404, "text/plain", b"no such artifact\n"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_request;

    fn serve(config: ServeConfig) -> Server {
        Server::bind("127.0.0.1:0", config).expect("bind")
    }

    fn post_job(addr: &str, body: &str, wait: bool) -> crate::http::Response {
        let path = if wait {
            "/api/v1/jobs?wait=1"
        } else {
            "/api/v1/jobs"
        };
        http_request(addr, "POST", path, body.as_bytes()).expect("request")
    }

    #[test]
    fn second_identical_submission_is_a_cache_hit() {
        let server = serve(ServeConfig::default());
        let addr = server.addr().to_string();
        let body = r#"{"kind":"plan","network":"wrn","config":"w_mp++"}"#;
        let first = post_job(&addr, body, true);
        assert_eq!(first.status, 200);
        assert!(first.text().contains("\"cached\":false"));
        let second = post_job(&addr, body, true);
        assert_eq!(second.status, 200);
        assert!(second.text().contains("\"cached\":true"));
        let report = server.shutdown();
        assert_eq!(report.metrics.counter(MetricKey::ServeCacheHits), 1);
        assert_eq!(report.metrics.counter(MetricKey::ServeCacheMisses), 1);
        assert_eq!(report.metrics.counter(MetricKey::ServeJobsExecuted), 1);
        assert!(report.fully_drained());
    }

    /// Panics on `wrn` plan requests and runs everything else normally.
    fn panic_on_wrn(req: &SimRequest, pool: &ParPool) -> Result<SimResult, String> {
        if let SimRequest::Plan { network, .. } = req {
            if network == "wrn" {
                panic!("boom on {network}");
            }
        }
        run_request(req, pool)
    }

    #[test]
    fn panicking_job_fails_and_its_worker_keeps_serving() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::bind_with("127.0.0.1:0", config, panic_on_wrn).expect("bind");
        let addr = server.addr().to_string();
        let plan = |net: &str| format!(r#"{{"kind":"plan","network":"{net}","config":"w_mp++"}}"#);
        // A job left `Running` would block this wait forever: bound it.
        let (tx, rx) = std::sync::mpsc::channel();
        let (a, body) = (addr.clone(), plan("wrn"));
        thread::spawn(move || tx.send(post_job(&a, &body, true)));
        let bad = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the panicking job never ended");
        let text = bad.text();
        assert_eq!(bad.status, 500, "{text}");
        assert!(text.contains(r#""status":"failed""#), "{text}");
        assert!(text.contains("job panicked: boom on wrn"), "{text}");
        // The one worker survived the panic and runs the next job.
        let good = post_job(&addr, &plan("table2"), true);
        assert_eq!(good.status, 200, "{}", good.text());
        let report = server.shutdown();
        assert_eq!(report.metrics.counter(MetricKey::ServeJobPanics), 1);
        assert_eq!(report.metrics.counter(MetricKey::ServeJobsExecuted), 2);
        assert!(report.fully_drained());
    }

    #[test]
    fn bad_submissions_get_400() {
        let server = serve(ServeConfig::default());
        let addr = server.addr().to_string();
        assert_eq!(post_job(&addr, "not json", true).status, 400);
        assert_eq!(post_job(&addr, r#"{"kind":"teapot"}"#, true).status, 400);
        assert_eq!(
            post_job(&addr, r#"{"kind":"plan","network":"wrn"}"#, true).status,
            400,
            "missing member"
        );
        let resp = http_request(&addr, "GET", "/api/v1/nope", b"").expect("request");
        assert_eq!(resp.status, 404);
        let report = server.shutdown();
        assert_eq!(report.metrics.counter(MetricKey::ServeRequests), 0);
    }

    #[test]
    fn paused_queue_overflows_deterministically_with_429() {
        let server = serve(ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        });
        let addr = server.addr().to_string();
        server.pause();
        // Two distinct jobs fill the queue; the third bounces.
        let a = post_job(
            &addr,
            r#"{"kind":"plan","network":"wrn","config":"w_mp"}"#,
            false,
        );
        let b = post_job(
            &addr,
            r#"{"kind":"plan","network":"wrn","config":"w_dp"}"#,
            false,
        );
        assert_eq!((a.status, b.status), (202, 202));
        let c = post_job(
            &addr,
            r#"{"kind":"plan","network":"wrn","config":"d_dp"}"#,
            false,
        );
        assert_eq!(c.status, 429);
        assert!(c.text().contains("queue full"));
        // Resubmitting a queued job coalesces instead of rejecting.
        let dup = post_job(
            &addr,
            r#"{"kind":"plan","network":"wrn","config":"w_mp"}"#,
            false,
        );
        assert_eq!(dup.status, 202);
        server.resume();
        let report = server.shutdown();
        assert_eq!(report.metrics.counter(MetricKey::ServeRejectedOverload), 1);
        assert_eq!(report.metrics.counter(MetricKey::ServeCoalesced), 1);
        assert_eq!(report.metrics.counter(MetricKey::ServeJobsExecuted), 2);
        assert!(report.fully_drained(), "drain leaves no queued job behind");
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_rejects_new_ones() {
        let server = serve(ServeConfig {
            queue_depth: 8,
            ..ServeConfig::default()
        });
        let addr = server.addr().to_string();
        server.pause();
        for network in ["wrn", "resnet34", "fractalnet"] {
            let body = format!(r#"{{"kind":"plan","network":"{network}","config":"w_mp+"}}"#);
            assert_eq!(post_job(&addr, &body, false).status, 202);
        }
        // Shutdown drains the paused queue (drain overrides pause).
        let report = server.shutdown();
        assert!(report.fully_drained());
        assert_eq!(report.metrics.counter(MetricKey::ServeJobsExecuted), 3);
        assert_eq!(report.jobs.len(), 3);
    }

    #[test]
    fn artifacts_are_fetchable_and_evictions_answer_410() {
        let server = serve(ServeConfig {
            cache_bytes: 1,
            ..ServeConfig::default()
        });
        let addr = server.addr().to_string();
        let first = post_job(
            &addr,
            r#"{"kind":"plan","network":"wrn","config":"w_mp*"}"#,
            true,
        );
        assert_eq!(first.status, 200);
        let id = first.text();
        let id = id.split('"').nth(3).expect("job id").to_string();
        let report =
            http_request(&addr, "GET", &format!("/api/v1/jobs/{id}/report"), b"").expect("request");
        assert_eq!(report.status, 200);
        assert!(report.text().contains("cycles/iter"));
        assert_eq!(
            http_request(&addr, "GET", &format!("/api/v1/jobs/{id}/trace"), b"")
                .expect("request")
                .status,
            404,
            "plan runs have no trace artifact"
        );
        // A second distinct job evicts the first (1-byte budget).
        let second = post_job(
            &addr,
            r#"{"kind":"plan","network":"wrn","config":"d_dp"}"#,
            true,
        );
        assert_eq!(second.status, 200);
        let gone =
            http_request(&addr, "GET", &format!("/api/v1/jobs/{id}/report"), b"").expect("request");
        assert_eq!(gone.status, 410);
        let report = server.shutdown();
        assert!(report.metrics.counter(MetricKey::ServeCacheEvictions) >= 1);
    }

    #[test]
    fn layer_jobs_expose_trace_metrics_and_svg_artifacts() {
        let server = serve(ServeConfig::default());
        let addr = server.addr().to_string();
        let first = post_job(
            &addr,
            r#"{"kind":"layer","layer":"Mid-1","configs":["w_mp"]}"#,
            true,
        );
        assert_eq!(first.status, 200);
        let id = first.text();
        let id = id.split('"').nth(3).expect("job id").to_string();
        for (artifact, probe) in [
            ("report", "fwd cycles"),
            ("metrics", "\"counters\""),
            ("trace", "traceEvents"),
            ("svg", "<svg"),
        ] {
            let resp = http_request(&addr, "GET", &format!("/api/v1/jobs/{id}/{artifact}"), b"")
                .expect("request");
            assert_eq!(resp.status, 200, "{artifact}");
            assert!(resp.text().contains(probe), "{artifact} lacks {probe}");
        }
        server.shutdown();
    }
}
