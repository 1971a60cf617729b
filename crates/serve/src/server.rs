//! The `focus serve` daemon: accept loop, worker pool, job lifecycle.
//!
//! ## Threads
//!
//! * `http_threads` acceptor/handler threads share one nonblocking
//!   listener; each handles one connection at a time under a total
//!   per-request wall-clock budget ([`ServeConfig::request_budget`], via
//!   [`http::DeadlineReader`]), so even a stalled or slow-loris client
//!   occupies a thread only briefly and `/healthz` stays responsive
//!   under load.
//! * `workers` assembly workers pull jobs from the [`Scheduler`] under a
//!   single mutex + condvar and execute them outside the lock through the
//!   injected [`JobRunner`] with [`run_with_retry`].
//!
//! ## Job lifecycle & crash safety
//!
//! ```text
//! POST /jobs ─precheck─┬─► Rejected (typed 429/503, no disk I/O)
//!                      └─► persist input+meta ─► admit ─► 202 queued
//! worker: dispatch ─► run (ckpt under jobs/<id>/ckpt, retry w/ backoff)
//!         ─► write contigs+metrics ─► write status (terminal commit)
//! ```
//!
//! Admission persists *before* the scheduler sees the job, so a dispatched
//! job always has its input on disk; a crash at any point leaves either a
//! torn dir (removed at startup), a pending job (re-admitted and resumed
//! from its checkpoints at startup), or a terminal status. Memory stays
//! bounded: queued+running jobs are capped by the scheduler bounds, and
//! terminal jobs live only on disk.
//!
//! Deadlines are best-effort wall-clock budgets checked at dispatch time
//! (a job whose deadline passed while queued fails with a typed reason);
//! they restart after a crash, which keeps resumed output byte-identical.

use crate::error::ServeError;
use crate::http::{self, json_str, Request, Response};
use crate::job::{JobId, Priority};
use crate::metrics::{self, TenantNames};
use crate::runner::{run_with_retry, JobContext, JobRunner, RunResult};
use crate::sched::{AdmitOutcome, Rejection, SchedConfig, Scheduler, ShedJob};
use crate::state::{
    input_fnv, valid_tenant_name, JobRecord, StateDir, TerminalState, TerminalStatus,
};
use fc_obs::sync::{Mutex, Rank};
use fc_obs::{MemoryBudget, ObsOptions, Recorder, Reservation};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The largest request body the server accepts; a longer declared
/// `content-length` is refused with a typed 413 before any body is read.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Server configuration. Zero values mean "pick a default" where noted.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (port 0 picks a free port).
    pub addr: String,
    /// Concurrent assembly workers (0 → 2).
    pub workers: usize,
    /// HTTP handler threads (0 → 2).
    pub http_threads: usize,
    /// Threads per assembly job (0 → `available_parallelism / workers`,
    /// at least 1; explicit values are clamped to available cores).
    pub job_threads: usize,
    /// Socket read/write timeout per connection.
    pub io_timeout: Duration,
    /// Total wall-clock budget for *reading* one request (0 → 10 s). The
    /// per-read `io_timeout` resets on every byte, so this is the bound
    /// that stops a slow-loris client from pinning an HTTP thread.
    pub request_budget: Duration,
    /// Queue bounds and fairness quantum.
    pub sched: SchedConfig,
    /// Attempts per job, the first included (must be at least 1); a
    /// transient failure is retried until they run out.
    pub max_attempts: u32,
    /// Memory budget for admitted (queued + running) jobs, bytes
    /// (0 → unlimited). Each job reserves a coarse resident-set estimate
    /// at admission and releases it at its terminal state; arrivals that
    /// do not fit are shed with a typed `memory_pressure` 503 until
    /// pressure clears.
    pub memory_budget: u64,
    /// Wall-clock length of one backoff unit (waits run 10, 20, 40, 80,
    /// then 160 units); tests set this to zero.
    pub backoff_unit: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            workers: 2,
            http_threads: 2,
            job_threads: 0,
            io_timeout: Duration::from_secs(5),
            request_budget: Duration::from_secs(10),
            sched: SchedConfig::default(),
            max_attempts: 4,
            memory_budget: 0,
            backoff_unit: Duration::from_millis(25),
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, resolving defaults in place.
    pub fn validated(mut self) -> Result<ServeConfig, ServeError> {
        if self.addr.is_empty() {
            return Err(ServeError::config("addr", "bind address is empty"));
        }
        if self.max_attempts == 0 {
            return Err(ServeError::config("max_attempts", "must be at least 1"));
        }
        if self.workers == 0 {
            self.workers = 2;
        }
        if self.http_threads == 0 {
            self.http_threads = 2;
        }
        if self.request_budget.is_zero() {
            self.request_budget = Duration::from_secs(10);
        }
        self.sched = self.sched.sanitized();
        Ok(self)
    }
}

/// Lifecycle mode; admissions close as soon as the mode leaves `RUNNING`.
const MODE_RUNNING: u8 = 0;
/// Finish every queued job, then exit.
const MODE_DRAIN: u8 = 1;
/// Finish only currently-running jobs; queued jobs stay durable on disk
/// and resume on the next start.
const MODE_FAST: u8 = 2;

/// A queued or running job. Terminal jobs are dropped from memory and
/// served from disk, so this map is bounded by
/// `sched.total_capacity + workers`.
#[derive(Debug)]
struct ActiveJob {
    record: JobRecord,
    admitted_at: Instant,
    cancel: Arc<AtomicBool>,
    running: bool,
    /// The job's slice of the server memory budget, held for RAII only:
    /// dropping the entry (terminal state, shed, cancel) releases it.
    _mem: Reservation,
}

/// Scheduler + active-job table behind one lock (they must mutate
/// together: every queued entry has an `ActiveJob` and vice versa).
struct Core {
    sched: Scheduler,
    active: HashMap<u64, ActiveJob>,
    running: usize,
}

struct Shared {
    cfg: ServeConfig,
    state: StateDir,
    recorder: Recorder,
    runner: Arc<dyn JobRunner>,
    core: Mutex<Core>,
    work_cv: Condvar,
    mode: AtomicU8,
    /// Workers still running; the HTTP threads keep serving status and
    /// typed `closed` rejections until the last worker exits, so clients
    /// can watch a drain finish.
    workers_left: AtomicUsize,
    next_id: AtomicU64,
    tenant_names: TenantNames,
    job_threads: usize,
    /// Admission-side memory ledger (unlimited when no budget is set).
    mem: MemoryBudget,
}

/// A running `focus serve` instance. Dropping it performs a fast shutdown;
/// call [`Serve::shutdown`] + [`Serve::join`] for a graceful drain.
pub struct Serve {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Serve {
    /// Binds, recovers pending jobs from `state_dir`, and spawns the
    /// acceptor and worker threads.
    pub fn start(
        cfg: ServeConfig,
        state_dir: impl Into<PathBuf>,
        runner: Arc<dyn JobRunner>,
    ) -> Result<Serve, ServeError> {
        let cfg = cfg.validated()?;
        let state = StateDir::open(state_dir)?;
        let recorder = Recorder::new(ObsOptions::wall_clock());
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::io(format!("bind {}", cfg.addr), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::io("local_addr", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::io("set_nonblocking", e))?;

        let job_threads = resolve_job_threads(&cfg, &recorder);
        let mem = match cfg.memory_budget {
            0 => MemoryBudget::unlimited(),
            limit => MemoryBudget::with_limit(limit),
        };
        let scan = state.scan()?;
        recorder.add(metrics::STATE_TORN, scan.torn as u64);
        recorder.add(metrics::STATE_UNREADABLE, scan.unreadable as u64);
        let mut core = Core {
            sched: Scheduler::new(cfg.sched),
            active: HashMap::new(),
            running: 0,
        };
        let tenant_names = TenantNames::new(cfg.sched.max_tenants);
        let next_id = AtomicU64::new(scan.max_id + 1);
        // Re-admit every in-flight job in id order so the recovered queue
        // is deterministic. Pending jobs can exceed the (possibly shrunk)
        // bounds and memory budget: a job they no longer accept fails with
        // a typed reason rather than vanishing, and a high-priority record
        // can shed a lower one exactly as a live arrival would.
        for record in scan.pending {
            let id = record.id;
            match admit(&mut core, &mem, record) {
                Ok(shed) => {
                    recorder.add(metrics::JOBS_RESUMED, 1);
                    if let Some(victim) = shed {
                        finalize_shed(&state, &recorder, &victim, id)?;
                    }
                }
                Err(r) => {
                    state.write_status(
                        id,
                        &TerminalStatus::plain(
                            TerminalState::Failed,
                            format!("not re-admitted after restart: {}", r.kind()),
                        ),
                    )?;
                    recorder.add(metrics::JOBS_FAILED, 1);
                }
            }
        }

        let shared = Arc::new(Shared {
            job_threads,
            cfg,
            state,
            recorder,
            runner,
            core: Mutex::new(Rank::ServeCore, core),
            work_cv: Condvar::new(),
            mode: AtomicU8::new(MODE_RUNNING),
            workers_left: AtomicUsize::new(0),
            next_id,
            tenant_names,
            mem,
        });

        let mut threads = Vec::new();
        for i in 0..shared.cfg.http_threads {
            let shared = Arc::clone(&shared);
            let listener = listener
                .try_clone()
                .map_err(|e| ServeError::io("clone listener", e))?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-http-{i}"))
                    .spawn(move || accept_loop(&shared, &listener))
                    .map_err(|e| ServeError::io("spawn http thread", e))?,
            );
        }
        for i in 0..shared.cfg.workers {
            let shared = Arc::clone(&shared);
            shared.workers_left.fetch_add(1, Ordering::SeqCst);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&shared);
                        shared.workers_left.fetch_sub(1, Ordering::SeqCst);
                    })
                    .map_err(|e| ServeError::io("spawn worker thread", e))?,
            );
        }

        Ok(Serve {
            shared,
            addr,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's wall-clock recorder (the one `/metrics` serves).
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// Closes admissions and begins shutdown. `drain = true` finishes
    /// every queued job first; `false` finishes only running jobs and
    /// leaves queued jobs durable for the next start.
    pub fn shutdown(&self, drain: bool) {
        begin_shutdown(&self.shared, drain);
    }

    /// Waits for every thread to exit (call [`Serve::shutdown`] first).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            begin_shutdown(&self.shared, false);
            for t in self.threads.drain(..) {
                let _ = t.join();
            }
        }
    }
}

fn begin_shutdown(shared: &Shared, drain: bool) {
    let mode = if drain { MODE_DRAIN } else { MODE_FAST };
    shared.mode.store(mode, Ordering::SeqCst);
    shared.core.lock().sched.close();
    shared.work_cv.notify_all();
}

fn resolve_job_threads(cfg: &ServeConfig, recorder: &Recorder) -> usize {
    #[expect(
        clippy::disallowed_methods,
        reason = "config layer: job_threads == 0 divides the machine between workers at \
                  startup; per-job assembly stays deterministic at any thread count"
    )]
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cfg.job_threads == 0 {
        // Auto: divide the machine between concurrent workers.
        (cores / cfg.workers.max(1)).max(1)
    } else if cfg.job_threads > cores {
        // Oversubscription makes assembly *slower* (threads beyond the
        // cores only time-slice); clamp and record, do not thrash silently.
        recorder.add(metrics::THREADS_CLAMPED, 1);
        recorder.instant(
            "serve",
            "job_threads_clamped",
            &[
                ("requested", cfg.job_threads as i64),
                ("available", cores as i64),
            ],
        );
        cores
    } else {
        cfg.job_threads
    }
}

// ---------------------------------------------------------------------------
// HTTP front end
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        if shared.mode.load(Ordering::SeqCst) != MODE_RUNNING
            && shared.workers_left.load(Ordering::SeqCst) == 0
        {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => handle_connection(shared, stream),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    shared.recorder.add(metrics::HTTP_REQUESTS, 1);
    // The reader installs its own per-read socket timeouts, bounded by
    // both io_timeout and the remaining request budget.
    let mut reader =
        http::DeadlineReader::new(&stream, shared.cfg.io_timeout, shared.cfg.request_budget);
    let response = match http::read_request(&mut reader, MAX_BODY_BYTES) {
        Ok(req) => route(shared, &req),
        Err(e) => {
            shared.recorder.add(metrics::HTTP_ERRORS, 1);
            match e.status() {
                Some(status) => Response::error(status, "bad_request", &e.reason()),
                None => return, // dead socket; nothing to answer
            }
        }
    };
    let _ = http::write_response(&mut stream, &response);
}

fn route(shared: &Shared, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("GET", ["metrics"]) => serve_metrics(shared, req),
        ("POST", ["jobs"]) => submit_job(shared, req),
        ("GET", ["jobs", id]) => with_job(id, |id| job_status(shared, id)),
        ("GET", ["jobs", id, "contigs"]) => with_job(id, |id| job_artifact(shared, id, "contigs")),
        ("GET", ["jobs", id, "metrics"]) => with_job(id, |id| job_artifact(shared, id, "metrics")),
        ("GET", ["jobs", id, "trace"]) => with_job(id, |id| job_artifact(shared, id, "trace")),
        ("DELETE", ["jobs", id]) => with_job(id, |id| cancel_job(shared, id)),
        ("POST", ["admin", "shutdown"]) => admin_shutdown(shared, req),
        (_, ["healthz" | "metrics" | "jobs", ..]) | (_, ["admin", "shutdown"]) => {
            Response::error(405, "method_not_allowed", "unsupported method for path")
        }
        _ => Response::error(404, "not_found", "unknown path"),
    }
}

fn with_job(raw: &str, f: impl FnOnce(JobId) -> Response) -> Response {
    match JobId::parse(raw) {
        Some(id) => f(id),
        None => Response::error(400, "bad_request", "malformed job id"),
    }
}

fn serve_metrics(shared: &Shared, req: &Request) -> Response {
    {
        let core = shared.core.lock();
        let rec = &shared.recorder;
        rec.gauge(metrics::QUEUE_DEPTH, core.sched.total_depth() as i64);
        rec.gauge(metrics::RUNNING, core.running as i64);
        rec.gauge(
            metrics::MEM_RESERVED,
            shared.mem.used().min(i64::MAX as u64) as i64,
        );
        rec.gauge(
            metrics::MEM_LIMIT,
            shared.mem.limit().unwrap_or(0).min(i64::MAX as u64) as i64,
        );
        for (tenant, depth) in core.sched.tenant_depths() {
            if let Some(name) = shared.tenant_names.depth_gauge(tenant) {
                rec.gauge(name, depth as i64);
            }
        }
    }
    // `?format=text` renders the human exposition, which derives
    // p50/p90/p99 for every histogram (job latency, queue wait). The JSON
    // default stays the raw snapshot so automated byte-diffs keep working.
    if req.query_param("format") == Some("text") {
        return Response::text(200, fc_obs::human_report(&shared.recorder.snapshot()));
    }
    Response::json(200, shared.recorder.snapshot_json())
}

fn submit_job(shared: &Shared, req: &Request) -> Response {
    let tenant = req.query_param("tenant").unwrap_or("default");
    if !valid_tenant_name(tenant) {
        return Response::error(400, "bad_request", "tenant must match [A-Za-z0-9_-]{1,64}");
    }
    let priority = match req.query_param("priority") {
        None => Priority::Normal,
        Some(raw) => match Priority::parse(raw) {
            Some(p) => p,
            None => return Response::error(400, "bad_request", "priority must be low|normal|high"),
        },
    };
    let deadline_ms = match req.query_param("deadline_ms") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(ms),
            Err(_) => return Response::error(400, "bad_request", "deadline_ms must be a number"),
        },
    };
    if req.body.is_empty() {
        return Response::error(400, "bad_request", "empty body: POST raw FASTQ bytes");
    }

    // Cheap pre-check: refuse without touching disk when the scheduler
    // could not possibly admit right now. The post-persist admit below is
    // authoritative; this only keeps saturation from causing disk churn.
    // Bound as a statement so the core guard drops before `reject` touches
    // the recorder's locks (an if-let scrutinee temporary would outlive the
    // whole branch).
    let precheck = shared.core.lock().sched.would_reject(tenant, priority);
    if let Some(r) = precheck {
        return reject(shared, r);
    }
    let estimate = job_mem_estimate(req.body.len() as u64);
    if !shared.mem.would_fit(estimate) {
        return reject(
            shared,
            Rejection::MemoryPressure {
                requested: estimate,
                available: shared.mem.remaining(),
            },
        );
    }

    let id = JobId(shared.next_id.fetch_add(1, Ordering::SeqCst));
    let record = JobRecord {
        id,
        tenant: tenant.to_string(),
        priority,
        deadline_ms,
        input_len: req.body.len() as u64,
        input_fnv: input_fnv(&req.body),
    };
    if let Err(e) = shared.state.persist_job(&record, &req.body) {
        return Response::error(500, "state_error", &format!("{e}"));
    }

    // The precheck above was advisory; this admission is authoritative and
    // races with other arrivals and releases, so it can still refuse here.
    // Bound as a statement, like the precheck, so the core guard drops
    // before the rollback and `reject`.
    let admitted = admit(&mut shared.core.lock(), &shared.mem, record);
    let shed = match admitted {
        Ok(shed) => shed,
        Err(r) => {
            // Roll the unacknowledged persist back; the client never
            // learned this id.
            let _ = std::fs::remove_dir_all(shared.state.job_dir(id));
            return reject(shared, r);
        }
    };
    shared.recorder.add(metrics::JOBS_ADMITTED, 1);
    if let Some(victim) = &shed {
        let _ = finalize_shed(&shared.state, &shared.recorder, victim, id);
    }
    shared.work_cv.notify_one();

    let shed_field = match &shed {
        Some(v) => format!(",\"shed\":{}", json_str(&v.id.dir_name())),
        None => String::new(),
    };
    Response::json(
        202,
        format!(
            "{{\"id\":{},\"state\":\"queued\",\"tenant\":{},\"priority\":{}{}}}",
            json_str(&id.dir_name()),
            json_str(tenant),
            json_str(priority.as_str()),
            shed_field
        ),
    )
}

/// Reservation label for admitted jobs in the server memory ledger.
const JOB_MEM_LABEL: &str = "serve-job";

/// Coarse resident-set estimate for one job: the raw FASTQ body, its
/// parsed reads, and the RC-paired read store are each about input-sized,
/// plus one input of slack for alignment artifacts. Deliberately simple —
/// admission control needs a monotone, explainable bound, not a profile.
fn job_mem_estimate(input_len: u64) -> u64 {
    input_len.saturating_mul(4)
}

fn reject(shared: &Shared, r: Rejection) -> Response {
    shared.recorder.add(metrics::rejection_counter(r.kind()), 1);
    Response::error(r.http_status(), r.kind(), &format!("{r:?}"))
}

/// Queues `record` under the scheduler bounds and the memory budget, the
/// one admission path of both `POST /jobs` and restart recovery. It
/// reserves the job's slice of `mem`, admits it, drops a shed victim from
/// the active table and registers the job; the caller ends a returned
/// victim with [`finalize_shed`]. A refusal leaves `core` and `mem` as
/// they were.
fn admit(
    core: &mut Core,
    mem: &MemoryBudget,
    record: JobRecord,
) -> Result<Option<ShedJob>, Rejection> {
    let reservation = mem
        .try_reserve(JOB_MEM_LABEL, job_mem_estimate(record.input_len))
        .map_err(|e| Rejection::MemoryPressure {
            requested: e.requested,
            available: mem.remaining(),
        })?;
    match core.sched.admit(&record.tenant, record.id, record.priority) {
        AdmitOutcome::Rejected(r) => Err(r),
        AdmitOutcome::Queued { shed } => {
            if let Some(victim) = &shed {
                core.active.remove(&victim.id.0);
            }
            let job = ActiveJob {
                record,
                #[expect(
                    clippy::disallowed_methods,
                    reason = "queue age for serve.job.queue_ms; the scheduler state, not \
                              this timestamp, makes admission and scheduling decisions"
                )]
                admitted_at: Instant::now(),
                cancel: Arc::new(AtomicBool::new(false)),
                running: false,
                _mem: reservation,
            };
            core.active.insert(job.record.id.0, job);
            Ok(shed)
        }
    }
}

/// Ends a job displaced by the higher-priority job `by` with a terminal
/// `shed` status naming it.
fn finalize_shed(
    state: &StateDir,
    recorder: &Recorder,
    victim: &ShedJob,
    by: JobId,
) -> Result<(), ServeError> {
    recorder.add(metrics::JOBS_SHED, 1);
    let message = format!("shed: displaced by higher-priority job {}", by.dir_name());
    state.write_status(
        victim.id,
        &TerminalStatus::plain(TerminalState::Shed, message),
    )
}

fn job_status(shared: &Shared, id: JobId) -> Response {
    // Disk first: a terminal status is authoritative and immutable.
    match shared.state.read_status(id) {
        Ok(Some(s)) => {
            return Response::json(
                200,
                format!(
                    "{{\"id\":{},\"state\":{},\"message\":{},\"num_contigs\":{},\"n50\":{},\"total_bases\":{}}}",
                    json_str(&id.dir_name()),
                    json_str(s.state.as_str()),
                    json_str(&s.message),
                    s.num_contigs,
                    s.n50,
                    s.total_bases
                ),
            );
        }
        Ok(None) => {}
        Err(e) => return Response::error(500, "state_error", &format!("{e}")),
    }
    let core = shared.core.lock();
    if let Some(job) = core.active.get(&id.0) {
        let state = if job.running { "running" } else { "queued" };
        return Response::json(
            200,
            format!(
                "{{\"id\":{},\"state\":{},\"tenant\":{},\"priority\":{}}}",
                json_str(&id.dir_name()),
                json_str(state),
                json_str(&job.record.tenant),
                json_str(job.record.priority.as_str())
            ),
        );
    }
    drop(core);
    match shared.state.read_meta(id) {
        // Meta exists but the job is neither active nor terminal: we are
        // mid-transition (or it awaits re-admission); report it as queued.
        Ok(Some(_)) => Response::json(
            200,
            format!(
                "{{\"id\":{},\"state\":\"queued\"}}",
                json_str(&id.dir_name())
            ),
        ),
        Ok(None) => Response::error(404, "not_found", "unknown job"),
        Err(e) => Response::error(500, "state_error", &format!("{e}")),
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "serves an artifact (contigs/metrics/trace) this server's own job wrote \
              under its memory budget; the job's admitted budget, not the requester, \
              bounds the file"
)]
fn job_artifact(shared: &Shared, id: JobId, what: &str) -> Response {
    let (path, content_type) = match what {
        "contigs" => (shared.state.contigs_path(id), "text/plain; charset=utf-8"),
        "trace" => (shared.state.trace_path(id), "application/json"),
        _ => (shared.state.metrics_path(id), "application/json"),
    };
    match std::fs::read(&path) {
        Ok(body) => Response {
            status: 200,
            content_type,
            body,
        },
        Err(e) if e.kind() == ErrorKind::NotFound => match shared.state.read_status(id) {
            Ok(Some(s)) => Response::error(
                409,
                "no_artifact",
                &format!("job is {}, artifact unavailable", s.state.as_str()),
            ),
            Ok(None) => Response::error(409, "not_ready", "job has not completed yet"),
            Err(err) => Response::error(500, "state_error", &format!("{err}")),
        },
        Err(e) => Response::error(500, "state_error", &format!("read artifact: {e}")),
    }
}

fn cancel_job(shared: &Shared, id: JobId) -> Response {
    let mut core = shared.core.lock();
    if core.sched.cancel(id).is_some() {
        core.active.remove(&id.0);
        drop(core);
        shared.recorder.add(metrics::JOBS_CANCELED, 1);
        let status = TerminalStatus::plain(TerminalState::Canceled, "canceled while queued");
        if let Err(e) = shared.state.write_status(id, &status) {
            return Response::error(500, "state_error", &format!("{e}"));
        }
        return Response::json(
            200,
            format!(
                "{{\"id\":{},\"state\":\"canceled\"}}",
                json_str(&id.dir_name())
            ),
        );
    }
    if let Some(job) = core.active.get(&id.0) {
        // Running: cooperative — observed between retry attempts and at
        // runner-defined poll points.
        job.cancel.store(true, Ordering::Relaxed);
        return Response::json(
            202,
            format!(
                "{{\"id\":{},\"state\":\"cancel_requested\"}}",
                json_str(&id.dir_name())
            ),
        );
    }
    drop(core);
    match shared.state.read_status(id) {
        Ok(Some(s)) => Response::error(
            409,
            "already_terminal",
            &format!("job already {}", s.state.as_str()),
        ),
        Ok(None) => Response::error(404, "not_found", "unknown job"),
        Err(e) => Response::error(500, "state_error", &format!("{e}")),
    }
}

fn admin_shutdown(shared: &Shared, req: &Request) -> Response {
    let drain = match req.query_param("mode").unwrap_or("drain") {
        "drain" => true,
        "fast" => false,
        _ => return Response::error(400, "bad_request", "mode must be drain|fast"),
    };
    begin_shutdown(shared, drain);
    Response::json(
        200,
        format!(
            "{{\"state\":\"shutting_down\",\"mode\":{}}}",
            json_str(if drain { "drain" } else { "fast" })
        ),
    )
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let Some((id, record, cancel, queued_ms)) = next_job(shared) else {
            return;
        };
        // Deadline: best-effort, checked at the dispatch boundary.
        if let Some(deadline) = record.deadline_ms {
            if queued_ms > deadline {
                shared.recorder.add(metrics::JOBS_DEADLINE, 1);
                finish(
                    shared,
                    id,
                    queued_ms,
                    TerminalStatus::plain(
                        TerminalState::Failed,
                        format!("deadline of {deadline} ms exceeded while queued ({queued_ms} ms)"),
                    ),
                    metrics::JOBS_FAILED,
                );
                continue;
            }
        }
        let ctx = JobContext {
            id,
            tenant: record.tenant.clone(),
            input_path: shared.state.input_path(id),
            ckpt_dir: shared.state.ckpt_dir(id),
            threads: shared.job_threads,
            cancel,
        };
        shared
            .recorder
            .observe_with(metrics::JOB_QUEUE_MS, queued_ms, metrics::LATENCY_BOUNDS_MS);
        #[expect(
            clippy::disallowed_methods,
            reason = "job wall time for serve.job.run_ms; the serve layer is a scheduling \
                      surface, outside the bit-identical assembly contract"
        )]
        let started = Instant::now();
        let result = run_with_retry(
            shared.runner.as_ref(),
            &ctx,
            shared.cfg.max_attempts,
            shared.cfg.backoff_unit,
            &shared.recorder,
        );
        let total_ms = queued_ms + started.elapsed().as_millis() as u64;
        match result {
            RunResult::Completed(out) => {
                if let Err(e) = shared.state.write_outputs(
                    id,
                    &out.contigs_fasta,
                    &out.metrics_json,
                    &out.trace_json,
                ) {
                    finish(
                        shared,
                        id,
                        total_ms,
                        TerminalStatus::plain(
                            TerminalState::Failed,
                            format!("persisting outputs failed: {e}"),
                        ),
                        metrics::JOBS_FAILED,
                    );
                    continue;
                }
                finish(
                    shared,
                    id,
                    total_ms,
                    TerminalStatus {
                        state: TerminalState::Done,
                        message: "ok".to_string(),
                        num_contigs: out.num_contigs,
                        n50: out.n50,
                        total_bases: out.total_bases,
                    },
                    metrics::JOBS_COMPLETED,
                );
            }
            RunResult::Canceled => finish(
                shared,
                id,
                total_ms,
                TerminalStatus::plain(TerminalState::Canceled, "canceled while running"),
                metrics::JOBS_CANCELED,
            ),
            RunResult::Failed { attempts, message } => finish(
                shared,
                id,
                total_ms,
                TerminalStatus::plain(
                    TerminalState::Failed,
                    format!("failed after {attempts} attempt(s): {message}"),
                ),
                metrics::JOBS_FAILED,
            ),
        }
    }
}

/// Blocks until a job is available or shutdown says to exit. Returns the
/// job plus its queue delay in milliseconds.
fn next_job(shared: &Shared) -> Option<(JobId, JobRecord, Arc<AtomicBool>, u64)> {
    let mut core = shared.core.lock();
    loop {
        let mode = shared.mode.load(Ordering::SeqCst);
        if mode == MODE_FAST {
            return None;
        }
        if let Some(id) = core.sched.dispatch() {
            let Some(job) = core.active.get_mut(&id.0) else {
                continue; // cancel raced the dispatch; take the next job
            };
            job.running = true;
            let queued_ms = job.admitted_at.elapsed().as_millis() as u64;
            let out = (id, job.record.clone(), Arc::clone(&job.cancel), queued_ms);
            core.running += 1;
            return Some(out);
        }
        if mode == MODE_DRAIN {
            return None; // queue is empty and we are draining
        }
        core = core
            .wait_timeout(&shared.work_cv, Duration::from_millis(50))
            .0;
    }
}

/// Commits a terminal status, updates counters/histograms, and releases
/// the in-memory slot.
fn finish(
    shared: &Shared,
    id: JobId,
    total_ms: u64,
    status: TerminalStatus,
    counter: &'static str,
) {
    let _ = shared.state.write_status(id, &status);
    shared.recorder.add(counter, 1);
    shared.recorder.observe_with(
        metrics::JOB_LATENCY_MS,
        total_ms,
        metrics::LATENCY_BOUNDS_MS,
    );
    let mut core = shared.core.lock();
    if core.active.remove(&id.0).is_some() && core.running > 0 {
        core.running -= 1;
    }
}
