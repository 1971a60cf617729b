//! End-to-end API tests for the serve daemon over real sockets, using a
//! mock [`JobRunner`] so no assembly pipeline is needed: admission,
//! status/artifact retrieval, backpressure, shedding, cancellation,
//! deadlines, and fast-shutdown → restart resume.

use fc_serve::sched::SchedConfig;
use fc_serve::server::{Serve, ServeConfig, MAX_BODY_BYTES};
use fc_serve::{JobContext, JobError, JobOutput, JobRunner, ServeError};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic mock: "assembles" the input by uppercasing it; sleeps
/// `delay` per run so tests can hold jobs in the queue.
struct MockRunner {
    delay: Duration,
}

impl JobRunner for MockRunner {
    fn run(&self, ctx: &JobContext) -> Result<JobOutput, JobError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let input = std::fs::read(&ctx.input_path)
            .map_err(|e| JobError::permanent(format!("read input: {e}")))?;
        let body = String::from_utf8_lossy(&input).to_uppercase();
        Ok(JobOutput {
            contigs_fasta: format!(">contig_0 len={}\n{body}\n", body.trim().len()).into_bytes(),
            metrics_json: format!("{{\"len\":{}}}", body.trim().len()),
            trace_json: "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}".to_string(),
            num_contigs: 1,
            n50: body.trim().len() as u64,
            total_bases: body.trim().len() as u64,
        })
    }
}

/// A state directory under the temp dir, removed when the test drops it.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("fc-serve-api-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

fn small_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        http_threads: 2,
        backoff_unit: Duration::ZERO,
        sched: SchedConfig {
            per_tenant_capacity: 4,
            total_capacity: 6,
            max_tenants: 4,
            quantum: 2,
        },
        ..ServeConfig::default()
    }
}

/// Minimal HTTP/1.1 client: one request, returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {text}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = body.find(&pat)? + pat.len();
    let end = body[start..].find('"')? + start;
    Some(&body[start..end])
}

fn submit(addr: SocketAddr, query: &str, body: &[u8]) -> (u16, String) {
    request(addr, "POST", &format!("/jobs{query}"), body)
}

fn wait_terminal(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), b"");
        assert_eq!(status, 200, "{body}");
        let state = json_field(&body, "state").expect("state field").to_string();
        if !matches!(state.as_str(), "queued" | "running") {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn submit_runs_and_serves_artifacts() {
    let dir = temp_dir("roundtrip");
    let server = Serve::start(
        small_config(),
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::ZERO,
        }),
    )
    .expect("start");
    let addr = server.addr();

    let (status, body) = request(addr, "GET", "/healthz", b"");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = submit(addr, "?tenant=alice&priority=high", b"acgt");
    assert_eq!(status, 202, "{body}");
    let id = json_field(&body, "id").expect("id").to_string();

    let terminal = wait_terminal(addr, &id);
    assert_eq!(json_field(&terminal, "state"), Some("done"), "{terminal}");
    assert!(terminal.contains("\"num_contigs\":1"), "{terminal}");

    let (status, contigs) = request(addr, "GET", &format!("/jobs/{id}/contigs"), b"");
    assert_eq!(status, 200);
    assert_eq!(contigs, ">contig_0 len=4\nACGT\n");
    let (status, metrics) = request(addr, "GET", &format!("/jobs/{id}/metrics"), b"");
    assert_eq!((status, metrics.as_str()), (200, "{\"len\":4}"));
    let (status, trace) = request(addr, "GET", &format!("/jobs/{id}/trace"), b"");
    assert_eq!(status, 200);
    assert!(trace.contains("traceEvents"), "{trace}");

    let (status, metrics) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve.jobs.admitted"), "{metrics}");
    assert!(metrics.contains("serve.queue.depth.alice"), "{metrics}");

    // The text exposition derives percentile summaries for histograms.
    let (status, text) = request(addr, "GET", "/metrics?format=text", b"");
    assert_eq!(status, 200);
    assert!(text.contains("serve.job.latency_ms"), "{text}");
    assert!(text.contains("p99"), "{text}");

    let (status, _) = request(addr, "GET", "/jobs/job-999999", b"");
    assert_eq!(status, 404);

    server.shutdown(true);
    server.join();
}

#[test]
fn saturation_rejects_typed_and_health_stays_up() {
    let dir = temp_dir("saturate");
    let server = Serve::start(
        small_config(),
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::from_millis(150),
        }),
    )
    .expect("start");
    let addr = server.addr();

    let mut admitted = Vec::new();
    let mut kinds = Vec::new();
    // 1 worker × 150 ms jobs, tenant capacity 4: flood one tenant until
    // its queue rejects.
    for i in 0..12 {
        let (status, body) = submit(addr, "?tenant=alice", format!("read{i}").as_bytes());
        match status {
            202 => admitted.push(json_field(&body, "id").expect("id").to_string()),
            429 => kinds.push(json_field(&body, "error").expect("kind").to_string()),
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(!kinds.is_empty(), "flood never hit the tenant bound");
    assert!(kinds.iter().all(|k| k == "tenant_queue_full"), "{kinds:?}");

    // Health must answer while the queue is saturated.
    let (status, _) = request(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);

    for id in &admitted {
        let body = wait_terminal(addr, id);
        assert_eq!(json_field(&body, "state"), Some("done"), "{body}");
    }
    server.shutdown(true);
    server.join();
}

#[test]
fn high_priority_sheds_queued_low_priority() {
    let mut cfg = small_config();
    cfg.sched.total_capacity = 2;
    cfg.sched.per_tenant_capacity = 2;
    let dir = temp_dir("shed");
    let server = Serve::start(
        cfg,
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::from_millis(300),
        }),
    )
    .expect("start");
    let addr = server.addr();

    // First job occupies the single worker; two more fill the queue.
    let (_, first) = submit(addr, "?tenant=a&priority=low", b"r0");
    let first_id = json_field(&first, "id").expect("id").to_string();
    std::thread::sleep(Duration::from_millis(50)); // let it dispatch
    let mut low_ids = Vec::new();
    for i in 1..=2 {
        let (status, body) = submit(addr, "?tenant=a&priority=low", format!("r{i}").as_bytes());
        assert_eq!(status, 202, "{body}");
        low_ids.push(json_field(&body, "id").expect("id").to_string());
    }
    let (status, body) = submit(addr, "?tenant=b&priority=high", b"urgent");
    assert_eq!(status, 202, "{body}");
    let shed_id = json_field(&body, "shed").expect("shed field").to_string();
    assert_eq!(shed_id, low_ids[1], "newest queued low job is the victim");
    let high_id = json_field(&body, "id").expect("id").to_string();

    let shed_status = wait_terminal(addr, &shed_id);
    assert_eq!(
        json_field(&shed_status, "state"),
        Some("shed"),
        "{shed_status}"
    );
    let message = json_field(&shed_status, "message").expect("message field");
    assert!(
        message.contains(&high_id),
        "names the evicting job: {shed_status}"
    );
    for id in [&first_id, &low_ids[0]] {
        assert_eq!(json_field(&wait_terminal(addr, id), "state"), Some("done"));
    }
    server.shutdown(true);
    server.join();
}

#[test]
fn cancel_and_deadline_paths() {
    let dir = temp_dir("cancel");
    let server = Serve::start(
        small_config(),
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::from_millis(300),
        }),
    )
    .expect("start");
    let addr = server.addr();

    let (_, running) = submit(addr, "?tenant=a", b"busy");
    let running_id = json_field(&running, "id").expect("id").to_string();
    // Queued behind the running job: a 1 ms deadline it must miss, and a
    // job we cancel while it waits.
    let (_, doomed) = submit(addr, "?tenant=a&deadline_ms=1", b"late");
    let doomed_id = json_field(&doomed, "id").expect("id").to_string();
    let (_, waiting) = submit(addr, "?tenant=a", b"never");
    let waiting_id = json_field(&waiting, "id").expect("id").to_string();

    let (status, body) = request(addr, "DELETE", &format!("/jobs/{waiting_id}"), b"");
    assert_eq!(status, 200, "{body}");
    let body = wait_terminal(addr, &waiting_id);
    assert_eq!(json_field(&body, "state"), Some("canceled"), "{body}");
    let (status, _) = request(addr, "GET", &format!("/jobs/{waiting_id}/contigs"), b"");
    assert_eq!(status, 409, "no artifacts for canceled jobs");

    let body = wait_terminal(addr, &doomed_id);
    assert_eq!(json_field(&body, "state"), Some("failed"), "{body}");
    assert!(body.contains("deadline"), "{body}");
    assert_eq!(
        json_field(&wait_terminal(addr, &running_id), "state"),
        Some("done")
    );

    // Cancelling a terminal job is a typed conflict.
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{waiting_id}"), b"");
    assert_eq!(status, 409);
    server.shutdown(true);
    server.join();
}

#[test]
fn fast_shutdown_resumes_queued_jobs_on_restart() {
    let dir = temp_dir("resume");
    let slow = ServeConfig {
        workers: 1,
        ..small_config()
    };
    let server = Serve::start(
        slow.clone(),
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::from_millis(400),
        }),
    )
    .expect("start");
    let addr = server.addr();

    let mut ids = Vec::new();
    for i in 0..4 {
        let (status, body) = submit(addr, "?tenant=a", format!("batch{i}").as_bytes());
        assert_eq!(status, 202, "{body}");
        ids.push(json_field(&body, "id").expect("id").to_string());
    }
    // Fast shutdown: the running job finishes, queued jobs stay on disk.
    let (status, _) = request(addr, "POST", "/admin/shutdown?mode=fast", b"");
    assert_eq!(status, 200);
    let (status, body) = submit(addr, "?tenant=a", b"rejected");
    assert!(
        status == 503 || status == 400,
        "admissions closed after shutdown: {status} {body}"
    );
    server.join();

    // Restart on the same state dir with an instant runner.
    let server = Serve::start(
        slow,
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::ZERO,
        }),
    )
    .expect("restart");
    let addr = server.addr();
    for id in &ids {
        let body = wait_terminal(addr, id);
        assert_eq!(json_field(&body, "state"), Some("done"), "{body}");
    }
    let (_, metrics) = request(addr, "GET", "/metrics", b"");
    assert!(metrics.contains("serve.jobs.resumed"), "{metrics}");
    server.shutdown(true);
    server.join();
}

#[test]
fn recovery_overflow_sheds_instead_of_crashing() {
    // After a fast shutdown, queued + formerly-running jobs all come back
    // as pending; restarting with a *smaller* total capacity forces the
    // recovery loop into the shed path (a high-priority record re-admitted
    // into a full queue displaces a low one). The victim must get a
    // terminal "shed" status — not a startup panic or a zombie "queued".
    let dir = temp_dir("recovery-shed");
    let big = ServeConfig {
        workers: 1,
        sched: SchedConfig {
            per_tenant_capacity: 8,
            total_capacity: 8,
            max_tenants: 4,
            quantum: 2,
        },
        ..small_config()
    };
    let server = Serve::start(
        big.clone(),
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::from_millis(400),
        }),
    )
    .expect("start");
    let addr = server.addr();

    // One running low job + five queued low jobs + one queued high job.
    let (status, body) = submit(addr, "?tenant=a&priority=low", b"r1");
    assert_eq!(status, 202, "{body}");
    std::thread::sleep(Duration::from_millis(50)); // let it dispatch
    let mut low_ids = Vec::new();
    for i in 2..=6 {
        let (status, body) = submit(addr, "?tenant=a&priority=low", format!("r{i}").as_bytes());
        assert_eq!(status, 202, "{body}");
        low_ids.push(json_field(&body, "id").expect("id").to_string());
    }
    let (status, body) = submit(addr, "?tenant=b&priority=high", b"urgent");
    assert_eq!(status, 202, "{body}");
    let high_id = json_field(&body, "id").expect("id").to_string();
    let (status, _) = request(addr, "POST", "/admin/shutdown?mode=fast", b"");
    assert_eq!(status, 200);
    server.join();

    // Six pending jobs, capacity five: re-admitting the high job must shed
    // the newest low one.
    let server = Serve::start(
        ServeConfig {
            sched: SchedConfig {
                total_capacity: 5,
                ..big.sched
            },
            ..big
        },
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::ZERO,
        }),
    )
    .expect("restart must survive recovery overflow");
    let addr = server.addr();

    let victim = low_ids.last().expect("five low jobs");
    let body = wait_terminal(addr, victim);
    assert_eq!(json_field(&body, "state"), Some("shed"), "{body}");
    let message = json_field(&body, "message").expect("message field");
    assert!(message.contains(&high_id), "names the evicting job: {body}");
    for id in low_ids.iter().take(low_ids.len() - 1).chain([&high_id]) {
        let body = wait_terminal(addr, id);
        assert_eq!(json_field(&body, "state"), Some("done"), "{body}");
    }
    server.shutdown(true);
    server.join();
}

#[test]
fn restart_under_a_smaller_memory_budget_fails_the_job_that_no_longer_fits() {
    // Jobs queued under an unlimited budget come back after a fast
    // shutdown into a budget of 100 bytes. Each job reserves four times
    // its input, so the 100-byte input no longer fits and must fail with
    // a typed reason, while the small ones around it re-admit and finish.
    let dir = temp_dir("recovery-mem");
    let cfg = ServeConfig {
        workers: 1,
        ..small_config()
    };
    let server = Serve::start(
        cfg.clone(),
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::from_millis(400),
        }),
    )
    .expect("start");
    let addr = server.addr();
    let (status, body) = submit(addr, "?tenant=a", b"r1");
    assert_eq!(status, 202, "{body}");
    std::thread::sleep(Duration::from_millis(50)); // let it dispatch
    let mut ids = Vec::new();
    for input in [b"aa".to_vec(), vec![b'g'; 100], b"cc".to_vec()] {
        let (status, body) = submit(addr, "?tenant=a", &input);
        assert_eq!(status, 202, "{body}");
        ids.push(json_field(&body, "id").expect("id").to_string());
    }
    let (status, _) = request(addr, "POST", "/admin/shutdown?mode=fast", b"");
    assert_eq!(status, 200);
    server.join();

    let server = Serve::start(
        ServeConfig {
            memory_budget: 100,
            ..cfg
        },
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::ZERO,
        }),
    )
    .expect("restart must survive a shrunk memory budget");
    let addr = server.addr();
    let body = wait_terminal(addr, &ids[1]);
    assert_eq!(json_field(&body, "state"), Some("failed"), "{body}");
    assert_eq!(
        json_field(&body, "message"),
        Some("not re-admitted after restart: memory_pressure"),
        "{body}"
    );
    for id in [&ids[0], &ids[2]] {
        let body = wait_terminal(addr, id);
        assert_eq!(json_field(&body, "state"), Some("done"), "{body}");
    }
    server.shutdown(true);
    server.join();
}

#[test]
fn slow_loris_client_is_cut_off_at_the_request_budget() {
    let cfg = ServeConfig {
        io_timeout: Duration::from_millis(300),
        request_budget: Duration::from_millis(500),
        ..small_config()
    };
    let dir = temp_dir("loris");
    let server = Serve::start(
        cfg,
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::ZERO,
        }),
    )
    .expect("start");
    let addr = server.addr();

    // Drip header bytes faster than io_timeout so only the overall budget
    // can end the request; the server must drop us near request_budget.
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nx-drip: ")
        .expect("write head");
    let mut closed_at = None;
    while start.elapsed() < Duration::from_secs(10) {
        if stream.write_all(b"a").is_err() {
            closed_at = Some(start.elapsed());
            break;
        }
        // The 100 ms read timeout doubles as the drip interval; EOF or a
        // reset means the server hung up on us.
        match stream.read(&mut [0u8; 64]) {
            Ok(0) => {
                closed_at = Some(start.elapsed());
                break;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                closed_at = Some(start.elapsed());
                break;
            }
        }
    }
    let closed_at = closed_at.expect("server never cut off the slow-loris client");
    assert!(
        closed_at < Duration::from_secs(5),
        "cut-off took {closed_at:?}, budget is 500 ms"
    );

    // The handler thread is free again: health answers normally.
    let (status, body) = request(addr, "GET", "/healthz", b"");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown(true);
    server.join();
}

#[test]
fn protocol_errors_are_typed() {
    let dir = temp_dir("proto");
    let server = Serve::start(
        small_config(),
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::ZERO,
        }),
    )
    .expect("start");
    let addr = server.addr();
    let cases: [(&str, &str, &[u8], u16); 6] = [
        ("POST", "/jobs?tenant=bad/name", b"x", 400),
        ("POST", "/jobs?priority=urgent", b"x", 400),
        ("POST", "/jobs", b"", 400),
        ("PUT", "/jobs/job-000001", b"", 405),
        ("GET", "/nope", b"", 404),
        ("GET", "/jobs/not-a-job", b"", 400),
    ];
    for (method, path, body, want) in cases {
        let (status, resp) = request(addr, method, path, body);
        assert_eq!(status, want, "{method} {path}: {resp}");
    }
    server.shutdown(true);
    server.join();
}

/// A `POST /jobs` that declares one byte more than `MAX_BODY_BYTES` is
/// refused with a typed 413 from its head alone: the client sends no body,
/// the answer still comes, and no job was admitted.
#[test]
fn an_oversized_declared_body_is_a_typed_413_before_any_byte_of_it() {
    let dir = temp_dir("body-cap");
    let server = Serve::start(
        small_config(),
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::ZERO,
        }),
    )
    .expect("start");
    let addr = server.addr();
    assert_eq!(MAX_BODY_BYTES, 8 * 1024 * 1024);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(
        stream,
        "POST /jobs?tenant=big HTTP/1.1\r\nhost: t\r\ncontent-length: 8388609\r\n\r\n"
    )
    .expect("write head");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 413 "), "{text}");
    assert!(
        text.ends_with(
            "{\"error\":\"bad_request\",\"message\":\"body of 8388609 bytes exceeds 8388608 bytes\"}"
        ),
        "{text}"
    );
    let (status, body) = request(addr, "GET", "/jobs/job-000001", b"");
    assert_eq!(status, 404, "{body}");
    server.shutdown(true);
    server.join();
}

#[test]
fn memory_pressure_sheds_with_typed_503_until_jobs_release() {
    // Budget fits exactly one 8-byte job (estimate = 4 × input). The
    // runner is slow, so the first job holds its reservation while the
    // second arrives.
    let mut cfg = small_config();
    cfg.memory_budget = 40;
    let dir = temp_dir("mem-pressure");
    let server = Serve::start(
        cfg,
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::from_millis(300),
        }),
    )
    .expect("start");
    let addr = server.addr();

    let (status, body) = submit(addr, "?tenant=alice", b"acgtacgt");
    assert_eq!(status, 202, "{body}");
    let first = json_field(&body, "id").expect("id").to_string();

    // Same-size arrival while the first job still holds the budget: shed
    // with the typed memory_pressure 503, not queued, not a panic.
    let (status, body) = submit(addr, "?tenant=bob", b"acgtacgt");
    assert_eq!(status, 503, "{body}");
    assert_eq!(
        json_field(&body, "error"),
        Some("memory_pressure"),
        "{body}"
    );

    // A job small enough to fit beside the running one is admitted.
    let (status, body) = submit(addr, "?tenant=bob", b"a");
    assert_eq!(status, 202, "{body}");
    let small = json_field(&body, "id").expect("id").to_string();

    // Once the first job reaches a terminal state its reservation is
    // released and the previously-shed size fits again.
    let terminal = wait_terminal(addr, &first);
    assert_eq!(json_field(&terminal, "state"), Some("done"), "{terminal}");
    wait_terminal(addr, &small);
    let (status, body) = submit(addr, "?tenant=bob", b"acgtacgt");
    assert_eq!(status, 202, "{body}");
    let third = json_field(&body, "id").expect("id").to_string();
    wait_terminal(addr, &third);

    // The shed is visible in metrics: a typed rejection counter plus the
    // ledger gauges.
    let (status, metrics) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("serve.jobs.rejected.memory_pressure"),
        "{metrics}"
    );
    assert!(metrics.contains("serve.mem.limit"), "{metrics}");
    server.shutdown(true);
    server.join();
}

#[test]
fn zero_max_attempts_is_refused_as_a_typed_config_error() {
    let dir = temp_dir("zero-attempts");
    let result = Serve::start(
        ServeConfig {
            max_attempts: 0,
            ..small_config()
        },
        &*dir,
        Arc::new(MockRunner {
            delay: Duration::ZERO,
        }),
    );
    match result {
        Err(ServeError::Config(e)) => assert_eq!(e.field, "max_attempts"),
        Err(e) => panic!("expected a config error, got {e}"),
        Ok(_) => panic!("zero attempts accepted"),
    }
}
