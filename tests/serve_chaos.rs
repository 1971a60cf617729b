//! Process-level chaos for `focus serve`: SIGKILL the real server binary
//! mid-assembly, restart it on the same state directory, and require that
//! every in-flight job still finishes with contigs and metrics **byte
//! identical** to an uninterrupted reference run.
//!
//! This is the serving-layer counterpart of the contract matrix's resumed
//! points (`tests/common/matrix.rs`): those stop the in-process pipeline after
//! alignment, its one durable boundary; this one kills the
//! whole daemon at arbitrary points — mid-HTTP-write, mid-checkpoint,
//! mid-job-record-rewrite — via `kill -9`, which is exactly what the durable
//! job state (DESIGN.md §12) is built to survive. The server under test is
//! the actual release artifact (`CARGO_BIN_EXE_focus`), driven over real
//! sockets with a hand-rolled HTTP/1.1 client.

mod common;

use common::{tiled_reads, TempDir};
use focus_assembler::seq::fastq;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// [`tiled_reads`] serialized as FASTQ bytes — one job's POST body.
fn fastq_job(len: usize, seed: u64) -> Vec<u8> {
    let mut body = Vec::new();
    fastq::write(&mut body, &tiled_reads(len, seed), 30).expect("serialize fastq");
    body
}

/// The real `focus serve` process plus the ephemeral port it bound.
/// Dropping it SIGKILLs the child so a panicking test never leaks a daemon.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(state_dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_focus"))
            .args([
                "serve",
                "--state-dir",
                state_dir.to_str().expect("utf8 temp dir"),
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--threads",
                "2",
                "--partitions",
                "4",
                "--min-overlap",
                "40",
                "--min-read-len",
                "30",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn focus serve");
        // The CLI prints and flushes `serve: listening on <addr>` before
        // anything else; parse the ephemeral port out of that line.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listen line");
        let addr = line
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .trim()
            .parse()
            .expect("socket addr");
        Server { child, addr }
    }

    /// SIGKILL — no drain, no flush, no goodbye. The whole point.
    fn kill9(&mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }

    /// Graceful drain via the admin endpoint, then wait for process exit.
    fn drain(mut self) {
        let (status, _) = request(self.addr, "POST", "/admin/shutdown?mode=drain", b"");
        assert_eq!(status, 200, "drain request accepted");
        let code = self.child.wait().expect("wait for drained exit");
        assert!(code.success(), "clean exit after drain: {code:?}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Minimal HTTP/1.1 client: one request, returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
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

fn submit(addr: SocketAddr, body: &[u8]) -> String {
    let (status, resp) = request(addr, "POST", "/jobs?tenant=chaos", body);
    assert_eq!(status, 202, "submission admitted: {resp}");
    json_field(&resp, "id").expect("id field").to_string()
}

fn wait_done(addr: SocketAddr, id: &str, deadline: Instant) -> String {
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), b"");
        assert_eq!(status, 200, "{body}");
        match json_field(&body, "state").expect("state field") {
            "queued" | "running" => {}
            "done" => return body,
            other => panic!("job {id} ended {other}: {body}"),
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Fetches a terminal job's artifacts as raw bytes for byte comparison.
fn artifacts(addr: SocketAddr, id: &str) -> (String, String) {
    let (status, contigs) = request(addr, "GET", &format!("/jobs/{id}/contigs"), b"");
    assert_eq!(status, 200, "contigs served for {id}");
    let (status, metrics) = request(addr, "GET", &format!("/jobs/{id}/metrics"), b"");
    assert_eq!(status, 200, "metrics served for {id}");
    (contigs, metrics)
}

/// Runs `jobs` on a fresh server to completion without interference and
/// returns each job's (contigs, metrics) — the byte-exact reference.
fn reference_run(jobs: &[Vec<u8>]) -> Vec<(String, String)> {
    let dir = TempDir::new("serve-ref");
    let server = Server::start(&dir);
    let ids: Vec<String> = jobs.iter().map(|j| submit(server.addr, j)).collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    let out = ids
        .iter()
        .map(|id| {
            wait_done(server.addr, id, deadline);
            artifacts(server.addr, id)
        })
        .collect();
    server.drain();
    out
}

#[test]
fn kill9_loop_resumes_every_job_byte_identically() {
    let jobs: Vec<Vec<u8>> = [(2_000usize, 7u64), (2_500, 31), (1_800, 101)]
        .iter()
        .map(|&(len, seed)| fastq_job(len, seed))
        .collect();
    let reference = reference_run(&jobs);

    // Chaos run: same jobs, same binary, fresh state dir — but the server
    // is SIGKILLed and restarted several times while they execute. The
    // sleeps stagger the kill points across the job lifecycle (queued,
    // mid-phase, mid-checkpoint); exact timing is irrelevant to the
    // contract, which must hold wherever the kill lands.
    let dir = TempDir::new("serve-kill9");
    let mut server = Server::start(&dir);
    let ids: Vec<String> = jobs.iter().map(|j| submit(server.addr, j)).collect();

    for cycle in 0..4u64 {
        std::thread::sleep(Duration::from_millis(15 + 40 * cycle));
        server.kill9();
        server = Server::start(&dir);
        // The restarted server must answer health checks immediately, even
        // while it re-queues whatever the kill left behind.
        let (status, body) = request(server.addr, "GET", "/healthz", b"");
        assert_eq!((status, body.as_str()), (200, "ok\n"), "cycle {cycle}");
    }

    // Job IDs are durable state: the survivors finish under their original
    // names, and their artifacts match the uninterrupted run bit for bit.
    let deadline = Instant::now() + Duration::from_secs(180);
    for (i, id) in ids.iter().enumerate() {
        wait_done(server.addr, id, deadline);
        let (contigs, metrics) = artifacts(server.addr, id);
        assert_eq!(
            contigs, reference[i].0,
            "job {id}: contigs diverged from the uninterrupted run"
        );
        assert_eq!(
            metrics, reference[i].1,
            "job {id}: metrics diverged from the uninterrupted run"
        );
    }
    server.drain();
}
