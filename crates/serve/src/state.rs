//! Crash-safe on-disk job state.
//!
//! Layout under the server's state directory:
//!
//! ```text
//! state/
//! └── jobs/
//!     └── job-000001/
//!         ├── input.fastq    # raw submitted bytes, written first
//!         ├── job.meta       # admission record, written atomically LAST
//!         ├── ckpt/          # fc-ckpt checkpoints for the run
//!         ├── contigs.fasta  # output (atomic, present when done)
//!         ├── metrics.json   # logical-clock metrics snapshot (atomic)
//!         └── status.txt     # terminal state, written once at the end
//! ```
//!
//! The write protocol makes every crash window recoverable:
//!
//! 1. `input.fastq` is written and fsync'd, then `job.meta` is written
//!    atomically. A directory *without* `job.meta` is a torn admission —
//!    the client never got an acknowledgement — and is deleted at startup.
//! 2. A directory with `job.meta` but no `status.txt` is an in-flight job;
//!    startup re-admits it (jobs are therefore at-least-once: a crash
//!    between persist and acknowledgement runs an unacked job).
//! 3. `status.txt` is written once, after outputs, and is immutable; its
//!    presence makes the job terminal and frees all in-memory state.
//!
//! All multi-step writes go through `fc_ckpt::write_atomic` (unique temp,
//! fsync, rename, directory fsync), so concurrent writers and `kill -9` can
//! never leave a half-written artifact under a final name.

use crate::error::ServeError;
use crate::job::{JobId, Priority};
use fc_ckpt::CkptError;
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Header line of `job.meta`.
const META_HEADER: &str = "# focus serve job v1";
/// Header line of `status.txt`.
const STATUS_HEADER: &str = "# focus serve status v1";
/// The most bytes restart reads of a `job.meta` or `status.txt`. A meta
/// record is its header and six bounded fields — the tenant at most 64
/// bytes, each number at most 20 digits — under 256 bytes; a status record
/// is its header, a state, three numbers and a message `render_status`
/// cuts to [`STATUS_MESSAGE_LIMIT`]. A longer file is not one this server
/// wrote, and is refused as corrupt without being read past the limit.
const RECORD_LIMIT: u64 = 4096;
/// The longest status message `status.txt` keeps (failure messages quote
/// errors of any length); the rest is cut at a character boundary.
const STATUS_MESSAGE_LIMIT: usize = 2048;

/// FNV-1a over the raw input bytes; identifies a submission independently
/// of the server-assigned [`JobId`], so chaos tests can match jobs between
/// a reference run and a crash-looped run.
pub fn input_fnv(bytes: &[u8]) -> u64 {
    fc_ckpt::fnv1a(fc_ckpt::FNV1A_OFFSET, bytes.iter().copied())
}

/// Tenant names are path- and metric-safe: `[A-Za-z0-9_-]{1,64}`.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// The durable admission record for one job (`job.meta`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Server-assigned identifier.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// Wall-clock deadline in milliseconds from admission; `None` = no
    /// deadline. Best-effort: the budget restarts after a crash.
    pub deadline_ms: Option<u64>,
    /// Length of `input.fastq` in bytes.
    pub input_len: u64,
    /// [`input_fnv`] of the input bytes.
    pub input_fnv: u64,
}

/// Terminal disposition of a job (`status.txt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalState {
    /// Assembly completed; `contigs.fasta` and `metrics.json` are present.
    Done,
    /// Assembly failed permanently (or exhausted retries / deadline).
    Failed,
    /// Displaced by a higher-priority arrival under saturation.
    Shed,
    /// Cancelled by the client before completion.
    Canceled,
}

impl TerminalState {
    /// Stable disk/wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            TerminalState::Done => "done",
            TerminalState::Failed => "failed",
            TerminalState::Shed => "shed",
            TerminalState::Canceled => "canceled",
        }
    }

    /// Parses a disk/wire name.
    pub fn parse(s: &str) -> Option<TerminalState> {
        match s {
            "done" => Some(TerminalState::Done),
            "failed" => Some(TerminalState::Failed),
            "shed" => Some(TerminalState::Shed),
            "canceled" => Some(TerminalState::Canceled),
            _ => None,
        }
    }
}

/// Terminal status plus a result summary (zeroes unless `Done`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminalStatus {
    /// Final state.
    pub state: TerminalState,
    /// Human-readable disposition (shed reason, failure message, ...).
    pub message: String,
    /// Contig count for completed jobs.
    pub num_contigs: u64,
    /// N50 for completed jobs.
    pub n50: u64,
    /// Total assembled bases for completed jobs.
    pub total_bases: u64,
}

impl TerminalStatus {
    /// A non-`Done` status with a reason and a zeroed summary.
    pub fn plain(state: TerminalState, message: impl Into<String>) -> Self {
        TerminalStatus {
            state,
            message: message.into(),
            num_contigs: 0,
            n50: 0,
            total_bases: 0,
        }
    }
}

/// Result of scanning a state directory at startup.
#[derive(Debug, Default)]
pub struct Scan {
    /// Jobs with `job.meta` but no `status.txt`, sorted by id: these are
    /// re-admitted for (resumed) execution.
    pub pending: Vec<JobRecord>,
    /// Torn directories (no `job.meta`) that were removed.
    pub torn: usize,
    /// Ended jobs whose `status.txt` cannot be read (over the 4 KiB record
    /// limit, say, from a build that did not cut messages). The file's existence
    /// says the job ended, so it is not re-admitted.
    pub unreadable: usize,
    /// Highest job id seen anywhere, so new ids continue the sequence.
    pub max_id: u64,
}

/// Handle to a server state directory. Cheap to clone; all methods are
/// safe to call from multiple threads (atomicity comes from unique temp
/// names + `rename`, not locking).
#[derive(Debug, Clone)]
pub struct StateDir {
    root: PathBuf,
}

impl StateDir {
    /// Opens (creating if needed) a state directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<StateDir, ServeError> {
        let root = root.into();
        let jobs = root.join("jobs");
        fs::create_dir_all(&jobs)
            .map_err(|e| ServeError::io(format!("create {}", jobs.display()), e))?;
        Ok(StateDir { root })
    }

    /// The state directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory holding one job's artifacts.
    pub fn job_dir(&self, id: JobId) -> PathBuf {
        self.root.join("jobs").join(id.dir_name())
    }

    /// Path of the submitted input bytes.
    pub fn input_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("input.fastq")
    }

    /// Per-job fc-ckpt checkpoint directory.
    pub fn ckpt_dir(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("ckpt")
    }

    /// Path of the assembled contigs.
    pub fn contigs_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("contigs.fasta")
    }

    /// Path of the job's metrics snapshot.
    pub fn metrics_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("metrics.json")
    }

    /// Path of the job's causal Chrome trace.
    pub fn trace_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("trace.json")
    }

    /// Path of the terminal status file.
    pub fn status_path(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("status.txt")
    }

    /// Writes `bytes` to `path` through [`fc_ckpt::write_atomic`]: a unique
    /// temp file in the same directory, fsync, rename, directory fsync.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
        fc_ckpt::write_atomic(path, bytes).map_err(|e| match e {
            CkptError::Io { op, path, source } => {
                ServeError::io(format!("{op} {}", path.display()), source)
            }
            other => ServeError::corrupt(path.display().to_string(), other.to_string()),
        })
    }

    /// Persists a freshly admitted job: directory, input bytes, then the
    /// metadata record last (commit point).
    pub fn persist_job(&self, record: &JobRecord, input: &[u8]) -> Result<(), ServeError> {
        let dir = self.job_dir(record.id);
        fs::create_dir_all(&dir)
            .map_err(|e| ServeError::io(format!("create {}", dir.display()), e))?;
        self.write_atomic(&self.input_path(record.id), input)?;
        self.write_atomic(&dir.join("job.meta"), render_meta(record).as_bytes())
    }

    /// Writes the assembly outputs (atomic, before the status commit).
    /// The trace is optional: runners that record no trace pass an empty
    /// string and no `trace.json` is written, so the artifact route can
    /// distinguish "never traced" from "not finished".
    pub fn write_outputs(
        &self,
        id: JobId,
        contigs_fasta: &[u8],
        metrics_json: &str,
        trace_json: &str,
    ) -> Result<(), ServeError> {
        self.write_atomic(&self.contigs_path(id), contigs_fasta)?;
        self.write_atomic(&self.metrics_path(id), metrics_json.as_bytes())?;
        if trace_json.is_empty() {
            Ok(())
        } else {
            self.write_atomic(&self.trace_path(id), trace_json.as_bytes())
        }
    }

    /// Commits a terminal status. This is the last write a job ever sees.
    pub fn write_status(&self, id: JobId, status: &TerminalStatus) -> Result<(), ServeError> {
        self.write_atomic(&self.status_path(id), render_status(status).as_bytes())
    }

    /// Reads a job's terminal status, or `None` while it is in flight.
    pub fn read_status(&self, id: JobId) -> Result<Option<TerminalStatus>, ServeError> {
        read_record(&self.status_path(id), parse_status)
    }

    /// Reads a job's admission record, or `None` for unknown/torn jobs.
    pub fn read_meta(&self, id: JobId) -> Result<Option<JobRecord>, ServeError> {
        read_record(&self.job_dir(id).join("job.meta"), parse_meta)
    }

    /// Scans the directory at startup: collects in-flight jobs for
    /// re-admission, removes torn (meta-less) directories, and reports the
    /// highest id so the sequence can continue.
    pub fn scan(&self) -> Result<Scan, ServeError> {
        let jobs = self.root.join("jobs");
        let mut out = Scan::default();
        let entries = fs::read_dir(&jobs)
            .map_err(|e| ServeError::io(format!("read {}", jobs.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| ServeError::io("read jobs dir entry", e))?;
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(JobId::parse) else {
                continue; // foreign file; leave it alone
            };
            out.max_id = out.max_id.max(id.0);
            match self.read_meta(id)? {
                None => {
                    // Torn admission: the submitter never got an ack.
                    fs::remove_dir_all(entry.path())
                        .map_err(|e| ServeError::io(format!("remove torn {id}"), e))?;
                    out.torn += 1;
                }
                Some(record) => match self.read_status(id) {
                    Ok(None) => out.pending.push(record),
                    Ok(Some(_)) => {}
                    Err(ServeError::Corrupt { .. }) => out.unreadable += 1,
                    Err(e) => return Err(e),
                },
            }
        }
        out.pending.sort_by_key(|r| r.id);
        Ok(out)
    }
}

/// Reads the state record at `path` through `parse`, `None` when there is
/// none. At most [`RECORD_LIMIT`] + 1 bytes are read: a longer file, or one
/// that is not UTF-8 or does not parse, is [`ServeError::Corrupt`].
fn read_record<T>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, ServeError> {
    let corrupt = |m: String| ServeError::corrupt(path.display().to_string(), m);
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ServeError::io(format!("open {}", path.display()), e)),
    };
    let mut bytes = Vec::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "capped by take(RECORD_LIMIT + 1): a longer record is refused as corrupt"
    )]
    file.take(RECORD_LIMIT + 1)
        .read_to_end(&mut bytes)
        .map_err(|e| ServeError::io(format!("read {}", path.display()), e))?;
    if bytes.len() as u64 > RECORD_LIMIT {
        return Err(corrupt(format!("longer than {RECORD_LIMIT} bytes")));
    }
    let text = String::from_utf8(bytes).map_err(|_| corrupt("not UTF-8".to_string()))?;
    parse(&text).map(Some).map_err(corrupt)
}

fn render_meta(r: &JobRecord) -> String {
    format!(
        "{META_HEADER}\nid {}\ntenant {}\npriority {}\ndeadline_ms {}\ninput_len {}\ninput_fnv {:016x}\n",
        r.id,
        r.tenant,
        r.priority,
        r.deadline_ms.unwrap_or(0),
        r.input_len,
        r.input_fnv,
    )
}

fn parse_meta(text: &str) -> Result<JobRecord, String> {
    let mut lines = text.lines();
    if lines.next() != Some(META_HEADER) {
        return Err("bad meta header".to_string());
    }
    let (mut id, mut tenant, mut priority) = (None, None, None);
    let (mut deadline_ms, mut input_len, mut input_fnv) = (None, None, None);
    for line in lines {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        match key {
            "id" => id = JobId::parse(value),
            "tenant" => tenant = valid_tenant_name(value).then(|| value.to_string()),
            "priority" => priority = Priority::parse(value),
            "deadline_ms" => deadline_ms = value.parse::<u64>().ok(),
            "input_len" => input_len = value.parse::<u64>().ok(),
            "input_fnv" => input_fnv = u64::from_str_radix(value, 16).ok(),
            _ => {}
        }
    }
    Ok(JobRecord {
        id: id.ok_or("missing/bad id")?,
        tenant: tenant.ok_or("missing/bad tenant")?,
        priority: priority.ok_or("missing/bad priority")?,
        deadline_ms: match deadline_ms.ok_or("missing/bad deadline_ms")? {
            0 => None,
            ms => Some(ms),
        },
        input_len: input_len.ok_or("missing/bad input_len")?,
        input_fnv: input_fnv.ok_or("missing/bad input_fnv")?,
    })
}

fn render_status(s: &TerminalStatus) -> String {
    // Keep the kv format line-oriented: fold any newlines in the message.
    let cut = (0..=STATUS_MESSAGE_LIMIT.min(s.message.len()))
        .rev()
        .find(|&i| s.message.is_char_boundary(i))
        .unwrap_or(0);
    let message = s.message[..cut].replace(['\n', '\r'], " ");
    format!(
        "{STATUS_HEADER}\nstate {}\nmessage {message}\nnum_contigs {}\nn50 {}\ntotal_bases {}\n",
        s.state.as_str(),
        s.num_contigs,
        s.n50,
        s.total_bases,
    )
}

fn parse_status(text: &str) -> Result<TerminalStatus, String> {
    let mut lines = text.lines();
    if lines.next() != Some(STATUS_HEADER) {
        return Err("bad status header".to_string());
    }
    let mut state = None;
    let mut message = String::new();
    let (mut num_contigs, mut n50, mut total_bases) = (0, 0, 0);
    for line in lines {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        match key {
            "state" => state = TerminalState::parse(value),
            "message" => message = value.to_string(),
            "num_contigs" => num_contigs = value.parse().map_err(|_| "bad num_contigs")?,
            "n50" => n50 = value.parse().map_err(|_| "bad n50")?,
            "total_bases" => total_bases = value.parse().map_err(|_| "bad total_bases")?,
            _ => {}
        }
    }
    // Only a message `render_status` could have written: cut to the limit,
    // with no carriage return left in it.
    if message.len() > STATUS_MESSAGE_LIMIT || message.contains('\r') {
        return Err("bad message".to_string());
    }
    Ok(TerminalStatus {
        state: state.ok_or("missing/bad state")?,
        message,
        num_contigs,
        n50,
        total_bases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state directory under the temp dir, removed when the test drops
    /// it.
    struct TempState(StateDir);

    impl std::ops::Deref for TempState {
        type Target = StateDir;
        fn deref(&self) -> &StateDir {
            &self.0
        }
    }

    impl Drop for TempState {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(self.0.root());
        }
    }

    fn temp_state(tag: &str) -> TempState {
        let root =
            std::env::temp_dir().join(format!("fc-serve-state-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        TempState(StateDir::open(root).expect("open state dir"))
    }

    fn record(id: u64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            tenant: "alice".to_string(),
            priority: Priority::Normal,
            deadline_ms: Some(5000),
            input_len: 4,
            input_fnv: input_fnv(b"ACGT"),
        }
    }

    #[test]
    fn meta_round_trips_through_disk() {
        let state = temp_state("meta");
        let r = record(7);
        state.persist_job(&r, b"ACGT").expect("persist");
        assert_eq!(state.read_meta(JobId(7)).expect("read"), Some(r));
        assert_eq!(state.read_meta(JobId(8)).expect("read"), None);
        assert_eq!(
            fs::read(state.input_path(JobId(7))).expect("input"),
            b"ACGT"
        );
    }

    #[test]
    fn status_round_trips_and_folds_newlines() {
        let state = temp_state("status");
        state.persist_job(&record(1), b"ACGT").expect("persist");
        assert_eq!(state.read_status(JobId(1)).expect("read"), None);
        let status = TerminalStatus {
            state: TerminalState::Failed,
            message: "line1\nline2".to_string(),
            num_contigs: 0,
            n50: 0,
            total_bases: 0,
        };
        state.write_status(JobId(1), &status).expect("write");
        let back = state.read_status(JobId(1)).expect("read").expect("some");
        assert_eq!(back.state, TerminalState::Failed);
        assert_eq!(back.message, "line1 line2");
    }

    #[test]
    fn scan_reclaims_torn_dirs_and_orders_pending() {
        let state = temp_state("scan");
        state.persist_job(&record(3), b"ACGT").expect("persist");
        state.persist_job(&record(1), b"ACGT").expect("persist");
        state.persist_job(&record(2), b"ACGT").expect("persist");
        state
            .write_status(JobId(2), &TerminalStatus::plain(TerminalState::Done, "ok"))
            .expect("status");
        // Torn admission: directory + input but no job.meta.
        let torn = state.job_dir(JobId(9));
        fs::create_dir_all(&torn).expect("mkdir");
        fs::write(torn.join("input.fastq"), b"AC").expect("write");

        let scan = state.scan().expect("scan");
        assert_eq!(scan.torn, 1);
        assert!(!torn.exists(), "torn dir removed");
        assert_eq!(scan.max_id, 9, "max id counts torn dirs too");
        let ids: Vec<u64> = scan.pending.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 3], "terminal job 2 excluded, sorted");
    }

    #[test]
    fn corrupt_status_is_a_typed_error() {
        let state = temp_state("corrupt");
        state.persist_job(&record(1), b"ACGT").expect("persist");
        fs::write(state.status_path(JobId(1)), b"garbage\n").expect("write");
        let err = state.read_status(JobId(1)).expect_err("corrupt");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
    }

    /// A status file that would parse, padded one byte past the limit, and
    /// a `job.meta` that never ends: both are refused as corrupt, which
    /// the second can only be if the read stops at the limit.
    #[cfg(unix)]
    #[test]
    fn oversized_records_are_corrupt_and_read_no_further_than_the_limit() {
        let state = temp_state("oversized");
        state.persist_job(&record(1), b"ACGT").expect("persist");
        let mut status = render_status(&TerminalStatus::plain(TerminalState::Done, "ok"));
        status.push_str("pad ");
        while status.len() as u64 <= RECORD_LIMIT {
            status.push('x');
        }
        fs::write(state.status_path(JobId(1)), status).expect("write");
        let err = state.read_status(JobId(1)).expect_err("oversized status");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");

        let meta = state.job_dir(JobId(1)).join("job.meta");
        fs::remove_file(&meta).expect("remove meta");
        std::os::unix::fs::symlink("/dev/zero", &meta).expect("symlink");
        let err = state.read_meta(JobId(1)).expect_err("endless meta");
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
    }

    /// A failed job's status written by a build that did not cut messages
    /// can exceed the limit. Restart still scans the directory: that job
    /// counts as ended and unreadable, and the rest are unaffected.
    #[test]
    fn scan_survives_an_uncut_status_from_an_older_build() {
        let state = temp_state("uncut");
        state.persist_job(&record(1), b"ACGT").expect("persist");
        state.persist_job(&record(2), b"ACGT").expect("persist");
        let message = "e".repeat(2 * RECORD_LIMIT as usize);
        let uncut = format!(
            "{STATUS_HEADER}\nstate failed\nmessage {message}\nnum_contigs 0\nn50 0\ntotal_bases 0\n"
        );
        fs::write(state.status_path(JobId(1)), uncut).expect("write");
        let scan = state.scan().expect("scan");
        assert_eq!(scan.unreadable, 1);
        let ids: Vec<u64> = scan.pending.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![2], "the ended job is not re-admitted");
    }

    #[test]
    fn long_status_messages_are_cut_to_fit_the_record_limit() {
        let state = temp_state("long-message");
        state.persist_job(&record(1), b"ACGT").expect("persist");
        // Two-byte characters after one ASCII byte: the limit splits one.
        let message = format!("x{}", "é".repeat(STATUS_MESSAGE_LIMIT));
        let status = TerminalStatus::plain(TerminalState::Failed, message);
        state.write_status(JobId(1), &status).expect("write");
        let back = state.read_status(JobId(1)).expect("read").expect("some");
        let kept = (STATUS_MESSAGE_LIMIT - 1) / 2;
        assert_eq!(back.message, format!("x{}", "é".repeat(kept)));
    }

    /// One random edit of `text`: a byte set, a byte inserted (often a
    /// separator or a digit, where the grammar is), or a cut.
    fn mutate(text: &mut Vec<u8>, rng: &mut fc_rng::Rng) {
        let at = rng.range(0..=text.len());
        match rng.range(0u8..3) {
            0 if at < text.len() => text[at] = rng.range(0u8..=255),
            1 => {
                let grammar = b" \n\r0a-_#";
                text.insert(at, grammar[rng.range(0..grammar.len())]);
            }
            _ => text.truncate(at),
        }
    }

    /// Rendered `job.meta` and `status.txt` records with random set,
    /// insert and truncate edits: each parse ends in a record or a typed
    /// error, never a panic, and every record it accepts renders back to
    /// text that parses to an equal record.
    #[test]
    fn mutated_records_parse_typed_and_round_trip() {
        let states = [
            TerminalState::Done,
            TerminalState::Failed,
            TerminalState::Shed,
            TerminalState::Canceled,
        ];
        fc_rng::cases(4_000, |rng| {
            let meta = JobRecord {
                id: JobId(rng.range(0..=u64::MAX)),
                tenant: "t".repeat(rng.range(1..=64)),
                priority: Priority::ALL[rng.range(0..3)],
                deadline_ms: rng.bool(0.5).then(|| rng.range(1..=u64::MAX)),
                input_len: rng.range(0..=u64::MAX),
                input_fnv: rng.range(0..=u64::MAX),
            };
            let status = TerminalStatus {
                state: states[rng.range(0..states.len())],
                message: "m é".repeat(rng.range(0..8)),
                num_contigs: rng.range(0..=u64::MAX),
                n50: rng.range(0..1_000_000),
                total_bases: rng.range(0..=u64::MAX),
            };
            let (mut meta_text, mut status_text) = (
                render_meta(&meta).into_bytes(),
                render_status(&status).into_bytes(),
            );
            for _ in 0..rng.range(0..4) {
                mutate(&mut meta_text, rng);
                mutate(&mut status_text, rng);
            }
            if let Ok(text) = std::str::from_utf8(&meta_text) {
                if let Ok(parsed) = parse_meta(text) {
                    assert_eq!(parse_meta(&render_meta(&parsed)), Ok(parsed), "{text:?}");
                }
            }
            if let Ok(text) = std::str::from_utf8(&status_text) {
                if let Ok(parsed) = parse_status(text) {
                    assert_eq!(
                        parse_status(&render_status(&parsed)),
                        Ok(parsed),
                        "{text:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn tenant_name_validation() {
        assert!(valid_tenant_name("alice-01_x"));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name("a/b"));
        assert!(!valid_tenant_name(&"x".repeat(65)));
    }

    #[test]
    fn input_fnv_is_stable() {
        assert_eq!(input_fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(input_fnv(b"ACGT"), input_fnv(b"ACGA"));
    }
}
