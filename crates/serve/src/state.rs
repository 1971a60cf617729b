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
//! All multi-step writes go through [`StateDir::write_atomic`]-style
//! unique-temp-then-rename, so concurrent writers and `kill -9` can never
//! leave a half-written artifact under a final name.

use crate::error::ServeError;
use crate::job::{JobId, Priority};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Header line of `job.meta`.
const META_HEADER: &str = "# focus serve job v1";
/// Header line of `status.txt`.
const STATUS_HEADER: &str = "# focus serve status v1";

/// FNV-1a over the raw input bytes; identifies a submission independently
/// of the server-assigned [`JobId`], so chaos tests can match jobs between
/// a reference run and a crash-looped run.
pub fn input_fnv(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
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

/// Process-wide counter for unique temp-file names.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

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

    /// Writes `bytes` to `path` via a unique temp file in the same
    /// directory, fsync, rename, directory fsync.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
        let dir = path
            .parent()
            .ok_or_else(|| ServeError::corrupt(path.display().to_string(), "no parent dir"))?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| ServeError::corrupt(path.display().to_string(), "no file name"))?;
        let tmp = dir.join(format!(
            ".{name}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let ctx = |what: &str| format!("{what} {}", tmp.display());
        let mut f = File::create(&tmp).map_err(|e| ServeError::io(ctx("create"), e))?;
        f.write_all(bytes)
            .map_err(|e| ServeError::io(ctx("write"), e))?;
        f.sync_all().map_err(|e| ServeError::io(ctx("sync"), e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            ServeError::io(format!("rename {} -> {}", tmp.display(), path.display()), e)
        })?;
        // Make the rename itself durable.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
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
        let path = self.status_path(id);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ServeError::io(format!("read {}", path.display()), e)),
        };
        parse_status(&text)
            .map(Some)
            .map_err(|m| ServeError::corrupt(path.display().to_string(), m))
    }

    /// Reads a job's admission record, or `None` for unknown/torn jobs.
    pub fn read_meta(&self, id: JobId) -> Result<Option<JobRecord>, ServeError> {
        let path = self.job_dir(id).join("job.meta");
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ServeError::io(format!("read {}", path.display()), e)),
        };
        parse_meta(&text)
            .map(Some)
            .map_err(|m| ServeError::corrupt(path.display().to_string(), m))
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
                Some(record) => {
                    if self.read_status(id)?.is_none() {
                        out.pending.push(record);
                    }
                }
            }
        }
        out.pending.sort_by_key(|r| r.id);
        Ok(out)
    }
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
            "tenant" => tenant = Some(value.to_string()),
            "priority" => priority = Priority::parse(value),
            "deadline_ms" => deadline_ms = value.parse::<u64>().ok(),
            "input_len" => input_len = value.parse::<u64>().ok(),
            "input_fnv" => input_fnv = u64::from_str_radix(value, 16).ok(),
            _ => {}
        }
    }
    Ok(JobRecord {
        id: id.ok_or("missing/bad id")?,
        tenant: tenant.ok_or("missing tenant")?,
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
    let message = s.message.replace(['\n', '\r'], " ");
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

    fn temp_state(tag: &str) -> StateDir {
        let root =
            std::env::temp_dir().join(format!("fc-serve-state-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        StateDir::open(root).expect("open state dir")
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
