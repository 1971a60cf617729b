//! [`CheckpointStore`] — the save/load front door of the checkpoint layer.
//!
//! Writes are atomic ([`write_atomic`]): the encoded file goes to a hidden
//! temp name in the same directory, is flushed with `sync_all`, renamed
//! over the final name, and the directory is synced so the rename itself
//! is durable. A crash at any instant therefore leaves either the old
//! state or the new state under the final name, never a torn file —
//! unless a fault plan injects exactly that, which is how the chaos
//! harness proves the *read* side catches it.
//!
//! The store degrades instead of failing the run: the first write error
//! (unwritable directory, injected or real ENOSPC) is returned to the
//! caller once — for a single observability warning — and every later
//! save becomes a silent no-op. The assembly always finishes.
//!
//! Several stores may share one directory (the serve layer runs concurrent
//! jobs, and two resuming runs can legitimately overlap). Temp names are
//! unique per process *and* per write, and that alone makes a shared
//! directory safe: no file is written by two writers, so none can tear
//! another's rename source out from under it, and the last rename of a
//! final name wins with a whole file.

use crate::error::CkptError;
use crate::fault::{flip_bit, FsFaultPlan, ReadFault, WriteFault};
use crate::file::CheckpointFile;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files of concurrent writers inside one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// What a [`CheckpointStore::load`] found.
#[derive(Debug)]
pub enum LoadOutcome {
    /// No checkpoint exists for the phase: compute it.
    Missing,
    /// A verified checkpoint: its payload records, trustworthy.
    Loaded(Vec<Vec<u8>>),
    /// A file exists but failed verification (corruption, fingerprint or
    /// phase mismatch, version skew): report it and recompute. The file is
    /// never partially used.
    Rejected(CkptError),
}

/// Save/load access to one checkpoint directory, bound to one run's
/// config fingerprint and input digest.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    config_fingerprint: u64,
    input_digest: u64,
    faults: FsFaultPlan,
    degraded: bool,
    dir_ready: bool,
}

impl CheckpointStore {
    /// A store over `dir` for the run identified by the two fingerprints.
    /// The directory is created lazily on first save.
    pub fn new(
        dir: impl Into<PathBuf>,
        config_fingerprint: u64,
        input_digest: u64,
    ) -> CheckpointStore {
        CheckpointStore::with_faults(dir, config_fingerprint, input_digest, FsFaultPlan::none())
    }

    /// [`CheckpointStore::new`] with a filesystem fault-injection plan.
    pub fn with_faults(
        dir: impl Into<PathBuf>,
        config_fingerprint: u64,
        input_digest: u64,
        faults: FsFaultPlan,
    ) -> CheckpointStore {
        CheckpointStore {
            dir: dir.into(),
            config_fingerprint,
            input_digest,
            faults,
            degraded: false,
            dir_ready: false,
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The config fingerprint every file is stamped with.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// The input digest every file is stamped with.
    pub fn input_digest(&self) -> u64 {
        self.input_digest
    }

    /// Canonical file name of a phase's checkpoint.
    pub fn file_name(phase_id: u32, phase_name: &str) -> String {
        format!("phase_{phase_id:02}_{phase_name}.ckpt")
    }

    /// Saves `records` as the checkpoint of `(phase_id, phase_name)`.
    ///
    /// Returns `Ok(true)` when a checkpoint was written, `Ok(false)` when
    /// the store is degraded and skipped the write. The first `Err` both
    /// reports the failure and flips the store into degraded mode, so a
    /// caller sees at most one error — emit the warning there.
    pub fn save(
        &mut self,
        phase_id: u32,
        phase_name: &str,
        records: Vec<Vec<u8>>,
    ) -> Result<bool, CkptError> {
        if self.degraded {
            return Ok(false);
        }
        if let Err(e) = self.ensure_dir() {
            self.degraded = true;
            return Err(e);
        }
        let file = CheckpointFile {
            phase_id,
            config_fingerprint: self.config_fingerprint,
            input_digest: self.input_digest,
            records,
        };
        let mut encoded = file.encode();
        // The records die once framed: the write holds one copy of the
        // payload, not two.
        drop(file);
        let final_path = self
            .dir
            .join(CheckpointStore::file_name(phase_id, phase_name));

        match self.faults.next_write() {
            Some(WriteFault::Enospc) => {
                self.degraded = true;
                return Err(CkptError::Io {
                    op: "write",
                    path: final_path,
                    source: io::Error::new(
                        io::ErrorKind::StorageFull,
                        "no space left on device (injected)",
                    ),
                });
            }
            Some(WriteFault::Torn) => {
                // A non-atomic writer dying mid-write: the final name holds
                // a prefix of the data and nobody is told. Load must catch
                // this via the CRCs.
                let half = &encoded[..encoded.len() / 2];
                if let Err(source) = fs::write(&final_path, half) {
                    self.degraded = true;
                    return Err(CkptError::Io {
                        op: "write",
                        path: final_path,
                        source,
                    });
                }
                return Ok(true);
            }
            Some(WriteFault::BitFlip { bit }) => flip_bit(&mut encoded, bit),
            None => {}
        }

        if let Err(e) = write_atomic(&final_path, &encoded) {
            self.degraded = true;
            return Err(e);
        }
        Ok(true)
    }

    /// Loads and verifies the checkpoint of `(phase_id, phase_name)`.
    pub fn load(&mut self, phase_id: u32, phase_name: &str) -> LoadOutcome {
        let path = self
            .dir
            .join(CheckpointStore::file_name(phase_id, phase_name));
        let fault = self.faults.next_read();
        #[expect(
            clippy::disallowed_methods,
            reason = "loads a checkpoint this store itself wrote: payloads are CRC-framed \
                      records bounded by what save() serialized, and a truncated or \
                      oversized file fails verification and is recomputed, never trusted"
        )]
        let mut bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadOutcome::Missing,
            Err(source) => {
                return LoadOutcome::Rejected(CkptError::Io {
                    op: "read",
                    path,
                    source,
                })
            }
        };
        match fault {
            Some(ReadFault::Short) => bytes.truncate(bytes.len() / 2),
            Some(ReadFault::BitFlip { bit }) => flip_bit(&mut bytes, bit),
            None => {}
        }
        let file = match CheckpointFile::decode(&bytes, &path) {
            Ok(file) => file,
            Err(e) => return LoadOutcome::Rejected(e),
        };
        if file.phase_id != phase_id {
            return LoadOutcome::Rejected(CkptError::Mismatch {
                path,
                detail: format!("phase id {} where {phase_id} was expected", file.phase_id),
            });
        }
        if file.config_fingerprint != self.config_fingerprint {
            return LoadOutcome::Rejected(CkptError::Mismatch {
                path,
                detail: format!(
                    "config fingerprint {:#018x} does not match this run's {:#018x}",
                    file.config_fingerprint, self.config_fingerprint
                ),
            });
        }
        if file.input_digest != self.input_digest {
            return LoadOutcome::Rejected(CkptError::Mismatch {
                path,
                detail: format!(
                    "input digest {:#018x} does not match this run's {:#018x}",
                    file.input_digest, self.input_digest
                ),
            });
        }
        LoadOutcome::Loaded(file.records)
    }

    fn ensure_dir(&mut self) -> Result<(), CkptError> {
        if self.dir_ready {
            return Ok(());
        }
        fs::create_dir_all(&self.dir).map_err(|source| CkptError::Io {
            op: "create dir",
            path: self.dir.clone(),
            source,
        })?;
        self.dir_ready = true;
        Ok(())
    }
}

/// Writes `bytes` to `path` atomically: a temp file in the same directory,
/// `sync_all`, rename over `path`, then a sync of the directory so the
/// rename survives a crash too. The temp name carries the pid and a
/// process-wide sequence number, so concurrent writers — threads or
/// separate processes sharing the directory — never write to or rename the
/// same temp file. A failed step removes the temp file and names its
/// operation and path.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let io_err = |op: &'static str, path: &Path| {
        let path = path.to_path_buf();
        move |source: io::Error| CkptError::Io { op, path, source }
    };
    let (Some(dir), Some(file_name)) = (path.parent(), path.file_name()) else {
        return Err(io_err("create", path)(io::Error::new(
            io::ErrorKind::InvalidInput,
            "the path names no file",
        )));
    };
    let tmp_path = dir.join(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let cleanup = |r: Result<(), CkptError>| {
        if r.is_err() {
            let _ = fs::remove_file(&tmp_path);
        }
        r
    };
    let mut tmp = fs::File::create(&tmp_path).map_err(io_err("create", &tmp_path))?;
    cleanup(tmp.write_all(bytes).map_err(io_err("write", &tmp_path)))?;
    cleanup(tmp.sync_all().map_err(io_err("sync", &tmp_path)))?;
    drop(tmp);
    cleanup(fs::rename(&tmp_path, path).map_err(io_err("rename", path)))?;
    // Best effort: not every platform can open a directory to sync it.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fc-ckpt-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn records() -> Vec<Vec<u8>> {
        vec![b"payload".to_vec(), b"metrics".to_vec()]
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut store = CheckpointStore::new(&dir, 0xAA, 0xBB);
        assert!(store.save(2, "coarsen", records()).expect("save works"));
        match store.load(2, "coarsen") {
            LoadOutcome::Loaded(recs) => assert_eq!(recs, records()),
            other => panic!("expected Loaded, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = temp_dir("atomic");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("status.txt");
        write_atomic(&path, b"old").expect("first write");
        write_atomic(&path, b"new").expect("second write");
        let names: Vec<_> = fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, ["status.txt"]);
        assert_eq!(fs::read(&path).expect("read back"), b"new");
        match write_atomic(&dir.join("missing").join("f"), b"x") {
            Err(CkptError::Io {
                op: "create", path, ..
            }) => {
                assert!(path.starts_with(dir.join("missing")), "{}", path.display())
            }
            other => panic!("expected a create error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_reported_as_missing() {
        let dir = temp_dir("missing");
        let mut store = CheckpointStore::new(&dir, 1, 2);
        assert!(matches!(store.load(0, "preprocess"), LoadOutcome::Missing));
    }

    #[test]
    fn wrong_fingerprints_are_rejected_not_loaded() {
        let dir = temp_dir("fingerprint");
        let mut writer = CheckpointStore::new(&dir, 0xA, 0xB);
        writer.save(1, "alignment", records()).expect("save works");
        let mut wrong_config = CheckpointStore::new(&dir, 0xDEAD, 0xB);
        assert!(matches!(
            wrong_config.load(1, "alignment"),
            LoadOutcome::Rejected(CkptError::Mismatch { .. })
        ));
        let mut wrong_input = CheckpointStore::new(&dir, 0xA, 0xDEAD);
        assert!(matches!(
            wrong_input.load(1, "alignment"),
            LoadOutcome::Rejected(CkptError::Mismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_detected_at_load_time() {
        let dir = temp_dir("torn");
        let plan = FsFaultPlan::none().fail_write(0, WriteFault::Torn);
        let mut store = CheckpointStore::with_faults(&dir, 1, 2, plan);
        assert!(store
            .save(3, "hybrid", records())
            .expect("torn write reports success"));
        assert!(matches!(
            store.load(3, "hybrid"),
            LoadOutcome::Rejected(CkptError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_write_is_detected_at_load_time() {
        let dir = temp_dir("bitflip");
        let plan = FsFaultPlan::none().fail_write(0, WriteFault::BitFlip { bit: 123 });
        let mut store = CheckpointStore::with_faults(&dir, 1, 2, plan);
        assert!(store.save(0, "preprocess", records()).expect("save works"));
        assert!(matches!(
            store.load(0, "preprocess"),
            LoadOutcome::Rejected(CkptError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_and_bit_flipped_reads_are_detected() {
        let dir = temp_dir("readfault");
        let plan = FsFaultPlan::none()
            .fail_read(0, ReadFault::Short)
            .fail_read(1, ReadFault::BitFlip { bit: 999 });
        let mut store = CheckpointStore::with_faults(&dir, 1, 2, plan);
        store.save(4, "partition", records()).expect("save works");
        for _ in 0..2 {
            assert!(matches!(
                store.load(4, "partition"),
                LoadOutcome::Rejected(CkptError::Corrupt { .. })
            ));
        }
        // Third read has no fault: the file on disk was always good.
        assert!(matches!(store.load(4, "partition"), LoadOutcome::Loaded(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_degrades_the_store_and_later_saves_are_skipped() {
        let dir = temp_dir("enospc");
        let plan = FsFaultPlan::none().fail_write(0, WriteFault::Enospc);
        let mut store = CheckpointStore::with_faults(&dir, 1, 2, plan);
        let err = store
            .save(0, "preprocess", records())
            .expect_err("ENOSPC surfaces");
        assert!(err.to_string().contains("space"));
        // Degraded: silently skipped, no second error.
        assert!(!store
            .save(1, "alignment", records())
            .expect("skip is Ok(false)"));
        assert!(matches!(store.load(1, "alignment"), LoadOutcome::Missing));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_degrades_on_first_save() {
        let dir = PathBuf::from("/proc/fc-ckpt-cannot-exist/x");
        let mut store = CheckpointStore::new(&dir, 1, 2);
        assert!(store.save(0, "preprocess", records()).is_err());
        assert!(!store
            .save(1, "alignment", records())
            .expect("degraded skip"));
    }

    #[test]
    fn concurrent_writers_sharing_a_directory_never_tear_each_other() {
        let dir = temp_dir("concurrent");
        fs::create_dir_all(&dir).expect("mkdir");
        let writers = 4;
        let rounds = 25;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let dir = dir.clone();
                scope.spawn(move || {
                    // Each thread is its own store — the serve layer gives
                    // every concurrent job a store over a shared layout.
                    let mut store = CheckpointStore::new(&dir, 0xC0, 0xD0);
                    for round in 0..rounds {
                        let payload = vec![format!("w{w} r{round}").into_bytes()];
                        // Same phase ids from every writer: maximal rename
                        // contention on the final names.
                        store
                            .save(w as u32 % 2, "preprocess", payload)
                            .expect("concurrent save");
                    }
                });
            }
        });
        // Every surviving file verifies (no torn writes), and the race
        // leaves nothing but the two checkpoints: no temp or lock file.
        let mut reader = CheckpointStore::new(&dir, 0xC0, 0xD0);
        for phase in 0..2 {
            assert!(
                matches!(reader.load(phase, "preprocess"), LoadOutcome::Loaded(_)),
                "phase {phase} failed to verify after concurrent writes"
            );
        }
        let mut names: Vec<String> = fs::read_dir(&dir)
            .expect("readdir")
            .map(|entry| entry.expect("entry").file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                CheckpointStore::file_name(0, "preprocess"),
                CheckpointStore::file_name(1, "preprocess"),
            ],
            "temp or lock files left behind after clean shutdown"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
