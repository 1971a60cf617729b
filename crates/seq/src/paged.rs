//! File-backed paged read staging: trimmed reads written to disk pages and
//! materialized back into a [`ReadStore`].
//!
//! Nothing in the product calls this module any more: every run, resumed
//! or not, rebuilds its store from its input in one streaming pass, which
//! costs less than writing pages and reading them back. The benchmark
//! (`benchmark/src/trace.rs`) still measures it for its `probe.paged_*`
//! rows, and so it stays until those rows go.
//!
//! [`PagedStoreWriter`] appends trimmed forward reads (with their source
//! indices) to fixed-size pages; each full page is written through
//! [`fc_ckpt::CheckpointStore`], which gives spilled pages checkpoint-grade
//! robustness for free: CRC framing and temp-file + fsync + atomic rename.
//! A torn, truncated or bit-flipped page is therefore *detected* at read
//! time and surfaces as a typed [`PagedError`] — never as silently corrupt
//! reads.
//!
//! [`PagedReadStore`] is the read side: sequential re-materialization into
//! an in-memory [`ReadStore`] ([`PagedReadStore::materialize`]), keyed on
//! the raw-input digest recorded in the meta page
//! ([`PagedReadStore::open`]), so stale pages from a different input are
//! rejected rather than reused.
//!
//! Only forward strands are stored; reverse complements are deterministic
//! and regenerated on materialization, halving spill I/O.

use crate::dna::DnaString;
use crate::error::SeqError;
use crate::store::ReadStore;
use fc_ckpt::{CheckpointStore, CkptError, Codec, FsFaultPlan, LoadOutcome};
use std::path::{Path, PathBuf};

/// Phase id of the meta page (pages start at [`FIRST_PAGE_ID`]).
const META_ID: u32 = 0;
/// Phase name used for the meta page file.
const META_NAME: &str = "pages_meta";
/// Phase id of page 0.
const FIRST_PAGE_ID: u32 = 1;
/// Phase name used for page files.
const PAGE_NAME: &str = "page";
/// Format version of the meta record; bumped on layout changes. Version 2:
/// a page entry holds the trimmed bases and the source index, no name or
/// qualities.
const META_VERSION: u32 = 2;

/// Errors from the paged store. Every on-disk defect is detected (via the
/// checkpoint container's CRCs) and reported typed; callers decide
/// whether to recompute, fall back in-core, or abort.
#[derive(Debug)]
pub enum PagedError {
    /// Writing a page failed (I/O error, injected fault, or the underlying
    /// checkpoint store degraded). Pages already written remain readable.
    Write(CkptError),
    /// A page or meta record exists but failed verification.
    Corrupt {
        /// Which page (or 0 for the meta record).
        page: u32,
        /// The underlying rejection.
        cause: CkptError,
    },
    /// A page the meta record promises is missing on disk.
    MissingPage {
        /// The missing page's index.
        page: u32,
    },
    /// No usable staged state: the meta record is absent or describes a
    /// different input/layout (e.g. digest mismatch on resume).
    Stale(String),
}

impl std::fmt::Display for PagedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagedError::Write(e) => write!(f, "paged store write failed: {e}"),
            PagedError::Corrupt { page, cause } => {
                write!(f, "paged store page {page} failed verification: {cause}")
            }
            PagedError::MissingPage { page } => {
                write!(f, "paged store page {page} is missing")
            }
            PagedError::Stale(why) => write!(f, "paged store not reusable: {why}"),
        }
    }
}

impl std::error::Error for PagedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PagedError::Write(e) | PagedError::Corrupt { cause: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<PagedError> for SeqError {
    fn from(e: PagedError) -> SeqError {
        SeqError::Io(std::io::Error::other(e.to_string()))
    }
}

/// One staged read: the trimmed forward strand's bases plus its source
/// index.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PageEntry {
    bases: DnaString,
    source: u32,
}

impl Codec for PageEntry {
    fn encode(&self, w: &mut fc_ckpt::Writer) {
        self.bases.encode(w);
        self.source.encode(w);
    }

    fn decode(r: &mut fc_ckpt::Reader<'_>) -> Result<PageEntry, CkptError> {
        Ok(PageEntry {
            bases: DnaString::decode(r)?,
            source: u32::decode(r)?,
        })
    }
}

/// Meta record: layout + identity of the staged read set, written last so
/// its presence marks a *complete* staging run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    version: u32,
    page_len: u32,
    pages: u32,
    entries: u64,
    /// Digest of the *raw* input stream the pages were staged from; resume
    /// recomputes it and refuses pages from a different input.
    input_digest: u64,
}

impl Codec for Meta {
    fn encode(&self, w: &mut fc_ckpt::Writer) {
        self.version.encode(w);
        self.page_len.encode(w);
        self.pages.encode(w);
        self.entries.encode(w);
        self.input_digest.encode(w);
    }

    fn decode(r: &mut fc_ckpt::Reader<'_>) -> Result<Meta, CkptError> {
        Ok(Meta {
            version: u32::decode(r)?,
            page_len: u32::decode(r)?,
            pages: u32::decode(r)?,
            entries: u64::decode(r)?,
            input_digest: u64::decode(r)?,
        })
    }
}

/// Streams trimmed reads into fixed-size pages on disk. Peak memory is one
/// page of reads regardless of input size.
#[derive(Debug)]
pub struct PagedStoreWriter {
    store: CheckpointStore,
    page_len: usize,
    buffer: Vec<PageEntry>,
    pages: u32,
    entries: u64,
}

impl PagedStoreWriter {
    /// Starts staging into `dir`, stamping pages with `config_fingerprint`.
    /// `page_len` is the number of reads per page (clamped to ≥ 1).
    pub fn create(
        dir: impl Into<PathBuf>,
        config_fingerprint: u64,
        page_len: usize,
        faults: FsFaultPlan,
    ) -> PagedStoreWriter {
        // The raw-input digest is still unknown while streaming, so pages
        // are stamped with digest 0 and the true digest lives in the meta
        // record written by `finish`.
        PagedStoreWriter {
            store: CheckpointStore::with_faults(dir, config_fingerprint, 0, faults),
            page_len: page_len.max(1),
            buffer: Vec::new(),
            pages: 0,
            entries: 0,
        }
    }

    /// Appends one trimmed forward strand, owned or viewed
    /// ([`ReadStore::get`]). Flushes a page to disk whenever
    /// the buffer fills; the first write failure is returned typed (pages
    /// already flushed stay valid, so the caller can fall back in-core
    /// without losing anything it has not still got in memory).
    pub fn push(&mut self, bases: impl Into<DnaString>, source: u32) -> Result<(), PagedError> {
        let bases = bases.into();
        self.buffer.push(PageEntry { bases, source });
        if self.buffer.len() >= self.page_len {
            self.flush_page()?;
        }
        Ok(())
    }

    fn flush_page(&mut self) -> Result<(), PagedError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let records: Vec<Vec<u8>> = self.buffer.iter().map(fc_ckpt::encode_to_vec).collect();
        self.entries += self.buffer.len() as u64;
        self.buffer.clear();
        self.save(FIRST_PAGE_ID + self.pages, PAGE_NAME, records, "save page")?;
        self.pages += 1;
        Ok(())
    }

    /// One store save; a degraded store is a write error too.
    fn save(
        &mut self,
        id: u32,
        name: &str,
        records: Vec<Vec<u8>>,
        op: &'static str,
    ) -> Result<(), PagedError> {
        match self.store.save(id, name, records) {
            Ok(true) => Ok(()),
            Ok(false) => Err(PagedError::Write(CkptError::Io {
                op,
                path: self.store.dir().to_path_buf(),
                source: std::io::Error::other("checkpoint store is degraded"),
            })),
            Err(e) => Err(PagedError::Write(e)),
        }
    }

    /// Flushes the tail page, writes the meta record (stamped with the
    /// raw-input digest), and returns the read side.
    pub fn finish(mut self, input_digest: u64) -> Result<PagedReadStore, PagedError> {
        self.flush_page()?;
        let meta = Meta {
            version: META_VERSION,
            page_len: self.page_len as u32,
            pages: self.pages,
            entries: self.entries,
            input_digest,
        };
        let record = vec![fc_ckpt::encode_to_vec(&meta)];
        self.save(META_ID, META_NAME, record, "save meta")?;
        Ok(PagedReadStore {
            store: self.store,
            meta,
        })
    }
}

/// Read access to a complete staged page set.
#[derive(Debug)]
pub struct PagedReadStore {
    store: CheckpointStore,
    meta: Meta,
}

impl PagedReadStore {
    /// Opens a *complete* staged page set left by a previous run, verifying
    /// that its meta record matches this run's `config_fingerprint` (checked
    /// by the checkpoint layer) and `input_digest` (checked here) — pages
    /// staged from different input are rejected as [`PagedError::Stale`].
    pub fn open(
        dir: impl AsRef<Path>,
        config_fingerprint: u64,
        input_digest: u64,
        faults: FsFaultPlan,
    ) -> Result<PagedReadStore, PagedError> {
        let mut store =
            CheckpointStore::with_faults(dir.as_ref().to_path_buf(), config_fingerprint, 0, faults);
        let meta = match store.load(META_ID, META_NAME) {
            LoadOutcome::Missing => {
                return Err(PagedError::Stale("no meta record on disk".to_string()))
            }
            LoadOutcome::Rejected(cause) => {
                return Err(PagedError::Corrupt {
                    page: META_ID,
                    cause,
                })
            }
            LoadOutcome::Loaded(records) => {
                let record = records
                    .first()
                    .ok_or_else(|| PagedError::Stale("meta record holds no payload".to_string()))?;
                let meta: Meta =
                    fc_ckpt::decode_from_slice(record).map_err(|cause| PagedError::Corrupt {
                        page: META_ID,
                        cause,
                    })?;
                meta
            }
        };
        if meta.version != META_VERSION {
            return Err(PagedError::Stale(format!(
                "meta version {} != {META_VERSION}",
                meta.version
            )));
        }
        if meta.input_digest != input_digest {
            return Err(PagedError::Stale(format!(
                "input digest {:016x} != staged {:016x}",
                input_digest, meta.input_digest
            )));
        }
        Ok(PagedReadStore { store, meta })
    }

    /// Number of pages on disk.
    pub fn pages(&self) -> u32 {
        self.meta.pages
    }

    fn load_page(&mut self, page: u32) -> Result<Vec<PageEntry>, PagedError> {
        match self.store.load(FIRST_PAGE_ID + page, PAGE_NAME) {
            LoadOutcome::Missing => Err(PagedError::MissingPage { page }),
            LoadOutcome::Rejected(cause) => Err(PagedError::Corrupt { page, cause }),
            LoadOutcome::Loaded(records) => records
                .iter()
                .map(|r| {
                    fc_ckpt::decode_from_slice(r)
                        .map_err(|cause| PagedError::Corrupt { page, cause })
                })
                .collect(),
        }
    }

    /// Streams every page back in order and rebuilds the in-memory
    /// RC-paired [`ReadStore`] (reverse complements are regenerated). Reads
    /// pages one at a time, so peak extra memory is one page.
    pub fn materialize(&mut self) -> Result<ReadStore, PagedError> {
        let mut pairs = Vec::with_capacity(self.meta.entries as usize);
        for page in 0..self.meta.pages {
            for entry in self.load_page(page)? {
                pairs.push((entry.bases, entry.source));
            }
        }
        if pairs.len() as u64 != self.meta.entries {
            return Err(PagedError::Stale(format!(
                "pages hold {} reads, meta promises {}",
                pairs.len(),
                self.meta.entries
            )));
        }
        Ok(ReadStore::from_trimmed(&pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualityScores;
    use crate::read::Read;
    use crate::store::ReadStoreBuilder;
    use crate::trim::TrimConfig;
    use fc_ckpt::{ReadFault, WriteFault};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fc_seq_paged_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_reads(n: usize) -> Vec<DnaString> {
        (0..n)
            .map(|i| {
                ["ACGTACGTAC", "TTGGCCAATT", "GATTACAGAT"][i % 3]
                    .parse()
                    .unwrap()
            })
            .collect()
    }

    fn stage(dir: &Path, reads: &[DnaString], page_len: usize) -> PagedReadStore {
        let mut w = PagedStoreWriter::create(dir, 0xFC, page_len, FsFaultPlan::none());
        for (i, read) in reads.iter().enumerate() {
            w.push(read.clone(), i as u32).unwrap();
        }
        w.finish(0xD1).unwrap()
    }

    #[test]
    fn round_trips_reads_across_pages() {
        let dir = temp_dir("round_trip");
        let reads = sample_reads(7);
        let mut paged = stage(&dir, &reads, 3);
        assert_eq!(paged.pages(), 3);
        let store = paged.materialize().unwrap();
        assert_eq!(store.len(), 2 * reads.len());
        for (i, read) in reads.iter().enumerate() {
            let id = crate::read::ReadId(2 * i as u32);
            assert_eq!(store.get(id), read.packed());
            assert_eq!(store.source_index(id), i);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn materialize_matches_builder_output() {
        let dir = temp_dir("materialize");
        let config = TrimConfig {
            min_read_len: 1,
            ..TrimConfig::default()
        };
        // Reference: the normal streaming builder.
        let mut builder = ReadStoreBuilder::new(&config).unwrap();
        for (i, seq) in sample_reads(5).into_iter().enumerate() {
            let qual = QualityScores::from_phred(vec![35; seq.len()]);
            builder.push(&Read::with_quality(format!("r{i}"), seq, qual));
        }
        let expect = builder.finish();
        // Staged: spill the forward strands, then materialize (which
        // regenerates the reverse complements).
        let mut w = PagedStoreWriter::create(&dir, 0xFC, 2, FsFaultPlan::none());
        for i in (0..expect.len()).step_by(2) {
            let id = crate::read::ReadId(i as u32);
            w.push(expect.get(id), expect.source_index(id) as u32)
                .unwrap();
        }
        let mut paged = w.finish(0xD1).unwrap();
        let store = paged.materialize().unwrap();
        assert_eq!(store, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_validates_digest_and_fingerprint() {
        let dir = temp_dir("open");
        let reads = sample_reads(4);
        stage(&dir, &reads, 2);
        // Matching identity: opens and reads back.
        let mut ok = PagedReadStore::open(&dir, 0xFC, 0xD1, FsFaultPlan::none()).unwrap();
        let store = ok.materialize().unwrap();
        assert_eq!(store.len(), 8);
        assert_eq!(store.get(crate::read::ReadId(6)), reads[3].packed());
        // Different input digest: stale.
        let err = PagedReadStore::open(&dir, 0xFC, 0xBEEF, FsFaultPlan::none()).unwrap_err();
        assert!(matches!(err, PagedError::Stale(_)), "{err}");
        // Different config fingerprint: the checkpoint layer rejects the
        // meta file itself.
        let err = PagedReadStore::open(&dir, 0xDEAD, 0xD1, FsFaultPlan::none()).unwrap_err();
        assert!(matches!(err, PagedError::Corrupt { .. }), "{err}");
        // Missing directory: stale (nothing staged), not a crash.
        let err =
            PagedReadStore::open(dir.join("nope"), 0xFC, 0xD1, FsFaultPlan::none()).unwrap_err();
        assert!(matches!(err, PagedError::Stale(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pages staged under another meta version are refused as stale —
    /// their entries are never decoded as this version's layout.
    #[test]
    fn pages_of_an_older_meta_version_are_stale() {
        let dir = temp_dir("old_version");
        let mut paged = stage(&dir, &sample_reads(4), 2);
        let old = Meta {
            version: META_VERSION - 1,
            ..paged.meta
        };
        assert!(paged
            .store
            .save(META_ID, META_NAME, vec![fc_ckpt::encode_to_vec(&old)])
            .unwrap());
        let err = PagedReadStore::open(&dir, 0xFC, 0xD1, FsFaultPlan::none()).unwrap_err();
        assert!(matches!(err, PagedError::Stale(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_faults_surface_typed_not_silent() {
        let dir = temp_dir("write_faults");
        // ENOSPC on the first write: push/finish reports a typed error.
        let faults = FsFaultPlan::none().fail_write(0, WriteFault::Enospc);
        let mut w = PagedStoreWriter::create(&dir, 0xFC, 2, faults);
        let reads = sample_reads(3);
        let mut failed = false;
        for (i, read) in reads.iter().enumerate() {
            if w.push(read.clone(), i as u32).is_err() {
                failed = true;
                break;
            }
        }
        let failed = failed || w.finish(0xD1).is_err();
        assert!(failed, "injected ENOSPC must surface as an error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_faults_are_detected_by_crc() {
        for (tag, fault) in [
            ("short", ReadFault::Short),
            ("bitflip", ReadFault::BitFlip { bit: 13 }),
        ] {
            let dir = temp_dir(&format!("read_fault_{tag}"));
            let reads = sample_reads(4);
            stage(&dir, &reads, 2);
            // Fault the *page* read (meta is read op 0 at open; pages
            // follow). Try both of the first two read ops to be robust to
            // op numbering, and require a typed error either way.
            let mut detected = false;
            for op in 0..2u64 {
                let faults = FsFaultPlan::none().fail_read(op, fault);
                match PagedReadStore::open(&dir, 0xFC, 0xD1, faults) {
                    Err(PagedError::Corrupt { .. }) => detected = true,
                    Err(e) => panic!("unexpected error kind: {e}"),
                    Ok(mut paged) => match paged.materialize() {
                        Err(PagedError::Corrupt { .. }) => detected = true,
                        Err(e) => panic!("unexpected error kind: {e}"),
                        Ok(store) => {
                            // The fault missed every read this run made;
                            // data must still be intact.
                            assert_eq!(store.len(), 8);
                        }
                    },
                }
            }
            assert!(detected, "{tag}: injected fault was never detected");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_page_write_is_rejected_at_read_time() {
        let dir = temp_dir("torn");
        let reads = sample_reads(4);
        // Torn write: the checkpoint layer reports success (crash-after-
        // write semantics) but the file holds half the bytes.
        let faults = FsFaultPlan::none().fail_write(0, WriteFault::Torn);
        let mut w = PagedStoreWriter::create(&dir, 0xFC, 2, faults);
        for (i, read) in reads.iter().enumerate() {
            w.push(read.clone(), i as u32).unwrap();
        }
        let mut paged = w.finish(0xD1).unwrap();
        let err = paged.materialize().unwrap_err();
        assert!(matches!(err, PagedError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
