//! Alignment-kernel speedup — scalar banded NW vs the bit-parallel
//! prefilter pipelines (`--align-kernel`), wall-clock.
//!
//! For each kernel kind the overlaps are first asserted **bit-identical**
//! to the scalar reference — at thread counts {1, 2, 4, 8} — before any
//! timing happens; a kernel that diverges aborts the bench. Timing then
//! measures two things serially, best-of-3: the **alignment verification
//! phase in isolation** (the same geometry-produced [`fc_align::VerifyReq`]
//! batch pushed through each kernel's `verify_batch` — the headline
//! speedup, since that is the exact code `--align-kernel` dispatches) and
//! the end-to-end overlap pipeline (seed → vote → verify) for context.
//! Results land in `BENCH_align.json` at the repository root together with
//! the prefilter counters that explain the speedup — among them the share
//! of requests resolved without any DP (ungapped-optimum rule + bound
//! rejections).

use fc_align::{KernelKind, KernelScratch, OverlapConfig, Overlapper, PairStats, Pool};
use fc_bench::{bench_scale, prepare_context};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

struct KernelRecord {
    kind: KernelKind,
    /// Resolved engine name (`scalar`, `bitparallel`, `wide-avx2`, …).
    engine: String,
    /// Verification phase only: the shared request batch through
    /// `verify_batch`. The headline number.
    verify: Duration,
    /// End-to-end seed+vote+verify, for context (seeding is
    /// kernel-independent and bounds the pipeline ratio).
    pipeline: Duration,
    total: PairStats,
}

fn best_of<F: FnMut()>(mut run: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed());
    }
    best
}

/// Kernel-dependent counters zeroed, for logical comparison.
fn logical(stats: &PairStats) -> PairStats {
    PairStats {
        prefilter_rejected: 0,
        prefilter_verified: 0,
        exact_hits: 0,
        wide_lanes: 0,
        ..*stats
    }
}

fn main() {
    let scale = bench_scale();
    let ctx = prepare_context(scale);
    let prepared = ctx
        .prepared
        .iter()
        .max_by_key(|p| p.store.len())
        .expect("paper data sets are non-empty");
    let subsets = prepared.store.split_subsets(4);
    let base_config = ctx.assembler.config().overlap;
    println!(
        "align kernel sweep: {} reads, {} subsets, scale {scale}",
        prepared.store.len(),
        subsets.len()
    );

    let make = |kind: KernelKind| -> Overlapper<'_> {
        let config = OverlapConfig {
            kernel: kind,
            ..base_config
        };
        Overlapper::new(&prepared.store, config).expect("overlap config is valid")
    };

    // --- Correctness gate: bit-identical overlaps before any timing. ---
    let scalar = make(KernelKind::Scalar);
    let reference = scalar.overlap_all_with(&subsets, &Pool::serial());
    assert!(!reference.0.is_empty(), "bench corpus produced no overlaps");
    for kind in [KernelKind::Scalar, KernelKind::BitParallel, KernelKind::Auto] {
        let overlapper = make(kind);
        for &t in &THREADS {
            let got = overlapper.overlap_all_with(&subsets, &Pool::new(t));
            assert_eq!(
                got.0,
                reference.0,
                "{} overlaps diverge from scalar at {t} threads",
                overlapper.kernel_name()
            );
            for ((i, j, s), (ri, rj, rs)) in got.1.iter().zip(&reference.1) {
                assert_eq!((i, j), (ri, rj));
                assert_eq!(
                    logical(s),
                    logical(rs),
                    "{} logical pair stats diverge at {t} threads",
                    overlapper.kernel_name()
                );
            }
        }
        println!(
            "  {:<12} identical to scalar at threads {THREADS:?}",
            overlapper.kernel_name()
        );
    }

    // --- The verification work list: geometry is kernel-independent, so
    // every kernel gets the identical request batch. ---
    let reqs = scalar.gather_requests(&subsets);
    println!("  gathered {} verification requests", reqs.len());

    // --- Timing: verify phase isolated + end-to-end pipeline, best of {REPS}. ---
    let mut records = Vec::new();
    let mut reference_verdicts = None;
    for kind in [KernelKind::Scalar, KernelKind::BitParallel, KernelKind::Auto] {
        let overlapper = make(kind);

        let mut scratch = KernelScratch::default();
        let mut verdicts = Vec::new();
        let mut verify_stats = PairStats::default();
        let verify = best_of(|| {
            verify_stats = PairStats::default();
            overlapper.verify_requests(&reqs, &mut scratch, &mut verify_stats, &mut verdicts);
        });
        match &reference_verdicts {
            None => reference_verdicts = Some(verdicts.clone()),
            Some(reference) => assert_eq!(
                &verdicts,
                reference,
                "{} verdicts diverge from scalar on the shared request batch",
                overlapper.kernel_name()
            ),
        }

        let pool = Pool::serial();
        let mut out = None;
        let pipeline = best_of(|| {
            out = Some(overlapper.overlap_all_with(&subsets, &pool));
        });
        // Pipeline stats carry the geometry-stage counters (candidates,
        // nw_cells) the verify-only pass never sees; its kernel counters
        // match `verify_stats` since both saw the same request batch.
        let (_, pair_stats) = out.expect("at least one repetition ran");
        let mut total = PairStats::default();
        for (_, _, s) in &pair_stats {
            total.merge(s);
        }

        records.push(KernelRecord {
            kind,
            engine: overlapper.kernel_name().to_string(),
            verify,
            pipeline,
            total,
        });
    }

    let scalar_verify = records[0].verify.as_secs_f64();
    let scalar_pipeline = records[0].pipeline.as_secs_f64();
    println!(
        "{:>12} {:>14} {:>12} {:>10} {:>12} {:>10}",
        "kernel", "engine", "verify", "speedup", "pipeline", "speedup"
    );
    for r in &records {
        println!(
            "{:>12} {:>14} {:>12.3?} {:>9.2}x {:>12.3?} {:>9.2}x",
            r.kind.as_str(),
            r.engine,
            r.verify,
            scalar_verify / r.verify.as_secs_f64().max(1e-12),
            r.pipeline,
            scalar_pipeline / r.pipeline.as_secs_f64().max(1e-12)
        );
    }

    // --- JSON artifact. ---
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"experiment\": \"align_kernel\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"reads\": {},", prepared.store.len());
    let _ = writeln!(json, "  \"candidates\": {},", records[0].total.candidates);
    let _ = writeln!(json, "  \"verify_requests\": {},", reqs.len());
    let _ = writeln!(json, "  \"threads_checked\": [1, 2, 4, 8],");
    let _ = writeln!(json, "  \"overlaps_identical_across_kernels\": true,");
    let _ = writeln!(
        json,
        "  \"note\": \"verify_seconds times the alignment verification phase in \
         isolation (the identical geometry-produced request batch through each \
         kernel, best of {REPS}); pipeline_seconds is the serial end-to-end \
         seed+vote+verify for context. Every kernel's overlaps byte-match the \
         scalar reference at every swept thread count before timing. \
         resolved_without_dp_share = (exact_hits + prefilter_rejected) / \
         verify_requests: exact_hits counts the ungapped-optimum rule, \
         prefilter_verified counts DP runs\","
    );
    json.push_str("  \"kernels\": {\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(json, "    \"{}\": {{", r.kind.as_str());
        let _ = writeln!(json, "      \"engine\": \"{}\",", r.engine);
        let _ = writeln!(
            json,
            "      \"verify_seconds\": {:.6},",
            r.verify.as_secs_f64()
        );
        let _ = writeln!(
            json,
            "      \"speedup_vs_scalar\": {:.3},",
            scalar_verify / r.verify.as_secs_f64().max(1e-12)
        );
        let _ = writeln!(
            json,
            "      \"pipeline_seconds\": {:.6},",
            r.pipeline.as_secs_f64()
        );
        let _ = writeln!(
            json,
            "      \"pipeline_speedup_vs_scalar\": {:.3},",
            scalar_pipeline / r.pipeline.as_secs_f64().max(1e-12)
        );
        let _ = writeln!(
            json,
            "      \"prefilter_rejected\": {},",
            r.total.prefilter_rejected
        );
        let _ = writeln!(
            json,
            "      \"prefilter_verified\": {},",
            r.total.prefilter_verified
        );
        let _ = writeln!(json, "      \"exact_hits\": {},", r.total.exact_hits);
        let _ = writeln!(
            json,
            "      \"resolved_without_dp_share\": {:.4},",
            (r.total.exact_hits + r.total.prefilter_rejected) as f64 / reqs.len().max(1) as f64
        );
        let _ = writeln!(json, "      \"wide_lanes\": {},", r.total.wide_lanes);
        let _ = writeln!(json, "      \"nw_cells_charged\": {}", r.total.nw_cells);
        let sep = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{sep}");
    }
    json.push_str("  }\n}\n");

    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| format!("{m}/../.."))
        .unwrap_or_else(|_| ".".to_string());
    let path = format!("{root}/BENCH_align.json");
    std::fs::write(&path, &json).expect("BENCH_align.json is writable");
    println!("wrote {path}");
}
