//! Candidate verification: one crate-private function, `verify`, behind
//! [`crate::Overlapper::verify_requests`].
//!
//! The overlapper ([`crate::pairwise`]) separates *what* must be verified
//! from *how*: the seeding/geometry stage produces a batch of
//! [`VerifyReq`]s, and `verify` turns each request into the verdict banded
//! Needleman–Wunsch produces for it ([`banded_nw_verdict`]) — running that
//! DP only when none of the proven bounds of [`crate::myers`] already
//! determines its verdict (or, for the ungapped-optimum rule on
//! equal-length ranges, when the optimal alignment is unique and known from
//! a word-parallel Hamming count). Anything else runs NW in a band shrunk
//! by the gap bound, which the band-equivalence argument shows cannot
//! change the summary. [`banded_nw_verdict`] is therefore both the DP step
//! of `verify` and the oracle every differential test compares it with.

use crate::myers::{
    edit_distance_with, identity_upper_bound, max_columns_bound, optimal_gap_bound,
    ungapped_optimum_forced, MyersScratch,
};
use crate::nw::{banded_global_with, AlignmentSummary, NwScratch, MATCH, MISMATCH};
use crate::overlap::OverlapKind;
use crate::pairwise::{OverlapConfig, PairStats};
use fc_seq::{ReadId, ReadStore};

/// One geometry-classified candidate awaiting verification: align
/// `a[a_range]` against `b[b_range]` within `band`. The `kind`/`shift`
/// fields ride along so the overlapper can emit the [`crate::Overlap`]
/// without re-deriving geometry.
#[derive(Debug, Clone, Copy)]
pub struct VerifyReq {
    /// First read of the candidate pair.
    pub a: ReadId,
    /// Second read of the candidate pair.
    pub b: ReadId,
    /// Overlap geometry derived from the seed diagonal.
    pub kind: OverlapKind,
    /// Offset of the overlap on the outer/left read.
    pub shift: u32,
    /// Range of `a` inside the overlap.
    pub a_range: (usize, usize),
    /// Range of `b` inside the overlap.
    pub b_range: (usize, usize),
    /// Band half-width for this request: the configured
    /// [`OverlapConfig::band`] as the geometry stage emits it; `verify`
    /// narrows it to the gap bound before the DP it runs.
    pub band: usize,
}

/// Reusable per-worker buffers of verification: the NW band buffers and the
/// Myers `Peq`/delta vectors. One value per worker thread,
/// like `AlignScratch`.
#[derive(Debug, Default)]
pub struct KernelScratch {
    nw: NwScratch,
    myers: MyersScratch,
}

/// Applies the overlap thresholds to a banded-NW summary.
#[inline]
fn apply_thresholds(config: &OverlapConfig, summary: AlignmentSummary) -> Option<AlignmentSummary> {
    if (summary.columns as usize) < config.min_overlap_len
        || summary.identity() < config.min_identity
    {
        None
    } else {
        Some(summary)
    }
}

/// The banded-NW verdict: Needleman–Wunsch at the request's band, then
/// `config`'s thresholds. The DP step of
/// [`crate::Overlapper::verify_requests`] and the reference it must agree
/// with on every request.
pub fn banded_nw_verdict(
    store: &ReadStore,
    config: &OverlapConfig,
    req: &VerifyReq,
    nw: &mut NwScratch,
) -> Option<AlignmentSummary> {
    let a_seq = store.get(req.a);
    let b_seq = store.get(req.b);
    let summary = banded_global_with(a_seq, req.a_range, b_seq, req.b_range, req.band, nw)?;
    apply_thresholds(config, summary)
}

/// Hamming distance of an equal-length request's two ranges, counted 32
/// bases per word straight from the packed reads.
fn hamming(store: &ReadStore, req: &VerifyReq) -> usize {
    debug_assert_eq!(req.a_range.1 - req.a_range.0, req.b_range.1 - req.b_range.0);
    store.get(req.a).packed().mismatches(
        req.a_range.0,
        &store.get(req.b).packed(),
        req.b_range.0,
        req.a_range.1 - req.a_range.0,
    )
}

/// The verdict of a request whose all-diagonal alignment is the unique
/// score optimum ([`ungapped_optimum_forced`]): banded NW must report
/// `n` columns with `h` mismatches, whatever its band or tie-break.
fn ungapped_verdict(
    config: &OverlapConfig,
    n: usize,
    h: usize,
    stats: &mut PairStats,
) -> Option<AlignmentSummary> {
    stats.exact_hits += 1;
    let (matches, mismatches) = ((n - h) as i32, h as i32);
    let summary = AlignmentSummary {
        score: MATCH * matches + MISMATCH * mismatches,
        columns: n as u32,
        matches: matches as u32,
    };
    apply_thresholds(config, summary)
}

/// Verifies one request against `config`'s thresholds. Before any edit
/// distance: the out-of-band rejection NW would make, the ungapped-optimum
/// rule for Hamming distances small enough to need no edit distance, and
/// the cannot-reach-`min_overlap_len` rejection. Then, given the exact edit distance `d`: reject via the
/// identity and column bounds, resolve equal-length ranges whose Hamming
/// distance equals `d` by the ungapped-optimum rule, otherwise run NW in
/// the gap-bound-shrunk band (provably the same summary as the request's
/// band — see [`crate::myers`]). `stats` counts which of these happened
/// (`prefilter_*`, `exact_hits`).
pub(crate) fn verify(
    store: &ReadStore,
    config: &OverlapConfig,
    req: &VerifyReq,
    scratch: &mut KernelScratch,
    stats: &mut PairStats,
) -> Option<AlignmentSummary> {
    let (n, m) = (req.a_range.1 - req.a_range.0, req.b_range.1 - req.b_range.0);
    if n.abs_diff(m) > req.band {
        // Banded NW rejects this outright (global path leaves the band);
        // mirror it without touching the sequences.
        return None;
    }
    let h = (n == m).then(|| hamming(store, req));
    if let Some(h) = h.filter(|&h| ungapped_optimum_forced(h, None)) {
        return ungapped_verdict(config, n, h, stats);
    }
    if n + m < config.min_overlap_len {
        // Columns never exceed n + m, so the length threshold is
        // unreachable whatever NW computes.
        stats.prefilter_rejected += 1;
        return None;
    }
    let d = edit_distance_with(
        store.get(req.a).packed(),
        req.a_range,
        store.get(req.b).packed(),
        req.b_range,
        &mut scratch.myers,
    );
    if identity_upper_bound(n, m, d) < config.min_identity {
        stats.prefilter_rejected += 1;
        return None;
    }
    let gmax = optimal_gap_bound(n, m, d);
    if max_columns_bound(n, m, gmax) < config.min_overlap_len {
        stats.prefilter_rejected += 1;
        return None;
    }
    if let Some(h) = h.filter(|&h| ungapped_optimum_forced(h, Some(d))) {
        return ungapped_verdict(config, n, h, stats);
    }
    stats.prefilter_verified += 1;
    let shrunk = VerifyReq {
        band: req.band.min(gmax),
        ..*req
    };
    banded_nw_verdict(store, config, &shrunk, &mut scratch.nw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_rng::Rng;
    use fc_seq::{Base, DnaString, Read, TrimConfig};

    /// A store of 12 base reads, each followed by a lightly mutated copy
    /// (forward ids `4i` and `4i + 2` after RC augmentation), so requests
    /// can pair homologous ranges as well as unrelated ones. Every third
    /// base read is a tandem repeat of period 1..=6; copies take
    /// substitutions and, half the time, single-base insertions/deletions,
    /// so equal-length homologous ranges meet `h > D` (a gapped optimum) as
    /// well as `h == D`.
    fn paired_store(rng: &mut Rng) -> ReadStore {
        let mut reads = Vec::new();
        for i in 0..12 {
            let len = rng.range(30..180);
            let period = if i % 3 == 0 { rng.range(1..=6) } else { len };
            let unit: Vec<Base> = (0..period)
                .map(|_| Base::from_code(rng.range(0..4)))
                .collect();
            let base: DnaString = (0..len).map(|p| unit[p % period]).collect();
            let mut copy: Vec<Base> = base.iter().collect();
            for _ in 0..rng.range(0..5) {
                let p = rng.range(0..copy.len());
                copy[p] = Base::from_code(rng.range(0..4));
            }
            let indels = if rng.bool(0.5) { rng.range(1..=2) } else { 0 };
            for _ in 0..indels {
                let p = rng.range(0..copy.len());
                if rng.bool(0.5) {
                    copy.insert(p, Base::from_code(rng.range(0..4)));
                } else {
                    copy.remove(p);
                }
            }
            reads.push(Read::new(format!("b{i}"), base));
            reads.push(Read::new(format!("m{i}"), copy.into_iter().collect()));
        }
        ReadStore::preprocess(
            &reads,
            &TrimConfig {
                min_read_len: 1,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// A mixed corpus: unrelated random ranges (mostly rejects), jittered
    /// self-ranges (exact hits and tiny-distance survivors), and homologous
    /// base-vs-mutated-copy ranges (accepts, near-threshold verdicts and —
    /// across the copy's indels or along a tandem repeat — gapped optima),
    /// over bands from 0 through 16 including `dl == band ± 1` edges.
    fn random_reqs(store: &ReadStore, rng: &mut Rng, count: usize) -> Vec<VerifyReq> {
        let mut reqs = Vec::new();
        for _ in 0..count {
            let band = [0usize, 1, 4, 8, 16][rng.range(0..5)];
            let (a, b, a_range, b_range) = match rng.range(0..4) {
                0 | 1 => {
                    // Unrelated ranges with band-straddling length deltas.
                    let a = ReadId(rng.range(0..store.len() as u32));
                    let b = ReadId(rng.range(0..store.len() as u32));
                    let (la, lb) = (store.get(a).len(), store.get(b).len());
                    let n = rng.range(0..la + 1);
                    let delta = rng.range(0..band + 3);
                    let m = if rng.bool(0.5) {
                        n.saturating_sub(delta).min(lb)
                    } else {
                        (n + delta).min(lb)
                    };
                    let a0 = rng.range(0..la - n + 1);
                    let b0 = rng.range(0..lb - m + 1);
                    (a, b, (a0, a0 + n), (b0, b0 + m))
                }
                2 => {
                    // Same read, endpoints jittered by up to 2 bases.
                    let a = ReadId(rng.range(0..store.len() as u32));
                    let la = store.get(a).len();
                    let n = rng.range(0..la + 1);
                    let a0 = rng.range(0..la - n + 1);
                    let b0 = a0.saturating_sub(rng.range(0..3));
                    let b1 = ((a0 + n) + rng.range(0..3)).min(la);
                    (a, a, (a0, a0 + n), (b0, b1.max(b0)))
                }
                _ => {
                    // Homologous: base read vs its mutated copy (whose
                    // length differs by the copy's net indel count).
                    let i = rng.range(0..12u32);
                    let a = ReadId(4 * i);
                    let b = ReadId(4 * i + 2);
                    let (la, lb) = (store.get(a).len(), store.get(b).len());
                    let n = rng.range(0..la + 1);
                    let a0 = rng.range(0..la - n + 1);
                    let jit = rng.range(0..2);
                    (a, b, (a0, a0 + n), (a0.min(lb), (a0 + n + jit).min(lb)))
                }
            };
            reqs.push(VerifyReq {
                a,
                b,
                kind: OverlapKind::SuffixPrefix,
                shift: 0,
                a_range,
                b_range,
                band,
            });
        }
        reqs
    }

    /// [`verify`]'s verdicts and counters over `reqs`.
    fn run(
        store: &ReadStore,
        config: &OverlapConfig,
        reqs: &[VerifyReq],
    ) -> (Vec<Option<AlignmentSummary>>, PairStats) {
        let mut scratch = KernelScratch::default();
        let mut stats = PairStats::default();
        let out = reqs
            .iter()
            .map(|req| verify(store, config, req, &mut scratch, &mut stats))
            .collect();
        (out, stats)
    }

    /// The banded-NW verdicts [`verify`] must reproduce.
    fn reference(
        store: &ReadStore,
        config: &OverlapConfig,
        reqs: &[VerifyReq],
    ) -> Vec<Option<AlignmentSummary>> {
        let mut nw = NwScratch::default();
        reqs.iter()
            .map(|req| banded_nw_verdict(store, config, req, &mut nw))
            .collect()
    }

    /// Thresholds `min_overlap_len` and `min_identity` over the defaults.
    fn thresholds(min_overlap_len: usize, min_identity: f64) -> OverlapConfig {
        OverlapConfig {
            min_overlap_len,
            min_identity,
            ..OverlapConfig::default()
        }
    }

    /// The differential corpus: `verify` must agree verdict-for-verdict
    /// with banded NW across empty, short, multiword and band-edge requests.
    #[test]
    fn verify_agrees_with_banded_nw() {
        let mut rng = Rng::new(42);
        let config = thresholds(30, 0.9);
        let mut seen = PairStats::default();
        let mut gapped_accepts = 0;
        for round in 0..6 {
            let store = paired_store(&mut rng);
            let reqs = random_reqs(&store, &mut rng, 300);
            let expected = reference(&store, &config, &reqs);
            assert!(expected.iter().any(|v| v.is_some()), "corpus too easy");
            assert!(expected.iter().any(|v| v.is_none()), "corpus too easy");
            gapped_accepts += gapped_equal_length_accepts(&reqs, &expected);
            let (got, stats) = run(&store, &config, &reqs);
            assert_eq!(got, expected, "verify diverges in round {round}");
            // A request inside its band is counted exactly once — bound
            // rejection, rule resolution or DP run; one outside it is
            // rejected before anything is counted.
            let in_band = reqs.iter().filter(|r| {
                let (n, m) = (r.a_range.1 - r.a_range.0, r.b_range.1 - r.b_range.0);
                n.abs_diff(m) <= r.band
            });
            assert_eq!(
                stats.prefilter_rejected + stats.prefilter_verified + stats.exact_hits,
                in_band.count() as u64,
                "verify miscounts in round {round}"
            );
            seen.merge(&stats);
        }
        // Every class of the pipeline occurred: bound rejections, rule
        // resolutions, DP runs, and accepted equal-length requests whose
        // optimum is gapped (where firing the rule would have been wrong).
        assert!(seen.prefilter_rejected > 0, "{seen:?}");
        assert!(seen.exact_hits > 0, "{seen:?}");
        assert!(seen.prefilter_verified > 0, "{seen:?}");
        assert!(gapped_accepts > 0, "no equal-length request with a gapped optimum");
    }

    /// Accepted verdicts on equal-length ranges whose column count exceeds
    /// the range length: NW chose a gapped alignment.
    fn gapped_equal_length_accepts(
        reqs: &[VerifyReq],
        verdicts: &[Option<AlignmentSummary>],
    ) -> usize {
        reqs.iter()
            .zip(verdicts)
            .filter(|(req, verdict)| {
                let (n, m) = (req.a_range.1 - req.a_range.0, req.b_range.1 - req.b_range.0);
                n == m && verdict.is_some_and(|s| s.columns as usize != n)
            })
            .count()
    }

    /// The DP never runs in a wider band than the request's, and on this
    /// corpus it runs in a narrower one — the gap bound's — at least once.
    #[test]
    fn dp_runs_in_the_gap_bound_shrunk_band() {
        let mut rng = Rng::new(42);
        let config = thresholds(30, 0.9);
        let store = paired_store(&mut rng);
        let mut scratch = KernelScratch::default();
        let mut stats = PairStats::default();
        let mut shrunk = 0;
        for req in random_reqs(&store, &mut rng, 300) {
            let dp_runs = stats.prefilter_verified;
            verify(&store, &config, &req, &mut scratch, &mut stats);
            if stats.prefilter_verified > dp_runs {
                assert!(scratch.nw.last_band() <= req.band, "{req:?}");
                shrunk += usize::from(scratch.nw.last_band() < req.band);
            }
        }
        assert!(shrunk > 0, "no DP ran in a shrunk band: {stats:?}");
    }

    /// Degenerate thresholds (accept everything / reject everything), strict
    /// ones, and empty ranges keep `verify` and banded NW in lockstep.
    #[test]
    fn verify_agrees_at_threshold_extremes() {
        let mut rng = Rng::new(7);
        let store = paired_store(&mut rng);
        let reqs = {
            let mut r = random_reqs(&store, &mut rng, 120);
            // Force some fully-empty and half-empty ranges.
            for req in &mut r[..6] {
                req.a_range = (0, 0);
            }
            for req in &mut r[6..12] {
                req.b_range = (0, 0);
            }
            for req in &mut r[..3] {
                req.b_range = (0, 0);
            }
            r
        };
        for (min_len, min_id) in [
            (0usize, 0.0f64),
            (0, 1.0),
            (200, 0.9),
            (50, 0.95),
            (60, 0.97),
        ] {
            let config = thresholds(min_len, min_id);
            let (got, _) = run(&store, &config, &reqs);
            assert_eq!(
                got,
                reference(&store, &config, &reqs),
                "verify diverges at min_len={min_len} min_id={min_id}"
            );
        }
    }
}
