//! Banded Needleman–Wunsch global alignment.
//!
//! Candidate overlaps suggested by k-mer seeding are verified with a banded
//! global alignment of the two overlapping regions (paper §II-B). The band is
//! centred on the main diagonal because the seeding stage already aligned the
//! regions' starting coordinates; its width only needs to absorb indel drift.

use fc_seq::PackedView;

/// Score added per matching column. The verifier's bounds
/// ([`crate::myers`]) are derived for this scoring and no other.
pub const MATCH: i32 = 1;
/// Score added per mismatching column.
pub const MISMATCH: i32 = -2;
/// Score added per gap column.
pub const GAP: i32 = -3;

/// Outcome of a banded global alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentSummary {
    /// Total alignment score.
    pub score: i32,
    /// Number of alignment columns (matches + mismatches + gaps).
    pub columns: u32,
    /// Number of matching columns.
    pub matches: u32,
}

impl AlignmentSummary {
    /// Fraction of columns that match, in `[0, 1]`. Zero columns yield 0.
    pub fn identity(&self) -> f64 {
        if self.columns == 0 {
            0.0
        } else {
            self.matches as f64 / self.columns as f64
        }
    }
}

/// Reusable buffers for [`banded_global_with`]: the two ranges' bases, one
/// 2-bit code per byte, and two band rows of scores and of
/// `(columns, matches)` packed as `columns << 32 | matches`.
///
/// A scratch value — owned per worker thread in the parallel overlapper —
/// lets every call recycle them; each call reinitialises what it reads, so
/// results are identical to the allocate-per-call path.
#[derive(Debug, Clone, Default)]
pub struct NwScratch {
    a: Vec<u8>,
    b: Vec<u8>,
    prev: Vec<i32>,
    cur: Vec<i32>,
    prev_cm: Vec<u64>,
    cur_cm: Vec<u64>,
}

/// One alignment column added to a packed `(columns, matches)`.
const COLUMN: u64 = 1 << 32;

/// Globally aligns `a[a_start..a_end]` against `b[b_start..b_end]` within a
/// band of half-width `band` around the main diagonal, returning the
/// score/column/match summary, or `None` when the length difference exceeds
/// the band (the global path would leave the band).
pub fn banded_global(
    a: PackedView<'_>,
    a_range: (usize, usize),
    b: PackedView<'_>,
    b_range: (usize, usize),
    band: usize,
) -> Option<AlignmentSummary> {
    banded_global_with(a, a_range, b, b_range, band, &mut NwScratch::default())
}

/// [`banded_global`] with caller-provided buffers (the zero-allocation hot
/// path; see [`NwScratch`]).
///
/// Row `i` covers columns `j` in `[i - band, i + band] ∩ [0, m]`, column `j`
/// at slot `j + band - i + 1` of a row of `2·band + 3` slots. Cell `(i, j)`
/// takes the best of diagonal `(i-1, j-1)` (the same slot of the previous
/// row), up `(i-1, j)` (the next slot) and left `(i, j-1)` (the cell just
/// computed, carried in registers), and on ties prefers diagonal, then up,
/// then left: the order the verifier's bounds and every digest rely on.
/// Every cell inside the band is reachable, so a predecessor is invalid
/// only where it leaves the band, and no cell tests for it: up at
/// `j = i + band` reads the last slot, which no row writes and which stays
/// `NEG`; left at a row's first cell starts from `NEG`; column 0, which has
/// no diagonal, is a step of its own.
pub fn banded_global_with(
    a: PackedView<'_>,
    a_range: (usize, usize),
    b: PackedView<'_>,
    b_range: (usize, usize),
    band: usize,
    scratch: &mut NwScratch,
) -> Option<AlignmentSummary> {
    let (a_start, a_end) = a_range;
    let (b_start, b_end) = b_range;
    assert!(
        a_start <= a_end && a_end <= a.len(),
        "a range out of bounds"
    );
    assert!(
        b_start <= b_end && b_end <= b.len(),
        "b range out of bounds"
    );
    let n = a_end - a_start; // rows
    let m = b_end - b_start; // columns
    if n.abs_diff(m) > band {
        return None;
    }

    const NEG: i32 = i32::MIN / 4;
    let NwScratch {
        a: a_codes,
        b: b_codes,
        prev,
        cur,
        prev_cm,
        cur_cm,
    } = scratch;
    a.fill_codes(a_start, a_end, a_codes);
    b.fill_codes(b_start, b_end, b_codes);
    let slots = 2 * band + 3;
    for row in [&mut *prev, &mut *cur] {
        row.clear();
        row.resize(slots, NEG);
    }
    for row in [&mut *prev_cm, &mut *cur_cm] {
        row.clear();
        row.resize(slots, 0);
    }

    // Row 0: leading gaps in `a`.
    for j in 0..=m.min(band) {
        prev[j + band + 1] = GAP * j as i32;
        prev_cm[j + band + 1] = j as u64 * COLUMN;
    }
    for (i, &ai) in (1..=n).zip(a_codes.iter()) {
        let (mut j, j_hi) = (i.saturating_sub(band), (i + band).min(m));
        let mut s = j + band + 1 - i;
        let (mut left, mut left_cm) = (NEG, 0u64);
        if j == 0 {
            // Column 0: leading gaps in `b`.
            (left, left_cm) = (GAP * i as i32, i as u64 * COLUMN);
            cur[s] = left;
            cur_cm[s] = left_cm;
            (j, s) = (1, s + 1);
        }
        // `|n - m| <= band` keeps `j <= j_hi + 1`: `cells` is never negative.
        let cells = j_hi + 1 - j;
        let out = cur[s..s + cells].iter_mut().zip(&mut cur_cm[s..s + cells]);
        let above = prev[s..=s + cells]
            .windows(2)
            .zip(prev_cm[s..=s + cells].windows(2));
        for (((score, cm), (p, pc)), &bj) in out.zip(above).zip(&b_codes[j - 1..j_hi]) {
            let hit = ai == bj;
            let diag = p[0] + if hit { MATCH } else { MISMATCH };
            let diag_cm = pc[0] + COLUMN + u64::from(hit);
            let (up, up_cm) = (p[1] + GAP, pc[1] + COLUMN);
            let (side, side_cm) = (left + GAP, left_cm + COLUMN);
            let (side, side_cm) = if up >= side {
                (up, up_cm)
            } else {
                (side, side_cm)
            };
            (left, left_cm) = if diag >= side {
                (diag, diag_cm)
            } else {
                (side, side_cm)
            };
            *score = left;
            *cm = left_cm;
        }
        std::mem::swap(prev, cur);
        std::mem::swap(prev_cm, cur_cm);
    }

    let s = m + band + 1 - n;
    Some(AlignmentSummary {
        score: prev[s],
        columns: (prev_cm[s] >> 32) as u32,
        matches: prev_cm[s] as u32,
    })
}

/// The banded DP as it was before [`banded_global_with`] unpacked its
/// ranges and dropped its per-cell validity tests: the oracle its
/// differential tests compare it with.
#[cfg(test)]
pub(crate) mod reference {
    use super::{AlignmentSummary, GAP, MATCH, MISMATCH};
    use fc_seq::DnaString;

    /// [`super::banded_global`], one `DnaString::get` per base compared and
    /// a validity test per predecessor.
    pub(crate) fn banded_global(
        a: &DnaString,
        a_range: (usize, usize),
        b: &DnaString,
        b_range: (usize, usize),
        band: usize,
    ) -> Option<AlignmentSummary> {
        let (a_start, a_end) = a_range;
        let (b_start, b_end) = b_range;
        assert!(
            a_start <= a_end && a_end <= a.len(),
            "a range out of bounds"
        );
        assert!(
            b_start <= b_end && b_end <= b.len(),
            "b range out of bounds"
        );
        let n = a_end - a_start; // rows
        let m = b_end - b_start; // columns
        if n.abs_diff(m) > band {
            return None;
        }

        const NEG: i32 = i32::MIN / 4;
        // Row-banded DP: row i covers columns j in [i-band, i+band] ∩ [0, m].
        let width = 2 * band + 1;
        let mut prev = vec![NEG; width + 2];
        let mut cur = vec![NEG; width + 2];
        let mut prev_cm = vec![(0u32, 0u32); width + 2];
        let mut cur_cm = vec![(0u32, 0u32); width + 2];

        // Maps column j of row i to a slot in the band buffer.
        let slot = |i: usize, j: usize| -> usize { j + band - i };

        // Row 0: leading gaps in `a`.
        for j in 0..=m.min(band) {
            prev[slot(0, j)] = GAP * j as i32;
            prev_cm[slot(0, j)] = (j as u32, 0);
        }

        for i in 1..=n {
            cur.fill(NEG);
            let j_lo = i.saturating_sub(band);
            let j_hi = (i + band).min(m);
            for j in j_lo..=j_hi {
                let s = slot(i, j);
                let mut best = NEG;
                let mut best_cm = (0u32, 0u32);
                // Diagonal (match/mismatch) — prev row, same slot offset shifts by 0.
                if j >= 1 && j - 1 + band >= i - 1 && j - 1 <= i - 1 + band {
                    let ps = slot(i - 1, j - 1);
                    if prev[ps] > NEG {
                        let is_match = a.get(a_start + i - 1) == b.get(b_start + j - 1);
                        let sc = prev[ps] + if is_match { MATCH } else { MISMATCH };
                        if sc > best {
                            best = sc;
                            let (c, mt) = prev_cm[ps];
                            best_cm = (c + 1, mt + u32::from(is_match));
                        }
                    }
                }
                // Up (gap in b): cell (i-1, j).
                if j + band >= i - 1 && j <= i - 1 + band {
                    let ps = slot(i - 1, j);
                    if prev[ps] > NEG {
                        let sc = prev[ps] + GAP;
                        if sc > best {
                            best = sc;
                            let (c, mt) = prev_cm[ps];
                            best_cm = (c + 1, mt);
                        }
                    }
                }
                // Left (gap in a): cell (i, j-1).
                if j >= 1 && j > j_lo {
                    let ps = slot(i, j - 1);
                    if cur[ps] > NEG {
                        let sc = cur[ps] + GAP;
                        if sc > best {
                            best = sc;
                            let (c, mt) = cur_cm[ps];
                            best_cm = (c + 1, mt);
                        }
                    }
                }
                cur[s] = best;
                cur_cm[s] = best_cm;
            }
            std::mem::swap(&mut prev, &mut cur);
            std::mem::swap(&mut prev_cm, &mut cur_cm);
        }

        let s = slot(n, m);
        if m + band < n || m > n + band || prev[s] <= NEG {
            return None;
        }
        let (columns, matches) = prev_cm[s];
        Some(AlignmentSummary {
            score: prev[s],
            columns,
            matches,
        })
    }
}

#[cfg(test)]
impl NwScratch {
    /// The band of the last DP these buffers ran (they hold `2·band + 3`
    /// slots), for tests of what band a caller asked for.
    pub(crate) fn last_band(&self) -> usize {
        (self.prev.len() - 3) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_seq::DnaString;

    /// Reference implementation: full (unbanded) Needleman–Wunsch with the
    /// same (columns, matches) bookkeeping.
    pub(crate) fn full_global(a: &DnaString, b: &DnaString) -> AlignmentSummary {
        let n = a.len();
        let m = b.len();
        let mut score = vec![vec![0i32; m + 1]; n + 1];
        let mut cm = vec![vec![(0u32, 0u32); m + 1]; n + 1];
        for j in 1..=m {
            score[0][j] = GAP * j as i32;
            cm[0][j] = (j as u32, 0);
        }
        for i in 1..=n {
            score[i][0] = GAP * i as i32;
            cm[i][0] = (i as u32, 0);
            for j in 1..=m {
                let is_match = a.get(i - 1) == b.get(j - 1);
                let diag = score[i - 1][j - 1] + if is_match { MATCH } else { MISMATCH };
                let up = score[i - 1][j] + GAP;
                let left = score[i][j - 1] + GAP;
                // Same tie preference as the banded version: diag, up, left.
                if diag >= up && diag >= left {
                    score[i][j] = diag;
                    let (c, mt) = cm[i - 1][j - 1];
                    cm[i][j] = (c + 1, mt + u32::from(is_match));
                } else if up >= left {
                    score[i][j] = up;
                    let (c, mt) = cm[i - 1][j];
                    cm[i][j] = (c + 1, mt);
                } else {
                    score[i][j] = left;
                    let (c, mt) = cm[i][j - 1];
                    cm[i][j] = (c + 1, mt);
                }
            }
        }
        AlignmentSummary {
            score: score[n][m],
            columns: cm[n][m].0,
            matches: cm[n][m].1,
        }
    }

    fn summary(a: &str, b: &str, band: usize) -> Option<AlignmentSummary> {
        let a: DnaString = a.parse().unwrap();
        let b: DnaString = b.parse().unwrap();
        banded_global(a.packed(), (0, a.len()), b.packed(), (0, b.len()), band)
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let s = summary("ACGTACGT", "ACGTACGT", 4).unwrap();
        assert_eq!(s.score, 8);
        assert_eq!(s.columns, 8);
        assert_eq!(s.matches, 8);
        assert!((s.identity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_mismatch_counted() {
        let s = summary("ACGTACGT", "ACGAACGT", 4).unwrap();
        assert_eq!(s.matches, 7);
        assert_eq!(s.columns, 8);
        assert_eq!(s.score, 7 - 2);
    }

    #[test]
    fn single_indel_counted() {
        let s = summary("ACGTACGT", "ACGACGT", 4).unwrap();
        assert_eq!(s.columns, 8);
        assert_eq!(s.matches, 7);
        assert_eq!(s.score, 7 - 3);
    }

    #[test]
    fn length_difference_beyond_band_rejected() {
        assert!(summary("ACGTACGTACGT", "AC", 4).is_none());
    }

    #[test]
    fn banded_matches_full_when_band_covers_matrix() {
        let cases = [
            ("ACGTACGTAC", "ACGTACGTAC"),
            ("ACGTACGTAC", "ACGTTCGTAC"),
            ("ACGTACGTAC", "ACGACGTAC"),
            ("AAAACCCC", "AAACCCCC"),
            ("ACGT", "TGCA"),
        ];
        for (a, b) in cases {
            let ad: DnaString = a.parse().unwrap();
            let bd: DnaString = b.parse().unwrap();
            let band = ad.len().max(bd.len());
            let banded =
                banded_global(ad.packed(), (0, ad.len()), bd.packed(), (0, bd.len()), band)
                    .unwrap();
            let full = full_global(&ad, &bd);
            assert_eq!(banded.score, full.score, "{a} vs {b}");
            assert_eq!(banded.columns, full.columns, "{a} vs {b}");
            assert_eq!(banded.matches, full.matches, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_ranges() {
        let a: DnaString = "ACGT".parse().unwrap();
        let s = banded_global(a.packed(), (0, 0), a.packed(), (0, 0), 8).unwrap();
        assert_eq!(s.columns, 0);
        assert_eq!(s.score, 0);
        assert_eq!(s.identity(), 0.0);
    }

    /// Predecessors of equal score with different `(columns, matches)`:
    /// the summary follows the diagonal over up and up over left. Each pair
    /// came from a search of random pairs against the swapped order.
    #[test]
    fn ties_prefer_diagonal_then_up_then_left() {
        for (a, b, (score, columns, matches)) in [
            // A gap before the diagonal would report 12 columns and 5 matches.
            ("AGCTTCCAA", "CTATGATTC", (-15, 9, 1)),
            // Left first would report 12 columns and 2 matches.
            ("GCATCCAATTG", "TAGTATGGCCGA", (-19, 15, 6)),
        ] {
            let (a, b): (DnaString, DnaString) = (a.parse().unwrap(), b.parse().unwrap());
            let (a_range, b_range) = ((0, a.len()), (0, b.len()));
            let want = Some(AlignmentSummary {
                score,
                columns,
                matches,
            });
            assert_eq!(
                banded_global(a.packed(), a_range, b.packed(), b_range, 7),
                want,
                "{a} vs {b}"
            );
            assert_eq!(reference::banded_global(&a, a_range, &b, b_range, 7), want);
        }
    }

    #[test]
    fn subrange_alignment() {
        let a: DnaString = "TTTTACGTACGT".parse().unwrap();
        let b: DnaString = "ACGTACGTTTTT".parse().unwrap();
        let s = banded_global(a.packed(), (4, 12), b.packed(), (0, 8), 8).unwrap();
        assert_eq!(s.matches, 8);
        assert_eq!(s.columns, 8);
    }

    /// The ungapped-optimum rule against the unbanded reference, over every
    /// equal-length pair up to length 7 on a 2-letter alphabet: wherever
    /// [`ungapped_optimum_forced`](crate::myers::ungapped_optimum_forced)
    /// fires, full NW — and banded NW at the narrowest and widest bands —
    /// report exactly the all-diagonal summary.
    #[test]
    #[cfg_attr(miri, ignore)] // 22 000 pairs through full NW
    fn ungapped_rule_agrees_with_full_nw_exhaustively() {
        use crate::myers::{edit_distance_with, ungapped_optimum_forced, MyersScratch};
        let mut myers = MyersScratch::default();
        // (fired without a distance, fired only through h == D, gapped optimum)
        let mut seen = (0u32, 0u32, 0u32);
        for len in 0..=7usize {
            let seq = |bits: u32| -> DnaString {
                (0..len)
                    .map(|i| fc_seq::Base::from_code((bits >> i & 1) as u8))
                    .collect()
            };
            for (abits, bbits) in
                (0..1u32 << len).flat_map(|a| (0..1u32 << len).map(move |b| (a, b)))
            {
                let (a, b) = (seq(abits), seq(bbits));
                let h = (abits ^ bbits).count_ones() as usize;
                assert_eq!(a.hamming_distance(&b), h);
                let d = edit_distance_with(a.packed(), (0, len), b.packed(), (0, len), &mut myers);
                let full = full_global(&a, &b);
                let early = ungapped_optimum_forced(h, None);
                let late = ungapped_optimum_forced(h, Some(d));
                assert!(late || !early, "knowing D never retracts the rule");
                if late {
                    let diagonal = AlignmentSummary {
                        score: MATCH * (len - h) as i32 + MISMATCH * h as i32,
                        columns: len as u32,
                        matches: (len - h) as u32,
                    };
                    assert_eq!(full, diagonal, "{a} vs {b} (h {h}, D {d})");
                    for band in [0, 1, len] {
                        let banded =
                            banded_global(a.packed(), (0, len), b.packed(), (0, len), band);
                        assert_eq!(banded, Some(diagonal), "band {band}: {a} vs {b}");
                    }
                    if early {
                        seen.0 += 1;
                    } else {
                        seen.1 += 1;
                    }
                } else if full.columns as usize > len {
                    seen.2 += 1;
                }
            }
        }
        // The corpus exercises each outcome.
        assert!(seen.0 > 0 && seen.1 > 0 && seen.2 > 0, "{seen:?}");
    }
}

#[cfg(test)]
mod props {
    use super::tests::full_global;
    use super::*;
    use fc_rng::{cases, Rng};
    use fc_seq::{Base, DnaString};

    fn dna(rng: &mut Rng, max_len: usize) -> DnaString {
        rng.vec(0..max_len, |r| fc_seq::Base::from_code(r.range(0..4)))
            .into_iter()
            .collect()
    }

    /// With a band at least as wide as both sequences, banded NW must be
    /// exactly the classic full-matrix NW.
    #[test]
    fn banded_equals_full_with_wide_band() {
        cases(256, |rng| {
            let (a, b) = (dna(rng, 24), dna(rng, 24));
            let band = a.len().max(b.len()).max(1);
            let banded =
                banded_global(a.packed(), (0, a.len()), b.packed(), (0, b.len()), band).unwrap();
            let full = full_global(&a, &b);
            assert_eq!(banded.score, full.score);
            assert_eq!(banded.columns, full.columns);
            assert_eq!(banded.matches, full.matches);
        });
    }

    /// Aligning a sequence against itself scores perfectly.
    #[test]
    fn self_alignment_is_perfect() {
        cases(256, |rng| {
            let a = dna(rng, 32);
            let s = banded_global(a.packed(), (0, a.len()), a.packed(), (0, a.len()), 8).unwrap();
            assert_eq!(s.matches as usize, a.len());
            assert_eq!(s.columns as usize, a.len());
        });
    }

    /// Matches can never exceed columns, and identity is within [0, 1].
    #[test]
    fn summary_invariants() {
        cases(256, |rng| {
            let (a, b) = (dna(rng, 20), dna(rng, 20));
            if let Some(s) = banded_global(a.packed(), (0, a.len()), b.packed(), (0, b.len()), 20) {
                assert!(s.matches <= s.columns);
                assert!(s.columns as usize >= a.len().max(b.len()));
                assert!((0.0..=1.0).contains(&s.identity()));
            }
        });
    }

    fn bases(rng: &mut Rng, len: usize) -> Vec<Base> {
        rng.vec(len..=len, |r| Base::from_code(r.range(0..4)))
    }

    /// `a` with each base substituted, dropped or followed by an inserted
    /// base at rate `rate`.
    fn mutated(rng: &mut Rng, a: &[Base], rate: f64) -> Vec<Base> {
        let mut out = Vec::with_capacity(a.len() + 8);
        for &base in a {
            if !rng.bool(rate) {
                out.push(base);
                continue;
            }
            match rng.range(0..3) {
                0 => out.extend(bases(rng, 1)),
                1 => {}
                _ => out.extend([base].into_iter().chain(bases(rng, 1))),
            }
        }
        out
    }

    /// The DP against [`super::reference`], the body it replaced, one
    /// scratch reused throughout: equal `Option<AlignmentSummary>` for
    /// lengths 0–140 (across the 32/64/128-base words `fill_codes` unpacks
    /// at), length differences 0 to `band + 1`, bands {0, 1, 2, 7, 8, 16},
    /// odd range offsets, and related and unrelated ranges.
    #[test]
    fn matches_the_reference_dp() {
        use super::reference;
        let mut scratch = NwScratch::default();
        // (in-band requests, verdicts whose optimum has a gap)
        let mut seen = (0, 0);
        cases(512, |rng| {
            let band = [0usize, 1, 2, 7, 8, 16][rng.range(0..6)];
            let n = rng.range(0..=140usize);
            let delta = rng.range(0..=band + 1);
            let m = if rng.bool(0.5) {
                n + delta
            } else {
                n.saturating_sub(delta)
            }
            .min(140);
            let offset = |rng: &mut Rng| rng.range(0..20usize) * 2 + usize::from(rng.bool(0.7));
            let (a_off, b_off) = (offset(rng), offset(rng));
            let a = [bases(rng, a_off), bases(rng, n), bases(rng, 3)].concat();
            let mut middle = if rng.bool(0.7) {
                mutated(rng, &a[a_off..a_off + n], 0.04)
            } else {
                bases(rng, m)
            };
            middle.truncate(m);
            middle.extend(bases(rng, m - middle.len()));
            let b = [bases(rng, b_off), middle].concat();
            let (a, b): (DnaString, DnaString) = (a.into_iter().collect(), b.into_iter().collect());
            let (a_range, b_range) = ((a_off, a_off + n), (b_off, b_off + m));
            let got =
                banded_global_with(a.packed(), a_range, b.packed(), b_range, band, &mut scratch);
            let want = reference::banded_global(&a, a_range, &b, b_range, band);
            assert_eq!(got, want, "band {band}: a[{a_range:?}] vs b[{b_range:?}]");
            if let Some(s) = got {
                seen.0 += 1;
                seen.1 += usize::from(s.columns as usize > n.max(m));
            }
        });
        assert!(seen.1 > 0 && seen.1 < seen.0, "{seen:?}");
    }
}
