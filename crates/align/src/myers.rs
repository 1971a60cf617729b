//! The edit-distance kernels of verification — Myers' bit-parallel global
//! edit distance (Myers 1999, Hyyrö 2003) and Landau–Vishkin's bounded one
//! (Landau & Vishkin 1989) — and the sound prefilter bounds that connect
//! them to the scalar banded NW verifier.
//!
//! # Role in verification
//!
//! Verification ([`crate::kernel`]) never *replaces* the scalar
//! banded Needleman–Wunsch verifier — it bounds it. For a candidate pair
//! it computes the exact unit-cost (Levenshtein) edit distance `D` between
//! the two overlap ranges and from `D` derives *sound* bounds on what
//! [`banded_global_with`](crate::nw) could possibly report (listed below).
//! Two kernels compute `D`. [`bounded_distance_with`] (Landau–Vishkin)
//! serves an equal-length request at Hamming distance `h` up to
//! [`crate::LV_MAX_H`]: `D <= h` there, so with cutoff `h - 1` it either
//! returns `D` or shows `D = h`, in `O(h²)` 32-base extensions.
//! [`edit_distance_with`] (Myers, 64 pattern rows per machine word) serves
//! every other request, where its per-base cost beats LV's quadratic one.
//! The bounds:
//!
//! * an upper bound on achievable identity → candidates that cannot reach
//!   `min_identity` are rejected without running NW at all,
//! * an upper bound on achievable alignment columns → candidates that cannot
//!   reach `min_overlap_len` are rejected without running NW,
//! * an upper bound on the gap count of any score-optimal alignment → the
//!   surviving candidates re-run scalar NW in a *shrunken* band that is
//!   provably equivalent to the configured one.
//!
//! Every bound errs on the side of running the scalar verifier, so overlaps
//! (and therefore contigs) are bit-identical to verifying every candidate
//! with banded NW alone.
//!
//! # Bound derivations
//!
//! Notation: the two ranges have lengths `n` and `m`, `dl = |n - m|`,
//! `mn = min(n,m)`, `mx = max(n,m)`. An alignment has `mt` match columns,
//! `x` mismatch columns and `g` gap columns; its column count is
//! `c = mt + x + g` and every base is consumed exactly once, so
//! `n + m = 2·mt + 2·x + g`. Scores are the verifier's fixed
//! [`MATCH`], [`MISMATCH`] and [`GAP`]: `ma = 1` per match, `mi = -2` per
//! mismatch, `ga = -3` per gap. The derivations below need only `ma > 0`,
//! `mi <= 0` and `ga < 0`; each states what it gives at `(1, -2, -3)`.
//!
//! **Identity bound.** Any alignment with `x` mismatches and `g` gaps yields
//! an edit script of cost `x + g`, so `x + g >= D`. From
//! `mt = (n + m - g)/2 - x` and `x >= max(0, D - g)`:
//! `mt <= (n + m + g)/2 - D` for `g <= D` (maximised at `g = D`) and
//! `mt <= (n + m - g)/2 < (n + m - D)/2` for `g > D`. Hence
//! `mt <= floor((n + m - D)/2)` for *every* alignment. Columns satisfy
//! `c >= mx` (each column consumes at most one base per side), so
//! `identity = mt/c <= floor((n + m - D)/2) / mx` — see
//! [`identity_upper_bound`]. The `f64` comparison against `min_identity` is
//! sound because all operands are exactly representable (`< 2^53`) and
//! correctly-rounded division is monotone: if the true rational identity is
//! `<=` the true rational bound, the rounded values satisfy the same `<=`.
//!
//! **Gap bound (band shrinking).** Any alignment with `g` gaps scores at
//! most `ma·mn + ga·g` (at most `mn` matches, mismatches score `<= 0`).
//! Conversely, an alignment achieving the unit-cost optimum `D = x + g`
//! exists, and its score is
//! `ma·(n + m - g)/2 - (ma - mi)·x + ga·g >= (ma·(n + m) - D·M)/2` where
//! `M = max(2·(ma - mi), ma - 2·ga)` covers the worst split of `D` into
//! mismatches and gaps. So the best score `S*` satisfies
//! `2·S* >= ma·(n + m) - D·M`, and any alignment with
//! `(-2·ga)·g > D·M - ma·dl` scores *strictly* below `S*`: it can never be
//! chosen, regardless of tie-breaking. [`optimal_gap_bound`] returns
//! `gmax = floor((D·M - ma·dl) / (-2·ga))` (clamped to `>= dl`; the
//! achieving alignment has `dl <= g <= D`, so `gmax >= dl` always holds).
//! At `(1, -2, -3)`, `M = max(6, 7) = 7` and `gmax = floor((7·D - dl) / 6)`.
//!
//! **Band equivalence.** A path's diagonal offset `|j - i|` changes only on
//! gap columns, so every potentially-optimal path stays within diagonal
//! `|j - i| <= gmax`. Running banded NW with half-width
//! `band_eff = min(band, gmax)` therefore explores every potentially-optimal
//! path that the configured band explores. The summaries are identical, not
//! just the scores: suppose a cell on the final traceback path preferred a
//! predecessor (by the diag > up > left tie order) in the wide band that the
//! narrow band lacks, or saw an inflated value through an out-of-band-eff
//! prefix. Either way there is a prefix with `> gmax` gaps whose value ties
//! the best prefix at a cell on an optimal path; extending it along the
//! path's suffix yields a full alignment with `> gmax` gaps scoring exactly
//! `S*` — contradicting strict suboptimality. So on every traceback cell
//! both DPs see the same candidate values and make the same tie-break
//! choice, and the `(score, columns, matches)` summary is unchanged.
//!
//! **Columns bound.** `c = (n + m + g)/2` and any chosen alignment has
//! `g <= gmax`, so `c <= floor((n + m + gmax)/2)` (the floor absorbs the
//! parity constraint `g ≡ n + m (mod 2)`) — see [`max_columns_bound`].
//! If that bound is below `min_overlap_len`, scalar NW would reject the
//! candidate whatever it computes.
//!
//! **Ungapped optimum (equal-length ranges).** Let `n == m` and let `h` be
//! the Hamming distance of the two ranges. Then `2n = 2·mt + 2·x + g`
//! makes `g` even, `mt = n - x - g/2`, and every alignment scores
//! `2·score = 2·ma·n - 2·(ma - mi)·x - (ma - 2·ga)·g`. The all-diagonal
//! alignment is the only one with `g = 0`; it has `x = h`, lies inside
//! every band (`band >= 0`), and beats a gapped alignment (`g >= 2`)
//! *strictly* iff `2·(ma - mi)·h < 2·(ma - mi)·x + (ma - 2·ga)·g`. That
//! holds for every gapped alignment when
//!
//! * `h = 0` — the right side is at least `2·(ma - 2·ga) > 0`;
//! * `(ma - mi)·h < ma - 2·ga` — the two gaps any gapped path pays cost
//!   more than all `h` mismatches, whatever `x` is (at `(1, -2, -3)`:
//!   `h <= 2`);
//! * `h = D` and `ma - 2·ga > 2·(ma - mi)` — the path's edit script gives
//!   `x + g >= D = h`, so for `g <= h` the right side is at least
//!   `2·(ma - mi)·h + g·((ma - 2·ga) - 2·(ma - mi)) > 2·(ma - mi)·h`, and
//!   for `g > h` it is at least `(ma - 2·ga)·g > 2·(ma - mi)·h`.
//!
//! A strict, unique optimum leaves the DP no tie to break: the value at
//! the final cell is the diagonal's score and the `(columns, matches)`
//! carried with it are those of a path achieving that score — the
//! diagonal. So banded NW reports exactly
//! `(ma·(n - h) + mi·h, n, n - h)` at any band — see
//! [`ungapped_optimum_forced`]. At `(1, -2, -3)`, `ma - 2·ga = 7 > 6 =
//! 2·(ma - mi)`, so all three cases apply: the rule fires for `h <= 2`
//! before any edit distance, and for `h = D` once `D` is known.

use crate::nw::{GAP, MATCH, MISMATCH};
use fc_seq::PackedView;

/// Reusable buffers for [`edit_distance_with`]: the `Peq` match table (one
/// bitmask per symbol per 64-row block) and the vertical delta vectors.
/// One value per worker thread, following the `NwScratch`/`AlignScratch`
/// zero-allocation pattern.
#[derive(Debug, Clone, Default)]
pub struct MyersScratch {
    peq: Vec<[u64; 4]>,
    pv: Vec<u64>,
    mv: Vec<u64>,
}

/// Exact global (Levenshtein) edit distance between `a[a_range]` and
/// `b[b_range]`, computed bit-parallel: the shorter range is the pattern,
/// processed 64 rows per `u64` word (Myers 1999; block carries after Hyyrö
/// 2003 / the edlib formulation), the longer range is scanned column by
/// column straight from the 2-bit packed words.
///
/// # Panics
/// Panics in debug builds if a range is out of bounds.
pub fn edit_distance_with(
    a: PackedView<'_>,
    a_range: (usize, usize),
    b: PackedView<'_>,
    b_range: (usize, usize),
    scratch: &mut MyersScratch,
) -> u32 {
    let (n, m) = (a_range.1 - a_range.0, b_range.1 - b_range.0);
    // Pattern = shorter side: fewer words per column.
    let ((pat, pat_range), (text, text_range)) = if n <= m {
        ((a, a_range), (b, b_range))
    } else {
        ((b, b_range), (a, a_range))
    };
    let plen = pat_range.1 - pat_range.0;
    let tlen = text_range.1 - text_range.0;
    if plen == 0 {
        return tlen as u32;
    }
    if plen <= 64 {
        return distance_1word(pat, pat_range, text, text_range);
    }
    distance_blocked(pat, pat_range, text, text_range, scratch)
}

/// Builds `Peq` for `pat[range]` into `peq` (cleared first): bit `i` of
/// `peq[i / 64][c]` is set iff pattern row `i + 1` is base code `c`.
fn build_peq(pat: PackedView<'_>, range: (usize, usize), peq: &mut Vec<[u64; 4]>) {
    let plen = range.1 - range.0;
    let words = plen.div_ceil(64);
    peq.clear();
    peq.resize(words, [0u64; 4]);
    let mut i = 0;
    while i < plen {
        let chunk = (plen - i).min(32);
        let mut window = pat.window(range.0 + i);
        for b in 0..chunk {
            let bit = i + b;
            peq[bit / 64][(window & 0b11) as usize] |= 1u64 << (bit % 64);
            window >>= 2;
        }
        i += chunk;
    }
}

/// Single-word Myers (pattern length 1..=64), global variant: the horizontal
/// boundary delta `D(0,j) - D(0,j-1) = +1` enters as the carry-in bit after
/// each shift.
fn distance_1word(
    pat: PackedView<'_>,
    pat_range: (usize, usize),
    text: PackedView<'_>,
    text_range: (usize, usize),
) -> u32 {
    let plen = pat_range.1 - pat_range.0;
    debug_assert!((1..=64).contains(&plen));
    let mut peq = [0u64; 4];
    let mut window = pat.window(pat_range.0);
    let tail = if plen > 32 {
        pat.window(pat_range.0 + 32)
    } else {
        0
    };
    for i in 0..plen {
        if i == 32 {
            window = tail;
        }
        peq[(window & 0b11) as usize] |= 1u64 << i;
        window >>= 2;
    }
    let score_bit = 1u64 << (plen - 1);
    let mask = if plen == 64 {
        !0u64
    } else {
        (1u64 << plen) - 1
    };
    let mut pv = mask;
    let mut mv = 0u64;
    let mut score = plen as i64;
    let (t_start, t_end) = text_range;
    let mut pos = t_start;
    while pos < t_end {
        let chunk = (t_end - pos).min(32);
        let mut tw = text.window(pos);
        for _ in 0..chunk {
            let eq = peq[(tw & 0b11) as usize];
            tw >>= 2;
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & score_bit != 0 {
                score += 1;
            } else if mh & score_bit != 0 {
                score -= 1;
            }
            // Global alignment: shift in the top-row +1 carry.
            let ph = (ph << 1) | 1;
            pv = ((mh << 1) | !(xv | ph)) & mask;
            mv = ph & xv & mask;
        }
        pos += chunk;
    }
    score as u32
}

/// Blocked multi-word Myers for patterns longer than 64 rows: words are
/// chained per column through a horizontal delta in `{-1, 0, +1}` carried
/// as two bits — the word's top bits of `ph` (`+1`) and `mh` (`-1`), never
/// both set — shifted into the next word, with the top row's constant `+1`
/// entering word 0. Bit `r` of every vector depends on bits `<= r` only
/// (shifts and carries run upward), so the last word's rows past the
/// pattern never reach its score bit and are not masked.
fn distance_blocked(
    pat: PackedView<'_>,
    pat_range: (usize, usize),
    text: PackedView<'_>,
    text_range: (usize, usize),
    scratch: &mut MyersScratch,
) -> u32 {
    let plen = pat_range.1 - pat_range.0;
    let words = plen.div_ceil(64);
    build_peq(pat, pat_range, &mut scratch.peq);
    let peq = &scratch.peq[..words];
    // The pattern's last row within the last word.
    let score_bit = (plen - 1) % 64;
    scratch.pv.clear();
    scratch.pv.resize(words, !0u64);
    scratch.mv.clear();
    scratch.mv.resize(words, 0u64);
    let (pv, mv) = (&mut scratch.pv[..words], &mut scratch.mv[..words]);
    let mut score = plen as i64;
    let (t_start, t_end) = text_range;
    let mut pos = t_start;
    while pos < t_end {
        let chunk = (t_end - pos).min(32);
        let mut tw = text.window(pos);
        for _ in 0..chunk {
            let code = (tw & 0b11) as usize;
            tw >>= 2;
            // The top-row boundary delta is always +1.
            let (mut carry_p, mut carry_m) = (1u64, 0u64);
            let (mut ph, mut mh) = (0u64, 0u64);
            for ((pv, mv), peq) in pv.iter_mut().zip(mv.iter_mut()).zip(peq) {
                let (pvk, mvk) = (*pv, *mv);
                let xv = peq[code] | mvk;
                let eq = peq[code] | carry_m;
                let xh = (((eq & pvk).wrapping_add(pvk)) ^ pvk) | eq;
                ph = mvk | !(xh | pvk);
                mh = pvk & xh;
                let (php, mhp) = (ph << 1 | carry_p, mh << 1 | carry_m);
                (carry_p, carry_m) = (ph >> 63, mh >> 63);
                *pv = mhp | !(xv | php);
                *mv = php & xv;
            }
            score += (ph >> score_bit & 1) as i64 - (mh >> score_bit & 1) as i64;
        }
        pos += chunk;
    }
    score as u32
}

/// Reusable diagonal rows of [`bounded_distance_with`]: the furthest
/// reaching row of the previous and the current edit count, per diagonal.
/// One value per worker thread, like [`MyersScratch`].
#[derive(Debug, Clone, Default)]
pub struct LvScratch {
    prev: Vec<isize>,
    cur: Vec<isize>,
}

/// A diagonal no row has reached yet.
const UNREACHED: isize = isize::MIN / 2;

/// Number of leading positions, at most `limit`, at which `a[a_pos..]` and
/// `b[b_pos..]` agree: the longest common extension, 32 bases per step —
/// `xor` the windows, and the first differing base holds the lowest set
/// bit.
#[inline]
fn common_extension(
    a: PackedView<'_>,
    a_pos: usize,
    b: PackedView<'_>,
    b_pos: usize,
    limit: usize,
) -> usize {
    let mut run = 0;
    while run < limit {
        let x = a.window(a_pos + run) ^ b.window(b_pos + run);
        if x != 0 {
            return (run + x.trailing_zeros() as usize / 2).min(limit);
        }
        run += 32;
    }
    limit
}

/// The edit distance `D` of two equal-length ranges `a[a_range]` and
/// `b[b_range]` if `D <= cutoff`, else `None` — Landau–Vishkin: for each
/// edit count `e`, the furthest row reachable on each diagonal `k` (`b`'s
/// offset minus `a`'s), extended along matches 32 bases a step (`xor` the
/// windows; the first differing base holds the lowest set bit). A path of
/// `D <= cutoff` edits that has spent `e`
/// sits on a diagonal `|k| <= e` and needs `|k|` more edits to return to
/// diagonal 0, so only `|k| <= min(e, cutoff - e)` is kept. Costs
/// `O(cutoff²)` extensions, independent of the ranges' length.
///
/// # Panics
/// Panics in debug builds if the ranges differ in length or are out of
/// bounds.
pub fn bounded_distance_with(
    a: PackedView<'_>,
    a_range: (usize, usize),
    b: PackedView<'_>,
    b_range: (usize, usize),
    cutoff: usize,
    scratch: &mut LvScratch,
) -> Option<u32> {
    let n = a_range.1 - a_range.0;
    debug_assert_eq!(n, b_range.1 - b_range.0, "equal-length ranges only");
    // Row `i` of diagonal `k` slid along its matches; `end` caps the row
    // where diagonal `k` leaves the grid.
    let slide = |i: usize, k: isize, end: usize| {
        let j = i.wrapping_add_signed(k);
        i + common_extension(a, a_range.0 + i, b, b_range.0 + j, end - i)
    };
    let first = slide(0, 0, n);
    if first == n {
        return Some(0);
    }
    // Diagonals -reach ..= reach: one past the widest kept band on each
    // side, which reads as unreached. Bands grow by one a row and then
    // shrink, so a diagonal outside the previous row's band was never
    // written by any row.
    let reach = cutoff / 2 + 1;
    let LvScratch { prev, cur } = scratch;
    for row in [&mut *prev, &mut *cur] {
        row.clear();
        row.resize(2 * reach + 1, UNREACHED);
    }
    prev[reach] = first as isize;
    for e in 1..=cutoff {
        let band = e.min(cutoff - e);
        let (last, next) = (
            &prev[reach - band - 1..=reach + band + 1],
            &mut cur[reach - band..=reach + band],
        );
        // `last[i..i + 3]` holds diagonals `k - 1`, `k` and `k + 1` of the
        // previous row for `next[i]`, diagonal `k`.
        for ((k, from), slot) in (-(band as isize)..).zip(last.windows(3)).zip(next) {
            // Substitution along `k`, a deletion from `k + 1` (one more
            // base of `a`), an insertion from `k - 1` (one more of `b`).
            // A step past the grid's edge is pulled back onto it: adjacent
            // cells' distances differ by at most one, so the edge cell is
            // still within `e` edits.
            let from = (from[1] + 1).max(from[2] + 1).max(from[0]);
            let end = n - k.max(0) as usize;
            debug_assert!(from >= -k.min(0), "diagonal {k} unreachable at {e} edits");
            *slot = slide((from as usize).min(end), k, end) as isize;
        }
        if cur[reach] == n as isize {
            return Some(e as u32);
        }
        std::mem::swap(prev, cur);
    }
    None
}

/// True if banded NW must pick the all-diagonal alignment for two
/// equal-length ranges at Hamming distance `h` — every gapped alignment
/// scores strictly lower, so the summary is `(ma·(n - h) + mi·h, n, n - h)`
/// whatever the band or tie-break (see the module docs). `d` is the ranges'
/// edit distance when it is already known.
pub fn ungapped_optimum_forced(h: usize, d: Option<u32>) -> bool {
    if h == 0 {
        return true;
    }
    let per_mismatch = MATCH as i128 - MISMATCH as i128;
    let per_gap_pair = MATCH as i128 - 2 * GAP as i128;
    per_gap_pair > 2 * per_mismatch
        && (per_mismatch * (h as i128) < per_gap_pair || d.is_some_and(|d| d as usize == h))
}

/// Upper bound on the identity any alignment of ranges with lengths `n` and
/// `m` at edit distance `d` can achieve: `floor((n + m - d)/2) / max(n, m)`
/// (see the module docs for the derivation). Requires `n.max(m) > 0`.
pub fn identity_upper_bound(n: usize, m: usize, d: u32) -> f64 {
    debug_assert!(n.max(m) > 0);
    let max_matches = (n + m).saturating_sub(d as usize) / 2;
    max_matches as f64 / n.max(m) as f64
}

/// Upper bound on the gap-column count of any alignment that banded NW could
/// select for ranges of lengths `n` and `m` at edit distance `d`:
/// alignments with more gaps score strictly below an achievable score (see
/// the module docs).
pub fn optimal_gap_bound(n: usize, m: usize, d: u32) -> usize {
    let dl = n.abs_diff(m) as i128;
    let ma = MATCH as i128;
    let mi = MISMATCH as i128;
    let ga = GAP as i128;
    let big_m = (2 * (ma - mi)).max(ma - 2 * ga);
    let gmax = (d as i128 * big_m - ma * dl).div_euclid(-2 * ga);
    // The distance-achieving alignment has dl <= g <= d and is not excluded,
    // so the bound can never be tighter than dl.
    usize::try_from(gmax.max(dl)).unwrap_or(usize::MAX)
}

/// Upper bound on the column count of any alignment banded NW could select:
/// `floor((n + m + gmax)/2)`, capped at `n + m`.
pub fn max_columns_bound(n: usize, m: usize, gmax: usize) -> usize {
    ((n + m).saturating_add(gmax) / 2).min(n + m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_rng::Rng;
    use fc_seq::DnaString;

    /// Reference Levenshtein DP.
    pub(crate) fn ref_distance(a: &[u8], b: &[u8]) -> u32 {
        let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
        let mut cur = vec![0u32; b.len() + 1];
        for i in 1..=a.len() {
            cur[0] = i as u32;
            for j in 1..=b.len() {
                let sub = prev[j - 1] + u32::from(a[i - 1] != b[j - 1]);
                cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    pub(crate) fn from_codes(codes: &[u8]) -> DnaString {
        codes
            .iter()
            .map(|&c| fc_seq::Base::from_code(c & 0b11))
            .collect()
    }

    fn dist(a: &DnaString, b: &DnaString) -> u32 {
        edit_distance_with(
            a.packed(),
            (0, a.len()),
            b.packed(),
            (0, b.len()),
            &mut MyersScratch::default(),
        )
    }

    #[test]
    fn empty_ranges() {
        let a: DnaString = "ACGT".parse().unwrap();
        let mut s = MyersScratch::default();
        assert_eq!(
            edit_distance_with(a.packed(), (0, 0), a.packed(), (0, 0), &mut s),
            0
        );
        assert_eq!(
            edit_distance_with(a.packed(), (0, 0), a.packed(), (0, 4), &mut s),
            4
        );
        assert_eq!(
            edit_distance_with(a.packed(), (1, 4), a.packed(), (2, 2), &mut s),
            3
        );
    }

    #[test]
    fn small_known_cases() {
        let cases: &[(&str, &str, u32)] = &[
            ("ACGT", "ACGT", 0),
            ("ACGT", "ACGA", 1),
            ("ACGT", "AGT", 1),
            ("ACGT", "TGCA", 4),
            ("A", "T", 1),
            ("AAAA", "TTTT", 4),
            ("ACGTACGT", "ACGACGT", 1),
        ];
        for &(a, b, want) in cases {
            let (a, b): (DnaString, DnaString) = (a.parse().unwrap(), b.parse().unwrap());
            assert_eq!(dist(&a, &b), want, "{a} vs {b}");
            assert_eq!(dist(&b, &a), want, "symmetric");
        }
    }

    #[test]
    fn word_boundary_lengths_match_reference() {
        // Pattern lengths straddling the 1-word/2-word, 2-word/3-word and
        // 3-word/4-word boundaries, texts slightly longer.
        let mut rng = Rng::new(7);
        for &plen in &[
            1usize, 2, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 150, 191, 192, 193,
        ] {
            for _ in 0..20 {
                let tlen = plen + rng.range(0..12);
                let pc: Vec<u8> = (0..plen).map(|_| rng.range(0..4)).collect();
                let mut tc: Vec<u8> = (0..tlen).map(|_| rng.range(0..4)).collect();
                if rng.bool(0.5) {
                    // Correlated pair: text is a mutated copy of the pattern.
                    tc = pc.clone();
                    tc.resize(tlen, 0);
                    for _ in 0..rng.range(0..6) {
                        let p = rng.range(0..tc.len());
                        tc[p] = rng.range(0..4);
                    }
                }
                let (a, b) = (from_codes(&pc), from_codes(&tc));
                assert_eq!(
                    dist(&a, &b),
                    ref_distance(&pc, &tc),
                    "plen {plen} tlen {tlen}"
                );
            }
        }
    }

    #[test]
    fn subranges_match_reference() {
        let mut rng = Rng::new(13);
        let codes: Vec<u8> = (0..300).map(|_| rng.range(0..4)).collect();
        let s = from_codes(&codes);
        let mut scratch = MyersScratch::default();
        for _ in 0..200 {
            let a0 = rng.range(0..250);
            let a1 = a0 + rng.range(0..300 - a0);
            let b0 = rng.range(0..250);
            let b1 = b0 + rng.range(0..300 - b0);
            let got = edit_distance_with(s.packed(), (a0, a1), s.packed(), (b0, b1), &mut scratch);
            let want = ref_distance(&codes[a0..a1], &codes[b0..b1]);
            assert_eq!(got, want, "[{a0}..{a1}] vs [{b0}..{b1}]");
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let mut scratch = MyersScratch::default();
        let a = from_codes(&[0, 1, 2, 3].repeat(40)); // 160 bases: multiword
        let b = from_codes(&[0, 1, 2, 0].repeat(40));
        let first = edit_distance_with(a.packed(), (0, 160), b.packed(), (0, 160), &mut scratch);
        // Interleave a different-shape call, then repeat the first.
        edit_distance_with(a.packed(), (0, 10), b.packed(), (3, 90), &mut scratch);
        let again = edit_distance_with(a.packed(), (0, 160), b.packed(), (0, 160), &mut scratch);
        assert_eq!(first, again);
    }

    /// Landau–Vishkin on `a[ar]` against `b[br]` at every cutoff
    /// `0 ..= D + 1`: `Some(D)` exactly when `D <= cutoff`, with `D` from
    /// the reference DP. Returns `D`.
    pub(crate) fn assert_lv_agrees(
        a: &DnaString,
        ar: (usize, usize),
        b: &DnaString,
        br: (usize, usize),
    ) -> u32 {
        let codes = |s: &DnaString, r: (usize, usize)| -> Vec<u8> {
            (r.0..r.1).map(|i| s.get(i).code()).collect()
        };
        let d = ref_distance(&codes(a, ar), &codes(b, br));
        let mut scratch = LvScratch::default();
        for cutoff in 0..=d as usize + 1 {
            let got = bounded_distance_with(a.packed(), ar, b.packed(), br, cutoff, &mut scratch);
            let want = (d as usize <= cutoff).then_some(d);
            assert_eq!(got, want, "{ar:?} vs {br:?} at cutoff {cutoff}");
        }
        d
    }

    /// A mutated copy of `codes` of the same length: fewer than `subs`
    /// substitutions and fewer than `indels` insertion–deletion pairs, which
    /// shift the bases between them by one.
    pub(crate) fn mutated(rng: &mut Rng, codes: &[u8], subs: usize, indels: usize) -> Vec<u8> {
        let mut out = codes.to_vec();
        if out.is_empty() {
            return out;
        }
        let (subs, indels) = (rng.range(0..subs), rng.range(0..indels));
        for _ in 0..subs {
            let p = rng.range(0..out.len());
            out[p] = rng.range(0..4);
        }
        for _ in 0..indels {
            out.insert(rng.range(0..=out.len()), rng.range(0..4));
            out.remove(rng.range(0..out.len()));
        }
        out
    }

    /// Word-boundary lengths, each as random, mutated-copy and
    /// tandem-repeat pairs; whole reads and ranges that end at a read's
    /// last base, where the packed windows run past the sequence.
    #[test]
    fn landau_vishkin_matches_reference_at_every_cutoff() {
        let mut rng = Rng::new(29);
        let rounds = if cfg!(miri) { 1 } else { 6 };
        let mut nonzero = 0;
        for &len in &[0usize, 1, 2, 31, 32, 33, 63, 64, 65, 100] {
            for round in 0..rounds {
                let pc: Vec<u8> = match round % 3 {
                    // A tandem repeat of period 1..=6.
                    0 => {
                        let unit: Vec<u8> =
                            (0..rng.range(1..=6)).map(|_| rng.range(0..4)).collect();
                        (0..len).map(|i| unit[i % unit.len()]).collect()
                    }
                    _ => (0..len).map(|_| rng.range(0..4)).collect(),
                };
                let tc = match round % 3 {
                    // The repeat shifted by a few bases: small D, large h.
                    0 => {
                        let shift = rng.range(0..4).min(len);
                        let mut tc = pc[shift..].to_vec();
                        tc.extend((0..shift).map(|_| rng.range(0..4u8)));
                        tc
                    }
                    1 => mutated(&mut rng, &pc, 6, 3),
                    _ => (0..len).map(|_| rng.range(0..4)).collect(),
                };
                let (a, b) = (from_codes(&pc), from_codes(&tc));
                nonzero += usize::from(assert_lv_agrees(&a, (0, len), &b, (0, len)) > 0);
                // The same ranges as the tails of longer reads.
                let (pre_a, pre_b) = (rng.range(0..40), rng.range(0..40));
                let mut la: Vec<u8> = (0..pre_a).map(|_| rng.range(0..4)).collect();
                let mut lb: Vec<u8> = (0..pre_b).map(|_| rng.range(0..4)).collect();
                la.extend(&pc);
                lb.extend(&tc);
                let (a, b) = (from_codes(&la), from_codes(&lb));
                assert_lv_agrees(&a, (pre_a, la.len()), &b, (pre_b, lb.len()));
            }
        }
        assert!(nonzero > 0);
    }

    #[test]
    fn identity_bound_basics() {
        // Equal lengths, d substitutions: bound = 1 - d/(2n).
        assert_eq!(identity_upper_bound(100, 100, 0), 1.0);
        assert_eq!(identity_upper_bound(100, 100, 20), 0.9);
        // Length difference eats into the distance: n=100, m=90, d=10
        // (all deletions) still caps matches at 90 of 100 columns.
        assert_eq!(identity_upper_bound(100, 90, 10), 0.9);
    }

    #[test]
    fn gap_bound_matches_the_score_formula() {
        // ma=1, mi=-2, ga=-3: M = max(6, 7) = 7, gmax = floor((7d - dl) / 6)
        assert_eq!(optimal_gap_bound(80, 80, 1), 1);
        assert_eq!(optimal_gap_bound(80, 80, 3), 3);
        assert_eq!(optimal_gap_bound(80, 80, 6), 7);
        assert_eq!(optimal_gap_bound(80, 76, 4), 4); // (28-4)/6 = 4 = dl
                                                     // Never below the length difference.
        assert!(optimal_gap_bound(80, 72, 8) >= 8);
    }

    #[test]
    fn max_columns_bound_basics() {
        assert_eq!(max_columns_bound(30, 30, 0), 30);
        assert_eq!(max_columns_bound(30, 30, 3), 31); // parity floor
        assert_eq!(max_columns_bound(30, 30, 100), 60); // capped at n + m
    }
}

#[cfg(test)]
mod props {
    use super::tests::{from_codes, ref_distance};
    use super::*;
    use fc_rng::{cases, Rng};

    fn codes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
        rng.vec(0..max_len, |r| r.range(0u8..4))
    }

    /// Myers (single- and multi-word) equals the reference DP.
    #[test]
    fn matches_reference_dp() {
        cases(256, |rng| {
            let (a, b) = (codes(rng, 150), codes(rng, 150));
            let (da, db) = (from_codes(&a), from_codes(&b));
            let got = edit_distance_with(
                da.packed(),
                (0, da.len()),
                db.packed(),
                (0, db.len()),
                &mut MyersScratch::default(),
            );
            assert_eq!(got, ref_distance(&a, &b));
        });
    }

    /// Landau–Vishkin equals the reference DP on random equal-length
    /// subranges of a read and its mutated copy, at every cutoff.
    #[test]
    fn landau_vishkin_matches_reference_dp() {
        cases(64, |rng| {
            let a = codes(rng, 150);
            let b = super::tests::mutated(rng, &a, 8, 4);
            let (da, db) = (from_codes(&a), from_codes(&b));
            let len = rng.range(0..=a.len());
            let (a0, b0) = (rng.range(0..=a.len() - len), rng.range(0..=b.len() - len));
            let b0 = if rng.bool(0.5) { a0 } else { b0 };
            super::tests::assert_lv_agrees(&da, (a0, a0 + len), &db, (b0, b0 + len));
        });
    }

    /// The identity bound really is an upper bound on full-matrix NW
    /// identity (the banded verifier can only do worse or equal).
    #[test]
    fn identity_bound_is_sound() {
        cases(256, |rng| {
            let (a, b) = (codes(rng, 40), codes(rng, 40));
            if a.is_empty() && b.is_empty() {
                return;
            }
            let (da, db) = (from_codes(&a), from_codes(&b));
            let d = edit_distance_with(
                da.packed(),
                (0, da.len()),
                db.packed(),
                (0, db.len()),
                &mut MyersScratch::default(),
            );
            let band = a.len().max(b.len()).max(1);
            let s = crate::nw::banded_global(
                da.packed(),
                (0, da.len()),
                db.packed(),
                (0, db.len()),
                band,
            )
            .unwrap();
            let bound = identity_upper_bound(a.len(), b.len(), d);
            assert!(
                s.identity() <= bound,
                "identity {} > bound {}",
                s.identity(),
                bound
            );
            // Columns bound is sound too.
            let gmax = optimal_gap_bound(a.len(), b.len(), d);
            assert!((s.columns as usize) <= max_columns_bound(a.len(), b.len(), gmax));
        });
    }
}
