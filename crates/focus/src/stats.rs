//! Assembly statistics (Table III's columns).

use fc_seq::DnaString;

/// Contig-level summary statistics of one assembly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssemblyStats {
    /// N50: the contig length such that contigs of at least this length
    /// cover half the total assembled bases.
    pub n50: usize,
    /// Longest contig (bases).
    pub max_contig: usize,
    /// Number of contigs.
    pub num_contigs: usize,
    /// Total assembled bases.
    pub total_bases: usize,
    /// Mean contig length.
    pub mean_len: f64,
}

impl AssemblyStats {
    /// Computes statistics from contig lengths.
    pub fn from_lengths(lengths: &[usize]) -> AssemblyStats {
        let num_contigs = lengths.len();
        let total_bases: usize = lengths.iter().sum();
        let max_contig = lengths.iter().copied().max().unwrap_or(0);
        let mean_len = if num_contigs == 0 {
            0.0
        } else {
            total_bases as f64 / num_contigs as f64
        };
        let n50 = n50(lengths);
        AssemblyStats {
            n50,
            max_contig,
            num_contigs,
            total_bases,
            mean_len,
        }
    }

    /// Computes statistics from contig sequences.
    pub fn from_contigs(contigs: &[DnaString]) -> AssemblyStats {
        let lengths: Vec<usize> = contigs.iter().map(DnaString::len).collect();
        AssemblyStats::from_lengths(&lengths)
    }
}

/// The N50 of a set of lengths: sort descending, accumulate until half the
/// total is covered; the length reached is the N50. Zero for empty input.
///
/// ```
/// assert_eq!(focus_core::stats::n50(&[10, 20, 30, 40]), 30);
/// ```
pub fn n50(lengths: &[usize]) -> usize {
    let total: usize = lengths.iter().sum();
    if total == 0 {
        return 0;
    }
    let mut sorted: Vec<usize> = lengths.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let half = total.div_ceil(2);
    let mut acc = 0usize;
    for len in sorted {
        acc += len;
        if acc >= half {
            return len;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n50_textbook_example() {
        // Total 100; half 50; sorted desc: 40, 30, 20, 10 → 40+30=70 ≥ 50 at 30.
        assert_eq!(n50(&[10, 20, 30, 40]), 30);
    }

    #[test]
    fn n50_single_contig() {
        assert_eq!(n50(&[1234]), 1234);
    }

    #[test]
    fn n50_equal_contigs() {
        assert_eq!(n50(&[100, 100, 100, 100]), 100);
    }

    #[test]
    fn n50_empty_and_zero() {
        assert_eq!(n50(&[]), 0);
        assert_eq!(n50(&[0, 0]), 0);
    }

    #[test]
    fn n50_dominated_by_giant() {
        // Giant covers half on its own.
        assert_eq!(n50(&[1000, 10, 10, 10]), 1000);
    }

    #[test]
    fn stats_from_lengths() {
        let s = AssemblyStats::from_lengths(&[10, 20, 30, 40]);
        assert_eq!(s.num_contigs, 4);
        assert_eq!(s.total_bases, 100);
        assert_eq!(s.max_contig, 40);
        assert_eq!(s.n50, 30);
        assert!((s.mean_len - 25.0).abs() < 1e-12);
    }

    #[test]
    fn stats_from_contigs() {
        let contigs: Vec<DnaString> = vec!["ACGT".parse().unwrap(), "ACGTACGT".parse().unwrap()];
        let s = AssemblyStats::from_contigs(&contigs);
        assert_eq!(s.num_contigs, 2);
        assert_eq!(s.total_bases, 12);
        assert_eq!(s.max_contig, 8);
    }

    #[test]
    fn empty_assembly_stats() {
        let s = AssemblyStats::from_lengths(&[]);
        assert_eq!(s.n50, 0);
        assert_eq!(s.num_contigs, 0);
        assert_eq!(s.mean_len, 0.0);
    }
}
