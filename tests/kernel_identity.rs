//! Align-kernel identity where a gapped alignment can win: a small fc-sim
//! community whose genera diverged with insertions and deletions, assembled
//! under both `KernelKind`s at 1 and 4 threads. Contigs and the
//! logical-clock metric snapshot must be byte-identical to the scalar
//! reference (DESIGN.md §14) — on reads where the bit-parallel kernel's
//! ungapped-optimum rule must *not* fire for every equal-length candidate,
//! unlike the single-genome, substitution-only reads `focus simulate`
//! produces.

use focus_assembler::align::{KernelKind, Overlap, OverlapKind, PairStats};
use focus_assembler::focus::{FocusAssembler, FocusConfig, ObsOptions, Prepared};
use focus_assembler::seq::{DnaString, Read};
use focus_assembler::sim::{generate_dataset, DatasetConfig};

const PARTITIONS: usize = 4;

/// Four genera over 3 kb genomes; half of every genome sits in conserved
/// segments that differ between genera by ~1 % substitutions and ~1 %
/// single-base indels, so cross-genus reads overlap across indels.
fn community_reads() -> Vec<Read> {
    let mut config = DatasetConfig::test_scale();
    config.total_reads = 1200;
    for model in [
        &mut config.taxonomy.within_phylum,
        &mut config.taxonomy.between_phyla,
    ] {
        model.conserved_fraction = 0.5;
        model.conserved_divergence = 0.01;
        model.indel_rate = 0.01;
        model.segment_len = 350;
    }
    generate_dataset("kid", &config, 11).unwrap().reads
}

struct Run {
    prepared: Prepared,
    contigs: Vec<DnaString>,
    snapshot: String,
}

fn assemble(reads: &[Read], kernel: KernelKind, threads: usize) -> Run {
    let mut config = FocusConfig {
        partitions: PARTITIONS,
        threads,
        observability: ObsOptions::logical(),
        ..Default::default()
    };
    config.overlap.kernel = kernel;
    let assembler = FocusAssembler::new(config).unwrap();
    let prepared = assembler.prepare(reads).unwrap();
    let contigs = assembler
        .assemble_prepared(&prepared, PARTITIONS)
        .unwrap()
        .contigs;
    Run {
        prepared,
        contigs,
        snapshot: assembler.recorder().snapshot_json(),
    }
}

/// Length of the equal-length ranges the overlapper verified for `o`.
fn range_len(prepared: &Prepared, o: &Overlap) -> usize {
    let len = |id| prepared.store.get(id).seq.len();
    match o.kind {
        OverlapKind::SuffixPrefix => len(o.a) - o.shift as usize,
        OverlapKind::ContainsB => len(o.b),
        OverlapKind::ContainedInB => len(o.a),
    }
}

#[test]
fn every_kernel_assembles_an_indel_bearing_community_identically() {
    let reads = community_reads();
    let reference = assemble(&reads, KernelKind::Scalar, 1);
    assert!(!reference.contigs.is_empty());
    let gapped = reference
        .prepared
        .overlaps
        .iter()
        .filter(|o| o.len as usize != range_len(&reference.prepared, o))
        .count();
    assert!(gapped > 0, "no accepted overlap is gapped: the community is too easy");

    for threads in [1usize, 4] {
        let run = assemble(&reads, KernelKind::BitParallel, threads);
        let what = format!("bitparallel at {threads} threads");
        assert_eq!(run.prepared.overlaps, reference.prepared.overlaps, "overlaps: {what}");
        assert_eq!(run.contigs, reference.contigs, "contigs: {what}");
        assert_eq!(run.snapshot, reference.snapshot, "logical snapshot: {what}");
        let mut total = PairStats::default();
        for (_, _, stats) in &run.prepared.pair_stats {
            total.merge(stats);
        }
        assert!(total.exact_hits > 0, "{what}: rule never fired: {total:?}");
        assert!(total.prefilter_verified > 0, "{what}: DP never ran: {total:?}");
    }
}
