//! Overlap verification against its oracle where a gapped alignment can
//! win: a small fc-sim community whose genera diverged with insertions and
//! deletions. Every request the pipeline's seeding stage produces
//! (`Overlapper::gather_requests`) must get from
//! `Overlapper::verify_requests` exactly the verdict banded
//! Needleman–Wunsch gives it (`banded_nw_verdict`, DESIGN.md §14), and the
//! accepted ones must be the overlaps the assembly used — on reads where
//! the ungapped-optimum rule must *not* fire for every equal-length
//! candidate, unlike the single-genome, substitution-only reads `focus
//! simulate` produces. Contigs and the logical-clock metric snapshot are
//! byte-identical at 1 and 4 threads.

use focus_assembler::align::{
    banded_nw_verdict, KernelScratch, NwScratch, Overlap, OverlapKind, Overlapper, PairStats, Pool,
};
use focus_assembler::focus::{FocusAssembler, FocusConfig, ObsOptions, Recorder, Stages};
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

fn config(threads: usize) -> FocusConfig {
    FocusConfig {
        partitions: PARTITIONS,
        threads,
        observability: ObsOptions::logical(),
        ..Default::default()
    }
}

struct Run {
    stages: Stages,
    /// `overlap_all`'s output on the prepared store: G0's overlaps.
    overlaps: Vec<Overlap>,
    contigs: Vec<DnaString>,
    snapshot: String,
}

fn assemble(reads: &[Read], threads: usize) -> Run {
    let assembler = FocusAssembler::new(config(threads)).unwrap();
    let stages = assembler.prepare_stages(reads).unwrap();
    let contigs = assembler
        .assemble_prepared(&stages.prepared, PARTITIONS)
        .unwrap()
        .contigs;
    let config = config(threads);
    let overlaps = Overlapper::new(&stages.store, config.overlap)
        .unwrap()
        .overlap_all(
            &stages.store.split_subsets(config.subsets),
            &Pool::new(threads),
            &Recorder::disabled(),
        )
        .unwrap()
        .0;
    Run {
        stages,
        overlaps,
        contigs,
        snapshot: assembler.recorder().snapshot_json(),
    }
}

/// Length of the equal-length ranges the overlapper verified for `o`.
fn range_len(stages: &Stages, o: &Overlap) -> usize {
    let len = |id| stages.store.get(id).len();
    match o.kind {
        OverlapKind::SuffixPrefix => len(o.a) - o.shift as usize,
        OverlapKind::ContainsB => len(o.b),
        OverlapKind::ContainedInB => len(o.a),
    }
}

#[test]
fn verification_matches_banded_nw_on_an_indel_bearing_community() {
    let reads = community_reads();
    let serial = assemble(&reads, 1);
    assert!(!serial.contigs.is_empty());
    let gapped = serial
        .overlaps
        .iter()
        .filter(|o| o.len as usize != range_len(&serial.stages, o))
        .count();
    assert!(
        gapped > 0,
        "no accepted overlap is gapped: the community is too easy"
    );

    // Request by request: `verify_requests` against the banded-NW verdict.
    let overlap = config(1).overlap;
    let store = &serial.stages.store;
    let overlapper = Overlapper::new(store, overlap).unwrap();
    let requests = overlapper.gather_requests(&store.split_subsets(config(1).subsets));
    let (mut total, mut verdicts) = (PairStats::default(), Vec::new());
    overlapper.verify_requests(
        &requests,
        &mut KernelScratch::default(),
        &mut total,
        &mut verdicts,
    );
    let mut nw = NwScratch::default();
    let mut accepted = Vec::new();
    for (req, verdict) in requests.iter().zip(&verdicts) {
        let expected = banded_nw_verdict(store, &overlap, req, &mut nw);
        assert_eq!(*verdict, expected, "{req:?}");
        accepted.extend(expected.map(|s| (req.a, req.b, req.kind, req.shift, s.columns)));
    }
    let used: Vec<_> = serial
        .overlaps
        .iter()
        .map(|o| (o.a, o.b, o.kind, o.shift, o.len))
        .collect();
    assert_eq!(
        accepted, used,
        "the assembly's overlaps are the banded-NW accepts"
    );
    assert!(total.exact_hits > 0, "rule never fired: {total:?}");
    assert!(total.prefilter_verified > 0, "DP never ran: {total:?}");

    let pooled = assemble(&reads, 4);
    assert_eq!(pooled.overlaps, serial.overlaps, "overlaps at 4 threads");
    assert_eq!(
        pooled.stages.pair_stats, serial.stages.pair_stats,
        "pair stats at 4 threads"
    );
    assert_eq!(pooled.contigs, serial.contigs, "contigs at 4 threads");
    assert_eq!(
        pooled.snapshot, serial.snapshot,
        "logical snapshot at 4 threads"
    );
}
