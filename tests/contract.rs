//! The byte-identity contract (`tests/common/matrix.rs`): its reference,
//! the points no feature's test file runs, and random genomes at random
//! points of the whole matrix.

mod common;

use common::matrix::{
    community, fixture, owner, points, run_random, run_slice, Fixture, Run, Slice,
};
use focus_assembler::obs::MetricsSnapshot;
use focus_assembler::seq::DnaString;

/// The fixture exercises what the matrix compares: several contigs, a
/// cluster that exchanged messages and, under the `FaultPlan`, lost ranks
/// and still assembled the same contigs; every stage's counters in the
/// logical snapshot, and the memory gauges outside it.
#[test]
fn the_reference_is_not_trivial() {
    let Fixture { clean, faulted, .. } = fixture();
    assert!(clean.contigs.len() >= 2, "{} contigs", clean.contigs.len());
    assert_eq!(clean.fault.crashes, 0);
    assert!(faulted.fault.crashes > 0, "the FaultPlan crashed no rank");
    let sorted = |run: &Run| {
        let mut contigs: Vec<String> = run.contigs.iter().map(DnaString::to_string).collect();
        contigs.sort();
        contigs
    };
    assert_eq!(
        sorted(faulted),
        sorted(clean),
        "faults changed the assembly"
    );

    let logical = MetricsSnapshot::from_json(&clean.snapshot).expect("snapshot parses");
    for key in [
        "align.candidates",
        "align.kernel.exact_hits",
        "coarsen.levels",
        "partition.edge_cut_final",
        "partition.work_units",
        "dist.messages",
    ] {
        assert!(logical.counters.get(key) > Some(&0), "{key}");
    }
    assert!(!clean.snapshot.contains("sched."));
    for key in [
        "mem.graph.g0_bytes",
        "mem.graph.multilevel_bytes",
        "mem.graph.hybrid_bytes",
    ] {
        assert!(clean.metrics.gauges.get(key) > Some(&0), "{key}");
        assert!(!clean.snapshot.contains(key), "{key}");
    }
}

/// The simulated community is no easier: several contigs, and ranks lost
/// under the `FaultPlan`.
#[test]
fn the_community_reference_is_not_trivial() {
    let Fixture { clean, faulted, .. } = community();
    assert!(clean.contigs.len() >= 2, "{} contigs", clean.contigs.len());
    assert!(faulted.fault.crashes > 0, "the FaultPlan crashed no rank");
    let logical = MetricsSnapshot::from_json(&clean.snapshot).expect("snapshot parses");
    assert!(logical.counters.get("dist.messages") > Some(&0));
}

/// Every slice owns points, and each is run by a differently named test.
#[test]
fn every_slice_owns_points() {
    let owners: Vec<Slice> = points().iter().map(owner).collect();
    for slice in Slice::ALL {
        assert!(owners.contains(&slice), "{slice:?} owns no point");
    }
    let mut tests: Vec<&str> = Slice::ALL.iter().map(|s| s.test()).collect();
    tests.sort();
    tests.dedup();
    assert_eq!(tests.len(), Slice::ALL.len());
}

/// The points no feature's test file runs: `assemble_file` in core at
/// every thread count, and ENOSPC on the checkpoint store.
#[test]
fn every_point_reproduces_its_reference() {
    run_slice(Slice::Rest);
}

#[test]
fn random_genomes_reproduce_their_reference_at_random_points() {
    run_random(3, |_| true);
}
