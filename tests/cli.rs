//! The real `focus` binary refuses an option it does not know — exit
//! code 1, the key named on stderr — before the subcommand does any work.
//! (Which keys each subcommand accepts is checked against the help text by
//! the unit tests in `src/bin/focus.rs`.) `focus graph --with-sequences`
//! writes the sequences the assembly uses.

use focus_assembler::focus::{FocusAssembler, FocusConfig};
use focus_assembler::seq::fastq;
use std::process::Command;

/// Runs `focus <args>`; returns the exit code and stderr.
fn focus(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_focus"))
        .args(args)
        .output()
        .expect("spawn focus");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_subcommand_refuses_an_unknown_option() {
    for cmd in [
        "assemble",
        "simulate",
        "stats",
        "graph",
        "classify",
        "obs-check",
        "profile",
        "serve",
    ] {
        let (code, stderr) = focus(&[cmd, "--no-such-option", "5"]);
        assert_eq!(code, Some(1), "focus {cmd}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: unknown option --no-such-option for `focus {cmd}`")
        );
    }
}

/// The spellings a script written for an older build may still pass: a
/// misspelt `--threads` and the retired `--align-kernel`. Both stop the run
/// before the input is opened or the output created.
#[test]
fn a_misspelt_or_retired_option_stops_assemble_before_any_work() {
    let dir = std::env::temp_dir().join(format!("focus-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (input, output) = (dir.join("r.fastq"), dir.join("c.fasta"));
    std::fs::write(&input, "@r\nACGT\n+\nIIII\n").unwrap();
    let io = [
        "assemble",
        "--input",
        input.to_str().unwrap(),
        "--output",
        output.to_str().unwrap(),
    ];
    for (key, value) in [("--thredas", "1"), ("--align-kernel", "scalar")] {
        let (code, stderr) = focus(&[&io[..], &[key, value]].concat());
        assert_eq!(code, Some(1), "{key}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option {key} for `focus assemble`")),
            "{key}: {stderr}"
        );
        assert!(!output.exists(), "{key}: the run started");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--crash-after` names a checkpointed phase, and alignment is the only
/// one: a retired phase stops `assemble` before the input is opened, and
/// the message names the accepted value.
#[test]
fn a_retired_crash_point_stops_assemble_before_any_work() {
    let dir = std::env::temp_dir().join(format!("focus-cli-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The input does not exist: opening it would be a different error.
    let (input, output, ckpt) = (
        dir.join("absent.fastq"),
        dir.join("c.fasta"),
        dir.join("ckpt"),
    );
    let (code, stderr) = focus(&[
        "assemble",
        "--input",
        input.to_str().unwrap(),
        "--output",
        output.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--crash-after",
        "coarsen",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: --crash-after: unknown phase \"coarsen\"; expected alignment"
    );
    assert!(!output.exists() && !ckpt.exists(), "the run started");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every GFA segment `focus graph --with-sequences` writes is the node's
/// `Prepared::contigs` entry — the per-column consensus the assembly walks
/// — and on errorful reads some of those differ from the first-wins merge.
#[test]
fn graph_segments_carry_the_sequences_the_assembly_uses() {
    let dir = std::env::temp_dir().join(format!("focus-cli-gfa-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (reads_path, gfa_path) = (dir.join("r.fastq"), dir.join("g.gfa"));
    let reads_arg = reads_path.to_str().unwrap();
    let simulate = [
        "simulate",
        "--genome-len",
        "8000",
        "--coverage",
        "12",
        "--seed",
        "3",
        "--output",
        reads_arg,
    ];
    let (code, stderr) = focus(&simulate);
    assert_eq!(code, Some(0), "{stderr}");
    let graph = [
        "graph",
        "--input",
        reads_arg,
        "--output",
        gfa_path.to_str().unwrap(),
        "--with-sequences",
        "--threads",
        "1",
    ];
    let (code, stderr) = focus(&graph);
    assert_eq!(code, Some(0), "{stderr}");

    let file = std::fs::File::open(&reads_path).unwrap();
    let reads = fastq::parse(std::io::BufReader::new(file)).unwrap();
    let config = FocusConfig {
        dedup_rc: true,
        threads: 1,
        ..FocusConfig::default()
    };
    let prepared = FocusAssembler::new(config)
        .unwrap()
        .prepare(&reads)
        .unwrap();
    let gfa = std::fs::read_to_string(&gfa_path).unwrap();
    let (mut segments, mut differ) = (0, 0);
    for line in gfa.lines().filter(|line| line.starts_with("S\t")) {
        let fields: Vec<&str> = line.split('\t').collect();
        let v: u32 = fields[1].parse().unwrap();
        let consensus = &prepared.contigs[v as usize];
        assert_eq!(fields[2], consensus.to_string(), "segment {v}");
        if prepared.hybrid.contig(v, &prepared.store) != *consensus {
            differ += 1;
        }
        segments += 1;
    }
    assert!(segments > 0, "no segments in {gfa}");
    assert!(
        differ > 0,
        "no segment's consensus differs from its first-wins merge"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
