//! The real `focus` binary refuses an option it does not know — exit
//! code 1, the key named on stderr — before the subcommand does any work.
//! (Which keys each subcommand accepts is checked against the help text by
//! the unit tests in `src/bin/focus.rs`.) `focus graph --with-sequences`
//! writes the sequences the assembly uses. Hostile values and inputs get a
//! typed error and exit code 1, never a panic. FASTA input runs under a
//! memory budget, stopped and resumed, to the in-core run's output, and a
//! budgeted run writes no file but its alignment checkpoint.

use focus_assembler::focus::{FocusAssembler, FocusConfig};
use focus_assembler::seq::{fasta, fastq};
use std::path::{Path, PathBuf};
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
/// misspelt `--threads` and the retired `--align-kernel` and `--spill-dir`.
/// Each stops the run before the input is opened or the output created.
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
    let inputs = [
        ("--thredas", "1"),
        ("--align-kernel", "scalar"),
        ("--spill-dir", "x"),
    ];
    for (key, value) in inputs {
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
    let stages = FocusAssembler::new(config)
        .unwrap()
        .prepare_stages(&reads)
        .unwrap();
    let prepared = &stages.prepared;
    let gfa = std::fs::read_to_string(&gfa_path).unwrap();
    let (mut segments, mut differ) = (0, 0);
    for line in gfa.lines().filter(|line| line.starts_with("S\t")) {
        let fields: Vec<&str> = line.split('\t').collect();
        let v: u32 = fields[1].parse().unwrap();
        let consensus = &prepared.contigs[v as usize];
        assert_eq!(fields[2], consensus.to_string(), "segment {v}");
        let first_wins = prepared.hybrid.layouts[v as usize].contig_sequence(&stages.store);
        if first_wins != *consensus {
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

/// `focus simulate` refuses a coverage that is not finite and positive with
/// exit code 1 and a typed message, before it creates the output.
#[test]
fn hostile_coverage_exits_1_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("focus-cli-cov-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = dir.join("r.fastq");
    for coverage in ["inf", "nan", "-5", "0"] {
        let (code, stderr) = focus(&[
            "simulate",
            "--genome-len",
            "20000",
            "--coverage",
            coverage,
            "--output",
            output.to_str().unwrap(),
        ]);
        assert_eq!(code, Some(1), "--coverage {coverage}: {stderr}");
        assert!(
            stderr.contains("invalid coverage"),
            "--coverage {coverage}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "--coverage {coverage}: {stderr}"
        );
        assert!(!output.exists(), "--coverage {coverage}: output created");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A valid input whose one subset the seed index cannot hold — one
/// 1 000 000-base read beside 2 100 reads of 100 bp, 4 202 reads with their
/// reverse complements — is refused with the typed capacity error and exit
/// code 1, in core and under a budget, before any index is built and
/// without an output file.
#[test]
fn a_subset_past_the_seed_index_capacity_exits_1_without_a_panic() {
    use focus_assembler::seq::Read;
    use focus_assembler::sim::genome::random_genome;
    use focus_assembler::sim::GenomeConfig;
    let dir = std::env::temp_dir().join(format!("focus-cli-capacity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let genome = |length, seed| {
        let config = GenomeConfig {
            length,
            ..GenomeConfig::default()
        };
        random_genome(&config, seed)
    };
    let short = genome(210_000, 2);
    let mut reads = vec![Read::new("long", genome(1_000_000, 1))];
    reads
        .extend((0..2100).map(|i| Read::new(format!("s{i}"), short.slice(100 * i, 100 * i + 100))));
    let (input, output) = (dir.join("reads.fastq"), dir.join("contigs.fasta"));
    let mut text = Vec::new();
    fastq::write(&mut text, &reads, 30).unwrap();
    std::fs::write(&input, text).unwrap();
    let base = [
        "assemble",
        "--input",
        input.to_str().unwrap(),
        "--output",
        output.to_str().unwrap(),
        "--threads",
        "1",
        "--subsets",
        "1",
    ];
    let budget = ["--memory-budget", "64M"];
    for extra in [&[][..], &budget[..]] {
        let (code, stderr) = focus(&[&base[..], extra].concat());
        assert_eq!(code, Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("index capacity: 4202 reads of up to 1000000 bases"),
            "{extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
        assert!(!output.exists(), "{extra:?}: output created");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `.fna` is FASTA: `focus stats` reads it, and the unknown-extension error
/// names it among the accepted extensions.
#[test]
fn stats_reads_fna_and_the_extension_error_lists_it() {
    let dir = std::env::temp_dir().join(format!("focus-cli-fna-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (fna, txt) = (dir.join("contigs.fna"), dir.join("contigs.txt"));
    std::fs::write(&fna, ">a\nACGTACGTAC\n>b\nACGTA\n").unwrap();
    std::fs::write(&txt, ">a\nACGT\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_focus"))
        .args(["stats", "--input", fna.to_str().unwrap()])
        .output()
        .expect("spawn focus");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("sequences : 2"), "{stdout}");
    assert!(stdout.contains("total bp  : 15"), "{stdout}");
    let (code, stderr) = focus(&["stats", "--input", txt.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("expected .fasta/.fa/.fna/.fastq/.fq"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Simulated reads written as FASTA under `dir`, and the in-core run's
/// contigs and `--logical-clock --metrics` snapshot on them: what every
/// other way of assembling that file must reproduce, byte for byte.
fn fasta_reference(dir: &Path) -> (PathBuf, Vec<u8>, Vec<u8>) {
    std::fs::create_dir_all(dir).unwrap();
    let (fastq_path, fasta_path) = (dir.join("r.fastq"), dir.join("r.fasta"));
    let simulate = [
        "simulate",
        "--genome-len",
        "8000",
        "--coverage",
        "10",
        "--seed",
        "5",
        "--output",
        fastq_path.to_str().unwrap(),
    ];
    let (code, stderr) = focus(&simulate);
    assert_eq!(code, Some(0), "{stderr}");
    let file = std::fs::File::open(&fastq_path).unwrap();
    let reads = fastq::parse(std::io::BufReader::new(file)).unwrap();
    let mut text = Vec::new();
    fasta::write(&mut text, &reads, 60).unwrap();
    std::fs::write(&fasta_path, text).unwrap();
    let (contigs, metrics) = assemble_fasta(dir, &fasta_path, "in-core", &[]);
    (fasta_path, contigs, metrics)
}

/// `focus assemble --threads 2 --logical-clock --metrics` on `input` with
/// `extra` options, expected to exit 0: its contigs and metrics.
fn assemble_fasta(dir: &Path, input: &Path, tag: &str, extra: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let (contigs, metrics) = (
        dir.join(format!("{tag}.fasta")),
        dir.join(format!("{tag}.json")),
    );
    let (code, stderr) = focus(&[&assemble_args(input, &contigs, &metrics)[..], extra].concat());
    assert_eq!(code, Some(0), "{tag}: {stderr}");
    (
        std::fs::read(contigs).unwrap(),
        std::fs::read(metrics).unwrap(),
    )
}

fn assemble_args<'a>(input: &'a Path, contigs: &'a Path, metrics: &'a Path) -> Vec<&'a str> {
    vec![
        "assemble",
        "--input",
        input.to_str().unwrap(),
        "--output",
        contigs.to_str().unwrap(),
        "--threads",
        "2",
        "--logical-clock",
        "--metrics",
        metrics.to_str().unwrap(),
    ]
}

/// FASTA streams under a budget like FASTQ: under `--memory-budget` its
/// contigs and logical metrics are the in-core run's.
#[test]
fn out_of_core_fasta_matches_the_in_core_run() {
    let dir = std::env::temp_dir().join(format!("focus-cli-ooc-fasta-{}", std::process::id()));
    let (input, contigs, metrics) = fasta_reference(&dir);
    let budget = ["--memory-budget", "64M"];
    let (budgeted_contigs, budgeted_metrics) = assemble_fasta(&dir, &input, "budgeted", &budget);
    assert!(contigs.starts_with(b">contig_0"), "no contigs");
    assert_eq!(budgeted_contigs, contigs);
    assert_eq!(budgeted_metrics, metrics);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A budgeted FASTA run stopped after alignment (exit 3) and resumed
/// writes the in-core run's contigs and logical metrics.
#[test]
fn a_stopped_out_of_core_fasta_run_resumes_to_the_in_core_output() {
    let dir = std::env::temp_dir().join(format!("focus-cli-ooc-resume-{}", std::process::id()));
    let (input, contigs, metrics) = fasta_reference(&dir);
    let ckpt = dir.join("ckpt");
    let budgeted = [
        "--memory-budget",
        "64M",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
    ];
    let (stopped_contigs, stopped_metrics) = (dir.join("stopped.fasta"), dir.join("stopped.json"));
    let stop = assemble_args(&input, &stopped_contigs, &stopped_metrics);
    let (code, stderr) = focus(&[&stop[..], &budgeted, &["--crash-after", "alignment"]].concat());
    assert_eq!(code, Some(3), "{stderr}");
    assert!(!stopped_contigs.exists(), "a stopped run wrote contigs");
    let resume = [&budgeted[..], &["--resume"]].concat();
    let (resumed_contigs, resumed_metrics) = assemble_fasta(&dir, &input, "resumed", &resume);
    assert_eq!(resumed_contigs, contigs);
    assert_eq!(resumed_metrics, metrics);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A budgeted run with a checkpoint directory writes its alignment
/// checkpoint there and nothing else: no scratch file of the alignment
/// outlives the run.
#[test]
fn a_budgeted_run_leaves_only_its_checkpoint() {
    let dir = std::env::temp_dir().join(format!("focus-cli-ooc-only-{}", std::process::id()));
    let (input, contigs, _) = fasta_reference(&dir);
    let ckpt = dir.join("ckpt");
    let budgeted = [
        "--memory-budget",
        "64M",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
    ];
    let (budgeted_contigs, _) = assemble_fasta(&dir, &input, "budgeted", &budgeted);
    assert_eq!(budgeted_contigs, contigs);
    let left: Vec<_> = std::fs::read_dir(&ckpt)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(left, ["phase_01_alignment.ckpt"]);
    std::fs::remove_dir_all(&dir).unwrap();
}
