//! The real `focus` binary refuses an option it does not know — exit
//! code 1, the key named on stderr — before the subcommand does any work.
//! (Which keys each subcommand accepts is checked against the help text by
//! the unit tests in `src/bin/focus.rs`.)

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
        "variants",
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
