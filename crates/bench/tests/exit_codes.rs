//! The exit codes, end to end: an explicitly requested stack/collective
//! combination the stack does not implement must fail the `hansim`
//! invocation with the gate's exit code, while the `--stack all`
//! comparison (where skips are informational) stays green; a `repro` run
//! whose results cannot be written fails the same way, and an unknown
//! flag value is a usage error (exit 2).

use han_bench::gate::GATE_EXIT_CODE;
use std::process::Command;

fn hansim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hansim"))
        .args(args)
        .args(["--nodes", "2", "--ppn", "2", "--bytes", "4096"])
        .output()
        .expect("run hansim")
}

#[test]
fn explicitly_requested_unsupported_stack_exits_nonzero() {
    let out = hansim(&["--stack", "cray", "--coll", "gather"]);
    assert_eq!(out.status.code(), Some(GATE_EXIT_CODE), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unsupported"), "stdout: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("UNEXPECTED"), "stderr: {stderr}");
}

#[test]
fn all_stack_comparison_tolerates_unsupported() {
    // The same combination is an expected skip inside the `all` sweep.
    let out = hansim(&["--stack", "all", "--coll", "gather"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("unsupported"));
}

#[test]
fn supported_combination_exits_zero() {
    let out = hansim(&["--stack", "cray", "--coll", "bcast"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// Run `repro` in a fresh scratch directory (it writes `results/` under
/// its working directory); `setup` prepares the directory first.
fn repro_in(
    name: &str,
    args: &[&str],
    setup: impl FnOnce(&std::path::Path),
) -> std::process::Output {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    setup(&dir);
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run repro")
}

#[test]
fn unwritable_results_fail_the_run_and_name_the_file() {
    let out = repro_in(
        "repro-results-is-a-file",
        &["fig2", "--scale", "mini"],
        |dir| {
            std::fs::write(dir.join("results"), "not a directory").unwrap();
        },
    );
    assert_eq!(out.status.code(), Some(GATE_EXIT_CODE), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("results/fig2.json"), "stderr: {stderr}");
}

#[test]
fn unknown_scale_or_cache_is_a_usage_error() {
    for args in [
        ["fig2", "--scale", "mni", "--cache", "mem"],
        ["fig2", "--scale", "mini", "--cache", "dsk"],
    ] {
        let out = repro_in("repro-bad-flag", &args, |_| {});
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran before rejecting the flag"
        );
    }
}
