//! CLI contract of the `repro` binary: bad invocations must exit non-zero
//! and print usage, instead of silently running nothing (or everything).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let out = repro()
        .arg("frobnicate")
        .output()
        .expect("spawn repro binary");
    assert!(
        !out.status.success(),
        "unknown experiment must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment `frobnicate`"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
}

#[test]
fn malformed_flag_fails_with_usage() {
    let out = repro()
        .args(["config", "--bogus-flag"])
        .output()
        .expect("spawn repro binary");
    assert!(!out.status.success(), "malformed flag must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option `--bogus-flag`"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
}

#[test]
fn flag_missing_its_value_fails() {
    let out = repro()
        .args(["config", "--measure"])
        .output()
        .expect("spawn repro binary");
    assert!(
        !out.status.success(),
        "dangling --measure must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--measure needs a value"),
        "stderr: {stderr}"
    );
}

#[test]
fn non_numeric_flag_value_fails() {
    let out = repro()
        .args(["config", "--seed", "banana"])
        .output()
        .expect("spawn repro binary");
    assert!(!out.status.success(), "bad --seed must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --seed value"), "stderr: {stderr}");
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = repro().arg("--help").output().expect("spawn repro binary");
    assert!(out.status.success(), "--help must exit zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: repro"), "stdout: {stdout}");
    assert!(stdout.contains("reliability"), "stdout: {stdout}");
    assert!(stdout.contains("sched"), "stdout: {stdout}");
    assert!(!stdout.contains("sweep"), "stdout: {stdout}");
    assert!(!stdout.contains("telemetry"), "stdout: {stdout}");
    assert!(stdout.contains("--replicates"), "stdout: {stdout}");
    assert!(stdout.contains("--resume-dir"), "stdout: {stdout}");
}

#[test]
fn zero_sweep_replicates_fail() {
    let out = repro()
        .args(["sched", "--replicates", "0"])
        .output()
        .expect("spawn repro binary");
    assert!(!out.status.success(), "zero replicates must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--replicates must be at least 1"),
        "stderr: {stderr}"
    );
}

/// End-to-end resume contract: a `--max-cells`-capped run stops early and
/// prints no table, and the resumed run loads the persisted cells and
/// prints the replicated figures. (Report provenance is pinned by
/// `trace_report_carries_meta_block`.)
#[test]
fn mini_sweep_stops_and_resumes() {
    let dir = std::env::temp_dir().join("cloudmc_repro_cli_sweep");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create sweep scratch dir");
    let resume = dir.join("cells");
    let sched_args = [
        "sched",
        "--quick",
        "--warmup",
        "4000",
        "--measure",
        "8000",
        "--replicates",
        "2",
        "--threads",
        "2",
        "--resume-dir",
    ];

    // First run: capped after three fresh cells — the deterministic
    // stand-in for a run killed mid-flight.
    let out = repro()
        .current_dir(&dir)
        .args(sched_args)
        .arg(&resume)
        .args(["--max-cells", "3"])
        .output()
        .expect("spawn repro binary");
    assert!(out.status.success(), "capped run must exit zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "stopped after 3 new cells (0 cached, 117 remaining): rerun the same command to resume"
        ),
        "stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "a stopped run must print no table: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let cached = std::fs::read_dir(&resume).expect("resume dir").count();
    assert_eq!(cached, 3, "three cells must be persisted for resume");

    // Second run: resumes from the cached cells and completes.
    let out = repro()
        .current_dir(&dir)
        .args(sched_args)
        .arg(&resume)
        .output()
        .expect("spawn repro binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resumed run must exit zero: {stderr}");
    assert!(
        stderr.contains("117 cells simulated, 3 cached") && stderr.contains("[60/60]"),
        "stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Figure 7") && stdout.contains(" +/- "),
        "stdout: {stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A configuration that cannot run is the study's error: `repro` names the
/// experiment and the configuration, exits 1, and does not panic — the
/// studies that run outside the sweep executor included. Run in a scratch
/// directory so nothing can land in the source tree.
#[test]
fn failed_configuration_is_a_typed_error() {
    let dir = std::env::temp_dir().join("cloudmc_repro_cli_failed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for experiment in ["fig8", "trace", "fastforward"] {
        let out = repro()
            .current_dir(&dir)
            .args([experiment, "--quick", "--measure", "0"])
            .output()
            .expect("spawn repro binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{experiment}: a failed cell must exit 1; stderr: {stderr}"
        );
        assert!(
            stderr.contains(&format!("error: {experiment}: ")),
            "stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A report whose cells are not finite numbers (a one-cycle measurement
/// leaves tenants with no committed instructions, so infinite slowdowns)
/// is still valid JSON: such a value is written `null`, never a bare
/// `inf` or `NaN` token.
#[test]
fn non_finite_report_values_are_valid_json() {
    let dir = std::env::temp_dir().join("cloudmc_repro_cli_non_finite");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = repro()
        .current_dir(&dir)
        .args(["qos", "--quick", "--warmup", "1000", "--measure", "1"])
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "qos must exit zero; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("BENCH_qos.json")).expect("BENCH_qos");
    let tokens: Vec<&str> = json
        .split(|c: char| c.is_whitespace() || ",:[]{}".contains(c))
        .collect();
    for bad in ["inf", "-inf", "NaN", "-NaN"] {
        assert!(!tokens.contains(&bad), "bare `{bad}` token in the report");
    }
    assert!(json.contains("null"), "the degenerate cells must be null");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that closes stdout early (`repro qos | head -1`) stops the
/// printing, not the run: exit zero, no panic, and the report written. The
/// pipe is closed before the first line, because a pipe buffer can hold a
/// whole table and hide the broken pipe from a reader that leaves later.
#[test]
fn closed_stdout_stops_printing_not_the_study() {
    let dir = std::env::temp_dir().join("cloudmc_repro_cli_closed_stdout");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut child = repro()
        .current_dir(&dir)
        .args(["qos", "--quick", "--warmup", "1000", "--measure", "2000"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn repro binary");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "qos must exit zero; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        dir.join("BENCH_qos.json").is_file(),
        "the report must still be written; stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unwritable `BENCH_*.json` path must produce the typed diagnostic and a
/// failure exit code, not a panic — the experiment's stdout output still
/// prints first. A directory squatting on the report filename forces the
/// `std::fs::write` error deterministically.
#[test]
fn unwritable_report_path_fails_cleanly() {
    let dir = std::env::temp_dir().join("cloudmc_repro_cli_unwritable");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("BENCH_trace.json")).expect("create blocking directory");
    let out = repro()
        .current_dir(&dir)
        .args(["trace", "--quick", "--warmup", "2000", "--measure", "8000"])
        .output()
        .expect("spawn repro binary");
    assert!(
        !out.status.success(),
        "unwritable report path must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: cannot write BENCH_trace.json"),
        "stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must fail via the typed diagnostic, not a panic: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--csv` into a directory that cannot be created gets the same contract:
/// the table on stdout, the typed diagnostic naming the path, exit code 1.
/// A regular file squatting on the directory name forces the error.
#[test]
fn unwritable_csv_dir_fails_cleanly() {
    let dir = std::env::temp_dir().join("cloudmc_repro_cli_unwritable_csv");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let blocker = dir.join("csv");
    std::fs::write(&blocker, "not a directory").expect("create blocking file");
    let out = repro()
        .args(["fig8", "--quick", "--warmup", "2000", "--measure", "8000"])
        .arg("--csv")
        .arg(&blocker)
        .output()
        .expect("spawn repro binary");
    assert_eq!(out.status.code(), Some(1), "unwritable csv dir must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 8"), "stdout: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: cannot write") && stderr.contains(&*blocker.to_string_lossy()),
        "stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must fail via the typed diagnostic, not a panic: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `BENCH_*.json` writer stamps the provenance block.
/// (`trace` has no timing-sensitive regression gate, so it is safe to run at
/// tiny scale in a debug binary.)
#[test]
fn trace_report_carries_meta_block() {
    let dir = std::env::temp_dir().join("cloudmc_repro_cli_meta");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = repro()
        .current_dir(&dir)
        .args([
            "trace",
            "--quick",
            "--warmup",
            "2000",
            "--measure",
            "8000",
            "--git-describe",
            "meta-test",
        ])
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "trace must exit zero; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("BENCH_trace.json")).expect("BENCH_trace");
    assert!(
        json.contains("\"meta\": {") && json.contains("\"git_describe\": \"meta-test\""),
        "report must carry the meta block: {json}"
    );
    assert!(
        json.contains("\"scale\": \"quick+overrides\""),
        "overridden preset must be labelled: {json}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
