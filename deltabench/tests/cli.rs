//! Drives the built binary the way the benchmark driver and a person do.
//! Everything runs at `--quick` size, so the whole file takes seconds.

use std::process::{Command, Output};

const END_TO_END: [&str; 5] = [
    "ops_per_s",
    "latency_us_p50",
    "latency_us_p90",
    "mem_mb_peak",
    "setup_s",
];

fn deltabench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deltabench"))
        .args(args)
        .output()
        .expect("run the deltabench binary")
}

#[test]
fn a_single_run_ends_with_the_result_line() {
    let out = deltabench(&[
        "--workload",
        "whatif-scan",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--quick",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for name in END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {last}"
        );
    }
    assert!(
        !last.contains("harness."),
        "an untraced run prints end-to-end metrics only"
    );
}

#[test]
fn run_prints_one_document_and_writes_the_trace() {
    let dir = format!("{}/cli-trace", env!("CARGO_TARGET_TMPDIR"));
    let out = deltabench(&[
        "run",
        "--quick",
        "--workload",
        "acl-multifield",
        "--trace",
        &dir,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("{\"schema\": \"deltabench-v1\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"acl-multifield\": {\"end_to_end\": {\"correct\": true"));
    assert!(stdout.contains("\"per_layer\": {\"correct\": true"));
    assert!(stdout.contains("\"multifield.repair_us_per_op\": {\"value\": "));
    let trace = std::fs::read_to_string(format!("{dir}/trace-acl-multifield.json")).unwrap();
    assert!(trace.contains("\"self_time_ms\": {") && trace.contains("\"multifield.apply_block\""));
}

#[test]
fn a_bad_command_line_prints_no_result() {
    for args in [
        &["--workload", "no-such-workload", "--seed", "1"][..],
        &["--seed", "1"][..],
        &["--workload", "rib-replay", "--trace", "2"][..],
        &["frobnicate"][..],
        // selfcheck has one fixed shape: no run count, no seed.
        &["selfcheck", "--runs", "3"][..],
        &["selfcheck", "--seed", "3"][..],
    ] {
        let out = deltabench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
