//! `deltabench` — the one benchmark of the Delta-net verifier.
//!
//! ```text
//! deltabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run of one workload in this process. The last line of stdout is
//!     the result: {"correct", "attempted", "failed", "metrics"} with every
//!     end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
//!     A traced run also writes trace-<workload>.json (see --trace-dir).
//! deltabench run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <dir>]
//!     Every workload (or one), each in a fresh process, as one JSON
//!     document on stdout; with --trace, the per-layer metrics too.
//! deltabench selfcheck [--workload <name>] [--seconds <s>]
//!     The benchmark against itself, the way the driver accepts it: two
//!     interleaved sets of ten runs of the same code, run i on seed i; fails
//!     if the set medians of any metric differ, or the quartiles of either
//!     set spread, by more than the metric's bound.
//! ```
//!
//! Human-readable tables go to stderr; stdout carries only JSON.

mod engine_api;
mod harness;
mod report;
mod spans;
mod stats;
mod workloads;

use harness::RunOptions;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

/// Exit code of a run whose outputs were wrong; usage errors exit with 64.
const EXIT_INCORRECT: u8 = 2;
const EXIT_USAGE: u8 = 64;

struct Args {
    command: Option<String>,
    flags: Vec<(String, String)>,
}

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["--quick"];

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut argv = argv.peekable();
        let command = argv.next_if(|a| !a.starts_with("--"));
        let mut flags = Vec::new();
        while let Some(flag) = argv.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let value = if SWITCHES.contains(&flag.as_str()) {
                String::new()
            } else {
                argv.next().ok_or(format!("`{flag}` needs a value"))?
            };
            flags.push((flag, value));
        }
        Ok(Args { command, flags })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`{flag} {v}`: not a valid number")),
        }
    }

    fn allow(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag `{flag}`")),
            None => Ok(()),
        }
    }

    /// `--workload`, or every workload.
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("--workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Ok(vec![workload_named(name)?]),
        }
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{name}`; the workloads are {}",
            names.join(", ")
        )
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    let outcome = match args.command.as_deref() {
        None => single_run(&args),
        Some("run") => run_all(&args),
        Some("selfcheck") => selfcheck(&args),
        Some(other) => Err(format!("unknown command `{other}`")),
    };
    outcome.unwrap_or_else(|e| usage(&e))
}

fn usage(error: &str) -> ExitCode {
    eprintln!("deltabench: {error}");
    eprintln!(
        "usage: deltabench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         deltabench run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <dir>]\n       \
         deltabench selfcheck [--workload <name>] [--seconds <s>]"
    );
    ExitCode::from(EXIT_USAGE)
}

/// The driver's contract: one workload, in this process.
fn single_run(args: &Args) -> Result<ExitCode, String> {
    args.allow(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--trace-dir",
        "--quick",
    ])?;
    let workload = workload_named(
        args.get("--workload")
            .ok_or("`--workload <name>` is required")?,
    )?;
    let name = workload.name();
    let trace = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    let options = RunOptions {
        seed: args.number("--seed", report::DEFAULT_SEED)?,
        seconds: args.number("--seconds", f64::from(report::RUN_SECONDS))?,
        trace,
        quick: args.has("--quick"),
    };
    if harness::nproc() > 1 {
        eprintln!(
            "{name}: not pinned to one CPU ({} available): timings will wander with the \
             host's load; run under `taskset -c 1` as BENCHMARK.json does",
            harness::nproc()
        );
    }

    let run = harness::run_workload(workload, &options);
    eprint!("{}", report::table(name, &run.diagnostics));
    eprint!("{}", report::table(name, &run.result));
    for problem in &run.problems {
        eprintln!("{name}: INCORRECT: {problem}");
    }
    if trace {
        let dir = match args.get("--trace-dir") {
            Some(dir) => PathBuf::from(dir),
            None => default_trace_dir()?,
        };
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::render(name, run.tracer.spans())))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "{name}: {} spans written to {}",
            run.tracer.spans().len(),
            path.display()
        );
    }
    println!("{}", run.result.render());
    Ok(if run.result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// Traces go next to the executable — inside the build directory, which is
/// inside the checkout and already ignored by git.
fn default_trace_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    Ok(exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("deltabench-traces"))
}

/// What a child run is asked for.
struct ChildRun<'a> {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace_dir: Option<&'a str>,
    quick: bool,
}

/// Runs one workload in a fresh process (fresh allocator, fresh `VmHWM`)
/// and returns its result line and whether it exited with success, that
/// is, whether its outputs were correct.
fn child_run(run: &ChildRun) -> Result<(String, bool), String> {
    let name = run.workload.name();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.trace_dir.is_some() { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = run.trace_dir {
        command.args(["--trace-dir", dir]);
    }
    if run.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last() {
        Some(line) if line.starts_with("{\"correct\": ") => {
            Ok((line.to_string(), output.status.success()))
        }
        _ => Err(format!(
            "the {name} run ({}) printed no result line",
            output.status
        )),
    }
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    args.allow(&["--workload", "--seed", "--seconds", "--trace", "--quick"])?;
    let seed = args.number("--seed", report::DEFAULT_SEED)?;
    let seconds = args.number("--seconds", f64::from(report::RUN_SECONDS))?;
    let mut correct = true;
    let mut entries = Vec::new();
    for workload in args.workloads()? {
        let mut child = ChildRun {
            workload,
            seed,
            seconds,
            trace_dir: None,
            quick: args.has("--quick"),
        };
        let (end_to_end, ok) = child_run(&child)?;
        correct &= ok;
        let mut entry = format!("\"end_to_end\": {end_to_end}");
        if let Some(dir) = args.get("--trace") {
            child.trace_dir = Some(dir);
            let (per_layer, ok) = child_run(&child)?;
            correct &= ok;
            entry.push_str(&format!(", \"per_layer\": {per_layer}"));
        }
        entries.push(format!("  \"{}\": {{{entry}}}", workload.name()));
    }
    println!(
        "{{\"schema\": \"deltabench-v1\", \"seed\": {seed}, \"held_out_seed\": {}, \"seconds\": {}, \"nproc\": {}, \"correct\": {correct}, \"workloads\": {{\n{}\n}}}}",
        report::HELD_OUT_SEED,
        report::number(seconds),
        harness::nproc(),
        entries.join(",\n")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// Runs in each of the two sets of `selfcheck`; run *i* of either set takes
/// seed *i*. It is the shape in which the driver accepts the benchmark.
const SELFCHECK_RUNS: u64 = 10;

/// The benchmark against itself: two interleaved sets (A B A B …) of runs
/// of the same code. For every workload × end-to-end metric it prints the
/// two set medians, how far apart they are, and each set's quartile spread
/// over its median, and holds all three to the metric's bound — but for the
/// spread of set-up time, which the driver does not hold to one either.
fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    args.allow(&["--workload", "--seconds"])?;
    let seconds = args.number("--seconds", f64::from(report::RUN_SECONDS))?;
    let workloads = args.workloads()?;

    // values[set][workload][metric] = one value per run
    let metrics = report::END_TO_END.len();
    let mut values = vec![vec![vec![Vec::new(); metrics]; workloads.len()]; 2];
    let mut correct = true;
    for seed in 1..=SELFCHECK_RUNS {
        for (set, set_values) in values.iter_mut().enumerate() {
            for (w, &workload) in workloads.iter().enumerate() {
                let (line, ok) = child_run(&ChildRun {
                    workload,
                    seed,
                    seconds,
                    trace_dir: None,
                    quick: false,
                })?;
                correct &= ok;
                eprintln!(
                    "selfcheck: seed {seed} of {SELFCHECK_RUNS}, set {}, {}: {}",
                    ["A", "B"][set],
                    workload.name(),
                    if ok { "correct" } else { "INCORRECT" }
                );
                for (m, decl) in report::END_TO_END.iter().enumerate() {
                    let value = report::read_value(&line, decl.name).ok_or(format!(
                        "the {} run printed no `{}`",
                        workload.name(),
                        decl.name
                    ))?;
                    set_values[w][m].push(value);
                }
            }
        }
    }

    let mut within = true;
    println!(
        "{:<15} {:<15} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "dist %", "iqr A %", "iqr B %", "bound %"
    );
    for (w, workload) in workloads.iter().enumerate() {
        for (m, decl) in report::END_TO_END.iter().enumerate() {
            let bound = decl.bound.expect("end-to-end metrics carry a bound");
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let (median_a, median_b) = (stats::median(a), stats::median(b));
            let distance = decl.better.worse_by(median_a, median_b).abs();
            let spread = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                (q3 - q1) / stats::median(v)
            };
            let (spread_a, spread_b) = (spread(a), spread(b));
            let spread_held = decl.name != report::SETUP_S;
            let ok = distance <= bound && (!spread_held || spread_a.max(spread_b) <= bound);
            within &= ok;
            println!(
                "{:<15} {:<15} {:>14.4} {:>14.4} {:>9.2} {:>9.2} {:>9.2} {:>7.1}{}",
                workload.name(),
                decl.name,
                median_a,
                median_b,
                distance * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    println!(
        "selfcheck: {SELFCHECK_RUNS} runs a set, outputs {}, {}",
        if correct { "correct" } else { "INCORRECT" },
        if within {
            "every metric within its bound"
        } else {
            "a metric exceeded its bound"
        }
    );
    Ok(if correct && within {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}
