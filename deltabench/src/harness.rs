//! The run shape shared by every workload.
//!
//! One run of one workload is a warm-up pass (timings discarded; peak memory
//! is read after it), then measured passes until `--seconds` have gone by,
//! then the correctness oracle.
//! Every pass repeats the whole thing from the seed — generate inputs,
//! build the engine or boot the daemon, preload (together: the pass's
//! set-up), then the measured section — so set-up is measured as often as
//! the section is, and sample *i* of the section is the same work in every
//! pass. Each end-to-end timing is rebuilt from the fastest observation of
//! every sample across the passes (`stats::fastest_per_sample`, see
//! [`summarise`]); the median and quartiles over whole passes are kept as
//! `harness.*` diagnostics.
//!
//! A traced run (`--trace 1`) alternates untraced and traced passes (their
//! `ops_per_s` difference is the tracing overhead), then makes the
//! workload's probe passes — the same section with one layer peeled off —
//! from which the per-layer differences come. An untraced run makes no
//! probe pass and records no span.

use crate::report::{self, RunResult};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::Workload;
use std::time::Instant;

/// What a pass is given.
pub struct PassCtx<'a> {
    pub seed: u64,
    /// ~1 % of every trace, for the smoke test.
    pub quick: bool,
    pub tracer: &'a mut Tracer,
}

/// What a pass reports.
#[derive(Default)]
pub struct PassResult {
    /// Generate + build + preload (+ boot and connect, for the daemon).
    pub setup_s: f64,
    pub generate_s: f64,
    pub preload_s: f64,
    /// Wall time of the measured section.
    pub measured_s: f64,
    /// Operations of the measured section, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// The time of each block / window / request / query / op of the
    /// section, in µs, in the order taken. The samples cover the section:
    /// their sum is its time, up to the loop around them.
    pub samples_us: Vec<f64>,
    /// Operations a sample is divided by to read as a latency: 64 on
    /// `rib-replay` and 16 on `acl-multifield`, whose latency is per op of a
    /// block, 1 elsewhere.
    pub sample_ops: f64,
    /// Counts that depend on the inputs alone. They must be identical on
    /// every pass of a run: a difference is a failure, not noise.
    pub counts: Vec<(&'static str, u64)>,
    /// Per-layer values read off this pass (sizes, counters, ratios).
    pub layer: Vec<(&'static str, f64)>,
}

/// Passes of one shape reduced to the end-to-end estimates (see
/// [`summarise`]): what is reported, and what the probes compare with.
pub struct MainSummary {
    pub ops_per_s: f64,
    pub latency_us_p50: f64,
    pub latency_us_p90: f64,
    pub latency_us_p99: f64,
    pub latency_us_max: f64,
    pub setup_s: f64,
}

impl MainSummary {
    pub fn us_per_op(&self) -> f64 {
        if self.ops_per_s == 0.0 {
            0.0
        } else {
            1e6 / self.ops_per_s
        }
    }
}

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Fewest measured passes in a run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// In a traced run, fewest passes of each kind (untraced, traced).
const MIN_TRACED_PASSES: usize = 2;
/// How many passes a probe of a traced run makes in each shape.
const PROBE_REPEATS: usize = 3;

pub struct Run {
    pub result: RunResult,
    /// The other metric family of the same run — diagnostics for stderr.
    pub diagnostics: RunResult,
    pub problems: Vec<String>,
    pub tracer: Tracer,
}

impl RunOptions {
    fn ctx<'a>(&self, tracer: &'a mut Tracer) -> PassCtx<'a> {
        PassCtx {
            seed: self.seed,
            quick: self.quick,
            tracer,
        }
    }
}

pub fn run_workload(workload: Workload, options: &RunOptions) -> Run {
    let mut tracer = Tracer::new(false);
    let mut problems: Vec<String> = Vec::new();
    let mut pass_no = 0u32;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut reference_counts: Option<Vec<(&'static str, u64)>> = None;

    let mut do_pass = |tracer: &mut Tracer, traced: bool, problems: &mut Vec<String>| {
        tracer.set_enabled(traced);
        tracer.set_pass(pass_no);
        tracer.enter("harness.pass");
        let result = workload.pass(&mut options.ctx(tracer));
        tracer.exit();
        tracer.set_enabled(false);
        attempted += result.attempted;
        failed += result.failed;
        match &reference_counts {
            None => reference_counts = Some(result.counts.clone()),
            Some(reference) if *reference != result.counts => problems.push(format!(
                "pass {pass_no}: deterministic counts differ from the first pass: {:?} vs {:?}",
                result.counts, reference
            )),
            Some(_) => {}
        }
        eprintln!(
            "{}: pass {pass_no}{}: set-up {:.3} ms, section {:.4} s, {:.1} ops/s, peak {:.1} MB",
            workload.name(),
            if traced { " (traced)" } else { "" },
            result.setup_s * 1e3,
            result.measured_s,
            pass_ops_per_s(&result),
            peak_memory_mb().unwrap_or(0.0),
        );
        pass_no += 1;
        result
    };

    // Warm-up: page in the binary, grow the allocator's arenas, fill caches.
    // Its timings are discarded, but it is the one pass that runs in a fresh
    // process, so peak memory is read right after it: one pass's inputs plus
    // one engine. Later passes ratchet the resident set upward (glibc keeps
    // the arenas of the threads `apply_batch` spawns per window), by an
    // amount that depends on how many passes fit in `--seconds`; that
    // growth stays visible as `harness.mem_mb_peak_all_passes`.
    do_pass(&mut tracer, false, &mut problems);
    let mem_mb_peak = peak_memory_mb();

    // A traced run alternates untraced and traced passes and keeps half of
    // its time for the probes.
    let (budget, fewest) = match (options.quick, options.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (options.seconds / 2.0, MIN_TRACED_PASSES),
        (false, false) => (options.seconds, MIN_PASSES),
    };
    let mut untraced: Vec<PassResult> = Vec::new();
    let mut traced: Vec<PassResult> = Vec::new();
    let started = Instant::now();
    while untraced.len() < fewest || started.elapsed().as_secs_f64() < budget {
        untraced.push(do_pass(&mut tracer, false, &mut problems));
        if options.trace {
            traced.push(do_pass(&mut tracer, true, &mut problems));
        }
    }

    let main = summarise(&untraced);
    let mem_mb_peak_all_passes = peak_memory_mb();
    let mut layer_values: Vec<(&'static str, f64)> = Vec::new();
    if options.trace {
        let repeats = if options.quick { 1 } else { PROBE_REPEATS };
        tracer.set_enabled(false);
        layer_values = workload.probes(&mut options.ctx(&mut tracer), &main, repeats);
    }

    let invol_ctx_switches = proc_status_number("nonvoluntary_ctxt_switches");

    problems.extend(workload.oracle(&mut options.ctx(&mut tracer)));
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }

    let mut end_to_end = vec![
        (report::OPS_PER_S, main.ops_per_s),
        (report::LATENCY_P50, main.latency_us_p50),
        (report::LATENCY_P90, main.latency_us_p90),
        (report::SETUP_S, main.setup_s),
    ];
    end_to_end.extend(mem_mb_peak.map(|mb| (report::MEM_PEAK, mb)));

    let per_pass = |f: fn(&PassResult) -> f64| -> Vec<f64> { untraced.iter().map(f).collect() };
    let ops_per_s = per_pass(pass_ops_per_s);
    let (q1, q3) = stats::quartiles(&ops_per_s);
    // Values a pass reads off its own section are counts, equal on every
    // pass, but for the subscriber's event lag: take the fastest pass's.
    let fastest_pass = untraced
        .iter()
        .max_by(|a, b| pass_ops_per_s(a).total_cmp(&pass_ops_per_s(b)))
        .expect("at least one measured pass");
    layer_values.extend(fastest_pass.layer.iter().copied());
    layer_values.extend([
        (
            "workloads.generate_ms",
            stats::min(&per_pass(|p| p.generate_s)) * 1e3,
        ),
        (
            "harness.preload_ms",
            stats::min(&per_pass(|p| p.preload_s)) * 1e3,
        ),
        ("harness.passes", untraced.len() as f64),
        (
            "harness.latency_samples",
            fastest_pass.samples_us.len() as f64,
        ),
        ("harness.ops_per_s_median", stats::median(&ops_per_s)),
        ("harness.ops_per_s_q1", q1),
        ("harness.ops_per_s_q3", q3),
        (
            "harness.pass_spread_pct",
            stats::pass_spread_pct(main.ops_per_s, &ops_per_s),
        ),
        ("harness.nproc", nproc() as f64),
        (
            "harness.measured_s_min",
            stats::min(&per_pass(|p| p.measured_s)),
        ),
    ]);
    if !traced.is_empty() && main.ops_per_s > 0.0 {
        let overhead = (main.ops_per_s - summarise(&traced).ops_per_s) / main.ops_per_s;
        layer_values.push(("harness.trace_overhead_pct", overhead * 100.0));
    }
    layer_values.extend(mem_mb_peak_all_passes.map(|mb| ("harness.mem_mb_peak_all_passes", mb)));
    layer_values.extend(invol_ctx_switches.map(|n| ("harness.invol_ctx_switches", n as f64)));

    // A declared metric that was not measured makes the run incorrect.
    // End-to-end values are checked on every run; per-layer values on a
    // traced run, the only kind that measures them all.
    let (e2e_metrics, e2e_problems) = report::collect(&report::END_TO_END, &end_to_end, &[]);
    problems.extend(e2e_problems);
    let (layer_metrics, layer_problems) =
        report::collect(&report::PER_LAYER, &layer_values, workload.idle_layers());
    if options.trace {
        problems.extend(layer_problems);
    }

    let result = |metrics| RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    };
    let (result, diagnostics) = if options.trace {
        (result(layer_metrics), result(e2e_metrics))
    } else {
        (result(e2e_metrics), result(layer_metrics))
    };
    Run {
        result,
        diagnostics,
        problems,
        tracer,
    }
}

fn pass_ops_per_s(pass: &PassResult) -> f64 {
    if pass.measured_s == 0.0 {
        0.0
    } else {
        (pass.attempted - pass.failed) as f64 / pass.measured_s
    }
}

/// Reduces passes of one shape to the end-to-end estimates.
///
/// Every pass replays the same inputs, so sample *i* is the same work in
/// every pass. Interference from the host only ever adds time and comes in
/// bursts much shorter than a pass, so the section is rebuilt from each
/// sample's fastest observation (`stats::fastest_per_sample`): `ops_per_s`
/// is the operations of the section over the sum of those times, and the
/// latency percentiles are taken over them. A whole pass is rarely free of
/// interference; nearly every sample is, in one pass or another. Set-up is
/// one interval per pass, so its estimate is the fastest pass's.
pub fn summarise(passes: &[PassResult]) -> MainSummary {
    let samples: Vec<&[f64]> = passes.iter().map(|p| &p.samples_us[..]).collect();
    let fastest = stats::sorted(stats::fastest_per_sample(&samples));
    let section_s = fastest.iter().sum::<f64>() / 1e6;
    let done = passes.iter().map(|p| p.attempted - p.failed).min();
    let sample_ops = passes.first().map_or(1.0, |p| p.sample_ops);
    let latency = |p: f64| stats::percentile(&fastest, p) / sample_ops;
    MainSummary {
        ops_per_s: if section_s == 0.0 {
            0.0
        } else {
            done.unwrap_or(0) as f64 / section_s
        },
        latency_us_p50: latency(50.0),
        latency_us_p90: latency(90.0),
        latency_us_p99: latency(99.0),
        latency_us_max: latency(100.0),
        setup_s: stats::min(&passes.iter().map(|p| p.setup_s).collect::<Vec<f64>>()),
    }
}

/// A probe of a traced run: `repeats` passes in another shape, reduced like
/// the main passes so that the two can be subtracted.
pub fn probe(repeats: usize, pass: impl FnMut() -> PassResult) -> MainSummary {
    summarise(
        &std::iter::repeat_with(pass)
            .take(repeats)
            .collect::<Vec<_>>(),
    )
}

/// A numeric field of `/proc/self/status` (`VmHWM` in kB, context-switch
/// counts as plain numbers); `None` where the file or the field is missing.
fn proc_status_number(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// The process's peak resident set so far, in MB.
fn peak_memory_mb() -> Option<f64> {
    proc_status_number("VmHWM").map(|kb| kb as f64 / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Derives one generator's seed from the run's `--seed` (SplitMix64 over
/// the seed and the generator's stream number), so every generator draws
/// from its own sequence and every sequence depends on `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times one call. The value passes through `black_box`, so a call made
/// only to be timed is not optimised away.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_secs_f64())
}

/// The smallest of `repeats` measurements of one interval: how a probe that
/// times a single call is reduced.
pub fn fastest(repeats: usize, mut measure: impl FnMut() -> f64) -> f64 {
    (0..repeats)
        .map(|_| measure())
        .fold(f64::INFINITY, f64::min)
}

/// Microseconds between two instants.
pub fn us_between(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_depend_on_seed_and_stream() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_ne!(derive_seed(0, 0), 0);
    }

    #[test]
    fn proc_status_reads_peak_memory() {
        assert!(peak_memory_mb().unwrap() > 0.0);
        assert_eq!(proc_status_number("NoSuchField"), None);
    }

    fn pass(samples_us: &[f64], sample_ops: f64, setup_s: f64) -> PassResult {
        PassResult {
            setup_s,
            attempted: (samples_us.len() as f64 * sample_ops) as u64,
            samples_us: samples_us.to_vec(),
            sample_ops,
            ..PassResult::default()
        }
    }

    #[test]
    fn summary_is_rebuilt_from_the_fastest_observation_of_each_sample() {
        // Two passes of four 2-op samples; a burst hits a different sample
        // in each. Fastest per sample: 10, 20, 30, 40 µs = 100 µs for 8 ops.
        let passes = [
            pass(&[10.0, 90.0, 30.0, 40.0], 2.0, 0.5),
            pass(&[70.0, 20.0, 30.0, 40.0], 2.0, 0.4),
        ];
        let summary = summarise(&passes);
        assert!((summary.ops_per_s - 8.0 / 100e-6).abs() < 1e-6);
        assert_eq!(summary.latency_us_p50, 10.0); // 20 µs over 2 ops
        assert_eq!(summary.latency_us_p90, 20.0);
        assert_eq!(summary.latency_us_max, 20.0);
        assert_eq!(summary.setup_s, 0.4);
        assert!((summary.us_per_op() - 12.5).abs() < 1e-9);
        assert_eq!(summarise(&[]).ops_per_s, 0.0);
    }

    /// The `--quick` smoke: all five workloads, traced and untraced, oracle
    /// on, on ~1 % of each trace.
    #[test]
    fn quick_run_of_every_workload_is_correct_and_complete() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let options = RunOptions {
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    quick: true,
                };
                let run = run_workload(workload, &options);
                assert!(
                    run.problems.is_empty(),
                    "{} (trace {trace}): {:?}",
                    workload.name(),
                    run.problems
                );
                assert!(run.result.correct && run.result.failed == 0);
                assert!(run.result.attempted >= 1);
                let decls: &[report::MetricDecl] = if trace {
                    &report::PER_LAYER
                } else {
                    &report::END_TO_END
                };
                assert_eq!(run.result.metrics.len(), decls.len());
                if trace {
                    assert!(!run.tracer.spans().is_empty());
                    assert!(run
                        .result
                        .metrics
                        .iter()
                        .any(|(name, passes, _)| name == "harness.passes" && *passes >= 1.0));
                } else {
                    // An untraced run records no span, and no end-to-end
                    // metric may read 0.
                    assert!(run.tracer.spans().is_empty());
                    for (name, value, _) in &run.result.metrics {
                        assert!(*value > 0.0, "{} {name} = {value}", workload.name());
                    }
                }
            }
        }
    }
}
