//! The benchmark's declared surface — end-to-end metrics with their bounds,
//! per-layer metrics — and the result line that carries one run's numbers.
//! `BENCHMARK.json` is where the driver reads the declarations (and why each
//! workload was chosen); a unit test keeps this file in step with it.

use crate::stats::Better;

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const OPS_PER_S: &str = "ops_per_s";
pub const LATENCY_P50: &str = "latency_us_p50";
pub const LATENCY_P90: &str = "latency_us_p90";
pub const MEM_PEAK: &str = "mem_mb_peak";
pub const SETUP_S: &str = "setup_s";

pub const END_TO_END: [MetricDecl; 5] = [
    e2e(OPS_PER_S, "1/s", Better::Higher, 0.25),
    e2e(LATENCY_P50, "us", Better::Lower, 0.25),
    e2e(LATENCY_P90, "us", Better::Lower, 0.25),
    e2e(MEM_PEAK, "MB", Better::Lower, 0.1),
    e2e(SETUP_S, "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

pub const PER_LAYER: [MetricDecl; 59] = [
    layer("atoms.create_us_per_op", "us", Lower),
    layer("atoms.final_count", "count", Lower),
    layer("atoms.allocated", "count", Lower),
    layer("engine.update_us_per_op", "us", Lower),
    layer("engine.insert_us_per_op", "us", Lower),
    layer("engine.remove_us_per_op", "us", Lower),
    layer("engine.update_us_p99", "us", Lower),
    layer("engine.update_us_p999", "us", Lower),
    layer("engine.update_us_max", "us", Lower),
    layer("engine.compact_ms", "ms", Lower),
    layer("engine.compactions", "count", Lower),
    layer("engine.affected_classes_max", "count", Lower),
    layer("engine.live_mb", "MB", Lower),
    layer("loops.check_us_per_op", "us", Lower),
    layer("loops.ops_with_loops", "count", Lower),
    layer("loops.full_scan_ms", "ms", Lower),
    layer("blackholes.full_scan_ms", "ms", Lower),
    layer("monitor.repair_us_per_op", "us", Lower),
    layer("monitor.transitions", "count", Lower),
    layer("monitor.active_violations", "count", Lower),
    layer("shard.window_us_p50_1shard", "us", Lower),
    layer("shard.window_us_p50_2shard", "us", Lower),
    layer("shard.overhead_ratio", "x", Lower),
    layer("shard.rule_skew_pct", "%", Lower),
    layer("persist.log_us_per_op", "us", Lower),
    layer("persist.bytes_per_op", "B", Lower),
    layer("persist.syncs", "count", Lower),
    layer("service.json_parse_us_per_req", "us", Lower),
    layer("service.proto_decode_us_per_req", "us", Lower),
    layer("service.proto_encode_us_per_req", "us", Lower),
    layer("service.inproc_window_us_p50", "us", Lower),
    layer("service.transport_us_per_req", "us", Lower),
    layer("service.overhead_ratio", "x", Lower),
    layer("service.req_us_p99", "us", Lower),
    layer("service.req_us_max", "us", Lower),
    layer("service.event_lag_us_p50", "us", Lower),
    layer("service.events", "count", Higher),
    layer("service.gaps", "count", Lower),
    layer("query.whatif_us_p99", "us", Lower),
    layer("query.whatif_us_max", "us", Lower),
    layer("query.affected_atoms_mean", "count", Lower),
    layer("multifield.apply_us_per_op_unmonitored", "us", Lower),
    layer("multifield.repair_us_per_op", "us", Lower),
    layer("multifield.op_us_p99", "us", Lower),
    layer("multifield.secondary_atoms", "count", Lower),
    layer("multifield.transitions", "count", Lower),
    layer("workloads.generate_ms", "ms", Lower),
    layer("harness.preload_ms", "ms", Lower),
    layer("harness.passes", "count", Higher),
    layer("harness.latency_samples", "count", Higher),
    layer("harness.ops_per_s_median", "1/s", Higher),
    layer("harness.ops_per_s_q1", "1/s", Higher),
    layer("harness.ops_per_s_q3", "1/s", Higher),
    layer("harness.pass_spread_pct", "%", Lower),
    layer("harness.invol_ctx_switches", "count", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.nproc", "count", Higher),
    layer("harness.measured_s_min", "s", Lower),
    layer("harness.mem_mb_peak_all_passes", "MB", Lower),
];

/// The seed a run uses when none is given, and the held-out seed on which
/// a later performance claim must hold as well.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7;

/// How long one run measures, in seconds (the driver passes it back as
/// `--seconds`): about nine passes of set-up + a 1.0–1.5 s section. With the
/// warm-up pass and the oracle a run then takes ~20 s of wall time, which
/// leaves the driver's 114 runs and two builds a quarter of its time budget
/// to spare for a slow phase of the box.
pub const RUN_SECONDS: u32 = 15;

/// Lines up measured `(name, value)` pairs with the declarations: exactly
/// the declared metrics, in declared order, as `(name, value, unit)`, plus
/// what is wrong with them. A declared metric must be measured (finite, and
/// above 0 if it is end-to-end, where 0 would read as the best possible
/// value) or be listed in `idle` — the metrics whose layer does no work on
/// the workload, which read 0; an entry of `idle` ending in `.` stands for a
/// whole layer. A measured name that is not declared is a mistyped one.
pub fn collect(
    decls: &[MetricDecl],
    values: &[(&str, f64)],
    idle: &[&str],
) -> (Vec<(String, f64, String)>, Vec<String>) {
    let is_idle = |name: &str| {
        idle.iter()
            .any(|i| *i == name || (i.ends_with('.') && name.starts_with(i)))
    };
    let mut problems: Vec<String> = values
        .iter()
        .filter(|(name, _)| !decls.iter().any(|d| d.name == *name))
        .map(|(name, _)| format!("`{name}` was measured but is not a declared metric"))
        .collect();
    let metrics = decls
        .iter()
        .map(|d| {
            let measured = values.iter().find(|(name, _)| *name == d.name);
            let value = match (measured, is_idle(d.name)) {
                (Some(_), true) => {
                    problems.push(format!("`{}` was measured but is listed as idle", d.name));
                    0.0
                }
                (Some(&(_, v)), false) if !v.is_finite() || (d.bound.is_some() && v <= 0.0) => {
                    problems.push(format!("`{}` reads {v}", d.name));
                    0.0
                }
                (Some(&(_, v)), false) => v,
                (None, true) => 0.0,
                (None, false) => {
                    problems.push(format!("`{}` was not measured", d.name));
                    0.0
                }
            };
            (d.name.to_string(), value, d.unit.to_string())
        })
        .collect();
    (metrics, problems)
}

/// What one run of one workload reports: the driver's result line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// One JSON object on one line, every value with all its digits.
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Reads one metric's value back from a result line written by
/// [`RunResult::render`] (`selfcheck` reads only this binary's own output,
/// so the shape is fixed; the program's JSON reader has no fractions).
pub fn read_value(line: &str, name: &str) -> Option<f64> {
    let (_, rest) = line.split_once(&format!("\"{name}\": {{\"value\": "))?;
    rest.split_once(',')?.0.parse().ok()
}

/// A JSON number with all the digits of the measurement (Rust's shortest
/// round-trip form); non-finite values, which no metric should produce,
/// read 0 so the line stays valid JSON.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The human table for stderr.
pub fn table(title: &str, result: &RunResult) -> String {
    let mut out = format!(
        "{title}: correct={} attempted={} failed={}\n",
        result.correct, result.attempted, result.failed
    );
    for (name, value, unit) in &result.metrics {
        out.push_str(&format!("  {name:<42} {value:>16.4} {unit}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for workload in Workload::ALL {
            assert!(valid_name(workload.name()), "{}", workload.name());
            assert!(
                seen.insert(workload.name()),
                "duplicate {}",
                workload.name()
            );
            assert_eq!(Workload::by_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::by_name("no-such-workload"), None);
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for d in &END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == SETUP_S && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn result_line_holds_every_declared_metric_and_reads_back() {
        let values = [
            (OPS_PER_S, 812345.678901),
            (LATENCY_P50, 1.25),
            (LATENCY_P90, 2.5),
            (MEM_PEAK, 147.5),
            (SETUP_S, 0.31234567),
        ];
        let (metrics, problems) = collect(&END_TO_END, &values, &[]);
        assert!(problems.is_empty(), "{problems:?}");
        let result = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        };
        let line = result.render();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        for (d, (_, value)) in END_TO_END.iter().zip(values) {
            assert!(line.contains(&format!("\"unit\": \"{}\"}}", d.unit)));
            assert_eq!(read_value(&line, d.name), Some(value));
        }
        assert!(line.contains("812345.678901"));
        assert_eq!(read_value(&line, "no_such_metric"), None);
    }

    #[test]
    fn a_metric_that_was_not_measured_is_a_problem_not_a_zero() {
        // Missing, zero or non-finite end-to-end values.
        let (metrics, problems) = collect(
            &END_TO_END,
            &[
                (OPS_PER_S, 5.0),
                (LATENCY_P50, 0.0),
                (LATENCY_P90, f64::NAN),
            ],
            &[],
        );
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(problems.len(), 4, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains(MEM_PEAK)));
        assert!(problems.iter().any(|p| p.contains(SETUP_S)));

        // Per layer: idle layers read 0, a count may be 0, a mistyped name
        // and an unmeasured metric are problems.
        let every_layer = ["atoms.", "engine.", "loops.", "blackholes.", "monitor."];
        let other_layers = [
            "shard.",
            "persist.",
            "query.",
            "multifield.",
            "workloads.",
            "harness.",
        ];
        let idle: Vec<&str> = every_layer.into_iter().chain(other_layers).collect();
        let service: Vec<(&str, f64)> = PER_LAYER
            .iter()
            .filter(|d| d.name.starts_with("service.") && d.name != "service.events")
            .map(|d| (d.name, 0.0))
            .collect();
        let (metrics, problems) = collect(&PER_LAYER, &service, &idle);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(problems, vec!["`service.events` was not measured"]);
        let (_, problems) = collect(&PER_LAYER, &[("service.evnts", 3.0)], &["service."]);
        assert!(problems[0].contains("service.evnts"), "{problems:?}");
        let (_, problems) = collect(&PER_LAYER, &[("service.gaps", 0.0)], &["service."]);
        assert!(problems.iter().any(|p| p.contains("listed as idle")));
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(number(1.5), "1.5");
    }

    /// `BENCHMARK.json` is what the driver reads: it must declare exactly
    /// the workloads, metrics, units, directions, bounds and run length this
    /// binary works with.
    #[test]
    fn benchmark_json_declares_what_this_binary_does() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(file.len() <= 64 * 1024);
        assert!(file.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        for workload in Workload::ALL {
            assert!(
                file.contains(&format!("{{\"name\": \"{}\", \"why\": \"", workload.name())),
                "{}",
                workload.name()
            );
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
                d.name, d.unit
            );
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(file.matches("{\"name\": ").count(), declared);
    }
}
