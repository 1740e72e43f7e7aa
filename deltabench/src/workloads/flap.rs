//! `flap-window`: the write path as a controller with group commit uses it.
//! 128-op windows through `LoggedNet` over a 2-shard engine with the
//! violation monitor on, `FsyncPerBatch` onto the in-memory backend (real
//! disk timing is the host's, not the program's; the backend's sync and
//! byte counters are exact). The stable plane is the pass's preload; the
//! flap cycles are the measured section. One latency sample = one window.
//!
//! The probes of a traced run peel the layers off one at a time —
//! 1 shard bare → + monitor → 2 shards → + log — so the four differences
//! add up to the main run's window time by construction.

use crate::engine_api::{self as api, Segment, WindowedShape};
use crate::harness::{derive_seed, probe, timed, us_between, MainSummary, PassCtx, PassResult};
use std::time::Instant;

/// No per-op probes, full scans, daemon, query or secondary field here.
pub const IDLE_LAYERS: &[&str] = &[
    "atoms.create_us_per_op",
    "engine.insert_us_per_op",
    "engine.remove_us_per_op",
    "engine.update_us_p99",
    "engine.update_us_p999",
    "engine.update_us_max",
    "engine.compact_ms",
    "engine.affected_classes_max",
    "loops.",
    "blackholes.",
    "service.",
    "query.",
    "multifield.",
];

const WINDOW: usize = 128;

/// The shape under test: everything mounted.
const MAIN: WindowedShape = WindowedShape {
    shards: 2,
    monitor: true,
    logged: true,
};

/// `(stable prefixes, flapping prefixes, cycles)`: ~231 k ops, of which the
/// first ~6 k install the stable plane.
const FULL: (usize, usize, usize) = (400, 150, 50);
const QUICK: (usize, usize, usize) = (40, 15, 5);

pub fn inputs(seed: u64, quick: bool) -> (Segment, usize) {
    let (stable, flapping, cycles) = if quick { QUICK } else { FULL };
    api::gen_flapping(derive_seed(seed, 20), stable, flapping, cycles)
}

struct WindowedPass {
    result: PassResult,
    net: api::WindowedNet,
    /// Ops and windows applied, preload included.
    ops: u64,
    windows: u64,
}

fn windowed_pass(ctx: &mut PassCtx, shape: WindowedShape) -> WindowedPass {
    // Spans carry the name of the outermost layer the call enters.
    let (preload_span, window_span) = if shape.logged {
        ("persist.preload", "persist.apply_window")
    } else {
        ("shard.preload", "shard.apply_window")
    };
    let start = Instant::now();
    ctx.tracer.enter("harness.setup");
    ctx.tracer.enter("workloads.generate");
    let ((segment, stable_ops), generate_s) = timed(|| inputs(ctx.seed, ctx.quick));
    ctx.tracer.exit();
    ctx.tracer.enter("engine.build");
    let mut net = api::build_windowed(&segment.topology, shape);
    ctx.tracer.exit();
    let (stable, flaps) = segment.ops().split_at(stable_ops);
    let mut failed = 0u64;
    let mut windows = 0u64;
    ctx.tracer.enter(preload_span);
    let (_, preload_s) = timed(|| {
        for window in stable.chunks(WINDOW) {
            windows += 1;
            if api::apply_window(&mut net, window).is_none() {
                failed += window.len() as u64;
            }
        }
    });
    ctx.tracer.exit();
    ctx.tracer.exit();
    let setup_s = start.elapsed().as_secs_f64();

    let mut samples_us = Vec::with_capacity(flaps.len() / WINDOW + 1);
    ctx.tracer.enter("harness.measured");
    let section = Instant::now();
    for window in flaps.chunks(WINDOW) {
        let start = Instant::now();
        let applied = api::apply_window(&mut net, window);
        let end = Instant::now();
        samples_us.push(us_between(start, end));
        ctx.tracer.record(window_span, start, end);
        windows += 1;
        if applied.is_none_or(|reports| reports.len() != window.len()) {
            failed += window.len() as u64;
        }
    }
    let measured_s = section.elapsed().as_secs_f64();
    ctx.tracer.exit();

    let plane = net.plane_stats();
    let log = net.log_stats().unwrap_or_default();
    let ops = segment.ops().len() as u64;
    let result = PassResult {
        setup_s,
        generate_s,
        preload_s,
        measured_s,
        attempted: flaps.len() as u64,
        failed,
        samples_us,
        sample_ops: 1.0,
        counts: vec![
            ("ops", ops),
            ("windows", windows),
            ("final_atoms", plane.atoms as u64),
            ("final_rules", plane.rules as u64),
            ("violations", plane.active_violations.unwrap_or(0) as u64),
            ("transitions", net.transitions()),
            ("log_bytes", log.bytes),
            ("log_syncs", log.syncs),
        ],
        layer: vec![
            ("atoms.final_count", plane.atoms as f64),
            ("atoms.allocated", plane.allocated_atoms as f64),
            ("engine.live_mb", plane.live_bytes as f64 / 1e6),
            ("engine.compactions", plane.compactions as f64),
            ("monitor.transitions", net.transitions() as f64),
            (
                "monitor.active_violations",
                plane.active_violations.unwrap_or(0) as f64,
            ),
            ("shard.rule_skew_pct", net.rule_skew_pct()),
            ("persist.bytes_per_op", log.bytes as f64 / ops.max(1) as f64),
            ("persist.syncs", log.syncs as f64),
        ],
    };
    WindowedPass {
        result,
        net,
        ops,
        windows,
    }
}

/// Median window time, in µs, of `repeats` passes in `shape`.
fn probe_window_us(ctx: &mut PassCtx, shape: WindowedShape, repeats: usize) -> f64 {
    probe(repeats, || windowed_pass(ctx, shape).result).latency_us_p50
}

pub fn pass(ctx: &mut PassCtx) -> PassResult {
    windowed_pass(ctx, MAIN).result
}

/// The monitor's live state equals the two full scans; the log holds
/// exactly one record per op and was fsynced exactly once per window.
pub fn oracle(ctx: &mut PassCtx) -> Vec<String> {
    let mut problems = Vec::new();
    let WindowedPass {
        net, ops, windows, ..
    } = windowed_pass(ctx, MAIN);
    if !net.monitor_matches_scans() {
        problems.push("monitor state differs from the full loop + blackhole scans".into());
    }
    let (records, syncs) = (net.log_records(), net.log_stats().map(|log| log.syncs));
    if records != Some(ops as usize) || syncs != Some(windows) {
        problems.push(format!(
            "log holds {records:?} records after {syncs:?} syncs, expected {ops} and {windows}"
        ));
    }
    problems
}

pub fn probes(ctx: &mut PassCtx, main: &MainSummary, repeats: usize) -> Vec<(&'static str, f64)> {
    let shape = |shards, monitor| WindowedShape {
        shards,
        monitor,
        logged: false,
    };
    let bare_1 = probe_window_us(ctx, shape(1, false), repeats);
    let monitored_1 = probe_window_us(ctx, shape(1, true), repeats);
    let monitored_2 = probe_window_us(ctx, shape(2, true), repeats);
    let per_op = WINDOW as f64;
    vec![
        ("engine.update_us_per_op", bare_1 / per_op),
        ("monitor.repair_us_per_op", (monitored_1 - bare_1) / per_op),
        ("shard.window_us_p50_1shard", monitored_1),
        ("shard.window_us_p50_2shard", monitored_2),
        ("shard.overhead_ratio", monitored_2 / monitored_1),
        (
            "persist.log_us_per_op",
            (main.latency_us_p50 - monitored_2) / per_op,
        ),
    ]
}
