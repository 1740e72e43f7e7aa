//! `acl-multifield`: the only workload on which the multi-field code runs.
//! A monitored dst × src engine (8-bit source axis, auto-compaction at 256
//! reclaimable bounds) takes an ACL trace on an 8-switch ring — forwarding
//! rules per prefix overlaid with source-constrained denies, then every
//! rule removed — one op at a time. No rescan happens inside the measured
//! section: the monitor's incremental repair is what is timed. One latency
//! sample = a block of 16 consecutive ops (~4 ms) divided by 16.
//!
//! The rules of the first few prefixes are the pass's preload. Generating
//! the trace alone takes a third of a millisecond, of which page faults on
//! fresh heap are half in some processes and nothing in others; a set-up
//! that small cannot be told apart from its own noise.

use crate::engine_api::{self as api, Segment};
use crate::harness::{derive_seed, probe, timed, us_between, MainSummary, PassCtx, PassResult};
use std::time::Instant;

/// No per-op engine probes, shards, log, daemon or query here.
pub const IDLE_LAYERS: &[&str] = &[
    "atoms.create_us_per_op",
    "engine.insert_us_per_op",
    "engine.remove_us_per_op",
    "engine.update_us_p99",
    "engine.update_us_p999",
    "engine.update_us_max",
    "engine.compact_ms",
    "engine.affected_classes_max",
    "loops.check_us_per_op",
    "loops.ops_with_loops",
    "shard.",
    "persist.",
    "service.",
    "query.",
];

/// Ops per latency sample. About one op in nine costs several times the
/// rest, so the 90th percentile of single ops sits on the cliff between the
/// two populations and moves by a quarter from seed to seed (434–548 µs over
/// seeds 1–6 in sizing); the per-op time of 16 consecutive ops does not.
/// The measured ops of the full trace are a whole number of blocks.
const BLOCK: usize = 16;

/// `(prefixes, preloaded prefixes)`. Each prefix yields 15 forwarding rules
/// and 2 denies, inserted and later removed: 144 prefixes are 4 896 ops, of
/// which the first 32 prefixes' 544 inserts are preload.
const FULL: (usize, usize) = (144, 32);
const QUICK: (usize, usize) = (8, 2);

pub fn inputs(seed: u64, quick: bool) -> Segment {
    let (prefixes, _) = if quick { QUICK } else { FULL };
    api::gen_acl(derive_seed(seed, 50), prefixes)
}

fn insert_count(segment: &Segment) -> usize {
    segment
        .ops()
        .iter()
        .filter(|op| matches!(op, api::Op::Insert(_)))
        .count()
}

fn acl_pass(ctx: &mut PassCtx, monitored: bool) -> PassResult {
    let start = Instant::now();
    ctx.tracer.enter("harness.setup");
    ctx.tracer.enter("workloads.generate");
    let (segment, generate_s) = timed(|| inputs(ctx.seed, ctx.quick));
    ctx.tracer.exit();
    ctx.tracer.enter("multifield.preload");
    let mut net = api::build_acl(&segment.topology, monitored);
    let (prefixes, preloaded) = if ctx.quick { QUICK } else { FULL };
    let inserts = insert_count(&segment);
    let (preload, measured) = segment.ops().split_at(inserts * preloaded / prefixes);
    let mut failed = 0u64;
    let (_, preload_s) = timed(|| {
        for op in preload {
            failed += u64::from(api::apply(&mut net, op).is_none());
        }
    });
    ctx.tracer.exit();
    ctx.tracer.exit();
    let setup_s = start.elapsed().as_secs_f64();

    let mut samples_us = Vec::with_capacity(measured.len() / BLOCK + 1);
    let (mut transitions, mut secondary_atoms_peak) = (0u64, 0usize);
    let mut applied_ops = preload.len();
    ctx.tracer.enter("harness.measured");
    let section = Instant::now();
    for block in measured.chunks(BLOCK) {
        let start = Instant::now();
        for op in block {
            failed += u64::from(api::apply(&mut net, op).is_none());
            transitions += api::last_transitions(&net) as u64;
            applied_ops += 1;
            if applied_ops == inserts {
                secondary_atoms_peak = api::secondary_atoms(&net);
            }
        }
        let end = Instant::now();
        samples_us.push(us_between(start, end));
        ctx.tracer.record("multifield.apply_block", start, end);
    }
    let measured_s = section.elapsed().as_secs_f64();
    ctx.tracer.exit();

    let plane = api::plane_stats(&net);
    PassResult {
        setup_s,
        generate_s,
        preload_s,
        measured_s,
        attempted: measured.len() as u64,
        failed,
        samples_us,
        sample_ops: BLOCK as f64,
        counts: vec![
            ("ops", segment.ops().len() as u64),
            ("final_atoms", plane.atoms as u64),
            ("final_rules", plane.rules as u64),
            ("secondary_atoms_peak", secondary_atoms_peak as u64),
            ("transitions", transitions),
            ("violations", plane.active_violations.unwrap_or(0) as u64),
            ("compactions", plane.compactions as u64),
        ],
        layer: vec![
            ("atoms.final_count", plane.atoms as f64),
            ("atoms.allocated", plane.allocated_atoms as f64),
            ("engine.live_mb", plane.live_bytes as f64 / 1e6),
            ("engine.compactions", plane.compactions as f64),
            (
                "monitor.active_violations",
                plane.active_violations.unwrap_or(0) as f64,
            ),
            ("monitor.transitions", transitions as f64),
            ("multifield.secondary_atoms", secondary_atoms_peak as f64),
            ("multifield.transitions", transitions as f64),
        ],
    }
}

pub fn pass(ctx: &mut PassCtx) -> PassResult {
    acl_pass(ctx, true)
}

/// The monitor's live state equals the two full cross-field scans, both
/// at the plane's fullest (every rule inserted) and at the end.
pub fn oracle(ctx: &mut PassCtx) -> Vec<String> {
    let mut problems = Vec::new();
    let segment = inputs(ctx.seed, ctx.quick);
    let mut net = api::build_acl(&segment.topology, true);
    let inserts = insert_count(&segment);
    for (i, op) in segment.ops().iter().enumerate() {
        if api::apply(&mut net, op).is_none() {
            problems.push(format!("op {i} refused"));
            return problems;
        }
        if (i + 1 == inserts || i + 1 == segment.ops().len()) && !api::monitor_matches_scans(&net) {
            problems.push(format!(
                "after op {i}: monitor state differs from the full scans"
            ));
        }
    }
    problems
}

pub fn probes(ctx: &mut PassCtx, main: &MainSummary, repeats: usize) -> Vec<(&'static str, f64)> {
    let unmonitored_us = probe(repeats, || acl_pass(ctx, false)).us_per_op();

    // The full cross-field scans the monitor replaces, on the plane at
    // its fullest: every rule inserted, none removed yet.
    let segment = inputs(ctx.seed, ctx.quick);
    let mut net = api::build_acl(&segment.topology, false);
    for op in segment
        .ops()
        .iter()
        .filter(|op| matches!(op, api::Op::Insert(_)))
    {
        api::apply(&mut net, op);
    }
    let loops_scan_ms = timed(|| api::scan_loops(&net).len()).1 * 1e3;
    let holes_scan_ms = timed(|| api::scan_blackholes(&net).len()).1 * 1e3;
    vec![
        ("multifield.apply_us_per_op_unmonitored", unmonitored_us),
        (
            "multifield.repair_us_per_op",
            main.us_per_op() - unmonitored_us,
        ),
        ("multifield.op_us_p99", main.latency_us_p99),
        ("engine.update_us_per_op", unmonitored_us),
        (
            "monitor.repair_us_per_op",
            main.us_per_op() - unmonitored_us,
        ),
        ("loops.full_scan_ms", loops_scan_ms),
        ("blackholes.full_scan_ms", holes_scan_ms),
    ]
}
