//! `rib-replay`: the paper's Table 3 path. One plain engine per segment at
//! the default configuration (per-update loop check on), per-op apply over
//! Airtel-2-class pair-failure churn, 4Switch insert-only rounds, and a
//! Berkeley-class plane inserted then removed.
//!
//! A µs-scale sample is timer granularity, not the program, so the latency
//! sample is a block of 64 consecutive ops (~80 µs) divided by 64. The last
//! block of a segment may be shorter and is divided by 64 all the same: at
//! most three of ~13 000 samples read low, far from the median and the 90th
//! percentile.

use crate::engine_api::{self as api, Segment};
use crate::harness::{
    derive_seed, fastest, probe, timed, us_between, MainSummary, PassCtx, PassResult,
};
use crate::stats;
use std::time::Instant;

/// No monitor, shards, log, daemon, query or secondary field here.
pub const IDLE_LAYERS: &[&str] = &[
    "monitor.",
    "shard.",
    "persist.",
    "service.",
    "query.",
    "multifield.",
];

/// Ops per latency sample.
const BLOCK: usize = 64;
/// How many leading ops of each segment the oracle replays through the
/// reference checker as well.
const ORACLE_OPS: usize = 20_000;

struct Sizes {
    airtel_prefixes_per_router: usize,
    airtel_pairs: usize,
    four_switch_prefixes: usize,
    four_switch_rounds: usize,
    campus_prefixes: usize,
}

/// ~0.7 M ops of churn + ~63 k inserts growing ~29 k atoms + ~76 k
/// insert-then-remove ops: about 1.1 s of apply on the sizing box.
const FULL: Sizes = Sizes {
    airtel_prefixes_per_router: 100,
    airtel_pairs: 50,
    four_switch_prefixes: 1_000,
    four_switch_rounds: 4,
    campus_prefixes: 1_740,
};

const QUICK: Sizes = Sizes {
    airtel_prefixes_per_router: 4,
    airtel_pairs: 2,
    four_switch_prefixes: 40,
    four_switch_rounds: 1,
    campus_prefixes: 20,
};

pub fn inputs(seed: u64, quick: bool) -> Vec<Segment> {
    let s = if quick { QUICK } else { FULL };
    vec![
        api::gen_airtel_pairs(
            derive_seed(seed, 10),
            s.airtel_prefixes_per_router,
            s.airtel_pairs,
        ),
        api::gen_four_switch(
            derive_seed(seed, 11),
            s.four_switch_prefixes,
            s.four_switch_rounds,
        ),
        api::gen_campus(derive_seed(seed, 12), s.campus_prefixes, true),
    ]
}

/// Generates the inputs and builds one empty engine per segment.
fn set_up(ctx: &mut PassCtx, check_loops: bool) -> (Vec<Segment>, Vec<api::PlainNet>, f64, f64) {
    let start = Instant::now();
    ctx.tracer.enter("harness.setup");
    ctx.tracer.enter("workloads.generate");
    let (segments, generate_s) = timed(|| inputs(ctx.seed, ctx.quick));
    ctx.tracer.exit();
    ctx.tracer.enter("engine.build");
    let nets = segments
        .iter()
        .map(|s| api::build_plain(&s.topology, check_loops))
        .collect();
    ctx.tracer.exit();
    ctx.tracer.exit();
    (segments, nets, generate_s, start.elapsed().as_secs_f64())
}

/// The measured section: every segment's ops in blocks of [`BLOCK`].
fn replay_in_blocks(ctx: &mut PassCtx, check_loops: bool) -> PassResult {
    let (segments, mut nets, generate_s, setup_s) = set_up(ctx, check_loops);
    let total: usize = segments.iter().map(|s| s.ops().len()).sum();
    let mut samples_us = Vec::with_capacity(total / BLOCK + segments.len());
    let (mut failed, mut with_loops, mut affected_max) = (0u64, 0u64, 0usize);

    ctx.tracer.enter("harness.measured");
    let section = Instant::now();
    for (segment, net) in segments.iter().zip(&mut nets) {
        for block in segment.ops().chunks(BLOCK) {
            let start = Instant::now();
            for op in block {
                match api::apply(net, op) {
                    Some(report) => {
                        with_loops += u64::from(report.has_loop());
                        affected_max = affected_max.max(report.affected_classes);
                    }
                    None => failed += 1,
                }
            }
            let end = Instant::now();
            samples_us.push(us_between(start, end));
            ctx.tracer.record("engine.apply_block", start, end);
        }
    }
    let measured_s = section.elapsed().as_secs_f64();
    ctx.tracer.exit();

    let planes: Vec<api::PlaneStats> = nets.iter().map(api::plane_stats).collect();
    let atoms: usize = planes.iter().map(|p| p.atoms).sum();
    let allocated: usize = planes.iter().map(|p| p.allocated_atoms).sum();
    let live_bytes: usize = planes.iter().map(|p| p.live_bytes).sum();
    let rules: usize = planes.iter().map(|p| p.rules).sum();
    PassResult {
        setup_s,
        generate_s,
        preload_s: 0.0,
        measured_s,
        attempted: total as u64,
        failed,
        samples_us,
        sample_ops: BLOCK as f64,
        counts: vec![
            ("ops", total as u64),
            ("ops_with_loops", with_loops),
            ("final_atoms", atoms as u64),
            ("final_rules", rules as u64),
            ("affected_classes_max", affected_max as u64),
        ],
        layer: vec![
            ("atoms.final_count", atoms as f64),
            ("atoms.allocated", allocated as f64),
            ("engine.live_mb", live_bytes as f64 / 1e6),
            ("engine.affected_classes_max", affected_max as f64),
            ("loops.ops_with_loops", with_loops as f64),
        ],
    }
}

pub fn pass(ctx: &mut PassCtx) -> PassResult {
    replay_in_blocks(ctx, true)
}

/// The leading ops of every segment through the reference checker too,
/// up to the first equal-priority tie (see `engine_api::TieWatch`). The
/// relation is the one the repo's differential suite pins: a loop the
/// engine reports on an update must also be seen by the reference
/// (which may additionally re-report an older loop its affected range
/// overlaps), both accept every op, and both hold the same rule count.
pub fn oracle(ctx: &mut PassCtx) -> Vec<String> {
    let mut problems = Vec::new();
    for segment in inputs(ctx.seed, ctx.quick) {
        let mut net = api::build_plain(&segment.topology, true);
        let mut reference = api::build_reference(&segment.topology, true);
        let mut ties = api::TieWatch::default();
        for (i, op) in segment.ops().iter().take(ORACLE_OPS).enumerate() {
            if ties.ties(op) {
                break;
            }
            let (Some(ours), Some(theirs)) = (
                api::apply(&mut net, op),
                api::reference_apply(&mut reference, op),
            ) else {
                problems.push(format!("{} op {i}: refused", segment.name));
                break;
            };
            if ours.has_loop() && !theirs.has_loop() {
                problems.push(format!(
                    "{} op {i}: engine reports a loop the reference does not",
                    segment.name
                ));
                break;
            }
        }
        let rules = api::plane_stats(&net).rules;
        if rules != api::reference_rule_count(&reference) {
            problems.push(format!(
                "{}: {rules} rules installed, reference holds {}",
                segment.name,
                api::reference_rule_count(&reference)
            ));
        }
    }
    problems
}

pub fn probes(ctx: &mut PassCtx, main: &MainSummary, repeats: usize) -> Vec<(&'static str, f64)> {
    // The same section with the per-update loop check off: what is left
    // is atoms + owner + labels + delta-graph.
    let update_us = probe(repeats, || replay_in_blocks(ctx, false)).us_per_op();

    // Per-op clock reads (too fine for an end-to-end latency, fine for a
    // tail): insert / remove split, p99 / p99.9 / max, and the full
    // scans and a compaction on the churned Airtel plane.
    let (segments, mut nets, _, _) = set_up(ctx, false);
    let (mut insert_us, mut remove_us) = (Vec::new(), Vec::new());
    let (mut loops_scan_ms, mut holes_scan_ms, mut compact_ms) = (0.0, 0.0, 0.0);
    let mut compactions = 0;
    for (i, (segment, net)) in segments.iter().zip(&mut nets).enumerate() {
        for op in segment.ops() {
            let start = Instant::now();
            let applied = api::apply(net, op);
            let us = us_between(start, Instant::now());
            std::hint::black_box(applied);
            match op {
                api::Op::Insert(_) => insert_us.push(us),
                api::Op::Remove(_) => remove_us.push(us),
            }
        }
        if i == 0 {
            loops_scan_ms = timed(|| api::scan_loops(net).len()).1 * 1e3;
            holes_scan_ms = timed(|| api::scan_blackholes(net).len()).1 * 1e3;
            compact_ms = timed(|| api::compact(net)).1 * 1e3;
            compactions = api::plane_stats(net).compactions;
        }
    }
    let all_us = stats::sorted(insert_us.iter().chain(&remove_us).copied().collect());

    // Atom splitting alone, over the same inserts.
    let create_us = fastest(repeats, || {
        let ((inserts, _), seconds) = timed(|| {
            segments.iter().fold((0, 0), |(n, a), s| {
                let (inserts, atoms) = api::split_atoms(s.ops());
                (n + inserts, a + atoms)
            })
        });
        seconds * 1e6 / inserts.max(1) as f64
    });

    vec![
        ("atoms.create_us_per_op", create_us),
        ("engine.update_us_per_op", update_us),
        ("engine.insert_us_per_op", stats::mean(&insert_us)),
        ("engine.remove_us_per_op", stats::mean(&remove_us)),
        ("engine.update_us_p99", stats::percentile(&all_us, 99.0)),
        ("engine.update_us_p999", stats::percentile(&all_us, 99.9)),
        ("engine.update_us_max", stats::percentile(&all_us, 100.0)),
        ("engine.compact_ms", compact_ms),
        ("engine.compactions", compactions as f64),
        ("loops.check_us_per_op", main.us_per_op() - update_us),
        ("loops.full_scan_ms", loops_scan_ms),
        ("blackholes.full_scan_ms", holes_scan_ms),
    ]
}
