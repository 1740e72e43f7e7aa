//! `whatif-scan`: the paper's second headline (Table 4), read-only. A
//! Berkeley-class plane of ~38 k rules is loaded once per pass (the pass's
//! preload), then the link-failure what-if query with loop checks runs over
//! every link some packet uses, ten rounds. One latency sample = one query.
//!
//! This is the reads-beside-writes guard: the atom map and edge labels that
//! `rib-replay` writes are what these queries scan.

use crate::engine_api::{self as api, Segment};
use crate::harness::{derive_seed, timed, us_between, MainSummary, PassCtx, PassResult};
use std::time::Instant;

/// No per-op probes, monitor, shards, log, daemon or secondary field here.
pub const IDLE_LAYERS: &[&str] = &[
    "atoms.create_us_per_op",
    "engine.insert_us_per_op",
    "engine.remove_us_per_op",
    "engine.update_us_p99",
    "engine.update_us_p999",
    "engine.update_us_max",
    "engine.compact_ms",
    "engine.compactions",
    "engine.affected_classes_max",
    "loops.check_us_per_op",
    "loops.ops_with_loops",
    "monitor.",
    "shard.",
    "persist.",
    "service.",
    "multifield.",
];

/// Links the oracle also asks the reference checker about.
const ORACLE_LINKS: usize = 8;

/// `(prefixes, rounds)`: 1 740 prefixes on 23 switches ≈ 38 k rules.
const FULL: (usize, usize) = (1_740, 10);
const QUICK: (usize, usize) = (20, 1);

pub fn inputs(seed: u64, quick: bool) -> Segment {
    let (prefixes, _) = if quick { QUICK } else { FULL };
    api::gen_campus(derive_seed(seed, 40), prefixes, false)
}

struct Loaded {
    segment: Segment,
    net: api::PlainNet,
    failed: u64,
    generate_s: f64,
    preload_s: f64,
    setup_s: f64,
}

/// Generates the plane and loads it with the per-update loop check off (the
/// queries do their own checking).
fn load(ctx: &mut PassCtx) -> Loaded {
    let start = Instant::now();
    ctx.tracer.enter("harness.setup");
    ctx.tracer.enter("workloads.generate");
    let (segment, generate_s) = timed(|| inputs(ctx.seed, ctx.quick));
    ctx.tracer.exit();
    ctx.tracer.enter("engine.preload");
    let mut net = api::build_plain(&segment.topology, false);
    let mut failed = 0u64;
    let (_, preload_s) = timed(|| {
        for op in segment.ops() {
            failed += u64::from(api::apply(&mut net, op).is_none());
        }
    });
    ctx.tracer.exit();
    ctx.tracer.exit();
    Loaded {
        segment,
        net,
        failed,
        generate_s,
        preload_s,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

pub fn pass(ctx: &mut PassCtx) -> PassResult {
    let (_, rounds) = if ctx.quick { QUICK } else { FULL };
    let loaded = load(ctx);
    let links = api::loaded_links(&loaded.net);
    let queries = links.len() * rounds;
    let mut samples_us = Vec::with_capacity(queries);
    let (mut affected_atoms, mut affected_links, mut violations) = (0u64, 0u64, 0u64);

    ctx.tracer.enter("harness.measured");
    let section = Instant::now();
    for _ in 0..rounds {
        for &link in &links {
            let start = Instant::now();
            let report = api::whatif(&loaded.net, link);
            let end = Instant::now();
            samples_us.push(us_between(start, end));
            ctx.tracer.record("query.whatif", start, end);
            affected_atoms += report.affected_classes as u64;
            affected_links += report.affected_links.len() as u64;
            violations += report.violations.len() as u64;
        }
    }
    let measured_s = section.elapsed().as_secs_f64();
    ctx.tracer.exit();

    let plane = api::plane_stats(&loaded.net);
    let rules = loaded.segment.ops().len();
    PassResult {
        setup_s: loaded.setup_s,
        generate_s: loaded.generate_s,
        preload_s: loaded.preload_s,
        measured_s,
        attempted: queries as u64,
        failed: loaded.failed,
        samples_us,
        sample_ops: 1.0,
        counts: vec![
            ("queries", queries as u64),
            ("rules", plane.rules as u64),
            ("atoms", plane.atoms as u64),
            ("affected_atoms", affected_atoms),
            ("affected_links", affected_links),
            ("violations", violations),
        ],
        layer: vec![
            ("atoms.final_count", plane.atoms as f64),
            ("atoms.allocated", plane.allocated_atoms as f64),
            ("engine.live_mb", plane.live_bytes as f64 / 1e6),
            (
                "engine.update_us_per_op",
                loaded.preload_s * 1e6 / rules.max(1) as f64,
            ),
            (
                "query.affected_atoms_mean",
                affected_atoms as f64 / queries.max(1) as f64,
            ),
        ],
    }
}

/// On a sample of links spread over the used ones, the engine's answer
/// stands in the relation to the reference checker's that the repo's
/// differential suite pins (see `engine_api::whatif_agrees`).
pub fn oracle(ctx: &mut PassCtx) -> Vec<String> {
    let loaded = load(ctx);
    let mut reference = api::build_reference(&loaded.segment.topology, false);
    let mut problems = Vec::new();
    if loaded.failed > 0 {
        problems.push(format!("{} rules refused while loading", loaded.failed));
    }
    for op in loaded.segment.ops() {
        if api::reference_apply(&mut reference, op).is_none() {
            problems.push("reference checker refused a rule".into());
            return problems;
        }
    }
    let links = api::loaded_links(&loaded.net);
    let step = (links.len() / ORACLE_LINKS).max(1);
    for &link in links.iter().step_by(step).take(ORACLE_LINKS) {
        let ours = api::whatif(&loaded.net, link);
        let theirs = api::reference_whatif(&reference, link);
        if !api::whatif_agrees(&ours, &theirs) {
            problems.push(format!("what-if on {link:?} disagrees with the reference"));
        }
    }
    problems
}

pub fn probes(ctx: &mut PassCtx, main: &MainSummary) -> Vec<(&'static str, f64)> {
    let loaded = load(ctx);
    let loops_scan_ms = timed(|| api::scan_loops(&loaded.net).len()).1 * 1e3;
    let holes_scan_ms = timed(|| api::scan_blackholes(&loaded.net).len()).1 * 1e3;
    vec![
        ("query.whatif_us_p99", main.latency_us_p99),
        ("query.whatif_us_max", main.latency_us_max),
        ("loops.full_scan_ms", loops_scan_ms),
        ("blackholes.full_scan_ms", holes_scan_ms),
    ]
}
