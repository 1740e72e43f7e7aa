//! Additional randomized property tests, each run over [`CASES`] seeded
//! cases: the Veriflow-RI baseline against the brute-force oracle,
//! blackhole detection against exhaustive tracing, and the atom-set bitset
//! against a `BTreeSet` model.

mod support;

use delta_net::prelude::*;
use deltanet::atomset::AtomSet;
use deltanet::AtomId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::ops::Range;
use support::{
    config, random_vec, ring, run, spec_rules, Oracle, Shape, Spec, Stream, END, LOOPS, MONITOR,
};

/// Cases per property.
const CASES: u64 = 256;

/// `len` rule specs `(prefix, priority, switch index, link index)` over an
/// 8-bit space, 4 switches and up to 2 out-links.
fn random_specs(rng: &mut StdRng, len: Range<usize>) -> Vec<Spec> {
    random_vec(rng, len, |rng| {
        let prefix = IpPrefix::new(rng.gen_range(0..=255), rng.gen_range(0..=8), 8);
        (
            prefix,
            rng.gen_range(1..1000),
            rng.gen_range(0..4),
            rng.gen_range(0..2),
        )
    })
}

/// The atom-set bitset behaves exactly like a `BTreeSet<u32>` model for
/// insert/remove/union/intersection/difference/subset queries.
#[test]
fn atomset_matches_btreeset_model() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xa7e5 ^ case);
        let a = random_vec(&mut rng, 0..60, |rng| rng.gen_range(0u32..500));
        let b = random_vec(&mut rng, 0..60, |rng| rng.gen_range(0u32..500));
        let removals = random_vec(&mut rng, 0..20, |rng| rng.gen_range(0u32..500));
        let set_a: AtomSet = a.iter().map(|&x| AtomId(x)).collect();
        let set_b: AtomSet = b.iter().map(|&x| AtomId(x)).collect();
        let mut model_a: BTreeSet<u32> = a.iter().copied().collect();
        let model_b: BTreeSet<u32> = b.iter().copied().collect();

        assert_eq!(set_a.len(), model_a.len(), "case {case}");
        let union: Vec<u32> = set_a.union(&set_b).iter().map(|x| x.0).collect();
        let model_union: Vec<u32> = model_a.union(&model_b).copied().collect();
        assert_eq!(union, model_union, "case {case}");
        let inter: Vec<u32> = set_a.intersection(&set_b).iter().map(|x| x.0).collect();
        let model_inter: Vec<u32> = model_a.intersection(&model_b).copied().collect();
        assert_eq!(inter, model_inter, "case {case}");
        let diff: Vec<u32> = set_a.difference(&set_b).iter().map(|x| x.0).collect();
        let model_diff: Vec<u32> = model_a.difference(&model_b).copied().collect();
        assert_eq!(diff, model_diff, "case {case}");
        assert_eq!(
            set_a.intersects(&set_b),
            !model_inter_is_empty(&model_a, &model_b),
            "case {case}"
        );
        assert_eq!(set_a.is_subset_of(&set_b), model_a.is_subset(&model_b));

        // Removals keep the two in sync.
        let mut set_a = set_a;
        for r in removals {
            assert_eq!(set_a.remove(AtomId(r)), model_a.remove(&r), "case {case}");
        }
        let final_a: Vec<u32> = set_a.iter().map(|x| x.0).collect();
        let model_final: Vec<u32> = model_a.iter().copied().collect();
        assert_eq!(final_a, model_final, "case {case}");
    }
}

/// Veriflow-RI's per-update loop verdicts are sound: whenever it reports
/// a loop, exhaustively tracing every address through the reference FIB
/// finds one; whenever the FIB has a loop involving the updated prefix,
/// Veriflow-RI reports it on that update ([`Oracle::Veriflow`], which also
/// holds Delta-net's verdicts to Veriflow-RI's).
#[test]
fn veriflow_loop_reports_match_oracle() {
    for case in 0..CASES {
        let seed = 0x5f10 ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = random_specs(&mut rng, 1..20);
        let (mut topo, nodes) = ring(4);
        for &n in &nodes {
            topo.drop_link(n);
        }
        let ops = Stream::Ops(spec_rules(&topo, &nodes, specs, |&l| !topo.is_drop_link(l)));
        let shape = Shape::new(0, config(LOOPS, None, &[]));
        let case = format!("seed {seed:#x}");
        run(&case, &topo, ops, &shape, &[(Oracle::Veriflow, END)]);
    }
}

/// Blackhole detection agrees with exhaustive tracing: a switch is
/// reported iff some address arriving over an in-link dies there — on the
/// plain engine, and on a monitored 2-shard one (its monitor too).
#[test]
fn blackhole_detection_matches_exhaustive_tracing() {
    let shapes = [
        Shape::new(0, config(0, None, &[])),
        Shape::new(2, config(MONITOR, None, &[])),
    ];
    for case in 0..CASES {
        let seed = 0xb1ac ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = random_specs(&mut rng, 1..15);
        let (topo, nodes) = ring(4);
        let ops = spec_rules(&topo, &nodes, specs, |_| true);
        for shape in &shapes {
            let (case, ops) = (format!("seed {seed:#x}"), Stream::Ops(ops.clone()));
            run(&case, &topo, ops, shape, &[(Oracle::Blackholes, END)]);
        }
    }
}

fn model_inter_is_empty(a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> bool {
    a.intersection(b).next().is_none()
}
