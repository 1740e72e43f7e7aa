//! The five workloads. Each stresses a different set of layers, so that for
//! every optimisation one workload exercises its mechanism and the others
//! predict no change; `BENCHMARK.json` records why each was chosen.
//!
//! Sizes are constants here, chosen so that one measured section takes
//! 1.0–1.5 s on the 2-vCPU box the benchmark was sized on.

mod acl;
mod daemon;
mod flap;
mod rib;
mod whatif;

use crate::harness::{MainSummary, PassCtx, PassResult};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RibReplay,
    FlapWindow,
    DaemonStream,
    WhatifScan,
    AclMultifield,
}

use Workload::*;

impl Workload {
    /// In the order `BENCHMARK.json` declares them.
    pub const ALL: [Workload; 5] = [
        RibReplay,
        FlapWindow,
        DaemonStream,
        WhatifScan,
        AclMultifield,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RibReplay => "rib-replay",
            FlapWindow => "flap-window",
            DaemonStream => "daemon-stream",
            WhatifScan => "whatif-scan",
            AclMultifield => "acl-multifield",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One whole pass from the seed: set-up, then the measured section.
    pub fn pass(self, ctx: &mut PassCtx) -> PassResult {
        match self {
            RibReplay => rib::pass(ctx),
            FlapWindow => flap::pass(ctx),
            DaemonStream => daemon::pass(ctx),
            WhatifScan => whatif::pass(ctx),
            AclMultifield => acl::pass(ctx),
        }
    }

    /// The correctness oracle, outside every timed section. Returns what it
    /// found wrong; empty means the outputs are correct.
    pub fn oracle(self, ctx: &mut PassCtx) -> Vec<String> {
        match self {
            RibReplay => rib::oracle(ctx),
            FlapWindow => flap::oracle(ctx),
            DaemonStream => daemon::oracle(ctx),
            WhatifScan => whatif::oracle(ctx),
            AclMultifield => acl::oracle(ctx),
        }
    }

    /// The probe passes of a traced run: per-layer metrics that need the
    /// section run again in another shape, each shape `repeats` times.
    pub fn probes(
        self,
        ctx: &mut PassCtx,
        main: &MainSummary,
        repeats: usize,
    ) -> Vec<(&'static str, f64)> {
        match self {
            RibReplay => rib::probes(ctx, main, repeats),
            FlapWindow => flap::probes(ctx, main, repeats),
            DaemonStream => daemon::probes(ctx, main, repeats),
            WhatifScan => whatif::probes(ctx, main),
            AclMultifield => acl::probes(ctx, main, repeats),
        }
    }

    /// The declared per-layer metrics whose layer does no work on this
    /// workload; an entry ending in `.` stands for every metric of that
    /// layer. A traced run reports them as 0. Every other declared metric
    /// must be measured: one that is neither listed here nor reported makes
    /// the run incorrect, so a mistyped or dropped name cannot pass for 0.
    pub fn idle_layers(self) -> &'static [&'static str] {
        match self {
            RibReplay => rib::IDLE_LAYERS,
            FlapWindow => flap::IDLE_LAYERS,
            DaemonStream => daemon::IDLE_LAYERS,
            WhatifScan => whatif::IDLE_LAYERS,
            AclMultifield => acl::IDLE_LAYERS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two builds from the same seed produce identical traces, and another
    /// seed produces different ones — for every workload's inputs.
    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let inputs = |seed: u64| {
            let mut ops = Vec::new();
            for segment in rib::inputs(seed, true) {
                ops.push(segment.ops().to_vec());
            }
            ops.push(flap::inputs(seed, true).0.ops().to_vec());
            ops.push(daemon::inputs(seed, true).0.ops().to_vec());
            ops.push(whatif::inputs(seed, true).ops().to_vec());
            ops.push(acl::inputs(seed, true).ops().to_vec());
            ops
        };
        let (a, b, c) = (inputs(1), inputs(1), inputs(7));
        assert_eq!(a, b);
        assert_eq!(a.len(), c.len());
        for (one, other) in a.iter().zip(&c) {
            assert_ne!(one, other);
        }
    }
}
