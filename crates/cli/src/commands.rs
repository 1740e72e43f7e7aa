//! The `deltanet` sub-commands.
//!
//! Every command is a pure function from parsed arguments (plus the
//! filesystem) to a report string, so the binary stays a two-line wrapper
//! and the behaviour is unit-testable.

use crate::args::{
    parse_dataset, parse_durability, parse_fields, parse_scale, parse_usize_option, ArgError,
    ParsedArgs,
};
use crate::paper::{self, Summary, Timings};
use crate::topo_text;
use deltanet::persist::{self, RecoveryPolicy, TornTail};
use deltanet::{
    CheckpointConfig, DeltaNet, DeltaNetConfig, Durability, FsBackend, Journal, MonitorTransitions,
    Parallelism, PersistError, PersistNet, Session, ShardedDeltaNet, Snapshot, ViolationKey,
};
use netmodel::checker::{Checker, InvariantViolation, ReplayError, UpdateReport};
use netmodel::interval::Interval;
use netmodel::ip::format_field;
use netmodel::topology::Topology;
use netmodel::trace::{Op, Trace};
use service::Json;
use std::fmt;
use std::path::Path;
use std::time::Instant;
use veriflow_ri::{VeriflowConfig, VeriflowRi};

/// Reclaimable-bound threshold used by a bare `--compact` flag (without an
/// explicit value).
const DEFAULT_COMPACT_THRESHOLD: usize = 1024;

/// Errors produced by a command.
#[derive(Debug)]
pub enum CommandError {
    /// Bad command-line arguments.
    Args(ArgError),
    /// A file could not be read or written.
    Io(std::io::Error),
    /// A topology or trace file failed to parse.
    Parse(String),
    /// Any other user-facing error.
    Other(String),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Args(e) => write!(f, "{e}"),
            CommandError::Io(e) => write!(f, "i/o error: {e}"),
            CommandError::Parse(e) => write!(f, "{e}"),
            CommandError::Other(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<ArgError> for CommandError {
    fn from(e: ArgError) -> Self {
        CommandError::Args(e)
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

impl From<PersistError> for CommandError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(io) => CommandError::Io(io),
            other => CommandError::Other(other.to_string()),
        }
    }
}

/// The help text.
pub fn help() -> String {
    "deltanet — real-time data-plane verification using atoms (NSDI 2017)\n\
     \n\
     USAGE: deltanet <command> [options]\n\
     \n\
     COMMANDS\n\
       generate  --dataset <name> [--scale tiny|small|medium] --out <dir>\n\
                 Generate one of the eight evaluation datasets (or the flapping-prefix\n\
                 `churn` workload) as <name>.topo + <name>.trace\n\
       replay    --topo <file> --trace <file> [--checker deltanet|veriflow] [--no-loops]\n\
                 [--compact [<threshold>]] [--json <file>] [--shards <n>] [--batch <w>]\n\
                 [--workers <n>] [--check blackholes] [--monitor] [--fields <spec>]\n\
                 [--from-snapshot <file>] [--log <file> [--durability buffered|flush|fsync]]\n\
                 [--checkpoint <dir> [--checkpoint-every <n>] [--retain <n>]]\n\
                 Replay a trace through a checker and print Table-3 style statistics;\n\
                 with --json, also write them as one line of JSON.\n\
                 --compact enables automatic atom compaction (deltanet only): a removal\n\
                 leaving >= <threshold> reclaimable bounds (default 1024) triggers a pass.\n\
                 --shards partitions the address space across <n> independent engines\n\
                 (deltanet only); with --batch, updates apply in windows of <w> with the\n\
                 per-shard groups running concurrently (--workers caps the threads;\n\
                 default: one per CPU). --check blackholes audits the final data plane for\n\
                 blackholes after the replay. --monitor (deltanet only) maintains the\n\
                 live loop+blackhole violation set incrementally (multi-field planes\n\
                 repair per touched slice), streams appeared/resolved transitions per\n\
                 trace op, and audits the maintained state against an untimed full\n\
                 rescan after every op (per window when batched); the report and\n\
                 --json carry the cross-check and mismatch counts.\n\
                 --fields declares a multi-field header space (deltanet only), primary\n\
                 field first: e.g. --fields dst,src:8 verifies a dst x src plane with an\n\
                 8-bit source axis (named fields default to dst/src 32 bits, dport 16;\n\
                 bare widths also work: --fields 32,8). Traces may then constrain\n\
                 secondary fields per rule; single-field traces replay unchanged.\n\
                 --from-snapshot restores a saved snapshot and replays the trace on top\n\
                 of it (deltanet only; the engine shape and config come from the\n\
                 snapshot, so --shards/--compact cannot be combined with it). --log\n\
                 appends every successfully applied op to a binary delta log; on a\n\
                 mid-trace failure the log holds exactly the applied prefix, so\n\
                 `snapshot --load --log` recovery reproduces the post-failure state.\n\
                 Malformed operations (unknown rule removal, duplicate insert) are\n\
                 reported with their line position instead of crashing the replay.\n\
                 --durability picks how hard each batch is pushed to disk: buffered\n\
                 (userspace only, synced at exit), flush (write, no fsync — default),\n\
                 fsync (write + fsync; an acknowledged batch survives power loss).\n\
                 --checkpoint journals into an auto-snapshotting checkpoint dir\n\
                 instead of a flat log: the log rotates and a snapshot is written\n\
                 every --checkpoint-every ops (default 1024), keeping --retain\n\
                 snapshots (default 2), so recovery time stays bounded. The dir\n\
                 must be fresh: one holding an earlier run's artifacts is refused\n\
       snapshot  --topo <file> --trace <file> --save <file> [--shards <n>] [--monitor]\n\
                 [--log <file>]\n\
                 Replay the trace and save its final engine state as a checksummed\n\
                 binary snapshot; with --log, also write the ops to a delta log\n\
                 (together they form a recovery pair)\n\
       snapshot  --topo <file> --load <file> [--log <file>] [--repair-tail]\n\
                 Restore a snapshot and print its state; with --log, recover by\n\
                 replaying the log tail past the snapshot's position. --repair-tail\n\
                 truncates a torn log tail to the longest valid checksummed prefix\n\
                 instead of failing\n\
       snapshot  --topo <file> --log <file> --at <n> [--load <file>]\n\
                 Time-travel: the violations active after exactly n logged ops,\n\
                 replayed forward from the snapshot when one is given\n\
       recover   --topo <file> (--snapshot <file> --log <file> | --dir <ckpt-dir>)\n\
                 [--repair-tail]\n\
                 Recover engine state after a crash. With --snapshot/--log, restore\n\
                 the snapshot and replay the log tail; with --dir, recover from a\n\
                 checkpoint directory (newest usable snapshot + log segments, falling\n\
                 back past corrupt snapshots). The default policy is strict: a torn\n\
                 or corrupt log record fails, naming the byte offset. --repair-tail\n\
                 instead truncates the torn tail and reports what was salvaged\n\
       whatif    --topo <file> --trace <file> --src <node-id> --dst <node-id> [--loops]\n\
                 Load the trace's final data plane and analyse the failure of link src->dst\n\
       audit     --topo <file> --trace <file> [--fields <spec>]\n\
                 Load the final data plane and report all forwarding loops and blackholes\n\
       serve     --topo <file> [--port <p>] [--port-file <file>] [--stdin] [--shards <n>]\n\
                 [--window <w>] [--queue <n>] [--sub-buffer <n>] [--workers <n>] [--audit]\n\
                 [--no-loops] [--checkpoint <dir> [--checkpoint-every <n>] [--retain <n>]\n\
                 [--durability buffered|flush|fsync]]\n\
                 Run the verification daemon: line-delimited ndjson requests (insert/\n\
                 remove/batch/what_if/snapshot/stats/subscribe/shutdown) over TCP (or\n\
                 stdin/stdout with --stdin), windowed batching with a bounded ingest\n\
                 queue for backpressure, and live violation subscriptions. The monitor\n\
                 is always on; --audit cross-checks it against a full rescan per window\n\
                 (counted in stats as audits/mismatches). --port 0 (default) picks an\n\
                 ephemeral port; --port-file writes the bound port for discovery.\n\
                 --checkpoint mounts durable snapshots+logs: an existing directory is\n\
                 recovered and the op stream resumes from it\n\
       client    (--addr <host:port> | --port-file <file>) [--send <file.ndjson>]\n\
                 [--topo <file> --trace <file> [--batch <n>]] [--stats] [--shutdown]\n\
                 Push requests to a running daemon and print a JSON summary of the\n\
                 acks. --send streams raw ndjson lines; --topo/--trace converts a\n\
                 trace into batch requests of --batch ops (default 16, at most\n\
                 2048, which the daemon's 1 MiB line cap always holds). --stats\n\
                 appends a stats request (its reply, including the audit mismatch\n\
                 count, folds into the summary); --shutdown stops the daemon\n\
       paper     [table2|table3|fig8|table4|table5|appendix-c] [--scale tiny|small|medium]\n\
                 Regenerate the paper's evaluation on the scaled datasets: Table 2\n\
                 (dataset sizes), Table 3 (per-update time incl. loop check), Figure 8\n\
                 (its CDF), Table 4 (link-failure what-if vs Veriflow-RI), Table 5\n\
                 (memory), Appendix C (classes affected per insert). No name prints all\n\
                 six; --scale defaults to tiny\n\
       help      Show this message\n"
        .to_string()
}

/// Dispatches a parsed command line.
pub fn run(args: &ParsedArgs) -> Result<String, CommandError> {
    match args.command.as_str() {
        "generate" => generate(args),
        "replay" => replay(args),
        "snapshot" => snapshot(args),
        "recover" => recover(args),
        "whatif" => whatif(args),
        "audit" => audit(args),
        "serve" => serve(args),
        "client" => client(args),
        "paper" => paper(args),
        "help" | "--help" | "-h" => Ok(help()),
        other => Err(CommandError::Other(format!(
            "unknown command `{other}`; try `deltanet help`"
        ))),
    }
}

fn load_topology(path: &str) -> Result<Topology, CommandError> {
    let text = std::fs::read_to_string(path)?;
    topo_text::from_text(&text).map_err(|e| CommandError::Parse(format!("{path}: {e}")))
}

fn load_trace(path: &str, topo: &mut Topology) -> Result<Trace, CommandError> {
    let text = std::fs::read_to_string(path)?;
    Trace::parse(&text, topo).map_err(|e| CommandError::Parse(format!("{path}: {e}")))
}

/// `deltanet generate` — write a dataset to disk.
pub fn generate(args: &ParsedArgs) -> Result<String, CommandError> {
    let dataset = parse_dataset(args)?;
    let scale = parse_scale(args)?;
    let out_dir = args.require("out")?;
    let ds = workloads::build(dataset, scale);
    std::fs::create_dir_all(out_dir)?;
    let stem = dataset.name().to_ascii_lowercase().replace(' ', "_");
    let topo_path = Path::new(out_dir).join(format!("{stem}.topo"));
    let trace_path = Path::new(out_dir).join(format!("{stem}.trace"));
    std::fs::write(&topo_path, topo_text::to_text(&ds.topology.topology))?;
    std::fs::write(&trace_path, ds.trace.to_text(&ds.topology.topology))?;
    let row = ds.table2_row();
    Ok(format!(
        "wrote {} and {}\n{}: {} nodes, {} links, {} operations, peak {} rules\n",
        topo_path.display(),
        trace_path.display(),
        row.name,
        row.nodes,
        row.links,
        row.operations,
        row.peak_rules
    ))
}

/// One-line rendering of an operation for error messages (the trace text
/// format's shape: `I <id>` / `R <id>`).
fn describe_op(op: &Op) -> String {
    match op {
        Op::Insert(r) => format!("I {}", r.id.0),
        Op::Remove(id) => format!("R {}", id.0),
    }
}

/// Applies a parsed `--fields` list to an engine config: the first width
/// becomes the primary field, the rest declare secondary fields.
fn apply_fields(config: DeltaNetConfig, fields: &[u8]) -> DeltaNetConfig {
    DeltaNetConfig {
        field_width: fields[0],
        ..config
    }
    .with_secondary(&fields[1..])
}

/// `[lo : hi)` with both ends in the notation of the field's width
/// (dotted quad at 32 bits, IPv6 past 64 bits, decimal otherwise).
fn format_packet_range(iv: &Interval, width: u8) -> String {
    format!(
        "[{} : {})",
        format_field(iv.lo(), width),
        format_field(iv.hi(), width)
    )
}

/// One report line for a violation: the summary plus up to three of its
/// packet intervals rendered in the primary field's notation.
fn describe_violation(v: &InvariantViolation, width: u8) -> String {
    let packets = match v {
        InvariantViolation::ForwardingLoop { packets, .. }
        | InvariantViolation::Blackhole { packets, .. } => packets,
    };
    let mut out = format!("{v}");
    if !packets.is_empty() {
        let shown: Vec<String> = packets
            .iter()
            .take(3)
            .map(|p| format_packet_range(p, width))
            .collect();
        out.push_str(&format!(": {}", shown.join(", ")));
        if packets.len() > 3 {
            out.push_str(&format!(", ... ({} more)", packets.len() - 3));
        }
    }
    out
}

/// A fresh Delta-net engine of the shape `--shards` asks for.
fn build_net(
    topo: Topology,
    config: DeltaNetConfig,
    shards: Option<usize>,
    parallelism: Parallelism,
) -> PersistNet {
    match shards {
        Some(n) => PersistNet::Sharded(Box::new(ShardedDeltaNet::with_parallelism(
            topo,
            config,
            n,
            parallelism,
        ))),
        None => PersistNet::Single(Box::new(DeltaNet::new(topo, config))),
    }
}

/// The engine a replay runs through: a Delta-net [`Session`] (the engine
/// with the journal beside it), or the Veriflow-RI baseline.
enum ReplayEngine {
    Net(Box<Session>),
    Veriflow(Box<VeriflowRi>),
}

impl ReplayEngine {
    fn checker(&self) -> &dyn Checker {
        match self {
            ReplayEngine::Net(session) => session.net().checker(),
            ReplayEngine::Veriflow(vf) => vf.as_ref(),
        }
    }

    /// The Delta-net engine, if this is one.
    fn net(&self) -> Option<&PersistNet> {
        match self {
            ReplayEngine::Net(session) => Some(session.net()),
            ReplayEngine::Veriflow(_) => None,
        }
    }

    /// The Delta-net session, if this is one.
    fn session(&mut self) -> Option<&mut Session> {
        match self {
            ReplayEngine::Net(session) => Some(session),
            ReplayEngine::Veriflow(_) => None,
        }
    }

    /// Applies one window, stopping at the first malformed op (the ops
    /// before it stay applied, and a session journals exactly them).
    fn apply_window(&mut self, ops: &[Op]) -> (Vec<UpdateReport>, Option<ReplayError>) {
        match self {
            ReplayEngine::Net(session) => session.apply(ops),
            ReplayEngine::Veriflow(vf) => vf.apply_window(ops),
        }
    }

    /// `(allocated atoms, reclaimable bounds, compaction passes)` for the
    /// engines that compact; summed over shards for the sharded engine.
    fn compaction_stats(&self) -> Option<(usize, usize, usize)> {
        Some(match self.net()? {
            PersistNet::Single(net) => (
                net.allocated_atoms(),
                net.reclaimable_bounds(),
                net.compactions(),
            ),
            PersistNet::Sharded(net) => (
                net.allocated_atoms(),
                net.reclaimable_bounds(),
                net.compactions(),
            ),
        })
    }

    /// The primary field's bit width, for address-notation output.
    fn field_width(&self) -> u8 {
        self.net().map_or(32, |net| net.config().field_width)
    }

    /// `(loops, blackholes)` counts of the live monitor state.
    fn monitor_counts(&self) -> Option<(usize, usize)> {
        let keys = self.net()?.monitor_keys()?;
        let loops = keys
            .iter()
            .filter(|k| matches!(k, ViolationKey::Loop(_)))
            .count();
        Some((loops, keys.len() - loops))
    }
}

/// How many `--monitor` transition lines the replay report prints before
/// eliding the rest (the counts are always exact).
const MAX_TRANSITION_LINES: usize = 50;

/// Accumulates the appeared/resolved stream of a monitored replay, plus
/// the per-operation audit of the maintained state against a full
/// rescan — the replay-level twin of the differential test oracle, so an
/// operator can see the incremental path verified on *their* trace.
#[derive(Default)]
struct TransitionLog {
    lines: Vec<String>,
    appeared: usize,
    resolved: usize,
    cross_checks: usize,
    cross_check_mismatches: usize,
}

impl TransitionLog {
    /// Records the transitions of one operation (or batch window) under
    /// `label`.
    fn observe(&mut self, label: &str, diff: MonitorTransitions) {
        self.appeared += diff.appeared.len();
        self.resolved += diff.resolved.len();
        let signed = diff.appeared.iter().map(|key| ('+', key));
        for (sign, key) in signed.chain(diff.resolved.iter().map(|key| ('-', key))) {
            if self.lines.len() < MAX_TRANSITION_LINES {
                self.lines.push(format!("  {label}: {sign} {key}"));
            }
        }
    }

    /// Records one incremental-vs-rescan comparison.
    fn cross_check(&mut self, matches: bool) {
        self.cross_checks += 1;
        self.cross_check_mismatches += usize::from(!matches);
    }
}

/// The `--shards` / `--batch` / `--check blackholes` fields of the replay
/// report, in that order, each only when the option was given.
fn shape_fields(
    shards: Option<usize>,
    batch: Option<usize>,
    blackholes: Option<&[InvariantViolation]>,
) -> Vec<(&'static str, Json)> {
    [
        ("shards", shards),
        ("batch", batch),
        ("blackholes", blackholes.map(<[_]>::len)),
    ]
    .into_iter()
    .filter_map(|(key, n)| Some((key, Json::int(n?))))
    .collect()
}

/// The `deltanet-replay-v1` report: schema and checker, the Table-3 summary
/// keys, then the caller's engine-specific `fields`.
fn replay_report(checker: &str, summary: &Summary, fields: Vec<(&'static str, Json)>) -> Json {
    let mut report = vec![
        ("schema", Json::str("deltanet-replay-v1")),
        ("checker", Json::str(checker)),
    ];
    report.extend(paper::summary_json(summary));
    report.extend(fields);
    service::obj(report)
}

/// `deltanet replay` — replay a trace through a checker with timing.
pub fn replay(args: &ParsedArgs) -> Result<String, CommandError> {
    let mut topo = load_topology(args.require("topo")?)?;
    let trace = load_trace(args.require("trace")?, &mut topo)?;
    let check_loops = !args.has_flag("no-loops");
    let checker_name = args.get_or("checker", "deltanet").to_string();
    let compact_threshold = if let Some(value) = args.options.get("compact") {
        Some(value.parse::<usize>().map_err(|_| {
            CommandError::Other(format!(
                "--compact expects a reclaimable-bound threshold, got `{value}`"
            ))
        })?)
    } else if args.has_flag("compact") {
        Some(DEFAULT_COMPACT_THRESHOLD)
    } else {
        None
    };
    let shards = parse_usize_option(args, "shards")?;
    let batch = parse_usize_option(args, "batch")?;
    let workers = parse_usize_option(args, "workers")?;
    let check_blackholes = match args.options.get("check").map(String::as_str) {
        None => false,
        Some("blackholes") => true,
        Some(other) => {
            return Err(CommandError::Other(format!(
                "unknown --check `{other}` (expected blackholes)"
            )))
        }
    };
    // May be promoted to true by a restored snapshot whose config already
    // enables monitoring (the snapshot's config governs the engine).
    let mut monitor = args.has_flag("monitor");
    let fields = parse_fields(args)?;
    let from_snapshot = args.options.get("from-snapshot").cloned();
    let log_to = args.options.get("log").cloned();
    let checkpoint_dir = args.options.get("checkpoint").cloned();
    let durability = parse_durability(args)?;
    if args.options.contains_key("durability") && log_to.is_none() && checkpoint_dir.is_none() {
        return Err(CommandError::Other(
            "--durability only applies when writing a log (--log or --checkpoint)".to_string(),
        ));
    }
    if (args.options.contains_key("checkpoint-every") || args.options.contains_key("retain"))
        && checkpoint_dir.is_none()
    {
        return Err(CommandError::Other(
            "--checkpoint-every/--retain require --checkpoint".to_string(),
        ));
    }
    if checkpoint_dir.is_some() && (log_to.is_some() || from_snapshot.is_some()) {
        return Err(CommandError::Other(
            "--checkpoint manages its own snapshots and log segments and cannot be combined \
             with --log or --from-snapshot"
                .to_string(),
        ));
    }
    if (batch.is_some() || workers.is_some()) && shards.is_none() {
        return Err(CommandError::Other(
            "--batch/--workers require --shards".to_string(),
        ));
    }
    if args.has_flag("no-loops") && from_snapshot.is_some() {
        return Err(CommandError::Other(
            "--no-loops has no effect with --from-snapshot: the per-update loop-check \
             setting comes from the snapshot's config"
                .to_string(),
        ));
    }
    if [shards, batch].into_iter().flatten().any(|n| n == 0) {
        return Err(CommandError::Other(
            "--shards/--batch must be at least 1".to_string(),
        ));
    }
    let parallelism = workers.map_or_else(Parallelism::auto, Parallelism::fixed);

    let checkpoint = match &checkpoint_dir {
        Some(_) => Some(checkpoint_config(args)?),
        None => None,
    };

    let mut baseline_ops = 0u64;
    let mut engine = match checker_name.as_str() {
        "deltanet" => {
            let net = match &from_snapshot {
                Some(snap_path) => {
                    if shards.is_some() || compact_threshold.is_some() || fields.is_some() {
                        return Err(CommandError::Other(
                            "--shards/--compact/--fields come from the snapshot and cannot be \
                             combined with --from-snapshot"
                                .to_string(),
                        ));
                    }
                    let snap = Snapshot::read_from(Path::new(snap_path))?;
                    baseline_ops = snap.ops_applied();
                    let mut net = snap.restore(&topo)?;
                    if monitor && net.monitor_keys().is_some() {
                        return Err(CommandError::Other(
                            "--monitor is redundant with this snapshot: its config already \
                             enables monitoring, which continues (and is reported) \
                             automatically on restore — drop the flag"
                                .to_string(),
                        ));
                    }
                    if monitor {
                        net.enable_monitor();
                    }
                    // A monitored snapshot keeps monitoring: report it.
                    monitor = monitor || net.monitor_keys().is_some();
                    net
                }
                None => {
                    let mut config = DeltaNetConfig {
                        check_loops_per_update: check_loops,
                        compact_threshold,
                        monitor_violations: monitor,
                        ..Default::default()
                    };
                    if let Some(f) = &fields {
                        config = apply_fields(config, f);
                    }
                    build_net(topo, config, shards, parallelism)
                }
            };
            // The journal mounted beside the engine: a flat delta log (--log)
            // or a rotating, auto-snapshotting checkpoint directory
            // (--checkpoint). Write-behind — only ops the engine accepted
            // are recorded — so on a mid-trace failure it holds exactly the
            // applied prefix. Each window is flushed at the configured
            // durability; I/O failures are deferred and surface when the
            // session closes the journal.
            let journal = match (&log_to, checkpoint_dir.as_deref().zip(checkpoint)) {
                (Some(path), _) => Some(Journal::flat(
                    Box::new(FsBackend),
                    Path::new(path),
                    baseline_ops,
                    durability,
                )?),
                (None, Some((dir, config))) => Some(Journal::checkpointed(
                    Box::new(FsBackend),
                    Path::new(dir),
                    &Snapshot::of_net(&net, 0),
                    config,
                )?),
                _ => None,
            };
            ReplayEngine::Net(Box::new(Session::new(net, journal)))
        }
        "veriflow" | "veriflow-ri" => {
            if compact_threshold.is_some()
                || shards.is_some()
                || check_blackholes
                || monitor
                || fields.is_some()
                || from_snapshot.is_some()
                || log_to.is_some()
                || checkpoint_dir.is_some()
            {
                return Err(CommandError::Other(
                    "--compact/--shards/--check/--monitor/--fields/--from-snapshot/--log/\
                     --checkpoint are only supported by the deltanet checker"
                        .to_string(),
                ));
            }
            ReplayEngine::Veriflow(Box::new(VeriflowRi::new(
                topo,
                VeriflowConfig {
                    check_loops_per_update: check_loops,
                    ..Default::default()
                },
            )))
        }
        other => {
            return Err(CommandError::Other(format!(
                "unknown checker `{other}` (expected deltanet | veriflow)"
            )))
        }
    };

    let mut timings = Timings::with_capacity(trace.len());
    let mut loops = 0usize;
    let mut transitions = monitor.then(TransitionLog::default);
    // One windowed loop: --batch windows apply their shard groups
    // concurrently, and an unbatched replay is a window of one. Per-op time
    // is the window average, so the summary statistics keep their shape.
    let mut offset = 0usize;
    for chunk in trace.ops().chunks(batch.unwrap_or(1)) {
        let start = Instant::now();
        let (reports, failure) = engine.apply_window(chunk);
        if let Some(e) = failure {
            // Close the journal so the applied prefix is on disk and a
            // deferred I/O error cannot be lost; the engine error is the
            // one worth reporting.
            let mut msg = format!(
                "trace op {} ({}): {}",
                offset + e.index + 1,
                describe_op(&chunk[e.index]),
                e.error
            );
            if let Some(Err(io)) = engine.session().map(Session::close) {
                msg.push_str(&format!("; log sync also failed: {io}"));
            }
            return Err(CommandError::Other(msg));
        }
        let per_op_us = start.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64;
        for report in reports {
            timings.micros.push(per_op_us);
            if report.has_loop() {
                loops += 1;
            }
        }
        offset += chunk.len();
        if let (Some(log), Some(session)) = (transitions.as_mut(), engine.session()) {
            // Inside a --batch window the per-op order is not observable,
            // so transitions are reported at window granularity.
            let label = match batch {
                Some(_) => format!("ops {}..{}", offset - chunk.len() + 1, offset),
                None => format!("op {offset} ({})", describe_op(&chunk[0])),
            };
            log.observe(&label, session.transitions());
            // Untimed audit of the maintained (incrementally repaired)
            // state against a fresh full rescan (multi-field planes
            // included), once per window.
            log.cross_check(session.net().monitor_matches_rescan() == Some(true));
        }
    }
    let journaled = match engine.session() {
        Some(session) => {
            let stats = session.journal().map(|journal| {
                (
                    journal.ops_applied(),
                    journal.checkpoints_written(),
                    journal.last_checkpoint(),
                )
            });
            session.close()?;
            stats
        }
        None => None,
    };
    let summary = timings.summary();
    let checker = engine.checker();
    let name = checker.name();
    let class_count = checker.class_count();
    let rule_count = checker.rule_count();
    let memory_bytes = checker.memory_bytes();
    let compaction = engine.compaction_stats();
    let blackhole_report = if check_blackholes {
        engine.net().map(PersistNet::check_all_blackholes)
    } else {
        None
    };
    let monitor_counts = engine.monitor_counts();
    let monitor_matches = engine.net().and_then(PersistNet::monitor_matches_rescan);

    if let Some(json_path) = args.options.get("json") {
        let mut fields = vec![
            ("packet_classes", Json::int(class_count)),
            ("rules", Json::int(rule_count)),
            ("ops_with_loops", Json::int(loops)),
            ("memory_bytes", Json::int(memory_bytes)),
        ];
        if let Some((allocated, reclaimable, passes)) = compaction {
            fields.extend([
                ("allocated_atoms", Json::int(allocated)),
                ("reclaimable_bounds", Json::int(reclaimable)),
                ("compactions", Json::int(passes)),
            ]);
        }
        fields.extend(shape_fields(shards, batch, blackhole_report.as_deref()));
        if from_snapshot.is_some() {
            fields.push(("resumed_from_op", Json::int(baseline_ops)));
        }
        if let Some((ops_applied, checkpoints, last_checkpoint)) = journaled {
            match checkpoint {
                None => fields.push(("log_ops", Json::int(ops_applied - baseline_ops))),
                Some(config) => fields.extend([
                    ("checkpoint_every", Json::int(config.every_ops)),
                    ("checkpoints_written", Json::int(checkpoints)),
                    ("last_checkpoint", Json::int(last_checkpoint)),
                ]),
            }
            fields.push(("durability", Json::str(durability.name())));
        }
        if let (Some((active_loops, active_holes)), Some(log)) =
            (monitor_counts, transitions.as_ref())
        {
            fields.extend([
                ("monitor_loops", Json::int(active_loops)),
                ("monitor_blackholes", Json::int(active_holes)),
                ("monitor_appeared", Json::int(log.appeared)),
                ("monitor_resolved", Json::int(log.resolved)),
                ("monitor_cross_checks", Json::int(log.cross_checks)),
                (
                    "monitor_cross_check_mismatches",
                    Json::int(log.cross_check_mismatches),
                ),
                (
                    "monitor_matches_rescan",
                    Json::Bool(monitor_matches.unwrap_or(false)),
                ),
            ]);
        }
        let report = replay_report(name, &summary, fields);
        std::fs::write(json_path, report.render() + "\n")?;
    }
    let mut out = format!(
        "checker:            {name}\n\
         operations:         {}\n\
         packet classes:     {class_count}\n\
         rules installed:    {rule_count}\n\
         median update time: {:.1} us\n\
         average update time:{:.1} us\n\
         updates < 250 us:   {:.2}%\n\
         updates with loops: {loops}\n\
         estimated memory:   {:.1} MiB\n",
        trace.len(),
        summary.median_us,
        summary.average_us,
        summary.pct_under_250us,
        memory_bytes as f64 / (1024.0 * 1024.0),
    );
    if let Some((allocated, reclaimable, passes)) = compaction {
        out.push_str(&format!(
            "atoms allocated:    {allocated} (reclaimable bounds: {reclaimable})\n\
             compaction passes:  {passes}\n"
        ));
    }
    if let Some(n) = shards {
        out.push_str(&format!("shards:             {n}"));
        match batch {
            Some(w) => out.push_str(&format!(
                " (batched x{w}, {} workers)\n",
                parallelism.workers()
            )),
            None => out.push('\n'),
        }
    }
    if from_snapshot.is_some() {
        out.push_str(&format!("resumed from snapshot: op {baseline_ops}\n"));
    }
    if let Some((ops_applied, checkpoints, last_checkpoint)) = journaled {
        if let Some(path) = &log_to {
            out.push_str(&format!(
                "delta log:          {} ops -> {path} (durability: {})\n",
                ops_applied - baseline_ops,
                durability.name()
            ));
        }
        if let (Some(dir), Some(config)) = (&checkpoint_dir, checkpoint) {
            out.push_str(&format!(
                "durability:         {}\n\
                 checkpoint dir:     {dir}\n\
                 checkpoints:        {checkpoints} (every {} ops, retain {})\n\
                 last checkpoint:    op {last_checkpoint}\n\
                 ops applied:        {ops_applied}\n",
                durability.name(),
                config.every_ops,
                config.retain,
            ));
        }
    }
    if let Some(holes) = &blackhole_report {
        out.push_str(&format!("blackholes:         {}\n", holes.len()));
        for v in holes.iter().take(5) {
            out.push_str(&format!(
                "  {}\n",
                describe_violation(v, engine.field_width())
            ));
        }
    }
    if let (Some((active_loops, active_holes)), Some(log)) = (monitor_counts, transitions.as_ref())
    {
        out.push_str(&format!(
            "violations active:  {} ({active_loops} loops, {active_holes} blackholes)\n\
             violation events:   {} appeared, {} resolved\n",
            active_loops + active_holes,
            log.appeared,
            log.resolved,
        ));
        if !log.lines.is_empty() {
            out.push_str("violation transitions:\n");
            for line in &log.lines {
                out.push_str(line);
                out.push('\n');
            }
            let elided = (log.appeared + log.resolved).saturating_sub(log.lines.len());
            if elided > 0 {
                out.push_str(&format!("  ... ({elided} more)\n"));
            }
        }
        out.push_str(&format!(
            "incremental vs rescan: {} cross-checks, {} mismatches\n\
             monitor matches full rescan: {}\n",
            log.cross_checks,
            log.cross_check_mismatches,
            if monitor_matches == Some(true) && log.cross_check_mismatches == 0 {
                "yes"
            } else {
                "NO — this is a bug, please report it"
            }
        ));
    }
    Ok(out)
}

/// The `--checkpoint-every` / `--retain` / `--durability` options as a
/// [`CheckpointConfig`] (defaults: 1024 ops, 2 snapshots, `flush`).
fn checkpoint_config(args: &ParsedArgs) -> Result<CheckpointConfig, CommandError> {
    let every_ops = parse_usize_option(args, "checkpoint-every")?.unwrap_or(1024);
    let retain = parse_usize_option(args, "retain")?.unwrap_or(2);
    if every_ops == 0 || retain == 0 {
        return Err(CommandError::Other(
            "--checkpoint-every/--retain must be at least 1".to_string(),
        ));
    }
    Ok(CheckpointConfig {
        every_ops: every_ops as u64,
        retain,
        durability: parse_durability(args)?,
    })
}

/// The torn-log policy `--repair-tail` selects.
fn recovery_policy(args: &ParsedArgs) -> RecoveryPolicy {
    if args.has_flag("repair-tail") {
        RecoveryPolicy::RepairTail
    } else {
        RecoveryPolicy::Strict
    }
}

/// Recovers a snapshot + flat log pair and reports the result — the shared
/// body of `recover --snapshot --log` and `snapshot --load --log`.
fn recover_pair(
    args: &ParsedArgs,
    topo: &Topology,
    snap_path: &str,
    log_path: &str,
) -> Result<String, CommandError> {
    let (net, total, torn) = persist::recover_with(
        topo,
        &mut FsBackend,
        Path::new(snap_path),
        Path::new(log_path),
        recovery_policy(args),
    )?;
    Ok(format!(
        "ops incorporated: {total}\n{}{}",
        describe_torn(torn.as_ref()),
        describe_persist_net(&net)
    ))
}

/// `deltanet recover` — crash recovery from a snapshot + log pair or a
/// checkpoint directory, with strict or tail-repairing torn-log handling.
pub fn recover(args: &ParsedArgs) -> Result<String, CommandError> {
    let topo = load_topology(args.require("topo")?)?;
    if let Some(dir) = args.options.get("dir") {
        let (net, journal, report) = persist::recover_dir(
            Box::new(FsBackend),
            Path::new(dir),
            &topo,
            recovery_policy(args),
            checkpoint_config(args)?,
        )?;
        journal.close()?;
        let mut out = format!(
            "recovered checkpoint dir {dir}\n\
             baseline snapshot:  op {}\n\
             log ops replayed:   {} (across {} segments)\n\
             ops incorporated:   {}\n",
            report.baseline_ops,
            report.replayed_ops,
            report.segments_replayed,
            report.ops_incorporated,
        );
        if report.snapshots_skipped > 0 {
            out.push_str(&format!(
                "snapshots skipped:  {} (corrupt or unreadable)\n",
                report.snapshots_skipped
            ));
        }
        if report.torn.is_some() {
            out.push_str(&describe_torn(report.torn.as_ref()));
            out.push_str(&format!(
                "salvaged from final segment: {} ops\n",
                report.salvaged_tail_ops
            ));
        }
        out.push_str(&describe_persist_net(&net));
        Ok(out)
    } else {
        let snap_path = args.require("snapshot").map_err(|_| {
            CommandError::Other(
                "recover needs either --dir <ckpt-dir> or --snapshot <file> --log <file>"
                    .to_string(),
            )
        })?;
        let log_path = args.require("log")?;
        Ok(format!(
            "recovered {snap_path} + {log_path}\n{}",
            recover_pair(args, &topo, snap_path, log_path)?
        ))
    }
}

/// One-line report of a repaired torn log tail (empty when the log was clean).
fn describe_torn(torn: Option<&TornTail>) -> String {
    match torn {
        Some(t) => format!(
            "torn tail repaired: truncated at byte {} ({} bytes dropped)\n",
            t.offset, t.bytes_dropped
        ),
        None => String::new(),
    }
}

/// `deltanet snapshot` — save, restore/recover, or time-travel snapshots.
///
/// Three modes, selected by which options are given: `--save <file>`
/// replays a trace and writes its final state; `--load <file>` restores a
/// snapshot (recovering through the `--log` tail when one is given);
/// `--at <n>` answers a time-travel query against a delta log.
pub fn snapshot(args: &ParsedArgs) -> Result<String, CommandError> {
    let save = args.options.get("save").cloned();
    let load = args.options.get("load").cloned();
    let at = parse_usize_option(args, "at")?;
    match (save, load, at) {
        (Some(out), None, None) => snapshot_save(args, &out),
        (None, Some(path), None) => snapshot_load(args, &path),
        (None, load, Some(op_n)) => snapshot_at(args, load.as_deref(), op_n),
        _ => Err(CommandError::Other(
            "snapshot expects exactly one of --save <file>, --load <file>, or --at <n> \
             (--at may be combined with --load); try `deltanet help`"
                .to_string(),
        )),
    }
}

/// `snapshot --save`: replay the trace, write the final state (and
/// optionally the ops) to disk.
fn snapshot_save(args: &ParsedArgs, out_path: &str) -> Result<String, CommandError> {
    let mut topo = load_topology(args.require("topo")?)?;
    let trace = load_trace(args.require("trace")?, &mut topo)?;
    let shards = parse_usize_option(args, "shards")?;
    if shards == Some(0) {
        return Err(CommandError::Other(
            "--shards must be at least 1".to_string(),
        ));
    }
    let config = DeltaNetConfig {
        check_loops_per_update: false,
        monitor_violations: args.has_flag("monitor"),
        ..Default::default()
    };
    let net = build_net(topo, config, shards, Parallelism::auto());
    // A flat journal beside the engine, as `replay --log` mounts one: it
    // records exactly the ops the engine accepted.
    let journal = match args.options.get("log") {
        Some(path) => Some(Journal::flat(
            Box::new(FsBackend),
            Path::new(path),
            0,
            Durability::default(),
        )?),
        None => None,
    };
    let mut session = Session::new(net, journal);
    let (_, failure) = session.apply(trace.ops());
    session.close()?;
    if let Some(e) = failure {
        return Err(CommandError::Other(format!(
            "trace op {} ({}): {}",
            e.index + 1,
            describe_op(&trace.ops()[e.index]),
            e.error
        )));
    }
    let ops_applied = session.ops_applied();
    let snap = Snapshot::of_net(session.net(), ops_applied);
    snap.write_to(Path::new(out_path))?;
    let bytes = std::fs::metadata(out_path)?.len();
    let mut out = format!(
        "wrote snapshot {out_path} ({bytes} bytes)\n\
         ops applied: {ops_applied}\n{}",
        describe_persist_net(session.net()),
    );
    if let Some(log_path) = args.options.get("log") {
        out.push_str(&format!("delta log: {ops_applied} ops -> {log_path}\n"));
    }
    Ok(out)
}

/// `snapshot --load`: restore, or recover through the log tail (repairing a
/// torn tail when `--repair-tail` is given).
fn snapshot_load(args: &ParsedArgs, snap_path: &str) -> Result<String, CommandError> {
    let topo = load_topology(args.require("topo")?)?;
    let state = match args.options.get("log") {
        Some(log_path) => recover_pair(args, &topo, snap_path, log_path)?,
        None => {
            if args.has_flag("repair-tail") {
                return Err(CommandError::Other(
                    "--repair-tail requires --log (it repairs the log's torn tail)".to_string(),
                ));
            }
            let snap = Snapshot::read_from(Path::new(snap_path))?;
            let at = snap.ops_applied();
            format!(
                "ops incorporated: {at}\n{}",
                describe_persist_net(&snap.restore(&topo)?)
            )
        }
    };
    Ok(format!("restored {snap_path}\n{state}"))
}

/// `snapshot --at`: the violations active after exactly `op_n` logged ops.
fn snapshot_at(
    args: &ParsedArgs,
    snap_path: Option<&str>,
    op_n: usize,
) -> Result<String, CommandError> {
    let topo = load_topology(args.require("topo")?)?;
    let log = persist::read_log(Path::new(args.require("log")?))?;
    let snap = snap_path
        .map(|p| Snapshot::read_from(Path::new(p)))
        .transpose()?;
    let config = DeltaNetConfig {
        check_loops_per_update: false,
        monitor_violations: true,
        ..Default::default()
    };
    let width = snap
        .as_ref()
        .map_or(config.field_width, |s| s.config().field_width);
    let violations = persist::violations_at(&topo, snap, &log, op_n, config)?;
    let mut out = format!(
        "violations after op {op_n} (of {} logged): {}\n",
        log.len(),
        violations.len()
    );
    for v in violations.iter().take(20) {
        out.push_str(&format!("  {}\n", describe_violation(v, width)));
    }
    if violations.len() > 20 {
        out.push_str(&format!("  ... ({} more)\n", violations.len() - 20));
    }
    Ok(out)
}

/// Shared state summary of a restored/built [`PersistNet`] for reports.
fn describe_persist_net(net: &PersistNet) -> String {
    let engine = match net.as_sharded() {
        Some(sharded) => format!("delta-net-sharded x{}", sharded.shards().len()),
        None => "delta-net".to_string(),
    };
    let config = net.config();
    let checker = net.checker();
    let mut out = format!(
        "engine: {engine}\nrules: {}, packet classes: {}\n",
        checker.rule_count(),
        checker.class_count()
    );
    if config.secondary_count() > 0 {
        out.push_str(&format!("header space: {}\n", config.header_space()));
    }
    if let Some(violations) = checker.active_violations() {
        out.push_str(&format!("violations active: {}\n", violations.len()));
        for v in violations.iter().take(10) {
            out.push_str(&format!(
                "  {}\n",
                describe_violation(v, config.field_width)
            ));
        }
    }
    out
}

/// Builds the final data plane of a trace inside a Delta-net checker.
fn load_final_data_plane(args: &ParsedArgs) -> Result<DeltaNet, CommandError> {
    let mut topo = load_topology(args.require("topo")?)?;
    let trace = load_trace(args.require("trace")?, &mut topo)?;
    let mut config = DeltaNetConfig {
        check_loops_per_update: false,
        ..Default::default()
    };
    if let Some(f) = parse_fields(args)? {
        config = apply_fields(config, &f);
    }
    let mut net = DeltaNet::new(topo, config);
    for rule in trace.final_data_plane() {
        let id = rule.id.0;
        net.try_apply(&Op::Insert(rule)).map_err(|e| {
            CommandError::Other(format!(
                "rule {id} in the final data plane: {e} (declare the header space with --fields)"
            ))
        })?;
    }
    Ok(net)
}

/// `deltanet whatif` — link-failure impact analysis on the final data plane.
pub fn whatif(args: &ParsedArgs) -> Result<String, CommandError> {
    let net = load_final_data_plane(args)?;
    let src: u32 = args
        .require("src")?
        .parse()
        .map_err(|_| CommandError::Other("--src must be a node id".to_string()))?;
    let dst: u32 = args
        .require("dst")?
        .parse()
        .map_err(|_| CommandError::Other("--dst must be a node id".to_string()))?;
    let link = net
        .topology()
        .link_between(
            netmodel::topology::NodeId(src),
            netmodel::topology::NodeId(dst),
        )
        .ok_or_else(|| CommandError::Other(format!("no link n{src} -> n{dst} in topology")))?;
    let start = Instant::now();
    let report = net.link_failure_impact(link, args.has_flag("loops"));
    let elapsed = start.elapsed();
    let mut out = format!(
        "what if link n{src} -> n{dst} fails? (answered in {:.1} us)\n\
         affected packet classes: {}\n\
         affected address ranges: {}\n\
         other links carrying affected traffic: {}\n",
        elapsed.as_secs_f64() * 1e6,
        report.affected_classes,
        report.affected_packets.len(),
        report.affected_links.len(),
    );
    for iv in report.affected_packets.iter().take(10) {
        out.push_str(&format!(
            "  {}\n",
            format_packet_range(iv, net.config().field_width)
        ));
    }
    if args.has_flag("loops") {
        out.push_str(&format!(
            "forwarding loops among affected flows: {}\n",
            report.violations.len()
        ));
    }
    Ok(out)
}

/// `deltanet audit` — full loop + blackhole audit of the final data plane.
pub fn audit(args: &ParsedArgs) -> Result<String, CommandError> {
    let net = load_final_data_plane(args)?;
    let loops = net.check_all_loops();
    let holes = net.check_all_blackholes();
    let mut out = format!(
        "rules: {}, atoms: {}\nforwarding loops: {}\nblackholes: {}\n\
         (note: nodes with no rules at all — e.g. external border routers — show up as\n\
          blackholes; add explicit drop/deliver rules there to silence them)\n",
        net.rule_count(),
        net.atom_count(),
        loops.len(),
        holes.len()
    );
    for v in loops.iter().chain(holes.iter()).take(20) {
        out.push_str(&format!(
            "  {}\n",
            describe_violation(v, net.config().field_width)
        ));
    }
    Ok(out)
}

/// `deltanet paper` — regenerate the paper's tables and figures.
pub fn paper(args: &ParsedArgs) -> Result<String, CommandError> {
    let scale = parse_scale(args)?;
    let report = match &args.operand {
        None => paper::full_report(scale),
        Some(table) => paper::report(table, scale).ok_or_else(|| {
            CommandError::Other(format!(
                "unknown table `{table}` (expected {})",
                paper::TABLES.join(" | ")
            ))
        })?,
    };
    Ok(report + "\n")
}

/// `deltanet serve` — run the verification daemon (see `crates/service`).
pub fn serve(args: &ParsedArgs) -> Result<String, CommandError> {
    let topo = load_topology(args.require("topo")?)?;
    let shards = parse_usize_option(args, "shards")?.unwrap_or(2);
    let window = parse_usize_option(args, "window")?.unwrap_or(32);
    let queue = parse_usize_option(args, "queue")?.unwrap_or(128);
    let sub_buffer = parse_usize_option(args, "sub-buffer")?.unwrap_or(256);
    if [shards, window, queue, sub_buffer].contains(&0) {
        return Err(CommandError::Other(
            "--shards/--window/--queue/--sub-buffer must be at least 1".to_string(),
        ));
    }
    let workers = parse_usize_option(args, "workers")?;
    let parallelism = workers.map_or_else(Parallelism::auto, Parallelism::fixed);
    let checkpoint_dir = args.options.get("checkpoint").cloned();
    if (args.options.contains_key("checkpoint-every")
        || args.options.contains_key("retain")
        || args.options.contains_key("durability"))
        && checkpoint_dir.is_none()
    {
        return Err(CommandError::Other(
            "--checkpoint-every/--retain/--durability require --checkpoint".to_string(),
        ));
    }
    let checkpoint = match checkpoint_dir {
        Some(dir) => Some(service::CheckpointSetup {
            dir: dir.into(),
            config: checkpoint_config(args)?,
        }),
        None => None,
    };
    let config = service::ServiceConfig {
        engine: DeltaNetConfig {
            check_loops_per_update: !args.has_flag("no-loops"),
            monitor_violations: true,
            ..Default::default()
        },
        shards,
        parallelism,
        window,
        queue,
        sub_buffer,
        audit: args.has_flag("audit"),
        checkpoint,
    };

    if args.has_flag("stdin") {
        if args.options.contains_key("port") || args.options.contains_key("port-file") {
            return Err(CommandError::Other(
                "--stdin serves over stdin/stdout and cannot be combined with \
                 --port/--port-file"
                    .to_string(),
            ));
        }
        service::serve_stdio(topo, config)?;
        return Ok("service: stdin stream closed\n".to_string());
    }

    let port = parse_usize_option(args, "port")?.unwrap_or(0);
    let server = service::Server::bind(format!("127.0.0.1:{port}"), topo, config)?;
    let local = server.local_addr()?;
    // The port file is the readiness signal for scripts using --port 0.
    if let Some(path) = args.options.get("port-file") {
        std::fs::write(path, local.port().to_string())?;
    }
    eprintln!("deltanet serve: listening on {local}");
    server.run()?;
    Ok(format!("service: shut down cleanly ({local})\n"))
}

/// `deltanet client` — push ndjson requests to a running daemon and
/// summarize the acks.
pub fn client(args: &ParsedArgs) -> Result<String, CommandError> {
    use std::io::{BufRead, BufReader, Write};

    let addr = if let Some(a) = args.options.get("addr") {
        a.clone()
    } else if let Some(f) = args.options.get("port-file") {
        format!("127.0.0.1:{}", std::fs::read_to_string(f)?.trim())
    } else {
        return Err(CommandError::Other(
            "client needs --addr <host:port> or --port-file <file>".to_string(),
        ));
    };

    let mut lines: Vec<String> = Vec::new();
    let mut next_id = 1u64;
    if let Some(file) = args.options.get("send") {
        for line in std::fs::read_to_string(file)?.lines() {
            if !line.trim().is_empty() {
                lines.push(line.to_string());
                next_id += 1;
            }
        }
    }
    if let Some(topo_path) = args.options.get("topo") {
        let mut topo = load_topology(topo_path)?;
        let trace = load_trace(args.require("trace")?, &mut topo)?;
        let batch = parse_usize_option(args, "batch")?.unwrap_or(16).max(1);
        // The daemon's line cap is sized so this many ops always fit.
        const MAX_BATCH: usize = 2048;
        if batch > MAX_BATCH {
            return Err(CommandError::Other(format!(
                "--batch {batch} is above {MAX_BATCH}, the most ops a request line \
                 of at most {} bytes is sized for",
                service::server::MAX_LINE_BYTES
            )));
        }
        for chunk in trace.ops().chunks(batch) {
            lines.push(service::batch_request(next_id, chunk, &topo).render());
            next_id += 1;
        }
    }
    if args.has_flag("stats") {
        lines.push(format!("{{\"id\": {next_id}, \"op\": \"stats\"}}"));
        next_id += 1;
    }
    if args.has_flag("shutdown") {
        lines.push(format!("{{\"id\": {next_id}, \"op\": \"shutdown\"}}"));
    }
    if lines.is_empty() {
        return Err(CommandError::Other(
            "nothing to send: use --send, --topo/--trace, --stats, or --shutdown".to_string(),
        ));
    }

    let stream = std::net::TcpStream::connect(&addr)?;
    let mut writer = stream.try_clone()?;
    // Acks must be drained concurrently with the writes: the daemon acks
    // each request in order, and an unread ack stream would eventually
    // fill both socket buffers and deadlock the connection.
    let reader = std::thread::spawn(move || {
        let mut ok = 0u64;
        let mut errors = 0u64;
        let mut ops_acked = 0u64;
        let mut stats: Option<service::Json> = None;
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            let Ok(value) = service::parse(&line) else {
                errors += 1;
                continue;
            };
            match value.get("ok").and_then(service::Json::as_bool) {
                Some(true) => {
                    ok += 1;
                    if let Some(acks) = value.get("acks").and_then(service::Json::as_arr) {
                        ops_acked += acks.len() as u64;
                    } else if value.get("at").is_some() {
                        ops_acked += 1;
                    }
                    if value.get("ops_applied").is_some() && value.get("atoms").is_some() {
                        stats = Some(value);
                    }
                }
                _ => errors += 1,
            }
        }
        (ok, errors, ops_acked, stats)
    });
    for line in &lines {
        writeln!(writer, "{line}")?;
    }
    writer.flush()?;
    writer.shutdown(std::net::Shutdown::Write)?;
    let (ok, errors, ops_acked, stats) = reader
        .join()
        .map_err(|_| CommandError::Other("ack reader thread panicked".to_string()))?;

    let mut pairs = vec![
        ("requests", service::Json::int(lines.len())),
        ("ok", service::Json::int(ok)),
        ("errors", service::Json::int(errors)),
        ("ops_acked", service::Json::int(ops_acked)),
    ];
    if let Some(stats) = &stats {
        for key in ["ops_applied", "violations", "audits", "mismatches"] {
            if let Some(v) = stats.get(key) {
                pairs.push((key, v.clone()));
            }
        }
    }
    let mut out = service::obj(pairs).render();
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ParsedArgs;

    fn parsed(args: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("deltanet-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Parses a `replay --json` file, which must be a `deltanet-replay-v1`
    /// object on a single line.
    fn read_report(path: impl AsRef<Path>) -> Json {
        let line = std::fs::read_to_string(path).unwrap();
        assert_eq!(line.matches('\n').count(), 1, "not one line: {line}");
        let report = service::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(text(&report, "schema"), "deltanet-replay-v1");
        report
    }

    /// An integer field of a report.
    fn int(report: &Json, key: &str) -> i128 {
        report
            .get(key)
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("no integer `{key}` in {}", report.render()))
    }

    /// A string field of a report.
    fn text<'a>(report: &'a Json, key: &str) -> &'a str {
        report
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no string `{key}` in {}", report.render()))
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&parsed(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&parsed(&["frob"])).is_err());
    }

    #[test]
    fn paper_prints_one_table_or_rejects_the_name() {
        let t2 = run(&parsed(&["paper", "table2", "--scale", "tiny"])).unwrap();
        assert!(t2.starts_with("Table 2:"), "{t2}");
        assert!(!t2.contains("Table 3:"), "{t2}");
        let c = run(&parsed(&["paper", "appendix-c"])).unwrap();
        assert!(c.starts_with("Appendix C:"), "{c}");
        let err = run(&parsed(&["paper", "table9"])).unwrap_err();
        assert!(err.to_string().contains("table2 | table3"), "{err}");
        assert!(run(&parsed(&["paper", "--scale", "huge"])).is_err());
    }

    #[test]
    fn generate_replay_whatif_audit_end_to_end() {
        let dir = temp_dir("e2e");
        let out = dir.to_str().unwrap().to_string();

        // generate
        let g = run(&parsed(&[
            "generate",
            "--dataset",
            "4switch",
            "--scale",
            "tiny",
            "--out",
            &out,
        ]))
        .unwrap();
        assert!(g.contains("4switch.topo"));
        let topo = dir.join("4switch.topo");
        let trace = dir.join("4switch.trace");
        assert!(topo.exists() && trace.exists());
        let topo = topo.to_str().unwrap().to_string();
        let trace = trace.to_str().unwrap().to_string();

        // replay with both checkers
        for (checker, reported_name) in [("deltanet", "delta-net"), ("veriflow", "veriflow-ri")] {
            let r = run(&parsed(&[
                "replay",
                "--topo",
                &topo,
                "--trace",
                &trace,
                "--checker",
                checker,
            ]))
            .unwrap();
            assert!(r.contains("median update time"), "{r}");
            assert!(r.contains(reported_name), "{r}");
        }

        // replay with --json writes the machine-readable summary too
        let json_path = dir.join("replay.json");
        let json_arg = json_path.to_str().unwrap().to_string();
        run(&parsed(&[
            "replay", "--topo", &topo, "--trace", &trace, "--json", &json_arg,
        ]))
        .unwrap();
        let report = read_report(&json_path);
        assert_eq!(text(&report, "checker"), "delta-net");
        assert!(matches!(report.get("median_us"), Some(Json::Float(_))));
        assert!(int(&report, "memory_bytes") > 0);
        // Keys keep their documented order: schema, checker, the summary
        // statistics, then the engine fields.
        let Json::Obj(pairs) = &report else {
            panic!("report is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema",
                "checker",
                "operations",
                "median_us",
                "average_us",
                "max_us",
                "pct_under_250us",
                "total_seconds",
                "packet_classes",
                "rules",
                "ops_with_loops",
                "memory_bytes",
                "allocated_atoms",
                "reclaimable_bounds",
                "compactions",
            ]
        );

        // whatif on the ring link n0 -> n1
        let w = run(&parsed(&[
            "whatif", "--topo", &topo, "--trace", &trace, "--src", "0", "--dst", "1", "--loops",
        ]))
        .unwrap();
        assert!(w.contains("affected packet classes"), "{w}");

        // audit: the converged SDN-IP data plane is loop-free.
        let a = run(&parsed(&["audit", "--topo", &topo, "--trace", &trace])).unwrap();
        assert!(a.contains("forwarding loops: 0"), "{a}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_reports_malformed_op_instead_of_crashing() {
        let dir = temp_dir("badop");
        let out = dir.to_str().unwrap().to_string();
        run(&parsed(&[
            "generate",
            "--dataset",
            "4switch",
            "--scale",
            "tiny",
            "--out",
            &out,
        ]))
        .unwrap();
        let topo = dir.join("4switch.topo").to_str().unwrap().to_string();
        let trace_path = dir.join("4switch.trace");
        // Append a removal of a rule that was never installed.
        let mut text = std::fs::read_to_string(&trace_path).unwrap();
        text.push_str("R 999999\n");
        std::fs::write(&trace_path, text).unwrap();
        let trace = trace_path.to_str().unwrap().to_string();
        for checker in ["deltanet", "veriflow"] {
            let err = run(&parsed(&[
                "replay",
                "--topo",
                &topo,
                "--trace",
                &trace,
                "--checker",
                checker,
            ]))
            .unwrap_err()
            .to_string();
            assert!(err.contains("unknown rule"), "{err}");
            assert!(err.contains("R 999999"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_with_compaction_reclaims_churn_garbage() {
        let dir = temp_dir("compact");
        let out = dir.to_str().unwrap().to_string();
        run(&parsed(&[
            "generate",
            "--dataset",
            "churn",
            "--scale",
            "tiny",
            "--out",
            &out,
        ]))
        .unwrap();
        let topo = dir.join("churn.topo").to_str().unwrap().to_string();
        let trace = dir.join("churn.trace").to_str().unwrap().to_string();
        let json_path = dir.join("churn.json");
        let json_arg = json_path.to_str().unwrap().to_string();
        // Eager compaction: every removal leaving garbage triggers a pass.
        let r = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--no-loops",
            "--compact",
            "1",
            "--json",
            &json_arg,
        ]))
        .unwrap();
        assert!(r.contains("compaction passes:"), "{r}");
        assert!(r.contains("reclaimable bounds: 0"), "{r}");
        let report = read_report(&json_path);
        assert!(int(&report, "allocated_atoms") > 0);
        assert_eq!(int(&report, "reclaimable_bounds"), 0);
        assert!(int(&report, "compactions") > 0);
        // The flag is deltanet-only.
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checker",
            "veriflow",
            "--compact",
            "1",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("only supported"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_replay_matches_single_engine_statistics() {
        let dir = temp_dir("sharded");
        let out = dir.to_str().unwrap().to_string();
        run(&parsed(&[
            "generate",
            "--dataset",
            "4switch",
            "--scale",
            "tiny",
            "--out",
            &out,
        ]))
        .unwrap();
        let topo = dir.join("4switch.topo").to_str().unwrap().to_string();
        let trace = dir.join("4switch.trace").to_str().unwrap().to_string();
        let json_path = dir.join("sharded.json");
        let json_arg = json_path.to_str().unwrap().to_string();

        // Per-op sharded replay.
        let r = run(&parsed(&[
            "replay", "--topo", &topo, "--trace", &trace, "--shards", "3",
        ]))
        .unwrap();
        assert!(r.contains("delta-net-sharded"), "{r}");
        assert!(r.contains("shards:             3"), "{r}");

        // Batched sharded replay with a pinned worker count and JSON output.
        let b = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--shards",
            "4",
            "--batch",
            "16",
            "--workers",
            "2",
            "--json",
            &json_arg,
        ]))
        .unwrap();
        assert!(b.contains("batched x16, 2 workers"), "{b}");
        let report = read_report(&json_path);
        assert_eq!(int(&report, "shards"), 4);
        assert_eq!(int(&report, "batch"), 16);
        assert_eq!(text(&report, "checker"), "delta-net-sharded");

        // Guard rails.
        let err = run(&parsed(&[
            "replay", "--topo", &topo, "--trace", &trace, "--batch", "8",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("require --shards"), "{err}");
        let err = run(&parsed(&[
            "replay", "--topo", &topo, "--trace", &trace, "--shards", "2", "--batch", "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checker",
            "veriflow",
            "--shards",
            "2",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("only supported"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_check_blackholes_pins_a_known_blackhole_trace() {
        // A 3-switch chain forwarding 10.0.0.0/8 to a terminal switch with
        // no rule: the traffic dies at s2 (see `deltanet::blackholes`).
        let dir = temp_dir("blackhole");
        let topo_path = dir.join("chain.topo");
        let trace_path = dir.join("chain.trace");
        std::fs::write(
            &topo_path,
            "node s0\nnode s1\nnode s2\nlink 0 1\nlink 1 2\n",
        )
        .unwrap();
        std::fs::write(&trace_path, "I 1 0 1 10.0.0.0/8 1\nI 2 1 2 10.0.0.0/8 1\n").unwrap();
        let topo = topo_path.to_str().unwrap().to_string();
        let trace = trace_path.to_str().unwrap().to_string();
        let json_path = dir.join("blackhole.json");
        let json_arg = json_path.to_str().unwrap().to_string();

        // Both the single and the sharded engine find exactly one blackhole.
        for extra in [&[][..], &["--shards", "2"][..]] {
            let mut argv = vec![
                "replay",
                "--topo",
                &topo,
                "--trace",
                &trace,
                "--check",
                "blackholes",
                "--json",
                &json_arg,
            ];
            argv.extend_from_slice(extra);
            let r = run(&parsed(&argv)).unwrap();
            assert!(r.contains("blackholes:         1"), "{r}");
            assert!(r.contains("blackhole at n2"), "{r}");
            assert_eq!(int(&read_report(&json_path), "blackholes"), 1);
        }

        // Unknown --check values and veriflow are rejected.
        let err = run(&parsed(&[
            "replay", "--topo", &topo, "--trace", &trace, "--check", "teapots",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown --check"), "{err}");
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checker",
            "veriflow",
            "--check",
            "blackholes",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("only supported"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_fields_declares_a_multifield_header_space() {
        // A 3-switch chain carrying 10.0.0.0/8 towards a terminal switch
        // (blackhole at s2), with an ACL deny at s0 dropping the source
        // range [10:20) — a genuinely dst x src data plane.
        let dir = temp_dir("fields");
        let topo_path = dir.join("chain.topo");
        let trace_path = dir.join("chain.trace");
        std::fs::write(
            &topo_path,
            "node s0\nnode s1\nnode s2\nlink 0 1\nlink 1 2\n",
        )
        .unwrap();
        std::fs::write(
            &trace_path,
            "I 1 0 1 10.0.0.0/8 1\nI 2 1 2 10.0.0.0/8 1\nI 3 0 drop 10.0.0.0/8 9 10:20\n",
        )
        .unwrap();
        let topo = topo_path.to_str().unwrap().to_string();
        let trace = trace_path.to_str().unwrap().to_string();

        // Without --fields the engine is single-field: the multi-field rule
        // is rejected cleanly, naming the disagreement.
        let err = run(&parsed(&["replay", "--topo", &topo, "--trace", &trace]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("secondary header field"), "{err}");

        // With --fields, single and sharded replays verify the dst x src
        // plane; the blackhole report renders the primary axis dotted-quad.
        for extra in [&[][..], &["--shards", "2"][..]] {
            let mut argv = vec![
                "replay",
                "--topo",
                &topo,
                "--trace",
                &trace,
                "--fields",
                "dst,src:8",
                "--check",
                "blackholes",
                "--monitor",
            ];
            argv.extend_from_slice(extra);
            let r = run(&parsed(&argv)).unwrap();
            assert!(r.contains("blackhole at n2"), "{r}");
            assert!(r.contains("[10.0.0.0 : 11.0.0.0)"), "{r}");
            assert!(
                r.contains("incremental vs rescan: 3 cross-checks, 0 mismatches"),
                "{r}"
            );
            assert!(r.contains("monitor matches full rescan: yes"), "{r}");
        }

        // audit accepts the same declaration.
        let a = run(&parsed(&[
            "audit",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--fields",
            "dst,src:8",
        ]))
        .unwrap();
        assert!(a.contains("forwarding loops: 0"), "{a}");

        // Guard rails: veriflow and --from-snapshot reject --fields, and a
        // malformed spec is an argument error.
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checker",
            "veriflow",
            "--fields",
            "dst,src:8",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("only supported"), "{err}");
        let err = run(&parsed(&[
            "replay", "--topo", &topo, "--trace", &trace, "--fields", "dst,vlan",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--fields"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_fields_reports_the_blackhole_replay_reports() {
        // s0 forwards 10/8 to s1 for every source; s1 only has a deny for
        // sources [8:16). Every other source dies at s1 — a blackhole no
        // label shows, because the deny owns s1's label bits.
        let dir = temp_dir("audit-fields");
        let topo_path = dir.join("pair.topo");
        let trace_path = dir.join("pair.trace");
        std::fs::write(&topo_path, "node s0\nnode s1\nlink 0 1\nlink 1 0\n").unwrap();
        std::fs::write(
            &trace_path,
            "I 1 0 1 10.0.0.0/8 5\nI 2 1 drop 10.0.0.0/8 5 8:16\n",
        )
        .unwrap();
        let topo = topo_path.to_str().unwrap().to_string();
        let trace = trace_path.to_str().unwrap().to_string();
        let shape = ["--topo", &topo, "--trace", &trace, "--fields", "dst,src:8"];

        let mut argv = vec!["replay", "--check", "blackholes"];
        argv.extend_from_slice(&shape);
        let replayed = run(&parsed(&argv)).unwrap();
        assert!(replayed.contains("blackholes:         1"), "{replayed}");
        let finding = "blackhole at n1 for 1 packet interval(s): [10.0.0.0 : 11.0.0.0)";
        assert!(replayed.contains(finding), "{replayed}");

        let mut argv = vec!["audit"];
        argv.extend_from_slice(&shape);
        let audited = run(&parsed(&argv)).unwrap();
        assert!(audited.contains("forwarding loops: 0"), "{audited}");
        assert!(audited.contains("blackholes: 1"), "{audited}");
        assert!(audited.contains(finding), "{audited}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_monitor_streams_violation_transitions() {
        // A loop raised and retracted inside the trace: r1 a->b, r2 b->a
        // (loop appears), then r2 withdrawn (loop resolves, the blackhole
        // at b re-appears because r1's traffic strands there).
        let dir = temp_dir("monitor");
        let topo_path = dir.join("loop.topo");
        let trace_path = dir.join("loop.trace");
        std::fs::write(&topo_path, "node a\nnode b\nlink 0 1\nlink 1 0\n").unwrap();
        std::fs::write(
            &trace_path,
            "I 1 0 1 10.0.0.0/8 1\nI 2 1 0 10.0.0.0/8 1\nR 2\n",
        )
        .unwrap();
        let topo = topo_path.to_str().unwrap().to_string();
        let trace = trace_path.to_str().unwrap().to_string();
        let json_path = dir.join("monitor.json");
        let json_arg = json_path.to_str().unwrap().to_string();

        // Single-engine and sharded monitored replays stream the same story.
        for extra in [&[][..], &["--shards", "3"][..]] {
            let mut argv = vec![
                "replay",
                "--topo",
                &topo,
                "--trace",
                &trace,
                "--monitor",
                "--json",
                &json_arg,
            ];
            argv.extend_from_slice(extra);
            let r = run(&parsed(&argv)).unwrap();
            assert!(r.contains("+ forwarding loop through n0 -> n1"), "{r}");
            assert!(r.contains("- forwarding loop through n0 -> n1"), "{r}");
            assert!(r.contains("+ blackhole at n1"), "{r}");
            assert!(r.contains("monitor matches full rescan: yes"), "{r}");
            assert!(
                r.contains("violations active:  1 (0 loops, 1 blackholes)"),
                "{r}"
            );
            let report = read_report(&json_path);
            assert_eq!(int(&report, "monitor_loops"), 0);
            assert_eq!(int(&report, "monitor_blackholes"), 1);
            assert_eq!(
                report.get("monitor_matches_rescan"),
                Some(&Json::Bool(true))
            );
        }

        // Batched sharded replay reports at window granularity.
        let b = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--monitor",
            "--shards",
            "2",
            "--batch",
            "2",
        ]))
        .unwrap();
        assert!(b.contains("ops 1..2: + forwarding loop"), "{b}");
        assert!(b.contains("monitor matches full rescan: yes"), "{b}");

        // The flag is deltanet-only.
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checker",
            "veriflow",
            "--monitor",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("only supported"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_save_load_timetravel_and_resume() {
        // The full persistence workflow on a tiny hand-written network: a
        // loop raised by two ops, snapshotted with its delta log, restored,
        // time-travelled, and finally resumed from with a removal trace.
        let dir = temp_dir("persist");
        let topo_path = dir.join("loop.topo");
        let trace_path = dir.join("loop.trace");
        std::fs::write(&topo_path, "node a\nnode b\nlink 0 1\nlink 1 0\n").unwrap();
        std::fs::write(&trace_path, "I 1 0 1 10.0.0.0/8 1\nI 2 1 0 10.0.0.0/8 1\n").unwrap();
        let topo = topo_path.to_str().unwrap().to_string();
        let trace = trace_path.to_str().unwrap().to_string();
        let snap = dir.join("state.snap").to_str().unwrap().to_string();
        let log = dir.join("state.dnlog").to_str().unwrap().to_string();

        // Save (monitored, with the recovery log).
        let s = run(&parsed(&[
            "snapshot",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--save",
            &snap,
            "--log",
            &log,
            "--monitor",
        ]))
        .unwrap();
        assert!(s.contains("wrote snapshot"), "{s}");
        assert!(s.contains("ops applied: 2"), "{s}");
        assert!(s.contains("rules: 2"), "{s}");

        // Plain restore and log-tail recovery agree (the log holds exactly
        // the snapshotted ops, so the tail is empty).
        for extra in [&[][..], &["--log", &log][..]] {
            let mut argv = vec!["snapshot", "--topo", &topo, "--load", &snap];
            argv.extend_from_slice(extra);
            let l = run(&parsed(&argv)).unwrap();
            assert!(l.contains("ops incorporated: 2"), "{l}");
            assert!(l.contains("violations active: 1"), "{l}");
            assert!(l.contains("forwarding loop"), "{l}");
        }

        // Time-travel: after op 1 only the blackhole at b exists (before
        // the snapshot's position, so it replays from scratch); after op 2
        // the loop is live (answered from the snapshot itself).
        let t1 = run(&parsed(&[
            "snapshot", "--topo", &topo, "--log", &log, "--at", "1",
        ]))
        .unwrap();
        assert!(t1.contains("violations after op 1"), "{t1}");
        assert!(t1.contains("blackhole at n1"), "{t1}");
        let t2 = run(&parsed(&[
            "snapshot", "--topo", &topo, "--log", &log, "--at", "2", "--load", &snap,
        ]))
        .unwrap();
        assert!(t2.contains("forwarding loop"), "{t2}");

        // Resume a replay from the snapshot: withdrawing r2 breaks the loop
        // and strands r1's traffic at b.
        let tail_path = dir.join("tail.trace");
        std::fs::write(&tail_path, "R 2\n").unwrap();
        let tail = tail_path.to_str().unwrap().to_string();
        let log2 = dir.join("tail.dnlog").to_str().unwrap().to_string();
        let json = dir.join("tail.json").to_str().unwrap().to_string();
        // The snapshot's config enables monitoring, so monitoring continues
        // (and is reported) automatically — no --monitor flag needed.
        let r = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &tail,
            "--from-snapshot",
            &snap,
            "--log",
            &log2,
            "--json",
            &json,
        ]))
        .unwrap();
        assert!(r.contains("resumed from snapshot: op 2"), "{r}");
        assert!(r.contains("delta log:          1 ops"), "{r}");
        assert!(r.contains("+ blackhole at n1"), "{r}");
        // The snapshot's standing loop is the baseline, so its end is
        // reported too.
        assert!(r.contains("- forwarding loop through n0 -> n1"), "{r}");
        assert!(r.contains("1 appeared, 1 resolved"), "{r}");
        assert!(r.contains("monitor matches full rescan: yes"), "{r}");
        let report = read_report(&json);
        assert_eq!(int(&report, "monitor_appeared"), 1);
        assert_eq!(int(&report, "monitor_resolved"), 1);

        // Guard rails: snapshot-incompatible flags, mode confusion, the
        // veriflow checker, and corrupted artifacts all fail cleanly.
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &tail,
            "--from-snapshot",
            &snap,
            "--shards",
            "2",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("cannot be combined"), "{err}");
        // --monitor on an already-monitored snapshot is rejected (the
        // snapshot's config governs; monitoring continued above without it).
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &tail,
            "--from-snapshot",
            &snap,
            "--monitor",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("redundant with this snapshot"),
            "{err}"
        );
        // --no-loops cannot override a restored snapshot's config either.
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &tail,
            "--from-snapshot",
            &snap,
            "--no-loops",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("--no-loops has no effect"),
            "{err}"
        );
        let err = run(&parsed(&["snapshot", "--topo", &topo])).unwrap_err();
        assert!(err.to_string().contains("exactly one of"), "{err}");
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &tail,
            "--checker",
            "veriflow",
            "--log",
            &log2,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("only supported"), "{err}");
        let bad = dir.join("bad.snap");
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes.truncate(bytes.len() - 4);
        std::fs::write(&bad, bytes).unwrap();
        let bad = bad.to_str().unwrap().to_string();
        let err = run(&parsed(&["snapshot", "--topo", &topo, "--load", &bad])).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rejects_unknown_checker() {
        let dir = temp_dir("badchecker");
        let out = dir.to_str().unwrap().to_string();
        run(&parsed(&[
            "generate",
            "--dataset",
            "4switch",
            "--scale",
            "tiny",
            "--out",
            &out,
        ]))
        .unwrap();
        let topo = dir.join("4switch.topo").to_str().unwrap().to_string();
        let trace = dir.join("4switch.trace").to_str().unwrap().to_string();
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checker",
            "magic",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown checker"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn whatif_rejects_missing_link() {
        let dir = temp_dir("badlink");
        let out = dir.to_str().unwrap().to_string();
        run(&parsed(&[
            "generate",
            "--dataset",
            "4switch",
            "--scale",
            "tiny",
            "--out",
            &out,
        ]))
        .unwrap();
        let topo = dir.join("4switch.topo").to_str().unwrap().to_string();
        let trace = dir.join("4switch.trace").to_str().unwrap().to_string();
        let err = run(&parsed(&[
            "whatif", "--topo", &topo, "--trace", &trace, "--src", "0", "--dst", "99",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no link"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_are_reported() {
        let err = run(&parsed(&[
            "replay",
            "--topo",
            "/nonexistent.topo",
            "--trace",
            "/nonexistent.trace",
        ]))
        .unwrap_err();
        assert!(matches!(err, CommandError::Io(_)));
    }

    #[test]
    fn recover_command_repairs_torn_tail() {
        // Save a snapshot + log, tear the log's tail by appending garbage,
        // then check strict recovery names the torn byte while --repair-tail
        // salvages the intact prefix.
        let dir = temp_dir("recover");
        let topo_path = dir.join("loop.topo");
        let trace_path = dir.join("loop.trace");
        std::fs::write(&topo_path, "node a\nnode b\nlink 0 1\nlink 1 0\n").unwrap();
        std::fs::write(&trace_path, "I 1 0 1 10.0.0.0/8 1\nI 2 1 0 10.0.0.0/8 1\n").unwrap();
        let topo = topo_path.to_str().unwrap().to_string();
        let trace = trace_path.to_str().unwrap().to_string();
        let snap = dir.join("state.snap").to_str().unwrap().to_string();
        let log = dir.join("state.dnlog").to_str().unwrap().to_string();
        run(&parsed(&[
            "snapshot",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--save",
            &snap,
            "--log",
            &log,
            "--monitor",
        ]))
        .unwrap();

        // A clean strict recover works and reports both ops.
        let r = run(&parsed(&[
            "recover",
            "--topo",
            &topo,
            "--snapshot",
            &snap,
            "--log",
            &log,
        ]))
        .unwrap();
        assert!(r.contains("ops incorporated: 2"), "{r}");
        assert!(!r.contains("torn tail repaired"), "{r}");

        // Tear the tail: a varint length claiming bytes that never arrived.
        let clean_len = std::fs::metadata(&log).unwrap().len();
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(&[0x09, 0xAB]);
        std::fs::write(&log, &bytes).unwrap();

        let err = run(&parsed(&[
            "recover",
            "--topo",
            &topo,
            "--snapshot",
            &snap,
            "--log",
            &log,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        let err = run(&parsed(&[
            "snapshot", "--topo", &topo, "--load", &snap, "--log", &log,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");

        for cmd in [
            &[
                "recover",
                "--topo",
                &topo,
                "--snapshot",
                &snap,
                "--log",
                &log,
                "--repair-tail",
            ][..],
            &[
                "snapshot",
                "--topo",
                &topo,
                "--load",
                &snap,
                "--log",
                &log,
                "--repair-tail",
            ][..],
        ] {
            // Repair truncates on disk, so re-tear before each command.
            let mut bytes = std::fs::read(&log).unwrap();
            bytes.truncate(clean_len as usize);
            bytes.extend_from_slice(&[0x09, 0xAB]);
            std::fs::write(&log, &bytes).unwrap();
            let r = run(&parsed(cmd)).unwrap();
            assert!(r.contains("ops incorporated: 2"), "{r}");
            assert!(
                r.contains(&format!(
                    "torn tail repaired: truncated at byte {clean_len} (2 bytes dropped)"
                )),
                "{r}"
            );
            assert!(r.contains("forwarding loop"), "{r}");
        }
        // Repair truncated the file back to the clean prefix.
        assert_eq!(std::fs::metadata(&log).unwrap().len(), clean_len);

        // Guard rails.
        let err = run(&parsed(&["recover", "--topo", &topo])).unwrap_err();
        assert!(err.to_string().contains("either --dir"), "{err}");
        let err = run(&parsed(&[
            "snapshot",
            "--topo",
            &topo,
            "--load",
            &snap,
            "--repair-tail",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("requires --log"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_durability_levels_produce_complete_logs() {
        let dir = temp_dir("durability");
        let topo_path = dir.join("loop.topo");
        let trace_path = dir.join("loop.trace");
        std::fs::write(&topo_path, "node a\nnode b\nlink 0 1\nlink 1 0\n").unwrap();
        std::fs::write(&trace_path, "I 1 0 1 10.0.0.0/8 1\nI 2 1 0 10.0.0.0/8 1\n").unwrap();
        let topo = topo_path.to_str().unwrap().to_string();
        let trace = trace_path.to_str().unwrap().to_string();

        for level in ["buffered", "flush", "fsync"] {
            let log = dir
                .join(format!("{level}.dnlog"))
                .to_str()
                .unwrap()
                .to_string();
            let r = run(&parsed(&[
                "replay",
                "--topo",
                &topo,
                "--trace",
                &trace,
                "--log",
                &log,
                "--durability",
                level,
            ]))
            .unwrap();
            assert!(r.contains(&format!("(durability: {level})")), "{r}");
            // The log is complete at every level: time-travel to the last op
            // sees the loop both ops together create.
            let t = run(&parsed(&[
                "snapshot", "--topo", &topo, "--log", &log, "--at", "2",
            ]))
            .unwrap();
            assert!(t.contains("violations after op 2 (of 2 logged): 1"), "{t}");
            assert!(t.contains("forwarding loop"), "{t}");
        }

        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--log",
            dir.join("x.dnlog").to_str().unwrap(),
            "--durability",
            "turbo",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("invalid value"), "{err}");
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--durability",
            "fsync",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("only applies"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_checkpoint_end_to_end() {
        // Replay through a checkpoint directory with a tight cadence, then
        // recover from the directory and check every op was incorporated.
        let dir = temp_dir("checkpoint");
        let out = dir.to_str().unwrap().to_string();
        run(&parsed(&[
            "generate",
            "--dataset",
            "4switch",
            "--scale",
            "tiny",
            "--out",
            &out,
        ]))
        .unwrap();
        let topo = dir.join("4switch.topo").to_str().unwrap().to_string();
        let trace = dir.join("4switch.trace").to_str().unwrap().to_string();
        let ckpt = dir.join("ckpt").to_str().unwrap().to_string();
        let json = dir.join("ckpt.json").to_str().unwrap().to_string();

        let r = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "8",
            "--retain",
            "2",
            "--json",
            &json,
        ]))
        .unwrap();
        assert!(r.contains("checkpoint dir:"), "{r}");
        assert!(r.contains("(every 8 ops, retain 2)"), "{r}");
        // Every trace op was applied and logged.
        let trace_len: usize = r
            .lines()
            .find_map(|l| l.strip_prefix("operations:"))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(
            r.contains(&format!("ops applied:        {trace_len}")),
            "{r}"
        );
        let report = read_report(&json);
        assert_eq!(int(&report, "checkpoint_every"), 8);
        assert_eq!(text(&report, "durability"), "flush");

        // The directory holds atomic snapshot + rotated segment artifacts.
        let names: Vec<String> = std::fs::read_dir(&ckpt)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names
                .iter()
                .any(|n| n.starts_with("snap-") && n.ends_with(".dnsnap")),
            "{names:?}"
        );
        assert!(
            names
                .iter()
                .any(|n| n.starts_with("log-") && n.ends_with(".dnlog")),
            "{names:?}"
        );

        let r = run(&parsed(&[
            "recover",
            "--topo",
            &topo,
            "--dir",
            &ckpt,
            "--repair-tail",
        ]))
        .unwrap();
        assert!(
            r.contains(&format!("ops incorporated:   {trace_len}")),
            "{r}"
        );
        assert!(!r.contains("torn tail repaired"), "{r}");

        // A second run into the same directory is refused — it would
        // interleave two histories — and the first run stays recoverable.
        let short_path = dir.join("short.trace");
        let full = std::fs::read_to_string(&trace).unwrap();
        let head: Vec<&str> = full.lines().take(5).collect();
        std::fs::write(&short_path, head.join("\n") + "\n").unwrap();
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            short_path.to_str().unwrap(),
            "--checkpoint",
            &ckpt,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("already holds"), "{err}");
        assert!(err.to_string().contains(&ckpt), "{err}");
        let r = run(&parsed(&["recover", "--topo", &topo, "--dir", &ckpt])).unwrap();
        assert!(
            r.contains(&format!("ops incorporated:   {trace_len}")),
            "{r}"
        );

        // Guard rails: checkpoint-only options and incompatible modes.
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checkpoint-every",
            "8",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("require --checkpoint"), "{err}");
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checkpoint",
            &ckpt,
            "--log",
            dir.join("x.dnlog").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("cannot be combined"), "{err}");
        let err = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--checker",
            "veriflow",
            "--checkpoint",
            &ckpt,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("only supported"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_checkpoint_carries_the_full_report() {
        // --checkpoint is a journal beside the same replay loop, so the
        // report is the common one — monitor stream, cross-check and
        // compaction statistics included — plus the checkpoint lines.
        let dir = temp_dir("checkpoint-report");
        let out = dir.to_str().unwrap().to_string();
        run(&parsed(&[
            "generate",
            "--dataset",
            "churn",
            "--scale",
            "tiny",
            "--out",
            &out,
        ]))
        .unwrap();
        let topo = dir.join("churn.topo").to_str().unwrap().to_string();
        let trace = dir.join("churn.trace").to_str().unwrap().to_string();
        let ckpt = dir.join("ckpt").to_str().unwrap().to_string();
        let json = dir.join("ckpt.json").to_str().unwrap().to_string();
        let r = run(&parsed(&[
            "replay",
            "--topo",
            &topo,
            "--trace",
            &trace,
            "--shards",
            "2",
            "--batch",
            "16",
            "--monitor",
            "--compact",
            "1",
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "100",
            "--json",
            &json,
        ]))
        .unwrap();
        assert!(r.contains("checkpoint dir:"), "{r}");
        assert!(r.contains("compaction passes:"), "{r}");
        assert!(r.contains("violation events:"), "{r}");
        assert!(r.contains("monitor matches full rescan: yes"), "{r}");
        let report = read_report(&json);
        assert_eq!(
            report.get("monitor_matches_rescan"),
            Some(&Json::Bool(true))
        );
        assert!(int(&report, "monitor_cross_checks") > 0);
        assert_eq!(int(&report, "monitor_cross_check_mismatches"), 0);
        assert!(int(&report, "checkpoints_written") > 1);
        assert!(int(&report, "memory_bytes") > 0);
        assert!(int(&report, "compactions") > 0);
        assert_eq!(int(&report, "checkpoint_every"), 100);
        std::fs::remove_dir_all(&dir).ok();
    }
}
