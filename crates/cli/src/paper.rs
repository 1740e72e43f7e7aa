//! `deltanet paper` — the tables and figures of the paper's evaluation.
//!
//! Each function builds the datasets it needs at the requested
//! [`ScaleProfile`], runs the measurement, and returns a plain-text report in
//! the shape of the corresponding table or figure (§4.3, appendices C–D).
//! The per-operation timing and the summary statistics (median / average /
//! percentage under 250 µs) are shared with `deltanet replay`.

use deltanet::{DeltaNet, DeltaNetConfig};
use netmodel::checker::{Checker, UpdateReport};
use netmodel::rule::Rule;
use netmodel::topology::LinkId;
use netmodel::trace::Op;
use service::Json;
use std::time::{Duration, Instant};
use veriflow_ri::{VeriflowConfig, VeriflowRi};
use workloads::{build, build_all, Dataset, DatasetId, ScaleProfile};

/// Per-operation wall-clock times, in microseconds.
#[derive(Clone, Debug, Default)]
pub(crate) struct Timings {
    /// One entry per replayed operation, in microseconds.
    pub(crate) micros: Vec<f64>,
}

impl Timings {
    /// An empty series with room for `ops` entries.
    pub(crate) fn with_capacity(ops: usize) -> Timings {
        Timings {
            micros: Vec::with_capacity(ops),
        }
    }

    /// Summary statistics over the measured operations.
    pub(crate) fn summary(&self) -> Summary {
        if self.micros.is_empty() {
            return Summary::default();
        }
        let mut sorted = self.micros.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let total: f64 = sorted.iter().sum();
        let average = total / sorted.len() as f64;
        let under_250 = sorted.iter().filter(|&&t| t < 250.0).count();
        Summary {
            count: sorted.len(),
            median_us: median,
            average_us: average,
            max_us: sorted[sorted.len() - 1],
            pct_under_250us: 100.0 * under_250 as f64 / sorted.len() as f64,
            total_seconds: total / 1e6,
        }
    }

    /// The empirical CDF sampled at the given time points (µs): for each
    /// point, the fraction of operations that completed within it.
    pub(crate) fn cdf(&self, points: &[f64]) -> Vec<(f64, f64)> {
        let mut sorted = self.micros.clone();
        sorted.sort_by(f64::total_cmp);
        points
            .iter()
            .map(|&p| {
                let under = sorted.partition_point(|&t| t <= p);
                (p, under as f64 / sorted.len().max(1) as f64)
            })
            .collect()
    }
}

/// Summary statistics in the shape of Table 3's rows.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Summary {
    /// Number of operations measured.
    pub(crate) count: usize,
    /// Median per-operation time (µs).
    pub(crate) median_us: f64,
    /// Average per-operation time (µs).
    pub(crate) average_us: f64,
    /// Maximum per-operation time (µs).
    pub(crate) max_us: f64,
    /// Percentage of operations completing in under 250 µs.
    pub(crate) pct_under_250us: f64,
    /// Total wall-clock time (seconds).
    pub(crate) total_seconds: f64,
}

/// The result of replaying a trace against a checker with per-op timing.
#[derive(Clone, Debug)]
struct ReplayResult {
    /// Per-operation times.
    timings: Timings,
    /// Number of operations whose per-update check reported a loop.
    ops_with_loops: usize,
    /// The maximum `affected_classes` over all operations (Appendix C).
    max_affected_classes: usize,
    /// Number of packet classes maintained at the end (atoms / max ECs).
    final_class_count: usize,
}

/// Replays `ops` against `checker`, timing each operation (which includes
/// the per-update property check the checker is configured with).
fn replay_timed<C: Checker>(checker: &mut C, ops: &[Op]) -> ReplayResult {
    let mut timings = Timings::with_capacity(ops.len());
    let mut ops_with_loops = 0usize;
    let mut max_affected = 0usize;
    for op in ops {
        let start = Instant::now();
        let report: UpdateReport = checker.try_apply(op).expect("a dataset op applies");
        let elapsed = start.elapsed();
        timings.micros.push(elapsed.as_secs_f64() * 1e6);
        if report.has_loop() {
            ops_with_loops += 1;
        }
        max_affected = max_affected.max(report.affected_classes);
    }
    ReplayResult {
        timings,
        ops_with_loops,
        max_affected_classes: max_affected,
        final_class_count: checker.class_count(),
    }
}

/// Formats a number with thousands separators (for table output).
fn with_commas(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats bytes as a human-readable MB string.
fn megabytes(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Renders a plain-text table: a header row and aligned columns.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&format!(
        "{}\n",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    ));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// The consistent data plane used by the what-if experiments (§4.3.2): for
/// the synthetic and 4Switch datasets, all rule insertions; for the Airtel
/// datasets, the snapshot left after the whole trace (failures recovered).
fn data_plane_rules(ds: &Dataset) -> Vec<Rule> {
    match ds.id {
        DatasetId::Airtel1 | DatasetId::Airtel2 => ds.trace.final_data_plane(),
        _ => ds
            .trace
            .ops()
            .iter()
            .filter_map(|op| match op {
                Op::Insert(r) => Some(*r),
                Op::Remove(_) => None,
            })
            .collect(),
    }
}

/// Loads a data plane into a Delta-net checker with per-update checks off.
fn load_deltanet(ds: &Dataset, rules: &[Rule]) -> DeltaNet {
    let mut net = DeltaNet::new(
        ds.topology.topology.clone(),
        DeltaNetConfig {
            check_loops_per_update: false,
            ..Default::default()
        },
    );
    for r in rules {
        net.insert_rule(*r);
    }
    net
}

/// Loads a data plane into a Veriflow-RI checker with per-update checks off.
fn load_veriflow(ds: &Dataset, rules: &[Rule]) -> VeriflowRi {
    let mut vf = VeriflowRi::new(
        ds.topology.topology.clone(),
        VeriflowConfig {
            check_loops_per_update: false,
            ..Default::default()
        },
    );
    for r in rules {
        vf.insert_rule(*r);
    }
    vf
}

/// **Table 2** — dataset sizes (nodes, links, operations).
fn table2(scale: ScaleProfile) -> String {
    let datasets = build_all(scale);
    let rows: Vec<Vec<String>> = datasets
        .iter()
        .map(|ds| {
            let row = ds.table2_row();
            vec![
                row.name,
                with_commas(row.nodes),
                with_commas(row.links),
                with_commas(row.operations),
                with_commas(row.peak_rules),
            ]
        })
        .collect();
    format!(
        "Table 2: Data sets used for evaluating Delta-net (scale: {scale:?})\n\n{}",
        render_table(
            &["Data set", "Nodes", "Max Links", "Operations", "Peak rules"],
            &rows
        )
    )
}

/// The per-dataset measurement behind Table 3 and Figure 8.
struct Table3Row {
    /// Dataset name.
    name: String,
    /// Total atoms after the replay.
    atoms: usize,
    /// Per-operation timing of Delta-net (update + loop check).
    timings: Timings,
    /// Operations that reported at least one forwarding loop.
    ops_with_loops: usize,
}

/// Runs Delta-net (with per-update loop checking) over every dataset.
fn run_table3(scale: ScaleProfile) -> Vec<Table3Row> {
    build_all(scale)
        .into_iter()
        .map(|ds| {
            let mut net = DeltaNet::new(ds.topology.topology.clone(), DeltaNetConfig::default());
            let result = replay_timed(&mut net, ds.trace.ops());
            Table3Row {
                name: ds.id.name().to_string(),
                atoms: net.atom_count(),
                timings: result.timings,
                ops_with_loops: result.ops_with_loops,
            }
        })
        .collect()
}

/// **Table 3** — total atoms, median/average per-update processing time and
/// the percentage of updates under 250 µs, per dataset.
fn table3(rows: &[Table3Row], scale: ScaleProfile) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let s = r.timings.summary();
            vec![
                r.name.clone(),
                with_commas(r.atoms),
                format!("{:.1}", s.median_us),
                format!("{:.1}", s.average_us),
                format!("{:.1}%", s.pct_under_250us),
                with_commas(s.count),
                with_commas(r.ops_with_loops),
            ]
        })
        .collect();
    format!(
        "Table 3: Delta-net rule insertions and removals, incl. loop check (scale: {scale:?})\n\n{}",
        render_table(
            &[
                "Data set",
                "Total atoms",
                "Median (us)",
                "Average (us)",
                "< 250us",
                "Operations",
                "Ops w/ loops"
            ],
            &table_rows
        )
    )
}

/// **Figure 8** — the CDF of per-update processing times, as CSV plus an
/// ASCII rendering.
fn fig8(rows: &[Table3Row]) -> String {
    let points: Vec<f64> = (0..=50).map(|i| 10f64.powf(i as f64 * 0.1)).collect(); // 1 µs .. 100 ms
    let mut out = String::from("Figure 8: CDF of per-update processing time (microseconds)\n\n");
    out.push_str("CSV (one column per dataset):\nmicros");
    for r in rows {
        out.push_str(&format!(",{}", r.name.replace(' ', "")));
    }
    out.push('\n');
    let cdfs: Vec<Vec<(f64, f64)>> = rows.iter().map(|r| r.timings.cdf(&points)).collect();
    for (i, &p) in points.iter().enumerate() {
        out.push_str(&format!("{p:.1}"));
        for cdf in &cdfs {
            out.push_str(&format!(",{:.4}", cdf[i].1));
        }
        out.push('\n');
    }
    // ASCII plot: one row per dataset at selected percent-complete marks.
    out.push_str("\nASCII CDF (fraction of updates completed within t):\n");
    let marks = [
        1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 10_000.0,
    ];
    let mut table_rows = Vec::new();
    for r in rows {
        let cdf = r.timings.cdf(&marks);
        let mut row = vec![r.name.clone()];
        row.extend(cdf.iter().map(|(_, f)| format!("{:.2}", f)));
        table_rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("Data set".to_string())
        .chain(marks.iter().map(|m| format!("{m}us")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    out.push_str(&render_table(&header_refs, &table_rows));
    out
}

/// How many link-failure queries to pose per dataset in Table 4.
const WHATIF_QUERIES_PER_DATASET: usize = 25;

/// Timed passes of those queries per Table 4 column; the column reports
/// the fastest, so two builds compare on more than one noisy pass.
const WHATIF_PASSES: usize = 5;

/// **Table 4** — average "what if this link fails" query time for
/// Veriflow-RI, Delta-net, and Delta-net with loop checking.
fn table4(scale: ScaleProfile) -> String {
    let datasets = build_all(scale);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for ds in &datasets {
        let rules = data_plane_rules(ds);
        let net = load_deltanet(ds, &rules);
        let vf = load_veriflow(ds, &rules);

        // Query the most heavily used links (by Delta-net label size), which
        // is where the differences matter; the paper queries every link.
        let mut links: Vec<(LinkId, usize)> = ds
            .topology
            .topology
            .links()
            .iter()
            .map(|l| (l.id, net.label(l.id).len()))
            .filter(|&(_, n)| n > 0)
            .collect();
        links.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let queries: Vec<LinkId> = links
            .iter()
            .take(WHATIF_QUERIES_PER_DATASET)
            .map(|&(l, _)| l)
            .collect();
        if queries.is_empty() {
            continue;
        }

        // One timed pass of the queries, in ms per query; each column is
        // the fastest of its passes. A Delta-net pass runs on a fresh copy
        // of the engine, made outside the timer, so each +Loops pass starts
        // on a never-queried engine, whose first loop-checking query seeds
        // its loop state, and both Delta-net columns query the same kind of
        // copy.
        let pass = |f: &dyn Fn(LinkId)| -> f64 {
            let start = Instant::now();
            for &l in &queries {
                f(l);
            }
            start.elapsed().as_secs_f64() * 1e3 / queries.len() as f64
        };
        let fastest = |run: &dyn Fn() -> f64| {
            (0..WHATIF_PASSES)
                .map(|_| run())
                .fold(f64::INFINITY, f64::min)
        };
        let on_copy = |check_loops: bool| {
            fastest(&|| {
                let copy = net.clone();
                pass(&|l| {
                    let _ = copy.what_if_link_failure(l, check_loops);
                })
            })
        };
        let vf_ms = fastest(&|| {
            pass(&|l| {
                let _ = vf.what_if_link_failure(l, false);
            })
        });
        let dn_ms = on_copy(false);
        let dn_loops_ms = on_copy(true);
        // +Loops after a write: one copy whose loop state a first query
        // seeded, then per query one rule of the plane removed and
        // re-inserted outside the timer, so every timed query reads a new
        // plane version, with its loop state repaired by the two writes.
        let toggled = rules[0];
        let after_write_ms = fastest(&|| {
            let mut copy = net.clone();
            let _ = copy.what_if_link_failure(queries[0], true);
            let mut total = Duration::ZERO;
            for &l in &queries {
                copy.remove_rule(toggled.id);
                copy.insert_rule(toggled);
                let start = Instant::now();
                let _ = copy.what_if_link_failure(l, true);
                total += start.elapsed();
            }
            total.as_secs_f64() * 1e3 / queries.len() as f64
        });

        rows.push(vec![
            ds.id.name().to_string(),
            with_commas(rules.len()),
            format!("{vf_ms:.3}"),
            format!("{dn_ms:.3}"),
            format!("{dn_loops_ms:.3}"),
            format!("{after_write_ms:.3}"),
            format!("{:.1}x", vf_ms / dn_ms.max(1e-6)),
        ]);
    }
    format!(
        "Table 4: link-failure \"what if\" queries, average per-query time in ms, \
         fastest of {WHATIF_PASSES} passes ({WHATIF_QUERIES_PER_DATASET} most-used links per \
         data plane, scale: {scale:?}). +Loops is the amortised cost of the \
         {WHATIF_QUERIES_PER_DATASET} queries on one plane version: each pass starts on a fresh \
         copy of a never-queried engine, which seeds its loop state on its first query. \
         +Loops after a write times each query right after one rule of the plane is \
         removed and re-inserted, on a copy whose loop state is already seeded.\n\n{}",
        render_table(
            &[
                "Data plane",
                "Rules",
                "Veriflow-RI (ms)",
                "Delta-net (ms)",
                "+Loops (ms)",
                "+Loops after a write (ms)",
                "Speed-up"
            ],
            &rows
        )
    )
}

/// **Table 5 / Appendix D** — memory usage of Delta-net and Veriflow-RI on
/// the consistent data planes.
fn table5(scale: ScaleProfile) -> String {
    let datasets = build_all(scale);
    let mut rows = Vec::new();
    for ds in &datasets {
        let rules = data_plane_rules(ds);
        let net = load_deltanet(ds, &rules);
        let vf = load_veriflow(ds, &rules);
        let dn_bytes = net.memory_bytes();
        let vf_bytes = vf.memory_bytes();
        rows.push(vec![
            ds.id.name().to_string(),
            with_commas(rules.len()),
            megabytes(vf_bytes),
            megabytes(dn_bytes),
            format!("{:.1}x", dn_bytes as f64 / vf_bytes.max(1) as f64),
        ]);
    }
    format!(
        "Table 5 (Appendix D): estimated memory usage in MB (scale: {scale:?})\n\n{}",
        render_table(
            &[
                "Data set",
                "Rules",
                "Veriflow-RI (MB)",
                "Delta-net (MB)",
                "Ratio"
            ],
            &rows
        )
    )
}

/// **Appendix C** — the maximum number of equivalence classes affected by a
/// single rule insertion when Veriflow-RI runs on the RF 1755 dataset,
/// contrasted with Delta-net's affected atoms on the same trace.
fn appendix_c(scale: ScaleProfile) -> String {
    let ds = build(DatasetId::Rf1755, scale);
    // Only the insertion phase, as in the original experiment.
    let inserts: Vec<Op> = ds
        .trace
        .ops()
        .iter()
        .copied()
        .filter(|op| op.is_insert())
        .collect();
    let mut vf = VeriflowRi::new(
        ds.topology.topology.clone(),
        VeriflowConfig {
            check_loops_per_update: false,
            ..Default::default()
        },
    );
    let vf_result = replay_timed(&mut vf, &inserts);
    let mut net = DeltaNet::new(
        ds.topology.topology.clone(),
        DeltaNetConfig {
            check_loops_per_update: false,
            ..Default::default()
        },
    );
    let dn_result = replay_timed(&mut net, &inserts);
    format!(
        "Appendix C: RF 1755 insertion phase (scale: {scale:?})\n\n{}",
        render_table(
            &["Metric", "Veriflow-RI", "Delta-net"],
            &[
                vec![
                    "Max classes affected by one insert".to_string(),
                    with_commas(vf_result.max_affected_classes),
                    with_commas(dn_result.max_affected_classes),
                ],
                vec![
                    "Average insert time (us)".to_string(),
                    format!("{:.1}", vf_result.timings.summary().average_us),
                    format!("{:.1}", dn_result.timings.summary().average_us),
                ],
                vec![
                    "Final packet classes".to_string(),
                    with_commas(vf_result.final_class_count),
                    with_commas(dn_result.final_class_count),
                ],
            ]
        )
    )
}

/// The names `deltanet paper <table>` accepts, in report order.
pub(crate) const TABLES: [&str; 6] = ["table2", "table3", "fig8", "table4", "table5", "appendix-c"];

/// One table or figure by name; `None` for a name not in [`TABLES`].
pub(crate) fn report(table: &str, scale: ScaleProfile) -> Option<String> {
    Some(match table {
        "table2" => table2(scale),
        "table3" => table3(&run_table3(scale), scale),
        "fig8" => fig8(&run_table3(scale)),
        "table4" => table4(scale),
        "table5" => table5(scale),
        "appendix-c" => appendix_c(scale),
        _ => return None,
    })
}

/// The full evaluation report: every table and figure, blank-line
/// separated (Table 3 and Figure 8 share one replay).
pub(crate) fn full_report(scale: ScaleProfile) -> String {
    let rows = run_table3(scale);
    [
        table2(scale),
        table3(&rows, scale),
        fig8(&rows),
        table4(scale),
        table5(scale),
        appendix_c(scale),
    ]
    .join("\n")
}

/// The summary-statistics fields of the `deltanet replay --json` report,
/// rounded to three decimals (below a nanosecond a timing is noise).
pub(crate) fn summary_json(s: &Summary) -> Vec<(&'static str, Json)> {
    let rounded = |x: f64| Json::Float((x * 1000.0).round() / 1000.0);
    vec![
        ("operations", Json::int(s.count)),
        ("median_us", rounded(s.median_us)),
        ("average_us", rounded(s.average_us)),
        ("max_us", rounded(s.max_us)),
        ("pct_under_250us", rounded(s.pct_under_250us)),
        ("total_seconds", rounded(s.total_seconds)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::rule::RuleId;
    use netmodel::topology::Topology;

    #[test]
    fn summary_statistics() {
        let t = Timings {
            micros: vec![1.0, 2.0, 3.0, 4.0, 1000.0],
        };
        let s = t.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.median_us, 3.0);
        assert!((s.average_us - 202.0).abs() < 1e-9);
        assert_eq!(s.max_us, 1000.0);
        assert_eq!(s.pct_under_250us, 80.0);
    }

    #[test]
    fn empty_timings_summary_is_zero() {
        let s = Timings::default().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.average_us, 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let t = Timings {
            micros: vec![1.0, 5.0, 10.0, 50.0],
        };
        let cdf = t.cdf(&[0.5, 1.0, 7.0, 100.0]);
        assert_eq!(cdf[0].1, 0.0);
        assert_eq!(cdf[1].1, 0.25);
        assert_eq!(cdf[2].1, 0.5);
        assert_eq!(cdf[3].1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn replay_timed_counts_loops() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let mut net = DeltaNet::with_topology(topo);
        let ops = vec![
            Op::Insert(Rule::forward(
                RuleId(1),
                "10.0.0.0/8".parse().unwrap(),
                1,
                a,
                ab,
            )),
            Op::Insert(Rule::forward(
                RuleId(2),
                "10.0.0.0/8".parse().unwrap(),
                1,
                b,
                ba,
            )),
            Op::Remove(RuleId(2)),
        ];
        let result = replay_timed(&mut net, &ops);
        assert_eq!(result.timings.micros.len(), 3);
        assert_eq!(result.ops_with_loops, 1);
        assert!(result.max_affected_classes >= 1);
        assert_eq!(result.final_class_count, net.atom_count());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(with_commas(1234567), "1,234,567");
        assert_eq!(with_commas(42), "42");
        assert_eq!(megabytes(10 * 1024 * 1024), "10.0");
        let table = render_table(&["a", "b"], &[vec!["1".to_string(), "2".to_string()]]);
        assert!(table.contains("a"));
        assert!(table.contains("1"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn table2_lists_all_datasets() {
        let t = table2(ScaleProfile::Tiny);
        for name in ["Berkeley", "INET", "RF 1755", "Airtel 1", "4Switch"] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
    }

    #[test]
    fn table3_and_fig8_on_tiny_scale() {
        let rows = run_table3(ScaleProfile::Tiny);
        let t3 = table3(&rows, ScaleProfile::Tiny);
        assert_eq!(rows.len(), 8);
        assert!(t3.contains("Total atoms"));
        for r in &rows {
            assert!(r.atoms > 0, "{} has no atoms", r.name);
            assert!(!r.timings.micros.is_empty());
        }
        let f8 = fig8(&rows);
        assert!(f8.contains("CSV"));
        assert!(f8.contains("Berkeley"));
    }

    #[test]
    fn table4_and_table5_on_tiny_scale() {
        let t4 = table4(ScaleProfile::Tiny);
        assert!(t4.contains("Veriflow-RI (ms)"));
        assert!(t4.contains("Delta-net (ms)"));
        assert!(t4.contains("+Loops after a write (ms)"));
        let t5 = table5(ScaleProfile::Tiny);
        assert!(t5.contains("Delta-net (MB)"));
    }

    #[test]
    fn appendix_c_reports_classes() {
        let c = appendix_c(ScaleProfile::Tiny);
        assert!(c.contains("Max classes affected"));
    }

    #[test]
    fn data_plane_rules_synthetic_vs_airtel() {
        let synthetic = build(DatasetId::Berkeley, ScaleProfile::Tiny);
        let rules = data_plane_rules(&synthetic);
        assert_eq!(rules.len(), synthetic.trace.insert_count());
        let airtel = build(DatasetId::Airtel1, ScaleProfile::Tiny);
        let rules = data_plane_rules(&airtel);
        assert!(!rules.is_empty());
        assert!(rules.len() < airtel.trace.insert_count());
    }
}
