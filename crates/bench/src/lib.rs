//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§4).
//!
//! Each `table*`/`fig*` function returns the formatted report the
//! `reproduce` binary prints; the underlying measurement functions return
//! data for the Criterion benches and integration tests. See DESIGN.md's
//! experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
//!
//! All speedup experiments run on the virtual-time simulator
//! ([`ccm2_sched::sim`]) with the calibrated Firefly cost model — the
//! evaluation host has one CPU, so wall-clock speedup is unobservable;
//! the simulator executes the real compiler tasks and charges their real
//! work (see DESIGN.md's substitution table).
//!
//! The service, fleet and fault drills build on [`drill`], the library
//! they share with the root integration tests.

use std::sync::Arc;

pub mod drill;

use drill::{exec_name, fault_compile, fault_module, unit_map};

use ccm2::{compile_concurrent, ConcurrentOutput, Executor, Options};
use ccm2_sched::{render_watchtool, SimConfig};
use ccm2_sema::declare::HeadingMode;
use ccm2_sema::stats::LookupStats;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_support::defs::DefLibrary;
use ccm2_support::work::{CountingMeter, Work};
use ccm2_support::Interner;
use ccm2_workload::{generate_suite, suite_stats, synth_module, GeneratedModule, SynthParams};

/// Processor counts swept by the paper (Figures 1–3, Table 3).
pub const PROCS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Compiles one module on the simulator with `procs` processors.
pub fn sim_compile(m: &GeneratedModule, procs: u32, options_base: Options) -> ConcurrentOutput {
    let mut options = options_base;
    options.executor = Executor::Sim(SimConfig::firefly(procs));
    let out = compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()),
        Arc::new(Interner::new()),
        options,
    );
    assert!(
        out.is_ok(),
        "{} failed to compile: {:?}",
        m.name,
        &out.diagnostics[..out.diagnostics.len().min(3)]
    );
    out
}

/// Compiles one source string on the simulator.
pub fn sim_compile_src(source: &str, procs: u32) -> ConcurrentOutput {
    let out = compile_concurrent(
        source,
        Arc::new(DefLibrary::new()),
        Arc::new(Interner::new()),
        Options {
            executor: Executor::Sim(SimConfig::firefly(procs)),
            ..Options::default()
        },
    );
    assert!(
        out.is_ok(),
        "{:?}",
        &out.diagnostics[..out.diagnostics.len().min(3)]
    );
    out
}

/// The *sequential* compiler's virtual time for a module: its real work
/// units weighted by the same cost model (no scheduling overheads — that
/// difference is exactly the §4.2 "concurrency overhead" experiment).
pub fn seq_virtual_time(m: &GeneratedModule) -> u64 {
    let meter = Arc::new(CountingMeter::new());
    let out = ccm2_seq::compile_with(
        &m.source,
        &m.defs,
        Arc::new(Interner::new()),
        Arc::clone(&meter) as Arc<dyn ccm2_support::WorkMeter>,
        HeadingMode::CopyToChild,
    );
    assert!(
        out.is_ok(),
        "{}: {:?}",
        m.name,
        &out.diagnostics[..out.diagnostics.len().min(3)]
    );
    let cost = SimConfig::firefly(1).cost;
    Work::ALL
        .iter()
        .map(|&w| (meter.units(w) as f64 * cost[w as usize]).ceil() as u64)
        .sum()
}

/// Calibration constant mapping virtual units to the paper's "seconds":
/// chosen so the largest suite program lands near the paper's largest
/// sequential compile time (107.85 s).
pub fn units_per_second(suite_t1_max: u64) -> f64 {
    suite_t1_max as f64 / 107.85
}

/// One module's virtual compile times across processor counts.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Module name.
    pub name: String,
    /// `t[p-1]` = virtual time on `p` processors.
    pub t: Vec<u64>,
}

impl SpeedupRow {
    /// Self-relative speedup on `p` processors.
    pub fn speedup(&self, p: u32) -> f64 {
        self.t[0] as f64 / self.t[p as usize - 1] as f64
    }
}

/// Measures the whole suite across all processor counts (the bulk of the
/// evaluation; a few minutes of real time).
pub fn measure_suite(procs: &[u32]) -> Vec<SpeedupRow> {
    let suite = generate_suite();
    suite
        .iter()
        .map(|m| SpeedupRow {
            name: m.name.clone(),
            t: procs
                .iter()
                .map(|&p| {
                    sim_compile(m, p, Options::default())
                        .report
                        .virtual_time
                        .expect("sim time")
                })
                .collect(),
        })
        .collect()
}

/// Measures `Synth.mod` across processor counts.
pub fn measure_synth(procs: &[u32]) -> SpeedupRow {
    let src = synth_module(SynthParams::default());
    SpeedupRow {
        name: "Synth".to_string(),
        t: procs
            .iter()
            .map(|&p| {
                sim_compile_src(&src, p)
                    .report
                    .virtual_time
                    .expect("sim time")
            })
            .collect(),
    }
}

/// The paper's quartile sizes (0–5 s: 10 programs, 5–10 s: 8, 10–30 s:
/// 10, 30–109 s: 9). We split the suite by 1-processor-time rank into the
/// same group sizes.
pub const QUARTILE_SIZES: [usize; 4] = [10, 8, 10, 9];

/// Partitions suite rows (sorted by 1-processor time) into the paper's
/// quartile groups; returns per-quartile index lists.
pub fn quartiles(rows: &[SpeedupRow]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| rows[i].t[0]);
    let mut out = Vec::new();
    let mut at = 0;
    for &sz in &QUARTILE_SIZES {
        let take = sz.min(order.len().saturating_sub(at));
        out.push(order[at..at + take].to_vec());
        at += take;
    }
    out
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// Regenerates Table 1: gross characteristics of the test suite.
pub fn table1() -> String {
    let suite = generate_suite();
    let stats = suite_stats(&suite);
    let mut times: Vec<u64> = suite.iter().map(seq_virtual_time).collect();
    times.sort_unstable();
    let ups = units_per_second(*times.last().expect("nonempty"));
    let sec = |u: u64| u as f64 / ups;
    let mut out = String::new();
    out.push_str("Table 1: Description of Test Suite (regenerated)\n");
    out.push_str("Attribute                 |  Minimum |   Median |  Maximum\n");
    out.push_str("--------------------------+----------+----------+---------\n");
    out.push_str(&format!(
        "Module size (bytes)       | {:>8} | {:>8} | {:>8}\n",
        stats.size.0, stats.size.1, stats.size.2
    ));
    out.push_str(&format!(
        "Seq. Compile Time (sec)   | {:>8.2} | {:>8.2} | {:>8.2}\n",
        sec(times[0]),
        sec(times[times.len() / 2]),
        sec(times[times.len() - 1])
    ));
    out.push_str(&format!(
        "Imported Interfaces       | {:>8} | {:>8} | {:>8}\n",
        stats.interfaces.0, stats.interfaces.1, stats.interfaces.2
    ));
    out.push_str(&format!(
        "Import Nesting Depth      | {:>8} | {:>8} | {:>8}\n",
        stats.depth.0, stats.depth.1, stats.depth.2
    ));
    out.push_str(&format!(
        "Number of Procedures      | {:>8} | {:>8} | {:>8}\n",
        stats.procedures.0, stats.procedures.1, stats.procedures.2
    ));
    out.push_str(&format!(
        "Number of Streams         | {:>8} | {:>8} | {:>8}\n",
        stats.streams.0, stats.streams.1, stats.streams.2
    ));
    out.push_str(
        "(paper: sizes 2,371/13,180/336,312; time 2.30/10.27/107.85 s; \
         interfaces 4/17/133; depth 1/5/12; procedures 2/16/221; streams 15/37/315)\n",
    );
    out
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// Regenerates Table 2: identifier-lookup statistics for one compilation
/// of the whole test suite under Skeptical handling (8 processors).
pub fn table2() -> String {
    let suite = generate_suite();
    let total = LookupStats::new();
    for m in &suite {
        let out = sim_compile(m, 8, Options::default());
        total.merge(&out.stats);
    }
    let mut out = String::new();
    out.push_str("Table 2: Identifier Lookup Statistics (regenerated, Skeptical, 8 procs)\n\n");
    out.push_str("Simple identifiers:\n");
    out.push_str("Found when  scope   completeness |   number |     %\n");
    out.push_str("---------------------------------+----------+------\n");
    for (label, n, pct) in total.simple_rows() {
        out.push_str(&format!("{label:<33}| {n:>8} | {pct:>5.2}\n"));
    }
    out.push_str(&format!(
        "total simple lookups: {}\n\n",
        total.simple_total()
    ));
    out.push_str("Qualified identifiers:\n");
    out.push_str("Found when  completeness |   number |     %\n");
    out.push_str("-------------------------+----------+------\n");
    for (label, n, pct) in total.qualified_rows() {
        out.push_str(&format!("{label:<25}| {n:>8} | {pct:>5.2}\n"));
    }
    out.push_str(&format!(
        "total qualified lookups: {}\nDKY blockages: {}\n",
        total.qualified_total(),
        total.dky_blockages()
    ));
    out.push_str(
        "(paper: simple first-try-self 57.87%, builtin 15.14%, outer-search 17.73%, \
         after-DKY 0.08%; qualified first-try-complete 93.30%, after-DKY 2.70%)\n",
    );
    out
}

// ---------------------------------------------------------------------
// Table 3 / Figures 1–3
// ---------------------------------------------------------------------

/// The measured speedup summary backing Table 3 and Figures 1–3.
#[derive(Clone, Debug)]
pub struct SpeedupSummary {
    /// Per-module rows.
    pub rows: Vec<SpeedupRow>,
    /// `Synth.mod` row.
    pub synth: SpeedupRow,
    /// Index of the best human module ("VM" in the paper).
    pub best: usize,
    /// Quartile membership (indices into `rows`).
    pub quartiles: Vec<Vec<usize>>,
}

/// Measures everything Table 3 needs.
pub fn measure_all() -> SpeedupSummary {
    let rows = measure_suite(&PROCS);
    let synth = measure_synth(&PROCS);
    let best = (0..rows.len())
        .max_by(|&a, &b| {
            rows[a]
                .speedup(8)
                .partial_cmp(&rows[b].speedup(8))
                .expect("comparable")
        })
        .expect("nonempty suite");
    let quartiles = quartiles(&rows);
    SpeedupSummary {
        synth,
        best,
        quartiles,
        rows,
    }
}

/// Formats Table 3 from a measurement.
pub fn table3(s: &SpeedupSummary) -> String {
    let mut out = String::new();
    out.push_str("Table 3: Summary of Speedup Data (regenerated, self-relative)\n");
    out.push_str("  N |      Test Suite      | BestCase      |        Quartiles\n");
    out.push_str("    |  Min   Mean    Max   | Synth   Best  |   Q1    Q2    Q3    Q4\n");
    out.push_str("----+----------------------+---------------+------------------------\n");
    for &p in &PROCS[1..] {
        let speedups: Vec<f64> = s.rows.iter().map(|r| r.speedup(p)).collect();
        let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
        let max = speedups.iter().cloned().fold(0.0, f64::max);
        let mn = mean(speedups.iter().cloned());
        let q: Vec<f64> = s
            .quartiles
            .iter()
            .map(|ix| mean(ix.iter().map(|&i| s.rows[i].speedup(p))))
            .collect();
        out.push_str(&format!(
            "  {p} | {min:>5.2} {mn:>6.2} {max:>6.2} | {:>5.2} {:>6.2}  | {:>5.2} {:>5.2} {:>5.2} {:>5.2}\n",
            s.synth.speedup(p),
            s.rows[s.best].speedup(p),
            q[0],
            q[1],
            q[2],
            q[3],
        ));
    }
    out.push_str(
        "(paper at N=8: min 1.95, mean 4.34, max 5.47; Synth 6.67, VM 5.32; \
         Q1 2.43, Q2 2.89, Q3 4.19, Q4 5.02)\n",
    );
    out
}

/// Figure 1: test-suite self-relative speedup (min/mean/max curves).
pub fn fig1(s: &SpeedupSummary) -> String {
    let mut out = String::from("Figure 1: Test Suite Self Relative Speedup\n");
    out.push_str(&ascii_curves(
        &PROCS,
        &[
            (
                "mean",
                PROCS
                    .iter()
                    .map(|&p| mean(s.rows.iter().map(|r| r.speedup(p))))
                    .collect(),
            ),
            (
                "min",
                PROCS
                    .iter()
                    .map(|&p| s.rows.iter().map(|r| r.speedup(p)).fold(f64::MAX, f64::min))
                    .collect(),
            ),
            (
                "max",
                PROCS
                    .iter()
                    .map(|&p| s.rows.iter().map(|r| r.speedup(p)).fold(0.0, f64::max))
                    .collect(),
            ),
        ],
    ));
    out
}

/// Figure 2: best-case speedup (Synth, best module, linear reference).
pub fn fig2(s: &SpeedupSummary) -> String {
    let mut out = String::from("Figure 2: Best Case Self Relative Speedup\n");
    out.push_str(&ascii_curves(
        &PROCS,
        &[
            ("linear", PROCS.iter().map(|&p| p as f64).collect()),
            ("Synth", PROCS.iter().map(|&p| s.synth.speedup(p)).collect()),
            (
                "best module",
                PROCS.iter().map(|&p| s.rows[s.best].speedup(p)).collect(),
            ),
        ],
    ));
    out
}

/// Figure 3: speedup by compile-time quartiles.
pub fn fig3(s: &SpeedupSummary) -> String {
    let mut out = String::from("Figure 3: Speedup by Quartiles\n");
    let curves: Vec<(String, Vec<f64>)> = s
        .quartiles
        .iter()
        .enumerate()
        .map(|(qi, ix)| {
            (
                format!("Q{}", qi + 1),
                PROCS
                    .iter()
                    .map(|&p| mean(ix.iter().map(|&i| s.rows[i].speedup(p))))
                    .collect(),
            )
        })
        .collect();
    let refs: Vec<(&str, Vec<f64>)> = curves
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    out.push_str(&ascii_curves(&PROCS, &refs));
    out
}

/// Renders small ASCII speedup-vs-processors curves.
fn ascii_curves(procs: &[u32], curves: &[(&str, Vec<f64>)]) -> String {
    let mut out = String::new();
    out.push_str("  N |");
    for (name, _) in curves {
        out.push_str(&format!(" {name:>11} |"));
    }
    out.push('\n');
    for (ix, &p) in procs.iter().enumerate() {
        out.push_str(&format!("  {p} |"));
        for (_, v) in curves {
            out.push_str(&format!(" {:>11.2} |", v[ix]));
        }
        out.push('\n');
    }
    let max = curves
        .iter()
        .flat_map(|(_, v)| v.iter().cloned())
        .fold(1.0, f64::max);
    for (name, v) in curves {
        out.push_str(&format!("{name:>14}: "));
        for val in v {
            let h = ((val / max) * 40.0).round() as usize;
            out.push_str(&format!("{}|", "=".repeat(h)));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Figures 4, 5, 7
// ---------------------------------------------------------------------

/// Figure 4: WatchTool snapshots — one compilation per quartile plus
/// `Synth.mod`, on 8 simulated processors.
pub fn fig4() -> String {
    let suite = generate_suite();
    let mut rows: Vec<(usize, u64)> = suite
        .iter()
        .enumerate()
        .map(|(i, m)| (i, seq_virtual_time(m)))
        .collect();
    rows.sort_by_key(|&(_, t)| t);
    let picks = [
        rows[rows.len() / 8].0,
        rows[rows.len() * 3 / 8].0,
        rows[rows.len() * 5 / 8].0,
        rows[rows.len() * 7 / 8].0,
    ];
    let mut out = String::from(
        "Figure 4: WatchTool snapshots (8 processors; one program per quartile, then Synth)\n\n",
    );
    for (qi, &i) in picks.iter().enumerate() {
        let m = &suite[i];
        let run = sim_compile(m, 8, Options::default());
        out.push_str(&format!(
            "-- Q{} ({}; {} streams, vtime {}):\n{}\n",
            qi + 1,
            m.name,
            run.streams,
            run.report.virtual_time.expect("sim"),
            render_watchtool(&run.report.trace, 8, 100)
        ));
    }
    let synth = synth_module(SynthParams::default());
    let run = sim_compile_src(&synth, 8);
    out.push_str(&format!(
        "-- Synth.mod (vtime {}):\n{}\n",
        run.report.virtual_time.expect("sim"),
        render_watchtool(&run.report.trace, 8, 100)
    ));
    out
}

/// Figure 5: the task structure per stream kind (structural; printed from
/// the implementation rather than measured).
pub fn fig5() -> String {
    "Figure 5: Compiler Task Structure (as implemented)\n\
     \n\
     definition-module stream   implementation stream      procedure stream\n\
     ------------------------   ---------------------      ----------------\n\
     Lexor(def)                 Lexor(main)                (tokens from Splitter)\n\
     Importer(def)              Importer(main)\n\
     Parser/DeclAnalyzer(def)   Splitter ----------------> [stream created,\n\
                                Parser/DeclAnalyzer(main)   gated on heading event]\n\
                                StmtAnalyzer/CodeGen(body) Parser/DeclAnalyzer(proc)\n\
                                                           StmtAnalyzer/CodeGen(proc)\n\
     \n\
     All streams feed the Merge step (concatenation of per-procedure code\n\
     units, any order). 2-5 tasks per stream, as in the paper.\n\
     Priority order (2.3.4, extended): Lexor > Splitter > CacheSplice >\n\
     Importer > DefModParse > ModuleParse > ProcParse > Analyze >\n\
     LongCodeGen > ShortCodeGen > Merge. CacheSplice (warm incremental\n\
     runs) outranks everything that follows the split so cached units\n\
     land before live parsing competes for workers; Analyze slots between\n\
     parsing and code generation.\n"
        .to_string()
}

/// Figure 7: the activity view of one typical large compilation.
pub fn fig7() -> String {
    let suite = generate_suite();
    let m = &suite[30];
    let run = sim_compile(m, 8, Options::default());
    format!(
        "Figure 7: Concurrent Compiler Processor Activity ({}, 8 processors)\n\
         {}\nutilization: {:.2}  tasks: {}  vtime: {}\n\
         (expected shape: lexing early; def-module and main parses in the\n\
         middle; a lull while DKYs and procedure headings resolve; then\n\
         dense statement-analysis/code-generation to the end)\n",
        m.name,
        render_watchtool(&run.report.trace, 8, 110),
        run.report.trace.utilization(8),
        run.report.tasks_run,
        run.report.virtual_time.expect("sim"),
    )
}

// ---------------------------------------------------------------------
// Text experiments: overhead, DKY strategies, heading alternatives
// ---------------------------------------------------------------------

/// §4.2: concurrent compiler on one processor vs the sequential compiler
/// (paper: 4.3% slower).
pub fn overhead() -> String {
    let suite = generate_suite();
    let mut ratios = Vec::new();
    let mut out = String::from("Concurrency overhead: sim(1 processor) vs sequential compiler\n");
    for m in &suite {
        let seq = seq_virtual_time(m);
        let conc = sim_compile(m, 1, Options::default())
            .report
            .virtual_time
            .expect("sim");
        ratios.push(conc as f64 / seq as f64);
    }
    let mean_ratio = mean(ratios.iter().cloned());
    out.push_str(&format!(
        "mean slowdown: {:.1}% (paper: 4.3%); range {:.1}%..{:.1}%\n",
        (mean_ratio - 1.0) * 100.0,
        (ratios.iter().cloned().fold(f64::MAX, f64::min) - 1.0) * 100.0,
        (ratios.iter().cloned().fold(0.0, f64::max) - 1.0) * 100.0,
    ));
    out
}

/// §2.2: DKY strategy choice caused about 10% variation in compiler
/// performance.
pub fn dky_strategies() -> String {
    let suite = generate_suite();
    // The larger half of the suite exercises DKY meaningfully.
    let subset: Vec<&GeneratedModule> = suite.iter().skip(18).collect();
    let mut out =
        String::from("DKY strategy comparison (8 processors, total suite virtual time)\n");
    let mut totals = Vec::new();
    for strategy in DkyStrategy::ALL {
        let total: u64 = subset
            .iter()
            .map(|m| {
                sim_compile(
                    m,
                    8,
                    Options {
                        strategy,
                        ..Options::default()
                    },
                )
                .report
                .virtual_time
                .expect("sim")
            })
            .sum();
        totals.push((strategy, total));
        out.push_str(&format!("  {:<12} {total:>12} units\n", strategy.name()));
    }
    let best = totals.iter().map(|&(_, t)| t).min().expect("nonempty");
    let worst = totals.iter().map(|&(_, t)| t).max().expect("nonempty");
    out.push_str(&format!(
        "variation worst/best: {:.1}% (paper: about 10%)\n",
        (worst as f64 / best as f64 - 1.0) * 100.0
    ));
    out
}

/// §2.4: heading alternative 3 (reprocess in both scopes) vs alternative 1
/// (copy to child) — paper: about 3% slower.
pub fn heading_alternatives() -> String {
    let suite = generate_suite();
    let subset: Vec<&GeneratedModule> = suite.iter().skip(18).collect();
    let mut out = String::from("Procedure-heading information flow (2.4), 8 processors\n");
    let mut totals = Vec::new();
    for (label, mode) in [
        ("alternative 1 (copy to child)", HeadingMode::CopyToChild),
        ("alternative 3 (reprocess)", HeadingMode::Reprocess),
    ] {
        let total: u64 = subset
            .iter()
            .map(|m| {
                sim_compile(
                    m,
                    8,
                    Options {
                        heading_mode: mode,
                        ..Options::default()
                    },
                )
                .report
                .virtual_time
                .expect("sim")
            })
            .sum();
        totals.push(total);
        out.push_str(&format!("  {label:<32} {total:>12} units\n"));
    }
    out.push_str(&format!(
        "alternative 3 slower by: {:.1}% (paper: about 3%)\n",
        (totals[1] as f64 / totals[0] as f64 - 1.0) * 100.0
    ));
    out
}

/// §2.3.2 ablation: Supervisors (blocked workers are rescheduled onto
/// eligible tasks) versus plain WorkCrews (blocked workers just wait).
/// The paper extended WorkCrews precisely because compiler tasks block;
/// with rescheduling disabled, some compilations get slower and some
/// wedge outright (every processor stuck on a DKY chain) — which is the
/// point.
pub fn workcrews() -> String {
    let suite = generate_suite();
    let picks = [8usize, 18, 26, 30];
    let mut out = String::from(
        "Supervisors vs plain WorkCrews (8 processors; rescheduling of blocked workers off)\n",
    );
    for &i in &picks {
        let m = &suite[i];
        let supervisors = sim_compile(m, 8, Options::default())
            .report
            .virtual_time
            .expect("sim");
        let mut cfg = SimConfig::firefly(8);
        cfg.reschedule_blocked = false;
        let m2 = m.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let out = compile_concurrent(
                &m2.source,
                Arc::new(m2.defs.clone()),
                Arc::new(Interner::new()),
                Options {
                    executor: Executor::Sim(cfg),
                    ..Options::default()
                },
            );
            out.report.virtual_time.expect("sim")
        }));
        match result {
            Ok(workcrews) => out.push_str(&format!(
                "  {:<10} supervisors {:>9}  workcrews {:>9}  (+{:.1}%)\n",
                m.name,
                supervisors,
                workcrews,
                (workcrews as f64 / supervisors as f64 - 1.0) * 100.0
            )),
            Err(_) => out.push_str(&format!(
                "  {:<10} supervisors {:>9}  workcrews DEADLOCKED (all workers blocked)\n",
                m.name, supervisors
            )),
        }
    }
    out.push_str(
        "(the paper extended WorkCrews to handle blockable tasks for exactly this reason)\n",
    );
    out
}

// ---------------------------------------------------------------------
// Static analysis: lint counts and analysis-phase speedup
// ---------------------------------------------------------------------

/// The lint categories `ccm2-analysis` emits, with the message substring
/// that identifies each (used only for report bucketing).
pub const LINT_CATEGORIES: [(&str, &str); 6] = [
    ("use-before-init", "before initialization"),
    ("unreachable", "unreachable code after"),
    ("unused-local", "unused local declaration"),
    ("unused-import", "unused import"),
    ("nested-re-lock", "nested re-LOCK"),
    ("lock-re-entry", "may re-enter the locking module"),
];

/// The elapsed span covered by `Analyze` tasks in a sim trace: last end
/// minus first start. Total analysis *work* is constant across processor
/// counts; the span shrinks as the per-procedure lint passes overlap.
pub fn analysis_span(trace: &ccm2_sched::Trace) -> u64 {
    let mut lo = u64::MAX;
    let mut hi = 0;
    for s in &trace.segments {
        if s.kind == ccm2_sched::TaskKind::Analyze {
            lo = lo.min(s.start);
            hi = hi.max(s.end);
        }
    }
    hi.saturating_sub(lo.min(hi))
}

/// Regenerates the static-analysis report: per-category lint counts over
/// the lint-seeded 37-module suite (sequential reference vs the
/// concurrent compiler), and the analysis-phase speedup on 1–8 simulated
/// processors.
pub fn analyze() -> String {
    let suite: Vec<GeneratedModule> = (0..ccm2_workload::SUITE_SIZE)
        .map(|i| {
            let mut p = ccm2_workload::suite_params(i);
            p.lint_seeds = true;
            ccm2_workload::generate(&p)
        })
        .collect();
    let mut out =
        String::from("Static analysis over the 37-module suite (lint-seeded variant)\n\n");

    // Lint counts: sequential reference, then the concurrent compiler on
    // 8 simulated processors — the totals must agree.
    let mut seq_counts = [0usize; LINT_CATEGORIES.len()];
    let mut conc_counts = [0usize; LINT_CATEGORIES.len()];
    let mut seq_total = 0usize;
    let mut conc_total = 0usize;
    for m in &suite {
        let seq = ccm2_seq::compile_full(
            &m.source,
            &m.defs,
            Arc::new(Interner::new()),
            Arc::new(ccm2_support::work::NullMeter),
            HeadingMode::CopyToChild,
            true,
        );
        assert!(
            seq.is_ok(),
            "{}: {:?}",
            m.name,
            &seq.diagnostics[..3.min(seq.diagnostics.len())]
        );
        let conc = sim_compile(
            m,
            8,
            Options {
                analyze: true,
                ..Options::default()
            },
        );
        for (diags, counts, total) in [
            (&seq.diagnostics, &mut seq_counts, &mut seq_total),
            (&conc.diagnostics, &mut conc_counts, &mut conc_total),
        ] {
            for d in diags.iter() {
                for (ix, (_, needle)) in LINT_CATEGORIES.iter().enumerate() {
                    if d.message.contains(needle) {
                        counts[ix] += 1;
                        *total += 1;
                    }
                }
            }
        }
    }
    out.push_str("Lint category     | sequential | concurrent(8)\n");
    out.push_str("------------------+------------+--------------\n");
    for (ix, (label, _)) in LINT_CATEGORIES.iter().enumerate() {
        out.push_str(&format!(
            "{label:<18}| {:>10} | {:>13}\n",
            seq_counts[ix], conc_counts[ix]
        ));
    }
    out.push_str(&format!(
        "total             | {seq_total:>10} | {conc_total:>13}  ({})\n\n",
        if seq_counts == conc_counts {
            "identical"
        } else {
            "MISMATCH"
        }
    ));

    // Analysis-phase speedup: elapsed Analyze span summed over the suite,
    // per processor count.
    let spans: Vec<u64> = PROCS
        .iter()
        .map(|&p| {
            suite
                .iter()
                .map(|m| {
                    analysis_span(
                        &sim_compile(
                            m,
                            p,
                            Options {
                                analyze: true,
                                ..Options::default()
                            },
                        )
                        .report
                        .trace,
                    )
                })
                .sum()
        })
        .collect();
    out.push_str("Analysis-phase elapsed span (suite total, virtual units)\n");
    out.push_str("  N |        span |  speedup\n");
    out.push_str("----+-------------+---------\n");
    for (ix, &p) in PROCS.iter().enumerate() {
        out.push_str(&format!(
            "  {p} | {:>11} | {:>7.2}\n",
            spans[ix],
            spans[0] as f64 / spans[ix] as f64
        ));
    }
    out.push_str(
        "(per-procedure lint passes run as Supervisors tasks and overlap on\n\
         multiple processors; the span at N=8 must beat N=1)\n",
    );
    out
}

/// §2.1 ablation: *early* splitting (during lexical analysis, the paper's
/// contribution) versus splitting at parse time (prior designs — all
/// parsing and declaration analysis serialized, code generation still
/// parallel per procedure).
pub fn early_split() -> String {
    let suite = generate_suite();
    let picks = [12usize, 22, 30, 36];
    let mut out = String::from(
        "Early splitting (2.1) vs splitting during parsing (8 processors, speedup vs 1 processor)\n",
    );
    for &i in &picks {
        let m = &suite[i];
        let t1 = sim_compile(m, 1, Options::default())
            .report
            .virtual_time
            .expect("sim");
        let with_split = sim_compile(m, 8, Options::default())
            .report
            .virtual_time
            .expect("sim");
        let without = sim_compile(
            m,
            8,
            Options {
                early_split: false,
                ..Options::default()
            },
        )
        .report
        .virtual_time
        .expect("sim");
        out.push_str(&format!(
            "  {:<10} early-split {:>5.2}x   parse-time split {:>5.2}x\n",
            m.name,
            t1 as f64 / with_split as f64,
            t1 as f64 / without as f64,
        ));
    }
    out.push_str(
        "(the paper credits its speedups to aggressive early splitting; prior\n\
         compilers that split during parsing saturate at the serial front end —\n\
         compare Vandevoorde's 2.5–3.3x on large programs)\n",
    );
    out
}

/// Incremental recompilation report: cold-vs-warm virtual time over the
/// 37-module suite after a one-procedure edit, at P ∈ {1, 4, 8}.
///
/// Cold populates an empty in-memory store; warm rebuilds the whole
/// suite after one procedure body of one module changed, so every other
/// stream resplices from the cache. The warm/cold ratio isolates what
/// the cache saves *on top of* task-level concurrency.
pub fn incr() -> String {
    use ccm2_incr::{ArtifactStore, IncrStats, MemStore};
    use ccm2_workload::{apply_edits, body_edits};

    let suite = generate_suite();
    let edited_index = 17;
    let edited = apply_edits(&suite[edited_index], &body_edits(1, 0xED17));
    assert_ne!(suite[edited_index].source, edited.source, "edit must land");
    let mut out = String::from(
        "Incremental recompilation (content-addressed cache, in-memory store)\n\
         cold: full 37-module suite against an empty store;\n\
         warm: full rebuild after editing one procedure body in suite[17]\n\n",
    );
    out.push_str("  N |   cold time |   warm time | speedup | hit rate | spliced | recompiled\n");
    out.push_str("----+-------------+-------------+---------+----------+---------+-----------\n");
    for &p in &[1u32, 4, 8] {
        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        let opts = || Options {
            incremental: Some(Arc::clone(&store)),
            ..Options::default()
        };
        let mut cold_total = 0u64;
        for m in &suite {
            cold_total += sim_compile(m, p, opts()).report.virtual_time.expect("sim");
        }
        let mut warm_total = 0u64;
        let mut stats = IncrStats::default();
        for (i, m) in suite.iter().enumerate() {
            let target = if i == edited_index { &edited } else { m };
            let w = sim_compile(target, p, opts());
            warm_total += w.report.virtual_time.expect("sim");
            stats.absorb(w.incr.expect("incremental active"));
        }
        out.push_str(&format!(
            "  {p} | {cold_total:>11} | {warm_total:>11} | {:>6.2}x | {:>7.1}% | {:>7} | {:>10}\n",
            cold_total as f64 / warm_total as f64,
            100.0 * stats.hit_rate(),
            stats.spliced,
            stats.recompiled,
        ));
    }
    out.push_str(
        "(a warm rebuild replaces each hit stream's Parser/DeclAnalyzer and\n\
         StmtAnalyzer/CodeGen tasks with one CacheSplice task; only the edited\n\
         procedure — plus any procedures nested inside it — recompiles)\n",
    );
    out
}

/// The `reproduce -- locks` experiment: the interprocedural lock-order
/// analysis end to end. Proves (1) the static diagnostics are
/// byte-identical across the sequential compiler and the concurrent one
/// under all 4 DKY strategies × both executors; (2) every runtime
/// deadlock the wait-for-graph detector finds on the seeded drill set
/// is also predicted statically — zero false negatives; (3) a warm
/// incremental re-analysis after a single-procedure edit recomputes
/// only the dirty summary plus its fixpoint dependents.
pub fn locks() -> String {
    use ccm2_incr::{ArtifactStore, MemStore};
    use ccm2_sched::WaitForGraph;
    use ccm2_support::ids::EventId;

    let m = ccm2_workload::generate(&ccm2_workload::GenParams {
        lock_seeds: true,
        ..ccm2_workload::GenParams::small("Lk", 0x10C)
    });
    // Interner-independent rendering; every lock diagnostic lives in
    // Main.mod, which is FileId(0) in both compilers.
    let render = |diags: &[ccm2_support::diag::Diagnostic]| -> Vec<String> {
        diags
            .iter()
            .filter(|d| d.file == ccm2_support::source::FileId(0))
            .map(|d| {
                format!(
                    "{:?}@{}..{}: {}",
                    d.severity, d.span.lo, d.span.hi, d.message
                )
            })
            .collect()
    };

    let seq = ccm2_seq::compile_full(
        &m.source,
        &m.defs,
        Arc::new(Interner::new()),
        Arc::new(ccm2_support::work::NullMeter),
        HeadingMode::CopyToChild,
        true,
    );
    assert!(
        seq.is_ok(),
        "{:?}",
        &seq.diagnostics[..seq.diagnostics.len().min(3)]
    );
    let baseline = render(&seq.diagnostics);
    let s = seq.locks.clone().expect("analysis ran");
    let lock_msgs: Vec<String> = seq
        .diagnostics
        .iter()
        .filter(|d| d.message.contains("lock-order cycle") || d.message.contains("may re-LOCK"))
        .map(|d| d.message.clone())
        .collect();
    let mut out =
        String::from("Interprocedural lock-order analysis (call graph + procedure summaries)\n\n");
    out.push_str(&format!(
        "static pass over the seeded module: {} units, {} fixpoint rounds,\n\
         {} lock-order edges, {} cycle(s), {} finding(s)\n\n",
        s.units, s.rounds, s.edges, s.cycles, s.findings
    ));

    // (1) Determinism matrix: seq vs every strategy × both executors.
    out.push_str("diagnostic byte-identity vs sequential reference\n");
    out.push_str("  strategy    |    sim(3) | threads(2)\n");
    out.push_str("--------------+-----------+-----------\n");
    for strategy in DkyStrategy::ALL {
        let mut cells: Vec<&str> = Vec::new();
        for threads in [false, true] {
            let options = Options {
                analyze: true,
                strategy,
                executor: if threads {
                    Executor::Threads(2)
                } else {
                    Executor::Sim(SimConfig::firefly(3))
                },
                ..Options::default()
            };
            let conc = compile_concurrent(
                &m.source,
                Arc::new(m.defs.clone()),
                Arc::new(Interner::new()),
                options,
            );
            assert!(conc.is_ok(), "{strategy:?}: {:?}", &conc.diagnostics[..3]);
            assert_eq!(
                render(&conc.diagnostics),
                baseline,
                "{strategy:?} threads={threads}: diagnostics diverged"
            );
            assert_eq!(
                conc.locks.as_ref().map(|l| l.findings),
                Some(s.findings),
                "{strategy:?} threads={threads}: finding count diverged"
            );
            cells.push("identical");
        }
        out.push_str(&format!(
            "  {:<11} | {:>9} | {:>9}\n",
            format!("{strategy:?}"),
            cells[0],
            cells[1]
        ));
    }

    // (2) Runtime cross-validation: drive the executors' wait-for-graph
    // detector with each drill schedule (thread holds its outer lock,
    // waits for the one its callee acquires) and check the runtime
    // verdict against the static prediction.
    out.push_str("\nruntime wait-for-graph drills vs static prediction\n");
    out.push_str("  scenario     | runtime  | static    | verdict\n");
    out.push_str("---------------+----------+-----------+--------\n");
    for sc in ccm2_workload::lock_seed_scenarios() {
        let mut locks_seen: Vec<&str> = Vec::new();
        let mut id_of = |lock: &'static str| -> EventId {
            match locks_seen.iter().position(|&l| l == lock) {
                Some(i) => EventId(i as u32),
                None => {
                    locks_seen.push(lock);
                    EventId((locks_seen.len() - 1) as u32)
                }
            }
        };
        let mut g = WaitForGraph::new();
        for &(entry, held, wants) in &sc.threads {
            let held_ev = id_of(held);
            let wants_ev = id_of(wants);
            g.add_waiter(entry, vec![wants_ev]);
            g.add_signaler(held_ev, entry);
            g.name_event(held_ev, held);
            g.name_event(wants_ev, wants);
        }
        let runtime = g.find_cycle();
        assert_eq!(
            runtime.is_some(),
            sc.deadlocks,
            "{}: runtime verdict unexpected",
            sc.name
        );
        let predicted = match sc.cycle.len() {
            0 => false,
            1 => lock_msgs.iter().any(|msg| {
                msg.contains("may re-LOCK") && msg.contains(&format!("`{}`", sc.cycle[0]))
            }),
            _ => lock_msgs.iter().any(|msg| {
                msg.contains("lock-order cycle")
                    && sc.cycle.iter().all(|l| msg.contains(&format!("`{l}`")))
            }),
        };
        // The acceptance bar: zero static false negatives on the drills.
        assert!(
            !sc.deadlocks || predicted,
            "{}: runtime deadlock NOT statically predicted (false negative)",
            sc.name
        );
        out.push_str(&format!(
            "  {:<12} | {:<8} | {:<9} | {}\n",
            sc.name,
            if sc.deadlocks { "deadlock" } else { "clean" },
            if predicted { "predicted" } else { "silent" },
            if sc.deadlocks == predicted {
                "agree"
            } else {
                "static-only" // sound over-approximation on a partial schedule
            }
        ));
    }

    // (3) Incremental re-analysis: cold, warm, and warm after editing
    // one grabber's body. Diagnostics stay identical; only the dirty
    // summary is recomputed and only its callers re-propagate.
    let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
    let opts = || Options {
        analyze: true,
        incremental: Some(Arc::clone(&store)),
        ..Options::default()
    };
    let cold = sim_compile(&m, 4, opts());
    let warm = sim_compile(&m, 4, opts());
    assert_eq!(
        render(&warm.diagnostics),
        render(&cold.diagnostics),
        "warm diagnostics diverged from cold"
    );
    let mut edited = m.clone();
    edited.source = m.source.replacen(
        "LOCK lkC DO l0 := p0 + p1 END",
        "LOCK lkC DO l0 := p0 + p1 + 1 END",
        1,
    );
    assert_ne!(edited.source, m.source, "edit must land");
    let warm_edit = sim_compile(&edited, 4, opts());
    let [cs, ws, es] = [&cold, &warm, &warm_edit].map(|o| o.locks.clone().expect("stats"));
    out.push_str("\nincremental summary cache (edit = LockGrabC body)\n");
    out.push_str("  run             | units | computed | cached | dependents\n");
    out.push_str("------------------+-------+----------+--------+-----------\n");
    for (label, st) in [("cold", &cs), ("warm", &ws), ("warm after edit", &es)] {
        out.push_str(&format!(
            "  {label:<15} | {:>5} | {:>8} | {:>6} | {:>10}\n",
            st.units, st.computed, st.from_cache, st.dependents
        ));
    }
    assert_eq!(cs.from_cache, 0, "cold run must compute everything");
    assert_eq!(
        ws.computed, 1,
        "plain warm run recomputes only the module unit (its analysis always runs live)"
    );
    assert_eq!(
        es.computed, 2,
        "warm edit recomputes the module unit and the edited procedure"
    );
    assert_eq!(
        es.dependents, 1,
        "exactly one cached caller (LockEdgeBC) re-propagates"
    );
    assert!(
        render(&warm_edit.diagnostics)
            .iter()
            .any(|d| d.contains("lock-order cycle")),
        "cycle prediction must survive the warm re-analysis"
    );
    out.push_str(
        "(the plain warm run replays every procedure summary from the cache;\n\
         after the edit only the dirty grabber is recomputed and its one\n\
         cached caller re-propagates — diagnostics byte-identical throughout)\n",
    );
    out
}

/// The `reproduce -- serve` experiment: drives the `ccm2-serve` compile
/// service with the seeded many-client load and reports throughput,
/// single-flight dedup ratio, shared-store hit rate and eviction
/// behaviour. Also proves service outputs byte-identical to standalone
/// compiles under all 4 DKY strategies × both executors.
pub fn serve() -> String {
    serve_with(
        &ccm2_workload::ServeLoadParams::default(),
        ccm2_serve::ServeConfig {
            workers: 2,
            queue_capacity: 16,
            store_budget: 8 * 1024,
            paused: false,
            ..ccm2_serve::ServeConfig::default()
        },
    )
}

/// [`serve`] with explicit load parameters and service configuration
/// (tests use a smaller load).
pub fn serve_with(
    load: &ccm2_workload::ServeLoadParams,
    config: ccm2_serve::ServeConfig,
) -> String {
    use ccm2_serve::{CompileRequest, CompileService, ExecChoice};
    use ccm2_workload::serve_load;

    let mut out =
        String::from("Compile service (ccm2-serve): seeded many-client edit/rebuild load\n");
    out.push_str(&format!(
        "  load: projects={} clients={} events={} edit every {} (interface every {}th edit), seed {:#x}\n",
        load.projects, load.clients, load.events, load.edit_every, load.interface_every, load.seed
    ));
    out.push_str(&format!(
        "  service: workers={} queue_capacity={} store_budget={} B\n\n",
        config.workers, config.queue_capacity, config.store_budget
    ));

    // Part 1 — equivalence matrix: every DKY strategy x both executors,
    // served outcome vs a standalone compile_concurrent of the same
    // request (no service, no shared store).
    let probe = ccm2_workload::generate(&ccm2_workload::GenParams::small("ServeEq", 0xE9));
    let execs = [ExecChoice::Sim(4), ExecChoice::Threads(2)];
    out.push_str("equivalence: served output vs standalone compile\n");
    let svc = CompileService::start(config);
    for strategy in DkyStrategy::ALL {
        for exec in execs {
            let defs = Arc::new(probe.defs.clone());
            let mut req = CompileRequest::new(0, &probe.name, &probe.source, defs);
            (req.strategy, req.exec) = (strategy, exec);
            let served = svc.submit(req.clone()).ticket().expect("admitted").wait();
            let standalone = drill::standalone_compile(&req);
            assert_eq!(
                (served.object.clone(), served.diagnostics.clone()),
                standalone,
                "served != standalone for {} / {}",
                strategy.name(),
                exec.name()
            );
            out.push_str(&format!(
                "  {:<11} x {:<10} : identical ({} B object)\n",
                strategy.name(),
                exec.name(),
                served.object.as_ref().map(Vec::len).unwrap_or(0)
            ));
        }
    }
    drop(svc);

    // Part 2 — the seeded load, fresh service. Shed requests are
    // resubmitted in the next wave (the client back-off protocol), and
    // every served response must match the standalone compile of its
    // (project, revision).
    let requests = drill::requests(&serve_load(load), ExecChoice::Sim(4));
    let expected = drill::expected(&requests);
    let svc = CompileService::start(config);
    let started = std::time::Instant::now();
    let (_, waves) = drill::drain(&requests, Some(&expected), |batch| {
        svc.serve_batch(batch.to_vec())
    });
    let elapsed = started.elapsed();
    let served = requests.len();

    let stats = svc.stats();
    let store = svc.store().stats();
    assert!(store.peak_bytes <= store.budget, "budget invariant");
    out.push_str(&format!(
        "\nload: {} events served in {} waves, 0 lost, 0 mismatched vs standalone\n",
        served, waves
    ));
    out.push_str(&format!(
        "throughput: {:.1} requests/s ({} ms total, wall)\n",
        served as f64 / elapsed.as_secs_f64().max(1e-9),
        elapsed.as_millis()
    ));
    out.push_str(&format!(
        "single-flight: {} compiles served {} requests; dedup ratio {:.1}% (joined {}, shed {})\n",
        stats.compiled,
        served,
        100.0 * stats.dedup_ratio(),
        stats.joined,
        stats.shed
    ));
    out.push_str(&format!(
        "store: {} hits / {} misses ({:.1}% hit rate), {} insertions, {} evictions\n",
        store.hits,
        store.misses,
        100.0 * store.hit_rate(),
        store.insertions,
        store.evictions
    ));
    out.push_str(&format!(
        "       occupancy {} B, peak {} B of {} B budget (never exceeded)\n",
        store.bytes_in_use, store.peak_bytes, store.budget
    ));
    out
}

// ---- fabric fleet drill --------------------------------------------------

/// The `reproduce -- fabric` drill: a shard-count sweep of the loopback
/// fleet (byte-identical to standalone at every width), a seeded
/// mid-stream shard-kill failover with zero lost admitted requests, and
/// the snapshot + delta-journal restart path (fewer journal bytes than
/// a full `CCM2SNAP` image). Writes the machine-readable
/// `BENCH_fabric.json` into the working directory — the start of the
/// perf trajectory the ROADMAP asks for.
pub fn fabric() -> String {
    fabric_with(
        &ccm2_workload::ServeLoadParams {
            seed: 0xFAB,
            projects: 3,
            clients: 6,
            events: 48,
            edit_every: 6,
            interface_every: 3,
        },
        &[1, 2, 3, 4],
        Some(std::path::Path::new("BENCH_fabric.json")),
    )
}

/// [`fabric`] with explicit load, shard sweep and JSON destination
/// (tests use a smaller load and skip the JSON).
pub fn fabric_with(
    load: &ccm2_workload::ServeLoadParams,
    sweep: &[usize],
    json_path: Option<&std::path::Path>,
) -> String {
    use ccm2_fabric::Fabric;
    use ccm2_serve::{
        CompileRequest, CompileService, DeltaJournal, ExecChoice, ServeConfig, SnapshotStore,
    };
    use ccm2_workload::{serve_load, shard_kill_schedule};

    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    };

    let mut out =
        String::from("Compile fabric (ccm2-fabric): sharded fleet over CCM2WIRE loopback\n");
    out.push_str(&format!(
        "  load: projects={} clients={} events={} edit every {} (interface every {}th edit), seed {:#x}\n",
        load.projects, load.clients, load.events, load.edit_every, load.interface_every, load.seed
    ));
    out.push_str(&format!(
        "  per-shard service: workers={} queue_capacity={} store_budget={} B\n\n",
        config.workers, config.queue_capacity, config.store_budget
    ));

    // Ground truth: standalone compiles per unique fingerprint. Every
    // routed response in every part below must match these bytes.
    let requests = drill::requests(&serve_load(load), ExecChoice::Sim(4));
    let expected = drill::expected(&requests);
    let events = requests.len();
    // Drives `reqs` through the fleet with the wave/back-off protocol;
    // asserts zero lost and byte-identical to standalone. Returns waves.
    let drive = |fabric: &Fabric, reqs: &[CompileRequest]| {
        drill::drain(reqs, Some(&expected), |b| fabric.router().serve_batch(b)).1
    };

    // Part 1 — shard-count sweep.
    out.push_str("shard sweep: every width byte-identical to standalone\n");
    out.push_str(
        "  shards | waves | wall ms | req/s | router joins | fleet compiles | delta ships\n",
    );
    out.push_str(
        "  -------+-------+---------+-------+--------------+----------------+------------\n",
    );
    let mut sweep_json = Vec::new();
    for &n in sweep {
        let fabric = Fabric::start(n, config);
        let started = std::time::Instant::now();
        let waves = drive(&fabric, &requests);
        let elapsed = started.elapsed();
        let rstats = fabric.router().stats();
        let compiles = fabric.total_compiles();
        let rps = events as f64 / elapsed.as_secs_f64().max(1e-9);
        out.push_str(&format!(
            "  {:>6} | {:>5} | {:>7} | {:>5.0} | {:>12} | {:>14} | {:>11}\n",
            n,
            waves,
            elapsed.as_millis(),
            rps,
            rstats.joined,
            compiles,
            rstats.ships
        ));
        sweep_json.push(format!(
            "{{\"shards\":{n},\"events\":{events},\"waves\":{waves},\"wall_micros\":{},\"throughput_rps\":{rps:.1},\"router_joined\":{},\"fleet_compiles\":{compiles},\"delta_ships\":{}}}",
            elapsed.as_micros(),
            rstats.joined,
            rstats.ships
        ));
    }
    let sweep_json = sweep_json.join(",");

    // Part 2 — seeded mid-stream shard kill at 3 shards.
    let shards = 3usize;
    let (kill_at, victim) = shard_kill_schedule(load, shards as u32, 1)
        .first()
        .copied()
        .unwrap_or((events / 2, 0));
    let fabric = Fabric::start(shards, config);
    drive(&fabric, &requests[..kill_at]);
    let failover = drill::kill(&fabric, victim);
    drive(&fabric, &requests[kill_at..]);
    let absorbed: u64 = fabric
        .nodes()
        .iter()
        .filter(|node| node.id() != victim)
        .map(|node| node.stats().absorbed_ops)
        .sum();
    let rstats = fabric.router().stats();
    out.push_str(&format!(
        "\nkill drill ({} shards): shard {} killed before event {} (seeded schedule)\n",
        shards, victim, kill_at
    ));
    out.push_str(&format!(
        "  failover: ring rebalance + {} survivor absorbs in {} us; {} replicated ops warmed survivors\n",
        rstats.absorbs,
        failover.as_micros(),
        absorbed
    ));
    out.push_str(&format!(
        "  served {}+{} events across the kill: 0 lost, 0 mismatched vs standalone\n",
        kill_at,
        events - kill_at
    ));

    // Part 3 — restart from snapshot + delta replay, cheaper than a
    // fresh full image.
    let dir = std::env::temp_dir().join(format!("ccm2-fabric-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snaps = SnapshotStore::new(dir.join("snap")).expect("snapshot dir");
    let journal = DeltaJournal::new(dir.join("delta")).expect("journal dir");
    let svc = CompileService::start(config);
    let serve_half = |svc: &CompileService, half: &[CompileRequest]| {
        drill::drain(half, Some(&expected), |b| svc.serve_batch(b.to_vec()))
    };
    // The production cadence: the journal ships continuously, snapshots
    // cut occasionally. A restart reads the newest snapshot plus only
    // the journal tail past its cut — so the tail, not the whole
    // journal, is the incremental restart cost.
    let cut = events * 3 / 4;
    serve_half(&svc, &requests[..cut]);
    svc.journal_deltas(&journal, &snaps)
        .expect("journal the head");
    snaps.save(svc.store()).expect("snapshot at the cut");
    let journal_bytes_at_cut = journal.total_bytes().expect("journal size at cut");
    serve_half(&svc, &requests[cut..]);
    let shipped = svc
        .journal_deltas(&journal, &snaps)
        .expect("journal the tail");
    let delta_bytes = journal.total_bytes().expect("journal size") - journal_bytes_at_cut;
    let full_snaps = SnapshotStore::new(dir.join("full")).expect("comparison dir");
    let full_path = full_snaps.save(svc.store()).expect("full image");
    let full_bytes = std::fs::metadata(&full_path).expect("image size").len();
    let restored = CompileService::restore_with_deltas(config, &snaps, &journal).expect("restart");
    let canon = |svc: &CompileService| {
        let mut entries = svc.store().export();
        entries.sort();
        entries
    };
    assert_eq!(
        canon(&restored),
        canon(&svc),
        "snapshot + delta replay must rebuild the exact store"
    );
    assert!(
        shipped > 0 && delta_bytes < full_bytes,
        "delta restart must beat the full image ({delta_bytes} B vs {full_bytes} B, {shipped} ops)"
    );
    let restored_entries = restored.store().export().len();
    drop(restored);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    out.push_str(&format!(
        "\ndelta restart: snapshot at event {} + {} journaled ops replay the tail\n",
        cut, shipped
    ));
    out.push_str(&format!(
        "  journal tail {} B vs full CCM2SNAP image {} B ({:.1}% of full); {} entries rebuilt bit-identically\n",
        delta_bytes,
        full_bytes,
        100.0 * delta_bytes as f64 / full_bytes as f64,
        restored_entries
    ));

    if let Some(path) = json_path {
        let json = format!(
            "{{\"schema\":\"ccm2-bench/fabric/v1\",\"load\":{{\"seed\":{},\"projects\":{},\"clients\":{},\"events\":{}}},\"sweep\":[{sweep_json}],\"kill_drill\":{{\"shards\":{shards},\"victim\":{victim},\"kill_at_event\":{kill_at},\"failover_micros\":{},\"absorbed_ops\":{absorbed},\"lost\":0,\"mismatched\":0}},\"delta_restart\":{{\"journaled_ops\":{shipped},\"journal_bytes\":{delta_bytes},\"full_image_bytes\":{full_bytes},\"restored_entries\":{restored_entries}}}}}\n",
            load.seed,
            load.projects,
            load.clients,
            load.events,
            failover.as_micros(),
        );
        std::fs::write(path, json).expect("write BENCH_fabric.json");
        out.push_str(&format!("\nwrote {}\n", path.display()));
    }
    out
}

// ---- chaosnet: seeded network-fault drill matrix -------------------------

/// One cell of the chaosnet matrix (a seed on a transport), reduced to
/// the numbers the report and `BENCH_chaosnet.json` carry. Every cell
/// also carries the hard assertions — zero lost admitted requests, zero
/// hangs, byte-identity to standalone, the warm-hit floor — so a
/// regression fails the drill instead of skewing a number.
struct ChaosCell {
    seed: u64,
    transport: &'static str,
    events: usize,
    victim: u32,
    ticks_to_evict: usize,
    warm_hits: u64,
    warm_lookups: u64,
    restored_parked_ops: usize,
    absorbed_after_restart: u64,
    rlog_writes: u64,
}

/// The `reproduce -- chaosnet` drill: a seeded network-fault matrix
/// (three seeds x both transports) over the hardened fabric control
/// plane. Each cell runs one full lifecycle — partition opens on the
/// seeded schedule, the heartbeat detector suspects then evicts the
/// victim, the fleet serves through the hole, the partition heals and
/// the victim warm-rejoins, a cold shard joins through the warm-up path
/// (>= 50% warm hits on its first post-join batch), and finally the
/// whole fleet is crash-restarted from its durable `CCM2RLOG` replica
/// logs and a failover absorbs the restored parked ops. Zero lost
/// admitted requests, zero hangs, byte-identity to a standalone
/// service, everywhere. Writes `BENCH_chaosnet.json`.
pub fn chaosnet() -> String {
    chaosnet_with(
        &[0xC4A0, 0xC4A1, 0xC4A2],
        25,
        Some(std::path::Path::new("BENCH_chaosnet.json")),
    )
}

/// [`chaosnet`] with explicit seeds, wall-clock heartbeat period (ms,
/// the `--heartbeat-ms` flag) and JSON destination.
pub fn chaosnet_with(
    seeds: &[u64],
    heartbeat_ms: u64,
    json_path: Option<&std::path::Path>,
) -> String {
    let mut out = String::from(
        "Chaosnet: seeded network-fault drills over the fabric control plane\n\
           each cell: partition -> heartbeat eviction -> serve through the hole -> heal\n\
           -> warm rejoin -> cold join (warm-hit floor) -> CCM2RLOG crash-restart -> absorb\n\n",
    );
    out.push_str(
        "  seed   | transport | evict ticks | warm hits | restored ops | absorbed | events\n",
    );
    out.push_str(
        "  -------+-----------+-------------+-----------+--------------+----------+-------\n",
    );
    let mut cell_json = Vec::new();
    for &seed in seeds {
        for tcp in [false, true] {
            let c = chaosnet_cell(seed, tcp);
            out.push_str(&format!(
                "  {:#6x} | {:>9} | {:>11} | {:>4}/{:<4} | {:>12} | {:>8} | {:>6}\n",
                c.seed,
                c.transport,
                c.ticks_to_evict,
                c.warm_hits,
                c.warm_lookups,
                c.restored_parked_ops,
                c.absorbed_after_restart,
                c.events,
            ));
            cell_json.push(format!(
                "{{\"seed\":{},\"transport\":\"{}\",\"events\":{},\"victim\":{},\"ticks_to_evict\":{},\"warm_hits\":{},\"warm_lookups\":{},\"restored_parked_ops\":{},\"absorbed_after_restart\":{},\"rlog_writes\":{},\"lost\":0,\"mismatched\":0,\"hangs\":0}}",
                c.seed,
                c.transport,
                c.events,
                c.victim,
                c.ticks_to_evict,
                c.warm_hits,
                c.warm_lookups,
                c.restored_parked_ops,
                c.absorbed_after_restart,
                c.rlog_writes,
            ));
        }
    }
    out.push_str(&format!(
        "  {} cells: 0 lost admitted requests, 0 hangs, 0 mismatched vs standalone\n",
        cell_json.len()
    ));

    // Split-brain matrix: the same seeds on both transports, each
    // running all three router disturbances (kill / partition / duel)
    // against a two-router fleet with the epoch lease.
    out.push_str(
        "\nsplit-brain drills: two routers, epoch-leased eviction authority, client failover\n",
    );
    out.push_str(
        "  seed   | transport | drill     | epoch | promote ticks | rotations | epoch rejects\n",
    );
    out.push_str(
        "  -------+-----------+-----------+-------+---------------+-----------+--------------\n",
    );
    let mut sb_json = Vec::new();
    for &seed in seeds {
        for tcp in [false, true] {
            for kind in [
                ccm2_workload::RouterDrillKind::Kill,
                ccm2_workload::RouterDrillKind::Partition,
                ccm2_workload::RouterDrillKind::Duel,
            ] {
                let c = split_brain_cell(seed, tcp, kind);
                out.push_str(&format!(
                    "  {:#6x} | {:>9} | {:>9} | {:>5} | {:>13} | {:>9} | {:>13}\n",
                    c.seed,
                    c.transport,
                    c.kind,
                    c.promoted_epoch,
                    c.promote_ticks,
                    c.client_rotations,
                    c.epoch_rejects,
                ));
                sb_json.push(format!(
                    "{{\"seed\":{},\"transport\":\"{}\",\"drill\":\"{}\",\"events\":{},\"promoted_epoch\":{},\"promote_ticks\":{},\"demotions\":{},\"epoch_rejects\":{},\"client_rotations\":{},\"transcript_lines\":{},\"two_leader_epochs\":0,\"divergent_membership\":0,\"lost\":0,\"hangs\":0}}",
                    c.seed,
                    c.transport,
                    c.kind,
                    c.events,
                    c.promoted_epoch,
                    c.promote_ticks,
                    c.a_demotions,
                    c.epoch_rejects,
                    c.client_rotations,
                    c.transcript.len(),
                ));
            }
        }
    }
    out.push_str(&format!(
        "  {} cells: 0 lost, 0 hangs, no epoch with two leaders, membership converged\n",
        sb_json.len()
    ));

    // Wall-clock detector smoke: the same eviction on real sockets and
    // real time, driven by `start_heartbeats` at --heartbeat-ms.
    let wall = chaosnet_wall_clock(heartbeat_ms);
    out.push_str(&format!(
        "\nwall-clock detector (tcp, --heartbeat-ms={}): partitioned shard evicted in {} ms\n",
        heartbeat_ms,
        wall.as_millis()
    ));

    // Stalled peers: a shard that accepts connections but never answers
    // must be evicted by the probe deadline, and the calls blocked on it
    // must fail over.
    out.push_str(&format!(
        "\nstalled-peer drills (tcp, --heartbeat-ms={heartbeat_ms}): victim accepts, never answers\n"
    ));
    out.push_str(
        "  seed   | victim | evicted in | bound  | held frames | held compiles | events\n",
    );
    out.push_str(
        "  -------+--------+------------+--------+-------------+---------------+-------\n",
    );
    let mut stall_json = Vec::new();
    for &seed in seeds {
        let c = stalled_peer_cell(seed, heartbeat_ms);
        out.push_str(&format!(
            "  {:#6x} | {:>6} | {:>7} ms | {:>3} ms | {:>11} | {:>13} | {:>6}\n",
            c.seed,
            c.victim,
            c.evicted_in.as_millis(),
            c.bound.as_millis(),
            c.held_frames,
            c.held_compiles,
            c.events,
        ));
        stall_json.push(format!(
            "{{\"seed\":{},\"transport\":\"tcp\",\"events\":{},\"victim\":{},\"heartbeat_ms\":{},\"evicted_in_micros\":{},\"bound_micros\":{},\"held_frames\":{},\"held_compiles\":{},\"lost\":0,\"mismatched\":0,\"hangs\":0}}",
            c.seed,
            c.events,
            c.victim,
            c.heartbeat_ms,
            c.evicted_in.as_micros(),
            c.bound.as_micros(),
            c.held_frames,
            c.held_compiles,
        ));
    }
    out.push_str(&format!(
        "  {} cells: evicted within bound, 0 lost, 0 hangs, byte-identical to standalone\n",
        stall_json.len()
    ));

    if let Some(path) = json_path {
        let json = format!(
            "{{\"schema\":\"ccm2-bench/chaosnet/v2\",\"cells\":[{}],\"split_brain\":{{\"cells\":[{}],\"two_leader_epochs\":0,\"divergent_membership\":0}},\"wall_clock\":{{\"heartbeat_ms\":{heartbeat_ms},\"evicted_in_micros\":{}}},\"stalled_peer\":{{\"lost\":0,\"hangs\":0,\"cells\":[{}]}},\"lost\":0,\"mismatched\":0,\"hangs\":0}}\n",
            cell_json.join(","),
            sb_json.join(","),
            wall.as_micros(),
            stall_json.join(","),
        );
        std::fs::write(path, json).expect("write BENCH_chaosnet.json");
        out.push_str(&format!("\nwrote {}\n", path.display()));
    }
    out
}

/// One chaosnet cell; see [`chaosnet`] for the script it runs.
fn chaosnet_cell(seed: u64, tcp: bool) -> ChaosCell {
    use ccm2_fabric::{Fabric, HashRing, DEFAULT_VNODES};
    use ccm2_serve::{CompileRequest, ExecChoice, ServeConfig};
    use ccm2_workload::{serve_load, shard_partition_schedule, ServeLoadParams};

    const SHARDS: u32 = 3;
    const JOINER: u32 = 9;
    let params = ServeLoadParams {
        seed,
        projects: 3,
        clients: 4,
        events: 60,
        edit_every: 12,
        interface_every: 3,
    };
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        store_budget: 128 * 1024,
        ..ServeConfig::default()
    };
    let requests = drill::requests(&serve_load(&params), ExecChoice::Sim(4));
    let expected = drill::expected(&requests);
    // The drive protocol with the hang guard and byte-identity check:
    // every admitted request must come back `Done` with the standalone
    // bytes within a bounded number of retry waves.
    let drive = |fabric: &Fabric, slice: &[CompileRequest]| {
        drill::drain(slice, Some(&expected), |b| fabric.router().serve_batch(b));
    };

    let dir = std::env::temp_dir().join(format!(
        "ccm2-chaosnet-{}-{seed:x}-{}",
        std::process::id(),
        if tcp { "tcp" } else { "loop" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fabric = Fabric::launch(SHARDS, config, tcp, Some(&dir))
        .expect("fleet with durable replica logs")
        .with_router(|r| r.with_heartbeat(drill::CHAOS_HEARTBEAT));

    // The partition window is drawn over the first two-thirds of the
    // load so the final third is always the cold joiner's first batch.
    let two_thirds = params.events * 2 / 3;
    let sched_params = ServeLoadParams {
        events: two_thirds,
        ..params
    };
    let window = shard_partition_schedule(&sched_params, SHARDS, 1)[0];
    let victim = window.shard;

    // Phase 1 — healthy fleet up to the partition point.
    drive(&fabric, &requests[..window.from]);

    // Phase 2 — the link to the victim drops; the detector suspects,
    // then evicts, in a deterministic number of virtual-time ticks.
    let ticks = drill::partition_and_evict(&fabric, victim);
    drive(&fabric, &requests[window.from..window.until]);

    // Phase 3 — heal and warm-rejoin the victim through admit_shard.
    drill::heal_and_rejoin(&fabric, victim);
    drive(&fabric, &requests[window.until..two_thirds]);

    // Warm probes: the seeded load reuses a handful of fingerprints, so
    // on an unlucky seed the consistent-hash ring may hand the joiner
    // none of them. Synthesize modules the post-join ring provably
    // routes to the joiner and serve them now, pre-join, so they land
    // warm in a current member's store (and thus in the head-ship
    // image). Their post-join replay is guaranteed joiner traffic. An
    // idle fleet must serve every probe without shedding it.
    let post_join_ring = HashRing::new(&[0, 1, 2, JOINER], DEFAULT_VNODES);
    let probes: Vec<CompileRequest> = (0..200u32)
        .map(|n| {
            let mut req = CompileRequest::new(
                u64::from(n),
                format!("ChaosProbe{n}"),
                format!("MODULE ChaosProbe{n}; VAR x: INTEGER; BEGIN x := {n}; END ChaosProbe{n}."),
                Arc::new(ccm2_support::defs::DefLibrary::new()),
            );
            req.exec = ExecChoice::Sim(4);
            req
        })
        .filter(|req| post_join_ring.route(req.fingerprint()) == Some(JOINER))
        .take(6)
        .collect();
    assert!(!probes.is_empty(), "no probe routed to the joiner");
    let serve_probes = |fabric: &Fabric| {
        for resp in fabric.router().serve_batch(&probes) {
            let out = resp.outcome().expect("probe shed by an idle fleet");
            assert!(out.ok, "{:?}", out.diagnostics);
        }
    };
    serve_probes(&fabric);

    // Phase 4 — cold join: the joiner is warmed (head-ship from every
    // member + delta catch-up) before the ring hands it keys, so its
    // first post-join batch — the final third of the load plus the
    // probe replays — must hit at least half the time.
    let joiner = fabric.join(JOINER).expect("joiner");
    fabric.router().admit_shard(JOINER);
    let before = joiner.service().store().stats();
    drive(&fabric, &requests[two_thirds..]);
    serve_probes(&fabric);
    let after = joiner.service().store().stats();
    drop(joiner);
    let warm_hits = after.hits - before.hits;
    let warm_lookups = warm_hits + (after.misses - before.misses);
    assert!(warm_lookups > 0, "the joiner saw no post-join traffic");
    assert!(
        warm_hits * 2 >= warm_lookups,
        "cold joiner served too cold: {warm_hits}/{warm_lookups} warm"
    );

    // Phase 5 — crash-restart: drop the whole fleet (router, sockets,
    // nodes) and rebuild the original shards from their durable
    // CCM2RLOG stores. Every parked replica op must come back, and the
    // failover absorb must replay the restored logs into live stores.
    let rlog_writes: u64 = fabric.nodes()[..SHARDS as usize]
        .iter()
        .map(|n| n.stats().rlog_writes)
        .sum();
    let (fabric, restored_parked_ops, absorbed_after_restart) =
        drill::crash_restart_and_absorb(fabric, SHARDS);
    // The restarted, post-failover fleet still serves standalone bytes.
    drive(&fabric, &requests[..6]);
    drop(fabric);
    let _ = std::fs::remove_dir_all(&dir);

    ChaosCell {
        seed,
        transport: if tcp { "tcp" } else { "loopback" },
        events: params.events,
        victim,
        ticks_to_evict: ticks,
        warm_hits,
        warm_lookups,
        restored_parked_ops,
        absorbed_after_restart,
        rlog_writes,
    }
}

/// Wall-clock leg of the chaosnet drill: a TCP fleet under
/// [`ccm2_fabric::start_heartbeats`] at `heartbeat_ms` must evict a
/// partitioned shard on real time, within a generous bounded deadline
/// (the zero-hangs guarantee on the non-virtual clock). Returns the
/// observed partition-to-eviction latency.
fn chaosnet_wall_clock(heartbeat_ms: u64) -> std::time::Duration {
    use ccm2_fabric::{start_heartbeats, Fabric, HealthState};
    use ccm2_serve::{CompileRequest, ExecChoice, ServeConfig};
    use ccm2_support::defs::DefLibrary;

    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    };
    let fabric = Fabric::launch(3, config, true, None)
        .expect("tcp fleet")
        .with_router(|r| r.with_heartbeat(drill::CHAOS_HEARTBEAT));
    let router = fabric.router();
    let handle = start_heartbeats(
        Arc::clone(router),
        std::time::Duration::from_millis(heartbeat_ms),
    );
    for m in 0..4 {
        let mut req = CompileRequest::new(
            m,
            format!("Wall{m}"),
            format!("MODULE Wall{m}; VAR x: INTEGER; BEGIN x := 3; END Wall{m}."),
            Arc::new(DefLibrary::new()),
        );
        req.exec = ExecChoice::Sim(2);
        let resp = router.serve(&req);
        assert!(resp.outcome().expect("served under heartbeats").ok);
    }
    fabric.cut(1, true);
    let started = std::time::Instant::now();
    let deadline = std::time::Duration::from_millis(200 * heartbeat_ms.max(5));
    while router.health(1) != HealthState::Evicted {
        assert!(
            started.elapsed() < deadline,
            "wall-clock detector hung: shard 1 not evicted within {deadline:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let elapsed = started.elapsed();
    drop(handle);
    elapsed
}

// ---- stalled peer: a shard that accepts but never answers --------------

/// One stalled-peer cell (TCP, wall clock): what the report and the
/// `stalled_peer` section of `BENCH_chaosnet.json` carry. The hard
/// checks run inside [`stalled_peer_cell`].
pub struct StalledPeerCell {
    /// Load seed.
    pub seed: u64,
    /// Requests served (before, during and after the stall).
    pub events: usize,
    /// The stalled shard.
    pub victim: u32,
    /// Wall-clock heartbeat period.
    pub heartbeat_ms: u64,
    /// Stall to eviction.
    pub evicted_in: std::time::Duration,
    /// The bound it was held to: `(evict_misses + 1) × period` plus
    /// 250 ms of slack.
    pub bound: std::time::Duration,
    /// Frames the victim held while stalled (pings, compiles, deltas).
    pub held_frames: u64,
    /// Compile frames among them: calls that were blocked on the victim
    /// until the eviction cut their connections and they failed over.
    pub held_compiles: u64,
}

/// The stalled-peer drill: three shards over TCP under
/// [`ccm2_fabric::start_heartbeats`] at `heartbeat_ms`. Mid-load, the
/// shard that owns the next request stops answering while still
/// accepting connections; that request is sent to it and blocks. The
/// detector's probe deadline turns the silence into misses, so the
/// shard is evicted within `(evict_misses + 1) × period` plus slack;
/// the eviction shuts down its connections, so the blocked call fails
/// over to a survivor. The victim is then released and re-admitted.
/// Zero lost requests, zero hangs, and every output byte-identical to
/// a standalone compile — checked here, so a regression fails the
/// drill.
pub fn stalled_peer_cell(seed: u64, heartbeat_ms: u64) -> StalledPeerCell {
    use ccm2_fabric::{HashRing, HealthState, DEFAULT_VNODES};
    use ccm2_serve::{CompileRequest, ExecChoice, ServeConfig};
    use ccm2_workload::{serve_load, ServeLoadParams};
    use std::time::{Duration, Instant};

    let params = ServeLoadParams {
        seed,
        projects: 3,
        clients: 4,
        events: 36,
        edit_every: 12,
        interface_every: 3,
    };
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        store_budget: 128 * 1024,
        ..ServeConfig::default()
    };
    let requests = drill::requests(&serve_load(&params), ExecChoice::Sim(4));
    let expected = Arc::new(drill::expected(&requests));
    let period = Duration::from_millis(heartbeat_ms.max(1));
    let fleet = drill::StallFleet::start(config, period);
    let router = fleet.fabric.router();

    // Serves a slice on a thread of its own, retrying shed requests,
    // and checks every answer against the standalone bytes. The caller
    // gets the join back only through a bounded wait: a batch that does
    // not return is a hang, not a slow test.
    let drive = |slice: &[CompileRequest]| {
        let (router, expected, slice) = (Arc::clone(router), Arc::clone(&expected), slice.to_vec());
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drill::drain(&slice, Some(&expected), |b| router.serve_batch(b));
            let _ = done.send(());
        });
        finished
    };
    let wait = |finished: std::sync::mpsc::Receiver<()>, what: &str| {
        finished
            .recv_timeout(drill::STALL_HANG_AFTER)
            .unwrap_or_else(|_| panic!("stalled-peer drill hung ({what}) or lost a request"));
    };

    let (third, two_thirds) = (requests.len() / 3, requests.len() * 2 / 3);
    wait(drive(&requests[..third]), "healthy phase");

    // The owner of the next request stalls, so that request blocks
    // until the eviction cuts its connection.
    let victim = HashRing::new(&router.live_shards(), DEFAULT_VNODES)
        .route(requests[third].fingerprint())
        .expect("a live shard");
    let victim_switch = &fleet.switches[victim as usize];
    victim_switch.set(true);
    let stalled_at = Instant::now();
    let served = drive(&requests[third..two_thirds]);
    let bound = period * (drill::CHAOS_HEARTBEAT.evict_misses + 1) + drill::STALL_EVICT_SLACK;
    let evicted_in = fleet
        .evicted_within(victim, stalled_at, drill::STALL_HANG_AFTER)
        .unwrap_or_else(|| panic!("stalled shard {victim} never evicted"));
    assert!(
        evicted_in <= bound,
        "stalled shard {victim} evicted after {evicted_in:?}, bound {bound:?}"
    );
    wait(served, "stall phase");
    let (held_frames, held_compiles) = (victim_switch.held(), victim_switch.held_compiles());
    assert!(
        held_compiles > 0,
        "no compile was blocked on the stalled shard — the drill is vacuous"
    );

    // Release and re-admit: the rejoined shard serves normally again.
    victim_switch.set(false);
    assert!(router.admit_shard(victim), "re-admission refused");
    assert_eq!(router.health(victim), HealthState::Alive);
    wait(drive(&requests[two_thirds..]), "rejoined phase");

    StalledPeerCell {
        seed,
        events: requests.len(),
        victim,
        heartbeat_ms,
        evicted_in,
        bound,
        held_frames,
        held_compiles,
    }
}

// ---- split-brain drills: router loss without divergent membership -------

/// One split-brain cell, reduced to the numbers the report and the
/// `split_brain` section of `BENCH_chaosnet.json` carry, plus the
/// deterministic transcript the determinism test replays. The hard
/// invariants — 0 lost admitted requests, 0 hangs, no epoch with two
/// leaders, converged membership, byte-identity to standalone — are
/// asserted inside the cell, so a split-brain regression fails the
/// drill instead of skewing a number.
struct SplitBrainCell {
    seed: u64,
    transport: &'static str,
    kind: &'static str,
    events: usize,
    promoted_epoch: u64,
    promote_ticks: usize,
    a_demotions: u64,
    epoch_rejects: u64,
    client_rotations: u64,
    transcript: Vec<String>,
}

/// One split-brain drill cell: a 3-shard fleet behind two routers
/// (A leads, B stands by) on *independent* conduits over the same
/// shards, a shared durable membership store, and a client that fails
/// over between them. The seeded disturbance hits router A mid-load:
///
/// - **Kill** — A is shut down; B promotes on lease expiry and the
///   client rotates.
/// - **Partition** — A is cut from every shard (its churn while cut
///   must not reach the durable membership); B promotes; on heal A
///   demotes on its first observed newer epoch.
/// - **Duel** — A is silenced but not told: after B promotes, both
///   believe they lead until A's next stamped frame draws an
///   `EpochReject` and it stands down.
///
/// Every admitted request across the disturbance is served with bytes
/// identical to a standalone service. The transcript records phases,
/// roles, epochs and per-shard grant histories — and no wall-clock
/// values, so the same seed always replays the same transcript.
fn split_brain_cell(seed: u64, tcp: bool, kind: ccm2_workload::RouterDrillKind) -> SplitBrainCell {
    use ccm2_fabric::{
        Fabric, FabricClient, FabricRouter, LeaseConfig, MembershipStore, RouterRole,
    };
    use ccm2_serve::{ExecChoice, ServeConfig};
    use ccm2_workload::{serve_load, RouterDrillKind, ServeLoadParams};
    use std::collections::HashMap;

    const SHARDS: u32 = 3;
    let params = ServeLoadParams {
        seed,
        projects: 3,
        clients: 4,
        events: 24,
        edit_every: 8,
        interface_every: 3,
    };
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        store_budget: 128 * 1024,
        ..ServeConfig::default()
    };
    let requests = drill::requests(&serve_load(&params), ExecChoice::Sim(4));
    let expected = drill::expected(&requests);

    let dir = std::env::temp_dir().join(format!(
        "ccm2-splitbrain-{}-{seed:x}-{}-{kind:?}",
        std::process::id(),
        if tcp { "tcp" } else { "loop" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(MembershipStore::new(dir.join("mbrs")).expect("membership dir"));
    let lease = LeaseConfig { expiry_ticks: 2 };
    // Router A on the fleet's own conduit; router B on a second,
    // independent one over the same shards: cutting A's network must
    // not touch B's.
    let mut fabric = Fabric::launch(SHARDS, config, tcp, None)
        .expect("fleet")
        .with_router(|r| {
            r.with_identity(1)
                .with_heartbeat(drill::CHAOS_HEARTBEAT)
                .with_lease(lease)
                .with_membership_store(Arc::clone(&store))
        });
    let b = Arc::new(
        FabricRouter::new(fabric.add_conduit().expect("second conduit"))
            .with_identity(2)
            .as_standby()
            .with_heartbeat(drill::CHAOS_HEARTBEAT)
            .with_lease(lease)
            .with_membership_store(Arc::clone(&store)),
    );
    let a = Arc::clone(fabric.router());
    let cut_a = |on: bool| (0..SHARDS).for_each(|s| fabric.cut(s, on));
    assert!(a.acquire_lease(), "uncontested initial grant");
    let client = FabricClient::new(vec![Arc::clone(&a), Arc::clone(&b)]);

    let mut transcript: Vec<String> = Vec::new();
    let roles = |a: &FabricRouter, b: &FabricRouter| {
        format!(
            "a={:?}@{} b={:?}@{}",
            a.role(),
            a.epoch(),
            b.role(),
            b.epoch()
        )
    };
    let drive = |lo: usize, hi: usize| {
        drill::drain(&requests[lo..hi], Some(&expected), |b| {
            client.serve_batch(b)
        });
    };

    let kind_name = match kind {
        RouterDrillKind::Kill => "kill",
        RouterDrillKind::Partition => "partition",
        RouterDrillKind::Duel => "duel",
    };
    let third = params.events / 3;
    transcript.push(format!(
        "setup seed={seed:#x} kind={kind_name} shards={SHARDS} {}",
        roles(&a, &b)
    ));

    // Phase 1 — healthy fleet: A leads, renews, serves the head.
    drive(0, third);
    assert!(a.heartbeat_tick().is_empty(), "healthy fleet, no evictions");
    transcript.push(format!("head served={third} {}", roles(&a, &b)));

    // Phase 2 — the disturbance hits router A.
    match kind {
        RouterDrillKind::Kill => {
            a.shutdown();
            transcript.push("disturb: router A shut down".into());
        }
        RouterDrillKind::Partition => {
            cut_a(true);
            // A churns against its dead network: it may evict its whole
            // local view, but with zero shards witnessing, none of it
            // may reach the durable membership image.
            a.heartbeat_tick();
            a.heartbeat_tick();
            transcript.push(format!(
                "disturb: router A cut from every shard; churned to live={:?}",
                a.live_shards()
            ));
        }
        RouterDrillKind::Duel => {
            transcript.push("disturb: router A silenced (no ticks), not told".into());
        }
    }

    // Phase 3 — the standby watches the lease age out on the shards'
    // own probe clocks, then claims the next epoch.
    let mut promote_ticks = 0usize;
    while b.role() != RouterRole::Leader {
        promote_ticks += 1;
        assert!(promote_ticks <= 6, "standby never promoted (hang)");
        b.heartbeat_tick();
    }
    let promoted_epoch = b.epoch();
    assert!(promoted_epoch >= 2, "promotion claims a fresh epoch");
    transcript.push(format!(
        "promoted after {promote_ticks} standby ticks {}",
        roles(&a, &b)
    ));

    // Phase 4 — serve the middle through the client: it rotates away
    // from the dead/cut router; in the duel, A still serves and its
    // stale replication stamp draws the EpochReject that demotes it.
    drive(third, 2 * third);
    assert!(b.heartbeat_tick().is_empty(), "leader B sees a live fleet");
    transcript.push(format!(
        "mid served={third} rotations={} {}",
        client.stats().router_rotations,
        roles(&a, &b)
    ));

    // Phase 5 — heal: the ex-leader must converge, not split-brain.
    match kind {
        RouterDrillKind::Kill => {}
        RouterDrillKind::Partition | RouterDrillKind::Duel => {
            if kind == RouterDrillKind::Partition {
                cut_a(false);
            }
            a.heartbeat_tick();
            assert_eq!(
                a.role(),
                RouterRole::Standby,
                "healed ex-leader must stand down"
            );
            assert_eq!(a.epoch(), 1, "A never claims an epoch it wasn't granted");
            transcript.push(format!("healed {}", roles(&a, &b)));
        }
    }

    // Phase 6 — tail through the converged fleet.
    drive(2 * third, requests.len());
    transcript.push(format!("tail served={}", requests.len() - 2 * third));

    // Invariants. Leadership epochs are disjoint across routers — no
    // epoch ever had two leaders…
    let ea = a.leadership_epochs();
    let eb = b.leadership_epochs();
    for e in &ea {
        assert!(!eb.contains(e), "epoch {e} observed two leaders");
    }
    // …and the shards' own grant histories agree: every epoch a router
    // led was granted to that router alone, wherever it was granted.
    let leaders: HashMap<u64, u32> = ea
        .iter()
        .map(|&e| (e, a.router_id()))
        .chain(eb.iter().map(|&e| (e, b.router_id())))
        .collect();
    for node in fabric.nodes() {
        let grants = node.lease_grants();
        for w in grants.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "a shard granted an epoch twice: {grants:?}"
            );
        }
        for &(epoch, router) in &grants {
            if let Some(&led) = leaders.get(&epoch) {
                assert_eq!(router, led, "epoch {epoch} granted away from its leader");
            }
        }
        transcript.push(format!("grants shard{}={:?}", node.id(), grants));
    }
    // Membership converged: both live routers agree with the durable
    // image (a killed router keeps its stale view; it is dead).
    let image = store
        .load_latest()
        .expect("membership readable")
        .value
        .expect("membership persisted");
    assert_eq!(image.leader, b.router_id());
    assert_eq!(image.epoch, promoted_epoch);
    assert_eq!(b.live_shards(), image.members, "leader B diverged");
    if kind != RouterDrillKind::Kill {
        a.resync_membership();
        assert_eq!(a.live_shards(), image.members, "standby A diverged");
    }
    transcript.push(format!(
        "converged members={:?} epoch={} leader={}",
        image.members, image.epoch, image.leader
    ));

    let cell = SplitBrainCell {
        seed,
        transport: if tcp { "tcp" } else { "loopback" },
        kind: kind_name,
        events: params.events,
        promoted_epoch,
        promote_ticks,
        a_demotions: a.stats().demotions,
        epoch_rejects: a.stats().epoch_rejects + b.stats().epoch_rejects,
        client_rotations: client.stats().router_rotations,
        transcript,
    };
    let _ = std::fs::remove_dir_all(&dir);
    cell
}

// ---- always-on editor sessions (ccm2-watch) -----------------------------

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 * q).ceil() as usize).max(1) - 1;
    sorted[idx.min(sorted.len() - 1)]
}

/// Always-on editor loop: replays the seeded 100-edit session over the
/// full 37-module suite through warm [`ccm2_watch`] sessions at one
/// worker thread, measuring edit-to-report latency against the
/// cold-open baseline; writes `BENCH_watch.json`.
pub fn watch() -> String {
    watch_with(Some(std::path::Path::new("BENCH_watch.json")))
}

/// [`watch`] with an explicit JSON destination (`None` skips the file).
pub fn watch_with(json_path: Option<&std::path::Path>) -> String {
    use ccm2_watch::{WatchConfig, WatchService};
    use ccm2_workload::{edit_session_seeds, suite_params, SessionParams, SUITE_SIZE};

    let params: Vec<ccm2_workload::GenParams> = (0..SUITE_SIZE).map(suite_params).collect();
    let suite = generate_suite();
    let session = SessionParams::default();
    let mut out = String::from("Always-on editor sessions (ccm2-watch), 1 worker thread\n");
    out.push_str(&format!(
        "  session: modules={} edits={} seed={:#x} (break {}%, fix {}%, <= {} interface edits)\n",
        suite.len(),
        session.edits,
        session.seed,
        session.break_pct,
        session.fix_pct,
        session.max_interface_edits
    ));

    // Cold baseline: median of three independent cold opens per module
    // (each against its own fresh service/store, so no warmth leaks
    // between reps). Tiny modules compile in well under a millisecond,
    // where a single-shot sample is too noisy to gate against.
    let mut cold_samples: std::collections::HashMap<String, Vec<u64>> =
        std::collections::HashMap::new();
    for _rep in 0..2 {
        let mut throwaway = WatchService::new(WatchConfig::default());
        for m in &suite {
            let r = throwaway.open(m.name.clone(), m.clone());
            cold_samples
                .entry(m.name.clone())
                .or_default()
                .push(r.wall.as_micros() as u64);
        }
    }
    let mut svc = WatchService::new(WatchConfig::default());
    let mut cold_micros: Vec<u64> = Vec::new();
    let mut cold_by_project: std::collections::HashMap<String, u64> =
        std::collections::HashMap::new();
    for m in &suite {
        let r = svc.open(m.name.clone(), m.clone());
        assert!(r.clean, "suite module {} must open clean", m.name);
        let samples = cold_samples.get_mut(&m.name).expect("two cold reps");
        samples.push(r.wall.as_micros() as u64);
        samples.sort_unstable();
        let median = samples[1];
        cold_micros.push(median);
        cold_by_project.insert(m.name.clone(), median);
    }

    let stream = edit_session_seeds(&params, &session);
    let mut check_micros: Vec<u64> = Vec::new();
    let (mut spliced, mut units_total) = (0usize, 0usize);
    let (mut degraded_revs, mut broken_revs, mut deduped_revs) = (0usize, 0usize, 0usize);
    let mut ratios: Vec<u64> = Vec::new();
    let mut worst: Vec<(u64, String, usize, usize, bool)> = Vec::new();
    let (mut checks_total, mut matched_cold_total) = (0u64, 0u64);
    for e in &stream {
        let project = params[e.module].name.as_str();
        svc.submit(project, e.op.clone()).expect("inbox has room");
        let r = svc.check(project).expect("session is open");
        let wall = r.wall.as_micros() as u64;
        check_micros.push(wall);
        // Edit-to-report latency relative to a cold compile of the SAME
        // project (per-mille, to keep the sample integral).
        let ratio = wall * 1000 / cold_by_project[project].max(1);
        ratios.push(ratio);
        checks_total += wall;
        matched_cold_total += cold_by_project[project];
        worst.push((
            ratio,
            project.to_string(),
            r.warm_streams,
            r.cold_streams,
            r.clean,
        ));
        spliced += r.warm_streams;
        units_total += r.warm_streams + r.cold_streams;
        if !r.degraded_units.is_empty() {
            degraded_revs += 1;
        }
        if !r.clean {
            broken_revs += 1;
        }
        if r.deduped {
            deduped_revs += 1;
        }
    }
    // The generator repairs every break before the stream ends, so every
    // session's final revision is clean.
    for p in &params {
        let s = svc.session(&p.name).expect("open session");
        assert!(
            s.diagnostics().is_empty(),
            "{} must end the session clean",
            p.name
        );
    }

    cold_micros.sort_unstable();
    check_micros.sort_unstable();
    ratios.sort_unstable();
    worst.sort_by_key(|w| std::cmp::Reverse(w.0));
    let suite_cold_total: u64 = cold_micros.iter().sum();
    let warm_ratio = spliced as f64 / units_total as f64;
    let (p50, p99, max) = (
        percentile(&check_micros, 0.50),
        percentile(&check_micros, 0.99),
        *check_micros.last().expect("non-empty"),
    );
    let cold_p50 = percentile(&cold_micros, 0.50);
    let (ratio_p50, ratio_p99) = (percentile(&ratios, 0.50), percentile(&ratios, 0.99));

    out.push_str(&format!(
        "  cold baseline (median of 3): p50 {cold_p50} us/module, suite total {suite_cold_total} us\n",
    ));
    out.push_str(&format!(
        "  edit-to-report latency: p50 {p50} us  p99 {p99} us  max {max} us over {} checks\n",
        check_micros.len()
    ));
    out.push_str(&format!(
        "  vs cold compile of the same module: p50 {:.2}x  p99 {:.2}x per check, \
         {:.2}x in aggregate (gate: aggregate < 1x)\n",
        ratio_p50 as f64 / 1000.0,
        ratio_p99 as f64 / 1000.0,
        checks_total as f64 / matched_cold_total as f64
    ));
    out.push_str("  slowest checks (vs own cold compile):\n");
    for (ratio, project, warm, cold, clean) in worst.iter().take(4) {
        out.push_str(&format!(
            "    {project}: {:.2}x (warm {warm} / cold {cold} streams{})\n",
            *ratio as f64 / 1000.0,
            if *clean { "" } else { ", broken revision" }
        ));
    }
    out.push_str(&format!(
        "  warm streams: {spliced}/{units_total} ({:.1}% spliced; floor 90%)\n",
        warm_ratio * 100.0
    ));
    out.push_str(&format!(
        "  revisions: {broken_revs} broken (degraded in {degraded_revs}), {deduped_revs} deduped, rest clean\n"
    ));
    let st = svc.store_stats();
    out.push_str(&format!(
        "  shared store: {} entries, {}/{} B used (peak {}), {} hits / {} misses\n",
        st.entries, st.bytes_in_use, st.budget, st.peak_bytes, st.hits, st.misses
    ));

    assert!(
        warm_ratio >= 0.90,
        "warm-hit ratio {warm_ratio:.3} below the 90% floor\n{out}"
    );
    assert!(
        p99 < suite_cold_total,
        "p99 edit-to-report ({p99} us) must beat a cold suite compile \
         ({suite_cold_total} us) at P=1\n{out}"
    );
    assert!(
        checks_total < matched_cold_total,
        "warm session checks ({checks_total} us) must beat cold compiles of the \
         same modules ({matched_cold_total} us) in aggregate at P=1\n{out}"
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\"schema\":\"ccm2-bench/watch/v1\",\"session\":{{\"modules\":{},\"edits\":{},\"seed\":{}}},\"latency_micros\":{{\"p50\":{p50},\"p99\":{p99},\"max\":{max},\"cold_open_p50\":{cold_p50},\"suite_cold_total\":{suite_cold_total}}},\"vs_cold_same_module\":{{\"p50\":{:.3},\"p99\":{:.3},\"aggregate\":{:.3}}},\"warm\":{{\"spliced\":{spliced},\"units\":{units_total},\"ratio\":{warm_ratio:.4}}},\"revisions\":{{\"checks\":{},\"broken\":{broken_revs},\"degraded\":{degraded_revs},\"deduped\":{deduped_revs}}},\"store\":{{\"entries\":{},\"bytes_in_use\":{},\"peak_bytes\":{},\"hits\":{},\"misses\":{}}}}}\n",
            suite.len(),
            session.edits,
            session.seed,
            ratio_p50 as f64 / 1000.0,
            ratio_p99 as f64 / 1000.0,
            checks_total as f64 / matched_cold_total as f64,
            check_micros.len(),
            st.entries,
            st.bytes_in_use,
            st.peak_bytes,
            st.hits,
            st.misses,
        );
        std::fs::write(path, json).expect("write BENCH_watch.json");
        out.push_str(&format!("\nwrote {}\n", path.display()));
    }
    out
}

// ---- fault-injection survival matrix ------------------------------------

/// The `reproduce -- faults` experiment: a survival matrix over fault
/// site × DKY strategy × executor. Every faulted compile must terminate
/// (no hang, no unwinding out of the executor), surface at least one
/// error naming the faulted stream, and leave every *non-faulted*
/// stream's object code byte-identical to the fault-free baseline.
/// Asserts internally; the returned table is the human-readable proof.
pub fn faults() -> String {
    // Injected panics are *caught* (that is the point of the drill);
    // keep the default hook from spraying backtraces over the report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(faults_inner);
    std::panic::set_hook(hook);
    match result {
        Ok(report) => report,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn faults_inner() -> String {
    use ccm2_faults::{FaultKind, FaultPlan};
    use std::collections::HashMap;

    let m = fault_module("Mx", 0xFA);

    // Each scenario: display name, the fault plan (parameterized on the
    // executor because stalls are virtual units on the simulator and
    // real milliseconds on threads), an optional per-task deadline per
    // executor, and the streams the fault is allowed to touch.
    type PlanFn = fn(bool) -> (FaultPlan, Option<u64>);
    let scenarios: Vec<(&str, PlanFn, &[&str])> = vec![
        (
            "panic  task:procparse(FaultShort)",
            |_| {
                (
                    FaultPlan::single("task:procparse(FaultShort)", FaultKind::Panic),
                    None,
                )
            },
            &["FaultShort"],
        ),
        (
            "panic  task:procparse(FaultNest)",
            |_| {
                (
                    FaultPlan::single("task:procparse(FaultNest)", FaultKind::Panic),
                    None,
                )
            },
            &["FaultNest"],
        ),
        (
            "panic  task:analyze(*FaultLong)",
            |_| {
                (
                    FaultPlan::single("task:analyze(*FaultLong)", FaultKind::Panic),
                    None,
                )
            },
            &["FaultLong"],
        ),
        (
            "panic  task:codegen(*FaultLong)",
            |_| {
                (
                    FaultPlan::single("task:codegen(*FaultLong)", FaultKind::Panic),
                    None,
                )
            },
            &["FaultLong"],
        ),
        (
            "panic  task:codegen(*FaultShort)",
            |_| {
                (
                    FaultPlan::single("task:codegen(*FaultShort)", FaultKind::Panic),
                    None,
                )
            },
            &["FaultShort"],
        ),
        (
            "lost   signal:heading(FaultShort)",
            |_| {
                (
                    FaultPlan::single("signal:heading(FaultShort)", FaultKind::LoseSignal),
                    None,
                )
            },
            &["FaultShort"],
        ),
        (
            "stall  task:procparse(FaultLong)",
            |sim| {
                if sim {
                    (
                        FaultPlan::single(
                            "task:procparse(FaultLong)",
                            FaultKind::Stall { units: 5_000 },
                        ),
                        Some(1_000),
                    )
                } else {
                    (
                        FaultPlan::single(
                            "task:procparse(FaultLong)",
                            FaultKind::Stall { units: 50 },
                        ),
                        Some(10_000),
                    )
                }
            },
            &["FaultLong"],
        ),
    ];

    let mut out = String::from(
        "Fault-injection survival matrix: site x 4 DKY strategies x {sim(4), threads(2)}\n\
         (each cell: compile terminates, >=1 error names the faulted stream,\n\
         non-faulted streams byte-identical to the fault-free baseline)\n\n",
    );
    let mut total = 0usize;

    // Fault-free baselines, one per strategy x executor: a map from
    // resolved unit name to its interner-independent rendering.
    let mut baselines: HashMap<(u32, bool), HashMap<String, String>> = HashMap::new();
    for (si, &strategy) in DkyStrategy::ALL.iter().enumerate() {
        for sim in [true, false] {
            let base = fault_compile(&m, strategy, sim, None, None, 0);
            assert!(
                base.errors.is_empty() && base.image.is_some(),
                "fault-free baseline must be clean"
            );
            baselines.insert((si as u32, sim), unit_map(&base));
        }
    }

    for (label, mk_plan, touched) in &scenarios {
        let mut cells = 0usize;
        let mut degraded = 0usize;
        let mut stalled = 0usize;
        for (si, &strategy) in DkyStrategy::ALL.iter().enumerate() {
            for sim in [true, false] {
                let (plan, deadline) = mk_plan(sim);
                let plan = Arc::new(plan);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fault_compile(&m, strategy, sim, Some(Arc::clone(&plan)), deadline, 0)
                }));
                let run = run.unwrap_or_else(|_| {
                    panic!("{label} [{strategy:?}/{}]: compile aborted", exec_name(sim))
                });
                assert!(plan.any_fired(), "{label}: the fault site never fired");
                assert!(
                    !run.errors.is_empty(),
                    "{label} [{strategy:?}/{}]: no degradation error surfaced",
                    exec_name(sim)
                );
                let named = run
                    .diagnostics
                    .iter()
                    .any(|d| touched.iter().any(|t| d.message.contains(t)));
                assert!(
                    named,
                    "{label} [{strategy:?}/{}]: no diagnostic names the faulted stream: {:#?}",
                    exec_name(sim),
                    run.diagnostics
                );
                degraded += usize::from(
                    run.errors
                        .iter()
                        .any(|e| matches!(e, ccm2::CompileError::StreamFault { .. })),
                );
                stalled += usize::from(
                    run.errors
                        .iter()
                        .any(|e| matches!(e, ccm2::CompileError::Stalled { .. })),
                );
                // Byte-equivalence of every non-faulted stream.
                let base_units = &baselines[&(si as u32, sim)];
                assert!(
                    run.image.is_some(),
                    "{label} [{strategy:?}/{}]: no image",
                    exec_name(sim)
                );
                let units = unit_map(&run);
                let is_touched = |name: &str| touched.iter().any(|t| name.contains(t));
                for (name, rendered) in units.iter().filter(|(n, _)| !is_touched(n)) {
                    assert_eq!(
                        Some(rendered),
                        base_units.get(name),
                        "{label} [{strategy:?}/{}]: non-faulted unit `{name}` diverged",
                        exec_name(sim)
                    );
                }
                for name in base_units.keys().filter(|n| !is_touched(n)) {
                    assert!(
                        units.contains_key(name),
                        "{label} [{strategy:?}/{}]: non-faulted unit `{name}` missing",
                        exec_name(sim)
                    );
                }
                cells += 1;
            }
        }
        total += cells;
        out.push_str(&format!(
            "  {label:<38} {cells}/8 survived  (degraded in {degraded}, stall-diagnosed in {stalled})\n"
        ));
    }
    out.push_str(&format!(
        "\n{total} faulted compiles: 0 hangs, 0 aborts, non-faulted streams byte-identical\n"
    ));
    out
}

/// The self-healing recovery matrix (`reproduce -- recover`): supervised
/// stream retry under transient and persistent faults, crossed with all
/// four DKY strategies and both executors, plus the service
/// kill/restart and torn-snapshot drills. Asserts its own invariants —
/// recovered runs byte-identical to fault-free baselines, zero lost
/// requests across a restart, fallback past a torn image — and reports
/// the counts.
pub fn recover() -> String {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(recover_inner);
    std::panic::set_hook(hook);
    match result {
        Ok(report) => report,
        Err(payload) => {
            if let Some(msg) = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
            {
                eprintln!("recover matrix failed: {msg}");
            }
            std::panic::resume_unwind(payload)
        }
    }
}

fn recover_inner() -> String {
    use ccm2_faults::{FaultKind, FaultPlan};
    use std::collections::HashMap;

    let m = fault_module("Mx", 0xFA);

    let mut out = String::from(
        "Self-healing recovery matrix: fault x 4 DKY strategies x {sim(4), threads(2)}\n\
         (transient faults: every stream recovers, output byte-identical to fault-free;\n\
         persistent faults: retries exhaust, the stream degrades, the rest is identical)\n\n",
    );

    // Fault-free baselines: the full unit map per strategy x executor.
    let mut baselines: HashMap<(u32, bool), HashMap<String, String>> = HashMap::new();
    for (si, &strategy) in DkyStrategy::ALL.iter().enumerate() {
        for sim in [true, false] {
            let base = fault_compile(&m, strategy, sim, None, None, 0);
            assert!(
                base.errors.is_empty() && base.image.is_some(),
                "fault-free baseline must be clean"
            );
            baselines.insert((si as u32, sim), unit_map(&base));
        }
    }

    // Transient faults: an exact site pattern matches dispatch attempt 0
    // only, so the supervised retry (`task:{name}#r1`) runs clean.
    type PlanFn = fn(bool) -> (FaultPlan, Option<u64>);
    let transient: Vec<(&str, PlanFn)> = vec![
        ("panic  task:procparse(FaultShort)", |_| {
            (
                FaultPlan::single("task:procparse(FaultShort)", FaultKind::Panic),
                None,
            )
        }),
        ("panic  task:codegen(*FaultLong)", |_| {
            (
                FaultPlan::single("task:codegen(*FaultLong)", FaultKind::Panic),
                None,
            )
        }),
        ("stall  task:procparse(FaultLong)", |sim| {
            if sim {
                // Deadline above every legitimate task cost (the
                // recovered stream's codegen runs ~1100 units) but
                // far below the stall, so only the stall is fatal.
                (
                    FaultPlan::single(
                        "task:procparse(FaultLong)",
                        FaultKind::Stall { units: 10_000 },
                    ),
                    Some(3_000),
                )
            } else {
                (
                    FaultPlan::single("task:procparse(FaultLong)", FaultKind::Stall { units: 50 }),
                    Some(10_000),
                )
            }
        }),
    ];

    let mut total = 0usize;
    for (label, mk_plan) in &transient {
        let mut cells = 0usize;
        for (si, &strategy) in DkyStrategy::ALL.iter().enumerate() {
            for sim in [true, false] {
                let (plan, deadline) = mk_plan(sim);
                let plan = Arc::new(plan);
                let run = fault_compile(&m, strategy, sim, Some(Arc::clone(&plan)), deadline, 2);
                assert!(plan.any_fired(), "{label}: the fault site never fired");
                assert!(
                    run.errors
                        .iter()
                        .all(|e| matches!(e, ccm2::CompileError::Recovered { .. }))
                        && !run.errors.is_empty(),
                    "{label} [{strategy:?}/{}]: expected only Recovered, got {:?}",
                    exec_name(sim),
                    run.errors
                );
                assert!(
                    run.is_ok(),
                    "{label} [{strategy:?}/{}]: recovery must not fail the compile",
                    exec_name(sim)
                );
                // Full byte-equivalence, faulted stream included: the
                // retried attempt converges to the fault-free output.
                let base_units = &baselines[&(si as u32, sim)];
                assert!(
                    run.image.is_some(),
                    "{label} [{strategy:?}/{}]: no image",
                    exec_name(sim)
                );
                assert_eq!(
                    &unit_map(&run),
                    base_units,
                    "{label} [{strategy:?}/{}]: recovered output diverged",
                    exec_name(sim)
                );
                cells += 1;
            }
        }
        total += cells;
        out.push_str(&format!(
            "  transient {label:<38} {cells}/8 recovered, byte-identical, 0 degraded\n"
        ));
    }

    // Persistent faults: a trailing glob also matches every retry site,
    // so the budget exhausts and the stream degrades — while every
    // other stream still matches the baseline byte for byte.
    let persistent: Vec<(&str, &str, &str)> = vec![
        (
            "panic  task:procparse(FaultShort)*",
            "task:procparse(FaultShort)*",
            "FaultShort",
        ),
        (
            "panic  task:codegen(*FaultLong)*",
            "task:codegen(*FaultLong)*",
            "FaultLong",
        ),
    ];
    for (label, pattern, touched) in &persistent {
        let mut cells = 0usize;
        for (si, &strategy) in DkyStrategy::ALL.iter().enumerate() {
            for sim in [true, false] {
                let plan = Arc::new(FaultPlan::single(*pattern, FaultKind::Panic));
                let run = fault_compile(&m, strategy, sim, Some(Arc::clone(&plan)), None, 2);
                assert!(
                    run.errors
                        .iter()
                        .any(|e| matches!(e, ccm2::CompileError::StreamFault { .. })),
                    "{label} [{strategy:?}/{}]: persistent fault must degrade",
                    exec_name(sim)
                );
                assert!(
                    plan.fired().iter().any(|f| f.contains("#r2")),
                    "{label} [{strategy:?}/{}]: the whole retry budget was not consumed: {:?}",
                    exec_name(sim),
                    plan.fired()
                );
                let base_units = &baselines[&(si as u32, sim)];
                assert!(
                    run.image.is_some(),
                    "{label} [{strategy:?}/{}]: no image",
                    exec_name(sim)
                );
                for (name, rendered) in unit_map(&run) {
                    if name.contains(touched) {
                        continue;
                    }
                    assert_eq!(
                        Some(&rendered),
                        base_units.get(&name),
                        "{label} [{strategy:?}/{}]: non-faulted unit `{name}` diverged",
                        exec_name(sim)
                    );
                }
                cells += 1;
            }
        }
        total += cells;
        out.push_str(&format!(
            "  persistent {label:<37} {cells}/8 degraded after retries exhausted\n"
        ));
    }

    // Service kill/restart: seeded load, snapshot at a kill point, kill,
    // restore, finish the load. Zero lost requests; the restored store
    // serves byte-identical artifacts with its LRU order intact.
    out.push('\n');
    let load = ccm2_workload::ServeLoadParams {
        seed: 0x5EED,
        projects: 2,
        clients: 4,
        events: 24,
        edit_every: 6,
        interface_every: 2,
    };
    let events = drill::requests(
        &ccm2_workload::serve_load(&load),
        ccm2_serve::ExecChoice::Sim(4),
    );
    let config = ccm2_serve::ServeConfig {
        workers: 2,
        queue_capacity: 32,
        store_budget: 64 * 1024,
        ..ccm2_serve::ServeConfig::default()
    };
    let snap_root = std::env::temp_dir().join(format!("ccm2-recover-{}", std::process::id()));
    for (ki, kill_at) in ccm2_workload::kill_points(&load, 3).into_iter().enumerate() {
        let dir = snap_root.join(format!("kill-{ki}"));
        let _ = std::fs::remove_dir_all(&dir);
        let snaps = ccm2_serve::SnapshotStore::new(&dir).expect("snapshot dir");
        let svc = ccm2_serve::CompileService::start(config);
        let mut served = 0usize;
        for r in svc.serve_batch(events[..kill_at].to_vec()) {
            assert!(r.outcome().is_some(), "pre-kill request lost");
            served += 1;
        }
        let exported = svc.store().export();
        svc.snapshot(&snaps).expect("snapshot");
        drop(svc); // the kill

        let svc = ccm2_serve::CompileService::restore(config, &snaps).expect("restore");
        assert_eq!(
            svc.store().export(),
            exported,
            "kill point {kill_at}: LRU order lost across restart"
        );
        // Replaying the most recent pre-kill request is a pure splice:
        // every unit is served from the restored store (the newest
        // entries are the last the LRU would evict).
        let replay = svc
            .submit(events[kill_at - 1].clone())
            .ticket()
            .expect("admitted")
            .wait();
        let incr = replay.incr.expect("incremental active");
        assert_eq!(
            incr.spliced, incr.units,
            "kill point {kill_at}: restored store did not serve the replay"
        );
        for r in svc.serve_batch(events[kill_at..].to_vec()) {
            assert!(r.outcome().is_some(), "post-restart request lost");
            served += 1;
        }
        assert_eq!(served, events.len());
        out.push_str(&format!(
            "  kill/restart at event {kill_at:>2}/{}: {served} served, 0 lost, \
             {} entries restored in LRU order, replay fully spliced\n",
            events.len(),
            exported.len()
        ));

        // Torn-snapshot drill at the same kill point: tear the newest
        // image, restore again, recovery must fall back to the good one.
        let good = snaps.save(svc.store()).expect("second snapshot");
        let exported = svc.store().export();
        drop(svc);
        let bytes = std::fs::read(&good).expect("read image");
        std::fs::write(dir.join("snap-99999999.img"), &bytes[..bytes.len() - 5])
            .expect("write torn image");
        let svc = ccm2_serve::CompileService::restore(config, &snaps).expect("restore past torn");
        assert_eq!(
            svc.store().export(),
            exported,
            "kill point {kill_at}: fallback past the torn image failed"
        );
        assert_eq!(snaps.quarantined_count(), 1, "torn image not quarantined");
        out.push_str(&format!(
            "  kill/restart at event {kill_at:>2}/{}: torn newest image quarantined, \
             fell back to last good image\n",
            events.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&snap_root);

    out.push_str(&format!(
        "\n{total} faulted compiles + 3 kill/restart + 3 torn-snapshot drills: \
         0 hangs, 0 lost requests, recovered outputs byte-identical\n"
    ));
    out
}

/// Enumerates the fault-site namespace (`reproduce -- sites`): one
/// probe-recording compile per executor logs every site the runtime
/// queries — task dispatches (with the `#r{k}` retry namespace), signal
/// deliveries and artifact-store writes — so chaos plans can be written
/// against real site names instead of grepping source.
pub fn fault_sites() -> String {
    use ccm2_faults::{FaultKind, FaultPlan};

    let m = fault_module("Mx", 0xFA);
    let compile = |plan: Arc<FaultPlan>, sim: bool, retries: u32| {
        let executor = if sim {
            Executor::Sim(SimConfig::firefly(4))
        } else {
            Executor::Threads(2)
        };
        let store = Arc::new(ccm2_serve::SharedStore::with_faults(
            1 << 20,
            Arc::clone(&plan),
        ));
        compile_concurrent(
            &m.source,
            Arc::new(m.defs.clone()),
            Arc::new(Interner::new()),
            Options {
                strategy: DkyStrategy::Skeptical,
                executor,
                analyze: true,
                faults: Some(plan),
                incremental: Some(store),
                max_stream_retries: retries,
                ..Options::default()
            },
        )
    };

    let mut out = String::from(
        "Fault-site namespace: every site queried by one probe-recording compile\n\
         (override patterns in a FaultPlan match these names; `*` is a wildcard)\n",
    );
    for sim in [true, false] {
        let plan = Arc::new(FaultPlan::new().with_probe_recording());
        let run = compile(Arc::clone(&plan), sim, 0);
        assert!(run.is_ok(), "probe sweep must compile clean");
        assert!(!plan.any_fired(), "probing must not inject");
        let probed = plan.probed();
        out.push_str(&format!("\n{} — {} sites:\n", exec_name(sim), probed.len()));
        for prefix in ["task:", "signal:", "store:"] {
            let group: Vec<&String> = probed.iter().filter(|s| s.starts_with(prefix)).collect();
            out.push_str(&format!("  {prefix:<8} {} sites\n", group.len()));
            for site in group {
                out.push_str(&format!("    {site}\n"));
            }
        }
    }

    // The retry namespace only appears when a supervised retry actually
    // dispatches; demonstrate it with one transient fault.
    let plan = Arc::new(
        FaultPlan::single("task:procparse(FaultShort)", FaultKind::Panic).with_probe_recording(),
    );
    let run = compile(Arc::clone(&plan), true, 1);
    assert!(run.is_ok(), "transient fault recovers");
    let retry_sites: Vec<String> = plan
        .probed()
        .into_iter()
        .filter(|s| s.contains("#r"))
        .collect();
    assert!(!retry_sites.is_empty(), "retry dispatch was not probed");
    out.push_str(
        "\nretry namespace (supervised recovery, attempt k queries `task:{name}#r{k}`):\n",
    );
    for site in retry_sites {
        out.push_str(&format!("    {site}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_partition_everything() {
        let rows: Vec<SpeedupRow> = (0..37)
            .map(|i| SpeedupRow {
                name: format!("m{i}"),
                t: vec![1000 - i as u64, 600],
            })
            .collect();
        let q = quartiles(&rows);
        assert_eq!(q.iter().map(Vec::len).sum::<usize>(), 37);
        assert_eq!(q[0].len(), 10);
        assert_eq!(q[3].len(), 9);
        // Q1 holds the fastest (smallest t1) rows.
        assert!(q[0].contains(&36));
    }

    #[test]
    fn speedup_row_math() {
        let r = SpeedupRow {
            name: "x".into(),
            t: vec![1000, 500, 250],
        };
        assert!((r.speedup(2) - 2.0).abs() < 1e-9);
        assert!((r.speedup(3) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fig5_mentions_all_stream_kinds() {
        let f = fig5();
        assert!(f.contains("Lexor"));
        assert!(f.contains("Splitter"));
        assert!(f.contains("Importer"));
        assert!(f.contains("StmtAnalyzer/CodeGen"));
        assert!(f.contains("CacheSplice"), "priority line covers splices");
    }

    #[test]
    fn serve_report_holds_its_invariants() {
        // serve_with asserts internally: byte-equivalence with
        // standalone compiles (matrix and per-event), no lost requests,
        // and the store budget invariant. A small load keeps this test
        // cheap; `reproduce -- serve` runs the full default.
        let report = serve_with(
            &ccm2_workload::ServeLoadParams {
                events: 12,
                ..ccm2_workload::ServeLoadParams::default()
            },
            ccm2_serve::ServeConfig {
                workers: 2,
                queue_capacity: 8,
                store_budget: 8 * 1024,
                paused: false,
                ..ccm2_serve::ServeConfig::default()
            },
        );
        assert!(report.contains("dedup ratio"));
        assert!(report.contains("never exceeded"));
        assert!(report.contains("0 lost, 0 mismatched"));
    }

    #[test]
    fn fabric_drill_holds_its_invariants() {
        // fabric_with asserts internally: byte-equivalence with
        // standalone compiles at every shard width and across the kill,
        // zero lost requests, store rebuilt bit-identically from
        // snapshot + delta replay with fewer bytes than a full image.
        let report = fabric_with(
            &ccm2_workload::ServeLoadParams {
                seed: 0xFAB5,
                projects: 2,
                clients: 4,
                events: 16,
                edit_every: 5,
                interface_every: 2,
            },
            &[1, 3],
            None,
        );
        assert!(report.contains("byte-identical to standalone"));
        assert!(report.contains("0 lost, 0 mismatched"));
        assert!(report.contains("delta restart"));
        assert!(!report.contains("wrote "), "no JSON without a path");
    }

    #[test]
    fn split_brain_cell_holds_its_invariants() {
        // The cell asserts internally: 0 lost, 0 hangs, byte-identity
        // to standalone, no epoch with two leaders, membership
        // converged on the durable image. One loopback cell per drill
        // kind keeps the unit suite fast; the full seeded matrix runs
        // under `reproduce -- chaosnet`.
        for kind in [
            ccm2_workload::RouterDrillKind::Kill,
            ccm2_workload::RouterDrillKind::Partition,
            ccm2_workload::RouterDrillKind::Duel,
        ] {
            let cell = split_brain_cell(0xD1CE, false, kind);
            assert!(cell.promoted_epoch >= 2, "standby claimed a fresh epoch");
            assert!(cell.promote_ticks >= 1);
            if kind != ccm2_workload::RouterDrillKind::Kill {
                assert!(
                    cell.a_demotions >= 1,
                    "the surviving ex-leader must demote ({:?}): {:?}",
                    kind,
                    cell.transcript
                );
            }
        }
    }

    #[test]
    fn split_brain_transcripts_are_deterministic() {
        // Same seed, same drill → identical transcripts, line for line.
        // The transcript carries phases, roles, epochs, grant histories
        // and memberships — and no wall-clock values — so this is the
        // replayability guarantee for split-brain investigations.
        let kind = ccm2_workload::RouterDrillKind::Duel;
        let first = split_brain_cell(0x5EED, false, kind).transcript;
        let second = split_brain_cell(0x5EED, false, kind).transcript;
        assert_eq!(first, second, "same seed must replay identically");
        let other = split_brain_cell(0x5EED + 1, false, kind).transcript;
        assert_ne!(first, other, "different seed takes a different path");
    }

    #[test]
    fn analysis_phase_parallelizes() {
        // A lint-seeded mid-size module: per-procedure Analyze tasks must
        // overlap on 8 processors, shrinking the phase's elapsed span.
        let mut p = ccm2_workload::suite_params(24);
        p.lint_seeds = true;
        let m = ccm2_workload::generate(&p);
        let opts = Options {
            analyze: true,
            ..Options::default()
        };
        let span1 = analysis_span(&sim_compile(&m, 1, opts.clone()).report.trace);
        let span8 = analysis_span(&sim_compile(&m, 8, opts).report.trace);
        assert!(span1 > 0, "no Analyze segments in the trace");
        assert!(
            (span8 as f64) < span1 as f64,
            "analysis span did not shrink: P=1 {span1}, P=8 {span8}"
        );
    }

    #[test]
    fn warm_suite_rebuild_is_faster_and_fully_hits() {
        use ccm2_incr::{ArtifactStore, MemStore};
        let m = ccm2_workload::generate(&ccm2_workload::suite_params(6));
        let store: Arc<dyn ArtifactStore> = Arc::new(MemStore::new());
        let opts = Options {
            incremental: Some(Arc::clone(&store)),
            ..Options::default()
        };
        let cold = sim_compile(&m, 4, opts.clone());
        let warm = sim_compile(&m, 4, opts);
        let ct = cold.report.virtual_time.expect("sim");
        let wt = warm.report.virtual_time.expect("sim");
        assert!(wt < ct, "warm {wt} not faster than cold {ct}");
        let stats = warm.incr.expect("incremental active");
        assert_eq!(stats.recompiled, 0);
        assert_eq!(stats.spliced, stats.units);
    }

    #[test]
    fn small_module_sim_and_seq_agree_on_success() {
        let m = ccm2_workload::generate(&ccm2_workload::GenParams::small("BenchSmoke", 9));
        let conc = sim_compile(&m, 2, Options::default());
        assert!(conc.is_ok());
        assert!(seq_virtual_time(&m) > 0);
    }
}
