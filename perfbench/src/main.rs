//! Wall-clock benchmark of the ccm2 compiler, its editor loop and its
//! build farm.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-cold|edit-session|build-farm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from `--seed`, computes reference
//! outputs (untimed), sets the program up several times (timed as
//! `setup_s`), then runs a fixed amount of work sized from `--seconds`
//! with tracing off and checks every output. With `--trace 1` it runs
//! the same work again with spans on, probes each compile-path layer,
//! and reports the per-layer metrics instead. The last line of standard
//! output is the JSON result; `README.md` maps every metric to its
//! layer.

mod edit;
mod farm;
mod oracle;
mod probe;
mod report;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ccm2_workload::GeneratedModule;

use oracle::Tally;
use report::{json_metrics, json_string, Exact, Metric, Outcome};
use trace::Tracer;

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order, with their units.
pub const E2E: [(&str, &str); 6] = [
    ("op_ms_geomean", "ms"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units,
/// besides one `trace.overhead.<metric>` per end-to-end metric. A layer
/// a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("syntax.lex_ms", "ms"),
    ("syntax.parse_ms", "ms"),
    ("syntax.tokens", "count"),
    ("seq.module_ms_geomean", "ms"),
    ("core.t1_module_ms_geomean", "ms"),
    ("core.scaffold_ratio", "ratio"),
    ("core.scaffold_ratio.q1", "ratio"),
    ("core.scaffold_ratio.q2", "ratio"),
    ("core.scaffold_ratio.q3", "ratio"),
    ("core.scaffold_ratio.q4", "ratio"),
    ("sched.tasks", "count"),
    ("sched.par_gain", "ratio"),
    ("sched.span_self_ms.lexor", "ms"),
    ("sched.span_self_ms.splitter", "ms"),
    ("sched.span_self_ms.importer", "ms"),
    ("sched.span_self_ms.defmodparse", "ms"),
    ("sched.span_self_ms.moduleparse", "ms"),
    ("sched.span_self_ms.procparse", "ms"),
    ("sched.span_self_ms.longcodegen", "ms"),
    ("sched.span_self_ms.shortcodegen", "ms"),
    ("sched.span_self_ms.cachesplice", "ms"),
    ("sched.span_self_ms.merge", "ms"),
    ("sched.utilization", "ratio"),
    ("sched.vt_speedup_p8", "ratio"),
    ("incr.warm_ratio", "ratio"),
    ("incr.store_hits", "count"),
    ("incr.store_misses", "count"),
    ("watch.open_ms_p50", "ms"),
    ("watch.deduped", "count"),
    ("watch.degraded", "count"),
    ("serve.request_ms_p50", "ms"),
    ("serve.compile_ms_p50", "ms"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.store_hit_rate", "ratio"),
    ("serve.store_evictions", "count"),
    ("serve.shed", "count"),
    ("fabric.overhead_ms_p50", "ms"),
    ("fabric.gap_ms_p50", "ms"),
    ("fabric.wire_bytes_per_req", "bytes"),
    ("fabric.codec_us_per_req", "us"),
    ("fabric.routed_calls", "count"),
    ("fabric.router_joined", "count"),
    ("fabric.delta_ships", "count"),
    ("selfcheck.nondeterministic", "count"),
];

/// Every per-layer metric name with its unit, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(E2E.iter().map(|&(n, u)| (format!("trace.overhead.{n}"), u)));
    all
}

/// At most this many of a workload's distinct modules go through the
/// compile-path probe.
const PROBE_MODULES: usize = 48;

/// A stable 64-bit mix of a seed and a salt (splitmix64 finalizer).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One timed phase: every operation's latency, by block and by input. A
/// block is one repetition of the workload's unit of work (a suite pass,
/// an eighth of the edit stream, a replay of the request stream). Each
/// statistic is computed per block (a tail percentile over as many
/// consecutive blocks as it needs samples), and the blocks are summarised
/// by their better quartile: the lower quartile of latencies, the upper
/// quartile of throughputs. Host interference such as CPU steal comes in
/// episodes that slow some blocks and not others, so it moves the result
/// less than a median would; a change that slows every block moves it in
/// full.
pub struct Phase {
    inputs: usize,
    blocks: Vec<Block>,
    pub tally: Tally,
    pub exact: Exact,
    /// Per-layer metrics observed during the phase.
    pub layers: Vec<Metric>,
}

#[derive(Default)]
struct Block {
    /// `(input, ms)` per completed operation.
    samples: Vec<(usize, f64)>,
    /// Wall time of the block in seconds when operations overlap; 0
    /// means operations ran one at a time and their latencies add up.
    wall_s: f64,
}

impl Block {
    fn seconds(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.wall_s
        } else {
            self.samples.iter().map(|s| s.1).sum::<f64>() / 1000.0
        }
    }
}

impl Phase {
    pub fn new(inputs: usize) -> Phase {
        Phase {
            inputs,
            blocks: vec![Block::default()],
            tally: Tally::default(),
            exact: Exact::default(),
            layers: Vec::new(),
        }
    }

    /// Records one operation on input `input` that took `ms`, in the
    /// current block.
    pub fn sample(&mut self, input: usize, ms: f64) {
        self.current().samples.push((input, ms));
    }

    /// Sets the current block's wall time, for operations that overlap.
    pub fn block_wall(&mut self, seconds: f64) {
        self.current().wall_s = seconds;
    }

    /// Starts the next block.
    pub fn next_block(&mut self) {
        self.blocks.push(Block::default());
    }

    fn current(&mut self) -> &mut Block {
        self.blocks.last_mut().expect("a current block")
    }

    pub fn ops(&self) -> usize {
        self.blocks.iter().map(|b| b.samples.len()).sum()
    }

    /// `stat` of every block that completed an operation.
    fn per_block(&self, stat: impl Fn(&Block) -> f64) -> Vec<f64> {
        self.blocks
            .iter()
            .filter(|b| !b.samples.is_empty())
            .map(stat)
            .collect()
    }

    /// Geometric mean over inputs of each input's median latency.
    pub fn geomean_of_medians(&self) -> f64 {
        lower_quartile(self.per_block(|b| {
            let mut by_input = vec![Vec::new(); self.inputs];
            for &(input, ms) in &b.samples {
                by_input[input].push(ms);
            }
            stats::geomean(
                by_input
                    .iter()
                    .filter(|v| !v.is_empty())
                    .map(|v| stats::median(v)),
            )
        }))
    }

    /// The `q` percentile of operation latency, over groups of
    /// consecutive blocks just large enough to leave ten samples beyond
    /// it.
    pub fn percentile(&self, q: f64) -> f64 {
        let need = (10.0 / (1.0 - q)).ceil() as usize;
        let mut groups: Vec<Vec<f64>> = vec![Vec::new()];
        for b in &self.blocks {
            if groups.last().is_some_and(|g| g.len() >= need) {
                groups.push(Vec::new());
            }
            groups
                .last_mut()
                .expect("a group")
                .extend(b.samples.iter().map(|s| s.1));
        }
        // A short tail joins the group before it.
        if groups.len() > 1 && groups.last().is_some_and(|g| g.len() < need) {
            let tail = groups.pop().expect("a tail group");
            groups.last_mut().expect("a group").extend(tail);
        }
        lower_quartile(
            groups
                .iter()
                .filter(|g| !g.is_empty())
                .map(|g| stats::percentile(&stats::sorted(g), q))
                .collect(),
        )
    }

    /// Operations completed per second.
    pub fn throughput(&self) -> f64 {
        let per_block = self.per_block(|b| b.samples.len() as f64 / b.seconds());
        assert!(!per_block.is_empty(), "no block completed an operation");
        stats::percentile(&stats::sorted(&per_block), 0.75)
    }
}

fn lower_quartile(values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "no block completed an operation");
    stats::percentile(&stats::sorted(&values), 0.25)
}

/// A workload: seeded inputs and reference outputs built at
/// construction, then set-up, a timed phase and per-layer extras.
pub trait Workload {
    /// The program state set-up produces and the timed phase consumes.
    type System;

    fn name(&self) -> &'static str;
    /// The distinct generated modules the workload compiles.
    fn modules(&self) -> Vec<&GeneratedModule>;
    /// The generated operations beyond the modules themselves, as text
    /// for the inputs digest.
    fn schedule(&self) -> String {
        String::new()
    }
    fn setup(&self) -> Self::System;
    fn setup_repeats(&self) -> usize;
    /// The timed phase, outputs checked; `deadline` turns the rest of
    /// the work into timeouts.
    fn run(&self, system: Self::System, tracer: &Tracer, deadline: Instant) -> Phase;
    /// The phase's end-to-end numbers under the workload's own names.
    fn named(&self, phase: &Phase) -> Vec<Metric>;
    /// `(key, digest)` of every reference output, for the committed list.
    fn reference(&self) -> Vec<(String, u64)>;
    /// Per-layer metrics that need traced work beyond the phase, as a
    /// phase without timed operations of its own.
    fn layers(&self, _traced: &Phase, _tracer: &Tracer) -> Phase {
        Phase::new(0)
    }
}

struct Config {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_digests: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <suite-cold|edit-session|build-farm> --seed <n> --seconds <s> \
     --trace <0|1> [--record-digests]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        record_digests: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&cfg.seconds) {
                    return Err("--seconds must be in 1..=600".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record-digests" => cfg.record_digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

/// Peak resident memory of this process, reset before each timed phase.
mod rss {
    /// Resets the kernel's high-water mark to the current resident size
    /// (Linux `clear_refs` mode 5) and returns that size in MB.
    pub fn reset_peak() -> f64 {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        status_mb("VmRSS:")
    }

    /// The high-water mark since the last reset, in MB.
    pub fn peak_mb() -> f64 {
        status_mb("VmHWM:")
    }

    fn status_mb(field: &str) -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with(field))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }
}

/// Directory for span dumps and exact-count records.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn git_commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(root.join(".git/packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn e2e_metrics(phase: &Phase, setup_s: f64, setup_samples: usize, peak_mb: f64) -> Vec<Metric> {
    let ops = phase.ops();
    vec![
        Metric::new("op_ms_geomean", "ms", phase.geomean_of_medians(), ops),
        Metric::new("op_ms_p50", "ms", phase.percentile(0.50), ops),
        Metric::new("op_ms_p99", "ms", phase.percentile(0.99), ops),
        Metric::new("ops_per_s", "1/s", phase.throughput(), ops),
        Metric::new("setup_s", "s", setup_s, setup_samples),
        Metric::new("peak_rss_mb", "MB", peak_mb, 1),
    ]
}

/// Runs `w` end to end under `cfg`.
/// With `--record-digests` only prints the reference digests and
/// returns `None`.
fn drive<W: Workload>(w: &W, cfg: &Config) -> Option<Outcome> {
    let reference = w.reference();
    if cfg.record_digests {
        print!(
            "{}",
            oracle::digest_lines(w.name(), cfg.seed, cfg.seconds, &reference)
        );
        return None;
    }
    let phase_budget = Duration::from_secs(3 * cfg.seconds + 20);
    let modules = w.modules();
    let inputs_digest = oracle::inputs_digest(modules.iter().copied(), &w.schedule());
    let mut tally = Tally::default();
    oracle::check_committed(
        &oracle::committed(w.name(), cfg.seed, cfg.seconds),
        &reference,
        &mut tally,
    );

    let mut setup_times = Vec::new();
    let mut system = None;
    for _ in 0..w.setup_repeats() {
        drop(system.take());
        let t = Instant::now();
        system = Some(w.setup());
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setup_times);
    let system = system.expect("at least one set-up");

    let off = Tracer::new(false);
    let base = rss::reset_peak();
    let untraced = w.run(system, &off, Instant::now() + phase_budget);
    let peak = rss::peak_mb();
    let e2e = e2e_metrics(&untraced, setup_s, setup_times.len(), peak);
    let mut named = w.named(&untraced);
    named.push(Metric::new("setup_s", "s", setup_s, setup_times.len()));
    named.push(Metric::new("peak_rss_mb", "MB", peak, 1));

    let mut exact = Exact::default();
    let mut layers = Vec::new();
    let mut spans = Vec::new();
    if cfg.trace {
        let tracer = Tracer::new(true);
        let t = Instant::now();
        let system = tracer.span("setup", 0, 0, || w.setup());
        let traced_setup = t.elapsed().as_secs_f64();
        let traced_base = rss::reset_peak();
        let traced = w.run(system, &tracer, Instant::now() + phase_budget);
        // Memory the allocator kept from the untraced phase raises the
        // traced phase's baseline; compare growth above each baseline.
        let traced_peak = rss::peak_mb() - traced_base + base;
        let traced_e2e = e2e_metrics(&traced, traced_setup, 1, traced_peak);
        for (u, t) in e2e.iter().zip(&traced_e2e) {
            layers.push(Metric::new(
                &format!("trace.overhead.{}", u.name),
                u.unit,
                t.value - u.value,
                t.samples,
            ));
        }
        // The first distinct modules stand for a workload with many.
        let probed = &modules[..modules.len().min(PROBE_MODULES)];
        let (probe_layers, probe_exact) = probe::compile_path(probed, 3, &tracer);
        layers.extend(probe_layers);
        let extra = w.layers(&traced, &tracer);
        layers.extend(traced.layers.iter().cloned());
        layers.extend(extra.layers);
        exact.absorb(untraced.exact);
        exact.absorb(traced.exact);
        exact.absorb(probe_exact);
        exact.absorb(extra.exact);
        tally.absorb(traced.tally);
        tally.absorb(extra.tally);
        spans = tracer.spans();
    } else {
        exact.absorb(untraced.exact);
    }
    tally.absorb(untraced.tally);

    Some(Outcome {
        e2e,
        named,
        layers,
        exact,
        tally,
        inputs_digest,
        spans,
    })
}

/// Compares this run's exact counts with the last traced run of the
/// same workload, seed and length, then records them for the next.
fn cross_run_mismatches(cfg: &Config, exact: &Exact) -> Vec<String> {
    let path = out_dir().join(format!(
        "exact-{}-s{}-t{}.txt",
        cfg.workload, cfg.seed, cfg.seconds
    ));
    let now: String = exact
        .firsts()
        .iter()
        .map(|(n, v)| format!("{n} {:016x}\n", v.to_bits()))
        .collect();
    let mut out = Vec::new();
    if let Ok(before) = std::fs::read_to_string(&path) {
        for (old, new) in before.lines().zip(now.lines()) {
            if old != new {
                out.push(format!("across runs: was `{old}`, now `{new}`"));
            }
        }
    }
    let _ = std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, &now));
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // A hung layer must not hang the benchmark: give up well inside the
    // 180-second limit, without printing a result. The watchdog is never
    // joined; returning from `main` ends it with the process.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(170));
        eprintln!("perfbench: run exceeded 170 s; aborting without a result");
        std::process::exit(3);
    });

    let started = Instant::now();
    let outcome = match cfg.workload.as_str() {
        "suite-cold" => drive(&suite::SuiteCold::new(cfg.seed, cfg.seconds), &cfg),
        "edit-session" => drive(&edit::EditSession::new(cfg.seed, cfg.seconds), &cfg),
        "build-farm" => drive(&farm::BuildFarm::new(cfg.seed, cfg.seconds), &cfg),
        other => {
            eprintln!("unknown workload {other}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(outcome) = outcome else {
        return ExitCode::SUCCESS;
    };

    let mut nondeterminism = outcome.exact.mismatches();
    if cfg.trace {
        nondeterminism.extend(cross_run_mismatches(&cfg, &outcome.exact));
    }

    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"mode\": {}, \"inputs_digest\": {}, \
         \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}}}",
        json_string(&cfg.workload),
        cfg.seed,
        cfg.seconds,
        json_string(if cfg.trace { "traced" } else { "untraced" }),
        json_string(&outcome.inputs_digest),
        nproc(),
        json_string(&cpu_model()),
        json_string(env!("PERFBENCH_RUSTC_VERSION")),
        json_string(&git_commit()),
    );
    println!(
        "# {} end to end (untraced), attempted {} failed {}",
        cfg.workload, outcome.tally.attempted, outcome.tally.failed
    );
    for m in &outcome.named {
        println!(
            "#   {:<22} {:>12.4} {:<5} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &outcome.tally.notes {
        println!("# FAILED: {note}");
    }
    for line in &nondeterminism {
        println!("# NONDETERMINISM: {line}");
    }

    let metrics = if cfg.trace {
        let declared = per_layer();
        let mut layers: Vec<Metric> = declared
            .iter()
            .map(|(n, unit)| {
                outcome
                    .layers
                    .iter()
                    .find(|m| &m.name == n)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(n, unit, 0.0, 0))
            })
            .collect();
        for m in &outcome.layers {
            assert!(
                declared.iter().any(|(n, u)| *n == m.name && *u == m.unit),
                "per-layer metric {} ({}) is not declared",
                m.name,
                m.unit
            );
        }
        if let Some(m) = layers
            .iter_mut()
            .find(|m| m.name == "selfcheck.nondeterministic")
        {
            m.value = nondeterminism.len() as f64;
        }
        println!("# per layer (traced; 0 = layer not exercised by this workload)");
        for m in &layers {
            println!(
                "#   {:<34} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for (name, count, total, own) in trace::self_times(&outcome.spans)
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
        {
            println!(
                "#   span {name:<30} n={count:<6} total {total:>10.2} ms  self {own:>10.2} ms"
            );
        }
        let path = out_dir().join(format!("spans-{}-s{}.jsonl", cfg.workload, cfg.seed));
        match trace::write_jsonl(&path, &outcome.spans) {
            Ok(()) => println!(
                "# wrote {} spans to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => println!("# could not write spans: {e}"),
        }
        layers
    } else {
        outcome.e2e.clone()
    };
    println!("# wall {:.1} s", started.elapsed().as_secs_f64());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
