//! The compile-path layer probe every traced run makes over its
//! workload's distinct sources: the frontend alone, the sequential
//! baseline, the concurrent compiler at one and two workers, the
//! scheduler's own trace, and the virtual-time simulator.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ccm2::{compile_concurrent, Options};
use ccm2_sched::{Segment, TaskKind};
use ccm2_support::{DiagnosticSink, Interner, SourceMap};
use ccm2_syntax::lexer::lex_file;
use ccm2_syntax::parser::{parse_definition, parse_implementation};
use ccm2_workload::GeneratedModule;

use crate::report::{Exact, Metric};
use crate::stats::{geomean, median};
use crate::trace::{union_within, Tracer};

/// Scheduler task kinds reported as `sched.span_self_ms.<kind>`.
pub const SPAN_KINDS: [(TaskKind, &str); 10] = [
    (TaskKind::Lexor, "lexor"),
    (TaskKind::Splitter, "splitter"),
    (TaskKind::Importer, "importer"),
    (TaskKind::DefModParse, "defmodparse"),
    (TaskKind::ModuleParse, "moduleparse"),
    (TaskKind::ProcParse, "procparse"),
    (TaskKind::LongCodeGen, "longcodegen"),
    (TaskKind::ShortCodeGen, "shortcodegen"),
    (TaskKind::CacheSplice, "cachesplice"),
    (TaskKind::Merge, "merge"),
];

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

/// One frontend pass over every source: `(lex ms, parse ms, tokens)`.
fn syntax_pass(modules: &[&GeneratedModule], tracer: &Tracer, rep: usize) -> (f64, f64, u64) {
    let (mut lex, mut parse, mut tokens) = (0.0, 0.0, 0u64);
    for (i, m) in modules.iter().enumerate() {
        let request = (rep * modules.len() + i) as u64;
        let root = tracer.start("probe.syntax", 0, request);
        let map = SourceMap::new();
        let interner = Interner::new();
        let sink = DiagnosticSink::new();
        let mut files = vec![(map.add(format!("{}.mod", m.name), m.source.clone()), true)];
        for (name, text) in m.defs.iter() {
            files.push((map.add(format!("{name}.def"), text.to_string()), false));
        }
        for (file, is_impl) in files {
            let t = Instant::now();
            let toks = tracer.span("syntax.lex_file", root.id(), request, || {
                lex_file(&file, &interner, &sink)
            });
            lex += ms(t);
            tokens += toks.len() as u64;
            let t = Instant::now();
            let parsed = if is_impl {
                tracer.span("syntax.parse_implementation", root.id(), request, || {
                    parse_implementation(&toks, &interner, &sink).is_some()
                })
            } else {
                tracer.span("syntax.parse_definition", root.id(), request, || {
                    parse_definition(&toks, &interner, &sink).is_some()
                })
            };
            parse += ms(t);
            assert!(parsed, "generated source {} must parse", file.name());
        }
        tracer.end(root);
    }
    (lex, parse, tokens)
}

/// Self time per task kind (µs) and per-processor busy union (µs) of
/// one run's trace. A segment's self time excludes segments nested
/// inside it on the same worker.
fn trace_self_times(segments: &[Segment]) -> (BTreeMap<TaskKind, u64>, u64) {
    let mut by_proc: BTreeMap<u32, Vec<&Segment>> = BTreeMap::new();
    for s in segments {
        by_proc.entry(s.proc).or_default().push(s);
    }
    let mut kinds: BTreeMap<TaskKind, u64> = BTreeMap::new();
    let mut busy = 0.0;
    for segs in by_proc.values() {
        for (i, s) in segs.iter().enumerate() {
            let nested: Vec<(f64, f64)> = segs
                .iter()
                .enumerate()
                .filter(|&(j, o)| {
                    j != i
                        && o.start >= s.start
                        && o.end <= s.end
                        && (o.end - o.start < s.end - s.start || j > i)
                })
                .map(|(_, o)| (o.start as f64, o.end as f64))
                .collect();
            let own =
                (s.end - s.start) as f64 - union_within(&nested, s.start as f64, s.end as f64);
            *kinds.entry(s.kind).or_default() += own.max(0.0) as u64;
        }
        let all: Vec<(f64, f64)> = segs
            .iter()
            .map(|s| (s.start as f64, s.end as f64))
            .collect();
        busy += union_within(&all, f64::MIN, f64::MAX);
    }
    (kinds, busy as u64)
}

/// Runs the probe with `reps` repetitions of every wall-clock
/// measurement (medians are reported) and returns the per-layer metrics
/// plus the exact counts it saw on every repetition.
pub fn compile_path(
    modules: &[&GeneratedModule],
    reps: usize,
    tracer: &Tracer,
) -> (Vec<Metric>, Exact) {
    assert!(!modules.is_empty() && reps > 0);
    let n = modules.len();
    let mut exact = Exact::default();

    let mut lex = Vec::new();
    let mut parse = Vec::new();
    for rep in 0..reps {
        let (l, p, tokens) = syntax_pass(modules, tracer, rep);
        lex.push(l);
        parse.push(p);
        exact.see("syntax.tokens", tokens as f64);
    }

    let mut seq = vec![Vec::new(); n];
    let mut t1 = vec![Vec::new(); n];
    let mut t2 = vec![Vec::new(); n];
    let mut tasks = Vec::new();
    let mut kind_ms: BTreeMap<TaskKind, Vec<f64>> = BTreeMap::new();
    let mut utilization = Vec::new();
    for rep in 0..reps {
        let (mut pass_tasks, mut busy, mut capacity) = (0u64, 0u64, 0u64);
        let mut kinds: BTreeMap<TaskKind, u64> = BTreeMap::new();
        for (i, m) in modules.iter().enumerate() {
            let request = (rep * n + i) as u64;
            let root = tracer.start("probe.compile", 0, request);
            let t = Instant::now();
            tracer.span("seq.compile", root.id(), request, || {
                ccm2_seq::compile(&m.source, &m.defs)
            });
            seq[i].push(ms(t));
            for (threads, times) in [(1usize, &mut t1), (2, &mut t2)] {
                let defs = Arc::new(m.defs.clone());
                let t = Instant::now();
                let out = tracer.span("core.compile_concurrent", root.id(), request, || {
                    compile_concurrent(
                        &m.source,
                        defs,
                        Arc::new(Interner::new()),
                        Options::threads(threads),
                    )
                });
                times[i].push(ms(t));
                assert!(out.is_ok(), "{} must compile clean", m.name);
                if threads == 2 {
                    pass_tasks += out.report.tasks_run as u64;
                    let (k, b) = trace_self_times(&out.report.trace.segments);
                    for (kind, us) in k {
                        *kinds.entry(kind).or_default() += us;
                    }
                    busy += b;
                    capacity += 2 * out.report.trace.makespan();
                }
            }
            tracer.end(root);
        }
        tasks.push(pass_tasks as f64);
        exact.see("sched.tasks", pass_tasks as f64);
        for (kind, _) in SPAN_KINDS {
            kind_ms
                .entry(kind)
                .or_default()
                .push(kinds.get(&kind).copied().unwrap_or(0) as f64 / 1000.0);
        }
        utilization.push(busy as f64 / capacity.max(1) as f64);
    }

    let seq_med: Vec<f64> = seq.iter().map(|v| median(v)).collect();
    let t1_med: Vec<f64> = t1.iter().map(|v| median(v)).collect();
    let t2_med: Vec<f64> = t2.iter().map(|v| median(v)).collect();
    let ratio = |idx: &[usize]| geomean(idx.iter().map(|&i| t1_med[i] / seq_med[i]));

    // Quartiles by sequential compile time, Q1 the fastest modules.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| seq_med[a].total_cmp(&seq_med[b]));
    let quartile = |q: usize| -> Vec<usize> {
        let (lo, hi) = (q * n / 4, ((q + 1) * n / 4).max(q * n / 4 + 1).min(n));
        order[lo.min(n - 1)..hi].to_vec()
    };

    // The simulator is deterministic: one run at P=1 and one at P=8.
    let mut vt = Vec::with_capacity(n);
    for (i, m) in modules.iter().enumerate() {
        let run = |p: u32| {
            let out = tracer.span("sched.sim", 0, i as u64, || {
                compile_concurrent(
                    &m.source,
                    Arc::new(m.defs.clone()),
                    Arc::new(Interner::new()),
                    Options::sim(p),
                )
            });
            out.report
                .virtual_time
                .expect("the simulator reports virtual time") as f64
        };
        vt.push(run(1) / run(8));
    }
    let vt_speedup = geomean(vt.iter().copied());
    exact.see("sched.vt_speedup_p8", vt_speedup);

    let all: Vec<usize> = (0..n).collect();
    let mut layers = vec![
        Metric::new("syntax.lex_ms", "ms", median(&lex), reps),
        Metric::new("syntax.parse_ms", "ms", median(&parse), reps),
        Metric::new("syntax.tokens", "count", exact.first("syntax.tokens"), reps),
        Metric::new(
            "seq.module_ms_geomean",
            "ms",
            geomean(seq_med.iter().copied()),
            n * reps,
        ),
        Metric::new(
            "core.t1_module_ms_geomean",
            "ms",
            geomean(t1_med.iter().copied()),
            n * reps,
        ),
        Metric::new("core.scaffold_ratio", "ratio", ratio(&all), n * reps),
    ];
    for q in 0..4 {
        let idx = quartile(q);
        layers.push(Metric::new(
            &format!("core.scaffold_ratio.q{}", q + 1),
            "ratio",
            ratio(&idx),
            idx.len() * reps,
        ));
    }
    layers.push(Metric::new("sched.tasks", "count", median(&tasks), reps));
    layers.push(Metric::new(
        "sched.par_gain",
        "ratio",
        geomean((0..n).map(|i| t1_med[i] / t2_med[i])),
        n * reps,
    ));
    for (kind, label) in SPAN_KINDS {
        layers.push(Metric::new(
            &format!("sched.span_self_ms.{label}"),
            "ms",
            median(&kind_ms[&kind]),
            reps,
        ));
    }
    layers.push(Metric::new(
        "sched.utilization",
        "ratio",
        median(&utilization),
        reps,
    ));
    layers.push(Metric::new("sched.vt_speedup_p8", "ratio", vt_speedup, n));
    (layers, exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(proc: u32, kind: TaskKind, start: u64, end: u64) -> Segment {
        Segment {
            proc,
            kind,
            name: String::new(),
            start,
            end,
        }
    }

    #[test]
    fn nested_segments_are_subtracted_from_their_host() {
        let segs = [
            seg(0, TaskKind::ProcParse, 0, 100),
            seg(0, TaskKind::ShortCodeGen, 20, 50),
            seg(1, TaskKind::Merge, 10, 30),
        ];
        let (kinds, busy) = trace_self_times(&segs);
        assert_eq!(kinds[&TaskKind::ProcParse], 70);
        assert_eq!(kinds[&TaskKind::ShortCodeGen], 30);
        assert_eq!(kinds[&TaskKind::Merge], 20);
        assert_eq!(busy, 120);
    }
}
