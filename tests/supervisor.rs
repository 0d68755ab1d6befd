//! Supervisor invariants that the wall-clock fast paths must not move:
//!
//! * the simulator's virtual makespan and task count for a fixed set of
//!   suite modules are pinned (any change to where token blocks seal or
//!   to the `charge` call sequence shows up here first);
//! * the per-[`Work`] charge totals are a property of the program, not of
//!   the executor: threads(1), threads(2) and sim(8) must agree exactly,
//!   also when every code-generation task is faulted once and retried.

use std::sync::Arc;

use ccm2::{compile_concurrent, CompileError, ConcurrentOutput, Executor, Options};
use ccm2_faults::{FaultKind, FaultPlan};
use ccm2_sched::SimConfig;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_support::work::Work;
use ccm2_support::Interner;
use ccm2_workload::{generate, suite_params, GeneratedModule};

/// One small, one mid-size and one large Table-1 module.
const MODULES: [usize; 3] = [4, 18, 30];

fn compile(m: &GeneratedModule, options: Options) -> ConcurrentOutput {
    let out = compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()),
        Arc::new(Interner::new()),
        options,
    );
    assert!(out.image.is_some(), "no image");
    out
}

/// `(suite index, sim(1) virtual_time, sim(1) tasks_run, sim(8)
/// virtual_time, sim(8) tasks_run)`. The simulator must see the same
/// `charge` calls and token-block seal points whatever the threaded
/// executor's fast paths do, so these never move with them.
const PINNED: [(usize, u64, usize, u64, usize); 3] = [
    (4, 2471, 26, 929, 26),
    (18, 14968, 82, 2691, 82),
    (30, 122662, 358, 19968, 358),
];

#[test]
fn sim_virtual_time_and_task_counts_are_pinned() {
    for (index, vt1, tasks1, vt8, tasks8) in PINNED {
        let m = generate(&suite_params(index));
        let one = compile(&m, Options::sim(1)).report;
        let eight = compile(&m, Options::sim(8)).report;
        let got = (
            index,
            one.virtual_time.expect("sim reports virtual time"),
            one.tasks_run,
            eight.virtual_time.expect("sim reports virtual time"),
            eight.tasks_run,
        );
        assert_eq!(got, (index, vt1, tasks1, vt8, tasks8), "suite[{index}]");
    }
}

/// Avoidance DKY: a scope is analysed only once its parents are
/// complete, so even the `Lookup` count is a property of the program.
/// (Skeptical and Optimistic probe incomplete tables, and the number of
/// probes depends on the interleaving.)
fn avoiding(executor: Executor) -> Options {
    Options {
        strategy: DkyStrategy::Avoidance,
        executor,
        ..Options::default()
    }
}

fn charge_table(out: &ConcurrentOutput) -> Vec<(Work, u64)> {
    Work::ALL
        .iter()
        .map(|&w| (w, out.report.charges[w as usize]))
        .collect()
}

#[test]
fn charges_are_conserved_across_executors_and_recovered_faults() {
    for index in MODULES {
        let m = generate(&suite_params(index));
        let reference = charge_table(&compile(&m, avoiding(Executor::Threads(1))));
        assert!(
            reference.iter().any(|&(_, c)| c > 0),
            "suite[{index}]: nothing charged"
        );
        for (what, options) in [
            ("threads(2)", avoiding(Executor::Threads(2))),
            ("sim(8)", avoiding(Executor::Sim(SimConfig::firefly(8)))),
        ] {
            assert_eq!(
                charge_table(&compile(&m, options)),
                reference,
                "suite[{index}]: {what} charges differ from threads(1)"
            );
        }
        // Every code-generation task panics on its first dispatch and is
        // retried: per-worker charge buffers must lose nothing.
        for (what, base) in [
            ("threads(2)+retry", avoiding(Executor::Threads(2))),
            (
                "sim(8)+retry",
                avoiding(Executor::Sim(SimConfig::firefly(8))),
            ),
        ] {
            let plan = Arc::new(FaultPlan::single("task:codegen(*)", FaultKind::Panic));
            let out = compile(
                &m,
                Options {
                    faults: Some(Arc::clone(&plan)),
                    max_stream_retries: 1,
                    ..base
                },
            );
            assert!(plan.any_fired(), "suite[{index}] {what}: fault never fired");
            assert!(
                !out.errors.is_empty()
                    && out
                        .errors
                        .iter()
                        .all(|e| matches!(e, CompileError::Recovered { .. })),
                "suite[{index}] {what}: expected only recoveries, got {:?}",
                out.errors
            );
            assert_eq!(
                charge_table(&out),
                reference,
                "suite[{index}]: {what} charges differ from threads(1)"
            );
        }
    }
}
