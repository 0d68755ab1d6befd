//! `suite-cold`: the 37 Table-1 modules, each compiled cold with
//! `compile_concurrent(.., Options::default())` (threads(2), Skeptical,
//! fresh interner, no store), pass after pass.

use std::sync::Arc;
use std::time::Instant;

use ccm2::{compile_concurrent, Options};
use ccm2_support::defs::DefLibrary;
use ccm2_support::Interner;
use ccm2_workload::{generate, suite_params, GenParams, GeneratedModule, SUITE_SIZE};

use crate::oracle::{output_digest, seq_output, Output};
use crate::report::Metric;
use crate::trace::Tracer;
use crate::{mix, Phase, Workload};

/// Passes per second of `--seconds`; at least [`MIN_PASSES`], so the
/// quartiles over passes rest on several of them.
const PASSES_PER_SECOND: f64 = 1.4;
const MIN_PASSES: usize = 4;

/// The seeded suite: Table 1's shapes, the generator seeds derived
/// from the workload seed.
pub fn generate_suite(seed: u64) -> Vec<GeneratedModule> {
    (0..SUITE_SIZE)
        .map(|i| {
            generate(&GenParams {
                seed: mix(seed, i as u64),
                ..suite_params(i)
            })
        })
        .collect()
}

pub struct SuiteCold {
    modules: Vec<GeneratedModule>,
    expected: Vec<Output>,
    passes: usize,
}

impl SuiteCold {
    pub fn new(seed: u64, seconds: u64) -> SuiteCold {
        let modules = generate_suite(seed);
        let expected = modules.iter().map(seq_output).collect();
        let passes = ((seconds as f64 * PASSES_PER_SECOND).round() as usize).max(MIN_PASSES);
        SuiteCold {
            modules,
            expected,
            passes,
        }
    }

    fn compile(&self, defs: &Arc<DefLibrary>, i: usize) -> ccm2::ConcurrentOutput {
        compile_concurrent(
            &self.modules[i].source,
            Arc::clone(defs) as Arc<dyn ccm2_support::defs::DefProvider>,
            Arc::new(Interner::new()),
            Options::default(),
        )
    }
}

impl Workload for SuiteCold {
    /// The per-module interface libraries, ready to share with every
    /// compile.
    type System = Vec<Arc<DefLibrary>>;

    fn name(&self) -> &'static str {
        "suite-cold"
    }

    fn modules(&self) -> Vec<&GeneratedModule> {
        self.modules.iter().collect()
    }

    /// Loads the interface libraries and compiles every module once, so
    /// lazy allocation and first-touch costs land here, not in the
    /// timed passes.
    fn setup(&self) -> Self::System {
        let defs: Vec<Arc<DefLibrary>> = self
            .modules
            .iter()
            .map(|m| Arc::new(m.defs.clone()))
            .collect();
        for (i, lib) in defs.iter().enumerate() {
            std::hint::black_box(self.compile(lib, i));
        }
        defs
    }

    fn setup_repeats(&self) -> usize {
        3
    }

    fn run(&self, defs: Self::System, tracer: &Tracer, deadline: Instant) -> Phase {
        let n = self.modules.len();
        let mut phase = Phase::new(n);
        for pass in 0..self.passes {
            if pass > 0 {
                phase.next_block();
            }
            let mut tasks = 0u64;
            for (i, lib) in defs.iter().enumerate() {
                let name = &self.modules[i].name;
                if Instant::now() > deadline {
                    phase
                        .tally
                        .record(false, || format!("pass {pass} {name}: timed out"));
                    continue;
                }
                let request = (pass * n + i) as u64;
                let t = Instant::now();
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    tracer.span("core.compile_concurrent", 0, request, || {
                        self.compile(lib, i)
                    })
                }));
                let ms = t.elapsed().as_secs_f64() * 1000.0;
                let Ok(out) = out else {
                    phase
                        .tally
                        .record(false, || format!("pass {pass} {name}: compile panicked"));
                    continue;
                };
                phase.sample(i, ms);
                tasks += out.report.tasks_run as u64;
                let got = ccm2_incr::comparable_output(
                    out.image.as_ref(),
                    &out.diagnostics,
                    &out.sources,
                    &out.interner,
                );
                phase.tally.record(got == self.expected[i], || {
                    format!("pass {pass} {name}: output differs from ccm2_seq::compile")
                });
            }
            phase.exact.see("sched.tasks", tasks as f64);
        }
        phase
    }

    fn named(&self, phase: &Phase) -> Vec<Metric> {
        let n = phase.ops();
        vec![
            Metric::new("compile_ms_geomean", "ms", phase.geomean_of_medians(), n),
            // One pass compiles every module once, one after another.
            Metric::new(
                "suite_s",
                "s",
                self.modules.len() as f64 / phase.throughput(),
                self.passes,
            ),
        ]
    }

    fn reference(&self) -> Vec<(String, u64)> {
        self.modules
            .iter()
            .zip(&self.expected)
            .map(|(m, out)| (m.name.clone(), output_digest(out)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_committed, committed, Tally};

    /// The oracle's self-test: the committed digests of seed 1 match the
    /// reference outputs, and corrupting one of them fails exactly one
    /// operation.
    #[test]
    fn corrupting_one_committed_digest_counts_one_failure() {
        let w = SuiteCold::new(1, 20);
        let reference = w.reference();
        let mut expected = committed(w.name(), 1, 20);
        assert_eq!(expected.len(), SUITE_SIZE);

        let mut clean = Tally::default();
        check_committed(&expected, &reference, &mut clean);
        assert_eq!(
            (clean.attempted, clean.failed),
            (SUITE_SIZE as u64, 0),
            "{:?}",
            clean.notes
        );

        expected[5].1 ^= 1;
        let mut corrupted = Tally::default();
        check_committed(&expected, &reference, &mut corrupted);
        assert_eq!(
            (corrupted.attempted, corrupted.failed),
            (SUITE_SIZE as u64, 1)
        );
        assert!(
            corrupted.notes[0].contains("Suite05"),
            "{:?}",
            corrupted.notes
        );
    }
}
