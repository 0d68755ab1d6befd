//! `edit-session`: all 37 suite modules open in one `WatchService`
//! (default config: threads(1), shared 32 MB store), then a seeded edit
//! stream replayed one `submit` + `check` at a time.

use std::time::Instant;

use ccm2_watch::{WatchConfig, WatchService};
use ccm2_workload::{
    apply_edits, edit_session_seeds, generate_suite, GeneratedModule, SessionEdit, SessionParams,
};

use crate::oracle::{output_digest, seq_output, Output};
use crate::report::Metric;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use crate::{mix, Phase, Workload};

/// Edits per module per second of `--seconds`; at least [`MIN_EDITS`]
/// in all, so p99 keeps ten samples beyond it. The stream is timed in
/// [`BLOCKS`] blocks of whole round-robin rounds.
const EDITS_PER_MODULE_PER_SECOND: f64 = 2.8;
const MIN_EDITS: usize = 1000;
const BLOCKS: usize = 8;
/// Modules whose streams may edit an imported interface.
const INTERFACE_EDITORS: usize = 3;

pub struct EditSession {
    modules: Vec<GeneratedModule>,
    stream: Vec<SessionEdit>,
    /// Each module after the whole stream, and its reference output.
    finals: Vec<GeneratedModule>,
    expected: Vec<Output>,
}

impl EditSession {
    pub fn new(seed: u64, seconds: u64) -> EditSession {
        // The Table-1 suite itself, the same for every seed: the seed
        // varies the edits, not which module sits in the middle of the
        // size range and so sets the median check.
        let modules = generate_suite();
        let n = modules.len();
        let per_module = ((seconds as f64 * EDITS_PER_MODULE_PER_SECOND).round() as usize)
            .max(MIN_EDITS.div_ceil(n))
            .next_multiple_of(BLOCKS);
        // Every module gets its own seeded stream of the same length, so
        // the mix of small and large modules, and with it the latency
        // percentiles, does not depend on the seed. A few modules may
        // edit an imported interface, which recompiles them cold.
        let first = (mix(seed, 0x1F) % n as u64) as usize;
        let interface_editors: Vec<usize> = (0..INTERFACE_EDITORS)
            .map(|j| (first + j * n / INTERFACE_EDITORS) % n)
            .collect();
        let mut streams: Vec<_> = modules
            .iter()
            .enumerate()
            .map(|(i, m)| {
                edit_session_seeds(
                    std::slice::from_ref(&m.params),
                    &SessionParams {
                        edits: per_module,
                        seed: mix(seed, 0xED17 + i as u64),
                        max_interface_edits: usize::from(interface_editors.contains(&i)),
                        ..SessionParams::default()
                    },
                )
                .into_iter()
            })
            .collect();
        // Round-robin over the modules, rotating the order each round;
        // each module's own edits stay in order, so every break is
        // fixed before the end.
        let mut stream = Vec::with_capacity(n * per_module);
        for k in 0..per_module {
            for j in 0..n {
                let i = (j + k) % n;
                let edit = streams[i]
                    .next()
                    .expect("every module stream has per_module edits");
                stream.push(SessionEdit { module: i, ..edit });
            }
        }
        let mut finals = modules.clone();
        for e in &stream {
            finals[e.module] = apply_edits(&finals[e.module], std::slice::from_ref(&e.op));
        }
        let expected = finals.iter().map(seq_output).collect();
        EditSession {
            modules,
            stream,
            finals,
            expected,
        }
    }
}

/// An open service and the wall time of each module's opening check.
pub struct Opened {
    service: WatchService,
    open_ms: Vec<f64>,
}

impl Workload for EditSession {
    type System = Opened;

    fn name(&self) -> &'static str {
        "edit-session"
    }

    fn modules(&self) -> Vec<&GeneratedModule> {
        self.modules.iter().collect()
    }

    fn schedule(&self) -> String {
        format!("{:?}", self.stream)
    }

    fn setup(&self) -> Opened {
        let mut service = WatchService::new(WatchConfig::default());
        let open_ms = self
            .modules
            .iter()
            .map(|m| {
                let r = service.open(m.name.clone(), m.clone());
                r.wall.as_secs_f64() * 1000.0
            })
            .collect();
        Opened { service, open_ms }
    }

    fn setup_repeats(&self) -> usize {
        3
    }

    fn run(&self, opened: Opened, tracer: &Tracer, deadline: Instant) -> Phase {
        let Opened {
            mut service,
            open_ms,
        } = opened;
        let mut phase = Phase::new(self.modules.len());
        let before = service.store_stats();
        let (mut warm, mut cold, mut deduped, mut degraded) = (0u64, 0u64, 0u64, 0u64);
        for (k, e) in self.stream.iter().enumerate() {
            if k > 0 && k % (self.stream.len() / BLOCKS) == 0 {
                phase.next_block();
            }
            let project = self.modules[e.module].name.as_str();
            if Instant::now() > deadline {
                phase
                    .tally
                    .record(false, || format!("edit {k} on {project}: timed out"));
                continue;
            }
            let request = k as u64;
            let t = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let root = tracer.start("watch.edit", 0, request);
                let submitted = tracer.span("watch.submit", root.id(), request, || {
                    service.submit(project, e.op.clone())
                });
                let report = submitted.and_then(|()| {
                    tracer.span("watch.check", root.id(), request, || service.check(project))
                });
                tracer.end(root);
                report
            }));
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            match result {
                Ok(Ok(r)) => {
                    phase.sample(e.module, ms);
                    warm += r.warm_streams as u64;
                    cold += r.cold_streams as u64;
                    deduped += u64::from(r.deduped);
                    degraded += u64::from(!r.degraded_units.is_empty());
                    phase.tally.record(true, String::new);
                }
                Ok(Err(err)) => phase
                    .tally
                    .record(false, || format!("edit {k} on {project}: {err}")),
                Err(_) => phase
                    .tally
                    .record(false, || format!("edit {k} on {project}: check panicked")),
            }
        }

        // Final revisions: the session's sources must be the stream
        // applied in order, and its output the sequential compiler's.
        for (i, m) in self.modules.iter().enumerate() {
            let session = service.session(&m.name);
            let ok = session.is_some_and(|s| {
                s.module().source == self.finals[i].source
                    && s.object() == self.expected[i].0.as_deref()
                    && s.diagnostics() == self.expected[i].1.as_slice()
            });
            phase.tally.record(ok, || {
                format!("{}: final revision differs from ccm2_seq::compile", m.name)
            });
        }

        let after = service.store_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let warm_ratio = warm as f64 / (warm + cold).max(1) as f64;
        let checks = phase.ops();
        phase.layers = vec![
            Metric::new("incr.warm_ratio", "ratio", warm_ratio, checks),
            Metric::new("incr.store_hits", "count", hits as f64, checks),
            Metric::new("incr.store_misses", "count", misses as f64, checks),
            Metric::new(
                "watch.open_ms_p50",
                "ms",
                percentile(&sorted(&open_ms), 0.5),
                open_ms.len(),
            ),
            Metric::new("watch.deduped", "count", deduped as f64, checks),
            Metric::new("watch.degraded", "count", degraded as f64, checks),
        ];
        for (name, v) in [
            ("incr.warm_ratio", warm_ratio),
            ("incr.store_hits", hits as f64),
            ("incr.store_misses", misses as f64),
            ("watch.deduped", deduped as f64),
            ("watch.degraded", degraded as f64),
        ] {
            phase.exact.see(name, v);
        }
        phase
    }

    fn named(&self, phase: &Phase) -> Vec<Metric> {
        let n = phase.ops();
        vec![
            Metric::new("check_ms_p50", "ms", phase.percentile(0.50), n),
            Metric::new("check_ms_p99", "ms", phase.percentile(0.99), n),
        ]
    }

    fn reference(&self) -> Vec<(String, u64)> {
        self.finals
            .iter()
            .zip(&self.expected)
            .map(|(m, out)| (m.name.clone(), output_digest(out)))
            .collect()
    }
}
