//! `build-farm`: a seeded `serve_load` stream through a `FabricRouter`
//! over `TcpTransport` to two `ShardNode`s on 127.0.0.1, driven by two
//! closed-loop client threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ccm2_fabric::{
    decode_frame, encode_frame, FabricResponse, FabricRouter, FrameHandler, Message, ShardNode,
    TcpShardServer, TcpTransport, Transport, WireOutcome, WireRequest,
};
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, ServeConfig};
use ccm2_support::hash::Fp128;
use ccm2_workload::{serve_load, GeneratedModule, ServeLoadParams};

use crate::oracle::{concurrent_output, output_digest, Output, Tally};
use crate::report::Metric;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use crate::{mix, nproc, Phase, Workload};

/// Requests in one replay of the stream (at least 1000, so p99 keeps
/// ten samples beyond it), and replays per second of `--seconds`.
const ROUND_EVENTS: usize = 1500;
const ROUNDS_PER_SECOND: f64 = 0.35;
const SHARDS: u32 = 2;
const CLIENTS: usize = 2;
/// Per-shard artifact-store budget: below the stream's working set, so
/// LRU eviction runs.
const SHARD_STORE_BUDGET: u64 = 256 * 1024;

pub struct BuildFarm {
    requests: Vec<CompileRequest>,
    /// Project of each request.
    project: Vec<usize>,
    projects: usize,
    rounds: usize,
    /// Distinct (project, revision) modules in order of first request.
    distinct: Vec<GeneratedModule>,
    /// Reference output per request fingerprint, and the key it is
    /// committed under.
    expected: HashMap<Fp128, (String, Output)>,
}

impl BuildFarm {
    pub fn new(seed: u64, seconds: u64) -> BuildFarm {
        let params = ServeLoadParams {
            seed: mix(seed, 0xFA53),
            events: ROUND_EVENTS,
            ..ServeLoadParams::default()
        };
        let events = serve_load(&params);
        let mut defs: HashMap<(usize, u64), Arc<ccm2_support::DefLibrary>> = HashMap::new();
        let mut distinct = Vec::new();
        let mut expected = HashMap::new();
        let mut requests = Vec::with_capacity(events.len());
        let mut project = Vec::with_capacity(events.len());
        for e in &events {
            let lib = defs.entry((e.project, e.revision)).or_insert_with(|| {
                distinct.push(e.module.clone());
                Arc::new(e.module.defs.clone())
            });
            let req = CompileRequest {
                exec: ExecChoice::Threads(1),
                ..CompileRequest::new(
                    e.client,
                    e.module.name.clone(),
                    e.module.source.clone(),
                    Arc::clone(lib),
                )
            };
            expected.entry(req.fingerprint()).or_insert_with(|| {
                let options = ccm2::Options {
                    strategy: req.strategy,
                    executor: req.exec.to_executor(),
                    ..ccm2::Options::default()
                };
                (
                    format!("{}@{}", e.module.name, e.revision),
                    concurrent_output(&e.module, options),
                )
            });
            requests.push(req);
            project.push(e.project);
        }
        BuildFarm {
            requests,
            project,
            projects: params.projects,
            rounds: ((seconds as f64 * ROUNDS_PER_SECOND).round() as usize).max(1),
            distinct,
            expected,
        }
    }

    fn check(
        &self,
        req: &CompileRequest,
        object: &Option<Vec<u8>>,
        diagnostics: &[String],
    ) -> bool {
        let (_, want) = &self.expected[&req.fingerprint()];
        want.0 == *object && want.1 == diagnostics
    }
}

/// The running fleet. Dropping it stops the servers and the shards.
pub struct Fleet {
    router: FabricRouter,
    servers: Vec<TcpShardServer>,
    nodes: Vec<Arc<ShardNode>>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for server in &mut self.servers {
            server.stop();
        }
    }
}

/// One client-observed request: index, latency, and the outcome if
/// served.
type Served = (usize, f64, Option<WireOutcome>);

/// Router and shard counters, summed over a phase's fleets.
#[derive(Default)]
struct Counters {
    joined: u64,
    accepted: u64,
    shed: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    routed_calls: u64,
    router_joined: u64,
    delta_ships: u64,
}

impl Counters {
    fn add(&mut self, fleet: &Fleet) {
        let router = fleet.router.stats();
        self.routed_calls += router.routed_calls;
        self.router_joined += router.joined;
        self.delta_ships += router.ships;
        for node in &fleet.nodes {
            let s = node.service().stats();
            self.joined += s.joined;
            self.accepted += s.accepted;
            self.shed += s.shed + s.quota_shed;
            let st = node.service().store().stats();
            self.hits += st.hits;
            self.misses += st.misses;
            self.evictions += st.evictions;
        }
    }
}

/// Replays every request through `serve` from [`CLIENTS`] closed-loop
/// threads; returns what each saw and the phase's wall time in seconds.
fn closed_loop<F>(
    requests: &[CompileRequest],
    deadline: Instant,
    serve: F,
) -> (Vec<Served>, f64, Tally)
where
    F: Fn(usize, &CompileRequest) -> Option<WireOutcome> + Sync,
{
    let next = AtomicUsize::new(0);
    let served = Mutex::new(Vec::with_capacity(requests.len()));
    let timeouts = Mutex::new(Tally::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    if Instant::now() > deadline {
                        timeouts
                            .lock()
                            .expect("tally")
                            .record(false, || format!("request {i}: timed out"));
                        continue;
                    }
                    let t = Instant::now();
                    let out = serve(i, &requests[i]);
                    local.push((i, t.elapsed().as_secs_f64() * 1000.0, out));
                }
                served.lock().expect("results").extend(local);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut served = served.into_inner().expect("results");
    served.sort_by_key(|s| s.0);
    (served, wall, timeouts.into_inner().expect("tally"))
}

fn request_frame(req: &CompileRequest) -> Vec<u8> {
    encode_frame(&Message::Compile(WireRequest::from_request(req)))
}

impl Workload for BuildFarm {
    type System = Fleet;

    fn name(&self) -> &'static str {
        "build-farm"
    }

    fn modules(&self) -> Vec<&GeneratedModule> {
        self.distinct.iter().collect()
    }

    fn schedule(&self) -> String {
        self.requests
            .iter()
            .map(|r| format!("{} {}\n", r.client, r.fingerprint().to_hex()))
            .collect()
    }

    /// Starts the shards, their TCP servers and the router.
    fn setup(&self) -> Fleet {
        let config = ServeConfig {
            workers: (nproc() / SHARDS as usize).max(1),
            queue_capacity: 64,
            store_budget: SHARD_STORE_BUDGET,
            ..ServeConfig::default()
        };
        let transport = Arc::new(TcpTransport::new());
        let mut servers = Vec::new();
        let mut nodes = Vec::new();
        for id in 0..SHARDS {
            let node = Arc::new(ShardNode::start(id, config));
            let server = TcpShardServer::serve(Arc::clone(&node) as Arc<dyn FrameHandler>)
                .expect("bind a shard server on 127.0.0.1");
            transport.register(id, server.addr());
            servers.push(server);
            nodes.push(node);
        }
        let router = FabricRouter::new(transport as Arc<dyn Transport>);
        Fleet {
            router,
            servers,
            nodes,
        }
    }

    /// Starting a fleet takes well under a millisecond, so many repeats
    /// keep its median steady.
    fn setup_repeats(&self) -> usize {
        15
    }

    fn run(&self, first: Fleet, tracer: &Tracer, deadline: Instant) -> Phase {
        let mut phase = Phase::new(self.projects);
        let mut first = Some(first);
        let (mut shed, mut c) = (0u64, Counters::default());
        let (mut compile_ms, mut gap_ms) = (Vec::new(), Vec::new());
        let (mut wire_bytes, mut codec_us, mut codec_reqs) = (0u64, 0.0f64, 0usize);
        for round in 0..self.rounds {
            if round > 0 {
                phase.next_block();
            }
            // Every round replays the stream on a fresh fleet: the TCP
            // servers keep one finished thread per frame until they stop.
            let fleet = first.take().unwrap_or_else(|| self.setup());
            let base = (round * self.requests.len()) as u64;
            let (served, round_wall, timeouts) = closed_loop(&self.requests, deadline, |i, req| {
                match tracer.span("fabric.router_serve", 0, base + i as u64, || {
                    fleet.router.serve(req)
                }) {
                    FabricResponse::Done(out) => Some(out),
                    FabricResponse::Retry { .. } => None,
                }
            });
            phase.tally.absorb(timeouts);
            for (i, ms, out) in &served {
                let req = &self.requests[*i];
                let Some(out) = out else {
                    shed += 1;
                    phase
                        .tally
                        .record(false, || format!("round {round} request {i}: shed (Retry)"));
                    continue;
                };
                phase.sample(self.project[*i], *ms);
                compile_ms.push(out.wall_micros as f64 / 1000.0);
                gap_ms.push(ms - out.wall_micros as f64 / 1000.0);
                phase.tally.record(
                    out.ok && self.check(req, &out.object, &out.diagnostics),
                    || {
                        format!(
                            "round {round} request {i}: output differs from a standalone compile"
                        )
                    },
                );
                if round == 0 {
                    // The bytes one request puts on the wire, and what
                    // encoding and decoding them costs.
                    let t = Instant::now();
                    let request = request_frame(req);
                    let response = encode_frame(&Message::Outcome(out.clone()));
                    let decoded =
                        decode_frame(&request).is_some() && decode_frame(&response).is_some();
                    codec_us += t.elapsed().as_secs_f64() * 1e6;
                    assert!(decoded, "frames the fabric encodes must decode");
                    wire_bytes += (request.len() + response.len()) as u64;
                    codec_reqs += 1;
                }
            }
            phase.block_wall(round_wall);
            c.add(&fleet);
        }
        let wire_per_req = wire_bytes as f64 / codec_reqs.max(1) as f64;
        phase.exact.see("fabric.wire_bytes_per_req", wire_per_req);
        let p50 = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                percentile(&sorted(v), 0.5)
            }
        };
        phase.layers = vec![
            Metric::new(
                "serve.compile_ms_p50",
                "ms",
                p50(&compile_ms),
                compile_ms.len(),
            ),
            Metric::new(
                "serve.dedup_ratio",
                "ratio",
                c.joined as f64 / (c.accepted + c.joined).max(1) as f64,
                (c.accepted + c.joined) as usize,
            ),
            Metric::new(
                "serve.store_hit_rate",
                "ratio",
                c.hits as f64 / (c.hits + c.misses).max(1) as f64,
                (c.hits + c.misses) as usize,
            ),
            Metric::new(
                "serve.store_evictions",
                "count",
                c.evictions as f64,
                self.rounds,
            ),
            Metric::new("serve.shed", "count", (shed + c.shed) as f64, self.rounds),
            Metric::new("fabric.gap_ms_p50", "ms", p50(&gap_ms), gap_ms.len()),
            Metric::new(
                "fabric.wire_bytes_per_req",
                "bytes",
                wire_per_req,
                codec_reqs,
            ),
            Metric::new(
                "fabric.codec_us_per_req",
                "us",
                codec_us / codec_reqs.max(1) as f64,
                codec_reqs,
            ),
            Metric::new(
                "fabric.routed_calls",
                "count",
                c.routed_calls as f64,
                self.rounds,
            ),
            Metric::new(
                "fabric.router_joined",
                "count",
                c.router_joined as f64,
                self.rounds,
            ),
            Metric::new(
                "fabric.delta_ships",
                "count",
                c.delta_ships as f64,
                self.rounds,
            ),
        ];
        phase
    }

    fn named(&self, phase: &Phase) -> Vec<Metric> {
        let n = phase.ops();
        vec![
            Metric::new("farm_rps", "1/s", phase.throughput(), n),
            Metric::new("request_ms_p50", "ms", phase.percentile(0.50), n),
            Metric::new("request_ms_p99", "ms", phase.percentile(0.99), n),
        ]
    }

    /// One digest per project, over its revisions' reference outputs in
    /// request order.
    fn reference(&self) -> Vec<(String, u64)> {
        let mut per_project: Vec<Vec<u64>> = vec![Vec::new(); self.projects];
        let mut seen = std::collections::HashSet::new();
        for (i, req) in self.requests.iter().enumerate() {
            let fp = req.fingerprint();
            if seen.insert(fp) {
                per_project[self.project[i]].push(output_digest(&self.expected[&fp].1));
            }
        }
        per_project
            .iter()
            .enumerate()
            .map(|(p, digests)| {
                let mut h = ccm2_support::StableHasher::new();
                for d in digests {
                    h.write_u64(*d);
                }
                (format!("Proj{p}"), h.finish().fold64())
            })
            .collect()
    }

    /// The same stream replayed on a standalone `CompileService` with
    /// the fleet's total workers, for the router-plus-transport
    /// overhead.
    fn layers(&self, traced: &Phase, tracer: &Tracer) -> Phase {
        let service = CompileService::start(ServeConfig {
            workers: nproc(),
            queue_capacity: 64,
            store_budget: SHARD_STORE_BUDGET * SHARDS as u64,
            ..ServeConfig::default()
        });
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        let (served, _, timeouts) = closed_loop(&self.requests, deadline, |i, req| {
            tracer.span("serve.submit", 0, i as u64, || {
                let submission = service.submit(req.clone());
                let outcome = submission.ticket()?.wait();
                Some(WireOutcome::from_outcome(&outcome))
            })
        });
        let mut extra = Phase::new(0);
        extra.tally = timeouts;
        let mut latencies = Vec::new();
        for (i, ms, out) in &served {
            let ok = out
                .as_ref()
                .is_some_and(|o| o.ok && self.check(&self.requests[*i], &o.object, &o.diagnostics));
            extra.tally.record(ok, || {
                format!("standalone request {i}: shed or wrong output")
            });
            if ok {
                latencies.push(*ms);
            }
        }
        let serve_p50 = percentile(&sorted(&latencies), 0.5);
        extra.layers = vec![
            Metric::new("serve.request_ms_p50", "ms", serve_p50, latencies.len()),
            Metric::new(
                "fabric.overhead_ms_p50",
                "ms",
                traced.percentile(0.5) - serve_p50,
                traced.ops() + latencies.len(),
            ),
        ];
        extra
    }
}
