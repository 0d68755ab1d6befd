//! The drill library: one copy of every piece the `reproduce` drills and
//! the root integration tests share.
//!
//! * **Requests and references** — the one `ServeEvent → CompileRequest`
//!   builder ([`requests`]), the standalone compile reference
//!   ([`standalone_compile`], [`expected`]) and the standalone service
//!   reference ([`serve_standalone`]).
//! * **The retry-wave protocol** — [`drain`] serves a slice through any
//!   batch server (a [`CompileService`], a
//!   [`FabricRouter`](ccm2_fabric::FabricRouter), a
//!   [`FabricClient`](ccm2_fabric::FabricClient)), resubmits shed
//!   requests in the next wave, holds the hang bound, and byte-checks
//!   every outcome against the standalone compiles when asked.
//! * **Fault-matrix helpers** — the fault-seeded module
//!   ([`fault_module`]) and its compile ([`fault_compile`]), and the
//!   interner-independent unit renderings the matrices compare
//!   ([`render_unit`], [`unit_map`]).
//! * **Fleet lifecycle steps** — partition → evict
//!   ([`partition_and_evict`]), heal → rejoin ([`heal_and_rejoin`]),
//!   the seeded kill ([`kill`]), durable crash-restart → absorb
//!   ([`crash_restart_and_absorb`]), and the stalled peer
//!   ([`StallFleet`]). Every fleet is a [`Fabric`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ccm2::{compile_concurrent, ConcurrentOutput, Executor, Options};
use ccm2_codegen::ir::{CodeUnit, Instr};
use ccm2_fabric::{
    decode_frame, start_heartbeats, Fabric, FabricResponse, FrameHandler, HealthState,
    HeartbeatConfig, HeartbeatHandle, Message,
};
use ccm2_faults::FaultPlan;
use ccm2_sched::SimConfig;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, Response, ServeConfig};
use ccm2_support::hash::Fp128;
use ccm2_support::Interner;
use ccm2_workload::{generate, GenParams, GeneratedModule, ServeEvent};

/// What a client can observe of one served request: whether it
/// compiled, its object bytes, and its rendered diagnostics.
pub type Observed = (bool, Option<Vec<u8>>, Vec<String>);

/// Standalone-compile bytes (object, diagnostics) per request
/// fingerprint: what every served outcome must reproduce.
pub type Expected = HashMap<Fp128, (Option<Vec<u8>>, Vec<String>)>;

/// The failure detector every chaos drill runs: suspect on the first
/// missed probe, evict on the second.
pub const CHAOS_HEARTBEAT: HeartbeatConfig = HeartbeatConfig {
    suspect_misses: 1,
    evict_misses: 2,
};

/// Slack on top of the `(evict_misses + 1) × period` eviction bound of a
/// stalled peer: the other probes of a tick and the host's scheduling.
pub const STALL_EVICT_SLACK: Duration = Duration::from_millis(250);

/// A served batch that has not come back after this long is a hang.
pub const STALL_HANG_AFTER: Duration = Duration::from_secs(60);

/// One request per event (Skeptical DKY, no analysis) on `exec`.
pub fn requests(events: &[ServeEvent], exec: ExecChoice) -> Vec<CompileRequest> {
    events
        .iter()
        .map(|e| {
            let defs = Arc::new(e.module.defs.clone());
            let mut req = CompileRequest::new(e.client, &e.module.name, &e.module.source, defs);
            req.exec = exec;
            req
        })
        .collect()
}

/// A standalone (serviceless, storeless) compile of `req`, in the same
/// comparable encoding the service reports.
pub fn standalone_compile(req: &CompileRequest) -> (Option<Vec<u8>>, Vec<String>) {
    let out = compile_concurrent(
        &req.source,
        Arc::clone(&req.defs) as Arc<dyn ccm2_support::defs::DefProvider>,
        Arc::new(Interner::new()),
        Options {
            strategy: req.strategy,
            executor: req.exec.to_executor(),
            analyze: req.analyze,
            incremental: None,
            ..Options::default()
        },
    );
    ccm2_incr::comparable_output(
        out.image.as_ref(),
        &out.diagnostics,
        &out.sources,
        &out.interner,
    )
}

/// The standalone compile of every distinct request.
pub fn expected(requests: &[CompileRequest]) -> Expected {
    let mut expected = Expected::new();
    for req in requests {
        expected
            .entry(req.fingerprint())
            .or_insert_with(|| standalone_compile(req));
    }
    expected
}

/// Serves every request on one fresh standalone service: the reference
/// a fleet must be observationally identical to.
pub fn serve_standalone(requests: &[CompileRequest], config: ServeConfig) -> Vec<Observed> {
    let svc = CompileService::start(config);
    drain(requests, None, |batch| svc.serve_batch(batch.to_vec())).0
}

/// A response that carries an outcome or asks the client to retry.
pub trait Served {
    /// The observed outcome, or `None` for a retry.
    fn observed(&self) -> Option<Observed>;
}

impl Served for Response {
    fn observed(&self) -> Option<Observed> {
        self.outcome()
            .map(|o| (o.ok, o.object.clone(), o.diagnostics.clone()))
    }
}

impl Served for FabricResponse {
    fn observed(&self) -> Option<Observed> {
        self.outcome()
            .map(|o| (o.ok, o.object.clone(), o.diagnostics.clone()))
    }
}

/// The retry-wave protocol: serves `requests` through `serve_batch`,
/// resubmitting every retried request in the next wave until all are
/// served. More waves than requests is a hang and panics. With
/// `expected`, every outcome must compile and match its standalone
/// bytes. Returns the observations in request order and the waves.
pub fn drain<R: Served>(
    requests: &[CompileRequest],
    expected: Option<&Expected>,
    mut serve_batch: impl FnMut(&[CompileRequest]) -> Vec<R>,
) -> (Vec<Observed>, usize) {
    let mut out: Vec<Option<Observed>> = vec![None; requests.len()];
    let mut pending: Vec<usize> = (0..requests.len()).collect();
    let mut waves = 0usize;
    while !pending.is_empty() {
        waves += 1;
        assert!(
            waves <= 1 + requests.len(),
            "the retry protocol must drain (hang)"
        );
        let batch: Vec<CompileRequest> = pending.iter().map(|&i| requests[i].clone()).collect();
        for (i, resp) in std::mem::take(&mut pending)
            .into_iter()
            .zip(serve_batch(&batch))
        {
            let Some(seen) = resp.observed() else {
                pending.push(i);
                continue;
            };
            if let Some(expected) = expected {
                let req = &requests[i];
                assert!(seen.0, "{}: {:?}", req.module, seen.2);
                let want = &expected[&req.fingerprint()];
                assert!(
                    seen.1 == want.0 && seen.2 == want.1,
                    "served bytes diverged from standalone for {}",
                    req.module
                );
            }
            out[i] = Some(seen);
        }
    }
    let observed = out.into_iter().map(|o| o.expect("served")).collect();
    (observed, waves)
}

// ---- fault matrices ------------------------------------------------------

/// A small module seeded with the `FaultShort`/`FaultNest`/`FaultLong`
/// procedures the fault plans target.
pub fn fault_module(name: &str, seed: u64) -> GeneratedModule {
    generate(&GenParams {
        fault_seeds: true,
        ..GenParams::small(name, seed)
    })
}

/// Compiles `m` with analysis on, on sim(4) or threads(2), under an
/// optional fault plan, per-task deadline and stream-retry budget.
pub fn fault_compile(
    m: &GeneratedModule,
    strategy: DkyStrategy,
    sim: bool,
    faults: Option<Arc<FaultPlan>>,
    task_deadline: Option<u64>,
    max_stream_retries: u32,
) -> ConcurrentOutput {
    let executor = if sim {
        Executor::Sim(SimConfig::firefly(4))
    } else {
        Executor::Threads(2)
    };
    compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()),
        Arc::new(Interner::new()),
        Options {
            strategy,
            executor,
            analyze: true,
            faults,
            task_deadline,
            max_stream_retries,
            ..Options::default()
        },
    )
}

/// The executor [`fault_compile`] picks, by name.
pub fn exec_name(sim: bool) -> &'static str {
    if sim {
        "sim(4)"
    } else {
        "threads(2)"
    }
}

/// An interner-independent rendering of one code unit, so units from
/// different compiles (different interners, different symbol indices)
/// can be compared byte for byte.
pub fn render_unit(u: &CodeUnit, interner: &Interner) -> String {
    let mut s = format!(
        "{} level={} params={} frame={:?} shapes={:?}\n",
        interner.resolve(u.name),
        u.level,
        u.param_count,
        u.frame,
        u.shapes
    );
    for ins in &u.code {
        match ins {
            Instr::PushStr(sym) => s.push_str(&format!("PushStr({})\n", interner.resolve(*sym))),
            Instr::PushProc(sym) => s.push_str(&format!("PushProc({})\n", interner.resolve(*sym))),
            Instr::PushGlobalAddr { module, slot } => s.push_str(&format!(
                "PushGlobalAddr({}, {slot})\n",
                interner.resolve(*module)
            )),
            Instr::Call {
                target,
                argc,
                link_up,
            } => s.push_str(&format!(
                "Call({}, {argc}, {link_up})\n",
                interner.resolve(*target)
            )),
            other => s.push_str(&format!("{other:?}\n")),
        }
    }
    s
}

/// Every unit of a compile's image, by resolved name, rendered with
/// [`render_unit`]. Panics without an image.
pub fn unit_map(out: &ConcurrentOutput) -> HashMap<String, String> {
    out.image
        .as_ref()
        .expect("image")
        .units
        .iter()
        .map(|u| (out.interner.resolve(u.name), render_unit(u, &out.interner)))
        .collect()
}

// ---- fleet lifecycle ------------------------------------------------------

/// Partition → evict: opens a standing partition of the router's link to
/// `victim` and ticks a [`CHAOS_HEARTBEAT`] detector until it evicts,
/// which must take exactly `evict_misses` ticks (four is a hang). The
/// victim must lose its keys. Returns the ticks.
pub fn partition_and_evict(fabric: &Fabric, victim: u32) -> usize {
    fabric.cut(victim, true);
    let router = fabric.router();
    let mut ticks = 0usize;
    while router.health(victim) != HealthState::Evicted {
        ticks += 1;
        assert!(ticks <= 4, "failure detector hung past its miss budget");
        router.heartbeat_tick();
    }
    assert_eq!(
        ticks, CHAOS_HEARTBEAT.evict_misses as usize,
        "suspect on the first miss, evict on the second"
    );
    assert!(
        !router.live_shards().contains(&victim),
        "evicted shard still owns keys"
    );
    ticks
}

/// Heal → rejoin: closes the partition and re-admits `victim` through
/// the warm-up path.
pub fn heal_and_rejoin(fabric: &Fabric, victim: u32) {
    fabric.cut(victim, false);
    fabric.router().admit_shard(victim);
    assert_eq!(fabric.router().health(victim), HealthState::Alive);
}

/// The seeded kill: kills `victim`, which must leave the ring while
/// every other shard stays. Returns the failover's duration.
pub fn kill(fabric: &Fabric, victim: u32) -> Duration {
    let before = fabric.router().live_shards().len();
    let started = Instant::now();
    fabric.router().kill_shard(victim);
    let failover = started.elapsed();
    let live = fabric.router().live_shards();
    assert!(
        !live.contains(&victim),
        "killed shard {victim} still live: {live:?}"
    );
    assert_eq!(live.len(), before - 1, "exactly one shard died");
    failover
}

/// Durable crash-restart → absorb: crashes the whole fleet and restarts
/// shards `0..shards` from their `CCM2RLOG` replica logs, which must
/// hold every parked op again (per node and origin). Then kills the
/// origin with the most ops parked on its peers; the failover absorb
/// must replay some of them. Returns the restarted fleet, the parked
/// ops restored and the ops absorbed.
pub fn crash_restart_and_absorb(fabric: Fabric, shards: u32) -> (Fabric, usize, u64) {
    let origins: Vec<u32> = fabric.nodes().iter().map(|n| n.id()).collect();
    let parked = |fabric: &Fabric| -> Vec<Vec<usize>> {
        fabric.nodes()[..shards as usize]
            .iter()
            .map(|n| origins.iter().map(|&o| n.replica_len(o)).collect())
            .collect()
    };
    let parked_before = parked(&fabric);
    let restored: usize = parked_before.iter().flatten().sum();
    assert!(
        restored > 0,
        "no parked replica ops to survive the crash — the drill is vacuous"
    );
    let fabric = fabric
        .relaunch(shards)
        .expect("restart from the replica logs");
    assert_eq!(
        parked(&fabric),
        parked_before,
        "restart lost or invented parked replica ops"
    );
    let nodes = fabric.nodes();
    let parked_on_peers = |o: u32| -> usize {
        nodes
            .iter()
            .filter(|n| n.id() != o)
            .map(|n| n.replica_len(o))
            .sum()
    };
    let origin = (0..shards)
        .max_by_key(|&o| parked_on_peers(o))
        .expect("shards");
    fabric.router().kill_shard(origin);
    let absorbed: u64 = nodes
        .iter()
        .filter(|n| n.id() != origin)
        .map(|n| n.stats().absorbed_ops)
        .sum();
    assert!(
        absorbed > 0,
        "failover after restart absorbed nothing from the durable logs"
    );
    (fabric, restored, absorbed)
}

/// A shard handler with a stall switch: while stalled, every frame is
/// held — the server still accepts connections, but nothing answers.
pub struct StallSwitch {
    inner: Arc<dyn FrameHandler>,
    /// (stalled, stall from the next lease renewal on).
    state: Mutex<(bool, bool)>,
    released: Condvar,
    held: AtomicU64,
    held_compiles: AtomicU64,
}

impl StallSwitch {
    /// Stalls (`true`) or releases the shard.
    pub fn set(&self, on: bool) {
        *self.state.lock().expect("stall switch") = (on, false);
        self.released.notify_all();
    }

    /// Stalls the shard from its next `LeaseRenew` on: it answers this
    /// tick's ping, then goes silent between the pong and the renewal.
    pub fn stall_at_next_renew(&self) {
        self.state.lock().expect("stall switch").1 = true;
    }

    /// Frames held while stalled (pings, renewals, compiles, deltas).
    pub fn held(&self) -> u64 {
        self.held.load(Ordering::SeqCst)
    }

    /// Compile frames among them: calls blocked on the shard until an
    /// eviction cut their connections and they failed over.
    pub fn held_compiles(&self) -> u64 {
        self.held_compiles.load(Ordering::SeqCst)
    }
}

impl FrameHandler for StallSwitch {
    fn handle(&self, frame: &[u8]) -> Vec<u8> {
        let message = decode_frame(frame);
        let mut state = self.state.lock().expect("stall switch");
        if state.1 && matches!(message, Some(Message::LeaseRenew { .. })) {
            *state = (true, false);
        }
        if state.0 {
            self.held.fetch_add(1, Ordering::SeqCst);
            if matches!(message, Some(Message::Compile(_))) {
                self.held_compiles.fetch_add(1, Ordering::SeqCst);
            }
            while state.0 {
                state = self.released.wait(state).expect("stall switch");
            }
        }
        drop(state);
        self.inner.handle(frame)
    }
}

/// A three-shard TCP fleet under [`start_heartbeats`] (detector
/// [`CHAOS_HEARTBEAT`]) whose shards sit behind [`StallSwitch`]es.
/// Dropping it releases every switch first, so the heartbeat thread and
/// the servers' workers — either may wait on a held frame — can join.
pub struct StallFleet {
    beats: HeartbeatHandle,
    /// The fleet.
    pub fabric: Fabric,
    /// Shard `i`'s switch at index `i`.
    pub switches: Vec<Arc<StallSwitch>>,
}

impl StallFleet {
    /// Starts the fleet and its heartbeats at `period`.
    pub fn start(config: ServeConfig, period: Duration) -> StallFleet {
        let mut switches = Vec::new();
        let fabric = Fabric::launch_with(3, config, true, None, &mut |node| {
            let switch = Arc::new(StallSwitch {
                inner: node,
                state: Mutex::new((false, false)),
                released: Condvar::new(),
                held: AtomicU64::new(0),
                held_compiles: AtomicU64::new(0),
            });
            switches.push(Arc::clone(&switch));
            switch
        })
        .expect("tcp fleet")
        .with_router(|r| r.with_heartbeat(CHAOS_HEARTBEAT));
        let beats = start_heartbeats(Arc::clone(fabric.router()), period);
        StallFleet {
            beats,
            fabric,
            switches,
        }
    }

    /// Waits for the detector to evict `victim`, at most `limit` after
    /// `since`; returns the time from `since` to the eviction, or `None`
    /// if it did not come within `limit`.
    pub fn evicted_within(&self, victim: u32, since: Instant, limit: Duration) -> Option<Duration> {
        while self.fabric.router().health(victim) != HealthState::Evicted {
            if since.elapsed() > limit {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(since.elapsed())
    }
}

impl Drop for StallFleet {
    fn drop(&mut self) {
        for switch in &self.switches {
            switch.set(false);
        }
        self.beats.stop();
    }
}
