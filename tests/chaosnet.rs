//! Control-plane chaos properties: a seeded network partition —
//! detected and evicted by the heartbeat failure detector, healed, and
//! warm-rejoined — must change *nothing* a client can observe. Every
//! admitted request still returns the byte-identical object and
//! diagnostics of one standalone [`CompileService`], on the
//! deterministic loopback transport and on real TCP sockets alike. A
//! crash-restart of the whole fleet from its durable `CCM2RLOG` replica
//! logs must come back holding every parked delta op, and a peer that
//! stalls on a live socket must be evicted and failed over in bounded
//! time.

use std::sync::Arc;

use proptest::prelude::*;

use ccm2_fabric::{
    FabricResponse, FabricRouter, FrameHandler, HealthState, HeartbeatConfig, LoopbackTransport,
    ReplicaLogStore, ShardNode, TcpShardServer, TcpTransport, Transport,
};
use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{CompileRequest, CompileService, ExecChoice, Response, ServeConfig};
use ccm2_workload::{serve_load, shard_partition_schedule, ServeEvent, ServeLoadParams};

fn request(e: &ServeEvent) -> CompileRequest {
    CompileRequest {
        client: e.client,
        module: e.module.name.clone(),
        source: e.module.source.clone(),
        defs: Arc::new(e.module.defs.clone()),
        strategy: DkyStrategy::Skeptical,
        exec: ExecChoice::Sim(2),
        analyze: false,
        faults: None,
        task_deadline: None,
        max_stream_retries: 0,
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 64,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    }
}

/// What a client can observe of one served event.
type Observed = (bool, Option<Vec<u8>>, Vec<String>);

/// Serves every event on one standalone service (the reference).
fn serve_standalone(events: &[ServeEvent]) -> Vec<Observed> {
    let svc = CompileService::start(config());
    let mut out: Vec<Option<Observed>> = vec![None; events.len()];
    let mut pending: Vec<usize> = (0..events.len()).collect();
    let mut waves = 0;
    while !pending.is_empty() {
        waves += 1;
        assert!(waves <= 100, "standalone retry protocol failed to drain");
        let batch: Vec<CompileRequest> = pending.iter().map(|&i| request(&events[i])).collect();
        let indexes = std::mem::take(&mut pending);
        for (i, resp) in indexes.into_iter().zip(svc.serve_batch(batch)) {
            match resp {
                Response::Done(o) => {
                    out[i] = Some((o.ok, o.object.clone(), o.diagnostics.clone()));
                }
                Response::Retry => pending.push(i),
            }
        }
    }
    out.into_iter().map(|o| o.expect("served")).collect()
}

/// Three shards on either transport. The TCP servers ride along so the
/// sockets outlive the router.
struct ChaosFleet {
    nodes: Vec<Arc<ShardNode>>,
    router: FabricRouter,
    loopback: Option<Arc<LoopbackTransport>>,
    tcp: Option<(Arc<TcpTransport>, Vec<TcpShardServer>)>,
}

impl ChaosFleet {
    fn start(tcp: bool) -> ChaosFleet {
        let nodes: Vec<Arc<ShardNode>> = (0..3u32)
            .map(|id| Arc::new(ShardNode::start(id, config())))
            .collect();
        let heartbeat = HeartbeatConfig {
            suspect_misses: 1,
            evict_misses: 2,
        };
        if tcp {
            let transport = Arc::new(TcpTransport::new());
            let mut servers = Vec::new();
            for node in &nodes {
                let server = TcpShardServer::serve(Arc::clone(node) as Arc<dyn FrameHandler>)
                    .expect("tcp shard server");
                transport.register(node.id(), server.addr());
                servers.push(server);
            }
            let router = FabricRouter::new(Arc::clone(&transport) as Arc<dyn Transport>)
                .with_heartbeat(heartbeat);
            ChaosFleet {
                nodes,
                router,
                loopback: None,
                tcp: Some((transport, servers)),
            }
        } else {
            let transport = Arc::new(LoopbackTransport::new());
            for node in &nodes {
                transport.register(node.id(), Arc::clone(node) as Arc<dyn FrameHandler>);
            }
            let router = FabricRouter::new(Arc::clone(&transport) as Arc<dyn Transport>)
                .with_heartbeat(heartbeat);
            ChaosFleet {
                nodes,
                router,
                loopback: Some(transport),
                tcp: None,
            }
        }
    }

    fn cut(&self, shard: u32, on: bool) {
        if let Some(loopback) = &self.loopback {
            loopback.set_link_faults(on.then(|| {
                Arc::new(ccm2_faults::FaultPlan::single(
                    format!("link:{shard}#c*"),
                    ccm2_faults::FaultKind::Panic,
                ))
            }));
        }
        if let Some((transport, _)) = &self.tcp {
            transport.set_partitioned(shard, on);
        }
    }
}

/// Serves the whole load through a partition/evict/heal/rejoin cycle on
/// the chosen transport, asserting the detector's deterministic clock.
fn serve_chaos(events: &[ServeEvent], params: &ServeLoadParams, tcp: bool) -> Vec<Observed> {
    let fleet = ChaosFleet::start(tcp);
    // The partition window is drawn over the first two-thirds so a
    // healthy tail always follows the rejoin.
    let sched = ServeLoadParams {
        events: params.events * 2 / 3,
        ..*params
    };
    let window = shard_partition_schedule(&sched, 3, 1)[0];
    let mut out: Vec<Option<Observed>> = vec![None; events.len()];
    let phases = [
        (0, window.from),
        (window.from, window.until),
        (window.until, events.len()),
    ];
    for (phase_idx, &(lo, hi)) in phases.iter().enumerate() {
        if phase_idx == 1 {
            fleet.cut(window.shard, true);
            let mut ticks = 0;
            while fleet.router.health(window.shard) != HealthState::Evicted {
                ticks += 1;
                assert!(ticks <= 4, "failure detector hung");
                fleet.router.heartbeat_tick();
            }
            assert_eq!(ticks, 2, "suspect on the first miss, evict on the second");
            assert!(!fleet.router.live_shards().contains(&window.shard));
        }
        if phase_idx == 2 {
            fleet.cut(window.shard, false);
            fleet.router.admit_shard(window.shard);
            assert_eq!(fleet.router.health(window.shard), HealthState::Alive);
            assert_eq!(fleet.router.live_shards(), vec![0, 1, 2]);
        }
        let mut pending: Vec<usize> = (lo..hi).collect();
        let mut waves = 0;
        while !pending.is_empty() {
            waves += 1;
            assert!(waves <= 100, "chaos retry protocol failed to drain");
            let batch: Vec<CompileRequest> = pending.iter().map(|&i| request(&events[i])).collect();
            let indexes = std::mem::take(&mut pending);
            for (i, resp) in indexes.into_iter().zip(fleet.router.serve_batch(&batch)) {
                match resp {
                    FabricResponse::Done(o) => {
                        out[i] = Some((o.ok, o.object.clone(), o.diagnostics.clone()));
                    }
                    FabricResponse::Retry { .. } => pending.push(i),
                }
            }
        }
    }
    assert!(
        fleet.router.stats().heartbeat_evictions == 1,
        "exactly one heartbeat eviction"
    );
    let pings_answered: u64 = fleet.nodes.iter().map(|n| n.stats().pings).sum();
    assert!(
        pings_answered > 0,
        "the healthy shards never answered a probe"
    );
    out.into_iter().map(|o| o.expect("served")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    })]

    // A seeded partition -> eviction -> heal -> rejoin cycle on the
    // loopback transport is invisible: byte-identical to standalone,
    // zero admitted requests lost.
    #[test]
    fn partition_eviction_and_rejoin_are_invisible_to_clients(
        seed in 0u64..1_000_000,
        events in 12usize..20,
    ) {
        let params = ServeLoadParams {
            seed,
            projects: 2,
            clients: 3,
            events,
            edit_every: 5,
            interface_every: 2,
        };
        let load = serve_load(&params);
        let reference = serve_standalone(&load);
        let fleet = serve_chaos(&load, &params, false);
        for (i, (r, f)) in reference.iter().zip(&fleet).enumerate() {
            prop_assert!(r.0 && f.0, "event {i} failed somewhere");
            prop_assert_eq!(&r.1, &f.1, "object bytes diverge at event {}", i);
            prop_assert_eq!(&r.2, &f.2, "diagnostics diverge at event {}", i);
        }
    }
}

// The same cycle over real TCP sockets: the partition switch models a
// dead link (connect refused / black-holed writes) instead of a fault
// plan, and the contract is identical.
#[test]
fn tcp_partition_cycle_matches_standalone() {
    let params = ServeLoadParams {
        seed: 0xBEEF,
        projects: 2,
        clients: 3,
        events: 15,
        edit_every: 5,
        interface_every: 2,
    };
    let load = serve_load(&params);
    let reference = serve_standalone(&load);
    let fleet = serve_chaos(&load, &params, true);
    for (i, (r, f)) in reference.iter().zip(&fleet).enumerate() {
        assert!(r.0 && f.0, "event {i} failed somewhere");
        assert_eq!(&r.1, &f.1, "object bytes diverge at event {i}");
        assert_eq!(&r.2, &f.2, "diagnostics diverge at event {i}");
    }
}

// A shard that still accepts connections but never answers, on real
// TCP under the wall-clock detector: the probe deadline evicts it within
// `(evict_misses + 1) × period` plus slack, the eviction cuts the
// compile blocked on it so it fails over, and no request is lost. The
// drill itself (shared with `reproduce -- chaosnet`) checks byte-identity
// to standalone and the hang bound.
#[test]
fn tcp_stalled_peer_is_evicted_and_blocked_calls_fail_over() {
    let cell = ccm2_bench::stalled_peer_cell(0x57A1, 25);
    assert!(
        cell.evicted_in <= cell.bound,
        "evicted after {:?}, bound {:?}",
        cell.evicted_in,
        cell.bound
    );
    assert!(
        cell.held_compiles > 0,
        "no compile was blocked on the stall"
    );
}

// A whole-fleet crash (router, transport, and every node dropped) must
// lose zero parked replica-log ops: the rebuilt nodes load their
// CCM2RLOG images and the next failover absorbs from them.
#[test]
fn fleet_restart_from_durable_logs_loses_no_parked_ops() {
    let dir = std::env::temp_dir().join(format!("ccm2-chaosnet-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mk_node = |id: u32| -> Arc<ShardNode> {
        let rlogs = ReplicaLogStore::new(dir.join(format!("rlog-{id}"))).expect("rlog dir");
        Arc::new(
            ShardNode::start(id, config())
                .with_durable_log(rlogs)
                .expect("durable replica logs"),
        )
    };
    let params = ServeLoadParams {
        seed: 0xD0_17,
        projects: 2,
        clients: 3,
        events: 18,
        edit_every: 5,
        interface_every: 2,
    };
    let load = serve_load(&params);

    let nodes: Vec<Arc<ShardNode>> = (0..3u32).map(mk_node).collect();
    let transport = Arc::new(LoopbackTransport::new());
    for node in &nodes {
        transport.register(node.id(), Arc::clone(node) as Arc<dyn FrameHandler>);
    }
    let router = FabricRouter::new(Arc::clone(&transport) as Arc<dyn Transport>);
    let mut pending: Vec<CompileRequest> = load.iter().map(request).collect();
    let mut waves = 0;
    while !pending.is_empty() {
        waves += 1;
        assert!(waves <= 100, "restart drill failed to drain");
        let batch = std::mem::take(&mut pending);
        let resubmit = batch.clone();
        for (req, resp) in resubmit.into_iter().zip(router.serve_batch(&batch)) {
            match resp {
                FabricResponse::Done(o) => assert!(o.ok, "{:?}", o.diagnostics),
                FabricResponse::Retry { .. } => pending.push(req),
            }
        }
    }
    let parked = |nodes: &[Arc<ShardNode>]| -> Vec<Vec<usize>> {
        nodes
            .iter()
            .map(|n| (0..3u32).map(|o| n.replica_len(o)).collect())
            .collect()
    };
    let parked_before = parked(&nodes);
    let total: usize = parked_before.iter().flatten().sum();
    assert!(total > 0, "serving parked no replica ops — vacuous drill");
    drop(router);
    drop(transport);
    drop(nodes);

    // Crash over: rebuild the same shard ids from the same directories.
    let nodes: Vec<Arc<ShardNode>> = (0..3u32).map(mk_node).collect();
    assert_eq!(parked(&nodes), parked_before, "restart changed parked ops");
    let transport = Arc::new(LoopbackTransport::new());
    for node in &nodes {
        transport.register(node.id(), Arc::clone(node) as Arc<dyn FrameHandler>);
    }
    let router = FabricRouter::new(Arc::clone(&transport) as Arc<dyn Transport>);
    let origin = (0..3u32)
        .max_by_key(|&o| {
            nodes
                .iter()
                .filter(|n| n.id() != o)
                .map(|n| n.replica_len(o))
                .sum::<usize>()
        })
        .expect("three shards");
    router.kill_shard(origin);
    let absorbed: u64 = nodes
        .iter()
        .filter(|n| n.id() != origin)
        .map(|n| n.stats().absorbed_ops)
        .sum();
    assert!(absorbed > 0, "failover absorbed nothing from restored logs");
    let _ = std::fs::remove_dir_all(&dir);
}
