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

use std::time::{Duration, Instant};

use proptest::prelude::*;

use ccm2_bench::drill::{self, drain, serve_standalone, Observed, StallFleet, CHAOS_HEARTBEAT};
use ccm2_fabric::Fabric;
use ccm2_serve::{CompileRequest, ExecChoice, ServeConfig};
use ccm2_workload::{serve_load, shard_partition_schedule, ServeLoadParams};

fn requests(params: &ServeLoadParams) -> Vec<CompileRequest> {
    drill::requests(&serve_load(params), ExecChoice::Sim(2))
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 64,
        store_budget: 64 * 1024,
        ..ServeConfig::default()
    }
}

/// Serves the whole load through a partition/evict/heal/rejoin cycle on
/// three shards of the chosen transport, asserting the detector's
/// deterministic clock.
fn serve_chaos(requests: &[CompileRequest], params: &ServeLoadParams, tcp: bool) -> Vec<Observed> {
    let fleet = Fabric::launch(3, config(), tcp, None)
        .expect("fleet")
        .with_router(|r| r.with_heartbeat(CHAOS_HEARTBEAT));
    let serve = |slice: &[CompileRequest]| drain(slice, None, |b| fleet.router().serve_batch(b)).0;
    // The partition window is drawn over the first two-thirds so a
    // healthy tail always follows the rejoin.
    let sched = ServeLoadParams {
        events: params.events * 2 / 3,
        ..*params
    };
    let window = shard_partition_schedule(&sched, 3, 1)[0];
    let mut out = serve(&requests[..window.from]);
    drill::partition_and_evict(&fleet, window.shard);
    out.extend(serve(&requests[window.from..window.until]));
    drill::heal_and_rejoin(&fleet, window.shard);
    assert_eq!(fleet.router().live_shards(), vec![0, 1, 2]);
    out.extend(serve(&requests[window.until..]));
    assert!(
        fleet.router().stats().heartbeat_evictions == 1,
        "exactly one heartbeat eviction"
    );
    let pings_answered: u64 = fleet.nodes().iter().map(|n| n.stats().pings).sum();
    assert!(
        pings_answered > 0,
        "the healthy shards never answered a probe"
    );
    out
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
        let load = requests(&params);
        let reference = serve_standalone(&load, config());
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
    let load = requests(&params);
    let reference = serve_standalone(&load, config());
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

// A peer that answers a ping and then stalls on the lease renewal that
// follows it, on real TCP under the wall-clock detector: the renewal
// runs under the probe deadline, so the heartbeat thread is not wedged
// and the next pings evict the peer within `(evict_misses + 1) × period`
// plus slack.
#[test]
fn peer_stalled_on_its_lease_renewal_is_evicted_in_bound() {
    let period = Duration::from_millis(25);
    let fleet = StallFleet::start(config(), period);
    let bound = period * (CHAOS_HEARTBEAT.evict_misses + 1) + drill::STALL_EVICT_SLACK;
    let armed = Instant::now();
    fleet.switches[1].stall_at_next_renew();
    let evicted_in = fleet.evicted_within(1, armed, bound);
    assert!(
        evicted_in.is_some(),
        "shard 1 not evicted within {bound:?}; pings sent: {}",
        fleet.fabric.router().stats().pings
    );
    assert!(fleet.switches[1].held() > 0, "the renewal was never held");
}

// A whole-fleet crash (router, transport, and every node dropped) must
// lose zero parked replica-log ops: the rebuilt nodes load their
// CCM2RLOG images and the next failover absorbs from them.
#[test]
fn fleet_restart_from_durable_logs_loses_no_parked_ops() {
    let dir = std::env::temp_dir().join(format!("ccm2-chaosnet-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let params = ServeLoadParams {
        seed: 0xD0_17,
        projects: 2,
        clients: 3,
        events: 18,
        edit_every: 5,
        interface_every: 2,
    };
    let fleet = Fabric::launch(3, config(), false, Some(&dir)).expect("durable fleet");
    for (ok, _, diagnostics) in drain(&requests(&params), None, |b| fleet.router().serve_batch(b)).0
    {
        assert!(ok, "{diagnostics:?}");
    }
    // Crash, rebuild the same shard ids from the same directories, and
    // fail the fullest origin over: every parked op must come back and
    // the absorb must replay some.
    drill::crash_restart_and_absorb(fleet, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
