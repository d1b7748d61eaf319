//! Chaos drills: seeded fault injection against a full NetSeer deployment.
//!
//! Each scenario builds a [`FaultPlan`], deploys fleet-wide on the testbed
//! fat-tree, drives real traffic with data-plane faults (so events are
//! actually generated), and then checks the robustness contract:
//!
//! * the [`DeliveryLedger`] balances on every device — every generated
//!   event is delivered, shed at a named choke point, or still pending;
//!   nothing is ever lost silently;
//! * degradation is graceful (deliveries continue, or resume after the
//!   fault clears);
//! * the same seed reproduces the same run bit-for-bit.

mod common;

use common::seed;
use fet_netsim::host::FlowSpec;
use fet_netsim::link::BurstDrop;
use fet_netsim::routing::install_ecmp_routes;
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::topology::{build_fat_tree, FatTree, FatTreeParams};
use fet_netsim::Simulator;
use fet_packet::event::EventType;
use fet_packet::FlowKey;
use netseer::deploy::{
    collect_events, delivered_history, deploy, fleet_ledger, fleet_stats, monitor_of,
    monitor_of_mut, DeployOptions,
};
use netseer::faults::{seeded_device_crashes, streams, OverloadWindow};
use netseer::{
    schedule_device_crashes, schedule_watchdog, schedule_wedge, Collector, CollectorConfig,
    CorruptionGen, CorruptionSpec, CrashKind, FaultPlan, LossProcess, NetSeerConfig,
    WatchdogConfig, Window,
};

fn setup(cfg: NetSeerConfig) -> (Simulator, FatTree) {
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions { cfg, on_nics: true });
    (sim, ft)
}

fn add_flow(sim: &mut Simulator, ft: &FatTree, src: usize, dst: usize, sport: u16, bytes: u64) {
    let key = FlowKey::tcp(ft.host_ips[src], sport, ft.host_ips[dst], 80);
    let h = ft.hosts[src];
    let idx = sim.host_mut(h).add_flow(FlowSpec {
        key,
        total_bytes: bytes,
        pkt_payload: 1000,
        rate_gbps: 5.0,
        start_ns: 0,
        dscp: 0,
    });
    sim.schedule_flow(h, idx);
}

/// Cross-traffic plus lossy uplinks: a workload that reliably generates
/// path-change and inter-switch-drop events on every pod, and that lasts
/// several milliseconds so faults scheduled mid-run hit live traffic.
fn drive_lossy_fabric(sim: &mut Simulator, ft: &FatTree, drop_prob: f64) {
    for s in 0..8 {
        add_flow(sim, ft, s, 7 - s, 2000 + s as u16, 4_000_000);
    }
    for pod in 0..2 {
        let tor = ft.edges[pod][0];
        for port in 0..2 {
            sim.link_direction_mut(tor, port).unwrap().faults.drop_prob = drop_prob;
        }
    }
}

fn fleet_retransmissions(sim: &Simulator) -> u64 {
    sim.switch_ids().into_iter().map(|id| monitor_of(sim, id).transport.retransmissions).sum()
}

/// Scenario 1 — bursty (Gilbert–Elliott) loss on the management network.
/// The adaptive-RTO transport retransmits through the bursts; everything
/// still arrives and the ledger stays balanced.
#[test]
fn burst_loss_on_mgmt_network_is_absorbed() {
    let faults = FaultPlan {
        seed: seed(0xC0FFEE),
        mgmt_loss: LossProcess::GilbertElliott {
            p_enter_bad: 0.2,
            p_exit_bad: 0.2,
            loss_good: 0.05,
            loss_bad: 0.95,
        },
        ..FaultPlan::default()
    };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    sim.run_until(30 * MILLIS);

    let ledger = fleet_ledger(&sim);
    assert!(ledger.generated > 0, "workload must generate events");
    assert!(ledger.delivered > 0, "bursty loss must not stop delivery");
    assert_eq!(ledger.missing(), 0, "zero silent loss");
    assert!(fleet_retransmissions(&sim) > 0, "GE loss must force retransmissions");
}

/// Scenario 2 — a hard partition of the management network that heals.
/// Reports queue behind partition-aware backoff and drain promptly after
/// the heal; no event disappears.
#[test]
fn mgmt_partition_heals_and_reports_resume() {
    // From t=0: the first reports (new-flow path changes, early drops) are
    // guaranteed to be attempted inside the partition and retried across
    // the heal.
    let partition = Window { start_ns: 0, end_ns: 2 * MILLIS };
    let faults =
        FaultPlan { seed: seed(0xBEEF), mgmt_partitions: vec![partition], ..FaultPlan::default() };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    sim.run_until(30 * MILLIS);

    let ledger = fleet_ledger(&sim);
    assert!(ledger.delivered > 0);
    assert_eq!(ledger.missing(), 0, "zero silent loss across the partition");
    // Sends attempted inside the window retried; delivery resumed after.
    // Consumed through the collector's subscription API: ingest the fleet
    // history, then drain the ordered stream like any other subscriber.
    let mut collector = Collector::new();
    let sub = collector.subscribe();
    collector.ingest(&delivered_history(&sim));
    let drained = collector.drain_ordered(sub);
    assert_eq!(drained.len(), collector.len(), "one drain sees the full store");
    assert!(
        drained.iter().any(|e| e.time_ns >= partition.end_ns),
        "reports must resume after the partition heals"
    );
    assert!(fleet_retransmissions(&sim) > 0, "sends during the partition must have retried");
}

/// Scenario 3 — each of the three redundant loss-notification copies can
/// die independently. Survival of any one copy suffices: the upstream ring
/// still recovers every victim flow while the dropped copies are counted.
#[test]
fn notification_copy_loss_survived_by_redundancy() {
    let faults = FaultPlan {
        seed: seed(0x5EED),
        notification_loss: LossProcess::Bernoulli { p: 0.35 },
        ..FaultPlan::default()
    };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    for s in 0..4 {
        add_flow(&mut sim, &ft, s, 4 + s, 1000 + s as u16, 1_000_000);
    }
    // Burst drops on both uplinks of two ToRs: several distinct gaps, each
    // announced by three redundant notification copies.
    for pod in 0..2 {
        let tor = ft.edges[pod][0];
        for port in 0..2 {
            sim.link_direction_mut(tor, port).unwrap().faults.burst_drop =
                Some(BurstDrop { at_ns: 50_000, count: 4, corrupt: false });
        }
    }
    sim.run_until(100 * MILLIS);

    assert!(
        fleet_stats(&sim).notification_copies_dropped > 0,
        "the loss process must actually eat copies"
    );
    let gt = sim.gt.flow_events(EventType::InterSwitchDrop);
    assert!(!gt.is_empty(), "bursts must produce inter-switch drops");
    let store = collect_events(&mut sim);
    let seen = store.flow_events(EventType::InterSwitchDrop);
    for fe in &gt {
        assert!(seen.contains(fe), "redundancy failed to cover {fe:?}");
    }
    assert_eq!(fleet_ledger(&sim).missing(), 0);
}

/// Scenario 4 — switch-CPU overload. The overload controller sheds batches
/// instead of queueing unboundedly, and every shed event is counted.
#[test]
fn cpu_overload_sheds_and_counts() {
    let faults = FaultPlan {
        seed: seed(0xFEED),
        cpu_overload: vec![OverloadWindow {
            window: Window { start_ns: 0, end_ns: 100 * MILLIS },
            factor: 5_000.0,
        }],
        ..FaultPlan::default()
    };
    let cfg = NetSeerConfig {
        faults,
        cpu_max_backlog_ns: 200 * MICROS,
        // An event storm (no in-pipeline aggregation) against a crippled
        // CPU: the overload controller must engage.
        enable_dedup: false,
        ..NetSeerConfig::default()
    };
    let (mut sim, ft) = setup(cfg);
    drive_lossy_fabric(&mut sim, &ft, 0.05);
    sim.run_until(30 * MILLIS);

    let ledger = fleet_ledger(&sim);
    assert!(ledger.generated > 0);
    assert!(
        ledger.shed_cpu_overload > 0,
        "overload controller must shed under a 5000x slowdown: {ledger:?}"
    );
    assert_eq!(ledger.missing(), 0, "shed events are counted, not lost");
}

/// Scenario 5 — CEBP recirculation and PCIe stall windows. Batches park
/// during the stalls and flow again afterwards; accounting stays exact.
#[test]
fn cebp_and_pcie_stalls_delay_but_never_lose() {
    let faults = FaultPlan {
        seed: seed(0xD1CE),
        cebp_stalls: vec![Window { start_ns: MILLIS, end_ns: 3 * MILLIS }],
        pcie_stalls: vec![Window { start_ns: 2 * MILLIS, end_ns: 5 * MILLIS }],
        ..FaultPlan::default()
    };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    sim.run_until(30 * MILLIS);

    let ledger = fleet_ledger(&sim);
    assert!(ledger.delivered > 0, "stalls must only delay, not stop, delivery");
    assert_eq!(ledger.missing(), 0);
}

/// The reproducibility contract: identical seed + plan ⇒ identical run,
/// down to the ledger, the event store, and the bytes on the wire.
#[test]
fn same_seed_reproduces_the_same_chaos() {
    let run = |seed: u64| {
        let faults = FaultPlan {
            seed,
            mgmt_loss: LossProcess::GilbertElliott {
                p_enter_bad: 0.2,
                p_exit_bad: 0.2,
                loss_good: 0.05,
                loss_bad: 0.95,
            },
            notification_loss: LossProcess::Bernoulli { p: 0.2 },
            mgmt_partitions: vec![Window { start_ns: 2 * MILLIS, end_ns: 3 * MILLIS }],
            ..FaultPlan::default()
        };
        let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
        drive_lossy_fabric(&mut sim, &ft, 0.02);
        sim.run_until(20 * MILLIS);
        let ledger = fleet_ledger(&sim);
        let retx = fleet_retransmissions(&sim);
        let notif = fleet_stats(&sim).notification_copies_dropped;
        let store = collect_events(&mut sim);
        (ledger, retx, notif, store.len(), sim.mgmt.total_bytes())
    };
    let a = run(42);
    assert_eq!(a, run(42), "same seed must reproduce bit-for-bit");
    assert!(a != run(43), "different seeds should perturb the run (got identical outcomes)");
}

/// Seeded crash schedule used by the crash-recovery scenarios: every
/// switch CPU dies once inside [2 ms, 10 ms) and restarts 500 µs later.
fn crash_schedule(s: u64, sim: &Simulator, kind: CrashKind) -> Vec<netseer::DeviceCrash> {
    seeded_device_crashes(
        s,
        &sim.switch_ids(),
        Window { start_ns: 2 * MILLIS, end_ns: 10 * MILLIS },
        500 * MICROS,
        kind,
    )
}

/// Scenario 6 — every switch CPU stops cleanly once, mid-run. A clean
/// stop checkpoints on the way down, so recovery is literally lossless:
/// `lost_to_crash == 0` fleet-wide and the ledger still balances.
#[test]
fn clean_restart_of_every_switch_cpu_is_lossless() {
    let faults = FaultPlan { seed: seed(0xCAFE), ..FaultPlan::default() };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    let crashes = crash_schedule(seed(0xCAFE), &sim, CrashKind::Clean);
    let n_switches = crashes.len();
    let log = schedule_device_crashes(&mut sim, &crashes);
    sim.run_until(30 * MILLIS);

    assert_eq!(log.len(), n_switches, "every switch CPU must restart exactly once");
    assert_eq!(log.total_lost(), 0, "clean stops are lossless");
    assert!(log.reports().iter().all(|r| r.epoch >= 1), "restart must bump the epoch");
    let ledger = fleet_ledger(&sim);
    assert!(ledger.generated > 0 && ledger.delivered > 0);
    assert_eq!(ledger.lost_to_crash, 0);
    assert_eq!(ledger.missing(), 0, "zero silent loss across fleet-wide restarts");
}

/// Scenario 7 — every switch CPU is hard-killed once (the un-fsynced WAL
/// tail dies with it). The ledger books the loss under `lost_to_crash`,
/// provably bounded by the un-checkpointed window on each device.
#[test]
fn hard_kill_of_every_switch_cpu_bounds_the_loss() {
    let faults = FaultPlan { seed: seed(0xDEAD), ..FaultPlan::default() };
    // A short checkpoint cadence keeps the exposure window tight.
    let cfg = NetSeerConfig { faults, checkpoint_interval_ns: MILLIS, ..NetSeerConfig::default() };
    let (mut sim, ft) = setup(cfg);
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    let crashes = crash_schedule(seed(0xDEAD), &sim, CrashKind::Hard);
    let n_switches = crashes.len();
    let log = schedule_device_crashes(&mut sim, &crashes);
    sim.run_until(30 * MILLIS);

    assert_eq!(log.len(), n_switches, "every switch CPU must restart exactly once");
    let ledger = fleet_ledger(&sim);
    assert!(ledger.generated > 0 && ledger.delivered > 0);
    assert_eq!(
        ledger.lost_to_crash,
        log.total_lost(),
        "the fleet ledger's crash loss must equal the per-restart accounting"
    );
    // The bound: each kill destroys at most what arrived since that
    // device's last checkpoint — never the whole pending set, and every
    // report says so explicitly.
    for r in log.reports() {
        assert!(r.lost <= r.pending_at_kill, "{r:?}");
        assert_eq!(r.replayed + r.lost, r.pending_at_kill, "{r:?}");
    }
    assert_eq!(ledger.missing(), 0, "hard kills must be accounted, not silent");
}

/// Scenario 8 — restart discontinuities are not loss. With crashes but NO
/// link faults, any inter-switch gap would be a false positive from the
/// post-restart sequence discontinuity; the neighbor re-base must keep the
/// count at zero while the counters themselves survive the restarts.
#[test]
fn restart_discontinuity_is_not_counted_as_loss() {
    let faults = FaultPlan { seed: seed(0xAB1E), ..FaultPlan::default() };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    // Clean fabric: no drops at all.
    drive_lossy_fabric(&mut sim, &ft, 0.0);
    let crashes = crash_schedule(seed(0xAB1E), &sim, CrashKind::Hard);
    let log = schedule_device_crashes(&mut sim, &crashes);
    sim.run_until(30 * MILLIS);

    assert!(!log.is_empty());
    let ids: Vec<u32> = sim.switch_ids().into_iter().chain(sim.host_ids()).collect();
    let gaps: u64 = ids.iter().map(|&id| monitor_of(&sim, id).gaps_detected()).sum();
    assert_eq!(gaps, 0, "restart discontinuities must not be charged as loss bursts");
    assert_eq!(fleet_ledger(&sim).missing(), 0);
}

/// Scenario 9 — one hard collector kill mid-run. Senders keep their
/// delivered history; after the collector reverts to its checkpoint, the
/// reconnect handshake retransmits the uncovered suffix and the
/// `(device, epoch, seq)` gates dedup the rest: exactly-once end to end,
/// even with every switch CPU also restarting during the run.
#[test]
fn collector_hard_kill_reconciles_to_exactly_once() {
    let faults = FaultPlan { seed: seed(0xFA11), ..FaultPlan::default() };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    let crashes = crash_schedule(seed(0xFA11), &sim, CrashKind::Hard);
    let _log = schedule_device_crashes(&mut sim, &crashes);
    sim.run_until(30 * MILLIS);

    // Every sender's delivered history, fleet-wide.
    let deliveries: Vec<netseer::StoredEvent> = delivered_history(&sim);
    assert!(!deliveries.is_empty());

    // Place the checkpoint at the median delivery and the kill after the
    // last one, so the revert window is guaranteed non-empty whatever the
    // seed does to the delivery timeline.
    let mut times: Vec<u64> = deliveries.iter().map(|e| e.time_ns).collect();
    times.sort_unstable();
    let t_mid = times[times.len() / 2];
    let t_crash = *times.last().unwrap() + 1;

    let crash = netseer::CollectorCrash { at_ns: t_crash, kind: CrashKind::Hard };
    let mut collector = Collector::new();
    // Give the hard kill a checkpoint to revert to (mid-run durability).
    let mid: Vec<netseer::StoredEvent> =
        deliveries.iter().filter(|e| e.time_ns < t_mid).copied().collect();
    collector.ingest(&mid);
    collector.checkpoint();
    let reverted = netseer::run_collector_crash_drill(&mut collector, &deliveries, &[crash]);

    assert!(reverted > 0, "the hard kill must actually revert ingested work");
    assert_eq!(collector.len(), deliveries.len(), "exactly-once after reconciliation");
    assert!(collector.duplicates_rejected() > 0, "reconciliation must have deduped");
}

/// Scenario 10 — the analytics engine rides through a hard collector
/// kill. The engine checkpoints *with* the collector (store, gates, and
/// subscription cursor together), so the coordinated revert rewinds both
/// sides to the same instant; sender reconciliation then replays exactly
/// the reverted suffix. The analytics ledger identity must hold
/// before the kill, after the revert, and after reconciliation — and the
/// engine's final state must equal a crash-free reference run's.
#[test]
fn analytics_engine_survives_collector_hard_kill() {
    use fet_analytics::{link_map_from_sim, AnalyticsConfig, AnalyticsEngine};

    let faults = FaultPlan { seed: seed(0xA11A), ..FaultPlan::default() };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    sim.run_until(30 * MILLIS);

    let deliveries = delivered_history(&sim);
    assert!(!deliveries.is_empty());
    let links = link_map_from_sim(&sim);

    // Crash-free reference: one collector, one engine, whole history.
    let mut ref_collector = Collector::new();
    let mut reference = AnalyticsEngine::new(AnalyticsConfig::default(), links.clone());
    reference.attach(&mut ref_collector);
    ref_collector.ingest(&deliveries);
    reference.poll(&mut ref_collector);

    // Crashed run: ingest half, coordinated checkpoint, ingest the rest,
    // hard kill, then sender reconciliation re-offers everything.
    let mut collector = Collector::new();
    let mut engine = AnalyticsEngine::new(AnalyticsConfig::default(), links);
    engine.attach(&mut collector);
    let half = deliveries.len() / 2;
    collector.ingest(&deliveries[..half]);
    engine.poll(&mut collector);
    engine.ledger().assert_balanced();
    engine.checkpoint(&mut collector);
    collector.ingest(&deliveries[half..]);
    engine.poll(&mut collector);
    engine.ledger().assert_balanced();
    let processed_before = engine.processed;

    let rolled_back = engine.crash_restart(CrashKind::Hard, &mut collector);
    assert!(rolled_back > 0, "the kill must revert analytics work");
    engine.ledger().assert_balanced();
    assert_eq!(engine.ledger().ingested, engine.processed);

    collector.ingest(&deliveries); // at-least-once reconciliation
    engine.poll(&mut collector);

    assert_eq!(engine.processed, processed_before, "exactly-once across the kill");
    let ledger = engine.ledger();
    ledger.assert_balanced();
    assert_eq!(ledger, reference.ledger(), "crashed run must converge to the reference");
    assert_eq!(
        engine.top_flows(32),
        reference.top_flows(32),
        "top-k must be unaffected by the crash"
    );
    assert_eq!(engine.totals(), reference.totals(), "window totals must converge");
    assert!(collector.duplicates_rejected() > 0, "reconciliation must have deduped");
}

/// Scenario 11 — a bit-flip storm: one pod's uplinks deliver damaged
/// frames *past* the FCS (the residual-corruption model) while every
/// monitor's CEBP reports and loss notifications take byte damage at
/// 1e-3/byte. Nothing may panic; CRC trailers catch what the FCS missed;
/// the implicit-NACK retransmit loop keeps delivery flowing; and the
/// extended ledger identity (with the `corrupted` term) balances.
#[test]
fn bit_flip_storm_is_detected_and_accounted() {
    let faults = FaultPlan {
        seed: seed(0xB17F),
        cebp_corruption: CorruptionSpec::bit_flips(1e-3),
        notification_corruption: CorruptionSpec::bit_flips(1e-3),
        ..FaultPlan::default()
    };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    // The storm: both uplinks of pod 0's first ToR corrupt 5% of frames,
    // and the damage escapes the FCS, so downstream parsers face garbage.
    let tor = ft.edges[0][0];
    for port in 0..2 {
        let dir = sim.link_direction_mut(tor, port).unwrap();
        dir.faults.corrupt_prob = 0.05;
        dir.faults.corrupt_bytes = Some(CorruptionSpec::bit_flips(1e-3));
    }
    sim.run_until(30 * MILLIS);

    let mutated: u64 = (0..2).map(|p| sim.link_direction_mut(tor, p).unwrap().frames_mutated).sum();
    assert!(mutated > 0, "the storm must actually damage delivered frames");
    let crc_failures: u64 =
        sim.switch_ids().into_iter().map(|id| monitor_of(&sim, id).cebp_crc_failures).sum();
    assert!(crc_failures > 0, "CEBP CRC trailers must catch damage (implicit NACKs)");
    let ledger = fleet_ledger(&sim);
    assert!(ledger.generated > 0 && ledger.delivered > 0, "delivery must survive the storm");
    assert_eq!(ledger.missing(), 0, "corruption must be counted, never silent: {ledger:?}");
}

/// Scenario 12 — torn WAL writes: every switch CPU is hard-killed once
/// while its un-fsynced WAL tail is damaged mid-flush (bit flips +
/// truncation). Replay keeps each log's longest CRC-valid record prefix,
/// the loss accounting stays exact, and the collector + analytics side
/// converges to a crash-free reference over the same delivered history.
#[test]
fn torn_wal_restart_converges_to_reference() {
    use fet_analytics::{link_map_from_sim, AnalyticsConfig, AnalyticsEngine};

    let faults = FaultPlan {
        seed: seed(0x7047),
        torn_wal: CorruptionSpec { flip_per_byte: 0.25, truncate_prob: 0.5, duplicate_prob: 0.0 },
        ..FaultPlan::default()
    };
    let cfg = NetSeerConfig { faults, checkpoint_interval_ns: MILLIS, ..NetSeerConfig::default() };
    let (mut sim, ft) = setup(cfg);
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    let crashes = crash_schedule(seed(0x7047), &sim, CrashKind::Hard);
    let n_switches = crashes.len();
    let log = schedule_device_crashes(&mut sim, &crashes);
    sim.run_until(30 * MILLIS);

    assert_eq!(log.len(), n_switches, "every switch CPU must restart exactly once");
    let ledger = fleet_ledger(&sim);
    assert!(ledger.generated > 0 && ledger.delivered > 0);
    assert_eq!(ledger.lost_to_crash, log.total_lost());
    assert_eq!(ledger.missing(), 0, "torn tails must be counted, never silent");
    for r in log.reports() {
        assert_eq!(r.replayed + r.lost, r.pending_at_kill, "{r:?}");
    }

    // The analytics side must not care that the fleet's WALs tore: over
    // the same delivered history, a collector+engine that hard-crashes
    // mid-ingest and reconciles converges bit-for-bit to a crash-free one.
    let deliveries = delivered_history(&sim);
    assert!(!deliveries.is_empty());
    let links = link_map_from_sim(&sim);
    let mut ref_collector = Collector::new();
    let mut reference = AnalyticsEngine::new(AnalyticsConfig::default(), links.clone());
    reference.attach(&mut ref_collector);
    ref_collector.ingest(&deliveries);
    reference.poll(&mut ref_collector);

    let mut collector = Collector::new();
    let mut engine = AnalyticsEngine::new(AnalyticsConfig::default(), links);
    engine.attach(&mut collector);
    let half = deliveries.len() / 2;
    collector.ingest(&deliveries[..half]);
    engine.poll(&mut collector);
    engine.checkpoint(&mut collector);
    collector.ingest(&deliveries[half..]);
    engine.poll(&mut collector);
    engine.crash_restart(CrashKind::Hard, &mut collector);
    collector.ingest(&deliveries);
    engine.poll(&mut collector);
    assert_eq!(engine.ledger(), reference.ledger(), "must converge to the crash-free reference");
    assert_eq!(engine.totals(), reference.totals());
}

/// Scenario 13 — a wedged switch CPU: the control loop hangs (heartbeat
/// frozen, batches shedding, no checkpoints) without dying. The watchdog
/// declares it suspect after two silent checks, hard-kills it, and
/// restarts it through the normal recovery path; healthy monitors are
/// never touched, the ledger balances, and the collector converges to a
/// crash-free reference over the delivered history.
#[test]
fn watchdog_restarts_wedged_monitor() {
    let faults = FaultPlan { seed: seed(0xD06), ..FaultPlan::default() };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    let switches = sim.switch_ids();
    // Two victims wedge mid-run, off the watchdog's check cadence.
    let victims = [switches[0], switches[switches.len() / 2]];
    for (i, &v) in victims.iter().enumerate() {
        schedule_wedge(&mut sim, v, 3 * MILLIS + 100 * MICROS * (i as u64 + 1));
    }
    let wd_cfg = WatchdogConfig {
        check_interval_ns: 500 * MICROS,
        missed_beats: 2,
        restart_delay_ns: 200 * MICROS,
        ..WatchdogConfig::default()
    };
    let log = schedule_watchdog(&mut sim, &switches, wd_cfg, 30 * MILLIS);
    sim.run_until(30 * MILLIS);

    let incidents = log.incidents();
    assert_eq!(incidents.len(), 2, "exactly the wedged monitors are suspect: {incidents:?}");
    let mut suspects: Vec<u32> = incidents.iter().map(|i| i.device).collect();
    suspects.sort_unstable();
    let mut expect = victims.to_vec();
    expect.sort_unstable();
    assert_eq!(suspects, expect, "no healthy monitor may be declared suspect");
    let restarts = log.restarts();
    assert_eq!(restarts.len(), 2, "every suspect must be restarted");
    assert!(restarts.iter().all(|r| r.kind == CrashKind::Hard && r.epoch >= 1));
    for &v in &victims {
        let m = monitor_of(&sim, v);
        assert!(!m.is_wedged(), "the restart must un-wedge");
        assert!(m.heartbeat > 0);
    }
    let ledger = fleet_ledger(&sim);
    assert!(ledger.generated > 0 && ledger.delivered > 0);
    assert_eq!(ledger.missing(), 0, "supervision must keep accounting exact: {ledger:?}");

    // Convergence: the collector over this run's delivered history, with a
    // mid-stream hard kill + reconciliation, equals a crash-free one.
    let deliveries = delivered_history(&sim);
    assert!(!deliveries.is_empty());
    let mut reference = Collector::new();
    reference.ingest(&deliveries);
    let mut collector = Collector::new();
    let half = deliveries.len() / 2;
    collector.ingest(&deliveries[..half]);
    collector.checkpoint();
    collector.ingest(&deliveries[half..]);
    collector.crash_restart(CrashKind::Hard);
    collector.ingest(&deliveries);
    assert_eq!(collector.len(), reference.len(), "exactly-once after the wedge incident");
    assert_eq!(
        collector.store().events(),
        reference.store().events(),
        "the store must converge bit-for-bit to the crash-free reference"
    );
}

/// Scenario 14 — burst overload spills to bounded disk, then drains: the
/// whole delivered history lands in one burst on a collector whose memory
/// watermark is tiny. The overflow parks in the spill instead of being
/// shed (`shed == 0`), the fleet identity extends with the `buffered`
/// term while events sit on disk, and polling the engine applies every
/// spilled event exactly once before deletion-after-ack reclaims the
/// segments.
#[test]
fn burst_overload_spills_then_drains_without_shedding() {
    use fet_analytics::{link_map_from_sim, AnalyticsConfig, AnalyticsEngine};

    let faults = FaultPlan { seed: seed(0x5B11), ..FaultPlan::default() };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    sim.run_until(30 * MILLIS);

    let deliveries = delivered_history(&sim);
    assert!(deliveries.len() > 16, "the workload must out-run the watermark");

    // Tiny watermark + small segments: the burst must spill and rotate.
    let mut collector = Collector::with_config(CollectorConfig {
        memory_watermark: 16,
        spill_segment_bytes: 1024,
        ..CollectorConfig::default()
    });
    let mut engine = AnalyticsEngine::new(AnalyticsConfig::default(), link_map_from_sim(&sim));
    engine.attach(&mut collector);
    collector.ingest(&deliveries);
    assert!(collector.spilled > 0, "the burst must overflow the watermark into the spill");
    assert!(collector.buffered() > 0, "spilled events are buffered, not dropped");
    assert_eq!(collector.overflow_refused, 0, "bounded disk absorbs the burst: shed == 0");
    assert!(collector.spill().rotations > 0, "small segments must rotate under the burst");

    // The fleet identity extends with `buffered` while the spill holds
    // events the collector has not yet applied.
    let mut ledger = fleet_ledger(&sim);
    collector.refine_fleet_ledger(&mut ledger);
    assert!(ledger.buffered > 0, "the identity must expose the spill occupancy");
    assert_eq!(ledger.missing(), 0, "identity holds mid-spill: {ledger:?}");

    // Draining restores the memory-only identity: exactly-once through
    // the spill, and the acked segments are deleted.
    engine.poll(&mut collector);
    assert_eq!(collector.buffered(), 0, "polling must drain the spill to quiescence");
    assert_eq!(collector.len(), deliveries.len(), "exactly-once through the spill");
    collector.checkpoint();
    assert!(collector.spill().acked_segments > 0, "ack must delete consumed segments");
    let mut ledger = fleet_ledger(&sim);
    collector.refine_fleet_ledger(&mut ledger);
    assert_eq!(ledger.buffered, 0);
    assert_eq!(ledger.missing(), 0);
    engine.ledger().assert_balanced();
    assert_eq!(engine.ledger().ingested, deliveries.len() as u64);
}

/// Scenario 15 — a hard kill lands mid-spill and the un-fsynced tail of
/// the open segment is torn (bit flips + truncation). Restart keeps the
/// longest CRC-valid prefix, rewinds the volatile read cursor to the
/// durable one, and sender reconciliation re-offers the history; the
/// epoch/seq gates (which revert *with* the spill) dedup the overlap, so
/// the collector and analytics converge bit-for-bit to a crash-free
/// reference over the same delivered history.
#[test]
fn hard_kill_mid_spill_with_torn_tail_converges_to_reference() {
    use fet_analytics::{link_map_from_sim, AnalyticsConfig, AnalyticsEngine};

    let base = seed(0x7054);
    let faults = FaultPlan { seed: base, ..FaultPlan::default() };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    sim.run_until(30 * MILLIS);

    let deliveries = delivered_history(&sim);
    let half = deliveries.len() / 2;
    assert!(deliveries.len() - half > 16, "the tail must out-run the watermark");
    let links = link_map_from_sim(&sim);

    // Crash-free reference over the same history.
    let mut ref_collector = Collector::new();
    let mut reference = AnalyticsEngine::new(AnalyticsConfig::default(), links.clone());
    reference.attach(&mut ref_collector);
    ref_collector.ingest(&deliveries);
    reference.poll(&mut ref_collector);

    // Crashed run: tight watermark, torn-tail damage armed on its own
    // RNG stream so the rest of the run is byte-identical either way.
    let mut collector = Collector::with_config(CollectorConfig {
        memory_watermark: 16,
        ..CollectorConfig::default()
    });
    let spec = CorruptionSpec { flip_per_byte: 0.25, truncate_prob: 0.5, duplicate_prob: 0.0 };
    collector.set_torn_spill(CorruptionGen::new(spec, base, streams::SPILL_CORRUPT));
    let mut engine = AnalyticsEngine::new(AnalyticsConfig::default(), links);
    engine.attach(&mut collector);

    collector.ingest(&deliveries[..half]);
    engine.poll(&mut collector);
    engine.checkpoint(&mut collector); // commits the durable spill cursor
    collector.ingest(&deliveries[half..]); // parks past the watermark, un-fsynced
    assert!(collector.buffered() > 0, "the kill must land mid-spill");

    engine.crash_restart(CrashKind::Hard, &mut collector);
    assert_eq!(collector.spill().crashes, 1);
    assert!(
        collector.spill().torn_records > 0,
        "the armed tear must destroy part of the un-fsynced tail"
    );
    // Whatever survived the tear sits at or past the durable cursor.
    assert!(collector.spill().read_cursor() == collector.spill().durable_cursor());

    collector.ingest(&deliveries); // at-least-once reconciliation
    engine.poll(&mut collector);
    assert_eq!(collector.buffered(), 0, "reconciliation must drain the spill");
    assert_eq!(collector.len(), deliveries.len(), "exactly-once across the torn spill");
    assert!(collector.duplicates_rejected() > 0, "reconciliation must have deduped");
    assert_eq!(engine.ledger(), reference.ledger(), "must converge to the crash-free run");
    assert_eq!(engine.totals(), reference.totals(), "window totals must converge");
    assert_eq!(engine.top_flows(32), reference.top_flows(32), "top-k must converge");
}

/// Scenario 16 — sustained collector pressure widens the flush interval:
/// monitors signalled a backpressure level force partial batches out only
/// every `2^level` timer ticks (capped by `BACKPRESSURE_MAX_WIDEN`), so
/// the fabric sends fewer partial CEBPs while full batches still flow.
/// Accounting stays exact, and a runaway level clamps to the same stride
/// as a moderate one — bit-for-bit.
#[test]
fn backpressure_widens_flush_intervals_deterministically() {
    let run = |level: u32| {
        let faults = FaultPlan { seed: seed(0xBAC4), ..FaultPlan::default() };
        let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
        drive_lossy_fabric(&mut sim, &ft, 0.02);
        sim.run_until(5 * MILLIS);
        // The collector's pressure signal reaches every switch monitor
        // (piggybacked on transport ACKs in a real deployment).
        for id in sim.switch_ids() {
            monitor_of_mut(&mut sim, id).set_backpressure(level);
        }
        sim.run_until(30 * MILLIS);
        let skipped: u64 =
            sim.switch_ids().iter().map(|&id| monitor_of(&sim, id).batcher.flushes_skipped).sum();
        let batches: u64 =
            sim.switch_ids().iter().map(|&id| monitor_of(&sim, id).batcher.delivered_batches).sum();
        (fleet_ledger(&sim), skipped, batches)
    };

    let (quiet, skipped_quiet, batches_quiet) = run(0);
    assert_eq!(skipped_quiet, 0, "level 0 never skips a flush");
    assert_eq!(quiet.missing(), 0);

    let (pressured, skipped_wide, batches_wide) = run(3);
    assert!(skipped_wide > 0, "level 3 must skip partial flushes");
    assert!(batches_wide <= batches_quiet, "widening cannot increase the batch count");
    assert_eq!(pressured.missing(), 0, "widened batching must not lose accounting");
    assert!(pressured.generated > 0 && pressured.delivered > 0);

    // 2^3 == 8 meets the default cap of 8, and a runaway level clamps to
    // the very same stride: the two runs must be identical.
    let clamped = run(u32::MAX);
    assert_eq!(
        (pressured, skipped_wide, batches_wide),
        clamped,
        "the widen cap must bound a runaway signal"
    );
}

/// Scenario 17 — a hostile NetFlow/IPFIX exporter storms the collector's
/// wire socket: template floods, count and length lies,
/// data-before-template, reserved sets, raw garbage, and seeded byte
/// corruption layered on top — against a collector with a tight watermark
/// and a tiny spill budget so the whole admission ladder engages. The
/// contract: no panic anywhere, the template cache stays inside its
/// configured bound, every rejected datagram is quarantined and counted
/// under exactly one reason, and the extended ledger identity — now with
/// the `malformed` term — holds exactly.
#[test]
fn hostile_exporter_storm_stays_bounded_and_accounted() {
    use fet_netsim::{HostileExporter, HostileExporterConfig};
    use netseer::{WireConfig, WireIngest};

    let mut exporter = HostileExporter::new(HostileExporterConfig {
        seed: seed(0x3117),
        hostility: 0.5,
        corruption: CorruptionSpec {
            flip_per_byte: 2e-3,
            truncate_prob: 0.05,
            duplicate_prob: 0.02,
        },
        ..HostileExporterConfig::default()
    });
    let mut collector = Collector::with_config(CollectorConfig {
        memory_watermark: 32,
        max_spill_bytes: 8 * 1024,
        spill_segment_bytes: 1024,
        ..CollectorConfig::default()
    });
    // A subscriber that never drains: the watermark binds, the storm
    // spills, and the small byte budget forces real shed.
    collector.subscribe();
    let mut wire = WireIngest::new(WireConfig::default());

    let mut sent = 0u64;
    for tick in 0..800u64 {
        let now = tick * 10 * MICROS;
        if let Some(datagram) = exporter.emit() {
            sent += 1;
            wire.ingest_datagram(&mut collector, &datagram, now);
        }
        if tick % 128 == 0 {
            wire.sweep_templates(now);
        }
    }
    assert!(sent > 0 && exporter.attacks > 0, "the storm must mix honest and hostile traffic");

    // The template cache survived the floods inside its configured bounds.
    let cache = wire.session().cache();
    assert!(cache.max_domain_len() <= cache.config().max_templates);
    assert!(cache.domain_count() <= cache.config().max_domains);

    // Every datagram got exactly one disposition; every fatal reject is
    // counted under exactly one reason and offered to quarantine.
    let stats = wire.session().stats();
    assert_eq!(stats.datagrams, sent);
    assert_eq!(stats.accepted + stats.rejected, sent);
    assert_eq!(wire.rejects_by_reason().iter().sum::<u64>(), wire.rejected_datagrams());
    assert!(wire.rejected_datagrams() > 0, "hostility 0.5 must produce fatal rejects");
    assert!(
        wire.rejects_by_reason().iter().filter(|&&c| c > 0).count() >= 3,
        "the attack mix must exercise several reject reasons: {:?}",
        wire.rejects_by_reason()
    );
    assert_eq!(collector.poison_seen, wire.rejected_datagrams());
    assert!(!collector.quarantine().is_empty());
    assert!(collector.quarantine().iter().all(|p| p.reason.starts_with("wire:")));

    // The extended identity holds exactly, with every term engaged.
    let ledger = wire.ledger(&collector);
    ledger.assert_balanced();
    assert!(ledger.malformed > 0, "count lies and missing templates must book malformed");
    assert!(ledger.buffered > 0, "the watermark must divert the storm into the spill");
    assert!(ledger.shed_cpu_overload > 0, "the exhausted spill budget must refuse");
    assert_eq!(
        ledger.generated,
        ledger.delivered + ledger.shed_cpu_overload + ledger.buffered + ledger.malformed,
        "extended identity must hold exactly: {ledger:?}"
    );

    // Upstream datagram drops surface as sequence gaps. (No ceiling check
    // here: byte corruption can also mangle sequence numbers, so under a
    // storm the gap signal is an estimate, not ground truth — the
    // corruption-free ceiling is pinned by the exporter's own tests.)
    assert!(exporter.dropped_upstream > 0, "drop_prob must eat datagrams");
    let detected: u64 = wire.upstream_losses().iter().map(|l| l.lost).sum();
    assert!(detected > 0, "sequence gaps must surface the upstream loss");
}

/// Scenario 18 — a fleet-wide clock storm: every device's clock takes a
/// seeded offset, drift, and periodic steps while global time stays the
/// ordering authority. The contract:
///
/// * the storm changes event *stamps* and nothing else — the same seed
///   with clocks disabled generates the identical event set;
/// * the watchdog records real skew but raises zero incidents (liveness
///   is counter-primary, so wrong clocks can never look like death);
/// * event-time analytics with a lateness bound covering the fleet's
///   worst skew converge exactly to the zero-skew arrival-time reference,
///   with zero late shed; a deliberately tight bound sheds late events
///   *with account* — the extended identity holds either way;
/// * the wire edge under exporter clock lies keeps its own extended
///   identity exact, with every lie booked and every stamp clamped.
#[test]
fn clock_storm_converges_within_watermark_bounds() {
    use fet_analytics::{link_map_from_sim, AnalyticsConfig, AnalyticsEngine, LinkMap};
    use fet_netsim::{HostileExporter, HostileExporterConfig};
    use netseer::faults::ClockSpec;
    use netseer::{WireConfig, WireIngest};
    use std::collections::BTreeMap;

    const HORIZON: u64 = 30 * MILLIS;
    let spec = ClockSpec {
        offset_ns: 200 * MICROS,
        drift_ppm: 500,
        step_every_ns: 5 * MILLIS,
        step_ns: 50 * MICROS,
        ..ClockSpec::none()
    };

    let run = |clock: ClockSpec| {
        let faults = FaultPlan { seed: seed(0xC10C), clock, ..FaultPlan::default() };
        let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
        drive_lossy_fabric(&mut sim, &ft, 0.02);
        let switches = sim.switch_ids();
        // A tolerance below the storm's skew: drift gets *flagged*, and
        // flagging must be the only consequence.
        let wd_cfg = WatchdogConfig {
            check_interval_ns: 500 * MICROS,
            missed_beats: 2,
            restart_delay_ns: 200 * MICROS,
            drift_tolerance_ns: 100 * MICROS,
        };
        let log = schedule_watchdog(&mut sim, &switches, wd_cfg, HORIZON);
        sim.run_until(HORIZON);
        let ledger = fleet_ledger(&sim);
        let history = delivered_history(&sim);
        let links = link_map_from_sim(&sim);
        (ledger, history, links, log)
    };

    let (ledger, history, links, log) = run(spec);
    let (ref_ledger, ref_history, _, ref_log) = run(ClockSpec::none());

    // Zero watchdog false positives under the storm — but the skew was
    // really there and really seen.
    assert!(log.incidents().is_empty(), "clock skew must never read as death");
    assert!(ref_log.incidents().is_empty());
    assert!(log.max_abs_skew_ns() > 0, "the watchdog must observe the storm's skew");
    assert!(log.drift_flagged() > 0, "skew above the tolerance must be flagged");
    assert_eq!(ref_log.max_abs_skew_ns(), 0, "identity clocks have zero skew");

    // The storm perturbs stamps only: identical ledgers, identical event
    // identities, different times.
    assert!(ledger.generated > 0 && ledger.delivered > 0);
    assert_eq!(ledger, ref_ledger, "clock faults must not change what happens, only when-stamps");
    assert_eq!(history.len(), ref_history.len());
    let key = |e: &netseer::StoredEvent| (e.device, e.epoch, e.seq);
    let ids: std::collections::BTreeSet<_> = history.iter().map(key).collect();
    let ref_ids: std::collections::BTreeSet<_> = ref_history.iter().map(key).collect();
    assert_eq!(ids, ref_ids, "the delivered event set must be identical");
    assert!(
        history.iter().zip(ref_history.iter()).any(|(a, b)| a.time_ns != b.time_ns),
        "the storm must actually skew some stamps"
    );

    // Reconstruct true arrival order from the reference run (identity
    // clocks: stamp == global time), then feed the skewed history in that
    // order — genuinely out-of-order event-time input.
    let arrival: BTreeMap<(u32, u32, u64), u64> =
        ref_history.iter().map(|e| (key(e), e.time_ns)).collect();
    let mut storm_feed = history.clone();
    storm_feed.sort_by_key(|e| (arrival[&key(e)], e.device, e.seq));
    assert!(
        storm_feed.windows(2).any(|w| w[0].time_ns > w[1].time_ns),
        "arrival order must invert some skewed stamps (else the buffer is untested)"
    );

    let engine_over = |events: &[netseer::StoredEvent], cfg: AnalyticsConfig, links: LinkMap| {
        let mut collector = Collector::new();
        let mut engine = AnalyticsEngine::new(cfg, links);
        engine.attach(&mut collector);
        collector.ingest(events);
        engine.poll(&mut collector);
        engine.flush();
        engine
    };

    // Generous bound (covers any two stamps' relative skew): exact
    // convergence to the arrival-time reference, nothing late.
    let bound = 2 * spec.max_abs_skew_ns(HORIZON) + 10 * MICROS;
    let event_time = AnalyticsConfig {
        lateness_bound_ns: bound,
        reorder_cap: 8192,
        ..AnalyticsConfig::default()
    };
    let storm_engine = engine_over(&storm_feed, event_time, links.clone());
    let reference = engine_over(&ref_history, AnalyticsConfig::default(), links.clone());
    let sl = storm_engine.ledger();
    sl.assert_balanced();
    assert_eq!(sl.late_shed, 0, "a bound covering the worst skew sheds nothing");
    assert_eq!(sl.pending_reorder, 0, "flush must drain the reorder buffers");
    assert_eq!(sl.ingested, reference.ledger().ingested);
    assert_eq!(
        storm_engine.totals(),
        reference.totals(),
        "event-time analytics must converge to the zero-skew reference"
    );

    // Tight bound: deep-late events are shed — visibly, under
    // `late_shed`, with the analytics identity still exact.
    let tight = AnalyticsConfig {
        lateness_bound_ns: 10 * MICROS,
        reorder_cap: 64,
        ..AnalyticsConfig::default()
    };
    let tight_engine = engine_over(&storm_feed, tight, links);
    let tl = tight_engine.ledger();
    tl.assert_balanced();
    assert!(tl.late_shed > 0, "a 10 µs bound under ~0.5 ms skew must shed late events");
    assert_eq!(tl.ingested, sl.ingested, "shedding is accounted, never silent");

    // The wire edge under the same storm's exporter clock lies: every
    // datagram disposed exactly once, every lie booked, stamps clamped,
    // and the extended wire identity exact.
    let mut exporter = HostileExporter::new(HostileExporterConfig {
        seed: seed(0xC10C),
        hostility: 0.2,
        clock_hostility: 0.3,
        corruption: CorruptionSpec { flip_per_byte: 1e-3, ..CorruptionSpec::none() },
        ..HostileExporterConfig::default()
    });
    let mut collector = Collector::new();
    let mut wire = WireIngest::new(WireConfig::default());
    let mut last_now = 0;
    for tick in 0..800u64 {
        last_now = tick * 10 * MICROS;
        if let Some(dg) = exporter.emit() {
            wire.ingest_datagram(&mut collector, &dg, last_now);
        }
    }
    assert!(exporter.clock_attacks > 0 && exporter.attacks > 0);
    let stats = wire.session().stats();
    assert_eq!(stats.accepted + stats.rejected, stats.datagrams);
    assert!(wire.clock_lies().iter().sum::<u64>() > 0, "clock lies must be booked");
    assert!(wire.clamped_stamps() > 0, "implausible stamps must clamp");
    // No stored stamp may outrun the collector's clock: lies were clamped.
    let newest = collector.store().events().iter().map(|e| e.time_ns).max().unwrap_or(0);
    assert!(newest <= last_now + 2_000_000_000, "stored stamps must stay near receive time");
    wire.ledger(&collector).assert_balanced();
}

/// Scenario 18b — drift does not mask death: with the same clock storm
/// running, a genuinely wedged monitor must still be caught (liveness is
/// the heartbeat *counter*, not the heartbeat *clock*), and only the
/// wedged one.
#[test]
fn wedged_monitor_is_still_caught_under_clock_drift() {
    use netseer::faults::ClockSpec;

    let spec = ClockSpec {
        offset_ns: 300 * MICROS,
        drift_ppm: 800,
        freeze_prob: 0.25,
        freeze_after_ns: 5 * MILLIS,
        ..ClockSpec::none()
    };
    let faults = FaultPlan { seed: seed(0xD1F7), clock: spec, ..FaultPlan::default() };
    let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
    drive_lossy_fabric(&mut sim, &ft, 0.02);
    let switches = sim.switch_ids();
    let victim = switches[1];
    schedule_wedge(&mut sim, victim, 3 * MILLIS);
    let wd_cfg = WatchdogConfig {
        check_interval_ns: 500 * MICROS,
        missed_beats: 2,
        restart_delay_ns: 200 * MICROS,
        ..WatchdogConfig::default()
    };
    let log = schedule_watchdog(&mut sim, &switches, wd_cfg, 30 * MILLIS);
    sim.run_until(30 * MILLIS);

    let incidents = log.incidents();
    assert_eq!(incidents.len(), 1, "exactly the wedged monitor: {incidents:?}");
    assert_eq!(incidents[0].device, victim);
    assert_eq!(log.restarts().len(), 1);
    assert!(!monitor_of(&sim, victim).is_wedged(), "the restart must un-wedge");
    assert!(log.max_abs_skew_ns() > 0, "the storm's skew must be visible alongside the catch");
    assert_eq!(fleet_ledger(&sim).missing(), 0);
}

/// Property: `ClockSpec::default()` plus a zero event-time config is
/// byte-identical to the pre-existing arrival-time pipeline — across a
/// seed sweep, the clock layer and the watermark machinery are exact
/// no-ops when disabled.
#[test]
fn zero_skew_zero_lateness_is_bit_identical_to_arrival_time() {
    use fet_analytics::{link_map_from_sim, AnalyticsConfig, AnalyticsEngine};
    use netseer::faults::ClockSpec;

    for base in [0xA0u64, 0xA1, 0xA2] {
        let run = |clock: ClockSpec, cfg: AnalyticsConfig| {
            let faults = FaultPlan { seed: seed(base), clock, ..FaultPlan::default() };
            let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
            drive_lossy_fabric(&mut sim, &ft, 0.02);
            sim.run_until(12 * MILLIS);
            let history = delivered_history(&sim);
            let mut collector = Collector::new();
            let mut engine = AnalyticsEngine::new(cfg, link_map_from_sim(&sim));
            engine.attach(&mut collector);
            collector.ingest(&history);
            engine.poll(&mut collector);
            engine.flush();
            (history, fleet_ledger(&sim), engine.ledger(), engine.totals(), engine.top_flows(32))
        };
        let a = run(ClockSpec::default(), AnalyticsConfig::default());
        let b = run(ClockSpec::none(), AnalyticsConfig::default());
        assert_eq!(a, b, "seed {base:#x}: the default spec must be the identity");
        // Event-time config at (0, 0) is exact passthrough, so the whole
        // tuple — stamps included — must match byte-for-byte.
        let c = run(
            ClockSpec::none(),
            AnalyticsConfig { lateness_bound_ns: 0, reorder_cap: 0, ..AnalyticsConfig::default() },
        );
        assert_eq!(a, c, "seed {base:#x}: (0,0) event-time must be exact passthrough");
    }
}

/// The reproducibility contract extended to crash-recovery: the same seed
/// reproduces the same crash schedule, the same per-restart loss, and the
/// same final counters — twice.
#[test]
fn same_seed_reproduces_the_same_crashes() {
    let run = |base: u64| {
        let faults = FaultPlan { seed: base, ..FaultPlan::default() };
        let (mut sim, ft) = setup(NetSeerConfig { faults, ..NetSeerConfig::default() });
        drive_lossy_fabric(&mut sim, &ft, 0.02);
        let crashes = crash_schedule(base, &sim, CrashKind::Hard);
        let log = schedule_device_crashes(&mut sim, &crashes);
        sim.run_until(30 * MILLIS);
        let store = collect_events(&mut sim);
        (fleet_ledger(&sim), log.reports(), store.len())
    };
    let a = run(seed(7));
    assert_eq!(a, run(seed(7)), "same seed must reproduce crashes bit-for-bit");
    assert!(a != run(seed(8)), "different seeds should move the crash windows");
}
