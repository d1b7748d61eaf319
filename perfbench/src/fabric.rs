//! The two fabric workloads: a 4-pod fat-tree (36 switches, 64 hosts) with
//! NetSeer on every switch and NIC, run in fixed slices of simulated time,
//! each slice followed by [`Backend::after_slice`].
//!
//! * `fabric_steady` — DCTCP flows at moderate load with rare link loss,
//!   serial engine. The packet engine and the monitors' fast path do
//!   nearly all the work; the event path and backend sit idle.
//! * `fabric_storm` — WEB short flows (many keys), three incasts into a
//!   small shared buffer, lossy ToR uplinks, a blackholed destination that
//!   receives traffic, a two-step reroute and management-channel loss, on
//!   the parallel engine with two shards.

use crate::alloc::{self, Phase};
use crate::backend::{Backend, Fleet};
use crate::rep::{self, Layers, Rep};
use crate::trace::{self, span};
use fet_netsim::host::FlowSpec;
use fet_netsim::routing::{install_ecmp_routes, override_route, remove_route};
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::topology::{build_fat_tree, FatTree, FatTreeParams};
use fet_netsim::{Pcg32, Simulator};
use fet_packet::event::{EventType, ALL_EVENT_TYPES};
use fet_packet::FlowKey;
use fet_workloads::distributions::{FlowSizeDist, DCTCP, WEB};
use fet_workloads::generator::generate_incast;
use netseer::deploy::{deploy, DeployOptions};
use netseer::{FaultPlan, LossProcess, NetSeerConfig};
use std::time::Instant;

/// Which fabric workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Storm,
}

/// Simulated time between collector feeds.
const SLICE_NS: u64 = 125 * MICROS;
/// Simulated time of one repetition.
const HORIZON_NS: u64 = 4 * MILLIS;
/// Ground-truth events first seen in the last `GRACE_NS` may still be in
/// flight at the horizon and are left out of coverage and latency.
const GRACE_NS: u64 = 500 * MICROS;
/// Worker threads of the parallel engine: every workload fits in two cores.
const SHARDS: usize = 2;
/// Undrained collector backlog past which deliveries spill.
const WATERMARK: usize = 4096;
/// Flows per repetition: DCTCP flows at moderate load for the steady
/// fabric, many short WEB flows for the storm.
const STEADY_FLOWS: u32 = 300;
const STORM_FLOWS: u32 = 4000;
/// When the storm's faults begin.
const FAULT_NS: u64 = MILLIS;

fn params(seed: u64) -> FatTreeParams {
    FatTreeParams {
        pods: 4,
        edge_per_pod: 4,
        agg_per_pod: 4,
        cores: 4,
        hosts_per_edge: 4,
        prop_ns: 2 * MICROS,
        seed,
        ..FatTreeParams::default()
    }
}

/// The ToR a host hangs off.
fn tor_of(ft: &FatTree, host: usize) -> fet_netsim::NodeId {
    let per_pod = ft.hosts.len() / ft.params_pods;
    let per_edge = per_pod / ft.edges[0].len();
    ft.edges[host / per_pod][(host % per_pod) / per_edge]
}

/// Build the fabric, deploy NetSeer and schedule the workload's traffic
/// and faults; every random choice is drawn from `seed`.
pub fn build(kind: Kind, seed: u64) -> Simulator {
    let mut p = params(seed);
    if kind == Kind::Storm {
        // A testbed-sized shared buffer, so incasts overflow it.
        p.switch_config.mmu.total_bytes = 256 * 1024;
    }
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &p);
    assert_eq!((ft.all_switches().len(), ft.hosts.len()), (36, 64), "fabric shape");
    install_ecmp_routes(&mut sim);
    let faults = match kind {
        Kind::Steady => FaultPlan { seed, ..FaultPlan::default() },
        Kind::Storm => FaultPlan {
            seed,
            mgmt_loss: LossProcess::Bernoulli { p: 0.05 },
            ..FaultPlan::default()
        },
    };
    deploy(
        &mut sim,
        &DeployOptions { cfg: NetSeerConfig { faults, ..NetSeerConfig::default() }, on_nics: true },
    );
    let uplinks = ft.aggs[0].len() as u8;
    match kind {
        Kind::Steady => {
            cross_pod_traffic(&mut sim, &ft, seed, &DCTCP, STEADY_FLOWS);
            // Rare loss on every ToR uplink.
            for pod in &ft.edges {
                for &tor in pod {
                    for port in 0..uplinks {
                        sim.link_direction_mut(tor, port).expect("uplink").faults.drop_prob = 1e-4;
                    }
                }
            }
        }
        Kind::Storm => storm_traffic(&mut sim, &ft, seed, uplinks),
    }
    sim
}

/// `flows` flows of `dist`, each from a random host to a random host in
/// another pod, so every packet crosses the same five switches whichever
/// hosts the seed picks. Sizes and start times are stratified — flow `i`
/// draws its size from the `i`-th of `flows` equal slices of the
/// distribution and its start from a slice of the horizon chosen by a
/// fixed stride — so every seed offers the same size mix and load shape,
/// and the seed moves endpoints and jitter. Plain sampling lets a few
/// large flows, and when they start, swing the packet count between seeds.
fn cross_pod_traffic(
    sim: &mut Simulator,
    ft: &FatTree,
    seed: u64,
    dist: &FlowSizeDist,
    flows: u32,
) {
    let mut rng = Pcg32::new(seed, 0x57ea);
    let n = ft.hosts.len() as u32;
    let per_pod = ft.hosts.len() / ft.params_pods;
    // A golden-ratio stride coprime with `flows` permutes the start slots
    // and puts neighbouring size strata far apart in time.
    let mut stride = (f64::from(flows) * 0.618) as u32;
    while gcd(stride, flows) != 1 {
        stride += 1;
    }
    for i in 0..flows {
        let src = rng.next_below(n) as usize;
        let dst = (src + per_pod + rng.next_below(n - per_pod as u32) as usize) % n as usize;
        let bytes = dist.quantile((f64::from(i) + rng.next_f64()) / f64::from(flows)).max(1.0);
        let slot = (i * stride) % flows;
        let start = (f64::from(slot) + rng.next_f64()) / f64::from(flows) * HORIZON_NS as f64;
        let key =
            FlowKey::tcp(ft.host_ips[src], 10_000 + (i % 50_000) as u16, ft.host_ips[dst], 80);
        add_flow(sim, ft.hosts[src], key, bytes as u64, 5.0, start as u64);
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn storm_traffic(sim: &mut Simulator, ft: &FatTree, seed: u64, uplinks: u8) {
    cross_pod_traffic(sim, ft, seed, &WEB, STORM_FLOWS);
    let n = ft.hosts.len();
    let mut rng = Pcg32::new(seed, 0x5707);
    // Three incasts of 16 senders each.
    for k in 0..3u64 {
        let dst = rng.next_below(n as u32) as usize;
        let sources: Vec<usize> = (1..=16).map(|i| (dst + i * 3) % n).collect();
        generate_incast(sim, ft, dst, &sources, 400_000, FAULT_NS + k * 800 * MICROS);
    }
    // Lossy uplinks on one ToR per pod.
    for pod in &ft.edges {
        let tor = pod[rng.next_below(pod.len() as u32) as usize];
        for port in 0..uplinks {
            sim.link_direction_mut(tor, port).expect("uplink").faults.drop_prob = 0.005;
        }
    }
    // Blackhole a destination at its own ToR, after giving it senders so
    // the missing route actually drops traffic.
    let victim = rng.next_below(n as u32) as usize;
    for i in 1..=4usize {
        let src = (victim + i * 9) % n;
        let key = FlowKey::tcp(ft.host_ips[src], 50_000 + i as u16, ft.host_ips[victim], 8080);
        add_flow(sim, ft.hosts[src], key, 2_000_000, 2.0, 0);
    }
    let tor = tor_of(ft, victim);
    let vip = ft.host_ips[victim];
    sim.schedule_control(FAULT_NS, move |s| remove_route(s, tor, vip));
    // A long flow crossing pods, rerouted in two steps so its ECMP choice
    // changes mid-flight whatever it hashed to.
    let src = rng.next_below(n as u32) as usize;
    let dst = (src + n / 2) % n;
    let key = FlowKey::tcp(ft.host_ips[src], 61_000, ft.host_ips[dst], 443);
    add_flow(sim, ft.hosts[src], key, 40_000_000, 4.0, 0);
    let tor = tor_of(ft, src);
    let dip = ft.host_ips[dst];
    sim.schedule_control(FAULT_NS, move |s| override_route(s, tor, dip, vec![0]));
    sim.schedule_control(FAULT_NS + MILLIS, move |s| override_route(s, tor, dip, vec![1]));
}

fn add_flow(
    sim: &mut Simulator,
    host: fet_netsim::NodeId,
    key: FlowKey,
    bytes: u64,
    gbps: f64,
    start_ns: u64,
) {
    let idx = sim.host_mut(host).add_flow(FlowSpec {
        key,
        total_bytes: bytes,
        pkt_payload: 1000,
        rate_gbps: gbps,
        start_ns,
        dscp: 0,
    });
    sim.schedule_flow(host, idx);
}

fn run_slice(kind: Kind, sim: &mut Simulator, until_ns: u64, parallel: bool) {
    if kind == Kind::Storm && parallel {
        sim.run_until_parallel(until_ns, SHARDS);
    } else {
        sim.run_until(until_ns);
    }
}

/// Fingerprint of a serial run of the storm: the parallel executor must
/// deliver exactly the same events.
pub fn serial_fingerprint(kind: Kind, seed: u64) -> u64 {
    let mut sim = build(kind, seed);
    let mut now = 0;
    while now < HORIZON_NS {
        now += SLICE_NS;
        run_slice(kind, &mut sim, now, false);
    }
    rep::fingerprint(&Fleet::of_sim(&sim))
}

/// The workload's own premise: a run that no longer exercises the layer
/// it was chosen for fails instead of reporting numbers.
fn premise(kind: Kind, sim: &Simulator, fleet: &Fleet<'_>) -> Result<(), String> {
    let gt = &sim.gt;
    match kind {
        Kind::Steady => {
            let switches: Vec<_> =
                fleet.monitors.iter().filter(|m| m.role == netseer::Role::Switch).collect();
            let pkts: u64 = switches.iter().map(|m| m.stats.packets_seen).sum();
            let events: u64 = switches.iter().map(|m| m.stats.event_packets).sum();
            if events as f64 >= 0.05 * pkts as f64 {
                return Err(format!("steady premise: {events} event packets of {pkts}"));
            }
            for ty in [EventType::PipelineDrop, EventType::MmuDrop] {
                if gt.count(ty) > 0 {
                    return Err(format!("steady premise: {} ground-truth {ty}", gt.count(ty)));
                }
            }
        }
        Kind::Storm => {
            for ty in [
                EventType::PipelineDrop,
                EventType::MmuDrop,
                EventType::Congestion,
                EventType::PathChange,
                EventType::InterSwitchDrop,
            ] {
                if gt.count(ty) == 0 {
                    return Err(format!("storm premise: no ground-truth {ty}"));
                }
            }
        }
    }
    Ok(())
}

/// One repetition: set up, run every slice through the pipeline, then
/// check the outputs and gather the metrics.
pub fn rep(kind: Kind, seed: u64, traced: bool) -> Result<Rep, String> {
    alloc::reset();
    alloc::enter(Phase::Setup);
    let t0 = Instant::now();
    let (mut sim, mut backend) = span("setup", || {
        let mut sim = build(kind, seed);
        if traced {
            trace::wrap_monitors(&mut sim);
        }
        (sim, Backend::new(WATERMARK, false, seed))
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut sim_slice_s = Vec::new();
    let mut step_s = Vec::new();
    let mut now = 0;
    while now < HORIZON_NS {
        now += SLICE_NS;
        let ts = Instant::now();
        alloc::within(Phase::Sim, || span("sim.slice", || run_slice(kind, &mut sim, now, true)));
        sim_slice_s.push(ts.elapsed().as_secs_f64());
        backend.after_slice(&Fleet::of_sim(&sim), now)?;
        step_s.push(ts.elapsed().as_secs_f64());
    }
    let pipeline_s = t1.elapsed().as_secs_f64();
    let run_s: f64 = sim_slice_s.iter().sum();
    alloc::enter(Phase::Setup);
    let peak_heap = alloc::peak();
    let spans = trace::finish_rep();

    let fleet = Fleet::of_sim(&sim);
    backend.check(&fleet)?;
    premise(kind, &sim, &fleet)?;
    let truth = rep::first_times(
        sim.gt.events().iter().filter_map(|e| e.flow.map(|f| ((e.device, e.ty, f), e.time_ns))),
    );
    let (latencies_ns, coverage, truth_keys) = rep::latency_and_coverage(
        &truth,
        backend.collector.store().events(),
        HORIZON_NS - GRACE_NS,
    );
    let (attempted, failed) = backend.attempted_failed(&fleet)?;
    let switches = fleet.monitors.iter().filter(|m| m.role == netseer::Role::Switch);
    let pkts: u64 = switches.map(|m| m.stats.packets_seen).sum();

    let mut l = Layers::default();
    l.set("netsim.run.wall_s", run_s);
    l.set("netsim.pkts", pkts as f64);
    for ty in ALL_EVENT_TYPES {
        l.set(&format!("netsim.gt.{}", gt_name(ty)), sim.gt.count(ty) as f64);
    }
    let sync = sim.sync_stats();
    l.set("netsim.parallel.segments", sync.segments as f64);
    l.set("netsim.parallel.epochs", sync.epochs_executed as f64);
    l.set("netsim.parallel.epochs_batched", sync.epochs_batched as f64);
    l.set("netsim.parallel.ring_messages", sync.ring_messages as f64);
    l.set("netsim.parallel.ring_stalls", sync.ring_stalls as f64);
    rep::event_path_layers(&fleet, &backend, HORIZON_NS, &mut l);
    rep::ledger_layers(&backend.merged_ledger(&fleet)?, attempted, failed, &mut l);
    if traced {
        let hooks = trace::hook_stats(&sim);
        rep::hook_layers(&hooks, &mut l);
        let threads = if kind == Kind::Storm { SHARDS as f64 } else { 1.0 };
        // The hooks of both shards run side by side: on the parallel
        // engine, hook time is shared over the worker threads.
        let hook_s = l.0["monitor.total_s"] / threads;
        l.set("netsim.engine.self_s", run_s - hook_s);
        l.set("monitor.sim_share", hook_s / run_s);
        rep::span_layers(&spans, &backend, &mut l);
    }
    let events = backend.rendered_events;
    let fingerprint = rep::fingerprint(&fleet);
    let queries = std::mem::take(&mut backend.queries);
    let scrapes = std::mem::take(&mut backend.scrapes);
    drop(fleet);
    drop(sim);
    let collector = backend.collector;
    let stored = collector.len().max(1) as f64;
    let before = alloc::live();
    drop(collector);
    l.set("collector.bytes_per_event", before.saturating_sub(alloc::live()) as f64 / stored);

    Ok(Rep {
        setup_s,
        pipeline_s,
        sim_slice_s,
        step_s,
        pkts,
        events,
        latencies_ns,
        coverage,
        truth_keys,
        attempted,
        failed,
        queries,
        scrapes,
        peak_heap,
        fingerprint,
        layers: l,
    })
}

/// Metric-name form of an event type.
pub fn gt_name(ty: EventType) -> &'static str {
    match ty {
        EventType::PipelineDrop => "pipeline_drop",
        EventType::MmuDrop => "mmu_drop",
        EventType::InterSwitchDrop => "inter_switch_drop",
        EventType::Congestion => "congestion",
        EventType::PathChange => "path_change",
        EventType::Pause => "pause",
    }
}
