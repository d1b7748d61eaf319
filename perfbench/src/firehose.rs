//! `telemetry_firehose`: no simulator. A set of NetSeer monitors is driven
//! directly through the hook API with a seeded, Zipf-skewed stream of
//! event packets — pipeline drops with reason codes, congestion-delayed
//! egress, and flows whose path flips — over a flow set larger than the
//! group caches, paced in simulated time below the modeled PCIe and CPU
//! capacity. Their deliveries, plus a hostile NetFlow/IPFIX capture through
//! the untrusted wire path, enter a collector whose watermark forces
//! spilling, while the reader's queries and scrapes run beside the writes.
//! The event path and backend do the work; the packet engine does none.

use crate::alloc::{self, Phase};
use crate::backend::{Backend, Fleet};
use crate::rep::{self, EventKey, Layers, Rep};
use crate::trace::{self, span};
use fet_export::Capture;
use fet_netsim::monitor::{Actions, EgressCtx, IngressCtx, RoutedCtx, SwitchMonitor};
use fet_netsim::time::{MICROS, MILLIS};
use fet_netsim::Pcg32;
use fet_packet::event::{DropCode, EventType};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use fet_pdp::PacketMeta;
use netseer::{NetSeerConfig, NetSeerMonitor, Role};
use std::collections::HashMap;
use std::time::Instant;

/// Monitors (switches) fed by the stream.
const MONITORS: usize = 8;
/// Distinct flows: 16x a group cache's 4096 entries.
const FLOWS: usize = 1 << 16;
/// Zipf exponent of flow popularity.
const ZIPF_S: f64 = 1.1;
/// Packet spacing per monitor, sim ns (2.5 Mpps per switch).
const GAP_NS: u64 = 400;
/// Simulated time of one repetition.
const HORIZON_NS: u64 = 20 * MILLIS;
/// Simulated time between collector feeds.
const SLICE_NS: u64 = 500 * MICROS;
/// Events first raised in the last `GRACE_NS` may still be in flight.
const GRACE_NS: u64 = MILLIS;
/// Hostile exporter emit attempts per repetition.
const WIRE_TICKS: usize = 4000;
/// Undrained collector backlog past which deliveries spill.
const WATERMARK: usize = 512;

const DROP_CODES: [DropCode; 5] = [
    DropCode::TableMiss,
    DropCode::TtlExpired,
    DropCode::MtuExceeded,
    DropCode::PortDown,
    DropCode::ParseError,
];

/// What happens to one packet.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Dropped in the pipeline with this reason.
    Drop(DropCode),
    /// Routed on its usual port; dequeued carrying this queuing delay.
    Congested(u64),
    /// Routed on its alternate port (a path flip) and dequeued promptly.
    Rerouted,
}

#[derive(Debug, Clone, Copy)]
struct Packet {
    t: u64,
    device: usize,
    flow: u32,
    fate: Fate,
}

/// The generated inputs of one repetition.
struct Inputs {
    flows: Vec<FlowKey>,
    frames: Vec<Vec<u8>>,
    packets: Vec<Packet>,
    datagrams: Vec<Vec<u8>>,
    /// First injected occurrence of each event key.
    truth: HashMap<EventKey, u64>,
}

fn flow_key(i: u32) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from_u32(0x0a00_0000 | (i & 0x00ff_ffff)),
        10_000 + (i % 50_000) as u16,
        Ipv4Addr::from_u32(0x0afa_0000 | (i.wrapping_mul(2_654_435_761) & 0xffff)),
        80,
    )
}

fn usual_port(flow: u32) -> u8 {
    1 + (flow % 16) as u8
}

fn generate(seed: u64) -> Inputs {
    let flows: Vec<FlowKey> = (0..FLOWS as u32).map(flow_key).collect();
    let frames =
        flows.iter().map(|f| fet_packet::builder::build_data_packet(f, 64, 0, 0, 64)).collect();
    // Zipf CDF over flow ranks; ranks map to flows through a seeded shuffle
    // so popular flows are spread over the key space.
    let mut cdf = Vec::with_capacity(FLOWS);
    let mut acc = 0.0;
    for r in 1..=FLOWS {
        acc += 1.0 / (r as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let mut rng = Pcg32::new(seed, 0xf12e);
    let mut rank_to_flow: Vec<u32> = (0..FLOWS as u32).collect();
    for i in (1..FLOWS).rev() {
        rank_to_flow.swap(i, rng.next_below(i as u32 + 1) as usize);
    }
    let per_monitor = (HORIZON_NS / GAP_NS) as usize;
    let mut packets = Vec::with_capacity(per_monitor * MONITORS);
    let mut truth: HashMap<EventKey, u64> = HashMap::new();
    let mut first = |k: EventKey, t: u64| {
        truth.entry(k).or_insert(t);
    };
    for i in 0..per_monitor * MONITORS {
        let device = i % MONITORS;
        // Monitors are staggered inside each gap; 1 ns of jitter keeps
        // packet times distinct.
        let t = (i / MONITORS) as u64 * GAP_NS + (device as u64 * GAP_NS) / MONITORS as u64 + 1;
        let u = rng.next_f64() * acc;
        let rank = cdf.partition_point(|&c| c < u).min(FLOWS - 1);
        let flow = rank_to_flow[rank];
        let key = flows[flow as usize];
        let dev = device as u32;
        let fate = match rng.next_below(10) {
            0..=3 => Fate::Drop(DROP_CODES[rng.next_below(DROP_CODES.len() as u32) as usize]),
            4..=6 => Fate::Congested(30 * MICROS + u64::from(rng.next_below(170)) * MICROS),
            _ => Fate::Rerouted,
        };
        match fate {
            Fate::Drop(_) => first((dev, EventType::PipelineDrop, key), t),
            Fate::Congested(_) => {
                first((dev, EventType::PathChange, key), t);
                first((dev, EventType::Congestion, key), t);
            }
            Fate::Rerouted => first((dev, EventType::PathChange, key), t),
        }
        packets.push(Packet { t, device, flow, fate });
    }
    let datagrams = Capture::from_exporter(seed, WIRE_TICKS).datagrams;
    Inputs { flows, frames, packets, datagrams, truth }
}

/// Drive one packet through a monitor's hooks as the switch would. Every
/// hook runs at the packet's time, so each monitor's clock only moves
/// forward; a congested packet's delay rides in its metadata.
fn drive(m: &mut dyn SwitchMonitor, inp: &mut Inputs, p: Packet, out: &mut Actions) {
    let flow = inp.flows[p.flow as usize];
    let frame = &mut inp.frames[p.flow as usize];
    let node = p.device as u32;
    let ictx = IngressCtx { now_ns: p.t, node, port: 0, peer_tagged: false };
    m.on_ingress(&ictx, frame, out);
    let egress_port = match p.fate {
        Fate::Drop(code) => {
            m.on_pipeline_drop(&ictx, frame, Some(flow), code, None, 0, out);
            return;
        }
        Fate::Congested(_) => usual_port(p.flow),
        Fate::Rerouted => usual_port(p.flow) + 16,
    };
    let routed = RoutedCtx {
        now_ns: p.t,
        node,
        ingress_port: 0,
        egress_port,
        queue: 0,
        queue_paused: false,
        flow,
    };
    m.on_routed(&routed, frame, out);
    let delay = match p.fate {
        Fate::Congested(d) => d,
        _ => 1_000,
    };
    let meta = PacketMeta {
        egress_port: Some(egress_port),
        egress_ts_ns: p.t,
        flow: Some(flow),
        ..PacketMeta::arriving(0, p.t.saturating_sub(delay), frame.len())
    };
    let ectx = EgressCtx {
        now_ns: p.t,
        node,
        port: egress_port,
        queue: 0,
        peer_tagged: false,
        meta: &meta,
    };
    m.on_egress(&ectx, frame, out);
}

fn netseer(m: &dyn SwitchMonitor) -> &NetSeerMonitor {
    m.as_any().downcast_ref::<NetSeerMonitor>().expect("NetSeer monitor")
}

fn fleet(monitors: &[Box<dyn SwitchMonitor>]) -> Fleet<'_> {
    Fleet { monitors: monitors.iter().map(|m| netseer(m.as_ref())).collect(), sim: None }
}

/// One repetition: generate the stream, drive it slice by slice through
/// the monitors and the backend, then check and measure.
pub fn rep(seed: u64, traced: bool) -> Result<Rep, String> {
    alloc::reset();
    alloc::enter(Phase::Setup);
    let t0 = Instant::now();
    let (mut inp, mut monitors, mut backend) = span("setup", || {
        let inp = generate(seed);
        let monitors: Vec<Box<dyn SwitchMonitor>> = (0..MONITORS as u32)
            .map(|d| {
                let m = NetSeerMonitor::new(d, Role::Switch, NetSeerConfig::default());
                if traced {
                    Box::new(trace::wrap_direct(m)) as Box<dyn SwitchMonitor>
                } else {
                    Box::new(m)
                }
            })
            .collect();
        (inp, monitors, Backend::new(WATERMARK, true, seed))
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let timer_ns = NetSeerConfig::default().timer_interval_ns;
    let slices = (HORIZON_NS / SLICE_NS) as usize;
    let per_slice_dg = inp.datagrams.len().div_ceil(slices);
    let mut out = Actions::new();
    let mut next_timer = timer_ns;
    let mut next_packet = 0;
    let mut sim_slice_s = Vec::with_capacity(slices);
    let mut step_s = Vec::with_capacity(slices);
    let t1 = Instant::now();
    for s in 0..slices {
        let end = (s as u64 + 1) * SLICE_NS;
        let ts = Instant::now();
        alloc::within(Phase::Sim, || {
            span("sim.slice", || {
                while next_packet < inp.packets.len() && inp.packets[next_packet].t < end {
                    let p = inp.packets[next_packet];
                    while next_timer <= p.t {
                        for m in monitors.iter_mut() {
                            m.on_timer(next_timer, &[], &mut out);
                        }
                        next_timer += timer_ns;
                    }
                    drive(monitors[p.device].as_mut(), &mut inp, p, &mut out);
                    out.emit.clear();
                    out.reports.clear();
                    next_packet += 1;
                }
            })
        });
        sim_slice_s.push(ts.elapsed().as_secs_f64());
        let len = inp.datagrams.len();
        let dgs = (s * per_slice_dg).min(len)..((s + 1) * per_slice_dg).min(len);
        for (i, dg) in inp.datagrams[dgs].iter().enumerate() {
            let at = s as u64 * SLICE_NS + (i as u64 * SLICE_NS) / per_slice_dg as u64;
            backend.ingest_datagram(dg, at);
        }
        backend.after_slice(&fleet(&monitors), end)?;
        step_s.push(ts.elapsed().as_secs_f64());
    }
    let pipeline_s = t1.elapsed().as_secs_f64();
    let run_s: f64 = sim_slice_s.iter().sum();
    alloc::enter(Phase::Setup);
    let peak_heap = alloc::peak();
    let spans = trace::finish_rep();

    let fl = fleet(&monitors);
    backend.check(&fl)?;
    let shed: u64 =
        fl.monitors.iter().map(|m| m.cpu.shed_overload + m.cpu.pcie_rejected_events).sum();
    if shed > 0 {
        return Err(format!("firehose premise: {shed} events shed by the CPU or PCIe"));
    }
    if backend.collector.spilled == 0 {
        return Err("firehose premise: the collector never spilled".into());
    }
    let rejected = backend.wire.as_ref().map_or(0, |w| w.rejected_datagrams());
    if rejected == 0 {
        return Err("firehose premise: no wire datagram was rejected".into());
    }
    let (latencies_ns, coverage, truth_keys) = rep::latency_and_coverage(
        &inp.truth,
        backend.collector.store().events(),
        HORIZON_NS - GRACE_NS,
    );
    let (attempted, failed) = backend.attempted_failed(&fl)?;
    let pkts: u64 = fl.monitors.iter().map(|m| m.stats.packets_seen).sum();

    let mut l = Layers::default();
    l.set("netsim.run.wall_s", run_s);
    l.set("netsim.pkts", pkts as f64);
    rep::event_path_layers(&fl, &backend, HORIZON_NS, &mut l);
    rep::ledger_layers(&backend.merged_ledger(&fl)?, attempted, failed, &mut l);
    if traced {
        let mut hooks = trace::HookStats::default();
        for m in &monitors {
            hooks.merge(trace::timed_stats(m.as_ref()));
        }
        rep::hook_layers(&hooks, &mut l);
        let hook_s = l.0["monitor.total_s"];
        l.set("netsim.engine.self_s", run_s - hook_s);
        l.set("monitor.sim_share", hook_s / run_s);
        rep::span_layers(&spans, &backend, &mut l);
    }
    let events = backend.rendered_events;
    let fingerprint = rep::fingerprint(&fl);
    let queries = std::mem::take(&mut backend.queries);
    let scrapes = std::mem::take(&mut backend.scrapes);
    drop(fl);
    drop(monitors);
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
