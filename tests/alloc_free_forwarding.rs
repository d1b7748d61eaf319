//! The zero-allocation forwarding contract (`DESIGN.md` §11.3): once
//! warmed, a switch with NetSeer attached forwards a packet —
//! `handle_arrival` (ingress hook, ACL, TTL, LPM, ECMP hash, ground-truth
//! path record, routed hook, MMU admission) then `dequeue` (egress hook
//! with sequence tagging) — without touching the heap.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one test: a second test running on a parallel thread would pollute the
//! count.

use fet_bench::counting_alloc::{allocations, CountingAlloc};
use fet_netsim::switchdev::{SwitchConfig, SwitchDevice};
use fet_netsim::GroundTruth;
use fet_packet::builder::build_data_packet;
use fet_packet::{FlowKey, Ipv4Addr};
use netseer::{NetSeerConfig, NetSeerMonitor, Role};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const INGRESS: u8 = 1;
const ECMP_PORTS: [u8; 4] = [2, 3, 4, 5];

#[test]
fn warmed_switch_forwards_without_allocating() {
    let mut sw = SwitchDevice::new(0, "sw0", SwitchConfig::default());
    // 64 host routes, as a fabric ToR carries, all over one ECMP set.
    for host in 0..64 {
        sw.routes.insert(Ipv4Addr::from_octets([10, 0, 1, host]), 32, ECMP_PORTS.to_vec());
    }
    for p in ECMP_PORTS {
        sw.tag_ports[usize::from(p)] = true; // egress inserts sequence tags
    }
    sw.set_monitor(Box::new(NetSeerMonitor::new(0, Role::Switch, NetSeerConfig::default())));

    let templates: Vec<Vec<u8>> = (0..8u8)
        .map(|i| {
            let f = FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, i]),
                5_000 + u16::from(i),
                Ipv4Addr::from_octets([10, 0, 1, 7 * i]),
                80,
            );
            build_data_packet(&f, 1000, 0, 0, 64)
        })
        .collect();
    let mut gt = GroundTruth::new();
    // One recycled buffer; the spare room absorbs the 6-byte tag.
    let mut frame = Vec::with_capacity(templates[0].len() + 64);
    let mut used = [0u64; 256];
    let mut forward = |sw: &mut SwitchDevice, gt: &mut GroundTruth, n: u64, t0: u64| {
        for i in 0..n {
            let now = t0 + i * 1_000;
            let mut buf = std::mem::take(&mut frame);
            buf.clear();
            buf.extend_from_slice(&templates[i as usize % templates.len()]);
            let fx = sw.handle_arrival(now, INGRESS, buf, false, gt);
            let mut kicked = fx.kick_ports.iter();
            let port = kicked.next().expect("packet was enqueued");
            assert_eq!(kicked.next(), None, "one packet kicks one port");
            let out = sw.dequeue(now, port, gt).expect("frame dequeued");
            assert!(out.effects.kick_ports.is_empty() && out.effects.pfc_frames.is_empty());
            used[usize::from(port)] += 1;
            frame = out.frame;
        }
    };

    // Warm-up: first-touch allocations (ground-truth and path-table
    // entries for each flow, the taggers, queue buffers, the one-time
    // path-change events) are expected and excluded.
    forward(&mut sw, &mut gt, 10_000, 0);
    let gt_before = gt.events().len();

    const PKTS: u64 = 100_000;
    let before = allocations();
    forward(&mut sw, &mut gt, PKTS, 1_000_000_000);
    let allocs = allocations() - before;

    assert_eq!(allocs, 0, "{allocs} allocations over {PKTS} forwarded packets");
    assert_eq!(gt.events().len(), gt_before, "steady state must raise no ground-truth events");
    let tx: u64 = ECMP_PORTS.iter().map(|&p| sw.counters[usize::from(p)].tx_pkts).sum();
    assert_eq!(tx, 10_000 + PKTS, "every packet forwarded");
    assert!(ECMP_PORTS.iter().filter(|&&p| used[usize::from(p)] > 0).count() > 1, "ECMP spreads");
}
