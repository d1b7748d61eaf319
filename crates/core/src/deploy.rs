//! Fleet deployment helpers: attach NetSeer to every switch (and
//! optionally every NIC) of a simulated network, mark which ports carry
//! sequence tags, and gather delivered events into a queryable store.

use crate::config::NetSeerConfig;
use crate::monitor::{NetSeerMonitor, Role};
use crate::storage::EventStore;
use fet_netsim::engine::{Node, NodeId, Simulator};

/// Deployment options.
#[derive(Debug, Clone)]
pub struct DeployOptions {
    /// The NetSeer configuration cloned into every device.
    pub cfg: NetSeerConfig,
    /// Also deploy on host NICs (inter-switch module on edge links).
    pub on_nics: bool,
}

impl Default for DeployOptions {
    fn default() -> Self {
        DeployOptions { cfg: NetSeerConfig::default(), on_nics: true }
    }
}

/// Attach NetSeer monitors across the network. Ports whose peer also runs
/// a monitor are marked `tag_ports` so sequence tagging activates there.
pub fn deploy(sim: &mut Simulator, opts: &DeployOptions) {
    let switches = sim.switch_ids();
    let hosts = sim.host_ids();
    for &s in &switches {
        let m = NetSeerMonitor::new(s, Role::Switch, opts.cfg.clone());
        sim.switch_mut(s).set_monitor(Box::new(m));
    }
    if opts.on_nics {
        for &h in &hosts {
            let mut cfg = opts.cfg.clone();
            // NICs only need the inter-switch module.
            cfg.enable_dedup = true;
            let m = NetSeerMonitor::new(h, Role::Nic, cfg);
            sim.host_mut(h).monitor = Some(Box::new(m));
        }
    }
    // Mark tagged ports: every switch port whose peer is a switch, or a
    // host when NIC deployment is on.
    let adj = sim.adjacency();
    let is_switch = |n: NodeId| matches!(sim.nodes[n as usize], Node::Switch(_));
    let tags: Vec<(NodeId, u8)> = switches
        .iter()
        .flat_map(|&s| {
            adj.get(&s)
                .into_iter()
                .flatten()
                .filter(|&&(_, peer)| is_switch(peer) || opts.on_nics)
                .map(move |&(port, _)| (s, port))
                .collect::<Vec<_>>()
        })
        .collect();
    for (s, port) in tags {
        sim.switch_mut(s).tag_ports[usize::from(port)] = true;
    }
}

/// Pull every delivered event from every monitor into one indexed store.
/// Call after the simulation run.
pub fn collect_events(sim: &mut Simulator) -> EventStore {
    let mut store = EventStore::new();
    store.extend(delivered_history(sim));
    store
}

/// Every attached NetSeer monitor, in node order.
pub fn netseer_monitors(sim: &Simulator) -> impl Iterator<Item = &NetSeerMonitor> {
    sim.nodes.iter().filter_map(|node| {
        let m = match node {
            Node::Switch(s) => s.monitor.as_ref(),
            Node::Host(h) => h.monitor.as_ref(),
            Node::Vacant => None,
        };
        m?.as_any().downcast_ref::<NetSeerMonitor>()
    })
}

/// Every monitor's delivered history, read-only (no monitor mutation, so
/// callable mid-run): the at-least-once replay source the analytics layer
/// reconciles from after a collector crash.
pub fn delivered_history(sim: &Simulator) -> Vec<crate::storage::StoredEvent> {
    netseer_monitors(sim).flat_map(|ns| ns.delivered.iter().copied()).collect()
}

/// Scrape every monitor's per-port gap-detector counts:
/// `(device, ingress port, gaps)`, sorted. The downstream half of the
/// analytics correlator's link-loss join.
pub fn gap_reports(sim: &Simulator) -> Vec<(u32, u8, u64)> {
    let mut out: Vec<(u32, u8, u64)> = netseer_monitors(sim)
        .flat_map(|ns| {
            ns.gap_counts().into_iter().map(move |(port, gaps)| (ns.device(), port, gaps))
        })
        .filter(|&(_, _, gaps)| gaps > 0)
        .collect();
    out.sort_unstable();
    out
}

/// Borrow the NetSeer monitor on a switch (panics if absent/not NetSeer).
pub fn monitor_of(sim: &Simulator, id: NodeId) -> &NetSeerMonitor {
    let m = match &sim.nodes[id as usize] {
        Node::Switch(s) => s.monitor.as_ref(),
        Node::Host(h) => h.monitor.as_ref(),
        Node::Vacant => None,
    };
    m.expect("monitor attached").as_any().downcast_ref::<NetSeerMonitor>().expect("NetSeer monitor")
}

/// Mutably borrow the NetSeer monitor on a node (panics if absent/not
/// NetSeer). Control-plane pokes that reach a live monitor from outside
/// the packet path go through here — e.g. relaying the collector's
/// backpressure level, which a real deployment piggybacks on ACKs.
pub fn monitor_of_mut(sim: &mut Simulator, id: NodeId) -> &mut NetSeerMonitor {
    let m = match &mut sim.nodes[id as usize] {
        Node::Switch(s) => s.monitor.as_mut(),
        Node::Host(h) => h.monitor.as_mut(),
        Node::Vacant => None,
    };
    m.expect("monitor attached")
        .as_any_mut()
        .downcast_mut::<NetSeerMonitor>()
        .expect("NetSeer monitor")
}

/// Sum every attached monitor's delivery ledger into one fleet ledger.
/// Each per-monitor ledger is asserted balanced on the way, so the sum
/// is too — the fleet-wide conservation identity the exporters publish.
pub fn fleet_ledger(sim: &Simulator) -> crate::DeliveryLedger {
    let mut total = crate::DeliveryLedger::default();
    for ns in netseer_monitors(sim) {
        let l = ns.ledger();
        l.assert_balanced();
        total.absorb(&l);
    }
    total
}

/// Fleet-wide reliability counters aggregated across every monitor —
/// the scrape surface the observability exporters publish alongside the
/// ledger (see `fet-export`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// CEBP report batches that failed their CRC-32C trailer (implicit
    /// NACKs), fleet-wide.
    pub crc_failures: u64,
    /// WAL records rejected by torn-tail replay across all restarts.
    pub wal_records_rejected: u64,
    /// Partial CEBP flushes held back by backpressure-widened strides.
    pub flushes_skipped: u64,
    /// Transport retransmissions.
    pub retransmissions: u64,
    /// Loss-notification copies dropped by the fault plan.
    pub notification_copies_dropped: u64,
    /// Monitor restarts (clean and hard) completed.
    pub restarts: u64,
}

/// Aggregate [`FleetStats`] across every attached monitor.
pub fn fleet_stats(sim: &Simulator) -> FleetStats {
    let mut total = FleetStats::default();
    for ns in netseer_monitors(sim) {
        total.crc_failures += ns.cebp_crc_failures;
        total.wal_records_rejected += ns.recovery.wal_records_rejected;
        total.flushes_skipped += ns.batcher.flushes_skipped;
        total.retransmissions += ns.transport.retransmissions;
        total.notification_copies_dropped += ns.notification_copies_dropped;
        total.restarts += ns.recovery.restarts;
    }
    total
}

/// Aggregate per-step stats across all switch monitors (for Figure 13).
pub fn aggregate_stats(sim: &Simulator) -> crate::monitor::StepStats {
    let mut agg = crate::monitor::StepStats::default();
    for id in sim.switch_ids() {
        if sim.switch(id).monitor.is_some() {
            let m = monitor_of(sim, id);
            agg.packets_seen += m.stats.packets_seen;
            agg.packets_bytes += m.stats.packets_bytes;
            agg.event_packets += m.stats.event_packets;
            agg.event_packet_bytes += m.stats.event_packet_bytes;
            agg.final_reports += m.stats.final_reports;
            agg.final_bytes += m.stats.final_bytes;
        }
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_netsim::routing::install_ecmp_routes;
    use fet_netsim::topology::{build_fat_tree, FatTreeParams};

    #[test]
    fn deploy_marks_fabric_and_edge_ports() {
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
        install_ecmp_routes(&mut sim);
        deploy(&mut sim, &DeployOptions::default());
        // Every switch has a monitor.
        for &s in &ft.all_switches() {
            assert!(sim.switch(s).monitor.is_some());
        }
        for &h in &ft.hosts {
            assert!(sim.host(h).monitor.is_some());
        }
        // ToR ports toward aggs and hosts are tagged.
        let tor = ft.edges[0][0];
        assert!(sim.switch(tor).tag_ports.iter().filter(|&&b| b).count() >= 4);
    }

    #[test]
    fn deploy_without_nics_leaves_edge_untagged() {
        let mut sim = Simulator::new();
        let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
        deploy(&mut sim, &DeployOptions { on_nics: false, ..Default::default() });
        for &h in &ft.hosts {
            assert!(sim.host(h).monitor.is_none());
        }
        let tor = ft.edges[0][0];
        // Only the two agg-facing ports are tagged.
        assert_eq!(sim.switch(tor).tag_ports.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn collect_events_empty_before_traffic() {
        let mut sim = Simulator::new();
        build_fat_tree(&mut sim, &FatTreeParams::default());
        deploy(&mut sim, &DeployOptions::default());
        let store = collect_events(&mut sim);
        assert!(store.is_empty());
    }
}
