//! Analytics pipeline demo: a seeded fleet with one lossy link, analyzed
//! end to end by the streaming engine.
//!
//! What this exercises:
//!
//! * the collector's `subscribe()`/`drain_ordered()` feed: the engine
//!   consumes the exactly-once delivery stream, never the store internals;
//! * cross-device localization: the correlator joins upstream
//!   inter-switch-drop reports with downstream gap scrapes and names the
//!   exact link that was given elevated loss — corroborated by both ends;
//! * Space-Saving top-k: the heaviest victim flows, with per-entry error
//!   bounds (`count - error <= true <= count`);
//! * SLA breach windows per device, and the analytics ledger identity.
//!
//! Run with: `cargo run --release --example analytics_pipeline`

use netseer_repro::fet_analytics::{
    harvest_gap_reports, link_map_from_sim, AnalyticsConfig, AnalyticsEngine, LinkId, SlaPolicy,
};
use netseer_repro::fet_netsim::host::FlowSpec;
use netseer_repro::fet_netsim::routing::install_ecmp_routes;
use netseer_repro::fet_netsim::time::MILLIS;
use netseer_repro::fet_netsim::topology::{build_fat_tree, FatTreeParams};
use netseer_repro::fet_netsim::Simulator;
use netseer_repro::fet_packet::FlowKey;
use netseer_repro::netseer::deploy::{delivered_history, deploy, DeployOptions};
use netseer_repro::netseer::{Collector, CollectorConfig, FaultPlan, NetSeerConfig};

fn main() {
    let seed = 0xA11A_10CA;

    // A seeded fat-tree fleet with NetSeer everywhere.
    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
    install_ecmp_routes(&mut sim);
    let faults = FaultPlan { seed, ..FaultPlan::default() };
    deploy(
        &mut sim,
        &DeployOptions { cfg: NetSeerConfig { faults, ..Default::default() }, on_nics: true },
    );

    // Cross-pod traffic: three flows per source host.
    for s in 0..8usize {
        for rep in 0..3u16 {
            let key =
                FlowKey::tcp(ft.host_ips[s], 2000 + (s as u16) * 8 + rep, ft.host_ips[7 - s], 80);
            let h = ft.hosts[s];
            let idx = sim.host_mut(h).add_flow(FlowSpec {
                key,
                total_bytes: 4_000_000,
                pkt_payload: 1000,
                rate_gbps: 5.0,
                start_ns: 0,
                dscp: 0,
            });
            sim.schedule_flow(h, idx);
        }
    }

    // The fault: ToR 0's uplink port 0 silently drops 5% of its packets.
    let tor = ft.edges[0][0];
    sim.link_direction_mut(tor, 0).unwrap().faults.drop_prob = 0.05;
    let (down, down_port) = sim.peer_of(tor, 0).expect("uplink is wired");
    let guilty = LinkId { up: tor, up_port: 0, down, down_port };
    println!("injected 5% loss on link {guilty}");

    sim.run_until(30 * MILLIS);

    // The production feed: collector ingests deliveries, the engine
    // subscribes and polls; gap scrapes arrive on the side channel.
    // Zero-loss SLA: any dropped packet in a 1 ms window is a breach.
    let cfg = AnalyticsConfig {
        sla: SlaPolicy {
            window_ns: MILLIS,
            max_drops_per_window: 0,
            max_congestion_latency_us: 400,
        },
        ..AnalyticsConfig::default()
    };
    // A deliberately tight memory watermark: the burst of history spills
    // to bounded disk instead of shedding, and polling drains it back.
    let mut collector = Collector::with_config(CollectorConfig {
        memory_watermark: 32,
        ..CollectorConfig::default()
    });
    let mut engine = AnalyticsEngine::new(cfg, link_map_from_sim(&sim));
    engine.attach(&mut collector);
    let deliveries = delivered_history(&sim);
    collector.ingest(&deliveries);
    let buffered_at_peak = collector.buffered();
    let processed = engine.poll(&mut collector);
    engine.ingest_gap_reports(harvest_gap_reports(&sim));
    println!(
        "engine processed {processed} delivered events across {} shards",
        engine.shard_count()
    );
    println!(
        "collector spill: {} events spilled past the watermark, {} buffered at \
         peak, {} applied on drain, {} buffered after ({} segments, {} fsyncs)",
        collector.spilled,
        buffered_at_peak,
        collector.spill_applied,
        collector.buffered(),
        collector.spill().rotations,
        collector.spill().fsyncs
    );
    assert!(collector.spilled > 0, "the tight watermark must engage the spill");
    assert_eq!(collector.buffered(), 0, "polling must drain the spill fully");
    assert_eq!(collector.overflow_refused, 0, "bounded disk absorbs the burst: no shed");

    // Localization: which link is eating packets?
    println!("\nlink verdicts (worst first):");
    for v in engine.localize().iter().take(4) {
        println!(
            "  {} — upstream reports {:>3} (weight {:>4}), downstream gaps {:>3}{}",
            v.link,
            v.upstream_reports,
            v.upstream_weight,
            v.downstream_gaps,
            if v.corroborated { "  [corroborated]" } else { "" }
        );
    }
    let culprit = engine.culprit().expect("a corroborated culprit must exist");
    assert_eq!(culprit.link, guilty, "the engine must localize the injected fault");
    println!("culprit: {} — matches the injected fault", culprit.link);

    // Top-k victim flows with error bounds.
    println!("\ntop victim flows (loss/congestion weight, Space-Saving k=32 per shard):");
    for e in engine.top_flows(8) {
        println!(
            "  {:>15}:{:<5} -> {:>15}:{:<5}  count {:>4} (true weight >= {})",
            e.flow.src,
            e.flow.sport,
            e.flow.dst,
            e.flow.dport,
            e.count,
            e.guaranteed()
        );
    }

    // SLA breach windows.
    let breaches = engine.finish_breaches();
    println!("\nSLA breach windows ({} total, showing up to 5):", breaches.len());
    for b in breaches.iter().take(5) {
        println!(
            "  device {:>2}: [{:>8} ns, {:>8} ns)  drops {:>4}, peak latency {:>3} us",
            b.device, b.from_ns, b.to_ns, b.drops, b.peak_latency_us
        );
    }
    assert!(!breaches.is_empty(), "5% loss must breach the zero-loss SLA");

    // The extended ledger identity, end to end — every spilled event was
    // applied exactly once, so ingested covers the full history and the
    // fleet delivery identity's `buffered` term has drained to zero.
    let ledger = engine.ledger();
    ledger.assert_balanced();
    assert_eq!(ledger.ingested, deliveries.len() as u64);
    println!(
        "\nanalytics ledger: ingested {} == aggregated {} + sketch_absorbed {} + shed {}",
        ledger.ingested, ledger.aggregated, ledger.sketch_absorbed, ledger.shed_analytics
    );
    println!(
        "delivery identity: {} delivered == {} stored + {} buffered (spill drained)",
        deliveries.len(),
        collector.len(),
        collector.buffered()
    );
    println!("pipeline demo passed.");
}
