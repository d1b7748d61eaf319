//! Chaos drill: run NetSeer through a compound failure — bursty loss on
//! the management network, a hard partition that heals, lost loss-
//! notification copies, a switch-CPU overload window, and byte corruption
//! on the reporting path — all from one seeded [`FaultPlan`], and audit
//! the delivery ledger afterwards.
//!
//! The contract under test: every generated event is delivered, shed at a
//! named choke point, still pending, or counted as corrupted-beyond-
//! retransmit. Nothing disappears silently, and the same seed reproduces
//! the same run bit-for-bit.
//!
//! Run with: `cargo run --release --example chaos_drill`

use netseer_repro::fet_netsim::host::FlowSpec;
use netseer_repro::fet_netsim::routing::install_ecmp_routes;
use netseer_repro::fet_netsim::time::{MICROS, MILLIS};
use netseer_repro::fet_netsim::topology::{build_fat_tree, FatTreeParams};
use netseer_repro::fet_netsim::Simulator;
use netseer_repro::fet_packet::FlowKey;
use netseer_repro::netseer::deploy::{
    deploy, fleet_ledger, fleet_stats, netseer_monitors, DeployOptions,
};
use netseer_repro::netseer::faults::OverloadWindow;
use netseer_repro::netseer::{
    CorruptionSpec, DeliveryLedger, FaultPlan, LossProcess, NetSeerConfig, Window,
};

fn run(seed: u64) -> DeliveryLedger {
    let faults = FaultPlan {
        seed,
        // The mgmt network flaps in bursts (Gilbert–Elliott)...
        mgmt_loss: LossProcess::GilbertElliott {
            p_enter_bad: 0.1,
            p_exit_bad: 0.2,
            loss_good: 0.02,
            loss_bad: 0.9,
        },
        // ...and is hard-partitioned for the first 2 ms.
        mgmt_partitions: vec![Window { start_ns: 0, end_ns: 2 * MILLIS }],
        // Each redundant loss-notification copy dies with p = 0.3.
        notification_loss: LossProcess::Bernoulli { p: 0.3 },
        // The switch CPU is three-and-a-half decimal orders slower for
        // 5 ms mid-run (event cores stolen by other control-plane work).
        cpu_overload: vec![OverloadWindow {
            window: Window { start_ns: 3 * MILLIS, end_ns: 8 * MILLIS },
            factor: 5_000.0,
        }],
        // Every CEBP report and loss notification takes byte damage at
        // 1e-3/byte; CRC trailers catch it and the transport retries.
        cebp_corruption: CorruptionSpec::bit_flips(1e-3),
        notification_corruption: CorruptionSpec::bit_flips(1e-3),
        ..FaultPlan::default()
    };
    let cfg = NetSeerConfig {
        faults,
        cpu_max_backlog_ns: 500 * MICROS,
        // Worst case for the reporting path: no in-pipeline aggregation, so
        // every dropped packet becomes its own record (an event storm).
        enable_dedup: false,
        ..NetSeerConfig::default()
    };

    let mut sim = Simulator::new();
    let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
    install_ecmp_routes(&mut sim);
    deploy(&mut sim, &DeployOptions { cfg, on_nics: true });

    // Cross-pod traffic over lossy uplinks: a steady stream of real events.
    for s in 0..8 {
        let key = FlowKey::tcp(ft.host_ips[s], 2000 + s as u16, ft.host_ips[7 - s], 80);
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
    for pod in 0..2 {
        let tor = ft.edges[pod][0];
        for port in 0..2 {
            sim.link_direction_mut(tor, port).unwrap().faults.drop_prob = 0.03;
        }
    }
    sim.run_until(30 * MILLIS);

    // Audit: sum the per-device ledgers; each must balance on its own.
    let total = fleet_ledger(&sim);
    let stats = fleet_stats(&sim);
    let notif_rejected: u64 = netseer_monitors(&sim).map(|m| m.notifications_crc_rejected).sum();
    println!("seed {seed:#x}:");
    print!("{total:#}");
    println!("  transport retransmits   {}", stats.retransmissions);
    println!("  notification copies eaten {}", stats.notification_copies_dropped);
    println!("  CEBP CRC failures (implicit NACKs) {}", stats.crc_failures);
    println!("  notification copies CRC-rejected   {notif_rejected}");
    println!("  => identity: {total} (silently lost: {})", total.missing());
    total
}

fn main() {
    let a = run(0xC0FFEE);
    assert_eq!(a.missing(), 0, "zero silent loss");
    // Reproducibility: the same seed gives the identical ledger.
    let b = run(0xC0FFEE);
    assert_eq!(a, b, "same seed, same chaos, same ledger");
    println!("\nsame seed reproduced the identical ledger — drill passed.");
}
