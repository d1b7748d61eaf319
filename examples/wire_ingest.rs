//! Wire-ingestion demo: untrusted NetFlow/IPFIX datagrams — honest,
//! hostile, and corrupted — flow through the collector's normal admission
//! path, end to end.
//!
//! What this exercises:
//!
//! * a seeded hostile exporter speaks NetFlow v5, v9, and IPFIX while
//!   mixing in template floods, count/length lies, data-before-template,
//!   reserved sets, raw garbage, and upstream datagram drops, with byte
//!   corruption layered on every frame;
//! * the panic-free parsers decode what they can and book what they
//!   cannot: undecodable records land in the ledger's `malformed` term,
//!   datagram-fatal rejects are quarantined verbatim with a per-reason
//!   count, and the bounded template cache shrugs off the floods;
//! * decoded records become 24-byte FET events and ride the memory →
//!   spill → shed admission ladder like any switch delivery, so the
//!   delivery-ledger identity holds exactly at any instant;
//! * NetFlow sequence gaps surface upstream loss the exporter never got
//!   to send — bounded by what was actually dropped.
//!
//! Run with: `cargo run --release --example wire_ingest`

use netseer_repro::fet_netsim::{HostileExporter, HostileExporterConfig};
use netseer_repro::fet_wire::ALL_REASONS;
use netseer_repro::netseer::{Collector, CollectorConfig, CorruptionSpec, WireConfig, WireIngest};

const TICKS: u64 = 4_000;
const TICK_NS: u64 = 10_000;

fn main() {
    println!("=== NetSeer wire ingestion: hostile exporters on the collector socket ===\n");

    // A hostile exporter: 8 honest observation domains, a 40% chance per
    // tick of an attack datagram instead, 5% upstream datagram loss, and
    // byte corruption on every emitted frame.
    let mut exporter = HostileExporter::new(HostileExporterConfig {
        seed: 0x31BE,
        hostility: 0.4,
        corruption: CorruptionSpec {
            flip_per_byte: 1e-3,
            truncate_prob: 0.05,
            duplicate_prob: 0.02,
        },
        ..HostileExporterConfig::default()
    });

    // A collector under pressure: tight memory watermark, small spill
    // budget, and a subscriber that drains only every 1024 ticks — so the
    // storm genuinely exercises memory, spill, and shed between drains.
    let mut collector = Collector::with_config(CollectorConfig {
        memory_watermark: 256,
        max_spill_bytes: 64 * 1024,
        spill_segment_bytes: 8 * 1024,
        ..CollectorConfig::default()
    });
    let sub = collector.subscribe();
    let mut wire = WireIngest::new(WireConfig::default());

    let mut sent = 0u64;
    let mut drained = 0usize;
    let mut mid_storm: Option<netseer_repro::netseer::DeliveryLedger> = None;
    for tick in 0..TICKS {
        let now = tick * TICK_NS;
        if let Some(datagram) = exporter.emit() {
            sent += 1;
            wire.ingest_datagram(&mut collector, &datagram, now);
        }
        if tick % 1024 == 1023 {
            // Snapshot the identity at peak pressure, *before* draining:
            // events are parked on disk (`buffered`) and the exhausted
            // spill budget has refused some (`shed`) — still balanced.
            if mid_storm.is_none() {
                mid_storm = Some(wire.ledger(&collector));
            }
            drained += collector.drain_ordered(sub).len();
            while collector.pump_spill() > 0 {
                drained += collector.drain_ordered(sub).len();
            }
            wire.sweep_templates(now);
        }
    }
    drained += collector.drain_ordered(sub).len();
    while collector.pump_spill() > 0 {
        drained += collector.drain_ordered(sub).len();
    }

    println!("--- storm ---");
    println!("  datagrams sent:        {sent}");
    println!("  attack datagrams:      {}", exporter.attacks);
    println!("  dropped upstream:      {}", exporter.dropped_upstream);
    println!("  corrupted in flight:   {}", exporter.corrupted);

    let stats = wire.session().stats();
    println!("\n--- parser session ---");
    println!("  accepted:              {}", stats.accepted);
    println!("  rejected:              {}", stats.rejected);
    println!("  records decoded:       {}", stats.decoded);
    println!("  records malformed:     {}", stats.malformed);

    println!("\n--- quarantine (fatal rejects, by reason) ---");
    for reason in ALL_REASONS {
        let n = wire.rejects_by_reason()[reason.index()];
        if n > 0 {
            println!("  {:<18} {n}", reason.as_str());
        }
    }
    println!("  frames retained:       {}", collector.quarantine().len());
    assert_eq!(collector.poison_seen, wire.rejected_datagrams());

    let cache = wire.session().cache();
    println!("\n--- template cache (flood-proof) ---");
    println!(
        "  domains: {} / {}   busiest domain: {} / {} templates",
        cache.domain_count(),
        cache.config().max_domains,
        cache.max_domain_len(),
        cache.config().max_templates
    );
    println!(
        "  installed: {}  refreshed: {}  evicted(LRU): {}  rejected: {}",
        cache.stats().installed,
        cache.stats().refreshed,
        cache.stats().evicted_lru,
        cache.stats().rejected
    );
    assert!(cache.max_domain_len() <= cache.config().max_templates);

    println!("\n--- upstream loss (sequence gaps) ---");
    let losses = wire.upstream_losses();
    let detected: u64 = losses.iter().map(|l| l.lost).sum();
    let gaps: u64 = losses.iter().map(|l| l.gaps).sum();
    println!("  streams tracked:       {}", losses.len());
    println!("  gap events:            {gaps}");
    println!("  detected loss estimate: {detected} records");
    println!("  ground truth:           {} datagrams dropped upstream", exporter.dropped_upstream);
    println!(
        "  (byte corruption also mangles sequence numbers, so under a storm the\n   \
         estimate is a noisy signal; on a clean wire it is bounded by the truth)"
    );

    // Mid-storm, with the subscriber stalled: events parked on disk and a
    // spill budget running dry — the identity still balances exactly.
    let peak = mid_storm.expect("storm long enough to hit the first drain");
    peak.assert_balanced();
    println!("\n--- ledger identity at peak pressure (subscriber stalled) ---");
    println!("  {peak}  ✓");

    let ledger = wire.ledger(&collector);
    ledger.assert_balanced();
    println!("\n--- ledger identity after the final drain ---");
    print!("{ledger:#}");
    println!("  identity: {ledger}  ✓");
    println!("\n  events drained by the subscriber: {drained}");
    println!("  events in the store:              {}", collector.len());

    println!("\n=== wire storm absorbed: bounded, accounted, panic-free ===");
}
