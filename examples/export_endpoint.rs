//! Export endpoint demo: run the mixed sim/real replay (a faulted fleet
//! plus captured hostile NetFlow bytes), publish the scrape snapshot,
//! serve it on `/metrics` and `/otel`, then scrape *ourselves* over a
//! plain `std::net::TcpStream`, read the merged ledger back out of the
//! scraped text, and check it equals the in-memory ledger and balances —
//! the exporter as its own oracle.
//!
//! Run with: `cargo run --release --example export_endpoint`

use netseer_repro::fet_export::{
    http_get, parse_exposition, run_mixed_replay, validate_json, ExportServer, MixedReplayConfig,
    SnapshotHandle,
};
use netseer_repro::netseer::DeliveryLedger;

fn main() {
    println!("=== fet-export: scrape endpoint over a mixed sim/real replay ===\n");

    let report = run_mixed_replay(&MixedReplayConfig::default());
    println!("--- replay ---");
    println!("  fleet events generated:  {}", report.fleet.generated);
    println!("  wire records generated:  {}", report.wire.generated);
    println!("  analytics processed:     {}", report.processed);

    let handle = SnapshotHandle::new();
    handle.publish(report.snapshot.clone());
    let server = ExportServer::bind(handle).expect("bind 127.0.0.1:0");
    println!("\nserving on http://{}/metrics and /otel", server.addr());

    // Curl ourselves over a raw TcpStream.
    let body = http_get(server.addr(), "/metrics").expect("self-scrape");
    let doc = parse_exposition(&body).expect("served body must parse as Prometheus text");
    let otel = http_get(server.addr(), "/otel").expect("self-scrape otel");
    assert!(validate_json(&otel), "served OTel body must be valid JSON");
    server.stop();

    let merged: DeliveryLedger =
        doc.ledger(&[("scope", "merged")]).expect("scraped output must carry every ledger term");
    println!("\n--- conservation identity, read back off the wire ---");
    print!("{merged:#}");
    assert_eq!(merged, report.merged, "the scraped ledger must equal the in-memory one");
    merged.assert_balanced();
    println!("  identity: {merged}  ✓");
    println!("\n  scraped {} samples across {} families", doc.samples.len(), doc.types.len());
    println!("\n=== scrape served, parsed, and balanced — endpoint demo passed ===");
}
