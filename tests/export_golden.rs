//! Golden-file and oracle tests for the `fet-export` encoders.
//!
//! The golden files pin the *exact* bytes both encoders emit for a fixed
//! registry — format drift (ordering, escaping, float formatting,
//! histogram ladders) fails loudly instead of silently changing what a
//! real Prometheus or OTel collector would scrape. Regenerate after an
//! intentional format change with:
//! `cargo test --test export_golden regenerate_goldens -- --ignored`
//!
//! The mixed-replay tests use the exporter as its own oracle: the whole
//! ledger is read back out of the rendered Prometheus text and must equal
//! the in-memory one, so a rendering bug that mangled any term fails even
//! when the in-memory ledger balances.

use netseer_repro::fet_analytics::{AnalyticsConfig, AnalyticsEngine, AnalyticsLedger, LinkMap};
use netseer_repro::fet_export::{
    http_get, parse_exposition, render_otel, render_prometheus, run_mixed_replay, scrape_analytics,
    scrape_ledger, validate_json, ExportServer, MetricRegistry, MixedReplayConfig,
    RenderedSnapshot, SnapshotHandle,
};
use netseer_repro::fet_netsim::rng::Pcg32;
use netseer_repro::fet_packet::event::{DropCode, EventDetail, EventRecord, EventType};
use netseer_repro::fet_packet::{FlowKey, Ipv4Addr};
use netseer_repro::netseer::{DeliveryLedger, Ledger, StoredEvent};

const METRICS_GOLDEN: &str = include_str!("golden/export_metrics.golden");
const OTEL_GOLDEN: &str = include_str!("golden/export_otel.golden");
const LEDGER_METRICS_GOLDEN: &str = include_str!("golden/ledger_metrics.golden");
const LEDGER_OTEL_GOLDEN: &str = include_str!("golden/ledger_otel.golden");

/// The fixed registry both goldens render: every metric kind, hostile
/// label values, multiple series per family, and a tripped cardinality
/// cap so the meta families carry non-zero refusal counters.
fn golden_registry() -> MetricRegistry {
    let mut reg = MetricRegistry::new(netseer_repro::fet_export::RegistryConfig {
        max_families: 64,
        max_series_per_family: 3,
    });
    reg.counter_add("fet_events_generated_total", "Events generated.", &[("scope", "fleet")], 42);
    reg.counter_add("fet_events_generated_total", "Events generated.", &[("scope", "wire")], 17);
    // Insertion order deliberately differs from label order; output must
    // not care.
    reg.counter_add(
        "fet_events_shed_total",
        "Events shed at a named choke point.",
        &[("reason", "pcie"), ("scope", "fleet")],
        5,
    );
    reg.counter_add(
        "fet_events_shed_total",
        "Events shed at a named choke point.",
        &[("scope", "fleet"), ("reason", "stack")],
        3,
    );
    // Hostile label values: backslash, quote, newline.
    reg.gauge_set(
        "fet_collector_backlog",
        "Backlog with a \"quoted\" help string\nand a newline.",
        &[("path", "C:\\spool\"dir\"\nline2")],
        7.5,
    );
    reg.histogram_observe(
        "fet_sla_breach_duration_ns",
        "Breach durations.",
        &[1e6, 2e6, 4e6],
        &[("device", "3")],
        1.5e6,
    );
    reg.histogram_observe(
        "fet_sla_breach_duration_ns",
        "Breach durations.",
        &[1e6, 2e6, 4e6],
        &[("device", "3")],
        9e6,
    );
    // Trip the per-family cap (3): the 4th distinct series is refused
    // and counted, never stored.
    for i in 0..5u32 {
        let v = i.to_string();
        reg.counter_add("fet_capped_total", "Cap demo.", &[("i", v.as_str())], 1);
    }
    reg
}

/// A balanced delivery ledger whose every term holds a distinct value
/// (`k` shifts the whole set, so two scopes never share a value).
fn distinct_ledger(k: u64) -> DeliveryLedger {
    let mut l = DeliveryLedger::default();
    for (i, v) in l.values_mut().enumerate().skip(2) {
        *v = k + i as u64 - 1;
    }
    l.delivered = 1000 * k;
    l.generated = l.surplus();
    l
}

/// An event-time analytics engine driven by a seeded out-of-order stream
/// into tiny key/sketch budgets, left unflushed: every analytics ledger
/// term ends up non-zero and distinct.
fn distinct_analytics_engine() -> AnalyticsEngine {
    let cfg = AnalyticsConfig {
        shards: 1,
        max_agg_keys: 3,
        topk_k: 4,
        lateness_bound_ns: 2_000,
        reorder_cap: 8,
        ..AnalyticsConfig::default()
    };
    let mut engine = AnalyticsEngine::new(cfg, LinkMap::default());
    let mut rng = Pcg32::new(0x1ED6E5, 7);
    for i in 0..400u64 {
        let ty = EventType::from_code(1 + rng.next_below(6) as u8).unwrap();
        let detail = if ty.is_drop() {
            EventDetail::Drop { ingress_port: 0, egress_port: 1, code: DropCode::LinkLoss }
        } else {
            EventDetail::Pause { egress_port: 0, queue: 0 }
        };
        let n = rng.next_below(12);
        let flow = FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, n as u8]),
            1000 + n as u16,
            Ipv4Addr::from_octets([10, 1, 0, 1]),
            80,
        );
        let jitter = u64::from(rng.next_below(6_000));
        engine.process(&StoredEvent {
            time_ns: (i * 1_000).saturating_sub(jitter),
            device: rng.next_below(4),
            epoch: 0,
            seq: i,
            record: EventRecord { ty, flow, detail, counter: 1, hash: n },
        });
    }
    engine
}

/// The ledger scrape surface: two delivery-ledger scopes plus the
/// analytics engine's scrape, each term carrying a distinct value.
fn ledger_registry() -> MetricRegistry {
    let mut reg = MetricRegistry::default();
    scrape_ledger(&mut reg, "fleet", &distinct_ledger(1));
    scrape_ledger(&mut reg, "wire", &distinct_ledger(20));
    scrape_analytics(&mut reg, &distinct_analytics_engine(), 4);
    reg
}

const GOLDEN_START_NS: u64 = 0;
const GOLDEN_NOW_NS: u64 = 12_000_000;

#[test]
fn prometheus_text_matches_golden() {
    let got = render_prometheus(&golden_registry());
    assert!(parse_exposition(&got).is_some(), "golden output must parse as Prometheus text v0.0.4");
    assert_eq!(
        got, METRICS_GOLDEN,
        "Prometheus rendering drifted from tests/golden/export_metrics.golden; \
         regenerate with `cargo test --test export_golden regenerate_goldens -- --ignored` \
         if the change is intentional"
    );
}

#[test]
fn otel_json_matches_golden() {
    let got = render_otel(&golden_registry(), GOLDEN_START_NS, GOLDEN_NOW_NS);
    assert!(validate_json(&got), "golden output must be valid JSON");
    assert_eq!(
        got, OTEL_GOLDEN,
        "OTel rendering drifted from tests/golden/export_otel.golden; \
         regenerate with `cargo test --test export_golden regenerate_goldens -- --ignored` \
         if the change is intentional"
    );
}

#[test]
fn ledger_scrape_matches_golden() {
    let l = distinct_analytics_engine().ledger();
    let mut terms: Vec<u64> = l.values().collect();
    terms.sort_unstable();
    assert!(terms[0] > 0, "every analytics term must be exercised: {l:?}");
    assert!(terms.windows(2).all(|w| w[0] < w[1]), "analytics terms must be distinct: {l:?}");
    let reg = ledger_registry();
    assert_eq!(
        render_prometheus(&reg),
        LEDGER_METRICS_GOLDEN,
        "ledger scrape drifted from tests/golden/ledger_metrics.golden"
    );
    assert_eq!(
        render_otel(&reg, GOLDEN_START_NS, GOLDEN_NOW_NS),
        LEDGER_OTEL_GOLDEN,
        "ledger scrape drifted from tests/golden/ledger_otel.golden"
    );
}

/// `(balanced, missing, surplus)` for a source and a written-out sum.
fn identity(source: u64, disposed: u64) -> (bool, u64, u64) {
    (source == disposed, source.saturating_sub(disposed), disposed.saturating_sub(source))
}

/// `l` itself, then `l` with each term in turn bumped by one.
fn bumped<L: Ledger>(l: L) -> impl Iterator<Item = L> {
    (0..=L::TERMS.len()).map(move |i| {
        let mut p = l;
        if let Some(v) = p.values_mut().nth(i) {
            *v += 1;
        }
        p
    })
}

/// Every term of both ledgers, each holding a distinct value, survives
/// every operation generated from the term list — a term left out of
/// any generated loop fails here, not in a chaos run.
#[test]
fn every_ledger_term_survives_merge_scrape_and_parse_back() {
    let analytics = distinct_analytics_engine().ledger();

    let mut twice = distinct_ledger(1);
    twice.absorb(&distinct_ledger(1));
    assert!(twice.values().zip(distinct_ledger(1).values()).all(|(a, b)| a == 2 * b));
    let mut twice = analytics;
    twice.absorb(&analytics);
    assert!(twice.values().zip(analytics.values()).all(|(a, b)| a == 2 * b));

    let doc = parse_exposition(&render_prometheus(&ledger_registry())).unwrap();
    assert_eq!(doc.ledger(&[("scope", "fleet")]), Some(distinct_ledger(1)));
    assert_eq!(doc.ledger(&[("scope", "wire")]), Some(distinct_ledger(20)));
    assert_eq!(doc.ledger::<AnalyticsLedger>(&[]), Some(analytics));

    // The generated identity agrees with the sums written out here.
    for l in bumped(distinct_ledger(1)) {
        let disposed = l.delivered
            + l.shed_total()
            + l.pending
            + l.buffered
            + l.lost_to_crash
            + l.corrupted
            + l.malformed;
        assert_eq!((l.balanced(), l.missing(), l.surplus()), identity(l.generated, disposed));
    }
    for l in bumped(analytics) {
        let disposed =
            l.aggregated + l.sketch_absorbed + l.shed_analytics + l.late_shed + l.pending_reorder;
        assert_eq!((l.balanced(), l.missing(), l.surplus()), identity(l.ingested, disposed));
    }
    let l = distinct_ledger(1);
    assert_eq!(
        l.shed_total(),
        l.shed_stack + l.shed_pcie + l.shed_cpu_overload + l.shed_false_positive + l.shed_transport
    );
    for (t, v) in l.terms() {
        assert!(l.to_string().contains(&format!("{v} {}", t.field)), "Display misses {t:?}");
    }
}

/// Rewrites every golden file from the current encoders. Run manually.
#[test]
#[ignore = "writes into the source tree; run manually after intentional format changes"]
fn regenerate_goldens() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    for (reg, name) in [(golden_registry(), "export"), (ledger_registry(), "ledger")] {
        std::fs::write(format!("{dir}/{name}_metrics.golden"), render_prometheus(&reg)).unwrap();
        std::fs::write(
            format!("{dir}/{name}_otel.golden"),
            render_otel(&reg, GOLDEN_START_NS, GOLDEN_NOW_NS),
        )
        .unwrap();
    }
}

#[test]
fn cardinality_cap_refuses_and_counts_in_the_output() {
    let doc = parse_exposition(&render_prometheus(&golden_registry())).unwrap();
    // Only 3 of 5 attempted series exist; the 2 refusals are visible in
    // the export's own meta metric — capped output is never silent.
    let kept: Vec<_> = doc.samples.iter().filter(|s| s.name == "fet_capped_total").collect();
    assert_eq!(kept.len(), 3, "cap must hold");
    assert_eq!(doc.value("fet_export_series_rejected_total", &[]), Some(2.0));
}

#[test]
fn hostile_labels_roundtrip_through_the_text_format() {
    let doc = parse_exposition(&render_prometheus(&golden_registry()))
        .expect("escaped output must still parse");
    assert_eq!(
        doc.value("fet_collector_backlog", &[("path", "C:\\spool\"dir\"\nline2")]),
        Some(7.5),
        "escaping must be lossless through render -> parse"
    );
}

#[test]
fn mixed_replay_identity_holds_via_the_prometheus_oracle() {
    let report = run_mixed_replay(&MixedReplayConfig::default());
    let doc = parse_exposition(&report.snapshot.prometheus)
        .expect("replay snapshot must parse as Prometheus text");
    assert!(validate_json(&report.snapshot.otel), "replay OTel snapshot must be valid JSON");
    let merged: DeliveryLedger =
        doc.ledger(&[("scope", "merged")]).expect("scraped output must carry every ledger term");
    assert_eq!(merged, report.merged, "the ledger read back from the text must be the real one");
    merged.assert_balanced();
    // Both halves really contributed.
    assert!(report.fleet.generated > 0 && report.wire.generated > 0);
}

#[test]
fn scrape_server_serves_the_published_snapshot_verbatim() {
    let report = run_mixed_replay(&MixedReplayConfig::default());
    let handle = SnapshotHandle::new();
    handle.publish(report.snapshot.clone());
    let server = ExportServer::bind(handle.clone()).expect("bind");
    let metrics = http_get(server.addr(), "/metrics").expect("scrape /metrics");
    let otel = http_get(server.addr(), "/otel").expect("scrape /otel");
    assert_eq!(metrics, report.snapshot.prometheus, "served bytes == published bytes");
    assert_eq!(otel, report.snapshot.otel);
    // Re-publishing swaps atomically; the next scrape sees the new body.
    let mut reg = MetricRegistry::default();
    reg.counter_add("fet_after_total", "After.", &[], 1);
    handle.publish(RenderedSnapshot::render(&reg, 0, 1));
    let after = http_get(server.addr(), "/metrics").expect("scrape again");
    assert!(after.contains("fet_after_total 1"));
    server.stop();
}
