//! Seeded property loops for invariants that must hold on every input:
//!
//! * every `EventStore` query path (flow, device, window, scan) returns
//!   exactly what a naive scan returns — also after `truncate(k)`, the
//!   collector's hard-kill revert, and after re-growing the store;
//! * the analytics ledger balances under arbitrarily tiny key and sketch
//!   budgets, with and without the event-time front end, and never sheds
//!   an interesting (loss/congestion) event.
//!
//! No external property-testing dependency: the in-tree `Pcg32` draws
//! each case, and a failure names the case so it replays exactly.
//! `CHAOS_SEED` diversifies the cases per CI matrix leg.

use fet_analytics::{AnalyticsConfig, AnalyticsEngine, LinkMap};
use fet_netsim::rng::Pcg32;
use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType};
use fet_packet::{FlowKey, Ipv4Addr};
use netseer::{EventStore, Query, StoredEvent};

const CASES: u64 = 256;

/// Case diversification for the CI seed matrix.
fn seed(base: u64) -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => base ^ s.trim().parse::<u64>().unwrap_or(0).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        Err(_) => base,
    }
}

fn flow(n: u32) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from_u32(0x0a00_0000 | n),
        (n % 60_000) as u16,
        Ipv4Addr::from_octets([10, 200, 0, 1]),
        80,
    )
}

/// One event; drop types carry a drop detail, the rest a pause detail.
fn ev(t: u64, device: u32, fl: u32, ty: EventType, counter: u16) -> StoredEvent {
    let detail = if ty.is_drop() {
        let code = if fl.is_multiple_of(2) { DropCode::TableMiss } else { DropCode::LinkLoss };
        EventDetail::Drop { ingress_port: 0, egress_port: 1, code }
    } else {
        EventDetail::Pause { egress_port: 0, queue: 0 }
    };
    StoredEvent {
        time_ns: t,
        device,
        epoch: 0,
        seq: t,
        record: EventRecord { ty, flow: flow(fl), detail, counter, hash: fl },
    }
}

fn event_type(rng: &mut Pcg32) -> EventType {
    EventType::from_code(1 + rng.next_below(6) as u8).unwrap()
}

/// A query with each filter present at even odds.
fn random_query(rng: &mut Pcg32) -> Query {
    let mut q = Query::any();
    if rng.chance(0.5) {
        q = q.flow(flow(rng.next_below(8)));
    }
    if rng.chance(0.5) {
        q = q.device(rng.next_below(4));
    }
    if rng.chance(0.5) {
        q = q.ty(event_type(rng));
    }
    if rng.chance(0.5) {
        let from = u64::from(rng.next_below(500));
        q = q.window(from, from + u64::from(rng.next_below(600)));
    }
    q
}

fn naive<'a>(events: &'a [StoredEvent], q: &Query) -> Vec<&'a StoredEvent> {
    events
        .iter()
        .filter(|e| q.flow.is_none_or(|f| e.record.flow == f))
        .filter(|e| q.device.is_none_or(|d| e.device == d))
        .filter(|e| q.ty.is_none_or(|t| e.record.ty == t))
        .filter(|e| q.window.is_none_or(|(a, b)| e.time_ns >= a && e.time_ns < b))
        .collect()
}

fn assert_queries_match(store: &EventStore, events: &[StoredEvent], rng: &mut Pcg32, case: u64) {
    assert_eq!(store.events(), events, "case {case}: stored events");
    for _ in 0..16 {
        let q = random_query(rng);
        assert_eq!(store.query(&q), naive(events, &q), "case {case}: {q:?}");
    }
}

#[test]
fn store_queries_match_a_naive_scan_across_truncate() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(seed(0x5702E), case);
        let n = rng.next_below(100) as usize;
        let all: Vec<StoredEvent> = (0..n)
            .map(|_| {
                let t = u64::from(rng.next_below(1_000));
                ev(t, rng.next_below(4), rng.next_below(8), event_type(&mut rng), 1)
            })
            .collect();
        let mut store = EventStore::new();
        store.extend(all.iter().copied());
        assert_queries_match(&store, &all, &mut rng, case);

        // A hard-kill revert keeps exactly the first k events...
        let k = rng.next_below(n as u32 + 1) as usize;
        store.truncate(k);
        assert_queries_match(&store, &all[..k], &mut rng, case);
        // ...and re-ingesting the suffix rebuilds the same store.
        store.extend(all[k..].iter().copied());
        assert_queries_match(&store, &all, &mut rng, case);
    }
}

#[test]
fn analytics_ledger_balances_under_tiny_caps() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(seed(0xA1ED6E), case);
        let n = rng.next_below(300);
        let events: Vec<StoredEvent> = (0..n)
            .map(|_| {
                let t = u64::from(rng.next_below(1_000_000));
                let (device, fl) = (rng.next_below(6), rng.next_below(48));
                ev(t, device, fl, event_type(&mut rng), rng.next_below(5) as u16)
            })
            .collect();
        let event_time = rng.chance(0.5);
        let cfg = AnalyticsConfig {
            shards: 1 + rng.next_below(4) as usize,
            max_agg_keys: 1 + rng.next_below(5) as usize,
            topk_k: 1 + rng.next_below(5) as usize,
            lateness_bound_ns: if event_time { u64::from(rng.next_below(50_000)) } else { 0 },
            reorder_cap: if event_time { rng.next_below(16) as usize } else { 0 },
            ..AnalyticsConfig::default()
        };
        let mut engine = AnalyticsEngine::new(cfg, LinkMap::default());
        engine.ingest_slice(&events);

        let ledger = engine.ledger();
        assert!(ledger.balanced(), "case {case}: {ledger} under {cfg:?}");
        assert_eq!(ledger.ingested, u64::from(n), "case {case}");
        let boring = events
            .iter()
            .filter(|e| !e.record.ty.is_drop() && e.record.ty != EventType::Congestion)
            .count() as u64;
        assert!(
            ledger.shed_analytics <= boring,
            "case {case}: shed {} > boring events {boring}; an interesting event was shed",
            ledger.shed_analytics
        );
        engine.flush();
        let flushed = engine.ledger();
        assert!(flushed.balanced(), "case {case}: {flushed} after flush");
        assert_eq!(flushed.pending_reorder, 0, "case {case}: flush drains the reorder buffers");
    }
}
