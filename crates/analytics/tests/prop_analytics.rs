// Gated: requires the external `proptest` crate (offline builds cannot
// fetch it). Re-add the dev-dependency and build with `--features proptest`.
#![cfg(feature = "proptest")]

//! Property tests for the streaming analytics engine:
//!
//! * windowed cumulative totals equal a naive recomputation for arbitrary
//!   event streams;
//! * the Space-Saving sketch's per-entry error bounds and the `W / k`
//!   presence guarantee hold on arbitrary skewed streams;
//! * totals and the ledger are invariant under the shard count.

use fet_analytics::{AggKey, AnalyticsConfig, AnalyticsEngine, LinkMap, SpaceSaving, WindowStats};
use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::FlowKey;
use netseer::StoredEvent;
use proptest::prelude::*;
use std::collections::HashMap;

fn flow(n: u32) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from_u32(0x0a00_0000 | n),
        (n % 60_000) as u16,
        Ipv4Addr::from_octets([10, 200, 0, 1]),
        80,
    )
}

/// Build one stored event from raw prop inputs; drop classes carry a
/// seeded drop code, the rest carry a matching non-drop detail.
fn ev(t: u64, device: u32, fl: u32, ty_code: u8, counter: u16) -> StoredEvent {
    let ty = EventType::from_code(ty_code).unwrap();
    let detail = if ty.is_drop() {
        let code = if fl % 2 == 0 { DropCode::TableMiss } else { DropCode::LinkLoss };
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

type RawEvent = (u64, u32, u32, u8, u16);

fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<RawEvent>> {
    proptest::collection::vec((0u64..1_000_000, 0u32..6, 0u32..48, 1u8..=6, 0u16..5), 0..max_len)
}

fn naive_totals(events: &[StoredEvent]) -> HashMap<AggKey, WindowStats> {
    let mut naive: HashMap<AggKey, WindowStats> = HashMap::new();
    for e in events {
        let s = naive.entry(AggKey::of(e)).or_default();
        s.events += 1;
        s.weight += u64::from(e.record.counter.max(1));
    }
    naive
}

fn naive_weights(events: &[StoredEvent]) -> HashMap<FlowKey, u64> {
    let mut w: HashMap<FlowKey, u64> = HashMap::new();
    for e in events {
        if e.record.ty.is_drop() || e.record.ty == EventType::Congestion {
            *w.entry(e.record.flow).or_default() += u64::from(e.record.counter.max(1));
        }
    }
    w
}

proptest! {
    /// With uncapped budgets, nothing sheds and the merged cumulative
    /// totals equal the naive recomputation, whatever the stream.
    #[test]
    fn totals_match_naive_recompute(raw in stream_strategy(300), shards in 1usize..6) {
        let events: Vec<StoredEvent> =
            raw.iter().map(|&(t, d, f, c, w)| ev(t, d, f, c, w)).collect();
        let cfg = AnalyticsConfig { shards, ..AnalyticsConfig::default() };
        let mut engine = AnalyticsEngine::new(cfg, LinkMap::default());
        engine.ingest_slice(&events);

        let naive = naive_totals(&events);
        let totals = engine.totals();
        prop_assert_eq!(totals.len(), naive.len());
        for (key, stats) in &totals {
            prop_assert_eq!(Some(stats), naive.get(key), "diverged for {:?}", key);
        }
        let ledger = engine.ledger();
        ledger.assert_balanced();
        prop_assert_eq!(ledger.ingested, events.len() as u64);
        prop_assert_eq!(ledger.shed_analytics, 0, "default caps must not shed");
    }

    /// Space-Saving on an arbitrary weighted stream: every reported entry
    /// brackets the truth (`count - error <= true <= count`), and every
    /// flow heavier than `W / k` is present in the table.
    #[test]
    fn space_saving_bounds_and_guarantee(
        offers in proptest::collection::vec((0u32..64, 1u64..16), 1..400),
        k in 1usize..24,
    ) {
        let mut s = SpaceSaving::new(k);
        let mut truth: HashMap<FlowKey, u64> = HashMap::new();
        for &(f, w) in &offers {
            s.offer(flow(f), w);
            *truth.entry(flow(f)).or_default() += w;
        }
        for e in s.top(k) {
            let t = truth.get(&e.flow).copied().unwrap_or(0);
            prop_assert!(t <= e.count, "true {} > estimate {}", t, e.count);
            prop_assert!(e.guaranteed() <= t, "lower bound {} > true {}", e.guaranteed(), t);
        }
        let bar = s.guarantee_threshold();
        for (f, &w) in &truth {
            if w > bar {
                prop_assert!(s.estimate(f).is_some(), "flow above W/k evicted");
            }
        }
    }

    /// Engine-level top-k is exact (zero error) whenever the per-shard
    /// sketches never overflow, and recalls every true victim flow.
    #[test]
    fn topk_is_exact_below_capacity(raw in stream_strategy(250), shards in 1usize..5) {
        let events: Vec<StoredEvent> =
            raw.iter().map(|&(t, d, f, c, w)| ev(t, d, f, c, w)).collect();
        // 48 possible flows, topk_k = 64 per shard: no shard can overflow.
        let cfg =
            AnalyticsConfig { shards, topk_k: 64, ..AnalyticsConfig::default() };
        let mut engine = AnalyticsEngine::new(cfg, LinkMap::default());
        engine.ingest_slice(&events);

        let truth = naive_weights(&events);
        let reported = engine.top_flows(truth.len().max(1));
        prop_assert_eq!(reported.len(), truth.len());
        for e in &reported {
            prop_assert_eq!(e.error, 0, "no eviction, no error");
            prop_assert_eq!(Some(&e.count), truth.get(&e.flow));
        }
    }

    /// Cumulative totals and the ledger do not depend on the shard count.
    #[test]
    fn totals_are_shard_count_invariant(raw in stream_strategy(250)) {
        let events: Vec<StoredEvent> =
            raw.iter().map(|&(t, d, f, c, w)| ev(t, d, f, c, w)).collect();
        let run = |shards: usize| {
            let cfg = AnalyticsConfig { shards, ..AnalyticsConfig::default() };
            let mut engine = AnalyticsEngine::new(cfg, LinkMap::default());
            engine.ingest_slice(&events);
            (engine.totals(), engine.ledger())
        };
        let (t1, l1) = run(1);
        for shards in [2usize, 3, 5] {
            let (t, l) = run(shards);
            prop_assert_eq!(&t, &t1, "totals diverged at {} shards", shards);
            prop_assert_eq!(l, l1, "ledger diverged at {} shards", shards);
        }
    }
}
