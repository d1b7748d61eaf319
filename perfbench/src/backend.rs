//! The backend half of the pipeline: the collector (memory, then spill),
//! the analytics engine draining it, a closed-loop query reader, and the
//! `/metrics` + OTel scrape. [`Backend::after_slice`] is the one function
//! that moves delivered events from the monitors into the collector; every
//! workload calls it after each slice of simulated time.

use crate::alloc::{self, Phase};
use crate::trace::span;
use fet_analytics::{AnalyticsConfig, AnalyticsEngine, LinkMap};
use fet_export::scrape::{
    scrape_analytics, scrape_collector, scrape_fleet, scrape_ledger, scrape_sim_sync, scrape_wire,
};
use fet_export::{
    merge_ledgers, parse_exposition, render_otel, render_prometheus, validate_json, MetricRegistry,
    RenderedSnapshot,
};
use fet_netsim::{Pcg32, Simulator};
use fet_packet::event::EventType;
use netseer::{
    Collector, CollectorConfig, DeliveryLedger, NetSeerMonitor, Query, StoredEvent, WireConfig,
    WireIngest,
};
use std::collections::HashSet;
use std::time::Instant;

/// Query kinds, in `storage.query.<kind>` order.
pub const QUERY_KINDS: [&str; 4] = ["flow", "device", "type", "window"];

/// The reader's cycle of query kinds: mostly flow lookups, the operator's
/// first question, then time windows and devices, and a full-store type
/// query one time in eight.
const QUERY_MIX: [usize; 8] = [0, 3, 0, 1, 0, 3, 2, 1];

/// Every `CHECK_EVERY`-th query is re-run as a naive scan at the end of the
/// repetition and must return the same events.
const CHECK_EVERY: usize = 8;

/// Flows published on `/metrics` by the analytics top-k scrape.
const TOP_N: usize = 8;

/// Reader rounds after each slice, each closed by a scrape, and queries
/// per round: enough for a p90 scrape and a p99 query per repetition.
const SCRAPES_PER_SLICE: usize = 4;
const QUERIES_PER_ROUND: usize = 8;

/// Where the slice's delivered events come from: the monitors in a fixed
/// order, and the simulator when there is one (for its fleet scrapes).
pub struct Fleet<'a> {
    pub monitors: Vec<&'a NetSeerMonitor>,
    pub sim: Option<&'a Simulator>,
}

impl<'a> Fleet<'a> {
    /// Every NetSeer monitor of a simulated fabric, in node order.
    pub fn of_sim(sim: &'a Simulator) -> Self {
        let mut ids = sim.switch_ids();
        ids.extend(sim.host_ids());
        ids.sort_unstable();
        let monitors = ids.into_iter().map(|id| netseer::deploy::monitor_of(sim, id)).collect();
        Fleet { monitors, sim: Some(sim) }
    }

    /// The fleet's delivery ledger, each device checked on the way.
    pub fn ledger(&self) -> Result<DeliveryLedger, String> {
        let mut total = DeliveryLedger::default();
        for m in &self.monitors {
            let l = m.ledger();
            if !l.balanced() {
                return Err(format!("device {} ledger unbalanced: {l:?}", m.device()));
            }
            total = merge_ledgers(&total, &l);
        }
        Ok(total)
    }
}

/// One timed query.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    pub kind: usize,
    pub ns: u64,
    pub results: usize,
}

/// One timed scrape: adapters, then each render.
#[derive(Debug, Clone, Copy)]
pub struct ScrapeSample {
    pub adapters_ms: f64,
    pub prom_ms: f64,
    pub otel_ms: f64,
    pub series: usize,
    pub bytes: usize,
    pub failed: bool,
}

impl ScrapeSample {
    /// Adapters plus both renders.
    pub fn total_ms(&self) -> f64 {
        self.adapters_ms + self.prom_ms + self.otel_ms
    }
}

struct SampledQuery {
    query: Query,
    store_len: usize,
    results: Vec<StoredEvent>,
}

/// Collector, analytics, reader and exporter for one repetition.
pub struct Backend {
    pub collector: Collector,
    pub engine: AnalyticsEngine,
    pub wire: Option<WireIngest>,
    subscription: u32,
    cursors: Vec<usize>,
    reader: Pcg32,
    pub queries: Vec<QuerySample>,
    sampled: Vec<SampledQuery>,
    pub scrapes: Vec<ScrapeSample>,
    last: Option<RenderedSnapshot>,
    /// Largest undrained backlog seen after an ingest.
    pub backlog_max: usize,
    /// Largest backpressure level seen after an ingest.
    pub backpressure_max: u32,
    /// Monitor deliveries offered to the collector.
    pub offered: u64,
    /// Events drained into analytics.
    pub processed: u64,
    /// Stored events when the last snapshot was rendered.
    pub rendered_events: u64,
}

impl Backend {
    /// A backend whose collector spills past `memory_watermark` undrained
    /// events, with wire ingestion when `wire` is set; the reader draws its
    /// query targets from `seed`.
    pub fn new(memory_watermark: usize, wire: bool, seed: u64) -> Self {
        let mut collector = Collector::with_config(CollectorConfig {
            memory_watermark,
            ..CollectorConfig::default()
        });
        let subscription = collector.subscribe();
        Backend {
            collector,
            engine: AnalyticsEngine::new(AnalyticsConfig::default(), LinkMap::default()),
            wire: wire.then(|| WireIngest::new(WireConfig::default())),
            subscription,
            cursors: Vec::new(),
            reader: Pcg32::new(seed, 0x5eed),
            queries: Vec::new(),
            sampled: Vec::new(),
            scrapes: Vec::new(),
            last: None,
            backlog_max: 0,
            backpressure_max: 0,
            offered: 0,
            processed: 0,
            rendered_events: 0,
        }
    }

    /// Offer one wire datagram through the untrusted ingestion path.
    pub fn ingest_datagram(&mut self, datagram: &[u8], now_ns: u64) {
        let wire = self.wire.as_mut().expect("backend built with wire ingestion");
        let collector = &mut self.collector;
        alloc::within(Phase::Collector, || {
            span("wire.ingest", || wire.ingest_datagram(collector, datagram, now_ns))
        });
    }

    /// Everything that happens after a slice of simulated time ends at
    /// `now_ns`: move each monitor's new deliveries into the collector,
    /// drain the collector into analytics (applying spilled events as the
    /// backlog clears), then let the reader alternate rounds of queries
    /// with a scrape and render.
    pub fn after_slice(&mut self, fleet: &Fleet<'_>, now_ns: u64) -> Result<(), String> {
        self.cursors.resize(fleet.monitors.len(), 0);
        alloc::within(Phase::Collector, || {
            for (m, cursor) in fleet.monitors.iter().zip(self.cursors.iter_mut()) {
                let new = &m.delivered[*cursor..];
                if !new.is_empty() {
                    span("collector.ingest", || self.collector.ingest(new));
                    self.offered += new.len() as u64;
                    *cursor = m.delivered.len();
                }
            }
            self.backlog_max = self.backlog_max.max(self.collector.backlog());
            self.backpressure_max = self.backpressure_max.max(self.collector.backpressure_level());
        });
        self.drain();
        for _ in 0..SCRAPES_PER_SLICE {
            self.read();
            self.scrape(fleet, now_ns)?;
        }
        Ok(())
    }

    /// The body of `AnalyticsEngine::poll`, through its public parts so
    /// the spill pump is timed apart from the analytics work: drain what
    /// the collector stored, absorb it, apply spilled events while the
    /// backlog has room, until neither makes progress.
    fn drain(&mut self) {
        loop {
            let batch = alloc::within(Phase::Collector, || {
                span("collector.drain", || self.collector.drain_ordered(self.subscription))
            });
            alloc::within(Phase::Analytics, || {
                span("analytics.absorb", || self.engine.ingest_slice(&batch))
            });
            self.processed += batch.len() as u64;
            let applied = alloc::within(Phase::Collector, || {
                span("spill.pump", || self.collector.pump_spill())
            });
            if batch.is_empty() && applied == 0 {
                return;
            }
        }
    }

    /// The closed-loop reader: each query is issued when the previous one
    /// returns, cycling through [`QUERY_MIX`] on targets drawn from what is
    /// stored.
    fn read(&mut self) {
        let store = self.collector.store();
        if store.is_empty() {
            return;
        }
        alloc::within(Phase::Collector, || {
            for _ in 0..QUERIES_PER_ROUND {
                let kind = QUERY_MIX[self.queries.len() % QUERY_MIX.len()];
                let pick = store.events()[self.reader.next_below(store.len() as u32) as usize];
                let q = match kind {
                    0 => Query::any().flow(pick.record.flow),
                    1 => Query::any().device(pick.device),
                    2 => Query::any().ty(pick.record.ty),
                    _ => Query::any()
                        .window(pick.time_ns.saturating_sub(50_000), pick.time_ns + 50_000),
                };
                let t = Instant::now();
                let hits = span("storage.query", || store.query(&q));
                let ns = t.elapsed().as_nanos() as u64;
                if self.queries.len().is_multiple_of(CHECK_EVERY) {
                    self.sampled.push(SampledQuery {
                        query: q,
                        store_len: store.len(),
                        results: hits.iter().map(|e| **e).collect(),
                    });
                }
                self.queries.push(QuerySample { kind, ns, results: hits.len() });
            }
        });
    }

    /// Fleet ledger plus the wire ledger, spill occupancy re-bucketed.
    pub fn merged_ledger(&self, fleet: &Fleet<'_>) -> Result<DeliveryLedger, String> {
        let mut merged = fleet.ledger()?;
        if let Some(w) = &self.wire {
            merged = merge_ledgers(&merged, &w.ledger(&self.collector));
        }
        self.collector.refine_fleet_ledger(&mut merged);
        Ok(merged)
    }

    fn scrape(&mut self, fleet: &Fleet<'_>, now_ns: u64) -> Result<(), String> {
        let t0 = Instant::now();
        let reg = alloc::within(Phase::Export, || {
            span("export.scrape", || {
                let mut reg = MetricRegistry::default();
                scrape_ledger(&mut reg, "merged", &self.merged_ledger(fleet)?);
                match fleet.sim {
                    Some(sim) => {
                        scrape_fleet(&mut reg, sim);
                        scrape_sim_sync(&mut reg, sim);
                    }
                    None => scrape_ledger(&mut reg, "fleet", &fleet.ledger()?),
                }
                if let Some(w) = &self.wire {
                    scrape_ledger(&mut reg, "wire", &w.ledger(&self.collector));
                    scrape_wire(&mut reg, w);
                }
                scrape_collector(&mut reg, &self.collector);
                scrape_analytics(&mut reg, &self.engine, TOP_N);
                Ok::<_, String>(reg)
            })
        })?;
        let t1 = Instant::now();
        let prom =
            alloc::within(Phase::Export, || span("export.render_prom", || render_prometheus(&reg)));
        let t2 = Instant::now();
        let otel = alloc::within(Phase::Export, || {
            span("export.render_otel", || render_otel(&reg, 0, now_ns))
        });
        let t3 = Instant::now();
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        self.scrapes.push(ScrapeSample {
            adapters_ms: ms(t0, t1),
            prom_ms: ms(t1, t2),
            otel_ms: ms(t2, t3),
            series: reg.series_count(),
            bytes: prom.len() + otel.len(),
            failed: reg.series_rejected + reg.families_rejected + reg.kind_conflicts > 0,
        });
        self.rendered_events = self.collector.len() as u64;
        self.last = Some(RenderedSnapshot { prometheus: prom, otel, rendered_at_ns: now_ns });
        Ok(())
    }

    /// Failed queries: sampled queries whose results differ from a naive
    /// scan of the store as it was when they ran.
    fn failed_queries(&self) -> u64 {
        let events = self.collector.store().events();
        self.sampled
            .iter()
            .filter(|s| {
                let scan: Vec<StoredEvent> = events[..s.store_len]
                    .iter()
                    .filter(|e| matches(&s.query, e))
                    .copied()
                    .collect();
                scan != s.results
            })
            .count() as u64
    }

    /// Attempted and failed operations: events generated (fleet and wire)
    /// plus queries and scrapes; every non-deliberate loss term of the
    /// merged ledger plus collector refusals, failed queries and failed
    /// scrapes. CPU false-positive elimination and wire `malformed`
    /// records are intended filtering, not failures. Wire refusals already
    /// sit in the wire ledger, so only fleet refusals are added.
    pub fn attempted_failed(&self, fleet: &Fleet<'_>) -> Result<(u64, u64), String> {
        let l = self.merged_ledger(fleet)?;
        let attempted = l.generated + self.queries.len() as u64 + self.scrapes.len() as u64;
        let failed = l.shed_stack
            + l.shed_pcie
            + l.shed_cpu_overload
            + l.shed_transport
            + l.lost_to_crash
            + l.corrupted
            + self.collector.overflow_refused
            - self.wire.as_ref().map_or(0, |w| w.shed())
            + self.failed_queries()
            + self.scrapes.iter().filter(|s| s.failed).count() as u64;
        Ok((attempted, failed))
    }

    /// The output checks, run at quiescence after the last slice.
    pub fn check(&self, fleet: &Fleet<'_>) -> Result<(), String> {
        // Every device ledger, the fleet ledger and the merged ledger.
        let merged = self.merged_ledger(fleet)?;
        if !merged.balanced() {
            return Err(format!("merged ledger unbalanced: {merged:?}"));
        }

        // The collector holds exactly the delivered set, once each.
        let store = self.collector.store().events();
        let mut keys = HashSet::with_capacity(store.len());
        if let Some(dup) = store.iter().find(|e| !keys.insert((e.device, e.epoch, e.seq))) {
            return Err(format!("duplicate stored event {dup:?}"));
        }
        let wire_base = WireConfig::default().device_base;
        let mut stored: Vec<StoredEvent> =
            store.iter().filter(|e| e.device < wire_base).copied().collect();
        let mut delivered: Vec<StoredEvent> =
            fleet.monitors.iter().flat_map(|m| m.delivered.iter().copied()).collect();
        let key = |e: &StoredEvent| (e.device, e.epoch, e.seq);
        stored.sort_unstable_by_key(key);
        delivered.sort_unstable_by_key(key);
        if stored != delivered {
            return Err(format!(
                "collector holds {} fleet events, monitors delivered {}",
                stored.len(),
                delivered.len()
            ));
        }
        let wire_stored = (store.len() - stored.len()) as u64;
        let wire_delivered = self.wire.as_ref().map_or(0, |w| w.delivered());
        if wire_stored != wire_delivered || self.collector.buffered() != 0 {
            return Err(format!(
                "collector holds {wire_stored} wire events, wire delivered {wire_delivered}, \
                 {} still spilled",
                self.collector.buffered()
            ));
        }

        // Analytics saw every stored event and its ledger balances.
        let al = self.engine.ledger();
        if !al.balanced() || self.engine.processed != store.len() as u64 {
            return Err(format!(
                "analytics processed {} of {} stored events, ledger {al:?}",
                self.engine.processed,
                store.len()
            ));
        }

        // /metrics parses and the identity re-derived from it balances.
        let snap = self.last.as_ref().ok_or("nothing was rendered")?;
        let doc = parse_exposition(&snap.prometheus).ok_or("/metrics does not parse")?;
        let merged_scope = [("scope", "merged")];
        let get = |name: &str| {
            doc.value(name, &merged_scope).ok_or_else(|| format!("/metrics lacks {name}"))
        };
        let shed: f64 = doc
            .samples
            .iter()
            .filter(|s| {
                s.name == "fet_events_shed_total"
                    && s.labels.iter().any(|(k, v)| k == "scope" && v == "merged")
            })
            .map(|s| s.value)
            .sum();
        let generated = get("fet_events_generated_total")?;
        let accounted = get("fet_events_delivered_total")?
            + shed
            + get("fet_events_pending")?
            + get("fet_events_buffered")?
            + get("fet_events_lost_to_crash_total")?
            + get("fet_events_corrupted_total")?
            + get("fet_events_malformed_total")?;
        if generated != accounted || generated != merged.generated as f64 {
            return Err(format!(
                "/metrics identity: generated {generated} vs accounted {accounted} \
                 (ledger generated {})",
                merged.generated
            ));
        }
        if !validate_json(&snap.otel) {
            return Err("OTel body is not valid JSON".into());
        }

        // Sampled queries equal a naive scan.
        let bad = self.failed_queries();
        if bad > 0 {
            return Err(format!("{bad} sampled queries differ from a naive scan"));
        }
        Ok(())
    }
}

/// The naive scan predicate a query must agree with.
fn matches(q: &Query, e: &StoredEvent) -> bool {
    q.flow.is_none_or(|f| e.record.flow == f)
        && q.device.is_none_or(|d| e.device == d)
        && q.ty.is_none_or(|t: EventType| e.record.ty == t)
        && q.window.is_none_or(|(a, b)| e.time_ns >= a && e.time_ns < b)
}
