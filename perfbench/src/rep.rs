//! What one repetition of a workload measured, and the pieces every
//! workload computes the same way: detection latency and coverage against
//! ground truth, the delivered-event fingerprint, and the per-layer counts
//! read from public fields.

use crate::alloc;
use crate::backend::{Backend, Fleet, QuerySample, ScrapeSample, QUERY_KINDS};
use crate::trace::{HookStats, SpanTotals, HOOKS};
use fet_packet::event::EventType;
use fet_packet::FlowKey;
use netseer::{StoredEvent, WireConfig};
use std::collections::{BTreeMap, HashMap};

/// An event identity in ground truth and in the store.
pub type EventKey = (u32, EventType, FlowKey);

/// Everything one repetition reports.
#[derive(Debug, Default)]
pub struct Rep {
    /// Building inputs, fabric or monitors, and backend.
    pub setup_s: f64,
    /// Wall time of the whole pipeline after setup.
    pub pipeline_s: f64,
    /// Per slice: wall time of the simulation (or hook loop) part.
    pub sim_slice_s: Vec<f64>,
    /// Per slice: wall time of the whole step, simulation plus backend.
    pub step_s: Vec<f64>,
    /// Data packets seen by switch monitors.
    pub pkts: u64,
    /// Events queryable in the collector and reflected in the last render.
    pub events: u64,
    /// Detection -> collector latency per covered event key, sim ns.
    pub latencies_ns: Vec<u64>,
    /// Covered share of ground-truth event keys.
    pub coverage: f64,
    /// Ground-truth event keys coverage is taken over.
    pub truth_keys: usize,
    pub attempted: u64,
    pub failed: u64,
    pub queries: Vec<QuerySample>,
    pub scrapes: Vec<ScrapeSample>,
    /// Peak live heap bytes during the repetition.
    pub peak_heap: u64,
    /// Hash of every delivered event, for determinism checks.
    pub fingerprint: u64,
    /// Per-layer counts and times.
    pub layers: Layers,
}

/// First occurrence time of each event key.
pub fn first_times(it: impl Iterator<Item = (EventKey, u64)>) -> HashMap<EventKey, u64> {
    let mut out: HashMap<EventKey, u64> = HashMap::new();
    for (k, t) in it {
        out.entry(k).and_modify(|v| *v = (*v).min(t)).or_insert(t);
    }
    out
}

/// Latencies (sim ns) from each ground-truth key's first occurrence to its
/// first stored event, the covered share of ground truth, and how many
/// ground-truth keys that share is taken over. Keys first
/// seen after `cutoff_ns` are left out of both: their events may still be
/// in flight when the run stops.
pub fn latency_and_coverage(
    truth: &HashMap<EventKey, u64>,
    stored: &[StoredEvent],
    cutoff_ns: u64,
) -> (Vec<u64>, f64, usize) {
    let wire_base = WireConfig::default().device_base;
    let seen = first_times(
        stored
            .iter()
            .filter(|e| e.device < wire_base)
            .map(|e| ((e.device, e.record.ty, e.record.flow), e.time_ns)),
    );
    let mut total = 0usize;
    let mut lat = Vec::new();
    for (k, &t) in truth {
        if t > cutoff_ns {
            continue;
        }
        total += 1;
        if let Some(&s) = seen.get(k) {
            lat.push(s.saturating_sub(t));
        }
    }
    lat.sort_unstable();
    let coverage = if total == 0 { 0.0 } else { lat.len() as f64 / total as f64 };
    (lat, coverage, total)
}

/// FNV-1a over every delivered event in device order.
pub fn fingerprint(fleet: &Fleet<'_>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for m in &fleet.monitors {
        for e in &m.delivered {
            eat(&e.time_ns.to_le_bytes());
            eat(&e.device.to_le_bytes());
            eat(&e.epoch.to_le_bytes());
            eat(&e.seq.to_le_bytes());
            eat(&e.record.to_bytes());
        }
    }
    h
}

/// Per-layer counts from the monitors' and backend's public fields.
pub fn event_path_layers(fleet: &Fleet<'_>, backend: &Backend, sim_ns: u64, l: &mut Layers) {
    let sum = |f: &dyn Fn(&netseer::NetSeerMonitor) -> u64| -> f64 {
        fleet.monitors.iter().map(|m| f(m)).sum::<u64>() as f64
    };
    l.set("detect.event_packets", sum(&|m| m.stats.event_packets));
    let offered = sum(&|m| m.dedup.iter().map(|(_, c)| c.offered).sum());
    let reports = sum(&|m| m.dedup.iter().map(|(_, c)| c.reports).sum());
    l.set("dedup.offered", offered);
    l.set("dedup.reports", reports);
    l.set("dedup.ratio", if offered > 0.0 { reports / offered } else { 0.0 });
    l.set("extract.records", sum(&|m| m.extractor.records));
    let batches = sum(&|m| m.batcher.delivered_batches);
    l.set("batch.delivered_batches", batches);
    l.set(
        "batch.events_per_batch",
        if batches > 0.0 { sum(&|m| m.batcher.delivered_events) / batches } else { 0.0 },
    );
    l.set("batch.flushes_skipped", sum(&|m| m.batcher.flushes_skipped));
    l.set("cpu.received", sum(&|m| m.cpu.received));
    l.set("cpu.fp_eliminated", sum(&|m| m.cpu.fp_eliminated));
    l.set("cpu.shed_overload", sum(&|m| m.cpu.shed_overload));
    l.set("cpu.pcie_rejected", sum(&|m| m.cpu.pcie_rejected_events));
    let switches = fleet.monitors.iter().filter(|m| m.role == netseer::Role::Switch).count();
    l.set(
        "cpu.busy_share",
        sum(&|m| m.cpu.busy_ns) / (switches.max(1) as f64 * sim_ns.max(1) as f64),
    );
    l.set("transport.transmissions", sum(&|m| m.transport.transmissions));
    l.set("transport.retransmissions", sum(&|m| m.transport.retransmissions));
    l.set("transport.wire_bytes", sum(&|m| m.transport.wire_bytes));

    let c = &backend.collector;
    l.set("collector.accepted", c.len() as f64);
    l.set("collector.duplicates_rejected", c.duplicates_rejected() as f64);
    l.set("collector.spilled", c.spilled as f64);
    l.set("collector.overflow_refused", c.overflow_refused as f64);
    l.set("collector.backlog_max", backend.backlog_max as f64);
    l.set("collector.backpressure_max", f64::from(backend.backpressure_max));
    l.set("spill.applied", c.spill_applied as f64);
    if let Some(w) = &backend.wire {
        l.set("wire.records", w.generated() as f64);
        l.set("wire.rejected", w.rejected_datagrams() as f64);
        l.set("wire.malformed", w.malformed() as f64);
    }
    let al = backend.engine.ledger();
    l.set("analytics.processed", backend.engine.processed as f64);
    l.set("analytics.sketch_absorbed", al.sketch_absorbed as f64);
    l.set("analytics.shed", al.shed_analytics as f64);
    l.set("analytics.late_shed", al.late_shed as f64);
    if let Some(s) = backend.scrapes.last() {
        l.set("export.series", s.series as f64);
        l.set("export.bytes", s.bytes as f64);
    }
    for (kind, name) in QUERY_KINDS.iter().enumerate() {
        let mut ns: Vec<u64> =
            backend.queries.iter().filter(|q| q.kind == kind).map(|q| q.ns).collect();
        let results: usize =
            backend.queries.iter().filter(|q| q.kind == kind).map(|q| q.results).sum();
        ns.sort_unstable();
        l.set(&format!("storage.query.{name}.ns_p50"), crate::stats::pick(&ns, 0.5));
        l.set(&format!("storage.query.{name}.results"), results as f64);
    }
    for (phase, name) in alloc::REPORTED {
        l.set(&format!("heap.peak_mb.{name}"), alloc::phase_peak(phase) as f64 / MB);
    }
}

/// The delivery-ledger terms and the fail-ratio base.
pub fn ledger_layers(
    ledger: &netseer::DeliveryLedger,
    attempted: u64,
    failed: u64,
    l: &mut Layers,
) {
    for (name, v) in [
        ("generated", ledger.generated),
        ("delivered", ledger.delivered),
        ("shed_stack", ledger.shed_stack),
        ("shed_pcie", ledger.shed_pcie),
        ("shed_cpu_overload", ledger.shed_cpu_overload),
        ("shed_false_positive", ledger.shed_false_positive),
        ("shed_transport", ledger.shed_transport),
        ("pending", ledger.pending),
        ("buffered", ledger.buffered),
        ("lost_to_crash", ledger.lost_to_crash),
        ("corrupted", ledger.corrupted),
        ("malformed", ledger.malformed),
        ("attempted", attempted),
        ("failed", failed),
    ] {
        l.set(&format!("ledger.{name}"), v as f64);
    }
    l.set("ledger.fail_ratio", failed as f64 / attempted.max(1) as f64);
}

/// Hook timings as per-layer metrics. Pause-state changes carry no packet
/// and count only in the fast/event classes and the total.
pub fn hook_layers(h: &HookStats, l: &mut Layers) {
    for (i, name) in HOOKS.iter().enumerate().filter(|(_, n)| **n != "pause") {
        let c = h.hook(i);
        l.set(&format!("monitor.{name}.calls"), c.calls as f64);
        l.set(&format!("monitor.{name}.ns_per_call"), c.ns_per_call());
    }
    for (class, name) in [(0, "fast"), (1, "event")] {
        let c = h.class(class);
        l.set(&format!("monitor.{name}.calls"), c.calls as f64);
        l.set(&format!("monitor.{name}.ns_per_call"), c.ns_per_call());
        l.set(&format!("monitor.{name}.ns_p99_bucket"), c.quantile_ns(0.99));
    }
    let total: u64 = (0..HOOKS.len()).map(|i| h.hook(i).total_ns).sum();
    l.set("monitor.total_s", total as f64 / 1e9);
}

/// Span totals as per-layer metrics: self time per span name, and the
/// per-operation costs the layer table names.
pub fn span_layers(spans: &BTreeMap<&'static str, SpanTotals>, backend: &Backend, l: &mut Layers) {
    let get = |n: &str| spans.get(n).copied().unwrap_or_default();
    for (name, t) in spans {
        l.set(&format!("self_s.{name}"), t.self_ns as f64 / 1e9);
    }
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    l.set("collector.ingest.ns_per_event", per(get("collector.ingest").total_ns, backend.offered));
    l.set(
        "spill.pump.ns_per_event",
        per(get("spill.pump").total_ns, backend.collector.spill_applied),
    );
    l.set(
        "analytics.poll.ns_per_event",
        per(get("analytics.absorb").total_ns + get("collector.drain").total_ns, backend.processed),
    );
    let dg = get("wire.ingest");
    l.set("wire.ingest.ns_per_datagram", per(dg.total_ns, dg.calls));
}

/// Bytes per MiB.
pub const MB: f64 = 1024.0 * 1024.0;

/// A name -> value map that keeps insertion simple.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }
}
