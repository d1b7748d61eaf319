//! Wire ingestion: the bridge from untrusted NetFlow/IPFIX datagrams
//! (`fet-wire`) into the collector's normal admission path.
//!
//! Decoded flow records become [`StoredEvent`]s and go through
//! [`Collector::ingest`] like any simulator delivery — so wire input
//! inherits the memory → spill → shed admission ladder, backpressure, and
//! exactly-once replay for free. Nothing bypasses the collector.
//!
//! Accounting is the point. Per datagram:
//!
//! * every record the exporter *claimed* (decoded + undecodable) enters
//!   the wire ledger's `generated`;
//! * decoded records admitted to memory or spill count as `delivered`
//!   (spill occupancy is re-bucketed to `buffered` by
//!   [`WireIngest::ledger`], exactly like the fleet ledger);
//! * records refused because the spill budget ran out land in
//!   `shed_cpu_overload` — the collector's overload refusal;
//! * undecodable records land in the new `malformed` term;
//! * datagram-fatal rejects are quarantined verbatim via
//!   [`Collector::quarantine_poison`] and counted per
//!   [`RejectReason`].
//!
//! The delivery-ledger identity holds exactly for wire-sourced events;
//! the chaos and determinism harnesses assert it under hostile-exporter
//! storms.

use crate::recovery::{Collector, PoisonFrame};
use crate::storage::StoredEvent;
use crate::DeliveryLedger;
use fet_wire::{
    translate, IngestReport, UpstreamLossReport, WireSession, WireSessionConfig, REASON_COUNT,
};
use std::collections::BTreeMap;

/// Wire-ingest configuration.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// Parser/session bounds (template cache, datagram size, stream cap).
    pub session: WireSessionConfig,
    /// Device ids assigned to wire exporters start here, keeping them
    /// disjoint from simulator device ids.
    pub device_base: u32,
    /// Distinct exporter streams mapped to their own device id; streams
    /// beyond the cap share the last id (bounded, deterministic).
    pub max_devices: u32,
    /// Bytes of a rejected datagram preserved in quarantine (the head;
    /// hostile datagrams can be 64 KiB and quarantine is retention-bounded
    /// but each frame should stay small).
    pub quarantine_prefix: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            session: WireSessionConfig::default(),
            device_base: 1 << 16,
            max_devices: 1024,
            quarantine_prefix: 256,
        }
    }
}

/// What one datagram did, after admission.
#[derive(Debug, Clone)]
pub struct WireAdmission {
    /// The parser-level report (protocol, per-reason counts, loss signal).
    pub report: IngestReport,
    /// Events accepted into the in-memory store.
    pub admitted: u64,
    /// Events diverted to the durable spill.
    pub spilled: u64,
    /// Events refused because the spill budget was exhausted.
    pub refused: u64,
    /// Device id this datagram's records were filed under.
    pub device: u32,
}

/// The stateful adapter: one per collector ingest socket.
#[derive(Debug)]
pub struct WireIngest {
    cfg: WireConfig,
    session: WireSession,
    devices: BTreeMap<(u16, u32), u32>,
    next_seq: BTreeMap<u32, u64>,
    /// Records booked so far, before spill occupancy is re-bucketed:
    /// spill-full refusals land in `shed_cpu_overload`.
    booked: DeliveryLedger,
}

impl WireIngest {
    /// New adapter with the given bounds.
    pub fn new(cfg: WireConfig) -> Self {
        WireIngest {
            session: WireSession::new(cfg.session),
            cfg,
            devices: BTreeMap::new(),
            next_seq: BTreeMap::new(),
            booked: DeliveryLedger::default(),
        }
    }

    /// The parser session (template cache occupancy, per-reason stats).
    pub fn session(&self) -> &WireSession {
        &self.session
    }

    /// Expire stale templates (callers pump this on their housekeeping
    /// tick); returns how many were dropped.
    pub fn sweep_templates(&mut self, now_ns: u64) -> u64 {
        self.session.sweep_templates(now_ns)
    }

    /// Upstream-loss accumulators per exporter stream, for analytics.
    pub fn upstream_losses(&self) -> Vec<UpstreamLossReport> {
        self.session.upstream_losses()
    }

    /// Map an exporter stream to a stable device id, bounded by
    /// `max_devices`.
    fn device_for(&mut self, version: u16, domain: u32) -> u32 {
        let cap = self.cfg.max_devices.max(1);
        let next = self.devices.len() as u32;
        let base = self.cfg.device_base;
        *self.devices.entry((version, domain)).or_insert_with(|| base + next.min(cap - 1))
    }

    /// Ingest one datagram through the collector's admission path.
    pub fn ingest_datagram(
        &mut self,
        collector: &mut Collector,
        datagram: &[u8],
        now_ns: u64,
    ) -> WireAdmission {
        let report = self.session.ingest(datagram, now_ns);
        self.booked.generated += report.claimed();
        self.booked.malformed += report.malformed;

        if let Some(reason) = report.rejected {
            let keep = datagram.len().min(self.cfg.quarantine_prefix);
            collector.quarantine_poison(PoisonFrame {
                device: self.cfg.device_base,
                quarantined_ns: now_ns,
                frame: datagram[..keep].to_vec(),
                reason: format!("wire:{}", reason.as_str()),
            });
            return WireAdmission { report, admitted: 0, spilled: 0, refused: 0, device: 0 };
        }

        let version = report.protocol.map(|p| p.version()).unwrap_or(0);
        let device = self.device_for(version, report.domain);
        // Event-time stamp: the session's vetted export time — never the
        // exporter's raw claim. Implausible claims were clamped to the
        // receive clock (and booked under a clock-lie) upstream.
        let stamp_ns = if report.event_time_ns > 0 { report.event_time_ns } else { now_ns };
        let batch: Vec<StoredEvent> = report
            .samples
            .iter()
            .map(|s| {
                let seq = self.next_seq.entry(device).or_insert(0);
                let e = StoredEvent {
                    time_ns: stamp_ns,
                    device,
                    epoch: 0,
                    seq: *seq,
                    record: translate(s),
                };
                *seq += 1;
                e
            })
            .collect();

        let spilled_before = collector.spilled;
        let refused_before = collector.overflow_refused;
        let admitted = collector.ingest(&batch);
        let spilled = collector.spilled - spilled_before;
        let refused = collector.overflow_refused - refused_before;

        // Admitted to memory or parked on disk both count as delivered;
        // ledger() re-buckets current spill occupancy into `buffered`.
        self.booked.delivered += admitted + spilled;
        self.booked.shed_cpu_overload += refused;
        WireAdmission { report, admitted, spilled, refused, device }
    }

    /// Fatal rejects per [`RejectReason::index`].
    pub fn rejects_by_reason(&self) -> [u64; REASON_COUNT] {
        self.session.stats().rejects
    }

    /// Soft rejects per [`RejectReason::index`].
    pub fn soft_rejects_by_reason(&self) -> [u64; REASON_COUNT] {
        self.session.stats().soft
    }

    /// Total datagrams rejected outright.
    pub fn rejected_datagrams(&self) -> u64 {
        self.session.stats().rejected
    }

    /// The wire-scope delivery ledger for a collector dedicated to this
    /// ingest (the example / chaos topology): spill occupancy re-buckets
    /// from `delivered` into `buffered`, so the extended identity holds
    /// exactly at any instant.
    pub fn ledger(&self, collector: &Collector) -> DeliveryLedger {
        let mut ledger = self.booked;
        collector.refine_fleet_ledger(&mut ledger);
        ledger
    }

    /// Records decoded and admitted (memory + spill) so far.
    pub fn delivered(&self) -> u64 {
        self.booked.delivered
    }

    /// Records booked as malformed so far.
    pub fn malformed(&self) -> u64 {
        self.booked.malformed
    }

    /// Records refused at the spill-full choke point so far.
    pub fn shed(&self) -> u64 {
        self.booked.shed_cpu_overload
    }

    /// Every record that entered wire accounting.
    pub fn generated(&self) -> u64 {
        self.booked.generated
    }

    /// Clock lies booked per [`fet_wire::ClockLie::index`].
    pub fn clock_lies(&self) -> [u64; fet_wire::CLOCK_LIE_COUNT] {
        self.session.stats().clock_lies
    }

    /// Event-time stamps clamped to the receive clock so far.
    pub fn clamped_stamps(&self) -> u64 {
        self.session.stats().clamped_stamps
    }
}

impl Default for WireIngest {
    fn default() -> Self {
        WireIngest::new(WireConfig::default())
    }
}

/// Re-exported so callers can name reasons without importing `fet-wire`.
pub use fet_wire::ALL_REASONS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectorConfig;
    use fet_packet::flow::FlowKey;
    use fet_packet::Ipv4Addr;
    use fet_wire::builder::{v5_datagram, v5_datagram_with_count, IpfixBuilder, V9Builder};
    use fet_wire::fields::base_flow_fields;
    use fet_wire::{FlowSample, RejectReason};

    fn sample(n: u8) -> FlowSample {
        FlowSample {
            flow: FlowKey::tcp(
                Ipv4Addr::from_octets([10, 0, 0, n]),
                1000 + n as u16,
                Ipv4Addr::from_octets([10, 1, 0, n]),
                443,
            ),
            in_port: 2,
            out_port: 4,
            packets: 10 + n as u64,
            bytes: 1000,
            tcp_flags: 0x10,
            forwarding_status: Some(0x40),
            first_ms: 0,
            last_ms: 0,
        }
    }

    #[test]
    fn future_export_time_is_clamped_to_receive_clock() {
        use fet_wire::builder::v5_datagram_with_times;
        use fet_wire::ClockLie;
        let mut w = WireIngest::default();
        let mut c = Collector::new();
        // Exporter claims a far-future export time; the stored stamp must
        // be the collector's receive clock, with the lie booked.
        let now_ns = 50 * 1_000_000_000;
        let dg = v5_datagram_with_times(0, 0, 1, &[sample(1)], 1, 1_000, 2_000_000_000);
        w.ingest_datagram(&mut c, &dg, now_ns);
        let got = c.store().query(&crate::storage::Query::any());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].time_ns, now_ns, "future claim must clamp to receive time");
        assert!(w.clock_lies()[ClockLie::FutureExport.index()] > 0);
        assert!(w.clamped_stamps() > 0);
        w.ledger(&c).assert_balanced();
    }

    #[test]
    fn clean_datagrams_flow_into_the_store() {
        let mut w = WireIngest::default();
        let mut c = Collector::new();
        let adm = w.ingest_datagram(&mut c, &v5_datagram(0, 0, 1, &[sample(1), sample(2)]), 7);
        assert_eq!(adm.admitted, 2);
        assert_eq!(c.len(), 2);
        let ledger = w.ledger(&c);
        ledger.assert_balanced();
        assert_eq!(ledger.generated, 2);
        assert_eq!(ledger.delivered, 2);
        // Events are queryable like any simulator event.
        let got = c.store().query(&crate::storage::Query::any().flow(sample(1).flow));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].device, WireConfig::default().device_base);
    }

    #[test]
    fn malformed_records_balance_the_ledger() {
        let mut w = WireIngest::default();
        let mut c = Collector::new();
        // Claims 9 records, carries 2: 7 malformed, 2 delivered.
        let dg = v5_datagram_with_count(0, 0, 1, &[sample(1), sample(2)], 9);
        w.ingest_datagram(&mut c, &dg, 0);
        let ledger = w.ledger(&c);
        ledger.assert_balanced();
        assert_eq!(ledger.generated, 9);
        assert_eq!(ledger.delivered, 2);
        assert_eq!(ledger.malformed, 7);
    }

    #[test]
    fn fatal_rejects_are_quarantined_with_reason() {
        let mut w = WireIngest::default();
        let mut c = Collector::new();
        let adm = w.ingest_datagram(&mut c, &[0, 77, 1, 2, 3], 5);
        assert_eq!(adm.report.rejected, Some(RejectReason::BadVersion));
        assert_eq!(c.quarantine().len(), 1);
        assert_eq!(c.quarantine()[0].reason, "wire:bad-version");
        assert_eq!(w.rejected_datagrams(), 1);
        assert_eq!(w.rejects_by_reason()[RejectReason::BadVersion.index()], 1);
        // Rejected datagrams contribute nothing to generated.
        w.ledger(&c).assert_balanced();
        assert_eq!(w.generated(), 0);
    }

    #[test]
    fn quarantined_frames_keep_only_a_prefix() {
        let mut w = WireIngest::new(WireConfig { quarantine_prefix: 16, ..Default::default() });
        let mut c = Collector::new();
        w.ingest_datagram(&mut c, &[1u8; 4000], 0);
        assert_eq!(c.quarantine()[0].frame.len(), 16);
    }

    #[test]
    fn spill_and_shed_stay_accounted() {
        // Tight watermark with no subscriber: everything past the first
        // events spills, and a tiny spill budget forces refusals.
        let mut w = WireIngest::default();
        let mut c = Collector::with_config(CollectorConfig {
            memory_watermark: 4,
            max_spill_bytes: 1024,
            spill_segment_bytes: 512,
            ..Default::default()
        });
        c.subscribe();
        for i in 0..40 {
            let flows: Vec<FlowSample> = (0..10).map(|j| sample((i * 10 + j) as u8)).collect();
            w.ingest_datagram(&mut c, &v5_datagram(u32::MAX, 0, 1, &flows), i as u64);
        }
        let ledger = w.ledger(&c);
        ledger.assert_balanced();
        assert!(ledger.buffered > 0, "watermark must divert to spill");
        assert!(ledger.shed_cpu_overload > 0, "tiny spill budget must refuse");
        assert_eq!(ledger.generated, 400);
    }

    #[test]
    fn spill_drains_back_to_delivered() {
        let mut tight =
            Collector::with_config(CollectorConfig { memory_watermark: 2, ..Default::default() });
        let mut w = WireIngest::default();
        let sub = tight.subscribe();
        for i in 0..5u8 {
            w.ingest_datagram(&mut tight, &v5_datagram(0, 0, 1, &[sample(i)]), i as u64);
        }
        // Events past the watermark spilled.
        assert!(w.ledger(&tight).buffered > 0);
        // Pump the spill dry, draining between pumps (each pump stops at
        // the watermark until a subscriber clears the backlog).
        loop {
            tight.drain_ordered(sub);
            if tight.pump_spill() == 0 {
                break;
            }
        }
        let ledger = w.ledger(&tight);
        ledger.assert_balanced();
        assert_eq!(ledger.buffered, 0);
        assert_eq!(ledger.delivered, 5);
    }

    #[test]
    fn template_protocols_ride_the_same_path() {
        let mut w = WireIngest::default();
        let mut c = Collector::new();
        let dg = V9Builder::new(7, 0)
            .template(256, &base_flow_fields())
            .data_samples(256, &[sample(1)])
            .build();
        w.ingest_datagram(&mut c, &dg, 0);
        let dg = IpfixBuilder::new(9, 0)
            .template(256, &base_flow_fields())
            .data_samples(256, &[sample(2)])
            .build();
        w.ingest_datagram(&mut c, &dg, 0);
        assert_eq!(c.len(), 2);
        // v9 source 7 and IPFIX domain 9 are distinct devices.
        let devices: std::collections::BTreeSet<u32> =
            c.store().query(&crate::storage::Query::any()).iter().map(|e| e.device).collect();
        assert_eq!(devices.len(), 2);
        w.ledger(&c).assert_balanced();
    }

    #[test]
    fn device_map_is_bounded() {
        let mut w = WireIngest::new(WireConfig { max_devices: 4, ..Default::default() });
        let mut c = Collector::new();
        for engine in 0..50u8 {
            w.ingest_datagram(&mut c, &v5_datagram(0, 0, engine, &[sample(engine)]), 0);
        }
        let devices: std::collections::BTreeSet<u32> =
            c.store().query(&crate::storage::Query::any()).iter().map(|e| e.device).collect();
        assert!(devices.len() <= 4, "streams beyond the cap share the last device id");
        w.ledger(&c).assert_balanced();
    }

    #[test]
    fn upstream_loss_surfaces_per_stream() {
        let mut w = WireIngest::default();
        let mut c = Collector::new();
        w.ingest_datagram(&mut c, &v5_datagram(0, 0, 1, &[sample(1)]), 0);
        w.ingest_datagram(&mut c, &v5_datagram(10, 0, 1, &[sample(2)]), 0);
        let losses = w.upstream_losses();
        assert_eq!(losses.len(), 1);
        assert_eq!(losses[0].lost, 9);
        assert_eq!(losses[0].gaps, 1);
    }
}
