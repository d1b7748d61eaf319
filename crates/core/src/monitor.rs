//! [`NetSeerMonitor`] — the full NetSeer data-plane program, wired into the
//! emulated switch via [`fet_netsim::SwitchMonitor`], or into a SmartNIC
//! ([`Role::Nic`]) where only the inter-switch drop module runs and events
//! go to a local log (paper §4, "NIC").

use crate::acl_agg::{AclAggregator, AclOutcome};
use crate::batch::{CebpBatcher, PushOutcome};
use crate::config::{NetSeerConfig, BACKPRESSURE_MAX_WIDEN};
use crate::cpu::SwitchCpu;
use crate::dedup::{DedupOutcome, GroupCache};
use crate::detect::{GapDetector, PathTable, PauseTracker, PendingLookups, PortTagger};
use crate::extract::Extractor;
use crate::faults::{streams, CorruptionGen, CrashKind, DeliveryLedger, DeviceClock, LossGen};
use crate::recovery::{CrashReport, DedupSummary, PoisonFrame, RecoveryLog, Snapshot};
use crate::storage::StoredEvent;
use crate::tables::{DedupTable, PortTable};
use crate::transport::ReliableChannel;
use fet_netsim::counters::PortCounters;
use fet_netsim::monitor::{Actions, EgressCtx, HookVerdict, IngressCtx, RoutedCtx, SwitchMonitor};
use fet_packet::builder::{
    build_cebp_frame, build_notification_frames_with, classify, extract_flow,
    insert_seqtag_in_place, parse_cebp_frame, parse_notification, strip_seqtag_in_place, FrameKind,
};
use fet_packet::ethernet::{EtherType, EthernetFrame, ETHERNET_HEADER_LEN};
use fet_packet::event::{DropCode, EventDetail, EventRecord, EventType, EVENT_RECORD_LEN};
use fet_packet::ipv4::Ipv4Addr;
use fet_packet::pfc::{PfcFrame, PFC_CLASSES};
use fet_packet::{FlowKey, IpProtocol};
use fet_pdp::{RateLimitedChannel, ResourceKind, ResourceLedger};
use std::any::Any;
use std::collections::HashMap;

/// Where this monitor instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A full switch deployment: all detectors + event path.
    Switch,
    /// A SmartNIC: inter-switch drop detection only, events logged locally.
    Nic,
}

/// Per-step volume accounting (regenerates Figure 13).
#[derive(Debug, Default, Clone, Copy)]
pub struct StepStats {
    /// Data packets the pipeline saw.
    pub packets_seen: u64,
    /// Their bytes.
    pub packets_bytes: u64,
    /// Packets selected as event packets (step 1).
    pub event_packets: u64,
    /// Their bytes.
    pub event_packet_bytes: u64,
    /// Final reports delivered to the backend.
    pub final_reports: u64,
    /// Final report bytes on the management network.
    pub final_bytes: u64,
}

/// Overhead of a TCP/IP report message around the batched events.
const REPORT_HEADER_BYTES: usize = 54;

/// Synthetic "flow" carrying an ACL rule id, since ACL drops aggregate per
/// rule rather than per flow (§3.4). Proto 255 marks it unmistakably.
pub fn acl_rule_flow(rule_id: u32) -> FlowKey {
    FlowKey {
        src: Ipv4Addr::from_u32(rule_id),
        dst: Ipv4Addr::from_u32(0),
        sport: 0,
        dport: 0,
        proto: IpProtocol::Other(255),
    }
}

/// The NetSeer data-plane + control-plane program for one device.
pub struct NetSeerMonitor {
    /// Configuration.
    pub cfg: NetSeerConfig,
    /// Switch or NIC deployment.
    pub role: Role,
    device: u32,
    // --- detection state (§3.3) ---
    // Flat 256-slot tables indexed by the u8 port (no per-packet hashing).
    taggers: PortTable<PortTagger>,
    gaps: PortTable<GapDetector>,
    pending: PortTable<PendingLookups>,
    /// PFC queue status (pause detection).
    pub pause_tracker: PauseTracker,
    /// Learned flow paths (path-change detection).
    pub path_table: PathTable,
    // --- aggregation (§3.4) ---
    /// One group cache per event type, indexed by discriminant.
    pub dedup: DedupTable,
    /// ACL-rule-granularity drop aggregation.
    pub acl: AclAggregator,
    /// 24-byte record builder.
    pub extractor: Extractor,
    // --- batching + CPU + transport (§3.5, §3.6) ---
    /// The circulating event batcher.
    pub batcher: CebpBatcher,
    /// The switch CPU model.
    pub cpu: SwitchCpu,
    /// Reliable TCP-ish reporting channel to the backend.
    pub transport: ReliableChannel,
    mmu_redirect: RateLimitedChannel,
    /// The internal port that carries redirected ingress/MMU event packets
    /// (and CEBPs): pause, ingress pipeline drop, and MMU drop events are
    /// "jointly limited by the bandwidth of switch's internal port" (§4).
    internal_port: RateLimitedChannel,
    /// MMU drops missed because the 40G redirect path was saturated.
    pub mmu_redirect_missed: u64,
    /// Events missed because the internal port was saturated.
    pub internal_port_missed: u64,
    /// Events that reached the backend (or the NIC's local log).
    pub delivered: Vec<StoredEvent>,
    /// Per-step volume stats.
    pub stats: StepStats,
    // --- fault injection + delivery accounting ---
    /// Loss process applied to each arriving loss-notification copy.
    notif_loss: LossGen,
    /// Byte damage applied to each outgoing CEBP report attempt.
    cebp_corrupt: CorruptionGen,
    /// Byte damage applied to each outgoing loss-notification copy.
    notif_corrupt: CorruptionGen,
    /// Event records handed to the reporting path (ledger numerator).
    pub events_generated: u64,
    /// Events shed because the transport exhausted its retry budget.
    pub transport_failed_events: u64,
    /// Reports (batches) the transport gave up on.
    pub transport_failed_reports: u64,
    /// Notification copies eaten by the injected loss process.
    pub notification_copies_dropped: u64,
    /// CEBP report attempts whose CRC trailer failed at the collector.
    /// Each failure is an implicit NACK: the sender retransmits.
    pub cebp_crc_failures: u64,
    /// Batches abandoned after every CRC retransmit failed; their events
    /// are the ledger's `corrupted` term.
    pub corrupted_batches: u64,
    /// Events in abandoned corrupted batches (terminal, counted — the
    /// poison frames are quarantined, never parsed into the store).
    pub corrupted_events: u64,
    /// Arriving loss-notification copies rejected by their CRC trailer.
    pub notifications_crc_rejected: u64,
    /// Poison CEBP frames held for collector-side quarantine, bounded by
    /// [`MAX_POISON_HELD`].
    poison: Vec<PoisonFrame>,
    // --- crash recovery ---
    /// Write-ahead log + periodic checkpoint for the pending set, tagger
    /// heads, and group-cache summaries (see [`crate::recovery`]).
    pub recovery: RecoveryLog,
    /// Monotonic delivery sequence number; `(device, epoch, seq)` is the
    /// collector's exactly-once dedup key.
    next_delivery_seq: u64,
    /// Reused scratch for the records produced by one `raise` call.
    records_scratch: Vec<(FlowKey, u16)>,
    /// Liveness heartbeat: advances on every timer tick while the control
    /// loop is healthy; the watchdog declares the monitor suspect when it
    /// stops (see [`crate::watchdog`]).
    pub heartbeat: u64,
    /// The device's *local* clock reading at the last heartbeat tick.
    /// Purely observational: the watchdog samples it to measure clock
    /// skew but never bases liveness on it (the counter is drift-immune).
    pub heartbeat_local_ns: u64,
    /// This device's virtual clock (identity unless
    /// [`FaultPlan::clock`](crate::faults::FaultPlan::clock) is active).
    /// Rewrites recorded stamps only — event times, snapshot stamps,
    /// heartbeat readings — never control flow, so a clock-faulted run
    /// generates exactly the same event set as an unfaulted one.
    clock: DeviceClock,
    /// Fault injection: a wedged control loop. Timer ticks and pumping do
    /// nothing (the heartbeat freezes, batches pile up and shed, no
    /// checkpoints are taken) until a restart clears it.
    wedged: bool,
}

/// Default poison-frame quarantine depth (now configurable via
/// [`NetSeerConfig::max_poison_held`]; this constant documents the
/// historical hard cap that the config default reproduces).
pub const MAX_POISON_HELD: usize = 16;

impl std::fmt::Debug for NetSeerMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSeerMonitor")
            .field("device", &self.device)
            .field("role", &self.role)
            .finish_non_exhaustive()
    }
}

impl NetSeerMonitor {
    /// Create a monitor for a device. `device` must match the node id the
    /// monitor is attached to; `seed` diversifies hash units per device.
    pub fn new(device: u32, role: Role, cfg: NetSeerConfig) -> Self {
        let seed = device.wrapping_mul(0x9e37_79b9).wrapping_add(7);
        let mk = |name: &'static str, salt: u32| {
            GroupCache::new(name, cfg.dedup_entries, cfg.dedup_c, seed ^ salt)
        };
        let dedup = DedupTable::build(|ty| match ty {
            EventType::Congestion => mk("dedup-congestion", 1),
            EventType::PipelineDrop => mk("dedup-pipedrop", 2),
            EventType::MmuDrop => mk("dedup-mmudrop", 3),
            EventType::InterSwitchDrop => mk("dedup-iswdrop", 4),
            EventType::PathChange => mk("dedup-path", 5),
            EventType::Pause => mk("dedup-pause", 6),
        });
        NetSeerMonitor {
            role,
            device,
            taggers: PortTable::new(),
            gaps: PortTable::new(),
            pending: PortTable::new(),
            pause_tracker: PauseTracker::new(64),
            path_table: PathTable::new(cfg.path_entries, seed ^ 0xabcd),
            dedup,
            acl: AclAggregator::new(u64::from(cfg.dedup_c)),
            extractor: Extractor::new(),
            batcher: CebpBatcher::new(&cfg),
            cpu: SwitchCpu::new(&cfg),
            transport: ReliableChannel::with_process(
                cfg.faults.mgmt_loss,
                cfg.faults.mgmt_partitions.clone(),
                50 * fet_netsim::MICROS,
                0,
                cfg.faults.seed ^ u64::from(seed),
                cfg.transport_max_retries,
            ),
            mmu_redirect: RateLimitedChannel::new(
                "mmu-redirect",
                cfg.capacity.mmu_redirect_gbps,
                1 << 20,
            ),
            internal_port: RateLimitedChannel::new(
                "internal-port",
                cfg.capacity.internal_port_gbps,
                4 << 20,
            ),
            mmu_redirect_missed: 0,
            internal_port_missed: 0,
            delivered: Vec::new(),
            stats: StepStats::default(),
            notif_loss: LossGen::new(
                cfg.faults.notification_loss,
                cfg.faults.seed ^ u64::from(seed),
                streams::NOTIFICATION,
            ),
            cebp_corrupt: CorruptionGen::new(
                cfg.faults.cebp_corruption,
                cfg.faults.seed ^ u64::from(seed),
                streams::CEBP_CORRUPT,
            ),
            notif_corrupt: CorruptionGen::new(
                cfg.faults.notification_corruption,
                cfg.faults.seed ^ u64::from(seed),
                streams::NOTIF_CORRUPT,
            ),
            events_generated: 0,
            transport_failed_events: 0,
            transport_failed_reports: 0,
            notification_copies_dropped: 0,
            cebp_crc_failures: 0,
            corrupted_batches: 0,
            corrupted_events: 0,
            notifications_crc_rejected: 0,
            poison: Vec::new(),
            recovery: {
                let mut recovery = RecoveryLog::new(cfg.checkpoint_interval_ns);
                recovery.set_torn_wal(CorruptionGen::new(
                    cfg.faults.torn_wal,
                    cfg.faults.seed ^ u64::from(seed),
                    streams::WAL_CORRUPT,
                ));
                recovery
            },
            next_delivery_seq: 0,
            records_scratch: Vec::with_capacity(4),
            heartbeat: 0,
            heartbeat_local_ns: 0,
            clock: DeviceClock::new(&cfg.faults.clock, cfg.faults.seed, device),
            wedged: false,
            cfg,
        }
    }

    /// The end-to-end delivery-accounting snapshot: every event handed to
    /// the reporting path is delivered, shed at a counted choke point, or
    /// still pending in the batcher. [`DeliveryLedger::balanced`] failing
    /// means silent loss — a bug, not a degradation mode.
    pub fn ledger(&self) -> DeliveryLedger {
        DeliveryLedger {
            generated: self.events_generated,
            delivered: self.stats.final_reports,
            shed_stack: self.batcher.dropped,
            shed_pcie: self.cpu.pcie_rejected_events,
            shed_cpu_overload: self.cpu.shed_overload,
            shed_false_positive: self.cpu.fp_eliminated,
            shed_transport: self.transport_failed_events,
            pending: self.batcher.backlog() as u64,
            lost_to_crash: self.recovery.lost_to_crash,
            corrupted: self.corrupted_events,
            // `buffered` is the collector's term (see
            // `Collector::refine_fleet_ledger`), and only wire ingestion
            // (crate::wire) books `malformed` records.
            ..DeliveryLedger::default()
        }
    }

    /// Wedge the control loop (fault injection): the heartbeat freezes and
    /// timer ticks / pumping become no-ops until [`restart`](Self::restart).
    pub fn wedge(&mut self) {
        self.wedged = true;
    }

    /// Is the control loop wedged?
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Poison CEBP frames held for quarantine (bounded, oldest first).
    pub fn poison_frames(&self) -> &[PoisonFrame] {
        &self.poison
    }

    /// Hand the held poison frames to the collector, emptying the hold.
    pub fn take_poison(&mut self) -> Vec<PoisonFrame> {
        std::mem::take(&mut self.poison)
    }

    /// Record the collector's backpressure level (piggybacked on transport
    /// ACKs in a real deployment). The next timer tick converts it into a
    /// flush-widening stride of `2^level` ticks, capped by
    /// [`BACKPRESSURE_MAX_WIDEN`]. Level 0 restores flush-every-tick.
    pub fn set_backpressure(&mut self, level: u32) {
        self.transport.rx_backpressure_hint = level;
    }

    /// The currently signalled collector backpressure level.
    pub fn backpressure(&self) -> u32 {
        self.transport.rx_backpressure_hint
    }

    fn tagger(&mut self, port: u8) -> &mut PortTagger {
        let slots = self.cfg.ring_slots;
        self.taggers.get_or_insert_with(port, || PortTagger::new(slots))
    }

    /// Ring-buffer tagger stats for a port (diagnostics).
    pub fn tagger_stats(&self, port: u8) -> Option<(u64, u64, u64)> {
        self.taggers.get(port).map(|t| (t.tagged, t.lookup_hits, t.lookup_misses))
    }

    /// The device id this monitor reports as.
    pub fn device(&self) -> u32 {
        self.device
    }

    /// Total sequence gaps detected across ports.
    pub fn gaps_detected(&self) -> u64 {
        self.gaps.values().map(|g| g.gaps_detected).sum()
    }

    /// Per-ingress-port sequence-gap counts, sorted by port — the
    /// control-plane scrape the analytics correlator joins against
    /// upstream loss reports.
    pub fn gap_counts(&self) -> Vec<(u8, u64)> {
        // PortTable iteration is already in ascending port order.
        self.gaps.iter().map(|(port, g)| (port, g.gaps_detected)).collect()
    }

    /// Redirect an ingress-side event packet through the internal port;
    /// false when the port is saturated and the event is lost (§4).
    fn internal_redirect(&mut self, now_ns: u64, bytes: usize) -> bool {
        if self.internal_port.offer(now_ns, bytes).is_none() {
            self.internal_port_missed += 1;
            return false;
        }
        true
    }

    /// The core event path: dedup → extract → batch (or local log on NICs).
    fn raise(
        &mut self,
        now_ns: u64,
        ty: EventType,
        flow: FlowKey,
        detail: EventDetail,
        original_len: usize,
        out: &mut Actions,
    ) {
        // Partial deployment (§2.3): skip flows outside the filter.
        if let Some(filter) = self.cfg.flow_filter {
            if !filter.matches(&flow) {
                return;
            }
        }
        self.stats.event_packets += 1;
        self.stats.event_packet_bytes += original_len as u64;
        // Reused scratch: no per-event allocation in steady state.
        let mut records = std::mem::take(&mut self.records_scratch);
        records.clear();
        if self.cfg.enable_dedup {
            let cache = self.dedup.get_mut(ty);
            match cache.offer(flow) {
                DedupOutcome::Suppressed { .. } => {}
                DedupOutcome::NewFlow => records.push((flow, 1)),
                DedupOutcome::CounterReport { counter } => {
                    records.push((flow, counter.min(u32::from(u16::MAX)) as u16));
                }
                DedupOutcome::Evicted { old_flow, old_counter } => {
                    records.push((old_flow, old_counter.min(u32::from(u16::MAX)) as u16));
                    records.push((flow, 1));
                }
            }
        } else {
            records.push((flow, 1));
        }
        for (f, counter) in records.drain(..) {
            let hash = self.dedup.get(ty).flow_hash(&f);
            let rec = self.extractor.extract(ty, f, detail, counter, hash, original_len);
            self.dispatch_record(now_ns, rec, out);
        }
        self.records_scratch = records;
        self.pump(now_ns, out);
    }

    /// Push one finished record into the reporting path.
    fn dispatch_record(&mut self, now_ns: u64, rec: EventRecord, out: &mut Actions) {
        self.events_generated += 1;
        match self.role {
            Role::Switch => self.push_pending(now_ns, rec),
            Role::Nic => {
                // NICs log locally (paper §4): no CEBP/CPU path. The stamp
                // is the NIC's local clock reading, not global time.
                self.delivered.push(StoredEvent {
                    time_ns: self.clock.local_time(now_ns),
                    device: self.device,
                    epoch: self.transport.epoch,
                    seq: self.next_delivery_seq,
                    record: rec,
                });
                self.next_delivery_seq += 1;
                self.stats.final_reports += 1;
                self.stats.final_bytes += EVENT_RECORD_LEN as u64;
                out.report(EVENT_RECORD_LEN, "nic-events");
            }
        }
    }

    /// Offer one record to the batcher, mirroring the mutation into the
    /// WAL. Shedding (priority-aware, when the bounded stack is full) is
    /// counted inside the batcher — never silent — and an eviction is made
    /// durable immediately: the victim's shed is already counted, so a
    /// post-crash replay must never resurrect it.
    fn push_pending(&mut self, now_ns: u64, rec: EventRecord) {
        match self.batcher.push(now_ns, rec) {
            PushOutcome::Stored => self.recovery.log_enq(rec),
            PushOutcome::ShedVictim { pending_pos, .. } => {
                self.recovery.log_evict(pending_pos);
                self.recovery.log_enq(rec);
            }
            PushOutcome::ShedIncoming => {}
        }
    }

    /// Advance batcher → CPU → transport, delivering finished events.
    fn pump(&mut self, now_ns: u64, out: &mut Actions) {
        if self.wedged {
            return;
        }
        for batch in self.batcher.poll(now_ns) {
            self.deliver_batch(batch, out);
        }
    }

    fn deliver_batch(&mut self, batch: crate::batch::Batch, out: &mut Actions) {
        // The batch's events just left the pending set; the departure is
        // fsynced before any downstream effect (delivery or a counted
        // shed) so replay can never bring them back.
        self.recovery.log_deq(batch.events.len());
        let wire = batch.wire_bytes();
        let survived = self.cpu.process_batch(batch.ready_ns, &batch.events, wire);
        if survived.is_empty() {
            return;
        }
        let last_done = survived.last().expect("nonempty").done_ns;
        let bytes = survived.len() * EVENT_RECORD_LEN + REPORT_HEADER_BYTES;
        let records: Vec<EventRecord> = survived.iter().map(|s| s.record).collect();
        // Each transport attempt carries a real CEBP wire frame whose CRC32C
        // trailer the collector verifies. A CRC failure is an implicit NACK
        // (no ACK carries the reject): the sender retransmits, bounded by
        // the transport retry budget. With no corruption configured the
        // first attempt always verifies, so this loop runs exactly once.
        let mut send_at = last_done;
        for _attempt in 0..=self.cfg.transport_max_retries {
            match self.transport.send(send_at, bytes) {
                Ok(delivery) => {
                    let mut frame = build_cebp_frame(survived.len() as u16, &records)
                        .expect("report-sized CEBP always fits");
                    self.cebp_corrupt.corrupt(&mut frame);
                    match parse_cebp_frame(&frame) {
                        Ok(_) => {
                            for s in &survived {
                                // Stamped with the *monitor's* local clock:
                                // a skewed device reports skewed times, and
                                // downstream consumers must cope.
                                self.delivered.push(StoredEvent {
                                    time_ns: self
                                        .clock
                                        .local_time(delivery.delivered_ns.max(s.done_ns)),
                                    device: self.device,
                                    epoch: self.transport.epoch,
                                    seq: self.next_delivery_seq,
                                    record: s.record,
                                });
                                self.next_delivery_seq += 1;
                            }
                            self.stats.final_reports += survived.len() as u64;
                            self.stats.final_bytes += bytes as u64;
                            out.report(bytes, "netseer-events");
                            return;
                        }
                        Err(e) => {
                            // Poison: quarantine the damaged frame verbatim
                            // for CPU-side inspection, never parse it into
                            // the store, and retransmit.
                            self.cebp_crc_failures += 1;
                            if self.poison.len() < self.cfg.max_poison_held {
                                self.poison.push(PoisonFrame {
                                    device: self.device,
                                    quarantined_ns: delivery.delivered_ns,
                                    frame,
                                    reason: e.to_string(),
                                });
                            }
                            send_at = delivery.delivered_ns;
                        }
                    }
                }
                Err(_failure) => {
                    // Retry budget exhausted (e.g. a partition outlasting
                    // the backoff schedule): shed-and-count, never silent.
                    self.transport_failed_events += survived.len() as u64;
                    self.transport_failed_reports += 1;
                    return;
                }
            }
        }
        // Every attempt was damaged beyond its CRC: terminal corruption,
        // counted in the ledger's `corrupted` term.
        self.corrupted_batches += 1;
        self.corrupted_events += survived.len() as u64;
    }

    /// Drain up to `n` pending ring lookups for a port, raising drop events.
    fn drain_pending(&mut self, now_ns: u64, port: u8, n: usize, out: &mut Actions) {
        for _ in 0..n {
            let Some(seq) = self.pending.get_mut(port).and_then(|p| p.pop()) else {
                return;
            };
            let hit = self.tagger(port).lookup(seq);
            if let Some(flow) = hit {
                self.raise(
                    now_ns,
                    EventType::InterSwitchDrop,
                    flow,
                    EventDetail::Drop {
                        ingress_port: port,
                        egress_port: port,
                        code: DropCode::LinkLoss,
                    },
                    64,
                    out,
                );
            }
        }
    }

    fn take_snapshot(&self) -> Snapshot {
        // PortTable iterates ports ascending and DedupTable iterates types
        // in wire-code order, so both lists come out pre-sorted exactly as
        // the HashMap-era snapshot sorted them: serialization is stable.
        let tagger_heads: Vec<(u8, u32)> =
            self.taggers.iter().map(|(p, t)| (p, t.head())).collect();
        let dedup: Vec<DedupSummary> = self
            .dedup
            .iter()
            .map(|(ty, c)| DedupSummary { ty, offered: c.offered, reports: c.reports })
            .collect();
        Snapshot {
            taken_ns: 0,
            taken_local_ns: 0,
            pending: self.batcher.pending_events(),
            tagger_heads,
            dedup,
            ledger: self.ledger(),
        }
    }

    /// Take a checkpoint now: materialize the pending set, tagger heads,
    /// group-cache summaries, and the ledger; the WAL truncates behind it.
    /// The snapshot carries both stamps: global time drives the cadence,
    /// the local-clock reading is what a real process would have written.
    pub fn checkpoint(&mut self, now_ns: u64) {
        let mut snap = self.take_snapshot();
        snap.taken_local_ns = self.clock.local_time(now_ns);
        self.recovery.checkpoint(now_ns, snap);
    }

    /// This device's virtual clock (identity unless clock faults are
    /// configured in [`FaultPlan::clock`](crate::faults::FaultPlan::clock)).
    pub fn clock(&self) -> &DeviceClock {
        &self.clock
    }

    /// The switch-CPU process dies at `now_ns`. Detach the monitor from
    /// the device until [`restart`](Self::restart) — the data plane keeps
    /// forwarding unobserved meanwhile. A clean stop checkpoints
    /// everything on the way down (lossless); a hard kill loses the
    /// un-fsynced WAL tail.
    pub fn crash(&mut self, kind: CrashKind, now_ns: u64) {
        if kind == CrashKind::Clean {
            self.checkpoint(now_ns);
        }
        self.recovery.record_kill(kind, now_ns, self.batcher.backlog() as u64);
    }

    /// Recover from the durable state: replay snapshot + WAL into a
    /// rebuilt pipeline, reconnect the transport under a new epoch, and
    /// account exactly what the kill destroyed.
    ///
    /// Counters are the measurement apparatus, so every rebuilt subsystem
    /// carries its cumulative counters forward; only genuinely volatile
    /// state (the CPU's FP window, dedup tables, ring contents, learned
    /// paths, pause state, queued ring lookups) starts empty. Replayed
    /// events re-enter the batcher without touching `events_generated` —
    /// they were counted when first generated — and a replayed set larger
    /// than the fresh stack re-sheds by priority, counted as usual.
    pub fn restart(&mut self, now_ns: u64) -> CrashReport {
        // A restart always un-wedges: the fresh process has a live loop.
        self.wedged = false;
        let replayed = self.recovery.replay();

        // Batcher: fresh circulation state, carried counters.
        let mut batcher = CebpBatcher::new(&self.cfg);
        batcher.accepted = self.batcher.accepted;
        batcher.dropped = self.batcher.dropped;
        batcher.shed_by_type = std::mem::take(&mut self.batcher.shed_by_type);
        batcher.delivered_batches = self.batcher.delivered_batches;
        batcher.delivered_events = self.batcher.delivered_events;
        batcher.set_flush_stride(self.batcher.flush_stride());
        batcher.flush_calls = self.batcher.flush_calls;
        batcher.flushes_skipped = self.batcher.flushes_skipped;
        self.batcher = batcher;

        // CPU: fresh FP window and DMA engine, carried counters.
        let mut cpu = SwitchCpu::new(&self.cfg);
        cpu.carry_counters_from(&self.cpu);
        self.cpu = cpu;

        // Taggers: heads restored from the checkpoint. Ring contents are
        // lost — lookups in the gap window count misses, never misreport.
        let heads: HashMap<u8, u32> =
            self.recovery.snapshot().tagger_heads.iter().copied().collect();
        for (port, tagger) in self.taggers.iter_mut() {
            let mut fresh = PortTagger::new(self.cfg.ring_slots);
            fresh.restore_head(heads.get(&port).copied().unwrap_or(0));
            fresh.tagged = tagger.tagged;
            fresh.lookup_hits = tagger.lookup_hits;
            fresh.lookup_misses = tagger.lookup_misses;
            *tagger = fresh;
        }

        // Gap detectors keep their counters but re-base: the first frame
        // after downtime re-syncs instead of charging a loss burst.
        for g in self.gaps.values_mut() {
            g.rebase();
        }

        // Queued ring lookups are volatile (no event was generated from
        // them yet, so the ledger is unaffected); telemetry carries.
        for p in self.pending.values_mut() {
            let mut fresh = PendingLookups::new(self.cfg.pending_lookup_cap);
            fresh.overflowed = p.overflowed;
            fresh.copies_received = p.copies_received;
            fresh.duplicate_copies = p.duplicate_copies;
            fresh.ranges_accepted = p.ranges_accepted;
            fresh.corrupted_ranges = p.corrupted_ranges;
            *p = fresh;
        }

        // Group caches: tables are volatile, suppression telemetry is not.
        for cache in self.dedup.values_mut() {
            let (offered, reports) = (cache.offered, cache.reports);
            cache.clear();
            cache.offered = offered;
            cache.reports = reports;
        }

        // Learned paths and pause state rebuild from live traffic.
        let seed = self.device.wrapping_mul(0x9e37_79b9).wrapping_add(7);
        let (po, pr) = (self.path_table.offered, self.path_table.reported);
        self.path_table = PathTable::new(self.cfg.path_entries, seed ^ 0xabcd);
        self.path_table.offered = po;
        self.path_table.reported = pr;
        let (ps, rs) = (self.pause_tracker.pauses_seen, self.pause_tracker.resumes_seen);
        self.pause_tracker = PauseTracker::new(64);
        self.pause_tracker.pauses_seen = ps;
        self.pause_tracker.resumes_seen = rs;

        // Internal channels restart idle.
        self.mmu_redirect =
            RateLimitedChannel::new("mmu-redirect", self.cfg.capacity.mmu_redirect_gbps, 1 << 20);
        self.internal_port =
            RateLimitedChannel::new("internal-port", self.cfg.capacity.internal_port_gbps, 4 << 20);

        // Reconnect under a new epoch: the collector rejects retransmits
        // from the dead epoch, and the `(device, epoch, seq)` key turns
        // redelivery into exactly-once accounting.
        let handshake = self.transport.reconnect(now_ns);

        // Re-materialize the replayed pending set (already counted in
        // `events_generated` before the crash).
        for rec in &replayed {
            self.push_pending(now_ns, *rec);
        }

        let replayed_len = replayed.len() as u64;
        let (kind, killed_ns, lost) = self.recovery.complete_restart(replayed_len);
        // A fresh post-recovery baseline: the next hard kill can only
        // lose what arrives after this instant.
        self.checkpoint(now_ns);
        CrashReport {
            device: self.device,
            kind,
            killed_ns,
            restart_ns: now_ns,
            epoch: handshake.epoch,
            pending_at_kill: replayed_len + lost,
            replayed: replayed_len,
            lost,
        }
    }

    /// A neighboring device restarted: re-sync this ingress port's gap
    /// detector on the next tagged frame instead of charging the
    /// sequence discontinuity as an inter-switch loss burst.
    pub fn rebase_ingress(&mut self, port: u8) {
        self.gaps.get_or_insert_with(port, GapDetector::default).rebase();
    }

    /// Assemble the PDP resource picture of this deployment (Figure 7).
    /// Charges the real sizes of every stateful structure plus calibrated
    /// fixed costs for the match-action logic around them.
    pub fn resource_usage(&self) -> ResourceLedger {
        let mut ledger = ResourceLedger::new(fet_pdp::TOFINO_32D);
        // The base forwarding program (switch.p4) NetSeer extends.
        let base = "switch.p4";
        let cap = fet_pdp::TOFINO_32D.capacity;
        let frac = |i: usize, f: f64| (cap[i] as f64 * f) as u64;
        ledger.charge(base, ResourceKind::ExactXbar, frac(0, 0.30));
        ledger.charge(base, ResourceKind::TernaryXbar, frac(1, 0.28));
        ledger.charge(base, ResourceKind::HashBits, frac(2, 0.25));
        ledger.charge(base, ResourceKind::SramBits, frac(3, 0.35));
        ledger.charge(base, ResourceKind::TcamBits, frac(4, 0.32));
        ledger.charge(base, ResourceKind::VliwActions, frac(5, 0.30));
        ledger.charge(base, ResourceKind::StatefulAlu, frac(6, 0.08));
        ledger.charge(base, ResourceKind::PhvBits, frac(7, 0.40));

        // Event detection (congestion threshold compare, drop hooks, pause
        // lookup, path table).
        self.path_table.account(&mut ledger, "event-detection");
        self.pause_tracker.account(&mut ledger, "event-detection");
        ledger.charge("event-detection", ResourceKind::VliwActions, 12);
        ledger.charge("event-detection", ResourceKind::PhvBits, 160);
        ledger.charge("event-detection", ResourceKind::ExactXbar, 104);

        // Inter-switch: ring buffers + seq/gap registers (heavy stateful).
        // On the ASIC one wide register array serves every port (indexed by
        // port x slot), so the stateful-ALU cost is fixed; SRAM scales with
        // the per-port rings.
        for t in self.taggers.values() {
            ledger.charge("inter-switch", ResourceKind::SramBits, t.slots() as u64 * 137);
        }
        ledger.charge("inter-switch", ResourceKind::StatefulAlu, 6);
        ledger.charge("inter-switch", ResourceKind::PhvBits, 48);
        ledger.charge("inter-switch", ResourceKind::VliwActions, 8);

        // Deduplication: six group caches.
        for c in self.dedup.values() {
            c.account(&mut ledger, "dedup");
        }
        ledger.charge("dedup", ResourceKind::VliwActions, 12);

        // Batching: the cross-stage stack + CEBP logic.
        ledger.charge(
            "batching",
            ResourceKind::SramBits,
            (self.cfg.stack_capacity * EVENT_RECORD_LEN * 8) as u64,
        );
        ledger.charge("batching", ResourceKind::StatefulAlu, 4);
        ledger.charge("batching", ResourceKind::VliwActions, 10);
        ledger.charge("batching", ResourceKind::PhvBits, 224);
        ledger
    }
}

impl SwitchMonitor for NetSeerMonitor {
    fn on_ingress(
        &mut self,
        ctx: &IngressCtx,
        frame: &mut Vec<u8>,
        out: &mut Actions,
    ) -> HookVerdict {
        self.device = ctx.node;
        self.stats.packets_seen += 1;
        self.stats.packets_bytes += frame.len() as u64;

        // Strip the upstream's sequence tag and watch for gaps (Fig. 5
        // steps 2–4).
        let eth = EthernetFrame::new_unchecked(frame.as_slice());
        if eth.ethertype() == EtherType::NetSeerSeq {
            if let Ok(seq) = strip_seqtag_in_place(frame) {
                let gap = self.gaps.get_or_insert_with(ctx.port, GapDetector::default).observe(seq);
                if let Some((lo, hi)) = gap {
                    let copies = self.cfg.notification_copies;
                    for mut nf in build_notification_frames_with(lo, hi, ctx.port, copies) {
                        // Injected byte damage per copy: the receiver's CRC
                        // trailer catches what survives the FCS.
                        self.notif_corrupt.corrupt(&mut nf);
                        out.emit(ctx.port, nf, true);
                    }
                }
            }
        }

        match classify(frame) {
            FrameKind::LossNotification => {
                // Injected fault: this notification copy died on the wire.
                // Redundant copies (paper: three) are each drawn
                // independently, so survival of any one suffices.
                if self.notif_loss.lose() {
                    self.notification_copies_dropped += 1;
                    return HookVerdict::Consume;
                }
                // Fig. 5 step 5: queue ring lookups for the missing range.
                // `parse_notification` verifies the CRC32C trailer first, so
                // a corrupted range can never queue bogus ring lookups.
                match parse_notification(frame) {
                    Ok((lo, hi, _copy, _port)) => {
                        let cap = self.cfg.pending_lookup_cap;
                        self.pending
                            .get_or_insert_with(ctx.port, || PendingLookups::new(cap))
                            .push_range(lo, hi);
                    }
                    Err(_) => {
                        // Counted, never parsed: redundant copies mean any
                        // intact sibling still recovers the range.
                        self.notifications_crc_rejected += 1;
                    }
                }
                self.pump(ctx.now_ns, out);
                return HookVerdict::Consume;
            }
            FrameKind::Pfc => {
                // Queue status detector: parse PAUSE/RESUME ourselves.
                if let Ok(pfc) = PfcFrame::new_checked(&frame[ETHERNET_HEADER_LEN..]) {
                    for prio in 0..PFC_CLASSES {
                        if pfc.pauses(prio) {
                            self.pause_tracker.set(ctx.port, prio as u8, true);
                        } else if pfc.resumes(prio) {
                            self.pause_tracker.set(ctx.port, prio as u8, false);
                        }
                    }
                }
            }
            _ => {}
        }
        self.pump(ctx.now_ns, out);
        HookVerdict::Continue
    }

    fn on_routed(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {
        if self.role == Role::Nic {
            return;
        }
        // Pause event: the packet heads to a queue our tracker says is
        // paused (§3.3 "queue status detector ... looks up in ingress").
        if self.pause_tracker.is_paused(ctx.egress_port, ctx.queue) || ctx.queue_paused {
            // Pause event packets are redirected via the internal port.
            if self.internal_redirect(ctx.now_ns, frame.len()) {
                self.raise(
                    ctx.now_ns,
                    EventType::Pause,
                    ctx.flow,
                    EventDetail::Pause { egress_port: ctx.egress_port, queue: ctx.queue },
                    frame.len(),
                    out,
                );
            }
        }
        // Path change.
        if self.path_table.offer(ctx.flow, ctx.ingress_port, ctx.egress_port).is_some() {
            self.raise(
                ctx.now_ns,
                EventType::PathChange,
                ctx.flow,
                EventDetail::PathChange {
                    ingress_port: ctx.ingress_port,
                    egress_port: ctx.egress_port,
                },
                frame.len(),
                out,
            );
        }
    }

    fn on_pipeline_drop(
        &mut self,
        ctx: &IngressCtx,
        frame: &[u8],
        flow: Option<FlowKey>,
        code: DropCode,
        egress_port: Option<u8>,
        acl_rule: u32,
        out: &mut Actions,
    ) {
        if self.role == Role::Nic {
            return;
        }
        if code == DropCode::AclDeny {
            // Aggregate at ACL-rule granularity (§3.4).
            match self.acl.record(acl_rule) {
                AclOutcome::Counted => {}
                AclOutcome::FirstReport | AclOutcome::ThresholdReport { .. } => {
                    let count = self.acl.count(acl_rule).min(u64::from(u16::MAX)) as u16;
                    let hash = acl_rule;
                    let rec = self.extractor.extract(
                        EventType::PipelineDrop,
                        acl_rule_flow(acl_rule),
                        EventDetail::Drop {
                            ingress_port: ctx.port,
                            egress_port: egress_port.unwrap_or(0xff),
                            code,
                        },
                        count,
                        hash,
                        frame.len(),
                    );
                    self.stats.event_packets += 1;
                    self.stats.event_packet_bytes += frame.len() as u64;
                    self.dispatch_record(ctx.now_ns, rec, out);
                    self.pump(ctx.now_ns, out);
                }
            }
            return;
        }
        let Some(flow) = flow else {
            return; // non-IP garbage has no flow to report
        };
        // Ingress pipeline drops redirect through the internal port (§4).
        if !self.internal_redirect(ctx.now_ns, frame.len()) {
            return;
        }
        self.raise(
            ctx.now_ns,
            EventType::PipelineDrop,
            flow,
            EventDetail::Drop {
                ingress_port: ctx.port,
                egress_port: egress_port.unwrap_or(0xff),
                code,
            },
            frame.len(),
            out,
        );
    }

    fn on_mmu_drop(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {
        if self.role == Role::Nic {
            return;
        }
        // The MMU redirects the doomed packet to an internal port (≤40 Gbps,
        // §4); beyond that rate the event is lost.
        if self.mmu_redirect.offer(ctx.now_ns, frame.len()).is_none() {
            self.mmu_redirect_missed += 1;
            return;
        }
        if !self.internal_redirect(ctx.now_ns, frame.len()) {
            return;
        }
        self.raise(
            ctx.now_ns,
            EventType::MmuDrop,
            ctx.flow,
            EventDetail::Drop {
                ingress_port: ctx.ingress_port,
                egress_port: ctx.egress_port,
                code: DropCode::BufferFull,
            },
            frame.len(),
            out,
        );
    }

    fn on_egress(&mut self, ctx: &EgressCtx<'_>, frame: &mut Vec<u8>, out: &mut Actions) {
        // Congestion: queuing delay over threshold (switch role only).
        if self.role == Role::Switch {
            if let Some(flow) = ctx.meta.flow {
                let delay = ctx.meta.queuing_delay_ns();
                if delay > self.cfg.congestion_threshold_ns {
                    let latency_us = (delay / 1_000).min(u64::from(u16::MAX)) as u16;
                    self.raise(
                        ctx.now_ns,
                        EventType::Congestion,
                        flow,
                        EventDetail::Congestion {
                            egress_port: ctx.port,
                            queue: ctx.queue,
                            latency_us,
                        },
                        frame.len(),
                        out,
                    );
                }
            }
        }
        // Inter-switch numbering + ring recording (Fig. 5 step 1), and one
        // pending ring lookup per departing packet (§3.3: subsequent
        // packets trigger the lookups).
        if ctx.peer_tagged {
            let kind = classify(frame);
            let already_tagged =
                EthernetFrame::new_unchecked(frame.as_slice()).ethertype() == EtherType::NetSeerSeq;
            if kind != FrameKind::Pfc && !already_tagged {
                let flow = extract_flow(frame).unwrap_or(acl_rule_flow(0));
                let seq = self.tagger(ctx.port).next(flow);
                // In place: the buffer's spare capacity absorbs the 6-byte
                // tag after the first hop, so steady state never allocates.
                let _ = insert_seqtag_in_place(frame, seq);
            }
            self.drain_pending(ctx.now_ns, ctx.port, 1, out);
        }
        self.pump(ctx.now_ns, out);
    }

    fn on_pause_state(&mut self, _now_ns: u64, port: u8, prio: u8, paused: bool) {
        self.pause_tracker.set(port, prio, paused);
    }

    fn on_timer(&mut self, now_ns: u64, _counters: &[PortCounters], out: &mut Actions) {
        // A wedged control loop does nothing: the heartbeat freezes (the
        // watchdog's suspicion signal), batches pile up and shed by
        // priority, and no checkpoints are taken.
        if self.wedged {
            return;
        }
        self.heartbeat += 1;
        self.heartbeat_local_ns = self.clock.local_time(now_ns);
        // CPU-assisted backstop: drain pending lookups even on quiet ports.
        for p in 0..=255u8 {
            if self.pending.get(p).is_some() {
                self.drain_pending(now_ns, p, 64, out);
            }
        }
        // Deliver batches that completed on their own BEFORE flushing:
        // flush() polls internally and discards the ready batches it
        // finds, so they must go through deliver_batch first.
        self.pump(now_ns, out);
        // Collector backpressure widens the flush interval: a pressured
        // collector means partial batches wait 2^level ticks (bounded by
        // BACKPRESSURE_MAX_WIDEN) so the fabric sends fewer, fuller CEBPs.
        // Full batches still deliver through pump() above regardless of
        // stride.
        let level = self.transport.rx_backpressure_hint.min(31);
        let stride = (1u32 << level).min(BACKPRESSURE_MAX_WIDEN);
        self.batcher.set_flush_stride(stride);
        // Age out partial batches so light traffic still reports promptly.
        if let Some(batch) = self.batcher.flush(now_ns) {
            self.deliver_batch(batch, out);
        }
        self.cpu.expire(now_ns);
        self.pump(now_ns, out);
        // Periodic durability: snapshot the pending set + detector heads
        // and truncate the WAL, bounding what a hard kill can destroy.
        if self.recovery.due(now_ns) {
            self.checkpoint(now_ns);
        }
    }

    fn timer_interval_ns(&self) -> Option<u64> {
        Some(self.cfg.timer_interval_ns)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::builder::build_data_packet;

    fn flow(n: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from_octets([10, 0, 0, 1]),
            n,
            Ipv4Addr::from_octets([10, 0, 0, 2]),
            80,
        )
    }

    fn mon() -> NetSeerMonitor {
        NetSeerMonitor::new(3, Role::Switch, NetSeerConfig::default())
    }

    fn ictx(port: u8, now: u64) -> IngressCtx {
        IngressCtx { now_ns: now, node: 3, port, peer_tagged: true }
    }

    #[test]
    fn egress_tags_and_ingress_strips() {
        let mut up = mon();
        let mut down = NetSeerMonitor::new(4, Role::Switch, NetSeerConfig::default());
        let mut out = Actions::new();
        let mut frame = build_data_packet(&flow(1), 100, 0, 0, 64);
        let orig = frame.clone();
        let meta = fet_pdp::PacketMeta::arriving(0, 0, frame.len());
        let ectx =
            EgressCtx { now_ns: 0, node: 3, port: 2, queue: 0, peer_tagged: true, meta: &meta };
        up.on_egress(&ectx, &mut frame, &mut out);
        assert_ne!(frame, orig, "frame should be tagged");
        // Downstream strips.
        let v = down.on_ingress(&ictx(5, 100), &mut frame, &mut out);
        assert_eq!(v, HookVerdict::Continue);
        assert_eq!(frame, orig, "tag should be stripped");
    }

    #[test]
    fn gap_triggers_three_notifications() {
        let mut up = mon();
        let mut down = NetSeerMonitor::new(4, Role::Switch, NetSeerConfig::default());
        let meta = fet_pdp::PacketMeta::arriving(0, 0, 64);
        // Upstream sends seq 0,1,2,3,4; the wire eats 1..=3.
        let mut arrived = Vec::new();
        for n in 0..5u16 {
            let mut f = build_data_packet(&flow(n), 100, 0, 0, 64);
            let ectx =
                EgressCtx { now_ns: 0, node: 3, port: 2, queue: 0, peer_tagged: true, meta: &meta };
            let mut out = Actions::new();
            up.on_egress(&ectx, &mut f, &mut out);
            if n == 0 || n == 4 {
                arrived.push(f);
            }
        }
        let mut out = Actions::new();
        for mut f in arrived {
            down.on_ingress(&ictx(5, 10), &mut f, &mut out);
        }
        // Three redundant notification copies, high priority, back the way
        // the packets came.
        assert_eq!(out.emit.len(), 3);
        assert!(out.emit.iter().all(|e| e.high_priority && e.out_port == 5));
        assert_eq!(down.gaps_detected(), 1);
    }

    #[test]
    fn notification_roundtrip_recovers_lost_flows() {
        let mut up = mon();
        let mut down = NetSeerMonitor::new(4, Role::Switch, NetSeerConfig::default());
        let meta = fet_pdp::PacketMeta::arriving(0, 0, 64);
        let mk_ectx = |now| EgressCtx {
            now_ns: now,
            node: 3,
            port: 2,
            queue: 0,
            peer_tagged: true,
            meta: &meta,
        };
        // seq 0 arrives, 1 and 2 lost, 3 arrives.
        let mut survivors = Vec::new();
        for n in 0..4u16 {
            let mut f = build_data_packet(&flow(n), 100, 0, 0, 64);
            let mut out = Actions::new();
            up.on_egress(&mk_ectx(0), &mut f, &mut out);
            if n == 0 || n == 3 {
                survivors.push(f);
            }
        }
        let mut down_out = Actions::new();
        for mut f in survivors {
            down.on_ingress(&ictx(5, 10), &mut f, &mut down_out);
        }
        // Deliver the notifications back to the upstream on its port 2.
        let mut up_out = Actions::new();
        for e in down_out.emit {
            let mut f = e.frame;
            let v = up.on_ingress(&ictx(2, 20), &mut f, &mut up_out);
            assert_eq!(v, HookVerdict::Consume);
        }
        // Subsequent egress packets drain the pending lookups.
        for n in 10..14u16 {
            let mut f = build_data_packet(&flow(n), 100, 0, 0, 64);
            let mut out = Actions::new();
            up.on_egress(&mk_ectx(100), &mut f, &mut out);
        }
        // Force the event path to the end.
        let mut out = Actions::new();
        up.on_timer(10_000_000_000, &[], &mut out);
        let lost: Vec<FlowKey> = up
            .delivered
            .iter()
            .filter(|e| e.record.ty == EventType::InterSwitchDrop)
            .map(|e| e.record.flow)
            .collect();
        assert_eq!(lost, vec![flow(1), flow(2)]);
    }

    #[test]
    fn congestion_event_reported_once_per_flow() {
        let mut m = mon();
        let mut meta = fet_pdp::PacketMeta::arriving(0, 0, 100);
        meta.flow = Some(flow(1));
        meta.egress_ts_ns = 100 * fet_netsim::MICROS; // 100us delay
        let mut out = Actions::new();
        for _ in 0..50 {
            let mut f = build_data_packet(&flow(1), 100, 0, 0, 64);
            let ectx = EgressCtx {
                now_ns: meta.egress_ts_ns,
                node: 3,
                port: 1,
                queue: 0,
                peer_tagged: false,
                meta: &meta,
            };
            m.on_egress(&ectx, &mut f, &mut out);
        }
        m.on_timer(10_000_000_000, &[], &mut out);
        let cong: Vec<_> =
            m.delivered.iter().filter(|e| e.record.ty == EventType::Congestion).collect();
        // 50 event packets dedup to a single initial report (c=128 not hit).
        assert_eq!(cong.len(), 1);
        assert_eq!(cong[0].record.flow, flow(1));
        assert_eq!(m.stats.event_packets, 50);
    }

    #[test]
    fn below_threshold_is_not_congestion() {
        let mut m = mon();
        let mut meta = fet_pdp::PacketMeta::arriving(0, 0, 100);
        meta.flow = Some(flow(1));
        meta.egress_ts_ns = fet_netsim::MICROS;
        let mut out = Actions::new();
        let mut f = build_data_packet(&flow(1), 100, 0, 0, 64);
        let ectx = EgressCtx {
            now_ns: meta.egress_ts_ns,
            node: 3,
            port: 1,
            queue: 0,
            peer_tagged: false,
            meta: &meta,
        };
        m.on_egress(&ectx, &mut f, &mut out);
        assert_eq!(m.stats.event_packets, 0);
    }

    #[test]
    fn pause_event_on_paused_queue() {
        let mut m = mon();
        let mut out = Actions::new();
        m.on_pause_state(0, 7, 0, true);
        let rctx = RoutedCtx {
            now_ns: 10,
            node: 3,
            ingress_port: 1,
            egress_port: 7,
            queue: 0,
            queue_paused: false,
            flow: flow(2),
        };
        let f = build_data_packet(&flow(2), 100, 0, 0, 64);
        m.on_routed(&rctx, &f, &mut out);
        m.on_timer(10_000_000_000, &[], &mut out);
        assert_eq!(m.delivered.iter().filter(|e| e.record.ty == EventType::Pause).count(), 1);
    }

    #[test]
    fn path_change_reported_for_new_flow() {
        let mut m = mon();
        let mut out = Actions::new();
        let rctx = RoutedCtx {
            now_ns: 10,
            node: 3,
            ingress_port: 1,
            egress_port: 2,
            queue: 0,
            queue_paused: false,
            flow: flow(9),
        };
        let f = build_data_packet(&flow(9), 100, 0, 0, 64);
        m.on_routed(&rctx, &f, &mut out);
        m.on_routed(&rctx, &f, &mut out); // second packet: no event
        m.on_timer(10_000_000_000, &[], &mut out);
        assert_eq!(m.delivered.iter().filter(|e| e.record.ty == EventType::PathChange).count(), 1);
    }

    #[test]
    fn acl_drops_aggregate_per_rule() {
        let mut m = mon();
        let mut out = Actions::new();
        let f = build_data_packet(&flow(1), 100, 0, 0, 64);
        for i in 0..300u16 {
            // Different flows, same rule.
            let _ = i;
            m.on_pipeline_drop(
                &ictx(1, 10),
                &f,
                Some(flow(i)),
                DropCode::AclDeny,
                None,
                42,
                &mut out,
            );
        }
        m.on_timer(10_000_000_000, &[], &mut out);
        let acl_events: Vec<_> =
            m.delivered.iter().filter(|e| e.record.ty == EventType::PipelineDrop).collect();
        // 300 drops → first + 2 threshold refreshers (C=128), NOT 300.
        assert_eq!(acl_events.len(), 3);
        assert!(acl_events.iter().all(|e| e.record.flow == acl_rule_flow(42)));
        assert_eq!(m.acl.count(42), 300);
    }

    #[test]
    fn table_miss_drop_reports_victim_flow() {
        let mut m = mon();
        let mut out = Actions::new();
        let f = build_data_packet(&flow(5), 100, 0, 0, 64);
        m.on_pipeline_drop(&ictx(1, 10), &f, Some(flow(5)), DropCode::TableMiss, None, 0, &mut out);
        m.on_timer(10_000_000_000, &[], &mut out);
        let ev = m
            .delivered
            .iter()
            .find(|e| e.record.ty == EventType::PipelineDrop)
            .expect("drop event");
        assert_eq!(ev.record.flow, flow(5));
        match ev.record.detail {
            EventDetail::Drop { code, .. } => assert_eq!(code, DropCode::TableMiss),
            other => panic!("wrong detail {other:?}"),
        }
    }

    #[test]
    fn mmu_redirect_capacity_limits_drop_events() {
        let mut cfg = NetSeerConfig::default();
        cfg.capacity.mmu_redirect_gbps = 0.001; // ~1 Mbps: saturates fast
        let mut m = NetSeerMonitor::new(3, Role::Switch, cfg);
        let mut out = Actions::new();
        let rctx = RoutedCtx {
            now_ns: 0,
            node: 3,
            ingress_port: 1,
            egress_port: 2,
            queue: 0,
            queue_paused: false,
            flow: flow(1),
        };
        let f = build_data_packet(&flow(1), 1000, 0, 0, 64);
        for _ in 0..2_000 {
            m.on_mmu_drop(&rctx, &f, &mut out);
        }
        assert!(m.mmu_redirect_missed > 0, "redirect should saturate");
    }

    #[test]
    fn nic_role_logs_locally_and_skips_switch_detectors() {
        let mut m = NetSeerMonitor::new(9, Role::Nic, NetSeerConfig::default());
        let mut out = Actions::new();
        // NICs ignore routed/pipeline hooks.
        let rctx = RoutedCtx {
            now_ns: 0,
            node: 9,
            ingress_port: 0,
            egress_port: 0,
            queue: 0,
            queue_paused: true,
            flow: flow(1),
        };
        let f = build_data_packet(&flow(1), 100, 0, 0, 64);
        m.on_routed(&rctx, &f, &mut out);
        assert!(m.delivered.is_empty());
    }

    #[test]
    fn cebp_corruption_retransmits_then_delivers() {
        use crate::faults::CorruptionSpec;
        let mut cfg = NetSeerConfig::default();
        // Mild damage: most attempts fail on a 46-byte report frame, but
        // the implicit-NACK retransmit loop almost always gets one through.
        cfg.faults.cebp_corruption = CorruptionSpec::bit_flips(0.02);
        let mut m = NetSeerMonitor::new(3, Role::Switch, cfg);
        let mut out = Actions::new();
        for n in 0..30u16 {
            let mut meta = fet_pdp::PacketMeta::arriving(0, 0, 100);
            meta.flow = Some(flow(n));
            meta.egress_ts_ns = 100 * fet_netsim::MICROS;
            let mut f = build_data_packet(&flow(n), 100, 0, 0, 64);
            let ectx = EgressCtx {
                now_ns: meta.egress_ts_ns,
                node: 3,
                port: 1,
                queue: 0,
                peer_tagged: false,
                meta: &meta,
            };
            m.on_egress(&ectx, &mut f, &mut out);
            m.on_timer((u64::from(n) + 1) * 10_000_000, &[], &mut out);
        }
        assert_eq!(m.events_generated, 30);
        assert!(m.cebp_crc_failures > 0, "some attempts must fail CRC");
        assert!(m.stats.final_reports > 0, "retransmits must get batches through");
        assert!(!m.poison_frames().is_empty(), "failed attempts are quarantined");
        assert!(m.ledger().balanced(), "{:?}", m.ledger());
    }

    #[test]
    fn hopeless_cebp_corruption_is_terminal_and_counted() {
        use crate::faults::CorruptionSpec;
        let mut cfg = NetSeerConfig::default();
        // Half the bytes damaged per attempt: no attempt ever verifies.
        cfg.faults.cebp_corruption = CorruptionSpec::bit_flips(0.5);
        let mut m = NetSeerMonitor::new(3, Role::Switch, cfg);
        let mut out = Actions::new();
        let mut meta = fet_pdp::PacketMeta::arriving(0, 0, 100);
        meta.flow = Some(flow(1));
        meta.egress_ts_ns = 100 * fet_netsim::MICROS;
        let mut f = build_data_packet(&flow(1), 100, 0, 0, 64);
        let ectx = EgressCtx {
            now_ns: meta.egress_ts_ns,
            node: 3,
            port: 1,
            queue: 0,
            peer_tagged: false,
            meta: &meta,
        };
        m.on_egress(&ectx, &mut f, &mut out);
        m.on_timer(10_000_000_000, &[], &mut out);
        assert_eq!(m.stats.final_reports, 0);
        assert_eq!((m.corrupted_batches, m.corrupted_events), (1, 1));
        assert_eq!(m.ledger().corrupted, 1);
        assert!(m.ledger().balanced(), "{:?}", m.ledger());
        assert!(!m.poison_frames().is_empty());
        let poison = m.take_poison();
        assert!(!poison.is_empty() && m.poison_frames().is_empty());
        assert!(poison.iter().all(|p| p.device == 3 && !p.reason.is_empty()));
    }

    #[test]
    fn corrupted_notification_copy_is_rejected_not_parsed() {
        let mut m = mon();
        let mut out = Actions::new();
        let frames = build_notification_frames_with(5, 9, 2, 3);
        for (i, mut f) in frames.into_iter().enumerate() {
            if i == 0 {
                // Damage one copy's payload: its CRC trailer condemns it.
                f[ETHERNET_HEADER_LEN + 2] ^= 0x10;
            }
            let v = m.on_ingress(&ictx(2, 20), &mut f, &mut out);
            assert_eq!(v, HookVerdict::Consume);
        }
        assert_eq!(m.notifications_crc_rejected, 1);
        // The intact siblings still recovered the range.
        assert!(m.pending.get(2).is_some());
    }

    #[test]
    fn wedged_monitor_freezes_heartbeat_until_restart() {
        let mut m = mon();
        let mut out = Actions::new();
        m.on_timer(1_000_000, &[], &mut out);
        m.on_timer(2_000_000, &[], &mut out);
        assert_eq!(m.heartbeat, 2);
        m.wedge();
        assert!(m.is_wedged());
        m.on_timer(3_000_000, &[], &mut out);
        assert_eq!(m.heartbeat, 2, "a wedged loop makes no progress");
        m.crash(CrashKind::Hard, 4_000_000);
        let report = m.restart(5_000_000);
        assert!(!m.is_wedged(), "restart un-wedges");
        assert_eq!(report.kind, CrashKind::Hard);
        m.on_timer(6_000_000, &[], &mut out);
        assert_eq!(m.heartbeat, 3);
        assert!(m.ledger().balanced());
    }

    #[test]
    fn resource_usage_matches_paper_shape() {
        let mut m = mon();
        // Touch a few ports so ring buffers exist.
        let meta = fet_pdp::PacketMeta::arriving(0, 0, 64);
        for port in 0..4u8 {
            let mut f = build_data_packet(&flow(port.into()), 100, 0, 0, 64);
            let ectx =
                EgressCtx { now_ns: 0, node: 3, port, queue: 0, peer_tagged: true, meta: &meta };
            let mut out = Actions::new();
            m.on_egress(&ectx, &mut f, &mut out);
        }
        let ledger = m.resource_usage();
        // Nothing over budget; stateful ALU is the top NetSeer consumer.
        assert!(!ledger.over_budget());
        let alu = ledger.usage_fraction(ResourceKind::StatefulAlu);
        assert!(alu > 0.25 && alu <= 1.0, "ALU usage {alu}");
        for kind in [
            ResourceKind::ExactXbar,
            ResourceKind::TernaryXbar,
            ResourceKind::HashBits,
            ResourceKind::TcamBits,
        ] {
            assert!(ledger.usage_fraction(kind) < 0.6, "{kind:?} too high");
        }
        // All four NetSeer modules present.
        let mods = ledger.modules();
        for want in ["switch.p4", "event-detection", "inter-switch", "dedup", "batching"] {
            assert!(mods.contains(&want), "missing module {want}");
        }
    }
}
