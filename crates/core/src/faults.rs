//! Deterministic fault injection and end-to-end event accounting.
//!
//! NetSeer's core promise (§3.5–§3.6) is *lossless* event reporting: every
//! generated event either reaches the backend or is deliberately shed at a
//! bounded, counted choke point. The happy path exercises none of that.
//! This module provides two things:
//!
//! 1. [`FaultPlan`] — a seeded, schedulable description of every failure
//!    mode the reporting pipeline crosses: burst (Gilbert–Elliott) loss and
//!    partitions on the management network, loss of the redundant
//!    inter-switch loss notifications, CEBP recirculation and PCIe stalls,
//!    switch-CPU overload windows, and — the integrity fault domain —
//!    seeded byte corruption of CEBP reports, notification copies, and
//!    torn WAL tail-writes on hard crashes. The same plan + seed
//!    reproduces the same run bit-for-bit.
//!
//! 2. [`DeliveryLedger`] — the pipeline-wide accounting invariant:
//!    `generated` equals the sum of the disposition terms (DESIGN.md §8),
//!    where every shed event is attributed to a named choke point. Any
//!    imbalance is a silent-loss bug.
//!
//! The plan is pure data ([`Clone`], [`Default`]); per-concern runtime
//! state (Gilbert–Elliott channel state, RNG streams) lives in
//! [`LossGen`] instances derived from the plan so that independent
//! subsystems draw from independent, reproducible streams.

use fet_netsim::rng::Pcg32;

pub use fet_netsim::clockfault::{ClockSpec, DeviceClock};
pub use fet_netsim::corrupt::{CorruptionGen, CorruptionSpec, CorruptionTally};

/// A half-open time window `[start_ns, end_ns)` during which a scheduled
/// fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Fault activates at this time (inclusive), ns.
    pub start_ns: u64,
    /// Fault clears at this time (exclusive), ns.
    pub end_ns: u64,
}

impl Window {
    /// Is `t` inside the window?
    pub fn contains(&self, t: u64) -> bool {
        self.start_ns <= t && t < self.end_ns
    }
}

/// Returns the end of the first window containing `t`, if any — i.e. when
/// a stalled operation may resume.
pub fn stall_release(windows: &[Window], t: u64) -> Option<u64> {
    windows.iter().filter(|w| w.contains(t)).map(|w| w.end_ns).max()
}

/// True when `t` falls inside any of the windows.
pub fn in_any_window(windows: &[Window], t: u64) -> bool {
    windows.iter().any(|w| w.contains(t))
}

/// A stochastic loss process for one link or message class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossProcess {
    /// No loss.
    #[default]
    None,
    /// Independent per-attempt loss with probability `p`.
    Bernoulli {
        /// Loss probability per attempt, `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss: a good state with rare loss
    /// and a bad state with heavy loss, with geometric sojourn times.
    GilbertElliott {
        /// P(good → bad) per attempt.
        p_enter_bad: f64,
        /// P(bad → good) per attempt.
        p_exit_bad: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

/// Runtime state of one [`LossProcess`]: owns an independent RNG stream
/// so two subsystems never perturb each other's draws.
#[derive(Debug, Clone)]
pub struct LossGen {
    process: LossProcess,
    rng: Pcg32,
    in_bad: bool,
}

impl LossGen {
    /// Instantiate a process with an independent stream.
    pub fn new(process: LossProcess, seed: u64, stream: u64) -> Self {
        LossGen { process, rng: Pcg32::new(seed, stream), in_bad: false }
    }

    /// Decide one attempt: true = the attempt is lost.
    pub fn lose(&mut self) -> bool {
        match self.process {
            LossProcess::None => false,
            LossProcess::Bernoulli { p } => self.rng.chance(p.clamp(0.0, 1.0)),
            LossProcess::GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad } => {
                // State transition first, then the loss draw in the new state.
                if self.in_bad {
                    if self.rng.chance(p_exit_bad) {
                        self.in_bad = false;
                    }
                } else if self.rng.chance(p_enter_bad) {
                    self.in_bad = true;
                }
                let p = if self.in_bad { loss_bad } else { loss_good };
                self.rng.chance(p.clamp(0.0, 1.0))
            }
        }
    }

    /// Currently in the bad (bursty-loss) state?
    pub fn in_bad_state(&self) -> bool {
        self.in_bad
    }
}

/// How a component dies.
///
/// The distinction is the fsync watermark: a clean stop flushes the
/// recovery WAL before exiting, a hard kill loses whatever was appended
/// after the last fsync (see [`crate::recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Orderly shutdown: the WAL tail is fsynced before the process exits,
    /// so replay restores the pre-crash pending state exactly.
    Clean,
    /// Power-pull / SIGKILL: the un-fsynced WAL tail is lost and the
    /// events it covered become `lost_to_crash` — bounded by the
    /// checkpoint/fsync cadence, never silent.
    Hard,
}

/// One scheduled switch-CPU crash: the device's monitor dies at `at_ns`
/// and restarts (recovering from its checkpoint + WAL) at `restart_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCrash {
    /// The device (node id) whose switch CPU dies.
    pub device: u32,
    /// Kill time, ns.
    pub at_ns: u64,
    /// Restart time, ns (must be > `at_ns`).
    pub restart_ns: u64,
    /// Clean stop or hard kill.
    pub kind: CrashKind,
}

/// One scheduled collector (backend) crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorCrash {
    /// Kill time, ns.
    pub at_ns: u64,
    /// Clean stop or hard kill.
    pub kind: CrashKind,
}

/// Generate a seeded crash schedule that kills (and restarts) every listed
/// device exactly once, with kill times drawn uniformly from
/// `[window.start_ns, window.end_ns)` on the [`streams::CRASH`] RNG stream.
/// The same seed reproduces the same schedule bit-for-bit.
pub fn seeded_device_crashes(
    seed: u64,
    devices: &[u32],
    window: Window,
    down_ns: u64,
    kind: CrashKind,
) -> Vec<DeviceCrash> {
    let span = window.end_ns.saturating_sub(window.start_ns).max(1);
    devices
        .iter()
        .map(|&device| {
            let mut rng = Pcg32::new(seed ^ (u64::from(device) << 17), streams::CRASH);
            let at_ns = window.start_ns + rng.next_u64() % span;
            DeviceCrash { device, at_ns, restart_ns: at_ns + down_ns.max(1), kind }
        })
        .collect()
}

/// A CPU overload window: per-event processing cost is multiplied by
/// `factor` while active (models the event cores being stolen by other
/// control-plane work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadWindow {
    /// When the overload is active.
    pub window: Window,
    /// Per-event cost multiplier (≥ 1.0).
    pub factor: f64,
}

/// The complete, seeded fault schedule for one device's reporting pipeline.
///
/// `FaultPlan::default()` injects nothing; every field is independent so a
/// drill can compose exactly the failure modes it wants.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Master seed; every subsystem derives an independent stream from it.
    pub seed: u64,
    /// Stochastic loss on the management network (switch CPU → backend).
    pub mgmt_loss: LossProcess,
    /// Hard partitions of the management network: every transmission
    /// attempted inside a window is lost, regardless of `mgmt_loss`.
    pub mgmt_partitions: Vec<Window>,
    /// Loss applied independently to each redundant inter-switch loss
    /// notification copy on its way back upstream.
    pub notification_loss: LossProcess,
    /// Windows during which CEBP recirculation stalls (internal-port
    /// arbitration loss, recirculation-queue backpressure).
    pub cebp_stalls: Vec<Window>,
    /// Windows during which the PCIe channel to the switch CPU stalls
    /// (DMA engine busy, doorbell backpressure).
    pub pcie_stalls: Vec<Window>,
    /// Switch-CPU overload windows.
    pub cpu_overload: Vec<OverloadWindow>,
    /// Scheduled switch-CPU crash/restart events.
    pub device_crashes: Vec<DeviceCrash>,
    /// Scheduled collector (backend) crashes.
    pub collector_crashes: Vec<CollectorCrash>,
    /// Byte damage applied to each CEBP report frame on its way to the
    /// collector (drawn on [`streams::CEBP_CORRUPT`]). The CRC-32C trailer
    /// detects it; the transport treats the failure as an implicit NACK and
    /// retransmits, so only a retry-budget exhaustion turns into the
    /// ledger's terminal `corrupted` count.
    pub cebp_corruption: CorruptionSpec,
    /// Byte damage applied to each emitted loss-notification copy (drawn
    /// on [`streams::NOTIF_CORRUPT`]). Damaged copies fail the notification
    /// CRC at the upstream monitor and are counted, not parsed.
    pub notification_corruption: CorruptionSpec,
    /// Torn tail-write damage applied to the un-fsynced WAL region on a
    /// hard crash (drawn on [`streams::WAL_CORRUPT`]). Replay stops at the
    /// first record whose per-record CRC fails instead of deserializing
    /// garbage. Inactive spec = the whole un-fsynced tail is lost (the
    /// pre-integrity model).
    pub torn_wal: CorruptionSpec,
    /// Per-device virtual clock faults (offset/drift/step/freeze, drawn
    /// on [`streams::CLOCK`]). Local clocks rewrite *recorded stamps*
    /// only — event stamps, WAL/snapshot stamps, heartbeat readings —
    /// while simulator global time stays the ordering authority, so the
    /// generated event set and serial/parallel determinism are untouched.
    /// Inactive spec = identity clocks, zero RNG draws.
    pub clock: ClockSpec,
}

/// RNG stream ids, one per concern, so streams never collide.
pub mod streams {
    /// Management-network loss draws (inside `ReliableChannel`).
    pub const MGMT: u64 = 0x4d47;
    /// Notification-copy loss draws (inside `NetSeerMonitor`).
    pub const NOTIFICATION: u64 = 0x4e4f;
    /// Crash-schedule draws ([`super::seeded_device_crashes`]).
    pub const CRASH: u64 = 0x4352;
    /// CEBP report-frame byte damage (inside `NetSeerMonitor`).
    pub const CEBP_CORRUPT: u64 = 0x4345;
    /// Notification-copy byte damage (inside `NetSeerMonitor`).
    pub const NOTIF_CORRUPT: u64 = 0x434e;
    /// Torn-WAL tail damage on hard crash (inside `RecoveryLog`).
    pub const WAL_CORRUPT: u64 = 0x4357;
    /// Torn spill-segment tail damage on a collector hard kill (inside
    /// `SpillStore`).
    pub const SPILL_CORRUPT: u64 = 0x4350;
    /// Per-device clock-fault parameter draws (inside
    /// `fet_netsim::clockfault::DeviceClock`).
    pub const CLOCK: u64 = fet_netsim::clockfault::CLOCK_STREAM;
}

impl FaultPlan {
    /// A plan that injects nothing (the happy path).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// CPU cost multiplier at time `t` (1.0 = no overload).
    pub fn cpu_factor(&self, t: u64) -> f64 {
        self.cpu_overload
            .iter()
            .filter(|o| o.window.contains(t))
            .map(|o| o.factor.max(1.0))
            .fold(1.0, f64::max)
    }

    /// Is the management network partitioned at `t`?
    pub fn mgmt_partitioned(&self, t: u64) -> bool {
        in_any_window(&self.mgmt_partitions, t)
    }

    /// End of the partition containing `t`, if any.
    pub fn mgmt_partition_release(&self, t: u64) -> Option<u64> {
        stall_release(&self.mgmt_partitions, t)
    }
}

/// Why an event was shed. Every category is a *named, bounded* choke point;
/// the shed order under pressure is priority-aware (drops survive longest —
/// see [`event_priority`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedCause {
    /// In-pipeline event stack overflow (lowest-priority victim evicted).
    StackOverflow,
    /// PCIe channel rejected the batch (DMA ring full / stalled too long).
    Pcie,
    /// Switch-CPU overload controller dropped the batch instead of
    /// queueing unboundedly.
    CpuOverload,
    /// CPU false-positive elimination (deliberate, §3.6).
    FalsePositive,
    /// Reliable transport exhausted its retry budget (prolonged partition).
    Transport,
}

/// Reporting priority of an event type under shedding pressure: higher is
/// kept longer. Per the paper's triage order, packet-loss events are the
/// most actionable (drops > congestion/pause > path-change).
pub fn event_priority(ty: fet_packet::event::EventType) -> u8 {
    use fet_packet::event::EventType;
    match ty {
        EventType::PipelineDrop | EventType::MmuDrop | EventType::InterSwitchDrop => 2,
        EventType::Congestion | EventType::Pause => 1,
        EventType::PathChange => 0,
    }
}

crate::ledger! {
    /// The end-to-end accounting snapshot for one monitor's reporting pipeline.
    ///
    /// Invariant: `generated` equals the sum of every other term (the term
    /// table is DESIGN.md §8). The pipeline may legitimately hold events in
    /// flight (`pending`), park them in the collector's durable spill
    /// buffer (`buffered`), shed them at a counted choke point, lose a
    /// bounded tail to a hard crash, lose a batch to unrecoverable wire
    /// corruption, or refuse undecodable wire-ingest records (`malformed`)
    /// — but it must never lose one silently.
    pub struct DeliveryLedger {
        /// Event records handed to the reporting path (post-dedup).
        generated: Source, "fet_events_generated_total",
            "Event records handed to the reporting path (post-dedup).";
        /// Events that reached the backend (or a NIC's local log).
        delivered: Terminal, "fet_events_delivered_total",
            "Events that reached the backend store.";
        /// Shed: in-pipeline stack overflow.
        shed_stack: Terminal, "fet_events_shed_total", reason = "stack",
            "Events shed at a named, counted choke point.";
        /// Shed: PCIe rejection.
        shed_pcie: Terminal, "fet_events_shed_total", reason = "pcie",
            "Events shed at a named, counted choke point.";
        /// Shed: CPU overload controller.
        shed_cpu_overload: Terminal, "fet_events_shed_total", reason = "cpu_overload",
            "Events shed at a named, counted choke point.";
        /// Shed: CPU false-positive elimination (deliberate).
        shed_false_positive: Terminal, "fet_events_shed_total", reason = "false_positive",
            "Events shed at a named, counted choke point.";
        /// Shed: transport retry budget exhausted.
        shed_transport: Terminal, "fet_events_shed_total", reason = "transport",
            "Events shed at a named, counted choke point.";
        /// Events still in flight (batcher stack + open CEBP).
        pending: Occupancy, "fet_events_pending",
            "Events still in flight (batcher stack + open CEBP).";
        /// Events parked in the collector's durable spill buffer: delivered to
        /// the backend host but not yet applied to the queryable store (the
        /// collector was past its memory watermark and wrote them to disk
        /// instead of shedding). They drain to `delivered` as the backlog
        /// clears; see `netseer::spill`.
        buffered: Occupancy, "fet_events_buffered",
            "Events parked in the collector's durable spill buffer.";
        /// Events lost to a hard kill: they were pending when the un-fsynced
        /// WAL tail vanished, so replay could not resurrect them. Bounded by
        /// the checkpoint/fsync window; 0 for clean stops.
        lost_to_crash: Terminal, "fet_events_lost_to_crash_total",
            "Events lost to hard kills (bounded by the fsync window).";
        /// Events whose report batch failed its CRC-32C trailer on every
        /// transmission attempt (implicit-NACK retransmits included) — the
        /// poison copies are quarantined at the collector, never silently
        /// dropped, and the terminal count lands here.
        corrupted: Terminal, "fet_events_corrupted_total",
            "Events whose report failed CRC on every transmission attempt.";
        /// Wire-ingest records an exporter claimed but the collector could not
        /// decode: truncated record tails, count lies, data sets referencing
        /// unknown templates. The offending datagrams are quarantined with a
        /// per-reason breakdown (`netseer::wire`); the terminal record count
        /// lands here. Always 0 for simulator-born events.
        malformed: Terminal, "fet_events_malformed_total",
            "Wire-claimed records the collector could not decode.";
    }
}

impl DeliveryLedger {
    /// Total events shed across all categories: every term exported under
    /// a `reason` label.
    pub fn shed_total(&self) -> u64 {
        crate::ledger::Ledger::total(self, |t| t.reason.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use fet_packet::event::EventType;

    #[test]
    fn default_plan_injects_nothing() {
        let p = FaultPlan::none();
        let mut g = LossGen::new(p.mgmt_loss, 1, streams::MGMT);
        assert!((0..1000).all(|_| !g.lose()));
        assert!(!p.mgmt_partitioned(0));
        assert_eq!(p.cpu_factor(12345), 1.0);
    }

    #[test]
    fn windows_are_half_open() {
        let w = Window { start_ns: 10, end_ns: 20 };
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
    }

    #[test]
    fn stall_release_picks_latest_cover() {
        let ws = [Window { start_ns: 0, end_ns: 100 }, Window { start_ns: 50, end_ns: 300 }];
        assert_eq!(stall_release(&ws, 60), Some(300));
        assert_eq!(stall_release(&ws, 10), Some(100));
        assert_eq!(stall_release(&ws, 400), None);
    }

    #[test]
    fn bernoulli_rate_matches_p() {
        let mut g = LossGen::new(LossProcess::Bernoulli { p: 0.3 }, 7, 1);
        let losses = (0..100_000).filter(|_| g.lose()).count();
        assert!((28_000..32_000).contains(&losses), "losses {losses}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Equal overall loss mass, but GE concentrates losses into runs.
        let ge = LossProcess::GilbertElliott {
            p_enter_bad: 0.01,
            p_exit_bad: 0.1,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let mut g = LossGen::new(ge, 11, 2);
        let outcomes: Vec<bool> = (0..200_000).map(|_| g.lose()).collect();
        let losses = outcomes.iter().filter(|&&l| l).count();
        assert!(losses > 5_000, "GE should lose packets: {losses}");
        // Burstiness: P(loss | previous loss) far above the marginal rate.
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let both = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = both as f64 / pairs as f64;
        let marginal = losses as f64 / outcomes.len() as f64;
        assert!(cond > marginal * 3.0, "conditional loss {cond:.3} vs marginal {marginal:.3}");
    }

    #[test]
    fn same_seed_same_stream() {
        let ge = LossProcess::GilbertElliott {
            p_enter_bad: 0.05,
            p_exit_bad: 0.2,
            loss_good: 0.01,
            loss_bad: 0.8,
        };
        let a: Vec<bool> = {
            let mut g = LossGen::new(ge, 99, 3);
            (0..1000).map(|_| g.lose()).collect()
        };
        let b: Vec<bool> = {
            let mut g = LossGen::new(ge, 99, 3);
            (0..1000).map(|_| g.lose()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn priorities_follow_paper_triage() {
        assert!(event_priority(EventType::PipelineDrop) > event_priority(EventType::Congestion));
        assert!(event_priority(EventType::MmuDrop) > event_priority(EventType::PathChange));
        assert!(event_priority(EventType::InterSwitchDrop) > event_priority(EventType::Pause));
        assert!(event_priority(EventType::Congestion) > event_priority(EventType::PathChange));
    }

    #[test]
    fn corruption_plan_defaults_inactive() {
        let p = FaultPlan::none();
        assert!(!p.cebp_corruption.is_active());
        assert!(!p.notification_corruption.is_active());
        assert!(!p.torn_wal.is_active());
        assert!(!p.clock.is_active());
        assert!(DeviceClock::new(&p.clock, p.seed, 9).is_identity());
    }

    #[test]
    fn every_disposition_term_counts_separately() {
        // Each disposition term balances the ledger on its own; the same
        // run without it shows as exactly that much silent loss.
        let terms = DeliveryLedger::TERMS.iter().enumerate();
        for (i, t) in terms.filter(|(_, t)| t.kind.is_disposition()) {
            let mut l = DeliveryLedger { generated: 100, delivered: 90, ..Default::default() };
            *l.values_mut().nth(i).unwrap() += 10;
            l.assert_balanced();
            *l.values_mut().nth(i).unwrap() -= 10;
            assert_eq!(l.missing(), 10, "uncounted {} must show as silent loss", t.field);
        }
    }

    #[test]
    fn seeded_crash_schedule_is_deterministic_and_in_window() {
        let w = Window { start_ns: 1_000, end_ns: 9_000 };
        let devices = [3u32, 7, 11];
        let a = seeded_device_crashes(0xABCD, &devices, w, 500, CrashKind::Hard);
        let b = seeded_device_crashes(0xABCD, &devices, w, 500, CrashKind::Hard);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_eq!(a.len(), devices.len());
        for c in &a {
            assert!(w.contains(c.at_ns), "kill inside the window: {c:?}");
            assert_eq!(c.restart_ns, c.at_ns + 500);
            assert_eq!(c.kind, CrashKind::Hard);
        }
        // Devices get independent draws, not the same offset.
        assert!(a.windows(2).any(|p| p[0].at_ns != p[1].at_ns));
        let c = seeded_device_crashes(0xABCE, &devices, w, 500, CrashKind::Hard);
        assert_ne!(a, c, "different seeds should perturb the schedule");
    }

    #[test]
    fn cpu_factor_takes_worst_overlap() {
        let p = FaultPlan {
            cpu_overload: vec![
                OverloadWindow { window: Window { start_ns: 0, end_ns: 100 }, factor: 4.0 },
                OverloadWindow { window: Window { start_ns: 50, end_ns: 80 }, factor: 10.0 },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(p.cpu_factor(60), 10.0);
        assert_eq!(p.cpu_factor(90), 4.0);
        assert_eq!(p.cpu_factor(200), 1.0);
    }
}
