//! NetSeer — flow event telemetry on an emulated programmable data plane.
//!
//! This crate is the paper's primary contribution: an always-on monitor
//! that detects every performance-critical data-plane event at flow
//! granularity, then deduplicates, compresses, batches, and reliably
//! reports it — almost entirely inside the (emulated) switch pipeline.
//!
//! Pipeline (paper Figure 2):
//!
//! ```text
//! raw packets ──► event packet detection (§3.3)      [detect::*]
//!             ──► group-caching deduplication (§3.4) [dedup]
//!             ──► event info extraction to 24 B      [extract]
//!             ──► circulating event batching (§3.5)  [batch]
//!             ──► PCIe → switch CPU: FP elimination,
//!                 pacing (§3.6)                      [cpu]
//!             ──► reliable transport to backend      [transport]
//!             ──► storage + flow/device/type/period
//!                 queries (§3.2 step 4)              [storage]
//! ```
//!
//! [`monitor::NetSeerMonitor`] wires everything into the
//! [`fet_netsim::SwitchMonitor`] hook points of a simulated switch or NIC.
//!
//! # Example
//!
//! Deploy NetSeer fleet-wide on the paper's testbed topology, inject a
//! routing blackhole, and query the backend like an operator:
//!
//! ```
//! use fet_netsim::{Simulator, MILLIS};
//! use fet_netsim::host::FlowSpec;
//! use fet_netsim::routing::{install_ecmp_routes, remove_route};
//! use fet_netsim::topology::{build_fat_tree, FatTreeParams};
//! use fet_packet::{EventType, FlowKey};
//! use netseer::deploy::{collect_events, deploy, DeployOptions};
//! use netseer::Query;
//!
//! let mut sim = Simulator::new();
//! let ft = build_fat_tree(&mut sim, &FatTreeParams::default());
//! install_ecmp_routes(&mut sim);
//! deploy(&mut sim, &DeployOptions::default());
//!
//! // A customer flow, and a fault that blackholes it mid-run.
//! let flow = FlowKey::tcp(ft.host_ips[0], 5_000, ft.host_ips[7], 443);
//! let idx = sim.host_mut(ft.hosts[0]).add_flow(FlowSpec {
//!     key: flow,
//!     total_bytes: 2_000_000,
//!     pkt_payload: 1_000,
//!     rate_gbps: 5.0,
//!     start_ns: 0,
//!     dscp: 0,
//! });
//! sim.schedule_flow(ft.hosts[0], idx);
//! let (tor, victim_ip) = (ft.edges[1][1], ft.host_ips[7]);
//! sim.schedule_control(MILLIS, move |s| remove_route(s, tor, victim_ip));
//! sim.run_until(20 * MILLIS);
//!
//! // One query answers "did the network touch this flow, and where?"
//! let store = collect_events(&mut sim);
//! let drops = store.query(&Query::any().flow(flow).ty(EventType::PipelineDrop));
//! assert!(!drops.is_empty());
//! assert_eq!(drops[0].device, tor);
//! ```

#![warn(missing_docs)]

pub mod acl_agg;
pub mod batch;
pub mod capacity;
pub mod config;
pub mod cpu;
pub mod dedup;
pub mod deploy;
pub mod detect;
pub mod extract;
pub mod faults;
pub mod ledger;
pub mod monitor;
pub mod recovery;
pub mod spill;
pub mod storage;
pub mod tables;
pub mod transport;
pub mod watchdog;
pub mod wire;

pub use config::{CollectorConfig, NetSeerConfig};
pub use faults::{
    CollectorCrash, CorruptionGen, CorruptionSpec, CrashKind, DeliveryLedger, DeviceCrash,
    FaultPlan, LossProcess, Window,
};
pub use ledger::{Ledger, Term, TermKind};
pub use monitor::{NetSeerMonitor, Role};
pub use recovery::{
    run_collector_crash_drill, schedule_device_crashes, Collector, CrashLog, CrashReport,
    PoisonFrame,
};
pub use spill::SpillStore;
pub use storage::{EventStore, Query, StoredEvent};
pub use watchdog::{schedule_watchdog, schedule_wedge, Incident, WatchdogConfig, WatchdogLog};
pub use wire::{WireAdmission, WireConfig, WireIngest};
