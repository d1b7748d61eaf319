//! A global allocator that tracks live and peak heap bytes, overall and per
//! pipeline phase.
//!
//! The repository's `counting_alloc` counts allocations only; the memory
//! metrics (`peak_heap_mb`, `heap.peak_mb.<phase>`,
//! `collector.bytes_per_event`) need the live byte count, so the benchmark
//! brings its own. The phase is a process-wide tag set by the benchmark's
//! main loop; allocations made by the simulator's worker threads count
//! against whatever phase the main loop is in while it waits for them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Pipeline phases with their own peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building inputs, the fabric and the backend.
    Setup = 0,
    /// Simulation slices or the firehose hook loop.
    Sim = 1,
    /// Collector admission, spill and queries.
    Collector = 2,
    /// Analytics absorb.
    Analytics = 3,
    /// Scrape adapters and renders.
    Export = 4,
}

/// Phases reported as `heap.peak_mb.<name>`.
pub const REPORTED: [(Phase, &str); 4] = [
    (Phase::Sim, "sim"),
    (Phase::Collector, "collector"),
    (Phase::Analytics, "analytics"),
    (Phase::Export, "export"),
];

const PHASES: usize = 5;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static BASE: AtomicU64 = AtomicU64::new(0);
static PHASE: AtomicUsize = AtomicUsize::new(0);
static PHASE_PEAK: [AtomicU64; PHASES] = [const { AtomicU64::new(0) }; PHASES];

/// Forwards to the system allocator, keeping live and peak byte counts.
pub struct PeakAlloc;

fn grow(n: usize) {
    let live = LIVE.fetch_add(n as u64, Relaxed) + n as u64;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
    let slot = &PHASE_PEAK[PHASE.load(Relaxed)];
    if live > slot.load(Relaxed) {
        slot.fetch_max(live, Relaxed);
    }
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no data.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Live heap bytes now.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Peak live bytes since the last [`reset`], above the live bytes then.
pub fn peak() -> u64 {
    PEAK.load(Relaxed).saturating_sub(BASE.load(Relaxed))
}

/// Peak live bytes seen while `phase` was current since the last
/// [`reset`], above the live bytes then.
pub fn phase_peak(phase: Phase) -> u64 {
    PHASE_PEAK[phase as usize].load(Relaxed).saturating_sub(BASE.load(Relaxed))
}

/// Start a new measurement window: peaks count from the live bytes now,
/// so what earlier repetitions still hold does not count.
pub fn reset() {
    let live = live();
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
    for p in &PHASE_PEAK {
        p.store(0, Relaxed);
    }
}

/// Make `phase` current and return the phase it replaces. The phase's
/// peak includes the live bytes at entry, so a phase that allocates
/// nothing still reports the heap it ran on.
pub fn enter(phase: Phase) -> Phase {
    let prev = PHASE.swap(phase as usize, Relaxed);
    PHASE_PEAK[phase as usize].fetch_max(live(), Relaxed);
    match prev {
        1 => Phase::Sim,
        2 => Phase::Collector,
        3 => Phase::Analytics,
        4 => Phase::Export,
        _ => Phase::Setup,
    }
}

/// Run `f` with `phase` current, restoring the previous phase after.
pub fn within<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    let prev = enter(phase);
    let r = f();
    enter(prev);
    r
}
