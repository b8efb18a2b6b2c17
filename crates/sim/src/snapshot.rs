//! Checkpoint-and-fork execution: snapshots of the complete simulator
//! state, recorded during the golden run and restored by injection runs.
//!
//! Every injection run's machine state is bit-identical to the golden
//! run's until its first fault fires, so re-simulating the head of each
//! run is pure waste.  The campaign engine records [`Snapshot`]s of the
//! whole device — register files, shared/local memory, cache tag and data
//! arrays, SIMT stacks, scheduler state, CTA residency, timing queues and
//! statistics counters — on a cycle stride during one *recording* pass of
//! the golden execution, then forks each injection run from the nearest
//! snapshot at or before its first injection cycle.
//!
//! The state capture clones [`MemSystem`] and every [`SimtCore`]
//! wholesale.  Restoring is the other half of the same `Clone` impls:
//! [`crate::Gpu::restore`] calls `clone_from`, which for `MemSystem` and
//! its caches — nearly all of a snapshot's bytes — copies into the
//! device's existing segment, line and data buffers instead of allocating
//! new ones, so a campaign worker forks every run into one reused `Gpu`.
//! Those hand-written impls destructure the struct exhaustively (no `..`)
//! in both `clone` and `clone_from`: a newly added field fails to compile
//! until it is captured and restored, so a snapshot can never silently
//! omit state.  The `core/` types keep derived `Clone`, which captures
//! every field by construction.
//!
//! # Resuming through host code
//!
//! A snapshot can be taken *mid-launch*, but the host driver code of a
//! workload (`Workload::run`) is ordinary Rust whose call stack cannot be
//! snapshotted.  The recorder therefore also journals the result of every
//! primitive host API call ([`HostOp`]).  A forked run re-enters
//! `Workload::run` from the top with the restored device state and replays
//! the journaled prefix: host calls before the snapshot return their
//! journaled results without touching device state (device→host copies
//! *must* return journaled bytes — the in-flight launch may already have
//! overwritten those addresses by the snapshot cycle), and the in-flight
//! launch itself resumes the cycle loop from the saved [`LaunchProgress`].
//! Everything after that executes live.

use crate::core::SimtCore;
use crate::mem::{CacheStats, MemSystem};
use crate::stats::{AppStats, LaunchStats};

/// FNV-1a accumulator for canonical state digests.
///
/// The digest walks every piece of machine state in a **fixed canonical
/// order** that is independent of in-memory layout: register files are
/// hashed register-major (`R0` lanes 0..31, then `R1`, …— the AoS order of
/// the original engine), predicates as one packed byte per lane, and taint
/// sets as sorted slot indices.  Refactoring the interpreter's storage
/// (e.g. to structure-of-arrays rows) therefore cannot change a digest
/// unless the architectural state itself changed.
pub(crate) struct StateHasher(u64);

impl StateHasher {
    pub(crate) fn new() -> Self {
        StateHasher(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.u8(b);
        }
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
}

/// Loop-local state of an in-flight kernel launch, captured at the top of
/// the cycle loop so the launch can resume exactly where the recording
/// left off.
#[derive(Debug, Clone)]
pub(crate) struct LaunchProgress {
    /// Kernel name, asserted against the resuming launch call.
    pub(crate) kernel: String,
    /// Next grid-linear CTA awaiting dispatch.
    pub(crate) next_cta: u64,
    /// Application cycle at launch start.
    pub(crate) start_cycle: u64,
    /// Instruction counter baseline at launch start (all cores).
    pub(crate) instr0: u64,
    /// ACE register-cycle baseline at launch start (all cores).
    pub(crate) ace0: u64,
    /// Live-thread × cycle integral accumulated so far.
    pub(crate) thread_cycles: u64,
    /// L1D statistics baseline at launch start.
    pub(crate) l1d0: CacheStats,
    /// L1T statistics baseline at launch start.
    pub(crate) l1t0: CacheStats,
    /// L2 statistics baseline at launch start.
    pub(crate) l20: CacheStats,
    /// Occupancy integral accumulated so far.
    pub(crate) occ_int: f64,
    /// Live-threads-per-SM integral accumulated so far.
    pub(crate) thr_int: f64,
    /// Resident-CTAs-per-SM integral accumulated so far.
    pub(crate) cta_int: f64,
    /// Active-SM cycle integral accumulated so far.
    pub(crate) t_int: u64,
}

/// One complete architectural + microarchitectural state of a [`crate::Gpu`].
///
/// Restoring a snapshot puts back the memory system (global/local/constant
/// segments, L1D/L1T/L1C/L2 arrays with tags, dirty bits and LRU state,
/// timing queues), every SIMT core (register files, predicates, SIMT
/// stacks, barrier and scheduler state, CTA residency), the application
/// cycle and the statistics counters.  The injection-run fields of the
/// `Gpu` (armed faults, watchdog, early-exit mode, injection records) are
/// deliberately *not* part of a snapshot: they belong to the forked run,
/// not to the recorded golden execution.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Application cycle the snapshot was taken at.
    pub(crate) cycle: u64,
    /// The whole memory system.
    pub(crate) mem: MemSystem,
    /// Every SIMT core.
    pub(crate) cores: Vec<SimtCore>,
    /// Per-launch statistics accumulated so far.
    pub(crate) stats: AppStats,
    /// In-flight launch state (`None` for a between-launch snapshot taken
    /// with [`crate::Gpu::snapshot`]).
    pub(crate) progress: Option<LaunchProgress>,
    /// Journal length at capture: host ops that completed before this
    /// snapshot and must be replayed, not re-executed.
    pub(crate) host_ops_done: usize,
}

impl Snapshot {
    /// The application cycle this snapshot was taken at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Approximate heap footprint of the captured state.
    pub fn resident_bytes(&self) -> usize {
        self.mem.resident_bytes()
            + self
                .cores
                .iter()
                .map(SimtCore::resident_bytes)
                .sum::<usize>()
    }

    /// Canonical FNV-1a digest of the captured machine state: the cycle,
    /// every SIMT core (register files in register-major/AoS order,
    /// predicates, SIMT stacks, scheduler and taint state) and the whole
    /// memory system (segments, cache tag/data/LRU arrays, timing queues).
    ///
    /// The canonical order is layout-independent (see [`StateHasher`]), so
    /// two engines with different internal storage produce equal digests
    /// exactly when they hold the same architectural + microarchitectural
    /// state.  Campaign statistics and fork-replay bookkeeping are not
    /// digested — they describe the run, not the machine.
    pub fn state_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        h.u64(self.cycle);
        h.u64(self.cores.len() as u64);
        for core in &self.cores {
            core.digest_into(&mut h);
        }
        self.mem.digest_into(&mut h);
        h.finish()
    }
}

/// One journaled host API call from the recording run, replayed verbatim
/// by forked runs up to their snapshot's `host_ops_done` cursor.
#[derive(Debug, Clone)]
pub(crate) enum HostOp {
    /// `Gpu::malloc` — the returned device pointer.
    Malloc { bytes: u32, ptr: u32 },
    /// `Gpu::memcpy_h2d` — already reflected in the snapshot's memory.
    H2d { ptr: u32, len: usize },
    /// `Gpu::memcpy_d2h` — the bytes the *recording* run read.  Replay
    /// must return these, not re-read restored memory: the in-flight
    /// launch may have overwritten the range by the snapshot cycle, and
    /// host control flow (e.g. BFS's stop-flag loop) branches on them.
    D2h { ptr: u32, data: Vec<u8> },
    /// `Gpu::write_const` — already reflected in the snapshot's memory.
    ConstWrite { offset: u32, len: usize },
    /// `Gpu::launch` — the stats the completed launch returned.
    Launch { kernel: String, stats: LaunchStats },
}

/// A read-only set of golden-run snapshots plus the host-op journal,
/// shared (via `Arc`) across every campaign worker thread.
#[derive(Debug)]
pub struct CheckpointStore {
    /// Snapshots in ascending cycle order.
    pub(crate) snapshots: Vec<Snapshot>,
    /// Every host API call of the recording run, in call order.
    pub(crate) journal: Vec<HostOp>,
    /// The final cycle stride (after any budget-driven doubling).
    pub(crate) interval: u64,
}

impl CheckpointStore {
    /// Number of snapshots held.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The cycle stride snapshots were recorded on (after any
    /// budget-driven stride doubling).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The cycle of snapshot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn snapshot_cycle(&self, idx: usize) -> u64 {
        self.snapshots[idx].cycle
    }

    /// Snapshot `idx` (ascending cycle order), e.g. for state-digest
    /// comparison in fidelity tests.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn snapshot(&self, idx: usize) -> &Snapshot {
        &self.snapshots[idx]
    }

    /// Approximate heap footprint of all held snapshots.
    pub fn resident_bytes(&self) -> usize {
        self.snapshots.iter().map(Snapshot::resident_bytes).sum()
    }

    /// Index of the latest snapshot taken at or before `cycle` — the one a
    /// run whose first fault fires at `cycle` can soundly fork from.
    pub fn nearest_at_or_before(&self, cycle: u64) -> Option<usize> {
        match self.snapshots.partition_point(|s| s.cycle <= cycle) {
            0 => None,
            n => Some(n - 1),
        }
    }
}

/// The in-flight recording state on a `Gpu` (see
/// [`crate::Gpu::record_checkpoints`]).
#[derive(Debug)]
pub(crate) struct Recorder {
    /// Current capture stride, doubled whenever the budget overflows.
    pub(crate) interval: u64,
    /// Next cycle at (or after) which to capture.
    pub(crate) next_at: u64,
    /// Memory budget for the snapshot set, bytes.
    pub(crate) budget_bytes: usize,
    /// Snapshots captured so far, ascending cycle order.
    pub(crate) snapshots: Vec<Snapshot>,
    /// Running footprint of `snapshots`.
    pub(crate) bytes: usize,
    /// Host-op journal.  `RefCell` because `memcpy_d2h` journals through
    /// `&self`.
    pub(crate) journal: std::cell::RefCell<Vec<HostOp>>,
}

impl Recorder {
    pub(crate) fn new(interval: u64, budget_bytes: usize) -> Self {
        assert!(interval > 0, "checkpoint interval must be at least 1 cycle");
        Recorder {
            interval,
            next_at: interval,
            budget_bytes: budget_bytes.max(1),
            snapshots: Vec::new(),
            bytes: 0,
            journal: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Adds a snapshot; when the set would exceed the budget, drops every
    /// other snapshot and doubles the stride (online adaptive re-striding,
    /// so the store never exceeds the budget whatever the golden length).
    pub(crate) fn push(&mut self, snap: Snapshot) {
        self.bytes += snap.resident_bytes();
        self.snapshots.push(snap);
        while self.snapshots.len() >= 2 && self.bytes > self.budget_bytes {
            let mut keep = false;
            self.snapshots.retain(|_| {
                keep = !keep;
                keep
            });
            self.interval = self.interval.saturating_mul(2);
            self.bytes = self.snapshots.iter().map(Snapshot::resident_bytes).sum();
        }
        let last = self.snapshots.last().expect("just pushed").cycle;
        self.next_at = last + self.interval;
    }

    pub(crate) fn into_store(self) -> CheckpointStore {
        CheckpointStore {
            snapshots: self.snapshots,
            journal: self.journal.into_inner(),
            interval: self.interval,
        }
    }
}

/// Replay state on a forked `Gpu`: journaled host calls are returned
/// without touching device state until the cursor reaches the in-flight
/// launch, which resumes the cycle loop from the snapshot.
#[derive(Debug)]
pub(crate) struct Replay {
    /// The shared store the fork came from.
    pub(crate) store: std::sync::Arc<CheckpointStore>,
    /// Next journal index to replay.  `Cell` because `memcpy_d2h` replays
    /// through `&self`.
    pub(crate) cursor: std::cell::Cell<usize>,
    /// Journal index of the in-flight launch (== the snapshot's
    /// `host_ops_done`); replay ends there and execution goes live.
    pub(crate) resume_at: usize,
    /// Index of the snapshot being resumed within `store`.
    pub(crate) snapshot: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cycle: u64) -> Snapshot {
        Snapshot {
            cycle,
            mem: MemSystem::new(&crate::config::GpuConfig::rtx2060()),
            cores: Vec::new(),
            stats: AppStats::default(),
            progress: None,
            host_ops_done: 0,
        }
    }

    #[test]
    fn nearest_at_or_before_picks_the_latest_sound_snapshot() {
        let store = CheckpointStore {
            snapshots: vec![snap(100), snap(200), snap(300)],
            journal: Vec::new(),
            interval: 100,
        };
        assert_eq!(store.nearest_at_or_before(99), None);
        assert_eq!(store.nearest_at_or_before(100), Some(0));
        assert_eq!(store.nearest_at_or_before(250), Some(1));
        assert_eq!(store.nearest_at_or_before(300), Some(2));
        assert_eq!(store.nearest_at_or_before(u64::MAX), Some(2));
    }

    #[test]
    fn recorder_doubles_stride_when_over_budget() {
        // Each RTX 2060 snapshot costs megabytes (cache arrays), so a tiny
        // budget forces re-striding on every push past the first.
        let mut rec = Recorder::new(10, 1);
        for c in 1..=8u64 {
            rec.push(snap(c * 10));
        }
        assert_eq!(rec.snapshots.len(), 1, "budget of 1 byte keeps only one");
        assert!(rec.interval > 10, "stride must have doubled");
    }

    #[test]
    fn store_is_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<CheckpointStore>();
    }

    #[test]
    fn budget_below_one_snapshot_keeps_exactly_one() {
        // A budget smaller than any single snapshot must never empty the
        // store (a store with zero snapshots would silently degrade every
        // run to a cold start) — re-striding stops at one survivor.
        let sz = snap(10).resident_bytes();
        assert!(sz > 1, "rtx2060 snapshots cost real memory");
        let mut rec = Recorder::new(10, 1);
        for c in 1..=6u64 {
            rec.push(snap(c * 10));
            assert_eq!(
                rec.snapshots.len(),
                1,
                "after push {c}: over-budget store must hold exactly one"
            );
        }
        // The survivor of repeated halving is the *earliest* snapshot —
        // the one every fork point can soundly resume from.
        assert_eq!(rec.snapshots[0].cycle, 10);
        let store = rec.into_store();
        assert_eq!(store.len(), 1);
        assert_eq!(store.nearest_at_or_before(5), None);
        for cycle in [10, 35, u64::MAX] {
            assert_eq!(store.nearest_at_or_before(cycle), Some(0), "cycle {cycle}");
        }
    }

    #[test]
    fn stride_doubling_drops_every_other_snapshot() {
        // Budget for exactly two snapshots: the third push overflows,
        // drops the even-indexed survivors and doubles the stride.
        let sz = snap(10).resident_bytes();
        let mut rec = Recorder::new(10, 2 * sz);
        rec.push(snap(10));
        rec.push(snap(20));
        assert_eq!(rec.interval, 10, "within budget: stride unchanged");
        assert_eq!(rec.next_at, 30);
        rec.push(snap(30));
        let cycles: Vec<u64> = rec.snapshots.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, [10, 30], "keeps 1st and 3rd of [10, 20, 30]");
        assert_eq!(rec.interval, 20, "stride doubled once");
        assert_eq!(rec.next_at, 30 + 20, "next capture follows the new stride");
        // Overflowing again doubles again.
        rec.push(snap(50));
        let cycles: Vec<u64> = rec.snapshots.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, [10, 50]);
        assert_eq!(rec.interval, 40);
        assert_eq!(rec.into_store().interval(), 40);
    }

    #[test]
    fn recorder_rejects_zero_interval() {
        let r = std::panic::catch_unwind(|| Recorder::new(0, 1024));
        assert!(r.is_err(), "a zero stride would capture every cycle");
    }
}
