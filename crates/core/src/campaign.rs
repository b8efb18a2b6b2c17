//! The injection-campaign controller (the paper's front-end loop, §V.B).

use crate::classify::{classify, detail_of, RunDetail};
use crate::profile::GoldenProfile;
use crate::sampling::{SamplingMode, SamplingSummary, StrataLayout};
use crate::supervisor::{
    campaign_fingerprint, catch_run, strata_hash, stratified_fingerprint, JournalSink, RunJournal,
};
use crate::workload::{Workload, WorkloadError};
use gpufi_faults::{CampaignSpec, DrawError, MaskGenerator, Structure};
use gpufi_isa::analysis::dead_bit_masks;
use gpufi_metrics::{proportional_allocation, stratified_estimate, StratumObservation};
use gpufi_metrics::{FaultEffect, Tally};
use gpufi_sim::{CheckpointStore, FaultTarget, Gpu, GpuConfig, InjectionPlan, KernelWindow, Trap};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default memory budget for the checkpoint store (the recorder doubles
/// its stride rather than exceed this).
pub const DEFAULT_CHECKPOINT_BUDGET: usize = 256 * 1024 * 1024;

/// Auto-sizing target: with `checkpoint_interval == 0` the stride is the
/// golden cycle count divided by this, so a full-length store holds about
/// this many snapshots (fewer once the budget bites).
const AUTO_CHECKPOINT_TARGET: u64 = 24;

/// Configuration of one injection campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// The fault shape (structure, bits, scope, …).
    pub spec: CampaignSpec,
    /// Number of injection runs (the paper uses 3 000 per campaign).
    pub runs: usize,
    /// Campaign seed; each run derives its own generator seed from it.
    pub seed: u64,
    /// Target static kernel, or `None` to sample the whole application.
    pub kernel: Option<String>,
    /// Worker threads (0 = autodetect).
    pub threads: usize,
    /// Abort a run as soon as every planned fault's lifetime has provably
    /// ended (classifying it **Masked** with the golden cycle count).
    /// Disable to force full simulation of every run — the validation mode
    /// behind `--no-early-exit`.
    pub early_exit: bool,
    /// Fork each run from the nearest golden-run checkpoint at or before
    /// its first injection cycle instead of cold-starting at cycle 0.
    /// Disable to force cold starts — the validation mode behind
    /// `--no-checkpoints`.
    pub checkpoints: bool,
    /// Checkpoint stride in cycles; `0` auto-sizes from the golden cycle
    /// count and the memory budget.
    pub checkpoint_interval: u64,
    /// Memory budget for the checkpoint store, in bytes; the recorder
    /// drops every other snapshot and doubles its stride rather than
    /// exceed it.
    pub checkpoint_budget: usize,
    /// Restrict injection cycles to `[start, end)` (intersected with the
    /// kernel windows); `None` samples the whole golden run.
    pub cycle_window: Option<(u64, u64)>,
    /// Differential-oracle validation mode (`--oracle-check`): the golden
    /// run executes in lockstep with the functional reference interpreter
    /// (any divergence aborts the campaign), and every injection run that
    /// fault-lifetime early exit *would* classify as Masked is instead
    /// simulated to completion and its final global-memory image compared
    /// against the oracle's prediction.  Forces full simulation (implies
    /// `--no-early-exit` semantics for the run loop) while keeping run
    /// records identical to the optimized engine's.
    #[serde(default)]
    pub oracle_check: bool,
    /// Path of the crash-safe run journal (`<out>.journal.jsonl`): one
    /// fsync'd JSON line per completed run, written incrementally by the
    /// workers.  `None` disables journaling.
    #[serde(default)]
    pub journal: Option<String>,
    /// Resume from an existing journal at [`CampaignConfig::journal`]:
    /// validate its fingerprint, load the completed records and schedule
    /// only the missing run indices.  The resumed campaign's records and
    /// `Tally` are bit-identical to an uninterrupted run's.  When the
    /// journal file does not exist the campaign simply starts fresh.
    #[serde(default)]
    pub resume: bool,
    /// Pre-classify register-file runs whose every fault targets a
    /// **statically dead** register — one none of whose bits a reachable
    /// instruction of the faulted kernel ever demands — as Masked at the
    /// golden cycle count, without forking a simulation (ACE-style pruning
    /// over the bit-level liveness in `gpufi_isa::analysis`).  Disable to force full
    /// simulation of every run — the validation mode behind
    /// `--no-static-prune`.  Ignored (off) under `oracle_check`, which
    /// exists to validate exactly such shortcuts.
    pub static_prune: bool,
    /// Extend the static prune to **bit granularity**: a transient
    /// register-file run whose every flipped bit lands in a bit position no
    /// reachable instruction of the faulted kernel ever demands (bit-level
    /// liveness over `gpufi_isa::analysis::bit_liveness`) is pre-classified
    /// Masked at the golden cycle count, even when the register itself is
    /// live.  Subordinate to [`CampaignConfig::static_prune`] (both must be
    /// on), bypassed under `oracle_check`, restricted to transient fault
    /// models, and rejected under stratified sampling, whose stratum
    /// weights are not bit-aware.  Disable with `--no-bit-prune`.
    #[serde(default)]
    pub bit_prune: bool,
    /// Per-run wall-clock watchdog in milliseconds (`0` = off): a run
    /// whose *real* time exceeds this aborts with a wall-clock trap and
    /// classifies **Timeout**, complementing the 2×-golden-cycles cycle
    /// watchdog for flips that livelock the simulator inside a cycle.
    #[serde(default)]
    pub max_run_ms: u64,
    /// How runs are drawn from the fault population (`--sampling`):
    /// [`SamplingMode::Flat`] simulates every drawn run; with
    /// [`SamplingMode::Stratified`] the budget covers only the
    /// liveness-interval live strata, the analytically-masked mass is
    /// classified without simulation, and [`CampaignResult::sampling`]
    /// carries the reweighted estimate (register-file campaigns only).
    #[serde(default)]
    pub sampling: SamplingMode,
}

impl CampaignConfig {
    /// A whole-application campaign with the given fault shape.
    pub fn new(spec: CampaignSpec, runs: usize, seed: u64) -> Self {
        CampaignConfig {
            spec,
            runs,
            seed,
            kernel: None,
            threads: 0,
            early_exit: true,
            checkpoints: true,
            checkpoint_interval: 0,
            checkpoint_budget: DEFAULT_CHECKPOINT_BUDGET,
            cycle_window: None,
            oracle_check: false,
            journal: None,
            resume: false,
            static_prune: true,
            bit_prune: true,
            max_run_ms: 0,
            sampling: SamplingMode::Flat,
        }
    }

    /// Restricts injections to all invocations of one static kernel.
    pub fn for_kernel(mut self, kernel: impl Into<String>) -> Self {
        self.kernel = Some(kernel.into());
        self
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Disables fault-lifetime early exit (full-simulation validation mode).
    pub fn no_early_exit(mut self) -> Self {
        self.early_exit = false;
        self
    }

    /// Disables checkpoint forking (cold-start validation mode).
    pub fn no_checkpoints(mut self) -> Self {
        self.checkpoints = false;
        self
    }

    /// Disables static dead-register pruning (full-simulation validation
    /// mode; see [`CampaignConfig::static_prune`]).
    pub fn no_static_prune(mut self) -> Self {
        self.static_prune = false;
        self
    }

    /// Disables bit-granular dead-bit pruning while keeping the
    /// register-level prune (validation mode; see
    /// [`CampaignConfig::bit_prune`]).
    pub fn no_bit_prune(mut self) -> Self {
        self.bit_prune = false;
        self
    }

    /// Enables differential-oracle validation (see
    /// [`CampaignConfig::oracle_check`]).
    pub fn with_oracle_check(mut self) -> Self {
        self.oracle_check = true;
        self
    }

    /// Sets the checkpoint stride in cycles (`0` = auto-size).
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Enables the crash-safe run journal at `path`.
    pub fn with_journal(mut self, path: impl Into<String>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Resumes from the journal configured via [`CampaignConfig::with_journal`].
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Sets the per-run wall-clock watchdog (`0` = off).
    pub fn with_max_run_ms(mut self, ms: u64) -> Self {
        self.max_run_ms = ms;
        self
    }

    /// Restricts injection cycles to `[start, end)`.
    pub fn with_cycle_window(mut self, start: u64, end: u64) -> Self {
        self.cycle_window = Some((start, end));
        self
    }

    /// Enables liveness-interval stratified sampling (see
    /// [`CampaignConfig::sampling`]).  Clears [`CampaignConfig::bit_prune`]:
    /// the stratum weights are register-level liveness intervals, not
    /// bit-aware, so bit pruning under stratification would bias the
    /// reweighted estimate and is rejected by the campaign.
    pub fn stratified(mut self) -> Self {
        self.sampling = SamplingMode::Stratified;
        self.bit_prune = false;
        self
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// The outcome of one injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunRecord {
    /// The classified fault effect.
    pub effect: FaultEffect,
    /// Total cycles of the (possibly aborted) run.
    pub cycles: u64,
    /// Whether the fault actually changed state (e.g. cache flips on
    /// invalid lines change nothing).
    pub applied: bool,
    /// Whether the run was cut short because every fault's lifetime ended
    /// (always classified **Masked** with the golden cycle count).
    pub early_exit: bool,
    /// Golden-run cycles skipped by forking from a checkpoint instead of
    /// cold-starting (`0` = cold start).
    pub ckpt_skipped_cycles: u64,
    /// Sub-classification of the outcome: which trap kind a Crash was,
    /// which watchdog a Timeout was, or [`RunDetail::SimPanic`] for a run
    /// the supervisor quarantined after a reproducible simulator panic.
    #[serde(default)]
    pub detail: RunDetail,
    /// Index of the live stratum this run was drawn from, or `None` in a
    /// flat campaign (the trailing `stratum` CSV/journal column).
    #[serde(default)]
    pub stratum: Option<u32>,
}

/// Throughput of one distributed worker, as observed by the coordinator
/// (the lease-merge side, so network latency is included).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct WorkerThroughput {
    /// Coordinator-assigned worker id (connection order).
    pub worker: u32,
    /// Runs this worker was the first to complete (duplicates from
    /// reissued leases are credited to whoever merged first).
    pub runs: usize,
    /// Leases granted to this worker.
    pub leases: usize,
    /// Merged runs per second between this worker's handshake and its
    /// last merge.
    pub runs_per_sec: f64,
}

/// Wall-clock throughput and fault-behaviour statistics of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CampaignStats {
    /// Total wall-clock time of the campaign, in milliseconds.
    pub wall_ms: f64,
    /// Injection runs completed per second of wall-clock time.
    pub runs_per_sec: f64,
    /// Worker threads that executed the campaign.
    pub threads: usize,
    /// Runs whose fault actually changed machine state.
    pub applied: usize,
    /// `applied / runs`.
    pub applied_rate: f64,
    /// Runs cut short by fault-lifetime early exit.
    pub early_exits: usize,
    /// `early_exits / runs`.
    pub early_exit_rate: f64,
    /// Snapshots held in the checkpoint store (0 = checkpoints disabled).
    pub checkpoints: usize,
    /// Approximate resident bytes of the checkpoint store.
    pub checkpoint_bytes: usize,
    /// Runs that forked from a checkpoint instead of cold-starting.
    pub restores: usize,
    /// Mean golden-run cycles skipped per run by checkpoint forking.
    pub mean_skipped_cycles: f64,
    /// Runs executed under the differential oracle (`--oracle-check`).
    #[serde(default)]
    pub oracle_checked: usize,
    /// Oracle-checked runs that early exit would have cut short, fully
    /// simulated and confirmed to end in the oracle-predicted state.
    #[serde(default)]
    pub oracle_verified: usize,
    /// Oracle-checked runs where the early-exit verdict was *wrong*: the
    /// fully simulated run did not end Masked at the golden cycle count
    /// with the oracle's global-memory image.  Must be zero.
    #[serde(default)]
    pub oracle_mismatches: usize,
    /// Run attempts that ended in a simulator-internal panic (caught and
    /// isolated by the supervisor; a run that panics on both its first
    /// attempt and its retry counts twice).
    #[serde(default)]
    pub panics: usize,
    /// Panicked runs the supervisor re-executed once, on a freshly built
    /// device, to distinguish deterministic poison runs from incidental
    /// failures.
    #[serde(default)]
    pub retries: usize,
    /// Runs pre-classified Masked by the static dead-register prune and
    /// never simulated (see [`CampaignConfig::static_prune`]).
    #[serde(default)]
    pub static_pruned: usize,
    /// `static_pruned / runs`.
    #[serde(default)]
    pub static_pruned_rate: f64,
    /// Runs pre-classified Masked by the bit-granular dead-bit prune —
    /// live register, statically dead flipped bits — and never simulated
    /// (see [`CampaignConfig::bit_prune`]).  Disjoint from
    /// [`CampaignStats::static_pruned`].
    #[serde(default)]
    pub static_bit_pruned: usize,
    /// `static_bit_pruned / runs`.
    #[serde(default)]
    pub static_bit_pruned_rate: f64,
    /// Completed runs loaded from the journal instead of executed
    /// (`--resume`).
    #[serde(default)]
    pub resumed: usize,
    /// Bytes appended to the run journal by this campaign (0 = journaling
    /// off).
    #[serde(default)]
    pub journal_bytes: u64,
    /// Wall-clock milliseconds spent writing and fsyncing journal lines —
    /// the journal's overhead, reported so regressions are visible.
    #[serde(default)]
    pub journal_ms: f64,
    /// Runs that actually forked a simulation: `runs − static_pruned` in a
    /// flat campaign, the full budget in a stratified one.
    #[serde(default)]
    pub simulated_runs: usize,
    /// Runs' worth of flat-campaign coverage this campaign bought: the run
    /// count itself for a flat campaign (pruned runs are still classified
    /// runs), `runs / live_weight` for a stratified campaign, whose budget
    /// covers only the live fraction of the population.
    #[serde(default)]
    pub effective_runs: f64,
    /// [`CampaignStats::simulated_runs`] per second of wall-clock time —
    /// the cost-side throughput.
    #[serde(default)]
    pub sim_runs_per_sec: f64,
    /// [`CampaignStats::effective_runs`] per second of wall-clock time —
    /// the coverage-side throughput the sampling optimizations improve.
    #[serde(default)]
    pub effective_runs_per_sec: f64,
    /// Distributed campaigns only: workers that completed the handshake
    /// (0 = single-process campaign).
    #[serde(default)]
    pub workers: usize,
    /// Distributed campaigns only: leases granted, including reissues.
    #[serde(default)]
    pub leases: usize,
    /// Distributed campaigns only: leases reclaimed from a dead, stalled
    /// or misbehaving worker and granted again.
    #[serde(default)]
    pub reissued_leases: usize,
    /// Distributed campaigns only: run completions discarded because an
    /// earlier ack (from a reissued lease's original owner, or a
    /// duplicated frame) already filled the slot.
    #[serde(default)]
    pub duplicate_acks: usize,
    /// Distributed campaigns only: per-worker merge throughput, in
    /// worker-id order.
    #[serde(default)]
    pub worker_throughput: Vec<WorkerThroughput>,
}

/// The aggregated result of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The fault shape that was injected.
    pub spec: CampaignSpec,
    /// The targeted kernel (`None` = whole application).
    pub kernel: Option<String>,
    /// Aggregated fault-effect counts.
    pub tally: Tally,
    /// Per-run records, in run order.
    pub records: Vec<RunRecord>,
    /// Throughput and fault-behaviour statistics (excluded from equality:
    /// two identical campaigns differ in wall-clock time).
    pub stats: CampaignStats,
    /// Stratified-sampling layout, allocation and reweighted estimate
    /// (`None` in flat campaigns).  Excluded from equality along with
    /// `stats`: the records already determine it.
    #[serde(default)]
    pub sampling: Option<SamplingSummary>,
}

impl PartialEq for CampaignResult {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.kernel == other.kernel
            && self.tally == other.tally
            && self.records == other.records
    }
}

/// Why a campaign could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The mask generator could not draw a fault (empty structure or
    /// windows).
    Draw(DrawError),
    /// The targeted kernel never executed in the golden run.
    UnknownKernel(String),
    /// The lockstep golden run diverged from the reference interpreter —
    /// the simulator itself (not an injection) is functionally wrong.
    OracleDivergence(String),
    /// The run journal could not be created, read or appended, or the
    /// journal on disk belongs to a different campaign (fingerprint or
    /// run-count mismatch).
    Journal(String),
    /// A supervisor invariant broke: the workers finished without
    /// producing a record for these run indices.  Reported instead of
    /// panicking so the caller sees *which* runs went missing.
    Internal(Vec<usize>),
    /// Stratified sampling cannot be set up for this campaign: the
    /// structure is not the register file, the window leaves no live
    /// strata, or the run budget is smaller than the stratum count.
    Sampling(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Draw(e) => write!(f, "cannot draw fault: {e}"),
            CampaignError::UnknownKernel(k) => write!(f, "kernel `{k}` not in golden profile"),
            CampaignError::OracleDivergence(d) => write!(f, "oracle check failed: {d}"),
            CampaignError::Journal(e) => write!(f, "run journal: {e}"),
            CampaignError::Internal(missing) => write!(
                f,
                "internal supervisor error: no record for run indices {missing:?}"
            ),
            CampaignError::Sampling(e) => write!(f, "stratified sampling: {e}"),
        }
    }
}

impl Error for CampaignError {}

impl From<DrawError> for CampaignError {
    fn from(e: DrawError) -> Self {
        CampaignError::Draw(e)
    }
}

/// Derives the per-run generator seed: the `run_idx`-th output of a
/// splitmix64 stream started at `seed`.  The full-avalanche finalizer keeps
/// every (seed, run) pair distinct — unlike the previous
/// `seed * C ^ run_idx` mix, which collapsed all runs of seed 0 onto the
/// bare run index (and made seed 0 share masks with seed 1).
pub(crate) fn mix_seed(seed: u64, run_idx: u64) -> u64 {
    let mut z = seed.wrapping_add(run_idx.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pre-drawn injection run: its fault plan, the cycle of its earliest
/// fault (the fork point bound), and the static kernel the faults land in
/// (the dead-register prune's lookup key).  Crate-visible so distributed
/// workers replay exactly the plans the coordinator partitioned.
#[derive(Debug, Clone)]
pub(crate) struct RunPlan {
    pub(crate) plan: InjectionPlan,
    pub(crate) first_cycle: u64,
    pub(crate) kernel: String,
    /// Live-stratum index the run was allocated to (stratified campaigns).
    pub(crate) stratum: Option<u32>,
}

/// Intersects kernel windows with an optional cycle range, dropping
/// windows the range empties.
fn clamp_windows(windows: Vec<KernelWindow>, range: Option<(u64, u64)>) -> Vec<KernelWindow> {
    let Some((lo, hi)) = range else {
        return windows;
    };
    windows
        .into_iter()
        .filter_map(|w| {
            let start = w.start.max(lo);
            let end = w.end.min(hi);
            (start < end).then_some(KernelWindow {
                kernel: w.kernel,
                start,
                end,
            })
        })
        .collect()
}

/// Draws every run's injection plan up front.
///
/// The window set and the per-kernel fault-space lookups are campaign
/// invariants — computing them here (once) instead of inside every run
/// also moves all fallible work ahead of the worker threads, so the run
/// loop itself cannot fail.
pub(crate) fn draw_plans(
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Result<Vec<RunPlan>, CampaignError> {
    let windows: Vec<KernelWindow> =
        clamp_windows(golden.windows(cfg.kernel.as_deref()), cfg.cycle_window);
    if windows.is_empty() {
        return Err(match &cfg.kernel {
            Some(k) => CampaignError::UnknownKernel(k.clone()),
            None => CampaignError::Draw(DrawError::EmptyWindows),
        });
    }
    let kernel_space = match &cfg.kernel {
        Some(k) => Some(
            golden
                .fault_spaces
                .get(k)
                .ok_or_else(|| CampaignError::UnknownKernel(k.clone()))?,
        ),
        None => None,
    };

    let mut plans = Vec::with_capacity(cfg.runs);
    for run_idx in 0..cfg.runs as u64 {
        // Derive a per-run generator so results are independent of both
        // the thread interleaving and the execution order.
        let mut gen = MaskGenerator::new(mix_seed(cfg.seed, run_idx));
        // For whole-application campaigns, the per-kernel fault space
        // follows the drawn cycle's kernel; approximate by drawing the
        // window first.
        let (plan, kernel) = match kernel_space {
            Some(space) => (
                gen.draw(&cfg.spec, space, &windows)?,
                cfg.kernel.clone().expect("kernel_space implies a kernel"),
            ),
            None => {
                let w = pick_weighted(&mut gen, &windows)?;
                let space = golden
                    .fault_spaces
                    .get(&w.kernel)
                    .ok_or_else(|| CampaignError::UnknownKernel(w.kernel.clone()))?;
                (
                    gen.draw(&cfg.spec, space, std::slice::from_ref(w))?,
                    w.kernel.clone(),
                )
            }
        };
        let first_cycle = plan.faults.iter().map(|f| f.cycle).min().unwrap_or(0);
        plans.push(RunPlan {
            plan,
            first_cycle,
            kernel,
            stratum: None,
        });
    }
    Ok(plans)
}

/// Draws every run of a stratified campaign: builds the liveness-interval
/// strata, splits the budget proportionally to the stratum weights, and
/// draws each run's fault *within* its stratum (the stratum's register,
/// a cycle uniform over its live segments).
///
/// Run indices are assigned to strata in layout order by prefix sums and
/// each run's generator still derives from `mix_seed(seed, run_idx)`, so
/// the draw stays independent of thread count and execution order, and a
/// resumed campaign reproduces it bit for bit.
pub(crate) fn draw_stratified_plans(
    workload: &dyn Workload,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Result<(Vec<RunPlan>, StrataLayout, Vec<usize>), CampaignError> {
    if cfg.spec.structure != Structure::RegisterFile {
        return Err(CampaignError::Sampling(format!(
            "structure {:?} has no liveness intervals; stratified sampling targets the register \
             file",
            cfg.spec.structure
        )));
    }
    if cfg.spec.model.is_permanent() {
        // Liveness-interval strata weight faults by *transient* lifetimes:
        // a bit flipped outside a live interval is provably masked.  A
        // stuck-at fault re-pins on every write for the rest of the run, so
        // that masking argument (and the analytic masked mass) does not
        // hold — permanent-model campaigns must sample flat.
        return Err(CampaignError::Sampling(format!(
            "fault model `{}` cannot be stratified: liveness strata assume transient \
             single-cycle lifetimes; use --sampling flat",
            cfg.spec.model
        )));
    }
    if cfg.bit_prune {
        // Stratum weights come from register-level liveness intervals;
        // pre-classifying bit-dead runs inside a live stratum would skew
        // the reweighted estimate.  Reject until the weights are bit-aware.
        return Err(CampaignError::Sampling(
            "bit-granular pruning cannot be combined with stratified sampling: stratum \
             weights are not bit-aware; pass --no-bit-prune"
                .into(),
        ));
    }
    let layout = StrataLayout::build(workload, golden, cfg.kernel.as_deref(), cfg.cycle_window)
        .map_err(CampaignError::Sampling)?;
    if layout.strata.is_empty() {
        return Err(CampaignError::Sampling(
            "every register is provably masked in this window; nothing to simulate".into(),
        ));
    }
    if cfg.runs < layout.strata.len() {
        return Err(CampaignError::Sampling(format!(
            "budget of {} runs cannot cover {} live strata; raise --runs or restrict --kernel",
            cfg.runs,
            layout.strata.len()
        )));
    }
    let weights: Vec<f64> = layout.strata.iter().map(|s| s.weight).collect();
    let allocation = proportional_allocation(&weights, cfg.runs);
    let mut plans = Vec::with_capacity(cfg.runs);
    for (s, (stratum, &n)) in layout.strata.iter().zip(&allocation).enumerate() {
        for _ in 0..n {
            let run_idx = plans.len() as u64;
            let mut gen = MaskGenerator::new(mix_seed(cfg.seed, run_idx));
            let plan = gen
                .draw_register_stratum(&cfg.spec, &stratum.segments, stratum.reg)
                .map_err(CampaignError::Draw)?;
            let first_cycle = plan.faults.iter().map(|f| f.cycle).min().unwrap_or(0);
            plans.push(RunPlan {
                plan,
                first_cycle,
                kernel: stratum.kernel.clone(),
                stratum: Some(s as u32),
            });
        }
    }
    debug_assert_eq!(plans.len(), cfg.runs);
    Ok((plans, layout, allocation))
}

/// Per-kernel statically-dead bit masks — bit `b` of register `r` is set
/// when no reachable instruction's bit-level live-in set ever demands it,
/// and a full mask marks a register whose value nothing observes —
/// computed once per campaign from the workload's module (the bit-level
/// liveness in `gpufi_isa::analysis::bit_liveness`).
fn dead_bit_table(workload: &dyn Workload) -> BTreeMap<String, Vec<u32>> {
    workload
        .module()
        .kernels()
        .iter()
        .map(|k| (k.name().to_string(), dead_bit_masks(k)))
        .collect()
}

/// The static-prune verdict for one fault plan, given the faulted kernel's
/// dead-bit masks `dead`; `None` when the run must be simulated.
///
/// - [`RunDetail::StaticDead`] when every fault is a register-file fault
///   into a register with a full dead mask: no reachable instruction can
///   ever observe any of its bits, so the architecturally-correct-execution
///   argument holds unconditionally.  Registers are zero-reinitialized at
///   every launch, so a dead fault cannot leak into a later kernel either.
///   The argument holds for permanent stuck-at faults too: a stuck site
///   binds to the faulted thread's physical register and dies with it, and
///   re-pinning bits nothing demands is as unobservable as flipping them
///   once.
/// - [`RunDetail::StaticDeadBit`] when `bit_prune` holds and every flipped
///   bit of every register-file fault lies inside its register's mask: the
///   flip cannot propagate into any computed value, address, store or
///   predicate.  Only sound for transient flips — a stuck-at re-pins the
///   bit after every write — so the caller gates `bit_prune` on the model.
fn static_prune_detail(plan: &InjectionPlan, dead: &[u32], bit_prune: bool) -> Option<RunDetail> {
    let faults: Vec<(u32, &[u8])> = plan
        .faults
        .iter()
        .map(|f| match &f.target {
            FaultTarget::RegisterFile { reg, bits, .. } => {
                dead.get(*reg as usize).map(|&m| (m, bits.as_slice()))
            }
            _ => None,
        })
        .collect::<Option<_>>()?;
    if faults.is_empty() {
        None
    } else if faults.iter().all(|&(m, _)| m == u32::MAX) {
        Some(RunDetail::StaticDead)
    } else if bit_prune
        && faults
            .iter()
            .all(|&(m, bits)| bits.iter().all(|&b| b < 32 && (m >> b) & 1 == 1))
    {
        Some(RunDetail::StaticDeadBit)
    } else {
        None
    }
}

/// The static prune, shared by the single-process scheduler and the
/// distributed coordinator so a pruned campaign is byte-identical either
/// way: every still-empty slot whose run [`static_prune_detail`] proves
/// Masked is filled (through `fill`) and journalled for resume, and is
/// never scheduled.
///
/// `--oracle-check` exists to validate such shortcuts, so it bypasses the
/// prune and fully simulates every run.  Stratified campaigns skip it too:
/// their draw already excludes dead registers (they fall in the
/// analytically-masked stratum), so every planned run must be simulated
/// for the reweighting to stay unbiased.  The bit-granular verdict needs
/// [`CampaignConfig::bit_prune`] and a transient fault model.
pub(crate) fn static_prune<T>(
    workload: &dyn Workload,
    cfg: &CampaignConfig,
    plans: &[RunPlan],
    golden_cycles: u64,
    slots: &mut [Option<T>],
    journal: Option<&JournalSink>,
    fill: impl Fn(RunRecord) -> T,
) {
    if !cfg.static_prune || cfg.oracle_check || cfg.sampling != SamplingMode::Flat {
        return;
    }
    let dead = dead_bit_table(workload);
    let bit_prune = cfg.bit_prune && !cfg.spec.model.is_permanent();
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        let plan = &plans[i];
        let Some(detail) = dead
            .get(&plan.kernel)
            .and_then(|d| static_prune_detail(&plan.plan, d, bit_prune))
        else {
            continue;
        };
        // Exactly what the fault-lifetime early exit records for a flip the
        // machine provably never reads back, so pruned and unpruned
        // campaigns stay diffable.
        let rec = RunRecord {
            effect: FaultEffect::Masked,
            cycles: golden_cycles,
            applied: true,
            early_exit: false,
            ckpt_skipped_cycles: 0,
            detail,
            stratum: plan.stratum,
        };
        if let Some(s) = journal {
            s.append(i, &rec);
        }
        *slot = Some(fill(rec));
    }
}

/// Re-runs the golden execution once with the checkpoint recorder armed
/// and publishes the store for the workers.  Returns `None` (cold starts
/// for everyone) if the recording pass fails — it should not, since
/// profiling already succeeded.
pub(crate) fn record_store(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Option<Arc<CheckpointStore>> {
    let interval = match cfg.checkpoint_interval {
        0 => (golden.total_cycles() / AUTO_CHECKPOINT_TARGET).max(1),
        n => n,
    };
    let mut gpu = Gpu::new(card.clone());
    gpu.record_checkpoints(interval, cfg.checkpoint_budget);
    workload.run(&mut gpu).ok()?;
    Some(Arc::new(gpu.finish_checkpoint_recording()))
}

/// Runs the workload once with the differential oracle attached,
/// verifying the simulator's golden execution instruction-semantics-level
/// against the functional reference interpreter, and returns the oracle's
/// final global-memory image (the state every Masked run must land on).
fn oracle_golden_image(
    workload: &dyn Workload,
    card: &GpuConfig,
) -> Result<Vec<u8>, CampaignError> {
    let mut gpu = Gpu::new(card.clone());
    gpu.attach_oracle();
    let result = workload.run(&mut gpu);
    if let Some(d) = gpu.oracle_divergence() {
        return Err(CampaignError::OracleDivergence(d.to_string()));
    }
    result
        .map_err(|e| CampaignError::OracleDivergence(format!("lockstep golden run failed: {e}")))?;
    Ok(gpu.oracle_global_image().expect("oracle attached above"))
}

/// An injection run's oracle verdict (all `false` outside `--oracle-check`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OracleVerdict {
    /// The run executed under the early-exit probe.
    checked: bool,
    /// Early exit would have fired and the full simulation confirmed it:
    /// Masked, golden cycle count, oracle-predicted memory image.
    verified: bool,
    /// Early exit would have fired but the full simulation disagreed.
    mismatch: bool,
}

/// One supervised run's outcome (see [`Executor::supervised`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Supervised {
    pub(crate) rec: RunRecord,
    pub(crate) verdict: OracleVerdict,
    /// Panicking attempts caught: `0`, `1` (the retry succeeded) or `2`
    /// (the run is recorded as the poison verdict).
    pub(crate) panics: usize,
}

/// Everything an injection run needs besides its plan and its device,
/// shared by every worker of one campaign — the local scheduler's threads
/// and a service worker's lease loop alike.
///
/// Each worker owns one device slot (`Option<Gpu>`) for its whole life
/// and passes it to every run: a run forks by restoring a snapshot into
/// the slot's [`Gpu`] in place, so no per-run allocation scales with chip
/// capacity.  A fresh `Gpu::new` is built when the slot is first used, for
/// a cold start (no snapshot at or before the first fault cycle, or
/// checkpoints off) and after a caught panic, whose unwinding may have
/// left the device half-updated.  The slot is emptied before its
/// replacement is built, so a worker never holds two devices at once.
pub(crate) struct Executor<'a> {
    pub(crate) workload: &'a dyn Workload,
    pub(crate) card: &'a GpuConfig,
    pub(crate) cfg: &'a CampaignConfig,
    pub(crate) golden: &'a GoldenProfile,
    pub(crate) plans: &'a [RunPlan],
    pub(crate) store: Option<&'a Arc<CheckpointStore>>,
    pub(crate) oracle_img: Option<&'a [u8]>,
    pub(crate) hook: Option<&'a FaultHook>,
}

impl Executor<'_> {
    /// A fresh device for this campaign's chip.
    fn fresh_gpu(&self) -> Gpu {
        Gpu::new(self.card.clone())
    }

    /// Executes run `i` on the worker's `device` under the supervisor: a
    /// panicking attempt is caught, the device discarded and the run
    /// retried once on a fresh one; a panic that reproduces becomes the
    /// deterministic poison verdict — Crash, `sim_panic` — so a resumed or
    /// distributed campaign records it bit for bit.
    pub(crate) fn supervised(&self, device: &mut Option<Gpu>, i: usize) -> Supervised {
        let mut panics = 0;
        for attempt in 0..2 {
            let out = catch_run(|| {
                if let Some(h) = self.hook {
                    h(i, attempt);
                }
                self.one_run(device, &self.plans[i])
            });
            match out {
                Ok((rec, verdict)) => {
                    return Supervised {
                        rec,
                        verdict,
                        panics,
                    }
                }
                Err(_msg) => {
                    panics += 1;
                    *device = None;
                }
            }
        }
        let rec = RunRecord {
            effect: FaultEffect::Crash,
            cycles: 0,
            applied: true,
            early_exit: false,
            ckpt_skipped_cycles: 0,
            detail: RunDetail::SimPanic,
            stratum: self.plans[i].stratum,
        };
        Supervised {
            rec,
            verdict: OracleVerdict::default(),
            panics,
        }
    }

    /// Executes one pre-drawn injection run on the worker's `device` and
    /// classifies it.
    fn one_run(&self, device: &mut Option<Gpu>, run: &RunPlan) -> (RunRecord, OracleVerdict) {
        // Fork from the nearest checkpoint at or before the first injection
        // cycle — state up to that cycle is bit-identical to the golden
        // run's, so the head of the run need not be re-simulated.
        let fork = self
            .store
            .and_then(|s| Some((s, s.nearest_at_or_before(run.first_cycle)?)));
        let (gpu, ckpt_skipped_cycles) = match fork {
            Some((store, idx)) => {
                let gpu = device.get_or_insert_with(|| self.fresh_gpu());
                gpu.resume_from(store, idx);
                (gpu, store.snapshot_cycle(idx))
            }
            None => {
                // Free the used device before allocating its replacement.
                *device = None;
                (device.insert(self.fresh_gpu()), 0)
            }
        };
        let golden_cycles = self.golden.total_cycles();
        gpu.arm_faults(run.plan.clone());
        gpu.set_watchdog(golden_cycles * 2);
        if self.cfg.max_run_ms > 0 {
            gpu.set_wall_watchdog(Duration::from_millis(self.cfg.max_run_ms));
        }
        // Oracle check replaces the early-exit abort with a probe: the exit
        // predicate is still evaluated, but the run completes so its final
        // state can be compared against the oracle's prediction.
        gpu.set_early_exit(self.cfg.early_exit && self.oracle_img.is_none());
        gpu.set_early_exit_probe(self.oracle_img.is_some());
        let result = self.workload.run(gpu);
        let applied = gpu.injection_records().iter().any(|r| r.applied);
        let record = |effect, cycles, early_exit, detail| RunRecord {
            effect,
            cycles,
            applied,
            early_exit,
            ckpt_skipped_cycles,
            detail,
            stratum: run.stratum,
        };
        // Every fault's lifetime ended with the machine state equal to the
        // golden run's, so the remaining execution is the golden execution:
        // Masked, at the golden cycle count.
        let masked_early = record(FaultEffect::Masked, golden_cycles, true, RunDetail::None);
        if matches!(&result, Err(WorkloadError::Trap(Trap::FaultsExpired))) {
            return (masked_early, OracleVerdict::default());
        }
        let cycles = gpu.stats().total_cycles().max(gpu.cycle());
        let effect = classify(&result, cycles, self.golden);
        let full = record(effect, cycles, false, detail_of(&result));
        let Some(img) = self.oracle_img else {
            return (full, OracleVerdict::default());
        };
        let mut verdict = OracleVerdict {
            checked: true,
            ..OracleVerdict::default()
        };
        if gpu.would_early_exit() {
            // Early exit would have recorded Masked at the golden cycle
            // count; the fully simulated run must agree *and* its memory
            // must match the reference interpreter bit for bit.
            if effect == FaultEffect::Masked
                && cycles == golden_cycles
                && gpu.mem().global_image() == img
            {
                verdict.verified = true;
                // Record exactly what the optimized engine records, so the
                // two campaigns' CSVs are directly diffable.
                return (masked_early, verdict);
            }
            verdict.mismatch = true;
        }
        (full, verdict)
    }
}

/// Picks one window with probability proportional to its length.
///
/// # Errors
///
/// Returns [`DrawError::EmptyWindows`] when every window is empty (zero
/// total cycles), instead of the old behaviour of underflowing on a window
/// with `end < start`.
fn pick_weighted<'a>(
    gen: &mut MaskGenerator,
    windows: &'a [KernelWindow],
) -> Result<&'a KernelWindow, DrawError> {
    let total: u64 = windows.iter().map(|w| w.end.saturating_sub(w.start)).sum();
    if total == 0 {
        return Err(DrawError::EmptyWindows);
    }
    let mut r = gen.uniform(total);
    for w in windows {
        let len = w.end.saturating_sub(w.start);
        if r < len {
            return Ok(w);
        }
        r -= len;
    }
    unreachable!("uniform draw below the total window length")
}

/// A test-only fault hook the supervisor invokes at the start of every
/// supervised run attempt, with the run index and the attempt number
/// (`0` = first attempt, `1` = the retry after a caught panic).  A hook
/// that panics emulates a fault corrupting simulator invariants;
/// panic-isolation tests and the CLI's `--inject-panic-run` use it to
/// prove the campaign survives poison runs.
pub type FaultHook = dyn Fn(usize, u32) + Sync + std::panic::RefUnwindSafe;

/// Runs a full campaign: `cfg.runs` independent injection runs of
/// `workload` on `card`, classified against `golden`.
///
/// Every run's fault plan is drawn up front (so draw errors surface before
/// any simulation), then — unless `cfg.checkpoints` is off — one extra
/// golden pass records a [`CheckpointStore`] and each run forks from the
/// nearest snapshot at or before its first injection cycle, simulating only
/// `[nearest_checkpoint, fault_death)` once taint early exit also fires.
///
/// Runs execute on `cfg.threads` worker threads pulling from a shared
/// counter (work stealing) over the runs *sorted by first injection cycle*,
/// so neighbouring runs fork from the same snapshot while it is hot in
/// cache.  Each worker keeps one [`Gpu`] and forks every run into it by
/// restoring the snapshot in place.  The result is identical regardless
/// of thread count and execution order because every run derives its own
/// RNG from the campaign seed and the run index, and records are placed by
/// original run index.
///
/// The campaign is **supervised**: each run executes under
/// `std::panic::catch_unwind`, so a simulator-internal panic is captured
/// per run, the device rebuilt, the run retried once, and — if it
/// reproduces — recorded as **Crash** with [`RunDetail::SimPanic`] while
/// every sibling run completes normally.  With [`CampaignConfig::journal`]
/// set, each completed run is also appended (fsync'd) to a crash-safe
/// journal that [`CampaignConfig::resume`] can restart from after process
/// death.
///
/// # Errors
///
/// Returns [`CampaignError`] when the fault space is empty for this
/// kernel/chip (e.g. L1 data cache on GTX Titan), the kernel is unknown,
/// or the journal cannot be written / does not belong to this campaign.
pub fn run_campaign(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_with_hook(workload, card, cfg, golden, None)
}

/// The campaign fingerprint with the strata layout folded in when the
/// campaign is stratified.  The strata layout and allocation are part of
/// the campaign's identity: folding their hash makes `--resume` (and a
/// distributed handshake) refuse to splice a stratified journal into a
/// flat campaign, or one stratified differently — the records would
/// silently carry the wrong weights.
pub(crate) fn full_fingerprint(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    strata: Option<&(StrataLayout, Vec<usize>)>,
) -> u64 {
    match strata {
        None => campaign_fingerprint(workload.name(), &card.name, cfg),
        Some((layout, allocation)) => stratified_fingerprint(
            campaign_fingerprint(workload.name(), &card.name, cfg),
            strata_hash(&layout.fingerprint_material(allocation)),
        ),
    }
}

/// The [`CampaignStats`] derivable from the finished record set alone —
/// shared by the single-process scheduler and the distributed
/// coordinator, so both report cost-vs-coverage the same way.  Fields the
/// record set cannot determine (threads, checkpoint store, oracle
/// verdicts, journal overhead, service counters) stay at their defaults
/// for the caller to fill in.
pub(crate) fn base_stats(
    records: &[RunRecord],
    strata: Option<&(StrataLayout, Vec<usize>)>,
    wall: f64,
) -> CampaignStats {
    let n = records.len();
    let applied = records.iter().filter(|r| r.applied).count();
    let early_exits = records.iter().filter(|r| r.early_exit).count();
    let restores = records.iter().filter(|r| r.ckpt_skipped_cycles > 0).count();
    let static_pruned = records
        .iter()
        .filter(|r| r.detail == RunDetail::StaticDead)
        .count();
    let static_bit_pruned = records
        .iter()
        .filter(|r| r.detail == RunDetail::StaticDeadBit)
        .count();
    let skipped: u64 = records.iter().map(|r| r.ckpt_skipped_cycles).sum();
    // Cost vs coverage: simulated runs paid for forks; effective runs is
    // the flat-campaign coverage bought — the stratified budget covers only
    // the live population fraction, so dividing by it expresses the
    // campaign in flat-equivalent runs.
    let simulated_runs = if strata.is_some() {
        n
    } else {
        n - static_pruned - static_bit_pruned
    };
    let effective_runs = match strata.map(|(l, _)| l.live_weight()) {
        Some(w) if w > 0.0 => n as f64 / w,
        _ => n as f64,
    };
    CampaignStats {
        wall_ms: wall * 1e3,
        runs_per_sec: if wall > 0.0 { n as f64 / wall } else { 0.0 },
        simulated_runs,
        effective_runs,
        sim_runs_per_sec: if wall > 0.0 {
            simulated_runs as f64 / wall
        } else {
            0.0
        },
        effective_runs_per_sec: if wall > 0.0 {
            effective_runs / wall
        } else {
            0.0
        },
        applied,
        applied_rate: if n > 0 {
            applied as f64 / n as f64
        } else {
            0.0
        },
        early_exits,
        early_exit_rate: if n > 0 {
            early_exits as f64 / n as f64
        } else {
            0.0
        },
        restores,
        mean_skipped_cycles: if n > 0 {
            skipped as f64 / n as f64
        } else {
            0.0
        },
        static_pruned,
        static_pruned_rate: if n > 0 {
            static_pruned as f64 / n as f64
        } else {
            0.0
        },
        static_bit_pruned,
        static_bit_pruned_rate: if n > 0 {
            static_bit_pruned as f64 / n as f64
        } else {
            0.0
        },
        ..CampaignStats::default()
    }
}

/// Stratified reweighting: group the records back into their strata and
/// fold the tallies plus the analytic masked mass into the two-level
/// estimate (at the paper's 99% confidence).
pub(crate) fn sampling_summary(
    layout: &StrataLayout,
    allocation: Vec<usize>,
    records: &[RunRecord],
) -> SamplingSummary {
    let mut tallies = vec![Tally::default(); layout.strata.len()];
    for r in records {
        if let Some(s) = r.stratum {
            tallies[s as usize].record(r.effect);
        }
    }
    let obs: Vec<StratumObservation> = layout
        .strata
        .iter()
        .zip(&tallies)
        .map(|(s, &tally)| StratumObservation {
            weight: s.weight,
            tally,
        })
        .collect();
    let estimate = stratified_estimate(&obs, layout.masked_weight, 0.99);
    SamplingSummary {
        strata: layout.strata.len(),
        masked_weight: layout.masked_weight,
        layout_hash: strata_hash(&layout.fingerprint_material(&allocation)),
        allocation,
        estimate,
    }
}

/// [`run_campaign`] with a [`FaultHook`] injected into every supervised
/// run attempt (`None` behaves exactly like [`run_campaign`]).
pub fn run_campaign_with_hook(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    hook: Option<&FaultHook>,
) -> Result<CampaignResult, CampaignError> {
    let start = Instant::now();
    let (plans, strata) = match cfg.sampling {
        SamplingMode::Flat => (draw_plans(cfg, golden)?, None),
        SamplingMode::Stratified => {
            let (plans, layout, allocation) = draw_stratified_plans(workload, cfg, golden)?;
            (plans, Some((layout, allocation)))
        }
    };

    // Journal / resume: load completed records first, so a resumed
    // campaign schedules (and pays for) only the missing run indices.
    let mut slots: Vec<Option<(RunRecord, OracleVerdict)>> = vec![None; cfg.runs];
    let mut resumed = 0usize;
    let journal: Option<RunJournal> = match &cfg.journal {
        None => None,
        Some(path) => {
            let fp = full_fingerprint(workload, card, cfg, strata.as_ref());
            if cfg.resume && std::path::Path::new(path).exists() {
                let (j, loaded) =
                    RunJournal::resume(path, fp, cfg.runs).map_err(CampaignError::Journal)?;
                for (i, rec) in loaded.into_iter().enumerate() {
                    if let Some(r) = rec {
                        slots[i] = Some((r, OracleVerdict::default()));
                        resumed += 1;
                    }
                }
                Some(j)
            } else {
                Some(RunJournal::create(path, fp, cfg.runs).map_err(CampaignError::Journal)?)
            }
        }
    };
    // All journal writes — static prune and the parallel workers — go
    // through one single-writer append channel, so concurrent completions
    // can never interleave partial lines.  Append errors surface when the
    // writer is joined after the execution loops.
    let (journal_writer, journal_sink) = match journal {
        Some(j) => {
            let (w, s) = j.into_writer();
            (Some(w), Some(s))
        }
        None => (None, None),
    };
    static_prune(
        workload,
        cfg,
        &plans,
        golden.total_cycles(),
        &mut slots,
        journal_sink.as_ref(),
        |rec| (rec, OracleVerdict::default()),
    );
    let pending: Vec<usize> = (0..cfg.runs).filter(|&i| slots[i].is_none()).collect();

    // Oracle validation first: a functionally wrong golden run poisons
    // every classification, so fail before any injection work.  Both the
    // oracle pass and the checkpoint-recording pass are skipped when the
    // journal already covers every run.
    let oracle_img: Option<Arc<Vec<u8>>> = if cfg.oracle_check && !pending.is_empty() {
        Some(Arc::new(oracle_golden_image(workload, card)?))
    } else {
        None
    };
    let img_ref: Option<&[u8]> = oracle_img.as_deref().map(Vec::as_slice);
    let store = if cfg.checkpoints && !pending.is_empty() {
        record_store(workload, card, cfg, golden)
    } else {
        None
    };
    let threads = cfg.effective_threads().clamp(1, pending.len().max(1));

    let mut order = pending;
    order.sort_by_key(|&i| plans[i].first_cycle);

    let exec = Executor {
        workload,
        card,
        cfg,
        golden,
        plans: &plans,
        store: store.as_ref(),
        oracle_img: img_ref,
        hook,
    };
    let panics = AtomicUsize::new(0);
    let retries = AtomicUsize::new(0);
    // One supervised run on the worker's device; a completed run is
    // journaled immediately (crash safety).
    let run_one = |device: &mut Option<Gpu>, i: usize| -> (RunRecord, OracleVerdict) {
        let out = exec.supervised(device, i);
        if out.panics > 0 {
            panics.fetch_add(out.panics, Ordering::Relaxed);
            retries.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(s) = &journal_sink {
            s.append(i, &out.rec);
        }
        (out.rec, out.verdict)
    };

    if threads <= 1 {
        let mut device = None;
        for &i in &order {
            slots[i] = Some(run_one(&mut device, i));
        }
    } else {
        let next = AtomicUsize::new(0);
        let done: Vec<Vec<(usize, (RunRecord, OracleVerdict))>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut device = None;
                        let mut local = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = order.get(k) else { break };
                            local.push((i, run_one(&mut device, i)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                // Run panics are caught inside `run_one`; a worker can only
                // die from a supervisor-infrastructure bug, which must not
                // be masked.
                .map(|h| h.join().expect("supervisor worker died outside a run"))
                .collect()
        });
        for (i, rec) in done.into_iter().flatten() {
            slots[i] = Some(rec);
        }
    }

    // Closing the only sender ends the writer thread; joining it surfaces
    // the first append error, after the in-memory results are complete.
    drop(journal_sink);
    let journal = match journal_writer {
        Some(w) => {
            let j = w.finish().map_err(CampaignError::Journal)?;
            // Rewrite the journal in run-index order so its bytes depend
            // only on the campaign, never on completion order — a
            // `--threads 16` (or distributed) journal is byte-identical to
            // a `--threads 1` one.
            j.finalize_canonical().map_err(CampaignError::Journal)?;
            Some(j)
        }
        None => None,
    };

    // Fill check: a missing slot is a supervisor bug; report which run
    // indices vanished instead of panicking.
    let mut records = Vec::with_capacity(cfg.runs);
    let mut verdicts = Vec::with_capacity(cfg.runs);
    let mut missing = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some((r, v)) => {
                records.push(r);
                verdicts.push(v);
            }
            None => missing.push(i),
        }
    }
    if !missing.is_empty() {
        return Err(CampaignError::Internal(missing));
    }
    let tally: Tally = records.iter().map(|r| r.effect).collect();
    let wall = start.elapsed().as_secs_f64();
    let mut stats = base_stats(&records, strata.as_ref(), wall);
    stats.threads = threads;
    stats.checkpoints = store.as_ref().map_or(0, |s| s.len());
    stats.checkpoint_bytes = store.as_ref().map_or(0, |s| s.resident_bytes());
    stats.oracle_checked = verdicts.iter().filter(|v| v.checked).count();
    stats.oracle_verified = verdicts.iter().filter(|v| v.verified).count();
    stats.oracle_mismatches = verdicts.iter().filter(|v| v.mismatch).count();
    stats.panics = panics.into_inner();
    stats.retries = retries.into_inner();
    stats.resumed = resumed;
    stats.journal_bytes = journal.as_ref().map_or(0, RunJournal::bytes_written);
    stats.journal_ms = journal.as_ref().map_or(0.0, RunJournal::wall_ms);
    let sampling =
        strata.map(|(layout, allocation)| sampling_summary(&layout, allocation, &records));
    Ok(CampaignResult {
        spec: cfg.spec.clone(),
        kernel: cfg.kernel.clone(),
        tally,
        records,
        stats,
        sampling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_separates_seed_zero_from_seed_one() {
        // Regression: the old `seed * C ^ run_idx` mix mapped seed 0 to the
        // bare run index, so seeds 0 and 1 shared fault masks.
        for run in 0..64u64 {
            assert_ne!(mix_seed(0, run), mix_seed(1, run), "run {run}");
        }
    }

    #[test]
    fn mix_seed_separates_runs() {
        let mut seen: Vec<u64> = (0..256).map(|i| mix_seed(0, i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 256, "per-run seeds must be distinct");
    }

    #[test]
    fn pick_weighted_rejects_empty_and_inverted_windows() {
        let mut gen = MaskGenerator::new(1);
        let empty = [KernelWindow {
            kernel: "k".into(),
            start: 10,
            end: 10,
        }];
        assert_eq!(
            pick_weighted(&mut gen, &empty).unwrap_err(),
            DrawError::EmptyWindows
        );
        // An inverted window (end < start) counts as empty instead of
        // underflowing.
        let inverted = [KernelWindow {
            kernel: "k".into(),
            start: 20,
            end: 10,
        }];
        assert_eq!(
            pick_weighted(&mut gen, &inverted).unwrap_err(),
            DrawError::EmptyWindows
        );
    }

    #[test]
    fn pick_weighted_skips_empty_windows() {
        let mut gen = MaskGenerator::new(2);
        let windows = [
            KernelWindow {
                kernel: "a".into(),
                start: 5,
                end: 5,
            },
            KernelWindow {
                kernel: "b".into(),
                start: 10,
                end: 20,
            },
        ];
        for _ in 0..50 {
            let w = pick_weighted(&mut gen, &windows).unwrap();
            assert_eq!(w.kernel, "b");
        }
    }

    #[test]
    fn pick_weighted_visits_every_kernel_window() {
        // Whole-application sampling must reach every kernel's window set,
        // including short windows dwarfed by a dominant kernel (the SRAD
        // shape: three static kernels, two invocations each).
        let windows = [
            KernelWindow {
                kernel: "extract".into(),
                start: 0,
                end: 120,
            },
            KernelWindow {
                kernel: "srad".into(),
                start: 120,
                end: 4000,
            },
            KernelWindow {
                kernel: "compress".into(),
                start: 4000,
                end: 4100,
            },
            KernelWindow {
                kernel: "extract".into(),
                start: 4100,
                end: 4220,
            },
            KernelWindow {
                kernel: "srad".into(),
                start: 4220,
                end: 8100,
            },
            KernelWindow {
                kernel: "compress".into(),
                start: 8100,
                end: 8200,
            },
        ];
        let mut gen = MaskGenerator::new(3);
        let mut hit = std::collections::HashSet::new();
        for _ in 0..400 {
            hit.insert(pick_weighted(&mut gen, &windows).unwrap().kernel.clone());
        }
        assert_eq!(hit.len(), 3, "sampled kernels: {hit:?}");
    }
}
