//! The reference campaigns, the public entry points that run them,
//! and the output checks that every measured campaign must pass.

use gpufi_core::{
    campaign_csv, profile, run_campaign, run_campaign_with_hook, run_worker, serve_campaign,
    CampaignConfig, CampaignResult, FaultHook, GoldenProfile, RunDetail, ServiceConfig,
    WorkerReport, Workload,
};
use gpufi_faults::{CampaignSpec, Structure};
use gpufi_sim::GpuConfig;
use gpufi_workloads::{Gaussian, NeedlemanWunsch};
use std::fmt;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Injection runs per campaign: the ROADMAP reference size.
pub const RUNS: usize = 300;

/// Worker threads of a local campaign: `nproc` of the 2-CPU host the
/// benchmark was defined on.
pub const THREADS: usize = 2;

/// In-process service workers of the served workload.
pub const SERVE_WORKERS: usize = 2;

/// One benchmark workload: a campaign shape and how it is executed.
pub struct Bench {
    pub name: &'static str,
    pub why: &'static str,
    app: fn() -> Box<dyn Workload>,
    /// Served by `serve_campaign` to in-process `run_worker`s, with the
    /// fsync'd journal on.  Local campaigns run without a journal.
    pub served: bool,
}

pub const BENCHES: [Bench; 2] = [
    Bench {
        name: "ge-rf-t2",
        why: "GE register file, transient, 2 threads: 73% of runs early-exit, so per-run \
              state set-up, restore and teardown dominate, and the threads contend in the \
              allocator",
        app: || Box::new(Gaussian::default()),
        served: false,
    },
    Bench {
        name: "nw-rf-serve2",
        why: "NW register file, served to 2 loopback workers with an fsync'd journal: the \
              only workload that writes, leases and merges, with 12% of runs statically \
              pruned",
        app: || Box::new(NeedlemanWunsch::default()),
        served: true,
    },
];

impl Bench {
    pub fn by_name(name: &str) -> Option<&'static Bench> {
        BENCHES.iter().find(|b| b.name == name)
    }

    pub fn workload(&self) -> Box<dyn Workload> {
        (self.app)()
    }

    /// The campaign: register file, transient faults, `runs` runs, the default engine
    /// (checkpoints, early exit, static and bit prune on).
    pub fn config(&self, runs: usize, seed: u64, threads: usize) -> CampaignConfig {
        let spec = CampaignSpec::new(Structure::RegisterFile);
        CampaignConfig::new(spec, runs, seed).with_threads(threads)
    }
}

pub fn card() -> GpuConfig {
    GpuConfig::rtx2060()
}

/// Where journals and span files go: inside the benchmark's own directory,
/// ignored by git.
pub fn out_path(file: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir.join(file)
}

/// The golden profile; a fault-free run that fails is a broken program.
pub fn golden(w: &dyn Workload, card: &GpuConfig) -> Result<GoldenProfile, String> {
    profile(w, card).map_err(|e| format!("golden profile: {e}"))
}

/// One local campaign through `run_campaign_with_hook`.
pub fn run_local(
    w: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    hook: Option<&FaultHook>,
) -> Result<CampaignResult, String> {
    run_campaign_with_hook(w, card, cfg, golden, hook).map_err(|e| format!("campaign: {e}"))
}

/// Timings of one served campaign.
pub struct Served {
    pub result: CampaignResult,
    /// From the campaign's start to `serve_campaign`'s return, when the
    /// merged records and canonical journal are final.
    pub wall: Duration,
    /// Each worker's `run_worker` wall time and report.
    pub workers: Vec<(Duration, WorkerReport)>,
}

/// One served campaign: `serve_campaign` on a loopback listener with
/// [`SERVE_WORKERS`] in-process `run_worker`s, all with default service
/// settings.  `cfg` carries the coordinator's journal.
pub fn run_served(
    w: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Result<Served, String> {
    let svc = ServiceConfig::default();
    let worker_cfg = CampaignConfig {
        journal: None,
        ..cfg.clone()
    };
    let start = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let (served, workers) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_WORKERS)
            .map(|_| {
                let (addr, worker_cfg, svc) = (addr.as_str(), &worker_cfg, &svc);
                scope.spawn(move || {
                    let t = Instant::now();
                    let report = run_worker(addr, w, card, worker_cfg, golden, svc);
                    (t.elapsed(), report)
                })
            })
            .collect();
        let served = serve_campaign(w, card, cfg, golden, &svc, listener)
            .map(|r| (r, start.elapsed()))
            .map_err(|e| format!("serve_campaign: {e}"));
        let workers: Result<Vec<_>, String> = handles
            .into_iter()
            .map(|h| {
                let (t, report) = h.join().expect("worker thread panicked outside a run");
                report
                    .map(|r| (t, r))
                    .map_err(|e| format!("run_worker: {e}"))
            })
            .collect();
        (served, workers)
    });
    let (result, wall) = served?;
    Ok(Served {
        result,
        wall,
        workers: workers?,
    })
}

/// What every measured campaign is checked against: the CSV (and, where
/// the workload journals, the canonical journal) of a serial
/// `threads = 1` in-process `run_campaign` of the same campaign.
pub struct Reference {
    pub runs: usize,
    pub csv: String,
    pub journal: Option<String>,
}

impl Reference {
    pub fn compute(
        b: &Bench,
        w: &dyn Workload,
        card: &GpuConfig,
        golden: &GoldenProfile,
        runs: usize,
        seed: u64,
    ) -> Result<(Reference, CampaignResult), String> {
        let mut cfg = b.config(runs, seed, 1);
        let path = out_path(&format!("{}-{seed}-{runs}-reference.journal.jsonl", b.name));
        if b.served {
            cfg = cfg.with_journal(path.to_string_lossy());
        }
        let result = run_campaign(w, card, &cfg, golden).map_err(|e| format!("reference: {e}"))?;
        let journal = b.served.then(|| take_journal(&path)).transpose()?;
        let reference = Reference {
            runs,
            csv: campaign_csv(&result),
            journal,
        };
        Ok((reference, result))
    }

    fn paths(b: &Bench, seed: u64, runs: usize) -> (PathBuf, PathBuf) {
        let stem = format!("{}-{seed}-{runs}-reference", b.name);
        (
            out_path(&format!("{stem}.csv")),
            out_path(&format!("{stem}.jsonl")),
        )
    }

    /// Hands the reference to the repeat processes.
    pub fn save(&self, b: &Bench, seed: u64) -> Result<(), String> {
        let (csv, journal) = Self::paths(b, seed, self.runs);
        let write = |p: &PathBuf, text: &str| {
            std::fs::write(p, text).map_err(|e| format!("write {}: {e}", p.display()))
        };
        write(&csv, &self.csv)?;
        match &self.journal {
            Some(j) => write(&journal, j),
            None => Ok(()),
        }
    }

    pub fn load(b: &Bench, seed: u64, runs: usize) -> Result<Reference, String> {
        let (csv, journal) = Self::paths(b, seed, runs);
        let read = |p: &PathBuf| {
            std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))
        };
        Ok(Reference {
            runs,
            csv: read(&csv)?,
            journal: b.served.then(|| read(&journal)).transpose()?,
        })
    }
}

/// Reads a finished journal and deletes its file.
pub fn take_journal(path: &std::path::Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let _ = std::fs::remove_file(path);
    Ok(text)
}

/// Runs of `csv` (and `journal`) that do not match the reference: a row or
/// journal line that differs, is missing or is extra, or a run the
/// supervisor quarantined as a simulator panic.
pub fn mismatched_runs(
    reference: &Reference,
    result: &CampaignResult,
    journal: Option<&str>,
) -> usize {
    let csv = campaign_csv(result);
    let mut bad = vec![false; reference.runs.max(result.records.len())];
    mark_diff(&mut bad, &reference.csv, &csv);
    if let (Some(want), Some(got)) = (&reference.journal, journal) {
        mark_diff(&mut bad, want, got);
    } else if reference.journal.is_some() != journal.is_some() {
        bad.iter_mut().for_each(|b| *b = true);
    }
    for (i, r) in result.records.iter().enumerate() {
        if r.detail == RunDetail::SimPanic {
            bad[i] = true;
        }
    }
    bad.iter().filter(|&&b| b).count()
}

/// Marks run `i` bad when line `i + 1` (after the header) differs.  A
/// differing header marks every run.
fn mark_diff(bad: &mut [bool], want: &str, got: &str) {
    let (mut w, mut g) = (want.lines(), got.lines());
    if w.next() != g.next() {
        bad.iter_mut().for_each(|b| *b = true);
        return;
    }
    for slot in bad.iter_mut() {
        if w.next() != g.next() {
            *slot = true;
        }
    }
}

/// Deterministic work counters of one campaign.  At a fixed seed they
/// must repeat exactly, run after run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    pub golden_cycles: u64,
    pub golden_warp_instr: u64,
    pub golden_l1d_accesses: u64,
    pub golden_l2_accesses: u64,
    pub simulated_runs: usize,
    pub restores: usize,
    pub early_exits: usize,
    pub static_pruned: usize,
    pub bit_pruned: usize,
    pub record_cycles: u64,
    pub checkpoints: usize,
    pub checkpoint_bytes: usize,
    pub journal_bytes: u64,
    pub leases: usize,
    pub tally: String,
}

impl Counters {
    pub fn of(golden: &GoldenProfile, r: &CampaignResult) -> Counters {
        let launches = &golden.app.launches;
        let s = &r.stats;
        Counters {
            golden_cycles: golden.total_cycles(),
            golden_warp_instr: launches.iter().map(|l| l.instructions).sum(),
            golden_l1d_accesses: launches.iter().map(|l| l.l1d_stats.accesses()).sum(),
            golden_l2_accesses: launches.iter().map(|l| l.l2_stats.accesses()).sum(),
            simulated_runs: s.simulated_runs,
            restores: s.restores,
            early_exits: s.early_exits,
            static_pruned: s.static_pruned,
            bit_pruned: s.static_bit_pruned,
            record_cycles: r.records.iter().map(|x| x.cycles).sum(),
            checkpoints: s.checkpoints,
            checkpoint_bytes: s.checkpoint_bytes,
            journal_bytes: s.journal_bytes,
            leases: s.leases,
            tally: format!("{:?}", r.tally),
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "golden_cycles={} golden_warp_instr={} golden_l1d_accesses={} \
             golden_l2_accesses={} simulated_runs={} restores={} early_exits={} \
             static_pruned={} bit_pruned={} record_cycles={} checkpoints={} \
             checkpoint_bytes={} journal_bytes={} leases={} tally={}",
            self.golden_cycles,
            self.golden_warp_instr,
            self.golden_l1d_accesses,
            self.golden_l2_accesses,
            self.simulated_runs,
            self.restores,
            self.early_exits,
            self.static_pruned,
            self.bit_pruned,
            self.record_cycles,
            self.checkpoints,
            self.checkpoint_bytes,
            self.journal_bytes,
            self.leases,
            self.tally
        )
    }
}
