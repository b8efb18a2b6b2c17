//! The traced run: per-layer numbers from spans recorded in the
//! benchmark's own code around calls into each layer's public functions.
//!
//! Two parts per workload.  **Callback spans**: `run_campaign_with_hook`
//! with a hook that records the time of every run attempt, giving the
//! campaign's preparation, per-run and tail spans.  **Replay**: the same
//! plans executed through the public layer calls (`MaskGenerator::draw`,
//! `dead_bit_masks`/`dead_registers`, checkpoint recording,
//! `nearest_at_or_before`, `Gpu::new`, `resume_from`, `arm_faults` +
//! `Workload::run`, `classify`, `RunJournal::append` where the workload
//! journals, `campaign_csv`), one span per call.  The replay re-implements
//! the campaign's private glue — the splitmix seed derivation, the window
//! pick, the static-prune test and the run order — and its records must
//! equal `run_campaign`'s field for field, which is what shows it measures
//! the same program.

use crate::bench::{self, Bench, SERVE_WORKERS, THREADS};
use crate::host::{self, AllocCount, Usage};
use gpufi_core::{
    campaign_csv, campaign_fingerprint, classify, detail_of, run_campaign, CampaignConfig,
    CampaignResult, CampaignStats, GoldenProfile, RunDetail, RunJournal, RunRecord, ServiceConfig,
    Workload, WorkloadError, DEFAULT_CHECKPOINT_BUDGET,
};
use gpufi_faults::MaskGenerator;
use gpufi_isa::analysis::{dead_bit_masks, dead_registers};
use gpufi_metrics::{FaultEffect, Tally};
use gpufi_sim::{CheckpointStore, FaultTarget, Gpu, GpuConfig, InjectionPlan, KernelWindow, Trap};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The campaign's auto-sized checkpoint stride: the golden cycle count
/// over this many snapshots.
const AUTO_CHECKPOINT_TARGET: u64 = 24;

/// One timed call: layer-qualified name, the run it served (if any), the
/// thread that made it, and its interval relative to the trace's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: Option<usize>,
    pub thread: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn span(&self, name: &'static str, id: Option<usize>, thread: usize, t0: Instant) -> Span {
        let now = Instant::now();
        Span {
            name,
            id,
            thread,
            start_ns: t0.duration_since(self.0).as_nanos() as u64,
            dur_ns: now.duration_since(t0).as_nanos() as u64,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sum of the durations of every span named `name`, in ms, and their count.
fn total_ms(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.dur_ns as f64 / 1e6, n + 1))
}

fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let (t, n) = total_ms(spans, name);
    t / n.max(1) as f64
}

/// The splitmix64 per-run seed derivation of `run_campaign`.
fn mix_seed(seed: u64, run_idx: u64) -> u64 {
    let mut z = seed.wrapping_add(run_idx.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The campaign's kernel-window pick: one window with probability
/// proportional to its length.
fn pick_window<'a>(gen: &mut MaskGenerator, windows: &'a [KernelWindow]) -> &'a KernelWindow {
    let total: u64 = windows.iter().map(|w| w.end.saturating_sub(w.start)).sum();
    let mut r = gen.uniform(total);
    for w in windows {
        let len = w.end.saturating_sub(w.start);
        if r < len {
            return w;
        }
        r -= len;
    }
    unreachable!("uniform draw below the total window length")
}

/// One drawn run.
struct Plan {
    plan: InjectionPlan,
    first_cycle: u64,
    kernel: String,
}

/// Draws every run's plan as a flat whole-application campaign does.
fn draw_plans(
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    clock: Clock,
    spans: &mut Vec<Span>,
) -> Result<Vec<Plan>, String> {
    let windows = golden.windows(None);
    (0..cfg.runs)
        .map(|i| {
            let t = Instant::now();
            let mut gen = MaskGenerator::new(mix_seed(cfg.seed, i as u64));
            let w = pick_window(&mut gen, &windows);
            let space = golden
                .fault_spaces
                .get(&w.kernel)
                .ok_or_else(|| format!("no fault space for kernel {}", w.kernel))?;
            let plan = gen
                .draw(&cfg.spec, space, std::slice::from_ref(w))
                .map_err(|e| format!("draw: {e}"))?;
            spans.push(clock.span("faults.draw", Some(i), 0, t));
            let first_cycle = plan.faults.iter().map(|f| f.cycle).min().unwrap_or(0);
            Ok(Plan {
                plan,
                first_cycle,
                kernel: w.kernel.clone(),
            })
        })
        .collect()
}

/// The static-prune verdict: every fault in a dead register, or (transient
/// models only) every flipped bit in a statically dead bit.
fn prune_detail(
    plan: &InjectionPlan,
    dead_regs: Option<&Vec<u8>>,
    dead_bits: Option<&Vec<u32>>,
) -> Option<RunDetail> {
    let all = |f: &dyn Fn(u32, &[u8]) -> bool| {
        !plan.faults.is_empty()
            && plan.faults.iter().all(|x| match &x.target {
                FaultTarget::RegisterFile { reg, bits, .. } => f(*reg, bits),
                _ => false,
            })
    };
    if let Some(dead) = dead_regs {
        if all(&|reg, _| u8::try_from(reg).is_ok_and(|r| dead.contains(&r))) {
            return Some(RunDetail::StaticDead);
        }
    }
    let dead = dead_bits?;
    all(&|reg, bits| {
        dead.get(reg as usize)
            .is_some_and(|m| bits.iter().all(|&b| b < 32 && (m >> b) & 1 == 1))
    })
    .then_some(RunDetail::StaticDeadBit)
}

/// Records the golden run's checkpoint store, as the campaign does.
fn record_store(
    w: &dyn Workload,
    card: &GpuConfig,
    golden: &GoldenProfile,
) -> Result<Arc<CheckpointStore>, String> {
    let interval = (golden.total_cycles() / AUTO_CHECKPOINT_TARGET).max(1);
    let mut gpu = Gpu::new(card.clone());
    gpu.record_checkpoints(interval, DEFAULT_CHECKPOINT_BUDGET);
    w.run(&mut gpu)
        .map_err(|e| format!("checkpoint recording: {e}"))?;
    Ok(Arc::new(gpu.finish_checkpoint_recording()))
}

/// Simulated work of one replayed run, after its fork point.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    cycles: u64,
    warp_instr: u64,
    l1d: u64,
    l2: u64,
}

fn warp_instr(gpu: &Gpu) -> u64 {
    gpu.stats().launches.iter().map(|l| l.instructions).sum()
}

/// Executes and classifies one run exactly as the campaign's run loop
/// does, with one span per layer call.
#[allow(clippy::too_many_arguments)]
fn replay_run(
    w: &dyn Workload,
    card: &GpuConfig,
    golden: &GoldenProfile,
    plan: &Plan,
    store: &Arc<CheckpointStore>,
    i: usize,
    thread: usize,
    clock: Clock,
    spans: &mut Vec<Span>,
) -> (RunRecord, Work) {
    let id = Some(i);
    let t = Instant::now();
    let nearest = store.nearest_at_or_before(plan.first_cycle);
    spans.push(clock.span("sim.nearest", id, thread, t));

    let t = Instant::now();
    let mut gpu = Gpu::new(card.clone());
    spans.push(clock.span("sim.new", id, thread, t));

    let t = Instant::now();
    let mut skipped = 0;
    if let Some(idx) = nearest {
        gpu.resume_from(store, idx);
        skipped = store.snapshot_cycle(idx);
    }
    spans.push(clock.span("sim.restore", id, thread, t));

    let before = Work {
        cycles: gpu.cycle(),
        warp_instr: warp_instr(&gpu),
        l1d: gpu.mem().l1d_stats().accesses(),
        l2: gpu.mem().l2_stats().accesses(),
    };
    let t = Instant::now();
    gpu.arm_faults(plan.plan.clone());
    gpu.set_watchdog(golden.total_cycles() * 2);
    gpu.set_early_exit(true);
    let result = w.run(&mut gpu);
    spans.push(clock.span("sim.exec", id, thread, t));
    let work = Work {
        cycles: gpu.cycle() - before.cycles,
        warp_instr: warp_instr(&gpu) - before.warp_instr,
        l1d: gpu.mem().l1d_stats().accesses() - before.l1d,
        l2: gpu.mem().l2_stats().accesses() - before.l2,
    };

    let t = Instant::now();
    let applied = gpu.injection_records().iter().any(|r| r.applied);
    let rec = if matches!(&result, Err(WorkloadError::Trap(Trap::FaultsExpired))) {
        RunRecord {
            effect: FaultEffect::Masked,
            cycles: golden.total_cycles(),
            applied,
            early_exit: true,
            ckpt_skipped_cycles: skipped,
            detail: RunDetail::None,
            stratum: None,
        }
    } else {
        let cycles = gpu.stats().total_cycles().max(gpu.cycle());
        RunRecord {
            effect: classify(&result, cycles, golden),
            cycles,
            applied,
            early_exit: false,
            ckpt_skipped_cycles: skipped,
            detail: detail_of(&result),
            stratum: None,
        }
    };
    spans.push(clock.span("core.classify", id, thread, t));

    let t = Instant::now();
    drop(gpu);
    spans.push(clock.span("sim.drop", id, thread, t));
    (rec, work)
}

/// What one replay thread did.
#[derive(Default)]
struct ThreadOut {
    store: Option<Arc<CheckpointStore>>,
    runs: Vec<(usize, RunRecord, Work)>,
    spans: Vec<Span>,
}

/// The replay's results, for the metrics and the equivalence check.
struct Replay {
    records: Vec<RunRecord>,
    work: Vec<Work>,
    simulated: usize,
    pruned: usize,
    stores: Vec<Arc<CheckpointStore>>,
    threads: Vec<ThreadOut>,
    usage: Usage,
    allocs: AllocCount,
    csv: String,
    /// The canonical journal, on the served workload only.
    journal: Option<String>,
    journal_bytes: u64,
}

fn replay(
    b: &Bench,
    w: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    clock: Clock,
    spans: &mut Vec<Span>,
) -> Result<Replay, String> {
    let plans = draw_plans(cfg, golden, clock, spans)?;

    let t = Instant::now();
    let kernels = w.module().kernels();
    let dead_regs: BTreeMap<&str, Vec<u8>> = kernels
        .iter()
        .map(|k| (k.name(), dead_registers(k)))
        .collect();
    let dead_bits: Option<BTreeMap<&str, Vec<u32>>> =
        (cfg.bit_prune && !cfg.spec.model.is_permanent()).then(|| {
            kernels
                .iter()
                .map(|k| (k.name(), dead_bit_masks(k)))
                .collect()
        });
    spans.push(clock.span("isa.dead_bits", None, 0, t));

    let mut records: Vec<Option<RunRecord>> = vec![None; cfg.runs];
    for (i, p) in plans.iter().enumerate() {
        let bits = dead_bits.as_ref().and_then(|t| t.get(p.kernel.as_str()));
        if let Some(detail) = prune_detail(&p.plan, dead_regs.get(p.kernel.as_str()), bits) {
            records[i] = Some(RunRecord {
                effect: FaultEffect::Masked,
                cycles: golden.total_cycles(),
                applied: true,
                early_exit: false,
                ckpt_skipped_cycles: 0,
                detail,
                stratum: None,
            });
        }
    }
    let pending: Vec<usize> = (0..cfg.runs).filter(|&i| records[i].is_none()).collect();
    let pruned = cfg.runs - pending.len();

    // Work units: a local campaign's threads take single runs in order of
    // first injection cycle; a served campaign's workers take leases of
    // ascending run indices.
    let units: Vec<Vec<usize>> = if b.served {
        let size = ServiceConfig::default().effective_lease_size(cfg.runs);
        pending.chunks(size).map(<[usize]>::to_vec).collect()
    } else {
        let mut order = pending.clone();
        order.sort_by_key(|&i| plans[i].first_cycle);
        order.into_iter().map(|i| vec![i]).collect()
    };
    let threads = if b.served { SERVE_WORKERS } else { THREADS };

    // Checkpoint stores are recorded where the campaign records them: a
    // local campaign on the calling thread, one store shared by its
    // threads; each service worker on its own thread, before its first
    // lease.  Which thread's heap holds a store changes the run loop's page
    // faults several-fold, so the placement is part of the measurement.
    let shared = if b.served {
        None
    } else {
        let t = Instant::now();
        let store = record_store(w, card, golden)?;
        spans.push(clock.span("sim.checkpoint_record", None, 0, t));
        Some(store)
    };
    let next = AtomicUsize::new(0);
    // One thread's share of the run loop: take work units until none is left.
    let run_loop = |thread: usize, store: Arc<CheckpointStore>, out: &mut ThreadOut| {
        while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
            for &i in unit {
                let (rec, work) = replay_run(
                    w,
                    card,
                    golden,
                    &plans[i],
                    &store,
                    i,
                    thread,
                    clock,
                    &mut out.spans,
                );
                out.runs.push((i, rec, work));
            }
        }
        out.store = Some(store);
    };
    // Every thread holds its store before the measured window opens.
    let (ready, go) = (Barrier::new(threads + 1), Barrier::new(threads + 1));
    let (outs, usage, allocs) = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|thread| {
                let (shared, ready, go, run_loop) = (&shared, &ready, &go, &run_loop);
                s.spawn(move || -> Result<ThreadOut, String> {
                    let mut out = ThreadOut::default();
                    let store = match shared {
                        Some(store) => Ok(Arc::clone(store)),
                        None => {
                            let t = Instant::now();
                            let store = record_store(w, card, golden);
                            let span = clock.span("sim.checkpoint_record", None, thread, t);
                            out.spans.push(span);
                            store
                        }
                    };
                    ready.wait();
                    go.wait();
                    run_loop(thread, store?, &mut out);
                    Ok(out)
                })
            })
            .collect();
        ready.wait();
        let window = host::AllocWindow::open();
        let u0 = Usage::now();
        go.wait();
        let outs: Vec<Result<ThreadOut, String>> = hs
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect();
        (outs, Usage::now().since(&u0), window.close())
    });
    let outs = outs
        .into_iter()
        .collect::<Result<Vec<ThreadOut>, String>>()?;
    let stores: Vec<Arc<CheckpointStore>> = outs.iter().filter_map(|o| o.store.clone()).collect();

    let mut work = Vec::new();
    for out in &outs {
        for &(i, rec, wk) in &out.runs {
            records[i] = Some(rec);
            work.push(wk);
        }
    }
    let records: Vec<RunRecord> = records
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| format!("replay produced no record for run {i}")))
        .collect::<Result<_, _>>()?;

    // The served workload journals: append every record as the campaign's
    // journal does, in run order, then canonicalize.  The local workloads
    // run without a journal.
    let (journal, journal_bytes) = if b.served {
        let path = bench::out_path(&format!(
            "{}-{}-{}-replay.journal.jsonl",
            b.name, cfg.seed, cfg.runs
        ));
        let fp = campaign_fingerprint(w.name(), &card.name, cfg);
        let journal = RunJournal::create(&path.to_string_lossy(), fp, cfg.runs)?;
        for (i, rec) in records.iter().enumerate() {
            let t = Instant::now();
            journal.append(i, rec)?;
            spans.push(clock.span("core.journal_append", Some(i), 0, t));
        }
        let t = Instant::now();
        journal.finalize_canonical()?;
        spans.push(clock.span("core.journal_finalize", None, 0, t));
        let bytes = journal.bytes_written();
        drop(journal);
        (Some(bench::take_journal(&path)?), bytes)
    } else {
        (None, 0)
    };

    let t = Instant::now();
    let result = CampaignResult {
        spec: cfg.spec.clone(),
        kernel: None,
        tally: records.iter().map(|r| r.effect).collect::<Tally>(),
        records: records.clone(),
        stats: CampaignStats::default(),
        sampling: None,
    };
    let csv = campaign_csv(&result);
    spans.push(clock.span("core.csv", None, 0, t));

    Ok(Replay {
        simulated: work.len(),
        records,
        work,
        pruned,
        stores,
        threads: outs,
        usage,
        allocs,
        csv,
        journal,
        journal_bytes,
    })
}

/// Which thread a hook callback ran on, as a small index.
fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// Callback spans of one `run_campaign_with_hook` call.
struct Callbacks {
    result: CampaignResult,
    prepare: Duration,
    tail: Duration,
    run_ms: Vec<f64>,
    /// Time spent inside the hook, summed over its calls: the tracing
    /// overhead the campaign paid.
    hook_cost: Duration,
}

fn traced_campaign(
    w: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    clock: Clock,
    spans: &mut Vec<Span>,
) -> Result<Callbacks, String> {
    // The hook must be `'static`, so it shares the log and its own cost
    // (nanoseconds spent inside the hook) by `Arc`.
    let calls: Arc<Mutex<Vec<(usize, usize, Instant)>>> =
        Arc::new(Mutex::new(Vec::with_capacity(cfg.runs)));
    let cost_ns: Arc<AtomicU64> = Arc::default();
    let (log, cost) = (Arc::clone(&calls), Arc::clone(&cost_ns));
    let hook = move |run: usize, _attempt: u32| {
        let at = Instant::now();
        log.lock()
            .expect("callback log poisoned")
            .push((run, thread_index(), at));
        cost.fetch_add(at.elapsed().as_nanos() as u64, Ordering::Relaxed);
    };
    let start = Instant::now();
    let result = bench::run_local(w, card, cfg, golden, Some(&hook))?;
    let end = Instant::now();
    drop(hook);
    let mut calls = std::mem::take(&mut *calls.lock().expect("callback log poisoned"));
    calls.sort_by_key(|&(_, thread, at)| (thread, at));
    let first = calls.iter().map(|c| c.2).min().unwrap_or(end);
    let last = calls.iter().map(|c| c.2).max().unwrap_or(start);
    spans.push(Span {
        dur_ns: first.duration_since(start).as_nanos() as u64,
        ..clock.span("core.prepare", None, 0, start)
    });
    // A run's span lasts from its callback to the next callback on the
    // same thread; each thread's last run ends in the tail.
    let mut run_ms = Vec::new();
    for pair in calls.windows(2) {
        let ((run, thread, at), (_, next_thread, next_at)) = (pair[0], pair[1]);
        if thread == next_thread {
            run_ms.push(ms(next_at.duration_since(at)));
            spans.push(Span {
                dur_ns: next_at.duration_since(at).as_nanos() as u64,
                ..clock.span("core.run", Some(run), thread, at)
            });
        }
    }
    spans.push(clock.span("core.tail", None, 0, last));
    Ok(Callbacks {
        result,
        prepare: first.duration_since(start),
        tail: end.duration_since(last),
        run_ms,
        hook_cost: Duration::from_nanos(cost_ns.load(Ordering::Relaxed)),
    })
}

/// The outcome of a traced run.
pub struct Outcome {
    /// `(name, value)` of every per-layer metric, as medians over the
    /// traced repetitions.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
}

/// One traced repetition: its per-layer metrics, and the number of runs
/// whose replayed record differs from `run_campaign`'s.
fn repetition(
    b: &Bench,
    w: &dyn Workload,
    runs: usize,
    seed: u64,
    clock: Clock,
    spans: &mut Vec<Span>,
) -> Result<(BTreeMap<&'static str, f64>, usize), String> {
    let card = bench::card();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let t = Instant::now();
    let golden = bench::golden(w, &card)?;
    spans.push(clock.span("core.profile", None, 0, t));
    m.insert("core.profile_ms", ms(t.elapsed()));

    // Untraced and traced local campaigns at the workload's thread count;
    // the served workload's local equivalent keeps its journal.
    let journaled = |tag: &str| {
        let cfg = b.config(runs, seed, THREADS);
        if b.served {
            let path = bench::out_path(&format!("{}-{seed}-{runs}-{tag}.journal.jsonl", b.name));
            (cfg.with_journal(path.to_string_lossy()), Some(path))
        } else {
            (cfg, None)
        }
    };
    let (cfg, path) = journaled("plain");
    let plain = run_campaign(w, &card, &cfg, &golden).map_err(|e| format!("campaign: {e}"))?;
    let plain_journal = path.map(|p| bench::take_journal(&p)).transpose()?;

    let (traced_cfg, path) = journaled("traced");
    let u0 = Usage::now();
    let cb = traced_campaign(w, &card, &traced_cfg, &golden, clock, spans)?;
    let mut usage = Usage::now().since(&u0);
    let mut simulated = cb.result.stats.simulated_runs;
    let traced_journal = path.map(|p| bench::take_journal(&p)).transpose()?;
    m.insert("core.prepare_ms", ms(cb.prepare));
    m.insert("core.run_ms_p50", host::percentile(&cb.run_ms, 50.0));
    m.insert("core.run_ms_p99", host::percentile(&cb.run_ms, 99.0));
    m.insert("core.tail_ms", ms(cb.tail));
    m.insert("trace.overhead_ms", ms(cb.hook_cost));
    let plain_csv = campaign_csv(&plain);
    let mut failed =
        usize::from(campaign_csv(&cb.result) != plain_csv || traced_journal != plain_journal)
            * runs;

    // The served campaign itself: coordinator and per-worker timings.
    if b.served {
        let path = bench::out_path(&format!("{}-{seed}-{runs}-served.journal.jsonl", b.name));
        let cfg = b
            .config(runs, seed, THREADS)
            .with_journal(path.to_string_lossy());
        let t = Instant::now();
        let u0 = Usage::now();
        let served = bench::run_served(w, &card, &cfg, &golden)?;
        usage = Usage::now().since(&u0);
        simulated = served.result.stats.simulated_runs;
        spans.push(clock.span("service.coordinator", None, 0, t));
        let journal = bench::take_journal(&path)?;
        if campaign_csv(&served.result) != plain_csv || Some(&journal) != plain_journal.as_ref() {
            failed = runs;
        }
        let s = &served.result.stats;
        m.insert("service.coordinator_ms", ms(served.wall));
        let walls = served.workers.iter().map(|(d, _)| ms(*d));
        m.insert("service.worker_ms_max", walls.fold(0.0, f64::max));
        let rates = served
            .workers
            .iter()
            .map(|(d, r)| r.runs as f64 / d.as_secs_f64());
        m.insert(
            "service.worker_runs_per_s_min",
            rates.fold(f64::INFINITY, f64::min),
        );
        m.insert("service.leases", s.leases as f64);
        m.insert("service.reissued_leases", s.reissued_leases as f64);
        m.insert("service.duplicate_acks", s.duplicate_acks as f64);
    }

    let mut replay_spans = Vec::new();
    let r = replay(b, w, &card, &cfg, &golden, clock, &mut replay_spans)?;
    for t in &r.threads {
        replay_spans.extend_from_slice(&t.spans);
    }

    // Replay equivalence: record for record, CSV and (served) journal.
    let mismatched = r
        .records
        .iter()
        .zip(&plain.records)
        .filter(|(a, b)| a != b)
        .count()
        + r.records.len().abs_diff(plain.records.len());
    if mismatched > 0 || r.csv != plain_csv {
        eprintln!(
            "{}: replay differs from run_campaign on {mismatched} run(s); the replay does not \
             measure the campaign's program",
            b.name
        );
        failed = failed.max(mismatched.max(1));
    }
    if r.journal != plain_journal {
        eprintln!("{}: replayed journal differs from the campaign's", b.name);
        failed = failed.max(1);
    }

    let sim = r.simulated.max(1) as f64;
    let n = runs.max(1) as f64;
    if !b.served {
        // No service layer runs on a local workload.
        for k in [
            "service.coordinator_ms",
            "service.worker_ms_max",
            "service.worker_runs_per_s_min",
            "service.leases",
            "service.reissued_leases",
            "service.duplicate_acks",
        ] {
            m.insert(k, 0.0);
        }
    }
    let early = r.records.iter().filter(|x| x.early_exit).count();
    m.insert("core.early_exit_share", early as f64 / n);
    m.insert("core.pruned_share", r.pruned as f64 / n);
    m.insert(
        "core.classify_us",
        mean_ms(&replay_spans, "core.classify") * 1e3,
    );
    let append = total_ms(&replay_spans, "core.journal_append").0;
    let finalize = total_ms(&replay_spans, "core.journal_finalize").0;
    m.insert("core.journal_ms", append + finalize);
    m.insert("core.journal_bytes", r.journal_bytes as f64);
    m.insert("core.csv_ms", total_ms(&replay_spans, "core.csv").0);
    m.insert(
        "isa.dead_bits_ms",
        total_ms(&replay_spans, "isa.dead_bits").0,
    );
    m.insert(
        "faults.draw_us_per_run",
        mean_ms(&replay_spans, "faults.draw") * 1e3,
    );
    m.insert(
        "sim.checkpoint_record_ms",
        mean_ms(&replay_spans, "sim.checkpoint_record"),
    );
    m.insert("sim.checkpoints", r.stores[0].len() as f64);
    m.insert(
        "sim.checkpoint_mib",
        r.stores[0].resident_bytes() as f64 / (1024.0 * 1024.0),
    );
    let per_run: [(&'static str, &str); 4] = [
        ("sim.new_ms", "sim.new"),
        ("sim.restore_ms", "sim.restore"),
        ("sim.drop_ms", "sim.drop"),
        ("sim.exec_ms", "sim.exec"),
    ];
    for (metric, span) in per_run {
        m.insert(metric, mean_ms(&replay_spans, span));
    }
    let run_total: f64 = [
        "sim.nearest",
        "sim.new",
        "sim.restore",
        "sim.exec",
        "core.classify",
        "sim.drop",
    ]
    .iter()
    .map(|s| total_ms(&replay_spans, s).0)
    .sum();
    m.insert(
        "sim.restore_share",
        total_ms(&replay_spans, "sim.restore").0 / run_total,
    );
    let cycles: u64 = r.work.iter().map(|x| x.cycles).sum();
    m.insert("sim.cycles_per_run", cycles as f64 / sim);
    m.insert(
        "sim.mcycles_per_s",
        cycles as f64 / (total_ms(&replay_spans, "sim.exec").0 / 1e3) / 1e6,
    );
    let sum = |f: fn(&Work) -> u64| r.work.iter().map(f).sum::<u64>() as f64 / sim;
    m.insert("sim.warp_instr_per_run", sum(|x| x.warp_instr));
    m.insert("sim.l1d_accesses_per_run", sum(|x| x.l1d));
    m.insert("sim.l2_accesses_per_run", sum(|x| x.l2));
    m.insert("alloc.allocs_per_run", r.allocs.allocs as f64 / sim);
    m.insert(
        "alloc.mib_per_run",
        r.allocs.bytes as f64 / (1024.0 * 1024.0) / sim,
    );
    // Kernel time and page faults of the workload's own campaign call (the
    // traced local campaign, or the served one), checkpoint recording
    // included: a run loop that allocates nothing new takes no kernel time.
    let simulated = simulated.max(1) as f64;
    m.insert("host.sys_ms_per_run", usage.sys_ms / simulated);
    m.insert(
        "host.minor_faults_per_run",
        usage.minor_faults as f64 / simulated,
    );

    println!(
        "counters: simulated_runs={} pruned={} early_exits={early} restores={} checkpoints={} \
         checkpoint_bytes={} cycles={cycles} warp_instr={} l1d_accesses={} l2_accesses={} \
         journal_bytes={} leases={}\nreplay loop: user {:.0} ms, sys {:.0} ms, {} minor faults",
        r.simulated,
        r.pruned,
        r.records
            .iter()
            .filter(|x| x.ckpt_skipped_cycles > 0)
            .count(),
        r.stores[0].len(),
        r.stores[0].resident_bytes(),
        r.work.iter().map(|x| x.warp_instr).sum::<u64>(),
        r.work.iter().map(|x| x.l1d).sum::<u64>(),
        r.work.iter().map(|x| x.l2).sum::<u64>(),
        r.journal_bytes,
        m["service.leases"],
        r.usage.user_ms,
        r.usage.sys_ms,
        r.usage.minor_faults,
    );
    spans.extend(replay_spans);
    Ok((m, failed))
}

pub fn run(b: &Bench, runs: usize, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let w = b.workload();
    let clock = Clock(Instant::now());
    let budget = Duration::from_secs(seconds);
    let mut reps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans: Vec<(usize, Span)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut longest = Duration::ZERO;
    // Warm-up, so that no repetition pays the process's first heap growth.
    let card = bench::card();
    let golden = bench::golden(w.as_ref(), &card)?;
    run_campaign(w.as_ref(), &card, &b.config(runs, seed, THREADS), &golden)
        .map_err(|e| format!("warm-up campaign: {e}"))?;
    while reps.is_empty() || clock.0.elapsed() + longest <= budget {
        let t = Instant::now();
        let mut rep_spans = Vec::new();
        let (m, bad) = repetition(b, w.as_ref(), runs, seed, clock, &mut rep_spans)?;
        longest = longest.max(t.elapsed());
        attempted += runs;
        failed += bad;
        spans.extend(rep_spans.into_iter().map(|s| (reps.len(), s)));
        reps.push(m);
    }

    let path = bench::out_path(&format!("{}-seed{seed}.spans.jsonl", b.name));
    let mut text = String::new();
    for (rep, s) in &spans {
        let id = s.id.map_or("null".to_string(), |i| i.to_string());
        let _ = writeln!(
            text,
            "{{\"rep\":{rep},\"name\":\"{}\",\"id\":{id},\"thread\":{},\"start_us\":{:.3},\
             \"dur_us\":{:.3}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{} spans written to {}", spans.len(), path.display());

    let metrics = reps[0]
        .keys()
        .map(|&k| {
            let values: Vec<f64> = reps.iter().map(|m| m[k]).collect();
            (k, host::median(&values))
        })
        .collect();
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}
