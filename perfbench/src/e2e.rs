//! The untraced measurement: repeat one workload's campaign for the run
//! length and report the end-to-end metrics as medians over the repeats.
//!
//! Each repeat runs in a process of its own — golden profile, then one
//! campaign call — as the `gpufi` command line runs one campaign per
//! process.  So every repeat starts from the same process state, and its
//! peak resident set is exactly that of a process that runs the workload.

use crate::bench::{self, Bench, Counters, Reference, RUNS, THREADS};
use crate::host::{self, Usage};
use crate::metrics::END_TO_END;
use gpufi_core::{CampaignResult, GoldenProfile, Workload};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Fewest repeats a run reports, however long they take.
const MIN_REPEATS: usize = 3;

/// The outcome of an untraced run.
pub struct Outcome {
    /// `(name, unit, value)` of every end-to-end metric, as medians.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: usize,
    pub failed: usize,
}

/// One campaign call of the workload, timed: the campaign result, the
/// wall time of the call, the in-campaign preparation time (up to the
/// first run callback; zero for the served workload, whose entry points
/// have no callback) and the canonical journal for the served workload.
pub struct Call {
    pub result: CampaignResult,
    pub wall: Duration,
    pub prepare: Duration,
    pub journal: Option<String>,
}

pub fn campaign_call(
    b: &Bench,
    w: &dyn Workload,
    golden: &GoldenProfile,
    runs: usize,
    seed: u64,
) -> Result<Call, String> {
    let card = bench::card();
    if b.served {
        let path = bench::out_path(&format!("{}-{seed}-{runs}-served.journal.jsonl", b.name));
        let cfg = b
            .config(runs, seed, THREADS)
            .with_journal(path.to_string_lossy());
        let served = bench::run_served(w, &card, &cfg, golden)?;
        return Ok(Call {
            result: served.result,
            wall: served.wall,
            prepare: Duration::ZERO,
            journal: Some(bench::take_journal(&path)?),
        });
    }
    let cfg = b.config(runs, seed, THREADS);
    // The hook must be `'static`, so it shares the timestamp by `Arc`.
    let first: Arc<OnceLock<Instant>> = Arc::default();
    let seen = Arc::clone(&first);
    let hook = move |_run: usize, _attempt: u32| {
        seen.get_or_init(Instant::now);
    };
    let start = Instant::now();
    let result = bench::run_local(w, &card, &cfg, golden, Some(&hook))?;
    let wall = start.elapsed();
    let prepare = first.get().map_or(wall, |t| t.duration_since(start));
    Ok(Call {
        result,
        wall,
        prepare,
        journal: None,
    })
}

/// One repeat, in the current process (the `--child 1` mode): golden
/// profile, one campaign call, then — outside the timed region — the
/// output check against the saved reference.  Prints a `sample` line of
/// measurements and a `counters` line for the parent.
pub fn child(b: &Bench, seed: u64) -> Result<(), String> {
    let w = b.workload();
    let card = bench::card();
    let t = Instant::now();
    let golden = bench::golden(w.as_ref(), &card)?;
    let profile_s = t.elapsed().as_secs_f64();
    let u0 = Usage::now();
    let call = campaign_call(b, w.as_ref(), &golden, RUNS, seed)?;
    let usage = Usage::now().since(&u0);
    let rss_mib = host::peak_rss_mib();

    let reference = Reference::load(b, seed, RUNS)?;
    let r = &call.result;
    println!(
        "sample wall_s={} prepare_s={} profile_s={} user_ms={} sys_ms={} minor_faults={} \
         rss_mib={} simulated={} effective={} records={} mismatched={}",
        call.wall.as_secs_f64(),
        call.prepare.as_secs_f64(),
        profile_s,
        usage.user_ms,
        usage.sys_ms,
        usage.minor_faults,
        rss_mib,
        r.stats.simulated_runs,
        r.stats.effective_runs,
        r.records.len(),
        bench::mismatched_runs(&reference, r, call.journal.as_deref()),
    );
    println!("counters {}", Counters::of(&golden, r));
    Ok(())
}

/// Runs one repeat process and returns its `sample` fields and counters.
fn repeat(b: &Bench, seed: u64) -> Result<(BTreeMap<String, f64>, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", b.name, "--child", "1"])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("spawn repeat: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "repeat process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let line = |tag: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(tag))
            .map(str::to_string)
            .ok_or_else(|| format!("repeat process printed no `{tag}` line"))
    };
    let sample = line("sample ")?
        .split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=').ok_or("malformed sample field")?;
            let v: f64 = v
                .parse()
                .map_err(|_| format!("malformed sample value {kv}"))?;
            Ok((k.to_string(), v))
        })
        .collect::<Result<BTreeMap<String, f64>, String>>()?;
    Ok((sample, line("counters ")?))
}

pub fn run(b: &Bench, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let runs = RUNS;
    let w = b.workload();
    let card = bench::card();
    // Outside the timed region: the reference the outputs are checked
    // against, saved for the repeat processes.
    let golden = bench::golden(w.as_ref(), &card)?;
    let (reference, result) = Reference::compute(b, w.as_ref(), &card, &golden, runs, seed)?;
    reference.save(b, seed)?;
    println!(
        "{} ({}): seed {seed}, {runs} runs, nproc {}, one process per repeat",
        b.name,
        b.why,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "reference: tally {:?}, golden cycles {}",
        result.tally,
        golden.total_cycles()
    );

    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut samples: Vec<[f64; 5]> = Vec::new();
    let mut first_counters: Option<String> = None;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut longest = Duration::ZERO;
    let mut repeats = 0usize;
    while repeats < MIN_REPEATS || started.elapsed() + longest <= budget {
        repeats += 1;
        let t = Instant::now();
        let outcome = repeat(b, seed);
        longest = longest.max(t.elapsed());
        attempted += runs;
        let (s, counters) = match outcome {
            Ok(x) => x,
            Err(e) => {
                eprintln!("{}: repeat {repeats}: {e}", b.name);
                failed += runs;
                continue;
            }
        };
        let mut bad = s["mismatched"] as usize;
        match &first_counters {
            None => {
                println!("counters: {counters}");
                first_counters = Some(counters);
            }
            Some(c) if *c != counters => {
                eprintln!(
                    "{}: work counters changed between repeats:\n  {c}\n  {counters}",
                    b.name
                );
                bad = runs;
            }
            Some(_) => {}
        }
        failed += bad;

        // In END_TO_END order.
        let v = [
            s["simulated"] / s["wall_s"],
            s["effective"] / s["wall_s"],
            s["profile_s"] + s["prepare_s"],
            s["rss_mib"],
            (s["user_ms"] + s["sys_ms"]) / s["records"],
        ];
        println!(
            "repeat {repeats:>2}: wall {:>8.1} ms  sim {:>7.2} runs/s  eff {:>7.2} runs/s  \
             setup {:.4} s (profile {:.4} s)  rss {:.1} MiB  cpu {:.3} ms/run (user {:.0} ms, \
             sys {:.0} ms, {} minor faults)  mismatched runs {bad}",
            s["wall_s"] * 1e3,
            v[0],
            v[1],
            v[2],
            s["profile_s"],
            v[3],
            v[4],
            s["user_ms"],
            s["sys_ms"],
            s["minor_faults"]
        );
        samples.push(v);
    }
    if samples.is_empty() {
        return Err(format!("{}: no campaign completed", b.name));
    }

    let mut metrics = Vec::new();
    for (k, m) in END_TO_END.iter().enumerate() {
        let values: Vec<f64> = samples.iter().map(|s| s[k]).collect();
        let (q1, med, q3) = host::quartiles(&values);
        println!(
            "{}: median {med:.4} {} (q1 {q1:.4}, q3 {q3:.4}, n {}; {} is better)",
            m.name,
            m.unit,
            values.len(),
            m.better
        );
        metrics.push((m.name, m.unit, med));
    }
    println!(
        "failed_run_share: {:.6} ratio ({failed} of {attempted} runs)",
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}
