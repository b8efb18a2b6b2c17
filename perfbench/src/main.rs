//! Campaign-throughput benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ge-rf-t2 [--seed 11] [--seconds 55] [--trace 0|1]
//! ```
//!
//! Untraced (`--trace 0`), it repeats the workload's campaign for
//! `--seconds`, checks every repeat's outputs against a serial
//! `threads = 1` `run_campaign`, and reports the end-to-end metrics as
//! medians.  Traced (`--trace 1`), it reports the per-layer metrics.  The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; any failed check makes
//! the exit code nonzero.  See `README.md` for the workloads and metrics.

mod bench;
mod e2e;
mod host;
mod metrics;
#[cfg(test)]
mod tests;
mod trace;

use bench::{Bench, RUNS};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Default campaign seed: the ROADMAP reference seed.
const DEFAULT_SEED: u64 = 11;

struct Args {
    bench: &'static Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one untraced repeat in this process (spawned by the untraced run).
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds) = (None, DEFAULT_SEED, 55);
    let (mut trace, mut child) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" | "--child" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, not {value}")),
                };
                *if flag == "--trace" {
                    &mut trace
                } else {
                    &mut child
                } = on;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let bench = Bench::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = bench::BENCHES.iter().map(|b| b.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    Ok(Args {
        bench,
        seed,
        seconds,
        trace,
        child,
    })
}

/// The result line.  Values print with every digit Rust keeps
/// (shortest round-trip form).
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let b = args.bench;
    if args.child {
        return match e2e::child(b, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", b.name);
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.trace {
        trace::run(b, RUNS, args.seed, args.seconds).map(|o| {
            let metrics: Vec<(&str, &str, f64)> = metrics::PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        o.metrics.get(m.name).copied().unwrap_or(f64::NAN),
                    )
                })
                .collect();
            for (m, (_, _, v)) in metrics::PER_LAYER.iter().zip(&metrics) {
                println!(
                    "{:<30} {v:>14.4} {:<10} {:<6} moves {}",
                    m.name, m.unit, m.better, m.moves
                );
            }
            (metrics, o.attempted, o.failed)
        })
    } else {
        e2e::run(b, args.seed, args.seconds).map(|o| (o.metrics, o.attempted, o.failed))
    };
    match outcome {
        Ok((metrics, attempted, failed)) => {
            let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
            if !finite {
                eprintln!("perfbench: a metric is not a finite number");
            }
            let correct = failed == 0 && finite;
            let shown: &[(&str, &str, f64)] = if correct { &metrics } else { &[] };
            println!("{}", result_line(correct, attempted, failed, shown));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", b.name);
            ExitCode::FAILURE
        }
    }
}
