//! The benchmark's own tests: names, determinism of the workload
//! campaigns, and the replay-equivalence check, on short campaigns.

use crate::bench::{self, Counters, Reference, BENCHES};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{e2e, host, trace};
use gpufi_core::campaign_csv;

/// Runs per campaign in these tests: short, the same shapes.
const SHORT: usize = 24;

fn name_ok(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_use_only_letters_digits_underscore_dot_dash() {
    let names: Vec<&str> = BENCHES
        .iter()
        .map(|b| b.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for n in &names {
        assert!(name_ok(n), "bad name {n:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    // BENCHMARK.json declares exactly these names.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for n in &names {
        assert!(
            json.contains(&format!("\"name\": \"{n}\"")),
            "{n} missing from BENCHMARK.json"
        );
    }
    assert_eq!(json.matches("\"name\":").count(), names.len());
    for b in &BENCHES {
        assert!(
            json.contains(b.why),
            "{}: why differs from BENCHMARK.json",
            b.name
        );
    }
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(host::quartiles(&v), (2.75, 5.5, 8.25));
    assert_eq!(host::quartiles(&[4.0, 1.0, 3.0]), (1.0, 3.0, 4.0));
}

#[test]
fn workload_campaigns_repeat_exactly_at_a_seed_and_differ_across_seeds() {
    for b in &BENCHES {
        let w = b.workload();
        let card = bench::card();
        let golden = bench::golden(w.as_ref(), &card).expect("golden run");
        let mut csvs = Vec::new();
        for seed in [11, 12] {
            let (reference, _) = Reference::compute(b, w.as_ref(), &card, &golden, SHORT, seed)
                .expect("reference campaign");
            let calls: Vec<e2e::Call> = (0..2)
                .map(|_| e2e::campaign_call(b, w.as_ref(), &golden, SHORT, seed).expect("campaign"))
                .collect();
            for c in &calls {
                let bad = bench::mismatched_runs(&reference, &c.result, c.journal.as_deref());
                assert_eq!(bad, 0, "{} seed {seed}: output differs from serial", b.name);
            }
            assert_eq!(
                Counters::of(&golden, &calls[0].result),
                Counters::of(&golden, &calls[1].result),
                "{} seed {seed}: work counters differ",
                b.name
            );
            csvs.push(campaign_csv(&calls[0].result));
        }
        assert_ne!(
            csvs[0], csvs[1],
            "{}: seeds 11 and 12 drew the same campaign",
            b.name
        );
    }
}

#[test]
fn replay_records_equal_run_campaign_records() {
    for b in &BENCHES {
        let outcome = trace::run(b, SHORT, 13, 0).expect("traced run");
        assert_eq!(
            outcome.failed, 0,
            "{}: replay differs from run_campaign",
            b.name
        );
        assert_eq!(outcome.attempted, SHORT);
        for m in &PER_LAYER {
            assert!(
                outcome.metrics.get(m.name).is_some_and(|v| v.is_finite()),
                "{}: {} missing or not finite",
                b.name,
                m.name
            );
        }
    }
}
