//! Validation of checkpoint-and-fork execution: forking each injection run
//! from a golden-run snapshot must never change what the campaign
//! concludes, only how long it takes.

use gpufi::prelude::*;
use gpufi::sim::{CacheConfig, Gpu, GLOBAL_BASE, TAG_BITS};

/// Checkpoint forking and cold starts must classify every run identically —
/// same effect, same cycle count, same applied flag — with taint early exit
/// both on and off, across workloads that cover single-kernel,
/// host-control-flow (BFS's stop-flag loop reads device memory between
/// launches) and multi-kernel whole-application (`kernel: None`) campaigns.
/// Only the `ckpt_skipped_cycles` marker may differ.
#[test]
fn checkpoint_matches_full_simulation() {
    let card = GpuConfig::rtx2060();
    let workloads: [(Box<dyn Workload>, usize); 3] = [
        (Box::new(VectorAdd::new(256)), 120),
        (Box::new(Bfs::new()), 24),
        (Box::new(Srad1::default()), 16),
    ];
    for (w, runs) in &workloads {
        let golden = profile(w.as_ref(), &card).unwrap();
        let spec = CampaignSpec::new(Structure::RegisterFile);
        for early_exit in [true, false] {
            let mut forked_cfg = CampaignConfig::new(spec.clone(), *runs, 17);
            let mut cold_cfg = CampaignConfig::new(spec.clone(), *runs, 17).no_checkpoints();
            if !early_exit {
                forked_cfg = forked_cfg.no_early_exit();
                cold_cfg = cold_cfg.no_early_exit();
            }
            let forked = run_campaign(w.as_ref(), &card, &forked_cfg, &golden).unwrap();
            let cold = run_campaign(w.as_ref(), &card, &cold_cfg, &golden).unwrap();
            let tag = format!("{} (early_exit={early_exit})", w.name());
            assert_eq!(forked.tally, cold.tally, "{tag}: tallies diverge");
            for (i, (a, b)) in forked.records.iter().zip(&cold.records).enumerate() {
                assert_eq!(a.effect, b.effect, "{tag} run {i}: effect");
                assert_eq!(a.cycles, b.cycles, "{tag} run {i}: cycles");
                assert_eq!(a.applied, b.applied, "{tag} run {i}: applied");
                assert_eq!(a.early_exit, b.early_exit, "{tag} run {i}: early_exit");
                assert_eq!(b.ckpt_skipped_cycles, 0, "{tag} run {i}: cold forked");
            }
            assert_eq!(cold.stats.checkpoints, 0, "{tag}: cold mode took snapshots");
            assert_eq!(cold.stats.restores, 0, "{tag}: cold mode restored");
            assert!(
                forked.stats.checkpoints > 0,
                "{tag}: no snapshots were recorded"
            );
            assert!(
                forked.stats.restores > 0,
                "{tag}: no run forked from a checkpoint in {runs}"
            );
        }
    }
}

/// Checkpoint forking must also be transparent to *permanent* faults: a
/// run forked from a golden snapshot re-arms its stuck-at mask on the
/// restored state, so per-run effect and cycles match a cold start — for
/// data (register file) and control (warp scheduler) stuck-at campaigns
/// alike, with taint early exit both on and off.
#[test]
fn checkpoint_matches_cold_start_for_stuck_at() {
    let card = GpuConfig::rtx2060();
    let cases: [(Box<dyn Workload>, Structure, usize); 2] = [
        (Box::new(VectorAdd::new(256)), Structure::RegisterFile, 60),
        (Box::new(ScalarProd::new(8)), Structure::Sched, 24),
    ];
    for (w, structure, runs) in &cases {
        let golden = profile(w.as_ref(), &card).unwrap();
        let spec = CampaignSpec::new(*structure).model(FaultModel::StuckAt1);
        for early_exit in [true, false] {
            let mut forked_cfg = CampaignConfig::new(spec.clone(), *runs, 17);
            let mut cold_cfg = CampaignConfig::new(spec.clone(), *runs, 17).no_checkpoints();
            if !early_exit {
                forked_cfg = forked_cfg.no_early_exit();
                cold_cfg = cold_cfg.no_early_exit();
            }
            let forked = run_campaign(w.as_ref(), &card, &forked_cfg, &golden).unwrap();
            let cold = run_campaign(w.as_ref(), &card, &cold_cfg, &golden).unwrap();
            let tag = format!(
                "{}/{structure} stuck-at-1 (early_exit={early_exit})",
                w.name()
            );
            assert_eq!(forked.tally, cold.tally, "{tag}: tallies diverge");
            for (i, (a, b)) in forked.records.iter().zip(&cold.records).enumerate() {
                assert_eq!(a.effect, b.effect, "{tag} run {i}: effect");
                assert_eq!(a.cycles, b.cycles, "{tag} run {i}: cycles");
                assert_eq!(a.applied, b.applied, "{tag} run {i}: applied");
                assert_eq!(a.early_exit, b.early_exit, "{tag} run {i}: early_exit");
            }
            assert!(
                forked.stats.restores > 0,
                "{tag}: no run forked from a checkpoint in {runs}"
            );
        }
    }
}

/// Recording snapshots must not perturb the golden execution, and resuming
/// from *any* snapshot — at several strides — must finish with the golden
/// output, cycle count and statistics.
#[test]
fn snapshot_fidelity_across_strides() {
    let card = GpuConfig::rtx2060();
    let workloads: [Box<dyn Workload>; 2] = [Box::new(VectorAdd::new(256)), Box::new(Bfs::new())];
    for w in &workloads {
        let golden = profile(w.as_ref(), &card).unwrap();
        let total = golden.total_cycles();
        for div in [3, 7, 16] {
            let interval = (total / div).max(1);
            let mut rec = Gpu::new(card.clone());
            rec.record_checkpoints(interval, 1 << 30);
            let out = w.run(&mut rec).unwrap();
            assert_eq!(
                out,
                golden.output,
                "{} stride {interval}: recording perturbed the output",
                w.name()
            );
            assert_eq!(
                rec.stats(),
                &golden.app,
                "{} stride {interval}: recording perturbed the statistics",
                w.name()
            );
            let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
            assert!(!store.is_empty(), "{} stride {interval}", w.name());
            for idx in 0..store.len() {
                let mut gpu = Gpu::new(card.clone());
                gpu.resume_from(&store, idx);
                let out = w.run(&mut gpu).unwrap();
                let tag = format!(
                    "{} stride {interval} snapshot {idx} (cycle {})",
                    w.name(),
                    store.snapshot_cycle(idx)
                );
                assert_eq!(out, golden.output, "{tag}: output diverged");
                assert_eq!(gpu.stats(), &golden.app, "{tag}: statistics diverged");
                assert_eq!(gpu.cycle(), total, "{tag}: cycle count diverged");
            }
        }
    }
}

/// A checkpoint budget too small for even one snapshot degrades the store
/// to a single early snapshot — and restoring from it must still replay
/// to the exact golden output, cycles and statistics.
#[test]
fn restore_works_when_only_the_first_snapshot_survives() {
    let card = GpuConfig::rtx2060();
    let w = VectorAdd::new(256);
    let golden = profile(&w, &card).unwrap();
    let mut rec = Gpu::new(card.clone());
    // Stride of 1 cycle against a 1-byte budget: maximal re-striding
    // pressure, every push over the first triggers halving.
    rec.record_checkpoints(1, 1);
    w.run(&mut rec).unwrap();
    let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
    assert_eq!(store.len(), 1, "budget of 1 byte must keep exactly one");
    let mut gpu = Gpu::new(card);
    gpu.resume_from(&store, 0);
    let out = w.run(&mut gpu).unwrap();
    assert_eq!(out, golden.output);
    assert_eq!(gpu.cycle(), golden.total_cycles());
    assert_eq!(gpu.stats(), &golden.app);
}

/// `Gpu::snapshot` / `Gpu::restore` round-trip between launches: restoring
/// a snapshot into a fresh device and running the workload again matches
/// running it twice back-to-back on one device.
#[test]
fn explicit_snapshot_restore_roundtrip() {
    let card = GpuConfig::rtx2060();
    let w = VectorAdd::new(256);

    let mut twice = Gpu::new(card.clone());
    w.run(&mut twice).unwrap();
    let snap = twice.snapshot();
    let out_twice = w.run(&mut twice).unwrap();

    let mut restored = Gpu::new(card.clone());
    restored.restore(&snap);
    assert_eq!(restored.cycle(), snap.cycle());
    let out_restored = w.run(&mut restored).unwrap();

    assert_eq!(out_restored, out_twice);
    assert_eq!(restored.stats(), twice.stats());
    assert_eq!(restored.cycle(), twice.cycle());
}

/// Fault plans that leave a device dirty in different ways: a transient
/// register-file flip; transient flips of one data bit in every line of
/// every core's L1D and of the L2 (valid lines are hit and tainted; the L1s
/// are flushed at the end of the launch, but the L2 keeps its tainted lines
/// and latches escapes); and a stuck-at-1 register-file site (armed stuck
/// state on the cores).
fn dirtying_plans(card: &GpuConfig, cycle: u64) -> [(&'static str, InjectionPlan); 3] {
    let rf = |model| InjectionPlan {
        model,
        faults: vec![gpufi_sim::PlannedFault {
            cycle,
            target: FaultTarget::RegisterFile {
                scope: Scope::Warp,
                entry_lot: 3,
                reg: 1,
                bits: vec![30],
            },
        }],
    };
    let every_line = |cache: CacheConfig| -> Vec<u64> {
        (0..cache.num_lines())
            .map(|line| u64::from(line) * cache.bits_per_line() + u64::from(TAG_BITS) + 5)
            .collect()
    };
    let caches = InjectionPlan {
        model: FaultModel::Transient,
        faults: vec![
            gpufi_sim::PlannedFault {
                cycle,
                target: FaultTarget::L1Data {
                    core_lot: 0,
                    replicate: card.num_sms,
                    bits: every_line(card.l1d.expect("the card has an L1 data cache")),
                },
            },
            gpufi_sim::PlannedFault {
                cycle,
                target: FaultTarget::L2 {
                    bits: every_line(card.l2),
                },
            },
        ],
    };
    [
        ("rf", rf(FaultModel::Transient)),
        ("l1d+l2", caches),
        ("rf stuck-at-1", rf(FaultModel::StuckAt1)),
    ]
}

/// A campaign worker forks every run into one reused `Gpu`.  A device
/// that has just finished a faulty run — cut short by the watchdog right
/// after the fault (so it holds in-flight CTAs, dirty and tainted cache
/// lines and latched escape state, and then a pending fault), or run to
/// the end under the early-exit probe with a latched verdict — whose
/// global segment and constant bank the host then grew and overwrote, and
/// which still carries watchdogs (the wall deadline already expired) and
/// early-exit flags, must fork from every snapshot exactly like a fresh
/// `Gpu::new`: same state digest right after the fork, then the same
/// output, statistics, cycle count, injection records, probe verdict and
/// final digest — for a faulty continuation from snapshots before the
/// fault cycle and a golden one from snapshots after it.
#[test]
fn reused_fork_matches_fresh_fork() {
    let card = GpuConfig::rtx2060();
    let workloads: [Box<dyn Workload>; 2] =
        [Box::new(Gaussian::new()), Box::new(NeedlemanWunsch::new())];
    for w in &workloads {
        let golden = profile(w.as_ref(), &card).unwrap();
        let total = golden.total_cycles();
        let fault_cycle = total / 2;
        let mut rec = Gpu::new(card.clone());
        rec.record_checkpoints((total / 6).max(1), 1 << 30);
        w.run(&mut rec).unwrap();
        let store = std::sync::Arc::new(rec.finish_checkpoint_recording());
        assert!(
            store.snapshot_cycle(0) <= fault_cycle
                && store.snapshot_cycle(store.len() - 1) > fault_cycle,
            "{}: need snapshots on both sides of the fault",
            w.name()
        );
        // One flip in the last L2 line, which these small footprints
        // never fill: the fault applies to nothing.
        let nowhere = InjectionPlan {
            model: FaultModel::Transient,
            faults: vec![gpufi_sim::PlannedFault {
                cycle: fault_cycle,
                target: FaultTarget::L2 {
                    bits: vec![
                        u64::from(card.l2.num_lines() - 1) * card.l2.bits_per_line()
                            + u64::from(TAG_BITS),
                    ],
                },
            }],
        };
        for (kind, plan) in dirtying_plans(&card, fault_cycle) {
            let mut used = Gpu::new(card.clone());
            for idx in 0..store.len() {
                // The faulty run, forked from the first snapshot as a
                // campaign run would be.
                let cut = idx % 2 == 0;
                used.resume_from(&store, 0);
                if cut {
                    // Cut short by the watchdog right after the fault.
                    used.arm_faults(plan.clone());
                    used.set_watchdog(fault_cycle + 64);
                    assert!(w.run(&mut used).is_err(), "{} {kind}", w.name());
                    assert!(
                        used.injection_records().iter().any(|r| r.applied),
                        "{} {kind}: the dirtying fault did not apply",
                        w.name()
                    );
                    // A pending fault the fork must not inherit.
                    used.arm_faults(plan.clone());
                } else {
                    // Run to the end under the early-exit probe with a
                    // fault that lands nowhere: it expires at once and the
                    // probe latches a verdict the fork must not inherit.
                    used.arm_faults(nowhere.clone());
                    used.set_early_exit_probe(true);
                    assert_eq!(w.run(&mut used).as_ref(), Ok(&golden.output));
                    assert!(used.would_early_exit(), "{}: no probe verdict", w.name());
                }
                // Host-side leftovers: a grown global segment, overwritten
                // device data and constant bank.
                let ptr = used.malloc(4096).unwrap();
                used.memcpy_h2d(ptr, &[0xa5; 4096]).unwrap();
                used.memcpy_h2d(GLOBAL_BASE, &[0x5a; 256]).unwrap();
                used.write_const(0, &[0x33; 64]).unwrap();
                // Run state a fork must not inherit: a cycle watchdog that
                // fires at once, an expired wall deadline and both
                // early-exit modes.
                used.set_watchdog(1);
                used.set_wall_watchdog(std::time::Duration::ZERO);
                used.set_early_exit(true);
                used.set_early_exit_probe(true);

                let mut fresh = Gpu::new(card.clone());
                let tag = format!(
                    "{} after {kind} run, snapshot {idx} (cycle {})",
                    w.name(),
                    store.snapshot_cycle(idx)
                );
                for gpu in [&mut used, &mut fresh] {
                    gpu.resume_from(&store, idx);
                    if store.snapshot_cycle(idx) <= fault_cycle {
                        gpu.arm_faults(if cut { plan.clone() } else { nowhere.clone() });
                        gpu.set_watchdog(total * 2);
                    }
                }
                assert_eq!(
                    used.snapshot().state_digest(),
                    fresh.snapshot().state_digest(),
                    "{tag}: state digest after the fork"
                );
                let out_used = w.run(&mut used);
                let out_fresh = w.run(&mut fresh);
                assert_eq!(out_used, out_fresh, "{tag}: output");
                assert_eq!(used.stats(), fresh.stats(), "{tag}: statistics");
                assert_eq!(used.cycle(), fresh.cycle(), "{tag}: cycle");
                assert_eq!(
                    used.injection_records(),
                    fresh.injection_records(),
                    "{tag}: injection records"
                );
                assert_eq!(
                    used.would_early_exit(),
                    fresh.would_early_exit(),
                    "{tag}: early-exit probe"
                );
                assert_eq!(
                    used.snapshot().state_digest(),
                    fresh.snapshot().state_digest(),
                    "{tag}: final state digest"
                );
            }
        }
    }
}
