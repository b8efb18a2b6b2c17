//! Every metric the benchmark reports: its unit, which way is better and,
//! for a per-layer metric, the end-to-end metric it should move and the
//! workload where that shows most.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// For a per-layer metric: `end-to-end metric @ workload`.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// Measured untraced (`--trace 0`), as medians over a run's repeats.
pub const END_TO_END: [Metric; 5] = [
    m("sim_runs_per_s", "runs/s", "higher", ""),
    m("effective_runs_per_s", "runs/s", "higher", ""),
    m("setup_s", "s", "lower", ""),
    m("peak_rss_mib", "MiB", "lower", ""),
    m("cpu_ms_per_run", "ms", "lower", ""),
];

/// Measured by the traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 37] = [
    m("core.profile_ms", "ms", "lower", "setup_s @ all"),
    m("core.prepare_ms", "ms", "lower", "setup_s @ ge-rf-t2"),
    m(
        "core.run_ms_p50",
        "ms",
        "lower",
        "sim_runs_per_s @ ge-rf-t2",
    ),
    m(
        "core.run_ms_p99",
        "ms",
        "lower",
        "sim_runs_per_s @ ge-rf-t2",
    ),
    m(
        "core.tail_ms",
        "ms",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "core.early_exit_share",
        "ratio",
        "higher",
        "sim_runs_per_s @ ge-rf-t2",
    ),
    m(
        "core.pruned_share",
        "ratio",
        "higher",
        "effective_runs_per_s @ nw-rf-serve2",
    ),
    m("core.classify_us", "us", "lower", "sim_runs_per_s @ all"),
    m(
        "core.journal_ms",
        "ms",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "core.journal_bytes",
        "bytes",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m("core.csv_ms", "ms", "lower", "sim_runs_per_s @ all"),
    m("isa.dead_bits_ms", "ms", "lower", "setup_s @ nw-rf-serve2"),
    m("faults.draw_us_per_run", "us", "lower", "setup_s @ all"),
    m(
        "sim.checkpoint_record_ms",
        "ms",
        "lower",
        "setup_s @ all; sim_runs_per_s @ nw-rf-serve2",
    ),
    m("sim.checkpoints", "count", "lower", "peak_rss_mib @ all"),
    m("sim.checkpoint_mib", "MiB", "lower", "peak_rss_mib @ all"),
    m(
        "sim.new_ms",
        "ms",
        "lower",
        "sim_runs_per_s, cpu_ms_per_run @ ge-rf-t2",
    ),
    m(
        "sim.restore_ms",
        "ms",
        "lower",
        "sim_runs_per_s, cpu_ms_per_run @ ge-rf-t2",
    ),
    m(
        "sim.drop_ms",
        "ms",
        "lower",
        "sim_runs_per_s, cpu_ms_per_run @ ge-rf-t2",
    ),
    m(
        "sim.restore_share",
        "ratio",
        "lower",
        "sim_runs_per_s @ ge-rf-t2",
    ),
    m(
        "sim.exec_ms",
        "ms",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "sim.cycles_per_run",
        "cycles",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "sim.mcycles_per_s",
        "Mcycles/s",
        "higher",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "sim.warp_instr_per_run",
        "count",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "sim.l1d_accesses_per_run",
        "count",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "sim.l2_accesses_per_run",
        "count",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "service.coordinator_ms",
        "ms",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "service.worker_ms_max",
        "ms",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "service.worker_runs_per_s_min",
        "runs/s",
        "higher",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "service.leases",
        "count",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "service.reissued_leases",
        "count",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "service.duplicate_acks",
        "count",
        "lower",
        "sim_runs_per_s @ nw-rf-serve2",
    ),
    m(
        "alloc.allocs_per_run",
        "count",
        "lower",
        "sim_runs_per_s, cpu_ms_per_run @ ge-rf-t2",
    ),
    m(
        "alloc.mib_per_run",
        "MiB",
        "lower",
        "sim_runs_per_s, cpu_ms_per_run @ ge-rf-t2",
    ),
    m(
        "host.sys_ms_per_run",
        "ms",
        "lower",
        "cpu_ms_per_run, sim_runs_per_s @ ge-rf-t2",
    ),
    m(
        "host.minor_faults_per_run",
        "count",
        "lower",
        "cpu_ms_per_run, sim_runs_per_s @ ge-rf-t2",
    ),
    m(
        "trace.overhead_ms",
        "ms",
        "lower",
        "none: time spent inside the tracing hook",
    ),
];
