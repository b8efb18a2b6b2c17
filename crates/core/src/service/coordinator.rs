//! The `serve` side: owns the canonical outputs, never simulates a run.
//!
//! Lease state machine (documented in DESIGN.md):
//!
//! ```text
//! pending ──grant──▶ granted ──all runs merged──▶ retired
//!    ▲                  │
//!    └──reclaim─────────┘   (worker died / stalled past deadline /
//!        (unfilled runs)     torn frame / protocol violation)
//! ```
//!
//! Merges are **first-ack-wins by run index**: a run completed by both
//! the original owner of a reissued lease and its new owner is counted
//! once, and the loser increments `duplicate_acks`.  Because every worker
//! executes the same plan with the same per-run RNG, the two records are
//! identical and the winner's identity cannot change the output.

use super::proto::{read_frame, write_frame, Msg, PROTO_VERSION};
use super::{ServiceConfig, ServiceError};
use crate::campaign::{
    base_stats, draw_plans, draw_stratified_plans, full_fingerprint, sampling_summary,
    static_prune, CampaignConfig, CampaignResult, RunPlan, RunRecord, WorkerThroughput,
};
use crate::profile::GoldenProfile;
use crate::sampling::{SamplingMode, StrataLayout};
use crate::supervisor::{JournalSink, RunJournal};
use crate::workload::Workload;
use gpufi_metrics::Tally;
use gpufi_sim::GpuConfig;
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Coordinator-side fault injection for the chaos tests: simulate the
/// coordinator being SIGKILLed (stop serving, leave the journal exactly
/// as the crash would) after this many merged run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorChaos {
    /// Die after this many merges (counted in this process; resumed
    /// records do not count).  `0` dies before the first merge.
    pub die_after_merges: usize,
}

/// A granted lease awaiting its acks.
struct Granted {
    runs: Vec<usize>,
}

struct WorkerStat {
    runs: usize,
    leases: usize,
    start: Instant,
    last: Instant,
}

/// The coordinator's shared state; one mutex, one condvar.
struct Board {
    slots: Vec<Option<RunRecord>>,
    /// Filled slots — resumed + pruned + merged.  Campaign completes at
    /// `target`.
    filled: usize,
    target: usize,
    queue: VecDeque<(u64, Vec<usize>)>,
    granted: BTreeMap<u64, Granted>,
    next_lease: u64,
    leases: usize,
    reissued: usize,
    duplicates: usize,
    workers: Vec<WorkerStat>,
    /// Simulated coordinator death: stop granting, stop merging.
    died: bool,
    /// Remaining merges before the chaos hook kills the coordinator.
    chaos_left: Option<usize>,
}

impl Board {
    fn complete(&self) -> bool {
        self.filled >= self.target
    }
}

type Shared = (Mutex<Board>, Condvar);

/// Runs one campaign as the coordinator of a distributed sweep: accepts
/// workers on `listener`, leases them run indices, merges their acks into
/// the canonical journal/CSV/tally and reissues leases lost to worker
/// death, stalls or torn frames.  Returns the same [`CampaignResult`] a
/// local [`run_campaign`](crate::campaign::run_campaign) would — CSV,
/// tally and journal byte-identical to a `--threads 1` run.
pub fn serve_campaign(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    svc: &ServiceConfig,
    listener: TcpListener,
) -> Result<CampaignResult, ServiceError> {
    serve_campaign_with_chaos(workload, card, cfg, golden, svc, listener, None)
}

/// [`serve_campaign`] with an optional coordinator-death chaos hook.
pub fn serve_campaign_with_chaos(
    workload: &dyn Workload,
    card: &GpuConfig,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
    svc: &ServiceConfig,
    listener: TcpListener,
    chaos: Option<&CoordinatorChaos>,
) -> Result<CampaignResult, ServiceError> {
    let start = Instant::now();
    if cfg.oracle_check {
        return Err(ServiceError::Campaign(
            "--oracle-check is a single-process validation mode; run it without serve".into(),
        ));
    }
    // Identical plan drawing to the local scheduler: the coordinator needs
    // the plans only for the static prune and the strata layout, but
    // drawing them the same way is what the fingerprint certifies.
    let (plans, strata) = draw(workload, cfg, golden)?;
    let fp = full_fingerprint(workload, card, cfg, strata.as_ref());

    // Journal / resume: exactly the local scheduler's semantics — load
    // completed records, lease only the missing indices.
    let mut slots: Vec<Option<RunRecord>> = vec![None; cfg.runs];
    let mut resumed = 0usize;
    let journal: Option<RunJournal> = match &cfg.journal {
        None => None,
        Some(path) => {
            if cfg.resume && std::path::Path::new(path).exists() {
                let (j, loaded) =
                    RunJournal::resume(path, fp, cfg.runs).map_err(ServiceError::Campaign)?;
                for (i, rec) in loaded.into_iter().enumerate() {
                    if let Some(r) = rec {
                        slots[i] = Some(r);
                        resumed += 1;
                    }
                }
                Some(j)
            } else {
                Some(RunJournal::create(path, fp, cfg.runs).map_err(ServiceError::Campaign)?)
            }
        }
    };
    let (journal_writer, journal_sink) = match journal {
        Some(j) => {
            let (w, s) = j.into_writer();
            (Some(w), Some(s))
        }
        None => (None, None),
    };

    // Static prune on the coordinator: pruned runs are never leased, so
    // workers never see them — same records as the local prune.
    static_prune(
        workload,
        cfg,
        &plans,
        golden.total_cycles(),
        &mut slots,
        journal_sink.as_ref(),
        |rec| rec,
    );

    // Partition the missing index space into leases, ascending.
    let pending: Vec<usize> = (0..cfg.runs).filter(|&i| slots[i].is_none()).collect();
    let lease_size = svc.effective_lease_size(cfg.runs);
    let mut queue = VecDeque::new();
    let mut next_lease = 0u64;
    for chunk in pending.chunks(lease_size) {
        queue.push_back((next_lease, chunk.to_vec()));
        next_lease += 1;
    }

    let filled = cfg.runs - pending.len();
    let shared: Shared = (
        Mutex::new(Board {
            slots,
            filled,
            target: cfg.runs,
            queue,
            granted: BTreeMap::new(),
            next_lease,
            leases: 0,
            reissued: 0,
            duplicates: 0,
            workers: Vec::new(),
            died: false,
            chaos_left: chaos.map(|c| c.die_after_merges),
        }),
        Condvar::new(),
    );

    let addr = listener
        .local_addr()
        .map_err(|e| ServiceError::Io(format!("local_addr: {e}")))?;
    let stop = AtomicBool::new(false);
    // Moved (not borrowed) into the accept thread so every sender clone is
    // dropped once the scope ends — `JournalWriter::finish` below joins a
    // thread that only exits when the last `JournalSink` is gone.
    let sink = journal_sink.clone();

    std::thread::scope(|scope| {
        // Accept loop: one handler thread per connection.  Unblocked at
        // completion by a dummy self-connection after `stop` is set.
        let stop = &stop;
        let shared = &shared;
        let listener = &listener;
        scope.spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let sink = sink.clone();
                scope.spawn(move || {
                    let _ = handle_worker(
                        stream,
                        shared,
                        sink.as_ref(),
                        svc,
                        fp,
                        cfg.runs,
                        cfg.spec.model.name(),
                    );
                });
            }
        });
        // Completion waiter (the scope's own thread).
        {
            let (lock, cvar) = &shared;
            let mut b = lock.lock().expect("board lock poisoned");
            while !(b.died || b.complete()) {
                b = cvar.wait(b).expect("board lock poisoned");
            }
        }
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
    });

    // Surface journal-append errors, then canonicalize the journal so its
    // bytes depend only on the campaign, not on merge order.  A chaos
    // death skips finalization — exactly what SIGKILL would leave behind.
    drop(journal_sink);
    let died = {
        let b = shared.0.lock().expect("board lock poisoned");
        b.died
    };
    let journal = match journal_writer {
        Some(w) => {
            let j = w.finish().map_err(ServiceError::Campaign)?;
            if !died {
                j.finalize_canonical().map_err(ServiceError::Campaign)?;
            }
            Some(j)
        }
        None => None,
    };
    if died {
        return Err(ServiceError::Chaos);
    }

    let b = shared.0.into_inner().expect("board lock poisoned");
    let mut records = Vec::with_capacity(cfg.runs);
    let mut missing = Vec::new();
    for (i, slot) in b.slots.into_iter().enumerate() {
        match slot {
            Some(r) => records.push(r),
            None => missing.push(i),
        }
    }
    if !missing.is_empty() {
        return Err(ServiceError::Campaign(format!(
            "coordinator lost runs {missing:?}"
        )));
    }
    let tally: Tally = records.iter().map(|r| r.effect).collect();
    let wall = start.elapsed().as_secs_f64();
    let mut stats = base_stats(&records, strata.as_ref(), wall);
    stats.threads = b.workers.len().max(1);
    stats.resumed = resumed;
    stats.workers = b.workers.len();
    stats.leases = b.leases;
    stats.reissued_leases = b.reissued;
    stats.duplicate_acks = b.duplicates;
    stats.worker_throughput = b
        .workers
        .iter()
        .enumerate()
        .map(|(w, s)| WorkerThroughput {
            worker: w as u32,
            runs: s.runs,
            leases: s.leases,
            runs_per_sec: s.runs as f64 / s.last.duration_since(s.start).as_secs_f64().max(1e-9),
        })
        .collect();
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

/// Plans plus, for stratified campaigns, the strata layout and per-stratum
/// allocation — what both fingerprinting and the static prune consume.
pub(super) type DrawnPlans = (Vec<RunPlan>, Option<(StrataLayout, Vec<usize>)>);

/// Shared plan drawing (coordinator and worker): the same match the local
/// scheduler opens with.
pub(super) fn draw(
    workload: &dyn Workload,
    cfg: &CampaignConfig,
    golden: &GoldenProfile,
) -> Result<DrawnPlans, ServiceError> {
    let out = match cfg.sampling {
        SamplingMode::Flat => (
            draw_plans(cfg, golden).map_err(|e| ServiceError::Campaign(e.to_string()))?,
            None,
        ),
        SamplingMode::Stratified => {
            let (plans, layout, allocation) = draw_stratified_plans(workload, cfg, golden)
                .map_err(|e| ServiceError::Campaign(e.to_string()))?;
            (plans, Some((layout, allocation)))
        }
    };
    Ok(out)
}

/// One worker connection, handshake to Fin.  Any error drops the
/// connection; a granted lease is reclaimed on the way out.
#[allow(clippy::too_many_arguments)]
fn handle_worker(
    stream: TcpStream,
    shared: &Shared,
    sink: Option<&JournalSink>,
    svc: &ServiceConfig,
    fp: u64,
    total_runs: usize,
    model: &str,
) -> Result<(), ServiceError> {
    let mut stream = stream;
    stream.set_nodelay(true).ok();
    // The stall deadline doubles as the read timeout: a lease owner that
    // stays silent this long (no acks, no heartbeat) is presumed dead.
    stream
        .set_read_timeout(Some(Duration::from_millis(svc.deadline_ms.max(1))))
        .ok();
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| ServiceError::Io(format!("clone stream: {e}")))?,
    );

    // Handshake: fingerprint checked coordinator-side here; the worker
    // re-checks the Welcome fingerprint for the other direction.
    let hello = Msg::decode(&read_frame(&mut reader)?)?;
    let Msg::Hello {
        proto,
        fingerprint,
        runs,
        model: worker_model,
    } = hello
    else {
        return Err(ServiceError::Protocol(
            "worker must open with a hello frame".into(),
        ));
    };
    if proto != PROTO_VERSION {
        let reason =
            format!("protocol version {proto} not supported (coordinator speaks {PROTO_VERSION})");
        let _ = write_frame(
            &mut stream,
            &Msg::Reject {
                reason: reason.clone(),
            }
            .encode(),
        );
        return Err(ServiceError::Protocol(reason));
    }
    // Explicit fault-model check before the opaque fingerprint comparison:
    // a transient worker dialing into a stuck-at campaign (or vice versa)
    // would also fail the fingerprint, but this names the actual mistake.
    if worker_model != model {
        let reason = format!(
            "fault model mismatch: coordinator runs `{model}`, worker runs `{worker_model}`"
        );
        let _ = write_frame(
            &mut stream,
            &Msg::Reject {
                reason: reason.clone(),
            }
            .encode(),
        );
        return Err(ServiceError::Protocol(reason));
    }
    if fingerprint != fp || runs != total_runs {
        let reason = format!(
            "campaign fingerprint mismatch: coordinator {fp:016x} / {total_runs} runs vs \
             worker {fingerprint:016x} / {runs} runs"
        );
        let _ = write_frame(&mut stream, &Msg::Reject { reason }.encode());
        return Err(ServiceError::FingerprintMismatch {
            ours: fp,
            theirs: fingerprint,
        });
    }
    write_frame(
        &mut stream,
        &Msg::Welcome {
            fingerprint: fp,
            deadline_ms: svc.deadline_ms,
        }
        .encode(),
    )?;

    let (lock, cvar) = shared;
    let wid = {
        let mut b = lock.lock().expect("board lock poisoned");
        if b.died || b.complete() {
            drop(b);
            let _ = write_frame(&mut stream, &Msg::Fin.encode());
            return Ok(());
        }
        let now = Instant::now();
        b.workers.push(WorkerStat {
            runs: 0,
            leases: 0,
            start: now,
            last: now,
        });
        b.workers.len() - 1
    };

    loop {
        // Grant the next pending lease, or wait for a reissue/completion.
        let (id, runs) = {
            let mut b = lock.lock().expect("board lock poisoned");
            loop {
                if b.died || b.complete() {
                    drop(b);
                    let _ = write_frame(&mut stream, &Msg::Fin.encode());
                    return Ok(());
                }
                if let Some((id, runs)) = b.queue.pop_front() {
                    b.leases += 1;
                    b.workers[wid].leases += 1;
                    b.granted.insert(id, Granted { runs: runs.clone() });
                    break (id, runs);
                }
                let (guard, _) = cvar
                    .wait_timeout(b, Duration::from_millis(svc.heartbeat_ms.max(1)))
                    .expect("board lock poisoned");
                b = guard;
                // Idle ping: keeps the worker's blocking read fed and
                // detects its death while no lease is at stake.
                write_frame(&mut stream, &Msg::Ping.encode())?;
            }
        };
        if let Err(e) = serve_lease(&mut stream, &mut reader, shared, sink, wid, id, &runs) {
            // A chaos death is not the worker's fault: no reissue, the
            // "crashed" coordinator just stops.
            if e != ServiceError::Chaos {
                reclaim(shared, id);
            }
            return Err(e);
        }
    }
}

/// Streams one granted lease: write the grant, merge `done` acks until
/// every run of the lease is accounted for, retire it with `lease_done`.
fn serve_lease(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
    sink: Option<&JournalSink>,
    wid: usize,
    id: u64,
    runs: &[usize],
) -> Result<(), ServiceError> {
    let (lock, cvar) = shared;
    write_frame(
        stream,
        &Msg::Lease {
            id,
            runs: runs.to_vec(),
        }
        .encode(),
    )?;
    let mut remaining: Vec<usize> = runs.to_vec();
    while !remaining.is_empty() {
        let msg = Msg::decode(&read_frame(reader)?)?;
        match msg {
            Msg::Ping => continue,
            Msg::Done { lease, run, rec } => {
                let mut b = lock.lock().expect("board lock poisoned");
                if b.died {
                    return Err(ServiceError::Chaos);
                }
                if run >= b.slots.len() {
                    return Err(ServiceError::Protocol(format!(
                        "ack for run {run} outside campaign of {}",
                        b.slots.len()
                    )));
                }
                if b.slots[run].is_some() {
                    // First ack won already — a reissued lease's original
                    // owner catching up, or a duplicated frame.
                    b.duplicates += 1;
                } else if lease == id && remaining.contains(&run) {
                    if b.chaos_left == Some(0) {
                        b.died = true;
                        cvar.notify_all();
                        return Err(ServiceError::Chaos);
                    }
                    b.slots[run] = Some(rec);
                    b.filled += 1;
                    b.workers[wid].runs += 1;
                    b.workers[wid].last = Instant::now();
                    if let Some(s) = sink {
                        s.append(run, &rec);
                    }
                    if let Some(left) = &mut b.chaos_left {
                        *left -= 1;
                        if *left == 0 {
                            b.died = true;
                            cvar.notify_all();
                            return Err(ServiceError::Chaos);
                        }
                    }
                    if b.complete() {
                        cvar.notify_all();
                    }
                } else {
                    return Err(ServiceError::Protocol(format!(
                        "ack for unleased run {run} (lease {lease}, serving {id})"
                    )));
                }
                remaining.retain(|&r| r != run);
            }
            other => {
                return Err(ServiceError::Protocol(format!(
                    "unexpected message during lease {id}: {other:?}"
                )))
            }
        }
    }
    {
        let mut b = lock.lock().expect("board lock poisoned");
        b.granted.remove(&id);
    }
    write_frame(stream, &Msg::LeaseDone { id }.encode())
}

/// Returns a lost lease's unfilled runs to the head of the queue under a
/// fresh lease id, and wakes any handler waiting for work.
fn reclaim(shared: &Shared, id: u64) {
    let (lock, cvar) = shared;
    let mut b = lock.lock().expect("board lock poisoned");
    if let Some(g) = b.granted.remove(&id) {
        let left: Vec<usize> = g
            .runs
            .iter()
            .copied()
            .filter(|&r| b.slots[r].is_none())
            .collect();
        if !left.is_empty() {
            let nid = b.next_lease;
            b.next_lease += 1;
            b.reissued += 1;
            b.queue.push_front((nid, left));
        }
        cvar.notify_all();
    }
}
