//! Static lint passes over SASS-lite kernels.
//!
//! Five lints plus the reconvergence check from [`super::dom`]:
//!
//! * **uninitialized_read** — a general-purpose register is read before any
//!   definition reaches it on some path (guard-aware: a def under `@P` only
//!   initializes reads under the same `@P`).  Params `R0..Rk` arrive
//!   preloaded and count as initialized; the simulator does zero-fill
//!   registers, so this is a hygiene lint, not a soundness one.
//! * **barrier_divergence** — a `BAR` that is guarded, or that sits inside
//!   an open `SSY`/`SYNC` divergence region; on hardware a barrier that not
//!   all CTA threads reach hangs the CTA.
//! * **shared_race** — two shared-memory accesses (at least one a store)
//!   that may touch the same address from different threads with no `BAR`
//!   between them.  Addresses are tracked as affine forms
//!   `stride · tid.x + base`; guarded accesses are skipped (the classic
//!   `@P` tree-reduction pattern serializes by guard, and flagging it
//!   would drown real findings).
//! * **unreachable_code** — basic blocks no path from the entry reaches.
//! * **write_never_read** — a register written by reachable code but never
//!   read by any reachable instruction.
//! * **bad_reconvergence** — an `SSY` whose target does not post-dominate
//!   the push site (see [`super::dom::reconvergence_violations`]).
//! * **always-taken-branch** — a guarded `BRA` whose condition the
//!   known-bits analysis proves constant: the branch is always (or never)
//!   taken, so either the guard or the fall-through is dead weight.
//! * **shift-overflow** — a shift whose amount is provably ≥ 32; the
//!   hardware masks the amount to its low 5 bits, which is rarely what the
//!   author meant.

use super::cfg::{instr_succs, Cfg};
use super::dom::{reconvergence_violations, DomInfo};
use super::known_bits::KnownBitsAnalysis;
use super::liveness::write_never_read;
use crate::instr::{Guard, MemSpace, Op, Operand};
use crate::op::{BitOp, IntOp};
use crate::reg::SpecialReg;
use crate::{Kernel, Reg};
use std::collections::BTreeSet;
use std::fmt;

/// One static-analysis finding in a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// Register `reg` may be read at `instr` before any matching definition.
    UninitializedRead {
        /// Instruction index of the offending read.
        instr: usize,
        /// The register read.
        reg: Reg,
    },
    /// A `BAR` not all CTA threads are guaranteed to reach.
    BarrierDivergence {
        /// Instruction index of the barrier.
        instr: usize,
        /// Whether the barrier itself carries a guard.
        guarded: bool,
        /// `SSY` nesting depth at the barrier (0 = uniform control flow).
        depth: u32,
    },
    /// Conflicting shared-memory accesses with no separating barrier.
    SharedRace {
        /// Instruction index of the first access (lowest index).
        a: usize,
        /// Instruction index of the second access (may equal `a` when an
        /// access conflicts with itself across threads).
        b: usize,
    },
    /// Instructions `[start, end)` cannot be reached from the kernel entry.
    UnreachableCode {
        /// First unreachable instruction index.
        start: usize,
        /// One past the last unreachable instruction index.
        end: usize,
    },
    /// Register `reg` is written but its value is never read.
    WriteNeverRead {
        /// The register in question.
        reg: Reg,
        /// Instruction index of the first reachable write.
        first_write: usize,
    },
    /// An `SSY` whose target does not post-dominate the push site.
    BadReconvergence {
        /// Instruction index of the `SSY`.
        ssy: usize,
        /// The reconvergence target it names.
        target: u32,
    },
    /// A guarded branch whose condition is provably constant.
    AlwaysTakenBranch {
        /// Instruction index of the branch.
        instr: usize,
        /// Whether the branch is always taken (`false` = never taken).
        taken: bool,
    },
    /// A shift whose amount is provably ≥ 32.
    ShiftOverflow {
        /// Instruction index of the shift.
        instr: usize,
    },
}

impl Finding {
    /// Stable machine-readable lint name (the `--json` `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Finding::UninitializedRead { .. } => "uninitialized_read",
            Finding::BarrierDivergence { .. } => "barrier_divergence",
            Finding::SharedRace { .. } => "shared_race",
            Finding::UnreachableCode { .. } => "unreachable_code",
            Finding::WriteNeverRead { .. } => "write_never_read",
            Finding::BadReconvergence { .. } => "bad_reconvergence",
            Finding::AlwaysTakenBranch { .. } => "always-taken-branch",
            Finding::ShiftOverflow { .. } => "shift-overflow",
        }
    }

    /// The primary instruction index the finding anchors to.
    pub fn instr(&self) -> usize {
        match *self {
            Finding::UninitializedRead { instr, .. } => instr,
            Finding::BarrierDivergence { instr, .. } => instr,
            Finding::SharedRace { a, .. } => a,
            Finding::UnreachableCode { start, .. } => start,
            Finding::WriteNeverRead { first_write, .. } => first_write,
            Finding::BadReconvergence { ssy, .. } => ssy,
            Finding::AlwaysTakenBranch { instr, .. } => instr,
            Finding::ShiftOverflow { instr } => instr,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Finding::UninitializedRead { instr, reg } => {
                write!(f, "instr {instr}: read of possibly-uninitialized {reg}")
            }
            Finding::BarrierDivergence {
                instr,
                guarded,
                depth,
            } => {
                if guarded {
                    write!(f, "instr {instr}: BAR under a guard predicate")
                } else {
                    write!(
                        f,
                        "instr {instr}: BAR inside a divergent region (SSY depth {depth})"
                    )
                }
            }
            Finding::SharedRace { a, b } if a == b => {
                write!(
                    f,
                    "instr {a}: shared-memory store may race with itself across threads"
                )
            }
            Finding::SharedRace { a, b } => {
                write!(
                    f,
                    "instrs {a} and {b}: conflicting shared-memory accesses with no barrier between"
                )
            }
            Finding::UnreachableCode { start, end } => {
                write!(f, "instrs {start}..{end}: unreachable from kernel entry")
            }
            Finding::WriteNeverRead { reg, first_write } => {
                write!(f, "instr {first_write}: {reg} is written but never read")
            }
            Finding::BadReconvergence { ssy, target } => {
                write!(
                    f,
                    "instr {ssy}: SSY target {target} does not post-dominate the push site"
                )
            }
            Finding::AlwaysTakenBranch { instr, taken } => {
                let how = if taken { "always" } else { "never" };
                write!(
                    f,
                    "instr {instr}: branch condition is provably constant ({how} taken)"
                )
            }
            Finding::ShiftOverflow { instr } => {
                write!(
                    f,
                    "instr {instr}: shift amount is provably >= 32 (hardware masks to the low 5 bits)"
                )
            }
        }
    }
}

/// Runs every lint pass on one kernel and returns the findings sorted by
/// anchor instruction, then kind.
pub fn lint_kernel(kernel: &Kernel) -> Vec<Finding> {
    let cfg = Cfg::build(kernel.instrs());
    let dom = DomInfo::compute(&cfg);

    let mut findings = Vec::new();
    findings.extend(lint_unreachable(&cfg));
    findings.extend(
        reconvergence_violations(kernel, &cfg, &dom)
            .into_iter()
            .map(|(ssy, target)| Finding::BadReconvergence { ssy, target }),
    );
    findings.extend(
        write_never_read(kernel)
            .into_iter()
            .map(|(r, first_write)| Finding::WriteNeverRead {
                reg: Reg::new(r).expect("register index from kernel"),
                first_write,
            }),
    );
    findings.extend(lint_uninitialized(kernel, &cfg));
    findings.extend(lint_barrier_divergence(kernel));
    findings.extend(lint_shared_races(kernel, &cfg));
    findings.extend(lint_known_bits(kernel));
    findings.sort_by_key(|f| (f.instr(), f.kind()));
    findings
}

fn lint_unreachable(cfg: &Cfg) -> Vec<Finding> {
    let reach = cfg.reachable_blocks();
    let mut out = Vec::new();
    // Coalesce adjacent unreachable blocks into one finding.
    let mut open: Option<(usize, usize)> = None;
    for (b, blk) in cfg.blocks().iter().enumerate() {
        if !reach[b] {
            open = match open {
                Some((s, e)) if e == blk.start => Some((s, blk.end)),
                Some(range) => {
                    out.push(Finding::UnreachableCode {
                        start: range.0,
                        end: range.1,
                    });
                    Some((blk.start, blk.end))
                }
                None => Some((blk.start, blk.end)),
            };
        }
    }
    if let Some((start, end)) = open {
        out.push(Finding::UnreachableCode { start, end });
    }
    out
}

// ---------------------------------------------------------------------------
// Uninitialized-read lint: forward guard-aware must-initialization.
// ---------------------------------------------------------------------------

/// Must-initialization state of one register on entry to a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Init {
    /// No definition is guaranteed to have happened.
    No,
    /// Defined only under this guard; reads under the same guard are clean.
    Under(Guard),
    /// Defined on every path.
    Always,
}

impl Init {
    fn meet(self, other: Init) -> Init {
        match (self, other) {
            (Init::Always, x) | (x, Init::Always) => x,
            (Init::Under(a), Init::Under(b)) if a == b => Init::Under(a),
            _ => Init::No,
        }
    }
}

fn entry_inits(kernel: &Kernel) -> Vec<Init> {
    let n = kernel.num_regs().max(kernel.num_params()) as usize;
    let mut st = vec![Init::No; n.max(1)];
    for r in st.iter_mut().take(kernel.num_params() as usize) {
        *r = Init::Always;
    }
    st
}

/// One instruction's effect on the must-init state; reads are reported
/// through `on_read` *before* the instruction's own definition applies.
fn init_transfer(ins: &crate::Instr, st: &mut [Init], mut on_read: impl FnMut(Reg, Init)) {
    for r in ins.op.src_regs().into_iter().flatten() {
        let state = st[r.index() as usize];
        let clean = match state {
            Init::Always => true,
            Init::Under(g) => ins.guard == Some(g),
            Init::No => false,
        };
        if !clean {
            on_read(r, state);
        }
    }
    // A predicate redefinition invalidates any `Under` that tested it.
    if let Op::ISetp { p, .. } | Op::FSetp { p, .. } = ins.op {
        for s in st.iter_mut() {
            if matches!(s, Init::Under(g) if g.pred == p) {
                *s = Init::No;
            }
        }
    }
    if let Some(d) = ins.op.dest_reg() {
        let slot = &mut st[d.index() as usize];
        *slot = match ins.guard {
            None => Init::Always,
            Some(g) => match *slot {
                Init::Always => Init::Always,
                // Complementary guards cover both paths.
                Init::Under(h) if h.pred == g.pred && h.negate != g.negate => Init::Always,
                _ => Init::Under(g),
            },
        };
    }
}

fn lint_uninitialized(kernel: &Kernel, cfg: &Cfg) -> Vec<Finding> {
    let instrs = kernel.instrs();
    if instrs.is_empty() {
        return Vec::new();
    }
    let nb = cfg.blocks().len();
    let mut in_state: Vec<Option<Vec<Init>>> = vec![None; nb];
    in_state[0] = Some(entry_inits(kernel));
    let mut work: Vec<usize> = vec![0];
    while let Some(b) = work.pop() {
        let blk = &cfg.blocks()[b];
        let mut st = in_state[b].clone().expect("worklist entries have state");
        for ins in &instrs[blk.start..blk.end] {
            init_transfer(ins, &mut st, |_, _| {});
        }
        for &s in &blk.succs {
            let merged = match &in_state[s] {
                None => st.clone(),
                Some(old) => old.iter().zip(&st).map(|(&a, &b)| a.meet(b)).collect(),
            };
            if in_state[s].as_ref() != Some(&merged) {
                in_state[s] = Some(merged);
                work.push(s);
            }
        }
    }
    // Reporting pass over the stable states.
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (b, blk) in cfg.blocks().iter().enumerate() {
        let Some(start_state) = in_state[b].clone() else {
            continue; // unreachable block, reported separately
        };
        let mut st = start_state;
        for (off, ins) in instrs[blk.start..blk.end].iter().enumerate() {
            let i = blk.start + off;
            init_transfer(ins, &mut st, |r, _| {
                if seen.insert((i, r.index())) {
                    out.push(Finding::UninitializedRead { instr: i, reg: r });
                }
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Known-bits lints: provably-constant branch guards and oversized shifts.
// ---------------------------------------------------------------------------

fn lint_known_bits(kernel: &Kernel) -> Vec<Finding> {
    let kb = KnownBitsAnalysis::compute(kernel);
    let mut out = Vec::new();
    for (i, ins) in kernel.instrs().iter().enumerate() {
        // `input` is None for unreachable instructions, which the
        // unreachable-code lint already covers.
        let Some(state) = kb.input(i) else { continue };
        if let (Op::Bra { .. }, Some(g)) = (&ins.op, ins.guard) {
            if let Some(v) = state.pred(g.pred.index()) {
                out.push(Finding::AlwaysTakenBranch {
                    instr: i,
                    taken: v != g.negate,
                });
            }
        }
        if let Op::Bit {
            op: BitOp::Shl | BitOp::Shr | BitOp::Sar,
            b,
            ..
        } = ins.op
        {
            let overflow = match b {
                Operand::Imm(v) => v & !31 != 0,
                // A register amount overflows when any bit >= 5 is known
                // one (the value is then certainly >= 32).
                Operand::Reg(r) => state.reg(r.index()).ones & !31 != 0,
            };
            if overflow {
                out.push(Finding::ShiftOverflow { instr: i });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Barrier-divergence lint: SSY nesting depth + guarded barriers.
// ---------------------------------------------------------------------------

fn lint_barrier_divergence(kernel: &Kernel) -> Vec<Finding> {
    let instrs = kernel.instrs();
    if instrs.is_empty() {
        return Vec::new();
    }
    // Propagate the SSY stack depth along instruction edges; the first
    // depth to reach an instruction wins (a mismatch would itself be a
    // malformed-reconvergence problem that the SSY lint reports).
    let mut depth: Vec<Option<u32>> = vec![None; instrs.len()];
    depth[0] = Some(0);
    let mut work = vec![0usize];
    while let Some(i) = work.pop() {
        let d = depth[i].expect("worklist entries have depth");
        let after = match instrs[i].op {
            Op::Ssy { .. } => d + 1,
            Op::Sync => d.saturating_sub(1),
            _ => d,
        };
        for s in instr_succs(instrs, i) {
            if depth[s].is_none() {
                depth[s] = Some(after);
                work.push(s);
            }
        }
    }
    let mut out = Vec::new();
    for (i, ins) in instrs.iter().enumerate() {
        if !matches!(ins.op, Op::Bar) {
            continue;
        }
        let Some(d) = depth[i] else { continue };
        if ins.guard.is_some() || d > 0 {
            out.push(Finding::BarrierDivergence {
                instr: i,
                guarded: ins.guard.is_some(),
                depth: d,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Shared-memory race lint: affine address provenance + barrier intervals.
// ---------------------------------------------------------------------------

/// The thread-uniform part of an affine value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    /// A known constant.
    Const(i64),
    /// `offset` plus an opaque value that is uniform across the CTA
    /// (a kernel parameter or a uniform special register), keyed by `id`.
    Sym(u16, i64),
    /// Uniform across the CTA, value unknown.
    Unknown,
}

/// The thread-varying generator an affine value is linear in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    /// `tid.x`.  Treated as thread-unique — exact for 1-D CTAs, a
    /// documented heuristic for 2-D ones (which address shared memory via
    /// [`Axis::Flat`] in every bundled workload).
    TidX,
    /// `tid.y`.  **Not** thread-unique: threads with equal `tid.y` differ
    /// only in `tid.x`.
    TidY,
    /// `tid.y * ntid.x` — the partial product of the flattened id; not
    /// thread-unique on its own.
    TidYxNtidX,
    /// `tid.y * ntid.x + tid.x` — the canonical flattened CTA thread id;
    /// thread-unique by construction (`tid.x < ntid.x`).
    Flat,
}

impl Axis {
    /// Whether distinct threads are guaranteed distinct generator values.
    fn injective(self) -> bool {
        matches!(self, Axis::TidX | Axis::Flat)
    }
}

/// Abstract value: affine in one thread axis, or arbitrary per-thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// `stride * axis + base`, with `base` uniform across the CTA.
    /// `stride == 0` is the uniform case (axis normalized to `TidX`).
    Affine {
        /// Per-generator multiplier (0 = uniform).
        stride: i64,
        /// The generator the value is linear in.
        axis: Axis,
        /// The uniform component.
        base: Base,
    },
    /// Not expressible as affine in a single thread axis.
    Varying,
}

/// Symbol id for `SR_NTID.X`, needed to recognize the flattened-id idiom.
const NTIDX_SYM: u16 = 0x103;

fn affine(stride: i64, axis: Axis, base: Base) -> AbsVal {
    AbsVal::Affine {
        stride,
        axis: if stride == 0 { Axis::TidX } else { axis },
        base,
    }
}

impl AbsVal {
    const ZERO: AbsVal = AbsVal::Affine {
        stride: 0,
        axis: Axis::TidX,
        base: Base::Const(0),
    };

    fn constant(v: i64) -> AbsVal {
        affine(0, Axis::TidX, Base::Const(v))
    }

    fn uniform_sym(id: u16) -> AbsVal {
        affine(0, Axis::TidX, Base::Sym(id, 0))
    }

    fn is_uniform(self) -> bool {
        matches!(self, AbsVal::Affine { stride: 0, .. })
    }

    fn as_const(self) -> Option<i64> {
        match self {
            AbsVal::Affine {
                stride: 0,
                base: Base::Const(c),
                ..
            } => Some(c),
            _ => None,
        }
    }

    fn join(self, other: AbsVal) -> AbsVal {
        if self == other {
            return self;
        }
        match (self, other) {
            (
                AbsVal::Affine {
                    stride: s1,
                    axis: a1,
                    ..
                },
                AbsVal::Affine {
                    stride: s2,
                    axis: a2,
                    ..
                },
            ) if s1 == s2 && a1 == a2 => affine(s1, a1, Base::Unknown),
            _ => AbsVal::Varying,
        }
    }

    fn add(self, other: AbsVal) -> AbsVal {
        let (
            AbsVal::Affine {
                stride: s1,
                axis: a1,
                base: b1,
            },
            AbsVal::Affine {
                stride: s2,
                axis: a2,
                base: b2,
            },
        ) = (self, other)
        else {
            return AbsVal::Varying;
        };
        let base = match (b1, b2) {
            (Base::Const(a), Base::Const(b)) => Base::Const(a.wrapping_add(b)),
            (Base::Sym(id, o), Base::Const(c)) | (Base::Const(c), Base::Sym(id, o)) => {
                Base::Sym(id, o.wrapping_add(c))
            }
            _ => Base::Unknown,
        };
        if s1 == 0 || s2 == 0 || a1 == a2 {
            let axis = if s1 != 0 { a1 } else { a2 };
            return affine(s1.wrapping_add(s2), axis, base);
        }
        // tid.y·ntid.x + tid.x completes the flattened thread id when both
        // halves carry the same stride.
        match (a1, a2) {
            (Axis::TidYxNtidX, Axis::TidX) | (Axis::TidX, Axis::TidYxNtidX) if s1 == s2 => {
                affine(s1, Axis::Flat, base)
            }
            _ => AbsVal::Varying,
        }
    }

    fn neg(self) -> AbsVal {
        match self {
            AbsVal::Affine { stride, axis, base } => affine(
                stride.wrapping_neg(),
                axis,
                match base {
                    Base::Const(c) => Base::Const(c.wrapping_neg()),
                    _ => Base::Unknown,
                },
            ),
            AbsVal::Varying => AbsVal::Varying,
        }
    }

    fn scale(self, k: i64) -> AbsVal {
        match self {
            AbsVal::Affine { stride, axis, base } => affine(
                stride.wrapping_mul(k),
                axis,
                match base {
                    Base::Const(c) => Base::Const(c.wrapping_mul(k)),
                    // A scaled uniform symbol is still uniform.
                    _ => Base::Unknown,
                },
            ),
            AbsVal::Varying => AbsVal::Varying,
        }
    }

    /// Fallback for operations the affine form cannot model: the result is
    /// still CTA-uniform when every input is.
    fn opaque(uniform: bool) -> AbsVal {
        if uniform {
            affine(0, Axis::TidX, Base::Unknown)
        } else {
            AbsVal::Varying
        }
    }
}

/// Abstract multiply, recognizing `tid.y * ntid.x` (the flattened-id
/// partial product) in addition to constant scaling.
fn abs_mul(va: AbsVal, vb: AbsVal) -> AbsVal {
    let unit_tidy = |v: AbsVal| {
        matches!(
            v,
            AbsVal::Affine {
                stride: 1,
                axis: Axis::TidY,
                base: Base::Const(0),
            }
        )
    };
    let ntidx = |v: AbsVal| v == AbsVal::uniform_sym(NTIDX_SYM);
    if (unit_tidy(va) && ntidx(vb)) || (unit_tidy(vb) && ntidx(va)) {
        return affine(1, Axis::TidYxNtidX, Base::Const(0));
    }
    match (va.as_const(), vb.as_const()) {
        (_, Some(k)) => va.scale(k),
        (Some(k), _) => vb.scale(k),
        _ => AbsVal::opaque(va.is_uniform() && vb.is_uniform()),
    }
}

fn special_val(sr: SpecialReg) -> AbsVal {
    match sr {
        SpecialReg::TidX => affine(1, Axis::TidX, Base::Const(0)),
        SpecialReg::TidY => affine(1, Axis::TidY, Base::Const(0)),
        // Uniform across the CTA: block coordinates and launch dimensions.
        SpecialReg::CtaIdX => AbsVal::uniform_sym(0x100),
        SpecialReg::CtaIdY => AbsVal::uniform_sym(0x101),
        SpecialReg::CtaIdZ => AbsVal::uniform_sym(0x102),
        SpecialReg::NTidX => AbsVal::uniform_sym(NTIDX_SYM),
        SpecialReg::NTidY => AbsVal::uniform_sym(0x104),
        SpecialReg::NTidZ => AbsVal::uniform_sym(0x105),
        SpecialReg::NCtaIdX => AbsVal::uniform_sym(0x106),
        SpecialReg::NCtaIdY => AbsVal::uniform_sym(0x107),
        SpecialReg::NCtaIdZ => AbsVal::uniform_sym(0x108),
        // Thread-dependent but not affine in any tracked axis.
        SpecialReg::TidZ | SpecialReg::LaneId | SpecialReg::WarpId => AbsVal::Varying,
    }
}

fn abs_operand(st: &[AbsVal], o: Operand) -> AbsVal {
    match o {
        Operand::Reg(r) => st[r.index() as usize],
        Operand::Imm(v) => AbsVal::constant(v as i32 as i64),
    }
}

/// Forward transfer of one instruction over the affine-value state.
fn abs_transfer(ins: &crate::Instr, st: &mut [AbsVal]) {
    let Some(d) = ins.op.dest_reg() else { return };
    let new = match ins.op {
        Op::Mov { src, .. } => abs_operand(st, src),
        Op::S2r { sr, .. } => special_val(sr),
        Op::IArith { op, a, b, .. } => {
            let (va, vb) = (st[a.index() as usize], abs_operand(st, b));
            match op {
                IntOp::Add => va.add(vb),
                IntOp::Sub => va.add(vb.neg()),
                IntOp::Mul => abs_mul(va, vb),
                IntOp::Min | IntOp::Max => AbsVal::opaque(va.is_uniform() && vb.is_uniform()),
            }
        }
        Op::IMad { a, b, c, .. } => {
            let (va, vb) = (st[a.index() as usize], abs_operand(st, b));
            let vc = st[c.index() as usize];
            abs_mul(va, vb).add(vc)
        }
        Op::Bit { op, a, b, .. } => {
            let (va, vb) = (st[a.index() as usize], abs_operand(st, b));
            match (op, vb.as_const()) {
                (BitOp::Shl, Some(k)) if (0..32).contains(&k) => va.scale(1i64 << k),
                _ => AbsVal::opaque(va.is_uniform() && vb.is_uniform()),
            }
        }
        Op::Not { a, .. } => AbsVal::opaque(st[a.index() as usize].is_uniform()),
        Op::FArith { a, b, .. } => {
            AbsVal::opaque(st[a.index() as usize].is_uniform() && abs_operand(st, b).is_uniform())
        }
        Op::FFma { a, b, c, .. } => AbsVal::opaque(
            st[a.index() as usize].is_uniform()
                && abs_operand(st, b).is_uniform()
                && st[c.index() as usize].is_uniform(),
        ),
        Op::FUnary { a, .. } | Op::I2f { a, .. } | Op::F2i { a, .. } => {
            AbsVal::opaque(st[a.index() as usize].is_uniform())
        }
        Op::Sel { a, b, .. } => {
            let (va, vb) = (st[a.index() as usize], abs_operand(st, b));
            if va == vb {
                va
            } else {
                // The selector predicate may differ per thread.
                AbsVal::Varying
            }
        }
        // A constant-space load with a uniform address yields a uniform
        // value; every other load is per-thread data.
        Op::Ld { space, addr, .. } => {
            AbsVal::opaque(space == MemSpace::Const && st[addr.index() as usize].is_uniform())
        }
        _ => return,
    };
    let slot = &mut st[d.index() as usize];
    // A predicated definition may not happen: join with the old value.
    *slot = if ins.guard.is_some() {
        slot.join(new)
    } else {
        new
    };
}

/// One shared-memory access with its resolved abstract address.
struct SmemAccess {
    instr: usize,
    is_store: bool,
    addr: AbsVal,
    /// Abstract value stored (loads: `None`).
    value: Option<AbsVal>,
}

/// Whether two accesses may touch the same shared address from two
/// *different* threads.
fn may_alias_cross_thread(a: &SmemAccess, b: &SmemAccess) -> bool {
    let (
        AbsVal::Affine {
            stride: s1,
            axis: a1,
            base: b1,
        },
        AbsVal::Affine {
            stride: s2,
            axis: a2,
            base: b2,
        },
    ) = (a.addr, b.addr)
    else {
        return true; // any Varying address: assume the worst
    };
    if s1 != s2 || a1 != a2 {
        return true;
    }
    // Same stride and axis: collision requires base delta = stride · Δaxis.
    let delta = match (b1, b2) {
        (Base::Const(x), Base::Const(y)) => x - y,
        (Base::Sym(i, x), Base::Sym(j, y)) if i == j => x - y,
        _ => return true, // incomparable uniform bases
    };
    if s1 == 0 {
        // Uniform address on both sides: every thread hits the same slot
        // when the bases coincide.  The one benign shape is a single
        // instruction storing a CTA-uniform value.
        let same_slot = delta == 0;
        if !same_slot {
            return false;
        }
        if a.instr == b.instr {
            return !matches!(a.value, Some(v) if v.is_uniform());
        }
        return true;
    }
    if delta % s1 != 0 {
        return false;
    }
    // Divisible delta: a thread-unique axis still guarantees disjoint
    // slots at Δ = 0; a shared axis (tid.y, tid.y·ntid.x) does not — two
    // threads can agree on the generator value.
    delta != 0 || !a1.injective()
}

/// Instructions reachable from `start`'s successors without crossing a
/// `BAR` (barriers are entered but not passed through).
fn reach_without_barrier(instrs: &[crate::Instr], start: usize) -> Vec<bool> {
    let mut seen = vec![false; instrs.len()];
    let mut stack: Vec<usize> = instr_succs(instrs, start);
    while let Some(i) = stack.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        if matches!(instrs[i].op, Op::Bar) {
            continue;
        }
        stack.extend(instr_succs(instrs, i));
    }
    seen
}

fn lint_shared_races(kernel: &Kernel, cfg: &Cfg) -> Vec<Finding> {
    let instrs = kernel.instrs();
    if instrs.is_empty() {
        return Vec::new();
    }
    let nregs = (kernel.num_regs().max(kernel.num_params()) as usize).max(1);

    // Fixed point of the affine-value analysis over block entry states.
    let nb = cfg.blocks().len();
    let mut in_state: Vec<Option<Vec<AbsVal>>> = vec![None; nb];
    let mut entry = vec![AbsVal::ZERO; nregs];
    for (i, v) in entry
        .iter_mut()
        .take(kernel.num_params() as usize)
        .enumerate()
    {
        *v = AbsVal::uniform_sym(i as u16);
    }
    in_state[0] = Some(entry);
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let blk = &cfg.blocks()[b];
        let mut st = in_state[b].clone().expect("worklist entries have state");
        for ins in &instrs[blk.start..blk.end] {
            abs_transfer(ins, &mut st);
        }
        for &s in &blk.succs {
            let merged = match &in_state[s] {
                None => st.clone(),
                Some(old) => old.iter().zip(&st).map(|(&a, &b)| a.join(b)).collect(),
            };
            if in_state[s].as_ref() != Some(&merged) {
                in_state[s] = Some(merged);
                work.push(s);
            }
        }
    }

    // Collect unguarded shared accesses with their stable abstract address.
    let mut accesses: Vec<SmemAccess> = Vec::new();
    for (b, blk) in cfg.blocks().iter().enumerate() {
        let Some(start_state) = in_state[b].clone() else {
            continue;
        };
        let mut st = start_state;
        for (off, ins) in instrs[blk.start..blk.end].iter().enumerate() {
            let i = blk.start + off;
            match ins.op {
                Op::Ld {
                    space: MemSpace::Shared,
                    addr,
                    offset,
                    ..
                } if ins.guard.is_none() => accesses.push(SmemAccess {
                    instr: i,
                    is_store: false,
                    addr: st[addr.index() as usize].add(AbsVal::constant(offset as i64)),
                    value: None,
                }),
                Op::St {
                    space: MemSpace::Shared,
                    addr,
                    offset,
                    v,
                } if ins.guard.is_none() => accesses.push(SmemAccess {
                    instr: i,
                    is_store: true,
                    addr: st[addr.index() as usize].add(AbsVal::constant(offset as i64)),
                    value: Some(st[v.index() as usize]),
                }),
                _ => {}
            }
            abs_transfer(ins, &mut st);
        }
    }

    // Pair up accesses in the same barrier interval.
    let reaches: Vec<Vec<bool>> = accesses
        .iter()
        .map(|a| reach_without_barrier(instrs, a.instr))
        .collect();
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for i in 0..accesses.len() {
        for j in i..accesses.len() {
            let (a, b) = (&accesses[i], &accesses[j]);
            if !a.is_store && !b.is_store {
                continue;
            }
            // Two threads run the same instruction concurrently, so a
            // self-pair is always in one barrier interval; distinct
            // accesses need a barrier-free path in either direction.
            let same_interval = i == j || reaches[i][b.instr] || reaches[j][a.instr];
            if !same_interval {
                continue;
            }
            if may_alias_cross_thread(a, b) && seen.insert((a.instr, b.instr)) {
                out.push(Finding::SharedRace {
                    a: a.instr.min(b.instr),
                    b: a.instr.max(b.instr),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Module;

    fn lint(src: &str) -> Vec<Finding> {
        let m = Module::assemble(src).unwrap();
        lint_kernel(&m.kernels()[0])
    }

    fn kinds(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(Finding::kind).collect()
    }

    #[test]
    fn clean_kernel_has_no_findings() {
        let f = lint(
            ".kernel k\n.params 2\n S2R R2, SR_TID.X\n SHL R3, R2, 2\n IADD R4, R0, R3\n \
             LDG R5, [R4]\n IADD R5, R5, R5\n IADD R4, R1, R3\n STG [R4], R5\n EXIT\n",
        );
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn uninit_read_is_flagged() {
        let f = lint(".kernel k\n.params 1\n IADD R2, R1, 1\n STG [R0], R2\n EXIT\n");
        assert!(
            f.iter().any(
                |x| matches!(x, Finding::UninitializedRead { instr: 0, reg } if reg.index() == 1)
            ),
            "{f:?}"
        );
    }

    #[test]
    fn guarded_def_initializes_matching_guarded_read() {
        // Write R1 under @P0, read it under @P0: clean.  Read it
        // unguarded afterwards: flagged.
        let f = lint(
            ".kernel k\n.params 1\n ISETP.EQ P0, R0, 0\n@P0 MOV R1, 5\n@P0 STG [R0], R1\n \
             STG [R0], R1\n EXIT\n",
        );
        let uninit: Vec<_> = f
            .iter()
            .filter(|x| matches!(x, Finding::UninitializedRead { .. }))
            .collect();
        assert_eq!(uninit.len(), 1, "{f:?}");
        assert!(matches!(
            uninit[0],
            Finding::UninitializedRead { instr: 3, .. }
        ));
    }

    #[test]
    fn complementary_guards_count_as_full_init() {
        let f = lint(
            ".kernel k\n.params 1\n ISETP.EQ P0, R0, 0\n@P0 MOV R1, 5\n@!P0 MOV R1, 9\n \
             STG [R0], R1\n EXIT\n",
        );
        assert!(
            !kinds(&f).contains(&"uninitialized_read"),
            "complementary guards fully initialize: {f:?}"
        );
    }

    #[test]
    fn pred_redef_invalidates_guarded_init() {
        let f = lint(
            ".kernel k\n.params 1\n ISETP.EQ P0, R0, 0\n@P0 MOV R1, 5\n \
             ISETP.NE P0, R0, 0\n@P0 STG [R0], R1\n EXIT\n",
        );
        assert!(kinds(&f).contains(&"uninitialized_read"), "{f:?}");
    }

    #[test]
    fn guarded_barrier_is_flagged() {
        let f = lint(".kernel k\n.params 1\n ISETP.EQ P0, R0, 0\n@P0 BAR\n EXIT\n");
        assert!(
            f.iter()
                .any(|x| matches!(x, Finding::BarrierDivergence { guarded: true, .. })),
            "{f:?}"
        );
    }

    #[test]
    fn barrier_inside_divergent_region_is_flagged() {
        let f = lint(
            ".kernel k\n.params 1\n ISETP.EQ P0, R0, 0\n SSY join\n@P0 BRA join\n BAR\n\
             join:\n SYNC\n EXIT\n",
        );
        assert!(
            f.iter().any(
                |x| matches!(x, Finding::BarrierDivergence { guarded: false, depth, .. } if *depth > 0)
            ),
            "{f:?}"
        );
    }

    #[test]
    fn barrier_after_reconvergence_is_clean() {
        let f = lint(
            ".kernel k\n.params 1\n ISETP.EQ P0, R0, 0\n SSY join\n@P0 BRA join\n NOP\n\
             join:\n SYNC\n BAR\n EXIT\n",
        );
        assert!(!kinds(&f).contains(&"barrier_divergence"), "{f:?}");
    }

    #[test]
    fn unreachable_code_is_flagged_and_coalesced() {
        let f = lint(".kernel k\n.params 1\n EXIT\n NOP\n NOP\n EXIT\n");
        assert_eq!(
            f,
            vec![Finding::UnreachableCode { start: 1, end: 4 }],
            "{f:?}"
        );
    }

    #[test]
    fn write_never_read_is_flagged() {
        let f = lint(".kernel k\n.params 1\n MOV R1, 7\n EXIT\n");
        assert!(
            f.iter().any(
                |x| matches!(x, Finding::WriteNeverRead { reg, first_write: 0 } if reg.index() == 1)
            ),
            "{f:?}"
        );
    }

    #[test]
    fn barrier_separated_neighbor_read_is_clean() {
        // Stage: s[tid] = g[tid]; BAR; read neighbor s[tid + 128] and write
        // the sum back to *global* memory — the only smem store is fenced
        // off from the cross-thread read by the barrier.
        let f = lint(
            ".kernel k\n.params 1\n.smem 1024\n \
             S2R R1, SR_TID.X\n SHL R2, R1, 2\n IADD R3, R0, R2\n LDG R4, [R3]\n \
             STS [R2], R4\n BAR\n \
             LDS R5, [R2+512]\n IADD R5, R5, R4\n STG [R3], R5\n EXIT\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_barrier_race_is_flagged() {
        // Same stage with the BAR removed: thread t reads s[t + 128] while
        // thread t + 128 is storing that very slot.
        let f = lint(
            ".kernel k\n.params 1\n.smem 1024\n \
             S2R R1, SR_TID.X\n SHL R2, R1, 2\n IADD R3, R0, R2\n LDG R4, [R3]\n \
             STS [R2], R4\n \
             LDS R5, [R2+512]\n IADD R5, R5, R4\n STG [R3], R5\n EXIT\n",
        );
        assert!(kinds(&f).contains(&"shared_race"), "{f:?}");
    }

    #[test]
    fn per_thread_slots_do_not_race() {
        // Each thread only ever touches s[tid]: no cross-thread alias.
        let f = lint(
            ".kernel k\n.params 1\n.smem 512\n \
             S2R R1, SR_TID.X\n SHL R2, R1, 2\n STS [R2], R1\n LDS R3, [R2]\n \
             IADD R3, R3, 1\n STS [R2], R3\n STG [R0], R3\n EXIT\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn uniform_store_of_varying_value_races_with_itself() {
        // Every thread stores its own tid to s[0].
        let f = lint(".kernel k\n.params 1\n.smem 64\n S2R R1, SR_TID.X\n STS [R1], R1\n EXIT\n");
        // tid-strided with stride 1 (byte-granularity overlap is not
        // modelled: 4-byte accesses at stride 1 *do* overlap, but the
        // word-granularity abstraction treats slots as disjoint).  Use a
        // genuinely uniform address instead:
        let g = lint(
            ".kernel k\n.params 1\n.smem 64\n S2R R1, SR_TID.X\n MOV R2, 0\n STS [R2], R1\n EXIT\n",
        );
        assert!(!kinds(&f).contains(&"shared_race"), "{f:?}");
        assert!(kinds(&g).contains(&"shared_race"), "{g:?}");
    }

    #[test]
    fn guarded_accesses_are_skipped() {
        // Classic guarded reduction idiom: only guarded lanes touch
        // overlapping slots; the guard serializes by construction.
        let f = lint(
            ".kernel k\n.params 1\n.smem 512\n \
             S2R R1, SR_TID.X\n SHL R2, R1, 2\n ISETP.LT P1, R1, 64\n\
             @P1 LDS R3, [R2+256]\n@P1 LDS R4, [R2]\n@P1 IADD R4, R4, R3\n@P1 STS [R2], R4\n \
             EXIT\n",
        );
        assert!(!kinds(&f).contains(&"shared_race"), "{f:?}");
    }

    #[test]
    fn bad_reconvergence_reported_through_lint() {
        let f = lint(
            ".kernel k\n.params 1\n ISETP.EQ P0, R0, 0\n SSY then\n@P0 BRA then\n \
             MOV R1, 1\n BRA join\nthen:\n MOV R1, 2\njoin:\n SYNC\n STG [R0], R1\n EXIT\n",
        );
        assert!(kinds(&f).contains(&"bad_reconvergence"), "{f:?}");
    }

    #[test]
    fn always_taken_branch_is_flagged() {
        // The guard compares two compile-time constants: the branch is
        // provably taken on every execution.
        let f = lint(
            ".kernel k\n.params 1\n MOV R1, 3\n ISETP.LT P0, R1, 10\n SSY out\n\
             @P0 BRA out\n NOP\nout:\n SYNC\n EXIT\n",
        );
        assert!(
            f.iter().any(|x| matches!(
                x,
                Finding::AlwaysTakenBranch {
                    instr: 3,
                    taken: true
                }
            )),
            "{f:?}"
        );
    }

    #[test]
    fn never_taken_branch_is_flagged() {
        let f = lint(
            ".kernel k\n.params 1\n MOV R1, 3\n ISETP.LT P0, R1, 10\n SSY out\n\
             @!P0 BRA out\n NOP\nout:\n SYNC\n EXIT\n",
        );
        assert!(
            f.iter().any(|x| matches!(
                x,
                Finding::AlwaysTakenBranch {
                    instr: 3,
                    taken: false
                }
            )),
            "{f:?}"
        );
    }

    #[test]
    fn data_dependent_branch_is_clean() {
        // The guard depends on a kernel parameter: nothing provable.
        let f = lint(
            ".kernel k\n.params 1\n ISETP.LT P0, R0, 10\n SSY out\n@P0 BRA out\n NOP\n\
             out:\n SYNC\n EXIT\n",
        );
        assert!(!kinds(&f).contains(&"always-taken-branch"), "{f:?}");
    }

    #[test]
    fn immediate_shift_overflow_is_flagged() {
        let f = lint(".kernel k\n.params 2\n SHL R2, R1, 33\n STG [R0], R2\n EXIT\n");
        assert!(
            f.iter()
                .any(|x| matches!(x, Finding::ShiftOverflow { instr: 0 })),
            "{f:?}"
        );
    }

    #[test]
    fn known_register_shift_overflow_is_flagged() {
        // R2 is provably 40: the amount's bit 5 is known one.
        let f = lint(".kernel k\n.params 2\n MOV R2, 40\n SHR R3, R1, R2\n STG [R0], R3\n EXIT\n");
        assert!(
            f.iter()
                .any(|x| matches!(x, Finding::ShiftOverflow { instr: 1 })),
            "{f:?}"
        );
    }

    #[test]
    fn in_range_shifts_are_clean() {
        let f = lint(
            ".kernel k\n.params 2\n MOV R2, 31\n SAR R3, R1, R2\n SHL R4, R3, 4\n \
             STG [R0], R4\n EXIT\n",
        );
        assert!(!kinds(&f).contains(&"shift-overflow"), "{f:?}");
    }

    #[test]
    fn findings_are_sorted_by_instruction() {
        let f = lint(".kernel k\n.params 1\n IADD R2, R1, 1\n STG [R0], R2\n EXIT\n NOP\n EXIT\n");
        let anchors: Vec<usize> = f.iter().map(Finding::instr).collect();
        let mut sorted = anchors.clone();
        sorted.sort_unstable();
        assert_eq!(anchors, sorted);
    }
}
