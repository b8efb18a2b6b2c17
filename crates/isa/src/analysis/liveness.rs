//! Register-level read facts over the *reachable* instruction stream.
//!
//! No dataflow runs here: a register that no reachable instruction reads
//! can never be observed, whatever the control flow, so a single scan over
//! the instructions reachable from the entry ([`Cfg::reachable_instrs`])
//! answers every register-granular question the tooling asks — the dead
//! set ([`dead_registers`]), the static read intervals of the stratified
//! sampler ([`read_spans`]) and the write-never-read lint set.  The one
//! backward dataflow is [`super::bit_liveness`], whose full-mask
//! registers the campaign's ACE-style prune consults; a register this scan
//! reports dead is always fully bit-dead there (every bit gen is a
//! register read), and on the bundled workloads and the fuzz corpus the
//! two sets coincide (pinned by `tests/bit_prune.rs`).
//!
//! A fault flipped into a dead register is Masked by construction:
//! register files do not persist across launches — every launch
//! zero-initializes its registers.

use super::cfg::Cfg;
use crate::instr::Instr;
use crate::Kernel;

/// The instructions reachable from the kernel entry, with their indices.
fn reachable(kernel: &Kernel) -> impl Iterator<Item = (usize, &Instr)> {
    let reach = Cfg::build(kernel.instrs()).reachable_instrs();
    kernel
        .instrs()
        .iter()
        .enumerate()
        .filter(move |&(i, _)| reach[i])
}

/// Per-register read interval over the reachable instruction stream: for
/// each allocated register `r` in `0 .. kernel.num_regs()`, the
/// `(first, last)` instruction indices at which a reachable instruction
/// reads `r` (guard predicates are not registers and do not count), or
/// `None` when no reachable instruction ever reads it.
///
/// This is the static fallback the stratified fault sampler uses when no
/// dynamic read trace is available: a `None` span is exactly the
/// [`dead_registers`] condition (the whole execution is a masked
/// interval), while a `Some` span bounds where in the program a register's
/// value can still be observed.
pub fn read_spans(kernel: &Kernel) -> Vec<Option<(usize, usize)>> {
    let mut spans: Vec<Option<(usize, usize)>> = vec![None; kernel.num_regs() as usize];
    for (i, ins) in reachable(kernel) {
        for r in ins.op.src_regs().into_iter().flatten() {
            if let Some(span) = spans.get_mut(r.index() as usize) {
                *span = Some(span.map_or((i, i), |(first, _)| (first, i)));
            }
        }
    }
    spans
}

/// Allocated registers (`0 .. kernel.num_regs()`) that **no** reachable
/// instruction ever reads.
///
/// A fault injected into such a register during this kernel's execution
/// is architecturally masked: the flipped value can never flow into an
/// instruction, and the register file is re-initialized at the next
/// launch.
pub fn dead_registers(kernel: &Kernel) -> Vec<u8> {
    (0..kernel.num_regs())
        .zip(read_spans(kernel))
        .filter_map(|(r, span)| span.is_none().then_some(r))
        .collect()
}

/// Registers written by a reachable instruction but never read by any
/// reachable instruction, in ascending register order, each with the index
/// of its first reachable write — the write-never-read lint set.
pub(super) fn write_never_read(kernel: &Kernel) -> Vec<(u8, usize)> {
    let mut read = [false; 256];
    let mut first_write = [None; 256];
    for (i, ins) in reachable(kernel) {
        for r in ins.op.src_regs().into_iter().flatten() {
            read[r.index() as usize] = true;
        }
        if let Some(d) = ins.op.dest_reg() {
            first_write[d.index() as usize].get_or_insert(i);
        }
    }
    (0..=u8::MAX)
        .zip(read.into_iter().zip(first_write))
        .filter_map(|(r, (was_read, write))| write.filter(|_| !was_read).map(|i| (r, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Module;

    fn kernel(src: &str) -> Kernel {
        Module::assemble(src).unwrap().kernels()[0].clone()
    }

    #[test]
    fn straight_line_liveness() {
        // R0 is a param pointer; R1 loaded, doubled, stored; R2 untouched.
        let k = kernel(
            ".kernel k\n.params 1\n.regs 3\n LDG R1, [R0]\n IADD R1, R1, R1\n STG [R0], R1\n \
             EXIT\n",
        );
        assert_eq!(read_spans(&k), vec![Some((0, 2)), Some((1, 2)), None]);
        assert_eq!(dead_registers(&k), vec![2]);
        assert!(write_never_read(&k).is_empty());
    }

    #[test]
    fn loop_keeps_accumulator_live() {
        // Reads inside the loop body and after the back edge all count:
        // neither the counter R1 nor the accumulator R2 is dead.
        let k = kernel(
            ".kernel k\n.params 1\n MOV R1, 0\n MOV R2, 0\ntop:\n IADD R1, R1, 1\n \
             IADD R2, R2, R1\n ISETP.LT P0, R1, 4\n@P0 BRA top\n STG [R0], R2\n EXIT\n",
        );
        let spans = read_spans(&k);
        assert_eq!(spans[1], Some((2, 4)));
        assert_eq!(spans[2], Some((3, 6)));
        assert!(dead_registers(&k).is_empty());
    }

    #[test]
    fn predicated_def_does_not_kill() {
        // @P0 MOV R1, 5 leaves the old R1 observable on the false path: the
        // store's read keeps R1 out of the dead set, and the bit dataflow
        // the prune consults keeps every bit of R1 live through the MOV.
        let k = kernel(
            ".kernel k\n.params 1\n ISETP.EQ P0, R0, 0\n@P0 MOV R1, 5\n STG [R0], R1\n EXIT\n",
        );
        // The guard predicate is not a register read: only ISETP and STG
        // read R0, only STG reads R1.
        assert_eq!(read_spans(&k), vec![Some((0, 2)), Some((2, 2))]);
        assert!(dead_registers(&k).is_empty());
        assert!(write_never_read(&k).is_empty());
        assert_eq!(super::super::bit_liveness::dead_bit_masks(&k)[1], 0);
    }

    #[test]
    fn dead_registers_ignore_writes() {
        // R3 is written but never read; R4 is never touched; both are dead.
        let k = kernel(
            ".kernel k\n.params 1\n.regs 5\n MOV R3, 7\n LDG R1, [R0]\n STG [R0], R1\n EXIT\n",
        );
        let dead = dead_registers(&k);
        assert!(dead.contains(&3));
        assert!(dead.contains(&4));
        assert!(!dead.contains(&0));
        assert!(!dead.contains(&1));
        assert_eq!(write_never_read(&k), vec![(3, 0)]);
    }

    #[test]
    fn unreachable_reads_do_not_resurrect() {
        // The read of R2 sits after an unguarded EXIT: R2 stays dead.
        let k = kernel(
            ".kernel k\n.params 1\n.regs 3\n LDG R1, [R0]\n STG [R0], R1\n EXIT\n \
             STG [R0], R2\n EXIT\n",
        );
        assert!(dead_registers(&k).contains(&2));
    }

    #[test]
    fn read_spans_bound_first_and_last_read() {
        // R0 read at 0 and 2; R1 read only at 2; R3/R4 never read.
        let k = kernel(
            ".kernel k\n.params 1\n.regs 5\n LDG R1, [R0]\n MOV R3, 7\n STG [R0], R1\n EXIT\n",
        );
        let spans = read_spans(&k);
        assert_eq!(spans[0], Some((0, 2)));
        assert_eq!(spans[1], Some((2, 2)));
        assert_eq!(spans[3], None);
        assert_eq!(spans[4], None);
        // None spans coincide with the dead-register set.
        let dead: Vec<u8> = (0..k.num_regs())
            .filter(|&r| spans[r as usize].is_none())
            .collect();
        assert_eq!(dead, dead_registers(&k));
    }

    #[test]
    fn read_spans_skip_unreachable_reads() {
        // The only read of R2 sits after an unguarded EXIT.
        let k = kernel(
            ".kernel k\n.params 1\n.regs 3\n LDG R1, [R0]\n STG [R0], R1\n EXIT\n \
             STG [R0], R2\n EXIT\n",
        );
        assert_eq!(read_spans(&k)[2], None);
    }
}
