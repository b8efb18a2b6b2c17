//! Allocation bound on forking into a reused device.
//!
//! A campaign worker owns one `Gpu` and forks every injection run into it
//! by restoring a snapshot in place.  Building a fresh `Gpu` per run costs
//! a whole chip's worth of cache and segment buffers (about 16 MB on the
//! RTX 2060, more than the snapshot itself); restoring in place copies into
//! the buffers the device already has.  This binary counts the bytes the
//! allocator hands out during `resume_from` and holds each fork to under
//! 1 % of the snapshot's footprint.

use gpufi::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the bytes requested on the current thread, so the test harness's
/// own threads cannot disturb a measurement.
struct CountingAlloc;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller's guarantees for `realloc` are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// After one warm-up pass over the GE and NW checkpoint stores, forking a
/// reused `Gpu` — with a full run between forks, as in a campaign —
/// allocates on average less than 1 % of a snapshot's footprint per fork.
///
/// What a fork still allocates is the SIMT cores' resident CTAs (register
/// files, SIMT stacks, shared memory), which the finished run between forks
/// has retired; a snapshot taken inside a wide kernel carries a few hundred
/// KB of them, one inside a narrow kernel about 10 KB.  The cache and
/// segment buffers — nearly all of the 16 MB — are reused.
#[test]
fn fork_into_reused_gpu_allocates_under_one_percent_of_a_snapshot() {
    let card = GpuConfig::rtx2060();
    let workloads: [Box<dyn Workload>; 2] =
        [Box::new(Gaussian::new()), Box::new(NeedlemanWunsch::new())];
    for w in &workloads {
        let golden = profile(w.as_ref(), &card).unwrap();
        let mut rec = Gpu::new(card.clone());
        rec.record_checkpoints((golden.total_cycles() / 8).max(1), 1 << 30);
        w.run(&mut rec).unwrap();
        let store = Arc::new(rec.finish_checkpoint_recording());
        assert!(store.len() >= 4, "{}: too few snapshots", w.name());

        let mut gpu = Gpu::new(card.clone());
        for idx in 0..store.len() {
            gpu.resume_from(&store, idx);
            w.run(&mut gpu).unwrap();
        }
        // Latest snapshot first, then in cycle order: forks alternate
        // between restoring larger and smaller states than the last run
        // left behind.
        let (mut forks, mut allocated, mut resident) = (0, 0, 0);
        for idx in (0..store.len()).rev().chain(0..store.len()) {
            allocated += allocated_by(|| gpu.resume_from(&store, idx));
            resident += store.snapshot(idx).resident_bytes();
            forks += 1;
            let out = w.run(&mut gpu).unwrap();
            assert_eq!(out, golden.output, "{} snapshot {idx}", w.name());
        }
        assert!(
            allocated * 100 < resident,
            "{}: {forks} forks allocated {} B each on average, against {} B per snapshot",
            w.name(),
            allocated / forks,
            resident / forks
        );
    }
}
