//! Host-side probes: process CPU time and page faults (`getrusage`), peak
//! resident set (`/proc/self/status`), a counting global allocator, and the
//! order statistics every reported timing uses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator with allocation counting that can be switched on
/// around a measured region.  Off, each call costs one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
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

/// Heap allocations (including reallocations) and bytes requested.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// An open allocation-counting window, on every thread of the process.
pub struct AllocWindow(AllocCount);

impl AllocWindow {
    pub fn open() -> AllocWindow {
        let start = AllocCount {
            allocs: ALLOCS.load(Ordering::SeqCst),
            bytes: BYTES.load(Ordering::SeqCst),
        };
        COUNTING.store(true, Ordering::SeqCst);
        AllocWindow(start)
    }

    /// Stops counting and returns what was allocated while open.
    pub fn close(self) -> AllocCount {
        COUNTING.store(false, Ordering::SeqCst);
        AllocCount {
            allocs: ALLOCS.load(Ordering::SeqCst) - self.0.allocs,
            bytes: BYTES.load(Ordering::SeqCst) - self.0.bytes,
        }
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads `getrusage` and `/proc` as laid out on 64-bit Linux");

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Whole-process CPU time and minor page faults since process start (the
/// `/proc/self/stat` counters, at microsecond resolution).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub user_ms: f64,
    pub sys_ms: f64,
    pub minor_faults: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a valid, writable `struct rusage` for this
        // platform (checked by the `compile_error!` gate above).
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
        );
        let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
        Usage {
            user_ms: ms(&raw.utime),
            sys_ms: ms(&raw.stime),
            minor_faults: raw.minflt as u64,
        }
    }

    /// The usage accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// First quartile, median and third quartile, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive); a single value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median(&v), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value below which `p` percent of `values` lie (nearest rank); NaN
/// for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
