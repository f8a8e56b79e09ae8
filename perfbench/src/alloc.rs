//! Counting global allocator, attributed by thread name, plus the libc
//! knobs the benchmark turns on its own threads and heap: CPU pinning,
//! timer slack, heap trimming and the mmap threshold.
//!
//! Counting is off until [`set_enabled`] turns it on, so the untraced
//! run pays one relaxed load per allocation and nothing more. Each
//! thread resolves its class once, from the kernel's copy of its name
//! (`prctl(PR_GET_NAME)`, which neither allocates nor locks), and
//! caches it in a const-initialised thread local.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

/// Thread classes, in the order every per-class array uses.
pub const CLASSES: [&str; 7] = [
    "generator",
    "reactor",
    "task-worker",
    "task-timer",
    "peer",
    "fault-proxy",
    "other",
];
pub const GENERATOR: usize = 0;
pub const REACTOR: usize = 1;
pub const TASK_WORKER: usize = 2;
pub const TASK_TIMER: usize = 3;
pub const PEER: usize = 4;
pub const FAULT_PROXY: usize = 5;
pub const OTHER: usize = 6;

/// Maps a thread name, as `/proc/self/task/*/comm` shows it (at most
/// 15 bytes), to its class.
pub fn class_of(name: &[u8]) -> usize {
    const PREFIXES: [(&[u8], usize); 7] = [
        (b"bench", GENERATOR),
        (b"perfbench", GENERATOR),
        (b"amf-service-rea", REACTOR),
        (b"amf-task-worker", TASK_WORKER),
        (b"amf-task-timer", TASK_TIMER),
        (b"peer", PEER),
        (b"fault-proxy", FAULT_PROXY),
    ];
    PREFIXES
        .iter()
        .find(|(p, _)| name.starts_with(p))
        .map_or(OTHER, |&(_, c)| c)
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}
const PR_GET_NAME: i32 = 16;
const PR_SET_TIMERSLACK: i32 = 29;

fn current_class() -> usize {
    CLASS
        .try_with(|c| {
            let cached = c.get();
            if cached != u8::MAX {
                return cached as usize;
            }
            let mut buf = [0u8; 16];
            // SAFETY: PR_GET_NAME writes at most 16 bytes, NUL included,
            // into the buffer it is given; `buf` is 16 bytes.
            let ok = unsafe { prctl(PR_GET_NAME, buf.as_mut_ptr()) } == 0;
            let len = buf.iter().position(|&b| b == 0).unwrap_or(16);
            let class = if ok { class_of(&buf[..len]) } else { OTHER };
            c.set(class as u8);
            class
        })
        .unwrap_or(OTHER)
}

/// Lets the calling thread's sleeps overshoot by ~1 µs instead of the
/// default 50 µs, so an open-loop sender can pace without spinning.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
/// rises to the size of the largest block freed so far, so whether a
/// round's growing protocol trace is remapped in place or copied within
/// the heap would depend on what earlier rounds freed, and so would the
/// round's resident-set growth.
pub fn fix_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only changes an allocator tunable.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// The CPUs the process may run on when it starts, as a CPU set.
fn allowed_cpus() -> &'static [u64; 16] {
    static ALLOWED: OnceLock<[u64; 16]> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable CPU set of the size passed.
        if unsafe { sched_getaffinity(0, 128, mask.as_mut_ptr()) } != 0 {
            mask = [u64::MAX; 16];
        }
        mask
    })
}

fn set_affinity(mask: &[u64; 16]) {
    // SAFETY: `mask` is a valid CPU set of the size passed; the kernel
    // rejects, and leaves the thread as it was, a set naming no usable
    // CPU.
    unsafe {
        sched_setaffinity(0, 128, mask.as_ptr());
    }
}

/// Pins the calling thread, and the threads it spawns from now on, to
/// the `nth` CPU the process may use; a no-op without that many.
pub fn pin_to_nth_cpu(nth: usize) {
    let allowed = allowed_cpus();
    if let Some(cpu) = (0..1024)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .nth(nth)
    {
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&mask);
    }
}

/// Lets the calling thread run on every CPU the process started with.
pub fn unpin() {
    set_affinity(allowed_cpus());
}

/// Hands memory the previous round freed back to the kernel, so each
/// round's resident-set growth starts from the same footing.
pub fn trim_heap() {
    // SAFETY: malloc_trim only releases free memory of the allocator.
    unsafe {
        malloc_trim(0);
    }
}

thread_local! {
    static CLASS: Cell<u8> = const { Cell::new(u8::MAX) };
}

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static SLOTS: [Slot; 7] = [EMPTY; 7];
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The benchmark binary's global allocator: the system allocator plus
/// per-class counts while enabled.
pub struct Counting;

#[inline]
fn count(size: usize) {
    if ENABLED.load(Relaxed) {
        let slot = &SLOTS[current_class()];
        slot.allocs.fetch_add(1, Relaxed);
        slot.bytes.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns counting on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Allocation count and bytes per class since process start (counted
/// only while enabled).
pub fn snapshot() -> [(u64, u64); 7] {
    std::array::from_fn(|i| (SLOTS[i].allocs.load(Relaxed), SLOTS[i].bytes.load(Relaxed)))
}

/// Per-class difference `after - before`.
pub fn delta(before: &[(u64, u64); 7], after: &[(u64, u64); 7]) -> [(u64, u64); 7] {
    std::array::from_fn(|i| (after[i].0 - before[i].0, after[i].1 - before[i].1))
}
