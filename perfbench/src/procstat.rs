//! Process and thread counters from the kernel: CPU clocks, resident
//! memory, and the `/proc/self/task` sampler of the traced run.

use std::collections::HashMap;

use crate::alloc::{class_of, CLASSES};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
pub struct Timespec {
    pub sec: i64,
    pub nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86_64/aarch64 Linux).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time of the whole process, every thread included, in ns.
pub fn process_cpu_ns() -> u64 {
    clock_ns(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Resident set size of the process, in KiB.
pub fn rss_kib() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("resident field of /proc/self/statm");
    pages * 4
}

/// One thread's counters at one instant.
#[derive(Clone, Copy)]
struct TaskSample {
    class: usize,
    cpu_ns: u64,
    voluntary_switches: u64,
}

/// A snapshot of every live thread of the process, keyed by tid.
pub struct TaskSnapshot(HashMap<u32, TaskSample>);

/// CPU time and voluntary context switches (each one a sleep and a
/// later wake-up) summed per thread class.
#[derive(Clone, Copy, Default)]
pub struct ClassUsage {
    pub cpu_ns: u64,
    pub wakeups: u64,
}

/// Reads `/proc/self/task/*/{comm,schedstat,status}`. A thread that
/// exits between the directory listing and the reads is skipped.
pub fn sample_tasks() -> TaskSnapshot {
    let mut out = HashMap::new();
    let dir = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let base = entry.path();
        let (Ok(comm), Ok(sched), Ok(status)) = (
            std::fs::read_to_string(base.join("comm")),
            std::fs::read_to_string(base.join("schedstat")),
            std::fs::read_to_string(base.join("status")),
        ) else {
            continue;
        };
        let cpu_ns = sched
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
        let voluntary_switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        out.insert(
            tid,
            TaskSample {
                class: class_of(comm.trim_end().as_bytes()),
                cpu_ns,
                voluntary_switches,
            },
        );
    }
    TaskSnapshot(out)
}

/// Per-class usage between two snapshots. A thread born in between
/// counts from zero.
pub fn usage_between(before: &TaskSnapshot, after: &TaskSnapshot) -> [ClassUsage; CLASSES.len()] {
    let mut usage = [ClassUsage::default(); CLASSES.len()];
    for (tid, now) in &after.0 {
        let (cpu0, sw0) = before
            .0
            .get(tid)
            .map_or((0, 0), |b| (b.cpu_ns, b.voluntary_switches));
        let u = &mut usage[now.class];
        u.cpu_ns += now.cpu_ns.saturating_sub(cpu0);
        u.wakeups += now.voluntary_switches.saturating_sub(sw0);
    }
    usage
}
