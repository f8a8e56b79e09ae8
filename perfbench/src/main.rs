//! End-to-end and per-layer benchmark of the moderated ticket service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! A run repeats rounds of one workload until `--seconds` have passed.
//! Every round sets the system up afresh (that set-up is `setup_s`),
//! warms it, measures a fixed amount of work, checks the outputs and
//! tears the system down, so the moderator's unbounded protocol trace
//! never outgrows one round; `end_to_end` folds the valid rounds into
//! the reported metrics. With `--trace 1`, odd rounds also record spans
//! and sample `/proc/self/task`, and the run adds a fixed-batch
//! allocation count and layer micro-measurements; its last line then
//! carries the per-layer metrics instead. See README.md.

mod alloc;
mod inproc;
mod micro;
mod procstat;
mod ring;
mod spans;
mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use procstat::{ClassUsage, TaskSnapshot};
use spans::SpanLog;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_kib_per_kop", "KiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("loadgen.lag_p99_us", "us"),
    ("service.codec.encode_ns", "ns"),
    ("service.codec.decode_ns", "ns"),
    ("service.codec.wire_bytes_per_req", "bytes"),
    ("service.reactor.cpu_us_per_req", "us"),
    ("service.reactor.wakeups_per_req", "count"),
    ("service.reactor.allocs_per_req", "count"),
    ("concurrency.task.cpu_us_per_req", "us"),
    ("concurrency.task.wakeups_per_req", "count"),
    ("concurrency.task.allocs_per_req", "count"),
    ("concurrency.task.timer_wakeups_per_req", "count"),
    ("concurrency.task.spawn_to_run_us", "us"),
    ("core.moderator.blocks_per_op", "count"),
    ("core.moderator.wakeups_per_op", "count"),
    ("core.moderator.timeouts_per_kop", "count"),
    ("core.moderator.fast_lane_share", "ratio"),
    ("aspects.metrics.open_p50_us", "us"),
    ("aspects.metrics.assign_p50_us", "us"),
    ("ticketing.body_ns", "ns"),
    ("core.trace.events_per_op", "count"),
    ("alloc.allocs_per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    ("core.lease.retransmits_per_grant", "count"),
    ("core.lease.dup_dropped_per_grant", "count"),
    ("core.lease.reclaimed", "count"),
    ("service.peer.cpu_us_per_visit", "us"),
    ("service.peer.wakeups_per_visit", "count"),
];

/// Seeded input generator (SplitMix64): the same seed gives the same
/// ticket ids, severities and summaries.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The seeded contents of the tickets a run opens.
pub struct Inputs {
    rng: Rng,
    summaries: Vec<String>,
}

/// One ticket to open: id, wire severity and summary.
#[derive(Clone)]
pub struct TicketSpec {
    pub id: u64,
    pub severity: u8,
    pub summary: String,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let summaries = (0..32)
            .map(|i| {
                let len = 12 + (rng.next_u64() % 48) as usize;
                let mut s = format!("incident {i:02} ");
                while s.len() < len {
                    s.push(char::from(b'a' + (rng.next_u64() % 26) as u8));
                }
                s
            })
            .collect();
        Inputs { rng, summaries }
    }

    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// `n` tickets whose ids start at a seeded base; `stream`
    /// separates the id ranges of concurrent senders within a round.
    pub fn tickets(&mut self, round: u64, stream: u64, n: usize) -> Vec<TicketSpec> {
        let base = ((self.rng.next_u64() >> 24) << 24) ^ (round << 44) ^ (stream << 40);
        (0..n as u64)
            .map(|i| {
                let r = self.rng.next_u64();
                TicketSpec {
                    id: base + i,
                    severity: (r % 4) as u8,
                    summary: self.summaries[(r >> 8) as usize % self.summaries.len()].clone(),
                }
            })
            .collect()
    }
}

/// What one round measured.
pub struct Round {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub ops: u64,
    pub elapsed_s: f64,
    /// Per-operation latency samples, ns.
    pub lat_ns: Vec<u64>,
    /// CPU time of the system under test during the window, ns.
    pub sut_cpu_ns: u64,
    /// Resident set when the measured work ended, KiB; the run loop
    /// turns it into the growth since before the round's set-up.
    pub rss_end_kib: u64,
    /// Why the round breaks a workload-validity guard, if it does.
    pub invalid: Option<String>,
    /// Per-layer values this round measured.
    pub layers: Vec<(&'static str, f64)>,
}

/// Per-round context handed to a workload.
pub struct RoundCtx<'a> {
    pub index: u64,
    pub traced: bool,
    pub inputs: &'a mut Inputs,
    pub spans: &'a mut SpanLog,
}

/// Allocations per thread class over a fixed closed-loop batch of
/// operations. For one seed the counts repeat exactly on
/// `chain_inproc` and `wire_steady`; timer sweeps and resends make them
/// vary slightly on `wire_parked` and `lease_ring`.
pub struct CountPass {
    pub ops: u64,
    pub allocs: [(u64, u64); alloc::CLASSES.len()],
}

pub trait Workload {
    /// Sets up, measures, checks and tears down one round. `Err` means
    /// an output was wrong.
    fn round(&mut self, ctx: RoundCtx<'_>) -> Result<Round, String>;
    /// Counts allocations over a fixed batch (traced runs only).
    fn count_pass(&mut self, inputs: &mut Inputs) -> Result<CountPass, String>;
    /// Extra measurements printed after an untraced run's rounds.
    fn epilogue(&mut self, _inputs: &mut Inputs) -> Result<(), String> {
        Ok(())
    }
}

/// Kernel and clock readings at the start of a measurement window.
pub struct Window {
    start: Instant,
    cpu_ns: u64,
    tasks: Option<TaskSnapshot>,
}

/// What happened over a closed window.
pub struct WindowEnd {
    pub elapsed_s: f64,
    pub cpu_ns: u64,
    pub rss_end_kib: u64,
    /// Per-thread-class usage; sampled in traced rounds only.
    pub usage: Option<[ClassUsage; alloc::CLASSES.len()]>,
}

impl Window {
    pub fn open(traced: bool) -> Self {
        let tasks = traced.then(procstat::sample_tasks);
        Window {
            cpu_ns: procstat::process_cpu_ns(),
            start: Instant::now(),
            tasks,
        }
    }

    pub fn close(self) -> WindowEnd {
        let elapsed_s = self.start.elapsed().as_secs_f64();
        let cpu_ns = procstat::process_cpu_ns() - self.cpu_ns;
        let rss_end_kib = procstat::rss_kib();
        let usage = self
            .tasks
            .map(|before| procstat::usage_between(&before, &procstat::sample_tasks()));
        WindowEnd {
            elapsed_s,
            cpu_ns,
            rss_end_kib,
            usage,
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Ratio that reads 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values from a window's thread-class usage.
pub fn usage_layers(
    usage: &[ClassUsage; alloc::CLASSES.len()],
    ops: u64,
) -> Vec<(&'static str, f64)> {
    let ops = ops as f64;
    let r = &usage[alloc::REACTOR];
    let t = &usage[alloc::TASK_WORKER];
    let p = &usage[alloc::PEER];
    vec![
        (
            "service.reactor.cpu_us_per_req",
            per(r.cpu_ns as f64 / 1e3, ops),
        ),
        (
            "service.reactor.wakeups_per_req",
            per(r.wakeups as f64, ops),
        ),
        (
            "concurrency.task.cpu_us_per_req",
            per(t.cpu_ns as f64 / 1e3, ops),
        ),
        (
            "concurrency.task.wakeups_per_req",
            per(t.wakeups as f64, ops),
        ),
        (
            "concurrency.task.timer_wakeups_per_req",
            per(usage[alloc::TASK_TIMER].wakeups as f64, ops),
        ),
        (
            "service.peer.cpu_us_per_visit",
            per(p.cpu_ns as f64 / 1e3, ops),
        ),
        ("service.peer.wakeups_per_visit", per(p.wakeups as f64, ops)),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans_dir,
    })
}

fn workload(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "chain_inproc" => Box::new(inproc::ChainInproc),
        "wire_steady" => Box::new(wire::WireSteady),
        "wire_parked" => Box::new(wire::WireParked),
        "lease_ring" => Box::new(ring::LeaseRing),
        _ => return None,
    })
}

/// A run that has fewer than two valid rounds when its time is up keeps
/// going for up to this long.
const GRACE: Duration = Duration::from_secs(10);

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let Some(mut wl) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (chain_inproc, wire_steady, wire_parked, lease_ring)",
            args.workload
        );
        std::process::exit(2);
    };
    alloc::fix_mmap_threshold();
    let mut inputs = Inputs::new(args.seed);
    let mut spans = SpanLog::default();
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut invalid = 0u32;
    let mut index = 0u64;
    loop {
        let traced = args.trace && index % 2 == 1;
        // Each round's memory growth is measured from a trimmed heap.
        alloc::trim_heap();
        let rss_base_kib = procstat::rss_kib();
        let ctx = RoundCtx {
            index,
            traced,
            inputs: &mut inputs,
            spans: &mut spans,
        };
        let mut round = match wl.round(ctx) {
            Ok(r) => r,
            Err(e) => fail(&format!("round {index}: {e}")),
        };
        index += 1;
        match &round.invalid {
            Some(why) => {
                invalid += 1;
                println!("round {index}: INVALID, not recorded: {why}");
            }
            None => {
                let lag = round.layers.iter().find(|l| l.0 == "loadgen.lag_p99_us");
                println!(
                    "round {index}{}: {} ops in {:.3} s, setup {:.6} s, p50 {:.2} us, p99 {:.2} us{}",
                    if traced { " (traced)" } else { "" },
                    round.ops,
                    round.elapsed_s,
                    round.setup_s,
                    round_p(&round, 0.50),
                    round_p(&round, 0.99),
                    lag.map_or(String::new(), |l| format!(", lag p99 {:.1} us", l.1)),
                );
                // Growth over the whole round, set-up and warm-up included,
                // per 1000 measured operations.
                round.rss_end_kib = round.rss_end_kib.saturating_sub(rss_base_kib);
                rounds.push((traced, round));
            }
        }
        let have_both = !args.trace || (rounds.iter().any(|r| r.0) && rounds.iter().any(|r| !r.0));
        let elapsed = started.elapsed();
        if (elapsed >= budget && have_both && rounds.len() >= 2) || elapsed >= budget + GRACE {
            break;
        }
    }
    println!("rounds: {} recorded, {invalid} invalid", rounds.len());
    if rounds.is_empty() || (args.trace && !rounds.iter().any(|r| r.0)) {
        eprintln!("perfbench: no valid round; the run is invalid");
        std::process::exit(3);
    }

    let attempted: u64 = rounds.iter().map(|r| r.1.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.1.failed).sum();
    println!(
        "fail_share {} (failed {failed} of {attempted})",
        per(failed as f64, attempted as f64)
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        per_layer(&mut *wl, &rounds, &spans, &args)
    } else {
        if let Err(e) = wl.epilogue(&mut inputs) {
            fail(&e);
        }
        let untraced: Vec<&Round> = rounds.iter().map(|r| &r.1).collect();
        let e2e = end_to_end(&untraced);
        // The tails are printed, not gated: a host stall of a few
        // milliseconds moves them by up to 15x between runs.
        for (name, q) in [("p90_us", 0.90), ("p99_us", 0.99)] {
            let v = median(&untraced.iter().map(|r| round_p(r, q)).collect::<Vec<_>>());
            println!("{name} {v} us (median over rounds, not gated)");
        }
        e2e
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

fn round_p(r: &Round, q: f64) -> f64 {
    percentile(&sorted(&r.lat_ns), q) as f64 / 1e3
}

/// Set-up time and latency are medians over the rounds; throughput and
/// memory growth are totals over the rounds (all operations over all
/// measured time, all growth over all operations), which smooths the
/// ring's two-speed rounds and the 4 KiB steps of resident memory.
fn end_to_end(rounds: &[&Round]) -> Vec<(&'static str, f64, &'static str)> {
    let col = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(|r| f(r)).sum::<f64>();
    let ops = total(&|r| r.ops as f64);
    let values = [
        col(&|r| r.setup_s),
        ops / total(&|r| r.elapsed_s),
        col(&|r| round_p(r, 0.50)),
        col(&|r| r.sut_cpu_ns as f64 / 1e3 / r.ops as f64),
        total(&|r| r.rss_end_kib as f64) / (ops / 1e3),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn per_layer(
    wl: &mut dyn Workload,
    rounds: &[(bool, Round)],
    spans: &SpanLog,
    args: &Args,
) -> Vec<(&'static str, f64, &'static str)> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.0).map(|r| &r.1).collect();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let p50 = |rs: &[&Round]| median(&rs.iter().map(|r| round_p(r, 0.5)).collect::<Vec<_>>());
    let (p50_plain, p50_traced) = (p50(&plain), p50(&traced));
    println!(
        "tracing overhead: p50_us untraced {p50_plain:.3} traced {p50_traced:.3} difference {:.3} us",
        p50_traced - p50_plain
    );

    let mut values: Vec<(&'static str, f64)> = Vec::new();
    for &(name, _) in &PER_LAYER {
        let seen: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.layers.iter().find(|l| l.0 == name).map(|l| l.1))
            .collect();
        if !seen.is_empty() {
            values.push((name, median(&seen)));
        }
    }
    // Fresh inputs: how many rounds ran must not change what is counted.
    let mut fixed = Inputs::new(args.seed);
    let count = wl
        .count_pass(&mut fixed)
        .unwrap_or_else(|e| fail(&format!("count pass: {e}")));
    let ops = count.ops as f64;
    let (all_allocs, all_bytes) = count
        .allocs
        .iter()
        .fold((0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1));
    println!("allocations over a fixed batch of {} ops:", count.ops);
    for (class, (n, bytes)) in alloc::CLASSES.iter().zip(count.allocs) {
        println!("  {class:<12} {n:>9} allocs {bytes:>11} bytes");
    }
    values.push(("alloc.allocs_per_op", all_allocs as f64 / ops));
    values.push(("alloc.bytes_per_op", all_bytes as f64 / ops));
    values.push((
        "service.reactor.allocs_per_req",
        count.allocs[alloc::REACTOR].0 as f64 / ops,
    ));
    values.push((
        "concurrency.task.allocs_per_req",
        count.allocs[alloc::TASK_WORKER].0 as f64 / ops,
    ));
    values.extend(micro::measure(&mut fixed));

    println!("per-layer spans (self time = duration minus child spans):");
    println!(
        "  {:<32} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "self_us_avg"
    );
    for (name, n, total, own) in spans.self_times() {
        println!(
            "  {name:<32} {n:>8} {:>12.3} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / 1e3 / n as f64
        );
    }
    if let Some(dir) = &args.spans_dir {
        let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| spans.write(&path)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1);
            println!("{name} {v} {unit}");
            (name, v, unit)
        })
        .collect()
}

/// A correctness check failed: say which, print a result that carries
/// `correct: false`, and exit non-zero.
pub fn fail(why: &str) -> ! {
    eprintln!("perfbench: CHECK FAILED: {why}");
    println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
    std::process::exit(1);
}
