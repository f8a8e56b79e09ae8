//! `chain_inproc`: two threads in a closed loop, one opening and one
//! assigning, call the running service's composed proxy in-process.
//! With the buffer held between a quarter and three quarters full no
//! call parks, so a round measures the moderator, the aspect chain
//! (metrics → auth → quota → sync), the ticket body and the protocol
//! trace, with no socket and no task hand-off.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use amf_aspects::auth::AuthToken;
use amf_core::ModeratorStats;
use amf_service::codec::severity_from_wire;
use amf_service::{ServiceConfig, ServiceHandle, TicketService};
use amf_ticketing::Ticket;

use crate::spans::SAMPLE_EVERY;
use crate::{
    alloc, per, usage_layers, CountPass, Inputs, Round, RoundCtx, TicketSpec, Window, Workload,
};

/// Calling threads: an opener and an assigner (`nproc` is 2 on the
/// reference host).
const THREADS: usize = 2;
/// Measured calls per thread per round, after the warm-up calls.
const CALLS: usize = 20_000;
const WARMUP_CALLS: usize = 2_000;
const OP_TIMEOUT: Duration = Duration::from_millis(200);

pub struct ChainInproc;

/// A service with the default configuration and a session token.
pub fn spawn_service() -> Result<(ServiceHandle, AuthToken), String> {
    let handle =
        TicketService::spawn("127.0.0.1:0", ServiceConfig::default()).map_err(|e| e.to_string())?;
    handle.authenticator().add_user("bench", "bench");
    let token = handle
        .authenticator()
        .login("bench", "bench")
        .map_err(|e| format!("login: {e:?}"))?;
    Ok((handle, token))
}

/// A fresh service, a session token and a half-full buffer.
pub fn ready_service(
    inputs: &mut Inputs,
    round: u64,
) -> Result<(ServiceHandle, AuthToken, Vec<u64>), String> {
    let prefill = ServiceConfig::default().capacity / 2;
    let (handle, token) = spawn_service()?;
    let mut opened = Vec::with_capacity(prefill);
    for spec in inputs.tickets(round, 15, prefill) {
        opened.push(spec.id);
        handle
            .proxy()
            .open_timeout(token, ticket(spec), OP_TIMEOUT)
            .map_err(|e| format!("prefill open: {e}"))?;
    }
    Ok((handle, token, opened))
}

fn ticket(spec: TicketSpec) -> Ticket {
    Ticket::new(spec.id, spec.summary).with_severity(severity_from_wire(spec.severity))
}

/// What one calling thread did.
#[derive(Default)]
struct Caller {
    lat_ns: Vec<u64>,
    opened: Vec<u64>,
    assigned: Vec<u64>,
    failed: u64,
    /// Sampled calls for spans: request id, open?, start, end.
    sampled: Vec<(u64, bool, Instant, Instant)>,
}

/// Opens `spec`, or assigns when there is none, and records it.
fn call(
    h: &ServiceHandle,
    token: AuthToken,
    spec: Option<TicketSpec>,
    c: &mut Caller,
    record: bool,
    sample: bool,
    req: u64,
) {
    let open = spec.is_some();
    let t0;
    match spec {
        Some(spec) => {
            let (id, t) = (spec.id, ticket(spec));
            t0 = Instant::now();
            match h.proxy().open_timeout(token, t, OP_TIMEOUT) {
                Ok(()) => c.opened.push(id),
                Err(_) => c.failed += 1,
            }
        }
        None => {
            t0 = Instant::now();
            match h.proxy().assign_timeout(token, OP_TIMEOUT) {
                Ok(t) => c.assigned.push(t.id.0),
                Err(_) => c.failed += 1,
            }
        }
    }
    if record {
        let t1 = Instant::now();
        c.lat_ns.push((t1 - t0).as_nanos() as u64);
        if sample {
            c.sampled.push((req, open, t0, t1));
        }
    }
}

/// Keeps the buffer between a quarter and three quarters full, so the
/// opener never finds it full and the assigner never finds it empty:
/// the opener waits, outside the moderator, while it is fuller than
/// that, the assigner while it is emptier.
fn hold_band(h: &ServiceHandle, opener: bool, capacity: usize) {
    while if opener {
        h.proxy().len() >= capacity * 3 / 4
    } else {
        h.proxy().len() <= capacity / 4
    } {
        std::thread::yield_now();
    }
}

/// Drains the buffer and checks that every opened id was assigned
/// exactly once and that the server's totals match the callers'.
pub fn check_ledger(
    h: &ServiceHandle,
    token: AuthToken,
    mut opened: Vec<u64>,
    mut assigned: Vec<u64>,
) -> Result<(), String> {
    while !h.proxy().is_empty() {
        let t = h
            .proxy()
            .assign_timeout(token, OP_TIMEOUT)
            .map_err(|e| format!("drain assign: {e}"))?;
        assigned.push(t.id.0);
    }
    let stats = h.stats();
    if (stats.opened, stats.assigned) != (opened.len() as u64, assigned.len() as u64) {
        return Err(format!(
            "server counted {} opened / {} assigned, clients {} / {}",
            stats.opened,
            stats.assigned,
            opened.len(),
            assigned.len()
        ));
    }
    opened.sort_unstable();
    assigned.sort_unstable();
    if opened != assigned {
        return Err("the assigned ids are not the opened ids, each exactly once".into());
    }
    Ok(())
}

impl Workload for ChainInproc {
    fn round(&mut self, ctx: RoundCtx<'_>) -> Result<Round, String> {
        let t_setup = Instant::now();
        let (h, token, mut opened) = ready_service(ctx.inputs, ctx.index)?;
        let setup_s = t_setup.elapsed().as_secs_f64();
        let capacity = ServiceConfig::default().capacity;
        // Thread 0 opens, thread 1 assigns: the two methods' cells run
        // in parallel, and no two calls of one method contend for the
        // buffer's producer or consumer flag.
        let specs = ctx.inputs.tickets(ctx.index, 0, WARMUP_CALLS + CALLS);
        let work: Vec<Vec<Option<TicketSpec>>> = vec![
            specs.into_iter().map(Some).collect(),
            vec![None; WARMUP_CALLS + CALLS],
        ];
        let barrier = Barrier::new(THREADS + 1);

        let (callers, end, mod0, mod1, trace0, trace1) = std::thread::scope(|s| {
            let handles: Vec<_> = work
                .into_iter()
                .enumerate()
                .map(|(t, calls)| {
                    let (h, barrier) = (&h, &barrier);
                    std::thread::Builder::new()
                        .name(format!("bench-call-{t}"))
                        .spawn_scoped(s, move || {
                            // One CPU each: unpinned, the two callers flip
                            // between sharing a CPU and running in parallel,
                            // and the round's speed with them.
                            alloc::pin_to_nth_cpu(t);
                            let mut c = Caller {
                                lat_ns: Vec::with_capacity(CALLS),
                                ..Caller::default()
                            };
                            for (i, spec) in calls.into_iter().enumerate() {
                                if i == WARMUP_CALLS {
                                    barrier.wait();
                                    barrier.wait();
                                }
                                if i % 8 == 0 {
                                    hold_band(h, t == 0, capacity);
                                }
                                let req = (i * THREADS + t) as u64;
                                let sample = (i as u64).is_multiple_of(SAMPLE_EVERY);
                                call(h, token, spec, &mut c, i >= WARMUP_CALLS, sample, req);
                            }
                            barrier.wait();
                            c
                        })
                        .expect("spawn caller")
                })
                .collect();
            barrier.wait();
            let mod0 = h.proxy().base().moderator().stats();
            let trace0 = h.trace().len();
            let window = Window::open(ctx.traced);
            barrier.wait();
            barrier.wait();
            let end = window.close();
            let mod1 = h.proxy().base().moderator().stats();
            let trace1 = h.trace().len();
            let callers: Vec<Caller> = handles
                .into_iter()
                .map(|j| j.join().expect("caller thread panicked"))
                .collect();
            (callers, end, mod0, mod1, trace0, trace1)
        });

        let ops = (THREADS * CALLS) as u64;
        let mut assigned = Vec::new();
        let mut lat_ns = Vec::with_capacity(ops as usize);
        let mut failed = 0;
        for c in callers {
            opened.extend(c.opened);
            assigned.extend(c.assigned);
            lat_ns.extend(c.lat_ns);
            failed += c.failed;
            if ctx.traced {
                for (req, open, t0, t1) in c.sampled {
                    let name = if open {
                        "ticketing.proxy.open_timeout"
                    } else {
                        "ticketing.proxy.assign_timeout"
                    };
                    ctx.spans.push(name, t0, t1, None, req);
                }
            }
        }
        check_ledger(&h, token, opened, assigned)?;

        let blocks = (mod1.blocks - mod0.blocks) as f64;
        let mut layers = moderator_layers(&mod0, &mod1, trace1 - trace0, ops);
        layers.extend(metrics_layers(&h));
        if let Some(usage) = &end.usage {
            layers.extend(usage_layers(usage, ops));
        }
        // Validity guard: no call may park, or the round measures the
        // wait queue instead of the chain.
        let invalid =
            (blocks / ops as f64 > 0.001).then(|| format!("{blocks} calls parked; expected none"));
        Ok(Round {
            setup_s,
            attempted: ops,
            failed,
            ops,
            elapsed_s: end.elapsed_s,
            lat_ns,
            // The calling threads run the system under test here, so
            // the whole process's CPU counts.
            sut_cpu_ns: end.cpu_ns,
            rss_end_kib: end.rss_end_kib,
            invalid,
            layers,
        })
    }

    fn count_pass(&mut self, inputs: &mut Inputs) -> Result<CountPass, String> {
        const BATCH: usize = 2_000;
        let (h, token, mut opened) = ready_service(inputs, 1 << 10)?;
        let mut c = Caller::default();
        let specs = inputs.tickets(1 << 10, 1, 2 * BATCH);
        let (warm, counted) = specs.split_at(BATCH);
        let pairs = |specs: &[TicketSpec], c: &mut Caller| {
            for spec in specs {
                call(&h, token, Some(spec.clone()), c, false, false, 0);
                call(&h, token, None, c, false, false, 0);
            }
        };
        pairs(warm, &mut c);
        let before = alloc::snapshot();
        alloc::set_enabled(true);
        pairs(counted, &mut c);
        alloc::set_enabled(false);
        let allocs = alloc::delta(&before, &alloc::snapshot());
        if c.failed > 0 {
            return Err(format!("{} calls failed in the count pass", c.failed));
        }
        opened.extend(c.opened);
        check_ledger(&h, token, opened, c.assigned)?;
        Ok(CountPass {
            ops: (2 * BATCH) as u64,
            allocs,
        })
    }
}

/// Moderator and trace counts per operation between two snapshots.
pub fn moderator_layers(
    m0: &ModeratorStats,
    m1: &ModeratorStats,
    trace_events: usize,
    ops: u64,
) -> Vec<(&'static str, f64)> {
    let ops = ops as f64;
    vec![
        (
            "core.moderator.blocks_per_op",
            (m1.blocks - m0.blocks) as f64 / ops,
        ),
        (
            "core.moderator.wakeups_per_op",
            (m1.wakeups - m0.wakeups) as f64 / ops,
        ),
        (
            "core.moderator.timeouts_per_kop",
            (m1.timeouts - m0.timeouts) as f64 * 1e3 / ops,
        ),
        (
            "core.moderator.fast_lane_share",
            per(
                (m1.fast_path_admits - m0.fast_path_admits) as f64,
                (m1.preactivations - m0.preactivations) as f64,
            ),
        ),
        ("core.trace.events_per_op", trace_events as f64 / ops),
    ]
}

/// Median activation latency per method from the service's
/// `MetricsHub` (its aspect is outermost in the chain).
pub fn metrics_layers(h: &ServiceHandle) -> Vec<(&'static str, f64)> {
    let p50 = |m: &str| {
        h.metrics()
            .method(m)
            .and_then(|mm| mm.latency.quantile(0.5))
            .map_or(0.0, |d| d.as_secs_f64() * 1e6)
    };
    vec![
        ("aspects.metrics.open_p50_us", p50("open")),
        ("aspects.metrics.assign_p50_us", p50("assign")),
    ]
}
