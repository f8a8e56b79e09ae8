//! The two loopback-TCP workloads, both open loops: requests leave on a
//! fixed schedule whether or not earlier ones have been answered, and
//! each latency is timed from when its request was due, so a stall in
//! the service also delays, and is charged to, the requests behind it.
//!
//! * `wire_steady`: one pipelined connection alternates `open` and
//!   `assign` at a fixed offered rate. Nothing parks; the reactor, the
//!   framing and the reactor → worker → reactor hand-off dominate.
//! * `wire_parked`: a consumer connection's `assign`s are due ahead of
//!   a producer connection's `open`s, so every assign parks in the
//!   moderator until its ticket arrives: task park/wake, the timer
//!   wheel and the wait queue.
//!
//! Load comes from one generator thread that sends on schedule and
//! reads the answers in between.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::RangeInclusive;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use amf_aspects::auth::AuthToken;
use amf_service::codec::{decode_response, encode_request};
use amf_service::{FrameDecoder, Request, Response, ServiceHandle};

use crate::inproc::{check_ledger, metrics_layers, moderator_layers, spawn_service};
use crate::procstat::{thread_cpu_ns, Timespec};
use crate::spans::{SpanLog, SAMPLE_EVERY};
use crate::{
    alloc, percentile, usage_layers, CountPass, Inputs, Round, RoundCtx, Window, Workload,
};

/// `wire_steady` offered rate (requests/s) and round length. One
/// connection saturates at about 20–25k requests/s on the reference
/// host, so this sits at under half the knee.
const STEADY_RATE: f64 = 10_000.0;
const STEADY_SECONDS: f64 = 0.25;
/// Whether a workload's service runs on the first CPU and its
/// generator on the second. Left to the scheduler, where the reactor,
/// the workers and the generator land changes the cost of every
/// `wire_steady` hand-off: run medians moved by 30% from placement
/// alone, and by under 10% once split. `wire_parked` is the other way
/// round: its park/wake path is steadier, and cheaper, with the service
/// free to use both CPUs.
const STEADY_SPLIT_CPUS: bool = true;
const PARKED_SPLIT_CPUS: bool = false;
/// The knee sweep after an untraced `wire_steady` run: offered rates
/// from `SWEEP_FROM` upward, and the p99 a rate must stay under.
const SWEEP_FROM: f64 = 10_000.0;
const SWEEP_STEP: f64 = 4_000.0;
const SWEEP_STEPS: usize = 8;
const SWEEP_SECONDS: f64 = 0.3;
const SWEEP_P99_LIMIT_NS: u64 = 1_000_000;
/// `wire_parked` handoffs per second and round length.
const PARKED_RATE: f64 = 2_000.0;
const PARKED_SECONDS: f64 = 0.25;
/// Leading share of each round's requests that only warms up.
const WARMUP_SHARE: f64 = 0.1;
/// Validity guard: the generator's p90 lateness must stay under this
/// share of the interval between two operations (a request on
/// `wire_steady`, a handoff on `wire_parked`). The guard reads p90, not
/// p99: the host stalls a vCPU for milliseconds a few times a second,
/// which moves the lag's p99 but not the medians the run reports.
const LAG_GUARD_SHARE: f64 = 0.5;
/// Latency charged to a request that failed or never got an answer.
const FAILED_LATENCY_NS: u64 = 1_000_000_000;

pub struct WireSteady;
pub struct WireParked;

/// One scheduled request.
struct Planned {
    due: Duration,
    conn: usize,
    req: Request,
}

/// When a request was sent: due and picked up, encoded, written.
#[derive(Clone, Copy)]
struct Sent {
    start: Instant,
    encoded: Instant,
    written: Instant,
}

/// When its response arrived and was decoded.
struct Got {
    read: Instant,
    decoded: Instant,
    resp: Response,
}

struct Driven {
    start: Instant,
    sent: Vec<Sent>,
    got: Vec<Option<Got>>,
    /// CPU the generator thread spent after the warm-up.
    generator_cpu_ns: u64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits up to `timeout` for any of `fds` to become ready.
fn poll_fds(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `struct
    // pollfd` of the length passed, `ts` a valid `struct timespec`, and
    // a null signal mask leaves the thread's mask alone.
    unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
}

/// `write_all` on a non-blocking socket.
fn write_all(mut stream: &TcpStream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let mut fd = [PollFd {
                    fd: stream.as_raw_fd(),
                    events: POLLOUT,
                    revents: 0,
                }];
                poll_fds(&mut fd, Duration::from_millis(100));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A fresh service plus `conns` connected sockets. With `split_cpus`
/// the service's threads, and the workers they spawn later, inherit
/// the first CPU, and `drive` puts the generator on the second.
fn ready(
    conns: usize,
    split_cpus: bool,
) -> Result<(ServiceHandle, AuthToken, Vec<TcpStream>), String> {
    if split_cpus {
        alloc::pin_to_nth_cpu(0);
    }
    let spawned = spawn_service();
    alloc::unpin();
    let (h, token) = spawned?;
    let streams = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(h.addr())?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok((h, token, streams))
}

/// Runs `plan` over `streams` from one generator thread, pinned to the
/// second CPU with `split_cpus`. `warm` is the index of the first
/// measured request; `on_warm` runs on the calling thread once that
/// request is due, and its result comes back with the traffic.
fn drive<W>(
    plan: &[Planned],
    streams: &[TcpStream],
    warm: usize,
    split_cpus: bool,
    on_warm: impl FnOnce() -> W,
) -> Result<(Driven, W), String> {
    for s in streams {
        s.set_nonblocking(true).map_err(|e| e.to_string())?;
    }
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let generator = std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn_scoped(scope, || {
                if split_cpus {
                    alloc::pin_to_nth_cpu(1);
                }
                alloc::tighten_timer_slack();
                generate(plan, streams, warm, start)
            })
            .expect("spawn generator");
        let warm_due = start + plan.get(warm).map_or(Duration::ZERO, |p| p.due);
        std::thread::sleep(warm_due.saturating_duration_since(Instant::now()));
        let w = on_warm();
        let driven = generator.join().expect("generator panicked")?;
        Ok((driven, w))
    })
}

/// The generator's loop: send every request that is due, then sleep in
/// `ppoll` until the next one is due or a response arrives, and read
/// whatever arrived. Sends go first, so a burst of responses delays a
/// due request by at most one pass.
fn generate(
    plan: &[Planned],
    streams: &[TcpStream],
    warm: usize,
    start: Instant,
) -> Result<Driven, String> {
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); streams.len()];
    for (k, p) in plan.iter().enumerate() {
        queues[p.conn].push_back(k);
    }
    let mut decoders: Vec<FrameDecoder> = streams.iter().map(|_| FrameDecoder::new()).collect();
    let mut sent = Vec::with_capacity(plan.len());
    let mut got: Vec<Option<Got>> = (0..plan.len()).map(|_| None).collect();
    let mut remaining = plan.len();
    let mut buf = vec![0u8; 64 * 1024];
    let mut cpu0 = thread_cpu_ns();
    let deadline = start + plan.last().map_or(Duration::ZERO, |p| p.due) + Duration::from_secs(3);
    while remaining > 0 {
        while let Some(p) = plan.get(sent.len()) {
            if Instant::now() < start + p.due {
                break;
            }
            if sent.len() == warm {
                cpu0 = thread_cpu_ns();
            }
            let t0 = Instant::now();
            let frame = encode_request(&p.req);
            let t1 = Instant::now();
            write_all(&streams[p.conn], &frame).map_err(|e| format!("send: {e}"))?;
            sent.push(Sent {
                start: t0,
                encoded: t1,
                written: Instant::now(),
            });
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let wake = plan.get(sent.len()).map_or(deadline, |p| start + p.due);
        let mut fds: Vec<PollFd> = streams
            .iter()
            .map(|s| PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        poll_fds(&mut fds, wake.saturating_duration_since(now));
        for (c, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            loop {
                let n = match (&streams[c]).read(&mut buf) {
                    Ok(0) => return Err(format!("connection {c} closed by the service")),
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(format!("read: {e}")),
                };
                let read = Instant::now();
                decoders[c]
                    .feed(&buf[..n])
                    .map_err(|e| format!("framing: {e}"))?;
                while let Some(body) = decoders[c].next_frame() {
                    let k = queues[c].pop_front().ok_or("a response nobody asked for")?;
                    let resp = decode_response(&body).map_err(|e| format!("decode: {e}"))?;
                    got[k] = Some(Got {
                        read,
                        decoded: Instant::now(),
                        resp,
                    });
                    remaining -= 1;
                }
            }
        }
    }
    // Requests never sent (the deadline passed) count as missing.
    while sent.len() < plan.len() {
        let now = Instant::now();
        sent.push(Sent {
            start: now,
            encoded: now,
            written: now,
        });
    }
    Ok(Driven {
        start,
        sent,
        got,
        generator_cpu_ns: thread_cpu_ns() - cpu0,
    })
}

/// Checks one response against the kind of its request. Returns the
/// assigned ticket id for a served assign, `Ok(None)` for a served
/// open, and `Err(None)` for a refused or missing request.
fn outcome(req: &Request, got: Option<&Got>) -> Result<Option<u64>, Option<String>> {
    let Some(g) = got else { return Err(None) };
    match (req, &g.resp) {
        (Request::Open { .. }, Response::Ok(None)) => Ok(None),
        (Request::Assign { .. }, Response::Ok(Some(t))) => Ok(Some(t.id.0)),
        (_, Response::Blocked | Response::Aborted(_)) => Err(None),
        (req, resp) => Err(Some(format!("{resp:?} does not answer {req:?}"))),
    }
}

/// Tallies the outcomes and checks them: kinds match, tickets come out
/// in the order they went in, and the server's ledger agrees.
fn settle(
    h: &ServiceHandle,
    token: AuthToken,
    plan: &[Planned],
    d: &Driven,
) -> Result<Vec<bool>, String> {
    let mut ok = Vec::with_capacity(plan.len());
    let (mut opened, mut assigned) = (Vec::new(), Vec::new());
    for (p, g) in plan.iter().zip(&d.got) {
        match outcome(&p.req, g.as_ref()) {
            Ok(Some(id)) => {
                if assigned.last().is_some_and(|&last| last >= id) {
                    return Err(format!("ticket {id} was assigned out of order"));
                }
                assigned.push(id);
                ok.push(true);
            }
            Ok(None) => {
                if let Request::Open { id, .. } = p.req {
                    opened.push(id);
                }
                ok.push(true);
            }
            Err(Some(wrong)) => return Err(wrong),
            Err(None) => ok.push(false),
        }
    }
    check_ledger(h, token, opened, assigned)?;
    Ok(ok)
}

/// The generator's lateness over the measured requests: (p90, p99), ns.
fn lag_ns(plan: &[Planned], d: &Driven, from: usize) -> (u64, u64) {
    let mut lag: Vec<u64> = plan[from..]
        .iter()
        .zip(&d.sent[from..])
        .map(|(p, s)| {
            s.start
                .saturating_duration_since(d.start + p.due)
                .as_nanos() as u64
        })
        .collect();
    lag.sort_unstable();
    (percentile(&lag, 0.90), percentile(&lag, 0.99))
}

/// Spans of one sampled request: due → decoded, with the generator's
/// lateness, the encode, the socket write, the service's share (write
/// done → response bytes read) and the decode as children.
fn record_spans(spans: &mut SpanLog, k: usize, due: Instant, s: &Sent, g: &Got) {
    let req = k as u64;
    let root = spans.push("loadgen.request", due, g.decoded, None, req);
    spans.push("loadgen.lag", due, s.start, root, req);
    spans.push("service.codec.encode", s.start, s.encoded, root, req);
    spans.push("net.write", s.encoded, s.written, root, req);
    spans.push("service.remote", s.written, g.read, root, req);
    spans.push("service.codec.decode", g.read, g.decoded, root, req);
}

struct Snapshot {
    window: Window,
    main_cpu_ns: u64,
    moderator: amf_core::ModeratorStats,
    trace_len: usize,
}

fn snapshot(h: &ServiceHandle, traced: bool) -> Snapshot {
    Snapshot {
        main_cpu_ns: thread_cpu_ns(),
        moderator: h.proxy().base().moderator().stats(),
        trace_len: h.trace().len(),
        window: Window::open(traced),
    }
}

/// What `finish` needs to know about a wire round beyond its traffic.
struct Shape<F> {
    setup_s: f64,
    /// Index of the first measured request.
    warm: usize,
    /// Interval between two operations: the lag guard's yardstick.
    op_interval: Duration,
    /// Parks per operation a valid round shows.
    parks: RangeInclusive<f64>,
    /// `None` when request `k` does not complete an operation, else the
    /// due time its latency runs from and the other request of its
    /// pair, if any.
    op: F,
}

/// Everything both wire workloads compute after the traffic: checks,
/// latencies, CPU, memory, validity guards and per-layer values.
fn finish(
    ctx: RoundCtx<'_>,
    h: ServiceHandle,
    token: AuthToken,
    plan: &[Planned],
    d: Driven,
    snap: Snapshot,
    shape: Shape<impl Fn(usize) -> Option<(Duration, Option<usize>)>>,
) -> Result<Round, String> {
    let warm = shape.warm;
    let end = snap.window.close();
    let main_cpu = thread_cpu_ns() - snap.main_cpu_ns;
    let m1 = h.proxy().base().moderator().stats();
    let trace1 = h.trace().len();
    let ok = settle(&h, token, plan, &d)?;

    let mut lat_ns = Vec::new();
    let mut failed = 0;
    for k in warm..plan.len() {
        let Some((from, partner)) = (shape.op)(k) else {
            continue;
        };
        let served = ok[k] && partner.is_none_or(|j| ok[j]);
        match (&d.got[k], served) {
            (Some(g), true) => lat_ns.push(g.read.duration_since(d.start + from).as_nanos() as u64),
            _ => {
                failed += 1;
                lat_ns.push(FAILED_LATENCY_NS);
            }
        }
    }
    let ops = lat_ns.len() as u64;
    let requests = (plan.len() - warm) as u64;
    if ctx.traced {
        for k in (warm..plan.len()).filter(|&k| (k as u64).is_multiple_of(SAMPLE_EVERY)) {
            if let Some(g) = &d.got[k] {
                record_spans(ctx.spans, k, d.start + plan[k].due, &d.sent[k], g);
            }
        }
    }

    let m0 = snap.moderator;
    let blocks = (m1.blocks - m0.blocks) as f64;
    let (lag_p90, lag_p99) = lag_ns(plan, &d, warm);
    let mut layers = moderator_layers(&m0, &m1, trace1 - snap.trace_len, ops);
    layers.push(("loadgen.lag_p99_us", lag_p99 as f64 / 1e3));
    layers.extend(metrics_layers(&h));
    if let Some(usage) = &end.usage {
        layers.extend(usage_layers(usage, requests));
    }
    let lag_limit = shape.op_interval.mul_f64(LAG_GUARD_SHARE);
    let parks = blocks / ops as f64;
    let invalid = if lag_p90 > lag_limit.as_nanos() as u64 {
        Some(format!(
            "generator lag p90 {:.1} us exceeds {:.1} us",
            lag_p90 as f64 / 1e3,
            lag_limit.as_secs_f64() * 1e6
        ))
    } else if !shape.parks.contains(&parks) {
        Some(format!(
            "{parks:.4} parks per operation, outside {:?}",
            shape.parks
        ))
    } else {
        None
    };
    let generator = d.generator_cpu_ns + main_cpu;
    drop(h);
    Ok(Round {
        setup_s: shape.setup_s,
        attempted: ops,
        failed,
        ops,
        elapsed_s: end.elapsed_s,
        lat_ns,
        sut_cpu_ns: end.cpu_ns.saturating_sub(generator),
        rss_end_kib: end.rss_end_kib,
        invalid,
        layers,
    })
}

fn open_req(token: AuthToken, spec: crate::TicketSpec) -> Request {
    Request::Open {
        token: token.0,
        id: spec.id,
        severity: spec.severity,
        summary: spec.summary,
    }
}

/// `open`, `assign`, `open`, ... on one connection, `n` requests.
fn steady_plan(
    inputs: &mut Inputs,
    round: u64,
    token: AuthToken,
    n: usize,
    rate: f64,
) -> Vec<Planned> {
    let specs = inputs.tickets(round, 0, n.div_ceil(2));
    let mut plan = Vec::with_capacity(n);
    for (i, spec) in specs.into_iter().enumerate() {
        for (j, req) in [open_req(token, spec), Request::Assign { token: token.0 }]
            .into_iter()
            .enumerate()
        {
            let k = 2 * i + j;
            if k < n {
                plan.push(Planned {
                    due: Duration::from_secs_f64(k as f64 / rate),
                    conn: 0,
                    req,
                });
            }
        }
    }
    plan
}

/// Runs `plan` closed-loop on blocking sockets and counts the
/// allocations every thread of the process makes meanwhile. With two
/// connections, the consumer's assign (connection 0) is answered only
/// after the producer's open that follows it.
fn count_closed_loop(
    streams: &[TcpStream],
    plan: &[Planned],
    before_each: impl Fn(&Planned),
) -> Result<[(u64, u64); alloc::CLASSES.len()], String> {
    let mut decoders: Vec<FrameDecoder> = streams.iter().map(|_| FrameDecoder::new()).collect();
    let mut buf = [0u8; 4096];
    let mut read_one = |c: usize| -> Result<(), String> {
        loop {
            if let Some(body) = decoders[c].next_frame() {
                return match decode_response(&body) {
                    Ok(Response::Ok(_)) => Ok(()),
                    other => Err(format!("count pass: {other:?}")),
                };
            }
            let n = (&streams[c]).read(&mut buf).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("count pass: connection closed".into());
            }
            decoders[c].feed(&buf[..n]).map_err(|e| e.to_string())?;
        }
    };
    let before = alloc::snapshot();
    alloc::set_enabled(true);
    let result = plan.iter().try_for_each(|p| {
        before_each(p);
        (&streams[p.conn])
            .write_all(&encode_request(&p.req))
            .map_err(|e| e.to_string())?;
        match (streams.len(), p.conn) {
            (1, _) => read_one(0),
            (_, 0) => Ok(()),
            _ => read_one(p.conn).and_then(|()| read_one(0)),
        }
    });
    alloc::set_enabled(false);
    result.map(|()| alloc::delta(&before, &alloc::snapshot()))
}

impl Workload for WireSteady {
    fn round(&mut self, ctx: RoundCtx<'_>) -> Result<Round, String> {
        let t_setup = Instant::now();
        let (h, token, streams) = ready(1, STEADY_SPLIT_CPUS)?;
        let setup_s = t_setup.elapsed().as_secs_f64();
        let n = (STEADY_RATE * STEADY_SECONDS) as usize;
        let warm = (n as f64 * WARMUP_SHARE) as usize & !1;
        let plan = steady_plan(ctx.inputs, ctx.index, token, n, STEADY_RATE);
        let (d, snap) = drive(&plan, &streams, warm, STEADY_SPLIT_CPUS, || {
            snapshot(&h, ctx.traced)
        })?;
        let shape = Shape {
            setup_s,
            warm,
            op_interval: Duration::from_secs_f64(1.0 / STEADY_RATE),
            parks: 0.0..=0.001,
            op: |k: usize| Some((plan[k].due, None)),
        };
        finish(ctx, h, token, &plan, d, snap, shape)
    }

    /// Sweeps the offered rate upward, a fresh service per step, and
    /// reports the highest rate at which p99 stays under the latency
    /// limit and the backlog does not grow.
    fn epilogue(&mut self, inputs: &mut Inputs) -> Result<(), String> {
        let mut max_rate = 0.0;
        for step in 0..SWEEP_STEPS {
            let rate = SWEEP_FROM + step as f64 * SWEEP_STEP;
            let (h, token, streams) = ready(1, STEADY_SPLIT_CPUS)?;
            let n = ((rate * SWEEP_SECONDS) as usize) & !1;
            let plan = steady_plan(inputs, 1 << 20 | step as u64, token, n, rate);
            let (d, ()) = drive(&plan, &streams, 0, STEADY_SPLIT_CPUS, || ())?;
            let ok = settle(&h, token, &plan, &d)?;
            let lat: Vec<u64> = plan
                .iter()
                .zip(&d.got)
                .zip(ok)
                .map(|((p, g), ok)| match g {
                    Some(g) if ok => g.read.duration_since(d.start + p.due).as_nanos() as u64,
                    _ => FAILED_LATENCY_NS,
                })
                .collect();
            // The backlog grows if the last quarter waits clearly longer
            // than the first.
            let quarter_p50 = |q: &[u64]| {
                let mut q = q.to_vec();
                q.sort_unstable();
                percentile(&q, 0.5)
            };
            let (first, last) = (quarter_p50(&lat[..n / 4]), quarter_p50(&lat[n - n / 4..]));
            let growing = last > 2 * first + 50_000;
            let mut sorted = lat;
            sorted.sort_unstable();
            let (p50, p99) = (percentile(&sorted, 0.5), percentile(&sorted, 0.99));
            let meets = p99 < SWEEP_P99_LIMIT_NS && !growing;
            println!(
                "sweep {rate:.0} req/s: p50 {:.1} us, p99 {:.1} us, backlog {}, {}",
                p50 as f64 / 1e3,
                p99 as f64 / 1e3,
                if growing { "growing" } else { "steady" },
                if meets {
                    "meets the limit"
                } else {
                    "misses the limit"
                }
            );
            if !meets {
                break;
            }
            max_rate = rate;
        }
        println!(
            "max_rate_ops_per_s {max_rate} 1/s (p99 under {} us, one connection)",
            SWEEP_P99_LIMIT_NS / 1000
        );
        Ok(())
    }

    fn count_pass(&mut self, inputs: &mut Inputs) -> Result<CountPass, String> {
        const BATCH: usize = 2_000;
        let (h, token, streams) = ready(1, STEADY_SPLIT_CPUS)?;
        let warm = steady_plan(inputs, 1 << 10, token, 2 * BATCH, 1.0);
        count_closed_loop(&streams, &warm, |_| {})?;
        let plan = steady_plan(inputs, 1 << 11, token, BATCH, 1.0);
        let allocs = count_closed_loop(&streams, &plan, |_| {})?;
        drop(h);
        Ok(CountPass {
            ops: BATCH as u64,
            allocs,
        })
    }
}

/// Handoff `i`: the consumer's `assign` is due at `i / rate`, the
/// producer's `open` half an interval later.
fn parked_plan(
    inputs: &mut Inputs,
    round: u64,
    token: AuthToken,
    handoffs: usize,
    rate: f64,
) -> Vec<Planned> {
    let lead = 0.5 / rate;
    inputs
        .tickets(round, 1, handoffs)
        .into_iter()
        .enumerate()
        .flat_map(|(i, spec)| {
            let t = i as f64 / rate;
            [
                Planned {
                    due: Duration::from_secs_f64(t),
                    conn: 0,
                    req: Request::Assign { token: token.0 },
                },
                Planned {
                    due: Duration::from_secs_f64(t + lead),
                    conn: 1,
                    req: open_req(token, spec),
                },
            ]
        })
        .collect()
}

impl Workload for WireParked {
    fn round(&mut self, ctx: RoundCtx<'_>) -> Result<Round, String> {
        let t_setup = Instant::now();
        let (h, token, streams) = ready(2, PARKED_SPLIT_CPUS)?;
        let setup_s = t_setup.elapsed().as_secs_f64();
        let handoffs = (PARKED_RATE * PARKED_SECONDS) as usize;
        let warm = 2 * (handoffs as f64 * WARMUP_SHARE) as usize;
        let plan = parked_plan(ctx.inputs, ctx.index, token, handoffs, PARKED_RATE);
        let (d, snap) = drive(&plan, &streams, warm, PARKED_SPLIT_CPUS, || {
            snapshot(&h, ctx.traced)
        })?;
        let shape = Shape {
            setup_s,
            warm,
            op_interval: Duration::from_secs_f64(1.0 / PARKED_RATE),
            // About one park per assign.
            parks: 0.8..=1.5,
            // A handoff's latency runs from its open's due time
            // (plan[k + 1]) to the answer of its assign (plan[k], k even).
            op: |k: usize| k.is_multiple_of(2).then(|| (plan[k + 1].due, Some(k + 1))),
        };
        finish(ctx, h, token, &plan, d, snap, shape)
    }

    fn count_pass(&mut self, inputs: &mut Inputs) -> Result<CountPass, String> {
        const BATCH: usize = 500;
        let (h, token, streams) = ready(2, PARKED_SPLIT_CPUS)?;
        let wait_parked = |p: &Planned| {
            if p.conn == 1 {
                let deadline = Instant::now() + Duration::from_secs(1);
                while h.stats().tasks_parked == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
        };
        let warm = parked_plan(inputs, 1 << 10, token, 2 * BATCH, 1.0);
        count_closed_loop(&streams, &warm, wait_parked)?;
        let plan = parked_plan(inputs, 1 << 11, token, BATCH, 1.0);
        let allocs = count_closed_loop(&streams, &plan, wait_parked)?;
        Ok(CountPass {
            ops: BATCH as u64,
            allocs,
        })
    }
}
