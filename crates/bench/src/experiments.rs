//! Experiments E1–E17: the quantitative evaluation of `EXPERIMENTS.md`.
//!
//! Each function runs one experiment and returns its [`Table`]. Pass
//! `quick = true` to shrink workloads (used by unit tests and smoke
//! runs); the recorded numbers in `EXPERIMENTS.md` come from
//! `quick = false` release runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amf_aspects::auth::Authenticator;
use amf_aspects::sched::{AdmissionGroup, Priority};
use amf_aspects::sync::ExclusionGroup;
use amf_baseline::{TangledBuffer, TangledSecureBuffer};
use amf_concurrency::SchedulerPolicy;
use amf_core::{
    AspectCapabilities, AspectModerator, Concern, Coordination, FairnessPolicy, FnAspect,
    InvocationContext, LeaseConfig, MethodId, Moderated, NoopAspect, PanicPolicy, RollbackPolicy,
    Verdict, WakeMode,
};
use amf_service::codec::{encode_request, read_frame, write_frame, Request};
use amf_service::{
    run_load, FaultProxy, FaultProxyConfig, LoadConfig, LoadOutcome, PeerConfig, PeerNode,
    ServiceConfig, TicketService,
};
use amf_ticketing::{ExtendedTicketServerProxy, Ticket, TicketServerProxy};

use crate::pipeline::{ModeratedBuffer, OverheadTarget, PipelineConfig, StackTarget};
use crate::report::{fmt_ns, fmt_ops, time_ns_per_op, LatencySummary, Table};

fn scale(quick: bool, full: u64) -> u64 {
    if quick {
        (full / 100).max(200)
    } else {
        full
    }
}

/// E1 — moderation overhead: direct mutex counter vs moderated counter
/// with 0/1/2/4/8 no-op aspects.
pub fn e1_overhead(quick: bool) -> Table {
    let iters = scale(quick, 2_000_000);
    let mut t = Table::new(
        "E1 — invocation overhead (single thread)",
        &["target", "ns/op", "vs direct"],
    );
    let direct = {
        let counter = parking_lot::Mutex::new(0_u64);
        time_ns_per_op(iters, || {
            *counter.lock() += 1;
        })
    };
    t.row(&[
        "direct mutex increment".into(),
        fmt_ns(direct),
        "1.0×".into(),
    ]);
    for n in [0_usize, 1, 2, 4, 8] {
        let target = OverheadTarget::new(n);
        let ns = time_ns_per_op(iters, || target.bump());
        t.row(&[
            format!("moderated, {n} noop aspects"),
            fmt_ns(ns),
            format!("{:.1}×", ns / direct),
        ]);
    }
    t
}

fn run_pairs(
    pairs: usize,
    per_thread: u64,
    put: impl Fn(u64) + Sync,
    take: impl Fn() + Sync,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..pairs {
            s.spawn(|| {
                for i in 0..per_thread {
                    put(i);
                }
            });
            s.spawn(|| {
                for _ in 0..per_thread {
                    take();
                }
            });
        }
    });
    let transferred = pairs as u64 * per_thread;
    transferred as f64 / start.elapsed().as_secs_f64()
}

/// E2 — producer/consumer throughput: moderated vs tangled monitor vs
/// crossbeam channel, across thread pairs and capacities.
pub fn e2_throughput(quick: bool) -> Table {
    let total = scale(quick, 200_000);
    let mut t = Table::new(
        "E2 — producer/consumer throughput (items/s)",
        &[
            "pairs",
            "capacity",
            "moderated",
            "tangled monitor",
            "crossbeam channel",
        ],
    );
    for pairs in [1_usize, 2, 4] {
        for capacity in [1_usize, 16, 256] {
            let per_thread = total / pairs as u64;
            let moderated = {
                let b = ModeratedBuffer::new(PipelineConfig {
                    capacity,
                    ..PipelineConfig::default()
                });
                run_pairs(
                    pairs,
                    per_thread,
                    |i| b.put(i),
                    || {
                        b.take();
                    },
                )
            };
            let tangled = {
                let b = TangledBuffer::new(capacity);
                run_pairs(
                    pairs,
                    per_thread,
                    |i| b.put(i),
                    || {
                        b.take();
                    },
                )
            };
            let channel = {
                let (tx, rx) = crossbeam::channel::bounded::<u64>(capacity);
                run_pairs(
                    pairs,
                    per_thread,
                    |i| tx.send(i).unwrap(),
                    || {
                        rx.recv().unwrap();
                    },
                )
            };
            t.row(&[
                pairs.to_string(),
                capacity.to_string(),
                fmt_ops(moderated),
                fmt_ops(tangled),
                fmt_ops(channel),
            ]);
        }
    }
    t
}

/// E3 — concern stacking: cost of each additional *real* concern on one
/// method.
pub fn e3_composition(quick: bool) -> Table {
    let iters = scale(quick, 500_000);
    let mut t = Table::new(
        "E3 — concern-stacking cost (single thread)",
        &["stack", "aspects", "ns/op"],
    );
    let stacks: Vec<(&str, Vec<&str>)> = vec![
        ("sync", vec!["sync"]),
        ("sync+audit", vec!["sync", "audit"]),
        ("sync+audit+metrics", vec!["sync", "audit", "metrics"]),
        (
            "sync+audit+metrics+auth",
            vec!["sync", "audit", "metrics", "auth"],
        ),
        (
            "sync+audit+metrics+auth+quota",
            vec!["sync", "audit", "metrics", "quota", "auth"],
        ),
    ];
    for (label, stack) in stacks {
        let target = StackTarget::new(&stack);
        let ns = time_ns_per_op(iters, || target.run_once());
        t.row(&[label.to_string(), stack.len().to_string(), fmt_ns(ns)]);
    }
    t
}

/// E4 — aspect-bank scaling: registration and lookup across bank sizes.
pub fn e4_bank(quick: bool) -> Table {
    let invoke_iters = scale(quick, 500_000);
    let mut t = Table::new(
        "E4 — aspect bank scaling",
        &[
            "methods",
            "concerns/method",
            "register total",
            "invoke ns/op (broadcast wakes)",
            "invoke ns/op (wired wakes)",
        ],
    );
    let method_counts: &[usize] = if quick { &[4, 64] } else { &[4, 64, 1024] };
    for &methods in method_counts {
        for concerns in [1_usize, 8] {
            let moderator = AspectModerator::shared();
            let reg_start = Instant::now();
            let mut handles = Vec::with_capacity(methods);
            for m in 0..methods {
                let h = moderator.declare_method(MethodId::new(format!("m{m}")));
                for c in 0..concerns {
                    moderator
                        .register(&h, Concern::new(format!("c{c}")), Box::new(NoopAspect))
                        .unwrap();
                }
                handles.push(h);
            }
            let reg_total = reg_start.elapsed();
            let proxy = Moderated::new(0_u64, Arc::clone(&moderator));
            // Hot cell: the last-declared method (worst case for naive
            // scans).
            let hot = handles.last().unwrap().clone();
            let broadcast_ns = time_ns_per_op(invoke_iters, || {
                proxy.invoke(&hot, |c| *c += 1).unwrap();
            });
            // Wiring the wake graph makes completion cost O(1) in the
            // number of methods.
            moderator.wire_wakes(&hot, std::slice::from_ref(&hot));
            let wired_ns = time_ns_per_op(invoke_iters, || {
                proxy.invoke(&hot, |c| *c += 1).unwrap();
            });
            t.row(&[
                methods.to_string(),
                concerns.to_string(),
                format!("{:.2?}", reg_total),
                fmt_ns(broadcast_ns),
                fmt_ns(wired_ns),
            ]);
        }
    }
    t
}

/// Aggregates from one [`run_scheduling`] round.
#[derive(Debug, Clone, Copy)]
pub struct SchedulingOutcome {
    /// Completed operations per second across all threads.
    pub throughput: f64,
    /// When the highest-priority thread finished its batch (seconds
    /// from round start).
    pub high_finish_s: f64,
    /// When the lowest-priority thread finished its batch.
    pub low_finish_s: f64,
}

/// Runs `threads` contending threads (thread i has priority i, each
/// running `per_thread` ops) through a capacity-1 admission gate under
/// `policy`; records when each thread *finishes its batch*. A
/// priority-honoring policy front-loads high-priority work, so the
/// high-priority thread finishes well before the low one.
pub fn run_scheduling(
    policy: SchedulerPolicy,
    threads: usize,
    per_thread: u64,
) -> SchedulingOutcome {
    let moderator = AspectModerator::shared();
    let op = moderator.declare_method(MethodId::new("op"));
    let gate = AdmissionGroup::new(1, policy);
    moderator
        .register(&op, Concern::scheduling(), Box::new(gate.aspect()))
        .unwrap();
    let proxy = Moderated::new(0_u64, Arc::clone(&moderator));
    // All threads start together, and each op holds the gate for ~2µs of
    // real work, so the admission queue is never empty — the regime
    // where the policy decides who runs.
    let barrier = std::sync::Barrier::new(threads);
    let mut finishes: Vec<(u32, f64)> = Vec::new();
    let start = parking_lot::Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for pri in 0..threads as u32 {
            let proxy = &proxy;
            let moderator = &moderator;
            let op = &op;
            let barrier = &barrier;
            let start = &start;
            joins.push(s.spawn(move || {
                barrier.wait();
                let t0 = *start.lock().get_or_insert_with(Instant::now);
                for _ in 0..per_thread {
                    let mut ctx =
                        InvocationContext::new(op.id().clone(), moderator.next_invocation());
                    ctx.insert(Priority(pri));
                    let guard = proxy.enter_with(op, ctx).unwrap();
                    {
                        let mut c = guard.component();
                        *c += 1;
                        let spin = Instant::now();
                        while spin.elapsed() < Duration::from_micros(2) {
                            std::hint::spin_loop();
                        }
                    }
                    guard.complete();
                }
                (pri, t0.elapsed().as_secs_f64())
            }));
        }
        for j in joins {
            finishes.push(j.join().unwrap());
        }
    });
    let elapsed = finishes.iter().map(|(_, f)| *f).fold(0.0, f64::max);
    let total_ops = threads as u64 * per_thread;
    let high = finishes.iter().max_by_key(|(p, _)| *p).unwrap().1;
    let low = finishes.iter().min_by_key(|(p, _)| *p).unwrap().1;
    SchedulingOutcome {
        throughput: total_ops as f64 / elapsed,
        high_finish_s: high,
        low_finish_s: low,
    }
}

/// E5 — scheduling-aspect policies under contention: FIFO vs LIFO vs
/// priority.
pub fn e5_scheduling(quick: bool) -> Table {
    let per_thread = scale(quick, 5_000);
    let threads = 8;
    let mut t = Table::new(
        "E5 — admission policies (8 threads, gate capacity 1)",
        &[
            "policy",
            "throughput",
            "highest-priority thread finished at",
            "lowest-priority thread finished at",
        ],
    );
    for (name, policy) in [
        ("FIFO", SchedulerPolicy::Fifo),
        ("LIFO", SchedulerPolicy::Lifo),
        ("Priority", SchedulerPolicy::Priority),
    ] {
        let o = run_scheduling(policy, threads, per_thread);
        t.row(&[
            name.to_string(),
            fmt_ops(o.throughput),
            format!("{:.1} ms", o.high_finish_s * 1e3),
            format!("{:.1} ms", o.low_finish_s * 1e3),
        ]);
    }
    t
}

/// E6 — wake strategies: wired vs broadcast wake graph × notify-all vs
/// notify-one.
pub fn e6_wakeup(quick: bool) -> Table {
    let total = scale(quick, 100_000);
    let mut t = Table::new(
        "E6 — wake strategies (2 producer/consumer pairs, capacity 4)",
        &[
            "wake graph",
            "wake mode",
            "throughput",
            "notifications/item",
            "wakeups/item",
        ],
    );
    for (graph, wired) in [("wired (paper)", true), ("broadcast all", false)] {
        for (mode_name, mode) in [
            ("notify-all", WakeMode::NotifyAll),
            ("notify-one", WakeMode::NotifyOne),
        ] {
            let b = ModeratedBuffer::new(PipelineConfig {
                capacity: 4,
                wake_mode: mode,
                wired_wakes: wired,
                ..PipelineConfig::default()
            });
            let pairs = 2;
            let per_thread = total / pairs as u64;
            let ops = run_pairs(
                pairs,
                per_thread,
                |i| b.put(i),
                || {
                    b.take();
                },
            );
            let stats = b.stats();
            let items = (pairs as u64 * per_thread) as f64;
            t.row(&[
                graph.to_string(),
                mode_name.to_string(),
                fmt_ops(ops),
                format!("{:.2}", stats.notifications as f64 / items),
                format!("{:.2}", stats.wakeups as f64 / items),
            ]);
        }
    }
    t
}

/// E7 — rollback ablation: correctness (does a blocked outer reservation
/// strand an unrelated method?) and cost under contention.
pub fn e7_rollback(quick: bool) -> Table {
    let mut t = Table::new(
        "E7 — rollback ablation",
        &[
            "rollback policy",
            "cross-method liveness",
            "contended pipeline throughput",
        ],
    );
    let total = scale(quick, 50_000);
    for (name, policy) in [
        ("Release (ours)", RollbackPolicy::Release),
        ("None (paper literal)", RollbackPolicy::None),
    ] {
        // Correctness probe: methods `a` and `b` share a capacity-1
        // reserving pool aspect; `a` additionally blocks on a closed
        // gate *after* reserving. With rollback, the reservation is
        // released while `a` waits, so `b` can run; without, `b`
        // starves.
        let moderator = Arc::new(AspectModerator::builder().rollback(policy).build());
        let a = moderator.declare_method(MethodId::new("a"));
        let b = moderator.declare_method(MethodId::new("b"));
        let pool = ExclusionGroup::new();
        let gate = Arc::new(AtomicBool::new(false));
        // Registration order on `a`: gate first, pool second — nested
        // ordering evaluates pool (newest) first, then the gate blocks.
        {
            let gate = Arc::clone(&gate);
            moderator
                .register(
                    &a,
                    Concern::new("gate"),
                    Box::new(
                        FnAspect::new("gate").on_precondition(move |_| {
                            Verdict::resume_if(gate.load(Ordering::SeqCst))
                        }),
                    ),
                )
                .unwrap();
        }
        moderator
            .register(&a, Concern::new("pool"), Box::new(pool.aspect()))
            .unwrap();
        moderator
            .register(&b, Concern::new("pool"), Box::new(pool.aspect()))
            .unwrap();
        let proxy = Arc::new(Moderated::new(0_u64, Arc::clone(&moderator)));

        let blocked = {
            let proxy = Arc::clone(&proxy);
            let a = a.clone();
            std::thread::spawn(move || {
                // Will block on the gate (forever, until we open it).
                proxy.invoke(&a, |c| *c += 1).unwrap();
            })
        };
        while moderator.stats().blocks == 0 {
            std::thread::yield_now();
        }
        let b_result = proxy.invoke_timeout(&b, Duration::from_millis(300), |c| *c += 1);
        let liveness = match &b_result {
            Ok(()) => "b ran while a waited ✔",
            Err(e) if e.is_timeout() => "b starved (pool leak) ✘",
            Err(e) => unreachable!("unexpected abort {e}"),
        };
        // Open the gate and drop the pool aspect from `a`'s chain
        // (deregistration wakes its waiters); under RollbackPolicy::None
        // the leaked pool reservation would otherwise deadlock `a`
        // against itself forever.
        gate.store(true, Ordering::SeqCst);
        moderator.deregister(&a, &Concern::new("pool")).unwrap();
        blocked.join().unwrap();

        // Cost probe: contended capacity-1 pipeline with a deeper chain,
        // where every block rolls back the chain prefix.
        let pipe = ModeratedBuffer::new(PipelineConfig {
            capacity: 1,
            rollback: policy,
            extra_noops: 3,
            ..PipelineConfig::default()
        });
        let ops = run_pairs(
            1,
            total,
            |i| pipe.put(i),
            || {
                pipe.take();
            },
        );
        t.row(&[name.to_string(), liveness.to_string(), fmt_ops(ops)]);
    }
    t
}

/// E8 — adaptability: adding authentication in the framework (register
/// two aspects) vs the tangled baseline (rewrite the monitor).
pub fn e8_adaptability(quick: bool) -> Table {
    let iters = scale(quick, 200_000);
    let mut t = Table::new(
        "E8 — cost of adding authentication",
        &[
            "system",
            "base ns/op",
            "with auth ns/op",
            "delta",
            "functional code changed",
        ],
    );

    // Framework: trouble-ticketing proxy, base vs extended.
    let base = TicketServerProxy::new(64, AspectModerator::shared()).unwrap();
    let base_ns = time_ns_per_op(iters, || {
        base.open(Ticket::new(0, "t")).unwrap();
        base.assign().unwrap();
    }) / 2.0;
    let auth = Authenticator::shared();
    auth.add_user("bench", "pw");
    let extended =
        ExtendedTicketServerProxy::new(64, AspectModerator::shared(), Arc::clone(&auth)).unwrap();
    let token = auth.login("bench", "pw").unwrap();
    let ext_ns = time_ns_per_op(iters, || {
        extended.open(token, Ticket::new(0, "t")).unwrap();
        extended.assign(token).unwrap();
    }) / 2.0;
    t.row(&[
        "framework (moderated)".into(),
        fmt_ns(base_ns),
        fmt_ns(ext_ns),
        format!("+{}", fmt_ns(ext_ns - base_ns)),
        "0 lines (2 registrations)".into(),
    ]);

    // Tangled: monitor vs rewritten secure monitor.
    let tangled = TangledBuffer::new(64);
    let tangled_ns = time_ns_per_op(iters, || {
        tangled.put(1_u64);
        tangled.take();
    }) / 2.0;
    let secure = TangledSecureBuffer::new(64);
    secure.add_user("bench", "pw");
    let stoken = secure.login("bench", "pw").unwrap();
    let secure_ns = time_ns_per_op(iters, || {
        secure.put(stoken, 1_u64).unwrap();
        secure.take(stoken).unwrap();
    }) / 2.0;
    t.row(&[
        "tangled monitor".into(),
        fmt_ns(tangled_ns),
        fmt_ns(secure_ns),
        format!("+{}", fmt_ns(secure_ns - tangled_ns)),
        "entire monitor rewritten".into(),
    ]);
    t
}

/// Pre/post-activation cycles driven directly on the moderator — no
/// component lock in the way — with `threads` threads split evenly over
/// two disjoint methods. Each method carries a two-aspect chain and an
/// empty wake set (disjoint methods never block each other), so the
/// measurement isolates the coordination path itself.
///
/// `aspect_work` is blocking time spent inside each precondition while
/// the method's coordination cell is held — the audit-fsync /
/// remote-auth shape, where the aspect waits on something that is not
/// the CPU. Under the global lock that wait stalls *every* method's
/// coordination; under sharded cells it stalls only its own method, so
/// disjoint methods' waits overlap even on a single-CPU host. Pass
/// `Duration::ZERO` to measure the pure (CPU-bound) coordination path.
///
/// `noisy_neighbor` adds the service's background coordination traffic
/// around the measured methods: four callers parked on a gated method
/// (consumers waiting on an empty queue) and one ticker whose
/// post-activations keep the seed's default broadcast wiring
/// (`WakeTargets::All`), so every tick wakes the parked callers and
/// each re-evaluates its I/O-guarded precondition before re-blocking.
/// The topology is identical in both modes — only [`Coordination`]
/// differs: the global lock serializes that churn with the measured
/// methods, sharded cells confine it to the gated method's own cell.
/// Returns measured activations per second (background ops excluded).
pub fn run_moderator_shard(
    coordination: Coordination,
    threads: usize,
    per_thread: u64,
    aspect_work: Duration,
    noisy_neighbor: bool,
) -> f64 {
    let moderator = Arc::new(
        AspectModerator::builder()
            .coordination(coordination)
            .build(),
    );
    let io_aspect = move || {
        FnAspect::new("audit-io").on_precondition(move |_| {
            if !aspect_work.is_zero() {
                std::thread::sleep(aspect_work);
            }
            Verdict::Resume
        })
    };
    let a = moderator.declare_method(MethodId::new("shard_a"));
    let b = moderator.declare_method(MethodId::new("shard_b"));
    for m in [&a, &b] {
        moderator
            .register(m, Concern::new("sync"), Box::new(NoopAspect))
            .unwrap();
        moderator
            .register(m, Concern::new("audit"), Box::new(io_aspect()))
            .unwrap();
        moderator.wire_wakes(m, &[]);
    }
    let gate_open = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let background = noisy_neighbor.then(|| {
        let gated = moderator.declare_method(MethodId::new("gated"));
        let tick = moderator.declare_method(MethodId::new("tick"));
        moderator
            .register(&gated, Concern::new("audit"), Box::new(io_aspect()))
            .unwrap();
        let open = Arc::clone(&gate_open);
        moderator
            .register(
                &gated,
                Concern::new("admission"),
                Box::new(FnAspect::new("closed-gate").on_precondition(move |_| {
                    if open.load(Ordering::Relaxed) {
                        Verdict::Resume
                    } else {
                        Verdict::Block
                    }
                })),
            )
            .unwrap();
        moderator
            .register(&tick, Concern::new("audit"), Box::new(io_aspect()))
            .unwrap();
        // `tick` keeps the default broadcast wiring: no `wire_wakes`.
        (gated, tick)
    });

    let one_op = |m: &amf_core::MethodHandle| {
        let mut ctx = InvocationContext::new(m.id().clone(), moderator.next_invocation());
        moderator.preactivation(m, &mut ctx).unwrap();
        moderator.postactivation(m, &mut ctx);
    };

    let barrier = std::sync::Barrier::new(threads);
    let start = parking_lot::Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        if let Some((gated, tick)) = &background {
            for _ in 0..4 {
                let moderator = &moderator;
                s.spawn(move || {
                    let mut ctx =
                        InvocationContext::new(gated.id().clone(), moderator.next_invocation());
                    moderator.preactivation(gated, &mut ctx).unwrap();
                    moderator.postactivation(gated, &mut ctx);
                });
            }
            while moderator.method_stats(gated).blocks < 4 {
                std::thread::yield_now();
            }
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    one_op(tick);
                }
            });
        }

        let mut joins = Vec::new();
        for t in 0..threads {
            let m = if t % 2 == 0 { a.clone() } else { b.clone() };
            let moderator = &moderator;
            let barrier = &barrier;
            let start = &start;
            joins.push(s.spawn(move || {
                barrier.wait();
                let t0 = *start.lock().get_or_insert_with(Instant::now);
                for _ in 0..per_thread {
                    let mut ctx =
                        InvocationContext::new(m.id().clone(), moderator.next_invocation());
                    moderator.preactivation(&m, &mut ctx).unwrap();
                    moderator.postactivation(&m, &mut ctx);
                }
                t0.elapsed().as_secs_f64()
            }));
        }
        let elapsed = joins
            .into_iter()
            .map(|j| j.join().unwrap())
            .fold(0.0, f64::max);

        // Unwind the background topology: open the gate, then keep
        // ticking until every parked caller has resumed.
        stop.store(true, Ordering::Relaxed);
        gate_open.store(true, Ordering::Relaxed);
        if let Some((gated, tick)) = &background {
            while moderator.method_stats(gated).resumes < 4 {
                one_op(tick);
            }
        }
        (threads as u64 * per_thread) as f64 / elapsed
    })
}

/// E9 — coordination sharding: per-method cells vs the retained global
/// lock at 1/2/4/8 threads over two disjoint methods. Three regimes:
/// a pure CPU-bound chain (`work 0`), chains whose aspects block on
/// simulated I/O while their cell is held, and the I/O-bound chains
/// next to noisy-neighbor background coordination traffic.
pub fn e9_sharding(quick: bool) -> Table {
    let mut t = Table::new(
        "E9 — coordination sharding (two disjoint methods)",
        &[
            "threads",
            "work/op",
            "background",
            "global lock",
            "sharded cells",
            "speedup",
        ],
    );
    let io = Duration::from_micros(200);
    for (work, noisy, per_thread) in [
        (Duration::ZERO, false, scale(quick, 400_000)),
        (io, false, scale(quick, 2_000) / 4),
        (io, true, scale(quick, 2_000) / 4),
    ] {
        for threads in [1_usize, 2, 4, 8] {
            let global =
                run_moderator_shard(Coordination::GlobalLock, threads, per_thread, work, noisy);
            let sharded =
                run_moderator_shard(Coordination::Sharded, threads, per_thread, work, noisy);
            t.row(&[
                threads.to_string(),
                if work.is_zero() {
                    "0".into()
                } else {
                    format!("{} µs", work.as_micros())
                },
                if noisy { "noisy".into() } else { "idle".into() },
                fmt_ops(global),
                fmt_ops(sharded),
                format!("{:.2}×", sharded / global),
            ]);
        }
    }
    t
}

/// Per-activation `open` latency through a capacity-1 gated buffer
/// hammered by `producers` threads under `fairness`, with one consumer
/// draining it. `noisy` adds the E9-style background churn: four
/// callers parked on a closed gate plus a ticker that keeps the seed's
/// default broadcast wiring, so every tick spuriously wakes the
/// measured queues and each parked producer re-evaluates before
/// re-blocking — the regime where a barging queue can starve a waiter
/// (every freed slot is contested by fresh arrivals) while a ticketed
/// queue bounds everyone's wait by queue length.
///
/// Returns the digest of every producer activation's wall-clock latency
/// (preactivation through postactivation, parked time included).
pub fn run_fairness_tail(
    fairness: FairnessPolicy,
    producers: usize,
    per_thread: u64,
    noisy: bool,
) -> LatencySummary {
    let moderator = Arc::new(AspectModerator::builder().fairness(fairness).build());
    let slots = Arc::new(AtomicU64::new(1));
    let items = Arc::new(AtomicU64::new(0));
    let open = moderator.declare_method(MethodId::new("open"));
    let take = moderator.declare_method(MethodId::new("take"));
    {
        let slots = Arc::clone(&slots);
        let items = Arc::clone(&items);
        moderator
            .register(
                &open,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("slot-gate")
                        .on_precondition(move |_| {
                            if slots.load(Ordering::SeqCst) > 0 {
                                slots.fetch_sub(1, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            items.fetch_add(1, Ordering::SeqCst);
                        }),
                ),
            )
            .unwrap();
    }
    {
        let slots = Arc::clone(&slots);
        let items = Arc::clone(&items);
        moderator
            .register(
                &take,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("item-gate")
                        .on_precondition(move |_| {
                            if items.load(Ordering::SeqCst) > 0 {
                                items.fetch_sub(1, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            slots.fetch_add(1, Ordering::SeqCst);
                        }),
                ),
            )
            .unwrap();
    }
    moderator.wire_wakes(&open, std::slice::from_ref(&take));
    moderator.wire_wakes(&take, std::slice::from_ref(&open));

    let one_op = |m: &amf_core::MethodHandle| {
        let mut ctx = InvocationContext::new(m.id().clone(), moderator.next_invocation());
        moderator.preactivation(m, &mut ctx).unwrap();
        moderator.postactivation(m, &mut ctx);
    };

    let gate_open = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let background = noisy.then(|| {
        let gated = moderator.declare_method(MethodId::new("gated"));
        let tick = moderator.declare_method(MethodId::new("tick"));
        let open_flag = Arc::clone(&gate_open);
        moderator
            .register(
                &gated,
                Concern::new("admission"),
                Box::new(FnAspect::new("closed-gate").on_precondition(move |_| {
                    Verdict::resume_if(open_flag.load(Ordering::Relaxed))
                })),
            )
            .unwrap();
        // The same audit-fsync shape as E9's background paces the
        // ticker (~5K broadcasts/s): churn on the measured queues, not
        // saturation of their cell locks.
        moderator
            .register(
                &tick,
                Concern::new("audit"),
                Box::new(FnAspect::new("audit-io").on_precondition(move |_| {
                    std::thread::sleep(Duration::from_micros(200));
                    Verdict::Resume
                })),
            )
            .unwrap();
        // `tick` keeps the default broadcast wiring: every completion
        // notifies all cells, including the measured buffer's queues.
        (gated, tick)
    });

    let barrier = std::sync::Barrier::new(producers + 1);
    let mut samples: Vec<u64> = Vec::with_capacity(producers * per_thread as usize);
    std::thread::scope(|s| {
        if let Some((gated, tick)) = &background {
            for _ in 0..4 {
                let moderator = &moderator;
                s.spawn(move || {
                    let mut ctx =
                        InvocationContext::new(gated.id().clone(), moderator.next_invocation());
                    moderator.preactivation(gated, &mut ctx).unwrap();
                    moderator.postactivation(gated, &mut ctx);
                });
            }
            while moderator.method_stats(gated).blocks < 4 {
                std::thread::yield_now();
            }
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    one_op(tick);
                }
            });
        }

        let mut joins = Vec::new();
        for _ in 0..producers {
            let moderator = &moderator;
            let open = &open;
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                let mut local = Vec::with_capacity(per_thread as usize);
                barrier.wait();
                for _ in 0..per_thread {
                    let t0 = Instant::now();
                    let mut ctx =
                        InvocationContext::new(open.id().clone(), moderator.next_invocation());
                    moderator.preactivation(open, &mut ctx).unwrap();
                    moderator.postactivation(open, &mut ctx);
                    local.push(t0.elapsed().as_nanos() as u64);
                }
                local
            }));
        }
        {
            let moderator = &moderator;
            let take = &take;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..producers as u64 * per_thread {
                    let mut ctx =
                        InvocationContext::new(take.id().clone(), moderator.next_invocation());
                    moderator.preactivation(take, &mut ctx).unwrap();
                    moderator.postactivation(take, &mut ctx);
                }
            });
        }
        for j in joins {
            samples.extend(j.join().unwrap());
        }

        stop.store(true, Ordering::Relaxed);
        gate_open.store(true, Ordering::Relaxed);
        if let Some((gated, tick)) = &background {
            while moderator.method_stats(gated).resumes < 4 {
                one_op(tick);
            }
        }
    });
    LatencySummary::from_unsorted(&mut samples)
}

/// E10 — wake fairness: per-activation tail latency of 8 producers on a
/// capacity-1 buffer, `Barging` vs `Fifo`, idle and next to the
/// broadcast-wake noisy neighbor. Barging minimizes the median (a
/// newcomer that finds the slot free skips the queue); ticketed FIFO
/// bounds the tail (no waiter is ever overtaken, so p99 tracks queue
/// length instead of scheduler luck).
pub fn e10_fairness(quick: bool) -> Table {
    let per_thread = scale(quick, 20_000);
    let producers = 8;
    let mut t = Table::new(
        "E10 — wake fairness tail latency (8 producers, capacity-1 buffer)",
        &["policy", "background", "p50", "p99", "max", "mean"],
    );
    for noisy in [false, true] {
        for (name, policy) in [
            ("Barging", FairnessPolicy::Barging),
            ("Fifo", FairnessPolicy::Fifo),
        ] {
            let s = run_fairness_tail(policy, producers, per_thread, noisy);
            t.row(&[
                name.to_string(),
                if noisy { "noisy".into() } else { "idle".into() },
                fmt_ns(s.p50_ns as f64),
                fmt_ns(s.p99_ns as f64),
                fmt_ns(s.max_ns as f64),
                fmt_ns(s.mean_ns as f64),
            ]);
        }
    }
    t
}

/// One chaos-regime run for E11: `producers` threads push `per_thread`
/// ops each through a capacity-16 put/take pipeline (low contention, so
/// the latency measures the coordination path itself, not queueing)
/// under the given panic policy, with a seeded [`PanicInjectionAspect`]
/// firing in `put`'s precondition at `pre_rate` *after* the slot gate
/// has reserved — every injected panic exercises the prefix unwind.
/// Producers retry through contained panics, so the measured latency at
/// a non-zero rate includes recovery. Returns the per-op latency
/// summary and the moderator's `panics_caught`.
///
/// [`PanicInjectionAspect`]: amf_aspects::fault::PanicInjectionAspect
pub fn run_chaos(
    fairness: FairnessPolicy,
    policy: PanicPolicy,
    pre_rate: f64,
    producers: usize,
    per_thread: u64,
) -> (LatencySummary, u64) {
    use amf_aspects::fault::{chaos_seed, PanicInjectionAspect};

    assert!(
        pre_rate == 0.0 || policy != PanicPolicy::Propagate,
        "a propagating run cannot inject panics"
    );
    let moderator = Arc::new(
        AspectModerator::builder()
            .fairness(fairness)
            .panic_policy(policy)
            .build(),
    );
    let capacity: u64 = 16;
    let slots = Arc::new(AtomicU64::new(capacity));
    let items = Arc::new(AtomicU64::new(0));
    let put = moderator.declare_method(MethodId::new("put"));
    let take = moderator.declare_method(MethodId::new("take"));
    // The injector registers first so the slot gate (registered after,
    // hence newest) evaluates before it: a fired panic always finds a
    // reserved slot to unwind.
    moderator
        .register(
            &put,
            Concern::new("panic-injection"),
            Box::new(PanicInjectionAspect::new(pre_rate, 0.0, chaos_seed(0xE11))),
        )
        .unwrap();
    {
        let (dec, undo, done) = (Arc::clone(&slots), Arc::clone(&slots), Arc::clone(&items));
        moderator
            .register(
                &put,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("slot-gate")
                        .on_precondition(move |_| {
                            if dec.load(Ordering::SeqCst) > 0 {
                                dec.fetch_sub(1, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            done.fetch_add(1, Ordering::SeqCst);
                        })
                        .on_release_do(move |_, _| {
                            undo.fetch_add(1, Ordering::SeqCst);
                        }),
                ),
            )
            .unwrap();
    }
    {
        let (dec, undo, done) = (Arc::clone(&items), Arc::clone(&items), Arc::clone(&slots));
        moderator
            .register(
                &take,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("item-gate")
                        .on_precondition(move |_| {
                            if dec.load(Ordering::SeqCst) > 0 {
                                dec.fetch_sub(1, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            done.fetch_add(1, Ordering::SeqCst);
                        })
                        .on_release_do(move |_, _| {
                            undo.fetch_add(1, Ordering::SeqCst);
                        }),
                ),
            )
            .unwrap();
    }
    moderator.wire_wakes(&put, std::slice::from_ref(&take));
    moderator.wire_wakes(&take, std::slice::from_ref(&put));

    let barrier = std::sync::Barrier::new(producers + 1);
    let mut samples: Vec<u64> = Vec::with_capacity(producers * per_thread as usize);
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for _ in 0..producers {
            let moderator = &moderator;
            let put = &put;
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                let mut local = Vec::with_capacity(per_thread as usize);
                barrier.wait();
                for _ in 0..per_thread {
                    let t0 = Instant::now();
                    // Retry through contained panics: at a non-zero
                    // rate the sample includes the recovery cost.
                    loop {
                        let mut ctx =
                            InvocationContext::new(put.id().clone(), moderator.next_invocation());
                        match moderator.preactivation(put, &mut ctx) {
                            Ok(()) => {
                                moderator.postactivation(put, &mut ctx);
                                break;
                            }
                            Err(e) if e.is_panic() => continue,
                            Err(e) => panic!("unexpected abort: {e}"),
                        }
                    }
                    local.push(t0.elapsed().as_nanos() as u64);
                }
                local
            }));
        }
        {
            let moderator = &moderator;
            let take = &take;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..producers as u64 * per_thread {
                    let mut ctx =
                        InvocationContext::new(take.id().clone(), moderator.next_invocation());
                    moderator.preactivation(take, &mut ctx).unwrap();
                    moderator.postactivation(take, &mut ctx);
                }
            });
        }
        for j in joins {
            samples.extend(j.join().unwrap());
        }
    });
    let panics = moderator.stats().panics_caught;
    (LatencySummary::from_unsorted(&mut samples), panics)
}

/// E11 — containment overhead and recovery: the put/take pipeline under
/// `Propagate` (no `catch_unwind` anywhere) vs `AbortInvocation` at
/// panic rate 0 — the price of the safety net when nothing panics —
/// then `AbortInvocation` riding out a 1% precondition panic rate, with
/// producers retrying through every contained abort.
pub fn e11_containment(quick: bool) -> Table {
    let per_thread = scale(quick, 20_000);
    let producers = 8;
    let mut t = Table::new(
        "E11 — panic containment overhead and recovery (8 producers, capacity-16 buffer)",
        &[
            "fairness",
            "policy",
            "panic rate",
            "p50",
            "p99",
            "mean",
            "panics caught",
        ],
    );
    // Contained panics run the (default, printing) panic hook; silence
    // it for the storm rows so release runs do not flood stderr.
    let _ = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (fname, fairness) in [
        ("Barging", FairnessPolicy::Barging),
        ("Fifo", FairnessPolicy::Fifo),
    ] {
        for (pname, policy, rate) in [
            ("Propagate", PanicPolicy::Propagate, 0.0),
            ("AbortInvocation", PanicPolicy::AbortInvocation, 0.0),
            ("AbortInvocation", PanicPolicy::AbortInvocation, 0.01),
        ] {
            let (s, panics) = run_chaos(fairness, policy, rate, producers, per_thread);
            t.row(&[
                fname.to_string(),
                pname.to_string(),
                format!("{:.0}%", rate * 100.0),
                fmt_ns(s.p50_ns as f64),
                fmt_ns(s.p99_ns as f64),
                fmt_ns(s.mean_ns as f64),
                panics.to_string(),
            ]);
        }
    }
    let _ = std::panic::take_hook();
    t
}

/// One convoy run for E12: `producers` FIFO threads contend for slots
/// that a single drainer frees `batch` at a time — each drain
/// postaction returns `batch` slots in one sweep-triggering settle, the
/// capacity-`k` shape batched admission exists for. Under `NotifyOne`
/// the drain sends *one* signal; without batching every admission past
/// the signalled head needs a fresh wake handoff (the convoy), with
/// batching the freed prefix rides the grant-extension chain. Returns
/// the per-`open` latency summary plus `open`'s
/// (`tickets_served`, `batched_grants`) — handoffs are their
/// difference.
pub fn run_convoy(
    grant_batching: bool,
    producers: usize,
    per_thread: u64,
    batch: u64,
) -> (LatencySummary, u64, u64) {
    let moderator = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .wake_mode(WakeMode::NotifyOne)
            .grant_batching(grant_batching)
            .build(),
    );
    let slots = Arc::new(AtomicU64::new(batch));
    let items = Arc::new(AtomicU64::new(0));
    let open = moderator.declare_method(MethodId::new("open"));
    let drain = moderator.declare_method(MethodId::new("drain"));
    {
        let slots = Arc::clone(&slots);
        let items = Arc::clone(&items);
        moderator
            .register(
                &open,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("slot-gate")
                        .on_precondition(move |_| {
                            if slots.load(Ordering::SeqCst) > 0 {
                                slots.fetch_sub(1, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            items.fetch_add(1, Ordering::SeqCst);
                        }),
                ),
            )
            .unwrap();
    }
    {
        let slots = Arc::clone(&slots);
        let items = Arc::clone(&items);
        moderator
            .register(
                &drain,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("batch-gate")
                        .on_precondition(move |_| {
                            if items.load(Ordering::SeqCst) >= batch {
                                items.fetch_sub(batch, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            // The convoy trigger: `batch` slots come
                            // free in this one postactivation.
                            slots.fetch_add(batch, Ordering::SeqCst);
                        }),
                ),
            )
            .unwrap();
    }
    moderator.wire_wakes(&open, std::slice::from_ref(&drain));
    moderator.wire_wakes(&drain, std::slice::from_ref(&open));

    let total = producers as u64 * per_thread;
    assert_eq!(total % batch, 0, "drains must consume the run exactly");
    let barrier = std::sync::Barrier::new(producers + 1);
    let mut samples: Vec<u64> = Vec::with_capacity(total as usize);
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for _ in 0..producers {
            let moderator = &moderator;
            let open = &open;
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                let mut local = Vec::with_capacity(per_thread as usize);
                barrier.wait();
                for _ in 0..per_thread {
                    let t0 = Instant::now();
                    let mut ctx =
                        InvocationContext::new(open.id().clone(), moderator.next_invocation());
                    moderator.preactivation(open, &mut ctx).unwrap();
                    moderator.postactivation(open, &mut ctx);
                    local.push(t0.elapsed().as_nanos() as u64);
                }
                local
            }));
        }
        {
            let moderator = &moderator;
            let drain = &drain;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..total / batch {
                    let mut ctx =
                        InvocationContext::new(drain.id().clone(), moderator.next_invocation());
                    moderator.preactivation(drain, &mut ctx).unwrap();
                    moderator.postactivation(drain, &mut ctx);
                }
            });
        }
        for j in joins {
            samples.extend(j.join().unwrap());
        }
    });
    let ms = moderator.method_stats(&open);
    (
        LatencySummary::from_unsorted(&mut samples),
        ms.tickets_served,
        ms.batched_grants,
    )
}

/// E12 — batched FIFO admission: convoy cost on a capacity-4 gate whose
/// slots are freed four at a time under `NotifyOne`, `grant_batching`
/// off vs on. Handoffs (`tickets_served − batched_grants`) must drop
/// strictly when batching is on — the freed prefix drains on one
/// cursor-ordered sweep instead of a wake chain — while p99 stays no
/// worse.
pub fn e12_convoy(quick: bool) -> Table {
    let per_thread = scale(quick, 10_000);
    let producers = 8;
    let batch = 4;
    let mut t = Table::new(
        "E12 — batched admission convoy (8 producers, 4 slots freed per drain, NotifyOne)",
        &[
            "batching", "p50", "p99", "max", "served", "batched", "handoffs",
        ],
    );
    for (name, on) in [("off", false), ("on", true)] {
        let (s, served, batched) = run_convoy(on, producers, per_thread, batch);
        t.row(&[
            name.to_string(),
            fmt_ns(s.p50_ns as f64),
            fmt_ns(s.p99_ns as f64),
            fmt_ns(s.max_ns as f64),
            served.to_string(),
            batched.to_string(),
            (served - batched).to_string(),
        ]);
    }
    t
}

/// V1 — exhaustive verification of the producer/consumer composition:
/// states explored and verdicts across configurations, including the
/// E7 anomaly as a machine-checked counterexample.
pub fn v1_verification(quick: bool) -> Table {
    use amf_verify::{aspects, Checker, ModelSystem, Outcome};

    #[derive(Clone, PartialEq, Eq, Hash, Default)]
    struct Buf {
        reserved: usize,
        produced: usize,
        producing: bool,
        consuming: bool,
    }

    let mut t = Table::new(
        "V1 — exhaustive verification (model checker)",
        &["composition", "threads×ops", "states", "verdict"],
    );

    let configs: &[(usize, usize, usize)] = if quick {
        &[(1, 1, 2), (2, 2, 2)]
    } else {
        &[(1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3), (1, 3, 2)]
    };
    for &(capacity, pairs, ops) in configs {
        let mut sys = ModelSystem::new();
        let put = sys.method("put");
        let take = sys.method("take");
        sys.add_aspect(
            put,
            "sync",
            aspects::buffer_producer(
                capacity,
                |s: &mut Buf| &mut s.reserved,
                |s: &mut Buf| &mut s.produced,
                |s: &mut Buf| &mut s.producing,
            ),
        );
        sys.add_aspect(
            take,
            "sync",
            aspects::buffer_consumer(
                |s: &mut Buf| &mut s.reserved,
                |s: &mut Buf| &mut s.produced,
                |s: &mut Buf| &mut s.consuming,
            ),
        );
        let mut checker = Checker::new(sys)
            .invariant(move |s: &Buf| s.reserved <= capacity && s.produced <= s.reserved);
        for _ in 0..pairs {
            checker = checker.thread(vec![put; ops]);
            checker = checker.thread(vec![take; ops]);
        }
        let r = checker.run(Buf::default());
        let verdict = match r.outcome {
            Outcome::Ok => "deadlock-free + invariants hold".to_string(),
            other => format!("{other:?}"),
        };
        t.row(&[
            format!("buffer cap {capacity}"),
            format!("{}×{ops}", 2 * pairs),
            r.states.to_string(),
            verdict,
        ]);
    }

    // The E7 anomaly, both ways.
    #[derive(Clone, PartialEq, Eq, Hash, Default)]
    struct Pool {
        busy: bool,
        gate_open: bool,
    }
    for (label, rollback) in [
        ("anomaly w/ rollback", true),
        ("anomaly w/o rollback", false),
    ] {
        let mut sys = ModelSystem::<Pool>::new();
        let a = sys.method("a");
        let b = sys.method("b");
        sys.add_aspect(a, "gate", aspects::guard(|s: &Pool| s.gate_open));
        for m in [a, b] {
            sys.add_aspect(
                m,
                "pool",
                aspects::reserve(
                    |s: &Pool| !s.busy,
                    |s: &mut Pool| s.busy = true,
                    |s: &mut Pool| s.busy = false,
                ),
            );
        }
        sys.set_body(b, |s: &mut Pool| s.gate_open = true);
        let r = Checker::new(sys.rollback(rollback))
            .thread(vec![a])
            .thread(vec![b])
            .run(Pool::default());
        let verdict = match r.outcome {
            Outcome::Ok => "deadlock-free".to_string(),
            Outcome::Deadlock(trace) => format!("DEADLOCK after {} steps", trace.len()),
            other => format!("{other:?}"),
        };
        t.row(&[
            label.to_string(),
            "2×1".to_string(),
            r.states.to_string(),
            verdict,
        ]);
    }
    t
}

/// Exhaustively explores the producer/consumer model at the given
/// bounds and returns the exploration report plus the wall time it
/// took, for E13's states/sec accounting.
pub fn explore_buffer(capacity: usize, pairs: usize, ops: usize) -> (amf_verify::Exploration, f64) {
    explore_buffer_with(
        capacity,
        pairs,
        ops,
        amf_verify::ReductionPolicy::None,
        1_000_000,
    )
}

/// [`explore_buffer`] with an explicit [`ReductionPolicy`] and state
/// budget — the A/B harness behind E15's reduction-factor rows. The
/// scenario keeps its per-step invariant, so the persistent-set layer
/// is inert here and the measured reduction is the sleep sets' alone.
///
/// [`ReductionPolicy`]: amf_verify::ReductionPolicy
pub fn explore_buffer_with(
    capacity: usize,
    pairs: usize,
    ops: usize,
    policy: amf_verify::ReductionPolicy,
    max_states: usize,
) -> (amf_verify::Exploration, f64) {
    use amf_verify::{aspects, Checker, ModelSystem, Strategy};

    #[derive(Clone, PartialEq, Eq, Hash, Default)]
    struct Buf {
        reserved: usize,
        produced: usize,
        producing: bool,
        consuming: bool,
    }
    let mut sys = ModelSystem::new();
    let put = sys.method("put");
    let take = sys.method("take");
    sys.add_aspect(
        put,
        "sync",
        aspects::buffer_producer(
            capacity,
            |s: &mut Buf| &mut s.reserved,
            |s: &mut Buf| &mut s.produced,
            |s: &mut Buf| &mut s.producing,
        ),
    );
    sys.add_aspect(
        take,
        "sync",
        aspects::buffer_consumer(
            |s: &mut Buf| &mut s.reserved,
            |s: &mut Buf| &mut s.produced,
            |s: &mut Buf| &mut s.consuming,
        ),
    );
    let mut checker = Checker::new(sys)
        .strategy(Strategy::Exhaustive)
        .reduction(policy)
        .max_states(max_states)
        .invariant(move |s: &Buf| s.reserved <= capacity && s.produced <= s.reserved);
    for _ in 0..pairs {
        checker = checker.thread(vec![put; ops]);
        checker = checker.thread(vec![take; ops]);
    }
    let start = Instant::now();
    let r = checker.run(Buf::default());
    let secs = start.elapsed().as_secs_f64();
    (r, secs)
}

/// E13 — deterministic simulation & exhaustive exploration: the
/// explorer's schedule/state counts (stable across runs) with
/// states/sec at a larger bound, plus the simulator's record→replay
/// round-trip on the real moderator (byte-identical artifact).
pub fn e13_simulation(quick: bool) -> Table {
    use amf_sim::{run_buffer_scenario, ReplayHeader, ScenarioParams};
    use amf_verify::Outcome;

    let mut t = Table::new(
        "E13 — deterministic simulation & exhaustive exploration",
        &[
            "scenario",
            "size",
            "states",
            "schedules",
            "states/sec",
            "verdict",
        ],
    );

    // The canonical bounded scenario, twice: the counts must agree.
    let (a, _) = explore_buffer(1, 1, 2);
    let (b, _) = explore_buffer(1, 1, 2);
    let stable = a.states == b.states && a.schedules == b.schedules;
    t.row(&[
        "exhaustive buffer cap 1".to_string(),
        "2×2".to_string(),
        a.states.to_string(),
        a.schedules.to_string(),
        "-".to_string(),
        match (&a.outcome, stable) {
            (Outcome::Ok, true) => "ok, counts stable across runs ✔".to_string(),
            (Outcome::Ok, false) => "counts UNSTABLE ✘".to_string(),
            (other, _) => format!("{other:?}"),
        },
    ]);

    // A larger bound for meaningful throughput numbers.
    let (pairs, ops) = if quick { (2, 2) } else { (3, 2) };
    let (big, secs) = explore_buffer(1, pairs, ops);
    t.row(&[
        "exhaustive buffer cap 1".to_string(),
        format!("{}×{ops}", 2 * pairs),
        big.states.to_string(),
        big.schedules.to_string(),
        fmt_ops(big.states as f64 / secs),
        match big.outcome {
            Outcome::Ok => "deadlock-free + invariants hold".to_string(),
            other => format!("{other:?}"),
        },
    ]);

    // The simulator on the real moderator: record a faulted run, replay
    // its schedule, demand a byte-identical artifact.
    let params = ScenarioParams {
        seed: 42,
        producers: 2,
        consumers: 1,
        rounds: if quick { 3 } else { 10 },
        fault_permille: 100,
    };
    let recorded = run_buffer_scenario(&params, None);
    let artifact = recorded.to_json();
    let replay_ok = ReplayHeader::scan(&artifact)
        .map(|h| run_buffer_scenario(&params, Some(h.schedule)).to_json() == artifact)
        .unwrap_or(false);
    t.row(&[
        "sim record→replay (real moderator)".to_string(),
        format!(
            "p{} c{} r{} seed {}",
            params.producers, params.consumers, params.rounds, params.seed
        ),
        "-".to_string(),
        recorded.schedule.len().to_string(),
        "-".to_string(),
        if recorded.error.is_none() && replay_ok {
            format!(
                "byte-identical, {} faults injected ✔",
                recorded.faults.len()
            )
        } else {
            format!("replay DIVERGED ✘ (error: {:?})", recorded.error)
        },
    ]);
    t
}

/// Throughput of two disjoint methods whose two-aspect chains are pure
/// no-ops, with `declare_pure` controlling whether the aspects
/// *declare* the capability contract ([`AspectCapabilities::all`])
/// that makes their rows fast-path eligible. Undeclared, every
/// activation takes the locked two-phase path under `coordination`;
/// declared, the hot path is one CAS admit and one CAS release per
/// activation, and the cell lock is never touched. Wake wiring is
/// empty in both variants (an eligibility precondition, and the same
/// wiring `run_moderator_shard` uses). Returns activations per second.
pub fn run_moderator_fast(
    coordination: Coordination,
    threads: usize,
    per_thread: u64,
    declare_pure: bool,
) -> f64 {
    let moderator = Arc::new(
        AspectModerator::builder()
            .coordination(coordination)
            .build(),
    );
    let aspect = |name: &'static str| {
        let a = FnAspect::new(name).on_precondition(|_| Verdict::Resume);
        if declare_pure {
            a.declare_capabilities(AspectCapabilities::all())
        } else {
            a
        }
    };
    let a = moderator.declare_method(MethodId::new("fast_a"));
    let b = moderator.declare_method(MethodId::new("fast_b"));
    for m in [&a, &b] {
        moderator
            .register(m, Concern::new("sync"), Box::new(aspect("pure-sync")))
            .unwrap();
        moderator
            .register(m, Concern::new("audit"), Box::new(aspect("pure-audit")))
            .unwrap();
        moderator.wire_wakes(m, &[]);
    }
    let barrier = std::sync::Barrier::new(threads);
    let start = parking_lot::Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let m = if t % 2 == 0 { a.clone() } else { b.clone() };
            let moderator = &moderator;
            let barrier = &barrier;
            let start = &start;
            joins.push(s.spawn(move || {
                barrier.wait();
                let t0 = *start.lock().get_or_insert_with(Instant::now);
                for _ in 0..per_thread {
                    let mut ctx =
                        InvocationContext::new(m.id().clone(), moderator.next_invocation());
                    moderator.preactivation(&m, &mut ctx).unwrap();
                    moderator.postactivation(&m, &mut ctx);
                }
                t0.elapsed().as_secs_f64()
            }));
        }
        let elapsed = joins
            .into_iter()
            .map(|j| j.join().unwrap())
            .fold(0.0, f64::max);
        if declare_pure {
            let s = moderator.stats();
            assert!(
                s.fast_path_admits > 0,
                "declared-pure rows must take the CAS lane: {s:?}"
            );
        }
        (threads as u64 * per_thread) as f64 / elapsed
    })
}

/// E14 — lock-free two-phase admission: the CAS fast lane against the
/// locked path at 1/2/4/8 threads over two disjoint pure-chain
/// methods. Three columns: the retained global lock (undeclared
/// aspects), sharded cells still taking the locked path (undeclared),
/// and sharded cells with the capability contract declared — the
/// headline is the last column's speedup over the first.
pub fn e14_fast_path(quick: bool) -> Table {
    let mut t = Table::new(
        "E14 — lock-free fast-lane admission (two pure methods)",
        &[
            "threads",
            "global lock",
            "sharded locked",
            "fast lane",
            "speedup vs lock",
        ],
    );
    let per_thread = scale(quick, 400_000);
    for threads in [1_usize, 2, 4, 8] {
        let global = run_moderator_fast(Coordination::GlobalLock, threads, per_thread, false);
        let locked = run_moderator_fast(Coordination::Sharded, threads, per_thread, false);
        let fast = run_moderator_fast(Coordination::Sharded, threads, per_thread, true);
        t.row(&[
            threads.to_string(),
            fmt_ops(global),
            fmt_ops(locked),
            fmt_ops(fast),
            format!("{:.2}×", fast / global),
        ]);
    }
    t
}

/// E15 — DPOR schedule reduction: the exhaustive explorer under
/// `ReductionPolicy::None` vs `ReductionPolicy::Dpor` on the
/// capacity-1 producer/consumer model. Verdicts must agree at every
/// bound (reduction prunes redundant transition *orders*, never
/// states); the headline is the schedule reduction factor at 6×2 and
/// the 8×2 row, which only completes at all under `Dpor`.
pub fn e15_reduction(quick: bool) -> Table {
    use amf_verify::{Outcome, ReductionPolicy};

    let mut t = Table::new(
        "E15 — DPOR schedule reduction (exhaustive buffer, cap 1)",
        &[
            "size",
            "policy",
            "states",
            "schedules",
            "states/sec",
            "verdict",
        ],
    );
    let bounds: &[(usize, usize)] = if quick {
        &[(1, 2), (2, 2)]
    } else {
        &[(2, 2), (3, 2)]
    };
    for &(pairs, ops) in bounds {
        let (full, full_secs) = explore_buffer_with(1, pairs, ops, ReductionPolicy::None, 1 << 22);
        let (red, red_secs) = explore_buffer_with(1, pairs, ops, ReductionPolicy::Dpor, 1 << 22);
        let agree = full.outcome == red.outcome && full.states == red.states;
        let factor = full.schedules as f64 / red.schedules.max(1) as f64;
        t.row(&[
            format!("{}×{ops}", 2 * pairs),
            "None".to_string(),
            full.states.to_string(),
            full.schedules.to_string(),
            fmt_ops(full.states as f64 / full_secs),
            match full.outcome {
                Outcome::Ok => "ok".to_string(),
                ref other => format!("{other:?}"),
            },
        ]);
        t.row(&[
            format!("{}×{ops}", 2 * pairs),
            "Dpor".to_string(),
            red.states.to_string(),
            red.schedules.to_string(),
            fmt_ops(red.states as f64 / red_secs),
            if agree {
                format!("same verdict & states, {factor:.1}× fewer schedules ✔")
            } else {
                format!("verdict/states DIVERGED ✘ ({:?})", red.outcome)
            },
        ]);
    }
    // The frontier bound: infeasible under None (the schedule count
    // explodes past any reasonable budget), completed under Dpor —
    // 50.9M states / 47.6M schedules, roughly 70 minutes and ~25 GB on
    // a single shared core, so it only runs in full (non-quick) mode.
    if !quick {
        eprintln!("e15: exploring the 8×2 frontier bound (expect ~an hour) ...");
        let (big, secs) = explore_buffer_with(1, 4, 2, ReductionPolicy::Dpor, 1 << 26);
        t.row(&[
            "8×2".to_string(),
            "Dpor".to_string(),
            big.states.to_string(),
            big.schedules.to_string(),
            fmt_ops(big.states as f64 / secs),
            match big.outcome {
                Outcome::Ok => "ok (previously infeasible) ✔".to_string(),
                ref other => format!("{other:?}"),
            },
        ]);
    }
    t
}

/// Outcome of one E16 ring run: throughput, recovery work, and the
/// grant ack-latency digest.
#[derive(Debug, Clone, Copy)]
pub struct WireRun {
    /// Lease visits completed per second of wall time.
    pub goodput: f64,
    /// Grant-plane frames retransmitted after a backoff deadline.
    pub retransmits: u64,
    /// Handoffs reclaimed after expiry.
    pub reclaimed: u64,
    /// Duplicate grants dropped idempotently.
    pub dup_dropped: u64,
    /// First-send → acknowledged latency digest of every grant
    /// (retransmissions included) — the recovery-time distribution.
    pub recovery: LatencySummary,
    /// Whether every lease retired exactly once.
    pub complete: bool,
}

/// Spawns a live 3-node [`PeerNode`] ring over loopback TCP, each link
/// fronted by a seeded [`FaultProxy`] dropping and duplicating
/// `fault_permille` of grant-plane frames, and runs `leases` leases of
/// `visits` visits to retirement. Shared by E16 and the service load
/// generator's `wire_topology` report section.
pub fn run_wire_ring(fault_permille: u64, leases: u64, visits: u64, expiry: Duration) -> WireRun {
    const NODES: usize = 3;
    let lease = LeaseConfig {
        expiry,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
        jitter_seed: 7,
    };
    let nodes: Vec<PeerNode> = (0..NODES)
        .map(|i| {
            PeerNode::spawn(PeerConfig {
                node: i as u64,
                seed_leases: if i == 0 { leases } else { 0 },
                visits,
                lease: lease.clone(),
                ..PeerConfig::default()
            })
            .expect("spawn ring node")
        })
        .collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let mut proxies = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let proxy = FaultProxy::spawn(FaultProxyConfig {
            target: addrs[(i + 1) % NODES].clone(),
            drop_permille: fault_permille,
            dup_permille: fault_permille,
            max_delay: Duration::from_micros(200),
            seed: 0xE16 + i as u64,
            ..FaultProxyConfig::default()
        })
        .expect("spawn fault proxy");
        node.set_next(&proxy.addr().to_string());
        proxies.push(proxy);
    }
    let t0 = Instant::now();
    let deadline = Duration::from_secs(60);
    loop {
        let retired: u64 = nodes.iter().map(|n| n.stats().retired).sum();
        if retired >= leases || t0.elapsed() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let mut retired: Vec<u64> = nodes.iter().flat_map(|n| n.retired()).collect();
    retired.sort_unstable();
    let complete = retired == (0..leases).collect::<Vec<u64>>();
    let mut samples: Vec<u64> = nodes
        .iter()
        .flat_map(|n| n.ack_latencies())
        .map(|d| d.as_nanos() as u64)
        .collect();
    let (retransmits, reclaimed, dup_dropped) = nodes.iter().fold((0, 0, 0), |acc, n| {
        let s = n.stats();
        (
            acc.0 + s.retransmits,
            acc.1 + s.reclaimed,
            acc.2 + s.dup_dropped,
        )
    });
    WireRun {
        goodput: (leases * visits) as f64 / elapsed,
        retransmits,
        reclaimed,
        dup_dropped,
        recovery: LatencySummary::from_unsorted(&mut samples),
        complete,
    }
}

/// E16 — wire recovery: a live 3-node TCP ring under seeded link
/// faults at 0‰ / 10‰ / 100‰ drop (with equal duplication). Every
/// lease must retire exactly once at every fault rate, and the handoff
/// recovery p99 — first send to acknowledged, retransmissions included
/// — must stay within 2× the lease expiry deadline: the acceptance
/// bound for the recovery state machine on the real wire.
pub fn e16_wire_recovery(quick: bool) -> Table {
    let mut t = Table::new(
        "E16 — wire recovery (live 3-node TCP ring, seeded fault proxies)",
        &[
            "faults ‰",
            "goodput",
            "retransmits",
            "reclaimed",
            "dup dropped",
            "recovery p99",
            "verdict",
        ],
    );
    let (leases, visits) = if quick { (2, 6) } else { (8, 30) };
    let expiry = Duration::from_millis(150);
    for faults in [0_u64, 10, 100] {
        let r = run_wire_ring(faults, leases, visits, expiry);
        let within = Duration::from_nanos(r.recovery.p99_ns) <= 2 * expiry;
        t.row(&[
            faults.to_string(),
            format!("{:.0} visits/s", r.goodput),
            r.retransmits.to_string(),
            r.reclaimed.to_string(),
            r.dup_dropped.to_string(),
            fmt_ns(r.recovery.p99_ns as f64),
            if r.complete && within {
                "zero lost, p99 ≤ 2× deadline ✔".to_string()
            } else {
                format!(
                    "FAILED ✘ (complete={}, p99 within bound={within})",
                    r.complete
                )
            },
        ]);
    }
    t
}

/// Outcome of one E17 measurement: a mostly-idle connection fleet held
/// open while a contended 8-client active subset runs, the fleet's
/// resident-memory cost, and the active subset's request p99.
#[derive(Debug, Clone, Copy)]
pub struct ConnScaling {
    /// Overall request p99 of the active subset, measured while the
    /// whole idle fleet stayed connected.
    pub p99_ns: u64,
    /// Requests per second of the active subset.
    pub throughput: f64,
    /// Connections held live at once: the idle fleet plus the active
    /// subset. Every idle connection is proven live by a stats
    /// round-trip both before and after the contended phase.
    pub sustained: usize,
    /// VmRSS growth from before the service existed to the fleet
    /// being fully held: the per-connection reactor state (for the
    /// retired threaded front it included the worker stack pinned per
    /// connection).
    pub rss_delta_bytes: u64,
}

/// The retired thread-per-connection front's row, as the task-engine
/// release's loadgen run recorded it in `BENCH_service.json`
/// (`connection_scaling.threaded`: 200 workers, one pinned per held
/// connection). That front no longer exists; E17 judges connection
/// count and resident memory against this row, and keeps it in its
/// table as history. Latency is judged against a yardstick measured in
/// the same run ([`ConnScalingRun::bare`]), since a recorded p99 says
/// more about the host on the day it was taken than about the front.
pub const THREADED_FRONT_RECORD: ConnScaling = ConnScaling {
    p99_ns: 203_624,
    throughput: 90_103.657,
    sustained: 200,
    rss_delta_bytes: 5_718_016,
};

/// Rounds of a full E17 run. Nine best-of trials on each side keep the
/// two p99 floors within the verdict's 10% allowance of each other on a
/// 2-vCPU host where a single trial's p99 moves by a quarter.
pub const E17_ROUNDS: usize = 9;

/// Both measurements of one E17 run, on one service.
#[derive(Debug, Clone, Copy)]
pub struct ConnScalingRun {
    /// The active subset alone, after warm-up and before the idle
    /// fleet connects: the latency yardstick. Its `rss_delta_bytes` is
    /// the warm service's growth, without the fleet.
    pub bare: ConnScaling,
    /// The active subset while the whole idle fleet is held.
    pub held: ConnScaling,
}

/// Current resident set from `/proc/self/status`, in bytes. Returns 0
/// when the proc filesystem is unavailable, which disables the RSS
/// comparison rather than failing the run.
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Sweeps the whole idle fleet with a stats round-trip per
/// connection: held connections answering the wire, not a backlog of
/// accepted-but-unserved sockets.
fn sweep_fleet(fleet: &mut [std::net::TcpStream], when: &str) {
    let stats_frame = encode_request(&Request::Stats);
    for conn in fleet.iter_mut() {
        write_frame(conn, &stats_frame).unwrap_or_else(|e| panic!("stats request {when}: {e}"));
        let body = read_frame(conn)
            .unwrap_or_else(|e| panic!("stats reply {when}: {e}"))
            .unwrap_or_else(|| panic!("connection closed {when}"));
        assert!(!body.is_empty(), "stats reply carries a body");
    }
}

/// The best active-subset trial so far: single-trial tail latency on a
/// shared machine carries scheduler-interference spikes that swamp the
/// difference being measured, so a run is judged at the floor of its
/// own distribution.
#[derive(Clone, Copy)]
struct BestTrial {
    p99_ns: u64,
    throughput: f64,
}

impl BestTrial {
    const NONE: Self = BestTrial {
        p99_ns: u64::MAX,
        throughput: 0.0,
    };

    fn add(&mut self, outcome: &LoadOutcome) {
        let mut all = outcome.open_latencies_ns.clone();
        all.extend_from_slice(&outcome.assign_latencies_ns);
        let p99_ns = LatencySummary::from_unsorted(&mut all).p99_ns;
        if p99_ns < self.p99_ns {
            *self = BestTrial {
                p99_ns,
                throughput: outcome.throughput(),
            };
        }
    }
}

/// One E17 run: spawn the service with `workers` engine workers, warm
/// it up with a discarded load pass, then run `rounds` rounds of the
/// contended 8-client active subset twice: once alone, and once *while
/// an idle fleet of `idle_conns` raw sockets is held* (no client-side
/// buffering, so the RSS delta is dominated by per-connection server
/// cost). Every fleet member is proven live by a stats round-trip
/// before and after its trial, and the fleet is closed again before
/// the next fleet-free trial, so both sides see the same host drift.
/// RSS is measured from before the service existed to the first fleet
/// being held, so everything the service spends on the fleet is in the
/// delta; what the first fleet-free trial grew (the protocol trace
/// keeps every event) is not.
pub fn run_connection_scaling(
    workers: usize,
    idle_conns: usize,
    requests: u64,
    rounds: usize,
) -> ConnScalingRun {
    let rss_before = vm_rss_bytes();
    let mut handle = TicketService::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn scaling service");
    let auth = handle.authenticator();
    auth.add_user("e17", "e17");
    let token = auth.login("e17", "e17").expect("login");
    let load = |requests: u64| {
        run_load(&LoadConfig {
            clients: 8,
            requests,
            addr: handle.addr(),
            token,
        })
        .expect("load phase")
    };
    // Warmup pass, discarded: absorbs first-touch page faults and
    // allocator growth so the measured phase pays no cold-start costs.
    load((requests / 4).max(1_000));
    let warm_delta = vm_rss_bytes().saturating_sub(rss_before);

    let (mut bare, mut held) = (BestTrial::NONE, BestTrial::NONE);
    let mut rss_delta = 0;
    for round in 0..rounds {
        // No connection but the subset's: the fleet of the previous
        // round has been closed and reaped.
        while handle.stats().open_connections > 0 {
            std::thread::yield_now();
        }
        bare.add(&load(requests));
        let rss_unloaded = vm_rss_bytes();
        let mut fleet: Vec<std::net::TcpStream> = (0..idle_conns)
            .map(|_| std::net::TcpStream::connect(handle.addr()).expect("idle connection"))
            .collect();
        sweep_fleet(&mut fleet, "while opening the fleet");
        if round == 0 {
            rss_delta = warm_delta + vm_rss_bytes().saturating_sub(rss_unloaded);
        }
        held.add(&load(requests));
        sweep_fleet(&mut fleet, "after the contended phase");
    }
    handle.shutdown();
    ConnScalingRun {
        bare: ConnScaling {
            p99_ns: bare.p99_ns,
            throughput: bare.throughput,
            sustained: 8,
            rss_delta_bytes: warm_delta,
        },
        held: ConnScaling {
            p99_ns: held.p99_ns,
            throughput: held.throughput,
            sustained: idle_conns + 8,
            rss_delta_bytes: rss_delta,
        },
    }
}

/// E17's acceptance flags: with its fleet held, the task front holds
/// ≥10× the threaded front's connection count at no more resident
/// memory (page-noise slack), and its active-subset p99 is no worse
/// than the same subset's without the fleet in the same run (10%
/// measurement-jitter allowance on a strict ≤ comparison). `threaded`
/// is normally [`THREADED_FRONT_RECORD`].
pub fn conn_scaling_meets(run: &ConnScalingRun, threaded: &ConnScaling) -> (bool, bool, bool) {
    let task = &run.held;
    let tenfold = task.sustained >= 10 * threaded.sustained;
    let equal_rss = task.rss_delta_bytes <= threaded.rss_delta_bytes + 256 * 1024;
    let p99_ok = task.p99_ns as f64 <= run.bare.p99_ns as f64 * 1.10;
    (tenfold, equal_rss, p99_ok)
}

/// E17 — connection scaling: the task front holds a mostly-idle fleet
/// of 2,040 connections on a fixed 16-worker engine while a contended
/// 8-client active subset runs, and must do it with ten times the
/// connections of the retired thread-per-connection front, at no more
/// resident memory, and with the active subset's p99 no worse than
/// without the fleet in the same run. The retired front pinned a pool
/// worker (and its stack) per held connection; its row is the recorded
/// [`THREADED_FRONT_RECORD`]. A quick run holds a smaller fleet and
/// proves liveness only.
pub fn e17_connection_scaling(quick: bool) -> Table {
    let mut t = Table::new(
        "E17 — connection scaling (idle fleet + contended active subset)",
        &[
            "front",
            "workers",
            "held conns",
            "RSS delta",
            "active p99",
            "throughput",
            "verdict",
        ],
    );
    let (idle, requests, rounds) = if quick {
        (240, 2_000, 2)
    } else {
        (2_040, 8_000, E17_ROUNDS)
    };
    let run = run_connection_scaling(16, idle, requests, rounds);
    let threaded = THREADED_FRONT_RECORD;
    let (tenfold, equal_rss, p99_ok) = conn_scaling_meets(&run, &threaded);
    let row = |front: &str, workers: usize, r: &ConnScaling, verdict: String| {
        vec![
            front.to_string(),
            workers.to_string(),
            r.sustained.to_string(),
            format!("{} KiB", r.rss_delta_bytes / 1024),
            fmt_ns(r.p99_ns as f64),
            fmt_ops(r.throughput),
            verdict,
        ]
    };
    t.row(&row(
        "threaded (recorded)",
        threaded.sustained,
        &threaded,
        "one pool worker pinned per held connection".into(),
    ));
    t.row(&row(
        "task, no fleet",
        16,
        &run.bare,
        "p99 yardstick (same run)".into(),
    ));
    t.row(&row(
        "task",
        16,
        &run.held,
        if quick {
            "fleet live (quick run: no verdict)".to_string()
        } else if tenfold && equal_rss && p99_ok {
            "≥10× conns, equal RSS, p99 no worse ✔".to_string()
        } else {
            format!("FAILED ✘ (tenfold={tenfold}, equal_rss={equal_rss}, p99_ok={p99_ok})")
        },
    ));
    t
}

/// Runs the named experiments ("e1".."e17", "v1" or "all") and prints
/// their tables.
pub fn run(names: &[String], quick: bool) {
    let wants = |n: &str| {
        names.is_empty()
            || names.iter().any(|x| x.eq_ignore_ascii_case(n))
            || names.iter().any(|x| x.eq_ignore_ascii_case("all"))
    };
    type Runner = fn(bool) -> Table;
    let runners: [(&str, Runner); 18] = [
        ("e1", e1_overhead),
        ("e2", e2_throughput),
        ("e3", e3_composition),
        ("e4", e4_bank),
        ("e5", e5_scheduling),
        ("e6", e6_wakeup),
        ("e7", e7_rollback),
        ("e8", e8_adaptability),
        ("e9", e9_sharding),
        ("e10", e10_fairness),
        ("e11", e11_containment),
        ("e12", e12_convoy),
        ("e13", e13_simulation),
        ("e14", e14_fast_path),
        ("e15", e15_reduction),
        ("e16", e16_wire_recovery),
        ("e17", e17_connection_scaling),
        ("v1", v1_verification),
    ];
    for (name, f) in runners {
        if wants(name) {
            eprintln!("running {name} ...");
            f(quick).print();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_produces_rows() {
        assert_eq!(e1_overhead(true).len(), 6);
    }

    #[test]
    fn e3_produces_rows() {
        assert_eq!(e3_composition(true).len(), 5);
    }

    #[test]
    fn e4_produces_rows() {
        assert_eq!(e4_bank(true).len(), 4);
    }

    #[test]
    fn e2_produces_rows() {
        assert_eq!(e2_throughput(true).len(), 9);
    }

    #[test]
    fn e5_produces_rows() {
        assert_eq!(e5_scheduling(true).len(), 3);
    }

    #[test]
    fn e6_produces_rows() {
        assert_eq!(e6_wakeup(true).len(), 4);
    }

    #[test]
    fn e14_produces_rows() {
        assert_eq!(e14_fast_path(true).len(), 4);
    }

    #[test]
    fn e13_explores_and_round_trips() {
        let md = e13_simulation(true).to_markdown();
        assert!(md.contains("counts stable across runs ✔"), "{md}");
        assert!(md.contains("byte-identical"), "{md}");
    }

    #[test]
    fn e15_reduces_with_agreement() {
        let md = e15_reduction(true).to_markdown();
        assert!(md.contains("fewer schedules ✔"), "{md}");
        assert!(!md.contains("DIVERGED"), "{md}");
    }

    #[test]
    fn e16_recovers_on_the_wire() {
        let md = e16_wire_recovery(true).to_markdown();
        assert!(
            md.contains("zero lost, p99 ≤ 2× deadline ✔"),
            "every fault rate must pass:\n{md}"
        );
        assert!(!md.contains("FAILED"), "{md}");
    }

    #[test]
    fn e17_holds_the_fleet_live() {
        // Verdict flags are asserted by the release loadgen run, where
        // latency comparisons are meaningful; here the liveness pass
        // itself (every fleet connection answers stats) is the test.
        // Two rows are measured; the third is the recorded threaded row.
        let table = e17_connection_scaling(true);
        assert_eq!(table.len(), 3);
        let md = table.to_markdown();
        assert!(md.contains("threaded (recorded)"), "{md}");
        assert!(md.contains("p99 yardstick (same run)"), "{md}");
        assert!(md.contains("fleet live"), "{md}");
    }

    #[test]
    fn e17_verdict_against_the_same_run_and_the_recorded_row() {
        let held = ConnScaling {
            p99_ns: 198_664,
            throughput: 76_254.785,
            sustained: 2_048,
            rss_delta_bytes: 2_764_800,
        };
        let bare = ConnScaling {
            p99_ns: 190_000,
            sustained: 8,
            ..held
        };
        let run = ConnScalingRun { bare, held };
        assert_eq!(
            conn_scaling_meets(&run, &THREADED_FRONT_RECORD),
            (true, true, true)
        );
        let small = ConnScalingRun {
            held: ConnScaling {
                sustained: 1_999,
                ..held
            },
            ..run
        };
        assert!(!conn_scaling_meets(&small, &THREADED_FRONT_RECORD).0);
        // The p99 leg reads the same-run yardstick, not the record: a
        // slow host day slows both measurements alike.
        let slow_day = ConnScalingRun {
            bare: ConnScaling {
                p99_ns: 260_000,
                ..bare
            },
            held: ConnScaling {
                p99_ns: 270_000,
                ..held
            },
        };
        assert!(conn_scaling_meets(&slow_day, &THREADED_FRONT_RECORD).2);
        let fleet_hurts = ConnScalingRun {
            held: ConnScaling {
                p99_ns: 240_000,
                ..held
            },
            ..run
        };
        assert!(!conn_scaling_meets(&fleet_hurts, &THREADED_FRONT_RECORD).2);
    }

    #[test]
    fn v1_finds_the_anomaly() {
        let md = v1_verification(true).to_markdown();
        assert!(md.contains("deadlock-free"));
        assert!(md.contains("DEADLOCK"), "{md}");
    }

    #[test]
    fn e7_liveness_depends_on_rollback() {
        let table = e7_rollback(true);
        let md = table.to_markdown();
        assert!(md.contains("b ran while a waited ✔"), "rollback row:\n{md}");
        assert!(
            md.contains("b starved (pool leak) ✘"),
            "no-rollback row:\n{md}"
        );
    }

    #[test]
    fn e8_produces_rows() {
        assert_eq!(e8_adaptability(true).len(), 2);
    }

    #[test]
    fn e9_produces_rows() {
        assert_eq!(e9_sharding(true).len(), 12);
    }

    #[test]
    fn e10_produces_rows() {
        assert_eq!(e10_fairness(true).len(), 4);
    }

    #[test]
    fn e11_produces_rows() {
        assert_eq!(e11_containment(true).len(), 6);
    }

    #[test]
    fn e12_produces_rows() {
        assert_eq!(e12_convoy(true).len(), 2);
    }

    #[test]
    fn convoy_runner_counts_batched_grants_only_when_enabled() {
        let (s_off, served_off, batched_off) = run_convoy(false, 4, 200, 4);
        assert_eq!(s_off.count, 800, "{s_off:?}");
        assert_eq!(served_off + batched_off, served_off, "no extensions off");
        let (s_on, served_on, batched_on) = run_convoy(true, 4, 200, 4);
        assert_eq!(s_on.count, 800, "{s_on:?}");
        assert!(batched_on <= served_on, "{batched_on} vs {served_on}");
    }

    #[test]
    fn chaos_runner_accounts_for_every_panic() {
        std::panic::set_hook(Box::new(|_| {}));
        let (s, panics) = run_chaos(
            FairnessPolicy::Barging,
            PanicPolicy::AbortInvocation,
            0.2,
            2,
            200,
        );
        let _ = std::panic::take_hook();
        assert_eq!(s.count, 400, "{s:?}");
        assert!(panics > 0, "a 20% rate over 400+ evaluations must fire");
    }

    #[test]
    fn fairness_runner_measures_every_activation() {
        for policy in [FairnessPolicy::Barging, FairnessPolicy::Fifo] {
            let s = run_fairness_tail(policy, 2, 50, false);
            assert_eq!(s.count, 100, "{s:?}");
            assert!(s.p99_ns >= s.p50_ns, "{s:?}");
        }
    }

    #[test]
    fn sharding_runner_counts_every_activation() {
        for coordination in [Coordination::Sharded, Coordination::GlobalLock] {
            let ops = run_moderator_shard(coordination, 4, 500, Duration::ZERO, false);
            assert!(ops > 0.0);
        }
    }

    #[test]
    fn sharding_runner_respects_aspect_work() {
        let ops = run_moderator_shard(
            Coordination::Sharded,
            2,
            5,
            Duration::from_micros(100),
            false,
        );
        // 5 ops/thread at >=100 µs each cannot exceed 10 Kop/s per cell.
        assert!(ops > 0.0 && ops < 50_000.0, "{ops}");
    }

    #[test]
    fn sharding_runner_unwinds_noisy_neighbors() {
        // Both modes must park 4 background callers, run the measured
        // loop, then release every parked caller before returning.
        for coordination in [Coordination::Sharded, Coordination::GlobalLock] {
            let ops = run_moderator_shard(coordination, 2, 10, Duration::ZERO, true);
            assert!(ops > 0.0);
        }
    }
}
