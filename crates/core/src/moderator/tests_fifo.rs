//! FIFO admission tests: ticketed grant order, batched sweeps, and
//! the engine abstraction (a custom [`GrantSource`] probe proving the
//! protocol parks and wakes only through the engine).

use super::*;
use crate::aspect::FnAspect;
use crate::context::InvocationContext;
use crate::verdict::Verdict;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn ctx_for(moderator: &AspectModerator, m: &MethodHandle) -> InvocationContext {
    InvocationContext::new(m.id().clone(), moderator.next_invocation())
}

/// A token-gated method plus a `tick` method whose postaction mints
/// one token and whose post-activation notifies the gated queue —
/// the harness for the FIFO tests below.
fn gated(m: &AspectModerator, tokens: &Arc<AtomicU64>) -> (MethodHandle, MethodHandle) {
    let open = m.declare_method(MethodId::new("open"));
    let tick = m.declare_method(MethodId::new("tick"));
    {
        let tokens = Arc::clone(tokens);
        m.register(
            &open,
            Concern::synchronization(),
            Box::new(FnAspect::new("token-gate").on_precondition(move |_| {
                if tokens.load(AtomicOrdering::SeqCst) > 0 {
                    tokens.fetch_sub(1, AtomicOrdering::SeqCst);
                    Verdict::Resume
                } else {
                    Verdict::Block
                }
            })),
        )
        .unwrap();
    }
    {
        let tokens = Arc::clone(tokens);
        m.register(
            &tick,
            Concern::new("mint"),
            Box::new(FnAspect::new("mint").on_postaction(move |_| {
                tokens.fetch_add(1, AtomicOrdering::SeqCst);
            })),
        )
        .unwrap();
    }
    m.wire_wakes(&tick, std::slice::from_ref(&open));
    m.wire_wakes(&open, &[]);
    (open, tick)
}

fn fifo_grant_order(wake_mode: WakeMode) {
    let m = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .wake_mode(wake_mode)
            .build(),
    );
    let tokens = Arc::new(AtomicU64::new(0));
    let (open, tick) = gated(&m, &tokens);
    let order = Arc::new(Mutex::new(Vec::new()));
    let waiters = 4;
    let mut handles = Vec::new();
    for i in 0..waiters {
        let mc = Arc::clone(&m);
        let open = open.clone();
        let order = Arc::clone(&order);
        handles.push(thread::spawn(move || {
            let mut ctx = ctx_for(&mc, &open);
            mc.preactivation(&open, &mut ctx).unwrap();
            order.lock().push(i);
            mc.postactivation(&open, &mut ctx);
        }));
        // Serialize arrival so park order is [0, 1, 2, 3].
        while m.stats().blocks < i + 1 {
            thread::yield_now();
        }
    }
    for served in 1..=waiters {
        let mut ctx = ctx_for(&m, &tick);
        m.preactivation(&tick, &mut ctx).unwrap();
        m.postactivation(&tick, &mut ctx);
        while (order.lock().len() as u64) < served {
            thread::yield_now();
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*order.lock(), vec![0, 1, 2, 3], "grant order != park order");
    let s = m.stats();
    assert_eq!(s.tickets_issued, waiters);
    assert_eq!(s.tickets_served, waiters);
    assert_eq!(s.max_queue_depth, waiters);
    assert_eq!(s.wait_hist.count(), waiters);
}

#[test]
fn fifo_serves_waiters_in_park_order_notify_one() {
    fifo_grant_order(WakeMode::NotifyOne);
}

#[test]
fn fifo_serves_waiters_in_park_order_notify_all() {
    fifo_grant_order(WakeMode::NotifyAll);
}

#[test]
fn fifo_newcomer_cannot_overtake_parked_waiter() {
    let trace = crate::trace::MemoryTrace::shared();
    let m = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .trace(trace.clone() as Arc<dyn crate::trace::TraceSink>)
            .build(),
    );
    let tokens = Arc::new(AtomicU64::new(0));
    let (open, tick) = gated(&m, &tokens);
    // Invocation number → caller. Admission order is read from the
    // trace's `ActivationResumed` events, which are emitted under the
    // cell lock: a caller descheduled between its admission and any
    // bookkeeping of its own cannot reorder them.
    let callers = Arc::new(Mutex::new(Vec::new()));
    let spawn_caller = |tag: &'static str| {
        let m = Arc::clone(&m);
        let open = open.clone();
        let callers = Arc::clone(&callers);
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &open);
            callers.lock().push((ctx.invocation(), tag));
            m.preactivation(&open, &mut ctx).unwrap();
            m.postactivation(&open, &mut ctx);
        })
    };
    let admitted = || -> Vec<&'static str> {
        let callers = callers.lock();
        trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::ActivationResumed && e.method == *open.id())
            .map(|e| {
                callers
                    .iter()
                    .find(|(inv, _)| *inv == e.invocation)
                    .expect("a caller's invocation")
                    .1
            })
            .collect()
    };
    let early = spawn_caller("early");
    while m.stats().blocks == 0 {
        thread::yield_now();
    }
    // A token appears, but no notification is sent: the parked
    // waiter owns the queue head. A newcomer whose chain *would*
    // resume must queue behind it instead of taking the token.
    tokens.store(1, AtomicOrdering::SeqCst);
    let late = spawn_caller("late");
    while m.stats().blocks < 2 {
        thread::yield_now();
    }
    assert!(admitted().is_empty(), "a caller ran before any grant");
    // Two ticks: each wakes the head and mints one more token.
    for _ in 0..2 {
        let mut ctx = ctx_for(&m, &tick);
        m.preactivation(&tick, &mut ctx).unwrap();
        m.postactivation(&tick, &mut ctx);
    }
    early.join().unwrap();
    late.join().unwrap();
    assert_eq!(admitted(), vec!["early", "late"]);
}

#[test]
fn fifo_try_preactivation_respects_queue() {
    let m = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .build(),
    );
    let tokens = Arc::new(AtomicU64::new(0));
    let (open, _tick) = gated(&m, &tokens);
    let waiter = {
        let m = Arc::clone(&m);
        let open = open.clone();
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &open);
            m.preactivation_timeout(&open, &mut ctx, Duration::from_secs(5))
        })
    };
    while m.stats().blocks == 0 {
        thread::yield_now();
    }
    tokens.store(1, AtomicOrdering::SeqCst);
    // The chain would resume, but an earlier ticket is parked:
    // try_preactivation must refuse rather than overtake.
    let mut ctx = ctx_for(&m, &open);
    assert!(!m.try_preactivation(&open, &mut ctx).unwrap());
    assert_eq!(m.stats().would_blocks, 1);
    assert_eq!(tokens.load(AtomicOrdering::SeqCst), 1, "token untouched");
    // Unblock the waiter so the test exits cleanly.
    m.deregister(&open, &Concern::synchronization()).unwrap();
    waiter.join().unwrap().unwrap();
}

#[test]
fn fifo_timed_out_ticket_does_not_strand_successor() {
    let m = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .wake_mode(WakeMode::NotifyOne)
            .build(),
    );
    let tokens = Arc::new(AtomicU64::new(0));
    let (open, tick) = gated(&m, &tokens);
    // Head waiter gives up quickly...
    let head = {
        let m = Arc::clone(&m);
        let open = open.clone();
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &open);
            m.preactivation_timeout(&open, &mut ctx, Duration::from_millis(30))
        })
    };
    while m.stats().blocks == 0 {
        thread::yield_now();
    }
    // ...while a successor waits indefinitely behind it.
    let successor = {
        let m = Arc::clone(&m);
        let open = open.clone();
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &open);
            m.preactivation(&open, &mut ctx).unwrap();
            m.postactivation(&open, &mut ctx);
        })
    };
    while m.stats().blocks < 2 {
        thread::yield_now();
    }
    let err = head.join().unwrap().unwrap_err();
    assert!(err.is_timeout());
    // One grant must now reach the successor, not the ghost of the
    // cancelled head ticket.
    let mut ctx = ctx_for(&m, &tick);
    m.preactivation(&tick, &mut ctx).unwrap();
    m.postactivation(&tick, &mut ctx);
    successor.join().unwrap();
    let s = m.stats();
    assert_eq!(s.timeouts, 1);
    assert_eq!(s.tickets_issued, 2);
    assert_eq!(s.tickets_served, 1);
}

#[test]
fn fifo_pipeline_stays_live() {
    // The capacity-1 producer/consumer hammer from
    // `notify_one_pipeline_completes`, under Fifo in both wake
    // modes: fairness must not cost liveness.
    for wake_mode in [WakeMode::NotifyOne, WakeMode::NotifyAll] {
        let m = Arc::new(
            AspectModerator::builder()
                .fairness(FairnessPolicy::Fifo)
                .wake_mode(wake_mode)
                .build(),
        );
        let put = m.declare_method(MethodId::new("put"));
        let take = m.declare_method(MethodId::new("take"));
        m.wire_wakes(&put, std::slice::from_ref(&take));
        m.wire_wakes(&take, std::slice::from_ref(&put));
        let items = Arc::new(Mutex::new(0_u32));
        {
            let items = Arc::clone(&items);
            m.register(
                &put,
                Concern::synchronization(),
                Box::new(FnAspect::new("not-full").on_precondition(move |_| {
                    let mut i = items.lock();
                    if *i < 1 {
                        *i += 1;
                        Verdict::Resume
                    } else {
                        Verdict::Block
                    }
                })),
            )
            .unwrap();
        }
        {
            let items = Arc::clone(&items);
            m.register(
                &take,
                Concern::synchronization(),
                Box::new(FnAspect::new("not-empty").on_precondition(move |_| {
                    let mut i = items.lock();
                    if *i > 0 {
                        *i -= 1;
                        Verdict::Resume
                    } else {
                        Verdict::Block
                    }
                })),
            )
            .unwrap();
        }
        let rounds = 500;
        let run = |method: MethodHandle, m: Arc<AspectModerator>| {
            thread::spawn(move || {
                for _ in 0..rounds {
                    let mut ctx = ctx_for(&m, &method);
                    m.preactivation(&method, &mut ctx).unwrap();
                    m.postactivation(&method, &mut ctx);
                }
            })
        };
        let threads = [
            run(put.clone(), Arc::clone(&m)),
            run(put, Arc::clone(&m)),
            run(take.clone(), Arc::clone(&m)),
            run(take, Arc::clone(&m)),
        ];
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*items.lock(), 0);
        assert_eq!(m.stats().resumes, rounds * 4);
    }
}

#[test]
fn concurrent_producers_consumers_respect_capacity_one() {
    // A tiny end-to-end bounded-buffer built directly on the
    // moderator: capacity 1, shared counters in the aspects.
    struct Slots {
        used: u64,
    }
    let slots = Arc::new(Mutex::new(Slots { used: 0 }));
    let m = Arc::new(AspectModerator::new());
    let put = m.declare_method(MethodId::new("put"));
    let take = m.declare_method(MethodId::new("take"));
    {
        let s = Arc::clone(&slots);
        m.register(
            &put,
            Concern::synchronization(),
            Box::new(
                FnAspect::new("not-full")
                    .on_precondition({
                        let s = Arc::clone(&s);
                        move |_| {
                            let mut s = s.lock();
                            if s.used < 1 {
                                s.used += 1; // reserve
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        }
                    })
                    .on_postaction(|_| {}),
            ),
        )
        .unwrap();
    }
    {
        let s = Arc::clone(&slots);
        m.register(
            &take,
            Concern::synchronization(),
            Box::new(FnAspect::new("not-empty").on_precondition(move |_| {
                let mut s = s.lock();
                if s.used > 0 {
                    s.used -= 1; // release
                    Verdict::Resume
                } else {
                    Verdict::Block
                }
            })),
        )
        .unwrap();
    }
    let rounds = 200;
    let producer = {
        let m = Arc::clone(&m);
        let put = put.clone();
        thread::spawn(move || {
            for _ in 0..rounds {
                let mut ctx = ctx_for(&m, &put);
                m.preactivation(&put, &mut ctx).unwrap();
                m.postactivation(&put, &mut ctx);
            }
        })
    };
    let consumer = {
        let m = Arc::clone(&m);
        let take = take.clone();
        thread::spawn(move || {
            for _ in 0..rounds {
                let mut ctx = ctx_for(&m, &take);
                m.preactivation(&take, &mut ctx).unwrap();
                m.postactivation(&take, &mut ctx);
            }
        })
    };
    producer.join().unwrap();
    consumer.join().unwrap();
    assert_eq!(slots.lock().used, 0);
    let s = m.stats();
    assert_eq!(s.resumes, rounds * 2);
}

/// A [`Waiter`] wrapper that counts parks and wakes, proving the
/// protocol runs entirely against the engine abstraction.
struct ProbeWaiter {
    inner: amf_concurrency::CondvarWaiter,
    parks: Arc<AtomicU64>,
    wakes: Arc<AtomicU64>,
}

impl amf_concurrency::Waiter<CellState> for ProbeWaiter {
    fn park(&self, guard: &mut parking_lot::MutexGuard<'_, CellState>) {
        self.parks.fetch_add(1, AtomicOrdering::SeqCst);
        amf_concurrency::Waiter::park(&self.inner, guard);
    }

    fn park_until(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, CellState>,
        deadline: std::time::Instant,
    ) -> bool {
        self.parks.fetch_add(1, AtomicOrdering::SeqCst);
        amf_concurrency::Waiter::park_until(&self.inner, guard, deadline)
    }

    fn wake_one(&self) {
        self.wakes.fetch_add(1, AtomicOrdering::SeqCst);
        amf_concurrency::Waiter::<CellState>::wake_one(&self.inner);
    }

    fn wake_all(&self) {
        self.wakes.fetch_add(1, AtomicOrdering::SeqCst);
        amf_concurrency::Waiter::<CellState>::wake_all(&self.inner);
    }
}

struct ProbeEngine {
    parks: Arc<AtomicU64>,
    wakes: Arc<AtomicU64>,
}

impl amf_concurrency::GrantSource<CellState> for ProbeEngine {
    fn waiter(&self) -> Arc<dyn amf_concurrency::Waiter<CellState>> {
        Arc::new(ProbeWaiter {
            inner: amf_concurrency::CondvarWaiter::default(),
            parks: Arc::clone(&self.parks),
            wakes: Arc::clone(&self.wakes),
        })
    }
}

#[test]
fn custom_engine_carries_all_parking() {
    // A blocked-then-released invocation driven through a probe engine:
    // every park and wake must flow through the injected waitpoints,
    // demonstrating the moderator names no parking primitive itself.
    let parks = Arc::new(AtomicU64::new(0));
    let wakes = Arc::new(AtomicU64::new(0));
    let m = Arc::new(
        AspectModerator::builder()
            .engine(Arc::new(ProbeEngine {
                parks: Arc::clone(&parks),
                wakes: Arc::clone(&wakes),
            }))
            .build(),
    );
    let gate = m.declare_method(MethodId::new("gate"));
    let open = Arc::new(AtomicU64::new(0));
    let reader = Arc::clone(&open);
    m.register(
        &gate,
        Concern::synchronization(),
        Box::new(FnAspect::new("gate").on_precondition(move |_| {
            Verdict::resume_if(reader.load(AtomicOrdering::SeqCst) == 1)
        })),
    )
    .unwrap();

    let waiter = Arc::clone(&m);
    let gate2 = gate.clone();
    let t = thread::spawn(move || {
        let mut ctx = ctx_for(&waiter, &gate2);
        waiter.preactivation(&gate2, &mut ctx).unwrap();
    });
    // `blocks` is counted before the caller reaches its waitpoint, so
    // wait (bounded) for the park itself rather than for the block.
    let deadline = Instant::now() + Duration::from_secs(10);
    while parks.load(AtomicOrdering::SeqCst) == 0 && Instant::now() < deadline {
        thread::yield_now();
    }
    assert!(
        parks.load(AtomicOrdering::SeqCst) >= 1,
        "blocked caller parked via the engine"
    );
    open.store(1, AtomicOrdering::SeqCst);
    let mut ctx = ctx_for(&m, &gate);
    // A postactivation (no matching preactivation needed for the wake
    // path) notifies the gate's waiters through the probe waitpoint.
    m.postactivation(&gate, &mut ctx);
    t.join().unwrap();
    assert!(
        wakes.load(AtomicOrdering::SeqCst) >= 1,
        "wakeup flowed through the engine"
    );
}

#[test]
fn batched_grants_drain_freed_capacity_in_one_sweep() {
    // Capacity-3 gate, NotifyOne, Fifo: three waiters park while the
    // capacity is taken; refilling frees 3 at once but sends only ONE
    // signal. With batching (default) the front-3 prefix drains by
    // grant extension: batched_grants picks up the admissions beyond
    // the signaled head.
    let m = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .wake_mode(WakeMode::NotifyOne)
            .build(),
    );
    let take = m.declare_method(MethodId::new("take"));
    let refill = m.declare_method(MethodId::new("refill"));
    m.wire_wakes(&refill, std::slice::from_ref(&take));
    m.wire_wakes(&take, &[]);

    let capacity = Arc::new(Mutex::new(0u32));
    let cap_pre = Arc::clone(&capacity);
    m.register(
        &take,
        Concern::synchronization(),
        Box::new(FnAspect::new("cap").on_precondition(move |_| {
            let mut c = cap_pre.lock();
            if *c > 0 {
                *c -= 1;
                Verdict::Resume
            } else {
                Verdict::Block
            }
        })),
    )
    .unwrap();
    let cap_post = Arc::clone(&capacity);
    m.register(
        &refill,
        Concern::synchronization(),
        Box::new(FnAspect::new("refill").on_postaction(move |_| {
            *cap_post.lock() = 3;
        })),
    )
    .unwrap();

    let mut handles = Vec::new();
    for _ in 0..3 {
        let mc = Arc::clone(&m);
        let tk = take.clone();
        handles.push(thread::spawn(move || {
            let mut ctx = ctx_for(&mc, &tk);
            mc.preactivation(&tk, &mut ctx).unwrap();
            mc.postactivation(&tk, &mut ctx);
        }));
    }
    while m.method_stats(&take).tickets_issued < 3 {
        thread::yield_now();
    }
    // One refill postactivation = one NotifyOne signal on `take`.
    let mut ctx = ctx_for(&m, &refill);
    m.preactivation(&refill, &mut ctx).unwrap();
    m.postactivation(&refill, &mut ctx);
    for h in handles {
        h.join().unwrap();
    }
    let stats = m.method_stats(&take);
    assert_eq!(stats.tickets_served, 3, "all three waiters admitted");
    // The head is admitted by the signal; its successors are admitted
    // either by grant extension (batched) or by the head's own
    // postactivation self-wake, depending on which lands first — so at
    // least one of the two follow-on admissions must be an extension.
    assert!(
        stats.batched_grants >= 1,
        "an admission beyond the signaled head came from grant extension, got {}",
        stats.batched_grants
    );
}

#[test]
fn grant_batching_disabled_uses_one_at_a_time_handoffs() {
    // Same capacity-3 scenario with batching off: the single NotifyOne
    // signal admits only the head; the two successors are then admitted
    // by the head's own postactivation self-wakes (one at a time), and
    // batched_grants stays 0.
    let m = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .wake_mode(WakeMode::NotifyOne)
            .grant_batching(false)
            .build(),
    );
    let take = m.declare_method(MethodId::new("take"));
    let refill = m.declare_method(MethodId::new("refill"));
    m.wire_wakes(&refill, std::slice::from_ref(&take));
    m.wire_wakes(&take, &[]);

    let capacity = Arc::new(Mutex::new(0u32));
    let cap_pre = Arc::clone(&capacity);
    m.register(
        &take,
        Concern::synchronization(),
        Box::new(FnAspect::new("cap").on_precondition(move |_| {
            let mut c = cap_pre.lock();
            if *c > 0 {
                *c -= 1;
                Verdict::Resume
            } else {
                Verdict::Block
            }
        })),
    )
    .unwrap();
    let cap_post = Arc::clone(&capacity);
    m.register(
        &refill,
        Concern::synchronization(),
        Box::new(FnAspect::new("refill").on_postaction(move |_| {
            *cap_post.lock() = 3;
        })),
    )
    .unwrap();

    let mut handles = Vec::new();
    for _ in 0..3 {
        let mc = Arc::clone(&m);
        let tk = take.clone();
        handles.push(thread::spawn(move || {
            let mut ctx = ctx_for(&mc, &tk);
            mc.preactivation(&tk, &mut ctx).unwrap();
            mc.postactivation(&tk, &mut ctx);
        }));
    }
    while m.method_stats(&take).tickets_issued < 3 {
        thread::yield_now();
    }
    let mut ctx = ctx_for(&m, &refill);
    m.preactivation(&refill, &mut ctx).unwrap();
    m.postactivation(&refill, &mut ctx);
    for h in handles {
        h.join().unwrap();
    }
    let stats = m.method_stats(&take);
    assert_eq!(stats.tickets_served, 3);
    assert_eq!(stats.batched_grants, 0, "no extension with batching off");
}
