//! Unit tests for the moderator protocol, exercised through the
//! public facade. FIFO admission, batched grants, and the engine
//! probe live in the sibling `tests_fifo` module.

use super::*;
use crate::aspect::{FnAspect, NoopAspect, ReleaseCause};
use crate::context::InvocationContext;
use crate::error::{AbortError, RegistrationError};
use crate::trace::{EventKind, MemoryTrace};
use crate::verdict::Verdict;
use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn ctx_for(moderator: &AspectModerator, m: &MethodHandle) -> InvocationContext {
    InvocationContext::new(m.id().clone(), moderator.next_invocation())
}

#[test]
fn declare_method_is_idempotent() {
    let m = AspectModerator::new();
    let a = m.declare_method(MethodId::new("open"));
    let b = m.declare_method(MethodId::new("open"));
    assert_eq!(a, b);
    assert_eq!(m.methods(), vec![MethodId::new("open")]);
}

#[test]
fn method_lookup() {
    let m = AspectModerator::new();
    assert!(m.method(&MethodId::new("open")).is_none());
    let h = m.declare_method(MethodId::new("open"));
    assert_eq!(m.method(&MethodId::new("open")), Some(h));
}

#[test]
fn empty_chain_resumes_immediately() {
    let m = AspectModerator::new();
    let open = m.declare_method(MethodId::new("open"));
    let mut ctx = ctx_for(&m, &open);
    m.preactivation(&open, &mut ctx).unwrap();
    m.postactivation(&open, &mut ctx);
    let s = m.stats();
    assert_eq!(s.preactivations, 1);
    assert_eq!(s.resumes, 1);
    assert_eq!(s.postactivations, 1);
    assert_eq!(s.blocks, 0);
}

#[test]
fn abort_surfaces_concern_and_reason() {
    let m = AspectModerator::new();
    let open = m.declare_method(MethodId::new("open"));
    m.register(
        &open,
        Concern::authentication(),
        Box::new(FnAspect::new("deny").on_precondition(|_| Verdict::abort("no token"))),
    )
    .unwrap();
    let mut ctx = ctx_for(&m, &open);
    let err = m.preactivation(&open, &mut ctx).unwrap_err();
    match err {
        AbortError::Aspect {
            method,
            concern,
            reason,
        } => {
            assert_eq!(method.as_str(), "open");
            assert_eq!(concern, Concern::authentication());
            assert_eq!(reason.message(), "no token");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(m.stats().aborts, 1);
}

#[test]
fn blocked_caller_resumes_after_postactivation() {
    let m = Arc::new(AspectModerator::new());
    let open = m.declare_method(MethodId::new("open"));
    let assign = m.declare_method(MethodId::new("assign"));
    // `assign` blocks until one `open` has completed (item count > 0).
    let items = Arc::new(AtomicU64::new(0));
    {
        let items = Arc::clone(&items);
        m.register(
            &assign,
            Concern::synchronization(),
            Box::new(FnAspect::new("not-empty").on_precondition(move |_| {
                Verdict::resume_if(items.load(AtomicOrdering::SeqCst) > 0)
            })),
        )
        .unwrap();
    }
    let consumer = {
        let m = Arc::clone(&m);
        let assign = assign.clone();
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &assign);
            m.preactivation(&assign, &mut ctx).unwrap();
            m.postactivation(&assign, &mut ctx);
        })
    };
    while m.stats().blocks == 0 {
        thread::yield_now();
    }
    // Produce: run open's (empty) activation; its postactivation
    // notifies all queues.
    items.store(1, AtomicOrdering::SeqCst);
    let mut ctx = ctx_for(&m, &open);
    m.preactivation(&open, &mut ctx).unwrap();
    m.postactivation(&open, &mut ctx);
    consumer.join().unwrap();
    let s = m.stats();
    assert!(s.blocks >= 1);
    assert!(s.wakeups >= 1);
    assert_eq!(s.resumes, 2);
}

/// Under `NotifyOne` a post-activation wakes one waiter. If that waiter
/// aborts (say its token expired while it was parked) after resuming an
/// outer aspect, it hands the wake on, so the waiter behind it still
/// gets the item it was waiting for.
#[test]
fn notify_one_woken_waiter_that_aborts_hands_the_wake_on() {
    let m = Arc::new(
        AspectModerator::builder()
            .wake_mode(WakeMode::NotifyOne)
            .build(),
    );
    let open = m.declare_method(MethodId::new("open"));
    let tick = m.declare_method(MethodId::new("tick"));
    let gate = Arc::new(AtomicU64::new(0));
    let bomb = Arc::new(AtomicU64::new(1));
    {
        let gate = Arc::clone(&gate);
        m.register(
            &open,
            Concern::synchronization(),
            Box::new(FnAspect::new("gate").on_precondition(move |_| {
                if gate.load(AtomicOrdering::SeqCst) > 0 {
                    Verdict::Resume
                } else {
                    Verdict::Block
                }
            })),
        )
        .unwrap();
    }
    {
        // Vetoes the first evaluation after the gate opens: the woken
        // waiter's.
        let (gate, bomb) = (Arc::clone(&gate), Arc::clone(&bomb));
        m.register(
            &open,
            Concern::new("veto"),
            Box::new(FnAspect::new("veto").on_precondition(move |_| {
                if gate.load(AtomicOrdering::SeqCst) > 0 && bomb.swap(0, AtomicOrdering::SeqCst) > 0
                {
                    Verdict::abort("token expired")
                } else {
                    Verdict::Resume
                }
            })),
        )
        .unwrap();
    }
    // Evaluated first, so the veto's abort rolls it back.
    m.register(&open, Concern::metrics(), Box::new(FnAspect::new("outer")))
        .unwrap();
    {
        let gate = Arc::clone(&gate);
        m.register(
            &tick,
            Concern::new("open-gate"),
            Box::new(FnAspect::new("open-gate").on_postaction(move |_| {
                gate.store(1, AtomicOrdering::SeqCst);
            })),
        )
        .unwrap();
    }
    m.wire_wakes(&tick, std::slice::from_ref(&open));
    m.wire_wakes(&open, &[]);
    let caller = || {
        let (m, open) = (Arc::clone(&m), open.clone());
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &open);
            m.preactivation_timeout(&open, &mut ctx, Duration::from_secs(2))
                .map(|()| m.postactivation(&open, &mut ctx))
        })
    };
    let first = caller();
    while m.stats().blocks == 0 {
        thread::yield_now();
    }
    let second = caller();
    while m.stats().blocks < 2 {
        thread::yield_now();
    }
    // One post-activation, one wake.
    let mut ctx = ctx_for(&m, &tick);
    m.preactivation(&tick, &mut ctx).unwrap();
    m.postactivation(&tick, &mut ctx);
    let outcomes = [first.join().unwrap(), second.join().unwrap()];
    let vetoed = outcomes.iter().filter(|o| o.is_err()).count();
    assert_eq!(vetoed, 1, "one waiter vetoed, one served: {outcomes:?}");
    let s = m.stats();
    assert_eq!((s.aborts, s.timeouts, s.resumes), (1, 0, 2));
}

#[test]
fn timeout_aborts_blocked_caller() {
    let m = AspectModerator::new();
    let open = m.declare_method(MethodId::new("open"));
    m.register(
        &open,
        Concern::synchronization(),
        Box::new(FnAspect::new("never").on_precondition(|_| Verdict::Block)),
    )
    .unwrap();
    let mut ctx = ctx_for(&m, &open);
    let err = m
        .preactivation_timeout(&open, &mut ctx, Duration::from_millis(20))
        .unwrap_err();
    assert!(err.is_timeout());
    assert_eq!(m.stats().timeouts, 1);
}

#[test]
fn nested_ordering_runs_newest_pre_first_and_post_last() {
    let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
    let m = AspectModerator::new(); // Nested default
    let open = m.declare_method(MethodId::new("open"));
    for (name, pre_tag, post_tag) in [
        ("sync", "sync-pre", "sync-post"),
        ("auth", "auth-pre", "auth-post"),
    ] {
        let l1 = Arc::clone(&log);
        let l2 = Arc::clone(&log);
        m.register(
            &open,
            Concern::new(name),
            Box::new(
                FnAspect::new(name)
                    .on_precondition(move |_| {
                        l1.lock().push(pre_tag);
                        Verdict::Resume
                    })
                    .on_postaction(move |_| l2.lock().push(post_tag)),
            ),
        )
        .unwrap();
    }
    let mut ctx = ctx_for(&m, &open);
    m.preactivation(&open, &mut ctx).unwrap();
    m.postactivation(&open, &mut ctx);
    // auth registered last => wraps sync (paper Figure 14).
    assert_eq!(
        *log.lock(),
        vec!["auth-pre", "sync-pre", "sync-post", "auth-post"]
    );
}

#[test]
fn declaration_ordering_runs_oldest_pre_first() {
    let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
    let m = AspectModerator::builder()
        .ordering(OrderingPolicy::Declaration)
        .build();
    let open = m.declare_method(MethodId::new("open"));
    for name in ["first", "second"] {
        let l = Arc::clone(&log);
        m.register(
            &open,
            Concern::new(name),
            Box::new(FnAspect::new(name).on_precondition(move |_| {
                l.lock().push(name);
                Verdict::Resume
            })),
        )
        .unwrap();
    }
    let mut ctx = ctx_for(&m, &open);
    m.preactivation(&open, &mut ctx).unwrap();
    assert_eq!(*log.lock(), vec!["first", "second"]);
}

#[test]
fn declaration_ordering_posts_newest_first() {
    let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
    let m = AspectModerator::builder()
        .ordering(OrderingPolicy::Declaration)
        .build();
    let open = m.declare_method(MethodId::new("open"));
    for (name, tag) in [("first", "first-post"), ("second", "second-post")] {
        let l = Arc::clone(&log);
        m.register(
            &open,
            Concern::new(name),
            Box::new(FnAspect::new(name).on_postaction(move |_| l.lock().push(tag))),
        )
        .unwrap();
    }
    let mut ctx = ctx_for(&m, &open);
    m.preactivation(&open, &mut ctx).unwrap();
    m.postactivation(&open, &mut ctx);
    // Declaration: pre oldest-first, so post (its reverse) is
    // newest-first.
    assert_eq!(*log.lock(), vec!["second-post", "first-post"]);
}

#[test]
fn rollback_releases_earlier_resumed_aspects() {
    let released = Arc::new(AtomicU64::new(0));
    let m = AspectModerator::new();
    let open = m.declare_method(MethodId::new("open"));
    // Under Nested ordering, "outer" (registered second) runs first.
    {
        let released = Arc::clone(&released);
        m.register(
            &open,
            Concern::new("inner-abort"),
            Box::new(FnAspect::new("inner").on_precondition(|_| Verdict::abort("nope"))),
        )
        .unwrap();
        m.register(
            &open,
            Concern::new("outer-reserve"),
            Box::new(
                FnAspect::new("outer")
                    .on_precondition(|_| Verdict::Resume)
                    .on_release_do(move |_, cause| {
                        assert_eq!(cause, ReleaseCause::Aborted);
                        released.fetch_add(1, AtomicOrdering::SeqCst);
                    }),
            ),
        )
        .unwrap();
    }
    let mut ctx = ctx_for(&m, &open);
    assert!(m.preactivation(&open, &mut ctx).is_err());
    assert_eq!(released.load(AtomicOrdering::SeqCst), 1);
    assert_eq!(m.stats().releases, 1);
}

#[test]
fn rollback_none_skips_release() {
    let released = Arc::new(AtomicU64::new(0));
    let m = AspectModerator::builder()
        .rollback(RollbackPolicy::None)
        .build();
    let open = m.declare_method(MethodId::new("open"));
    {
        let released = Arc::clone(&released);
        m.register(
            &open,
            Concern::new("inner-abort"),
            Box::new(FnAspect::new("inner").on_precondition(|_| Verdict::abort("nope"))),
        )
        .unwrap();
        m.register(
            &open,
            Concern::new("outer-reserve"),
            Box::new(
                FnAspect::new("outer")
                    .on_precondition(|_| Verdict::Resume)
                    .on_release_do(move |_, _| {
                        released.fetch_add(1, AtomicOrdering::SeqCst);
                    }),
            ),
        )
        .unwrap();
    }
    let mut ctx = ctx_for(&m, &open);
    assert!(m.preactivation(&open, &mut ctx).is_err());
    assert_eq!(released.load(AtomicOrdering::SeqCst), 0);
    assert_eq!(m.stats().releases, 0);
}

#[test]
fn wire_wakes_restricts_notifications() {
    let trace = MemoryTrace::shared();
    let m = AspectModerator::builder().trace(trace.clone()).build();
    let open = m.declare_method(MethodId::new("open"));
    let assign = m.declare_method(MethodId::new("assign"));
    m.wire_wakes(&open, std::slice::from_ref(&assign));
    let mut ctx = ctx_for(&m, &open);
    m.preactivation(&open, &mut ctx).unwrap();
    m.postactivation(&open, &mut ctx);
    let notifications: Vec<_> = trace
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::NotificationSent(t) => Some(t),
            _ => None,
        })
        .collect();
    assert_eq!(notifications, vec![MethodId::new("assign")]);
}

#[test]
fn default_wakes_notify_every_queue() {
    let trace = MemoryTrace::shared();
    let m = AspectModerator::builder().trace(trace.clone()).build();
    let open = m.declare_method(MethodId::new("open"));
    let _assign = m.declare_method(MethodId::new("assign"));
    let mut ctx = ctx_for(&m, &open);
    m.preactivation(&open, &mut ctx).unwrap();
    m.postactivation(&open, &mut ctx);
    let count = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::NotificationSent(_)))
        .count();
    assert_eq!(count, 2, "both queues notified under WakeTargets::All");
}

#[test]
fn register_from_factory_creates_and_registers() {
    use crate::factory::RegistryFactory;
    let trace = MemoryTrace::shared();
    let m = AspectModerator::builder().trace(trace.clone()).build();
    let open = m.declare_method(MethodId::new("open"));
    let mut factory = RegistryFactory::new();
    factory.provide_for_concern(Concern::synchronization(), || Box::new(NoopAspect));
    m.register_from(&factory, &open, Concern::synchronization())
        .unwrap();
    assert_eq!(m.concerns(&open), vec![Concern::synchronization()]);
    // Figure 2: create precedes register.
    let kinds: Vec<_> = trace.events().into_iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![EventKind::AspectCreated, EventKind::AspectRegistered]
    );
    // Unknown concern: factory refuses.
    let err = m
        .register_from(&factory, &open, Concern::quota())
        .unwrap_err();
    assert!(matches!(err, RegistrationError::FactoryRefused { .. }));
}

#[test]
fn deregister_removes_and_wakes() {
    let m = Arc::new(AspectModerator::new());
    let open = m.declare_method(MethodId::new("open"));
    m.register(
        &open,
        Concern::synchronization(),
        Box::new(FnAspect::new("block-forever").on_precondition(|_| Verdict::Block)),
    )
    .unwrap();
    let waiter = {
        let m = Arc::clone(&m);
        let open = open.clone();
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &open);
            m.preactivation(&open, &mut ctx)
        })
    };
    while m.stats().blocks == 0 {
        thread::yield_now();
    }
    // Removing the blocking aspect lets the waiter resume on an empty
    // chain.
    let removed = m.deregister(&open, &Concern::synchronization()).unwrap();
    assert_eq!(removed.describe(), "block-forever");
    waiter.join().unwrap().unwrap();
}

#[test]
fn with_aspect_gives_mut_access() {
    let m = AspectModerator::new();
    let open = m.declare_method(MethodId::new("open"));
    m.register(&open, Concern::audit(), Box::new(FnAspect::new("a")))
        .unwrap();
    let name = m
        .with_aspect(&open, &Concern::audit(), |a| a.describe().to_string())
        .unwrap();
    assert_eq!(name, "a");
    assert!(m.with_aspect(&open, &Concern::quota(), |_| ()).is_err());
}

#[test]
#[should_panic(expected = "does not belong")]
fn foreign_handle_is_rejected() {
    let m1 = AspectModerator::new();
    let m2 = AspectModerator::new();
    let h1 = m1.declare_method(MethodId::new("open"));
    let _h2 = m2.declare_method(MethodId::new("other"));
    let mut ctx = InvocationContext::new(h1.id().clone(), 1);
    // h1's index 0 exists on m2 but names a different method.
    let _ = m2.preactivation(&h1, &mut ctx);
}

#[test]
fn invocation_numbers_are_monotonic() {
    let m = AspectModerator::new();
    let a = m.next_invocation();
    let b = m.next_invocation();
    assert!(b > a);
}

#[test]
fn debug_output_mentions_shape() {
    let m = AspectModerator::new();
    let open = m.declare_method(MethodId::new("open"));
    m.register(&open, Concern::audit(), Box::new(NoopAspect))
        .unwrap();
    let s = format!("{m:?}");
    assert!(s.contains("methods: 1"));
    assert!(s.contains("aspects: 1"));
}

#[test]
fn notify_one_pipeline_completes() {
    // WakeMode::NotifyOne (Java's `notify()`, as in the paper) must
    // stay live for the producer/consumer pattern: every completion
    // frees exactly one opportunity, so waking one waiter suffices.
    let m = Arc::new(
        AspectModerator::builder()
            .wake_mode(WakeMode::NotifyOne)
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
    let p = run(put, Arc::clone(&m));
    let c = run(take, Arc::clone(&m));
    p.join().unwrap();
    c.join().unwrap();
    assert_eq!(*items.lock(), 0);
    assert_eq!(m.stats().resumes, rounds * 2);
}

#[test]
fn propagate_policy_lets_aspect_panics_escape() {
    // The default policy adds no containment frame: the unwind
    // crosses preactivation untouched. Observed with an explicit
    // catch_unwind at the call site, not #[should_panic] — no test
    // may rely on an implicitly propagating aspect panic.
    let m = AspectModerator::new();
    assert_eq!(m.panic_policy(), PanicPolicy::Propagate);
    let open = m.declare_method(MethodId::new("open"));
    m.register(
        &open,
        Concern::new("bomb"),
        Box::new(FnAspect::new("bomb").on_precondition(|_| panic!("kaboom"))),
    )
    .unwrap();
    let mut ctx = ctx_for(&m, &open);
    let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| m.preactivation(&open, &mut ctx)));
    assert!(unwound.is_err(), "panic must escape under Propagate");
    assert_eq!(m.stats().panics_caught, 0);
}

#[test]
fn precondition_panic_aborts_and_rolls_back_prefix() {
    let released = Arc::new(AtomicU64::new(0));
    let trace = MemoryTrace::shared();
    let m = AspectModerator::builder()
        .panic_policy(PanicPolicy::AbortInvocation)
        .trace(trace.clone())
        .build();
    let open = m.declare_method(MethodId::new("open"));
    // Nested ordering: "reserve" (registered second) runs first, so
    // it has resumed by the time "bomb" panics.
    m.register(
        &open,
        Concern::new("bomb"),
        Box::new(FnAspect::new("bomb").on_precondition(|_| panic!("kaboom"))),
    )
    .unwrap();
    {
        let released = Arc::clone(&released);
        m.register(
            &open,
            Concern::new("reserve"),
            Box::new(
                FnAspect::new("reserve")
                    .on_precondition(|_| Verdict::Resume)
                    .on_release_do(move |_, cause| {
                        assert_eq!(cause, ReleaseCause::Aborted);
                        released.fetch_add(1, AtomicOrdering::SeqCst);
                    }),
            ),
        )
        .unwrap();
    }
    let mut ctx = ctx_for(&m, &open);
    let err = m.preactivation(&open, &mut ctx).unwrap_err();
    match &err {
        AbortError::AspectPanicked {
            method,
            concern,
            message,
        } => {
            assert_eq!(method.as_str(), "open");
            assert_eq!(concern.as_str(), "bomb");
            assert_eq!(message, "kaboom");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(err.is_panic());
    // Same compensation as a mid-chain Abort: the prefix unwound.
    assert_eq!(released.load(AtomicOrdering::SeqCst), 1);
    let s = m.stats();
    assert_eq!(s.panics_caught, 1);
    assert_eq!(s.aborts, 1);
    assert_eq!(s.releases, 1);
    assert_eq!(s.quarantined_aspects, 0, "AbortInvocation never disables");
    assert!(trace
        .events()
        .iter()
        .any(|e| e.kind == EventKind::PanicCaught));
    // The slot stays armed: the next activation panics again.
    let mut ctx = ctx_for(&m, &open);
    assert!(m.preactivation(&open, &mut ctx).unwrap_err().is_panic());
    assert_eq!(
        m.panic_counts(&open),
        vec![(Concern::new("bomb"), 2), (Concern::new("reserve"), 0)]
    );
}

#[test]
fn postaction_panic_finishes_chain_and_releases_activation() {
    let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
    let m = AspectModerator::builder()
        .panic_policy(PanicPolicy::AbortInvocation)
        .build();
    let open = m.declare_method(MethodId::new("open"));
    // Nested postaction order is registration order: the bomb runs
    // before "audit", which must still see the postaction.
    m.register(
        &open,
        Concern::new("bomb"),
        Box::new(FnAspect::new("bomb").on_postaction(|_| panic!("post kaboom"))),
    )
    .unwrap();
    {
        let log = Arc::clone(&log);
        m.register(
            &open,
            Concern::new("audit"),
            Box::new(FnAspect::new("audit").on_postaction(move |_| log.lock().push("audit"))),
        )
        .unwrap();
    }
    let mut ctx = ctx_for(&m, &open);
    m.preactivation(&open, &mut ctx).unwrap();
    m.postactivation(&open, &mut ctx);
    assert_eq!(*log.lock(), vec!["audit"]);
    let s = m.stats();
    assert_eq!(s.panics_caught, 1);
    assert_eq!(s.postactivations, 1, "activation still released");
    // The invocation as a whole succeeded — no abort was recorded.
    assert_eq!(s.aborts, 0);
}

#[test]
fn quarantine_disables_slot_after_budget() {
    let trace = MemoryTrace::shared();
    let m = AspectModerator::builder()
        .panic_policy(PanicPolicy::Quarantine { after: 2 })
        .trace(trace.clone())
        .build();
    let open = m.declare_method(MethodId::new("open"));
    let runs = Arc::new(AtomicU64::new(0));
    {
        let runs = Arc::clone(&runs);
        m.register(
            &open,
            Concern::new("flaky"),
            Box::new(FnAspect::new("flaky").on_precondition(move |_| {
                runs.fetch_add(1, AtomicOrdering::SeqCst);
                panic!("always broken")
            })),
        )
        .unwrap();
    }
    for _ in 0..2 {
        let mut ctx = ctx_for(&m, &open);
        assert!(m.preactivation(&open, &mut ctx).unwrap_err().is_panic());
    }
    // Budget spent: the slot now evaluates as Resume without running.
    let mut ctx = ctx_for(&m, &open);
    m.preactivation(&open, &mut ctx).unwrap();
    m.postactivation(&open, &mut ctx);
    assert_eq!(runs.load(AtomicOrdering::SeqCst), 2, "quarantined slot ran");
    let s = m.stats();
    assert_eq!(s.panics_caught, 2);
    assert_eq!(s.quarantined_aspects, 1);
    assert_eq!(s.resumes, 1);
    assert_eq!(m.panic_counts(&open), vec![(Concern::new("flaky"), 2)]);
    assert_eq!(m.quarantined_concerns(&open), vec![Concern::new("flaky")]);
    assert!(trace
        .events()
        .iter()
        .any(|e| e.kind == EventKind::AspectQuarantined));
}

#[test]
fn quarantine_wakes_parked_waiter_barging() {
    // A waiter parked on a blocking aspect must be woken when that
    // aspect is quarantined out of the chain — quarantining shortens
    // the chain exactly like deregister, and the same wake applies.
    let m = Arc::new(
        AspectModerator::builder()
            .panic_policy(PanicPolicy::Quarantine { after: 1 })
            .build(),
    );
    let open = m.declare_method(MethodId::new("open"));
    let armed = Arc::new(AtomicU64::new(0));
    {
        let armed = Arc::clone(&armed);
        m.register(
            &open,
            Concern::new("gate"),
            Box::new(FnAspect::new("gate").on_precondition(move |_| {
                if armed.load(AtomicOrdering::SeqCst) == 1 {
                    panic!("armed")
                }
                Verdict::Block
            })),
        )
        .unwrap();
    }
    let waiter = {
        let m = Arc::clone(&m);
        let open = open.clone();
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &open);
            m.preactivation(&open, &mut ctx).unwrap();
            m.postactivation(&open, &mut ctx);
        })
    };
    while m.stats().blocks == 0 {
        thread::yield_now();
    }
    // A second caller trips the panic; quarantine (budget 1) disables
    // the gate and must wake the parked waiter onto the empty chain.
    armed.store(1, AtomicOrdering::SeqCst);
    let mut ctx = ctx_for(&m, &open);
    assert!(m.preactivation(&open, &mut ctx).unwrap_err().is_panic());
    armed.store(2, AtomicOrdering::SeqCst); // disarm; slot is dead anyway
    waiter.join().unwrap();
    let s = m.stats();
    assert_eq!(s.quarantined_aspects, 1);
    assert_eq!(s.resumes, 1);
}

#[test]
fn quarantine_wakes_fifo_successor_after_head_panics() {
    // Fifo: the head waiter's re-evaluation panics and quarantines
    // the slot. The successor holds a later ticket and no grant is
    // in flight — only the quarantine wake (full sweep) frees it.
    let m = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .wake_mode(WakeMode::NotifyOne)
            .panic_policy(PanicPolicy::Quarantine { after: 1 })
            .build(),
    );
    let open = m.declare_method(MethodId::new("open"));
    let tick = m.declare_method(MethodId::new("tick"));
    m.wire_wakes(&tick, std::slice::from_ref(&open));
    m.wire_wakes(&open, &[]);
    let evals = Arc::new(AtomicU64::new(0));
    {
        let evals = Arc::clone(&evals);
        m.register(
            &open,
            Concern::new("flaky-gate"),
            Box::new(FnAspect::new("flaky-gate").on_precondition(move |_| {
                // First evaluation parks the head; the re-evaluation
                // after the tick's grant panics.
                if evals.fetch_add(1, AtomicOrdering::SeqCst) == 0 {
                    Verdict::Block
                } else {
                    panic!("flaky gate")
                }
            })),
        )
        .unwrap();
    }
    let head = {
        let m = Arc::clone(&m);
        let open = open.clone();
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &open);
            m.preactivation(&open, &mut ctx)
        })
    };
    while m.stats().blocks == 0 {
        thread::yield_now();
    }
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
    // Grant the head: its re-evaluation panics and quarantines the
    // gate; the successor must then resume on the shortened chain.
    let mut ctx = ctx_for(&m, &tick);
    m.preactivation(&tick, &mut ctx).unwrap();
    m.postactivation(&tick, &mut ctx);
    assert!(head.join().unwrap().unwrap_err().is_panic());
    successor.join().unwrap();
    let s = m.stats();
    assert_eq!(s.quarantined_aspects, 1);
    assert_eq!(s.panics_caught, 1);
}

#[test]
fn contained_panic_never_leaks_reservation_or_strands_other_cell() {
    // The cross-cell regression: `put` reserves capacity, then a
    // later aspect in its chain panics. The rollback must release
    // the reservation (else capacity leaks) and the `take` waiter
    // parked on the *other* cell must still complete after a good
    // put — the PR-2 wake discipline under unwind.
    let m = Arc::new(
        AspectModerator::builder()
            .panic_policy(PanicPolicy::AbortInvocation)
            .build(),
    );
    let put = m.declare_method(MethodId::new("put"));
    let take = m.declare_method(MethodId::new("take"));
    m.wire_wakes(&put, std::slice::from_ref(&take));
    m.wire_wakes(&take, std::slice::from_ref(&put));
    let items = Arc::new(Mutex::new(0_u32));
    let armed = Arc::new(AtomicU64::new(1));
    // Nested ordering: "sync" (registered second) reserves before
    // "bomb" (registered first) runs — the panic lands mid-chain
    // with a reservation held.
    {
        let armed = Arc::clone(&armed);
        m.register(
            &put,
            Concern::new("bomb"),
            Box::new(FnAspect::new("bomb").on_precondition(move |_| {
                if armed.load(AtomicOrdering::SeqCst) == 1 {
                    panic!("mid-chain")
                }
                Verdict::Resume
            })),
        )
        .unwrap();
    }
    {
        let items = Arc::clone(&items);
        let undo = Arc::clone(&items);
        m.register(
            &put,
            Concern::synchronization(),
            Box::new(
                FnAspect::new("not-full")
                    .on_precondition(move |_| {
                        let mut i = items.lock();
                        if *i < 1 {
                            *i += 1;
                            Verdict::Resume
                        } else {
                            Verdict::Block
                        }
                    })
                    .on_release_do(move |_, _| {
                        *undo.lock() -= 1;
                    }),
            ),
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
    let consumer = {
        let m = Arc::clone(&m);
        let take = take.clone();
        thread::spawn(move || {
            let mut ctx = ctx_for(&m, &take);
            m.preactivation(&take, &mut ctx).unwrap();
            m.postactivation(&take, &mut ctx);
        })
    };
    while m.stats().blocks == 0 {
        thread::yield_now();
    }
    // Panicking put: contained, reservation rolled back.
    let mut ctx = ctx_for(&m, &put);
    assert!(m.preactivation(&put, &mut ctx).unwrap_err().is_panic());
    assert_eq!(*items.lock(), 0, "reservation leaked past the panic");
    // A good put now fits in the capacity-1 buffer and frees the
    // parked consumer.
    armed.store(0, AtomicOrdering::SeqCst);
    let mut ctx = ctx_for(&m, &put);
    m.preactivation(&put, &mut ctx).unwrap();
    m.postactivation(&put, &mut ctx);
    consumer.join().unwrap();
    assert_eq!(*items.lock(), 0);
    assert_eq!(m.stats().panics_caught, 1);
}

#[test]
fn cancel_panic_is_contained_and_chain_still_cancelled() {
    // A timeout delivers on_cancel to every aspect; a panicking
    // on_cancel must not rob the remaining aspects of theirs.
    let cancelled = Arc::new(AtomicU64::new(0));
    let m = AspectModerator::builder()
        .panic_policy(PanicPolicy::AbortInvocation)
        .build();
    let open = m.declare_method(MethodId::new("open"));
    m.register(
        &open,
        Concern::new("gate"),
        Box::new(FnAspect::new("gate").on_precondition(|_| Verdict::Block)),
    )
    .unwrap();
    m.register(
        &open,
        Concern::new("bomb"),
        Box::new(
            FnAspect::new("bomb")
                .on_precondition(|_| Verdict::Resume)
                .on_cancel_do(|_| panic!("cancel kaboom")),
        ),
    )
    .unwrap();
    {
        let cancelled = Arc::clone(&cancelled);
        m.register(
            &open,
            Concern::new("audit"),
            Box::new(FnAspect::new("audit").on_cancel_do(move |_| {
                cancelled.fetch_add(1, AtomicOrdering::SeqCst);
            })),
        )
        .unwrap();
    }
    let mut ctx = ctx_for(&m, &open);
    let err = m
        .preactivation_timeout(&open, &mut ctx, Duration::from_millis(20))
        .unwrap_err();
    assert!(err.is_timeout());
    assert_eq!(cancelled.load(AtomicOrdering::SeqCst), 1);
    assert_eq!(m.stats().panics_caught, 1);
}
