//! End-to-end coordination aspects under real threads: rendezvous
//! barriers, admission gates, resource leases and deadlines flowing
//! through the moderator's blocking machinery.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use aspect_moderator::aspects::coordination::{
    BarrierAspect, Deadline, DeadlineAspect, Lease, ResourceLeaseAspect,
};
use aspect_moderator::aspects::sched::AdmissionGroup;
use aspect_moderator::concurrency::{ManualClock, ResourcePool, SchedulerPolicy};
use aspect_moderator::core::{
    AspectModerator, Concern, FnAspect, InvocationContext, MethodId, Moderated, Verdict,
};

#[test]
fn barrier_releases_threads_in_cohorts() {
    let moderator = AspectModerator::shared();
    let commit = moderator.declare_method(MethodId::new("commit"));
    moderator
        .register(
            &commit,
            Concern::new("rendezvous"),
            Box::new(BarrierAspect::new(3)),
        )
        .unwrap();
    let proxy = Arc::new(Moderated::new(0_u32, Arc::clone(&moderator)));

    let done = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let proxy = Arc::clone(&proxy);
        let commit = commit.clone();
        let done = Arc::clone(&done);
        handles.push(thread::spawn(move || {
            proxy.invoke(&commit, |c| *c += 1).unwrap();
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    // Two arrivals are not enough.
    while moderator.stats().blocks < 2 {
        thread::yield_now();
    }
    thread::sleep(Duration::from_millis(20));
    assert_eq!(
        done.load(Ordering::SeqCst),
        0,
        "cohort must wait for the third"
    );

    // The third arrival releases everyone.
    proxy.invoke(&commit, |c| *c += 1).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(done.load(Ordering::SeqCst), 2);
    assert_eq!(proxy.with_component(|c| *c), 3);
}

#[test]
fn leases_bound_concurrency_to_pool_size() {
    let moderator = AspectModerator::shared();
    let query = moderator.declare_method(MethodId::new("query"));
    let pool = Arc::new(ResourcePool::new(vec!["conn-a", "conn-b"]));
    moderator
        .register(
            &query,
            Concern::new("lease"),
            Box::new(ResourceLeaseAspect::new(Arc::clone(&pool))),
        )
        .unwrap();
    let proxy = Arc::new(Moderated::new((), Arc::clone(&moderator)));

    let completed = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();
    for _ in 0..6 {
        let proxy = Arc::clone(&proxy);
        let query = query.clone();
        let completed = Arc::clone(&completed);
        handles.push(thread::spawn(move || {
            for _ in 0..50 {
                let mut guard = proxy.enter(&query).unwrap();
                // The leased connection is visible to the method body.
                let lease = guard.context().get::<Lease<&str>>().expect("leased");
                assert!(lease.get().is_some());
                guard.complete();
                completed.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(completed.load(Ordering::SeqCst), 300);
    assert_eq!(pool.available(), 2, "every lease returned");
}

#[test]
fn deadline_aborts_caller_stuck_behind_a_dry_pool() {
    let clock = ManualClock::new();
    let moderator = AspectModerator::shared();
    let query = moderator.declare_method(MethodId::new("query"));
    let pool: Arc<ResourcePool<u8>> = Arc::new(ResourcePool::new(vec![]));
    // Deadline registered second => evaluated first (nested ordering),
    // so a parked caller re-checks its budget on every wakeup.
    moderator
        .register(
            &query,
            Concern::new("lease"),
            Box::new(ResourceLeaseAspect::new(Arc::clone(&pool))),
        )
        .unwrap();
    moderator
        .register(
            &query,
            Concern::new("deadline"),
            Box::new(DeadlineAspect::with_clock(Arc::new(clock.clone()))),
        )
        .unwrap();
    let proxy = Arc::new(Moderated::new((), Arc::clone(&moderator)));

    // Caller with an already-expired deadline: immediate abort.
    let mut ctx = InvocationContext::new(query.id().clone(), moderator.next_invocation());
    clock.advance(Duration::from_millis(10));
    ctx.insert(Deadline(Duration::from_millis(5)));
    let err = proxy.enter_with(&query, ctx).unwrap_err();
    assert_eq!(err.concern().unwrap(), &Concern::new("deadline"));

    // A caller with budget left blocks on the dry pool instead.
    let mut ctx = InvocationContext::new(query.id().clone(), moderator.next_invocation());
    ctx.insert(Deadline(Duration::from_secs(60)));
    let err = proxy
        .enter_timeout(&query, ctx, Duration::from_millis(30))
        .unwrap_err();
    assert!(err.is_timeout(), "blocked on the pool, not the deadline");
}

#[test]
fn lease_survives_rollback_and_timeout_without_capacity_loss() {
    use aspect_moderator::core::{FnAspect, Verdict};
    // Chain on `op` (registration order): gate first (innermost),
    // lease second (outermost — evaluated FIRST under nesting). The
    // closed gate blocks *after* the lease resumed, exercising the
    // rollback/reuse path; the timeout then drops the context,
    // exercising the destructor path.
    let moderator = AspectModerator::shared();
    let op = moderator.declare_method(MethodId::new("op"));
    let pool: Arc<ResourcePool<u8>> = Arc::new(ResourcePool::new(vec![7]));
    moderator
        .register(
            &op,
            Concern::new("gate"),
            Box::new(FnAspect::new("closed").on_precondition(|_| Verdict::Block)),
        )
        .unwrap();
    moderator
        .register(
            &op,
            Concern::new("lease"),
            Box::new(ResourceLeaseAspect::new(Arc::clone(&pool))),
        )
        .unwrap();
    let proxy = Moderated::new((), Arc::clone(&moderator));
    let err = proxy
        .invoke_timeout(&op, Duration::from_millis(40), |()| ())
        .unwrap_err();
    assert!(err.is_timeout());
    assert_eq!(
        pool.available(),
        1,
        "the leased item must be back after rollback + timeout"
    );
}

#[test]
fn barrier_with_timeout_does_not_poison_future_cohorts() {
    let moderator = AspectModerator::shared();
    let commit = moderator.declare_method(MethodId::new("commit"));
    moderator
        .register(
            &commit,
            Concern::new("rendezvous"),
            Box::new(BarrierAspect::new(2)),
        )
        .unwrap();
    let proxy = Arc::new(Moderated::new(0_u32, Arc::clone(&moderator)));

    // A lone caller gives up.
    let err = proxy
        .invoke_timeout(&commit, Duration::from_millis(30), |c| *c += 1)
        .unwrap_err();
    assert!(err.is_timeout());

    // Two fresh callers still form a working cohort (the ghost was
    // cancelled out of the barrier).
    let t = {
        let proxy = Arc::clone(&proxy);
        let commit = commit.clone();
        thread::spawn(move || proxy.invoke(&commit, |c| *c += 1))
    };
    while moderator.stats().blocks < 2 {
        thread::yield_now();
    }
    proxy.invoke(&commit, |c| *c += 1).unwrap();
    t.join().unwrap().unwrap();
    assert_eq!(proxy.with_component(|c| *c), 2);
}

/// A rollback does not wake its own method, so a barrier's release must
/// undo what its precondition did: when the arrival that completes a
/// cohort is vetoed further in, the cohort never formed, the waiting
/// member is not stranded with a pass nobody woke it to use, and the
/// next arrival forms the cohort with it.
#[test]
fn vetoed_completing_arrival_leaves_the_cohort_waiting() {
    let moderator = AspectModerator::shared();
    let commit = moderator.declare_method(MethodId::new("commit"));
    let doomed = Arc::new(AtomicU32::new(0));
    {
        let doomed = Arc::clone(&doomed);
        moderator
            .register(
                &commit,
                Concern::new("veto"),
                Box::new(FnAspect::new("veto").on_precondition(move |ctx| {
                    if ctx.invocation() == u64::from(doomed.load(Ordering::SeqCst)) {
                        Verdict::abort("vetoed")
                    } else {
                        Verdict::Resume
                    }
                })),
            )
            .unwrap();
    }
    // Registered last: evaluated before the veto.
    moderator
        .register(
            &commit,
            Concern::new("rendezvous"),
            Box::new(BarrierAspect::new(2)),
        )
        .unwrap();
    let call = |invocation: u64| {
        let moderator = Arc::clone(&moderator);
        let commit = commit.clone();
        thread::spawn(move || {
            let mut ctx = InvocationContext::new(commit.id().clone(), invocation);
            moderator.preactivation_timeout(&commit, &mut ctx, Duration::from_secs(5))?;
            moderator.postactivation(&commit, &mut ctx);
            Ok::<(), aspect_moderator::core::AbortError>(())
        })
    };
    let first = call(1);
    while moderator.stats().blocks < 1 {
        thread::yield_now();
    }
    doomed.store(2, Ordering::SeqCst);
    let err = call(2).join().unwrap().unwrap_err();
    assert!(!err.is_timeout(), "{err:?}");
    let third = call(3);
    third
        .join()
        .unwrap()
        .expect("the third arrival forms the cohort");
    first
        .join()
        .unwrap()
        .expect("the first arrival leaves with it");
}

/// An admission gate's head whose later aspect blocks keeps its queue
/// place while it waits, so the caller behind it waits too. When the
/// head times out, its cancellation frees the place and the moderator
/// wakes the caller behind, which is admitted well before its own
/// deadline.
#[test]
fn admission_head_keeps_its_place_until_it_times_out() {
    let moderator = AspectModerator::shared();
    let run = moderator.declare_method(MethodId::new("run"));
    let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
    moderator
        .register(
            &run,
            Concern::new("gate"),
            Box::new(FnAspect::new("gate").on_precondition(|ctx| {
                if ctx.invocation() == 1 {
                    Verdict::Block
                } else {
                    Verdict::Resume
                }
            })),
        )
        .unwrap();
    // Registered last: evaluated before the gate.
    moderator
        .register(&run, Concern::new("admission"), Box::new(group.aspect()))
        .unwrap();
    let call = |invocation: u64, timeout: Duration| {
        let moderator = Arc::clone(&moderator);
        let run = run.clone();
        thread::spawn(move || {
            let mut ctx = InvocationContext::new(run.id().clone(), invocation);
            moderator.preactivation_timeout(&run, &mut ctx, timeout)?;
            moderator.postactivation(&run, &mut ctx);
            Ok::<(), aspect_moderator::core::AbortError>(())
        })
    };
    let head = call(1, Duration::from_millis(200));
    while moderator.stats().blocks < 1 {
        thread::yield_now();
    }
    let behind = call(2, Duration::from_secs(5));
    while moderator.stats().blocks < 2 {
        thread::yield_now();
    }
    assert_eq!(group.load(), (0, 2), "the head kept its place");
    let err = head.join().unwrap().unwrap_err();
    assert!(err.is_timeout(), "{err:?}");
    behind
        .join()
        .unwrap()
        .expect("the caller behind moves up when the head leaves");
    assert_eq!(moderator.stats().timeouts, 1);
}

/// A non-blocking attempt that would block leaves like a timed-out
/// waiter: the admission gate forgets the enrollment its evaluation
/// took, so no ghost heads the queue and later callers are admitted.
#[test]
fn would_block_attempt_leaves_no_admission_enrollment() {
    let moderator = AspectModerator::shared();
    let run = moderator.declare_method(MethodId::new("run"));
    let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
    moderator
        .register(&run, Concern::new("admission"), Box::new(group.aspect()))
        .unwrap();
    let ctx = || InvocationContext::new(run.id().clone(), moderator.next_invocation());
    let mut holder = ctx();
    moderator.preactivation(&run, &mut holder).unwrap();
    let mut attempt = ctx();
    assert!(!moderator.try_preactivation(&run, &mut attempt).unwrap());
    assert_eq!(group.load(), (1, 0), "no enrollment left behind");
    moderator.postactivation(&run, &mut holder);
    let mut later = ctx();
    moderator
        .preactivation_timeout(&run, &mut later, Duration::from_secs(2))
        .expect("no ghost ahead of the later caller");
    moderator.postactivation(&run, &mut later);
}
