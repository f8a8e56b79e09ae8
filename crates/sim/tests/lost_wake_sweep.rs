//! Lost-wake sweep on the real moderator: an admission gate's head
//! that fails further in along its chain, run under the simulator.
//!
//! The protocol holds no timer: a parked caller re-evaluates only when
//! notified. The caller that must get through waits untimed, so once
//! the doomed caller's deadline has passed the simulator's virtual
//! clock stops, and a wake the protocol or the gate loses strands the
//! caller for good: the scheduler reports the run as deadlocked. Each
//! of these, made in a copy of the code, fails the sweep: a release that
//! does not give the head its queue place back, a timeout that does not
//! wake the waiters when the head leaves, and an abort of a woken
//! caller that does not pass a wake on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use amf_aspects::sched::AdmissionGroup;
use amf_concurrency::SchedulerPolicy;
use amf_core::{
    AspectModerator, Concern, FairnessPolicy, FnAspect, InvocationContext, MethodHandle, MethodId,
    Verdict, WakeMode,
};
use amf_sim::{SimReport, SimRunner};

const SEEDS: u64 = 64;

/// `NotifyOne` is left out: its one wake can go to a caller that is not
/// the gate's head, which re-blocks and strands the head, the hazard
/// `WakeMode::NotifyOne` documents.
const DISCIPLINES: [(FairnessPolicy, WakeMode); 2] = [
    (FairnessPolicy::Barging, WakeMode::NotifyAll),
    (FairnessPolicy::Fifo, WakeMode::NotifyAll),
];

fn moderator(runner: &SimRunner, fairness: FairnessPolicy, wake: WakeMode) -> Arc<AspectModerator> {
    Arc::new(
        AspectModerator::builder()
            .fairness(fairness)
            .wake_mode(wake)
            .engine(Arc::new(runner.engine()))
            .clock(Arc::new(runner.clock()))
            .build(),
    )
}

fn assert_completed(report: &SimReport, done: u64, ops: u64, what: &str) {
    assert!(report.error.is_none(), "{what}: {:?}", report.error);
    assert!(report.panics.is_empty(), "{what}: {:?}", report.panics);
    assert_eq!(done, ops, "{what}: ops completed");
}

/// Marks the admission scenario's doomed caller.
struct Doomed;

/// A capacity-1 FIFO admission gate ahead of a check that fails one
/// caller, `w1`, by blocking it (`abort == false`) or aborting it. `r`
/// holds the gate while it waits on `hold`, which `kick` opens, so `w1`
/// and `w2` can queue behind it. When `r` leaves, `w1` is admitted and
/// then fails further in, in any order with `w2`'s re-evaluation; `w2`,
/// untimed, must still get through. `w1` waits with a deadline, as the
/// gate's head it would otherwise hold `w2` back for good.
fn run_admission(seed: u64, fairness: FairnessPolicy, wake: WakeMode, abort: bool) {
    let mut runner = SimRunner::new(seed);
    let m = moderator(&runner, fairness, wake);
    let run = m.declare_method(MethodId::new("run"));
    let hold = m.declare_method(MethodId::new("hold"));
    let kick = m.declare_method(MethodId::new("kick"));
    m.register(
        &run,
        Concern::new("check"),
        Box::new(FnAspect::new("check").on_precondition(move |ctx| {
            match (ctx.contains::<Doomed>(), abort) {
                (false, _) => Verdict::Resume,
                (true, false) => Verdict::Block,
                (true, true) => Verdict::abort("doomed"),
            }
        })),
    )
    .unwrap();
    // Registered last: evaluated before the check.
    let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
    m.register(&run, Concern::new("admission"), Box::new(group.aspect()))
        .unwrap();
    let go = Arc::new(AtomicBool::new(false));
    let open = Arc::clone(&go);
    m.register(
        &hold,
        Concern::new("hold"),
        Box::new(FnAspect::new("hold").on_precondition(move |_| {
            if open.load(Ordering::SeqCst) {
                Verdict::Resume
            } else {
                Verdict::Block
            }
        })),
    )
    .unwrap();

    let done = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let ctx =
        |method: &MethodHandle| InvocationContext::new(method.id().clone(), m.next_invocation());
    {
        let (m, run, hold, done) = (Arc::clone(&m), run.clone(), hold.clone(), Arc::clone(&done));
        let (mut outer, mut inner) = (ctx(&run), ctx(&hold));
        runner.spawn("r", move || {
            m.preactivation(&run, &mut outer).expect("r is admitted");
            m.preactivation(&hold, &mut inner).expect("hold opens");
            m.postactivation(&hold, &mut inner);
            m.postactivation(&run, &mut outer);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let (m, run, failed) = (Arc::clone(&m), run.clone(), Arc::clone(&failed));
        let mut c = ctx(&run);
        c.insert(Doomed);
        runner.spawn("w1", move || {
            m.preactivation_timeout(&run, &mut c, Duration::from_millis(10))
                .expect_err("w1 is doomed");
            failed.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let (m, run, done) = (Arc::clone(&m), run.clone(), Arc::clone(&done));
        let mut c = ctx(&run);
        runner.spawn("w2", move || {
            m.preactivation(&run, &mut c).expect("w2 gets through");
            m.postactivation(&run, &mut c);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let (m, kick) = (Arc::clone(&m), kick.clone());
        let mut c = ctx(&kick);
        runner.spawn("kick", move || {
            m.preactivation(&kick, &mut c).expect("kick has no aspects");
            go.store(true, Ordering::SeqCst);
            m.postactivation(&kick, &mut c);
        });
    }
    let report = runner.run();
    let what = format!("admission seed {seed} {fairness:?}/{wake:?} abort={abort}");
    assert_completed(&report, done.load(Ordering::SeqCst), 2, &what);
    assert_eq!(failed.load(Ordering::SeqCst), 1, "{what}: w1 failed");
    assert_eq!(group.load(), (0, 0), "{what}: gate left clean");
}

#[test]
fn admission_head_that_fails_further_in_loses_no_wake() {
    for (fairness, wake) in DISCIPLINES {
        for abort in [false, true] {
            for seed in 0..SEEDS {
                run_admission(seed, fairness, wake, abort);
            }
        }
    }
}
