//! Split pre-activation: a first pass that never parks, then a
//! continuation, possibly on another thread. Every test drives the
//! steps explicitly on one thread where it can, so the unlocked gap
//! between the two halves is exactly where the test puts it.

use super::*;
use crate::aspect::FnAspect;
use crate::context::InvocationContext;
use crate::trace::MemoryTrace;
use crate::verdict::Verdict;
use amf_concurrency::TaskEngine;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Long enough never to expire on a passing run; a lost wake turns into
/// a timeout after this instead of a hang.
const SAFETY: Duration = Duration::from_secs(2);

struct Rig {
    m: Arc<AspectModerator>,
    /// The moderator's grant source; counts callers parked right now.
    engine: Arc<TaskEngine>,
    trace: Arc<MemoryTrace>,
    tokens: Arc<AtomicU64>,
    /// Precondition evaluations of the gate.
    evaluations: Arc<AtomicU64>,
    open: MethodHandle,
    tick: MethodHandle,
}

/// `open` is gated on a token; `tick`'s postaction mints one and its
/// post-activation notifies `open`'s queue.
fn rig(fairness: FairnessPolicy, wake_mode: WakeMode) -> Rig {
    let trace = MemoryTrace::shared();
    let engine = Arc::new(TaskEngine::new(1));
    let m = Arc::new(
        AspectModerator::builder()
            .fairness(fairness)
            .wake_mode(wake_mode)
            .trace(trace.clone() as Arc<dyn crate::trace::TraceSink>)
            .engine(Arc::<TaskEngine>::clone(&engine))
            .build(),
    );
    let tokens = Arc::new(AtomicU64::new(0));
    let evaluations = Arc::new(AtomicU64::new(0));
    let open = m.declare_method(MethodId::new("open"));
    let tick = m.declare_method(MethodId::new("tick"));
    {
        let (tokens, evaluations) = (Arc::clone(&tokens), Arc::clone(&evaluations));
        m.register(
            &open,
            Concern::synchronization(),
            Box::new(FnAspect::new("token-gate").on_precondition(move |_| {
                evaluations.fetch_add(1, AtomicOrdering::SeqCst);
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
        let tokens = Arc::clone(&tokens);
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
    Rig {
        m,
        engine,
        trace,
        tokens,
        evaluations,
        open,
        tick,
    }
}

impl Rig {
    fn ctx(&self, method: &MethodHandle) -> InvocationContext {
        InvocationContext::new(method.id().clone(), self.m.next_invocation())
    }

    /// Returns once `n` callers are parked on the engine.
    fn await_parked(&self, n: u64) {
        while self.engine.tasks_parked() < n {
            thread::yield_now();
        }
    }

    fn tick(&self) {
        let mut ctx = self.ctx(&self.tick);
        self.m.preactivation(&self.tick, &mut ctx).unwrap();
        self.m.postactivation(&self.tick, &mut ctx);
    }

    fn begin(&self, ctx: &mut InvocationContext) -> PendingActivation {
        match self.m.begin_preactivation(&self.open, ctx, Some(SAFETY)) {
            Ok(FirstPass::Pending(p)) => p,
            other => panic!("expected the first pass to block, got {other:?}"),
        }
    }

    /// The invocation's trace without its number, so two invocations
    /// compare.
    fn compact(&self, invocation: u64) -> Vec<String> {
        self.trace
            .events_for(invocation)
            .into_iter()
            .map(|mut e| {
                e.invocation = 0;
                e.compact()
            })
            .collect()
    }
}

/// A wake that lands after the first pass released the cell lock and
/// before the continuation re-took it reaches the continuation: it
/// re-evaluates at once (no park, so no timeout) and resumes, and the
/// chain ran exactly twice — the first pass and the one re-evaluation.
fn gap_wake_is_not_lost(fairness: FairnessPolicy, wake_mode: WakeMode) {
    let rig = rig(fairness, wake_mode);
    let mut ctx = rig.ctx(&rig.open);
    let pending = rig.begin(&mut ctx);
    assert_eq!(rig.m.stats().blocks, 1);
    rig.tick(); // the gap: nobody is parked on `open`
    rig.m
        .finish_preactivation(pending, &mut ctx)
        .expect("the gap wake must reach the continuation");
    rig.m.postactivation(&rig.open, &mut ctx);
    assert_eq!(rig.evaluations.load(AtomicOrdering::SeqCst), 2);
    assert_eq!(rig.tokens.load(AtomicOrdering::SeqCst), 0);
    let s = rig.m.stats();
    assert_eq!((s.blocks, s.wakeups, s.timeouts), (1, 1, 0));
    let trace = rig.compact(ctx.invocation());
    let wait = trace.iter().position(|e| e == "#0 wait open").unwrap();
    assert_eq!(
        trace[wait..wait + 4],
        [
            "#0 wait open",
            "#0 woken open",
            "#0 precondition-resumed open/sync",
            "#0 resumed open",
        ]
    );
}

#[test]
fn gap_wake_is_not_lost_barging_notify_one() {
    gap_wake_is_not_lost(FairnessPolicy::Barging, WakeMode::NotifyOne);
}

#[test]
fn gap_wake_is_not_lost_barging_notify_all() {
    gap_wake_is_not_lost(FairnessPolicy::Barging, WakeMode::NotifyAll);
}

#[test]
fn gap_wake_is_not_lost_fifo() {
    gap_wake_is_not_lost(FairnessPolicy::Fifo, WakeMode::NotifyAll);
}

/// Without a wake in the gap the continuation parks, and a wake after
/// it parked releases it on another thread: the pending activation is
/// `Send + 'static`, and split and blocking forms leave the same trace.
fn split_matches_blocking(fairness: FairnessPolicy) {
    fn assert_send_static<T: Send + 'static>(_: &T) {}
    let rig = Arc::new(rig(fairness, WakeMode::NotifyAll));

    // Blocking form on a thread, released by a tick once it parked.
    let blocking = {
        let rig = Arc::clone(&rig);
        thread::spawn(move || {
            let mut ctx = rig.ctx(&rig.open);
            rig.m
                .preactivation_timeout(&rig.open, &mut ctx, SAFETY)
                .unwrap();
            rig.m.postactivation(&rig.open, &mut ctx);
            ctx.invocation()
        })
    };
    rig.await_parked(1);
    rig.tick();
    let blocking = blocking.join().unwrap();

    // Split form: first pass here, continuation on a thread.
    let mut ctx = rig.ctx(&rig.open);
    let pending = rig.begin(&mut ctx);
    assert_send_static(&pending);
    let split = {
        let rig = Arc::clone(&rig);
        thread::spawn(move || {
            rig.m.finish_preactivation(pending, &mut ctx).unwrap();
            rig.m.postactivation(&rig.open, &mut ctx);
            ctx.invocation()
        })
    };
    rig.await_parked(1);
    rig.tick();
    let split = split.join().unwrap();
    assert_eq!(rig.compact(split), rig.compact(blocking));
}

#[test]
fn split_form_traces_like_the_blocking_form_barging() {
    split_matches_blocking(FairnessPolicy::Barging);
}

#[test]
fn split_form_traces_like_the_blocking_form_fifo() {
    split_matches_blocking(FairnessPolicy::Fifo);
}

/// Cancelling a pending activation withdraws it like a timeout would,
/// without counting one: under Fifo the ticket leaves the queue, so a
/// newcomer is not queued behind a ticket nobody will serve, and the
/// gate sees no second evaluation.
#[test]
fn cancelled_pending_activation_strands_nobody() {
    let rig = rig(FairnessPolicy::Fifo, WakeMode::NotifyAll);
    let mut ctx = rig.ctx(&rig.open);
    let pending = rig.begin(&mut ctx);
    rig.m.cancel_preactivation(pending, &ctx);
    assert_eq!(rig.m.stats().timeouts, 0);
    assert_eq!(
        rig.compact(ctx.invocation()).last().unwrap(),
        "#0 aborted open"
    );
    rig.tokens.store(1, AtomicOrdering::SeqCst);
    let mut next = rig.ctx(&rig.open);
    match rig
        .m
        .begin_preactivation(&rig.open, &mut next, Some(SAFETY))
    {
        Ok(FirstPass::Resumed) => rig.m.postactivation(&rig.open, &mut next),
        other => panic!("the newcomer must be admitted at once, got {other:?}"),
    }
    assert_eq!(rig.evaluations.load(AtomicOrdering::SeqCst), 2);
}
