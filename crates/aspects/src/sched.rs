//! Scheduling and throughput aspects.
//!
//! *Scheduling* is one of the paper's canonical aspects (it appears in
//! the aspect bank of Figure 1). [`AdmissionAspect`] turns a method into
//! a policy-ordered admission gate: at most `max_concurrent` activations
//! run at once and waiters are admitted FIFO / LIFO / by priority.
//! [`RateLimitAspect`] throttles a method's throughput with a token
//! bucket.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use amf_concurrency::{Placed, RateLimiter, Scheduler, SchedulerPolicy};
use amf_core::{Aspect, InvocationContext, ReleaseCause, Verdict};
use parking_lot::Mutex;

/// Priority attached to an invocation context by the caller; read by
/// [`AdmissionAspect`] under [`SchedulerPolicy::Priority`]. Higher wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Priority(pub u32);

#[derive(Debug)]
struct AdmissionState {
    running: usize,
    max_concurrent: usize,
    queue: Scheduler<u64>,
    enrolled: HashSet<u64>,
    /// The queue place of each admitted invocation, until it departs, so
    /// a rollback can put it back where it was.
    admitted: HashMap<u64, Placed<u64>>,
}

/// Policy-ordered admission gate: a fair semaphore as an aspect.
///
/// At most `max_concurrent` activations of the guarded method run
/// simultaneously; when the gate is full, callers block and are admitted
/// in policy order ([`SchedulerPolicy::Fifo`], `Lifo`, or `Priority`
/// keyed by the [`Priority`] context attribute).
///
/// Several methods may *share* one gate by cloning the aspect's group
/// (see [`AdmissionGroup`]).
///
/// An admitted caller whose later aspect blocks gets its slot and its
/// queue place back, so it stays ahead of the callers behind it; one
/// that then times out reports the freed place, so the moderator wakes
/// the next in line. That wake reaches the cancelling method's own
/// waiters: a waiter of another method sharing the gate moves up at
/// its method's next notification.
#[derive(Debug, Clone)]
pub struct AdmissionGroup {
    state: Arc<Mutex<AdmissionState>>,
}

impl AdmissionGroup {
    /// Creates a gate admitting `max_concurrent` activations at a time,
    /// ordered by `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `max_concurrent` is zero.
    pub fn new(max_concurrent: usize, policy: SchedulerPolicy) -> Self {
        assert!(max_concurrent > 0, "admission gate needs capacity");
        Self {
            state: Arc::new(Mutex::new(AdmissionState {
                running: 0,
                max_concurrent,
                queue: Scheduler::new(policy),
                enrolled: HashSet::new(),
                admitted: HashMap::new(),
            })),
        }
    }

    /// Mints the admission aspect for one method of the group.
    pub fn aspect(&self) -> AdmissionAspect {
        AdmissionAspect {
            state: Arc::clone(&self.state),
        }
    }

    /// (activations running, callers waiting) right now.
    pub fn load(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.running, st.queue.len())
    }
}

/// Admission aspect minted by [`AdmissionGroup::aspect`].
pub struct AdmissionAspect {
    state: Arc<Mutex<AdmissionState>>,
}

impl fmt::Debug for AdmissionAspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionAspect")
            .field("state", &*self.state.lock())
            .finish()
    }
}

impl Aspect for AdmissionAspect {
    fn precondition(&mut self, ctx: &mut InvocationContext) -> Verdict {
        let inv = ctx.invocation();
        let mut st = self.state.lock();
        if !st.enrolled.contains(&inv) {
            // First evaluation for this invocation: take a queue position.
            let priority = ctx.get::<Priority>().copied().unwrap_or_default().0;
            st.queue.enqueue_with_priority(inv, priority);
            st.enrolled.insert(inv);
        }
        if st.running < st.max_concurrent && st.queue.peek() == Some(&inv) {
            let place = st.queue.dequeue_placed().expect("the head was peeked");
            st.admitted.insert(inv, place);
            st.enrolled.remove(&inv);
            st.running += 1;
            Verdict::Resume
        } else {
            Verdict::Block
        }
    }

    fn postaction(&mut self, ctx: &mut InvocationContext) {
        let mut st = self.state.lock();
        st.admitted.remove(&ctx.invocation());
        st.running -= 1;
    }

    fn on_release(&mut self, ctx: &InvocationContext, cause: ReleaseCause) {
        let inv = ctx.invocation();
        let mut st = self.state.lock();
        st.running -= 1;
        let place = st.admitted.remove(&inv);
        // Blocked: the caller waits on at the place it had, ahead of
        // everyone that queued behind it. Aborted: it leaves, and the
        // moderator wakes the waiters that may now move up.
        if let (Some(place), ReleaseCause::Blocked) = (place, cause) {
            st.queue.restore(place);
            st.enrolled.insert(inv);
        }
    }

    fn on_cancel(&mut self, ctx: &InvocationContext) -> bool {
        let inv = ctx.invocation();
        let mut st = self.state.lock();
        if !st.enrolled.remove(&inv) {
            return false;
        }
        let was_head = st.queue.peek() == Some(&inv);
        st.queue.cancel(|&i| i == inv);
        was_head && st.running < st.max_concurrent && !st.queue.is_empty()
    }

    fn describe(&self) -> &str {
        "admission gate"
    }
}

/// What a [`RateLimitAspect`] does when the bucket is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThrottleMode {
    /// Fail the activation (`429`-style).
    #[default]
    Abort,
    /// Park the caller; it re-evaluates whenever traffic completes.
    /// Note that wakeups come from *post-activations*, so a fully idle
    /// system will not wake blocked callers when tokens refill — prefer
    /// `Abort` (with caller retry) for idle-bursty workloads.
    Block,
}

/// Token-bucket throughput throttle.
pub struct RateLimitAspect {
    limiter: Arc<RateLimiter>,
    mode: ThrottleMode,
}

impl fmt::Debug for RateLimitAspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RateLimitAspect")
            .field("mode", &self.mode)
            .field("limiter", &self.limiter)
            .finish()
    }
}

impl RateLimitAspect {
    /// Creates a throttle over a shared limiter.
    pub fn new(limiter: Arc<RateLimiter>, mode: ThrottleMode) -> Self {
        Self { limiter, mode }
    }
}

impl Aspect for RateLimitAspect {
    fn precondition(&mut self, _ctx: &mut InvocationContext) -> Verdict {
        if self.limiter.try_acquire() {
            Verdict::Resume
        } else {
            match self.mode {
                ThrottleMode::Abort => Verdict::abort("rate limit exceeded"),
                ThrottleMode::Block => Verdict::Block,
            }
        }
    }

    fn postaction(&mut self, _ctx: &mut InvocationContext) {}

    fn on_release(&mut self, _ctx: &InvocationContext, _cause: ReleaseCause) {
        // Hand the unused token back.
        self.limiter.deposit();
    }

    fn describe(&self) -> &str {
        "rate limit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_concurrency::{ManualClock, RateLimiterConfig};
    use amf_core::MethodId;

    fn ctx(invocation: u64) -> InvocationContext {
        InvocationContext::new(MethodId::new("m"), invocation)
    }

    fn ctx_with_priority(invocation: u64, p: u32) -> InvocationContext {
        let mut c = ctx(invocation);
        c.insert(Priority(p));
        c
    }

    #[test]
    fn admits_up_to_capacity() {
        let group = AdmissionGroup::new(2, SchedulerPolicy::Fifo);
        let mut a = group.aspect();
        let mut c1 = ctx(1);
        let mut c2 = ctx(2);
        let mut c3 = ctx(3);
        assert!(a.precondition(&mut c1).is_resume());
        assert!(a.precondition(&mut c2).is_resume());
        assert!(a.precondition(&mut c3).is_block());
        assert_eq!(group.load(), (2, 1));
        a.postaction(&mut c1);
        assert!(a.precondition(&mut c3).is_resume());
    }

    #[test]
    fn fifo_admits_in_arrival_order() {
        let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
        let mut a = group.aspect();
        let mut c1 = ctx(1);
        let mut c2 = ctx(2);
        let mut c3 = ctx(3);
        assert!(a.precondition(&mut c1).is_resume());
        assert!(a.precondition(&mut c2).is_block()); // enrolls 2
        assert!(a.precondition(&mut c3).is_block()); // enrolls 3
        a.postaction(&mut c1);
        // 3 re-evaluates first (as after a notify-all) but 2 is the head.
        assert!(a.precondition(&mut c3).is_block());
        assert!(a.precondition(&mut c2).is_resume());
        a.postaction(&mut c2);
        assert!(a.precondition(&mut c3).is_resume());
    }

    #[test]
    fn priority_order_beats_arrival_order() {
        let group = AdmissionGroup::new(1, SchedulerPolicy::Priority);
        let mut a = group.aspect();
        let mut holder = ctx(1);
        let mut low = ctx_with_priority(2, 1);
        let mut high = ctx_with_priority(3, 9);
        assert!(a.precondition(&mut holder).is_resume());
        assert!(a.precondition(&mut low).is_block());
        assert!(a.precondition(&mut high).is_block());
        a.postaction(&mut holder);
        assert!(a.precondition(&mut low).is_block());
        assert!(a.precondition(&mut high).is_resume());
    }

    #[test]
    fn cancel_removes_enrollment() {
        let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
        let mut a = group.aspect();
        let mut holder = ctx(1);
        let mut waiter = ctx(2);
        let mut late = ctx(3);
        assert!(a.precondition(&mut holder).is_resume());
        assert!(a.precondition(&mut waiter).is_block());
        assert!(a.precondition(&mut late).is_block());
        // Waiter 2 times out and cancels; 3 must now be the head, but
        // the gate is still full, so nobody needs a wake.
        assert!(!a.on_cancel(&waiter));
        a.postaction(&mut holder);
        assert!(a.precondition(&mut late).is_resume());
        assert_eq!(group.load(), (1, 0));
    }

    #[test]
    fn blocked_rollback_keeps_the_head_in_place() {
        let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
        let mut a = group.aspect();
        let mut running = ctx(1);
        let mut w1 = ctx(2);
        let mut w2 = ctx(3);
        assert!(a.precondition(&mut running).is_resume());
        assert!(a.precondition(&mut w1).is_block());
        assert!(a.precondition(&mut w2).is_block());
        a.postaction(&mut running);
        // Both woken; w2 evaluates first and stays behind w1.
        assert!(a.precondition(&mut w2).is_block());
        assert!(a.precondition(&mut w1).is_resume());
        // A later aspect blocks w1: the slot is free again and w1 heads
        // the queue, so w2, which saw w1 ahead of it, is still blocked.
        a.on_release(&w1, ReleaseCause::Blocked);
        assert_eq!(group.load(), (0, 2));
        assert!(a.precondition(&mut w2).is_block());
        assert!(a.precondition(&mut w1).is_resume());
        a.postaction(&mut w1);
        assert!(a.precondition(&mut w2).is_resume());
        assert_eq!(group.load(), (1, 0));
    }

    #[test]
    fn cancelled_head_reports_the_freed_place() {
        let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
        let mut a = group.aspect();
        let mut w1 = ctx(1);
        let mut w2 = ctx(2);
        assert!(a.precondition(&mut w1).is_resume());
        a.on_release(&w1, ReleaseCause::Blocked);
        assert!(a.precondition(&mut w2).is_block());
        // w2 is not the head: its cancel frees nothing.
        assert!(!a.on_cancel(&w2));
        assert!(a.precondition(&mut w2).is_block());
        // w1, the head with the slot free, times out: w2 may move up.
        assert!(a.on_cancel(&w1));
        assert!(a.precondition(&mut w2).is_resume());
        assert_eq!(group.load(), (1, 0));
    }

    #[test]
    fn aborted_head_leaves_the_queue() {
        let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
        let mut a = group.aspect();
        let mut w1 = ctx(1);
        let mut w2 = ctx(2);
        assert!(a.precondition(&mut w1).is_resume());
        a.on_release(&w1, ReleaseCause::Blocked);
        assert!(a.precondition(&mut w2).is_block());
        assert!(a.precondition(&mut w1).is_resume());
        a.on_release(&w1, ReleaseCause::Aborted);
        assert_eq!(group.load(), (0, 1));
        assert!(a.precondition(&mut w2).is_resume());
    }

    #[test]
    fn release_frees_slot() {
        let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
        let mut a = group.aspect();
        let mut c1 = ctx(1);
        assert!(a.precondition(&mut c1).is_resume());
        a.on_release(&c1, ReleaseCause::Aborted);
        let mut c2 = ctx(2);
        assert!(a.precondition(&mut c2).is_resume());
    }

    #[test]
    fn reevaluation_does_not_double_enroll() {
        let group = AdmissionGroup::new(1, SchedulerPolicy::Fifo);
        let mut a = group.aspect();
        let mut holder = ctx(1);
        let mut waiter = ctx(2);
        assert!(a.precondition(&mut holder).is_resume());
        for _ in 0..5 {
            assert!(a.precondition(&mut waiter).is_block());
        }
        assert_eq!(group.load(), (1, 1), "five re-evaluations, one entry");
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        let _ = AdmissionGroup::new(0, SchedulerPolicy::Fifo);
    }

    fn limiter(burst: u64, rate: f64, clock: &ManualClock) -> Arc<RateLimiter> {
        Arc::new(RateLimiter::new(
            RateLimiterConfig {
                burst,
                tokens_per_second: rate,
            },
            Arc::new(clock.clone()),
        ))
    }

    #[test]
    fn rate_limit_aborts_when_drained() {
        let clock = ManualClock::new();
        let mut a = RateLimitAspect::new(limiter(1, 1.0, &clock), ThrottleMode::Abort);
        let mut c = ctx(1);
        assert!(a.precondition(&mut c).is_resume());
        match a.precondition(&mut c) {
            Verdict::Abort(r) => assert!(r.message().contains("rate limit")),
            other => panic!("expected abort, got {other:?}"),
        }
        clock.advance(std::time::Duration::from_secs(1));
        assert!(a.precondition(&mut c).is_resume());
    }

    #[test]
    fn rate_limit_blocks_in_block_mode() {
        let clock = ManualClock::new();
        let mut a = RateLimitAspect::new(limiter(1, 1.0, &clock), ThrottleMode::Block);
        let mut c = ctx(1);
        assert!(a.precondition(&mut c).is_resume());
        assert!(a.precondition(&mut c).is_block());
    }

    #[test]
    fn rate_limit_release_returns_token() {
        let clock = ManualClock::new();
        let l = limiter(1, 0.001, &clock);
        let mut a = RateLimitAspect::new(Arc::clone(&l), ThrottleMode::Abort);
        let mut c = ctx(1);
        assert!(a.precondition(&mut c).is_resume());
        assert_eq!(l.available(), 0);
        a.on_release(&c, ReleaseCause::Blocked);
        assert_eq!(l.available(), 1);
    }
}
