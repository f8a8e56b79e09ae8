//! Coordination aspects beyond the bounded buffer: rendezvous barriers,
//! resource leases and deadlines.
//!
//! "Coordination" closes the paper's list of interaction properties.
//! These aspects show the same pre/post protocol expressing coordination
//! patterns the paper never worked out:
//!
//! * [`BarrierAspect`] — a method that only proceeds once `k` callers
//!   have arrived (batch commit, all-or-nothing starts);
//! * [`ResourceLeaseAspect`] — each activation borrows one item from a
//!   [`ResourcePool`], attached to the invocation context for the method
//!   body, returned at post-activation;
//! * [`DeadlineAspect`] — activations carrying a [`Deadline`] abort once
//!   it has passed (admission control for latency budgets).

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use amf_concurrency::{Clock, ResourcePool, SystemClock};
use amf_core::{Aspect, InvocationContext, ReleaseCause, Verdict};

/// Rendezvous gate: activations block until `k` of them have arrived,
/// then the whole cohort proceeds.
///
/// Waiters are woken by the moderator's normal notification flow: the
/// `k`-th arrival resumes immediately, and each completing activation's
/// post-activation wakes the next cohort member. A caller that times
/// out deregisters itself (via `on_cancel`) without poisoning the
/// barrier.
///
/// A release undoes exactly what the same pass's precondition did, so
/// the moderator need not wake the method's waiters after a rollback:
/// if the `k`-th arrival's chain blocks or aborts further in, its
/// cohort never formed and the members keep waiting for an arrival
/// that gets through.
pub struct BarrierAspect {
    k: usize,
    waiting: HashSet<u64>,
    released: HashSet<u64>,
    generations: u64,
    /// The cohort the latest precondition completed: `(arrival,
    /// members, arrival was already waiting)`, kept until the next
    /// precondition so the arrival's release can undo it.
    completed: Option<(u64, Vec<u64>, bool)>,
}

impl fmt::Debug for BarrierAspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BarrierAspect")
            .field("k", &self.k)
            .field("waiting", &self.waiting.len())
            .field("released", &self.released.len())
            .field("generations", &self.generations)
            .finish()
    }
}

impl BarrierAspect {
    /// A barrier releasing cohorts of `k` activations.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "barrier cohort must be positive");
        Self {
            k,
            waiting: HashSet::new(),
            released: HashSet::new(),
            generations: 0,
            completed: None,
        }
    }

    /// Completed cohorts so far.
    pub fn generations(&self) -> u64 {
        self.generations
    }
}

impl Aspect for BarrierAspect {
    fn precondition(&mut self, ctx: &mut InvocationContext) -> Verdict {
        let inv = ctx.invocation();
        self.completed = None;
        if self.released.remove(&inv) {
            return Verdict::Resume;
        }
        let was_waiting = !self.waiting.insert(inv);
        if self.waiting.len() >= self.k {
            self.generations += 1;
            self.waiting.remove(&inv);
            let cohort: Vec<u64> = self.waiting.drain().collect();
            self.released.extend(cohort.iter().copied());
            self.completed = Some((inv, cohort, was_waiting));
            Verdict::Resume
        } else {
            Verdict::Block
        }
    }

    fn postaction(&mut self, _ctx: &mut InvocationContext) {}

    fn on_release(&mut self, ctx: &InvocationContext, cause: ReleaseCause) {
        let inv = ctx.invocation();
        match self.completed.take() {
            // The arrival that completed a cohort rolled back: the
            // cohort never formed, and its members wait on.
            Some((arrival, cohort, was_waiting)) if arrival == inv => {
                self.generations -= 1;
                for member in cohort {
                    self.released.remove(&member);
                    self.waiting.insert(member);
                }
                if was_waiting && cause == ReleaseCause::Blocked {
                    self.waiting.insert(inv);
                }
            }
            // A released cohort member whose *later* aspect blocked or
            // aborted rejoins the released set, so it passes straight
            // through on re-entry.
            _ => {
                self.released.insert(inv);
            }
        }
    }

    fn on_cancel(&mut self, ctx: &InvocationContext) -> bool {
        // One fewer waiting member completes no cohort.
        let inv = ctx.invocation();
        self.waiting.remove(&inv);
        self.released.remove(&inv);
        false
    }

    fn describe(&self) -> &str {
        "rendezvous barrier"
    }
}

/// Context attribute carrying the resource leased to this activation by
/// a [`ResourceLeaseAspect`]. The method body uses it via
/// [`Lease::get`]/[`Lease::get_mut`], or takes ownership with
/// [`Lease::take`] (assuming responsibility for the item).
///
/// A `Lease` is an RAII token: if it is dropped still holding the item
/// — the activation was rolled back, timed out, or abandoned — the
/// item returns to its pool automatically, so no path leaks pool
/// capacity.
pub struct Lease<T: Send + 'static> {
    item: Option<T>,
    pool: Arc<ResourcePool<T>>,
}

impl<T: Send + fmt::Debug> fmt::Debug for Lease<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lease").field("item", &self.item).finish()
    }
}

impl<T: Send> Lease<T> {
    /// Takes ownership of the leased resource. The taker is then
    /// responsible for returning it to the pool.
    pub fn take(&mut self) -> Option<T> {
        self.item.take()
    }

    /// Reads the leased resource without taking it.
    pub fn get(&self) -> Option<&T> {
        self.item.as_ref()
    }

    /// Mutably borrows the leased resource (the common pattern: use it
    /// inside the method body, let the aspect return it).
    pub fn get_mut(&mut self) -> Option<&mut T> {
        self.item.as_mut()
    }
}

impl<T: Send> Drop for Lease<T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            self.pool.checkin(item);
        }
    }
}

/// Leases one item from a shared [`ResourcePool`] per activation:
/// blocks while the pool is dry, attaches the item to the context as a
/// [`Lease<T>`], and returns it at post-activation.
///
/// Rollback safety: when a later aspect blocks or aborts after the
/// lease resumed, the leased item stays attached to the context — the
/// re-evaluated precondition *reuses* it instead of checking out a
/// second one, and any path that drops the context (timeout, abort)
/// returns the item via [`Lease`]'s destructor.
pub struct ResourceLeaseAspect<T: Send + 'static> {
    pool: Arc<ResourcePool<T>>,
}

impl<T: Send> fmt::Debug for ResourceLeaseAspect<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceLeaseAspect")
            .field("pool", &self.pool)
            .finish()
    }
}

impl<T: Send> ResourceLeaseAspect<T> {
    /// Creates the aspect over a shared pool.
    pub fn new(pool: Arc<ResourcePool<T>>) -> Self {
        Self { pool }
    }
}

impl<T: Send + 'static> Aspect for ResourceLeaseAspect<T> {
    fn precondition(&mut self, ctx: &mut InvocationContext) -> Verdict {
        // Re-evaluation after a rollback: the previous lease is still
        // attached — reuse it.
        if ctx.get::<Lease<T>>().is_some_and(|l| l.get().is_some()) {
            return Verdict::Resume;
        }
        match self.pool.checkout() {
            Some(item) => {
                ctx.insert(Lease {
                    item: Some(item),
                    pool: Arc::clone(&self.pool),
                });
                Verdict::Resume
            }
            None => Verdict::Block,
        }
    }

    fn postaction(&mut self, ctx: &mut InvocationContext) {
        // Dropping the lease returns an untaken item to the pool.
        drop(ctx.remove::<Lease<T>>());
    }

    fn describe(&self) -> &str {
        "resource lease"
    }
}

/// Context attribute: the absolute time (on the aspect's clock) after
/// which the activation is no longer worth running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(pub Duration);

/// Aborts activations whose [`Deadline`] has passed — both on first
/// evaluation and on every re-evaluation after blocking, so a caller
/// parked behind a slow queue fails fast once its budget is gone.
///
/// Activations without a deadline pass through.
pub struct DeadlineAspect {
    clock: Arc<dyn Clock>,
}

impl fmt::Debug for DeadlineAspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeadlineAspect").finish_non_exhaustive()
    }
}

impl DeadlineAspect {
    /// Deadline checks on the system clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SystemClock::new()))
    }

    /// Deadline checks on a caller-supplied clock.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self { clock }
    }

    /// The aspect's clock, for callers computing absolute deadlines.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }
}

impl Default for DeadlineAspect {
    fn default() -> Self {
        Self::new()
    }
}

impl Aspect for DeadlineAspect {
    fn precondition(&mut self, ctx: &mut InvocationContext) -> Verdict {
        match ctx.get::<Deadline>() {
            Some(Deadline(at)) if self.clock.now() > *at => Verdict::abort("deadline exceeded"),
            _ => Verdict::Resume,
        }
    }

    fn postaction(&mut self, _ctx: &mut InvocationContext) {}

    fn describe(&self) -> &str {
        "deadline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_concurrency::ManualClock;
    use amf_core::MethodId;

    fn ctx(invocation: u64) -> InvocationContext {
        InvocationContext::new(MethodId::new("m"), invocation)
    }

    #[test]
    fn barrier_releases_cohort_of_k() {
        let mut b = BarrierAspect::new(3);
        let mut c1 = ctx(1);
        let mut c2 = ctx(2);
        let mut c3 = ctx(3);
        assert!(b.precondition(&mut c1).is_block());
        assert!(b.precondition(&mut c2).is_block());
        // Third arrival trips the barrier and passes.
        assert!(b.precondition(&mut c3).is_resume());
        assert_eq!(b.generations(), 1);
        // The parked two pass on re-evaluation.
        assert!(b.precondition(&mut c1).is_resume());
        assert!(b.precondition(&mut c2).is_resume());
        // A fresh arrival starts the next generation.
        let mut c4 = ctx(4);
        assert!(b.precondition(&mut c4).is_block());
    }

    #[test]
    fn barrier_cancel_removes_waiter() {
        let mut b = BarrierAspect::new(2);
        let mut c1 = ctx(1);
        let c1_ref = ctx(1);
        assert!(b.precondition(&mut c1).is_block());
        b.on_cancel(&c1_ref);
        // A single new arrival must NOT be released by the ghost.
        let mut c2 = ctx(2);
        assert!(b.precondition(&mut c2).is_block());
        let mut c3 = ctx(3);
        assert!(b.precondition(&mut c3).is_resume());
    }

    #[test]
    fn barrier_release_rejoins_cohort() {
        let mut b = BarrierAspect::new(2);
        let mut c1 = ctx(1);
        let mut c2 = ctx(2);
        assert!(b.precondition(&mut c1).is_block());
        assert!(b.precondition(&mut c2).is_resume());
        // c2's later aspect blocked; on re-entry it passes straight
        // through instead of waiting for a whole new cohort.
        b.on_release(&ctx(2), ReleaseCause::Blocked);
        assert!(b.precondition(&mut c2).is_resume());
        // So does a released member whose later aspect blocked.
        assert!(b.precondition(&mut c1).is_resume());
        b.on_release(&ctx(1), ReleaseCause::Blocked);
        assert!(b.precondition(&mut c1).is_resume());
        assert_eq!(b.generations(), 1);
    }

    #[test]
    fn completing_arrival_rollback_undoes_the_cohort() {
        let mut b = BarrierAspect::new(2);
        let mut c1 = ctx(1);
        let mut c2 = ctx(2);
        assert!(b.precondition(&mut c1).is_block());
        assert!(b.precondition(&mut c2).is_resume());
        // c2's later aspect aborted: no cohort formed, so c1 still
        // waits, and c2 is gone.
        b.on_release(&ctx(2), ReleaseCause::Aborted);
        assert_eq!(b.generations(), 0);
        assert!(b.precondition(&mut c1).is_block());
        let mut c3 = ctx(3);
        assert!(b.precondition(&mut c3).is_resume());
        assert!(b.precondition(&mut c1).is_resume());
        assert_eq!(b.generations(), 1);
    }

    #[test]
    #[should_panic(expected = "cohort must be positive")]
    fn zero_barrier_rejected() {
        let _ = BarrierAspect::new(0);
    }

    #[test]
    fn lease_attaches_and_returns_resource() {
        let pool = Arc::new(ResourcePool::new(vec!["conn"]));
        let mut a = ResourceLeaseAspect::new(Arc::clone(&pool));
        let mut c = ctx(1);
        assert!(a.precondition(&mut c).is_resume());
        assert_eq!(pool.available(), 0);
        assert_eq!(
            c.get::<Lease<&str>>().and_then(Lease::get).copied(),
            Some("conn")
        );
        a.postaction(&mut c);
        assert_eq!(pool.available(), 1);
        assert!(!c.contains::<Lease<&str>>());
    }

    #[test]
    fn lease_blocks_on_dry_pool() {
        let pool = Arc::new(ResourcePool::new(vec![1_u32]));
        let mut a = ResourceLeaseAspect::new(Arc::clone(&pool));
        let mut c1 = ctx(1);
        let mut c2 = ctx(2);
        assert!(a.precondition(&mut c1).is_resume());
        assert!(a.precondition(&mut c2).is_block());
        a.postaction(&mut c1);
        assert!(a.precondition(&mut c2).is_resume());
    }

    #[test]
    fn lease_taken_by_body_is_callers_responsibility() {
        let pool = Arc::new(ResourcePool::new(vec![9_u32]));
        let mut a = ResourceLeaseAspect::new(Arc::clone(&pool));
        let mut c = ctx(1);
        a.precondition(&mut c);
        let item = c.get_mut::<Lease<u32>>().unwrap().take().unwrap();
        a.postaction(&mut c); // nothing to return
        assert_eq!(pool.available(), 0);
        pool.checkin(item);
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn reevaluation_reuses_the_existing_lease() {
        // A later aspect blocked after the lease resumed; on the next
        // pass the precondition must NOT check out a second item.
        let pool = Arc::new(ResourcePool::new(vec!["only"]));
        let mut a = ResourceLeaseAspect::new(Arc::clone(&pool));
        let mut c = ctx(1);
        assert!(a.precondition(&mut c).is_resume());
        assert_eq!(pool.available(), 0);
        // Rollback happened (on_release is a no-op for leases), chain
        // re-evaluates with the same context:
        assert!(a.precondition(&mut c).is_resume());
        assert_eq!(pool.available(), 0, "no double checkout");
        a.postaction(&mut c);
        assert_eq!(pool.available(), 1, "single item returned once");
    }

    #[test]
    fn dropped_context_returns_the_lease() {
        // Timeout/abort paths drop the invocation context; the lease's
        // destructor must hand the item back.
        let pool = Arc::new(ResourcePool::new(vec![1_u8, 2]));
        let mut a = ResourceLeaseAspect::new(Arc::clone(&pool));
        {
            let mut c = ctx(1);
            assert!(a.precondition(&mut c).is_resume());
            assert_eq!(pool.available(), 1);
            // c dropped here without any postaction.
        }
        assert_eq!(pool.available(), 2, "destructor returned the item");
    }

    #[test]
    fn deadline_aborts_past_budget() {
        let clock = ManualClock::new();
        let mut a = DeadlineAspect::with_clock(Arc::new(clock.clone()));
        let mut c = ctx(1);
        c.insert(Deadline(Duration::from_millis(100)));
        assert!(a.precondition(&mut c).is_resume());
        clock.advance(Duration::from_millis(101));
        match a.precondition(&mut c) {
            Verdict::Abort(r) => assert!(r.message().contains("deadline")),
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn no_deadline_passes_through() {
        let mut a = DeadlineAspect::new();
        let mut c = ctx(1);
        assert!(a.precondition(&mut c).is_resume());
        let _ = a.now();
    }
}
