//! The activation protocol: chain evaluation, pre-activation (blocking,
//! timed, split into a first pass and a continuation, and
//! non-blocking), rollback, and post-activation.
//!
//! Everything here runs against the engine-agnostic waitpoint of the
//! method's cell ([`Waiter`](amf_concurrency::Waiter)) and the shared
//! ticketed FIFO discipline
//! ([`TicketQueue`](amf_concurrency::TicketQueue)); no concrete parking
//! primitive is named. See the module docs in [`super`] for the
//! locking model and the fairness/batching disciplines.
//!
//! Blocking pre-activation is one loop in two parts. The *first pass*
//! evaluates the chain once under the cell lock; if an aspect blocks,
//! it does the first-block bookkeeping and stops. The *continuation*
//! parks and re-evaluates until the chain resumes, aborts or times out.
//! [`AspectModerator::preactivation`] runs both with the lock held
//! throughout; [`AspectModerator::begin_preactivation`] returns after
//! the first pass, so a caller that must not park (an event loop) can
//! hand only the blocked invocations to a thread that may, which runs
//! [`AspectModerator::finish_preactivation`].

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use amf_concurrency::Grant;
use parking_lot::MutexGuard;

use super::cell::{CellState, FastAdmit, Resolved};
use super::fault::panic_message;
use super::queue::refresh_lane;
use super::stats::inc;
use super::{
    AspectModerator, FairnessPolicy, MethodHandle, OrderingPolicy, PanicPolicy, RollbackPolicy,
    ROLLBACK_RECHECK,
};
use crate::aspect::ReleaseCause;
use crate::bank::MethodIndex;
use crate::concern::Concern;
use crate::context::InvocationContext;
use crate::error::AbortError;
use crate::trace::EventKind;
use crate::verdict::Verdict;

/// Outcome of one pass over a method's precondition chain. `released`
/// counts the rollback releases the pass performed; a non-zero count
/// obliges the caller to send a rollback notification (module docs).
pub(super) enum ChainOutcome {
    Resumed,
    Blocked { released: usize },
    Aborted(Abort),
}

/// An aborted chain pass.
pub(super) struct Abort {
    concern: Concern,
    reason: crate::verdict::AbortReason,
    released: usize,
    /// True when the abort is a contained aspect panic rather than a
    /// `Verdict::Abort`; surfaced as [`AbortError::AspectPanicked`].
    panicked: bool,
}

/// Where a blocked pre-activation stands between two evaluations.
#[derive(Debug, Clone, Copy)]
struct Wait {
    /// When to give up, on the moderator's clock.
    deadline: Option<Duration>,
    /// When the caller first blocked; set by the first blocked pass.
    blocked_at: Option<Duration>,
    /// The rollback-recheck backstop (module docs), when armed.
    backstop: Option<Duration>,
    /// The caller's ticket under [`FairnessPolicy::Fifo`].
    ticket: Option<u64>,
    /// The row's wake generation at the end of the last blocked pass,
    /// under [`FairnessPolicy::Barging`] (`CellState::note_wake`).
    seen: u64,
}

impl Wait {
    fn new(deadline: Option<Duration>) -> Self {
        Self {
            deadline,
            blocked_at: None,
            backstop: None,
            ticket: None,
            seen: 0,
        }
    }
}

/// How one evaluation left a pre-activation.
enum Pass {
    /// Resumed (`Ok`) or aborted: pre-activation is over.
    Done(Result<(), AbortError>),
    /// An aspect blocked; the caller is registered as a waiter.
    Blocked,
}

/// What the first pass of pre-activation reached without parking; see
/// [`AspectModerator::begin_preactivation`].
#[derive(Debug)]
pub enum FirstPass {
    /// Every aspect resumed: post-activation is owed.
    Resumed,
    /// An aspect blocked. Finish the wait with
    /// [`AspectModerator::finish_preactivation`] or withdraw it with
    /// [`AspectModerator::cancel_preactivation`].
    Pending(PendingActivation),
}

/// A pre-activation whose first pass blocked, registered as a waiter in
/// its method's cell. Owned and `Send + 'static`, so a different thread
/// can finish it. Dropping it without finishing or cancelling leaves
/// the waiter registered (under Fifo, a ticket nobody will serve).
pub struct PendingActivation {
    method: MethodHandle,
    r: Resolved,
    wait: Wait,
}

impl PendingActivation {
    /// The method whose pre-activation is pending.
    pub fn method(&self) -> &MethodHandle {
        &self.method
    }
}

impl fmt::Debug for PendingActivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingActivation")
            .field("method", &self.method.id)
            .field("ticket", &self.wait.ticket)
            .finish_non_exhaustive()
    }
}

impl AspectModerator {
    /// Index of the `pos`-th aspect (of `n`) in precondition order.
    #[inline]
    pub(super) fn pre_index(&self, pos: usize, n: usize) -> usize {
        match self.ordering {
            OrderingPolicy::Nested => n - 1 - pos,
            OrderingPolicy::Declaration => pos,
        }
    }

    /// Index of the `pos`-th aspect (of `n`) in postaction order —
    /// the reverse of the precondition order (proper nesting).
    #[inline]
    pub(super) fn post_index(&self, pos: usize, n: usize) -> usize {
        match self.ordering {
            OrderingPolicy::Nested => pos,
            OrderingPolicy::Declaration => n - 1 - pos,
        }
    }

    /// One pass over the chain, under the method's cell lock. On
    /// `Blocked` or `Aborted`, earlier-resumed aspects have been released
    /// per policy and the release count is reported in the outcome.
    ///
    /// Under a containing [`PanicPolicy`] each precondition runs inside
    /// `catch_unwind`; a panic is treated as an abort at that position
    /// (same prefix rollback), and quarantined slots are skipped
    /// (evaluate as `Resume` without running).
    pub(super) fn evaluate_chain(
        &self,
        state: &mut CellState,
        slot: MethodIndex,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        r: &Resolved,
    ) -> ChainOutcome {
        let n = state.bank.concern_count(slot);
        let traced = self.trace.is_some();
        let contain = self.panic_policy != PanicPolicy::Propagate;
        let CellState {
            bank,
            queues,
            faults,
            wake_gens,
            ..
        } = state;
        let row = bank.row_mut(slot);
        let queue = &mut queues[slot.as_usize()];
        let wake_gen = &mut wake_gens[slot.as_usize()];
        let fault_map = &mut faults[slot.as_usize()];
        for pos in 0..n {
            let idx = self.pre_index(pos, n);
            let (concern, aspect) = &mut row.aspects[idx];
            if contain && Self::is_quarantined(fault_map, concern) {
                continue;
            }
            let verdict = if contain {
                match catch_unwind(AssertUnwindSafe(|| aspect.precondition(ctx))) {
                    Ok(v) => v,
                    Err(payload) => {
                        let concern = concern.clone();
                        let message = panic_message(payload.as_ref());
                        self.note_panic(
                            fault_map,
                            queue,
                            wake_gen,
                            &r.point,
                            &r.lane,
                            &mut row.fast_eligible,
                            &method.id,
                            &concern,
                            ctx.invocation(),
                            &r.stats,
                        );
                        // Same compensation path as a mid-chain Abort:
                        // unwind the already-evaluated prefix so no
                        // reservation leaks past the panic.
                        let released = self.release_prefix(
                            row,
                            fault_map,
                            queue,
                            wake_gen,
                            pos,
                            n,
                            ctx,
                            ReleaseCause::Aborted,
                            r,
                        );
                        return ChainOutcome::Aborted(Abort {
                            concern,
                            reason: crate::verdict::AbortReason::new(message),
                            released,
                            panicked: true,
                        });
                    }
                }
            } else {
                aspect.precondition(ctx)
            };
            match verdict {
                Verdict::Resume => {
                    if traced {
                        let concern = concern.clone();
                        self.emit(
                            ctx.invocation(),
                            &method.id,
                            Some(concern),
                            EventKind::PreconditionResumed,
                        );
                    }
                }
                Verdict::Block => {
                    if traced {
                        let concern = concern.clone();
                        self.emit(
                            ctx.invocation(),
                            &method.id,
                            Some(concern),
                            EventKind::PreconditionBlocked,
                        );
                    }
                    let released = self.release_prefix(
                        row,
                        fault_map,
                        queue,
                        wake_gen,
                        pos,
                        n,
                        ctx,
                        ReleaseCause::Blocked,
                        r,
                    );
                    return ChainOutcome::Blocked { released };
                }
                Verdict::Abort(reason) => {
                    let concern = concern.clone();
                    if traced {
                        self.emit(
                            ctx.invocation(),
                            &method.id,
                            Some(concern.clone()),
                            EventKind::PreconditionAborted,
                        );
                    }
                    let released = self.release_prefix(
                        row,
                        fault_map,
                        queue,
                        wake_gen,
                        pos,
                        n,
                        ctx,
                        ReleaseCause::Aborted,
                        r,
                    );
                    return ChainOutcome::Aborted(Abort {
                        concern,
                        reason,
                        released,
                        panicked: false,
                    });
                }
            }
        }
        ChainOutcome::Resumed
    }

    /// Releases the `evaluated` already-resumed aspects (precondition
    /// positions `0..evaluated`) in reverse evaluation order — unwinding
    /// the onion. Returns the number of release deliveries attempted.
    ///
    /// Under a containing [`PanicPolicy`], quarantined slots are skipped
    /// (their precondition never ran in this pass, so there is nothing
    /// to undo) and a panicking `on_release` is caught and counted so
    /// the unwind still reaches every remaining aspect in the prefix.
    #[allow(clippy::too_many_arguments)]
    fn release_prefix(
        &self,
        row: &mut crate::bank::MethodRow,
        fault_map: &mut std::collections::HashMap<Concern, super::fault::SlotFault>,
        queue: &mut amf_concurrency::TicketQueue,
        wake_gen: &mut u64,
        evaluated: usize,
        n: usize,
        ctx: &InvocationContext,
        cause: ReleaseCause,
        r: &Resolved,
    ) -> usize {
        if self.rollback == RollbackPolicy::None {
            return 0;
        }
        let contain = self.panic_policy != PanicPolicy::Propagate;
        let mut attempted = 0;
        for pos in (0..evaluated).rev() {
            let idx = self.pre_index(pos, n);
            let (concern, aspect) = &mut row.aspects[idx];
            if contain && Self::is_quarantined(fault_map, concern) {
                continue;
            }
            attempted += 1;
            let delivered = if contain {
                catch_unwind(AssertUnwindSafe(|| aspect.on_release(ctx, cause))).is_ok()
            } else {
                aspect.on_release(ctx, cause);
                true
            };
            if delivered {
                inc(&r.stats.releases);
                if self.trace.is_some() {
                    self.emit(
                        ctx.invocation(),
                        ctx.method(),
                        Some(concern.clone()),
                        EventKind::AspectReleased,
                    );
                }
            } else {
                let concern = concern.clone();
                self.note_panic(
                    fault_map,
                    queue,
                    wake_gen,
                    &r.point,
                    &r.lane,
                    &mut row.fast_eligible,
                    ctx.method(),
                    &concern,
                    ctx.invocation(),
                    &r.stats,
                );
            }
        }
        attempted
    }

    /// Runs the pre-activation phase for one invocation, blocking until
    /// every registered aspect resumes.
    ///
    /// This is the first pass of
    /// [`begin_preactivation`](Self::begin_preactivation) followed by
    /// the continuation of
    /// [`finish_preactivation`](Self::finish_preactivation), with the
    /// cell lock held from one into the other.
    ///
    /// # Errors
    ///
    /// [`AbortError::Aspect`] if any aspect's precondition aborts.
    pub fn preactivation(
        &self,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
    ) -> Result<(), AbortError> {
        self.preactivate(method, ctx, None)
    }

    /// Like [`AspectModerator::preactivation`] but gives up after
    /// `timeout` spent blocked.
    ///
    /// # Errors
    ///
    /// [`AbortError::Aspect`] on an aspect abort, [`AbortError::Timeout`]
    /// if the timeout elapses while blocked.
    pub fn preactivation_timeout(
        &self,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        timeout: std::time::Duration,
    ) -> Result<(), AbortError> {
        self.preactivate(method, ctx, Some(timeout))
    }

    fn preactivate(
        &self,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        timeout: Option<Duration>,
    ) -> Result<(), AbortError> {
        let mut wait = Wait::new(timeout.map(|t| self.clock.now() + t));
        if self.admit_fast(method, ctx) == FastAdmit::Admitted {
            return Ok(());
        }
        let r = self.resolve(method);
        let mut state = r.cell.state.lock();
        match self.first_pass(&r, &mut state, method, ctx, &mut wait) {
            Pass::Done(result) => result,
            Pass::Blocked => self.wait_out(&r, state, method, ctx, &mut wait),
        }
    }

    /// The non-blocking first pass of pre-activation: the fast lane,
    /// then one evaluation of the chain under the cell lock. Never
    /// parks.
    ///
    /// [`FirstPass::Resumed`] means every aspect resumed and
    /// post-activation is owed. [`FirstPass::Pending`] means an aspect
    /// blocked, and the pending activation has already done what the
    /// blocking form does when it first blocks: counted the block,
    /// closed the fast lane, registered as a waiter (under
    /// [`FairnessPolicy::Fifo`], taken its ticket) and traced
    /// `WaitStarted`. Finishing it with
    /// [`finish_preactivation`](Self::finish_preactivation), on any
    /// thread, leaves the same trace and counters as one call to
    /// [`preactivation_timeout`](Self::preactivation_timeout) (or
    /// [`preactivation`](Self::preactivation) when `timeout` is
    /// `None`). The timeout runs from this call.
    ///
    /// # Errors
    ///
    /// [`AbortError::Aspect`] or [`AbortError::AspectPanicked`] if a
    /// precondition aborts in the first pass.
    pub fn begin_preactivation(
        &self,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        timeout: Option<Duration>,
    ) -> Result<FirstPass, AbortError> {
        let mut wait = Wait::new(timeout.map(|t| self.clock.now() + t));
        if self.admit_fast(method, ctx) == FastAdmit::Admitted {
            return Ok(FirstPass::Resumed);
        }
        let r = self.resolve(method);
        let pass = self.first_pass(&r, &mut r.cell.state.lock(), method, ctx, &mut wait);
        match pass {
            Pass::Done(result) => result.map(|()| FirstPass::Resumed),
            Pass::Blocked => Ok(FirstPass::Pending(PendingActivation {
                method: method.clone(),
                r,
                wait,
            })),
        }
    }

    /// The continuation of a pending pre-activation: re-takes the cell
    /// lock and runs the blocking form's wait loop — park, re-evaluate
    /// on each wake, give up at the deadline.
    ///
    /// A wake that landed between the first pass and this call, while
    /// no lock was held, is not lost. Under [`FairnessPolicy::Fifo`] it
    /// persisted as a queue permit for the pending ticket. Under
    /// [`FairnessPolicy::Barging`] it moved the method's wake
    /// generation past the one the first pass saw, and the
    /// continuation re-evaluates at once instead of parking.
    ///
    /// `pending` must come from this moderator and `ctx` must be the
    /// context its first pass ran with.
    ///
    /// # Errors
    ///
    /// As [`preactivation_timeout`](Self::preactivation_timeout).
    pub fn finish_preactivation(
        &self,
        pending: PendingActivation,
        ctx: &mut InvocationContext,
    ) -> Result<(), AbortError> {
        let PendingActivation {
            method,
            r,
            mut wait,
        } = pending;
        let state = r.cell.state.lock();
        self.wait_out(&r, state, &method, ctx, &mut wait)
    }

    /// Withdraws a pending pre-activation without waiting: the clean-up
    /// of a timeout (the waiter leaves, its ticket goes to its
    /// successor, every aspect gets `on_cancel`, `ActivationAborted` is
    /// traced), not counted as one.
    pub fn cancel_preactivation(&self, pending: PendingActivation, ctx: &InvocationContext) {
        let PendingActivation { method, r, wait } = pending;
        let mut state = r.cell.state.lock();
        self.give_up(&r, &mut state, &method, ctx, &wait);
    }

    /// Two-phase admission, phase one: a single CAS on the method's
    /// lane word. A successful CAS *proves* the lane was open at the
    /// admission instant — the whole eligibility predicate is encoded
    /// in the word, so there is no check-then-act window. The chain
    /// is not evaluated at all: every aspect of an eligible row has
    /// declared its callbacks pure, so skipping them is unobservable.
    ///
    /// The attempt runs under the registry read guard so the
    /// uncontended hot path never clones an `Arc` out of the registry:
    /// an admitted invocation costs one read-lock round trip, the
    /// admission CAS and its stat bumps — [`resolve`] (four
    /// reference-count increments and their matching drops) is paid
    /// only on the locked path. Trace events fire after the guard
    /// drops so a sink can safely re-enter the moderator.
    ///
    /// On `Admitted` the context owes a lock-free lane release.
    ///
    /// [`resolve`]: AspectModerator::resolve
    fn admit_fast(&self, method: &MethodHandle, ctx: &mut InvocationContext) -> FastAdmit {
        let verdict = {
            let registry = self.registry.read();
            registry.check(method);
            let entry = &registry.entries[method.index.as_usize()];
            inc(&entry.stats.preactivations);
            let verdict = entry.lane.try_admit();
            match verdict {
                FastAdmit::Admitted => {
                    inc(&entry.stats.fast_path_admits);
                    inc(&entry.stats.resumes);
                    ctx.fast_admitted = true;
                }
                FastAdmit::Contended => inc(&entry.stats.fast_path_fallbacks),
                FastAdmit::Closed => {}
            }
            verdict
        };
        self.emit(
            ctx.invocation(),
            &method.id,
            None,
            EventKind::PreactivationStarted,
        );
        if verdict == FastAdmit::Admitted {
            self.emit(
                ctx.invocation(),
                &method.id,
                None,
                EventKind::ActivationResumed,
            );
        }
        verdict
    }

    /// The first evaluation, with the cell lock held. Under
    /// [`FairnessPolicy::Fifo`] a caller arriving to a non-empty queue
    /// takes a ticket and blocks without evaluating — even if its chain
    /// would resume — which is what prevents barging.
    fn first_pass(
        &self,
        r: &Resolved,
        state: &mut MutexGuard<'_, CellState>,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        wait: &mut Wait,
    ) -> Pass {
        match self.fairness {
            FairnessPolicy::Barging => self.pass_barging(r, state, method, ctx, wait),
            FairnessPolicy::Fifo if state.queues[r.slot.as_usize()].has_waiters() => {
                self.enqueue(r, state, wait);
                inc(&r.stats.blocks);
                self.emit(ctx.invocation(), &method.id, None, EventKind::WaitStarted);
                Pass::Blocked
            }
            FairnessPolicy::Fifo => self.pass_fifo(r, state, method, ctx, wait, Grant::First),
        }
    }

    /// The wait loop after a blocked first pass, shared by the blocking
    /// form (entered with the first pass's lock still held) and the
    /// continuation (entered with the lock re-taken): park until woken,
    /// the deadline or the rollback backstop, re-evaluate, repeat.
    ///
    /// Under [`FairnessPolicy::Fifo`] the caller evaluates its chain
    /// only while holding a *grant*: a queue permit naming its ticket
    /// (head signal or sweep cursor — including a batched extension
    /// left by a departing predecessor), or the rollback-recheck
    /// backstop. Queue order equals ticket order equals park order, all
    /// maintained under the cell lock.
    ///
    /// With [`ModeratorBuilder::grant_batching`] enabled (the default),
    /// a departing holder whose settle leaves no permit pending extends
    /// its grant to the new queue front
    /// ([`TicketQueue::settle`](amf_concurrency::TicketQueue::settle)):
    /// when one wake freed k resources, the front-k prefix drains in one
    /// continuous cursor-ordered sweep of the cell lock — each admission
    /// settles under the lock its predecessor just released — instead of
    /// k separate notification round trips. Successful batched
    /// admissions are counted in [`ModeratorStats::batched_grants`].
    ///
    /// [`ModeratorBuilder::grant_batching`]: super::ModeratorBuilder::grant_batching
    /// [`ModeratorStats::batched_grants`]: super::ModeratorStats::batched_grants
    fn wait_out(
        &self,
        r: &Resolved,
        mut state: MutexGuard<'_, CellState>,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        wait: &mut Wait,
    ) -> Result<(), AbortError> {
        let slot = r.slot.as_usize();
        loop {
            let pass = match self.fairness {
                FairnessPolicy::Barging => {
                    // A generation other than the one the last blocked
                    // pass saw means a wake landed while the lock was
                    // released: re-evaluate instead of parking.
                    if state.wake_gens[slot] == wait.seen && self.park(r, &mut state, wait) {
                        return Err(self.time_out(r, &mut state, method, ctx, wait));
                    }
                    inc(&r.stats.wakeups);
                    self.emit(ctx.invocation(), &method.id, None, EventKind::WaitWoken);
                    self.pass_barging(r, &mut state, method, ctx, wait)
                }
                FairnessPolicy::Fifo => {
                    let ticket = wait.ticket.expect("a blocked Fifo caller holds a ticket");
                    let grant = state.queues[slot].grant_for(ticket).or_else(|| {
                        wait.backstop
                            .is_some_and(|b| self.clock.now() >= b)
                            .then_some(Grant::Backstop)
                    });
                    let Some(grant) = grant else {
                        if self.park(r, &mut state, wait) {
                            return Err(self.time_out(r, &mut state, method, ctx, wait));
                        }
                        continue;
                    };
                    inc(&r.stats.wakeups);
                    self.emit(ctx.invocation(), &method.id, None, EventKind::WaitWoken);
                    if grant == Grant::Backstop {
                        // One out-of-band re-check per arming; re-armed
                        // only if this evaluation rolls back again.
                        wait.backstop = None;
                    }
                    self.pass_fifo(r, &mut state, method, ctx, wait, grant)
                }
            };
            if let Pass::Done(result) = pass {
                return result;
            }
        }
    }

    /// Parks once, until a wake, the deadline or the rollback backstop.
    /// Returns whether the deadline has passed.
    fn park(&self, r: &Resolved, state: &mut MutexGuard<'_, CellState>, wait: &Wait) -> bool {
        let until = match (wait.deadline, wait.backstop) {
            (Some(d), Some(b)) => Some(d.min(b)),
            (d, b) => d.or(b),
        };
        let Some(until) = until else {
            r.point.park(state);
            return false;
        };
        let remaining = until.saturating_sub(self.clock.now());
        let timed_out = r.point.park_for(state, remaining);
        timed_out && wait.deadline.is_some_and(|d| self.clock.now() >= d)
    }

    fn time_out(
        &self,
        r: &Resolved,
        state: &mut CellState,
        method: &MethodHandle,
        ctx: &InvocationContext,
        wait: &Wait,
    ) -> AbortError {
        inc(&r.stats.timeouts);
        self.give_up(r, state, method, ctx, wait);
        AbortError::Timeout {
            method: method.id.clone(),
        }
    }

    /// Withdraws a blocked caller from its cell.
    fn give_up(
        &self,
        r: &Resolved,
        state: &mut CellState,
        method: &MethodHandle,
        ctx: &InvocationContext,
        wait: &Wait,
    ) {
        let slot = r.slot.as_usize();
        match wait.ticket {
            // Fifo: surrender the ticket. `cancel` re-attaches pending
            // permits to the successor, so the cancellation strands
            // nobody; broadcast so the new head notices its inheritance.
            Some(ticket) => {
                let q = &mut state.queues[slot];
                q.cancel(ticket);
                if q.has_pending() && q.has_waiters() {
                    r.point.wake_all();
                }
            }
            None => state.parked[slot] -= 1,
        }
        r.stats.note_unparked();
        // Let enrollment-style aspects (admission queues) forget this
        // invocation.
        self.cancel_all(state, r.slot, &method.id, ctx, &r.point, &r.lane, &r.stats);
        refresh_lane(state, &r.lane, r.slot);
        self.emit(
            ctx.invocation(),
            &method.id,
            None,
            EventKind::ActivationAborted,
        );
    }

    /// One evaluation under [`FairnessPolicy::Barging`], lock held.
    fn pass_barging(
        &self,
        r: &Resolved,
        state: &mut MutexGuard<'_, CellState>,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        wait: &mut Wait,
    ) -> Pass {
        let slot = r.slot.as_usize();
        match self.evaluate_chain(state, r.slot, method, ctx, r) {
            ChainOutcome::Resumed => {
                if let Some(start) = wait.blocked_at {
                    r.stats.note_unparked();
                    r.stats.record_wait(self.clock.now().saturating_sub(start));
                    state.parked[slot] -= 1;
                    refresh_lane(state, &r.lane, r.slot);
                }
                self.resumed(r, method, ctx);
                Pass::Done(Ok(()))
            }
            ChainOutcome::Aborted(abort) => {
                if wait.blocked_at.is_some() {
                    r.stats.note_unparked();
                    state.parked[slot] -= 1;
                    refresh_lane(state, &r.lane, r.slot);
                }
                Pass::Done(Err(self.aborted(r, state, method, ctx, abort)))
            }
            ChainOutcome::Blocked { released } => {
                inc(&r.stats.blocks);
                if wait.blocked_at.is_none() {
                    // All readings come from the moderator's clock so a
                    // virtual-time engine sees consistent deadlines.
                    wait.blocked_at = Some(self.clock.now());
                    r.stats.note_parked();
                    // Close the lane *before* this caller first parks:
                    // a CAS admission must never overtake a parked
                    // waiter. Reopened only by the departure that
                    // leaves the cell waiter-free (`refresh_lane`).
                    r.lane.close();
                    state.parked[slot] += 1;
                }
                self.emit(ctx.invocation(), &method.id, None, EventKind::WaitStarted);
                wait.backstop = None;
                if released > 0 {
                    // Another method's chain may have blocked against
                    // the reservation this pass just rolled back: wake
                    // it, then park with a short recheck backstop to
                    // close the unlocked window (module docs).
                    self.notify_rollback(r, state, method, ctx, true);
                    wait.backstop = Some(self.clock.now() + ROLLBACK_RECHECK);
                }
                wait.seen = state.wake_gens[slot];
                Pass::Blocked
            }
        }
    }

    /// One evaluation under [`FairnessPolicy::Fifo`] holding `grant`,
    /// lock held.
    ///
    /// On `Blocked { released > 0 }` the caller is already ticketed, so
    /// cross-cell notifications landing while the lock is dropped for
    /// the rollback notification persist as queue permits; its own
    /// re-check still uses the [`ROLLBACK_RECHECK`] backstop (an
    /// out-of-band grant, the one documented exception to strict FIFO),
    /// because granting itself a permit would let a head-of-queue
    /// rollback loop spin hot.
    fn pass_fifo(
        &self,
        r: &Resolved,
        state: &mut MutexGuard<'_, CellState>,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        wait: &mut Wait,
        grant: Grant,
    ) -> Pass {
        match self.evaluate_chain(state, r.slot, method, ctx, r) {
            ChainOutcome::Resumed => {
                self.depart_fifo(r, state, wait, grant, true);
                if let Some(start) = wait.blocked_at {
                    r.stats.record_wait(self.clock.now().saturating_sub(start));
                }
                self.resumed(r, method, ctx);
                Pass::Done(Ok(()))
            }
            ChainOutcome::Aborted(abort) => {
                self.depart_fifo(r, state, wait, grant, false);
                Pass::Done(Err(self.aborted(r, state, method, ctx, abort)))
            }
            ChainOutcome::Blocked { released } => {
                match wait.ticket {
                    Some(t) => {
                        state.queues[r.slot.as_usize()].settle(t, grant, false);
                    }
                    None => self.enqueue(r, state, wait),
                }
                inc(&r.stats.blocks);
                self.emit(ctx.invocation(), &method.id, None, EventKind::WaitStarted);
                if released > 0 {
                    // No own-queue permit: our successors cannot pass
                    // us anyway, and self-granting would make a blocked
                    // queue head spin on its own rollback.
                    self.notify_rollback(r, state, method, ctx, false);
                    wait.backstop = Some(self.clock.now() + ROLLBACK_RECHECK);
                }
                Pass::Blocked
            }
        }
    }

    /// Takes a Fifo ticket — lane closed first, so no CAS admission
    /// overtakes it — and starts the wait clock. The caller counts the
    /// block.
    fn enqueue(&self, r: &Resolved, state: &mut CellState, wait: &mut Wait) {
        r.lane.close();
        wait.ticket = Some(state.queues[r.slot.as_usize()].enqueue());
        inc(&r.stats.tickets_issued);
        r.stats.note_parked();
        wait.blocked_at = Some(self.clock.now());
    }

    /// A ticketed Fifo caller leaves the queue after an evaluation that
    /// resumed (`served`) or aborted.
    fn depart_fifo(
        &self,
        r: &Resolved,
        state: &mut CellState,
        wait: &Wait,
        grant: Grant,
        served: bool,
    ) {
        let Some(ticket) = wait.ticket else {
            return;
        };
        let q = &mut state.queues[r.slot.as_usize()];
        if q.settle(ticket, grant, true) {
            inc(&r.stats.batched_grants);
        }
        if served {
            inc(&r.stats.tickets_served);
        }
        r.stats.note_unparked();
        if q.has_pending() && q.has_waiters() {
            r.point.wake_all();
        }
        // This departure may have drained the queue — the one transition
        // allowed to reopen the lane.
        refresh_lane(state, &r.lane, r.slot);
    }

    fn resumed(&self, r: &Resolved, method: &MethodHandle, ctx: &InvocationContext) {
        inc(&r.stats.resumes);
        self.emit(
            ctx.invocation(),
            &method.id,
            None,
            EventKind::ActivationResumed,
        );
    }

    /// Counts and traces an abort, sends the rollback notification the
    /// chain's releases owe, and builds the error.
    fn aborted(
        &self,
        r: &Resolved,
        state: &mut MutexGuard<'_, CellState>,
        method: &MethodHandle,
        ctx: &InvocationContext,
        abort: Abort,
    ) -> AbortError {
        inc(&r.stats.aborts);
        self.emit(
            ctx.invocation(),
            &method.id,
            None,
            EventKind::ActivationAborted,
        );
        if abort.released > 0 {
            self.notify_rollback(r, state, method, ctx, true);
        }
        Self::abort_error(&method.id, abort.concern, abort.reason, abort.panicked)
    }

    /// The rollback notification (module docs): a pass that released
    /// reservations notifies the method's wake targets — with the cell
    /// lock released, per the notify discipline — and, with `own`, the
    /// method's own waiters first.
    fn notify_rollback(
        &self,
        r: &Resolved,
        state: &mut MutexGuard<'_, CellState>,
        method: &MethodHandle,
        ctx: &InvocationContext,
        own: bool,
    ) {
        let targets = state.wakes[r.slot.as_usize()].clone();
        if own {
            self.wake_own(state, r.slot, &r.point);
        }
        MutexGuard::unlocked(state, || {
            self.notify_targets(&targets, &r.stats, ctx.invocation(), &method.id);
        });
    }

    /// Non-blocking pre-activation: evaluates the chain once and
    /// returns `Ok(false)` instead of parking if any aspect blocks
    /// (earlier reservations are rolled back per policy). `Ok(true)`
    /// means the activation resumed and post-activation is owed.
    ///
    /// # Errors
    ///
    /// [`AbortError::Aspect`] if an aspect's precondition aborts.
    pub fn try_preactivation(
        &self,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
    ) -> Result<bool, AbortError> {
        // Same CAS fast lane as the blocking form; the lane-open
        // predicate subsumes barging prevention (the lane closes before
        // any ticket is issued), so a successful admit cannot overtake
        // a ticketed waiter.
        if self.admit_fast(method, ctx) == FastAdmit::Admitted {
            return Ok(true);
        }
        let r = self.resolve(method);
        let mut state = r.cell.state.lock();
        if self.fairness == FairnessPolicy::Fifo && state.queues[r.slot.as_usize()].has_waiters() {
            // Barging prevention applies to the non-blocking form too:
            // evaluating (and possibly reserving) ahead of ticketed
            // waiters would be exactly the overtake Fifo forbids.
            inc(&r.stats.would_blocks);
            self.emit(
                ctx.invocation(),
                &method.id,
                None,
                EventKind::ActivationAborted,
            );
            return Ok(false);
        }
        match self.evaluate_chain(&mut state, r.slot, method, ctx, &r) {
            ChainOutcome::Resumed => {
                self.resumed(&r, method, ctx);
                Ok(true)
            }
            ChainOutcome::Blocked { released } => {
                // Would block: the chain already rolled back. Counted as
                // a would-block, not an abort — the caller chose not to
                // park; no aspect vetoed anything.
                inc(&r.stats.would_blocks);
                self.emit(
                    ctx.invocation(),
                    &method.id,
                    None,
                    EventKind::ActivationAborted,
                );
                if released > 0 {
                    self.notify_rollback(&r, &mut state, method, ctx, true);
                }
                Ok(false)
            }
            ChainOutcome::Aborted(abort) => Err(self.aborted(&r, &mut state, method, ctx, abort)),
        }
    }

    /// Runs the post-activation phase: every aspect's postaction (in
    /// reverse precondition order) under the method's cell lock, then —
    /// after releasing it — notifies the wait queues wired for this
    /// method under the notify-while-locking-target discipline.
    ///
    /// Under a containing [`PanicPolicy`] a panicking postaction is
    /// caught and counted; the remaining postactions still run and the
    /// activation is still released (post-activation completes, waiters
    /// are notified), so one bad postaction cannot leak the activation.
    pub fn postactivation(&self, method: &MethodHandle, ctx: &mut InvocationContext) {
        // Two-phase admission, phase two: a fast-admitted invocation
        // departs through the matching lock-free release. Skipping the
        // postactions is sound because every aspect of the row declared
        // them pure at admission time; skipping the self-wake and the
        // cross-method notify is sound because lane eligibility requires
        // an empty wake wiring and a waiter-free cell — an invocation
        // that ran no aspects changed nothing any waiter could be
        // blocked on (the no-lost-wake argument, model-checked in
        // `amf-verify`). Like `admit_fast`, the release runs under the
        // registry read guard so the fast departure clones no `Arc`s.
        if ctx.fast_admitted {
            ctx.fast_admitted = false;
            self.emit(
                ctx.invocation(),
                &method.id,
                None,
                EventKind::PostactivationStarted,
            );
            let registry = self.registry.read();
            registry.check(method);
            let entry = &registry.entries[method.index.as_usize()];
            entry.lane.release();
            inc(&entry.stats.postactivations);
            return;
        }
        let r = self.resolve(method);
        self.emit(
            ctx.invocation(),
            &method.id,
            None,
            EventKind::PostactivationStarted,
        );
        let targets = {
            let mut state = r.cell.state.lock();
            let n = state.bank.concern_count(r.slot);
            let traced = self.trace.is_some();
            let contain = self.panic_policy != PanicPolicy::Propagate;
            {
                let CellState {
                    bank,
                    queues,
                    faults,
                    wake_gens,
                    ..
                } = &mut *state;
                let row = bank.row_mut(r.slot);
                let queue = &mut queues[r.slot.as_usize()];
                let wake_gen = &mut wake_gens[r.slot.as_usize()];
                let fault_map = &mut faults[r.slot.as_usize()];
                for pos in 0..n {
                    let idx = self.post_index(pos, n);
                    let (concern, aspect) = &mut row.aspects[idx];
                    if contain && Self::is_quarantined(fault_map, concern) {
                        continue;
                    }
                    let delivered = if contain {
                        catch_unwind(AssertUnwindSafe(|| aspect.postaction(ctx))).is_ok()
                    } else {
                        aspect.postaction(ctx);
                        true
                    };
                    if delivered {
                        if traced {
                            let concern = concern.clone();
                            self.emit(
                                ctx.invocation(),
                                &method.id,
                                Some(concern),
                                EventKind::PostactionRun,
                            );
                        }
                    } else {
                        let concern = concern.clone();
                        self.note_panic(
                            fault_map,
                            queue,
                            wake_gen,
                            &r.point,
                            &r.lane,
                            &mut row.fast_eligible,
                            &method.id,
                            &concern,
                            ctx.invocation(),
                            &r.stats,
                        );
                    }
                }
            }
            inc(&r.stats.postactivations);
            // Postactions may have freed what this method's own waiters
            // block on (active flags, slots): wake them too (module
            // docs: self-wake). `wire_wakes` only governs other queues.
            self.wake_own(&mut state, r.slot, &r.point);
            state.wakes[r.slot.as_usize()].clone()
        };
        self.notify_targets(&targets, &r.stats, ctx.invocation(), &method.id);
    }

    /// Emits the `MethodInvoked` trace event (Figure 3's `open(ticket)`
    /// arrow) on behalf of a proxy between the two phases.
    #[doc(hidden)]
    pub fn trace_method_invoked(&self, method: &MethodHandle, invocation: u64) {
        self.emit(invocation, &method.id, None, EventKind::MethodInvoked);
    }
}
