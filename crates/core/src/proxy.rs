//! The component proxy: guards every participating method of a
//! functional component with the pre-/post-activation protocol.
//!
//! The paper's `TicketServerProxy` overrides each participating method
//! with the idiom of Figure 10:
//!
//! ```java
//! if (moderator.preactivation(OPEN) == RESUME) {
//!     super.open(the_value);
//!     moderator.postactivation(OPEN);
//! }
//! ```
//!
//! [`Moderated<C>`] is the generic Rust proxy: it wraps any sequential
//! component `C` and exposes [`Moderated::invoke`], which runs a closure
//! over `&mut C` between the two phases. For multi-step invocations
//! there is the lower-level RAII [`ActivationGuard`]. A caller that must
//! not park (an event loop) enters with [`Moderated::begin_timeout`]
//! and hands only a [`PendingEntry`] to a thread that may.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use crate::context::{InvocationContext, Outcome, Principal};
use crate::error::AbortError;
use crate::moderator::{AspectModerator, FirstPass, MethodHandle, PendingActivation};

/// A functional component wrapped by the moderation protocol.
///
/// The component itself stays sequential (no internal locking): the proxy
/// serializes direct access with a mutex, and the real concurrency
/// constraints live in the aspects.
///
/// ```
/// use std::sync::Arc;
/// use amf_core::{AspectModerator, Moderated, MethodId};
///
/// let moderator = AspectModerator::shared();
/// let push = moderator.declare_method(MethodId::new("push"));
/// let stack = Moderated::new(Vec::<u32>::new(), Arc::clone(&moderator));
///
/// stack.invoke(&push, |v| v.push(7)).unwrap();
/// assert_eq!(stack.with_component(|v| v.len()), 1);
/// ```
pub struct Moderated<C> {
    component: Mutex<C>,
    moderator: Arc<AspectModerator>,
}

impl<C: fmt::Debug> fmt::Debug for Moderated<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Moderated");
        match self.component.try_lock() {
            Some(c) => s.field("component", &*c),
            None => s.field("component", &"<locked>"),
        };
        s.finish()
    }
}

impl<C> Moderated<C> {
    /// Wraps `component` with the given moderator.
    pub fn new(component: C, moderator: Arc<AspectModerator>) -> Self {
        Self {
            component: Mutex::new(component),
            moderator,
        }
    }

    /// The moderator coordinating this proxy.
    pub fn moderator(&self) -> &Arc<AspectModerator> {
        &self.moderator
    }

    /// Runs `f` over the raw component *without* moderation — for
    /// non-participating methods (pure queries, test assertions).
    pub fn with_component<R>(&self, f: impl FnOnce(&mut C) -> R) -> R {
        f(&mut self.component.lock())
    }

    /// Unwraps the component, discarding the proxy.
    pub fn into_inner(self) -> C {
        self.component.into_inner()
    }

    fn fresh_context(&self, method: &MethodHandle) -> InvocationContext {
        InvocationContext::new(method.id().clone(), self.moderator.next_invocation())
    }

    /// Starts a guarded activation: runs pre-activation (blocking as
    /// needed) and returns an RAII guard. Post-activation runs when the
    /// guard is [`ActivationGuard::complete`]d — or on drop, so that a
    /// panicking method body still leaves the aspects' counters
    /// consistent.
    ///
    /// # Errors
    ///
    /// Returns [`AbortError`] if any aspect vetoes the activation.
    pub fn enter(&self, method: &MethodHandle) -> Result<ActivationGuard<'_, C>, AbortError> {
        self.enter_with(method, self.fresh_context(method))
    }

    /// Like [`Moderated::enter`] with a caller identity attached.
    ///
    /// # Errors
    ///
    /// Returns [`AbortError`] if any aspect vetoes the activation.
    pub fn enter_as(
        &self,
        method: &MethodHandle,
        principal: Principal,
    ) -> Result<ActivationGuard<'_, C>, AbortError> {
        self.enter_with(method, self.fresh_context(method).with_principal(principal))
    }

    /// Starts a guarded activation with a fully caller-built context
    /// (custom attributes, principal, ...).
    ///
    /// # Errors
    ///
    /// Returns [`AbortError`] if any aspect vetoes the activation.
    pub fn enter_with(
        &self,
        method: &MethodHandle,
        mut ctx: InvocationContext,
    ) -> Result<ActivationGuard<'_, C>, AbortError> {
        self.moderator.preactivation(method, &mut ctx)?;
        Ok(ActivationGuard {
            proxy: self,
            method: method.clone(),
            ctx: Some(ctx),
        })
    }

    /// Like [`Moderated::enter_with`] but gives up after `timeout` spent
    /// blocked.
    ///
    /// # Errors
    ///
    /// Returns [`AbortError::Timeout`] if the wait exceeds `timeout`, or
    /// an aspect [`AbortError`].
    pub fn enter_timeout(
        &self,
        method: &MethodHandle,
        mut ctx: InvocationContext,
        timeout: Duration,
    ) -> Result<ActivationGuard<'_, C>, AbortError> {
        self.moderator
            .preactivation_timeout(method, &mut ctx, timeout)?;
        Ok(ActivationGuard {
            proxy: self,
            method: method.clone(),
            ctx: Some(ctx),
        })
    }

    /// The first pass of [`Moderated::enter_timeout`]: never parks. An
    /// entry whose pre-activation blocked comes back as an owned
    /// [`PendingEntry`] that any thread can finish with
    /// [`Moderated::finish`]; the timeout runs from this call.
    ///
    /// # Errors
    ///
    /// Returns [`AbortError`] if an aspect vetoes the activation in the
    /// first pass.
    pub fn begin_timeout(
        &self,
        method: &MethodHandle,
        mut ctx: InvocationContext,
        timeout: Duration,
    ) -> Result<Entry<'_, C>, AbortError> {
        match self
            .moderator
            .begin_preactivation(method, &mut ctx, Some(timeout))?
        {
            FirstPass::Resumed => Ok(Entry::Ready(ActivationGuard {
                proxy: self,
                method: method.clone(),
                ctx: Some(ctx),
            })),
            FirstPass::Pending(activation) => Ok(Entry::Pending(PendingEntry {
                moderator: Arc::clone(&self.moderator),
                pending: Some((activation, ctx)),
            })),
        }
    }

    /// Waits out a [`PendingEntry`]: parks until the activation
    /// resumes, an aspect aborts it, or its timeout elapses.
    ///
    /// # Errors
    ///
    /// As [`Moderated::enter_timeout`].
    ///
    /// # Panics
    ///
    /// Panics if `entry` was begun on a proxy with another moderator.
    pub fn finish(&self, mut entry: PendingEntry) -> Result<ActivationGuard<'_, C>, AbortError> {
        assert!(
            Arc::ptr_eq(&entry.moderator, &self.moderator),
            "pending entry finished on a proxy with another moderator"
        );
        let (activation, mut ctx) = entry.pending.take().expect("entry still pending");
        let method = activation.method().clone();
        self.moderator.finish_preactivation(activation, &mut ctx)?;
        Ok(ActivationGuard {
            proxy: self,
            method,
            ctx: Some(ctx),
        })
    }

    /// Guarded invocation: pre-activation, `f(&mut component)`,
    /// post-activation. The paper's Figure 10 in one call.
    ///
    /// # Errors
    ///
    /// Returns [`AbortError`] if any aspect vetoes the activation; `f`
    /// does not run in that case.
    pub fn invoke<R>(
        &self,
        method: &MethodHandle,
        f: impl FnOnce(&mut C) -> R,
    ) -> Result<R, AbortError> {
        let guard = self.enter(method)?;
        let r = f(&mut guard.component());
        guard.complete();
        Ok(r)
    }

    /// Guarded invocation with a caller identity.
    ///
    /// # Errors
    ///
    /// Returns [`AbortError`] if any aspect vetoes the activation.
    pub fn invoke_as<R>(
        &self,
        method: &MethodHandle,
        principal: Principal,
        f: impl FnOnce(&mut C) -> R,
    ) -> Result<R, AbortError> {
        let guard = self.enter_as(method, principal)?;
        let r = f(&mut guard.component());
        guard.complete();
        Ok(r)
    }

    /// Guarded invocation with a bounded wait.
    ///
    /// # Errors
    ///
    /// Returns [`AbortError::Timeout`] if blocked longer than `timeout`,
    /// or an aspect [`AbortError`].
    pub fn invoke_timeout<R>(
        &self,
        method: &MethodHandle,
        timeout: Duration,
        f: impl FnOnce(&mut C) -> R,
    ) -> Result<R, AbortError> {
        let guard = self.enter_timeout(method, self.fresh_context(method), timeout)?;
        let r = f(&mut guard.component());
        guard.complete();
        Ok(r)
    }

    /// Non-blocking guarded invocation: returns `Ok(None)` immediately
    /// if any aspect would block (nothing is reserved, `f` does not
    /// run), `Ok(Some(r))` on success.
    ///
    /// # Errors
    ///
    /// Returns [`AbortError`] if an aspect vetoes the activation.
    pub fn try_invoke<R>(
        &self,
        method: &MethodHandle,
        f: impl FnOnce(&mut C) -> R,
    ) -> Result<Option<R>, AbortError> {
        let mut ctx = self.fresh_context(method);
        if !self.moderator.try_preactivation(method, &mut ctx)? {
            return Ok(None);
        }
        let guard = ActivationGuard {
            proxy: self,
            method: method.clone(),
            ctx: Some(ctx),
        };
        let r = f(&mut guard.component());
        guard.complete();
        Ok(Some(r))
    }

    /// Guarded invocation of a fallible method. A `Err` return is
    /// recorded as [`Outcome::Failure`] in the context before
    /// post-activation, so outcome-sensitive aspects (circuit breakers,
    /// audit) can react.
    ///
    /// # Errors
    ///
    /// The outer `Result` is the moderation verdict; the inner one is the
    /// method's own.
    pub fn invoke_fallible<R, E>(
        &self,
        method: &MethodHandle,
        f: impl FnOnce(&mut C) -> Result<R, E>,
    ) -> Result<Result<R, E>, AbortError> {
        let mut guard = self.enter(method)?;
        let r = f(&mut guard.component());
        if r.is_err() {
            guard.context().set_outcome(Outcome::Failure);
        }
        guard.complete();
        Ok(r)
    }
}

/// What [`Moderated::begin_timeout`] reached without parking.
#[derive(Debug)]
pub enum Entry<'a, C> {
    /// Pre-activation resumed: run the body, then complete the guard.
    Ready(ActivationGuard<'a, C>),
    /// An aspect blocked: finish with [`Moderated::finish`].
    Pending(PendingEntry),
}

/// An entry whose pre-activation blocked: the pending activation and
/// its context, owned and `Send + 'static`. Dropping it unfinished
/// withdraws the waiter ([`AspectModerator::cancel_preactivation`]).
pub struct PendingEntry {
    moderator: Arc<AspectModerator>,
    pending: Option<(PendingActivation, InvocationContext)>,
}

impl fmt::Debug for PendingEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingEntry")
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
}

impl Drop for PendingEntry {
    fn drop(&mut self) {
        if let Some((activation, ctx)) = self.pending.take() {
            // `on_cancel` runs uncontained under `PanicPolicy::Propagate`;
            // a panic must not escape a destructor, which may itself be
            // running during an unwind.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.moderator.cancel_preactivation(activation, &ctx);
            }));
        }
    }
}

/// RAII token for one in-flight activation: pre-activation has resumed,
/// post-activation is owed.
///
/// Dropping the guard runs post-activation (keeping aspect state
/// consistent even across panics in the method body); call
/// [`ActivationGuard::abandon`] to skip it explicitly.
pub struct ActivationGuard<'a, C> {
    proxy: &'a Moderated<C>,
    method: MethodHandle,
    ctx: Option<InvocationContext>,
}

impl<C> fmt::Debug for ActivationGuard<'_, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivationGuard")
            .field("method", &self.method.id())
            .finish()
    }
}

impl<'a, C> ActivationGuard<'a, C> {
    /// Locks and returns the component for the method body. The paper
    /// runs the functional method outside the moderator's lock; so does
    /// this.
    pub fn component(&self) -> MutexGuard<'a, C> {
        self.proxy.component.lock()
    }

    /// The invocation's context (attributes, principal, outcome).
    pub fn context(&mut self) -> &mut InvocationContext {
        self.ctx.as_mut().expect("guard still armed")
    }

    /// Runs post-activation now and returns the context (with any
    /// attributes aspects left behind).
    pub fn complete(mut self) -> InvocationContext {
        let mut ctx = self.ctx.take().expect("guard still armed");
        self.proxy
            .moderator
            .trace_method_invoked(&self.method, ctx.invocation());
        self.proxy.moderator.postactivation(&self.method, &mut ctx);
        ctx
    }

    /// Disarms the guard *without* running post-activation. Only for
    /// callers that handle recovery themselves; leaves reservation-style
    /// aspects (counters) unbalanced otherwise.
    pub fn abandon(mut self) -> InvocationContext {
        self.ctx.take().expect("guard still armed")
    }
}

impl<C> Drop for ActivationGuard<'_, C> {
    fn drop(&mut self) {
        if let Some(mut ctx) = self.ctx.take() {
            self.proxy.moderator.postactivation(&self.method, &mut ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::FnAspect;
    use crate::concern::{Concern, MethodId};
    use crate::trace::{EventKind, MemoryTrace};
    use crate::verdict::Verdict;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn setup() -> (Arc<AspectModerator>, MethodHandle, Moderated<Vec<u32>>) {
        let moderator = AspectModerator::shared();
        let push = moderator.declare_method(MethodId::new("push"));
        let proxy = Moderated::new(Vec::new(), Arc::clone(&moderator));
        (moderator, push, proxy)
    }

    #[test]
    fn invoke_runs_method_between_phases() {
        let (moderator, push, proxy) = setup();
        let phase = Arc::new(AtomicU32::new(0));
        let (p1, p2) = (Arc::clone(&phase), Arc::clone(&phase));
        moderator
            .register(
                &push,
                Concern::audit(),
                Box::new(
                    FnAspect::new("phase-check")
                        .on_precondition(move |_| {
                            assert_eq!(p1.swap(1, Ordering::SeqCst), 0);
                            Verdict::Resume
                        })
                        .on_postaction(move |_| {
                            assert_eq!(p2.swap(3, Ordering::SeqCst), 2);
                        }),
                ),
            )
            .unwrap();
        proxy
            .invoke(&push, |v| {
                assert_eq!(phase.swap(2, Ordering::SeqCst), 1);
                v.push(1);
            })
            .unwrap();
        assert_eq!(phase.load(Ordering::SeqCst), 3);
        assert_eq!(proxy.with_component(|v| v.clone()), vec![1]);
    }

    #[test]
    fn abort_skips_method_body() {
        let (moderator, push, proxy) = setup();
        moderator
            .register(
                &push,
                Concern::authentication(),
                Box::new(FnAspect::new("deny").on_precondition(|_| Verdict::abort("no"))),
            )
            .unwrap();
        let ran = Arc::new(AtomicU32::new(0));
        let r = proxy.invoke(&push, {
            let ran = Arc::clone(&ran);
            move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(r.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(moderator.stats().postactivations, 0);
    }

    #[test]
    fn invoke_as_attaches_principal() {
        let (moderator, push, proxy) = setup();
        moderator
            .register(
                &push,
                Concern::authentication(),
                Box::new(FnAspect::new("whoami").on_precondition(|ctx| {
                    Verdict::resume_or_abort(
                        ctx.principal().map(Principal::name) == Some("alice"),
                        "only alice",
                    )
                })),
            )
            .unwrap();
        assert!(proxy
            .invoke_as(&push, Principal::new("alice"), |v| v.push(1))
            .is_ok());
        assert!(proxy
            .invoke_as(&push, Principal::new("bob"), |v| v.push(2))
            .is_err());
        assert!(proxy.invoke(&push, |v| v.push(3)).is_err());
        assert_eq!(proxy.with_component(|v| v.clone()), vec![1]);
    }

    #[test]
    fn invoke_fallible_records_outcome() {
        let (moderator, push, proxy) = setup();
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = Arc::clone(&seen);
            moderator
                .register(
                    &push,
                    Concern::fault_tolerance(),
                    Box::new(FnAspect::new("observer").on_postaction(move |ctx| {
                        seen.lock().push(ctx.outcome());
                    })),
                )
                .unwrap();
        }
        let ok: Result<Result<(), &str>, _> = proxy.invoke_fallible(&push, |_| Ok(()));
        assert!(ok.unwrap().is_ok());
        let err: Result<Result<(), &str>, _> = proxy.invoke_fallible(&push, |_| Err("boom"));
        assert_eq!(err.unwrap(), Err("boom"));
        assert_eq!(*seen.lock(), vec![Outcome::Success, Outcome::Failure]);
    }

    /// An `Err` body *and* a panicking postaction in the same
    /// activation: the contained panic must not double-run or skip the
    /// outcome observer — the failure is recorded exactly once, and the
    /// activation still completes.
    #[test]
    fn invoke_fallible_err_outcome_survives_postaction_panic() {
        use crate::moderator::PanicPolicy;

        let moderator = Arc::new(
            AspectModerator::builder()
                .panic_policy(PanicPolicy::AbortInvocation)
                .build(),
        );
        let push = moderator.declare_method(MethodId::new("push"));
        let proxy = Moderated::new(Vec::<u32>::new(), Arc::clone(&moderator));
        // Postactions run in registration order: the bomb panics first,
        // the observer must still run afterwards.
        moderator
            .register(
                &push,
                Concern::fault_tolerance(),
                Box::new(
                    FnAspect::new("post-bomb").on_postaction(|_| panic!("postaction exploded")),
                ),
            )
            .unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = Arc::clone(&seen);
            moderator
                .register(
                    &push,
                    Concern::audit(),
                    Box::new(FnAspect::new("observer").on_postaction(move |ctx| {
                        seen.lock().push(ctx.outcome());
                    })),
                )
                .unwrap();
        }
        let r: Result<Result<(), &str>, _> = proxy.invoke_fallible(&push, |_| Err("boom"));
        assert_eq!(r.unwrap(), Err("boom"));
        assert_eq!(*seen.lock(), vec![Outcome::Failure], "exactly once");
        let s = moderator.stats();
        assert_eq!(s.panics_caught, 1, "{s:?}");
        assert_eq!(s.postactivations, 1, "{s:?}");
    }

    #[test]
    fn guard_drop_runs_postactivation() {
        let (moderator, push, proxy) = setup();
        {
            let guard = proxy.enter(&push).unwrap();
            drop(guard);
        }
        assert_eq!(moderator.stats().postactivations, 1);
    }

    #[test]
    fn guard_abandon_skips_postactivation() {
        let (moderator, push, proxy) = setup();
        let guard = proxy.enter(&push).unwrap();
        let _ctx = guard.abandon();
        assert_eq!(moderator.stats().postactivations, 0);
    }

    #[test]
    fn postactivation_runs_even_if_body_panics() {
        let (moderator, push, proxy) = setup();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let guard = proxy.enter(&push).unwrap();
            let _c = guard.component();
            panic!("body exploded");
        }));
        assert!(result.is_err());
        assert_eq!(moderator.stats().postactivations, 1);
    }

    #[test]
    fn complete_returns_context_with_attributes() {
        let (moderator, push, proxy) = setup();
        #[derive(Debug, PartialEq)]
        struct Stamp(u32);
        moderator
            .register(
                &push,
                Concern::metrics(),
                Box::new(FnAspect::new("stamp").on_precondition(|ctx| {
                    ctx.insert(Stamp(99));
                    Verdict::Resume
                })),
            )
            .unwrap();
        let guard = proxy.enter(&push).unwrap();
        let ctx = guard.complete();
        assert_eq!(ctx.get::<Stamp>(), Some(&Stamp(99)));
    }

    #[test]
    fn invoke_timeout_fails_when_blocked() {
        let (moderator, push, proxy) = setup();
        moderator
            .register(
                &push,
                Concern::synchronization(),
                Box::new(FnAspect::new("never").on_precondition(|_| Verdict::Block)),
            )
            .unwrap();
        let err = proxy
            .invoke_timeout(&push, Duration::from_millis(20), |_| ())
            .unwrap_err();
        assert!(err.is_timeout());
    }

    #[test]
    fn try_invoke_returns_none_instead_of_blocking() {
        let (moderator, push, proxy) = setup();
        let open = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let open = Arc::clone(&open);
            moderator
                .register(
                    &push,
                    Concern::synchronization(),
                    Box::new(
                        FnAspect::new("gate").on_precondition(move |_| {
                            Verdict::resume_if(open.load(Ordering::SeqCst))
                        }),
                    ),
                )
                .unwrap();
        }
        assert_eq!(proxy.try_invoke(&push, |v| v.push(1)).unwrap(), None);
        open.store(true, Ordering::SeqCst);
        assert_eq!(proxy.try_invoke(&push, |v| v.push(2)).unwrap(), Some(()));
        assert_eq!(proxy.with_component(|v| v.clone()), vec![2]);
    }

    #[test]
    fn try_invoke_rolls_back_outer_reservations() {
        let (moderator, push, proxy) = setup();
        let reserved = Arc::new(AtomicU32::new(0));
        // Inner blocker (registered first, evaluated last).
        moderator
            .register(
                &push,
                Concern::new("blocker"),
                Box::new(FnAspect::new("never").on_precondition(|_| Verdict::Block)),
            )
            .unwrap();
        {
            let r1 = Arc::clone(&reserved);
            let r2 = Arc::clone(&reserved);
            moderator
                .register(
                    &push,
                    Concern::new("reserver"),
                    Box::new(
                        FnAspect::new("reserve")
                            .on_precondition(move |_| {
                                r1.fetch_add(1, Ordering::SeqCst);
                                Verdict::Resume
                            })
                            .on_release_do(move |_, _| {
                                r2.fetch_sub(1, Ordering::SeqCst);
                            }),
                    ),
                )
                .unwrap();
        }
        assert_eq!(proxy.try_invoke(&push, |_| ()).unwrap(), None);
        assert_eq!(
            reserved.load(Ordering::SeqCst),
            0,
            "reservation rolled back"
        );
    }

    #[test]
    fn try_invoke_propagates_aborts() {
        let (moderator, push, proxy) = setup();
        moderator
            .register(
                &push,
                Concern::authentication(),
                Box::new(FnAspect::new("deny").on_precondition(|_| Verdict::abort("no"))),
            )
            .unwrap();
        assert!(proxy.try_invoke(&push, |_| ()).is_err());
    }

    #[test]
    fn trace_shows_method_invoked_between_phases() {
        let trace = MemoryTrace::shared();
        let moderator = Arc::new(AspectModerator::builder().trace(trace.clone()).build());
        let push = moderator.declare_method(MethodId::new("push"));
        let proxy = Moderated::new(Vec::<u32>::new(), Arc::clone(&moderator));
        proxy.invoke(&push, |v| v.push(1)).unwrap();
        let kinds: Vec<_> = trace.events().into_iter().map(|e| e.kind).collect();
        let resumed = kinds
            .iter()
            .position(|k| *k == EventKind::ActivationResumed)
            .unwrap();
        let invoked = kinds
            .iter()
            .position(|k| *k == EventKind::MethodInvoked)
            .unwrap();
        let post = kinds
            .iter()
            .position(|k| *k == EventKind::PostactivationStarted)
            .unwrap();
        assert!(resumed < invoked && invoked < post);
    }

    #[test]
    fn into_inner_and_debug() {
        let (_moderator, _push, proxy) = setup();
        proxy.with_component(|v| v.push(5));
        let s = format!("{proxy:?}");
        assert!(s.contains("Moderated"));
        assert_eq!(proxy.into_inner(), vec![5]);
    }

    /// `begin_timeout` returns a ready guard when nothing blocks and
    /// otherwise an owned entry that `finish` completes; dropping an
    /// unfinished entry cancels its wait.
    #[test]
    fn begin_finish_and_drop_a_pending_entry() {
        use crate::aspect::NoopAspect;
        use crate::moderator::FairnessPolicy;
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let moderator = Arc::new(
            AspectModerator::builder()
                .fairness(FairnessPolicy::Fifo)
                .build(),
        );
        let push = moderator.declare_method(MethodId::new("push"));
        let proxy = Moderated::new(Vec::<u32>::new(), Arc::clone(&moderator));
        let open = Arc::new(AtomicBool::new(false));
        let cancels = Arc::new(AtomicU32::new(0));
        struct Gate {
            open: Arc<AtomicBool>,
            cancels: Arc<AtomicU32>,
        }
        impl crate::aspect::Aspect for Gate {
            fn precondition(&mut self, _: &mut InvocationContext) -> Verdict {
                if self.open.load(Ordering::SeqCst) {
                    Verdict::Resume
                } else {
                    Verdict::Block
                }
            }
            fn postaction(&mut self, _: &mut InvocationContext) {}
            fn on_cancel(&mut self, _: &InvocationContext) -> bool {
                self.cancels.fetch_add(1, Ordering::SeqCst);
                false
            }
            fn describe(&self) -> &str {
                "gate"
            }
        }
        let gate = Gate {
            open: Arc::clone(&open),
            cancels: Arc::clone(&cancels),
        };
        moderator
            .register(&push, Concern::synchronization(), Box::new(gate))
            .unwrap();
        moderator
            .register(&push, Concern::audit(), Box::new(NoopAspect))
            .unwrap();
        let ctx = || InvocationContext::new(push.id().clone(), moderator.next_invocation());
        let timeout = Duration::from_secs(5);

        let Ok(Entry::Pending(dropped)) = proxy.begin_timeout(&push, ctx(), timeout) else {
            panic!("a closed gate blocks the first pass");
        };
        drop(dropped);
        assert_eq!(cancels.load(Ordering::SeqCst), 1);

        // The dropped ticket left the queue, so a newcomer evaluates
        // instead of queueing behind it.
        open.store(true, Ordering::SeqCst);
        let Ok(Entry::Ready(guard)) = proxy.begin_timeout(&push, ctx(), timeout) else {
            panic!("an open gate and an empty queue admit at once");
        };
        guard.component().push(1);
        guard.complete();

        open.store(false, Ordering::SeqCst);
        let Ok(Entry::Pending(pending)) = proxy.begin_timeout(&push, ctx(), timeout) else {
            panic!("a closed gate blocks the first pass");
        };
        // Open the gate and wake the queue (deregistering wakes every
        // waiter); under Fifo the wake waits as a permit for `finish`.
        open.store(true, Ordering::SeqCst);
        moderator.deregister(&push, &Concern::audit()).unwrap();
        let guard = proxy.finish(pending).unwrap();
        guard.component().push(2);
        guard.complete();
        assert_eq!(proxy.with_component(|v| v.clone()), vec![1, 2]);
    }
}
