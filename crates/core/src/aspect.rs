//! The aspect abstraction: first-class objects capturing one concern of
//! one participating method.
//!
//! Mirrors the paper's `AspectIF` (`precondition()` / `postaction()`),
//! with one extension: [`Aspect::on_release`], a rollback hook invoked
//! when a *later* aspect in the chain blocks or aborts after this one
//! already resumed. The paper's single-aspect examples never hit that
//! case; composed chains do (see DESIGN.md, experiment E7).

use std::fmt;

use crate::context::InvocationContext;
use crate::verdict::Verdict;

/// The capability contract an aspect declares for fast-lane admission
/// (Design-by-Contract applied to composition: the framework cannot
/// check a closure for purity, so the aspect *declares* it and the
/// moderator holds it to the claim).
///
/// An invocation may skip the locked chain evaluation entirely — a
/// single-CAS admit on the method's fast lane — only when **every**
/// aspect of the method declares all three capabilities:
///
/// * [`pure`](Self::pure) — the precondition and postaction read and
///   write no shared state; skipping them is unobservable.
/// * [`veto_free`](Self::veto_free) — the precondition never returns
///   [`Verdict::Block`] or [`Verdict::Abort`], so admission cannot be
///   refused.
/// * [`no_park`](Self::no_park) — no callback blocks the calling
///   thread (sleeps, I/O, lock acquisition).
///
/// The default is *no* capabilities: existing aspects are conservative
/// and never fast-lane eligible. A contained panic in any callback of
/// a row **falsifies** that row's declared contract (a pure function
/// does not panic) and revokes its eligibility until the row is woven
/// again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AspectCapabilities {
    /// Callbacks have no moderator-visible side effects.
    pub pure: bool,
    /// The precondition always returns [`Verdict::Resume`].
    pub veto_free: bool,
    /// No callback blocks the calling thread.
    pub no_park: bool,
}

impl AspectCapabilities {
    /// No declared capabilities — the conservative default; never
    /// fast-lane eligible.
    pub const fn none() -> Self {
        Self {
            pure: false,
            veto_free: false,
            no_park: false,
        }
    }

    /// All three capabilities: `pure`, `veto_free` and `no_park`.
    pub const fn all() -> Self {
        Self {
            pure: true,
            veto_free: true,
            no_park: true,
        }
    }

    /// Whether this contract admits the fast lane (all three
    /// capabilities declared).
    pub const fn fast_path_eligible(self) -> bool {
        self.pure && self.veto_free && self.no_park
    }
}

/// Why a previously resumed aspect is being released before the method
/// ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReleaseCause {
    /// A later aspect in the chain returned [`Verdict::Block`]; the whole
    /// chain will be re-evaluated after a notification.
    Blocked,
    /// A later aspect in the chain returned [`Verdict::Abort`]; the
    /// activation failed.
    Aborted,
}

/// One concern of one participating method, as a first-class object.
///
/// The moderator calls [`Aspect::precondition`] during pre-activation and
/// [`Aspect::postaction`] during post-activation, always under the
/// moderator's lock — so implementations can use plain fields (like the
/// paper's `ActiveOpen` counters) without any internal synchronization.
///
/// ```
/// use amf_core::{Aspect, InvocationContext, Verdict};
///
/// /// At most `limit` activations may ever proceed.
/// #[derive(Debug)]
/// struct Budget { left: u32 }
///
/// impl Aspect for Budget {
///     fn precondition(&mut self, _ctx: &mut InvocationContext) -> Verdict {
///         if self.left == 0 {
///             return Verdict::abort("budget exhausted");
///         }
///         self.left -= 1;
///         Verdict::Resume
///     }
///     fn postaction(&mut self, _ctx: &mut InvocationContext) {}
/// }
/// ```
pub trait Aspect: Send {
    /// Evaluates this aspect's activation constraint.
    ///
    /// Returning [`Verdict::Resume`] may *reserve* state (increment
    /// counters, take a slot); if a later aspect then blocks or aborts,
    /// the moderator undoes the reservation via [`Aspect::on_release`].
    fn precondition(&mut self, ctx: &mut InvocationContext) -> Verdict;

    /// Runs after the functional method completed; updates the aspect's
    /// state and typically triggers notifications (handled by the
    /// moderator's wake wiring).
    fn postaction(&mut self, ctx: &mut InvocationContext);

    /// Undoes a successful [`Aspect::precondition`] when a later aspect
    /// in the chain blocked or aborted. Default: no-op, which is correct
    /// for aspects whose precondition is read-only (authentication,
    /// quota *checks*, ...).
    ///
    /// The undo must be *exact*: after it, every waiter of this method
    /// must be as blocked as it was before the precondition ran (with
    /// [`ReleaseCause::Blocked`], the releasing caller keeps any place
    /// it held among them, e.g. an admission queue's head). The
    /// precondition and its release run under the method's lock, so no
    /// other caller of the method can have seen the reservation, and
    /// the moderator therefore does not wake the method's own waiters
    /// after a rollback. A release that leaves one of them unblocked
    /// strands it until the method is next notified: on an untimed
    /// wait, possibly forever. Only a caller that had parked and then
    /// aborts wakes the method's waiters, once, as it leaves.
    fn on_release(&mut self, ctx: &InvocationContext, cause: ReleaseCause) {
        let _ = (ctx, cause);
    }

    /// Called when a *blocked* caller gives up (timed out, or a
    /// non-blocking attempt that would block) and will never re-evaluate
    /// this method's chain for this invocation. Aspects that remember
    /// waiters across `Block` verdicts (admission queues) clean up their
    /// enrollment here.
    ///
    /// Returns whether the cancellation may let another waiter of the
    /// method proceed (the caller held a place they queue behind); the
    /// moderator then wakes the method's waiters once. Default: no-op,
    /// returning `false`.
    fn on_cancel(&mut self, ctx: &InvocationContext) -> bool {
        let _ = ctx;
        false
    }

    /// Short human-readable description used by traces and `Debug` output.
    fn describe(&self) -> &str {
        "aspect"
    }

    /// The capability contract this aspect declares for fast-lane
    /// admission. Default: [`AspectCapabilities::none`] — conservative,
    /// never eligible. See [`AspectCapabilities`].
    fn capabilities(&self) -> AspectCapabilities {
        AspectCapabilities::none()
    }
}

impl fmt::Debug for dyn Aspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Aspect({})", self.describe())
    }
}

/// An aspect that always resumes and does nothing — the unit of
/// composition, used to measure pure framework overhead (experiment E1).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopAspect;

impl Aspect for NoopAspect {
    fn precondition(&mut self, _ctx: &mut InvocationContext) -> Verdict {
        Verdict::Resume
    }

    fn postaction(&mut self, _ctx: &mut InvocationContext) {}

    fn describe(&self) -> &str {
        "noop"
    }

    fn capabilities(&self) -> AspectCapabilities {
        // Trivially holds every contract: both phases are empty.
        AspectCapabilities::all()
    }
}

type PreFn = Box<dyn FnMut(&mut InvocationContext) -> Verdict + Send>;
type PostFn = Box<dyn FnMut(&mut InvocationContext) + Send>;
type ReleaseFn = Box<dyn FnMut(&InvocationContext, ReleaseCause) + Send>;
type CancelFn = Box<dyn FnMut(&InvocationContext) + Send>;

/// Closure-backed [`Aspect`] for one-off concerns, tests and examples.
///
/// ```
/// use amf_core::{Aspect, FnAspect, InvocationContext, MethodId, Verdict};
///
/// let mut calls = 0_u32;
/// let mut aspect = FnAspect::new("trace")
///     .on_precondition(move |_ctx| Verdict::Resume)
///     .on_postaction(|_ctx| { /* flush trace */ });
/// let mut ctx = InvocationContext::new(MethodId::new("m"), 0);
/// assert!(aspect.precondition(&mut ctx).is_resume());
/// # let _ = calls; calls += 1;
/// ```
pub struct FnAspect {
    name: String,
    pre: Option<PreFn>,
    post: Option<PostFn>,
    release: Option<ReleaseFn>,
    cancel: Option<CancelFn>,
    caps: AspectCapabilities,
}

impl fmt::Debug for FnAspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnAspect({})", self.name)
    }
}

impl FnAspect {
    /// Creates a named aspect whose phases default to
    /// resume-and-do-nothing.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            pre: None,
            post: None,
            release: None,
            cancel: None,
            caps: AspectCapabilities::none(),
        }
    }

    /// Declares the aspect's capability contract (the framework cannot
    /// verify a closure, so the caller asserts it; a contained panic in
    /// any phase later falsifies the claim and revokes eligibility).
    #[must_use]
    pub fn declare_capabilities(mut self, caps: AspectCapabilities) -> Self {
        self.caps = caps;
        self
    }

    /// Sets the precondition closure.
    #[must_use]
    pub fn on_precondition(
        mut self,
        f: impl FnMut(&mut InvocationContext) -> Verdict + Send + 'static,
    ) -> Self {
        self.pre = Some(Box::new(f));
        self
    }

    /// Sets the postaction closure.
    #[must_use]
    pub fn on_postaction(mut self, f: impl FnMut(&mut InvocationContext) + Send + 'static) -> Self {
        self.post = Some(Box::new(f));
        self
    }

    /// Sets the release (rollback) closure.
    #[must_use]
    pub fn on_release_do(
        mut self,
        f: impl FnMut(&InvocationContext, ReleaseCause) + Send + 'static,
    ) -> Self {
        self.release = Some(Box::new(f));
        self
    }

    /// Sets the cancel (timed-out waiter) closure. A closure aspect's
    /// cancellation never lets another waiter proceed
    /// ([`Aspect::on_cancel`] returns `false`).
    #[must_use]
    pub fn on_cancel_do(mut self, f: impl FnMut(&InvocationContext) + Send + 'static) -> Self {
        self.cancel = Some(Box::new(f));
        self
    }
}

impl Aspect for FnAspect {
    fn precondition(&mut self, ctx: &mut InvocationContext) -> Verdict {
        match &mut self.pre {
            Some(f) => f(ctx),
            None => Verdict::Resume,
        }
    }

    fn postaction(&mut self, ctx: &mut InvocationContext) {
        if let Some(f) = &mut self.post {
            f(ctx);
        }
    }

    fn on_release(&mut self, ctx: &InvocationContext, cause: ReleaseCause) {
        if let Some(f) = &mut self.release {
            f(ctx, cause);
        }
    }

    fn on_cancel(&mut self, ctx: &InvocationContext) -> bool {
        if let Some(f) = &mut self.cancel {
            f(ctx);
        }
        false
    }

    fn describe(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> AspectCapabilities {
        self.caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concern::MethodId;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn ctx() -> InvocationContext {
        InvocationContext::new(MethodId::new("m"), 0)
    }

    #[test]
    fn noop_always_resumes() {
        let mut a = NoopAspect;
        let mut c = ctx();
        assert!(a.precondition(&mut c).is_resume());
        a.postaction(&mut c);
        a.on_release(&c, ReleaseCause::Blocked);
        assert_eq!(a.describe(), "noop");
    }

    #[test]
    fn fn_aspect_defaults_resume() {
        let mut a = FnAspect::new("empty");
        let mut c = ctx();
        assert!(a.precondition(&mut c).is_resume());
        a.postaction(&mut c); // no-op, must not panic
    }

    #[test]
    fn fn_aspect_runs_closures() {
        let pre_calls = Arc::new(AtomicU32::new(0));
        let post_calls = Arc::new(AtomicU32::new(0));
        let release_calls = Arc::new(AtomicU32::new(0));
        let (p1, p2, p3) = (
            Arc::clone(&pre_calls),
            Arc::clone(&post_calls),
            Arc::clone(&release_calls),
        );
        let mut a = FnAspect::new("counted")
            .on_precondition(move |_| {
                p1.fetch_add(1, Ordering::SeqCst);
                Verdict::Resume
            })
            .on_postaction(move |_| {
                p2.fetch_add(1, Ordering::SeqCst);
            })
            .on_release_do(move |_, _| {
                p3.fetch_add(1, Ordering::SeqCst);
            });
        let mut c = ctx();
        a.precondition(&mut c);
        a.postaction(&mut c);
        a.on_release(&c, ReleaseCause::Aborted);
        assert_eq!(pre_calls.load(Ordering::SeqCst), 1);
        assert_eq!(post_calls.load(Ordering::SeqCst), 1);
        assert_eq!(release_calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fn_aspect_can_mutate_captured_state() {
        let mut a = FnAspect::new("stateful").on_precondition({
            let mut remaining = 2;
            move |_| {
                if remaining == 0 {
                    Verdict::abort("done")
                } else {
                    remaining -= 1;
                    Verdict::Resume
                }
            }
        });
        let mut c = ctx();
        assert!(a.precondition(&mut c).is_resume());
        assert!(a.precondition(&mut c).is_resume());
        assert!(a.precondition(&mut c).is_abort());
    }

    #[test]
    fn dyn_aspect_debug_uses_describe() {
        let a: Box<dyn Aspect> = Box::new(FnAspect::new("pretty"));
        assert_eq!(format!("{a:?}"), "Aspect(pretty)");
    }

    #[test]
    fn capabilities_default_conservative() {
        assert!(!AspectCapabilities::none().fast_path_eligible());
        assert!(AspectCapabilities::all().fast_path_eligible());
        assert!(!AspectCapabilities {
            pure: true,
            veto_free: true,
            no_park: false,
        }
        .fast_path_eligible());
        // NoopAspect trivially honors every contract; a bare closure
        // aspect declares nothing until told otherwise.
        assert!(NoopAspect.capabilities().fast_path_eligible());
        assert!(!FnAspect::new("f").capabilities().fast_path_eligible());
        assert!(FnAspect::new("f")
            .declare_capabilities(AspectCapabilities::all())
            .capabilities()
            .fast_path_eligible());
    }

    #[test]
    fn aspects_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NoopAspect>();
        assert_send::<FnAspect>();
        assert_send::<Box<dyn Aspect>>();
    }
}
