//! `ExtendedTicketServerProxy`: the paper's adaptability showcase
//! (Section 5.3, Figures 13–18).
//!
//! Authentication is added to the running system **without touching the
//! functional component or the base synchronization aspects**: an
//! extended factory (auth chained in front of sync) supplies the new
//! aspects, and the moderator's nested ordering makes every activation
//! run *auth-pre → sync-pre → method → sync-post → auth-post* — exactly
//! the sequence the paper prescribes in Figure 14.
//!
//! The timed operations also come split in two for callers that must not
//! park: [`ExtendedTicketServerProxy::begin_open`] and
//! [`ExtendedTicketServerProxy::begin_assign`] run the body inline when
//! pre-activation resumes at once, and otherwise return a
//! [`PendingTicketOp`] that another thread finishes with
//! [`ExtendedTicketServerProxy::finish`].

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use amf_aspects::auth::{AuthToken, Authenticator};
use amf_core::{
    AbortError, ActivationGuard, AspectModerator, ChainedFactory, Concern, Entry, MethodHandle,
    PendingEntry, RegistrationError,
};

use crate::factory::{TicketAuthFactory, TicketSyncFactory};
use crate::proxy::TicketServerProxy;
use crate::server::TicketServer;
use crate::ticket::Ticket;

/// How far [`ExtendedTicketServerProxy::begin_open`] or
/// [`ExtendedTicketServerProxy::begin_assign`] got without parking.
#[derive(Debug)]
pub enum Attempt {
    /// The operation ran: `None` for an open, the ticket for an assign.
    Done(Option<Ticket>),
    /// Pre-activation blocked; finish with
    /// [`ExtendedTicketServerProxy::finish`].
    Pending(PendingTicketOp),
}

/// An open or assign whose pre-activation blocked, with the ticket an
/// open carries. Owned and `Send + 'static`; dropping it unfinished
/// withdraws the waiter.
#[derive(Debug)]
pub struct PendingTicketOp {
    // Boxed: parking is the rare path, and the box keeps `Attempt` as
    // small as its `Done` variant.
    inner: Box<(PendingEntry, Op)>,
}

#[derive(Debug)]
enum Op {
    Open(Ticket),
    Assign,
}

/// The method body between the two phases; `None` for an open.
fn run(guard: ActivationGuard<'_, TicketServer>, op: Op) -> Option<Ticket> {
    let out = match op {
        Op::Open(ticket) => {
            guard
                .component()
                .open(ticket)
                .expect("synchronization aspect guarantees a free slot");
            None
        }
        Op::Assign => Some(
            guard
                .component()
                .assign()
                .expect("synchronization aspect guarantees an item"),
        ),
    };
    guard.complete();
    out
}

/// The authenticated trouble-ticketing server: every `open`/`assign`
/// requires a valid session token.
///
/// ```
/// use amf_aspects::auth::Authenticator;
/// use amf_core::AspectModerator;
/// use amf_ticketing::{ExtendedTicketServerProxy, Ticket};
///
/// let auth = Authenticator::shared();
/// auth.add_user("alice", "pw");
/// let proxy = ExtendedTicketServerProxy::new(4, AspectModerator::shared(),
///                                            std::sync::Arc::clone(&auth)).unwrap();
/// let token = auth.login("alice", "pw").unwrap();
/// proxy.open(token, Ticket::new(1, "vpn down")).unwrap();
/// assert_eq!(proxy.assign(token).unwrap().id.0, 1);
/// ```
pub struct ExtendedTicketServerProxy {
    base: TicketServerProxy,
    auth: Arc<Authenticator>,
}

impl fmt::Debug for ExtendedTicketServerProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExtendedTicketServerProxy")
            .field("base", &self.base)
            .finish_non_exhaustive()
    }
}

impl ExtendedTicketServerProxy {
    /// Builds the extended proxy: base synchronization aspects plus an
    /// `AUTHENTICATE` aspect on each participating method, created by
    /// the extended (chained) factory of Figure 15.
    ///
    /// # Errors
    ///
    /// Propagates [`RegistrationError`] from creation or registration.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(
        capacity: usize,
        moderator: Arc<AspectModerator>,
        auth: Arc<Authenticator>,
    ) -> Result<Self, RegistrationError> {
        let sync_factory = TicketSyncFactory::new(capacity);
        let buffer = sync_factory.buffer_handle();
        // Figure 15: ExtendedAspectFactory = auth factory over the base.
        let extended = ChainedFactory::new()
            .with(TicketAuthFactory::new(Arc::clone(&auth)))
            .with(sync_factory);
        let base =
            TicketServerProxy::with_factory(capacity, Arc::clone(&moderator), &extended, buffer)?;
        // Figure 13: register the two authentication aspects *after* the
        // sync aspects; nested ordering then runs them first on entry.
        moderator.register_from(&extended, &base.open, Concern::authentication())?;
        moderator.register_from(&extended, &base.assign, Concern::authentication())?;
        Ok(Self { base, auth })
    }

    /// Upgrades a running base proxy in place by registering the
    /// authentication aspects — adaptability on a live system (the open
    /// systems goal of Section 1).
    ///
    /// # Errors
    ///
    /// Propagates [`RegistrationError`] (e.g. authentication already
    /// registered).
    pub fn upgrade(
        base: TicketServerProxy,
        auth: Arc<Authenticator>,
    ) -> Result<Self, RegistrationError> {
        let factory = TicketAuthFactory::new(Arc::clone(&auth));
        let moderator = Arc::clone(base.moderator());
        moderator.register_from(&factory, &base.open, Concern::authentication())?;
        moderator.register_from(&factory, &base.assign, Concern::authentication())?;
        Ok(Self { base, auth })
    }

    /// The shared authenticator.
    pub fn authenticator(&self) -> &Arc<Authenticator> {
        &self.auth
    }

    /// The underlying base proxy (handles, counters, moderator).
    pub fn base(&self) -> &TicketServerProxy {
        &self.base
    }

    fn ctx_with_token(
        &self,
        method: &MethodHandle,
        token: AuthToken,
    ) -> amf_core::InvocationContext {
        let mut ctx = self.base.fresh_ctx(method);
        ctx.insert(token);
        ctx
    }

    /// Opens a ticket on behalf of the session `token`.
    ///
    /// # Errors
    ///
    /// [`AbortError::Aspect`] with the `authenticate` concern when the
    /// token is missing/invalid/expired; otherwise as the base proxy.
    pub fn open(&self, token: AuthToken, ticket: Ticket) -> Result<(), AbortError> {
        self.base
            .open_with(ticket, self.ctx_with_token(&self.base.open, token))
    }

    /// Assigns the oldest ticket on behalf of the session `token`.
    ///
    /// # Errors
    ///
    /// Authentication abort, or as the base proxy.
    pub fn assign(&self, token: AuthToken) -> Result<Ticket, AbortError> {
        self.base
            .assign_with(self.ctx_with_token(&self.base.assign, token))
    }

    /// Like [`ExtendedTicketServerProxy::open`] with a bounded wait.
    ///
    /// # Errors
    ///
    /// Authentication abort, [`AbortError::Timeout`] when the buffer
    /// stays full past `timeout`, or as the base proxy.
    pub fn open_timeout(
        &self,
        token: AuthToken,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<(), AbortError> {
        let ctx = self.ctx_with_token(&self.base.open, token);
        let guard = self
            .base
            .inner
            .enter_timeout(&self.base.open, ctx, timeout)?;
        run(guard, Op::Open(ticket));
        Ok(())
    }

    /// Like [`ExtendedTicketServerProxy::assign`] with a bounded wait.
    ///
    /// # Errors
    ///
    /// Authentication abort, [`AbortError::Timeout`], or as the base
    /// proxy.
    pub fn assign_timeout(
        &self,
        token: AuthToken,
        timeout: Duration,
    ) -> Result<Ticket, AbortError> {
        let ctx = self.ctx_with_token(&self.base.assign, token);
        let guard = self
            .base
            .inner
            .enter_timeout(&self.base.assign, ctx, timeout)?;
        Ok(run(guard, Op::Assign).expect("assign yields a ticket"))
    }

    /// [`ExtendedTicketServerProxy::open_timeout`] up to the first
    /// `BLOCKED`: never parks.
    ///
    /// # Errors
    ///
    /// Authentication abort, or another aspect's veto in the first pass.
    pub fn begin_open(
        &self,
        token: AuthToken,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<Attempt, AbortError> {
        self.begin(&self.base.open, token, Op::Open(ticket), timeout)
    }

    /// [`ExtendedTicketServerProxy::assign_timeout`] up to the first
    /// `BLOCKED`: never parks.
    ///
    /// # Errors
    ///
    /// Authentication abort, or another aspect's veto in the first pass.
    pub fn begin_assign(&self, token: AuthToken, timeout: Duration) -> Result<Attempt, AbortError> {
        self.begin(&self.base.assign, token, Op::Assign, timeout)
    }

    fn begin(
        &self,
        method: &MethodHandle,
        token: AuthToken,
        op: Op,
        timeout: Duration,
    ) -> Result<Attempt, AbortError> {
        let ctx = self.ctx_with_token(method, token);
        Ok(match self.base.inner.begin_timeout(method, ctx, timeout)? {
            Entry::Ready(guard) => Attempt::Done(run(guard, op)),
            Entry::Pending(entry) => Attempt::Pending(PendingTicketOp {
                inner: Box::new((entry, op)),
            }),
        })
    }

    /// Waits out a pending open or assign and runs it: `None` for an
    /// open, the ticket for an assign.
    ///
    /// # Errors
    ///
    /// [`AbortError::Timeout`] when the wait outlasts the timeout given
    /// to `begin_*`, or an aspect's veto on re-evaluation.
    pub fn finish(&self, pending: PendingTicketOp) -> Result<Option<Ticket>, AbortError> {
        let (entry, op) = *pending.inner;
        let guard = self.base.inner.finish(entry)?;
        Ok(run(guard, op))
    }

    /// Number of tickets currently waiting.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether no tickets are waiting.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_aspects::auth::AuthError;

    fn setup() -> (ExtendedTicketServerProxy, Arc<Authenticator>) {
        let auth = Authenticator::shared();
        auth.add_user("alice", "pw");
        auth.add_user("bob", "hunter2");
        let proxy = ExtendedTicketServerProxy::new(2, AspectModerator::shared(), Arc::clone(&auth))
            .unwrap();
        (proxy, auth)
    }

    #[test]
    fn valid_token_opens_and_assigns() {
        let (proxy, auth) = setup();
        let token = auth.login("alice", "pw").unwrap();
        proxy.open(token, Ticket::new(1, "x")).unwrap();
        assert_eq!(proxy.len(), 1);
        assert_eq!(proxy.assign(token).unwrap().id.0, 1);
    }

    #[test]
    fn invalid_token_aborts_with_authenticate_concern() {
        let (proxy, _auth) = setup();
        let err = proxy.open(AuthToken(42), Ticket::new(1, "x")).unwrap_err();
        assert_eq!(err.concern().unwrap(), &Concern::authentication());
        assert!(err.to_string().contains("authentication failed"));
        assert!(proxy.is_empty(), "functional method must not have run");
    }

    #[test]
    fn logout_revokes_access() {
        let (proxy, auth) = setup();
        let token = auth.login("bob", "hunter2").unwrap();
        proxy.open(token, Ticket::new(1, "x")).unwrap();
        auth.logout(token);
        let err = proxy.assign(token).unwrap_err();
        assert_eq!(err.concern().unwrap(), &Concern::authentication());
        assert_eq!(proxy.len(), 1, "ticket still waiting");
    }

    #[test]
    fn failed_auth_does_not_leak_buffer_reservations() {
        let (proxy, auth) = setup();
        // Fill the buffer legitimately.
        let token = auth.login("alice", "pw").unwrap();
        proxy.open(token, Ticket::new(1, "a")).unwrap();
        proxy.open(token, Ticket::new(2, "b")).unwrap();
        // Unauthenticated attempts must not consume slots or items.
        for _ in 0..5 {
            assert!(proxy.open(AuthToken(0), Ticket::new(9, "evil")).is_err());
            assert!(proxy.assign(AuthToken(0)).is_err());
        }
        let snap = proxy.base().buffer_handle().snapshot();
        assert_eq!(snap.produced, 2);
        assert_eq!(snap.reserved, 2);
        assert_eq!(proxy.assign(token).unwrap().id.0, 1);
        assert_eq!(proxy.assign(token).unwrap().id.0, 2);
    }

    #[test]
    fn upgrade_adds_auth_to_live_proxy() {
        let auth = Authenticator::shared();
        auth.add_user("alice", "pw");
        let base = TicketServerProxy::new(2, AspectModerator::shared()).unwrap();
        // Before the upgrade, anonymous traffic flows.
        base.open(Ticket::new(1, "pre-upgrade")).unwrap();
        let extended = ExtendedTicketServerProxy::upgrade(base, Arc::clone(&auth)).unwrap();
        // Afterwards, a token is mandatory...
        assert!(extended.assign(AuthToken(0)).is_err());
        // ...and valid sessions still see the pre-upgrade ticket.
        let token = auth.login("alice", "pw").unwrap();
        assert_eq!(extended.assign(token).unwrap().id.0, 1);
    }

    #[test]
    fn expired_session_rejected() {
        use amf_concurrency::ManualClock;
        let clock = ManualClock::new();
        let auth = Arc::new(
            Authenticator::with_clock(Arc::new(clock.clone())).with_ttl(Duration::from_secs(30)),
        );
        auth.add_user("alice", "pw");
        let proxy = ExtendedTicketServerProxy::new(2, AspectModerator::shared(), Arc::clone(&auth))
            .unwrap();
        let token = auth.login("alice", "pw").unwrap();
        proxy.open(token, Ticket::new(1, "x")).unwrap();
        clock.advance(Duration::from_secs(31));
        let err = proxy.assign(token).unwrap_err();
        assert!(err.to_string().contains("expired"));
        assert_eq!(auth.validate(token), Err(AuthError::InvalidToken));
    }

    #[test]
    fn reusing_an_occupied_moderator_is_rejected() {
        // Re-registering the same (method, concern) cells errors instead
        // of silently double-composing.
        let (proxy, _auth) = setup();
        let moderator = Arc::clone(proxy.base().moderator());
        let factory = TicketSyncFactory::new(2);
        let err = TicketServerProxy::with_factory(2, moderator, &factory, factory.buffer_handle())
            .unwrap_err();
        assert!(matches!(err, RegistrationError::DuplicateConcern { .. }));
    }
}
