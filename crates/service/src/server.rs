//! The TCP front of the moderated ticket server.
//!
//! Every remote `open`/`assign` flows through the full pre-/post-
//! activation protocol of the in-process proxy; the network layer adds
//! nothing but framing. Cross-cutting concerns map onto aspects, not
//! onto handler code:
//!
//! | concern | aspect | registered |
//! |---|---|---|
//! | buffer synchronization | `sync` pair (in the base proxy) | first (innermost) |
//! | per-principal rate limiting | [`QuotaAspect`] | second |
//! | global throughput ceiling | [`RateLimitAspect`] | third (optional) |
//! | authentication | `AuthenticationAspect` via proxy upgrade | fourth |
//! | counters + latency histograms | [`MetricsAspect`] | last (outermost) |
//!
//! Registration order is the composition order: aspects registered
//! later run *first* on entry, so the activation sequence is
//! metrics → auth → throttle → quota → sync → method — authentication
//! attaches the principal before the quota aspect bills it.
//!
//! The moderator keeps a coordination cell per method, so an `open`
//! and an `assign` coordinate on different locks and meet only where
//! the protocol demands it (the buffer-sync aspect pair and
//! cross-method wakeups).
//!
//! One execution front serves every connection: the readiness-driven
//! reactor ([`crate::reactor`]) multiplexes all of them onto one epoll
//! loop and runs each request to completion on that thread when its
//! pre-activation does not block. Only a request whose first pass
//! blocks goes to the [`TaskEngine`], whose waiters also back the
//! moderator's coordination cells, so a parked request suspends a
//! task, not the reactor. The engine hosts nothing but parked waits.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use amf_aspects::auth::{AuthToken, Authenticator};
use amf_aspects::metrics::{MetricsAspect, MetricsHub};
use amf_aspects::quota::QuotaAspect;
use amf_aspects::sched::{RateLimitAspect, ThrottleMode};
use amf_concurrency::{RateLimiter, RateLimiterConfig, SystemClock, TaskEngine};
use amf_core::trace::MemoryTrace;
use amf_core::{
    AbortError, AspectModerator, Concern, FairnessPolicy, PanicPolicy, RegistrationError,
};
use amf_ticketing::{
    Attempt, ExtendedTicketServerProxy, PendingTicketOp, Ticket, TicketServerProxy,
};

use crate::codec::{severity_from_wire, Request, Response, WireStats};
use crate::reactor::{self, ReactorWaker};

/// Tuning knobs for [`TicketService::spawn`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ticket-buffer capacity (bounded; `open` blocks when full).
    pub capacity: usize,
    /// Execution parallelism: the task engine's core worker count.
    /// Connections are not bounded by it.
    pub workers: usize,
    /// Per-principal request quota within `quota_window`.
    pub quota_limit: u64,
    /// Fixed window over which the quota resets.
    pub quota_window: Duration,
    /// Optional global token-bucket ceiling across all clients; requests
    /// beyond it are aborted (throttled), not queued.
    pub rate: Option<RateLimiterConfig>,
    /// How long a request may stay blocked (buffer full/empty) before
    /// the server answers `Blocked`.
    pub op_timeout: Duration,
    /// Wake discipline of the coordination cells. `Barging` (the
    /// default) minimizes median latency; `Fifo` tickets each cell's
    /// waiters so no request is ever overtaken while parked — bounded
    /// tail latency under contention at some median cost (E10).
    pub fairness: FairnessPolicy,
    /// What the moderator does with a panicking aspect. The service
    /// defaults to `AbortInvocation`: the panic is contained, the chain
    /// rolled back, and the client sees `Response::Err` instead of a
    /// dead worker thread.
    pub panic_policy: PanicPolicy,
    /// Socket read/write deadline applied by [`crate::ServiceClient`]
    /// (`set_read_timeout`/`set_write_timeout`). A client whose server
    /// dies mid-reply surfaces `ClientError::Timeout` instead of
    /// hanging forever. `None` restores the old block-forever behavior.
    pub io_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            workers: 16,
            quota_limit: 1_000_000,
            quota_window: Duration::from_secs(1),
            rate: None,
            op_timeout: Duration::from_millis(200),
            fairness: FairnessPolicy::Barging,
            panic_policy: PanicPolicy::AbortInvocation,
            io_deadline: Some(Duration::from_secs(5)),
        }
    }
}

/// Why the service failed to start.
#[derive(Debug)]
pub enum ServiceError {
    /// Binding or cloning the listener failed.
    Io(io::Error),
    /// Composing the aspect stack failed.
    Registration(RegistrationError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service i/o error: {e}"),
            ServiceError::Registration(e) => write!(f, "aspect composition failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<RegistrationError> for ServiceError {
    fn from(e: RegistrationError) -> Self {
        ServiceError::Registration(e)
    }
}

pub(crate) struct ServiceShared {
    proxy: ExtendedTicketServerProxy,
    op_timeout: Duration,
    pub(crate) shutting_down: AtomicBool,
    /// Live connection count, maintained by the reactor.
    pub(crate) open_connections: AtomicU64,
    /// Runs request tasks; feeds `tasks_parked`.
    engine: Arc<TaskEngine>,
}

/// How far [`ServiceShared::begin_request`] got on the reactor thread.
pub(crate) enum Begun {
    /// Answered: nothing blocked.
    Done(Response),
    /// An `open` or `assign` blocked in pre-activation; a task must
    /// finish it ([`ServiceShared::finish_request`]).
    Parked(PendingTicketOp),
}

impl ServiceShared {
    /// Runs a request up to its first `BLOCKED`, never parking: the
    /// whole request when admission resumes at once, otherwise the
    /// first pass of pre-activation.
    pub(crate) fn begin_request(&self, req: Request) -> Begun {
        let attempt = match req {
            Request::Open {
                token,
                id,
                severity,
                summary,
            } => {
                let ticket = Ticket::new(id, summary).with_severity(severity_from_wire(severity));
                self.proxy
                    .begin_open(AuthToken(token), ticket, self.op_timeout)
            }
            Request::Assign { token } => self.proxy.begin_assign(AuthToken(token), self.op_timeout),
            Request::Stats => return Begun::Done(Response::Stats(self.stats())),
            Request::Shutdown => {
                // Raise the flag before the ack goes out: a client that
                // reads this Ok and reconnects must already see the
                // service as down.
                self.shutting_down.store(true, Ordering::SeqCst);
                return Begun::Done(Response::Ok(None));
            }
        };
        match attempt {
            Ok(Attempt::Done(ticket)) => Begun::Done(Response::Ok(ticket)),
            Ok(Attempt::Pending(op)) => Begun::Parked(op),
            Err(e) => Begun::Done(abort_to_response(&e)),
        }
    }

    /// Waits out a parked request and runs it. Parks the calling
    /// thread, so it runs on an engine worker.
    pub(crate) fn finish_request(&self, op: PendingTicketOp) -> Response {
        match self.proxy.finish(op) {
            Ok(ticket) => Response::Ok(ticket),
            Err(e) => abort_to_response(&e),
        }
    }

    fn stats(&self) -> WireStats {
        let (opened, assigned) = self.proxy.base().totals();
        let mod_stats = self.proxy.base().moderator().stats();
        WireStats {
            opened,
            assigned,
            queued: self.proxy.len() as u64,
            aborts: mod_stats.aborts,
            timeouts: mod_stats.timeouts,
            max_queue_depth: mod_stats.max_queue_depth,
            panics_caught: mod_stats.panics_caught,
            batched_grants: mod_stats.batched_grants,
            fast_path_admits: mod_stats.fast_path_admits,
            fast_path_fallbacks: mod_stats.fast_path_fallbacks,
            open_connections: self.open_connections.load(Ordering::SeqCst),
            tasks_parked: self.engine.tasks_parked(),
        }
    }
}

fn abort_to_response(err: &AbortError) -> Response {
    match err {
        AbortError::Timeout { .. } => Response::Blocked,
        AbortError::Aspect {
            concern, reason, ..
        } => Response::Aborted(format!("{concern}: {reason}")),
        AbortError::AspectPanicked {
            concern, message, ..
        } => Response::Err(format!("aspect panic contained ({concern}): {message}")),
    }
}

/// Handle on a running service: address, shared substrate, shutdown.
///
/// Dropping the handle shuts the service down.
pub struct ServiceHandle {
    addr: SocketAddr,
    auth: Arc<Authenticator>,
    metrics: MetricsHub,
    trace: Arc<MemoryTrace>,
    shared: Arc<ServiceShared>,
    /// Interrupts the reactor's `epoll_wait` on shutdown.
    waker: Arc<ReactorWaker>,
    reactor_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServiceHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The authenticator: provision users and mint tokens here.
    pub fn authenticator(&self) -> &Arc<Authenticator> {
        &self.auth
    }

    /// Counters and latency histograms per participating method.
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// The protocol trace of every moderated activation.
    pub fn trace(&self) -> &Arc<MemoryTrace> {
        &self.trace
    }

    /// The live moderated proxy behind the service. Registering
    /// further aspects through it (via `proxy().base().moderator()`)
    /// is the paper's adaptability move applied to a running service —
    /// the chaos battery uses it to inject panics against live
    /// connections.
    pub fn proxy(&self) -> &ExtendedTicketServerProxy {
        &self.shared.proxy
    }

    /// The engine that hosts parked requests.
    #[cfg(test)]
    pub(crate) fn engine(&self) -> &TaskEngine {
        &self.shared.engine
    }

    /// Current service counters (same numbers as the `Stats` opcode).
    pub fn stats(&self) -> WireStats {
        self.shared.stats()
    }

    /// Stops accepting connections, disconnects clients, joins every
    /// worker. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        self.shared.engine.shutdown();
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The networked ticket service.
#[derive(Debug)]
pub struct TicketService;

impl TicketService {
    /// Composes the aspect stack, binds `addr` (use port 0 for an
    /// ephemeral port) and starts accepting connections.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the bind or the aspect composition fails.
    pub fn spawn(addr: &str, config: ServiceConfig) -> Result<ServiceHandle, ServiceError> {
        let trace = MemoryTrace::shared();
        // The engine doubles as the moderator's grant source: a request
        // blocked inside the protocol parks its task, and the freed
        // worker serves other requests.
        let engine = Arc::new(TaskEngine::new(config.workers));
        let moderator = Arc::new(
            AspectModerator::builder()
                .trace(trace.clone() as Arc<dyn amf_core::trace::TraceSink>)
                .fairness(config.fairness)
                .panic_policy(config.panic_policy)
                .engine(Arc::<TaskEngine>::clone(&engine))
                .build(),
        );
        let auth = Authenticator::shared();
        let metrics = MetricsHub::new();

        // Innermost: the base proxy registers the synchronization pair.
        let base = TicketServerProxy::new(config.capacity, Arc::clone(&moderator))?;
        let open = base.open_handle().clone();
        let assign = base.assign_handle().clone();
        // Per-principal quotas (billed to the authenticated principal).
        for handle in [&open, &assign] {
            moderator.register(
                handle,
                Concern::quota(),
                Box::new(QuotaAspect::new(config.quota_limit).with_window(config.quota_window)),
            )?;
        }
        // Optional global ceiling, one bucket shared by both methods.
        if let Some(rate) = config.rate {
            let limiter = Arc::new(RateLimiter::new(rate, Arc::new(SystemClock::new())));
            for handle in [&open, &assign] {
                moderator.register(
                    handle,
                    Concern::throttling(),
                    Box::new(RateLimitAspect::new(
                        Arc::clone(&limiter),
                        ThrottleMode::Abort,
                    )),
                )?;
            }
        }
        // Authentication joins the live proxy (the paper's adaptability
        // move); registered after quota so it runs before it on entry.
        let proxy = ExtendedTicketServerProxy::upgrade(base, Arc::clone(&auth))?;
        // Outermost: observe everything, including time spent blocked.
        for handle in [&open, &assign] {
            moderator.register(
                handle,
                Concern::metrics(),
                Box::new(MetricsAspect::new(metrics.clone())),
            )?;
        }

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServiceShared {
            proxy,
            op_timeout: config.op_timeout,
            shutting_down: AtomicBool::new(false),
            open_connections: AtomicU64::new(0),
            engine: Arc::clone(&engine),
        });
        let (reactor_thread, waker) = reactor::spawn(listener, Arc::clone(&shared), engine)?;

        Ok(ServiceHandle {
            addr: local_addr,
            auth,
            metrics,
            trace,
            shared,
            waker,
            reactor_thread: Some(reactor_thread),
        })
    }
}
