//! The aspect moderator: the coordination engine of the framework.
//!
//! The moderator owns the aspect registry and drives the paper's
//! protocol (Figure 11): *pre-activation* evaluates the preconditions of
//! every aspect registered for a participating method — blocking the
//! caller on the method's wait queue while any returns `BLOCKED`,
//! failing the activation if any returns `ABORT` — and *post-activation*
//! runs every aspect's postaction and notifies the wait queues of
//! dependent methods.
//!
//! # Module map
//!
//! This module is a facade over a small tree (see DESIGN.md, "Moderator
//! module map"): this file holds the policy enums, the builder and
//! the `AspectModerator` type; `cell` the coordination cells and the
//! method registry; `queue` the wake plumbing over the shared
//! [`amf_concurrency::TicketQueue`]; `stats` the counter shards;
//! `fault` panic containment; `protocol` the pre/post-activation state
//! machine. Everything below the facade parks and wakes through the
//! engine-agnostic [`GrantSource`]/[`Waiter`](amf_concurrency::Waiter)
//! pair from `amf-concurrency` — nothing inside a cell names a
//! condvar, so a different engine (e.g. an async one) can be slotted in
//! without touching the protocol.
//!
//! # Locking model
//!
//! The paper's `synchronized` moderator serializes every activation of
//! every method behind one lock. This implementation **shards** that
//! coordination state into per-method *cells* (see [`Coordination`]):
//!
//! * Each declared method owns a cell — a mutex guarding its aspect
//!   chain and wake wiring — plus its own engine-supplied waitpoint and
//!   a shard of atomic counters. Activations of *different* methods
//!   coordinate on different locks and proceed in parallel.
//! * One method's aspect chain is never evaluated concurrently with
//!   itself: the chain runs under the method's cell lock, so aspects
//!   still need no internal synchronization for per-method state.
//!   State shared *across* methods (e.g. the producer/consumer buffer
//!   counters of `amf-aspects`) must carry its own lock, as every
//!   aspect in this workspace already does.
//! * Moderator-global state is lock-free: the invocation counter is an
//!   atomic, stats are per-method atomic shards aggregated on read, and
//!   the method-name→index registry sits behind an `RwLock` that the
//!   hot path only ever read-locks (writes happen in `declare_method`).
//! * **Notify discipline**: post-activation runs postactions under its
//!   own cell, releases it, then signals each target method's waitpoint
//!   *while holding that target's cell lock*. A blocking
//!   pre-activation holds its cell lock continuously from chain
//!   evaluation to parking, so a cross-method wakeup (open→assign) can
//!   never land in the window between "evaluated: blocked" and
//!   "parked" — it would have to wait for the cell lock first. The
//!   split form ([`AspectModerator::begin_preactivation`], then
//!   [`AspectModerator::finish_preactivation`]) does release the lock
//!   in that window; a wake landing there persists as a queue permit
//!   under Fifo, and under Barging as a bumped wake generation of the
//!   method's row (`CellState::note_wake`), which sends the
//!   continuation back to its chain instead of to sleep.
//! * **Rollback notification**: with sharding, another method's chain
//!   may observe a reservation that a blocked or aborted chain later
//!   rolls back (impossible under the single lock, where whole-chain
//!   evaluation was atomic). Whenever rollback releases at least one
//!   aspect, the moderator therefore notifies the method's wake targets
//!   — the rollback is semantically a mini post-activation — and a
//!   blocked caller that rolled back re-checks its chain on a short
//!   backstop interval to close the residual race.
//! * **Self-wake**: postactions (and rollbacks) mutate the very state a
//!   method's *own* waiters are guarded by — the paper's `ActiveOpen ==
//!   0` flag frees a fellow producer, not a consumer. Relying on the
//!   *other* method's next post-activation to deliver that wakeup
//!   deadlocks once that method has gone quiet (two producers, one
//!   parked on the active flag, after the last consumer finished). The
//!   moderator therefore always signals the method's own waitpoint
//!   after postactions and after a rollback that released a
//!   reservation. [`AspectModerator::wire_wakes`] restricts which
//!   *other* queues are notified; the self-wake is uncounted and
//!   untraced.
//! * **Fairness**: by default waiters barge — the waitpoint (ultimately
//!   the scheduler) picks the winner and a fresh arrival may overtake
//!   every parked waiter. [`FairnessPolicy::Fifo`] replaces that with a
//!   ticketed FIFO queue per cell (the workspace-shared
//!   [`amf_concurrency::TicketQueue`]): wake permits are recorded as
//!   queue state under the cell lock (so none is lost in an unlocked
//!   window), grants go strictly first-parked-first-served, newcomers
//!   finding waiters park without evaluating their chain, and a
//!   timed-out ticket hands pending permits to its successor on
//!   cancellation. See DESIGN.md ("Fairness") for the full ticket
//!   lifecycle.
//! * **Batched grants**: under Fifo, a departing grant holder whose
//!   settle leaves no permit pending *extends* its grant to the new
//!   queue front (enabled by default; see
//!   [`ModeratorBuilder::grant_batching`]). When one postaction or
//!   quarantine sweep frees k resources at once, the front-k prefix of
//!   waiters drains in one continuous cursor-ordered sweep of the cell
//!   lock instead of k separate notification round trips — the
//!   capacity-k convoy experiment E12. The extension is a cursor-ordered
//!   sweep, never independent permits, which is what preserves
//!   no-overtake (model-checked in `amf-verify`, including the
//!   `split_batch_overtake` ablation showing what unordered batch
//!   permits would break). Batched admissions are counted in
//!   [`ModeratorStats::batched_grants`].
//! * **Two-phase admission (the lock-free fast lane)**: every method
//!   carries a packed atomic *lane word* (`cell::FastLane`) encoding
//!   open/closed, the count of in-flight fast admissions, and an ABA
//!   epoch. While every aspect of the row declares its callbacks
//!   `pure + veto_free + no_park`
//!   ([`AspectCapabilities`](crate::AspectCapabilities)), the cell is
//!   waiter-free, no slot is quarantined and the wake wiring is empty,
//!   the lane is *open* and pre-activation admits with a single CAS —
//!   no cell lock, no chain evaluation — with post-activation departing
//!   through the matching lock-free release. The slow path closes the
//!   lane eagerly *before* any waiter enqueues or parks; only the
//!   departure that leaves the cell waiter-free reopens it
//!   (`queue::refresh_lane`, the single opening authority), and a
//!   contained panic revokes the row's eligibility outright. Fast
//!   admissions are counted in [`ModeratorStats::fast_path_admits`];
//!   CAS contention falls back to the locked path and counts in
//!   [`ModeratorStats::fast_path_fallbacks`]. See DESIGN.md
//!   ("Two-phase admission") for the word layout and the
//!   memory-ordering table.
//! * **Fault containment**: aspects are foreign code running inside the
//!   coordination engine, under the cell lock. Under a non-default
//!   [`PanicPolicy`] every aspect callback (precondition, postaction,
//!   release, cancel) runs inside `catch_unwind`; a precondition panic
//!   takes the same compensation path as a mid-chain `Verdict::Abort`
//!   (prefix rollback + rollback notification), a postaction panic
//!   still finishes the remaining postactions and releases the
//!   activation, and [`PanicPolicy::Quarantine`] disables a repeatedly
//!   panicking slot so one bad concern degrades gracefully instead of
//!   taking its method down. See DESIGN.md ("Fault containment").
//!
//! Lock ordering is `registry → at most one cell`: no code path holds a
//! cell lock while acquiring the registry lock, and no path holds two
//! cell locks at once, so the lock graph is acyclic by construction.

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use amf_concurrency::{Clock, CondvarEngine, GrantSource, SystemClock};
use parking_lot::RwLock;

use crate::concern::{Concern, MethodId};
use crate::trace::{EventKind, TraceEvent, TraceSink};

mod cell;
mod fault;
mod protocol;
mod queue;
mod stats;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_fifo;
#[cfg(test)]
mod tests_split;

pub use cell::{CellState, MethodHandle};
pub use protocol::{FirstPass, PendingActivation};
pub use stats::{ModeratorStats, WaitHistogram};

use cell::Registry;

/// How often a caller that blocked *after rolling back a reservation*
/// re-evaluates its chain while parked. This backstop closes the
/// sharded-moderator race where another method's chain observed the
/// transient reservation; see the module docs ("Rollback notification").
const ROLLBACK_RECHECK: Duration = Duration::from_millis(1);

/// Number of buckets in a [`WaitHistogram`].
pub const WAIT_BUCKETS: usize = 16;

/// In what order a method's aspects compose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderingPolicy {
    /// Later-registered aspects *wrap* earlier ones: preconditions run
    /// newest-first, postactions oldest-first. This matches the paper's
    /// adaptability example (Figure 14): authentication, registered by the
    /// extended proxy *after* synchronization, runs its precondition
    /// first and its postaction last.
    #[default]
    Nested,
    /// Aspects run in registration order on both phases' entry side:
    /// preconditions oldest-first, postactions newest-first.
    Declaration,
}

/// How a notification wakes a method's waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WakeMode {
    /// Wake every waiter; each re-evaluates and possibly re-blocks.
    /// Never loses a wakeup (default).
    #[default]
    NotifyAll,
    /// Wake a single waiter per notification, like Java's `notify()` used
    /// in the paper. Cheaper under contention but can strand waiters when
    /// the woken thread re-blocks without progress; compared in
    /// experiment E6.
    NotifyOne,
}

/// Whether earlier-resumed aspects are rolled back (via
/// [`Aspect::on_release`](crate::Aspect::on_release)) when a later
/// aspect in the chain blocks or aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RollbackPolicy {
    /// Roll back (default; fixes the multi-aspect composition anomaly,
    /// see DESIGN.md and experiment E7).
    #[default]
    Release,
    /// Do not roll back — the paper's literal semantics.
    None,
}

/// How coordination state is laid out across participating methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Coordination {
    /// One coordination cell (lock + waitpoint + counters) per method:
    /// activations of disjoint methods proceed in parallel (default).
    #[default]
    Sharded,
    /// Every method shares a single cell, serializing all coordination
    /// behind one lock — the paper's `synchronized` moderator. Retained
    /// as the measured baseline for experiment E9; protocol semantics
    /// are identical (each method still has its own wait queue).
    GlobalLock,
}

/// Which blocked caller proceeds when a notification opens the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FairnessPolicy {
    /// Waiters race for the grant: the waitpoint (ultimately the
    /// scheduler) picks the winner, and a newly arriving caller
    /// evaluates its chain immediately — overtaking every parked waiter
    /// whose precondition would now resume. The paper's
    /// `wait()`/`notify()` semantics; cheapest, starvation-prone under
    /// contention (default).
    #[default]
    Barging,
    /// Ticketed FIFO: each parked caller holds a monotonically
    /// increasing per-cell ticket and grants are strictly
    /// first-parked-first-served. A newly arriving caller finding
    /// waiters queues behind them *without* evaluating its chain
    /// (barging prevention), and a timed wait that cancels surrenders
    /// its ticket to its successors. See the module docs ("Fairness")
    /// and DESIGN.md.
    Fifo,
}

/// What the moderator does when an aspect callback panics.
///
/// Aspects run inside the coordination engine, under the method's cell
/// lock; an uncontained panic there unwinds with the chain
/// half-evaluated, leaking reservations and stranding waiters. The
/// non-default policies wrap every callback in `catch_unwind` and route
/// a precondition panic through the same compensation path a mid-chain
/// [`Verdict::Abort`](crate::Verdict::Abort) takes (prefix rollback +
/// notifications), so no reservation or wake permit leaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PanicPolicy {
    /// No containment: the panic unwinds through the moderator to the
    /// caller, exactly as if the aspect had been called directly. The
    /// paper's (implicit) semantics, and zero-overhead: callbacks are
    /// invoked without a `catch_unwind` frame (default).
    #[default]
    Propagate,
    /// Catch the panic and abort the invocation with
    /// [`AbortError::AspectPanicked`](crate::AbortError::AspectPanicked),
    /// rolling back the already-evaluated prefix of the chain. The
    /// aspect stays registered and will run again on the next
    /// invocation.
    AbortInvocation,
    /// Like [`PanicPolicy::AbortInvocation`], but after an aspect slot
    /// has panicked `after` times it is *quarantined*: from then on it
    /// evaluates as `Resume`/no-op, the method keeps serving, and the
    /// slot is reported in [`AspectModerator::quarantined_concerns`].
    /// Quarantining shortens the effective chain, so the method's
    /// waiters are woken to re-evaluate (same discipline as
    /// [`AspectModerator::deregister`]).
    Quarantine {
        /// Number of caught panics after which the slot is disabled.
        after: u32,
    },
}

/// Configures and builds an [`AspectModerator`].
///
/// ```
/// use amf_core::{AspectModerator, OrderingPolicy, WakeMode};
/// use amf_core::trace::MemoryTrace;
///
/// let trace = MemoryTrace::shared();
/// let moderator = AspectModerator::builder()
///     .ordering(OrderingPolicy::Nested)
///     .wake_mode(WakeMode::NotifyAll)
///     .trace(trace)
///     .build();
/// # let _ = moderator;
/// ```
pub struct ModeratorBuilder {
    ordering: OrderingPolicy,
    wake_mode: WakeMode,
    rollback: RollbackPolicy,
    coordination: Coordination,
    fairness: FairnessPolicy,
    panic_policy: PanicPolicy,
    grant_batching: bool,
    engine: Option<Arc<dyn GrantSource<CellState>>>,
    clock: Option<Arc<dyn Clock>>,
    trace: Option<Arc<dyn TraceSink>>,
}

impl Default for ModeratorBuilder {
    fn default() -> Self {
        Self {
            ordering: OrderingPolicy::default(),
            wake_mode: WakeMode::default(),
            rollback: RollbackPolicy::default(),
            coordination: Coordination::default(),
            fairness: FairnessPolicy::default(),
            panic_policy: PanicPolicy::default(),
            grant_batching: true,
            engine: None,
            clock: None,
            trace: None,
        }
    }
}

impl fmt::Debug for ModeratorBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModeratorBuilder")
            .field("ordering", &self.ordering)
            .field("wake_mode", &self.wake_mode)
            .field("rollback", &self.rollback)
            .field("coordination", &self.coordination)
            .field("fairness", &self.fairness)
            .field("panic_policy", &self.panic_policy)
            .field("grant_batching", &self.grant_batching)
            .field("engine", &self.engine.is_some())
            .field("clock", &self.clock.is_some())
            .field("trace", &self.trace.is_some())
            .finish()
    }
}

impl ModeratorBuilder {
    /// Sets the aspect composition order (default [`OrderingPolicy::Nested`]).
    #[must_use]
    pub fn ordering(mut self, ordering: OrderingPolicy) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets how notifications wake waiters (default [`WakeMode::NotifyAll`]).
    #[must_use]
    pub fn wake_mode(mut self, mode: WakeMode) -> Self {
        self.wake_mode = mode;
        self
    }

    /// Sets the rollback policy (default [`RollbackPolicy::Release`]).
    #[must_use]
    pub fn rollback(mut self, rollback: RollbackPolicy) -> Self {
        self.rollback = rollback;
        self
    }

    /// Sets the coordination layout (default [`Coordination::Sharded`]).
    #[must_use]
    pub fn coordination(mut self, coordination: Coordination) -> Self {
        self.coordination = coordination;
        self
    }

    /// Sets which blocked caller proceeds when a gate opens (default
    /// [`FairnessPolicy::Barging`]).
    #[must_use]
    pub fn fairness(mut self, fairness: FairnessPolicy) -> Self {
        self.fairness = fairness;
        self
    }

    /// Sets what happens when an aspect callback panics (default
    /// [`PanicPolicy::Propagate`]).
    #[must_use]
    pub fn panic_policy(mut self, policy: PanicPolicy) -> Self {
        self.panic_policy = policy;
        self
    }

    /// Enables or disables batched grants under [`FairnessPolicy::Fifo`]
    /// (default enabled; no effect under `Barging`).
    ///
    /// With batching on, a departing grant holder whose settle leaves no
    /// permit pending extends its grant to the new queue front, draining
    /// a freed capacity-k prefix in one cursor-ordered sweep instead of
    /// k one-at-a-time notification round trips (module docs, "Batched
    /// grants"). Disable to measure the one-at-a-time baseline
    /// (experiment E12) or to reproduce the pre-batching handoff
    /// behavior exactly.
    #[must_use]
    pub fn grant_batching(mut self, enabled: bool) -> Self {
        self.grant_batching = enabled;
        self
    }

    /// Replaces the park/wake engine (default: condvar-backed
    /// [`CondvarEngine`]). The engine contract is engine-agnostic —
    /// nothing in the protocol names a condvar — so alternative engines
    /// (the deterministic simulator in `amf-sim`, an async engine) slot
    /// in here. [`CellState`] is deliberately opaque: an engine parks
    /// and wakes on guards over it without inspecting it.
    #[must_use]
    pub fn engine(mut self, engine: Arc<dyn GrantSource<CellState>>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Replaces the protocol's time source (default: wall-clock
    /// [`SystemClock`]). Every protocol deadline — timed preactivations
    /// and the rollback-recheck backstop — is computed against this
    /// clock and waited out through [`amf_concurrency::Waiter::park_for`],
    /// so a virtual clock (e.g. the simulator's) makes timed waits
    /// deterministic: no wall time enters a scheduling decision.
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attaches a protocol trace sink.
    #[must_use]
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Builds the moderator.
    pub fn build(self) -> AspectModerator {
        AspectModerator {
            registry: RwLock::new(Registry::default()),
            invocations: AtomicU64::new(0),
            ordering: self.ordering,
            wake_mode: self.wake_mode,
            rollback: self.rollback,
            coordination: self.coordination,
            fairness: self.fairness,
            panic_policy: self.panic_policy,
            grant_batching: self.grant_batching,
            engine: self.engine.unwrap_or_else(|| Arc::new(CondvarEngine)),
            clock: self.clock.unwrap_or_else(|| Arc::new(SystemClock::new())),
            trace: self.trace,
        }
    }
}

/// The coordination engine: owns the aspect registry, evaluates pre/post
/// activation, parks and wakes callers.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use amf_core::{AspectModerator, Concern, FnAspect, InvocationContext, MethodId, Verdict};
///
/// let moderator = AspectModerator::new();
/// let open = moderator.declare_method(MethodId::new("open"));
///
/// // A capacity-1 "buffer" captured by the aspect.
/// moderator.register(
///     &open,
///     Concern::synchronization(),
///     Box::new(FnAspect::new("cap1").on_precondition({
///         let mut used = false;
///         move |_| { let v = Verdict::resume_if(!used); if !used { used = true; } v }
///     })),
/// ).unwrap();
///
/// let mut ctx = InvocationContext::new(open.id().clone(), moderator.next_invocation());
/// moderator.preactivation(&open, &mut ctx).unwrap();
/// // ... run the functional method here ...
/// moderator.postactivation(&open, &mut ctx);
/// ```
pub struct AspectModerator {
    registry: RwLock<Registry>,
    invocations: AtomicU64,
    ordering: OrderingPolicy,
    wake_mode: WakeMode,
    rollback: RollbackPolicy,
    coordination: Coordination,
    fairness: FairnessPolicy,
    panic_policy: PanicPolicy,
    grant_batching: bool,
    engine: Arc<dyn GrantSource<CellState>>,
    clock: Arc<dyn Clock>,
    trace: Option<Arc<dyn TraceSink>>,
}

impl fmt::Debug for AspectModerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let registry = self.registry.read();
        let aspects: usize = registry
            .entries
            .iter()
            .map(|e| e.cell.state.lock().bank.concern_count(e.slot))
            .sum();
        f.debug_struct("AspectModerator")
            .field("methods", &registry.entries.len())
            .field("aspects", &aspects)
            .field("ordering", &self.ordering)
            .field("wake_mode", &self.wake_mode)
            .field("rollback", &self.rollback)
            .field("coordination", &self.coordination)
            .field("fairness", &self.fairness)
            .field("panic_policy", &self.panic_policy)
            .field("grant_batching", &self.grant_batching)
            .finish()
    }
}

impl Default for AspectModerator {
    fn default() -> Self {
        Self::new()
    }
}

impl AspectModerator {
    /// Creates a moderator with default policies and no trace.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Starts configuring a moderator.
    pub fn builder() -> ModeratorBuilder {
        ModeratorBuilder::default()
    }

    /// Convenience: a default moderator already wrapped in an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn emit(&self, invocation: u64, method: &MethodId, concern: Option<Concern>, kind: EventKind) {
        if let Some(sink) = &self.trace {
            sink.record(TraceEvent {
                invocation,
                method: method.clone(),
                concern,
                kind,
            });
        }
    }

    /// Issues the next invocation number (used by proxies to build
    /// contexts).
    pub fn next_invocation(&self) -> u64 {
        stats::next_invocation_id(&self.invocations)
    }
}
