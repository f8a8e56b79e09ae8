//! The schedule explorer: exhaustive (havoc-style DFS over action
//! schedules, with state-hash pruning and iterative-deepening replay)
//! or randomized (seeded walks) behind the [`Strategy`] knob.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{MethodIx, ModelSystem, ModelVerdict, WakeSet};

/// How [`Checker::run`] covers the schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Enumerate *every* schedule of the bounded scenario: a DFS over
    /// explicit `(thread, branch)` choices with state-hash pruning and
    /// iterative-deepening replay (the depth bound doubles until the
    /// whole space fits, so counterexamples are found near their
    /// shortest depth). The default.
    Exhaustive,
    /// Seeded random walks ([`Checker::samples`] of them) through the
    /// schedule space — sampling, not enumeration. For scenarios whose
    /// state space exceeds the exhaustive budget.
    Randomized {
        /// Seed for the walk RNG; equal seeds replay equal walks.
        seed: u64,
    },
}

/// Schedule-space reduction applied by [`Strategy::Exhaustive`]
/// (selected with [`Checker::reduction`]; ignored by
/// [`Strategy::Randomized`]).
///
/// Reduction never changes *verdicts*: the reduced exploration visits
/// every reachable state the unreduced one does (sleep sets prune
/// redundant transition orders, not states; the persistent-set layer
/// is applied only where deadlock- and terminal-preservation are
/// guaranteed), so [`Exploration::outcome`] is identical under both
/// policies and any counterexample still replays and shrinks the same
/// way. Only [`Exploration::schedules`] (and with it wall-clock time)
/// shrinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionPolicy {
    /// No reduction: explore every schedule (the default). Exploration
    /// counts are exactly those of the explorer before reduction
    /// existed, preserved for A/B comparison and for the CI
    /// schedule-count regression gate.
    #[default]
    None,
    /// Sleep-set + persistent-set dynamic partial-order reduction.
    ///
    /// *Sleep sets*: once a thread's step has been explored from a
    /// state, sibling branches carry it in a sleep set and skip it for
    /// as long as every step taken since provably commutes with it.
    /// Commutation is never assumed from the declared dependency
    /// footprints alone — it is *proved* per state by a
    /// replay-equivalence self-check (execute both orders, require
    /// bit-identical worlds), so a wrong declaration can cost
    /// reduction but never soundness.
    ///
    /// *Persistent sets*: when every method a thread may still touch
    /// has a dependency footprint (cell, queue, lane word, declared
    /// shared-state region — see [`ModelSystem::set_region`]) disjoint
    /// from the footprints of all other unfinished threads, the
    /// explorer commits to a conflict-closed subset of enabled threads
    /// and defers the rest. Applied only when no per-step invariant is
    /// configured (a step invariant reads the whole shared state, so
    /// every step conflicts with it); deadlocks, terminal states,
    /// final-invariant and fairness verdicts are preserved.
    ///
    /// [`ModelSystem::set_region`]: crate::ModelSystem::set_region
    Dpor,
}

/// Classification of one thread's next action at a given state — the
/// explorer's live/blocked bookkeeping. A state where every unfinished
/// thread is [`ActionResult::Blocked`] is a deadlock and is reported
/// with its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionResult {
    /// The action is live: scheduling the thread produces at least one
    /// successor state.
    Ran,
    /// The thread is parked on a queue with no timeout step enabled —
    /// not currently schedulable.
    Blocked,
    /// The thread finished its script and joined.
    Joined,
    /// The thread is live but its only enabled step is a panicking
    /// chain evaluation.
    Panicked,
}

/// One atomic protocol step, as it appears in counterexample traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A thread evaluated a method's whole precondition chain.
    Chain {
        /// Which thread stepped.
        thread: usize,
        /// Which method it is activating.
        method: String,
        /// `"resumed"`, `"blocked"`, `"aborted"`, `"panicked"`, or —
        /// in fifo mode — `"queued"` (a newcomer joined the queue
        /// without evaluating).
        result: &'static str,
    },
    /// A thread ran the functional method body.
    Body {
        /// Which thread stepped.
        thread: usize,
        /// The method whose body ran.
        method: String,
    },
    /// A thread ran post-activation (postactions + notifications).
    Post {
        /// Which thread stepped.
        thread: usize,
        /// The completing method.
        method: String,
    },
    /// Sharded mode: a thread rolled back its earlier-resumed aspects
    /// as a separate step (the reservations were visible to other
    /// methods' threads in between) and sent the rollback notification,
    /// then either completed aborted or, still blocked, released its
    /// cell lock before re-taking it to park.
    Unwind {
        /// Which thread stepped.
        thread: usize,
        /// The method whose chain is unwinding.
        method: String,
        /// `"blocked"` or `"aborted"`.
        result: &'static str,
    },
    /// A thread that had decided to block re-took its cell lock and
    /// parked, or, if a notification reached it while the lock was
    /// released, went back to its chain (the window closes). The window
    /// opens after a blocked unwind, and after every blocking decision
    /// in racy-park mode.
    Park {
        /// Which thread stepped.
        thread: usize,
        /// The method it parks on.
        method: String,
    },
    /// A timed thread gave up waiting: it surrendered its place in the
    /// method's queue and its op completed timed-out.
    Timeout {
        /// Which thread stepped.
        thread: usize,
        /// The method it stopped waiting on.
        method: String,
    },
    /// A thread was admitted through the modeled lock-free fast lane:
    /// a single CAS on the lane word, no chain evaluation, no queue
    /// interaction (see [`Checker::fast_lane`]).
    FastAdmit {
        /// Which thread stepped.
        thread: usize,
        /// The method it was fast-admitted to.
        method: String,
    },
    /// A fast-admitted thread departed through the matching lock-free
    /// release: no postactions, no notifications, no self-wake.
    FastRelease {
        /// Which thread stepped.
        thread: usize,
        /// The method it departs.
        method: String,
    },
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Chain {
                thread,
                method,
                result,
            } => write!(f, "t{thread}: chain({method}) -> {result}"),
            Step::Body { thread, method } => write!(f, "t{thread}: body({method})"),
            Step::Post { thread, method } => write!(f, "t{thread}: post({method})"),
            Step::Unwind {
                thread,
                method,
                result,
            } => write!(f, "t{thread}: unwind({method}) -> {result}"),
            Step::Park { thread, method } => write!(f, "t{thread}: park({method})"),
            Step::Timeout { thread, method } => write!(f, "t{thread}: timeout({method})"),
            Step::FastAdmit { thread, method } => write!(f, "t{thread}: fast-admit({method})"),
            Step::FastRelease { thread, method } => {
                write!(f, "t{thread}: fast-release({method})")
            }
        }
    }
}

/// Verdict of an exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every interleaving terminates with the invariant intact.
    Ok,
    /// A reachable state has unfinished threads and no runnable ones;
    /// the trace reproduces it.
    Deadlock(Vec<Step>),
    /// A reachable state violates the user invariant.
    InvariantViolation(Vec<Step>),
    /// A terminal (all-threads-done) state violates the quiescence
    /// invariant — typically a leaked reservation.
    FinalInvariantViolation(Vec<Step>),
    /// A thread's activation resumed while an *earlier-parked* waiter of
    /// the same method was still queued (wake-order inversion). Only
    /// reported when [`Checker::check_fairness`] is enabled; the trace
    /// reproduces the overtake.
    FairnessViolation(Vec<Step>),
    /// The state-space budget was exhausted before completion.
    StateLimit,
    /// The [`Checker::max_depth`] bound was reached with schedules
    /// still unexplored (exhaustive mode only; without an explicit
    /// bound the deepening continues until the space fits).
    DepthLimit,
}

/// Result of [`Checker::run`].
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The verdict.
    pub outcome: Outcome,
    /// Distinct states visited (by state hash).
    pub states: usize,
    /// Number of terminal (all-threads-done) states reached.
    pub terminals: usize,
    /// Maximal schedules explored: paths ending at a terminal state, a
    /// pruned revisit of an already-explored state, or the depth
    /// bound. Deterministic under [`Strategy::Exhaustive`] — the count
    /// is stable across runs of the same scenario.
    pub schedules: usize,
}

/// One scheduling decision: which thread steps, and which of its
/// (possibly several, under notify-one branching) successor worlds is
/// taken.
type Choice = (usize, usize);

/// Memo of per-state commutation proofs: `(state hash, thread a,
/// thread b) -> commutes`. Shared across deepening passes — the result
/// is a pure function of the state.
type CommuteCache = HashMap<(u64, usize, usize), bool>;

/// Failure discriminants shared by exploration and replay; carries no
/// trace so shrinking can compare candidates cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    Deadlock,
    Invariant,
    FinalInvariant,
    Fairness,
}

impl Failure {
    fn into_outcome(self, trace: Vec<Step>) -> Outcome {
        match self {
            Failure::Deadlock => Outcome::Deadlock(trace),
            Failure::Invariant => Outcome::InvariantViolation(trace),
            Failure::FinalInvariant => Outcome::FinalInvariantViolation(trace),
            Failure::Fairness => Outcome::FairnessViolation(trace),
        }
    }
}

/// End of one depth-bounded DFS pass.
enum PassEnd {
    /// The whole space fits under the bound: exploration is complete.
    Complete,
    /// Some schedule hit the depth bound; a deeper replay is needed.
    Cutoff,
    /// A failing schedule was found.
    Failed {
        schedule: Vec<Choice>,
        failure: Failure,
    },
    /// The distinct-state budget ran out.
    StateLimit,
}

#[derive(Default)]
struct PassStats {
    terminals: usize,
    schedules: usize,
}

/// One resource in a step's declared dependency footprint. Two steps
/// whose footprints share no conflicting resource are *candidate*
/// independent; the DPOR layers then treat the declaration
/// differently: the persistent-set layer trusts conflict-closure over
/// these footprints (they are conservative over-approximations), while
/// the sleep-set layer additionally proves every commutation by the
/// replay-equivalence self-check before acting on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Res {
    /// A method's coordination cell: chain evaluation, unwind,
    /// timeout cancellation all serialize on it.
    Cell(usize),
    /// A method's wait/ticket queue — membership (`order`/`elig`) and
    /// the phases of threads parked on it (notifications flip those).
    Queue(usize),
    /// A method's packed atomic lane word (fast admit / fast release).
    Lane(usize),
    /// A declared region of the user shared state `S` (see
    /// [`ModelSystem::set_region`](crate::ModelSystem::set_region)):
    /// methods in different regions promise not to read or write each
    /// other's part of `S`.
    Region(usize),
    /// Undeclared shared state: the whole registry of `S`. Conflicts
    /// with itself and with every region.
    Shared,
}

impl Res {
    fn conflicts(self, other: Res) -> bool {
        match (self, other) {
            (Res::Shared, Res::Shared | Res::Region(_)) => true,
            (Res::Region(_), Res::Shared) => true,
            (a, b) => a == b,
        }
    }
}

fn footprints_conflict(a: &[Res], b: &[Res]) -> bool {
    a.iter().any(|&ra| b.iter().any(|&rb| ra.conflicts(rb)))
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Phase {
    /// About to evaluate the chain of the current script op.
    Ready,
    /// Parked on a method's wait queue.
    Blocked(usize),
    /// Chain resumed; about to run the body.
    Body(usize),
    /// Body ran; about to run post-activation.
    Post(usize),
    /// Sharded mode: the chain decided to block (`then_block`) or abort
    /// with `evaluated` earlier aspects still holding reservations; the
    /// rollback happens in a later, separate step, so other threads can
    /// observe the transient reservations in between.
    Unwind {
        method: usize,
        evaluated: usize,
        then_block: bool,
    },
    /// Decided to block, cell lock released, not yet parked: after a
    /// blocked unwind (the rollback notification is sent with the lock
    /// released), or after any blocking decision in racy-park mode.
    /// `woken` records a notification that reached the thread in this
    /// window; the racy-park and late-wake-snapshot ablations miss it.
    WillBlock { method: usize, woken: bool },
    /// Fast-admitted (no chain evaluation); about to run the body.
    FastBody(usize),
    /// Fast-admitted body ran; about to depart through the lock-free
    /// release (no postactions, no notifications).
    FastPost(usize),
    /// Script finished.
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct World<S> {
    shared: S,
    /// (program counter, phase) per thread.
    threads: Vec<(usize, Phase)>,
    /// Truth park order per method: thread ids in the order they
    /// parked. This is the *specification* queue the fairness check
    /// compares against; the protocol never consults it.
    order: Vec<Vec<usize>>,
    /// Eligibility queue per method: the queue the modeled *protocol*
    /// consults for barging prevention and front-of-queue wakeups. In a
    /// correct implementation it always equals `order`; the fairness
    /// ablations corrupt it (and only it), so the divergence from
    /// `order` is exactly the bug being modeled.
    elig: Vec<Vec<usize>>,
    /// Per method: whether a chain evaluation has panicked — the model
    /// counterpart of the implementation's revoked capability contract
    /// (a contained panic falsifies the purity declaration, so the
    /// method's fast lane must never admit again until a reweave).
    panic_seen: Vec<bool>,
    /// Set when a step resumed past a still-queued earlier waiter.
    violated: bool,
}

type InvariantFn<S> = Arc<dyn Fn(&S) -> bool + Send + Sync>;

/// Explores every interleaving of a [`ModelSystem`] driven by thread
/// scripts. See the crate docs for a complete example.
pub struct Checker<S> {
    system: ModelSystem<S>,
    scripts: Vec<Vec<MethodIx>>,
    /// Whether each thread's blocked waits are timed (may give up).
    timed: Vec<bool>,
    invariant: Option<InvariantFn<S>>,
    final_invariant: Option<InvariantFn<S>>,
    strategy: Strategy,
    reduction: ReductionPolicy,
    max_states: usize,
    max_depth: Option<usize>,
    samples: usize,
    notify_one: bool,
    sharded: bool,
    rollback_notify: bool,
    racy_park: bool,
    late_wake_snapshot: bool,
    fifo: bool,
    check_fairness: bool,
    racy_handoff: bool,
    overtake_on_timeout: bool,
    leak_on_panic: bool,
    batched_grants: bool,
    split_batch_overtake: bool,
    seed_deadlock: bool,
    fast_lanes: HashSet<usize>,
    leaky_fast_path: bool,
    stale_eligibility: bool,
}

impl<S> fmt::Debug for Checker<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checker")
            .field("system", &self.system)
            .field("threads", &self.scripts.len())
            .field("strategy", &self.strategy)
            .field("reduction", &self.reduction)
            .field("max_states", &self.max_states)
            .field("max_depth", &self.max_depth)
            .field("notify_one", &self.notify_one)
            .field("sharded", &self.sharded)
            .field("rollback_notify", &self.rollback_notify)
            .field("racy_park", &self.racy_park)
            .field("late_wake_snapshot", &self.late_wake_snapshot)
            .field("fifo", &self.fifo)
            .field("check_fairness", &self.check_fairness)
            .field("racy_handoff", &self.racy_handoff)
            .field("overtake_on_timeout", &self.overtake_on_timeout)
            .field("leak_on_panic", &self.leak_on_panic)
            .field("batched_grants", &self.batched_grants)
            .field("split_batch_overtake", &self.split_batch_overtake)
            .field("seed_deadlock", &self.seed_deadlock)
            .field("fast_lanes", &self.fast_lanes.len())
            .field("leaky_fast_path", &self.leaky_fast_path)
            .field("stale_eligibility", &self.stale_eligibility)
            .finish()
    }
}

impl<S: Clone + Eq + Hash> Checker<S> {
    /// Creates a checker for `system` with no threads yet.
    pub fn new(system: ModelSystem<S>) -> Self {
        Self {
            system,
            scripts: Vec::new(),
            timed: Vec::new(),
            invariant: None,
            final_invariant: None,
            strategy: Strategy::Exhaustive,
            reduction: ReductionPolicy::None,
            max_states: 1_000_000,
            max_depth: None,
            samples: 1_000,
            notify_one: false,
            sharded: false,
            rollback_notify: true,
            racy_park: false,
            late_wake_snapshot: false,
            fifo: false,
            check_fairness: false,
            racy_handoff: false,
            overtake_on_timeout: false,
            leak_on_panic: false,
            batched_grants: false,
            split_batch_overtake: false,
            seed_deadlock: false,
            fast_lanes: HashSet::new(),
            leaky_fast_path: false,
            stale_eligibility: false,
        }
    }

    /// Adds a thread executing `script` (a sequence of method
    /// invocations).
    ///
    /// # Panics
    ///
    /// Panics if the script references an undeclared method.
    #[must_use]
    pub fn thread(mut self, script: Vec<MethodIx>) -> Self {
        for m in &script {
            assert!(
                m.0 < self.system.method_count(),
                "script references undeclared method"
            );
        }
        self.scripts.push(script);
        self.timed.push(false);
        self
    }

    /// Adds a thread whose blocked waits are *timed*: whenever it is
    /// parked, an extra `timeout` step is enabled in which it surrenders
    /// its place in the queue and the op completes timed-out — modeling
    /// `preactivation_timeout`. Use timed threads in fairness-ablation
    /// scenarios so no interleaving can end in [`Outcome::Deadlock`] and
    /// the exploration is guaranteed to reach the overtake instead.
    ///
    /// # Panics
    ///
    /// Panics if the script references an undeclared method.
    #[must_use]
    pub fn timed_thread(mut self, script: Vec<MethodIx>) -> Self {
        self = self.thread(script);
        *self.timed.last_mut().expect("just pushed") = true;
        self
    }

    /// Checks `inv` over the shared state after every atomic step.
    #[must_use]
    pub fn invariant(mut self, inv: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        self.invariant = Some(Arc::new(inv));
        self
    }

    /// Checks `inv` over the shared state at every *terminal*
    /// (all-threads-done) state — quiescence properties like "every
    /// reservation returned".
    #[must_use]
    pub fn final_invariant(mut self, inv: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        self.final_invariant = Some(Arc::new(inv));
        self
    }

    /// Selects how the schedule space is covered (default
    /// [`Strategy::Exhaustive`]).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the exhaustive explorer's schedule-space reduction
    /// (default [`ReductionPolicy::None`], which preserves the
    /// pre-reduction exploration counts exactly). See
    /// [`ReductionPolicy::Dpor`] for what the reduced exploration
    /// guarantees. Ignored by [`Strategy::Randomized`].
    #[must_use]
    pub fn reduction(mut self, policy: ReductionPolicy) -> Self {
        self.reduction = policy;
        self
    }

    /// Caps the number of distinct states (default one million).
    #[must_use]
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Caps the schedule depth. In exhaustive mode the
    /// iterative-deepening bound stops doubling here and unexplored
    /// deeper schedules yield [`Outcome::DepthLimit`]; in randomized
    /// mode each walk stops after this many choices. Default: unbounded
    /// (exhaustive) / 10 000 choices per walk (randomized).
    #[must_use]
    pub fn max_depth(mut self, n: usize) -> Self {
        self.max_depth = Some(n);
        self
    }

    /// Number of random walks [`Strategy::Randomized`] performs
    /// (default 1000). Ignored in exhaustive mode.
    #[must_use]
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n;
        self
    }

    /// Models Java-style `notify()` — each notification wakes *one*
    /// nondeterministically chosen waiter per target queue — instead of
    /// the default notify-all.
    #[must_use]
    pub fn wake_one(mut self) -> Self {
        self.notify_one = true;
        self
    }

    /// Models the *sharded* moderator (per-method coordination cells):
    /// when a chain blocks or aborts after earlier aspects reserved,
    /// the rollback becomes its own atomic step, so other methods'
    /// threads can observe the transient reservations — exactly the
    /// window the single global lock used to close. Threads of the same
    /// method cannot: the evaluation and its rollback hold the method's
    /// cell, so a same-method chain evaluation, post-activation, park
    /// or timeout waits for the rollback step. The rollback step also
    /// sends a rollback notification to the method's wake targets other
    /// than the method itself, mirroring the implementation (disable
    /// with [`Checker::without_rollback_notify`] to see why it is
    /// needed). A caller still blocked after its rollback then parks in
    /// a separate step, after re-taking the cell lock it released to
    /// notify; a notification reaching it in between sends it back to
    /// its chain (see [`Checker::late_wake_snapshot`]).
    #[must_use]
    pub fn sharded(mut self) -> Self {
        self.sharded = true;
        self
    }

    /// Ablation for [`Checker::sharded`]: rollbacks release their
    /// reservations silently, without notifying the method's wake
    /// targets. The checker exhibits the resulting lost wakeup: a
    /// thread that blocked against a transient reservation is never
    /// woken once the reservation is rolled back.
    #[must_use]
    pub fn without_rollback_notify(mut self) -> Self {
        self.rollback_notify = false;
        self
    }

    /// Ablation of the notify-while-locking-target discipline: a thread
    /// that decided to block parks in a *separate* step, and
    /// notifications sent in between are missed (they wake only already
    /// parked threads). Models an implementation that signals a
    /// target's condvar without holding that target's cell lock.
    #[must_use]
    pub fn racy_park(mut self) -> Self {
        self.racy_park = true;
        self
    }

    /// Ablation for [`Checker::sharded`] under the barging discipline: a
    /// caller that blocked after its rollback takes the row's wake
    /// generation only after re-taking the cell lock it released to
    /// send the rollback notification, so a notification landing in
    /// that window is absorbed instead of sending it back to its chain,
    /// and with no timer to re-check it the caller sleeps on; the
    /// checker exhibits the lost wakeup. Under [`Checker::fifo`] the wake persists as a queue
    /// permit, so the ablation changes nothing there.
    #[must_use]
    pub fn late_wake_snapshot(mut self) -> Self {
        self.late_wake_snapshot = true;
        self
    }

    /// Models `FairnessPolicy::Fifo`: each method's queue is strictly
    /// first-parked-first-served. A notification readies every parked
    /// waiter, but only the *front* of the queue may evaluate its chain
    /// (a sweep serves the rest in order as the front settles), and a
    /// newly arriving caller finding the queue non-empty joins it
    /// without evaluating (barging prevention; the step appears as
    /// `chain(m) -> queued` in traces). Without this flag the model has
    /// barging semantics: woken waiters and newcomers race freely.
    #[must_use]
    pub fn fifo(mut self) -> Self {
        self.fifo = true;
        self
    }

    /// Checks wake-order fairness as an explored property: any step in
    /// which an activation *resumes* while an earlier-parked waiter of
    /// the same method is still queued yields
    /// [`Outcome::FairnessViolation`] with the offending trace. Combine
    /// with [`Checker::fifo`] to prove no-overtake, or leave fifo off to
    /// exhibit that barging semantics violate it.
    #[must_use]
    pub fn check_fairness(mut self) -> Self {
        self.check_fairness = true;
        self
    }

    /// Fairness ablation: newcomers bypass the queue check — a freshly
    /// arriving caller evaluates its chain immediately even when ticketed
    /// waiters are queued, modeling an implementation that hands out the
    /// resource before consulting `has_waiters`. Only meaningful with
    /// [`Checker::fifo`].
    #[must_use]
    pub fn racy_handoff(mut self) -> Self {
        self.racy_handoff = true;
        self
    }

    /// Fairness ablation: a timed waiter that gives up cancels not just
    /// its own ticket but the *eligibility seniority of everyone parked
    /// behind it* (as if the cancellation reset the queue), so newcomers
    /// can barge ahead of still-parked earlier waiters. Only meaningful
    /// with [`Checker::fifo`] and at least one timed thread.
    #[must_use]
    pub fn overtake_on_timeout(mut self) -> Self {
        self.overtake_on_timeout = true;
        self
    }

    /// Models batched FIFO admission (grant extension on departure, the
    /// implementation's `ModeratorBuilder::grant_batching`): whenever a
    /// ticketed waiter *leaves* the queue — resumes, aborts, or cancels
    /// on timeout — the grant is extended to the new queue front, which
    /// re-evaluates without any fresh notification pulse. A freed
    /// capacity of `k` therefore drains the front-`k` prefix in one
    /// cursor-ordered sweep. Ordering is untouched: only the front ever
    /// becomes eligible, so no-overtake must still hold — combine with
    /// [`Checker::fifo`] + [`Checker::check_fairness`] to prove it, and
    /// with [`Checker::split_batch_overtake`] to see what unordered
    /// batch permits would break. Only meaningful with [`Checker::fifo`].
    #[must_use]
    pub fn batched_grants(mut self) -> Self {
        self.batched_grants = true;
        self
    }

    /// Batching ablation: a departure hands the freed capacity to the
    /// front *two* queued waiters as independent permits — and because
    /// the permits are unordered, the second-in-line can evaluate before
    /// the first (modeled by swapping their eligibility seniority). This
    /// is the bug a batched implementation without cursor ordering would
    /// have; it corrupts only the eligibility queue, so
    /// [`Checker::check_fairness`] catches the overtake with a concrete
    /// trace. Implies [`Checker::batched_grants`]; only meaningful with
    /// [`Checker::fifo`].
    #[must_use]
    pub fn split_batch_overtake(mut self) -> Self {
        self.batched_grants = true;
        self.split_batch_overtake = true;
        self
    }

    /// Containment ablation: a [`ModelVerdict::Panic`] completes the op
    /// *without* releasing the earlier-resumed prefix of the chain —
    /// modeling an implementation that catches the unwind but skips the
    /// Abort-path compensation. The leaked reservations strand every
    /// waiter guarded by them, which the checker reports as
    /// [`Outcome::Deadlock`] with the stranding trace.
    #[must_use]
    pub fn leak_on_panic(mut self) -> Self {
        self.leak_on_panic = true;
        self
    }

    /// Ablation reconstructing the PR-2 latent seed bug: completion
    /// notifications skip the *self-wake* — a waiter
    /// parked on its own method's active flag is never woken by a
    /// same-method peer's completion, because only the wired wake
    /// targets are notified. With wake wiring that omits the method
    /// itself, the second caller parks forever; the deadlock detector
    /// reports it with a minimal schedule.
    #[must_use]
    pub fn seed_deadlock(mut self) -> Self {
        self.seed_deadlock = true;
        self
    }

    /// Declares `method`'s fast lane open for two-phase admission: a
    /// `Ready` thread that is not a ticketed waiter may skip the chain
    /// entirely — one CAS-admit step, the body, one CAS-release step —
    /// exactly like the implementation's fast path for a
    /// capability-declared row. The model does not re-verify the purity
    /// declaration (that is the implementation contract); it proves the
    /// lane *discipline*: combine with [`Checker::fifo`] +
    /// [`Checker::check_fairness`] for no-overtake (the lane must be
    /// closed whenever a waiter is queued), and rely on deadlock
    /// detection for no-lost-wake (a fast release notifies nobody,
    /// which is sound only while the wake wiring is `Wired` and empty —
    /// a precondition the modeled lane enforces, like the
    /// implementation's eligibility predicate). Both successors are
    /// always offered while the lane is open, so exploration also
    /// covers the CAS-contention fallback onto the locked path.
    #[must_use]
    pub fn fast_lane(mut self, method: MethodIx) -> Self {
        self.fast_lanes.insert(method.0);
        self
    }

    /// Fast-lane ablation: the lane stays open while waiters are still
    /// queued — an implementation that forgets to close the lane before
    /// enqueueing, or re-opens it while tickets survive. A newcomer
    /// then CAS-admits straight past the queue;
    /// [`Checker::check_fairness`] reports the overtake with a shrunk
    /// trace. Only meaningful with at least one [`Checker::fast_lane`].
    #[must_use]
    pub fn leaky_fast_path(mut self) -> Self {
        self.leaky_fast_path = true;
        self
    }

    /// Fast-lane ablation: a contained chain panic fails to revoke the
    /// method's fast-path eligibility — the lane keeps admitting on the
    /// stale capability contract, so later invocations skip aspects the
    /// panic just proved are load-bearing. Caught by a state invariant
    /// over what the skipped aspects should have recorded. Only
    /// meaningful with at least one [`Checker::fast_lane`].
    #[must_use]
    pub fn stale_eligibility(mut self) -> Self {
        self.stale_eligibility = true;
        self
    }

    fn phase_for(&self, thread: usize, pc: usize) -> Phase {
        if pc >= self.scripts[thread].len() {
            Phase::Done
        } else {
            Phase::Ready
        }
    }

    /// The phase a blocking thread enters: parked directly, or — in
    /// racy-park mode — an intermediate "decided but not yet parked"
    /// phase in which notifications are missed.
    fn park_phase(&self, method: usize) -> Phase {
        if self.racy_park {
            Phase::WillBlock {
                method,
                woken: false,
            }
        } else {
            Phase::Blocked(method)
        }
    }

    /// Whether another thread holds `method`'s cell at `w`: sharded, and
    /// mid-way between a chain evaluation that must roll back and the
    /// rollback itself (both run under the cell lock).
    fn cell_held(&self, w: &World<S>, thread: usize, method: usize) -> bool {
        self.sharded
            && w.threads.iter().enumerate().any(|(t, (_, p))| {
                t != thread && matches!(p, Phase::Unwind { method: m, .. } if *m == method)
            })
    }

    /// Whether a notification reaching a thread in its `WillBlock`
    /// window is kept: always under fifo (a queue permit), under
    /// barging unless the window is a racy park or the wake generation
    /// is taken late.
    fn window_keeps_wakes(&self) -> bool {
        !self.racy_park && (self.fifo || !self.late_wake_snapshot)
    }

    /// Evaluates the chain of `method` atomically; returns the
    /// ("resumed"/"blocked"/"aborted") label and the successor phase
    /// (`None` = the op completes aborted).
    fn chain_step(&self, method: usize, shared: &mut S) -> (&'static str, Option<Phase>) {
        let chain = &self.system.methods[method].chain;
        let n = chain.len();
        for pos in 0..n {
            let idx = n - 1 - pos; // nested: newest-first
            match chain[idx].1.pre(shared) {
                ModelVerdict::Resume => {}
                ModelVerdict::Block => {
                    if self.sharded && self.system.rollback && pos > 0 {
                        // Sharded: the rollback is a later, separate
                        // step — the reservations stay visible.
                        return (
                            "blocked",
                            Some(Phase::Unwind {
                                method,
                                evaluated: pos,
                                then_block: true,
                            }),
                        );
                    }
                    if self.system.rollback {
                        for rpos in (0..pos).rev() {
                            let ridx = n - 1 - rpos;
                            chain[ridx].1.release(shared);
                        }
                    }
                    return ("blocked", Some(self.park_phase(method)));
                }
                ModelVerdict::Abort => {
                    if self.sharded && self.system.rollback && pos > 0 {
                        return (
                            "aborted",
                            Some(Phase::Unwind {
                                method,
                                evaluated: pos,
                                then_block: false,
                            }),
                        );
                    }
                    if self.system.rollback {
                        for rpos in (0..pos).rev() {
                            let ridx = n - 1 - rpos;
                            chain[ridx].1.release(shared);
                        }
                    }
                    return ("aborted", None); // op completes (failed)
                }
                ModelVerdict::Panic => {
                    if self.leak_on_panic {
                        // Ablation: the panic is caught but the
                        // earlier-resumed prefix is never released.
                        return ("panicked", None);
                    }
                    // Contained panic: same compensation as a
                    // mid-chain Abort.
                    if self.sharded && self.system.rollback && pos > 0 {
                        return (
                            "panicked",
                            Some(Phase::Unwind {
                                method,
                                evaluated: pos,
                                then_block: false,
                            }),
                        );
                    }
                    if self.system.rollback {
                        for rpos in (0..pos).rev() {
                            let ridx = n - 1 - rpos;
                            chain[ridx].1.release(shared);
                        }
                    }
                    return ("panicked", None); // op completes (failed)
                }
            }
        }
        ("resumed", Some(Phase::Body(method)))
    }

    /// Whether `method`'s fast lane is open at `w`: declared via
    /// [`Checker::fast_lane`], wake wiring `Wired` and empty (a fast
    /// release notifies nobody, so there must be nobody to notify —
    /// the model counterpart of the implementation's eligibility
    /// predicate), no waiter queued, and no chain panic on record. The
    /// two ablations each drop exactly one conjunct: `leaky_fast_path`
    /// ignores the queue, `stale_eligibility` ignores the revocation.
    fn lane_open(&self, w: &World<S>, method: usize) -> bool {
        if !self.fast_lanes.contains(&method) {
            return false;
        }
        let wired_empty = matches!(
            &self.system.methods[method].wakes,
            WakeSet::Wired(t) if t.is_empty()
        );
        if !wired_empty {
            return false;
        }
        let quiet = w.order[method].is_empty() && w.elig[method].is_empty();
        if !(quiet || self.leaky_fast_path) {
            return false;
        }
        !w.panic_seen[method] || self.stale_eligibility
    }

    /// The methods whose queues `method` notifies.
    fn wake_set(&self, method: usize) -> Vec<usize> {
        match &self.system.methods[method].wakes {
            WakeSet::All => (0..self.system.method_count()).collect(),
            WakeSet::Wired(t) => t.iter().map(|ix| ix.0).collect(),
        }
    }

    /// Applies postactions and computes the set of notified methods:
    /// the wake wiring plus the method itself (self-wake — postactions
    /// mutate the state the method's own waiters are guarded by, so
    /// they must re-evaluate regardless of wiring).
    fn post_step(&self, method: usize, shared: &mut S) -> Vec<usize> {
        let m = &self.system.methods[method];
        for (_, aspect) in &m.chain {
            // post order = registration order under nesting
            aspect.post(shared);
        }
        let mut notified = self.wake_set(method);
        if !self.seed_deadlock && !notified.contains(&method) {
            // The self-wake the seed-deadlock ablation forgets.
            notified.push(method);
        }
        notified
    }

    /// Wakes waiters on the `notified` queues. Notify-all readies every
    /// parked waiter; notify-one branches over which single waiter each
    /// queue wakes. A thread in its `WillBlock` window is not parked, so
    /// no wake-up reaches it; the notification is recorded in its
    /// `woken` flag instead, unless an ablation misses it. In fifo mode
    /// wake permits are persistent queue state in the implementation (a
    /// pending signal survives until a waiter consumes it), so both wake
    /// modes ready every parked waiter here and the eligibility queue
    /// serializes who actually evaluates.
    /// Removes `thread` from `method`'s queues when its op resumes,
    /// aborts, or cancels.
    fn leave_queues(w: &mut World<S>, thread: usize, method: usize) {
        w.order[method].retain(|&t| t != thread);
        w.elig[method].retain(|&t| t != thread);
    }

    /// Records `thread` parking on `method` (idempotent across
    /// re-blocks: a woken waiter that blocks again keeps its place).
    /// Grant extension on departure (batched mode): the new front of
    /// `method`'s eligibility queue becomes runnable without a fresh
    /// notification pulse — the modeled counterpart of the cursor-ordered
    /// batched sweep. The split-batch ablation instead hands the freed
    /// capacity to the front *two* waiters as unordered permits, swapping
    /// their seniority (corrupting `elig` only, never `order`).
    fn extend_grant(&self, w: &mut World<S>, method: usize) {
        if !self.batched_grants {
            return;
        }
        if self.split_batch_overtake && w.elig[method].len() >= 2 {
            w.elig[method].swap(0, 1);
        }
        let take = if self.split_batch_overtake { 2 } else { 1 };
        Self::ready_front(w, method, take);
    }

    /// Readies the first `take` waiters of `method`'s eligibility queue
    /// that are parked on it.
    fn ready_front(w: &mut World<S>, method: usize, take: usize) {
        let targets: Vec<usize> = w.elig[method].iter().take(take).copied().collect();
        for t in targets {
            if let (tpc, Phase::Blocked(m)) = w.threads[t].clone() {
                if m == method {
                    w.threads[t] = (tpc, Phase::Ready);
                }
            }
        }
    }

    fn join_queues(w: &mut World<S>, thread: usize, method: usize) {
        if !w.order[method].contains(&thread) {
            w.order[method].push(thread);
        }
        if !w.elig[method].contains(&thread) {
            w.elig[method].push(thread);
        }
    }

    fn apply_notifications(&self, w: World<S>, notified: &[usize]) -> Vec<World<S>> {
        let mut w = w;
        if self.window_keeps_wakes() {
            // A thread between its unlock and its park is not on the
            // waitpoint, but the wake generation (or queue permit) it
            // compares on re-locking records the notification.
            for (_, phase) in &mut w.threads {
                if let Phase::WillBlock { method, woken } = phase {
                    if notified.contains(method) {
                        *woken = true;
                    }
                }
            }
        }
        if self.notify_one && !self.fifo {
            // Branch over which single waiter each target queue wakes
            // (Java notify()).
            let mut worlds = vec![w];
            for &target in notified {
                let mut next = Vec::new();
                for base in worlds {
                    let waiters: Vec<usize> = base
                        .threads
                        .iter()
                        .enumerate()
                        .filter(|(_, (_, p))| *p == Phase::Blocked(target))
                        .map(|(t, _)| t)
                        .collect();
                    if waiters.is_empty() {
                        next.push(base);
                    } else {
                        for waiter in waiters {
                            let mut b = base.clone();
                            let wpc = b.threads[waiter].0;
                            b.threads[waiter] = (wpc, Phase::Ready);
                            next.push(b);
                        }
                    }
                }
                worlds = next;
            }
            worlds
        } else {
            // Notify-all: every waiter on a notified queue becomes
            // ready to re-evaluate.
            for t in 0..w.threads.len() {
                if let (tpc, Phase::Blocked(m)) = w.threads[t].clone() {
                    if notified.contains(&m) {
                        w.threads[t] = (tpc, Phase::Ready);
                    }
                }
            }
            vec![w]
        }
    }

    /// Successor worlds of `world` when `thread` takes its next step.
    fn successors(&self, world: &World<S>, thread: usize) -> Vec<(Step, World<S>)> {
        let (pc, phase) = world.threads[thread].clone();
        match phase {
            Phase::Done => Vec::new(),
            Phase::Blocked(method) => {
                if !self.timed[thread] || self.cell_held(world, thread, method) {
                    return Vec::new();
                }
                // Timed wait: the thread may give up, surrendering its
                // place in the queue; the op completes timed-out.
                let mut w = world.clone();
                w.order[method].retain(|&t| t != thread);
                if self.overtake_on_timeout {
                    // Ablation: cancellation wipes the eligibility
                    // seniority of every waiter parked behind it.
                    if let Some(pos) = w.elig[method].iter().position(|&t| t == thread) {
                        w.elig[method].truncate(pos);
                    }
                } else {
                    w.elig[method].retain(|&t| t != thread);
                }
                // A cancellation is a departure too: in batched mode the
                // implementation's `TicketQueue::cancel` extends the
                // grant to the surviving front.
                self.extend_grant(&mut w, method);
                let npc = pc + 1;
                w.threads[thread] = (npc, self.phase_for(thread, npc));
                vec![(
                    Step::Timeout {
                        thread,
                        method: self.system.methods[method].name.clone(),
                    },
                    w,
                )]
            }
            Phase::Ready => {
                let method = self.scripts[thread][pc].0;
                let mut out = Vec::new();
                if self.lane_open(world, method) && !world.elig[method].contains(&thread) {
                    // Fast lane: one CAS admits without evaluating the
                    // chain or touching any queue. Ticketed waiters
                    // never re-try the fast path (the implementation
                    // parks them on the locked path), hence the `elig`
                    // exclusion. The slow-path successor below stays
                    // offered too: a failed CAS falls back to the lock.
                    let mut w = world.clone();
                    if self.check_fairness && !w.order[method].is_empty() {
                        // A fast admit past a still-queued earlier
                        // waiter is an overtake (reachable only under
                        // the leaky ablation).
                        w.violated = true;
                    }
                    w.threads[thread] = (pc, Phase::FastBody(method));
                    out.push((
                        Step::FastAdmit {
                            thread,
                            method: self.system.methods[method].name.clone(),
                        },
                        w,
                    ));
                }
                if self.cell_held(world, thread, method) {
                    return out;
                }
                if self.fifo {
                    if let Some(&front) = world.elig[method].first() {
                        if world.elig[method].contains(&thread) {
                            // A woken waiter evaluates only at the
                            // front of the queue.
                            if front != thread {
                                return out;
                            }
                        } else if !self.racy_handoff {
                            // Barging prevention: a newcomer finding
                            // ticketed waiters joins the queue without
                            // evaluating. The racy-handoff ablation
                            // skips exactly this step.
                            let mut w = world.clone();
                            Self::join_queues(&mut w, thread, method);
                            w.threads[thread] = (pc, Phase::Blocked(method));
                            out.push((
                                Step::Chain {
                                    thread,
                                    method: self.system.methods[method].name.clone(),
                                    result: "queued",
                                },
                                w,
                            ));
                            return out;
                        }
                    }
                }
                let mut w = world.clone();
                let (label, next) = self.chain_step(method, &mut w.shared);
                if label == "panicked" {
                    // Record the contract revocation: from here the
                    // method's fast lane must never admit again (the
                    // stale-eligibility ablation ignores this).
                    w.panic_seen[method] = true;
                }
                match label {
                    "resumed" => {
                        if self.check_fairness
                            && w.order[method].first().is_some_and(|&t| t != thread)
                        {
                            // Overtake: an earlier-parked waiter of this
                            // method is still queued.
                            w.violated = true;
                        }
                        Self::leave_queues(&mut w, thread, method);
                        self.extend_grant(&mut w, method);
                    }
                    "blocked" => {
                        // Queue membership is taken at decision time,
                        // under the cell lock — before any Unwind or
                        // Park step — matching the implementation.
                        Self::join_queues(&mut w, thread, method);
                    }
                    _ => {
                        Self::leave_queues(&mut w, thread, method);
                        self.extend_grant(&mut w, method);
                        if self.fifo {
                            // An aborted holder used nothing it was
                            // woken for: its grant passes to the front.
                            Self::ready_front(&mut w, method, 1);
                        }
                    }
                }
                match next {
                    Some(phase) => w.threads[thread] = (pc, phase),
                    None => {
                        // Aborted: the op is over.
                        let npc = pc + 1;
                        w.threads[thread] = (npc, self.phase_for(thread, npc));
                    }
                }
                out.push((
                    Step::Chain {
                        thread,
                        method: self.system.methods[method].name.clone(),
                        result: label,
                    },
                    w,
                ));
                out
            }
            Phase::Body(method) => {
                let mut w = world.clone();
                if let Some(body) = &self.system.methods[method].body {
                    body(&mut w.shared);
                }
                w.threads[thread] = (pc, Phase::Post(method));
                vec![(
                    Step::Body {
                        thread,
                        method: self.system.methods[method].name.clone(),
                    },
                    w,
                )]
            }
            Phase::Post(method) => {
                if self.cell_held(world, thread, method) {
                    return Vec::new();
                }
                let mut w = world.clone();
                let notified = self.post_step(method, &mut w.shared);
                let npc = pc + 1;
                w.threads[thread] = (npc, self.phase_for(thread, npc));
                let step = Step::Post {
                    thread,
                    method: self.system.methods[method].name.clone(),
                };
                self.apply_notifications(w, &notified)
                    .into_iter()
                    .map(|w| (step.clone(), w))
                    .collect()
            }
            Phase::Unwind {
                method,
                evaluated,
                then_block,
            } => {
                let mut w = world.clone();
                let chain = &self.system.methods[method].chain;
                let n = chain.len();
                for rpos in (0..evaluated).rev() {
                    let ridx = n - 1 - rpos;
                    chain[ridx].1.release(&mut w.shared);
                }
                let step = Step::Unwind {
                    thread,
                    method: self.system.methods[method].name.clone(),
                    result: if then_block { "blocked" } else { "aborted" },
                };
                // Rollback notification (unless ablated), to the wake
                // targets other than the method itself: its own threads
                // could not evaluate while the reservations stood.
                let worlds = if self.rollback_notify {
                    let mut notified = self.wake_set(method);
                    notified.retain(|&m| m != method);
                    self.apply_notifications(w, &notified)
                } else {
                    vec![w]
                };
                worlds
                    .into_iter()
                    .map(|mut w| {
                        if then_block {
                            // The notification went out with the cell
                            // lock released; parking re-takes it.
                            w.threads[thread] = (
                                pc,
                                Phase::WillBlock {
                                    method,
                                    woken: false,
                                },
                            );
                        } else {
                            let npc = pc + 1;
                            w.threads[thread] = (npc, self.phase_for(thread, npc));
                        }
                        (step.clone(), w)
                    })
                    .collect()
            }
            Phase::WillBlock { method, woken } => {
                if self.cell_held(world, thread, method) {
                    return Vec::new();
                }
                let mut w = world.clone();
                let next = if woken {
                    Phase::Ready
                } else {
                    Phase::Blocked(method)
                };
                w.threads[thread] = (pc, next);
                vec![(
                    Step::Park {
                        thread,
                        method: self.system.methods[method].name.clone(),
                    },
                    w,
                )]
            }
            Phase::FastBody(method) => {
                let mut w = world.clone();
                if let Some(body) = &self.system.methods[method].body {
                    body(&mut w.shared);
                }
                w.threads[thread] = (pc, Phase::FastPost(method));
                vec![(
                    Step::Body {
                        thread,
                        method: self.system.methods[method].name.clone(),
                    },
                    w,
                )]
            }
            Phase::FastPost(method) => {
                // The CAS release: no postactions, no notifications,
                // no self-wake — the entire point of the fast lane.
                // Soundness rests on `lane_open`'s preconditions
                // (empty wiring, waiter-free cell at admit time).
                let mut w = world.clone();
                let npc = pc + 1;
                w.threads[thread] = (npc, self.phase_for(thread, npc));
                vec![(
                    Step::FastRelease {
                        thread,
                        method: self.system.methods[method].name.clone(),
                    },
                    w,
                )]
            }
        }
    }

    /// Deterministic hash of a world (SipHash with fixed keys, so
    /// hashes — and with them exploration counts — are stable across
    /// processes). Pruning on hashes accepts the usual vanishingly
    /// small collision risk in exchange for not retaining every world.
    fn state_hash(world: &World<S>) -> u64 {
        let mut h = DefaultHasher::new();
        world.hash(&mut h);
        h.finish()
    }

    /// All enabled transitions of `world`, in deterministic order:
    /// ascending thread index, then branch index within that thread's
    /// successor list. The fixed order is what makes exhaustive
    /// exploration (and its schedule count) reproducible.
    fn transitions(&self, world: &World<S>) -> Vec<(Choice, Step, World<S>)> {
        let mut out = Vec::new();
        for thread in 0..self.scripts.len() {
            for (branch, (step, next)) in self.successors(world, thread).into_iter().enumerate() {
                out.push(((thread, branch), step, next));
            }
        }
        out
    }

    /// Classifies every thread's next action at `world` given its
    /// precomputed `transitions` — the live/blocked action sets. A
    /// world whose unfinished threads are all [`ActionResult::Blocked`]
    /// is deadlocked.
    fn action_results(
        &self,
        world: &World<S>,
        transitions: &[(Choice, Step, World<S>)],
    ) -> Vec<ActionResult> {
        (0..self.scripts.len())
            .map(|t| {
                if matches!(world.threads[t].1, Phase::Done) {
                    return ActionResult::Joined;
                }
                let mut any = false;
                let mut all_panic = true;
                for (choice, step, _) in transitions {
                    if choice.0 != t {
                        continue;
                    }
                    any = true;
                    all_panic &= matches!(
                        step,
                        Step::Chain {
                            result: "panicked",
                            ..
                        }
                    );
                }
                match (any, all_panic) {
                    (false, _) => ActionResult::Blocked,
                    (true, true) => ActionResult::Panicked,
                    (true, false) => ActionResult::Ran,
                }
            })
            .collect()
    }

    /// The shared-state resource `method`'s user code (aspect
    /// pre/post/release functions and the body) may touch: its declared
    /// region, or the whole registry when undeclared. Methods with no
    /// user code touch no shared state at all.
    fn shared_res(&self, method: usize) -> Option<Res> {
        let m = &self.system.methods[method];
        if m.chain.is_empty() && m.body.is_none() {
            return None;
        }
        Some(match m.region {
            Some(r) => Res::Region(r),
            None => Res::Shared,
        })
    }

    /// Declared dependency footprint of `thread`'s *next step* at `w`:
    /// the coordination cell, queue, lane word and shared-state
    /// resources the step may read or write. Conservative — a step's
    /// footprint covers every variant of the step (a chain evaluation
    /// that might block covers the queue join; a post covers every
    /// wake-target queue).
    fn step_footprint(&self, w: &World<S>, thread: usize) -> Vec<Res> {
        let (pc, phase) = &w.threads[thread];
        let mut fp = Vec::new();
        match phase {
            Phase::Done => {}
            Phase::Ready => {
                let m = self.scripts[thread][*pc].0;
                fp.push(Res::Cell(m));
                fp.push(Res::Queue(m));
                if self.fast_lanes.contains(&m) {
                    fp.push(Res::Lane(m));
                }
                fp.extend(self.shared_res(m));
            }
            Phase::Blocked(m) | Phase::WillBlock { method: m, .. } => {
                // Timeout cancellation / the park: queue membership and
                // the parked phase itself.
                fp.push(Res::Cell(*m));
                fp.push(Res::Queue(*m));
            }
            Phase::Body(m) | Phase::FastBody(m) => {
                fp.extend(self.shared_res(*m));
            }
            Phase::Post(m) | Phase::Unwind { method: m, .. } => {
                fp.push(Res::Cell(*m));
                fp.push(Res::Queue(*m));
                fp.extend(self.shared_res(*m));
                for t in self.wake_set(*m) {
                    fp.push(Res::Queue(t));
                }
            }
            Phase::FastPost(m) => {
                fp.push(Res::Lane(*m));
            }
        }
        fp
    }

    /// Static footprint of `method`: the union of the step footprints
    /// of every phase an activation of it can pass through.
    fn method_footprint(&self, method: usize) -> Vec<Res> {
        let mut fp = vec![Res::Cell(method), Res::Queue(method)];
        if self.fast_lanes.contains(&method) {
            fp.push(Res::Lane(method));
        }
        fp.extend(self.shared_res(method));
        for t in self.wake_set(method) {
            if t != method {
                fp.push(Res::Queue(t));
            }
        }
        fp
    }

    /// Everything `thread` may still touch from `w` on: the footprint
    /// of its in-flight activation plus those of every script op not
    /// yet started. The persistent-set layer compares these to find
    /// threads whose entire futures are disjoint.
    fn remaining_footprint(&self, w: &World<S>, thread: usize) -> Vec<Res> {
        let (pc, phase) = &w.threads[thread];
        let mut fp = Vec::new();
        match phase {
            Phase::Done | Phase::Ready => {}
            Phase::Blocked(m)
            | Phase::WillBlock { method: m, .. }
            | Phase::Body(m)
            | Phase::Post(m)
            | Phase::FastBody(m)
            | Phase::FastPost(m)
            | Phase::Unwind { method: m, .. } => fp.extend(self.method_footprint(*m)),
        }
        for op in &self.scripts[thread][(*pc).min(self.scripts[thread].len())..] {
            fp.extend(self.method_footprint(op.0));
        }
        fp
    }

    /// The successor world of `thread` at `w`, provided the step is
    /// *deterministic* (exactly one successor). Branching steps
    /// (notify-one wakes, an open fast lane's dual admit) are never
    /// treated as independent of anything.
    fn singleton_successor(&self, w: &World<S>, thread: usize) -> Option<World<S>> {
        let mut succ = self.successors(w, thread);
        if succ.len() == 1 {
            Some(succ.pop().expect("len checked").1)
        } else {
            None
        }
    }

    /// The replay-equivalence self-check: `a` and `b` commute at `w`
    /// iff both steps are deterministic, each remains deterministic
    /// after the other, and executing them in either order reaches the
    /// *bit-identical* world (shared state, phases, queues, panic
    /// flags, fairness flag). This is the proof obligation behind
    /// every sleep-set pruning decision — declared footprints propose,
    /// replay equivalence disposes.
    fn commutes(&self, w: &World<S>, a: usize, b: usize) -> bool {
        let (Some(wa), Some(wb)) = (
            self.singleton_successor(w, a),
            self.singleton_successor(w, b),
        ) else {
            return false;
        };
        let (Some(wab), Some(wba)) = (
            self.singleton_successor(&wa, b),
            self.singleton_successor(&wb, a),
        ) else {
            return false;
        };
        wab == wba
    }

    /// Memoized independence of two threads' next steps at `w`, keyed
    /// by the state hash and the (unordered) thread pair — shares the
    /// pruning layer's accepted hash-collision risk.
    ///
    /// Two tiers: when both steps' declared footprints are *purely
    /// structural* (cell, queue, lane — computed by the checker from
    /// the model, never claimed by the user) and disjoint, the steps
    /// operate on disjoint parts of the world and independence follows
    /// without running anything. Everything else — conflicting
    /// footprints that may still commute dynamically (the buffer
    /// protocol's bread and butter), or footprints resting on a
    /// user-declared region — is settled by the replay-equivalence
    /// self-check: declared footprints propose, replay equivalence
    /// disposes.
    fn independent(
        &self,
        w: &World<S>,
        wh: u64,
        a: usize,
        b: usize,
        cache: &mut CommuteCache,
    ) -> bool {
        let key = (wh, a.min(b), a.max(b));
        if let Some(&v) = cache.get(&key) {
            return v;
        }
        let fa = self.step_footprint(w, a);
        let fb = self.step_footprint(w, b);
        let structural = fa
            .iter()
            .chain(fb.iter())
            .all(|r| !matches!(r, Res::Region(_)));
        let v = (structural && !footprints_conflict(&fa, &fb)) || self.commutes(w, a, b);
        cache.insert(key, v);
        v
    }

    /// The persistent-set layer: restricts `succs` to a conflict-closed
    /// subset of the enabled threads whose remaining footprints are
    /// disjoint from every thread left out, so the deferred threads'
    /// steps commute with everything explored first. Returns `succs`
    /// unchanged whenever no reduction is provable: a per-step
    /// invariant is configured (it reads all of `S`, so everything
    /// conflicts), a *blocked* thread conflicts with the set (waking it
    /// needs a conflicting step), or the closure swallows every enabled
    /// thread. Declared regions are spot-checked: each deferred thread
    /// must pass the replay-equivalence self-check against the chosen
    /// set at this state, else the declaration is distrusted and no
    /// reduction happens.
    fn persistent_filter(
        &self,
        w: &World<S>,
        succs: Vec<(Choice, Step, World<S>)>,
        cache: &mut CommuteCache,
    ) -> Vec<(Choice, Step, World<S>)> {
        if self.invariant.is_some() {
            return succs;
        }
        let n = self.scripts.len();
        let mut enabled = vec![false; n];
        for ((t, _), _, _) in &succs {
            enabled[*t] = true;
        }
        let first = match (0..n).find(|&t| enabled[t]) {
            Some(t) => t,
            None => return succs,
        };
        if enabled.iter().filter(|&&e| e).count() <= 1 {
            return succs;
        }
        let unfinished: Vec<bool> = (0..n)
            .map(|t| !matches!(w.threads[t].1, Phase::Done))
            .collect();
        let rf: Vec<Vec<Res>> = (0..n).map(|t| self.remaining_footprint(w, t)).collect();
        let mut in_set = vec![false; n];
        in_set[first] = true;
        loop {
            let mut changed = false;
            for u in 0..n {
                if in_set[u] || !unfinished[u] {
                    continue;
                }
                let conflicts = (0..n).any(|p| in_set[p] && footprints_conflict(&rf[u], &rf[p]));
                if conflicts {
                    if !enabled[u] {
                        // A blocked thread conflicts with the set:
                        // whoever wakes it would have to be included,
                        // so give up on reducing here.
                        return succs;
                    }
                    in_set[u] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if (0..n).all(|t| !enabled[t] || in_set[t]) {
            return succs;
        }
        // Spot-check the declarations: every deferred enabled thread
        // must actually commute, here and now, with every member.
        let wh = Self::state_hash(w);
        for u in 0..n {
            if !enabled[u] || in_set[u] {
                continue;
            }
            for p in 0..n {
                if in_set[p] && enabled[p] && !self.independent(w, wh, u, p, cache) {
                    return succs;
                }
            }
        }
        succs
            .into_iter()
            .filter(|((t, _), _, _)| in_set[*t])
            .collect()
    }

    fn initial_world(&self, initial: S) -> World<S> {
        World {
            shared: initial,
            threads: (0..self.scripts.len())
                .map(|t| (0, self.phase_for(t, 0)))
                .collect(),
            order: vec![Vec::new(); self.system.method_count()],
            elig: vec![Vec::new(); self.system.method_count()],
            panic_seen: vec![false; self.system.method_count()],
            violated: false,
        }
    }

    fn invariant_fails(&self, shared: &S) -> bool {
        self.invariant.as_ref().is_some_and(|inv| !inv(shared))
    }

    fn final_invariant_fails(&self, shared: &S) -> bool {
        self.final_invariant
            .as_ref()
            .is_some_and(|inv| !inv(shared))
    }

    /// Replays an explicit schedule from `initial`, re-deriving every
    /// step. Returns `None` if some choice is invalid at its state
    /// (the schedule does not parse — shrinking candidates often
    /// aren't valid schedules); otherwise the steps taken up to the
    /// first failure, and the failure if one fired. Replay is the
    /// ground truth the explorer's counterexamples are validated
    /// against: a reported trace is always re-derived here, never
    /// read back from exploration bookkeeping.
    fn replay(
        &self,
        initial: &World<S>,
        schedule: &[Choice],
    ) -> Option<(Vec<Step>, Option<Failure>)> {
        let mut world = initial.clone();
        let mut steps = Vec::new();
        if self.invariant_fails(&world.shared) {
            return Some((steps, Some(Failure::Invariant)));
        }
        for &(thread, branch) in schedule {
            let (step, next) = self.successors(&world, thread).into_iter().nth(branch)?;
            steps.push(step);
            world = next;
            if world.violated {
                return Some((steps, Some(Failure::Fairness)));
            }
            if self.invariant_fails(&world.shared) {
                return Some((steps, Some(Failure::Invariant)));
            }
        }
        if world.threads.iter().all(|(_, p)| matches!(p, Phase::Done)) {
            if self.final_invariant_fails(&world.shared) {
                return Some((steps, Some(Failure::FinalInvariant)));
            }
            return Some((steps, None));
        }
        let deadlocked = (0..self.scripts.len()).all(|t| self.successors(&world, t).is_empty());
        if deadlocked {
            return Some((steps, Some(Failure::Deadlock)));
        }
        Some((steps, None))
    }

    /// Minimizes a failing schedule by greedy prefix elision (drop the
    /// longest prefix that still reproduces), then greedy single-step
    /// elision, to a fixpoint. Every candidate is validated by replay
    /// reproducing the same failure discriminant; the returned trace is
    /// the replay of the shrunk schedule, truncated at the step where
    /// the failure fires.
    fn shrink(&self, initial: &World<S>, mut schedule: Vec<Choice>, target: Failure) -> Vec<Step> {
        let reproduces = |cand: &[Choice]| matches!(self.replay(initial, cand), Some((_, Some(f))) if f == target);
        loop {
            let mut improved = false;
            for k in (1..schedule.len()).rev() {
                if reproduces(&schedule[k..]) {
                    schedule.drain(..k);
                    improved = true;
                    break;
                }
            }
            let mut i = 0;
            while i < schedule.len() {
                let mut cand = schedule.clone();
                cand.remove(i);
                if reproduces(&cand) {
                    schedule = cand;
                    improved = true;
                } else {
                    i += 1;
                }
            }
            if !improved {
                break;
            }
        }
        match self.replay(initial, &schedule) {
            Some((steps, Some(f))) if f == target => steps,
            _ => unreachable!("shrunk schedule no longer reproduces its failure"),
        }
    }

    /// One depth-bounded DFS pass over explicit schedules, pruning on
    /// state hashes. `min_depth` maps each hash to the shallowest depth
    /// it was reached at: a state reached again at the same or greater
    /// depth is pruned; reached *shallower*, it is re-expanded so the
    /// depth bound never hides schedules (the invariant that makes
    /// iterative deepening sound with pruning).
    ///
    /// Under [`ReductionPolicy::Dpor`] each frame additionally carries
    /// a *sleep set*: threads whose steps were already explored from an
    /// earlier sibling branch and have commuted (proved by the
    /// replay-equivalence self-check) with every step taken since.
    /// Their branches are skipped — any schedule starting with them is
    /// a reordering of one already explored. Because sleep sets change
    /// what is explored *from* a state, the pruning key widens to
    /// (state, sleep set): a revisit is pruned only when an earlier
    /// expansion covered at least as many transitions (its sleep set
    /// was a subset) at least as shallow.
    fn dfs_pass(
        &self,
        initial: &World<S>,
        limit: usize,
        all_states: &mut HashSet<u64>,
        stats: &mut PassStats,
        cache: &mut CommuteCache,
    ) -> PassEnd {
        struct Frame<S> {
            world: World<S>,
            /// Hash of `world`, computed once at push.
            hash: u64,
            succs: Vec<(Choice, Step, World<S>)>,
            next: usize,
            /// Dpor: sleeping threads, as a bitmask over thread ids
            /// (the reduction caps out at 64 threads — far beyond any
            /// enumerable scenario).
            sleep: u64,
            /// Dpor: some schedule below this frame hit the depth
            /// bound, so its subtree is *not* completely explored.
            dirty: bool,
            /// Dpor: the `(state hash, index)` of this expansion's
            /// entry in `visits`, to mark clean once the frame pops.
            record: Option<(u64, usize)>,
        }
        /// One recorded expansion of a state: the depth it happened
        /// at, the sleep mask it happened with, and whether the subtree
        /// was explored to completion (no descendant hit the depth
        /// bound). A clean expansion covers revisits at *any* depth —
        /// completeness is depth-independent: every schedule below it
        /// ended naturally, so it also fits under any later budget.
        type Record = (usize, u64, bool);
        let dpor = self.reduction == ReductionPolicy::Dpor && self.scripts.len() <= 64;
        let mut min_depth: HashMap<u64, usize> = HashMap::new();
        // Dpor bookkeeping per state: the mask of threads enabled there
        // (after the persistent filter — a pure function of the state,
        // so safe to cache by hash) and every expansion on record.
        let mut visits: HashMap<u64, (u64, Vec<Record>)> = HashMap::new();
        let mut cutoff = false;
        let mut schedule: Vec<Choice> = Vec::new();
        let root_succs = if dpor {
            self.persistent_filter(initial, self.transitions(initial), cache)
        } else {
            self.transitions(initial)
        };
        let root_hash = Self::state_hash(initial);
        if dpor {
            let mut enabled = 0u64;
            for ((t, _), _, _) in &root_succs {
                enabled |= 1 << t;
            }
            visits.insert(root_hash, (enabled, vec![(0, 0, false)]));
        } else {
            min_depth.insert(root_hash, 0);
        }
        let mut stack = vec![Frame {
            world: initial.clone(),
            hash: root_hash,
            succs: root_succs,
            next: 0,
            sleep: 0,
            dirty: false,
            record: if dpor { Some((root_hash, 0)) } else { None },
        }];
        while !stack.is_empty() {
            let (choice, world, child_sleep) = {
                let frame = stack.last_mut().expect("non-empty stack");
                if frame.next >= frame.succs.len() {
                    let frame = stack.pop().expect("non-empty stack");
                    schedule.pop();
                    if dpor {
                        if frame.dirty {
                            if let Some(parent) = stack.last_mut() {
                                parent.dirty = true;
                            }
                        } else if let Some((h, idx)) = frame.record {
                            if let Some((_, records)) = visits.get_mut(&h) {
                                records[idx].2 = true;
                            }
                        }
                    }
                    continue;
                }
                let (choice, _, world) = frame.succs[frame.next].clone();
                let thread = choice.0;
                if dpor && frame.sleep >> thread & 1 == 1 {
                    // Asleep: every schedule beginning with this step
                    // reorders one an earlier sibling already covered.
                    frame.next += 1;
                    continue;
                }
                frame.next += 1;
                let child_sleep = if dpor {
                    let fh = frame.hash;
                    // A sleeping thread stays asleep past this step
                    // only while the commutation proof holds here.
                    let mut filtered = 0u64;
                    let mut rest = frame.sleep;
                    while rest != 0 {
                        let u = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        if self.independent(&frame.world, fh, u, thread, cache) {
                            filtered |= 1 << u;
                        }
                    }
                    // Once past the thread's last branch, later
                    // siblings may treat its step as covered.
                    let done_with_thread =
                        frame.next >= frame.succs.len() || frame.succs[frame.next].0 .0 != thread;
                    if done_with_thread {
                        frame.sleep |= 1 << thread;
                    }
                    filtered
                } else {
                    0
                };
                (choice, world, child_sleep)
            };
            schedule.push(choice);
            if world.violated {
                return PassEnd::Failed {
                    schedule,
                    failure: Failure::Fairness,
                };
            }
            if self.invariant_fails(&world.shared) {
                return PassEnd::Failed {
                    schedule,
                    failure: Failure::Invariant,
                };
            }
            let h = Self::state_hash(&world);
            all_states.insert(h);
            if all_states.len() > self.max_states {
                return PassEnd::StateLimit;
            }
            let depth = schedule.len();
            let mut needs_insert = false;
            let mut frame_record = None;
            let frame_sleep = if dpor {
                match visits.get_mut(&h) {
                    Some((enabled, records)) => {
                        // An earlier expansion covers this revisit if
                        // it was *clean* (its whole subtree fit under
                        // the bound — depth-independent) or happened at
                        // least this shallow (at least this much
                        // remaining budget). A thread needs expansion
                        // here only if it is awake now and *every*
                        // covering expansion had it asleep — anything
                        // else was already explored from this state
                        // with enough budget (difference exploration,
                        // the state-caching refinement of sleep sets).
                        let mut missed = !0u64;
                        let mut any_eligible = false;
                        for (d, z, clean) in records.iter() {
                            if *clean || *d <= depth {
                                any_eligible = true;
                                missed &= z;
                            }
                        }
                        if !any_eligible {
                            // Only deeper, cut-off expansions on
                            // record: the depth bound may have hidden
                            // schedules, so re-expand in full (the
                            // deepening invariant, as in the unreduced
                            // explorer).
                            frame_record = Some((h, records.len()));
                            records.push((depth, child_sleep, false));
                            child_sleep
                        } else {
                            let explore = *enabled & !child_sleep & missed;
                            if explore == 0 {
                                stats.schedules += 1;
                                schedule.pop();
                                continue;
                            }
                            // Everything not expanded goes to sleep
                            // for the children.
                            let extended = child_sleep | (*enabled & !explore);
                            frame_record = Some((h, records.len()));
                            records.push((depth, extended, false));
                            extended
                        }
                    }
                    None => {
                        // Fresh state: the enabled set is recorded once
                        // the persistent filter has run, below.
                        needs_insert = true;
                        child_sleep
                    }
                }
            } else {
                if min_depth.get(&h).is_some_and(|&d| d <= depth) {
                    // Already explored from here at least this shallow:
                    // this schedule ends in known territory.
                    stats.schedules += 1;
                    schedule.pop();
                    continue;
                }
                min_depth.insert(h, depth);
                0
            };
            let succs = self.transitions(&world);
            let results = self.action_results(&world, &succs);
            let succs = if dpor {
                self.persistent_filter(&world, succs, cache)
            } else {
                succs
            };
            if needs_insert {
                let mut enabled = 0u64;
                for ((t, _), _, _) in &succs {
                    enabled |= 1 << t;
                }
                frame_record = Some((h, 0));
                visits.insert(h, (enabled, vec![(depth, frame_sleep, false)]));
            }
            if results.iter().all(|r| *r == ActionResult::Joined) {
                stats.terminals += 1;
                stats.schedules += 1;
                if self.final_invariant_fails(&world.shared) {
                    return PassEnd::Failed {
                        schedule,
                        failure: Failure::FinalInvariant,
                    };
                }
                schedule.pop();
                continue;
            }
            let any_live = results
                .iter()
                .any(|r| matches!(r, ActionResult::Ran | ActionResult::Panicked));
            if !any_live {
                // Every unfinished action is blocked: deadlock.
                return PassEnd::Failed {
                    schedule,
                    failure: Failure::Deadlock,
                };
            }
            if depth >= limit {
                cutoff = true;
                stats.schedules += 1;
                schedule.pop();
                if dpor {
                    // The parent's subtree is incomplete: its state
                    // must not be marked clean when it pops.
                    if let Some(parent) = stack.last_mut() {
                        parent.dirty = true;
                    }
                }
                continue;
            }
            stack.push(Frame {
                world,
                hash: h,
                succs,
                next: 0,
                sleep: frame_sleep,
                dirty: false,
                record: frame_record,
            });
        }
        if cutoff {
            PassEnd::Cutoff
        } else {
            PassEnd::Complete
        }
    }

    fn exploration(
        &self,
        outcome: Outcome,
        all_states: &HashSet<u64>,
        stats: &PassStats,
    ) -> Exploration {
        Exploration {
            outcome,
            states: all_states.len(),
            terminals: stats.terminals,
            schedules: stats.schedules,
        }
    }

    /// Iterative-deepening exhaustive exploration: DFS passes with a
    /// doubling depth bound, re-replayed from the initial state, until
    /// a pass completes without cutoff (or fails, or runs out of
    /// budget). Failing schedules are shrunk before reporting.
    fn run_exhaustive(&self, initial_world: World<S>) -> Exploration {
        let mut all_states: HashSet<u64> = HashSet::new();
        all_states.insert(Self::state_hash(&initial_world));
        let mut stats = PassStats::default();

        let root_succs = self.transitions(&initial_world);
        let results = self.action_results(&initial_world, &root_succs);
        if results.iter().all(|r| *r == ActionResult::Joined) {
            stats.terminals = 1;
            stats.schedules = 1;
            let outcome = if self.final_invariant_fails(&initial_world.shared) {
                Outcome::FinalInvariantViolation(Vec::new())
            } else {
                Outcome::Ok
            };
            return self.exploration(outcome, &all_states, &stats);
        }
        if !results
            .iter()
            .any(|r| matches!(r, ActionResult::Ran | ActionResult::Panicked))
        {
            return self.exploration(Outcome::Deadlock(Vec::new()), &all_states, &stats);
        }

        let cap = self.max_depth.unwrap_or(usize::MAX);
        let mut limit = 8_usize.min(cap);
        let mut cache = CommuteCache::new();
        loop {
            stats = PassStats::default();
            match self.dfs_pass(
                &initial_world,
                limit,
                &mut all_states,
                &mut stats,
                &mut cache,
            ) {
                PassEnd::Failed { schedule, failure } => {
                    let trace = self.shrink(&initial_world, schedule, failure);
                    return self.exploration(failure.into_outcome(trace), &all_states, &stats);
                }
                PassEnd::StateLimit => {
                    return self.exploration(Outcome::StateLimit, &all_states, &stats);
                }
                PassEnd::Complete => {
                    return self.exploration(Outcome::Ok, &all_states, &stats);
                }
                PassEnd::Cutoff => {
                    if limit >= cap {
                        return self.exploration(Outcome::DepthLimit, &all_states, &stats);
                    }
                    limit = limit.saturating_mul(2).min(cap);
                }
            }
        }
    }

    /// Seeded random walks through the schedule space. Failing walks
    /// are shrunk exactly like exhaustive counterexamples.
    fn run_randomized(&self, initial_world: World<S>, seed: u64) -> Exploration {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut all_states: HashSet<u64> = HashSet::new();
        all_states.insert(Self::state_hash(&initial_world));
        let mut stats = PassStats::default();
        let walk_cap = self.max_depth.unwrap_or(10_000);
        for _ in 0..self.samples {
            let mut world = initial_world.clone();
            let mut schedule: Vec<Choice> = Vec::new();
            loop {
                let succs = self.transitions(&world);
                let results = self.action_results(&world, &succs);
                if results.iter().all(|r| *r == ActionResult::Joined) {
                    stats.terminals += 1;
                    stats.schedules += 1;
                    if self.final_invariant_fails(&world.shared) {
                        let trace = self.shrink(&initial_world, schedule, Failure::FinalInvariant);
                        return self.exploration(
                            Outcome::FinalInvariantViolation(trace),
                            &all_states,
                            &stats,
                        );
                    }
                    break;
                }
                if !results
                    .iter()
                    .any(|r| matches!(r, ActionResult::Ran | ActionResult::Panicked))
                {
                    let trace = self.shrink(&initial_world, schedule, Failure::Deadlock);
                    return self.exploration(Outcome::Deadlock(trace), &all_states, &stats);
                }
                if schedule.len() >= walk_cap {
                    // Inconclusive walk: give up on it, count it.
                    stats.schedules += 1;
                    break;
                }
                let pick = rng.gen_range(0..succs.len());
                let (choice, _, next) = succs[pick].clone();
                schedule.push(choice);
                world = next;
                all_states.insert(Self::state_hash(&world));
                if world.violated {
                    let trace = self.shrink(&initial_world, schedule, Failure::Fairness);
                    return self.exploration(
                        Outcome::FairnessViolation(trace),
                        &all_states,
                        &stats,
                    );
                }
                if self.invariant_fails(&world.shared) {
                    let trace = self.shrink(&initial_world, schedule, Failure::Invariant);
                    return self.exploration(
                        Outcome::InvariantViolation(trace),
                        &all_states,
                        &stats,
                    );
                }
                if all_states.len() > self.max_states {
                    return self.exploration(Outcome::StateLimit, &all_states, &stats);
                }
            }
        }
        self.exploration(Outcome::Ok, &all_states, &stats)
    }

    /// Explores the schedule space starting from `initial` shared
    /// state, per the configured [`Strategy`].
    pub fn run(&self, initial: S) -> Exploration {
        let initial_world = self.initial_world(initial);
        if self.invariant_fails(&initial_world.shared) {
            return Exploration {
                outcome: Outcome::InvariantViolation(Vec::new()),
                states: 1,
                terminals: 0,
                schedules: 0,
            };
        }
        match self.strategy {
            Strategy::Exhaustive => self.run_exhaustive(initial_world),
            Strategy::Randomized { seed } => self.run_randomized(initial_world, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspects;

    #[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
    struct Excl {
        busy: bool,
        inside: usize,
        max_inside: usize,
    }

    fn exclusion_system() -> (ModelSystem<Excl>, MethodIx) {
        let mut sys = ModelSystem::new();
        let op = sys.method("op");
        sys.add_aspect(
            op,
            "mutex",
            aspects::reserve(
                |s: &Excl| !s.busy,
                |s: &mut Excl| {
                    s.busy = true;
                    s.inside += 1;
                    s.max_inside = s.max_inside.max(s.inside);
                },
                |s: &mut Excl| {
                    s.busy = false;
                    s.inside -= 1;
                },
            ),
        );
        (sys, op)
    }

    #[test]
    fn exclusion_holds_in_every_interleaving() {
        let (sys, op) = exclusion_system();
        let result = Checker::new(sys)
            .thread(vec![op, op])
            .thread(vec![op, op])
            .invariant(|s: &Excl| s.max_inside <= 1)
            .run(Excl::default());
        assert_eq!(result.outcome, Outcome::Ok);
        assert!(result.states > 10);
        assert!(result.terminals >= 1);
    }

    #[test]
    fn broken_exclusion_is_caught() {
        // A "mutex" that forgets to set the flag.
        let mut sys = ModelSystem::new();
        let op = sys.method("op");
        sys.add_aspect(
            op,
            "broken-mutex",
            aspects::from_fns(
                |s: &mut Excl| {
                    // BUG: no busy check, no flag set.
                    s.inside += 1;
                    s.max_inside = s.max_inside.max(s.inside);
                    crate::ModelVerdict::Resume
                },
                |s: &mut Excl| s.inside -= 1,
                |_| (),
            ),
        );
        let result = Checker::new(sys)
            .thread(vec![op])
            .thread(vec![op])
            .invariant(|s: &Excl| s.max_inside <= 1)
            .run(Excl::default());
        match result.outcome {
            Outcome::InvariantViolation(trace) => {
                assert!(trace.len() >= 2, "trace: {trace:?}");
                // The counterexample must show two chain evaluations
                // before any post.
                let chains = trace
                    .iter()
                    .filter(|s| matches!(s, Step::Chain { .. }))
                    .count();
                assert!(chains >= 2);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn single_waiter_deadlocks_without_producer() {
        #[derive(Clone, PartialEq, Eq, Hash, Default)]
        struct S {
            open: bool,
        }
        let mut sys = ModelSystem::new();
        let gated = sys.method("gated");
        sys.add_aspect(gated, "gate", aspects::guard(|s: &S| s.open));
        let result = Checker::new(sys).thread(vec![gated]).run(S::default());
        match result.outcome {
            Outcome::Deadlock(trace) => {
                assert_eq!(trace.len(), 1);
                assert!(trace[0].to_string().contains("blocked"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn abort_completes_the_op() {
        #[derive(Clone, PartialEq, Eq, Hash, Default)]
        struct S;
        let mut sys = ModelSystem::new();
        let op = sys.method("op");
        sys.add_aspect(op, "deny", aspects::abort_unless(|_s: &S| false));
        let result = Checker::new(sys).thread(vec![op, op]).run(S);
        assert_eq!(result.outcome, Outcome::Ok, "aborted ops terminate");
    }

    #[test]
    fn state_limit_reports() {
        let (sys, op) = exclusion_system();
        let result = Checker::new(sys)
            .thread(vec![op; 4])
            .thread(vec![op; 4])
            .max_states(5)
            .run(Excl::default());
        assert_eq!(result.outcome, Outcome::StateLimit);
    }

    #[test]
    fn initially_violated_invariant_is_reported() {
        let (sys, op) = exclusion_system();
        let result = Checker::new(sys)
            .thread(vec![op])
            .invariant(|s: &Excl| s.inside == 99)
            .run(Excl::default());
        assert!(matches!(result.outcome, Outcome::InvariantViolation(_)));
    }

    #[test]
    fn final_invariant_checks_quiescence() {
        let (sys, op) = exclusion_system();
        // Correct system: busy flag clear at every terminal state.
        let ok = Checker::new(sys)
            .thread(vec![op, op])
            .thread(vec![op])
            .final_invariant(|s: &Excl| !s.busy && s.inside == 0)
            .run(Excl::default());
        assert_eq!(ok.outcome, Outcome::Ok);

        // Impossible quiescence demand: caught with a trace.
        let (sys, op) = exclusion_system();
        let bad = Checker::new(sys)
            .thread(vec![op])
            .final_invariant(|s: &Excl| s.max_inside == 0)
            .run(Excl::default());
        match bad.outcome {
            Outcome::FinalInvariantViolation(trace) => assert!(!trace.is_empty()),
            other => panic!("expected final violation, got {other:?}"),
        }
    }

    #[test]
    fn dpor_preserves_verdicts_and_reduces_schedules() {
        let (sys, op) = exclusion_system();
        let base = || {
            Checker::new(sys.clone())
                .thread(vec![op, op])
                .thread(vec![op, op])
                .thread(vec![op])
                .final_invariant(|s: &Excl| !s.busy && s.inside == 0)
        };
        let full = base().run(Excl::default());
        let reduced = base().reduction(ReductionPolicy::Dpor).run(Excl::default());
        assert_eq!(full.outcome, Outcome::Ok);
        assert_eq!(reduced.outcome, Outcome::Ok);
        assert!(
            reduced.schedules < full.schedules,
            "dpor must explore strictly fewer schedules: {} vs {}",
            reduced.schedules,
            full.schedules
        );
    }

    #[test]
    fn dpor_still_finds_the_deadlock() {
        #[derive(Clone, PartialEq, Eq, Hash, Default)]
        struct S {
            open: bool,
        }
        let mut sys = ModelSystem::new();
        let gated = sys.method("gated");
        sys.add_aspect(gated, "gate", aspects::guard(|s: &S| s.open));
        let result = Checker::new(sys)
            .reduction(ReductionPolicy::Dpor)
            .thread(vec![gated])
            .thread(vec![gated])
            .run(S::default());
        match result.outcome {
            Outcome::Deadlock(trace) => assert!(!trace.is_empty()),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn declared_regions_enable_persistent_reduction() {
        // Two fully independent "nodes": disjoint counters, disjoint
        // methods, wired-empty wakes, disjoint declared regions. The
        // persistent-set layer should explore them compositionally.
        #[derive(Clone, PartialEq, Eq, Hash, Default)]
        struct S {
            a: usize,
            b: usize,
        }
        let mut sys = ModelSystem::new();
        let op_a = sys.method("op_a");
        let op_b = sys.method("op_b");
        sys.add_aspect(
            op_a,
            "bump",
            aspects::from_fns(
                |s: &mut S| {
                    s.a += 1;
                    ModelVerdict::Resume
                },
                |_| (),
                |_| (),
            ),
        );
        sys.add_aspect(
            op_b,
            "bump",
            aspects::from_fns(
                |s: &mut S| {
                    s.b += 1;
                    ModelVerdict::Resume
                },
                |_| (),
                |_| (),
            ),
        );
        sys.wire_wakes(op_a, vec![op_a]);
        sys.wire_wakes(op_b, vec![op_b]);
        sys.set_region(op_a, 0);
        sys.set_region(op_b, 1);
        let base = || {
            Checker::new(sys.clone())
                .thread(vec![op_a, op_a, op_a])
                .thread(vec![op_b, op_b, op_b])
                .final_invariant(|s: &S| s.a == 3 && s.b == 3)
        };
        let full = base().run(S::default());
        let reduced = base().reduction(ReductionPolicy::Dpor).run(S::default());
        assert_eq!(full.outcome, Outcome::Ok);
        assert_eq!(reduced.outcome, Outcome::Ok);
        assert!(
            reduced.schedules * 4 <= full.schedules,
            "independent nodes should reduce heavily: {} vs {}",
            reduced.schedules,
            full.schedules
        );
    }

    #[test]
    fn notify_one_explores_wakeup_choices() {
        // Two consumers wait; one producer supplies one item. Under
        // notify-one semantics exactly one consumer can ever proceed,
        // so the run deadlocks (the other consumer waits forever).
        #[derive(Clone, PartialEq, Eq, Hash, Default)]
        struct S {
            items: usize,
        }
        let mut sys = ModelSystem::new();
        let put = sys.method("put");
        let take = sys.method("take");
        sys.add_aspect(
            put,
            "sync",
            aspects::from_fns(
                |s: &mut S| {
                    s.items += 1;
                    crate::ModelVerdict::Resume
                },
                |_| (),
                |_| (),
            ),
        );
        // The consumer consumes *permanently*: postaction keeps the
        // item (unlike `reserve`, whose post hands the resource back).
        sys.add_aspect(
            take,
            "sync",
            aspects::from_fns(
                |s: &mut S| {
                    if s.items > 0 {
                        s.items -= 1;
                        crate::ModelVerdict::Resume
                    } else {
                        crate::ModelVerdict::Block
                    }
                },
                |_| (),
                |s: &mut S| s.items += 1,
            ),
        );
        let result = Checker::new(sys)
            .wake_one()
            .thread(vec![put])
            .thread(vec![take])
            .thread(vec![take])
            .run(S::default());
        // One consumer must starve in every interleaving: deadlock.
        assert!(matches!(result.outcome, Outcome::Deadlock(_)));
    }
}
