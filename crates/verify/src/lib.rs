//! # Model checking aspect compositions
//!
//! The paper closes by asking whether an aspect-oriented architecture
//! "should further enable formal verification of system properties".
//! This crate answers with a working tool: an **exhaustive explorer**
//! over a faithful model of the Aspect Moderator protocol.
//!
//! You describe a composition — methods, each with an ordered chain of
//! [`ModelAspect`]s over an explicit shared state `S` — and a set of
//! thread scripts (sequences of method invocations). The checker then
//! explores **every interleaving** of the protocol's atomic steps
//! (chain evaluation, method body, post-activation + notification),
//! verifying:
//!
//! * a user **invariant** over `S` after every atomic step,
//! * absence of **deadlock** (some thread unfinished, none runnable),
//! * termination of every script.
//!
//! The protocol model matches `amf-core`'s moderator: preconditions of
//! one activation evaluate atomically under the method's coordination
//! cell (newest-first, the `Nested` policy), `Block` parks the thread on
//! the method's queue, post-activations run postactions (oldest-first)
//! and notify a wake set, and the rollback policy decides whether
//! earlier-resumed aspects are released when a later one blocks or
//! aborts.
//!
//! Since the moderator was sharded into per-method cells, the checker
//! also models the finer atomicity of that protocol and its failure
//! ablations ([`Checker::sharded`]): a blocked-after-releasing chain
//! unwinds as its own atomic step (atomic with respect to its own
//! method's threads, which share its cell), sends the rollback
//! notification to the other methods ([`Checker::without_rollback_notify`]
//! ablates it), then re-takes its cell to park, going back to its chain
//! if a notification reached it meanwhile ([`Checker::late_wake_snapshot`]
//! ablates that), and a chain that blocks without rolling back parks
//! while holding its cell ([`Checker::racy_park`] ablates that,
//! exhibiting the classic lost-wakeup deadlock the notify-while-locking
//! discipline prevents). See `tests/sharded.rs` for the ablations as
//! machine-checked counterexamples.
//!
//! Wake-order **fairness** is likewise a checked property
//! ([`Checker::check_fairness`]): with [`Checker::fifo`] the model
//! serves each cell's queue strictly first-parked-first-served
//! (`FairnessPolicy::Fifo`), and the checker proves that no activation
//! ever resumes past a still-queued earlier waiter — while the barging
//! model and two seeded defects ([`Checker::racy_handoff`],
//! [`Checker::overtake_on_timeout`]) are each caught with a concrete
//! overtake trace (`tests/fairness.rs`). Timed waits are modeled by
//! [`Checker::timed_thread`].
//!
//! **Fault containment** is the newest checked dimension: an aspect
//! precondition may *panic* ([`ModelVerdict::Panic`]), and the faithful
//! model compensates exactly like a mid-chain abort — the
//! earlier-resumed prefix of the chain is released (as its own
//! observable step under [`Checker::sharded`], with the rollback
//! notification) and the op completes failed. The checker proves the
//! containment invariant: no interleaving with a panicking transition
//! leaks a reservation or strands a waiter, and under
//! [`Checker::fifo`] no-overtake survives the panic. The
//! [`Checker::leak_on_panic`] ablation — catch the unwind but skip the
//! prefix rollback — is caught with a concrete stranded-waiter
//! deadlock trace (`tests/containment.rs`).
//!
//! # Exploration strategies
//!
//! [`Checker::run`] covers the schedule space per the configured
//! [`Strategy`]:
//!
//! * [`Strategy::Exhaustive`] (default) — a havoc-style DFS over
//!   explicit `(thread, branch)` action schedules: live/blocked action
//!   sets ([`ActionResult`]), state-hash pruning, iterative-deepening
//!   replay of the depth bound, deadlock detection (every unfinished
//!   action blocked ⇒ the schedule is reported), and
//!   minimal-counterexample output — failing schedules are shrunk by
//!   greedy prefix/step elision before the trace is re-derived by
//!   replay. Every schedule of a bounded scenario is checked and the
//!   explored-schedule count ([`Exploration::schedules`]) is stable
//!   across runs.
//! * [`Strategy::Randomized`] — seeded random walks for scenarios too
//!   large to enumerate; failures shrink the same way.
//!
//! Exhaustive exploration optionally applies **partial-order
//! reduction** ([`Checker::reduction`], default
//! [`ReductionPolicy::None`]): under [`ReductionPolicy::Dpor`] the DFS
//! carries sleep sets (a step already explored from a state is skipped
//! by sibling branches while every step taken since provably commutes
//! with it) and persistent sets (threads whose declared dependency
//! footprints — coordination cell, queue, lane word, shared-state
//! region — are disjoint from everyone else's remaining work are
//! deferred). Commutation is proved per state by a replay-equivalence
//! self-check, never assumed from the declarations, so the verdict and
//! its counterexamples are identical under both policies — only
//! [`Exploration::schedules`] (and wall-clock time) shrinks. See
//! `DESIGN.md` ("Schedule reduction") for the footprint table and the
//! sleep-set invariant.
//!
//! # Seed & environment knobs
//!
//! Every randomized battery in the workspace derives its determinism
//! from one seed, read by [`seed_from_env`]. The complete list:
//!
//! | Variable | Consumer | Default |
//! |---|---|---|
//! | `AMF_CHAOS_SEED` | `tests/chaos.rs` panic-injection storms and the bench harness `chaos` section (via `amf_aspects::fault::chaos_seed`) | `0xC4A0_5BA7` (tests) |
//! | `AMF_FAIRNESS_SEED` | `tests/properties_fairness.rs` randomized fairness battery | `0x5eed_fa18` |
//! | `AMF_FAST_PATH_SEED` | `tests/fast_path.rs` mixed fast/slow admission storm | `0xFA57_1A4E` |
//!
//! CI pins all three. [`Strategy::Randomized`] and `amf-sim` take their
//! seeds as explicit values, never from the environment — exhaustive
//! exploration needs no seed at all.
//!
//! # Example: proving the composition anomaly
//!
//! ```
//! use amf_verify::{aspects, Checker, ModelSystem, Outcome};
//!
//! // Shared state: a capacity-1 pool flag and a gate bit.
//! #[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
//! struct S { pool_busy: bool, gate_open: bool }
//!
//! let mut sys = ModelSystem::<S>::new();
//! let a = sys.method("a");
//! let b = sys.method("b");
//! // `a`: gate (inner) + pool (outer; evaluated first under nesting).
//! sys.add_aspect(a, "gate", aspects::guard(|s: &S| s.gate_open));
//! sys.add_aspect(a, "pool", aspects::reserve(
//!     |s: &S| !s.pool_busy,
//!     |s: &mut S| s.pool_busy = true,
//!     |s: &mut S| s.pool_busy = false,
//! ));
//! sys.add_aspect(b, "pool", aspects::reserve(
//!     |s: &S| !s.pool_busy,
//!     |s: &mut S| s.pool_busy = true,
//!     |s: &mut S| s.pool_busy = false,
//! ));
//! // `b`'s body opens the gate, so a well-behaved system always finishes.
//! sys.set_body(b, |s: &mut S| s.gate_open = true);
//!
//! // With rollback (the framework default): every interleaving completes.
//! let ok = Checker::new(sys.clone().rollback(true))
//!     .thread(vec![a])
//!     .thread(vec![b])
//!     .run(S::default());
//! assert_eq!(ok.outcome, Outcome::Ok);
//!
//! // Without rollback (the paper's literal semantics): a deadlock exists.
//! let bad = Checker::new(sys.rollback(false))
//!     .thread(vec![a])
//!     .thread(vec![b])
//!     .run(S::default());
//! match bad.outcome {
//!     Outcome::Deadlock(trace) => assert!(!trace.is_empty()),
//!     other => panic!("expected deadlock, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod aspects;
mod checker;
mod model;

pub use checker::{ActionResult, Checker, Exploration, Outcome, ReductionPolicy, Step, Strategy};
pub use model::{MethodIx, ModelAspect, ModelSystem, ModelVerdict, WakeSet};

/// Reads a deterministic seed from the environment variable `var`,
/// falling back to `default` when the variable is unset or does not
/// parse as a `u64`. The single entry point for the workspace's seed
/// plumbing — see the crate docs ("Seed & environment knobs") for the
/// complete list of variables and their consumers.
pub fn seed_from_env(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}
