//! The differential DPOR battery: every ablation the exhaustive
//! explorer catches unreduced must be caught *identically* under
//! [`ReductionPolicy::Dpor`] — same verdict, a counterexample that
//! still replays to the violation, and never more explored schedules.
//!
//! The soundness argument being exercised: sleep sets (with difference
//! exploration and clean-record coverage) prune *transition orders*,
//! never *states*, and every verdict the checker reports — invariant
//! violation, deadlock, fairness flag, final-invariant check — is a
//! property of a reached state. So on passing scenarios the two
//! policies must agree on the exact state count, and on failing ones
//! they must agree on the verdict (the shrunk trace may differ: both
//! are re-derived by replay, which is what `trace_signature` checks).
//!
//! The file doubles as the CI schedule-count regression gate
//! ([`schedule_count_regression_gate`]): pinned `{states, schedules}`
//! constants for the canonical buffer under both policies, so any
//! change to the exploration order, the hash pruning, or the reduction
//! bookkeeping shows up as a diff against committed numbers instead of
//! a silent coverage loss.

use std::mem::discriminant;

use amf_verify::{
    aspects, Checker, Exploration, MethodIx, ModelSystem, ModelVerdict, Outcome, ReductionPolicy,
    Step, Strategy,
};

/// Runs the same scenario under both policies and asserts the
/// differential contract: identical verdict *kind*, no more schedules
/// under `Dpor`, and — when the scenario passes, so neither run aborts
/// early — identical state coverage.
fn differential<S, F>(build: F, initial: S) -> (Exploration, Exploration)
where
    S: Clone + Eq + std::hash::Hash,
    F: Fn() -> Checker<S>,
{
    let none = build()
        .reduction(ReductionPolicy::None)
        .run(initial.clone());
    let dpor = build().reduction(ReductionPolicy::Dpor).run(initial);
    assert_eq!(
        discriminant(&none.outcome),
        discriminant(&dpor.outcome),
        "verdicts must agree: none={:?} dpor={:?}",
        none.outcome,
        dpor.outcome
    );
    assert!(
        dpor.schedules <= none.schedules,
        "reduction explored more schedules: none={} dpor={}",
        none.schedules,
        dpor.schedules
    );
    if none.outcome == Outcome::Ok {
        assert_eq!(
            none.states, dpor.states,
            "sleep sets must preserve state coverage on passing scenarios"
        );
    }
    (none, dpor)
}

/// The counterexample carried by a failing outcome. Every trace the
/// checker reports is re-derived by replaying the shrunk schedule, so
/// a non-empty trace here *is* the "still replays" witness; callers
/// then assert the defect's signature steps are present.
fn counterexample(outcome: &Outcome) -> Vec<String> {
    let steps: &[Step] = match outcome {
        Outcome::Deadlock(t)
        | Outcome::InvariantViolation(t)
        | Outcome::FinalInvariantViolation(t)
        | Outcome::FairnessViolation(t) => t,
        other => panic!("expected a counterexample-bearing outcome, got {other:?}"),
    };
    assert!(!steps.is_empty(), "shrunk trace must be non-empty");
    steps.iter().map(ToString::to_string).collect()
}

fn tid(step: &str) -> &str {
    step.split(':').next().unwrap()
}

// ---------------------------------------------------------------- //
// Scenario builders (the same minimal shapes the per-ablation test
// files prove; kept here verbatim so the battery stays self-contained).
// ---------------------------------------------------------------- //

#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Buf {
    reserved: usize,
    produced: usize,
    producing: bool,
    consuming: bool,
}

fn buffer(capacity: usize) -> (ModelSystem<Buf>, MethodIx, MethodIx) {
    let mut sys = ModelSystem::new();
    let put = sys.method("put");
    let take = sys.method("take");
    sys.add_aspect(
        put,
        "sync",
        aspects::buffer_producer(
            capacity,
            |s: &mut Buf| &mut s.reserved,
            |s: &mut Buf| &mut s.produced,
            |s: &mut Buf| &mut s.producing,
        ),
    );
    sys.add_aspect(
        take,
        "sync",
        aspects::buffer_consumer(
            |s: &mut Buf| &mut s.reserved,
            |s: &mut Buf| &mut s.produced,
            |s: &mut Buf| &mut s.consuming,
        ),
    );
    sys.wire_wakes(put, vec![take]);
    sys.wire_wakes(take, vec![put]);
    (sys, put, take)
}

#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Tokens {
    avail: usize,
}

fn gated() -> (ModelSystem<Tokens>, MethodIx, MethodIx) {
    let mut sys = ModelSystem::new();
    let open = sys.method("open");
    let tick = sys.method("tick");
    sys.add_aspect(
        open,
        "gate",
        aspects::from_fns(
            |s: &mut Tokens| {
                if s.avail > 0 {
                    s.avail -= 1;
                    ModelVerdict::Resume
                } else {
                    ModelVerdict::Block
                }
            },
            |_| (),
            |s: &mut Tokens| s.avail += 1,
        ),
    );
    sys.add_aspect(
        tick,
        "mint",
        aspects::from_fns(
            |s: &mut Tokens| {
                s.avail += 1;
                ModelVerdict::Resume
            },
            |_| (),
            |_| (),
        ),
    );
    sys.wire_wakes(tick, vec![open]);
    sys.wire_wakes(open, vec![]);
    (sys, open, tick)
}

#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Gated {
    busy: bool,
    gate: bool,
}

/// The E7 shape: `a` reserves the pool and then blocks on the gate;
/// `b` wants the pool, and its body opens the gate.
fn reserve_then_block() -> (ModelSystem<Gated>, MethodIx, MethodIx) {
    let mut sys = ModelSystem::new();
    let a = sys.method("a");
    let b = sys.method("b");
    let pool = || {
        aspects::reserve(
            |s: &Gated| !s.busy,
            |s: &mut Gated| s.busy = true,
            |s: &mut Gated| s.busy = false,
        )
    };
    sys.add_aspect(a, "gate", aspects::guard(|s: &Gated| s.gate));
    sys.add_aspect(a, "pool", pool());
    sys.add_aspect(b, "pool", pool());
    sys.set_body(b, |s: &mut Gated| s.gate = true);
    (sys, a, b)
}

// ---------------------------------------------------------------- //
// The ablations, differentially.
// ---------------------------------------------------------------- //

/// `late_wake_snapshot`: the wake absorbed between a rollback
/// notification and the park survives reduction under both wake modes,
/// and the faithful sharded model (wake generation taken before the
/// unlock, no re-check timer, no rollback self-wake) stays `Ok` with
/// identical state coverage.
#[test]
fn dpor_late_wake_snapshot() {
    for notify_one in [false, true] {
        let build = |ablate: bool| {
            let (sys, a, b) = reserve_then_block();
            let mut c = Checker::new(sys).strategy(Strategy::Exhaustive).sharded();
            if notify_one {
                c = c.wake_one();
            }
            if ablate {
                c = c.late_wake_snapshot();
            }
            c.thread(vec![a]).thread(vec![b])
        };
        let (_, dpor) = differential(|| build(true), Gated::default());
        let trace = counterexample(&dpor.outcome);
        assert!(trace.iter().any(|s| s.contains("post(b)")), "{trace:?}");
        assert!(trace.iter().any(|s| s.contains("park(a)")), "{trace:?}");
        let (none, _) = differential(|| build(false), Gated::default());
        assert_eq!(none.outcome, Outcome::Ok, "notify_one={notify_one}");
    }
}

/// `racy_park`: the missed-notification deadlock survives reduction
/// with its signature steps (the park and the notification that
/// missed it), and the faithful sharded model stays `Ok` with
/// identical state coverage.
#[test]
fn dpor_racy_park() {
    let (_, dpor) = differential(
        || {
            let (sys, put, take) = buffer(1);
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .sharded()
                .racy_park()
                .thread(vec![put])
                .thread(vec![take])
        },
        Buf::default(),
    );
    let trace = counterexample(&dpor.outcome);
    assert!(trace.iter().any(|s| s.contains("park(take)")), "{trace:?}");
    assert!(trace.iter().any(|s| s.contains("post(put)")), "{trace:?}");

    differential(
        || {
            let (sys, put, take) = buffer(1);
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .sharded()
                .thread(vec![put])
                .thread(vec![take])
        },
        Buf::default(),
    );
}

/// `racy_handoff`: the barging newcomer's overtake is still found, as
/// an overtake (the resume belongs to a different thread than the
/// still-queued park).
#[test]
fn dpor_racy_handoff() {
    let (_, dpor) = differential(
        || {
            let (sys, open, tick) = gated();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fifo()
                .check_fairness()
                .racy_handoff()
                .timed_thread(vec![open])
                .timed_thread(vec![tick, open])
        },
        Tokens::default(),
    );
    let trace = counterexample(&dpor.outcome);
    let parked = trace
        .iter()
        .find(|s| s.contains("chain(open) -> blocked"))
        .unwrap_or_else(|| panic!("{trace:?}"));
    let resumed = trace.last().unwrap();
    assert!(resumed.contains("chain(open) -> resumed"), "{trace:?}");
    assert_ne!(tid(parked), tid(resumed), "{trace:?}");

    differential(
        || {
            let (sys, open, tick) = gated();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fifo()
                .check_fairness()
                .timed_thread(vec![open])
                .timed_thread(vec![tick, open])
        },
        Tokens::default(),
    );
}

/// `overtake_on_timeout`: the seniority-wiping cancellation still
/// produces a fairness violation whose trace shows the timeout before
/// the overtaking resume.
#[test]
fn dpor_overtake_on_timeout() {
    let (_, dpor) = differential(
        || {
            let (sys, open, tick) = gated();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fifo()
                .check_fairness()
                .overtake_on_timeout()
                .timed_thread(vec![open, tick, open])
                .timed_thread(vec![open])
        },
        Tokens::default(),
    );
    let trace = counterexample(&dpor.outcome);
    assert!(
        trace.iter().any(|s| s.contains("timeout(open)")),
        "{trace:?}"
    );
    assert!(
        trace.last().unwrap().contains("chain(open) -> resumed"),
        "{trace:?}"
    );

    differential(
        || {
            let (sys, open, tick) = gated();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fifo()
                .check_fairness()
                .timed_thread(vec![open, tick, open])
                .timed_thread(vec![open])
        },
        Tokens::default(),
    );
}

#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Pool {
    busy: bool,
    fuse: bool,
}

fn leaky_pool() -> (ModelSystem<Pool>, MethodIx, MethodIx) {
    let mut sys = ModelSystem::new();
    let op = sys.method("op");
    let user = sys.method("use");
    let pool = || {
        aspects::reserve(
            |s: &Pool| !s.busy,
            |s: &mut Pool| s.busy = true,
            |s: &mut Pool| s.busy = false,
        )
    };
    sys.add_aspect(op, "bomb", aspects::panic_fuse(|s: &mut Pool| &mut s.fuse));
    sys.add_aspect(op, "pool", pool());
    sys.add_aspect(user, "pool", pool());
    sys.wire_wakes(op, vec![user]);
    sys.wire_wakes(user, vec![op]);
    (sys, op, user)
}

/// `leak_on_panic`: the stranded-waiter deadlock survives reduction
/// with the causal order intact (panic strictly before the stranded
/// block).
#[test]
fn dpor_leak_on_panic() {
    let armed = Pool {
        busy: false,
        fuse: true,
    };
    let (_, dpor) = differential(
        || {
            let (sys, op, user) = leaky_pool();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .sharded()
                .leak_on_panic()
                .thread(vec![op])
                .thread(vec![user])
        },
        armed.clone(),
    );
    let trace = counterexample(&dpor.outcome);
    let panicked = trace
        .iter()
        .position(|s| s.contains("-> panicked"))
        .unwrap_or_else(|| panic!("{trace:?}"));
    let blocked = trace
        .iter()
        .position(|s| s.contains("-> blocked"))
        .unwrap_or_else(|| panic!("{trace:?}"));
    assert!(panicked < blocked, "the leak strands the later caller");

    differential(
        || {
            let (sys, op, user) = leaky_pool();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .sharded()
                .thread(vec![op])
                .thread(vec![user])
                .final_invariant(|s: &Pool| !s.busy)
        },
        armed,
    );
}

#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Units {
    avail: usize,
}

fn units() -> (ModelSystem<Units>, MethodIx, MethodIx) {
    let mut sys = ModelSystem::new();
    let take = sys.method("take");
    let refill = sys.method("refill");
    sys.add_aspect(
        take,
        "gate",
        aspects::from_fns(
            |s: &mut Units| {
                if s.avail > 0 {
                    s.avail -= 1;
                    ModelVerdict::Resume
                } else {
                    ModelVerdict::Block
                }
            },
            |_| (),
            |_| (),
        ),
    );
    sys.add_aspect(
        refill,
        "mint",
        aspects::from_fns(
            |_: &mut Units| ModelVerdict::Resume,
            |s: &mut Units| s.avail = 2,
            |_| (),
        ),
    );
    sys.wire_wakes(refill, vec![take]);
    sys.wire_wakes(take, vec![]);
    (sys, take, refill)
}

/// `split_batch_overtake` at its 3-thread minimum: the unordered
/// split-batch permits still corrupt the resume order under reduction.
#[test]
fn dpor_split_batch_overtake() {
    let (_, dpor) = differential(
        || {
            let (sys, take, refill) = units();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fifo()
                .check_fairness()
                .split_batch_overtake()
                .thread(vec![take])
                .thread(vec![take])
                .timed_thread(vec![take, refill])
        },
        Units::default(),
    );
    let trace = counterexample(&dpor.outcome);
    let resumed = trace.last().unwrap();
    assert!(resumed.contains("chain(take) -> resumed"), "{trace:?}");
    assert!(
        trace
            .iter()
            .any(|s| s.contains("chain(take) -> blocked") && tid(s) != tid(resumed)),
        "{trace:?}"
    );

    differential(
        || {
            let (sys, take, refill) = units();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fifo()
                .check_fairness()
                .batched_grants()
                .thread(vec![take])
                .thread(vec![take])
                .timed_thread(vec![take, refill])
        },
        Units::default(),
    );
}

#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct SelfPool {
    busy: bool,
}

fn self_pool() -> (ModelSystem<SelfPool>, MethodIx) {
    let mut sys = ModelSystem::new();
    let op = sys.method("op");
    sys.add_aspect(
        op,
        "pool",
        aspects::reserve(
            |s: &SelfPool| !s.busy,
            |s: &mut SelfPool| s.busy = true,
            |s: &mut SelfPool| s.busy = false,
        ),
    );
    sys.wire_wakes(op, vec![]);
    (sys, op)
}

/// `seed_deadlock`: dropping the self-wake strands the second caller,
/// and the shrunk trace keeps its minimality under reduction.
#[test]
fn dpor_seed_deadlock() {
    let (_, dpor) = differential(
        || {
            let (sys, op) = self_pool();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .seed_deadlock()
                .thread(vec![op])
                .thread(vec![op])
        },
        SelfPool::default(),
    );
    let trace = counterexample(&dpor.outcome);
    assert!(
        trace.iter().any(|s| s.contains("chain(op) -> resumed")),
        "{trace:?}"
    );
    assert!(
        trace.iter().any(|s| s.contains("chain(op) -> blocked")),
        "{trace:?}"
    );
    assert!(
        trace.len() <= 4,
        "shrunk trace must stay minimal: {trace:?}"
    );

    differential(
        || {
            let (sys, op) = self_pool();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .thread(vec![op])
                .thread(vec![op])
                .final_invariant(|s: &SelfPool| !s.busy)
        },
        SelfPool::default(),
    );
}

/// `leaky_fast_path`: the fast admit past a queued waiter survives
/// reduction as the trace's final step, still shrunk to the park plus
/// the overtake.
#[test]
fn dpor_leaky_fast_path() {
    let (_, dpor) = differential(
        || {
            let (sys, open, _tick) = gated();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fifo()
                .check_fairness()
                .fast_lane(open)
                .leaky_fast_path()
                .timed_thread(vec![open])
                .timed_thread(vec![open])
        },
        Tokens::default(),
    );
    let trace = counterexample(&dpor.outcome);
    let overtake = trace.last().unwrap();
    assert!(overtake.contains("fast-admit(open)"), "{trace:?}");
    let parked = trace
        .iter()
        .find(|s| s.contains("chain(open) -> blocked"))
        .unwrap_or_else(|| panic!("{trace:?}"));
    assert_ne!(tid(parked), tid(overtake), "{trace:?}");
    assert!(trace.len() <= 3, "{trace:?}");

    // Faithful lane discipline, including the notify-one wake mode —
    // the branching (multi-successor) steps that stress the reduction's
    // requirement that only *deterministic* steps ever commute.
    differential(
        || {
            let (sys, open, tick) = gated();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fifo()
                .check_fairness()
                .fast_lane(open)
                .timed_thread(vec![open])
                .timed_thread(vec![tick, open])
        },
        Tokens::default(),
    );
    differential(
        || {
            let (sys, open, tick) = gated();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fifo()
                .check_fairness()
                .wake_one()
                .fast_lane(open)
                .timed_thread(vec![open])
                .timed_thread(vec![tick, open])
        },
        Tokens::default(),
    );
}

#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Audit {
    panicked: bool,
    audited_after: usize,
    entered_after: usize,
}

fn audited() -> (ModelSystem<Audit>, MethodIx) {
    let mut sys = ModelSystem::new();
    let audit = sys.method("audit");
    sys.add_aspect(
        audit,
        "audit",
        aspects::from_fns(
            |s: &mut Audit| {
                if s.panicked {
                    s.audited_after += 1;
                    ModelVerdict::Resume
                } else {
                    s.panicked = true;
                    ModelVerdict::Panic
                }
            },
            |_| (),
            |_| (),
        ),
    );
    sys.set_body(audit, |s: &mut Audit| {
        if s.panicked {
            s.entered_after += 1;
        }
    });
    sys.wire_wakes(audit, vec![]);
    (sys, audit)
}

/// `stale_eligibility`: the post-panic fast admit is still caught by
/// the state invariant, with the panic before the admit in the trace.
#[test]
fn dpor_stale_eligibility() {
    let post_panic_audited = |s: &Audit| !s.panicked || s.entered_after <= s.audited_after;
    let (_, dpor) = differential(
        || {
            let (sys, audit) = audited();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fast_lane(audit)
                .stale_eligibility()
                .invariant(post_panic_audited)
                .thread(vec![audit, audit])
        },
        Audit::default(),
    );
    let trace = counterexample(&dpor.outcome);
    let panicked = trace
        .iter()
        .position(|s| s.contains("chain(audit) -> panicked"))
        .unwrap_or_else(|| panic!("{trace:?}"));
    let admitted = trace
        .iter()
        .position(|s| s.contains("fast-admit(audit)"))
        .unwrap_or_else(|| panic!("{trace:?}"));
    assert!(panicked < admitted, "{trace:?}");

    differential(
        || {
            let (sys, audit) = audited();
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .fast_lane(audit)
                .invariant(post_panic_audited)
                .thread(vec![audit, audit])
        },
        Audit::default(),
    );
}

// ---------------------------------------------------------------- //
// Reduction effectiveness + the CI regression gate.
// ---------------------------------------------------------------- //

/// On the canonical E13/E15 workload (capacity-1 buffer, step
/// invariant, broadcast wakes) the reduction must actually reduce —
/// not merely "not explore more".
#[test]
fn dpor_reduces_the_buffer_schedule_space() {
    let scenario = |pairs: usize| {
        move || {
            let mut sys = ModelSystem::new();
            let put = sys.method("put");
            let take = sys.method("take");
            sys.add_aspect(
                put,
                "sync",
                aspects::buffer_producer(
                    1,
                    |s: &mut Buf| &mut s.reserved,
                    |s: &mut Buf| &mut s.produced,
                    |s: &mut Buf| &mut s.producing,
                ),
            );
            sys.add_aspect(
                take,
                "sync",
                aspects::buffer_consumer(
                    |s: &mut Buf| &mut s.reserved,
                    |s: &mut Buf| &mut s.produced,
                    |s: &mut Buf| &mut s.consuming,
                ),
            );
            let mut checker = Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .invariant(|s: &Buf| s.reserved <= 1 && s.produced <= s.reserved);
            for _ in 0..pairs {
                checker = checker.thread(vec![put, put]);
                checker = checker.thread(vec![take, take]);
            }
            checker
        }
    };
    let (none, dpor) = differential(scenario(2), Buf::default());
    assert_eq!(none.outcome, Outcome::Ok);
    assert!(
        dpor.schedules * 5 <= none.schedules,
        "expected >=5x fewer schedules at 4x2: none={} dpor={}",
        none.schedules,
        dpor.schedules
    );
}

/// The CI gate: pinned exploration counts for the 2×2 buffer under
/// both policies. These constants change only when the exploration
/// order, the pruning, or the reduction bookkeeping changes — any such
/// change must re-justify verdict preservation and update them here.
#[test]
fn schedule_count_regression_gate() {
    let (none, dpor) = differential(
        || {
            let mut sys = ModelSystem::new();
            let put = sys.method("put");
            let take = sys.method("take");
            sys.add_aspect(
                put,
                "sync",
                aspects::buffer_producer(
                    1,
                    |s: &mut Buf| &mut s.reserved,
                    |s: &mut Buf| &mut s.produced,
                    |s: &mut Buf| &mut s.producing,
                ),
            );
            sys.add_aspect(
                take,
                "sync",
                aspects::buffer_consumer(
                    |s: &mut Buf| &mut s.reserved,
                    |s: &mut Buf| &mut s.produced,
                    |s: &mut Buf| &mut s.consuming,
                ),
            );
            Checker::new(sys)
                .strategy(Strategy::Exhaustive)
                .invariant(|s: &Buf| s.reserved <= 1 && s.produced <= s.reserved)
                .thread(vec![put, put])
                .thread(vec![take, take])
        },
        Buf::default(),
    );
    assert_eq!(none.outcome, Outcome::Ok);
    assert_eq!((none.states, none.schedules), (27, 14), "{none:?}");
    assert_eq!((dpor.states, dpor.schedules), (27, 5), "{dpor:?}");
}
