//! Model-checking the *sharded* moderator (per-method coordination
//! cells): under sharding a chain's rollback is no longer atomic with
//! its evaluation as seen from other methods, so another method can
//! block against a transient reservation that is later rolled back —
//! the E7 anomaly. These tests verify the two disciplines the
//! implementation relies on:
//!
//! * **Rollback notification**: a rollback that released reservations
//!   notifies the method's wake targets (ablate with
//!   `without_rollback_notify` → the checker exhibits the lost wakeup).
//! * **Notify-while-locking-target**: a blocking thread parks
//!   atomically with its decision (ablate with `racy_park` → the
//!   checker exhibits the missed-notification deadlock).
//! * **Wake generation taken before the unlock**: a caller that rolled
//!   back drops its cell lock to send the rollback notification, and a
//!   notification reaching it before it re-locks sends it back to its
//!   chain (ablate with `late_wake_snapshot` → the checker exhibits the
//!   wake absorbed in that window). No timer re-checks the caller, and
//!   the rollback does not wake its own method.

use amf_verify::{aspects, Checker, ModelSystem, Outcome};

#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Buf {
    reserved: usize,
    produced: usize,
    producing: bool,
    consuming: bool,
}

fn buffer(
    sys: &mut ModelSystem<Buf>,
    capacity: usize,
) -> (amf_verify::MethodIx, amf_verify::MethodIx) {
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
    (put, take)
}

/// The E7 shape, modeled: method `a` reserves the capacity-1 pool and
/// then blocks on a gate; method `b` wants the same pool, and its body
/// opens the gate. Under nested ordering (newest-first) `a`'s chain is
/// registered gate-first so it *reserves, then blocks*.
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Pool {
    busy: bool,
    gate: bool,
}

fn gated_system() -> (
    ModelSystem<Pool>,
    amf_verify::MethodIx,
    amf_verify::MethodIx,
) {
    let mut sys = ModelSystem::new();
    let a = sys.method("a");
    let b = sys.method("b");
    let pool = || {
        aspects::reserve(
            |s: &Pool| !s.busy,
            |s: &mut Pool| s.busy = true,
            |s: &mut Pool| s.busy = false,
        )
    };
    // Registered gate-first so evaluation (newest-first) reserves the
    // pool and then hits the closed gate.
    sys.add_aspect(a, "gate", aspects::guard(|s: &Pool| s.gate));
    sys.add_aspect(a, "pool", pool());
    sys.add_aspect(b, "pool", pool());
    sys.set_body(b, |s: &mut Pool| s.gate = true);
    (sys, a, b)
}

/// The paper's producer/consumer wiring stays live when the rollback
/// becomes a separately-observable step (the sharded moderator).
#[test]
fn sharded_paper_wiring_is_live() {
    let mut sys = ModelSystem::new();
    let (put, take) = buffer(&mut sys, 1);
    sys.wire_wakes(put, vec![take]);
    sys.wire_wakes(take, vec![put]);
    let result = Checker::new(sys)
        .sharded()
        .thread(vec![put, put, put])
        .thread(vec![take, take, take])
        .run(Buf::default());
    assert_eq!(result.outcome, Outcome::Ok);
}

/// The sharded protocol with rollback notifications passes the E7
/// shape: `b` blocks against `a`'s transient reservation, `a`'s
/// rollback wakes it, and every interleaving terminates with no leaked
/// reservation.
#[test]
fn rollback_notification_closes_the_transient_reservation_race() {
    let (sys, a, b) = gated_system();
    let result = Checker::new(sys)
        .sharded()
        .thread(vec![a])
        .thread(vec![b])
        .final_invariant(|s: &Pool| !s.busy)
        .run(Pool::default());
    assert_eq!(result.outcome, Outcome::Ok);
    // The transient-reservation interleaving is actually explored:
    // sharded mode visits strictly more states than the atomic model.
    let atomic = {
        let (sys, a, b) = gated_system();
        Checker::new(sys)
            .thread(vec![a])
            .thread(vec![b])
            .run(Pool::default())
    };
    assert_eq!(atomic.outcome, Outcome::Ok);
    assert!(result.states > atomic.states);
}

/// Ablation: silent rollback (no notification) loses the wakeup `b`
/// needs — the checker exhibits the deadlock, proving the rollback
/// notification is necessary, not defensive.
#[test]
fn silent_rollback_loses_wakeups() {
    let (sys, a, b) = gated_system();
    let result = Checker::new(sys)
        .sharded()
        .without_rollback_notify()
        .thread(vec![a])
        .thread(vec![b])
        .run(Pool::default());
    match result.outcome {
        Outcome::Deadlock(trace) => {
            let rendered: Vec<String> = trace.iter().map(ToString::to_string).collect();
            // `b` blocked against the transient reservation...
            assert!(
                rendered.iter().any(|s| s.contains("chain(b) -> blocked")),
                "{rendered:?}"
            );
            // ...and `a` rolled back without waking it.
            assert!(
                rendered.iter().any(|s| s.contains("unwind(a) -> blocked")),
                "{rendered:?}"
            );
        }
        other => panic!("expected lost-wakeup deadlock, got {other:?}"),
    }
}

/// Ablation of the notify-while-locking-target discipline: if a thread
/// parks in a separate step from its decision to block, a notification
/// sent in the window is missed and the checker finds the deadlock.
#[test]
fn racy_park_loses_wakeups() {
    let mut sys = ModelSystem::new();
    let (put, take) = buffer(&mut sys, 1);
    sys.wire_wakes(put, vec![take]);
    sys.wire_wakes(take, vec![put]);
    let result = Checker::new(sys)
        .sharded()
        .racy_park()
        .thread(vec![put])
        .thread(vec![take])
        .run(Buf::default());
    match result.outcome {
        Outcome::Deadlock(trace) => {
            let rendered: Vec<String> = trace.iter().map(ToString::to_string).collect();
            // The producer completed (post ran, notification sent)
            // strictly between the consumer's decision to block and its
            // actual park.
            assert!(
                rendered.iter().any(|s| s.contains("park(take)")),
                "{rendered:?}"
            );
            assert!(
                rendered.iter().any(|s| s.contains("post(put)")),
                "{rendered:?}"
            );
        }
        other => panic!("expected missed-notification deadlock, got {other:?}"),
    }
}

/// The disciplined implementation (park atomic with the blocking
/// decision) has no such window: same system, no ablation, all live.
#[test]
fn disciplined_park_is_live() {
    let mut sys = ModelSystem::new();
    let (put, take) = buffer(&mut sys, 1);
    sys.wire_wakes(put, vec![take]);
    sys.wire_wakes(take, vec![put]);
    let result = Checker::new(sys)
        .sharded()
        .thread(vec![put])
        .thread(vec![take])
        .run(Buf::default());
    assert_eq!(result.outcome, Outcome::Ok);
}

/// Sharding composes with `NotifyOne` (the paper's Java `notify()`):
/// the single-wake pipeline from experiment E6 stays live when the
/// rollback is a separate step.
#[test]
fn sharded_notify_one_buffer_is_live() {
    let mut sys = ModelSystem::new();
    let (put, take) = buffer(&mut sys, 1);
    sys.wire_wakes(put, vec![take]);
    sys.wire_wakes(take, vec![put]);
    let result = Checker::new(sys)
        .sharded()
        .wake_one()
        .thread(vec![put, put])
        .thread(vec![take, take])
        .run(Buf::default());
    assert_eq!(result.outcome, Outcome::Ok);
}

/// The refined sharded model proves no-lost-wake for the E7 shape with
/// no rollback self-wake and no re-check timer: the only wake the
/// blocked `a` gets is `b`'s post-activation, and it gets it even when
/// it lands between `a`'s rollback notification and its park.
#[test]
fn wake_in_the_rollback_window_is_kept() {
    for notify_one in [false, true] {
        let (sys, a, b) = gated_system();
        let checker = Checker::new(sys).sharded();
        let checker = if notify_one {
            checker.wake_one()
        } else {
            checker
        };
        let result = checker
            .thread(vec![a])
            .thread(vec![b])
            .final_invariant(|s: &Pool| !s.busy)
            .run(Pool::default());
        assert_eq!(result.outcome, Outcome::Ok, "notify_one={notify_one}");
    }
}

/// Ablation: the wake generation taken after re-locking instead of
/// before the unlock (the moderator minus its old rollback-recheck
/// timer). `b` blocks against `a`'s transient reservation, `a`'s
/// rollback wakes it, and `b` completes — opening the gate and waking
/// `a` — while `a` is between its notification and its park: the wake
/// is absorbed and `a` parks forever. Caught under both wake modes,
/// with a shrunk counterexample that ends in that park.
#[test]
fn late_wake_snapshot_loses_the_window_wake() {
    for notify_one in [false, true] {
        let (sys, a, b) = gated_system();
        let checker = Checker::new(sys).sharded().late_wake_snapshot();
        let checker = if notify_one {
            checker.wake_one()
        } else {
            checker
        };
        let result = checker.thread(vec![a]).thread(vec![b]).run(Pool::default());
        let Outcome::Deadlock(trace) = result.outcome else {
            panic!("expected the absorbed wake (notify_one={notify_one}), got {result:?}");
        };
        let rendered: Vec<String> = trace.iter().map(ToString::to_string).collect();
        let at = |needle: &str| {
            rendered
                .iter()
                .position(|s| s.contains(needle))
                .unwrap_or_else(|| panic!("{needle} missing: {rendered:?}"))
        };
        // `a` unwound, `b` then ran to completion (its post is the wake
        // `a` needed), and only afterwards did `a` park.
        assert!(at("unwind(a) -> blocked") < at("post(b)"), "{rendered:?}");
        assert!(at("post(b)") < at("park(a)"), "{rendered:?}");
        assert_eq!(rendered.last().map(String::as_str), Some("t0: park(a)"));
        assert!(rendered.len() <= 8, "not shrunk: {rendered:?}");
    }
}

/// Under Fifo the wake in the window persists as a queue permit, so
/// the late snapshot loses nothing there.
#[test]
fn fifo_keeps_the_window_wake_as_a_permit() {
    let (sys, a, b) = gated_system();
    let result = Checker::new(sys)
        .sharded()
        .fifo()
        .late_wake_snapshot()
        .thread(vec![a])
        .thread(vec![b])
        .run(Pool::default());
    assert_eq!(result.outcome, Outcome::Ok);
}

/// Two callers of the same method that reserve and then block: a
/// rollback wakes neither its own method nor itself, and both still
/// complete once the gate opens.
#[test]
fn same_method_rollbacks_need_no_self_wake() {
    let (sys, a, b) = gated_system();
    let result = Checker::new(sys)
        .sharded()
        .thread(vec![a])
        .thread(vec![a])
        .thread(vec![b])
        .final_invariant(|s: &Pool| !s.busy)
        .run(Pool::default());
    assert_eq!(result.outcome, Outcome::Ok);
}
