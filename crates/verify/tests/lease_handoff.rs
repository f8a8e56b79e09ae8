//! Model checking the fault-tolerant lease handoff — the exhaustive
//! twin of the recovery state machine in `crates/core/src/lease.rs`
//! (driven live by `amf_service::PeerNode` and under the virtual clock
//! by `amf-sim`'s recovery topology).
//!
//! One sender/receiver link is folded into a [`ModelSystem`] as a
//! stop-and-wait protocol with every mechanism the wire implementation
//! carries: `xmit` (grant + pending slot), `rexmit` (retransmission of
//! a lost frame), `expire` (deadline reclaim into degraded local
//! moderation), `deliver` (receiver dedup window + grant + ack), `ack`
//! (the reliable return plane), and `dup` (the network duplicating a
//! frame in flight). Each protocol action runs atomically in its
//! aspect *precondition* (mutate-on-resume, the `aspects::reserve`
//! idiom), because the race the real daemon guards against — expiry
//! firing while traffic is still in flight — must be a single atomic
//! step to model the "drain readable acks before poll" contract.
//!
//! Two properties, checked on every interleaving:
//!
//! * **no-double-grant** (step invariant): no ticket is ever granted
//!   twice, across receiver deliveries *and* sender reclaims;
//! * **no-lost-ticket** (final invariant): when every script
//!   terminates, every ticket was granted exactly once — somewhere.
//!
//! The faithful protocol passes under duplication, transient loss, and
//! a fully severed link. Three ablations are each caught with a shrunk
//! counterexample:
//!
//! * no dedup — a duplicated frame grants twice (invariant violation);
//! * no expiry — a severed link strands the pending slot and the
//!   sender deadlocks (the model twin of the sim's `drop_nth`
//!   deadlock at `expiry_ns == 0`);
//! * reckless expiry — an expiry that ignores in-flight traffic
//!   (ablating the drain-acks-before-poll guard) reclaims a lease the
//!   receiver then also grants: double grant.

use std::mem::discriminant;

use amf_verify::{
    aspects, Checker, Exploration, ModelSystem, ModelVerdict, Outcome, ReductionPolicy, Step,
};

/// Tickets circulated over the link per run.
const TOTAL: u8 = 2;

/// How the link (mis)behaves.
#[derive(Clone, Copy, PartialEq)]
enum Link {
    /// Every frame arrives (possibly late).
    Clean,
    /// A `dup` step may copy a frame in flight.
    Duplicating,
    /// The first transmission is lost; retransmission works.
    Lossy,
    /// The first transmission is lost and so is every retransmission
    /// of it — the model of the sim's severed handoff.
    Severed,
}

/// How the sender's deadline behaves.
#[derive(Clone, Copy, PartialEq)]
enum Expiry {
    /// Fires only when no copy of the pending grant and no ack for it
    /// is still in flight — the model of "the deadline exceeds the
    /// maximum network delay" plus the drain-acks-before-poll guard.
    Sound,
    /// Fires whenever a grant is pending, traffic or not: the ablation
    /// of the guard.
    Reckless,
    /// Never fires (the sim ring at `expiry_ns == 0`).
    Disabled,
}

#[derive(Clone, Copy)]
struct Proto {
    dedup: bool,
    expiry: Expiry,
    link: Link,
}

/// The whole link folded into one shared model state.
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Wire {
    /// Tickets not yet transmitted at the sender.
    tickets: u8,
    /// Next sequence number the sender stamps.
    next_seq: u8,
    /// Grant copies in flight: `(seq, ticket)`.
    inflight: Vec<(u8, u8)>,
    /// The sender's stop-and-wait pending slot.
    unacked: Option<(u8, u8)>,
    /// Acks in flight — delayed, never dropped (the declared fault
    /// model: acks ride the TCP return path).
    acks: Vec<u8>,
    /// The receiver's idempotent dedup window (seqs already granted).
    seen: Vec<u8>,
    /// Grant log across both sides: receiver deliveries and sender
    /// reclaims, in grant order. The invariants read this.
    granted: Vec<u8>,
    /// The first transmission, if the link lost it.
    dropped_seq: Option<u8>,
    /// The sender reclaimed at least once (degraded local moderation).
    degraded: bool,
}

/// The sender has nothing left outstanding; surplus courier/ack/timer
/// steps pass through instead of blocking a finished run.
fn settled(s: &Wire) -> bool {
    s.tickets == 0 && s.unacked.is_none()
}

/// No ticket granted twice, at every step.
fn no_double_grant(s: &Wire) -> bool {
    s.granted
        .iter()
        .enumerate()
        .all(|(i, t)| !s.granted[..i].contains(t))
}

/// Every ticket granted exactly once by the time all scripts finish.
fn no_lost_ticket(s: &Wire) -> bool {
    let mut g = s.granted.clone();
    g.sort_unstable();
    g == (0..TOTAL).collect::<Vec<_>>()
}

/// Builds the checker for one protocol configuration. Thread scripts
/// are sized to the largest frame/ack population the configuration can
/// produce; once the run is settled, surplus steps pass through.
fn link_model(proto: Proto) -> Checker<Wire> {
    let mut sys = ModelSystem::new();
    let xmit = sys.method("xmit");
    let dup = sys.method("dup");
    let rexmit = sys.method("rexmit");
    let expire = sys.method("expire");
    let deliver = sys.method("deliver");
    let ack = sys.method("ack");
    let all = [xmit, dup, rexmit, expire, deliver, ack];

    // Sender: take the next ticket, stamp a sequence number, put the
    // grant in flight and hold it in the pending slot. Stop-and-wait:
    // blocks while a grant is pending — which is exactly what deadlocks
    // when the link is severed and nothing can clear the slot.
    sys.add_aspect(
        xmit,
        "xmit",
        aspects::from_fns(
            move |s: &mut Wire| {
                if s.tickets == 0 || s.unacked.is_some() {
                    return ModelVerdict::Block;
                }
                let ticket = TOTAL - s.tickets;
                s.tickets -= 1;
                let seq = s.next_seq;
                s.next_seq += 1;
                s.unacked = Some((seq, ticket));
                if matches!(proto.link, Link::Lossy | Link::Severed) && s.dropped_seq.is_none() {
                    s.dropped_seq = Some(seq); // lost in flight
                } else {
                    s.inflight.push((seq, ticket));
                }
                ModelVerdict::Resume
            },
            |_| (),
            |_| (),
        ),
    );

    // The network duplicating a frame in flight.
    sys.add_aspect(
        dup,
        "dup",
        aspects::from_fns(
            move |s: &mut Wire| {
                if let Some(&f) = s.inflight.first() {
                    s.inflight.push(f);
                    ModelVerdict::Resume
                } else if settled(s) {
                    ModelVerdict::Resume
                } else {
                    ModelVerdict::Block
                }
            },
            |_| (),
            |_| (),
        ),
    );

    // Retransmission: the pending grant has no copy in flight and no
    // ack on the way back — put a fresh copy on the wire. Into a
    // severed link the retransmission vanishes like the original.
    sys.add_aspect(
        rexmit,
        "rexmit",
        aspects::from_fns(
            move |s: &mut Wire| {
                if let Some((seq, ticket)) = s.unacked {
                    let lost = !s.inflight.iter().any(|f| f.0 == seq) && !s.acks.contains(&seq);
                    if lost {
                        if !(proto.link == Link::Severed && s.dropped_seq == Some(seq)) {
                            s.inflight.push((seq, ticket));
                        }
                        return ModelVerdict::Resume;
                    }
                }
                if settled(s) {
                    ModelVerdict::Resume
                } else {
                    ModelVerdict::Block
                }
            },
            |_| (),
            |_| (),
        ),
    );

    // Expiry: reclaim the pending grant into degraded local
    // moderation. `Sound` refuses while any copy of the grant or its
    // ack is still in flight — the drain-acks-before-poll guard plus
    // the deadline-exceeds-max-delay timing assumption, stated as a
    // guard. `Reckless` ablates exactly that check.
    sys.add_aspect(
        expire,
        "expire",
        aspects::from_fns(
            move |s: &mut Wire| {
                if let Some((seq, ticket)) = s.unacked {
                    let traffic = s.inflight.iter().any(|f| f.0 == seq) || s.acks.contains(&seq);
                    if proto.expiry == Expiry::Reckless || !traffic {
                        s.granted.push(ticket);
                        s.unacked = None;
                        s.degraded = true;
                        return ModelVerdict::Resume;
                    }
                }
                if settled(s) {
                    ModelVerdict::Resume
                } else {
                    ModelVerdict::Block
                }
            },
            |_| (),
            |_| (),
        ),
    );

    // Receiver: take the oldest frame; the dedup window discards a
    // sequence number it has already granted. Every delivery — fresh
    // or discarded — answers with an ack, so a lost ack is healed by
    // the next duplicate (idempotent re-ack).
    sys.add_aspect(
        deliver,
        "deliver",
        aspects::from_fns(
            move |s: &mut Wire| {
                if !s.inflight.is_empty() {
                    let (seq, ticket) = s.inflight.remove(0);
                    if !(proto.dedup && s.seen.contains(&seq)) {
                        s.seen.push(seq);
                        s.granted.push(ticket);
                    }
                    s.acks.push(seq);
                    ModelVerdict::Resume
                } else if settled(s) {
                    ModelVerdict::Resume
                } else {
                    ModelVerdict::Block
                }
            },
            |_| (),
            |_| (),
        ),
    );

    // The return plane: deliver the oldest ack; clearing the pending
    // slot is what lets the sender transmit the next ticket.
    sys.add_aspect(
        ack,
        "ack",
        aspects::from_fns(
            move |s: &mut Wire| {
                if !s.acks.is_empty() {
                    let seq = s.acks.remove(0);
                    if s.unacked.map(|(q, _)| q) == Some(seq) {
                        s.unacked = None;
                    }
                    ModelVerdict::Resume
                } else if settled(s) {
                    ModelVerdict::Resume
                } else {
                    ModelVerdict::Block
                }
            },
            |_| (),
            |_| (),
        ),
    );

    // Complete wake graph: every completed step re-evaluates every
    // blocked gate. Spurious wakes only re-run pure guards, and the
    // model stays faithful to the live system, where the io-tick
    // daemon re-polls every condition.
    for m in all {
        sys.wire_wakes(m, all.to_vec());
    }

    // Scripts sized to the configuration's maximum traffic: frames =
    // TOTAL transmissions, +1 for a duplicate; acks mirror deliveries.
    let frames = match proto.link {
        Link::Duplicating => TOTAL as usize + 1,
        _ => TOTAL as usize,
    };
    let mut checker = Checker::new(sys)
        .invariant(no_double_grant)
        .final_invariant(no_lost_ticket)
        .thread(vec![xmit; TOTAL as usize])
        .thread(vec![deliver; frames])
        .thread(vec![ack; frames]);
    if proto.link == Link::Duplicating {
        checker = checker.thread(vec![dup]);
    }
    if matches!(proto.link, Link::Lossy | Link::Severed) {
        checker = checker.thread(vec![rexmit]);
    }
    if proto.expiry != Expiry::Disabled {
        checker = checker.thread(vec![expire]);
    }
    checker
}

/// Runs a configuration under both reduction policies and asserts the
/// differential contract (same as `tests/multi_moderator.rs`).
fn differential(proto: Proto) -> (Exploration, Exploration) {
    let none = link_model(proto)
        .reduction(ReductionPolicy::None)
        .run(Wire {
            tickets: TOTAL,
            ..Wire::default()
        });
    let dpor = link_model(proto)
        .reduction(ReductionPolicy::Dpor)
        .run(Wire {
            tickets: TOTAL,
            ..Wire::default()
        });
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

/// The shrunk counterexample of a failing outcome, rendered.
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

// ------------------------------------------------------------------ //
// The faithful protocol.
// ------------------------------------------------------------------ //

/// Duplication is absorbed by the dedup window: every interleaving of
/// a duplicating link keeps both invariants, under both reduction
/// policies with identical state coverage.
#[test]
fn faithful_protocol_survives_duplication() {
    let (none, _dpor) = differential(Proto {
        dedup: true,
        expiry: Expiry::Sound,
        link: Link::Duplicating,
    });
    assert_eq!(none.outcome, Outcome::Ok, "{:?}", none.outcome);
}

/// A transiently lost frame is healed by retransmission — or, in the
/// schedules where the deadline wins the race, by a sound expiry
/// reclaim. Both recovery paths are explored exhaustively; no
/// interleaving loses or doubles a ticket.
#[test]
fn faithful_protocol_survives_transient_loss() {
    let (none, _dpor) = differential(Proto {
        dedup: true,
        expiry: Expiry::Sound,
        link: Link::Lossy,
    });
    assert_eq!(none.outcome, Outcome::Ok, "{:?}", none.outcome);
}

/// A severed link — the original and every retransmission lost — is
/// recovered by expiry alone: the sender reclaims the ticket into
/// degraded local moderation and the run still grants every ticket
/// exactly once. The DPOR differential runs on this, the richest
/// passing configuration.
#[test]
fn faithful_protocol_survives_a_severed_link() {
    let (none, dpor) = differential(Proto {
        dedup: true,
        expiry: Expiry::Sound,
        link: Link::Severed,
    });
    assert_eq!(none.outcome, Outcome::Ok, "{:?}", none.outcome);
    assert!(
        dpor.schedules < none.schedules,
        "recovery traffic must still reduce: none={} dpor={}",
        none.schedules,
        dpor.schedules
    );
}

// ------------------------------------------------------------------ //
// Ablations — each mechanism earns its keep with a counterexample.
// ------------------------------------------------------------------ //

/// Without the dedup window a duplicated frame grants its ticket
/// twice: caught as a step-invariant violation whose shrunk trace
/// contains the duplication and both deliveries.
#[test]
fn no_dedup_ablation_double_grants() {
    let (none, _dpor) = differential(Proto {
        dedup: false,
        expiry: Expiry::Sound,
        link: Link::Duplicating,
    });
    match &none.outcome {
        Outcome::InvariantViolation(_) => {}
        other => panic!("expected a double grant, got {other:?}"),
    }
    let trace = counterexample(&none.outcome);
    assert!(
        trace.iter().any(|s| s.contains("dup")),
        "the duplication must be in the shrunk trace: {trace:?}"
    );
    assert!(
        trace.iter().filter(|s| s.contains("deliver")).count() >= 2,
        "both deliveries of the duplicate must be in the trace: {trace:?}"
    );
}

/// Without expiry a severed link strands the pending slot forever: the
/// sender's next transmit blocks on the stop-and-wait gate and the
/// whole link deadlocks — the model twin of the sim's `drop_nth`
/// detected deadlock at `expiry_ns == 0`.
#[test]
fn no_expiry_ablation_deadlocks_on_a_severed_link() {
    let (none, dpor) = differential(Proto {
        dedup: true,
        expiry: Expiry::Disabled,
        link: Link::Severed,
    });
    for (label, outcome) in [("none", &none.outcome), ("dpor", &dpor.outcome)] {
        match outcome {
            Outcome::Deadlock(_) => {}
            other => panic!("{label}: expected deadlock, got {other:?}"),
        }
    }
    let trace = counterexample(&dpor.outcome);
    assert!(
        trace.iter().any(|s| s.contains("xmit")),
        "the stranding transmit must be in the shrunk trace: {trace:?}"
    );
}

/// An expiry that ignores in-flight traffic — ablating the
/// drain-readable-acks-before-poll guard — reclaims a ticket the
/// receiver then also grants: double grant, with the premature expiry
/// and the late delivery both in the shrunk trace.
#[test]
fn reckless_expiry_ablation_double_grants() {
    let (none, _dpor) = differential(Proto {
        dedup: true,
        expiry: Expiry::Reckless,
        link: Link::Clean,
    });
    match &none.outcome {
        Outcome::InvariantViolation(_) => {}
        other => panic!("expected a double grant, got {other:?}"),
    }
    let trace = counterexample(&none.outcome);
    assert!(
        trace.iter().any(|s| s.contains("expire")),
        "the premature expiry must be in the shrunk trace: {trace:?}"
    );
    assert!(
        trace.iter().any(|s| s.contains("deliver")),
        "the late delivery must be in the shrunk trace: {trace:?}"
    );
}
