//! The ticketed-FIFO grant discipline.
//!
//! [`TicketQueue`] is the one ticketed first-in-first-out state machine
//! in the workspace: pure queue *state*, no parking. Callers hold their
//! own lock (a coordination cell's mutex in `amf-core`) and drive the
//! queue through its transitions; a separate [`Waiter`](crate::Waiter)
//! engine does the actual parking. That split is what lets the same
//! discipline back a blocking condition queue and an async grant engine.
//!
//! Wake permits are *state* — pending signals and broadcast sweeps —
//! rather than bare condvar pulses, so a notification landing while a
//! waiter's lock is released (e.g. during the moderator's rollback
//! notification) is retained instead of lost. The wake primitive only
//! says "queue state changed, re-check"; eligibility lives here.
//!
//! # Sweeps stop at the first re-block
//!
//! A broadcast sweep hands its cursor from the queue front to the next
//! ticket only when the front *leaves*. A front that re-blocks ends the
//! sweep: no later ticket may evaluate while an earlier one is still
//! parked, so a resource freed between two evaluations can never go to
//! the later ticket first. This is the discipline the `amf-verify`
//! model checks (only the queue front evaluates). A broadcast that
//! lands while the front already holds the cursor — possibly mid-way
//! through its own evaluation — marks the sweep *rearmed*: the front's
//! re-block then keeps the cursor for one more evaluation instead of
//! ending the sweep, so that broadcast is not lost.
//!
//! # Batched grants
//!
//! Constructed with `batch = true`, the queue *extends* a departing
//! holder's grant to its successor: when a ticket settles and leaves
//! (its activation resumed or aborted) while no other permit is
//! pending, the new queue front receives a one-ticket batched sweep and
//! may evaluate immediately. A waker that freed `k` resources at once
//! thus admits the front-`k` prefix of the queue in one cursor-ordered
//! chain of lock handoffs — each admission settles under the lock the
//! previous holder just released — instead of `k` sequential
//! wake/complete round trips (the capacity-`k` convoy). The chain stops
//! at the first waiter that re-blocks, so over-admission costs exactly
//! one re-check. Order is still strictly ticket order: the extension is
//! a sweep with a cursor, never a free-for-all, which is what preserves
//! no-overtake (model-checked in `amf-verify`, where the
//! `split_batch_overtake` ablation shows what goes wrong without the
//! cursor).

use std::collections::VecDeque;

/// How a caller obtained the right to proceed; determines which queue
/// state [`TicketQueue::settle`] consumes when the evaluation settles.
///
/// Every grant but the first comes from queue state, so a ticketed
/// caller evaluates only in ticket order: there is no out-of-band
/// re-check. A wake that lands while the holder's lock is dropped (a
/// notification it sends with the lock released) stays recorded here
/// as a signal or a sweep until a waiter consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grant {
    /// First evaluation of a caller that found the queue empty — it
    /// holds no ticket yet. Settling consumes nothing.
    First,
    /// The ticket is the cursor of an active sweep (broadcast or
    /// batched extension).
    Sweep,
    /// The ticket is the queue head and a single-waiter signal is
    /// pending.
    Signal,
}

/// An active sweep: tickets in `cursor..end` evaluate in ticket order
/// while each one leaves; `cursor` is the ticket currently allowed to
/// evaluate. `batched` marks a batched-grant extension (installed by
/// [`TicketQueue::settle`]) as opposed to a broadcast; `rearmed` marks a
/// broadcast that landed while the cursor already sat on the queue
/// front (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sweep {
    cursor: u64,
    end: u64,
    batched: bool,
    rearmed: bool,
}

/// Ticketed FIFO wait state. All operations must run under the caller's
/// lock — the queue carries no synchronization of its own.
///
/// ```
/// use amf_concurrency::{Grant, TicketQueue};
///
/// let mut q = TicketQueue::new(false);
/// let t0 = q.enqueue();
/// let t1 = q.enqueue();
/// q.wake_one();
/// assert_eq!(q.grant_for(t1), None); // strictly first-parked-first-served
/// assert_eq!(q.grant_for(t0), Some(Grant::Signal));
/// q.settle(t0, Grant::Signal, true);
/// assert_eq!(q.grant_for(t1), None); // the signal died with its grant
/// ```
#[derive(Debug, Default)]
pub struct TicketQueue {
    /// Whether a departing grant extends to the successor (module docs:
    /// batched grants).
    batch: bool,
    /// Next ticket to issue; monotonic per queue.
    next_ticket: u64,
    /// Parked tickets, oldest first. Always sorted ascending: tickets
    /// are issued in order and removals preserve order.
    waiting: VecDeque<u64>,
    /// Pending single-waiter permits: the queue head may evaluate once
    /// per signal. Never exceeds the queue length.
    signals: u64,
    /// Active sweep, if any.
    sweep: Option<Sweep>,
}

impl TicketQueue {
    /// Creates an empty queue. `batch` enables batched grant extension
    /// (module docs); pass `false` for strict one-at-a-time handoffs.
    pub fn new(batch: bool) -> Self {
        Self {
            batch,
            ..Self::default()
        }
    }

    /// Number of tickets currently queued.
    pub fn len(&self) -> usize {
        self.waiting.len()
    }

    /// Whether no ticket is queued.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// Whether any ticket is queued.
    pub fn has_waiters(&self) -> bool {
        !self.waiting.is_empty()
    }

    /// Whether any unconsumed wake permit exists.
    pub fn has_pending(&self) -> bool {
        self.signals > 0 || self.sweep.is_some()
    }

    /// Issues the next ticket and parks it at the back of the queue.
    pub fn enqueue(&mut self) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.waiting.push_back(ticket);
        ticket
    }

    /// The permit, if any, entitling `ticket` to proceed now.
    pub fn grant_for(&self, ticket: u64) -> Option<Grant> {
        if self.sweep.is_some_and(|s| s.cursor == ticket) {
            return Some(Grant::Sweep);
        }
        if self.signals > 0 && self.waiting.front() == Some(&ticket) {
            return Some(Grant::Signal);
        }
        None
    }

    /// Records one broadcast notification: (re)starts a sweep at the
    /// queue front over every currently ticketed waiter. A notification
    /// with no waiters is lost (condition-queue semantics), same as a
    /// condvar broadcast with nobody parked.
    ///
    /// The sweep advances only past tickets that leave; the first
    /// re-block ends it (module docs). A broadcast merging into a sweep
    /// whose cursor already sits on the front rearms it, so the front
    /// gets one more evaluation even if it is evaluating right now;
    /// each sweep stays finite because `end` is fixed at permit time.
    pub fn wake_all(&mut self) {
        if let Some(&front) = self.waiting.front() {
            let rearmed = self.sweep.is_some_and(|s| s.cursor == front);
            self.sweep = Some(Sweep {
                cursor: front,
                end: self.next_ticket,
                batched: false,
                rearmed,
            });
        }
    }

    /// Records one single-waiter notification: the queue head may
    /// evaluate once more. Lost when no waiter is queued.
    pub fn wake_one(&mut self) {
        if !self.waiting.is_empty() {
            self.signals = (self.signals + 1).min(self.waiting.len() as u64);
        }
    }

    /// Consumes the permit behind a finished evaluation; removes the
    /// ticket when its holder is leaving the queue (resume or abort).
    /// A sweep holder that leaves passes the cursor on; one that
    /// re-blocks ends the sweep, unless a broadcast rearmed it, in which
    /// case it keeps the cursor for one more evaluation (module docs).
    /// With batching enabled, a departure extends the grant to the new
    /// queue front when no other permit covers it.
    ///
    /// Returns `true` when the settled grant was a batched extension —
    /// the caller's hook for a `batched_grants` counter.
    pub fn settle(&mut self, ticket: u64, grant: Grant, leaving: bool) -> bool {
        let batched_serve =
            grant == Grant::Sweep && self.sweep.is_some_and(|s| s.cursor == ticket && s.batched);
        match grant {
            Grant::Sweep if leaving => self.advance_sweep(ticket),
            Grant::Sweep => {
                if let Some(s) = self.sweep.filter(|s| s.cursor == ticket) {
                    self.sweep = s.rearmed.then_some(Sweep {
                        rearmed: false,
                        ..s
                    });
                }
            }
            Grant::Signal => self.signals -= 1,
            Grant::First => {}
        }
        if leaving {
            self.remove(ticket);
            if self.batch {
                self.extend_to_front();
            }
        }
        batched_serve
    }

    /// Surrenders a cancelled (timed-out) ticket. Pending permits are
    /// *not* discarded: signals re-attach to the new head, an active
    /// sweep advances past the leaver, and a batched extension is
    /// re-issued to the successor, so successors are never stranded by
    /// a cancellation.
    pub fn cancel(&mut self, ticket: u64) {
        self.remove(ticket);
        if self.batch {
            // A cancelled holder of an extension grant consumed no
            // resource; the extension passes on whole.
            self.extend_to_front();
        }
    }

    fn remove(&mut self, ticket: u64) {
        // A departing ticket may hold the sweep cursor under a grant
        // other than `Sweep`: a wake issued *during its own evaluation*
        // (aspect quarantine, deregister from an aspect) starts the
        // sweep at the queue head — the evaluator itself. Pass the
        // cursor on, or the sweep dangles and strands every successor.
        if self.sweep.is_some_and(|s| s.cursor == ticket) {
            self.advance_sweep(ticket);
        }
        if let Some(pos) = self.waiting.iter().position(|&t| t == ticket) {
            self.waiting.remove(pos);
        }
        self.signals = self.signals.min(self.waiting.len() as u64);
        if self.waiting.is_empty() {
            self.sweep = None;
        }
    }

    /// Moves an active sweep's cursor to the next ticketed waiter after
    /// `after`, ending the sweep when none remains below its end. The
    /// successor's evaluation already serves any rearming broadcast.
    fn advance_sweep(&mut self, after: u64) {
        let Some(sweep) = self.sweep else {
            return;
        };
        self.sweep = self
            .waiting
            .iter()
            .copied()
            .find(|&t| t > after && t < sweep.end)
            .map(|cursor| Sweep {
                cursor,
                rearmed: false,
                ..sweep
            });
    }

    /// Installs a one-ticket batched sweep at the queue front, unless a
    /// permit already covers someone. Called on departures when
    /// batching is enabled.
    fn extend_to_front(&mut self) {
        if self.sweep.is_none() && self.signals == 0 {
            if let Some(&front) = self.waiting.front() {
                self.sweep = Some(Sweep {
                    cursor: front,
                    end: front + 1,
                    batched: true,
                    rearmed: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_grants_front_only() {
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        assert_eq!(q.grant_for(t0), None);
        q.wake_one();
        assert_eq!(q.grant_for(t0), Some(Grant::Signal));
        assert_eq!(q.grant_for(t1), None);
        assert!(!q.settle(t0, Grant::Signal, true));
        assert_eq!(q.grant_for(t1), None, "signal died with its grant");
        assert!(q.has_waiters());
    }

    #[test]
    fn signals_cap_at_queue_length() {
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        q.wake_one();
        q.wake_one();
        q.wake_one();
        q.settle(t0, Grant::Signal, true);
        assert!(!q.has_pending(), "banked signals capped at one waiter");
    }

    #[test]
    fn wake_without_waiters_is_lost() {
        let mut q = TicketQueue::new(false);
        q.wake_one();
        q.wake_all();
        let t0 = q.enqueue();
        assert_eq!(q.grant_for(t0), None);
    }

    #[test]
    fn sweep_serves_in_ticket_order() {
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        let t2 = q.enqueue();
        q.wake_all();
        assert_eq!(q.grant_for(t1), None);
        assert_eq!(q.grant_for(t0), Some(Grant::Sweep));
        q.settle(t0, Grant::Sweep, true);
        assert_eq!(q.grant_for(t2), None);
        assert_eq!(q.grant_for(t1), Some(Grant::Sweep));
        q.settle(t1, Grant::Sweep, false); // re-blocked, stays queued
        assert_eq!(q.grant_for(t2), None, "no evaluation past a re-block");
        assert!(!q.has_pending(), "the re-block ended the sweep");
    }

    #[test]
    fn reblocked_front_keeps_later_tickets_parked_until_the_next_broadcast() {
        // The wake-order inversion: with the sweep advancing past a
        // re-block, a resource freed between the front's evaluation and
        // its successor's went to the successor first.
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        q.wake_all();
        q.settle(t0, Grant::Sweep, false); // nothing free yet
        assert_eq!(q.grant_for(t1), None, "t1 may not overtake t0");
        q.wake_all(); // the resource is freed, and announced
        assert_eq!(q.grant_for(t1), None);
        assert_eq!(q.grant_for(t0), Some(Grant::Sweep), "the front goes first");
        q.settle(t0, Grant::Sweep, true);
        assert_eq!(q.grant_for(t1), Some(Grant::Sweep));
    }

    #[test]
    fn broadcast_during_the_fronts_evaluation_is_not_lost() {
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        q.wake_all();
        assert_eq!(q.grant_for(t0), Some(Grant::Sweep));
        q.wake_all(); // lands while t0 evaluates under the cell lock
        q.settle(t0, Grant::Sweep, false);
        assert_eq!(q.grant_for(t0), Some(Grant::Sweep), "one more re-check");
        assert_eq!(q.grant_for(t1), None);
        q.settle(t0, Grant::Sweep, false);
        assert!(!q.has_pending(), "the rearm is spent by one evaluation");
    }

    #[test]
    fn broadcast_during_a_signal_evaluation_is_not_lost() {
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        q.wake_one();
        assert_eq!(q.grant_for(t0), Some(Grant::Signal));
        q.wake_all();
        q.settle(t0, Grant::Signal, false);
        assert_eq!(q.grant_for(t0), Some(Grant::Sweep));
    }

    #[test]
    fn sweep_excludes_tickets_issued_after_the_wake() {
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        q.wake_all();
        let t1 = q.enqueue();
        q.settle(t0, Grant::Sweep, true);
        assert_eq!(q.grant_for(t1), None, "t1 arrived after the broadcast");
    }

    #[test]
    fn cancel_reattaches_signal_to_successor() {
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        q.wake_one();
        assert_eq!(q.grant_for(t0), Some(Grant::Signal));
        q.cancel(t0);
        assert_eq!(q.grant_for(t1), Some(Grant::Signal));
    }

    #[test]
    fn cancel_passes_sweep_cursor_on() {
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        q.wake_all();
        q.cancel(t0);
        assert_eq!(q.grant_for(t1), Some(Grant::Sweep));
    }

    #[test]
    fn remove_of_non_cursor_holder_passes_head_started_sweep() {
        // A wake issued during the evaluator's own pass (quarantine,
        // deregister) starts the sweep at the head — the evaluator. Its
        // departure under a non-Sweep grant must pass the cursor on.
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        q.wake_one();
        assert_eq!(q.grant_for(t0), Some(Grant::Signal));
        q.wake_all(); // issued mid-evaluation: cursor lands on t0
        q.settle(t0, Grant::Signal, true);
        assert_eq!(q.grant_for(t1), Some(Grant::Sweep));
    }

    #[test]
    fn batched_departure_extends_grant_to_successor() {
        let mut q = TicketQueue::new(true);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        let t2 = q.enqueue();
        q.wake_one();
        assert!(
            !q.settle(t0, Grant::Signal, true),
            "signal serve, not batched"
        );
        // t1 is admitted without any fresh notification.
        assert_eq!(q.grant_for(t1), Some(Grant::Sweep));
        assert!(q.settle(t1, Grant::Sweep, true), "batched extension serve");
        // The chain keeps extending while holders leave.
        assert_eq!(q.grant_for(t2), Some(Grant::Sweep));
        assert!(
            q.settle(t2, Grant::Sweep, false),
            "counted even on re-block"
        );
        assert!(!q.has_pending(), "a re-block ends the batch");
    }

    #[test]
    fn batched_extension_respects_existing_permits() {
        let mut q = TicketQueue::new(true);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        q.wake_one();
        q.wake_one();
        q.settle(t0, Grant::Signal, true);
        // A banked signal already covers t1: no extension on top.
        assert_eq!(q.grant_for(t1), Some(Grant::Signal));
        assert!(!q.settle(t1, Grant::Signal, false));
        assert!(!q.has_pending());
    }

    #[test]
    fn batched_extension_survives_cancellation() {
        let mut q = TicketQueue::new(true);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        let t2 = q.enqueue();
        q.wake_one();
        q.settle(t0, Grant::Signal, true);
        assert_eq!(q.grant_for(t1), Some(Grant::Sweep));
        // t1 times out while holding the extension: it passes on whole.
        q.cancel(t1);
        assert_eq!(q.grant_for(t2), Some(Grant::Sweep));
        assert!(q.settle(t2, Grant::Sweep, true));
        assert!(q.is_empty());
    }

    #[test]
    fn unbatched_departure_does_not_extend() {
        let mut q = TicketQueue::new(false);
        let t0 = q.enqueue();
        let t1 = q.enqueue();
        q.wake_one();
        q.settle(t0, Grant::Signal, true);
        assert_eq!(
            q.grant_for(t1),
            None,
            "one-at-a-time: the successor waits for its own wake"
        );
    }

    #[test]
    fn empty_queue_invariants() {
        let mut q = TicketQueue::new(true);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        let t0 = q.enqueue();
        assert_eq!(q.len(), 1);
        q.wake_all();
        q.settle(t0, Grant::Sweep, true);
        assert!(q.is_empty());
        assert!(!q.has_pending(), "sweep cleared with the last waiter");
    }
}
