//! Wake plumbing: which queues a notification reaches and how it is
//! recorded.
//!
//! The ticketed FIFO discipline itself lives in
//! [`amf_concurrency::TicketQueue`] — the moderator holds one per
//! (cell, slot) and this module bridges the moderator's [`WakeMode`]
//! onto it. Under [`FairnessPolicy::Fifo`] a notification is recorded
//! as *queue state* first (a head-of-queue signal or a broadcast sweep)
//! and only then pulsed through the cell's [`Waiter`] waitpoint, so a
//! wake landing while a waiter's cell lock is released persists as a
//! permit instead of being lost.
//!
//! [`Waiter`]: amf_concurrency::Waiter

use std::sync::Arc;

use amf_concurrency::{TicketQueue, Waiter};

use super::cell::{Cell, CellState, FastLane, MethodEntry, MethodHandle};
use super::stats::{inc, StatShard};
use super::{AspectModerator, FairnessPolicy, WakeMode};
use crate::bank::MethodIndex;
use crate::concern::MethodId;
use crate::trace::EventKind;

/// Which wait queues a method's post-activation notifies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(super) enum WakeTargets {
    /// Notify every declared method's queue (safe default).
    #[default]
    All,
    /// Notify exactly these methods' queues (the paper wires open→assign
    /// and assign→open by hand; [`AspectModerator::wire_wakes`] does the
    /// same declaratively).
    Wired(Vec<MethodIndex>),
}

/// Records one notification on a method's FIFO queue: a broadcast sweep
/// under [`WakeMode::NotifyAll`], a single head-of-queue permit under
/// [`WakeMode::NotifyOne`].
pub(super) fn wake_queue(queue: &mut TicketQueue, mode: WakeMode) {
    match mode {
        WakeMode::NotifyAll => queue.wake_all(),
        WakeMode::NotifyOne => queue.wake_one(),
    }
}

/// Recomputes and publishes one method's fast-lane state. The single
/// authority for *opening* the lane — the full predicate, checked under
/// the cell lock:
///
/// 1. the row's cached capability conjunction holds
///    ([`AspectBank::fast_path_eligible`](crate::AspectBank), revoked
///    by any contained panic),
/// 2. the ticket queue has no waiters **and no unserved grants** (the
///    departure that drains the FIFO queue is the one that reopens the
///    lane — a batched grant still being consumed keeps it closed, so
///    batched admission and timeout cancellation compose),
/// 3. nobody is parked outside the queue (the barging discipline),
/// 4. the method's completion notifies no one
///    ([`WakeTargets::Wired`] and empty — a fast departure skips the
///    post-activation notify, which is only sound if there is no one
///    to notify),
/// 5. no slot of the row is quarantined.
///
/// Closing, by contrast, is *eager*: the slow path calls
/// [`FastLane::close`] directly before any waiter enqueues or parks,
/// and a contained panic closes the lane inside `note_panic`. This
/// function then merely confirms the closed state until the last
/// pending waiter departs.
pub(super) fn refresh_lane(state: &CellState, lane: &FastLane, slot: MethodIndex) {
    let ix = slot.as_usize();
    let clear = state.bank.fast_path_eligible(slot)
        && state.queues[ix].is_empty()
        && !state.queues[ix].has_pending()
        && state.parked[ix] == 0
        && matches!(&state.wakes[ix], WakeTargets::Wired(t) if t.is_empty())
        && state.faults[ix].values().all(|f| !f.quarantined);
    if clear {
        lane.open();
    } else {
        lane.close();
    }
}

impl AspectModerator {
    /// Signals a method's *own* waitpoint (module docs: self-wake). The
    /// caller must hold that method's cell lock. Deliberately neither
    /// counted in [`ModeratorStats::notifications`] nor traced as
    /// [`EventKind::NotificationSent`]: `wire_wakes` semantics (and the
    /// tests pinning them) describe cross-method notifications only.
    ///
    /// Under [`FairnessPolicy::Fifo`] the wake is recorded as a queue
    /// permit first; the waitpoint broadcast only tells parked waiters
    /// to re-check their eligibility.
    ///
    /// [`ModeratorStats::notifications`]: super::ModeratorStats::notifications
    pub(super) fn wake_own(
        &self,
        state: &mut CellState,
        slot: MethodIndex,
        point: &Arc<dyn Waiter<CellState>>,
    ) {
        match self.fairness {
            FairnessPolicy::Barging => {
                state.note_wake(slot);
                match self.wake_mode {
                    WakeMode::NotifyAll => point.wake_all(),
                    WakeMode::NotifyOne => point.wake_one(),
                }
            }
            FairnessPolicy::Fifo => {
                wake_queue(&mut state.queues[slot.as_usize()], self.wake_mode);
                point.wake_all();
            }
        }
    }

    /// Notifies the wait queues named by `targets` — leaving out
    /// `source`'s own queue when `skip_source` — signalling each
    /// target's waitpoint **while holding that target's cell lock** —
    /// the discipline that makes cross-method wakeups race-free (module
    /// docs). The caller must not hold any cell lock.
    pub(super) fn notify_targets(
        &self,
        targets: &WakeTargets,
        source: &MethodHandle,
        skip_source: bool,
        stats: &StatShard,
        invocation: u64,
    ) {
        type Target = (Arc<Cell>, MethodIndex, Arc<dyn Waiter<CellState>>, MethodId);
        let resolved: Vec<Target> = {
            let registry = self.registry.read();
            let pick = |e: &MethodEntry| {
                (
                    Arc::clone(&e.cell),
                    e.slot,
                    Arc::clone(&e.point),
                    e.id.clone(),
                )
            };
            let wanted = |ix: &usize| !(skip_source && *ix == source.index.as_usize());
            match targets {
                WakeTargets::All => (0..registry.entries.len())
                    .filter(wanted)
                    .map(|ix| pick(&registry.entries[ix]))
                    .collect(),
                WakeTargets::Wired(t) => t
                    .iter()
                    .map(|ix| ix.as_usize())
                    .filter(wanted)
                    .map(|ix| pick(&registry.entries[ix]))
                    .collect(),
            }
        };
        for (cell, slot, point, target_id) in resolved {
            {
                let mut state = cell.state.lock();
                match self.fairness {
                    FairnessPolicy::Barging => {
                        state.note_wake(slot);
                        match self.wake_mode {
                            WakeMode::NotifyAll => point.wake_all(),
                            WakeMode::NotifyOne => point.wake_one(),
                        }
                    }
                    FairnessPolicy::Fifo => {
                        wake_queue(&mut state.queues[slot.as_usize()], self.wake_mode);
                        point.wake_all();
                    }
                }
                // Emit while still holding the target cell: the woken
                // waiter cannot log `WaitWoken` until it reacquires the
                // lock, keeping notify→woken ordered in the trace.
                if self.trace.is_some() {
                    self.emit(
                        invocation,
                        &source.id,
                        None,
                        EventKind::NotificationSent(target_id),
                    );
                }
            }
            inc(&stats.notifications);
        }
    }
}
