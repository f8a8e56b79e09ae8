//! Fault containment: per-slot panic bookkeeping, quarantine, and the
//! panic-to-abort compensation plumbing (module docs in [`super`],
//! "Fault containment").

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use amf_concurrency::{TicketQueue, Waiter};

use super::cell::{CellState, FastLane};
use super::queue::wake_queue;
use super::stats::{inc, StatShard};
use super::{AspectModerator, FairnessPolicy, MethodHandle, PanicPolicy, WakeMode};
use crate::bank::{MethodIndex, MethodRow};
use crate::concern::{Concern, MethodId};
use crate::context::InvocationContext;
use crate::error::AbortError;
use crate::trace::EventKind;

/// Containment bookkeeping for one aspect slot: how often its callbacks
/// have panicked and whether [`PanicPolicy::Quarantine`] has disabled
/// it. Lives in the cell (not the bank) so replacing an aspect via
/// `deregister`/`register` keeps the slot's fault history.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct SlotFault {
    pub(super) panics: u32,
    pub(super) quarantined: bool,
}

/// Renders a caught panic payload for diagnostics.
pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl AspectModerator {
    /// The moderator's panic containment policy.
    pub fn panic_policy(&self) -> PanicPolicy {
        self.panic_policy
    }

    /// Per-slot caught-panic counts for `method`, in registration order.
    /// Slots that never panicked are reported with a count of 0.
    pub fn panic_counts(&self, method: &MethodHandle) -> Vec<(Concern, u32)> {
        let r = self.resolve(method);
        let state = r.cell.state.lock();
        let fault_map = &state.faults[r.slot.as_usize()];
        state
            .bank
            .concerns(r.slot)
            .into_iter()
            .map(|c| {
                let panics = fault_map.get(&c).map_or(0, |f| f.panics);
                (c, panics)
            })
            .collect()
    }

    /// The concerns of `method` currently quarantined by
    /// [`PanicPolicy::Quarantine`], in registration order.
    pub fn quarantined_concerns(&self, method: &MethodHandle) -> Vec<Concern> {
        let r = self.resolve(method);
        let state = r.cell.state.lock();
        let fault_map = &state.faults[r.slot.as_usize()];
        state
            .bank
            .concerns(r.slot)
            .into_iter()
            .filter(|c| fault_map.get(c).is_some_and(|f| f.quarantined))
            .collect()
    }

    /// Records one contained aspect panic: bumps the counters and the
    /// slot's fault entry, emits [`EventKind::PanicCaught`], and — under
    /// [`PanicPolicy::Quarantine`] — disables the slot once its budget
    /// is spent. Quarantining shortens the effective chain exactly like
    /// `deregister`, so the method's own waiters are woken (full sweep
    /// under Fifo) to re-evaluate. The caller must hold the cell lock.
    ///
    /// A contained panic also **falsifies the row's declared capability
    /// contract** (a pure callback does not panic): the row's cached
    /// fast-lane eligibility is revoked and the lane closed before any
    /// other bookkeeping, so no CAS admission can ride on the
    /// now-discredited declaration. The next weave of the row
    /// recomputes eligibility from its (new) declarations.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn note_panic(
        &self,
        fault_map: &mut HashMap<Concern, SlotFault>,
        queue: &mut TicketQueue,
        wake_gen: &mut u64,
        point: &Arc<dyn Waiter<CellState>>,
        lane: &FastLane,
        fast_eligible: &mut bool,
        method: &MethodId,
        concern: &Concern,
        invocation: u64,
        stats: &StatShard,
    ) {
        *fast_eligible = false;
        lane.close();
        inc(&stats.panics_caught);
        self.emit(
            invocation,
            method,
            Some(concern.clone()),
            EventKind::PanicCaught,
        );
        let entry = fault_map.entry(concern.clone()).or_default();
        entry.panics = entry.panics.saturating_add(1);
        if let PanicPolicy::Quarantine { after } = self.panic_policy {
            if !entry.quarantined && entry.panics >= after {
                entry.quarantined = true;
                inc(&stats.quarantined_aspects);
                self.emit(
                    invocation,
                    method,
                    Some(concern.clone()),
                    EventKind::AspectQuarantined,
                );
                if self.fairness == FairnessPolicy::Fifo {
                    wake_queue(queue, WakeMode::NotifyAll);
                }
                // A rare pulse: counted whoever is blocked
                // (`CellState::note_wake`).
                *wake_gen += 1;
                point.wake_all();
            }
        }
    }

    /// Whether `concern`'s slot has been quarantined (always false under
    /// policies other than [`PanicPolicy::Quarantine`], which never set
    /// the flag).
    pub(super) fn is_quarantined(
        fault_map: &HashMap<Concern, SlotFault>,
        concern: &Concern,
    ) -> bool {
        fault_map.get(concern).is_some_and(|f| f.quarantined)
    }

    /// Builds the error for a chain that ended in `Aborted`: a contained
    /// panic surfaces as [`AbortError::AspectPanicked`], a
    /// [`Verdict::Abort`](crate::Verdict::Abort) as
    /// [`AbortError::Aspect`].
    pub(super) fn abort_error(
        method: &MethodId,
        concern: Concern,
        reason: crate::verdict::AbortReason,
        panicked: bool,
    ) -> AbortError {
        if panicked {
            AbortError::AspectPanicked {
                method: method.clone(),
                concern,
                message: reason.message().to_string(),
            }
        } else {
            AbortError::Aspect {
                method: method.clone(),
                concern,
                reason,
            }
        }
    }

    /// Delivers `on_cancel` to every aspect in a method's row (the
    /// timeout path), with containment per policy: quarantined slots are
    /// skipped and a panicking `on_cancel` is caught and counted so the
    /// remaining aspects still see the cancellation. Returns whether any
    /// aspect reported that the cancellation may let another waiter of
    /// the method proceed.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn cancel_all(
        &self,
        state: &mut CellState,
        slot: MethodIndex,
        method: &MethodId,
        ctx: &InvocationContext,
        point: &Arc<dyn Waiter<CellState>>,
        lane: &FastLane,
        stats: &StatShard,
    ) -> bool {
        let contain = self.panic_policy != PanicPolicy::Propagate;
        let CellState {
            bank,
            queues,
            faults,
            wake_gens,
            ..
        } = state;
        let row = bank.row_mut(slot);
        let queue = &mut queues[slot.as_usize()];
        let wake_gen = &mut wake_gens[slot.as_usize()];
        let fault_map = &mut faults[slot.as_usize()];
        let MethodRow {
            aspects,
            fast_eligible,
            ..
        } = row;
        let mut frees = false;
        for (concern, aspect) in aspects.iter_mut() {
            if contain && Self::is_quarantined(fault_map, concern) {
                continue;
            }
            let delivered = if contain {
                catch_unwind(AssertUnwindSafe(|| aspect.on_cancel(ctx)))
            } else {
                Ok(aspect.on_cancel(ctx))
            };
            frees |= delivered.as_ref().is_ok_and(|&f| f);
            if delivered.is_err() {
                let concern = concern.clone();
                self.note_panic(
                    fault_map,
                    queue,
                    wake_gen,
                    point,
                    lane,
                    fast_eligible,
                    method,
                    &concern,
                    ctx.invocation(),
                    stats,
                );
            }
        }
        frees
    }
}
