//! Coordination cells and the method registry.
//!
//! Each declared method owns a *cell* — a mutex guarding its aspect
//! chain, wake wiring, FIFO queue and fault bookkeeping — plus a
//! [`Waiter`] waitpoint supplied by the moderator's [`GrantSource`]
//! engine and a shard of atomic counters. Under
//! [`Coordination::GlobalLock`](super::Coordination::GlobalLock) every
//! method shares one cell. Lock ordering is `registry → at most one
//! cell` (see the module docs in [`super`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amf_concurrency::{TicketQueue, Waiter};
use parking_lot::Mutex;

use super::fault::SlotFault;
use super::queue::{refresh_lane, wake_queue, WakeTargets};
use super::stats::StatShard;
use super::{AspectModerator, Coordination, FairnessPolicy, WakeMode};
use crate::aspect::Aspect;
use crate::bank::{AspectBank, MethodIndex};
use crate::concern::{Concern, MethodId};
use crate::error::RegistrationError;
use crate::factory::AspectFactory;
use crate::trace::EventKind;

/// Handle to a declared participating method; obtained from
/// [`AspectModerator::declare_method`] and used for all per-method
/// operations.
///
/// Handles are cheap to clone and are only valid on the moderator that
/// issued them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MethodHandle {
    pub(crate) index: MethodIndex,
    pub(crate) id: MethodId,
}

impl MethodHandle {
    /// The method's identifier.
    pub fn id(&self) -> &MethodId {
        &self.id
    }

    /// The method's dense index in the issuing moderator's registry.
    pub fn index(&self) -> MethodIndex {
        self.index
    }
}

impl fmt::Display for MethodHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id.as_str())
    }
}

/// Outcome of a fast-lane admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FastAdmit {
    /// Admitted: the activation count was raised by a successful CAS
    /// while the lane was open. The invocation owes a matching
    /// [`FastLane::release`].
    Admitted,
    /// The lane is closed (ineligible row, waiters pending, quarantine,
    /// or wake wiring); take the locked path. The normal state for
    /// every method that never declared a capability contract, so this
    /// is *not* counted as a fallback.
    Closed,
    /// The lane was open but the CAS lost every retry to concurrent
    /// admissions or a concurrent close; take the locked path and count
    /// a `fast_path_fallbacks`.
    Contended,
}

/// Bounded CAS retries before an open-lane admission gives up and falls
/// back to the locked path (counted in `fast_path_fallbacks`).
const ADMIT_ATTEMPTS: u32 = 8;

/// The per-method fast-lane word: one atomic `u64` packing the
/// fast-path activation count, the lane's open/closed bit and a close
/// epoch. The uncontended hot path admits and releases with a single
/// atomic RMW on this word instead of two cell-lock round trips.
///
/// # Packed layout
///
/// | bits    | field  | meaning |
/// |---------|--------|---------|
/// | 0..=31  | ACTIVE | in-flight fast-lane activations (admit = `+1`, release = `-1`) |
/// | 32      | OPEN   | 1 ⇒ CAS admission allowed; all transitions happen under the cell lock |
/// | 33..=63 | EPOCH  | close generation, bumped on every open→closed transition (wraps) |
///
/// Because the *whole admission predicate* is encoded in the word, a
/// successful `compare_exchange` proves the lane was open at the
/// instant of admission — there is no check-then-act window. The EPOCH
/// field makes the open bit immune to ABA across a close/reopen pair
/// (the word cannot repeat until 2³¹ closes), so a stale snapshot can
/// never be confirmed by a CAS.
///
/// # Memory-ordering table
///
/// Everything here is `Acquire`/`Release`; the moderator's CI gate
/// forbids the `Relaxed` ordering in this module tree outside the stats
/// shard. The pairings:
///
/// | access | ordering | why |
/// |--------|----------|-----|
/// | [`try_admit`](Self::try_admit) load + CAS | `Acquire` / `AcqRel` | the Acquire pairs with [`open`](Self::open)'s Release so an admitted thread sees every write (bank reweave, queue drain) that preceded the lane opening; the Release half publishes the raised count to the next closer |
/// | [`release`](Self::release) `fetch_sub` | `Release` | orders the invocation's body before the departure becomes visible to any observer of the in-flight count |
/// | [`close`](Self::close) / [`open`](Self::open) `fetch_update` | `AcqRel` / `Acquire` | run under the cell lock; Release publishes the new lane state to lock-free admitters, Acquire observes the latest in-flight count |
/// | observer loads (`snapshot`, tests only) | `Acquire` | observer-side pairing with all of the above |
pub(super) struct FastLane {
    word: AtomicU64,
}

const LANE_OPEN: u64 = 1 << 32;
const LANE_ACTIVE_MASK: u64 = LANE_OPEN - 1;
const LANE_EPOCH_SHIFT: u32 = 33;

impl FastLane {
    /// A new lane starts closed; `refresh_lane` opens it once the row's
    /// contract, wiring and queues allow.
    pub(super) fn new() -> Self {
        Self {
            word: AtomicU64::new(0),
        }
    }

    /// Attempts a single-CAS admission. See [`FastAdmit`].
    pub(super) fn try_admit(&self) -> FastAdmit {
        let mut w = self.word.load(Ordering::Acquire);
        for _ in 0..ADMIT_ATTEMPTS {
            if w & LANE_OPEN == 0 {
                return FastAdmit::Closed;
            }
            match self
                .word
                .compare_exchange_weak(w, w + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return FastAdmit::Admitted,
                Err(cur) => w = cur,
            }
        }
        FastAdmit::Contended
    }

    /// Departs a fast-admitted activation. Touches only the ACTIVE
    /// field, so it is correct whether or not the lane has closed since
    /// the admission.
    pub(super) fn release(&self) {
        let prev = self.word.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & LANE_ACTIVE_MASK > 0, "fast-lane release underflow");
    }

    /// Closes the lane (idempotent), bumping the epoch on an actual
    /// open→closed transition. Caller holds the cell lock.
    pub(super) fn close(&self) {
        let _ = self
            .word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (w & LANE_OPEN != 0).then(|| (w & !LANE_OPEN).wrapping_add(1 << LANE_EPOCH_SHIFT))
            });
    }

    /// Opens the lane (idempotent). Caller holds the cell lock and has
    /// verified the full predicate (eligible row, empty queue, nobody
    /// parked, no quarantine, empty wake wiring).
    pub(super) fn open(&self) {
        let _ = self
            .word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (w & LANE_OPEN == 0).then_some(w | LANE_OPEN)
            });
    }

    /// `(open, in-flight, epoch)` — for assertions and diagnostics.
    #[cfg(test)]
    pub(super) fn snapshot(&self) -> (bool, u64, u64) {
        let w = self.word.load(Ordering::Acquire);
        (
            w & LANE_OPEN != 0,
            w & LANE_ACTIVE_MASK,
            w >> LANE_EPOCH_SHIFT,
        )
    }

    /// In-flight fast-lane activations.
    #[cfg(test)]
    pub(super) fn in_flight(&self) -> u64 {
        self.word.load(Ordering::Acquire) & LANE_ACTIVE_MASK
    }
}

/// The mutable coordination state of one cell: the aspect rows (an
/// [`AspectBank`] with one row per hosted method — exactly one under
/// [`Coordination::Sharded`]) and each hosted method's wake wiring.
pub struct CellState {
    pub(super) bank: AspectBank,
    /// Wake targets per local bank row, parallel to the bank's rows.
    pub(super) wakes: Vec<WakeTargets>,
    /// Ticketed FIFO wait state per local bank row, parallel to the
    /// bank's rows (the workspace-shared discipline from
    /// `amf-concurrency`). Unused (never enqueued into) under
    /// [`FairnessPolicy::Barging`].
    pub(super) queues: Vec<TicketQueue>,
    /// Per-slot panic bookkeeping, keyed by concern, parallel to the
    /// bank's rows. Empty under
    /// [`PanicPolicy::Propagate`](super::PanicPolicy::Propagate).
    pub(super) faults: Vec<HashMap<Concern, SlotFault>>,
    /// Callers parked on each row's waitpoint *outside* the ticket
    /// queue (the barging discipline parks without enqueueing), parallel
    /// to the bank's rows. Together with `queues[slot].has_pending()`
    /// this is the "no waiters" half of the fast-lane predicate.
    pub(super) parked: Vec<u32>,
    /// Wake generation per local bank row, parallel to the bank's
    /// rows: bumped by a pulse of the row's waitpoint while a barging
    /// caller of the row is blocked (see [`CellState::note_wake`]).
    pub(super) wake_gens: Vec<u64>,
}

impl CellState {
    /// Records a pulse of `slot`'s waitpoint under
    /// [`FairnessPolicy::Barging`], where a wake is spent on whoever is
    /// parked at that instant. A split pre-activation releases the cell
    /// lock between its first pass and its continuation; it compares
    /// the generation it saw with the current one when it re-takes the
    /// lock, and a difference means a wake landed in that gap, so it
    /// re-evaluates instead of parking. Such a caller is counted in
    /// `parked` from its first blocked pass, so a pulse with nobody
    /// blocked leaves the generation — and its cache line — alone.
    /// Under Fifo a wake persists as a queue permit instead.
    pub(super) fn note_wake(&mut self, slot: MethodIndex) {
        let ix = slot.as_usize();
        if self.parked[ix] > 0 {
            self.wake_gens[ix] += 1;
        }
    }
}

/// One coordination cell: the lock guarding a method's chain, wake
/// wiring and blocked callers. Under [`Coordination::GlobalLock`] a
/// single cell hosts every method.
pub(super) struct Cell {
    pub(super) state: Mutex<CellState>,
}

impl Cell {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(CellState {
                bank: AspectBank::new(),
                wakes: Vec::new(),
                queues: Vec::new(),
                faults: Vec::new(),
                parked: Vec::new(),
                wake_gens: Vec::new(),
            }),
        })
    }
}

/// Registry entry for one declared method: which cell hosts it, at which
/// local row, plus its waitpoint and stats shard.
pub(super) struct MethodEntry {
    pub(super) id: MethodId,
    pub(super) cell: Arc<Cell>,
    /// The method's row index inside its cell's bank.
    pub(super) slot: MethodIndex,
    /// Where this method's callers park; engine-supplied, so the
    /// protocol never names a concrete parking primitive.
    pub(super) point: Arc<dyn Waiter<CellState>>,
    pub(super) stats: Arc<StatShard>,
    /// The method's fast-lane word, read lock-free by the hot path.
    pub(super) lane: Arc<FastLane>,
}

/// The read-mostly method registry. Write-locked only by
/// `declare_method`; locked-path operations read-lock it briefly to
/// clone the `Arc`s out and then operate on the cell alone, while the
/// fast lane admits and releases entirely under the read guard
/// (`admit_fast` in `protocol.rs`) without touching a reference count.
#[derive(Default)]
pub(super) struct Registry {
    pub(super) entries: Vec<MethodEntry>,
    pub(super) by_id: HashMap<MethodId, usize>,
    /// The one shared cell under [`Coordination::GlobalLock`].
    shared_cell: Option<Arc<Cell>>,
}

impl Registry {
    pub(super) fn check(&self, method: &MethodHandle) {
        assert!(
            self.entries
                .get(method.index.as_usize())
                .is_some_and(|e| e.id == method.id),
            "method handle `{}` does not belong to this moderator",
            method.id
        );
    }
}

/// A method's coordination handles, cloned out of the registry so the
/// hot path drops the registry read lock before touching the cell.
pub(super) struct Resolved {
    pub(super) cell: Arc<Cell>,
    pub(super) slot: MethodIndex,
    pub(super) point: Arc<dyn Waiter<CellState>>,
    pub(super) stats: Arc<StatShard>,
    pub(super) lane: Arc<FastLane>,
}

impl AspectModerator {
    /// Clones a method's coordination handles out of the registry.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this moderator.
    pub(super) fn resolve(&self, method: &MethodHandle) -> Resolved {
        let registry = self.registry.read();
        registry.check(method);
        let entry = &registry.entries[method.index.as_usize()];
        Resolved {
            cell: Arc::clone(&entry.cell),
            slot: entry.slot,
            point: Arc::clone(&entry.point),
            stats: Arc::clone(&entry.stats),
            lane: Arc::clone(&entry.lane),
        }
    }

    /// Declares a participating method; idempotent.
    pub fn declare_method(&self, id: MethodId) -> MethodHandle {
        let mut registry = self.registry.write();
        if let Some(&ix) = registry.by_id.get(&id) {
            return MethodHandle {
                index: MethodIndex(ix),
                id,
            };
        }
        let cell = match self.coordination {
            Coordination::Sharded => Cell::new(),
            Coordination::GlobalLock => {
                if registry.shared_cell.is_none() {
                    registry.shared_cell = Some(Cell::new());
                }
                Arc::clone(registry.shared_cell.as_ref().expect("just seeded"))
            }
        };
        let slot = {
            let mut state = cell.state.lock();
            let slot = state.bank.declare(id.clone());
            if state.wakes.len() < state.bank.method_count() {
                // The default broadcast wiring keeps the new method's
                // fast lane closed (`FastLane::new` starts closed): a
                // method whose completion may wake other queues cannot
                // skip its post-activation notify. `wire_wakes(m, &[])`
                // plus an all-capable chain opens it.
                state.wakes.push(WakeTargets::All);
                state.queues.push(TicketQueue::new(self.grant_batching));
                state.faults.push(HashMap::new());
                state.parked.push(0);
                state.wake_gens.push(0);
            }
            slot
        };
        let ix = registry.entries.len();
        registry.by_id.insert(id.clone(), ix);
        registry.entries.push(MethodEntry {
            id: id.clone(),
            cell,
            slot,
            point: self.engine.waiter(),
            stats: Arc::new(StatShard::default()),
            lane: Arc::new(FastLane::new()),
        });
        MethodHandle {
            index: MethodIndex(ix),
            id,
        }
    }

    /// Looks up the handle of an already-declared method.
    pub fn method(&self, id: &MethodId) -> Option<MethodHandle> {
        let registry = self.registry.read();
        registry.by_id.get(id).map(|&ix| MethodHandle {
            index: MethodIndex(ix),
            id: id.clone(),
        })
    }

    /// Declared method identifiers, in declaration order.
    pub fn methods(&self) -> Vec<MethodId> {
        self.registry
            .read()
            .entries
            .iter()
            .map(|e| e.id.clone())
            .collect()
    }

    /// Stores an aspect in the (method, concern) cell — the paper's
    /// `registerAspect`.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::DuplicateConcern`] if the cell is occupied.
    pub fn register(
        &self,
        method: &MethodHandle,
        concern: Concern,
        aspect: Box<dyn Aspect>,
    ) -> Result<(), RegistrationError> {
        let r = self.resolve(method);
        {
            let mut state = r.cell.state.lock();
            state.bank.register(r.slot, concern.clone(), aspect)?;
            refresh_lane(&state, &r.lane, r.slot);
        }
        self.emit(0, &method.id, Some(concern), EventKind::AspectRegistered);
        Ok(())
    }

    /// Asks `factory` to create the aspect for (method, concern) and
    /// registers it — the paper's initialization idiom
    /// `moderator.registerAspect(open, SYNC, factory.create(open, SYNC))`.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::FactoryRefused`] if the factory returns no
    /// aspect, or [`RegistrationError::DuplicateConcern`] if the cell is
    /// occupied.
    pub fn register_from(
        &self,
        factory: &dyn AspectFactory,
        method: &MethodHandle,
        concern: Concern,
    ) -> Result<(), RegistrationError> {
        let aspect = factory.create(&method.id, &concern).ok_or_else(|| {
            RegistrationError::FactoryRefused {
                method: method.id.clone(),
                concern: concern.clone(),
            }
        })?;
        self.emit(
            0,
            &method.id,
            Some(concern.clone()),
            EventKind::AspectCreated,
        );
        self.register(method, concern, aspect)
    }

    /// Removes and returns the aspect in the (method, concern) cell,
    /// waking all of the method's waiters so they re-evaluate against the
    /// shortened chain.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::UnknownConcern`] if the cell is empty.
    pub fn deregister(
        &self,
        method: &MethodHandle,
        concern: &Concern,
    ) -> Result<Box<dyn Aspect>, RegistrationError> {
        let r = self.resolve(method);
        let aspect = {
            let mut state = r.cell.state.lock();
            let aspect = state.bank.deregister(r.slot, concern)?;
            // Notify while holding the cell lock: a waiter either is
            // already parked (woken now) or still holds the lock and
            // will re-evaluate against the shortened chain anyway.
            // Under Fifo every ticketed waiter must get a turn against
            // the shortened chain, in order — a full sweep.
            if self.fairness == FairnessPolicy::Fifo {
                wake_queue(&mut state.queues[r.slot.as_usize()], WakeMode::NotifyAll);
            }
            state.note_wake(r.slot);
            r.point.wake_all();
            refresh_lane(&state, &r.lane, r.slot);
            aspect
        };
        self.emit(
            0,
            &method.id,
            Some(concern.clone()),
            EventKind::AspectDeregistered,
        );
        Ok(aspect)
    }

    /// The concerns registered for a method, in registration order.
    pub fn concerns(&self, method: &MethodHandle) -> Vec<Concern> {
        let r = self.resolve(method);
        let state = r.cell.state.lock();
        state.bank.concerns(r.slot)
    }

    /// Restricts which wait queues `method`'s post-activation notifies
    /// (default: all queues). The paper wires `open` → `assign`'s queue
    /// and vice versa.
    ///
    /// The method's *own* queue is always signalled after its
    /// postactions run, independent of this wiring (module docs:
    /// self-wake) — wiring governs cross-method notifications only.
    pub fn wire_wakes(&self, method: &MethodHandle, targets: &[MethodHandle]) {
        {
            let registry = self.registry.read();
            registry.check(method);
            for t in targets {
                registry.check(t);
            }
        }
        let r = self.resolve(method);
        let mut state = r.cell.state.lock();
        state.wakes[r.slot.as_usize()] =
            WakeTargets::Wired(targets.iter().map(|t| t.index).collect());
        refresh_lane(&state, &r.lane, r.slot);
    }

    /// Runs `f` with mutable access to the aspect registered under
    /// (method, concern), under the method's cell lock. Administrative
    /// escape hatch for inspecting or adjusting aspect state.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::UnknownConcern`] if the cell is empty.
    pub fn with_aspect<R>(
        &self,
        method: &MethodHandle,
        concern: &Concern,
        f: impl FnOnce(&mut dyn Aspect) -> R,
    ) -> Result<R, RegistrationError> {
        let r = self.resolve(method);
        let mut state = r.cell.state.lock();
        let out = match state.bank.aspect_mut(r.slot, concern) {
            Some(aspect) => Ok(f(aspect)),
            None => Err(RegistrationError::UnknownConcern {
                method: method.id.clone(),
                concern: concern.clone(),
            }),
        };
        if out.is_ok() {
            // `f` may have changed the aspect's declared contract.
            state.bank.recompute_fast_eligibility(r.slot);
            refresh_lane(&state, &r.lane, r.slot);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::{FastAdmit, FastLane};

    #[test]
    fn lane_starts_closed_and_admits_only_while_open() {
        let lane = FastLane::new();
        assert_eq!(lane.snapshot(), (false, 0, 0));
        assert!(matches!(lane.try_admit(), FastAdmit::Closed));
        lane.open();
        assert!(matches!(lane.try_admit(), FastAdmit::Admitted));
        assert!(matches!(lane.try_admit(), FastAdmit::Admitted));
        assert_eq!(lane.in_flight(), 2);
        lane.release();
        lane.release();
        assert_eq!(lane.snapshot(), (true, 0, 0));
    }

    #[test]
    fn close_bumps_the_epoch_only_on_a_real_transition() {
        let lane = FastLane::new();
        lane.close(); // already closed: no transition, no bump
        assert_eq!(lane.snapshot(), (false, 0, 0));
        lane.open();
        lane.open(); // idempotent
        lane.close();
        assert_eq!(lane.snapshot(), (false, 0, 1));
        lane.open();
        lane.close();
        assert_eq!(lane.snapshot(), (false, 0, 2), "one bump per open→closed");
    }

    #[test]
    fn release_is_valid_after_the_lane_closes() {
        let lane = FastLane::new();
        lane.open();
        assert!(matches!(lane.try_admit(), FastAdmit::Admitted));
        lane.close();
        assert_eq!(lane.snapshot(), (false, 1, 1));
        lane.release(); // touches only the ACTIVE field
        assert_eq!(lane.snapshot(), (false, 0, 1));
        assert!(matches!(lane.try_admit(), FastAdmit::Closed));
    }
}
