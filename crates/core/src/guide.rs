//! # Writing aspects: a field guide
//!
//! This module contains no code — it is the narrative documentation of
//! the framework's contracts, with compiled examples. Read it before
//! writing your first non-trivial aspect.
//!
//! ## 1. The execution model
//!
//! All aspect code runs **under the moderator's lock** (the Rust
//! rendering of the paper's `synchronized` moderator). Consequences:
//!
//! * Aspects keep plain fields; they never need their own `Mutex` for
//!   state touched only in `precondition`/`postaction`. (State shared
//!   with the *outside* — a handle your application reads — still needs
//!   one; see [`MemoryTrace`](crate::MemoryTrace)-style patterns.)
//! * Aspect code must be **fast and non-blocking**. Never sleep, never
//!   wait on another lock that can wait on a moderator, never call back
//!   into the same moderator (deadlock).
//! * Aspects of one moderator never run concurrently with each other.
//!
//! ## 2. The verdict protocol
//!
//! `precondition` returns one of three verdicts (the paper's
//! RESUME / BLOCKED / ABORT):
//!
//! * [`Verdict::Resume`](crate::Verdict::Resume) — the constraint holds.
//!   If you mutated state to *reserve* something, you are now committed
//!   to undoing it in [`on_release`](crate::Aspect::on_release) (see §4).
//! * [`Verdict::Block`](crate::Verdict::Block) — the constraint does not
//!   hold *yet*. The caller parks on the method's wait queue and the
//!   whole chain re-evaluates after any completion notifies that queue.
//!   **Blocking preconditions must be idempotent across re-evaluation**:
//!   you will be called again with the same context.
//! * [`Verdict::Abort`](crate::Verdict::Abort) — the constraint can
//!   never hold for this activation (bad credentials, exhausted quota).
//!   The caller gets an [`AbortError`](crate::AbortError) naming your
//!   concern.
//!
//! Rule of thumb: **block on state that other activations will change;
//! abort on properties of the request itself.**
//!
//! ## 3. Choosing state: aspect-local vs context
//!
//! Long-lived state (counters, budgets) lives in the aspect. Per-
//! invocation state (start times, leased resources, the resolved
//! principal) lives in the [`InvocationContext`](crate::InvocationContext)
//! as a typed attribute, where later phases and *other aspects* can see
//! it:
//!
//! ```
//! use amf_core::{Aspect, InvocationContext, Verdict};
//!
//! #[derive(Debug)]
//! struct SequenceStamp(u64);
//!
//! /// Stamps every activation with a sequence number at precondition
//! /// and checks it back out at postaction.
//! struct Stamper { next: u64 }
//!
//! impl Aspect for Stamper {
//!     fn precondition(&mut self, ctx: &mut InvocationContext) -> Verdict {
//!         self.next += 1;
//!         ctx.insert(SequenceStamp(self.next));
//!         Verdict::Resume
//!     }
//!     fn postaction(&mut self, ctx: &mut InvocationContext) {
//!         let stamp = ctx.remove::<SequenceStamp>().expect("stamped at pre");
//!         assert!(stamp.0 <= self.next);
//!     }
//! }
//! # let _ = Stamper { next: 0 };
//! ```
//!
//! ## 4. The reservation contract (read this twice)
//!
//! If your `precondition` mutates state when it resumes — takes a slot,
//! increments a usage counter, sets a busy flag — that mutation is a
//! **reservation**, and three things may happen to it:
//!
//! 1. The activation completes: your `postaction` runs. Decide there
//!    whether the reservation is *committed* (quota usage stays) or
//!    *returned* (a mutex flag clears).
//! 2. A **later aspect in the chain blocks or aborts** after you
//!    resumed: the moderator calls your
//!    [`on_release`](crate::Aspect::on_release). Undo the reservation
//!    exactly as if the precondition had never resumed. Skipping this
//!    is the composition anomaly measured in experiment E7 — the
//!    reservation leaks while the caller sleeps, starving every other
//!    user of the resource.
//! 3. A **blocked caller times out**: if you remember waiters across
//!    `Block` verdicts (admission queues do), clean up the enrollment
//!    in [`on_cancel`](crate::Aspect::on_cancel), and return `true` if
//!    the caller held a place the others queue behind, so the
//!    moderator wakes them.
//!
//! ```
//! use amf_core::{Aspect, InvocationContext, ReleaseCause, Verdict};
//!
//! /// A capacity-N reservation done right.
//! struct Slots { used: u32, capacity: u32 }
//!
//! impl Aspect for Slots {
//!     fn precondition(&mut self, _ctx: &mut InvocationContext) -> Verdict {
//!         if self.used < self.capacity {
//!             self.used += 1;          // reserve
//!             Verdict::Resume
//!         } else {
//!             Verdict::Block           // no reservation -> nothing to undo
//!         }
//!     }
//!     fn postaction(&mut self, _ctx: &mut InvocationContext) {
//!         self.used -= 1;              // return the slot on completion
//!     }
//!     fn on_release(&mut self, _ctx: &InvocationContext, _cause: ReleaseCause) {
//!         self.used -= 1;              // ... and on rollback
//!     }
//! }
//! # let _ = Slots { used: 0, capacity: 1 };
//! ```
//!
//! ## 5. Ordering: who wraps whom
//!
//! Under the default [`OrderingPolicy::Nested`](crate::OrderingPolicy::Nested),
//! **later-registered aspects wrap earlier ones**: their preconditions
//! run first and their postactions last (the paper's Figure 14 —
//! authentication, registered by the extension, wraps synchronization).
//! Practical order, innermost (register first) to outermost (register
//! last):
//!
//! 1. resource acquisition (leases, buffer slots),
//! 2. concurrency control,
//! 3. outcome observers (audit, metrics — they should see the real
//!    outcome and nothing vetoed later),
//! 4. request-rejecting guards (quota, throttle),
//! 5. identity (authentication) — outermost, so *nothing* runs for
//!    unauthenticated calls.
//!
//! ## 6. Blocking and waking
//!
//! A parked caller re-evaluates only when some completion **notifies
//! its method's queue**. The default wake graph notifies every queue —
//! always correct, `O(methods)` per completion (experiment E4). Wire it
//! down with [`AspectModerator::wire_wakes`](crate::AspectModerator::wire_wakes)
//! once you know who unblocks whom — and let `amf-verify` check the
//! wiring: a queue nobody notifies is a lost-wakeup deadlock the model
//! checker finds mechanically.
//!
//! ## 7. Testing aspects
//!
//! Aspects are plain objects — unit-test them without any moderator by
//! driving `precondition`/`postaction` with a hand-built context:
//!
//! ```
//! use amf_core::{Aspect, InvocationContext, MethodId, NoopAspect, Verdict};
//!
//! let mut aspect = NoopAspect;
//! let mut ctx = InvocationContext::new(MethodId::new("op"), 1);
//! assert_eq!(aspect.precondition(&mut ctx), Verdict::Resume);
//! ```
//!
//! For concurrency behavior, use a real moderator and the
//! [`MemoryTrace`](crate::MemoryTrace) sink to assert protocol order;
//! for exhaustive guarantees, write a pure-state model of the aspect
//! and hand it to `amf-verify`.
