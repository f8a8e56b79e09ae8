//! # Aspect Moderator framework — core
//!
//! Rust implementation of the framework from *Composing Concerns with a
//! Framework Approach* (Constantinides & Elrad, ICDCS 2001): advanced
//! separation of concerns for concurrent systems **without** language
//! extensions or weaving. A concurrent object is composed from:
//!
//! * a sequential **functional component** (your type, unchanged),
//! * **aspects** ([`Aspect`]) — first-class objects holding one concern
//!   of one participating method, with a `precondition` returning
//!   [`Verdict::Resume`] / [`Verdict::Block`] / [`Verdict::Abort`] and a
//!   `postaction`,
//! * the **aspect bank** ([`AspectBank`]) — a two-dimensional registry
//!   *methods × concerns*,
//! * an **aspect factory** ([`AspectFactory`]) creating aspects on
//!   demand (Factory Method pattern),
//! * the **aspect moderator** ([`AspectModerator`]) — evaluates every
//!   registered aspect around each invocation, parking callers on
//!   per-method wait queues while constraints do not hold,
//! * a **component proxy** ([`Moderated`]) guarding participating
//!   methods with the pre-/post-activation protocol.
//!
//! # Quickstart
//!
//! A bounded counter whose "never above 2" constraint lives entirely in
//! an aspect:
//!
//! ```
//! use std::sync::Arc;
//! use amf_core::{AspectModerator, Concern, FnAspect, Moderated, MethodId, Verdict};
//!
//! let moderator = AspectModerator::shared();
//! let incr = moderator.declare_method(MethodId::new("incr"));
//!
//! moderator.register(
//!     &incr,
//!     Concern::synchronization(),
//!     Box::new(FnAspect::new("at-most-2").on_precondition({
//!         let mut granted = 0;
//!         move |_| { let v = Verdict::resume_if(granted < 2); if granted < 2 { granted += 1; } v }
//!     })),
//! ).unwrap();
//!
//! let counter = Moderated::new(0_u32, Arc::clone(&moderator));
//! assert!(counter.invoke(&incr, |c| *c += 1).is_ok());
//! assert!(counter.invoke(&incr, |c| *c += 1).is_ok());
//! // Third activation would block forever; use a timeout to observe it.
//! let r = counter.invoke_timeout(&incr, std::time::Duration::from_millis(10), |c| *c += 1);
//! assert!(r.unwrap_err().is_timeout());
//! assert_eq!(counter.with_component(|c| *c), 2);
//! ```
//!
//! See the `amf-ticketing` crate for the paper's trouble-ticketing
//! system and `amf-aspects` for a library of reusable concerns.

#![warn(missing_docs)]

pub mod aspect;
pub mod bank;
pub mod blueprint;
#[macro_use]
pub mod macros;
pub mod concern;
pub mod context;
pub mod error;
pub mod factory;
pub mod guide;
pub mod lease;
pub mod moderator;
pub mod proxy;
pub mod trace;
pub mod verdict;

pub use aspect::{Aspect, AspectCapabilities, FnAspect, NoopAspect, ReleaseCause};
pub use bank::{AspectBank, MethodIndex};
pub use blueprint::{Blueprint, BlueprintHandles};
pub use concern::{Concern, MethodId};
pub use context::{InvocationContext, Outcome, Principal};
pub use error::{AbortError, RegistrationError};
pub use factory::{AspectFactory, ChainedFactory, RegistryFactory};
pub use lease::{Delivery, LeaseAction, LeaseConfig, LeaseIn, LeaseLinkStats, LeaseMsg, LeaseOut};
pub use moderator::{
    AspectModerator, CellState, Coordination, FairnessPolicy, FirstPass, MethodHandle,
    ModeratorBuilder, ModeratorStats, OrderingPolicy, PanicPolicy, PendingActivation,
    RollbackPolicy, WaitHistogram, WakeMode, WAIT_BUCKETS,
};
pub use proxy::{ActivationGuard, Entry, Moderated, PendingEntry};
pub use trace::{FilterSink, MemoryTrace, TeeSink, TraceSink};
pub use verdict::{AbortReason, Verdict};
