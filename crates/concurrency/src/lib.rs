//! Concurrency substrate for the Aspect Moderator framework.
//!
//! The ICDCS 2001 paper assumes the Java concurrency model: every object is
//! a monitor with `synchronized` blocks, `wait()` and `notify()`. In this
//! workspace the moderator's coordination cells play the monitor, and this
//! crate supplies what they park and queue on: the [`Waiter`] seam with its
//! two engines (OS-thread [`CondvarEngine`] and task-parking
//! [`TaskEngine`]), the ticketed FIFO discipline ([`TicketQueue`]), plus the
//! sequential building blocks the aspect library and the benchmark harness
//! need (ring buffer, resource pool, schedulers, rate limiters, clocks).
//!
//! Nothing in this crate knows about aspects; it is the layer *below* the
//! framework, usable on its own.
//!
//! # Quick tour
//!
//! ```
//! use amf_concurrency::{Grant, RingBuffer, TicketQueue};
//!
//! // A plain ring buffer (synchronization supplied externally, e.g. by
//! // synchronization aspects).
//! let mut rb = RingBuffer::with_capacity(4);
//! rb.push_back("ticket").unwrap();
//! assert_eq!(rb.pop_front(), Some("ticket"));
//!
//! // Ticketed FIFO wait state: a broadcast serves waiters in park order.
//! let mut q = TicketQueue::new(false);
//! let first = q.enqueue();
//! let second = q.enqueue();
//! q.wake_all();
//! assert_eq!(q.grant_for(second), None);
//! assert_eq!(q.grant_for(first), Some(Grant::Sweep));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod engine;
pub mod pool;
pub mod rate;
pub mod ring;
pub mod scheduler;
pub mod task;
pub mod ticket;

pub use clock::{Clock, ManualClock, SystemClock};
pub use engine::{CondvarEngine, CondvarWaiter, GrantSource, Waiter};
pub use pool::ResourcePool;
pub use rate::{RateLimiter, RateLimiterConfig};
pub use ring::{RingBuffer, RingFullError};
pub use scheduler::{Scheduler, SchedulerPolicy};
pub use task::TaskEngine;
pub use ticket::{Grant, TicketQueue};
