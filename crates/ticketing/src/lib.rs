//! # Trouble-ticketing on the Aspect Moderator framework
//!
//! The running example of *Composing Concerns with a Framework
//! Approach* (ICDCS 2001): clients **open** tickets on a server and
//! agents **assign** (retrieve) them — a producer/consumer protocol over
//! a bounded buffer, with every interaction concern factored out into
//! aspects.
//!
//! * [`TicketServer`] — the *sequential* functional component (paper
//!   Figure 7's counters, zero synchronization).
//! * [`TicketServerProxy`] — the component proxy (Figures 5 and 10):
//!   synchronization aspects created by [`TicketSyncFactory`]
//!   (Figure 6) and registered with the moderator.
//! * [`ExtendedTicketServerProxy`] — the adaptability showcase
//!   (Figures 13–18): authentication layered on a live system without
//!   touching the functional code.
//!
//! ```
//! use amf_core::AspectModerator;
//! use amf_ticketing::{Ticket, TicketServerProxy};
//!
//! let proxy = TicketServerProxy::new(8, AspectModerator::shared()).unwrap();
//! proxy.open(Ticket::new(1, "cannot print")).unwrap();
//! let assigned = proxy.assign().unwrap();
//! assert_eq!(assigned.summary, "cannot print");
//! ```

#![warn(missing_docs)]

pub mod extended;
pub mod factory;
pub mod proxy;
pub mod server;
pub mod ticket;

pub use extended::{Attempt, ExtendedTicketServerProxy, PendingTicketOp};
pub use factory::{TicketAuthFactory, TicketSyncFactory, ASSIGN, OPEN};
pub use proxy::TicketServerProxy;
pub use server::{ServerError, TicketServer};
pub use ticket::{Severity, Ticket, TicketId};
