//! Networked front for the Aspect Moderator ticket server.
//!
//! The paper composes concerns around *in-process* method activations;
//! this crate puts that composition on the wire. A small TCP server
//! accepts length-prefixed binary frames ([`codec`]), and every remote
//! `open`/`assign` runs the full pre-/post-activation protocol of the
//! moderated proxy — authentication, per-principal quotas, optional
//! global throttling, metrics and protocol traces are all *aspects*
//! registered with the moderator, not code in the request handlers
//! ([`server`]). A blocking client and a multi-threaded load generator
//! ([`client`]) complete the loop.
//!
//! ```
//! use amf_service::{ServiceClient, ServiceConfig, TicketService};
//! use amf_ticketing::Severity;
//!
//! let handle = TicketService::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
//! handle.authenticator().add_user("ops", "secret");
//! let token = handle.authenticator().login("ops", "secret").unwrap();
//!
//! let mut client = ServiceClient::connect(handle.addr()).unwrap();
//! client.open(token, 1, Severity::High, "router down").unwrap();
//! assert_eq!(client.assign(token).unwrap().id.0, 1);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod frame;
pub mod peer;
pub mod reactor;
pub mod server;

pub use client::{run_load, ClientError, LoadConfig, LoadOutcome, ServiceClient};
pub use codec::{
    DecodeError, PeerFrame, PeerWire, Request, Response, WireStats, MAX_FRAME, STATS_FIELDS,
};
pub use frame::{FrameDecoder, FrameEncoder, FramePartial};
pub use peer::{FaultProxy, FaultProxyConfig, FaultProxyStats, PeerConfig, PeerNode, PeerStats};
pub use server::{ServiceConfig, ServiceError, ServiceHandle, TicketService};
