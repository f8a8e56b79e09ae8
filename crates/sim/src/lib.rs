//! Deterministic simulation for the Aspect Moderator framework.
//!
//! The moderator's protocol code is engine-agnostic: every park and
//! wake flows through the [`GrantSource`]/[`Waiter`] seam, and every
//! deadline through its [`Clock`]. This crate plugs a *simulator* into
//! both seams:
//!
//! - [`SimRunner`] owns a cooperative token scheduler. Exactly one
//!   simulated thread runs at a time; a thread yields only by parking
//!   or finishing, and the next runnable thread is picked by a seeded
//!   RNG (record mode) or a previously recorded schedule (replay mode).
//! - [`SimEngine`] is the [`GrantSource`] to install via
//!   `ModeratorBuilder::engine`: its waitpoints park through the
//!   scheduler instead of an OS condvar.
//! - The runner's [`ManualClock`](amf_concurrency::ManualClock) —
//!   installed via `ModeratorBuilder::clock` — is virtual time: it
//!   advances only when nothing is runnable, jumping to the earliest
//!   parked deadline. Timed protocol waits (pre-activation timeouts)
//!   resolve instantly in wall time, in the order a real clock would
//!   impose. The protocol arms no other timer, so in a run with untimed
//!   waits the clock never moves and a lost wake shows as a deadlock.
//!
//! A run is a pure function of `(seed, spawn order, program)`. The
//! grant-order decision list in [`SimReport::schedule`] is the whole
//! interleaving; replaying it reproduces the run exactly — same grants,
//! same faults, same clock — which the `amf-sim` binary checks by
//! byte-comparing recorded and replayed [`RunRecord`] artifacts.
//! Deadlocks are detected, not hung on: when no thread is runnable and
//! no deadline is pending, the run stops with the parked set named in
//! [`SimReport::error`].
//!
//! This complements `amf-verify`'s exhaustive checker: the checker
//! enumerates every schedule of a *modeled* composition; the simulator
//! drives the *real* `AspectModerator` — actual protocol code, actual
//! aspects — down one seeded, replayable schedule.
//!
//! [`GrantSource`]: amf_concurrency::GrantSource
//! [`Waiter`]: amf_concurrency::Waiter
//! [`Clock`]: amf_concurrency::Clock

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod engine;
mod scenario;
mod scheduler;

pub use artifact::{ReplayHeader, RunRecord, TopologyRecord, TopologyReplayHeader};
pub use engine::SimEngine;
pub use scenario::{
    run_buffer_scenario, run_topology_scenario, silence_panic_hook, ScenarioParams, TopologyParams,
};
pub use scheduler::{SimReport, SimRunner};
