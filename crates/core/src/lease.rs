//! Fault-tolerant lease handoff: the recovery state machine shared by the
//! simulator, the model checker, and the live wire service.
//!
//! A *lease* is the moderation token that circulates around a topology ring
//! (see `amf-sim`'s topology scenario and `amf-service`'s peer layer). On a
//! real network a handoff frame can be **dropped**, **delayed**, or
//! **duplicated**, and the holder of a lease can crash outright. This module
//! implements one transport-agnostic state machine that survives all four,
//! split into the two halves of a directed link:
//!
//! * [`LeaseOut`] — the sender half. Assigns a per-link monotonic sequence
//!   number to every handoff, retransmits unacknowledged frames with capped
//!   exponential backoff plus seeded jitter, and — once a handoff's expiry
//!   deadline passes with no acknowledgement in sight — **reclaims** the
//!   lease for local (degraded) use, leaving a [`LeaseMsg::Release`] hole
//!   filler so the receiver's cursor can advance past the reclaimed slot.
//! * [`LeaseIn`] — the receiver half. Maintains a delivery *cursor* (the
//!   next expected sequence number), buffers out-of-order arrivals, drops
//!   duplicates idempotently, and fences stale re-grants with per-lease
//!   monotonic hop counters. Every frame — fresh, buffered, or duplicate —
//!   is answered with a cumulative [`LeaseMsg::Ack`].
//!
//! Process crashes are handled at connection boundaries: every fresh
//! connection is greeted with an unsolicited cumulative ack
//! (`seq == u64::MAX`), and [`LeaseOut::on_greeting`] re-syncs the sender
//! onto the peer's cursor — fast-forwarding past a consumed prefix, or
//! rebasing (renumbering surviving grants, dropping stale hole fillers)
//! when the receiver provably restarted from scratch.
//!
//! All timestamps are plain [`Duration`]s since an arbitrary epoch so the
//! machine runs identically under a virtual clock (simulation) and the wall
//! clock (live service). The machine performs no I/O: callers feed it
//! messages and `now`, and it returns messages to put on the wire plus
//! leases to deliver or reclaim.
//!
//! # Safety argument (and its honest limits)
//!
//! Exactly-once transfer over a lossy asynchronous link is impossible (the
//! Two Generals problem), so the machine is sound under a declared fault
//! model: *grant* frames may be dropped, delayed, or duplicated; *ack*
//! frames may be delayed but are not silently dropped while the connection
//! lives (they ride the TCP return path; the fault proxy injects faults on
//! the grant plane). Under that model, [`LeaseOut::poll`] only reclaims a
//! handoff after (a) its deadline passed and (b) the caller has drained
//! every readable ack — so an ack for the handoff cannot exist. Per-lease
//! hop fencing in [`LeaseIn`] remains as defense in depth: even if an
//! operator misconfigures the expiry below the true round-trip time, a
//! receiver refuses any grant whose hop counter does not advance the
//! lease's history, converting a would-be double grant into a counted
//! `stale_dropped` and a cursor advance.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

/// Configuration for one directed lease link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseConfig {
    /// How long a handoff may remain unacknowledged before the sender
    /// reclaims the lease. `Duration::ZERO` disables expiry and
    /// retransmission entirely: [`LeaseOut::grant`] keeps nothing pending
    /// and [`LeaseOut::poll`] returns nothing, so a dropped frame starves
    /// the receiver's cursor. The simulator's topology ring runs this as
    /// the ablation the recovery protocol is measured against.
    pub expiry: Duration,
    /// First retransmission delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the retransmission delay.
    pub backoff_cap: Duration,
    /// Seed for the deterministic retransmission jitter.
    pub jitter_seed: u64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            expiry: Duration::from_millis(500),
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(160),
            jitter_seed: 0x5EED,
        }
    }
}

impl LeaseConfig {
    /// True when expiry (and with it retransmission/reclaim) is enabled.
    pub fn recovery_enabled(&self) -> bool {
        !self.expiry.is_zero()
    }
}

/// A lease handoff message. The service codec gives each variant a wire
/// opcode; the simulator routes the same structs through its fault channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseMsg {
    /// Hand a lease to the peer. `seq` is per-link monotonic, `hop` is
    /// per-lease monotonic (total handoffs this lease has survived).
    Grant {
        /// Per-link monotonic sequence number (dedup + ack key).
        seq: u64,
        /// Lease identity.
        lease: u64,
        /// Per-lease monotonic hop counter (fencing key).
        hop: u64,
        /// Moderated entries remaining before the lease retires.
        visits: u64,
    },
    /// Cumulative acknowledgement: `seq` names the frame being answered,
    /// `cursor` is the receiver's next expected sequence number (everything
    /// below it was delivered or released).
    Ack {
        /// Sequence number of the frame this ack answers.
        seq: u64,
        /// Receiver's next expected sequence number.
        cursor: u64,
    },
    /// The sender reclaimed the handoff at `seq`; the receiver must advance
    /// its cursor past the hole without delivering anything.
    Release {
        /// Sequence number of the reclaimed handoff.
        seq: u64,
    },
}

impl LeaseMsg {
    /// The sequence number this message is keyed on.
    pub fn seq(&self) -> u64 {
        match *self {
            LeaseMsg::Grant { seq, .. } | LeaseMsg::Ack { seq, .. } | LeaseMsg::Release { seq } => {
                seq
            }
        }
    }
}

/// What [`LeaseOut::poll`] wants done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseAction {
    /// Put this frame (back) on the wire.
    Send(LeaseMsg),
    /// The handoff expired unacknowledged: the lease is yours again. Feed
    /// it to the local moderator as a degraded entry.
    Reclaim {
        /// Lease identity.
        lease: u64,
        /// Hop counter the reclaimed lease will carry on its next handoff.
        hop: u64,
        /// Remaining visits.
        visits: u64,
    },
}

#[derive(Debug, Clone)]
struct Pending {
    msg: LeaseMsg,
    first_sent: Duration,
    next_retry: Duration,
    attempts: u32,
    /// The receiver direct-acked this frame while its cumulative cursor
    /// was still below it: the frame sits in the receiver's volatile
    /// reorder buffer, undelivered. Retransmission and expiry are
    /// suppressed (the frame provably arrived), but the frame is *not*
    /// complete — if the receiver crashes, the buffer dies with it and
    /// this grant must still be eligible for the greeting resend.
    /// Cleared on every fresh greeting.
    received: bool,
}

/// Counters exported by both halves; mirrored into `PeerStats` and the
/// simulator's topology artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseLinkStats {
    /// Frames retransmitted after a backoff deadline.
    pub retransmits: u64,
    /// Handoffs reclaimed after expiry.
    pub reclaimed: u64,
    /// Duplicate frames dropped idempotently by the receiver.
    pub dup_dropped: u64,
    /// Grants refused by per-lease hop fencing.
    pub stale_dropped: u64,
}

/// Newest ack-latency samples kept per link — enough for a stable p99
/// without unbounded growth on a long-lived node.
const LATENCY_WINDOW: usize = 65_536;

/// Sender half of a lease link.
#[derive(Debug)]
pub struct LeaseOut {
    cfg: LeaseConfig,
    next_seq: u64,
    /// Unacknowledged grants and releases, by sequence number.
    pending: BTreeMap<u64, Pending>,
    degraded: bool,
    stats: LeaseLinkStats,
    /// First-send → ack-complete latency of acknowledged grants, the
    /// recovery-time distribution (newest [`LATENCY_WINDOW`] samples).
    ack_latencies: VecDeque<Duration>,
    /// Incarnation id the peer declared in its last greeting; `None`
    /// until first contact. A greeting carrying a *different* id is
    /// proof of a receiver restart, however intact the cursor looks.
    peer_incarnation: Option<u64>,
}

impl LeaseOut {
    /// New sender half with `cfg`.
    pub fn new(cfg: LeaseConfig) -> Self {
        LeaseOut {
            cfg,
            next_seq: 0,
            pending: BTreeMap::new(),
            degraded: false,
            stats: LeaseLinkStats::default(),
            ack_latencies: VecDeque::new(),
            peer_incarnation: None,
        }
    }

    /// Link statistics so far.
    pub fn stats(&self) -> LeaseLinkStats {
        self.stats
    }

    /// True while at least one reclaim happened with no ack since: the node
    /// is moderating locally without its peer.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Number of unacknowledged frames.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Register a handoff and return the grant frame to put on the wire.
    pub fn grant(&mut self, lease: u64, hop: u64, visits: u64, now: Duration) -> LeaseMsg {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = LeaseMsg::Grant {
            seq,
            lease,
            hop,
            visits,
        };
        if self.cfg.recovery_enabled() {
            self.pending.insert(
                seq,
                Pending {
                    msg,
                    first_sent: now,
                    next_retry: now + self.backoff(seq, 0),
                    attempts: 0,
                    received: false,
                },
            );
        }
        msg
    }

    /// First-send → ack-complete latencies of acknowledged grants, in
    /// completion order (the newest `LATENCY_WINDOW` samples). This is the
    /// handoff recovery-time distribution: a retransmitted or delayed grant
    /// shows up as a long sample.
    pub fn ack_latencies(&self) -> &VecDeque<Duration> {
        &self.ack_latencies
    }

    fn complete(&mut self, seq: u64, now: Duration) {
        if let Some(p) = self.pending.remove(&seq) {
            if matches!(p.msg, LeaseMsg::Grant { .. }) {
                if self.ack_latencies.len() >= LATENCY_WINDOW {
                    self.ack_latencies.pop_front();
                }
                self.ack_latencies
                    .push_back(now.saturating_sub(p.first_sent));
            }
        }
    }

    /// Process an acknowledgement. Completes everything below the
    /// cumulative cursor — delivery is what the cursor certifies. A direct
    /// ack whose `seq` is still at or above the cursor means the receiver
    /// *buffered* the frame out of order: it lives in volatile memory,
    /// undelivered, so completing it would lose the lease if the receiver
    /// crashes (the greeting resend only covers still-pending grants).
    /// Such an ack instead marks the frame received, suppressing
    /// retransmission and expiry until the next greeting; completion — and
    /// the latency sample — happen when the cursor passes the seq.
    ///
    /// Any ack also proves the peer is alive, so degraded mode ends.
    /// Returns `true` when this ack ended degraded mode (the peer
    /// rejoined).
    pub fn on_ack(&mut self, seq: u64, cursor: u64, now: Duration) -> bool {
        let done: Vec<u64> = self.pending.range(..cursor).map(|(s, _)| *s).collect();
        for s in done {
            self.complete(s, now);
        }
        if let Some(p) = self.pending.get_mut(&seq) {
            p.received = true;
        }
        let rejoined = self.degraded;
        self.degraded = false;
        rejoined
    }

    /// Process the greeting a receiver sends on every fresh connection,
    /// carrying its incarnation id and cursor, re-syncing this sender
    /// onto the peer. Three cases:
    ///
    /// * Cursor ahead of `next_seq` — this sender is fresh (or restarted)
    ///   against a receiver that already consumed earlier sequence numbers:
    ///   fast-forward `next_seq` so new grants are not mistaken for
    ///   duplicates.
    /// * The receiver restarted — it greets with a *different*
    ///   incarnation id than the one remembered from its last greeting:
    ///   the link is rebased. Hole-filling releases are dropped (their
    ///   holes died with the old incarnation), surviving grants are
    ///   renumbered consecutively from the peer's cursor and returned in
    ///   [`Resync::resend`] for immediate retransmission. Per-lease hop
    ///   fencing at the receiver keeps any cross-incarnation stragglers
    ///   from double-granting.
    /// * Otherwise the link is intact (an ordinary reconnect of the same
    ///   incarnation): the greeting acts as a plain cumulative ack.
    ///
    /// On *first contact* (`peer_incarnation` still unknown, e.g. when
    /// this sender itself restarted) there is no remembered id to
    /// compare, and restart detection falls back to the structural
    /// heuristic the protocol used before incarnation ids: a sequence
    /// number in `[cursor, next_seq)` that is no longer pending must
    /// have been acknowledged by a previous incarnation of the
    /// receiver. The heuristic assumes a restarted receiver starts with
    /// an empty reorder buffer (true of every receiver in this
    /// codebase); the incarnation id removes that assumption for every
    /// greeting after the first.
    ///
    /// Buffered-but-undelivered frames never complete on a direct ack
    /// (see [`Self::on_ack`]), so they are still pending here and either
    /// ride the rebase resend or — when the link is intact — have
    /// their received marks cleared and retransmit; a surviving receiver
    /// that reconnected with its buffer alive dedups those retransmits
    /// harmlessly.
    pub fn on_greeting(&mut self, incarnation: u64, cursor: u64, now: Duration) -> Resync {
        // A fresh connection may mean a fresh receiver whose reorder
        // buffer died, even when the cursor makes the link look intact —
        // so every received mark is void and the frames must retransmit
        // (the old receiver, if it survived, dedups them harmlessly).
        for p in self.pending.values_mut() {
            p.received = false;
        }
        let rejoined = self.on_ack(u64::MAX, cursor, now);
        let known = self.peer_incarnation.replace(incarnation);
        if cursor > self.next_seq {
            self.next_seq = cursor;
            return Resync {
                rebased: false,
                resend: Vec::new(),
                rejoined,
            };
        }
        let intact = match known {
            // Same incarnation: the receiver never died, its cursor is
            // an authoritative continuation — gaps below `next_seq`
            // are frames it acked earlier, not evidence of a restart.
            Some(old) => old == incarnation,
            None => (cursor..self.next_seq).all(|s| self.pending.contains_key(&s)),
        };
        if intact {
            return Resync {
                rebased: false,
                resend: Vec::new(),
                rejoined,
            };
        }
        let old: Vec<Pending> = std::mem::take(&mut self.pending).into_values().collect();
        self.next_seq = cursor;
        let mut resend = Vec::new();
        for p in old {
            if let LeaseMsg::Grant {
                lease, hop, visits, ..
            } = p.msg
            {
                resend.push(self.grant(lease, hop, visits, now));
            }
        }
        Resync {
            rebased: true,
            resend,
            rejoined,
        }
    }

    /// Drive timers. **Contract:** drain every readable ack (feeding each to
    /// [`Self::on_ack`]) before calling this with a `now` past a deadline —
    /// reclaim soundness depends on it. Returns frames to retransmit and
    /// leases to reclaim.
    pub fn poll(&mut self, now: Duration) -> Vec<LeaseAction> {
        let mut actions = Vec::new();
        if !self.cfg.recovery_enabled() {
            return actions;
        }
        let mut reclaim = Vec::new();
        for (&seq, p) in self.pending.iter_mut() {
            // A received frame sits in the peer's reorder buffer: nothing
            // to retransmit, and reclaiming a frame the receiver provably
            // holds would race its eventual delivery into a double grant.
            if p.received {
                continue;
            }
            let expired =
                matches!(p.msg, LeaseMsg::Grant { .. }) && now >= p.first_sent + self.cfg.expiry;
            if expired {
                reclaim.push(seq);
                continue;
            }
            if now >= p.next_retry {
                p.attempts += 1;
                p.next_retry = now + backoff_delay(&self.cfg, seq, p.attempts);
                actions.push(LeaseAction::Send(p.msg));
                self.stats.retransmits += 1;
            }
        }
        for seq in reclaim {
            let p = self.pending.remove(&seq).expect("reclaim seq pending");
            let (lease, hop, visits) = match p.msg {
                LeaseMsg::Grant {
                    lease, hop, visits, ..
                } => (lease, hop, visits),
                _ => unreachable!("only grants expire"),
            };
            self.stats.reclaimed += 1;
            self.degraded = true;
            // Leave a hole filler so the peer's cursor can advance past the
            // reclaimed slot once it returns. The release retransmits on the
            // same backoff schedule but never expires.
            let msg = LeaseMsg::Release { seq };
            self.pending.insert(
                seq,
                Pending {
                    msg,
                    first_sent: now,
                    next_retry: now + self.backoff(seq, 0),
                    attempts: 0,
                    received: false,
                },
            );
            actions.push(LeaseAction::Reclaim {
                lease,
                hop: hop + 1,
                visits,
            });
            actions.push(LeaseAction::Send(msg));
        }
        actions
    }

    /// Earliest instant at which [`Self::poll`] has work, if any.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.pending
            .values()
            .filter(|p| !p.received)
            .map(|p| {
                if matches!(p.msg, LeaseMsg::Grant { .. }) {
                    p.next_retry.min(p.first_sent + self.cfg.expiry)
                } else {
                    p.next_retry
                }
            })
            .min()
    }

    fn backoff(&self, seq: u64, attempts: u32) -> Duration {
        backoff_delay(&self.cfg, seq, attempts)
    }
}

/// Capped exponential backoff with deterministic jitter: attempt `k` waits
/// `min(base << k, cap)` plus up to half that again, keyed on
/// `(jitter_seed, seq, k)` via SplitMix64 so record→replay stays exact.
fn backoff_delay(cfg: &LeaseConfig, seq: u64, attempts: u32) -> Duration {
    let base = cfg.backoff_base.as_nanos() as u64;
    let cap = cfg.backoff_cap.as_nanos() as u64;
    let shifted = base
        .checked_shl(attempts.min(32))
        .unwrap_or(cap)
        .min(cap)
        .max(1);
    let jitter =
        splitmix64(cfg.jitter_seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempts))
            % (shifted / 2 + 1);
    Duration::from_nanos(shifted + jitter)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of [`LeaseOut::on_greeting`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resync {
    /// The peer restarted with fresh receiver state and the link was
    /// renumbered. Any frames queued under the old numbering must be
    /// discarded in favor of [`Self::resend`].
    pub rebased: bool,
    /// Renumbered grants to put (back) on the wire immediately.
    pub resend: Vec<LeaseMsg>,
    /// The greeting ended a degraded spell (the peer rejoined).
    pub rejoined: bool,
}

/// A lease delivered by the receiver half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Sequence number the lease arrived under.
    pub seq: u64,
    /// Lease identity.
    pub lease: u64,
    /// Hop counter carried by the grant.
    pub hop: u64,
    /// Remaining visits.
    pub visits: u64,
}

enum Slot {
    Grant { lease: u64, hop: u64, visits: u64 },
    Released,
}

/// Receiver half of a lease link.
pub struct LeaseIn {
    cursor: u64,
    buffered: BTreeMap<u64, Slot>,
    /// Highest hop seen (delivered or locally produced) per lease; grants
    /// at or below it are stale.
    fence: HashMap<u64, u64>,
    stats: LeaseLinkStats,
    /// This receiver's incarnation id, declared in every greeting. It
    /// outlives nothing: a process restart produces a fresh value, which
    /// is exactly what lets senders detect the restart.
    incarnation: u64,
}

impl Default for LeaseIn {
    fn default() -> Self {
        Self::new()
    }
}

impl LeaseIn {
    /// New receiver half with the cursor at zero and incarnation id 0;
    /// production receivers override the id with
    /// [`with_incarnation`](Self::with_incarnation).
    pub fn new() -> Self {
        LeaseIn {
            cursor: 0,
            buffered: BTreeMap::new(),
            fence: HashMap::new(),
            stats: LeaseLinkStats::default(),
            incarnation: 0,
        }
    }

    /// Sets the incarnation id this receiver declares in greetings.
    /// Pick a value fresh per process start (the peer plane derives one
    /// from wall time and pid) so restarts are detectable.
    #[must_use]
    pub fn with_incarnation(mut self, incarnation: u64) -> Self {
        self.incarnation = incarnation;
        self
    }

    /// The incarnation id declared in greetings.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Link statistics so far.
    pub fn stats(&self) -> LeaseLinkStats {
        self.stats
    }

    /// Next expected sequence number.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Record that this node itself produced `hop` for `lease` (it held the
    /// lease locally); any later grant at or below that hop is stale.
    pub fn fence(&mut self, lease: u64, hop: u64) {
        let e = self.fence.entry(lease).or_insert(0);
        *e = (*e).max(hop);
    }

    /// Process an incoming grant. Returns in-order deliveries unlocked by
    /// this frame (possibly none if it is out of order or a duplicate) and
    /// the cumulative ack to send back.
    pub fn on_grant(
        &mut self,
        seq: u64,
        lease: u64,
        hop: u64,
        visits: u64,
    ) -> (Vec<Delivery>, LeaseMsg) {
        if seq < self.cursor || self.buffered.contains_key(&seq) {
            self.stats.dup_dropped += 1;
            return (Vec::new(), self.ack(seq));
        }
        let fenced = self.fence.get(&lease).is_some_and(|&f| hop <= f);
        if fenced {
            // A stale re-grant (e.g. the sender reclaimed after a delivery
            // we already acked, then its release lost the race with this
            // retransmit). Fill the slot so the cursor moves, deliver
            // nothing.
            self.stats.stale_dropped += 1;
            self.buffered.insert(seq, Slot::Released);
        } else {
            self.buffered
                .insert(seq, Slot::Grant { lease, hop, visits });
        }
        let out = self.drain();
        (out, self.ack(seq))
    }

    /// Process a release (hole filler) for `seq`.
    pub fn on_release(&mut self, seq: u64) -> (Vec<Delivery>, LeaseMsg) {
        if seq >= self.cursor {
            self.buffered.insert(seq, Slot::Released);
        }
        let out = self.drain();
        (out, self.ack(seq))
    }

    /// The cumulative ack answering frame `seq` right now. Also useful
    /// unsolicited: a node sends one on every fresh connection so a
    /// returning sender re-syncs its view of the cursor.
    pub fn ack(&self, seq: u64) -> LeaseMsg {
        LeaseMsg::Ack {
            seq,
            cursor: self.cursor,
        }
    }

    fn drain(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(slot) = self.buffered.remove(&self.cursor) {
            if let Slot::Grant { lease, hop, visits } = slot {
                self.fence(lease, hop);
                out.push(Delivery {
                    seq: self.cursor,
                    lease,
                    hop,
                    visits,
                });
            }
            self.cursor += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LeaseConfig {
        LeaseConfig {
            expiry: Duration::from_millis(100),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            jitter_seed: 7,
        }
    }

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn grant_ack_roundtrip_completes() {
        let mut out = LeaseOut::new(cfg());
        let mut inn = LeaseIn::new();
        let msg = out.grant(9, 1, 3, at(0));
        let LeaseMsg::Grant {
            seq,
            lease,
            hop,
            visits,
        } = msg
        else {
            panic!()
        };
        let (deliv, ack) = inn.on_grant(seq, lease, hop, visits);
        assert_eq!(
            deliv,
            vec![Delivery {
                seq: 0,
                lease: 9,
                hop: 1,
                visits: 3
            }]
        );
        let LeaseMsg::Ack { seq, cursor } = ack else {
            panic!()
        };
        assert_eq!((seq, cursor), (0, 1));
        out.on_ack(seq, cursor, at(1));
        assert_eq!(out.in_flight(), 0);
        assert!(out.poll(at(1000)).is_empty());
    }

    #[test]
    fn unacked_grant_retransmits_with_growing_backoff() {
        let mut out = LeaseOut::new(cfg());
        out.grant(1, 1, 1, at(0));
        // Not due yet at t=0.
        assert!(out.poll(at(0)).is_empty());
        let first = out.next_deadline().unwrap();
        assert!(first >= at(10) && first < at(100));
        let acts = out.poll(first);
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            acts[0],
            LeaseAction::Send(LeaseMsg::Grant { seq: 0, .. })
        ));
        let second = out.next_deadline().unwrap();
        assert!(second > first);
        assert_eq!(out.stats().retransmits, 1);
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let c = cfg();
        for k in 0..20 {
            let d = backoff_delay(&c, 3, k);
            assert!(d <= Duration::from_millis(60), "attempt {k}: {d:?}");
            assert_eq!(d, backoff_delay(&c, 3, k));
        }
    }

    #[test]
    fn expiry_reclaims_and_leaves_release() {
        let mut out = LeaseOut::new(cfg());
        out.grant(5, 2, 4, at(0));
        let acts = out.poll(at(100));
        assert!(acts.contains(&LeaseAction::Reclaim {
            lease: 5,
            hop: 3,
            visits: 4
        }));
        assert!(acts.contains(&LeaseAction::Send(LeaseMsg::Release { seq: 0 })));
        assert!(out.degraded());
        assert_eq!(out.stats().reclaimed, 1);
        // The release keeps retransmitting but never reclaims again.
        let later = out.poll(at(1000));
        assert_eq!(later, vec![LeaseAction::Send(LeaseMsg::Release { seq: 0 })]);
        // An ack for the release ends degraded mode (peer rejoined).
        let rejoined = out.on_ack(0, 1, at(1100));
        assert!(rejoined);
        assert!(!out.degraded());
        assert_eq!(out.in_flight(), 0);
    }

    #[test]
    fn duplicate_grants_are_idempotent() {
        let mut inn = LeaseIn::new();
        let (d1, _) = inn.on_grant(0, 7, 1, 2);
        assert_eq!(d1.len(), 1);
        let (d2, ack) = inn.on_grant(0, 7, 1, 2);
        assert!(d2.is_empty());
        assert_eq!(ack, LeaseMsg::Ack { seq: 0, cursor: 1 });
        assert_eq!(inn.stats().dup_dropped, 1);
    }

    #[test]
    fn out_of_order_grants_buffer_until_cursor() {
        let mut inn = LeaseIn::new();
        let (d, ack) = inn.on_grant(1, 8, 1, 2);
        assert!(d.is_empty());
        assert_eq!(ack, LeaseMsg::Ack { seq: 1, cursor: 0 });
        let (d, ack) = inn.on_grant(0, 9, 1, 2);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].lease, 9);
        assert_eq!(d[1].lease, 8);
        assert_eq!(ack, LeaseMsg::Ack { seq: 0, cursor: 2 });
    }

    #[test]
    fn release_fills_hole_and_unblocks_cursor() {
        let mut inn = LeaseIn::new();
        let (d, _) = inn.on_grant(1, 3, 1, 2);
        assert!(d.is_empty());
        let (d, ack) = inn.on_release(0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lease, 3);
        assert_eq!(ack, LeaseMsg::Ack { seq: 0, cursor: 2 });
        // A late duplicate release is harmless.
        let (d, ack) = inn.on_release(0);
        assert!(d.is_empty());
        assert_eq!(ack, LeaseMsg::Ack { seq: 0, cursor: 2 });
    }

    #[test]
    fn hop_fence_refuses_stale_regrant() {
        let mut inn = LeaseIn::new();
        // We held lease 4 at hop 6 ourselves (e.g. via an earlier reclaim).
        inn.fence(4, 6);
        let (d, ack) = inn.on_grant(0, 4, 6, 3);
        assert!(d.is_empty());
        assert_eq!(inn.stats().stale_dropped, 1);
        // Cursor still advances so the link is not wedged.
        assert_eq!(ack, LeaseMsg::Ack { seq: 0, cursor: 1 });
        // A genuinely newer hop is delivered.
        let (d, _) = inn.on_grant(1, 4, 7, 2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn recovery_disabled_means_fire_and_forget() {
        let mut out = LeaseOut::new(LeaseConfig {
            expiry: Duration::ZERO,
            ..cfg()
        });
        out.grant(1, 1, 1, at(0));
        assert_eq!(out.in_flight(), 0);
        assert!(out.poll(at(10_000)).is_empty());
        assert_eq!(out.next_deadline(), None);
    }

    #[test]
    fn ack_latency_window_keeps_the_newest_samples_in_order() {
        let mut out = LeaseOut::new(cfg());
        let total = LATENCY_WINDOW as u64 + 3;
        for i in 0..total {
            let seq = out.grant(1, 1, 1, at(0)).seq();
            out.on_ack(seq, seq + 1, Duration::from_nanos(i));
        }
        let window = out.ack_latencies().iter().map(Duration::as_nanos);
        assert!(window.eq((3..total).map(u128::from)));
    }

    #[test]
    fn greeting_fast_forwards_a_fresh_sender() {
        // A restarted *sender* meets a receiver whose cursor is already at
        // 7: new grants must not reuse consumed sequence numbers.
        let mut out = LeaseOut::new(cfg());
        let r = out.on_greeting(1, 7, at(0));
        assert_eq!(
            r,
            Resync {
                rebased: false,
                resend: Vec::new(),
                rejoined: false
            }
        );
        assert_eq!(out.grant(1, 1, 1, at(0)).seq(), 7);
    }

    #[test]
    fn greeting_on_an_intact_link_is_a_plain_ack() {
        let mut out = LeaseOut::new(cfg());
        out.grant(1, 1, 2, at(0));
        // Reconnect, nothing delivered yet: cursor 0, seq 0 still pending.
        let r = out.on_greeting(1, 0, at(5));
        assert!(!r.rebased && r.resend.is_empty());
        assert_eq!(out.in_flight(), 1, "the pending grant survives untouched");
    }

    #[test]
    fn greeting_rebases_onto_a_restarted_receiver() {
        let mut out = LeaseOut::new(cfg());
        let mut inn = LeaseIn::new();
        // Old incarnation consumed seqs 0 and 1.
        for lease in [3, 4] {
            let LeaseMsg::Grant {
                seq,
                lease,
                hop,
                visits,
            } = out.grant(lease, 1, 5, at(0))
            else {
                panic!()
            };
            let (_, ack) = inn.on_grant(seq, lease, hop, visits);
            let LeaseMsg::Ack { seq, cursor } = ack else {
                panic!()
            };
            out.on_ack(seq, cursor, at(1));
        }
        // Seq 2 expires into a release; seq 3 is a live in-flight grant.
        out.grant(7, 2, 3, at(0));
        out.poll(at(100));
        out.grant(8, 1, 2, at(100));
        // The receiver is replaced by a fresh process greeting at cursor 0:
        // seqs 0 and 1 exist nowhere anymore, so the link must be rebased.
        let r = out.on_greeting(2, 0, at(150));
        assert!(r.rebased);
        assert!(
            r.rejoined,
            "the reclaim's degraded spell ends at the greeting"
        );
        // The release dies with the old incarnation; the surviving grant is
        // renumbered from the new cursor and delivers to the fresh receiver.
        assert_eq!(r.resend.len(), 1);
        let LeaseMsg::Grant {
            seq,
            lease,
            hop,
            visits,
        } = r.resend[0]
        else {
            panic!()
        };
        assert_eq!((seq, lease), (0, 8));
        let mut fresh = LeaseIn::new();
        let (d, _) = fresh.on_grant(seq, lease, hop, visits);
        assert_eq!(
            d,
            vec![Delivery {
                seq: 0,
                lease: 8,
                hop: 1,
                visits: 2
            }]
        );
        assert_eq!(
            out.grant(9, 1, 1, at(200)).seq(),
            1,
            "numbering continues from the rebase"
        );
    }

    #[test]
    fn direct_ack_of_buffered_frame_suppresses_timers_without_completing() {
        let mut out = LeaseOut::new(cfg());
        out.grant(1, 1, 2, at(0)); // seq 0 — lost in flight
        out.grant(2, 1, 2, at(0)); // seq 1 — arrives out of order, buffered

        // The receiver direct-acks the buffered frame; its cursor is
        // still 0 because seq 0 is a hole.
        out.on_ack(1, 0, at(5));
        assert_eq!(
            out.in_flight(),
            2,
            "buffered-but-undelivered must stay pending"
        );
        assert!(out.ack_latencies().is_empty(), "no completion yet");
        // Only the hole retransmits; the buffered frame is suppressed.
        let acts = out.poll(at(90));
        assert_eq!(
            acts,
            vec![LeaseAction::Send(LeaseMsg::Grant {
                seq: 0,
                lease: 1,
                hop: 1,
                visits: 2
            })]
        );
        // Expiry is suppressed too: reclaiming a frame the receiver
        // provably holds would race its delivery into a double grant.
        let acts = out.poll(at(150));
        assert!(
            acts.iter().all(|a| !matches!(
                a,
                LeaseAction::Reclaim { lease: 2, .. }
                    | LeaseAction::Send(LeaseMsg::Grant { seq: 1, .. })
            )),
            "the buffered frame must neither expire nor retransmit: {acts:?}"
        );
        // The hole fills (here: the reclaim's release), the receiver
        // delivers seq 1, and the cumulative cursor completes it.
        out.on_ack(0, 2, at(200));
        assert_eq!(out.in_flight(), 0);
        assert_eq!(out.ack_latencies().len(), 1, "completed at cursor advance");
    }

    #[test]
    fn buffered_but_undelivered_grant_survives_a_receiver_restart() {
        let mut out = LeaseOut::new(cfg());
        let mut inn = LeaseIn::new();
        // Seq 0 is delivered and cumulatively acked by the old incarnation.
        let LeaseMsg::Grant {
            seq,
            lease,
            hop,
            visits,
        } = out.grant(3, 1, 5, at(0))
        else {
            panic!()
        };
        let (_, ack) = inn.on_grant(seq, lease, hop, visits);
        let LeaseMsg::Ack { seq, cursor } = ack else {
            panic!()
        };
        out.on_ack(seq, cursor, at(1));
        // Seq 1 is lost; seq 2 arrives out of order and is direct-acked.
        out.grant(4, 1, 5, at(1));
        let LeaseMsg::Grant {
            seq,
            lease,
            hop,
            visits,
        } = out.grant(5, 1, 5, at(1))
        else {
            panic!()
        };
        let (d, ack) = inn.on_grant(seq, lease, hop, visits);
        assert!(d.is_empty(), "out of order: buffered, not delivered");
        let LeaseMsg::Ack { seq, cursor } = ack else {
            panic!()
        };
        assert_eq!((seq, cursor), (2, 1));
        out.on_ack(seq, cursor, at(2));
        // The receiver crashes — its reorder buffer dies with it. The
        // replacement greets at cursor 0; seq 0 is pending nowhere, so
        // the link rebases, and the buffered-but-undelivered lease must
        // be among the renumbered resends or it is lost forever.
        let r = out.on_greeting(1, 0, at(10));
        assert!(r.rebased);
        let leases: Vec<u64> = r
            .resend
            .iter()
            .map(|m| match *m {
                LeaseMsg::Grant { lease, .. } => lease,
                other => panic!("unexpected resend {other:?}"),
            })
            .collect();
        assert_eq!(leases, vec![4, 5], "lease 5 was acked but never delivered");
        let mut fresh = LeaseIn::new();
        let mut delivered = Vec::new();
        for m in r.resend {
            let LeaseMsg::Grant {
                seq,
                lease,
                hop,
                visits,
            } = m
            else {
                panic!()
            };
            let (d, _) = fresh.on_grant(seq, lease, hop, visits);
            delivered.extend(d.into_iter().map(|d| d.lease));
        }
        assert_eq!(delivered, vec![4, 5]);
    }

    #[test]
    fn greeting_clears_received_marks_so_retransmits_resume() {
        let mut out = LeaseOut::new(cfg());
        out.grant(1, 1, 2, at(0)); // seq 0 — lost
        out.grant(2, 1, 2, at(0)); // seq 1 — buffered + direct-acked
        out.on_ack(1, 0, at(5));
        assert!(
            !out.poll(at(90))
                .contains(&LeaseAction::Send(LeaseMsg::Grant {
                    seq: 1,
                    lease: 2,
                    hop: 1,
                    visits: 2
                })),
            "suppressed while the buffer is presumed alive"
        );
        // The receiver restarts before delivering anything: cursor 0
        // again and every seq still pending, so the link looks intact —
        // but the buffer is gone, and the greeting must unsuppress
        // retransmission or lease 2 is stranded.
        let r = out.on_greeting(1, 0, at(95));
        assert!(!r.rebased);
        let acts = out.poll(at(99));
        assert!(
            acts.contains(&LeaseAction::Send(LeaseMsg::Grant {
                seq: 1,
                lease: 2,
                hop: 1,
                visits: 2
            })),
            "retransmission must resume after the greeting: {acts:?}"
        );
    }

    #[test]
    fn incarnation_change_rebases_an_intact_looking_link() {
        let mut out = LeaseOut::new(cfg());
        // First contact: the receiver greets as incarnation 7.
        assert!(!out.on_greeting(7, 0, at(0)).rebased);
        out.grant(1, 1, 2, at(1)); // seq 0, in flight

        // The receiver restarts before delivering anything and greets
        // again at cursor 0 with every seq still pending — structurally
        // indistinguishable from a plain reconnect, which is exactly
        // the case the old empty-reorder-buffer heuristic could not
        // decide. The new incarnation id is proof of the restart.
        let r = out.on_greeting(8, 0, at(5));
        assert!(r.rebased, "incarnation change must force a rebase");
        assert_eq!(r.resend.len(), 1, "the in-flight grant rides the resend");
        assert_eq!(out.in_flight(), 1);
    }

    #[test]
    fn same_incarnation_regreeting_stays_intact() {
        let mut out = LeaseOut::new(cfg());
        assert!(!out.on_greeting(7, 0, at(0)).rebased);
        out.grant(1, 1, 2, at(1)); // seq 0 — lost, still pending
        out.grant(2, 1, 2, at(1)); // seq 1 — buffered + direct-acked
        out.on_ack(1, 0, at(2));
        // An ordinary reconnect of the same incarnation: no rebase, but
        // the received mark is void (the connection flap says nothing
        // about the buffer, clearing it is merely conservative) so both
        // frames retransmit and the surviving receiver dedups.
        let r = out.on_greeting(7, 0, at(5));
        assert!(!r.rebased && r.resend.is_empty());
        assert_eq!(out.in_flight(), 2, "pending grants survive untouched");
        let acts = out.poll(at(90));
        assert!(
            acts.contains(&LeaseAction::Send(LeaseMsg::Grant {
                seq: 1,
                lease: 2,
                hop: 1,
                visits: 2
            })),
            "retransmits resume after the regreeting: {acts:?}"
        );
    }

    #[test]
    fn reclaimed_lease_can_be_regranted_after_rejoin() {
        let mut out = LeaseOut::new(cfg());
        let mut inn = LeaseIn::new();
        out.grant(5, 1, 4, at(0));
        // The grant is lost; expiry reclaims it.
        let acts = out.poll(at(100));
        let Some(LeaseAction::Reclaim { lease, hop, visits }) = acts
            .iter()
            .find(|a| matches!(a, LeaseAction::Reclaim { .. }))
        else {
            panic!()
        };
        // Local degraded visit burns one.
        let (lease, hop, visits) = (*lease, *hop, visits - 1);
        // Peer returns: release goes through, then the re-grant.
        let (_, ack) = inn.on_release(0);
        let LeaseMsg::Ack { seq, cursor } = ack else {
            panic!()
        };
        assert!(out.on_ack(seq, cursor, at(200)));
        let msg = out.grant(lease, hop, visits, at(200));
        let LeaseMsg::Grant {
            seq,
            lease,
            hop,
            visits,
        } = msg
        else {
            panic!()
        };
        let (d, _) = inn.on_grant(seq, lease, hop, visits);
        assert_eq!(
            d,
            vec![Delivery {
                seq: 1,
                lease: 5,
                hop: 2,
                visits: 3
            }]
        );
    }
}
