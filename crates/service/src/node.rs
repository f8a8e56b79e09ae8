//! One lease-ring member as a sans-io state machine.
//!
//! [`LeaseNode`] is a ring node minus its transport: its moderator rows
//! (`lease-gate`, `degradation`, `handoff`, `telemetry`), its inbox, both
//! lease-link halves ([`LeaseOut`] to the successor, [`LeaseIn`] from the
//! predecessor), the outbound frame queue, and its counters. It opens no
//! socket and reads no clock: steps that need time take the caller's
//! `now`. [`crate::PeerNode`] drives it from one readiness loop; `amf-sim`'s
//! topology scenario drives the same node over virtual planes, so the
//! simulator records and replays the node that runs on the wire.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use amf_aspects::audit::{AuditAspect, AuditLog};
use amf_core::{
    Aspect, AspectModerator, Concern, Delivery, FairnessPolicy, FnAspect, InvocationContext,
    LeaseAction, LeaseConfig, LeaseIn, LeaseMsg, LeaseOut, MethodHandle, MethodId,
    ModeratorBuilder, PanicPolicy, Verdict,
};
use bytes::Bytes;
use parking_lot::Mutex;

use crate::codec::{encode_hello, encode_peer, PeerFrame, PeerWire};
use crate::peer::PeerStats;

/// A lease held by a node: admitted by [`LeaseNode::acquire`], handed
/// on (or retired) by [`LeaseNode::forward`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Lease identity.
    pub lease: u64,
    /// Hop counter the lease arrived with.
    pub hop: u64,
    /// Visits left, this one included.
    pub visits: u64,
}

/// What the node's aspects read and its steps write, under one lock
/// that is never held across a moderator call. A grant is numbered and
/// queued in one critical section and a rebase replaces the queue in
/// another, so no frame numbered before a rebase is queued after it.
struct State {
    out: LeaseOut,
    inn: LeaseIn,
    /// Frames waiting for the transport, in send order.
    queue: VecDeque<LeaseMsg>,
    inbox: VecDeque<Lease>,
    retired: Vec<u64>,
    delivered: u64,
    rejoins: u64,
    degraded_entries: u64,
    stopped: bool,
}

/// One ring member, driven by a transport (module docs).
pub struct LeaseNode {
    node: u64,
    state: Arc<Mutex<State>>,
    moderator: AspectModerator,
    acquire: MethodHandle,
    grant: MethodHandle,
    observe: MethodHandle,
}

impl std::fmt::Debug for LeaseNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseNode")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl LeaseNode {
    /// Composes node `node`'s moderator from `builder` (the caller
    /// supplies engine and clock; the node sets FIFO fairness and
    /// contained aspect panics) and registers its rows. `incarnation`
    /// is declared in every greeting (see [`LeaseIn::with_incarnation`]).
    pub fn new(node: u64, builder: ModeratorBuilder, lease: LeaseConfig, incarnation: u64) -> Self {
        let moderator = builder
            .fairness(FairnessPolicy::Fifo)
            .panic_policy(PanicPolicy::AbortInvocation)
            .build();
        let acquire = moderator.declare_method(MethodId::new("acquire"));
        let grant = moderator.declare_method(MethodId::new("grant"));
        let observe = moderator.declare_method(MethodId::new("observe"));
        let state = Arc::new(Mutex::new(State {
            out: LeaseOut::new(lease),
            inn: LeaseIn::new().with_incarnation(incarnation),
            queue: VecDeque::new(),
            inbox: VecDeque::new(),
            retired: Vec::new(),
            delivered: 0,
            rejoins: 0,
            degraded_entries: 0,
            stopped: false,
        }));

        // Synchronization concern: `acquire` admits once the inbox
        // holds a lease, or the node stopped.
        let s = Arc::clone(&state);
        let gate = FnAspect::new("lease-gate").on_precondition(move |_| {
            let s = s.lock();
            if s.stopped || !s.inbox.is_empty() {
                Verdict::Resume
            } else {
                Verdict::Block
            }
        });
        // Fault tolerance as a crosscutting concern: every visit
        // admitted while the successor link is degraded (a reclaim with
        // no ack since) is counted here, not in session code.
        let s = Arc::clone(&state);
        let degradation = FnAspect::new("degraded-entries").on_postaction(move |_| {
            let mut s = s.lock();
            if s.out.degraded() && !s.stopped {
                s.degraded_entries += 1;
            }
        });
        // The gate is registered last so it runs first on entry: a
        // blocked visit then has no admitted aspect to roll back and
        // parks until woken, with no rollback-recheck timer.
        let rows: [(&MethodHandle, Concern, Box<dyn Aspect>); 4] = [
            (&acquire, Concern::new("degradation"), Box::new(degradation)),
            (&acquire, Concern::synchronization(), Box::new(gate)),
            (
                &grant,
                Concern::new("handoff"),
                Box::new(FnAspect::new("handoff")),
            ),
            // Real library sink, declared pure: the telemetry row rides
            // the lock-free fast lane.
            (
                &observe,
                Concern::new("telemetry"),
                Box::new(AuditAspect::new(AuditLog::shared())),
            ),
        ];
        for (method, concern, aspect) in rows {
            moderator
                .register(method, concern, aspect)
                .expect("register lease-node row");
        }
        moderator.wire_wakes(&grant, std::slice::from_ref(&acquire));
        moderator.wire_wakes(&acquire, &[]);
        moderator.wire_wakes(&observe, &[]);
        LeaseNode {
            node,
            state,
            moderator,
            acquire,
            grant,
            observe,
        }
    }

    /// Seeds `leases` fresh leases (ids `0..leases`, hop 0) with a
    /// budget of `visits` each into the inbox.
    pub fn seed(&self, leases: u64, visits: u64) {
        let lease = |lease| Lease {
            lease,
            hop: 0,
            visits,
        };
        self.state.lock().inbox.extend((0..leases).map(lease));
    }

    fn invoke(&self, method: &MethodHandle) {
        let mut ctx = InvocationContext::new(method.id().clone(), self.moderator.next_invocation());
        self.moderator
            .preactivation(method, &mut ctx)
            .expect("lease-node rows never abort");
        self.moderator.postactivation(method, &mut ctx);
    }

    /// The first half of a visit: the moderated `acquire` parks until
    /// the lease gate opens, pops the inbox, and the visit reports one
    /// `observe` telemetry call. `None` once the node is stopped.
    pub fn acquire(&self) -> Option<Lease> {
        let mut ctx =
            InvocationContext::new(self.acquire.id().clone(), self.moderator.next_invocation());
        self.moderator
            .preactivation(&self.acquire, &mut ctx)
            .expect("acquire never aborts");
        let lease = {
            let mut s = self.state.lock();
            if s.stopped {
                None
            } else {
                s.inbox.pop_front()
            }
        };
        self.moderator.postactivation(&self.acquire, &mut ctx);
        let lease = lease?;
        self.invoke(&self.observe);
        Some(lease)
    }

    /// The second half of a visit: burns one visit of `lease` and
    /// either retires it here (returning `true`) or numbers a grant to
    /// the successor and queues it.
    pub fn forward(&self, lease: Lease, now: Duration) -> bool {
        let mut s = self.state.lock();
        let visits = lease.visits.saturating_sub(1);
        if visits == 0 {
            s.retired.push(lease.lease);
            return true;
        }
        let msg = s.out.grant(lease.lease, lease.hop + 1, visits, now);
        s.queue.push_back(msg);
        false
    }

    /// A lease enters the inbox through the moderated `grant`, whose
    /// post-activation wakes a parked visit.
    fn deliver(&self, lease: Lease) {
        {
            let mut s = self.state.lock();
            s.delivered += 1;
            s.inbox.push_back(lease);
        }
        self.invoke(&self.grant);
    }

    /// Handles a grant or release from the predecessor: [`LeaseIn`]
    /// dedups, reassembles sequence order and fences stale hops, and
    /// each lease it unlocks is delivered. Returns those deliveries and
    /// the ack to send back; an ack on this plane is a protocol error
    /// and yields `None`.
    pub fn receive(&self, msg: LeaseMsg) -> Option<(Vec<Delivery>, LeaseMsg)> {
        let (deliveries, ack) = {
            let mut s = self.state.lock();
            match msg {
                LeaseMsg::Grant {
                    seq,
                    lease,
                    hop,
                    visits,
                } => s.inn.on_grant(seq, lease, hop, visits),
                LeaseMsg::Release { seq } => s.inn.on_release(seq),
                LeaseMsg::Ack { .. } => return None,
            }
        };
        for d in &deliveries {
            let (lease, hop, visits) = (d.lease, d.hop, d.visits);
            self.deliver(Lease { lease, hop, visits });
        }
        Some((deliveries, ack))
    }

    /// Handles the successor's reply. A greeting re-syncs the sender
    /// onto the peer's incarnation and cursor; a rebase (the peer
    /// restarted) replaces everything queued under the old numbering
    /// with the renumbered resend set. An ack completes handoffs. Either
    /// ends a degraded spell, which counts as a rejoin. Other frames are
    /// ignored.
    pub fn on_reply(&self, reply: PeerWire, now: Duration) {
        let mut s = self.state.lock();
        let rejoined = match reply {
            PeerWire::Hello {
                incarnation,
                cursor,
                ..
            } => {
                let resync = s.out.on_greeting(incarnation, cursor, now);
                if resync.rebased {
                    s.queue = resync.resend.into();
                }
                resync.rejoined
            }
            PeerWire::Frame(PeerFrame {
                msg: LeaseMsg::Ack { seq, cursor },
                ..
            }) => s.out.on_ack(seq, cursor, now),
            PeerWire::Frame(_) => false,
        };
        s.rejoins += u64::from(rejoined);
    }

    /// Drives the link timers. Retransmits and hole-filling releases
    /// join the outbound queue; each reclaimed lease is fenced at its
    /// new hop and delivered as local work — after the link turned
    /// degraded, so the reclaimed visit counts as a degraded entry. As
    /// with [`LeaseOut::poll`], feed every readable reply to
    /// [`Self::on_reply`] first.
    pub fn poll(&self, now: Duration) {
        let mut reclaimed = Vec::new();
        {
            let s = &mut *self.state.lock();
            for action in s.out.poll(now) {
                match action {
                    LeaseAction::Send(msg) => s.queue.push_back(msg),
                    LeaseAction::Reclaim { lease, hop, visits } => {
                        s.inn.fence(lease, hop);
                        reclaimed.push(Lease { lease, hop, visits });
                    }
                }
            }
        }
        for lease in reclaimed {
            self.deliver(lease);
        }
    }

    /// Earliest instant at which [`Self::poll`] has work, if any.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.state.lock().out.next_deadline()
    }

    /// Takes every frame queued for the successor, in send order. A
    /// frame the transport fails to deliver stays pending in
    /// [`LeaseOut`]; retransmission covers it.
    pub fn take_outbound(&self) -> VecDeque<LeaseMsg> {
        std::mem::take(&mut self.state.lock().queue)
    }

    /// Encodes `msg` as a complete frame from this node.
    pub fn encode(&self, msg: LeaseMsg) -> Bytes {
        encode_peer(&PeerFrame {
            node: self.node,
            msg,
        })
    }

    /// The greeting for a fresh inbound connection: this node's
    /// incarnation id and receive cursor, as a complete frame.
    pub fn greeting(&self) -> Bytes {
        let s = self.state.lock();
        encode_hello(self.node, s.inn.incarnation(), s.inn.cursor())
    }

    /// Stops the node: a parked visit wakes through the lease gate, and
    /// this and every later [`Self::acquire`] returns `None`.
    pub fn stop(&self) {
        self.state.lock().stopped = true;
        self.invoke(&self.grant);
    }

    /// Whether [`Self::stop`] was called.
    pub fn stopped(&self) -> bool {
        self.state.lock().stopped
    }

    /// Snapshot of the node's counters.
    pub fn stats(&self) -> PeerStats {
        let m = self.moderator.stats();
        let s = self.state.lock();
        let (out, inn) = (s.out.stats(), s.inn.stats());
        PeerStats {
            delivered: s.delivered,
            retired: s.retired.len() as u64,
            reclaimed: out.reclaimed,
            retransmits: out.retransmits,
            dup_dropped: inn.dup_dropped,
            stale_dropped: inn.stale_dropped,
            degraded_entries: s.degraded_entries,
            rejoins: s.rejoins,
            degraded_now: s.out.degraded(),
            fast_path_admits: m.fast_path_admits,
            fast_path_fallbacks: m.fast_path_fallbacks,
        }
    }

    /// The leases that retired at this node, in retirement order.
    pub fn retired(&self) -> Vec<u64> {
        self.state.lock().retired.clone()
    }

    /// First-send → ack-complete latencies of acknowledged grants
    /// (see [`LeaseOut::ack_latencies`]).
    pub fn ack_latencies(&self) -> Vec<Duration> {
        self.state
            .lock()
            .out
            .ack_latencies()
            .iter()
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Duration = Duration::ZERO;

    fn node(expiry_ms: u64) -> LeaseNode {
        let lease = LeaseConfig {
            expiry: Duration::from_millis(expiry_ms),
            ..LeaseConfig::default()
        };
        LeaseNode::new(1, AspectModerator::builder(), lease, 0)
    }

    fn grant(seq: u64, lease: u64, hop: u64, visits: u64) -> LeaseMsg {
        LeaseMsg::Grant {
            seq,
            lease,
            hop,
            visits,
        }
    }

    #[test]
    fn a_grant_frame_gives_one_delivery_and_its_ack() {
        let n = node(100);
        let (delivered, ack) = n.receive(grant(0, 7, 1, 2)).expect("grant plane");
        assert_eq!(delivered.len(), 1);
        assert_eq!(ack, LeaseMsg::Ack { seq: 0, cursor: 1 });
        assert_eq!(n.acquire().map(|l| l.lease), Some(7));
        assert_eq!(n.receive(LeaseMsg::Ack { seq: 0, cursor: 0 }), None);
    }

    #[test]
    fn a_duplicate_frame_is_counted_not_delivered() {
        let n = node(100);
        n.receive(grant(0, 7, 1, 2));
        let (delivered, _) = n.receive(grant(0, 7, 1, 2)).expect("grant plane");
        assert!(delivered.is_empty());
        let s = n.stats();
        assert_eq!((s.delivered, s.dup_dropped), (1, 1));
    }

    #[test]
    fn a_visit_queues_a_numbered_grant() {
        let n = node(100);
        n.seed(2, 2);
        for seq in 0..2 {
            assert!(!n.forward(n.acquire().expect("seeded"), T0));
            assert_eq!(n.take_outbound(), [grant(seq, seq, 1, 1)]);
        }
        n.seed(1, 1);
        assert!(n.forward(n.acquire().expect("seeded"), T0), "last visit");
        assert_eq!(n.retired(), [0]);
        assert!(n.take_outbound().is_empty());
    }

    #[test]
    fn a_greeting_rebase_replaces_the_queue() {
        let n = node(100);
        n.seed(2, 3);
        let hello = |incarnation| PeerWire::Hello {
            node: 2,
            incarnation,
            cursor: 0,
        };
        n.on_reply(hello(5), T0);
        // Seq 0 is delivered and acked; seq 1 is still queued when the
        // successor restarts.
        n.forward(n.acquire().expect("seeded"), T0);
        n.take_outbound();
        let msg = LeaseMsg::Ack { seq: 0, cursor: 1 };
        n.on_reply(PeerWire::Frame(PeerFrame { node: 2, msg }), T0);
        n.forward(n.acquire().expect("seeded"), T0);
        n.on_reply(hello(6), T0);
        assert_eq!(n.take_outbound(), [grant(0, 1, 1, 2)], "renumbered");
    }

    #[test]
    fn stop_releases_a_parked_visit() {
        let n = Arc::new(node(100));
        let parked = Arc::clone(&n);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(parked.acquire()));
        while n.moderator.stats().blocks == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        n.stop();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(None));
        assert_eq!(n.acquire(), None, "later visits see the stop too");
    }

    #[test]
    fn a_reclaimed_visit_is_a_degraded_entry() {
        let n = node(10);
        n.seed(1, 3);
        n.forward(n.acquire().expect("seeded"), T0);
        n.take_outbound(); // lost in flight
        n.poll(Duration::from_secs(1));
        assert_eq!(n.stats().degraded_entries, 0);
        assert_eq!(n.acquire().map(|l| l.hop), Some(2), "fenced reclaim");
        let s = n.stats();
        assert_eq!((s.reclaimed, s.degraded_entries), (1, 1));
    }
}
