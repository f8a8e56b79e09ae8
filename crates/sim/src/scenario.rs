//! The recorded scenario behind the `amf-sim` binary: a capacity-1
//! producer/consumer buffer (the paper's bounded-buffer shape, as two
//! moderated methods with cross-wired wakes) plus an `audit` method.
//! With `fault_permille > 0` the audit row carries a seeded
//! panic-injection aspect (undeclared, so every call takes the locked
//! path); fault-free runs carry the real `AuditAspect` instead, whose
//! declared capability contract sends the row through the lock-free
//! fast lane — the recorded `fast_path` counters come from there.
//! Running under a [`SimRunner`] yields a [`RunRecord`] whose schedule
//! replays the run byte-identically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Duration;

use amf_aspects::audit::{AuditAspect, AuditLog};
use amf_aspects::fault::PanicInjectionAspect;
use amf_concurrency::{Clock, GrantSource, ManualClock, Waiter};
use amf_core::trace::EventKind;
use amf_core::{
    AspectModerator, Concern, FairnessPolicy, FnAspect, InvocationContext, LeaseConfig, LeaseMsg,
    MemoryTrace, MethodHandle, MethodId, PanicPolicy, Verdict,
};
use amf_service::codec::{decode_peer, decode_peer_wire};
use amf_service::{LeaseNode, PeerStats};

use crate::{RunRecord, SimRunner, TopologyRecord};

/// Shape of one simulated buffer run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParams {
    /// Scheduler and fault-injection seed.
    pub seed: u64,
    /// Producer threads (each `open`s the buffer `rounds` times).
    pub producers: u64,
    /// Consumer threads (the `producers * rounds` takes are split
    /// between them).
    pub consumers: u64,
    /// Rounds per producer.
    pub rounds: u64,
    /// Precondition-panic rate on the audit method, in permille.
    pub fault_permille: u64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            seed: 42,
            producers: 2,
            consumers: 1,
            rounds: 3,
            fault_permille: 0,
        }
    }
}

/// Replaces the panic hook with a no-op, once. Injected aspect panics
/// are contained by the moderator but still run the hook; silencing it
/// keeps recorded runs from flooding stderr with backtraces.
pub fn silence_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

fn invoke(m: &AspectModerator, h: &MethodHandle, aborted: &Mutex<Vec<u64>>) {
    let invocation = m.next_invocation();
    let mut ctx = InvocationContext::new(h.id().clone(), invocation);
    match m.preactivation(h, &mut ctx) {
        Ok(()) => m.postactivation(h, &mut ctx),
        Err(_) => aborted.lock().unwrap().push(invocation),
    }
}

/// Runs the buffer scenario under a fresh simulation. With
/// `script: None` the run records (scheduling by `params.seed`); with
/// `Some(schedule)` it replays that schedule. The returned record is a
/// pure function of `(params, script)` — recording and then replaying
/// the recorded schedule reproduces it exactly.
pub fn run_buffer_scenario(params: &ScenarioParams, script: Option<Vec<usize>>) -> RunRecord {
    if params.fault_permille > 0 {
        silence_panic_hook();
    }
    let mut runner = match script {
        None => SimRunner::new(params.seed),
        Some(s) => SimRunner::replay(params.seed, s),
    };
    let trace = MemoryTrace::shared();
    let moderator = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .panic_policy(PanicPolicy::AbortInvocation)
            .engine(Arc::new(runner.engine()))
            .clock(Arc::new(runner.clock()))
            .trace(trace.clone())
            .build(),
    );
    let open = moderator.declare_method(MethodId::new("open"));
    let take = moderator.declare_method(MethodId::new("take"));
    let audit = moderator.declare_method(MethodId::new("audit"));

    let slots = Arc::new(AtomicU64::new(1));
    let items = Arc::new(AtomicU64::new(0));
    {
        let slots = Arc::clone(&slots);
        let items = Arc::clone(&items);
        moderator
            .register(
                &open,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("slot-gate")
                        .on_precondition(move |_| {
                            if slots.load(Ordering::SeqCst) > 0 {
                                slots.fetch_sub(1, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            items.fetch_add(1, Ordering::SeqCst);
                        }),
                ),
            )
            .expect("register slot-gate");
    }
    {
        let slots = Arc::clone(&slots);
        let items = Arc::clone(&items);
        moderator
            .register(
                &take,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("item-gate")
                        .on_precondition(move |_| {
                            if items.load(Ordering::SeqCst) > 0 {
                                items.fetch_sub(1, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            slots.fetch_add(1, Ordering::SeqCst);
                        }),
                ),
            )
            .expect("register item-gate");
    }
    if params.fault_permille > 0 {
        moderator
            .register(
                &audit,
                Concern::new("fault-injection"),
                Box::new(PanicInjectionAspect::new(
                    params.fault_permille as f64 / 1000.0,
                    0.0,
                    params.seed,
                )),
            )
            .expect("register fault injector");
    } else {
        // Fault-free runs carry the real audit sink instead: it
        // declares the full capability contract, so the audit row
        // rides the lock-free fast lane and the recorded
        // `fast_path_admits` exercises the lane under the simulated
        // scheduler.
        moderator
            .register(
                &audit,
                Concern::new("audit"),
                Box::new(AuditAspect::new(AuditLog::shared())),
            )
            .expect("register audit sink");
    }
    moderator.wire_wakes(&open, std::slice::from_ref(&take));
    moderator.wire_wakes(&take, std::slice::from_ref(&open));
    moderator.wire_wakes(&audit, &[]);

    let aborted = Arc::new(Mutex::new(Vec::new()));
    for p in 0..params.producers {
        let m = Arc::clone(&moderator);
        let (open, audit) = (open.clone(), audit.clone());
        let aborted = Arc::clone(&aborted);
        let rounds = params.rounds;
        runner.spawn(&format!("p{p}"), move || {
            for _ in 0..rounds {
                invoke(&m, &open, &aborted);
                invoke(&m, &audit, &aborted);
            }
        });
    }
    let total_takes = params.producers * params.rounds;
    for c in 0..params.consumers {
        let m = Arc::clone(&moderator);
        let take = take.clone();
        let aborted = Arc::clone(&aborted);
        // Split the takes; earlier consumers absorb the remainder.
        let share = total_takes / params.consumers + u64::from(c < total_takes % params.consumers);
        runner.spawn(&format!("c{c}"), move || {
            for _ in 0..share {
                invoke(&m, &take, &aborted);
            }
        });
    }

    let report = runner.run();
    let stats = moderator.stats();
    let faults = aborted.lock().unwrap().clone();
    let grants = trace
        .events()
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::ActivationResumed))
        .map(|e| (e.invocation, e.method.as_str().to_string()))
        .collect();
    RunRecord {
        seed: params.seed,
        producers: params.producers,
        consumers: params.consumers,
        rounds: params.rounds,
        fault_permille: params.fault_permille,
        threads: report.names,
        schedule: report.schedule,
        clock_ns: report.clock.as_nanos(),
        grants,
        faults,
        fast_path_admits: stats.fast_path_admits,
        fast_path_fallbacks: stats.fast_path_fallbacks,
        error: report.error,
    }
}

/// Shape of one simulated multi-moderator topology run: a ring of
/// [`TopologyParams::nodes`] [`LeaseNode`]s, each with its own
/// [`AspectModerator`], handing leases off over virtual planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyParams {
    /// Scheduler and delivery-jitter seed.
    pub seed: u64,
    /// Ring size (each node is its own moderator).
    pub nodes: u64,
    /// Leases circulating the ring; all start at node 0.
    pub leases: u64,
    /// Full ring laps each lease makes before retiring.
    pub hops: u64,
    /// Upper bound on the seeded per-message delivery delay, in
    /// nanoseconds of virtual time. Nonzero values make arrivals
    /// overtake each other in flight; the receiver's `LeaseIn`
    /// reassembles sequence order before granting.
    pub max_delay_ns: u64,
    /// Drop knob: *severs* the nth frame send (global 1-based count)
    /// if it is a grant — that copy and every retransmission of it are
    /// lost. With `expiry_ns == 0` nothing retransmits or reclaims, the
    /// receiver's cursor starves, and the run ends in a detected
    /// deadlock. With recovery enabled the sender walks the full
    /// recovery path: backoff retransmits, expiry, reclaim, degraded
    /// local moderation, and a cursor-advancing release.
    pub drop_nth: Option<u64>,
    /// Duplicate knob: the nth frame send is delivered twice, with
    /// independent jitter. The receiver's dedup window counts the
    /// stray copy in `dup_dropped` and never delivers it, with or
    /// without recovery.
    pub dup_nth: Option<u64>,
    /// Lease expiry deadline in nanoseconds of virtual time. 0 turns
    /// recovery off — no retransmission, no reclaim: the ablation the
    /// recovery protocol is measured against, on the same ring.
    pub expiry_ns: u64,
}

/// SplitMix64 finalizer: the per-message delivery jitter is a pure
/// function of `(seed, channel, seq)`, so record and replay draw
/// identical delays without consuming scheduler randomness.
fn jitter(seed: u64, channel: u64, seq: u64) -> u64 {
    let mut z = seed
        .wrapping_add(channel.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(seq.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Frames in flight in one direction of a link: `(encoded body,
/// deliver_at, tie-break index)`.
type Flight = Vec<(Vec<u8>, Duration, u64)>;
type Plane = (parking_lot::Mutex<Flight>, Arc<dyn Waiter<Flight>>);

/// The ring, the virtual network between its nodes, and what the run
/// records. `grant_planes[c]` delivers into node `c`; `ack_planes[c]`
/// carries node `c`'s acks back to its predecessor. The grant plane
/// drops, delays, and duplicates; the ack plane only delays — the
/// declared fault model (acks ride the TCP return path).
struct Net {
    p: TopologyParams,
    clock: ManualClock,
    ring: Vec<LeaseNode>,
    grant_planes: Vec<Plane>,
    ack_planes: Vec<Plane>,
    sends: AtomicU64,
    acks: AtomicU64,
    /// `(channel, seq)` of grants the drop knob severed.
    severed: Mutex<Vec<(u64, u64)>>,
    handoffs: Mutex<Vec<(u64, u64, u64)>>,
    retired: Mutex<Vec<u64>>,
}

impl Net {
    fn push(&self, plane: &Plane, body: Vec<u8>, delay: u64, index: u64) {
        let deliver_at = self.clock.now() + Duration::from_nanos(delay % (self.p.max_delay_ns + 1));
        plane.0.lock().push((body, deliver_at, index));
        plane.1.wake_all();
    }

    /// Lock-then-wake: a thread parked on `plane` either sees what
    /// changed on its next pass or takes this wake.
    fn wake(plane: &Plane) {
        drop(plane.0.lock());
        plane.1.wake_all();
    }

    /// Puts every frame `node` queued onto grant plane `to`, applying
    /// the drop (sever), duplicate, and delay knobs.
    fn ship(&self, node: &LeaseNode, to: usize) {
        for msg in node.take_outbound() {
            let grant = matches!(msg, LeaseMsg::Grant { .. });
            let key = (to as u64, msg.seq());
            if grant && self.severed.lock().unwrap().contains(&key) {
                continue;
            }
            let nth = self.sends.fetch_add(1, Ordering::SeqCst) + 1;
            if grant && self.p.drop_nth == Some(nth) {
                self.severed.lock().unwrap().push(key);
                continue;
            }
            let body = node.encode(msg)[4..].to_vec();
            let plane = &self.grant_planes[to];
            if self.p.dup_nth == Some(nth) {
                let delay = jitter(self.p.seed ^ 0xD0B1, key.0, nth);
                self.push(plane, body.clone(), delay, nth | (1 << 63));
            }
            self.push(plane, body, jitter(self.p.seed, key.0, nth), nth);
        }
    }

    /// Waits until a frame on `plane` is due or `timer` passes, then
    /// takes the due frames in `(deliver_at, index)` order. `None` once
    /// `node` stopped.
    fn take_due(
        &self,
        plane: &Plane,
        node: &LeaseNode,
        timer: impl Fn() -> Option<Duration>,
    ) -> Option<Flight> {
        let mut g = plane.0.lock();
        loop {
            if node.stopped() {
                return None;
            }
            let now = self.clock.now();
            let (mut due, rest): (Flight, Flight) = g.drain(..).partition(|m| m.1 <= now);
            *g = rest;
            let timer = timer();
            if !due.is_empty() || timer.is_some_and(|at| at <= now) {
                due.sort_by_key(|m| (m.1, m.2));
                return Some(due);
            }
            match g.iter().map(|m| m.1).chain(timer).min() {
                Some(at) => {
                    plane.1.park_for(&mut g, at - now);
                }
                None => plane.1.park(&mut g),
            }
        }
    }

    /// Runs every visit at node `i` and ships each grant onward; the
    /// last retirement stops the whole ring.
    fn worker(&self, i: usize) {
        let (node, next) = (&self.ring[i], (i + 1) % self.ring.len());
        while let Some(lease) = node.acquire() {
            if !node.forward(lease, self.clock.now()) {
                self.ship(node, next);
                // The daemon may now have a retransmit timer to watch.
                Net::wake(&self.ack_planes[next]);
                continue;
            }
            let mut retired = self.retired.lock().unwrap();
            retired.push(lease.lease);
            if retired.len() as u64 == self.p.leases {
                drop(retired);
                self.ring.iter().for_each(LeaseNode::stop);
                let planes = self.grant_planes.iter().chain(&self.ack_planes);
                planes.for_each(Net::wake);
            }
        }
    }

    /// Feeds node `i` each due grant-plane frame and puts its ack on
    /// the return plane.
    fn courier(&self, i: usize) {
        let node = &self.ring[i];
        while let Some(due) = self.take_due(&self.grant_planes[i], node, || None) {
            for (body, _, _) in due {
                let Ok(frame) = decode_peer(&body) else {
                    continue;
                };
                let Some((deliveries, ack)) = node.receive(frame.msg) else {
                    continue;
                };
                let handoffs = deliveries.iter().map(|d| (i as u64, d.seq, d.lease));
                self.handoffs.lock().unwrap().extend(handoffs);
                let nth = self.acks.fetch_add(1, Ordering::SeqCst) + 1;
                let delay = jitter(self.p.seed ^ 0xACC5, i as u64, nth);
                let body = node.encode(ack)[4..].to_vec();
                self.push(&self.ack_planes[i], body, delay, nth);
            }
        }
    }

    /// Feeds node `i` every ack due before its timers run — the reclaim
    /// guard — then drives the timers and ships what they queue.
    fn daemon(&self, i: usize) {
        let (node, next) = (&self.ring[i], (i + 1) % self.ring.len());
        let plane = &self.ack_planes[next];
        while let Some(due) = self.take_due(plane, node, || node.next_deadline()) {
            for (body, _, _) in due {
                if let Ok(reply) = decode_peer_wire(&body) {
                    node.on_reply(reply, self.clock.now());
                }
            }
            node.poll(self.clock.now());
            self.ship(node, next);
        }
    }
}

/// Runs the multi-moderator ring under a fresh simulation. With
/// `script: None` the run records (scheduling by `params.seed`); with
/// `Some(schedule)` it replays that schedule. The returned record is a
/// pure function of `(params, script)`.
///
/// Every node is an [`amf_service::LeaseNode`] — the node
/// [`amf_service::PeerNode`] drives over TCP — on the simulation's
/// engine and clock, and every handoff is an encoded wire frame
/// ([`amf_service::codec`]). Three simulated threads drive each node:
/// the *worker* runs its visits, the *courier* feeds it due grants and
/// releases and returns the acks, the *daemon* feeds it due acks and
/// drives its timers. The last retirement stops every node. With
/// `expiry_ns == 0` a dropped handoff ([`TopologyParams::drop_nth`])
/// starves the receiver's cursor and the run ends in a detected
/// deadlock naming the parked ring.
pub fn run_topology_scenario(
    params: &TopologyParams,
    script: Option<Vec<usize>>,
) -> TopologyRecord {
    assert!(params.nodes >= 1, "a ring needs at least one node");
    assert!(
        params.leases >= 1 && params.hops >= 1,
        "nothing to simulate"
    );
    let mut runner = match script {
        None => SimRunner::new(params.seed),
        Some(s) => SimRunner::replay(params.seed, s),
    };
    let engine = runner.engine();
    let lease_cfg = LeaseConfig {
        expiry: Duration::from_nanos(params.expiry_ns),
        backoff_base: Duration::from_nanos((params.expiry_ns / 8).max(1)),
        backoff_cap: Duration::from_nanos((params.expiry_ns / 2).max(1)),
        jitter_seed: params.seed,
    };
    let ring: Vec<LeaseNode> = (0..params.nodes)
        .map(|i| {
            let builder = AspectModerator::builder()
                .engine(Arc::new(runner.engine()))
                .clock(Arc::new(runner.clock()));
            LeaseNode::new(i, builder, lease_cfg.clone(), 0)
        })
        .collect();
    ring[0].seed(params.leases, params.nodes * params.hops);
    let planes = || -> Vec<Plane> {
        let plane = || (Default::default(), GrantSource::<Flight>::waiter(&engine));
        ring.iter().map(|_| plane()).collect()
    };
    let net = Arc::new(Net {
        p: params.clone(),
        clock: runner.clock(),
        grant_planes: planes(),
        ack_planes: planes(),
        ring,
        sends: AtomicU64::new(0),
        acks: AtomicU64::new(0),
        severed: Mutex::new(Vec::new()),
        handoffs: Mutex::new(Vec::new()),
        retired: Mutex::new(Vec::new()),
    });
    for i in 0..net.ring.len() {
        let roles = [
            ("w", Net::worker as fn(&_, _)),
            ("courier", Net::courier),
            ("daemon", Net::daemon),
        ];
        for (role, body) in roles {
            let net = Arc::clone(&net);
            runner.spawn(&format!("{role}{i}"), move || body(&net, i));
        }
    }

    let report = runner.run();
    let stats: Vec<PeerStats> = net.ring.iter().map(LeaseNode::stats).collect();
    let sum = |f: fn(&PeerStats) -> u64| stats.iter().map(f).sum();
    let handoffs = net.handoffs.lock().unwrap().clone();
    let retired = net.retired.lock().unwrap().clone();
    TopologyRecord {
        seed: params.seed,
        nodes: params.nodes,
        leases: params.leases,
        hops: params.hops,
        max_delay_ns: params.max_delay_ns,
        drop_nth: params.drop_nth,
        dup_nth: params.dup_nth,
        expiry_ns: params.expiry_ns,
        threads: report.names,
        schedule: report.schedule,
        clock_ns: report.clock.as_nanos(),
        handoffs,
        retired,
        retransmits: sum(|s| s.retransmits),
        reclaimed: sum(|s| s.reclaimed),
        dup_dropped: sum(|s| s.dup_dropped),
        degraded_entries: sum(|s| s.degraded_entries),
        fast_path_admits: sum(|s| s.fast_path_admits),
        fast_path_fallbacks: sum(|s| s.fast_path_fallbacks),
        error: report.error,
    }
}
