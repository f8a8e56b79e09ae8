//! Node-to-node session layer: the lease-handoff ring on the real wire.
//!
//! [`PeerNode`] is the TCP transport for one [`LeaseNode`], the sans-io
//! ring member that `amf-sim`'s topology scenario drives under virtual
//! time. A node runs two threads: a worker that moderates each visit,
//! and one readiness loop on the crate's epoll binding that owns the
//! listener and both links and sleeps until a frame arrives, a frame is
//! queued, or the node's next timer is due — the events the simulator's
//! driver waits on. Frames use the length-prefixed codec
//! ([`crate::codec::encode_peer`]). The wire drops, delays, duplicates,
//! and dies; the node's recovery machine ([`amf_core::lease`]) covers
//! it, and while the successor is unreachable the node keeps serving
//! local visits in degraded mode. Each fresh inbound connection is
//! greeted with the node's incarnation id and cursor, so a returning
//! predecessor re-syncs, and supersedes the link it replaces.
//!
//! [`FaultProxy`] is the test/bench harness companion: a frame-aware
//! TCP forwarder that drops, duplicates, and delays *grant-plane*
//! frames by a seeded permille, leaving the ack return path intact —
//! the fault model the recovery machine is verified under (see
//! `crates/verify/tests/lease_handoff.rs` and DESIGN.md).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amf_core::{AspectModerator, LeaseConfig};
use parking_lot::Mutex;

use crate::codec::{decode_peer, decode_peer_wire, read_frame, write_frame, PeerWire};
use crate::frame::FrameDecoder;
use crate::node::LeaseNode;
use crate::poll::{Event, Poller, Waker, EPOLLIN};

/// Tuning knobs for one ring node.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// This node's ring index.
    pub node: u64,
    /// Address to listen on for the predecessor's frames (port 0 for
    /// ephemeral).
    pub listen: String,
    /// The successor's listen address — possibly a [`FaultProxy`] in
    /// front of it.
    pub next: String,
    /// Leases seeded into this node's inbox at start (node 0 seeds the
    /// ring; others pass 0).
    pub seed_leases: u64,
    /// Visit budget each seeded lease starts with.
    pub visits: u64,
    /// Recovery knobs: expiry deadline, backoff, jitter seed. Expiry
    /// must be nonzero — a live link without recovery deadlocks on the
    /// first lost frame.
    pub lease: LeaseConfig,
    /// Pause after each moderated visit. Zero for full speed; nonzero
    /// slows circulation so a harness can observe (or interfere with)
    /// the ring at a known position.
    pub visit_delay: Duration,
}

impl Default for PeerConfig {
    fn default() -> Self {
        Self {
            node: 0,
            listen: "127.0.0.1:0".into(),
            next: String::new(),
            seed_leases: 0,
            visits: 0,
            lease: LeaseConfig::default(),
            visit_delay: Duration::ZERO,
        }
    }
}

/// Counters one node exports; the union of moderator telemetry and the
/// lease links' recovery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Leases delivered to this node (in-order grants plus reclaims).
    pub delivered: u64,
    /// Leases that retired here (visit budget exhausted).
    pub retired: u64,
    /// Handoffs reclaimed after expiry.
    pub reclaimed: u64,
    /// Frames retransmitted after a backoff deadline.
    pub retransmits: u64,
    /// Duplicate frames dropped idempotently.
    pub dup_dropped: u64,
    /// Grants refused by per-lease hop fencing.
    pub stale_dropped: u64,
    /// Admissions moderated while the node was degraded (peer
    /// unreachable) — counted by the `degradation` aspect.
    pub degraded_entries: u64,
    /// Times the peer came back after a degraded spell.
    pub rejoins: u64,
    /// Whether the node is degraded right now.
    pub degraded_now: bool,
    /// Fast-lane admissions on the telemetry row.
    pub fast_path_admits: u64,
    /// Fast-lane fallbacks on the telemetry row.
    pub fast_path_fallbacks: u64,
}

struct PeerShared {
    cfg: PeerConfig,
    node: LeaseNode,
    /// Epoch of the `now` fed to the node.
    start: Instant,
    /// The successor's address; empty means "not wired yet" (the ring
    /// builder binds every listener before wiring the links).
    next: Mutex<String>,
    /// Interrupts the I/O loop's wait: a grant was queued, the
    /// successor moved, or the node stopped.
    waker: Waker,
}

/// Handle on a running ring node. Dropping it shuts the node down.
pub struct PeerNode {
    addr: SocketAddr,
    shared: Arc<PeerShared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for PeerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerNode")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl PeerNode {
    /// Binds the listener, composes the node, seeds its inbox, and
    /// starts its I/O loop and visit worker.
    ///
    /// # Errors
    ///
    /// Propagates bind errors. A `lease.expiry` of zero is refused: a
    /// live link without recovery deadlocks on the first lost frame.
    /// Seeding leases with a zero visit budget is refused too — such a
    /// lease could never be visited.
    pub fn spawn(cfg: PeerConfig) -> io::Result<Self> {
        if !cfg.lease.recovery_enabled() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "live peer links require a nonzero lease expiry",
            ));
        }
        if cfg.seed_leases > 0 && cfg.visits == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seeded leases need a nonzero visit budget",
            ));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(&listener, EPOLLIN, TOK_LISTENER)?;
        poller.add(&waker, EPOLLIN, TOK_WAKER)?;

        // Fresh per process start (and unique across `kill -9` restarts
        // on one host): wall-clock nanos folded with the pid. Senders
        // compare successive greetings, so only inequality across
        // restarts matters, not global uniqueness.
        let incarnation = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1)
            ^ (u64::from(std::process::id()) << 32);
        let node = LeaseNode::new(
            cfg.node,
            AspectModerator::builder(),
            cfg.lease.clone(),
            incarnation,
        );
        node.seed(cfg.seed_leases, cfg.visits);
        let shared = Arc::new(PeerShared {
            node,
            start: Instant::now(),
            next: Mutex::new(cfg.next.clone()),
            waker,
            cfg,
        });

        // I/O: one readiness loop owns the listener and both links.
        // Worker: moderate every lease visit at this node.
        let thread =
            |role| std::thread::Builder::new().name(format!("peer{}-{role}", shared.cfg.node));
        let s = Arc::clone(&shared);
        let io = thread("io").spawn(move || io_loop(&s, &listener, &poller))?;
        let s = Arc::clone(&shared);
        let worker = thread("worker").spawn(move || worker_loop(&s))?;

        Ok(PeerNode {
            addr,
            shared,
            threads: vec![io, worker],
        })
    }

    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// (Re)points the successor link. An empty [`PeerConfig::next`]
    /// plus a later `set_next` lets a ring builder bind every listener
    /// before wiring any link.
    pub fn set_next(&self, addr: &str) {
        *self.shared.next.lock() = addr.to_string();
        self.shared.waker.wake();
    }

    /// Snapshot of the node's counters.
    pub fn stats(&self) -> PeerStats {
        self.shared.node.stats()
    }

    /// The leases that retired at this node, in retirement order.
    pub fn retired(&self) -> Vec<u64> {
        self.shared.node.retired()
    }

    /// First-send → ack-complete latencies of grants acknowledged by
    /// the successor — the handoff recovery-time distribution. A
    /// retransmitted grant shows up as a sample near the backoff
    /// deadline; a reclaimed one never appears here at all.
    pub fn ack_latencies(&self) -> Vec<Duration> {
        self.shared.node.ack_latencies()
    }

    /// Stops both threads and joins them; the I/O loop closes the
    /// listener and every link on its way out. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.node.stop();
        self.shared.waker.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for PeerNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const TOK_PRED: u64 = 2;
const TOK_SUCC: u64 = 3;

/// One nonblocking `TCP_NODELAY` peer connection, registered with the
/// loop's poller, and its sans-io [`FrameDecoder`] — the state machine
/// every transport in this crate parses with.
struct Link {
    stream: TcpStream,
    frames: FrameDecoder,
}

impl Link {
    fn open(stream: TcpStream, poller: &Poller, token: u64) -> io::Result<Link> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        poller.add(&stream, EPOLLIN, token)?;
        Ok(Link {
            stream,
            frames: FrameDecoder::new(),
        })
    }

    /// Reads until the socket would block, handing each frame body to
    /// `each` with the stream to answer on. Returns `false` once EOF, a
    /// transport or framing error, or `each` ends the link.
    fn drain(&mut self, mut each: impl FnMut(&mut TcpStream, &[u8]) -> bool) -> bool {
        let mut scratch = [0u8; 4096];
        loop {
            let fed = match self.stream.read(&mut scratch) {
                Ok(0) => return false,
                Ok(n) => self.frames.feed(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            while let Some(body) = self.frames.next_frame() {
                if !each(&mut self.stream, &body) {
                    return false;
                }
            }
            if fed.is_err() {
                return false;
            }
        }
    }
}

/// The node's transport. Each wakeup drains the successor's replies,
/// (re)connects it, polls the timers and ships the queue, then waits
/// for a ready socket, the waker, or the next deadline. A frame a
/// socket will not take whole drops that link; the grant stays pending
/// in [`amf_core::LeaseOut`] and the next greeting re-syncs.
fn io_loop(s: &PeerShared, listener: &TcpListener, poller: &Poller) {
    let mut events = [Event::default(); 4];
    let mut pred: Option<Link> = None;
    let mut succ: Option<Link> = None;
    // Set once the successor link's greeting has been fed to the node.
    // Frames written earlier could carry numbering from the peer's
    // previous incarnation.
    let mut greeted = false;
    while !s.node.stopped() {
        // Drain every readable reply before `poll` may reclaim — the
        // guard the recovery machine's soundness rests on.
        if let Some(link) = &mut succ {
            let open = link.drain(|_, body| {
                if let Ok(wire) = decode_peer_wire(body) {
                    greeted |= matches!(wire, PeerWire::Hello { .. });
                    s.node.on_reply(wire, s.start.elapsed());
                }
                true
            });
            if !open {
                succ = None;
            }
        }
        if succ.is_none() {
            succ = connect(s, poller);
            greeted = false;
        }
        s.node.poll(s.start.elapsed());
        if let Some(link) = succ.as_mut().filter(|_| greeted) {
            let queued = s.node.take_outbound();
            if queued
                .into_iter()
                .any(|msg| write_frame(&mut link.stream, &s.node.encode(msg)).is_err())
            {
                succ = None;
            }
        }
        let due = s.node.next_deadline();
        let timeout = due.map(|d| d.saturating_sub(s.start.elapsed()));
        let n = poller.wait(&mut events, timeout).unwrap_or(0);
        for ev in &events[..n] {
            match ev.data {
                // A ring node has one predecessor: a reconnect or a
                // replacement process supersedes (and closes) the
                // previous link.
                TOK_LISTENER => {
                    while let Ok((stream, _)) = listener.accept() {
                        pred = greet(s, poller, stream);
                    }
                }
                TOK_PRED => {
                    if let Some(link) = &mut pred {
                        if !link.drain(|stream, body| answer(s, stream, body)) {
                            pred = None;
                        }
                    }
                }
                TOK_WAKER => s.waker.clear(),
                _ => {} // The successor is drained at the top of the loop.
            }
        }
    }
}

/// Connects to the successor; `None` while it is unwired or unreachable
/// (retried at the next wakeup). The backoff base (never zero, which
/// `connect_timeout` refuses) bounds the connect: it already exceeds
/// the one round trip a connect takes, and a dead successor must not
/// hold up the predecessor's acks.
fn connect(s: &PeerShared, poller: &Poller) -> Option<Link> {
    let bound = s.cfg.lease.backoff_base.max(Duration::from_nanos(1));
    let target = s.next.lock().clone();
    let stream = target
        .to_socket_addrs()
        .ok()?
        .find_map(|addr| TcpStream::connect_timeout(&addr, bound).ok())?;
    Link::open(stream, poller, TOK_SUCC).ok()
}

/// Opens a fresh predecessor link and greets it with this node's
/// incarnation id and cursor, so a returning predecessor re-syncs — and
/// can detect a restart by the id alone — before sending anything.
fn greet(s: &PeerShared, poller: &Poller, stream: TcpStream) -> Option<Link> {
    let mut link = Link::open(stream, poller, TOK_PRED).ok()?;
    write_frame(&mut link.stream, &s.node.greeting()).ok()?;
    Some(link)
}

/// Feeds one predecessor frame to the node and writes back its ack;
/// `false` closes the link.
fn answer(s: &PeerShared, stream: &mut TcpStream, body: &[u8]) -> bool {
    let Ok(frame) = decode_peer(body) else {
        return false;
    };
    // The ack plane is outbound-only; an ack here is a protocol error
    // from a confused peer. Drop it.
    s.node
        .receive(frame.msg)
        .is_none_or(|(_, ack)| write_frame(stream, &s.node.encode(ack)).is_ok())
}

fn worker_loop(s: &PeerShared) {
    while let Some(lease) = s.node.acquire() {
        if !s.cfg.visit_delay.is_zero() {
            std::thread::sleep(s.cfg.visit_delay);
        }
        // Only a queued grant needs the I/O loop.
        if !s.node.forward(lease, s.start.elapsed()) {
            s.waker.wake();
        }
    }
}

/// Per-frame decision drawn by the fault proxy: a pure function of
/// `(seed, index)` so every run at a pinned seed injects the same
/// faults.
fn fault_draw(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Knobs for a [`FaultProxy`].
#[derive(Debug, Clone)]
pub struct FaultProxyConfig {
    /// Address to listen on (port 0 for ephemeral).
    pub listen: String,
    /// Where real frames go.
    pub target: String,
    /// Per-frame drop probability, in permille, on the forward (grant)
    /// plane.
    pub drop_permille: u64,
    /// Per-frame duplication probability, in permille.
    pub dup_permille: u64,
    /// Upper bound on a seeded per-frame forwarding delay.
    pub max_delay: Duration,
    /// Decision seed.
    pub seed: u64,
}

impl Default for FaultProxyConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            target: String::new(),
            drop_permille: 0,
            dup_permille: 0,
            max_delay: Duration::ZERO,
            seed: 42,
        }
    }
}

/// Counters a [`FaultProxy`] keeps about its mischief.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultProxyStats {
    /// Frames forwarded unharmed.
    pub forwarded: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames forwarded twice.
    pub duplicated: u64,
}

struct ProxyShared {
    cfg: FaultProxyConfig,
    index: AtomicU64,
    forwarded: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    stop: AtomicBool,
    /// Both sockets of each live session, keyed by a per-accept id so
    /// each session removes its own entry on exit — a predecessor that
    /// reconnects repeatedly must not accumulate dead sockets here.
    conns: Mutex<HashMap<u64, [TcpStream; 2]>>,
    next_session: AtomicU64,
}

impl ProxyShared {
    /// Closes and forgets both sockets of `session`. Each plane calls
    /// this on exit, so the other plane's blocked read returns too.
    fn end_session(&self, session: u64) {
        for conn in self.conns.lock().remove(&session).into_iter().flatten() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// A frame-aware unreliable link: forwards client→target frames with
/// seeded drop/duplicate/delay faults, and copies the target→client
/// byte stream verbatim (acks survive — the declared fault model).
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl FaultProxy {
    /// Binds the proxy and starts forwarding.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn spawn(cfg: FaultProxyConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            cfg,
            index: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fault-proxy-accept".into())
                .spawn(move || proxy_accept(&listener, &shared))?
        };
        Ok(FaultProxy {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What the proxy has done so far.
    pub fn stats(&self) -> FaultProxyStats {
        FaultProxyStats {
            forwarded: self.shared.forwarded.load(Ordering::SeqCst),
            dropped: self.shared.dropped.load(Ordering::SeqCst),
            duplicated: self.shared.duplicated.load(Ordering::SeqCst),
        }
    }

    /// Stops forwarding and joins the proxy threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for conn in self.shared.conns.lock().drain().flat_map(|(_, pair)| pair) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn proxy_accept(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = stream else { continue };
        let Ok(target) = TcpStream::connect(&shared.cfg.target) else {
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = target.set_nodelay(true);
        let session = shared.next_session.fetch_add(1, Ordering::SeqCst);
        if let (Ok(c), Ok(t)) = (client.try_clone(), target.try_clone()) {
            shared.conns.lock().insert(session, [c, t]);
        }
        // Forward plane: client → target, frame-aware, faults applied.
        {
            let shared = Arc::clone(shared);
            let (mut from, mut to) = match (client.try_clone(), target.try_clone()) {
                (Ok(f), Ok(t)) => (f, t),
                _ => continue,
            };
            let _ = std::thread::Builder::new()
                .name("fault-proxy-fwd".into())
                .spawn(move || {
                    while !shared.stop.load(Ordering::SeqCst) {
                        let body = match read_frame(&mut from) {
                            Ok(Some(b)) => b,
                            Ok(None) | Err(_) => break,
                        };
                        let i = shared.index.fetch_add(1, Ordering::SeqCst);
                        let draw = fault_draw(shared.cfg.seed, i);
                        if draw % 1000 < shared.cfg.drop_permille {
                            shared.dropped.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        let delay_ns = shared.cfg.max_delay.as_nanos() as u64;
                        if delay_ns > 0 {
                            std::thread::sleep(Duration::from_nanos(
                                fault_draw(shared.cfg.seed ^ 0xDE1A, i) % (delay_ns + 1),
                            ));
                        }
                        let mut framed = Vec::with_capacity(4 + body.len());
                        framed.extend_from_slice(&(body.len() as u32).to_be_bytes());
                        framed.extend_from_slice(&body);
                        let copies = if (draw >> 32) % 1000 < shared.cfg.dup_permille {
                            shared.duplicated.fetch_add(1, Ordering::SeqCst);
                            2
                        } else {
                            1
                        };
                        if (0..copies).any(|_| to.write_all(&framed).is_err())
                            || to.flush().is_err()
                        {
                            break;
                        }
                        shared.forwarded.fetch_add(1, Ordering::SeqCst);
                    }
                    shared.end_session(session);
                });
        }
        // Return plane: target → client, verbatim copy.
        {
            let shared = Arc::clone(shared);
            let (mut from, mut to) = (target, client);
            let _ = std::thread::Builder::new()
                .name("fault-proxy-ret".into())
                .spawn(move || {
                    let mut buf = [0u8; 4096];
                    while !shared.stop.load(Ordering::SeqCst) {
                        match from.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    shared.end_session(session);
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A predecessor that reconnects over and over must not leave its
    /// dead sessions' sockets tracked by the proxy.
    #[test]
    fn reconnecting_client_does_not_accumulate_sessions() {
        let target = TcpListener::bind("127.0.0.1:0").expect("bind target");
        let target_addr = target.local_addr().expect("target addr").to_string();
        // The target holds every connection open: only the client's
        // close can end a session.
        std::thread::spawn(move || target.incoming().collect::<Vec<_>>());
        let proxy = FaultProxy::spawn(FaultProxyConfig {
            target: target_addr,
            ..FaultProxyConfig::default()
        })
        .expect("spawn proxy");
        for _ in 0..50 {
            drop(TcpStream::connect(proxy.addr()).expect("connect through proxy"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while proxy.shared.next_session.load(Ordering::SeqCst) < 50
            || proxy.shared.conns.lock().len() > 1
        {
            assert!(
                Instant::now() < deadline,
                "{} sessions still tracked",
                proxy.shared.conns.lock().len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
