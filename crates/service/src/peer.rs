//! Node-to-node session layer: the lease-handoff ring on the real wire.
//!
//! [`PeerNode`] is the TCP transport for one [`LeaseNode`], the sans-io
//! ring member that `amf-sim`'s topology scenario drives under virtual
//! time. Its threads ship the node's frames to the successor over the
//! length-prefixed codec ([`crate::codec::encode_peer`]), feed the node
//! what arrives, and drive its timers off the wall clock. The wire
//! drops, delays, duplicates, and dies; the node's recovery machine
//! ([`amf_core::lease`]) covers it, and while the successor is
//! unreachable the node keeps serving local visits in degraded mode.
//! Each fresh inbound connection is greeted with the node's incarnation
//! id and cursor, so a returning predecessor re-syncs.
//!
//! [`FaultProxy`] is the test/bench harness companion: a frame-aware
//! TCP forwarder that drops, duplicates, and delays *grant-plane*
//! frames by a seeded permille, leaving the ack return path intact —
//! the fault model the recovery machine is verified under (see
//! `crates/verify/tests/lease_handoff.rs` and DESIGN.md).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amf_core::{AspectModerator, LeaseConfig};
use parking_lot::Mutex;

use crate::codec::{decode_peer, decode_peer_wire, read_frame, write_frame, PeerWire};
use crate::frame::FrameDecoder;
use crate::node::LeaseNode;

/// Granularity of the outbound pump (socket read timeout): bounds both
/// forwarding latency and how late a timer can fire.
const IO_TICK: Duration = Duration::from_millis(1);

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
    listener: TcpListener,
    /// Epoch of the `now` fed to the node.
    start: Instant,
    /// The successor's address; empty means "not wired yet" (the ring
    /// builder binds every listener before wiring the links).
    next: Mutex<String>,
    /// Shutdown handles for the live inbound connections, keyed by a
    /// per-accept id so each session removes its own entry on exit — a
    /// predecessor that reconnects repeatedly must not accumulate dead
    /// sockets here.
    inbound_conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
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
    /// starts the session threads.
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
            listener,
            start: Instant::now(),
            next: Mutex::new(cfg.next.clone()),
            inbound_conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            cfg,
        });

        // Inbound: accept the predecessor, greet, feed the node its
        // frames, write back the acks. Outbound: own the successor
        // connection, ship the node's queue, feed it replies, drive its
        // timers. Worker: moderate every lease visit at this node.
        let loops = [
            ("accept", accept_loop as fn(&_)),
            ("out", outbound_loop),
            ("worker", worker_loop),
        ];
        let threads = loops
            .into_iter()
            .map(|(role, body)| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("peer{}-{role}", s.cfg.node))
                    .spawn(move || body(&s))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(PeerNode {
            addr,
            shared,
            threads,
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

    /// Stops every session thread and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.node.stop();
        for (_, conn) in self.shared.inbound_conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Wake the accept loop.
        let _ = TcpStream::connect(self.addr);
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

fn accept_loop(s: &Arc<PeerShared>) {
    for stream in s.listener.incoming() {
        if s.node.stopped() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_id = s.next_conn_id.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            s.inbound_conns.lock().insert(conn_id, clone);
        }
        let s = Arc::clone(s);
        // One predecessor at a time in a ring; a thread per connection
        // still keeps a half-dead old socket from blocking a reconnect.
        let _ = std::thread::Builder::new()
            .name(format!("peer{}-in", s.cfg.node))
            .spawn(move || {
                inbound_conn(stream, &s.node);
                s.inbound_conns.lock().remove(&conn_id);
            });
    }
}

fn inbound_conn(mut stream: TcpStream, node: &LeaseNode) {
    // Greet the (possibly returning) predecessor with this node's
    // incarnation id and cursor, so it re-syncs — and can detect a
    // restart by the id alone — before sending anything.
    if write_frame(&mut stream, &node.greeting()).is_err() {
        return;
    }
    while !node.stopped() {
        let Ok(Some(body)) = read_frame(&mut stream) else {
            return;
        };
        let Ok(frame) = decode_peer(&body) else {
            return;
        };
        // The ack plane is outbound-only; an ack here is a protocol
        // error from a confused peer. Drop it.
        let Some((_, ack)) = node.receive(frame.msg) else {
            continue;
        };
        if write_frame(&mut stream, &node.encode(ack)).is_err() {
            return;
        }
    }
}

/// Reads whatever is available before the socket deadline and returns
/// the complete frames: `Ok` on timeout (possibly empty), `Err` on EOF
/// or transport failure. A timeout mid-frame must not desync framing,
/// so partial reads stay buffered in the connection's sans-io
/// [`FrameDecoder`] — the same state machine every other transport in
/// this crate parses with.
fn pump(dec: &mut FrameDecoder, r: &mut impl Read) -> io::Result<Vec<Vec<u8>>> {
    let mut scratch = [0u8; 4096];
    let mut frames = Vec::new();
    loop {
        match r.read(&mut scratch) {
            Ok(0) if frames.is_empty() => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
            }
            Ok(0) => return Ok(frames),
            Ok(n) => {
                dec.feed(&scratch[..n]).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "oversized peer frame")
                })?;
                frames.extend(std::iter::from_fn(|| dec.next_frame()));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(frames);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn outbound_loop(s: &Arc<PeerShared>) {
    let mut conn: Option<TcpStream> = None;
    let mut frames = FrameDecoder::new();
    // Set once this connection's greeting has been fed to the node.
    // Frames written earlier could carry numbering from the peer's
    // previous incarnation.
    let mut greeted = false;
    while !s.node.stopped() {
        // (Re)connect if needed.
        let target = s.next.lock().clone();
        if target.is_empty() {
            std::thread::sleep(IO_TICK);
            continue;
        }
        if conn.is_none() {
            // On failure the timers below still run (that is where
            // expiry-based reclaim and degradation come from); the
            // connect is retried next tick.
            if let Ok(c) = TcpStream::connect(&target) {
                let _ = c.set_nodelay(true);
                let _ = c.set_read_timeout(Some(IO_TICK));
                frames = FrameDecoder::new();
                greeted = false;
                conn = Some(c);
            }
        }
        // Ship the node's queue — once the greeting has re-synced the
        // link (a rebase would invalidate anything written before). A
        // frame that fails to write stays pending in the node's
        // `LeaseOut`; retransmission covers it once the connection is
        // back.
        if let Some(c) = conn.as_mut().filter(|_| greeted) {
            let queued = s.node.take_outbound();
            if queued
                .into_iter()
                .any(|msg| write_frame(c, &s.node.encode(msg)).is_err())
            {
                conn = None;
            }
        }
        // Drain replies until the tick elapses. This doubles as the
        // "drain every readable ack before reclaiming" guard the
        // recovery machine's soundness depends on.
        match conn.as_mut().map(|c| pump(&mut frames, c)) {
            Some(Ok(bodies)) => {
                for wire in bodies.iter().filter_map(|b| decode_peer_wire(b).ok()) {
                    greeted |= matches!(wire, PeerWire::Hello { .. });
                    s.node.on_reply(wire, s.start.elapsed());
                }
            }
            Some(Err(_)) => conn = None,
            None => std::thread::sleep(IO_TICK),
        }
        s.node.poll(s.start.elapsed());
    }
}

fn worker_loop(s: &Arc<PeerShared>) {
    while let Some(lease) = s.node.acquire() {
        if !s.cfg.visit_delay.is_zero() {
            std::thread::sleep(s.cfg.visit_delay);
        }
        s.node.forward(lease, s.start.elapsed());
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
