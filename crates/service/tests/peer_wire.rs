//! In-process ring of [`PeerNode`]s over real TCP: the recovery state
//! machine exercised against loopback sockets, with and without an
//! unreliable link in the middle.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use amf_core::lease::LeaseMsg;
use amf_core::LeaseConfig;
use amf_service::codec::{
    decode_peer, decode_peer_wire, encode_hello, encode_peer, read_frame, write_frame, PeerFrame,
};
use amf_service::PeerWire;
use amf_service::{FaultProxy, FaultProxyConfig, PeerConfig, PeerNode};

fn lease_cfg(expiry_ms: u64) -> LeaseConfig {
    LeaseConfig {
        expiry: Duration::from_millis(expiry_ms),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
        jitter_seed: 7,
    }
}

/// Spawns `n` nodes, wires the ring `0 → 1 → … → 0`, seeding `leases`
/// at node 0 with `visits` each. `wrap` interposes on each link address
/// (identity for a clean ring, a fault proxy for an unreliable one).
fn spawn_ring(
    n: usize,
    leases: u64,
    visits: u64,
    lease: LeaseConfig,
    mut wrap: impl FnMut(usize, String) -> String,
) -> Vec<PeerNode> {
    // Bind every listener first so successor addresses exist, then wire
    // the links.
    let nodes: Vec<PeerNode> = (0..n)
        .map(|i| {
            PeerNode::spawn(PeerConfig {
                node: i as u64,
                seed_leases: if i == 0 { leases } else { 0 },
                visits,
                lease: lease.clone(),
                ..PeerConfig::default()
            })
            .expect("spawn node")
        })
        .collect();
    let addrs: Vec<String> = nodes.iter().map(|p| p.addr().to_string()).collect();
    for (i, node) in nodes.iter().enumerate() {
        let next = wrap(i, addrs[(i + 1) % n].clone());
        node.set_next(&next);
    }
    nodes
}

fn await_retired(nodes: &[PeerNode], want: u64, deadline: Duration) -> u64 {
    let t0 = Instant::now();
    loop {
        let got: u64 = nodes.iter().map(|n| n.stats().retired).sum();
        if got >= want || t0.elapsed() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn assert_no_lease_lost_or_doubled(nodes: &[PeerNode], leases: u64) {
    let mut retired: Vec<u64> = nodes.iter().flat_map(|n| n.retired()).collect();
    retired.sort_unstable();
    let expect: Vec<u64> = (0..leases).collect();
    assert_eq!(retired, expect, "every lease retires exactly once");
}

#[test]
fn clean_ring_circulates_and_retires_every_lease() {
    let leases = 4;
    let visits = 9; // 3 laps of 3 nodes
    let nodes = spawn_ring(3, leases, visits, lease_cfg(200), |_, addr| addr);
    let got = await_retired(&nodes, leases, Duration::from_secs(10));
    assert_eq!(got, leases, "all leases retire");
    assert_no_lease_lost_or_doubled(&nodes, leases);
    let total_delivered: u64 = nodes.iter().map(|n| n.stats().delivered).sum();
    // Every visit after the seeded ones is a delivery.
    assert_eq!(total_delivered, leases * visits - leases);
    for n in &nodes {
        let s = n.stats();
        assert_eq!(s.reclaimed, 0, "no reclaims on a clean ring: {s:?}");
        assert!(!s.degraded_now);
        assert!(s.fast_path_admits > 0, "telemetry row rides the fast lane");
    }
}

#[test]
fn lossy_ring_retransmits_dedups_and_still_loses_nothing() {
    let leases = 3;
    let visits = 9;
    let mut proxies: Vec<FaultProxy> = Vec::new();
    let nodes = spawn_ring(3, leases, visits, lease_cfg(150), |i, addr| {
        let proxy = FaultProxy::spawn(FaultProxyConfig {
            target: addr,
            drop_permille: 100,
            dup_permille: 100,
            max_delay: Duration::from_micros(200),
            seed: 0xC0FFEE + i as u64,
            ..FaultProxyConfig::default()
        })
        .expect("spawn proxy");
        let a = proxy.addr().to_string();
        proxies.push(proxy);
        a
    });
    let got = await_retired(&nodes, leases, Duration::from_secs(30));
    assert_eq!(got, leases, "all leases survive a 10% drop / 10% dup link");
    assert_no_lease_lost_or_doubled(&nodes, leases);
    let dropped: u64 = proxies.iter().map(|p| p.stats().dropped).sum();
    let duplicated: u64 = proxies.iter().map(|p| p.stats().duplicated).sum();
    let retransmits: u64 = nodes.iter().map(|n| n.stats().retransmits).sum();
    let dups_dropped: u64 = nodes.iter().map(|n| n.stats().dup_dropped).sum();
    if dropped > 0 {
        assert!(retransmits > 0, "drops must be answered by retransmits");
    }
    if duplicated > 0 {
        assert!(dups_dropped > 0, "duplicates must be dropped idempotently");
    }
}

/// Regression for incarnation fencing in the greeting: a successor that
/// dies and is replaced on the same port greets with a fresh
/// incarnation id, and the sender must rebase — resend every in-flight
/// grant immediately — even though the replacement's cursor of 0 makes
/// the link look structurally intact (nothing was ever acked, so every
/// sequence number is still pending). Before incarnation ids, that
/// exact shape passed the intact heuristic and the sender sat on its
/// backoff timers while the new peer waited.
#[test]
fn replaced_successor_incarnation_forces_immediate_rebase() {
    // Recovery timers pushed far outside the test window: any frame
    // arriving promptly after a greeting came from the greeting path
    // (first-contact send or rebase resend), not from a backoff
    // retransmission.
    let sender = PeerNode::spawn(PeerConfig {
        node: 0,
        seed_leases: 2,
        visits: 4,
        lease: LeaseConfig {
            expiry: Duration::from_secs(120),
            backoff_base: Duration::from_secs(30),
            backoff_cap: Duration::from_secs(30),
            jitter_seed: 7,
        },
        ..PeerConfig::default()
    })
    .expect("spawn sender");

    // The "successor" is this test playing receiver on a raw socket, so
    // it can die and come back with whatever incarnation it likes.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake successor");
    sender.set_next(&listener.local_addr().expect("local addr").to_string());

    let accept_and_greet = |incarnation: u64| -> TcpStream {
        let (mut conn, _) = listener.accept().expect("sender connects");
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout");
        write_frame(&mut conn, &encode_hello(1, incarnation, 0)).expect("send greeting");
        conn
    };
    let collect_grants = |conn: &mut TcpStream, want: usize, window: Duration| {
        let deadline = Instant::now() + window;
        let mut grants: Vec<PeerFrame> = Vec::new();
        while grants.len() < want && Instant::now() < deadline {
            match read_frame(conn) {
                Ok(Some(body)) => {
                    let frame = decode_peer(&body).expect("well-formed peer frame");
                    if matches!(frame.msg, LeaseMsg::Grant { .. }) {
                        grants.push(frame);
                    }
                }
                Ok(None) => break,
                Err(_) => {} // read timeout — poll again
            }
        }
        grants
    };

    // First contact: both seeded leases are granted; we ack nothing.
    let mut conn = accept_and_greet(100);
    let first = collect_grants(&mut conn, 2, Duration::from_secs(10));
    assert_eq!(first.len(), 2, "both in-flight grants reach the successor");
    drop(conn);

    // Reconnect of the *same* incarnation: the link is intact, the
    // cursor is authoritative, and nothing may be resent ahead of the
    // (distant) backoff deadline.
    let mut conn = accept_and_greet(100);
    let quiet = collect_grants(&mut conn, 1, Duration::from_millis(800));
    assert!(
        quiet.is_empty(),
        "same-incarnation reconnect must not trigger a resend: {quiet:?}"
    );
    drop(conn);

    // The replacement process greets with a new incarnation at cursor
    // 0 — structurally identical to the intact case above. The
    // incarnation mismatch must force a rebase: both grants resent
    // immediately, renumbered from the new peer's cursor.
    let mut conn = accept_and_greet(999);
    let rebased = collect_grants(&mut conn, 2, Duration::from_secs(10));
    assert_eq!(rebased.len(), 2, "rebase resends every in-flight grant");
    let mut seqs = Vec::new();
    let mut leases = Vec::new();
    for frame in &rebased {
        if let LeaseMsg::Grant { seq, lease, .. } = frame.msg {
            seqs.push(seq);
            leases.push(lease);
        }
    }
    seqs.sort_unstable();
    leases.sort_unstable();
    assert_eq!(seqs, vec![0, 1], "resends renumber from the new cursor");
    assert_eq!(leases, vec![0, 1], "no lease lost in the handover");
}

#[test]
fn severed_link_degrades_locally_and_loses_nothing() {
    let leases = 3;
    let visits = 6;
    // Node 0's successor is a dead address: every handoff expires and
    // is reclaimed, so all visits happen locally in degraded mode.
    let nodes = spawn_ring(1, leases, visits, lease_cfg(60), |_, _| {
        "127.0.0.1:9".into()
    });
    let got = await_retired(&nodes, leases, Duration::from_secs(20));
    assert_eq!(got, leases, "a partitioned node still finishes its work");
    assert_no_lease_lost_or_doubled(&nodes, leases);
    let s = nodes[0].stats();
    assert!(s.reclaimed > 0, "handoffs must expire and reclaim: {s:?}");
    assert!(
        s.degraded_entries > 0,
        "degraded admissions are counted: {s:?}"
    );
    assert!(s.degraded_now, "peer never returned, node stays degraded");
}

/// With nothing lost on the link and a backoff base far above loopback
/// round trips, every grant is acked before its first retry is due: a
/// transport that answers promptly never retransmits.
#[test]
fn clean_ring_never_retransmits() {
    let leases = 4;
    let lease = LeaseConfig {
        backoff_base: Duration::from_millis(20),
        ..lease_cfg(2000)
    };
    let nodes = spawn_ring(3, leases, 30, lease, |_, addr| addr);
    let got = await_retired(&nodes, leases, Duration::from_secs(30));
    assert_eq!(got, leases, "all leases retire");
    assert_no_lease_lost_or_doubled(&nodes, leases);
    let (retransmits, dup_dropped) = nodes.iter().map(PeerNode::stats).fold((0, 0), |acc, s| {
        (acc.0 + s.retransmits, acc.1 + s.dup_dropped)
    });
    assert_eq!((retransmits, dup_dropped), (0, 0));
}

/// How many of this process's threads belong to ring node `node`.
fn node_threads(node: u64) -> usize {
    let prefix = format!("peer{node}-");
    std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(&prefix))
        .count()
}

/// A node's I/O is one readiness loop: the thread count does not grow
/// with its inbound connections.
#[test]
fn a_node_runs_two_threads_whatever_its_connections() {
    let node = PeerNode::spawn(PeerConfig {
        node: 77,
        lease: lease_cfg(200),
        ..PeerConfig::default()
    })
    .expect("spawn node");
    let conns: Vec<TcpStream> = (0..10)
        .map(|_| {
            let mut conn = TcpStream::connect(node.addr()).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let hello = read_frame(&mut conn).expect("read").expect("greeting");
            assert!(matches!(
                decode_peer_wire(&hello),
                Ok(PeerWire::Hello { .. })
            ));
            conn
        })
        .collect();
    // The worker names itself once it runs; wait for that, not longer.
    let deadline = Instant::now() + Duration::from_secs(10);
    while node_threads(77) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(node_threads(77), 2, "one I/O loop and one worker");
    drop(conns);
}

/// A predecessor that reconnects (or is replaced) is greeted with the
/// node's cursor, and its new link supersedes the old one, which the
/// node closes.
#[test]
fn a_returning_predecessor_is_greeted_and_supersedes_the_old_link() {
    let node = PeerNode::spawn(PeerConfig {
        node: 5,
        lease: lease_cfg(200),
        ..PeerConfig::default()
    })
    .expect("spawn node");
    let mut old: Option<TcpStream> = None;
    for k in 0..5 {
        let mut conn = TcpStream::connect(node.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let hello = read_frame(&mut conn).expect("read").expect("greeting");
        assert!(
            matches!(decode_peer_wire(&hello), Ok(PeerWire::Hello { cursor, .. }) if cursor == k),
            "greeting {k} carries the cursor"
        );
        if let Some(mut prev) = old.take() {
            match read_frame(&mut prev) {
                Ok(None) => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                other => panic!("superseded link must be closed, got {other:?}"),
            }
        }
        let msg = LeaseMsg::Grant {
            seq: k,
            lease: k,
            hop: 1,
            visits: 1,
        };
        write_frame(&mut conn, &encode_peer(&PeerFrame { node: 4, msg })).expect("grant");
        let ack = read_frame(&mut conn).expect("read").expect("ack");
        assert_eq!(
            decode_peer(&ack).expect("ack frame").msg,
            LeaseMsg::Ack {
                seq: k,
                cursor: k + 1
            }
        );
        old = Some(conn);
    }
    let got = await_retired(std::slice::from_ref(&node), 5, Duration::from_secs(10));
    assert_eq!(got, 5, "every granted lease retires");
    assert_eq!(node.retired(), [0, 1, 2, 3, 4]);
}
