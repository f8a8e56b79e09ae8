//! End-to-end socket tests: concurrent clients against the TCP service,
//! verifying the moderated buffer's invariants survive the wire.

use std::collections::HashSet;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::Duration;

use amf_service::codec::{decode_response, encode_request, read_frame};
use amf_service::{
    ClientError, Request, Response, ServiceClient, ServiceConfig, TicketService, MAX_FRAME,
};
use aspect_moderator::aspects::auth::AuthToken;
use aspect_moderator::core::FairnessPolicy;
use aspect_moderator::ticketing::Severity;

fn spawn_service(config: ServiceConfig) -> amf_service::ServiceHandle {
    TicketService::spawn("127.0.0.1:0", config).expect("spawn service")
}

#[test]
fn concurrent_clients_lose_no_tickets_and_assign_each_once() {
    let mut handle = spawn_service(ServiceConfig {
        capacity: 8,
        workers: 12,
        op_timeout: Duration::from_secs(5),
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let addr = handle.addr();

    let producers = 4u64;
    let consumers = 4u64;
    let per: u64 = 50;

    let mut assigned: Vec<u64> = Vec::new();
    thread::scope(|s| {
        for p in 0..producers {
            s.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("producer connect");
                for i in 0..per {
                    client
                        .open(token, p * 10_000 + i, Severity::Medium, "e2e")
                        .expect("open");
                }
            });
        }
        let handles: Vec<_> = (0..consumers)
            .map(|_| {
                s.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("consumer connect");
                    (0..per)
                        .map(|_| client.assign(token).expect("assign").id.0)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for h in handles {
            assigned.extend(h.join().expect("consumer thread"));
        }
    });

    // Every opened ticket assigned exactly once: no losses, no doubles.
    let expected: HashSet<u64> = (0..producers)
        .flat_map(|p| (0..per).map(move |i| p * 10_000 + i))
        .collect();
    let got: HashSet<u64> = assigned.iter().copied().collect();
    assert_eq!(assigned.len() as u64, producers * per, "assign count");
    assert_eq!(got, expected, "set of assigned ticket ids");

    let stats = handle.stats();
    assert_eq!(stats.opened, producers * per);
    assert_eq!(stats.assigned, consumers * per);
    assert_eq!(stats.queued, 0);

    // The metrics aspect observed every successful activation.
    let metrics = handle.metrics().all();
    let open = metrics.get("open").expect("open metrics");
    let assign = metrics.get("assign").expect("assign metrics");
    assert_eq!(open.invocations, producers * per);
    assert_eq!(assign.invocations, consumers * per);

    handle.shutdown();
}

#[test]
fn bad_token_is_vetoed_by_the_authentication_aspect() {
    let mut handle = spawn_service(ServiceConfig::default());
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();

    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    match client.open(AuthToken(0xdead), 1, Severity::Low, "evil") {
        Err(ClientError::Aborted(reason)) => {
            assert!(
                reason.contains("authenticate"),
                "reason names the concern: {reason}"
            );
        }
        other => panic!("expected Aborted, got {other:?}"),
    }
    // The veto left the buffer untouched; legitimate traffic flows.
    client.open(token, 1, Severity::Low, "fine").unwrap();
    assert_eq!(client.assign(token).unwrap().id.0, 1);
    assert_eq!(handle.stats().aborts, 1);
    handle.shutdown();
}

#[test]
fn full_buffer_blocks_then_unblocks_across_connections() {
    let mut handle = spawn_service(ServiceConfig {
        capacity: 1,
        op_timeout: Duration::from_millis(50),
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let addr = handle.addr();

    let mut a = ServiceClient::connect(addr).unwrap();
    a.open(token, 1, Severity::Low, "fills the buffer").unwrap();
    // Second open times out blocked: the server answers Blocked rather
    // than holding the connection forever.
    match a.open(token, 2, Severity::Low, "waits") {
        Err(ClientError::Blocked) => {}
        other => panic!("expected Blocked, got {other:?}"),
    }
    assert!(handle.stats().timeouts >= 1);

    // A concurrent open unblocks as soon as another connection assigns.
    let blocked_open = thread::spawn(move || {
        let mut b = ServiceClient::connect(addr).unwrap();
        let mut c = ServiceClient::connect(addr).unwrap();
        let opener =
            thread::spawn(move || b.open(token, 3, Severity::Low, "queued behind the drain"));
        thread::sleep(Duration::from_millis(10));
        let drained = c.assign(token).unwrap();
        (opener.join().unwrap(), drained.id.0)
    });
    let (open_result, drained_id) = blocked_open.join().unwrap();
    // Patience was 50ms and the drain came after 10ms, so the open
    // may have succeeded or—under scheduler noise—timed out; both are
    // protocol-correct. The drained ticket must be the first one.
    assert_eq!(drained_id, 1);
    if open_result.is_ok() {
        let mut d = ServiceClient::connect(addr).unwrap();
        assert_eq!(d.assign(token).unwrap().id.0, 3);
    }
    handle.shutdown();
}

#[test]
fn fifo_service_reports_queue_depth_over_the_wire() {
    let mut handle = spawn_service(ServiceConfig {
        capacity: 1,
        workers: 8,
        op_timeout: Duration::from_secs(5),
        fairness: FairnessPolicy::Fifo,
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let addr = handle.addr();

    let mut filler = ServiceClient::connect(addr).unwrap();
    filler.open(token, 1, Severity::Low, "fills").unwrap();
    // A second open parks on the full buffer's fifo queue.
    let parked = thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).unwrap();
        c.open(token, 2, Severity::Low, "queued")
    });
    while handle.stats().max_queue_depth == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    let mut drainer = ServiceClient::connect(addr).unwrap();
    assert_eq!(drainer.assign(token).unwrap().id.0, 1);
    parked.join().unwrap().unwrap();
    assert_eq!(drainer.assign(token).unwrap().id.0, 2);

    // The high-water mark survives the wire round trip (6th u64 of the
    // StatsReply frame) and matches the local view.
    let wire = drainer.stats().unwrap();
    assert!(wire.max_queue_depth >= 1, "{wire:?}");
    assert_eq!(wire.max_queue_depth, handle.stats().max_queue_depth);
    assert_eq!(wire.queued, 0);
    assert_eq!(wire.opened, 2);
    handle.shutdown();
}

#[test]
fn per_principal_quota_aborts_the_overdraft() {
    let mut handle = spawn_service(ServiceConfig {
        quota_limit: 3,
        quota_window: Duration::from_secs(3600),
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("greedy", "pw");
    handle.authenticator().add_user("frugal", "pw");
    let greedy = handle.authenticator().login("greedy", "pw").unwrap();
    let frugal = handle.authenticator().login("frugal", "pw").unwrap();

    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    for i in 0..3 {
        client.open(greedy, i, Severity::Low, "mine").unwrap();
    }
    match client.open(greedy, 99, Severity::Low, "one too many") {
        Err(ClientError::Aborted(reason)) => {
            assert!(
                reason.contains("quota"),
                "reason names the concern: {reason}"
            );
        }
        other => panic!("expected quota abort, got {other:?}"),
    }
    // Quotas are per principal: another user still has headroom.
    client.open(frugal, 100, Severity::Low, "fine").unwrap();
    handle.shutdown();
}

#[test]
fn stats_and_shutdown_opcodes_work_remotely() {
    let handle = spawn_service(ServiceConfig::default());
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let addr = handle.addr();

    let mut client = ServiceClient::connect(addr).unwrap();
    client.open(token, 5, Severity::Critical, "outage").unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.queued, 1);

    client.shutdown_server().unwrap();
    // The server stops serving: a fresh connection can no longer get an
    // answer (either the connect or the call fails).
    let refused = match ServiceClient::connect(addr) {
        Ok(mut c) => c.stats().is_err(),
        Err(_) => true,
    };
    assert!(refused, "server must not answer after remote shutdown");
    drop(handle);
}

#[test]
fn load_generator_round_trips_over_the_wire() {
    let mut handle = spawn_service(ServiceConfig {
        workers: 8,
        op_timeout: Duration::from_secs(5),
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("load", "pw");
    let token = handle.authenticator().login("load", "pw").unwrap();

    let outcome = amf_service::run_load(&amf_service::LoadConfig {
        clients: 4,
        requests: 400,
        addr: handle.addr(),
        token,
    })
    .expect("load run");
    assert_eq!(outcome.total(), 400);
    assert_eq!(outcome.ok, 400, "no blocks or aborts at this scale");
    assert_eq!(outcome.open_latencies_ns.len(), 200);
    assert_eq!(outcome.assign_latencies_ns.len(), 200);
    assert!(outcome.throughput() > 0.0);
    handle.shutdown();
}

/// Fault containment on the wire: a panicking aspect registered against
/// the *live* service maps to `Response::Err` — the client sees a
/// server error naming the contained panic, the same connection keeps
/// working (the worker thread survived the unwind), and `panics_caught`
/// crosses the wire as the seventh stats counter.
#[test]
fn contained_panic_maps_to_err_and_spares_the_connection() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use aspect_moderator::core::{Concern, FnAspect, Verdict};

    let mut handle = spawn_service(ServiceConfig::default());
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();

    // One-shot bomb on `open`, registered through the live proxy.
    let armed = Arc::new(AtomicBool::new(true));
    let base = handle.proxy().base();
    base.moderator()
        .register(
            base.open_handle(),
            Concern::new("chaos-bomb"),
            Box::new(FnAspect::new("bomb").on_precondition({
                let armed = Arc::clone(&armed);
                move |_| {
                    if armed.swap(false, Ordering::SeqCst) {
                        panic!("wire bomb");
                    }
                    Verdict::Resume
                }
            })),
        )
        .unwrap();

    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    match client.open(token, 1, Severity::Low, "boom") {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("aspect panic contained"), "{msg}");
            assert!(msg.contains("chaos-bomb"), "{msg}");
            assert!(msg.contains("wire bomb"), "{msg}");
        }
        other => panic!("expected contained-panic server error, got {other:?}"),
    }

    // Same connection, next request: the bomb is spent and the worker
    // thread is alive.
    client.open(token, 2, Severity::Low, "fine").unwrap();
    let got = client.assign(token).unwrap();
    assert_eq!(got.id.0, 2);

    let wire = client.stats().unwrap();
    assert_eq!(wire.panics_caught, 1);
    assert_eq!(wire.panics_caught, handle.stats().panics_caught);
    handle.shutdown();
}

// --- Raw-socket behaviour of the reactor front -------------------------
//
// These drive the service with hand-framed bytes instead of
// `ServiceClient`, so they can pipeline, send malformed frames and
// half-close the connection.

/// A service with one provisioned user, plus a raw connection to it.
fn raw_service() -> (amf_service::ServiceHandle, u64, TcpStream) {
    let handle = spawn_service(ServiceConfig::default());
    handle.authenticator().add_user("raw", "pw");
    let AuthToken(token) = handle.authenticator().login("raw", "pw").unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (handle, token, stream)
}

fn open_req(token: u64, id: u64) -> Request {
    Request::Open {
        token,
        id,
        severity: 1,
        summary: format!("raw {id}"),
    }
}

/// Writes every request in one `write_all`: a pipelined burst.
fn pipeline(stream: &mut TcpStream, requests: &[Request], tail: &[u8]) {
    let mut bytes: Vec<u8> = requests
        .iter()
        .flat_map(|r| encode_request(r).to_vec())
        .collect();
    bytes.extend_from_slice(tail);
    stream.write_all(&bytes).unwrap();
}

fn next_response(stream: &mut TcpStream) -> Response {
    let body = read_frame(stream)
        .expect("read response")
        .expect("connection closed before the response");
    decode_response(&body).expect("decode response")
}

fn assert_closed(stream: &mut TcpStream) {
    assert!(
        matches!(read_frame(stream), Ok(None)),
        "server must close the connection"
    );
}

fn assigned_id(resp: Response) -> u64 {
    match resp {
        Response::Ok(Some(ticket)) => ticket.id.0,
        other => panic!("expected an assigned ticket, got {other:?}"),
    }
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let (_handle, token, mut s) = raw_service();
    pipeline(
        &mut s,
        &[
            open_req(token, 1),
            Request::Stats,
            Request::Assign { token },
            open_req(token, 2),
            open_req(token, 3),
            Request::Assign { token },
            Request::Stats,
        ],
        &[],
    );
    assert_eq!(next_response(&mut s), Response::Ok(None));
    match next_response(&mut s) {
        Response::Stats(st) => assert_eq!((st.opened, st.assigned), (1, 0)),
        other => panic!("expected stats, got {other:?}"),
    }
    assert_eq!(assigned_id(next_response(&mut s)), 1);
    assert_eq!(next_response(&mut s), Response::Ok(None));
    assert_eq!(next_response(&mut s), Response::Ok(None));
    assert_eq!(assigned_id(next_response(&mut s)), 2);
    match next_response(&mut s) {
        Response::Stats(st) => assert_eq!((st.opened, st.assigned), (3, 2)),
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn oversized_prefix_is_reported_after_owed_responses_then_closes() {
    let (handle, token, mut s) = raw_service();
    let oversized = u32::try_from(MAX_FRAME + 1).unwrap().to_be_bytes();
    pipeline(
        &mut s,
        &[open_req(token, 1), Request::Assign { token }],
        &oversized,
    );
    assert_eq!(next_response(&mut s), Response::Ok(None));
    assert_eq!(assigned_id(next_response(&mut s)), 1);
    match next_response(&mut s) {
        Response::Err(msg) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("expected a framing error, got {other:?}"),
    }
    assert_closed(&mut s);
    // Only that connection is gone; the service keeps serving.
    let mut fresh = ServiceClient::connect(handle.addr()).unwrap();
    assert_eq!(fresh.stats().unwrap().assigned, 1);
}

#[test]
fn undecodable_body_gets_err_then_the_connection_closes() {
    let (handle, token, mut s) = raw_service();
    let unknown_opcode = [0, 0, 0, 1, 0xEE];
    pipeline(&mut s, &[open_req(token, 1)], &unknown_opcode);
    assert_eq!(next_response(&mut s), Response::Ok(None));
    match next_response(&mut s) {
        Response::Err(msg) => assert!(msg.contains("opcode"), "{msg}"),
        other => panic!("expected a decode error, got {other:?}"),
    }
    assert_closed(&mut s);
    let mut fresh = ServiceClient::connect(handle.addr()).unwrap();
    assert_eq!(fresh.stats().unwrap().opened, 1);
}

#[test]
fn client_eof_mid_pipeline_still_flushes_owed_responses() {
    let (_handle, token, mut s) = raw_service();
    pipeline(
        &mut s,
        &[
            open_req(token, 1),
            open_req(token, 2),
            Request::Assign { token },
            Request::Stats,
        ],
        &[],
    );
    s.shutdown(Shutdown::Write).unwrap();
    assert_eq!(next_response(&mut s), Response::Ok(None));
    assert_eq!(next_response(&mut s), Response::Ok(None));
    assert_eq!(assigned_id(next_response(&mut s)), 1);
    assert!(matches!(next_response(&mut s), Response::Stats(_)));
    assert_closed(&mut s);
}

/// A handler panic that no aspect policy contains (`PanicPolicy::
/// Propagate`) is answered with `Response::Err` on both execution
/// paths — inline on the reactor for a request that does not block,
/// inside the engine task for one that parked — and the connection
/// keeps serving, well inside the client's I/O deadline.
#[test]
fn propagated_handler_panic_answers_err_and_keeps_the_connection() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    use aspect_moderator::core::{Concern, FnAspect, PanicPolicy, Verdict};

    let config = ServiceConfig {
        panic_policy: PanicPolicy::Propagate,
        op_timeout: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let io_deadline = config.io_deadline.expect("a client deadline");
    let mut handle = spawn_service(config);
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let base = handle.proxy().base();
    // `open` panics on every evaluation; `assign` once armed, which
    // the test does after the assign parked on an empty buffer.
    base.moderator()
        .register(
            base.open_handle(),
            Concern::new("bomb"),
            Box::new(FnAspect::new("bomb").on_precondition(|_| panic!("open bomb"))),
        )
        .unwrap();
    let armed = Arc::new(AtomicBool::new(false));
    base.moderator()
        .register(
            base.assign_handle(),
            Concern::new("bomb"),
            Box::new(FnAspect::new("late bomb").on_precondition({
                let armed = Arc::clone(&armed);
                move |_| {
                    if armed.load(Ordering::SeqCst) {
                        panic!("assign bomb");
                    }
                    Verdict::Resume
                }
            })),
        )
        .unwrap();

    let start = Instant::now();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    match client.open(token, 1, Severity::Low, "boom") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("open bomb"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    assert_eq!(client.stats().unwrap().opened, 0);

    // Park an assign, arm its bomb, then wake it from a second
    // connection: its re-evaluation panics on an engine worker.
    let parked = thread::spawn(move || {
        let result = client.assign(token);
        (client, result)
    });
    while handle.stats().tasks_parked == 0 {
        thread::yield_now();
    }
    armed.store(true, Ordering::SeqCst);
    base.moderator()
        .deregister(base.open_handle(), &Concern::new("bomb"))
        .unwrap();
    let mut other = ServiceClient::connect(handle.addr()).unwrap();
    other.open(token, 2, Severity::Low, "wake").unwrap();
    let (mut client, result) = parked.join().unwrap();
    match result {
        Err(ClientError::Server(msg)) => assert!(msg.contains("assign bomb"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    assert_eq!(client.stats().unwrap().opened, 1);
    assert!(start.elapsed() < io_deadline / 2, "{:?}", start.elapsed());
    handle.shutdown();
}

/// A pipelined burst several read chunks long, followed by a
/// half-close, is answered completely and in order before the server
/// closes: the reactor reads one chunk per readable event and still
/// sees every byte and then the EOF.
#[test]
fn pipeline_past_one_read_chunk_then_half_close_is_answered_in_order() {
    let (_handle, token, mut s) = raw_service();
    let pairs: u64 = 2_000;
    let requests: Vec<Request> = (0..pairs)
        .flat_map(|id| [open_req(token, id), Request::Assign { token }])
        .collect();
    let bytes: Vec<u8> = requests
        .iter()
        .flat_map(|r| encode_request(r).to_vec())
        .collect();
    assert!(bytes.len() > 3 * 16 * 1024, "{} bytes", bytes.len());
    let mut tx = s.try_clone().unwrap();
    let writer = thread::spawn(move || {
        tx.write_all(&bytes).unwrap();
        tx.shutdown(Shutdown::Write).unwrap();
    });
    for id in 0..pairs {
        assert_eq!(next_response(&mut s), Response::Ok(None));
        assert_eq!(assigned_id(next_response(&mut s)), id);
    }
    writer.join().unwrap();
    assert_closed(&mut s);
}
