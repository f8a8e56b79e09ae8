//! The service front: one epoll loop that runs requests to completion,
//! and a task engine for the requests that block.
//!
//! A single reactor thread holds *every* connection and runs each
//! decoded request inline: decode, the first pass of pre-activation,
//! the method body, post-activation and the response encoding all
//! happen on the reactor thread as long as no aspect blocks. Only a
//! request whose pre-activation blocks (an `assign` on an empty buffer,
//! an `open` on a full one) goes to the [`TaskEngine`], whose worker
//! parks until the request is woken or times out. A request that does
//! not block therefore costs no thread hand-off, and a mostly-idle
//! connection costs a few hundred bytes of state rather than a pinned
//! worker thread and its stack, which is what the connection-scaling
//! experiment (E17) measures.
//!
//! Structure:
//!
//! * **readiness** — the crate's level-triggered epoll/eventfd binding
//!   in `poll.rs`, which each ring node's I/O loop shares. A readable
//!   event reads one chunk of at most 16 KiB; level triggering reports
//!   the rest on the next wait, so one pipelining connection cannot
//!   hold the loop while the others wait.
//! * **per-connection state machine** — a nonblocking socket, the
//!   sans-io [`FrameDecoder`], a queue of decoded frames and an
//!   outbound byte buffer. Frames run in arrival order; while one is
//!   parked on the engine (`busy`) the frames behind it wait in the
//!   queue, which keeps responses in request order for pipelined
//!   clients. A framing error (oversized length prefix) or an
//!   undecodable body is answered with `Response::Err` after the
//!   responses already owed, then the connection closes; a client EOF
//!   still flushes what is owed.
//! * **flushing** — responses accumulate in the connection's buffer,
//!   which is written at the end of the loop iteration: one `write` per
//!   connection per wakeup, however many requests it answered.
//! * **wakeup path** — a parked request's task pushes its response into
//!   a shared completion queue and writes an `eventfd` the reactor
//!   polls; the reactor appends the response and runs the connection's
//!   queued frames inline again. [`super::server`]'s shutdown uses the
//!   same eventfd to interrupt the loop.
//! * **panics** — a panic while handling a request (an aspect under
//!   `PanicPolicy::Propagate`, say) is caught on the reactor and inside
//!   the engine task alike and answered with `Response::Err`, so it
//!   costs neither the loop nor the connection.
//!
//! Because aspect callbacks run on the reactor thread, an aspect that
//! sleeps or does blocking I/O in a callback stalls every connection;
//! blocking belongs in a `Verdict::Block`, which parks the request on
//! the engine instead.
//!
//! Ownership: the reactor thread exclusively owns the listener, the
//! epoll instance and every connection; tasks own nothing but their
//! pending request and the completion they push.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use amf_concurrency::TaskEngine;
use amf_ticketing::PendingTicketOp;
use bytes::Bytes;
use parking_lot::Mutex;

use crate::codec::{decode_request, encode_response, Request, Response};
use crate::frame::FrameDecoder;
use crate::poll::{Event, Poller, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::server::{Begun, ServiceShared};

// --- completions and the waker ---------------------------------------

/// A parked request's framed response.
pub(crate) struct Completion {
    token: u64,
    bytes: Bytes,
}

/// Handle engine tasks (and `ServiceHandle::shutdown`) use to reach the
/// reactor: a completion queue plus the eventfd that interrupts
/// `epoll_wait`.
pub(crate) struct ReactorWaker {
    efd: Waker,
    completions: Mutex<Vec<Completion>>,
}

impl std::fmt::Debug for ReactorWaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorWaker").finish_non_exhaustive()
    }
}

impl ReactorWaker {
    /// Interrupts the reactor's `epoll_wait`.
    pub(crate) fn wake(&self) {
        self.efd.wake();
    }

    fn complete(&self, c: Completion) {
        self.completions.lock().push(c);
        self.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock())
    }
}

// --- per-connection state machine ------------------------------------

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Unwritten response bytes (already framed), from `out_pos`.
    out: Vec<u8>,
    out_pos: usize,
    /// A request is parked on the engine; the frames behind it wait in
    /// `queued` until its completion arrives.
    busy: bool,
    queued: VecDeque<Vec<u8>>,
    /// Flush what is buffered, then close.
    closing: bool,
    /// A framing error to report (after pending responses) and close.
    poison: Option<String>,
    /// Peer sent EOF; close once in-flight responses are flushed.
    eof: bool,
    /// On the reactor's flush list for this iteration.
    dirty: bool,
    /// The epoll interest currently registered.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            busy: false,
            queued: VecDeque::new(),
            closing: false,
            poison: None,
            eof: false,
            dirty: false,
            interest: EPOLLIN,
        }
    }

    /// Whether more request bytes are wanted from the peer.
    fn reading(&self) -> bool {
        !self.closing && !self.eof && self.poison.is_none()
    }
}

// --- the reactor ------------------------------------------------------

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const MAX_EVENTS: usize = 128;
/// The most one readable event reads from a connection.
const READ_CHUNK: usize = 16 * 1024;

/// How long the reactor sleeps in `epoll_wait` when nothing is ready;
/// a defensive heartbeat so a lost wakeup degrades to latency, never to
/// a hang.
const WAIT_TICK: Duration = Duration::from_millis(250);

struct Reactor {
    ep: Poller,
    listener: TcpListener,
    shared: Arc<ServiceShared>,
    engine: Arc<TaskEngine>,
    waker: Arc<ReactorWaker>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connections with output (or a changed fate) to flush at the end
    /// of this iteration.
    dirty: Vec<u64>,
    read_buf: Box<[u8]>,
}

/// Binds the epoll instance and the eventfd, registers the listener
/// (which must outlive-own the accept responsibility; it is moved in),
/// and starts the reactor thread.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<ServiceShared>,
    engine: Arc<TaskEngine>,
) -> io::Result<(JoinHandle<()>, Arc<ReactorWaker>)> {
    listener.set_nonblocking(true)?;
    let ep = Poller::new()?;
    let efd = Waker::new()?;
    ep.add(&listener, EPOLLIN, TOK_LISTENER)?;
    ep.add(&efd, EPOLLIN, TOK_WAKER)?;
    let waker = Arc::new(ReactorWaker {
        efd,
        completions: Mutex::new(Vec::new()),
    });
    let reactor = Reactor {
        ep,
        listener,
        shared,
        engine,
        waker: Arc::clone(&waker),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        dirty: Vec::new(),
        read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
    };
    let handle = std::thread::Builder::new()
        .name("amf-service-reactor".into())
        .spawn(move || reactor.run())?;
    Ok((handle, waker))
}

/// Decodes and runs one request up to its first `BLOCKED`, and says
/// whether the connection closes after the answer (a shutdown ack, an
/// undecodable body).
fn run_inline(shared: &ServiceShared, body: &[u8]) -> (Begun, bool) {
    catch_unwind(AssertUnwindSafe(|| match decode_request(body) {
        Ok(req) => {
            let close = matches!(req, Request::Shutdown);
            (shared.begin_request(req), close)
        }
        Err(e) => (Begun::Done(Response::Err(e.to_string())), true),
    }))
    .unwrap_or_else(|payload| (Begun::Done(panic_response(payload.as_ref())), false))
}

fn panic_response(payload: &(dyn Any + Send)) -> Response {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    Response::Err(format!("request handler panicked: {message}"))
}

/// Hands a parked request to an engine task, which waits it out and
/// completes the connection's turn whatever happens, a panic included.
fn park(
    engine: &TaskEngine,
    shared: &Arc<ServiceShared>,
    waker: &Arc<ReactorWaker>,
    token: u64,
    op: PendingTicketOp,
) {
    let shared = Arc::clone(shared);
    let waker = Arc::clone(waker);
    engine.spawn(move || {
        let response = catch_unwind(AssertUnwindSafe(|| shared.finish_request(op)))
            .unwrap_or_else(|payload| panic_response(payload.as_ref()));
        waker.complete(Completion {
            token,
            bytes: encode_response(&response),
        });
    });
}

impl Reactor {
    fn run(mut self) {
        let mut events = [Event::default(); MAX_EVENTS];
        loop {
            let n = match self.ep.wait(&mut events, Some(WAIT_TICK)) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            for ev in &events[..n] {
                let (bits, data) = (ev.events, ev.data);
                match data {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.waker.efd.clear(),
                    token => {
                        if bits & EPOLLOUT != 0 {
                            self.mark(token);
                        }
                        if bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
                            self.conn_readable(token, bits & (EPOLLERR | EPOLLHUP) != 0);
                        }
                    }
                }
            }
            for c in self.waker.drain() {
                self.complete(c);
            }
            // Flushing before the shutdown check sends a shutdown ack
            // answered in this iteration.
            self.flush_dirty();
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
        }
        // Final drain: anything already computed gets a best-effort
        // nonblocking flush before every connection is torn down with
        // the listener.
        for c in self.waker.drain() {
            self.complete(c);
        }
        self.flush_dirty();
        for token in self.conns.keys().copied().collect::<Vec<_>>() {
            self.close_conn(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.ep.add(&stream, EPOLLIN, token).is_err() {
                        continue;
                    }
                    self.shared.open_connections.fetch_add(1, Ordering::SeqCst);
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Reads one chunk and runs the frames it completes.
    fn conn_readable(&mut self, token: u64, hangup: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.reading() {
            // Only an error or hang-up reaches a connection that no
            // longer reads: nothing more can be delivered on it.
            if hangup {
                self.close_conn(token);
            }
            return;
        }
        match conn.stream.read(&mut self.read_buf) {
            Ok(0) => conn.eof = true,
            Ok(n) => {
                let fed = conn.dec.feed(&self.read_buf[..n]);
                // Frames completed ahead of a bad prefix in the same
                // chunk are owed responses too.
                while let Some(f) = conn.dec.next_frame() {
                    conn.queued.push_back(f);
                }
                if let Err(e) = fed {
                    // Oversized length prefix: report before hanging
                    // up, but only after responses already owed.
                    conn.poison = Some(e.to_string());
                }
            }
            Err(ref e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return
            }
            Err(_) => {
                self.close_conn(token);
                return;
            }
        }
        self.run_queued(token);
    }

    /// Runs the connection's queued frames inline until one parks on
    /// the engine or none is left; then, with nothing in flight, acts
    /// on a deferred fate: report a framing error, or honor the peer's
    /// EOF.
    fn run_queued(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !conn.busy && !conn.closing {
            let Some(body) = conn.queued.pop_front() else {
                break;
            };
            match run_inline(&self.shared, &body) {
                (Begun::Done(response), close) => {
                    conn.out.extend_from_slice(&encode_response(&response));
                    if close {
                        conn.closing = true;
                        conn.queued.clear();
                    }
                }
                (Begun::Parked(op), _) => {
                    conn.busy = true;
                    park(&self.engine, &self.shared, &self.waker, token, op);
                }
            }
        }
        if !conn.busy && !conn.closing && conn.queued.is_empty() {
            if let Some(msg) = conn.poison.take() {
                conn.out
                    .extend_from_slice(&encode_response(&Response::Err(msg)));
                conn.closing = true;
            } else if conn.eof {
                conn.closing = true;
            }
        }
        self.mark(token);
    }

    /// A parked request finished: answer it and resume the queue.
    fn complete(&mut self, c: Completion) {
        let Some(conn) = self.conns.get_mut(&c.token) else {
            return;
        };
        conn.out.extend_from_slice(&c.bytes);
        conn.busy = false;
        self.run_queued(c.token);
    }

    /// Puts a connection on this iteration's flush list.
    fn mark(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if !conn.dirty {
                conn.dirty = true;
                self.dirty.push(token);
            }
        }
    }

    fn flush_dirty(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for token in dirty.drain(..) {
            self.flush_conn(token);
        }
        self.dirty = dirty;
    }

    fn flush_conn(&mut self, token: u64) {
        enum Outcome {
            Dead,
            Alive,
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.dirty = false;
            loop {
                if conn.out_pos >= conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    break if conn.closing {
                        Outcome::Dead
                    } else {
                        Outcome::Alive
                    };
                }
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => break Outcome::Dead,
                    Ok(n) => conn.out_pos += n,
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break Outcome::Alive,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break Outcome::Dead,
                }
            }
        };
        match outcome {
            Outcome::Dead => self.close_conn(token),
            Outcome::Alive => self.update_interest(token),
        }
    }

    /// Arms EPOLLIN while the connection reads and EPOLLOUT exactly
    /// while unwritten bytes exist.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = if conn.reading() { EPOLLIN } else { 0 };
        if conn.out_pos < conn.out.len() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let _ = self.ep.modify(&conn.stream, want, token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        // Dropping the stream closes its only fd, which also takes it
        // out of the epoll set.
        if self.conns.remove(&token).is_some() {
            self.shared.open_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::thread;
    use std::time::Duration;

    use amf_aspects::auth::AuthToken;
    use amf_ticketing::Ticket;

    use crate::codec::{decode_response, encode_request, read_frame, Request, Response};
    use crate::server::{ServiceConfig, ServiceHandle, TicketService};

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn service() -> (ServiceHandle, u64) {
        let handle = TicketService::spawn(
            "127.0.0.1:0",
            ServiceConfig {
                op_timeout: TIMEOUT,
                ..ServiceConfig::default()
            },
        )
        .expect("spawn service");
        handle.authenticator().add_user("ops", "pw");
        let AuthToken(token) = handle.authenticator().login("ops", "pw").unwrap();
        (handle, token)
    }

    struct Conn {
        tx: TcpStream,
        rx: BufReader<TcpStream>,
    }

    impl Conn {
        fn new(handle: &ServiceHandle) -> Self {
            let tx = TcpStream::connect(handle.addr()).unwrap();
            tx.set_read_timeout(Some(TIMEOUT * 2)).unwrap();
            let rx = BufReader::new(tx.try_clone().unwrap());
            Conn { tx, rx }
        }

        fn send(&mut self, requests: &[Request]) {
            let bytes: Vec<u8> = requests
                .iter()
                .flat_map(|r| encode_request(r).to_vec())
                .collect();
            self.tx.write_all(&bytes).unwrap();
        }

        fn recv(&mut self) -> Response {
            let body = read_frame(&mut self.rx).unwrap().expect("a response");
            decode_response(&body).unwrap()
        }
    }

    fn open(token: u64, id: u64) -> Request {
        Request::Open {
            token,
            id,
            severity: 1,
            summary: format!("t{id}"),
        }
    }

    fn assigned(resp: Response) -> u64 {
        match resp {
            Response::Ok(Some(ticket)) => ticket.id.0,
            other => panic!("expected an assigned ticket, got {other:?}"),
        }
    }

    /// Waits until `n` requests are parked on the service's engine.
    fn await_parked(handle: &ServiceHandle, n: u64) {
        while handle.stats().tasks_parked < n {
            thread::yield_now();
        }
    }

    #[test]
    fn requests_that_do_not_block_never_reach_the_engine() {
        let (handle, token) = service();
        let mut c = Conn::new(&handle);
        let requests: Vec<Request> = (0..500)
            .flat_map(|id| [open(token, id), Request::Assign { token }])
            .collect();
        c.send(&requests);
        for id in 0..500 {
            assert_eq!(c.recv(), Response::Ok(None));
            assert_eq!(assigned(c.recv()), id);
        }
        assert_eq!(handle.engine().tasks_executed(), 0);
    }

    #[test]
    fn a_parked_assign_costs_exactly_one_task() {
        let (handle, token) = service();
        let (mut consumer, mut producer) = (Conn::new(&handle), Conn::new(&handle));
        consumer.send(&[Request::Assign { token }]);
        await_parked(&handle, 1);
        producer.send(&[open(token, 7)]);
        assert_eq!(producer.recv(), Response::Ok(None));
        assert_eq!(assigned(consumer.recv()), 7);
        assert_eq!(handle.engine().tasks_executed(), 1);
    }

    /// The trace of the only `assign` in `handle`'s trace, with the
    /// invocation number cleared, cut into passes over the chain: the
    /// first pass, then one segment per wake.
    fn assign_passes(handle: &ServiceHandle) -> Vec<Vec<String>> {
        let events = handle.trace().events();
        let invocation = events
            .iter()
            .find(|e| e.method.as_str() == "assign" && e.invocation != 0)
            .expect("an assign ran")
            .invocation;
        let mut passes: Vec<Vec<String>> = Vec::new();
        for mut e in handle.trace().events_for(invocation) {
            e.invocation = 0;
            let line = e.compact();
            if passes.is_empty() || line == "#0 woken assign" {
                passes.push(Vec::new());
            }
            passes.last_mut().unwrap().push(line);
        }
        passes
    }

    /// A parked `assign` over the wire — first pass on the reactor,
    /// continuation on an engine task — leaves the trace of a blocking
    /// in-process `assign_timeout`. While parked, a caller whose chain
    /// rolled back re-checks on the 1 ms rollback backstop, so the
    /// number of identical blocked re-evaluations between the first
    /// and the last pass depends on timing; everything else must match.
    #[test]
    fn a_parked_wire_assign_traces_like_an_in_process_one() {
        let (wire, token) = service();
        let (mut consumer, mut producer) = (Conn::new(&wire), Conn::new(&wire));
        consumer.send(&[Request::Assign { token }]);
        await_parked(&wire, 1);
        producer.send(&[open(token, 7)]);
        assert_eq!(producer.recv(), Response::Ok(None));
        assert_eq!(assigned(consumer.recv()), 7);

        let (local, token) = service();
        thread::scope(|s| {
            let waiter = s.spawn(|| local.proxy().assign_timeout(AuthToken(token), TIMEOUT));
            await_parked(&local, 1);
            local
                .proxy()
                .open_timeout(AuthToken(token), Ticket::new(7, "t7"), TIMEOUT)
                .unwrap();
            assert_eq!(waiter.join().unwrap().unwrap().id.0, 7);
        });

        let (w, l) = (assign_passes(&wire), assign_passes(&local));
        assert!(w.len() >= 2 && l.len() >= 2, "both assigns parked");
        assert_eq!(w[0], l[0], "first pass");
        assert_eq!(
            w.last(),
            l.last(),
            "admitting pass, body and post-activation"
        );
        let rechecks: Vec<_> = w[1..w.len() - 1].iter().chain(&l[1..l.len() - 1]).collect();
        for pass in &rechecks {
            assert_eq!(pass, &rechecks[0], "backstop re-checks");
        }
    }
}
