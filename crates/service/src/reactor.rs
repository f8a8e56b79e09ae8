//! The service front: one epoll loop, tasks for requests.
//!
//! A single reactor thread holds *every* connection and spends
//! execution only on decoded requests, dispatched as tasks on the
//! [`TaskEngine`]. A mostly-idle connection therefore costs a few
//! hundred bytes of state rather than a pinned worker thread and its
//! stack, which is what the connection-scaling experiment (E17)
//! measures.
//!
//! Structure:
//!
//! * **readiness** — the crate's level-triggered epoll/eventfd binding
//!   in `poll.rs`, which each ring node's I/O loop shares.
//! * **per-connection state machine** — a nonblocking socket, the
//!   sans-io [`FrameDecoder`], an outbound byte buffer, and a
//!   one-request-in-flight discipline (`busy` + a `pending` queue)
//!   that preserves response ordering for pipelined clients. A framing
//!   error (oversized length prefix) or an undecodable body is answered
//!   with `Response::Err` after the responses already owed, then the
//!   connection closes; a client EOF still flushes what is owed.
//! * **wakeup path** — request tasks finish on engine workers, push a
//!   completion into a shared queue, and write an `eventfd` the
//!   reactor polls; the reactor drains completions, writes responses,
//!   and dispatches the next pending frame. [`super::server`]'s
//!   shutdown uses the same eventfd to interrupt the loop.
//!
//! Ownership: the reactor thread exclusively owns the listener, the
//! epoll instance and every connection; tasks own nothing but their
//! request bytes and the completion they push. Nothing here interprets
//! frame *bodies* beyond `decode_request` — the moderator protocol and
//! the aspect chain are untouched, they just run on engine workers.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use amf_concurrency::TaskEngine;
use bytes::Bytes;
use parking_lot::Mutex;

use crate::codec::{decode_request, encode_response, Request, Response};
use crate::frame::FrameDecoder;
use crate::poll::{Event, Poller, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::server::ServiceShared;

// --- completions and the waker ---------------------------------------

/// A finished request task: the framed response plus connection fate.
pub(crate) struct Completion {
    token: u64,
    bytes: Bytes,
    /// Close the connection after flushing (shutdown ack, protocol
    /// error).
    close_after: bool,
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
    /// One request in flight at a time keeps responses in request
    /// order; further decoded frames wait in `pending`.
    busy: bool,
    pending: VecDeque<Vec<u8>>,
    /// Flush what is buffered, then close.
    closing: bool,
    /// A framing error to report (after pending responses) and close.
    poison: Option<String>,
    /// Peer sent EOF; close once in-flight responses are flushed.
    eof: bool,
    /// Whether EPOLLOUT is currently armed.
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            busy: false,
            pending: VecDeque::new(),
            closing: false,
            poison: None,
            eof: false,
            want_write: false,
        }
    }
}

// --- the reactor ------------------------------------------------------

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const MAX_EVENTS: usize = 128;

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
    };
    let handle = std::thread::Builder::new()
        .name("amf-service-reactor".into())
        .spawn(move || reactor.run())?;
    Ok((handle, waker))
}

impl Reactor {
    fn run(mut self) {
        let mut events = [Event::default(); MAX_EVENTS];
        loop {
            for c in self.waker.drain() {
                self.handle_completion(c);
            }
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
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
                            self.flush_conn(token);
                        }
                        if bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
                            self.conn_readable(token);
                        }
                    }
                }
            }
        }
        // Final drain: the shutdown ack (and anything else already
        // computed) gets a best-effort nonblocking flush before every
        // connection is torn down with the listener.
        for c in self.waker.drain() {
            self.handle_completion(c);
        }
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

    fn conn_readable(&mut self, token: u64) {
        let mut scratch = [0u8; 16 * 1024];
        let mut frames = Vec::new();
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing {
                return;
            }
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        let fed = conn.dec.feed(&scratch[..n]);
                        // Frames completed ahead of a bad prefix in the
                        // same chunk are owed responses too.
                        while let Some(f) = conn.dec.next_frame() {
                            frames.push(f);
                        }
                        if let Err(e) = fed {
                            // Oversized length prefix: report before
                            // hanging up, but only after responses
                            // already owed.
                            conn.poison = Some(e.to_string());
                            break;
                        }
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close_conn(token);
            return;
        }
        for f in frames {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy {
                conn.pending.push_back(f);
            } else {
                conn.busy = true;
                self.dispatch(token, f);
            }
        }
        self.settle(token);
    }

    /// Once no request is in flight and none is pending, act on any
    /// deferred fate: report a framing error, or honor the peer's EOF.
    fn settle(&mut self, token: u64) {
        let flush = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy || !conn.pending.is_empty() || conn.closing {
                false
            } else if let Some(msg) = conn.poison.take() {
                conn.out
                    .extend_from_slice(&encode_response(&Response::Err(msg)));
                conn.closing = true;
                true
            } else if conn.eof {
                conn.closing = true;
                true
            } else {
                false
            }
        };
        if flush {
            self.flush_conn(token);
        }
    }

    fn dispatch(&self, token: u64, body: Vec<u8>) {
        let shared = Arc::clone(&self.shared);
        let waker = Arc::clone(&self.waker);
        self.engine.spawn(move || {
            let (response, close_after) = match decode_request(&body) {
                Ok(Request::Shutdown) => (Response::Ok(None), true),
                Ok(req) => (shared.handle_request(req), false),
                Err(e) => (Response::Err(e.to_string()), true),
            };
            if close_after && matches!(response, Response::Ok(_)) {
                // Raise the flag before the ack goes out: a client that
                // reads this Ok and reconnects must already see the
                // service as down.
                shared.shutting_down.store(true, Ordering::SeqCst);
            }
            waker.complete(Completion {
                token,
                bytes: encode_response(&response),
                close_after,
            });
        });
    }

    fn handle_completion(&mut self, c: Completion) {
        let next = {
            let Some(conn) = self.conns.get_mut(&c.token) else {
                return;
            };
            conn.out.extend_from_slice(&c.bytes);
            if c.close_after {
                conn.closing = true;
                conn.pending.clear();
                conn.busy = false;
                None
            } else {
                let next = conn.pending.pop_front();
                if next.is_none() {
                    conn.busy = false;
                }
                next
            }
        };
        if let Some(f) = next {
            self.dispatch(c.token, f);
        }
        self.flush_conn(c.token);
        self.settle(c.token);
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

    /// Arms EPOLLOUT exactly while unwritten bytes exist.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = conn.out_pos < conn.out.len();
        if want != conn.want_write {
            conn.want_write = want;
            let events = EPOLLIN | if want { EPOLLOUT } else { 0 };
            let _ = self.ep.modify(&conn.stream, events, token);
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
