//! Length-prefixed binary wire protocol for the ticketing service.
//!
//! Every message is one *frame*:
//!
//! ```text
//! +----------------+--------+-----------------+
//! | length: u32 BE | opcode | payload ...     |
//! +----------------+--------+-----------------+
//!  `length` counts opcode + payload, capped at MAX_FRAME.
//! ```
//!
//! All integers are big-endian (network order); strings are a `u16`
//! byte length followed by UTF-8 bytes. The codec is strict: trailing
//! bytes, truncated payloads, oversized frames and unknown opcodes are
//! all decode errors, never silently ignored.
//!
//! Wire-format history: `OP_STATS_REPLY` originally carried six `u64`
//! counters; the fault-containment release appended a seventh,
//! `panics_caught`, the batched-admission release an eighth,
//! `batched_grants`, the lock-free-admission release a ninth,
//! `fast_path_admits`, the wire-topology release a tenth,
//! `fast_path_fallbacks`, and the task-engine release an eleventh and
//! twelfth, `open_connections` and `tasks_parked`. The counter list
//! lives in one place —
//! [`STATS_FIELDS`] plus [`WireStats::to_array`]/[`WireStats::from_array`]
//! — so encode, decode and tests cannot drift apart. Because decoding
//! is strict, old and new peers do not interoperate on `Stats` — deploy
//! both sides together. The task-engine release also added the
//! peer-plane greeting frame `OP_LEASE_HELLO` (node, incarnation,
//! cursor), replacing the old convention of greeting with a sentinel
//! `Ack { seq: u64::MAX }` — same deploy-together rule.
//!
//! The length-prefix layer itself (split/reassembly of frames from a
//! byte stream) lives in [`crate::frame`] as a sans-io state machine;
//! this module owns the frame *bodies*.

use std::fmt;
use std::io::{self, Read, Write};

use amf_core::LeaseMsg;
use amf_ticketing::{Severity, Ticket};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::frame::{FrameDecoder, FrameEncoder, FramePartial};

/// Hard cap on a frame body (opcode + payload), in bytes. Large enough
/// for any legitimate request (summaries are `u16`-length-capped),
/// small enough that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 64 * 1024;

/// Longest accepted ticket summary, in bytes.
pub const MAX_SUMMARY: usize = u16::MAX as usize;

const OP_OPEN: u8 = 0x01;
const OP_ASSIGN: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;

const OP_OK: u8 = 0x81;
const OP_BLOCKED: u8 = 0x82;
const OP_ABORTED: u8 = 0x83;
const OP_ERR: u8 = 0x84;
const OP_STATS_REPLY: u8 = 0x85;

// Node-to-node lease plane (peer sessions, not client sessions).
const OP_LEASE_GRANT: u8 = 0x10;
const OP_LEASE_RELEASE: u8 = 0x11;
const OP_LEASE_HELLO: u8 = 0x12;
const OP_LEASE_ACK: u8 = 0x90;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open a ticket under the session `token`.
    Open {
        /// Session token from login.
        token: u64,
        /// Ticket id chosen by the client.
        id: u64,
        /// Severity, encoded as [`severity_to_wire`].
        severity: u8,
        /// Problem statement.
        summary: String,
    },
    /// Assign (retrieve) the oldest ticket under the session `token`.
    Assign {
        /// Session token from login.
        token: u64,
    },
    /// Read service counters.
    Stats,
    /// Ask the server to stop accepting connections.
    Shutdown,
}

/// Number of `u64` counters in an `OP_STATS_REPLY` payload — the single
/// source of truth for the `Stats` wire format: encode and decode both
/// iterate [`WireStats::to_array`]/[`WireStats::from_array`], whose
/// lengths this const fixes at compile time.
pub const STATS_FIELDS: usize = 12;

/// Counters reported by [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Tickets opened since start.
    pub opened: u64,
    /// Tickets assigned since start.
    pub assigned: u64,
    /// Tickets currently queued.
    pub queued: u64,
    /// Activations vetoed by an aspect.
    pub aborts: u64,
    /// Activations that timed out blocked.
    pub timeouts: u64,
    /// Deepest wait queue any coordination cell has reached — the
    /// worst-case position a request has waited from (tail-latency
    /// headroom under `FairnessPolicy::Fifo`).
    pub max_queue_depth: u64,
    /// Aspect panics the moderator contained (seventh field, appended
    /// by the fault-containment release).
    pub panics_caught: u64,
    /// FIFO admissions served by grant extension rather than a fresh
    /// wake handoff (eighth field, appended by the batched-admission
    /// release).
    pub batched_grants: u64,
    /// Activations admitted through the lock-free CAS fast lane,
    /// skipping the cell lock entirely (ninth field, appended by the
    /// lock-free-admission release).
    pub fast_path_admits: u64,
    /// Activations that raced the CAS fast lane, lost, and fell back to
    /// the cell lock (tenth field, appended by the wire-topology
    /// release). `fallbacks / (admits + fallbacks)` is the live
    /// contention ratio on the fast lane.
    pub fast_path_fallbacks: u64,
    /// Client connections currently open on the service front
    /// (eleventh field, appended by the task-engine release): the
    /// number the connection-scaling experiment drives into the
    /// thousands.
    pub open_connections: u64,
    /// Invocations currently suspended inside the task engine's
    /// waitpoints (twelfth field, appended by the task-engine release).
    /// Every request runs as an engine task, so this counts every
    /// request parked inside the moderator protocol.
    pub tasks_parked: u64,
}

impl WireStats {
    /// The counters in wire order. The array length is pinned to
    /// [`STATS_FIELDS`], so adding a struct field without growing the
    /// wire format (or vice versa) fails to compile here.
    #[must_use]
    pub fn to_array(&self) -> [u64; STATS_FIELDS] {
        [
            self.opened,
            self.assigned,
            self.queued,
            self.aborts,
            self.timeouts,
            self.max_queue_depth,
            self.panics_caught,
            self.batched_grants,
            self.fast_path_admits,
            self.fast_path_fallbacks,
            self.open_connections,
            self.tasks_parked,
        ]
    }

    /// Rebuilds the counters from wire order; inverse of
    /// [`WireStats::to_array`].
    #[must_use]
    pub fn from_array(fields: [u64; STATS_FIELDS]) -> Self {
        let [opened, assigned, queued, aborts, timeouts, max_queue_depth, panics_caught, batched_grants, fast_path_admits, fast_path_fallbacks, open_connections, tasks_parked] =
            fields;
        Self {
            opened,
            assigned,
            queued,
            aborts,
            timeouts,
            max_queue_depth,
            panics_caught,
            batched_grants,
            fast_path_admits,
            fast_path_fallbacks,
            open_connections,
            tasks_parked,
        }
    }
}

/// A node-to-node frame on the lease plane: the sender's ring index plus
/// the protocol message from [`amf_core::lease`]. Rides the same
/// length-prefixed framing as client traffic, under its own opcodes, so
/// the fault proxy and the simulator's socket-shaped channel forward
/// both planes identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerFrame {
    /// Ring index of the sending node.
    pub node: u64,
    /// The lease protocol message.
    pub msg: LeaseMsg,
}

/// Anything that can arrive on the peer plane: a lease-protocol frame,
/// or the connection-scoped greeting. The greeting is deliberately not
/// a [`LeaseMsg`] variant — it describes the *link* (who is on the
/// other end, which incarnation, where their receive cursor stands),
/// not the lease protocol, and the simulator's in-memory channels never
/// carry one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerWire {
    /// A lease-protocol frame.
    Frame(PeerFrame),
    /// Greeting sent by a receiver when a connection is (re)established.
    Hello {
        /// Ring index of the greeting node.
        node: u64,
        /// Incarnation id, fresh per process start. A sender that
        /// remembers a different incarnation for this peer knows the
        /// receiver restarted — regardless of how intact the cursor
        /// looks — and must rebase in-flight grants.
        incarnation: u64,
        /// The receiver's current in-order cursor.
        cursor: u64,
    },
}

/// Encodes the connection greeting as a complete frame (length prefix
/// included).
pub fn encode_hello(node: u64, incarnation: u64, cursor: u64) -> Bytes {
    let mut body = BytesMut::with_capacity(32);
    body.put_u8(OP_LEASE_HELLO);
    body.put_u64(node);
    body.put_u64(incarnation);
    body.put_u64(cursor);
    frame(body)
}

/// Decodes any peer-plane frame body, greeting included.
pub fn decode_peer_wire(body: &[u8]) -> Result<PeerWire, DecodeError> {
    if body.first() == Some(&OP_LEASE_HELLO) {
        let mut cur = &body[1..];
        let hello = PeerWire::Hello {
            node: get_u64_checked(&mut cur)?,
            incarnation: get_u64_checked(&mut cur)?,
            cursor: get_u64_checked(&mut cur)?,
        };
        return finish(hello, cur);
    }
    decode_peer(body).map(PeerWire::Frame)
}

/// Encodes a peer frame as a complete frame (length prefix included).
pub fn encode_peer(frame_msg: &PeerFrame) -> Bytes {
    let mut body = BytesMut::with_capacity(48);
    match frame_msg.msg {
        LeaseMsg::Grant {
            seq,
            lease,
            hop,
            visits,
        } => {
            body.put_u8(OP_LEASE_GRANT);
            body.put_u64(frame_msg.node);
            body.put_u64(seq);
            body.put_u64(lease);
            body.put_u64(hop);
            body.put_u64(visits);
        }
        LeaseMsg::Release { seq } => {
            body.put_u8(OP_LEASE_RELEASE);
            body.put_u64(frame_msg.node);
            body.put_u64(seq);
        }
        LeaseMsg::Ack { seq, cursor } => {
            body.put_u8(OP_LEASE_ACK);
            body.put_u64(frame_msg.node);
            body.put_u64(seq);
            body.put_u64(cursor);
        }
    }
    frame(body)
}

/// Decodes a peer frame from a frame *body* (no length prefix).
pub fn decode_peer(body: &[u8]) -> Result<PeerFrame, DecodeError> {
    if body.len() > MAX_FRAME {
        return Err(DecodeError::Oversized { len: body.len() });
    }
    let mut cur = body;
    let frame_msg = match get_u8_checked(&mut cur)? {
        OP_LEASE_GRANT => PeerFrame {
            node: get_u64_checked(&mut cur)?,
            msg: LeaseMsg::Grant {
                seq: get_u64_checked(&mut cur)?,
                lease: get_u64_checked(&mut cur)?,
                hop: get_u64_checked(&mut cur)?,
                visits: get_u64_checked(&mut cur)?,
            },
        },
        OP_LEASE_RELEASE => PeerFrame {
            node: get_u64_checked(&mut cur)?,
            msg: LeaseMsg::Release {
                seq: get_u64_checked(&mut cur)?,
            },
        },
        OP_LEASE_ACK => PeerFrame {
            node: get_u64_checked(&mut cur)?,
            msg: LeaseMsg::Ack {
                seq: get_u64_checked(&mut cur)?,
                cursor: get_u64_checked(&mut cur)?,
            },
        },
        op => return Err(DecodeError::UnknownOpcode(op)),
    };
    finish(frame_msg, cur)
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request succeeded; `Assign` carries the ticket.
    Ok(Option<Ticket>),
    /// The pre-activation protocol kept the request blocked past the
    /// server's patience (buffer full/empty) — safe to retry.
    Blocked,
    /// An aspect vetoed the activation (authentication, quota, rate
    /// limit); the reason names the concern's complaint.
    Aborted(String),
    /// Protocol or server error; the connection should be abandoned.
    Err(String),
    /// Service counters.
    Stats(WireStats),
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The body ended before the advertised structure was complete,
    /// or carried bytes past it.
    Truncated,
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized {
        /// Advertised body length.
        len: usize,
    },
    /// The opcode byte is not part of the protocol.
    UnknownOpcode(u8),
    /// A string field was not valid UTF-8.
    BadString,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated frame"),
            DecodeError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME} byte cap")
            }
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            DecodeError::BadString => f.write_str("string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maps a [`Severity`] onto its wire byte.
pub fn severity_to_wire(severity: Severity) -> u8 {
    match severity {
        Severity::Low => 0,
        Severity::Medium => 1,
        Severity::High => 2,
        Severity::Critical => 3,
    }
}

/// Maps a wire byte back onto a [`Severity`]; unknown bytes clamp to
/// `Critical` so a newer client's urgency is never silently downgraded.
pub fn severity_from_wire(raw: u8) -> Severity {
    match raw {
        0 => Severity::Low,
        1 => Severity::Medium,
        2 => Severity::High,
        _ => Severity::Critical,
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    debug_assert!(s.len() <= MAX_SUMMARY);
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_string(cur: &mut &[u8]) -> Result<String, DecodeError> {
    if cur.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let len = cur.get_u16() as usize;
    if cur.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    let raw = cur.chunk()[..len].to_vec();
    cur.advance(len);
    String::from_utf8(raw).map_err(|_| DecodeError::BadString)
}

fn get_u64_checked(cur: &mut &[u8]) -> Result<u64, DecodeError> {
    if cur.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(cur.get_u64())
}

fn get_u8_checked(cur: &mut &[u8]) -> Result<u8, DecodeError> {
    if cur.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    Ok(cur.get_u8())
}

fn frame(body: BytesMut) -> Bytes {
    Bytes::from(FrameEncoder::encode(&body))
}

/// Encodes a request as a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Bytes {
    let mut body = BytesMut::with_capacity(32);
    match req {
        Request::Open {
            token,
            id,
            severity,
            summary,
        } => {
            body.put_u8(OP_OPEN);
            body.put_u64(*token);
            body.put_u64(*id);
            body.put_u8(*severity);
            put_string(&mut body, summary);
        }
        Request::Assign { token } => {
            body.put_u8(OP_ASSIGN);
            body.put_u64(*token);
        }
        Request::Stats => body.put_u8(OP_STATS),
        Request::Shutdown => body.put_u8(OP_SHUTDOWN),
    }
    frame(body)
}

/// Encodes a response as a complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Bytes {
    let mut body = BytesMut::with_capacity(32);
    match resp {
        Response::Ok(ticket) => {
            body.put_u8(OP_OK);
            match ticket {
                Some(t) => {
                    body.put_u8(1);
                    body.put_u64(t.id.0);
                    body.put_u8(severity_to_wire(t.severity));
                    put_string(&mut body, &t.summary);
                }
                None => body.put_u8(0),
            }
        }
        Response::Blocked => body.put_u8(OP_BLOCKED),
        Response::Aborted(reason) => {
            body.put_u8(OP_ABORTED);
            put_string(&mut body, reason);
        }
        Response::Err(message) => {
            body.put_u8(OP_ERR);
            put_string(&mut body, message);
        }
        Response::Stats(s) => {
            body.put_u8(OP_STATS_REPLY);
            for counter in s.to_array() {
                body.put_u64(counter);
            }
        }
    }
    frame(body)
}

fn finish<T>(value: T, cur: &[u8]) -> Result<T, DecodeError> {
    if cur.has_remaining() {
        Err(DecodeError::Truncated)
    } else {
        Ok(value)
    }
}

/// Decodes a request from a frame *body* (no length prefix).
pub fn decode_request(body: &[u8]) -> Result<Request, DecodeError> {
    if body.len() > MAX_FRAME {
        return Err(DecodeError::Oversized { len: body.len() });
    }
    let mut cur = body;
    let req = match get_u8_checked(&mut cur)? {
        OP_OPEN => Request::Open {
            token: get_u64_checked(&mut cur)?,
            id: get_u64_checked(&mut cur)?,
            severity: get_u8_checked(&mut cur)?,
            summary: get_string(&mut cur)?,
        },
        OP_ASSIGN => Request::Assign {
            token: get_u64_checked(&mut cur)?,
        },
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        op => return Err(DecodeError::UnknownOpcode(op)),
    };
    finish(req, cur)
}

/// Decodes a response from a frame *body* (no length prefix).
pub fn decode_response(body: &[u8]) -> Result<Response, DecodeError> {
    if body.len() > MAX_FRAME {
        return Err(DecodeError::Oversized { len: body.len() });
    }
    let mut cur = body;
    let resp = match get_u8_checked(&mut cur)? {
        OP_OK => match get_u8_checked(&mut cur)? {
            0 => Response::Ok(None),
            _ => {
                let id = get_u64_checked(&mut cur)?;
                let severity = get_u8_checked(&mut cur)?;
                let summary = get_string(&mut cur)?;
                Response::Ok(Some(
                    Ticket::new(id, summary).with_severity(severity_from_wire(severity)),
                ))
            }
        },
        OP_BLOCKED => Response::Blocked,
        OP_ABORTED => Response::Aborted(get_string(&mut cur)?),
        OP_ERR => Response::Err(get_string(&mut cur)?),
        OP_STATS_REPLY => {
            let mut fields = [0u64; STATS_FIELDS];
            for counter in &mut fields {
                *counter = get_u64_checked(&mut cur)?;
            }
            Response::Stats(WireStats::from_array(fields))
        }
        op => return Err(DecodeError::UnknownOpcode(op)),
    };
    finish(resp, cur)
}

/// Reads one frame body from `r`. Returns `Ok(None)` on clean EOF
/// (connection closed *between* frames).
///
/// # Errors
///
/// I/O errors. A connection that dies *mid-frame* — after part of the
/// length prefix or part of the body — is distinguished from a clean
/// close and surfaces as [`io::ErrorKind::UnexpectedEof`] with a
/// "truncated frame" message, so callers report a typed error instead
/// of treating the peer's crash as an orderly shutdown. An oversized
/// length prefix surfaces as [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut dec = FrameDecoder::new();
    let mut scratch = [0u8; 4096];
    loop {
        if let Some(body) = dec.next_frame() {
            return Ok(Some(body));
        }
        // Read exactly what completes the current element — a fresh
        // decoder is built per call, so reading past the returned
        // frame would lose stream bytes.
        let want = dec.needed().min(scratch.len());
        match r.read(&mut scratch[..want]) {
            Ok(0) => {
                return match dec.partial() {
                    FramePartial::Clean => Ok(None),
                    FramePartial::Header { got } => Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("truncated frame: EOF after {got} of 4 length bytes"),
                    )),
                    FramePartial::Body { len, .. } => Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("truncated frame: EOF inside a {len}-byte body"),
                    )),
                };
            }
            Ok(n) => {
                dec.feed(&scratch[..n])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Writes one already-framed message to `w` and flushes.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_frame(w: &mut impl Write, framed: &[u8]) -> io::Result<()> {
    w.write_all(framed)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let framed = encode_request(&req);
        let body = &framed[4..];
        assert_eq!(
            u32::from_be_bytes(framed[..4].try_into().unwrap()) as usize,
            body.len()
        );
        assert_eq!(decode_request(body).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let framed = encode_response(&resp);
        assert_eq!(decode_response(&framed[4..]).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Open {
            token: u64::MAX,
            id: 42,
            severity: 3,
            summary: "routeur en panne — ça brûle 🔥".to_string(),
        });
        round_trip_request(Request::Open {
            token: 0,
            id: 0,
            severity: 0,
            summary: String::new(),
        });
        round_trip_request(Request::Assign { token: 7 });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Ok(None));
        round_trip_response(Response::Ok(Some(
            Ticket::new(9, "disk full").with_severity(Severity::High),
        )));
        round_trip_response(Response::Blocked);
        round_trip_response(Response::Aborted("authentication failed".into()));
        round_trip_response(Response::Err("boom".into()));
        round_trip_response(Response::Stats(WireStats {
            opened: 1,
            assigned: 2,
            queued: 3,
            aborts: 4,
            timeouts: 5,
            max_queue_depth: 6,
            panics_caught: 7,
            batched_grants: 8,
            fast_path_admits: 9,
            fast_path_fallbacks: 10,
            open_connections: 11,
            tasks_parked: 12,
        }));
    }

    #[test]
    fn hello_round_trips_and_is_not_a_lease_frame() {
        let framed = encode_hello(3, 0xDEAD_BEEF, 42);
        let body = &framed[4..];
        assert_eq!(
            decode_peer_wire(body).unwrap(),
            PeerWire::Hello {
                node: 3,
                incarnation: 0xDEAD_BEEF,
                cursor: 42
            }
        );
        // The lease-frame-only entry point refuses greetings: protocol
        // code that forgot to handle Hello fails loudly, not quietly.
        assert_eq!(decode_peer(body), Err(DecodeError::UnknownOpcode(0x12)),);
        // Truncated greetings are rejected at every cut.
        for cut in 0..body.len() {
            assert_eq!(
                decode_peer_wire(&body[..cut]),
                Err(DecodeError::Truncated),
                "prefix of {cut} bytes"
            );
        }
        // Lease frames pass through decode_peer_wire unchanged.
        let lease = PeerFrame {
            node: 1,
            msg: LeaseMsg::Release { seq: 7 },
        };
        let framed = encode_peer(&lease);
        assert_eq!(
            decode_peer_wire(&framed[4..]).unwrap(),
            PeerWire::Frame(lease)
        );
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let framed = encode_request(&Request::Open {
            token: 1,
            id: 2,
            severity: 1,
            summary: "printer jam".into(),
        });
        let body = &framed[4..];
        // Every proper prefix of the body must fail, not panic.
        for cut in 0..body.len() {
            assert_eq!(
                decode_request(&body[..cut]),
                Err(DecodeError::Truncated),
                "prefix of {cut} bytes"
            );
        }
        // Same on the response side.
        let framed = encode_response(&Response::Aborted("quota exceeded".into()));
        let body = &framed[4..];
        for cut in 1..body.len() {
            assert_eq!(decode_response(&body[..cut]), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let framed = encode_request(&Request::Assign { token: 3 });
        let mut body = framed[4..].to_vec();
        body.push(0xff);
        assert_eq!(decode_request(&body), Err(DecodeError::Truncated));
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let body = vec![OP_STATS; MAX_FRAME + 1];
        assert_eq!(
            decode_request(&body),
            Err(DecodeError::Oversized { len: MAX_FRAME + 1 })
        );
        // And at the framing layer: a hostile length prefix is refused
        // before any allocation of that size.
        let mut wire = Vec::new();
        wire.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        assert_eq!(
            decode_request(&[0x7f]),
            Err(DecodeError::UnknownOpcode(0x7f))
        );
        assert_eq!(
            decode_response(&[0x01]),
            Err(DecodeError::UnknownOpcode(0x01))
        );
        assert_eq!(decode_request(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut body = vec![OP_ABORTED, 0x00, 0x02, 0xff, 0xfe];
        assert_eq!(decode_response(&body), Err(DecodeError::BadString));
        body[0] = OP_ERR;
        assert_eq!(decode_response(&body), Err(DecodeError::BadString));
    }

    #[test]
    fn framing_round_trips_over_a_stream() {
        let a = encode_request(&Request::Stats);
        let b = encode_request(&Request::Assign { token: 11 });
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut r = stream.as_slice();
        assert_eq!(
            decode_request(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Stats
        );
        assert_eq!(
            decode_request(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Assign { token: 11 }
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn peer_frames_round_trip() {
        for msg in [
            LeaseMsg::Grant {
                seq: 3,
                lease: 9,
                hop: 17,
                visits: 2,
            },
            LeaseMsg::Ack { seq: 3, cursor: 4 },
            LeaseMsg::Release { seq: 8 },
        ] {
            let pf = PeerFrame { node: 1, msg };
            let framed = encode_peer(&pf);
            assert_eq!(
                u32::from_be_bytes(framed[..4].try_into().unwrap()) as usize,
                framed.len() - 4
            );
            assert_eq!(decode_peer(&framed[4..]).unwrap(), pf);
        }
    }

    #[test]
    fn truncated_peer_frames_are_rejected() {
        let framed = encode_peer(&PeerFrame {
            node: 2,
            msg: LeaseMsg::Grant {
                seq: 1,
                lease: 2,
                hop: 3,
                visits: 4,
            },
        });
        let body = &framed[4..];
        for cut in 0..body.len() {
            assert_eq!(decode_peer(&body[..cut]), Err(DecodeError::Truncated));
        }
        let mut long = body.to_vec();
        long.push(0);
        assert_eq!(decode_peer(&long), Err(DecodeError::Truncated));
    }

    #[test]
    fn mid_frame_eof_is_truncation_not_clean_close() {
        let framed = encode_request(&Request::Open {
            token: 1,
            id: 2,
            severity: 1,
            summary: "half a frame".into(),
        });
        // EOF inside the length prefix.
        for cut in 1..4 {
            let err = read_frame(&mut &framed[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            assert!(err.to_string().contains("truncated frame"), "{err}");
        }
        // EOF inside the body.
        for cut in [5, framed.len() - 1] {
            let err = read_frame(&mut &framed[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            assert!(err.to_string().contains("truncated frame"), "{err}");
        }
        // Zero bytes is still a clean close.
        assert_eq!(read_frame(&mut &framed[..0]).unwrap(), None);
    }

    #[test]
    fn severity_mapping_round_trips() {
        for s in [
            Severity::Low,
            Severity::Medium,
            Severity::High,
            Severity::Critical,
        ] {
            assert_eq!(severity_from_wire(severity_to_wire(s)), s);
        }
        assert_eq!(severity_from_wire(200), Severity::Critical);
    }
}
