//! Sans-io framing: the wire's length-prefix layer as a pure state
//! machine.
//!
//! Exactly one implementation of the `u32`-big-endian length prefix
//! lives here. [`FrameDecoder`] consumes byte slices (from any
//! transport: a blocking socket read, a nonblocking readiness loop, a
//! test vector) and yields complete frame *bodies*; [`FrameEncoder`]
//! produces prefixed bytes. Neither touches a socket, so the blocking
//! client and both readiness loops (the reactor front, `PeerNode`'s I/O
//! loop) share the same parsing with their own IO strategies on top.
//!
//! The decoder is incremental and restartable at every byte boundary:
//! `feed` accepts arbitrary chunkings of the stream, including one byte
//! at a time, and [`FrameDecoder::needed`] reports how many bytes
//! complete the element currently in progress — which lets a blocking
//! caller read *exactly* that many and never over-read beyond a frame
//! it hands back (callers that re-frame per call, like
//! [`read_frame`](crate::codec::read_frame), depend on this).

use std::collections::VecDeque;

use crate::codec::{DecodeError, MAX_FRAME};

/// Where the decoder stands inside the current (incomplete) element.
/// Lets transports produce precise truncation diagnostics when a
/// connection dies mid-frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePartial {
    /// Between frames: nothing buffered, EOF here is a clean close.
    Clean,
    /// Mid-length-prefix: `got` of the 4 prefix bytes have arrived.
    Header {
        /// Prefix bytes received so far (1..=3).
        got: usize,
    },
    /// Mid-body: `got` of the `len` body bytes have arrived.
    Body {
        /// Declared body length from the prefix.
        len: usize,
        /// Body bytes received so far.
        got: usize,
    },
}

enum State {
    Header {
        buf: [u8; 4],
        got: usize,
    },
    Body {
        body: Vec<u8>,
        got: usize,
    },
    /// A hostile length prefix was seen; the stream is unrecoverable.
    Poisoned {
        len: usize,
    },
}

/// Incremental frame decoder; see the module docs.
///
/// ```
/// use amf_service::{FrameDecoder, FrameEncoder};
/// let wire = FrameEncoder::encode(b"hello");
/// let mut dec = FrameDecoder::new();
/// for b in &wire {
///     dec.feed(std::slice::from_ref(b)).unwrap();
/// }
/// assert_eq!(dec.next_frame().as_deref(), Some(&b"hello"[..]));
/// ```
pub struct FrameDecoder {
    state: State,
    ready: VecDeque<Vec<u8>>,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FrameDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameDecoder")
            .field("partial", &self.partial())
            .field("ready", &self.ready.len())
            .finish()
    }
}

impl FrameDecoder {
    /// A decoder positioned at a frame boundary.
    pub fn new() -> Self {
        Self {
            state: State::Header {
                buf: [0; 4],
                got: 0,
            },
            ready: VecDeque::new(),
        }
    }

    /// Consumes an arbitrary chunk of stream bytes. Any number of
    /// frames may complete (retrieve them with
    /// [`next_frame`](Self::next_frame)); returns how many completed
    /// during this call.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Oversized`] when a length prefix exceeds
    /// [`MAX_FRAME`] — a framing-desync or hostile peer. The decoder
    /// stays poisoned afterwards (every later `feed` repeats the
    /// error); drop the connection.
    pub fn feed(&mut self, mut chunk: &[u8]) -> Result<usize, DecodeError> {
        let mut completed = 0;
        while !chunk.is_empty() {
            match &mut self.state {
                State::Header { buf, got } => {
                    let take = chunk.len().min(4 - *got);
                    buf[*got..*got + take].copy_from_slice(&chunk[..take]);
                    *got += take;
                    chunk = &chunk[take..];
                    if *got == 4 {
                        let len = u32::from_be_bytes(*buf) as usize;
                        if len > MAX_FRAME {
                            self.state = State::Poisoned { len };
                            return Err(DecodeError::Oversized { len });
                        }
                        if len == 0 {
                            self.ready.push_back(Vec::new());
                            completed += 1;
                            self.state = State::Header {
                                buf: [0; 4],
                                got: 0,
                            };
                        } else {
                            self.state = State::Body {
                                body: vec![0; len],
                                got: 0,
                            };
                        }
                    }
                }
                State::Body { body, got } => {
                    let take = chunk.len().min(body.len() - *got);
                    body[*got..*got + take].copy_from_slice(&chunk[..take]);
                    *got += take;
                    chunk = &chunk[take..];
                    if *got == body.len() {
                        let done = std::mem::take(body);
                        self.ready.push_back(done);
                        completed += 1;
                        self.state = State::Header {
                            buf: [0; 4],
                            got: 0,
                        };
                    }
                }
                State::Poisoned { len } => {
                    return Err(DecodeError::Oversized { len: *len });
                }
            }
        }
        Ok(completed)
    }

    /// Pops the oldest completed frame body, if any.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        self.ready.pop_front()
    }

    /// Bytes required to complete the element currently in progress (4
    /// at a frame boundary, the rest of the prefix or body otherwise).
    /// A blocking transport that must not read past the frame it
    /// returns reads exactly this many.
    pub fn needed(&self) -> usize {
        match &self.state {
            State::Header { got, .. } => 4 - got,
            State::Body { body, got } => body.len() - got,
            State::Poisoned { .. } => 0,
        }
    }

    /// Position within the current element, for truncation diagnostics.
    pub fn partial(&self) -> FramePartial {
        match &self.state {
            State::Header { got: 0, .. } => FramePartial::Clean,
            State::Header { got, .. } => FramePartial::Header { got: *got },
            State::Body { body, got } => FramePartial::Body {
                len: body.len(),
                got: *got,
            },
            State::Poisoned { len } => FramePartial::Body { len: *len, got: 0 },
        }
    }
}

/// Stateless frame encoder: prepends the length prefix.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrameEncoder;

impl FrameEncoder {
    /// Encodes one frame (prefix + body) into a fresh buffer. The body
    /// must not exceed [`MAX_FRAME`]; all bodies produced by this
    /// crate's codec are far below the cap.
    pub fn encode(body: &[u8]) -> Vec<u8> {
        debug_assert!(body.len() <= MAX_FRAME, "frame body exceeds cap");
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_frame_in_one_chunk() {
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(&FrameEncoder::encode(b"abc")).unwrap(), 1);
        assert_eq!(dec.next_frame().unwrap(), b"abc");
        assert_eq!(dec.partial(), FramePartial::Clean);
    }

    #[test]
    fn several_frames_in_one_chunk() {
        let mut wire = FrameEncoder::encode(b"one");
        wire.extend(FrameEncoder::encode(b""));
        wire.extend(FrameEncoder::encode(b"three"));
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(&wire).unwrap(), 3);
        assert_eq!(dec.next_frame().unwrap(), b"one");
        assert_eq!(dec.next_frame().unwrap(), b"");
        assert_eq!(dec.next_frame().unwrap(), b"three");
        assert_eq!(dec.next_frame(), None);
    }

    #[test]
    fn byte_at_a_time_tracks_partial_and_needed() {
        let wire = FrameEncoder::encode(b"xy");
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.needed(), 4);
        dec.feed(&wire[..1]).unwrap();
        assert_eq!(dec.partial(), FramePartial::Header { got: 1 });
        assert_eq!(dec.needed(), 3);
        dec.feed(&wire[1..4]).unwrap();
        assert_eq!(dec.partial(), FramePartial::Body { len: 2, got: 0 });
        assert_eq!(dec.needed(), 2);
        dec.feed(&wire[4..5]).unwrap();
        assert_eq!(dec.partial(), FramePartial::Body { len: 2, got: 1 });
        dec.feed(&wire[5..]).unwrap();
        assert_eq!(dec.next_frame().unwrap(), b"xy");
    }

    #[test]
    fn oversized_prefix_poisons_the_decoder() {
        let mut wire = ((MAX_FRAME as u32) + 1).to_be_bytes().to_vec();
        wire.push(0);
        let mut dec = FrameDecoder::new();
        assert_eq!(
            dec.feed(&wire),
            Err(DecodeError::Oversized { len: MAX_FRAME + 1 })
        );
        assert_eq!(
            dec.feed(b"more"),
            Err(DecodeError::Oversized { len: MAX_FRAME + 1 }),
            "poisoned decoder keeps refusing"
        );
    }
}
