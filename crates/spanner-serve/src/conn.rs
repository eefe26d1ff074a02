//! One TCP connection: a framed reader and two reusable buffers.
//!
//! Every byte this crate reads off a socket — request lines, HTTP heads
//! and bodies, the clients' responses — comes through [`Conn::read_frame`],
//! the only poll loop. What a *frame* is, its framer says: shown the bytes
//! buffered so far and the next chunk, it answers "this many bytes of the
//! chunk are mine, and with them I am complete / not yet". What a read may
//! cost is a [`Limits`]; how it can end is a [`Frame`].

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often a silent socket wakes its reader to look at the stop flag and
/// the clock. The socket timeout is this interval, never the deadline
/// itself: the deadline must not restart with every byte.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// A buffer that grew past this to hold one large frame (a shipped corpus,
/// a large answer) is released after use instead of staying with an idle
/// connection.
const RETAINED_BYTES: usize = 64 << 10;

/// What one frame read may cost.
pub(crate) struct Limits<'a> {
    /// Most bytes the frame may span; nothing past them is buffered.
    pub cap: usize,
    /// When to give up; `None` waits forever. Checked on every iteration,
    /// not only when the socket is silent: a peer dripping one byte per
    /// poll interval is cut off like a silent one.
    pub deadline: Option<Instant>,
    /// Raised to end the read on the next silent poll tick, even with a
    /// partial frame buffered — half a request is not in-flight work, and
    /// waiting for its end could stall a shutdown forever.
    pub stop: Option<&'a AtomicBool>,
}

/// How a frame read ended.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// The framer saw the frame's last byte; the frame is in [`Conn::input`].
    Complete,
    /// No end within [`Limits::cap`] bytes; those bytes are consumed, the
    /// rest of the frame is still on the stream.
    Oversized,
    /// The peer closed the stream; [`Conn::input`] holds what came before
    /// (nothing, between frames). What an unterminated tail means is the
    /// caller's protocol, not the reader's.
    Eof,
    /// The deadline passed or the stop flag was raised first.
    Expired,
}

/// The line framer: a frame ends with its first `\n`.
pub(crate) fn line_frame(_buffered: &[u8], chunk: &[u8]) -> (usize, bool) {
    match chunk.iter().position(|&b| b == b'\n') {
        Some(newline) => (newline + 1, true),
        None => (chunk.len(), false),
    }
}

/// The length framer: a frame is exactly `length` bytes.
pub(crate) fn exact_frame(length: usize) -> impl Fn(&[u8], &[u8]) -> (usize, bool) {
    move |buffered, chunk| {
        let take = chunk.len().min(length - buffered.len());
        (take, buffered.len() + take == length)
    }
}

/// One connection's socket and buffers. `&TcpStream` is both `Read` and
/// `Write`, so reader and writer share one file descriptor.
pub(crate) struct Conn {
    reader: BufReader<TcpStream>,
    /// The frame last read (partial unless the read was [`Frame::Complete`]).
    pub input: Vec<u8>,
    /// The response under construction; [`Conn::flush`] sends and empties it.
    pub output: Vec<u8>,
    /// When the last frame read returned — the moment a request is in hand,
    /// so client idle time before it is not handling time.
    pub framed_at: Instant,
    /// Bytes consumed / sent since the owner last took the tallies.
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl Conn {
    /// Wraps a connected stream. Requests and responses are small: without
    /// `TCP_NODELAY` the Nagle / delayed-ACK interaction adds tens of
    /// milliseconds per round trip.
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
            input: Vec::new(),
            output: Vec::new(),
            framed_at: Instant::now(),
            bytes_read: 0,
            bytes_written: 0,
        })
    }

    /// The underlying socket (timeouts, peer address).
    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// Reads one frame into [`Conn::input`]. Bytes past the frame's end
    /// stay buffered for the next read, so pipelined requests are served
    /// in order.
    pub fn read_frame(
        &mut self,
        limits: &Limits<'_>,
        mut framer: impl FnMut(&[u8], &[u8]) -> (usize, bool),
    ) -> io::Result<Frame> {
        recycle(&mut self.input);
        // A frame can be complete before its first byte (an empty body):
        // the framer is asked before the socket is waited on.
        let mut complete = framer(&self.input, &[]).1;
        let frame = loop {
            if complete {
                break Frame::Complete;
            }
            if limits.deadline.is_some_and(|at| Instant::now() >= at) {
                break Frame::Expired;
            }
            let chunk = match self.reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if limits.stop.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
                        break Frame::Expired;
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                break Frame::Eof;
            }
            let (wanted, done) = framer(&self.input, chunk);
            let take = wanted.min(limits.cap - self.input.len());
            self.input.extend_from_slice(&chunk[..take]);
            self.reader.consume(take);
            self.bytes_read += take as u64;
            if take < wanted {
                break Frame::Oversized;
            }
            complete = done;
        };
        self.framed_at = Instant::now();
        Ok(frame)
    }

    /// Sends [`Conn::output`] with a single `write` where the kernel allows
    /// and empties it. Writing fragments straight to the socket would issue
    /// one syscall — under `TCP_NODELAY`, one packet — per fragment.
    pub fn flush(&mut self) -> io::Result<()> {
        self.reader.get_ref().write_all(&self.output)?;
        self.bytes_written += self.output.len() as u64;
        recycle(&mut self.output);
        Ok(())
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.stream().peer_addr() {
            Ok(addr) => write!(f, "Conn({addr})"),
            Err(_) => write!(f, "Conn(disconnected)"),
        }
    }
}

/// Empties a buffer for reuse, keeping its allocation unless one large
/// frame (or response) inflated it.
pub(crate) fn recycle(buffer: &mut Vec<u8>) {
    if buffer.capacity() > RETAINED_BYTES {
        *buffer = Vec::new();
    } else {
        buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected pair: the peer's raw stream and a `Conn` over our end.
    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(POLL_INTERVAL)).unwrap();
        (peer, Conn::new(stream).unwrap())
    }

    fn limits(cap: usize) -> Limits<'static> {
        Limits {
            cap,
            deadline: Instant::now().checked_add(Duration::from_secs(10)),
            stop: None,
        }
    }

    #[test]
    fn frames_are_cut_at_their_end_and_the_rest_stays_buffered() {
        let (mut peer, mut conn) = pair();
        // An empty frame is complete without waiting for the silent peer.
        assert_eq!(
            conn.read_frame(&limits(64), exact_frame(0)).unwrap(),
            Frame::Complete
        );
        assert!(conn.input.is_empty());
        peer.write_all(b"one\ntwo\nthr").unwrap();
        assert_eq!(
            conn.read_frame(&limits(64), line_frame).unwrap(),
            Frame::Complete
        );
        assert_eq!(conn.input, b"one\n");
        assert_eq!(
            conn.read_frame(&limits(64), line_frame).unwrap(),
            Frame::Complete
        );
        assert_eq!(conn.input, b"two\n");
        // EOF ends the last frame where it stands; then there is nothing.
        drop(peer);
        assert_eq!(
            conn.read_frame(&limits(64), line_frame).unwrap(),
            Frame::Eof
        );
        assert_eq!(conn.input, b"thr");
        assert_eq!(
            conn.read_frame(&limits(64), line_frame).unwrap(),
            Frame::Eof
        );
        assert!(conn.input.is_empty());
        assert_eq!(conn.bytes_read, 11);
    }

    #[test]
    fn the_cap_is_never_buffered_past_and_never_eats_the_next_frame() {
        let (mut peer, mut conn) = pair();
        peer.write_all(b"0123456789\nnext\n").unwrap();
        // Ten bytes and a newline under a cap of four: three capped reads
        // walk through the frame, the last one completes it.
        for expected in [&b"0123"[..], b"4567"] {
            assert_eq!(
                conn.read_frame(&limits(4), line_frame).unwrap(),
                Frame::Oversized
            );
            assert_eq!(conn.input, expected);
        }
        assert_eq!(
            conn.read_frame(&limits(4), line_frame).unwrap(),
            Frame::Complete
        );
        assert_eq!(conn.input, b"89\n");
        assert_eq!(
            conn.read_frame(&limits(5), line_frame).unwrap(),
            Frame::Complete
        );
        assert_eq!(conn.input, b"next\n");
    }

    #[test]
    fn deadline_and_stop_flag_end_a_read_with_the_partial_frame_kept() {
        let (mut peer, mut conn) = pair();
        peer.write_all(b"half").unwrap();
        let soon = Limits {
            cap: 64,
            deadline: Some(Instant::now() + Duration::from_millis(120)),
            stop: None,
        };
        assert_eq!(conn.read_frame(&soon, line_frame).unwrap(), Frame::Expired);
        assert_eq!(conn.input, b"half");

        let stop = AtomicBool::new(true);
        let stopped = Limits {
            cap: 64,
            deadline: None,
            stop: Some(&stop),
        };
        // Buffered input is still served under a raised flag; silence is not.
        peer.write_all(b"whole\n").unwrap();
        assert_eq!(
            conn.read_frame(&stopped, line_frame).unwrap(),
            Frame::Complete
        );
        assert_eq!(
            conn.read_frame(&stopped, line_frame).unwrap(),
            Frame::Expired
        );
    }
}
