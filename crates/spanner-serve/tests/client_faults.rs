//! The client against servers that misbehave.
//!
//! A [`Client`] with a deadline must come back from every server: one that
//! accepts and stalls, drips bytes slower than the deadline, closes
//! mid-line or answers something that is not JSON. Each failure is a typed
//! [`io::ErrorKind`] within the deadline plus slack, never a hang. A
//! response that is merely slow — split inside a character, with the two
//! halves further apart than the client's poll interval — is an answer.

use spanner_serve::{Client, Json};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a stub server mistreats each accepted connection.
#[derive(Clone, Copy, Debug)]
enum Misbehavior {
    /// Accept, read the request, never answer.
    Stall,
    /// Accept, read the request, answer half a line, close.
    CloseMidLine,
    /// Accept, read the request, answer something that is not JSON.
    MalformedJson,
    /// Accept, read the request, then drip one byte per 80 ms — slower
    /// than any deadline, but never idle.
    SlowDrip,
    /// Accept, read the request, answer correctly but in two writes that
    /// split a multi-byte character, further apart than the client's poll
    /// interval: slow, not wrong.
    SplitUtf8,
}

/// A misbehaving server: accepts one connection and applies one
/// [`Misbehavior`] to it.
struct Stub {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Stub {
    fn start(behavior: Misbehavior) -> Stub {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            // Read (some of) the request so the client's write succeeds; a
            // stub never parses it.
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            match behavior {
                // Hold the connection open, saying nothing, until the test
                // stops us.
                Misbehavior::Stall => {
                    while !stopped.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                Misbehavior::CloseMidLine => {
                    let _ = stream.write_all(b"{\"ok\":tr");
                    // Dropped: closed without a newline.
                }
                Misbehavior::MalformedJson => {
                    let _ = stream.write_all(b"certainly not json\n");
                }
                Misbehavior::SlowDrip => {
                    for byte in b"{\"ok\":true}\n" {
                        if stopped.load(Ordering::SeqCst) || stream.write_all(&[*byte]).is_err() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(80));
                    }
                }
                Misbehavior::SplitUtf8 => {
                    let _ = stream.write_all(b"{\"ok\":true,\"text\":\"\xC3");
                    std::thread::sleep(Duration::from_millis(120));
                    let _ = stream.write_all(b"\xA9\"}\n");
                }
            }
        });
        Stub {
            addr,
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Stub {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock an accept no client reached.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A client of `stub` whose every request is bounded by `deadline`.
fn client(stub: &Stub, deadline: Duration) -> Client {
    let mut client = Client::connect(stub.addr).expect("connect to stub");
    client.set_deadline(Some(deadline)).unwrap();
    client
}

fn stats() -> Json {
    Json::object([("op", Json::string("stats"))])
}

/// Every misbehavior resolves within the deadline plus slack, as the
/// error kind that names it.
#[test]
fn misbehaving_servers_fail_the_client_with_typed_errors() {
    let deadline = Duration::from_millis(200);
    for (behavior, kind) in [
        (Misbehavior::Stall, io::ErrorKind::TimedOut),
        (Misbehavior::SlowDrip, io::ErrorKind::TimedOut),
        (Misbehavior::CloseMidLine, io::ErrorKind::UnexpectedEof),
        (Misbehavior::MalformedJson, io::ErrorKind::InvalidData),
    ] {
        let stub = Stub::start(behavior);
        let mut client = client(&stub, deadline);
        let started = Instant::now();
        let error = client.request(&stats()).expect_err("a misbehaving server");
        let elapsed = started.elapsed();
        assert_eq!(error.kind(), kind, "{behavior:?}: {error}");
        // A timeout is the deadline's, not an earlier giving up.
        assert!(
            kind != io::ErrorKind::TimedOut || elapsed >= deadline,
            "{behavior:?}: timed out after {elapsed:?}"
        );
        assert!(
            elapsed < deadline + Duration::from_secs(1),
            "{behavior:?}: resolved in {elapsed:?}, deadline blown"
        );
    }
}

/// A response that arrives in two pieces, split inside a character and
/// further apart than the client's poll interval, is a slow response — not
/// a transport failure. (Read as text per poll tick, the half character was
/// an `InvalidData` error: a caller that retried on it re-sent requests the
/// server had already applied.)
#[test]
fn a_response_split_inside_a_character_succeeds_on_the_first_attempt() {
    let stub = Stub::start(Misbehavior::SplitUtf8);
    // A deadline well past the 120 ms gap; what is under test is the poll
    // tick that lands inside it.
    let mut client = client(&stub, Duration::from_secs(2));
    let response = client.request(&stats()).expect("the first read answers");
    assert_eq!(response.get("text").and_then(Json::as_str), Some("é"));
}
