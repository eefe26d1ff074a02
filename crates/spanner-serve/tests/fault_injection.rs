//! Fault injection against the shard router.
//!
//! A router is only as good as its failure handling: this suite stands up
//! misbehaving backend stubs — accepts-then-stalls, closes mid-line,
//! answers malformed JSON, drips bytes slower than the response deadline
//! — plus plainly dead addresses, and asserts the router's containment
//! contract: every backend call resolves within its configured timeout, a
//! failed idempotent call is retried a bounded number of times (observed
//! from the stub's accept counter), the caller gets a *typed* degraded
//! response naming the failed shard and backend instead of a hang or a
//! generic error, the router stays answerable (`stats` is served locally)
//! with every backend down, and a healthy shard keeps serving. A
//! connection-reuse regression pins the pooled-backend fix: a burst of
//! router queries adds exactly one connection to a backend, not one per
//! request.

use spanner_serve::{Client, Json, RouterOptions, ServeOptions, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a stub backend mistreats each accepted connection.
#[derive(Clone, Copy, Debug)]
enum Misbehavior {
    /// Accept, read the request, never answer.
    Stall,
    /// Accept, read the request, answer half a line, close.
    CloseMidLine,
    /// Accept, read the request, answer something that is not JSON.
    MalformedJson,
    /// Accept, read the request, then drip one byte per poll interval —
    /// slower than any deadline, but never idle.
    SlowDrip,
    /// Accept, read the request, answer correctly but in two writes that
    /// split a multi-byte character, further apart than the client's poll
    /// interval: slow, not wrong.
    SplitUtf8,
}

/// A misbehaving backend: counts accepted connections, applies one
/// [`Misbehavior`] per connection.
struct Stub {
    addr: SocketAddr,
    connections: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Stub {
    fn start(behavior: Misbehavior) -> Stub {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().unwrap();
        let connections = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (accepted, stopped) = (Arc::clone(&connections), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            // One handler thread per connection: a stalled connection must
            // not block the accept loop, or a retrying router could never
            // even reconnect and the attempt count would be meaningless.
            let mut workers = Vec::new();
            for stream in listener.incoming() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                accepted.fetch_add(1, Ordering::SeqCst);
                let stopped = Arc::clone(&stopped);
                workers.push(std::thread::spawn(move || {
                    // Read (some of) the request so the router's write
                    // succeeds; a stub never parses it.
                    let mut buf = [0u8; 4096];
                    let _ = stream.read(&mut buf);
                    match behavior {
                        Misbehavior::Stall => {
                            // Hold the connection open, saying nothing,
                            // until the router gives up and the test
                            // stops us.
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
                                if stopped.load(Ordering::SeqCst) {
                                    break;
                                }
                                if stream.write_all(&[*byte]).is_err() {
                                    break;
                                }
                                std::thread::sleep(Duration::from_millis(80));
                            }
                        }
                        Misbehavior::SplitUtf8 => {
                            let _ = stream.write_all(b"{\"ok\":true,\"text\":\"\xC3");
                            std::thread::sleep(Duration::from_millis(120));
                            let _ = stream.write_all(b"\xA9\"}\n");
                            // Hold the connection until the test is over, so
                            // a retry would show as a second accept, not as a
                            // reuse of this one.
                            while !stopped.load(Ordering::SeqCst) {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                    }
                }));
            }
            for worker in workers {
                worker.join().expect("stub connection handler panicked");
            }
        });
        Stub {
            addr,
            connections,
            stop,
            handle: Some(handle),
        }
    }

    fn connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }
}

impl Drop for Stub {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            handle.join().expect("stub thread panicked");
        }
    }
}

/// Short timeouts so every scenario resolves in well under a second per
/// attempt.
fn fast_router(backends: Vec<String>, retries: usize) -> RouterOptions {
    RouterOptions {
        backends,
        connect_timeout: Duration::from_millis(200),
        read_timeout: Duration::from_millis(200),
        retries,
        retry_backoff: Duration::from_millis(10),
    }
}

/// Backend options with enough connection workers for the router's
/// persistent pooled connection *plus* a direct assertion client — the
/// default (one worker per CPU) is a single worker on small CI boxes,
/// and a held pooled connection would starve the second client until the
/// idle timeout.
fn backend_options() -> ServeOptions {
    ServeOptions {
        threads: 4,
        ..ServeOptions::default()
    }
}

fn start_router(options: RouterOptions) -> (Client, JoinHandle<std::io::Result<()>>) {
    let (addr, handle) = Server::bind_router("127.0.0.1:0", ServeOptions::default(), options)
        .expect("bind router")
        .spawn();
    (Client::connect(addr).unwrap(), handle)
}

/// The degraded-response contract: `ok:false`, `degraded:true`, and the
/// failing shard's index and address spelled out.
fn assert_degraded(response: &Json, shard: usize, backend: &SocketAddr) {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(false),
        "{response}"
    );
    assert_eq!(
        response.get("degraded").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    assert_eq!(
        response.get("shard").and_then(Json::as_usize),
        Some(shard),
        "{response}"
    );
    assert_eq!(
        response.get("backend").and_then(Json::as_str),
        Some(backend.to_string().as_str()),
        "{response}"
    );
    let error = response.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        error.contains(&format!("shard {shard}")) && error.contains(&backend.to_string()),
        "error must name the shard and backend: {response}"
    );
}

fn query_line() -> String {
    Json::object([
        ("op", Json::string("query_corpus")),
        ("program", Json::string("/{x:a+}/")),
        ("text", Json::string("aa\nb\naaa")),
    ])
    .to_string()
}

/// Every misbehavior resolves within the deadline budget, with exactly
/// `1 + retries` attempts (one connection per attempt — the pooled
/// connection is dropped on failure), and yields the typed degraded
/// response.
#[test]
fn misbehaving_backends_yield_bounded_typed_degradation() {
    for behavior in [
        Misbehavior::Stall,
        Misbehavior::CloseMidLine,
        Misbehavior::MalformedJson,
        Misbehavior::SlowDrip,
    ] {
        let retries = 2usize;
        let stub = Stub::start(behavior);
        let (mut client, handle) = start_router(fast_router(vec![stub.addr.to_string()], retries));

        let started = Instant::now();
        let response = client.request_line(&query_line()).unwrap();
        let elapsed = started.elapsed();
        let response = Json::parse(&response).unwrap();
        assert_degraded(&response, 0, &stub.addr);

        // Bounded retry: one connection per attempt, no more. (Stall and
        // SlowDrip cost one read deadline per attempt; the budget below
        // is 3 × 200 ms deadlines + backoffs + slack.)
        assert_eq!(
            stub.connections(),
            1 + retries,
            "{behavior:?}: attempts must be bounded"
        );
        assert!(
            elapsed < Duration::from_secs(3),
            "{behavior:?}: resolved in {elapsed:?}, deadline budget blown"
        );

        // The router is still alive and answerable: stats is served
        // locally and reports the backend's error/retry counters.
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        let backends = stats
            .get("router")
            .and_then(|r| r.get("backends"))
            .and_then(Json::as_array)
            .expect("router backends in stats");
        assert_eq!(backends[0].get("errors").and_then(Json::as_usize), Some(1));
        assert_eq!(
            backends[0].get("retries").and_then(Json::as_usize),
            Some(retries),
            "{behavior:?}"
        );

        // Clean drain: shutdown joins every worker; a leaked fan-out
        // thread would hang this join.
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}

/// A response that arrives in two pieces, split inside a character and
/// further apart than the client's poll interval, is a slow response — not
/// a transport failure. (Read as text per poll tick, the half character was
/// an `InvalidData` error: idempotent calls retried, and an `append_docs`
/// the backend had *applied* was reported degraded.)
#[test]
fn a_response_split_inside_a_character_succeeds_on_the_first_attempt() {
    let stub = Stub::start(Misbehavior::SplitUtf8);
    // A deadline well past the 120 ms gap; what is under test is the poll
    // tick that lands inside it.
    let options = RouterOptions {
        read_timeout: Duration::from_secs(2),
        ..fast_router(vec![stub.addr.to_string()], 2)
    };
    let (mut client, handle) = start_router(options);

    let response = Json::parse(&client.request_line(&query_line()).unwrap()).unwrap();
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    assert_eq!(stub.connections(), 1, "no retry: the first answer counts");
    let stats = client.stats().unwrap();
    let backend = &stats
        .get("router")
        .and_then(|r| r.get("backends"))
        .and_then(Json::as_array)
        .expect("router backends in stats")[0];
    assert_eq!(backend.get("errors").and_then(Json::as_usize), Some(0));
    assert_eq!(backend.get("retries").and_then(Json::as_usize), Some(0));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A dead address (nothing listening) degrades fast — connect errors do
/// not consume the read deadline.
#[test]
fn dead_backend_degrades_without_burning_the_deadline() {
    // Grab a port and release it: nothing listens there afterwards.
    let dead = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let (mut client, handle) = start_router(fast_router(vec![dead.to_string()], 1));
    let started = Instant::now();
    let response = client.request_line(&query_line()).unwrap();
    let response = Json::parse(&response).unwrap();
    assert_degraded(&response, 0, &dead);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "refused connections must fail fast, took {:?}",
        started.elapsed()
    );
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// With one healthy daemon and one stalling stub, the degraded response
/// names the *failing* shard — and after the stub is replaced by silence,
/// non-routed ops and stats keep working.
#[test]
fn mixed_cluster_names_the_failing_shard_and_keeps_serving() {
    let (healthy_addr, healthy_handle) = Server::bind("127.0.0.1:0", backend_options())
        .expect("bind healthy backend")
        .spawn();
    let stub = Stub::start(Misbehavior::Stall);
    let (mut client, handle) = start_router(fast_router(
        vec![healthy_addr.to_string(), stub.addr.to_string()],
        0,
    ));

    // The fan-out reaches both shards; the response is the first failing
    // shard's degraded report, not a hang and not a generic error.
    let response = Json::parse(&client.request_line(&query_line()).unwrap()).unwrap();
    assert_degraded(&response, 1, &stub.addr);

    // Non-routed ops are local: a single-document query works with a
    // stalled shard in the cluster.
    let local = client.query("/{x:a+}/", "aa").unwrap();
    assert_eq!(local.get("ok").and_then(Json::as_bool), Some(true));

    // The healthy backend saw its slice exactly once per fan-out.
    let mut healthy = Client::connect(healthy_addr).unwrap();
    let stats = healthy.stats().unwrap();
    let served = stats
        .get("server")
        .and_then(|s| s.get("requests_total"))
        .and_then(Json::as_usize)
        .unwrap();
    assert!(served >= 1, "healthy shard must have served its slice");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    healthy.shutdown().unwrap();
    healthy_handle.join().unwrap().unwrap();
}

/// Append (non-idempotent) is never retried: a failed append costs
/// exactly one attempt.
#[test]
fn appends_are_never_retried() {
    let (healthy_addr, healthy_handle) = Server::bind("127.0.0.1:0", backend_options())
        .expect("bind healthy backend")
        .spawn();
    let stub = Stub::start(Misbehavior::CloseMidLine);
    let (mut client, handle) = start_router(fast_router(
        vec![healthy_addr.to_string(), stub.addr.to_string()],
        3,
    ));

    // Loading fails (shard 1 is a stub) and that is fine here: the
    // append must be rejected *before* reaching any backend when no
    // corpus is resident — the daemon's exact error, not a degraded one.
    let load = Json::object([
        ("op", Json::string("load_corpus")),
        ("text", Json::string("a\nb")),
    ])
    .to_string();
    let response = Json::parse(&client.request_line(&load).unwrap()).unwrap();
    assert_degraded(&response, 1, &stub.addr);
    let connections_after_load = stub.connections();
    assert_eq!(
        connections_after_load, 4,
        "idempotent load: 1 + 3 retries attempts"
    );

    let append = Json::object([
        ("op", Json::string("append_docs")),
        ("text", Json::string("c")),
    ])
    .to_string();
    let response = Json::parse(&client.request_line(&append).unwrap()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("no resident corpus (send `load_corpus` first)"),
    );
    assert_eq!(
        stub.connections(),
        connections_after_load,
        "an append without a resident corpus must not reach any backend"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let mut healthy = Client::connect(healthy_addr).unwrap();
    healthy.shutdown().unwrap();
    healthy_handle.join().unwrap().unwrap();
}

/// The pooled-connection regression: a 10-request burst through the
/// router adds exactly one connection to the backend — the router holds
/// one persistent [`Client`] per shard instead of dialing per request.
#[test]
fn router_reuses_one_backend_connection_across_a_burst() {
    let (backend_addr, backend_handle) = Server::bind("127.0.0.1:0", backend_options())
        .expect("bind backend")
        .spawn();
    let mut backend = Client::connect(backend_addr).unwrap();
    let (mut client, handle) = start_router(fast_router(vec![backend_addr.to_string()], 2));

    let connections = |backend: &mut Client| {
        backend
            .stats()
            .unwrap()
            .get("server")
            .and_then(|s| s.get("connections"))
            .and_then(Json::as_usize)
            .unwrap()
    };
    let before = connections(&mut backend);
    for _ in 0..10 {
        let response = Json::parse(&client.request_line(&query_line()).unwrap()).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
    }
    let after = connections(&mut backend);
    assert_eq!(
        after - before,
        1,
        "a 10-request burst must reuse one pooled backend connection"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    backend.shutdown().unwrap();
    backend_handle.join().unwrap().unwrap();
}
