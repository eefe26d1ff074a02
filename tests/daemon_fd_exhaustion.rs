//! Running out of file descriptors must not kill the daemon.
//!
//! `accept` fails with `EMFILE` once the process's descriptor table is
//! full — a few hundred idle sockets from any client do it at the default
//! limit. That is a condition of the moment, not a broken listener: the
//! daemon counts the failure (`spanner_accept_errors_total`), pauses and
//! keeps accepting, so the resident store and every open connection
//! outlive the flood. Driven through the real binary under a lowered
//! `ulimit -n`, since the limit is per process.

use spanner_serve::{Client, Json};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn the_daemon_survives_a_descriptor_flood_and_counts_it() {
    let mut daemon = Command::new("sh")
        .args(["-c", "ulimit -n 40; exec \"$0\" serve 127.0.0.1:0 2"])
        .arg(env!("CARGO_BIN_EXE_document-spanners"))
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the daemon under sh");
    // "listening on 127.0.0.1:<port> (…)"; the pipe stays open so the
    // daemon never writes to a closed stderr.
    let mut stderr = BufReader::new(daemon.stderr.take().expect("stderr was piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .split_whitespace()
        .nth(2)
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();

    // Twice the limit in idle connections. They connect regardless (the
    // kernel queues what the daemon cannot accept); the daemon runs into
    // its limit accepting them.
    let flood: Vec<TcpStream> = (0..80)
        .map(|_| TcpStream::connect(&addr).expect("the kernel queues the connection"))
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        daemon.try_wait().unwrap(),
        None,
        "the daemon exited under the flood"
    );
    drop(flood);

    // The flood gone, the daemon serves — and has counted what it refused.
    let mut client = Client::connect(&addr).unwrap();
    let response = client.query("/{x:a+}b/", "aab").unwrap();
    assert_eq!(
        response.get("count").and_then(Json::as_usize),
        Some(1),
        "{response}"
    );
    let metrics = client.metrics().unwrap();
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
    let refused: u64 = text
        .lines()
        .find_map(|line| line.strip_prefix("spanner_accept_errors_total "))
        .and_then(|count| count.parse().ok())
        .unwrap_or_else(|| panic!("no spanner_accept_errors_total in:\n{text}"));
    assert!(refused >= 1, "the flood never reached the limit");

    client.shutdown().unwrap();
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exited with {status}");
}
