//! The daemon under test, as a child process of the harness.
//!
//! The harness re-executes its own binary with `--daemon`: a thin wrapper
//! that binds `spanner_serve::Server`, prints the address and runs. A
//! separate process keeps the daemon's memory and CPU time apart from the
//! harness's, so `/proc/<pid>` reads are the daemon's alone.

use spanner_serve::{ServeOptions, Server};
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux this runs on; there is no libc here to ask).
const USER_HZ: f64 = 100.0;

/// The child side: serve until a `shutdown` request. Both cores serve
/// connections and corpus shards; the line cap admits a whole corpus in one
/// `load_corpus` request (the 1 MiB default answers it with `ok:false`).
pub fn serve(http: bool) -> io::Result<()> {
    let options = ServeOptions {
        threads: 2,
        corpus_threads: crate::workloads::THREADS,
        max_line_bytes: 32 << 20,
        max_body_bytes: 32 << 20,
        http,
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", options)?;
    let mut stdout = io::stdout();
    writeln!(stdout, "{}", server.local_addr())?;
    stdout.flush()?;
    server.run()
}

/// A running daemon child. Dropping it kills and reaps the process, so no
/// exit path of the harness leaves one behind.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns the child and waits for the address it prints.
    pub fn spawn(http: bool) -> io::Result<Daemon> {
        let mut command = Command::new(std::env::current_exe()?);
        command.arg("--daemon");
        if http {
            command.arg("--http");
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        // From here on `Daemon::drop` reaps the child on every error path.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        daemon.addr = line.trim().parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("daemon printed {line:?} instead of its address"),
            )
        })?;
        Ok(daemon)
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// CPU seconds (user + system, all threads) the child has used.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let ticks: f64 = after_comm
            .split_ascii_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse::<f64>().ok())
            .sum();
        Ok(ticks / USER_HZ)
    }

    /// Peak resident set size (`VmHWM`) of the child, in MB.
    pub fn rss_peak_mb(&self) -> io::Result<f64> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
    }

    /// Waits for the child to exit after a `shutdown` request.
    pub fn wait(mut self) -> io::Result<()> {
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already exited after `wait`: both calls are then no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
