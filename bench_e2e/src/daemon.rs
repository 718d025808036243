//! `autobraidd` in a child process of its own, so the load generator and
//! the daemon do not share an address space and the daemon's peak
//! memory is its own.
//!
//! The child is this same executable started as `e2e --daemon <threads>`:
//! it starts the service library's [`Server`], prints its address, and
//! serves until its standard input closes; it then prints its peak
//! resident memory and exits.

use autobraid_service::{Server, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::Duration;

/// A running daemon child process.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The address it serves on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts a daemon with `threads` compile threads and waits until it
    /// listens.
    pub fn start(threads: usize) -> Daemon {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let mut child = Command::new(exe)
            .args(["--daemon", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the daemon process");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("read the daemon address");
        let addr = line
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("daemon printed `{}`, not an address", line.trim()));
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    /// A new client connection (Nagle off, as `Client::connect` does).
    pub fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connect to the daemon");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        stream
    }

    /// Stops the daemon and waits for it to exit; returns its peak
    /// resident memory in MiB.
    pub fn stop(mut self) -> f64 {
        drop(self.child.stdin.take());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let _ = self.child.wait();
        rest.lines()
            .find_map(|l| l.strip_prefix("peak_rss_mb "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // `stop` already reaped the child; otherwise do it now.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The child side: serve until standard input closes.
pub fn child_main(threads: &str) -> ExitCode {
    let Ok(threads) = threads.parse::<usize>() else {
        eprintln!("--daemon needs a thread count");
        return ExitCode::from(2);
    };
    let mut server = match Server::start(ServiceConfig {
        threads,
        queue_capacity: 64,
        dump_dir: String::new(),
        ..ServiceConfig::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("daemon failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "{}", server.addr());
    let _ = stdout.flush();
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    let _ = writeln!(stdout, "peak_rss_mb {}", crate::stats::peak_rss_mb());
    let _ = stdout.flush();
    server.shutdown();
    ExitCode::SUCCESS
}
