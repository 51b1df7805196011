//! The `clb serve` child process, the loopback client connection, and the
//! `/proc` and `/v1/cache_stats` probes read around a timed window.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clb_service::{CacheStatsResponse, WireResponse};

/// Compute permits (and search threads) of the served process: the
/// benchmark host has two cores.
pub const SERVER_THREADS: usize = 2;

/// How long a fresh server may take to print its address and answer
/// `/healthz`.
const STARTUP_DEADLINE: Duration = Duration::from_secs(30);

/// A running `clb serve --port 0 --threads 2`. Dropping it kills and reaps
/// the process.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server, waits for its listening address on stderr and
    /// for `/healthz` to answer 200.
    ///
    /// # Errors
    ///
    /// When the binary cannot start, exits early, or does not become
    /// healthy within the start-up deadline.
    pub fn spawn(clb: &Path) -> Result<Server, String> {
        let mut child = Command::new(clb)
            .args(["serve", "--port", "0", "--threads"])
            .arg(SERVER_THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", clb.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // The reader keeps draining stderr after the address line so the
        // server can never block on a full pipe; it ends at the child's exit.
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stderr).lines();
            let mut sent = false;
            for line in lines.by_ref().map_while(Result::ok) {
                if !sent {
                    if let Some(addr) = line.split("http://").nth(1) {
                        let addr = addr.split_whitespace().next().unwrap_or_default();
                        sent = tx.send(addr.to_string()).is_ok();
                    }
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let started = Instant::now();
        let addr = rx
            .recv_timeout(STARTUP_DEADLINE)
            .map_err(|_| "clb serve did not report its address".to_string())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("unparsable server address `{addr}`: {e}"))?;
        loop {
            match get(server.addr, "/healthz") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if started.elapsed() > STARTUP_DEADLINE => {
                    return Err("clb serve never answered /healthz".to_string())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// The loopback address the server listens on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /v1/cache_stats`, parsed.
    ///
    /// # Errors
    ///
    /// On transport errors or an unparsable body.
    pub fn cache_stats(&self) -> Result<CacheStatsResponse, String> {
        let response = get(self.addr, "/v1/cache_stats").map_err(|e| e.to_string())?;
        serde_json::from_str(&response.body).map_err(|e| format!("cache_stats: {e}"))
    }

    /// The server's `/proc` counters right now.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>` cannot be read or parsed.
    pub fn proc_sample(&self) -> Result<ProcSample, String> {
        ProcSample::read(self.pid())
    }

    /// Kills the server and waits for it (and the stderr reader) to end.
    pub fn stop(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle off and a generous read timeout (a stalled
    /// server surfaces as a transport error, not a hang).
    ///
    /// # Errors
    ///
    /// On connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    /// Writes one request and reads its whole response.
    ///
    /// # Errors
    ///
    /// On socket errors or malformed framing.
    pub fn round_trip(&mut self, wire: &[u8]) -> std::io::Result<WireResponse> {
        let mut stream = self.reader.get_ref();
        stream.write_all(wire)?;
        WireResponse::read_from(&mut self.reader)
    }
}

/// A one-shot `GET` on a fresh connection.
///
/// # Errors
///
/// On socket errors or malformed framing.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<WireResponse> {
    let mut conn = Conn::connect(addr)?;
    conn.round_trip(&clb_service::request_bytes("GET", path, "", false))
}

/// `/proc` ticks per second (`USER_HZ`, fixed at 100 by the Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time, peak resident set and thread count of a process.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// `VmHWM`, the peak resident set, in KiB.
    pub peak_rss_kib: u64,
    /// Live threads.
    pub threads: u64,
}

impl ProcSample {
    fn read(pid: u32) -> Result<ProcSample, String> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesised command name, which may hold spaces:
        // state is field 3, utime 14 and stime 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |field: usize| -> Result<f64, String> {
            fields
                .get(field - 3)
                .and_then(|v| v.parse::<u64>().ok())
                .map(|t| t as f64 / TICKS_PER_SECOND)
                .ok_or_else(|| format!("/proc stat field {field} missing"))
        };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        let status_field = |name: &str| -> Result<u64, String> {
            status
                .lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("/proc status has no {name}"))
        };
        Ok(ProcSample {
            user_s: ticks(14)?,
            sys_s: ticks(15)?,
            peak_rss_kib: status_field("VmHWM:")?,
            threads: status_field("Threads:")?,
        })
    }
}
