//! The `ttserve` process under test, driven over its wire protocol.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tt_serve::client::Client;
use tt_serve::proto::{Request, Response};

/// Server worker threads for every serve workload.
pub const WORKERS: usize = 2;
/// Socket timeout for one benchmark request: the 1 s deadline plus
/// room for queueing.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `ttserve serve` child.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // Held open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    stderr: Option<JoinHandle<String>>,
}

/// The counters the server prints when it has drained.
#[derive(Clone, Copy, Debug, Default)]
pub struct Drained {
    pub accepted: u64,
    pub completed: u64,
    pub degraded: u64,
    pub shed: u64,
    pub faulted: u64,
    pub recovered: u64,
    pub cached: u64,
    pub queue_peak: u64,
}

impl Drained {
    pub fn balanced(&self) -> bool {
        self.accepted
            == self.completed
                + self.degraded
                + self.shed
                + self.faulted
                + self.recovered
                + self.cached
    }
}

/// Parsed `ttserve scrape` text: series name (with labels) → value.
#[derive(Clone, Debug, Default)]
pub struct Scrape(pub HashMap<String, f64>);

impl Scrape {
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self − before` for one series.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }

    /// The accounting identity over the terminal counters.
    pub fn balanced(&self) -> bool {
        let g = |t: &str| self.get(&format!("ttserve_{t}_total"));
        g("accepted")
            == [
                "completed",
                "degraded",
                "shed",
                "faulted",
                "recovered",
                "cached",
            ]
            .iter()
            .map(|t| g(t))
            .sum::<f64>()
    }
}

impl Server {
    /// Spawns `ttserve serve` on an ephemeral port with `extra` flags
    /// and returns it with the time from spawn until it answered `ping`.
    pub fn spawn(exe: &Path, extra: &[String]) -> Result<(Server, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
            ])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut err_pipe = child.stderr.take().expect("stderr is piped");
        let stderr = std::thread::spawn(move || {
            let mut s = String::new();
            let _ = err_pipe.read_to_string(&mut s);
            s
        });
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("ttserve: serving on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let mut server = Server {
            child,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            _stdout: stdout,
            stderr: Some(stderr),
        };
        if addr.is_none() {
            let _ = server.child.kill();
            let _ = server.child.wait();
            let err = server.stderr.take().map(|h| h.join().unwrap_or_default());
            return Err(format!("ttserve did not start: {line:?} {err:?}"));
        }
        loop {
            if let Ok(Response::Pong) = call(server.addr, &Request::Ping) {
                return Ok((server, start.elapsed()));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("ttserve never answered ping".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (VmHWM) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_kb(&format!("/proc/{}/status", self.pid())).map(|kb| kb as f64 / 1024.0)
    }

    pub fn scrape(&self) -> Result<Scrape, String> {
        match call(self.addr, &Request::Metrics)? {
            Response::Metrics(text) => Ok(parse_scrape(&text)),
            other => Err(format!("scrape answered {other:?}")),
        }
    }

    /// Drains over the wire, waits for exit, and returns the final
    /// counters the server printed.
    pub fn drain(mut self) -> Result<Drained, String> {
        match call(self.addr, &Request::Drain)? {
            Response::Draining => {}
            other => return Err(format!("drain answered {other:?}")),
        }
        let start = Instant::now();
        let status = loop {
            if let Some(st) = self.child.try_wait().map_err(|e| e.to_string())? {
                break st;
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("ttserve did not exit after drain".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let err = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if !status.success() {
            return Err(format!("ttserve exited with {status}: {err}"));
        }
        parse_drained(&err).ok_or_else(|| format!("no drained line in: {err}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One request on a fresh connection.
pub fn call(addr: SocketAddr, req: &Request) -> Result<Response, String> {
    Client::connect(addr, REQUEST_TIMEOUT)
        .and_then(|mut c| c.request(req))
        .map_err(|e| e.to_string())
}

/// Reads `VmHWM` (kB) from a `/proc/<pid>/status` file.
pub fn vm_hwm_kb(path: &str) -> Result<u64, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

fn parse_scrape(text: &str) -> Scrape {
    Scrape(
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect(),
    )
}

fn parse_drained(stderr: &str) -> Option<Drained> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("ttserve: drained "))?;
    let mut d = Drained::default();
    for word in line.split_whitespace() {
        let Some((k, v)) = word.split_once('=') else {
            continue;
        };
        let Ok(v) = v.parse() else { continue };
        match k {
            "accepted" => d.accepted = v,
            "completed" => d.completed = v,
            "degraded" => d.degraded = v,
            "shed" => d.shed = v,
            "faulted" => d.faulted = v,
            "recovered" => d.recovered = v,
            "cached" => d.cached = v,
            "queue_peak" => d.queue_peak = v,
            _ => {}
        }
    }
    Some(d)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copies the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for e in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let e = e.map_err(|e| e.to_string())?;
        if e.metadata().is_ok_and(|m| m.is_file()) {
            std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_drained_line_and_scrape() {
        let d = parse_drained(
            "ttserve: draining\nttserve: drained accepted=7 completed=3 degraded=1 shed=1 \
             faulted=0 recovered=1 cached=1 queue_peak=2 leaked_workers=0\n",
        )
        .unwrap();
        assert!(d.balanced());
        assert_eq!(d.queue_peak, 2);
        let s = parse_scrape("# TYPE a counter\nttserve_accepted_total 2\nttserve_completed_total 2\nh_bucket{le=\"1\"} 3\n");
        assert!(s.balanced());
        assert_eq!(s.get("h_bucket{le=\"1\"}"), 3.0);
    }
}
