//! Server processes: spawn, address discovery, control commands and
//! the counters `/proc` keeps for them at no cost to the request path.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One running `flint serve` or `flint route` process. Dropping it
/// kills the process and waits for it.
#[derive(Debug)]
pub struct Proc {
    child: Child,
    /// Keeps the pipe open so the process never writes to a closed
    /// stdout.
    _stdout: BufReader<ChildStdout>,
    /// The address the process listens on (from its startup line).
    pub addr: SocketAddr,
}

impl Proc {
    /// Starts `flint <args>` and waits for its startup line (`listening
    /// on A (…` or `routing on A (…`).
    ///
    /// # Errors
    ///
    /// The process cannot start, or exits before printing an address.
    pub fn spawn(flint: &Path, args: &[String]) -> std::io::Result<Proc> {
        let mut child = Command::new(flint)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner)?;
        let addr = banner
            .split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("flint {} printed no address: {banner:?}", args.join(" ")),
            ));
        };
        Ok(Proc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The process id, for `/proc`.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` and waits up to five seconds for a clean exit,
    /// then kills the process.
    pub fn shutdown(mut self) {
        let _ = command(self.addr, "shutdown");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Sends one control line (`stats`, `shutdown`, …) on a fresh
/// connection and returns the one-line answer.
///
/// # Errors
///
/// Any transport failure.
pub fn command(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer)?;
    Ok(answer)
}

/// On-CPU time of every thread of `pid`, nanoseconds (first field of
/// each `/proc/<pid>/task/<tid>/schedstat`).
///
/// # Errors
///
/// The process or its task list cannot be read.
fn cpu_ns(pid: u32) -> std::io::Result<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between listing and reading.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += first_number(&text);
        }
    }
    Ok(total)
}

fn first_number(text: &str) -> u64 {
    text.split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// A numeric field of `/proc/<pid>/status` (`VmHWM` in kB, `Threads`).
/// `pid` may be `"self"`.
///
/// # Errors
///
/// The status file cannot be read or lacks the field.
pub fn status_field(pid: &str, field: &str) -> std::io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    text.lines()
        .find_map(|l| {
            let rest = l.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, format!("no {field} in status")))
}

/// Counters of one server process over a measured interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcReading {
    /// CPU time used during the interval, ns.
    pub cpu_ns: u64,
    /// Peak resident set (`VmHWM`), kB, read at the end.
    pub hwm_kb: u64,
    /// Threads, read at the end.
    pub threads: u64,
}

/// Samples the on-CPU time of many processes at the start of an
/// interval.
///
/// # Errors
///
/// Any process cannot be read.
pub fn cpu_mark(pids: &[u32]) -> std::io::Result<Vec<u64>> {
    pids.iter().map(|&p| cpu_ns(p)).collect()
}

/// Closes an interval opened with [`cpu_mark`].
///
/// # Errors
///
/// Any process cannot be read.
pub fn readings(pids: &[u32], mark: &[u64]) -> std::io::Result<Vec<ProcReading>> {
    pids.iter()
        .zip(mark)
        .map(|(&p, &m)| {
            let pid = p.to_string();
            Ok(ProcReading {
                cpu_ns: cpu_ns(p)?.saturating_sub(m),
                hwm_kb: status_field(&pid, "VmHWM")?,
                threads: status_field(&pid, "Threads")?,
            })
        })
        .collect()
}
