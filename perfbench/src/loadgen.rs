//! The benchmark's own load generator.
//!
//! Two phases, both over plain TCP with the newline protocol, both
//! matching every response to its request FIFO per connection and
//! checking its class against the forest's majority vote:
//!
//! - [`paced`]: open loop on one connection at a fixed rate. Request
//!   `k` is due at `start + k / rate`; its latency is charged from that
//!   due time, so a stall on either side shows up in the latency of
//!   every request it delays. A writer that falls behind sends its
//!   backlog at most [`CATCH_UP_FACTOR`] times the offered rate, and
//!   reports how late it ran.
//! - [`window`]: closed loop keeping a fixed number of requests in
//!   flight, which measures the highest answered rate.
//! - [`ping`]: one request at a time over a small cycle of rows, which
//!   measures each row's fastest round trip.
//! - [`burst`]: a fixed group of requests written at once, which
//!   measures each group's fastest completion.
//!
//! A wrong class aborts the run. Busy, error and unanswered requests
//! count as failed.

use crate::fixture::Fixture;
use crate::stats::{percentile, sorted};
use crate::wire::{parse_answer, Answer};
use crate::BenchError;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Backlog after a writer stall drains at this multiple of the offered
/// rate, never as one burst.
pub const CATCH_UP_FACTOR: f64 = 2.0;

/// How long answers may trail the end of a phase before the requests
/// still open count as unanswered.
const DRAIN: Duration = Duration::from_secs(2);

/// Most requests a paced phase keeps unanswered. A server stall longer
/// than this many inter-arrival gaps holds further sends back (they go
/// late and their latency is still charged from the due time) instead
/// of running into the server's per-connection pending cap (128),
/// which would answer `busy`.
pub const PACED_MAX_IN_FLIGHT: usize = 64;

/// Cores this process may use; the generator uses no more threads and
/// no more connections than this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// Sets the calling thread's timer slack to 1 ns; threads and
/// processes started from it afterwards inherit the setting.
///
/// With the default 50 µs slack every timed sleep may overshoot by up
/// to 50 µs, by an amount that depends on what other timers happen to
/// be pending. That covers the generator's pacing sleeps (a writer
/// catching up after a stall at twice the offered rate, ~62 µs spacing
/// at 8000 req/s, only manages about the offered rate and never drains
/// its backlog) and the servers' batch linger, whose 200 µs wait then
/// took anywhere from 200 to 250 µs and moved the serving latencies
/// from run to run with the host's other activity. The benchmark calls
/// this first, so the servers it spawns run with exact timers too.
pub fn precise_timers() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // only changes the calling thread's timer slack; no memory is
        // passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
    }
}

fn check_budget(threads: usize, conns: usize) -> Result<(), BenchError> {
    let cores = nproc();
    if threads > cores || conns > cores {
        return Err(BenchError::Invalid(format!(
            "load generator needs {threads} threads and {conns} connections, \
             but only {cores} cores are available"
        )));
    }
    Ok(())
}

/// One request of a paced phase, in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// Position in the schedule (the request id).
    pub id: usize,
    /// When the schedule wanted it sent.
    pub due_ns: u64,
    /// When it was written to the socket (`None`: never sent).
    pub sent_ns: Option<u64>,
    /// When its answer was read (`None`: never answered).
    pub answered_ns: Option<u64>,
}

/// What one paced phase measured.
#[derive(Debug, Clone)]
pub struct PacedReport {
    /// Requests on the schedule.
    pub scheduled: usize,
    /// Requests answered with the correct class.
    pub answered: usize,
    /// Busy, error and unanswered requests.
    pub failed: usize,
    /// Sends that left more than one inter-arrival gap after their due
    /// time.
    pub late: usize,
    /// Due-to-answer latency of every correct answer, µs, ascending.
    pub latency_us: Vec<f64>,
    /// `(due, latency)` of every correct answer in schedule order (ns
    /// from the phase start, µs).
    pub timed: Vec<(u64, f64)>,
    /// Due-to-send lag of every sent request, µs, ascending.
    pub lag_us: Vec<f64>,
    /// One span per scheduled request.
    pub spans: Vec<RequestSpan>,
    /// Instant the schedule started.
    pub start: Instant,
    /// Instant the schedule ended.
    pub end: Instant,
}

impl PacedReport {
    /// Share of sends that left late.
    pub fn late_share(&self) -> f64 {
        self.late as f64 / self.scheduled as f64
    }

    /// The `p`-th latency percentile of each consecutive `slice`-long
    /// stretch of the schedule (by due time).
    pub fn sliced_percentiles(&self, p: f64, slice: Duration) -> Vec<f64> {
        let width = nanos(slice).max(1);
        let n = (nanos(self.end - self.start) / width).max(1) as usize;
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
        for &(due, us) in &self.timed {
            buckets[((due / width) as usize).min(n - 1)].push(us);
        }
        buckets
            .into_iter()
            .filter(|b| !b.is_empty())
            .map(|b| percentile(&sorted(b), p))
            .collect()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Reads one answer and checks it: `Ok(Some(true))` correct,
/// `Ok(Some(false))` busy or error, `Ok(None)` no complete line yet
/// (timeout) and `Err` on a wrong class or a transport error.
fn read_answer(
    reader: &mut BufReader<&TcpStream>,
    buf: &mut Vec<u8>,
    fx: &Fixture,
    row: usize,
    context: &str,
) -> Result<Option<bool>, BenchError> {
    match reader.read_until(b'\n', buf) {
        Ok(_) if buf.ends_with(b"\n") => {
            let answer = parse_answer(&String::from_utf8_lossy(buf));
            buf.clear();
            match answer {
                Answer::Class(got) if got == fx.expected[row] => Ok(Some(true)),
                Answer::Class(got) => Err(BenchError::Wrong {
                    row,
                    got,
                    want: fx.expected[row],
                    context: context.to_owned(),
                }),
                Answer::Busy | Answer::Error => Ok(Some(false)),
            }
        }
        // End of stream (possibly mid-line): nothing more will come.
        Ok(_) => Err(BenchError::Io(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "server closed the connection",
        ))),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
        Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// What the reader of a paced phase collects: when each request was
/// answered, how many answers were correct, and `(due, latency)` of
/// each correct one.
type PacedAnswers = (Vec<Option<u64>>, usize, Vec<(u64, f64)>);

/// Open loop on one connection: `rate` requests per second for
/// `duration`, rows taken from the pool starting at `first_row`.
///
/// # Errors
///
/// A wrong class ([`BenchError::Wrong`]) or a failure to connect. A
/// connection the server closes ends the phase; its open requests
/// count as failed.
pub fn paced(
    addr: SocketAddr,
    fx: &Fixture,
    rate: f64,
    duration: Duration,
    first_row: usize,
) -> Result<PacedReport, BenchError> {
    check_budget(2, 1)?;
    let scheduled = ((duration.as_secs_f64() * rate) as usize).max(1);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let spacing = Duration::from_secs_f64(1.0 / (rate * CATCH_UP_FACTOR));
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut write_half = stream.try_clone()?;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let end = due(scheduled);
    let row = |k: usize| (first_row + k) % fx.len();

    let stop = AtomicBool::new(false);
    let sent_count = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let (stop, sent_count, received, writer_done) = (&stop, &sent_count, &received, &writer_done);

    let (sent_ns, read) = std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut sent_ns: Vec<u64> = Vec::with_capacity(scheduled);
            let mut last: Option<Instant> = None;
            for k in 0..scheduled {
                let floor = last.map_or(due(k), |l| due(k).max(l + spacing));
                let now = Instant::now();
                if floor > now {
                    std::thread::sleep(floor - now);
                }
                while k - received.load(Ordering::Acquire) >= PACED_MAX_IN_FLIGHT
                    && !stop.load(Ordering::Relaxed)
                {
                    std::thread::sleep(gap);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let t = Instant::now();
                if write_half.write_all(fx.lines[row(k)].as_bytes()).is_err() {
                    break;
                }
                last = Some(t);
                sent_ns.push(nanos(t.saturating_duration_since(start)));
                sent_count.store(k + 1, Ordering::Release);
            }
            writer_done.store(true, Ordering::Release);
            sent_ns
        });

        let read = (|| -> Result<PacedAnswers, BenchError> {
            let mut reader = BufReader::new(&stream);
            let mut buf = Vec::with_capacity(128);
            let mut answered_ns: Vec<Option<u64>> = Vec::with_capacity(scheduled);
            let mut correct = 0usize;
            let mut timed = Vec::with_capacity(scheduled);
            while answered_ns.len() < scheduled {
                let k = answered_ns.len();
                if writer_done.load(Ordering::Acquire) && k == sent_count.load(Ordering::Acquire) {
                    break;
                }
                if Instant::now() > end + DRAIN {
                    break;
                }
                match read_answer(&mut reader, &mut buf, fx, row(k), "paced phase") {
                    Ok(Some(ok)) => {
                        let now = Instant::now();
                        answered_ns.push(Some(nanos(now.saturating_duration_since(start))));
                        received.store(answered_ns.len(), Ordering::Release);
                        if ok {
                            correct += 1;
                            let us = micros(now.saturating_duration_since(due(k)));
                            timed.push((nanos(due(k) - start), us));
                        }
                    }
                    Ok(None) => {}
                    Err(BenchError::Io(_)) => break,
                    Err(e) => return Err(e),
                }
            }
            Ok((answered_ns, correct, timed))
        })();
        // The reader is done: a writer still held back by the
        // in-flight cap must not wait for answers that will not come.
        stop.store(true, Ordering::Relaxed);
        (writer.join().expect("paced writer thread"), read)
    });
    let (answered_ns, answered, timed) = read?;

    let mut lag_us = Vec::with_capacity(sent_ns.len());
    let mut late = 0usize;
    let spans = (0..scheduled)
        .map(|k| {
            let due_ns = nanos(due(k) - start);
            let sent = sent_ns.get(k).copied();
            if let Some(sent) = sent {
                let lag = sent.saturating_sub(due_ns);
                if lag > nanos(gap) {
                    late += 1;
                }
                lag_us.push(lag as f64 / 1e3);
            }
            RequestSpan {
                id: k,
                due_ns,
                sent_ns: sent,
                answered_ns: answered_ns.get(k).copied().flatten(),
            }
        })
        .collect();
    Ok(PacedReport {
        scheduled,
        answered,
        failed: scheduled - answered,
        late,
        latency_us: sorted(timed.iter().map(|&(_, us)| us).collect()),
        timed,
        lag_us: sorted(lag_us),
        spans,
        start,
        end,
    })
}

/// What one window phase measured.
#[derive(Debug, Clone, Default)]
pub struct WindowReport {
    /// Requests sent.
    pub attempted: usize,
    /// Requests answered with the correct class.
    pub answered: usize,
    /// Busy, error and unanswered requests.
    pub failed: usize,
    /// Correct answers read before the phase ended.
    pub in_window: usize,
    /// When each of those was read, ns from the phase start,
    /// ascending.
    pub answer_ns: Vec<u64>,
}

impl WindowReport {
    /// The answered rate of each consecutive run of `answers` correct
    /// answers: `answers` over the time from the run's first answer to
    /// the first answer after it. Counting answers rather than a fixed
    /// stretch of time keeps the figure continuous; a stretch would
    /// read whole batches, a multiple of the batch size.
    pub fn chunk_rates(&self, answers: usize) -> Vec<f64> {
        let t = &self.answer_ns;
        let answers = answers.max(1);
        (answers..t.len())
            .step_by(answers)
            .map(|end| answers as f64 * 1e9 / (t[end] - t[end - answers]).max(1) as f64)
            .collect()
    }
}

/// Closed loop on one connection: `in_flight` requests outstanding at
/// all times for `duration`, rows taken from the pool starting at
/// `first_row`.
///
/// # Errors
///
/// A wrong class or a failure to connect.
pub fn window(
    addr: SocketAddr,
    fx: &Fixture,
    in_flight: usize,
    duration: Duration,
    first_row: usize,
) -> Result<WindowReport, BenchError> {
    check_budget(1, 1)?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(DRAIN))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(&stream);
    let mut buf = Vec::with_capacity(128);
    let row = |j: usize| (first_row + j) % fx.len();
    let start = Instant::now();
    let end = start + duration;
    let mut sent = 0usize;
    for _ in 0..in_flight {
        writer.write_all(fx.lines[row(sent)].as_bytes())?;
        sent += 1;
    }
    let (mut received, mut answered) = (0usize, 0usize);
    let mut answer_ns = Vec::new();
    while received < sent {
        match read_answer(&mut reader, &mut buf, fx, row(received), "window phase") {
            Ok(Some(ok)) => {
                received += 1;
                let now = Instant::now();
                if ok {
                    answered += 1;
                    if now <= end {
                        answer_ns.push(nanos(now - start));
                    }
                }
                if now < end {
                    writer.write_all(fx.lines[row(sent)].as_bytes())?;
                    sent += 1;
                }
            }
            // A read that timed out after the drain allowance, or a
            // closed connection: what is still open stays unanswered.
            Ok(None) | Err(BenchError::Io(_)) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(WindowReport {
        attempted: sent,
        answered,
        failed: sent - answered,
        in_window: answer_ns.len(),
        answer_ns,
    })
}

/// Rows a ping phase cycles through. Each is sent thousands of times
/// in a run, so its fastest round trip falls in a moment without
/// interference (see [`ping`]); with 64 rows, a few hundred passes per
/// row on a busy host still left the route workload's figure 13% above
/// a calm stretch's.
pub const PING_ROWS: usize = 16;

/// What one ping phase measured.
#[derive(Debug, Clone, Default)]
pub struct PingReport {
    /// Requests sent.
    pub attempted: usize,
    /// Requests answered with the correct class.
    pub answered: usize,
    /// Busy, error and unanswered requests.
    pub failed: usize,
    /// Fastest round trip of each row of the cycle that was answered,
    /// µs, in cycle order.
    pub best_us: Vec<f64>,
}

/// One request at a time on one connection for `duration`, cycling
/// over the first [`PING_ROWS`] rows of the pool, timing each round
/// trip from the write to the answer.
///
/// A round trip repeats the same work every time its row comes round,
/// so its fastest pass is what the program takes when nothing else
/// holds it up. On a shared host, a vCPU taken away or a busy sibling
/// hyperthread slows whole stretches of a run, and by how much changes
/// from minute to minute; the fastest of a row's hundreds of passes
/// stays put. Every request is alone in the server, so it pays the
/// full batch-close wait and every thread hop of the pipeline.
///
/// # Errors
///
/// A wrong class or a failure to connect.
pub fn ping(addr: SocketAddr, fx: &Fixture, duration: Duration) -> Result<PingReport, BenchError> {
    check_budget(1, 1)?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(DRAIN))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(&stream);
    let mut buf = Vec::with_capacity(128);
    let rows = PING_ROWS.min(fx.len());
    let mut best = vec![f64::INFINITY; rows];
    let (mut attempted, mut answered) = (0usize, 0usize);
    let end = Instant::now() + duration;
    while Instant::now() < end {
        let row = attempted % rows;
        let t = Instant::now();
        writer.write_all(fx.lines[row].as_bytes())?;
        attempted += 1;
        match read_answer(&mut reader, &mut buf, fx, row, "ping phase") {
            Ok(Some(ok)) => {
                let us = micros(t.elapsed());
                if ok {
                    answered += 1;
                    best[row] = best[row].min(us);
                }
            }
            // No answer within the drain allowance, or a closed
            // connection: the request stays unanswered.
            Ok(None) | Err(BenchError::Io(_)) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(PingReport {
        attempted,
        answered,
        failed: attempted - answered,
        best_us: best.into_iter().filter(|b| b.is_finite()).collect(),
    })
}

/// Row groups a burst phase cycles through. Few, so that each group
/// comes round thousands of times: on a slow host the sum of the
/// groups' fastest bursts was still falling after a thousand bursts
/// per group.
pub const BURST_GROUPS: usize = 4;

/// What one burst phase measured.
#[derive(Debug, Clone, Default)]
pub struct BurstReport {
    /// Requests per burst.
    pub size: usize,
    /// Requests sent.
    pub attempted: usize,
    /// Requests answered with the correct class.
    pub answered: usize,
    /// Busy, error and unanswered requests.
    pub failed: usize,
    /// Fastest completion of each row group that was answered in
    /// full, µs, in cycle order.
    pub best_us: Vec<f64>,
}

impl BurstReport {
    /// Answered requests per second with every group at its fastest
    /// burst.
    pub fn rate(&self) -> f64 {
        let us: f64 = self.best_us.iter().sum();
        (self.best_us.len() * self.size) as f64 * 1e6 / us
    }
}

/// Bursts on one connection for `duration`: `size` requests written
/// in one go, then every answer read, timed from the write to the last
/// answer. The bursts cycle over [`BURST_GROUPS`] groups of `size`
/// consecutive pool rows; like a [`ping`] round trip, each group
/// repeats the same work every time it comes round, so its fastest
/// burst is the program's cost without interference.
///
/// # Errors
///
/// A wrong class or a failure to connect.
pub fn burst(
    addr: SocketAddr,
    fx: &Fixture,
    size: usize,
    duration: Duration,
) -> Result<BurstReport, BenchError> {
    check_budget(1, 1)?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(DRAIN))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(&stream);
    let mut buf = Vec::with_capacity(128);
    let groups = BURST_GROUPS.min(fx.len().div_ceil(size));
    let row = |g: usize, j: usize| (g * size + j) % fx.len();
    let payloads: Vec<Vec<u8>> = (0..groups)
        .map(|g| {
            (0..size)
                .flat_map(|j| fx.lines[row(g, j)].bytes())
                .collect()
        })
        .collect();
    let mut best = vec![f64::INFINITY; groups];
    let (mut attempted, mut answered) = (0usize, 0usize);
    let end = Instant::now() + duration;
    let mut k = 0usize;
    'bursts: while Instant::now() < end {
        let g = k % groups;
        k += 1;
        let t = Instant::now();
        writer.write_all(&payloads[g])?;
        attempted += size;
        let mut all_ok = true;
        for j in 0..size {
            match read_answer(&mut reader, &mut buf, fx, row(g, j), "burst phase") {
                Ok(Some(ok)) => {
                    answered += usize::from(ok);
                    all_ok &= ok;
                }
                // No answer within the drain allowance, or a closed
                // connection: the rest of the burst stays unanswered.
                Ok(None) | Err(BenchError::Io(_)) => break 'bursts,
                Err(e) => return Err(e),
            }
        }
        if all_ok {
            best[g] = best[g].min(micros(t.elapsed()));
        }
    }
    Ok(BurstReport {
        size,
        attempted,
        answered,
        failed: attempted - answered,
        best_us: best.into_iter().filter(|b| b.is_finite()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_rate_uses_each_groups_fastest_burst() {
        let r = BurstReport {
            size: 8,
            best_us: vec![200.0, 300.0],
            ..BurstReport::default()
        };
        // 16 requests in 500 µs.
        assert!((r.rate() - 32_000.0).abs() < 1e-6);
    }

    #[test]
    fn chunk_rates_count_answers_not_time() {
        // One answer every 10 µs: 100k/s in every chunk.
        let answer_ns: Vec<u64> = (0..10).map(|i| i * 10_000).collect();
        let w = WindowReport {
            answer_ns,
            ..WindowReport::default()
        };
        let rates = w.chunk_rates(3);
        assert_eq!(rates.len(), 3);
        for r in rates {
            assert!((r - 100_000.0).abs() < 1e-6, "{r}");
        }
    }
}
