//! The three workloads and the metrics each reports.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the
//! per-layer metrics, from an untraced pass over the spawned tier
//! (`stats` and `/proc` counters) followed by a traced pass over the
//! same tier built in process (kernel spans). Every workload reports
//! every metric of its mode; a metric of a layer the workload does not
//! cross reads 0 (see `perfbench/README.md`).

use crate::fixture::Fixture;
use crate::kernel::{self, SizeTiming, SIZES};
use crate::loadgen::{self, BurstReport, PacedReport, PingReport, WindowReport};
use crate::procs::{self, ProcReading};
use crate::report::{Metric, Outcome};
use crate::stats::{calm, median, percentile};
use crate::tier::{probe, serve_args, InProcess, ServeSetup, Spawned, Topology};
use crate::trace::{self, KernelSummary, SpanLog, TimedPredictor};
use crate::wire::json_number;
use crate::BenchError;
use flint_bench::shapes::ForestShape;
use flint_exec::{EngineBuilder, EngineKind, Predictor};
use flint_forest::io::read_forest;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The `flint` binary under test.
    pub flint: PathBuf,
    /// Scratch directory for model and trace files.
    pub work: PathBuf,
    /// Input seed: dataset, forest and row order.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `flint serve` on the MAGIC-shaped forest.
    ServeMagic,
    /// `flint route` over two tree-span shards of the ranking forest.
    RouteRanking,
    /// In-process engine calls on the MAGIC-shaped forest.
    BatchMagic,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeMagic,
        Workload::RouteRanking,
        Workload::BatchMagic,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMagic => "serve-magic",
            Workload::RouteRanking => "route-ranking",
            Workload::BatchMagic => "batch-magic",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> ForestShape {
        match self {
            Workload::ServeMagic | Workload::BatchMagic => ForestShape::Magic,
            Workload::RouteRanking => ForestShape::Ranking,
        }
    }
}

/// Load of a serving workload.
#[derive(Debug, Clone, Copy)]
struct Load {
    topology: Topology,
    /// Offered rate of the paced phase, requests per second.
    rate: f64,
    /// Requests in flight during the window phase.
    depth: usize,
    /// Requests per burst of the end-to-end run: below the serve
    /// default batch cap of 64, so a burst's batch closes on the linger
    /// and the burst's pace is set by the batch-close policy and the
    /// thread hops, not by how fast the shared host runs the kernel
    /// (see `perfbench/README.md`).
    burst: usize,
}

fn load(w: Workload) -> Load {
    match w {
        Workload::ServeMagic => Load {
            topology: Topology::Single,
            rate: 8000.0,
            depth: 8,
            burst: 8,
        },
        _ => Load {
            topology: Topology::Routed(2),
            rate: 2000.0,
            depth: 64,
            burst: 8,
        },
    }
}

/// Unmeasured traffic before each measured pass.
const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Answers of a window phase over which one rate is taken (40-70 ms
/// at the serving workloads' window rates).
const RATE_CHUNK: usize = 2048;

/// The `p`-th percentile latency of the paced phase's calm stretches
/// ([`calm`]). A stretch spans a quarter second, or 1000 requests when
/// that is longer, so its 99th percentile has ten samples beyond it.
fn calm_latency(paced: &PacedReport, p: f64) -> f64 {
    let rate = paced.scheduled as f64 / (paced.end - paced.start).as_secs_f64();
    let slice = Duration::from_secs_f64((1000.0 / rate).max(0.25));
    calm(&paced.sliced_percentiles(p, slice), true)
}

/// Answered requests per second of the window phase's calm stretches.
fn calm_rps(window: &WindowReport) -> f64 {
    calm(&window.chunk_rates(RATE_CHUNK), false)
}

/// Runs one workload.
///
/// # Errors
///
/// A wrong answer, or a failure that leaves the run without a result.
pub fn run(w: Workload, cfg: &Config) -> Result<Outcome, BenchError> {
    let fx = Fixture::new(w.shape(), cfg.seed, &cfg.work)?;
    match (w, cfg.trace) {
        (Workload::BatchMagic, false) => batch_end_to_end(&fx, cfg),
        (Workload::BatchMagic, true) => batch_layers(&fx, cfg),
        (_, false) => serving_end_to_end(w, &fx, cfg),
        (_, true) => serving_layers(w, &fx, cfg),
    }
}

fn secs(cfg: &Config, share: f64) -> Duration {
    Duration::from_secs_f64(cfg.seconds * share)
}

// ---------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------

/// `stats` counters of one serve process.
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    requests: f64,
    batches: f64,
    shed: f64,
    rejected: f64,
    p50_us: f64,
    p99_us: f64,
}

fn stats(addr: std::net::SocketAddr) -> Result<Stats, BenchError> {
    let line = procs::command(addr, "stats")?;
    let field = |k: &str| {
        json_number(&line, k)
            .ok_or_else(|| BenchError::Invalid(format!("stats from {addr} lacks {k}: {line}")))
    };
    Ok(Stats {
        requests: field("requests")?,
        batches: field("batches")?,
        shed: field("shed")?,
        rejected: field("rejected")?,
        p50_us: field("p50_us")?,
        p99_us: field("p99_us")?,
    })
}

/// The untraced pass over the spawned tier (per-layer run).
#[derive(Debug)]
struct SpawnedPass {
    warmup: PacedReport,
    paced: PacedReport,
    window: WindowReport,
    /// Per process (router first): CPU over the paced phase; peak RSS
    /// and threads at the end.
    procs: Vec<ProcReading>,
    /// Per shard: counters before the paced phase, after it, and after
    /// the window phase.
    stats: Vec<[Stats; 3]>,
    routed: bool,
}

impl SpawnedPass {
    fn attempted(&self) -> usize {
        self.warmup.scheduled + self.paced.scheduled + self.window.attempted
    }

    fn failed(&self) -> usize {
        self.warmup.failed + self.paced.failed + self.window.failed
    }

    fn shard_procs(&self) -> &[ProcReading] {
        &self.procs[usize::from(self.routed)..]
    }

    fn client_p50(&self) -> f64 {
        calm_latency(&self.paced, 50.0)
    }
}

/// Starts the workload's tier `setups` times, timing each start up to
/// the first verified answer, and runs `measure` on one of them: half
/// the set-ups come before it, the rest after, so `setup_s` samples the
/// whole run. Returns the set-up seconds and what `measure` returned.
fn on_spawned_tier<T>(
    w: Workload,
    fx: &Fixture,
    cfg: &Config,
    setups: usize,
    measure: impl FnOnce(&Spawned) -> Result<T, BenchError>,
) -> Result<(Vec<f64>, T), BenchError> {
    let topology = load(w).topology;
    let early = setups.div_ceil(2);
    let mut setup_s = Vec::with_capacity(setups);
    let mut set_up = || -> Result<Spawned, BenchError> {
        let t0 = Instant::now();
        let t = Spawned::start(&cfg.flint, fx, topology)?;
        probe(t.front(), fx)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(t)
    };
    for _ in 1..early {
        set_up()?.shutdown();
    }
    let tier = set_up()?;
    let measured = measure(&tier);
    tier.shutdown();
    let measured = measured?;
    for _ in early..setups {
        set_up()?.shutdown();
    }
    Ok((setup_s, measured))
}

fn spawned_pass(
    w: Workload,
    fx: &Fixture,
    cfg: &Config,
    paced_for: Duration,
    window_for: Duration,
) -> Result<SpawnedPass, BenchError> {
    let ld = load(w);
    let (_, pass) = on_spawned_tier(w, fx, cfg, 1, |tier| {
        let front = tier.front();
        let shard_addrs: Vec<_> = tier.shards.iter().map(|p| p.addr).collect();
        let pids = tier.pids();
        let shard_stats = || -> Result<Vec<Stats>, BenchError> {
            shard_addrs.iter().map(|&a| stats(a)).collect()
        };

        let warmup = loadgen::paced(front, fx, ld.rate, WARMUP, 0)?;
        let before = shard_stats()?;
        let mark = procs::cpu_mark(&pids)?;
        let paced = loadgen::paced(front, fx, ld.rate, paced_for, 0)?;
        let cpu = procs::readings(&pids, &mark)?;
        let after_paced = shard_stats()?;
        let window = loadgen::window(front, fx, ld.depth, window_for, 0)?;
        let after_window = shard_stats()?;
        let end = procs::readings(&pids, &mark)?;

        let procs = cpu
            .iter()
            .zip(&end)
            .map(|(c, e)| ProcReading {
                cpu_ns: c.cpu_ns,
                ..*e
            })
            .collect();
        let stats = (0..shard_addrs.len())
            .map(|i| [before[i], after_paced[i], after_window[i]])
            .collect();
        Ok(SpawnedPass {
            warmup,
            paced,
            window,
            procs,
            stats,
            routed: matches!(ld.topology, Topology::Routed(_)),
        })
    })?;
    Ok(pass)
}

/// What the end-to-end run measures on the spawned tier.
#[derive(Debug)]
struct EndToEnd {
    warmup: PingReport,
    ping: PingReport,
    burst: BurstReport,
    /// Peak RSS summed over the tier's processes, kB.
    hwm_kb: u64,
    processes: usize,
}

fn serving_end_to_end(w: Workload, fx: &Fixture, cfg: &Config) -> Result<Outcome, BenchError> {
    let burst = load(w).burst;
    let (setup_s, run) = on_spawned_tier(w, fx, cfg, SETUPS, |tier| {
        let front = tier.front();
        let warmup = loadgen::ping(front, fx, WARMUP)?;
        let ping = loadgen::ping(front, fx, secs(cfg, 0.5))?;
        let burst = loadgen::burst(front, fx, burst, secs(cfg, 0.5))?;
        if ping.best_us.is_empty() || burst.best_us.is_empty() {
            return Err(BenchError::Invalid(format!(
                "no correct answer to time: {} of {} lone requests and {} of {} burst \
                 requests failed",
                ping.failed, ping.attempted, burst.failed, burst.attempted
            )));
        }
        let pids = tier.pids();
        let hwm_kb = pids
            .iter()
            .map(|p| procs::status_field(&p.to_string(), "VmHWM"))
            .sum::<std::io::Result<u64>>()?;
        Ok(EndToEnd {
            warmup,
            ping,
            burst,
            hwm_kb,
            processes: pids.len(),
        })
    })?;
    let mut out = Outcome {
        attempted: (run.warmup.attempted + run.ping.attempted + run.burst.attempted) as u64,
        failed: (run.warmup.failed + run.ping.failed + run.burst.failed) as u64,
        metrics: Vec::new(),
    };
    out.push("setup_s", median(&setup_s), "s", setup_s.len());
    out.push("p50_us", median(&run.ping.best_us), "us", run.ping.answered);
    out.push("max_rps", run.burst.rate(), "1/s", run.burst.answered);
    push_answered_share(&mut out);
    out.push("rss_mb", run.hwm_kb as f64 / 1024.0, "MB", run.processes);
    Ok(out)
}

/// Share of late sends above which a paced phase measured the
/// generator rather than the server. Some late sends are normal on a
/// shared host, which deschedules a core for milliseconds at a time
/// and so delays the generator and the server alike.
const LATE_LIMIT: f64 = 0.25;

/// Prints the generator's own lag, and flags a phase in which it fell
/// behind its schedule.
fn report_lag(paced: &PacedReport) {
    let late = paced.late_share();
    eprintln!(
        "loadgen: {:.2}% of {} sends late, lag p50 {:.1} us p99 {:.1} us",
        late * 100.0,
        paced.scheduled,
        percentile(&paced.lag_us, 50.0),
        percentile(&paced.lag_us, 99.0)
    );
    if late > LATE_LIMIT {
        eprintln!(
            "loadgen: WARNING: generator fell behind ({:.1}% late > {:.0}%); \
             latency includes generator lag",
            late * 100.0,
            LATE_LIMIT * 100.0
        );
    }
}

fn push_answered_share(out: &mut Outcome) {
    let share = 1.0 - out.failed as f64 / out.attempted as f64;
    let n = out.attempted as usize;
    out.push("answered_share", share, "share", n);
}

/// The traced pass over the in-process tier.
#[derive(Debug)]
struct TracedPass {
    paced: PacedReport,
    window: WindowReport,
    logs: Vec<Arc<SpanLog>>,
    attempted: usize,
    failed: usize,
}

fn traced_pass(
    w: Workload,
    fx: &Fixture,
    paced_for: Duration,
    window_for: Duration,
) -> Result<TracedPass, BenchError> {
    let ld = load(w);
    let tier = InProcess::start(fx, ld.topology, Instant::now())?;
    let front = tier.front();
    probe(front, fx)?;
    let warmup = loadgen::paced(front, fx, ld.rate, WARMUP, 0)?;
    let paced = loadgen::paced(front, fx, ld.rate, paced_for, 0)?;
    let window = loadgen::window(front, fx, ld.depth, window_for, 0)?;
    let logs = tier.logs.clone();
    tier.shutdown()?;
    Ok(TracedPass {
        attempted: warmup.scheduled + paced.scheduled + window.attempted,
        failed: warmup.failed + paced.failed + window.failed,
        paced,
        window,
        logs,
    })
}

/// Per-layer metrics with their units; every run reports all of them.
const LAYER_METRICS: [(&str, &str); 42] = [
    ("loadgen.late_share", "share"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.p50_us", "us"),
    ("loadgen.p90_us", "us"),
    ("loadgen.p99_us", "us"),
    ("loadgen.window_rps", "1/s"),
    ("loadgen.failed_share", "share"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.threads", "count"),
    ("serve.rss_mb", "MB"),
    ("serve.front_p50_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_fill", "rows"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.batcher_p50_us", "us"),
    ("serve.batcher_p99_us", "us"),
    ("exec.calls", "count"),
    ("exec.rows", "count"),
    ("exec.calls_per_row", "ratio"),
    ("exec.us_per_call_p50", "us"),
    ("exec.us_per_call_p99", "us"),
    ("exec.ns_per_row", "ns"),
    ("exec.busy_share", "share"),
    ("router.cpu_us_per_req", "us"),
    ("router.threads", "count"),
    ("router.rss_mb", "MB"),
    ("router.hop_p50_us", "us"),
    ("shard0.cpu_us_per_req", "us"),
    ("shard0.mean_fill", "rows"),
    ("shard0.batcher_p50_us", "us"),
    ("shard0.exec.calls_per_row", "ratio"),
    ("shard0.exec.ns_per_row", "ns"),
    ("shard0.exec.busy_share", "share"),
    ("shard1.cpu_us_per_req", "us"),
    ("shard1.mean_fill", "rows"),
    ("shard1.batcher_p50_us", "us"),
    ("shard1.exec.calls_per_row", "ratio"),
    ("shard1.exec.ns_per_row", "ns"),
    ("shard1.exec.busy_share", "share"),
    ("trace.overhead_p50_us", "us"),
    ("trace.overhead_max_rps", "1/s"),
];

fn sweep_name(kind: EngineKind, size: usize) -> String {
    format!("exec.rows_per_s.{}.b{size}", kind.name())
}

/// Every per-layer metric at 0, to be filled in.
fn layer_outcome() -> Outcome {
    let mut out = Outcome::default();
    for (name, unit) in LAYER_METRICS {
        out.push(name, 0.0, unit, 0);
    }
    for kind in EngineKind::ALL {
        for size in SIZES {
            out.push(sweep_name(kind, size), 0.0, "1/s", 0);
        }
    }
    out
}

fn set(out: &mut Outcome, name: &str, value: f64, samples: usize) {
    let m: &mut Metric = out
        .metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    m.value = value;
    m.samples = samples;
}

fn set_exec(out: &mut Outcome, prefix: &str, k: &KernelSummary) {
    set(
        out,
        &format!("{prefix}calls_per_row"),
        k.calls_per_row(),
        k.calls,
    );
    set(out, &format!("{prefix}ns_per_row"), k.ns_per_row, k.calls);
    set(out, &format!("{prefix}busy_share"), k.busy_share, k.calls);
    if prefix == "exec." {
        set(out, "exec.calls", k.calls as f64, k.calls);
        set(out, "exec.rows", k.rows as f64, k.calls);
        set(out, "exec.us_per_call_p50", k.us_per_call_p50, k.calls);
        set(out, "exec.us_per_call_p99", k.us_per_call_p99, k.calls);
    }
}

fn serving_layers(w: Workload, fx: &Fixture, cfg: &Config) -> Result<Outcome, BenchError> {
    let plain = spawned_pass(w, fx, cfg, secs(cfg, 0.3), secs(cfg, 0.2))?;
    let traced = traced_pass(w, fx, secs(cfg, 0.3), secs(cfg, 0.2))?;
    let mut out = layer_outcome();
    out.attempted = (plain.attempted() + traced.attempted) as u64;
    out.failed = (plain.failed() + traced.failed) as u64;

    // Load generator, untraced pass.
    let p = &plain.paced;
    report_lag(p);
    let n = p.answered;
    set(&mut out, "loadgen.late_share", p.late_share(), p.scheduled);
    set(
        &mut out,
        "loadgen.lag_p99_us",
        percentile(&p.lag_us, 99.0),
        p.lag_us.len(),
    );
    set(&mut out, "loadgen.p50_us", plain.client_p50(), n);
    set(&mut out, "loadgen.p90_us", calm_latency(p, 90.0), n);
    set(&mut out, "loadgen.p99_us", calm_latency(p, 99.0), n);
    set(
        &mut out,
        "loadgen.window_rps",
        calm_rps(&plain.window),
        plain.window.in_window,
    );
    set(
        &mut out,
        "loadgen.failed_share",
        plain.failed() as f64 / plain.attempted() as f64,
        plain.attempted(),
    );

    // The serve layer: every `flint serve` process of the tier.
    let shards = plain.shard_procs();
    let per_req = |r: &ProcReading| r.cpu_ns as f64 / 1e3 / n as f64;
    let delta =
        |f: fn(&Stats) -> f64| -> f64 { plain.stats.iter().map(|s| f(&s[2]) - f(&s[0])).sum() };
    let batcher_p50 = plain.stats.iter().map(|s| s[1].p50_us).fold(0.0, f64::max);
    let batcher_p99 = plain.stats.iter().map(|s| s[1].p99_us).fold(0.0, f64::max);
    // Whole-phase client median, to match the batcher's median over
    // the same requests (its `stats` window holds the last 65536).
    let client_p50 = percentile(&p.latency_us, 50.0);
    set(
        &mut out,
        "serve.cpu_us_per_req",
        shards.iter().map(per_req).sum(),
        n,
    );
    set(
        &mut out,
        "serve.threads",
        shards.iter().map(|r| r.threads as f64).sum(),
        shards.len(),
    );
    set(
        &mut out,
        "serve.rss_mb",
        shards.iter().map(|r| r.hwm_kb as f64 / 1024.0).sum(),
        shards.len(),
    );
    set(&mut out, "serve.front_p50_us", client_p50 - batcher_p50, n);
    let batches = delta(|s| s.batches);
    set(&mut out, "serve.batches", batches, batches as usize);
    set(
        &mut out,
        "serve.mean_fill",
        delta(|s| s.requests) / batches,
        batches as usize,
    );
    set(&mut out, "serve.shed", delta(|s| s.shed), n);
    set(&mut out, "serve.rejected", delta(|s| s.rejected), n);
    set(&mut out, "serve.batcher_p50_us", batcher_p50, n);
    set(&mut out, "serve.batcher_p99_us", batcher_p99, n);

    // The engine layer, traced pass, paced phase.
    let tp = &traced.paced;
    let window_of = |log: &SpanLog| (log.offset(tp.start), log.offset(tp.end));
    let (from, to) = window_of(&traced.logs[0]);
    let all = trace::merged(&traced.logs);
    let exec = trace::summarize(&all, from, to)
        .ok_or_else(|| BenchError::Invalid("no kernel call in the traced paced phase".into()))?;
    set_exec(&mut out, "exec.", &exec);

    if plain.routed {
        let router = &plain.procs[0];
        set(&mut out, "router.cpu_us_per_req", per_req(router), n);
        set(&mut out, "router.threads", router.threads as f64, 1);
        set(&mut out, "router.rss_mb", router.hwm_kb as f64 / 1024.0, 1);
        set(&mut out, "router.hop_p50_us", client_p50 - batcher_p50, n);
        for (i, log) in traced.logs.iter().enumerate().take(2) {
            let prefix = format!("shard{i}.");
            let s = &plain.stats[i];
            let fill = (s[2].requests - s[0].requests) / (s[2].batches - s[0].batches);
            set(
                &mut out,
                &format!("{prefix}cpu_us_per_req"),
                per_req(&shards[i]),
                n,
            );
            set(&mut out, &format!("{prefix}mean_fill"), fill, n);
            set(&mut out, &format!("{prefix}batcher_p50_us"), s[1].p50_us, n);
            let (from, to) = window_of(log);
            let k = trace::summarize(&log.spans(), from, to).ok_or_else(|| {
                BenchError::Invalid(format!("no kernel call on shard {i} in the traced phase"))
            })?;
            set_exec(&mut out, &format!("{prefix}exec."), &k);
        }
    }

    set(
        &mut out,
        "trace.overhead_p50_us",
        calm_latency(tp, 50.0) - plain.client_p50(),
        tp.answered,
    );
    set(
        &mut out,
        "trace.overhead_max_rps",
        calm_rps(&traced.window) - calm_rps(&plain.window),
        traced.window.in_window,
    );
    write_traces(cfg, w, tp, &traced.logs)?;
    Ok(out)
}

/// Writes the traced pass's spans: one line per client request and
/// one per kernel call (the batch workload's per-row calls are capped).
fn write_traces(
    cfg: &Config,
    w: Workload,
    paced: &PacedReport,
    logs: &[Arc<SpanLog>],
) -> Result<(), BenchError> {
    const MAX_KERNEL_LINES: usize = 200_000;
    let base = |kind: &str| -> PathBuf {
        cfg.work
            .join(format!("trace-{}-seed{}-{kind}.csv", w.name(), cfg.seed))
    };
    let mut f = BufWriter::new(File::create(base("requests"))?);
    writeln!(f, "id,due_ns,sent_ns,answered_ns")?;
    let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
    for s in &paced.spans {
        writeln!(
            f,
            "{},{},{},{}",
            s.id,
            s.due_ns,
            opt(s.sent_ns),
            opt(s.answered_ns)
        )?;
    }
    f.flush()?;
    write_kernel_trace(&base("kernel"), logs, MAX_KERNEL_LINES)
}

fn write_kernel_trace(path: &Path, logs: &[Arc<SpanLog>], cap: usize) -> Result<(), BenchError> {
    let mut f = BufWriter::new(File::create(path)?);
    writeln!(f, "engine,entry,rows,start_ns,end_ns,thread")?;
    let mut lines = 0usize;
    for (i, log) in logs.iter().enumerate() {
        for s in log.spans() {
            if lines == cap {
                writeln!(f, "# truncated at {cap} spans")?;
                f.flush()?;
                return Ok(());
            }
            writeln!(
                f,
                "{i},{},{},{},{},{}",
                s.entry.name(),
                s.rows,
                s.start_ns,
                s.end_ns,
                s.thread
            )?;
            lines += 1;
        }
    }
    f.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Batch workload
// ---------------------------------------------------------------------

/// Set-up as `flint serve` does it: read the model, build the default
/// engine. Returns the engine and the set-up seconds.
fn batch_setup(fx: &Fixture) -> Result<(Box<dyn Predictor>, ServeSetup, f64), BenchError> {
    let t0 = Instant::now();
    let forest = read_forest(BufReader::new(File::open(&fx.model_path)?))
        .map_err(|e| BenchError::Invalid(format!("reading the model: {e}")))?;
    let setup = ServeSetup::parse(&serve_args(fx, None))?;
    let engine = setup.build(&forest)?;
    Ok((engine, setup, t0.elapsed().as_secs_f64()))
}

/// The median over engine builds of a per-build figure. How fast a
/// build runs one-row calls depends on where its tables land in memory
/// (the fastest one-row calls of two builds differ by up to 1.5x), so
/// in-process figures take several builds.
fn across(builds: &[Vec<SizeTiming>], figure: impl Fn(&[SizeTiming]) -> f64) -> f64 {
    median(&builds.iter().map(|b| figure(b)).collect::<Vec<_>>())
}

fn rows_scored(sizes: &[SizeTiming]) -> u64 {
    sizes.iter().map(|s| s.rows).sum()
}

/// The best `rows_per_s` of the sizes (median over builds).
fn best_rows_per_s(builds: &[Vec<SizeTiming>]) -> f64 {
    (0..SIZES.len())
        .map(|i| across(builds, |b| b[i].rows_per_s()))
        .fold(0.0, f64::max)
}

fn batch_end_to_end(fx: &Fixture, cfg: &Config) -> Result<Outcome, BenchError> {
    // Set-ups are spread over the run, each followed by a share of the
    // timing on the engine it built, so both figures sample the whole
    // run rather than one moment of it.
    let sets = kernel::sets(fx);
    let mut builds = Vec::with_capacity(SETUPS);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut hwm_kb = 0;
    for i in 0..SETUPS {
        let (engine, _, s) = batch_setup(fx)?;
        setup_s.push(s);
        kernel::verify_sets(&*engine, fx, &sets, usize::MAX)?;
        if i == 0 {
            // Peak memory once the first engine is built and checked.
            hwm_kb = procs::status_field("self", "VmHWM")?;
        }
        builds.push(kernel::time_sizes(
            &*engine,
            &sets,
            secs(cfg, 1.0).div_f64(SETUPS as f64),
        ));
    }

    let calls = builds.iter().map(|b| b[0].calls).sum();
    let mut out = Outcome {
        attempted: builds.iter().map(|b| rows_scored(b)).sum(),
        failed: 0,
        metrics: Vec::new(),
    };
    out.push("setup_s", median(&setup_s), "s", setup_s.len());
    out.push(
        "p50_us",
        across(&builds, |b| b[0].best_call_us(50.0)),
        "us",
        calls,
    );
    out.push("max_rps", best_rows_per_s(&builds), "1/s", builds.len());
    push_answered_share(&mut out);
    out.push("rss_mb", hwm_kb as f64 / 1024.0, "MB", 1);
    Ok(out)
}

fn batch_layers(fx: &Fixture, cfg: &Config) -> Result<Outcome, BenchError> {
    let (engine, setup, _) = batch_setup(fx)?;
    let sets = kernel::sets(fx);
    kernel::verify_sets(&*engine, fx, &sets, usize::MAX)?;
    let plain = kernel::time_sizes(&*engine, &sets, secs(cfg, 0.2));

    let log = Arc::new(SpanLog::new(Instant::now()));
    let timed = TimedPredictor::new(setup.build(&fx.forest)?, Arc::clone(&log));
    kernel::verify_sets(&timed, fx, &sets, usize::MAX)?;
    let from = log.offset(Instant::now());
    let traced = kernel::time_sizes(&timed, &sets, secs(cfg, 0.2));
    let to = log.offset(Instant::now());

    let mut out = layer_outcome();
    let exec = trace::summarize(&log.spans(), from, to)
        .ok_or_else(|| BenchError::Invalid("no kernel call in the traced pass".into()))?;
    set_exec(&mut out, "exec.", &exec);
    set(
        &mut out,
        "trace.overhead_p50_us",
        traced[0].best_call_us(50.0) - plain[0].best_call_us(50.0),
        traced[0].calls,
    );
    set(
        &mut out,
        "trace.overhead_max_rps",
        best_rows_per_s(std::slice::from_ref(&traced))
            - best_rows_per_s(std::slice::from_ref(&plain)),
        SIZES.len(),
    );

    // Registry sweep: every engine the registry has at run time, built
    // with the serve default batch options.
    let slice = secs(cfg, 0.6).div_f64(EngineKind::ALL.len() as f64);
    let mut swept = 0u64;
    for kind in EngineKind::ALL {
        let e = EngineBuilder::new(&fx.forest)
            .options(setup.opts)
            .build(kind)
            .map_err(|err| BenchError::Invalid(format!("building {}: {err}", kind.name())))?;
        kernel::verify_sets(&*e, fx, &sets, 1024)?;
        let sizes = kernel::time_sizes(&*e, &sets, slice);
        swept += rows_scored(&sizes);
        for s in &sizes {
            set(&mut out, &sweep_name(kind, s.size), s.rows_per_s(), 1);
        }
    }
    out.attempted = rows_scored(&plain) + rows_scored(&traced) + swept;
    write_kernel_trace(
        &cfg.work
            .join(format!("trace-batch-magic-seed{}-kernel.csv", cfg.seed)),
        &[log],
        200_000,
    )?;
    Ok(out)
}
