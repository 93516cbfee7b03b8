//! The serving tiers a workload drives: spawned as real `flint`
//! processes (untraced), or built in this process through the same
//! public constructors with every engine wrapped in a
//! [`TimedPredictor`] (traced).
//!
//! Processes get deployment flags only (`--model`, `--addr`,
//! `--trees`, `--shards`). Every other setting — engine, batch cap,
//! linger, workers, queue depth, admission limits — comes from
//! `flint_cli::parse` of those same command lines, so a change to a
//! program default reaches both tiers.

use crate::fixture::Fixture;
use crate::procs::Proc;
use crate::trace::{SpanLog, TimedPredictor};
use crate::wire::{parse_answer, Answer};
use crate::BenchError;
use flint_cli::Command;
use flint_exec::{BatchOptions, EngineBuilder, EngineKind, Predictor};
use flint_forest::RandomForest;
use flint_router::RouterServer;
use flint_serve::{BatchPolicy, EpollServer, EventLoopConfig, MetricsSnapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Listen address handed to every process: any free loopback port,
/// read back from the startup line.
const ANY_PORT: &str = "127.0.0.1:0";

/// How a workload's servers are arranged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `flint serve` over the whole forest.
    Single,
    /// `flint route` in front of this many `flint serve --trees`
    /// shards.
    Routed(usize),
}

/// `flint serve` deployment flags for the model, optionally one tree
/// span.
pub fn serve_args(fx: &Fixture, span: Option<(usize, usize)>) -> Vec<String> {
    let mut args = vec![
        "serve".to_owned(),
        "--model".to_owned(),
        fx.model_arg(),
        "--addr".to_owned(),
        ANY_PORT.to_owned(),
    ];
    if let Some((a, b)) = span {
        args.extend(["--trees".to_owned(), format!("{a}:{b}")]);
    }
    args
}

/// `flint route` deployment flags for the given shards.
pub fn route_args(shards: &[SocketAddr]) -> Vec<String> {
    let list: Vec<String> = shards.iter().map(ToString::to_string).collect();
    vec![
        "route".to_owned(),
        "--shards".to_owned(),
        list.join(","),
        "--addr".to_owned(),
        ANY_PORT.to_owned(),
    ]
}

/// Everything `flint serve` derives from its command line.
#[derive(Debug, Clone)]
pub struct ServeSetup {
    /// Engine answering requests.
    pub kind: EngineKind,
    /// Batch options the engine is built with.
    pub opts: BatchOptions,
    /// Micro-batching policy.
    pub policy: BatchPolicy,
    /// Admission limits of the event loop.
    pub config: EventLoopConfig,
    /// Tree span served (`None`: the whole forest).
    pub span: Option<(usize, usize)>,
}

impl ServeSetup {
    /// Parses a `serve` command line with the program's own parser.
    ///
    /// # Errors
    ///
    /// The line does not parse as `serve`, or names an unknown engine.
    pub fn parse(args: &[String]) -> Result<Self, BenchError> {
        let invalid = |m: String| BenchError::Invalid(format!("{}: {m}", args.join(" ")));
        let Command::Serve {
            engine,
            max_batch,
            linger_us,
            workers,
            queue_depth,
            max_conns,
            max_inflight,
            trees,
            ..
        } = flint_cli::parse(args).map_err(|e| invalid(e.to_string()))?
        else {
            return Err(invalid("not a serve command".to_owned()));
        };
        let kind = EngineKind::parse(&engine).ok_or_else(|| invalid(format!("engine {engine}")))?;
        let span = trees
            .map(|t| {
                let (a, b) = t.split_once(':')?;
                Some((a.parse().ok()?, b.parse().ok()?))
            })
            .map(|s| s.ok_or_else(|| invalid("bad --trees span".to_owned())))
            .transpose()?;
        // As `flint serve` builds it: one worker scores one batch at a
        // time, each engine runs its batch inline.
        Ok(Self {
            kind,
            opts: BatchOptions::default()
                .block_samples(max_batch.max(1))
                .threads(1),
            policy: BatchPolicy::default()
                .max_batch(max_batch)
                .linger(Duration::from_micros(linger_us))
                .queue_depth(queue_depth)
                .workers(workers),
            config: EventLoopConfig::default()
                .max_conns(max_conns)
                .max_inflight(max_inflight),
            span,
        })
    }

    /// Builds the engine over `forest` (its span, if any).
    ///
    /// # Errors
    ///
    /// The engine fails to build.
    pub fn build(&self, forest: &RandomForest) -> Result<Box<dyn Predictor>, BenchError> {
        let spanned;
        let forest = match self.span {
            Some((a, b)) => {
                spanned = forest.tree_span(a, b);
                &spanned
            }
            None => forest,
        };
        EngineBuilder::new(forest)
            .options(self.opts)
            .build(self.kind)
            .map_err(|e| BenchError::Invalid(format!("building {}: {e}", self.kind.name())))
    }
}

/// The admission limits `flint route` derives from its command line.
///
/// # Errors
///
/// The line does not parse as `route`.
pub fn route_config(args: &[String]) -> Result<EventLoopConfig, BenchError> {
    match flint_cli::parse(args) {
        Ok(Command::Route {
            max_conns,
            max_inflight,
            ..
        }) => Ok(EventLoopConfig::default()
            .max_conns(max_conns)
            .max_inflight(max_inflight)),
        other => Err(BenchError::Invalid(format!(
            "{}: not a route command ({other:?})",
            args.join(" ")
        ))),
    }
}

fn shard_spans(fx: &Fixture, topo: Topology) -> Vec<Option<(usize, usize)>> {
    match topo {
        Topology::Single => vec![None],
        Topology::Routed(n) => fx.forest.plan_spans(n).into_iter().map(Some).collect(),
    }
}

/// Sends row 0 until it comes back with the right class (a router
/// answers `busy` until its shard links are up). This is the "first
/// verified answer" that ends set-up.
///
/// # Errors
///
/// A wrong class, or no answer within ten seconds.
pub fn probe(addr: SocketAddr, fx: &Fixture) -> Result<(), BenchError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = String::new();
    while Instant::now() < deadline {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(2)))?;
            let mut reader = BufReader::new(stream.try_clone()?);
            loop {
                stream.write_all(fx.lines[0].as_bytes())?;
                last.clear();
                if reader.read_line(&mut last).unwrap_or(0) == 0 {
                    break;
                }
                match parse_answer(&last) {
                    Answer::Class(got) if got == fx.expected[0] => return Ok(()),
                    Answer::Class(got) => {
                        return Err(BenchError::Wrong {
                            row: 0,
                            got,
                            want: fx.expected[0],
                            context: "set-up probe".to_owned(),
                        })
                    }
                    Answer::Busy | Answer::Error if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Answer::Busy | Answer::Error => break,
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(BenchError::Invalid(format!(
        "no verified answer from {addr} within 10 s (last reply {last:?})"
    )))
}

/// A tier of real `flint` processes.
#[derive(Debug)]
pub struct Spawned {
    /// The `flint serve` processes (one per shard).
    pub shards: Vec<Proc>,
    /// The `flint route` process, if routed.
    pub router: Option<Proc>,
}

impl Spawned {
    /// Starts the tier: shards first, then the router in front of them.
    ///
    /// # Errors
    ///
    /// A process fails to start.
    pub fn start(flint: &Path, fx: &Fixture, topo: Topology) -> std::io::Result<Self> {
        let shards = shard_spans(fx, topo)
            .into_iter()
            .map(|span| Proc::spawn(flint, &serve_args(fx, span)))
            .collect::<std::io::Result<Vec<_>>>()?;
        let router = match topo {
            Topology::Single => None,
            Topology::Routed(_) => {
                let addrs: Vec<SocketAddr> = shards.iter().map(|p| p.addr).collect();
                Some(Proc::spawn(flint, &route_args(&addrs))?)
            }
        };
        Ok(Self { shards, router })
    }

    /// Where clients connect.
    pub fn front(&self) -> SocketAddr {
        self.router.as_ref().map_or(self.shards[0].addr, |r| r.addr)
    }

    /// Every server process id, router first.
    pub fn pids(&self) -> Vec<u32> {
        self.router
            .iter()
            .chain(&self.shards)
            .map(Proc::pid)
            .collect()
    }

    /// Stops the router, then the shards.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

type ServerThread = JoinHandle<std::io::Result<MetricsSnapshot>>;

/// The same tier built in this process, engines wrapped for tracing.
#[derive(Debug)]
pub struct InProcess {
    shards: Vec<(SocketAddr, ServerThread)>,
    router: Option<(SocketAddr, ServerThread)>,
    /// One span log per shard engine, in shard order.
    pub logs: Vec<Arc<SpanLog>>,
}

impl InProcess {
    /// Builds and starts the tier; spans are timed from `epoch`.
    ///
    /// # Errors
    ///
    /// Parsing the deployment lines, building an engine or binding a
    /// listener fails.
    pub fn start(fx: &Fixture, topo: Topology, epoch: Instant) -> Result<Self, BenchError> {
        let mut shards = Vec::new();
        let mut logs = Vec::new();
        for span in shard_spans(fx, topo) {
            let setup = ServeSetup::parse(&serve_args(fx, span))?;
            let log = Arc::new(SpanLog::new(epoch));
            let engine = TimedPredictor::new(setup.build(&fx.forest)?, Arc::clone(&log));
            let server = EpollServer::bind_with_config(
                ANY_PORT,
                Box::new(engine),
                setup.policy,
                setup.config,
            )?;
            let addr = server.local_addr();
            shards.push((addr, std::thread::spawn(move || server.run())));
            logs.push(log);
        }
        let router = match topo {
            Topology::Single => None,
            Topology::Routed(_) => {
                let addrs: Vec<SocketAddr> = shards.iter().map(|(a, _)| *a).collect();
                let config = route_config(&route_args(&addrs))?;
                let router = RouterServer::bind_with_config(ANY_PORT, addrs, config)?;
                let addr = router.local_addr();
                Some((addr, std::thread::spawn(move || router.run())))
            }
        };
        Ok(Self {
            shards,
            router,
            logs,
        })
    }

    /// Where clients connect.
    pub fn front(&self) -> SocketAddr {
        self.router.as_ref().map_or(self.shards[0].0, |(a, _)| *a)
    }

    /// Stops the router, then the shards, and joins their threads.
    ///
    /// # Errors
    ///
    /// A server thread ended with an error or panicked.
    pub fn shutdown(self) -> Result<(), BenchError> {
        for (addr, thread) in self.router.into_iter().chain(self.shards) {
            crate::procs::command(addr, "shutdown")?;
            thread
                .join()
                .map_err(|_| BenchError::Invalid(format!("server thread {addr} panicked")))??;
        }
        Ok(())
    }
}
