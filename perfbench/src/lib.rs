//! End-to-end and per-layer benchmark of the flint serving stack.
//!
//! The `perfbench` binary runs one workload per invocation against the
//! real `flint serve` / `flint route` binaries (spawned as processes)
//! and the `flint-exec` engine layer (called in process), verifies
//! every answer against the forest's majority vote, and prints one
//! JSON result line. `perfbench/README.md` lists the workloads, the
//! metrics and which layer each metric belongs to.
//!
//! Modules:
//! - [`fixture`]: seeded dataset, forest, request rows and the
//!   expected answer of every row;
//! - [`loadgen`]: the benchmark's own load generator (lone requests,
//!   bursts, paced open loop and windowed closed loop), verifying every
//!   answer;
//! - [`procs`]: spawning and stopping server processes, reading their
//!   `stats` and `/proc` counters;
//! - [`trace`]: the timing [`trace::TimedPredictor`] wrapper and its
//!   span log;
//! - [`kernel`]: in-process engine throughput at fixed matrix sizes;
//! - [`tier`]: the serving tiers, spawned or built in process;
//! - [`workloads`]: the three workloads and the metrics they report;
//! - [`report`]: metric records and the result line.

pub mod fixture;
pub mod kernel;
pub mod loadgen;
pub mod procs;
pub mod report;
pub mod stats;
pub mod tier;
pub mod trace;
pub mod wire;
pub mod workloads;

/// Why a run stopped without a result.
#[derive(Debug)]
pub enum BenchError {
    /// Transport or file-system failure.
    Io(std::io::Error),
    /// The program answered a row with the wrong class.
    Wrong {
        /// Index of the row in the fixture's row pool.
        row: usize,
        /// Class the program answered.
        got: u32,
        /// The forest's majority vote for the row.
        want: u32,
        /// Where the answer came from.
        context: String,
    },
    /// Anything else that makes the run invalid.
    Invalid(String),
}

impl core::fmt::Display for BenchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "i/o error: {e}"),
            BenchError::Wrong {
                row,
                got,
                want,
                context,
            } => write!(
                f,
                "wrong answer for row {row} ({context}): got class {got}, majority vote is {want}"
            ),
            BenchError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}
