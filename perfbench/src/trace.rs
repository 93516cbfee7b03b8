//! Kernel-call spans from a timing [`Predictor`] wrapper.
//!
//! [`TimedPredictor`] forwards every trait method, the provided ones
//! included, to the engine it wraps and records one [`KernelSpan`] per
//! scoring call: entry point, rows, start, end and thread. It adds no
//! logic of its own, so wrapped and unwrapped engines answer
//! bit-identically (`tests/wrapper.rs` checks every registry engine).
//!
//! The `Predictor` seam carries no request id, so kernel spans cannot
//! be joined to the client's request spans; the benchmark reports them
//! as aggregates over a phase.

use crate::stats::{percentile, sorted};
use flint_data::{Dataset, FeatureMatrix};
use flint_exec::{BatchOptions, EngineKind, Predictor};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which `Predictor` method a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `predict_one`.
    One,
    /// `predict_votes`.
    Votes,
    /// `predict_batch`.
    Batch,
    /// `predict_matrix`.
    Matrix,
    /// `predict_dataset`.
    Dataset,
}

impl Entry {
    /// Short name for trace files.
    pub fn name(self) -> &'static str {
        match self {
            Entry::One => "one",
            Entry::Votes => "votes",
            Entry::Batch => "batch",
            Entry::Matrix => "matrix",
            Entry::Dataset => "dataset",
        }
    }
}

/// One timed kernel call, nanoseconds from the log's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpan {
    /// Method called.
    pub entry: Entry,
    /// Rows scored by the call.
    pub rows: u32,
    /// Call start.
    pub start_ns: u64,
    /// Call end.
    pub end_ns: u64,
    /// Small per-process thread number of the caller.
    pub thread: u32,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span store shared by the wrappers of one tier.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<KernelSpan>>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 before it).
    pub fn offset(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn time<T>(&self, entry: Entry, rows: usize, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let span = KernelSpan {
            entry,
            rows: u32::try_from(rows).unwrap_or(u32::MAX),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            thread: THREAD.with(|t| *t),
        };
        self.spans.lock().expect("span log lock").push(span);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<KernelSpan> {
        self.spans.lock().expect("span log lock").clone()
    }
}

/// A [`Predictor`] that times every scoring call of the engine it
/// wraps into a [`SpanLog`].
#[derive(Debug)]
pub struct TimedPredictor {
    inner: Box<dyn Predictor>,
    log: Arc<SpanLog>,
}

impl TimedPredictor {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn Predictor>, log: Arc<SpanLog>) -> Self {
        Self { inner, log }
    }
}

impl Predictor for TimedPredictor {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn n_features(&self) -> usize {
        self.inner.n_features()
    }

    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn options(&self) -> BatchOptions {
        self.inner.options()
    }

    fn predict_one(&self, features: &[f32]) -> u32 {
        self.log
            .time(Entry::One, 1, || self.inner.predict_one(features))
    }

    fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        self.log
            .time(Entry::Votes, 1, || self.inner.predict_votes(features))
    }

    fn predict_batch(&self, matrix: &FeatureMatrix, opts: &BatchOptions) -> Vec<u32> {
        self.log.time(Entry::Batch, matrix.n_samples(), || {
            self.inner.predict_batch(matrix, opts)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn describe(&self) -> &'static str {
        self.inner.describe()
    }

    fn predict_matrix(&self, matrix: &FeatureMatrix) -> Vec<u32> {
        self.log.time(Entry::Matrix, matrix.n_samples(), || {
            self.inner.predict_matrix(matrix)
        })
    }

    fn predict_dataset(&self, data: &Dataset) -> Vec<u32> {
        self.log.time(Entry::Dataset, data.n_samples(), || {
            self.inner.predict_dataset(data)
        })
    }
}

/// Kernel aggregates over the spans that started inside one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSummary {
    /// Scoring calls.
    pub calls: usize,
    /// Rows scored.
    pub rows: u64,
    /// Median call duration, µs.
    pub us_per_call_p50: f64,
    /// 99th-percentile call duration, µs.
    pub us_per_call_p99: f64,
    /// Summed call time over rows, ns.
    pub ns_per_row: f64,
    /// Share of the interval during which at least one call ran.
    pub busy_share: f64,
}

impl KernelSummary {
    /// Calls per row scored (1.0 when every call scores one row).
    pub fn calls_per_row(&self) -> f64 {
        self.calls as f64 / self.rows as f64
    }
}

/// Summarizes the spans that started in `[from_ns, to_ns)`. `None`
/// when no call started there.
pub fn summarize(spans: &[KernelSpan], from_ns: u64, to_ns: u64) -> Option<KernelSummary> {
    let mut inside: Vec<KernelSpan> = spans
        .iter()
        .copied()
        .filter(|s| s.start_ns >= from_ns && s.start_ns < to_ns)
        .collect();
    if inside.is_empty() {
        return None;
    }
    inside.sort_by_key(|s| s.start_ns);
    let durations = sorted(
        inside
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect(),
    );
    let rows: u64 = inside.iter().map(|s| u64::from(s.rows)).sum();
    let total_ns: u64 = inside.iter().map(|s| s.end_ns - s.start_ns).sum();
    // Union of the call intervals, clipped to the window.
    let (mut covered, mut cur_start, mut cur_end) = (0u64, inside[0].start_ns, inside[0].end_ns);
    for s in &inside[1..] {
        if s.start_ns > cur_end {
            covered += cur_end - cur_start;
            cur_start = s.start_ns;
        }
        cur_end = cur_end.max(s.end_ns);
    }
    covered += cur_end.min(to_ns) - cur_start;
    Some(KernelSummary {
        calls: inside.len(),
        rows,
        us_per_call_p50: percentile(&durations, 50.0),
        us_per_call_p99: percentile(&durations, 99.0),
        ns_per_row: total_ns as f64 / rows.max(1) as f64,
        busy_share: covered as f64 / (to_ns - from_ns) as f64,
    })
}

/// Merges several logs' spans (e.g. every shard of a tier).
pub fn merged(logs: &[Arc<SpanLog>]) -> Vec<KernelSpan> {
    logs.iter().flat_map(|l| l.spans()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, rows: u32) -> KernelSpan {
        KernelSpan {
            entry: Entry::Matrix,
            rows,
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    #[test]
    fn summary_counts_overlaps_once() {
        let spans = [
            span(0, 100, 2),
            span(50, 150, 2),
            span(300, 400, 4),
            span(900, 950, 1),
        ];
        let s = summarize(&spans, 0, 1000).expect("spans inside");
        assert_eq!(s.calls, 4);
        assert_eq!(s.rows, 9);
        assert!((s.busy_share - 0.30).abs() < 1e-12, "{}", s.busy_share);
        assert!((s.ns_per_row - 350.0 / 9.0).abs() < 1e-9);
        assert!(summarize(&spans, 2000, 3000).is_none());
    }
}
