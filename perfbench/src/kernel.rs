//! In-process engine throughput at fixed matrix sizes: the paper's own
//! measurement, with no serving layer in the way.

use crate::fixture::Fixture;
use crate::stats::{percentile, sorted};
use crate::BenchError;
use flint_data::FeatureMatrix;
use flint_exec::Predictor;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Matrix sizes every kernel measurement covers: one row (what a lone
/// request gets), the serve default batch cap, and a large batch.
pub const SIZES: [usize; 3] = [1, 64, 1024];

/// One pre-built matrix of consecutive pool rows.
#[derive(Debug)]
pub struct Chunk {
    /// The rows, as the batcher hands them to an engine.
    pub matrix: FeatureMatrix,
    /// Pool index of the matrix's first row.
    pub first_row: usize,
}

/// Most matrices of one size. Each must be called often enough in a
/// run for its fastest call to fall in a moment without interference
/// (see [`SizeTiming`]); at one row per matrix, 256 rows of the
/// seed-shuffled pool get hundreds of calls each.
const MAX_CHUNKS: usize = 256;

/// Splits the pool into matrices of `size` consecutive rows (at least
/// one, at most [`MAX_CHUNKS`]).
fn chunks(fx: &Fixture, size: usize) -> Vec<Chunk> {
    let n = (fx.len() / size).clamp(1, MAX_CHUNKS);
    (0..n)
        .map(|i| {
            let first_row = i * size;
            let flat: Vec<f32> = (0..size)
                .flat_map(|j| fx.rows[(first_row + j) % fx.len()].iter().copied())
                .collect();
            Chunk {
                matrix: FeatureMatrix::from_row_major(size, fx.forest.n_features(), &flat),
                first_row,
            }
        })
        .collect()
}

/// Checks every chunk's answers once (this also warms the engine up):
/// exact engines against the majority vote, the binary16 engines
/// against their own one-row path, which is their reference.
///
/// # Errors
///
/// [`BenchError::Wrong`] naming the first wrong row.
fn verify(engine: &dyn Predictor, fx: &Fixture, set: &[Chunk]) -> Result<(), BenchError> {
    for chunk in set {
        let out = engine.predict_matrix(&chunk.matrix);
        for (j, &got) in out.iter().enumerate() {
            let row = (chunk.first_row + j) % fx.len();
            let want = if engine.kind().is_exact() {
                fx.expected[row]
            } else {
                engine.predict_one(&fx.rows[row])
            };
            if got != want {
                return Err(BenchError::Wrong {
                    row,
                    got,
                    want,
                    context: format!(
                        "{} predict_matrix at {} rows",
                        engine.name(),
                        chunk.matrix.n_samples()
                    ),
                });
            }
        }
    }
    Ok(())
}

/// One size's measurement, accumulated over rounds.
///
/// Its figures come from the fastest call of each matrix. On a shared
/// host, a busy neighbour on the sibling hyperthread slows batched
/// kernels by up to 40% for seconds to minutes at a time. Averages and
/// per-round figures follow that state (the whole-run average of rows/s
/// at 64 rows moved 28% between two sets of ten runs, 17 minutes
/// apart), while every call repeats the same deterministic work, so the
/// fastest of a matrix's many calls is its cost without the neighbour
/// (rows/s from the fastest calls stayed within 8% across the same
/// shift). The minimum is taken per matrix, not over all calls, because
/// one-row calls cost more or less by row.
#[derive(Debug, Clone, Default)]
pub struct SizeTiming {
    /// Rows per call.
    pub size: usize,
    /// Fastest call of each matrix of the set, ns (`u64::MAX`: never
    /// called). Includes the timing loop's own step.
    pub best_ns: Vec<u64>,
    /// Calls made; the next call scores matrix `calls % len`, so
    /// rounds continue where the last one stopped.
    pub calls: usize,
    /// Rows scored.
    pub rows: u64,
}

impl SizeTiming {
    fn called(&self) -> impl Iterator<Item = u64> + '_ {
        self.best_ns.iter().copied().filter(|&n| n != u64::MAX)
    }

    /// Rows per second with every matrix at its fastest call.
    pub fn rows_per_s(&self) -> f64 {
        let (n, ns) = self.called().fold((0u64, 0u64), |(n, t), b| (n + 1, t + b));
        (n * self.size as u64) as f64 * 1e9 / ns as f64
    }

    /// The `p`-th percentile over matrices of their fastest call, µs.
    pub fn best_call_us(&self, p: f64) -> f64 {
        percentile(&sorted(self.called().map(|n| n as f64 / 1e3).collect()), p)
    }
}

/// Calls `predict_matrix` round-robin over `set` for `budget`, adding
/// one round to `into`.
fn run_for(engine: &dyn Predictor, set: &[Chunk], budget: Duration, into: &mut SizeTiming) {
    let t0 = Instant::now();
    let mut prev = t0;
    let mut rows = 0u64;
    let mut i = into.calls;
    if into.best_ns.len() != set.len() {
        into.best_ns = vec![u64::MAX; set.len()];
    }
    while prev - t0 < budget {
        let k = i % set.len();
        let m = &set[k].matrix;
        black_box(engine.predict_matrix(black_box(m)));
        let now = Instant::now();
        let ns = u64::try_from((now - prev).as_nanos()).unwrap_or(u64::MAX);
        into.best_ns[k] = into.best_ns[k].min(ns);
        prev = now;
        rows += m.n_samples() as u64;
        i += 1;
    }
    into.calls = i;
    into.rows += rows;
}

/// The matrices for every size in [`SIZES`].
pub fn sets(fx: &Fixture) -> Vec<Vec<Chunk>> {
    SIZES.iter().map(|&s| chunks(fx, s)).collect()
}

/// Verifies `engine` on at least `verify_rows` rows of every set (all
/// rows when that exceeds the pool), which also warms the engine up.
///
/// # Errors
///
/// A wrong answer from the engine.
pub fn verify_sets(
    engine: &dyn Predictor,
    fx: &Fixture,
    sets: &[Vec<Chunk>],
    verify_rows: usize,
) -> Result<(), BenchError> {
    for set in sets {
        let n = verify_rows
            .div_ceil(set[0].matrix.n_samples())
            .min(set.len());
        verify(engine, fx, &set[..n])?;
    }
    Ok(())
}

/// Target length of one round of one size; the rounds of all sizes
/// interleave, so drift hits every size alike.
const ROUND: Duration = Duration::from_millis(60);

/// Measures `engine` on every prepared size for `budget` in total, in
/// interleaved rounds of about 60 ms (at least four per size).
pub fn time_sizes(
    engine: &dyn Predictor,
    sets: &[Vec<Chunk>],
    budget: Duration,
) -> Vec<SizeTiming> {
    let rounds =
        ((budget.as_secs_f64() / (ROUND.as_secs_f64() * sets.len() as f64)) as usize).max(4);
    let slice = budget.div_f64((rounds * sets.len()) as f64);
    let mut out: Vec<SizeTiming> = sets
        .iter()
        .map(|set| SizeTiming {
            size: set[0].matrix.n_samples(),
            ..SizeTiming::default()
        })
        .collect();
    for _ in 0..rounds {
        for (set, timing) in sets.iter().zip(out.iter_mut()) {
            run_for(engine, set, slice, timing);
        }
    }
    out
}
