//! Seeded inputs: the dataset, the forest the program serves, the
//! request rows in a seeded order, and the answer each row must get.

use flint_bench::shapes::ForestShape;
use flint_forest::io::{read_forest, write_forest};
use flint_forest::RandomForest;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Everything a workload sends and checks, made from one seed.
///
/// The seed drives the training (the forest's bagging and feature
/// sampling) and orders the request rows. The dataset itself is fixed
/// per shape: the synthetic generator's class geometry changes with its
/// seed, and with it the trees' depth and the kernel's cost per row (a
/// mean tree path of 3.5 to 6.2 nodes across generator seeds 1-12 of
/// the MAGIC shape), which would swamp the changes the benchmark must
/// detect. Forests trained with different seeds on one dataset keep the
/// mean path within about 5%.
#[derive(Debug)]
pub struct Fixture {
    /// The forest as the program reads it back from the model file.
    pub forest: RandomForest,
    /// Request rows, in the seeded send order.
    pub rows: Vec<Vec<f32>>,
    /// Each row rendered as one request line (`a,b,c\n`).
    pub lines: Vec<String>,
    /// `forest.predict_majority(row)` for every row: the only correct
    /// answer.
    pub expected: Vec<u32>,
    /// The model file the server processes load.
    pub model_path: PathBuf,
}

impl Fixture {
    /// Generates the shape's fixed dataset, trains its forest with
    /// `seed`, writes the model under `work_dir`, and reads it back so
    /// the expected answers come from exactly the forest the program
    /// loads. Training is input generation, not measured set-up.
    ///
    /// # Errors
    ///
    /// Any failure writing or reading the model file.
    pub fn new(shape: ForestShape, seed: u64, work_dir: &Path) -> std::io::Result<Self> {
        let data = shape.dataset(dataset_seed(shape));
        let trained = shape.train(&data, seed);
        std::fs::create_dir_all(work_dir)?;
        let model_path = work_dir.join(format!("{}-{seed}.model", shape.name()));
        let mut out = BufWriter::new(File::create(&model_path)?);
        write_forest(&trained, &mut out)?;
        out.flush()?;
        drop(out);
        let forest = read_forest(BufReader::new(File::open(&model_path)?))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;

        let mut order: Vec<usize> = (0..data.n_samples()).collect();
        shuffle(&mut order, seed);
        let rows: Vec<Vec<f32>> = order.iter().map(|&i| data.sample(i).to_vec()).collect();
        let expected = rows.iter().map(|r| forest.predict_majority(r)).collect();
        let lines = rows
            .iter()
            .map(|r| {
                let mut line = r.iter().map(f32::to_string).collect::<Vec<_>>().join(",");
                line.push('\n');
                line
            })
            .collect();
        Ok(Self {
            forest,
            rows,
            lines,
            expected,
            model_path,
        })
    }

    /// Rows in the pool.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the pool is empty (never, for a trained shape).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The model path as a command-line argument.
    pub fn model_arg(&self) -> String {
        self.model_path.display().to_string()
    }
}

/// Generator seed of each shape's dataset: the one whose forests
/// come closest to the shape's depth cap, so the MAGIC forest stays in
/// the compute-bound regime it stands for.
fn dataset_seed(shape: ForestShape) -> u64 {
    match shape {
        ForestShape::Magic => 7,
        _ => 3,
    }
}

/// splitmix64: a small seeded stream for sampling and shuffling.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Fisher–Yates shuffle by `seed`.
fn shuffle(order: &mut [usize], seed: u64) {
    let mut rng = SplitMix(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
}
