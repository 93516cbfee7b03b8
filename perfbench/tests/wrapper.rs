//! The timing wrapper must not change what it measures: for every
//! registry engine, every `Predictor` method answers bit-identically
//! wrapped and unwrapped, and every scoring call leaves one span.

use flint_data::synth::SynthSpec;
use flint_data::{Dataset, FeatureMatrix};
use flint_exec::{BatchOptions, EngineBuilder, EngineKind, Predictor};
use flint_forest::{ForestConfig, RandomForest};
use flint_perfbench::trace::{Entry, SpanLog, TimedPredictor};
use std::sync::Arc;
use std::time::Instant;

fn workload() -> (Dataset, RandomForest) {
    let data = SynthSpec::new(300, 6, 3)
        .cluster_std(1.5)
        .negative_fraction(0.5)
        .seed(11)
        .generate();
    let config = ForestConfig {
        seed: 11,
        ..ForestConfig::grid(9, 7)
    };
    let forest = RandomForest::fit(&data, &config).expect("trains");
    (data, forest)
}

#[test]
fn wrapped_engines_answer_bit_identically() {
    let (data, forest) = workload();
    let matrix = FeatureMatrix::from_dataset(&data);
    let opts = BatchOptions::default().block_samples(16).threads(1);
    let builder = EngineBuilder::new(&forest).options(opts);
    for kind in EngineKind::ALL {
        let plain = builder.build(kind).expect("builds");
        let log = Arc::new(SpanLog::new(Instant::now()));
        let timed = TimedPredictor::new(builder.build(kind).expect("builds"), Arc::clone(&log));
        let name = kind.name();

        assert_eq!(timed.kind(), plain.kind(), "{name}");
        assert_eq!(timed.name(), plain.name(), "{name}");
        assert_eq!(timed.describe(), plain.describe(), "{name}");
        assert_eq!(timed.n_features(), plain.n_features(), "{name}");
        assert_eq!(timed.n_classes(), plain.n_classes(), "{name}");
        assert_eq!(timed.options(), plain.options(), "{name}");
        for i in 0..data.n_samples() {
            let row = data.sample(i);
            assert_eq!(
                timed.predict_one(row),
                plain.predict_one(row),
                "{name} row {i}"
            );
            assert_eq!(
                timed.predict_votes(row),
                plain.predict_votes(row),
                "{name} row {i}"
            );
        }
        assert_eq!(
            timed.predict_matrix(&matrix),
            plain.predict_matrix(&matrix),
            "{name}"
        );
        assert_eq!(
            timed.predict_dataset(&data),
            plain.predict_dataset(&data),
            "{name}"
        );
        let other = BatchOptions::default().block_samples(7).threads(2);
        assert_eq!(
            timed.predict_batch(&matrix, &other),
            plain.predict_batch(&matrix, &other),
            "{name}"
        );

        let spans = log.spans();
        let n = data.n_samples();
        assert_eq!(spans.len(), 2 * n + 3, "{name}: one span per scoring call");
        let count = |e: Entry| spans.iter().filter(|s| s.entry == e).count();
        assert_eq!(count(Entry::One), n, "{name}");
        assert_eq!(count(Entry::Votes), n, "{name}");
        assert_eq!(count(Entry::Matrix), 1, "{name}");
        assert_eq!(count(Entry::Dataset), 1, "{name}");
        assert_eq!(count(Entry::Batch), 1, "{name}");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns), "{name}");
        assert!(
            spans
                .iter()
                .filter(|s| matches!(s.entry, Entry::Matrix | Entry::Dataset | Entry::Batch))
                .all(|s| s.rows as usize == n),
            "{name}"
        );
    }
}
