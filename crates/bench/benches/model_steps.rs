//! Macro-ish benches: one full training epoch / inference pass of each
//! model family on a tiny corpus — the numbers that predict sweep
//! wall-clock.

use criterion::{criterion_group, criterion_main, Criterion};
use fd_baselines::{CredibilityModel, Propagation, SvmBaseline};
use fd_bench::{prepare, SweepConfig};
use fd_core::{FakeDetector, FakeDetectorConfig};
use fd_data::{ExperimentContext, ExplicitFeatures, LabelMode};
use fd_tensor::parallel::with_thread_count;
use std::hint::black_box;

fn bench_models(c: &mut Criterion) {
    let config = SweepConfig { scale: 0.012, folds: 1, ..SweepConfig::default() };
    let prepared = prepare(&config);
    let (train, _test) = prepared.split(0, 1.0, config.seed);
    let explicit =
        ExplicitFeatures::extract(&prepared.corpus, &prepared.tokenized, &train, 60);
    let ctx = ExperimentContext {
        corpus: &prepared.corpus,
        tokenized: &prepared.tokenized,
        explicit: &explicit,
        train: &train,
        mode: LabelMode::Binary,
        seed: 7,
    };

    let mut group = c.benchmark_group("model_fits_tiny");
    group.sample_size(10);
    group.bench_function("label_propagation", |bench| {
        let model = Propagation::default();
        bench.iter(|| black_box(model.fit_predict(&ctx).articles.len()))
    });
    group.bench_function("svm", |bench| {
        let model = SvmBaseline::default();
        bench.iter(|| black_box(model.fit_predict(&ctx).articles.len()))
    });
    group.bench_function("fakedetector_3_epochs", |bench| {
        let model = FakeDetector::new(FakeDetectorConfig {
            epochs: 3,
            ..FakeDetectorConfig::default()
        });
        bench.iter(|| black_box(model.fit_predict(&ctx).articles.len()))
    });
    group.finish();

    // Training: one full-graph epoch, serial and at four threads. Both
    // produce bit-identical losses.
    let mut group = c.benchmark_group("model_epoch_tiny");
    group.sample_size(10);
    let model = FakeDetector::new(FakeDetectorConfig {
        epochs: 1,
        validation_fraction: 0.0,
        ..FakeDetectorConfig::default()
    });
    group.bench_function("batched_1t", |bench| {
        bench.iter(|| with_thread_count(1, || black_box(model.fit(&ctx).report().losses.len())))
    });
    group.bench_function("batched_4t", |bench| {
        bench.iter(|| with_thread_count(4, || black_box(model.fit(&ctx).report().losses.len())))
    });
    group.finish();

    // Inference: the tape-free forward, serial and at four threads.
    // These return identical predictions.
    let trained = FakeDetector::new(FakeDetectorConfig {
        epochs: 1,
        ..FakeDetectorConfig::default()
    })
    .fit(&ctx);
    let mut group = c.benchmark_group("model_predict_tiny");
    group.sample_size(10);
    group.bench_function("batched_1t", |bench| {
        bench.iter(|| with_thread_count(1, || black_box(trained.predict(&ctx).articles.len())))
    });
    group.bench_function("batched_4t", |bench| {
        bench.iter(|| with_thread_count(4, || black_box(trained.predict(&ctx).articles.len())))
    });
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
