//! Contracts of `TrainMode::Sampled` (neighbour-sampled minibatch
//! training):
//!
//! * **accuracy parity** — at scale 1 the sampled run must land within
//!   ±0.01 of the full-graph run's training-set accuracy;
//! * **thread invariance** — `FD_THREADS` ∈ {1, 8} produce bit-identical
//!   loss histories and identical predictions;
//! * **bitwise resume** — a sampled run checkpointed mid-way and resumed
//!   finishes with weights bit-identical to the uninterrupted run;
//! * **trained depth** — a sampled model predicts with the diffusion
//!   depth it was trained at.

use fd_core::{FakeDetector, FakeDetectorConfig, FitOptions, TrainMode, TrainedFakeDetector};
use fd_data::{
    generate, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
    TokenizedCorpus, TrainSets,
};
use fd_tensor::parallel::with_thread_count;
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;

struct Fixture {
    corpus: fd_data::Corpus,
    tokenized: TokenizedCorpus,
    explicit: ExplicitFeatures,
    train: TrainSets,
}

fn fixture() -> Fixture {
    let corpus = generate(&GeneratorConfig::politifact().scaled(0.01), 17);
    let tokenized = TokenizedCorpus::build(&corpus, 12, 3000);
    let mut rng = StdRng::seed_from_u64(4);
    let train = TrainSets {
        articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
        creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
        subjects: CvSplits::new(corpus.subjects.len(), 6, &mut rng).fold(0).0,
    };
    let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, 40);
    Fixture { corpus, tokenized, explicit, train }
}

fn ctx(f: &Fixture) -> ExperimentContext<'_> {
    ExperimentContext {
        corpus: &f.corpus,
        tokenized: &f.tokenized,
        explicit: &f.explicit,
        train: &f.train,
        mode: LabelMode::Binary,
        seed: 11,
    }
}

fn sampled(batch_size: usize, fanout: usize, rounds: usize) -> TrainMode {
    TrainMode::Sampled { batch_size, fanout, rounds }
}

/// Training-set article accuracy — the quantity the parity contract is
/// stated over (test-set accuracy on a 150-node corpus is too noisy to
/// compare runs against each other).
fn article_train_accuracy(f: &Fixture, preds: &[usize]) -> f64 {
    let hits = f
        .train
        .articles
        .iter()
        .filter(|&&i| preds[i] == LabelMode::Binary.target(f.corpus.articles[i].label))
        .count();
    hits as f64 / f.train.articles.len().max(1) as f64
}

/// At scale 1 a sampled run is a different estimator of the same
/// objective, not a different objective: with a moderate fan-out it must
/// reach the full-graph run's training accuracy to within ±0.01.
#[test]
fn sampled_training_matches_full_graph_accuracy_at_scale_1() {
    let f = fixture();
    let c = ctx(&f);
    // No validation split: both runs do the same fixed number of epochs,
    // so the comparison is plateau-vs-plateau, not stopping-time noise.
    let base = FakeDetectorConfig {
        epochs: 30,
        validation_fraction: 0.0,
        ..FakeDetectorConfig::default()
    };
    let full = FakeDetector::new(base.clone()).fit(&c);
    let cfg = FakeDetectorConfig { train_mode: sampled(24, 8, 2), ..base };
    let trained = FakeDetector::new(cfg).fit(&c);

    let acc_full = article_train_accuracy(&f, &full.predict(&c).articles);
    let acc_sampled = article_train_accuracy(&f, &trained.predict(&c).articles);
    assert!(
        (acc_full - acc_sampled).abs() <= 0.01,
        "sampled accuracy {acc_sampled} strayed from full-graph {acc_full}"
    );
}

/// The sampled epoch is a pure function of (config, seed, epoch): the
/// sampler, the batch shuffle and the sparse optimizer are all
/// deterministic, so `FD_THREADS` must change wall-clock only.
#[test]
fn sampled_training_is_bitwise_invariant_under_thread_count() {
    let f = fixture();
    let c = ctx(&f);
    let config = FakeDetectorConfig {
        epochs: 3,
        train_mode: sampled(12, 4, 2),
        ..FakeDetectorConfig::default()
    };
    let run = |threads| {
        with_thread_count(threads, || FakeDetector::new(config.clone()).fit(&c))
    };
    let one = run(1);
    let eight = run(8);
    let (r1, r8) = (one.report(), eight.report());
    assert_eq!(r1.losses.len(), r8.losses.len());
    for (a, b) in r1.losses.iter().zip(&r8.losses) {
        assert_eq!(a.to_bits(), b.to_bits(), "loss history diverged: {a} vs {b}");
    }
    assert_eq!(one.params_json(), eight.params_json(), "weights diverged");
    assert_eq!(one.predict(&c), eight.predict(&c));
}

/// Fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fd-core-sampled-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Checkpoint/resume must stay bitwise in sampled mode: the per-epoch
/// batch schedule and sample salts are keyed on the epoch number alone,
/// so a resumed run replays the exact remaining minibatches.
#[test]
fn sampled_resume_reproduces_uninterrupted_run_bitwise() {
    let f = fixture();
    let c = ctx(&f);
    let config = FakeDetectorConfig {
        epochs: 6,
        train_mode: sampled(16, 4, 2),
        ..FakeDetectorConfig::default()
    };

    let control_dir = scratch("control");
    let control = FakeDetector::new(config.clone())
        .fit_with(&c, &FitOptions::checkpointed(&control_dir, 1))
        .unwrap();

    let resumed_dir = scratch("resumed");
    FakeDetector::new(FakeDetectorConfig { epochs: 3, ..config.clone() })
        .fit_with(&c, &FitOptions::checkpointed(&resumed_dir, 1))
        .unwrap();
    let resumed = FakeDetector::new(config)
        .fit_with(&c, &FitOptions::checkpointed(&resumed_dir, 1).resuming())
        .unwrap();

    assert_eq!(
        control.params_json(),
        resumed.params_json(),
        "resumed weights must be bit-identical to the uninterrupted run"
    );
    let (cr, rr) = (control.report(), resumed.report());
    assert_eq!(cr.losses.len(), rr.losses.len());
    for (a, b) in cr.losses.iter().zip(&rr.losses) {
        assert_eq!(a.to_bits(), b.to_bits(), "loss history diverged");
    }
    let _ = std::fs::remove_dir_all(&control_dir);
    let _ = std::fs::remove_dir_all(&resumed_dir);
}

/// Full-graph and sampled checkpoints must never cross-resume: the
/// train mode is part of the config fingerprint.
#[test]
fn sampled_checkpoint_is_incompatible_with_full_graph_resume() {
    let f = fixture();
    let c = ctx(&f);
    let dir = scratch("mode-mismatch");
    FakeDetector::new(FakeDetectorConfig {
        epochs: 2,
        train_mode: sampled(16, 4, 2),
        ..FakeDetectorConfig::default()
    })
    .fit_with(&c, &FitOptions::checkpointed(&dir, 1))
    .unwrap();
    let result = FakeDetector::new(FakeDetectorConfig {
        epochs: 4,
        ..FakeDetectorConfig::default()
    })
    .fit_with(&c, &FitOptions::checkpointed(&dir, 1).resuming());
    match result {
        Ok(_) => panic!("full-graph resume from a sampled checkpoint must fail"),
        Err(err) => assert!(err.contains("configuration"), "unexpected error: {err}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `rounds` is the unroll depth of sampled training, so the trained
/// model records it as its `diffusion_rounds` and every inference path
/// diffuses that deep — also after a JSON round trip.
#[test]
fn sampled_model_predicts_at_its_trained_depth() {
    let f = fixture();
    let c = ctx(&f);
    let config = FakeDetectorConfig {
        epochs: 1,
        train_mode: sampled(16, 4, 3),
        ..FakeDetectorConfig::default()
    };
    assert_eq!(config.diffusion_rounds, 2, "the default depth differs from the sampled one");
    let trained = FakeDetector::new(config).fit(&c);
    let reloaded = TrainedFakeDetector::from_json(&trained.to_json()).unwrap();
    for model in [&trained, &reloaded] {
        assert_eq!(model.config().diffusion_rounds, 3);
        assert_eq!(model.diffused_states_rounds(&c).len(), 3);
    }
}
