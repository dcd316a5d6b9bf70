//! Durability contracts of `FakeDetector::fit_with`:
//!
//! * **bitwise resume** — a run checkpointed at epoch k and restarted
//!   from that checkpoint finishes with weights bit-identical to the
//!   uninterrupted run (same loss history, same final params JSON);
//! * **divergence guard** — a learning rate absurd enough to blow the
//!   loss up to NaN/∞ must not poison the returned weights: training
//!   rolls back, halves the rate, and still returns finite parameters.

use fd_core::{FakeDetector, FakeDetectorConfig, FitOptions, TrainMode};
use fd_data::{
    generate, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
    TokenizedCorpus, TrainSets,
};
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

/// Fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fd-core-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quick_config(epochs: usize) -> FakeDetectorConfig {
    FakeDetectorConfig { epochs, ..FakeDetectorConfig::default() }
}

#[test]
fn resume_reproduces_uninterrupted_run_bitwise() {
    let f = fixture();
    let c = ctx(&f);
    let config = quick_config(6);

    // Control: 6 epochs straight through, checkpointing every epoch.
    let control_dir = scratch("control");
    let control = FakeDetector::new(config.clone())
        .fit_with(&c, &FitOptions::checkpointed(&control_dir, 1))
        .unwrap();

    // Interrupted: train only 3 epochs into the same kind of store...
    let resumed_dir = scratch("resumed");
    FakeDetector::new(quick_config(3))
        .fit_with(&c, &FitOptions::checkpointed(&resumed_dir, 1))
        .unwrap();
    // ...then resume with the full epoch budget (epochs is excluded
    // from the compatibility fingerprint precisely for this).
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
    assert_eq!(control.predict(&c), resumed.predict(&c));

    // The final checkpoint files themselves are byte-identical too —
    // wall-clock timings are deliberately not durable state. This is
    // what the CI crash-recovery job byte-diffs.
    let last = |dir: &PathBuf| {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "fdck"))
            .collect();
        files.sort();
        std::fs::read(files.last().unwrap()).unwrap()
    };
    assert_eq!(last(&control_dir), last(&resumed_dir), "final checkpoint bytes differ");

    let _ = std::fs::remove_dir_all(&control_dir);
    let _ = std::fs::remove_dir_all(&resumed_dir);
}

#[test]
fn resume_without_checkpoint_starts_from_scratch() {
    let f = fixture();
    let c = ctx(&f);
    let dir = scratch("empty-resume");
    // Resume against an empty directory is a documented no-op.
    let a = FakeDetector::new(quick_config(2))
        .fit_with(&c, &FitOptions::checkpointed(&dir, 1).resuming())
        .unwrap();
    let b = FakeDetector::new(quick_config(2)).fit(&c);
    assert_eq!(a.params_json(), b.params_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_checkpoint_from_different_config() {
    let f = fixture();
    let c = ctx(&f);
    let dir = scratch("mismatch");
    FakeDetector::new(quick_config(2))
        .fit_with(&c, &FitOptions::checkpointed(&dir, 1))
        .unwrap();
    // Same dims/seed but different hyper-parameters: must refuse rather
    // than silently continue a different experiment.
    let other = FakeDetectorConfig { lr: 1e-4, epochs: 4, ..FakeDetectorConfig::default() };
    let result = FakeDetector::new(other)
        .fit_with(&c, &FitOptions::checkpointed(&dir, 1).resuming());
    match result {
        Ok(_) => panic!("resume with a different configuration must fail"),
        Err(err) => assert!(err.contains("configuration"), "unexpected error: {err}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_rotation_keeps_newest_files() {
    let f = fixture();
    let c = ctx(&f);
    let dir = scratch("rotation");
    let mut options = FitOptions::checkpointed(&dir, 1);
    options.checkpoint_keep = 2;
    FakeDetector::new(quick_config(5)).fit_with(&c, &options).unwrap();
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["ckpt-00000004.fdck", "ckpt-00000005.fdck"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn divergence_guard_recovers_from_nonfinite_loss() {
    let f = fixture();
    let c = ctx(&f);
    // Full-graph epochs diverge on their one step; sampled epochs break
    // off mid-epoch at the first non-finite minibatch.
    let sampled = TrainMode::Sampled { batch_size: 16, fanout: 4, rounds: 2 };
    for train_mode in [TrainMode::Full, sampled] {
        // A learning rate this absurd detonates the weights within an
        // epoch or two: the loss goes NaN/∞ and stays there at this
        // rate. Only the guard's rollback-and-halve can finish the run
        // with usable weights.
        let config =
            FakeDetectorConfig { lr: 1e20, epochs: 8, train_mode, ..FakeDetectorConfig::default() };
        let trained = FakeDetector::new(config).fit(&c);
        let report = trained.report();
        assert!(
            report.divergence_rollbacks > 0,
            "{train_mode:?}: lr=1e20 should have tripped the divergence guard"
        );
        for loss in &report.losses {
            assert!(
                loss.is_finite(),
                "{train_mode:?}: recorded history must only contain surviving epochs"
            );
        }
        // The returned weights are usable: predictions don't panic and
        // the serialised params contain no non-finite values.
        let _ = trained.predict(&c);
        let json = trained.params_json();
        assert!(
            !json.contains("NaN") && !json.contains("inf"),
            "{train_mode:?}: weights were poisoned"
        );
    }
}
