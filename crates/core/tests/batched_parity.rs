//! Regression test pinning the batched tape-free inference path to
//! itself across `FD_THREADS`: predictions and probabilities must not
//! depend on the thread count. (Parity with the per-node reference tape
//! is checked inside fd-core, where that oracle lives.)

use fd_core::{FakeDetector, FakeDetectorConfig};
use fd_data::{
    generate, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
    TokenizedCorpus, TrainSets,
};
use fd_tensor::parallel::with_thread_count;
use rand::{rngs::StdRng, SeedableRng};

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

fn quick(overrides: impl FnOnce(&mut FakeDetectorConfig)) -> FakeDetectorConfig {
    let mut config = FakeDetectorConfig { epochs: 2, ..FakeDetectorConfig::default() };
    overrides(&mut config);
    config
}

#[test]
fn batched_outputs_invariant_under_thread_count() {
    let f = fixture();
    let c = ctx(&f);
    let trained = FakeDetector::new(quick(|_| ())).fit(&c);
    let (pred1, proba1) =
        with_thread_count(1, || (trained.predict(&c), trained.predict_proba(&c)));
    for threads in [2, 8] {
        let (pred, proba) =
            with_thread_count(threads, || (trained.predict(&c), trained.predict_proba(&c)));
        assert_eq!(pred1, pred, "predictions diverged at FD_THREADS={threads}");
        assert_eq!(proba1, proba, "probabilities diverged at FD_THREADS={threads}");
    }
}
