//! Tests for the trained-model surface: persistence round-trips,
//! probability outputs and inductive new-article scoring.

use fd_core::{FakeDetector, FakeDetectorConfig, TrainedFakeDetector};
use fd_data::{
    CredibilityModel,
    generate, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
    TokenizedCorpus, TrainSets,
};
use fd_graph::NodeType;
use rand::{rngs::StdRng, SeedableRng};

struct Fixture {
    corpus: fd_data::Corpus,
    tokenized: TokenizedCorpus,
    explicit: ExplicitFeatures,
    train: TrainSets,
}

fn fixture() -> Fixture {
    let corpus = generate(&GeneratorConfig::politifact().scaled(0.012), 55);
    let tokenized = TokenizedCorpus::build(&corpus, 10, 4000);
    let mut rng = StdRng::seed_from_u64(2);
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
        seed: 9,
    }
}

fn quick_fit(f: &Fixture) -> TrainedFakeDetector {
    let c = ctx(f);
    FakeDetector::new(FakeDetectorConfig { epochs: 8, ..Default::default() }).fit(&c)
}

#[test]
fn fit_then_predict_matches_fit_predict() {
    let f = fixture();
    let c = ctx(&f);
    let model = FakeDetector::new(FakeDetectorConfig { epochs: 5, ..Default::default() });
    let direct = model.fit_predict(&c);
    let staged = model.fit(&c).predict(&c);
    assert_eq!(direct, staged);
}

#[test]
fn probabilities_are_distributions_consistent_with_argmax() {
    let f = fixture();
    let c = ctx(&f);
    let trained = quick_fit(&f);
    let preds = trained.predict(&c);
    let probas = trained.predict_proba(&c);
    for (slot, ty) in NodeType::ALL.iter().enumerate() {
        for (idx, p) in probas[slot].iter().enumerate() {
            assert_eq!(p.len(), 2);
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "probabilities sum to {sum}");
            let argmax = if p[1] > p[0] { 1 } else { 0 };
            assert_eq!(argmax, preds.for_type(*ty)[idx], "{ty:?} {idx}");
        }
    }
}

#[test]
fn json_roundtrip_preserves_predictions() {
    let f = fixture();
    let c = ctx(&f);
    let trained = quick_fit(&f);
    let json = trained.to_json();
    let restored = TrainedFakeDetector::from_json(&json).expect("roundtrip");
    assert_eq!(trained.predict(&c), restored.predict(&c));
    assert_eq!(trained.report().losses, restored.report().losses);
}

#[test]
fn from_json_rejects_garbage() {
    assert!(TrainedFakeDetector::from_json("{}").is_err());
    assert!(TrainedFakeDetector::from_json("not json").is_err());
}

#[test]
fn inductive_scoring_returns_distribution_and_reacts_to_text() {
    let f = fixture();
    let c = ctx(&f);
    let trained = quick_fit(&f);
    // Score a fabricated "new" statement with an existing creator/subject.
    let credible_text = "federal budget report shows unemployment rate decline percent census data";
    let fake_text = "obamacare hoax conspiracy rigged fraud banned secret takeover lies";
    let p_credible = trained.score_new_article(&c, credible_text, Some(0), &[0, 1]).unwrap();
    let p_fake = trained.score_new_article(&c, fake_text, Some(0), &[0, 1]).unwrap();
    for p in [&p_credible, &p_fake] {
        assert_eq!(p.len(), 2);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }
    assert!(
        p_credible[1] > p_fake[1],
        "credible-sounding text ({:.3}) should outscore fake-sounding text ({:.3})",
        p_credible[1],
        p_fake[1]
    );
}

#[test]
fn inductive_scoring_without_neighbours_still_works() {
    let f = fixture();
    let c = ctx(&f);
    let trained = quick_fit(&f);
    let p = trained.score_new_article(&c, "economy jobs growth data", None, &[]).unwrap();
    assert_eq!(p.len(), 2);
    assert!(p.iter().all(|v| v.is_finite()));
}

#[test]
#[should_panic(expected = "label mode changed")]
fn predict_rejects_mismatched_mode() {
    let f = fixture();
    let trained = quick_fit(&f);
    let multi = ExperimentContext {
        corpus: &f.corpus,
        tokenized: &f.tokenized,
        explicit: &f.explicit,
        train: &f.train,
        mode: LabelMode::MultiClass,
        seed: 9,
    };
    let _ = trained.predict(&multi);
}

#[test]
fn inductive_scoring_checks_creator_bounds() {
    let f = fixture();
    let c = ctx(&f);
    let trained = quick_fit(&f);
    let err = trained.score_new_article(&c, "text", Some(9999), &[]).unwrap_err();
    assert!(err.contains("creator 9999 out of range"), "{err}");
}
