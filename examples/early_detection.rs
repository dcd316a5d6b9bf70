//! Early detection: score statements the moment they appear, before any
//! fact-checker touches them — the motivating goal of the paper's
//! introduction ("identify the fake news timely").
//!
//! Trains once, saves the model to JSON, reloads it (as a long-running
//! service would), and scores a stream of unseen statements, each as if
//! it were ingested into the trained graph now, citing one creator and
//! two subjects; nothing is stored.
//!
//! ```sh
//! cargo run --release --example early_detection
//! ```

use fakedetector::core::TrainedFakeDetector;
use fakedetector::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let corpus = generate(&GeneratorConfig::politifact().scaled(0.04), 99);
    let tokenized = TokenizedCorpus::build(&corpus, 12, 6000);
    let mut rng = StdRng::seed_from_u64(1);
    let train = TrainSets {
        articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
        creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
        subjects: CvSplits::new(corpus.subjects.len(), 10, &mut rng).fold(0).0,
    };
    let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, 60);
    let ctx = ExperimentContext {
        corpus: &corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train: &train,
        mode: LabelMode::Binary,
        seed: 5,
    };

    println!("training…");
    let trained = FakeDetector::new(FakeDetectorConfig::default()).fit(&ctx);
    println!(
        "trained for {} epochs (early stopping), final loss {:.1}",
        trained.report().losses.len(),
        trained.report().losses.last().unwrap()
    );

    // Persist and reload, as a scoring service would at startup.
    let saved = trained.to_json();
    println!("serialised model: {} KiB", saved.len() / 1024);
    let service = TrainedFakeDetector::from_json(&saved).expect("reload");

    // A "stream" of fresh statements: same creator, different wording.
    let incoming = [
        "federal census data shows unemployment rate decline and wage growth this quarter",
        "annual budget analysis reports steady insurance enrollment and revenue increase",
        "secret obamacare takeover scheme rigged to confiscate guns and destroy jobs",
        "viral chain email claims banned muslim caravan plot behind election fraud",
    ];
    println!("\nscoring unseen statements (creator 0, subjects 0–1):");
    for text in incoming {
        let p = service.score_new_article(&ctx, text, Some(0), &[0, 1]).expect("valid neighbours");
        let verdict = if p[1] >= 0.5 { "looks credible" } else { "FLAG: likely fake" };
        println!("  p(credible)={:.3}  {verdict:<18} \"{}…\"", p[1], &text[..46]);
    }
}
