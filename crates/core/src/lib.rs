//! **FakeDetector** — the paper's primary contribution (Section 4).
//!
//! The model infers credibility labels for news articles, creators and
//! subjects *simultaneously* over the News-HSN. Three components:
//!
//! 1. [`Hflu`] — the Hybrid Feature Learning Unit (§4.1). Per node type,
//!    the explicit χ² bag-of-words feature `x^e` is concatenated with a
//!    latent feature `x^l = σ(W Σ_t h_t)` from a GRU over the token
//!    sequence.
//! 2. [`GduCell`] — the Gated Diffusive Unit (§4.2). Accepts the
//!    entity's own features `x` plus the diffused states of its
//!    neighbours of the other node types (`z`, `t`), filters them with a
//!    *forget* gate and an *adjust* gate, and blends four candidate
//!    states through two selection gates.
//! 3. [`FakeDetector`] — the deep diffusive network (§4.3). One HFLU +
//!    GDU + soft-max head per node type; the GDU layer is unrolled for a
//!    configurable number of diffusion rounds (the paper's Figure 3(c)
//!    data-flow loops, made explicit); training minimises
//!    `L(T_n) + L(T_u) + L(T_s) + α L_reg(W)` with Adam and global-norm
//!    clipping, exactly end to end through the whole graph.
//!
//! ```no_run
//! use fd_core::{FakeDetector, FakeDetectorConfig};
//! use fd_data::{generate, CredibilityModel, GeneratorConfig};
//! // ... build an ExperimentContext (see the `fd-data` docs) ...
//! # fn ctx() -> fd_data::ExperimentContext<'static> { unimplemented!() }
//! let model = FakeDetector::new(FakeDetectorConfig::default());
//! let predictions = model.fit_predict(&ctx());
//! ```

mod checkpoint;
mod config;
mod gdu;
mod hflu;
mod incremental;
mod model;
#[cfg(test)]
mod oracle;
mod subgraph;
mod trained;

pub use checkpoint::FitOptions;
pub use config::{FakeDetectorConfig, TrainMode};
pub use gdu::GduCell;
pub use hflu::{Hflu, HfluInput};
pub use incremental::{featurise_new_nodes, DeltaCost, RoundDelta, StateOverlay, StateView};
pub use model::{FakeDetector, TrainReport};
pub use trained::{ScoreRequest, TrainedFakeDetector};

/// A [`TrainedFakeDetector`] is a plain-data weight store, so one
/// instance can be shared across serving threads behind an `Arc`;
/// the serving layer's batcher thread relies on this.
const _ASSERT_TRAINED_IS_SHAREABLE: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TrainedFakeDetector>()
};
