//! FakeDetector hyper-parameters, including the ablation switches the
//! DESIGN.md experiment index calls out.

/// How each training epoch traverses the News-HSN.
///
/// The default, [`TrainMode::Full`], records every node of the graph on
/// the tape each epoch — exact, but peak memory grows with the corpus.
/// [`TrainMode::Sampled`] instead splits the training items into
/// minibatches and runs each step over a sampled k-hop neighbourhood
/// subgraph (deterministic reservoir sampling, see
/// `fd_graph::NeighborSampler`), so peak memory scales with
/// `batch_size x fanout^rounds` instead of the graph size.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum TrainMode {
    /// Full-graph epochs (the reference path; exact).
    #[default]
    Full,
    /// Neighbour-sampled minibatch epochs.
    Sampled {
        /// Training items per minibatch (the subgraph's seed set).
        batch_size: usize,
        /// Neighbours kept per node and relation when expanding the
        /// subgraph (degree-capped reservoir sample).
        fanout: usize,
        /// Subgraph hop depth *and* GDU unroll depth for sampled steps,
        /// so the sampled receptive field always covers the unrolled
        /// diffusion. It overrides `diffusion_rounds`: the trained
        /// model's config records `diffusion_rounds = rounds`, so every
        /// inference path diffuses as deep as training did.
        rounds: usize,
    },
}

// The vendored serde derive handles named-field structs and unit-variant
// enums only, so the struct-variant `Sampled` is lowered by hand:
// `Full` as the string "full" (compact, self-describing), `Sampled` as a
// tagged map. Both shapes round-trip through the JSON stand-in.
impl serde::Serialize for TrainMode {
    fn serialize_content(&self) -> serde::Content {
        match *self {
            TrainMode::Full => serde::Content::Str("full".to_string()),
            TrainMode::Sampled { batch_size, fanout, rounds } => serde::Content::Map(vec![
                ("mode".to_string(), serde::Content::Str("sampled".to_string())),
                ("batch_size".to_string(), serde::Content::U64(batch_size as u64)),
                ("fanout".to_string(), serde::Content::U64(fanout as u64)),
                ("rounds".to_string(), serde::Content::U64(rounds as u64)),
            ]),
        }
    }
}

impl serde::Deserialize for TrainMode {
    fn deserialize_content(content: &serde::Content) -> Result<Self, serde::Error> {
        if let Some(s) = content.as_str() {
            return match s {
                "full" => Ok(TrainMode::Full),
                other => Err(serde::Error::custom(format!(
                    "unknown train_mode {other:?} (expected \"full\" or a sampled-mode map)"
                ))),
            };
        }
        let map = content.as_map().ok_or_else(|| {
            serde::Error::custom(format!("train_mode must be a string or map, got {content:?}"))
        })?;
        let field = |name: &str| -> Result<usize, serde::Error> {
            serde::content_get(map, name)
                .and_then(serde::Content::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| serde::Error::custom(format!("sampled train_mode needs {name}")))
        };
        match serde::content_get(map, "mode").and_then(serde::Content::as_str) {
            Some("sampled") => Ok(TrainMode::Sampled {
                batch_size: field("batch_size")?,
                fanout: field("fanout")?,
                rounds: field("rounds")?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown train_mode tag {other:?} (expected \"sampled\")"
            ))),
        }
    }
}

/// All tunables of the deep diffusive network.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FakeDetectorConfig {
    /// Token-embedding width inside each HFLU's GRU.
    pub embed_dim: usize,
    /// GRU hidden width inside each HFLU.
    pub gru_hidden: usize,
    /// HFLU latent feature width (`x^l`).
    pub latent_dim: usize,
    /// GDU state width (`h_i`).
    pub gdu_hidden: usize,
    /// Diffusion rounds the GDU layer is unrolled for (≥ 1; the paper's
    /// mutual data-flow resolved iteratively with shared weights). A
    /// sampled fit trains at, and records, its `TrainMode::Sampled`
    /// `rounds` instead.
    pub diffusion_rounds: usize,
    /// Maximum training epochs (full-graph steps); early stopping may
    /// end training sooner.
    pub epochs: usize,
    /// Fraction of the training entities held out as a validation set
    /// for early stopping (0 disables early stopping).
    pub validation_fraction: f64,
    /// Early-stopping patience: epochs without a validation-accuracy
    /// improvement before training stops (best weights are restored).
    pub patience: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// `α`, the weight of the L2 regulariser `L_reg(W)`.
    pub reg_alpha: f32,
    /// Global-norm gradient clip.
    pub clip: f32,
    /// Ablation: feed the explicit BoW half of HFLU (`x^e`).
    pub use_explicit: bool,
    /// Ablation: feed the latent GRU half of HFLU (`x^l`).
    pub use_latent: bool,
    /// Ablation: diffuse neighbour states (false ⇒ `z = t = 0`, reducing
    /// GDU to a per-entity gated MLP).
    pub use_diffusion: bool,
    /// Ablation: apply the forget/adjust gates (false ⇒ both fixed to 1).
    pub use_gates: bool,
    /// Epoch traversal: full-graph (default, exact) or neighbour-sampled
    /// minibatches with bounded peak memory. Absent from saved-model
    /// JSON written before sampled training existed ⇒ full-graph.
    #[serde(default)]
    pub train_mode: TrainMode,
}

impl Default for FakeDetectorConfig {
    fn default() -> Self {
        Self {
            embed_dim: 16,
            gru_hidden: 24,
            latent_dim: 24,
            gdu_hidden: 24,
            diffusion_rounds: 2,
            epochs: 250,
            validation_fraction: 0.15,
            patience: 45,
            lr: 3e-2,
            reg_alpha: 1e-5,
            clip: 10.0,
            use_explicit: true,
            use_latent: true,
            use_diffusion: true,
            use_gates: true,
            train_mode: TrainMode::Full,
        }
    }
}

impl FakeDetectorConfig {
    /// HFLU output width given the explicit feature dimensionality `d`
    /// of the run (the GDU's `x` input width).
    pub fn hflu_out_dim(&self, explicit_dim: usize) -> usize {
        let mut out = 0;
        if self.use_explicit {
            out += explicit_dim;
        }
        if self.use_latent {
            out += self.latent_dim;
        }
        assert!(out > 0, "FakeDetectorConfig: at least one HFLU half must be enabled");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_model() {
        let c = FakeDetectorConfig::default();
        assert!(c.use_explicit && c.use_latent && c.use_diffusion && c.use_gates);
        assert!(c.diffusion_rounds >= 1);
    }

    #[test]
    fn hflu_out_dim_tracks_ablations() {
        let mut c = FakeDetectorConfig::default();
        assert_eq!(c.hflu_out_dim(60), 60 + c.latent_dim);
        c.use_explicit = false;
        assert_eq!(c.hflu_out_dim(60), c.latent_dim);
        c.use_explicit = true;
        c.use_latent = false;
        assert_eq!(c.hflu_out_dim(60), 60);
    }

    #[test]
    fn train_mode_defaults_to_full_for_old_saved_configs() {
        // Saved-model JSON written before sampled training must load as
        // full-graph.
        let json = serde_json::to_string(&FakeDetectorConfig::default()).unwrap();
        let json = json.replace(",\"train_mode\":\"full\"", "");
        assert!(!json.contains("train_mode"), "field not stripped: {json}");
        let c: FakeDetectorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c.train_mode, TrainMode::Full);
    }

    #[test]
    fn sampled_train_mode_roundtrips_through_json() {
        let c = FakeDetectorConfig {
            train_mode: TrainMode::Sampled { batch_size: 64, fanout: 8, rounds: 2 },
            ..FakeDetectorConfig::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"mode\":\"sampled\""), "{json}");
        let back: FakeDetectorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.train_mode, c.train_mode);
    }

    #[test]
    fn unknown_train_mode_is_rejected() {
        let json = serde_json::to_string(&FakeDetectorConfig::default()).unwrap();
        let json = json.replace("\"train_mode\":\"full\"", "\"train_mode\":\"bogus\"");
        let err = serde_json::from_str::<FakeDetectorConfig>(&json).unwrap_err();
        assert!(err.to_string().contains("train_mode"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one HFLU half")]
    fn both_halves_off_rejected() {
        let c = FakeDetectorConfig {
            use_explicit: false,
            use_latent: false,
            ..FakeDetectorConfig::default()
        };
        let _ = c.hflu_out_dim(60);
    }
}
