//! Canonical scenario specifications and model fingerprints.
//!
//! A [`ScenarioSpec`] is everything a worker needs to rebuild a gap family
//! from scratch: the model (two-species or `k`-species — the distinction is
//! preserved because the jump-chain backend has a specialised two-species
//! fast path with its own RNG consumption pattern), the backend registry
//! name and the per-trial event budget. Its [`fingerprint`] — FNV-1a over
//! the canonical JSON serialization — keys the server's threshold-surface
//! cache, so two requests for the same physics share one posterior.
//!
//! [`fingerprint`]: ScenarioSpec::fingerprint

use crate::error::ServiceError;
use crate::proto::{read_tagged, write_tagged};
use lv_lotka::{LvModel, MultiLvModel};
use lv_sim::{GapScenario, PluralityGap, TwoSpeciesGap};
use serde::{Deserialize, Serialize};

/// The model of a [`ScenarioSpec`]: the paper's two-species system or the
/// general `k`-species one, kept distinct so rebuilt scenarios take the
/// same execution path (and consume the same RNG stream) as local ones.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// A two-species [`LvModel`].
    Two(LvModel),
    /// A `k`-species [`MultiLvModel`].
    Multi(MultiLvModel),
}

impl ModelSpec {
    /// Number of species.
    pub fn species_count(&self) -> usize {
        match self {
            ModelSpec::Two(_) => 2,
            ModelSpec::Multi(model) => model.species_count(),
        }
    }

    /// Checks the invariants a deserialized model may have bypassed
    /// (constructors assert them; the wire does not).
    pub fn validate(&self) -> Result<(), ServiceError> {
        let valid = match self {
            ModelSpec::Two(model) => model.rates().is_valid(),
            ModelSpec::Multi(model) => {
                let k = model.species_count();
                let finite = |r: f64| r.is_finite() && r >= 0.0;
                k >= 2
                    && (0..k).all(|i| {
                        finite(model.beta(i))
                            && finite(model.delta(i))
                            && finite(model.gamma(i))
                            && (0..k).all(|j| i == j || finite(model.alpha(i, j)))
                            && model.alpha(i, i) == 0.0
                    })
            }
        };
        if valid {
            Ok(())
        } else {
            Err(ServiceError::bad_request(
                "model rates must be finite, non-negative, with a zero attack diagonal",
            ))
        }
    }
}

/// `{"kind": "two" | "multi", "model": ...}`.
impl Serialize for ModelSpec {
    fn serialize<O: serde::Output>(&self, out: &mut O) {
        match self {
            ModelSpec::Two(model) => write_tagged(out, ("kind", "two"), ("model", model)),
            ModelSpec::Multi(model) => write_tagged(out, ("kind", "multi"), ("model", model)),
        }
    }
}

impl<'de> Deserialize<'de> for ModelSpec {
    fn deserialize(de: &mut serde::Deserializer<'de>) -> Result<Self, serde::Error> {
        read_tagged(de, "kind", "model", |tag, model| match tag {
            "two" => LvModel::deserialize(model).map(ModelSpec::Two),
            "multi" => MultiLvModel::deserialize(model).map(ModelSpec::Multi),
            other => Err(serde::Error::unknown_variant(other)),
        })
    }
}

/// A canonical, fingerprintable scenario specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The competitive model.
    pub model: ModelSpec,
    /// Backend registry name (canonical or alias; fingerprints canonicalise
    /// through the registry so aliases share cache entries).
    pub backend: String,
    /// Per-individual event budget (`max_events = n · events_per_individual`);
    /// `0` selects the engine default.
    pub events_per_individual: u64,
}

impl ScenarioSpec {
    /// A spec over the paper's two-species model.
    pub fn two_species(model: LvModel, backend: &str) -> Self {
        ScenarioSpec {
            model: ModelSpec::Two(model),
            backend: backend.to_string(),
            events_per_individual: 0,
        }
    }

    /// A spec over a `k`-species model.
    pub fn multi_species(model: MultiLvModel, backend: &str) -> Self {
        ScenarioSpec {
            model: ModelSpec::Multi(model),
            backend: backend.to_string(),
            events_per_individual: 0,
        }
    }

    /// Replaces the per-individual event budget.
    pub fn with_events_per_individual(mut self, events: u64) -> Self {
        self.events_per_individual = events;
        self
    }

    /// Validates the spec: known backend, supported species count, valid
    /// rates. Returns the spec with the backend name canonicalised.
    pub fn validated(mut self) -> Result<Self, ServiceError> {
        self.model.validate()?;
        let backend = lv_engine::backend(&self.backend).ok_or_else(|| {
            ServiceError::new(
                "unknown-backend",
                format!("unknown backend {:?}", self.backend),
            )
        })?;
        if !backend.supports_species(self.model.species_count()) {
            return Err(ServiceError::bad_request(format!(
                "backend {:?} does not support {}-species scenarios",
                self.backend,
                self.model.species_count()
            )));
        }
        self.backend = backend.name().to_string();
        Ok(self)
    }

    /// The cache fingerprint: FNV-1a 64 over the canonical JSON form,
    /// hashed as it is written, so nothing is allocated.
    ///
    /// Only through [`ScenarioSpec::validated`]-canonicalised specs is the
    /// fingerprint alias-stable.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
        self.serialize(&mut hash);
        hash.0
    }

    /// Builds the gap family over population `n`.
    pub fn family(&self, n: u64) -> Result<GapFamily, ServiceError> {
        match &self.model {
            ModelSpec::Two(model) => {
                if n < 4 {
                    return Err(ServiceError::bad_request(format!(
                        "two-species thresholds need n >= 4, got {n}"
                    )));
                }
                let mut family = TwoSpeciesGap::new(*model, n);
                if self.events_per_individual > 0 {
                    family = family
                        .with_max_events(lv_engine::majority_budget(n, self.events_per_individual));
                }
                Ok(GapFamily::Two(family))
            }
            ModelSpec::Multi(model) => {
                let k = model.species_count() as u64;
                if n < 2 * k {
                    return Err(ServiceError::bad_request(format!(
                        "{k}-species thresholds need n >= 2k = {}, got {n}",
                        2 * k
                    )));
                }
                let mut family = PluralityGap::new(model.clone(), n);
                if self.events_per_individual > 0 {
                    family = family
                        .with_max_events(lv_engine::majority_budget(n, self.events_per_individual));
                }
                Ok(GapFamily::Multi(family))
            }
        }
    }
}

/// A fingerprint rendered as the wire's fixed-width hex string.
pub fn fingerprint_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// An FNV-1a 64 hash fed with JSON text as it is written.
struct Fnv1a(u64);

impl serde::Output for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A concrete gap family built from a spec — two-species or plurality,
/// behind one [`GapScenario`] face.
#[derive(Debug, Clone)]
pub enum GapFamily {
    /// The paper's two-species `(a, b)` split.
    Two(TwoSpeciesGap),
    /// The planted-leader plurality split.
    Multi(PluralityGap),
}

impl GapFamily {
    fn inner(&self) -> &dyn GapScenario {
        match self {
            GapFamily::Two(f) => f,
            GapFamily::Multi(f) => f,
        }
    }

    /// Whether `gap` lies on the feasible lattice.
    pub fn feasible(&self, gap: u64) -> bool {
        let (min, max, stride) = (self.min_gap(), self.max_gap(), self.stride());
        gap >= min && gap <= max && (gap - min).is_multiple_of(stride)
    }

    /// The nearest feasible gap to `gap` (rounding half up, clamped to the
    /// lattice range).
    pub fn snap(&self, gap: u64) -> u64 {
        let (min, max, stride) = (self.min_gap(), self.max_gap(), self.stride());
        if gap <= min {
            return min;
        }
        let index = (gap - min + stride / 2) / stride;
        (min + index * stride).min(max)
    }
}

impl GapScenario for GapFamily {
    fn population(&self) -> u64 {
        self.inner().population()
    }

    fn species_count(&self) -> usize {
        self.inner().species_count()
    }

    fn min_gap(&self) -> u64 {
        self.inner().min_gap()
    }

    fn stride(&self) -> u64 {
        self.inner().stride()
    }

    fn max_gap(&self) -> u64 {
        self.inner().max_gap()
    }

    fn scenario(&self, gap: u64) -> lv_engine::Scenario {
        self.inner().scenario(gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_lotka::CompetitionKind;

    fn sd_model() -> LvModel {
        LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0)
    }

    #[test]
    fn specs_round_trip_through_json() {
        let spec =
            ScenarioSpec::two_species(sd_model(), "jump-chain").with_events_per_individual(50);
        let text = serde::json::to_string(&spec);
        let back: ScenarioSpec = serde::json::from_str(&text).unwrap();
        assert_eq!(back, spec);

        let multi = ScenarioSpec::multi_species(
            MultiLvModel::symmetric(CompetitionKind::NonSelfDestructive, 3, 1.0, 0.5, 2.0),
            "gillespie-direct",
        );
        let text = serde::json::to_string(&multi);
        let back: ScenarioSpec = serde::json::from_str(&text).unwrap();
        assert_eq!(back, multi);
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let spec = ScenarioSpec::two_species(sd_model(), "jump-chain");
        assert_eq!(spec.fingerprint(), spec.clone().fingerprint());
        let other_kind = ScenarioSpec::two_species(
            LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0),
            "jump-chain",
        );
        assert_ne!(spec.fingerprint(), other_kind.fingerprint());
        let other_backend = ScenarioSpec::two_species(sd_model(), "gillespie-direct");
        assert_ne!(spec.fingerprint(), other_backend.fingerprint());
        assert_eq!(fingerprint_hex(spec.fingerprint()).len(), 16);
    }

    #[test]
    fn validation_canonicalises_backend_aliases() {
        let spec = ScenarioSpec::two_species(sd_model(), "jump-chain");
        let alias = ScenarioSpec {
            backend: "jump".to_string(),
            ..spec.clone()
        };
        match alias.clone().validated() {
            // When the registry knows the alias the two specs must collapse
            // to one fingerprint; if not, validation must say so.
            Ok(canonical) => assert_eq!(canonical.fingerprint(), spec.fingerprint()),
            Err(e) => assert_eq!(e.code(), "unknown-backend"),
        }
        assert!(ScenarioSpec::two_species(sd_model(), "no-such-backend")
            .validated()
            .is_err());
    }

    #[test]
    fn retired_backend_names_share_the_same_law_rows_fingerprint() {
        let canonical = ScenarioSpec::two_species(sd_model(), "czyzowicz-lv")
            .validated()
            .unwrap();
        let retired = ScenarioSpec::two_species(sd_model(), "czyzowicz-lv-k")
            .validated()
            .unwrap();
        assert_eq!(retired.backend, "czyzowicz-lv");
        assert_eq!(retired.fingerprint(), canonical.fingerprint());
    }

    #[test]
    fn three_species_specs_validate_on_the_conversion_rows() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        for backend in ["czyzowicz-lv", "czyzowicz-lv-bridged"] {
            let spec = ScenarioSpec::multi_species(model.clone(), backend);
            assert_eq!(spec.clone().validated(), Ok(spec), "{backend}");
        }
        let two_opinion = ScenarioSpec::multi_species(model, "approx-majority");
        assert!(two_opinion.validated().is_err());
    }

    #[test]
    fn family_feasibility_and_snapping() {
        let spec = ScenarioSpec::two_species(sd_model(), "jump-chain");
        let family = spec.family(100).unwrap();
        assert!(family.feasible(2));
        assert!(family.feasible(98));
        assert!(!family.feasible(3));
        assert!(!family.feasible(100));
        assert_eq!(family.snap(3), 4);
        assert_eq!(family.snap(0), 2);
        assert_eq!(family.snap(1_000), 98);
        assert!(spec.family(3).is_err());
    }

    #[test]
    fn invalid_deserialized_models_fail_validation() {
        let spec = ScenarioSpec::two_species(sd_model(), "jump-chain");
        let mut text = serde::json::to_string(&spec);
        text = text.replace("1.0", "-1.0");
        let hostile: ScenarioSpec = serde::json::from_str(&text).unwrap();
        assert!(hostile.validated().is_err());
    }
}
