use crate::config::LvConfiguration;
use crate::events::LvEvent;
use crate::rates::{CompetitionKind, LvRates, SpeciesIndex};
use lv_chains::DominatingChain;
use lv_crn::{Reaction, ReactionNetwork, ValidatedNetwork};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A two-species competitive Lotka–Volterra model: a competition mechanism
/// plus rate parameters (Section 1.3 of the paper).
///
/// Named constructors cover every regime of Table 1:
///
/// | Table 1 row | Constructor |
/// |---|---|
/// | interspecific only | [`LvModel::neutral`] (γ = 0) |
/// | inter- and intraspecific | [`LvModel::balanced_intra_inter`] |
/// | intraspecific only | [`LvModel::intraspecific_only`] |
/// | interspecific, δ = 0 | [`LvModel::cho_et_al`] |
/// | no competition | [`LvModel::no_competition`] |
///
/// ```
/// use lv_lotka::{CompetitionKind, LvModel};
/// let model = LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0);
/// assert!(model.rates().is_neutral());
/// assert!(model.dominating_chain().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LvModel {
    kind: CompetitionKind,
    rates: LvRates,
}

impl LvModel {
    /// Creates a model from a competition kind and explicit rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or non-finite.
    pub fn new(kind: CompetitionKind, rates: LvRates) -> Self {
        assert!(
            rates.is_valid(),
            "all rates must be finite and non-negative"
        );
        LvModel { kind, rates }
    }

    /// A *neutral* model (identical species) with total interspecific rate
    /// `alpha_total = α_0 + α_1` and no intraspecific competition. This is the
    /// regime of Sections 6 and 7.
    pub fn neutral(kind: CompetitionKind, beta: f64, delta: f64, alpha_total: f64) -> Self {
        LvModel::new(kind, LvRates::neutral(beta, delta, alpha_total))
    }

    /// A neutral model with both inter- and intraspecific competition.
    pub fn with_intraspecific(
        kind: CompetitionKind,
        beta: f64,
        delta: f64,
        alpha_total: f64,
        gamma_total: f64,
    ) -> Self {
        LvModel::new(
            kind,
            LvRates::neutral(beta, delta, alpha_total).with_intraspecific(gamma_total),
        )
    }

    /// The special case studied by Cho et al. [21]: self-destructive
    /// interspecific competition with **no individual deaths** (`δ = 0`) and
    /// no intraspecific competition (Table 1, row 4).
    pub fn cho_et_al(beta: f64, alpha_total: f64) -> Self {
        LvModel::neutral(CompetitionKind::SelfDestructive, beta, 0.0, alpha_total)
    }

    /// Two independent birth–death populations: no competition at all
    /// (`α = γ = 0`), Table 1 row 5. The majority-consensus threshold is
    /// `n − 1` here (Andaur et al. [6]).
    pub fn no_competition(beta: f64, delta: f64) -> Self {
        LvModel::new(
            CompetitionKind::SelfDestructive,
            LvRates {
                beta,
                delta,
                alpha: [0.0, 0.0],
                gamma: [0.0, 0.0],
            },
        )
    }

    /// Intraspecific competition only (`α = 0`, `γ > 0`): the regime of
    /// Section 8.2 where no majority-consensus threshold exists (Theorem 25).
    pub fn intraspecific_only(
        kind: CompetitionKind,
        beta: f64,
        delta: f64,
        gamma_total: f64,
    ) -> Self {
        LvModel::new(
            kind,
            LvRates {
                beta,
                delta,
                alpha: [0.0, 0.0],
                gamma: [gamma_total / 2.0, gamma_total / 2.0],
            },
        )
    }

    /// The balanced inter-/intraspecific regimes of Section 8.1 for which the
    /// proportional law of Theorems 20 and 23 holds:
    ///
    /// * self-destructive competition with `γ = α` (Theorem 20), where the
    ///   paper's `α` is the coefficient of `x_0 x_1` in the interspecific
    ///   propensity (`α_0 + α_1`) and `γ` the per-species coefficient of
    ///   `x_i(x_i−1)/2`;
    /// * non-self-destructive competition with `γ = 2α` in the paper's
    ///   totals (Theorem 23), i.e. `γ_i = 2α_i` per species.
    ///
    /// Both conditions amount to `γ_0 + γ_1 = 2(α_0 + α_1)` in this crate's
    /// parameterisation.
    ///
    /// Under non-self-destructive competition the winner's probability is
    /// exactly `a/(a+b)`. Under self-destructive competition both species can
    /// go extinct simultaneously (through the `X_0 + X_1 → ∅` reaction from
    /// the state `(1, 1)`), and the exact identity is the optional-stopping
    /// form `P(majority wins) + P(both extinct)/2 = a/(a+b)`.
    pub fn balanced_intra_inter(
        kind: CompetitionKind,
        beta: f64,
        delta: f64,
        alpha_total: f64,
    ) -> Self {
        LvModel::with_intraspecific(kind, beta, delta, alpha_total, 2.0 * alpha_total)
    }

    /// The competition mechanism of this model.
    pub fn kind(&self) -> CompetitionKind {
        self.kind
    }

    /// The rate parameters of this model.
    pub fn rates(&self) -> &LvRates {
        &self.rates
    }

    /// The propensity of each of the eight reactions of the model in the given
    /// configuration, in the fixed order used throughout this crate:
    ///
    /// `[birth_0, death_0, inter_0, intra_0, birth_1, death_1, inter_1, intra_1]`
    ///
    /// where `inter_i` is the interspecific reaction initiated by species `i`
    /// (rate `α_i`) and `intra_i` the intraspecific reaction within species
    /// `i` (rate `γ_i`).
    pub fn propensities(&self, state: LvConfiguration) -> [f64; 8] {
        let (x0, x1) = state.counts();
        let rates = self.slot_rates();
        std::array::from_fn(|slot| propensity(slot, rates[slot], x0 as f64, x1 as f64))
    }

    /// The rate of each of the eight reactions, in the order of
    /// [`propensities`](LvModel::propensities).
    pub(crate) fn slot_rates(&self) -> [f64; 8] {
        let r = &self.rates;
        [
            r.beta, r.delta, r.alpha[0], r.gamma[0], r.beta, r.delta, r.alpha[1], r.gamma[1],
        ]
    }

    /// The event corresponding to each propensity index of
    /// [`propensities`](LvModel::propensities).
    pub fn event_for_index(index: usize) -> LvEvent {
        let species = if index < 4 {
            SpeciesIndex::Zero
        } else {
            SpeciesIndex::One
        };
        match index % 4 {
            0 => LvEvent::Birth(species),
            1 => LvEvent::Death(species),
            2 => LvEvent::Interspecific { attacker: species },
            3 => LvEvent::Intraspecific(species),
            _ => unreachable!(),
        }
    }

    /// The total propensity `φ(x_0, x_1)` of Section 1.3.
    pub fn total_propensity(&self, state: LvConfiguration) -> f64 {
        self.propensities(state).iter().sum()
    }

    /// Builds the equivalent chemical reaction network, with species named
    /// `"X0"` and `"X1"`. Reactions with rate zero are omitted.
    ///
    /// # Errors
    ///
    /// Returns an error if *every* rate is zero (the network would have no
    /// reactions).
    pub fn to_reaction_network(&self) -> lv_crn::Result<ValidatedNetwork> {
        let mut net = ReactionNetwork::new();
        let x = [net.add_species("X0"), net.add_species("X1")];
        for i in 0..2usize {
            let other = 1 - i;
            if self.rates.beta > 0.0 {
                net.add_reaction(
                    Reaction::new(self.rates.beta)
                        .named(format!("birth X{i}"))
                        .reactant(x[i], 1)
                        .product(x[i], 2),
                );
            }
            if self.rates.delta > 0.0 {
                net.add_reaction(
                    Reaction::new(self.rates.delta)
                        .named(format!("death X{i}"))
                        .reactant(x[i], 1),
                );
            }
            if self.rates.alpha[i] > 0.0 {
                let mut reaction = Reaction::new(self.rates.alpha[i])
                    .named(format!("interspecific X{i}+X{other}"))
                    .reactant(x[i], 1)
                    .reactant(x[other], 1);
                if self.kind == CompetitionKind::NonSelfDestructive {
                    reaction = reaction.product(x[i], 1);
                }
                net.add_reaction(reaction);
            }
            if self.rates.gamma[i] > 0.0 {
                let mut reaction = Reaction::new(self.rates.gamma[i])
                    .named(format!("intraspecific X{i}"))
                    .reactant(x[i], 2);
                if self.kind == CompetitionKind::NonSelfDestructive {
                    reaction = reaction.product(x[i], 1);
                }
                net.add_reaction(reaction);
            }
        }
        net.validate()
    }

    /// The dominating nice birth–death chain of Section 5.2, defined whenever
    /// the model has no intraspecific competition and strictly positive
    /// interspecific competition on both sides (`γ = 0`, `α_min > 0`).
    pub fn dominating_chain(&self) -> Option<DominatingChain> {
        if self.rates.has_no_intraspecific() && self.rates.alpha_min() > 0.0 {
            Some(DominatingChain::from_lv_rates(
                self.rates.beta,
                self.rates.delta,
                self.rates.alpha[0],
                self.rates.alpha[1],
            ))
        } else {
            None
        }
    }
}

impl Default for LvModel {
    /// The unit-rate neutral self-destructive model.
    fn default() -> Self {
        LvModel::new(CompetitionKind::SelfDestructive, LvRates::default())
    }
}

impl fmt::Display for LvModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Lotka–Volterra ({} competition, {})",
            self.kind, self.rates
        )
    }
}

/// The propensity of reaction `slot` (in [`LvModel::propensities`] order)
/// with rate `rate` in the state `(x0, x1)`: `rate · x_i` for births and
/// deaths, `rate · x_0 x_1` for interspecific and `rate · x_i(x_i − 1)/2` for
/// intraspecific competition. Every propensity of the crate's two-species
/// chain is evaluated here, so all of them round identically.
#[inline(always)]
pub(crate) fn propensity(slot: usize, rate: f64, x0: f64, x1: f64) -> f64 {
    let x = if slot < 4 { x0 } else { x1 };
    match slot % 4 {
        0 | 1 => rate * x,
        2 => rate * x0 * x1,
        _ => rate * (x * (x - 1.0) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_crn::State;

    #[test]
    fn propensities_match_section_1_3() {
        let model =
            LvModel::with_intraspecific(CompetitionKind::SelfDestructive, 2.0, 3.0, 1.0, 4.0);
        let state = LvConfiguration::new(10, 4);
        let p = model.propensities(state);
        assert_eq!(p[0], 2.0 * 10.0); // birth X0
        assert_eq!(p[1], 3.0 * 10.0); // death X0
        assert_eq!(p[2], 0.5 * 40.0); // inter attacker X0 (α0 = 0.5)
        assert_eq!(p[3], 2.0 * 45.0); // intra X0 (γ0 = 2, pairs = 45)
        assert_eq!(p[4], 2.0 * 4.0); // birth X1
        assert_eq!(p[5], 3.0 * 4.0); // death X1
        assert_eq!(p[6], 0.5 * 40.0); // inter attacker X1
        assert_eq!(p[7], 2.0 * 6.0); // intra X1 (pairs = 6)
        let total: f64 = p.iter().sum();
        assert!((model.total_propensity(state) - total).abs() < 1e-12);
    }

    #[test]
    fn event_for_index_covers_all_eight_reactions() {
        use LvEvent::*;
        use SpeciesIndex::*;
        let expected = [
            Birth(Zero),
            Death(Zero),
            Interspecific { attacker: Zero },
            Intraspecific(Zero),
            Birth(One),
            Death(One),
            Interspecific { attacker: One },
            Intraspecific(One),
        ];
        for (i, e) in expected.iter().enumerate() {
            assert_eq!(LvModel::event_for_index(i), *e);
        }
    }

    #[test]
    fn named_constructors_set_expected_regimes() {
        let cho = LvModel::cho_et_al(1.0, 1.0);
        assert_eq!(cho.rates().delta, 0.0);
        assert_eq!(cho.kind(), CompetitionKind::SelfDestructive);

        let none = LvModel::no_competition(1.0, 1.0);
        assert!(none.rates().has_no_interspecific());
        assert!(none.rates().has_no_intraspecific());

        let intra = LvModel::intraspecific_only(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 2.0);
        assert!(intra.rates().has_no_interspecific());
        assert_eq!(intra.rates().gamma_total(), 2.0);

        let balanced_sd =
            LvModel::balanced_intra_inter(CompetitionKind::SelfDestructive, 1.0, 1.0, 2.0);
        assert_eq!(balanced_sd.rates().gamma_total(), 4.0);
        // Theorem 20's condition α = γ: per-species γ_i equals the total α.
        assert_eq!(
            balanced_sd.rates().gamma[0],
            balanced_sd.rates().alpha_total()
        );
        let balanced_nsd =
            LvModel::balanced_intra_inter(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 2.0);
        assert_eq!(balanced_nsd.rates().gamma_total(), 4.0);
        // Theorem 23's condition γ_i = 2α_i per species.
        assert_eq!(
            balanced_nsd.rates().gamma[0],
            2.0 * balanced_nsd.rates().alpha[0]
        );
    }

    #[test]
    fn dominating_chain_exists_only_without_intraspecific_competition() {
        assert!(LvModel::default().dominating_chain().is_some());
        assert!(LvModel::cho_et_al(1.0, 1.0).dominating_chain().is_some());
        assert!(LvModel::no_competition(1.0, 1.0)
            .dominating_chain()
            .is_none());
        assert!(
            LvModel::with_intraspecific(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0, 1.0)
                .dominating_chain()
                .is_none()
        );
    }

    #[test]
    fn dominating_chain_uses_paper_parameters() {
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let chain = model.dominating_chain().unwrap();
        assert_eq!(chain.theta(), 2.0);
        assert_eq!(chain.alpha(), 1.0);
        assert_eq!(chain.alpha_min(), 0.5);
    }

    #[test]
    fn reaction_network_matches_direct_propensities() {
        for kind in [
            CompetitionKind::SelfDestructive,
            CompetitionKind::NonSelfDestructive,
        ] {
            let model = LvModel::with_intraspecific(kind, 1.5, 0.5, 2.0, 1.0);
            let net = model.to_reaction_network().unwrap();
            for (a, b) in [(0u64, 0u64), (1, 1), (10, 4), (3, 17)] {
                let state = State::from(vec![a, b]);
                let from_network = lv_crn::total_propensity(&net, &state);
                let direct = model.total_propensity(LvConfiguration::new(a, b));
                assert!(
                    (from_network - direct).abs() < 1e-9,
                    "{kind:?} ({a},{b}): network {from_network} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn reaction_network_structure_reflects_competition_kind() {
        let sd = LvModel::default().to_reaction_network().unwrap();
        // Self-destructive interspecific reactions have no products.
        let sd_inter = sd
            .reactions()
            .iter()
            .find(|r| r.name().is_some_and(|n| n.contains("interspecific")))
            .unwrap();
        assert!(sd_inter.products().is_empty());

        let nsd = LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0)
            .to_reaction_network()
            .unwrap();
        let nsd_inter = nsd
            .reactions()
            .iter()
            .find(|r| r.name().is_some_and(|n| n.contains("interspecific")))
            .unwrap();
        assert_eq!(nsd_inter.products().len(), 1);
    }

    #[test]
    fn all_zero_rates_cannot_build_a_network() {
        let model = LvModel::new(
            CompetitionKind::SelfDestructive,
            LvRates {
                beta: 0.0,
                delta: 0.0,
                alpha: [0.0, 0.0],
                gamma: [0.0, 0.0],
            },
        );
        assert!(model.to_reaction_network().is_err());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn invalid_rates_are_rejected() {
        let _ = LvModel::new(
            CompetitionKind::SelfDestructive,
            LvRates {
                beta: -1.0,
                ..LvRates::default()
            },
        );
    }

    #[test]
    fn display_mentions_kind() {
        assert!(LvModel::default().to_string().contains("self-destructive"));
    }
}
