//! The string-keyed backend registry used for CLI and bench selection: one
//! static table with a row per built-in backend.

use crate::backend::Backend;
use crate::backends::{gillespie_direct, jump_chain, next_reaction, ode, tau_leaping};
use crate::protocol_backend::{
    annihilation_lv, approx_majority, approx_majority_agents, czyzowicz_lv, czyzowicz_lv_agents,
    czyzowicz_lv_bridged, czyzowicz_lv_k, czyzowicz_lv_k_bridged, exact_majority,
    exact_majority_agents,
};
use crate::report::RunReport;
use crate::scenario::Scenario;
use rand::rngs::StdRng;

/// How a backend executes, which fixes its capability flags.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Stochastic simulation of the model's Lotka–Volterra kinetics.
    Kinetics,
    /// The deterministic mean-field ODE of the model: ignores the RNG.
    MeanField,
    /// A protocol baseline on counts, many interactions per step (batched
    /// epochs, thinning windows or bridged blocks): ignores the model.
    BatchedProtocol,
    /// A protocol baseline on an agent list, one event at a time: ignores
    /// the model.
    AgentProtocol,
}

/// One built-in backend: its registry metadata and the fn that runs it,
/// called with the row's name.
struct BackendRow {
    name: &'static str,
    aliases: &'static [&'static str],
    description: &'static str,
    /// Whether it runs any `k ≥ 2` species, not only two.
    k_species: bool,
    family: Family,
    run: fn(&'static str, &Scenario, &mut StdRng) -> RunReport,
}

impl Backend for BackendRow {
    fn name(&self) -> &'static str {
        self.name
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.aliases
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn deterministic(&self) -> bool {
        self.family == Family::MeanField
    }

    fn supports_species(&self, species: usize) -> bool {
        if self.k_species {
            species >= 2
        } else {
            species == 2
        }
    }

    fn models_kinetics(&self) -> bool {
        matches!(self.family, Family::Kinetics | Family::MeanField)
    }

    fn batched(&self) -> bool {
        self.family == Family::BatchedProtocol
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        (self.run)(self.name, scenario, rng)
    }
}

/// The built-in backends, in registry order: the five Lotka–Volterra
/// kernels, the count-based protocol baselines, the diffusion-bridged
/// conversion backends and the bit-exact agent-list legacy variants.
static BACKENDS: [BackendRow; 15] = [
    BackendRow {
        name: "jump-chain",
        aliases: &["jump", "exact"],
        description: "exact embedded jump chain (specialised two-species fast path; CRN chain for k > 2)",
        k_species: true,
        family: Family::Kinetics,
        run: jump_chain,
    },
    BackendRow {
        name: "gillespie-direct",
        aliases: &["direct", "gillespie", "ssa"],
        description: "exact continuous-time Gillespie direct method on the generic CRN",
        k_species: true,
        family: Family::Kinetics,
        run: gillespie_direct,
    },
    BackendRow {
        name: "next-reaction",
        aliases: &["nrm"],
        description: "exact continuous-time next-reaction method (independent exponential clocks)",
        k_species: true,
        family: Family::Kinetics,
        run: next_reaction,
    },
    BackendRow {
        name: "tau-leaping",
        aliases: &["tau"],
        description: "approximate tau-leaping (Poisson leaps, rejection near boundaries)",
        k_species: true,
        family: Family::Kinetics,
        run: tau_leaping,
    },
    BackendRow {
        name: "ode",
        aliases: &["deterministic", "mean-field"],
        description: "deterministic mean-field ODE (Eq. 4, k-species) via adaptive-step RK4 (capped at the scenario's ode_step); ignores the RNG",
        k_species: true,
        family: Family::MeanField,
        run: ode,
    },
    BackendRow {
        name: "approx-majority",
        aliases: &["am", "3-state"],
        description: "3-state approximate-majority protocol baseline (two-species, batched counts)",
        k_species: false,
        family: Family::BatchedProtocol,
        run: approx_majority,
    },
    BackendRow {
        name: "exact-majority",
        aliases: &["em", "4-state"],
        description: "4-state exact-majority protocol baseline (always correct, ~n^2 interactions, batched)",
        k_species: false,
        family: Family::BatchedProtocol,
        run: exact_majority,
    },
    BackendRow {
        name: "czyzowicz-lv",
        aliases: &["cz", "2-state-lv"],
        description: "2-state Czyzowicz et al. discrete LV baseline (proportional law, linear gap, exact thinning windows)",
        k_species: false,
        family: Family::BatchedProtocol,
        run: czyzowicz_lv,
    },
    BackendRow {
        name: "annihilation-lv",
        aliases: &["sd-lv", "annihilation"],
        description: "self-destructive discrete LV baseline (gap-invariant annihilation, batched)",
        k_species: false,
        family: Family::BatchedProtocol,
        run: annihilation_lv,
    },
    BackendRow {
        name: "czyzowicz-lv-k",
        aliases: &["cz-k", "k-opinion-lv"],
        description: "k-opinion Czyzowicz conversion dynamics (k-species proportional law, exact thinning windows)",
        k_species: true,
        family: Family::BatchedProtocol,
        run: czyzowicz_lv_k,
    },
    BackendRow {
        name: "czyzowicz-lv-bridged",
        aliases: &["cz-bridged"],
        description: "2-state Czyzowicz baseline via diffusion-bridged first-passage sampling (polylog/trial)",
        k_species: false,
        family: Family::BatchedProtocol,
        run: czyzowicz_lv_bridged,
    },
    BackendRow {
        name: "czyzowicz-lv-k-bridged",
        aliases: &["cz-k-bridged"],
        description: "k-opinion Czyzowicz dynamics via per-pair diffusion bridging (polylog/trial)",
        k_species: true,
        family: Family::BatchedProtocol,
        run: czyzowicz_lv_k_bridged,
    },
    BackendRow {
        name: "approx-majority-agents",
        aliases: &["am-agents"],
        description: "3-state approximate-majority baseline, per-interaction agent list (bit-exact legacy)",
        k_species: false,
        family: Family::AgentProtocol,
        run: approx_majority_agents,
    },
    BackendRow {
        name: "exact-majority-agents",
        aliases: &["em-agents"],
        description: "4-state exact-majority baseline, per-interaction agent list (bit-exact legacy)",
        k_species: false,
        family: Family::AgentProtocol,
        run: exact_majority_agents,
    },
    BackendRow {
        name: "czyzowicz-lv-agents",
        aliases: &["cz-agents"],
        description: "2-state Czyzowicz et al. baseline, per-interaction agent list (bit-exact legacy)",
        k_species: false,
        family: Family::AgentProtocol,
        run: czyzowicz_lv_agents,
    },
];

/// The built-in [`Backend`]s, addressable by name or alias.
///
/// The process-wide [`BackendRegistry::global`] holds the fifteen built-ins:
/// five Lotka–Volterra kernels, five count-based protocol baselines (three
/// in batched epochs, the conversion dynamics `"czyzowicz-lv"` and
/// `"czyzowicz-lv-k"` in exact thinning windows), the
/// two diffusion-bridged conversion backends (`"czyzowicz-lv-bridged"` and
/// `"czyzowicz-lv-k-bridged"`), and the bit-exact agent-list legacy variants
/// of the original three protocol baselines (`-agents` names —
/// [`Backend::batched`] reports which mode a backend uses).
///
/// ```
/// use lv_engine::BackendRegistry;
///
/// let registry = BackendRegistry::global();
/// assert_eq!(registry.names().len(), 15);
/// assert!(registry.get("gillespie-direct").is_some());
/// // Aliases resolve to the same backend.
/// assert_eq!(
///     registry.get("ssa").unwrap().name(),
///     "gillespie-direct"
/// );
/// // Batched vs agent-list protocol execution is a reported capability.
/// assert!(registry.get("approx-majority").unwrap().batched());
/// assert!(!registry.get("approx-majority-agents").unwrap().batched());
/// ```
pub struct BackendRegistry {
    rows: &'static [BackendRow],
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl BackendRegistry {
    /// The process-wide registry of built-in backends.
    pub fn global() -> &'static BackendRegistry {
        static REGISTRY: BackendRegistry = BackendRegistry { rows: &BACKENDS };
        &REGISTRY
    }

    /// Canonical names of every backend, in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.rows.iter().map(|row| row.name).collect()
    }

    /// Looks a backend up by canonical name or alias (case-sensitive).
    pub fn get(&self, name: &str) -> Option<&dyn Backend> {
        self.rows
            .iter()
            .find(|row| row.name == name || row.aliases.contains(&name))
            .map(|row| row as &dyn Backend)
    }

    /// Iterates over the backends in registry order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Backend> {
        self.rows.iter().map(|row| row as &dyn Backend)
    }

    /// Iterates over the backends that can run `species`-species scenarios
    /// (see [`Backend::supports_species`]).
    pub fn iter_supporting(&self, species: usize) -> impl Iterator<Item = &dyn Backend> {
        self.iter().filter(move |b| b.supports_species(species))
    }
}

/// Shorthand for [`BackendRegistry::global`]`().get(name)`.
pub fn backend(name: &str) -> Option<&'static dyn Backend> {
    BackendRegistry::global().get(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_holds_all_builtin_backends() {
        let names = BackendRegistry::global().names();
        assert_eq!(
            names,
            vec![
                "jump-chain",
                "gillespie-direct",
                "next-reaction",
                "tau-leaping",
                "ode",
                "approx-majority",
                "exact-majority",
                "czyzowicz-lv",
                "annihilation-lv",
                "czyzowicz-lv-k",
                "czyzowicz-lv-bridged",
                "czyzowicz-lv-k-bridged",
                "approx-majority-agents",
                "exact-majority-agents",
                "czyzowicz-lv-agents"
            ]
        );
        for name in names {
            assert!(backend(name).is_some(), "missing backend {name}");
        }
    }

    #[test]
    fn aliases_resolve_and_unknown_names_do_not() {
        assert_eq!(backend("exact").unwrap().name(), "jump-chain");
        assert_eq!(backend("tau").unwrap().name(), "tau-leaping");
        assert_eq!(backend("mean-field").unwrap().name(), "ode");
        assert_eq!(backend("am").unwrap().name(), "approx-majority");
        assert_eq!(backend("em").unwrap().name(), "exact-majority");
        assert_eq!(backend("4-state").unwrap().name(), "exact-majority");
        assert_eq!(backend("cz").unwrap().name(), "czyzowicz-lv");
        assert_eq!(backend("2-state-lv").unwrap().name(), "czyzowicz-lv");
        assert_eq!(backend("sd-lv").unwrap().name(), "annihilation-lv");
        assert_eq!(backend("cz-k").unwrap().name(), "czyzowicz-lv-k");
        assert_eq!(backend("k-opinion-lv").unwrap().name(), "czyzowicz-lv-k");
        assert_eq!(
            backend("cz-bridged").unwrap().name(),
            "czyzowicz-lv-bridged"
        );
        assert_eq!(
            backend("cz-k-bridged").unwrap().name(),
            "czyzowicz-lv-k-bridged"
        );
        assert_eq!(
            backend("am-agents").unwrap().name(),
            "approx-majority-agents"
        );
        assert_eq!(
            backend("em-agents").unwrap().name(),
            "exact-majority-agents"
        );
        assert_eq!(backend("cz-agents").unwrap().name(), "czyzowicz-lv-agents");
        assert!(backend("does-not-exist").is_none());
    }

    #[test]
    fn descriptions_are_nonempty() {
        for backend in BackendRegistry::global().iter() {
            assert!(!backend.description().is_empty(), "{}", backend.name());
        }
    }

    #[test]
    fn every_row_keeps_its_name_aliases_and_flags() {
        // (name, aliases, deterministic, models_kinetics, batched,
        //  supports 2 species, supports 3 species), in registry order.
        #[rustfmt::skip]
        type Row = (&'static str, &'static [&'static str], bool, bool, bool, bool, bool);
        #[rustfmt::skip]
        let expected: [Row; 15] = [
            ("jump-chain", &["jump", "exact"], false, true, false, true, true),
            ("gillespie-direct", &["direct", "gillespie", "ssa"], false, true, false, true, true),
            ("next-reaction", &["nrm"], false, true, false, true, true),
            ("tau-leaping", &["tau"], false, true, false, true, true),
            ("ode", &["deterministic", "mean-field"], true, true, false, true, true),
            ("approx-majority", &["am", "3-state"], false, false, true, true, false),
            ("exact-majority", &["em", "4-state"], false, false, true, true, false),
            ("czyzowicz-lv", &["cz", "2-state-lv"], false, false, true, true, false),
            ("annihilation-lv", &["sd-lv", "annihilation"], false, false, true, true, false),
            ("czyzowicz-lv-k", &["cz-k", "k-opinion-lv"], false, false, true, true, true),
            ("czyzowicz-lv-bridged", &["cz-bridged"], false, false, true, true, false),
            ("czyzowicz-lv-k-bridged", &["cz-k-bridged"], false, false, true, true, true),
            ("approx-majority-agents", &["am-agents"], false, false, false, true, false),
            ("exact-majority-agents", &["em-agents"], false, false, false, true, false),
            ("czyzowicz-lv-agents", &["cz-agents"], false, false, false, true, false),
        ];
        let actual: Vec<Row> = BackendRegistry::global()
            .iter()
            .map(|b| {
                (
                    b.name(),
                    b.aliases(),
                    b.deterministic(),
                    b.models_kinetics(),
                    b.batched(),
                    b.supports_species(2),
                    b.supports_species(3),
                )
            })
            .collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn iter_supporting_filters_by_species_count() {
        let registry = BackendRegistry::global();
        let all: Vec<_> = registry.iter_supporting(2).map(|b| b.name()).collect();
        assert_eq!(all.len(), 15);
        let k3: Vec<_> = registry.iter_supporting(3).map(|b| b.name()).collect();
        assert_eq!(
            k3,
            vec![
                "jump-chain",
                "gillespie-direct",
                "next-reaction",
                "tau-leaping",
                "ode",
                "czyzowicz-lv-k",
                "czyzowicz-lv-k-bridged"
            ]
        );
    }

    #[test]
    fn batched_capability_is_reported_per_backend() {
        let registry = BackendRegistry::global();
        let batched: Vec<_> = registry
            .iter()
            .filter(|b| b.batched())
            .map(|b| b.name())
            .collect();
        assert_eq!(
            batched,
            vec![
                "approx-majority",
                "exact-majority",
                "czyzowicz-lv",
                "annihilation-lv",
                "czyzowicz-lv-k",
                "czyzowicz-lv-bridged",
                "czyzowicz-lv-k-bridged"
            ]
        );
        // The LV kernels and the legacy agent-list baselines resolve every
        // event individually.
        for name in ["jump-chain", "ode", "approx-majority-agents"] {
            assert!(!registry.get(name).unwrap().batched(), "{name}");
        }
    }

    /// The table is static, so a duplicate name is rejected here rather
    /// than at run time: `get` would silently resolve the first row.
    #[test]
    fn duplicate_names_are_rejected() {
        let mut names: Vec<&str> = BACKENDS.iter().map(|row| row.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BACKENDS.len(), "a backend name is used twice");
    }

    /// No alias may repeat another alias or shadow any row's name, in
    /// either direction.
    #[test]
    fn duplicate_aliases_are_rejected_both_ways() {
        for row in &BACKENDS {
            for alias in row.aliases {
                let holders: Vec<&str> = BACKENDS
                    .iter()
                    .filter(|other| other.name == *alias || other.aliases.contains(alias))
                    .map(|other| other.name)
                    .collect();
                assert_eq!(holders, vec![row.name], "alias {alias:?} collides");
            }
        }
    }
}
