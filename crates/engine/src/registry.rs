//! The string-keyed backend registry used for CLI and bench selection: one
//! static table with a row per built-in backend.

use crate::backend::Backend;
use crate::backends::{gillespie_direct, jump_chain, ode, tau_leaping};
use crate::protocol_backend::{
    annihilation_lv, approx_majority, czyzowicz_lv, czyzowicz_lv_bridged, exact_majority,
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
}

/// One built-in backend: its registry metadata and the fn that runs it,
/// called with the row's name. One row per law: a name that once had a row
/// of its own but runs the same law as another (an agent-list stepper, a
/// `k`-species twin, a second exact clock) is an alias of that row.
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

/// The built-in backends, in registry order: the four Lotka–Volterra
/// kernels, the count-based protocol baselines and the diffusion-bridged
/// conversion backend.
static BACKENDS: [BackendRow; 9] = [
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
        aliases: &["direct", "gillespie", "ssa", "next-reaction", "nrm"],
        description: "exact continuous-time Gillespie direct method on the generic CRN",
        k_species: true,
        family: Family::Kinetics,
        run: gillespie_direct,
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
        description: "deterministic mean-field ODE (Eq. 4, k-species) via adaptive-step RK4 (steps capped at 0.5); ignores the RNG",
        k_species: true,
        family: Family::MeanField,
        run: ode,
    },
    BackendRow {
        name: "approx-majority",
        aliases: &["am", "3-state", "approx-majority-agents", "am-agents"],
        description: "3-state approximate-majority protocol baseline (two-species, batched counts)",
        k_species: false,
        family: Family::BatchedProtocol,
        run: approx_majority,
    },
    BackendRow {
        name: "exact-majority",
        aliases: &["em", "4-state", "exact-majority-agents", "em-agents"],
        description: "4-state exact-majority protocol baseline (always correct, ~n^2 interactions, batched)",
        k_species: false,
        family: Family::BatchedProtocol,
        run: exact_majority,
    },
    BackendRow {
        name: "czyzowicz-lv",
        aliases: &[
            "cz",
            "2-state-lv",
            "czyzowicz-lv-k",
            "cz-k",
            "k-opinion-lv",
            "czyzowicz-lv-agents",
            "cz-agents",
        ],
        description: "Czyzowicz et al. discrete LV conversion dynamics over k >= 2 opinions (proportional law, linear gap, exact thinning windows)",
        k_species: true,
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
        name: "czyzowicz-lv-bridged",
        aliases: &["cz-bridged", "czyzowicz-lv-k-bridged", "cz-k-bridged"],
        description: "Czyzowicz conversion dynamics over k >= 2 opinions via diffusion-bridged first-passage sampling (polylog/trial)",
        k_species: true,
        family: Family::BatchedProtocol,
        run: czyzowicz_lv_bridged,
    },
];

/// The built-in [`Backend`]s, addressable by name or alias.
///
/// The process-wide [`BackendRegistry::global`] holds nine built-ins, one
/// per law: four Lotka–Volterra kernels, four count-based protocol
/// baselines (three in batched epochs, the conversion dynamics
/// `"czyzowicz-lv"` over any `k ≥ 2` opinions in exact thinning windows)
/// and the diffusion-bridged conversion backend `"czyzowicz-lv-bridged"`.
/// Names retired by a merge stay aliases of the row with the same law, so
/// `"next-reaction"` runs `"gillespie-direct"`, `"czyzowicz-lv-k"` runs
/// `"czyzowicz-lv"` and the `-agents` names run the batched rows.
///
/// ```
/// use lv_engine::BackendRegistry;
///
/// let registry = BackendRegistry::global();
/// assert_eq!(registry.names().len(), 9);
/// assert!(registry.get("gillespie-direct").is_some());
/// // Aliases resolve to the same backend.
/// assert_eq!(
///     registry.get("ssa").unwrap().name(),
///     "gillespie-direct"
/// );
/// // Retired names resolve to the row with the same law.
/// assert_eq!(
///     registry.get("czyzowicz-lv-k").unwrap().name(),
///     "czyzowicz-lv"
/// );
/// assert!(registry.get("approx-majority-agents").unwrap().batched());
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
                "tau-leaping",
                "ode",
                "approx-majority",
                "exact-majority",
                "czyzowicz-lv",
                "annihilation-lv",
                "czyzowicz-lv-bridged"
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
        assert_eq!(backend("cz-k").unwrap().name(), "czyzowicz-lv");
        assert_eq!(backend("k-opinion-lv").unwrap().name(), "czyzowicz-lv");
        assert_eq!(
            backend("cz-bridged").unwrap().name(),
            "czyzowicz-lv-bridged"
        );
        assert_eq!(
            backend("cz-k-bridged").unwrap().name(),
            "czyzowicz-lv-bridged"
        );
        assert_eq!(backend("am-agents").unwrap().name(), "approx-majority");
        assert_eq!(backend("em-agents").unwrap().name(), "exact-majority");
        assert_eq!(backend("cz-agents").unwrap().name(), "czyzowicz-lv");
        assert_eq!(backend("nrm").unwrap().name(), "gillespie-direct");
        assert!(backend("does-not-exist").is_none());
    }

    /// Every canonical name the registry had before the rows were merged
    /// still resolves, to the row that runs the same law.
    #[test]
    fn retired_canonical_names_resolve_to_their_same_law_rows() {
        let retired = [
            ("jump-chain", "jump-chain"),
            ("gillespie-direct", "gillespie-direct"),
            ("next-reaction", "gillespie-direct"),
            ("tau-leaping", "tau-leaping"),
            ("ode", "ode"),
            ("approx-majority", "approx-majority"),
            ("exact-majority", "exact-majority"),
            ("czyzowicz-lv", "czyzowicz-lv"),
            ("annihilation-lv", "annihilation-lv"),
            ("czyzowicz-lv-k", "czyzowicz-lv"),
            ("czyzowicz-lv-bridged", "czyzowicz-lv-bridged"),
            ("czyzowicz-lv-k-bridged", "czyzowicz-lv-bridged"),
            ("approx-majority-agents", "approx-majority"),
            ("exact-majority-agents", "exact-majority"),
            ("czyzowicz-lv-agents", "czyzowicz-lv"),
        ];
        for (old, row) in retired {
            assert_eq!(backend(old).map(|b| b.name()), Some(row), "{old}");
        }
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
        let expected: [Row; 9] = [
            ("jump-chain", &["jump", "exact"], false, true, false, true, true),
            ("gillespie-direct", &["direct", "gillespie", "ssa", "next-reaction", "nrm"], false, true, false, true, true),
            ("tau-leaping", &["tau"], false, true, false, true, true),
            ("ode", &["deterministic", "mean-field"], true, true, false, true, true),
            ("approx-majority", &["am", "3-state", "approx-majority-agents", "am-agents"], false, false, true, true, false),
            ("exact-majority", &["em", "4-state", "exact-majority-agents", "em-agents"], false, false, true, true, false),
            ("czyzowicz-lv", &["cz", "2-state-lv", "czyzowicz-lv-k", "cz-k", "k-opinion-lv", "czyzowicz-lv-agents", "cz-agents"], false, false, true, true, true),
            ("annihilation-lv", &["sd-lv", "annihilation"], false, false, true, true, false),
            ("czyzowicz-lv-bridged", &["cz-bridged", "czyzowicz-lv-k-bridged", "cz-k-bridged"], false, false, true, true, true),
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
        assert_eq!(all.len(), 9);
        let k3: Vec<_> = registry.iter_supporting(3).map(|b| b.name()).collect();
        assert_eq!(
            k3,
            vec![
                "jump-chain",
                "gillespie-direct",
                "tau-leaping",
                "ode",
                "czyzowicz-lv",
                "czyzowicz-lv-bridged"
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
                "czyzowicz-lv-bridged"
            ]
        );
        // The LV kernels resolve every event individually.
        for name in ["jump-chain", "gillespie-direct", "ode"] {
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
