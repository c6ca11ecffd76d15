//! The threshold-surface memo: `(fingerprint, n, gap) → (successes, trials)`
//! Wilson posteriors.
//!
//! Cells only ever *accumulate* — a refresh appends trials to the existing
//! RNG stream (the executor resumes at trial index `trials`), never
//! restarts it — so the posterior at any moment is exactly what a single
//! uninterrupted run of `trials` trials would have produced. Off-lattice
//! queries are answered by bilinear interpolation between probed lattice
//! cells with honestly widened intervals. The whole surface serializes to
//! a JSON snapshot for `--cache-snapshot` warm starts.

use crate::spec::{fingerprint_hex, ScenarioSpec};
use lv_engine::wilson;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One cell's accumulated tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CellStats {
    /// Trials in which the initial leader won.
    pub successes: u64,
    /// Total trials banked.
    pub trials: u64,
}

impl CellStats {
    /// The point estimate (½ over the empty cell).
    pub fn point(&self) -> f64 {
        if self.trials == 0 {
            0.5
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// The Wilson 95% half-width (`∞` over the empty cell).
    pub fn half_width(&self, z: f64) -> f64 {
        wilson::half_width(self.successes, self.trials, z)
    }
}

/// All cells sharing one model fingerprint.
#[derive(Debug, Clone)]
struct SurfaceEntry {
    spec: ScenarioSpec,
    cells: BTreeMap<(u64, u64), CellStats>,
}

/// An off-lattice answer interpolated from probed neighbours.
#[derive(Debug, Clone, PartialEq)]
pub struct Interpolated {
    /// Bilinearly interpolated point estimate.
    pub point: f64,
    /// Honest widened half-width: the widest corner interval plus half the
    /// spread of the corner point estimates.
    pub half_width: f64,
    /// The `(n, gap)` lattice cells the answer was interpolated from.
    pub corners: Vec<(u64, u64)>,
}

/// The memoized threshold surface.
///
/// Entries live in a `BTreeMap` so iteration — and with it snapshot
/// serialization — is ordered by fingerprint: two snapshots of surfaces
/// holding the same cells are byte-identical regardless of the order the
/// cells were banked in.
#[derive(Debug, Default)]
pub struct ThresholdSurface {
    entries: BTreeMap<u64, SurfaceEntry>,
}

/// A serializable snapshot of the whole surface (satellite of the
/// `--cache-snapshot` flag).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfaceSnapshot {
    /// The writing build's schema version.
    pub schema_version: u32,
    /// One record per fingerprint.
    pub entries: Vec<SnapshotEntry>,
}

/// One fingerprint's worth of snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotEntry {
    /// The fingerprint (hex), for human cross-referencing; restore
    /// recomputes it from `spec` and skips records that disagree.
    pub fingerprint: String,
    /// The scenario specification the cells were measured under.
    pub spec: ScenarioSpec,
    /// The probed cells.
    pub cells: Vec<SnapshotCell>,
}

/// One cell of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotCell {
    /// Population of the cell.
    pub n: u64,
    /// Gap of the cell.
    pub gap: u64,
    /// Successes banked.
    pub successes: u64,
    /// Trials banked.
    pub trials: u64,
}

impl ThresholdSurface {
    /// An empty surface.
    pub fn new() -> Self {
        ThresholdSurface::default()
    }

    /// The tally of one cell, if probed.
    pub fn cell(&self, fingerprint: u64, n: u64, gap: u64) -> Option<CellStats> {
        self.entries
            .get(&fingerprint)?
            .cells
            .get(&(n, gap))
            .copied()
    }

    /// Banks `add_successes / add_trials` fresh trials into a cell,
    /// returning the cell's updated tally (so callers need no follow-up
    /// `cell()` lookup that would force them to handle an impossible
    /// `None`).
    pub fn record(
        &mut self,
        fingerprint: u64,
        spec: &ScenarioSpec,
        n: u64,
        gap: u64,
        add_successes: u64,
        add_trials: u64,
    ) -> CellStats {
        let entry = self
            .entries
            .entry(fingerprint)
            .or_insert_with(|| SurfaceEntry {
                spec: spec.clone(),
                cells: BTreeMap::new(),
            });
        let cell = entry.cells.entry((n, gap)).or_default();
        cell.successes += add_successes;
        cell.trials += add_trials;
        *cell
    }

    /// Number of distinct fingerprints.
    pub fn entry_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Number of distinct cells across all fingerprints.
    pub fn cell_count(&self) -> u64 {
        self.entries.values().map(|e| e.cells.len() as u64).sum()
    }

    /// Total trials banked across all cells.
    pub fn total_trials(&self) -> u64 {
        self.entries
            .values()
            .flat_map(|e| e.cells.values())
            .map(|c| c.trials)
            .sum()
    }

    /// Interpolates an off-lattice `(n, gap)` from probed neighbours:
    /// linear in `gap` within each bracketing population, then linear in
    /// `n` across them. Returns `None` when the query is not bracketed by
    /// probed cells on every side (the cache never extrapolates).
    pub fn interpolate(&self, fingerprint: u64, n: u64, gap: u64, z: f64) -> Option<Interpolated> {
        let entry = self.entries.get(&fingerprint)?;
        let mut ns: Vec<u64> = entry.cells.keys().map(|&(cn, _)| cn).collect();
        ns.dedup();
        let n_lo = ns.iter().copied().filter(|&cn| cn <= n).max()?;
        let n_hi = ns.iter().copied().filter(|&cn| cn >= n).min()?;

        let line_lo = gap_line(entry, n_lo, gap)?;
        // A probed `n` is its own bracket: one line, each corner once.
        let (point, corners) = if n_hi == n_lo {
            (line_lo.point, line_lo.corners)
        } else {
            let line_hi = gap_line(entry, n_hi, gap)?;
            let u = (n - n_lo) as f64 / (n_hi - n_lo) as f64;
            let mut corners = line_lo.corners;
            corners.extend(line_hi.corners);
            (line_lo.point * (1.0 - u) + line_hi.point * u, corners)
        };
        let corner_stats: Vec<CellStats> = corners.iter().map(|&key| entry.cells[&key]).collect();
        let widest = corner_stats
            .iter()
            .map(|c| c.half_width(z))
            .fold(0.0f64, f64::max);
        let points: Vec<f64> = corner_stats.iter().map(|c| c.point()).collect();
        let spread = points.iter().copied().fold(f64::MIN, f64::max)
            - points.iter().copied().fold(f64::MAX, f64::min);
        Some(Interpolated {
            point,
            half_width: widest + spread / 2.0,
            corners,
        })
    }

    /// Serializes the whole surface. Entry and cell order both come from
    /// ordered maps, so equal surfaces serialize to equal bytes.
    pub fn snapshot(&self, schema_version: u32) -> SurfaceSnapshot {
        SurfaceSnapshot {
            schema_version,
            entries: self
                .entries
                .iter()
                .map(|(&fp, entry)| SnapshotEntry {
                    fingerprint: fingerprint_hex(fp),
                    spec: entry.spec.clone(),
                    cells: entry
                        .cells
                        .iter()
                        .map(|(&(n, gap), cell)| SnapshotCell {
                            n,
                            gap,
                            successes: cell.successes,
                            trials: cell.trials,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Rebuilds a surface from a snapshot, recomputing fingerprints from
    /// the stored specs and dropping records whose stored fingerprint
    /// disagrees (a stale or tampered file warms nothing, silently breaking
    /// nothing). Entries the service could never hit are dropped the same
    /// way: those whose spec [`ScenarioSpec::validated`] rejects or rewrites
    /// (an unknown or retired backend name, an invalid model), which would
    /// otherwise be saved again with every snapshot.
    pub fn restore(snapshot: &SurfaceSnapshot) -> Self {
        let mut surface = ThresholdSurface::new();
        for entry in &snapshot.entries {
            if entry.spec.clone().validated().as_ref() != Ok(&entry.spec) {
                continue;
            }
            let fingerprint = entry.spec.fingerprint();
            if fingerprint_hex(fingerprint) != entry.fingerprint {
                continue;
            }
            for cell in &entry.cells {
                if cell.successes > cell.trials {
                    continue;
                }
                surface.record(
                    fingerprint,
                    &entry.spec,
                    cell.n,
                    cell.gap,
                    cell.successes,
                    cell.trials,
                );
            }
        }
        surface
    }
}

/// Linear interpolation along the gap axis at one probed population.
struct GapLine {
    point: f64,
    corners: Vec<(u64, u64)>,
}

fn gap_line(entry: &SurfaceEntry, n: u64, gap: u64) -> Option<GapLine> {
    let row: Vec<(u64, CellStats)> = entry
        .cells
        .range((n, 0)..=(n, u64::MAX))
        .map(|(&(_, g), &cell)| (g, cell))
        .collect();
    if let Some(&(g, _)) = row.iter().find(|&&(g, _)| g == gap) {
        return Some(GapLine {
            point: entry.cells[&(n, g)].point(),
            corners: vec![(n, g)],
        });
    }
    let (g_lo, lo) = row.iter().rfind(|&&(g, _)| g <= gap).copied()?;
    let (g_hi, hi) = row.iter().find(|&&(g, _)| g >= gap).copied()?;
    let w = (gap - g_lo) as f64 / (g_hi - g_lo) as f64;
    Some(GapLine {
        point: lo.point() * (1.0 - w) + hi.point() * w,
        corners: vec![(n, g_lo), (n, g_hi)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_engine::wilson::Z95;
    use lv_lotka::{CompetitionKind, LvModel};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::two_species(
            LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
            "jump-chain",
        )
    }

    #[test]
    fn recording_accumulates() {
        let mut surface = ThresholdSurface::new();
        let fp = spec().fingerprint();
        surface.record(fp, &spec(), 100, 4, 10, 16);
        surface.record(fp, &spec(), 100, 4, 5, 8);
        let cell = surface.cell(fp, 100, 4).unwrap();
        assert_eq!(cell.successes, 15);
        assert_eq!(cell.trials, 24);
        assert_eq!(surface.entry_count(), 1);
        assert_eq!(surface.cell_count(), 1);
        assert_eq!(surface.total_trials(), 24);
        assert!(surface.cell(fp, 100, 6).is_none());
    }

    #[test]
    fn snapshots_round_trip_through_json() {
        let mut surface = ThresholdSurface::new();
        let fp = spec().fingerprint();
        surface.record(fp, &spec(), 100, 4, 10, 16);
        surface.record(fp, &spec(), 200, 8, 30, 32);
        let snapshot = surface.snapshot(1);
        let text = serde::json::to_string(&snapshot);
        let back: SurfaceSnapshot = serde::json::from_str(&text).unwrap();
        assert_eq!(back, snapshot);
        let restored = ThresholdSurface::restore(&back);
        assert_eq!(restored.cell(fp, 100, 4), surface.cell(fp, 100, 4));
        assert_eq!(restored.cell(fp, 200, 8), surface.cell(fp, 200, 8));
        assert_eq!(restored.total_trials(), 48);
    }

    #[test]
    fn snapshot_bytes_are_insertion_order_independent() {
        let spec_a = spec();
        let spec_b = ScenarioSpec::two_species(
            LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
            "gillespie-direct",
        );
        let (fp_a, fp_b) = (spec_a.fingerprint(), spec_b.fingerprint());
        let cells: Vec<(u64, &ScenarioSpec, u64, u64, u64, u64)> = vec![
            (fp_a, &spec_a, 100, 4, 10, 16),
            (fp_a, &spec_a, 200, 8, 30, 32),
            (fp_b, &spec_b, 100, 4, 7, 16),
            (fp_b, &spec_b, 400, 2, 1, 4),
        ];
        let mut forward = ThresholdSurface::new();
        for &(fp, spec, n, gap, s, t) in &cells {
            forward.record(fp, spec, n, gap, s, t);
        }
        let mut reverse = ThresholdSurface::new();
        for &(fp, spec, n, gap, s, t) in cells.iter().rev() {
            reverse.record(fp, spec, n, gap, s, t);
        }
        let bytes_forward = serde::json::to_string(&forward.snapshot(1));
        let bytes_reverse = serde::json::to_string(&reverse.snapshot(1));
        assert_eq!(
            bytes_forward, bytes_reverse,
            "snapshot bytes depend on insertion order"
        );
        // And two writes of the *same* surface are byte-identical too.
        assert_eq!(bytes_forward, serde::json::to_string(&forward.snapshot(1)));
    }

    #[test]
    fn record_returns_the_updated_tally() {
        let mut surface = ThresholdSurface::new();
        let fp = spec().fingerprint();
        assert_eq!(
            surface.record(fp, &spec(), 100, 4, 10, 16),
            CellStats {
                successes: 10,
                trials: 16
            }
        );
        assert_eq!(
            surface.record(fp, &spec(), 100, 4, 5, 8),
            CellStats {
                successes: 15,
                trials: 24
            }
        );
    }

    #[test]
    fn restore_drops_mismatched_fingerprints_and_corrupt_cells() {
        let mut surface = ThresholdSurface::new();
        let fp = spec().fingerprint();
        surface.record(fp, &spec(), 100, 4, 10, 16);
        let mut snapshot = surface.snapshot(1);
        snapshot.entries[0].cells.push(SnapshotCell {
            n: 50,
            gap: 2,
            successes: 99,
            trials: 1,
        });
        let restored = ThresholdSurface::restore(&snapshot);
        assert!(restored.cell(fp, 50, 2).is_none(), "corrupt cell kept");
        snapshot.entries[0].fingerprint = "feedfeedfeedfeed".to_string();
        assert_eq!(ThresholdSurface::restore(&snapshot).entry_count(), 0);
    }

    #[test]
    fn restore_drops_entries_whose_spec_validation_rejects_or_rewrites() {
        let retired = ScenarioSpec {
            backend: "czyzowicz-lv-k".to_string(),
            ..spec()
        };
        let unknown = ScenarioSpec {
            backend: "no-such-backend".to_string(),
            ..spec()
        };
        let text = serde::json::to_string(&spec()).replace("1.0", "-1.0");
        let invalid: ScenarioSpec = serde::json::from_str(&text).unwrap();
        assert!(invalid.clone().validated().is_err());
        let mut surface = ThresholdSurface::new();
        for stale in [&retired, &unknown, &invalid] {
            // Each entry carries the fingerprint of its own stored spec, so
            // only the validation check can drop it.
            surface.record(stale.fingerprint(), stale, 100, 4, 10, 16);
        }
        surface.record(spec().fingerprint(), &spec(), 100, 4, 10, 16);
        let restored = ThresholdSurface::restore(&surface.snapshot(1));
        assert_eq!(restored.entry_count(), 1);
        assert!(restored.cell(spec().fingerprint(), 100, 4).is_some());
        for stale in [&retired, &unknown, &invalid] {
            assert!(restored.cell(stale.fingerprint(), 100, 4).is_none());
        }
    }

    #[test]
    fn interpolation_brackets_and_widens() {
        let mut surface = ThresholdSurface::new();
        let fp = spec().fingerprint();
        // Corners: success probabilities 0.2 (gap 4) and 0.8 (gap 8) at
        // both n = 100 and n = 200, from 1000 trials each.
        for n in [100u64, 200] {
            surface.record(fp, &spec(), n, 4, 200, 1000);
            surface.record(fp, &spec(), n, 8, 800, 1000);
        }
        let mid = surface.interpolate(fp, 150, 6, Z95).unwrap();
        assert!((mid.point - 0.5).abs() < 1e-12, "point {}", mid.point);
        assert_eq!(mid.corners.len(), 4);
        let corner_hw = wilson::half_width(200, 1000, Z95);
        assert!(
            mid.half_width >= corner_hw + 0.29,
            "interval must be widened by the corner spread, got {}",
            mid.half_width
        );
        // Exact-cell queries interpolate to the cell itself.
        let exact = surface.interpolate(fp, 100, 4, Z95).unwrap();
        assert!((exact.point - 0.2).abs() < 1e-12);
        assert_eq!(exact.corners, vec![(100, 4)]);
        // A probed population between two probed gaps lists each corner once.
        let on_row = surface.interpolate(fp, 100, 6, Z95).unwrap();
        assert!((on_row.point - 0.5).abs() < 1e-12, "point {}", on_row.point);
        assert_eq!(on_row.corners, vec![(100, 4), (100, 8)]);
        // Unbracketed queries refuse instead of extrapolating.
        assert!(surface.interpolate(fp, 300, 6, Z95).is_none());
        assert!(surface.interpolate(fp, 150, 2, Z95).is_none());
        assert!(surface.interpolate(0xdead, 150, 6, Z95).is_none());
    }
}
