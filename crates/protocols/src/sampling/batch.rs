//! The collision-free batch-length distribution (birthday bound).

use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Samples the number of consecutive *collision-free* interactions in a
/// population of `n` agents: the largest `ℓ` such that `ℓ` uniformly random
/// ordered pairs of distinct agents involve `2ℓ` distinct agents, with the
/// `(ℓ+1)`-th interaction being the first to touch an already-used agent
/// (the birthday bound — `E[ℓ] = Θ(√n)`).
///
/// One-shot convenience over [`BatchLengthSampler`]; steppers that draw many
/// epochs at one population size should hold the sampler (the survival table
/// is built once and each draw is then one uniform plus a binary search —
/// `O(log n)` instead of `O(ℓ)` float multiplies).
///
/// The result is always at least 1 (the first interaction cannot collide)
/// and at most `⌊n/2⌋`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn sample_batch_length<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n >= 2, "collision-free batches need at least two agents");
    let nf = n as f64;
    let denominator = nf * (nf - 1.0);
    let u: f64 = rng.gen();
    let mut survival = 1.0;
    let mut len = 0u64;
    loop {
        let untouched = nf - 2.0 * len as f64;
        if untouched < 2.0 {
            // Fewer than two fresh agents remain: the next pair must collide.
            return len;
        }
        let p = untouched * (untouched - 1.0) / denominator;
        let next = survival * p;
        if next <= u {
            return len;
        }
        survival = next;
        len += 1;
    }
}

/// Precomputed inverse-transform sampler for the collision-free batch-length
/// distribution at one population size `n` (see [`sample_batch_length`]).
///
/// The exact survival products `P(ℓ ≥ j) = ∏_{i<j} (n−2i)(n−2i−1)/(n(n−1))`
/// are tabulated once (truncated where they fall below `1e-18` — far beyond
/// any float-representable uniform draw), so each sample costs one uniform
/// draw plus a binary search over `O(√(n log(1/ε)))` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLengthSampler {
    n: u64,
    /// `survival[j] = P(ℓ ≥ j + 1)`, strictly decreasing.
    survival: Vec<f64>,
    /// Guide index: `guide[b] = #{j : survival[j] > b / GUIDE_BUCKETS}`,
    /// so a uniform draw `u` in bucket `b = ⌊u · GUIDE_BUCKETS⌋` only has to
    /// binary-search `survival[guide[b + 1]..guide[b]]`. The bucket windows
    /// hold a handful of entries through the bulk of the distribution (the
    /// bottom bucket is wide, but is hit with probability `1/GUIDE_BUCKETS`),
    /// cutting the `O(log √n)` cold-cache probes of a full-table search to
    /// two or three touching one cache line.
    guide: Vec<u32>,
    /// `E[ℓ] = Σⱼ P(ℓ ≥ j + 1)`, the sum of the survival table.
    mean: f64,
}

/// Number of uniform buckets in the [`BatchLengthSampler`] guide index.
const GUIDE_BUCKETS: usize = 256;

impl BatchLengthSampler {
    /// Builds the survival table for population size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "collision-free batches need at least two agents");
        let nf = n as f64;
        let denominator = nf * (nf - 1.0);
        let mut survival = Vec::new();
        let mut s = 1.0f64;
        let mut j = 0u64;
        loop {
            let untouched = nf - 2.0 * j as f64;
            if untouched < 2.0 {
                break;
            }
            s *= untouched * (untouched - 1.0) / denominator;
            if s <= 1e-18 {
                break;
            }
            survival.push(s);
            j += 1;
        }
        // Build the guide by sweeping the (decreasing) table once: `cut`
        // walks forward to the first entry at or below each bucket boundary,
        // taken in decreasing-boundary order so the sweep never restarts.
        let mut guide = vec![0u32; GUIDE_BUCKETS + 1];
        let mut cut = 0usize;
        for b in (0..=GUIDE_BUCKETS).rev() {
            let boundary = b as f64 / GUIDE_BUCKETS as f64;
            while cut < survival.len() && survival[cut] > boundary {
                cut += 1;
            }
            guide[b] = cut as u32;
        }
        let mean = survival.iter().sum();
        BatchLengthSampler {
            n,
            survival,
            guide,
            mean,
        }
    }

    /// The population size this sampler was built for.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// The mean batch length `E[ℓ]` (up to the `1e-18` tail truncation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The process-wide shared survival table for population size `n`.
    ///
    /// A threshold sweep runs millions of trials at a handful of fixed
    /// population sizes, and every [`crate::CountedSimulation`] used to
    /// rebuild its `O(√n)`-entry table from scratch; this cache builds each
    /// table once per process and hands out `Arc` clones. The cache is
    /// cleared if it ever tracks more than 256 distinct population sizes,
    /// bounding its memory at a few tens of megabytes.
    ///
    /// **Contention:** lookups take only the *read* side of an `RwLock`
    /// (an `Arc` clone under a shared guard), so the worker threads of a
    /// streaming sweep — which all start epoch loops at the same handful of
    /// population sizes — never serialize against each other on the warm
    /// path. The write lock is taken only on table *construction*: the
    /// first trial at a new `n` per process.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn shared(n: u64) -> Arc<BatchLengthSampler> {
        static CACHE: OnceLock<RwLock<BTreeMap<u64, Arc<BatchLengthSampler>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| RwLock::new(BTreeMap::new()));
        {
            let map = cache.read().unwrap_or_else(|poison| poison.into_inner());
            if let Some(sampler) = map.get(&n) {
                return Arc::clone(sampler);
            }
        }
        let mut map = cache.write().unwrap_or_else(|poison| poison.into_inner());
        if map.len() > 256 && !map.contains_key(&n) {
            map.clear();
        }
        Arc::clone(
            map.entry(n)
                .or_insert_with(|| Arc::new(BatchLengthSampler::new(n))),
        )
    }

    /// Draws one batch length — identical in distribution to
    /// [`sample_batch_length`]`(rng, n)` up to the `1e-18` tail truncation.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        // ℓ = #{j : survival[j] > u}; survival[0] = 1 > u, so ℓ ≥ 1. The
        // guide bucket for `u` brackets the count — every entry before
        // `guide[b + 1]` exceeds `(b + 1)/B > u`, every entry from `guide[b]`
        // on is at most `b/B ≤ u` — so only the window between them needs the
        // binary search. Same single uniform, same result: the guide changes
        // neither the RNG stream nor the sampled value.
        let bucket = (u * GUIDE_BUCKETS as f64) as usize;
        let mut lo = self.guide[bucket + 1] as usize;
        let mut hi = self.guide[bucket] as usize;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.survival[mid] > u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn batch_length_matches_naive_birthday_simulation() {
        // Reference: simulate pair draws by identity and count until the
        // first collision; compare the mean against the closed-form sampler.
        let n = 64u64;
        let trials = 20_000;
        let mut r = rng(6);
        let naive_mean: f64 = (0..trials)
            .map(|_| {
                let mut used = vec![false; n as usize];
                let mut len = 0u64;
                loop {
                    let i = r.gen_range(0..n) as usize;
                    let mut j = r.gen_range(0..n - 1) as usize;
                    if j >= i {
                        j += 1;
                    }
                    if used[i] || used[j] {
                        return len as f64;
                    }
                    used[i] = true;
                    used[j] = true;
                    len += 1;
                }
            })
            .sum::<f64>()
            / trials as f64;
        let mut r = rng(7);
        let sampled_mean: f64 = (0..trials)
            .map(|_| sample_batch_length(&mut r, n) as f64)
            .sum::<f64>()
            / trials as f64;
        assert!(
            (naive_mean - sampled_mean).abs() < 0.15,
            "naive {naive_mean} vs sampled {sampled_mean}"
        );
        // Birthday scale: Θ(√n).
        assert!(sampled_mean > 0.5 * (n as f64).sqrt() / 2.0);
        assert!(sampled_mean < 3.0 * (n as f64).sqrt());
    }

    #[test]
    fn batch_length_bounds() {
        let mut r = rng(8);
        for n in [2u64, 3, 5, 100] {
            for _ in 0..500 {
                let len = sample_batch_length(&mut r, n);
                assert!(len >= 1, "first interaction cannot collide (n = {n})");
                assert!(2 * len <= n, "len {len} uses more than {n} agents");
            }
        }
    }

    #[test]
    fn mean_is_the_sampled_mean() {
        for (n, seed) in [(2u64, 10u64), (64, 11), (10_000, 12)] {
            let sampler = BatchLengthSampler::new(n);
            let mut r = rng(seed);
            let trials = 20_000;
            let samples: Vec<f64> = (0..trials).map(|_| sampler.sample(&mut r) as f64).collect();
            let mean = samples.iter().sum::<f64>() / trials as f64;
            let sd =
                (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trials as f64).sqrt();
            // 4 standard errors (and exact at n = 2, where ℓ = 1 always).
            assert!(
                (mean - sampler.mean()).abs() <= 4.0 * sd / (trials as f64).sqrt() + 1e-9,
                "n = {n}: sampled {mean} vs table {}",
                sampler.mean()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn batch_length_rejects_tiny_populations() {
        let _ = sample_batch_length(&mut rng(9), 1);
    }

    #[test]
    fn guide_index_matches_linear_scan() {
        // The guide must never change the sampled value: for any uniform `u`,
        // the windowed binary search has to return exactly
        // `#{j : survival[j] > u}`, the same count the full-table search (and
        // a linear scan) produces.
        for n in [2u64, 3, 5, 64, 1_000, 1_000_000] {
            let sampler = BatchLengthSampler::new(n);
            for b in 0..GUIDE_BUCKETS {
                assert!(sampler.guide[b] >= sampler.guide[b + 1], "n = {n}");
            }
            assert_eq!(sampler.guide[0] as usize, sampler.survival.len());
            let mut probes: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
            // Land exactly on bucket boundaries and just inside each table
            // entry, the spots where an off-by-one would hide.
            probes.extend((0..=GUIDE_BUCKETS).map(|b| b as f64 / GUIDE_BUCKETS as f64));
            probes.extend(
                sampler
                    .survival
                    .iter()
                    .flat_map(|&s| [s, s - f64::EPSILON * s, s + f64::EPSILON * s]),
            );
            for u in probes {
                if !(0.0..1.0).contains(&u) {
                    continue;
                }
                let expected = sampler.survival.iter().filter(|&&s| s > u).count();
                let bucket = (u * GUIDE_BUCKETS as f64) as usize;
                let mut lo = sampler.guide[bucket + 1] as usize;
                let mut hi = sampler.guide[bucket] as usize;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if sampler.survival[mid] > u {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                assert_eq!(lo, expected, "n = {n}, u = {u}");
            }
        }
    }

    #[test]
    fn shared_cache_returns_the_same_table() {
        let a = BatchLengthSampler::shared(4242);
        let b = BatchLengthSampler::shared(4242);
        assert!(Arc::ptr_eq(&a, &b), "shared tables must be one allocation");
        assert_eq!(a.population(), 4242);
    }
}
