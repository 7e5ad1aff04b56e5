//! A *ytopt*-style Bayesian autotuner baseline (§V-H, Fig. 14).
//!
//! The paper compares EATSS against ytopt, a Bayesian-optimization
//! autotuner driving Clang/OpenMP offload. This crate reproduces that
//! baseline: a surrogate-model search over the tile space
//! (random bootstrap → RBF-interpolated expected value + exploration
//! bonus), plus a *tuning-cost model* (each evaluation pays a compile +
//! run round-trip, which is where ytopt's "17 minutes vs seconds" gap of
//! §V-H comes from) and the OpenMP-offload throughput penalty relative to
//! PPCG's native CUDA.
//!
//! # Examples
//!
//! ```
//! use eatss_autotune::{Autotuner, TuneOptions};
//! use eatss_ppcg::TileSpace;
//!
//! let space = TileSpace::new(2, vec![4, 8, 16, 32, 64]);
//! // Toy objective: prefer (16, 32).
//! let mut tuner = Autotuner::new(TuneOptions { budget: 20, seed: 7, ..TuneOptions::default() });
//! let result = tuner.tune(&space, |cfg| {
//!     let t = cfg.sizes();
//!     Some(-(((t[0] - 16).abs() + (t[1] - 32).abs()) as f64))
//! });
//! assert_eq!(result.best_tiles.expect("found something").sizes(), &[16, 32]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use eatss_affine::tiling::TileConfig;
use eatss_ppcg::TileSpace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Search strategy of the tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Pure random sampling (the OpenTuner-style baseline).
    Random,
    /// Random bootstrap followed by an RBF surrogate with an exploration
    /// bonus — the ytopt-style Bayesian baseline (default).
    #[default]
    Surrogate,
}

/// Tuner settings.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOptions {
    /// Search strategy.
    pub strategy: Strategy,
    /// Evaluation budget (number of objective calls).
    pub budget: usize,
    /// RNG seed (the tuner is fully deterministic given the seed).
    pub seed: u64,
    /// Random bootstrap samples before the surrogate takes over.
    pub bootstrap: usize,
    /// Modelled wall-clock cost of one evaluation (compile + run),
    /// seconds — ytopt pays a Clang + offload round trip per sample.
    pub seconds_per_eval: f64,
    /// Exploration weight of the acquisition function.
    pub exploration: f64,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            strategy: Strategy::Surrogate,
            budget: 50,
            seed: 42,
            bootstrap: 10,
            seconds_per_eval: 20.0,
            exploration: 0.3,
        }
    }
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Best configuration found (none if every evaluation failed).
    pub best_tiles: Option<TileConfig>,
    /// Objective value of the best configuration.
    pub best_value: f64,
    /// Every `(configuration, value)` evaluated, in order; failed
    /// evaluations record `None`.
    pub history: Vec<(TileConfig, Option<f64>)>,
    /// Modelled tuning wall-clock, seconds (§V-H compares this against
    /// EATSS's solver seconds).
    pub tuning_seconds: f64,
}

impl TuneResult {
    /// How many evaluations it took to first reach `best_value` (1-based),
    /// or `None` when nothing evaluated successfully — the cost metric
    /// the cross-device transfer experiment reports.
    pub fn evals_to_best(&self) -> Option<usize> {
        self.best_tiles.as_ref()?;
        self.history
            .iter()
            .position(|(_, v)| *v == Some(self.best_value))
            .map(|p| p + 1)
    }
}

/// A surrogate fitted on one device's tuning history, portable to
/// another device: tile-size locality transfers even when the absolute
/// objective scale does not, so the *ranking* it predicts is used to
/// seed the search order on the second device
/// ([`Autotuner::tune_with_prior`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SurrogatePrior {
    samples: Vec<(Vec<f64>, f64)>, // (log-coords, value)
}

impl SurrogatePrior {
    /// Fits the prior from a completed run's successful evaluations.
    pub fn from_result(result: &TuneResult) -> Self {
        SurrogatePrior {
            samples: result
                .history
                .iter()
                .filter_map(|(cfg, v)| v.map(|v| (ln_coords(cfg), v)))
                .collect(),
        }
    }

    /// Whether the prior carries no evidence.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of fitted samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Predicted objective value at `cfg`: inverse-distance RBF
    /// interpolation in log-tile space (the same kernel the acquisition
    /// function uses). `None` when the prior is empty.
    pub fn predict(&self, cfg: &TileConfig) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let c = ln_coords(cfg);
        let (mut wsum, mut vsum) = (0.0, 0.0);
        for (pc, pv) in &self.samples {
            let d2: f64 = pc
                .iter()
                .zip(c.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let w = 1.0 / (d2 + 1e-6);
            wsum += w;
            vsum += w * pv;
        }
        Some(vsum / wsum)
    }
}

fn ln_coords(cfg: &TileConfig) -> Vec<f64> {
    cfg.sizes().iter().map(|&t| (t as f64).ln()).collect()
}

/// The surrogate-model autotuner.
#[derive(Debug)]
pub struct Autotuner {
    options: TuneOptions,
    rng: StdRng,
}

impl Autotuner {
    /// Creates a tuner with the given options.
    pub fn new(options: TuneOptions) -> Self {
        let rng = StdRng::seed_from_u64(options.seed);
        Autotuner { options, rng }
    }

    /// Maximizes `objective` over `space`. The objective returns `None`
    /// for invalid configurations (unmappable / unexecutable variants).
    pub fn tune<F>(&mut self, space: &TileSpace, objective: F) -> TuneResult
    where
        F: FnMut(&TileConfig) -> Option<f64>,
    {
        self.tune_with_prior(space, objective, None)
    }

    /// [`Autotuner::tune`] warm-started by a [`SurrogatePrior`] fitted on
    /// another device: instead of random bootstrap picks, the candidate
    /// pool is walked in descending predicted-value order until the
    /// surrogate phase takes over. An empty prior degrades to the cold
    /// search.
    pub fn tune_with_prior<F>(
        &mut self,
        space: &TileSpace,
        mut objective: F,
        prior: Option<&SurrogatePrior>,
    ) -> TuneResult
    where
        F: FnMut(&TileConfig) -> Option<f64>,
    {
        let total = space.len();
        // Candidate pool: the whole space for small spaces, a random
        // subsample for huge ones (ytopt samples its parameter space too).
        let pool_cap = 4096;
        let mut pool: Vec<usize> = (0..total).collect();
        if total > pool_cap {
            pool.shuffle(&mut self.rng);
            pool.truncate(pool_cap);
        }
        // The budget cannot exceed the pool actually searched: clamping
        // only to `total` used to leave the random pick spinning forever
        // once every pool entry had been tried.
        let budget = self.options.budget.min(pool.len());

        let warm_start = prior.filter(|p| !p.is_empty());
        if let Some(p) = warm_start {
            // Deterministic seeding: descending predicted value, original
            // pool position as the tie-break (stable sort).
            let mut scored: Vec<(f64, usize)> = pool
                .iter()
                .map(|&idx| {
                    (
                        p.predict(&space.config(idx)).unwrap_or(f64::NEG_INFINITY),
                        idx,
                    )
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            pool = scored.into_iter().map(|(_, idx)| idx).collect();
        }

        let mut history: Vec<(TileConfig, Option<f64>)> = Vec::with_capacity(budget);
        let mut evaluated: Vec<(Vec<f64>, f64)> = Vec::new(); // (log-coords, value)
                                                              // Not-yet-tried pool entries; picks remove in O(1) (swap) or from
                                                              // the front (prior order), so the search always terminates.
        let mut untried: Vec<usize> = pool;

        let random_only = self.options.strategy == Strategy::Random;
        for step in 0..budget {
            if untried.is_empty() {
                break;
            }
            let pick = if random_only || step < self.options.bootstrap || evaluated.len() < 2 {
                if warm_start.is_some() && !random_only {
                    // Prior-seeded bootstrap: best predicted first.
                    untried.remove(0)
                } else {
                    // Random bootstrap.
                    let j = self.rng.gen_range(0..untried.len());
                    untried.swap_remove(j)
                }
            } else {
                // Acquisition: predicted value by inverse-distance RBF
                // interpolation + exploration bonus on distance.
                let mut best_pos = 0usize;
                let mut best_score = f64::NEG_INFINITY;
                for (pos, &idx) in untried.iter().enumerate() {
                    let c = ln_coords(&space.config(idx));
                    let (mut wsum, mut vsum, mut dmin) = (0.0, 0.0, f64::INFINITY);
                    for (pc, pv) in &evaluated {
                        let d2: f64 = pc
                            .iter()
                            .zip(c.iter())
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum();
                        let w = 1.0 / (d2 + 1e-6);
                        wsum += w;
                        vsum += w * pv;
                        dmin = dmin.min(d2.sqrt());
                    }
                    let predicted = vsum / wsum;
                    let score = predicted + self.options.exploration * dmin * predicted.abs();
                    if score > best_score {
                        best_score = score;
                        best_pos = pos;
                    }
                }
                untried.swap_remove(best_pos)
            };
            let cfg = space.config(pick);
            // A NaN measures nothing: it is a failed evaluation, like
            // `None`, kept out of the surrogate and the maximum.
            let value = objective(&cfg).filter(|v| !v.is_nan());
            if let Some(v) = value {
                evaluated.push((ln_coords(&cfg), v));
            }
            history.push((cfg, value));
        }

        let best = history
            .iter()
            .filter_map(|(c, v)| v.map(|v| (c.clone(), v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let tuning_seconds = history.len() as f64 * self.options.seconds_per_eval;
        match best {
            Some((tiles, value)) => TuneResult {
                best_tiles: Some(tiles),
                best_value: value,
                history,
                tuning_seconds,
            },
            None => TuneResult {
                best_tiles: None,
                best_value: f64::NEG_INFINITY,
                history,
                tuning_seconds,
            },
        }
    }
}

/// The throughput penalty of Clang/OpenMP offload relative to PPCG's
/// native CUDA (§V-H: "Since ytopt relies on OpenMP, performance
/// decreases compared to PPCG").
pub const OPENMP_OFFLOAD_PENALTY: f64 = 0.55;

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_objective(cfg: &TileConfig) -> Option<f64> {
        let t = cfg.sizes();
        Some(-((t[0] - 32).pow(2) + (t[1] - 64).pow(2)) as f64)
    }

    #[test]
    fn a_nan_objective_is_a_failed_evaluation() {
        // One tile measures NaN: it is recorded as failed, and the search
        // and its maximum carry on over the others.
        let space = TileSpace::new(2, vec![4, 8, 16, 32, 64, 128, 256]);
        let mut tuner = Autotuner::new(TuneOptions {
            budget: 49,
            seed: 1,
            ..TuneOptions::default()
        });
        let r = tuner.tune(&space, |cfg| match cfg.sizes() {
            [32, 64] => Some(f64::NAN),
            _ => quad_objective(cfg),
        });
        assert_eq!(r.history.len(), 49);
        let nan = r.history.iter().find(|(c, _)| c.sizes() == [32, 64]);
        assert_eq!(nan.map(|(_, v)| *v), Some(None));
        assert_eq!(r.best_value, -16.0 * 16.0, "(16, 64) is next best");
        assert!(r.history.iter().all(|(_, v)| v.is_none_or(|v| !v.is_nan())));
    }

    #[test]
    fn finds_optimum_of_smooth_objective() {
        let space = TileSpace::new(2, vec![4, 8, 16, 32, 64, 128, 256]);
        let mut tuner = Autotuner::new(TuneOptions {
            budget: 30,
            seed: 1,
            ..TuneOptions::default()
        });
        let r = tuner.tune(&space, quad_objective);
        assert_eq!(r.best_tiles.unwrap().sizes(), &[32, 64]);
        assert_eq!(r.history.len(), 30);
    }

    #[test]
    fn beats_pure_random_on_average() {
        let space = TileSpace::new(3, vec![4, 8, 16, 32, 64, 128]);
        let objective = |cfg: &TileConfig| -> Option<f64> {
            let t = cfg.sizes();
            Some(-((t[0] - 16).pow(2) + (t[1] - 64).pow(2) + (t[2] - 8).pow(2)) as f64)
        };
        let mut surrogate_wins = 0;
        for seed in 0..10 {
            let mut smart = Autotuner::new(TuneOptions {
                budget: 25,
                seed,
                bootstrap: 8,
                ..TuneOptions::default()
            });
            let mut random = Autotuner::new(TuneOptions {
                budget: 25,
                seed,
                bootstrap: usize::MAX, // never leaves bootstrap
                ..TuneOptions::default()
            });
            let s = smart.tune(&space, objective).best_value;
            let r = random.tune(&space, objective).best_value;
            if s >= r {
                surrogate_wins += 1;
            }
        }
        assert!(
            surrogate_wins >= 7,
            "surrogate won only {surrogate_wins}/10"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let space = TileSpace::new(2, vec![4, 8, 16, 32]);
        let run = || {
            Autotuner::new(TuneOptions {
                budget: 10,
                seed: 99,
                ..TuneOptions::default()
            })
            .tune(&space, quad_objective)
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_tiles, b.best_tiles);
        let ah: Vec<_> = a.history.iter().map(|(c, _)| c.clone()).collect();
        let bh: Vec<_> = b.history.iter().map(|(c, _)| c.clone()).collect();
        assert_eq!(ah, bh);
    }

    #[test]
    fn invalid_configs_are_skipped_but_recorded() {
        let space = TileSpace::new(1, vec![4, 8, 16, 32]);
        let mut tuner = Autotuner::new(TuneOptions {
            budget: 4,
            seed: 3,
            ..TuneOptions::default()
        });
        let r = tuner.tune(&space, |cfg| {
            if cfg.sizes()[0] >= 16 {
                None
            } else {
                Some(cfg.sizes()[0] as f64)
            }
        });
        assert_eq!(r.history.len(), 4);
        assert_eq!(r.best_tiles.unwrap().sizes(), &[8]);
    }

    #[test]
    fn all_invalid_yields_no_best() {
        let space = TileSpace::new(1, vec![4, 8]);
        let mut tuner = Autotuner::new(TuneOptions {
            budget: 2,
            seed: 3,
            ..TuneOptions::default()
        });
        let r = tuner.tune(&space, |_| None);
        assert!(r.best_tiles.is_none());
    }

    #[test]
    fn tuning_time_scales_with_budget() {
        let space = TileSpace::new(2, vec![4, 8, 16, 32, 64]);
        let mut tuner = Autotuner::new(TuneOptions {
            budget: 25,
            seconds_per_eval: 40.0,
            seed: 5,
            ..TuneOptions::default()
        });
        let r = tuner.tune(&space, quad_objective);
        // 25 evals × 40 s ≈ 17 minutes — the §V-H observation.
        assert!((r.tuning_seconds - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn random_strategy_never_uses_surrogate_order() {
        let space = TileSpace::new(3, vec![4, 8, 16, 32]);
        let run = |strategy: Strategy| {
            Autotuner::new(TuneOptions {
                strategy,
                budget: 20,
                seed: 5,
                bootstrap: 3,
                ..TuneOptions::default()
            })
            .tune(&space, quad3_objective)
            .history
            .iter()
            .map(|(c, _)| c.clone())
            .collect::<Vec<_>>()
        };
        let random = run(Strategy::Random);
        let surrogate = run(Strategy::Surrogate);
        assert_eq!(random.len(), 20);
        // Identical seeds, different trajectories after bootstrap.
        assert_ne!(random, surrogate);
    }

    #[test]
    fn strategies_all_find_something_valid() {
        let space = TileSpace::new(2, vec![4, 8, 16, 32, 64]);
        for strategy in [Strategy::Random, Strategy::Surrogate] {
            let mut tuner = Autotuner::new(TuneOptions {
                strategy,
                budget: 15,
                seed: 2,
                ..TuneOptions::default()
            });
            let r = tuner.tune(&space, quad_objective);
            assert!(r.best_tiles.is_some(), "{strategy:?}");
        }
    }

    fn quad3_objective(cfg: &TileConfig) -> Option<f64> {
        let t = cfg.sizes();
        Some(-((t[0] - 8).pow(2) + (t[1] - 16).pow(2) + (t[2] - 4).pow(2)) as f64)
    }

    #[test]
    fn budget_beyond_pool_cap_terminates() {
        // Regression: with budget > pool_cap (4096) on a space larger
        // than the pool, the random pick used to spin forever once every
        // pool entry had been tried. Run under a hard timeout.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // 9^4 = 6561 configs > 4096.
            let space = TileSpace::new(4, vec![4, 8, 16, 32, 64, 128, 256, 512, 1024]);
            let mut tuner = Autotuner::new(TuneOptions {
                strategy: Strategy::Random,
                budget: 5000,
                seed: 7,
                ..TuneOptions::default()
            });
            let r = tuner.tune(&space, |c| Some(-(c.sizes()[0] as f64)));
            let _ = tx.send((r.history.len(), r.best_tiles.is_some()));
        });
        let (evals, found) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("tuner hung: budget above the pool cap must terminate");
        assert_eq!(evals, 4096, "budget clamps to the subsampled pool");
        assert!(found);
    }

    #[test]
    fn prior_transfer_reduces_evals_to_best() {
        let space = TileSpace::new(2, vec![4, 8, 16, 32, 64, 128, 256]);
        // "Device A": bowl centred at (32, 64).
        let mut a = Autotuner::new(TuneOptions {
            budget: 30,
            seed: 1,
            ..TuneOptions::default()
        });
        let result_a = a.tune(&space, quad_objective);
        let prior = SurrogatePrior::from_result(&result_a);
        assert!(!prior.is_empty());
        assert_eq!(prior.len(), 30);
        // "Device B": correlated objective — same optimum, rescaled axes.
        let objective_b = |cfg: &TileConfig| -> Option<f64> {
            let t = cfg.sizes();
            Some(-(1.3 * ((t[0] - 32).pow(2) as f64) + 0.8 * ((t[1] - 64).pow(2) as f64)))
        };
        let mut cold = Autotuner::new(TuneOptions {
            budget: 30,
            seed: 9,
            ..TuneOptions::default()
        });
        let cold_r = cold.tune(&space, objective_b);
        let mut warm = Autotuner::new(TuneOptions {
            budget: 30,
            seed: 9,
            ..TuneOptions::default()
        });
        let warm_r = warm.tune_with_prior(&space, objective_b, Some(&prior));
        assert_eq!(warm_r.best_tiles.as_ref().unwrap().sizes(), &[32, 64]);
        let (cold_evals, warm_evals) = (
            cold_r.evals_to_best().unwrap(),
            warm_r.evals_to_best().unwrap(),
        );
        assert!(
            warm_evals <= cold_evals,
            "warm start took {warm_evals} evals vs cold {cold_evals}"
        );
        // The very first warm pick is already near the prior's optimum.
        let first = warm_r.history[0].0.sizes().to_vec();
        assert!(
            (first[0] - 32).abs() <= 32 && (first[1] - 64).abs() <= 64,
            "{first:?}"
        );
    }

    #[test]
    fn empty_prior_degrades_to_cold_search() {
        let space = TileSpace::new(2, vec![4, 8, 16, 32]);
        let run_cold = || {
            Autotuner::new(TuneOptions {
                budget: 8,
                seed: 21,
                ..TuneOptions::default()
            })
            .tune(&space, quad_objective)
        };
        let run_empty_prior = || {
            Autotuner::new(TuneOptions {
                budget: 8,
                seed: 21,
                ..TuneOptions::default()
            })
            .tune_with_prior(&space, quad_objective, Some(&SurrogatePrior::default()))
        };
        let a: Vec<_> = run_cold().history.into_iter().map(|(c, _)| c).collect();
        let b: Vec<_> = run_empty_prior()
            .history
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn evals_to_best_indexes_first_attainment() {
        let space = TileSpace::new(1, vec![4, 8, 16]);
        let mut tuner = Autotuner::new(TuneOptions {
            strategy: Strategy::Random,
            budget: 3,
            seed: 2,
            ..TuneOptions::default()
        });
        let r = tuner.tune(&space, |c| Some(c.sizes()[0] as f64));
        let k = r.evals_to_best().unwrap();
        assert_eq!(r.history[k - 1].1, Some(r.best_value));
        assert!(r.history[..k - 1]
            .iter()
            .all(|(_, v)| *v != Some(r.best_value)));
        // No successful evaluation → no index.
        let mut none = Autotuner::new(TuneOptions {
            budget: 3,
            seed: 2,
            ..TuneOptions::default()
        });
        assert_eq!(none.tune(&space, |_| None).evals_to_best(), None);
    }

    #[test]
    fn budget_capped_by_space_size() {
        let space = TileSpace::new(1, vec![4, 8]);
        let mut tuner = Autotuner::new(TuneOptions {
            budget: 100,
            seed: 0,
            ..TuneOptions::default()
        });
        let r = tuner.tune(&space, |c| Some(c.sizes()[0] as f64));
        assert_eq!(r.history.len(), 2);
        assert_eq!(r.best_tiles.unwrap().sizes(), &[8]);
    }
}
