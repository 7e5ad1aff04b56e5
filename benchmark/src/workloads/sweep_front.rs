//! `sweep-front`: the 32-point configuration sweep and its Pareto front.
//! Unlike `select-cold` this drives the solver through many related
//! solves per op — warm-start chains, the retry ladder and the scoped
//! worker pool — so a gain for cold single solves that costs warm sweeps
//! shows here.

use super::{closed_loop, geomean_ratios, same_as_first, warmed_up, LibraryOps, Window, Workload};
use crate::inputs::{self, SweepOp, SWEEP_SPLITS};
use crate::pipeline::{evaluate_decomposed, ratios_vs_default, select_decomposed, Probe};
use crate::spans::Recorder;
use eatss::sweep::PAPER_WARP_FRACTIONS;
use eatss::{
    pareto_front, Eatss, EatssConfig, EatssError, EatssSolution, SweepOptions, SweepPoint,
    ThreadBlockCap,
};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::DeviceProfile;
use eatss_smt::{SolverConfig, WarmStart};
use std::time::Duration;

/// A front as compared between passes and evaluated afterwards: each
/// point's knobs and tiles, in front order.
type Front = Vec<(EatssConfig, TileConfig)>;

struct Case {
    what: String,
    program: Program,
    eatss: Eatss,
    sizes: ProblemSizes,
    answer: Option<Front>,
}

pub struct SweepFront {
    cases: Vec<Case>,
    options: SweepOptions,
    /// The sweep's configurations in canonical order, and their
    /// partition into warm-start chains.
    configs: Vec<EatssConfig>,
    chains: Vec<Vec<usize>>,
}

/// Splits × fractions × caps, the order `sweep::run_with` enumerates.
fn canonical_configs() -> Vec<EatssConfig> {
    let mut configs = Vec::new();
    for split_factor in SWEEP_SPLITS {
        for warp_fraction in PAPER_WARP_FRACTIONS {
            for cap in [ThreadBlockCap::Virtual, ThreadBlockCap::Strict] {
                configs.push(EatssConfig {
                    split_factor,
                    warp_fraction,
                    cap,
                    ..EatssConfig::default()
                });
            }
        }
    }
    configs
}

/// The sweep's warm-start chains: configurations sharing a (warp
/// fraction, cap) pair, tightest split first.
fn warm_chains(configs: &[EatssConfig]) -> Vec<Vec<usize>> {
    let mut chains: Vec<((u64, ThreadBlockCap), Vec<usize>)> = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        let key = (c.warp_fraction.to_bits(), c.cap);
        match chains.iter_mut().find(|(k, _)| *k == key) {
            Some((_, chain)) => chain.push(i),
            None => chains.push((key, vec![i])),
        }
    }
    chains
        .into_iter()
        .map(|(_, mut chain)| {
            chain.sort_by(|&a, &b| configs[b].split_factor.total_cmp(&configs[a].split_factor));
            chain
        })
        .collect()
}

fn summarize(front: &[&SweepPoint]) -> Front {
    front
        .iter()
        .map(|p| (p.config.clone(), p.solution.tiles.clone()))
        .collect()
}

impl SweepFront {
    /// Parses every op's kernel. `jobs` is the sweep's worker count.
    pub fn new(ops: Vec<SweepOp>, jobs: usize) -> Result<Self, String> {
        let mut cases = Vec::with_capacity(ops.len());
        for op in ops {
            let what = format!("{} on {}", op.bench.name, op.device);
            let program = op
                .bench
                .program()
                .map_err(|e| format!("{what}: parse: {e}"))?;
            let profile = DeviceProfile::builtin(op.device)
                .ok_or_else(|| format!("{what}: unknown device"))?;
            cases.push(Case {
                what,
                program,
                eatss: Eatss::new(profile.into_arch()),
                sizes: op.bench.sizes(inputs::dataset_for(op.device)),
                answer: None,
            });
        }
        let configs = canonical_configs();
        Ok(SweepFront {
            cases,
            options: SweepOptions {
                jobs,
                ..SweepOptions::default()
            },
            chains: warm_chains(&configs),
            configs,
        })
    }

    /// Set-up: the seeded op list parsed, then one warm-up pass.
    pub fn seeded(seed: u64, jobs: usize) -> Result<Self, String> {
        warmed_up(SweepFront::new(inputs::sweep_front(seed), jobs)?)
    }

    fn sweep(&self, i: usize) -> Result<eatss::SweepOutcome, String> {
        let case = &self.cases[i];
        case.eatss
            .sweep_with(
                &case.program,
                &case.sizes,
                &SWEEP_SPLITS,
                &PAPER_WARP_FRACTIONS,
                &self.options,
            )
            .map_err(|e| format!("{}: sweep: {e}", case.what))
    }
}

impl LibraryOps for SweepFront {
    type Answer = Vec<SweepPoint>;

    fn len(&self) -> usize {
        self.cases.len()
    }

    fn run(&mut self, i: usize) -> Result<(), String> {
        let outcome = self.sweep(i)?;
        let front = summarize(&pareto_front(&outcome.points));
        let case = &mut self.cases[i];
        if outcome.points.len() != self.configs.len() || front.is_empty() {
            return Err(format!(
                "{}: {} of {} points measured, front of {}",
                case.what,
                outcome.points.len(),
                self.configs.len(),
                front.len()
            ));
        }
        same_as_first(&mut case.answer, front, &case.what)
    }

    /// The sweep by hand, on this thread: each chain in order, each point
    /// built, solved warm, compiled and simulated singly, with the `32^d`
    /// fallback for points that have no solution. Only the first rung of
    /// the retry ladder is reproduced; a point that needed the second
    /// would differ from the composite sweep and fail the check.
    fn decomposed(
        &mut self,
        i: usize,
        rec: &mut Recorder,
        probe: &mut Probe,
    ) -> Result<Vec<SweepPoint>, String> {
        let case = &self.cases[i];
        let gpu = case.eatss.gpu();
        let rung = &self.options.attempts[0];
        let solver = SolverConfig {
            node_limit: rung.node_limit,
            deadline: rung.deadline,
            ..SolverConfig::default()
        };
        let mut slots: Vec<Option<SweepPoint>> = self.configs.iter().map(|_| None).collect();
        for chain in &self.chains {
            let mut hints = WarmStart::new();
            for &c in chain {
                let config = &self.configs[c];
                let solved = select_decomposed(
                    rec,
                    probe,
                    gpu,
                    &case.program,
                    &case.sizes,
                    config,
                    Some((solver.clone(), &mut hints)),
                );
                let solution = match solved {
                    Ok(solution) => solution,
                    Err(EatssError::Unsatisfiable { .. } | EatssError::Exhausted { .. }) => {
                        probe.counts.sweep_infeasible += 1;
                        probe.counts.sweep_fallbacks += 1;
                        EatssSolution::ppcg_default(case.program.max_depth())
                    }
                    Err(e) => return Err(format!("{}: solve: {e}", case.what)),
                };
                let report = evaluate_decomposed(
                    rec,
                    probe,
                    gpu,
                    &case.program,
                    &solution.tiles,
                    &case.sizes,
                    config,
                )
                .map_err(|e| format!("{}: evaluate {}: {e}", case.what, solution.tiles))?;
                probe.counts.sweep_points += 1;
                slots[c] = Some(SweepPoint {
                    config: config.clone(),
                    solution,
                    report,
                });
            }
        }
        let points: Vec<SweepPoint> = slots.into_iter().flatten().collect();
        let front = rec.time("core.sweep.pareto", || pareto_front(&points).len());
        if front == 0 {
            return Err(format!("{}: empty Pareto front", case.what));
        }
        Ok(points)
    }

    fn check(
        &mut self,
        i: usize,
        answer: Vec<SweepPoint>,
        rec: &mut Recorder,
        _probe: &mut Probe,
    ) -> Result<(), String> {
        let composite = rec.time("check.sweep", || self.sweep(i))?;
        let case = &mut self.cases[i];
        let same = composite.points.len() == answer.len()
            && composite.points.iter().zip(&answer).all(|(a, b)| {
                a.config == b.config && a.solution.tiles == b.solution.tiles && a.report == b.report
            });
        if !same {
            return Err(format!(
                "{}: point-by-point sweep differs from sweep_with",
                case.what
            ));
        }
        same_as_first(
            &mut case.answer,
            summarize(&pareto_front(&answer)),
            &case.what,
        )
    }
}

impl Workload for SweepFront {
    fn threads(&self) -> usize {
        self.options.jobs
    }

    fn window(&mut self, dur: Duration, traced: bool) -> Result<Window, String> {
        closed_loop(self, dur, traced)
    }

    /// A sweep answers with a front, so each key contributes its front's
    /// best point on each axis: lowest energy ratio, highest PPW gain.
    fn sim_ratios(&self) -> Result<(f64, f64), String> {
        geomean_ratios(self.cases.iter().filter_map(|case| {
            let front = case.answer.as_ref()?;
            Some(front.iter().try_fold(
                (f64::INFINITY, 0.0f64),
                |(energy, ppw), (config, tiles)| {
                    let (e, p) =
                        ratios_vs_default(&case.eatss, &case.program, tiles, &case.sizes, config)?;
                    Ok((energy.min(e), ppw.max(p)))
                },
            ))
        }))
    }
}
