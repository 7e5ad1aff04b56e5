//! `verify-oracle`: the differential oracle. One op verifies one kernel
//! under {EATSS tiles, `32^d`, four seeded random tilings} against the
//! reference interpretation, bitwise. Tiles are selected in set-up, so
//! the solver does nothing here.

use super::{closed_loop, geomean_ratios, warmed_up, LibraryOps, Window, Workload};
use crate::inputs::{self, OracleOp, ORACLE_DRAWS};
use crate::pipeline::{ratios_vs_default, Probe};
use crate::spans::Recorder;
use eatss::{Eatss, EatssConfig};
use eatss_affine::interp::{compare_stores, run_program};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::DeviceProfile;
use eatss_ppcg::oracle::{sample_tile_config, sweep_rng};
use eatss_ppcg::{
    execute_compiled, seed_store, verify_batch, verify_sizes, OracleError, OracleOptions,
    OracleReport, Ppcg,
};
use std::time::Duration;

/// Spatial caps tried, largest first; the first whose reference run stays
/// within [`MAX_REFERENCE_POINTS`] is used, so the deep nests (b2mm) do
/// not own the window.
const SPACE_CAPS: [i64; 4] = [19, 13, 9, 7];
const TIME_CAP: i64 = 3;
const MAX_REFERENCE_POINTS: i64 = 20_000;
/// Seed of the oracle's input stores (the CLI's and the daemon's value).
const STORE_SEED: u64 = 0xEA75_50AC;
/// Configurations that must map and agree: the EATSS tiles and `32^d`.
/// The random draws after them may be unmappable, which is no finding.
const REQUIRED_CONFIGS: usize = 2;

struct Case {
    what: String,
    program: Program,
    eatss: Eatss,
    /// Sizes the tiles were selected for, and the selection's knobs.
    full_sizes: ProblemSizes,
    config: EatssConfig,
    /// Shrunk sizes the oracle executes at.
    sizes: ProblemSizes,
    configs: Vec<TileConfig>,
}

pub struct VerifyOracle {
    cases: Vec<Case>,
    options: OracleOptions,
}

type Verdict = Result<OracleReport, OracleError>;

fn reference_points(program: &Program, sizes: &ProblemSizes) -> i64 {
    program
        .kernels
        .iter()
        .map(|k| k.iteration_space_size(sizes).unwrap_or(i64::MAX))
        .fold(0i64, i64::saturating_add)
}

fn trips(program: &Program, sizes: &ProblemSizes) -> Vec<i64> {
    let mut out = vec![1i64; program.max_depth()];
    for k in &program.kernels {
        for (d, slot) in out.iter_mut().enumerate().take(k.depth()) {
            *slot = (*slot).max(k.trip_count(d, sizes).unwrap_or(1));
        }
    }
    out
}

impl VerifyOracle {
    /// Parses, selects the EATSS tiles, shrinks the sizes and draws the
    /// random tilings of every op.
    pub fn new(ops: Vec<OracleOp>) -> Result<Self, String> {
        let mut cases = Vec::with_capacity(ops.len());
        for op in ops {
            let what = format!("{} on {}", op.bench.name, op.device);
            let program = op
                .bench
                .program()
                .map_err(|e| format!("{what}: parse: {e}"))?;
            let profile = DeviceProfile::builtin(op.device)
                .ok_or_else(|| format!("{what}: unknown device"))?;
            let eatss = Eatss::new(profile.into_arch());
            let full_sizes = op.bench.sizes(inputs::dataset_for(op.device));
            let config = inputs::config_for(op.bench.name);
            let selected = eatss
                .select_tiles(&program, &full_sizes, &config)
                .map_err(|e| format!("{what}: select: {e}"))?;
            let sizes = SPACE_CAPS
                .iter()
                .map(|&cap| verify_sizes(&program, &full_sizes, cap, TIME_CAP))
                .find(|shrunk| reference_points(&program, shrunk) <= MAX_REFERENCE_POINTS)
                .ok_or_else(|| {
                    format!("{what}: over {MAX_REFERENCE_POINTS} points at every cap")
                })?;
            let mut configs = vec![
                selected.tiles,
                TileConfig::ppcg_default(program.max_depth()),
            ];
            let trips = trips(&program, &sizes);
            let mut rng = sweep_rng(op.draw_seed);
            configs.extend((0..ORACLE_DRAWS).map(|_| sample_tile_config(&mut rng, &trips)));
            cases.push(Case {
                what,
                program,
                eatss,
                full_sizes,
                config,
                sizes,
                configs,
            });
        }
        Ok(VerifyOracle {
            cases,
            options: OracleOptions::default(),
        })
    }

    /// Set-up: the seeded op list prepared, then one warm-up pass.
    pub fn seeded(seed: u64) -> Result<Self, String> {
        warmed_up(VerifyOracle::new(inputs::verify_oracle(seed))?)
    }
}

/// An op is correct when every configuration that maps agrees bitwise
/// with the reference, and the two real answers do map.
fn judge(case: &Case, verdicts: &[Verdict]) -> Result<(), String> {
    for (i, (tiles, verdict)) in case.configs.iter().zip(verdicts).enumerate() {
        match verdict {
            Ok(_) => {}
            Err(OracleError::Compile(_)) if i >= REQUIRED_CONFIGS => {}
            Err(e) => return Err(format!("{}: tiles {tiles}: {e}", case.what)),
        }
    }
    Ok(())
}

impl LibraryOps for VerifyOracle {
    type Answer = Vec<Verdict>;

    fn len(&self) -> usize {
        self.cases.len()
    }

    fn run(&mut self, i: usize) -> Result<(), String> {
        let case = &self.cases[i];
        let verdicts = verify_batch(
            &case.program,
            &case.configs,
            case.eatss.arch(),
            &case.sizes,
            &self.options,
            STORE_SEED,
        );
        judge(case, &verdicts)
    }

    /// `verify_batch` by hand: compile every configuration, interpret the
    /// reference once, then emulate and compare each mappable one.
    fn decomposed(
        &mut self,
        i: usize,
        rec: &mut Recorder,
        probe: &mut Probe,
    ) -> Result<Vec<Verdict>, String> {
        let case = &self.cases[i];
        let (program, sizes) = (&case.program, &case.sizes);
        let ppcg = Ppcg::new(case.eatss.arch().clone());
        let compiled: Vec<_> = case
            .configs
            .iter()
            .map(|tiles| {
                rec.time("ppcg.compile", || {
                    ppcg.compile(program, tiles, sizes, &self.options.compile)
                })
            })
            .collect();
        let interp_err = |e| format!("{}: interpreter: {e}", case.what);
        let mut reference = rec
            .time("ppcg.oracle.seed", || {
                seed_store(program, sizes, STORE_SEED)
            })
            .map_err(interp_err)?;
        rec.time("affine.interp.run", || {
            run_program(program, sizes, &mut reference)
        })
        .map_err(interp_err)?;
        probe.counts.interp_points += reference_points(program, sizes) as u64;
        let arrays = reference.arrays().count() as u64;

        let mut verdicts = Vec::with_capacity(compiled.len());
        for (tiles, compiled) in case.configs.iter().zip(compiled) {
            let compiled = match compiled {
                Ok(c) => c,
                Err(e) => {
                    verdicts.push(Err(OracleError::Compile(e)));
                    continue;
                }
            };
            probe.counts.cuda_bytes += compiled.cuda_source.len() as u64;
            let mut store = rec
                .time("ppcg.oracle.seed", || {
                    seed_store(program, sizes, STORE_SEED)
                })
                .map_err(interp_err)?;
            let stats = rec.time("ppcg.exec.emulate", || {
                execute_compiled(
                    program,
                    &compiled.mappings,
                    sizes,
                    &mut store,
                    &self.options.exec,
                )
            });
            let stats = match stats {
                Ok(s) => s,
                Err(e) => {
                    verdicts.push(Err(OracleError::Exec(e)));
                    continue;
                }
            };
            probe.counts.exec_points += stats.points;
            let mut mismatches = rec.time("affine.interp.compare", || {
                compare_stores(&store, &reference)
            });
            verdicts.push(if mismatches.is_empty() {
                Ok(OracleReport {
                    kernels: program.kernels.len() as u64,
                    launches: stats.launches,
                    blocks: stats.blocks,
                    points: stats.points,
                    barriers: stats.barriers,
                    staged_elems: stats.staged_elems,
                    arrays_compared: arrays,
                })
            } else {
                probe.counts.oracle_mismatches += mismatches.len() as u64;
                let total = mismatches.len();
                mismatches.truncate(8);
                Err(OracleError::Mismatch {
                    tiles: tiles.to_string(),
                    mismatches,
                    total,
                })
            });
        }
        judge(case, &verdicts)?;
        Ok(verdicts)
    }

    fn check(
        &mut self,
        i: usize,
        answer: Vec<Verdict>,
        rec: &mut Recorder,
        probe: &mut Probe,
    ) -> Result<(), String> {
        let case = &self.cases[i];
        let composite = rec.time("check.verify_batch", || {
            verify_batch(
                &case.program,
                &case.configs,
                case.eatss.arch(),
                &case.sizes,
                &self.options,
                STORE_SEED,
            )
        });
        judge(case, &composite)?;
        probe.counts.oracle_points += composite.iter().flatten().map(|r| r.points).sum::<u64>();
        // OracleReport has no PartialEq; its Debug form lists every field.
        if format!("{composite:?}") != format!("{answer:?}") {
            return Err(format!(
                "{}: hand-run oracle verdicts differ from verify_batch",
                case.what
            ));
        }
        Ok(())
    }
}

impl Workload for VerifyOracle {
    fn threads(&self) -> usize {
        1
    }

    fn window(&mut self, dur: Duration, traced: bool) -> Result<Window, String> {
        closed_loop(self, dur, traced)
    }

    /// The answers here are the tiles set-up selected and every op then
    /// verified.
    fn sim_ratios(&self) -> Result<(f64, f64), String> {
        geomean_ratios(self.cases.iter().map(|c| {
            ratios_vs_default(
                &c.eatss,
                &c.program,
                &c.configs[0],
                &c.full_sizes,
                &c.config,
            )
        }))
    }
}
