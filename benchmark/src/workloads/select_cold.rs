//! `select-cold`: the paper's compile-time cost. One op takes a kernel's
//! source text through parse, tile selection and the evaluation of the
//! selected tiles and of `32^d`, with nothing cached between ops.

use super::{closed_loop, geomean_ratios, same_as_first, warmed_up, LibraryOps, Window, Workload};
use crate::inputs::{self, Key};
use crate::pipeline::{self, evaluate_decomposed, ratios_vs_default, select_decomposed, Probe};
use crate::spans::Recorder;
use eatss::{Eatss, EatssConfig, ModelGenerator};
use eatss_affine::parser::parse_named_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::ProblemSizes;
use eatss_gpusim::SimReport;
use std::collections::BTreeMap;
use std::time::Duration;

struct Op {
    what: String,
    key: Key,
    sizes: ProblemSizes,
    config: EatssConfig,
    /// Tiles the first execution of this op selected.
    answer: Option<TileConfig>,
}

pub struct SelectCold {
    ops: Vec<Op>,
    engines: BTreeMap<&'static str, Eatss>,
}

pub struct Answer {
    tiles: TileConfig,
    selected: SimReport,
    default: SimReport,
}

impl SelectCold {
    /// The per-device engines and `keys` as ops, not yet run.
    pub fn new(keys: Vec<Key>) -> Self {
        let ops = keys
            .into_iter()
            .map(|key| Op {
                what: format!("{} on {} n={}", key.bench.name, key.device, key.n),
                sizes: key.bench.sizes_uniform(key.n),
                config: inputs::config_for(key.bench.name),
                key,
                answer: None,
            })
            .collect();
        SelectCold {
            ops,
            engines: pipeline::engines(),
        }
    }

    /// Set-up: the seeded op list, then one warm-up pass.
    pub fn seeded(seed: u64) -> Result<Self, String> {
        warmed_up(SelectCold::new(inputs::select_cold(seed)))
    }
}

fn usable(what: &str, report: &SimReport) -> Result<(), String> {
    if report.valid {
        Ok(())
    } else {
        Err(format!("{what}: unexecutable configuration"))
    }
}

impl LibraryOps for SelectCold {
    type Answer = Answer;

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn run(&mut self, i: usize) -> Result<(), String> {
        let op = &mut self.ops[i];
        let what = &op.what;
        let eatss = &self.engines[op.key.device];
        let program = parse_named_program(op.key.bench.name, op.key.bench.source)
            .map_err(|e| format!("{what}: parse: {e}"))?;
        let solution = eatss
            .select_tiles(&program, &op.sizes, &op.config)
            .map_err(|e| format!("{what}: select: {e}"))?;
        let selected = eatss
            .evaluate(&program, &solution.tiles, &op.sizes, &op.config)
            .map_err(|e| format!("{what}: evaluate: {e}"))?;
        let default = eatss
            .evaluate(
                &program,
                &TileConfig::ppcg_default(program.max_depth()),
                &op.sizes,
                &op.config,
            )
            .map_err(|e| format!("{what}: evaluate 32^d: {e}"))?;
        usable(what, &selected)?;
        usable(what, &default)?;
        same_as_first(&mut op.answer, solution.tiles, what)
    }

    fn decomposed(
        &mut self,
        i: usize,
        rec: &mut Recorder,
        probe: &mut Probe,
    ) -> Result<Answer, String> {
        let op = &self.ops[i];
        let what = &op.what;
        let gpu = self.engines[op.key.device].gpu();
        let (name, source) = (op.key.bench.name, op.key.bench.source);
        let program = rec
            .time("affine.parser.parse", || parse_named_program(name, source))
            .map_err(|e| format!("{what}: parse: {e}"))?;
        probe.counts.parser_bytes += source.len() as u64;
        probe.counts.parser_kernels += program.kernels.len() as u64;
        let solution = select_decomposed(rec, probe, gpu, &program, &op.sizes, &op.config, None)
            .map_err(|e| format!("{what}: select: {e}"))?;
        let selected = evaluate_decomposed(
            rec,
            probe,
            gpu,
            &program,
            &solution.tiles,
            &op.sizes,
            &op.config,
        )
        .map_err(|e| format!("{what}: evaluate: {e}"))?;
        let default_tiles = TileConfig::ppcg_default(program.max_depth());
        let default = evaluate_decomposed(
            rec,
            probe,
            gpu,
            &program,
            &default_tiles,
            &op.sizes,
            &op.config,
        )
        .map_err(|e| format!("{what}: evaluate 32^d: {e}"))?;
        usable(what, &selected)?;
        usable(what, &default)?;
        Ok(Answer {
            tiles: solution.tiles,
            selected,
            default,
        })
    }

    fn check(
        &mut self,
        i: usize,
        answer: Answer,
        rec: &mut Recorder,
        probe: &mut Probe,
    ) -> Result<(), String> {
        let op = &mut self.ops[i];
        let what = &op.what;
        let eatss = &self.engines[op.key.device];
        let program = op
            .key
            .bench
            .program()
            .map_err(|e| format!("{what}: parse: {e}"))?;
        let composite = rec
            .time("check.select_tiles", || {
                eatss.select_tiles(&program, &op.sizes, &op.config)
            })
            .map_err(|e| format!("{what}: select: {e}"))?;
        if composite.tiles != answer.tiles {
            return Err(format!(
                "{what}: build+solve chose {} but select_tiles chose {}",
                answer.tiles, composite.tiles
            ));
        }
        let default_tiles = TileConfig::ppcg_default(program.max_depth());
        for (tiles, decomposed) in [
            (&answer.tiles, &answer.selected),
            (&default_tiles, &answer.default),
        ] {
            let report = rec
                .time("check.evaluate", || {
                    eatss.evaluate(&program, tiles, &op.sizes, &op.config)
                })
                .map_err(|e| format!("{what}: evaluate: {e}"))?;
            if report != *decomposed {
                return Err(format!(
                    "{what}: compile+simulate of {tiles} differs from evaluate"
                ));
            }
        }
        let (solver, _objective) = ModelGenerator::new(eatss.arch(), op.config.clone())
            .build(&program, Some(&op.sizes))
            .map_err(|e| format!("{what}: build: {e}"))?
            .into_parts();
        probe.counts.model_constraints += solver.assertions().count() as u64;
        same_as_first(&mut op.answer, answer.tiles, what)
    }
}

impl Workload for SelectCold {
    fn threads(&self) -> usize {
        1
    }

    fn window(&mut self, dur: Duration, traced: bool) -> Result<Window, String> {
        closed_loop(self, dur, traced)
    }

    fn sim_ratios(&self) -> Result<(f64, f64), String> {
        geomean_ratios(self.ops.iter().filter_map(|op| {
            let tiles = op.answer.as_ref()?;
            Some(
                op.key
                    .bench
                    .program()
                    .map_err(|e| e.to_string())
                    .and_then(|program| {
                        ratios_vs_default(
                            &self.engines[op.key.device],
                            &program,
                            tiles,
                            &op.sizes,
                            &op.config,
                        )
                    }),
            )
        }))
    }
}
