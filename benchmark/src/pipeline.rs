//! The program's composite calls, taken apart at their public seams.
//!
//! The traced run replaces `select_tiles` with build → solve and
//! `evaluate` with compile → simulate → combine, one span per call, so
//! each layer's time is seen from outside. Callers check the result
//! against the composite path and fail the op when they differ.

use crate::spans::Recorder;
use eatss::{Eatss, EatssConfig, EatssError, EatssSolution, EvaluateError, ModelGenerator};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::{DeviceProfile, Gpu, SimFault, SimReport};
use eatss_ppcg::Ppcg;
use eatss_smt::{SolverConfig, SolverStats, WarmStart};
use std::collections::BTreeMap;

/// Work counts gathered at the layer boundaries. Every field repeats
/// exactly from one pass over an op list to the next; the traced window
/// asserts it.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub parser_bytes: u64,
    pub parser_kernels: u64,
    pub model_constraints: u64,
    pub smt_nodes: u64,
    pub smt_solver_calls: u64,
    pub smt_bound_prunes: u64,
    pub smt_hull_rebuilds: u64,
    pub smt_warm_cut_hits: u64,
    pub cuda_bytes: u64,
    pub invalid_variants: u64,
    pub gpusim_launches: u64,
    pub interp_points: u64,
    pub exec_points: u64,
    pub oracle_points: u64,
    pub oracle_mismatches: u64,
    pub sweep_points: u64,
    pub sweep_fallbacks: u64,
    pub sweep_infeasible: u64,
}

impl Counts {
    /// Every count, for arithmetic over all of them at once.
    pub fn as_array(&self) -> [u64; 18] {
        [
            self.parser_bytes,
            self.parser_kernels,
            self.model_constraints,
            self.smt_nodes,
            self.smt_solver_calls,
            self.smt_bound_prunes,
            self.smt_hull_rebuilds,
            self.smt_warm_cut_hits,
            self.cuda_bytes,
            self.invalid_variants,
            self.gpusim_launches,
            self.interp_points,
            self.exec_points,
            self.oracle_points,
            self.oracle_mismatches,
            self.sweep_points,
            self.sweep_fallbacks,
            self.sweep_infeasible,
        ]
    }
}

/// Solver-internal time split, from `EatssSolution::stats`. Wall times,
/// so kept apart from the exactly-repeating [`Counts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverTimes {
    pub solves: u64,
    pub propagation_ns: u64,
    pub search_ns: u64,
}

#[derive(Debug, Default)]
pub struct Probe {
    pub counts: Counts,
    pub solver: SolverTimes,
}

impl Probe {
    fn absorb_solver(&mut self, stats: &SolverStats, solver_calls: u32) {
        self.counts.smt_nodes += stats.nodes;
        self.counts.smt_solver_calls += u64::from(solver_calls);
        self.counts.smt_bound_prunes += stats.bound_prunes;
        self.counts.smt_hull_rebuilds += stats.hull_rebuilds;
        self.counts.smt_warm_cut_hits += stats.warm_cut_hits;
        self.solver.solves += 1;
        self.solver.propagation_ns += stats.propagation_time.as_nanos() as u64;
        self.solver.search_ns += stats.search_time.as_nanos() as u64;
    }
}

/// `Eatss::select_tiles` as build then solve. `sweep` makes it a sweep
/// point's solve: under the retry rung's solver limits, warm-started from
/// the chain's hints.
pub fn select_decomposed(
    rec: &mut Recorder,
    probe: &mut Probe,
    gpu: &Gpu,
    program: &Program,
    sizes: &ProblemSizes,
    config: &EatssConfig,
    sweep: Option<(SolverConfig, &mut WarmStart)>,
) -> Result<EatssSolution, EatssError> {
    let generator = ModelGenerator::new(gpu.arch(), config.clone());
    let (generator, warm) = match sweep {
        Some((limits, warm)) => (generator.with_solver_config(limits), Some(warm)),
        None => (generator, None),
    };
    let model = rec.time("core.model.build", || generator.build(program, Some(sizes)))?;
    let solution = rec.time("smt.solve", || match warm {
        Some(warm) => model.solve_warm(warm),
        None => model.solve(),
    })?;
    probe.absorb_solver(&solution.stats, solution.solver_calls);
    Ok(solution)
}

/// `Eatss::evaluate` as compile, one simulate per launch, then the
/// sequence-and-power-ramp combination `evaluate_program_with` applies.
pub fn evaluate_decomposed(
    rec: &mut Recorder,
    probe: &mut Probe,
    gpu: &Gpu,
    program: &Program,
    tiles: &TileConfig,
    sizes: &ProblemSizes,
    config: &EatssConfig,
) -> Result<SimReport, EvaluateError> {
    let arch = gpu.arch();
    let options = config.compile_options(arch);
    let ppcg = Ppcg::new(arch.clone());
    let compiled = rec.time("ppcg.compile", || {
        ppcg.compile(program, tiles, sizes, &options)
    })?;
    probe.counts.cuda_bytes += compiled.cuda_source.len() as u64;
    let mut reports = Vec::with_capacity(compiled.mappings.len());
    for mapping in &compiled.mappings {
        let report = rec.time("gpusim.simulate", || {
            gpu.try_simulate(&mapping.to_exec_spec())
        });
        probe.counts.gpusim_launches += 1;
        reports.push(report.map(|r| r.repeated(mapping.launch_count)));
    }
    let reports = reports.into_iter().collect::<Result<Vec<_>, SimFault>>()?;
    let combined = rec.time("core.evaluate.combine", || {
        let mut combined = SimReport::sequence(&reports);
        combined.name = program.name.clone();
        let mut ramped = combined.clone();
        ramped.apply_power_ramp(arch.idle_power_w(), arch.power_ramp_tau_s);
        combined.avg_power_w = ramped.avg_power_w;
        combined.dynamic_power_w = ramped.dynamic_power_w;
        combined.static_power_w = ramped.static_power_w;
        if combined.valid {
            combined.energy_j = combined.avg_power_w * combined.time_s;
            combined.ppw = if combined.avg_power_w > 0.0 {
                combined.gflops / combined.avg_power_w
            } else {
                0.0
            };
        }
        combined
    });
    if !combined.valid {
        probe.counts.invalid_variants += 1;
    }
    Ok(combined)
}

/// One engine per builtin device profile, by profile name.
pub fn engines() -> BTreeMap<&'static str, Eatss> {
    DeviceProfile::builtin_names()
        .into_iter()
        .map(|name| {
            let profile = DeviceProfile::builtin(name).expect("builtin names resolve");
            (name, Eatss::new(profile.into_arch()))
        })
        .collect()
}

/// Simulated energy and PPW of `tiles` relative to PPCG's `32^d`, both
/// through the composite `Eatss::evaluate`.
pub fn ratios_vs_default(
    eatss: &Eatss,
    program: &Program,
    tiles: &TileConfig,
    sizes: &ProblemSizes,
    config: &EatssConfig,
) -> Result<(f64, f64), String> {
    let chosen = eatss
        .evaluate(program, tiles, sizes, config)
        .map_err(|e| format!("{}: evaluate {tiles}: {e}", program.name))?;
    let default = eatss
        .evaluate(
            program,
            &TileConfig::ppcg_default(program.max_depth()),
            sizes,
            config,
        )
        .map_err(|e| format!("{}: evaluate 32^d: {e}", program.name))?;
    if !(chosen.valid && default.valid) {
        return Err(format!(
            "{}: unexecutable configuration ({tiles} or 32^d)",
            program.name
        ));
    }
    Ok((chosen.energy_j / default.energy_j, chosen.ppw / default.ppw))
}
