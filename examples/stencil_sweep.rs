//! Tile-space exploration of an iterative stencil (jacobi-2d) on both
//! GPUs: enumerate a PPCG tile grid, measure every variant on the GPU
//! model, and place the EATSS selection inside the distribution.
//!
//! ```text
//! cargo run -p eatss-examples --bin stencil_sweep
//! ```

use eatss::{evaluate_program_with, Eatss, EatssConfig};
use eatss_affine::analysis::AnalysedProgram;
use eatss_gpusim::{Gpu, GpuArch};
use eatss_kernels::Dataset;
use eatss_ppcg::{Ppcg, TileSpace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = eatss_kernels::by_name("jacobi-2d").expect("jacobi-2d is registered");
    let program = bench.program()?;
    let analysed = AnalysedProgram::new(&program);

    for (arch, dataset) in [
        (GpuArch::ga100(), Dataset::ExtraLarge),
        (GpuArch::xavier(), Dataset::Standard),
    ] {
        let sizes = bench.sizes(dataset);
        println!("=== {arch} ===");
        let config = EatssConfig::with_split(0.0); // stencils have no SH set
        let opts = config.compile_options(&arch);

        // Explore a 3-dim space (time dim tiles are ignored by the
        // compiler, so enumerate the two space dims only).
        let space = TileSpace::new(2, vec![8, 16, 32, 64, 128, 256]);
        let gpu = Gpu::new(arch.clone());
        let mut best = f64::NEG_INFINITY;
        let mut worst = f64::INFINITY;
        let mut count = 0;
        for cfg in space.iter() {
            let mut tiles = vec![1]; // time dim
            tiles.extend_from_slice(cfg.sizes());
            let report = evaluate_program_with(
                &gpu,
                &analysed,
                &eatss_affine::tiling::TileConfig::new(tiles),
                &sizes,
                &opts,
                1,
            )?;
            if report.valid {
                best = best.max(report.gflops);
                worst = worst.min(report.gflops);
                count += 1;
            }
        }
        println!("space: {count} valid variants, {worst:.0}..{best:.0} GFLOP/s");

        // The EATSS pick.
        let eatss = Eatss::new(arch.clone());
        let solution = eatss.select_tiles(&program, &sizes, &config)?;
        let report = eatss.evaluate(&program, &solution.tiles, &sizes, &config)?;
        println!(
            "EATSS pick {}: {:.0} GFLOP/s, {:.1} W, {:.2} J ({:.0}% of space best)\n",
            solution.tiles,
            report.gflops,
            report.avg_power_w,
            report.energy_j,
            100.0 * report.gflops / best
        );

        // Also show the generated CUDA for the selection.
        if arch.name == "GA100" {
            let compiled =
                Ppcg::new(arch.clone()).compile(&program, &solution.tiles, &sizes, &opts)?;
            let first_kernel: String = compiled
                .cuda_source
                .lines()
                .take(18)
                .collect::<Vec<_>>()
                .join("\n");
            println!("generated CUDA (first kernel, excerpt):\n{first_kernel}\n");
            // And the simulator view of one launch:
            let r = gpu.simulate(&compiled.mappings[0].to_exec_spec());
            println!("single launch: {r}\n");
        }
    }
    Ok(())
}
