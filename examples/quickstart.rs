//! Quickstart: select energy-aware tile sizes for matmul on a GA100.
//!
//! ```text
//! cargo run -p eatss-examples --bin quickstart
//! ```

use eatss::{Eatss, EatssConfig, SolutionProvenance};
use eatss_affine::parser::parse_program;
use eatss_affine::ProblemSizes;
use eatss_gpusim::GpuArch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Declare the affine kernel (the paper's running example).
    let program = parse_program(
        "kernel matmul(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             Out[i][j] += In[i][k] * Ker[k][j];
         }",
    )?;

    // 2. Pick the target GPU and problem sizes.
    let eatss = Eatss::new(GpuArch::ga100());
    let sizes = ProblemSizes::new([("M", 4000), ("N", 4000), ("P", 4000)]);

    // 3. Solve the EATSS formulation (§IV): FP64, 50% shared-memory
    //    split, half-warp alignment — the paper's default operating
    //    point.
    let config = EatssConfig::default();
    let solution = eatss.select_tiles(&program, &sizes, &config)?;
    println!("selected tiles : {}", solution.tiles);
    println!("objective      : {}", solution.objective);
    println!(
        "solver         : {} calls, {:.3} s{}",
        solution.solver_calls,
        solution.solve_time.as_secs_f64(),
        if solution.provenance == SolutionProvenance::Solved {
            " (optimal)"
        } else {
            ""
        }
    );

    // 4. Measure the selection on the GPU model and compare with the
    //    PPCG default tiling (32^d).
    let ours = eatss.evaluate(&program, &solution.tiles, &sizes, &config)?;
    let default = eatss.evaluate(
        &program,
        &eatss_affine::tiling::TileConfig::ppcg_default(3),
        &sizes,
        &config,
    )?;
    println!("\n              {:>12} {:>12}", "default 32^3", "EATSS");
    println!(
        "GFLOP/s       {:>12.0} {:>12.0}",
        default.gflops, ours.gflops
    );
    println!(
        "avg power (W) {:>12.1} {:>12.1}",
        default.avg_power_w, ours.avg_power_w
    );
    println!(
        "energy (J)    {:>12.2} {:>12.2}",
        default.energy_j, ours.energy_j
    );
    println!("PPW           {:>12.2} {:>12.2}", default.ppw, ours.ppw);
    println!(
        "\nEATSS improves performance-per-watt by {:.2}x",
        ours.ppw / default.ppw
    );
    Ok(())
}
