//! Bring your own kernel: write an affine kernel in the DSL (or pass a
//! path to a file containing one), inspect the analyses, the SMT-LIB
//! formulation, the selected tiles, and the generated CUDA.
//!
//! ```text
//! cargo run -p eatss-examples --bin custom_kernel [path/to/kernel.eatss]
//! ```

use eatss::{EatssConfig, ModelGenerator};
use eatss_affine::analysis::AccessAnalysis;
use eatss_affine::parser::parse_program;
use eatss_affine::ProblemSizes;
use eatss_gpusim::GpuArch;
use eatss_ppcg::{CompileOptions, Ppcg};

const DEFAULT_KERNEL: &str = "
// A batched matrix-vector product: y[b][i] += A[b][i][j] * x[b][j]
kernel batched_mv(B, N) {
  for (b: B) for (i: N) for (j: N)
    y[b][i] += A[b][i][j] * x[b][j];
}";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => DEFAULT_KERNEL.to_owned(),
    };
    let program = parse_program(&source)?;
    let kernel = &program.kernels[0];
    println!("kernel `{}`, depth {}", kernel.name, kernel.depth());

    // --- analyses ---------------------------------------------------
    let analysis = AccessAnalysis::analyze(kernel);
    let names = kernel.dim_names();
    println!(
        "parallel dims : {:?}",
        names
            .iter()
            .zip(&analysis.parallel)
            .filter(|(_, &p)| p)
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
    );
    println!(
        "CMA loop      : {}",
        analysis
            .cma_dim
            .map(|d| names[d].clone())
            .unwrap_or_else(|| "-".into())
    );
    for g in &analysis.groups {
        println!(
            "  {:<16} -> {} ({})",
            g.representative.display_with(&names),
            g.memory,
            if g.cma_capable { "CMA" } else { "no CMA" }
        );
    }

    // --- the formulation (SMT-LIB export) -----------------------------
    let arch = GpuArch::ga100();
    let config = EatssConfig::default();
    let generator = ModelGenerator::new(&arch, config.clone());
    let sizes = ProblemSizes::uniform(["B", "N", "M", "P", "K"], 2048);
    let model = generator.build(&program, Some(&sizes))?;
    println!("\nSMT-LIB formulation:\n{}", model.to_smtlib());

    // --- solve + generate CUDA ---------------------------------------
    let solution = model.solve()?;
    println!(
        "selected tiles: {} (objective {})",
        solution.tiles, solution.objective
    );
    let compiled = Ppcg::new(arch).compile(
        &program,
        &solution.tiles,
        &sizes,
        &CompileOptions::default(),
    )?;
    println!("\ngenerated CUDA:\n{}", compiled.cuda_source);
    Ok(())
}
