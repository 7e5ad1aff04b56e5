//! **Table II** — matmul array-reference properties: memory type, CMA
//! capability, and reuse types, regenerated from the access-pattern
//! analysis of §IV.

use super::*;
use eatss_affine::analysis::{AccessAnalysis, ReuseKind};
use eatss_affine::parser::parse_program;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let program = parse_program(
        "kernel matmul(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             Out[i][j] += In[i][k] * Ker[k][j];
         }",
    )?;
    let kernel = &program.kernels[0];
    let names = kernel.dim_names();
    let analysis = AccessAnalysis::analyze(kernel);

    writeln!(
        out,
        "Table II: matmul array properties (CMA, reuse type per loop dim)\n"
    )?;
    writeln!(
        out,
        "CMA loop dimension l_s1 = loop-{} (stride-1 in most references)\n",
        analysis
            .cma_dim
            .map(|d| names[d].clone())
            .unwrap_or_else(|| "-".into())
    )?;
    let mut t = Table::new(vec![
        "Array Reference",
        "Memory Type",
        "CMA Capable",
        "Reuse Type (Loop Dim)",
    ]);
    for g in &analysis.groups {
        let reuse: Vec<String> = g
            .reuse(analysis.depth)
            .into_iter()
            .map(|(d, kind)| {
                let tag = match kind {
                    ReuseKind::Temporal => "T-reuse",
                    ReuseKind::Spatial => "S-reuse",
                };
                format!("{tag} ({})", names[d])
            })
            .collect();
        t.row(vec![
            g.representative.display_with(&names),
            g.memory.to_string(),
            if g.cma_capable { "Yes" } else { "No" }.to_string(),
            reuse.join(", "),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "no.references (distinct cache lines, §IV-G): {}",
        analysis.distinct_line_refs()
    )?;
    writeln!(
        out,
        "H weights at WARP_ALIGNMENT_FACTOR=16 (§IV-K): {:?}",
        analysis.h_weights(16)
    )?;
    Ok(())
}
