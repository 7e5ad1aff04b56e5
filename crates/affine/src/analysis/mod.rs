//! Polyhedral-style analyses over the affine IR.
//!
//! * [`dependence`] — distance-vector dependence analysis classifying each
//!   loop dimension as parallel or serial (§IV-K of the paper relies on
//!   this classification "via dependence analysis").
//! * [`access`] — memory access-pattern analysis: stride-1 / CMA loop
//!   selection (§IV-D), the L1 vs shared-memory reference split (§IV-E),
//!   distinct-cache-line reference counting (§IV-G) and the `H_i`
//!   objective weights (§IV-K). Reproduces Table II of the paper.
//! * [`AnalysedProgram`] — a program together with the access analysis of
//!   each of its kernels, computed once and borrowed by every step that
//!   runs per configuration or per tiling.

pub mod access;
pub mod dependence;

pub use access::{AccessAnalysis, MemoryKind, RefGroup, ReuseKind};
pub use dependence::{parallel_dims, DepDistance};

use crate::ir::{Kernel, Program};

/// A program and one [`AccessAnalysis`] per kernel, in program order.
///
/// The analysis depends on the kernels alone — no tile size, split, warp
/// fraction or cap changes it — so a sweep or a verification batch builds
/// this once and lends it to every configuration it runs. It borrows the
/// program, and each analysis's reference groups borrow their
/// representatives from their kernel: while it exists the program cannot
/// change, so the analysis cannot go stale, and no reference is copied.
///
/// # Examples
///
/// ```
/// use eatss_affine::analysis::AnalysedProgram;
/// use eatss_affine::parser::parse_program;
///
/// let p = parse_program(
///     "kernel a(N) { for (i: N) y[i] = x[i]; }
///      kernel b(N) { for (i: N) for (j: N) z[i][j] = y[j]; }",
/// )?;
/// let analysed = AnalysedProgram::new(&p);
/// let depths: Vec<_> = analysed.kernels().map(|(k, a)| (k.depth(), a.depth)).collect();
/// assert_eq!(depths, vec![(1, 1), (2, 2)]);
/// # Ok::<(), eatss_affine::parser::ParseError>(())
/// ```
#[derive(Debug)]
pub struct AnalysedProgram<'p> {
    program: &'p Program,
    analyses: Vec<AccessAnalysis<'p>>,
}

impl<'p> AnalysedProgram<'p> {
    /// Analyses every kernel of `program`.
    pub fn new(program: &'p Program) -> Self {
        let mut span = eatss_trace::span("affine", "analyse");
        if span.is_active() {
            span.arg("program", program.name.as_str());
            span.arg("kernels", program.kernels.len());
        }
        AnalysedProgram {
            program,
            analyses: program
                .kernels
                .iter()
                .map(AccessAnalysis::analyze)
                .collect(),
        }
    }

    /// The analysed program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Each kernel with its analysis, in program order.
    pub fn kernels(&self) -> impl Iterator<Item = (&'p Kernel, &AccessAnalysis<'p>)> + '_ {
        self.program.kernels.iter().zip(&self.analyses)
    }
}
