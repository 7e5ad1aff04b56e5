//! The unified pipeline error taxonomy.
//!
//! The EATSS pipeline has three stages that can fail — formulate/solve,
//! compile, measure — and each has its own error type. [`PipelineError`]
//! wraps all of them with the stage and a human-readable context (which
//! program, which configuration), so a sweep can report *where* and *why*
//! each point degraded instead of collapsing everything into an opaque
//! "unsatisfiable".

use crate::evaluate::EvaluateError;
use crate::model::EatssError;
use eatss_gpusim::SimFault;
use eatss_ppcg::CompileError;
use eatss_smt::SolveError;
use std::error::Error;
use std::fmt;

/// The pipeline stage an error originated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Building the non-linear integer formulation (§IV).
    Formulate,
    /// Maximizing the formulation (§IV-L).
    Solve,
    /// PPCG compilation of the selected tiles.
    Compile,
    /// Simulated measurement of the compiled program.
    Measure,
}

impl fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineStage::Formulate => write!(f, "formulate"),
            PipelineStage::Solve => write!(f, "solve"),
            PipelineStage::Compile => write!(f, "compile"),
            PipelineStage::Measure => write!(f, "measure"),
        }
    }
}

/// A failure anywhere in the solve → compile → measure pipeline, with
/// stage attribution and context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The formulation could not be built or has no solution.
    Formulate {
        /// The underlying model error.
        source: EatssError,
        /// What was being formulated (program, configuration).
        context: String,
    },
    /// The solver itself failed (distinct from "no solution exists").
    Solve {
        /// The underlying solver error.
        source: SolveError,
        /// What was being solved.
        context: String,
    },
    /// PPCG compilation rejected the tile configuration.
    Compile {
        /// The underlying compile error.
        source: CompileError,
        /// What was being compiled.
        context: String,
    },
    /// The simulated measurement failed (e.g. an injected launch fault).
    Measure {
        /// The underlying simulation fault.
        source: SimFault,
        /// What was being measured.
        context: String,
    },
    /// Not a single sweep configuration produced a measurable point —
    /// even the 32^d default-tiling fallback failed everywhere.
    NoMeasurablePoint {
        /// Number of configurations attempted.
        attempted: usize,
        /// What was being swept.
        context: String,
    },
}

impl PipelineError {
    /// The stage this error originated in.
    pub fn stage(&self) -> PipelineStage {
        match self {
            PipelineError::Formulate { .. } => PipelineStage::Formulate,
            PipelineError::Solve { .. } => PipelineStage::Solve,
            PipelineError::Compile { .. } => PipelineStage::Compile,
            PipelineError::Measure { .. } | PipelineError::NoMeasurablePoint { .. } => {
                PipelineStage::Measure
            }
        }
    }

    /// The context string attached at construction.
    pub fn context(&self) -> &str {
        match self {
            PipelineError::Formulate { context, .. }
            | PipelineError::Solve { context, .. }
            | PipelineError::Compile { context, .. }
            | PipelineError::Measure { context, .. }
            | PipelineError::NoMeasurablePoint { context, .. } => context,
        }
    }

    /// Classifies a model/solve error into the right pipeline variant.
    pub fn from_eatss(source: EatssError, context: impl Into<String>) -> Self {
        let context = context.into();
        match source {
            EatssError::Solver(source) => PipelineError::Solve { source, context },
            other => PipelineError::Formulate {
                source: other,
                context,
            },
        }
    }

    /// Classifies an evaluation error into the right pipeline variant.
    pub fn from_evaluate(source: EvaluateError, context: impl Into<String>) -> Self {
        let context = context.into();
        match source {
            EvaluateError::Compile(source) => PipelineError::Compile { source, context },
            EvaluateError::Simulation(source) => PipelineError::Measure { source, context },
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Formulate { source, context } => {
                write!(f, "[formulate] {context}: {source}")
            }
            PipelineError::Solve { source, context } => {
                write!(f, "[solve] {context}: {source}")
            }
            PipelineError::Compile { source, context } => {
                write!(f, "[compile] {context}: {source}")
            }
            PipelineError::Measure { source, context } => {
                write!(f, "[measure] {context}: {source}")
            }
            PipelineError::NoMeasurablePoint { attempted, context } => write!(
                f,
                "[measure] {context}: none of the {attempted} sweep configurations \
                 produced a measurable point, even with default 32^d tiling"
            ),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Formulate { source, .. } => Some(source),
            PipelineError::Solve { source, .. } => Some(source),
            PipelineError::Compile { source, .. } => Some(source),
            PipelineError::Measure { source, .. } => Some(source),
            PipelineError::NoMeasurablePoint { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_gpusim::FaultKind;

    #[test]
    fn stages_and_context_are_attributed() {
        let e = PipelineError::from_eatss(
            EatssError::Unsatisfiable {
                reason: "empty space".into(),
            },
            "gemm @ split=0.5",
        );
        assert_eq!(e.stage(), PipelineStage::Formulate);
        assert_eq!(e.context(), "gemm @ split=0.5");
        assert!(e.to_string().contains("[formulate]"));
        assert!(e.to_string().contains("empty space"));

        let e = PipelineError::from_eatss(
            EatssError::Solver(SolveError::UnknownVariable("T0".into())),
            "gemm",
        );
        assert_eq!(e.stage(), PipelineStage::Solve);
        assert!(e.source().is_some());

        let e = PipelineError::Measure {
            source: SimFault {
                kernel: "k0".into(),
                kind: FaultKind::LaunchFailure,
            },
            context: "gemm".into(),
        };
        assert_eq!(e.stage(), PipelineStage::Measure);
        assert!(e.to_string().contains("k0"));
    }

    #[test]
    fn no_measurable_point_names_the_count() {
        let e = PipelineError::NoMeasurablePoint {
            attempted: 6,
            context: "gemm".into(),
        };
        assert_eq!(e.stage(), PipelineStage::Measure);
        assert!(e.to_string().contains('6'));
        assert!(e.source().is_none());
    }
}
