//! A from-scratch solver for *non-linear integer* constraint problems over
//! bounded variables — the stand-in for the Z3 SMT solver used by the EATSS
//! paper (CGO 2024, §IV-L).
//!
//! The EATSS tile-size formulations only ever involve a handful of integer
//! variables, each bounded by a small interval (tile sizes live in
//! `[1, T_P_B]` and are multiples of the warp-alignment factor), combined
//! with products, sums and comparisons. Over such *finite* domains a
//! propagation + depth-first branch-and-prune search is sound and complete,
//! so it finds exactly the same satisfiable assignments Z3 would.
//!
//! The solver mirrors the Z3 workflow the paper relies on:
//!
//! * build integer expressions ([`IntExpr`]) and boolean constraints
//!   ([`BoolExpr`]),
//! * [`Solver::assert`] constraints, [`Solver::check`] satisfiability and
//!   read back a [`Model`],
//! * iteratively demand `OBJ > best` and re-solve — the exact §IV-L loop
//!   — via [`Solver::maximize`].
//!
//! # Examples
//!
//! Solving a miniature tile-size problem (a 2-D slice of the paper's matmul
//! formulation from §IV-A):
//!
//! ```
//! use eatss_smt::Solver;
//!
//! let mut s = Solver::new();
//! let ti = s.int_var("Ti", 1, 1024);
//! let tj = s.int_var("Tj", 1, 1024);
//! // Tile sizes are multiples of the warp-alignment factor (16).
//! s.assert(ti.modulo(16).eq_expr(0));
//! s.assert(tj.modulo(16).eq_expr(0));
//! // L1 capacity: Ti*Tj <= 4096 elements.
//! s.assert((ti.clone() * tj.clone()).le(4096));
//! // Maximize the parallelism term.
//! let outcome = s.maximize(&(ti.clone() * tj.clone()))?;
//! let model = outcome.model.expect("formulation is satisfiable");
//! assert_eq!(model.eval(&(ti * tj))?, 4096);
//! # Ok::<(), eatss_smt::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod expr;
mod interval;
mod model;
pub mod reference;
mod search;
mod smtlib;
mod solver;
mod stats;
mod trail;

pub use domain::Domain;
pub use expr::{BoolExpr, CmpOp, IntExpr, VarId};
pub use interval::Interval;
pub use model::Model;
pub use smtlib::to_smtlib;
pub use solver::{
    CancelToken, MaximizeOutcome, SolveError, SolveResult, Solver, SolverConfig, StopReason,
    WarmStart,
};
pub use stats::SolverStats;
