//! A from-scratch solver for *non-linear integer* constraint problems over
//! bounded variables — the stand-in for the Z3 SMT solver used by the EATSS
//! paper (CGO 2024, §IV-L).
//!
//! The EATSS tile-size formulations only ever involve a handful of integer
//! variables, each over a small finite domain (tile sizes live in
//! `[1, T_P_B]`, and the domain holds only the multiples of the
//! warp-alignment factor), and one shape of constraint: a *capacity row*
//! `Σ c·Π T ≤ cap` — a sum of products of non-negative constants and
//! distinct tile variables, bounded by a constant — under an objective
//! that is such a sum too. That is the solver's whole language, and the
//! one its expressions are written in: an [`IntExpr`] is a row, multiplied
//! out as it is built, and [`IntExpr::le`] bounds it by a constant.
//! [`Solver::maximize`] refuses a row with a negative constant, a repeated
//! factor or a variable that may be negative with [`SolveError::NotARow`],
//! and a conjunction is one assertion per conjunct. Over such *finite*
//! domains a propagation + depth-first branch-and-prune search is sound
//! and complete, so it finds exactly the optimum Z3 would.
//!
//! The solver mirrors the Z3 workflow the paper relies on:
//!
//! * build rows ([`IntExpr`]: a constant plus terms `c·Π T`) and capacity
//!   constraints ([`BoolExpr`]: a row `≤` a constant),
//! * [`Solver::assert`] the constraints,
//! * iteratively demand `OBJ > best` and re-solve — the exact §IV-L loop
//!   — via [`Solver::maximize`], and read back a [`Model`];
//! * ask whether the optimum is the only one ([`Solver::other_optimum`]).
//!
//! # Examples
//!
//! Solving a miniature tile-size problem (a 2-D slice of the paper's matmul
//! formulation from §IV-A):
//!
//! ```
//! use eatss_smt::{Domain, Solver};
//!
//! let mut s = Solver::new();
//! // Tile sizes are multiples of the warp-alignment factor (16): that is
//! // their domain, not a constraint.
//! let aligned = || Domain::from_values((1..=64).map(|k| 16 * k).collect());
//! let ti = s.int_var_in("Ti", aligned());
//! let tj = s.int_var_in("Tj", aligned());
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
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod domain;
mod expr;
mod interval;
mod model;
pub mod reference;
mod row;
mod search;
mod smtlib;
mod solver;
mod stats;
mod trail;

pub use domain::Domain;
pub use expr::{BoolExpr, IntExpr, VarId};
pub use interval::Interval;
pub use model::Model;
pub use smtlib::to_smtlib;
pub use solver::{
    CancelToken, MaximizeOutcome, SolveError, Solver, SolverConfig, StopReason, WarmStart,
};
pub use stats::SolverStats;
