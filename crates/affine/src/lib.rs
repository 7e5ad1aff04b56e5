//! Affine-program intermediate representation and polyhedral-style
//! analyses for the EATSS reproduction (CGO 2024).
//!
//! This crate is the stand-in for the isl/pet front-end machinery the
//! paper's toolchain (PPCG) relies on. It provides:
//!
//! * an [`ir`] module with the affine loop-nest IR ([`Kernel`],
//!   [`Statement`], [`ArrayRef`], [`AffineExpr`]),
//! * a [`parser`] for a small affine-C dialect in which all benchmark
//!   kernels are declared,
//! * [`analysis`] passes: dependence-based loop parallelism (§IV-K "via
//!   dependence analysis ... loops are identified as parallel or serial"),
//!   access-pattern classification (Table II: CMA capability, temporal /
//!   spatial reuse), the CMA loop selection of §IV-D, the L1 / shared-memory
//!   reference split of §IV-E, distinct-cache-line reference counting
//!   (§IV-G) and the `H_i` objective weights of §IV-K,
//! * [`tiling`]: tile-size configurations and their validation against
//!   a nest (the GPU mapper and code generator in `eatss-ppcg` give a
//!   configuration its loop structure),
//! * an [`interp`]reter giving the IR an executable semantics — the
//!   side of the `eatss-ppcg` execution oracle that says what a program
//!   computes,
//! * a [`pretty`]-printer that round-trips with the parser.
//!
//! # Examples
//!
//! ```
//! use eatss_affine::parser::parse_program;
//! use eatss_affine::analysis::parallel_dims;
//!
//! let src = "
//!     kernel matmul(M, N, P) {
//!       for (i: M) for (j: N) for (k: P)
//!         Out[i][j] += In[i][k] * Ker[k][j];
//!     }";
//! let program = parse_program(src)?;
//! let kernel = &program.kernels[0];
//! // i and j are parallel; k carries the reduction.
//! assert_eq!(parallel_dims(kernel), vec![true, true, false]);
//! # Ok::<(), eatss_affine::parser::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod interp;
pub mod ir;
pub mod parser;
pub mod plan;
pub mod pretty;
pub mod tiling;

pub use ir::{AffineExpr, ArrayRef, Extent, Kernel, LoopDim, ProblemSizes, Program, Statement};
