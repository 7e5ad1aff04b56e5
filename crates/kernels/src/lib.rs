//! The benchmark suite of the EATSS paper: a Polybench/C 3.2 subset plus
//! the three non-Polybench kernels (conv-2d, heat-3d, mttkrp), declared
//! in the `eatss-affine` dialect with the paper's dataset scheme
//! (STANDARD for the Xavier, EXTRALARGE for the GA100 — §V-A).
//!
//! # Examples
//!
//! ```
//! use eatss_kernels::{by_name, Dataset};
//!
//! let gemm = by_name("gemm").expect("gemm is in the registry");
//! let program = gemm.program()?;
//! assert_eq!(program.kernels.len(), 1);
//! let sizes = gemm.sizes(Dataset::ExtraLarge);
//! assert_eq!(sizes.get("NI"), Some(4000));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sources;

use eatss_affine::parser::{parse_named_program, ParseError};
use eatss_affine::{ProblemSizes, Program};
use std::fmt;

/// Computational class of a benchmark (the paper's "expected results"
/// taxonomy in §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Dense linear algebra with O(n) reuse and ≥ 2 parallel loops
    /// (BLAS3-like: gemm, 2mm, 3mm, covariance, correlation).
    Blas3,
    /// Low-dimensional kernels with O(1) reuse (atax, bicg, mvt, gemver).
    LowDim,
    /// Iterative stencils (jacobi-1d/2d, fdtd-2d, fdtd-apml).
    Stencil,
    /// High-dimensional (4-D+) non-Polybench kernels (conv-2d, heat-3d,
    /// mttkrp).
    HighDim,
}

impl fmt::Display for KernelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelClass::Blas3 => "BLAS3",
            KernelClass::LowDim => "low-dim",
            KernelClass::Stencil => "stencil",
            KernelClass::HighDim => "high-dim",
        };
        f.write_str(s)
    }
}

/// Dataset size, per §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Polybench STANDARD — used on the Jetson AGX Xavier.
    Standard,
    /// Polybench EXTRALARGE — used on the GA100.
    ExtraLarge,
}

/// A benchmark: source text, class, and dataset bindings.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name (e.g. `2mm`).
    pub name: &'static str,
    /// Computational class.
    pub class: KernelClass,
    /// Whether it belongs to Polybench (vs. the §V-D case study).
    pub polybench: bool,
    /// Source in the affine dialect.
    pub source: &'static str,
    standard: &'static [(&'static str, i64)],
    extra_large: &'static [(&'static str, i64)],
}

impl Benchmark {
    /// Parses the benchmark into an affine [`Program`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] — only possible if the embedded source is
    /// corrupted, which the test suite rules out.
    pub fn program(&self) -> Result<Program, ParseError> {
        parse_named_program(self.name, self.source)
    }

    /// Problem sizes for a dataset.
    pub fn sizes(&self, dataset: Dataset) -> ProblemSizes {
        let pairs = match dataset {
            Dataset::Standard => self.standard,
            Dataset::ExtraLarge => self.extra_large,
        };
        ProblemSizes::new(pairs.iter().map(|&(k, v)| (k, v)))
    }

    /// Problem sizes with every size parameter (not time steps) set to
    /// `n` — used by the §V-F input-size sensitivity study.
    pub fn sizes_uniform(&self, n: i64) -> ProblemSizes {
        let mut sizes = self.sizes(Dataset::ExtraLarge);
        let params: Vec<String> = sizes
            .iter()
            .map(|(k, _)| k.to_owned())
            .filter(|k| k != "TSTEPS")
            .collect();
        for p in params {
            sizes.set(p, n);
        }
        sizes
    }
}

macro_rules! benchmarks {
    ($( { $name:literal, $class:ident, $poly:literal, $src:ident,
          std: [$(($sk:literal, $sv:literal)),* $(,)?],
          xl:  [$(($xk:literal, $xv:literal)),* $(,)?] } ),* $(,)?) => {
        /// All benchmarks of the evaluation, Polybench first.
        pub fn all() -> Vec<Benchmark> {
            vec![$(
                Benchmark {
                    name: $name,
                    class: KernelClass::$class,
                    polybench: $poly,
                    source: sources::$src,
                    standard: &[$(($sk, $sv)),*],
                    extra_large: &[$(($xk, $xv)),*],
                },
            )*]
        }
    };
}

benchmarks![
    { "gemm", Blas3, true, GEMM,
      std: [("NI", 1024), ("NJ", 1024), ("NK", 1024)],
      xl:  [("NI", 4000), ("NJ", 4000), ("NK", 4000)] },
    { "2mm", Blas3, true, TWO_MM,
      std: [("NI", 1024), ("NJ", 1024), ("NK", 1024), ("NL", 1024)],
      xl:  [("NI", 4000), ("NJ", 4000), ("NK", 4000), ("NL", 4000)] },
    { "3mm", Blas3, true, THREE_MM,
      std: [("NI", 1024), ("NJ", 1024), ("NK", 1024), ("NL", 1024), ("NM", 1024)],
      xl:  [("NI", 4000), ("NJ", 4000), ("NK", 4000), ("NL", 4000), ("NM", 4000)] },
    { "covariance", Blas3, true, COVARIANCE,
      std: [("M", 1024), ("N", 1024)],
      xl:  [("M", 2600), ("N", 3000)] },
    { "correlation", Blas3, true, CORRELATION,
      std: [("M", 1024), ("N", 1024)],
      xl:  [("M", 2600), ("N", 3000)] },
    { "atax", LowDim, true, ATAX,
      std: [("NX", 4000), ("NY", 4000)],
      xl:  [("NX", 18000), ("NY", 18000)] },
    { "bicg", LowDim, true, BICG,
      std: [("NX", 4000), ("NY", 4000)],
      xl:  [("NX", 18000), ("NY", 18000)] },
    { "mvt", LowDim, true, MVT,
      std: [("N", 4000)],
      xl:  [("N", 16000)] },
    { "gemver", LowDim, true, GEMVER,
      std: [("N", 4000)],
      xl:  [("N", 13000)] },
    { "jacobi-1d", Stencil, true, JACOBI_1D,
      std: [("TSTEPS", 100), ("N", 100000)],
      xl:  [("TSTEPS", 500), ("N", 2000000)] },
    { "jacobi-2d", Stencil, true, JACOBI_2D,
      std: [("TSTEPS", 20), ("N", 1300)],
      xl:  [("TSTEPS", 100), ("N", 2800)] },
    { "fdtd-2d", Stencil, true, FDTD_2D,
      std: [("TSTEPS", 50), ("NX", 1000), ("NY", 1200)],
      xl:  [("TSTEPS", 100), ("NX", 2600), ("NY", 3000)] },
    { "fdtd-apml", Stencil, true, FDTD_APML,
      std: [("CZ", 64), ("CYM", 64), ("CXM", 64)],
      xl:  [("CZ", 256), ("CYM", 256), ("CXM", 256)] },
    { "syrk", Blas3, true, SYRK,
      std: [("N", 1024), ("M", 1024)],
      xl:  [("N", 4000), ("M", 4000)] },
    { "syr2k", Blas3, true, SYR2K,
      std: [("N", 1024), ("M", 1024)],
      xl:  [("N", 4000), ("M", 4000)] },
    { "gesummv", LowDim, true, GESUMMV,
      std: [("N", 4000)],
      xl:  [("N", 14000)] },
    { "doitgen", HighDim, true, DOITGEN,
      std: [("NR", 128), ("NQ", 128), ("NP", 128)],
      xl:  [("NR", 220), ("NQ", 220), ("NP", 270)] },
    { "b2mm", HighDim, false, B2MM,
      std: [("BA", 8), ("BB", 8), ("NI", 128), ("NJ", 128), ("NK", 128)],
      xl:  [("BA", 16), ("BB", 16), ("NI", 256), ("NJ", 256), ("NK", 256)] },
    { "conv-2d", HighDim, false, CONV_2D,
      std: [("H", 96), ("W", 96), ("R", 16), ("S", 16)],
      xl:  [("H", 192), ("W", 192), ("R", 32), ("S", 32)] },
    { "heat-3d", HighDim, false, HEAT_3D,
      std: [("TSTEPS", 20), ("N", 64)],
      xl:  [("TSTEPS", 100), ("N", 200)] },
    { "mttkrp", HighDim, false, MTTKRP,
      std: [("I", 128), ("J", 128), ("K", 128), ("L", 128)],
      xl:  [("I", 256), ("J", 256), ("K", 256), ("L", 256)] },
];

/// The Polybench subset of the suite.
pub fn polybench() -> Vec<Benchmark> {
    all().into_iter().filter(|b| b.polybench).collect()
}

/// Exactly the three non-Polybench kernels of the paper's §V-D case
/// study (conv-2d, heat-3d, mttkrp).
pub fn case_study() -> Vec<Benchmark> {
    ["conv-2d", "heat-3d", "mttkrp"]
        .into_iter()
        .map(|n| by_name(n).expect("case-study kernels are registered"))
        .collect()
}

/// Looks a benchmark up by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_affine::analysis::parallel_dims;

    #[test]
    fn every_benchmark_parses() {
        for b in all() {
            let p = b.program().unwrap_or_else(|e| {
                panic!("benchmark `{}` failed to parse: {e}", b.name)
            });
            assert!(!p.kernels.is_empty(), "{}", b.name);
        }
    }

    #[test]
    fn registry_counts() {
        assert_eq!(polybench().len(), 17);
        assert_eq!(case_study().len(), 3);
        assert_eq!(all().len(), 21);
        assert!(by_name("gemm").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_benchmark_has_bound_sizes() {
        for b in all() {
            let p = b.program().unwrap();
            for ds in [Dataset::Standard, Dataset::ExtraLarge] {
                let sizes = b.sizes(ds);
                let flops = p.total_flops(&sizes).unwrap_or_else(|missing| {
                    panic!("`{}` has unbound parameter {missing} for {ds:?}", b.name)
                });
                assert!(flops > 0, "{} has zero flops", b.name);
            }
        }
    }

    #[test]
    fn extralarge_is_larger_than_standard() {
        for b in all() {
            let p = b.program().unwrap();
            let std = p.total_flops(&b.sizes(Dataset::Standard)).unwrap();
            let xl = p.total_flops(&b.sizes(Dataset::ExtraLarge)).unwrap();
            assert!(xl > std, "{}: XL ({xl}) <= STANDARD ({std})", b.name);
        }
    }

    #[test]
    fn every_kernel_has_a_parallel_dim() {
        for b in all() {
            let p = b.program().unwrap();
            for k in &p.kernels {
                let par = parallel_dims(k);
                assert!(
                    par.iter().any(|&x| x),
                    "kernel `{}` of `{}` has no parallel dim: {par:?}",
                    k.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn blas3_kernels_have_two_parallel_dims() {
        for b in all().into_iter().filter(|b| b.class == KernelClass::Blas3) {
            let p = b.program().unwrap();
            // The main kernel (deepest) must have ≥ 2 parallel dims and a
            // serial reduction.
            let k = p
                .kernels
                .iter()
                .max_by_key(|k| k.depth())
                .expect("non-empty program");
            let par = parallel_dims(k);
            assert!(par.iter().filter(|&&x| x).count() >= 2, "{}", b.name);
            assert!(par.iter().any(|&x| !x), "{} lacks a reduction dim", b.name);
        }
    }

    #[test]
    fn stencils_have_serial_time_loop_or_multiple_kernels() {
        for b in all().into_iter().filter(|b| b.class == KernelClass::Stencil) {
            let p = b.program().unwrap();
            let time_looped = p
                .kernels
                .iter()
                .any(|k| k.dims.iter().any(|d| d.explicit_serial));
            assert!(
                time_looped || p.kernels.len() > 1,
                "{} is not an iterative stencil",
                b.name
            );
        }
    }

    #[test]
    fn highdim_kernels_are_4d() {
        for b in all().into_iter().filter(|b| !b.polybench) {
            let p = b.program().unwrap();
            let depth = p.max_depth();
            assert!(depth >= 4, "{} has depth {depth}, expected 4+", b.name);
        }
    }

    #[test]
    fn gemm_flop_count_matches_2n3() {
        let b = by_name("gemm").unwrap();
        let p = b.program().unwrap();
        let sizes = b.sizes(Dataset::Standard);
        // alpha*A*B accumulate: 3 flops per iteration in our counting.
        let n = 1024f64;
        let expected = 3.0 * n * n * n;
        assert_eq!(p.total_flops(&sizes).unwrap() as f64, expected);
    }

    #[test]
    fn two_mm_is_two_kernels_3mm_three() {
        assert_eq!(by_name("2mm").unwrap().program().unwrap().kernels.len(), 2);
        assert_eq!(by_name("3mm").unwrap().program().unwrap().kernels.len(), 3);
    }

    #[test]
    fn sizes_uniform_overrides_space_params_only() {
        let b = by_name("jacobi-2d").unwrap();
        let s = b.sizes_uniform(500);
        assert_eq!(s.get("N"), Some(500));
        assert_eq!(s.get("TSTEPS"), Some(100), "TSTEPS preserved");
    }

    #[test]
    fn class_display() {
        assert_eq!(KernelClass::Blas3.to_string(), "BLAS3");
        assert_eq!(KernelClass::HighDim.to_string(), "high-dim");
    }
}
