//! Tile-size configurations.
//!
//! Tiling rewrites a depth-`L` nest into `L` *tile loops* (stepping by the
//! tile size) around `L` *point loops* (bounded by `min(N, t + T)` guards),
//! exactly as in Fig. 4 of the paper. Nothing in this crate performs that
//! rewrite: a tiling here is a [`TileConfig`] checked against a nest's
//! depth ([`TileConfig::validate_for`]); the PPCG stand-in's GPU mapper
//! and code generator give it its loop structure.

use std::error::Error;
use std::fmt;

/// Errors from constructing a tiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilingError {
    /// Number of tile sizes does not match the loop depth.
    WrongArity {
        /// Loop-nest depth.
        expected: usize,
        /// Number of tile sizes supplied.
        got: usize,
    },
    /// A tile size was zero or negative.
    NonPositiveTile {
        /// Dimension of the offending size.
        dim: usize,
        /// The offending value.
        value: i64,
    },
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::WrongArity { expected, got } => {
                write!(f, "expected {expected} tile sizes, got {got}")
            }
            TilingError::NonPositiveTile { dim, value } => {
                write!(
                    f,
                    "tile size for dimension {dim} must be positive, got {value}"
                )
            }
        }
    }
}

impl Error for TilingError {}

/// A tile-size configuration: one size per loop dimension, outermost
/// first.
///
/// # Examples
///
/// ```
/// use eatss_affine::tiling::TileConfig;
///
/// let cfg = TileConfig::new(vec![32, 64, 16]);
/// assert_eq!(cfg.sizes(), &[32, 64, 16]);
/// // The paper's default-PPCG baseline is 32^d.
/// assert_eq!(TileConfig::ppcg_default(3).sizes(), &[32, 32, 32]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TileConfig {
    sizes: Vec<i64>,
}

impl TileConfig {
    /// Creates a configuration from explicit sizes.
    pub fn new(sizes: Vec<i64>) -> Self {
        TileConfig { sizes }
    }

    /// The paper's default PPCG configuration: `32^depth`.
    pub fn ppcg_default(depth: usize) -> Self {
        TileConfig {
            sizes: vec![32; depth],
        }
    }

    /// The tile sizes, outermost dimension first.
    pub fn sizes(&self) -> &[i64] {
        &self.sizes
    }

    /// Number of dimensions covered.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether no sizes are present.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The first `depth` sizes, for applying a program-wide configuration
    /// to a shallower kernel (2mm shares one triple across both matmuls).
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the configuration length.
    pub fn truncated(&self, depth: usize) -> TileConfig {
        TileConfig {
            sizes: self.sizes[..depth].to_vec(),
        }
    }

    /// Checks that this configuration can tile a depth-`depth` nest: one
    /// positive size per dimension.
    ///
    /// Tile sizes larger than a dimension's trip count are legal (the
    /// point loop's `min` guard clips them), matching PPCG.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError`] on arity mismatch or non-positive sizes.
    pub fn validate_for(&self, depth: usize) -> Result<(), TilingError> {
        if self.len() != depth {
            return Err(TilingError::WrongArity {
                expected: depth,
                got: self.len(),
            });
        }
        match self.sizes.iter().position(|&value| value <= 0) {
            Some(dim) => Err(TilingError::NonPositiveTile {
                dim,
                value: self.sizes[dim],
            }),
            None => Ok(()),
        }
    }
}

impl fmt::Display for TileConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.sizes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

/// Ceiling division for positive divisors.
pub fn div_ceil(n: i64, d: i64) -> i64 {
    debug_assert!(d > 0, "div_ceil requires a positive divisor");
    (n + d - 1).div_euclid(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_positivity_are_validated() {
        assert_eq!(
            TileConfig::new(vec![32, 32]).validate_for(3),
            Err(TilingError::WrongArity {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            TileConfig::new(vec![32, 0, 32]).validate_for(3),
            Err(TilingError::NonPositiveTile { dim: 1, value: 0 })
        );
        // Oversized tiles are legal: the point loops clip them.
        assert_eq!(TileConfig::new(vec![1024, 1, 7]).validate_for(3), Ok(()));
    }

    #[test]
    fn display_and_default() {
        let cfg = TileConfig::ppcg_default(2);
        assert_eq!(cfg.to_string(), "(32, 32)");
        assert!(!cfg.is_empty());
        assert_eq!(cfg.truncated(1).sizes(), &[32]);
    }

    #[test]
    fn div_ceil_edge_cases() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(4, 4), 1);
        assert_eq!(div_ceil(5, 4), 2);
    }
}
