//! Tile-space enumeration for the paper's exploratory studies.
//!
//! §II explores 3,375 variants of 2mm (15 candidate sizes per dimension,
//! cubed); §V-B uses 200–800 variants per benchmark depending on loop
//! dimensionality. [`TileSpace`] reproduces those grids.

use eatss_affine::tiling::TileConfig;

/// A Cartesian tile-size space: the same candidate list per dimension.
///
/// # Examples
///
/// ```
/// use eatss_ppcg::TileSpace;
///
/// // The paper's 2mm motivation study: 15^3 = 3,375 variants.
/// let space = TileSpace::motivation_grid(3);
/// assert_eq!(space.len(), 3375);
/// let first = space.iter().next().expect("non-empty space");
/// assert_eq!(first.sizes().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSpace {
    depth: usize,
    candidates: Vec<i64>,
}

/// The 15 candidate tile sizes of the §II exploration.
pub const MOTIVATION_CANDIDATES: [i64; 15] = [
    4, 8, 16, 24, 32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 512,
];

impl TileSpace {
    /// Space over explicit candidates.
    pub fn new(depth: usize, candidates: Vec<i64>) -> Self {
        TileSpace { depth, candidates }
    }

    /// The §II motivation grid: 15 candidates per dimension.
    pub fn motivation_grid(depth: usize) -> Self {
        TileSpace::new(depth, MOTIVATION_CANDIDATES.to_vec())
    }

    /// The §V-B evaluation grid: size chosen by dimensionality so the
    /// space holds roughly 200–800 variants (15² = 225 for 2-D, 9³ = 729
    /// for 3-D, 5⁴ = 625 for 4-D, 4⁵ = 1024-capped for 5-D).
    pub fn evaluation_grid(depth: usize) -> Self {
        let candidates: Vec<i64> = match depth {
            0 | 1 => vec![4, 8, 16, 32, 64, 128, 256, 512, 1024],
            2 => MOTIVATION_CANDIDATES.to_vec(),
            3 => vec![4, 8, 16, 32, 64, 128, 256, 384, 512],
            4 => vec![4, 8, 16, 32, 64],
            _ => vec![4, 8, 16, 32],
        };
        TileSpace::new(depth, candidates)
    }

    /// Number of configurations in the space.
    pub fn len(&self) -> usize {
        self.candidates.len().pow(self.depth as u32)
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over every configuration in row-major (last dimension
    /// fastest) order.
    pub fn iter(&self) -> impl Iterator<Item = TileConfig> + '_ {
        (0..self.len()).map(|index| self.at(index))
    }

    /// The `i`-th configuration (same order as [`TileSpace::iter`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn config(&self, index: usize) -> TileConfig {
        assert!(index < self.len(), "tile-space index out of range");
        self.at(index)
    }

    /// The `index`-th configuration, `index < len()`: its digits in base
    /// `candidates.len()`, the last dimension fastest.
    fn at(&self, mut index: usize) -> TileConfig {
        let n = self.candidates.len();
        let mut sizes = vec![0i64; self.depth];
        for size in sizes.iter_mut().rev() {
            *size = self.candidates[index % n];
            index /= n;
        }
        TileConfig::new(sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivation_space_is_3375_for_depth_3() {
        let s = TileSpace::motivation_grid(3);
        assert_eq!(s.len(), 3375);
        assert_eq!(s.iter().count(), 3375);
    }

    #[test]
    fn evaluation_spaces_match_paper_scale() {
        // §V-A: "approximately 200-800 variants, depending on the maximum
        // loop dimensionality".
        for depth in 2..=5 {
            let n = TileSpace::evaluation_grid(depth).len();
            assert!((200..=1100).contains(&n), "depth {depth}: {n} variants");
        }
    }

    #[test]
    fn iter_is_exhaustive_and_unique() {
        let s = TileSpace::new(2, vec![1, 2, 3]);
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all.len(), 9);
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
        assert_eq!(all[0].sizes(), &[1, 1]);
        assert_eq!(all[1].sizes(), &[1, 2]); // last dim fastest
        assert_eq!(all[8].sizes(), &[3, 3]);
    }

    #[test]
    fn config_indexing_matches_iter() {
        let s = TileSpace::new(3, vec![4, 8]);
        for (i, cfg) in s.iter().enumerate() {
            assert_eq!(s.config(i), cfg);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn config_out_of_range_panics() {
        TileSpace::new(1, vec![4]).config(1);
    }

    #[test]
    fn empty_depth_zero_space() {
        let s = TileSpace::new(0, vec![4, 8]);
        assert_eq!(s.len(), 1); // the empty configuration
        assert!(!s.is_empty());
        assert_eq!(s.iter().next().unwrap().sizes().len(), 0);
    }
}
