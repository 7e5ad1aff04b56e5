//! Statistics helpers used by the experiment harness: Pearson
//! correlation (Fig. 9), medians/percentiles (Fig. 7 tables),
//! Freedman–Diaconis histogram binning (Fig. 11).

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median (interpolated for even lengths; 0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p ∈ [0, 100]` (0 for an empty slice).
/// Values are ranked by [`f64::total_cmp`], so a NaN ranks above every
/// number (below, if its sign bit is set) instead of panicking.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Pearson's correlation coefficient of two equal-length samples.
///
/// Returns 0 when either sample is degenerate (zero variance or fewer
/// than two points).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use eatss_gpusim::stats::pearson;
///
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.1, 4.0, 6.2, 7.9];
/// assert!(pearson(&x, &y) > 0.99);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson needs equal-length samples");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        0.0
    } else {
        sxy / (sxx.sqrt() * syy.sqrt())
    }
}

/// Freedman–Diaconis bin width: `2·IQR·n^(-1/3)` — the estimator the
/// paper uses for the Fig. 11 histograms "to take data variability and
/// data sizes into account". Only the finite samples count: NaN and ±∞
/// are dropped before the quartiles are taken.
pub fn fd_bin_width(xs: &[f64]) -> f64 {
    let xs = &finite(xs);
    if xs.len() < 2 {
        return 1.0;
    }
    let iqr = percentile(xs, 75.0) - percentile(xs, 25.0);
    let w = 2.0 * iqr / (xs.len() as f64).cbrt();
    if w <= 0.0 {
        // Degenerate IQR: fall back to the full range or unity.
        let range = percentile(xs, 100.0) - percentile(xs, 0.0);
        if range > 0.0 {
            range / (xs.len() as f64).sqrt().max(1.0)
        } else {
            1.0
        }
    } else {
        w
    }
}

/// One histogram bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge (inclusive for the last bin).
    pub hi: f64,
    /// Number of samples inside.
    pub count: usize,
}

/// The finite samples of `xs`, in order.
fn finite(xs: &[f64]) -> Vec<f64> {
    xs.iter().copied().filter(|x| x.is_finite()).collect()
}

/// Histogram with Freedman–Diaconis bin widths over the finite samples
/// of `xs`: NaN and ±∞ fall in no bin, so `Σ count` is the number of
/// finite samples (empty when there are none).
pub fn fd_histogram(xs: &[f64]) -> Vec<Bin> {
    let xs = &finite(xs);
    if xs.is_empty() {
        return Vec::new();
    }
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let width = fd_bin_width(xs);
    let nbins = (((hi - lo) / width).ceil() as usize).clamp(1, 512);
    let width = (hi - lo) / nbins as f64;
    let mut bins: Vec<Bin> = (0..nbins)
        .map(|i| Bin {
            lo: lo + i as f64 * width.max(f64::MIN_POSITIVE),
            hi: lo + (i + 1) as f64 * width.max(f64::MIN_POSITIVE),
            count: 0,
        })
        .collect();
    for &x in xs {
        let idx = if width > 0.0 {
            (((x - lo) / width) as usize).min(nbins - 1)
        } else {
            0
        };
        bins[idx].count += 1;
    }
    bins
}

/// Geometric mean of positive samples (0 if empty; panics on
/// non-positive input in debug builds).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    debug_assert!(xs.iter().all(|&x| x > 0.0), "geomean needs positive inputs");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_percentile() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        let odd = [5.0, 1.0, 3.0];
        assert!((median(&odd) - 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_anti_correlation() {
        let x = [1.0, 2.0, 3.0];
        let y = [10.0, 20.0, 30.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_uncorrelated_is_small() {
        // Deterministic pseudo-random pairing.
        let x: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let y: Vec<f64> = (0..1000).map(|i| ((i * 61) % 103) as f64).collect();
        assert!(pearson(&x, &y).abs() < 0.15);
    }

    #[test]
    fn fd_width_shrinks_with_sample_count() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let large: Vec<f64> = (0..10_000).map(|i| (i % 10) as f64).collect();
        assert!(fd_bin_width(&large) < fd_bin_width(&small));
    }

    /// A NaN must neither land in a bin (`NaN as usize` is 0) nor move
    /// the quartiles: only the finite samples are binned.
    #[test]
    fn fd_histogram_bins_only_the_finite_samples() {
        let with_nan = [1.0, f64::NAN, 2.0, 4.0, f64::NAN];
        let bins = fd_histogram(&with_nan);
        assert_eq!(bins.iter().map(|b| b.count).sum::<usize>(), 3);
        assert_eq!(bins, fd_histogram(&[1.0, 2.0, 4.0]));

        let nan = f64::NAN;
        let ten = [1.0, nan, 2.0, 4.0, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let finite: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(fd_bin_width(&ten), fd_bin_width(&finite));
        let bins = fd_histogram(&ten);
        assert_eq!(bins.iter().map(|b| b.count).sum::<usize>(), 9);
        assert_eq!(bins, fd_histogram(&finite));
        assert_eq!(bins.len(), 3);

        assert!(fd_histogram(&[f64::NAN, f64::INFINITY]).is_empty());
        assert_eq!(fd_bin_width(&[f64::NAN, f64::NAN]), 1.0);
    }

    #[test]
    fn fd_histogram_covers_all_samples() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let bins = fd_histogram(&xs);
        assert!(!bins.is_empty());
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, xs.len());
        // Bins are contiguous.
        for w in bins.windows(2) {
            assert!((w[0].hi - w[1].lo).abs() < 1e-9);
        }
    }

    #[test]
    fn fd_histogram_degenerate_inputs() {
        assert!(fd_histogram(&[]).is_empty());
        let constant = vec![5.0; 100];
        let bins = fd_histogram(&constant);
        assert_eq!(bins.iter().map(|b| b.count).sum::<usize>(), 100);
    }

    #[test]
    fn geomean_of_ratios() {
        let xs = [2.0, 8.0];
        assert!((geomean(&xs) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn nan_samples_rank_last_instead_of_panicking() {
        assert_eq!(median(&[1.0, f64::NAN, 2.0]), 2.0);
        assert!(percentile(&[f64::NAN, 3.0], 100.0).is_nan());
    }
}
