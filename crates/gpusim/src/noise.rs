//! Deterministic measurement jitter.
//!
//! Real power/performance measurements carry a few percent of run-to-run
//! variation; the paper averages 100 runs per variant. We model the
//! *residual* variation as a deterministic, zero-centered multiplicative
//! factor derived from a hash of the launch configuration — experiments
//! are exactly reproducible while the tile-space plots keep a realistic
//! scatter.

/// One FNV-1a absorption step over a 64-bit word (little-endian bytes).
pub fn fnv_step(h: u64, v: u64) -> u64 {
    eatss_trace::fnv1a64_from(h, &v.to_le_bytes())
}

/// Mixes a seed and a salt into a uniform value in `[-1, 1]`.
pub fn signed_unit(seed: u64, salt: u64) -> f64 {
    let mut h = fnv_step(eatss_trace::FNV1A64_OFFSET, seed);
    h = fnv_step(h, salt);
    // xorshift finalizer for avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    2.0 * unit - 1.0
}

/// Multiplicative jitter factor `1 + amplitude·u`, `u ∈ [-1, 1]`.
pub fn jitter(seed: u64, salt: u64, amplitude: f64) -> f64 {
    1.0 + amplitude * signed_unit(seed, salt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_unit_is_in_range_and_deterministic() {
        for salt in 0..1000 {
            let v = signed_unit(42, salt);
            assert!((-1.0..=1.0).contains(&v));
            assert_eq!(v.to_bits(), signed_unit(42, salt).to_bits());
        }
    }

    #[test]
    fn signed_unit_is_roughly_centered() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|s| signed_unit(7, s)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a: Vec<f64> = (0..100).map(|s| signed_unit(1, s)).collect();
        let b: Vec<f64> = (0..100).map(|s| signed_unit(2, s)).collect();
        let same = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| (**x - **y).abs() < 1e-12)
            .count();
        assert!(same < 3);
    }

    #[test]
    fn jitter_stays_within_amplitude() {
        for salt in 0..100 {
            let j = jitter(9, salt, 0.03);
            assert!((0.97..=1.03).contains(&j));
        }
    }
}
