//! Distance-vector dependence analysis.
//!
//! The EATSS objective function needs to know which loop dimensions are
//! parallel (they contribute to the thread-block product) and which are
//! serial (they only affect locality and energy). We compute this with a
//! classical uniform-dependence test that is exact for the benchmark
//! kernels' access patterns and conservative elsewhere:
//!
//! * a pair *(write W, reference R)* on the same array with **identical
//!   linear parts** induces a dependence whose per-dimension distance is
//!   the (divided) offset difference — [`DepDistance::Const`];
//! * dimensions used by *neither* subscript have unknown distance
//!   ([`DepDistance::Star`]), e.g. the reduction dimension `k` of matmul;
//! * pairs with differing linear parts are handled conservatively: every
//!   dimension gets [`DepDistance::Star`].
//!
//! A dimension is **serial** if some dependence may be carried at it.
//! Scanning outer→inner, a `Const(≠0)` distance at an explicit `for seq`
//! dimension is carried by its one-launch-per-iteration order and shields
//! the inner dimensions. At any other dimension a `Const(≠0)` or a `Star`
//! marks the dimension serial and the scan continues: a serial dimension
//! that is not `seq` runs inside each thread, with no barrier between
//! threads, so it carries nothing across the threads of an inner
//! dimension.

use crate::ir::{ArrayRef, Kernel};

/// Per-dimension dependence distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepDistance {
    /// Distance is exactly this constant (0 = loop-independent at this
    /// dimension).
    Const(i64),
    /// Distance is unknown / unconstrained (the dimension indexes neither
    /// reference, or the pair is non-uniform).
    Star,
}

/// A data dependence between a written reference and another reference of
/// the same array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    /// Array the dependence flows through.
    pub array: String,
    /// Distance per loop dimension, outermost first.
    pub distance: Vec<DepDistance>,
    /// Whether this is an accumulation self-dependence (`C[..] += ...`):
    /// it serializes its carrying loop but, being a commutative
    /// reduction, imposes no ordering constraint on loop permutation.
    pub is_reduction: bool,
}

impl Dependence {
    /// Whether every component is `Const(0)` (purely loop-independent).
    pub fn is_all_zero(&self) -> bool {
        self.distance
            .iter()
            .all(|d| matches!(d, DepDistance::Const(0)))
    }
}

/// Computes all (write, ref) dependences of a kernel.
pub fn dependences(kernel: &Kernel) -> Vec<Dependence> {
    let depth = kernel.depth();
    let mut deps = Vec::new();
    for (wi, ws) in kernel.stmts.iter().enumerate() {
        let write = &ws.write;
        for (ri, rs) in kernel.stmts.iter().enumerate() {
            let mut candidates: Vec<&ArrayRef> = Vec::new();
            // Reads of the same array...
            candidates.extend(rs.reads.iter().filter(|r| r.array == write.array));
            // ...the implicit read of an accumulation...
            if ri == wi && ws.is_accumulation {
                candidates.push(write);
            }
            // ...and output dependences with another statement's write.
            if ri != wi && rs.write.array == write.array {
                candidates.push(&rs.write);
            }
            for r in candidates {
                if let Some(distance) = pair_distance(write, r, depth) {
                    let is_reduction = ri == wi && ws.is_accumulation && std::ptr::eq(r, write);
                    let dep = Dependence {
                        array: write.array.clone(),
                        distance,
                        is_reduction,
                    };
                    if !dep.is_all_zero() || ri != wi || is_reduction {
                        // Accumulation self-dependences are kept even with
                        // an all-zero constant part: they are carried by
                        // the unused (reduction) dimensions, already Star.
                        deps.push(dep);
                    }
                }
            }
        }
    }
    deps
}

/// Distance vector for a (write, read) pair, or `None` when the subscript
/// systems can never be equal (no dependence).
fn pair_distance(w: &ArrayRef, r: &ArrayRef, depth: usize) -> Option<Vec<DepDistance>> {
    if w.subscripts.len() != r.subscripts.len() {
        // Shape mismatch (should not happen in well-formed programs);
        // be conservative.
        return Some(vec![DepDistance::Star; depth]);
    }
    let uniform = w
        .subscripts
        .iter()
        .zip(&r.subscripts)
        .all(|(a, b)| a.linear_part() == b.linear_part());
    if !uniform {
        return Some(vec![DepDistance::Star; depth]);
    }
    let mut distance = vec![DepDistance::Star; depth];
    let mut determined = vec![false; depth];
    for (ws, rs) in w.subscripts.iter().zip(&r.subscripts) {
        // A distance past `i64` is none we can state: treat the pair as
        // non-uniform, which is conservative.
        let Some(diff) = ws.offset().checked_sub(rs.offset()) else {
            return Some(vec![DepDistance::Star; depth]);
        };
        let terms = ws.terms();
        match terms.len() {
            0 => {
                // Constant subscript on both sides: unequal constants mean
                // the references never alias through this subscript.
                if diff != 0 {
                    return None;
                }
            }
            1 => {
                let (dim, coeff) = terms[0];
                let (Some(rem), Some(d)) = (diff.checked_rem(coeff), diff.checked_div(coeff))
                else {
                    return Some(vec![DepDistance::Star; depth]);
                };
                if rem != 0 {
                    return None; // offsets unreachable: no dependence
                }
                match distance[dim] {
                    DepDistance::Const(prev) if determined[dim] && prev != d => {
                        // Conflicting requirements: no dependence.
                        return None;
                    }
                    _ => {
                        distance[dim] = DepDistance::Const(d);
                        determined[dim] = true;
                    }
                }
            }
            _ => {
                // Multiple iterators in one subscript (e.g. `in[i+p]`):
                // the distance is under-determined for all of them.
                for &(dim, _) in terms {
                    if !determined[dim] {
                        distance[dim] = DepDistance::Star;
                    }
                }
            }
        }
    }
    Some(distance)
}

/// Classifies each loop dimension as parallel (`true`) or serial
/// (`false`).
///
/// A dimension declared `for seq` is always serial. Otherwise a dimension
/// is serial if some dependence may be carried at it; only a `for seq`
/// dimension shields the dimensions inside it (see the module doc).
///
/// # Examples
///
/// ```
/// use eatss_affine::parser::parse_program;
/// use eatss_affine::analysis::parallel_dims;
///
/// let p = parse_program(
///     "kernel conv(H, W, R, S) {
///        for (i: H) for (j: W) for (p: R) for (q: S)
///          out[i][j] += in[i+p][j+q] * w[p][q];
///      }")?;
/// assert_eq!(parallel_dims(&p.kernels[0]), vec![true, true, false, false]);
/// # Ok::<(), eatss_affine::parser::ParseError>(())
/// ```
pub fn parallel_dims(kernel: &Kernel) -> Vec<bool> {
    let depth = kernel.depth();
    let mut parallel = vec![true; depth];
    for (d, dim) in kernel.dims.iter().enumerate() {
        if dim.explicit_serial {
            parallel[d] = false;
        }
    }
    for dep in dependences(kernel) {
        // Scan outer to inner. Const(0) does not carry here. Const(!=0)
        // carries here; at a `seq` dim (one launch per iteration) that
        // shields the inner dims. Elsewhere, and for Star (may carry), the
        // dim is serial and scanning continues.
        for (d, dist) in dep.distance.iter().enumerate() {
            match dist {
                DepDistance::Const(0) => {}
                DepDistance::Const(_) if kernel.dims[d].explicit_serial => break,
                DepDistance::Const(_) | DepDistance::Star => {
                    parallel[d] = false;
                }
            }
        }
    }
    parallel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn dims_of(src: &str) -> Vec<bool> {
        let p = parse_program(src).expect("valid kernel source");
        parallel_dims(&p.kernels[0])
    }

    #[test]
    fn matmul_reduction_is_serial() {
        let par = dims_of(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        );
        assert_eq!(par, vec![true, true, false]);
    }

    #[test]
    fn copy_kernel_is_fully_parallel() {
        let par = dims_of("kernel copy(N) { for (i: N) for (j: N) A[i][j] = B[i][j]; }");
        assert_eq!(par, vec![true, true]);
    }

    #[test]
    fn jacobi_style_kernel_is_parallel_in_space() {
        // Writes B from A: no self-dependence, i and j parallel.
        let par = dims_of(
            "kernel jac(N) {
               for (i: N) for (j: N)
                 B[i][j] = A[i][j-1] + A[i][j+1] + A[i][j];
             }",
        );
        assert_eq!(par, vec![true, true]);
    }

    #[test]
    fn explicit_seq_forces_serial() {
        let par = dims_of(
            "kernel heat(T, N) {
               for seq (t: T) for (i: N) B[i] = A[i-1] + A[i+1];
             }",
        );
        assert_eq!(par, vec![false, true]);
    }

    #[test]
    fn in_place_stencil_is_serial() {
        // A[i] = A[i-1] + A[i+1]: flow dep distance +1 carried by i.
        let par = dims_of("kernel s(N) { for (i: N) A[i] = A[i-1] + A[i+1]; }");
        assert_eq!(par, vec![false]);
    }

    #[test]
    fn conv2d_reduction_dims_serial() {
        let par = dims_of(
            "kernel conv(H, W, R, S) {
               for (i: H) for (j: W) for (p: R) for (q: S)
                 out[i][j] += in[i+p][j+q] * w[p][q];
             }",
        );
        assert_eq!(par, vec![true, true, false, false]);
    }

    #[test]
    fn mttkrp_two_parallel_two_serial() {
        let par = dims_of(
            "kernel mttkrp(I, J, K, L) {
               for (i: I) for (j: J) for (k: K) for (l: L)
                 A[i][j] += B[i][k][l] * C[k][j] * D[l][j];
             }",
        );
        assert_eq!(par, vec![true, true, false, false]);
    }

    #[test]
    fn mvt_reduction_serial() {
        let par = dims_of(
            "kernel mvt(N) {
               for (i: N) for (j: N) x[i] += A[i][j] * y[j];
             }",
        );
        assert_eq!(par, vec![true, false]);
    }

    #[test]
    fn covariance_update_pattern() {
        let par = dims_of(
            "kernel cov(M, N) {
               for (i: M) for (j: M) for (k: N)
                 cov[i][j] += data[k][i] * data[k][j];
             }",
        );
        assert_eq!(par, vec![true, true, false]);
    }

    #[test]
    fn a_serial_dim_inside_the_thread_does_not_shield_a_racing_dim() {
        // k runs inside each thread with no barrier, so distance (1, −1)
        // is carried across the threads of i as well.
        let skewm = "kernel skewm(N) {
               for (k: N) for (i: N) A[i][k] = A[i+1][k-1] + 1.0;
             }";
        assert_eq!(dims_of(skewm), vec![false, false]);
        // One launch per k carries the distance: i is parallel.
        let launched = "kernel skewm(N) {
               for seq (k: N) for (i: N) A[i][k] = A[i+1][k-1] + 1.0;
             }";
        assert_eq!(dims_of(launched), vec![false, true]);
        // Every i writes A[k]: i is serial beside the carried k.
        let shared = "kernel sh(N) {
               for (k: N) for (i: N) A[k] = A[k-1] + B[i];
             }";
        assert_eq!(dims_of(shared), vec![false, false]);
    }

    #[test]
    fn output_dependence_between_statements() {
        // Both statements write A[i]; zero distance => no serialization.
        let par = dims_of(
            "kernel w2(N) {
               for (i: N) {
                 A[i] = B[i];
                 A[i] = C[i];
               }
             }",
        );
        assert_eq!(par, vec![true]);
    }

    #[test]
    fn nonuniform_pair_is_conservative() {
        // A[2*i] written, A[i] read: non-uniform => Star => serial.
        let par = dims_of("kernel nu(N) { for (i: N) A[2*i] = A[i] + 1; }");
        assert_eq!(par, vec![false]);
    }

    #[test]
    fn offset_difference_past_i64_is_conservative() {
        // MAX − (−MAX) does not fit an i64: the pair is non-uniform.
        let par = dims_of(
            "kernel ovf(N) {
               for (i: N) A[i + 9223372036854775807] = A[i - 9223372036854775807] + 1;
             }",
        );
        assert_eq!(par, vec![false]);
    }

    #[test]
    fn unreachable_offsets_mean_no_dependence() {
        // A[2*i] vs A[2*i+1]: parity differs, never alias.
        let par = dims_of("kernel par(N) { for (i: N) A[2*i] = A[2*i+1] + 1; }");
        assert_eq!(par, vec![true]);
        let deps = dependences(
            &parse_program("kernel par(N) { for (i: N) A[2*i] = A[2*i+1] + 1; }")
                .unwrap()
                .kernels[0],
        );
        assert!(deps.is_empty());
    }

    #[test]
    fn constant_subscript_conflict_means_no_dependence() {
        let par = dims_of("kernel c(N) { for (i: N) A[0][i] = A[1][i] + 1; }");
        assert_eq!(par, vec![true]);
    }

    #[test]
    fn dependences_reports_reduction_star() {
        let p = parse_program(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        )
        .unwrap();
        let deps = dependences(&p.kernels[0]);
        assert_eq!(deps.len(), 1);
        assert_eq!(
            deps[0].distance,
            vec![
                DepDistance::Const(0),
                DepDistance::Const(0),
                DepDistance::Star
            ]
        );
        assert!(!deps[0].is_all_zero());
    }
}
