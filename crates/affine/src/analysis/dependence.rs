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
//!   dimension gets [`DepDistance::Star`];
//! * a write against itself (an output dependence) has distance `Const(0)`
//!   at each dimension the written element determines and `Star` at every
//!   other non-`seq` dimension, e.g. both `i` and `j` of `A[i+j]`.
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

/// Marks the dimensions at which the pair *(write `w`, reference `r`)*
/// may carry a dependence: `distance` is their distance vector, or the
/// pair is skipped when the subscript systems can never be equal.
fn add_pair(
    kernel: &Kernel,
    w: &ArrayRef,
    r: &ArrayRef,
    distance: &mut [DepDistance],
    parallel: &mut [bool],
) {
    if pair_distance(w, r, distance) {
        carry(kernel, distance, parallel);
    }
}

/// Writes the distance vector of a (write, read) pair into `distance`;
/// `false` when the subscript systems can never be equal (no dependence).
fn pair_distance(w: &ArrayRef, r: &ArrayRef, distance: &mut [DepDistance]) -> bool {
    distance.fill(DepDistance::Star);
    if w.subscripts.len() != r.subscripts.len() {
        // Shape mismatch (should not happen in well-formed programs);
        // be conservative.
        return true;
    }
    let uniform = (w.subscripts.iter())
        .zip(&r.subscripts)
        .all(|(a, b)| a.terms() == b.terms());
    if !uniform {
        return true;
    }
    // A dimension's distance is `Const` once a one-term subscript has
    // determined it, and `Star` until then.
    for (ws, rs) in w.subscripts.iter().zip(&r.subscripts) {
        // A distance past `i64` is none we can state: treat the pair as
        // non-uniform, which is conservative.
        let Some(diff) = ws.offset().checked_sub(rs.offset()) else {
            distance.fill(DepDistance::Star);
            return true;
        };
        match ws.terms() {
            // Constant subscript on both sides: unequal constants mean the
            // references never alias through this subscript.
            [] if diff != 0 => return false,
            [] => {}
            &[(dim, coeff)] => {
                let (Some(rem), Some(d)) = (diff.checked_rem(coeff), diff.checked_div(coeff))
                else {
                    distance.fill(DepDistance::Star);
                    return true;
                };
                if rem != 0 {
                    return false; // offsets unreachable: no dependence
                }
                match distance[dim] {
                    // Conflicting requirements: no dependence.
                    DepDistance::Const(prev) if prev != d => return false,
                    _ => distance[dim] = DepDistance::Const(d),
                }
            }
            // Multiple iterators in one subscript (e.g. `in[i+p]`): the
            // distance is under-determined for all of them, and stays
            // `Star` unless another subscript determines it.
            _ => {}
        }
    }
    true
}

/// The output dependence of a write with itself: two iterations write
/// one element when they agree on every dimension its subscripts
/// determine, so the write carries a dependence at every other non-`seq`
/// dimension — one it does not use, or one it uses only where it is not
/// injective (`A[i+j]`). A dimension is determined when some subscript's
/// only undetermined term is it (`B[i][j+i]` determines `i`, then `j`); a
/// `seq` dimension orders its iterations by launches and counts as
/// determined. Writes `Const(0)` at the determined dimensions and `Star`
/// elsewhere into `distance`.
fn self_output(kernel: &Kernel, write: &ArrayRef, distance: &mut [DepDistance]) {
    for (slot, dim) in distance.iter_mut().zip(&kernel.dims) {
        *slot = if dim.explicit_serial {
            DepDistance::Const(0)
        } else {
            DepDistance::Star
        };
    }
    let mut determined_one = true;
    while determined_one {
        determined_one = false;
        for s in &write.subscripts {
            let mut open = (s.terms().iter()).filter(|&&(d, _)| distance[d] == DepDistance::Star);
            if let (Some(&(dim, _)), None) = (open.next(), open.next()) {
                distance[dim] = DepDistance::Const(0);
                determined_one = true;
            }
        }
    }
}

/// Marks serial the dimensions at which a dependence of distance
/// `distance` may be carried. Scan outer to inner. Const(0) does not
/// carry here. Const(!=0) carries here; at a `seq` dim (one launch per
/// iteration) that shields the inner dims. Elsewhere, and for Star (may
/// carry), the dim is serial and scanning continues.
fn carry(kernel: &Kernel, distance: &[DepDistance], parallel: &mut [bool]) {
    for (d, dist) in distance.iter().enumerate() {
        match dist {
            DepDistance::Const(0) => {}
            DepDistance::Const(_) if kernel.dims[d].explicit_serial => break,
            DepDistance::Const(_) | DepDistance::Star => parallel[d] = false,
        }
    }
}

/// Classifies each loop dimension as parallel (`true`) or serial
/// (`false`).
///
/// A dimension declared `for seq` is always serial. Otherwise a dimension
/// is serial if some dependence may be carried at it; only a `for seq`
/// dimension shields the dimensions inside it (see the module doc). The
/// dependences are those of each write with every read of its array, with
/// the other statements' writes of it, with its own implicit read when it
/// accumulates, and with itself; each pair's distance is folded into the
/// classification as it is found.
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
    let mut parallel: Vec<bool> = kernel.dims.iter().map(|d| !d.explicit_serial).collect();
    let mut distance = vec![DepDistance::Star; kernel.depth()];
    for (wi, ws) in kernel.stmts.iter().enumerate() {
        let write = &ws.write;
        self_output(kernel, write, &mut distance);
        carry(kernel, &distance, &mut parallel);
        for (ri, rs) in kernel.stmts.iter().enumerate() {
            // Reads of the same array...
            for r in rs.reads.iter().filter(|r| r.array == write.array) {
                add_pair(kernel, write, r, &mut distance, &mut parallel);
            }
            // ...the implicit read of an accumulation...
            if ri == wi && ws.is_accumulation {
                add_pair(kernel, write, write, &mut distance, &mut parallel);
            }
            // ...and output dependences with another statement's write.
            if ri != wi && rs.write.array == write.array {
                add_pair(kernel, write, &rs.write, &mut distance, &mut parallel);
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
    fn a_write_depends_on_itself_where_two_points_write_one_element() {
        // Every i writes A[k]: i is serial, in either loop order.
        let omitted = "kernel w(N) { for (i: N) for (k: N) A[k] = B[i] + 1.0; }";
        assert_eq!(dims_of(omitted), vec![false, true]);
        let swapped = "kernel w(N) { for (k: N) for (i: N) A[k] = B[i] + 1.0; }";
        assert_eq!(dims_of(swapped), vec![true, false]);
        // A[i+j] is written by every (i, j) of one antidiagonal.
        let summed = "kernel w(N) { for (i: N) for (j: N) A[i+j] = B[i][j] + 1.0; }";
        assert_eq!(dims_of(summed), vec![false, false]);
        // One launch per i: then j alone determines the element.
        let launched = "kernel w(N) { for seq (i: N) for (j: N) A[i+j] = B[i][j] + 1.0; }";
        assert_eq!(dims_of(launched), vec![false, true]);
        // i determines the row, then j the column: one point per element.
        let sheared = "kernel w(N) { for (i: N) for (j: N) B[i][j+i] = A[i][j]; }";
        assert_eq!(dims_of(sheared), vec![true, true]);
        // A constant element is written by every point.
        let constant = "kernel w(N) { for (i: N) A[0] = B[i]; }";
        assert_eq!(dims_of(constant), vec![false]);
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
        let src = "kernel par(N) { for (i: N) A[2*i] = A[2*i+1] + 1; }";
        assert_eq!(dims_of(src), vec![true]);
        let p = parse_program(src).unwrap();
        let s = &p.kernels[0].stmts[0];
        let mut distance = [DepDistance::Star];
        assert!(!pair_distance(&s.write, &s.reads[0], &mut distance));
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
        let write = &p.kernels[0].stmts[0].write;
        let mut distance = [DepDistance::Const(7); 3];
        assert!(pair_distance(write, write, &mut distance));
        assert_eq!(
            distance,
            [
                DepDistance::Const(0),
                DepDistance::Const(0),
                DepDistance::Star
            ]
        );
    }
}
