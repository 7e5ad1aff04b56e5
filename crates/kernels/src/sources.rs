//! Benchmark kernels in the affine dialect.
//!
//! The sources mirror the Polybench/C 3.2 computations the paper
//! evaluates, restricted to their dominant (tiled) loop nests. Iterative
//! stencils carry their time loop as `for seq (t: TSTEPS)`; multi-nest
//! programs (2mm, fdtd-2d, ...) are expressed as one kernel per nest, the
//! way PPCG launches them.

/// gemm: `C += alpha·A·B` (the `beta·C` scaling is folded into the
/// accumulation — it is O(n²) and does not affect tiling).
pub const GEMM: &str = "
kernel gemm(NI, NJ, NK) {
  for (i: NI) for (j: NJ) for (k: NK)
    C[i][j] += alpha * A[i][k] * B[k][j];
}";

/// 2mm: two back-to-back matrix multiplications.
pub const TWO_MM: &str = "
kernel mm1(NI, NJ, NK) {
  for (i: NI) for (j: NJ) for (k: NK)
    tmp[i][j] += alpha * A[i][k] * B[k][j];
}
kernel mm2(NI, NL, NJ) {
  for (i: NI) for (j: NL) for (k: NJ)
    D[i][j] += tmp[i][k] * C[k][j];
}";

/// 3mm: three matrix multiplications, `G = (A·B)·(C·D)`.
pub const THREE_MM: &str = "
kernel mm1(NI, NJ, NK) {
  for (i: NI) for (j: NJ) for (k: NK)
    E[i][j] += A[i][k] * B[k][j];
}
kernel mm2(NJ, NL, NM) {
  for (i: NJ) for (j: NL) for (k: NM)
    F[i][j] += C[i][k] * D[k][j];
}
kernel mm3(NI, NL, NJ) {
  for (i: NI) for (j: NL) for (k: NJ)
    G[i][j] += E[i][k] * F[k][j];
}";

/// covariance: mean subtraction is O(n²); the dominant nest is the
/// symmetric rank-k-like update.
pub const COVARIANCE: &str = "
kernel mean(M, N) {
  for (j: M) for (i: N)
    mean[j] += data[i][j];
}
kernel cov(M, N) {
  for (i: M) for (j: M) for (k: N)
    cov[i][j] += data[k][i] * data[k][j];
}";

/// correlation: same dominant structure as covariance plus stddev
/// normalization.
pub const CORRELATION: &str = "
kernel stddev(M, N) {
  for (j: M) for (i: N)
    stddev[j] += data[i][j] * data[i][j];
}
kernel corr(M, N) {
  for (i: M) for (j: M) for (k: N)
    corr[i][j] += data[k][i] * data[k][j];
}";

/// atax: `y = Aᵀ(Ax)`.
pub const ATAX: &str = "
kernel atax1(NX, NY) {
  for (i: NX) for (j: NY)
    tmp[i] += A[i][j] * x[j];
}
kernel atax2(NX, NY) {
  for (i: NX) for (j: NY)
    y[j] += A[i][j] * tmp[i];
}";

/// bicg: the BiCG sub-kernels `s = rᵀA`, `q = Ap`.
pub const BICG: &str = "
kernel bicg1(NX, NY) {
  for (i: NX) for (j: NY)
    s[j] += r[i] * A[i][j];
}
kernel bicg2(NX, NY) {
  for (i: NX) for (j: NY)
    q[i] += A[i][j] * p[j];
}";

/// mvt: `x1 += A·y1`, `x2 += Aᵀ·y2`.
pub const MVT: &str = "
kernel mvt1(N) {
  for (i: N) for (j: N)
    x1[i] += A[i][j] * y1[j];
}
kernel mvt2(N) {
  for (i: N) for (j: N)
    x2[i] += A[j][i] * y2[j];
}";

/// gemver: rank-2 update followed by two matrix-vector products.
pub const GEMVER: &str = "
kernel rank2(N) {
  for (i: N) for (j: N)
    A[i][j] = A[i][j] + u1[i] * v1[j] + u2[i] * v2[j];
}
kernel mvx(N) {
  for (i: N) for (j: N)
    x[i] += beta * A[j][i] * y[j];
}
kernel mvw(N) {
  for (i: N) for (j: N)
    w[i] += alpha * A[i][j] * x[j];
}";

/// jacobi-1d: 3-point stencil, ping-pong buffers.
pub const JACOBI_1D: &str = "
kernel jac1d_a(TSTEPS, N) {
  for seq (t: TSTEPS) for (i: N)
    B[i] = 0.33333 * (A[i-1] + A[i] + A[i+1]);
}
kernel jac1d_b(TSTEPS, N) {
  for seq (t: TSTEPS) for (i: N)
    A[i] = 0.33333 * (B[i-1] + B[i] + B[i+1]);
}";

/// jacobi-2d: 5-point stencil, ping-pong buffers.
pub const JACOBI_2D: &str = "
kernel jac2d_a(TSTEPS, N) {
  for seq (t: TSTEPS) for (i: N) for (j: N)
    B[i][j] = 0.2 * (A[i][j] + A[i][j-1] + A[i][j+1] + A[i+1][j] + A[i-1][j]);
}
kernel jac2d_b(TSTEPS, N) {
  for seq (t: TSTEPS) for (i: N) for (j: N)
    A[i][j] = 0.2 * (B[i][j] + B[i][j-1] + B[i][j+1] + B[i+1][j] + B[i-1][j]);
}";

/// fdtd-2d: the three field updates of each time step.
pub const FDTD_2D: &str = "
kernel fdtd_ey(TSTEPS, NX, NY) {
  for seq (t: TSTEPS) for (i: NX) for (j: NY)
    ey[i][j] = ey[i][j] - 0.5 * (hz[i][j] - hz[i-1][j]);
}
kernel fdtd_ex(TSTEPS, NX, NY) {
  for seq (t: TSTEPS) for (i: NX) for (j: NY)
    ex[i][j] = ex[i][j] - 0.5 * (hz[i][j] - hz[i][j-1]);
}
kernel fdtd_hz(TSTEPS, NX, NY) {
  for seq (t: TSTEPS) for (i: NX) for (j: NY)
    hz[i][j] = hz[i][j] - 0.7 * (ex[i][j+1] - ex[i][j] + ey[i+1][j] - ey[i][j]);
}";

/// fdtd-apml: representative 3-D anisotropic-PML update (the Polybench
/// kernel's dominant nest: many operands, one stencil dependence on the
/// innermost dimension handled by separate launches).
pub const FDTD_APML: &str = "
kernel apml_bza(CZ, CYM, CXM) {
  for (iz: CZ) for (iy: CYM) for (ix: CXM)
    Bza[iz][iy][ix] = tmp[iz][iy][ix] + Hz[iz][iy][ix] * czp[iz];
}
kernel apml_hz(CZ, CYM, CXM) {
  for (iz: CZ) for (iy: CYM) for (ix: CXM)
    Hz[iz][iy][ix] = Hz[iz][iy][ix] + cxmh[ix] * (Ex[iz][iy][ix] - Ey[iz][iy][ix]) + Bza[iz][iy][ix];
}";

/// conv-2d: direct 2-D convolution (the §V-D computer-vision kernel).
pub const CONV_2D: &str = "
kernel conv2d(H, W, R, S) {
  for (i: H) for (j: W) for (p: R) for (q: S)
    out[i][j] += in[i+p][j+q] * w[p][q];
}";

/// heat-3d: 7-point 3-D stencil over time, ping-pong buffers (4-D nest).
pub const HEAT_3D: &str = "
kernel heat3d_a(TSTEPS, N) {
  for seq (t: TSTEPS) for (i: N) for (j: N) for (k: N)
    B[i][j][k] = 0.125 * (A[i+1][j][k] - 2.0 * A[i][j][k] + A[i-1][j][k])
               + 0.125 * (A[i][j+1][k] - 2.0 * A[i][j][k] + A[i][j-1][k])
               + 0.125 * (A[i][j][k+1] - 2.0 * A[i][j][k] + A[i][j][k-1])
               + A[i][j][k];
}
kernel heat3d_b(TSTEPS, N) {
  for seq (t: TSTEPS) for (i: N) for (j: N) for (k: N)
    A[i][j][k] = 0.125 * (B[i+1][j][k] - 2.0 * B[i][j][k] + B[i-1][j][k])
               + 0.125 * (B[i][j+1][k] - 2.0 * B[i][j][k] + B[i][j-1][k])
               + 0.125 * (B[i][j][k+1] - 2.0 * B[i][j][k] + B[i][j][k-1])
               + B[i][j][k];
}";

/// syrk: symmetric rank-k update `C += alpha·A·Aᵀ` (rectangular
/// iteration space — the affine dialect has no triangular bounds).
pub const SYRK: &str = "
kernel syrk(N, M) {
  for (i: N) for (j: N) for (k: M)
    C[i][j] += alpha * A[i][k] * A[j][k];
}";

/// syr2k: symmetric rank-2k update.
pub const SYR2K: &str = "
kernel syr2k(N, M) {
  for (i: N) for (j: N) for (k: M)
    C[i][j] += alpha * A[i][k] * B[j][k] + alpha * B[i][k] * A[j][k];
}";

/// gesummv: scalar, vector and matrix multiplication
/// `y = alpha·A·x + beta·B·x`.
pub const GESUMMV: &str = "
kernel gesummv(N) {
  for (i: N) for (j: N)
    y[i] += alpha * A[i][j] * x[j] + beta * B[i][j] * x[j];
}";

/// doitgen: multi-resolution analysis kernel (4-D nest).
pub const DOITGEN: &str = "
kernel doitgen(NR, NQ, NP) {
  for (r: NR) for (q: NQ) for (p: NP) for (s: NP)
    sum[r][q][p] += A[r][q][s] * C4[s][p];
}";

/// b2mm: doubly-batched matrix multiplication — a 5-D affine nest used to
/// exercise the solver's 5-D class (§V-G groups formulations by loop
/// depth up to 5-D).
pub const B2MM: &str = "
kernel b2mm(BA, BB, NI, NJ, NK) {
  for (a: BA) for (b: BB) for (i: NI) for (j: NJ) for (k: NK)
    C[a][b][i][j] += A[a][b][i][k] * B[k][j];
}";

/// mttkrp: matricized tensor times Khatri–Rao product (§V-D).
pub const MTTKRP: &str = "
kernel mttkrp(I, J, K, L) {
  for (i: I) for (j: J) for (k: K) for (l: L)
    A[i][j] += B[i][k][l] * C[k][j] * D[l][j];
}";

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_affine::parser::parse_program;

    #[test]
    fn heat3d_is_a_single_statement_per_kernel() {
        let p = parse_program(HEAT_3D).unwrap();
        assert_eq!(p.kernels.len(), 2);
        for k in &p.kernels {
            assert_eq!(k.stmts.len(), 1);
            assert_eq!(k.depth(), 4);
            // 7-point stencil reads + center reads.
            assert!(k.stmts[0].reads.len() >= 7);
        }
    }

    #[test]
    fn fdtd_2d_has_three_field_kernels() {
        let p = parse_program(FDTD_2D).unwrap();
        assert_eq!(p.kernels.len(), 3);
        assert!(p.kernels.iter().all(|k| k.dims[0].explicit_serial));
    }

    #[test]
    fn mttkrp_reads_three_operands() {
        let p = parse_program(MTTKRP).unwrap();
        let s = &p.kernels[0].stmts[0];
        assert_eq!(s.reads.len(), 3);
        assert_eq!(s.reads[0].subscripts.len(), 3, "B is a 3-way tensor");
    }

    #[test]
    fn mvt_second_kernel_is_transposed() {
        let p = parse_program(MVT).unwrap();
        let a = &p.kernels[1].stmts[0].reads[0];
        assert_eq!(&*a.array, "A");
        // A[j][i]: first subscript uses dim 1 (j).
        assert!(a.subscripts[0].uses(1));
        assert!(a.subscripts[1].uses(0));
    }
}
