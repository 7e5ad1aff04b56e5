//! CUDA-C code generation for tiled affine kernels.
//!
//! Emits the code PPCG would produce for our mappings: a `__global__`
//! kernel per affine kernel with block/thread index decoding, serial tile
//! loops, `min` guards (Fig. 4 of the paper), `__shared__` staging with
//! `__syncthreads()` barriers, and a host-side launch stub.
//!
//! The output is *illustrative but well-formed* C: the reproduction has no
//! CUDA toolchain, so the text is exercised by structural tests and kept
//! deterministic for golden comparisons.

use crate::mapping::GpuMapping;
use eatss_affine::analysis::AccessAnalysis;
use eatss_affine::ir::Kernel;
use eatss_affine::tiling::TileConfig;
use std::fmt::Write as _;

/// File header for a compiled program.
pub fn program_header(name: &str, tiles: &TileConfig) -> String {
    format!(
        "// Generated by eatss-ppcg (PPCG stand-in)\n\
         // program: {name}\n\
         // tile sizes: {tiles}\n\
         #include <cuda_runtime.h>\n\
         #define min(a, b) ((a) < (b) ? (a) : (b))\n\n"
    )
}

/// Emits the `__global__` kernel and a host launch stub for one mapping
/// of `kernel`, computed from its access analysis `analysis`.
pub fn emit_kernel(kernel: &Kernel, analysis: &AccessAnalysis, mapping: &GpuMapping) -> String {
    let names = kernel.dim_names();
    let mut out = String::new();
    let dim_letters = ["x", "y", "z"];

    // --- kernel signature ------------------------------------------------
    let scalar = |name: &str| {
        kernel
            .unique_refs()
            .iter()
            .any(|r| &*r.array == name && r.subscripts.is_empty())
    };
    let mut params: Vec<String> = kernel
        .array_names()
        .iter()
        .map(|a| {
            if scalar(a) {
                format!("double {a}")
            } else {
                format!("double *{a}")
            }
        })
        .collect();
    params.extend(kernel.params().iter().map(|p| format!("int {p}")));
    // Time-loop iterators are per-launch values: the host's time loop
    // passes the current step so statements indexing it stay defined.
    for (d, dim) in kernel.dims.iter().enumerate() {
        if dim.explicit_serial {
            params.push(format!("long t{}", names[d]));
        }
    }
    let _ = writeln!(
        out,
        "__global__ void {}_kernel({}) {{",
        kernel.name,
        params.join(", ")
    );

    // --- shared memory declarations ---------------------------------------
    for r in &mapping.refs {
        if r.staged {
            let _ = writeln!(
                out,
                "  __shared__ double {}_tile[{}];",
                r.group_in(analysis).array(),
                r.tile_footprint_elems
            );
        }
    }

    // --- block decoding -----------------------------------------------------
    // Each block owns a whole tile along its mapped dims; threads then
    // sweep the tile's points cyclically (see the point loops below), so
    // tiles larger than the block still get every point computed.
    for (pos, &d) in mapping.mapped_dims.iter().enumerate() {
        let _ = writeln!(
            out,
            "  int b{0} = blockIdx.{1} * {2}; // {0} tile origin (BID.{1})",
            names[d],
            dim_letters[pos],
            mapping.tiles.sizes()[d]
        );
    }

    // --- serial tile loops --------------------------------------------------
    let mut indent = String::from("  ");
    let mut closes = 0;
    for (d, dim) in kernel.dims.iter().enumerate() {
        if mapping.mapped_dims.contains(&d) || dim.explicit_serial {
            continue;
        }
        let tile = mapping.tiles.sizes()[d];
        let _ = writeln!(
            out,
            "{indent}for (int t{n} = 0; t{n} < {e}; t{n} += {tile}) {{",
            n = names[d],
            e = dim.extent
        );
        indent.push_str("  ");
        closes += 1;
    }

    // staging loads
    let staged: Vec<&str> = mapping
        .refs
        .iter()
        .filter(|r| r.staged)
        .map(|r| r.group_in(analysis).array())
        .collect();
    if !staged.is_empty() {
        for a in &staged {
            let _ = writeln!(out, "{indent}// cooperative load of {a} into {a}_tile");
        }
        let _ = writeln!(out, "{indent}__syncthreads();");
    }

    // --- point loops (per-thread multiplicity + serial points) -------------
    let mut point_closes = 0;
    for (d, dim) in kernel.dims.iter().enumerate() {
        if mapping.mapped_dims.contains(&d) || dim.explicit_serial {
            continue;
        }
        let tile = mapping.tiles.sizes()[d];
        let _ = writeln!(
            out,
            "{indent}for (int {n} = t{n}; {n} < min({e}, t{n} + {tile}); {n}++) {{",
            n = names[d],
            e = dim.extent
        );
        indent.push_str("  ");
        point_closes += 1;
    }
    // Cyclic point loops over the mapped dims: each thread starts at its
    // coordinate inside the tile and strides by the block extent, so every
    // tile point is covered even when the tile exceeds the thread extent,
    // and the `min` bound guards ragged edges. x (mapped_dims[0]) innermost.
    for (pos, &d) in mapping.mapped_dims.iter().enumerate().rev() {
        let tile = mapping.tiles.sizes()[d];
        let _ = writeln!(
            out,
            "{indent}for (int t{n} = b{n} + threadIdx.{l}; t{n} < min({e}, b{n} + {tile}); t{n} += {te}) {{",
            n = names[d],
            l = dim_letters[pos],
            e = kernel.dims[d].extent,
            te = mapping.thread_extents[pos]
        );
        indent.push_str("  ");
        point_closes += 1;
    }

    // --- statements ---------------------------------------------------------
    // Iterator names: mapped dims use the thread-decoded t<name>.
    let subst: Vec<String> = (0..kernel.depth())
        .map(|d| {
            if mapping.mapped_dims.contains(&d) || kernel.dims[d].explicit_serial {
                format!("t{}", names[d])
            } else {
                names[d].clone()
            }
        })
        .collect();
    for s in &kernel.stmts {
        let lhs = s.write.display_with(&subst);
        let op = if s.is_accumulation { "+=" } else { "=" };
        let rhs = s.rhs.display_with(&s.reads, &subst);
        let _ = writeln!(out, "{indent}{lhs} {op} {rhs};");
    }

    // close point loops + guards
    for _ in 0..point_closes {
        indent.truncate(indent.len() - 2);
        let _ = writeln!(out, "{indent}}}");
    }
    if !staged.is_empty() {
        let _ = writeln!(out, "{indent}__syncthreads();");
    }
    for _ in 0..closes {
        indent.truncate(indent.len() - 2);
        let _ = writeln!(out, "{indent}}}");
    }
    let _ = writeln!(out, "}}\n");

    // --- host stub ------------------------------------------------------------
    let grid = mapping
        .grid_extents
        .iter()
        .map(|g| g.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let block = mapping
        .thread_extents
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "// launch: dim3 grid({grid}); dim3 block({block}); \
         {launches} launch(es), {points} point(s)/thread, {sh} B shared\n",
        launches = mapping.launch_count,
        points = mapping.points_per_thread,
        sh = mapping.shared_bytes
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{CompileOptions, GpuMapping};
    use eatss_affine::parser::parse_program;
    use eatss_affine::ProblemSizes;
    use eatss_gpusim::GpuArch;

    fn emit(src: &str, tiles: Vec<i64>, sizes: &[(&str, i64)]) -> String {
        let p = parse_program(src).unwrap();
        let k = &p.kernels[0];
        let analysis = AccessAnalysis::analyze(k);
        let m = GpuMapping::compute(
            k,
            &analysis,
            &TileConfig::new(tiles),
            &GpuArch::ga100(),
            &ProblemSizes::new(sizes.iter().cloned()),
            &CompileOptions::default(),
        )
        .unwrap();
        emit_kernel(k, &analysis, &m)
    }

    const MM: &str = "kernel mm(M, N, P) {
        for (i: M) for (j: N) for (k: P)
          C[i][j] += A[i][k] * B[k][j];
      }";

    #[test]
    fn kernel_structure() {
        let cuda = emit(
            MM,
            vec![32, 64, 16],
            &[("M", 2000), ("N", 2000), ("P", 2000)],
        );
        assert!(cuda.contains(
            "__global__ void mm_kernel(double *C, double *A, double *B, int M, int N, int P)"
        ));
        // x = j, y = i.
        assert!(cuda.contains("int bj = blockIdx.x * 64; // j tile origin (BID.x)"));
        assert!(cuda.contains("int bi = blockIdx.y * 32; // i tile origin (BID.y)"));
        // Serial k tile loop with min guard point loop.
        assert!(cuda.contains("for (int tk = 0; tk < P; tk += 16)"));
        assert!(cuda.contains("for (int k = tk; k < min(P, tk + 16); k++)"));
        // Cyclic point loops over mapped dims (x innermost), min-guarded.
        assert!(cuda.contains("for (int ti = bi + threadIdx.y; ti < min(M, bi + 32); ti += 16) {"));
        assert!(cuda.contains("for (int tj = bj + threadIdx.x; tj < min(N, bj + 64); tj += 32) {"));
        assert!(!cuda.contains("if ("));
        // Statement with substituted iterators.
        assert!(cuda.contains("C[ti][tj] += (A[ti][k] * B[k][tj]);"));
        // Staging of A.
        assert!(cuda.contains("__shared__ double A_tile["));
        assert!(cuda.contains("__syncthreads();"));
        // Balanced braces.
        assert_eq!(
            cuda.matches('{').count(),
            cuda.matches('}').count(),
            "unbalanced braces in:\n{cuda}"
        );
    }

    #[test]
    fn no_staging_no_shared_decl() {
        let p =
            parse_program("kernel copy(N) { for (i: N) for (j: N) A[i][j] = B[i][j]; }").unwrap();
        let analysis = AccessAnalysis::analyze(&p.kernels[0]);
        let m = GpuMapping::compute(
            &p.kernels[0],
            &analysis,
            &TileConfig::ppcg_default(2),
            &GpuArch::ga100(),
            &ProblemSizes::new([("N", 1000)]),
            &CompileOptions::default(),
        )
        .unwrap();
        let cuda = emit_kernel(&p.kernels[0], &analysis, &m);
        assert!(!cuda.contains("__shared__"));
        assert!(!cuda.contains("__syncthreads"));
        assert_eq!(cuda.matches('{').count(), cuda.matches('}').count());
    }

    #[test]
    fn header_mentions_program_and_tiles() {
        let h = program_header("2mm", &TileConfig::new(vec![8, 16, 32]));
        assert!(h.contains("program: 2mm"));
        assert!(h.contains("(8, 16, 32)"));
        assert!(h.contains("#include <cuda_runtime.h>"));
    }

    #[test]
    fn launch_stub_reports_geometry() {
        let cuda = emit(
            MM,
            vec![16, 384, 16],
            &[("M", 4000), ("N", 4000), ("P", 4000)],
        );
        assert!(cuda.contains("dim3 grid("));
        assert!(cuda.contains("point(s)/thread"));
    }

    #[test]
    fn deterministic_output() {
        let a = emit(MM, vec![32, 32, 32], &[("M", 500), ("N", 500), ("P", 500)]);
        let b = emit(MM, vec![32, 32, 32], &[("M", 500), ("N", 500), ("P", 500)]);
        assert_eq!(a, b);
    }

    #[test]
    fn mapped_point_loops_cover_full_tile() {
        // Regression: tiles wider than the thread extent used to emit a
        // single point per thread (`tj = blockIdx.x * tile + threadIdx.x`),
        // silently dropping every point past the first block-width.
        let cuda = emit(
            MM,
            vec![16, 384, 16],
            &[("M", 4000), ("N", 4000), ("P", 4000)],
        );
        assert!(
            cuda.contains("for (int tj = bj + threadIdx.x; tj < min(N, bj + 384); tj += 32) {"),
            "thread must stride across the whole 384-wide tile:\n{cuda}"
        );
        assert!(!cuda.contains("blockIdx.x * 384 + threadIdx.x"));
    }

    #[test]
    fn time_dims_become_kernel_params() {
        // Regression: statements substitute `t<name>` for explicit-serial
        // (time) dims, but the iterator was never declared in the kernel.
        let cuda = emit(
            "kernel jac1d(TSTEPS, N) {
               for seq (t: TSTEPS) for (i: N)
                 B[i] = A[i-1] + A[i] + A[i+1];
             }",
            vec![1, 32],
            &[("TSTEPS", 50), ("N", 1000)],
        );
        assert!(
            cuda.contains("long tt"),
            "time iterator must be a kernel parameter:\n{cuda}"
        );
        assert!(cuda.contains("B[ti] = "));
        assert_eq!(cuda.matches('{').count(), cuda.matches('}').count());
    }

    #[test]
    fn stencil_offsets_render() {
        let cuda = emit(
            "kernel jac(N) {
               for (i: N) for (j: N)
                 B[i][j] = A[i][j-1] + A[i][j+1];
             }",
            vec![32, 32],
            &[("N", 1000)],
        );
        assert!(cuda.contains("A[ti][tj-1]"));
        assert!(cuda.contains("A[ti][tj+1]"));
    }
}
