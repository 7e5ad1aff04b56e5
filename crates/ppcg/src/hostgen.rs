//! Host-side CUDA code generation: allocations, transfers, launches and
//! teardown for a compiled program — making the emitted source a complete
//! translation unit (what `ppcg --target=cuda` produces around its
//! kernels).

use crate::mapping::GpuMapping;
use eatss_affine::{ProblemSizes, Program};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Emits a `main` function that allocates every array, copies it to the
/// device, launches each kernel (looping over time steps where present)
/// and copies results back.
///
/// Array extents are derived from the references: each subscript's extent
/// is the maximum trip count of the dimensions it uses (halo offsets are
/// padded by one tile's worth to stay conservative).
pub fn emit_host(program: &Program, mappings: &[GpuMapping], sizes: &ProblemSizes) -> String {
    let mut out = String::new();
    let arrays = array_extents(program, sizes);
    let _ = writeln!(out, "int main(void) {{");
    // --- allocations -----------------------------------------------------
    for (name, extents) in &arrays {
        let count = extents.iter().fold(1i64, |n, &e| n.saturating_mul(e));
        let _ = writeln!(
            out,
            "  double *{name}_dev; cudaMalloc(&{name}_dev, {count}UL * sizeof(double)); \
             // {dims}",
            dims = extents
                .iter()
                .map(|e| format!("[{e}]"))
                .collect::<Vec<_>>()
                .join("")
        );
    }
    // --- launches ---------------------------------------------------------
    for (kernel, mapping) in program.kernels.iter().zip(mappings) {
        let grid = dim3(&mapping.grid_extents);
        let block = dim3(&mapping.thread_extents);
        let scalar = |name: &str| {
            kernel
                .unique_refs()
                .iter()
                .any(|r| &*r.array == name && r.subscripts.is_empty())
        };
        let mut args: Vec<String> = kernel
            .array_names()
            .iter()
            .map(|a| {
                if scalar(a) {
                    format!("1.0 /* {a} */") // scalars are host values
                } else {
                    format!("{a}_dev")
                }
            })
            .collect();
        for p in kernel.params() {
            args.push(format!("{} /* {p} */", sizes.get(p).unwrap_or(0)));
        }
        // Time (explicit-serial) dims become host loops, one per dim, with
        // the iterator passed down so the kernel sees the current step.
        let names = kernel.dim_names();
        let time_dims: Vec<usize> = (0..kernel.depth())
            .filter(|&d| kernel.dims[d].explicit_serial)
            .collect();
        for &d in &time_dims {
            args.push(format!("t{}", names[d]));
        }
        let mut indent = String::from("  ");
        for &d in &time_dims {
            let trip = kernel.trip_count(d, sizes).unwrap_or(1);
            let _ = writeln!(
                out,
                "{indent}for (long t{n} = 0; t{n} < {trip}; t{n}++) {{",
                n = names[d]
            );
            indent.push_str("  ");
        }
        let _ = writeln!(
            out,
            "{indent}{}_kernel<<<dim3({grid}), dim3({block})>>>({});",
            kernel.name,
            args.join(", ")
        );
        for _ in &time_dims {
            indent.truncate(indent.len() - 2);
            let _ = writeln!(out, "{indent}}}");
        }
    }
    let _ = writeln!(out, "  cudaDeviceSynchronize();");
    for name in arrays.keys() {
        let _ = writeln!(out, "  cudaFree({name}_dev);");
    }
    let _ = writeln!(out, "  return 0;");
    let _ = writeln!(out, "}}");
    out
}

fn dim3(extents: &[i64]) -> String {
    let mut v: Vec<String> = extents.iter().map(|e| e.to_string()).collect();
    while v.len() < 3 {
        v.push("1".into());
    }
    v.truncate(3);
    v.join(", ")
}

/// Per-array extents across the whole program: each subscript position's
/// extent is the max trip count of the dims it uses (plus the constant
/// offset span for halos), maximized over all references. An extent past
/// `i64` saturates at `i64::MAX`, as does the element count above.
fn array_extents(program: &Program, sizes: &ProblemSizes) -> BTreeMap<String, Vec<i64>> {
    let mut arrays: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for kernel in &program.kernels {
        let trip = |d: usize| kernel.trip_count(d, sizes).unwrap_or(1);
        for stmt in &kernel.stmts {
            for r in std::iter::once(&stmt.write).chain(stmt.reads.iter()) {
                if r.subscripts.is_empty() {
                    continue; // scalars are kernel parameters, not arrays
                }
                let extents: Vec<i64> = r
                    .subscripts
                    .iter()
                    .map(|s| {
                        (s.terms().iter())
                            .map(|&(d, c)| c.saturating_abs().saturating_mul(trip(d)))
                            .fold(s.offset().saturating_abs(), i64::saturating_add)
                            .max(1)
                    })
                    .collect();
                let entry = arrays
                    .entry(r.array.to_string())
                    .or_insert_with(|| vec![1; extents.len()]);
                for (e, n) in entry.iter_mut().zip(&extents) {
                    *e = (*e).max(*n);
                }
            }
        }
    }
    arrays
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{CompileOptions, GpuMapping};
    use eatss_affine::analysis::AccessAnalysis;
    use eatss_affine::parser::parse_program;
    use eatss_affine::tiling::TileConfig;
    use eatss_gpusim::GpuArch;

    fn host_for(src: &str, tiles: Vec<i64>, sizes: &[(&str, i64)]) -> String {
        let p = parse_program(src).unwrap();
        let sizes = ProblemSizes::new(sizes.iter().cloned());
        let mappings: Vec<GpuMapping> = p
            .kernels
            .iter()
            .map(|k| {
                GpuMapping::compute(
                    k,
                    &AccessAnalysis::analyze(k),
                    &TileConfig::new(tiles[..k.depth()].to_vec()),
                    &GpuArch::ga100(),
                    &sizes,
                    &CompileOptions::default(),
                )
                .unwrap()
            })
            .collect();
        emit_host(&p, &mappings, &sizes)
    }

    const MM: &str = "kernel mm(M, N, P) {
        for (i: M) for (j: N) for (k: P)
          C[i][j] += A[i][k] * B[k][j];
      }";

    #[test]
    fn allocates_each_array_once_with_correct_extent() {
        let host = host_for(MM, vec![32, 32, 32], &[("M", 100), ("N", 200), ("P", 300)]);
        assert_eq!(host.matches("cudaMalloc").count(), 3);
        assert!(host.contains("C_dev, 20000UL * sizeof(double)"), "{host}");
        assert!(host.contains("A_dev, 30000UL * sizeof(double)"));
        assert!(host.contains("B_dev, 60000UL * sizeof(double)"));
        assert_eq!(host.matches("cudaFree").count(), 3);
    }

    #[test]
    fn launch_uses_mapping_geometry() {
        let host = host_for(MM, vec![32, 64, 16], &[("M", 128), ("N", 128), ("P", 128)]);
        // grid: x = ceil(128/64) = 2, y = ceil(128/32) = 4.
        assert!(
            host.contains("mm_kernel<<<dim3(2, 4, 1), dim3(32, 16, 1)>>>"),
            "{host}"
        );
        assert!(host.contains("C_dev, A_dev, B_dev"));
        assert!(host.contains("128 /* M */"));
    }

    #[test]
    fn time_loops_wrap_the_launch() {
        let host = host_for(
            "kernel jac(T, N) {
               for seq (t: T) for (i: N) for (j: N)
                 B[i][j] = A[i][j-1] + A[i][j+1] + A[i][j];
             }",
            vec![1, 32, 32],
            &[("T", 50), ("N", 512)],
        );
        assert!(host.contains("for (long tt = 0; tt < 50; tt++)"), "{host}");
        assert!(host.contains("jac_kernel<<<"));
        // The current time step is passed to the kernel.
        assert!(host.contains(", tt);"), "{host}");
    }

    #[test]
    fn halo_offsets_pad_extents() {
        let host = host_for(
            "kernel s(N) { for (i: N) for (j: N) B[i][j] = A[i+1][j-1]; }",
            vec![32, 32],
            &[("N", 64)],
        );
        // A is indexed up to [N+1][N+1] conservatively: (64+1)*(64+1).
        assert!(host.contains("A_dev, 4225UL * sizeof(double)"), "{host}");
    }

    #[test]
    fn scalars_are_not_allocated() {
        let host = host_for(
            "kernel ax(N) { for (i: N) y[i] = alpha * x[i]; }",
            vec![32],
            &[("N", 100)],
        );
        assert!(!host.contains("alpha_dev"));
        assert_eq!(host.matches("cudaMalloc").count(), 2);
    }

    #[test]
    fn braces_balance() {
        let host = host_for(MM, vec![32, 32, 32], &[("M", 64), ("N", 64), ("P", 64)]);
        assert_eq!(host.matches('{').count(), host.matches('}').count());
        assert!(host.contains("cudaDeviceSynchronize"));
        assert!(host.trim_end().ends_with('}'));
    }
}
