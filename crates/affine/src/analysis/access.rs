//! Memory access-pattern analysis.
//!
//! Implements the analyses of §IV-A..§IV-K of the paper that feed the
//! model generator:
//!
//! * grouping of references into *distinct-cache-line* groups (§IV-G:
//!   "the number of references accessing distinct cache lines"),
//! * selection of the CMA loop dimension `l_s1` (§IV-D),
//! * the split into `L1_set` / `SH_set` (§IV-E),
//! * reuse typing per reference (Table II),
//! * the `H_i` weights of the objective function (§IV-K).

use crate::analysis::dependence::parallel_dims;
use crate::ir::{ArrayRef, Kernel};
use std::fmt;

/// Which memory an array reference is mapped to (§IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Hardware-managed cache (the reference is CMA-capable or frequently
    /// updated).
    L1,
    /// Software-managed shared memory local to an SM.
    SharedMem,
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryKind::L1 => f.write_str("L1"),
            MemoryKind::SharedMem => f.write_str("Shared-Mem"),
        }
    }
}

/// Kind of data reuse a reference exhibits along a loop dimension
/// (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseKind {
    /// Temporal reuse: the dimension does not index the reference, so the
    /// same element is touched on every iteration of that loop.
    Temporal,
    /// Spatial reuse: the dimension strides through consecutive elements
    /// (stride-1 in the fastest-varying subscript).
    Spatial,
}

impl fmt::Display for ReuseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseKind::Temporal => f.write_str("T-reuse"),
            ReuseKind::Spatial => f.write_str("S-reuse"),
        }
    }
}

/// A group of textual references that touch the same cache lines: same
/// array, same linear subscript parts, and identical constant offsets in
/// all but the fastest-varying subscript. It borrows its representative
/// from the kernel it was found in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefGroup<'k> {
    /// Representative reference: the group's first textual reference.
    pub representative: &'k ArrayRef,
    /// Number of textual references merged into this group.
    pub members: usize,
    /// Whether some member is written.
    pub is_written: bool,
    /// Whether some member is an accumulation target (read+write).
    pub is_accumulated: bool,
    /// Loop dimension with stride-1 access, if any.
    pub stride1_dim: Option<usize>,
    /// Memory the group is mapped to (filled by [`AccessAnalysis`]).
    pub memory: MemoryKind,
    /// Whether the group can be accessed with coalesced memory accesses
    /// along the selected CMA loop.
    pub cma_capable: bool,
    /// `(min, max)` constant offset of the fastest-varying subscript over
    /// all members. Members of one group may differ *only* in that offset
    /// (same cache line), so this span is exactly how much wider than the
    /// representative's footprint the group's true per-step access box is
    /// — e.g. `A[i][j-1]`, `A[i][j]`, `A[i][j+1]` give `(-1, 1)`.
    pub fastest_offsets: (i64, i64),
}

impl<'k> RefGroup<'k> {
    /// Array name.
    pub fn array(&self) -> &'k str {
        &self.representative.array
    }

    /// Loop dimensions indexing the reference, ascending.
    pub fn used_dims(&self) -> impl Iterator<Item = usize> + 'k {
        let r = self.representative;
        // Terms are sorted by dimension: each subscript's last is its
        // deepest.
        let end = (r.subscripts.iter())
            .filter_map(|s| s.terms().last())
            .map(|&(d, _)| d + 1)
            .max()
            .unwrap_or(0);
        (0..end).filter(move |&d| r.uses_dim(d))
    }

    /// Reuse kinds of this reference: `(dim, kind)` pairs, temporal reuse
    /// for unused dimensions and spatial reuse along the stride-1
    /// dimension.
    pub fn reuse(&self, depth: usize) -> Vec<(usize, ReuseKind)> {
        let mut out = Vec::new();
        for d in 0..depth {
            if !self.representative.uses_dim(d) && !self.representative.subscripts.is_empty() {
                out.push((d, ReuseKind::Temporal));
            }
        }
        if let Some(d) = self.stride1_dim {
            out.push((d, ReuseKind::Spatial));
        }
        out.sort_by_key(|&(d, _)| d);
        out
    }
}

/// The complete access analysis of one kernel, borrowing its references.
///
/// # Examples
///
/// Reproducing Table II of the paper for matmul:
///
/// ```
/// use eatss_affine::parser::parse_program;
/// use eatss_affine::analysis::{AccessAnalysis, MemoryKind};
///
/// let p = parse_program(
///     "kernel matmul(M, N, P) {
///        for (i: M) for (j: N) for (k: P)
///          Out[i][j] += In[i][k] * Ker[k][j];
///      }")?;
/// let a = AccessAnalysis::analyze(&p.kernels[0]);
/// assert_eq!(a.cma_dim, Some(1)); // loop j
/// let mem: Vec<_> = a.groups.iter().map(|g| (g.array(), g.memory)).collect();
/// assert_eq!(mem, vec![
///     ("Out", MemoryKind::L1),
///     ("In", MemoryKind::SharedMem),
///     ("Ker", MemoryKind::L1),
/// ]);
/// # Ok::<(), eatss_affine::parser::ParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AccessAnalysis<'k> {
    /// Loop depth of the analyzed kernel.
    pub depth: usize,
    /// Parallel (`true`) / serial (`false`) classification per dimension.
    pub parallel: Vec<bool>,
    /// The CMA loop dimension `l_s1` (§IV-D), if any dimension exhibits
    /// stride-1 access.
    pub cma_dim: Option<usize>,
    /// Distinct-cache-line reference groups, in first-occurrence order.
    pub groups: Vec<RefGroup<'k>>,
}

impl<'k> AccessAnalysis<'k> {
    /// Runs the full analysis on a kernel.
    pub fn analyze(kernel: &'k Kernel) -> Self {
        let depth = kernel.depth();
        let parallel = parallel_dims(kernel);
        let mut groups = collect_groups(kernel);
        let cma_dim = select_cma_dim(&groups, &parallel);
        for g in &mut groups {
            g.cma_capable = cma_dim.is_some() && g.stride1_dim == cma_dim;
            // §IV-E: CMA-capable references exploit L1; §IV-A also keeps
            // "repeatedly and frequently updated" (accumulated) references
            // in cache. Everything else goes to shared memory.
            g.memory = if g.cma_capable || g.is_accumulated {
                MemoryKind::L1
            } else {
                MemoryKind::SharedMem
            };
        }
        AccessAnalysis {
            depth,
            parallel,
            cma_dim,
            groups,
        }
    }

    /// Number of references accessing distinct cache lines
    /// (`no.references` of §IV-G).
    pub fn distinct_line_refs(&self) -> usize {
        self.groups.len()
    }

    /// Groups mapped to the L1 cache (`L1_set`, §IV-E).
    pub fn l1_set(&self) -> impl Iterator<Item = &RefGroup<'k>> + '_ {
        self.groups.iter().filter(|g| g.memory == MemoryKind::L1)
    }

    /// Groups mapped to shared memory (`SH_set`, §IV-E).
    pub fn sh_set(&self) -> impl Iterator<Item = &RefGroup<'k>> + '_ {
        self.groups
            .iter()
            .filter(|g| g.memory == MemoryKind::SharedMem)
    }

    /// The `H_i` objective weights of §IV-K.
    ///
    /// `H_i` counts references whose stride-1 dimension is `i`, scaled by
    /// `warp_alignment_factor` when `i` is the CMA loop. In nests of depth
    /// ≥ 3, non-parallel dimensions are nullified; in 2-D nests the
    /// parallel dimension is dropped from the sum and the non-parallel
    /// dimension kept (§IV-K, sub-cases 1–3).
    pub fn h_weights(&self, warp_alignment_factor: i64) -> Vec<i64> {
        let mut h = vec![0i64; self.depth];
        for g in &self.groups {
            if let Some(d) = g.stride1_dim {
                h[d] += g.members as i64;
            }
        }
        for (d, w) in h.iter_mut().enumerate() {
            if Some(d) == self.cma_dim {
                *w *= warp_alignment_factor;
            }
            if self.depth >= 3 && !self.parallel[d] {
                *w = 0;
            }
            if self.depth == 2 && self.parallel[d] {
                *w = 0;
            }
        }
        h
    }
}

/// Groups a kernel's textual references by cache-line identity.
fn collect_groups<'k>(kernel: &'k Kernel) -> Vec<RefGroup<'k>> {
    let mut groups: Vec<RefGroup> = Vec::new();
    let mut add = |r: &'k ArrayRef, written: bool, accumulated: bool| {
        let fast_off = r.fastest_subscript().map(|s| s.offset()).unwrap_or(0);
        if let Some(g) = groups.iter_mut().find(|g| g.representative.same_lines(r)) {
            g.members += 1;
            g.is_written |= written;
            g.is_accumulated |= accumulated;
            let (lo, hi) = g.fastest_offsets;
            g.fastest_offsets = (lo.min(fast_off), hi.max(fast_off));
        } else {
            groups.push(RefGroup {
                representative: r,
                members: 1,
                is_written: written,
                is_accumulated: accumulated,
                stride1_dim: r.stride1_dim(),
                memory: MemoryKind::L1, // refined by the caller
                cma_capable: false,     // refined by the caller
                fastest_offsets: (fast_off, fast_off),
            });
        }
    };
    for s in &kernel.stmts {
        add(&s.write, true, s.is_accumulation);
        for r in &s.reads {
            // Scalars (no subscripts) live in registers; skip them.
            if !r.subscripts.is_empty() {
                add(r, false, false);
            }
        }
    }
    groups
}

/// §IV-D: prefer parallel dimensions with stride-1 access in the most
/// references; fall back to any stride-1 dimension (2-D kernels often have
/// their only stride-1 access on the serial loop). Ties prefer the
/// innermost dimension.
fn select_cma_dim(groups: &[RefGroup], parallel: &[bool]) -> Option<usize> {
    let count = |d: usize| -> usize {
        (groups.iter().filter(|g| g.stride1_dim == Some(d)))
            .map(|g| g.members)
            .sum()
    };
    let best = |pred: &dyn Fn(usize) -> bool| -> Option<usize> {
        (0..parallel.len())
            .filter(|&d| pred(d))
            .map(|d| (count(d), d))
            .filter(|&(count, _)| count > 0)
            .max()
            .map(|(_, d)| d)
    };
    best(&|d| parallel[d]).or_else(|| best(&|_| true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn analyze(src: &str) -> AccessAnalysis<'static> {
        let p = parse_program(src).expect("valid kernel source");
        // An analysis borrows its kernel: each test's lives for the run.
        AccessAnalysis::analyze(&Box::leak(Box::new(p)).kernels[0])
    }

    const MATMUL: &str = "kernel matmul(M, N, P) {
        for (i: M) for (j: N) for (k: P)
          Out[i][j] += In[i][k] * Ker[k][j];
      }";

    #[test]
    fn matmul_table2_classification() {
        let a = analyze(MATMUL);
        assert_eq!(a.cma_dim, Some(1));
        assert_eq!(a.distinct_line_refs(), 3);
        let out = &a.groups[0];
        assert_eq!(out.array(), "Out");
        assert_eq!(out.memory, MemoryKind::L1);
        assert!(out.cma_capable);
        assert_eq!(
            out.reuse(3),
            vec![(1, ReuseKind::Spatial), (2, ReuseKind::Temporal)]
        );
        let inr = &a.groups[1];
        assert_eq!(inr.array(), "In");
        assert_eq!(inr.memory, MemoryKind::SharedMem);
        assert!(!inr.cma_capable);
        assert_eq!(
            inr.reuse(3),
            vec![(1, ReuseKind::Temporal), (2, ReuseKind::Spatial)]
        );
        let ker = &a.groups[2];
        assert_eq!(ker.array(), "Ker");
        assert_eq!(ker.memory, MemoryKind::L1);
        assert_eq!(
            ker.reuse(3),
            vec![(0, ReuseKind::Temporal), (1, ReuseKind::Spatial)]
        );
    }

    #[test]
    fn matmul_h_weights_match_paper() {
        // §IV-A: objective weights are [0, 2*WAF, 0] for WAF = 16.
        let a = analyze(MATMUL);
        assert_eq!(a.h_weights(16), vec![0, 32, 0]);
        assert_eq!(a.h_weights(8), vec![0, 16, 0]);
    }

    #[test]
    fn l1_and_sh_sets_partition_groups() {
        let a = analyze(MATMUL);
        assert_eq!(a.l1_set().count(), 2);
        assert_eq!(a.sh_set().count(), 1);
        assert_eq!(a.l1_set().count() + a.sh_set().count(), a.groups.len());
    }

    #[test]
    fn stencil_line_grouping() {
        // Five textual refs but A[i][j±1], A[i][j] share lines → 4 groups:
        // B[i][j], A[i][j*], A[i+1][j], A[i-1][j].
        let a = analyze(
            "kernel jac(N) {
               for (i: N) for (j: N)
                 B[i][j] = A[i][j] + A[i][j-1] + A[i][j+1] + A[i+1][j] + A[i-1][j];
             }",
        );
        assert_eq!(a.distinct_line_refs(), 4);
        let a_center = a
            .groups
            .iter()
            .find(|g| g.array() == "A" && g.members == 3)
            .expect("merged center group");
        assert_eq!(a_center.stride1_dim, Some(1));
        assert_eq!(
            a_center.fastest_offsets,
            (-1, 1),
            "merged group spans the j-1..j+1 halo"
        );
        let b = a.groups.iter().find(|g| g.array() == "B").unwrap();
        assert_eq!(b.fastest_offsets, (0, 0));
    }

    #[test]
    fn fdtd_like_counts_four_refs() {
        // §IV-G: "for the fdtd-2d kernel it would be 4 (two references
        // typically lie in the same cache line)". One representative
        // statement shows the merge.
        let a = analyze(
            "kernel hz(N, M) {
               for (i: N) for (j: M)
                 hz[i][j] += ex[i][j+1] - ex[i][j] + ey[i+1][j] - ey[i][j];
             }",
        );
        // hz, ex{[i][j+1],[i][j]}, ey[i+1][j], ey[i][j] → 4 groups.
        assert_eq!(a.distinct_line_refs(), 4);
    }

    #[test]
    fn cma_prefers_parallel_dim() {
        // In mvt the only stride-1 dims are j (A, y) and i (x); i is the
        // parallel one but j has more references. §IV-D prefers parallel
        // dims first, so CMA falls on i... unless no parallel dim has
        // stride-1, in which case the serial one is taken.
        let a = analyze(
            "kernel mvt(N) {
               for (i: N) for (j: N) x[i] += A[i][j] * y[j];
             }",
        );
        assert_eq!(a.parallel, vec![true, false]);
        // x[i] is stride-1 along i (1-D array), so the parallel dim wins.
        assert_eq!(a.cma_dim, Some(0));
    }

    #[test]
    fn cma_falls_back_to_serial_dim() {
        // Drop the 1-D write: now only j is stride-1 anywhere.
        let a = analyze(
            "kernel rowsum(N) {
               for (i: N) for (j: N) s[i][0] += A[i][j];
             }",
        );
        assert_eq!(a.cma_dim, Some(1));
        assert!(!a.parallel[1]);
    }

    #[test]
    fn two_d_h_weights_prefer_nonparallel_loop() {
        // §IV-K sub-case 3: in 2-D nests the parallel loop is ignored and
        // the non-parallel loop kept.
        let a = analyze(
            "kernel mvt(N) {
               for (i: N) for (j: N) x[i] += A[i][j] * y[j];
             }",
        );
        let h = a.h_weights(16);
        assert_eq!(h[0], 0, "parallel dim dropped in 2-D nests");
        assert!(h[1] > 0, "serial stride-1 dim kept in 2-D nests");
    }

    #[test]
    fn high_dim_h_weights_nullify_serial_dims() {
        let a = analyze(
            "kernel conv(H, W, R, S) {
               for (i: H) for (j: W) for (p: R) for (q: S)
                 out[i][j] += in[i+p][j+q] * w[p][q];
             }",
        );
        let h = a.h_weights(16);
        assert_eq!(h[2], 0);
        assert_eq!(h[3], 0, "q is stride-1 for in/w but serial in a 4-D nest");
        assert!(h[1] > 0, "j is stride-1 for out and parallel");
    }

    #[test]
    fn scalars_are_ignored() {
        let a = analyze("kernel ax(N) { for (i: N) y[i] = alpha * x[i]; }");
        assert_eq!(a.distinct_line_refs(), 2);
        assert!(a.groups.iter().all(|g| g.array() != "alpha"));
    }

    #[test]
    fn accumulated_non_cma_ref_stays_in_l1() {
        // The write target of a reduction is "repeatedly and frequently
        // updated" and stays cache-mapped even without CMA capability.
        let a = analyze(
            "kernel colsum(N) {
               for (i: N) for (j: N) s[j][i] += A[j][i];
             }",
        );
        let s = a.groups.iter().find(|g| g.array() == "s").unwrap();
        assert_eq!(s.memory, MemoryKind::L1);
    }

    #[test]
    fn reuse_of_scalar_free_groups_is_empty_safe() {
        let a = analyze("kernel id(N) { for (i: N) A[i] = B[i]; }");
        for g in &a.groups {
            let reuse = g.reuse(1);
            assert_eq!(reuse, vec![(0, ReuseKind::Spatial)]);
        }
    }

    #[test]
    fn memory_kind_display() {
        assert_eq!(MemoryKind::L1.to_string(), "L1");
        assert_eq!(MemoryKind::SharedMem.to_string(), "Shared-Mem");
        assert_eq!(ReuseKind::Temporal.to_string(), "T-reuse");
        assert_eq!(ReuseKind::Spatial.to_string(), "S-reuse");
    }
}
