//! GPU mapping: from a tiled affine kernel to grid/block geometry,
//! shared-memory staging decisions, and a simulator execution spec.

use eatss_affine::analysis::{AccessAnalysis, MemoryKind, RefGroup};
use eatss_affine::ir::{ArrayRef, Kernel};
use eatss_affine::tiling::{div_ceil, TileConfig, TilingError};
use eatss_affine::ProblemSizes;
use eatss_gpusim::{GpuArch, KernelExecSpec, RefAccess};
use std::error::Error;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program-wide tile configuration has fewer entries than a
    /// kernel's depth.
    NotEnoughTileSizes {
        /// Offending kernel.
        kernel: String,
        /// Its loop depth.
        depth: usize,
        /// Entries available.
        got: usize,
    },
    /// Invalid tile sizes.
    Tiling(TilingError),
    /// A problem-size parameter is unbound.
    UnboundParameter(String),
    /// The kernel has no parallel loop dimension to map to the GPU.
    NoParallelDim(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotEnoughTileSizes { kernel, depth, got } => write!(
                f,
                "kernel `{kernel}` has depth {depth} but only {got} tile sizes were given"
            ),
            CompileError::Tiling(e) => write!(f, "invalid tiling: {e}"),
            CompileError::UnboundParameter(p) => {
                write!(f, "problem-size parameter `{p}` is unbound")
            }
            CompileError::NoParallelDim(k) => {
                write!(f, "kernel `{k}` has no parallel loop dimension to map")
            }
        }
    }
}

impl Error for CompileError {}

impl From<TilingError> for CompileError {
    fn from(e: TilingError) -> Self {
        CompileError::Tiling(e)
    }
}

/// Compilation knobs — PPCG's command-line options the paper exercises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Element width: 8 (FP64, the paper's default) or 4 (FP32).
    pub elem_bytes: u8,
    /// Shared-memory budget per block, bytes (PPCG's
    /// `--max-shared-memory`). Zero disables staging entirely.
    pub shared_budget_bytes: u64,
    /// L1 carve-out left for hardware caching, bytes per SM.
    pub l1_avail_bytes: u64,
}

/// PPCG's per-dimension thread-block caps along x, y, z (its
/// `--block-sizes` defaults): tiles larger than the block give each
/// thread several points, cyclically strided so coalescing is preserved.
pub(crate) const MAX_BLOCK_DIMS: [i64; 3] = [32, 16, 4];

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            elem_bytes: 8,
            shared_budget_bytes: 48 * 1024,
            l1_avail_bytes: 96 * 1024,
        }
    }
}

impl CompileOptions {
    /// Options from a shared-memory *split factor* (§IV-J): `split` of the
    /// combined L1+shared capacity goes to shared memory, the rest to L1.
    /// The per-block staging budget is additionally capped by the
    /// architecture's block limit.
    pub fn with_split(arch: &GpuArch, split: f64, elem_bytes: u8) -> Self {
        let split = split.clamp(0.0, 1.0);
        let shared_total = (arch.l1_shared_bytes as f64 * split) as u64;
        CompileOptions {
            elem_bytes,
            shared_budget_bytes: shared_total.min(arch.max_shared_per_block),
            l1_avail_bytes: arch.l1_shared_bytes - shared_total,
        }
    }
}

/// A mapped reference: the analysis group's index plus lowering results.
#[derive(Debug, Clone)]
pub struct MappedRef {
    /// The underlying analysis group: an index into
    /// [`AccessAnalysis::groups`] of the analysis the kernel was mapped
    /// with ([`MappedRef::group_in`]).
    pub group: usize,
    /// Whether it is staged through shared memory in the generated code.
    pub staged: bool,
    /// Per-step tile footprint in elements.
    pub tile_footprint_elems: i64,
}

impl MappedRef {
    /// The group this reference maps, in `analysis`, the analysis its
    /// kernel was mapped with.
    ///
    /// # Panics
    ///
    /// Panics if `analysis` has no group [`MappedRef::group`] — it is
    /// another kernel's.
    pub fn group_in<'a, 'k>(&self, analysis: &'a AccessAnalysis<'k>) -> &'a RefGroup<'k> {
        &analysis.groups[self.group]
    }
}

/// The complete mapping of one kernel onto the GPU. Its references are
/// indices into the groups of the access analysis it was computed from,
/// which the emulator and code generation read them in.
#[derive(Debug, Clone)]
pub struct GpuMapping {
    /// The applied tiling.
    pub tiles: TileConfig,
    /// Loop dims mapped to block/thread x, y, z (x first, up to 3).
    pub mapped_dims: Vec<usize>,
    /// Threads along x, y, z.
    pub thread_extents: Vec<i64>,
    /// Blocks along x, y, z.
    pub grid_extents: Vec<i64>,
    /// Point-loop multiplicity per thread.
    pub points_per_thread: i64,
    /// Serial tile steps per block (non-mapped, non-launch dims).
    pub serial_steps: i64,
    /// Kernel launches (product of explicit-serial time-loop extents —
    /// PPCG re-launches the grid per time step).
    pub launch_count: i64,
    /// References with staging decisions.
    pub refs: Vec<MappedRef>,
    /// Shared memory used per block, bytes.
    pub shared_bytes: u64,
    /// The lowered simulator spec for a single launch.
    spec: KernelExecSpec,
}

impl GpuMapping {
    /// Maps `kernel`, whose access analysis is `analysis`, tiled by
    /// `tiles` onto `arch` under `options`. The analysis depends on the
    /// kernel alone, so a caller mapping many tilings computes it once.
    ///
    /// # Errors
    ///
    /// See [`CompileError`]; an unbound problem size is the first
    /// dimension's, outermost first.
    pub fn compute(
        kernel: &Kernel,
        analysis: &AccessAnalysis,
        tiles: &TileConfig,
        arch: &GpuArch,
        sizes: &ProblemSizes,
        options: &CompileOptions,
    ) -> Result<GpuMapping, CompileError> {
        let depth = kernel.depth();

        // Every dimension's trip count, looked up once.
        let trips: Vec<i64> = (0..depth)
            .map(|d| kernel.trip_count(d, sizes))
            .collect::<Result<_, _>>()
            .map_err(CompileError::UnboundParameter)?;

        // The mapping's own copy of the tiling. PPCG quirk reproduced from
        // the paper (§V-D, Fig. 10 note): "the PPCG code generator ignores
        // the tiling for the innermost loop when depth > 3" — that
        // dimension runs untiled.
        let mut tile_sizes = tiles.sizes().to_vec();
        if depth > 3 && !kernel.dims[depth - 1].explicit_serial {
            if let Some(size) = tile_sizes.get_mut(depth - 1) {
                *size = trips[depth - 1].max(1);
            }
        }
        let tiles = TileConfig::new(tile_sizes);
        tiles.validate_for(depth)?;
        let tile = |d: usize| tiles.sizes()[d];
        let clipped = |d: usize| tile(d).min(trips[d]);

        // --- choose mapped dimensions (x first) -------------------------
        let parallel = &analysis.parallel;
        let mut mapped_dims: Vec<usize> = Vec::new();
        let x_dim = match analysis.cma_dim.filter(|&d| parallel[d]) {
            Some(d) => d,
            None => parallel
                .iter()
                .rposition(|&p| p)
                .ok_or_else(|| CompileError::NoParallelDim(kernel.name.clone()))?,
        };
        mapped_dims.push(x_dim);
        // Remaining parallel dims, innermost first, up to 3 total.
        for d in (0..depth).rev() {
            if parallel[d] && d != x_dim && mapped_dims.len() < 3 {
                mapped_dims.push(d);
            }
        }

        // --- threads and grid -------------------------------------------
        let cap = arch.max_threads_per_block as i64;
        let mut thread_extents = Vec::with_capacity(mapped_dims.len());
        let mut used = 1i64;
        for (pos, &d) in mapped_dims.iter().enumerate() {
            let dim_cap = MAX_BLOCK_DIMS.get(pos).copied().unwrap_or(1);
            let t = clipped(d).min(dim_cap.max(1)).min((cap / used).max(1));
            thread_extents.push(t);
            used *= t;
        }
        let tile_points: i64 = mapped_dims
            .iter()
            .map(|&d| clipped(d))
            .fold(1i64, i64::saturating_mul);
        let threads_per_block: i64 = thread_extents.iter().product();
        let points_per_thread = div_ceil(tile_points, threads_per_block.max(1)).max(1);

        let mut grid_extents = Vec::with_capacity(mapped_dims.len());
        for &d in &mapped_dims {
            grid_extents.push(div_ceil(trips[d], tile(d)));
        }
        let grid_blocks: i64 = grid_extents.iter().product();
        let grid_x_blocks = grid_extents.first().copied().unwrap_or(1);

        // --- serial steps and launches -----------------------------------
        let mut serial_steps = 1i64;
        let mut launch_count = 1i64;
        for (d, &trip) in trips.iter().enumerate() {
            if mapped_dims.contains(&d) {
                continue;
            }
            if kernel.dims[d].explicit_serial {
                // Time loops force global synchronization: PPCG re-launches
                // the grid each iteration rather than tiling them.
                launch_count = launch_count.saturating_mul(trip);
            } else {
                serial_steps = serial_steps.saturating_mul(div_ceil(trip, tile(d)));
            }
        }

        // --- staging decision --------------------------------------------
        let elem = options.elem_bytes as i64;
        // The staging buffer must cover the whole box the group touches in
        // one serial step: the representative's footprint widened along the
        // fastest subscript by the members' constant-offset spread (merged
        // cache-line neighbours such as `A[i][j-1]`/`A[i][j+1]` read one
        // element to each side of the representative).
        let step_footprint = |g: &RefGroup| -> i64 {
            let spread = g.fastest_offsets.1.saturating_sub(g.fastest_offsets.0);
            footprint_widened(g.representative, spread, |d| {
                if kernel.dims[d].explicit_serial {
                    1 // time dims do not widen a single launch's tile
                } else {
                    clipped(d)
                }
            })
        };
        // PPCG only promotes arrays that actually have reuse within the
        // block: a reference using every (non-time) dimension touches each
        // element once, and staging it would only add footprint and
        // barriers.
        let has_reuse = |g: &RefGroup| -> bool {
            (0..depth).any(|d| !kernel.dims[d].explicit_serial && !g.representative.uses_dim(d))
        };
        // Written groups are never staged: the generated code has no
        // write-back phase, so a `__shared__` copy of a written array would
        // silently fork it from global memory.
        let sh_candidate =
            |g: &RefGroup| g.memory == MemoryKind::SharedMem && !g.is_written && has_reuse(g);
        let (mut any_candidate, mut sh_bytes) = (false, 0i64);
        for g in analysis.groups.iter().filter(|g| sh_candidate(g)) {
            any_candidate = true;
            sh_bytes = sh_bytes.saturating_add(step_footprint(g).saturating_mul(elem));
        }
        let stage = any_candidate
            && options.shared_budget_bytes > 0
            && sh_bytes as u64 <= options.shared_budget_bytes;
        let shared_bytes = if stage { sh_bytes as u64 } else { 0 };

        // --- lower references ---------------------------------------------
        // Per-thread point multiplicity along each mapped dim: point loops
        // are unrolled, so a reference invariant along a mapped dim is
        // register-cached across that dim's points.
        let point_mult =
            |pos: usize| div_ceil(clipped(mapped_dims[pos]), thread_extents[pos].max(1)).max(1);
        // L1 residency requirement of a reference: a ref with block-level
        // temporal reuse (some non-time dim it does not use) must keep its
        // whole per-step tile resident to exploit that reuse. A streaming
        // ref (every dim used — stencil reads, copies, mvt's matrix) only
        // keeps the band currently swept by the threads (+halo) live, no
        // matter how large the tile is.
        let residency = |g: &RefGroup| -> i64 {
            if has_reuse(g) {
                return step_footprint(g);
            }
            footprint(g.representative, |d| {
                if kernel.dims[d].explicit_serial {
                    1
                } else if let Some(pos) = mapped_dims.iter().position(|&m| m == d) {
                    thread_extents[pos] + 2
                } else {
                    2 // current + previous serial slice
                }
            })
        };
        let mut refs = Vec::with_capacity(analysis.groups.len());
        let mut sim_refs = Vec::with_capacity(analysis.groups.len());
        for (group, g) in analysis.groups.iter().enumerate() {
            // Dynamic accesses per block, with register-level reuse:
            //  * a mapped dim contributes its tile extent, divided by the
            //    per-thread multiplicity when the ref is invariant in it;
            //  * a used serial dim contributes its full extent;
            //  * an unused serial dim contributes one access per tile step
            //    (the value stays in a register across the point loop).
            let mut accesses = g.members as i64;
            for (d, &trip) in trips.iter().enumerate() {
                if kernel.dims[d].explicit_serial {
                    continue;
                }
                if let Some(pos) = mapped_dims.iter().position(|&m| m == d) {
                    accesses = accesses.saturating_mul(clipped(d));
                    if !g.representative.uses_dim(d) {
                        // Register reuse across unrolled points is limited
                        // by the compiler's unroll window.
                        accesses /= point_mult(pos).clamp(1, 4);
                    }
                } else if g.representative.uses_dim(d) {
                    accesses = accesses.saturating_mul(trip);
                } else {
                    accesses = accesses.saturating_mul(div_ceil(trip, tile(d)));
                }
            }
            let staged = stage && sh_candidate(g);
            let tile_fp = step_footprint(g);
            let resident_fp = if staged { tile_fp } else { residency(g) };
            let block_fp = footprint(g.representative, |d| {
                if kernel.dims[d].explicit_serial {
                    1
                } else if mapped_dims.contains(&d) {
                    clipped(d)
                } else {
                    trips[d]
                }
            });
            let total_fp = footprint(g.representative, |d| {
                if kernel.dims[d].explicit_serial {
                    1
                } else {
                    trips[d]
                }
            });
            // Coalescing: a reference is warp-friendly unless it indexes
            // the thread-x dimension with a stride (x used, but not as the
            // stride-1 dimension). x-invariant references broadcast.
            let coalesced = !g.representative.uses_dim(x_dim) || g.stride1_dim == Some(x_dim);
            // Contiguity along the fastest array dimension over the block's
            // lifetime: serial tile loops sweep their whole extent, and the
            // x-adjacent blocks of a wave cover the rest of a row, so any
            // non-time dimension in the fastest subscript contributes its
            // full trip count. Short rows (small filters, small arrays)
            // still pay reduced DRAM burst efficiency.
            let contiguous_x = g
                .representative
                .fastest_subscript()
                .map(|s| {
                    s.terms()
                        .iter()
                        .map(|&(d, c)| {
                            let t = if kernel.dims[d].explicit_serial {
                                1
                            } else {
                                trips[d]
                            };
                            c.saturating_abs().saturating_mul(t)
                        })
                        .fold(0i64, i64::saturating_add)
                        .max(1)
                })
                .unwrap_or(1);
            let varies_block_x = g.representative.uses_dim(x_dim);
            let varies_block_y = mapped_dims
                .get(1)
                .is_some_and(|&d| g.representative.uses_dim(d))
                || mapped_dims
                    .get(2)
                    .is_some_and(|&d| g.representative.uses_dim(d));

            sim_refs.push(RefAccess {
                name: Arc::clone(&g.representative.array),
                staged_shared: staged,
                tile_footprint_elems: resident_fp,
                block_footprint_elems: block_fp,
                total_footprint_elems: total_fp,
                accesses_per_block: accesses,
                coalesced,
                contiguous_x_elems: contiguous_x,
                varies_block_x,
                varies_block_y,
                is_write: g.is_written,
            });
            refs.push(MappedRef {
                group,
                staged,
                tile_footprint_elems: tile_fp,
            });
        }

        let total_flops = kernel
            .total_flops(sizes)
            .map_err(CompileError::UnboundParameter)? as f64;
        // Room for `(s, s, …)` at 20 digits a size, so it is written once.
        let mut name = String::with_capacity(kernel.name.len() + 2 + 22 * depth);
        let _ = write!(name, "{}{}", kernel.name, tiles);
        let spec = KernelExecSpec {
            name,
            grid_blocks,
            grid_x_blocks,
            threads_per_block,
            points_per_thread,
            serial_steps_per_block: serial_steps,
            flops_total: total_flops / launch_count.max(1) as f64,
            elem_bytes: options.elem_bytes,
            shared_bytes_per_block: shared_bytes.min(u32::MAX as u64) as u32,
            l1_avail_bytes: options.l1_avail_bytes,
            num_refs: analysis.distinct_line_refs() as u32,
            refs: sim_refs,
        };

        Ok(GpuMapping {
            tiles,
            mapped_dims,
            thread_extents,
            grid_extents,
            points_per_thread,
            serial_steps,
            launch_count,
            refs,
            shared_bytes,
            spec,
        })
    }

    /// The lowered execution spec for a single kernel launch (time loops
    /// re-launch it [`GpuMapping::launch_count`] times).
    pub fn exec_spec(&self) -> &KernelExecSpec {
        &self.spec
    }

    /// An owned copy of [`GpuMapping::exec_spec`].
    pub fn to_exec_spec(&self) -> KernelExecSpec {
        self.spec.clone()
    }

    /// The loop dimension mapped to thread/block x.
    pub fn x_dim(&self) -> usize {
        self.mapped_dims[0]
    }
}

/// Footprint of a reference as the product of per-subscript extents,
/// where each dimension contributes `extent(dim)` and multiple iterators
/// in one subscript add (e.g. `in[i+p]` spans `T_i + T_p − 1`).
fn footprint(r: &ArrayRef, extent: impl FnMut(usize) -> i64) -> i64 {
    footprint_widened(r, 0, extent)
}

/// Like [`footprint`], but the fastest-varying subscript's span is widened
/// by `extra_last` elements — the offset spread of the other members of a
/// cache-line group (see `RefGroup::fastest_offsets`). Used for sizing
/// shared-memory staging buffers, where covering every member's access is
/// a correctness requirement, not a model estimate.
fn footprint_widened(r: &ArrayRef, extra_last: i64, mut extent: impl FnMut(usize) -> i64) -> i64 {
    let mut total = 1i64;
    let last = r.subscripts.len().saturating_sub(1);
    for (i, s) in r.subscripts.iter().enumerate() {
        let mut span = 0i64;
        let mut parts = 0;
        for &(d, c) in s.terms() {
            span = span.saturating_add(c.saturating_abs().saturating_mul(extent(d)));
            parts += 1;
        }
        let mut span = if parts == 0 {
            1
        } else {
            span.saturating_sub(parts - 1).max(1)
        };
        if i == last {
            span = span.saturating_add(extra_last);
        }
        total = total.saturating_mul(span);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_affine::parser::parse_program;

    fn matmul() -> Kernel {
        parse_program(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        )
        .unwrap()
        .kernels
        .remove(0)
    }

    fn sizes(n: i64) -> ProblemSizes {
        ProblemSizes::new([("M", n), ("N", n), ("P", n)])
    }

    #[test]
    fn matmul_default_mapping() {
        let k = matmul();
        let analysis = AccessAnalysis::analyze(&k);
        let m = GpuMapping::compute(
            &k,
            &analysis,
            &TileConfig::ppcg_default(3),
            &GpuArch::ga100(),
            &sizes(2000),
            &CompileOptions::default(),
        )
        .unwrap();
        // x = j (CMA), y = i; the PPCG block cap is 32x16 so the 32x32
        // tile gives each thread two points along y.
        assert_eq!(m.mapped_dims, vec![1, 0]);
        assert_eq!(m.thread_extents, vec![32, 16]);
        assert_eq!(m.grid_extents, vec![63, 63]);
        assert_eq!(m.points_per_thread, 2);
        assert_eq!(m.serial_steps, 63); // ceil(2000/32)
        assert_eq!(m.launch_count, 1);
        // A[i][k] is staged (32*32*8 = 8 KiB <= 48 KiB budget).
        let a = (m.refs.iter())
            .find(|r| r.group_in(&analysis).array() == "A")
            .unwrap();
        assert!(a.staged);
        assert_eq!(m.shared_bytes, 32 * 32 * 8);
        let spec = m.to_exec_spec();
        assert_eq!(spec.threads_per_block, 512);
        assert_eq!(spec.grid_blocks, 63 * 63);
        assert_eq!(spec.grid_x_blocks, 63);
    }

    #[test]
    fn virtual_cap_gives_point_multiplicity() {
        // EATSS's §IV-A solution: Ti=16, Tj=384, Tk=16 → 6144 tile points,
        // 1024 threads, 6 points per thread.
        let k = matmul();
        let m = GpuMapping::compute(
            &k,
            &AccessAnalysis::analyze(&k),
            &TileConfig::new(vec![16, 384, 16]),
            &GpuArch::ga100(),
            &sizes(4000),
            &CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(m.thread_extents, vec![32, 16]); // PPCG block caps
        assert_eq!(m.points_per_thread, 12); // 6144 / 512
        let spec = m.to_exec_spec();
        assert_eq!(spec.threads_per_block, 512);
    }

    #[test]
    fn ref_lowering_matmul_footprints() {
        let k = matmul();
        let n = 2000;
        let m = GpuMapping::compute(
            &k,
            &AccessAnalysis::analyze(&k),
            &TileConfig::new(vec![32, 64, 16]),
            &GpuArch::ga100(),
            &sizes(n),
            &CompileOptions::default(),
        )
        .unwrap();
        let spec = m.to_exec_spec();
        let c = spec.refs.iter().find(|r| &*r.name == "C").unwrap();
        assert_eq!(c.tile_footprint_elems, 32 * 64);
        assert_eq!(c.block_footprint_elems, 32 * 64);
        assert_eq!(c.total_footprint_elems, n * n);
        assert!(c.coalesced);
        assert!(c.is_write);
        assert!(c.varies_block_x && c.varies_block_y);
        let a = spec.refs.iter().find(|r| &*r.name == "A").unwrap();
        assert_eq!(a.tile_footprint_elems, 32 * 16);
        assert_eq!(a.block_footprint_elems, 32 * n);
        assert!(a.staged_shared);
        assert!(a.coalesced, "x-invariant references broadcast");
        assert!(!a.varies_block_x && a.varies_block_y);
        let b = spec.refs.iter().find(|r| &*r.name == "B").unwrap();
        assert_eq!(b.tile_footprint_elems, 16 * 64);
        assert_eq!(b.block_footprint_elems, n * 64);
        assert!(b.coalesced);
        assert!(b.varies_block_x && !b.varies_block_y);
        // A is invariant along the thread-x dimension (j), whose tile is
        // twice the 32-thread block width: two cyclic points per thread
        // register-cache the load.
        let per_block = 32 * 64 * n;
        assert_eq!(a.accesses_per_block, per_block / 2);
    }

    #[test]
    fn staging_respects_budget() {
        let k = matmul();
        // Budget below the A-tile footprint (32*32*8 = 8 KiB): no staging.
        let opts = CompileOptions {
            shared_budget_bytes: 4 * 1024,
            ..CompileOptions::default()
        };
        let m = GpuMapping::compute(
            &k,
            &AccessAnalysis::analyze(&k),
            &TileConfig::ppcg_default(3),
            &GpuArch::ga100(),
            &sizes(2000),
            &opts,
        )
        .unwrap();
        assert_eq!(m.shared_bytes, 0);
        assert!(m.refs.iter().all(|r| !r.staged));
    }

    #[test]
    fn zero_budget_disables_staging() {
        let k = matmul();
        let opts = CompileOptions {
            shared_budget_bytes: 0,
            ..CompileOptions::default()
        };
        let m = GpuMapping::compute(
            &k,
            &AccessAnalysis::analyze(&k),
            &TileConfig::ppcg_default(3),
            &GpuArch::ga100(),
            &sizes(2000),
            &opts,
        )
        .unwrap();
        assert_eq!(m.shared_bytes, 0);
    }

    #[test]
    fn time_loops_become_launches() {
        let p = parse_program(
            "kernel jac(T, N) {
               for seq (t: T) for (i: N) for (j: N)
                 B[i][j] = A[i][j] + A[i][j-1] + A[i][j+1] + A[i+1][j] + A[i-1][j];
             }",
        )
        .unwrap();
        let sizes = ProblemSizes::new([("T", 500), ("N", 1300)]);
        let m = GpuMapping::compute(
            &p.kernels[0],
            &AccessAnalysis::analyze(&p.kernels[0]),
            &TileConfig::ppcg_default(3),
            &GpuArch::ga100(),
            &sizes,
            &CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(m.launch_count, 500);
        assert_eq!(m.serial_steps, 1);
        // FLOPs are per launch.
        let per_launch = m.to_exec_spec().flops_total;
        let total = p.kernels[0].total_flops(&sizes).unwrap() as f64;
        assert!((per_launch * 500.0 - total).abs() / total < 1e-9);
    }

    #[test]
    fn stencil_halo_footprint_adds_extents() {
        let p = parse_program(
            "kernel conv(H, W, R, S) {
               for (i: H) for (j: W) for (p: R) for (q: S)
                 out[i][j] += in[i+p][j+q] * w[p][q];
             }",
        )
        .unwrap();
        let sizes = ProblemSizes::new([("H", 224), ("W", 224), ("R", 11), ("S", 11)]);
        let m = GpuMapping::compute(
            &p.kernels[0],
            &AccessAnalysis::analyze(&p.kernels[0]),
            &TileConfig::new(vec![32, 32, 11, 11]),
            &GpuArch::ga100(),
            &sizes,
            &CompileOptions::default(),
        )
        .unwrap();
        let spec = m.to_exec_spec();
        let in_ref = spec.refs.iter().find(|r| &*r.name == "in").unwrap();
        // `in` uses every dimension → streaming: its live set is the
        // thread band plus halo, (ty+2 + 2 − 1) × (tx+2 + 2 − 1) with the
        // 32×16 block caps, not the whole (32+11−1)² tile.
        assert_eq!(in_ref.tile_footprint_elems, 19 * 35);
        let w = spec.refs.iter().find(|r| &*r.name == "w").unwrap();
        assert!(w.staged_shared, "w is not CMA-capable and fits shared");
    }

    #[test]
    fn written_groups_are_never_staged() {
        // Regression (oracle finding): A is written but not an accumulation
        // target, has reuse along k, and is not CMA-capable — the old
        // staging filter put it in shared memory even though the generated
        // code never writes staged tiles back to global memory.
        let p = parse_program(
            "kernel wb(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 A[j][2*i] = A[j][2*i] + B[i][j][k];
             }",
        )
        .unwrap();
        let analysis = AccessAnalysis::analyze(&p.kernels[0]);
        let m = GpuMapping::compute(
            &p.kernels[0],
            &analysis,
            &TileConfig::new(vec![4, 4, 4]),
            &GpuArch::ga100(),
            &sizes(64),
            &CompileOptions::default(),
        )
        .unwrap();
        let a = (m.refs.iter())
            .find(|r| r.group_in(&analysis).array() == "A")
            .unwrap();
        assert!(a.group_in(&analysis).is_written);
        assert!(!a.staged, "written groups must stay in global memory");
        assert_eq!(m.shared_bytes, 0);
    }

    #[test]
    fn staging_box_covers_member_offset_spread() {
        // Regression (oracle finding): x[k-1] and x[k+1] share one group
        // whose staged box must span tile + (max_off - min_off) elements,
        // not just the representative's tile elements.
        let p = parse_program(
            "kernel sm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += w[k] * (x[k-1] + x[k+1]);
             }",
        )
        .unwrap();
        let analysis = AccessAnalysis::analyze(&p.kernels[0]);
        let m = GpuMapping::compute(
            &p.kernels[0],
            &analysis,
            &TileConfig::new(vec![8, 8, 8]),
            &GpuArch::ga100(),
            &sizes(64),
            &CompileOptions::default(),
        )
        .unwrap();
        let of = |array: &str| {
            (m.refs.iter())
                .find(|r| r.group_in(&analysis).array() == array)
                .unwrap()
        };
        let x = of("x");
        assert!(x.staged);
        assert_eq!(x.group_in(&analysis).fastest_offsets, (-1, 1));
        assert_eq!(x.tile_footprint_elems, 10, "8-wide tile + spread of 2");
        let w = of("w");
        assert!(w.staged);
        assert_eq!(w.tile_footprint_elems, 8);
        assert_eq!(m.shared_bytes, (10 + 8) * 8);
    }

    #[test]
    fn fully_serial_kernel_is_rejected() {
        let p = parse_program("kernel s(N) { for (i: N) A[i] = A[i-1] + 1; }").unwrap();
        let e = GpuMapping::compute(
            &p.kernels[0],
            &AccessAnalysis::analyze(&p.kernels[0]),
            &TileConfig::ppcg_default(1),
            &GpuArch::ga100(),
            &ProblemSizes::new([("N", 100)]),
            &CompileOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(e, CompileError::NoParallelDim(_)));
    }

    #[test]
    fn unbound_parameter_is_reported() {
        let k = matmul();
        let e = GpuMapping::compute(
            &k,
            &AccessAnalysis::analyze(&k),
            &TileConfig::ppcg_default(3),
            &GpuArch::ga100(),
            &ProblemSizes::new([("M", 100)]),
            &CompileOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(e, CompileError::UnboundParameter(p) if p == "N" || p == "P"));
    }

    #[test]
    fn options_with_split() {
        let arch = GpuArch::ga100();
        let o = CompileOptions::with_split(&arch, 0.5, 8);
        assert_eq!(o.l1_avail_bytes, 96 * 1024);
        assert_eq!(o.shared_budget_bytes, 48 * 1024); // capped by block limit
        let o = CompileOptions::with_split(&arch, 0.0, 4);
        assert_eq!(o.shared_budget_bytes, 0);
        assert_eq!(o.l1_avail_bytes, 192 * 1024);
    }

    #[test]
    fn small_problem_clips_tiles() {
        let k = matmul();
        let m = GpuMapping::compute(
            &k,
            &AccessAnalysis::analyze(&k),
            &TileConfig::new(vec![1024, 1024, 1024]),
            &GpuArch::ga100(),
            &sizes(100),
            &CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(m.grid_extents, vec![1, 1]);
        // 100×100 points, ≤1024 threads.
        assert!(m.to_exec_spec().threads_per_block <= 1024);
        assert!(m.points_per_thread >= 9);
    }
}
