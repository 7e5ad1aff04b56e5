//! Deterministic GPU-execution emulator for compiled mappings.
//!
//! Executes the semantics of the generated CUDA text — grid/block index
//! decoding, serial tile loops with `min` boundary guards, cyclic
//! per-thread point loops, `__shared__` staging with `__syncthreads()`
//! barrier phases, and per-time-step launches — block by block and thread
//! by thread on the host, against an [`eatss_affine::interp::Store`].
//!
//! Out-of-bounds conventions match the interpreter exactly: global reads
//! outside an array return `0.0` and writes outside are dropped, so the
//! emulator and the untiled interpreter are comparable element-wise
//! (bitwise, in fact: the element a write writes determines every mapped
//! dim — a write's output dependence with itself serializes each other
//! non-`seq` dim, see [`eatss_affine::analysis::parallel_dims`] — so each
//! output element is owned by one thread, and the per-element
//! accumulation order is ascending serial order in both executions).
//!
//! # Execution engines
//!
//! By default each kernel is compiled once per distinct staged-route
//! signature (once per [`execute_compiled`] call, once per batch under
//! [`verify_batch`](crate::verify_batch)) into an
//! [`ExecPlan`]: reads that match a staged
//! group are pre-routed to its buffer at compile time (one slot lookup
//! instead of a string-compare group search per read per point), all
//! other accesses lower to linear address functions, and the RHS runs as
//! a postfix opcode tape. [`ExecEngine::Reference`] forces the original
//! per-point tree-walk through
//! [`exec_point_hooked`]; both
//! engines produce bitwise-identical stores and identical [`ExecStats`]
//! (differentially tested over the whole benchmark suite).
//!
//! # One walker for every index
//!
//! Every index the emulator enumerates goes through the plan's loop-nest
//! odometer. A kernel run is three nested
//! [`eatss_affine::plan::for_each_point`] walks over one `origin`, a value
//! per kernel dim: the launches (each time dim over its trip), in each
//! the blocks (mapped positions `rank − 1 … 0` over their tile origins,
//! so x is fastest, CUDA's linear order), and in each block the serial
//! tile steps. A step reads its staging box, the start of each thread's
//! loops and its time coordinates off `origin`, and walks its chunks of
//! threads over positions `rank − 1 … 1`. A staged box loads row by row
//! through [`eatss_affine::plan::for_each_row`], and point by point under
//! a skipped barrier.
//!
//! Every point runs inside a *row* — points that differ in one
//! coordinate, one `exec_row_routed` call under the plan engine, point by
//! point under the reference one — and every row is issued by
//! [`eatss_affine::plan::for_each_row`]. A thread's
//! nest is its serial point loops, then its mapped cyclic loops (x
//! innermost), with the innermost loop that iterates as its row.
//! Across threads, a chunk of `thread_extents[0]` x-adjacent threads
//! shares every loop but x, and runs those loops once with one row along
//! mapped dim 0 per iteration, as a warp runs a loop iteration across its
//! lanes. Over the chunk's whole x span (*lockstep*) this interleaves the
//! threads' points, each thread's in its own order; it runs only where
//! `lockstep_safe` proves every interleaving leaves the same store, and
//! where it makes fewer rows than thread by thread. Otherwise, where the
//! shared loops iterate once, the threads that own one point apiece run
//! as one row (the same points in the same order as thread by thread).
//! Rows run per kernel are tallied in the `exec.rows` trace counter,
//! beside `exec.points` and `exec.blocks`, and the points by row loop in
//! `exec.points_block`, `exec.points_fused` and `exec.points_scalar`
//! ([`RowScratch::publish`]).
//!
//! What is *not* modeled: warp scheduling, memory timing, and racy
//! unsynchronized accesses (blocks and threads are independent by
//! construction of the mapping, so any interleaving is equivalent —
//! except across a skipped barrier, which [`BarrierFidelity::SkipLoadBarrier`]
//! exposes deliberately).

use crate::mapping::{GpuMapping, MAX_BLOCK_DIMS};
use eatss_affine::analysis::{AccessAnalysis, AnalysedProgram};
use eatss_affine::interp::{exec_point_hooked, Array, Store};
use eatss_affine::ir::{AffineExpr, ArrayRef, Kernel};
use eatss_affine::plan::{for_each_point, for_each_row, ExecPlan, Loop, RouteSource, RowScratch};
use eatss_affine::{ProblemSizes, Program};
use std::convert::Infallible;
use std::fmt;

/// How faithfully `__syncthreads()` phases are honored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierFidelity {
    /// The barrier after the cooperative load completes before any thread
    /// computes — the semantics of the generated code.
    #[default]
    Faithful,
    /// The load barrier is skipped: each thread loads only its own cyclic
    /// share of the staged box and immediately computes, so it observes
    /// stale (or initial-zero) values for elements other threads stage.
    /// Used by tests to prove the oracle is barrier-sensitive.
    SkipLoadBarrier,
}

/// Which execution core runs the statements at each point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Compile the kernel into an [`ExecPlan`] (staged reads pre-routed,
    /// addresses linearized, RHS as an opcode tape) and run its points
    /// as rows. Kernels the plan compiler cannot lower silently fall back
    /// to the reference walk.
    #[default]
    Plan,
    /// The original tree-walking per-point execution, retained as the
    /// executable specification the plan engine is tested against.
    Reference,
}

/// Emulator knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Barrier semantics (see [`BarrierFidelity`]).
    pub barrier_fidelity: BarrierFidelity,
    /// Execution core (see [`ExecEngine`]).
    pub engine: ExecEngine,
}

/// Execution counters, for trace output and harness reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Kernel launches performed (product of time-loop trips per kernel).
    pub launches: u64,
    /// Blocks executed across all launches.
    pub blocks: u64,
    /// `__syncthreads()` barriers honored.
    pub barriers: u64,
    /// Elements loaded into staged shared buffers.
    pub staged_elems: u64,
    /// Iteration points executed.
    pub points: u64,
}

impl ExecStats {
    fn absorb(&mut self, other: ExecStats) {
        self.launches += other.launches;
        self.blocks += other.blocks;
        self.barriers += other.barriers;
        self.staged_elems += other.staged_elems;
        self.points += other.points;
    }
}

/// Emulation failures — each one is a genuine bug in the mapping or the
/// generated code, not a data problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A problem-size parameter is unbound.
    UnboundParameter(String),
    /// A staged group is written: the generated code has no write-back
    /// phase, so staging it would drop the writes.
    StagedWrite {
        /// Kernel name.
        kernel: String,
        /// Array name.
        array: String,
    },
    /// A read routed to a staged buffer fell outside the staged box —
    /// the cooperative load under-covers the tile's accesses.
    StagedReadOutOfBox {
        /// Kernel name.
        kernel: String,
        /// Array name.
        array: String,
        /// The out-of-box global index.
        index: Vec<i64>,
    },
    /// The staged box needs more elements than the `__shared__`
    /// declaration provides.
    SharedUndersized {
        /// Kernel name.
        kernel: String,
        /// Array name.
        array: String,
        /// Elements the box actually needs.
        box_elems: i64,
        /// Elements the mapping declared.
        declared_elems: i64,
    },
    /// A staged box's bounds or element count is past the 64-bit range
    /// (a subscript constant near the end of `i64`).
    StagedBoxOverflow {
        /// Kernel name.
        kernel: String,
        /// Array name.
        array: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundParameter(p) => {
                write!(f, "problem-size parameter `{p}` is unbound")
            }
            ExecError::StagedWrite { kernel, array } => write!(
                f,
                "{kernel}: staged array `{array}` is written but staging has no write-back"
            ),
            ExecError::StagedReadOutOfBox {
                kernel,
                array,
                index,
            } => write!(
                f,
                "{kernel}: read of `{array}`{index:?} outside its staged box"
            ),
            ExecError::SharedUndersized {
                kernel,
                array,
                box_elems,
                declared_elems,
            } => write!(
                f,
                "{kernel}: staged box of `{array}` needs {box_elems} elems, \
                 __shared__ declares {declared_elems}"
            ),
            ExecError::StagedBoxOverflow { kernel, array } => write!(
                f,
                "{kernel}: staged box of `{array}` is past the 64-bit range"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A staged group prepared for emulation: which read refs route to the
/// buffer, and the representative subscripts the box is derived from.
struct StagedGroup<'a> {
    representative: &'a ArrayRef,
    fastest_offsets: (i64, i64),
    declared_elems: i64,
    /// Current box: per-subscript `(lo, hi)` inclusive global bounds.
    bounds: Vec<(i64, i64)>,
    /// Buffer contents, row-major over the box.
    data: Vec<f64>,
    /// The box as a loop nest and an index into it, rebuilt in place at
    /// each load.
    nest: Vec<Loop>,
    index: Vec<i64>,
}

impl StagedGroup<'_> {
    fn array(&self) -> &str {
        &self.representative.array
    }

    /// The box's element count, `None` past `i64`.
    fn box_elems(&self) -> Option<i64> {
        (self.bounds.iter()).try_fold(1i64, |elems, (lo, hi)| {
            elems.checked_mul(hi.checked_sub(*lo)?.checked_add(1)?)
        })
    }

    /// Flattens a global multi-index into the box, or `None` if outside.
    fn flatten(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.bounds.len() {
            return None;
        }
        let mut flat: i64 = 0;
        for (&i, &(lo, hi)) in idx.iter().zip(&self.bounds) {
            if i < lo || i > hi {
                return None;
            }
            flat = flat * (hi - lo + 1) + (i - lo);
        }
        Some(flat as usize)
    }

    /// Sets `nest` to the box as a loop nest over its subscripts, the
    /// last fastest.
    fn box_nest(&mut self) {
        self.nest.clear();
        (self.nest).extend(self.bounds.iter().enumerate().map(|(dim, &(lo, hi))| Loop {
            dim,
            start: lo,
            count: hi - lo + 1,
            step: 1,
        }));
        self.index.resize(self.bounds.len(), 0);
    }

    /// Cooperative-load fast path: fills the box of `elems` elements from
    /// `array` row by row (last subscript contiguous), with out-of-bounds
    /// elements zero — element-for-element what a per-index `Array::get`
    /// loop produces.
    fn load_box(&mut self, elems: usize, array: Option<&Array>) {
        self.data.clear();
        self.data.resize(elems, 0.0);
        let array = match array {
            Some(a) if a.extents().len() == self.bounds.len() => a,
            // Missing array or rank mismatch: every read misses → zeros.
            _ => return,
        };
        let n = self.bounds.len();
        if n == 0 {
            self.data[0] = array.data()[0];
            return;
        }
        let extents = array.extents();
        let (last_lo, last_hi) = self.bounds[n - 1];
        let row_len = (last_hi - last_lo + 1) as usize;
        // Overlap of the box row with the array's last dimension.
        let ov_lo = last_lo.max(0);
        let ov_hi = last_hi.min(extents[n - 1] - 1);
        let mut dst = (ov_lo - last_lo) as usize;
        self.box_nest();
        let data = &mut self.data;
        let Ok(()) = for_each_row(&mut self.index, &self.nest, |idx, _| {
            let outer = &idx[..n - 1];
            if ov_lo <= ov_hi && outer.iter().zip(extents).all(|(&v, &e)| 0 <= v && v < e) {
                // The row's first element, flattened over the extents.
                let base = (outer.iter().zip(extents)).fold(0, |flat, (v, e)| flat * e + v)
                    * extents[n - 1];
                let (src, len) = ((base + ov_lo) as usize, (ov_hi - ov_lo + 1) as usize);
                data[dst..dst + len].copy_from_slice(&array.data()[src..src + len]);
            }
            dst += row_len;
            Ok::<(), Infallible>(())
        });
    }

    /// One thread's share of the load when the barrier is skipped: the
    /// box elements `thread`, `thread + threads`, … in row-major order.
    fn load_share(&mut self, array: Option<&Array>, thread: i64, threads: i64) {
        self.box_nest();
        let data = &mut self.data;
        let mut flat = 0;
        let Ok(()) = for_each_point(&mut self.index, &self.nest, |idx| {
            if flat % threads == thread {
                data[flat as usize] = array.map_or(0.0, |a| a.get(idx));
            }
            flat += 1;
            Ok::<(), Infallible>(())
        });
    }
}

/// The staged route a statement read resolves to, if any — the routing
/// rule shared by plan compilation and the reference hook.
fn route_of(staged: &[StagedGroup<'_>], r: &ArrayRef) -> Option<usize> {
    staged.iter().position(|g| g.representative.same_lines(r))
}

/// Compiled plans shared across a batch of configurations of one kernel,
/// keyed by staged-route signature: a plan embeds the store layout, the
/// trip counts, and — per statement read — the staged route it resolves
/// to. The first two are batch invariants; only the route assignment
/// follows a mapping's staging decisions, so configurations that stage
/// the same reads share one compiled plan; a single configuration is a
/// batch of one. An entry holding `None` caches a kernel the plan
/// compiler cannot lower.
#[derive(Default)]
pub(crate) struct KernelPlanCache {
    entries: Vec<(Vec<Option<usize>>, Option<ExecPlan>)>,
}

impl KernelPlanCache {
    fn lookup_or_compile(
        &mut self,
        kernel: &Kernel,
        trips: &[i64],
        store: &Store,
        staged: &[StagedGroup<'_>],
    ) -> Option<&ExecPlan> {
        let signature: Vec<Option<usize>> = kernel
            .stmts
            .iter()
            .flat_map(|s| s.reads.iter())
            .map(|r| route_of(staged, r))
            .collect();
        let pos = match self.entries.iter().position(|(sig, _)| *sig == signature) {
            Some(pos) => pos,
            None => {
                let plan = ExecPlan::compile_routed(kernel, trips, store, |r| route_of(staged, r));
                self.entries.push((signature, plan));
                self.entries.len() - 1
            }
        };
        self.entries[pos].1.as_ref()
    }
}

/// Serves the plan's pre-routed staged reads, with the same
/// out-of-box accounting as the reference hook: the first failure is
/// recorded, the read returns 0.
struct StagedRouter<'k, 'a> {
    staged: &'a [StagedGroup<'k>],
    kernel: &'a str,
    failure: Option<ExecError>,
}

impl StagedRouter<'_, '_> {
    fn record_out_of_box(&mut self, array: &str, index: &[i64]) {
        if self.failure.is_none() {
            self.failure = Some(ExecError::StagedReadOutOfBox {
                kernel: self.kernel.to_owned(),
                array: array.to_owned(),
                index: index.to_vec(),
            });
        }
    }
}

impl RouteSource for StagedRouter<'_, '_> {
    fn read(&mut self, route: usize, index: &[i64]) -> f64 {
        let g = &self.staged[route];
        match g.flatten(index) {
            Some(flat) => g.data[flat],
            None => {
                self.record_out_of_box(g.array(), index);
                0.0
            }
        }
    }

    fn row(
        &mut self,
        route: usize,
        start: &[i64],
        delta: &[i64],
        count: i64,
    ) -> Option<(i64, i64)> {
        // Subscripts move monotonically along a row, so checking the two
        // endpoints against the box proves the whole row stays inside it;
        // the box flatten is then linear in the subscripts.
        let g = &self.staged[route];
        if start.len() != g.bounds.len() {
            return None;
        }
        let mut flat = 0i64;
        let mut flat_delta = 0i64;
        for ((&s, &d), &(lo, hi)) in start.iter().zip(delta).zip(&g.bounds) {
            let last = s + (count - 1) * d;
            if s.min(last) < lo || s.max(last) > hi {
                return None;
            }
            let extent = hi - lo + 1;
            flat = flat * extent + (s - lo);
            flat_delta = flat_delta * extent + d;
        }
        Some((flat, flat_delta))
    }

    fn row_data(&self, route: usize) -> &[f64] {
        &self.staged[route].data
    }
}

/// The plan engine's state for one kernel: the compiled plan, its
/// reusable row scratch, the rows run so far (the `exec.rows` tally), and
/// whether a chunk's threads may run in lockstep ([`lockstep_safe`]).
struct PlanRows<'p> {
    plan: &'p ExecPlan,
    scratch: RowScratch,
    rows: u64,
    lockstep: bool,
}

/// One kernel's emulation: what its tile steps read, and what they
/// change. `point` and `loops` are a thread's point and loop nest,
/// reused across steps.
struct KernelRun<'a> {
    kernel: &'a Kernel,
    mapping: &'a GpuMapping,
    trips: Vec<i64>,
    faithful: bool,
    /// The block's chunks of x-adjacent threads: mapped positions
    /// `rank − 1 … 1`, each over its thread coordinates.
    chunks: Vec<Loop>,
    plan: Option<PlanRows<'a>>,
    staged: Vec<StagedGroup<'a>>,
    store: &'a mut Store,
    stats: ExecStats,
    point: Vec<i64>,
    loops: Vec<Loop>,
}

/// Executes one compiled kernel over the store, taking its plan from
/// `cache` (compiled on the first use of a route signature).
///
/// A kernel run is three walks over one `origin`, a value per kernel dim:
/// the launches (one per time step), in each the blocks (each mapped dim
/// over its tile origins, x fastest), and in each block the serial tile
/// steps; at each step `origin` holds the step's time coordinates and
/// the first point of its tile along every other dim.
fn execute_mapped_kernel(
    kernel: &Kernel,
    analysis: &AccessAnalysis,
    mapping: &GpuMapping,
    sizes: &ProblemSizes,
    store: &mut Store,
    opts: &ExecOptions,
    cache: &mut KernelPlanCache,
) -> Result<ExecStats, ExecError> {
    let mut span = eatss_trace::span("exec", "kernel");
    if span.is_active() {
        span.arg("kernel", kernel.name.as_str());
        span.arg("tiles", mapping.tiles.to_string());
    }
    let depth = kernel.depth();
    let trips: Vec<i64> = (0..depth)
        .map(|d| {
            kernel
                .trip_count(d, sizes)
                .map_err(ExecError::UnboundParameter)
        })
        .collect::<Result<_, _>>()?;
    if trips.iter().any(|&t| t <= 0) {
        return Ok(ExecStats::default());
    }

    // Prepare staged groups and route each statement read to its buffer.
    let mut staged: Vec<StagedGroup<'_>> = Vec::new();
    for r in &mapping.refs {
        if !r.staged {
            continue;
        }
        let group = r.group_in(analysis);
        if group.is_written {
            return Err(ExecError::StagedWrite {
                kernel: kernel.name.clone(),
                array: group.array().to_owned(),
            });
        }
        staged.push(StagedGroup {
            representative: group.representative,
            fastest_offsets: group.fastest_offsets,
            declared_elems: r.tile_footprint_elems,
            bounds: Vec::new(),
            data: Vec::new(),
            nest: Vec::new(),
            index: Vec::new(),
        });
    }

    // Choose the execution core once per kernel: staged reads resolve to
    // their route here, at compile time, instead of a group search per
    // read per point.
    let plan: Option<PlanRows<'_>> = match opts.engine {
        ExecEngine::Plan => cache
            .lookup_or_compile(kernel, &trips, store, &staged)
            .map(|plan| PlanRows {
                plan,
                scratch: plan.scratch(),
                rows: 0,
                lockstep: lockstep_safe(kernel, mapping.mapped_dims[0]),
            }),
        ExecEngine::Reference => None,
    };

    let tiles = mapping.tiles.sizes();
    let mapped = &mapping.mapped_dims;
    let time = |d: &usize| kernel.dims[*d].explicit_serial;
    let every = |dim, count, step| Loop {
        dim,
        start: 0,
        count,
        step,
    };
    let launches: Vec<Loop> = (0..depth)
        .filter(time)
        .map(|d| every(d, trips[d], 1))
        .collect();
    let blocks: Vec<Loop> = (mapped.iter().zip(&mapping.grid_extents).rev())
        .map(|(&d, &count)| every(d, count, tiles[d]))
        .collect();
    let steps: Vec<Loop> = (0..depth)
        .filter(|d| !mapped.contains(d) && !time(d))
        .map(|d| every(d, (trips[d] - 1) / tiles[d] + 1, tiles[d]))
        .collect();
    let mut run = KernelRun {
        kernel,
        mapping,
        trips,
        faithful: opts.barrier_fidelity == BarrierFidelity::Faithful,
        chunks: (1..mapped.len())
            .rev()
            .map(|pos| every(pos, mapping.thread_extents[pos], 1))
            .collect(),
        plan,
        staged,
        store,
        stats: ExecStats::default(),
        point: vec![0; depth],
        loops: Vec::with_capacity(steps.len() + mapped.len()),
    };
    for_each_point(&mut vec![0; depth], &launches, |origin| {
        run.stats.launches += 1;
        for_each_point(origin, &blocks, |origin| {
            run.stats.blocks += 1;
            // Shared memory has block lifetime; its contents start
            // undefined — zeros here, which the skip-barrier mode
            // deliberately observes.
            for g in &mut run.staged {
                g.bounds.clear();
                g.data.clear();
            }
            for_each_point(origin, &steps, |origin| run.step(origin, &steps))
        })
    })?;
    if let Some(plan) = &run.plan {
        plan.scratch.publish();
    }
    let (stats, rows) = (run.stats, run.plan.map_or(0, |p| p.rows));
    if span.is_active() {
        span.arg("points", stats.points);
        span.arg("blocks", stats.blocks);
        span.arg("rows", rows);
    }
    eatss_trace::counter_add("exec.points", stats.points);
    eatss_trace::counter_add("exec.blocks", stats.blocks);
    eatss_trace::counter_add("exec.rows", rows);
    Ok(stats)
}

impl KernelRun<'_> {
    /// One serial tile step inside one block, from `origin`, of the
    /// block's tile-step loops `steps`: staging phase, barrier, compute.
    fn step(&mut self, origin: &[i64], steps: &[Loop]) -> Result<(), ExecError> {
        let (kernel, mapping, trips) = (self.kernel, self.mapping, &self.trips);
        let tiles = mapping.tiles.sizes();
        // Where dim `d`'s tile ends in this step (exclusive), and the
        // values the dim takes: its time step, or its tile.
        let end = |d: usize| (origin[d] + tiles[d]).min(trips[d]);
        let range = |d: usize| match kernel.dims[d].explicit_serial {
            true => (origin[d], origin[d]),
            false => (origin[d], end(d) - 1),
        };

        // A staged box's bounds along one subscript, `None` past `i64`.
        let bounds = |s: &AffineExpr, (lo_offset, hi_offset): (i64, i64)| {
            let (mut lo, mut hi) = (0i64, 0i64);
            for &(d, c) in s.terms() {
                let (rlo, rhi) = range(d);
                let (at_lo, at_hi) = if c >= 0 { (rlo, rhi) } else { (rhi, rlo) };
                lo = lo.checked_add(c.checked_mul(at_lo)?)?;
                hi = hi.checked_add(c.checked_mul(at_hi)?)?;
            }
            Some((lo.checked_add(lo_offset)?, hi.checked_add(hi_offset)?))
        };

        // --- staging phase --------------------------------------------------
        for g in &mut self.staged {
            let nsubs = g.representative.subscripts.len();
            g.bounds.clear();
            let representative = g.representative;
            let overflow = || ExecError::StagedBoxOverflow {
                kernel: kernel.name.clone(),
                array: representative.array.to_string(),
            };
            for (p, s) in g.representative.subscripts.iter().enumerate() {
                // Fastest subscript: span all member offsets.
                let offsets = match p + 1 == nsubs {
                    true => g.fastest_offsets,
                    false => (s.offset(), s.offset()),
                };
                g.bounds.push(bounds(s, offsets).ok_or_else(overflow)?);
            }
            let elems = g.box_elems().ok_or_else(overflow)?;
            if elems > g.declared_elems {
                return Err(ExecError::SharedUndersized {
                    kernel: kernel.name.clone(),
                    array: g.array().to_owned(),
                    box_elems: elems,
                    declared_elems: g.declared_elems,
                });
            }
            self.stats.staged_elems += elems as u64;
            if self.faithful {
                // Cooperative load, then the barrier: the buffer is fully
                // populated before any thread computes.
                g.load_box(elems as usize, self.store.get(g.array()));
                self.stats.barriers += 1;
            } else {
                // Loads happen per-thread, interleaved with compute below;
                // keep whatever was in the buffer (stale or zero) and only
                // grow it to the box size.
                g.data.resize(elems as usize, 0.0);
            }
        }

        // --- compute phase --------------------------------------------------
        // Threads run one chunk of `thread_extents[0]` x-adjacent threads at
        // a time, in linear order. A chunk's threads share every loop but x:
        // the serial point loops, then the mapped cyclic loops at positions
        // `rank − 1 … 1` (`loops`, outermost first). Thread x of a chunk adds
        // its x loop, the points `origin₀ + x`, `+ width`, … below `end₀`,
        // and runs its loops with the row `thread_row` picks. Under the plan
        // engine, threads below `solo` run on their own; the x offsets
        // `solo..row_end` run as one row per iteration of the shared loops.
        // Lockstep: under `lockstep_safe` every interleaving of the chunk's
        // threads leaves the same store, so the whole x span runs that way
        // where it makes fewer rows than thread by thread; each thread's
        // points keep their order, only the interleaving changes. Otherwise,
        // where the shared loops iterate once, the threads that own one point
        // run as one row after those that own several — the per-thread order,
        // point for point. The skip-barrier mode keeps the per-thread loop —
        // each thread's own cyclic load is what it models.
        let rank = mapping.thread_extents.len();
        let width = mapping.thread_extents[0];
        let threads: i64 = mapping.thread_extents.iter().product();
        let x_dim = mapping.mapped_dims[0];
        let x_span = end(x_dim) - origin[x_dim];
        // The cyclic loop at mapped position `pos` of a thread at `coord`
        // along it: every `thread_extents[pos]`-th point of the tile from it.
        let mapped_loop = |pos: usize, coord: i64| {
            let dim = mapping.mapped_dims[pos];
            let start = origin[dim] + coord;
            let step = mapping.thread_extents[pos];
            Loop {
                dim,
                start,
                count: ((end(dim) - start + step - 1) / step).max(0),
                step,
            }
        };
        // The point starts at the step's time coordinates; the loops set
        // the rest. The shared loops, then room for one more: a thread's x
        // loop or a chunk's x row.
        self.point.copy_from_slice(origin);
        self.loops.clear();
        self.loops
            .extend(steps.iter().map(|&Loop { dim, .. }| Loop {
                dim,
                start: origin[dim],
                count: end(dim) - origin[dim],
                step: 1,
            }));
        let nserial = self.loops.len();
        let mut first_thread = 0;
        let mut coord = [0i64; MAX_BLOCK_DIMS.len()];
        for_each_point(&mut coord, &self.chunks, |coord| {
            let first = first_thread;
            first_thread += width;
            let loops = &mut self.loops;
            loops.truncate(nserial);
            loops.extend((1..rank).rev().map(|pos| mapped_loop(pos, coord[pos])));
            let shared: i64 = loops.iter().map(|l| l.count).product();
            if shared == 0 && self.faithful {
                return Ok(()); // no thread of the chunk owns a point
            }
            let (solo, row_end) = match &self.plan {
                Some(plan) if self.faithful => {
                    // Thread by thread, a thread owning several x points
                    // runs one x row per shared iteration; one owning a
                    // single x point (its x loop, last, of one value) runs
                    // the row `thread_row` picks.
                    let row_len = (loops.get(thread_row(loops, nserial))).map_or(1, |l| l.count);
                    let multi = (x_span - width).clamp(0, width);
                    let live = x_span.min(width);
                    let per_thread_rows = multi * shared + (live - multi) * (shared / row_len);
                    if plan.lockstep && shared < per_thread_rows {
                        (0, x_span)
                    } else if shared == 1 && live > multi {
                        (multi, live)
                    } else {
                        (width, 0)
                    }
                }
                _ => (width, 0),
            };
            for x in 0..solo {
                if !self.faithful {
                    // This thread loads only its cyclic share before computing.
                    for g in &mut self.staged {
                        g.load_share(self.store.get(g.array()), first + x, threads);
                    }
                }
                // The thread's nest, its row moved last and then back.
                loops.push(mapped_loop(0, x));
                let row = thread_row(loops, nserial);
                loops[row..].rotate_left(1);
                run_rows(
                    kernel,
                    self.plan.as_mut(),
                    &self.staged,
                    self.store,
                    &mut self.point,
                    loops,
                    &mut self.stats,
                )?;
                loops[row..].rotate_right(1);
                loops.pop();
            }
            if row_end > solo {
                loops.push(Loop {
                    dim: x_dim,
                    start: origin[x_dim] + solo,
                    count: row_end - solo,
                    step: 1,
                });
                run_rows(
                    kernel,
                    self.plan.as_mut(),
                    &self.staged,
                    self.store,
                    &mut self.point,
                    loops,
                    &mut self.stats,
                )?;
            }
            Ok(())
        })?;
        if !self.staged.is_empty() {
            self.stats.barriers += 1; // barrier after the compute phase
        }
        Ok(())
    }
}

/// The row of one thread's loops — its serial point loops in dim order,
/// then its mapped cyclic loops at positions `rank − 1 … 0`, the first
/// `nserial` serial: the innermost mapped loop that iterates; else the
/// innermost serial loop; else the outermost mapped loop. Every loop
/// inside the row takes one value, so running the row last keeps the
/// thread's point order.
fn thread_row(loops: &[Loop], nserial: usize) -> usize {
    (nserial..loops.len())
        .rev()
        .find(|&i| loops[i].count > 1)
        .unwrap_or(nserial.saturating_sub(1))
}

/// Walks the loop nest `loops` from `point` and executes each row: as one
/// plan row, or, with no plan, point by point through the reference
/// walker. The first out-of-box staged read is the error.
fn run_rows(
    kernel: &Kernel,
    mut plan: Option<&mut PlanRows<'_>>,
    staged: &[StagedGroup<'_>],
    store: &mut Store,
    point: &mut [i64],
    loops: &[Loop],
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    let mut router = StagedRouter {
        staged,
        kernel: &kernel.name,
        failure: None,
    };
    for_each_row(point, loops, |point, row| {
        stats.points += row.count as u64;
        match plan.as_deref_mut() {
            Some(plan) => {
                plan.rows += 1;
                plan.plan.exec_row_routed(
                    store,
                    point,
                    row.dim,
                    row.count,
                    row.step,
                    &mut plan.scratch,
                    &mut router,
                );
            }
            None => {
                for _ in 0..row.count {
                    exec_point_hooked(kernel, store, point, &mut |r, idx| {
                        route_of(staged, r).map(|route| router.read(route, idx))
                    });
                    if router.failure.is_some() {
                        break;
                    }
                    point[row.dim] += row.step;
                }
            }
        }
        router.failure.take().map_or(Ok(()), Err)
    })
}

/// Whether the x-adjacent threads of a chunk may run their points in
/// any interleaving, each thread's own points in order, and leave the
/// same store. It holds when every statement writes through a subscript
/// whose only term is `x`, and every reference to a written array is
/// that array's write. Threads own disjoint x values, so each written
/// element is then read and written by one thread only, in its own
/// order; every other array is read-only (a staged group is never
/// written).
fn lockstep_safe(kernel: &Kernel, x_dim: usize) -> bool {
    kernel.stmts.iter().all(|s| {
        let w = &s.write;
        w.subscripts
            .iter()
            .any(|sub| matches!(sub.terms(), [(d, _)] if *d == x_dim))
            && kernel
                .stmts
                .iter()
                .flat_map(|t| t.reads.iter().chain([&t.write]))
                .all(|r| r.array != w.array || r == w)
    })
}

/// Executes a whole compiled program (every kernel in order) over the
/// store, mirroring the generated host `main`. `mappings` are
/// `program`'s, from [`crate::Ppcg::map`] or [`crate::Ppcg::compile`]:
/// their references index the groups of the program's access analysis,
/// which this call computes once.
///
/// # Errors
///
/// See [`ExecError`]. The error is the first failure in execution order:
/// the same kind for the same kernel under either engine, though where
/// the plan engine runs a chunk of threads in lockstep its
/// [`ExecError::StagedReadOutOfBox`] may name another index (or another
/// under-covered array) than the reference engine's. The store's contents
/// after an `Err` are unspecified (a row finishes before its failure is
/// reported).
pub fn execute_compiled(
    program: &Program,
    mappings: &[GpuMapping],
    sizes: &ProblemSizes,
    store: &mut Store,
    opts: &ExecOptions,
) -> Result<ExecStats, ExecError> {
    let mut caches = kernel_plan_caches(program);
    let analysed = AnalysedProgram::new(program);
    execute_with_caches(&analysed, mappings, sizes, store, opts, &mut caches)
}

/// One empty plan cache per kernel of `program`.
pub(crate) fn kernel_plan_caches(program: &Program) -> Vec<KernelPlanCache> {
    program
        .kernels
        .iter()
        .map(|_| KernelPlanCache::default())
        .collect()
}

/// Every kernel in order, each against its own plan cache. The caches
/// may be shared by runs over stores of one layout (the slots and
/// extents a plan embeds) at the same sizes.
pub(crate) fn execute_with_caches(
    analysed: &AnalysedProgram,
    mappings: &[GpuMapping],
    sizes: &ProblemSizes,
    store: &mut Store,
    opts: &ExecOptions,
    caches: &mut [KernelPlanCache],
) -> Result<ExecStats, ExecError> {
    let mut stats = ExecStats::default();
    for (((kernel, analysis), mapping), cache) in analysed.kernels().zip(mappings).zip(caches) {
        stats.absorb(execute_mapped_kernel(
            kernel, analysis, mapping, sizes, store, opts, cache,
        )?);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::CompileOptions;
    use crate::oracle::seed_store;
    use eatss_affine::interp::{compare_stores, run_program};
    use eatss_affine::parser::parse_program;
    use eatss_gpusim::GpuArch;

    const MM: &str = "kernel mm(M, N, P) {
        for (i: M) for (j: N) for (k: P)
          C[i][j] += A[i][k] * B[k][j];
      }";

    fn plan_opts() -> ExecOptions {
        ExecOptions {
            engine: ExecEngine::Plan,
            ..ExecOptions::default()
        }
    }

    fn reference_opts() -> ExecOptions {
        ExecOptions {
            engine: ExecEngine::Reference,
            ..ExecOptions::default()
        }
    }

    fn emulate(
        src: &str,
        tiles: Vec<i64>,
        sizes: &[(&str, i64)],
        opts: &ExecOptions,
    ) -> (Store, Store, ExecStats) {
        let p = parse_program(src).unwrap();
        let sizes = ProblemSizes::new(sizes.iter().cloned());
        let compiled = crate::Ppcg::new(GpuArch::ga100())
            .compile(
                &p,
                &eatss_affine::tiling::TileConfig::new(tiles),
                &sizes,
                &CompileOptions::default(),
            )
            .unwrap();
        let mut emul = seed_store(&p, &sizes, 42).unwrap();
        let stats = execute_compiled(&p, &compiled.mappings, &sizes, &mut emul, opts).unwrap();
        let mut reference = seed_store(&p, &sizes, 42).unwrap();
        run_program(&p, &sizes, &mut reference).unwrap();
        (emul, reference, stats)
    }

    #[test]
    fn matmul_agrees_with_interpreter() {
        let (emul, reference, stats) = emulate(
            MM,
            vec![4, 4, 4],
            &[("M", 9), ("N", 10), ("P", 7)],
            &plan_opts(),
        );
        assert!(compare_stores(&emul, &reference).is_empty());
        assert_eq!(stats.points, 9 * 10 * 7);
        assert_eq!(stats.launches, 1);
    }

    #[test]
    fn non_divisible_and_unit_tiles_agree() {
        for tiles in [vec![1, 1, 1], vec![3, 5, 2], vec![16, 16, 16]] {
            let (emul, reference, _) = emulate(
                MM,
                tiles.clone(),
                &[("M", 7), ("N", 11), ("P", 5)],
                &plan_opts(),
            );
            assert!(
                compare_stores(&emul, &reference).is_empty(),
                "tiles {tiles:?} disagree"
            );
        }
    }

    #[test]
    fn engines_agree_bitwise_with_identical_stats() {
        for tiles in [vec![4, 4, 4], vec![3, 5, 2], vec![1, 1, 1]] {
            let sizes: &[(&str, i64)] = &[("M", 9), ("N", 10), ("P", 7)];
            let (plan_store, _, plan_stats) = emulate(MM, tiles.clone(), sizes, &plan_opts());
            let (ref_store, _, ref_stats) = emulate(MM, tiles.clone(), sizes, &reference_opts());
            assert!(
                compare_stores(&plan_store, &ref_store).is_empty(),
                "tiles {tiles:?}: engines disagree"
            );
            assert_eq!(plan_stats, ref_stats, "tiles {tiles:?}: stats diverge");
        }
    }

    #[test]
    fn default_engine_matches_interpreter_on_small_and_large_domains() {
        // 630 and 2197 points: the two sides of the retired size-based
        // engine choice; the default plan engine matches the interpreter
        // bitwise on both.
        for sizes in [
            &[("M", 9), ("N", 10), ("P", 7)][..],
            &[("M", 13), ("N", 13), ("P", 13)][..],
        ] {
            let points: i64 = sizes.iter().map(|&(_, n)| n).product();
            let (emul, reference, stats) =
                emulate(MM, vec![4, 4, 4], sizes, &ExecOptions::default());
            assert!(
                compare_stores(&emul, &reference).is_empty(),
                "{points} points: default engine diverges from interpreter"
            );
            assert_eq!(stats.points as i64, points);
        }
    }

    /// Emulates under both engines and asserts bitwise-equal stores —
    /// with each other and with the interpreter — and equal [`ExecStats`];
    /// returns the mappings and the stats.
    fn engines_agree(
        src: &str,
        tiles: Vec<i64>,
        sizes: &[(&str, i64)],
    ) -> (Vec<GpuMapping>, ExecStats) {
        let (plan_store, interpreted, plan_stats) =
            emulate(src, tiles.clone(), sizes, &plan_opts());
        let (ref_store, _, ref_stats) = emulate(src, tiles.clone(), sizes, &reference_opts());
        assert!(
            compare_stores(&plan_store, &ref_store).is_empty(),
            "engines disagree"
        );
        assert!(
            compare_stores(&plan_store, &interpreted).is_empty(),
            "plan disagrees with interpreter"
        );
        assert_eq!(plan_stats, ref_stats, "stats diverge");
        let p = parse_program(src).unwrap();
        let sizes = ProblemSizes::new(sizes.iter().cloned());
        let mappings = crate::Ppcg::new(GpuArch::ga100())
            .compile(
                &p,
                &eatss_affine::tiling::TileConfig::new(tiles),
                &sizes,
                &CompileOptions::default(),
            )
            .unwrap()
            .mappings;
        (mappings, plan_stats)
    }

    #[test]
    fn thread_runs_with_multi_point_threads_first_match_the_reference() {
        // One 40-wide tile over 32 x-threads: threads 0–7 own two points
        // (x and x + 32), threads 8–31 one each — a chunk that runs eight
        // threads on their own and fuses the other 24. The stencil reads
        // go through a staged buffer.
        let (mappings, stats) = engines_agree(
            "kernel blur(N) {
               for (i: N)
                 B[i] = A[i - 1] + A[i] + A[i + 1];
             }",
            vec![64],
            &[("N", 40)],
        );
        assert_eq!(mappings[0].thread_extents, vec![32]);
        assert_eq!(stats.points, 40);
    }

    #[test]
    fn thread_runs_under_multi_point_outer_threads_match_the_reference() {
        // 13³ under a 13×13×4 block, as heat-3d at the oracle's caps: each
        // z-thread owns three or four planes, so no chunk fuses whole.
        let (mappings, stats) = engines_agree(
            "kernel smooth(N) {
               for (i: N) for (j: N) for (k: N)
                 B[i][j][k] = A[i - 1][j][k] + A[i][j][k] + A[i][j][k + 1];
             }",
            vec![16, 16, 16],
            &[("N", 13)],
        );
        assert_eq!(mappings[0].thread_extents, vec![13, 13, 4]);
        assert_eq!(stats.points, 13 * 13 * 13);
    }

    #[test]
    fn thread_runs_in_a_one_iteration_serial_tail_match_the_reference() {
        // A serial tile of 16 over a trip of 17: the first step's threads
        // own 16 k-points each and stay per-thread; the second step's own
        // one each, and its chunks fuse.
        let (mappings, stats) = engines_agree(MM, vec![8, 8, 16], &[("M", 8), ("N", 8), ("P", 17)]);
        assert_eq!(mappings[0].thread_extents, vec![8, 8]);
        assert_eq!(stats.points, 8 * 8 * 17);
    }

    /// Every `B[i][·]` is written once, but no subscript of the write is
    /// `j` alone, so threads along x (`j`) are not proven to own what
    /// they write.
    const SHEAR: &str = "kernel shear(N) {
        for (i: N) for (j: N)
          B[i][j + i] = A[i][j];
      }";

    #[test]
    fn lockstep_is_safe_only_where_each_written_element_has_one_x() {
        for name in ["heat-3d", "b2mm", "fdtd-apml"] {
            let bench = eatss_kernels::by_name(name).unwrap();
            let p = bench.program().unwrap();
            let mappings = crate::Ppcg::new(GpuArch::ga100())
                .compile(
                    &p,
                    &eatss_affine::tiling::TileConfig::ppcg_default(p.max_depth()),
                    &bench.sizes(eatss_kernels::Dataset::Standard),
                    &CompileOptions::default(),
                )
                .unwrap()
                .mappings;
            for (k, m) in p.kernels.iter().zip(&mappings) {
                assert!(lockstep_safe(k, m.mapped_dims[0]), "{name}: {}", k.name);
            }
        }
        // With x = i, the read A[i+1][k-1] is another thread's element.
        let skewm = parse_program(
            "kernel skewm(N) {
               for (k: N) for (i: N) A[i][k] = A[i+1][k-1] + 1.0;
             }",
        )
        .unwrap();
        assert!(!lockstep_safe(&skewm.kernels[0], 1));
        let shear = parse_program(SHEAR).unwrap();
        assert!(!lockstep_safe(&shear.kernels[0], 1));
    }

    #[test]
    fn a_kernel_that_fails_the_lockstep_test_runs_thread_by_thread() {
        // No registry kernel fails the test, so this is the per-thread
        // rows' coverage. Under 32 × 4 threads, [4, 40] runs eight
        // two-point x-threads on their own, then the other 24 as one row;
        // [3, 5] fuses one-point threads only; under 32 × 16 threads,
        // [64, 64] gives threads two or three y points and up to two x
        // points; under 8 × 16, [128, 8] gives each thread a y row.
        for (tiles, n) in [
            (vec![4, 40], 40),
            (vec![3, 5], 11),
            (vec![64, 64], 40),
            (vec![128, 8], 20),
        ] {
            let (mappings, stats) = engines_agree(SHEAR, tiles, &[("N", n)]);
            assert_eq!(mappings[0].mapped_dims[0], 1);
            assert_eq!(stats.points as i64, n * n);
        }
    }

    #[test]
    fn time_loop_kernel_relaunches_per_step() {
        let (emul, reference, stats) = emulate(
            "kernel sweep(T, N) {
               for seq (t: T) for (i: N)
                 A[i] = A[i] + B[i];
             }",
            vec![1, 4],
            &[("T", 3), ("N", 10)],
            &plan_opts(),
        );
        assert!(compare_stores(&emul, &reference).is_empty());
        assert_eq!(stats.launches, 3);
        assert_eq!(stats.points, 30);
    }

    #[test]
    fn skipping_the_load_barrier_breaks_staged_kernels() {
        // The mapping stages A (matmul's shared-memory candidate). With
        // the barrier honored the oracle agrees; with the load barrier
        // skipped, threads read elements other threads have not staged
        // yet, so results MUST diverge — proving the emulator actually
        // models the barrier phases rather than bypassing the buffers.
        let faithful = plan_opts();
        let skip = ExecOptions {
            barrier_fidelity: BarrierFidelity::SkipLoadBarrier,
            ..plan_opts()
        };
        let sizes: &[(&str, i64)] = &[("M", 8), ("N", 8), ("P", 8)];
        let (emul, reference, stats) = emulate(MM, vec![4, 4, 4], sizes, &faithful);
        assert!(stats.staged_elems > 0, "A must be staged for this test");
        assert!(compare_stores(&emul, &reference).is_empty());
        let (emul, reference, _) = emulate(MM, vec![4, 4, 4], sizes, &skip);
        assert!(
            !compare_stores(&emul, &reference).is_empty(),
            "reordering __syncthreads() phases must be observable"
        );
    }

    #[test]
    fn zero_trip_is_a_noop() {
        let p = parse_program(MM).unwrap();
        let sizes = ProblemSizes::new([("M", 4), ("N", 4), ("P", 4)]);
        let compiled = crate::Ppcg::new(GpuArch::ga100())
            .compile(
                &p,
                &eatss_affine::tiling::TileConfig::new(vec![2, 2, 2]),
                &sizes,
                &CompileOptions::default(),
            )
            .unwrap();
        let zero = ProblemSizes::new([("M", 0), ("N", 4), ("P", 4)]);
        let mut store = Store::new();
        let stats = execute_compiled(
            &p,
            &compiled.mappings,
            &zero,
            &mut store,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(stats.points, 0);
        assert_eq!(stats.blocks, 0);
    }
}
