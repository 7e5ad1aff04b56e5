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
//! [`execute_compiled_batch`]) into an
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
//! Every point runs inside a *row* — points that differ in one
//! coordinate, one `exec_row_routed` call under the plan engine, point by
//! point under the reference one — and every row is issued by one
//! loop-nest odometer, [`eatss_affine::plan::for_each_row`]. A thread's
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
//! beside `exec.points` and `exec.blocks`.
//!
//! What is *not* modeled: warp scheduling, memory timing, and racy
//! unsynchronized accesses (blocks and threads are independent by
//! construction of the mapping, so any interleaving is equivalent —
//! except across a skipped barrier, which [`BarrierFidelity::SkipLoadBarrier`]
//! exposes deliberately).

use crate::mapping::GpuMapping;
use eatss_affine::analysis::{AccessAnalysis, AnalysedProgram};
use eatss_affine::interp::{exec_point_hooked, Array, Store};
use eatss_affine::ir::{ArrayRef, Kernel};
use eatss_affine::plan::{for_each_row, ExecPlan, Loop, RouteSource, RowScratch};
use eatss_affine::{ProblemSizes, Program};
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
}

impl StagedGroup<'_> {
    fn array(&self) -> &str {
        &self.representative.array
    }

    fn box_elems(&self) -> i64 {
        self.bounds.iter().map(|(lo, hi)| hi - lo + 1).product()
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

    /// Cooperative-load fast path: fills the box from `array` row by row
    /// (last subscript contiguous), with out-of-bounds elements zero —
    /// element-for-element what a per-index `Array::get` loop produces.
    fn load_box(&mut self, array: Option<&Array>) {
        let elems = self.box_elems() as usize;
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
        let mut strides = vec![1i64; n];
        for p in (0..n - 1).rev() {
            strides[p] = strides[p + 1] * extents[p + 1];
        }
        let mut idx: Vec<i64> = self.bounds[..n - 1].iter().map(|&(lo, _)| lo).collect();
        for row in 0..elems / row_len {
            let mut base = 0i64;
            let mut oob = false;
            for (p, &v) in idx.iter().enumerate() {
                if v < 0 || v >= extents[p] {
                    oob = true;
                    break;
                }
                base += v * strides[p];
            }
            if !oob && ov_lo <= ov_hi {
                let dst_off = row * row_len + (ov_lo - last_lo) as usize;
                let len = (ov_hi - ov_lo + 1) as usize;
                let src = (base + ov_lo) as usize;
                self.data[dst_off..dst_off + len].copy_from_slice(&array.data()[src..src + len]);
            }
            for p in (0..idx.len()).rev() {
                idx[p] += 1;
                if idx[p] <= self.bounds[p].1 {
                    break;
                }
                idx[p] = self.bounds[p].0;
            }
        }
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
struct KernelPlanCache {
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

    fn read_flat(&mut self, route: usize, flat: i64) -> f64 {
        self.staged[route].data[flat as usize]
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

/// Executes one compiled kernel over the store, taking its plan from
/// `cache` (compiled on the first use of a route signature).
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
    let mut stats = ExecStats::default();
    if trips.iter().any(|&t| t <= 0) {
        return Ok(stats);
    }
    let tiles = mapping.tiles.sizes();
    let time_dims: Vec<usize> = (0..depth)
        .filter(|&d| kernel.dims[d].explicit_serial)
        .collect();
    let serial_dims: Vec<usize> = (0..depth)
        .filter(|&d| !mapping.mapped_dims.contains(&d) && !kernel.dims[d].explicit_serial)
        .collect();

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
        });
    }

    // Choose the execution core once per kernel: staged reads resolve to
    // their route here, at compile time, instead of a group search per
    // read per point.
    let mut plan: Option<PlanRows<'_>> = match opts.engine {
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

    // Thread coordinates in linear order, x fastest (CUDA convention),
    // one `thread_extents.len()`-wide record per thread — built once per
    // kernel, shared by every launch and tile step.
    let rank = mapping.thread_extents.len();
    let threads_total: i64 = mapping.thread_extents.iter().product();
    let mut thread_coords: Vec<i64> = Vec::with_capacity(threads_total as usize * rank);
    let mut c = vec![0i64; rank];
    'threads: loop {
        thread_coords.extend_from_slice(&c);
        for (p, v) in c.iter_mut().enumerate() {
            *v += 1;
            if *v < mapping.thread_extents[p] {
                continue 'threads;
            }
            *v = 0;
        }
        break;
    }

    // --- launch loop over time-dim values ----------------------------------
    let mut tvals: Vec<i64> = vec![0; time_dims.len()];
    loop {
        stats.absorb(run_launch(
            kernel,
            mapping,
            &trips,
            tiles,
            &time_dims,
            &tvals,
            &serial_dims,
            &thread_coords,
            plan.as_mut(),
            &mut staged,
            store,
            opts,
        )?);
        // Increment the time multi-index (lexicographic, last fastest).
        let mut d = time_dims.len();
        loop {
            if d == 0 {
                let rows = plan.as_ref().map_or(0, |p| p.rows);
                if span.is_active() {
                    span.arg("points", stats.points);
                    span.arg("blocks", stats.blocks);
                    span.arg("rows", rows);
                }
                eatss_trace::counter_add("exec.points", stats.points);
                eatss_trace::counter_add("exec.blocks", stats.blocks);
                eatss_trace::counter_add("exec.rows", rows);
                return Ok(stats);
            }
            d -= 1;
            tvals[d] += 1;
            if tvals[d] < trips[time_dims[d]] {
                break;
            }
            tvals[d] = 0;
        }
    }
}

/// One grid launch: every block, every serial tile step, staging + compute.
#[allow(clippy::too_many_arguments)]
fn run_launch(
    kernel: &Kernel,
    mapping: &GpuMapping,
    trips: &[i64],
    tiles: &[i64],
    time_dims: &[usize],
    tvals: &[i64],
    serial_dims: &[usize],
    thread_coords: &[i64],
    mut plan: Option<&mut PlanRows<'_>>,
    staged: &mut [StagedGroup<'_>],
    store: &mut Store,
    opts: &ExecOptions,
) -> Result<ExecStats, ExecError> {
    let mut stats = ExecStats {
        launches: 1,
        ..ExecStats::default()
    };
    let mut block = vec![0i64; mapping.grid_extents.len()];
    'blocks: loop {
        stats.blocks += 1;
        // Tile origins along mapped dims for this block.
        let origins: Vec<i64> = mapping
            .mapped_dims
            .iter()
            .enumerate()
            .map(|(pos, &d)| block[pos] * tiles[d])
            .collect();
        // Reset persistent buffers per block (shared memory has block
        // lifetime; contents start undefined — zeros here, which the
        // skip-barrier mode deliberately observes).
        for g in staged.iter_mut() {
            g.bounds.clear();
            g.data.clear();
        }
        // Serial tile loop (lexicographic over serial-dim tile indices).
        let mut step = vec![0i64; serial_dims.len()];
        loop {
            let sorigins: Vec<i64> = serial_dims
                .iter()
                .zip(&step)
                .map(|(&d, &s)| s * tiles[d])
                .collect();
            run_step(
                kernel,
                mapping,
                trips,
                tiles,
                time_dims,
                tvals,
                serial_dims,
                &sorigins,
                &origins,
                thread_coords,
                plan.as_deref_mut(),
                staged,
                store,
                opts,
                &mut stats,
            )?;
            // Advance the serial step odometer (last dim fastest).
            let mut advanced = false;
            let mut d = serial_dims.len();
            while d > 0 {
                d -= 1;
                step[d] += 1;
                if step[d] * tiles[serial_dims[d]] < trips[serial_dims[d]] {
                    advanced = true;
                    break;
                }
                step[d] = 0;
            }
            if !advanced {
                break;
            }
        }
        // Advance the block index (x fastest, CUDA linear order).
        let mut p = 0;
        loop {
            if p == block.len() {
                break 'blocks;
            }
            block[p] += 1;
            if block[p] < mapping.grid_extents[p] {
                continue 'blocks;
            }
            block[p] = 0;
            p += 1;
        }
    }
    Ok(stats)
}

/// One serial tile step inside one block: staging phase, barrier, compute.
#[allow(clippy::too_many_arguments)]
fn run_step(
    kernel: &Kernel,
    mapping: &GpuMapping,
    trips: &[i64],
    tiles: &[i64],
    time_dims: &[usize],
    tvals: &[i64],
    serial_dims: &[usize],
    sorigins: &[i64],
    origins: &[i64],
    thread_coords: &[i64],
    mut plan: Option<&mut PlanRows<'_>>,
    staged: &mut [StagedGroup<'_>],
    store: &mut Store,
    opts: &ExecOptions,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    let depth = kernel.depth();
    // Per-dim value ranges for the staging box.
    let mut ranges = vec![(0i64, 0i64); depth];
    for (i, &d) in time_dims.iter().enumerate() {
        ranges[d] = (tvals[i], tvals[i]);
    }
    for (i, &d) in serial_dims.iter().enumerate() {
        ranges[d] = (sorigins[i], (sorigins[i] + tiles[d]).min(trips[d]) - 1);
    }
    for (pos, &d) in mapping.mapped_dims.iter().enumerate() {
        ranges[d] = (origins[pos], (origins[pos] + tiles[d]).min(trips[d]) - 1);
    }

    // --- staging phase ------------------------------------------------------
    for g in staged.iter_mut() {
        let nsubs = g.representative.subscripts.len();
        let mut bounds = Vec::with_capacity(nsubs);
        for (p, s) in g.representative.subscripts.iter().enumerate() {
            let mut lo = 0i64;
            let mut hi = 0i64;
            for &(d, c) in s.terms() {
                let (rlo, rhi) = ranges[d];
                if c >= 0 {
                    lo += c * rlo;
                    hi += c * rhi;
                } else {
                    lo += c * rhi;
                    hi += c * rlo;
                }
            }
            if p + 1 == nsubs {
                // Fastest subscript: span all member offsets.
                lo += g.fastest_offsets.0;
                hi += g.fastest_offsets.1;
            } else {
                lo += s.offset();
                hi += s.offset();
            }
            bounds.push((lo, hi));
        }
        g.bounds = bounds;
        let elems = g.box_elems();
        if elems > g.declared_elems {
            return Err(ExecError::SharedUndersized {
                kernel: kernel.name.clone(),
                array: g.array().to_owned(),
                box_elems: elems,
                declared_elems: g.declared_elems,
            });
        }
        stats.staged_elems += elems as u64;
        match opts.barrier_fidelity {
            BarrierFidelity::Faithful => {
                // Cooperative load, then the barrier: the buffer is fully
                // populated before any thread computes.
                g.load_box(store.get(g.array()));
                stats.barriers += 1;
            }
            BarrierFidelity::SkipLoadBarrier => {
                // Loads happen per-thread, interleaved with compute below;
                // keep whatever was in the buffer (stale or zero) and only
                // grow it to the box size.
                g.data.resize(elems as usize, 0.0);
            }
        }
    }

    // --- compute phase ------------------------------------------------------
    // Threads run one chunk of `thread_extents[0]` x-adjacent threads at a
    // time, in linear order. A chunk's threads share every loop but x: the
    // serial point loops, then the mapped cyclic loops at positions
    // `rank − 1 … 1` (`loops`, outermost first). Thread x of a chunk adds
    // its x loop, the points `origin₀ + x`, `+ width`, … below `end₀`, and
    // runs its loops with the row `thread_row` picks. Under the plan
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
    let mut point = vec![0i64; depth];
    for (i, &d) in time_dims.iter().enumerate() {
        point[d] = tvals[i];
    }
    let rank = mapping.thread_extents.len();
    let width = mapping.thread_extents[0];
    let x_dim = mapping.mapped_dims[0];
    let x_span = (origins[0] + tiles[x_dim]).min(trips[x_dim]) - origins[0];
    let faithful = opts.barrier_fidelity == BarrierFidelity::Faithful;
    // The cyclic loop at mapped position `pos` of a thread at `coord`
    // along it: every `thread_extents[pos]`-th point of the tile from it.
    let mapped_loop = |pos: usize, coord: i64| {
        let dim = mapping.mapped_dims[pos];
        let start = origins[pos] + coord;
        let end = (origins[pos] + tiles[dim]).min(trips[dim]);
        let step = mapping.thread_extents[pos];
        Loop {
            dim,
            start,
            count: ((end - start + step - 1) / step).max(0),
            step,
        }
    };
    // The shared loops, then room for one more: a thread's x loop or a
    // chunk's x row.
    let mut loops: Vec<Loop> = Vec::with_capacity(serial_dims.len() + rank);
    loops.extend(serial_dims.iter().zip(sorigins).map(|(&dim, &start)| Loop {
        dim,
        start,
        count: (start + tiles[dim]).min(trips[dim]) - start,
        step: 1,
    }));
    let nserial = loops.len();
    let nthreads = thread_coords.len() / rank;
    for (c, chunk) in thread_coords.chunks(rank * width as usize).enumerate() {
        loops.truncate(nserial);
        loops.extend((1..rank).rev().map(|pos| mapped_loop(pos, chunk[pos])));
        let shared: i64 = loops.iter().map(|l| l.count).product();
        if shared == 0 && faithful {
            continue; // no thread of the chunk owns a point
        }
        let (solo, row_end) = match plan.as_deref() {
            Some(plan) if faithful => {
                // Thread by thread, a thread owning several x points runs
                // one x row per shared iteration; one owning a single x
                // point (its x loop, last, of one value) runs the row
                // `thread_row` picks.
                let row_len = (loops.get(thread_row(&loops, nserial))).map_or(1, |l| l.count);
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
        for (x, coord) in chunk.chunks(rank).take(solo as usize).enumerate() {
            if !faithful {
                // This thread loads only its cyclic share before computing.
                let tl = c * width as usize + x;
                for g in staged.iter_mut() {
                    let array = store.get(g.array());
                    let elems = g.data.len();
                    let mut idx: Vec<i64> = g.bounds.iter().map(|&(lo, _)| lo).collect();
                    for flat in 0..elems {
                        if flat % nthreads == tl {
                            g.data[flat] = array.map_or(0.0, |a| a.get(&idx));
                        }
                        for p in (0..idx.len()).rev() {
                            idx[p] += 1;
                            if idx[p] <= g.bounds[p].1 {
                                break;
                            }
                            idx[p] = g.bounds[p].0;
                        }
                    }
                }
            }
            // The thread's nest, its row moved last and then back.
            loops.push(mapped_loop(0, coord[0]));
            let row = thread_row(&loops, nserial);
            loops[row..].rotate_left(1);
            run_rows(
                kernel,
                plan.as_deref_mut(),
                staged,
                store,
                &mut point,
                &loops,
                stats,
            )?;
            loops[row..].rotate_right(1);
            loops.pop();
        }
        if row_end > solo {
            loops.push(Loop {
                dim: x_dim,
                start: origins[0] + solo,
                count: row_end - solo,
                step: 1,
            });
            run_rows(
                kernel,
                plan.as_deref_mut(),
                staged,
                store,
                &mut point,
                &loops,
                stats,
            )?;
        }
    }
    if !staged.is_empty() {
        stats.barriers += 1; // barrier after the compute phase
    }
    Ok(())
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

fn kernel_plan_caches(program: &Program) -> Vec<KernelPlanCache> {
    program
        .kernels
        .iter()
        .map(|_| KernelPlanCache::default())
        .collect()
}

/// Every kernel in order, each against its own plan cache.
fn execute_with_caches(
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

/// Executes one program under many tile configurations, compiling each
/// distinct per-kernel plan once and sharing it across the batch.
///
/// Within a batch the problem sizes (hence trip counts) and — when every
/// store carries the layout of `stores[0]` — the slot layout are
/// invariant; only the staged-route assignment varies with the tile
/// configuration. Plans are therefore cached per kernel keyed by route
/// signature (`KernelPlanCache`), so configs that stage the same reads
/// reuse one compiled plan instead of recompiling per config. A store
/// whose layout diverges from `stores[0]` runs through
/// [`execute_compiled`] against caches of its own; results are
/// bitwise-identical to running each config through `execute_compiled`.
pub fn execute_compiled_batch(
    program: &Program,
    configs: &[Vec<GpuMapping>],
    sizes: &ProblemSizes,
    stores: &mut [Store],
    opts: &ExecOptions,
) -> Vec<Result<ExecStats, ExecError>> {
    execute_analysed_batch(&AnalysedProgram::new(program), configs, sizes, stores, opts)
}

/// [`execute_compiled_batch`] over the analysis the mappings were
/// computed from.
pub(crate) fn execute_analysed_batch(
    analysed: &AnalysedProgram,
    configs: &[Vec<GpuMapping>],
    sizes: &ProblemSizes,
    stores: &mut [Store],
    opts: &ExecOptions,
) -> Vec<Result<ExecStats, ExecError>> {
    let program = analysed.program();
    assert_eq!(
        configs.len(),
        stores.len(),
        "one store per tile configuration"
    );
    let Some(first) = stores.first() else {
        return Vec::new();
    };
    let layout = eatss_affine::interp::store_layout(first);
    let mut caches = kernel_plan_caches(program);
    configs
        .iter()
        .zip(stores.iter_mut())
        .map(|(mappings, store)| {
            if eatss_affine::interp::store_layout(store) != layout {
                let mut own = kernel_plan_caches(program);
                return execute_with_caches(analysed, mappings, sizes, store, opts, &mut own);
            }
            execute_with_caches(analysed, mappings, sizes, store, opts, &mut caches)
        })
        .collect()
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
    fn batched_execution_matches_sequential_bitwise_with_identical_stats() {
        let p = parse_program(MM).unwrap();
        let sizes = ProblemSizes::new([("M", 9), ("N", 10), ("P", 7)]);
        let tile_sets = [
            vec![4, 4, 4],
            vec![3, 5, 2],
            vec![1, 1, 1],
            vec![16, 16, 16],
            vec![4, 4, 4], // duplicate config: exercises plan-cache hits
        ];
        let configs: Vec<Vec<GpuMapping>> = tile_sets
            .iter()
            .map(|tiles| {
                crate::Ppcg::new(GpuArch::ga100())
                    .compile(
                        &p,
                        &eatss_affine::tiling::TileConfig::new(tiles.clone()),
                        &sizes,
                        &CompileOptions::default(),
                    )
                    .unwrap()
                    .mappings
            })
            .collect();
        for opts in [plan_opts(), reference_opts()] {
            let mut stores: Vec<Store> = configs
                .iter()
                .map(|_| seed_store(&p, &sizes, 42).unwrap())
                .collect();
            let results = execute_compiled_batch(&p, &configs, &sizes, &mut stores, &opts);
            for ((mappings, store), result) in configs.iter().zip(&stores).zip(results) {
                let mut solo = seed_store(&p, &sizes, 42).unwrap();
                let solo_stats = execute_compiled(&p, mappings, &sizes, &mut solo, &opts).unwrap();
                assert!(
                    compare_stores(store, &solo).is_empty(),
                    "batched run diverges from sequential"
                );
                assert_eq!(result.unwrap(), solo_stats, "stats diverge");
            }
        }
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
