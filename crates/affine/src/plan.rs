//! Compiled execution plans: the interpreter's fast path.
//!
//! [`ExecPlan::compile`] lowers a [`Kernel`] against a concrete
//! [`Store`] layout and iteration domain into a form with no per-point
//! interpretation overhead:
//!
//! * **Arrays → slots.** Every reference is resolved once to a dense
//!   slot index into the store (no string keys in the hot loop).
//! * **Subscripts → address functions.** A subscript list over
//!   row-major extents is an affine function of the iteration point, so
//!   each access lowers to a precomputed linear address function —
//!   constant base offset plus one stride per loop dimension. When
//!   interval analysis over the iteration domain proves every subscript
//!   in bounds, the access is a single dot product (`Addr::Linear`);
//!   otherwise per-subscript bounds checks are kept (`Addr::Checked`),
//!   preserving the interpreter's OOB conventions (reads 0, writes
//!   dropped) exactly.
//! * **RHS trees → opcode tapes.** Each statement's expression is
//!   flattened into a postfix `Op` tape evaluated over a fixed-size
//!   value stack — no recursion, no `Box` dispatch. Tape order equals
//!   the tree-walker's evaluation order, so reads happen in the same
//!   sequence (observable through routed reads).
//! * **Rows → blocks.** [`ExecPlan::exec_row`] runs the points of one
//!   row. A single statement with a linear write runs the tape over up to
//!   32 points per opcode dispatch and writes the values back in point
//!   order — bitwise what the per-point loop does, fixed-cell reductions,
//!   staged reads, halo edges and in-place updates (`A[i] = A[i] + …`,
//!   each point reading only the cell it writes) included. A fixed-cell
//!   `W += R0·R1` keeps a fused register loop; rows that read the written
//!   slot anywhere else, and multi-statement rows, walk the tape point by
//!   point. The points each loop runs are the `exec.points_block`,
//!   `exec.points_fused` and `exec.points_scalar` trace counters
//!   ([`RowScratch::publish`]).
//!
//! External executors (the `eatss-ppcg` GPU emulator) can pre-route
//! individual reads to a [`RouteSource`], resolving its
//! staged-shared-memory matching once at compile time instead of per
//! read per point. `RouteSource` is the compiled analogue of
//! [`ReadHook`](crate::interp::ReadHook).
//!
//! `compile` returns `None` for shapes outside the plan's fixed buffers
//! (rank above [`MAX_RANK`], expression stack deeper than [`MAX_STACK`],
//! stride overflow); callers fall back to the reference tree-walker.
//! The fast path is differentially tested bitwise against
//! [`interp::reference`](crate::interp::reference) over the whole
//! benchmark suite.

use crate::interp::{Store, MAX_RANK};
use crate::ir::{AffineExpr, ArrayRef, Kernel};
use std::sync::atomic::{AtomicBool, Ordering};

/// Maximum postfix value-stack depth a plan supports; deeper expressions
/// fall back to the reference interpreter.
pub const MAX_STACK: usize = 16;

/// Points per block of the block row loop: each opcode of a block row
/// is one dispatch over this many points.
const BLOCK: usize = 32;

/// Runtime switch for the block row loop — differential tests flip it
/// to pin the block path bitwise against the scalar one.
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables the block row loop globally.
///
/// The block loop is only ever taken where it is provably bitwise
/// identical to the scalar loop (see [`ExecPlan::exec_row`]), so this
/// switch can never change results — it exists so differential tests
/// can compare both paths on identical inputs. Disabled, every row runs
/// the fused or scalar loop.
pub fn set_simd_enabled(enabled: bool) {
    SIMD_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the block row loop is currently enabled.
pub fn simd_enabled() -> bool {
    SIMD_ENABLED.load(Ordering::Relaxed)
}

/// A source for pre-routed reads (the compiled analogue of
/// [`ReadHook`](crate::interp::ReadHook)): `read` receives the route id
/// chosen at compile time and the evaluated subscript indices.
pub trait RouteSource {
    /// Produces the value of a routed read.
    fn read(&mut self, route: usize, index: &[i64]) -> f64;

    /// Offers a whole row to the source: `count` reads starting at the
    /// subscript vector `start`, advancing by `delta` per point. A source
    /// that can prove the whole row resolves within its buffer returns
    /// the starting flat offset and per-point flat delta; the row then
    /// reads [`RouteSource::row_data`] at those offsets, with no
    /// per-point subscript work and no per-point state. Returning `None`
    /// (the default) keeps per-point [`RouteSource::read`] calls.
    fn row(
        &mut self,
        _route: usize,
        _start: &[i64],
        _delta: &[i64],
        _count: i64,
    ) -> Option<(i64, i64)> {
        None
    }

    /// The buffer behind `route` that the flat offsets of
    /// [`RouteSource::row`] index. Only called for rows `row` accepted.
    fn row_data(&self, _route: usize) -> &[f64] {
        &[]
    }
}

/// The trivial route source for plans compiled without routing.
pub struct NoRoutes;

impl RouteSource for NoRoutes {
    fn read(&mut self, _route: usize, _index: &[i64]) -> f64 {
        0.0
    }
}

/// One postfix opcode.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push a literal.
    Num(f64),
    /// Push the value of read `i` (index into `StmtPlan::reads`).
    Read(u32),
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    /// Unknown binary operator: pop two, push NaN (the tree-walker
    /// evaluates both operands, then yields NaN).
    Nan,
}

/// A lowered affine index function: `Σ coeff·point[dim] + offset`.
#[derive(Debug, Clone)]
struct IndexFn {
    terms: Vec<(u32, i64)>,
    offset: i64,
}

impl IndexFn {
    fn lower(e: &AffineExpr) -> IndexFn {
        IndexFn {
            terms: e.terms().iter().map(|&(d, c)| (d as u32, c)).collect(),
            offset: e.offset(),
        }
    }

    /// The coefficient on `dim` (0 when absent).
    fn coeff(&self, dim: usize) -> i64 {
        self.terms
            .iter()
            .find(|&&(d, _)| d as usize == dim)
            .map_or(0, |&(_, c)| c)
    }

    #[inline]
    fn eval(&self, point: &[i64]) -> i64 {
        let mut v = self.offset;
        for &(d, c) in &self.terms {
            v += c * point[d as usize];
        }
        v
    }

    /// Value interval over the iteration domain `0 ≤ point[d] < trips[d]`.
    /// `None` when a term's dimension lies outside the domain.
    fn range(&self, trips: &[i64]) -> Option<(i64, i64)> {
        let (mut lo, mut hi) = (self.offset, self.offset);
        for &(d, c) in &self.terms {
            let max = *trips.get(d as usize)? - 1;
            if c >= 0 {
                hi += c * max;
            } else {
                lo += c * max;
            }
        }
        Some((lo, hi))
    }
}

/// One subscript of a checked access: index function, extent to check
/// against, and the row-major stride it contributes.
#[derive(Debug, Clone)]
struct SubPlan {
    index: IndexFn,
    extent: i64,
    stride: i64,
}

/// A lowered array access.
#[derive(Debug, Clone)]
enum Addr {
    /// Proven in bounds: `flat = base + Σ stride·point[dim]`.
    Linear {
        slot: u32,
        base: i64,
        terms: Vec<(u32, i64)>,
    },
    /// Per-subscript bounds checks, then stride combination. Any failing
    /// check reads 0 / drops the write.
    Checked { slot: u32, subs: Vec<SubPlan> },
    /// Pre-routed to a [`RouteSource`] (never used for writes).
    Routed { route: u32, subs: Vec<IndexFn> },
    /// Statically resolved to a miss (absent array, rank mismatch):
    /// reads 0, writes dropped.
    Miss,
}

/// One lowered statement: opcode tape, lowered reads, lowered write.
#[derive(Debug, Clone)]
struct StmtPlan {
    tape: Vec<Op>,
    reads: Vec<Addr>,
    write: Addr,
    accumulate: bool,
    /// The tape is exactly `read(0) · read(1)` accumulated into the
    /// write — the dominant PolyBench statement shape, fused into a
    /// dedicated row loop.
    mul_acc: bool,
}

/// A kernel compiled against a store layout and iteration domain. See
/// the module docs.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    stmts: Vec<StmtPlan>,
}

/// Reusable scratch for [`ExecPlan::exec_row`]: one `(flat, delta)`
/// cursor per lowered access, the block loop's value stack, and the
/// points each row loop has run. Create once per kernel launch with
/// [`ExecPlan::scratch`] and reuse across rows — row setup then costs one
/// dot product per access instead of one per access *per point*, and no
/// row initializes the 4 KiB stack (the emulator's block rows average
/// about 11 points).
#[derive(Debug, Clone, Default)]
pub struct RowScratch {
    stmts: Vec<StmtScratch>,
    block: Box<[[f64; BLOCK]; MAX_STACK]>,
    points_block: u64,
    points_fused: u64,
    points_scalar: u64,
}

impl RowScratch {
    /// Adds the points run by the block, fused and scalar row loops to the
    /// `exec.points_block`, `exec.points_fused` and `exec.points_scalar`
    /// trace counters: call once per kernel, after its last row.
    pub fn publish(&self) {
        eatss_trace::counter_add("exec.points_block", self.points_block);
        eatss_trace::counter_add("exec.points_fused", self.points_fused);
        eatss_trace::counter_add("exec.points_scalar", self.points_scalar);
    }
}

#[derive(Debug, Clone)]
struct StmtScratch {
    reads: Vec<RowCursor>,
    write: (i64, i64),
}

/// One access's incremental state along a row. `direct` marks cursors
/// whose flat offset is valid for the whole row — linear store accesses,
/// and routed reads the [`RouteSource`] linearized via
/// [`RouteSource::row`]. Everything else is recomputed per point by the
/// scalar loop. `lo..hi` is the interval of row points at which the
/// access is in bounds: the whole row for linear and linearized
/// accesses, a checked read's in-bounds interval, empty for a miss. The
/// block loop reads `flat + p·delta` inside it and `0.0` outside.
#[derive(Debug, Clone, Copy, Default)]
struct RowCursor {
    flat: i64,
    delta: i64,
    direct: bool,
    lo: i64,
    hi: i64,
}

impl ExecPlan {
    /// Compiles `kernel` for the iteration domain `0 ≤ point[d] <
    /// trips[d]` against the array layout currently in `store`.
    ///
    /// The plan is only valid while the store keeps those layouts:
    /// replacing an array with different extents invalidates it.
    /// Returns `None` for shapes beyond the plan's fixed buffers, and for
    /// a kernel of no loops (one the parser never produces: a plan runs
    /// rows) — the caller falls back to the reference interpreter.
    pub fn compile(kernel: &Kernel, trips: &[i64], store: &Store) -> Option<ExecPlan> {
        ExecPlan::compile_routed(kernel, trips, store, |_| None)
    }

    /// Like [`ExecPlan::compile`], but each read is first offered to
    /// `router`: returning `Some(route)` lowers the read to that route
    /// id of the executor's [`RouteSource`] instead of a store access.
    /// Writes are never routed.
    pub fn compile_routed(
        kernel: &Kernel,
        trips: &[i64],
        store: &Store,
        mut router: impl FnMut(&ArrayRef) -> Option<usize>,
    ) -> Option<ExecPlan> {
        let _span = eatss_trace::span("pipeline", "plan_compile");
        if trips.is_empty() || trips.iter().any(|&t| t <= 0) {
            return None;
        }
        let mut stmts = Vec::with_capacity(kernel.stmts.len());
        for stmt in &kernel.stmts {
            let mut tape = Vec::new();
            lower_expr(&stmt.rhs, &mut tape);
            if tape_stack_depth(&tape)? > MAX_STACK {
                return None;
            }
            let reads = stmt
                .reads
                .iter()
                .map(|r| lower_access(r, trips, store, router(r)))
                .collect::<Option<Vec<_>>>()?;
            let write = lower_access(&stmt.write, trips, store, None)?;
            let mul_acc = stmt.is_accumulation
                && matches!(tape.as_slice(), [Op::Read(0), Op::Read(1), Op::Mul]);
            stmts.push(StmtPlan {
                tape,
                reads,
                write,
                accumulate: stmt.is_accumulation,
                mul_acc,
            });
        }
        eatss_trace::counter_add("exec.plan_compiles", 1);
        Some(ExecPlan { stmts })
    }

    /// Creates the row-execution scratch sized for this plan.
    pub fn scratch(&self) -> RowScratch {
        RowScratch {
            stmts: self
                .stmts
                .iter()
                .map(|s| StmtScratch {
                    reads: vec![RowCursor::default(); s.reads.len()],
                    write: (0, 0),
                })
                .collect(),
            ..RowScratch::default()
        }
    }

    /// Executes `count` iteration points along `dim`, starting from the
    /// current `point` and stepping by `step` — bit-for-bit equivalent
    /// to `count` calls to
    /// [`interp::exec_point`](crate::interp::exec_point), but every
    /// `Addr::Linear` address is resolved once at row entry and then
    /// advanced incrementally by `step × stride` per point.
    ///
    /// A row runs one of three loops:
    ///
    /// * the **fused** `W += R0·R1` loop, for a single `mul_acc`
    ///   statement whose every read is a direct cursor, none in the
    ///   written slot, accumulating into one fixed cell in a register;
    /// * the **block** loop, for any other single statement with a
    ///   linear write whose reads are linear, checked, missing or
    ///   linearized routed accesses, and whose only reads of the written
    ///   slot (if any) are linear reads on the write's own moving cursor —
    ///   an in-place update such as `A[i][j] = A[i][j] + …`: it evaluates
    ///   the tape over up to 32 points per opcode and writes their
    ///   values back in point order, which is what makes it bitwise
    ///   identical to the scalar loop (no read can see another point's
    ///   write, and the writes, fixed-cell adds included, happen in the
    ///   scalar order);
    /// * the **scalar** loop, for everything else (any other read of the
    ///   written slot, multi-statement bodies, routed reads the source
    ///   would not linearize, checked writes), split at the checked reads'
    ///   common in-bounds interval so only the edge points pay per-point
    ///   bounds checks.
    ///
    /// `scratch` tallies the points each loop runs
    /// ([`RowScratch::publish`]).
    ///
    /// `point[dim]` is clobbered (it tracks the row for checked and
    /// routed accesses); every other coordinate is left untouched.
    pub fn exec_row(
        &self,
        store: &mut Store,
        point: &mut [i64],
        dim: usize,
        count: i64,
        step: i64,
        scratch: &mut RowScratch,
    ) {
        self.exec_row_routed(store, point, dim, count, step, scratch, &mut NoRoutes);
    }

    /// Like [`ExecPlan::exec_row`], with routed reads served by `routes`.
    #[allow(clippy::too_many_arguments)]
    pub fn exec_row_routed(
        &self,
        store: &mut Store,
        point: &mut [i64],
        dim: usize,
        count: i64,
        step: i64,
        scratch: &mut RowScratch,
        routes: &mut impl RouteSource,
    ) {
        if count <= 0 {
            return;
        }
        // Checked subscripts are linear in the row variable, so each
        // one's in-bounds region is a contiguous interval of points; a
        // checked read's interval is the intersection over its
        // subscripts, and `dlo..dhi` the intersection over every checked
        // read. Inside it the scalar loop walks the checked cursors as
        // direct flat offsets, and only the edge points pay the
        // per-point bounds checks.
        let mut dlo = 0i64;
        let mut dhi = count;
        let mut has_checked = false;
        for (stmt, sc) in self.stmts.iter().zip(&mut scratch.stmts) {
            for (read, cursor) in stmt.reads.iter().zip(&mut sc.reads) {
                *cursor = match read {
                    Addr::Linear { base, terms, .. } => {
                        let (flat, delta) = row_cursor(*base, terms, point, dim, step);
                        RowCursor {
                            flat,
                            delta,
                            direct: true,
                            lo: 0,
                            hi: count,
                        }
                    }
                    Addr::Checked { subs, .. } => {
                        has_checked = true;
                        let mut flat = 0i64;
                        let mut delta = 0i64;
                        let (mut lo, mut hi) = (0, count);
                        for sub in subs {
                            let s = sub.index.eval(point);
                            let d = step * sub.index.coeff(dim);
                            flat = flat.wrapping_add(s.wrapping_mul(sub.stride));
                            delta = delta.wrapping_add(d.wrapping_mul(sub.stride));
                            let (sub_lo, sub_hi) = inbounds_interval(s, d, sub.extent, count);
                            lo = lo.max(sub_lo);
                            hi = hi.min(sub_hi);
                        }
                        dlo = dlo.max(lo);
                        dhi = dhi.min(hi);
                        RowCursor {
                            flat,
                            delta,
                            direct: false,
                            lo,
                            hi,
                        }
                    }
                    Addr::Routed { route, subs } => {
                        let mut start = [0i64; MAX_RANK];
                        let mut delta = [0i64; MAX_RANK];
                        for (p, s) in subs.iter().enumerate() {
                            start[p] = s.eval(point);
                            delta[p] = step * s.coeff(dim);
                        }
                        match routes.row(
                            *route as usize,
                            &start[..subs.len()],
                            &delta[..subs.len()],
                            count,
                        ) {
                            Some((flat, delta)) => RowCursor {
                                flat,
                                delta,
                                direct: true,
                                lo: 0,
                                hi: count,
                            },
                            None => RowCursor::default(),
                        }
                    }
                    Addr::Miss => RowCursor::default(),
                };
            }
            sc.write = match &stmt.write {
                Addr::Linear { base, terms, .. } => row_cursor(*base, terms, point, dim, step),
                _ => (0, 0),
            };
        }
        if simd_enabled() {
            if let Some(wslot) = self.block_eligible(scratch) {
                let RowScratch { stmts, block, .. } = scratch;
                self.run_row_block(store, count, &stmts[0], routes, wslot, block);
                scratch.points_block += count as u64;
                point[dim] += step * count;
                return;
            }
        }
        if !has_checked {
            self.run_row_body(store, point, dim, count, step, scratch, routes);
            return;
        }
        let dhi = dhi.clamp(0, count);
        let dlo = dlo.clamp(0, dhi);
        if dlo > 0 {
            self.run_row_body(store, point, dim, dlo, step, scratch, routes);
        }
        if dhi > dlo {
            self.set_checked_direct(scratch, true);
            self.run_row_body(store, point, dim, dhi - dlo, step, scratch, routes);
            self.set_checked_direct(scratch, false);
        }
        if count > dhi {
            self.run_row_body(store, point, dim, count - dhi, step, scratch, routes);
        }
    }

    /// Marks every checked-read cursor (in)valid for direct flat reads —
    /// flipped around the in-bounds segment of a row.
    fn set_checked_direct(&self, scratch: &mut RowScratch, direct: bool) {
        for (stmt, sc) in self.stmts.iter().zip(&mut scratch.stmts) {
            for (read, cursor) in stmt.reads.iter().zip(&mut sc.reads) {
                if matches!(read, Addr::Checked { .. }) {
                    cursor.direct = direct;
                }
            }
        }
    }

    /// Executes `count` points of a row whose cursors are already set,
    /// leaving every cursor and `point[dim]` advanced past the segment.
    #[allow(clippy::too_many_arguments)]
    fn run_row_body(
        &self,
        store: &mut Store,
        point: &mut [i64],
        dim: usize,
        count: i64,
        step: i64,
        scratch: &mut RowScratch,
        routes: &mut impl RouteSource,
    ) {
        // Fused path for the dominant reduction `W += R0 * R1`, its write
        // cell fixed along the row (e.g. `C[i][j] += A[i][k]·B[k][j]`
        // rowed over `k`) and seen by no read: accumulate in a register
        // and store once. Identical rounding — the adds happen in the same
        // order.
        if let Some(wslot) = self.fused_slot(scratch) {
            let stmt = &self.stmts[0];
            let sc = &mut scratch.stmts[0];
            let r0 = direct_data(&stmt.reads[0], store, routes);
            let r1 = direct_data(&stmt.reads[1], store, routes);
            let (mut fa, da) = (sc.reads[0].flat, sc.reads[0].delta);
            let (mut fb, db) = (sc.reads[1].flat, sc.reads[1].delta);
            let wflat = sc.write.0 as usize;
            let mut acc = store.slot_array(wslot as usize).data()[wflat];
            for _ in 0..count {
                acc += r0[fa as usize] * r1[fb as usize];
                fa = fa.wrapping_add(da);
                fb = fb.wrapping_add(db);
            }
            store.slot_array_mut(wslot as usize).data_mut()[wflat] = acc;
            // Persist the cursor advance — a split row's next segment
            // continues from these.
            sc.reads[0].flat = fa;
            sc.reads[1].flat = fb;
            scratch.points_fused += count as u64;
            point[dim] += step * count;
            return;
        }
        scratch.points_scalar += count as u64;
        let mut stack = [0.0f64; MAX_STACK];
        for _ in 0..count {
            for (stmt, sc) in self.stmts.iter().zip(&mut scratch.stmts) {
                let mut top = 0usize;
                for op in &stmt.tape {
                    match *op {
                        Op::Num(v) => {
                            stack[top] = v;
                            top += 1;
                        }
                        Op::Read(i) => {
                            let i = i as usize;
                            stack[top] = match &stmt.reads[i] {
                                Addr::Linear { slot, .. } => store
                                    .slot_array(*slot as usize)
                                    .data()[sc.reads[i].flat as usize],
                                Addr::Checked { slot, .. } if sc.reads[i].direct => store
                                    .slot_array(*slot as usize)
                                    .data()[sc.reads[i].flat as usize],
                                Addr::Routed { route, .. } if sc.reads[i].direct => {
                                    routes.row_data(*route as usize)[sc.reads[i].flat as usize]
                                }
                                other => read_addr(other, store, point, routes),
                            };
                            top += 1;
                        }
                        Op::Add => {
                            top -= 1;
                            stack[top - 1] += stack[top];
                        }
                        Op::Sub => {
                            top -= 1;
                            stack[top - 1] -= stack[top];
                        }
                        Op::Mul => {
                            top -= 1;
                            stack[top - 1] *= stack[top];
                        }
                        Op::Div => {
                            top -= 1;
                            stack[top - 1] /= stack[top];
                        }
                        Op::Neg => stack[top - 1] = -stack[top - 1],
                        Op::Nan => {
                            top -= 1;
                            stack[top - 1] = f64::NAN;
                        }
                    }
                }
                let value = stack[0];
                match &stmt.write {
                    Addr::Linear { slot, .. } => {
                        let cell = &mut store.slot_array_mut(*slot as usize).data_mut()
                            [sc.write.0 as usize];
                        if stmt.accumulate {
                            *cell += value;
                        } else {
                            *cell = value;
                        }
                    }
                    other => {
                        if let Some((slot, flat)) = resolve_write(other, point) {
                            let data = store.slot_array_mut(slot as usize).data_mut();
                            match data.get_mut(flat) {
                                Some(cell) if stmt.accumulate => *cell += value,
                                Some(cell) => *cell = value,
                                None => {}
                            }
                        }
                    }
                }
                // Advance every cursor once per point. The add past the
                // final point may leave a flat one row outside the array;
                // it is never dereferenced, so wrap instead of trapping.
                for cursor in &mut sc.reads {
                    cursor.flat = cursor.flat.wrapping_add(cursor.delta);
                }
                sc.write.0 = sc.write.0.wrapping_add(sc.write.1);
            }
            point[dim] += step;
        }
    }

    /// The written slot, when the row in flight takes the fused register
    /// loop: a single `mul_acc` statement whose reads are direct cursors,
    /// none in the written slot, and whose linear write stays on one cell.
    fn fused_slot(&self, scratch: &RowScratch) -> Option<u32> {
        let [stmt] = self.stmts.as_slice() else {
            return None;
        };
        let sc = &scratch.stmts[0];
        match stmt.write {
            Addr::Linear { slot, .. }
                if stmt.mul_acc
                    && sc.write.1 == 0
                    && sc.reads.iter().all(|c| c.direct)
                    && !stmt.reads_slot(slot) =>
            {
                Some(slot)
            }
            _ => None,
        }
    }

    /// The written slot, when the row in flight may take the block loop
    /// with provable bitwise identity to the scalar loop: a single
    /// statement with an `Addr::Linear` write, whose reads are linear,
    /// checked or missing store accesses, or routed reads the source
    /// linearized for the whole row. A read of the written slot is
    /// admitted only as a linear read on the write's own cursor (the same
    /// flat offset and a nonzero per-point delta): each point then reads
    /// only its own cell, before its own write, and no other point of the
    /// row touches that cell. So no point can observe another point's
    /// write, and the values of a block may be computed before any of them
    /// is written; a linearized route and a checked read's interval leave
    /// no per-point state. Rows the fused loop takes stay there.
    fn block_eligible(&self, scratch: &RowScratch) -> Option<u32> {
        let [stmt] = self.stmts.as_slice() else {
            return None;
        };
        let sc = &scratch.stmts[0];
        let Addr::Linear { slot: wslot, .. } = stmt.write else {
            return None;
        };
        if self.fused_slot(scratch).is_some() {
            return None;
        }
        let admitted = (stmt.reads.iter().zip(&sc.reads)).all(|(r, c)| match r {
            Addr::Linear { slot, .. } => {
                *slot != wslot || ((c.flat, c.delta) == sc.write && c.delta != 0)
            }
            Addr::Checked { slot, .. } => *slot != wslot,
            Addr::Routed { .. } => c.direct,
            Addr::Miss => true,
        });
        admitted.then_some(wslot)
    }

    /// Executes a whole `count`-point row admitted by
    /// [`ExecPlan::block_eligible`], [`BLOCK`] points at a time on
    /// `stack`: each opcode is one dispatch and a loop over the block's
    /// lanes, each lane applying the scalar op to the scalar operands of
    /// its point (no reassociation, no contraction), and the block's
    /// values are then written back in point order — fixed-cell
    /// accumulations get the same adds in the same order.
    fn run_row_block(
        &self,
        store: &mut Store,
        count: i64,
        sc: &StmtScratch,
        routes: &impl RouteSource,
        wslot: u32,
        stack: &mut [[f64; BLOCK]; MAX_STACK],
    ) {
        let stmt = &self.stmts[0];
        let (wflat, wdelta) = sc.write;
        let mut first = 0i64;
        while first < count {
            let n = (count - first).min(BLOCK as i64) as usize;
            let mut top = 0usize;
            for op in &stmt.tape {
                match *op {
                    Op::Num(v) => {
                        stack[top] = [v; BLOCK];
                        top += 1;
                    }
                    Op::Read(i) => {
                        let i = i as usize;
                        let data = direct_data(&stmt.reads[i], store, routes);
                        read_lanes(&mut stack[top][..n], data, &sc.reads[i], first);
                        top += 1;
                    }
                    Op::Add => top = combine(stack, top, |a, b| a + b),
                    Op::Sub => top = combine(stack, top, |a, b| a - b),
                    Op::Mul => top = combine(stack, top, |a, b| a * b),
                    Op::Div => top = combine(stack, top, |a, b| a / b),
                    Op::Neg => {
                        for v in &mut stack[top - 1] {
                            *v = -*v;
                        }
                    }
                    Op::Nan => top = combine(stack, top, |_, _| f64::NAN),
                }
            }
            let data = store.slot_array_mut(wslot as usize).data_mut();
            let mut flat = wflat.wrapping_add(wdelta.wrapping_mul(first));
            for &v in &stack[0][..n] {
                let cell = &mut data[flat as usize];
                if stmt.accumulate {
                    *cell += v;
                } else {
                    *cell = v;
                }
                flat = flat.wrapping_add(wdelta);
            }
            first += n as i64;
        }
    }
}

impl StmtPlan {
    /// Whether any read of the statement is a store access to `slot`.
    fn reads_slot(&self, slot: u32) -> bool {
        self.reads.iter().any(|r| match r {
            Addr::Linear { slot: s, .. } | Addr::Checked { slot: s, .. } => *s == slot,
            Addr::Routed { .. } | Addr::Miss => false,
        })
    }
}

/// Fills a block's lanes with one read: row point `first + lane` reads
/// `data[flat + (first + lane)·delta]` inside the cursor's in-bounds
/// interval and `0.0` outside it — exactly what the scalar loop's checked
/// read yields there.
#[inline]
fn read_lanes(lanes: &mut [f64], data: &[f64], cursor: &RowCursor, first: i64) {
    let n = lanes.len() as i64;
    let hi = (cursor.hi - first).clamp(0, n) as usize;
    let lo = ((cursor.lo - first).clamp(0, n) as usize).min(hi);
    lanes[..lo].fill(0.0);
    lanes[hi..].fill(0.0);
    let mut flat = cursor
        .flat
        .wrapping_add(cursor.delta.wrapping_mul(first + lo as i64));
    for v in &mut lanes[lo..hi] {
        *v = data[flat as usize];
        flat = flat.wrapping_add(cursor.delta);
    }
}

/// Pops the top block of lanes and combines it into the one below,
/// lane by lane; returns the new stack height.
#[inline]
fn combine(
    stack: &mut [[f64; BLOCK]; MAX_STACK],
    top: usize,
    op: impl Fn(f64, f64) -> f64,
) -> usize {
    let (below, above) = stack.split_at_mut(top - 1);
    for (lhs, &rhs) in below[top - 2].iter_mut().zip(&above[0]) {
        *lhs = op(*lhs, rhs);
    }
    top - 1
}

/// One loop of a loop nest: `count` values of `dim` from `start`, `step`
/// (positive) apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loop {
    /// The iteration-point coordinate the loop sets.
    pub dim: usize,
    /// Its first value.
    pub start: i64,
    /// How many values it takes.
    pub count: i64,
    /// The distance between two of its values.
    pub step: i64,
}

/// Walks the loop nest `loops` (outermost first) in lexicographic order
/// and calls `run_row` once per iteration of all loops but the last: the
/// last loop is the row. `run_row` receives `point` with every outer
/// loop's coordinate at its current value and the row's at its start, and
/// may clobber the row's coordinate (as [`ExecPlan::exec_row`] does). The
/// walk stops at the first `Err`, which it returns; a loop of no values
/// makes the nest empty.
pub fn for_each_row<E>(
    point: &mut [i64],
    loops: &[Loop],
    mut run_row: impl FnMut(&mut [i64], &Loop) -> Result<(), E>,
) -> Result<(), E> {
    let Some((row, outer)) = loops.split_last() else {
        return Ok(());
    };
    if loops.iter().any(|l| l.count <= 0) {
        return Ok(());
    }
    for l in outer {
        point[l.dim] = l.start;
    }
    loop {
        point[row.dim] = row.start;
        run_row(point, row)?;
        let mut p = outer.len();
        loop {
            if p == 0 {
                return Ok(());
            }
            p -= 1;
            let l = &outer[p];
            point[l.dim] += l.step;
            if point[l.dim] < l.start + l.count * l.step {
                break;
            }
            point[l.dim] = l.start;
        }
    }
}

/// Walks the loop nest `loops` as [`for_each_row`] does and calls `f` at
/// every point, each row's points in order. `f` may move coordinates the
/// nest does not set (an inner walk over other dims), but not its own. An
/// empty nest is one point; a loop of no values makes the nest empty.
pub fn for_each_point<E>(
    point: &mut [i64],
    loops: &[Loop],
    mut f: impl FnMut(&mut [i64]) -> Result<(), E>,
) -> Result<(), E> {
    if loops.is_empty() {
        return f(point);
    }
    for_each_row(point, loops, |point, row| {
        for _ in 0..row.count {
            f(point)?;
            point[row.dim] += row.step;
        }
        Ok(())
    })
}

/// Flattens an RHS tree to postfix (left operand first, matching the
/// tree-walker's evaluation order).
fn lower_expr(e: &crate::ir::RhsExpr, tape: &mut Vec<Op>) {
    use crate::ir::RhsExpr;
    match e {
        RhsExpr::Num(v) => tape.push(Op::Num(*v)),
        RhsExpr::Ref(i) => tape.push(Op::Read(*i as u32)),
        RhsExpr::Bin(op, a, b) => {
            lower_expr(a, tape);
            lower_expr(b, tape);
            tape.push(match op {
                '+' => Op::Add,
                '-' => Op::Sub,
                '*' => Op::Mul,
                '/' => Op::Div,
                _ => Op::Nan,
            });
        }
        RhsExpr::Neg(a) => {
            lower_expr(a, tape);
            tape.push(Op::Neg);
        }
    }
}

/// Maximum value-stack depth the tape reaches (`None` on malformed
/// tapes, which `lower_expr` never produces).
fn tape_stack_depth(tape: &[Op]) -> Option<usize> {
    let mut depth = 0usize;
    let mut max = 0usize;
    for op in tape {
        match op {
            Op::Num(_) | Op::Read(_) => depth += 1,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Nan => depth = depth.checked_sub(1)?,
            Op::Neg => {}
        }
        max = max.max(depth);
    }
    Some(max)
}

fn lower_access(r: &ArrayRef, trips: &[i64], store: &Store, route: Option<usize>) -> Option<Addr> {
    if r.subscripts.len() > MAX_RANK || trips.len() > MAX_RANK {
        return None;
    }
    if let Some(route) = route {
        return Some(Addr::Routed {
            route: route as u32,
            subs: r.subscripts.iter().map(IndexFn::lower).collect(),
        });
    }
    let slot = match store.slot(&r.array) {
        Some(slot) => slot as u32,
        None => return Some(Addr::Miss),
    };
    let extents = store.slot_array(slot as usize).extents();
    if r.subscripts.is_empty() {
        // Scalar access convention: index `[0]` — a hit only on rank-1
        // arrays, a miss otherwise (matching `Array::get(&[0])`).
        return Some(if extents.len() == 1 {
            Addr::Linear {
                slot,
                base: 0,
                terms: Vec::new(),
            }
        } else {
            Addr::Miss
        });
    }
    if r.subscripts.len() != extents.len() {
        return Some(Addr::Miss);
    }
    // Row-major strides; overflow means the layout is beyond what the
    // plan's i64 address arithmetic can promise, so bail to reference.
    let mut strides = vec![1i64; extents.len()];
    for p in (0..extents.len().saturating_sub(1)).rev() {
        strides[p] = strides[p + 1].checked_mul(extents[p + 1])?;
    }
    let mut subs = Vec::with_capacity(r.subscripts.len());
    let mut in_bounds = true;
    for (p, s) in r.subscripts.iter().enumerate() {
        let index = IndexFn::lower(s);
        match index.range(trips) {
            Some((lo, hi)) if lo >= 0 && hi < extents[p] => {}
            _ => in_bounds = false,
        }
        subs.push(SubPlan {
            index,
            extent: extents[p],
            stride: strides[p],
        });
    }
    if !in_bounds {
        return Some(Addr::Checked { slot, subs });
    }
    // Every subscript is proven in bounds over the domain: fold the
    // per-subscript functions into one linear address function.
    let mut base = 0i64;
    let mut dim_strides = vec![0i64; trips.len()];
    for sub in &subs {
        base = base.checked_add(sub.index.offset.checked_mul(sub.stride)?)?;
        for &(d, c) in &sub.index.terms {
            let add = c.checked_mul(sub.stride)?;
            let slot = &mut dim_strides[d as usize];
            *slot = slot.checked_add(add)?;
        }
    }
    Some(Addr::Linear {
        slot,
        base,
        terms: dim_strides
            .into_iter()
            .enumerate()
            .filter(|&(_, s)| s != 0)
            .map(|(d, s)| (d as u32, s))
            .collect(),
    })
}

/// The buffer a direct row cursor indexes: the store slot of a linear or
/// checked access, the source's buffer for a linearized routed read
/// (empty for a miss, which is never indexed).
#[inline]
fn direct_data<'a>(addr: &Addr, store: &'a Store, routes: &'a impl RouteSource) -> &'a [f64] {
    match addr {
        Addr::Linear { slot, .. } | Addr::Checked { slot, .. } => {
            store.slot_array(*slot as usize).data()
        }
        Addr::Routed { route, .. } => routes.row_data(*route as usize),
        Addr::Miss => &[],
    }
}

/// The contiguous point interval `[lo, hi)` of a `count`-long row on
/// which the subscript value `s + p·d` stays inside `[0, extent)`.
#[inline]
fn inbounds_interval(s: i64, d: i64, extent: i64, count: i64) -> (i64, i64) {
    if d == 0 {
        return if s >= 0 && s < extent {
            (0, count)
        } else {
            (0, 0)
        };
    }
    // Normalize to a positive slope (negate the value and its bounds),
    // then `p ≥ ⌈(min_v - s)/d⌉` and `p ≤ ⌊(max_v - s)/d⌋`.
    let (s, d, min_v, max_v) = if d > 0 {
        (s, d, 0, extent - 1)
    } else {
        (-s, -d, 1 - extent, 0)
    };
    let lo = -(s - min_v).div_euclid(d);
    let hi = (max_v - s).div_euclid(d) + 1;
    (lo.max(0), hi.min(count))
}

/// Resolves a linear address at the row's start point and its per-point
/// delta along `dim` (`step × stride`).
#[inline]
fn row_cursor(base: i64, terms: &[(u32, i64)], point: &[i64], dim: usize, step: i64) -> (i64, i64) {
    let mut flat = base;
    let mut delta = 0i64;
    for &(d, c) in terms {
        flat += c * point[d as usize];
        if d as usize == dim {
            delta += c * step;
        }
    }
    (flat, delta)
}

#[inline]
fn read_addr(addr: &Addr, store: &Store, point: &[i64], routes: &mut impl RouteSource) -> f64 {
    match addr {
        Addr::Linear { slot, base, terms } => {
            let mut flat = *base;
            for &(d, c) in terms {
                flat += c * point[d as usize];
            }
            store.slot_array(*slot as usize).data()[flat as usize]
        }
        Addr::Checked { slot, subs } => match checked_flat(subs, point) {
            Some(flat) => store.slot_array(*slot as usize).data()[flat],
            None => 0.0,
        },
        Addr::Routed { route, subs } => {
            let mut idx = [0i64; MAX_RANK];
            for (slot, s) in idx.iter_mut().zip(subs) {
                *slot = s.eval(point);
            }
            routes.read(*route as usize, &idx[..subs.len()])
        }
        Addr::Miss => 0.0,
    }
}

#[inline]
fn checked_flat(subs: &[SubPlan], point: &[i64]) -> Option<usize> {
    let mut flat = 0i64;
    for sub in subs {
        let v = sub.index.eval(point);
        if v < 0 || v >= sub.extent {
            return None;
        }
        flat += v * sub.stride;
    }
    Some(flat as usize)
}

#[inline]
fn resolve_write(addr: &Addr, point: &[i64]) -> Option<(u32, usize)> {
    match addr {
        Addr::Linear { slot, base, terms } => {
            let mut flat = *base;
            for &(d, c) in terms {
                flat += c * point[d as usize];
            }
            Some((*slot, flat as usize))
        }
        Addr::Checked { slot, subs } => Some((*slot, checked_flat(subs, point)?)),
        Addr::Routed { .. } | Addr::Miss => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{compare_stores, reference, Array};
    use crate::parser::parse_program;
    use crate::ProblemSizes;

    fn run_both(src: &str, sizes: &[(&str, i64)], seed_arrays: &[(&str, Vec<i64>)]) {
        let p = parse_program(src).unwrap();
        let sizes = ProblemSizes::new(sizes.iter().map(|&(n, v)| (n, v)));
        let init = |store: &mut Store| {
            store.allocate_for(&p, &sizes).unwrap();
            for (name, extents) in seed_arrays {
                store.insert(
                    *name,
                    Array::from_fn(extents.clone(), |i| {
                        let mut h = 7i64;
                        for &v in i {
                            h = h.wrapping_mul(31).wrapping_add(v);
                        }
                        ((h % 7) - 3) as f64
                    }),
                );
            }
        };
        let mut fast = Store::new();
        init(&mut fast);
        crate::interp::run_program(&p, &sizes, &mut fast).unwrap();
        let mut slow = Store::new();
        init(&mut slow);
        reference::run_program(&p, &sizes, &mut slow).unwrap();
        let mismatches = compare_stores(&fast, &slow);
        assert!(mismatches.is_empty(), "plan != reference: {mismatches:?}");
    }

    #[test]
    fn plan_matches_reference_on_in_bounds_accesses() {
        run_both(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
            &[("M", 5), ("N", 6), ("P", 7)],
            &[("A", vec![5, 7]), ("B", vec![7, 6])],
        );
    }

    #[test]
    fn plan_matches_reference_on_halo_accesses() {
        // A is allocated with halo extents by `allocate_for`, so the
        // i-1/i+1 accesses are proven in bounds; B is seeded tight, so
        // the write is bounds-checked. Both modes must match reference.
        run_both(
            "kernel s(N) {
               for (i: N) B[i] = 0.5 * (A[i-1] + A[i+1]) - A[i] / 3.0;
             }",
            &[("N", 9)],
            &[("B", vec![9])],
        );
    }

    #[test]
    fn plan_matches_reference_on_scalars_and_missing_arrays() {
        run_both(
            "kernel ax(N) { for (i: N) y[i] = alpha * x[i] + ghost[i]; }",
            &[("N", 6)],
            &[("alpha", vec![1]), ("x", vec![6])],
        );
    }

    #[test]
    fn checked_access_reads_zero_and_drops_writes() {
        // Force out-of-bounds on both sides: the store arrays are
        // smaller than the domain.
        let p = parse_program("kernel w(N) { for (i: N) B[i] = A[i] + 1.0; }").unwrap();
        let sizes = ProblemSizes::new([("N", 8)]);
        let init = |store: &mut Store| {
            store.insert("A", Array::from_fn(vec![3], |i| i[0] as f64));
            store.insert("B", Array::zeros(vec![4]));
        };
        let mut fast = Store::new();
        init(&mut fast);
        crate::interp::run_program(&p, &sizes, &mut fast).unwrap();
        let mut slow = Store::new();
        init(&mut slow);
        reference::run_program(&p, &sizes, &mut slow).unwrap();
        assert!(compare_stores(&fast, &slow).is_empty());
        let b = fast.get("B").unwrap();
        assert_eq!(b.get(&[2]), 3.0);
        assert_eq!(b.get(&[3]), 1.0, "A[3] is OOB and reads zero");
    }

    #[test]
    fn routed_reads_reach_the_route_source() {
        struct Fixed(f64, Vec<(usize, Vec<i64>)>);
        impl RouteSource for Fixed {
            fn read(&mut self, route: usize, index: &[i64]) -> f64 {
                self.1.push((route, index.to_vec()));
                self.0
            }
        }
        let p = parse_program("kernel r(N) { for (i: N) B[i] = A[i+1] * 2.0; }").unwrap();
        let kernel = &p.kernels[0];
        let mut store = Store::new();
        store.insert("A", Array::zeros(vec![8]));
        store.insert("B", Array::zeros(vec![8]));
        let plan =
            ExecPlan::compile_routed(kernel, &[4], &store, |r| (&*r.array == "A").then_some(3))
                .unwrap();
        let mut routes = Fixed(5.0, Vec::new());
        let mut scratch = plan.scratch();
        plan.exec_row_routed(&mut store, &mut [2], 0, 1, 1, &mut scratch, &mut routes);
        assert_eq!(routes.1, vec![(3, vec![3])], "route id + evaluated index");
        assert_eq!(store.get("B").unwrap().get(&[2]), 10.0);
    }

    /// Serializes `set_simd_enabled` flips — the flag is global, and the
    /// comparisons below are only meaningful while it holds still.
    static SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs the plan-backed interpreter — with the block row loop forced
    /// on or off — or the reference tree-walker, returning the resulting
    /// store. Arrays are seeded tight (extent `N`) with the same irregular
    /// values as [`run_both`]; the division makes them inexact, so any
    /// reordering would show.
    fn run_fast(src: &str, n: i64, arrays: &[&str], engine: Engine) -> Store {
        let p = parse_program(src).unwrap();
        let sizes = ProblemSizes::new([("N", n)]);
        let mut store = Store::new();
        store.allocate_for(&p, &sizes).unwrap();
        for name in arrays {
            store.insert(
                *name,
                Array::from_fn(vec![n], |i| ((i[0].wrapping_mul(31) % 7) - 3) as f64 / 3.0),
            );
        }
        let result = match engine {
            Engine::Block | Engine::Scalar => {
                set_simd_enabled(engine == Engine::Block);
                let result = crate::interp::run_program(&p, &sizes, &mut store);
                set_simd_enabled(true);
                result
            }
            Engine::Reference => reference::run_program(&p, &sizes, &mut store),
        };
        result.unwrap();
        store
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Engine {
        Block,
        Scalar,
        Reference,
    }

    /// Runs `src` at each row length on the block loop, the scalar loop
    /// and the tree-walker, and requires all three stores to be equal.
    fn block_matches_scalar_and_reference(src: &str, arrays: &[&str], lengths: &[i64]) {
        let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for &n in lengths {
            let block = run_fast(src, n, arrays, Engine::Block);
            for other in [Engine::Scalar, Engine::Reference] {
                let mismatches = compare_stores(&block, &run_fast(src, n, arrays, other));
                assert!(
                    mismatches.is_empty(),
                    "N={n}: block != {}: {mismatches:?}",
                    if other == Engine::Scalar {
                        "scalar"
                    } else {
                        "reference"
                    }
                );
            }
        }
    }

    /// The block row loop is bitwise identical to the scalar loop on
    /// direct-assign and moving-cell accumulation rows, across every row
    /// length from 1 to 11 (one partial block each).
    #[test]
    fn simd_rows_match_scalar_rows_including_short_tails() {
        block_matches_scalar_and_reference(
            "kernel s(N) { for (i: N) B[i] = 0.5 * A[i] - C[i] / 3.0; }
             kernel m(N) { for (i: N) W[i] += A[i] * C[i]; }",
            &["A", "C"],
            &(1..=11).collect::<Vec<_>>(),
        );
    }

    /// Rows one short of a block, exactly one, one past, and two blocks
    /// plus a tail: `alpha·A·C` (a tape the fused loop does not take)
    /// accumulated into one fixed cell — the adds must reach it in point
    /// order across block boundaries — and into a distinct cell per point,
    /// and a halo read of a tight array, out of bounds at both ends of
    /// its row, whose edge lanes must read 0.
    #[test]
    fn block_rows_match_scalar_rows_across_block_boundaries() {
        block_matches_scalar_and_reference(
            "kernel fixed(N) { for (i: N) S[0] += alpha * A[i] * C[i]; }
             kernel moving(N) { for (i: N) W[i] += alpha * A[i] * C[i]; }
             kernel halo(N) { for (i: N) H[i] = A[i-1] / 3.0 - A[i+1]; }",
            &["alpha", "A", "C"],
            &[31, 32, 33, 67],
        );
    }

    /// A fixed-cell `+=` row that reads its own cell (`C[i]` at `k = i`)
    /// must see the sum so far, as the scalar loop does: neither the
    /// fused register loop nor the block loop may take it.
    #[test]
    fn reductions_that_read_their_own_cell_stay_sequential() {
        block_matches_scalar_and_reference(
            "kernel a(N) { for (i: N) for (k: N) C[i] += C[k] * A[k]; }
             kernel b(N) { for (i: N) for (k: N) C[i] += alpha * C[k] * A[k]; }",
            &["alpha", "A", "C"],
            &[5, 33],
        );
    }

    /// Runs the one kernel of `src` over one row of `n` points on the
    /// plan, from a store `allocate_for` sized, and returns the points the
    /// block, fused and scalar loops ran.
    fn row_loop_points(src: &str, n: i64) -> (u64, u64, u64) {
        let p = parse_program(src).unwrap();
        let mut store = Store::new();
        store
            .allocate_for(&p, &ProblemSizes::new([("N", n)]))
            .unwrap();
        let plan = ExecPlan::compile(&p.kernels[0], &[n], &store).unwrap();
        let mut scratch = plan.scratch();
        let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        plan.exec_row(&mut store, &mut [0], 0, n, 1, &mut scratch);
        (
            scratch.points_block,
            scratch.points_fused,
            scratch.points_scalar,
        )
    }

    /// An in-place update reads each written cell on the write's own
    /// cursor, before writing it, so the block loop takes it — `=` and a
    /// moving `W += W·B` alike — bitwise as the scalar loop and the
    /// tree-walker on inexact values, across block boundaries. A read one
    /// cell behind the write (`A[i+1] = A[i] + …`, `A` sized to keep the
    /// write linear) sees the previous point's write, so that row stays
    /// scalar and propagates.
    #[test]
    fn in_place_rows_run_blocked_and_shifted_rows_stay_scalar() {
        const UPDATE: &str = "kernel update(N) { for (i: N) A[i] = A[i] + B[i] / 3.0; }";
        const SCALE: &str = "kernel scale(N) { for (i: N) W[i] += W[i] * B[i]; }";
        const SHIFT: &str = "kernel shift(N) { for (i: N) A[i+1] = A[i] + B[i] / 3.0; }";
        let lengths = [31, 32, 33, 67];
        block_matches_scalar_and_reference(
            &format!("{UPDATE} {SCALE}"),
            &["A", "B", "W"],
            &lengths,
        );
        block_matches_scalar_and_reference(SHIFT, &["B"], &lengths);
        for n in lengths {
            let all = n as u64;
            assert_eq!(row_loop_points(UPDATE, n), (all, 0, 0), "N={n}");
            assert_eq!(row_loop_points(SCALE, n), (all, 0, 0), "N={n}");
            assert_eq!(row_loop_points(SHIFT, n), (0, 0, all), "N={n}");
        }
        // The fixed-cell `+=` of two reads stays in its register loop.
        let dot = "kernel dot(N) { for (i: N) S[0] += A[i] * B[i]; }";
        assert_eq!(row_loop_points(dot, 33), (0, 33, 0));
    }

    /// A route source that linearizes every row it is offered serves the
    /// block loop from its buffer, with no per-point reads.
    #[test]
    fn linearized_routes_serve_block_rows_from_their_buffer() {
        struct Buffer(Vec<f64>, usize);
        impl RouteSource for Buffer {
            fn read(&mut self, _route: usize, _index: &[i64]) -> f64 {
                self.1 += 1;
                0.0
            }
            fn row(
                &mut self,
                _: usize,
                start: &[i64],
                delta: &[i64],
                _: i64,
            ) -> Option<(i64, i64)> {
                Some((start[0], delta[0]))
            }
            fn row_data(&self, _route: usize) -> &[f64] {
                &self.0
            }
        }
        let p = parse_program("kernel r(N) { for (i: N) B[i] = A[i+1] * 2.0; }").unwrap();
        let mut store = Store::new();
        store.insert("A", Array::zeros(vec![41]));
        store.insert("B", Array::zeros(vec![40]));
        let plan = ExecPlan::compile_routed(&p.kernels[0], &[40], &store, |r| {
            (&*r.array == "A").then_some(0)
        })
        .unwrap();
        let mut routes = Buffer((0..41).map(f64::from).collect(), 0);
        let mut scratch = plan.scratch();
        plan.exec_row_routed(&mut store, &mut [0], 0, 40, 1, &mut scratch, &mut routes);
        assert_eq!(routes.1, 0, "no per-point route reads");
        let b = store.get("B").unwrap();
        assert!((0..40).all(|i| b.get(&[i]) == 2.0 * (i + 1) as f64));
    }

    /// `A[i+1]` reads the cell written one point earlier: a block loop
    /// would read stale lanes, so eligibility must decline rows whose
    /// read slot is the written slot. The reference comparison (with the
    /// block loop at its default, enabled) pins the sequential
    /// propagation.
    #[test]
    fn aliased_rows_stay_scalar_and_propagate_sequentially() {
        run_both(
            "kernel chain(N) { for (i: N) A[i+1] = A[i] / 3.0 + 1.0; }",
            &[("N", 9)],
            &[("A", vec![10])],
        );
    }

    #[test]
    fn the_odometer_issues_rows_in_lexicographic_order_and_stops_at_a_failure() {
        let lp = |dim, start, count, step| Loop {
            dim,
            start,
            count,
            step,
        };
        let loops = [lp(2, 5, 2, 3), lp(0, 1, 2, 1), lp(1, 0, 4, 2)];
        let mut rows = Vec::new();
        let mut point = [9; 3];
        let walk = for_each_row(&mut point, &loops, |point, row| {
            rows.push((point.to_vec(), row.count));
            point[row.dim] = -1; // a row may clobber its own coordinate
            if rows.len() == 3 {
                return Err(rows.len());
            }
            Ok(())
        });
        assert_eq!(walk, Err(3), "the first failure stops the walk");
        let starts = [[1, 0, 5], [2, 0, 5], [1, 0, 8]];
        assert_eq!(rows, starts.map(|p| (p.to_vec(), 4)));
        let mut all = 0;
        let walk = for_each_row(&mut point, &loops, |_, _| {
            all += 1;
            Ok::<(), ()>(())
        });
        assert_eq!((walk, all), (Ok(()), 4));
        let empty = [lp(0, 0, 3, 1), lp(1, 0, 0, 1), lp(2, 0, 3, 1)];
        let walk = for_each_row(&mut point, &empty, |_, _| Err(()));
        assert_eq!(walk, Ok(()), "a loop of no values makes the nest empty");
    }

    #[test]
    fn the_point_walker_visits_each_row_point_by_point() {
        let lp = |dim, start, count, step| Loop {
            dim,
            start,
            count,
            step,
        };
        let loops = [lp(1, 0, 2, 4), lp(0, 3, 3, 2)];
        let mut points = Vec::new();
        let mut point = [9; 3];
        let walk = for_each_point(&mut point, &loops, |point| {
            points.push(point.to_vec());
            point[2] += 1; // coordinates outside the nest are the caller's
            Ok::<(), ()>(())
        });
        assert_eq!(walk, Ok(()));
        let want = [[3, 0], [5, 0], [7, 0], [3, 4], [5, 4], [7, 4]];
        let want: Vec<Vec<i64>> = (want.iter().zip(9..))
            .map(|(&[x, y], z)| vec![x, y, z])
            .collect();
        assert_eq!(points, want);
        let mut seen = 0;
        let walk = for_each_point(&mut point, &loops, |_| {
            seen += 1;
            if seen == 4 {
                return Err(seen);
            }
            Ok(())
        });
        assert_eq!(walk, Err(4), "the first failure stops the walk");
        let mut once = 0;
        let walk = for_each_point(&mut point, &[], |_| {
            once += 1;
            Ok::<(), ()>(())
        });
        assert_eq!((walk, once), (Ok(()), 1), "an empty nest is one point");
        let walk = for_each_point(&mut point, &[lp(0, 0, 2, 1), lp(1, 0, 0, 1)], |_| Err(()));
        assert_eq!(walk, Ok(()), "a loop of no values gives no points");
    }

    #[test]
    fn rank_overflow_bails_to_reference() {
        let mut src = String::from("kernel deep(N) { ");
        for d in 0..9 {
            src.push_str(&format!("for (i{d}: N) "));
        }
        src.push_str("A[i0][i1][i2][i3][i4][i5][i6][i7][i8] = 1.0; }");
        let p = parse_program(&src).unwrap();
        let store = Store::new();
        assert!(ExecPlan::compile(&p.kernels[0], &[2; 9], &store).is_none());
    }
}
