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

/// Lanes of the chunked (SIMD-style) row loop.
pub const SIMD_LANES: usize = 4;

/// Runtime switch for the chunked row loop — differential tests flip it
/// to pin the vector path bitwise against the scalar one.
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables the chunked (SIMD-style) row loop globally.
///
/// The vector path is only ever taken where it is provably bitwise
/// identical to the scalar loop (see [`ExecPlan::exec_row`]), so this
/// switch can never change results — it exists so differential tests
/// can compare both paths on identical inputs.
pub fn set_simd_enabled(enabled: bool) {
    SIMD_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the chunked row loop is currently enabled.
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
    /// the starting flat offset and per-point flat delta; reads then go
    /// through [`RouteSource::read_flat`] with no per-point subscript
    /// work. Returning `None` (the default) keeps per-point
    /// [`RouteSource::read`] calls.
    fn row(&mut self, _route: usize, _start: &[i64], _delta: &[i64], _count: i64) -> Option<(i64, i64)> {
        None
    }

    /// Reads a pre-linearized flat offset produced by [`RouteSource::row`].
    fn read_flat(&mut self, _route: usize, _flat: i64) -> f64 {
        0.0
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
/// cursor per lowered access. Create once per kernel launch with
/// [`ExecPlan::scratch`] and reuse across rows — row setup then costs
/// one dot product per access instead of one per access *per point*.
#[derive(Debug, Clone, Default)]
pub struct RowScratch {
    stmts: Vec<StmtScratch>,
}

#[derive(Debug, Clone)]
struct StmtScratch {
    reads: Vec<RowCursor>,
    write: (i64, i64),
}

/// One access's incremental state along a row. `direct` marks cursors
/// whose flat offset is valid for the whole row — linear store accesses,
/// and routed reads the [`RouteSource`] linearized via
/// [`RouteSource::row`]. Everything else is recomputed per point.
#[derive(Debug, Clone, Copy, Default)]
struct RowCursor {
    flat: i64,
    delta: i64,
    direct: bool,
}

impl ExecPlan {
    /// Compiles `kernel` for the iteration domain `0 ≤ point[d] <
    /// trips[d]` against the array layout currently in `store`.
    ///
    /// The plan is only valid while the store keeps those layouts:
    /// replacing an array with different extents invalidates it.
    /// Returns `None` for shapes beyond the plan's fixed buffers — the
    /// caller falls back to the reference interpreter.
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
        if trips.iter().any(|&t| t <= 0) {
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

    /// Executes every statement at one iteration point, in textual
    /// order — the compiled equivalent of
    /// [`interp::exec_point`](crate::interp::exec_point).
    pub fn exec_point(&self, store: &mut Store, point: &[i64]) {
        self.exec_point_routed(store, point, &mut NoRoutes);
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
        }
    }

    /// Executes `count` iteration points along `dim`, starting from the
    /// current `point` and stepping by `step` — bit-for-bit equivalent
    /// to `count` calls to [`ExecPlan::exec_point`], but every
    /// `Addr::Linear` address is resolved once at row entry and then
    /// advanced incrementally by `step × stride` per point.
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
        // one's in-bounds region is a contiguous interval of points;
        // `dlo..dhi` is the intersection over every checked read. Inside
        // it the checked cursors become direct flat walks, and only the
        // edge points pay the per-point bounds checks.
        let mut dlo = 0i64;
        let mut dhi = count;
        let mut has_checked = false;
        for (stmt, sc) in self.stmts.iter().zip(&mut scratch.stmts) {
            for (read, cursor) in stmt.reads.iter().zip(&mut sc.reads) {
                *cursor = match read {
                    Addr::Linear { base, terms, .. } => {
                        let (flat, delta) = row_cursor(*base, terms, point, dim, step);
                        RowCursor { flat, delta, direct: true }
                    }
                    Addr::Checked { subs, .. } => {
                        has_checked = true;
                        let mut flat = 0i64;
                        let mut delta = 0i64;
                        for sub in subs {
                            let s = sub.index.eval(point);
                            let d = step * sub.index.coeff(dim);
                            flat = flat.wrapping_add(s.wrapping_mul(sub.stride));
                            delta = delta.wrapping_add(d.wrapping_mul(sub.stride));
                            let (lo, hi) = inbounds_interval(s, d, sub.extent, count);
                            dlo = dlo.max(lo);
                            dhi = dhi.min(hi);
                        }
                        RowCursor { flat, delta, direct: false }
                    }
                    Addr::Routed { route, subs } => {
                        let mut start = [0i64; MAX_RANK];
                        let mut delta = [0i64; MAX_RANK];
                        for (p, s) in subs.iter().enumerate() {
                            start[p] = s.eval(point);
                            delta[p] = step * s.coeff(dim);
                        }
                        match routes.row(*route as usize, &start[..subs.len()], &delta[..subs.len()], count) {
                            Some((flat, delta)) => RowCursor { flat, delta, direct: true },
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
        // Chunked (SIMD-style) path: rows where bitwise identity with the
        // scalar loops is provable run in [`SIMD_LANES`]-wide chunks; the
        // scalar loops below take the tail, continuing from the advanced
        // cursors.
        let mut count = count;
        if simd_enabled() && count >= SIMD_LANES as i64 {
            if let Some(wslot) = self.simd_eligible(scratch) {
                let chunks = count / SIMD_LANES as i64;
                self.run_row_simd(store, scratch, chunks, wslot);
                let done = chunks * SIMD_LANES as i64;
                point[dim] += step * done;
                count -= done;
                if count == 0 {
                    return;
                }
            }
        }
        // Fused fast path for the dominant single-statement shape
        // `W += R0 * R1` with every address resolved to a direct cursor:
        // no tape dispatch, no stack, no per-point write resolution.
        if self.stmts.len() == 1 {
            let stmt = &self.stmts[0];
            let sc = &mut scratch.stmts[0];
            if stmt.mul_acc
                && matches!(stmt.write, Addr::Linear { .. })
                && sc.reads.iter().all(|c| c.direct)
            {
                let Addr::Linear { slot: wslot, .. } = stmt.write else {
                    unreachable!("guarded by the matches! above")
                };
                if sc.write.1 == 0 {
                    // The write cell is fixed along the row (a reduction,
                    // e.g. `C[i][j] += A[i][k]·B[k][j]` rowed over `k`):
                    // accumulate in a register and store once. Identical
                    // rounding — the adds happen in the same order.
                    enum Rd<'a> {
                        Slice(&'a [f64]),
                        Route(usize),
                    }
                    let resolve = |addr: &Addr| match addr {
                        Addr::Linear { slot, .. } | Addr::Checked { slot, .. } => {
                            Rd::Slice(store.slot_array(*slot as usize).data())
                        }
                        Addr::Routed { route, .. } => Rd::Route(*route as usize),
                        Addr::Miss => unreachable!("non-direct cursors are excluded above"),
                    };
                    let r0 = resolve(&stmt.reads[0]);
                    let r1 = resolve(&stmt.reads[1]);
                    let (mut fa, da) = (sc.reads[0].flat, sc.reads[0].delta);
                    let (mut fb, db) = (sc.reads[1].flat, sc.reads[1].delta);
                    let wflat = sc.write.0 as usize;
                    let mut acc = store.slot_array(wslot as usize).data()[wflat];
                    for _ in 0..count {
                        let a = match &r0 {
                            Rd::Slice(d) => d[fa as usize],
                            Rd::Route(r) => routes.read_flat(*r, fa),
                        };
                        let b = match &r1 {
                            Rd::Slice(d) => d[fb as usize],
                            Rd::Route(r) => routes.read_flat(*r, fb),
                        };
                        acc += a * b;
                        fa = fa.wrapping_add(da);
                        fb = fb.wrapping_add(db);
                    }
                    store.slot_array_mut(wslot as usize).data_mut()[wflat] = acc;
                    // Persist the cursor advance — a split row's next
                    // segment continues from these.
                    sc.reads[0].flat = fa;
                    sc.reads[1].flat = fb;
                    point[dim] += step * count;
                    return;
                }
                for _ in 0..count {
                    let a = direct_val(&stmt.reads[0], &sc.reads[0], store, routes);
                    let b = direct_val(&stmt.reads[1], &sc.reads[1], store, routes);
                    let cell =
                        &mut store.slot_array_mut(wslot as usize).data_mut()[sc.write.0 as usize];
                    *cell += a * b;
                    for cursor in &mut sc.reads {
                        cursor.flat = cursor.flat.wrapping_add(cursor.delta);
                    }
                    sc.write.0 = sc.write.0.wrapping_add(sc.write.1);
                }
                point[dim] += step * count;
                return;
            }
        }
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
                                Addr::Linear { slot, .. } => {
                                    store.slot_array(*slot as usize).data()[sc.reads[i].flat as usize]
                                }
                                Addr::Checked { slot, .. } if sc.reads[i].direct => {
                                    store.slot_array(*slot as usize).data()[sc.reads[i].flat as usize]
                                }
                                Addr::Routed { route, .. } if sc.reads[i].direct => {
                                    routes.read_flat(*route as usize, sc.reads[i].flat)
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
                        let cell =
                            &mut store.slot_array_mut(*slot as usize).data_mut()[sc.write.0 as usize];
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

    /// Whether the row in flight may take the chunked lane loop with
    /// provable bitwise identity to the scalar loops: a single statement
    /// whose write walks a *distinct* linear cell per point (row delta
    /// ≠ 0), with every read a direct cursor into a store slot other
    /// than the written one. Distinct write cells mean lanes never race;
    /// slot disjointness means no point can observe another point's
    /// write; direct store-backed cursors mean each lane performs
    /// exactly the scalar op sequence on exactly the scalar operands.
    /// Fixed-cell reductions (write delta 0) are deliberately excluded —
    /// reassociating the accumulation would change rounding — as are
    /// routed reads, whose sources may be stateful.
    fn simd_eligible(&self, scratch: &RowScratch) -> Option<u32> {
        if self.stmts.len() != 1 {
            return None;
        }
        let stmt = &self.stmts[0];
        let sc = &scratch.stmts[0];
        let Addr::Linear { slot: wslot, .. } = stmt.write else {
            return None;
        };
        if sc.write.1 == 0 || !sc.reads.iter().all(|c| c.direct) {
            return None;
        }
        let disjoint = stmt.reads.iter().all(|r| match r {
            Addr::Linear { slot, .. } | Addr::Checked { slot, .. } => *slot != wslot,
            Addr::Routed { .. } | Addr::Miss => false,
        });
        disjoint.then_some(wslot)
    }

    /// Executes `chunks × SIMD_LANES` points of a row admitted by
    /// [`ExecPlan::simd_eligible`], evaluating the opcode tape on a
    /// stack of [`SIMD_LANES`]-wide value vectors. Each lane applies the
    /// scalar op sequence to the scalar operands of its point, and the
    /// written cells are pairwise distinct and unobserved by any read,
    /// so the result is bitwise identical to the scalar loop. Cursors
    /// are left advanced past the chunks; `point[dim]` is advanced by
    /// the caller (no checked or routed access remains that needs it).
    fn run_row_simd(&self, store: &mut Store, scratch: &mut RowScratch, chunks: i64, wslot: u32) {
        const L: usize = SIMD_LANES;
        let stmt = &self.stmts[0];
        let sc = &mut scratch.stmts[0];
        let mut stack = [[0.0f64; L]; MAX_STACK];
        for _ in 0..chunks {
            let mut top = 0usize;
            for op in &stmt.tape {
                match *op {
                    Op::Num(v) => {
                        stack[top] = [v; L];
                        top += 1;
                    }
                    Op::Read(i) => {
                        let i = i as usize;
                        let slot = match &stmt.reads[i] {
                            Addr::Linear { slot, .. } | Addr::Checked { slot, .. } => *slot,
                            _ => unreachable!("simd_eligible admits only slot-backed reads"),
                        };
                        let data = store.slot_array(slot as usize).data();
                        let (f, d) = (sc.reads[i].flat, sc.reads[i].delta);
                        for (lane, v) in stack[top].iter_mut().enumerate() {
                            *v = data[f.wrapping_add(d.wrapping_mul(lane as i64)) as usize];
                        }
                        top += 1;
                    }
                    Op::Add => {
                        top -= 1;
                        let rhs = stack[top];
                        for (v, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *v += r;
                        }
                    }
                    Op::Sub => {
                        top -= 1;
                        let rhs = stack[top];
                        for (v, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *v -= r;
                        }
                    }
                    Op::Mul => {
                        top -= 1;
                        let rhs = stack[top];
                        for (v, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *v *= r;
                        }
                    }
                    Op::Div => {
                        top -= 1;
                        let rhs = stack[top];
                        for (v, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *v /= r;
                        }
                    }
                    Op::Neg => {
                        for v in stack[top - 1].iter_mut() {
                            *v = -*v;
                        }
                    }
                    Op::Nan => {
                        top -= 1;
                        stack[top - 1] = [f64::NAN; L];
                    }
                }
            }
            let vals = stack[0];
            let (wf, wd) = (sc.write.0, sc.write.1);
            let data = store.slot_array_mut(wslot as usize).data_mut();
            for (lane, v) in vals.iter().enumerate() {
                let cell = &mut data[wf.wrapping_add(wd.wrapping_mul(lane as i64)) as usize];
                if stmt.accumulate {
                    *cell += *v;
                } else {
                    *cell = *v;
                }
            }
            for cursor in &mut sc.reads {
                cursor.flat = cursor.flat.wrapping_add(cursor.delta.wrapping_mul(L as i64));
            }
            sc.write.0 = sc.write.0.wrapping_add(sc.write.1.wrapping_mul(L as i64));
        }
    }

    /// Like [`ExecPlan::exec_point`], with routed reads served by
    /// `routes` — the compiled equivalent of
    /// [`interp::exec_point_hooked`](crate::interp::exec_point_hooked).
    pub fn exec_point_routed(
        &self,
        store: &mut Store,
        point: &[i64],
        routes: &mut impl RouteSource,
    ) {
        for stmt in &self.stmts {
            let mut stack = [0.0f64; MAX_STACK];
            let mut top = 0usize;
            for op in &stmt.tape {
                match *op {
                    Op::Num(v) => {
                        stack[top] = v;
                        top += 1;
                    }
                    Op::Read(i) => {
                        stack[top] = read_addr(&stmt.reads[i as usize], store, point, routes);
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
            let (slot, flat) = match resolve_write(&stmt.write, point) {
                Some(loc) => loc,
                None => continue,
            };
            let data = store.slot_array_mut(slot as usize).data_mut();
            match data.get_mut(flat) {
                Some(cell) if stmt.accumulate => *cell += value,
                Some(cell) => *cell = value,
                None => {}
            }
        }
    }
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

/// Reads through a direct row cursor (linear store access or a routed
/// read the source linearized).
#[inline]
fn direct_val(addr: &Addr, cur: &RowCursor, store: &Store, routes: &mut impl RouteSource) -> f64 {
    match addr {
        Addr::Linear { slot, .. } | Addr::Checked { slot, .. } => {
            store.slot_array(*slot as usize).data()[cur.flat as usize]
        }
        Addr::Routed { route, .. } => routes.read_flat(*route as usize, cur.flat),
        Addr::Miss => 0.0,
    }
}

/// The contiguous point interval `[lo, hi)` of a `count`-long row on
/// which the subscript value `s + p·d` stays inside `[0, extent)`.
#[inline]
fn inbounds_interval(s: i64, d: i64, extent: i64, count: i64) -> (i64, i64) {
    if d == 0 {
        return if s >= 0 && s < extent { (0, count) } else { (0, 0) };
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
fn read_addr(
    addr: &Addr,
    store: &Store,
    point: &[i64],
    routes: &mut impl RouteSource,
) -> f64 {
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
        let plan = ExecPlan::compile_routed(kernel, &[4], &store, |r| {
            (r.array == "A").then_some(3)
        })
        .unwrap();
        let mut routes = Fixed(5.0, Vec::new());
        plan.exec_point_routed(&mut store, &[2], &mut routes);
        assert_eq!(routes.1, vec![(3, vec![3])], "route id + evaluated index");
        assert_eq!(store.get("B").unwrap().get(&[2]), 10.0);
    }

    /// Serializes `set_simd_enabled` flips — the flag is global, and the
    /// comparisons below are only meaningful while it holds still.
    static SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs the plan-backed interpreter with the chunked row loop forced
    /// on or off, returning the resulting store. Arrays are seeded with
    /// the same irregular values as [`run_both`]; the division in the
    /// sources below makes them inexact, so any reordering would show.
    fn run_fast(src: &str, n: i64, arrays: &[&str], simd: bool) -> Store {
        let p = parse_program(src).unwrap();
        let sizes = ProblemSizes::new([("N", n)]);
        let mut store = Store::new();
        store.allocate_for(&p, &sizes).unwrap();
        for name in arrays {
            store.insert(
                *name,
                Array::from_fn(vec![n], |i| {
                    ((i[0].wrapping_mul(31) % 7) - 3) as f64 / 3.0
                }),
            );
        }
        set_simd_enabled(simd);
        let result = crate::interp::run_program(&p, &sizes, &mut store);
        set_simd_enabled(true);
        result.unwrap();
        store
    }

    /// The chunked row loop is bitwise identical to the scalar loop on
    /// direct-assign and moving-cell accumulation rows, across every row
    /// length from a pure tail (shorter than a lane) through exact
    /// chunks to chunk-plus-tail.
    #[test]
    fn simd_rows_match_scalar_rows_including_short_tails() {
        let _guard = SIMD_LOCK.lock().unwrap();
        let src = "kernel s(N) { for (i: N) B[i] = 0.5 * A[i] - C[i] / 3.0; }
                   kernel m(N) { for (i: N) W[i] += A[i] * C[i]; }";
        for n in 1..=11 {
            let vector = run_fast(src, n, &["A", "C"], true);
            let scalar = run_fast(src, n, &["A", "C"], false);
            let mismatches = compare_stores(&vector, &scalar);
            assert!(mismatches.is_empty(), "N={n}: simd != scalar: {mismatches:?}");
        }
    }

    /// `A[i+1]` reads the cell written one point earlier: a chunked loop
    /// would read stale lanes, so eligibility must decline rows whose
    /// read slot is the written slot. The reference comparison (with the
    /// chunked loop at its default, enabled) pins the sequential
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
