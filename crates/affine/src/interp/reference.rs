//! The reference tree-walking interpreter.
//!
//! This is the original executable specification of the affine IR: RHS
//! trees are walked recursively, arrays are looked up by name, and every
//! subscript is evaluated per access. The compiled fast path
//! ([`crate::plan::ExecPlan`], used by the module-level `run_*` entry
//! points) is differentially tested to produce bitwise-identical stores
//! against this module, mirroring how `eatss_smt::reference` pins the
//! solver rewrite.
//!
//! Subscript indices are evaluated into a fixed stack buffer
//! (`IndexBuf`, rank ≤ [`MAX_RANK`]) instead of a fresh `Vec<i64>` per
//! read; deeper shapes spill to the heap. The unhooked common path is a
//! dedicated walker with no closure dispatch; only executors that
//! install a [`ReadHook`] pay for the indirection.

use super::{InterpError, ReadHook, Store, MAX_RANK};
use crate::ir::{AffineExpr, ArrayRef, Kernel, Program, RhsExpr, Statement};
use crate::ProblemSizes;

/// A small stack buffer for evaluated subscript indices: fixed storage
/// for rank ≤ [`MAX_RANK`], heap spill beyond.
struct IndexBuf {
    fixed: [i64; MAX_RANK],
    spill: Vec<i64>,
}

impl IndexBuf {
    fn new() -> Self {
        IndexBuf {
            fixed: [0; MAX_RANK],
            spill: Vec::new(),
        }
    }

    /// Evaluates each subscript at `point` and returns the index slice.
    fn fill(&mut self, subscripts: &[AffineExpr], point: &[i64]) -> &[i64] {
        if subscripts.len() <= MAX_RANK {
            for (slot, s) in self.fixed.iter_mut().zip(subscripts) {
                *slot = s.eval(point);
            }
            &self.fixed[..subscripts.len()]
        } else {
            self.spill.clear();
            self.spill.extend(subscripts.iter().map(|s| s.eval(point)));
            &self.spill
        }
    }
}

fn eval_rhs(e: &RhsExpr, stmt: &Statement, store: &Store, point: &[i64]) -> f64 {
    match e {
        RhsExpr::Num(v) => *v,
        RhsExpr::Ref(i) => read_ref(&stmt.reads[*i], store, point),
        RhsExpr::Bin(op, a, b) => {
            let x = eval_rhs(a, stmt, store, point);
            let y = eval_rhs(b, stmt, store, point);
            match op {
                '+' => x + y,
                '-' => x - y,
                '*' => x * y,
                '/' => x / y,
                _ => f64::NAN,
            }
        }
        RhsExpr::Neg(a) => -eval_rhs(a, stmt, store, point),
    }
}

fn read_ref(r: &ArrayRef, store: &Store, point: &[i64]) -> f64 {
    let array = match store.get(&r.array) {
        Some(a) => a,
        None => return 0.0,
    };
    if r.subscripts.is_empty() {
        return array.get(&[0]);
    }
    let mut buf = IndexBuf::new();
    array.get(buf.fill(&r.subscripts, point))
}

fn eval_rhs_hooked(
    e: &RhsExpr,
    stmt: &Statement,
    store: &Store,
    point: &[i64],
    hook: &mut ReadHook<'_>,
) -> f64 {
    match e {
        RhsExpr::Num(v) => *v,
        RhsExpr::Ref(i) => read_ref_hooked(&stmt.reads[*i], store, point, hook),
        RhsExpr::Bin(op, a, b) => {
            let x = eval_rhs_hooked(a, stmt, store, point, hook);
            let y = eval_rhs_hooked(b, stmt, store, point, hook);
            match op {
                '+' => x + y,
                '-' => x - y,
                '*' => x * y,
                '/' => x / y,
                _ => f64::NAN,
            }
        }
        RhsExpr::Neg(a) => -eval_rhs_hooked(a, stmt, store, point, hook),
    }
}

fn read_ref_hooked(r: &ArrayRef, store: &Store, point: &[i64], hook: &mut ReadHook<'_>) -> f64 {
    let mut buf = IndexBuf::new();
    let idx = buf.fill(&r.subscripts, point);
    if let Some(v) = hook(r, idx) {
        return v;
    }
    let array = match store.get(&r.array) {
        Some(a) => a,
        None => return 0.0,
    };
    if r.subscripts.is_empty() {
        return array.get(&[0]);
    }
    array.get(idx)
}

fn write_value(stmt: &Statement, store: &mut Store, point: &[i64], value: f64) {
    let mut buf = IndexBuf::new();
    let idx: &[i64] = if stmt.write.subscripts.is_empty() {
        &[0]
    } else {
        buf.fill(&stmt.write.subscripts, point)
    };
    let array = match store.get_mut(&stmt.write.array) {
        Some(a) => a,
        None => return,
    };
    if stmt.is_accumulation {
        let old = array.get(idx);
        array.set(idx, old + value);
    } else {
        array.set(idx, value);
    }
}

/// Executes every statement of `kernel` at one iteration point, in textual
/// order, over the store. This is the per-point semantics shared by all
/// execution orders ([`run_kernel`] and external executors such as the
/// GPU emulator in `eatss-ppcg`).
pub fn exec_point(kernel: &Kernel, store: &mut Store, point: &[i64]) {
    for stmt in &kernel.stmts {
        let value = eval_rhs(&stmt.rhs, stmt, store, point);
        write_value(stmt, store, point, value);
    }
}

/// Like [`exec_point`], but right-hand-side reads are first offered to
/// `hook` (see [`ReadHook`]). The implicit read of an accumulation target
/// (`+=`) always goes to the store: accumulated references live in
/// L1/registers on the GPU, never in staged shared memory.
pub fn exec_point_hooked(
    kernel: &Kernel,
    store: &mut Store,
    point: &[i64],
    hook: &mut ReadHook<'_>,
) {
    for stmt in &kernel.stmts {
        let value = eval_rhs_hooked(&stmt.rhs, stmt, store, point, hook);
        write_value(stmt, store, point, value);
    }
}

/// Executes a whole program in source order through the tree-walker.
///
/// # Errors
///
/// Returns [`InterpError::UnboundParameter`] on unbound sizes.
pub fn run_program(
    program: &Program,
    sizes: &ProblemSizes,
    store: &mut Store,
) -> Result<(), InterpError> {
    for kernel in &program.kernels {
        run_kernel(kernel, sizes, store)?;
    }
    Ok(())
}

/// Executes one kernel in lexicographic iteration order through the
/// tree-walker.
///
/// # Errors
///
/// Returns [`InterpError::UnboundParameter`] on unbound sizes.
pub fn run_kernel(
    kernel: &Kernel,
    sizes: &ProblemSizes,
    store: &mut Store,
) -> Result<(), InterpError> {
    let trips: Vec<i64> = (0..kernel.depth())
        .map(|d| kernel.trip_count(d, sizes))
        .collect::<Result<_, _>>()
        .map_err(InterpError::UnboundParameter)?;
    let mut point = vec![0i64; trips.len()];
    if trips.iter().any(|&t| t <= 0) {
        return Ok(());
    }
    loop {
        exec_point(kernel, store, &point);
        let mut d = trips.len();
        loop {
            if d == 0 {
                return Ok(());
            }
            d -= 1;
            point[d] += 1;
            if point[d] < trips[d] {
                break;
            }
            point[d] = 0;
        }
    }
}
