//! An interpreter for the affine IR.
//!
//! Executes programs on real (small) arrays, giving the IR an executable
//! semantics independent of any GPU: the parser's IR means what the
//! source says (matmul really multiplies matrices, stencils really
//! smooth), and the `eatss-ppcg` execution oracle compares what generated
//! tiled code computes against this interpreter, bit for bit.
//!
//! Arrays are dense row-major `f64` buffers indexed by the reference
//! subscripts; out-of-bounds accesses (stencil halos) read 0 and drop
//! writes, matching padded-array conventions.
//!
//! # Two execution engines
//!
//! The module-level entry points ([`run_program`], [`run_kernel`])
//! compile each kernel into an [`ExecPlan`](crate::plan::ExecPlan) —
//! arrays resolved to dense store slots, subscripts lowered to linear
//! address functions, right-hand sides flattened to postfix opcode
//! tapes — and execute through the plan, one row per innermost loop,
//! walked by the plan's loop-nest odometer ([`for_each_row`]), which the
//! `eatss-ppcg` emulator's threads and chunks share. The original
//! tree-walking interpreter is retained verbatim in [`mod@reference`] and
//! remains the executable specification; the fast path is differentially
//! proven to produce bitwise-identical stores.

use crate::ir::{ArrayRef, Kernel, Program};
use crate::plan::{for_each_point, for_each_row, Loop};
use crate::ProblemSizes;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;

pub mod reference;

pub use reference::{exec_point, exec_point_hooked};

/// Maximum array rank (and subscript count) the fixed-size index buffers
/// cover; deeper shapes fall back to heap buffers or the reference
/// interpreter.
pub const MAX_RANK: usize = 8;

/// A dense row-major array store.
///
/// Arrays live in insertion-ordered slots (`Vec<Array>`) with a name
/// index on the side, so compiled execution plans can address them by
/// dense slot number instead of string key. Replacing an array via
/// [`Store::insert`] reuses its slot.
#[derive(Debug, Clone, Default)]
pub struct Store {
    slots: Vec<Array>,
    index: BTreeMap<String, usize>,
}

impl PartialEq for Store {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality: the same name → array mapping, regardless of
        // the slot order the insertion history produced.
        self.index.len() == other.index.len()
            && self
                .arrays()
                .zip(other.arrays())
                .all(|((na, aa), (nb, ab))| na == nb && aa == ab)
    }
}

/// One dense array.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    extents: Vec<i64>,
    data: Vec<f64>,
}

impl Array {
    /// A zero-initialized array with the given extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is non-positive, or if the elements are more
    /// than a `Vec<f64>` can hold.
    pub fn zeros(extents: Vec<i64>) -> Self {
        assert!(extents.iter().all(|&e| e > 0), "extents must be positive");
        // The documented panic: more elements than a `Vec<f64>` holds.
        #[allow(clippy::expect_used)]
        let len = element_count(&extents).expect("a Vec<f64> holds the elements");
        Array {
            extents,
            data: vec![0.0; len],
        }
    }

    /// Builds an array from extents and a fill function over indices,
    /// filled as [`Array::fill_with`] fills it.
    pub fn from_fn(extents: Vec<i64>, f: impl FnMut(&[i64]) -> f64) -> Self {
        let mut a = Array::zeros(extents);
        a.fill_with(f);
        a
    }

    /// Overwrites every element with `f` of its index, in row-major order:
    /// the plan's point walker visits the indices as a linear cursor runs
    /// over the buffer.
    pub fn fill_with(&mut self, mut f: impl FnMut(&[i64]) -> f64) {
        let loops = full_nest(&self.extents);
        let mut slots = self.data.iter_mut();
        let Ok(()) = for_each_point(&mut vec![0; loops.len()], &loops, |idx| {
            if let Some(slot) = slots.next() {
                *slot = f(idx);
            }
            Ok::<(), Infallible>(())
        });
    }

    /// Array extents.
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// Raw data, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Raw data, row-major, mutable.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value at a multi-index (0.0 when out of bounds).
    pub fn get(&self, idx: &[i64]) -> f64 {
        match self.flatten(idx) {
            Some(i) => self.data[i],
            None => 0.0,
        }
    }

    /// Writes a value at a multi-index (dropped when out of bounds).
    pub fn set(&mut self, idx: &[i64], v: f64) {
        if let Some(i) = self.flatten(idx) {
            self.data[i] = v;
        }
    }

    fn flatten(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.extents.len() {
            return None;
        }
        let mut flat: i64 = 0;
        for (&i, &e) in idx.iter().zip(&self.extents) {
            if i < 0 || i >= e {
                return None;
            }
            flat = flat * e + i;
        }
        Some(flat as usize)
    }
}

/// Interpretation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// An array used by the program is missing from the store.
    MissingArray(String),
    /// A problem-size parameter is unbound.
    UnboundParameter(String),
    /// An array's extent along some subscript — its offset's magnitude
    /// plus its trip counts times their coefficients' — is past `i64`.
    ExtentOverflow(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MissingArray(a) => write!(f, "array `{a}` not in the store"),
            InterpError::UnboundParameter(p) => {
                write!(f, "problem-size parameter `{p}` is unbound")
            }
            InterpError::ExtentOverflow(a) => {
                write!(f, "array `{a}` has an extent past the 64-bit range")
            }
        }
    }
}

impl std::error::Error for InterpError {}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Inserts (or replaces) an array. A replaced array keeps its slot.
    pub fn insert(&mut self, name: impl Into<String>, array: Array) {
        let name = name.into();
        match self.index.get(&name) {
            Some(&slot) => self.slots[slot] = array,
            None => {
                self.index.insert(name, self.slots.len());
                self.slots.push(array);
            }
        }
    }

    /// Looks an array up by name.
    pub fn get(&self, name: &str) -> Option<&Array> {
        self.index.get(name).map(|&slot| &self.slots[slot])
    }

    /// Looks an array up by name, mutably.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Array> {
        match self.index.get(name) {
            Some(&slot) => Some(&mut self.slots[slot]),
            None => None,
        }
    }

    /// The dense slot number of an array, stable across replacement.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The array in a slot previously returned by [`Store::slot`].
    pub fn slot_array(&self, slot: usize) -> &Array {
        &self.slots[slot]
    }

    /// The array in a slot, mutably.
    pub fn slot_array_mut(&mut self, slot: usize) -> &mut Array {
        &mut self.slots[slot]
    }

    /// Iterates over `(name, array)` pairs in name order.
    pub fn arrays(&self) -> impl Iterator<Item = (&str, &Array)> {
        self.index
            .iter()
            .map(|(k, &slot)| (k.as_str(), &self.slots[slot]))
    }

    /// Iterates over `(name, array)` pairs in slot order, mutably.
    pub fn arrays_mut(&mut self) -> impl Iterator<Item = (&str, &mut Array)> {
        let mut names = vec![""; self.slots.len()];
        for (name, &slot) in &self.index {
            names[slot] = name.as_str();
        }
        names.into_iter().zip(self.slots.iter_mut())
    }

    /// Pre-allocates every array a program touches (zeros), sizing each
    /// subscript by the maximum trip count of the dims it uses plus the
    /// halo offsets. Scalars (no subscripts) become 1-element arrays.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::UnboundParameter`] on unbound sizes, and
    /// [`InterpError::ExtentOverflow`] for an extent past `i64` or more
    /// elements than a `Vec<f64>` can hold.
    pub fn allocate_for(
        &mut self,
        program: &Program,
        sizes: &ProblemSizes,
    ) -> Result<(), InterpError> {
        for kernel in &program.kernels {
            for stmt in &kernel.stmts {
                for r in std::iter::once(&stmt.write).chain(stmt.reads.iter()) {
                    let extents = self.extents_of(kernel, r, sizes)?;
                    match self.get(&r.array) {
                        Some(existing) if existing.extents().len() >= extents.len() => {}
                        _ => {
                            self.insert(r.array.to_string(), Array::zeros(extents));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn extents_of(
        &self,
        kernel: &Kernel,
        r: &ArrayRef,
        sizes: &ProblemSizes,
    ) -> Result<Vec<i64>, InterpError> {
        if r.subscripts.is_empty() {
            return Ok(vec![1]);
        }
        let overflow = || InterpError::ExtentOverflow(r.array.to_string());
        let extents: Vec<i64> = (r.subscripts.iter())
            .map(|s| {
                let mut extent = (s.offset().checked_abs())
                    .and_then(|o| o.checked_add(1))
                    .ok_or_else(overflow)?;
                for &(d, c) in s.terms() {
                    let n = kernel
                        .trip_count(d, sizes)
                        .map_err(InterpError::UnboundParameter)?;
                    extent = (c.checked_abs())
                        .and_then(|c| c.checked_mul(n))
                        .and_then(|span| extent.checked_add(span))
                        .ok_or_else(overflow)?;
                }
                Ok(extent.max(1))
            })
            .collect::<Result<_, _>>()?;
        element_count(&extents).ok_or_else(overflow)?;
        Ok(extents)
    }
}

/// A read interception hook: receives the reference being read and its
/// evaluated subscript indices (empty for scalars) and may override the
/// value that would be read from the store. Returning `None` falls through
/// to the ordinary store read. Used by external executors (e.g. the
/// `eatss-ppcg` GPU emulator) to route reads through staged
/// shared-memory buffers.
pub type ReadHook<'a> = dyn FnMut(&ArrayRef, &[i64]) -> Option<f64> + 'a;

/// One element-wise disagreement between two stores.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMismatch {
    /// Array name.
    pub array: String,
    /// Multi-index of the disagreeing element (empty when the array is
    /// missing or shaped differently in `got`).
    pub index: Vec<i64>,
    /// Value in the store under test (NaN when the array is missing).
    pub got: f64,
    /// Value in the reference store.
    pub want: f64,
}

impl fmt::Display for StoreMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for i in &self.index {
            write!(f, "[{i}]")?;
        }
        write!(f, ": got {}, want {}", self.got, self.want)
    }
}

/// Compares `got` against the reference store `want`, element by element
/// and bit for bit (two NaNs count as equal). Every array of `want` must
/// exist in `got` with the same extents; arrays only present in `got` are
/// ignored. Returns all mismatches, in array-name then row-major order.
pub fn compare_stores(got: &Store, want: &Store) -> Vec<StoreMismatch> {
    let mut out = Vec::new();
    for (name, want_arr) in want.arrays() {
        let got_arr = match got.get(name) {
            Some(a) if a.extents() == want_arr.extents() => a,
            _ => {
                out.push(StoreMismatch {
                    array: name.to_owned(),
                    index: Vec::new(),
                    got: f64::NAN,
                    want: f64::NAN,
                });
                continue;
            }
        };
        for (flat, (&g, &w)) in got_arr.data().iter().zip(want_arr.data()).enumerate() {
            let equal = g == w || (g.is_nan() && w.is_nan());
            if !equal {
                out.push(StoreMismatch {
                    array: name.to_owned(),
                    index: unflatten(flat as i64, want_arr.extents()),
                    got: g,
                    want: w,
                });
            }
        }
    }
    out
}

fn unflatten(mut flat: i64, extents: &[i64]) -> Vec<i64> {
    let mut idx = vec![0i64; extents.len()];
    for (d, &e) in extents.iter().enumerate().rev() {
        idx[d] = flat % e;
        flat /= e;
    }
    idx
}

/// Executes a whole program in source order over the store, through
/// compiled execution plans (see the module docs).
///
/// # Errors
///
/// Returns [`InterpError::UnboundParameter`] on unbound sizes. Missing
/// arrays read as zero (allocate with [`Store::allocate_for`] first to
/// make every write land).
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

/// Executes one kernel in lexicographic iteration order through a
/// compiled [`ExecPlan`](crate::plan::ExecPlan). Kernels the plan
/// compiler cannot lower (rank or expression depth beyond its fixed
/// buffers) fall back to [`reference::run_kernel`]; results are bitwise
/// identical either way. A plan's rows publish the points each row loop
/// ran ([`RowScratch::publish`](crate::plan::RowScratch::publish)).
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
    if trips.iter().any(|&t| t <= 0) {
        return Ok(());
    }
    let plan = match crate::plan::ExecPlan::compile(kernel, &trips, store) {
        Some(plan) => plan,
        None => return reference::run_kernel(kernel, sizes, store),
    };
    // Every dim is a loop from 0, the innermost the row: linear addresses
    // advance by a precomputed stride instead of being re-derived per point.
    let loops = full_nest(&trips);
    let mut scratch = plan.scratch();
    let Ok(()) = for_each_row(&mut vec![0; trips.len()], &loops, |point, row| {
        plan.exec_row(store, point, row.dim, row.count, row.step, &mut scratch);
        Ok::<(), Infallible>(())
    });
    scratch.publish();
    Ok(())
}

/// How many elements positive `extents` hold, where a `Vec<f64>` can hold
/// that many.
fn element_count(extents: &[i64]) -> Option<usize> {
    let count =
        (extents.iter()).try_fold(1usize, |n, &e| n.checked_mul(usize::try_from(e).ok()?))?;
    std::alloc::Layout::array::<f64>(count)
        .is_ok()
        .then_some(count)
}

/// The nest whose loop `d` takes every value `0..counts[d]`.
fn full_nest(counts: &[i64]) -> Vec<Loop> {
    (counts.iter().enumerate())
        .map(|(dim, &count)| Loop {
            dim,
            start: 0,
            count,
            step: 1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn sizes3(n: i64) -> ProblemSizes {
        ProblemSizes::new([("M", n), ("N", n), ("P", n)])
    }

    #[test]
    fn matmul_multiplies_matrices() {
        let p = parse_program(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        )
        .unwrap();
        let n = 6;
        let sizes = sizes3(n);
        let mut store = Store::new();
        store.allocate_for(&p, &sizes).unwrap();
        store.insert(
            "A",
            Array::from_fn(vec![n, n], |i| (i[0] * 2 + i[1]) as f64),
        );
        store.insert(
            "B",
            Array::from_fn(vec![n, n], |i| (i[0] - 3 * i[1]) as f64),
        );
        run_program(&p, &sizes, &mut store).unwrap();
        // Cross-check against a direct triple loop.
        let a = store.get("A").unwrap().clone();
        let b = store.get("B").unwrap().clone();
        let c = store.get("C").unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut expect = 0.0;
                for k in 0..n {
                    expect += a.get(&[i, k]) * b.get(&[k, j]);
                }
                assert_eq!(c.get(&[i, j]), expect, "C[{i}][{j}]");
            }
        }
    }

    #[test]
    fn stencil_averages_neighbours() {
        let p = parse_program(
            "kernel s(N) {
               for (i: N) B[i] = 0.5 * (A[i-1] + A[i+1]);
             }",
        )
        .unwrap();
        let sizes = ProblemSizes::new([("N", 5)]);
        let mut store = Store::new();
        store.allocate_for(&p, &sizes).unwrap();
        store.insert("A", Array::from_fn(vec![7], |i| i[0] as f64));
        run_program(&p, &sizes, &mut store).unwrap();
        let b = store.get("B").unwrap();
        // interior points: (A[i-1] + A[i+1]) / 2 = i (A is the identity ramp)
        for i in 1..5 {
            assert_eq!(b.get(&[i]), i as f64);
        }
        // boundary: A[-1] reads 0.
        assert_eq!(b.get(&[0]), 0.5);
    }

    #[test]
    fn scalar_reads_work() {
        let p = parse_program("kernel ax(N) { for (i: N) y[i] = alpha * x[i]; }").unwrap();
        let sizes = ProblemSizes::new([("N", 4)]);
        let mut store = Store::new();
        store.allocate_for(&p, &sizes).unwrap();
        store.insert("alpha", Array::from_fn(vec![1], |_| 2.5));
        store.insert("x", Array::from_fn(vec![4], |i| i[0] as f64));
        run_program(&p, &sizes, &mut store).unwrap();
        let y = store.get("y").unwrap();
        assert_eq!(y.get(&[3]), 7.5);
    }

    #[test]
    fn out_of_store_arrays_read_zero() {
        let p = parse_program("kernel z(N) { for (i: N) y[i] = ghost[i] + 1.0; }").unwrap();
        let sizes = ProblemSizes::new([("N", 3)]);
        let mut store = Store::new();
        store.insert("y", Array::zeros(vec![3]));
        run_program(&p, &sizes, &mut store).unwrap();
        assert_eq!(store.get("y").unwrap().get(&[0]), 1.0);
    }

    #[test]
    fn array_accessors_and_bounds() {
        let mut a = Array::zeros(vec![2, 3]);
        a.set(&[1, 2], 9.0);
        assert_eq!(a.get(&[1, 2]), 9.0);
        assert_eq!(a.get(&[2, 0]), 0.0, "out of bounds reads zero");
        a.set(&[-1, 0], 5.0); // dropped
        assert!(a.data().iter().sum::<f64>() == 9.0);
        assert_eq!(a.extents(), &[2, 3]);
    }

    #[test]
    fn from_fn_enumerates_row_major() {
        // The linear-cursor fill must visit every index exactly once, in
        // row-major order, with the right multi-index at each element.
        let a = Array::from_fn(vec![2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(a.get(&[i, j, k]), (i * 100 + j * 10 + k) as f64);
                }
            }
        }
        // 1-element and rank-1 arrays run through the same cursor.
        assert_eq!(Array::from_fn(vec![1], |_| 7.0).get(&[0]), 7.0);
        let ramp = Array::from_fn(vec![5], |i| i[0] as f64);
        assert_eq!(ramp.data(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn store_replacement_keeps_slots_and_equality_is_logical() {
        let mut a = Store::new();
        a.insert("x", Array::zeros(vec![2]));
        a.insert("y", Array::zeros(vec![3]));
        let x_slot = a.slot("x").unwrap();
        a.insert("x", Array::from_fn(vec![2], |i| i[0] as f64));
        assert_eq!(a.slot("x").unwrap(), x_slot, "replacement keeps the slot");
        assert_eq!(a.get("x").unwrap().get(&[1]), 1.0);
        // Equality ignores insertion order.
        let mut b = Store::new();
        b.insert("y", Array::zeros(vec![3]));
        b.insert("x", Array::from_fn(vec![2], |i| i[0] as f64));
        assert_eq!(a, b);
        b.insert("y", Array::zeros(vec![4]));
        assert_ne!(a, b);
    }

    #[test]
    fn zero_trip_kernels_are_noops() {
        let p = parse_program("kernel e(N) { for (i: N) A[i] = 1.0; }").unwrap();
        let sizes = ProblemSizes::new([("N", 0)]);
        let mut store = Store::new();
        store.insert("A", Array::zeros(vec![1]));
        run_program(&p, &sizes, &mut store).unwrap();
        assert_eq!(store.get("A").unwrap().get(&[0]), 0.0);
    }

    #[test]
    fn a_kernel_of_no_loops_runs_once_like_the_reference() {
        // The parser always produces a loop; with its dimensions cleared
        // the kernel is one point, which no plan compiles.
        let mut p = parse_program(
            "kernel k(N) {
               for (i: N) {
                 B[2] = A[1] * 2.0 + B[3];
                 B[0] += A[0] / A[2];
               }
             }",
        )
        .unwrap();
        let kernel = &mut p.kernels[0];
        kernel.dims.clear();
        let sizes = ProblemSizes::new([("N", 4)]);
        let init = || {
            let mut store = Store::new();
            store.insert("A", Array::from_fn(vec![3], |i| 1.5 - i[0] as f64));
            store.insert("B", Array::from_fn(vec![4], |i| i[0] as f64 * 0.25));
            store
        };
        assert!(crate::plan::ExecPlan::compile(kernel, &[], &init()).is_none());
        let (mut fast, mut slow) = (init(), init());
        run_kernel(kernel, &sizes, &mut fast).unwrap();
        reference::run_kernel(kernel, &sizes, &mut slow).unwrap();
        assert!(compare_stores(&fast, &slow).is_empty());
        let b = fast.get("B").unwrap();
        assert_eq!(b.get(&[2]), 0.5 * 2.0 + 0.75);
        assert_eq!(b.get(&[0]), 1.5 / -0.5);
    }
}
