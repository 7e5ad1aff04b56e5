//! The affine loop-nest intermediate representation.
//!
//! A [`Program`] is a list of [`Kernel`]s (perfectly nested affine loop
//! nests with one or more statements in the innermost body — the shape
//! PPCG's tiler operates on). Array subscripts are [`AffineExpr`]s over the
//! loop iterators, which is exactly the fragment the EATSS model generator
//! consumes.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Loop extent: either a symbolic problem-size parameter or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Extent {
    /// Named problem-size parameter (e.g. `M`).
    Param(String),
    /// Fixed trip count.
    Const(i64),
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Extent::Param(p) => f.write_str(p),
            Extent::Const(c) => write!(f, "{c}"),
        }
    }
}

/// One loop dimension of a kernel, outermost first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopDim {
    /// Iterator name (e.g. `i`).
    pub name: String,
    /// Trip count (loops run from `0` to `extent - 1`).
    pub extent: Extent,
    /// Declared serial (`for seq (...)` in the source dialect), used for
    /// time loops whose carried dependences flow between statements that
    /// our single-nest IR does not otherwise relate.
    pub explicit_serial: bool,
}

/// An affine function of the loop iterators: `Σ coeff·iter + constant`.
///
/// # Examples
///
/// ```
/// use eatss_affine::AffineExpr;
///
/// // 2*i0 - 1
/// let e = AffineExpr::from_terms(vec![(0, 2)], -1);
/// assert_eq!(e.eval(&[5, 7]), 9);
/// assert_eq!(e.coeff(0), 2);
/// assert_eq!(e.coeff(1), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// `(dimension index, coefficient)` pairs, sorted by dimension, no
    /// zero coefficients, no duplicate dimensions.
    terms: Terms,
    /// Constant offset.
    constant: i64,
}

/// How many terms an [`AffineExpr`] holds without a heap allocation: a
/// subscript rarely names more than two iterators.
const INLINE_TERMS: usize = 3;

/// An [`AffineExpr`]'s terms: in place while they fit, then on the heap.
/// Equal, hashed and printed as the slice of terms.
#[derive(Clone)]
enum Terms {
    Inline(u8, [(usize, i64); INLINE_TERMS]),
    Heap(Vec<(usize, i64)>),
}

impl Default for Terms {
    fn default() -> Self {
        Terms::Inline(0, [(0, 0); INLINE_TERMS])
    }
}

impl Terms {
    fn as_slice(&self) -> &[(usize, i64)] {
        match self {
            Terms::Inline(len, terms) => &terms[..usize::from(*len)],
            Terms::Heap(terms) => terms,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(usize, i64)] {
        match self {
            Terms::Inline(len, terms) => &mut terms[..usize::from(*len)],
            Terms::Heap(terms) => terms,
        }
    }

    /// Inserts `term` at position `at` (at most the length).
    fn insert(&mut self, at: usize, term: (usize, i64)) {
        match self {
            Terms::Inline(len, terms) if usize::from(*len) < INLINE_TERMS => {
                terms.copy_within(at..usize::from(*len), at + 1);
                terms[at] = term;
                *len += 1;
            }
            Terms::Inline(_, terms) => {
                let mut heap = Vec::with_capacity(INLINE_TERMS * 2);
                heap.extend_from_slice(terms);
                heap.insert(at, term);
                *self = Terms::Heap(heap);
            }
            Terms::Heap(terms) => terms.insert(at, term),
        }
    }

    /// Removes the term at position `at`.
    fn remove(&mut self, at: usize) {
        match self {
            Terms::Inline(len, terms) => {
                terms.copy_within(at + 1..usize::from(*len), at);
                *len -= 1;
            }
            Terms::Heap(terms) => {
                terms.remove(at);
            }
        }
    }
}

impl PartialEq for Terms {
    fn eq(&self, other: &Terms) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Terms {}

impl std::hash::Hash for Terms {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Terms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: Terms::default(),
            constant: c,
        }
    }

    /// The single-iterator expression `iter_dim` (coefficient 1).
    pub fn var(dim: usize) -> Self {
        let mut e = AffineExpr::constant(0);
        e.add_term(dim, 1);
        e
    }

    /// Builds from raw `(dim, coeff)` terms plus a constant, normalizing
    /// (merging duplicates, dropping zeros, sorting by dimension).
    pub fn from_terms(terms: Vec<(usize, i64)>, constant: i64) -> Self {
        let mut e = AffineExpr::constant(constant);
        for (d, c) in terms {
            e.add_term(d, c);
        }
        e
    }

    /// Adds `coeff·iter_dim` to the expression.
    pub fn add_term(&mut self, dim: usize, coeff: i64) {
        match self.terms().binary_search_by_key(&dim, |&(d, _)| d) {
            Ok(i) => {
                let c = &mut self.terms.as_mut_slice()[i].1;
                *c += coeff;
                if *c == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) => {
                if coeff != 0 {
                    self.terms.insert(i, (dim, coeff));
                }
            }
        }
    }

    /// Adds a constant.
    pub fn add_constant(&mut self, c: i64) {
        self.constant += c;
    }

    /// Coefficient of dimension `dim` (0 if absent).
    pub fn coeff(&self, dim: usize) -> i64 {
        let terms = self.terms();
        (terms.binary_search_by_key(&dim, |&(d, _)| d)).map_or(0, |i| terms[i].1)
    }

    /// Constant offset.
    pub fn offset(&self) -> i64 {
        self.constant
    }

    /// Non-zero `(dim, coeff)` pairs sorted by dimension.
    pub fn terms(&self) -> &[(usize, i64)] {
        self.terms.as_slice()
    }

    /// Whether iterator `dim` appears with non-zero coefficient.
    pub fn uses(&self, dim: usize) -> bool {
        self.coeff(dim) != 0
    }

    /// The linear part, i.e. the expression minus its constant.
    pub fn linear_part(&self) -> AffineExpr {
        AffineExpr {
            terms: self.terms.clone(),
            constant: 0,
        }
    }

    /// Evaluates at a concrete iteration point.
    ///
    /// # Panics
    ///
    /// Panics if the point has fewer dimensions than the expression uses.
    pub fn eval(&self, point: &[i64]) -> i64 {
        self.terms().iter().map(|&(d, c)| c * point[d]).sum::<i64>() + self.constant
    }

    /// Renders using the given iterator names.
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        struct D<'a>(&'a AffineExpr, &'a [String]);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut first = true;
                for &(d, c) in self.0.terms() {
                    let name: &str = self.1.get(d).map(String::as_str).unwrap_or("?");
                    if first {
                        match c {
                            1 => write!(f, "{name}")?,
                            -1 => write!(f, "-{name}")?,
                            _ => write!(f, "{c}*{name}")?,
                        }
                        first = false;
                    } else if c > 0 {
                        if c == 1 {
                            write!(f, "+{name}")?;
                        } else {
                            write!(f, "+{c}*{name}")?;
                        }
                    } else if c == -1 {
                        write!(f, "-{name}")?;
                    } else {
                        write!(f, "{c}*{name}")?;
                    }
                }
                if first {
                    write!(f, "{}", self.0.constant)?;
                } else if self.0.constant > 0 {
                    write!(f, "+{}", self.0.constant)?;
                } else if self.0.constant < 0 {
                    write!(f, "{}", self.0.constant)?;
                }
                Ok(())
            }
        }
        D(self, names)
    }
}

/// A single array reference, e.g. `In[i][k]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// Array name, shared by the references to one array a parse builds.
    pub array: Arc<str>,
    /// Subscript expressions, slowest-varying first. Empty for scalars.
    pub subscripts: Vec<AffineExpr>,
}

impl ArrayRef {
    /// Creates a reference from an array name and subscripts.
    pub fn new(array: impl Into<Arc<str>>, subscripts: Vec<AffineExpr>) -> Self {
        ArrayRef {
            array: array.into(),
            subscripts,
        }
    }

    /// The fastest-varying subscript, if the reference is not scalar.
    pub fn fastest_subscript(&self) -> Option<&AffineExpr> {
        self.subscripts.last()
    }

    /// Whether `self` and `other` touch the same cache lines: the same
    /// array, the same linear part in every subscript, and the same
    /// constant offsets in all but the fastest-varying subscript (§IV-G's
    /// distinct-cache-line grouping, and the emulator's staging routes).
    pub fn same_lines(&self, other: &ArrayRef) -> bool {
        let n = self.subscripts.len();
        self.array == other.array
            && other.subscripts.len() == n
            && self
                .subscripts
                .iter()
                .zip(&other.subscripts)
                .enumerate()
                .all(|(p, (a, b))| {
                    a.terms() == b.terms() && (p + 1 == n || a.offset() == b.offset())
                })
    }

    /// Whether iterator `dim` appears in any subscript.
    pub fn uses_dim(&self, dim: usize) -> bool {
        self.subscripts.iter().any(|s| s.uses(dim))
    }

    /// Iterator dims used anywhere in the subscripts, ascending, deduped.
    pub fn used_dims(&self) -> Vec<usize> {
        let mut dims: Vec<usize> = self
            .subscripts
            .iter()
            .flat_map(|s| s.terms().iter().map(|&(d, _)| d))
            .collect();
        dims.sort_unstable();
        dims.dedup();
        dims
    }

    /// Whether the reference has *stride-1* access along `dim`: `dim`
    /// appears with coefficient ±1 in the fastest-varying subscript and
    /// nowhere else.
    pub fn stride1_dim(&self) -> Option<usize> {
        let (last, slower) = self.subscripts.split_last()?;
        let mut candidates = (last.terms().iter())
            .filter(|&&(_, c)| c == 1 || c == -1)
            .map(|&(d, _)| d);
        let first = candidates.clone().next();
        // Of those, prefer one not used in the slower subscripts (a dim
        // also indexing a slower subscript does not give contiguity).
        candidates
            .find(|&d| !slower.iter().any(|s| s.uses(d)))
            .or(first)
    }

    /// Renders using the given iterator names.
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> String {
        let mut s = self.array.to_string();
        for sub in &self.subscripts {
            s.push('[');
            s.push_str(&sub.display_with(names).to_string());
            s.push(']');
        }
        s
    }
}

/// Right-hand-side expression shape (for code generation); array operands
/// index into [`Statement::reads`].
#[derive(Debug, Clone, PartialEq)]
pub enum RhsExpr {
    /// Numeric literal.
    Num(f64),
    /// The `i`-th read reference of the owning statement.
    Ref(usize),
    /// Binary operation; `op` is one of `+ - * /`.
    Bin(char, Box<RhsExpr>, Box<RhsExpr>),
    /// Unary negation.
    Neg(Box<RhsExpr>),
}

impl RhsExpr {
    /// Renders the expression, printing read `i` as `reads[i]` with the
    /// given iterator names substituted.
    pub fn display_with(&self, reads: &[ArrayRef], names: &[String]) -> String {
        match self {
            RhsExpr::Num(v) => {
                if v.fract() == 0.0 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            RhsExpr::Ref(i) => reads
                .get(*i)
                .map(|r| r.display_with(names))
                .unwrap_or_else(|| "?".to_owned()),
            RhsExpr::Bin(op, a, b) => format!(
                "({} {op} {})",
                a.display_with(reads, names),
                b.display_with(reads, names)
            ),
            RhsExpr::Neg(a) => format!("(-{})", a.display_with(reads, names)),
        }
    }
}

/// One statement in the innermost loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// The written reference (left-hand side).
    pub write: ArrayRef,
    /// Read references on the right-hand side, in textual order.
    pub reads: Vec<ArrayRef>,
    /// Right-hand-side expression shape over [`Statement::reads`].
    pub rhs: RhsExpr,
    /// `true` for `+=` statements (the write is also a read — a
    /// reduction).
    pub is_accumulation: bool,
    /// Floating-point operations per dynamic instance.
    pub flops: u32,
}

impl Statement {
    /// Unique references (write + reads, deduplicated structurally).
    pub fn unique_refs(&self) -> Vec<&ArrayRef> {
        let mut v: Vec<&ArrayRef> = Vec::new();
        for r in std::iter::once(&self.write).chain(self.reads.iter()) {
            if !v.contains(&r) {
                v.push(r);
            }
        }
        v
    }
}

/// A perfectly nested affine loop nest with statements in the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (e.g. `gemm`).
    pub name: String,
    /// Loop dimensions, outermost first.
    pub dims: Vec<LoopDim>,
    /// Innermost-body statements in textual order.
    pub stmts: Vec<Statement>,
}

impl Kernel {
    /// Loop-nest depth (`L` in the paper).
    pub fn depth(&self) -> usize {
        self.dims.len()
    }

    /// Iterator names, outermost first.
    pub fn dim_names(&self) -> Vec<String> {
        self.dims.iter().map(|d| d.name.clone()).collect()
    }

    /// Unique references across all statements (write + reads).
    pub fn unique_refs(&self) -> Vec<&ArrayRef> {
        let mut v: Vec<&ArrayRef> = Vec::new();
        for s in &self.stmts {
            for r in s.unique_refs() {
                if !v.contains(&r) {
                    v.push(r);
                }
            }
        }
        v
    }

    /// Names of arrays touched by the kernel, in first-use order.
    pub fn array_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = Vec::new();
        for r in self.unique_refs() {
            if !v.contains(&&*r.array) {
                v.push(&r.array);
            }
        }
        v
    }

    /// Names of the problem-size parameters the loop extents use, in
    /// first-use order.
    pub fn params(&self) -> Vec<&str> {
        let mut v: Vec<&str> = Vec::new();
        for d in &self.dims {
            if let Extent::Param(p) = &d.extent {
                if !v.contains(&p.as_str()) {
                    v.push(p);
                }
            }
        }
        v
    }

    /// Concrete trip count of dimension `dim` under `sizes`.
    ///
    /// # Errors
    ///
    /// Returns the parameter name if it is unbound in `sizes`.
    pub fn trip_count(&self, dim: usize, sizes: &ProblemSizes) -> Result<i64, String> {
        match &self.dims[dim].extent {
            Extent::Const(c) => Ok(*c),
            Extent::Param(p) => sizes.get(p).ok_or_else(|| p.clone()),
        }
    }

    /// Total dynamic iteration count under `sizes`.
    ///
    /// # Errors
    ///
    /// Returns the first unbound parameter name.
    pub fn iteration_space_size(&self, sizes: &ProblemSizes) -> Result<i64, String> {
        let mut total: i64 = 1;
        for d in 0..self.depth() {
            total = total.saturating_mul(self.trip_count(d, sizes)?);
        }
        Ok(total)
    }

    /// Total floating-point operations under `sizes`.
    ///
    /// # Errors
    ///
    /// Returns the first unbound parameter name.
    pub fn total_flops(&self, sizes: &ProblemSizes) -> Result<i64, String> {
        let iters = self.iteration_space_size(sizes)?;
        let per_iter: i64 = self.stmts.iter().map(|s| s.flops as i64).sum();
        Ok(iters.saturating_mul(per_iter))
    }
}

/// A program: one or more kernels sharing problem-size parameters
/// (e.g. 2mm is two back-to-back matmul kernels).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Member kernels in execution order.
    pub kernels: Vec<Kernel>,
}

impl Program {
    /// Maximum loop depth across kernels (`d` in the paper's `32^d`
    /// default-tiling notation).
    pub fn max_depth(&self) -> usize {
        self.kernels.iter().map(Kernel::depth).max().unwrap_or(0)
    }

    /// Names of the problem-size parameters of all kernels, in first-use
    /// order — what a front end must bind before the program can be
    /// sized.
    pub fn params(&self) -> Vec<&str> {
        let mut v: Vec<&str> = Vec::new();
        for p in self.kernels.iter().flat_map(Kernel::params) {
            if !v.contains(&p) {
                v.push(p);
            }
        }
        v
    }

    /// Total floating-point operations of all kernels under `sizes`.
    ///
    /// # Errors
    ///
    /// Returns the first unbound parameter name.
    pub fn total_flops(&self, sizes: &ProblemSizes) -> Result<i64, String> {
        let mut total = 0i64;
        for k in &self.kernels {
            total = total.saturating_add(k.total_flops(sizes)?);
        }
        Ok(total)
    }
}

/// Binding of problem-size parameters to concrete values.
///
/// # Examples
///
/// ```
/// use eatss_affine::ProblemSizes;
///
/// let sizes = ProblemSizes::new([("M", 1000), ("N", 1200)]);
/// assert_eq!(sizes.get("M"), Some(1000));
/// assert_eq!(sizes.get("K"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProblemSizes {
    map: BTreeMap<String, i64>,
}

impl ProblemSizes {
    /// Builds from `(name, value)` pairs.
    pub fn new<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, i64)>,
        S: Into<String>,
    {
        ProblemSizes {
            map: pairs.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }

    /// Binds every parameter in `params` to the same value `n`.
    pub fn uniform<'a, I: IntoIterator<Item = &'a str>>(params: I, n: i64) -> Self {
        ProblemSizes::new(params.into_iter().map(|p| (p, n)))
    }

    /// Value of parameter `name`.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.map.get(name).copied()
    }

    /// Inserts or overwrites a binding.
    pub fn set(&mut self, name: impl Into<String>, value: i64) {
        self.map.insert(name.into(), value);
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.map.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul() -> Kernel {
        // Out[i][j] += In[i][k] * Ker[k][j]
        Kernel {
            name: "matmul".into(),
            dims: vec![
                LoopDim {
                    name: "i".into(),
                    extent: Extent::Param("M".into()),
                    explicit_serial: false,
                },
                LoopDim {
                    name: "j".into(),
                    extent: Extent::Param("N".into()),
                    explicit_serial: false,
                },
                LoopDim {
                    name: "k".into(),
                    extent: Extent::Param("P".into()),
                    explicit_serial: false,
                },
            ],
            stmts: vec![Statement {
                write: ArrayRef::new("Out", vec![AffineExpr::var(0), AffineExpr::var(1)]),
                reads: vec![
                    ArrayRef::new("In", vec![AffineExpr::var(0), AffineExpr::var(2)]),
                    ArrayRef::new("Ker", vec![AffineExpr::var(2), AffineExpr::var(1)]),
                ],
                rhs: RhsExpr::Bin('*', Box::new(RhsExpr::Ref(0)), Box::new(RhsExpr::Ref(1))),
                is_accumulation: true,
                flops: 2,
            }],
        }
    }

    #[test]
    fn affine_expr_normalization() {
        let e = AffineExpr::from_terms(vec![(2, 1), (0, 2), (2, -1)], 5);
        assert_eq!(e.terms(), &[(0, 2)]);
        assert_eq!(e.offset(), 5);
        let mut f = AffineExpr::var(1);
        f.add_term(1, -1);
        assert!(f.terms().is_empty());
    }

    #[test]
    fn affine_expr_eval_and_display() {
        let e = AffineExpr::from_terms(vec![(0, 1), (1, -2)], 3);
        assert_eq!(e.eval(&[10, 4]), 5);
        let names = vec!["i".to_string(), "j".to_string()];
        assert_eq!(e.display_with(&names).to_string(), "i-2*j+3");
        assert_eq!(
            AffineExpr::constant(0).display_with(&names).to_string(),
            "0"
        );
        let neg = AffineExpr::from_terms(vec![(0, -1)], 0);
        assert_eq!(neg.display_with(&names).to_string(), "-i");
    }

    #[test]
    fn stride1_detection_prefers_unshared_dim() {
        // A[i][j]: stride-1 dim is j.
        let a = ArrayRef::new("A", vec![AffineExpr::var(0), AffineExpr::var(1)]);
        assert_eq!(a.stride1_dim(), Some(1));
        // B[j][j]: j indexes both; still reported (only candidate).
        let b = ArrayRef::new("B", vec![AffineExpr::var(1), AffineExpr::var(1)]);
        assert_eq!(b.stride1_dim(), Some(1));
        // C[i][2*j]: coefficient 2 is not stride-1.
        let c = ArrayRef::new(
            "C",
            vec![AffineExpr::var(0), AffineExpr::from_terms(vec![(1, 2)], 0)],
        );
        assert_eq!(c.stride1_dim(), None);
        // scalar
        let s = ArrayRef::new("s", vec![]);
        assert_eq!(s.stride1_dim(), None);
    }

    #[test]
    fn stride1_with_offset_still_counts() {
        // in[i+1][j-1] has stride-1 along j (stencil halo).
        let r = ArrayRef::new(
            "in",
            vec![
                AffineExpr::from_terms(vec![(0, 1)], 1),
                AffineExpr::from_terms(vec![(1, 1)], -1),
            ],
        );
        assert_eq!(r.stride1_dim(), Some(1));
    }

    #[test]
    fn kernel_accessors() {
        let k = matmul();
        assert_eq!(k.depth(), 3);
        assert_eq!(k.array_names(), vec!["Out", "In", "Ker"]);
        assert_eq!(k.unique_refs().len(), 3);
        let sizes = ProblemSizes::new([("M", 10), ("N", 20), ("P", 30)]);
        assert_eq!(k.iteration_space_size(&sizes).unwrap(), 6000);
        assert_eq!(k.total_flops(&sizes).unwrap(), 12_000);
        assert_eq!(k.trip_count(0, &sizes).unwrap(), 10);
    }

    #[test]
    fn unbound_parameter_is_reported() {
        let k = matmul();
        let sizes = ProblemSizes::new([("M", 10)]);
        assert_eq!(k.iteration_space_size(&sizes), Err("N".to_string()));
    }

    #[test]
    fn statement_unique_refs_count_the_accumulated_write_once() {
        let k = matmul();
        let s = &k.stmts[0];
        assert_eq!(s.unique_refs().len(), 3); // Out, In, Ker
    }

    #[test]
    fn program_totals() {
        let p = Program {
            name: "two".into(),
            kernels: vec![matmul(), matmul()],
        };
        let sizes = ProblemSizes::new([("M", 10), ("N", 10), ("P", 10)]);
        assert_eq!(p.max_depth(), 3);
        assert_eq!(p.total_flops(&sizes).unwrap(), 4000);
    }

    #[test]
    fn problem_sizes_uniform_and_set() {
        let mut s = ProblemSizes::uniform(["M", "N"], 100);
        assert_eq!(s.get("M"), Some(100));
        s.set("M", 50);
        assert_eq!(s.get("M"), Some(50));
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn used_dims_are_sorted_and_deduped() {
        let r = ArrayRef::new(
            "B",
            vec![
                AffineExpr::from_terms(vec![(2, 1), (0, 1)], 0),
                AffineExpr::var(2),
            ],
        );
        assert_eq!(r.used_dims(), vec![0, 2]);
        assert!(r.uses_dim(0));
        assert!(!r.uses_dim(1));
    }
}
