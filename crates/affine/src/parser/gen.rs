//! Seeded synthetic affine-program generator.
//!
//! Produces random — but always grammatically valid — programs in the
//! affine-C dialect, for two consumers:
//!
//! * the `bench_engines` gate and the `benchmark/` tour, which need
//!   corpora large and varied enough that parser timings mean something;
//! * the fuzz/differential test suites, which feed the same generated
//!   source to both parser engines and through the
//!   parse → pretty → re-parse fixpoint.
//!
//! Determinism is the whole contract: `generate_program(seed, cfg)` is a
//! pure function of its arguments, so every test failure and every bench
//! corpus is reproducible from a `u64`.

/// Tunables for [`generate_program`]. Field ranges are inclusive where
/// they are ranges; the generator clamps degenerate values to 1.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of kernels in the program.
    pub kernels: usize,
    /// Maximum loop-nest depth per kernel (actual depth is 1..=max).
    pub max_depth: usize,
    /// Maximum statements per kernel body (actual count is 1..=max).
    pub max_stmts: usize,
    /// Maximum operand count in a right-hand-side expression chain.
    pub max_expr_terms: usize,
    /// Emit `// comments` and irregular whitespace so the trivia path
    /// is exercised too.
    pub trivia: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            kernels: 2,
            max_depth: 3,
            max_stmts: 2,
            max_expr_terms: 4,
            trivia: true,
        }
    }
}

/// xorshift64* — the same tiny deterministic PRNG the gpusim fault
/// injector uses; good enough for corpus shaping, zero dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // splitmix64 scramble so adjacent seeds land in distant states.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (n ≥ 1).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

// Identifier shapes modeled on the real kernel corpus (`eatss-kernels`,
// `examples/kernels/`): descriptive snake_case array names, not
// single letters — parser cost is dominated by identifier handling, so
// name lengths must look like real code for MB/s to mean anything.
const ARRAYS: &[&str] = &[
    "A",
    "B",
    "acc",
    "tmp0",
    "coeff_matrix",
    "grid_input",
    "grid_output",
    "stencil_weights",
    "partial_sums",
    "batched_lhs",
    "batched_rhs",
    "threshold_map",
    "gradient_x",
    "gradient_y",
    "conv_filter",
    "activation_buf",
];
const FLOATS: &[&str] = &["2", "3", "0.5", "3.0", "0.25", "1.5"];
const COMMENTS: &[&str] = &[
    "// accumulate the partial contraction for this tile row",
    "// halo cells are handled by the clamped subscripts below",
    "// inner product over the shared dimension",
    "// write-back: one cache line per iteration of the innermost loop",
    "// generated nest (seeded synthetic corpus, see parser::gen)",
    "// coefficients are broadcast from the first tile",
];

/// Generates one program: a pure function of `(seed, cfg)`.
pub fn generate_program(seed: u64, cfg: &GenConfig) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::new();
    for k in 0..cfg.kernels.max(1) {
        gen_kernel(&mut rng, cfg, k, &mut out);
    }
    out
}

fn gen_kernel(rng: &mut Rng, cfg: &GenConfig, idx: usize, out: &mut String) {
    let depth = 1 + rng.below(cfg.max_depth.max(1));
    // Extent per dimension: mostly parameters (N0, N1, ...), sometimes a
    // compile-time constant.
    let extents: Vec<Option<String>> = (0..depth)
        .map(|d| {
            if rng.chance(1, 5) {
                None // const extent
            } else {
                Some(format!("N{d}"))
            }
        })
        .collect();
    let params: Vec<&String> = extents.iter().flatten().collect();
    if cfg.trivia && rng.chance(2, 3) {
        out.push_str(COMMENTS[rng.below(COMMENTS.len())]);
        out.push('\n');
    }
    const KERNEL_NAMES: &[&str] = &[
        "contract_stage",
        "stencil_sweep",
        "batched_update",
        "reduce_rows",
        "elementwise_scale",
    ];
    out.push_str(&format!(
        "kernel {}_{idx}(",
        KERNEL_NAMES[rng.below(KERNEL_NAMES.len())]
    ));
    for (i, p) in params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(p);
    }
    out.push_str(") {\n");
    for (d, ext) in extents.iter().enumerate() {
        let seq = if d == 0 && rng.chance(1, 6) { "seq " } else { "" };
        let extent = match ext {
            Some(p) => p.clone(),
            None => format!("{}", 16 << rng.below(4)),
        };
        out.push_str(&"  ".repeat(d + 1));
        out.push_str(&format!("for {seq}(i{d}: {extent})\n"));
    }
    let stmts = 1 + rng.below(cfg.max_stmts.max(1));
    let indent = "  ".repeat(depth + 1);
    if stmts > 1 {
        out.push_str(&"  ".repeat(depth));
        out.push_str("{\n");
    }
    for _ in 0..stmts {
        out.push_str(&indent);
        gen_stmt(rng, cfg, depth, out);
        out.push('\n');
        if cfg.trivia && rng.chance(1, 4) {
            out.push_str(&indent);
            out.push_str(COMMENTS[rng.below(COMMENTS.len())]);
            out.push('\n');
        }
    }
    if stmts > 1 {
        out.push_str(&"  ".repeat(depth));
        out.push_str("}\n");
    }
    out.push_str("}\n");
}

fn gen_stmt(rng: &mut Rng, cfg: &GenConfig, depth: usize, out: &mut String) {
    gen_ref(rng, depth, out);
    out.push_str(if rng.chance(1, 3) { " += " } else { " = " });
    gen_expr(rng, cfg, depth, out);
    out.push(';');
}

const OPS: [char; 4] = ['+', '-', '*', '/'];

fn gen_expr(rng: &mut Rng, cfg: &GenConfig, depth: usize, out: &mut String) {
    let terms = 1 + rng.below(cfg.max_expr_terms.max(1));
    for t in 0..terms {
        if t > 0 {
            out.push(' ');
            out.push(OPS[rng.below(4)]);
            out.push(' ');
        }
        gen_operand(rng, depth, out);
    }
}

fn gen_operand(rng: &mut Rng, depth: usize, out: &mut String) {
    // Single leading negation only: `--x` is a parse error by design.
    if rng.chance(1, 8) {
        out.push('-');
    }
    if rng.chance(1, 4) {
        // Parenthesized sub-chain.
        out.push('(');
        let terms = 2 + rng.below(2);
        for t in 0..terms {
            if t > 0 {
                out.push(' ');
                out.push(OPS[rng.below(4)]);
                out.push(' ');
            }
            gen_operand_leaf(rng, depth, out);
        }
        out.push(')');
    } else {
        gen_operand_leaf(rng, depth, out);
    }
}

fn gen_operand_leaf(rng: &mut Rng, depth: usize, out: &mut String) {
    if rng.chance(1, 4) {
        out.push_str(FLOATS[rng.below(FLOATS.len())]);
    } else {
        gen_ref(rng, depth, out);
    }
}

fn gen_ref(rng: &mut Rng, depth: usize, out: &mut String) {
    out.push_str(ARRAYS[rng.below(ARRAYS.len())]);
    if rng.chance(1, 8) {
        return; // scalar reference
    }
    let rank = 1 + rng.below(depth.min(3));
    for _ in 0..rank {
        out.push('[');
        gen_subscript(rng, depth, out);
        out.push(']');
    }
}

fn gen_subscript(rng: &mut Rng, depth: usize, out: &mut String) {
    let d = rng.below(depth);
    // Coefficients stay nonzero and small; a `0*i` term would be an
    // all-zero row the analyses reject, and the dialect has no use for it.
    match rng.below(7) {
        0 => out.push_str(&format!("i{d}")),
        1 => out.push_str(&format!("i{d}+{}", 1 + rng.below(3))),
        2 => out.push_str(&format!("i{d}-{}", 1 + rng.below(3))),
        3 => out.push_str(&format!("{}*i{d}", 2 + rng.below(2))),
        4 => out.push_str(&format!("i{d}*{}", 2 + rng.below(2))),
        5 => out.push_str(&format!("-i{d}+{}", 1 + rng.below(4))),
        _ => {
            // Multi-term affine over two distinct dims when depth allows.
            if depth >= 2 {
                let other = (d + 1 + rng.below(depth - 1)) % depth;
                out.push_str(&format!("i{d}+i{other}"));
            } else {
                out.push_str(&format!("i{d}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        assert_eq!(generate_program(42, &cfg), generate_program(42, &cfg));
        assert_ne!(generate_program(42, &cfg), generate_program(43, &cfg));
    }

    #[test]
    fn generated_programs_parse() {
        let cfg = GenConfig {
            kernels: 3,
            max_depth: 4,
            max_stmts: 3,
            max_expr_terms: 5,
            trivia: true,
        };
        for seed in 0..64 {
            let src = generate_program(seed, &cfg);
            super::super::parse_program(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }
}
