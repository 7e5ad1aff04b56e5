//! Pretty-printing of the affine IR back to the source dialect.
//!
//! `parse(pretty(program))` is the identity on the IR (up to statement
//! FLOP counts, which are recomputed) — the round-trip property is
//! enforced by tests here and a property test in the integration suite.
//! Useful for dumping transformed programs and for golden tests.

use crate::ir::{Kernel, Program, RhsExpr, Statement};
use std::fmt::Write as _;

/// Renders a whole program in the affine dialect.
///
/// # Examples
///
/// ```
/// use eatss_affine::parser::parse_program;
/// use eatss_affine::pretty::pretty_program;
///
/// let src = "kernel axpy(N) { for (i: N) y[i] += a * x[i]; }";
/// let program = parse_program(src)?;
/// let printed = pretty_program(&program);
/// // The printed text re-parses to the same IR.
/// assert_eq!(parse_program(&printed)?, program);
/// # Ok::<(), eatss_affine::parser::ParseError>(())
/// ```
pub fn pretty_program(program: &Program) -> String {
    let mut out = String::new();
    for (i, kernel) in program.kernels.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&pretty_kernel(kernel));
    }
    out
}

/// Renders one kernel.
pub fn pretty_kernel(kernel: &Kernel) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "kernel {}({}) {{",
        kernel.name,
        kernel.params().join(", ")
    );
    let names = kernel.dim_names();
    let mut indent = String::from("  ");
    for dim in &kernel.dims {
        let seq = if dim.explicit_serial { "seq " } else { "" };
        let _ = writeln!(out, "{indent}for {seq}({}: {})", dim.name, dim.extent);
        indent.push_str("  ");
    }
    if kernel.stmts.len() > 1 {
        let _ = writeln!(out, "{indent}{{");
        for s in &kernel.stmts {
            let _ = writeln!(out, "{indent}  {}", pretty_stmt(s, &names));
        }
        let _ = writeln!(out, "{indent}}}");
    } else if let Some(s) = kernel.stmts.first() {
        let _ = writeln!(out, "{indent}{}", pretty_stmt(s, &names));
    }
    out.push_str("}\n");
    out
}

/// Renders one statement.
pub fn pretty_stmt(stmt: &Statement, names: &[String]) -> String {
    let op = if stmt.is_accumulation { "+=" } else { "=" };
    format!(
        "{} {} {};",
        stmt.write.display_with(names),
        op,
        rhs(&stmt.rhs, stmt, names)
    )
}

fn rhs(e: &RhsExpr, stmt: &Statement, names: &[String]) -> String {
    match e {
        RhsExpr::Num(v) => {
            if v.fract() == 0.0 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        RhsExpr::Ref(i) => stmt
            .reads
            .get(*i)
            .map(|r| r.display_with(names))
            .unwrap_or_else(|| "0.0".to_owned()),
        RhsExpr::Bin(op, a, b) => format!("({} {op} {})", rhs(a, stmt, names), rhs(b, stmt, names)),
        RhsExpr::Neg(a) => format!("(-{})", rhs(a, stmt, names)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn roundtrip(src: &str) {
        let program = parse_program(src).expect("original parses");
        let printed = pretty_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed source fails to parse: {e}\n{printed}"));
        assert_eq!(reparsed, program, "round-trip mismatch for:\n{printed}");
    }

    #[test]
    fn roundtrip_matmul() {
        roundtrip(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        );
    }

    #[test]
    fn roundtrip_stencil_with_seq_and_offsets() {
        roundtrip(
            "kernel jac(T, N) {
               for seq (t: T) for (i: N) for (j: N)
                 B[i][j] = 0.2 * (A[i][j] + A[i][j-1] + A[i][j+1]);
             }",
        );
    }

    #[test]
    fn roundtrip_multi_kernel_multi_stmt() {
        roundtrip(
            "kernel a(N) {
               for (i: N) {
                 X[i] = Y[i] + 1.0;
                 Z[i] = X[i] * 2.0;
               }
             }
             kernel b(N, M) {
               for (i: N) for (j: M) W[i][j] += V[j][i] / 3.0;
             }",
        );
    }

    #[test]
    fn roundtrip_every_registered_shape() {
        // Coefficients, scalars, negation, constant extents.
        roundtrip("kernel s(N) { for (i: N) A[2*i+1] = -B[i] + alpha * C[3]; }");
        roundtrip("kernel c() { for (i: 64) A[i] = B[i]; }");
    }

    #[test]
    fn pretty_kernel_shape() {
        let p =
            parse_program("kernel mm(M, N) { for (i: M) for (j: N) C[i][j] += A[i][j]; }").unwrap();
        let text = pretty_kernel(&p.kernels[0]);
        assert!(text.starts_with("kernel mm(M, N) {"));
        assert!(text.contains("for (i: M)"));
        assert!(text.contains("C[i][j] += A[i][j];"));
        assert!(text.trim_end().ends_with('}'));
    }
}
