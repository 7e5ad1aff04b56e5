//! Parser for a small affine-C dialect.
//!
//! All benchmark kernels in the reproduction are declared in this dialect,
//! which captures exactly the program fragment EATSS and PPCG reason about:
//! perfectly nested loops with affine subscripts.
//!
//! ```text
//! program := kernel+
//! kernel  := "kernel" IDENT "(" IDENT ("," IDENT)* ")" "{" loop "}"
//! loop    := "for" ["seq"] "(" IDENT ":" extent ")" body
//! extent  := IDENT | INT
//! body    := loop | "{" stmt+ "}" | stmt
//! stmt    := ref ("=" | "+=") expr ";"
//! ref     := IDENT ("[" affine "]")*
//! affine  := ["-"] aterm (("+" | "-") aterm)*
//! aterm   := INT ["*" IDENT] | IDENT ["*" INT]
//! expr    := unary (("+" | "-" | "*" | "/") unary)*
//! unary   := ["-"] (ref | NUMBER | "(" expr ")")
//! ```
//!
//! `for seq (t: T)` marks a loop as serial — used for stencil time loops,
//! whose inter-statement carried dependences the single-nest IR does not
//! represent (see DESIGN.md).
//!
//! # Engine architecture (DESIGN.md §16)
//!
//! The default engine is a single-pass, zero-copy parser:
//!
//! * the lexer produces **span tokens** — a kind plus a byte range over
//!   the input `&str`; no per-token heap allocation, numbers are decoded
//!   only when a grammar position consumes them;
//! * identifiers are **interned** (`intern`) into `u32` symbols, with
//!   the contextual keywords `kernel`/`for`/`seq` pre-interned by
//!   length/byte dispatch, so every hot name comparison (keyword checks,
//!   duplicate iterators, dimension lookups) is a `u32` equality;
//! * right-hand-side expressions are built in a per-kernel **arena** of
//!   `Copy` nodes and lowered to the boxed [`RhsExpr`] IR only when the
//!   kernel is complete;
//! * errors carry **byte offsets** internally; line/column are computed
//!   by a single scan only on the error path, and the caret snippet of
//!   [`render_snippet`] is rendered only on display.
//!
//! The retired tokenize-everything engine survives as [`mod@reference`];
//! differential property tests pin this engine to it — identical
//! [`Program`] IR on every accepted input and identical [`ParseError`]
//! positions and messages on every rejected one (including the baseline's
//! lex-errors-win-over-parse-errors ordering, restored on the cold path
//! by a lex-only sweep).

pub mod gen;
mod intern;
pub mod reference;

use crate::ir::{AffineExpr, ArrayRef, Extent, Kernel, LoopDim, Program, RhsExpr, Statement};
use intern::{Interner, KW_FOR, KW_KERNEL, KW_SEQ};
use std::error::Error;
use std::fmt;

/// Maximum parenthesis nesting inside one right-hand-side expression.
/// Untrusted `source` requests (`eatss-serve`) reach this parser; a
/// bounded recursion depth turns `((((…))))` from a stack overflow into
/// a positioned [`ParseError`].
pub const MAX_EXPR_DEPTH: usize = 64;

/// Maximum loop-nest depth, for the same reason as [`MAX_EXPR_DEPTH`].
/// Real affine kernels are ≤ 5 deep; 64 is far beyond anything the
/// tiling machinery could use.
pub const MAX_LOOP_DEPTH: usize = 64;

/// A parse failure with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl Error for ParseError {}

/// Renders a rich diagnostic for `err`: the error line followed by the
/// offending source line and a caret under the reported column.
///
/// Kept separate from [`ParseError`] (which stays a plain
/// line/col/message value) so the snippet is built only when a human
/// actually sees the error — parse-and-discard paths (the serve cache,
/// differential tests) never pay for it.
///
/// # Examples
///
/// ```
/// use eatss_affine::parser::{parse_program, render_snippet};
///
/// let src = "kernel f(N) {\n  for (i: N) A[i] $ B[i];\n}";
/// let err = parse_program(src).unwrap_err();
/// let snippet = render_snippet(src, &err);
/// assert!(snippet.contains("  for (i: N) A[i] $ B[i];"));
/// assert!(snippet.lines().last().unwrap().ends_with('^'));
/// ```
pub fn render_snippet(src: &str, err: &ParseError) -> String {
    let line_text = src.lines().nth(err.line.saturating_sub(1)).unwrap_or("");
    let mut out = format!("{err}\n  {line_text}\n  ");
    for _ in 1..err.col {
        out.push(' ');
    }
    out.push('^');
    out
}

/// 1-based line/column of a byte offset — computed lazily, only when an
/// error is actually materialized. Columns count bytes from the line
/// start, exactly like the reference lexer's eager per-byte tracking.
fn position(src: &str, offset: usize) -> (usize, usize) {
    let prefix = &src.as_bytes()[..offset.min(src.len())];
    let line = 1 + prefix.iter().filter(|&&b| b == b'\n').count();
    let line_start = prefix
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    (line, offset - line_start + 1)
}

/// Internal error carrying a byte offset; converted to a line/column
/// [`ParseError`] only at the public API boundary.
struct RawError {
    offset: usize,
    message: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TokKind {
    /// Interned identifier symbol.
    Ident(u32),
    /// Integer literal; decoded from its span on demand.
    Int,
    /// Float literal; decoded from its span on demand.
    Float,
    /// Single-byte punctuation, carrying the byte itself.
    Punct(u8),
    /// The only two-byte punctuator, `+=`.
    PlusEq,
    Eof,
}

/// A span token: kind plus byte range over the input. 12 bytes, `Copy`,
/// no heap — the whole point of the rewrite.
#[derive(Clone, Copy)]
struct Token {
    kind: TokKind,
    start: u32,
    end: u32,
}

/// Arena node for right-hand-side expressions: `Copy`, indexed by `u32`
/// into [`FastParser::arena`], lowered to the boxed [`RhsExpr`] IR at
/// kernel end.
#[derive(Clone, Copy)]
enum ANode {
    Num(f64),
    Ref(u32),
    Bin(u8, u32, u32),
    Neg(u32),
}

/// A statement parsed into arena form; lowered at kernel end.
struct RawStmt {
    write: ArrayRef,
    reads: Vec<ArrayRef>,
    root: u32,
    is_accumulation: bool,
    flops: u32,
}

struct FastParser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    /// Lex cursor (bytes consumed, including the lookahead token).
    pos: usize,
    /// Single-token lookahead — the "current token" everywhere below,
    /// mirroring the reference parser's `tokens[idx]`.
    tok: Token,
    interner: Interner<'a>,
    /// Per-kernel expression arena, cleared after each kernel lowers.
    arena: Vec<ANode>,
}

impl<'a> FastParser<'a> {
    fn new(src: &'a str) -> Result<Self, RawError> {
        let mut p = FastParser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            tok: Token {
                kind: TokKind::Eof,
                start: 0,
                end: 0,
            },
            interner: Interner::new(),
            arena: Vec::new(),
        };
        p.tok = p.lex()?;
        Ok(p)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.bytes.get(self.pos) {
                Some(c) if c.is_ascii_whitespace() => self.pos += 1,
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(&c) = self.bytes.get(self.pos) {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn lex(&mut self) -> Result<Token, RawError> {
        self.skip_trivia();
        let start = self.pos;
        let Some(&c) = self.bytes.get(self.pos) else {
            return Ok(Token {
                kind: TokKind::Eof,
                start: start as u32,
                end: start as u32,
            });
        };
        if c.is_ascii_alphabetic() || c == b'_' {
            self.pos += 1;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
            {
                self.pos += 1;
            }
            let text = &self.src[start..self.pos];
            // Contextual keywords by length/byte dispatch: fixed low
            // symbols, so keyword checks downstream are u32 compares.
            let sym = match text.len() {
                3 if text == "for" => KW_FOR,
                3 if text == "seq" => KW_SEQ,
                6 if text == "kernel" => KW_KERNEL,
                _ => self.interner.intern(text),
            };
            return Ok(Token {
                kind: TokKind::Ident(sym),
                start: start as u32,
                end: self.pos as u32,
            });
        }
        if c.is_ascii_digit() {
            let mut is_float = false;
            while let Some(&c) = self.bytes.get(self.pos) {
                if c.is_ascii_digit() {
                    self.pos += 1;
                } else if c == b'.'
                    && !is_float
                    && self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_float = true;
                    self.pos += 1;
                } else {
                    break;
                }
            }
            return Ok(Token {
                kind: if is_float { TokKind::Float } else { TokKind::Int },
                start: start as u32,
                end: self.pos as u32,
            });
        }
        if c == b'+' && self.bytes.get(self.pos + 1) == Some(&b'=') {
            self.pos += 2;
            return Ok(Token {
                kind: TokKind::PlusEq,
                start: start as u32,
                end: self.pos as u32,
            });
        }
        match c {
            b'(' | b')' | b'{' | b'}' | b'[' | b']' | b',' | b';' | b':' | b'=' | b'+' | b'-'
            | b'*' | b'/' => {
                self.pos += 1;
                Ok(Token {
                    kind: TokKind::Punct(c),
                    start: start as u32,
                    end: self.pos as u32,
                })
            }
            other => Err(RawError {
                offset: start,
                message: format!("unexpected character `{}`", other as char),
            }),
        }
    }

    fn text(&self, t: Token) -> &'a str {
        &self.src[t.start as usize..t.end as usize]
    }

    /// Decodes an integer literal at its use site. The reference engine
    /// decodes eagerly during tokenization; position and message match.
    fn decode_int(&self, t: Token) -> Result<i64, RawError> {
        let text = self.text(t);
        text.parse().map_err(|_| RawError {
            offset: t.start as usize,
            message: format!("invalid integer literal `{text}`"),
        })
    }

    /// `DIGITS "." DIGITS` always decodes (overlong literals round to
    /// infinity, exactly like the reference's eager `str::parse`).
    fn decode_float(&self, t: Token) -> f64 {
        self.text(t).parse().unwrap_or(f64::INFINITY)
    }

    /// How a token prints inside "found …" messages — identical to the
    /// reference `Tok` display, which shows *decoded* numbers. For an
    /// undecodable integer the raw text stands in; the error carrying it
    /// is always superseded by the lex-sweep error on the cold path.
    fn tok_display(&self, t: Token) -> String {
        match t.kind {
            TokKind::Ident(sym) => format!("`{}`", self.interner.resolve(sym)),
            TokKind::Int => match self.text(t).parse::<i64>() {
                Ok(v) => format!("`{v}`"),
                Err(_) => format!("`{}`", self.text(t)),
            },
            TokKind::Float => format!("`{}`", self.decode_float(t)),
            TokKind::Punct(c) => format!("`{}`", c as char),
            TokKind::PlusEq => "`+=`".to_owned(),
            TokKind::Eof => "end of input".to_owned(),
        }
    }

    /// Errors at the *current* token's position — the same rule as the
    /// reference `err()`, including its after-`bump` quirks.
    fn err(&self, message: impl Into<String>) -> RawError {
        RawError {
            offset: self.tok.start as usize,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Result<Token, RawError> {
        let t = self.tok;
        if t.kind != TokKind::Eof {
            self.tok = self.lex()?;
        }
        Ok(t)
    }

    fn eat_punct(&mut self, p: u8) -> Result<(), RawError> {
        if self.tok.kind == TokKind::Punct(p) {
            self.bump()?;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                p as char,
                self.tok_display(self.tok)
            )))
        }
    }

    fn try_punct(&mut self, p: u8) -> Result<bool, RawError> {
        if self.tok.kind == TokKind::Punct(p) {
            self.bump()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn eat_ident(&mut self) -> Result<u32, RawError> {
        match self.tok.kind {
            TokKind::Ident(sym) => {
                self.bump()?;
                Ok(sym)
            }
            _ => Err(self.err(format!(
                "expected identifier, found {}",
                self.tok_display(self.tok)
            ))),
        }
    }

    fn eat_keyword(&mut self, sym: u32, kw: &str) -> Result<(), RawError> {
        if self.tok.kind == TokKind::Ident(sym) {
            self.bump()?;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected keyword `{kw}`, found {}",
                self.tok_display(self.tok)
            )))
        }
    }

    fn at_keyword(&self, sym: u32) -> bool {
        self.tok.kind == TokKind::Ident(sym)
    }

    fn name(&self, sym: u32) -> String {
        self.interner.resolve(sym).to_owned()
    }

    fn node(&mut self, n: ANode) -> u32 {
        self.arena.push(n);
        (self.arena.len() - 1) as u32
    }

    fn parse_program(&mut self, name: &str) -> Result<Program, RawError> {
        let mut kernels: Vec<Kernel> = Vec::new();
        let mut taken: Vec<u32> = Vec::new();
        while self.tok.kind != TokKind::Eof {
            let (sym, kernel) = self.parse_kernel(&taken)?;
            taken.push(sym);
            kernels.push(kernel);
        }
        if kernels.is_empty() {
            return Err(self.err("expected at least one `kernel` declaration"));
        }
        Ok(Program {
            name: name.to_owned(),
            kernels,
        })
    }

    fn parse_kernel(&mut self, taken: &[u32]) -> Result<(u32, Kernel), RawError> {
        self.eat_keyword(KW_KERNEL, "kernel")?;
        let name_tok = self.tok;
        let name_sym = self.eat_ident()?;
        // Downstream lookups are name-keyed (execution plans, verify
        // batches, serve requests); a duplicate would silently shadow
        // one of the nests. Symbol equality makes this a u32 scan.
        if taken.contains(&name_sym) {
            return Err(RawError {
                offset: name_tok.start as usize,
                message: format!("duplicate kernel name `{}`", self.interner.resolve(name_sym)),
            });
        }
        self.eat_punct(b'(')?;
        let mut params: Vec<u32> = Vec::new();
        if self.tok.kind != TokKind::Punct(b')') {
            loop {
                params.push(self.eat_ident()?);
                if !self.try_punct(b',')? {
                    break;
                }
            }
        }
        self.eat_punct(b')')?;
        self.eat_punct(b'{')?;
        let mut dims: Vec<LoopDim> = Vec::new();
        let mut dim_syms: Vec<u32> = Vec::new();
        let raw_stmts = self.parse_loop(&params, &mut dims, &mut dim_syms)?;
        self.eat_punct(b'}')?;
        // IR construction at the end: lower every statement's arena
        // expression into the boxed RhsExpr tree, then recycle the arena.
        let stmts = raw_stmts.into_iter().map(|rs| self.lower_stmt(rs)).collect();
        self.arena.clear();
        Ok((
            name_sym,
            Kernel {
                name: self.name(name_sym),
                dims,
                stmts,
            },
        ))
    }

    fn parse_loop(
        &mut self,
        params: &[u32],
        dims: &mut Vec<LoopDim>,
        dim_syms: &mut Vec<u32>,
    ) -> Result<Vec<RawStmt>, RawError> {
        if dims.len() >= MAX_LOOP_DEPTH {
            return Err(self.err(format!("loop nesting exceeds {MAX_LOOP_DEPTH} levels")));
        }
        self.eat_keyword(KW_FOR, "for")?;
        let explicit_serial = if self.at_keyword(KW_SEQ) {
            self.bump()?;
            true
        } else {
            false
        };
        self.eat_punct(b'(')?;
        let iter = self.eat_ident()?;
        if dim_syms.contains(&iter) {
            return Err(self.err(format!(
                "duplicate loop iterator `{}`",
                self.interner.resolve(iter)
            )));
        }
        if params.contains(&iter) {
            return Err(self.err(format!(
                "loop iterator `{}` shadows a problem-size parameter",
                self.interner.resolve(iter)
            )));
        }
        self.eat_punct(b':')?;
        let ext = self.bump()?;
        let extent = match ext.kind {
            TokKind::Int => Extent::Const(self.decode_int(ext)?),
            TokKind::Ident(p) => {
                if !params.contains(&p) {
                    return Err(self.err(format!(
                        "unknown extent parameter `{}`",
                        self.interner.resolve(p)
                    )));
                }
                Extent::Param(self.name(p))
            }
            _ => {
                return Err(self.err(format!(
                    "expected loop extent, found {}",
                    self.tok_display(ext)
                )))
            }
        };
        self.eat_punct(b')')?;
        dims.push(LoopDim {
            name: self.name(iter),
            extent,
            explicit_serial,
        });
        dim_syms.push(iter);
        // body
        if self.at_keyword(KW_FOR) {
            return self.parse_loop(params, dims, dim_syms);
        }
        if self.try_punct(b'{')? {
            if self.at_keyword(KW_FOR) {
                return Err(self.err(
                    "imperfectly nested loops are not supported: a braced body must \
                     contain statements only",
                ));
            }
            let mut stmts = Vec::new();
            while self.tok.kind != TokKind::Punct(b'}') {
                stmts.push(self.parse_stmt(dim_syms)?);
            }
            self.eat_punct(b'}')?;
            if stmts.is_empty() {
                return Err(self.err("loop body has no statements"));
            }
            Ok(stmts)
        } else {
            Ok(vec![self.parse_stmt(dim_syms)?])
        }
    }

    fn parse_stmt(&mut self, dim_syms: &[u32]) -> Result<RawStmt, RawError> {
        let write = self.parse_ref(dim_syms)?;
        let is_accumulation = if self.try_plus_eq()? {
            true
        } else {
            self.eat_punct(b'=')?;
            false
        };
        let mut reads = Vec::new();
        let mut flops = u32::from(is_accumulation);
        let root = self.parse_expr(dim_syms, &mut reads, &mut flops, 0)?;
        self.eat_punct(b';')?;
        Ok(RawStmt {
            write,
            reads,
            root,
            is_accumulation,
            flops,
        })
    }

    fn try_plus_eq(&mut self) -> Result<bool, RawError> {
        if self.tok.kind == TokKind::PlusEq {
            self.bump()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// expr := unary (binop unary)*  (left-associative, no precedence —
    /// adequate for rendering the benchmark kernels' bodies)
    fn parse_expr(
        &mut self,
        dim_syms: &[u32],
        reads: &mut Vec<ArrayRef>,
        flops: &mut u32,
        depth: usize,
    ) -> Result<u32, RawError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.err(format!("expression nesting exceeds {MAX_EXPR_DEPTH} levels")));
        }
        let mut lhs = self.parse_unary(dim_syms, reads, flops, depth)?;
        loop {
            let op = match self.tok.kind {
                TokKind::Punct(c @ (b'+' | b'-' | b'*' | b'/')) => c,
                _ => return Ok(lhs),
            };
            self.bump()?;
            *flops += 1;
            let rhs = self.parse_unary(dim_syms, reads, flops, depth)?;
            lhs = self.node(ANode::Bin(op, lhs, rhs));
        }
    }

    fn parse_unary(
        &mut self,
        dim_syms: &[u32],
        reads: &mut Vec<ArrayRef>,
        flops: &mut u32,
        depth: usize,
    ) -> Result<u32, RawError> {
        let negated = self.try_punct(b'-')?;
        let inner = match self.tok.kind {
            TokKind::Int => {
                let t = self.bump()?;
                let v = self.decode_int(t)?;
                self.node(ANode::Num(v as f64))
            }
            TokKind::Float => {
                let t = self.bump()?;
                let v = self.decode_float(t);
                self.node(ANode::Num(v))
            }
            TokKind::Punct(b'(') => {
                self.bump()?;
                let e = self.parse_expr(dim_syms, reads, flops, depth + 1)?;
                self.eat_punct(b')')?;
                e
            }
            TokKind::Ident(_) => {
                let r = self.parse_ref(dim_syms)?;
                reads.push(r);
                self.node(ANode::Ref((reads.len() - 1) as u32))
            }
            _ => {
                return Err(self.err(format!(
                    "expected operand, found {}",
                    self.tok_display(self.tok)
                )))
            }
        };
        Ok(if negated {
            self.node(ANode::Neg(inner))
        } else {
            inner
        })
    }

    fn parse_ref(&mut self, dim_syms: &[u32]) -> Result<ArrayRef, RawError> {
        let array = self.eat_ident()?;
        let mut subscripts = Vec::new();
        while self.try_punct(b'[')? {
            subscripts.push(self.parse_affine(dim_syms)?);
            self.eat_punct(b']')?;
        }
        Ok(ArrayRef {
            array: self.name(array),
            subscripts,
        })
    }

    /// affine := ["-"] aterm (("+"|"-") aterm)*
    fn parse_affine(&mut self, dim_syms: &[u32]) -> Result<AffineExpr, RawError> {
        let mut expr = AffineExpr::constant(0);
        let mut sign: i64 = if self.try_punct(b'-')? { -1 } else { 1 };
        loop {
            self.parse_aterm(dim_syms, sign, &mut expr)?;
            if self.try_punct(b'+')? {
                sign = 1;
            } else if self.try_punct(b'-')? {
                sign = -1;
            } else {
                return Ok(expr);
            }
        }
    }

    /// aterm := INT ["*" IDENT] | IDENT ["*" INT]
    fn parse_aterm(
        &mut self,
        dim_syms: &[u32],
        sign: i64,
        expr: &mut AffineExpr,
    ) -> Result<(), RawError> {
        let t = self.bump()?;
        match t.kind {
            TokKind::Int => {
                let v = self.decode_int(t)?;
                if self.try_punct(b'*')? {
                    let name = self.eat_ident()?;
                    let dim = self.lookup_dim(dim_syms, name)?;
                    expr.add_term(dim, sign * v);
                } else {
                    expr.add_constant(sign * v);
                }
                Ok(())
            }
            TokKind::Ident(name) => {
                let dim = self.lookup_dim(dim_syms, name)?;
                if self.try_punct(b'*')? {
                    let ct = self.bump()?;
                    match ct.kind {
                        TokKind::Int => expr.add_term(dim, sign * self.decode_int(ct)?),
                        _ => {
                            return Err(self.err(format!(
                                "expected integer coefficient, found {}",
                                self.tok_display(ct)
                            )))
                        }
                    }
                } else {
                    expr.add_term(dim, sign);
                }
                Ok(())
            }
            _ => Err(self.err(format!(
                "expected affine term, found {}",
                self.tok_display(t)
            ))),
        }
    }

    fn lookup_dim(&self, dim_syms: &[u32], name: u32) -> Result<usize, RawError> {
        dim_syms.iter().position(|&d| d == name).ok_or_else(|| {
            self.err(format!(
                "`{}` is not a loop iterator in scope (subscripts must be \
                 affine in the iterators)",
                self.interner.resolve(name)
            ))
        })
    }

    fn lower_stmt(&self, rs: RawStmt) -> Statement {
        Statement {
            rhs: self.lower(rs.root),
            write: rs.write,
            reads: rs.reads,
            is_accumulation: rs.is_accumulation,
            flops: rs.flops,
        }
    }

    fn lower(&self, id: u32) -> RhsExpr {
        match self.arena[id as usize] {
            ANode::Num(v) => RhsExpr::Num(v),
            ANode::Ref(i) => RhsExpr::Ref(i as usize),
            ANode::Bin(op, a, b) => {
                RhsExpr::Bin(op as char, Box::new(self.lower(a)), Box::new(self.lower(b)))
            }
            ANode::Neg(a) => RhsExpr::Neg(Box::new(self.lower(a))),
        }
    }
}

/// Lex-only sweep over the whole input: the first lex-level error, if
/// any. The reference engine tokenizes everything before parsing, so a
/// lex error anywhere wins over any parse error; the single-pass engine
/// restores that ordering here — on the error path only.
fn lex_scan(src: &str) -> Option<RawError> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    loop {
        loop {
            match bytes.get(pos) {
                Some(c) if c.is_ascii_whitespace() => pos += 1,
                Some(b'/') if bytes.get(pos + 1) == Some(&b'/') => {
                    while let Some(&c) = bytes.get(pos) {
                        if c == b'\n' {
                            break;
                        }
                        pos += 1;
                    }
                }
                _ => break,
            }
        }
        let start = pos;
        let &c = bytes.get(pos)?;
        if c.is_ascii_alphabetic() || c == b'_' {
            pos += 1;
            while bytes
                .get(pos)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
            {
                pos += 1;
            }
        } else if c.is_ascii_digit() {
            let mut is_float = false;
            while let Some(&c) = bytes.get(pos) {
                if c.is_ascii_digit() {
                    pos += 1;
                } else if c == b'.' && !is_float && bytes.get(pos + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_float = true;
                    pos += 1;
                } else {
                    break;
                }
            }
            let text = &src[start..pos];
            if !is_float && text.parse::<i64>().is_err() {
                return Some(RawError {
                    offset: start,
                    message: format!("invalid integer literal `{text}`"),
                });
            }
        } else if c == b'+' && bytes.get(pos + 1) == Some(&b'=') {
            pos += 2;
        } else if matches!(
            c,
            b'(' | b')'
                | b'{'
                | b'}'
                | b'['
                | b']'
                | b','
                | b';'
                | b':'
                | b'='
                | b'+'
                | b'-'
                | b'*'
                | b'/'
        ) {
            pos += 1;
        } else {
            return Some(RawError {
                offset: start,
                message: format!("unexpected character `{}`", c as char),
            });
        }
    }
}

/// Converts an internal failure into the public [`ParseError`]: a lex
/// error anywhere in the input supersedes the parse error (matching the
/// reference's tokenize-first ordering), then line/column are computed
/// in one scan.
fn finish_err(src: &str, parse_err: RawError) -> ParseError {
    let raw = lex_scan(src).unwrap_or(parse_err);
    let (line, col) = position(src, raw.offset);
    ParseError {
        line,
        col,
        message: raw.message,
    }
}

fn parse_with(name: Option<&str>, src: &str) -> Result<Program, ParseError> {
    eatss_trace::counter_add("parse.bytes", src.len() as u64);
    let mut parser = match FastParser::new(src) {
        Ok(p) => p,
        Err(e) => return Err(finish_err(src, e)),
    };
    match parser.parse_program(name.unwrap_or("")) {
        Ok(mut program) => {
            if name.is_none() {
                program.name = program.kernels[0].name.clone();
            }
            Ok(program)
        }
        Err(e) => Err(finish_err(src, e)),
    }
}

/// Parses a program from source; the program name is derived from the
/// first kernel's name.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input.
///
/// # Examples
///
/// ```
/// use eatss_affine::parser::parse_program;
///
/// let p = parse_program("kernel axpy(N) { for (i: N) y[i] += a * x[i]; }")?;
/// assert_eq!(p.name, "axpy");
/// assert_eq!(p.kernels[0].depth(), 1);
/// # Ok::<(), eatss_affine::parser::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_with(None, src)
}

/// Parses a program and overrides its name.
///
/// # Errors
///
/// Same conditions as [`parse_program`].
pub fn parse_named_program(name: &str, src: &str) -> Result<Program, ParseError> {
    parse_with(Some(name), src)
}

/// Parses a batch of `(name, source)` pairs, optionally in parallel on
/// [`eatss_trace::par_map_ordered`], returning per-input results in input
/// order.
///
/// Determinism contract (same as the PR 2 sweep pool): each input is
/// parsed independently with [`parse_named_program`] and results merge
/// by index, so `jobs = N` is **bit-identical** to `jobs = 1` — asserted
/// by `parse_files_identity` in the affine test suite and by the
/// `parse-smoke` CI job's `cmp` over `eatss --kernel-dir` output.
///
/// `jobs = 0` uses all available cores.
pub fn parse_files(
    sources: &[(String, String)],
    jobs: usize,
) -> Vec<Result<Program, ParseError>> {
    let jobs = match jobs {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    eatss_trace::par_map_ordered(sources, jobs, |(name, src)| parse_named_program(name, src))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_matmul() {
        let p = parse_program(
            "kernel matmul(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 Out[i][j] += In[i][k] * Ker[k][j];
             }",
        )
        .unwrap();
        let k = &p.kernels[0];
        assert_eq!(k.name, "matmul");
        assert_eq!(k.depth(), 3);
        assert_eq!(k.dims[0].name, "i");
        assert_eq!(k.dims[2].extent, Extent::Param("P".into()));
        let s = &k.stmts[0];
        assert!(s.is_accumulation);
        assert_eq!(s.flops, 2);
        assert_eq!(s.write.array, "Out");
        assert_eq!(s.reads.len(), 2);
        assert_eq!(s.reads[0].subscripts[1], AffineExpr::var(2));
    }

    #[test]
    fn parses_stencil_with_offsets_and_floats() {
        let p = parse_program(
            "kernel jacobi(N) {
               for (i: N) for (j: N)
                 B[i][j] = 0.2 * (A[i][j] + A[i][j-1] + A[i][j+1] + A[i+1][j] + A[i-1][j]);
             }",
        )
        .unwrap();
        let s = &p.kernels[0].stmts[0];
        assert!(!s.is_accumulation);
        assert_eq!(s.reads.len(), 5);
        assert_eq!(s.reads[1].subscripts[1].offset(), -1);
        assert_eq!(s.reads[4].subscripts[0].offset(), -1);
        assert_eq!(s.flops, 5); // one mul + four adds
    }

    #[test]
    fn parses_seq_loop_marker() {
        let p = parse_program(
            "kernel heat(T, N) {
               for seq (t: T) for (i: N)
                 A[i] = A[i-1] + A[i+1];
             }",
        )
        .unwrap();
        assert!(p.kernels[0].dims[0].explicit_serial);
        assert!(!p.kernels[0].dims[1].explicit_serial);
    }

    #[test]
    fn parses_multiple_kernels_and_blocks() {
        let p = parse_named_program(
            "2mm",
            "kernel mm1(NI, NJ, NK) {
               for (i: NI) for (j: NJ) for (k: NK)
                 tmp[i][j] += alpha * A[i][k] * B[k][j];
             }
             kernel mm2(NI, NL, NJ) {
               for (i: NI) for (j: NL) for (k: NJ) {
                 D[i][j] += tmp[i][k] * C[k][j];
               }
             }",
        )
        .unwrap();
        assert_eq!(p.name, "2mm");
        assert_eq!(p.kernels.len(), 2);
        // `alpha` is a scalar read.
        assert!(p.kernels[0].stmts[0].reads[0].subscripts.is_empty());
    }

    #[test]
    fn parses_coefficient_subscripts() {
        let p = parse_program(
            "kernel strided(N) {
               for (i: N) A[2*i] = B[i*3+1] + B[4];
             }",
        )
        .unwrap();
        let s = &p.kernels[0].stmts[0];
        assert_eq!(s.write.subscripts[0].coeff(0), 2);
        assert_eq!(s.reads[0].subscripts[0].coeff(0), 3);
        assert_eq!(s.reads[0].subscripts[0].offset(), 1);
        assert_eq!(s.reads[1].subscripts[0].offset(), 4);
    }

    #[test]
    fn parses_negative_leading_subscript() {
        let p = parse_program("kernel f(N) { for (i: N) A[-i+5] = B[i]; }").unwrap();
        let sub = &p.kernels[0].stmts[0].write.subscripts[0];
        assert_eq!(sub.coeff(0), -1);
        assert_eq!(sub.offset(), 5);
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program(
            "// leading comment
             kernel f(N) { // trailing
               for (i: N) A[i] = B[i]; // stmt
             }",
        )
        .unwrap();
        assert_eq!(p.kernels[0].stmts.len(), 1);
    }

    #[test]
    fn error_on_unknown_iterator_in_subscript() {
        let e = parse_program("kernel f(N) { for (i: N) A[z] = B[i]; }").unwrap_err();
        assert!(e.message.contains("`z`"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn error_on_unknown_extent() {
        let e = parse_program("kernel f(N) { for (i: M) A[i] = B[i]; }").unwrap_err();
        assert!(e.message.contains("unknown extent parameter `M`"));
    }

    #[test]
    fn error_on_duplicate_iterator() {
        let e =
            parse_program("kernel f(N) { for (i: N) for (i: N) A[i] = B[i]; }").unwrap_err();
        assert!(e.message.contains("duplicate loop iterator"));
    }

    #[test]
    fn error_on_duplicate_kernel_name() {
        let e = parse_program(
            "kernel f(N) { for (i: N) A[i] = B[i]; }\n\
             kernel f(M) { for (j: M) C[j] = D[j]; }",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate kernel name `f`"), "{e:?}");
        // Positioned at the second `f`, line 2.
        assert_eq!(e.line, 2);
        // Distinct names in one program stay legal.
        let p = parse_program(
            "kernel f(N) { for (i: N) A[i] = B[i]; }\n\
             kernel g(N) { for (i: N) A[i] = B[i]; }",
        )
        .unwrap();
        assert_eq!(p.kernels.len(), 2);
    }

    #[test]
    fn error_on_imperfect_nest() {
        let e = parse_program(
            "kernel f(N) { for (i: N) { for (j: N) A[i][j] = B[i][j]; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("imperfectly nested"));
    }

    #[test]
    fn error_on_empty_body_and_empty_program() {
        assert!(parse_program("kernel f(N) { for (i: N) { } }").is_err());
        assert!(parse_program("   ").is_err());
    }

    #[test]
    fn error_reports_position() {
        let e = parse_program("kernel f(N) {\n  for (i: N)\n    A[i] $ B[i];\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unexpected character"));
    }

    #[test]
    fn const_extent_is_allowed() {
        let p = parse_program("kernel f() { for (i: 128) A[i] = B[i]; }").unwrap();
        assert_eq!(p.kernels[0].dims[0].extent, Extent::Const(128));
    }

    #[test]
    fn iterator_shadowing_parameter_is_rejected() {
        let e = parse_program("kernel f(N) { for (N: N) A[N] = B[N]; }").unwrap_err();
        assert!(e.message.contains("shadows"));
    }

    #[test]
    fn division_counts_as_flop() {
        let p = parse_program("kernel f(N) { for (i: N) A[i] = B[i] / 3 + 1; }").unwrap();
        assert_eq!(p.kernels[0].stmts[0].flops, 2);
    }

    #[test]
    fn keywords_are_contextual_identifiers() {
        // `for`, `seq` and `kernel` are pre-interned symbols but remain
        // ordinary identifiers in non-keyword positions — exactly like
        // the reference's string comparisons.
        let p = parse_program("kernel seq(N) { for (i: N) kernel[i] = for_[i]; }").unwrap();
        assert_eq!(p.kernels[0].name, "seq");
        assert_eq!(p.kernels[0].stmts[0].write.array, "kernel");
    }

    #[test]
    fn lex_error_after_parse_error_wins() {
        // The reference tokenizes everything up front, so the `$` on
        // line 2 is reported even though the parse already failed at the
        // `=` on line 1. The single-pass engine must match.
        let src = "kernel = (N) { for (i: N) A[i] = B[i]; }\n$";
        let fast = parse_program(src).unwrap_err();
        let base = reference::parse_program(src).unwrap_err();
        assert_eq!(fast, base);
        assert!(fast.message.contains("unexpected character `$`"));
        assert_eq!(fast.line, 2);
    }

    #[test]
    fn overflowing_integer_literal_is_a_positioned_error() {
        let src = "kernel f(N) { for (i: N) A[i] = B[99999999999999999999]; }";
        let fast = parse_program(src).unwrap_err();
        let base = reference::parse_program(src).unwrap_err();
        assert_eq!(fast, base);
        assert!(fast.message.contains("invalid integer literal"));
    }

    #[test]
    fn expression_depth_is_limited_with_position() {
        let nest = |n: usize| {
            format!(
                "kernel f(N) {{ for (i: N) A[i] = {}B[i]{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        // At the limit: fine.
        assert!(parse_program(&nest(MAX_EXPR_DEPTH)).is_ok());
        // One over: positioned error, identical in both engines.
        let fast = parse_program(&nest(MAX_EXPR_DEPTH + 1)).unwrap_err();
        let base = reference::parse_program(&nest(MAX_EXPR_DEPTH + 1)).unwrap_err();
        assert_eq!(fast, base);
        assert!(fast.message.contains("expression nesting exceeds"));
        assert_eq!(fast.line, 1);
    }

    #[test]
    fn loop_depth_is_limited_with_position() {
        let nest = |n: usize| {
            let mut src = String::from("kernel f(N) { ");
            for d in 0..n {
                src.push_str(&format!("for (i{d}: 8) "));
            }
            src.push_str("A[i0] = B[i0]; }");
            src
        };
        assert!(parse_program(&nest(MAX_LOOP_DEPTH)).is_ok());
        let fast = parse_program(&nest(MAX_LOOP_DEPTH + 1)).unwrap_err();
        let base = reference::parse_program(&nest(MAX_LOOP_DEPTH + 1)).unwrap_err();
        assert_eq!(fast, base);
        assert!(fast.message.contains("loop nesting exceeds"));
    }

    #[test]
    fn snippet_renders_source_line_and_caret() {
        let src = "kernel f(N) {\n  for (i: N)\n    A[i] $ B[i];\n}";
        let err = parse_program(src).unwrap_err();
        let snippet = render_snippet(src, &err);
        let lines: Vec<&str> = snippet.lines().collect();
        assert_eq!(lines[1], "      A[i] $ B[i];");
        // Caret under the `$` (col 10 of the trimmed-as-is line).
        assert_eq!(lines[2], format!("  {}^", " ".repeat(err.col - 1)));
    }

    #[test]
    fn parse_files_preserves_order_and_errors() {
        let sources = vec![
            (
                "good".to_owned(),
                "kernel g(N) { for (i: N) A[i] = B[i]; }".to_owned(),
            ),
            ("bad".to_owned(), "kernel ???".to_owned()),
        ];
        for jobs in [1, 4] {
            let results = parse_files(&sources, jobs);
            assert_eq!(results.len(), 2);
            assert_eq!(results[0].as_ref().unwrap().name, "good");
            assert!(results[1].is_err());
        }
    }
}

