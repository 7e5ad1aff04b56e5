//! The original tokenize-then-parse front end, retained verbatim as the
//! differential baseline for the zero-copy engine in [`super`] (the
//! PR 2/PR 5 convention: the replaced engine lives on under `::reference`
//! and property tests pin the rewrite against it).
//!
//! Two deliberate characteristics the fast engine must reproduce:
//!
//! * the **entire** input is tokenized before parsing starts, so a
//!   lex-level error (invalid literal, unexpected character) anywhere in
//!   the source wins over any parse error, regardless of position;
//! * `err()` reports the position of the *current* token, which for
//!   errors raised after a `bump()` is the token **after** the offending
//!   one (e.g. "duplicate loop iterator" points past the iterator).
//!
//! The only post-retirement edit is the recursion-depth guard shared
//! with the fast engine ([`MAX_EXPR_DEPTH`], [`MAX_LOOP_DEPTH`]) —
//! without it, differential fuzzing over deeply nested adversarial
//! inputs would overflow this engine's stack.

use super::{ParseError, MAX_EXPR_DEPTH, MAX_LOOP_DEPTH};
use crate::ir::{AffineExpr, ArrayRef, Extent, Kernel, LoopDim, Program, RhsExpr, Statement};
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Punct(&'static str),
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Float(v) => write!(f, "`{v}`"),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> u8 {
        let c = self.src[self.pos];
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Result<(Tok, usize, usize), ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    self.bump();
                } else {
                    break;
                }
            }
            let s = self.text[start..self.pos].to_owned();
            return Ok((Tok::Ident(s), line, col));
        }
        if c.is_ascii_digit() {
            let start = self.pos;
            let mut is_float = false;
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() {
                    self.bump();
                } else if c == b'.' && !is_float && self.peek2().is_some_and(|d| d.is_ascii_digit())
                {
                    is_float = true;
                    self.bump();
                } else {
                    break;
                }
            }
            let text = &self.text[start..self.pos];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| ParseError {
                    line,
                    col,
                    message: format!("invalid float literal `{text}`"),
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| ParseError {
                    line,
                    col,
                    message: format!("invalid integer literal `{text}`"),
                })?)
            };
            return Ok((tok, line, col));
        }
        // Punctuation (longest match first).
        if c == b'+' && self.peek2() == Some(b'=') {
            self.bump();
            self.bump();
            return Ok((Tok::Punct("+="), line, col));
        }
        let single: &'static str = match c {
            b'(' => "(",
            b')' => ")",
            b'{' => "{",
            b'}' => "}",
            b'[' => "[",
            b']' => "]",
            b',' => ",",
            b';' => ";",
            b':' => ":",
            b'=' => "=",
            b'+' => "+",
            b'-' => "-",
            b'*' => "*",
            b'/' => "/",
            other => {
                return Err(ParseError {
                    line,
                    col,
                    message: format!("unexpected character `{}`", other as char),
                })
            }
        };
        self.bump();
        Ok((Tok::Punct(single), line, col))
    }
}

struct Parser {
    tokens: Vec<(Tok, usize, usize)>,
    idx: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let t = lexer.next_token()?;
            let eof = matches!(t.0, Tok::Eof);
            tokens.push(t);
            if eof {
                break;
            }
        }
        Ok(Parser { tokens, idx: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.idx].0
    }

    fn here(&self) -> (usize, usize) {
        let (_, l, c) = &self.tokens[self.idx];
        (*l, *c)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.idx].0.clone();
        if self.idx + 1 < self.tokens.len() {
            self.idx += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Punct(q) if *q == p => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected `{p}`, found {other}"))),
        }
    }

    fn try_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Ident(_) => match self.bump() {
                Tok::Ident(s) => Ok(s),
                _ => unreachable!("peeked ident"),
            },
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected keyword `{kw}`, found {other}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn parse_program(&mut self, name: &str) -> Result<Program, ParseError> {
        let mut kernels: Vec<Kernel> = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            let kernel = self.parse_kernel(&kernels)?;
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

    fn parse_kernel(&mut self, taken: &[Kernel]) -> Result<Kernel, ParseError> {
        self.eat_keyword("kernel")?;
        let (name_line, name_col) = self.here();
        let name = self.eat_ident()?;
        // Downstream lookups are name-keyed (execution plans, verify
        // batches, serve requests); a duplicate would silently shadow
        // one of the nests.
        if taken.iter().any(|k| k.name == name) {
            return Err(ParseError {
                line: name_line,
                col: name_col,
                message: format!("duplicate kernel name `{name}`"),
            });
        }
        self.eat_punct("(")?;
        let mut params = Vec::new();
        if !matches!(self.peek(), Tok::Punct(")")) {
            loop {
                params.push(self.eat_ident()?);
                if !self.try_punct(",") {
                    break;
                }
            }
        }
        self.eat_punct(")")?;
        self.eat_punct("{")?;
        let mut dims: Vec<LoopDim> = Vec::new();
        let stmts = self.parse_loop(&params, &mut dims)?;
        self.eat_punct("}")?;
        Ok(Kernel { name, dims, stmts })
    }

    fn parse_loop(
        &mut self,
        params: &[String],
        dims: &mut Vec<LoopDim>,
    ) -> Result<Vec<Statement>, ParseError> {
        if dims.len() >= MAX_LOOP_DEPTH {
            return Err(self.err(format!("loop nesting exceeds {MAX_LOOP_DEPTH} levels")));
        }
        self.eat_keyword("for")?;
        let explicit_serial = if self.at_keyword("seq") {
            self.bump();
            true
        } else {
            false
        };
        self.eat_punct("(")?;
        let iter = self.eat_ident()?;
        if dims.iter().any(|d| d.name == iter) {
            return Err(self.err(format!("duplicate loop iterator `{iter}`")));
        }
        if params.contains(&iter) {
            return Err(self.err(format!(
                "loop iterator `{iter}` shadows a problem-size parameter"
            )));
        }
        self.eat_punct(":")?;
        let extent = match self.bump() {
            Tok::Int(v) => Extent::Const(v),
            Tok::Ident(p) => {
                if !params.contains(&p) {
                    return Err(self.err(format!("unknown extent parameter `{p}`")));
                }
                Extent::Param(p)
            }
            other => return Err(self.err(format!("expected loop extent, found {other}"))),
        };
        self.eat_punct(")")?;
        dims.push(LoopDim {
            name: iter,
            extent,
            explicit_serial,
        });
        // body
        if self.at_keyword("for") {
            return self.parse_loop(params, dims);
        }
        if self.try_punct("{") {
            if self.at_keyword("for") {
                return Err(self.err(
                    "imperfectly nested loops are not supported: a braced body must \
                     contain statements only",
                ));
            }
            let mut stmts = Vec::new();
            while !matches!(self.peek(), Tok::Punct("}")) {
                stmts.push(self.parse_stmt(dims)?);
            }
            self.eat_punct("}")?;
            if stmts.is_empty() {
                return Err(self.err("loop body has no statements"));
            }
            Ok(stmts)
        } else {
            Ok(vec![self.parse_stmt(dims)?])
        }
    }

    fn parse_stmt(&mut self, dims: &[LoopDim]) -> Result<Statement, ParseError> {
        let write = self.parse_ref(dims)?;
        let is_accumulation = if self.try_punct("+=") {
            true
        } else {
            self.eat_punct("=")?;
            false
        };
        let mut reads = Vec::new();
        let mut flops = u32::from(is_accumulation);
        let rhs = self.parse_expr(dims, &mut reads, &mut flops, 0)?;
        self.eat_punct(";")?;
        Ok(Statement {
            write,
            reads,
            rhs,
            is_accumulation,
            flops,
        })
    }

    /// expr := unary (binop unary)*  (left-associative, no precedence —
    /// adequate for rendering the benchmark kernels' bodies)
    fn parse_expr(
        &mut self,
        dims: &[LoopDim],
        reads: &mut Vec<ArrayRef>,
        flops: &mut u32,
        depth: usize,
    ) -> Result<RhsExpr, ParseError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nesting exceeds {MAX_EXPR_DEPTH} levels"
            )));
        }
        let mut lhs = self.parse_unary(dims, reads, flops, depth)?;
        loop {
            let op = match self.peek() {
                Tok::Punct("+") => '+',
                Tok::Punct("-") => '-',
                Tok::Punct("*") => '*',
                Tok::Punct("/") => '/',
                _ => return Ok(lhs),
            };
            self.bump();
            *flops += 1;
            let rhs = self.parse_unary(dims, reads, flops, depth)?;
            lhs = RhsExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn parse_unary(
        &mut self,
        dims: &[LoopDim],
        reads: &mut Vec<ArrayRef>,
        flops: &mut u32,
        depth: usize,
    ) -> Result<RhsExpr, ParseError> {
        let negated = self.try_punct("-");
        let inner = match self.peek() {
            Tok::Int(_) | Tok::Float(_) => match self.bump() {
                Tok::Int(v) => RhsExpr::Num(v as f64),
                Tok::Float(v) => RhsExpr::Num(v),
                _ => unreachable!("peeked number"),
            },
            Tok::Punct("(") => {
                self.bump();
                let e = self.parse_expr(dims, reads, flops, depth + 1)?;
                self.eat_punct(")")?;
                e
            }
            Tok::Ident(_) => {
                let r = self.parse_ref(dims)?;
                reads.push(r);
                RhsExpr::Ref(reads.len() - 1)
            }
            other => return Err(self.err(format!("expected operand, found {other}"))),
        };
        Ok(if negated {
            RhsExpr::Neg(Box::new(inner))
        } else {
            inner
        })
    }

    fn parse_ref(&mut self, dims: &[LoopDim]) -> Result<ArrayRef, ParseError> {
        let array = self.eat_ident()?;
        let mut subscripts = Vec::new();
        while self.try_punct("[") {
            subscripts.push(self.parse_affine(dims)?);
            self.eat_punct("]")?;
        }
        Ok(ArrayRef {
            array: array.into(),
            subscripts,
        })
    }

    /// affine := ["-"] aterm (("+"|"-") aterm)*
    fn parse_affine(&mut self, dims: &[LoopDim]) -> Result<AffineExpr, ParseError> {
        let mut expr = AffineExpr::constant(0);
        let mut sign: i64 = if self.try_punct("-") { -1 } else { 1 };
        loop {
            self.parse_aterm(dims, sign, &mut expr)?;
            if self.try_punct("+") {
                sign = 1;
            } else if self.try_punct("-") {
                sign = -1;
            } else {
                return Ok(expr);
            }
        }
    }

    /// aterm := INT ["*" IDENT] | IDENT ["*" INT]
    fn parse_aterm(
        &mut self,
        dims: &[LoopDim],
        sign: i64,
        expr: &mut AffineExpr,
    ) -> Result<(), ParseError> {
        match self.bump() {
            Tok::Int(v) => {
                if self.try_punct("*") {
                    let name = self.eat_ident()?;
                    let dim = self.lookup_dim(dims, &name)?;
                    expr.add_term(dim, sign * v);
                } else {
                    expr.add_constant(sign * v);
                }
                Ok(())
            }
            Tok::Ident(name) => {
                let dim = self.lookup_dim(dims, &name)?;
                if self.try_punct("*") {
                    match self.bump() {
                        Tok::Int(v) => expr.add_term(dim, sign * v),
                        other => {
                            return Err(
                                self.err(format!("expected integer coefficient, found {other}"))
                            )
                        }
                    }
                } else {
                    expr.add_term(dim, sign);
                }
                Ok(())
            }
            other => Err(self.err(format!("expected affine term, found {other}"))),
        }
    }

    fn lookup_dim(&self, dims: &[LoopDim], name: &str) -> Result<usize, ParseError> {
        dims.iter().position(|d| d.name == name).ok_or_else(|| {
            self.err(format!(
                "`{name}` is not a loop iterator in scope (subscripts must be \
                 affine in the iterators)"
            ))
        })
    }
}

/// Parses a program with the retained baseline engine; the program name
/// is derived from the first kernel's name.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input.
///
/// # Examples
///
/// ```
/// use eatss_affine::parser::reference;
///
/// let p = reference::parse_program("kernel axpy(N) { for (i: N) y[i] += a * x[i]; }")?;
/// assert_eq!(p.name, "axpy");
/// assert_eq!(p.kernels[0].depth(), 1);
/// # Ok::<(), eatss_affine::parser::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::new(src)?;
    let mut program = parser.parse_program("")?;
    program.name = program.kernels[0].name.clone();
    Ok(program)
}

/// Parses a program and overrides its name.
///
/// # Errors
///
/// Same conditions as [`parse_program`].
pub fn parse_named_program(name: &str, src: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::new(src)?;
    parser.parse_program(name)
}
