//! Recursive-descent parser for the textual program language.
//!
//! # Grammar
//!
//! ```text
//! program    := "prog" "{" block+ "}"
//! block      := "block" IDENT "{" (stmt ";")* terminator ";"? "}"
//! stmt       := "skip" | IDENT ":=" expr | "out" "(" expr ")"
//! terminator := "goto" IDENT
//!             | "if" expr "then" IDENT "else" IDENT
//!             | "nondet" IDENT+
//!             | "halt"
//! expr       := or
//! or         := and ("||" and)*
//! and        := cmp ("&&" cmp)*
//! cmp        := add (("<"|"<="|">"|">="|"=="|"!=") add)?
//! add        := mul (("+"|"-") mul)*
//! mul        := unary (("*"|"/"|"%") unary)*
//! unary      := ("-"|"!") unary | atom
//! atom       := INT | IDENT | "(" expr ")"
//! ```
//!
//! The first block is the entry node; the unique `halt` block is the exit.
//! Variables are implicitly declared on first use. The parsed program is
//! [validated](crate::validate) before being returned.

use crate::error::ParseError;
use crate::lexer::{lex, Keyword, Spanned, Token};
use crate::program::{Block, NodeId, Program, Terminator};
use crate::stmt::Stmt;
use crate::term::{BinOp, TermArena, TermId, UnOp};
use crate::validate::validate;
use crate::var::VarPool;
use std::collections::HashMap;

/// Parses and validates a program.
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors, unknown jump targets, or
/// graph-validation failures (see [`crate::validate`]).
///
/// # Example
///
/// ```
/// let prog = pdce_ir::parser::parse(
///     "prog { block s { goto e } block e { halt } }",
/// )?;
/// assert_eq!(prog.num_blocks(), 2);
/// # Ok::<(), pdce_ir::error::ParseError>(())
/// ```
pub fn parse(input: &str) -> Result<Program, ParseError> {
    let prog = parse_unvalidated(input)?;
    validate(&prog).map_err(ParseError::from)?;
    Ok(prog)
}

/// Parses without graph validation (useful for deliberately ill-formed
/// test inputs).
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors or unknown jump targets.
pub fn parse_unvalidated(input: &str) -> Result<Program, ParseError> {
    let tokens = lex(input)?;
    Parser::new(tokens).program()
}

/// Parses a standalone expression into the given pools.
///
/// Used by [`crate::builder::ProgramBuilder`] so terms can be written as
/// source text.
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors or trailing input.
pub fn parse_expr_into(
    src: &str,
    vars: &mut VarPool,
    terms: &mut TermArena,
) -> Result<TermId, ParseError> {
    let tokens = lex(src)?;
    let mut parser = Parser::new(tokens);
    parser.vars = std::mem::take(vars);
    parser.terms = std::mem::take(terms);
    let result = parser.expr();
    let trailing = parser.peek() != Token::Eof;
    *vars = std::mem::take(&mut parser.vars);
    *terms = std::mem::take(&mut parser.terms);
    let t = result?;
    if trailing {
        return Err(ParseError::new(
            0,
            0,
            format!("trailing input in expression `{src}`"),
        ));
    }
    Ok(t)
}

/// A parsed block whose jump targets are still names (they may refer
/// forward), borrowed from the input.
struct RawBlock<'a> {
    name: &'a str,
    stmts: Vec<Stmt>,
    term: RawTerminator<'a>,
    line: u32,
    col: u32,
}

enum RawTerminator<'a> {
    Goto(&'a str),
    Cond {
        cond: TermId,
        then_to: &'a str,
        else_to: &'a str,
    },
    Nondet(Vec<&'a str>),
    Halt,
}

/// Maximum nesting depth of an expression. Recursive descent spends
/// native stack per level, and a hostile input like `((((…1…))))` must
/// come back as a [`ParseError`], not a stack overflow (which aborts
/// the process and cannot be caught). The cap is far above anything a
/// legitimate program or the printer produces.
const MAX_EXPR_DEPTH: u32 = 256;

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
    depth: u32,
    vars: VarPool,
    terms: TermArena,
    /// The `Var` term of each interned variable, by variable index, so
    /// a variable operand costs one hash (its name) rather than two.
    var_terms: Vec<Option<TermId>>,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Spanned<'a>>) -> Parser<'a> {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            vars: VarPool::new(),
            terms: TermArena::new(),
            var_terms: Vec::new(),
        }
    }

    fn peek(&self) -> Token<'a> {
        self.tokens[self.pos].token
    }

    fn here(&self) -> (u32, u32) {
        let s = &self.tokens[self.pos];
        (s.line, s.col)
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError::new(line, col, msg)
    }

    fn expect(&mut self, want: Token<'_>, what: &str) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        match self.peek() {
            Token::Keyword(k) if k == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw:?}` keyword, found {other:?}"))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek() {
            Token::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.expect_keyword(Keyword::Prog)?;
        self.expect(Token::LBrace, "`{`")?;
        let mut raw_blocks = Vec::new();
        while matches!(self.peek(), Token::Keyword(Keyword::Block)) {
            raw_blocks.push(self.block()?);
        }
        self.expect(Token::RBrace, "`}`")?;
        self.expect(Token::Eof, "end of input after the program")?;
        if raw_blocks.is_empty() {
            return Err(self.error("program has no blocks"));
        }

        let mut by_name: HashMap<&str, NodeId> = HashMap::with_capacity(raw_blocks.len());
        for (i, rb) in raw_blocks.iter().enumerate() {
            if by_name.insert(rb.name, NodeId::from_index(i)).is_some() {
                return Err(ParseError::new(
                    rb.line,
                    rb.col,
                    format!("duplicate block name `{}`", rb.name),
                ));
            }
        }
        let resolve = |name: &str, rb: &RawBlock<'_>| -> Result<NodeId, ParseError> {
            by_name.get(name).copied().ok_or_else(|| {
                ParseError::new(
                    rb.line,
                    rb.col,
                    format!("block `{}` jumps to unknown block `{name}`", rb.name),
                )
            })
        };

        let mut exit: Option<(NodeId, &str)> = None;
        let mut blocks = Vec::with_capacity(raw_blocks.len());
        for (i, rb) in raw_blocks.iter_mut().enumerate() {
            let term = match &rb.term {
                RawTerminator::Goto(t) => Terminator::Goto(resolve(t, rb)?),
                RawTerminator::Cond {
                    cond,
                    then_to,
                    else_to,
                } => Terminator::Cond {
                    cond: *cond,
                    then_to: resolve(then_to, rb)?,
                    else_to: resolve(else_to, rb)?,
                },
                RawTerminator::Nondet(ts) => {
                    let mut ids = Vec::with_capacity(ts.len());
                    for t in ts {
                        ids.push(resolve(t, rb)?);
                    }
                    Terminator::Nondet(ids)
                }
                RawTerminator::Halt => {
                    if let Some((_, prev)) = exit {
                        return Err(ParseError::new(
                            rb.line,
                            rb.col,
                            format!("multiple `halt` blocks: `{prev}` and `{}`", rb.name),
                        ));
                    }
                    exit = Some((NodeId::from_index(i), rb.name));
                    Terminator::Halt
                }
            };
            blocks.push(Block {
                name: rb.name.to_owned(),
                stmts: std::mem::take(&mut rb.stmts),
                term,
                split_of: None,
            });
        }
        let (exit, _) = exit.ok_or_else(|| self.error("program has no `halt` block"))?;

        Ok(Program::from_parts(
            std::mem::take(&mut self.vars),
            std::mem::take(&mut self.terms),
            blocks,
            NodeId::from_index(0),
            exit,
        ))
    }

    fn block(&mut self) -> Result<RawBlock<'a>, ParseError> {
        let (line, col) = self.here();
        self.expect_keyword(Keyword::Block)?;
        let name = self.ident("block name")?;
        self.expect(Token::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        let term = loop {
            match self.peek() {
                Token::Keyword(Keyword::Goto) => {
                    self.bump();
                    break RawTerminator::Goto(self.ident("jump target")?);
                }
                Token::Keyword(Keyword::If) => {
                    self.bump();
                    let cond = self.expr()?;
                    self.expect_keyword(Keyword::Then)?;
                    let then_to = self.ident("then target")?;
                    self.expect_keyword(Keyword::Else)?;
                    let else_to = self.ident("else target")?;
                    break RawTerminator::Cond {
                        cond,
                        then_to,
                        else_to,
                    };
                }
                Token::Keyword(Keyword::Nondet) => {
                    self.bump();
                    let mut targets = vec![self.ident("nondet target")?];
                    while let Token::Ident(_) = self.peek() {
                        targets.push(self.ident("nondet target")?);
                    }
                    break RawTerminator::Nondet(targets);
                }
                Token::Keyword(Keyword::Halt) => {
                    self.bump();
                    break RawTerminator::Halt;
                }
                Token::Keyword(Keyword::Skip) => {
                    self.bump();
                    self.expect(Token::Semi, "`;`")?;
                    stmts.push(Stmt::Skip);
                }
                Token::Keyword(Keyword::Out) => {
                    self.bump();
                    self.expect(Token::LParen, "`(`")?;
                    let t = self.expr()?;
                    self.expect(Token::RParen, "`)`")?;
                    self.expect(Token::Semi, "`;`")?;
                    stmts.push(Stmt::Out(t));
                }
                Token::Ident(name) => {
                    self.bump();
                    self.expect(Token::Assign, "`:=`")?;
                    let rhs = self.expr()?;
                    self.expect(Token::Semi, "`;`")?;
                    let lhs = self.vars.intern(name);
                    stmts.push(Stmt::Assign { lhs, rhs });
                }
                other => {
                    return Err(
                        self.error(format!("expected statement or terminator, found {other:?}"))
                    );
                }
            }
        };
        // Optional trailing semicolon after the terminator.
        if self.peek() == Token::Semi {
            self.bump();
        }
        self.expect(Token::RBrace, "`}`")?;
        Ok(RawBlock {
            name,
            stmts,
            term,
            line,
            col,
        })
    }

    /// Charges one level of expression nesting against
    /// [`MAX_EXPR_DEPTH`]; the caller must pair it with `self.depth -= 1`.
    fn enter_expr(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(self.error("expression too deeply nested"));
        }
        Ok(())
    }

    fn expr(&mut self) -> Result<TermId, ParseError> {
        self.enter_expr()?;
        let result = self.or_expr();
        self.depth -= 1;
        result
    }

    fn or_expr(&mut self) -> Result<TermId, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == Token::OrOr {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = self.terms.binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<TermId, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek() == Token::AndAnd {
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = self.terms.binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<TermId, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Token::Lt => BinOp::Lt,
            Token::Le => BinOp::Le,
            Token::Gt => BinOp::Gt,
            Token::Ge => BinOp::Ge,
            Token::EqEq => BinOp::Eq,
            Token::Ne => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(self.terms.binary(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<TermId, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = self.terms.binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<TermId, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = self.terms.binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    // Chained unary operators (`!!…!x`) recurse without passing
    // through `expr`, so this level charges the depth budget itself.
    fn unary_expr(&mut self) -> Result<TermId, ParseError> {
        self.enter_expr()?;
        let result = self.unary_inner();
        self.depth -= 1;
        result
    }

    fn unary_inner(&mut self) -> Result<TermId, ParseError> {
        match self.peek() {
            Token::Minus => {
                self.bump();
                // `-` immediately followed by an integer literal is a
                // negative constant, so `out(-1)` round-trips as
                // `Const(-1)` rather than `Neg(Const(1))`. A programmatic
                // `Neg(Const(c))` is printed as `-(c)` by the printer,
                // which this fold deliberately does not touch.
                if let Token::Int(v) = self.peek() {
                    self.bump();
                    return Ok(self.terms.constant(v.wrapping_neg()));
                }
                let inner = self.unary_expr()?;
                Ok(self.terms.unary(UnOp::Neg, inner))
            }
            Token::Bang => {
                self.bump();
                let inner = self.unary_expr()?;
                Ok(self.terms.unary(UnOp::Not, inner))
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<TermId, ParseError> {
        match self.peek() {
            Token::Int(v) => {
                self.bump();
                Ok(self.terms.constant(v))
            }
            Token::Ident(name) => {
                self.bump();
                let v = self.vars.intern(name);
                if v.index() >= self.var_terms.len() {
                    self.var_terms.resize(v.index() + 1, None);
                }
                let terms = &mut self.terms;
                Ok(*self.var_terms[v.index()].get_or_insert_with(|| terms.var(v)))
            }
            Token::LParen => {
                self.bump();
                let t = self.expr()?;
                self.expect(Token::RParen, "`)`")?;
                Ok(t)
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermData;

    const FIG1: &str = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; nondet n2 n3 }
        block n2 { goto n4 }
        block n3 { y := 4; goto n4 }
        block n4 { out(y); goto e }
        block e  { halt }
    }";

    #[test]
    fn parses_figure_one() {
        let p = parse(FIG1).unwrap();
        assert_eq!(p.num_blocks(), 6);
        assert_eq!(p.block(p.entry()).name, "s");
        assert_eq!(p.block(p.exit()).name, "e");
        let n1 = p.block_by_name("n1").unwrap();
        assert_eq!(p.block(n1).stmts.len(), 1);
        assert_eq!(p.successors(n1).len(), 2);
        assert_eq!(p.num_vars(), 3); // y, a, b
    }

    #[test]
    fn parses_conditionals_and_expressions() {
        let p = parse(
            "prog {
               block s { x := (a + b) * 2 - -c; if x <= 10 && !(a == b) then t else f }
               block t { out(x % 3); goto e }
               block f { skip; goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let s = p.entry();
        assert_eq!(p.block(s).stmts.len(), 1);
        assert!(matches!(p.block(s).term, Terminator::Cond { .. }));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("prog { block s { x := a + b * c; goto e } block e { halt } }").unwrap();
        let s = p.entry();
        let Stmt::Assign { rhs, .. } = p.block(s).stmts[0] else {
            panic!("expected assignment");
        };
        let TermData::Binary(op, _, r) = p.terms().data(rhs) else {
            panic!("expected binary");
        };
        assert_eq!(op, BinOp::Add);
        assert!(matches!(
            p.terms().data(r),
            TermData::Binary(BinOp::Mul, _, _)
        ));
    }

    #[test]
    fn rejects_unknown_target() {
        let err = parse("prog { block s { goto nowhere } block e { halt } }").unwrap_err();
        assert!(err.message.contains("unknown block"));
    }

    #[test]
    fn rejects_duplicate_blocks() {
        let err =
            parse("prog { block s { goto e } block s { goto e } block e { halt } }").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn rejects_multiple_halts() {
        let err =
            parse("prog { block s { nondet a b } block a { halt } block b { halt } }").unwrap_err();
        assert!(err.message.contains("multiple `halt`"));
    }

    #[test]
    fn rejects_missing_halt() {
        let err = parse("prog { block s { goto s } }").unwrap_err();
        assert!(err.message.contains("no `halt`"));
    }

    #[test]
    fn rejects_statement_after_terminator() {
        let err = parse("prog { block s { goto e; x := 1; } block e { halt } }").unwrap_err();
        assert!(err.message.contains("expected `}`"));
    }

    #[test]
    fn trailing_semicolon_after_terminator_ok() {
        assert!(parse("prog { block s { goto e; } block e { halt; } }").is_ok());
    }

    #[test]
    fn deeply_nested_expression_is_an_error_not_an_overflow() {
        let depth = 40_000;
        let expr = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        let src = format!("prog {{ block s {{ x := {expr}; goto e }} block e {{ halt }} }}");
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("too deeply nested"), "{}", err.message);
        // Same for chained unary operators, which recurse separately.
        let src = format!(
            "prog {{ block s {{ x := {}1; goto e }} block e {{ halt }} }}",
            "!".repeat(40_000)
        );
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("too deeply nested"), "{}", err.message);
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let depth = 100;
        let expr = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        let src =
            format!("prog {{ block s {{ x := {expr}; out(x); goto e }} block e {{ halt }} }}");
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn validation_runs_on_parse() {
        // `x` is unreachable from the entry.
        let err =
            parse("prog { block s { goto e } block x { goto e } block e { halt } }").unwrap_err();
        assert!(err.message.contains("unreachable"), "{}", err.message);
        // But parse_unvalidated accepts it.
        assert!(parse_unvalidated(
            "prog { block s { goto e } block x { goto e } block e { halt } }"
        )
        .is_ok());
    }
}
