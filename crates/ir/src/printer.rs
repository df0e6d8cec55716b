//! Pretty-printer: renders programs back to the textual language.
//!
//! The output of [`print_program`] re-parses to a structurally equal
//! program (round-trip property, tested in the crate's property tests).
//! [`canonical_string`] produces a name-keyed normal form used to compare
//! programs that live in different arenas.

use std::fmt::Write as _;

use crate::program::{NodeId, Program, Terminator};
use crate::stmt::Stmt;
use crate::term::{BinOp, TermData, TermId};

/// Renders a term with minimal parentheses.
pub fn print_term(prog: &Program, t: TermId) -> String {
    let mut out = String::new();
    write_term(prog, t, &mut out);
    out
}

/// Appends [`print_term`]'s rendering of `t` to `out`, so many terms can
/// share one buffer.
pub fn write_term(prog: &Program, t: TermId, out: &mut String) {
    term_prec(prog, t, 0, out);
}

fn term_prec(prog: &Program, t: TermId, min_prec: u8, out: &mut String) {
    match prog.terms().data(t) {
        TermData::Const(v) => push_int(v, out),
        TermData::Var(v) => out.push_str(prog.vars().name(v)),
        TermData::Unary(op, a) => {
            out.push_str(op.symbol());
            // Unary binds tighter than all binaries; parenthesize binary
            // operands so `-(a+b)` round-trips. A negation of a
            // non-negative literal also needs parentheses — `-(1)` —
            // because the parser folds a bare `-1` into `Const(-1)`.
            let needs = matches!(prog.terms().data(a), TermData::Binary(..))
                || (op == crate::term::UnOp::Neg
                    && matches!(prog.terms().data(a), TermData::Const(c) if c >= 0));
            if needs {
                out.push('(');
            }
            term_prec(prog, a, 6, out);
            if needs {
                out.push(')');
            }
        }
        TermData::Binary(op, a, b) => {
            let prec = op.precedence();
            let needs = prec < min_prec;
            if needs {
                out.push('(');
            }
            // Left-associative operators allow an equal-precedence left
            // child; comparisons are *non-associative* in the grammar
            // (`cmp := add (op add)?`), so both children must bind
            // strictly tighter there.
            let non_assoc = matches!(
                op,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
            );
            let left_min = if non_assoc { prec + 1 } else { prec };
            term_prec(prog, a, left_min, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            term_prec(prog, b, prec + 1, out);
            if needs {
                out.push(')');
            }
        }
    }
}

/// Appends `v` in decimal, as `{v}` formats it, without the formatting
/// machinery (terms print once per pattern table and per printed
/// program).
fn push_int(v: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Renders one statement (without trailing `;`).
pub fn print_stmt(prog: &Program, stmt: &Stmt) -> String {
    match *stmt {
        Stmt::Skip => "skip".to_owned(),
        Stmt::Assign { lhs, rhs } => {
            format!("{} := {}", prog.vars().name(lhs), print_term(prog, rhs))
        }
        Stmt::Out(t) => format!("out({})", print_term(prog, t)),
    }
}

/// Renders a terminator.
pub fn print_terminator(prog: &Program, term: &Terminator) -> String {
    let name = |n: NodeId| prog.block(n).name.clone();
    match term {
        Terminator::Goto(n) => format!("goto {}", name(*n)),
        Terminator::Cond {
            cond,
            then_to,
            else_to,
        } => format!(
            "if {} then {} else {}",
            print_term(prog, *cond),
            name(*then_to),
            name(*else_to)
        ),
        Terminator::Nondet(ns) => {
            let targets: Vec<String> = ns.iter().map(|&n| name(n)).collect();
            format!("nondet {}", targets.join(" "))
        }
        Terminator::Halt => "halt".to_owned(),
    }
}

/// Renders a whole program in the textual language (blocks in node order).
pub fn print_program(prog: &Program) -> String {
    let mut out = String::from("prog {\n");
    for n in prog.node_ids() {
        let b = prog.block(n);
        let _ = writeln!(out, "  block {} {{", b.name);
        for s in &b.stmts {
            let _ = writeln!(out, "    {};", print_stmt(prog, s));
        }
        let _ = writeln!(out, "    {}", print_terminator(prog, &b.term));
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

/// A canonical, arena-independent normal form of a program.
///
/// Blocks are listed sorted by name; entry/exit names are recorded
/// explicitly. Two programs are *structurally equal* (same graph over the
/// same block names, same statements up to term structure) iff their
/// canonical strings are equal — regardless of node numbering or arena ids.
pub fn canonical_string(prog: &Program) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(prog.num_blocks());
    for n in prog.node_ids() {
        let b = prog.block(n);
        let stmts: Vec<String> = b.stmts.iter().map(|s| print_stmt(prog, s)).collect();
        lines.push(format!(
            "{}: [{}] {}",
            b.name,
            stmts.join("; "),
            print_terminator(prog, &b.term)
        ));
    }
    lines.sort();
    format!(
        "entry={} exit={}\n{}",
        prog.block(prog.entry()).name,
        prog.block(prog.exit()).name,
        lines.join("\n")
    )
}

/// Structural equality across arenas, via [`canonical_string`].
pub fn structural_eq(a: &Program, b: &Program) -> bool {
    canonical_string(a) == canonical_string(b)
}

/// A unified diff-style description of where two programs differ, for
/// test-failure messages. Empty if structurally equal.
pub fn diff(a: &Program, b: &Program) -> String {
    let ca = canonical_string(a);
    let cb = canonical_string(b);
    if ca == cb {
        return String::new();
    }
    let la: Vec<&str> = ca.lines().collect();
    let lb: Vec<&str> = cb.lines().collect();
    let mut out = String::new();
    for line in &la {
        if !lb.contains(line) {
            let _ = writeln!(out, "- {line}");
        }
    }
    for line in &lb {
        if !la.contains(line) {
            let _ = writeln!(out, "+ {line}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trips_through_parser() {
        let src = "prog {
            block s { x := (a + b) * c; if x < 10 then t else f }
            block t { out(x); goto e }
            block f { y := -(a + 1); skip; nondet t e }
            block e { halt }
        }";
        let p1 = parse(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse(&printed).unwrap();
        assert!(structural_eq(&p1, &p2), "diff:\n{}", diff(&p1, &p2));
    }

    #[test]
    fn integers_print_as_formatted() {
        for v in [0, 7, -7, 10, -100, 1_234_567, i64::MAX, i64::MIN] {
            let mut out = String::new();
            push_int(v, &mut out);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn minimal_parens() {
        let p =
            parse("prog { block s { x := a + b * c; y := (a + b) * c; goto e } block e { halt } }")
                .unwrap();
        let s = p.entry();
        assert_eq!(print_stmt(&p, &p.block(s).stmts[0]), "x := a + b * c");
        assert_eq!(print_stmt(&p, &p.block(s).stmts[1]), "y := (a + b) * c");
    }

    #[test]
    fn left_associativity_preserved() {
        // a - b - c parses as (a-b)-c; printing must not drop the
        // distinction with a - (b - c).
        let p =
            parse("prog { block s { x := a - b - c; y := a - (b - c); goto e } block e { halt } }")
                .unwrap();
        let s = p.entry();
        assert_eq!(print_stmt(&p, &p.block(s).stmts[0]), "x := a - b - c");
        assert_eq!(print_stmt(&p, &p.block(s).stmts[1]), "y := a - (b - c)");
    }

    #[test]
    fn structural_eq_ignores_block_order() {
        let p1 = parse(
            "prog { block s { nondet a b } block a { goto e } block b { goto e } block e { halt } }",
        )
        .unwrap();
        let p2 = parse(
            "prog { block s { nondet a b } block b { goto e } block a { goto e } block e { halt } }",
        )
        .unwrap();
        assert!(structural_eq(&p1, &p2));
    }

    #[test]
    fn structural_eq_detects_stmt_difference() {
        let p1 = parse("prog { block s { x := 1; goto e } block e { halt } }").unwrap();
        let p2 = parse("prog { block s { x := 2; goto e } block e { halt } }").unwrap();
        assert!(!structural_eq(&p1, &p2));
        let d = diff(&p1, &p2);
        assert!(d.contains("x := 1"));
        assert!(d.contains("x := 2"));
    }
}
