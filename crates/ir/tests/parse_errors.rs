//! Pins every parse error the text layer reports: each malformed input
//! maps to its exact `(line, col, message)`. The lexer runs over the
//! whole input before the parser starts, so a lexical error anywhere
//! wins over an earlier syntax error; the table pins that too.

use pdce_ir::parser::parse;

/// `(name, input, (line, col), message)`.
const CASES: &[(&str, &str, (u32, u32), &str)] = &[
    (
        "lone_colon",
        "prog { block s { x : 1; goto e } block e { halt } }",
        (1, 20),
        "expected `:=`",
    ),
    (
        "lone_equals",
        "prog { block s { if a = b then e else e } block e { halt } }",
        (1, 23),
        "expected `==`",
    ),
    (
        "lone_amp",
        "prog {\n  block s { x := a & b; goto e }\n  block e { halt }\n}",
        (2, 20),
        "expected `&&`",
    ),
    (
        "lone_pipe",
        "prog {\n  block s { x := a | b; goto e }\n  block e { halt }\n}",
        (2, 20),
        "expected `||`",
    ),
    (
        "unknown_char",
        "prog { block s { x := a @ b; goto e } block e { halt } }",
        (1, 25),
        "unexpected character `@`",
    ),
    // A multi-byte character is reported whole, not by its first byte.
    (
        "unknown_nonascii",
        "prog { block s { x := é; goto e } block e { halt } }",
        (1, 23),
        "unexpected character `é`",
    ),
    (
        "unknown_nonascii_three_bytes",
        "prog { block s { x := 変数; goto e } block e { halt } }",
        (1, 23),
        "unexpected character `変`",
    ),
    (
        "oversized_int",
        "prog { block s { x := 99999999999999999999; goto e } block e { halt } }",
        (1, 23),
        "bad integer `99999999999999999999`",
    ),
    (
        "lex_after_syntax",
        "prog { block s { goto } block e { halt } }\n// trailing\n  #",
        (3, 3),
        "unexpected character `#`",
    ),
    (
        "lex_after_unknown_target",
        "prog { block s { goto nowhere } block e { halt } } $",
        (1, 52),
        "unexpected character `$`",
    ),
    (
        "unknown_target",
        "prog {\n  block s { goto nowhere }\n  block e { halt }\n}",
        (2, 3),
        "block `s` jumps to unknown block `nowhere`",
    ),
    (
        "unknown_cond_target",
        "prog { block s { if a then e else f } block e { halt } }",
        (1, 8),
        "block `s` jumps to unknown block `f`",
    ),
    (
        "unknown_nondet_target",
        "prog { block s { nondet e f g } block e { halt } }",
        (1, 8),
        "block `s` jumps to unknown block `f`",
    ),
    (
        "duplicate_block",
        "prog {\n  block s { goto e }\n  block s { goto e }\n  block e { halt }\n}",
        (3, 3),
        "duplicate block name `s`",
    ),
    (
        "multiple_halts",
        "prog { block s { nondet a b } block a { halt } block b { halt } }",
        (1, 48),
        "multiple `halt` blocks: `a` and `b`",
    ),
    (
        "no_halt",
        "prog { block s { goto s } }",
        (1, 28),
        "program has no `halt` block",
    ),
    ("no_blocks", "prog { }", (1, 9), "program has no blocks"),
    // Nothing but comments and whitespace may follow the program.
    (
        "trailing_ident",
        "prog { block s { halt } } extra",
        (1, 27),
        "expected end of input after the program, found Ident(\"extra\")",
    ),
    (
        "trailing_brace",
        "prog { block s { halt } } }",
        (1, 27),
        "expected end of input after the program, found RBrace",
    ),
    (
        "trailing_program",
        "prog { block s { goto e } block e { halt } }\nprog { block t { halt } }",
        (2, 1),
        "expected end of input after the program, found Keyword(Prog)",
    ),
    (
        "trailing_before_semantics",
        "prog { } extra",
        (1, 10),
        "expected end of input after the program, found Ident(\"extra\")",
    ),
    (
        "stmt_after_terminator",
        "prog { block s { goto e; x := 1; } block e { halt } }",
        (1, 26),
        "expected `}`, found Ident(\"x\")",
    ),
    (
        "found_ident",
        "prog { block s { x y; goto e } block e { halt } }",
        (1, 20),
        "expected `:=`, found Ident(\"y\")",
    ),
    (
        "found_ident_block",
        "prog { x }",
        (1, 8),
        "expected `}`, found Ident(\"x\")",
    ),
    (
        "found_keyword",
        "prog { block s { goto halt } block e { halt } }",
        (1, 23),
        "expected jump target, found Keyword(Halt)",
    ),
    (
        "found_int_block_name",
        "prog { block 7 { halt } }",
        (1, 14),
        "expected block name, found Int(7)",
    ),
    (
        "expected_prog",
        "block s { halt }",
        (1, 1),
        "expected `Prog` keyword, found Keyword(Block)",
    ),
    (
        "expected_expression",
        "prog { block s { x := ; goto e } block e { halt } }",
        (1, 23),
        "expected expression, found Semi",
    ),
    (
        "expected_expression_eof",
        "prog { block s { out(",
        (1, 22),
        "expected expression, found Eof",
    ),
    (
        "missing_rparen",
        "prog { block s { out(a + b; goto e } block e { halt } }",
        (1, 27),
        "expected `)`, found Semi",
    ),
    (
        "missing_terminator",
        "prog { block s { x := 1; } block e { halt } }",
        (1, 26),
        "expected statement or terminator, found RBrace",
    ),
    (
        "missing_then",
        "prog { block s { if a e else e } block e { halt } }",
        (1, 23),
        "expected `Then` keyword, found Ident(\"e\")",
    ),
    (
        "empty_input",
        "",
        (1, 1),
        "expected `Prog` keyword, found Eof",
    ),
    (
        "comment_only",
        "// nothing here\n",
        (2, 1),
        "expected `Prog` keyword, found Eof",
    ),
    (
        "unreachable_block",
        "prog { block s { goto e } block x { goto e } block e { halt } }",
        (0, 0),
        "block `x` is unreachable from the entry",
    ),
    (
        "comment_tracks_lines",
        "// header\nprog {\n  // body\n  block s { x := 1 goto e }\n  block e { halt }\n}",
        (4, 20),
        "expected `;`, found Keyword(Goto)",
    ),
];

#[test]
fn every_malformed_input_reports_its_pinned_position_and_message() {
    let mut wrong = Vec::new();
    for &(name, input, at, message) in CASES {
        match parse(input) {
            Ok(_) => wrong.push(format!("{name}: parsed")),
            Err(e) if (e.line, e.col) != at || e.message != message => {
                wrong.push(format!(
                    "{name}: got ({}, {}, {:?}), want ({}, {}, {message:?})",
                    e.line, e.col, e.message, at.0, at.1
                ));
            }
            Err(_) => {}
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Both recursion paths of the expression grammar stop at the same
/// depth cap: nested parentheses through `expr`, chained unary
/// operators through `unary`.
#[test]
fn too_deeply_nested_expressions_report_where_the_cap_is_hit() {
    let parens = format!(
        "prog {{ block s {{ x := {}1{}; goto e }} block e {{ halt }} }}",
        "(".repeat(40_000),
        ")".repeat(40_000)
    );
    let bangs = format!(
        "prog {{ block s {{ x := {}1; goto e }} block e {{ halt }} }}",
        "!".repeat(40_000)
    );
    for (src, at) in [(parens, (1, 151)), (bangs, (1, 278))] {
        let e = parse(&src).unwrap_err();
        assert_eq!((e.line, e.col), at);
        assert_eq!(e.message, "expression too deeply nested");
    }
}

/// Whitespace and comments after the closing `}` are still accepted:
/// only tokens make trailing input an error.
#[test]
fn comments_and_whitespace_may_follow_the_program() {
    for src in [
        "prog { block s { halt } }\n",
        "prog { block s { halt } }  // done\n\n",
        "prog { block s { halt } }\n// trailing note",
    ] {
        assert!(parse(src).is_ok(), "{src:?}");
    }
}
