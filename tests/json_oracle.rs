//! Byte-identity of the run-based JSON string codec: `json::write_escaped`
//! and the parser's string reader against the character-at-a-time
//! versions they replaced (`tests/support/json_oracle.rs`). Inputs are
//! random strings over every control byte, `"`, `\`, `\uXXXX` escapes
//! (valid, truncated and malformed) and multibyte UTF-8, at lengths
//! that straddle the scanner's 8-byte words, plus every corpus program.

mod support;

use pdce::serve::protocol::{encode_request, Mode};
use pdce::trace::json;
use pdce_rng::Rng;
use support::json_oracle;

/// Pieces a random string is built from: every control character,
/// the two characters JSON always escapes, ASCII that looks like escape
/// syntax, DEL, and 2-, 3- and 4-byte UTF-8.
fn alphabet() -> Vec<String> {
    let mut pieces: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
    for s in [
        "\"", "\\", "/", "u", "a", "Z", "0", "9", "f", " ", "\u{7f}", "µ", "∅", "😀", "prog",
        "\\u", "\\n", "\\\"",
    ] {
        pieces.push(s.to_string());
    }
    pieces
}

fn random_string(rng: &mut Rng, pieces: &[String]) -> String {
    let len = if rng.gen_bool(0.2) {
        rng.gen_range(0, 80)
    } else {
        rng.gen_range(0, 20)
    };
    let mut s = String::new();
    for _ in 0..len {
        if rng.gen_bool(0.1) {
            // A `\u` escape: valid hex, a bad digit, or cut short.
            let hex = format!("{:04x}", rng.next_u64() as u16);
            s.push_str("\\u");
            match rng.gen_range(0, 3) {
                0 => s.push_str(&hex),
                1 => s.push_str(&hex[..rng.gen_range(0, 4)]),
                _ => {
                    s.push_str(&hex[..2]);
                    s.push_str(rng.choose::<&str>(&["g", "µ", "+", "\""]));
                }
            }
        } else {
            s.push_str(rng.choose::<String>(pieces));
        }
    }
    s
}

fn parsed_str(input: &str) -> Result<String, String> {
    json::parse(input).map(|v| v.as_str().expect("a string document").to_string())
}

#[test]
fn escaping_matches_the_char_wise_writer() {
    let pieces = alphabet();
    let mut rng = Rng::new(0x0150_ac1e);
    for case in 0..20_000 {
        let s = random_string(&mut rng, &pieces);
        let want = json_oracle::escaped(&s);
        assert_eq!(json::escaped(&s), want, "case {case}: {s:?}");
        // Appending to a non-empty buffer changes nothing either.
        let mut out = String::from("{\"k\":");
        json::write_escaped(&mut out, &s);
        assert_eq!(out, format!("{{\"k\":{want}"), "case {case}");
        assert_eq!(parsed_str(&want), Ok(s), "case {case}: round trip");
    }
}

#[test]
fn string_reader_matches_the_char_wise_reader() {
    let pieces = alphabet();
    let mut rng = Rng::new(0x5eed_0f1a);
    for case in 0..20_000 {
        // Raw bodies: unescaped controls, stray backslashes, bad and cut
        // escapes, missing or early closing quotes, trailing bytes.
        let mut input = String::from("\"");
        input.push_str(&random_string(&mut rng, &pieces));
        if rng.gen_bool(0.8) {
            input.push('"');
        }
        if rng.gen_bool(0.1) {
            input.push_str(rng.choose::<&str>(&[" ", "\n", "x", " \"", "\\"]));
        }
        assert_eq!(
            parsed_str(&input),
            json_oracle::parse_string_doc(&input),
            "case {case}: {input:?}"
        );
    }
}

#[test]
fn corpus_programs_encode_and_decode_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pdce"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "corpus went missing?");
    for path in files {
        let program = std::fs::read_to_string(&path).expect("corpus file");
        let literal = json_oracle::escaped(&program);
        assert_eq!(json::escaped(&program), literal, "{}", path.display());
        assert_eq!(
            parsed_str(&literal),
            json_oracle::parse_string_doc(&literal),
            "{}",
            path.display()
        );
        let request = encode_request(Some("c"), &program, Mode::Pde);
        let doc = json::parse(&request).expect("request parses");
        assert_eq!(doc.get("program").and_then(|p| p.as_str()), Some(&*program));
    }
}
