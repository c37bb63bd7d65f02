//! Property tests: [`Json::parse`] reads what [`Json`] prints, never panics, and is linear.
//!
//! The reader is the first thing a request body meets, so it is held to four things here:
//! what the writer renders parses back to the same tree; its string arm — which copies a
//! whole run of ordinary characters at a time — agrees with a reference that takes one
//! character at a time, on literals built to break a run anywhere, an escape at any byte and a
//! `\u` across a multibyte character; no input makes it panic, however it was damaged; and
//! its time grows with the bytes it is given, not with their square.

use proptest::prelude::*;
use proptest::TestRng;
use std::time::{Duration, Instant};
use urm_server::Json;

/// Pieces a string is drawn from: ASCII, two-, three- and four-byte characters, the two
/// characters that end a run, every kind of control, DEL, and text that looks like an escape.
#[rustfmt::skip]
const PIECES: [&str; 14] = [
    "a", "plain text", "é", "✓", "𝄞", "\"", "\\", "\n", "\t", "\u{0}", "\u{1f}", "\u{7f}", "/",
    "\\u0041",
];

fn text(rng: &mut TestRng) -> String {
    (0..rng.index(8))
        .map(|_| PIECES[rng.index(PIECES.len())])
        .collect()
}

/// A tree up to `depth` containers deep.  Numbers are finite — the writer prints the others
/// as `null` — and their rendering is the shortest that reads back to the same `f64`.
fn tree(rng: &mut TestRng, depth: usize) -> Json {
    match rng.index(if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.index(2) == 0),
        2 => Json::Num([0.0, -0.0, 1.0, -2.5, 0.1 + 0.2, 1e300, 5e-324][rng.index(7)]),
        3 => Json::Num(rng.unit_f64() * 1e6 - 5e5),
        4 => Json::Str(text(rng)),
        5 => Json::Arr((0..rng.index(4)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.index(4))
                .map(|_| (text(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// The inside of a string literal, well-formed or not: ordinary characters of every width,
/// every escape, `\u` with good, short and non-hex digits, surrogates paired and alone, raw
/// controls, and a `\u` whose four bytes end inside a multibyte character.
#[rustfmt::skip]
const LITERAL_PIECES: [&str; 30] = [
    "a", "text", "é", "✓", "𝄞", "\n", "\u{1}", "/", "\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t",
    "\\b", "\\f", "\\u0041", "\\u00e9", "\\uD83D", "\\ude00", "\\ud83d\\ude00", "\\uDBFF\\uDFFF",
    "\\u12", "\\uZZZZ", "\\u+041", "\\u12é", "\\u", "\\x", "\\é", "\\",
];

/// A literal: an opening quote, pieces, and — most of the time — a closing quote; sometimes
/// cut short at an arbitrary character.
fn literal(rng: &mut TestRng) -> String {
    let mut out = String::from("\"");
    for _ in 0..rng.index(10) {
        out.push_str(LITERAL_PIECES[rng.index(LITERAL_PIECES.len())]);
    }
    if rng.index(8) > 0 {
        out.push('"');
    }
    if rng.index(6) == 0 {
        let cut = out.floor_char_boundary(rng.index(out.len() + 1));
        out.truncate(cut);
    }
    out
}

/// The reference string reader: one character at a time, each pushed on its own.  It shares
/// no scanning with the reader under test — no runs, no byte search — only the meaning of the
/// escapes.  `Err` carries nothing: the two must agree on *whether* a literal is refused.
fn reference_string(literal: &str) -> Result<String, ()> {
    /// Four *bytes* of hex, as the wire counts them: a character that straddles the fourth is
    /// an error, and so is anything `from_str_radix` refuses.
    fn hex4(chars: &mut std::str::Chars<'_>) -> Result<u32, ()> {
        let mut digits = String::new();
        while digits.len() < 4 {
            digits.push(chars.next().ok_or(())?);
        }
        if digits.len() > 4 {
            return Err(());
        }
        u32::from_str_radix(&digits, 16).map_err(|_| ())
    }

    let mut chars = literal.chars();
    if chars.next() != Some('"') {
        return Err(());
    }
    let mut out = String::new();
    loop {
        match chars.next().ok_or(())? {
            // Anything after the closing quote is trailing data.
            '"' => return chars.next().map_or(Ok(out), |_| Err(())),
            '\\' => match chars.next().ok_or(())? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let mut code = hex4(&mut chars)?;
                    // A high surrogate takes the low one that follows it, if one does.
                    let mut ahead = chars.clone();
                    if ahead.next() == Some('\\') && ahead.next() == Some('u') {
                        if let (0xd800..=0xdbff, Ok(low @ 0xdc00..=0xdfff)) =
                            (code, hex4(&mut ahead))
                        {
                            code = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            chars = ahead;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(()),
            },
            ordinary => out.push(ordinary),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) What the writer prints, the reader reads back — value for value, and byte for byte
    /// when printed again.
    #[test]
    fn rendered_trees_parse_back_to_themselves(seed in any::<u64>()) {
        let doc = tree(&mut TestRng::seed_from_u64(seed), 4);
        let rendered = doc.to_string();
        let parsed = Json::parse(&rendered);
        prop_assert_eq!(parsed.as_ref(), Ok(&doc), "{}", rendered);
        prop_assert_eq!(parsed.unwrap().to_string(), rendered);
    }

    /// (b) The run-wise string arm and the character-wise reference agree on every literal:
    /// the same string, or both refuse.
    #[test]
    fn the_string_arm_agrees_with_a_character_at_a_time_reference(seed in any::<u64>()) {
        let literal = literal(&mut TestRng::seed_from_u64(seed));
        let expected = reference_string(&literal).map(Json::Str);
        prop_assert_eq!(Json::parse(&literal).map_err(|_| ()), expected, "{:?}", literal);
    }

    /// (c) Damaged documents — one byte's character deleted, or cut short — and arbitrary text
    /// are answered with `Ok` or `Err`, never a panic.
    #[test]
    fn no_input_panics_the_reader(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let rendered = tree(&mut rng, 4).to_string();
        let at = rendered.floor_char_boundary(rng.index(rendered.len()));
        let width = rendered[at..].chars().next().map_or(0, char::len_utf8);
        let _ = Json::parse(&format!("{}{}", &rendered[..at], &rendered[at + width..]));
        let _ = Json::parse(&rendered[..at]);

        let soup: String = (0..rng.index(40))
            .map(|_| match rng.index(3) {
                0 => ["{", "}", "[", "]", ":", ",", "\"", "\\", "-", "e", "."][rng.index(11)],
                1 => ["null", "true", "false", "nul", "1", "-0.5e3", " ", "\n"][rng.index(8)],
                _ => LITERAL_PIECES[rng.index(LITERAL_PIECES.len())],
            })
            .collect();
        let _ = Json::parse(&soup);

        // A digit run nothing parses, as long as it likes: refused in a line with its offset.
        let run = ["1-", "-", "1e", "5.", "0+"][rng.index(5)].repeat(2 + rng.index(3_000));
        let refusal = Json::parse(&format!("[{run}]")).unwrap_err();
        prop_assert!(refusal.starts_with("bad number '") && refusal.ends_with("at byte 1"));
        prop_assert!(refusal.len() < 200, "{} bytes for a {}-byte run", refusal.len(), run.len());
    }
}

/// (d) Linear, stated as a bound a reader quadratic in the document misses by two orders of
/// magnitude even in a release build: a debug build reads each of these in under a second.
#[test]
fn a_megabyte_string_and_six_thousand_short_ones_parse_in_linear_time() {
    let one_string = format!("{{\"spec\":\"{}\"}}", "aé".repeat((1 << 20) / 3));
    let short: Vec<String> = (0..6_000)
        .map(|i| {
            format!(
                "[\"({i}, some \\\"quoted\\\" téxt as wide as an answer's tuple, {i})\",0.015625]"
            )
        })
        .collect();
    let many_strings = format!("{{\"answers\":[{}]}}", short.join(","));
    assert!(one_string.len() >= 1 << 20 && many_strings.len() >= 400_000);
    for document in [one_string, many_strings] {
        let started = Instant::now();
        let parsed = Json::parse(&document);
        let took = started.elapsed();
        assert!(parsed.is_ok());
        assert!(
            took < Duration::from_secs(1),
            "{} bytes took {took:?}",
            document.len()
        );
    }
}
