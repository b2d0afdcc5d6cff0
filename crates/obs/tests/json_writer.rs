//! The streaming writer prints what the tree prints.
//!
//! Seeded random documents — nested objects and arrays of strings drawn
//! from every ASCII control, `"`, `\`, DEL and multi-byte UTF-8, of
//! integers from 0 to 2^53, of booleans and nulls — are rendered three
//! ways: through [`JsonWriter`], through [`Json::to_text`], and through
//! a reference printer kept here (the `fmt`-based one the tree used
//! before the two shared their routines). All three must be the same
//! bytes, and the text must parse back to the tree.

use prospector_obs::json::JsonWriter;
use prospector_obs::{Json, SmallRng};

/// Characters strings are drawn from: every ASCII control, the two
/// characters JSON escapes by name, DEL, plain ASCII, and 2-, 3- and
/// 4-byte UTF-8 (U+2028 is legal unescaped in JSON).
fn alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '\u{7f}', 'a', 'Z', '0', ' ', '/', ':', 'é', '日', '\u{2028}', '🦀']);
    chars
}

fn random_string(rng: &mut SmallRng, alphabet: &[char]) -> String {
    (0..rng.gen_range(0..24)).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
}

/// An integer in `0..=2^53`, biased toward the edges where digit counts
/// change.
fn random_int(rng: &mut SmallRng) -> u64 {
    const EDGES: [u64; 8] = [0, 9, 10, 99, 1 << 32, 999_999_999_999, 1 << 52, 1 << 53];
    match rng.gen_range(0..4) {
        0 => EDGES[rng.gen_range(0..EDGES.len())],
        1 => rng.gen_range(0..1_000) as u64,
        _ => rng.gen_range(0..=1usize << 53) as u64,
    }
}

fn random_value(rng: &mut SmallRng, alphabet: &[char], depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Str(random_string(rng, alphabet)),
        1 => Json::num_u(random_int(rng)),
        2 => Json::Bool(rng.gen_bool(0.5)),
        3 => Json::Null,
        4 => Json::Arr(
            (0..rng.gen_range(0..5)).map(|_| random_value(rng, alphabet, depth - 1)).collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5))
                .map(|_| (random_string(rng, alphabet), random_value(rng, alphabet, depth - 1)))
                .collect(),
        ),
    }
}

/// Drives the writer over a tree.
fn emit(value: &Json, w: &mut JsonWriter<'_>) {
    match value {
        Json::Null => {
            w.null();
        }
        Json::Bool(b) => {
            w.bool(*b);
        }
        Json::Num(n) => {
            // The generator makes integers in `0..=2^53`, all exact.
            w.u64(*n as u64);
        }
        Json::Str(s) => {
            w.str(s);
        }
        Json::Arr(items) => {
            w.begin_arr();
            for item in items {
                emit(item, w);
            }
            w.end_arr();
        }
        Json::Obj(pairs) => {
            w.begin_obj();
            for (k, v) in pairs {
                w.key(k);
                emit(v, w);
            }
            w.end_obj();
        }
    }
}

/// The reference printer: one `char` at a time, `fmt` for numbers and
/// `\u` escapes.
fn reference(value: &Json, out: &mut String) {
    use std::fmt::Write;
    fn string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => write!(out, "{b}").unwrap(),
        Json::Num(n) => write!(out, "{}", *n as i64).unwrap(),
        Json::Str(s) => string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                string(k, out);
                out.push(':');
                reference(v, out);
            }
            out.push('}');
        }
    }
}

#[test]
fn writer_tree_and_reference_print_the_same_bytes() {
    let alphabet = alphabet();
    let mut rng = SmallRng::seed_from_u64(29);
    for round in 0..3_000 {
        let value = random_value(&mut rng, &alphabet, 4);
        let mut written = String::new();
        emit(&value, &mut JsonWriter::new(&mut written));
        let mut expected = String::new();
        reference(&value, &mut expected);
        assert_eq!(written, expected, "round {round}: writer differs from the reference");
        assert_eq!(value.to_text(), expected, "round {round}: tree differs from the reference");
        assert_eq!(Json::parse(&written).expect("strict JSON"), value, "round {round}");
    }
}

#[test]
fn every_control_character_and_edge_integer_prints_as_before() {
    for b in 0u8..0x80 {
        let s = format!("x{}y", char::from(b));
        let mut written = String::new();
        JsonWriter::new(&mut written).str(&s);
        let mut expected = String::new();
        reference(&Json::Str(s.clone()), &mut expected);
        assert_eq!(written, expected, "byte {b:#04x}");
    }
    for n in [0, 1, 9, 10, 4_294_967_296, (1 << 53) - 1, 1 << 53] {
        let mut written = String::new();
        JsonWriter::new(&mut written).u64(n);
        assert_eq!(written, n.to_string());
        assert_eq!(Json::num_u(n).to_text(), n.to_string());
    }
    for n in [0, 1, 0xf, 0x10, 0x1_0000_0000_0001, u64::MAX] {
        let mut written = String::new();
        JsonWriter::new(&mut written).hex(n);
        assert_eq!(written, format!("\"{n:x}\""));
    }
    // Negative integers and fractions still print through the tree.
    assert_eq!(Json::Num(-7.0).to_text(), "-7");
    assert_eq!(Json::Num(-0.0).to_text(), "0");
    assert_eq!(Json::Num(2.5).to_text(), "2.5");
}
