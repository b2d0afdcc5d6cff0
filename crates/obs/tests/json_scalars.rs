//! The string parser's one `unsafe` statement (`from_utf8_unchecked` on
//! the bytes after the cursor, in `obs::json`) is sound only while the
//! cursor sits on a char boundary. Here 2-, 3- and 4-byte scalars sit at
//! every offset of a string, beside `\uXXXX` escapes, escaped surrogate
//! pairs and named escapes, and as the last character; each text must
//! parse to exactly the string it spells. A seeded loop then writes
//! random-scalar strings with `JsonWriter::str` and parses them back
//! equal.

use prospector_obs::json::JsonWriter;
use prospector_obs::{Json, SmallRng};

/// 2-, 3- and 4-byte scalars, the first and last of each width included.
const WIDE: [char; 6] = ['\u{80}', '\u{7ff}', '\u{800}', '\u{ffff}', '\u{10000}', '\u{10ffff}'];

/// Escapes, each with what it decodes to.
const ESCAPES: [(&str, &str); 6] = [
    (r"\u0041", "A"),
    (r"\u00e9", "é"),
    (r"\u65e5", "日"),
    (r"\ud83e\udd80", "🦀"),
    (r"\udbff\udfff", "\u{10ffff}"),
    (r#"\n\"\\"#, "\n\"\\"),
];

fn parsed(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e:?}"))
}

fn parsed_str(text: &str) -> String {
    match parsed(text) {
        Json::Str(s) => s,
        other => panic!("{text}: {other:?}"),
    }
}

#[test]
fn multibyte_scalars_at_every_offset_parse_back() {
    let filler = "abcdefg";
    for c in WIDE {
        for (escape, decoded) in ESCAPES {
            for at in 0..=filler.len() {
                let (head, tail) = filler.split_at(at);
                let cases = [
                    (format!("{head}{c}{tail}"), format!("{head}{c}{tail}")),
                    (format!("{head}{escape}{c}{tail}"), format!("{head}{decoded}{c}{tail}")),
                    (format!("{head}{c}{escape}{tail}"), format!("{head}{c}{decoded}{tail}")),
                    (format!("{head}{c}{c}{escape}{c}"), format!("{head}{c}{c}{decoded}{c}")),
                ];
                for (body, want) in cases {
                    assert_eq!(parsed_str(&format!("\"{body}\"")), want, "\"{body}\"");
                }
            }
        }
    }
}

#[test]
fn lone_surrogates_degrade_and_pairs_join() {
    for (text, want) in [
        (r#""\ud83e\udd80""#, "🦀"),
        (r#""\ud83e\udd80x""#, "🦀x"),
        (r#""\ud83e""#, "\u{fffd}"),
        (r#""\udd80\ud83e""#, "\u{fffd}\u{fffd}"),
        (r#""\ud83eé""#, "\u{fffd}é"),
        (r#""\ud83eA""#, "\u{fffd}A"),
        (r#""\ud83e🦀""#, "\u{fffd}🦀"),
        (r#""\ud83e\n""#, "\u{fffd}\n"),
    ] {
        assert_eq!(parsed_str(text), want, "{text}");
    }
    for bad in [r#""\ud83e\udd8""#, r#""\ud83e\uzzzz""#, r#""\ud83e\u"#] {
        assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
    }
}

/// ASCII, a scalar of each UTF-8 width, or a character JSON escapes.
fn random_scalar(rng: &mut SmallRng) -> char {
    loop {
        let code = match rng.gen_range(0..5) {
            0 => rng.gen_range(0x20..0x80),
            1 => rng.gen_range(0x80..0x800),
            2 => rng.gen_range(0x800..0x1_0000),
            3 => rng.gen_range(0x1_0000..0x11_0000),
            _ => [0x22, 0x5c, 0x0a, 0x1f, 0x7f][rng.gen_range(0..5)],
        };
        // Surrogate code points are not scalars; draw again.
        if let Some(c) = char::from_u32(u32::try_from(code).expect("below 0x110000")) {
            return c;
        }
    }
}

#[test]
fn seeded_random_scalar_strings_round_trip_through_the_writer() {
    let mut rng = SmallRng::seed_from_u64(0x0005_ca1a);
    let string = |rng: &mut SmallRng| -> String {
        (0..rng.gen_range(0..16)).map(|_| random_scalar(rng)).collect()
    };
    for _ in 0..5_000 {
        let (a, b) = (string(&mut rng), string(&mut rng));
        let mut out = String::new();
        JsonWriter::new(&mut out).begin_arr().str(&a).str(&b).end_arr();
        assert_eq!(parsed(&out), Json::Arr(vec![Json::Str(a), Json::Str(b)]), "{out}");
    }
}
