//! A minimal hand-rolled JSON writer.
//!
//! The workspace builds fully offline with no serialization crate, so
//! anything that needs a serialized form rolls its own — the
//! binary [`crate::codec`] for the shard wire protocol, and this
//! module for human/tool-facing JSON: `certify-lint --json` diagnostic
//! reports, campaign stats and reports, and flight-recorder dumps.
//!
//! Only the writing half exists (no parser), in two forms that emit
//! the same bytes:
//!
//! * a [`Json`] value tree, built programmatically and rendered with
//!   [`Json::render`] — the form for small, cold documents;
//! * streaming writers that append straight to a `String` through the
//!   crate-internal `write_u64` and `write_escaped` helpers, with no
//!   node, key or pair allocated per value — the form for documents
//!   with many records, such as [`crate::TraceDump::write_json`].
//!
//! The two meet in [`Json::Raw`]: a streamed document wrapped as a
//! value, which `render` splices in verbatim, so a tree can hold one.
//! Output is deterministic — object keys keep their insertion order —
//! and strings are escaped per RFC 8259 (quotes, backslashes, control
//! characters).

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point number. Non-finite values render as `null`
    /// (JSON has no NaN/Infinity).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys render in the order given (no sorting, no
    /// dedup) so output is deterministic and diff-friendly.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered compact JSON, spliced into the output verbatim.
    /// The holder vouches that it is one well-formed JSON value.
    Raw(String),
}

impl Json {
    /// A string value (convenience for `Json::Str(s.into())`).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the tree as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => write_u64(*n, out),
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
            Json::Raw(raw) => out.push_str(raw),
        }
    }
}

/// Appends `n` in decimal.
pub(crate) fn write_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Appends `s` as a JSON string literal, escaping per RFC 8259.
///
/// Only ASCII bytes are ever escaped, and no byte of a multi-byte
/// UTF-8 sequence is ASCII, so unescaped runs are copied as slices.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn containers_render_in_order() {
        let value = Json::obj([
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(value.render(), "{\"b\":1,\"a\":[null,false]}");
    }

    #[test]
    fn strings_escape_controls_and_quotes() {
        let s = Json::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(Vec::new()).render(), "[]");
        assert_eq!(Json::Obj(Vec::new()).render(), "{}");
    }

    #[test]
    fn raw_values_splice_verbatim_at_any_depth() {
        let raw = Json::Raw("{\"k\":[1,null]}".to_string());
        assert_eq!(raw.render(), "{\"k\":[1,null]}");
        let nested = Json::obj([
            ("a", raw.clone()),
            ("b", Json::Arr(vec![raw, Json::Raw("7".to_string())])),
        ]);
        assert_eq!(
            nested.render(),
            "{\"a\":{\"k\":[1,null]},\"b\":[{\"k\":[1,null]},7]}"
        );
    }

    #[test]
    fn write_u64_matches_display() {
        for n in [
            0,
            1,
            9,
            10,
            99,
            100,
            4096,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = String::from("x");
            write_u64(n, &mut out);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn write_escaped_matches_the_per_char_rfc8259_rules() {
        let mut text: String = (0u8..0x80).map(char::from).collect();
        text.push_str("é€😀\u{7f}\u{85}");
        let mut expected = String::from("\"");
        for c in text.chars() {
            match c {
                '"' => expected.push_str("\\\""),
                '\\' => expected.push_str("\\\\"),
                '\n' => expected.push_str("\\n"),
                '\r' => expected.push_str("\\r"),
                '\t' => expected.push_str("\\t"),
                c if (c as u32) < 0x20 => expected.push_str(&format!("\\u{:04x}", c as u32)),
                c => expected.push(c),
            }
        }
        expected.push('"');
        let mut out = String::new();
        write_escaped(&text, &mut out);
        assert_eq!(out, expected);
    }
}
