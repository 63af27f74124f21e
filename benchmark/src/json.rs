//! A JSON writer, just large enough for the benchmark's result line,
//! its repeatability table and its span files. Objects keep insertion
//! order, so the same run always writes the same text.

use std::fmt::{self, Write as _};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers print without a fraction (`attempted`, `failed`).
    Int(i64),
    /// Measurements print with every digit they have; a value that is
    /// not finite has no JSON spelling and prints as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Compact, single-line output.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            // Rust prints the shortest text that reads back to the same
            // f64, and never in exponent form, so it is valid JSON.
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_nesting() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("ms"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Null, Json::Num(0.5)])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}, \
             \"list\": [null, 0.5]}"
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid() {
        assert_eq!(
            Json::Num(1.8512345678901234).to_string(),
            "1.8512345678901234"
        );
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(1e21).to_string(), "1000000000000000000000");
        assert_eq!(Json::Num(2.5e-7).to_string(), "0.00000025");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Int(-4).to_string(), "-4");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").to_string(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
        assert_eq!(
            Json::obj([("k\t", Json::Null)]).to_string(),
            "{\"k\\t\": null}"
        );
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
    }
}
