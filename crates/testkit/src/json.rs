//! A minimal JSON value type and writer.
//!
//! Replaces the `serde`/`serde_json` pair for the workspace's report
//! artifacts. Objects preserve insertion order, so a hand-written
//! `to_json` emits fields exactly in declaration order — the same layout a
//! `#[derive(Serialize)]` produced, which keeps downstream consumers of
//! `paper_figures --json` working unchanged.
//!
//! ```
//! use nlft_testkit::json::Json;
//!
//! let report = Json::obj([
//!     ("label", Json::from("NLFT/degraded")),
//!     ("points", Json::arr([Json::pair(0.0, 1.0), Json::pair(730.0, 0.97)])),
//!     ("mttf_years", Json::from(1.927)),
//! ]);
//! assert_eq!(
//!     report.to_string(),
//!     r#"{"label":"NLFT/degraded","points":[[0.0,1.0],[730.0,0.97]],"mttf_years":1.927}"#
//! );
//! ```

use std::fmt;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (emitted without a decimal point).
    Int(i64),
    /// An unsigned integer (emitted without a decimal point).
    UInt(u64),
    /// A floating-point number. Non-finite values serialise as `null`
    /// (JSON has no NaN/Infinity), matching `serde_json`'s lossy mode.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(field, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(fields: I) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A two-element number array — the serialisation of an `(f64, f64)`
    /// tuple, as in the figure point lists.
    pub fn pair(a: f64, b: f64) -> Json {
        Json::Arr(vec![Json::Num(a), Json::Num(b)])
    }

    /// Serialises to a compact string (no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(x) => write_f64(*x, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // `{}` prints the shortest representation that round-trips; add `.0`
    // when it looks like an integer so the value stays typed as a float.
    let s = format!("{x}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// Conversion to a [`Json`] value; the in-repo replacement for deriving
/// `serde::Serialize`. Implementations must emit fields in declaration
/// order to keep artifact layouts stable.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialise() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-3).to_string(), "-3");
        assert_eq!(Json::UInt(u64::MAX).to_string(), u64::MAX.to_string());
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(2.0).to_string(), "2.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn float_round_trips() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0007] {
            let s = Json::Num(x).to_string();
            let back: f64 = s.parse().unwrap();
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::from("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::from("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let j = Json::obj([
            ("zeta", Json::from(1u64)),
            ("alpha", Json::from(2u64)),
            ("mid", Json::from(3u64)),
        ]);
        assert_eq!(j.to_string(), r#"{"zeta":1,"alpha":2,"mid":3}"#);
    }

    #[test]
    fn nested_structures() {
        let j = Json::obj([(
            "rows",
            Json::arr([Json::obj([("ci", Json::pair(0.1, 0.2))])]),
        )]);
        assert_eq!(j.to_string(), r#"{"rows":[{"ci":[0.1,0.2]}]}"#);
        let j = Json::obj([
            ("group", Json::from("substrates")),
            (
                "benchmarks",
                Json::arr([Json::obj([
                    ("name", Json::from("pid_single_run")),
                    ("samples", Json::from(30u64)),
                    ("median_ns", Json::from(1044.5)),
                    ("neg", Json::Int(-3)),
                    ("flag", Json::Bool(true)),
                    ("none", Json::Null),
                ])]),
            ),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"group":"substrates","benchmarks":[{"name":"pid_single_run","samples":30,"median_ns":1044.5,"neg":-3,"flag":true,"none":null}]}"#
        );
    }

    #[test]
    fn vec_to_json_maps_elements() {
        struct P(u64);
        impl ToJson for P {
            fn to_json(&self) -> Json {
                Json::obj([("v", Json::UInt(self.0))])
            }
        }
        let v = vec![P(1), P(2)];
        assert_eq!(v.to_json().to_string(), r#"[{"v":1},{"v":2}]"#);
    }
}
