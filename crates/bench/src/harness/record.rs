//! The one writer and reader of the `BENCH_*.json` artifacts.
//!
//! Every gated experiment builds its document as a [`Value`] — ordered
//! objects and arrays whose numbers are rendered when the field is set,
//! at that field's decimal places ([`fixed`]) — opens it with the common
//! [`header`], and hands it to [`write()`]. The layout is decided here,
//! not per experiment: the root object and every container that holds
//! an array print one member per line at two-space indent; every other
//! container prints on one line, so each row of a sweep is one line of
//! the artifact.
//!
//! [`parse`] reads a document back. Scalars keep the text they were
//! written with, so a document read and rendered again reproduces every
//! figure digit for digit — how E17 rewrites its own scale's section and
//! preserves the other one.

use std::fmt::Write as _;

use crate::harness::Scale;

/// One JSON value of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number, `true`, `false` or `null`, kept as its JSON text.
    Raw(String),
    /// A string (escaped when rendered).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

/// JSON `null`.
pub fn null() -> Value {
    Value::Raw("null".to_owned())
}

/// `v` with exactly `places` decimals; NaN and ±inf become `null`.
pub fn fixed(v: f64, places: usize) -> Value {
    if v.is_finite() {
        Value::Raw(format!("{v:.places$}"))
    } else {
        null()
    }
}

/// The common header every artifact opens with: `experiment`, `scale`
/// (for an experiment that runs at one scale per artifact) and the
/// measuring host's `host_parallelism` (0 when unknown).
pub fn header(experiment: &str, scale: Option<Scale>) -> Value {
    let mut doc = Value::obj().with("experiment", experiment);
    if let Some(scale) = scale {
        doc = doc.with("scale", Value::Str(format!("{scale:?}")));
    }
    let host = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    doc.with("host_parallelism", host)
}

/// The environment variable that overrides `artifact`'s path:
/// `BENCH_daat.json` → `MOA_BENCH_DAAT_JSON`.
pub fn override_var(artifact: &str) -> String {
    let stem = artifact
        .trim_start_matches("BENCH_")
        .trim_end_matches(".json");
    format!("MOA_BENCH_{}_JSON", stem.to_uppercase())
}

/// Where `artifact` is written and read: the path in its
/// [`override_var`] when that is set, else `artifact` in the working
/// directory.
pub fn path(artifact: &str) -> String {
    std::env::var(override_var(artifact)).unwrap_or_else(|_| artifact.to_owned())
}

/// Render `doc` to [`path`]`(artifact)` and return that path. A failed
/// write is reported on stderr under the document's `experiment` id and
/// does not end the run: the measurement and its gates still stand.
pub fn write(artifact: &str, doc: &Value) -> String {
    let path = path(artifact);
    if let Err(e) = std::fs::write(&path, doc.render()) {
        let who = doc.get("experiment").and_then(Value::as_str);
        eprintln!("{}: could not write {path}: {e}", who.unwrap_or("bench"));
    }
    path
}

/// Read [`path`]`(artifact)` back: `None` when there is no file.
///
/// # Panics
///
/// When the file does not parse — a corrupt reference must not pass
/// for a missing one and silently skip the gates that read it.
pub fn read(artifact: &str) -> Option<Value> {
    let path = path(artifact);
    let text = std::fs::read_to_string(&path).ok()?;
    Some(parse(&text).unwrap_or_else(|e| panic!("{path} is not a valid artifact: {e}")))
}

impl Value {
    /// An empty object, to fill with [`Value::with`].
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// This object with the field `key: value` appended.
    ///
    /// # Panics
    ///
    /// On a value that is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        let Value::Obj(fields) = &mut self else {
            panic!("field {key:?} added to a non-object");
        };
        fields.push((key.to_owned(), value.into()));
        self
    }

    /// The value of field `key`; a missing field and a `null` one both
    /// read as `None`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Obj(fields) = self else {
            return None;
        };
        let (_, v) = fields.iter().find(|(k, _)| k == key)?;
        (*v != null()).then_some(v)
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Raw(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array; empty for any other value.
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// Render as an artifact document (layout in the module docs),
    /// newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// True when the value holds no array, at any depth.
    fn flat(&self) -> bool {
        match self {
            Value::Arr(_) => false,
            Value::Obj(fields) => fields.iter().all(|(_, v)| v.flat()),
            _ => true,
        }
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Raw(text) => return out.push_str(text),
            Value::Str(s) => return escape(out, s),
            Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(&k[..]), v)).collect(),
            ),
        };
        // The separator before each member: a space on one line, else a
        // newline and the member's indent.
        let one_line = depth > 0 && self.flat();
        let newline = |depth: usize| format!("\n{}", "  ".repeat(depth));
        out.push(open);
        for (i, (key, v)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match (one_line, i) {
                (true, 0) => {}
                (true, _) => out.push(' '),
                (false, _) => out.push_str(&newline(depth + 1)),
            }
            if let Some(key) = key {
                escape(out, key);
                out.push_str(": ");
            }
            v.render_into(out, depth + 1);
        }
        if !one_line && !members.is_empty() {
            out.push_str(&newline(depth));
        }
        out.push(close);
    }
}

/// Append `s` as a JSON string literal.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Raw(v.to_string())
            }
        }
    )*};
}
from_display!(bool, u32, u64, u128, usize);

impl From<f64> for Value {
    /// The shortest decimal that reads back as `v` (`1.0` renders as
    /// `1`); NaN and ±inf become `null`.
    fn from(v: f64) -> Value {
        if v.is_finite() {
            Value::Raw(v.to_string())
        } else {
            null()
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, at: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.at < text.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start().len();
    }

    /// Skip whitespace, then consume `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes().get(self.at) == Some(&b);
        self.at += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.eat(b'{') {
            let mut fields = Vec::new();
            self.members(b'}', |p| {
                let key = p.string()?;
                if !p.eat(b':') {
                    return Err(p.error("expected ':'"));
                }
                fields.push((key, p.value()?));
                Ok(())
            })?;
            return Ok(Value::Obj(fields));
        }
        if self.eat(b'[') {
            let mut items = Vec::new();
            self.members(b']', |p| {
                items.push(p.value()?);
                Ok(())
            })?;
            return Ok(Value::Arr(items));
        }
        if self.text.as_bytes().get(self.at) == Some(&b'"') {
            return self.string().map(Value::Str);
        }
        // A scalar token: a number, `true`, `false` or `null`.
        let rest = &self.text[self.at..];
        let token = &rest[..rest
            .find(|c: char| !c.is_ascii_alphanumeric() && !matches!(c, '-' | '+' | '.'))
            .unwrap_or(rest.len())];
        if !matches!(token, "true" | "false" | "null") && token.parse::<f64>().is_err() {
            return Err(self.error("expected a value"));
        }
        self.at += token.len();
        Ok(Value::Raw(token.to_owned()))
    }

    /// Comma-separated members, each read by `member`, up to `close`
    /// (the opener already consumed).
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            member(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or a closing bracket"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        let mut chars = self.text[self.at..].char_indices();
        while let Some((i, c)) = chars.next() {
            out.push(match c {
                '"' => {
                    self.at += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map_or(' ', |(_, e)| e) {
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        u32::from_str_radix(&hex, 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.error("bad \\u escape"))?
                    }
                    e @ ('"' | '\\' | '/') => e,
                    _ => return Err(self.error("bad escape")),
                },
                c => c,
            });
        }
        Err(self.error("unterminated string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = "a \"quoted\" \\ path\nline\ttab\r\u{1}\u{1f}é";
        let rendered = Value::from(s).render();
        let escaped = r#""a \"quoted\" \\ path\nline\ttab\r\u0001\u001fé""#;
        assert_eq!(rendered, format!("{escaped}\n"));
        assert_eq!(parse(&rendered), Ok(Value::from(s)));
    }

    #[test]
    fn floats_take_fixed_places_and_non_finite_ones_render_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(fixed(v, 3), null());
            assert_eq!(Value::from(v), null());
        }
        let raw = |s: &str| Value::Raw(s.to_owned());
        assert_eq!(fixed(1.0 / 3.0, 3), raw("0.333"));
        assert_eq!(fixed(2.0, 4), raw("2.0000"));
        assert_eq!(fixed(12712.6, 0), raw("12713"));
        assert_eq!(Value::from(1.0), raw("1"));
        assert_eq!(Value::from(1.75), raw("1.75"));
    }

    #[test]
    fn nested_layout_puts_array_rows_on_single_lines_and_reads_back() {
        let rows = (1..=2u32).map(|i| {
            Value::obj()
                .with("i", i)
                .with("inner", Value::obj().with("ok", true))
        });
        let doc = Value::obj()
            .with("experiment", "demo")
            .with(
                "section",
                Value::obj().with("rows", rows.collect::<Value>()),
            )
            .with("empty", Value::Arr(Vec::new()))
            .with("tail", Value::obj().with("ratio", fixed(f64::NAN, 3)));
        let rendered = doc.render();
        assert_eq!(
            rendered,
            "{\n  \"experiment\": \"demo\",\n  \"section\": {\n    \"rows\": [\n      \
             {\"i\": 1, \"inner\": {\"ok\": true}},\n      \
             {\"i\": 2, \"inner\": {\"ok\": true}}\n    ]\n  },\n  \"empty\": [],\n  \
             \"tail\": {\"ratio\": null}\n}\n"
        );
        let back = parse(&rendered).expect("renderer output parses");
        assert_eq!(back, doc);
        let rows = back.get("section").and_then(|s| s.get("rows"));
        assert_eq!(rows.map(|r| r.items().len()), Some(2));
        assert_eq!(back.get("tail").and_then(|t| t.get("ratio")), None);
    }

    #[test]
    fn reader_keeps_scalar_text_and_rejects_malformed_input() {
        let doc = header("e99", Some(Scale::Quick)).with("x", fixed(0.1, 4));
        let back = parse(&doc.render()).expect("renderer output parses");
        assert_eq!(back.get("experiment").and_then(Value::as_str), Some("e99"));
        assert_eq!(back.get("scale").and_then(Value::as_str), Some("Quick"));
        assert!(back
            .get("host_parallelism")
            .and_then(Value::as_f64)
            .is_some());
        assert_eq!(back.get("x"), Some(&Value::Raw("0.1000".to_owned())));
        assert_eq!(back.get("x").and_then(Value::as_f64), Some(0.1));
        let tokens = [Value::Raw("-1.5e3".to_owned()), false.into()];
        assert_eq!(parse(" [-1.5e3, false] "), Ok(tokens.into_iter().collect()));
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "[1 2]",
            "\"open",
            "nul",
            "{} x",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Every artifact at the repository root, the experiment that writes
    /// it, and the variable that overrides its path.
    const ARTIFACTS: [(&str, &str, &str); 8] = [
        ("BENCH_blocks.json", "e17", "MOA_BENCH_BLOCKS_JSON"),
        ("BENCH_cache.json", "e21", "MOA_BENCH_CACHE_JSON"),
        ("BENCH_daat.json", "e14", "MOA_BENCH_DAAT_JSON"),
        ("BENCH_obs.json", "e20", "MOA_BENCH_OBS_JSON"),
        ("BENCH_planner.json", "e15", "MOA_BENCH_PLANNER_JSON"),
        ("BENCH_resilience.json", "e19", "MOA_BENCH_RESILIENCE_JSON"),
        ("BENCH_serving.json", "e16", "MOA_BENCH_SERVING_JSON"),
        ("BENCH_throughput.json", "e18", "MOA_BENCH_THROUGHPUT_JSON"),
    ];

    #[test]
    fn committed_artifacts_parse_and_name_their_writer() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut committed: Vec<String> = std::fs::read_dir(&root)
            .expect("repository root is readable")
            .map(|e| {
                e.expect("directory entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        committed.sort();
        assert_eq!(committed, ARTIFACTS.map(|(artifact, ..)| artifact));
        for (artifact, writer, var) in ARTIFACTS {
            assert_eq!(override_var(artifact), var);
            let text = std::fs::read_to_string(root.join(artifact)).expect("artifact is readable");
            let doc = parse(&text).unwrap_or_else(|e| panic!("{artifact}: {e}"));
            let experiment = doc.get("experiment").and_then(Value::as_str);
            assert_eq!(experiment, Some(writer), "{artifact} names its writer");
            let host = doc.get("host_parallelism").and_then(Value::as_f64);
            assert!(host.is_some(), "{artifact} records host_parallelism");
        }
    }
}
