//! JSON import/export for classads.
//!
//! The mapping keeps classads interoperable with ordinary tooling while
//! remaining lossless:
//!
//! * literal integers, reals, strings and booleans map to JSON scalars;
//! * lists map to arrays and nested records map to objects;
//! * `undefined` maps to `null`, `error` maps to `{"$error": true}`;
//! * any *computed* expression (the interesting part of a classad — its
//!   `Constraint` and `Rank`) maps to `{"$expr": "<classad source>"}`.
//!
//! The JSON reader/writer here is self-contained (no external crates),
//! handles `\uXXXX` escapes including surrogate pairs, and rejects malformed
//! input with positioned errors.
//!
//! What every ad of a pool shares is decoded once per process: top-level
//! attribute names and `$expr` trees, each under a fixed bound
//! (`NAME_CAP_BYTES`, `INTERN_CAP_BYTES`).

use crate::ast::{AttrName, Expr, Literal};
use crate::classad::ClassAd;
use crate::error::{ParseError, Span};
use crate::parser::parse_expr;
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

/// Serialize a classad to a compact JSON string.
pub fn to_json(ad: &ClassAd) -> String {
    let mut out = String::new();
    write_ad(&mut out, ad);
    out
}

fn write_ad(out: &mut String, ad: &ClassAd) {
    out.push('{');
    for (i, (name, expr)) in ad.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(out, name.as_str());
        out.push(':');
        write_expr(out, expr);
    }
    out.push('}');
}

fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Lit(Literal::Undefined) => out.push_str("null"),
        Expr::Lit(Literal::Error) => out.push_str("{\"$error\":true}"),
        Expr::Lit(Literal::Bool(b)) => out.push_str(if *b { "true" } else { "false" }),
        Expr::Lit(Literal::Int(i)) => {
            let _ = write!(out, "{i}");
        }
        Expr::Lit(Literal::Real(r)) => {
            if r.is_finite() {
                let s = format!("{r}");
                out.push_str(&s);
                if !(s.contains('.') || s.contains('e') || s.contains('E')) {
                    out.push_str(".0");
                }
            } else {
                // JSON has no infinities; fall back to an expression marker.
                let _ = write!(out, "{{\"$expr\":{}}}", json_quote(&format!("{e}")));
            }
        }
        Expr::Lit(Literal::Str(s)) => write_json_string(out, s),
        Expr::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_expr(out, item);
            }
            out.push(']');
        }
        Expr::Record(fields) => {
            out.push('{');
            for (i, (n, fe)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, n.as_str());
                out.push(':');
                write_expr(out, fe);
            }
            out.push('}');
        }
        other => {
            let _ = write!(out, "{{\"$expr\":{}}}", json_quote(&format!("{other}")));
        }
    }
}

fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

/// Append `s` to `out` as a quoted JSON string. `"` and `\` are
/// backslash-escaped, newline, tab and carriage return become `\n`, `\t`
/// and `\r`, other control characters `\u00xx`, and everything else is
/// copied as is. This is the workspace's one JSON string escaper: ads,
/// journal lines and simulator traces all go through it.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document (in the mapping produced by [`to_json`]) into a
/// classad. The top-level value must be an object.
///
/// Top-level attribute names and `{"$expr": "<source>"}` values resolve
/// through a process-wide interner: ads carrying the same `Constraint` or
/// `Rank` text share one `Arc<Expr>`, parsed once, and ads spelling a name
/// the same way share one [`AttrName`].
pub fn from_json(src: &str) -> Result<ClassAd, ParseError> {
    let mut p = JsonParser {
        src: src.as_bytes(),
        text: src,
        pos: 0,
    };
    p.skip_ws();
    let fields = if p.peek() == Some(b'{') {
        let mut attrs = Vec::new();
        if let Err(e) = p.members(JsonParser::attr_value, &mut attrs) {
            // A one-pass reader would have parsed every `$expr` before the
            // failure, so a malformed one among them is the error to report.
            for (_, v) in &attrs {
                if let Pending::Source(s) = v {
                    interned_expr(s)?;
                }
            }
            return Err(e);
        }
        let fields = resolve(attrs)?;
        match p.marker(&fields)? {
            None => Some(fields),
            // A document that is itself a marker object.
            Some(m) => match &mut m.into_expr()? {
                Expr::Record(fs) => Some(fs.drain(..).map(|(n, e)| (n, Arc::new(e))).collect()),
                _ => None,
            },
        }
    } else {
        p.value()?;
        None
    };
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    let fields = fields.ok_or_else(|| {
        ParseError::new(Span::default(), "top-level JSON value must be an object")
    })?;
    let mut ad = ClassAd::with_capacity(fields.len());
    for (n, e) in fields {
        ad.insert(n, e);
    }
    Ok(ad)
}

/// Names and sources of one document's top-level attributes, resolved under
/// one lock. A source the interner lacks is parsed after the lock is
/// released, in document order, so the first malformed one is the error.
fn resolve(
    attrs: Vec<(Cow<'_, str>, Pending<'_>)>,
) -> Result<Vec<(AttrName, Arc<Expr>)>, ParseError> {
    let mut fields = Vec::with_capacity(attrs.len());
    let mut misses = Vec::new();
    {
        let mut it = interner();
        for (key, value) in attrs {
            let expr = match value {
                Pending::Parsed(e) => e,
                Pending::Source(src) => match it.tree(src) {
                    Some(e) => e,
                    None => {
                        misses.push((fields.len(), src));
                        // A placeholder, replaced below.
                        Arc::new(Expr::Lit(Literal::Undefined))
                    }
                },
            };
            fields.push((it.name(&key), expr));
        }
    }
    for (i, src) in misses {
        fields[i].1 = interned_expr(src)?;
    }
    Ok(fields)
}

/// `$expr` sources longer than this are parsed but not interned.
const INTERN_MAX_SOURCE: usize = 4 * 1024;

/// Cap on the total source text the interner holds. An insert that would
/// pass it empties the interner first, so a peer sending endless distinct
/// expressions costs a parse each, as it would without the interner, and
/// no more memory.
#[doc(hidden)]
pub const INTERN_CAP_BYTES: usize = 1024 * 1024;

/// Attribute names longer than this are decoded but not interned.
const INTERN_MAX_NAME: usize = 128;

/// Cap on what the name table is charged ([`name_cost`]); an insert that
/// would pass it empties the table first.
#[doc(hidden)]
pub const NAME_CAP_BYTES: usize = 256 * 1024;

/// What one interned name costs: its spelling three times (the key, the
/// display form and at worst a separate case-folded form) plus the
/// reference-count headers, pointers, map slot and allocator overhead.
fn name_cost(spelling: &str) -> usize {
    3 * spelling.len() + 128
}

/// What decoders share, process-wide. Sharing is sound because neither an
/// `Arc<Expr>` nor an `AttrName` is ever mutated in place.
#[derive(Default)]
struct Interner {
    /// Source text → parsed tree.
    exprs: HashMap<Box<str>, Arc<Expr>>,
    /// Source text held.
    bytes: usize,
    /// Exact spelling → name. Keyed by spelling, not by the case-folded
    /// form `AttrName` compares by, so `Memory` never decodes as `MEMORY`.
    names: HashMap<Box<str>, AttrName>,
    /// Sum of [`name_cost`] over `names`.
    name_bytes: usize,
}

impl Interner {
    /// The tree interned for `src`, if any.
    fn tree(&self, src: &str) -> Option<Arc<Expr>> {
        if src.len() > INTERN_MAX_SOURCE {
            return None;
        }
        self.exprs.get(src).cloned()
    }

    fn name(&mut self, spelling: &str) -> AttrName {
        if spelling.len() > INTERN_MAX_NAME {
            return AttrName::new(spelling);
        }
        if let Some(name) = self.names.get(spelling) {
            return name.clone();
        }
        let cost = name_cost(spelling);
        if self.name_bytes + cost > NAME_CAP_BYTES {
            self.names.clear();
            self.name_bytes = 0;
        }
        let name = AttrName::new(spelling);
        self.name_bytes += cost;
        self.names.insert(spelling.into(), name.clone());
        name
    }
}

static INTERNER: LazyLock<Mutex<Interner>> = LazyLock::new(Mutex::default);

fn interner() -> MutexGuard<'static, Interner> {
    // The maps are consistent at every unlock, so a panic elsewhere while
    // they were held leaves nothing to repair.
    INTERNER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Total source text currently interned (for bound tests).
#[doc(hidden)]
pub fn interned_bytes() -> usize {
    interner().bytes
}

/// What the interned names are charged against [`NAME_CAP_BYTES`] (for
/// bound tests).
#[doc(hidden)]
pub fn interned_name_bytes() -> usize {
    interner().name_bytes
}

/// Parse `src`, or return the tree an earlier call parsed from the same
/// text. Errors are not cached: a malformed source is re-parsed and fails
/// the same way every time.
fn interned_expr(src: &str) -> Result<Arc<Expr>, ParseError> {
    if src.len() > INTERN_MAX_SOURCE {
        return parse_expr(src).map(Arc::new);
    }
    if let Some(e) = interner().tree(src) {
        return Ok(e);
    }
    let parsed = Arc::new(parse_expr(src)?);
    let mut guard = interner();
    let it = &mut *guard;
    if it.bytes + src.len() > INTERN_CAP_BYTES {
        it.exprs.clear();
        it.bytes = 0;
    }
    // Another thread may have parsed the same text meanwhile; the first
    // insert wins so every caller shares one tree.
    let e = it.exprs.entry(src.into()).or_insert_with(|| {
        it.bytes += src.len();
        parsed
    });
    Ok(Arc::clone(e))
}

/// A top-level attribute value as first read: a tree, or the source of a
/// compact `$expr` marker still to resolve through the interner.
enum Pending<'a> {
    Parsed(Arc<Expr>),
    Source(&'a str),
}

/// A one-member object whose key is `$error` or `$expr` stands for a
/// value, not a record.
enum Marker {
    Error,
    Expr(Arc<str>),
}

impl Marker {
    fn into_expr(self) -> Result<Expr, ParseError> {
        match self {
            Marker::Error => Ok(Expr::Lit(Literal::Error)),
            Marker::Expr(src) => parse_expr(&src),
        }
    }
}

struct JsonParser<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        // Count newlines over bytes: `pos` may sit mid-character when the
        // error is a malformed multi-byte sequence, and slicing the &str
        // there would panic.
        let upto = self.pos.min(self.src.len());
        let line = 1 + self.src[..upto].iter().filter(|&&b| b == b'\n').count() as u32;
        ParseError::new(Span::new(self.pos, self.pos, line, 1), msg.to_string())
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.src.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str) -> bool {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Expr, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.lit("null") {
                    Ok(Expr::Lit(Literal::Undefined))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.lit("true") {
                    Ok(Expr::bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.lit("false") {
                    Ok(Expr::bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => {
                let s = self.string()?;
                Ok(Expr::Lit(Literal::Str(Arc::from(&*s))))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Expr::List(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat(b',') {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Expr::List(items));
                }
            }
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// A nested object: a record, or a marker parsed without the interner.
    fn object(&mut self) -> Result<Expr, ParseError> {
        let fields = self.record()?;
        match self.marker(&fields)? {
            None => Ok(Expr::Record(fields)),
            Some(m) => m.into_expr(),
        }
    }

    /// The fields of a nested object.
    fn record(&mut self) -> Result<Vec<(AttrName, Expr)>, ParseError> {
        let mut members = Vec::new();
        self.members(JsonParser::value, &mut members)?;
        Ok(members
            .into_iter()
            .map(|(k, v)| (AttrName::new(&k), v))
            .collect())
    }

    /// The value of a top-level attribute: an `$expr` marker resolves
    /// through the interner (the compact form after the whole document is
    /// read), anything else parses as [`Self::value`].
    fn attr_value(&mut self) -> Result<Pending<'a>, ParseError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return self.value().map(|e| Pending::Parsed(Arc::new(e)));
        }
        if let Some(src) = self.compact_marker() {
            return Ok(Pending::Source(src));
        }
        let fields = self.record()?;
        let tree = match self.marker(&fields)? {
            None => Arc::new(Expr::Record(fields)),
            Some(Marker::Expr(src)) => interned_expr(&src)?,
            Some(m) => Arc::new(m.into_expr()?),
        };
        Ok(Pending::Parsed(tree))
    }

    /// `{"$expr":"<source>"}` exactly as [`write_expr`] emits it, with no
    /// escape in the source: consumes the marker and returns the source.
    /// Any other shape consumes nothing and returns `None`.
    fn compact_marker(&mut self) -> Option<&'a str> {
        const OPEN: &[u8] = b"{\"$expr\":\"";
        if !self.src[self.pos..].starts_with(OPEN) {
            return None;
        }
        let start = self.pos + OPEN.len();
        let end = self.plain_string_end(start)?;
        if self.src.get(end + 1) != Some(&b'}') {
            return None;
        }
        self.pos = end + 2;
        let text = self.text;
        Some(&text[start..end])
    }

    /// Where the string body starting at `start` closes, if it has no
    /// escape: such a body is its own value and can be borrowed.
    fn plain_string_end(&self, start: usize) -> Option<usize> {
        let n = self.src[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        (self.src[start + n] == b'"').then_some(start + n)
    }

    /// The `"key": value` members of an object, each value read by `value`,
    /// appended to `out` (so a caller keeps what was read before an error).
    fn members<V>(
        &mut self,
        value: fn(&mut Self) -> Result<V, ParseError>,
        out: &mut Vec<(Cow<'a, str>, V)>,
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = value(self)?;
            out.push((key, val));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            return self.expect(b'}');
        }
    }

    fn marker<V: Borrow<Expr>>(
        &self,
        fields: &[(AttrName, V)],
    ) -> Result<Option<Marker>, ParseError> {
        let [(k, v)] = fields else {
            return Ok(None);
        };
        match k.canonical() {
            "$error" => Ok(Some(Marker::Error)),
            "$expr" => match v.borrow() {
                Expr::Lit(Literal::Str(src)) => Ok(Some(Marker::Expr(Arc::clone(src)))),
                _ => Err(self.err("$expr marker must hold a string")),
            },
            _ => Ok(None),
        }
    }

    /// A string, borrowed from the document unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        if let Some(end) = self.plain_string_end(start) {
            self.pos = end + 1;
            let text = self.text;
            return Ok(Cow::Borrowed(&text[start..end]));
        }
        self.escaped_string().map(Cow::Owned)
    }

    /// The body of a string holding an escape, decoded char by char.
    fn escaped_string(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: copy the whole char.
                    let start = self.pos - 1;
                    let c = self.text[start..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("bad utf8"))?;
                    self.pos = start + c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        // `get` instead of indexing: a multi-byte char inside the escape
        // (e.g. `\u00é0`) would otherwise cut a char boundary and panic.
        let s = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated or malformed \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Expr, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_real = false;
        if self.eat(b'.') {
            is_real = true;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_real = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if is_real {
            text.parse::<f64>()
                .map(Expr::real)
                .map_err(|_| self.err("bad number"))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Expr::int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Expr::real)
                    .map_err(|_| self.err("bad number")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_classad;

    fn roundtrip(src: &str) {
        let ad = parse_classad(src).unwrap();
        let js = to_json(&ad);
        let back = from_json(&js).unwrap_or_else(|e| panic!("bad json `{js}`: {e}"));
        assert_eq!(ad, back, "json round-trip changed ad; json was `{js}`");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(r#"[ a = 1; b = 2.5; c = "hi"; d = true; e = false ]"#);
    }

    #[test]
    fn undefined_and_error_roundtrip() {
        roundtrip("[ u = undefined; e = error ]");
        let ad = parse_classad("[ u = undefined ]").unwrap();
        assert_eq!(to_json(&ad), "{\"u\":null}");
    }

    #[test]
    fn lists_and_records_roundtrip() {
        roundtrip(r#"[ xs = { 1, "two", 3.0 }; r = [ nested = { true } ] ]"#);
    }

    #[test]
    fn computed_expressions_roundtrip() {
        roundtrip(r#"[ Rank = KFlops/1E3 + other.Memory/32; Constraint = a && b || !c ]"#);
        roundtrip(r#"[ policy = [ Requirement = other.Memory >= 32 && Arch == "INTEL" ] ]"#);
    }

    #[test]
    fn figure_ads_roundtrip_via_json() {
        roundtrip(crate::fixtures::FIGURE1_MACHINE);
        roundtrip(crate::fixtures::FIGURE2_JOB);
    }

    #[test]
    fn expr_marker_format() {
        let ad = parse_classad("[ Rank = 1 + 2 ]").unwrap();
        assert_eq!(to_json(&ad), "{\"Rank\":{\"$expr\":\"1 + 2\"}}");
    }

    #[test]
    fn real_formatting_keeps_type() {
        let ad = parse_classad("[ x = 2.0 ]").unwrap();
        let js = to_json(&ad);
        assert_eq!(js, "{\"x\":2.0}");
        let back = from_json(&js).unwrap();
        assert_eq!(
            back.get("x").map(|e| e.as_ref().clone()),
            Some(Expr::real(2.0))
        );
    }

    #[test]
    fn string_escapes() {
        roundtrip(r#"[ s = "line\nquote\"tab\t" ]"#);
        let back = from_json(r#"{"s":"Aé"}"#).unwrap();
        assert_eq!(back.get_string("s"), Some("Aé"));
        let back = from_json(r#"{"s":"😀"}"#).unwrap();
        assert_eq!(back.get_string("s"), Some("😀"));
    }

    #[test]
    fn multibyte_char_inside_escape_is_error_not_panic() {
        assert!(from_json("{\"s\":\"\\u00é0\"}").is_err());
        assert!(from_json("{\"s\":\"\\uﬀﬀ\"}").is_err());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(from_json("{").is_err());
        assert!(from_json("{\"a\":}").is_err());
        assert!(from_json("[1]").is_err(), "top level must be object");
        assert!(from_json("{\"a\":1} extra").is_err());
        assert!(from_json("{\"a\":tru}").is_err());
        assert!(from_json("{\"s\":\"\\ud83d\"}").is_err(), "lone surrogate");
    }

    #[test]
    fn numbers_parse_types() {
        let ad = from_json(r#"{"i": -42, "r": 1e3, "d": 0.5}"#).unwrap();
        assert_eq!(ad.get_int("i"), Some(-42));
        assert_eq!(
            ad.get("r").map(|e| e.as_ref().clone()),
            Some(Expr::real(1000.0))
        );
        assert_eq!(
            ad.get("d").map(|e| e.as_ref().clone()),
            Some(Expr::real(0.5))
        );
    }

    #[test]
    fn nested_objects_become_records() {
        let ad = from_json(r#"{"outer": {"inner": [1, 2]}}"#).unwrap();
        match ad.get("outer").map(|e| e.as_ref()) {
            Some(Expr::Record(fields)) => {
                assert_eq!(fields.len(), 1);
                assert_eq!(fields[0].0.as_str(), "inner");
                assert!(matches!(fields[0].1, Expr::List(_)));
            }
            other => panic!("{other:?}"),
        }
    }
}
