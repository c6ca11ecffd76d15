//! JSON text: the writer primitives and the pull parser.
//!
//! Deviations from strict JSON, all deliberate: the writer emits the bare
//! literals `NaN`, `Infinity` and `-Infinity` for non-finite floats (scaling
//! fits report `f64::INFINITY` standard errors on single-sample fits), and
//! the reader accepts them back. Finite floats are written in Rust's
//! shortest round-trip representation, so `value → text → value` is exact.
//! The reader checks every byte it passes, skipped values included, and
//! limits nesting to 128 values.

use crate::{Deserialize, Error, Output, Serialize};
use std::borrow::Cow;
use std::io::Write as _;

/// Serializes a value to JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = Vec::new();
    value.serialize(&mut out);
    String::from_utf8(out).expect("the writer emits whole UTF-8 sequences")
}

/// Deserializes a value from JSON text, which must hold exactly one value
/// (and whitespace).
pub fn from_str<'de, T: Deserialize<'de>>(text: &'de str) -> Result<T, Error> {
    let mut de = Deserializer::new(text);
    let value = T::deserialize(&mut de)?;
    de.finish()?;
    Ok(value)
}

/// Writes a formatted number (an integer's `Display` form, a finite
/// float's shortest round-trip `Debug` form) without allocating.
pub fn write_number<O: Output>(out: &mut O, number: std::fmt::Arguments<'_>) {
    let mut buf = [0u8; 32];
    let mut rest = &mut buf[..];
    rest.write_fmt(number).expect("a number fits in 32 bytes");
    let len = 32 - rest.len();
    out.write(&buf[..len]);
}

/// Writes a float: `NaN`, `Infinity` or `-Infinity` when not finite, else
/// its `Debug` form, which always has a `.` or an exponent and so never
/// reads back as an integer.
pub fn write_f64<O: Output>(out: &mut O, value: f64) {
    match value {
        _ if value.is_nan() => out.write(b"NaN"),
        f64::INFINITY => out.write(b"Infinity"),
        f64::NEG_INFINITY => out.write(b"-Infinity"),
        _ => write_number(out, format_args!("{value:?}")),
    }
}

/// Writes a string literal, escaping `"`, `\` and control characters.
pub fn write_str<O: Output>(out: &mut O, text: &str) {
    out.write(b"\"");
    let mut start = 0;
    for (i, byte) in text.bytes().enumerate() {
        let mut unicode = *b"\\u0000";
        let escaped: &[u8] = match byte {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                unicode[4] = b"0123456789abcdef"[usize::from(byte >> 4)];
                unicode[5] = b"0123456789abcdef"[usize::from(byte & 0xf)];
                &unicode
            }
            _ => continue,
        };
        out.write(&text.as_bytes()[start..i]);
        out.write(escaped);
        start = i + 1;
    }
    out.write(&text.as_bytes()[start..]);
    out.write(b"\"");
}

const MAX_DEPTH: usize = 128;

/// The first token of a value: a whole scalar, or a container's opening
/// bracket. A number is an integer when it has no `.`, `e`, `E` or inner
/// sign and fits (`Signed` when written with a leading `-`, `-0` included),
/// a float otherwise.
enum Token<'de> {
    Null,
    Bool(bool),
    Unsigned(u64),
    Signed(i64),
    Float(f64),
    Str(Cow<'de, str>),
    Seq,
    Map,
}

impl Token<'_> {
    /// What a type error calls the value.
    fn found(&self) -> &'static str {
        match self {
            Token::Null => "null",
            Token::Bool(_) => "a boolean",
            Token::Unsigned(_) | Token::Signed(_) => "an integer",
            Token::Float(_) => "a number",
            Token::Str(_) => "a string",
            Token::Seq => "a sequence",
            Token::Map => "a map",
        }
    }
}

/// A pull parser over one JSON text.
///
/// Each read method consumes exactly one value, leading whitespace
/// included, or fails. A value of the wrong type is still read to its end,
/// so a syntax error inside it is reported as such.
#[derive(Debug, Clone)]
pub struct Deserializer<'de> {
    text: &'de str,
    pos: usize,
    /// Containers open around the next value.
    depth: usize,
}

impl<'de> Deserializer<'de> {
    /// A parser at the start of `text`.
    pub fn new(text: &'de str) -> Self {
        Deserializer {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// A parser over the text `null`: what an absent field reads.
    pub fn null() -> Self {
        Deserializer::new("null")
    }

    /// Checks that nothing but whitespace follows the value read.
    pub fn finish(mut self) -> Result<(), Error> {
        self.skip_whitespace();
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// Reads a non-negative integer (`-0` included).
    pub fn u64(&mut self) -> Result<u64, Error> {
        match self.token()? {
            Token::Unsigned(u) => Ok(u),
            Token::Signed(i) if i >= 0 => Ok(i as u64),
            other => self.mismatch("an unsigned integer", other),
        }
    }

    /// Reads an integer in `i64` range.
    pub fn i64(&mut self) -> Result<i64, Error> {
        match self.token()? {
            Token::Signed(i) => Ok(i),
            Token::Unsigned(u) if u <= i64::MAX as u64 => Ok(u as i64),
            other => self.mismatch("an integer", other),
        }
    }

    /// Reads any number, integers and the non-finite literals included.
    pub fn f64(&mut self) -> Result<f64, Error> {
        match self.token()? {
            Token::Unsigned(u) => Ok(u as f64),
            Token::Signed(i) => Ok(i as f64),
            Token::Float(f) => Ok(f),
            other => self.mismatch("a number", other),
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.token()? {
            Token::Bool(b) => Ok(b),
            other => self.mismatch("a boolean", other),
        }
    }

    /// Reads a string, borrowed from the text unless it has escapes;
    /// `expected` names the wanted value in a type error.
    pub fn str(&mut self, expected: &str) -> Result<Cow<'de, str>, Error> {
        match self.token()? {
            Token::Str(s) => Ok(s),
            other => self.mismatch(expected, other),
        }
    }

    /// Consumes a `null` if one comes next; otherwise consumes nothing.
    pub fn take_null(&mut self) -> Result<bool, Error> {
        self.enter()?;
        Ok(self.eat_literal("null"))
    }

    /// Reads a sequence: `element(de, index)` must read element `index`
    /// (or [`skip`](Self::skip) it). Returns the number of elements.
    pub fn seq(
        &mut self,
        element: impl FnMut(&mut Self, usize) -> Result<(), Error>,
    ) -> Result<usize, Error> {
        match self.token()? {
            Token::Seq => self.seq_rest(element),
            other => self.mismatch("a sequence", other),
        }
    }

    /// Reads a map: `entry(de, key)` must read the value under `key` (or
    /// [`skip`](Self::skip) it). A value that is not a map is skipped whole
    /// and reads as a map without keys, so every field reads as absent.
    pub fn map(
        &mut self,
        entry: impl FnMut(&mut Self, &str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        match self.token()? {
            Token::Map => self.map_rest(entry),
            other => self.skip_rest(other),
        }
    }

    /// Reads and discards one value.
    pub fn skip(&mut self) -> Result<(), Error> {
        let token = self.token()?;
        self.skip_rest(token)
    }

    /// Reads one value and returns a parser that reads it again.
    pub fn capture(&mut self) -> Result<Deserializer<'de>, Error> {
        self.enter()?;
        let (start, depth) = (self.pos, self.depth);
        self.skip()?;
        Ok(Deserializer {
            text: &self.text[..self.pos],
            pos: start,
            depth,
        })
    }

    /// Reads the rest of a value whose first token was just read.
    fn skip_rest(&mut self, token: Token<'de>) -> Result<(), Error> {
        match token {
            Token::Seq => self.seq_rest(|de, _| de.skip()).map(|_| ()),
            Token::Map => self.map_rest(|de, _| de.skip()),
            _ => Ok(()),
        }
    }

    /// Reads a sequence's elements after its `[`.
    fn seq_rest(
        &mut self,
        mut element: impl FnMut(&mut Self, usize) -> Result<(), Error>,
    ) -> Result<usize, Error> {
        self.depth += 1;
        self.skip_whitespace();
        let mut len = 0;
        if !self.eat(b']') {
            loop {
                element(self, len)?;
                len += 1;
                self.skip_whitespace();
                if self.eat(b']') {
                    break;
                } else if !self.eat(b',') {
                    return Err(self.error("expected `,` or `]`"));
                }
            }
        }
        self.depth -= 1;
        Ok(len)
    }

    /// Reads a map's entries after its `{`.
    fn map_rest(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.depth += 1;
        self.skip_whitespace();
        if !self.eat(b'}') {
            loop {
                self.skip_whitespace();
                if !self.eat(b'"') {
                    return Err(self.error("expected `\"`"));
                }
                let key = self.string()?;
                self.skip_whitespace();
                if !self.eat(b':') {
                    return Err(self.error("expected `:`"));
                }
                entry(self, &key)?;
                self.skip_whitespace();
                if self.eat(b'}') {
                    break;
                } else if !self.eat(b',') {
                    return Err(self.error("expected `,` or `}`"));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// The type error for a value whose first token was just read, once
    /// the rest of it has been read without a syntax error.
    fn mismatch<T>(&mut self, expected: &str, token: Token<'de>) -> Result<T, Error> {
        let found = token.found();
        self.skip_rest(token)?;
        Err(Error::invalid_type(expected, found))
    }

    /// Skips whitespace, checks that a value may start at this depth and
    /// reads its first token.
    fn token(&mut self) -> Result<Token<'de>, Error> {
        self.enter()?;
        let Some(byte) = self.peek() else {
            return Err(Error::custom("unexpected end of input"));
        };
        Ok(match byte {
            b'n' if self.eat_literal("null") => Token::Null,
            b't' if self.eat_literal("true") => Token::Bool(true),
            b'f' if self.eat_literal("false") => Token::Bool(false),
            b'N' if self.eat_literal("NaN") => Token::Float(f64::NAN),
            b'I' if self.eat_literal("Infinity") => Token::Float(f64::INFINITY),
            b'-' | b'0'..=b'9' => return self.number(),
            b'"' | b'[' | b'{' => {
                self.pos += 1;
                match byte {
                    b'"' => Token::Str(self.string()?),
                    b'[' => Token::Seq,
                    _ => Token::Map,
                }
            }
            _ => return Err(self.error(&format!("unexpected character `{}`", byte as char))),
        })
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.skip_whitespace();
        if self.depth >= MAX_DEPTH {
            return Err(Error::custom("value nested too deeply"));
        }
        Ok(())
    }

    /// Reads a number token (or `-Infinity`).
    fn number(&mut self) -> Result<Token<'de>, Error> {
        let start = self.pos;
        let negative = self.eat(b'-');
        if negative && self.eat_literal("Infinity") {
            return Ok(Token::Float(f64::NEG_INFINITY));
        }
        let mut floating = false;
        while let Some(byte @ (b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) = self.peek() {
            floating |= !byte.is_ascii_digit();
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let integer = match (floating, negative) {
            (false, true) => text.parse().ok().map(Token::Signed),
            (false, false) => text.parse().ok().map(Token::Unsigned),
            (true, _) => None,
        };
        match integer {
            Some(token) => Ok(token),
            None => text
                .parse()
                .map(Token::Float)
                .map_err(|_| Error::custom(format!("invalid number `{text}`"))),
        }
    }

    /// Reads the rest of a string literal after its opening quote.
    fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            if self.eat(b'"') {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut text) => {
                        text.push_str(run);
                        Cow::Owned(text)
                    }
                });
            } else if !self.eat(b'\\') {
                return Err(Error::custom("unterminated string"));
            }
            let text = owned.get_or_insert_with(String::new);
            text.push_str(run);
            text.push(self.escape()?);
        }
    }

    /// Decodes one escape sequence after its backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let byte = self
            .peek()
            .ok_or_else(|| Error::custom("unterminated escape"))?;
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.hex4()?;
                let scalar = if (0xd800..0xdc00).contains(&first) {
                    // A surrogate pair: expect `\uXXXX` low half.
                    if !self.eat_literal("\\u") {
                        return Err(Error::custom("unpaired surrogate"));
                    }
                    let second = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&second) {
                        return Err(Error::custom("invalid low surrogate"));
                    }
                    0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
                } else {
                    first
                };
                char::from_u32(scalar).ok_or_else(|| Error::custom("invalid unicode escape"))?
            }
            other => {
                return Err(Error::custom(format!(
                    "invalid escape `\\{}`",
                    other as char
                )))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated unicode escape"))?;
        let scalar =
            u32::from_str_radix(hex, 16).map_err(|_| Error::custom("invalid unicode escape"))?;
        self.pos += 4;
        Ok(scalar)
    }

    fn error(&self, what: &str) -> Error {
        Error::custom(format!("{what} at byte {}", self.pos))
    }

    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes());
        self.pos += if hit { literal.len() } else { 0 };
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text<T: Serialize>(value: T) -> String {
        to_string(&value)
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(text(0u64), "0");
        assert_eq!(text(42u8), "42");
        assert_eq!(text(u64::MAX), "18446744073709551615");
        assert_eq!(text(-7i32), "-7");
        assert_eq!(text(i64::MIN), "-9223372036854775808");
        assert_eq!(text(1.5f64), "1.5");
        assert_eq!(text(1.0f64), "1.0");
        assert_eq!(text(-0.0f64), "-0.0");
        assert_eq!(text(1e300f64), "1e300");
        assert_eq!(text(f64::MIN_POSITIVE), "2.2250738585072014e-308");
        assert_eq!(text(true), "true");
        assert_eq!(text(None::<u64>), "null");
        assert_eq!(from_str::<u64>(" 42 "), Ok(42));
        assert_eq!(from_str::<i64>("-7"), Ok(-7));
        assert_eq!(from_str::<bool>("false"), Ok(false));
        assert_eq!(from_str::<Option<u64>>("null"), Ok(None));
        assert_eq!(from_str::<String>(r#""hi""#), Ok("hi".to_string()));
    }

    #[test]
    fn finite_floats_round_trip_exactly() {
        for f in [
            0.1,
            1.0 / 3.0,
            1e300,
            5e-324,
            -2.5,
            1.0,
            f64::MAX,
            -f64::MIN_POSITIVE,
        ] {
            let back: f64 = from_str(&to_string(&f)).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f}");
        }
    }

    #[test]
    fn non_finite_floats_round_trip() {
        assert_eq!(text(f64::NAN), "NaN");
        assert_eq!(text(f64::INFINITY), "Infinity");
        assert_eq!(text(f64::NEG_INFINITY), "-Infinity");
        for f in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(from_str::<f64>(&to_string(&f)).unwrap(), f);
        }
        assert!(from_str::<f64>(&to_string(&f64::NAN)).unwrap().is_nan());
    }

    #[test]
    fn containers_round_trip() {
        let value = vec![
            (vec![1u64], Some("a \"b\"\n".to_string())),
            (Vec::new(), None),
        ];
        let text = to_string(&value);
        assert_eq!(text, r#"[[[1],"a \"b\"\n"],[[],null]]"#);
        assert_eq!(
            from_str::<Vec<(Vec<u64>, Option<String>)>>(&text),
            Ok(value)
        );
    }

    #[test]
    fn string_escapes_parse() {
        assert_eq!(
            from_str::<String>(r#""\u0041\u00e9\ud83d\ude00\t\/""#).unwrap(),
            "Aé😀\t/"
        );
        let escaped = "a \"b\"\\ \n\r\t\u{1}\u{1f}😀";
        assert_eq!(text(escaped), r#""a \"b\"\\ \n\r\t\u0001\u001f😀""#);
        assert_eq!(from_str::<String>(&text(escaped)).unwrap(), escaped);
    }

    #[test]
    fn strings_are_borrowed_unless_escaped() {
        let mut de = Deserializer::new(r#"["plain","a\"b"]"#);
        de.seq(|de, index| {
            match (index, de.str("a string")?) {
                (0, Cow::Borrowed("plain")) | (1, Cow::Owned(_)) => {}
                other => panic!("unexpected {other:?}"),
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn whitespace_is_tolerated() {
        let mut de = Deserializer::new(" { \"a\" :\n[ 1 ,\t2 ] } \r\n");
        let mut values = Vec::new();
        de.map(|de, key| {
            assert_eq!(key, "a");
            values = Vec::<u64>::deserialize(de)?;
            Ok(())
        })
        .unwrap();
        de.finish().unwrap();
        assert_eq!(values, vec![1, 2]);
    }

    #[test]
    fn malformed_inputs_error() {
        for text in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "tru",
            "01x",
            "[1 2]",
            "nul",
            "--1",
            "\"\\q\"",
            "{\"a\" 1}",
            "1e",
            "[]]",
            "[1,]",
            "{,}",
            "{\"a\":1,}",
            "\"\\u12\"",
        ] {
            let mut de = Deserializer::new(text);
            let result = de.skip().and_then(|()| de.finish());
            assert!(result.is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn captured_values_read_again() {
        let mut de = Deserializer::new(r#" [ {"a": [1, 2]}, 3 ] "#);
        let mut captured = Vec::new();
        de.seq(|de, _| {
            captured.push(de.capture()?);
            Ok(())
        })
        .unwrap();
        de.finish().unwrap();
        let mut first = captured.remove(0);
        first
            .map(|de, key| {
                assert_eq!(key, "a");
                assert_eq!(Vec::<u64>::deserialize(de)?, vec![1, 2]);
                Ok(())
            })
            .unwrap();
        first.finish().unwrap();
        assert_eq!(captured[0].u64().unwrap(), 3);
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let text = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Deserializer::new(&text).skip().is_err());
        let ok = "[".repeat(128) + &"]".repeat(128);
        assert!(Deserializer::new(&ok).skip().is_ok());
    }
}
