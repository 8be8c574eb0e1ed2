//! Minimal deterministic JSON: an escaping writer and a syntax checker
//! plus a flat-object parser.
//!
//! The workspace has no `serde` and no `serde_json`, so every exporter
//! in this crate emits JSON by hand.
//! Determinism is part of the contract: identical inputs must yield
//! byte-identical output (stable key order, fixed number formatting),
//! because golden-trace tests compare the serialized bytes.

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a nanosecond quantity as microseconds with fixed three
/// decimal places — the Chrome `trace_event` time unit, rendered
/// deterministically (no float formatting involved).
pub fn us_from_ns(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Validates that `s` is one well-formed JSON value. Returns the byte
/// offset and a description of the first problem found. This is a
/// syntax checker, not a DOM: overflow tests use it to prove a
/// truncated trace still exports parseable JSON.
pub fn check_syntax(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(())
}

/// Parses a flat JSON object of `"key": <unsigned integer>` pairs —
/// the metrics-snapshot format [`crate::CounterSet::to_json`] writes
/// and the `swgate` baselines are stored in. Nested values, floats and
/// non-numeric values are rejected.
pub fn parse_flat_u64(s: &str) -> Result<Vec<(String, u64)>, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    let mut out = Vec::new();
    p.skip_ws();
    p.expect(b'{')?;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.next();
        return Ok(out);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let start = p.i;
        while p.peek().is_some_and(|c| c.is_ascii_digit()) {
            p.i += 1;
        }
        if start == p.i {
            return Err(format!("expected unsigned integer at offset {start}"));
        }
        let num: u64 = s[start..p.i]
            .parse()
            .map_err(|e| format!("bad integer at offset {start}: {e}"))?;
        out.push((key, num));
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    Ok(out)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!(
                "expected '{}' at offset {}, got {other:?}",
                want as char,
                self.i.saturating_sub(1)
            )),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut v = 0u32;
                        for _ in 0..4 {
                            let c = self.next().ok_or("truncated \\u escape")?;
                            v = v * 16
                                + (c as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit in \\u escape: {c}"))?;
                        }
                        out.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c as char),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let start = p.i;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.i += 1;
            }
            p.i > start
        };
        if !digits(self) {
            return Err(format!("expected digits at offset {}", self.i));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(format!("expected fraction digits at offset {}", self.i));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(format!("expected exponent digits at offset {}", self.i));
            }
        }
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for want in word.bytes() {
            self.expect(want)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn us_formatting_is_fixed_width_fraction() {
        assert_eq!(us_from_ns(0), "0.000");
        assert_eq!(us_from_ns(1), "0.001");
        assert_eq!(us_from_ns(1_234_567), "1234.567");
    }

    #[test]
    fn checker_accepts_real_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e+10",
            r#"{"a":[1,2,{"b":"x\ny"}],"c":true}"#,
            r#" { "k" : [ 1 , null , false ] } "#,
        ] {
            assert!(check_syntax(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn checker_rejects_malformed_json() {
        for bad in ["{", "[1,]", "{\"a\":}", "01x", "\"open", "{}extra", ""] {
            assert!(check_syntax(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn flat_parser_round_trips() {
        let pairs = parse_flat_u64(r#"{ "a.b": 1, "max_x": 18446744073709551615 }"#).unwrap();
        assert_eq!(
            pairs,
            vec![("a.b".to_string(), 1), ("max_x".to_string(), u64::MAX)]
        );
        assert_eq!(parse_flat_u64("{}").unwrap(), vec![]);
        assert!(parse_flat_u64(r#"{"a": -3}"#).is_err());
        assert!(parse_flat_u64(r#"{"a": {"b": 1}}"#).is_err());
    }
}
