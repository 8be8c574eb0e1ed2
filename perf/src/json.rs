//! Just enough JSON reading for `swperf noise` and `swperf compare` to
//! take result lines back in (the workspace has no JSON parser for
//! nested values, and this package may depend on nothing new).

use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i).copied().ok_or("unterminated string")? {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                b'\\' => {
                    let c = self.s.get(self.i + 1).copied().ok_or("dangling escape")?;
                    out.push(match c {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => c,
                        _ => return Err(format!("unsupported escape \\{}", c as char)),
                    });
                    self.i += 2;
                }
                c => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i).copied().ok_or("unexpected end")? {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                loop {
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Value::Obj(m));
                    }
                    if !m.is_empty() {
                        self.eat(",")?;
                        self.ws();
                    }
                    let k = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    m.insert(k, self.value()?);
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                loop {
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Value::Arr(a));
                    }
                    if !a.is_empty() {
                        self.eat(",")?;
                    }
                    a.push(self.value()?);
                }
            }
            b'"' => self.string().map(Value::Str),
            b't' => self.eat("true").map(|()| Value::Bool(true)),
            b'f' => self.eat("false").map(|()| Value::Bool(false)),
            b'n' => self.eat("null").map(|()| Value::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

/// `name -> value` of one result line's `metrics` object.
pub fn metric_values(result: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Value::Obj(m)) = result.get("metrics") {
        for (k, v) in m {
            if let Some(n) = v.get("value").and_then(Value::num) {
                out.insert(k.clone(), n);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{manifest, result_line, Metrics};

    #[test]
    fn reads_back_a_result_line() {
        let mut m = Metrics::new();
        m.insert("throughput", 1.5e7);
        m.insert("setup_s", 0.25);
        let v = parse(&result_line(false, true, 384, 0, &m)).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::num), Some(384.0));
        let vals = metric_values(&v);
        assert_eq!(vals["throughput"], 1.5e7);
        assert_eq!(vals["setup_s"], 0.25);
        assert_eq!(vals.len(), 5);
    }

    #[test]
    fn reads_the_manifest_and_rejects_garbage() {
        let v = parse(&manifest()).unwrap();
        assert_eq!(
            v.get("paths"),
            Some(&Value::Arr(vec![Value::Str("perf".into())]))
        );
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert_eq!(
            parse(" [1, -2.5e3, \"a\\\"b\", null] ").unwrap(),
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(-2500.0),
                Value::Str("a\"b".into()),
                Value::Null,
            ])
        );
    }
}
