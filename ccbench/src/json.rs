//! The result line the driver reads, and a reader for it: the suite and
//! A/A modes run each workload in a child process and parse its last
//! line, and the tests read `BENCHMARK.json`. std-only, so a small
//! recursive-descent parser over the JSON subset those two files use
//! (no escapes beyond `\"` and `\\`, no exponents needed but accepted).

use std::fmt::Write;

/// What one run reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(String, String, f64)>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// The one-line JSON object the driver expects last on stdout. Values
    /// print in Rust's shortest round-trip form: every measured digit.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }

    pub fn from_line(line: &str) -> Result<Self, String> {
        let value = parse(line)?;
        let metrics = value
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("result has no metrics object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), unit.to_owned(), value)),
                    _ => Err(format!("metric {name} lacks value or unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            correct: value
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result has no correct flag")?,
            attempted: value
                .get("attempted")
                .and_then(Json::as_f64)
                .ok_or("result has no attempted count")? as u64,
            failed: value
                .get("failed")
                .and_then(Json::as_f64)
                .ok_or("result has no failed count")? as u64,
            metrics,
        })
    }
}

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    /// Members in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.skip_space();
    if p.at != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => self
                .members(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Object),
            Some(b'[') => self.members(b']', Parser::value).map(Json::Array),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    /// A comma-separated list between the current bracket and `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_space();
        if self.bytes.get(self.at) == Some(&close) {
            self.at += 1;
            return Ok(items);
        }
        loop {
            self.skip_space();
            items.push(item(self)?);
            self.skip_space();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(&b) if b == close => {
                    self.at += 1;
                    return Ok(items);
                }
                _ => return Err(format!("expected ',' or close at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    match self.bytes.get(self.at + 1) {
                        Some(&c @ (b'"' | b'\\')) => out.push(c),
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    }
                    self.at += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let result = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                ("latency_p50_ms".into(), "ms".into(), 1.203_456_789_012_3),
                ("comm_rounds".into(), "rounds".into(), 96.0),
                ("tiny".into(), "s".into(), 1.5e-9),
            ],
        };
        let line = result.to_line();
        assert!(!line.contains('\n'));
        let back = RunResult::from_line(&line).unwrap();
        assert!(back.correct);
        assert_eq!(back.attempted, 1234);
        assert_eq!(back.failed, 0);
        assert_eq!(back.metrics, result.metrics);
        // Exactly the four keys of the driver's contract, in its order.
        let parsed = parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("{\"a\": [1, 2, {\"b\": false}], \"c\": \"x\\\"y\"}").is_ok());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"open").is_err());
        assert!(RunResult::from_line("{\"correct\": true}").is_err());
    }
}
