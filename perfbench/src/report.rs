//! The result line: `{"correct", "attempted", "failed", "metrics"}` as one
//! JSON object, its parser, and the naming rules metric names and units
//! follow.

use std::collections::BTreeMap;

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name (see [`valid_name`]).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: String,
}

impl Metric {
    /// A metric; the name and unit are checked when the line is rendered.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The benchmark's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every op's output check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
}

/// A metric name: starts with a letter or digit; at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

impl ResultLine {
    /// Render as one line of JSON. Fails on an invalid or repeated name,
    /// an invalid unit, or a non-finite value.
    pub fn to_json(&self) -> Result<String, String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !valid_name(&m.name) || !seen.insert(m.name.as_str()) {
                return Err(format!("invalid or repeated metric name {:?}", m.name));
            }
            if !valid_unit(&m.unit) {
                return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("{} is not finite ({})", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }

    /// Parse a line rendered by [`to_json`](Self::to_json).
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        let Json::Object(top) = v else {
            return Err("not an object".into());
        };
        let get = |k: &str| top.get(k).ok_or_else(|| format!("missing key {k}"));
        let Json::Bool(correct) = get("correct")? else {
            return Err("correct".into());
        };
        let count = |k: &str| match get(k)? {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("{k} is not a whole number")),
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let Json::Object(ms) = get("metrics")? else {
            return Err("metrics".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in ms {
            let Json::Object(m) = m else {
                return Err(format!("metric {name}"));
            };
            match (m.get("value"), m.get("unit"), m.len()) {
                (Some(Json::Num(v)), Some(Json::Str(u)), 2) => {
                    metrics.push(Metric::new(name.clone(), *v, u));
                }
                _ => return Err(format!("metric {name} needs exactly value and unit")),
            }
        }
        Ok(ResultLine {
            correct: *correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// The JSON subset the result line uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Object(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while let Some(&c) = self.s.get(self.i) {
            match c {
                b'"' => {
                    let out = String::from_utf8(self.s[start..self.i].to_vec())
                        .map_err(|e| e.to_string())?;
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => return Err(format!("escapes are not used (byte {})", self.i)),
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Object(map));
                }
                loop {
                    let k = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    if map.insert(k.clone(), v).is_some() {
                        return Err(format!("repeated key {k}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Object(map));
                        }
                        _ => return Err(format!("expected , or }} at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') | Some(b'f') => {
                for (lit, v) in [("true", true), ("false", false)] {
                    if self.s[self.i..].starts_with(lit.as_bytes()) {
                        self.i += lit.len();
                        return Ok(Json::Bool(v));
                    }
                }
                Err(format!("bad literal at byte {}", self.i))
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_rules() {
        for ok in [
            "setup_s",
            "sim.memctrl.util",
            "click.tag.rx_desc.cycles_per_pkt",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["ms", "s", "1/s", "kpkt/s", "%", "count", "fraction"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "Mpkt/s (sim)", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_round_trips_through_its_parser() {
        let line = ResultLine {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.812_734_5, "s"),
                Metric::new("op_ms_p50", 1.203_4e-3, "ms"),
                Metric::new("sim_kpps_host", 98_765.432_1, "kpkt/s"),
                Metric::new("sim.drops.shed", 0.0, "count"),
            ],
        };
        let text = line.to_json().expect("valid line");
        assert!(!text.contains('\n'));
        let back = ResultLine::parse(&text).expect("parses");
        assert_eq!((back.correct, back.attempted, back.failed), (true, 1234, 0));
        let mut want = line.metrics.clone();
        want.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(
            back.metrics, want,
            "every value survives with all its digits"
        );
    }

    #[test]
    fn rendering_refuses_bad_metrics() {
        let bad = |m: Metric| ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![m],
        };
        assert!(bad(Metric::new("x", f64::NAN, "s")).to_json().is_err());
        assert!(bad(Metric::new("bad name", 1.0, "s")).to_json().is_err());
        assert!(bad(Metric::new("x", 1.0, "µs")).to_json().is_err());
        let twice = ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("x", 1.0, "s"), Metric::new("x", 2.0, "s")],
        };
        assert!(twice.to_json().is_err());
        assert!(ResultLine::parse("{\"correct\": true}").is_err());
    }
}
