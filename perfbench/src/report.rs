//! Metric records, exact-count bookkeeping and the outcome of one
//! workload run.

use crate::oracle::Tally;
use crate::trace::Span;

/// One reported number with its unit and the samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }
}

/// Counts that must repeat bit for bit: every observation of a name is
/// kept, and any disagreement is nondeterminism, not noise.
#[derive(Default, Debug)]
pub struct Exact {
    seen: Vec<(String, Vec<f64>)>,
}

impl Exact {
    pub fn see(&mut self, name: &str, value: f64) {
        match self.seen.iter_mut().find(|(n, _)| n == name) {
            Some((_, values)) => values.push(value),
            None => self.seen.push((name.to_string(), vec![value])),
        }
    }

    /// The first observation of `name`.
    pub fn first(&self, name: &str) -> f64 {
        self.seen
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v[0])
            .unwrap_or_else(|| panic!("exact count {name} was never observed"))
    }

    pub fn absorb(&mut self, other: Exact) {
        for (name, values) in other.seen {
            for v in values {
                self.see(&name, v);
            }
        }
    }

    /// `(name, first value)` per count, in observation order.
    pub fn firsts(&self) -> Vec<(String, f64)> {
        self.seen.iter().map(|(n, v)| (n.clone(), v[0])).collect()
    }

    /// One line per count whose observations disagree.
    pub fn mismatches(&self) -> Vec<String> {
        self.seen
            .iter()
            .filter(|(_, v)| v.iter().any(|x| x.to_bits() != v[0].to_bits()))
            .map(|(n, v)| format!("{n} observed {v:?}"))
            .collect()
    }
}

/// What one workload run hands back.
pub struct Outcome {
    /// End-to-end metrics under the benchmark's generic names.
    pub e2e: Vec<Metric>,
    /// The same measurements under the workload's own names.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub exact: Exact,
    pub tally: Tally,
    pub inputs_digest: String,
    pub spans: Vec<Span>,
}

/// `metric value` as JSON, with every digit the measurement has.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_flag_disagreement() {
        let mut e = Exact::default();
        e.see("a", 3.0);
        e.see("a", 3.0);
        e.see("b", 1.0);
        assert!(e.mismatches().is_empty());
        e.see("b", 2.0);
        assert_eq!(e.mismatches().len(), 1);
        assert_eq!(e.first("b"), 1.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let m = [Metric::new("x_ms", "ms", 1.25, 3)];
        assert_eq!(
            json_metrics(&m),
            "{\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}"
        );
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
