//! Metric names, units, and the result line.

use std::fmt::Write;

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("verified_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_query", "us"),
    ("reply_bytes_per_query", "bytes"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("owner.keygen_s", "s"),
    ("index.build_s", "s"),
    ("auth.build_s", "s"),
    ("server.start_s", "s"),
    ("pool.cpu_us_per_query", "us"),
    ("reactor.cpu_us_per_query", "us"),
    ("client.cpu_us_per_query", "us"),
    ("transport.syscalls_per_query", "count"),
    ("cache.term_hit_ratio", "ratio"),
    ("cache.term_misses_per_query", "count"),
    ("cache.doc_hit_ratio", "ratio"),
    ("cache.doc_misses_per_query", "count"),
    ("wire.request_bytes_per_query", "bytes"),
    ("wire.request_encode_us.p50", "us"),
    ("transport.rtt_us.p50", "us"),
    ("transport.rtt_us.p99", "us"),
    ("wire.reply_decode_us.p50", "us"),
    ("verify.us.p50", "us"),
    ("verify.us.p99", "us"),
    ("engine.entries_read_per_query", "count"),
    ("vo.data_bytes", "bytes"),
    ("vo.digest_bytes", "bytes"),
    ("vo.signatures", "count"),
    ("alloc.verify_per_query", "count"),
    ("alloc.reply_decode_per_query", "count"),
    ("alloc.process_per_query", "count"),
    ("crypto.sha256_mib_s", "MiB/s"),
    ("crypto.combine_ns", "ns"),
    ("crypto.rsa_verify_us", "us"),
    ("crypto.rsa_sign_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Measured values by name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The `metrics` object for `spec`, in its order. Every metric must
    /// have a finite value.
    pub fn metrics_json(&self, spec: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in spec.iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }

    /// One aligned line per metric of `spec`, for people.
    pub fn table(&self, spec: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in spec {
            match self.get(name) {
                Some(v) => {
                    let _ = writeln!(out, "  {name:<32} {v:>14.3} {unit}");
                }
                None => {
                    let _ = writeln!(out, "  {name:<32} {:>14} {unit}", "-");
                }
            }
        }
        out
    }
}

/// The result line: the last line the benchmark prints on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn metrics_json_needs_every_value() {
        let mut v = Values::default();
        v.set("verified_qps", 12.5);
        let spec = [("verified_qps", "1/s"), ("setup_s", "s")];
        assert!(v.metrics_json(&spec).is_err());
        v.set("setup_s", 0.25);
        assert_eq!(
            v.metrics_json(&spec).expect("complete"),
            "{\"verified_qps\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}"
        );
        v.set("setup_s", f64::NAN);
        assert!(v.metrics_json(&spec).is_err());
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
