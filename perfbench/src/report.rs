//! The result record a run prints, and the provenance line before it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one run measured: operations attempted and failed, whether every
/// output check passed, and named metrics with their units.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the workload issued (epochs, evaluations, requests).
    pub attempted: u64,
    /// Operations whose output failed a check, or that errored.
    pub failed: u64,
    /// Whole-run checks that are not per operation (digests repeat across
    /// set-ups, traced and untraced losses agree bitwise, ...). Each entry
    /// is a human-readable reason; any entry makes the run incorrect.
    pub violations: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Record metric `name` with `unit`. Later records replace earlier ones.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// Names of the recorded metrics, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.metrics.keys().map(String::as_str).collect()
    }

    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a whole-run check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let reason = what();
            eprintln!("[perfbench] check failed: {reason}");
            self.violations.push(reason);
        }
    }

    /// The run is correct when no operation failed and every whole-run
    /// check held, and it attempted something.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.violations.is_empty()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Non-finite values (which JSON cannot carry) make the run incorrect
    /// and are written as 0.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.values().all(|(v, _)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && finite,
            self.attempted,
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` is Rust's shortest round-trip form: every digit, and
            // valid JSON for finite values (`1.0`, `1e-7`).
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Quote a string for JSON (the provenance values are plain ASCII; control
/// characters and quotes are escaped anyway).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where a result came from: the host, the source revision and the
/// generated inputs. Printed as one JSON line before the result line.
pub struct Provenance {
    pairs: Vec<(String, String)>,
}

impl Provenance {
    /// The host fingerprint: logical CPUs, SIMD extensions the kernels can
    /// dispatch to, and the source revision when the checkout knows it.
    pub fn host() -> Self {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut p = Self { pairs: Vec::new() };
        p.add("nproc", &nproc.to_string());
        p.add("avx2", &simd_flag("avx2").to_string());
        p.add("avx512f", &simd_flag("avx512f").to_string());
        p.add("git_rev", &git_rev());
        p
    }

    /// Append a key.
    pub fn add(&mut self, key: &str, value: &str) {
        self.pairs.push((key.to_string(), value.to_string()));
    }

    /// `{"provenance": {...}}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .pairs
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", body.join(", "))
    }
}

#[cfg(target_arch = "x86_64")]
fn simd_flag(name: &str) -> bool {
    match name {
        "avx2" => std::is_x86_feature_detected!("avx2"),
        "avx512f" => std::is_x86_feature_detected!("avx512f"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_flag(_name: &str) -> bool {
    false
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` for a plain source tree.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.op(true);
        r.metric("setup_s", 0.8127, "s");
        r.metric("latency_p50_ms", 1.5, "ms");
        let line = r.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_and_violations_make_a_run_incorrect() {
        let mut r = Report::default();
        assert!(!r.correct(), "nothing attempted");
        r.op(true);
        assert!(r.correct());
        r.op(false);
        assert!(!r.correct());
        let mut r = Report::default();
        r.op(true);
        r.check(false, || "digest moved".into());
        assert!(!r.correct());
        let mut r = Report::default();
        r.op(true);
        r.metric("x", f64::NAN, "ms");
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn provenance_is_one_json_object() {
        let mut p = Provenance::host();
        p.add("dataset.label_digest", "00ff");
        let line = p.to_json();
        assert!(line.starts_with("{\"provenance\": {\"nproc\": \""));
        assert!(line.ends_with("\"dataset.label_digest\": \"00ff\"}}"));
    }
}
