//! Minimal JSON emission for benchmark harnesses (no serde — the repo
//! vendors only what the simulator needs). Each harness that accepts
//! `--json` writes a flat `results/BENCH_<name>.json` with its headline
//! metrics (latency quantiles, throughput) for machine consumption by CI
//! trend tooling.

use std::path::PathBuf;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn number(v: f64) -> String {
    if v.is_finite() {
        // Trim to a stable fixed precision so reruns diff cleanly.
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() || s == "-" {
            "0".into()
        } else {
            s.to_string()
        }
    } else {
        "null".into()
    }
}

/// Render the flat benchmark document.
pub fn render(name: &str, metrics: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", escape(name)));
    out.push_str("  \"metrics\": {\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\": {}{comma}\n", escape(k), number(*v)));
    }
    out.push_str("  }\n}\n");
    out
}

/// Per-class fabric counters accumulated process-wide by simnet since the
/// last `simnet::qos::reset_process_stats()`: bytes moved, ops, worst
/// queueing wait and peak queue depth for each traffic class. Keyed
/// `fabric_<class>_*` — deliberately outside `bench_check`'s throughput
/// key pattern so class byte totals are never gated as throughput.
pub fn fabric_metrics() -> Vec<(String, f64)> {
    let stats = simnet::qos::process_stats();
    let mut out = Vec::with_capacity(simnet::CLASS_COUNT * 4);
    for class in simnet::TrafficClass::ALL {
        let s = stats[class.idx()];
        let l = class.label();
        out.push((format!("fabric_{l}_bytes"), s.bytes as f64));
        out.push((format!("fabric_{l}_ops"), s.ops as f64));
        out.push((
            format!("fabric_{l}_max_wait_us"),
            s.max_wait_ns as f64 / 1_000.0,
        ));
        out.push((format!("fabric_{l}_peak_depth"), s.peak_depth as f64));
    }
    out
}

/// Write `results/BENCH_<name>.json` (creating `results/` if needed) and
/// return the path. The per-class fabric counters are appended to every
/// artifact automatically (benches that want per-arm numbers call
/// `simnet::qos::reset_process_stats()` between arms and emit their own
/// keyed copies before this).
pub fn emit(name: &str, metrics: &[(String, f64)]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all("results")?;
    let path = PathBuf::from(format!("results/BENCH_{name}.json"));
    let mut all = metrics.to_vec();
    for (k, v) in fabric_metrics() {
        if !all.iter().any(|(ek, _)| *ek == k) {
            all.push((k, v));
        }
    }
    std::fs::write(&path, render(name, &all))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_flat_json() {
        let doc = render(
            "t9_example",
            &[
                ("p50_us".to_string(), 12.5),
                ("p99_us".to_string(), 40.0),
                ("ops_per_sec".to_string(), 123456.789),
            ],
        );
        assert!(doc.contains("\"bench\": \"t9_example\""));
        assert!(doc.contains("\"p50_us\": 12.5"));
        assert!(doc.contains("\"p99_us\": 40"));
        assert!(doc.contains("\"ops_per_sec\": 123456.789"));
        // Balanced braces, no trailing comma before the closing brace.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(!doc.contains(",\n  }"));
    }

    #[test]
    fn non_finite_values_become_null() {
        let doc = render("x", &[("bad".to_string(), f64::NAN)]);
        assert!(doc.contains("\"bad\": null"));
    }
}
