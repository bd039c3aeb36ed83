//! Prometheus text-format exposition for [`MemoryRecorder`].
//!
//! Hand-rendered (the hermetic build carries no metrics dependency, same
//! policy as the [`crate::json`] module) and deterministic: metrics in
//! name order, one `# TYPE` line per family. The output follows the
//! Prometheus text exposition format version 0.0.4:
//!
//! * counters → `counter` families, `_total` suffix;
//! * gauges → `gauge` families (NaN renders as `NaN`, which the format
//!   allows);
//! * histograms → `histogram` families with **cumulative**
//!   `_bucket{le="..."}` series ending in `le="+Inf"`, a `_count`, and a
//!   `_sum` of `NaN` ([`crate::HistogramDelta`] deliberately keeps no
//!   float sum so its merge stays exact), plus derived `_p50` / `_p99`
//!   gauges from [`crate::HistogramDelta::quantile`] so dashboards get
//!   usable latency numbers without a `_sum`.
//!
//! Metric names are sanitized by mapping every character outside
//! `[a-zA-Z0-9_:]` (the recorder's dotted names use `.`) to `_`.

use std::fmt::Write as _;

use crate::recorder::MemoryRecorder;

/// A recorder metric name as a valid Prometheus metric name.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// An `f64` in exposition syntax: `NaN`, `+Inf`, `-Inf`, or a plain
/// decimal.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// Renders the recorder's counters, gauges and histograms as one
/// Prometheus text-format page. Deterministic: same recorder state, same
/// bytes.
#[must_use]
pub fn render(rec: &MemoryRecorder) -> String {
    let mut out = String::new();
    for (name, v) in rec.counters() {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name}_total counter");
        let _ = writeln!(out, "{name}_total {v}");
    }
    for (name, v) in rec.gauges() {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", prom_f64(v));
    }
    for (name, h) in rec.histograms() {
        let name = sanitize_name(name);
        let spec = h.spec();
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for slot in 0..spec.slots() {
            cumulative += h.bucket(slot);
            let le = match spec.upper_bound(slot) {
                Some(b) => prom_f64(b),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_sum NaN");
        let _ = writeln!(out, "{name}_count {}", h.count());
        let _ = writeln!(out, "# TYPE {name}_p50 gauge");
        let _ = writeln!(out, "{name}_p50 {}", prom_f64(h.quantile(0.50)));
        let _ = writeln!(out, "# TYPE {name}_p99 gauge");
        let _ = writeln!(out, "{name}_p99 {}", prom_f64(h.quantile(0.99)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{BucketSpec, HistogramDelta};
    use crate::recorder::Recorder;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(
            sanitize_name("serve.ingest_batch_us"),
            "serve_ingest_batch_us"
        );
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a:b_c1"), "a:b_c1");
    }

    #[test]
    fn render_emits_cumulative_buckets_and_quantiles() {
        let mut rec = MemoryRecorder::new();
        rec.counter_add("serve.batches", 7);
        rec.gauge_set("serve.shards", 4.0);
        rec.gauge_set("serve.nan", f64::NAN);
        let mut h = HistogramDelta::new(BucketSpec::log_spaced(1.0, 2.0, 3));
        h.record(0.5); // underflow
        h.record(1.5);
        h.record(3.0);
        h.record(100.0); // overflow
        rec.histogram_merge("serve.query_us", &h);
        let page = render(&rec);
        assert!(page.contains("# TYPE serve_batches_total counter\nserve_batches_total 7\n"));
        assert!(page.contains("# TYPE serve_shards gauge\nserve_shards 4.0\n"));
        assert!(page.contains("serve_nan NaN\n"));
        // Buckets are cumulative: 1 (underflow, le=1) + 1 (le=2) + 1 (le=4)
        // + 0 (le=8) + 1 (+Inf).
        assert!(page.contains("serve_query_us_bucket{le=\"1.0\"} 1\n"));
        assert!(page.contains("serve_query_us_bucket{le=\"2.0\"} 2\n"));
        assert!(page.contains("serve_query_us_bucket{le=\"4.0\"} 3\n"));
        assert!(page.contains("serve_query_us_bucket{le=\"8.0\"} 3\n"));
        assert!(page.contains("serve_query_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(page.contains("serve_query_us_sum NaN\n"));
        assert!(page.contains("serve_query_us_count 4\n"));
        assert!(page.contains("serve_query_us_p50 1.0\n"));
        assert!(page.contains("serve_query_us_p99 8.0\n"));
        // Deterministic.
        assert_eq!(page, render(&rec));
    }
}
