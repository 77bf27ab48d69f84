//! Prometheus text-format exposition (version 0.0.4) over a
//! [`MetricsRegistry`] snapshot.
//!
//! Counters and gauges render one sample per row; histograms render the
//! standard cumulative `_bucket{le="..."}` series (non-empty buckets
//! plus the mandatory `+Inf`), `_sum` and `_count`. Label values are
//! escaped per the spec (`\\`, `\"`, `\n`), and metric names are
//! sanitised to the `[a-zA-Z_:][a-zA-Z0-9_:]*` charset so the output
//! always parses.

use crate::registry::{MetricFamily, MetricHandle, MetricKind, MetricsRegistry};
use std::fmt::Write as _;

/// Content type for the text exposition format.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Replaces characters outside `[a-zA-Z0-9_:]` with `_`, prefixing `_`
/// when the first character is a digit.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if ok {
            out.push(ch);
        } else if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value: backslash, double quote and newline.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes help text: backslash and newline (quotes are legal here).
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Formats a sample value the way Prometheus expects (`+Inf`, integers
/// without an exponent, everything else via shortest-round-trip `{}`).
fn format_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label_value(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", k, escape_label_value(v));
    }
    out.push('}');
}

fn kind_str(kind: MetricKind) -> &'static str {
    match kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        // A windowed histogram's cumulative state renders as a standard
        // histogram family; its recent-window quantiles follow as a
        // synthetic `<name>_windowed` gauge family.
        MetricKind::Histogram | MetricKind::WindowedHistogram => "histogram",
    }
}

/// Quantiles exported for each windowed histogram row.
const WINDOWED_QUANTILES: [(&str, f64); 3] = [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)];

fn render_histogram_rows(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snapshot: &crate::registry::HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for bucket in &snapshot.buckets {
        cumulative += bucket.count;
        if bucket.upper.is_infinite() {
            continue; // folded into the +Inf row below
        }
        let _ = write!(out, "{name}_bucket");
        write_labels(out, labels, Some(("le", &format_value(bucket.upper))));
        let _ = writeln!(out, " {cumulative}");
    }
    let _ = write!(out, "{name}_bucket");
    write_labels(out, labels, Some(("le", "+Inf")));
    let _ = writeln!(out, " {}", snapshot.count);
    let _ = write!(out, "{name}_sum");
    write_labels(out, labels, None);
    let _ = writeln!(out, " {}", format_value(snapshot.sum));
    let _ = write!(out, "{name}_count");
    write_labels(out, labels, None);
    let _ = writeln!(out, " {}", snapshot.count);
}

/// Renders the synthetic `<name>_windowed` gauge family: recent-window
/// quantile rows for every windowed-histogram row of `family`.
fn render_windowed_family(out: &mut String, family: &MetricFamily) {
    let name = format!("{}_windowed", sanitize_name(&family.name));
    let _ = writeln!(out, "# TYPE {name} gauge");
    for row in &family.rows {
        let MetricHandle::Windowed(w) = &row.handle else {
            continue;
        };
        let snapshot = w.windowed_snapshot();
        for (label, q) in WINDOWED_QUANTILES {
            out.push_str(&name);
            write_labels(out, &row.labels, Some(("quantile", label)));
            let _ = writeln!(out, " {}", format_value(snapshot.quantile(q)));
        }
    }
}

fn render_family(out: &mut String, family: &MetricFamily) {
    let name = sanitize_name(&family.name);
    if let Some(help) = &family.help {
        let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    }
    let _ = writeln!(out, "# TYPE {name} {}", kind_str(family.kind));
    for row in &family.rows {
        match &row.handle {
            MetricHandle::Counter(c) => {
                out.push_str(&name);
                write_labels(out, &row.labels, None);
                let _ = writeln!(out, " {}", c.get());
            }
            MetricHandle::Gauge(g) => {
                out.push_str(&name);
                write_labels(out, &row.labels, None);
                let _ = writeln!(out, " {}", format_value(g.get()));
            }
            MetricHandle::Histogram(h) => {
                render_histogram_rows(out, &name, &row.labels, &h.snapshot());
            }
            MetricHandle::Windowed(w) => {
                render_histogram_rows(out, &name, &row.labels, &w.snapshot());
            }
        }
    }
    if family.kind == MetricKind::WindowedHistogram {
        render_windowed_family(out, family);
    }
}

/// Renders every family of `registry` in the Prometheus text format.
pub fn render(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for family in registry.families() {
        render_family(&mut out, &family);
    }
    out
}

/// Label names whose values are per-instance scope ids minted by
/// [`crate::next_scope_id`]: a row carrying one belongs to exactly one
/// service, job runner, metrics database or fleet.
pub const SCOPE_LABELS: [&str; 4] = ["service", "runner", "db", "fleet"];

/// Renders the rows of `registry` that one instance owns: every unscoped
/// row, plus each row whose scope labels ([`SCOPE_LABELS`]) all appear
/// in `owned` as `(label, scope id)` pairs. Families left without rows
/// are omitted. Instances sharing the process-wide registry expose
/// through this, so one instance's scrape never shows another's series.
pub fn render_owned(registry: &MetricsRegistry, owned: &[(&str, String)]) -> String {
    let owns = |labels: &[(String, String)]| {
        labels
            .iter()
            .filter(|(k, _)| SCOPE_LABELS.contains(&k.as_str()))
            .all(|(k, v)| owned.iter().any(|(ok, ov)| ok == k && ov == v))
    };
    let mut out = String::new();
    for mut family in registry.families() {
        family.rows.retain(|row| owns(&row.labels));
        if !family.rows.is_empty() {
            render_family(&mut out, &family);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_gauges_and_histograms() {
        let r = MetricsRegistry::new();
        r.describe("req_total", "requests served");
        r.counter("req_total", &[("route", "/health")]).add(3);
        r.gauge("depth", &[]).set(2.5);
        let h = r.histogram("lat_seconds", &[("route", "/x")]);
        h.record(0.5);
        h.record(0.5);
        h.record(2.0);
        let text = render(&r);
        assert!(text.contains("# HELP req_total requests served\n"));
        assert!(text.contains("# TYPE req_total counter\n"));
        assert!(text.contains("req_total{route=\"/health\"} 3\n"));
        assert!(text.contains("# TYPE depth gauge\n"));
        assert!(text.contains("depth 2.5\n"));
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        assert!(text.contains("lat_seconds_bucket{route=\"/x\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_seconds_sum{route=\"/x\"} 3\n"));
        assert!(text.contains("lat_seconds_count{route=\"/x\"} 3\n"));
        // Cumulative counts: the bucket containing 0.5 must report 2.
        assert!(text
            .lines()
            .any(|l| l.starts_with("lat_seconds_bucket") && l.ends_with(" 2")));
    }

    #[test]
    fn owned_render_keeps_unscoped_and_owned_rows_only() {
        let r = MetricsRegistry::new();
        r.counter("req_total", &[("route", "/health")]).inc();
        r.counter("fits_total", &[("service", "1")]).inc();
        r.counter("fits_total", &[("service", "2")]).inc();
        r.counter("ingest_total", &[("db", "2"), ("shard", "0")])
            .inc();
        let text = render_owned(&r, &[("service", "1".to_string())]);
        assert!(text.contains("req_total{route=\"/health\"} 1\n"));
        assert!(text.contains("fits_total{service=\"1\"} 1\n"));
        assert!(!text.contains("service=\"2\""));
        assert!(!text.contains("ingest_total"), "empty families are omitted");
    }

    #[test]
    fn renders_windowed_histograms_with_quantile_gauges() {
        let r = MetricsRegistry::new();
        let w = r.windowed_histogram("route_lat_seconds", &[("route", "/plan")]);
        for _ in 0..10 {
            w.record(0.5);
        }
        let text = render(&r);
        // Cumulative rows keep the plain histogram contract.
        assert!(text.contains("# TYPE route_lat_seconds histogram\n"));
        assert!(text.contains("route_lat_seconds_bucket{route=\"/plan\",le=\"+Inf\"} 10\n"));
        assert!(text.contains("route_lat_seconds_count{route=\"/plan\"} 10\n"));
        // The synthetic windowed gauge family follows.
        assert!(text.contains("# TYPE route_lat_seconds_windowed gauge\n"));
        for q in ["0.5", "0.9", "0.99"] {
            let row = text
                .lines()
                .find(|l| {
                    l.starts_with("route_lat_seconds_windowed{")
                        && l.contains(&format!("quantile=\"{q}\""))
                })
                .unwrap_or_else(|| panic!("missing windowed quantile {q}:\n{text}"));
            assert!(row.contains("route=\"/plan\""), "{row}");
            let value: f64 = row.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value > 0.4 && value <= 0.5, "{row}");
        }
    }

    #[test]
    fn escapes_labels_and_sanitizes_names() {
        let r = MetricsRegistry::new();
        r.counter("weird.name-1", &[("path", "a\\b\"c\nd")]).inc();
        let text = render(&r);
        assert!(text.contains("# TYPE weird_name_1 counter\n"));
        assert!(text.contains("weird_name_1{path=\"a\\\\b\\\"c\\nd\"} 1\n"));
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert!(render(&MetricsRegistry::new()).is_empty());
    }
}
