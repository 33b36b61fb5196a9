//! Exporters: the JSON stats snapshot (written by `--stats`, read by
//! `puppies stats`) and the Chrome `trace_event` file (written by
//! `--trace`, loadable in `about:tracing` or <https://ui.perfetto.dev>).
//!
//! Both formats are emitted and parsed by hand — the workspace has no
//! serde, and both schemas are small and ours.

use crate::hist::HistogramSnapshot;
use crate::metrics::{HistStats, MetricRegistry, MetricsSnapshot};
use crate::span::SpanRecord;
use std::fmt::Write as _;

/// Escapes `s` into a JSON string body (no surrounding quotes): `"`,
/// `\`, and all control characters, per RFC 8259.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders finished spans as a Chrome `trace_event` JSON document:
/// complete (`"ph":"X"`) events with microsecond timestamps, plus
/// thread-name metadata events so Perfetto labels each track.
pub fn chrome_trace(spans: &[SpanRecord], threads: &[(u64, String)], dropped: u64) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 256);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, name) in threads {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        );
    }
    for s in spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.tid,
            s.ts_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            escape_json(&s.name),
            escape_json(s.cat),
            s.id,
            s.parent
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"");
    if dropped > 0 {
        let _ = write!(out, ",\"otherData\":{{\"dropped_spans\":{dropped}}}");
    }
    out.push_str("}\n");
    out
}

/// Renders a metrics snapshot as the stats JSON document. Histogram
/// values are nanoseconds for span- and latency-derived entries (the
/// pipeline records ns); the document stores raw numbers and the pretty
/// printer scales for display.
pub fn stats_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"counters\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {v}", escape_json(name));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {v}", escape_json(name));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}}",
            escape_json(name),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50,
            h.p95,
            h.p99
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Parses a document produced by [`stats_json`] back into a snapshot.
/// A fixed-schema scanner in the same spirit as the bench JSON reader —
/// not a general JSON parser.
///
/// # Errors
/// Returns a description of the first malformed construct.
pub fn parse_stats_json(text: &str) -> Result<MetricsSnapshot, String> {
    let mut snap = MetricsSnapshot::default();
    let section = |name: &str| -> Result<&str, String> {
        let key = format!("\"{name}\":");
        let start = text
            .find(&key)
            .ok_or_else(|| format!("no \"{name}\" section"))?;
        let body = &text[start + key.len()..];
        let open = body.find('{').ok_or_else(|| format!("bad {name}"))?;
        let mut depth = 0usize;
        for (i, c) in body[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(&body[open + 1..open + i]);
                    }
                }
                _ => {}
            }
        }
        Err(format!("unterminated {name}"))
    };
    for (name, value) in scan_entries(section("counters")?) {
        snap.counters.push((
            name,
            value
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("bad counter: {e}"))?,
        ));
    }
    for (name, value) in scan_entries(section("gauges")?) {
        snap.gauges.push((
            name,
            value
                .trim()
                .parse::<i64>()
                .map_err(|e| format!("bad gauge: {e}"))?,
        ));
    }
    for (name, value) in scan_entries(section("histograms")?) {
        let field = |f: &str| -> Result<f64, String> {
            let key = format!("\"{f}\":");
            let p = value
                .find(&key)
                .ok_or_else(|| format!("histogram {name}: no {f}"))?;
            let rest = value[p + key.len()..].trim_start();
            let end = rest
                .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end]
                .parse::<f64>()
                .map_err(|e| format!("histogram {name}: bad {f}: {e}"))
        };
        snap.histograms.push((
            name.clone(),
            HistStats {
                count: field("count")? as u64,
                sum: field("sum")? as u64,
                min: field("min")? as u64,
                max: field("max")? as u64,
                p50: field("p50")?,
                p95: field("p95")?,
                p99: field("p99")?,
            },
        ));
    }
    Ok(snap)
}

/// Yields `(unescaped name, raw value text)` for each top-level
/// `"name": value` entry of an object body. Values end at a top-level
/// comma (or the end of the body); object values keep their braces.
fn scan_entries(body: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let bytes = body.as_bytes();
    while pos < body.len() {
        let Some(q0) = body[pos..].find('"').map(|i| pos + i) else {
            break;
        };
        // Find the unescaped closing quote.
        let mut i = q0 + 1;
        let mut q1 = None;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    q1 = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let Some(q1) = q1 else { break };
        let name = unescape_json(&body[q0 + 1..q1]);
        let Some(colon) = body[q1..].find(':').map(|i| q1 + i) else {
            break;
        };
        let value_start = colon + 1;
        let mut depth = 0i32;
        let mut end = body.len();
        for (i, c) in body[value_start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    end = value_start + i;
                    break;
                }
                _ => {}
            }
        }
        out.push((name, body[value_start..end].trim().to_string()));
        pos = end + 1;
    }
    out
}

fn unescape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => break,
        }
    }
    out
}

/// Maps a dotted metric name onto the Prometheus identifier charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: dots (and anything else illegal) become
/// underscores, and a leading digit gets an underscore prefix.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote, and line feed.
pub fn escape_prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text per the Prometheus text format: backslash and
/// line feed only (quotes are legal in help text).
pub fn escape_prom_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders every metric in `reg` in the Prometheus text exposition
/// format (version 0.0.4, the `text/plain` scrape format).
///
/// * Counters gain the conventional `_total` suffix.
/// * Histograms render cumulative `le` buckets from the log-linear grid
///   (occupied buckets only — the grid has 593 cells, almost all empty),
///   always ending with `+Inf`, `_sum`, and `_count`; an empty histogram
///   still renders all three so scrapers see a well-formed family.
/// * The original dotted name is preserved in `# HELP` (escaped), so the
///   mapping back to `--stats` names is mechanical.
///
/// Values are raw (the pipeline records ns for spans, µs for request
/// latencies); unit suffixes in the metric name carry the unit.
pub fn prometheus_text(reg: &MetricRegistry) -> String {
    let snap = reg.snapshot();
    let mut out = String::with_capacity(4096);
    for (name, v) in &snap.counters {
        let pname = prometheus_name(name);
        let _ = writeln!(out, "# HELP {pname}_total {}", escape_prom_help(name));
        let _ = writeln!(out, "# TYPE {pname}_total counter");
        let _ = writeln!(out, "{pname}_total {v}");
    }
    for (name, v) in &snap.gauges {
        let pname = prometheus_name(name);
        let _ = writeln!(out, "# HELP {pname} {}", escape_prom_help(name));
        let _ = writeln!(out, "# TYPE {pname} gauge");
        let _ = writeln!(out, "{pname} {v}");
    }
    for (name, _) in &snap.histograms {
        // The name is registered as a histogram, so the lookup cannot
        // conflict; a racing kind-conflict would return None and the
        // family is simply skipped this scrape.
        let Some(h) = reg.histogram(name) else {
            continue;
        };
        prometheus_histogram(&mut out, name, &h.cumulative());
    }
    out
}

/// Appends one histogram family in the Prometheus text format, as
/// [`prometheus_text`] renders each registry histogram: `# HELP` with the
/// dotted `name` (escaped), `# TYPE`, the occupied cumulative `le`
/// buckets, `+Inf`, `_sum` and `_count`. Exported so a histogram kept
/// outside the registry renders byte-identically.
pub fn prometheus_histogram(out: &mut String, name: &str, cum: &HistogramSnapshot) {
    let pname = prometheus_name(name);
    let _ = writeln!(out, "# HELP {pname} {}", escape_prom_help(name));
    let _ = writeln!(out, "# TYPE {pname} histogram");
    for &(le, c) in &cum.buckets {
        let _ = writeln!(out, "{pname}_bucket{{le=\"{le}\"}} {c}");
    }
    let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", cum.count);
    let _ = writeln!(out, "{pname}_sum {}", cum.sum);
    let _ = writeln!(out, "{pname}_count {}", cum.count);
}

/// Renders a snapshot as the human-readable table `puppies stats` prints.
/// Histograms are shown in milliseconds (recorded values are ns).
pub fn render_stats(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !snap.histograms.is_empty() {
        out.push_str(&format!(
            "{:<26} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "histogram (ms)", "count", "p50", "p95", "p99", "max"
        ));
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "{:<26} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                name,
                h.count,
                h.p50 / 1e6,
                h.p95 / 1e6,
                h.p99 / 1e6,
                h.max as f64 / 1e6
            );
        }
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "{:<26} {:>8}", "counter", "value");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "{name:<26} {v:>8}");
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "{:<26} {:>8}", "gauge", "value");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "{name:<26} {v:>8}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_json(r"a\b"), r"a\\b");
        assert_eq!(escape_json("a\nb\tc\rd"), r"a\nb\tc\rd");
        assert_eq!(escape_json("\u{01}"), "\\u0001");
        assert_eq!(escape_json("é✓"), "é✓"); // non-ASCII passes through
    }

    #[test]
    fn chrome_trace_escapes_span_names() {
        let spans = vec![SpanRecord {
            name: Cow::Owned("evil\"name\\with\ncontrols\u{02}".to_string()),
            cat: "test",
            id: 1,
            parent: 0,
            tid: 1,
            ts_ns: 1500,
            dur_ns: 2500,
        }];
        let threads = vec![(1u64, "weird\"thread".to_string())];
        let json = chrome_trace(&spans, &threads, 0);
        assert!(json.contains(r#"evil\"name\\with\ncontrols"#));
        assert!(json.contains(r#"weird\"thread"#));
        // No raw control bytes or unescaped quotes-in-names survive.
        assert!(!json.bytes().any(|b| b < 0x20 && b != b'\n'));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
    }

    #[test]
    fn stats_json_roundtrips() {
        let snap = MetricsSnapshot {
            counters: vec![("a.b".into(), 42), ("weird \"name\"".into(), 7)],
            gauges: vec![("g".into(), -5)],
            histograms: vec![(
                "jpeg.encode".into(),
                HistStats {
                    count: 10,
                    sum: 1000,
                    min: 50,
                    max: 200,
                    p50: 100.0,
                    p95: 190.5,
                    p99: 199.9,
                },
            )],
        };
        let json = stats_json(&snap);
        let back = parse_stats_json(&json).unwrap();
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms.len(), 1);
        let (name, h) = &back.histograms[0];
        assert_eq!(name, "jpeg.encode");
        assert_eq!(h.count, 10);
        assert!((h.p95 - 190.5).abs() < 1e-9);
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("psp.net.requests"), "psp_net_requests");
        assert_eq!(prometheus_name("bench.net p99"), "bench_net_p99");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("a:b_c9"), "a:b_c9");
    }

    #[test]
    fn prometheus_escaping_per_text_format_spec() {
        // Label values escape backslash, quote, and newline.
        assert_eq!(escape_prom_label(r"a\b"), r"a\\b");
        assert_eq!(escape_prom_label(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(escape_prom_label("two\nlines"), r"two\nlines");
        // Help text escapes backslash and newline but leaves quotes alone.
        assert_eq!(escape_prom_help(r"a\b"), r"a\\b");
        assert_eq!(escape_prom_help("two\nlines"), r"two\nlines");
        assert_eq!(escape_prom_help(r#"say "hi""#), r#"say "hi""#);
    }

    #[test]
    fn prometheus_text_renders_all_three_kinds() {
        let reg = MetricRegistry::default();
        reg.counter("psp.net.requests").unwrap().add(3);
        reg.gauge("psp.photos").unwrap().set(-2);
        let h = reg.histogram("psp.net.req_us").unwrap();
        h.record(5);
        h.record(5);
        h.record(700);
        let text = prometheus_text(&reg);
        assert!(text.contains("# TYPE psp_net_requests_total counter"));
        assert!(text.contains("\npsp_net_requests_total 3\n"));
        assert!(text.contains("# TYPE psp_photos gauge"));
        assert!(text.contains("\npsp_photos -2\n"));
        assert!(text.contains("# TYPE psp_net_req_us histogram"));
        assert!(text.contains("psp_net_req_us_bucket{le=\"5\"} 2\n"));
        assert!(text.contains("psp_net_req_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("\npsp_net_req_us_sum 710\n"));
        assert!(text.contains("\npsp_net_req_us_count 3\n"));
        // The dotted names survive in HELP lines.
        assert!(text.contains("# HELP psp_net_req_us psp.net.req_us\n"));
        // Cumulative buckets are monotone non-decreasing in both fields.
        let mut prev = (0u64, 0u64);
        for line in text
            .lines()
            .filter(|l| l.contains("_bucket{le=\"") && !l.contains("+Inf"))
        {
            let le: u64 = line
                .split("le=\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            let c: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(le >= prev.0 && c >= prev.1, "{line}");
            prev = (le, c);
        }
    }

    #[test]
    fn standalone_histogram_renders_byte_identically_to_the_registry() {
        let reg = MetricRegistry::default();
        let in_registry = reg.histogram("psp.net.upload_us").unwrap();
        let standalone = crate::Histogram::new();
        for v in [0, 3, 3, 17, 250, 4_000, 90_000, 1 << 41] {
            in_registry.record(v);
            standalone.record(v);
        }
        let mut out = String::new();
        prometheus_histogram(&mut out, "psp.net.upload_us", &standalone.cumulative());
        assert_eq!(out, prometheus_text(&reg));
        // An empty standalone histogram renders like an empty registered one.
        let reg = MetricRegistry::default();
        reg.histogram("empty.hist").unwrap();
        let mut out = String::new();
        prometheus_histogram(
            &mut out,
            "empty.hist",
            &crate::Histogram::new().cumulative(),
        );
        assert_eq!(out, prometheus_text(&reg));
    }

    #[test]
    fn prometheus_empty_histogram_still_renders_inf_sum_count() {
        let reg = MetricRegistry::default();
        reg.histogram("empty.hist").unwrap();
        let text = prometheus_text(&reg);
        assert!(text.contains("empty_hist_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("empty_hist_sum 0\n"));
        assert!(text.contains("empty_hist_count 0\n"));
        // No finite buckets for an empty histogram.
        assert!(!text.contains("empty_hist_bucket{le=\"0\""));
    }

    #[test]
    fn prometheus_help_escapes_metric_names_with_specials() {
        let reg = MetricRegistry::default();
        reg.counter("weird\\name\nwith specials").unwrap().add(1);
        let text = prometheus_text(&reg);
        assert!(text.contains(r"# HELP weird_name_with_specials_total weird\\name\nwith specials"));
        // The body never contains a raw newline inside a HELP line.
        for line in text.lines() {
            assert!(!line.is_empty());
        }
    }

    #[test]
    fn render_includes_quantile_columns() {
        let snap = MetricsSnapshot {
            counters: vec![("c".into(), 1)],
            gauges: vec![],
            histograms: vec![(
                "h".into(),
                HistStats {
                    count: 1,
                    sum: 2_000_000,
                    min: 2_000_000,
                    max: 2_000_000,
                    p50: 2_000_000.0,
                    p95: 2_000_000.0,
                    p99: 2_000_000.0,
                },
            )],
        };
        let text = render_stats(&snap);
        assert!(text.contains("p50"));
        assert!(text.contains("p99"));
        assert!(text.contains("2.000"));
    }
}
