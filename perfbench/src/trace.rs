//! The traced run's bookkeeping: the benchmark's own spans around each
//! public call it makes, and the per-layer table built from them at exit.
//!
//! Spans are recorded on the `puppies-obs` subscriber the traced run
//! installs; the crates' own spans land in the same buffer, so the
//! benchmark tags its spans with [`CAT`] and computes layer times over
//! those alone. A layer's self time is its span minus the part of its
//! interval that its child spans cover.

use crate::server::{Scrape, Serve};
use crate::sweep::{self, SweepInput};
use crate::{metric, Ctx, Metric};
use puppies_obs::{SpanGuard, SpanRecord};
use puppies_psp::net::client::WireServed;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Trace category of every span the benchmark records.
pub const CAT: &str = "bench";

/// Opens a benchmark span (an inert guard when tracing is off).
pub fn span(name: &'static str) -> SpanGuard {
    puppies_obs::span(name, CAT)
}

/// One row of the per-layer table (times in µs).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: String,
    pub count: usize,
    pub p50_us: f64,
    pub self_p50_us: f64,
    pub self_total_us: f64,
}

/// Self time of every span in `spans` (nanoseconds), keyed by span id:
/// the span's duration minus the union of its children's intervals,
/// each clipped to the parent's interval.
pub fn self_times(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.ts_ns, s.ts_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (start, end) = (s.ts_ns, s.ts_ns + s.dur_ns);
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(start), b.min(end)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns - covered.min(s.dur_ns))
        })
        .collect()
}

/// Per-layer table over the benchmark's spans: count, p50 duration and
/// self time per span name, sorted by name.
pub fn layer_table(all: &[SpanRecord]) -> Vec<LayerRow> {
    let spans: Vec<SpanRecord> = all.iter().filter(|s| s.cat == CAT).cloned().collect();
    let selfs = self_times(&spans);
    let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in &spans {
        let e = by_name.entry(&s.name).or_default();
        e.0.push(s.dur_ns as f64 / 1e3);
        e.1.push(selfs[&s.id] as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (durs, selfs))| {
            let total = selfs.iter().sum();
            let count = durs.len();
            LayerRow {
                name: name.to_string(),
                count,
                p50_us: crate::stats::Summary::of(durs).p50,
                self_p50_us: crate::stats::Summary::of(selfs).p50,
                self_total_us: total,
            }
        })
        .collect()
}

/// The table as text, one layer per line.
pub fn render(rows: &[LayerRow]) -> String {
    let mut out = format!(
        "{:<34} {:>8} {:>12} {:>12} {:>14}\n",
        "span", "count", "p50_us", "self_p50_us", "self_total_ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>12.1} {:>12.1} {:>14.2}",
            r.name,
            r.count,
            r.p50_us,
            r.self_p50_us,
            r.self_total_us / 1e3
        );
    }
    out
}

/// What one timed phase of a workload's loop reports to the protocol.
pub struct PhaseOut {
    /// The workload's end-to-end op latency median, µs.
    pub p50_us: f64,
    /// Ops completed in the phase.
    pub ops: u64,
}

/// The traced run's results, for the workload to extend and report.
pub struct Traced {
    /// Per-layer metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Report-only layer metrics.
    pub extra: Vec<Metric>,
    pub rows: Vec<LayerRow>,
    /// `/metrics` scrapes around the traced phase (wire workloads).
    pub scrapes: Option<(Scrape, Scrape)>,
    /// Ops of the traced phase.
    pub ops: u64,
}

impl Traced {
    /// p50 of a benchmark span, µs.
    pub fn p50(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(f64::NAN, |r| r.p50_us)
    }
}

/// The traced protocol, shared by every workload:
///
/// 1. half the run untraced (`phase(false)`), for the overhead baseline;
/// 2. the obs handler-overhead replay, with its own short subscribers;
/// 3. the subscriber installed; `/metrics` and CPU read; the other half
///    traced (`phase(true)`); `/metrics` and CPU read again, outside the
///    timed window;
/// 4. the in-process layer sweep under the same subscriber;
/// 5. spans taken off the subscriber and written out: a Chrome trace and
///    the per-layer table, both under the run's output directory.
pub fn traced_run(
    ctx: &Ctx,
    workload: &str,
    serve: Option<&Serve>,
    input: &SweepInput,
    mut phase: impl FnMut(bool) -> Result<PhaseOut, String>,
) -> Result<(Traced, Vec<String>), String> {
    let untraced = phase(false)?;
    let handler_overhead = sweep::handler_overhead_us(input);
    let session = puppies_obs::Obs::install();
    let before = serve.map(Serve::scrape).transpose()?;
    let (srv_cpu0, cpu0) = (serve.map(Serve::cpu_s), crate::self_cpu_s());
    let traced = phase(true)?;
    let cpu = crate::self_cpu_s() - cpu0;
    let srv_cpu = serve.map(Serve::cpu_s).zip(srv_cpu0).map(|(a, b)| a - b);
    let after = serve.map(Serve::scrape).transpose()?;
    let split = sweep::run(input);
    let obs = session.finish().expect("session subscriber");
    let spans = obs.spans();
    let rows = layer_table(&spans);

    let stem = ctx.out.join(format!("{workload}-seed{}", ctx.seed));
    let trace_path = stem.with_extension("trace.json");
    let table_path = stem.with_extension("layers.txt");
    std::fs::write(&trace_path, obs.chrome_trace())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    std::fs::write(&table_path, render(&rows))
        .map_err(|e| format!("writing {}: {e}", table_path.display()))?;

    let ops = traced.ops.max(1) as f64;
    let mut metrics = sweep::layer_metrics(&rows, input);
    metrics.push(metric("obs.handler_overhead_us", handler_overhead, "us"));
    metrics.push(metric(
        "obs.trace_overhead_pct",
        (traced.p50_us / untraced.p50_us - 1.0) * 100.0,
        "%",
    ));
    metrics.push(metric("client.cpu_us_per_op", cpu * 1e6 / ops, "us"));
    let mut extra = split;
    if let Some(c) = srv_cpu {
        extra.push(metric("server.cpu_us_per_op", c * 1e6 / ops, "us"));
    }
    let notes = vec![
        format!(
            "traced phase: {} ops, e2e p50 {:.1} us vs untraced phase {} ops, p50 {:.1} us",
            traced.ops, traced.p50_us, untraced.ops, untraced.p50_us
        ),
        format!(
            "spans written to {} ({} spans)",
            trace_path.display(),
            spans.len()
        ),
        format!("per-layer table written to {}", table_path.display()),
        render(&rows),
    ];
    Ok((
        Traced {
            metrics,
            extra,
            rows,
            scrapes: before.zip(after),
            ops: traced.ops,
        },
        notes,
    ))
}

/// The wire-side layer rows of a traced phase: client call time from the
/// benchmark's `net.client` spans, handler time from the server's own
/// per-endpoint histogram, and the residual between them.
pub fn wire_rows(t: &Traced, endpoint_hist: &str) -> Vec<Metric> {
    let client = t.p50("net.client");
    let handler = t
        .scrapes
        .as_ref()
        .map_or(f64::NAN, |(b, a)| a.hist_p50_delta(b, endpoint_hist));
    vec![
        metric("net.client_us", client, "us"),
        metric("net.handler_us", handler, "us"),
        metric("net.residual_us", client - handler, "us"),
    ]
}

/// Index of an `x-served-path` value in a served-path tally.
pub fn served_slot(s: WireServed) -> usize {
    match s {
        WireServed::Cached => 0,
        WireServed::CoeffDomain => 1,
        WireServed::PixelFallback => 2,
        WireServed::SigCached => 3,
        WireServed::Unknown => 4,
    }
}

/// Shares of responses per served path, from `x-served-path` headers.
pub fn served_rows(served: &[u64; 5]) -> Vec<Metric> {
    let total = served.iter().sum::<u64>().max(1) as f64;
    ["cached", "coeff", "pixel", "sig"]
        .iter()
        .zip(served)
        .map(|(n, c)| {
            metric(
                &format!("store.served_{n}_ratio"),
                *c as f64 / total,
                "ratio",
            )
        })
        .collect()
}

/// Transform-cache and decode-memo ratios over a traced phase, from
/// `/metrics` counter deltas.
pub fn cache_rows(t: &Traced) -> Vec<Metric> {
    let Some((b, a)) = &t.scrapes else {
        return Vec::new();
    };
    let d = |n: &str| a.delta(b, n);
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            f64::NAN
        }
    };
    vec![
        metric(
            "cache.hit_ratio",
            ratio(d("psp_cache_hit_total"), d("psp_cache_miss_total")),
            "ratio",
        ),
        metric(
            "cache.evictions_per_op",
            d("psp_cache_eviction_total") / t.ops.max(1) as f64,
            "count",
        ),
        metric(
            "memo.hit_ratio",
            ratio(d("psp_memo_hit_total"), d("psp_memo_miss_total")),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, ts: u64, dur: u64, name: &'static str) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: CAT,
            id,
            parent,
            tid: 1,
            ts_ns: ts,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op [0,100): children [10,40) and [30,60) overlap -> cover 50,
        // plus [90,120) clipped to [90,100) -> 10. Self = 100 - 60.
        // The grandchild [12,20) belongs to child 2, not to the op.
        let spans = vec![
            rec(1, 0, 0, 100, "op"),
            rec(2, 1, 10, 30, "a"),
            rec(3, 1, 30, 30, "b"),
            rec(4, 1, 90, 30, "c"),
            rec(5, 2, 12, 8, "a.inner"),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 40);
        assert_eq!(st[&2], 22);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 8);
    }

    #[test]
    fn table_groups_by_name_and_ignores_foreign_spans() {
        let mut spans = vec![
            rec(1, 0, 0, 10_000, "op"),
            rec(2, 1, 0, 4_000, "leaf"),
            rec(3, 0, 20_000, 30_000, "op"),
            rec(4, 3, 20_000, 10_000, "leaf"),
        ];
        spans.push(SpanRecord {
            cat: "core",
            ..rec(5, 2, 0, 4_000, "crate.internal")
        });
        let rows = layer_table(&spans);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["leaf", "op"]);
        let op = &rows[1];
        assert_eq!(op.count, 2);
        assert_eq!(op.p50_us, 10.0);
        assert_eq!(op.self_p50_us, 6.0);
        assert_eq!(op.self_total_us, 26.0);
        assert_eq!(rows[0].self_total_us, 14.0);
    }
}
