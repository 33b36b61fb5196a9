//! The networked PSP's per-request record: one tracker per [`Endpoint`],
//! with rolling-window SLO accounting.
//!
//! Each tracker holds a cumulative latency histogram (its count is the
//! endpoint's request total; `/metrics` renders it as the
//! `psp_net_<endpoint>_us` family), cumulative error and burn counters,
//! and a ring of [`SLOTS`] time slots of [`SLOT_SECS`] seconds each (a
//! 60-second window) holding per-slot request counts, error counts, a
//! latency histogram, and one counter per transform-door [`ServedPath`].
//! Recording is lock-free — a handful of relaxed atomics per request; a
//! slot whose epoch has passed is reset in place by the first thread to
//! claim it for the new epoch, so the window "rolls" without any
//! background thread. Resets racing with records can lose a few edge
//! samples; SLO windows are statistics, not ledgers, and accept that.
//!
//! The **error budget burn** counter increments once per failed request
//! that lands while the rolling window's error rate already exceeds
//! [`TARGET_ERROR_RATE`] (1%, i.e. a 99% availability SLO) — a
//! scrape-friendly monotone signal that alerting can rate() without
//! re-deriving window state.

use crate::store::ServedPath;
use puppies_obs::{escape_prom_label, prometheus_histogram, Histogram, HistogramSnapshot};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seconds per window slot.
const SLOT_SECS: u64 = 10;
/// Slots in the ring; the window covers `SLOT_SECS * SLOTS` seconds.
const SLOTS: usize = 6;
/// Error-rate target (fraction of requests); the error budget burns while
/// the window's rate is above this.
const TARGET_ERROR_RATE: f64 = 0.01;

/// The endpoints tracked, in exposition order. `Other` absorbs anything
/// unrecognized so the label set stays bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Upload,
    Download,
    Params,
    Transformed,
    Transform,
    Search,
    Grants,
    Receivers,
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 9] = [
        Endpoint::Upload,
        Endpoint::Download,
        Endpoint::Params,
        Endpoint::Transformed,
        Endpoint::Transform,
        Endpoint::Search,
        Endpoint::Grants,
        Endpoint::Receivers,
        Endpoint::Other,
    ];

    /// The endpoint a request is accounted to.
    pub fn of(method: &str, path: &str) -> Endpoint {
        let mut segs = path.split('/').filter(|s| !s.is_empty());
        match (method, segs.next(), segs.next(), segs.next()) {
            ("POST", Some("photos"), None, None) => Endpoint::Upload,
            ("GET", Some("photos"), Some(_), None) => Endpoint::Download,
            ("GET", Some("photos"), Some(_), Some("params")) => Endpoint::Params,
            ("POST", Some("photos"), Some(_), Some("transformed")) => Endpoint::Transformed,
            ("POST", Some("photos"), Some(_), Some("transform")) => Endpoint::Transform,
            ("POST", Some("search"), None, None) => Endpoint::Search,
            (_, Some("grants"), ..) => Endpoint::Grants,
            (_, Some("receivers"), ..) => Endpoint::Receivers,
            _ => Endpoint::Other,
        }
    }

    /// The `endpoint` label value (also the access log's field).
    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Upload => "upload",
            Endpoint::Download => "download",
            Endpoint::Params => "params",
            Endpoint::Transformed => "transformed",
            Endpoint::Transform => "transform",
            Endpoint::Search => "search",
            Endpoint::Grants => "grants",
            Endpoint::Receivers => "receivers",
            Endpoint::Other => "other",
        }
    }
}

/// A slot's epoch tag is `epoch + 1` so the zero-initialized ring reads
/// as "never used" rather than "epoch 0".
#[derive(Default)]
struct Slot {
    tag: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Transform-door serves, indexed by [`ServedPath`] discriminant.
    served: [AtomicU64; 4],
    latency: Histogram,
}

impl Slot {
    fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        for s in &self.served {
            s.store(0, Ordering::Relaxed);
        }
        self.latency.reset();
    }

    fn served(&self, path: ServedPath) -> u64 {
        self.served[path as usize].load(Ordering::Relaxed)
    }
}

/// Point-in-time view of one endpoint's rolling window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct WindowStats {
    /// Requests in the window.
    requests: u64,
    /// Errors in the window.
    errors: u64,
    /// Requests per second over the seconds the window covers (which grow
    /// until the ring fills).
    request_rate: f64,
    /// Errors / requests (0 when idle).
    error_rate: f64,
    /// 99th-percentile latency estimate, µs.
    p99_us: f64,
    /// Cached serves / served transforms.
    cache_hit_rate: Option<f64>,
    /// Coeff-domain serves / (coeff + pixel) serves.
    coeff_serve_rate: Option<f64>,
    /// Signature-family serves / cached serves — the share of cached
    /// serves that only the perceptual-identity key could satisfy.
    sig_hit_rate: Option<f64>,
}

/// Cumulative + windowed view of one endpoint.
#[derive(Debug, Clone, Default, PartialEq)]
struct SloSnapshot {
    /// Latency since process start; its `count` is the request total.
    latency: HistogramSnapshot,
    /// Errors since process start.
    errors_total: u64,
    /// Error-budget burn events since process start (see module docs).
    burn_total: u64,
    /// The rolling window.
    window: WindowStats,
}

#[derive(Default)]
struct Tracker {
    slots: [Slot; SLOTS],
    latency: Histogram,
    errors_total: AtomicU64,
    burn_total: AtomicU64,
}

/// `num / den`, or `None` when nothing was counted.
fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

impl Tracker {
    fn slot_for(&self, epoch: u64) -> &Slot {
        let slot = &self.slots[(epoch % SLOTS as u64) as usize];
        let tag = epoch + 1;
        if slot.tag.load(Ordering::Relaxed) != tag && slot.tag.swap(tag, Ordering::Relaxed) != tag {
            slot.reset();
        }
        slot
    }

    /// Slots still inside the window ending at `epoch`.
    fn live_slots(&self, epoch: u64) -> impl Iterator<Item = &Slot> {
        let oldest_tag = (epoch + 1).saturating_sub(SLOTS as u64 - 1);
        self.slots.iter().filter(move |s| {
            let tag = s.tag.load(Ordering::Relaxed);
            tag != 0 && tag >= oldest_tag && tag <= epoch + 1
        })
    }

    fn record_at(&self, epoch: u64, ok: bool, latency_us: u64, served: Option<ServedPath>) {
        let slot = self.slot_for(epoch);
        slot.requests.fetch_add(1, Ordering::Relaxed);
        slot.latency.record(latency_us);
        if let Some(path) = served {
            slot.served[path as usize].fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency_us);
        if !ok {
            slot.errors.fetch_add(1, Ordering::Relaxed);
            self.errors_total.fetch_add(1, Ordering::Relaxed);
            let (mut req, mut err) = (0u64, 0u64);
            for s in self.live_slots(epoch) {
                req += s.requests.load(Ordering::Relaxed);
                err += s.errors.load(Ordering::Relaxed);
            }
            if req > 0 && err as f64 / req as f64 > TARGET_ERROR_RATE {
                self.burn_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn snapshot_at(&self, epoch: u64) -> SloSnapshot {
        let mut w = WindowStats::default();
        let merged = Histogram::new();
        let (mut coeff, mut pixel, mut cached, mut sig) = (0u64, 0u64, 0u64, 0u64);
        let mut live = 0u64;
        for s in self.live_slots(epoch) {
            live += 1;
            w.requests += s.requests.load(Ordering::Relaxed);
            w.errors += s.errors.load(Ordering::Relaxed);
            coeff += s.served(ServedPath::CoeffDomain);
            pixel += s.served(ServedPath::PixelFallback);
            cached += s.served(ServedPath::Cached);
            sig += s.served(ServedPath::SigCached);
            merged.merge(&s.latency);
        }
        // Idle slots never get claimed, so count covered time from the
        // window's span, capped by how long the process could have run.
        let covered_secs = SLOT_SECS * (SLOTS as u64).min(epoch + 1).max(live);
        w.request_rate = w.requests as f64 / covered_secs as f64;
        w.error_rate = ratio(w.errors, w.requests).unwrap_or(0.0);
        w.p99_us = merged.quantile(0.99);
        w.cache_hit_rate = ratio(cached + sig, cached + sig + coeff + pixel);
        w.coeff_serve_rate = ratio(coeff, coeff + pixel);
        w.sig_hit_rate = ratio(sig, cached + sig);
        SloSnapshot {
            latency: self.latency.cumulative(),
            errors_total: self.errors_total.load(Ordering::Relaxed),
            burn_total: self.burn_total.load(Ordering::Relaxed),
            window: w,
        }
    }
}

/// One tracker per [`Endpoint`] plus the shared clock.
pub struct SloRegistry {
    start: Instant,
    trackers: [Tracker; Endpoint::ALL.len()],
}

impl Default for SloRegistry {
    fn default() -> Self {
        SloRegistry {
            start: Instant::now(),
            trackers: Default::default(),
        }
    }
}

impl SloRegistry {
    fn epoch(&self) -> u64 {
        self.start.elapsed().as_secs() / SLOT_SECS
    }

    /// Records one request: `ok` is `false` for a 5xx (4xx are the
    /// client's problem, not the SLO's), `served` is the transform door's
    /// `x-served-path`.
    pub fn record(&self, ep: Endpoint, ok: bool, latency_us: u64, served: Option<ServedPath>) {
        self.record_at(self.epoch(), ep, ok, latency_us, served);
    }

    fn record_at(
        &self,
        epoch: u64,
        ep: Endpoint,
        ok: bool,
        latency_us: u64,
        served: Option<ServedPath>,
    ) {
        self.trackers[ep as usize].record_at(epoch, ok, latency_us, served);
    }

    fn snapshot_at(&self, epoch: u64, ep: Endpoint) -> SloSnapshot {
        self.trackers[ep as usize].snapshot_at(epoch)
    }

    /// Renders every tracker in the Prometheus text format, labelled by
    /// endpoint: monotone `psp_slo_{requests,errors,error_budget_burn}_total`
    /// counters, `psp_slo_window_*` gauges for the rolling window, and
    /// each endpoint's `psp_net_<endpoint>_us` latency histogram.
    /// Endpoints with no traffic yet are skipped to keep scrapes small.
    pub fn render_prometheus(&self) -> String {
        self.render_prometheus_at(self.epoch())
    }

    fn render_prometheus_at(&self, epoch: u64) -> String {
        let mut out = String::with_capacity(2048);
        let snaps: Vec<(Endpoint, SloSnapshot)> = Endpoint::ALL
            .iter()
            .map(|&ep| (ep, self.snapshot_at(epoch, ep)))
            .filter(|(_, s)| s.latency.count > 0)
            .collect();
        if snaps.is_empty() {
            return out;
        }
        let counter =
            |out: &mut String, name: &str, help: &str, get: &dyn Fn(&SloSnapshot) -> u64| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} counter");
                for (ep, s) in &snaps {
                    let _ = writeln!(
                        out,
                        "{name}{{endpoint=\"{}\"}} {}",
                        escape_prom_label(ep.as_str()),
                        get(s)
                    );
                }
            };
        counter(
            &mut out,
            "psp_slo_requests_total",
            "requests per endpoint",
            &|s| s.latency.count,
        );
        counter(
            &mut out,
            "psp_slo_errors_total",
            "5xx responses per endpoint",
            &|s| s.errors_total,
        );
        counter(
            &mut out,
            "psp_slo_error_budget_burn_total",
            "errors landed while the window error rate exceeded the SLO target",
            &|s| s.burn_total,
        );
        let gauge = |out: &mut String,
                     name: &str,
                     help: &str,
                     get: &dyn Fn(&SloSnapshot) -> Option<f64>| {
            let mut titled = false;
            for (ep, s) in &snaps {
                let Some(v) = get(s) else { continue };
                if !titled {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    titled = true;
                }
                let _ = writeln!(
                    out,
                    "{name}{{endpoint=\"{}\"}} {v}",
                    escape_prom_label(ep.as_str())
                );
            }
        };
        gauge(
            &mut out,
            "psp_slo_window_request_rate",
            "requests/s over the rolling window",
            &|s| Some(s.window.request_rate),
        );
        gauge(
            &mut out,
            "psp_slo_window_error_rate",
            "errors/requests over the rolling window",
            &|s| Some(s.window.error_rate),
        );
        gauge(
            &mut out,
            "psp_slo_window_p99_us",
            "p99 latency (us) over the rolling window",
            &|s| Some(s.window.p99_us),
        );
        gauge(
            &mut out,
            "psp_slo_window_cache_hit_rate",
            "transform-cache hit rate over the rolling window",
            &|s| s.window.cache_hit_rate,
        );
        gauge(
            &mut out,
            "psp_slo_window_coeff_serve_rate",
            "coeff-domain share of uncached transforms over the rolling window",
            &|s| s.window.coeff_serve_rate,
        );
        gauge(
            &mut out,
            "psp_slo_window_sig_hit_rate",
            "signature-family share of cached transform serves over the rolling window",
            &|s| s.window.sig_hit_rate,
        );
        for (ep, s) in &snaps {
            prometheus_histogram(&mut out, &format!("psp.net.{}_us", ep.as_str()), &s.latency);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request with no served path.
    fn plain(reg: &SloRegistry, epoch: u64, ep: Endpoint, ok: bool, latency_us: u64) {
        reg.record_at(epoch, ep, ok, latency_us, None);
    }

    /// A successful transform-door serve.
    fn serve(reg: &SloRegistry, path: ServedPath, latency_us: u64) {
        reg.record_at(0, Endpoint::Transformed, true, latency_us, Some(path));
    }

    #[test]
    fn window_tracks_rates_and_quantiles() {
        let reg = SloRegistry::default();
        for i in 0..100 {
            plain(&reg, 0, Endpoint::Upload, true, 100 + i);
        }
        plain(&reg, 0, Endpoint::Upload, false, 1000);
        let s = reg.snapshot_at(0, Endpoint::Upload);
        assert_eq!(s.latency.count, 101);
        assert_eq!(s.errors_total, 1);
        assert_eq!(s.window.requests, 101);
        assert_eq!(s.window.errors, 1);
        // Rank 99.99 of 101 lands on the 100th sample (199 µs), below
        // the 1000 µs outlier.
        assert!(s.window.p99_us >= 180.0 && s.window.p99_us <= 220.0);
        assert!(s.window.request_rate > 0.0);
        assert!(s.window.cache_hit_rate.is_none());
    }

    #[test]
    fn old_slots_roll_out_of_the_window() {
        let reg = SloRegistry::default();
        plain(&reg, 0, Endpoint::Download, true, 50);
        plain(&reg, 1, Endpoint::Download, true, 50);
        // The six-slot window at epoch 5 still sees both...
        assert_eq!(reg.snapshot_at(5, Endpoint::Download).window.requests, 2);
        // ...but at epoch 6 the window is epochs 1..=6, so the epoch-0
        // slot has rolled out; at epoch 20 the whole window is empty while
        // the cumulative histogram keeps the history.
        assert_eq!(reg.snapshot_at(6, Endpoint::Download).window.requests, 1);
        let s = reg.snapshot_at(20, Endpoint::Download);
        assert_eq!(s.window.requests, 0);
        assert_eq!(s.latency.count, 2);
        // A new record at epoch 20 reuses (and resets) a stale slot.
        plain(&reg, 20, Endpoint::Download, true, 50);
        assert_eq!(reg.snapshot_at(20, Endpoint::Download).window.requests, 1);
    }

    #[test]
    fn burn_counter_only_ticks_past_the_target() {
        let reg = SloRegistry::default();
        let burn = |reg: &SloRegistry| reg.snapshot_at(0, Endpoint::Transformed).burn_total;
        for _ in 0..200 {
            plain(&reg, 0, Endpoint::Transformed, true, 10);
        }
        // 1 and then 2 errors in 202 requests: 0.99% is not past the 1%
        // target — no burn.
        plain(&reg, 0, Endpoint::Transformed, false, 1000);
        plain(&reg, 0, Endpoint::Transformed, false, 1000);
        assert_eq!(burn(&reg), 0);
        // The third error takes the window to 3/203 = 1.48%: burns tick
        // once per error from here on.
        plain(&reg, 0, Endpoint::Transformed, false, 1000);
        assert_eq!(burn(&reg), 1);
        for _ in 0..13 {
            plain(&reg, 0, Endpoint::Transformed, false, 1000);
        }
        let s = reg.snapshot_at(0, Endpoint::Transformed);
        assert_eq!(s.errors_total, 16);
        assert_eq!(s.burn_total, 14);
    }

    #[test]
    fn serve_path_rates_only_from_transform_samples() {
        let reg = SloRegistry::default();
        serve(&reg, ServedPath::Cached, 200);
        for _ in 0..3 {
            serve(&reg, ServedPath::CoeffDomain, 200);
        }
        serve(&reg, ServedPath::PixelFallback, 900);
        // A request with no served path (a 4xx, say) moves no rate.
        plain(&reg, 0, Endpoint::Transformed, true, 30);
        let w = reg.snapshot_at(0, Endpoint::Transformed).window;
        assert_eq!(w.requests, 6);
        assert_eq!(w.cache_hit_rate, Some(0.2));
        assert_eq!(w.coeff_serve_rate, Some(0.75));
        assert_eq!(w.sig_hit_rate, Some(0.0), "one cached serve, exact key");
    }

    #[test]
    fn sig_hit_rate_tracks_family_served_share() {
        let reg = SloRegistry::default();
        // Three cached serves: two via the signature-family key.
        serve(&reg, ServedPath::SigCached, 40);
        serve(&reg, ServedPath::SigCached, 40);
        serve(&reg, ServedPath::Cached, 40);
        let w = reg.snapshot_at(0, Endpoint::Transformed).window;
        assert_eq!(w.cache_hit_rate, Some(1.0));
        assert_eq!(w.coeff_serve_rate, None, "no uncached serve");
        assert!((w.sig_hit_rate.unwrap() - 2.0 / 3.0).abs() < 1e-9);
        let text = reg.render_prometheus_at(0);
        assert!(text.contains("psp_slo_window_sig_hit_rate{endpoint=\"transformed\"}"));
        // The search endpoint is a first-class label.
        assert_eq!(Endpoint::of("POST", "/search"), Endpoint::Search);
        plain(&reg, 0, Endpoint::Search, true, 10);
        assert_eq!(reg.snapshot_at(0, Endpoint::Search).latency.count, 1);
    }

    #[test]
    fn unknown_endpoints_fold_into_other() {
        let reg = SloRegistry::default();
        for (method, path) in [
            ("GET", "/not-an-endpoint"),
            ("DELETE", "/photos"),
            ("GET", "/"),
        ] {
            let ep = Endpoint::of(method, path);
            assert_eq!(ep, Endpoint::Other, "{method} {path}");
            plain(&reg, 0, ep, true, 5);
        }
        assert_eq!(reg.snapshot_at(0, Endpoint::Other).latency.count, 3);
        assert_eq!(Endpoint::of("GET", "/photos/7/params"), Endpoint::Params);
    }

    #[test]
    fn prometheus_rendering_is_labelled_and_monotone_friendly() {
        let reg = SloRegistry::default();
        assert!(
            reg.render_prometheus().is_empty(),
            "idle registry renders nothing"
        );
        reg.record(Endpoint::Upload, true, 123, None);
        reg.record(
            Endpoint::Transformed,
            false,
            5000,
            Some(ServedPath::CoeffDomain),
        );
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE psp_slo_requests_total counter"));
        assert!(text.contains("psp_slo_requests_total{endpoint=\"upload\"} 1"));
        assert!(text.contains("psp_slo_errors_total{endpoint=\"transformed\"} 1"));
        assert!(text.contains("psp_slo_error_budget_burn_total{endpoint=\"transformed\"} 1"));
        assert!(text.contains("psp_slo_window_request_rate{endpoint=\"upload\"}"));
        assert!(text.contains("psp_slo_window_coeff_serve_rate{endpoint=\"transformed\"} 1"));
        assert!(text.contains("\npsp_net_upload_us_count 1\n"));
        assert!(text.contains("\npsp_net_transformed_us_sum 5000\n"));
        // Untouched endpoints do not appear.
        assert!(!text.contains("endpoint=\"grants\""));
        assert!(!text.contains("psp_net_grants_us"));
    }

    #[test]
    fn endpoint_histogram_renders_like_the_registry() {
        let reg = SloRegistry::default();
        let registry = puppies_obs::MetricRegistry::default();
        let h = registry.histogram("psp.net.upload_us").unwrap();
        for us in [3, 3, 17, 250, 4_000, 90_000] {
            plain(&reg, 0, Endpoint::Upload, true, us);
            h.record(us);
        }
        let family = puppies_obs::prometheus_text(&registry);
        assert!(family.starts_with("# HELP psp_net_upload_us psp.net.upload_us\n"));
        assert!(
            reg.render_prometheus_at(0).ends_with(&family),
            "tracker family differs from the registry's:\n{family}"
        );
    }
}
