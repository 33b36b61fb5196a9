//! `view-hot`: public viewers. Keys follow zipf(1.1) over (photo, view)
//! pairs whose transformed results all fit in the server's transform cache
//! and are served once before timing, so nearly every timed request is a
//! cache hit and the codec does nothing. Three phases share the run:
//!
//! - an open loop at a fixed offered rate from two threads, one keep-alive
//!   connection each, latency timed from each request's due time
//!   (`p50_us`);
//! - a closed-loop saturation phase on the same key stream (`ops_per_s`);
//! - a fixed ladder of offered rates, which stops at the first rung that
//!   misses the p99 limit, fails a request or falls behind its schedule
//!   (`max_rate_ops_s`, report only).
//!
//! The fixed-rate and saturation phases run in chunks between the run's
//! repeated set-ups; the ladder runs after them.
//!
//! Checks: before timing, a seeded sample of warm-up responses (cache
//! misses) is byte-compared with an in-process `PspServer` fed the same
//! uploads; timed responses are checked for length; after timing, every
//! key is requested once more (all cache hits, the timed path) and
//! byte-compared with that reference.

use crate::gen::{self, Rng, Scene, Zipf};
use crate::server::Serve;
use crate::stats::Summary;
use crate::sweep::SweepInput;
use crate::trace::{self, span, PhaseOut};
use crate::{interleaved_setups, metric, on_threads, Ctx, Outcome, LOAD_THREADS, SETUP_REPS};
use puppies_core::{OwnerKey, ProtectedImage};
use puppies_psp::net::client::WireServed;
use puppies_psp::{PhotoId, PspConfig, PspServer};
use puppies_transform::Transformation;
use std::time::{Duration, Instant};

const PHOTOS: usize = 32;
const ZIPF_S: f64 = 1.1;
/// Offered rate of the fixed-rate phase, requests per second.
const FIXED_RATE: f64 = 5_000.0;
/// The rate ladder, requests per second.
const LADDER: [f64; 6] = [5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0];
/// Shares of the run: the fixed-rate phase, the closed-loop saturation
/// phase (`ops_per_s`), and the ladder (the rest).
const FIXED_SHARE: f64 = 0.45;
const SATURATION_SHARE: f64 = 0.4;
/// The fixed-rate and saturation phases each run as this many segments,
/// every one on fresh load threads and connections (so fresh server
/// threads): on two shared cores the scheduler's placement of four
/// ping-ponging threads moves hot-path latency and throughput by tens of
/// percent, and several placements per run average that out. Each of the
/// [`SETUP_REPS`] chunks of an untraced run takes an equal share.
const SEGMENTS: usize = 28;
/// p99 latency limit a rung must meet, µs.
const P99_LIMIT_US: f64 = 2_000.0;
/// A rung falls behind when its last fifth of sends is this late (µs).
const BACKLOG_LATE_US: f64 = 1_000.0;
/// Warm-up responses byte-compared against the in-process reference.
const CHECK_SAMPLE: usize = 24;

struct Setup {
    serve: Serve,
    scenes: Vec<Scene>,
    protected: Vec<ProtectedImage>,
    key: OwnerKey,
    views: Vec<Transformation>,
    /// Key `k` is `(photo index, view index)`; zipf rank `r` maps to key
    /// `rank_to_key[r]`.
    keys: Vec<(usize, usize)>,
    rank_to_key: Vec<usize>,
    ids: Vec<PhotoId>,
    /// Uncached in-process server fed the same uploads, and its photo ids.
    reference: PspServer,
    ref_ids: Vec<PhotoId>,
    /// Response length (bytes + params) per key, from the warm-up.
    expect_len: Vec<usize>,
    setup_failures: u64,
    stored_per_user: f64,
}

fn setup(ctx: &Ctx, rep: usize) -> Result<Setup, String> {
    let scenes = gen::scenes(ctx.seed, PHOTOS);
    let key = gen::owner_key(ctx.seed);
    let protected = gen::protect_all(&scenes, &key, false);
    let serve = Serve::start(
        &ctx.serve_bin,
        &ctx.out.join(format!("view-hot-store-{rep}")),
    )?;
    let stored0 = serve.stored_bytes();
    let mut c = serve.connect()?;
    let mut payload = 0;
    let ids = protected
        .iter()
        .map(|p| {
            let params = p.params.to_bytes();
            payload += p.bytes.len() + params.len();
            c.upload(&p.bytes, &params)
                .map(|r| r.id)
                .map_err(|e| format!("upload: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let stored_per_user = (serve.stored_bytes() - stored0) as f64 / payload.max(1) as f64;
    let views = gen::hot_views();
    let keys: Vec<(usize, usize)> = (0..PHOTOS)
        .flat_map(|p| (0..views.len()).map(move |v| (p, v)))
        .collect();
    let rank_to_key = gen::permutation(keys.len(), &mut Rng::new(gen::sub_seed(ctx.seed, 3)));

    // Warm the transform cache with every key, one request at a time so
    // the server's peak memory does not depend on how two concurrent
    // misses happen to overlap.
    let warm = keys
        .iter()
        .map(|&(p, v)| {
            c.download_transformed(ids[p], &views[v])
                .map(|(b, pr, _)| (b, pr))
                .map_err(|e| format!("warm-up view: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let expect_len = warm.iter().map(|(b, p)| b.len() + p.len()).collect();

    // A seeded sample of responses against an in-process server fed the
    // same uploads. It has no transform cache, so every reference view is
    // computed afresh and never shares the cache-hit path under test.
    let reference = PspServer::with_config(PspConfig::uncached());
    let ref_ids: Vec<PhotoId> = protected
        .iter()
        .map(|p| reference.upload(p.bytes.clone(), p.params.to_bytes()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference upload: {e}"))?;
    let mut rng = Rng::new(gen::sub_seed(ctx.seed, 4));
    let mut setup_failures = 0;
    for _ in 0..CHECK_SAMPLE {
        let k = rng.below(keys.len());
        let (p, v) = keys[k];
        let (rb, rp) = reference
            .download_transformed(ref_ids[p], &views[v])
            .map_err(|e| format!("reference view: {e}"))?;
        if warm[k].0 != rb[..] || warm[k].1 != rp[..] {
            eprintln!("view-hot: photo {p} view {v} differs from the in-process reference");
            setup_failures += 1;
        }
    }
    Ok(Setup {
        serve,
        scenes,
        protected,
        key,
        views,
        keys,
        rank_to_key,
        ids,
        reference,
        ref_ids,
        expect_len,
        setup_failures,
        stored_per_user,
    })
}

/// One open-loop phase at `rate` for `seconds`.
#[derive(Default)]
struct Phase {
    /// Latency from due time per response, µs.
    lat: Vec<f64>,
    late_us: Vec<f64>,
    /// Lateness of the last fifth of sends, per thread.
    tail_late_us: Vec<f64>,
    sent: u64,
    failed: u64,
    served: [u64; 5],
}

impl Phase {
    /// Adds `other`'s samples.
    fn absorb(&mut self, other: Phase) {
        self.lat.extend(other.lat);
        self.late_us.extend(other.late_us);
        self.tail_late_us.extend(other.tail_late_us);
        self.sent += other.sent;
        self.failed += other.failed;
        for (a, b) in self.served.iter_mut().zip(other.served) {
            *a += b;
        }
    }

    fn backlogged(&self) -> bool {
        Summary::of(self.tail_late_us.clone()).p50 > BACKLOG_LATE_US
    }

    fn passes(&self, lat: &Summary) -> bool {
        self.failed == 0 && lat.p99 <= P99_LIMIT_US && !self.backlogged()
    }
}

/// Lets the kernel wake this thread's sleeps within 1 µs of their
/// deadline. The default 50 µs timer slack would otherwise land in every
/// latency, since latencies run from the due time; spinning instead would
/// take the cores the server needs.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One load thread of an open loop: sends due at `first`, then every
/// `interval`, until `end`.
fn viewer(st: &Setup, seed: u64, first: Instant, interval: Duration, end: Instant) -> Phase {
    tighten_timer_slack();
    let zipf = Zipf::new(st.keys.len(), ZIPF_S);
    let mut ph = Phase::default();
    let mut rng = Rng::new(seed);
    let mut client = st.serve.connect().ok();
    let mut due = first;
    while due < end {
        let k = st.rank_to_key[zipf.sample(&mut rng)];
        let (p, v) = st.keys[k];
        wait_until(due);
        let sent = Instant::now();
        let r = {
            let _op = span("op.view");
            let _s = span("net.client");
            match client.as_mut() {
                Some(c) => c
                    .download_transformed_traced(st.ids[p], &st.views[v])
                    .map_err(|e| e.to_string()),
                None => Err("not connected".into()),
            }
        };
        let done = Instant::now();
        ph.sent += 1;
        ph.late_us.push((sent - due).as_secs_f64() * 1e6);
        match r {
            Ok((b, pr, _, served)) if b.len() + pr.len() == st.expect_len[k] => {
                ph.lat.push((done - due).as_secs_f64() * 1e6);
                ph.served[trace::served_slot(served)] += 1;
            }
            Ok(_) => {
                eprintln!("view-hot: photo {p} view {v} changed length");
                ph.failed += 1;
            }
            Err(e) => {
                eprintln!("view-hot request failed: {e}");
                ph.failed += 1;
                client = st.serve.connect().ok();
            }
        }
        due += interval;
    }
    let n = ph.late_us.len();
    ph.tail_late_us = ph.late_us[n - n / 5..].to_vec();
    ph
}

/// One open-loop phase at `rate` for `seconds`, the load threads'
/// schedules interleaved.
fn open_loop(st: &Setup, seed: u64, rate: f64, seconds: f64) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(seconds);
    let interval = Duration::from_secs_f64(LOAD_THREADS as f64 / rate);
    let mut all = Phase::default();
    for p in on_threads(|t| {
        let first = start + Duration::from_secs_f64(t as f64 / rate);
        viewer(
            st,
            gen::sub_seed(seed, 100 + t as u64),
            first,
            interval,
            end,
        )
    }) {
        all.absorb(p);
    }
    all
}

/// [`open_loop`] as `segments` consecutive segments.
fn segmented(st: &Setup, seed: u64, rate: f64, seconds: f64, segments: usize) -> Phase {
    let per = seconds / segments as f64;
    let mut all = Phase::default();
    for i in 0..segments {
        all.absorb(open_loop(st, gen::sub_seed(seed, i as u64), rate, per));
    }
    all
}

/// Closed-loop saturation: both connections send back to back for
/// `seconds`. Returns `(completed, failed, wall seconds)`.
fn saturate(st: &Setup, seed: u64, seconds: f64) -> (u64, u64, f64) {
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let counts = on_threads(|t| {
        let zipf = Zipf::new(st.keys.len(), ZIPF_S);
        let (mut done, mut failed) = (0, 0);
        let mut rng = Rng::new(gen::sub_seed(seed, 100 + t as u64));
        let mut client = st.serve.connect().ok();
        while Instant::now() < end {
            let k = st.rank_to_key[zipf.sample(&mut rng)];
            let (p, v) = st.keys[k];
            match client
                .as_mut()
                .map(|c| c.download_transformed(st.ids[p], &st.views[v]))
            {
                Some(Ok((b, pr, _))) if b.len() + pr.len() == st.expect_len[k] => done += 1,
                _ => {
                    failed += 1;
                    client = st.serve.connect().ok();
                }
            }
        }
        (done, failed)
    });
    let wall = started.elapsed().as_secs_f64();
    (
        counts.iter().map(|c| c.0).sum(),
        counts.iter().map(|c| c.1).sum(),
        wall,
    )
}

/// After timing: requests every key once more over the wire and
/// byte-compares each response with the in-process reference. The keys
/// are all cached by now, so this checks the path the timed requests
/// took. Returns the keys requested and the mismatches, and notes how
/// many responses the cache served.
fn check_hits(st: &Setup, notes: &mut Vec<String>) -> Result<(u64, u64), String> {
    let mut c = st.serve.connect()?;
    let (mut failed, mut cached) = (0, 0);
    for &(p, v) in &st.keys {
        let (rb, rp) = st
            .reference
            .download_transformed(st.ref_ids[p], &st.views[v])
            .map_err(|e| format!("reference view: {e}"))?;
        match c.download_transformed_traced(st.ids[p], &st.views[v]) {
            Ok((b, pr, _, served)) if b == rb[..] && pr == rp[..] => {
                cached += u64::from(matches!(served, WireServed::Cached));
            }
            Ok(_) => {
                eprintln!("view-hot: cached photo {p} view {v} differs from the reference");
                failed += 1;
            }
            Err(e) => {
                eprintln!("view-hot check request failed: {e}");
                failed += 1;
                c = st.serve.connect()?;
            }
        }
    }
    notes.push(format!(
        "after timing: {} keys byte-compared with the reference, {cached} served from cache, {failed} mismatched",
        st.keys.len()
    ));
    Ok((st.keys.len() as u64, failed))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        return traced(ctx, &setup(ctx, 0)?);
    }
    let per_chunk = SEGMENTS / SETUP_REPS;
    let (fixed_s, sat_s) = (
        ctx.seconds * FIXED_SHARE / SETUP_REPS as f64,
        ctx.seconds * SATURATION_SHARE / SEGMENTS as f64,
    );
    let (st, chunks, setup_s) = interleaved_setups(
        |rep| setup(ctx, rep),
        |st, i| {
            let seed = gen::sub_seed(ctx.seed, i as u64);
            let fixed = segmented(st, gen::sub_seed(seed, 10), FIXED_RATE, fixed_s, per_chunk);
            let saturated: Vec<(u64, u64, f64)> = (0..per_chunk)
                .map(|j| saturate(st, gen::sub_seed(seed, 11 + j as u64), sat_s))
                .collect();
            Ok((fixed, saturated))
        },
    )?;
    let mut o = Outcome::default();
    let mut fixed = Phase::default();
    let (mut saturated, mut sat_failed, mut sat_wall) = (0, 0, 0.0);
    for (f, sat) in chunks {
        fixed.absorb(f);
        for (done, failed, wall) in sat {
            saturated += done;
            sat_failed += failed;
            sat_wall += wall;
        }
    }
    let lat = Summary::of(fixed.lat.clone());
    let late = Summary::of(fixed.late_us.clone());
    o.attempted = fixed.sent + CHECK_SAMPLE as u64;
    o.failed = fixed.failed + st.setup_failures;
    let hot_mib = st.expect_len.iter().sum::<usize>() as f64 / 1048576.0;
    o.notes.push(format!(
        "fixed rate {FIXED_RATE} req/s over {} keys ({} photos x {} views), zipf {ZIPF_S}; hot set {hot_mib:.1} MiB of the 32 MiB cache",
        st.keys.len(),
        PHOTOS,
        st.views.len()
    ));
    o.notes.push(lat.describe("view from due time"));
    o.notes.push(late.describe("generator lateness"));
    o.attempted += saturated + sat_failed;
    o.failed += sat_failed;
    o.notes.push(format!(
        "closed-loop saturation: {saturated} views in {sat_wall:.2} s on {LOAD_THREADS} connections"
    ));
    let rung_s = ctx.seconds * (1.0 - FIXED_SHARE - SATURATION_SHARE) / LADDER.len() as f64;
    let mut max_rate = 0.0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let ph = open_loop(&st, gen::sub_seed(ctx.seed, 20 + i as u64), rate, rung_s);
        let l = Summary::of(ph.lat.clone());
        o.attempted += ph.sent;
        o.failed += ph.failed;
        let pass = ph.passes(&l);
        o.notes.push(format!(
            "ladder {rate} req/s: {} {}, tail lateness p50 {:.0} us",
            l.describe("latency"),
            if pass { "PASS" } else { "FAIL" },
            Summary::of(ph.tail_late_us.clone()).p50
        ));
        if !pass {
            break;
        }
        max_rate = rate;
    }
    let (checked, mismatched) = check_hits(&st, &mut o.notes)?;
    o.attempted += checked;
    o.failed += mismatched;
    o.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("p50_us", lat.p50, "us"),
        metric("ops_per_s", saturated as f64 / sat_wall, "1/s"),
        metric("stored_bytes_per_user_byte", st.stored_per_user, "ratio"),
    ];
    o.extra = vec![
        metric("p99_us", lat.p99, "us"),
        metric("peak_rss_mib", st.serve.peak_rss_mib(), "MiB"),
        metric("max_rate_ops_s", max_rate, "1/s"),
        metric("fail_ratio", o.fail_ratio(), "ratio"),
    ];
    o.extra.extend(trace::served_rows(&fixed.served));
    Ok(o)
}

fn traced(ctx: &Ctx, st: &Setup) -> Result<Outcome, String> {
    let zipf = Zipf::new(st.keys.len(), ZIPF_S);
    let mut rng = Rng::new(gen::sub_seed(ctx.seed, 10));
    let input = SweepInput {
        scenes: &st.scenes[..8],
        protected: &st.protected,
        transform_friendly: false,
        key: &st.key,
        stream: (0..2000)
            .map(|_| {
                let (p, v) = st.keys[st.rank_to_key[zipf.sample(&mut rng)]];
                (p, st.views[v].clone())
            })
            .collect(),
        warm: true,
        dir: ctx.out.join("view-hot-sweep-store"),
    };
    let mut phases: Vec<Phase> = Vec::new();
    let (t, notes) = trace::traced_run(ctx, "view-hot", Some(&st.serve), &input, |traced| {
        let ph = segmented(
            st,
            gen::sub_seed(ctx.seed, 10 + u64::from(traced)),
            FIXED_RATE,
            ctx.seconds / 2.0,
            SEGMENTS,
        );
        let p = PhaseOut {
            p50_us: Summary::of(ph.lat.clone()).p50,
            ops: ph.lat.len() as u64,
        };
        phases.push(ph);
        Ok(p)
    })?;
    let mut o = Outcome {
        attempted: phases.iter().map(|p| p.sent).sum::<u64>() + CHECK_SAMPLE as u64,
        failed: phases.iter().map(|p| p.failed).sum::<u64>() + st.setup_failures,
        notes,
        ..Outcome::default()
    };
    let (checked, mismatched) = check_hits(st, &mut o.notes)?;
    o.attempted += checked;
    o.failed += mismatched;
    let traced_phase = phases.last().expect("traced phase");
    o.metrics = t.metrics.clone();
    o.extra = t.extra.clone();
    o.extra
        .extend(trace::wire_rows(&t, "psp_net_transformed_us"));
    o.extra.extend(trace::cache_rows(&t));
    o.extra.extend(trace::served_rows(&traced_phase.served));
    o.extra.push(metric(
        "loadgen.late_p99_us",
        Summary::of(traced_phase.late_us.clone()).p99,
        "us",
    ));
    Ok(o)
}
