//! `receive`: authorized receivers. Closed loop, two clients. One op
//! downloads a transformed view of a uniformly random (photo, view) key
//! and recovers its private regions with the receiver's grant. The key
//! population's transformed results are several times the server's
//! 32 MiB transform cache and span far more photos than its 8-entry
//! decode memo, so the server's decode → transform → encode pipeline and
//! the receiver's decode, shadow recovery and colour conversion dominate.
//!
//! The timed loop runs in chunks between the run's repeated set-ups.
//! Every recovered view is checked after its chunk: the benchmark replays
//! each key the chunk drew against an in-process server fed the same
//! uploads, recovers it the same way, and compares fingerprints of the
//! wire response and of the recovered pixels.

use crate::gen::{self, Rng, Scene};
use crate::server::Serve;
use crate::stats::Summary;
use crate::sweep::SweepInput;
use crate::trace::{self, span, PhaseOut};
use crate::{interleaved_setups, metric, on_threads, Ctx, Outcome, LOAD_THREADS};
use puppies_core::{shadow, KeyGrant, OwnerKey, ProtectedImage, PublicParams};
use puppies_psp::{PhotoId, PspConfig, PspServer};
use puppies_transform::Transformation;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Photos uploaded; each is viewed through every receiver view.
const PHOTOS: usize = 80;
/// The server's transform-cache budget (the `PspConfig` default).
const CACHE_BUDGET_MIB: f64 = 32.0;

struct Setup {
    serve: Serve,
    scenes: Vec<Scene>,
    protected: Vec<ProtectedImage>,
    key: OwnerKey,
    grant: KeyGrant,
    views: Vec<Transformation>,
    ids: Vec<PhotoId>,
    stored_per_user: f64,
}

impl Setup {
    fn key_count(&self) -> usize {
        self.protected.len() * self.views.len()
    }

    fn key(&self, k: usize) -> (usize, &Transformation) {
        (k / self.views.len(), &self.views[k % self.views.len()])
    }
}

fn setup(ctx: &Ctx, rep: usize) -> Result<Setup, String> {
    let scenes = gen::scenes(ctx.seed, PHOTOS);
    let key = gen::owner_key(ctx.seed);
    let protected = gen::protect_all(&scenes, &key, true);
    let serve = Serve::start(
        &ctx.serve_bin,
        &ctx.out.join(format!("receive-store-{rep}")),
    )?;
    let stored0 = serve.stored_bytes();
    // Seeded on both connections: the uploads' fsyncs overlap.
    let per_thread = on_threads(|t| -> Result<Vec<PhotoId>, String> {
        let mut c = serve.connect()?;
        (t..protected.len())
            .step_by(LOAD_THREADS)
            .map(|i| {
                let p = &protected[i];
                c.upload(&p.bytes, &p.params.to_bytes())
                    .map(|r| r.id)
                    .map_err(|e| format!("upload: {e}"))
            })
            .collect()
    });
    let per_thread = per_thread.into_iter().collect::<Result<Vec<_>, _>>()?;
    let ids = (0..protected.len())
        .map(|i| per_thread[i % LOAD_THREADS][i / LOAD_THREADS])
        .collect();
    let payload: usize = protected
        .iter()
        .map(|p| p.bytes.len() + p.params.encoded_len())
        .sum();
    let stored_per_user = (serve.stored_bytes() - stored0) as f64 / payload.max(1) as f64;
    Ok(Setup {
        serve,
        scenes,
        protected,
        grant: key.grant_all(),
        key,
        views: gen::receive_views(),
        ids,
        stored_per_user,
    })
}

/// One recovered view, as fingerprints for the after-run check.
struct Seen {
    key: usize,
    wire: (u64, u64),
    pixels: u64,
}

#[derive(Default)]
struct LoopOut {
    /// Latency per recovered view, µs.
    lat: Vec<f64>,
    seen: Vec<Seen>,
    attempted: u64,
    failed: u64,
    served: [u64; 5],
    response_bytes: u64,
    wall_s: f64,
}

/// One receiver's closed loop until `deadline`.
fn receiver(st: &Setup, seed: u64, deadline: Instant) -> LoopOut {
    let mut out = LoopOut::default();
    let mut rng = Rng::new(seed);
    let mut client = st.serve.connect().ok();
    while Instant::now() < deadline {
        let k = rng.below(st.key_count());
        let (p, view) = st.key(k);
        out.attempted += 1;
        let t0 = Instant::now();
        let op = span("op.receive");
        let got = match client.as_mut() {
            Some(c) => {
                let _s = span("net.client");
                c.download_transformed_traced(st.ids[p], view)
                    .map_err(|e| e.to_string())
            }
            None => Err("not connected".into()),
        };
        let recovered = got.and_then(|(bytes, params, _, served)| {
            let pp = PublicParams::from_bytes(&params).map_err(|e| e.to_string())?;
            let _s = span("core.recover_transformed");
            let img =
                shadow::recover_transformed(&bytes, &pp, &st.grant).map_err(|e| e.to_string())?;
            Ok((bytes, params, served, img))
        });
        drop(op);
        let lat = t0.elapsed().as_secs_f64() * 1e6;
        match recovered {
            Ok((bytes, params, served, img)) => {
                out.lat.push(lat);
                out.served[trace::served_slot(served)] += 1;
                out.response_bytes += (bytes.len() + params.len()) as u64;
                out.seen.push(Seen {
                    key: k,
                    wire: (gen::fnv64(&bytes), gen::fnv64(&params)),
                    pixels: gen::rgb_fingerprint(&img),
                });
            }
            Err(e) => {
                eprintln!("receive op failed: {e}");
                out.failed += 1;
                client = st.serve.connect().ok();
            }
        }
    }
    out
}

impl LoopOut {
    fn absorb(&mut self, o: LoopOut) {
        self.lat.extend(o.lat);
        self.seen.extend(o.seen);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.response_bytes += o.response_bytes;
        self.wall_s += o.wall_s;
        for (a, b) in self.served.iter_mut().zip(o.served) {
            *a += b;
        }
    }
}

fn drive(st: &Setup, seed: u64, seconds: f64) -> LoopOut {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let outs = on_threads(|t| receiver(st, gen::sub_seed(seed, 200 + t as u64), deadline));
    let mut all = LoopOut::default();
    for o in outs {
        all.absorb(o);
    }
    all.wall_s = started.elapsed().as_secs_f64();
    all
}

/// Fingerprints of a key's wire response and recovered pixels.
type Want = ((u64, u64), u64);

/// The after-chunk check: an in-process server without a transform cache,
/// fed the same uploads, and the reference result of every key checked
/// so far.
struct Reference {
    server: PspServer,
    ids: Vec<PhotoId>,
    want: BTreeMap<usize, Want>,
}

impl Reference {
    fn new(st: &Setup) -> Result<Reference, String> {
        let server = PspServer::with_config(PspConfig::uncached());
        let ids = st
            .protected
            .iter()
            .map(|p| server.upload(p.bytes.clone(), p.params.to_bytes()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reference upload: {e}"))?;
        Ok(Reference {
            server,
            ids,
            want: BTreeMap::new(),
        })
    }

    /// Serves key `k` and recovers it the way a receiver does.
    fn compute(&self, st: &Setup, k: usize) -> Result<Want, String> {
        let (p, view) = st.key(k);
        let (rb, rp) = self
            .server
            .download_transformed(self.ids[p], view)
            .map_err(|e| format!("reference view: {e}"))?;
        let params = PublicParams::from_bytes(&rp).map_err(|e| e.to_string())?;
        let img = shadow::recover_transformed(&rb, &params, &st.grant)
            .map_err(|e| format!("reference recovery: {e}"))?;
        Ok((
            (gen::fnv64(&rb), gen::fnv64(&rp)),
            gen::rgb_fingerprint(&img),
        ))
    }

    /// Returns the number of recovered views in `seen` whose wire bytes
    /// or pixels differ from the reference.
    fn check(&mut self, st: &Setup, seen: &[Seen]) -> Result<u64, String> {
        let mut fresh: Vec<usize> = seen
            .iter()
            .map(|s| s.key)
            .filter(|k| !self.want.contains_key(k))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        let computed = crate::par_map(fresh.len(), |j| self.compute(st, fresh[j]));
        for (k, want) in fresh.into_iter().zip(computed) {
            self.want.insert(k, want?);
        }
        let mut bad = 0;
        for s in seen
            .iter()
            .filter(|s| (s.wire, s.pixels) != self.want[&s.key])
        {
            let (p, view) = st.key(s.key);
            eprintln!("receive: photo {p} view {view:?} differs from the reference");
            bad += 1;
        }
        Ok(bad)
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        return traced(ctx, &setup(ctx, 0)?);
    }
    let seed = gen::sub_seed(ctx.seed, 30);
    let per_chunk = ctx.seconds / crate::SETUP_REPS as f64;
    let mut reference = None;
    let (st, chunks, setup_s) = interleaved_setups(
        |rep| setup(ctx, rep),
        |st, i| {
            let out = drive(st, gen::sub_seed(seed, i as u64), per_chunk);
            let reference = match &mut reference {
                Some(r) => r,
                None => reference.insert(Reference::new(st)?),
            };
            let bad = reference.check(st, &out.seen)?;
            Ok((out, bad))
        },
    )?;
    let mut o = Outcome::default();
    let mut out = LoopOut::default();
    let mut bad = 0;
    for (c, b) in chunks {
        out.absorb(c);
        bad += b;
    }
    let peak = st.serve.peak_rss_mib();
    let lat = Summary::of(out.lat.clone());
    o.attempted = out.attempted;
    o.failed = out.failed + bad;
    let mean_response = out.response_bytes as f64 / lat.n.max(1) as f64;
    let population_mib = mean_response * st.key_count() as f64 / 1048576.0;
    o.notes.push(format!(
        "{} keys ({} photos x {} views); est. population {:.0} MiB = {:.1}x the {CACHE_BUDGET_MIB} MiB cache",
        st.key_count(),
        st.protected.len(),
        st.views.len(),
        population_mib,
        population_mib / CACHE_BUDGET_MIB
    ));
    o.notes
        .push(lat.describe("recovered view (download + recover)"));
    o.notes.push(format!(
        "{} recovered views checked against the in-process reference, {} differ",
        out.seen.len(),
        bad
    ));
    o.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("p50_us", lat.p50, "us"),
        metric("ops_per_s", lat.n as f64 / out.wall_s, "1/s"),
        metric("stored_bytes_per_user_byte", st.stored_per_user, "ratio"),
    ];
    o.extra = vec![
        metric("p99_us", lat.p99, "us"),
        metric("peak_rss_mib", peak, "MiB"),
        metric("fail_ratio", o.fail_ratio(), "ratio"),
    ];
    o.extra.extend(trace::served_rows(&out.served));
    Ok(o)
}

fn traced(ctx: &Ctx, st: &Setup) -> Result<Outcome, String> {
    let mut rng = Rng::new(gen::sub_seed(ctx.seed, 31));
    let input = SweepInput {
        scenes: &st.scenes[..8],
        protected: &st.protected,
        transform_friendly: true,
        key: &st.key,
        stream: (0..64)
            .map(|_| {
                let (p, v) = st.key(rng.below(st.key_count()));
                (p, v.clone())
            })
            .collect(),
        warm: false,
        dir: ctx.out.join("receive-sweep-store"),
    };
    let mut loops: Vec<LoopOut> = Vec::new();
    let mut reference = Reference::new(st)?;
    let (t, notes) = trace::traced_run(ctx, "receive", Some(&st.serve), &input, |traced| {
        let out = drive(
            st,
            gen::sub_seed(ctx.seed, 30 + u64::from(traced)),
            ctx.seconds / 2.0,
        );
        let p = PhaseOut {
            p50_us: Summary::of(out.lat.clone()).p50,
            ops: out.lat.len() as u64,
        };
        loops.push(out);
        Ok(p)
    })?;
    let mut o = Outcome::default();
    for l in &loops {
        o.attempted += l.attempted;
        o.failed += l.failed + reference.check(st, &l.seen)?;
    }
    o.metrics = t.metrics.clone();
    o.extra = t.extra.clone();
    o.extra
        .extend(trace::wire_rows(&t, "psp_net_transformed_us"));
    o.extra.extend(trace::cache_rows(&t));
    o.extra.extend(trace::served_rows(
        &loops.last().expect("traced phase").served,
    ));
    o.notes = notes;
    Ok(o)
}
