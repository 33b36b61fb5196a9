//! `publish`: senders. Closed loop, two senders, each on its own
//! keep-alive connection. One op protects a distinct photo and uploads it
//! until acknowledged; one op in eight instead re-posts a recompressed
//! copy of a photo the same sender published six ops earlier. Every
//! acknowledged upload is downloaded again after timing and compared by
//! SHA-256. The timed loop runs in chunks between the run's repeated
//! set-ups.

use crate::gen::{self, Scene};
use crate::server::Serve;
use crate::stats::Summary;
use crate::sweep::SweepInput;
use crate::trace::{self, span, PhaseOut};
use crate::{interleaved_setups, metric, on_threads, Ctx, Outcome, LOAD_THREADS, SETUP_REPS};
use puppies_core::{protect, OwnerKey};
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_psp::sha256::sha256;
use puppies_psp::PhotoId;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Distinct photos senders cycle through (each op still protects under
/// its own image id, so every upload is new to the server).
const POOL: usize = 96;
/// Quality re-posted copies are recompressed to.
const REPOST_QUALITY: u8 = 70;

struct Setup {
    serve: Serve,
    scenes: Vec<Scene>,
    key: OwnerKey,
}

fn setup(ctx: &Ctx, rep: usize) -> Result<Setup, String> {
    let scenes = gen::scenes(ctx.seed, POOL);
    let key = gen::owner_key(ctx.seed);
    let serve = Serve::start(
        &ctx.serve_bin,
        &ctx.out.join(format!("publish-store-{rep}")),
    )?;
    Ok(Setup { serve, scenes, key })
}

/// An acknowledged upload and the digests of what was sent.
struct Acked {
    id: PhotoId,
    bytes_sha: [u8; 32],
    params_sha: [u8; 32],
}

#[derive(Default)]
struct LoopOut {
    /// Latency per acknowledged op, µs.
    lat: Vec<f64>,
    upload_us: Vec<f64>,
    acked: Vec<Acked>,
    attempted: u64,
    failed: u64,
    payload_bytes: u64,
    wall_s: f64,
}

fn recompress(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut c = CoeffImage::decode(bytes).map_err(|e| format!("recompress decode: {e}"))?;
    c.requantize(REPOST_QUALITY);
    c.encode(&EncodeOptions::optimized())
        .map_err(|e| format!("recompress encode: {e}"))
}

/// One sender's closed loop until `deadline`: op `first_op + sender`,
/// then every [`LOAD_THREADS`]th.
fn sender(st: &Setup, sender: u64, first_op: u64, deadline: Instant) -> LoopOut {
    let mut out = LoopOut::default();
    let mut client = st.serve.connect().ok();
    let mut history: VecDeque<(u64, Vec<u8>, Vec<u8>)> = VecDeque::new();
    let mut i = first_op + sender;
    while Instant::now() < deadline {
        out.attempted += 1;
        let t0 = Instant::now();
        let op = span("op.publish");
        let repost = history.iter().find(|h| i % 8 == 7 && h.0 + 6 == i);
        let payload = match repost {
            Some((_, bytes, params)) => {
                let _s = span("jpeg.recompress");
                recompress(bytes).map(|b| (b, params.clone()))
            }
            None => {
                let sc = &st.scenes[(i % st.scenes.len() as u64) as usize];
                let _s = span("core.protect");
                protect(&sc.image, &sc.rois, &st.key, &gen::options(i, false))
                    .map(|p| (p.bytes, p.params.to_bytes()))
                    .map_err(|e| e.to_string())
            }
        };
        let up0 = Instant::now();
        let ack = match (&payload, client.as_mut()) {
            (Ok((bytes, params)), Some(c)) => {
                let _s = span("net.client");
                c.upload(bytes, params).map_err(|e| e.to_string())
            }
            (Err(e), _) => Err(e.clone()),
            (_, None) => Err("not connected".into()),
        };
        drop(op);
        let lat = t0.elapsed().as_secs_f64() * 1e6;
        match (ack, payload) {
            (Ok(receipt), Ok((bytes, params))) => {
                out.lat.push(lat);
                out.upload_us.push(up0.elapsed().as_secs_f64() * 1e6);
                out.payload_bytes += (bytes.len() + params.len()) as u64;
                out.acked.push(Acked {
                    id: receipt.id,
                    bytes_sha: sha256(&bytes),
                    params_sha: sha256(&params),
                });
                if i % 8 != 7 {
                    history.push_back((i, bytes, params));
                    if history.len() > 4 {
                        history.pop_front();
                    }
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("publish op {i} failed: {e}");
                out.failed += 1;
                client = st.serve.connect().ok();
            }
        }
        i += LOAD_THREADS as u64;
    }
    out
}

impl LoopOut {
    fn absorb(&mut self, o: LoopOut) {
        self.lat.extend(o.lat);
        self.upload_us.extend(o.upload_us);
        self.acked.extend(o.acked);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.payload_bytes += o.payload_bytes;
        self.wall_s += o.wall_s;
    }
}

/// Runs the senders for `seconds`; op indices start at `first_op` so
/// every op of a run protects under its own image id.
fn drive(st: &Setup, seconds: f64, first_op: u64) -> LoopOut {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let outs = on_threads(|t| sender(st, t as u64, first_op, deadline));
    let mut all = LoopOut::default();
    for o in outs {
        all.absorb(o);
    }
    all.wall_s = started.elapsed().as_secs_f64();
    all
}

/// Downloads every acknowledged upload and compares digests; returns
/// the number of mismatches or failed downloads.
fn verify(st: &Setup, acked: &[Acked]) -> Result<u64, String> {
    let mut c = st.serve.connect()?;
    let mut bad = 0;
    for a in acked {
        let ok = matches!(
            (c.download(a.id), c.download_params(a.id)),
            (Ok(b), Ok(p)) if sha256(&b) == a.bytes_sha && sha256(&p) == a.params_sha
        );
        if !ok {
            eprintln!(
                "publish: photo {} does not read back as acknowledged",
                a.id.0
            );
            bad += 1;
            c = st.serve.connect()?;
        }
    }
    Ok(bad)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        return traced(ctx, &setup(ctx, 0)?);
    }
    let per_chunk = ctx.seconds / SETUP_REPS as f64;
    let (st, chunks, setup_s) = interleaved_setups(
        |rep| setup(ctx, rep),
        |st, i| {
            let before = st.serve.stored_bytes();
            // Chunk i's image ids start at i << 32, past any earlier chunk's.
            let out = drive(st, per_chunk, (i as u64) << 32);
            Ok((out, st.serve.stored_bytes() - before))
        },
    )?;
    let mut out = LoopOut::default();
    let mut stored = 0;
    for (c, grew) in chunks {
        out.absorb(c);
        stored += grew;
    }
    let peak = st.serve.peak_rss_mib();
    let bad = verify(&st, &out.acked)?;
    let lat = Summary::of(out.lat.clone());
    let up = Summary::of(out.upload_us.clone());
    let mut o = Outcome {
        attempted: out.attempted,
        failed: out.failed + bad,
        ..Outcome::default()
    };
    o.notes.push(lat.describe("publish op (protect + upload)"));
    o.notes.push(up.describe("upload call"));
    o.notes.push(format!(
        "{} uploads acknowledged and read back ({} mismatched), {:.1} MiB payload, store grew {:.1} MiB",
        out.acked.len(),
        bad,
        out.payload_bytes as f64 / 1048576.0,
        stored as f64 / 1048576.0
    ));
    o.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("p50_us", lat.p50, "us"),
        metric("ops_per_s", out.acked.len() as f64 / out.wall_s, "1/s"),
        metric(
            "stored_bytes_per_user_byte",
            stored as f64 / out.payload_bytes.max(1) as f64,
            "ratio",
        ),
    ];
    o.extra = vec![
        metric("p99_us", lat.p99, "us"),
        metric("peak_rss_mib", peak, "MiB"),
        metric("write_p50_us", up.p50, "us"),
        metric("fail_ratio", o.fail_ratio(), "ratio"),
    ];
    Ok(o)
}

fn traced(ctx: &Ctx, st: &Setup) -> Result<Outcome, String> {
    let sweep_scenes = &st.scenes[..8];
    let protected = gen::protect_all(sweep_scenes, &st.key, false);
    let views = gen::hot_views();
    let input = SweepInput {
        scenes: sweep_scenes,
        protected: &protected,
        transform_friendly: false,
        key: &st.key,
        stream: (0..protected.len())
            .flat_map(|i| views.iter().map(move |v| (i, v.clone())))
            .collect(),
        warm: false,
        dir: ctx.out.join("publish-sweep-store"),
    };
    let mut loops: Vec<LoopOut> = Vec::new();
    let mut stored = (0u64, 0u64);
    let (t, notes) = trace::traced_run(ctx, "publish", Some(&st.serve), &input, |traced| {
        let before = st.serve.stored_bytes();
        // The traced half's image ids follow the untraced half's.
        let out = drive(st, ctx.seconds / 2.0, if traced { 1 << 32 } else { 0 });
        if traced {
            stored = (st.serve.stored_bytes() - before, out.payload_bytes);
        }
        let p = PhaseOut {
            p50_us: Summary::of(out.lat.clone()).p50,
            ops: out.acked.len() as u64,
        };
        loops.push(out);
        Ok(p)
    })?;
    let mut o = Outcome {
        metrics: t.metrics.clone(),
        extra: t.extra.clone(),
        notes,
        ..Outcome::default()
    };
    for l in &loops {
        o.attempted += l.attempted;
        o.failed += l.failed + verify(st, &l.acked)?;
    }
    o.extra.extend(trace::wire_rows(&t, "psp_net_upload_us"));
    if let Some((b, a)) = &t.scrapes {
        let dups = a.delta(b, "psp_sig_dedup_exact_total") + a.delta(b, "psp_sig_neardup_total");
        o.extra.push(metric(
            "sig.dedup_ratio",
            dups / t.ops.max(1) as f64,
            "ratio",
        ));
    }
    o.extra.push(metric(
        "disk.bytes_per_user_byte",
        stored.0 as f64 / stored.1.max(1) as f64,
        "ratio",
    ));
    Ok(o)
}
