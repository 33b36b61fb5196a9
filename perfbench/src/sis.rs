//! `sis`: the k-of-n store. An in-process `ShardedPspCluster` (n = 5,
//! k = 3), driven in a closed loop by two callers. Of every four ops one
//! uploads a protected JPEG plus its grant, prepared at set-up, and three
//! reconstruct a random stored photo; every reconstruct must return its
//! payload byte for byte. The timed loop runs in chunks between the run's
//! repeated set-ups.

use crate::gen::{self, Rng, Scene};
use crate::stats::Summary;
use crate::sweep::SweepInput;
use crate::trace::{self, span, PhaseOut};
use crate::{interleaved_setups, metric, on_threads, Ctx, Outcome, SETUP_REPS};
use puppies_core::{KeyGrant, OwnerKey, ProtectedImage};
use puppies_psp::channel::encode_grant;
use puppies_psp::{ClusterConfig, ClusterPhotoId, ShardedPspCluster};
use std::time::{Duration, Instant};

const PHOTOS: usize = 96;
const N: usize = 5;
const K: usize = 3;

struct Payload {
    bytes: Vec<u8>,
    params: Vec<u8>,
    grant: KeyGrant,
    grant_bytes: Vec<u8>,
}

struct Setup {
    cluster: ShardedPspCluster,
    scenes: Vec<Scene>,
    protected: Vec<ProtectedImage>,
    key: OwnerKey,
    payloads: Vec<Payload>,
    /// Cluster id of each payload's set-up upload.
    ids: Vec<ClusterPhotoId>,
    stored_per_user: f64,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let scenes = gen::scenes(ctx.seed, PHOTOS);
    let key = gen::owner_key(ctx.seed);
    let protected = gen::protect_all(&scenes, &key, false);
    let payloads: Vec<Payload> = protected
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let rois: Vec<u16> = p.params.rois.iter().map(|r| r.index).collect();
            let grant = key.grant_rois(i as u64, &rois);
            Payload {
                bytes: p.bytes.clone(),
                params: p.params.to_bytes(),
                grant_bytes: encode_grant(&grant),
                grant,
            }
        })
        .collect();
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&gen::sub_seed(ctx.seed, 5).to_le_bytes());
    let cluster = ShardedPspCluster::new(ClusterConfig::new(N, K).with_seed(seed))
        .map_err(|e| format!("cluster: {e}"))?;
    let ids = payloads
        .iter()
        .map(|p| cluster.upload(p.bytes.clone(), p.params.clone(), &p.grant))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cluster upload: {e}"))?;
    let mut stored = 0usize;
    for (id, p) in ids.iter().zip(&payloads) {
        let shares = cluster
            .visible_shares(*id)
            .map_err(|e| format!("cluster shares: {e}"))?;
        stored += shares
            .iter()
            .map(|(_, s)| s.to_bytes().len())
            .sum::<usize>()
            + p.params.len();
    }
    let user: usize = payloads
        .iter()
        .map(|p| p.bytes.len() + p.params.len() + p.grant_bytes.len())
        .sum();
    Ok(Setup {
        cluster,
        scenes,
        protected,
        key,
        payloads,
        ids,
        stored_per_user: stored as f64 / user.max(1) as f64,
    })
}

#[derive(Default)]
struct LoopOut {
    /// Latency per reconstruct and per upload, µs.
    read: Vec<f64>,
    write: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

/// One caller's closed loop until `deadline`.
fn caller(st: &Setup, seed: u64, deadline: Instant) -> LoopOut {
    let mut out = LoopOut::default();
    let mut rng = Rng::new(seed);
    let mut k = 0u64;
    while Instant::now() < deadline {
        out.attempted += 1;
        let i = rng.below(st.payloads.len());
        let p = &st.payloads[i];
        let t0 = Instant::now();
        let op = span("op.sis");
        if k % 4 == 0 {
            let r = {
                let _s = span("cluster.upload");
                st.cluster
                    .upload(p.bytes.clone(), p.params.clone(), &p.grant)
            };
            drop(op);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            match r {
                Ok(_) => out.write.push(us),
                Err(e) => {
                    eprintln!("sis upload failed: {e}");
                    out.failed += 1;
                }
            }
        } else {
            let r = {
                let _s = span("cluster.reconstruct");
                st.cluster.reconstruct(st.ids[i])
            };
            drop(op);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            match r {
                Ok((grant, bytes)) if bytes == p.bytes && encode_grant(&grant) == p.grant_bytes => {
                    out.read.push(us)
                }
                Ok(_) => {
                    eprintln!("sis: photo {i} reconstructs to other bytes");
                    out.failed += 1;
                }
                Err(e) => {
                    eprintln!("sis reconstruct failed: {e}");
                    out.failed += 1;
                }
            }
        }
        k += 1;
    }
    out
}

impl LoopOut {
    fn absorb(&mut self, o: LoopOut) {
        self.read.extend(o.read);
        self.write.extend(o.write);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wall_s += o.wall_s;
    }
}

fn drive(st: &Setup, seed: u64, seconds: f64) -> LoopOut {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let outs = on_threads(|t| caller(st, gen::sub_seed(seed, 300 + t as u64), deadline));
    let mut all = LoopOut::default();
    for o in outs {
        all.absorb(o);
    }
    all.wall_s = started.elapsed().as_secs_f64();
    all
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        return traced(ctx, &setup(ctx)?);
    }
    let seed = gen::sub_seed(ctx.seed, 40);
    let per_chunk = ctx.seconds / SETUP_REPS as f64;
    let (st, chunks, setup_s) = interleaved_setups(
        |_| setup(ctx),
        |st, i| Ok(drive(st, gen::sub_seed(seed, i as u64), per_chunk)),
    )?;
    let mut out = LoopOut::default();
    for c in chunks {
        out.absorb(c);
    }
    let read = Summary::of(out.read.clone());
    let write = Summary::of(out.write.clone());
    let mut o = Outcome {
        attempted: out.attempted,
        failed: out.failed,
        ..Outcome::default()
    };
    o.notes.push(format!(
        "({N}, {K}) cluster, {} photos; {} uploads held at the end",
        PHOTOS,
        st.cluster.upload_count()
    ));
    o.notes.push(read.describe("reconstruct"));
    o.notes.push(write.describe("upload"));
    o.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("p50_us", read.p50, "us"),
        metric("ops_per_s", (read.n + write.n) as f64 / out.wall_s, "1/s"),
        metric("stored_bytes_per_user_byte", st.stored_per_user, "ratio"),
    ];
    o.extra = vec![
        metric("p99_us", read.p99, "us"),
        metric(
            "peak_rss_mib",
            crate::server::peak_rss_mib("/proc/self/status"),
            "MiB",
        ),
        metric("write_p50_us", write.p50, "us"),
        metric("fail_ratio", o.fail_ratio(), "ratio"),
    ];
    Ok(o)
}

fn traced(ctx: &Ctx, st: &Setup) -> Result<Outcome, String> {
    let views = gen::hot_views();
    let input = SweepInput {
        scenes: &st.scenes[..8],
        protected: &st.protected,
        transform_friendly: false,
        key: &st.key,
        stream: (0..8)
            .flat_map(|i| views.iter().map(move |v| (i, v.clone())))
            .collect(),
        warm: false,
        dir: ctx.out.join("sis-sweep-store"),
    };
    let mut loops: Vec<LoopOut> = Vec::new();
    let (t, notes) = trace::traced_run(ctx, "sis", None, &input, |traced| {
        let out = drive(
            st,
            gen::sub_seed(ctx.seed, 40 + u64::from(traced)),
            ctx.seconds / 2.0,
        );
        let p = PhaseOut {
            p50_us: Summary::of(out.read.clone()).p50,
            ops: (out.read.len() + out.write.len()) as u64,
        };
        loops.push(out);
        Ok(p)
    })?;
    Ok(Outcome {
        attempted: loops.iter().map(|l| l.attempted).sum(),
        failed: loops.iter().map(|l| l.failed).sum(),
        metrics: t.metrics,
        extra: t.extra,
        notes,
    })
}
