//! The traced run's in-process layer measurements. Each layer is timed
//! from outside, with a benchmark span around one call into its public
//! API, on the workload's own generated photos: the sender codec stages,
//! the transforms, the receiver's recovery, the store doors (replaying
//! the workload's key stream), the durable store, and the k-of-n cluster
//! with its Shamir core.

use crate::gen::Scene;
use crate::trace::{span, LayerRow};
use crate::{metric, Metric};
use puppies_core::{protect, protect_coeff, shadow, OwnerKey, ProtectedImage, PublicParams};
use puppies_jpeg::{codec, CoeffImage, EncodeOptions};
use puppies_psp::cluster::shamir;
use puppies_psp::{ClusterConfig, DiskStore, PhotoId, PspConfig, PspServer, ShardedPspCluster};
use puppies_transform::{ScaleFilter, Transformation};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Photos the codec and cluster rows run on, and passes over them.
const CODEC_PHOTOS: usize = 8;
const PASSES: usize = 2;

pub struct SweepInput<'a> {
    pub scenes: &'a [Scene],
    /// `protected[i]` is `scenes[i]` protected with image id `i`.
    pub protected: &'a [ProtectedImage],
    pub transform_friendly: bool,
    pub key: &'a OwnerKey,
    /// The workload's `(photo index, view)` stream, replayed against an
    /// in-process store.
    pub stream: Vec<(usize, Transformation)>,
    /// Serve every key of the stream once before the replay (hot cache).
    pub warm: bool,
    pub dir: PathBuf,
}

fn server_with(input: &SweepInput) -> (PspServer, Vec<PhotoId>) {
    let srv = PspServer::new();
    let ids = input
        .protected
        .iter()
        .map(|p| {
            let _s = span("store.upload");
            srv.upload(p.bytes.clone(), p.params.to_bytes())
                .expect("in-process upload")
        })
        .collect();
    (srv, ids)
}

fn warm(srv: &PspServer, ids: &[PhotoId], stream: &[(usize, Transformation)]) {
    for (i, t) in stream {
        let _ = srv.download_transformed(ids[*i], t);
    }
}

/// `obs.handler_overhead_us`: the p50 of the in-process, cache-warm
/// `download_transformed` replay with a `puppies-obs` subscriber
/// installed minus the p50 without one, over alternating blocks. Must run
/// before the traced run installs its own subscriber.
pub fn handler_overhead_us(input: &SweepInput) -> f64 {
    let srv = PspServer::new();
    let ids: Vec<PhotoId> = input
        .protected
        .iter()
        .map(|p| {
            srv.upload(p.bytes.clone(), p.params.to_bytes())
                .expect("upload")
        })
        .collect();
    warm(&srv, &ids, &input.stream);
    let (mut plain, mut instrumented) = (Vec::new(), Vec::new());
    for block in 0..8 {
        let session = (block % 2 == 1).then(puppies_obs::Obs::install);
        let into = if session.is_some() {
            &mut instrumented
        } else {
            &mut plain
        };
        for (i, t) in input.stream.iter().take(500) {
            let t0 = Instant::now();
            let _ = std::hint::black_box(srv.download_transformed(ids[*i], t));
            into.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        drop(session);
    }
    crate::stats::Summary::of(instrumented).p50 - crate::stats::Summary::of(plain).p50
}

/// Runs every layer call under its span. Returns report-only rows: the
/// in-process transformed-door latency split by served path.
pub fn run(input: &SweepInput) -> Vec<Metric> {
    let n = input
        .scenes
        .len()
        .min(input.protected.len())
        .min(CODEC_PHOTOS);
    let grant = input.key.grant_all();
    let coeff_view = Transformation::Rotate90;
    let pixel_view = Transformation::Scale {
        width: 248,
        height: 164,
        filter: ScaleFilter::Bilinear,
    };
    for _ in 0..PASSES {
        for i in 0..n {
            let (scene, prot) = (&input.scenes[i], &input.protected[i]);
            let opts = crate::gen::options(i as u64, input.transform_friendly);
            let mut coeff = {
                let _s = span("jpeg.forward");
                CoeffImage::from_rgb(&scene.image, opts.quality)
            };
            {
                let _s = span("core.perturb");
                protect_coeff(&mut coeff, &scene.rois, input.key, &opts).expect("perturb");
            }
            {
                let _s = span("jpeg.encode");
                codec::encode(&coeff, &EncodeOptions::optimized()).expect("encode");
            }
            {
                let _s = span("core.protect");
                protect(&scene.image, &scene.rois, input.key, &opts).expect("protect");
            }
            let decoded = {
                let _s = span("jpeg.decode");
                codec::decode(&prot.bytes).expect("decode")
            };
            let rgb = {
                let _s = span("jpeg.to_rgb");
                decoded.to_rgb()
            };
            {
                let _s = span("transform.coeff");
                coeff_view
                    .apply_to_coeff(&decoded)
                    .expect("coefficient-domain view");
            }
            {
                let _s = span("transform.pixel");
                pixel_view.apply_to_rgb(&rgb).expect("pixel view");
            }
            let params = prot.params.to_bytes();
            {
                let _s = span("sig.probe");
                std::hint::black_box(PspServer::probe_signature(&prot.bytes, Some(&params)));
            }
            let shares = {
                let _s = span("shamir.split");
                shamir::split(&prot.bytes, 5, 3, 0, [i as u8; 32]).expect("split")
            };
            {
                let _s = span("shamir.reconstruct");
                shamir::reconstruct(&shares[..3]).expect("reconstruct");
            }
        }
    }

    // Store doors: uploads, then the workload's key stream replayed.
    let (srv, ids) = server_with(input);
    if input.warm {
        warm(&srv, &ids, &input.stream);
    }
    let mut by_path: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut recovered = 0;
    for (i, t) in &input.stream {
        let t0 = Instant::now();
        let out = {
            let _s = span("store.transformed");
            srv.download_transformed_traced(ids[*i], t)
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let ((bytes, params), _, path) = out.expect("in-process transformed");
        by_path.entry(path.as_str()).or_default().push(us);
        if recovered < 2 * CODEC_PHOTOS {
            recovered += 1;
            let params = PublicParams::from_bytes(&params).expect("params");
            let _s = span("core.recover_transformed");
            shadow::recover_transformed(&bytes, &params, &grant).expect("recover");
        }
    }

    // The durable store, fsync on, in a directory of its own.
    let _ = std::fs::remove_dir_all(&input.dir);
    std::fs::create_dir_all(&input.dir).expect("disk store dir");
    {
        let disk = DiskStore::open(&input.dir, PspConfig::default(), true).expect("disk store");
        for p in input.protected.iter().take(2 * CODEC_PHOTOS) {
            let _s = span("disk.upload");
            disk.upload(p.bytes.clone(), p.params.to_bytes())
                .expect("disk upload");
        }
    }
    let _ = std::fs::remove_dir_all(&input.dir);

    // The k-of-n cluster.
    let cluster = ShardedPspCluster::new(ClusterConfig::new(5, 3)).expect("cluster");
    let cids: Vec<_> = input
        .protected
        .iter()
        .take(n)
        .map(|p| {
            let _s = span("cluster.upload");
            cluster
                .upload(p.bytes.clone(), p.params.to_bytes(), &grant)
                .expect("cluster upload")
        })
        .collect();
    for _ in 0..PASSES {
        for id in &cids {
            let _s = span("cluster.reconstruct");
            cluster.reconstruct(*id).expect("cluster reconstruct");
        }
    }

    by_path
        .into_iter()
        .map(|(path, v)| {
            let s = crate::stats::Summary::of(v);
            metric(&format!("store.transformed.{path}_us"), s.p50, "us")
        })
        .collect()
}

/// The per-layer metrics of the result line, from the layer table. The
/// Shamir rows convert to throughput over the photos' byte size.
pub fn layer_metrics(rows: &[LayerRow], input: &SweepInput) -> Vec<Metric> {
    let p50 = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(f64::NAN, |r| r.p50_us)
    };
    let n = input.protected.len().clamp(1, CODEC_PHOTOS);
    let mean_bytes = input
        .protected
        .iter()
        .take(n)
        .map(|p| p.bytes.len())
        .sum::<usize>() as f64
        / n as f64;
    let mib_s = |us: f64| mean_bytes / (1024.0 * 1024.0) / (us / 1e6);
    let mut out: Vec<Metric> = [
        "core.protect",
        "jpeg.forward",
        "core.perturb",
        "jpeg.encode",
        "jpeg.decode",
        "jpeg.to_rgb",
        "transform.coeff",
        "transform.pixel",
        "core.recover_transformed",
        "store.transformed",
        "store.upload",
        "sig.probe",
        "disk.upload",
        "cluster.upload",
        "cluster.reconstruct",
    ]
    .iter()
    .map(|name| metric(&format!("{name}_us"), p50(name), "us"))
    .collect();
    out.push(metric(
        "shamir.split_mib_s",
        mib_s(p50("shamir.split")),
        "MiB/s",
    ));
    out.push(metric(
        "shamir.reconstruct_mib_s",
        mib_s(p50("shamir.reconstruct")),
        "MiB/s",
    ));
    // Self times of layers whose inner layer the benchmark can only time
    // as a separate call on the same input: the outer median minus the
    // inner ones.
    let self_us = [
        (
            "core.protect_self_us",
            "core.protect",
            &["jpeg.forward", "core.perturb", "jpeg.encode"][..],
        ),
        ("disk.upload_self_us", "disk.upload", &["store.upload"][..]),
        (
            "cluster.upload_fanout_us",
            "cluster.upload",
            &["shamir.split"][..],
        ),
        (
            "cluster.reconstruct_fanout_us",
            "cluster.reconstruct",
            &["shamir.reconstruct"][..],
        ),
    ];
    for (name, outer, inner) in self_us {
        let v = p50(outer) - inner.iter().map(|i| p50(i)).sum::<f64>();
        out.push(metric(name, v, "us"));
    }
    out
}
