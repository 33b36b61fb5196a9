//! PSP serving-path benchmarks: the operations perfbench's `view-hot` and
//! `receive` workloads drive in a loop, isolated here per-operation under
//! criterion so regressions pinpoint to a path (zero-copy download vs
//! transform cache vs full pipeline) rather than a workload mix.

use criterion::{criterion_group, criterion_main, Criterion};
use puppies_bench::pascal_image;
use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::Rect;
use puppies_psp::{PspConfig, PspServer};
use puppies_transform::{ScaleFilter, Transformation};

/// A protected JPEG + params pair at the paper's typical resolution.
fn protected_fixture() -> (Vec<u8>, Vec<u8>) {
    let img = pascal_image();
    let roi = Rect::new(100, 80, 160, 120);
    let key = OwnerKey::from_seed([0x51; 32]);
    let out = protect(&img, &[roi], &key, &ProtectOptions::default()).expect("protect fixture");
    (out.bytes, out.params.to_bytes())
}

fn bench_store_paths(c: &mut Criterion) {
    let (jpeg, params) = protected_fixture();
    let server = PspServer::new();
    let id = server
        .upload(jpeg.clone(), params.clone())
        .expect("upload fixture");

    let mut group = c.benchmark_group("psp_store");
    // Zero-copy download: an Arc clone, no byte copy.
    group.bench_function("download_zero_copy", |b| {
        b.iter(|| server.download(id).expect("download"))
    });
    group.bench_function("download_params", |b| {
        b.iter(|| server.download_params(id).expect("params"))
    });
    group.sample_size(20);
    group.bench_function("upload_ingest", |b| {
        b.iter(|| {
            let fresh = PspServer::new();
            fresh.upload(jpeg.clone(), params.clone()).expect("upload")
        })
    });
    group.finish();
}

fn bench_transform_paths(c: &mut Criterion) {
    let (jpeg, params) = protected_fixture();
    let t = Transformation::Scale {
        width: 320,
        height: 240,
        filter: ScaleFilter::Bilinear,
    };

    let mut group = c.benchmark_group("psp_transform");
    group.sample_size(10);

    // Cold path: cache + memo disabled, every request runs decode +
    // transform + encode. This is the pre-PR cost per view.
    let cold = PspServer::with_config(PspConfig::uncached());
    let cold_id = cold
        .upload(jpeg.clone(), params.clone())
        .expect("upload cold");
    group.bench_function("download_transformed_uncached", |b| {
        b.iter(|| cold.download_transformed(cold_id, &t).expect("cold view"))
    });

    // Hot path: first request populates the content-addressed cache, every
    // iteration after that is a key hash + Arc clone.
    let hot = PspServer::new();
    let hot_id = hot.upload(jpeg, params).expect("upload hot");
    hot.download_transformed(hot_id, &t).expect("warm cache");
    group.bench_function("download_transformed_cached", |b| {
        b.iter(|| hot.download_transformed(hot_id, &t).expect("hot view"))
    });
    group.finish();
}

criterion_group!(benches, bench_store_paths, bench_transform_paths);
criterion_main!(benches);
