//! JPEG codec kernel benchmarks: DCT, quantization, entropy coding and
//! the full encode/decode paths that every experiment leans on, plus the
//! bilinear resampler that PSP scale views and receiver shadow recovery
//! both run.

use criterion::{criterion_group, criterion_main, Criterion};
use puppies_bench::pascal_image;
use puppies_image::resample::{scale_plane, scale_rgb, Filter};
use puppies_jpeg::{dct, CoeffImage, EncodeOptions, HuffmanMode, QuantTable};

fn bench_dct(c: &mut Criterion) {
    let mut block = [0.0f32; 64];
    for (i, v) in block.iter_mut().enumerate() {
        *v = ((i * 37) % 255) as f32 - 128.0;
    }
    c.bench_function("dct_forward_8x8", |b| b.iter(|| dct::forward(&block)));
    let freq = dct::forward(&block);
    c.bench_function("dct_inverse_8x8", |b| b.iter(|| dct::inverse(&freq)));
    // The AAN scaled pair the production codec actually runs.
    c.bench_function("dct_forward_scaled_8x8", |b| {
        b.iter(|| dct::forward_scaled(&block))
    });
    let scaled = dct::forward_scaled(&block);
    c.bench_function("dct_inverse_scaled_8x8", |b| {
        b.iter(|| dct::inverse_scaled(&scaled))
    });
}

fn bench_quant(c: &mut Criterion) {
    let table = QuantTable::luma(75);
    let mut raw = [0.0f32; 64];
    for (i, v) in raw.iter_mut().enumerate() {
        *v = (i as f32 * 13.7) - 400.0;
    }
    c.bench_function("quantize_block", |b| b.iter(|| table.quantize(&raw)));
    let q = table.quantize(&raw);
    c.bench_function("dequantize_block", |b| b.iter(|| table.dequantize(&q)));
    // Folded (AAN-descaled) variants on the same coefficients.
    let folded = table.folded();
    let mut block = [0.0f32; 64];
    block.copy_from_slice(&raw);
    let scaled = dct::forward_scaled(&block);
    c.bench_function("quantize_scaled_block", |b| {
        b.iter(|| folded.quantize_scaled(&scaled))
    });
    let qs = folded.quantize_scaled(&scaled);
    c.bench_function("dequantize_scaled_block", |b| {
        b.iter(|| folded.dequantize_scaled(&qs))
    });
}

fn bench_full_codec(c: &mut Criterion) {
    let img = pascal_image();
    let mut group = c.benchmark_group("full_codec");
    group.sample_size(10);
    group.bench_function("forward_transform_pascal", |b| {
        b.iter(|| CoeffImage::from_rgb(&img, 75))
    });
    let coeff = CoeffImage::from_rgb(&img, 75);
    for (name, mode) in [
        ("encode_standard", HuffmanMode::Standard),
        ("encode_optimized", HuffmanMode::Optimized),
    ] {
        let mut opts = EncodeOptions::default();
        opts.huffman = mode;
        group.bench_function(name, |b| b.iter(|| coeff.encode(&opts).expect("encode")));
    }
    let bytes = coeff.encode(&EncodeOptions::default()).expect("encode");
    group.bench_function("decode_pascal", |b| {
        b.iter(|| CoeffImage::decode(&bytes).expect("decode"))
    });
    group.bench_function("idct_to_rgb_pascal", |b| b.iter(|| coeff.to_rgb()));
    group.finish();
}

fn bench_p3_split(c: &mut Criterion) {
    let img = pascal_image();
    let coeff = CoeffImage::from_rgb(&img, 75);
    let mut group = c.benchmark_group("p3");
    group.sample_size(10);
    group.bench_function("split_pascal", |b| {
        b.iter(|| puppies_p3::P3Split::of(&coeff))
    });
    let split = puppies_p3::P3Split::of(&coeff);
    group.bench_function("reconstruct_pascal", |b| {
        b.iter(|| puppies_p3::reconstruct(&split.public, &split.private).expect("reconstruct"))
    });
    group.finish();
}

/// A PSP scale view of a 496×328 photo to 89%: the fused RGB8 path the
/// PSP pixel fallback runs, and the float-plane path the receiver runs on
/// each shadow plane.
fn bench_resample(c: &mut Criterion) {
    let img = pascal_image();
    let (nw, nh) = (img.width() * 89 / 100, img.height() * 89 / 100);
    let plane = img.to_ycbcr_planes()[0].clone();
    let mut group = c.benchmark_group("resample");
    group.sample_size(20);
    group.bench_function("scale_rgb_bilinear_pascal_89pct", |b| {
        b.iter(|| scale_rgb(&img, nw, nh, Filter::Bilinear))
    });
    group.bench_function("scale_plane_bilinear_pascal_89pct", |b| {
        b.iter(|| scale_plane(&plane, nw, nh, Filter::Bilinear))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dct,
    bench_quant,
    bench_full_codec,
    bench_p3_split,
    bench_resample
);
criterion_main!(benches);
