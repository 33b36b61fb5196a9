//! Resampling, rotation and flipping.
//!
//! These are the pixel-domain transformations a PSP applies to uploaded
//! images (§II-B of the paper: scaling, cropping, rotation, ...). They are
//! deliberately *perturbation-agnostic*: the same code runs on original and
//! PuPPIeS-perturbed images, which is exactly the property the paper relies
//! on.

use crate::buffer::{GrayImage, Plane, RgbImage};
use crate::color::{round_clamp_u8, Rgb};

/// Resampling filter selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Filter {
    /// Nearest-neighbour (point) sampling.
    Nearest,
    /// Bilinear interpolation; the default, and what a typical PSP uses.
    #[default]
    Bilinear,
    /// Box (area-average) filter, best for strong downscaling.
    Box,
}

/// Scales an RGB image to `(nw, nh)` with the given filter.
///
/// # Panics
/// Panics if either target dimension is zero.
pub fn scale_rgb(src: &RgbImage, nw: u32, nh: u32, filter: Filter) -> RgbImage {
    assert!(nw > 0 && nh > 0, "target dimensions must be nonzero");
    if filter == Filter::Bilinear {
        // Straight from interleaved RGB8 to RGB8: the same samples the
        // split/scale/merge route would produce, without its six planes.
        let mut out = RgbImage::new(nw, nh);
        scale_bilinear(
            src.pixels(),
            src.width(),
            src.height(),
            out.pixels_mut(),
            nw,
            nh,
        );
        return out;
    }
    let planes = split_channels(src);
    let scaled = planes.map(|p| scale_plane(&p, nw, nh, filter));
    merge_channels(&scaled)
}

/// Scales a grayscale image to `(nw, nh)` with the given filter.
///
/// # Panics
/// Panics if either target dimension is zero.
pub fn scale_gray(src: &GrayImage, nw: u32, nh: u32, filter: Filter) -> GrayImage {
    scale_plane(&src.to_plane(), nw, nh, filter).to_gray()
}

/// Scales a float plane to `(nw, nh)` with the given filter. This is the
/// shared kernel for all scaling; running it on a plane keeps intermediate
/// precision, which matters for shadow-ROI subtraction.
///
/// # Panics
/// Panics if either target dimension is zero.
pub fn scale_plane(src: &Plane, nw: u32, nh: u32, filter: Filter) -> Plane {
    assert!(nw > 0 && nh > 0, "target dimensions must be nonzero");
    match filter {
        Filter::Nearest => scale_nearest(src, nw, nh),
        Filter::Bilinear => {
            let mut out = Plane::new(nw, nh);
            scale_bilinear(
                src.samples(),
                src.width(),
                src.height(),
                out.samples_mut(),
                nw,
                nh,
            );
            out
        }
        Filter::Box => scale_box(src, nw, nh),
    }
}

fn scale_nearest(src: &Plane, nw: u32, nh: u32) -> Plane {
    let (w, h) = (src.width(), src.height());
    Plane::from_fn(nw, nh, |x, y| {
        let sx = ((x as u64 * w as u64) / nw as u64).min(w as u64 - 1) as u32;
        let sy = ((y as u64 * h as u64) / nh as u64).min(h as u64 - 1) as u32;
        src.get(sx, sy)
    })
}

/// One output coordinate's bilinear taps along an axis: the two
/// border-clamped source indices and the weight of the second.
#[derive(Debug, Clone, Copy)]
struct Tap {
    i0: usize,
    i1: usize,
    t: f32,
}

/// Pixel-center taps for resampling an axis of `src_len` samples to
/// `dst_len`: position `(d + 0.5) · src_len/dst_len − 0.5`, split into its
/// floor and fraction in f64, the fraction narrowed to f32 once.
fn bilinear_taps(src_len: u32, dst_len: u32) -> Vec<Tap> {
    let scale = src_len as f64 / dst_len as f64;
    let last = src_len as i64 - 1;
    (0..dst_len)
        .map(|d| {
            let f = (d as f64 + 0.5) * scale - 0.5;
            let f0 = f.floor();
            let i0 = f0 as i64;
            Tap {
                i0: i0.clamp(0, last) as usize,
                i1: (i0 + 1).clamp(0, last) as usize,
                t: (f - f0) as f32,
            }
        })
        .collect()
}

/// A pixel the bilinear kernel reads and writes: `LANES` channels, each
/// interpolated in f32 and stored as a `Lane`.
trait Texel: Copy {
    /// One stored channel value.
    type Lane: Copy + Default;
    const LANES: usize;
    /// Writes `a + (b - a) * t` per channel into `out` (`LANES` long).
    fn lerp_into(a: Self, b: Self, t: f32, out: &mut [f32]);
    /// Narrows an interpolated channel value to its stored form.
    fn lane(v: f32) -> Self::Lane;
    /// Packs a row of interleaved lanes into pixels.
    fn store_row(lanes: &[Self::Lane], out: &mut [Self]);
}

impl Texel for f32 {
    type Lane = f32;
    const LANES: usize = 1;

    #[inline(always)]
    fn lerp_into(a: f32, b: f32, t: f32, out: &mut [f32]) {
        out[0] = a + (b - a) * t;
    }

    #[inline(always)]
    fn lane(v: f32) -> f32 {
        v
    }

    #[inline(always)]
    fn store_row(lanes: &[f32], out: &mut [f32]) {
        out.copy_from_slice(lanes);
    }
}

impl Texel for Rgb {
    type Lane = u8;
    const LANES: usize = 3;

    #[inline(always)]
    fn lerp_into(a: Rgb, b: Rgb, t: f32, out: &mut [f32]) {
        let lerp = |a: u8, b: u8| a as f32 + (b as f32 - a as f32) * t;
        out[0] = lerp(a.r, b.r);
        out[1] = lerp(a.g, b.g);
        out[2] = lerp(a.b, b.b);
    }

    /// The same byte as `v.round().clamp(0.0, 255.0) as u8`, without the
    /// libm call, so the row loop vectorizes.
    #[inline(always)]
    fn lane(v: f32) -> u8 {
        round_clamp_u8(v)
    }

    #[inline(always)]
    fn store_row(lanes: &[u8], out: &mut [Rgb]) {
        for (o, c) in out.iter_mut().zip(lanes.chunks_exact(3)) {
            *o = Rgb::new(c[0], c[1], c[2]);
        }
    }
}

/// The one bilinear kernel (pixel-center convention, replicated borders),
/// for float planes and interleaved RGB alike. `src` is `w × h` and `dst`
/// is `nw × nh`, both row-major.
///
/// Row-streaming: each column's and each row's taps are computed once;
/// each needed source row is interpolated horizontally once into one of
/// two row buffers (the pair slides down the image, so an upscale reuses
/// a source row for every output row between it and the next); each
/// output row is `top + (bot - top) · ty` over the pair. Per sample this
/// is the same f64 position math and the same f32 operations in the same
/// order as the per-pixel form
/// `top = p00 + (p10 − p00)·tx; bot = p01 + (p11 − p01)·tx;
/// top + (bot − top)·ty`, and Rust never contracts them into FMAs, so the
/// output is bit-identical to it.
fn scale_bilinear<P: Texel>(src: &[P], w: u32, h: u32, dst: &mut [P], nw: u32, nh: u32) {
    let xs = bilinear_taps(w, nw);
    let ys = bilinear_taps(h, nh);
    let w = w as usize;
    let lerp_row = |sy: usize, out: &mut [f32]| {
        let row = &src[sy * w..(sy + 1) * w];
        for (o, tap) in out.chunks_exact_mut(P::LANES).zip(&xs) {
            P::lerp_into(row[tap.i0], row[tap.i1], tap.t, o);
        }
    };
    let row_len = xs.len() * P::LANES;
    let (mut top, mut bot) = (vec![0.0f32; row_len], vec![0.0f32; row_len]);
    let mut lanes = vec![P::Lane::default(); row_len];
    let (mut top_y, mut bot_y) = (usize::MAX, usize::MAX);
    for (dst_row, tap) in dst.chunks_exact_mut(xs.len()).zip(&ys) {
        if top_y != tap.i0 {
            if bot_y == tap.i0 {
                std::mem::swap(&mut top, &mut bot);
                std::mem::swap(&mut top_y, &mut bot_y);
            } else {
                lerp_row(tap.i0, &mut top);
                top_y = tap.i0;
            }
        }
        if bot_y != tap.i1 {
            lerp_row(tap.i1, &mut bot);
            bot_y = tap.i1;
        }
        for (l, (&t, &b)) in lanes.iter_mut().zip(top.iter().zip(&bot)) {
            *l = P::lane(t + (b - t) * tap.t);
        }
        P::store_row(&lanes, dst_row);
    }
}

fn scale_box(src: &Plane, nw: u32, nh: u32) -> Plane {
    let (w, h) = (src.width() as f64, src.height() as f64);
    Plane::from_fn(nw, nh, |x, y| {
        let x0 = x as f64 * w / nw as f64;
        let x1 = (x + 1) as f64 * w / nw as f64;
        let y0 = y as f64 * h / nh as f64;
        let y1 = (y + 1) as f64 * h / nh as f64;
        let (ix0, ix1) = (x0.floor() as u32, (x1.ceil() as u32).min(src.width()));
        let (iy0, iy1) = (y0.floor() as u32, (y1.ceil() as u32).min(src.height()));
        let mut acc = 0.0f64;
        let mut wsum = 0.0f64;
        for py in iy0..iy1 {
            let wy = overlap(py as f64, py as f64 + 1.0, y0, y1);
            for px in ix0..ix1 {
                let wx = overlap(px as f64, px as f64 + 1.0, x0, x1);
                acc += src.get(px, py) as f64 * wx * wy;
                wsum += wx * wy;
            }
        }
        if wsum > 0.0 {
            (acc / wsum) as f32
        } else {
            src.get_clamped(x as i64, y as i64)
        }
    })
}

fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

/// 90° clockwise rotation.
pub fn rotate90(src: &RgbImage) -> RgbImage {
    RgbImage::from_fn(src.height(), src.width(), |x, y| {
        src.get(y, src.height() - 1 - x)
    })
}

/// 180° rotation.
pub fn rotate180(src: &RgbImage) -> RgbImage {
    RgbImage::from_fn(src.width(), src.height(), |x, y| {
        src.get(src.width() - 1 - x, src.height() - 1 - y)
    })
}

/// 270° clockwise (= 90° counter-clockwise) rotation.
pub fn rotate270(src: &RgbImage) -> RgbImage {
    RgbImage::from_fn(src.height(), src.width(), |x, y| {
        src.get(src.width() - 1 - y, x)
    })
}

/// Horizontal mirror.
pub fn flip_horizontal(src: &RgbImage) -> RgbImage {
    RgbImage::from_fn(src.width(), src.height(), |x, y| {
        src.get(src.width() - 1 - x, y)
    })
}

/// Vertical mirror.
pub fn flip_vertical(src: &RgbImage) -> RgbImage {
    RgbImage::from_fn(src.width(), src.height(), |x, y| {
        src.get(x, src.height() - 1 - y)
    })
}

/// Rotates by an arbitrary angle (radians, counter-clockwise) around the
/// image center with bilinear sampling; pixels mapped from outside the
/// source take `fill`. The output has the same dimensions as the input.
pub fn rotate_arbitrary(src: &RgbImage, angle: f64, fill: Rgb) -> RgbImage {
    let (w, h) = (src.width() as f64, src.height() as f64);
    let (cx, cy) = (w / 2.0, h / 2.0);
    let (sin, cos) = angle.sin_cos();
    RgbImage::from_fn(src.width(), src.height(), |x, y| {
        // Inverse-map the destination pixel into the source.
        let dx = x as f64 + 0.5 - cx;
        let dy = y as f64 + 0.5 - cy;
        let sx = cos * dx + sin * dy + cx - 0.5;
        let sy = -sin * dx + cos * dy + cy - 0.5;
        if sx < -0.5 || sy < -0.5 || sx > w - 0.5 || sy > h - 0.5 {
            return fill;
        }
        let x0 = sx.floor() as i64;
        let y0 = sy.floor() as i64;
        let tx = (sx - x0 as f64) as f32;
        let ty = (sy - y0 as f64) as f32;
        let lerp = |a: u8, b: u8, t: f32| a as f32 + (b as f32 - a as f32) * t;
        let sample = |ch: fn(Rgb) -> u8| {
            let p00 = ch(src.get_clamped(x0, y0));
            let p10 = ch(src.get_clamped(x0 + 1, y0));
            let p01 = ch(src.get_clamped(x0, y0 + 1));
            let p11 = ch(src.get_clamped(x0 + 1, y0 + 1));
            let top = lerp(p00, p10, tx);
            let bot = lerp(p01, p11, tx);
            (top + (bot - top) * ty).round().clamp(0.0, 255.0) as u8
        };
        Rgb::new(sample(|c| c.r), sample(|c| c.g), sample(|c| c.b))
    })
}

/// Splits an RGB image into three float planes (R, G, B order).
pub fn split_channels(src: &RgbImage) -> [Plane; 3] {
    let n = src.pixels().len();
    let mut chans = [
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    ];
    for c in src.pixels() {
        chans[0].push(c.r as f32);
        chans[1].push(c.g as f32);
        chans[2].push(c.b as f32);
    }
    chans.map(|data| Plane::from_raw(src.width(), src.height(), data))
}

/// Merges three float planes (R, G, B) back into an RGB image with rounding
/// and clamping.
///
/// # Panics
/// Panics if the planes disagree in size.
pub fn merge_channels(planes: &[Plane; 3]) -> RgbImage {
    let (w, h) = (planes[0].width(), planes[0].height());
    assert!(
        planes.iter().all(|p| p.width() == w && p.height() == h),
        "plane sizes differ"
    );
    let mut out = RgbImage::new(w, h);
    let (r, g, b) = (
        planes[0].samples(),
        planes[1].samples(),
        planes[2].samples(),
    );
    for (o, ((&r, &g), &b)) in out.pixels_mut().iter_mut().zip(r.iter().zip(g).zip(b)) {
        *o = Rgb::new(round_clamp_u8(r), round_clamp_u8(g), round_clamp_u8(b));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-pixel bilinear kernel the row-streaming one replaced, kept
    /// verbatim as the reference it must match bit for bit.
    fn scale_bilinear_reference(src: &Plane, nw: u32, nh: u32) -> Plane {
        let (w, h) = (src.width() as f64, src.height() as f64);
        let sx = w / nw as f64;
        let sy = h / nh as f64;
        Plane::from_fn(nw, nh, |x, y| {
            // Pixel-center convention.
            let fx = (x as f64 + 0.5) * sx - 0.5;
            let fy = (y as f64 + 0.5) * sy - 0.5;
            let x0 = fx.floor();
            let y0 = fy.floor();
            let tx = (fx - x0) as f32;
            let ty = (fy - y0) as f32;
            let (x0, y0) = (x0 as i64, y0 as i64);
            let p00 = src.get_clamped(x0, y0);
            let p10 = src.get_clamped(x0 + 1, y0);
            let p01 = src.get_clamped(x0, y0 + 1);
            let p11 = src.get_clamped(x0 + 1, y0 + 1);
            let top = p00 + (p10 - p00) * tx;
            let bot = p01 + (p11 - p01) * tx;
            top + (bot - top) * ty
        })
    }

    /// The RGB route the fused path replaced: split, scale each plane
    /// with the reference kernel, round with `f32::round`.
    fn scale_rgb_bilinear_reference(src: &RgbImage, nw: u32, nh: u32) -> RgbImage {
        let planes = split_channels(src).map(|p| scale_bilinear_reference(&p, nw, nh));
        let byte = |v: f32| v.round().clamp(0.0, 255.0) as u8;
        RgbImage::from_fn(nw, nh, |x, y| {
            Rgb::new(
                byte(planes[0].get(x, y)),
                byte(planes[1].get(x, y)),
                byte(planes[2].get(x, y)),
            )
        })
    }

    /// A source size, its target size and a content seed. Targets cover
    /// identity, ×4 up, ÷7 down and arbitrary (mostly non-integer) ratios;
    /// sources start at 1 pixel so the clamped borders meet on both sides.
    fn arb_scale() -> impl Strategy<Value = (u32, u32, u32, u32, u64)> {
        (1u32..72, 1u32..72, 0u8..4, 1u32..97, 1u32..97, any::<u64>()).prop_map(
            |(w, h, kind, rw, rh, seed)| {
                let (nw, nh) = match kind {
                    0 => (w, h),
                    1 => (4 * w, 4 * h),
                    2 => ((w / 7).max(1), (h / 7).max(1)),
                    _ => (rw, rh),
                };
                (w, h, nw, nh, seed)
            },
        )
    }

    fn xorshift(mut s: u64) -> impl FnMut() -> u64 {
        s |= 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        #[test]
        fn bilinear_plane_is_bit_identical_to_reference(case in arb_scale()) {
            let (w, h, nw, nh, seed) = case;
            // Signed, fractional samples like a shadow plane's.
            let mut rng = xorshift(seed);
            let src = Plane::from_fn(w, h, |_, _| (rng() % 200_001) as f32 / 256.0 - 390.0);
            let got = scale_plane(&src, nw, nh, Filter::Bilinear);
            let want = scale_bilinear_reference(&src, nw, nh);
            prop_assert_eq!((got.width(), got.height()), (nw, nh));
            for (i, (g, r)) in got.samples().iter().zip(want.samples()).enumerate() {
                prop_assert_eq!(g.to_bits(), r.to_bits(), "sample {} ({}x{} -> {}x{})", i, w, h, nw, nh);
            }
        }

        #[test]
        fn bilinear_rgb_is_byte_identical_to_reference(case in arb_scale()) {
            let (w, h, nw, nh, seed) = case;
            let mut rng = xorshift(seed);
            let src = RgbImage::from_fn(w, h, |_, _| {
                let v = rng();
                Rgb::new(v as u8, (v >> 8) as u8, (v >> 16) as u8)
            });
            let got = scale_rgb(&src, nw, nh, Filter::Bilinear);
            prop_assert_eq!(got, scale_rgb_bilinear_reference(&src, nw, nh));
        }
    }

    fn gradient(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            Rgb::new((x * 7 % 256) as u8, (y * 5 % 256) as u8, 99)
        })
    }

    #[test]
    fn identity_scale_is_lossless_for_all_filters() {
        let img = gradient(17, 13);
        for f in [Filter::Nearest, Filter::Bilinear, Filter::Box] {
            let out = scale_rgb(&img, 17, 13, f);
            assert_eq!(out, img, "{f:?}");
        }
    }

    #[test]
    fn constant_image_stays_constant_under_scaling() {
        let img = RgbImage::filled(20, 20, Rgb::new(100, 150, 200));
        for f in [Filter::Nearest, Filter::Bilinear, Filter::Box] {
            let out = scale_rgb(&img, 7, 31, f);
            for p in out.pixels() {
                assert_eq!(*p, Rgb::new(100, 150, 200), "{f:?}");
            }
        }
    }

    #[test]
    fn box_downscale_preserves_mean() {
        let img = gradient(64, 64).to_gray();
        let down = scale_gray(&img, 8, 8, Filter::Box);
        assert!((img.mean() - down.mean()).abs() < 1.5);
    }

    #[test]
    fn rotations_compose_to_identity() {
        let img = gradient(9, 14);
        assert_eq!(rotate180(&rotate180(&img)), img);
        assert_eq!(rotate270(&rotate90(&img)), img);
        assert_eq!(rotate90(&rotate90(&img)), rotate180(&img));
    }

    #[test]
    fn rotate90_moves_topleft_to_topright() {
        let mut img = RgbImage::new(4, 4);
        img.set(0, 0, Rgb::WHITE);
        let r = rotate90(&img);
        assert_eq!(r.get(3, 0), Rgb::WHITE);
    }

    #[test]
    fn flips_are_involutions() {
        let img = gradient(11, 6);
        assert_eq!(flip_horizontal(&flip_horizontal(&img)), img);
        assert_eq!(flip_vertical(&flip_vertical(&img)), img);
    }

    #[test]
    fn rotate_arbitrary_zero_angle_is_identity() {
        let img = gradient(12, 12);
        let r = rotate_arbitrary(&img, 0.0, Rgb::BLACK);
        assert_eq!(r, img);
    }

    #[test]
    fn rotate_arbitrary_fills_corners() {
        let img = RgbImage::filled(20, 20, Rgb::WHITE);
        let r = rotate_arbitrary(&img, std::f64::consts::FRAC_PI_4, Rgb::BLACK);
        assert_eq!(r.get(0, 0), Rgb::BLACK, "corner must be fill color");
        assert_eq!(r.get(10, 10), Rgb::WHITE, "center preserved");
    }

    #[test]
    fn split_merge_roundtrip() {
        let img = gradient(10, 10);
        let planes = split_channels(&img);
        assert_eq!(merge_channels(&planes), img);
    }

    #[test]
    fn upscale_then_downscale_approximates_identity() {
        let img = gradient(16, 16).to_gray();
        let up = scale_gray(&img, 32, 32, Filter::Bilinear);
        let back = scale_gray(&up, 16, 16, Filter::Box);
        let mut max_err = 0i32;
        for (a, b) in img.pixels().iter().zip(back.pixels()) {
            max_err = max_err.max((*a as i32 - *b as i32).abs());
        }
        assert!(max_err <= 16, "max error {max_err} too large");
    }
}
