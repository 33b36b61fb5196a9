//! RGB ⇄ YCbCr color conversion as used by baseline JPEG (JFIF full range,
//! ITU-R BT.601 coefficients).
//!
//! The JPEG pipeline in `puppies-jpeg` converts images to YCbCr before the
//! per-plane DCT; PuPPIeS perturbs each plane independently (§II-A of the
//! paper notes each layer is processed independently).

use crate::simd::Simd8;

/// An 8-bit RGB color triple.
///
/// `repr(C)` pins the layout to three packed bytes in field order, which
/// the slice converters rely on to reinterpret `&[Rgb]` runs as raw
/// `r g b r g b …` bytes for [`Simd8::rgb_widen`].
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgb {
    /// Red channel, 0..=255.
    pub r: u8,
    /// Green channel, 0..=255.
    pub g: u8,
    /// Blue channel, 0..=255.
    pub b: u8,
}

impl Rgb {
    /// Creates a color from its components.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Pure black.
    pub const BLACK: Rgb = Rgb::new(0, 0, 0);
    /// Pure white.
    pub const WHITE: Rgb = Rgb::new(255, 255, 255);

    /// Rec. 601 luma of the color, rounded to the nearest integer.
    pub fn luma(self) -> u8 {
        let y = 0.299 * self.r as f32 + 0.587 * self.g as f32 + 0.114 * self.b as f32;
        y.round().clamp(0.0, 255.0) as u8
    }

    /// Linear interpolation between `self` and `other` with `t` in `[0, 1]`.
    pub fn lerp(self, other: Rgb, t: f32) -> Rgb {
        let t = t.clamp(0.0, 1.0);
        let mix = |a: u8, b: u8| (a as f32 + (b as f32 - a as f32) * t).round() as u8;
        Rgb::new(
            mix(self.r, other.r),
            mix(self.g, other.g),
            mix(self.b, other.b),
        )
    }
}

impl From<[u8; 3]> for Rgb {
    fn from(v: [u8; 3]) -> Self {
        Rgb::new(v[0], v[1], v[2])
    }
}

impl From<Rgb> for [u8; 3] {
    fn from(c: Rgb) -> Self {
        [c.r, c.g, c.b]
    }
}

/// An 8-bit full-range YCbCr triple (JFIF convention: all channels 0..=255,
/// chroma centered at 128).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct YCbCr {
    /// Luma.
    pub y: u8,
    /// Blue-difference chroma.
    pub cb: u8,
    /// Red-difference chroma.
    pub cr: u8,
}

impl YCbCr {
    /// Creates a YCbCr triple from its components.
    pub const fn new(y: u8, cb: u8, cr: u8) -> Self {
        YCbCr { y, cb, cr }
    }
}

/// Rounds half away from zero and clamps to `0..=255`, producing exactly
/// `v.round().clamp(0.0, 255.0) as u8` in straight-line f32 arithmetic:
/// no `f32::round` libm call and no saturating float→int cast, either of
/// which blocks vectorization of loops over it on the SSE2 baseline.
///
/// Why it is exact:
/// - Clamping before rounding is equivalent, because every input that
///   rounds outside `[0, 255]` clamps to the same endpoint either way.
///   NaN fails `v > 0.0` and becomes `0.0`, as the cast maps it to 0.
/// - For `c` in `[0, 255]`, adding and subtracting 2^23 rounds `c` to an
///   integer exactly (ties to even), and one compare-and-subtract turns
///   that into `floor(c)`. `c - floor(c)` is then exact, so `>= 0.5` is
///   the true round-half-up, which equals round-half-away on nonnegatives.
/// - The result is an integer in `[0, 255]`; adding 2^23 leaves it in the
///   low mantissa byte, which the bit-truncating `as u8` extracts.
///
/// The `round_clamp_u8_matches_round_then_clamp` test checks every
/// k/256 in `[-2, 258]`, both neighbours of every half-integer there, and
/// NaN, ±∞, ±0 and subnormals.
#[inline]
pub fn round_clamp_u8(v: f32) -> u8 {
    let c = if v > 0.0 { v.min(255.0) } else { 0.0 };
    let r = (c + 8_388_608.0) - 8_388_608.0;
    let t = r - ((r > c) as i32 as f32);
    let q = t + ((c - t >= 0.5) as i32 as f32);
    (q + 8_388_608.0).to_bits() as u8
}

/// Converts an RGB color to full-range YCbCr (BT.601 / JFIF).
pub fn rgb_to_ycbcr(c: Rgb) -> YCbCr {
    let (r, g, b) = (c.r as f32, c.g as f32, c.b as f32);
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let cb = 128.0 - 0.168_735_9 * r - 0.331_264_1 * g + 0.5 * b;
    let cr = 128.0 + 0.5 * r - 0.418_687_6 * g - 0.081_312_4 * b;
    YCbCr::new(round_clamp_u8(y), round_clamp_u8(cb), round_clamp_u8(cr))
}

/// Converts a full-range YCbCr color back to RGB (BT.601 / JFIF).
pub fn ycbcr_to_rgb(c: YCbCr) -> Rgb {
    let y = c.y as f32;
    let cb = c.cb as f32 - 128.0;
    let cr = c.cr as f32 - 128.0;
    let r = y + 1.402 * cr;
    let g = y - 0.344_136_3 * cb - 0.714_136_3 * cr;
    let b = y + 1.772 * cb;
    Rgb::new(round_clamp_u8(r), round_clamp_u8(g), round_clamp_u8(b))
}

impl From<Rgb> for YCbCr {
    fn from(c: Rgb) -> Self {
        rgb_to_ycbcr(c)
    }
}

/// [`round_clamp_u8`] staying in `f32` (every value in `0..=255` is exactly
/// representable). This is the scalar reference for [`quant255_v`]; the
/// production slice converters run the lane form, and a test pins the two
/// bit-identical.
#[cfg(test)]
#[inline]
fn quant255(v: f32) -> f32 {
    let c = v.clamp(0.0, 255.0);
    // Branchless floor without an int round-trip, so the surrounding loops
    // vectorize on the SSE2 baseline (a scalar `as i32` cast forces
    // `cvttss2si` per element). Adding/subtracting 2^23 rounds c to the
    // nearest integer (ties to even) exactly for c in [0, 2^23); one
    // compare-and-subtract corrects round-up back to floor(c). The
    // fractional part c - floor(c) is then exact, so the >= 0.5 tie rule
    // is applied to the true fraction, matching `round_clamp_u8`.
    let r = (c + 8_388_608.0) - 8_388_608.0;
    let t = r - ((r > c) as i32 as f32);
    t + ((c - t >= 0.5) as i32 as f32)
}

/// Lane width for the slice converters: big enough to amortize the scalar
/// pack/unpack against the vectorized channel math, small enough to stay
/// in L1.
const LANES: usize = 128;

/// 8-wide groups per staging buffer.
const GROUPS: usize = LANES / 8;

/// [`quant255`] on a lane: the exact scalar operation sequence expressed in
/// [`Simd8`] ops. The compare masks are all-ones, so ANDing with 1.0
/// reproduces the scalar `(cond) as i32 as f32` terms bit-for-bit, and every
/// arithmetic step is the same IEEE op in the same order — vector output is
/// bit-identical to the scalar reference for finite inputs (the converters
/// only see finite samples).
#[inline(always)]
unsafe fn quant255_v<S: Simd8>(v: S::F) -> S::F {
    unsafe {
        let c = S::f_min(S::f_max(v, S::f_splat(0.0)), S::f_splat(255.0));
        let r = S::f_sub(
            S::f_add(c, S::f_splat(8_388_608.0)),
            S::f_splat(8_388_608.0),
        );
        let t = S::f_sub(r, S::f_and(S::f_cmp_gt(r, c), S::f_splat(1.0)));
        let half_up = S::f_and(
            S::f_cmp_ge(S::f_sub(c, t), S::f_splat(0.5)),
            S::f_splat(1.0),
        );
        S::f_add(t, half_up)
    }
}

/// Packed RGB bytes per staging buffer (`LANES` pixels × 3 channels).
const PX_BYTES: usize = LANES * 3;

/// [`rgb_to_ycbcr_slice`] arithmetic on one staging buffer: same channel
/// expressions as [`rgb_to_ycbcr`], evaluated left-to-right per lane.
/// (`inline(always)`: must fuse into the `#[target_feature]` dispatch
/// wrapper or the intrinsics inside cannot be inlined.)
///
/// Pixels arrive as packed `r g b` bytes and are deinterleaved in-lane by
/// [`Simd8::rgb_widen`]; `i_to_f` is exact on `0..=255`, so the values
/// match the scalar `u8 as f32` path bit-for-bit while the byte shuffles
/// replace three scalar loads per pixel.
#[inline(always)]
unsafe fn rgb_to_ycbcr_kernel<S: Simd8>(
    px: &[u8; PX_BYTES],
    y: &mut [f32; LANES],
    cb: &mut [f32; LANES],
    cr: &mut [f32; LANES],
) {
    unsafe {
        let pg = &*(px.as_ptr() as *const [[u8; 24]; GROUPS]);
        let yg = &mut *(y.as_mut_ptr() as *mut [[f32; 8]; GROUPS]);
        let cbg = &mut *(cb.as_mut_ptr() as *mut [[f32; 8]; GROUPS]);
        let crg = &mut *(cr.as_mut_ptr() as *mut [[f32; 8]; GROUPS]);
        for i in 0..GROUPS {
            let (rw, gw, bw) = S::rgb_widen(&pg[i]);
            let r = S::i_to_f(rw);
            let g = S::i_to_f(gw);
            let b = S::i_to_f(bw);
            // y = 0.299 r + 0.587 g + 0.114 b
            let yv = S::f_add(
                S::f_add(
                    S::f_mul(S::f_splat(0.299), r),
                    S::f_mul(S::f_splat(0.587), g),
                ),
                S::f_mul(S::f_splat(0.114), b),
            );
            // cb = 128 - 0.1687359 r - 0.3312641 g + 0.5 b
            let cbv = S::f_add(
                S::f_sub(
                    S::f_sub(S::f_splat(128.0), S::f_mul(S::f_splat(0.168_735_9), r)),
                    S::f_mul(S::f_splat(0.331_264_1), g),
                ),
                S::f_mul(S::f_splat(0.5), b),
            );
            // cr = 128 + 0.5 r - 0.4186876 g - 0.0813124 b
            let crv = S::f_sub(
                S::f_sub(
                    S::f_add(S::f_splat(128.0), S::f_mul(S::f_splat(0.5), r)),
                    S::f_mul(S::f_splat(0.418_687_6), g),
                ),
                S::f_mul(S::f_splat(0.081_312_4), b),
            );
            S::f_store(quant255_v::<S>(yv), &mut yg[i]);
            S::f_store(quant255_v::<S>(cbv), &mut cbg[i]);
            S::f_store(quant255_v::<S>(crv), &mut crg[i]);
        }
    }
}

/// [`ycbcr_to_rgb_slice`] arithmetic on one staging buffer: quantize the raw
/// samples, center the chroma, then the [`ycbcr_to_rgb`] expressions.
#[inline(always)]
unsafe fn ycbcr_to_rgb_kernel<S: Simd8>(
    y: &[f32; LANES],
    cb: &[f32; LANES],
    cr: &[f32; LANES],
    rf: &mut [f32; LANES],
    gf: &mut [f32; LANES],
    bf: &mut [f32; LANES],
) {
    unsafe {
        let yg = &*(y.as_ptr() as *const [[f32; 8]; GROUPS]);
        let cbg = &*(cb.as_ptr() as *const [[f32; 8]; GROUPS]);
        let crg = &*(cr.as_ptr() as *const [[f32; 8]; GROUPS]);
        let rg = &mut *(rf.as_mut_ptr() as *mut [[f32; 8]; GROUPS]);
        let gg = &mut *(gf.as_mut_ptr() as *mut [[f32; 8]; GROUPS]);
        let bg = &mut *(bf.as_mut_ptr() as *mut [[f32; 8]; GROUPS]);
        for i in 0..GROUPS {
            let yq = quant255_v::<S>(S::f_load(&yg[i]));
            let cbq = S::f_sub(quant255_v::<S>(S::f_load(&cbg[i])), S::f_splat(128.0));
            let crq = S::f_sub(quant255_v::<S>(S::f_load(&crg[i])), S::f_splat(128.0));
            // r = y + 1.402 cr
            let rv = S::f_add(yq, S::f_mul(S::f_splat(1.402), crq));
            // g = y - 0.3441363 cb - 0.7141363 cr
            let gv = S::f_sub(
                S::f_sub(yq, S::f_mul(S::f_splat(0.344_136_3), cbq)),
                S::f_mul(S::f_splat(0.714_136_3), crq),
            );
            // b = y + 1.772 cb
            let bv = S::f_add(yq, S::f_mul(S::f_splat(1.772), cbq));
            S::f_store(quant255_v::<S>(rv), &mut rg[i]);
            S::f_store(quant255_v::<S>(gv), &mut gg[i]);
            S::f_store(quant255_v::<S>(bv), &mut bg[i]);
        }
    }
}

crate::simd_dispatch! {
    fn rgb_to_ycbcr_lanes / rgb_to_ycbcr_lanes_with(px: &[u8; PX_BYTES], y: &mut [f32; LANES], cb: &mut [f32; LANES], cr: &mut [f32; LANES]) = rgb_to_ycbcr_kernel;
    fn ycbcr_to_rgb_lanes / ycbcr_to_rgb_lanes_with(y: &[f32; LANES], cb: &[f32; LANES], cr: &[f32; LANES], rf: &mut [f32; LANES], gf: &mut [f32; LANES], bf: &mut [f32; LANES]) = ycbcr_to_rgb_kernel;
}

/// Slice form of [`rgb_to_ycbcr`]: converts `px` into u8-quantized Y, Cb,
/// Cr values stored as `f32`, one output slice per channel.
///
/// Exactly `rgb_to_ycbcr(px[i])` per element — same expressions, same
/// rounding — but restructured channel-planar so each arithmetic loop
/// vectorizes instead of round-tripping one `Rgb` struct at a time.
///
/// # Panics
/// Panics if the slice lengths disagree.
pub fn rgb_to_ycbcr_slice(px: &[Rgb], y: &mut [f32], cb: &mut [f32], cr: &mut [f32]) {
    assert!(
        px.len() == y.len() && px.len() == cb.len() && px.len() == cr.len(),
        "channel slice lengths differ"
    );
    // SAFETY: the destinations are initialized slices of length `px.len()`.
    unsafe { rgb_to_ycbcr_raw(px, y.as_mut_ptr(), cb.as_mut_ptr(), cr.as_mut_ptr()) }
}

/// [`rgb_to_ycbcr_slice`] into freshly-allocated channel vectors, skipping
/// the zero-fill a `vec![0.0; n]` destination would pay (the converter
/// writes every element before the lengths are published).
pub fn rgb_to_ycbcr_vecs(px: &[Rgb]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let n = px.len();
    let mut y: Vec<f32> = Vec::with_capacity(n);
    let mut cb: Vec<f32> = Vec::with_capacity(n);
    let mut cr: Vec<f32> = Vec::with_capacity(n);
    // SAFETY: each destination has capacity for `n` values and
    // `rgb_to_ycbcr_raw` writes all `n` of them before `set_len`.
    unsafe {
        rgb_to_ycbcr_raw(px, y.as_mut_ptr(), cb.as_mut_ptr(), cr.as_mut_ptr());
        y.set_len(n);
        cb.set_len(n);
        cr.set_len(n);
    }
    (y, cb, cr)
}

/// Driver shared by the slice and vec converters.
///
/// # Safety
/// `y`, `cb`, `cr` must each be valid for `px.len()` `f32` writes. They may
/// point at uninitialized memory: every element is written, none is read.
unsafe fn rgb_to_ycbcr_raw(px: &[Rgb], y: *mut f32, cb: *mut f32, cr: *mut f32) {
    let mut base = 0;
    while base < px.len() {
        let m = LANES.min(px.len() - base);
        let chunk = &px[base..base + m];
        if m == LANES {
            // Full chunk: `Rgb` is `repr(C)` (three packed bytes), so the
            // pixel run *is* the kernel's byte layout — reinterpret it in
            // place and write straight into the destination planes.
            unsafe {
                let pb = &*(chunk.as_ptr() as *const [u8; PX_BYTES]);
                let yd = &mut *(y.add(base) as *mut [f32; LANES]);
                let cbd = &mut *(cb.add(base) as *mut [f32; LANES]);
                let crd = &mut *(cr.add(base) as *mut [f32; LANES]);
                rgb_to_ycbcr_lanes(pb, yd, cbd, crd);
            }
        } else {
            // Tail chunk: stage the live bytes (lanes past `m` hold zeros
            // and are never copied out), then copy the live prefix.
            let mut pb = [0u8; PX_BYTES];
            // SAFETY: `chunk` is `m` contiguous 3-byte `repr(C)` pixels.
            let live = unsafe { std::slice::from_raw_parts(chunk.as_ptr() as *const u8, 3 * m) };
            pb[..3 * m].copy_from_slice(live);
            let mut yo = [0.0f32; LANES];
            let mut cbo = [0.0f32; LANES];
            let mut cro = [0.0f32; LANES];
            rgb_to_ycbcr_lanes(&pb, &mut yo, &mut cbo, &mut cro);
            unsafe {
                std::ptr::copy_nonoverlapping(yo.as_ptr(), y.add(base), m);
                std::ptr::copy_nonoverlapping(cbo.as_ptr(), cb.add(base), m);
                std::ptr::copy_nonoverlapping(cro.as_ptr(), cr.add(base), m);
            }
        }
        base += m;
    }
}

/// Slice form of the decode-side conversion: quantizes raw `f32` Y, Cb, Cr
/// samples to 8 bits and converts to RGB.
///
/// Exactly `ycbcr_to_rgb(YCbCr::new(round_clamp_u8(y[i]), ..))` per
/// element, restructured channel-planar like [`rgb_to_ycbcr_slice`].
///
/// # Panics
/// Panics if the slice lengths disagree.
pub fn ycbcr_to_rgb_slice(y: &[f32], cb: &[f32], cr: &[f32], out: &mut [Rgb]) {
    assert!(
        y.len() == out.len() && cb.len() == out.len() && cr.len() == out.len(),
        "channel slice lengths differ"
    );
    let mut ys = [0.0f32; LANES];
    let mut cbs = [0.0f32; LANES];
    let mut crs = [0.0f32; LANES];
    let mut rf = [0.0f32; LANES];
    let mut gf = [0.0f32; LANES];
    let mut bf = [0.0f32; LANES];
    let mut base = 0;
    while base < out.len() {
        let m = LANES.min(out.len() - base);
        if m == LANES {
            // Full chunk: feed the source planes to the kernel in place.
            let yd: &[f32; LANES] = (&y[base..base + LANES]).try_into().unwrap();
            let cbd: &[f32; LANES] = (&cb[base..base + LANES]).try_into().unwrap();
            let crd: &[f32; LANES] = (&cr[base..base + LANES]).try_into().unwrap();
            ycbcr_to_rgb_lanes(yd, cbd, crd, &mut rf, &mut gf, &mut bf);
            let chunk = &mut out[base..base + LANES];
            for i in 0..LANES {
                // See the tail path for why this byte extraction is exact.
                chunk[i] = Rgb::new(
                    (rf[i] + 8_388_608.0).to_bits() as u8,
                    (gf[i] + 8_388_608.0).to_bits() as u8,
                    (bf[i] + 8_388_608.0).to_bits() as u8,
                );
            }
            base += LANES;
            continue;
        }
        ys[..m].copy_from_slice(&y[base..base + m]);
        cbs[..m].copy_from_slice(&cb[base..base + m]);
        crs[..m].copy_from_slice(&cr[base..base + m]);
        // Tail chunks run the kernel over the full staging buffer; lanes
        // past `m` hold stale-but-finite values and are never packed.
        ycbcr_to_rgb_lanes(&ys, &cbs, &crs, &mut rf, &mut gf, &mut bf);
        let chunk = &mut out[base..base + m];
        for i in 0..m {
            // quant255 output is an exact integer in [0, 255], so adding
            // 2^23 leaves it in the low mantissa byte: the byte extraction
            // is a pure add + bit-truncate, where an `as u8` cast would be
            // a scalar saturating float→int per channel.
            chunk[i] = Rgb::new(
                (rf[i] + 8_388_608.0).to_bits() as u8,
                (gf[i] + 8_388_608.0).to_bits() as u8,
                (bf[i] + 8_388_608.0).to_bits() as u8,
            );
        }
        base += m;
    }
}

impl From<YCbCr> for Rgb {
    fn from(c: YCbCr) -> Self {
        ycbcr_to_rgb(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn black_and_white_map_to_extremes() {
        assert_eq!(rgb_to_ycbcr(Rgb::BLACK), YCbCr::new(0, 128, 128));
        assert_eq!(rgb_to_ycbcr(Rgb::WHITE), YCbCr::new(255, 128, 128));
    }

    #[test]
    fn primaries_have_expected_luma_order() {
        let yr = rgb_to_ycbcr(Rgb::new(255, 0, 0)).y;
        let yg = rgb_to_ycbcr(Rgb::new(0, 255, 0)).y;
        let yb = rgb_to_ycbcr(Rgb::new(0, 0, 255)).y;
        assert!(
            yg > yr && yr > yb,
            "luma order G > R > B violated: {yg} {yr} {yb}"
        );
    }

    #[test]
    fn round_trip_is_nearly_lossless() {
        // 8-bit YCbCr quantization loses at most a couple of codes per channel.
        for r in (0..=255).step_by(17) {
            for g in (0..=255).step_by(17) {
                for b in (0..=255).step_by(17) {
                    let c = Rgb::new(r as u8, g as u8, b as u8);
                    let back = ycbcr_to_rgb(rgb_to_ycbcr(c));
                    assert!((back.r as i32 - c.r as i32).abs() <= 2, "{c:?} -> {back:?}");
                    assert!((back.g as i32 - c.g as i32).abs() <= 2, "{c:?} -> {back:?}");
                    assert!((back.b as i32 - c.b as i32).abs() <= 2, "{c:?} -> {back:?}");
                }
            }
        }
    }

    #[test]
    fn gray_has_neutral_chroma() {
        for v in [0u8, 37, 128, 200, 255] {
            let c = rgb_to_ycbcr(Rgb::new(v, v, v));
            assert_eq!(c.cb, 128);
            assert_eq!(c.cr, 128);
            assert_eq!(c.y, v);
        }
    }

    #[test]
    fn lerp_endpoints() {
        let a = Rgb::new(10, 20, 30);
        let b = Rgb::new(200, 100, 0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert_eq!(mid, Rgb::new(105, 60, 15));
    }

    #[test]
    fn slice_converters_match_scalar_exactly() {
        // 300 pixels exercises the chunk boundary (LANES = 128) and the
        // partial tail.
        let px: Vec<Rgb> = (0..300u32)
            .map(|i| {
                Rgb::new(
                    (i.wrapping_mul(97) % 256) as u8,
                    (i.wrapping_mul(41) % 256) as u8,
                    (i.wrapping_mul(13) % 256) as u8,
                )
            })
            .collect();
        let n = px.len();
        let (mut y, mut cb, mut cr) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        rgb_to_ycbcr_slice(&px, &mut y, &mut cb, &mut cr);
        for i in 0..n {
            let c = rgb_to_ycbcr(px[i]);
            assert_eq!(y[i], c.y as f32, "y at {i}");
            assert_eq!(cb[i], c.cb as f32, "cb at {i}");
            assert_eq!(cr[i], c.cr as f32, "cr at {i}");
        }

        // Back-conversion on raw (unquantized, out-of-range, tie-valued)
        // samples must also match the scalar path exactly.
        let raw: Vec<f32> = (0..n)
            .map(|i| (i as f32 * 1.7 - 40.0) + if i % 5 == 0 { 0.5 } else { 0.25 })
            .collect();
        let raw2: Vec<f32> = raw.iter().map(|v| 300.0 - v).collect();
        let mut out = vec![Rgb::BLACK; n];
        ycbcr_to_rgb_slice(&raw, &raw2, &raw, &mut out);
        for i in 0..n {
            let c = YCbCr::new(
                round_clamp_u8(raw[i]),
                round_clamp_u8(raw2[i]),
                round_clamp_u8(raw[i]),
            );
            assert_eq!(out[i], ycbcr_to_rgb(c), "pixel {i}");
        }
    }

    #[test]
    fn round_clamp_u8_matches_round_then_clamp() {
        for v in [
            -1000.0,
            -0.51,
            -0.5,
            -0.49,
            0.0,
            0.49,
            0.5,
            0.999,
            1.5,
            127.5,
            254.49,
            254.5,
            255.0,
            255.49,
            255.5,
            1000.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x007f_ffff), // largest subnormal
            -f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
        ] {
            let want = v.round().clamp(0.0, 255.0) as u8;
            assert_eq!(round_clamp_u8(v), want, "v = {v}");
        }
        let check = |v: f32| {
            let want = v.round().clamp(0.0, 255.0) as u8;
            assert_eq!(round_clamp_u8(v), want, "v = {v:e} ({:#010x})", v.to_bits());
        };
        // Every k/256 in [-2, 258]; all are exact in f32.
        for k in -512..=258 * 256 {
            check(k as f32 / 256.0);
        }
        // Every half-integer in that range and both its float neighbours,
        // where tie handling shows. Adjacent bit patterns are the
        // neighbours for either sign.
        for k in -5..=517 {
            let half = k as f32 / 2.0;
            if half.fract() != 0.0 {
                check(half);
                check(f32::from_bits(half.to_bits() - 1));
                check(f32::from_bits(half.to_bits() + 1));
            }
        }
    }

    #[test]
    fn quant255_lane_matches_scalar_reference() {
        // quant255_v must be the exact op-for-op lane form of quant255;
        // sweep the tie-handling region plus out-of-range values.
        let mut buf = [0.0f32; 8];
        let mut v = -40.0f32;
        'sweep: loop {
            for slot in buf.iter_mut() {
                *slot = v;
                v += 0.0625;
                if v >= 300.0 {
                    break 'sweep;
                }
            }
            let mut got = [0.0f32; 8];
            unsafe {
                let lanes = crate::simd::Scalar8::f_load(&buf);
                crate::simd::Scalar8::f_store(quant255_v::<crate::simd::Scalar8>(lanes), &mut got);
            }
            for i in 0..8 {
                assert_eq!(
                    got[i].to_bits(),
                    quant255(buf[i]).to_bits(),
                    "v = {}",
                    buf[i]
                );
            }
        }
    }

    #[test]
    fn color_convert_bit_identical_across_backends() {
        use crate::simd::Backend;
        // Forward staging: the full 8-bit sample range as packed RGB bytes
        // (exercises every backend's `rgb_widen`). Inverse staging:
        // adversarial f32 values — ties, out-of-range, negatives —
        // everything the quantizer sequence branches on.
        let mut px = [0u8; PX_BYTES];
        let mut yf = [0.0f32; LANES];
        let mut cbf = [0.0f32; LANES];
        let mut crf = [0.0f32; LANES];
        for i in 0..LANES {
            px[3 * i] = ((i * 97) % 256) as u8;
            px[3 * i + 1] = ((i * 41) % 256) as u8;
            px[3 * i + 2] = (255 - (i * 2) % 256) as u8;
            yf[i] = (i as f32 * 2.31) - 20.0 + if i % 4 == 0 { 0.5 } else { 0.0 };
            cbf[i] = 300.0 - i as f32 * 2.77;
            crf[i] = (i as f32 * 1.13).rem_euclid(256.0) - 0.5;
        }
        let run = |backend| {
            let (mut y, mut cb, mut cr) = ([0.0f32; LANES], [0.0f32; LANES], [0.0f32; LANES]);
            rgb_to_ycbcr_lanes_with(backend, &px, &mut y, &mut cb, &mut cr);
            let (mut r, mut g, mut b) = ([0.0f32; LANES], [0.0f32; LANES], [0.0f32; LANES]);
            ycbcr_to_rgb_lanes_with(backend, &yf, &cbf, &crf, &mut r, &mut g, &mut b);
            [y, cb, cr, r, g, b].map(|a| a.map(f32::to_bits))
        };
        let scalar = run(Backend::Scalar);
        for backend in Backend::ALL {
            if !backend.available() {
                continue;
            }
            assert_eq!(run(backend), scalar, "backend {}", backend.name());
        }
    }

    #[test]
    fn luma_matches_ycbcr_y() {
        for (r, g, b) in [(12u8, 200u8, 99u8), (255, 0, 128), (1, 2, 3)] {
            let c = Rgb::new(r, g, b);
            assert_eq!(c.luma(), rgb_to_ycbcr(c).y);
        }
    }
}
