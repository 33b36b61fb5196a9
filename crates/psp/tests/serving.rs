//! Serve-path audit on the in-process store: every transform response
//! reports the pipeline that produced it, coefficient-eligible views never
//! decode to pixels, repeats come from the cache, and the `psp.serve.*`
//! obs counters agree with the per-request reports.
//!
//! The obs subscriber is process-global, so this check lives in its own
//! test binary: no other test may bump the counters it audits.

use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::CoeffImage;
use puppies_psp::{PspServer, ServedPath};
use puppies_transform::{ScaleFilter, Transformation};

/// A protected 96×72 textured photo; no two seeds are near-duplicates,
/// so no first serve can come from another photo's signature family.
fn photo(seed: u32) -> (Vec<u8>, Vec<u8>) {
    let img = RgbImage::from_fn(96, 72, |x, y| {
        let v = x
            .wrapping_mul(13 + seed)
            .wrapping_add(y.wrapping_mul(29))
            .wrapping_add(seed.wrapping_mul(131));
        Rgb::new(
            (v.wrapping_mul(2_654_435_761) >> 24) as u8,
            (v.wrapping_mul(40_503) >> 8) as u8,
            ((x * 2 + y).wrapping_add(seed * 17) & 0xFF) as u8,
        )
    });
    let key = OwnerKey::from_seed([seed as u8; 32]);
    let p = protect(
        &img,
        &[Rect::new(24, 16, 32, 32)],
        &key,
        &ProtectOptions::default().with_quality(75),
    )
    .expect("fixture protects");
    (p.bytes, p.params.to_bytes())
}

#[test]
fn served_paths_match_eligibility_repeats_hit_and_counters_agree() {
    const PHOTOS: u32 = 32;
    let views = [
        Transformation::Rotate90,
        Transformation::Rotate180,
        Transformation::Recompress { quality: 40 },
        Transformation::Scale {
            width: 48,
            height: 36,
            filter: ScaleFilter::Bilinear,
        },
    ];
    let photos: Vec<_> = (1..=PHOTOS).map(photo).collect();
    let session = puppies_obs::Obs::install();
    let server = PspServer::new();
    let (mut coeff_domain, mut pixel_fallback, mut cached) = (0u64, 0u64, 0u64);
    for (bytes, params) in &photos {
        let id = server.upload(bytes.clone(), params.clone()).unwrap();
        let coeff = CoeffImage::decode(bytes).unwrap();
        let (w, h) = (coeff.width(), coeff.height());
        for pass in 0..2 {
            for t in &views {
                let (_, _, served) = server.download_transformed_traced(id, t).unwrap();
                match served {
                    ServedPath::CoeffDomain => coeff_domain += 1,
                    ServedPath::PixelFallback => pixel_fallback += 1,
                    ServedPath::Cached | ServedPath::SigCached => cached += 1,
                }
                if pass == 0 {
                    let expected = if t.is_coeff_domain(w, h) {
                        ServedPath::CoeffDomain
                    } else {
                        ServedPath::PixelFallback
                    };
                    assert_eq!(served, expected, "first serve of {t:?} on {w}x{h}");
                } else {
                    assert_eq!(served, ServedPath::Cached, "repeat of {t:?}");
                }
            }
        }
    }
    let obs = session.finish().expect("obs session");
    let counter = |name: &str| obs.metrics().counter(name).map_or(0, |c| c.get());
    // Three of the four views are coefficient-domain, one is pixel-domain.
    let n = PHOTOS as u64;
    assert_eq!((coeff_domain, pixel_fallback, cached), (3 * n, n, 4 * n));
    assert_eq!(counter("psp.serve.coeff_domain"), coeff_domain);
    assert_eq!(counter("psp.serve.pixel_fallback"), pixel_fallback);
}
