//! Seeded input generation. Everything a workload feeds the programs
//! under test is derived here from the `--seed` argument, before timing
//! starts: PASCAL-profile scenes with their ground-truth ROIs, the
//! owner key, protected uploads, view lists and key streams.

use puppies_core::{protect, OwnerKey, PerturbProfile, ProtectOptions, ProtectedImage};
use puppies_datasets::{generate_one, DatasetProfile};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_transform::{ScaleFilter, Transformation};

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed from the workload seed and a tag.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// One generated photo: pixels plus the ROIs the sender protects.
#[derive(Debug, Clone)]
pub struct Scene {
    pub image: RgbImage,
    pub rois: Vec<Rect>,
}

/// Distinct photos one rendered scene yields: four mirror orientations
/// times six colour-channel orders.
const VARIANTS_PER_SCENE: usize = 24;

/// Scenes rendered before variants are used: twice the server's 8-entry
/// decode memo, so content and ROI mix vary well beyond what the memo
/// holds.
const DISTINCT_SCENES: usize = 16;

/// `count` distinct photos from PASCAL-profile scenes (496×328,
/// ground-truth regions as ROIs). Up to [`DISTINCT_SCENES`] photos are
/// each their own scene; beyond that, photo `i` is scene `i % base` in
/// variant `i / base`, a mirror orientation and channel order, so a
/// large pool of distinct photos costs few scene renders.
pub fn scenes(seed: u64, count: usize) -> Vec<Scene> {
    let base = count
        .min(DISTINCT_SCENES)
        .max(count.div_ceil(VARIANTS_PER_SCENE))
        .max(1);
    let profile = DatasetProfile::pascal().with_count(base);
    let dataset_seed = sub_seed(seed, 1);
    let rendered = crate::par_map(base, |i| {
        let img = generate_one(profile, dataset_seed, i);
        let mut rois = img.truth.all_regions();
        if rois.is_empty() {
            rois.push(Rect::new(160, 96, 176, 128));
        }
        Scene {
            image: img.image,
            rois,
        }
    });
    (0..count)
        .map(|i| variant(&rendered[i % base], i / base))
        .collect()
}

/// Variant `v` of a scene: mirror orientation `v % 4`, channel order
/// `v / 4`.
fn variant(s: &Scene, v: usize) -> Scene {
    let (h, vert, order) = (v & 1 == 1, v & 2 == 2, (v / 4) % 6);
    let (w, ht) = (s.image.width(), s.image.height());
    let image = RgbImage::from_fn(w, ht, |x, y| {
        let p = s.image.get(
            if h { w - 1 - x } else { x },
            if vert { ht - 1 - y } else { y },
        );
        let (r, g, b) = match order {
            0 => (p.r, p.g, p.b),
            1 => (p.r, p.b, p.g),
            2 => (p.g, p.r, p.b),
            3 => (p.g, p.b, p.r),
            4 => (p.b, p.r, p.g),
            _ => (p.b, p.g, p.r),
        };
        Rgb::new(r, g, b)
    });
    let rois = s
        .rois
        .iter()
        .map(|r| {
            Rect::new(
                if h { w - r.x - r.w } else { r.x },
                if vert { ht - r.y - r.h } else { r.y },
                r.w,
                r.h,
            )
        })
        .collect();
    Scene { image, rois }
}

/// The owner's key for a seed.
pub fn owner_key(seed: u64) -> OwnerKey {
    let mut bytes = [0u8; 32];
    let mut rng = Rng::new(sub_seed(seed, 2));
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    OwnerKey::from_seed(bytes)
}

/// Protect options for photo `image_id`: the paper's default profile, or
/// the transform-friendly one for photos receivers view through scaling.
pub fn options(image_id: u64, transform_friendly: bool) -> ProtectOptions {
    let opts = if transform_friendly {
        ProtectOptions::from_profile(PerturbProfile::transform_friendly())
    } else {
        ProtectOptions::default()
    };
    opts.with_image_id(image_id)
}

/// Protects every scene (image id = index).
pub fn protect_all(
    scenes: &[Scene],
    key: &OwnerKey,
    transform_friendly: bool,
) -> Vec<ProtectedImage> {
    crate::par_map(scenes.len(), |i| {
        let sc = &scenes[i];
        protect(
            &sc.image,
            &sc.rois,
            key,
            &options(i as u64, transform_friendly),
        )
        .expect("protecting a generated scene")
    })
}

/// Views a hot public page serves: cheap coefficient-domain views plus
/// one recompression and one thumbnail scale.
pub fn hot_views() -> Vec<Transformation> {
    vec![
        Transformation::Rotate90,
        Transformation::Rotate180,
        Transformation::FlipHorizontal,
        Transformation::Crop(Rect::new(64, 48, 320, 224)),
        Transformation::Recompress { quality: 60 },
        Transformation::Scale {
            width: 248,
            height: 164,
            filter: ScaleFilter::Bilinear,
        },
    ]
}

/// Views receivers request: 40 the server can serve in the coefficient
/// domain (rotations, flips, 25 block-aligned crops, 10 recompressions)
/// and 24 scales (55% to 124%) it must serve through pixels.
pub fn receive_views() -> Vec<Transformation> {
    let mut v = vec![
        Transformation::Rotate90,
        Transformation::Rotate180,
        Transformation::Rotate270,
        Transformation::FlipHorizontal,
        Transformation::FlipVertical,
    ];
    for i in 0..25u32 {
        v.push(Transformation::Crop(Rect::new(
            8 * (i % 5),
            8 * (i / 5),
            496 - 8 * (i + 4),
            328 - 8 * (i / 2 + 2),
        )));
    }
    for q in (40u8..90).step_by(5) {
        v.push(Transformation::Recompress { quality: q });
    }
    for i in 0..24u32 {
        let pct = 55 + 3 * i;
        v.push(Transformation::Scale {
            width: 496 * pct / 100,
            height: 328 * pct / 100,
            filter: ScaleFilter::Bilinear,
        });
    }
    v
}

/// FNV-1a, for cheap content fingerprints in checks and digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of an RGB image (dimensions and every pixel).
pub fn rgb_fingerprint(img: &RgbImage) -> u64 {
    let mut bytes = Vec::with_capacity(img.pixels().len() * 3 + 8);
    bytes.extend_from_slice(&img.width().to_le_bytes());
    bytes.extend_from_slice(&img.height().to_le_bytes());
    for p in img.pixels() {
        bytes.extend_from_slice(&[p.r, p.g, p.b]);
    }
    fnv64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(seed: u64) -> Vec<u8> {
        let scenes = scenes(seed, 3);
        let key = owner_key(seed);
        let mut out = Vec::new();
        for p in protect_all(&scenes, &key, false) {
            out.extend_from_slice(&p.bytes);
            out.extend_from_slice(&p.params.to_bytes());
        }
        let mut rng = Rng::new(sub_seed(seed, 9));
        for _ in 0..16 {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = digest(11);
        assert_eq!(a, digest(11), "same seed must give byte-identical inputs");
        assert_ne!(a, digest(12), "another seed must give other inputs");
    }

    #[test]
    fn variants_are_distinct_and_keep_rois_inside() {
        let s = scenes(5, 24);
        assert_eq!(s.len(), 24);
        for (i, a) in s.iter().enumerate() {
            for r in &a.rois {
                assert!(r.x + r.w <= 496 && r.y + r.h <= 328);
            }
            for b in &s[i + 1..] {
                assert_ne!(rgb_fingerprint(&a.image), rgb_fingerprint(&b.image));
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(50, 1.1);
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[49]);
    }
}
