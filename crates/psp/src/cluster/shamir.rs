//! Byte-wise Shamir secret sharing over GF(2⁸).
//!
//! Each secret byte `s` becomes the constant term of an independent
//! random polynomial `p(x) = s + c₁x + … + c_{k−1}x^{k−1}` with
//! coefficients drawn from a ChaCha20 stream; share `i` (x-coordinate
//! `i`, 1-based so x = 0 never leaks the secret) stores `p(i)` for every
//! byte position. Any `k` distinct shares reconstruct `s` by Lagrange
//! interpolation at x = 0; any `k−1` shares are jointly uniform over the
//! payload space — the property the `puppies-attacks` leakage oracles
//! measure instead of assuming.
//!
//! Shares carry a self-describing header (index, threshold, total,
//! generation) plus a SHA-256 integrity tag over a domain string, the
//! header, and the payload, so a corrupted or spliced share is rejected
//! before it can poison interpolation. `generation` is bumped by the
//! cluster's re-share protocol so a stale share from a replaced backend
//! cannot be mixed with fresh ones (fresh randomness ⇒ mixing epochs
//! reconstructs garbage; the tag makes that failure loud instead).

use super::gf256;
use crate::sha256::{ct_eq, sha256_concat};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::fmt;

/// Domain-separation prefix for share integrity tags.
const TAG_DOMAIN: &[u8] = b"puppies-sis-share-v1";
/// Magic prefix for the share wire encoding.
const SHARE_MAGIC: &[u8; 4] = b"PSH1";

/// Errors from the Shamir layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShamirError {
    /// (n, k) outside 1 ≤ k ≤ n ≤ 255.
    BadParameters { n: usize, k: usize },
    /// Fewer valid, distinct shares than the threshold requires.
    NotEnoughShares { have: usize, need: usize },
    /// A share failed its integrity tag (index recorded).
    BadTag { index: u8 },
    /// Shares disagree on header fields (length, threshold, generation).
    Inconsistent(String),
    /// A serialized share could not be decoded.
    Malformed(String),
}

impl fmt::Display for ShamirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShamirError::BadParameters { n, k } => {
                write!(f, "bad (n, k) = ({n}, {k}): need 1 <= k <= n <= 255")
            }
            ShamirError::NotEnoughShares { have, need } => {
                write!(f, "not enough valid shares: have {have}, need {need}")
            }
            ShamirError::BadTag { index } => {
                write!(f, "share {index} failed its integrity tag")
            }
            ShamirError::Inconsistent(m) => write!(f, "inconsistent share set: {m}"),
            ShamirError::Malformed(m) => write!(f, "malformed share: {m}"),
        }
    }
}

impl std::error::Error for ShamirError {}

/// One share of a split secret. `index` is the GF(256) x-coordinate
/// (1-based); `payload[j]` is the polynomial for secret byte `j`
/// evaluated at `index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Share {
    /// x-coordinate, in `1..=total`.
    pub index: u8,
    /// Reconstruction threshold k.
    pub threshold: u8,
    /// Total shares n issued in this generation.
    pub total: u8,
    /// Re-share epoch; mixing generations is rejected.
    pub generation: u16,
    /// Per-byte polynomial evaluations.
    pub payload: Vec<u8>,
    /// SHA-256 over domain ‖ header ‖ payload.
    pub tag: [u8; 32],
}

fn share_tag(index: u8, threshold: u8, total: u8, generation: u16, payload: &[u8]) -> [u8; 32] {
    let header = [
        index,
        threshold,
        total,
        (generation >> 8) as u8,
        generation as u8,
    ];
    sha256_concat(&[TAG_DOMAIN, &header, payload])
}

impl Share {
    /// Builds a share with a freshly computed integrity tag. The tag is
    /// a public function of the header and payload (it authenticates
    /// *integrity*, not origin), so anyone — including an adversary
    /// hypothesizing a missing share — can construct a verifying share;
    /// what they cannot do is make k−1 real shares constrain the secret.
    pub fn new(index: u8, threshold: u8, total: u8, generation: u16, payload: Vec<u8>) -> Share {
        let tag = share_tag(index, threshold, total, generation, &payload);
        Share {
            index,
            threshold,
            total,
            generation,
            payload,
            tag,
        }
    }

    /// True when the integrity tag matches the header + payload
    /// (constant-time compare).
    pub fn verify(&self) -> bool {
        let want = share_tag(
            self.index,
            self.threshold,
            self.total,
            self.generation,
            &self.payload,
        );
        ct_eq(&want, &self.tag)
    }

    /// Serializes to the `PSH1` wire form:
    /// magic ‖ index ‖ k ‖ n ‖ generation(be16) ‖ len(be32) ‖ payload ‖ tag.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 5 + 4 + self.payload.len() + 32);
        out.extend_from_slice(SHARE_MAGIC);
        out.push(self.index);
        out.push(self.threshold);
        out.push(self.total);
        out.extend_from_slice(&self.generation.to_be_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.tag);
        out
    }

    /// Parses the `PSH1` wire form. Does not verify the tag — callers
    /// decide whether to [`Share::verify`] (reconstruct always does).
    pub fn from_bytes(bytes: &[u8]) -> Result<Share, ShamirError> {
        let err = |m: &str| ShamirError::Malformed(m.to_string());
        if bytes.len() < 4 + 5 + 4 + 32 {
            return Err(err("truncated header"));
        }
        if &bytes[..4] != SHARE_MAGIC {
            return Err(err("bad magic"));
        }
        let index = bytes[4];
        let threshold = bytes[5];
        let total = bytes[6];
        let generation = u16::from_be_bytes([bytes[7], bytes[8]]);
        let len = u32::from_be_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]) as usize;
        let body = &bytes[13..];
        if body.len() != len + 32 {
            return Err(err("length field does not match body"));
        }
        let payload = body[..len].to_vec();
        let mut tag = [0u8; 32];
        tag.copy_from_slice(&body[len..]);
        Ok(Share {
            index,
            threshold,
            total,
            generation,
            payload,
            tag,
        })
    }
}

/// Splits `secret` into `n` shares with threshold `k` at `generation`,
/// drawing polynomial coefficients from ChaCha20 seeded with `seed`.
///
/// # Errors
/// Fails on (n, k) outside 1 ≤ k ≤ n ≤ 255.
pub fn split(
    secret: &[u8],
    n: usize,
    k: usize,
    generation: u16,
    seed: [u8; 32],
) -> Result<Vec<Share>, ShamirError> {
    if k == 0 || n == 0 || k > n || n > 255 {
        return Err(ShamirError::BadParameters { n, k });
    }
    let mut rng = ChaCha20Rng::from_seed(seed);
    // coeffs[d] holds the degree-(d+1) coefficient for every byte
    // position; the constant term is the secret itself.
    let mut coeffs: Vec<Vec<u8>> = Vec::with_capacity(k - 1);
    for _ in 1..k {
        let mut row = vec![0u8; secret.len()];
        rng.fill_bytes(&mut row);
        coeffs.push(row);
    }
    let mut shares = Vec::with_capacity(n);
    for i in 1..=n {
        let x = i as u8;
        // Horner over the degree axis: p(x) = s + x(c₁ + x(c₂ + …)).
        let mut payload = coeffs.last().cloned().unwrap_or_else(|| secret.to_vec());
        if !coeffs.is_empty() {
            for row in coeffs.iter().rev().skip(1) {
                for (acc, &c) in payload.iter_mut().zip(row.iter()) {
                    *acc = gf256::mul(*acc, x) ^ c;
                }
            }
            for (acc, &s) in payload.iter_mut().zip(secret.iter()) {
                *acc = gf256::mul(*acc, x) ^ s;
            }
        }
        let tag = share_tag(x, k as u8, n as u8, generation, &payload);
        shares.push(Share {
            index: x,
            threshold: k as u8,
            total: n as u8,
            generation,
            payload,
            tag,
        });
    }
    Ok(shares)
}

/// Reconstructs the secret from any ≥ k shares of one generation.
///
/// Every share is tag-verified first; duplicates (same index) beyond the
/// first are ignored; mixed generations or mismatched headers are
/// rejected rather than silently interpolated.
///
/// # Errors
/// Fails on a bad tag, inconsistent headers, or fewer than k distinct
/// valid shares.
pub fn reconstruct(shares: &[Share]) -> Result<Vec<u8>, ShamirError> {
    let first = shares
        .first()
        .ok_or(ShamirError::NotEnoughShares { have: 0, need: 1 })?;
    let k = first.threshold as usize;
    // Strict pass over EVERY supplied share first: a corrupt or
    // inconsistent share anywhere in the set is rejected even when a
    // clean quorum exists — silently dropping it would let a corrupting
    // backend hide inside an otherwise-healthy fetch.
    for share in shares {
        if !share.verify() {
            return Err(ShamirError::BadTag { index: share.index });
        }
        if share.threshold != first.threshold
            || share.total != first.total
            || share.generation != first.generation
            || share.payload.len() != first.payload.len()
        {
            return Err(ShamirError::Inconsistent(format!(
                "share {} disagrees with share {} on header/length",
                share.index, first.index
            )));
        }
        if share.index == 0 || share.index > first.total {
            return Err(ShamirError::Inconsistent(format!(
                "share index {} outside 1..={}",
                share.index, first.total
            )));
        }
    }
    let mut picked: Vec<&Share> = Vec::with_capacity(k);
    for share in shares {
        if picked.iter().all(|p| p.index != share.index) {
            picked.push(share);
        }
        if picked.len() == k {
            break;
        }
    }
    if picked.len() < k {
        return Err(ShamirError::NotEnoughShares {
            have: picked.len(),
            need: k,
        });
    }

    // Lagrange basis at x = 0: wᵢ = Π_{j≠i} xⱼ / (xⱼ − xᵢ). In GF(2⁸)
    // subtraction is XOR, so the denominator is xⱼ ^ xᵢ (nonzero because
    // indices are distinct). Weights are computed once, then applied
    // per byte.
    let mut weights = Vec::with_capacity(k);
    for (i, si) in picked.iter().enumerate() {
        let mut num = 1u8;
        let mut den = 1u8;
        for (j, sj) in picked.iter().enumerate() {
            if i == j {
                continue;
            }
            num = gf256::mul(num, sj.index);
            den = gf256::mul(den, sj.index ^ si.index);
        }
        weights.push(gf256::mul(num, gf256::inv(den)));
    }

    let len = first.payload.len();
    let mut secret = vec![0u8; len];
    for (w, share) in weights.iter().zip(picked.iter()) {
        for (out, &b) in secret.iter_mut().zip(share.payload.iter()) {
            *out ^= gf256::mul(*w, b);
        }
    }
    Ok(secret)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(tag: u8) -> [u8; 32] {
        let mut s = [0u8; 32];
        s[0] = tag;
        s[31] = 0xA5;
        s
    }

    #[test]
    fn roundtrip_all_k_subsets_3_of_5() {
        let secret = b"private perturbation matrices".to_vec();
        let shares = split(&secret, 5, 3, 0, seed(1)).unwrap();
        assert_eq!(shares.len(), 5);
        for a in 0..5 {
            for b in (a + 1)..5 {
                for c in (b + 1)..5 {
                    let subset = [shares[a].clone(), shares[b].clone(), shares[c].clone()];
                    assert_eq!(reconstruct(&subset).unwrap(), secret, "{a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn k_minus_one_shares_fail_loudly() {
        let shares = split(b"secret", 4, 3, 0, seed(2)).unwrap();
        let err = reconstruct(&shares[..2]).unwrap_err();
        assert_eq!(err, ShamirError::NotEnoughShares { have: 2, need: 3 });
    }

    #[test]
    fn duplicate_indices_do_not_satisfy_threshold() {
        let shares = split(b"secret", 4, 3, 0, seed(3)).unwrap();
        let dupes = [shares[0].clone(), shares[0].clone(), shares[1].clone()];
        let err = reconstruct(&dupes).unwrap_err();
        assert_eq!(err, ShamirError::NotEnoughShares { have: 2, need: 3 });
    }

    #[test]
    fn corrupted_payload_is_rejected_by_tag() {
        let mut shares = split(b"integrity matters", 3, 2, 0, seed(4)).unwrap();
        shares[1].payload[0] ^= 0x40;
        let err = reconstruct(&shares).unwrap_err();
        assert_eq!(err, ShamirError::BadTag { index: 2 });
    }

    #[test]
    fn mixed_generations_are_rejected() {
        let g0 = split(b"epoch secret", 3, 2, 0, seed(5)).unwrap();
        let g1 = split(b"epoch secret", 3, 2, 1, seed(6)).unwrap();
        let mixed = [g0[0].clone(), g1[1].clone()];
        assert!(matches!(
            reconstruct(&mixed).unwrap_err(),
            ShamirError::Inconsistent(_)
        ));
    }

    #[test]
    fn k_equals_one_replicates() {
        let shares = split(b"public", 3, 1, 0, seed(7)).unwrap();
        for s in &shares {
            assert_eq!(s.payload, b"public");
            assert_eq!(reconstruct(std::slice::from_ref(s)).unwrap(), b"public");
        }
    }

    #[test]
    fn empty_secret_roundtrips() {
        let shares = split(&[], 3, 2, 0, seed(8)).unwrap();
        assert_eq!(reconstruct(&shares[1..]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn wire_roundtrip() {
        let shares = split(b"wire form", 3, 2, 7, seed(9)).unwrap();
        for s in &shares {
            let back = Share::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(&back, s);
            assert!(back.verify());
        }
    }

    #[test]
    fn wire_rejects_truncation_and_bad_magic() {
        let bytes = split(b"x", 2, 2, 0, seed(10)).unwrap()[0].to_bytes();
        assert!(Share::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'Q';
        assert!(Share::from_bytes(&bad).is_err());
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(split(b"s", 0, 0, 0, seed(11)).is_err());
        assert!(split(b"s", 2, 3, 0, seed(11)).is_err());
        assert!(split(b"s", 256, 2, 0, seed(11)).is_err());
    }
}
