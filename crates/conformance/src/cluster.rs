//! Multi-backend cluster conformance: the k-of-n Shamir layer must be
//! *unobservable* except in trust assumptions.
//!
//! For every (n, k) shape in the grid and every perturbation scheme:
//!
//! * **every** k-subset of backends reconstructs the protected JPEG and
//!   the transported grant **byte-exactly**;
//! * recovery through the reconstructed matrices is pixel-identical to
//!   single-PSP recovery with the same grant (coefficient-exact recovery
//!   composed with the same decoder ⇒ equal images);
//! * every (k−1)-subset fails loudly — no partial reconstruction;
//! * a corrupting backend inside a k-subset is detected (integrity tag)
//!   and turns into quorum failure instead of silent garbage;
//! * reconstruction still round-trips byte-exactly after a replace +
//!   re-share cycle (fresh randomness, bumped generation).

use puppies_core::{protect, OwnerKey, PrivacyLevel, ProtectOptions, Scheme};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::cluster::fault::Fault;
use puppies_psp::cluster::{ClusterConfig, ShardedPspCluster};
use puppies_psp::{PspConfig, PspServer, Receiver};

use crate::report::Report;

/// The (n, k) shapes the oracle sweeps: minimum redundancy (2,2), one
/// spare (3,2), and the paper-typical majority quorum (5,3).
const SHAPES: [(usize, usize); 3] = [(2, 2), (3, 2), (5, 3)];

fn schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("naive", Scheme::Naive),
        ("base", Scheme::Base),
        ("compression", Scheme::Compression),
        ("zero", Scheme::Zero),
    ]
}

fn fixture_image(seed: u32) -> RgbImage {
    RgbImage::from_fn(64, 48, |x, y| {
        Rgb::new(
            (30 + (x * 4 + y * 2 + seed) % 200) as u8,
            (40 + (x * 2 + y * 5 + seed * 3) % 190) as u8,
            (50 + (x * 3 + y + seed * 11) % 180) as u8,
        )
    })
}

/// All k-subsets of `0..n` (n ≤ 5 in the grid, so at most C(5,3) = 10).
fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

/// The cluster oracle (see module docs).
pub fn run_cluster() -> Report {
    let _span = puppies_obs::span("conformance.cluster.run", "conformance");
    let mut report = Report::new();

    for &(n, k) in &SHAPES {
        for (scheme_name, scheme) in schemes() {
            let tag = format!("cluster/{n}of{k}/{scheme_name}");
            let key = OwnerKey::from_seed([n as u8 * 16 + k as u8; 32]);
            let img = fixture_image(n as u32 * 100 + k as u32);
            let opts = ProtectOptions::new(scheme, PrivacyLevel::Medium).with_image_id(1);
            let protected = match protect(&img, &[Rect::new(16, 8, 24, 24)], &key, &opts) {
                Ok(p) => p,
                Err(e) => {
                    report.fail(format!("{tag}/protect"), format!("protect failed: {e}"));
                    continue;
                }
            };
            let grant = key.grant_rois(1, &[0]);

            let cfg = ClusterConfig::new(n, k).with_seed([0xD1; 32]);
            let cluster = ShardedPspCluster::new(cfg).expect("grid shapes are valid");
            let id = match cluster.upload(
                protected.bytes.clone(),
                protected.params.to_bytes(),
                &grant,
            ) {
                Ok(id) => id,
                Err(e) => {
                    report.fail(format!("{tag}/upload"), format!("upload failed: {e}"));
                    continue;
                }
            };

            // Oracle 1: every k-subset reconstructs byte-exactly.
            let mut subsets_ok = true;
            for subset in k_subsets(n, k) {
                let case = format!("{tag}/subset-{subset:?}");
                match cluster.reconstruct_from(id, &subset) {
                    Ok((g, bytes)) => {
                        if bytes != protected.bytes {
                            subsets_ok = false;
                            report.fail(
                                case,
                                format!(
                                    "bytes diverged: {} vs {} expected",
                                    bytes.len(),
                                    protected.bytes.len()
                                ),
                            );
                        } else if g.to_entries() != grant.to_entries() {
                            subsets_ok = false;
                            report.fail(case, "reconstructed grant diverged".to_string());
                        }
                    }
                    Err(e) => {
                        subsets_ok = false;
                        report.fail(case, format!("reconstruction failed: {e}"));
                    }
                }
            }
            if subsets_ok {
                report.pass(
                    format!("{tag}/all-k-subsets"),
                    Some(format!("{} subsets byte-exact", k_subsets(n, k).len())),
                );
            }

            // Oracle 2: recovery parity vs a single PSP with the same
            // grant (pixel-identical, both paths coefficient-exact).
            let single = PspServer::with_config(PspConfig::uncached());
            let sid = single
                .upload(protected.bytes.clone(), protected.params.to_bytes())
                .expect("single upload");
            let via_single = Receiver::with_grant(grant.clone()).fetch(&single, sid);
            let via_cluster = cluster.fetch(id);
            match (via_cluster, via_single) {
                (Ok(c), Ok(s)) if c == s => {
                    report.pass(format!("{tag}/recovery-parity"), None);
                }
                (Ok(_), Ok(_)) => {
                    report.fail(
                        format!("{tag}/recovery-parity"),
                        "cluster recovery != single-PSP recovery".to_string(),
                    );
                }
                (c, s) => {
                    report.fail(
                        format!("{tag}/recovery-parity"),
                        format!(
                            "fetch failed: cluster {:?}, single {:?}",
                            c.err().map(|e| e.to_string()),
                            s.err().map(|e| e.to_string())
                        ),
                    );
                }
            }

            // Oracle 3: k−1 shares must fail loudly.
            if k > 1 {
                let short: Vec<usize> = (0..k - 1).collect();
                match cluster.reconstruct_from(id, &short) {
                    Err(_) => report.pass(format!("{tag}/k-minus-1-fails"), None),
                    Ok(_) => report.fail(
                        format!("{tag}/k-minus-1-fails"),
                        "reconstruction succeeded below threshold".to_string(),
                    ),
                }
            }

            // Oracle 4: a corrupting backend inside an exactly-k subset
            // is rejected by the share tag → quorum failure, not junk.
            {
                let subset: Vec<usize> = (0..k).collect();
                cluster.fault(0, Fault::Corrupt);
                let out = cluster.reconstruct_from(id, &subset);
                cluster.clear_fault(0);
                match out {
                    Err(_) => report.pass(format!("{tag}/corrupt-share-detected"), None),
                    Ok((_, bytes)) => {
                        if bytes == protected.bytes {
                            report.fail(
                                format!("{tag}/corrupt-share-detected"),
                                "corrupted share went unnoticed".to_string(),
                            );
                        } else {
                            report.fail(
                                format!("{tag}/corrupt-share-detected"),
                                "corrupted share produced silent garbage".to_string(),
                            );
                        }
                    }
                }
            }

            // Oracle 5: replace + rebalance keeps the round-trip exact
            // under fresh share randomness.
            if n > k {
                let case = format!("{tag}/rebalance-roundtrip");
                cluster.replace_backend(n - 1).expect("valid index");
                if let Err(e) = cluster.rebalance(id) {
                    report.fail(case, format!("rebalance failed: {e}"));
                } else {
                    match cluster.reconstruct(id) {
                        Ok((_, bytes)) if bytes == protected.bytes => report.pass(case, None),
                        Ok(_) => report.fail(case, "bytes diverged after rebalance".to_string()),
                        Err(e) => report.fail(case, format!("reconstruction failed: {e}")),
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_subset_enumeration() {
        assert_eq!(k_subsets(5, 3).len(), 10);
        assert_eq!(k_subsets(3, 2), vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert_eq!(k_subsets(2, 2), vec![vec![0, 1]]);
    }

    #[test]
    fn cluster_suite_is_green() {
        let report = run_cluster();
        assert!(
            report.is_ok(),
            "cluster conformance failed:\n{:#?}",
            report.failures()
        );
    }
}
