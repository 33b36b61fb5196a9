//! Failure-injection integration test for the k-of-n cluster: kill and
//! corrupt up to n−k backends mid-workload (the in-process mirror of the
//! PR 6 kill -9 service gate) and assert every acknowledged upload still
//! reconstructs byte-identically — before, during, and after backend
//! replacement + rebalance.

use puppies_core::{protect, KeyGrant, OwnerKey, ProtectOptions, PublicParams};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::CoeffImage;
use puppies_psp::cluster::fault::Fault;
use puppies_psp::cluster::{ClusterConfig, ClusterPhotoId, ShardedPspCluster};
use puppies_psp::{PspConfig, PspServer};

fn photo(tag: u32) -> RgbImage {
    RgbImage::from_fn(96, 64, |x, y| {
        Rgb::new(
            (40 + (x * 2 + y + tag) % 150) as u8,
            (60 + (x + y * 3 + tag * 7) % 140) as u8,
            (50 + (x * 3 + y * 2 + tag * 13) % 160) as u8,
        )
    })
}

struct Uploaded {
    id: ClusterPhotoId,
    bytes: Vec<u8>,
    grant: KeyGrant,
}

fn upload_one(cluster: &ShardedPspCluster, key: &OwnerKey, image_id: u64, tag: u32) -> Uploaded {
    let img = photo(tag);
    let rois = [Rect::new(16, 8, 32, 32)];
    let opts = ProtectOptions::default().with_image_id(image_id);
    let protected = protect(&img, &rois, key, &opts).unwrap();
    let grant = key.grant_rois(image_id, &[0]);
    let id = cluster
        .upload(protected.bytes.clone(), protected.params.to_bytes(), &grant)
        .unwrap();
    Uploaded {
        id,
        bytes: protected.bytes,
        grant,
    }
}

fn assert_reconstructs(cluster: &ShardedPspCluster, up: &Uploaded, ctx: &str) {
    let (grant, bytes) = cluster.reconstruct(up.id).unwrap();
    assert_eq!(bytes, up.bytes, "bytes diverged: {ctx}");
    assert_eq!(
        grant.to_entries(),
        up.grant.to_entries(),
        "grant diverged: {ctx}"
    );
}

/// The headline gate: a 5-of-3 cluster loses its full fault budget
/// (one kill + one corruption = n−k = 2 backends) in the middle of a
/// workload, gets the dead node replaced, rebalances, and every
/// acknowledged upload reconstructs byte-identically at every stage.
#[test]
fn acknowledged_uploads_survive_n_minus_k_failures_and_rebalance() {
    let cfg = ClusterConfig::new(5, 3).with_seed([7u8; 32]);
    let cluster = ShardedPspCluster::new(cfg).unwrap();
    let key = OwnerKey::from_seed([21u8; 32]);

    // Phase 1: healthy uploads.
    let mut uploads: Vec<Uploaded> = (0..3)
        .map(|i| upload_one(&cluster, &key, i + 1, i as u32))
        .collect();

    // Phase 2: burn the whole fault budget mid-workload.
    cluster.fault(1, Fault::Kill);
    cluster.fault(3, Fault::Corrupt);

    // Every earlier ack still reconstructs from the 3 clean backends.
    for (i, up) in uploads.iter().enumerate() {
        assert_reconstructs(&cluster, up, &format!("upload {i} under 2 faults"));
    }

    // Uploads continue under failure: acks are still binding because the
    // quorum rule counts only healthy share stores.
    for i in 3..6 {
        uploads.push(upload_one(&cluster, &key, i + 1, i as u32));
    }
    for (i, up) in uploads.iter().enumerate() {
        assert_reconstructs(&cluster, up, &format!("upload {i} mid-failure"));
    }

    // Phase 3: replace the dead backend (fresh empty backend — its old
    // shares are gone) and heal the corruptor, then re-share everything.
    cluster.replace_backend(1).unwrap();
    cluster.clear_fault(3);
    let rebalanced = cluster.rebalance_all().unwrap();
    assert_eq!(rebalanced, uploads.len());

    // Phase 4: full fault tolerance is restored — a *different* pair of
    // backends can now fail and everything still reconstructs.
    cluster.fault(0, Fault::Kill);
    cluster.fault(4, Fault::Corrupt);
    for (i, up) in uploads.iter().enumerate() {
        assert_reconstructs(&cluster, up, &format!("upload {i} after rebalance"));
    }

    // One more failure (3 down > n−k) must fail loudly, not return junk.
    cluster.fault(2, Fault::Kill);
    assert!(cluster.reconstruct(uploads[0].id).is_err());
}

/// End-to-end recovery parity: the image fetched through the cluster
/// (reconstruct + local recovery) is pixel-identical to single-PSP
/// recovery with the same grant.
#[test]
fn cluster_fetch_matches_single_psp_recovery() {
    let cluster = ShardedPspCluster::new(ClusterConfig::new(4, 2)).unwrap();
    let single = PspServer::with_config(PspConfig::uncached());
    let key = OwnerKey::from_seed([33u8; 32]);

    let img = photo(99);
    let rois = [Rect::new(8, 8, 40, 24)];
    let opts = ProtectOptions::default().with_image_id(5);
    let protected = protect(&img, &rois, &key, &opts).unwrap();
    let grant = key.grant_rois(5, &[0]);

    let cid = cluster
        .upload(protected.bytes.clone(), protected.params.to_bytes(), &grant)
        .unwrap();
    let sid = single
        .upload(protected.bytes.clone(), protected.params.to_bytes())
        .unwrap();

    // Degrade to exactly k live backends before fetching.
    cluster.fault(0, Fault::Kill);
    cluster.fault(2, Fault::Corrupt);
    let via_cluster = cluster.fetch(cid).unwrap();

    let params = PublicParams::from_bytes(&single.download_params(sid).unwrap()).unwrap();
    let via_single =
        puppies_core::shadow::recover_transformed(&single.download(sid).unwrap(), &params, &grant)
            .unwrap();

    assert_eq!(via_cluster, via_single, "cluster vs single-PSP recovery");
    // Sanity: recovery actually recovered the protected region.
    let reference = CoeffImage::from_rgb(&img, 75).to_rgb();
    assert_eq!(via_cluster, reference);
}

/// Concurrency: uploads, reconstructs, and fault flips from many threads
/// never corrupt an acknowledged upload.
#[test]
fn concurrent_workload_with_fault_flips() {
    use std::sync::Arc;
    let cluster = Arc::new(ShardedPspCluster::new(ClusterConfig::new(5, 3)).unwrap());
    let key = OwnerKey::from_seed([55u8; 32]);

    // Seed a few uploads, remembering ground truth.
    let uploads: Arc<Vec<Uploaded>> = Arc::new(
        (0..4)
            .map(|i| upload_one(&cluster, &key, i + 1, 100 + i as u32))
            .collect(),
    );

    let mut handles = Vec::new();
    // Chaos thread: flips backend 0 in and out of Kill while backend 4
    // stays Corrupt throughout. However a reconstruct's per-backend
    // samples interleave with the flips, at most backends {0, 4} are
    // unusable — never below the k = 3 clean backends {1, 2, 3}.
    cluster.fault(4, Fault::Corrupt);
    {
        let c = cluster.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..40 {
                c.fault(0, Fault::Kill);
                std::thread::yield_now();
                c.clear_fault(0);
            }
        }));
    }
    // Reader threads: every reconstruction must be exact, every time.
    for t in 0..3 {
        let c = cluster.clone();
        let ups = uploads.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..30 {
                let up = &ups[(t + round) % ups.len()];
                let (_, bytes) = c.reconstruct(up.id).unwrap();
                assert_eq!(bytes, up.bytes, "reader {t} round {round}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
