//! Multi-backend PSP: k-of-n Shamir-shared storage (PuPPIeS-SIS).
//!
//! PUPPIES assumes one semi-honest PSP; if that party is compromised the
//! privacy argument collapses. [`ShardedPspCluster`] removes the single
//! point of trust the way P3 splits secret content away from the
//! provider, but thresholded: the *secret* material of each upload — the
//! serialized [`KeyGrant`] (private perturbation matrices) together with
//! the protected JPEG payload — is framed, Shamir-split over GF(2⁸)
//! ([`shamir`]), and one share is stored on each of `n` independent
//! simulated backends. A backend is a plain share map from (upload id,
//! generation) to the share's wire bytes: it holds opaque shares and
//! nothing else. Public parameters stay public and are kept once, by the
//! cluster. Any `k` backends reconstruct the upload
//! byte-exactly; any `k−1` learn nothing (information-theoretically — the
//! `puppies-attacks` leakage oracles measure this rather than assume it).
//!
//! Because the perturbed image itself is inside the split secret, a
//! cluster backend never sees even the perturbed pixels — strictly less
//! than the single-PSP threat model. The price, as with P3, is that
//! backends cannot apply server-side transformations; receivers
//! reconstruct and recover locally. DESIGN.md lays out the trade.
//!
//! Failure injection ([`fault`]) arms per-backend Kill/Corrupt/Delay
//! faults consulted on every share store/fetch, and
//! [`ShardedPspCluster::replace_backend`] + `rebalance` re-share with
//! fresh randomness under a bumped generation so replaced capacity heals
//! and stale shares can never be mixed into a fresh quorum. A failed
//! upload or rebalance removes the shares it wrote, and a committed
//! rebalance removes the superseded generation from every live backend.

pub mod fault;
pub mod gf256;
pub mod shamir;

use crate::sha256::sha256_concat;
use crate::{PspError, Result};
use fault::{Fault, FaultOutcome, FaultPlan};
use parking_lot::{Mutex, RwLock};
use puppies_core::parallel;
use puppies_core::{KeyGrant, PublicParams};
use puppies_image::RgbImage;
use shamir::Share;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of an upload in the cluster; every backend keys the
/// upload's share by this id and the share's generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterPhotoId(pub u64);

/// Cluster shape and split seed.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of backends (shares issued per upload), 1 ..= 255.
    pub n: usize,
    /// Reconstruction threshold, 1 ..= n.
    pub k: usize,
    /// Root seed for split randomness (per-upload seeds are derived by
    /// hashing this with the upload id, generation, and a nonce).
    pub seed: [u8; 32],
}

impl ClusterConfig {
    /// A (n, k) cluster with a fixed seed.
    pub fn new(n: usize, k: usize) -> Self {
        ClusterConfig {
            n,
            k,
            seed: [0x5C; 32],
        }
    }

    /// Replaces the split-randomness seed.
    pub fn with_seed(mut self, seed: [u8; 32]) -> Self {
        self.seed = seed;
        self
    }
}

/// Book-keeping for one cluster upload.
#[derive(Debug)]
struct UploadMeta {
    /// The upload's public parameters (public by construction); backends
    /// store shares only.
    params: std::sync::Arc<[u8]>,
    /// Current share generation; bumped by every rebalance.
    generation: u16,
    /// SHA-256 of the framed secret, checked after reconstruction.
    secret_sha: [u8; 32],
}

/// One simulated backend: the wire bytes of each share it holds, keyed
/// by (upload id, generation).
type ShareMap = HashMap<(u64, u16), Vec<u8>>;

/// A k-of-n cluster of simulated share backends with failure injection.
///
/// All methods take `&self`; internal state is lock-protected so tests
/// can drive uploads, faults, and rebalances from many threads.
pub struct ShardedPspCluster {
    config: ClusterConfig,
    backends: Vec<RwLock<ShareMap>>,
    faults: FaultPlan,
    uploads: RwLock<HashMap<u64, UploadMeta>>,
    /// Serializes rebalances: two re-shares of one upload would write
    /// the same (id, generation) keys with different splits.
    rebalancing: Mutex<()>,
    next_id: AtomicU64,
    split_nonce: AtomicU64,
}

impl std::fmt::Debug for ShardedPspCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPspCluster")
            .field("n", &self.config.n)
            .field("k", &self.config.k)
            .field("uploads", &self.uploads.read().len())
            .finish()
    }
}

fn cluster_err(msg: impl Into<String>) -> PspError {
    PspError::Cluster(msg.into())
}

/// Flips one byte of a share's wire form: what a corrupting backend does
/// in flight, caught by the share's integrity tag.
fn mangle(wire: &mut [u8]) {
    let mid = wire.len() / 2;
    wire[mid] ^= 0x01;
}

/// Frames (grant, image bytes) into the secret buffer that gets split:
/// `len(grant) be32 ‖ grant ‖ len(bytes) be32 ‖ bytes`.
fn frame_secret(grant: &KeyGrant, bytes: &[u8]) -> Vec<u8> {
    let grant_bytes = crate::channel::encode_grant(grant);
    let mut out = Vec::with_capacity(8 + grant_bytes.len() + bytes.len());
    out.extend_from_slice(&(grant_bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&grant_bytes);
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Inverse of [`frame_secret`].
fn unframe_secret(secret: &[u8]) -> Result<(KeyGrant, Vec<u8>)> {
    let take = |buf: &[u8]| -> Result<(Vec<u8>, usize)> {
        if buf.len() < 4 {
            return Err(cluster_err("reconstructed secret truncated"));
        }
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if buf.len() < 4 + len {
            return Err(cluster_err("reconstructed secret truncated"));
        }
        Ok((buf[4..4 + len].to_vec(), 4 + len))
    };
    let (grant_bytes, used) = take(secret)?;
    let (image_bytes, used2) = take(&secret[used..])?;
    if used + used2 != secret.len() {
        return Err(cluster_err("reconstructed secret has trailing bytes"));
    }
    let grant = crate::channel::decode_grant(&grant_bytes)?;
    Ok((grant, image_bytes))
}

impl ShardedPspCluster {
    /// Builds an (n, k) cluster of empty backends.
    ///
    /// # Errors
    /// Fails on (n, k) outside 1 ≤ k ≤ n ≤ 255.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        if config.k == 0 || config.n == 0 || config.k > config.n || config.n > 255 {
            return Err(cluster_err(format!(
                "bad cluster shape (n = {}, k = {}): need 1 <= k <= n <= 255",
                config.n, config.k
            )));
        }
        Ok(ShardedPspCluster {
            faults: FaultPlan::healthy(config.n),
            backends: (0..config.n).map(|_| RwLock::default()).collect(),
            config,
            uploads: RwLock::new(HashMap::new()),
            rebalancing: Mutex::new(()),
            next_id: AtomicU64::new(1),
            split_nonce: AtomicU64::new(0),
        })
    }

    /// Number of uploads currently tracked.
    pub fn upload_count(&self) -> usize {
        self.uploads.read().len()
    }

    /// Arms a fault on one backend (test/chaos harness).
    pub fn fault(&self, backend: usize, fault: Fault) {
        self.faults.set(backend, fault);
    }

    /// Heals one backend's fault slot.
    pub fn clear_fault(&self, backend: usize) {
        self.faults.clear(backend);
    }

    fn derive_split_seed(&self, id: u64, generation: u16) -> [u8; 32] {
        let nonce = self.split_nonce.fetch_add(1, Ordering::Relaxed);
        sha256_concat(&[
            b"puppies-sis-split-v1",
            &self.config.seed,
            &id.to_be_bytes(),
            &generation.to_be_bytes(),
            &nonce.to_be_bytes(),
        ])
    }

    /// Splits `secret` at `generation` and stores one share per backend
    /// under `(id, generation)`, honoring armed faults. Returns how many
    /// shares were stored *healthily* (corrupting backends store mangled
    /// bytes, which cannot count toward a reconstruction quorum).
    fn store_shares(&self, id: u64, secret: &[u8], generation: u16) -> Result<usize> {
        let seed = self.derive_split_seed(id, generation);
        let shares = shamir::split(secret, self.config.n, self.config.k, generation, seed)
            .map_err(|e| cluster_err(e.to_string()))?;
        // Worker threads have their own span stacks, so each backend call
        // parents itself explicitly to keep the trace tree connected.
        let parent = puppies_obs::current_span_id();
        let healthy = parallel::current().map_indexed(self.config.n, |i| {
            let _span = puppies_obs::span_with_parent("cluster.backend.store", "cluster", parent);
            let outcome = self.faults.apply(i);
            if outcome == FaultOutcome::Dead {
                return false;
            }
            let mut wire = shares[i].to_bytes();
            if outcome == FaultOutcome::Corrupting {
                mangle(&mut wire);
            }
            self.backends[i].write().insert((id, generation), wire);
            outcome == FaultOutcome::Healthy
        });
        Ok(healthy.into_iter().filter(|&h| h).count())
    }

    /// Removes every share of `(id, generation)` from the backends that
    /// are not dead; a killed backend keeps whatever it held.
    fn drop_shares(&self, id: u64, generation: u16) {
        for (i, backend) in self.backends.iter().enumerate() {
            if self.faults.get(i) != Some(Fault::Kill) {
                backend.write().remove(&(id, generation));
            }
        }
    }

    /// Uploads a protected photo: frames (grant ‖ bytes) as the secret,
    /// splits it k-of-n, and stores one share per live backend. Public
    /// `params` stay with the cluster, not the backends. The upload is acknowledged only when at
    /// least k shares were stored on healthy backends — an ack therefore
    /// guarantees reconstructability.
    ///
    /// # Errors
    /// Fails when fewer than k backends accepted a clean share.
    pub fn upload(
        &self,
        bytes: Vec<u8>,
        params: Vec<u8>,
        grant: &KeyGrant,
    ) -> Result<ClusterPhotoId> {
        let _span = puppies_obs::span("cluster.upload", "psp");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let secret = frame_secret(grant, &bytes);
        let secret_sha = crate::sha256::sha256(&secret);
        let healthy = self.store_shares(id, &secret, 0)?;
        if healthy < self.config.k {
            self.drop_shares(id, 0);
            puppies_obs::counted!("cluster.upload_rejected");
            return Err(cluster_err(format!(
                "quorum failed: {healthy} healthy share stores < k = {}",
                self.config.k
            )));
        }
        self.uploads.write().insert(
            id,
            UploadMeta {
                params: params.into(),
                generation: 0,
                secret_sha,
            },
        );
        puppies_obs::counted!("cluster.uploads");
        Ok(ClusterPhotoId(id))
    }

    /// Public parameters for an upload (no backend round-trip — params
    /// are public and cluster-held).
    ///
    /// # Errors
    /// Fails on unknown ids.
    pub fn download_params(&self, id: ClusterPhotoId) -> Result<std::sync::Arc<[u8]>> {
        self.uploads
            .read()
            .get(&id.0)
            .map(|m| m.params.clone())
            .ok_or_else(|| cluster_err(format!("unknown cluster photo {}", id.0)))
    }

    /// Fetches the current-generation share held by `backend` for `id`,
    /// honoring armed faults. `Ok(None)` means the backend has no usable
    /// share (dead, no share of that generation, corrupted, or stale).
    fn fetch_share(&self, id: u64, backend: usize, generation: u16) -> Option<Share> {
        let outcome = self.faults.apply(backend);
        if outcome == FaultOutcome::Dead {
            return None;
        }
        let mut wire = self.backends[backend]
            .read()
            .get(&(id, generation))?
            .clone();
        if outcome == FaultOutcome::Corrupting {
            mangle(&mut wire);
        }
        let share = Share::from_bytes(&wire).ok()?;
        // Tag verification rejects corrupted shares; the generation check
        // rejects stale shares surviving on a backend that missed a
        // rebalance. Both look like "no share" to the quorum count.
        if !share.verify() || share.generation != generation {
            puppies_obs::counted!("cluster.share_rejected");
            return None;
        }
        Some(share)
    }

    /// Reconstructs the framed secret from the given backend subset,
    /// verifying the stored SHA-256 before returning.
    fn reconstruct_secret(&self, id: ClusterPhotoId, subset: &[usize]) -> Result<Vec<u8>> {
        let (generation, secret_sha) = {
            let uploads = self.uploads.read();
            let meta = uploads
                .get(&id.0)
                .ok_or_else(|| cluster_err(format!("unknown cluster photo {}", id.0)))?;
            (meta.generation, meta.secret_sha)
        };
        let parent = puppies_obs::current_span_id();
        let shares: Vec<Share> = parallel::current()
            .map_indexed(subset.len(), |j| {
                let _span =
                    puppies_obs::span_with_parent("cluster.backend.fetch", "cluster", parent);
                let b = subset[j];
                if b >= self.config.n {
                    return None;
                }
                self.fetch_share(id.0, b, generation)
            })
            .into_iter()
            .flatten()
            .collect();
        if shares.len() < self.config.k {
            return Err(cluster_err(format!(
                "only {} usable shares from {} backends, need k = {}",
                shares.len(),
                subset.len(),
                self.config.k
            )));
        }
        let secret = shamir::reconstruct(&shares).map_err(|e| cluster_err(e.to_string()))?;
        if crate::sha256::sha256(&secret) != secret_sha {
            return Err(cluster_err("reconstructed secret failed its digest"));
        }
        Ok(secret)
    }

    /// Reconstructs (grant, protected bytes) using every live backend.
    ///
    /// # Errors
    /// Fails when fewer than k usable shares are reachable.
    pub fn reconstruct(&self, id: ClusterPhotoId) -> Result<(KeyGrant, Vec<u8>)> {
        let all: Vec<usize> = (0..self.config.n).collect();
        self.reconstruct_from(id, &all)
    }

    /// Reconstructs (grant, protected bytes) from an explicit backend
    /// subset — the conformance oracle drives every k-subset through
    /// this.
    ///
    /// # Errors
    /// Fails when the subset yields fewer than k usable shares.
    pub fn reconstruct_from(
        &self,
        id: ClusterPhotoId,
        subset: &[usize],
    ) -> Result<(KeyGrant, Vec<u8>)> {
        let _span = puppies_obs::span("cluster.reconstruct", "psp");
        let secret = self.reconstruct_secret(id, subset)?;
        unframe_secret(&secret)
    }

    /// Full receiver path: reconstruct from any k live backends, then
    /// recover locally through the reconstructed matrices (cluster
    /// backends cannot transform — see the module docs).
    ///
    /// # Errors
    /// Fails on quorum loss or undecodable reconstruction.
    pub fn fetch(&self, id: ClusterPhotoId) -> Result<RgbImage> {
        let (grant, bytes) = self.reconstruct(id)?;
        let params = PublicParams::from_bytes(&self.download_params(id)?)?;
        Ok(puppies_core::shadow::recover_transformed(
            &bytes, &params, &grant,
        )?)
    }

    /// Swaps backend `i` for an empty one (simulating a node
    /// replacement): clears its share map and its fault slot. Until
    /// [`Self::rebalance_all`] runs, uploads tolerate one fewer failure.
    pub fn replace_backend(&self, i: usize) -> Result<()> {
        if i >= self.config.n {
            return Err(cluster_err(format!("no backend {i}")));
        }
        self.backends[i].write().clear();
        self.faults.clear(i);
        puppies_obs::counted!("cluster.backend_replaced");
        Ok(())
    }

    /// Re-shares one upload: reconstructs the secret from the current
    /// quorum, splits it again with fresh randomness under generation+1,
    /// and stores the new shares on every live backend. Once the new
    /// generation is committed, the old one is removed from every live
    /// backend; a backend that was dead through the rebalance keeps its
    /// stale shares, which no fetch of the new generation can see.
    ///
    /// # Errors
    /// Fails when the current quorum cannot reconstruct, or fewer than k
    /// healthy backends accept the new shares. A failed rebalance removes
    /// the shares it wrote and leaves the old generation readable.
    pub fn rebalance(&self, id: ClusterPhotoId) -> Result<()> {
        let _span = puppies_obs::span("cluster.rebalance", "psp");
        let _serial = self.rebalancing.lock();
        let secret = {
            let all: Vec<usize> = (0..self.config.n).collect();
            self.reconstruct_secret(id, &all)?
        };
        let old = self
            .uploads
            .read()
            .get(&id.0)
            .ok_or_else(|| cluster_err(format!("unknown cluster photo {}", id.0)))?
            .generation;
        let generation = old
            .checked_add(1)
            .ok_or_else(|| cluster_err("re-share generation exhausted (u16 wrapped)"))?;
        let healthy = self.store_shares(id.0, &secret, generation)?;
        if healthy < self.config.k {
            self.drop_shares(id.0, generation);
            return Err(cluster_err(format!(
                "rebalance quorum failed: {healthy} healthy share stores < k = {}",
                self.config.k
            )));
        }
        self.uploads
            .write()
            .get_mut(&id.0)
            .ok_or_else(|| cluster_err(format!("unknown cluster photo {}", id.0)))?
            .generation = generation;
        self.drop_shares(id.0, old);
        puppies_obs::counted!("cluster.rebalances");
        Ok(())
    }

    /// Rebalances every tracked upload; returns how many succeeded.
    ///
    /// # Errors
    /// Fails on the first upload whose quorum cannot reconstruct.
    pub fn rebalance_all(&self) -> Result<usize> {
        let ids: Vec<u64> = {
            let mut v: Vec<u64> = self.uploads.read().keys().copied().collect();
            v.sort_unstable();
            v
        };
        for id in &ids {
            self.rebalance(ClusterPhotoId(*id))?;
        }
        Ok(ids.len())
    }

    /// Raw current-generation shares reachable for an upload, keyed by
    /// backend index — the attacks crate builds its (k−1)-subset leakage
    /// probes from this view.
    ///
    /// # Errors
    /// Fails on unknown ids.
    pub fn visible_shares(&self, id: ClusterPhotoId) -> Result<Vec<(usize, Share)>> {
        let generation = {
            let uploads = self.uploads.read();
            uploads
                .get(&id.0)
                .ok_or_else(|| cluster_err(format!("unknown cluster photo {}", id.0)))?
                .generation
        };
        Ok((0..self.config.n)
            .filter_map(|b| self.fetch_share(id.0, b, generation).map(|s| (b, s)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_core::OwnerKey;

    fn grant() -> KeyGrant {
        OwnerKey::from_seed([9u8; 32]).grant_rois(1, &[0])
    }

    fn cluster(n: usize, k: usize) -> ShardedPspCluster {
        ShardedPspCluster::new(ClusterConfig::new(n, k)).unwrap()
    }

    #[test]
    fn upload_reconstruct_roundtrip() {
        let c = cluster(5, 3);
        let bytes = vec![7u8; 512];
        let id = c.upload(bytes.clone(), vec![1, 2, 3], &grant()).unwrap();
        let (g, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, bytes);
        assert_eq!(g.to_entries(), grant().to_entries());
        assert_eq!(&*c.download_params(id).unwrap(), &[1, 2, 3][..]);
    }

    #[test]
    fn survives_n_minus_k_kills() {
        let c = cluster(5, 3);
        let id = c.upload(vec![42u8; 256], vec![], &grant()).unwrap();
        c.fault(0, Fault::Kill);
        c.fault(3, Fault::Corrupt);
        let (_, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, vec![42u8; 256]);
    }

    #[test]
    fn loses_quorum_below_k() {
        let c = cluster(3, 2);
        let id = c.upload(vec![1u8; 64], vec![], &grant()).unwrap();
        c.fault(0, Fault::Kill);
        c.fault(1, Fault::Kill);
        assert!(c.reconstruct(id).is_err());
        c.clear_fault(1);
        assert!(c.reconstruct(id).is_ok());
    }

    #[test]
    fn upload_not_acknowledged_without_quorum() {
        let c = cluster(3, 2);
        c.fault(0, Fault::Kill);
        c.fault(1, Fault::Kill);
        assert!(c.upload(vec![5u8; 32], vec![], &grant()).is_err());
        assert_eq!(c.upload_count(), 0);
    }

    /// The (upload id, generation) keys backend `b` holds, sorted.
    fn held(c: &ShardedPspCluster, b: usize) -> Vec<(u64, u16)> {
        let mut keys: Vec<_> = c.backends[b].read().keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn failed_quorum_upload_leaves_every_backend_empty() {
        let c = cluster(3, 2);
        // Backend 1 stores a mangled share and backend 2 a clean one:
        // one healthy store, below k, so both must be taken back.
        c.fault(0, Fault::Kill);
        c.fault(1, Fault::Corrupt);
        assert!(c.upload(vec![5u8; 32], vec![], &grant()).is_err());
        for b in 0..3 {
            assert!(held(&c, b).is_empty(), "backend {b} kept an orphan share");
        }
    }

    #[test]
    fn rebalance_leaves_live_backends_only_current_generation_shares() {
        let c = cluster(5, 3);
        let ids: Vec<u64> = (0..3)
            .map(|i| c.upload(vec![i as u8; 200], vec![], &grant()).unwrap().0)
            .collect();
        c.rebalance_all().unwrap();
        // Backend 4 is dead through the second rebalance and keeps its
        // generation-1 shares; every live backend holds generation 2 only.
        c.fault(4, Fault::Kill);
        assert_eq!(c.rebalance_all().unwrap(), 3);
        let current: Vec<(u64, u16)> = ids.iter().map(|&id| (id, 2)).collect();
        for b in 0..4 {
            assert_eq!(held(&c, b), current, "backend {b}");
        }
        let stale: Vec<(u64, u16)> = ids.iter().map(|&id| (id, 1)).collect();
        assert_eq!(held(&c, 4), stale);
        for (i, &id) in ids.iter().enumerate() {
            let (_, back) = c.reconstruct(ClusterPhotoId(id)).unwrap();
            assert_eq!(back, vec![i as u8; 200]);
        }
    }

    #[test]
    fn failed_rebalance_removes_its_shares_and_keeps_the_old_generation() {
        let c = cluster(3, 2);
        // Backend 0 corrupts while taking its share, so it holds mangled
        // bytes that its later in-flight corruption flips back: it still
        // serves a verifying generation-0 share, but no clean new one.
        c.fault(0, Fault::Corrupt);
        let id = c.upload(vec![0x33; 120], vec![], &grant()).unwrap();
        c.fault(1, Fault::Corrupt);
        // The old quorum {0, 2} reads; only backend 2 stores cleanly.
        assert!(c.rebalance(id).is_err());
        for b in 0..3 {
            assert_eq!(held(&c, b), vec![(id.0, 0)], "backend {b}");
        }
        c.clear_fault(1);
        let (_, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, vec![0x33; 120]);
    }

    #[test]
    fn replace_and_rebalance_restores_tolerance() {
        let c = cluster(4, 2);
        let id = c.upload(vec![0xAB; 300], vec![], &grant()).unwrap();
        c.fault(1, Fault::Kill);
        c.replace_backend(2).unwrap();
        // Down to backends {0, 3} holding generation-0 shares: exactly k.
        assert_eq!(c.visible_shares(id).unwrap().len(), 2);
        c.rebalance_all().unwrap();
        // Rebalance restored shares on every live backend (1 is dead).
        assert_eq!(c.visible_shares(id).unwrap().len(), 3);
        // Now a further loss is tolerated again.
        c.fault(3, Fault::Kill);
        let (_, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, vec![0xAB; 300]);
    }

    #[test]
    fn stale_generation_shares_are_rejected() {
        let c = cluster(3, 2);
        let id = c.upload(vec![0x11; 100], vec![], &grant()).unwrap();
        // Backend 0 sleeps through the rebalance (Kill), so it keeps only
        // its stale generation-0 share.
        c.fault(0, Fault::Kill);
        c.rebalance(id).unwrap();
        c.clear_fault(0);
        let shares = c.visible_shares(id).unwrap();
        assert!(
            shares.iter().all(|(b, _)| *b != 0),
            "backend 0's stale share must not be visible"
        );
        let (_, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, vec![0x11; 100]);
    }

    #[test]
    fn delay_fault_slows_but_serves() {
        let c = cluster(3, 2);
        let id = c.upload(vec![0x22; 50], vec![], &grant()).unwrap();
        c.fault(1, Fault::Delay(1));
        let (_, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, vec![0x22; 50]);
    }

    #[test]
    fn bad_shapes_rejected() {
        assert!(ShardedPspCluster::new(ClusterConfig::new(2, 3)).is_err());
        assert!(ShardedPspCluster::new(ClusterConfig::new(0, 0)).is_err());
        assert!(ShardedPspCluster::new(ClusterConfig::new(256, 2)).is_err());
    }
}
