//! Serving-side caches for the PSP fast path.
//!
//! Two layers sit in front of the decode→transform→re-encode pipeline:
//!
//! - [`TransformCache`] — a byte-budgeted, content-addressed LRU of
//!   finished transform results. The key is an FNV-1a chain over the
//!   source bitstream, the source parameter blob, and the
//!   [`puppies_transform::Transformation::canonical_bytes`] encoding, so a
//!   hit can *never* serve stale bytes: rewriting a photo changes its
//!   content hash, which changes every key derived from it, and the
//!   orphaned entries simply age out of the LRU. Content addressing *is*
//!   the invalidation story.
//! - [`DecodeMemo`] — a small entry-bounded LRU of decoded
//!   [`CoeffImage`]s keyed by the same content hash, so several distinct
//!   transformations of one hot photo pay for its entropy decode once.
//!
//! Both are internally locked ([`parking_lot::Mutex`], held only for map
//! bookkeeping — never across codec work) and safe to share across server
//! shards. Hit/miss/eviction counts feed `puppies-obs` counters
//! (`psp.cache.hit`, `psp.cache.miss`, `psp.cache.eviction`,
//! `psp.memo.hit`, `psp.memo.miss`) and the `psp.cache.bytes` and
//! `psp.cache.entries` gauges.

use parking_lot::Mutex;
use puppies_jpeg::CoeffImage;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A served `(JPEG bytes, public-params blob)` pair behind shared
/// allocations — what `download_transformed` returns and what the
/// transform cache stores.
pub type ServedPair = (Arc<[u8]>, Arc<[u8]>);

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte slice (same function the conformance manifest
/// uses — small enough to keep a private copy rather than a dependency).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_chain(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes, so multi-part keys
/// (content hash ⨁ transformation encoding) mix rather than concatenate.
pub(crate) fn fnv64_chain(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Word-at-a-time content hash for bulk payloads (stored bitstreams):
/// FNV-style multiply/xor over 8-byte little-endian chunks plus a
/// length-mixed tail. Byte-at-a-time FNV tops out around 1 GB/s — a real
/// tax on the upload door, which hashes every incoming image — while the
/// chunked walk keeps the same distribution quality for the runtime-only
/// keys it feeds (byte interner, decode memo, transform-cache content
/// addresses; every consumer verifies candidates by byte comparison, so
/// a collision costs a compare, never a wrong answer). Not FNV-1a
/// compatible, and never persisted: WAL checksums and conformance
/// manifests keep their own byte-exact hashes.
pub(crate) fn content_hash64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ (bytes.len() as u64).wrapping_mul(FNV_PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(FNV_PRIME);
        // A second mix step: one multiply leaves the low bytes of `word`
        // underdiffused into the high bits the shard/bucket maps use.
        h ^= h >> 29;
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    h = (h ^ tail).wrapping_mul(FNV_PRIME);
    h ^ (h >> 31)
}

/// A point-in-time snapshot of a [`TransformCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that fell through to the pipeline.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Payload bytes currently resident (image + params per entry).
    pub bytes: usize,
    /// The configured byte budget (0 = cache disabled).
    pub capacity_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident value, its charge against the budget, and the stamp of
/// its latest touch.
struct Slot<V> {
    value: V,
    charge: usize,
    stamp: u64,
}

/// Recency bookkeeping shared by both caches: a stamp queue with lazy
/// cleanup. Every touch pushes a fresh `(key, stamp)` pair; eviction pops
/// from the front and skips pairs whose stamp no longer matches the live
/// entry (they were superseded by a later touch). Amortized O(1) per
/// operation, no intrusive list. Each value is charged against a budget:
/// its bytes in the transform cache, 1 in the decode memo.
struct LruInner<V> {
    map: HashMap<u64, Slot<V>>,
    order: VecDeque<(u64, u64)>,
    next_stamp: u64,
    charged: usize,
}

impl<V> LruInner<V> {
    fn new() -> Self {
        LruInner {
            map: HashMap::new(),
            order: VecDeque::new(),
            next_stamp: 0,
            charged: 0,
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    fn get(&mut self, key: u64) -> Option<&V> {
        self.maybe_compact();
        let slot = self.map.get_mut(&key)?;
        slot.stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((key, slot.stamp));
        Some(&slot.value)
    }

    /// Inserts `value` as the most recent entry, then evicts from the
    /// least recent end until the total charge fits `budget`. Returns
    /// how many entries were evicted.
    fn insert(&mut self, key: u64, value: V, charge: usize, budget: usize) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((key, stamp));
        let slot = Slot {
            value,
            charge,
            stamp,
        };
        if let Some(old) = self.map.insert(key, slot) {
            self.charged -= old.charge;
        }
        self.charged += charge;
        let mut evicted = 0;
        while self.charged > budget {
            let Some((victim, vstamp)) = self.order.pop_front() else {
                break;
            };
            // Skip stale queue pairs: the entry was touched again later (or
            // is the one just inserted) and a fresher pair covers it.
            if self.map.get(&victim).is_some_and(|e| e.stamp == vstamp) {
                self.remove(victim);
                evicted += 1;
            }
        }
        self.maybe_compact();
        evicted
    }

    fn remove(&mut self, key: u64) {
        if let Some(old) = self.map.remove(&key) {
            self.charged -= old.charge;
        }
    }

    /// Compacts the stamp queue if superseded pairs dominate it, keeping
    /// its length proportional to the live entry count.
    fn maybe_compact(&mut self) {
        if self.order.len() > 32 && self.order.len() > self.map.len() * 4 {
            let LruInner { map, order, .. } = self;
            order.retain(|&(k, stamp)| map.get(&k).is_some_and(|e| e.stamp == stamp));
        }
    }
}

/// Content-addressed, byte-budgeted LRU for finished transform results.
pub struct TransformCache {
    budget: usize,
    inner: Mutex<LruInner<ServedPair>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for TransformCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("TransformCache")
            .field("budget", &self.budget)
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl TransformCache {
    /// Creates a cache with the given byte budget; 0 disables it (every
    /// lookup misses, inserts are dropped).
    pub fn new(budget_bytes: usize) -> Self {
        TransformCache {
            budget: budget_bytes,
            inner: Mutex::new(LruInner::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a transform result, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<ServedPair> {
        if self.budget == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            puppies_obs::counted!("psp.cache.miss");
            return None;
        }
        let hit = self.inner.lock().get(key).cloned();
        match hit {
            Some(found) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                puppies_obs::counted!("psp.cache.hit");
                Some(found)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                puppies_obs::counted!("psp.cache.miss");
                None
            }
        }
    }

    /// Two-level lookup for the perceptual-identity layer: the exact
    /// content key is checked first; only on a miss, and only when the
    /// photo belongs to a signature family rooted at a *different*
    /// content key, is the family key consulted. Returns the pair plus
    /// whether the family key (level 2) served it — the caller owns the
    /// `psp.sig.hit` / `psp.sig.miss` accounting, since only it knows
    /// whether a family existed to consult.
    pub fn get_two_level(&self, exact: u64, family: Option<u64>) -> Option<(ServedPair, bool)> {
        if let Some(pair) = self.get(exact) {
            return Some((pair, false));
        }
        match family {
            Some(f) if f != exact => self.get(f).map(|pair| (pair, true)),
            _ => None,
        }
    }

    /// Inserts a transform result, evicting least-recently-used entries to
    /// stay within the byte budget. Oversized values (larger than the whole
    /// budget) are dropped rather than wiping the cache for one entry.
    pub fn insert(&self, key: u64, bytes: Arc<[u8]>, params: Arc<[u8]>) {
        let charge = bytes.len() + params.len();
        if self.budget == 0 || charge > self.budget {
            return;
        }
        let mut inner = self.inner.lock();
        let evicted = inner.insert(key, (bytes, params), charge, self.budget);
        let (resident, entries) = (inner.charged, inner.map.len());
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if puppies_obs::enabled() {
                puppies_obs::counter_add("psp.cache.eviction", evicted);
            }
        }
        if puppies_obs::enabled() {
            puppies_obs::gauge_set("psp.cache.bytes", resident as i64);
            puppies_obs::gauge_set("psp.cache.entries", entries as i64);
        }
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.charged,
            capacity_bytes: self.budget,
        }
    }
}

/// Entry-bounded LRU of decoded coefficient images, keyed by the photo's
/// content hash. Bounded by count rather than bytes: decoded images are a
/// small fixed population of hot photos, and an `Arc` clone out of the memo
/// is what the transform pipeline works from.
pub struct DecodeMemo {
    capacity: usize,
    inner: Mutex<LruInner<Arc<CoeffImage>>>,
}

impl std::fmt::Debug for DecodeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeMemo")
            .field("capacity", &self.capacity)
            .field("entries", &self.inner.lock().map.len())
            .finish()
    }
}

impl DecodeMemo {
    /// Creates a memo holding at most `capacity` decoded images; 0
    /// disables it.
    pub fn new(capacity: usize) -> Self {
        DecodeMemo {
            capacity,
            inner: Mutex::new(LruInner::new()),
        }
    }

    /// Looks up a decoded image by content hash.
    pub fn get(&self, key: u64) -> Option<Arc<CoeffImage>> {
        if self.capacity == 0 {
            return None;
        }
        let hit = self.inner.lock().get(key).cloned();
        match &hit {
            Some(_) => puppies_obs::counted!("psp.memo.hit"),
            None => puppies_obs::counted!("psp.memo.miss"),
        }
        hit
    }

    /// Inserts a decoded image, evicting the least-recently-used one past
    /// capacity.
    pub fn insert(&self, key: u64, img: Arc<CoeffImage>) {
        if self.capacity == 0 {
            return;
        }
        self.inner.lock().insert(key, img, 1, self.capacity);
    }

    /// Drops the entry for a content hash (used when a photo is rewritten
    /// in place, so the superseded decode does not linger until eviction).
    pub fn invalidate(&self, key: u64) {
        if self.capacity == 0 {
            return;
        }
        self.inner.lock().remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize, fill: u8) -> Arc<[u8]> {
        vec![fill; n].into()
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hit_returns_inserted_payload() {
        let cache = TransformCache::new(1024);
        cache.insert(7, blob(10, 1), blob(4, 2));
        let (b, p) = cache.get(7).expect("hit");
        assert_eq!(b.as_ref(), &[1u8; 10][..]);
        assert_eq!(p.as_ref(), &[2u8; 4][..]);
        assert!(cache.get(8).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 14));
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let cache = TransformCache::new(30);
        cache.insert(1, blob(10, 1), blob(0, 0));
        cache.insert(2, blob(10, 2), blob(0, 0));
        cache.insert(3, blob(10, 3), blob(0, 0));
        // Touch 1 so 2 becomes the LRU, then overflow.
        assert!(cache.get(1).is_some());
        cache.insert(4, blob(10, 4), blob(0, 0));
        assert!(cache.get(2).is_none(), "LRU entry should be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 30);
    }

    #[test]
    fn oversized_value_is_dropped_not_cached() {
        let cache = TransformCache::new(16);
        cache.insert(1, blob(8, 1), blob(0, 0));
        cache.insert(2, blob(100, 2), blob(0, 0));
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some(), "resident entries survive");
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn reinsert_same_key_updates_accounting() {
        let cache = TransformCache::new(100);
        cache.insert(1, blob(40, 1), blob(0, 0));
        cache.insert(1, blob(20, 2), blob(0, 0));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (1, 20));
        assert_eq!(cache.get(1).unwrap().0.as_ref(), &[2u8; 20][..]);
    }

    #[test]
    fn two_level_prefers_exact_then_falls_back_to_family() {
        let cache = TransformCache::new(1024);
        cache.insert(100, blob(4, 1), blob(0, 0));
        // Exact hit never consults the family key.
        let (pair, via_family) = cache.get_two_level(100, Some(200)).unwrap();
        assert_eq!(pair.0.as_ref(), &[1u8; 4][..]);
        assert!(!via_family);
        // Exact miss + family resident: level-2 hit.
        let (pair, via_family) = cache.get_two_level(999, Some(100)).unwrap();
        assert_eq!(pair.0.as_ref(), &[1u8; 4][..]);
        assert!(via_family);
        // Family equal to the exact key is not re-probed.
        assert!(cache.get_two_level(999, Some(999)).is_none());
        // No family: plain miss.
        assert!(cache.get_two_level(999, None).is_none());
    }

    #[test]
    fn zero_budget_disables() {
        let cache = TransformCache::new(0);
        cache.insert(1, blob(4, 1), blob(0, 0));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn stamp_queue_stays_bounded_under_rehits() {
        let cache = TransformCache::new(1024);
        cache.insert(1, blob(8, 1), blob(0, 0));
        for i in 0..10_000 {
            assert!(cache.get(1).is_some());
            // Compaction never drops the live pair, which would leave the
            // entry unevictable.
            let inner = cache.inner.lock();
            let stamp = inner.map[&1].stamp;
            assert!(inner.order.contains(&(1, stamp)), "hit {i}");
        }
        let order_len = cache.inner.lock().order.len();
        assert!(order_len <= 64, "stamp queue grew to {order_len}");
    }

    #[test]
    fn memo_lru_and_invalidate() {
        let img = Arc::new(CoeffImage::from_rgb(
            &puppies_image::RgbImage::filled(8, 8, puppies_image::Rgb::new(1, 2, 3)),
            75,
        ));
        let memo = DecodeMemo::new(2);
        memo.insert(1, img.clone());
        memo.insert(2, img.clone());
        assert!(memo.get(1).is_some());
        memo.insert(3, img.clone());
        assert!(memo.get(2).is_none(), "LRU evicted");
        assert!(memo.get(1).is_some());
        assert!(memo.get(3).is_some());
        memo.invalidate(1);
        assert!(memo.get(1).is_none());
    }
}
