//! Process-wide dataset cache.
//!
//! Experiments regenerate the same `(dataset, scale, seed)` triples over and
//! over — every grid cell, every system variant, every bench iteration pays
//! the full generator cost for identical bytes. Generation is a pure
//! function of that key, so the result is cached behind an `Arc` and handed
//! out for free on every repeat request. Host-side only: cached and
//! uncached runs produce identical datasets, so simulated `RunTrace`s are
//! unaffected.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::catalog::{DatasetId, ScaledDataset};

/// `(dataset id, scale bits, seed)` — the exact argument triple of
/// [`ScaledDataset::generate`]. Scale is keyed by its bit pattern so the
/// lookup is exact (no float comparison subtleties).
type Key = (u8, u64, u64);

/// Bounded size: a full experiment grid touches a handful of triples; 32
/// comfortably covers every suite while bounding worst-case memory.
const MAX_ENTRIES: usize = 32;

static CACHE: OnceLock<Mutex<BTreeMap<Key, Arc<ScaledDataset>>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<BTreeMap<Key, Arc<ScaledDataset>>> {
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock(
    m: &Mutex<BTreeMap<Key, Arc<ScaledDataset>>>,
) -> std::sync::MutexGuard<'_, BTreeMap<Key, Arc<ScaledDataset>>> {
    match m.lock() {
        Ok(g) => g,
        // A panicked holder can only have completed or skipped an insert;
        // the map itself is always in a consistent state.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Cached [`ScaledDataset::generate`]: returns the shared dataset for the
/// key, generating it only on the first request. Repeat requests are a map
/// lookup plus an `Arc` clone — no generator work (the cache-hit tests pin
/// this via pointer identity).
pub fn generate_cached(id: DatasetId, scale: f64, seed: u64) -> Arc<ScaledDataset> {
    lookup(id, scale, seed).0
}

/// [`generate_cached`], also returning whether this call missed (and so
/// generated), which, unlike the process-wide counters, no other thread's
/// call can change.
fn lookup(id: DatasetId, scale: f64, seed: u64) -> (Arc<ScaledDataset>, bool) {
    let key: Key = (id as u8, scale.to_bits(), seed);
    if let Some(ds) = lock(cache()).get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return (Arc::clone(ds), false);
    }
    // Generate outside the lock so concurrent misses on different keys
    // don't serialize; a racing duplicate of the same key produces an
    // identical dataset, and first-insert-wins keeps pointer identity
    // stable afterwards.
    MISSES.fetch_add(1, Ordering::Relaxed);
    let ds = Arc::new(ScaledDataset::generate(id, scale, seed));
    let mut map = lock(cache());
    let entry = Arc::clone(map.entry(key).or_insert(ds));
    while map.len() > MAX_ENTRIES {
        let oldest = map.keys().next().copied();
        match oldest {
            Some(k) if k != key => {
                map.remove(&k);
            }
            _ => break,
        }
    }
    (entry, true)
}

/// `(hits, misses)` since process start — for tests.
// sjc-lint: allow(dead-pub) — `second_generation_is_a_pointer_hit` observes the cache through it; the hit-rate counter ROADMAP item 6 reports
pub fn cache_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_generation_is_a_pointer_hit() {
        // A key no other test uses, so the first call is a genuine miss.
        // Each call reports its own miss; the process-wide counters can
        // also count other tests' calls, so they are only checked to move.
        let (h0, m0) = cache_stats();
        let (a, a_missed) = lookup(DatasetId::Nycb, 0.031_25, 0xCAC4E);
        let (b, b_missed) = lookup(DatasetId::Nycb, 0.031_25, 0xCAC4E);
        let (h1, m1) = cache_stats();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request must return the cached allocation — no generator work"
        );
        assert!(a_missed, "the first request must be a miss");
        assert!(!b_missed, "the repeat request must be a hit");
        assert!(m1 > m0 && h1 > h0, "the counters saw the miss and the hit");
    }

    #[test]
    fn cached_equals_uncached() {
        let cached = generate_cached(DatasetId::Nycb, 0.015_625, 0xFACADE);
        let fresh = ScaledDataset::generate(DatasetId::Nycb, 0.015_625, 0xFACADE);
        assert_eq!(cached.records, fresh.records);
        assert_eq!(cached.domain, fresh.domain);
    }

    #[test]
    fn distinct_keys_get_distinct_datasets() {
        let a = generate_cached(DatasetId::Nycb, 0.007_812_5, 1);
        let b = generate_cached(DatasetId::Nycb, 0.007_812_5, 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.records, b.records);
    }
}
