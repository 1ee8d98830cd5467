//! Memoization of simulated metrics by placement fingerprint.
//!
//! Tabular Q-learning revisits the same placements constantly — every
//! episode restarts from the same initial state, and undo-heavy proposal
//! loops bounce between a handful of neighbours. [`EvalCache`] memoizes
//! the full [`Metrics`] of a placement keyed by its Zobrist fingerprint
//! (plus circuit/grid identity), so a revisited state costs a hash lookup
//! instead of an MNA solve.
//!
//! A cache **hit is not a simulation**: the paper's "#simulations" tally
//! ([`SimCounter`](crate::SimCounter)) counts real oracle solves, and the
//! whole point of the cache is to answer without one. Hit/miss/eviction
//! statistics are reported separately via [`CacheStats`], and the
//! monitoring-friendly [`StatsSnapshot`] pairs them with the simulation
//! tally **without taking the map lock** — serving-layer `/stats` polls
//! never contend with evaluations in flight.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{Metrics, SimCounter};

/// Default capacity (entries) of an [`EvalCache`]. At ~100 bytes per
/// entry this bounds memory near 6 MB — generous for the benchmark runs,
/// which visit far fewer distinct placements.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
struct Entry {
    metrics: Metrics,
    /// Logical timestamp of the last touch (insert or hit) — the LRU key.
    tick: u64,
}

/// The locked part of the cache: only the map and its LRU clock. All
/// statistics live outside the lock in [`Counters`].
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
}

impl Inner {
    /// Amortized batch eviction: when the map exceeds capacity, drop the
    /// least-recently-touched entries down to 3/4 capacity in one O(n log n)
    /// sweep. Cheaper than a doubly-linked LRU list on every access, and
    /// the hot path (a hit) stays a single hash probe. Returns how many
    /// entries were dropped.
    fn evict_if_full(&mut self, capacity: usize) -> u64 {
        if self.map.len() <= capacity {
            return 0;
        }
        let keep = (capacity * 3) / 4;
        let excess = self.map.len() - keep.min(self.map.len());
        if excess == 0 {
            return 0;
        }
        // Ticks are unique (one global counter), so the cutoff removes
        // exactly `excess` entries.
        let mut ticks: Vec<u64> = self.map.values().map(|e| e.tick).collect();
        ticks.sort_unstable();
        let cutoff = ticks[excess - 1];
        self.map.retain(|_, e| e.tick > cutoff);
        excess as u64
    }
}

/// Lock-free statistics of an [`EvalCache`]: the map lock guards only the
/// entries themselves, so readers (run reports, `/stats` endpoints) never
/// block an evaluation in flight.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicUsize,
    capacity: AtomicUsize,
}

/// Counters describing an [`EvalCache`]'s effectiveness, reported next to
/// the "#simulations" tally in run reports.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache (no simulation happened).
    pub hits: u64,
    /// Lookups that fell through to a real solve.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {} evicted",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.evictions
        )
    }
}

/// A point-in-time pairing of cache effectiveness with the simulation
/// tally — the unit of accounting the serving layer reports per job and
/// aggregates (field-wise, via [`StatsSnapshot::merged`]) across jobs.
///
/// Reading one never touches the cache's map lock; see
/// [`EvalCache::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Lookups answered from the cache (no simulation happened).
    pub hits: u64,
    /// Lookups that fell through to a real solve.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Real oracle solves performed ([`SimCounter::count`]).
    pub sims: u64,
}

impl StatsSnapshot {
    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise sum — how a server aggregates per-job snapshots into one
    /// service-wide view.
    #[must_use]
    pub fn merged(self, other: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
            sims: self.sims + other.sims,
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {} sims",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.sims
        )
    }
}

/// A bounded, shared memo of placement → [`Metrics`].
///
/// Cloning shares the underlying store (like
/// [`SimCounter`](crate::SimCounter)), so one cache can serve every
/// evaluator clone of an optimisation run. Thread-safe; the lock is held
/// only for the O(1) probe (amortized — see [`Inner` eviction]), and all
/// statistics are plain atomics readable without it.
///
/// Keys are produced by the caller — in practice
/// [`Evaluator`](crate::Evaluator) mixes the placement's Zobrist
/// fingerprint with circuit and grid identity, so one cache can safely
/// serve evaluations of different tasks.
///
/// # Examples
///
/// ```
/// use breaksym_sim::EvalCache;
///
/// let cache = EvalCache::new(128);
/// assert_eq!(cache.get(42), None);
/// # let metrics = breaksym_sim::Metrics::empty(breaksym_netlist::CircuitClass::Generic);
/// cache.insert(42, metrics);
/// assert!(cache.get(42).is_some());
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct EvalCache {
    inner: Arc<Mutex<Inner>>,
    counters: Arc<Counters>,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl EvalCache {
    /// A cache bounded to `capacity` entries (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let cache = EvalCache {
            inner: Arc::new(Mutex::new(Inner::default())),
            counters: Arc::new(Counters::default()),
        };
        cache.counters.capacity.store(capacity.max(1), Ordering::Relaxed);
        cache
    }

    /// Looks up the metrics memoized under `key`, refreshing its LRU
    /// position. Records a hit or a miss.
    pub fn get(&self, key: u64) -> Option<Metrics> {
        let found = {
            let mut g = self.inner.lock();
            g.tick += 1;
            let tick = g.tick;
            g.map.get_mut(&key).map(|e| {
                e.tick = tick;
                e.metrics
            })
        };
        if found.is_some() {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Memoizes `metrics` under `key`, evicting least-recently-used
    /// entries if the capacity bound is exceeded.
    pub fn insert(&self, key: u64, metrics: Metrics) {
        let capacity = self.counters.capacity.load(Ordering::Relaxed);
        let (evicted, entries) = {
            let mut g = self.inner.lock();
            g.tick += 1;
            let tick = g.tick;
            g.map.insert(key, Entry { metrics, tick });
            let evicted = g.evict_if_full(capacity);
            (evicted, g.map.len())
        };
        if evicted > 0 {
            self.counters.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        self.counters.entries.store(entries, Ordering::Relaxed);
    }

    /// A snapshot of the hit/miss/eviction counters. Never takes the map
    /// lock — safe to poll from a monitoring thread at any rate.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            entries: self.counters.entries.load(Ordering::Relaxed),
            capacity: self.counters.capacity.load(Ordering::Relaxed),
        }
    }

    /// A lock-free [`StatsSnapshot`] pairing this cache's counters with
    /// `counter`'s simulation tally — the per-job accounting unit of the
    /// serving layer, also used in [`RunReport`] assembly.
    ///
    /// [`RunReport`]: https://docs.rs/breaksym-core
    pub fn snapshot(&self, counter: &SimCounter) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            entries: self.counters.entries.load(Ordering::Relaxed) as u64,
            sims: counter.count(),
        }
    }

    /// Number of resident entries (lock-free; exact between operations).
    pub fn len(&self) -> usize {
        self.counters.entries.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry *and* zeroes the statistics.
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.map.clear();
        self.counters.hits.store(0, Ordering::Relaxed);
        self.counters.misses.store(0, Ordering::Relaxed);
        self.counters.evictions.store(0, Ordering::Relaxed);
        self.counters.entries.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(tag: f64) -> Metrics {
        let mut m = Metrics::empty(breaksym_netlist::CircuitClass::Generic);
        m.area_um2 = tag;
        m
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = EvalCache::new(8);
        assert!(c.get(1).is_none());
        c.insert(1, metrics(1.0));
        let m = c.get(1).expect("hit");
        assert_eq!(m.area_um2, 1.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// Interleaved probe→insert over a key list containing a duplicate
    /// yields miss-then-hit for the duplicate, never two misses.
    #[test]
    fn duplicate_keys_probed_in_order_miss_then_hit() {
        let c = EvalCache::new(8);
        let keys = [10u64, 11, 10, 12, 11];
        let mut outcomes = Vec::new();
        for &k in &keys {
            match c.get(k) {
                Some(_) => outcomes.push("hit"),
                None => {
                    c.insert(k, metrics(k as f64));
                    outcomes.push("miss");
                }
            }
        }
        assert_eq!(outcomes, ["miss", "miss", "hit", "miss", "hit"]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 3));
    }

    #[test]
    fn clones_share_the_store() {
        let a = EvalCache::new(8);
        let b = a.clone();
        a.insert(7, metrics(7.0));
        assert!(b.get(7).is_some());
        b.clear();
        assert!(a.is_empty());
        assert_eq!(a.stats().hits, 0);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let c = EvalCache::new(4);
        for k in 0..4 {
            c.insert(k, metrics(k as f64));
        }
        // Touch key 0 so it becomes the most recent.
        assert!(c.get(0).is_some());
        // Overflow: eviction drops to 3/4 capacity = 3 entries.
        c.insert(99, metrics(99.0));
        let s = c.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.evictions, 2);
        assert!(c.get(0).is_some(), "recently touched key survives");
        assert!(c.get(99).is_some(), "new key survives");
        assert!(c.get(1).is_none(), "oldest key evicted");
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let c = EvalCache::new(0);
        c.insert(1, metrics(1.0));
        assert_eq!(c.stats().capacity, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cache_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<EvalCache>();
    }

    #[test]
    fn stats_display_is_human_readable() {
        let c = EvalCache::new(8);
        c.insert(1, metrics(1.0));
        c.get(1);
        c.get(2);
        let text = c.stats().to_string();
        assert!(text.contains("1 hits"), "{text}");
        assert!(text.contains("50.0% hit rate"), "{text}");
    }

    #[test]
    fn snapshot_pairs_cache_counters_with_sim_tally() {
        let c = EvalCache::new(8);
        let sims = SimCounter::new();
        c.get(1); // miss
        sims.increment();
        c.insert(1, metrics(1.0));
        c.get(1); // hit
        let snap = c.snapshot(&sims);
        assert_eq!((snap.hits, snap.misses, snap.entries, snap.sims), (1, 1, 1, 1));
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
        let text = snap.to_string();
        assert!(text.contains("1 sims"), "{text}");
    }

    #[test]
    fn snapshots_merge_field_wise() {
        let a = StatsSnapshot { hits: 1, misses: 2, entries: 3, sims: 4 };
        let b = StatsSnapshot { hits: 10, misses: 20, entries: 30, sims: 40 };
        let m = a.merged(b);
        assert_eq!(m, StatsSnapshot { hits: 11, misses: 22, entries: 33, sims: 44 });
        assert_eq!(StatsSnapshot::default().merged(a), a);
    }

    #[test]
    fn stats_never_take_the_map_lock() {
        // Reading stats while the map lock is held must not deadlock —
        // the property the serving layer's /stats endpoint relies on.
        let c = EvalCache::new(8);
        c.insert(1, metrics(1.0));
        let _guard = c.inner.lock();
        let s = c.stats();
        assert_eq!(s.entries, 1);
        let snap = c.snapshot(&SimCounter::new());
        assert_eq!(snap.entries, 1);
    }
}
