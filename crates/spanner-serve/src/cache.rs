//! The shared prepared-query cache.
//!
//! Every entry point before the serve layer re-parsed, re-planned, and
//! re-compiled its program per invocation. [`QueryCache`] is where the
//! compile-once amortization becomes serving throughput: queries are keyed
//! by their (trimmed) program text and held as `Arc<PreparedQuery>`, so
//! every concurrent request for a hot program evaluates against the *same*
//! compiled plan with zero per-request compilation. Eviction is
//! least-recently-used at a fixed capacity; hit/miss/eviction counters are
//! surfaced through [`CacheStats`] (the `stats` protocol request).

use spanner_algebra::RaOptions;
use spanner_ql::{PreparedQuery, QlError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Counters describing a cache's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Maximum number of resident prepared queries (0 = caching disabled).
    pub capacity: usize,
    /// Prepared queries currently resident.
    pub entries: usize,
    /// Requests answered from a resident entry.
    pub hits: u64,
    /// Requests that had to compile (including failed compilations).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// An LRU cache of compiled queries, shared by every connection worker.
///
/// The map mutex is held only for bookkeeping (lookup, recency bump,
/// eviction, slot insertion) — never across compilation. On a miss the
/// entry is inserted as a pending *slot* ([`OnceLock`]) and compiled
/// after the lock is released: concurrent requests for the same new
/// program block on that one slot and share the single compilation,
/// while requests for other programs — cache hits in particular — are
/// never stalled behind someone else's slow compile.
pub struct QueryCache {
    slots: Lru<Arc<PrepareSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The per-program compilation slot: set exactly once, by whichever
/// request got there first; everyone else blocks on it outside the map
/// lock.
type PrepareSlot = OnceLock<Result<Arc<PreparedQuery>, QlError>>;

/// The cache key: the trimmed program text *and* the compilation options.
/// A plan compiled under one `RaOptions` (optimizer off, another signature
/// budget, fast path off) is not interchangeable with one compiled under
/// another — keying on the pair keeps the cache correct if per-request
/// options ever reach the daemon. The automaton-size bound is the
/// planner's constant, the same for every plan, so it is not in the key.
/// The server's maintained query views key on the same string, so a view
/// can never be shared across plans that could disagree.
pub(crate) fn cache_key(program: &str, options: RaOptions) -> String {
    format!(
        "{}:{}:{}\n{}",
        options.max_signatures,
        options.optimize,
        options.scan_fast_path,
        PreparedQuery::cache_key(program)
    )
}

/// A bounded least-recently-used map keyed by [`cache_key`]: the prepared
/// query slots of [`QueryCache`] and the server's maintained views. Every
/// touch bumps a recency clock; an insert at capacity evicts the entry
/// touched longest ago. The mutex covers map and clock updates only, each
/// valid on its own, so a poisoned lock is recovered as it stands.
pub(crate) struct Lru<V> {
    /// Maximum resident entries; `0` keeps none.
    capacity: usize,
    state: Mutex<LruState<V>>,
}

struct LruState<V> {
    /// Each value with the tick of its last touch.
    entries: HashMap<String, (V, u64)>,
    /// Monotonic recency clock; bumped on every touch.
    tick: u64,
    evictions: u64,
}

impl<V: Clone> Lru<V> {
    pub(crate) fn new(capacity: usize) -> Lru<V> {
        Lru {
            capacity,
            state: Mutex::new(LruState {
                entries: HashMap::new(),
                tick: 0,
                evictions: 0,
            }),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    fn state(&self) -> MutexGuard<'_, LruState<V>> {
        crate::lock_or_reset(&self.state, |_| ())
    }

    /// The value under `key`, bumping its recency; nothing is inserted.
    pub(crate) fn get(&self, key: &str) -> Option<V> {
        Self::touch(&mut self.state(), key)
    }

    /// The value under `key` and `true`, bumping its recency; otherwise a
    /// new value from `make` and `false`, kept resident — evicting the
    /// least recently used entry at capacity — unless the capacity is 0.
    pub(crate) fn get_or_insert_with(&self, key: &str, make: impl FnOnce() -> V) -> (V, bool) {
        let mut state = self.state();
        if let Some(value) = Self::touch(&mut state, key) {
            return (value, true);
        }
        let tick = state.tick;
        let value = make();
        if self.capacity > 0 {
            if state.entries.len() >= self.capacity {
                let oldest = state
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(k, _)| k.clone());
                if let Some(oldest) = oldest {
                    state.entries.remove(&oldest);
                    state.evictions += 1;
                }
            }
            state.entries.insert(key.to_string(), (value.clone(), tick));
        }
        (value, false)
    }

    /// Advances the clock and, if `key` is resident, stamps it with the new
    /// tick and clones its value out.
    fn touch(state: &mut LruState<V>, key: &str) -> Option<V> {
        state.tick += 1;
        let tick = state.tick;
        let (value, last_used) = state.entries.get_mut(key)?;
        *last_used = tick;
        Some(value.clone())
    }

    /// Drops the entry under `key` if `stale` holds for its value.
    pub(crate) fn remove_if(&self, key: &str, stale: impl FnOnce(&V) -> bool) {
        let mut state = self.state();
        if state
            .entries
            .get(key)
            .is_some_and(|(value, _)| stale(value))
        {
            state.entries.remove(key);
        }
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.state().entries.len()
    }

    /// Every resident value, cloned out so no caller holds the map lock.
    pub(crate) fn values(&self) -> Vec<V> {
        let state = self.state();
        state
            .entries
            .values()
            .map(|(value, _)| value.clone())
            .collect()
    }

    /// Entries evicted to make room, over the map's lifetime.
    pub(crate) fn evictions(&self) -> u64 {
        self.state().evictions
    }
}

impl QueryCache {
    /// A cache holding at most `capacity` prepared queries. Capacity `0`
    /// disables residency entirely — every request compiles (the cold
    /// baseline of the serve benchmark).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            slots: Lru::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the prepared form of `program`, compiling and caching it on
    /// a miss — for one request: its join products deferred
    /// ([`PreparedQuery::compile`]). The boolean is `true` when the request
    /// found an existing entry (possibly still compiling — it shares that
    /// compilation rather than starting its own). Compilation failures are
    /// reported and the failed entry is dropped — a mistyped program never
    /// poisons a slot.
    pub fn get_or_prepare(
        &self,
        program: &str,
        options: RaOptions,
    ) -> Result<(Arc<PreparedQuery>, bool), QlError> {
        self.lookup(program, options, PreparedQuery::compile)
    }

    /// [`QueryCache::get_or_prepare`] for a program kept for reuse, as
    /// `prepare` and `explain` ask for it: a miss compiles it with its join
    /// products built ([`PreparedQuery::prepare_with_options`]), and a hit
    /// builds those its entry deferred.
    pub fn get_or_build(
        &self,
        program: &str,
        options: RaOptions,
    ) -> Result<(Arc<PreparedQuery>, bool), QlError> {
        let found = self.lookup(program, options, PreparedQuery::prepare_with_options)?;
        if found.1 {
            found.0.plan().build_products()?;
        }
        Ok(found)
    }

    fn lookup(
        &self,
        program: &str,
        options: RaOptions,
        compile: fn(&str, RaOptions) -> Result<PreparedQuery, QlError>,
    ) -> Result<(Arc<PreparedQuery>, bool), QlError> {
        let key = cache_key(program, options);
        let (slot, hit) = self.slots.get_or_insert_with(&key, Default::default);
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        // Compile (or wait for the compiling request) outside the lock.
        let result = slot.get_or_init(|| compile(program, options).map(Arc::new));
        match result {
            Ok(query) => Ok((Arc::clone(query), hit)),
            Err(e) => {
                // Failed compilations are never served from the cache:
                // drop the entry (only if it is still *this* slot — a
                // concurrent retry may already have replaced it).
                self.slots
                    .remove_if(&key, |entry| Arc::ptr_eq(entry, &slot));
                Err(e.clone())
            }
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            capacity: self.slots.capacity(),
            entries: self.slots.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.slots.evictions(),
        }
    }
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "QueryCache({}/{} entries, {} hits, {} misses, {} evictions)",
            s.entries, s.capacity, s.hits, s.misses, s.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_with(capacity: usize) -> QueryCache {
        QueryCache::new(capacity)
    }

    #[test]
    fn hit_returns_the_same_compiled_plan() {
        let cache = cache_with(4);
        let (first, hit1) = cache
            .get_or_prepare("/{x:a+}/", RaOptions::default())
            .unwrap();
        let (second, hit2) = cache
            .get_or_prepare("  /{x:a+}/  ", RaOptions::default())
            .unwrap();
        assert!(!hit1);
        assert!(hit2, "trimmed program must hit the same key");
        assert!(Arc::ptr_eq(&first, &second), "one compiled plan, shared");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let cache = cache_with(2);
        let opts = RaOptions::default();
        cache.get_or_prepare("/{x:a}/", opts).unwrap(); // A
        cache.get_or_prepare("/{x:b}/", opts).unwrap(); // B
        cache.get_or_prepare("/{x:a}/", opts).unwrap(); // touch A: B is now LRU
        cache.get_or_prepare("/{x:c}/", opts).unwrap(); // C evicts B
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        let hit = |program| cache.get_or_prepare(program, opts).unwrap().1;
        assert!(hit("/{x:a}/"), "recently-touched entry survives");
        assert!(hit("/{x:c}/"));
        assert!(!hit("/{x:b}/"), "least-recently-used is evicted");
    }

    #[test]
    fn a_lookup_bumps_recency_and_inserts_nothing() {
        let lru = Lru::new(2);
        lru.get_or_insert_with("a", || 1);
        lru.get_or_insert_with("b", || 2);
        assert_eq!((lru.get("c"), lru.len()), (None, 2));
        assert_eq!(lru.get("a"), Some(1)); // b is now least recently used
        lru.get_or_insert_with("c", || 3);
        assert_eq!(
            (lru.get("a"), lru.get("b"), lru.get("c")),
            (Some(1), None, Some(3))
        );
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn differing_options_do_not_share_an_entry() {
        let cache = cache_with(4);
        let on = RaOptions::default();
        let off = RaOptions {
            scan_fast_path: false,
            ..RaOptions::default()
        };
        let (a, hit_a) = cache.get_or_prepare("/{x:a+}/", on).unwrap();
        let (b, hit_b) = cache.get_or_prepare("/{x:a+}/", off).unwrap();
        assert!(!hit_a && !hit_b, "distinct options compile separately");
        assert!(!Arc::ptr_eq(&a, &b), "each option set gets its own plan");
        assert_eq!(cache.stats().entries, 2);
        // And the same options still hit.
        assert!(cache.get_or_prepare("/{x:a+}/", on).unwrap().1);
        assert!(cache.get_or_prepare("/{x:a+}/", off).unwrap().1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = cache_with(2);
        let opts = RaOptions::default();
        assert!(cache.get_or_prepare("let a = ;", opts).is_err());
        assert!(cache.get_or_prepare("let a = ;", opts).is_err());
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 2, "every failed compile is a miss");
    }

    #[test]
    fn zero_capacity_disables_residency() {
        let cache = cache_with(0);
        let opts = RaOptions::default();
        let (_, hit1) = cache.get_or_prepare("/{x:a}/", opts).unwrap();
        let (_, hit2) = cache.get_or_prepare("/{x:a}/", opts).unwrap();
        assert!(!hit1 && !hit2);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn concurrent_requests_share_one_entry() {
        let cache = Arc::new(cache_with(4));
        let plans: Vec<Arc<PreparedQuery>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || {
                        cache
                            .get_or_prepare("let a = /{x:a+}b*/; a;", RaOptions::default())
                            .unwrap()
                            .0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for plan in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], plan), "all threads share one plan");
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "exactly one compilation");
        assert_eq!(s.hits, 7);
    }
}
