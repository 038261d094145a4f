//! A concurrent result cache over the differential-testing matrix.
//!
//! Generators produce structurally duplicate programs — Direct-Prompt's
//! unguided sampling repeats knowledge-base programs outright (~30% of a
//! 600-program budget), and campaigns sharing a seed regenerate each
//! other's programs — and every duplicate re-runs the full
//! 18-configuration compile/execute/compare matrix, the most expensive
//! stage of the pipeline. Campaigns derive each program's input set from
//! the program's structural hash (see `llm4fp::campaign`), so a duplicate
//! program is guaranteed to produce a bit-identical [`ProgramDiffResult`];
//! caching by structural `program_id` is therefore semantically
//! transparent: a campaign with the cache enabled returns exactly the same
//! result as one without it.
//!
//! The cache is **backend-aware**: entries computed by different
//! execution backends are never interchangeable (a real toolchain's bits
//! legitimately differ from the virtual compiler's), so lookups key on a
//! [`ResultCache::scoped_key`] composed of the backend's fingerprint and
//! the structural program id. On the external backend a hit is the big
//! win the ROADMAP promised: all of a duplicate's process spawns — one
//! compiler spawn per configuration plus one binary spawn per input set,
//! so 24 for the usual detected gcc + clang matrix (2 compilers × 6
//! levels) and 36 if every personality of the full 18-configuration
//! matrix had a host binary — are skipped outright.
//!
//! The map is sharded 16 ways to keep lock contention negligible when many
//! campaign shards share one cache. Hit/miss counters are advisory
//! statistics: under concurrent execution two workers may both miss on the
//! same program and compute it twice — the merged campaign result is
//! unaffected because both computations are bit-identical.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use llm4fp_compiler::{CompilerId, OptLevel};

use crate::matrix::ProgramDiffResult;

const SHARDS: usize = 16;

/// One cached test outcome: the full matrix result plus the RQ4 baseline
/// comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedDiff {
    pub result: ProgramDiffResult,
    pub baseline: Vec<(CompilerId, OptLevel, bool)>,
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded concurrent map from structural `program_id` to [`CachedDiff`].
#[derive(Debug)]
pub struct ResultCache {
    shards: [Mutex<HashMap<String, CachedDiff>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl ResultCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Compose the backend-scoped cache key for a program: the backend
    /// fingerprint (see `ExecBackend::fingerprint`) joined to the
    /// structural program id with a separator neither side contains.
    /// Different backends therefore occupy disjoint key spaces of one
    /// shared cache — sharing the map is always sound.
    pub fn scoped_key(backend_fingerprint: &str, program_id: &str) -> String {
        format!("{backend_fingerprint}\u{1f}{program_id}")
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, CachedDiff>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Look up a program by structural id, counting a hit or miss.
    pub fn get(&self, program_id: &str) -> Option<CachedDiff> {
        let found = self.shard(program_id).lock().unwrap().get(program_id).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Insert a freshly computed outcome. Last write wins; concurrent
    /// writers always insert bit-identical values (see module docs).
    pub fn insert(&self, program_id: String, cached: CachedDiff) {
        self.shard(&program_id).lock().unwrap().insert(program_id, cached);
    }

    /// Number of distinct programs currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiffTester;
    use llm4fp_fpir::{parse_compute, program_id, InputSet, InputValue};

    fn sample() -> (String, CachedDiff) {
        let program = parse_compute(
            "void compute(double x, double y) { comp = sin(x) * y + exp(x) / (y + 2.0); }",
        )
        .unwrap();
        let inputs = InputSet::new().with("x", InputValue::Fp(1.7)).with("y", InputValue::Fp(-0.3));
        let tester = DiffTester::new();
        let result = tester.run(&program, &inputs);
        let baseline = tester.compare_vs_baseline(&result.outcomes);
        (program_id(&program), CachedDiff { result, baseline })
    }

    #[test]
    fn second_lookup_hits_and_returns_identical_results() {
        let cache = ResultCache::new();
        let (id, value) = sample();
        assert!(cache.get(&id).is_none());
        cache.insert(id.clone(), value.clone());
        let cached = cache.get(&id).expect("present after insert");
        assert_eq!(cached, value);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_access_is_safe_and_counts_every_lookup() {
        let cache = ResultCache::new();
        let (id, value) = sample();
        cache.insert(id.clone(), value);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        assert!(cache.get(&id).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats(), CacheStats { hits: 800, misses: 0 });
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache = ResultCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn scoped_keys_keep_backends_disjoint() {
        let cache = ResultCache::new();
        let (id, value) = sample();
        let virtual_key = ResultCache::scoped_key("virtual", &id);
        let external_key = ResultCache::scoped_key("extcc[gcc=gcc(13)]", &id);
        assert_ne!(virtual_key, external_key);
        cache.insert(virtual_key.clone(), value);
        // The same program under a different backend is a miss.
        assert!(cache.get(&external_key).is_none());
        assert!(cache.get(&virtual_key).is_some());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }
}
