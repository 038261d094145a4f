//! The result cache of external-backend campaigns.
//!
//! Generators produce structurally duplicate programs: Direct-Prompt's
//! unguided sampling repeats knowledge-base programs outright, and
//! campaigns that share a seed regenerate each other's programs.
//! Campaigns derive each program's input set from the program's
//! structural hash (see `llm4fp::campaign`), so a duplicate program is
//! guaranteed to produce a bit-identical [`ProgramDiffResult`], and
//! caching by structural `program_id` is semantically transparent: a
//! campaign served by the cache returns exactly the result it would have
//! computed.
//!
//! The orchestrator builds at most one cache per run, in process, and
//! hands it only to campaigns on the external backend. There a hit skips
//! every process spawn of the duplicate's matrix: one compiler spawn per
//! configuration plus one binary spawn per input set, so 24 for the usual
//! detected gcc + clang matrix (2 compilers × 6 levels). On the virtual
//! backend recomputing a duplicate costs less than holding every result.
//!
//! Keys are [`ResultCache::scoped_key`]s: the caller's scope (the
//! runner's backend fingerprint, input seed, precision and matrix) joined
//! to the structural program id, so campaigns share an entry only when
//! they would compute the same result. Hit/miss counters are advisory
//! statistics: under concurrent execution two workers may both miss on
//! the same program and compute it twice — the merged campaign result is
//! unaffected because both computations are bit-identical.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use llm4fp_compiler::{CompilerId, OptLevel};

use crate::matrix::ProgramDiffResult;

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

/// Concurrent map from scoped program key to [`CachedDiff`]. One lock
/// suffices: each lookup stands in for a whole matrix of process spawns.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: Mutex<HashMap<String, CachedDiff>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Compose the scoped cache key for a program: a scope (everything
    /// besides the program that determines its result, starting with the
    /// backend fingerprint, see `ExecBackend::fingerprint`) joined to the
    /// structural program id with a separator neither side contains.
    /// Different scopes therefore occupy disjoint key spaces of one shared
    /// cache — sharing the map is always sound.
    pub fn scoped_key(scope: &str, program_id: &str) -> String {
        format!("{scope}\u{1f}{program_id}")
    }

    /// Look up a program by scoped key, counting a hit or miss.
    pub fn get(&self, program_id: &str) -> Option<CachedDiff> {
        let found = self.entries.lock().unwrap().get(program_id).cloned();
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
        self.entries.lock().unwrap().insert(program_id, cached);
    }

    /// Number of distinct programs currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
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
