use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Identifies one shared deterministic computation.
///
/// Deterministic congested-clique algorithms frequently have *all* nodes of
/// a group evaluate the same function of common knowledge (e.g. the König
/// edge coloring of a globally announced demand multigraph in Algorithm 2,
/// Step 2). A scope names one such evaluation site: a static label plus a
/// dynamic tag (typically a phase number and a group index packed together).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CommonScope {
    /// Static name of the computation site (e.g. `"alg2.step2.coloring"`).
    pub label: &'static str,
    /// Dynamic disambiguator: pack phase/group indices as needed.
    pub tag: u64,
}

impl CommonScope {
    /// Creates a scope.
    pub fn new(label: &'static str, tag: u64) -> Self {
        CommonScope { label, tag }
    }
}

/// The computed value of one scope plus the input hash it was computed
/// from.
///
/// Stored behind a per-scope `OnceLock`: the map lock is only held long
/// enough to find or insert the slot, while the (potentially
/// heavyweight) compute runs under the slot's own initialization lock —
/// so *distinct* scopes compute concurrently and racing callers of the
/// *same* scope still compute exactly once.
struct SlotValue {
    input_hash: u64,
    value: Arc<dyn Any + Send + Sync>,
}

/// One scope's compute-once cell.
type ScopeSlot = OnceLock<SlotValue>;

/// Memoizes computations that are common knowledge across nodes, verifying
/// the common-knowledge assumption at runtime.
///
/// The first node to evaluate a [`CommonScope`] computes the value; later
/// nodes receive the cached [`Arc`]. Every caller supplies a hash of its
/// *local view* of the input; if two nodes ever disagree, the protocol's
/// common-knowledge assumption is broken and the cache panics with a
/// diagnostic — a distributed-correctness assertion, not merely an
/// optimization.
///
/// Internally the cache is two-level: a short-lived map lock resolves a
/// scope to its per-scope once-slot, and the compute closure runs under
/// that slot alone. Under parallel stepping, distinct heavyweight scopes
/// (e.g. the per-group König colorings of one round of Algorithm 2) are
/// therefore evaluated concurrently on different workers instead of
/// serializing on a single cache-wide lock.
///
/// # Panics
///
/// [`CommonCache::get_or_compute`] panics if a second caller presents a
/// different `input_hash` for the same scope, or if the cached value's type
/// differs from the requested one.
#[derive(Default)]
pub struct CommonCache {
    entries: Mutex<HashMap<CommonScope, Arc<ScopeSlot>>>,
}

impl std::fmt::Debug for CommonCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.len();
        write!(f, "CommonCache({n} entries)")
    }
}

impl CommonCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the scope map, recovering from poisoning: a panic elsewhere
    /// (e.g. a divergence assertion on another worker) must not cascade
    /// into an unrelated panic message here.
    fn lock_entries(&self) -> std::sync::MutexGuard<'_, HashMap<CommonScope, Arc<ScopeSlot>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the memoized value for `scope`, computing it with `compute`
    /// on first use.
    ///
    /// `input_hash` must be a hash of the caller's local view of every
    /// input that `compute` reads; see [`crate::hash`].
    ///
    /// Only the scope-to-slot lookup takes the cache-wide lock; the
    /// compute itself synchronizes per scope, so concurrent callers of
    /// different scopes never wait on each other.
    ///
    /// # Panics
    ///
    /// Panics on input-hash divergence between nodes (broken
    /// common-knowledge assumption) or on a type mismatch for the scope.
    pub fn get_or_compute<T, F>(&self, scope: CommonScope, input_hash: u64, compute: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let slot = self.lock_entries().entry(scope).or_default().clone();
        let filled = slot.get_or_init(|| SlotValue {
            input_hash,
            value: Arc::new(compute()),
        });
        assert_eq!(
            filled.input_hash, input_hash,
            "common-knowledge divergence at {}#{:x}: a node supplied input hash {:#x}, \
             but the scope was first evaluated with {:#x}",
            scope.label, scope.tag, input_hash, filled.input_hash
        );
        filled
            .value
            .clone()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("type mismatch in common scope {}", scope.label))
    }

    /// Forgets every memoized scope while keeping the map's allocation.
    ///
    /// A [`CliqueSession`](crate::CliqueSession) calls this between runs:
    /// each protocol run must start from an empty cache — both for the
    /// determinism contract (a reused session is bit-identical to a fresh
    /// one) and for correctness, since two
    /// runs may evaluate the same [`CommonScope`] from *different* inputs,
    /// which within one run would (rightly) trip the divergence assertion.
    pub fn reset(&self) {
        self.lock_entries().clear();
    }

    /// Number of distinct scopes evaluated so far.
    pub fn len(&self) -> usize {
        self.lock_entries()
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Returns `true` if no scope has been evaluated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn computes_once() {
        let cache = CommonCache::new();
        let calls = AtomicUsize::new(0);
        let scope = CommonScope::new("test", 1);
        for _ in 0..5 {
            let v = cache.get_or_compute(scope, 42, || {
                calls.fetch_add(1, Ordering::SeqCst);
                123u64
            });
            assert_eq!(*v, 123);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reset_forgets_scopes_and_divergence_history() {
        let cache = CommonCache::new();
        let scope = CommonScope::new("reset", 3);
        assert_eq!(*cache.get_or_compute(scope, 1, || 10u64), 10);
        cache.reset();
        assert!(cache.is_empty());
        // A different input hash for the same scope is fine after reset —
        // it's a new run; the recompute actually happens.
        assert_eq!(*cache.get_or_compute(scope, 2, || 20u64), 20);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_tags_are_distinct_scopes() {
        let cache = CommonCache::new();
        let a = cache.get_or_compute(CommonScope::new("t", 1), 0, || 1u64);
        let b = cache.get_or_compute(CommonScope::new("t", 2), 0, || 2u64);
        assert_eq!((*a, *b), (1, 2));
    }

    #[test]
    #[should_panic(expected = "common-knowledge divergence")]
    fn detects_divergent_inputs() {
        let cache = CommonCache::new();
        let scope = CommonScope::new("diverge", 7);
        let _ = cache.get_or_compute(scope, 1, || 0u64);
        let _ = cache.get_or_compute(scope, 2, || 0u64);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn detects_type_mismatch() {
        let cache = CommonCache::new();
        let scope = CommonScope::new("ty", 0);
        let _ = cache.get_or_compute(scope, 1, || 0u64);
        let _: Arc<String> = cache.get_or_compute(scope, 1, String::new);
    }

    /// Two workers evaluating *different* scopes must both be inside their
    /// compute closures at the same time: the barrier rendezvous deadlocks
    /// under a cache that runs computes while holding the map lock.
    #[test]
    fn distinct_scopes_compute_concurrently() {
        let cache = CommonCache::new();
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for tag in 0..2u64 {
                let (cache, barrier) = (&cache, &barrier);
                s.spawn(move || {
                    let v = cache.get_or_compute(CommonScope::new("concurrent", tag), tag, || {
                        barrier.wait();
                        tag * 10
                    });
                    assert_eq!(*v, tag * 10);
                });
            }
        });
        assert_eq!(cache.len(), 2);
    }

    /// Racing callers of the *same* scope still compute exactly once; the
    /// loser blocks on the slot and receives the winner's value.
    #[test]
    fn same_scope_race_computes_once() {
        let cache = CommonCache::new();
        let calls = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (cache, calls, barrier) = (&cache, &calls, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let v = cache.get_or_compute(CommonScope::new("race", 0), 9, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        77u64
                    });
                    assert_eq!(*v, 77);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
    }
}
