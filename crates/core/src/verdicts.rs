//! The shared solver-verdict cache: one sharded table of
//! `(formula, context) → TriBool` per
//! [`crate::session::PreparedTarget`], shared by the oracle of every
//! advise.
//!
//! With tree-keyed entries, sharing would have meant deep structural
//! compares under a shared lock. With interned formulas
//! ([`qrhint_smt::FormulaId`]) the key is a handful of `u32`s, so one
//! shared table is cheap to probe, and a verdict one advise decided
//! becomes a read-path hit for every other advise, on any thread: an
//! 8-thread classroom batch pays each distinct solver check **once**
//! instead of up to 8 times.
//!
//! Soundness and determinism: keys are ids into the same shared
//! interner, so equal keys mean structurally identical (formula, full
//! context) pairs; verdicts are deterministic functions of that content
//! (the solver is deterministic and only *definitive* verdicts are ever
//! inserted — `Unknown` may become definitive under other budgets and is
//! never cached). Reusing another thread's verdict is therefore
//! indistinguishable from recomputing it.
//!
//! Concurrency: entries are spread over [`STRIPES`] `RwLock` shards by
//! key hash; a hit takes one shard read lock and writes nothing. The
//! table only grows: it lives as long as its
//! [`crate::oracle::SolverContext`], and
//! [`crate::session::PreparedTarget::shed_caches`] drops it whole by
//! swapping in a fresh context. Each shard keeps a byte estimate of its
//! entries for the registry's accounting.

use qrhint_smt::{FormulaId, TriBool};
use std::collections::HashMap;
use std::sync::RwLock;

/// Shard count: enough that 8 grading threads rarely collide on a
/// shard write lock, small enough that accounting stays cheap.
const STRIPES: usize = 16;

/// Approximate bytes of one cached verdict: key ids + entry + two map
/// slots' overhead.
fn entry_bytes(ctx_len: usize) -> usize {
    96 + std::mem::size_of::<FormulaId>() * ctx_len
}

/// Cache key: the checked formula plus the *full* context (explicit +
/// ambient), in order. Plain integer compares — no tree walk, no bucket
/// scan, and no hash-collision verification problem: equal ids *are*
/// structural equality within the shared interner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct VerdictKey {
    pub f: FormulaId,
    pub ctx: Box<[FormulaId]>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<VerdictKey, TriBool>,
    bytes: usize,
}

/// The sharded verdict table. See the [module docs](self).
pub(crate) struct VerdictCache {
    shards: Vec<RwLock<Shard>>,
}

impl Default for VerdictCache {
    fn default() -> VerdictCache {
        VerdictCache { shards: (0..STRIPES).map(|_| RwLock::new(Shard::default())).collect() }
    }
}

impl VerdictCache {
    fn shard_of(&self, key: &VerdictKey) -> &RwLock<Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % STRIPES]
    }

    /// Probe for a cached verdict.
    pub fn get(&self, key: &VerdictKey) -> Option<TriBool> {
        self.shard_of(key).read().unwrap().map.get(key).copied()
    }

    /// Insert a definitive verdict. Racing inserts for the same key are
    /// harmless: the verdict is deterministic, so both writers store the
    /// same value, and the byte estimate counts the key once.
    pub fn insert(&self, key: VerdictKey, verdict: TriBool) {
        debug_assert_ne!(verdict, TriBool::Unknown, "only definitive verdicts are cached");
        let bytes = entry_bytes(key.ctx.len());
        let mut shard = self.shard_of(&key).write().unwrap();
        if shard.map.insert(key, verdict).is_none() {
            shard.bytes += bytes;
        }
    }

    /// Resident entries across all shards (point in time).
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().map.len()).sum()
    }

    /// Approximate resident bytes across all shards (point in time).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(f: u32, ctx: &[u32]) -> VerdictKey {
        // FormulaId has no public constructor from raw u32s; build ids
        // through a throwaway interner instead.
        let mut it = qrhint_smt::Interner::new();
        let mut ids = Vec::new();
        for i in 0..=(ctx.iter().copied().max().unwrap_or(0).max(f)) {
            let c = it.int(i as i64);
            let z = it.int(-1);
            ids.push(it.cmp(c, qrhint_smt::Rel::Gt, z));
        }
        VerdictKey {
            f: ids[f as usize],
            ctx: ctx.iter().map(|&i| ids[i as usize]).collect(),
        }
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = VerdictCache::default();
        let k = key(0, &[1, 2]);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), TriBool::False);
        assert_eq!(cache.get(&k), Some(TriBool::False));
        assert_eq!(cache.entries(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn distinct_contexts_are_distinct_keys() {
        let cache = VerdictCache::default();
        cache.insert(key(0, &[1]), TriBool::True);
        assert!(cache.get(&key(0, &[2])).is_none());
        assert!(cache.get(&key(0, &[])).is_none());
        assert_eq!(cache.get(&key(0, &[1])), Some(TriBool::True));
    }

    #[test]
    fn racing_reinserts_count_their_bytes_once() {
        let cache = VerdictCache::default();
        let k = key(0, &[1]);
        cache.insert(k.clone(), TriBool::True);
        let bytes = cache.bytes();
        cache.insert(k.clone(), TriBool::True);
        assert_eq!((cache.entries(), cache.bytes()), (1, bytes));
        assert_eq!(cache.get(&k), Some(TriBool::True));
    }
}
