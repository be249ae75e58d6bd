//! The shared solver-verdict cache: one sharded, recency-stamped,
//! byte-budgeted table of `(formula, context) → TriBool` per
//! [`crate::session::PreparedTarget`], shared by the oracle of every
//! advise in every FROM group.
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
//! key hash; hits take one shard read lock and refresh recency with an
//! atomic stamp (no write lock on the hot path). Each shard carries
//! `max_bytes / STRIPES` of the byte budget and evicts its stalest
//! entries on insert when over it.

use qrhint_smt::{FormulaId, TriBool};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Shard count: enough that 8 grading threads rarely collide on a
/// shard write lock, small enough that draining/accounting stays cheap.
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

struct Entry {
    verdict: TriBool,
    /// Oracle id that paid for the verdict. Each advise has its own
    /// oracle, so a hit by another id is a cross-advise hit
    /// ([`crate::session::SessionStats::verdict_cache_cross_thread_hits`]).
    owner: u64,
    /// Recency stamp; refreshed atomically on read-path hits.
    touched: AtomicU64,
    bytes: usize,
}

#[derive(Default)]
struct Shard {
    map: HashMap<VerdictKey, Entry>,
    bytes: usize,
}

/// The sharded verdict table. See the [module docs](self).
pub(crate) struct VerdictCache {
    shards: Vec<RwLock<Shard>>,
    /// Total byte budget (0 = unbounded); each shard enforces its slice.
    max_bytes: usize,
    clock: AtomicU64,
}

impl VerdictCache {
    pub fn new(max_bytes: usize) -> VerdictCache {
        VerdictCache {
            shards: (0..STRIPES).map(|_| RwLock::new(Shard::default())).collect(),
            max_bytes,
            clock: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &VerdictKey) -> &RwLock<Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % STRIPES]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Probe; a hit refreshes recency and reports the verdict together
    /// with the oracle id that inserted it.
    pub fn get(&self, key: &VerdictKey) -> Option<(TriBool, u64)> {
        let shard = self.shard_of(key).read().unwrap();
        let entry = shard.map.get(key)?;
        entry.touched.store(self.tick(), Ordering::Relaxed);
        Some((entry.verdict, entry.owner))
    }

    /// Insert a definitive verdict, evicting the shard's stalest entries
    /// while it is over its byte-budget slice. Returns how many entries
    /// were evicted. Racing inserts for the same key are harmless: the
    /// verdict is deterministic, so both writers store the same value.
    ///
    /// The budget is approximate by design: each shard always keeps its
    /// newest entry regardless of size, so resident bytes can overshoot
    /// `max_bytes` by up to `STRIPES ×` one entry (an entry larger than
    /// a whole shard slice — a huge ambient context — stays resident
    /// until displaced). The budget bounds growth; it is not an exact
    /// allocator limit.
    pub fn insert(&self, key: VerdictKey, verdict: TriBool, owner: u64) -> u64 {
        debug_assert_ne!(verdict, TriBool::Unknown, "only definitive verdicts are cached");
        let bytes = entry_bytes(key.ctx.len());
        let shard_budget = if self.max_bytes == 0 { usize::MAX } else { self.max_bytes / STRIPES };
        let mut shard = self.shard_of(&key).write().unwrap();
        let entry = Entry {
            verdict,
            owner,
            touched: AtomicU64::new(self.tick()),
            bytes,
        };
        if let Some(prev) = shard.map.insert(key, entry) {
            shard.bytes -= prev.bytes;
        }
        shard.bytes += bytes;
        let mut evicted = 0;
        // The fresh entry holds the newest stamp, so it is never the
        // stalest-entry victim while anything else remains. The victim
        // scan is O(shard) — same policy as the advice cache: an
        // eviction is always preceded by a full solver run, and the
        // default budget is sized so steady-state eviction is rare; a
        // workload that evicts on every insert has already fallen back
        // to solver-bound behavior where the scan is noise.
        while shard.bytes > shard_budget && shard.map.len() > 1 {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(gone) = shard.map.remove(&victim) {
                shard.bytes -= gone.bytes;
                evicted += 1;
            }
        }
        evicted
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
    fn get_after_insert_round_trips_with_owner() {
        let cache = VerdictCache::new(1 << 20);
        let k = key(0, &[1, 2]);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), TriBool::False, 7);
        assert_eq!(cache.get(&k), Some((TriBool::False, 7)));
        assert_eq!(cache.entries(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn distinct_contexts_are_distinct_keys() {
        let cache = VerdictCache::new(1 << 20);
        cache.insert(key(0, &[1]), TriBool::True, 1);
        assert!(cache.get(&key(0, &[2])).is_none());
        assert!(cache.get(&key(0, &[])).is_none());
        assert_eq!(cache.get(&key(0, &[1])), Some((TriBool::True, 1)));
    }

    #[test]
    fn byte_budget_evicts_stalest_not_freshest() {
        // A budget so small every shard holds at most one entry: each
        // insert that lands on an occupied shard must evict, and the
        // just-inserted entry must survive.
        let cache = VerdictCache::new(STRIPES);
        let mut evicted = 0;
        for i in 0..32 {
            let k = key(i, &[i]);
            evicted += cache.insert(k.clone(), TriBool::True, 0);
            assert!(cache.get(&k).is_some(), "fresh entry evicted at i={i}");
        }
        // 32 distinct keys over 16 one-entry shards: pigeonhole forces
        // evictions, and each shard keeps only its freshest entry.
        assert!(evicted >= 16, "tiny budget must evict ({evicted})");
        assert!(cache.entries() <= STRIPES);
    }

    #[test]
    fn zero_budget_is_unbounded() {
        let cache = VerdictCache::new(0);
        for i in 0..32 {
            cache.insert(key(i, &[]), TriBool::True, 0);
        }
        assert_eq!(cache.entries(), 32);
    }
}
