//! The resident target registry: compiled [`PreparedTarget`]s held hot
//! across requests, bounded by an entry capacity and a byte budget.
//!
//! Eviction is two-staged, reflecting the two costs a target
//! re-registration would pay:
//!
//! 1. **Shed** ([`qrhint_core::PreparedTarget::shed_caches`]) — when the
//!    registry's *byte budget* is exceeded, the least-recently-used
//!    targets drop their rebuildable caches (advice cache, the shared
//!    interner + verdict cache) but keep the compiled target. The freed bytes include the interner tables, so the
//!    budget arithmetic stays truthful after shedding. The next request
//!    re-pays solver time, not compilation.
//! 2. **Drop** — when the *entry capacity* is exceeded (or shedding
//!    alone cannot satisfy the byte budget), the least-recently-used
//!    target leaves the registry entirely and its id becomes a 404.
//!
//! In-flight requests are never harmed by either stage: handlers hold
//! an `Arc` to the target for the duration of a request, so a dropped
//! target finishes its outstanding work before the memory is freed.

use qrhint_core::PreparedTarget;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bounds for a [`TargetRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Maximum resident targets; the LRU target is dropped beyond this.
    pub max_targets: usize,
    /// Approximate byte budget across every resident target's caches
    /// ([`PreparedTarget::approx_cache_bytes`]); LRU targets are shed,
    /// then dropped, to get back under it. `0` disables the budget
    /// (unlimited); a target's caches have no bound of their own, so
    /// then they grow for as long as it stays resident.
    pub max_cache_bytes: usize,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            max_targets: 64,
            max_cache_bytes: 256 * 1024 * 1024,
        }
    }
}

/// One registered target. The prepared state parses submissions with
/// the front end it was compiled with.
pub struct RegisteredTarget {
    pub id: String,
    pub prepared: PreparedTarget,
}

struct Entry {
    target: Arc<RegisteredTarget>,
    /// Recency stamp from the registry clock; larger = fresher.
    last_touch: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<String, Entry>,
}

/// What the budget enforcement did, for logs and the health endpoint.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EvictionReport {
    /// Ids whose caches were shed (targets still registered).
    pub shed: Vec<String>,
    /// Ids dropped from the registry entirely.
    pub dropped: Vec<String>,
}

impl EvictionReport {
    pub fn is_empty(&self) -> bool {
        self.shed.is_empty() && self.dropped.is_empty()
    }
}

/// Registry of hot targets behind one mutex. All operations are O(n)
/// in the (small, capacity-bounded) number of resident targets; the
/// per-request costs that matter — grading — happen outside the lock,
/// against the `Arc` the lookup handed out.
pub struct TargetRegistry {
    cfg: RegistryConfig,
    inner: Mutex<Inner>,
    clock: AtomicU64,
    next_id: AtomicU64,
    registered_total: AtomicU64,
    shed_total: AtomicU64,
    dropped_total: AtomicU64,
}

impl TargetRegistry {
    pub fn new(cfg: RegistryConfig) -> TargetRegistry {
        TargetRegistry {
            cfg,
            inner: Mutex::new(Inner::default()),
            clock: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            registered_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            dropped_total: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &RegistryConfig {
        &self.cfg
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Register a compiled target, returning its handle and whatever
    /// eviction the capacity bound forced. The new target is the
    /// freshest entry and is never its own eviction victim.
    pub fn register(&self, prepared: PreparedTarget) -> (Arc<RegisteredTarget>, EvictionReport) {
        let id = format!("t{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let target = Arc::new(RegisteredTarget { id: id.clone(), prepared });
        self.registered_total.fetch_add(1, Ordering::Relaxed);
        let mut report = EvictionReport::default();
        {
            let mut inner = self.inner.lock().unwrap();
            inner.map.insert(
                id,
                Entry { target: Arc::clone(&target), last_touch: self.tick() },
            );
            self.drop_over_capacity(&mut inner, &mut report);
        }
        (target, report)
    }

    /// Look up a target by id, refreshing its LRU recency.
    pub fn get(&self, id: &str) -> Option<Arc<RegisteredTarget>> {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.map.get_mut(id)?;
        entry.last_touch = self.tick();
        Some(Arc::clone(&entry.target))
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident ids, LRU-first (diagnostics and tests).
    pub fn ids_lru_first(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        let mut entries: Vec<(&String, u64)> =
            inner.map.iter().map(|(id, e)| (id, e.last_touch)).collect();
        entries.sort_by_key(|(_, touch)| *touch);
        entries.into_iter().map(|(id, _)| id.clone()).collect()
    }

    /// Sum of every resident target's approximate cache bytes.
    pub fn approx_cache_bytes(&self) -> usize {
        let targets: Vec<Arc<RegisteredTarget>> = {
            let inner = self.inner.lock().unwrap();
            inner.map.values().map(|e| Arc::clone(&e.target)).collect()
        };
        // Walk the per-target accounting outside the registry lock —
        // it takes per-target locks of its own.
        targets.iter().map(|t| t.prepared.approx_cache_bytes()).sum()
    }

    /// Every resident target, in no particular order, *without*
    /// touching LRU recency — for metrics aggregation, which must
    /// observe the registry rather than perturb its eviction order.
    pub fn snapshot_targets(&self) -> Vec<Arc<RegisteredTarget>> {
        let inner = self.inner.lock().unwrap();
        inner.map.values().map(|e| Arc::clone(&e.target)).collect()
    }

    /// Lifetime counters: (registered, shed, dropped).
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.registered_total.load(Ordering::Relaxed),
            self.shed_total.load(Ordering::Relaxed),
            self.dropped_total.load(Ordering::Relaxed),
        )
    }

    /// Enforce the byte budget: shed LRU targets' caches until under
    /// budget, and if every target has been shed and the estimate still
    /// exceeds the budget, drop LRU targets (never the freshest one).
    /// Call after cache-growing requests (advise/grade); cheap when
    /// under budget.
    pub fn enforce_byte_budget(&self) -> EvictionReport {
        let mut report = EvictionReport::default();
        if self.cfg.max_cache_bytes == 0 {
            return report;
        }
        let mut total = self.approx_cache_bytes();
        if total <= self.cfg.max_cache_bytes {
            return report;
        }
        for id in self.ids_lru_first() {
            if total <= self.cfg.max_cache_bytes {
                break;
            }
            let Some(target) = self.peek(&id) else { continue };
            let freed = target.prepared.shed_caches();
            self.shed_total.fetch_add(1, Ordering::Relaxed);
            report.shed.push(id);
            total = total.saturating_sub(freed);
        }
        // Shedding zeroes the rebuildable caches; if the recomputed
        // estimate is somehow still over budget (tiny budgets), fall
        // back to dropping LRU targets, keeping at least the freshest.
        total = self.approx_cache_bytes();
        if total > self.cfg.max_cache_bytes {
            let mut inner = self.inner.lock().unwrap();
            while inner.map.len() > 1 {
                let Some(victim) = Self::lru_id(&inner) else { break };
                inner.map.remove(&victim);
                self.dropped_total.fetch_add(1, Ordering::Relaxed);
                report.dropped.push(victim);
                let resident: Vec<Arc<RegisteredTarget>> =
                    inner.map.values().map(|e| Arc::clone(&e.target)).collect();
                drop(inner);
                total = resident.iter().map(|t| t.prepared.approx_cache_bytes()).sum();
                if total <= self.cfg.max_cache_bytes {
                    return report;
                }
                inner = self.inner.lock().unwrap();
            }
        }
        report
    }

    /// Lookup without touching recency (internal to eviction, which
    /// must not promote its own victims).
    fn peek(&self, id: &str) -> Option<Arc<RegisteredTarget>> {
        let inner = self.inner.lock().unwrap();
        inner.map.get(id).map(|e| Arc::clone(&e.target))
    }

    fn lru_id(inner: &Inner) -> Option<String> {
        inner
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_touch)
            .map(|(id, _)| id.clone())
    }

    fn drop_over_capacity(&self, inner: &mut Inner, report: &mut EvictionReport) {
        while inner.map.len() > self.cfg.max_targets.max(1) {
            let Some(victim) = Self::lru_id(inner) else { break };
            inner.map.remove(&victim);
            self.dropped_total.fetch_add(1, Ordering::Relaxed);
            report.dropped.push(victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrhint_core::QrHint;
    use qrhint_sqlast::{Schema, SqlType};

    fn prepared(price: i64) -> PreparedTarget {
        let schema = Schema::new().with_table(
            "Serves",
            &[("bar", SqlType::Str), ("price", SqlType::Int)],
            &["bar"],
        );
        QrHint::new(schema)
            .compile_target(&format!("SELECT s.bar FROM Serves s WHERE s.price >= {price}"))
            .unwrap()
    }

    fn registry(max_targets: usize) -> TargetRegistry {
        TargetRegistry::new(RegistryConfig { max_targets, ..RegistryConfig::default() })
    }

    #[test]
    fn ids_are_unique_and_resolvable() {
        let reg = registry(8);
        let (a, _) = reg.register(prepared(1));
        let (b, _) = reg.register(prepared(2));
        assert_ne!(a.id, b.id);
        assert_eq!(reg.get(&a.id).unwrap().id, a.id);
        assert_eq!(reg.len(), 2);
        assert!(reg.get("t999").is_none());
    }

    #[test]
    fn capacity_drops_the_least_recently_used() {
        let reg = registry(2);
        let (a, _) = reg.register(prepared(1));
        let (b, _) = reg.register(prepared(2));
        // Touch `a` so `b` is the LRU when the third target arrives.
        reg.get(&a.id).unwrap();
        let (c, report) = reg.register(prepared(3));
        assert_eq!(report.dropped, vec![b.id.clone()]);
        assert!(reg.get(&b.id).is_none(), "evicted id must 404");
        assert!(reg.get(&a.id).is_some());
        assert!(reg.get(&c.id).is_some());
    }

    #[test]
    fn byte_budget_sheds_caches_before_dropping_targets() {
        let reg = TargetRegistry::new(RegistryConfig {
            max_targets: 8,
            // Below even one target's base footprint once it has graded
            // something, so enforcement must act.
            max_cache_bytes: 1,
        });
        let (a, _) = reg.register(prepared(1));
        a.prepared
            .advise_sql("SELECT s.bar FROM Serves s WHERE s.price > 1")
            .unwrap();
        assert!(a.prepared.stats().advice_cache_entries > 0);
        let report = reg.enforce_byte_budget();
        assert!(report.shed.contains(&a.id));
        let stats = a.prepared.stats();
        assert_eq!(stats.advice_cache_entries, 0, "caches shed");
        assert_eq!(stats.verdict_cache_entries, 0, "verdicts shed");
        assert!(stats.verdict_cache_evictions > 0, "the shed counts its verdicts: {stats:?}");
        // The freshest (only) target is never dropped.
        assert!(reg.get(&a.id).is_some());
    }

    #[test]
    fn generous_budget_is_a_no_op() {
        let reg = registry(8);
        let (a, _) = reg.register(prepared(1));
        a.prepared
            .advise_sql("SELECT s.bar FROM Serves s WHERE s.price > 1")
            .unwrap();
        assert!(reg.enforce_byte_budget().is_empty());
        assert!(a.prepared.stats().advice_cache_entries > 0);
    }
}
