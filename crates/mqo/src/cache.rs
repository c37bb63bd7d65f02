//! Memoisation cache for shared sub-expressions.

use crate::lru::LruCache;
use std::sync::Arc;
use urm_engine::{DagResultCache, EngineResult, Executor, OperatorDag, PhysicalPlan, Plan};
use urm_storage::Relation;

/// A cache mapping *bound* sub-plan fingerprints to their materialised results.
///
/// Executing a plan "through" the cache binds it once ([`Executor::bind`]) and evaluates each
/// distinct physical sub-expression once; subsequent queries containing the same sub-expression
/// reuse the materialised relation.  This is the execution-side half of the e-MQO baseline,
/// and — bounded — the batch-wide sub-plan cache of the serving layer.
///
/// Keys are [`PhysicalPlan::fingerprint`]s: identity-based for leaves (relation name, alias and
/// row-buffer pointer for scans; schema and row-buffer pointer for `Values`), structural above
/// them.  Two epochs' same-named relations therefore never collide, fingerprinting never hashes
/// row *contents*, and a cache hit returns the stored `Arc` itself — the hit flows into the
/// parent operator as a shared view, with zero relation copies end-to-end.  The flip side of
/// identity-based keys: a cache must not outlive the catalog (and any `Values` relations) its
/// plans were bound against, which the per-batch/per-epoch caches of the serving layer satisfy
/// by construction.
///
/// By default the cache is unbounded (the e-MQO baseline materialises every distinct
/// sub-expression of one evaluation).  [`with_capacity`](SharedPlanCache::with_capacity) bounds
/// the number of resident materialised relations with least-recently-used eviction, which is
/// what a long-lived service needs: an evicted sub-plan is simply recomputed on its next use.
#[derive(Debug)]
pub struct SharedPlanCache {
    results: LruCache<u64, Arc<Relation>>,
    /// The persistent sharing graph: bound plans are merged once (an `Arc` pointer walk) and
    /// every later execution of an already-merged plan reuses its nodes instead of rebuilding a
    /// DAG from scratch.  Nodes are tiny (shared plan handle + edge lists), so this grows with
    /// the number of *distinct* bound operators the cache has seen, while the LRU keeps the
    /// materialised results bounded.
    dag: OperatorDag,
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache::new()
    }
}

impl SharedPlanCache {
    /// Creates an empty, unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        SharedPlanCache {
            results: LruCache::unbounded(),
            dag: OperatorDag::new(),
        }
    }

    /// Creates an empty cache holding at most `capacity` materialised sub-plans (LRU-evicted).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SharedPlanCache {
            results: LruCache::with_capacity(capacity),
            dag: OperatorDag::new(),
        }
    }

    /// Creates an empty cache bounded by *bytes held* instead of entry count: each published
    /// sub-plan result is weighted by its
    /// [`estimated_bytes`](urm_storage::Relation::estimated_bytes) (rows for a row result,
    /// index vectors for a late-materialized one), and least-recently-used
    /// results are evicted once the total exceeds `bytes` — the accounting a memory-budgeted
    /// deployment wants, since one join result can outweigh a thousand selections.
    #[must_use]
    pub fn with_byte_budget(bytes: usize) -> Self {
        SharedPlanCache {
            results: LruCache::with_byte_budget(bytes),
            dag: OperatorDag::new(),
        }
    }

    /// Estimated bytes of the materialised results currently resident (entry count when the
    /// cache is count-bounded — plain inserts weigh 1).
    #[must_use]
    pub fn resident_weight(&self) -> usize {
        self.results.total_weight()
    }

    /// The configured capacity (`None` when unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.results.capacity()
    }

    /// Number of cache hits so far (delegated to the LRU store — one counter set, no drift).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.results.hits()
    }

    /// Number of cache misses (distinct sub-expressions executed).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.results.misses()
    }

    /// Number of materialised sub-plans evicted to stay within the capacity.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.results.evictions()
    }

    /// Fraction of lookups answered from the cache (0 when nothing was looked up yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.results.hit_rate()
    }

    /// Number of distinct materialised sub-expressions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Executes `plan` with sub-expression sharing: the plan is bound once, then every bound
    /// sub-plan that is already cached is replaced by its materialised result, and newly
    /// computed results are inserted.
    pub fn execute_shared(
        &mut self,
        plan: &Plan,
        exec: &mut Executor<'_>,
    ) -> EngineResult<Arc<Relation>> {
        let physical = exec.bind(plan)?;
        self.execute_shared_physical(&physical, exec)
    }

    /// Executes an already-bound plan through the cache (see
    /// [`execute_shared`](SharedPlanCache::execute_shared)).
    ///
    /// The cache is a thin front-end of the engine's shared-operator DAG runtime: the bound
    /// plan is merged into the cache's *persistent* [`OperatorDag`] (an `Arc` pointer walk —
    /// the plan's children are Arc-shared, so no subtree is cloned, and a plan seen before adds
    /// zero nodes) and resolved through [`OperatorDag::resolve_root`] with this cache's LRU
    /// store plugged in as the [`DagResultCache`].  A stored node prunes its whole subgraph;
    /// child results — cached or fresh — flow into parent operators as shared views
    /// ([`Executor::execute_node`]), so no intermediate relation is ever copied.
    pub fn execute_shared_physical(
        &mut self,
        plan: &Arc<PhysicalPlan>,
        exec: &mut Executor<'_>,
    ) -> EngineResult<Arc<Relation>> {
        let root = self.dag.add_plan(plan);
        let mut store = LruStore {
            results: &mut self.results,
        };
        self.dag.resolve_root(root, exec, &mut store)
    }

    /// Distinct bound operators merged into the cache's persistent sharing graph.
    #[must_use]
    pub fn dag_nodes(&self) -> usize {
        self.dag.node_count()
    }
}

/// The [`DagResultCache`] view of the LRU store (split off so the persistent DAG can be
/// borrowed alongside it during resolution).  Hit/miss accounting lives in the
/// [`LruCache`] itself.
struct LruStore<'a> {
    results: &'a mut LruCache<u64, Arc<Relation>>,
}

impl DagResultCache for LruStore<'_> {
    fn lookup(&mut self, fingerprint: u64) -> Option<Arc<Relation>> {
        self.results.get(&fingerprint).map(Arc::clone)
    }

    fn publish(&mut self, fingerprint: u64, result: &Arc<Relation>) {
        if self.results.weight_budget().is_some() {
            let bytes = result.estimated_bytes().max(1);
            self.results
                .insert_weighted(fingerprint, Arc::clone(result), bytes);
        } else {
            self.results.insert(fingerprint, Arc::clone(result));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_engine::Predicate;
    use urm_storage::{Attribute, Catalog, DataType, Schema, Tuple, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(
            "R",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("b", DataType::Text),
            ],
        );
        let rows = (0..10)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    Value::from(if i % 2 == 0 { "x" } else { "y" }),
                ])
            })
            .collect();
        let mut cat = Catalog::new();
        cat.insert(Relation::new(schema, rows).unwrap());
        cat
    }

    #[test]
    fn identical_plans_share_one_execution() {
        let cat = catalog();
        let mut cache = SharedPlanCache::new();
        let mut exec = Executor::new(&cat);
        let plan = Plan::scan("R").select(Predicate::eq("R.b", Value::from("x")));
        let a = cache.execute_shared(&plan, &mut exec).unwrap();
        let b = cache.execute_shared(&plan, &mut exec).unwrap();
        assert_eq!(a.len(), 5);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        // One miss for the scan, one for the selection.
        assert_eq!(cache.misses(), 2);
        // The scan itself executed only once.
        assert_eq!(exec.stats().scans, 1);
        // The persistent sharing graph holds each distinct bound operator once, however many
        // times the plan is re-executed (the re-bound tree dedups onto the same nodes).
        assert_eq!(cache.dag_nodes(), 2);
    }

    #[test]
    fn shared_prefix_is_reused_across_different_queries() {
        let cat = catalog();
        let mut cache = SharedPlanCache::new();
        let mut exec = Executor::new(&cat);
        let base = Plan::scan("R").select(Predicate::eq("R.b", Value::from("x")));
        let q1 = base.clone().project(vec!["R.a".into()]);
        let q2 = base.clone().project(vec!["R.b".into()]);
        cache.execute_shared(&q1, &mut exec).unwrap();
        cache.execute_shared(&q2, &mut exec).unwrap();
        // Scan and selection shared; only the two projections are distinct on top.
        assert_eq!(exec.stats().scans, 1);
        assert_eq!(cache.len(), 4); // scan, select, 2 projections
        assert_eq!(cache.hits(), 1); // q2 hit the cached selection
    }

    #[test]
    fn results_match_unshared_execution() {
        let cat = catalog();
        let mut cache = SharedPlanCache::new();
        let mut exec = Executor::new(&cat);
        let plan = Plan::scan("R")
            .select(Predicate::eq("R.b", Value::from("y")))
            .project(vec!["R.a".into()]);
        let shared = cache.execute_shared(&plan, &mut exec).unwrap();
        let direct = Executor::new(&cat).run(&plan).unwrap();
        assert_eq!(shared.rows(), direct.rows());
    }

    #[test]
    fn empty_cache_reports_empty() {
        let cache = SharedPlanCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.hit_rate(), 0.0);
        assert_eq!(cache.capacity(), None);
    }

    #[test]
    fn byte_budgeted_cache_evicts_by_result_size() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let sel_x = Plan::scan("R").select(Predicate::eq("R.b", Value::from("x")));
        let sel_y = Plan::scan("R").select(Predicate::eq("R.b", Value::from("y")));
        // Room for the scan plus one selection result (a late-materialized view, weighed at
        // its index vector), nothing more: measured on an unconstrained cache first.
        let budget = {
            let mut roomy = SharedPlanCache::with_byte_budget(usize::MAX);
            roomy.execute_shared(&sel_x, &mut exec).unwrap();
            roomy.resident_weight()
        };
        assert!(budget > cat.get("R").unwrap().estimated_bytes());
        let mut cache = SharedPlanCache::with_byte_budget(budget);

        let first = cache.execute_shared(&sel_x, &mut exec).unwrap();
        assert_eq!(cache.resident_weight(), budget);
        assert_eq!(cache.evictions(), 0);
        cache.execute_shared(&sel_y, &mut exec).unwrap();
        assert!(
            cache.evictions() > 0,
            "the second selection must displace something by bytes"
        );
        assert!(cache.resident_weight() <= budget);
        // Evicted or not, recomputation reproduces identical rows.
        let again = cache.execute_shared(&sel_x, &mut exec).unwrap();
        assert_eq!(again.rows(), first.rows());
    }

    #[test]
    fn bounded_cache_evicts_lru_and_recomputes() {
        let cat = catalog();
        // Capacity 2: the scan plus one selection fit; a second selection evicts the first.
        let mut cache = SharedPlanCache::with_capacity(2);
        let mut exec = Executor::new(&cat);
        let sel_x = Plan::scan("R").select(Predicate::eq("R.b", Value::from("x")));
        let sel_y = Plan::scan("R").select(Predicate::eq("R.b", Value::from("y")));

        let first = cache.execute_shared(&sel_x, &mut exec).unwrap();
        assert_eq!(cache.misses(), 2); // scan + selection
        cache.execute_shared(&sel_y, &mut exec).unwrap();
        assert_eq!(cache.hits(), 1); // the scan was reused…
        assert_eq!(cache.evictions(), 1); // …and sel_x was evicted to admit sel_y
        assert_eq!(cache.len(), 2);

        // sel_x is gone, so running it again recomputes — with identical results.
        let again = cache.execute_shared(&sel_x, &mut exec).unwrap();
        assert_eq!(again.rows(), first.rows());
        assert!(cache.misses() > 3);
        assert!(cache.hit_rate() > 0.0 && cache.hit_rate() < 1.0);
        assert_eq!(cache.capacity(), Some(2));
    }
}
