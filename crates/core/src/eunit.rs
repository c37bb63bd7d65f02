//! Execution units (e-units) — the state of a partially executed target query (Section V).
//!
//! An e-unit captures: which target operators have already been executed, the set of mappings
//! that share the correspondences those operators used, and — per connected group of target
//! aliases — the *logical* source plan those operators built: the covering scans pulled in so
//! far, multiplied, under the selections executed on them.  No executed relation is stored here:
//! the u-trace runner ([`crate::algorithms::osharing`]) probes a plan's factors on its DAG and
//! answers a leaf with the reformulated source query.  The u-trace of the paper is the tree of
//! e-units that the recursive evaluation (`run_qt`) produces; in this implementation the tree is
//! implicit in that recursion, and `EUnit` is the node payload.

use crate::query::{QueryOutput, TargetOp, TargetPredicate, TargetQuery};
use std::collections::BTreeSet;
use urm_engine::{Plan, Predicate};
use urm_storage::AttrRef;

/// One connected group of target aliases and the source plan built for it so far.
#[derive(Debug, Clone)]
pub struct Component {
    /// The target aliases folded into this component.
    pub aliases: BTreeSet<String>,
    /// The logical plan over scans built for the component, if any operator has touched it yet.
    pub plan: Option<Plan>,
}

impl Component {
    fn single(alias: &str) -> Self {
        Component {
            aliases: std::iter::once(alias.to_string()).collect(),
            plan: None,
        }
    }

    /// Multiplies the scan of `relation` as `alias` into the plan, unless it is already there.
    pub(crate) fn cover(&mut self, relation: String, alias: String) {
        let scan = Plan::scan_as(relation, alias);
        self.plan = Some(match self.plan.take() {
            None => scan,
            Some(plan) if plan.subplans().contains(&&scan) => plan,
            Some(plan) => plan.product(scan),
        });
    }

    /// Applies a selection to the plan (whose scans cover the predicate's columns).
    pub(crate) fn select(&mut self, predicate: Predicate) {
        self.plan = self.plan.take().map(|plan| plan.select(predicate));
    }
}

/// The state of a partially executed target query shared by a set of mappings.
#[derive(Debug, Clone)]
pub struct EUnit {
    /// Indices (into the representative-mapping list) of the mappings sharing this state.
    pub mapping_indices: Vec<usize>,
    /// Total probability of those mappings.
    pub probability: f64,
    /// Connected components of the query's aliases.
    pub components: Vec<Component>,
    /// Indices of the predicates already executed.
    pub executed_predicates: BTreeSet<usize>,
    /// Whether the output operator (projection / aggregate) has been executed.
    pub output_done: bool,
}

impl EUnit {
    /// The initial e-unit: every alias in its own component, nothing executed.
    #[must_use]
    pub fn initial(query: &TargetQuery, mapping_indices: Vec<usize>, probability: f64) -> Self {
        EUnit {
            mapping_indices,
            probability,
            components: query
                .relations()
                .iter()
                .map(|b| Component::single(&b.alias))
                .collect(),
            executed_predicates: BTreeSet::new(),
            output_done: false,
        }
    }

    /// Index of the component containing `alias`.
    #[must_use]
    pub fn component_of(&self, alias: &str) -> Option<usize> {
        self.components
            .iter()
            .position(|c| c.aliases.contains(alias))
    }

    /// Whether every predicate of the query has been executed.
    #[must_use]
    pub fn predicates_done(&self, query: &TargetQuery) -> bool {
        self.executed_predicates.len() == query.predicates().len()
    }

    /// Whether the whole query has been executed for this e-unit.
    #[must_use]
    pub fn is_complete(&self, query: &TargetQuery) -> bool {
        self.predicates_done(query) && self.output_done
    }

    /// The target operators that may legally be executed next (`next()`'s correctness filter,
    /// Section VI-A):
    ///
    /// * a comparison selection is always executable;
    /// * an attribute-equality selection requires both attributes to live in the same component
    ///   (otherwise the connecting product must run first);
    /// * a product requires two distinct components;
    /// * the output operator requires all predicates done and a single remaining component.
    #[must_use]
    pub fn valid_operators(&self, query: &TargetQuery) -> Vec<TargetOp> {
        let mut ops = Vec::new();
        for (i, pred) in query.predicates().iter().enumerate() {
            if self.executed_predicates.contains(&i) {
                continue;
            }
            match pred {
                TargetPredicate::Compare { .. } => ops.push(TargetOp::Predicate(i)),
                TargetPredicate::AttrEq { left, right } => {
                    if let (Some(a), Some(b)) = (
                        self.component_of(&left.alias),
                        self.component_of(&right.alias),
                    ) {
                        if a == b {
                            ops.push(TargetOp::Predicate(i));
                        }
                    }
                }
            }
        }
        // Products between every pair of distinct components (represented by their first alias).
        for i in 0..self.components.len() {
            for j in (i + 1)..self.components.len() {
                let left_alias = self.components[i]
                    .aliases
                    .iter()
                    .next()
                    .expect("components are never empty")
                    .clone();
                let right_alias = self.components[j]
                    .aliases
                    .iter()
                    .next()
                    .expect("components are never empty")
                    .clone();
                ops.push(TargetOp::Product {
                    left_alias,
                    right_alias,
                });
            }
        }
        if !self.output_done && self.predicates_done(query) && self.components.len() == 1 {
            ops.push(TargetOp::Output);
        }
        ops
    }

    /// The target attributes whose correspondences are needed to execute `op` — the attributes
    /// the mapping set is partitioned on before the operator is reformulated.
    ///
    /// A product only needs correspondences for the side(s) that have no plan yet (Case 1 of the
    /// binary reformulation rule needs none at all).
    #[must_use]
    pub fn used_attributes(&self, query: &TargetQuery, op: &TargetOp) -> Vec<AttrRef> {
        match op {
            TargetOp::Predicate(i) => query.predicates()[*i]
                .attributes()
                .into_iter()
                .cloned()
                .collect(),
            TargetOp::Product {
                left_alias,
                right_alias,
            } => {
                let mut attrs = Vec::new();
                for alias in [left_alias, right_alias] {
                    if let Some(ci) = self.component_of(alias) {
                        let comp = &self.components[ci];
                        if comp.plan.is_none() {
                            for a in &comp.aliases {
                                attrs.extend(query.attributes_of_alias(a));
                            }
                        }
                    }
                }
                // The product also consumes the correspondences of any still-pending join
                // predicate that connects the two components: executing the product rearranges
                // those predicates into the join (the paper's `reorder_op`), so the partition
                // must respect them as well.
                for (i, pred) in query.predicates().iter().enumerate() {
                    if self.executed_predicates.contains(&i) {
                        continue;
                    }
                    if let TargetPredicate::AttrEq { left, right } = pred {
                        if self.spans_components(left_alias, right_alias, left, right) {
                            attrs.push(left.clone());
                            attrs.push(right.clone());
                        }
                    }
                }
                attrs
            }
            TargetOp::Output => match query.output() {
                QueryOutput::Count => Vec::new(),
                QueryOutput::Sum(attr) => vec![attr.clone()],
                QueryOutput::Tuples(attrs) => attrs.clone(),
            },
        }
    }

    /// Whether the given attribute pair connects the components of `left_alias` and
    /// `right_alias` (in either direction).
    #[must_use]
    pub fn spans_components(
        &self,
        left_alias: &str,
        right_alias: &str,
        a: &AttrRef,
        b: &AttrRef,
    ) -> bool {
        let (Some(lc), Some(rc)) = (
            self.component_of(left_alias),
            self.component_of(right_alias),
        ) else {
            return false;
        };
        let (Some(ac), Some(bc)) = (self.component_of(&a.alias), self.component_of(&b.alias))
        else {
            return false;
        };
        (ac == lc && bc == rc) || (ac == rc && bc == lc)
    }

    /// The indices of the still-pending join predicates that connect the components of the two
    /// aliases — the predicates a product execution folds into its join condition.
    #[must_use]
    pub fn spanning_join_predicates(
        &self,
        query: &TargetQuery,
        left_alias: &str,
        right_alias: &str,
    ) -> Vec<usize> {
        query
            .predicates()
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.executed_predicates.contains(i))
            .filter_map(|(i, pred)| match pred {
                TargetPredicate::AttrEq { left, right }
                    if self.spans_components(left_alias, right_alias, left, right) =>
                {
                    Some(i)
                }
                _ => None,
            })
            .collect()
    }

    /// Marks a predicate as executed (used by the o-sharing driver when building children).
    pub fn mark_predicate(&mut self, index: usize) {
        self.executed_predicates.insert(index);
    }

    /// Merges components `a` and `b` into one whose plan is the product of theirs, returning its
    /// index.
    pub fn merge_components(&mut self, a: usize, b: usize) -> usize {
        assert_ne!(a, b, "cannot merge a component with itself");
        let (keep, remove) = if a < b { (a, b) } else { (b, a) };
        let removed = self.components.remove(remove);
        let target = &mut self.components[keep];
        target.aliases.extend(removed.aliases);
        target.plan = match (target.plan.take(), removed.plan) {
            (Some(left), Some(right)) => Some(left.product(right)),
            (one, other) => one.or(other),
        };
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn initial_state_has_one_component_per_alias() {
        let q = testkit::q2_product();
        let u = EUnit::initial(&q, vec![0, 1, 2], 0.7);
        assert_eq!(u.components.len(), 2);
        assert_eq!(u.component_of("Person"), Some(0));
        assert_eq!(u.component_of("Order"), Some(1));
        assert_eq!(u.component_of("Ghost"), None);
        assert!(!u.is_complete(&q));
    }

    #[test]
    fn valid_operators_initially_exclude_output() {
        let q = testkit::q2_product();
        let u = EUnit::initial(&q, vec![0], 1.0);
        let ops = u.valid_operators(&q);
        // Two comparison predicates plus the product; output not yet valid.
        assert_eq!(ops.len(), 3);
        assert!(!ops.contains(&TargetOp::Output));
        assert!(ops.iter().any(|o| matches!(o, TargetOp::Product { .. })));
    }

    #[test]
    fn output_becomes_valid_after_predicates_and_merge() {
        let q = testkit::q2_product();
        let mut u = EUnit::initial(&q, vec![0], 1.0);
        u.mark_predicate(0);
        u.mark_predicate(1);
        assert!(u.predicates_done(&q));
        // Still two components → output not valid yet.
        assert!(!u.valid_operators(&q).contains(&TargetOp::Output));
        u.merge_components(0, 1);
        assert_eq!(u.components.len(), 1);
        let ops = u.valid_operators(&q);
        assert!(ops.contains(&TargetOp::Output));
    }

    #[test]
    fn join_predicate_requires_same_component() {
        let q = TargetQuery::builder("join-q")
            .relation("PO")
            .relation("Item")
            .join("PO.orderNum", "Item.orderNum")
            .returning(["Item.itemNum"])
            .build()
            .unwrap();
        let mut u = EUnit::initial(&q, vec![0], 1.0);
        // Before the product, the join predicate is not a valid operator.
        assert!(!u.valid_operators(&q).contains(&TargetOp::Predicate(0)));
        u.merge_components(0, 1);
        assert!(u.valid_operators(&q).contains(&TargetOp::Predicate(0)));
    }

    #[test]
    fn used_attributes_for_each_operator_kind() {
        let q = testkit::q2_product();
        let u = EUnit::initial(&q, vec![0], 1.0);
        // Predicate 0 = Person.phone comparison.
        let attrs = u.used_attributes(&q, &TargetOp::Predicate(0));
        assert_eq!(attrs, vec![AttrRef::new("Person", "phone")]);
        // Product with both sides unmaterialised uses the query attributes of both aliases.
        let product = TargetOp::Product {
            left_alias: "Person".into(),
            right_alias: "Order".into(),
        };
        let attrs = u.used_attributes(&q, &product);
        assert!(attrs.contains(&AttrRef::new("Person", "phone")));
        assert!(attrs.contains(&AttrRef::new("Order", "price")));
        // Output of a tuple query uses its projection attributes.
        let attrs = u.used_attributes(&q, &TargetOp::Output);
        assert_eq!(attrs.len(), 2);
        // COUNT output uses no attributes.
        let count_q = testkit::count_query();
        let cu = EUnit::initial(&count_q, vec![0], 1.0);
        assert!(cu.used_attributes(&count_q, &TargetOp::Output).is_empty());
    }

    #[test]
    fn product_with_materialised_side_needs_no_attributes_for_it() {
        let q = testkit::q2_product();
        let mut u = EUnit::initial(&q, vec![0], 1.0);
        u.components[0].plan = Some(Plan::scan("Customer"));
        let product = TargetOp::Product {
            left_alias: "Person".into(),
            right_alias: "Order".into(),
        };
        let attrs = u.used_attributes(&q, &product);
        assert!(attrs.iter().all(|a| a.alias == "Order"));
    }
}
