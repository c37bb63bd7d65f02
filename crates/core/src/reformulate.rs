//! Query reformulation: translating a target query into a source query through a mapping.
//!
//! This is the machinery every evaluation algorithm shares (Section III-B and the reformulation
//! rules of Section VI-B).  Given a mapping `m`, each target attribute used by the query is
//! replaced by its corresponding source attribute; each target relation is replaced by the
//! minimal set of source relations covering the mapped attributes (joined by a Cartesian
//! product); and the output clause determines how answer tuples are extracted so that answers
//! produced under *different* mappings can be compared and aggregated.
//!
//! The paper's answers are *sets* (Algorithm 4 removes duplicate tuples before aggregating), and
//! a tuple-producing source query says so itself: its plan is `δ π_A σ* (R1 × … × Rn)`, rooted
//! in a [`Plan::Distinct`].  The optimizer uses that to de-duplicate each factor of the product
//! before multiplying it (see `urm_engine::optimize`); COUNT and SUM stay bag-semantic.  The
//! plan built here is the literal, un-optimised one, and every algorithm hands it to the same
//! `optimize` before running it.
//!
//! Rewriting a query through a whole *mapping set* comes in two shapes.  The one every service
//! request takes is [`partitioned_reformulations`] — q-sharing's (Section IV): partition the
//! mappings by what they assign to the attributes the query mentions
//! ([`crate::partition`]), call [`reformulate`] once per partition, merge partitions that
//! reformulate equal.  The other is the paper's baseline, one [`reformulate`] per mapping with
//! the equal plans clustered afterwards; it belongs to e-basic and e-MQO and lives with them
//! ([`crate::algorithms::ebasic::clustered_reformulations`]).  Both assemble their clusters
//! through the same `Clusters` and add probabilities in mapping order, so they agree to the
//! bit.
//!
//! The last step is shared too.  [`extract_answers`] resolves an [`Extraction`] against one
//! result and hands back its rows *unbuilt* ([`AnswerRows`]), for a caller that adds one result
//! at a time with [`add_distinct`](crate::ProbabilisticAnswer::add_distinct): top-k, one
//! u-trace leaf after another.  Every other algorithm builds its answers with
//! [`crate::answer::aggregate`], which takes a query's clusters whole — each as the factors
//! whose product is its result — and resolves the same extraction by name in the factors'
//! schemas; no tuple is built, then or when the answer is ranked and rendered (see
//! [`crate::answer`]).

use crate::answer::AnswerRows;
use crate::partition::partition_mappings;
use crate::query::{QueryOutput, TargetPredicate, TargetQuery};
use crate::{CoreError, CoreResult};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use urm_engine::{AggFunc, Plan, Predicate};
use urm_matching::{Mapping, MappingSet};
use urm_storage::{AttrRef, Catalog, Name, Relation};

/// How answer tuples are read out of the result of a reformulated source query.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Extraction {
    /// The result rows are the answer tuples (aggregates).
    Raw,
    /// Build each answer tuple from the named columns of the result, in this order; `None`
    /// entries become `NULL` (an output attribute the mapping does not cover).
    Columns(Vec<Option<Name>>),
}

/// A reformulated source query: an executable plan plus the answer-extraction rule.
///
/// Two mappings that translate the target query identically produce equal `SourceQuery` values;
/// that equality is what e-basic deduplicates and what q-sharing's partitions guarantee.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceQuery {
    /// The executable source plan (literal, un-optimised form; `Distinct`-rooted when the
    /// query returns tuples).
    pub plan: Plan,
    /// How to turn result rows into answer tuples.
    pub extraction: Extraction,
}

/// The outcome of reformulating a target query through one mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Reformulated {
    /// A runnable source query.
    Query(SourceQuery),
    /// The mapping cannot produce any answer (a predicate or aggregate attribute has no
    /// corresponding source attribute under this mapping).
    Empty,
}

/// One distinct source query of a target query: the mappings that reformulate onto it, summed.
#[derive(Debug, Clone)]
pub struct ClusteredQuery {
    /// The source query every mapping of the cluster reformulates onto.
    pub query: SourceQuery,
    /// `query.plan.fingerprint()`, hashed once when the cluster was formed: the key the cluster
    /// was found under, its rank among equally probable clusters, and the key its plan is
    /// submitted to an epoch DAG under.
    pub fingerprint: u64,
    /// Total probability of the mappings in the cluster, summed in mapping order.
    pub probability: f64,
}

/// A target query rewritten through a whole mapping set: its distinct source queries, the mass
/// it cannot be rewritten through, and how many rewrites that took.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// The distinct source queries in deterministic order: descending probability, plan
    /// fingerprint as tie-break (then order of first appearance among the mappings).
    pub clusters: Vec<ClusteredQuery>,
    /// Probability mass of the mappings the query cannot be reformulated through.
    pub empty_probability: f64,
    /// Calls to [`reformulate`] made: one per mapping partition on the partition-first path,
    /// one per mapping on e-basic's.
    pub partitions: usize,
}

/// The distinct source queries met so far, in order of first appearance.  A plan is hashed
/// exactly once, when it is looked up; a fingerprint holds more than one cluster only for equal
/// plans read out differently (or a fingerprint collision).
#[derive(Default)]
pub(crate) struct Clusters {
    ordered: Vec<ClusteredQuery>,
    by_fingerprint: HashMap<u64, Vec<usize>>,
}

impl Clusters {
    /// The slot of the cluster equal to `sq`, opened with no mass if `sq` is new.
    pub(crate) fn slot(&mut self, sq: SourceQuery) -> usize {
        let fingerprint = sq.plan.fingerprint();
        let slots = self.by_fingerprint.entry(fingerprint).or_default();
        if let Some(&slot) = slots.iter().find(|&&slot| self.ordered[slot].query == sq) {
            return slot;
        }
        slots.push(self.ordered.len());
        self.ordered.push(ClusteredQuery {
            query: sq,
            fingerprint,
            probability: 0.0,
        });
        self.ordered.len() - 1
    }

    /// The source query of a cluster.
    pub(crate) fn query(&self, slot: usize) -> &SourceQuery {
        &self.ordered[slot].query
    }

    /// The number of distinct source queries met so far.
    pub(crate) fn len(&self) -> usize {
        self.ordered.len()
    }

    /// Adds one mapping's probability to a cluster.  Callers add in mapping order: a cluster's
    /// mass is a float sum, and every path must produce the same bits.
    pub(crate) fn add(&mut self, slot: usize, probability: f64) {
        self.ordered[slot].probability += probability;
    }

    /// The clusters in the order answers aggregate them in (see [`Clustering::clusters`]).
    pub(crate) fn into_ordered(self) -> Vec<ClusteredQuery> {
        let mut ordered = self.ordered;
        // Stable, so clusters equal in probability and fingerprint keep first-appearance order.
        ordered.sort_by(|a, b| {
            b.probability
                .total_cmp(&a.probability)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        ordered
    }
}

/// Rewrites `query` through the mapping set the way the paper's q-sharing does (Section IV,
/// Algorithms 1 and 3): partition the mappings by what they assign to the attributes the query
/// mentions, [`reformulate`] one representative per partition, and merge partitions whose
/// representatives reformulate equal.  This is the rewrite of batch evaluation —
/// every request the service answers.
///
/// The result is, to the bit, what rewriting through every mapping and clustering the plans
/// gives (e-basic's rewrite phase, [`crate::algorithms::ebasic::clustered_reformulations`];
/// `tests/prop_partition.rs` compares the two): a mapping's source query is a function of its
/// signature alone, and every probability — cluster masses and the empty mass — is accumulated
/// in mapping order, not partition by partition.
pub fn partitioned_reformulations(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
) -> CoreResult<Clustering> {
    let partitions = partition_mappings(query, mappings)?;
    let mut clusters = Clusters::default();
    // Per mapping, the cluster its partition reformulates onto (`None`: onto nothing).
    let mut slots: Vec<Option<usize>> = vec![None; mappings.len()];
    for partition in &partitions {
        let representative = &mappings.mappings()[partition.mapping_indices[0]];
        if let Reformulated::Query(sq) = reformulate(query, representative, catalog)? {
            let slot = clusters.slot(sq);
            for &index in &partition.mapping_indices {
                slots[index] = Some(slot);
            }
        }
    }
    let mut empty_probability = 0.0;
    for (mapping, slot) in mappings.iter().zip(slots) {
        match slot {
            Some(slot) => clusters.add(slot, mapping.probability()),
            None => empty_probability += mapping.probability(),
        }
    }
    Ok(Clustering {
        clusters: clusters.into_ordered(),
        empty_probability,
        partitions: partitions.len(),
    })
}

/// The deterministic scan alias used when target alias `target_alias` pulls in source relation
/// `source_relation`.
#[must_use]
pub fn scan_alias(target_alias: &str, source_relation: &str) -> String {
    if target_alias == source_relation {
        source_relation.to_string()
    } else {
        format!("{target_alias}__{source_relation}")
    }
}

/// The qualified source column that a target attribute reference resolves to under `mapping`,
/// or `None` when the mapping does not cover the attribute.
pub fn source_column_for(
    query: &TargetQuery,
    mapping: &Mapping,
    attr: &AttrRef,
) -> CoreResult<Option<Name>> {
    let schema_attr = query.schema_attr(attr)?;
    Ok(mapping
        .source_for(&schema_attr)
        .map(|src| source_column(attr, src)))
}

fn source_column(attr: &AttrRef, src: &AttrRef) -> Name {
    format!("{}.{}", scan_alias(&attr.alias, &src.alias), src.attr).into()
}

/// Every attribute a query uses, resolved through one mapping once: the source attribute it
/// corresponds to and the qualified source column that names, or `None` where the mapping
/// does not cover it.
struct ResolvedAttrs<'m> {
    /// [`TargetQuery::attributes_used`], in its order.
    attrs: Vec<AttrRef>,
    sources: Vec<Option<(&'m AttrRef, Name)>>,
}

impl<'m> ResolvedAttrs<'m> {
    fn new(query: &TargetQuery, mapping: &'m Mapping) -> CoreResult<Self> {
        let attrs = query.attributes_used();
        let mut sources = Vec::with_capacity(attrs.len());
        for attr in &attrs {
            let source = mapping.source_for(&query.schema_attr(attr)?);
            sources.push(source.map(|src| (src, source_column(attr, src))));
        }
        Ok(ResolvedAttrs { attrs, sources })
    }

    /// The source column of one of the query's attributes.
    fn column(&self, attr: &AttrRef) -> Option<&Name> {
        let position = self.attrs.iter().position(|a| a == attr)?;
        self.sources[position].as_ref().map(|(_, column)| column)
    }

    /// The source relations (with their scan aliases) that cover the mapped attributes of one
    /// target alias — the "minimal set of source relations" of the Section VI-B rules, sorted.
    ///
    /// Attribute names in the generated source schemas are unique to one relation, so the
    /// minimal cover is simply the set of relations owning the mapped attributes.
    fn covering_relations(
        &self,
        alias: &str,
        catalog: &Catalog,
    ) -> CoreResult<Vec<(String, String)>> {
        let mut out: Vec<(String, String)> = Vec::new();
        for (attr, source) in self.attrs.iter().zip(&self.sources) {
            let Some((src, _)) = source else { continue };
            if attr.alias != alias {
                continue;
            }
            let pair = covering_scan(alias, src, catalog)?;
            if !out.contains(&pair) {
                out.push(pair);
            }
        }
        out.sort();
        Ok(out)
    }
}

/// The `(scan alias, source relation)` that covers source attribute `src` when target alias
/// `alias` reads it: the relation `src` names, or else the one relation that owns the attribute.
pub(crate) fn covering_scan(
    alias: &str,
    src: &AttrRef,
    catalog: &Catalog,
) -> CoreResult<(String, String)> {
    let relation = catalog
        .get(&src.alias)
        .map(|_| src.alias.clone())
        .or_else(|| catalog.relation_of_attribute(&src.attr).map(String::from))
        .ok_or_else(|| CoreError::UnknownSourceAttribute {
            attribute: src.qualified(),
        })?;
    Ok((scan_alias(alias, &relation), relation))
}

/// Reformulates a target query through a single mapping.
pub fn reformulate(
    query: &TargetQuery,
    mapping: &Mapping,
    catalog: &Catalog,
) -> CoreResult<Reformulated> {
    let resolved = ResolvedAttrs::new(query, mapping)?;
    let mapped = |attr: &AttrRef| -> Name {
        Name::clone(
            resolved
                .column(attr)
                .expect("predicate and SUM attributes are checked to be mapped first"),
        )
    };

    // 1. Every predicate attribute must be mapped, otherwise the predicate can never be
    //    satisfied and the whole query is empty under this mapping.  A SUM over an unmapped
    //    attribute likewise cannot produce a value.
    let sum_attr = match query.output() {
        QueryOutput::Sum(attr) => Some(attr),
        _ => None,
    };
    let required = query
        .predicates()
        .iter()
        .flat_map(TargetPredicate::attributes)
        .chain(sum_attr);
    for attr in required {
        if resolved.column(attr).is_none() {
            return Ok(Reformulated::Empty);
        }
    }

    // 2. Scans: for each alias, the covering source relations under this mapping.
    let mut scans: Vec<Plan> = Vec::new();
    for binding in query.relations() {
        // An alias none of whose attributes is mapped has an empty cover: it contributes
        // nothing that any operator or the output can observe, so it is dropped from the
        // product.  (The paper's partial mappings behave the same way: unmatched relations
        // cannot be queried.)
        for (alias, relation) in resolved.covering_relations(&binding.alias, catalog)? {
            scans.push(Plan::scan_as(relation, alias));
        }
    }

    // 3. Product of all scans, in deterministic order.
    let Some(mut plan) = scans.into_iter().reduce(Plan::product) else {
        return Ok(Reformulated::Empty);
    };

    // 4. Selections, in query order.
    for pred in query.predicates() {
        let engine_pred = match pred {
            TargetPredicate::Compare { attr, op, value } => {
                Predicate::compare(mapped(attr), *op, value.clone())
            }
            TargetPredicate::AttrEq { left, right } => {
                Predicate::column_eq(mapped(left), mapped(right))
            }
        };
        plan = plan.select(engine_pred);
    }

    // 5. Output clause.
    let (plan, extraction) = match query.output() {
        QueryOutput::Count => (plan.aggregate(AggFunc::Count), Extraction::Raw),
        QueryOutput::Sum(attr) => (plan.aggregate(AggFunc::Sum(mapped(attr))), Extraction::Raw),
        QueryOutput::Tuples(attrs) => {
            let columns: Vec<Option<Name>> = attrs
                .iter()
                .map(|attr| resolved.column(attr).cloned())
                .collect();
            let mut project: Vec<Name> = Vec::new();
            for col in columns.iter().flatten() {
                if !project.contains(col) {
                    project.push(Name::clone(col));
                }
            }
            if project.is_empty() {
                // No output attribute is covered by this mapping: nothing observable.
                return Ok(Reformulated::Empty);
            }
            // Answers are sets: the duplicates the products multiply in are not answers.
            (
                plan.project(project).distinct(),
                Extraction::Columns(columns),
            )
        }
    };

    Ok(Reformulated::Query(SourceQuery { plan, extraction }))
}

/// The rows of one source-query result as answer tuples, resolved against the result's schema
/// and *not built*: [`add_distinct`](crate::ProbabilisticAnswer::add_distinct) reads each
/// row's cells where they lie, as ids of the answer's value pool, and keeps the ids of a row no
/// earlier source query produced (see [`crate::answer`]).  Nothing is de-duplicated here, and the result itself is
/// never changed — it stays the relation the engine caches.
#[must_use]
pub fn extract_answers<'r>(result: &'r Relation, extraction: &Extraction) -> AnswerRows<'r> {
    let schema = result.schema();
    let positions: Vec<Option<usize>> = match extraction {
        Extraction::Raw => (0..schema.arity()).map(Some).collect(),
        Extraction::Columns(columns) => columns
            .iter()
            .map(|column| {
                // `None` is an output attribute the mapping does not cover: legitimately NULL.
                // A *named* column is one reformulation projected, so the result must have it.
                let name = column.as_ref()?;
                let position = schema.position(name);
                debug_assert!(
                    position.is_some(),
                    "extraction column {name} is missing from the result schema {schema}"
                );
                position
            })
            .collect(),
    };
    AnswerRows::new(result, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{aggregate, Cluster};
    use crate::testkit;
    use crate::ProbabilisticAnswer;
    use urm_engine::Executor;
    use urm_storage::{Tuple, Value};

    /// The distinct answers among `rows`, first seen first.
    fn distinct(rows: AnswerRows<'_>) -> Vec<Tuple> {
        let mut answer = ProbabilisticAnswer::new();
        answer.add_distinct(rows, 1.0);
        answer.iter().map(|(tuple, _)| tuple.clone()).collect()
    }

    #[test]
    fn q0_reformulates_through_m1_like_the_paper() {
        // q0 = π_addr σ_phone='123' Person; m1 maps phone→ophone, addr→oaddr.
        let catalog = testkit::figure2_catalog();
        let query = testkit::q0();
        let mappings = testkit::figure3_mappings();
        let m1 = &mappings.mappings()[0];
        let reformulated = reformulate(&query, m1, &catalog).unwrap();
        let Reformulated::Query(sq) = reformulated else {
            panic!("expected a runnable source query");
        };
        // The plan selects on Customer.ophone and projects Customer.oaddr.
        let rendered = sq.plan.to_string();
        assert!(rendered.contains("Customer.ophone = 123"), "{rendered}");
        assert!(rendered.contains("Customer.oaddr"), "{rendered}");

        let result = Executor::new(&catalog).run(&sq.plan).unwrap();
        let answers = distinct(extract_answers(&result, &sq.extraction));
        assert_eq!(answers, vec![Tuple::new(vec![Value::from("aaa")])]);
    }

    #[test]
    fn q0_through_m4_uses_hphone_and_haddr() {
        let catalog = testkit::figure2_catalog();
        let query = testkit::q0();
        let mappings = testkit::figure3_mappings();
        let m4 = mappings.by_id(4).unwrap();
        let Reformulated::Query(sq) = reformulate(&query, m4, &catalog).unwrap() else {
            panic!("expected a query");
        };
        let result = Executor::new(&catalog).run(&sq.plan).unwrap();
        let answers = distinct(extract_answers(&result, &sq.extraction));
        // m4: phone→hphone, addr→haddr; hphone='123' matches Bob, whose haddr is 'hk'.
        assert_eq!(answers, vec![Tuple::new(vec![Value::from("hk")])]);
    }

    #[test]
    fn identical_translations_yield_equal_source_queries() {
        // m1 and m2 of Figure 3 agree on phone and addr, so q0 translates identically.
        let catalog = testkit::figure2_catalog();
        let query = testkit::q0();
        let mappings = testkit::figure3_mappings();
        let a = reformulate(&query, &mappings.mappings()[0], &catalog).unwrap();
        let b = reformulate(&query, &mappings.mappings()[1], &catalog).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unmapped_predicate_attribute_means_empty() {
        let catalog = testkit::figure2_catalog();
        let query = TargetQuery::builder("q")
            .relation("Person")
            .filter_eq("Person.gender", "F")
            .returning(["Person.pname"])
            .build()
            .unwrap();
        // No mapping of Figure 3 covers Person.gender.
        let mappings = testkit::figure3_mappings();
        for m in mappings.iter() {
            assert_eq!(
                reformulate(&query, m, &catalog).unwrap(),
                Reformulated::Empty
            );
        }
    }

    #[test]
    fn unmapped_projection_attribute_becomes_null_column() {
        let catalog = testkit::figure2_catalog();
        let query = TargetQuery::builder("q")
            .relation("Person")
            .filter_eq("Person.phone", "123")
            .returning(["Person.addr", "Person.gender"])
            .build()
            .unwrap();
        let mappings = testkit::figure3_mappings();
        let Reformulated::Query(sq) =
            reformulate(&query, &mappings.mappings()[0], &catalog).unwrap()
        else {
            panic!("expected query");
        };
        let result = Executor::new(&catalog).run(&sq.plan).unwrap();
        let answers = distinct(extract_answers(&result, &sq.extraction));
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].get(0), Some(&Value::from("aaa")));
        assert_eq!(answers[0].get(1), Some(&Value::Null));
    }

    fn customers() -> Relation {
        Executor::new(&testkit::figure2_catalog())
            .run(
                &Plan::scan("Customer")
                    .project(vec!["Customer.oaddr".into(), "Customer.cname".into()]),
            )
            .unwrap()
    }

    #[test]
    fn answers_are_distinct_and_uncovered_columns_are_null() {
        let result = customers();
        assert!(result.view().is_some(), "a projection is late-materialized");
        let rows = Relation::from_validated(result.schema().clone(), result.rows().to_vec());
        let extraction = Extraction::Columns(vec![
            Some("Customer.oaddr".into()),
            None,
            Some("Customer.oaddr".into()),
        ]);
        let unbuilt = extract_answers(&result, &extraction);
        assert_eq!(unbuilt.len(), 3, "extraction resolves rows, it drops none");
        let answers = distinct(unbuilt);
        assert_eq!(answers, distinct(extract_answers(&rows, &extraction)));
        // Alice and Cindy share an office address: three rows, two answers, first seen first.
        let answer = |addr: &str| Tuple::new(vec![addr.into(), Value::Null, addr.into()]);
        assert_eq!(answers, vec![answer("aaa"), answer("bbb")]);
        // The aggregate step finds the same two, off the view and off the rows: the two
        // clusters' factors hold the same rows, so they fold and are enumerated once.
        let clusters = [&result, &rows].map(|factor| Cluster::single(0.25, &extraction, factor));
        let (aggregated, work) = aggregate(&clusters, 0.0);
        assert_eq!(work.factor_rows, 6, "six rows interned");
        assert_eq!(work.rows, 2, "two distinct rows enumerated");
        let got: Vec<(&Tuple, f64)> = aggregated.iter().collect();
        assert_eq!(got, [(&answer("aaa"), 0.5), (&answer("bbb"), 0.5)]);
        // `Raw` reads whole rows, and is distinct over them.
        let twice: Vec<Tuple> = rows.iter().chain(rows.iter()).cloned().collect();
        let twice = Relation::from_validated(rows.schema().clone(), twice);
        let raw = extract_answers(&twice, &Extraction::Raw);
        assert_eq!(distinct(raw), rows.rows());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "missing from the result schema")]
    fn a_named_extraction_column_must_be_in_the_result() {
        // "The mapping does not cover it" is spelled `None`; a name the result lacks is a bug
        // in whoever built the plan, and must not read as NULL answers.
        let extraction = Extraction::Columns(vec![Some("Customer.ophone".into())]);
        let _ = extract_answers(&customers(), &extraction);
    }

    #[test]
    fn cross_relation_queries_take_the_product_of_covering_relations() {
        // q2-like query touching Person and Order; Order's price maps into C_Order.amount, so
        // the product Customer × C_Order is generated.
        let catalog = testkit::figure2_catalog();
        let query = testkit::q2_product();
        let mappings = testkit::figure3_mappings();

        // Under m1 (addr → oaddr) the selection addr='hk' matches nothing — exactly the empty
        // intermediate relation R2 of the paper's Figure 5.
        let Reformulated::Query(sq) =
            reformulate(&query, &mappings.mappings()[0], &catalog).unwrap()
        else {
            panic!("expected query");
        };
        let scans = sq.plan.scanned_relations();
        assert!(scans.contains(&"Customer"));
        assert!(scans.contains(&"C_Order"));
        let result = Executor::new(&catalog).run(&sq.plan).unwrap();
        assert!(result.is_empty());

        // Under m3 (addr → haddr) Alice qualifies and joins with both of her orders.
        let Reformulated::Query(sq) =
            reformulate(&query, &mappings.mappings()[2], &catalog).unwrap()
        else {
            panic!("expected query");
        };
        let result = Executor::new(&catalog).run(&sq.plan).unwrap();
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn scan_alias_is_stable() {
        assert_eq!(scan_alias("PO", "Customer"), "PO__Customer");
        assert_eq!(scan_alias("Customer", "Customer"), "Customer");
    }

    #[test]
    fn covering_relations_are_sorted_and_deduplicated() {
        let catalog = testkit::figure2_catalog();
        let query = testkit::q0();
        let mappings = testkit::figure3_mappings();
        let resolved = ResolvedAttrs::new(&query, &mappings.mappings()[0]).unwrap();
        let cover = resolved.covering_relations("Person", &catalog).unwrap();
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].1, "Customer");
    }
}
