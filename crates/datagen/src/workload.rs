//! The paper's workload: the ten target queries of Table III plus the parameterised query
//! families used by Figures 11(d) and 11(e).

use crate::scenario::TargetSchemaKind;
use crate::source::planted;
use urm_core::query::TargetQuery;
use urm_core::CoreResult;
use urm_storage::Value;

/// Identifier of one of the ten workload queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryId {
    /// Q1 (Excel): three selections on `PO`.
    Q1,
    /// Q2 (Excel): two selections over `PO × Item`.
    Q2,
    /// Q3 (Excel): selections and joins over `PO × Item1 × Item2`.
    Q3,
    /// Q4 (Excel): the default query — self-joins of `PO` and `Item` plus a selection.
    Q4,
    /// Q5 (Excel): COUNT over four selections on `PO`.
    Q5,
    /// Q6 (Noris): three selections on `PO`.
    Q6,
    /// Q7 (Noris): projection over selections on `PO × Item`.
    Q7,
    /// Q8 (Paragon): three selections on `PO`.
    Q8,
    /// Q9 (Paragon): SUM of prices over selections on `PO × Item`.
    Q9,
    /// Q10 (Paragon): COUNT over selections on `PO × Item`.
    Q10,
}

impl QueryId {
    /// All ten queries in order.
    #[must_use]
    pub fn all() -> [QueryId; 10] {
        use QueryId::*;
        [Q1, Q2, Q3, Q4, Q5, Q6, Q7, Q8, Q9, Q10]
    }

    /// The target schema each query is defined on (Table III's `T` column).
    #[must_use]
    pub fn target(self) -> TargetSchemaKind {
        use QueryId::*;
        match self {
            Q1 | Q2 | Q3 | Q4 | Q5 => TargetSchemaKind::Excel,
            Q6 | Q7 => TargetSchemaKind::Noris,
            Q8 | Q9 | Q10 => TargetSchemaKind::Paragon,
        }
    }

    /// Index (1-based) used in the figures.
    #[must_use]
    pub fn number(self) -> usize {
        use QueryId::*;
        match self {
            Q1 => 1,
            Q2 => 2,
            Q3 => 3,
            Q4 => 4,
            Q5 => 5,
            Q6 => 6,
            Q7 => 7,
            Q8 => 8,
            Q9 => 9,
            Q10 => 10,
        }
    }
}

/// Builds one of the Table III queries.
#[must_use]
pub fn query(id: QueryId) -> TargetQuery {
    let result = match id {
        QueryId::Q1 => TargetQuery::builder("Q1")
            .relation("PO")
            .filter_eq("PO.telephone", planted::TELEPHONE)
            .filter_eq("PO.priority", planted::PRIORITY)
            .filter_eq("PO.invoiceTo", planted::PERSON)
            .returning(["PO.orderNum", "PO.telephone", "PO.invoiceTo"])
            .build(),
        QueryId::Q2 => TargetQuery::builder("Q2")
            .relation("PO")
            .relation("Item")
            .filter_eq("Item.quantity", 10i64)
            .filter_eq("Item.itemNum", planted::NUMBER)
            .returning(["PO.orderNum", "Item.itemNum", "Item.quantity"])
            .build(),
        QueryId::Q3 => TargetQuery::builder("Q3")
            .relation("PO")
            .relation_as("Item", "Item1")
            .relation_as("Item", "Item2")
            .filter_eq("PO.telephone", planted::TELEPHONE)
            .filter_eq("Item1.itemNum", planted::NUMBER)
            .join("PO.orderNum", "Item1.orderNum")
            .join("Item1.orderNum", "Item2.orderNum")
            .returning(["PO.orderNum", "Item2.itemNum"])
            .build(),
        QueryId::Q4 => TargetQuery::builder("Q4")
            .relation_as("PO", "PO1")
            .relation_as("PO", "PO2")
            .relation_as("Item", "Item1")
            .relation_as("Item", "Item2")
            .filter_eq("Item1.itemNum", planted::NUMBER)
            .join("PO1.orderNum", "PO2.orderNum")
            .join("Item1.orderNum", "Item2.orderNum")
            .join("PO1.orderNum", "Item1.orderNum")
            .returning(["PO1.orderNum", "Item2.itemNum"])
            .build(),
        QueryId::Q5 => TargetQuery::builder("Q5")
            .relation("PO")
            .filter_eq("PO.telephone", planted::TELEPHONE)
            .filter_eq("PO.company", planted::COMPANY)
            .filter_eq("PO.invoiceTo", planted::PERSON)
            .filter_eq("PO.deliverToStreet", planted::STREET)
            .count()
            .build(),
        QueryId::Q6 => TargetQuery::builder("Q6")
            .relation("PO")
            .filter_eq("PO.telephone", planted::TELEPHONE)
            .filter_eq("PO.invoiceTo", planted::PERSON)
            .filter_eq("PO.deliverToStreet", planted::STREET)
            .returning(["PO.orderNum", "PO.invoiceTo"])
            .build(),
        QueryId::Q7 => TargetQuery::builder("Q7")
            .relation("PO")
            .relation("Item")
            .filter_eq("PO.orderNum", planted::NUMBER)
            .filter_eq("PO.deliverTo", planted::PERSON)
            .filter_eq("PO.deliverToStreet", planted::STREET)
            .returning(["Item.itemNum", "Item.unitPrice"])
            .build(),
        QueryId::Q8 => TargetQuery::builder("Q8")
            .relation("PO")
            .filter_eq("PO.billTo", planted::PERSON)
            .filter_eq("PO.shipToAddress", planted::COMPANY)
            .filter_eq("PO.shipToPhone", planted::TELEPHONE)
            .returning(["PO.orderNum", "PO.billTo"])
            .build(),
        QueryId::Q9 => TargetQuery::builder("Q9")
            .relation("PO")
            .relation("Item")
            .filter_eq("PO.telephone", planted::TELEPHONE)
            .filter_eq("PO.billToAddress", planted::COMPANY)
            .filter_eq("Item.itemNum", planted::NUMBER)
            .sum("Item.price")
            .build(),
        QueryId::Q10 => TargetQuery::builder("Q10")
            .relation("PO")
            .relation("Item")
            .filter_eq("PO.invoiceTo", planted::PERSON)
            .filter_eq("PO.billToAddress", planted::COMPANY)
            .count()
            .build(),
    };
    result.expect("workload queries are well-formed")
}

/// All ten workload queries.
#[must_use]
pub fn all_queries() -> Vec<(QueryId, TargetQuery)> {
    QueryId::all().iter().map(|&id| (id, query(id))).collect()
}

/// The queries defined on a given target schema.
#[must_use]
pub fn queries_for(target: TargetSchemaKind) -> Vec<(QueryId, TargetQuery)> {
    all_queries()
        .into_iter()
        .filter(|(id, _)| id.target() == target)
        .collect()
}

/// The Figure 11(d) family: queries with `n` (1–5) selection operators over the Excel `PO`
/// relation, each selection on a different attribute.
pub fn selection_sweep(n: usize) -> CoreResult<TargetQuery> {
    let selections: [(&str, Value); 5] = [
        ("PO.telephone", Value::from(planted::TELEPHONE)),
        ("PO.invoiceTo", Value::from(planted::PERSON)),
        ("PO.company", Value::from(planted::COMPANY)),
        ("PO.deliverToStreet", Value::from(planted::STREET)),
        ("PO.priority", Value::from(planted::PRIORITY)),
    ];
    let n = n.clamp(1, selections.len());
    let mut builder = TargetQuery::builder(format!("sel-{n}")).relation("PO");
    for (attr, value) in selections.iter().take(n) {
        builder = builder.filter_eq(attr, value.clone());
    }
    builder.returning(["PO.orderNum"]).build()
}

/// The Figure 11(e) family: queries with `n` (1–3) Cartesian products — self-joins of the Excel
/// `PO` relation chained on `orderNum`, with one selection to keep the result bounded.
pub fn product_sweep(n: usize) -> CoreResult<TargetQuery> {
    let n = n.clamp(1, 3);
    let mut builder = TargetQuery::builder(format!("prod-{n}"))
        .relation_as("PO", "PO1")
        .filter_eq("PO1.telephone", planted::TELEPHONE);
    for i in 2..=(n + 1) {
        builder = builder
            .relation_as("PO", format!("PO{i}"))
            .join("PO1.orderNum", &format!("PO{i}.orderNum"));
    }
    builder.returning(["PO1.orderNum"]).build()
}

/// The join-heavy family: `n` (1–4) `Item` aliases all equi-joined to one Excel `PO` scan on
/// `orderNum`, with one selective predicate.  Reformulated, these become the wide-fan-out
/// plans the shared-operator DAG runtime exists for: the `PO` and `Item` scans are shared by
/// every join, and the joins themselves are independent DAG nodes the parallel scheduler can
/// run concurrently.
pub fn join_sweep(n: usize) -> CoreResult<TargetQuery> {
    let n = n.clamp(1, 4);
    let mut builder = TargetQuery::builder(format!("join-{n}"))
        .relation("PO")
        .filter_eq("PO.telephone", planted::TELEPHONE);
    for i in 1..=n {
        builder = builder
            .relation_as("Item", format!("Item{i}"))
            .join("PO.orderNum", &format!("Item{i}.orderNum"));
    }
    builder
        .returning(["PO.orderNum", &format!("Item{n}.itemNum")])
        .build()
}

/// The oversized family: `scale:N` — `n` (1–3) *unfiltered* self-joins of the Excel `PO`
/// relation chained on `orderNum`.  Unlike [`product_sweep`] there is no selective predicate,
/// so every intermediate materialises at full source-relation cardinality with rows `n + 1`
/// relations wide: the total bytes a batch of these touches scales with `scale × n`, which is
/// what makes a workload bigger than any fixed `--memory-budget`.  This is the family the
/// spill benchmark and the larger-than-memory CI smoke replay.
pub fn oversized_sweep(n: usize) -> CoreResult<TargetQuery> {
    let n = n.clamp(1, 3);
    let mut builder = TargetQuery::builder(format!("scale-{n}")).relation_as("PO", "PO1");
    for i in 2..=(n + 1) {
        builder = builder
            .relation_as("PO", format!("PO{i}"))
            .join("PO1.orderNum", &format!("PO{i}.orderNum"));
    }
    builder.returning(["PO1.orderNum", "PO1.telephone"]).build()
}

/// The skewed family: `skew:N` — `n` (1–3) `Item` self-joins chained on the Zipf-distributed
/// `quantity` attribute.  Unlike the `orderNum` joins of the other families, `quantity`'s
/// generated values follow Zipf(s=1) over 50 ranks (rank 1 alone holds ~22% of the rows), so a
/// uniform static cardinality estimate mis-sizes every intermediate: the chained self-joins
/// blow up on the head rank while the estimator predicts uniform fan-out.  One selective
/// anchor predicate keeps the result bounded.
pub fn skewed_sweep(n: usize) -> CoreResult<TargetQuery> {
    let n = n.clamp(1, 3);
    let mut builder = TargetQuery::builder(format!("skew-{n}"))
        .relation_as("Item", "Item1")
        .filter_eq("Item1.itemNum", planted::NUMBER);
    for i in 2..=(n + 1) {
        builder = builder
            .relation_as("Item", format!("Item{i}"))
            .join("Item1.quantity", &format!("Item{i}.quantity"));
    }
    builder
        .returning(["Item1.itemNum", &format!("Item{}.quantity", n + 1)])
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_core::query::QueryOutput;

    #[test]
    fn all_ten_queries_build_and_are_assigned_to_the_right_schema() {
        let all = all_queries();
        assert_eq!(all.len(), 10);
        assert_eq!(queries_for(TargetSchemaKind::Excel).len(), 5);
        assert_eq!(queries_for(TargetSchemaKind::Noris).len(), 2);
        assert_eq!(queries_for(TargetSchemaKind::Paragon).len(), 3);
        for (id, q) in all {
            assert_eq!(q.name(), format!("Q{}", id.number()));
        }
    }

    #[test]
    fn aggregates_match_table_iii() {
        assert!(matches!(query(QueryId::Q5).output(), QueryOutput::Count));
        assert!(matches!(query(QueryId::Q9).output(), QueryOutput::Sum(_)));
        assert!(matches!(query(QueryId::Q10).output(), QueryOutput::Count));
        assert!(matches!(
            query(QueryId::Q1).output(),
            QueryOutput::Tuples(_)
        ));
    }

    #[test]
    fn q4_is_the_default_multi_join_query() {
        let q4 = query(QueryId::Q4);
        assert_eq!(q4.relations().len(), 4);
        assert_eq!(q4.product_count(), 3);
        assert!(q4.predicate_count() >= 4);
    }

    #[test]
    fn selection_sweep_has_requested_operator_count() {
        for n in 1..=5 {
            let q = selection_sweep(n).unwrap();
            assert_eq!(q.predicate_count(), n);
            assert_eq!(q.relations().len(), 1);
        }
        // Out-of-range values are clamped.
        assert_eq!(selection_sweep(0).unwrap().predicate_count(), 1);
        assert_eq!(selection_sweep(9).unwrap().predicate_count(), 5);
    }

    #[test]
    fn product_sweep_has_requested_product_count() {
        for n in 1..=3 {
            let q = product_sweep(n).unwrap();
            assert_eq!(q.product_count(), n);
        }
    }

    #[test]
    fn oversized_sweep_chains_unfiltered_self_joins() {
        for n in 1..=3 {
            let q = oversized_sweep(n).unwrap();
            assert_eq!(q.relations().len(), n + 1);
            // Only the join predicates — nothing selective to shrink intermediates.
            assert_eq!(q.predicate_count(), n);
        }
        assert_eq!(oversized_sweep(0).unwrap().relations().len(), 2);
        assert_eq!(oversized_sweep(9).unwrap().relations().len(), 4);
    }

    #[test]
    fn skewed_sweep_chains_quantity_self_joins() {
        for n in 1..=3 {
            let q = skewed_sweep(n).unwrap();
            assert_eq!(q.relations().len(), n + 1);
            // One anchor predicate plus one skewed join per chained alias.
            assert_eq!(q.predicate_count(), n + 1);
        }
        assert_eq!(skewed_sweep(0).unwrap().relations().len(), 2);
        assert_eq!(skewed_sweep(9).unwrap().relations().len(), 4);
    }

    #[test]
    fn join_sweep_fans_out_n_joins_from_one_po_scan() {
        for n in 1..=4 {
            let q = join_sweep(n).unwrap();
            assert_eq!(q.relations().len(), n + 1);
            // One selective predicate plus one join predicate per Item alias.
            assert_eq!(q.predicate_count(), n + 1);
        }
        assert_eq!(join_sweep(0).unwrap().relations().len(), 2);
        assert_eq!(join_sweep(9).unwrap().relations().len(), 5);
    }
}
