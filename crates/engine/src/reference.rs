//! The retained row-at-a-time reference evaluator.
//!
//! This module preserves the pre-physical-plan execution path **verbatim in behaviour and in
//! cost**: every operator re-resolves column names against its input schema (per row, for
//! selections), every scan copies the base rows into a fresh buffer, and every `Values` leaf is
//! deep-copied into the next operator.  It is the *oracle* of the property tests — the
//! physical executor must produce byte-identical relations (schema and row order included)
//! for every plan.  [`off_catalog`] is how the same tests hand the executor leaves it has to
//! convert to columns where it consumes them.
//!
//! Production code paths never use this module; [`Executor`](crate::Executor) binds and
//! executes physical plans.

use crate::plan::{aggregate_schema, position, positions};
use crate::{AggFunc, EngineError, EngineResult, ExecStats, Plan, Predicate};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use urm_storage::{Catalog, Name, Relation, Tuple, Value};

/// Rewrites every scan of `plan` into a [`Plan::Values`] leaf over a private copy of the
/// scanned relation's rows, under the scan's qualified schema.
///
/// The copy is a row buffer, not the columns `catalog` holds, so
/// [`Executor`](crate::Executor) converts it where each operator above it consumes it — the
/// way a spill reload or an ad-hoc buffer reaches the kernels.  Rows and row order are the
/// scan's; the leaves no longer count as scans in [`ExecStats`].  A scan of an unknown
/// relation is left in place (it fails to bind either way).
#[must_use]
pub fn off_catalog(plan: &Plan, catalog: &Catalog) -> Plan {
    let input = |p: &Plan| Box::new(off_catalog(p, catalog));
    match plan {
        Plan::Scan { relation, alias } => match catalog.get(relation) {
            Some(base) => Plan::values(Relation::from_validated(
                base.schema().qualified(alias),
                base.rows().to_vec(),
            )),
            None => plan.clone(),
        },
        Plan::Values(_) => plan.clone(),
        Plan::Select {
            predicate,
            input: i,
        } => Plan::Select {
            predicate: predicate.clone(),
            input: input(i),
        },
        Plan::Project { columns, input: i } => Plan::Project {
            columns: columns.clone(),
            input: input(i),
        },
        Plan::Product { left, right } => Plan::Product {
            left: input(left),
            right: input(right),
        },
        Plan::HashJoin { left, right, on } => Plan::HashJoin {
            left: input(left),
            right: input(right),
            on: on.clone(),
        },
        Plan::Aggregate { func, input: i } => Plan::Aggregate {
            func: func.clone(),
            input: input(i),
        },
        Plan::Distinct { input: i } => Plan::Distinct { input: input(i) },
    }
}

/// Runs logical plans row-at-a-time with per-operator name resolution and per-leaf copies.
///
/// API mirror of [`Executor`](crate::Executor) (minus the physical entry points), accumulating
/// the same [`ExecStats`] counters so results *and* operator accounting can be compared.
pub struct ReferenceExecutor<'a> {
    catalog: &'a Catalog,
    stats: ExecStats,
}

impl<'a> ReferenceExecutor<'a> {
    /// Creates a reference executor over the given source instance.
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> Self {
        ReferenceExecutor {
            catalog,
            stats: ExecStats::new(),
        }
    }

    /// Runs a plan to completion, returning the materialised result.
    pub fn run(&mut self, plan: &Plan) -> EngineResult<Relation> {
        let start = Instant::now();
        let result = self.eval(plan);
        self.stats.exec_time += start.elapsed();
        if result.is_ok() {
            self.stats.record_source_query();
        }
        result
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn eval(&mut self, plan: &Plan) -> EngineResult<Relation> {
        match plan {
            Plan::Scan { relation, alias } => {
                let base = self.catalog.require(relation)?;
                let schema = base.schema().qualified(alias);
                // Deliberate copy: the pre-refactor scan materialised a private row vector.
                let rows = base.rows().to_vec();
                self.stats.record_scan(rows.len() as u64);
                Ok(Relation::from_validated(schema, rows))
            }
            // Deliberate copy: the pre-refactor `Values` node deep-cloned the shared relation.
            Plan::Values(rel) => Ok(Relation::from_validated(
                rel.schema().clone(),
                rel.rows().to_vec(),
            )),
            Plan::Select { predicate, input } => {
                let input_rel = self.eval(input)?;
                let out = apply_select(&input_rel, predicate);
                self.stats
                    .record_operator(input_rel.len() as u64, out.len() as u64);
                Ok(out)
            }
            Plan::Project { columns, input } => {
                let input_rel = self.eval(input)?;
                let out = apply_project(&input_rel, columns)?;
                self.stats
                    .record_operator(input_rel.len() as u64, out.len() as u64);
                Ok(out)
            }
            Plan::Product { left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                let out = apply_product(&l, &r);
                self.stats
                    .record_operator((l.len() + r.len()) as u64, out.len() as u64);
                Ok(out)
            }
            Plan::HashJoin { left, right, on } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                let out = apply_hash_join(&l, &r, on)?;
                self.stats
                    .record_operator((l.len() + r.len()) as u64, out.len() as u64);
                Ok(out)
            }
            Plan::Aggregate { func, input } => {
                let input_rel = self.eval(input)?;
                let out = apply_aggregate(&input_rel, func)?;
                self.stats
                    .record_operator(input_rel.len() as u64, out.len() as u64);
                Ok(out)
            }
            Plan::Distinct { input } => {
                let input_rel = self.eval(input)?;
                let out = apply_distinct(&input_rel);
                self.stats
                    .record_operator(input_rel.len() as u64, out.len() as u64);
                Ok(out)
            }
        }
    }
}

/// Applies a selection to a materialised relation, resolving column names per row.
#[must_use]
pub fn apply_select(input: &Relation, predicate: &Predicate) -> Relation {
    let schema = input.schema().clone();
    let resolve = |c: &str| schema.position(c);
    let rows = input
        .iter()
        .filter(|t| predicate.eval(t, &resolve))
        .cloned()
        .collect();
    Relation::from_validated(schema, rows)
}

/// Applies a projection to a materialised relation.
pub fn apply_project(input: &Relation, columns: &[Name]) -> EngineResult<Relation> {
    let positions = positions(input.schema(), columns)?;
    let rows = input.iter().map(|t| t.project(&positions)).collect();
    Ok(Relation::from_validated(
        input.schema().projected(&positions),
        rows,
    ))
}

/// Applies a Cartesian product to two materialised relations.
#[must_use]
pub fn apply_product(left: &Relation, right: &Relation) -> Relation {
    let schema = left.schema().product(right.schema());
    let mut rows = Vec::with_capacity(left.len().saturating_mul(right.len()));
    for l in left.iter() {
        for r in right.iter() {
            rows.push(l.concat(r));
        }
    }
    Relation::from_validated(schema, rows)
}

/// Applies a hash equi-join to two materialised relations, cloning key values per row.
pub fn apply_hash_join(
    left: &Relation,
    right: &Relation,
    on: &[(Name, Name)],
) -> EngineResult<Relation> {
    if on.is_empty() {
        return Ok(apply_product(left, right));
    }
    let ls = left.schema();
    let rs = right.schema();
    let mut left_keys = Vec::with_capacity(on.len());
    let mut right_keys = Vec::with_capacity(on.len());
    for (l, r) in on {
        // Join columns may arrive in either order; resolve each against the side that has it.
        let (lcol, rcol) = if ls.contains(l) && rs.contains(r) {
            (l, r)
        } else if ls.contains(r) && rs.contains(l) {
            (r, l)
        } else {
            return Err(EngineError::UnknownColumn {
                column: format!("{l} / {r}"),
                schema: format!("{ls} ⋈ {rs}"),
            });
        };
        left_keys.push(ls.require(lcol).map_err(EngineError::from)?);
        right_keys.push(rs.require(rcol).map_err(EngineError::from)?);
    }

    let mut table: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::with_capacity(right.len());
    for t in right.iter() {
        let key: Vec<Value> = right_keys
            .iter()
            .map(|&i| t.get(i).cloned().unwrap_or(Value::Null))
            .collect();
        if key.iter().any(Value::is_null) {
            continue;
        }
        table.entry(key).or_default().push(t);
    }

    let schema = ls.product(rs);
    let mut rows = Vec::new();
    for l in left.iter() {
        let key: Vec<Value> = left_keys
            .iter()
            .map(|&i| l.get(i).cloned().unwrap_or(Value::Null))
            .collect();
        if key.iter().any(Value::is_null) {
            continue;
        }
        if let Some(matches) = table.get(&key) {
            for r in matches {
                rows.push(l.concat(r));
            }
        }
    }
    Ok(Relation::from_validated(schema, rows))
}

/// Removes duplicate rows, keeping each distinct row's first occurrence in input order.
#[must_use]
pub fn apply_distinct(input: &Relation) -> Relation {
    let mut seen = HashSet::new();
    let rows = input
        .iter()
        .filter(|row| seen.insert(*row))
        .cloned()
        .collect();
    Relation::from_validated(input.schema().clone(), rows)
}

/// Applies an aggregate, producing a single-row relation.
pub fn apply_aggregate(input: &Relation, func: &AggFunc) -> EngineResult<Relation> {
    let schema = aggregate_schema(func, input.schema())?;
    let value = match func {
        AggFunc::Count => Value::from(input.len() as i64),
        AggFunc::Sum(col) => {
            let pos = position(input.schema(), col)?;
            let mut sum = 0.0f64;
            for t in input.iter() {
                match t.get(pos) {
                    Some(v) if v.is_null() => {}
                    Some(v) => {
                        sum += v.as_f64().ok_or_else(|| EngineError::InvalidAggregate {
                            func: "SUM",
                            column: col.to_string(),
                        })?;
                    }
                    None => {}
                }
            }
            Value::from(sum)
        }
    };
    Ok(Relation::from_validated(
        schema,
        vec![Tuple::new(vec![value])],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_storage::{Attribute, DataType, Schema};

    fn catalog() -> Catalog {
        let schema = Schema::new(
            "R",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("b", DataType::Text),
            ],
        );
        let rows = (0..6)
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
    fn reference_scan_copies_the_row_buffer() {
        let cat = catalog();
        let mut exec = ReferenceExecutor::new(&cat);
        let out = exec.run(&Plan::scan("R")).unwrap();
        assert_ne!(out.storage_id(), cat.get("R").unwrap().storage_id());
        assert_eq!(out.len(), 6);
        assert_eq!(exec.stats().scans, 1);
        assert_eq!(exec.stats().source_queries, 1);
    }

    #[test]
    fn reference_values_copies_the_relation() {
        let cat = catalog();
        let base = cat.get("R").unwrap();
        let mut exec = ReferenceExecutor::new(&cat);
        let out = exec
            .run(&Plan::values_shared(std::sync::Arc::clone(&base)))
            .unwrap();
        assert_ne!(out.storage_id(), base.storage_id());
        assert_eq!(out.rows(), base.rows());
    }
}
