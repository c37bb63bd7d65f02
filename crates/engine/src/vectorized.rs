//! The operator kernels: every relational operator over late-materialized columnar views.
//!
//! The kernels work on [`ColumnView`]s: shared base columns addressed through one row-index
//! vector per contributing input.  Predicates evaluate column-at-a-time into a survivor list
//! that *refines* the index vectors; hash joins build and probe raw key columns (`i64`, `f64`
//! bits, dictionary codes) and emit a pair of match lists that *compose* them — all at once
//! ([`hash_join`]) or one hash partition at a time ([`grace_hash_join`]); products enumerate
//! pairs; aggregates fold flat vectors.  No operator here reads or writes a cell it does not
//! need, and none builds a tuple — that happens once, where something reads a result's rows
//! (a plan or DAG root, a result admitted to a byte-budgeted pool).
//!
//! ## Fidelity
//!
//! Everything here is held to *byte identity* with the row-at-a-time
//! [`reference`](crate::reference) evaluator — same output values, same row order, same error
//! behaviour, same [`ExecStats`](crate::ExecStats) accounting — which pins down several
//! subtleties:
//!
//! * `Value` comparison semantics are reproduced exactly: `Int`/`Int` compares as `i64`,
//!   `Float` (and `Int`/`Float`) through `f64::total_cmp` — under which equality is bit
//!   equality, so float join keys can be hashed by bit pattern — and cross-variant
//!   comparisons through the variant rank, which the kernels resolve once per column, not
//!   once per row.
//! * Null join keys and null predicate operands never match.
//! * SUM folds `f64`s in logical row order — float addition is not associative, and the
//!   reference defines the order.
//! * Join outputs are emitted left-row-major (left order, then right order within a key),
//!   whatever the partition fan-out.

use crate::physical::BoundPredicate;
use crate::CompareOp;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use urm_storage::{Column, ColumnRef, ColumnView, NullBitmap, Value};

/// Applies a compiled predicate: the output keeps the logical rows that satisfy it, in order.
#[must_use]
pub fn filter(view: &ColumnView, predicate: &BoundPredicate) -> ColumnView {
    let all = (0..view.len() as u32).collect();
    view.select_rows(refine(predicate, view, all))
}

/// Cartesian product: every left row paired with every right row, left row major — the
/// reference's nested-loop order.
#[must_use]
pub fn product(left: &ColumnView, right: &ColumnView) -> ColumnView {
    let (ln, rn) = (left.len() as u32, right.len() as u32);
    let mut lrows = Vec::with_capacity(left.len() * right.len());
    let mut rrows = Vec::with_capacity(left.len() * right.len());
    for l in 0..ln {
        for r in 0..rn {
            lrows.push(l);
            rrows.push(r);
        }
    }
    ColumnView::paired(left, right, lrows, rrows)
}

/// Hash equi-join on positional key pairs.  Output rows come in left order (then right order
/// within a key) with null keys dropped.  The hash table is built on the right input.
#[must_use]
pub fn hash_join(
    left: &ColumnView,
    right: &ColumnView,
    left_keys: &[usize],
    right_keys: &[usize],
) -> ColumnView {
    let (lrows, rrows) = join_rows(left, right, left_keys, right_keys);
    ColumnView::paired(left, right, lrows, rrows)
}

/// [`hash_join`] with one partition's hash table alive at a time: both sides' logical rows
/// are hash-partitioned on the join key `partitions` ways (a row with a NULL key component
/// can match nothing and lands in no partition), each non-empty pair of partitions is joined
/// by the same kernels over [`select_rows`](ColumnView::select_rows) sub-views, and the
/// matches are mapped back to the inputs' rows.  A key's rows all meet in one partition, in
/// input order, so a stable sort on the left row restores [`hash_join`]'s output exactly, row
/// order included.  Nothing is copied or staged: the partitions are index lists over base
/// columns that are already resident.
#[must_use]
pub fn grace_hash_join(
    left: &ColumnView,
    right: &ColumnView,
    left_keys: &[usize],
    right_keys: &[usize],
    partitions: usize,
) -> ColumnView {
    let lparts = partition_rows(left, left_keys, partitions);
    let rparts = partition_rows(right, right_keys, partitions);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (lids, rids) in lparts.into_iter().zip(rparts) {
        if lids.is_empty() || rids.is_empty() {
            continue;
        }
        let (lsub, rsub) = (
            left.select_rows(lids.clone()),
            right.select_rows(rids.clone()),
        );
        let (lrows, rrows) = join_rows(&lsub, &rsub, left_keys, right_keys);
        pairs.extend(
            lrows
                .iter()
                .zip(&rrows)
                .map(|(&l, &r)| (lids[l as usize], rids[r as usize])),
        );
    }
    pairs.sort_by_key(|&(l, _)| l);
    let (lrows, rrows) = pairs.into_iter().unzip();
    ColumnView::paired(left, right, lrows, rrows)
}

/// SUM over column `pos`, folding in logical row order (float addition is order-sensitive;
/// the reference defines the order).  Nulls and missing cells are skipped; a non-numeric
/// value aborts with `None`, reported by the caller as `InvalidAggregate`.
#[must_use]
pub fn sum(view: &ColumnView, pos: usize) -> Option<f64> {
    let Some(col) = view.column(pos) else {
        return Some(0.0);
    };
    let slots = (0..view.len()).map(|row| col.slot(row));
    let mut sum = 0.0f64;
    match col.column {
        Column::Int { values, nulls } => {
            for i in slots.filter(|&i| !is_null(nulls.as_ref(), i)) {
                sum += values[i] as f64;
            }
        }
        Column::Float { values, nulls } => {
            for i in slots.filter(|&i| !is_null(nulls.as_ref(), i)) {
                sum += values[i];
            }
        }
        Column::Bool { nulls, .. } | Column::Text { nulls, .. } => {
            // Any logically-present non-null value is non-numeric: an error.
            if slots.into_iter().any(|i| !is_null(nulls.as_ref(), i)) {
                return None;
            }
        }
        Column::Mixed(values) => {
            for i in slots {
                match &values[i] {
                    Value::Null => {}
                    v => sum += v.as_f64()?,
                }
            }
        }
    }
    Some(sum)
}

#[inline]
fn is_null(nulls: Option<&NullBitmap>, slot: usize) -> bool {
    nulls.is_some_and(|b| b.is_null(slot))
}

// ---------------------------------------------------------------------------
// Predicate kernels
// ---------------------------------------------------------------------------

/// Refines a candidate list through a compiled predicate, one column-at-a-time pass per
/// atomic comparison.  Candidates are logical rows of `view` in order; survivors keep that
/// order.
fn refine(predicate: &BoundPredicate, view: &ColumnView, candidates: Vec<u32>) -> Vec<u32> {
    match predicate {
        BoundPredicate::Never => Vec::new(),
        BoundPredicate::And(parts) => parts
            .iter()
            .fold(candidates, |cands, p| refine(p, view, cands)),
        BoundPredicate::Compare { pos, op, value } => match view.column(*pos) {
            Some(col) => compare_kernel(col, *op, value, &candidates),
            // A missing cell never satisfies a predicate.
            None => Vec::new(),
        },
        BoundPredicate::ColumnEq { left, right } => {
            match (view.column(*left), view.column(*right)) {
                (Some(a), Some(b)) => column_eq_kernel(a, b, &candidates),
                _ => Vec::new(),
            }
        }
    }
}

/// Whether `op` accepts an ordering result — the single place the six comparison operators
/// are translated, shared by every typed kernel.
#[inline]
fn accepts(op: CompareOp, ord: Ordering) -> bool {
    match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::Ne => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    }
}

/// The shared survivor loop of the typed compare kernels: generic over the per-slot verdict
/// so each typed instantiation monomorphises into a flat, inlinable loop (a `dyn` callback
/// here costs an indirect call per candidate row — measurable on selection-heavy plans).
#[inline]
fn keep_valid<F: Fn(usize) -> bool>(
    cands: &[u32],
    col: ColumnRef<'_>,
    nulls: Option<&NullBitmap>,
    decide: F,
) -> Vec<u32> {
    cands
        .iter()
        .copied()
        .filter(|&row| {
            let i = col.slot(row as usize);
            !is_null(nulls, i) && decide(i)
        })
        .collect()
}

/// `column op constant` over a candidate list.  Typed columns compare through flat vectors;
/// comparisons whose outcome depends only on the variants (a text column against an int
/// constant, say) are resolved once for the whole column via `Value`'s variant ranking.
fn compare_kernel(col: ColumnRef<'_>, op: CompareOp, constant: &Value, cands: &[u32]) -> Vec<u32> {
    match (col.column, constant) {
        (Column::Int { values, nulls }, Value::Int(c)) => {
            keep_valid(cands, col, nulls.as_ref(), |i| {
                accepts(op, values[i].cmp(c))
            })
        }
        (Column::Int { values, nulls }, Value::Float(c)) => {
            keep_valid(cands, col, nulls.as_ref(), |i| {
                accepts(op, (values[i] as f64).total_cmp(c))
            })
        }
        (Column::Float { values, nulls }, Value::Float(c)) => {
            keep_valid(cands, col, nulls.as_ref(), |i| {
                accepts(op, values[i].total_cmp(c))
            })
        }
        (Column::Float { values, nulls }, Value::Int(c)) => {
            keep_valid(cands, col, nulls.as_ref(), |i| {
                accepts(op, values[i].total_cmp(&(*c as f64)))
            })
        }
        (Column::Bool { values, nulls }, Value::Bool(c)) => {
            keep_valid(cands, col, nulls.as_ref(), |i| {
                accepts(op, values[i].cmp(c))
            })
        }
        (Column::Text { codes, dict, nulls }, Value::Text(s)) => {
            // One comparison per *distinct* string, then a table lookup per row.
            let table: Vec<bool> = dict
                .entries()
                .iter()
                .map(|e| accepts(op, e.as_ref().cmp(s.as_ref())))
                .collect();
            keep_valid(cands, col, nulls.as_ref(), |i| table[codes[i] as usize])
        }
        (Column::Mixed(values), _) => keep_valid(cands, col, None, |i| {
            let v = &values[i];
            !v.is_null() && op.eval(v, constant)
        }),
        // Cross-variant (and null-constant) comparisons depend only on the variants, so the
        // verdict is one comparison for the whole column, applied to its non-null rows.
        (
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Text { nulls, .. },
            constant,
        ) => {
            if !op.eval(&kind_representative(col.column), constant) {
                return Vec::new();
            }
            keep_valid(cands, col, nulls.as_ref(), |_| true)
        }
    }
}

/// A representative non-null value of a typed column's variant, for comparisons whose
/// outcome is payload-independent (cross-variant ranking).
fn kind_representative(col: &Column) -> Value {
    match col {
        Column::Int { .. } => Value::Int(0),
        Column::Float { .. } => Value::Float(0.0),
        Column::Bool { .. } => Value::Bool(false),
        Column::Text { .. } => Value::text(""),
        Column::Mixed(_) => unreachable!("mixed columns take the generic kernel"),
    }
}

/// `input[left] = input[right]` over a candidate list.  The two columns may belong to
/// different inputs of the view, so each is addressed through its own index vector.
fn column_eq_kernel(a: ColumnRef<'_>, b: ColumnRef<'_>, cands: &[u32]) -> Vec<u32> {
    // Generic (monomorphised) survivor loop — see `keep_valid` for why not `dyn`.
    #[inline]
    fn keep<F: Fn(usize, usize) -> bool>(
        a: ColumnRef<'_>,
        b: ColumnRef<'_>,
        cands: &[u32],
        decide: F,
    ) -> Vec<u32> {
        cands
            .iter()
            .copied()
            .filter(|&row| {
                let (i, j) = (a.slot(row as usize), b.slot(row as usize));
                !a.column.is_null(i) && !b.column.is_null(j) && decide(i, j)
            })
            .collect()
    }
    match (a.column, b.column) {
        (Column::Int { values: av, .. }, Column::Int { values: bv, .. }) => {
            keep(a, b, cands, |i, j| av[i] == bv[j])
        }
        (Column::Float { values: av, .. }, Column::Float { values: bv, .. }) => {
            keep(a, b, cands, |i, j| {
                av[i].total_cmp(&bv[j]) == Ordering::Equal
            })
        }
        (Column::Int { values: av, .. }, Column::Float { values: bv, .. }) => {
            keep(a, b, cands, |i, j| {
                (av[i] as f64).total_cmp(&bv[j]) == Ordering::Equal
            })
        }
        (Column::Float { values: av, .. }, Column::Int { values: bv, .. }) => {
            keep(a, b, cands, |i, j| {
                av[i].total_cmp(&(bv[j] as f64)) == Ordering::Equal
            })
        }
        (Column::Bool { values: av, .. }, Column::Bool { values: bv, .. }) => {
            keep(a, b, cands, |i, j| av[i] == bv[j])
        }
        (
            Column::Text {
                codes: ac,
                dict: ad,
                ..
            },
            Column::Text {
                codes: bc,
                dict: bd,
                ..
            },
        ) => {
            if std::ptr::eq(ad, bd) {
                keep(a, b, cands, |i, j| ac[i] == bc[j])
            } else {
                keep(a, b, cands, |i, j| {
                    ad.get(ac[i]).map(Arc::as_ref) == bd.get(bc[j]).map(Arc::as_ref)
                })
            }
        }
        (Column::Mixed(_), _) | (_, Column::Mixed(_)) => keep(a, b, cands, |i, j| {
            a.column.value_at(i) == b.column.value_at(j)
        }),
        // Remaining typed pairs are cross-variant and non-numeric: never equal.
        _ => Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Join kernels
// ---------------------------------------------------------------------------

/// The match lists of an equi-join: `(left_rows[i], right_rows[i])` are the logical rows of
/// the `i`-th output row, in left order, then right order within a key.
fn join_rows(
    left: &ColumnView,
    right: &ColumnView,
    left_keys: &[usize],
    right_keys: &[usize],
) -> (Vec<u32>, Vec<u32>) {
    if left_keys.len() == 1 {
        join_single_key(left, right, left_keys[0], right_keys[0])
    } else {
        join_multi_key(left, right, left_keys, right_keys)
    }
}

/// The logical rows of `view` split `partitions` ways by the hash of their key columns, each
/// list in row order; a row with a NULL (or missing) key component is in none.  The hash is
/// [`Value`]'s own, which is equal wherever the join kernels call two keys equal — an `Int`
/// and the `Float` it widens to, one string under two dictionaries — so a key's matches
/// always meet in one partition.
fn partition_rows(view: &ColumnView, keys: &[usize], partitions: usize) -> Vec<Vec<u32>> {
    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); partitions];
    let Some(cols) = key_columns(view, keys) else {
        return parts;
    };
    'rows: for row in 0..view.len() {
        let mut hasher = DefaultHasher::new();
        for &col in &cols {
            match value_key(col, row) {
                Some(v) => v.hash(&mut hasher),
                None => continue 'rows,
            }
        }
        parts[(hasher.finish() % partitions as u64) as usize].push(row as u32);
    }
    parts
}

/// Single-key hash join over typed key columns.  Emits paired lists of logical rows: left
/// logical order, right logical order within a key.
fn join_single_key(
    left: &ColumnView,
    right: &ColumnView,
    lk: usize,
    rk: usize,
) -> (Vec<u32>, Vec<u32>) {
    let (Some(lcol), Some(rcol)) = (left.column(lk), right.column(rk)) else {
        return (Vec::new(), Vec::new());
    };
    let (ln, rn) = (left.len(), right.len());
    // Typed fast paths keyed by raw column data.  `Value` equality makes Int/Int exact `i64`
    // equality but Int/Float (and Float/Float) *total-order* equality, which is f64 bit
    // equality — so numeric cross-type joins key by the bit pattern of the value as f64,
    // while Int/Int keys by the integer itself (2^53-safe).
    match (lcol.column, rcol.column) {
        (
            Column::Int {
                values: lv,
                nulls: lnul,
            },
            Column::Int {
                values: rv,
                nulls: rnul,
            },
        ) => join_typed(
            ln,
            rn,
            |row| key_of(lv, lnul.as_ref(), lcol.slot(row), |v| v),
            |row| key_of(rv, rnul.as_ref(), rcol.slot(row), |v| v),
        ),
        (
            Column::Float {
                values: lv,
                nulls: lnul,
            },
            Column::Float {
                values: rv,
                nulls: rnul,
            },
        ) => join_typed(
            ln,
            rn,
            |row| key_of(lv, lnul.as_ref(), lcol.slot(row), f64::to_bits),
            |row| key_of(rv, rnul.as_ref(), rcol.slot(row), f64::to_bits),
        ),
        (
            Column::Int {
                values: lv,
                nulls: lnul,
            },
            Column::Float {
                values: rv,
                nulls: rnul,
            },
        ) => join_typed(
            ln,
            rn,
            |row| key_of(lv, lnul.as_ref(), lcol.slot(row), |v| (v as f64).to_bits()),
            |row| key_of(rv, rnul.as_ref(), rcol.slot(row), f64::to_bits),
        ),
        (
            Column::Float {
                values: lv,
                nulls: lnul,
            },
            Column::Int {
                values: rv,
                nulls: rnul,
            },
        ) => join_typed(
            ln,
            rn,
            |row| key_of(lv, lnul.as_ref(), lcol.slot(row), f64::to_bits),
            |row| key_of(rv, rnul.as_ref(), rcol.slot(row), |v| (v as f64).to_bits()),
        ),
        (
            Column::Bool {
                values: lv,
                nulls: lnul,
            },
            Column::Bool {
                values: rv,
                nulls: rnul,
            },
        ) => join_typed(
            ln,
            rn,
            |row| key_of(lv, lnul.as_ref(), lcol.slot(row), |v| v),
            |row| key_of(rv, rnul.as_ref(), rcol.slot(row), |v| v),
        ),
        (
            Column::Text {
                codes: lc,
                dict: ld,
                nulls: lnul,
            },
            Column::Text {
                codes: rc,
                dict: rd,
                nulls: rnul,
            },
        ) => {
            if std::ptr::eq(ld, rd) {
                join_typed(
                    ln,
                    rn,
                    |row| key_of(lc, lnul.as_ref(), lcol.slot(row), |v| v),
                    |row| key_of(rc, rnul.as_ref(), rcol.slot(row), |v| v),
                )
            } else {
                join_typed(
                    ln,
                    rn,
                    |row| {
                        key_of(lc, lnul.as_ref(), lcol.slot(row), |c| ld.get(c))
                            .flatten()
                            .map(Arc::as_ref)
                    },
                    |row| {
                        key_of(rc, rnul.as_ref(), rcol.slot(row), |c| rd.get(c))
                            .flatten()
                            .map(Arc::as_ref)
                    },
                )
            }
        }
        // A mixed column on either side, or numeric-vs-non-numeric: fall back to exact
        // `Value` keys (still column-at-a-time; `Value` Eq/Hash already encode the
        // cross-type rules).  Non-numeric cross-variant pairs can never match, but an empty
        // probe is cheap and keeps the kernel count small.
        _ => join_typed(
            ln,
            rn,
            |row| value_key(lcol, row),
            |row| value_key(rcol, row),
        ),
    }
}

/// Non-null key extraction from a flat vector, mapped into its key form (float → bits);
/// `None` masks a null slot.
#[inline]
fn key_of<T: Copy, K>(
    values: &[T],
    nulls: Option<&NullBitmap>,
    slot: usize,
    key: impl Fn(T) -> K,
) -> Option<K> {
    (!is_null(nulls, slot)).then(|| key(values[slot]))
}

/// The key columns of a join input, `None` when the view is too narrow for one of them.
fn key_columns<'a>(view: &'a ColumnView, keys: &[usize]) -> Option<Vec<ColumnRef<'a>>> {
    keys.iter().map(|&k| view.column(k)).collect()
}

/// The exact `Value` at a logical row as a join key (`None` for NULL, which never matches).
fn value_key(col: ColumnRef<'_>, row: usize) -> Option<Value> {
    let v = col.column.value_at(col.slot(row));
    (!v.is_null()).then_some(v)
}

/// The end of a chain of right rows in [`join_typed`]'s build table.
const CHAIN_END: u32 = u32::MAX;

/// The shared build/probe loop of the join kernels over `ln` left and `rn` right logical
/// rows: the table is built from the right rows and probed with the left rows in order.
///
/// The table holds one chain of right rows per key: `heads` maps the key to its first row and
/// `next[r]` is the row after `r`.  It is built back to front, so every chain runs in right-row
/// order, and it allocates two buffers, not one per key.
fn join_typed<K: std::hash::Hash + Eq>(
    ln: usize,
    rn: usize,
    lkey: impl Fn(usize) -> Option<K>,
    rkey: impl Fn(usize) -> Option<K>,
) -> (Vec<u32>, Vec<u32>) {
    let mut heads: HashMap<K, u32> = HashMap::with_capacity(rn);
    let mut next = vec![CHAIN_END; rn];
    for r in (0..rn).rev() {
        if let Some(k) = rkey(r) {
            if let Some(head) = heads.insert(k, r as u32) {
                next[r] = head;
            }
        }
    }
    let mut lrows = Vec::new();
    let mut rrows = Vec::new();
    for l in 0..ln {
        let Some(k) = lkey(l) else { continue };
        let mut r = heads.get(&k).copied().unwrap_or(CHAIN_END);
        while r != CHAIN_END {
            lrows.push(l as u32);
            rrows.push(r);
            r = next[r as usize];
        }
    }
    (lrows, rrows)
}

/// Composite-key join, rows with any null component dropped on both sides.  Rows meet on the
/// hash of their components' exact `Value`s (no key is built per row); a chain may hold keys
/// that merely hash alike, so a pair is kept only where every component is equal.
fn join_multi_key(
    left: &ColumnView,
    right: &ColumnView,
    left_keys: &[usize],
    right_keys: &[usize],
) -> (Vec<u32>, Vec<u32>) {
    let (Some(lcols), Some(rcols)) = (key_columns(left, left_keys), key_columns(right, right_keys))
    else {
        return (Vec::new(), Vec::new());
    };
    let composite_hash = |cols: &[ColumnRef<'_>], row: usize| -> Option<u64> {
        let mut hasher = DefaultHasher::new();
        for &col in cols {
            value_key(col, row)?.hash(&mut hasher);
        }
        Some(hasher.finish())
    };
    let (mut lrows, mut rrows) = join_typed(
        left.len(),
        right.len(),
        |row| composite_hash(&lcols, row),
        |row| composite_hash(&rcols, row),
    );
    let mut kept = 0;
    for i in 0..lrows.len() {
        let (l, r) = (lrows[i] as usize, rrows[i] as usize);
        if lcols
            .iter()
            .zip(&rcols)
            .all(|(&a, &b)| value_key(a, l) == value_key(b, r))
        {
            lrows[kept] = lrows[i];
            rrows[kept] = rrows[i];
            kept += 1;
        }
    }
    lrows.truncate(kept);
    rrows.truncate(kept);
    (lrows, rrows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_storage::{Attribute, ColumnarRelation, DataType, Relation, Schema, Tuple};

    fn leaf(rows: Vec<Vec<Value>>) -> ColumnView {
        let arity = rows.first().map_or(0, Vec::len);
        let attrs = (0..arity)
            .map(|i| Attribute::new(format!("c{i}"), DataType::Null))
            .collect();
        let rel = Relation::from_validated(
            Schema::new("T", attrs),
            rows.into_iter().map(Tuple::new).collect(),
        );
        ColumnView::from_base(Arc::new(ColumnarRelation::from_relation(&rel)))
    }

    fn first_column(view: &ColumnView) -> Vec<Value> {
        view.materialize()
            .iter()
            .map(|t| t.get(0).cloned().unwrap())
            .collect()
    }

    #[test]
    fn filter_refines_selection_and_preserves_order() {
        let view = leaf(vec![
            vec![Value::from(5i64)],
            vec![Value::Null],
            vec![Value::from(-1i64)],
            vec![Value::from(9i64)],
        ]);
        let positive = BoundPredicate::Compare {
            pos: 0,
            op: CompareOp::Gt,
            value: Value::from(0i64),
        };
        let filtered = filter(&view, &positive);
        assert_eq!(
            first_column(&filtered),
            vec![Value::from(5i64), Value::from(9i64)]
        );
        // A second filter addresses the base through the first one's survivors.
        let big = BoundPredicate::Compare {
            pos: 0,
            op: CompareOp::Gt,
            value: Value::from(6i64),
        };
        assert_eq!(
            first_column(&filter(&filtered, &big)),
            vec![Value::from(9i64)]
        );
    }

    #[test]
    fn cross_variant_comparisons_resolve_by_rank() {
        // Int column vs text constant: Lt for every non-null row, Eq for none.
        let view = leaf(vec![vec![Value::from(4i64)], vec![Value::Null]]);
        let against = |op| BoundPredicate::Compare {
            pos: 0,
            op,
            value: Value::from("zz"),
        };
        assert_eq!(filter(&view, &against(CompareOp::Lt)).len(), 1);
        assert!(filter(&view, &against(CompareOp::Eq)).is_empty());
    }

    #[test]
    fn int_float_join_matches_cross_type() {
        let l = leaf(vec![vec![Value::from(1i64)], vec![Value::from(2i64)]]);
        let r = leaf(vec![vec![Value::from(2.0)], vec![Value::from(2.5)]]);
        let joined = hash_join(&l, &r, &[0], &[0]);
        assert_eq!(
            joined.materialize().as_slice(),
            [Tuple::new(vec![Value::from(2i64), Value::from(2.0)])]
        );
    }

    #[test]
    fn product_is_left_row_major() {
        let l = leaf(vec![vec![Value::from(1i64)], vec![Value::from(2i64)]]);
        let r = leaf(vec![vec![Value::from("a")], vec![Value::from("b")]]);
        let rows = product(&l, &r).materialize();
        let pairs: Vec<_> = rows
            .iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_i64().unwrap(),
                    t.get(1).unwrap().clone(),
                )
            })
            .collect();
        assert_eq!(
            pairs,
            vec![
                (1, Value::from("a")),
                (1, Value::from("b")),
                (2, Value::from("a")),
                (2, Value::from("b")),
            ]
        );
    }

    #[test]
    fn sum_skips_nulls_and_errors_on_text() {
        let view = leaf(vec![
            vec![Value::from(1i64), Value::from("x")],
            vec![Value::Null, Value::Null],
            vec![Value::from(2i64), Value::from("y")],
        ]);
        assert_eq!(sum(&view, 0), Some(3.0));
        assert_eq!(sum(&view, 1), None);
        // Position past the arity: every cell is "missing", the sum is empty.
        assert_eq!(sum(&view, 9), Some(0.0));
    }
}
