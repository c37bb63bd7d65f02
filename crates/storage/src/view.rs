//! Late-materialized columnar views: base columns addressed through row-index vectors.
//!
//! A [`ColumnView`] is what a vectorized operator hands to the next one.  It never copies a
//! cell: it names the converted base relations that contribute to it (its *groups*), carries
//! one `u32` row-index vector per group mapping the view's logical rows onto that base's
//! physical slots, and lists which (group, column) pair backs each output column.
//!
//! ```text
//!   σ  refines    every group's index vector through the survivor list
//!   ⋈/× composes  the left groups through the left match list, the right groups through the
//!                 right one — one u32 gather per *group*, not one value gather per column
//!   π  re-lists   the output columns and drops the groups nothing refers to any more
//! ```
//!
//! So the cost of an interior operator is proportional to `rows × contributing inputs`, not
//! `rows × columns`, and [`Tuple`]s are built only by [`materialize`](ColumnView::materialize)
//! — for the (already projected) columns of whoever finally reads rows.  Answer extraction
//! does not even do that: it reads the output columns where they lie ([`column`](ColumnView::column))
//! and turns cells into ids of the answer's own value pool, a dictionary entry at a time.  The
//! `Distinct` operator names the rows that differ by their column codes
//! ([`distinct_rows`](ColumnView::distinct_rows)) and builds none at all.

use crate::{Column, ColumnarRelation, Tuple, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One contributing input of a [`ColumnView`]: a converted base relation and the index vector
/// addressing it (`None` = the identity over the base's rows).
#[derive(Debug, Clone)]
struct ViewGroup {
    base: Arc<ColumnarRelation>,
    sel: Option<Arc<Vec<u32>>>,
}

impl ViewGroup {
    /// The group as seen through `picks` (logical rows of the owning view, any order,
    /// repeats allowed).
    fn compose(&self, picks: &Arc<Vec<u32>>) -> ViewGroup {
        let sel = match &self.sel {
            None => Arc::clone(picks),
            Some(sel) => Arc::new(picks.iter().map(|&row| sel[row as usize]).collect()),
        };
        ViewGroup {
            base: Arc::clone(&self.base),
            sel: Some(sel),
        }
    }
}

/// One output column of a [`ColumnView`]: the base column plus the index vector that maps the
/// view's logical rows onto its slots.
#[derive(Debug, Clone, Copy)]
pub struct ColumnRef<'a> {
    /// The base column (shared, never gathered).
    pub column: &'a Column,
    sel: Option<&'a [u32]>,
}

impl ColumnRef<'_> {
    /// The physical slot of `column` holding logical row `row` of the view.
    #[inline]
    #[must_use]
    pub fn slot(&self, row: usize) -> usize {
        match self.sel {
            Some(sel) => sel[row] as usize,
            None => row,
        }
    }
}

/// A late-materialized relation: shared base columns plus one row-index vector per
/// contributing input (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ColumnView {
    groups: Vec<ViewGroup>,
    /// Output column → (group, column of that group's base); shared by the selections over
    /// one view, which never change it.
    cols: Arc<[(u32, u32)]>,
    len: usize,
}

impl ColumnView {
    /// The view of a whole converted relation: one group, every row, every column in order.
    #[must_use]
    pub fn from_base(base: Arc<ColumnarRelation>) -> ColumnView {
        ColumnView {
            cols: (0..base.arity() as u32).map(|c| (0, c)).collect(),
            len: base.len(),
            groups: vec![ViewGroup { base, sel: None }],
        }
    }

    /// The converted relation this view is the whole of — every row, every column, in
    /// order — if it is one.
    #[must_use]
    pub fn as_base(&self) -> Option<&Arc<ColumnarRelation>> {
        let [ViewGroup { base, sel: None }] = self.groups.as_slice() else {
            return None;
        };
        let identity = self
            .cols
            .iter()
            .enumerate()
            .all(|(i, &(_, c))| c as usize == i);
        (identity && self.cols.len() == base.arity()).then_some(base)
    }

    /// Number of logical rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view has no logical rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of output columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of contributing inputs (index vectors) the view carries.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The output column at `pos`, if the view is wide enough.
    #[must_use]
    pub fn column(&self, pos: usize) -> Option<ColumnRef<'_>> {
        let &(group, col) = self.cols.get(pos)?;
        let group = &self.groups[group as usize];
        Some(ColumnRef {
            column: group.base.column(col as usize)?,
            sel: group.sel.as_ref().map(|s| s.as_slice()),
        })
    }

    /// The view restricted to (and ordered by) the logical rows in `rows`: every group's
    /// index vector is refined through the list, nothing else is touched.
    #[must_use]
    pub fn select_rows(&self, rows: Vec<u32>) -> ColumnView {
        let rows = Arc::new(rows);
        ColumnView {
            groups: self.groups.iter().map(|g| g.compose(&rows)).collect(),
            cols: Arc::clone(&self.cols),
            len: rows.len(),
        }
    }

    /// Keeps the output columns at `positions`, in that order, dropping every group no kept
    /// column refers to.  Positions must be within the view's arity (bound plans are).
    #[must_use]
    pub fn project(&self, positions: &[usize]) -> ColumnView {
        let mut remap: Vec<Option<u32>> = vec![None; self.groups.len()];
        let mut groups = Vec::new();
        let cols: Vec<(u32, u32)> = positions
            .iter()
            .map(|&p| {
                let (group, col) = self.cols[p];
                let kept = *remap[group as usize].get_or_insert_with(|| {
                    groups.push(self.groups[group as usize].clone());
                    groups.len() as u32 - 1
                });
                (kept, col)
            })
            .collect();
        ColumnView {
            groups,
            cols: cols.into(),
            len: self.len,
        }
    }

    /// The output of a join or product: row `i` pairs logical row `left_rows[i]` of `left`
    /// with logical row `right_rows[i]` of `right`; columns are `left`'s then `right`'s.
    #[must_use]
    pub fn paired(
        left: &ColumnView,
        right: &ColumnView,
        left_rows: Vec<u32>,
        right_rows: Vec<u32>,
    ) -> ColumnView {
        assert_eq!(left_rows.len(), right_rows.len(), "unpaired match lists");
        let len = left_rows.len();
        let (left_rows, right_rows) = (Arc::new(left_rows), Arc::new(right_rows));
        let offset = left.groups.len() as u32;
        ColumnView {
            groups: left
                .groups
                .iter()
                .map(|g| g.compose(&left_rows))
                .chain(right.groups.iter().map(|g| g.compose(&right_rows)))
                .collect(),
            cols: left
                .cols
                .iter()
                .copied()
                .chain(right.cols.iter().map(|&(g, c)| (g + offset, c)))
                .collect::<Vec<_>>()
                .into(),
            len,
        }
    }

    /// Builds the view's rows, each tuple reconstructed from the output columns — value for
    /// value what the row-at-a-time reference evaluator produces.
    #[must_use]
    pub fn materialize(&self) -> Arc<Vec<Tuple>> {
        let columns: Vec<ColumnRef<'_>> = (0..self.cols.len())
            .map(|pos| self.column(pos).expect("view column in range"))
            .collect();
        Arc::new(
            (0..self.len)
                .map(|row| {
                    columns
                        .iter()
                        .map(|c| c.column.value_at(c.slot(row)))
                        .collect()
                })
                .collect(),
        )
    }

    /// The logical rows holding the first occurrence of each distinct combination of values in
    /// the output columns at `positions`, in row order — `DISTINCT` decided on column codes,
    /// before any [`Tuple`](crate::Tuple) exists.
    ///
    /// Each key column contributes one machine word per row that is equal exactly when the
    /// [`Value`]s are: an `i64`, the bit pattern of an `f64` (so `-0.0`, `0.0` and every NaN
    /// payload stay apart, as `Value`'s total order keeps them), a bool, a dictionary code
    /// (the conversions views are built over intern each string once), with nulls folded in;
    /// a `Mixed` column interns its `Value`s, so cross-variant equality is `Value`'s own.
    /// Repeated positions count once; with no key column every row is the same row.
    #[must_use]
    pub fn distinct_rows(&self, positions: &[usize]) -> Vec<u32> {
        let mut keyed: Vec<usize> = Vec::with_capacity(positions.len());
        for &pos in positions {
            if !keyed.contains(&pos) {
                keyed.push(pos);
            }
        }
        let columns: Vec<ColumnRef<'_>> = keyed
            .iter()
            .map(|&pos| self.column(pos).expect("view column in range"))
            .collect();
        let width: usize = columns.iter().map(|c| key_words(c.column)).sum();
        if self.len == 0 || width == 0 {
            return Vec::from_iter((self.len > 0).then_some(0));
        }
        let rows = self.distinct_slot_rows(&keyed);
        let mut keys = vec![0u64; rows.len() * width];
        let mut offset = 0;
        for column in &columns {
            write_key_words(column, &rows, &mut keys[offset..], width);
            offset += key_words(column.column);
        }
        let mut seen: HashSet<&[u64]> = HashSet::new();
        rows.iter()
            .zip(keys.chunks_exact(width))
            .filter(|(_, key)| seen.insert(key))
            .map(|(&row, _)| row)
            .collect()
    }

    /// The logical rows that differ from every earlier row in the *slots* the columns at
    /// `keyed` read.  Equal slots hold equal values, so these are the only rows
    /// [`distinct_rows`](ColumnView::distinct_rows) has to compare by value — and a join or
    /// product over small inputs repeats few slot combinations many times.  The combinations
    /// are numbered in mixed radix over the bases' sizes and ticked off in a bitmap, while
    /// that stays within a few bits per row; past it, every row is handed back.
    fn distinct_slot_rows(&self, keyed: &[usize]) -> Vec<u32> {
        let mut groups: Vec<&ViewGroup> = Vec::new();
        for &pos in keyed {
            let group = &self.groups[self.cols[pos].0 as usize];
            if !groups.iter().any(|g| std::ptr::eq(*g, group)) {
                groups.push(group);
            }
        }
        let all = 0..self.len as u32;
        let combinations = groups
            .iter()
            .try_fold(1usize, |n, g| n.checked_mul(g.base.len()))
            .filter(|&n| n <= self.len.saturating_mul(64));
        let Some(combinations) = combinations else {
            return all.collect();
        };
        let mut seen = vec![0u64; combinations.div_ceil(64)];
        all.filter(|&row| {
            let combination = groups.iter().fold(0usize, |n, g| {
                let slot = g.sel.as_ref().map_or(row, |sel| sel[row as usize]);
                n * g.base.len() + slot as usize
            });
            let (word, bit) = (combination / 64, 1u64 << (combination % 64));
            let fresh = seen[word] & bit == 0;
            seen[word] |= bit;
            fresh
        })
        .collect()
    }

    /// Bytes the view itself holds: its index vectors and column list.  The base columns
    /// belong to the catalog's relations and are not counted.
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        let indices: usize = self
            .groups
            .iter()
            .map(|g| g.sel.as_ref().map_or(0, |s| s.len() * 4))
            .sum();
        indices + self.cols.len() * 8
    }
}

/// Words a column contributes to a [`distinct_rows`](ColumnView::distinct_rows) key: one, or
/// two for a nullable `i64`/`f64` column, whose values leave no spare pattern for NULL — a
/// validity flag goes ahead of the value.
fn key_words(column: &Column) -> usize {
    match column {
        Column::Int { nulls: Some(_), .. } | Column::Float { nulls: Some(_), .. } => 2,
        _ => 1,
    }
}

/// Writes one column's key words for the logical rows in `rows`: the `i`-th row's go to
/// `out[i * stride..]`.
fn write_key_words(col: &ColumnRef<'_>, rows: &[u32], out: &mut [u64], stride: usize) {
    /// `word(slot)` for every row, `stride` apart; a null slot's word is 0.
    fn fill(
        col: &ColumnRef<'_>,
        rows: &[u32],
        out: &mut [u64],
        stride: usize,
        mut word: impl FnMut(usize) -> u64,
    ) {
        for (cell, &row) in out.iter_mut().step_by(stride).zip(rows) {
            let slot = col.slot(row as usize);
            *cell = if col.column.is_null(slot) {
                0
            } else {
                word(slot)
            };
        }
    }
    let flag = key_words(col.column) - 1;
    if flag == 1 {
        fill(col, rows, out, stride, |_| 1);
    }
    let out = &mut out[flag..];
    match col.column {
        Column::Int { values, .. } => fill(col, rows, out, stride, |s| values[s] as u64),
        Column::Float { values, .. } => fill(col, rows, out, stride, |s| values[s].to_bits()),
        Column::Bool { values, .. } => fill(col, rows, out, stride, |s| 1 + u64::from(values[s])),
        Column::Text { codes, .. } => fill(col, rows, out, stride, |s| 1 + u64::from(codes[s])),
        Column::Mixed(values) => {
            let mut ids: HashMap<&Value, u64> = HashMap::new();
            fill(col, rows, out, stride, |s| {
                let next = 1 + ids.len() as u64;
                *ids.entry(&values[s]).or_insert(next)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, DataType, Relation, Schema, Value};

    fn base(name: &str, rows: Vec<Vec<Value>>) -> (Arc<ColumnarRelation>, Relation) {
        let arity = rows.first().map_or(0, Vec::len);
        let attrs = (0..arity)
            .map(|i| Attribute::new(format!("c{i}"), DataType::Null))
            .collect();
        let rel = Relation::from_validated(
            Schema::new(name, attrs),
            rows.into_iter().map(Tuple::new).collect(),
        );
        (Arc::new(ColumnarRelation::from_relation(&rel)), rel)
    }

    fn ints(rows: &[Tuple]) -> Vec<Vec<Option<i64>>> {
        rows.iter()
            .map(|t| t.iter().map(Value::as_i64).collect())
            .collect()
    }

    #[test]
    fn whole_base_views_hold_no_indices() {
        let (conv, rel) = base("T", vec![vec![Value::from(1i64)], vec![Value::from(2i64)]]);
        let view = ColumnView::from_base(Arc::clone(&conv));
        assert!(Arc::ptr_eq(view.as_base().unwrap(), &conv));
        assert_eq!(*view.materialize(), rel.rows());
        assert!(view.select_rows(vec![0, 1]).as_base().is_none());
        assert!(view.project(&[0, 0]).as_base().is_none());
        assert_eq!(
            view.estimated_bytes(),
            8,
            "an unfiltered view holds no indices"
        );
    }

    #[test]
    fn selections_compose_through_earlier_selections() {
        let (conv, _) = base("T", (0..6).map(|i| vec![Value::from(i as i64)]).collect());
        let view = ColumnView::from_base(conv).select_rows(vec![1, 3, 5]);
        // Logical rows 2 and 0 of the filtered view are physical slots 5 and 1.
        let again = view.select_rows(vec![2, 0]);
        assert_eq!(
            ints(&again.materialize()),
            vec![vec![Some(5)], vec![Some(1)]]
        );
        assert_eq!(again.column(0).unwrap().slot(0), 5);
    }

    #[test]
    fn pairing_composes_one_index_vector_per_input() {
        let (l, _) = base(
            "L",
            (0..3)
                .map(|i| vec![Value::from(i as i64), Value::Null])
                .collect(),
        );
        let (r, _) = base("R", (10..12).map(|i| vec![Value::from(i as i64)]).collect());
        let left = ColumnView::from_base(l).select_rows(vec![2, 0]);
        let right = ColumnView::from_base(Arc::clone(&r));
        let joined = ColumnView::paired(&left, &right, vec![0, 1, 1], vec![1, 0, 1]);
        assert_eq!(joined.group_count(), 2);
        assert_eq!(joined.arity(), 3);
        assert_eq!(
            ints(&joined.materialize()),
            vec![
                vec![Some(2), None, Some(11)],
                vec![Some(0), None, Some(10)],
                vec![Some(0), None, Some(11)],
            ]
        );
        assert_eq!(joined.estimated_bytes(), 2 * 3 * 4 + 3 * 8);

        // A self-join is two groups over the same base columns.
        let twice = ColumnView::paired(&right, &right, vec![0, 1], vec![1, 1]);
        assert_eq!(twice.group_count(), 2);
        assert_eq!(
            ints(&twice.materialize()),
            vec![vec![Some(10), Some(11)], vec![Some(11), Some(11)]]
        );
    }

    #[test]
    fn projection_drops_groups_nothing_refers_to() {
        let (l, _) = base("L", vec![vec![Value::from(1i64), Value::from(2i64)]]);
        let (r, _) = base("R", vec![vec![Value::from(3i64)]]);
        let joined = ColumnView::paired(
            &ColumnView::from_base(l),
            &ColumnView::from_base(r),
            vec![0],
            vec![0],
        );
        let narrow = joined.project(&[2, 2]);
        assert_eq!(narrow.group_count(), 1);
        assert_eq!(ints(&narrow.materialize()), vec![vec![Some(3), Some(3)]]);
        let reordered = joined.project(&[2, 0]);
        assert_eq!(reordered.group_count(), 2);
        assert_eq!(ints(&reordered.materialize()), vec![vec![Some(3), Some(1)]]);
    }

    #[test]
    fn distinct_rows_compare_codes_exactly_as_values_compare() {
        let nan = f64::NAN;
        let (conv, rel) = base(
            "T",
            vec![
                vec![Value::from(1i64), Value::Float(0.0), Value::from("a")],
                vec![Value::Null, Value::Float(-0.0), Value::from("a")],
                vec![Value::from(0i64), Value::Float(nan), Value::Null],
                vec![Value::from(1i64), Value::Float(0.0), Value::from("a")],
                vec![Value::Null, Value::Float(-0.0), Value::from("b")],
                vec![Value::from(0i64), Value::Float(-nan), Value::Null],
                vec![Value::from(0i64), Value::Float(nan), Value::Null],
            ],
        );
        let view = ColumnView::from_base(conv);
        // NULL is not 0, -0.0 is not 0.0, the two NaNs differ in their sign bit.
        assert_eq!(view.distinct_rows(&[0, 1, 2]), vec![0, 1, 2, 4, 5]);
        assert_eq!(view.distinct_rows(&[0]), vec![0, 1, 2]);
        assert_eq!(view.distinct_rows(&[1]), vec![0, 1, 2, 5]);
        assert_eq!(view.distinct_rows(&[2, 2]), vec![0, 2, 4]);
        assert_eq!(view.distinct_rows(&[]), vec![0], "no key: one row");
        // What the codes call distinct is what `Value` equality calls distinct.
        let mut seen = std::collections::HashSet::new();
        let by_value: Vec<u32> = (0..rel.len() as u32)
            .filter(|&r| seen.insert(rel.rows()[r as usize].clone()))
            .collect();
        assert_eq!(view.distinct_rows(&[0, 1, 2]), by_value);

        let none = view.select_rows(Vec::new());
        assert!(none.distinct_rows(&[0, 1]).is_empty());
        assert!(none.distinct_rows(&[]).is_empty());
    }

    #[test]
    fn distinct_rows_follow_value_equality_through_mixed_columns() {
        // Int 1 and Float 1.0 are one `Value`; the column holding both is `Mixed`.
        let (conv, _) = base(
            "T",
            vec![
                vec![Value::from(1i64)],
                vec![Value::from("1")],
                vec![Value::Float(1.0)],
                vec![Value::Null],
                vec![Value::from("1")],
                vec![Value::Null],
            ],
        );
        assert!(matches!(&**conv.column(0).unwrap(), Column::Mixed(_)));
        let view = ColumnView::from_base(conv);
        assert_eq!(view.distinct_rows(&[0]), vec![0, 1, 3]);
    }

    #[test]
    fn distinct_rows_skip_repeated_slots_of_a_product() {
        let (l, _) = base("L", (0..3).map(|i| vec![Value::from(i % 2)]).collect());
        let (r, _) = base("R", (0..4).map(|i| vec![Value::from(i % 2)]).collect());
        let (left, right) = (ColumnView::from_base(l), ColumnView::from_base(r));
        let pairs: Vec<(u32, u32)> = (0..3).flat_map(|l| (0..4).map(move |r| (l, r))).collect();
        // The product twice over: every slot pair occurs twice, every value pair three times.
        let (lrows, rrows): (Vec<u32>, Vec<u32>) = pairs.iter().chain(&pairs).copied().unzip();
        let product = ColumnView::paired(&left, &right, lrows, rrows);
        assert_eq!(product.distinct_slot_rows(&[0, 1]).len(), 12);
        assert_eq!(product.distinct_rows(&[0, 1]), vec![0, 1, 4, 5]);
        assert_eq!(product.distinct_rows(&[1]), vec![0, 1]);
        // Too many slot combinations for the rows there are: every row is compared by value.
        let (wide, _) = base("W", (0..200).map(|i| vec![Value::from(i % 2)]).collect());
        let wide = ColumnView::from_base(wide);
        let sparse = ColumnView::paired(&wide, &wide, vec![7, 7, 8], vec![9, 9, 10]);
        assert_eq!(sparse.distinct_slot_rows(&[0, 1]), vec![0, 1, 2]);
        assert_eq!(sparse.distinct_rows(&[0, 1]), vec![0, 2]);
    }

    #[test]
    fn empty_selections_keep_the_shape() {
        let (conv, _) = base("T", vec![vec![Value::from(1i64)]]);
        let none = ColumnView::from_base(conv).select_rows(Vec::new());
        assert!(none.is_empty());
        assert_eq!(none.arity(), 1);
        assert!(none.materialize().is_empty());
    }
}
