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
//! — for the (already projected) columns of whoever finally reads rows.

use crate::{Column, ColumnarRelation, Tuple};
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

    /// Builds the view's rows.  A view that is still a whole base relation hands back the
    /// base's own row buffer; a filtered one clones the surviving base tuples (pointer
    /// bumps); anything else reconstructs each tuple from its output columns.  All three are
    /// value-for-value what the row operators produce.
    #[must_use]
    pub fn materialize(&self) -> Arc<Vec<Tuple>> {
        if let [group] = self.groups.as_slice() {
            let whole = self.cols.len() == group.base.arity()
                && self
                    .cols
                    .iter()
                    .enumerate()
                    .all(|(i, &(_, c))| c as usize == i);
            if whole {
                let source = group.base.source();
                return match &group.sel {
                    None => source,
                    Some(sel) => {
                        Arc::new(sel.iter().map(|&i| source[i as usize].clone()).collect())
                    }
                };
            }
        }
        let columns: Vec<ColumnRef<'_>> = (0..self.cols.len())
            .map(|pos| self.column(pos).expect("view column in range"))
            .collect();
        Arc::new(
            (0..self.len)
                .map(|row| {
                    Tuple::new(
                        columns
                            .iter()
                            .map(|c| c.column.value_at(c.slot(row)))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Bytes the view itself holds: its index vectors and column list.  The base columns
    /// belong to the catalog's conversions and are not counted.
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
    fn whole_base_views_hand_back_the_shared_row_buffer() {
        let (conv, rel) = base("T", vec![vec![Value::from(1i64)], vec![Value::from(2i64)]]);
        let view = ColumnView::from_base(conv);
        assert!(Arc::ptr_eq(&view.materialize(), &rel.shared_rows()));
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
    fn empty_selections_keep_the_shape() {
        let (conv, _) = base("T", vec![vec![Value::from(1i64)]]);
        let none = ColumnView::from_base(conv).select_rows(Vec::new());
        assert!(none.is_empty());
        assert_eq!(none.arity(), 1);
        assert!(none.materialize().is_empty());
    }
}
