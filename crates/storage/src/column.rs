//! Columnar relation layout: typed per-column vectors with null bitmaps.
//!
//! The engine's hot operators (predicate evaluation, hash join build/probe, aggregate folds)
//! spend most of their time matching on the [`Value`] enum one cell at a time.  A
//! [`ColumnarRelation`] re-shapes a row [`Relation`] into per-column typed vectors — `i64`,
//! `f64` and `bool` columns as flat vectors plus null bitmaps, text columns
//! dictionary-encoded as `u32` codes — so those operators can run as tight per-column loops
//! driven by selection vectors.  The conversion borrows the rows' cells: a column is built
//! from references into the row buffer, a string is shared into its dictionary the first time
//! it is met, and only a [`Column::Mixed`] fallback copies values.  Columns are classified by
//! the *values actually present* (not the declared schema type): a column whose non-null
//! values are all `Int` becomes an [`Column::Int`] vector even if the schema declares `Float`
//! (which accepts ints).  Columns mixing variants, and text columns whose distinct-string
//! count overflows the dictionary limit, fall back to [`Column::Mixed`] plain value storage —
//! so reconstruction via [`Column::value_at`] is always *exactly* the original [`Value`]
//! sequence, bit-for-bit (float NaN payloads and `-0.0` included).
//!
//! A `ColumnarRelation` is how the [`Catalog`](crate::Catalog) holds a base relation at rest:
//! converted once, when the relation is inserted, and the only copy of its data from then on.
//! Operators never copy these columns: what flows between them is a
//! [`ColumnView`](crate::ColumnView) — index vectors over the columns built here.

use crate::dictionary::{text_bytes, Dictionary, DEFAULT_DICT_LIMIT};
use crate::{ColumnView, Relation, Value};
use std::sync::Arc;

/// A fixed-length bitmap marking null slots of a column (bit set = NULL).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
}

impl NullBitmap {
    /// An all-valid bitmap over `len` slots.
    #[must_use]
    pub fn new(len: usize) -> Self {
        NullBitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Rebuilds a bitmap from its packed words (decoded spill segments).  Bits past `len` are
    /// cleared so equality and null counts stay well defined.
    #[must_use]
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        NullBitmap { words, len }
    }

    /// Marks slot `i` as null.
    pub fn set_null(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether slot `i` is null (out-of-range slots read as valid).
    #[must_use]
    pub fn is_null(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of null slots.
    #[must_use]
    pub fn count_nulls(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed words (64 slots per word, LSB first).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// One column of a [`ColumnarRelation`]: a typed flat vector, or plain values when the column
/// mixes variants.  Null slots of typed columns hold a placeholder (`0` / `0.0` / `false` /
/// code `0`) and are masked by the bitmap.
#[derive(Debug, Clone)]
pub enum Column {
    /// All non-null values are `Value::Int`.
    Int {
        /// Per-row integers (placeholder `0` in null slots).
        values: Vec<i64>,
        /// Null mask, if the column has any nulls.
        nulls: Option<NullBitmap>,
    },
    /// All non-null values are `Value::Float`.
    Float {
        /// Per-row floats, bit-exact (placeholder `0.0` in null slots).
        values: Vec<f64>,
        /// Null mask, if the column has any nulls.
        nulls: Option<NullBitmap>,
    },
    /// All non-null values are `Value::Bool`.
    Bool {
        /// Per-row booleans (placeholder `false` in null slots).
        values: Vec<bool>,
        /// Null mask, if the column has any nulls.
        nulls: Option<NullBitmap>,
    },
    /// All non-null values are `Value::Text`, dictionary-encoded.
    Text {
        /// Per-row dictionary codes (placeholder `0` in null slots).
        codes: Vec<u32>,
        /// The column's dictionary.
        dict: Dictionary,
        /// Null mask, if the column has any nulls.
        nulls: Option<NullBitmap>,
    },
    /// Fallback: mixed variants or dictionary overflow — the values verbatim.
    Mixed(Vec<Value>),
}

impl Column {
    /// Builds a column from its cells, read by reference, classifying by the variants actually
    /// present.  `dict_limit` bounds the text dictionary (sized up front for the smaller of
    /// the row count and the limit, then shrunk to the strings it holds); overflow falls back
    /// to [`Column::Mixed`] — the one kind of column that clones its cells.
    #[must_use]
    pub fn from_cells<'a, I>(cells: I, dict_limit: usize) -> Column
    where
        I: ExactSizeIterator<Item = &'a Value> + Clone,
    {
        #[derive(PartialEq, Clone, Copy)]
        enum Kind {
            Unknown,
            Int,
            Float,
            Bool,
            Text,
        }
        let mut kind = Kind::Unknown;
        let mut has_null = false;
        for v in cells.clone() {
            let this = match v {
                Value::Null => {
                    has_null = true;
                    continue;
                }
                Value::Int(_) => Kind::Int,
                Value::Float(_) => Kind::Float,
                Value::Bool(_) => Kind::Bool,
                Value::Text(_) => Kind::Text,
            };
            if kind == Kind::Unknown {
                kind = this;
            } else if kind != this {
                return Column::Mixed(cells.cloned().collect());
            }
        }
        let n = cells.len();
        let mut nulls = if has_null {
            Some(NullBitmap::new(n))
        } else {
            None
        };
        /// A typed column's values: `value` of each cell, or a placeholder marked null.
        fn typed<'a, T: Default>(
            cells: impl Iterator<Item = &'a Value>,
            nulls: &mut Option<NullBitmap>,
            value: impl Fn(&Value) -> Option<T>,
        ) -> Vec<T> {
            let cell = |(i, v)| {
                value(v).unwrap_or_else(|| {
                    if let Some(b) = nulls.as_mut() {
                        b.set_null(i);
                    }
                    T::default()
                })
            };
            cells.enumerate().map(cell).collect()
        }
        match kind {
            // An all-null column is a degenerate int column under a full mask.
            Kind::Unknown | Kind::Int => Column::Int {
                values: typed(cells, &mut nulls, Value::as_i64),
                nulls,
            },
            Kind::Float => Column::Float {
                values: typed(cells, &mut nulls, Value::as_f64),
                nulls,
            },
            Kind::Bool => Column::Bool {
                values: typed(cells, &mut nulls, Value::as_bool),
                nulls,
            },
            Kind::Text => {
                let mut dict = Dictionary::with_capacity(n.min(dict_limit));
                let mut codes = Vec::with_capacity(n);
                for (i, v) in cells.clone().enumerate() {
                    match v {
                        Value::Text(s) => match dict.intern_within(s, dict_limit) {
                            Some(code) => codes.push(code),
                            None => return Column::Mixed(cells.cloned().collect()),
                        },
                        _ => {
                            codes.push(0);
                            if let Some(b) = nulls.as_mut() {
                                b.set_null(i);
                            }
                        }
                    }
                }
                dict.shrink_to_fit();
                Column::Text { codes, dict, nulls }
            }
        }
    }

    /// Whether slot `i` is null.
    #[must_use]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Text { nulls, .. } => nulls.as_ref().is_some_and(|b| b.is_null(i)),
            Column::Mixed(values) => values.get(i).is_some_and(Value::is_null),
        }
    }

    /// Reconstructs the exact original [`Value`] at slot `i` (panics if out of range).
    #[must_use]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Mixed(values) => values[i].clone(),
            _ if self.is_null(i) => Value::Null,
            Column::Int { values, .. } => Value::Int(values[i]),
            Column::Float { values, .. } => Value::Float(values[i]),
            Column::Bool { values, .. } => Value::Bool(values[i]),
            Column::Text { codes, dict, .. } => Value::Text(Arc::clone(
                dict.get(codes[i]).expect("dictionary code in range"),
            )),
        }
    }

    /// Bytes the column holds on the heap (see [`ColumnarRelation::estimated_bytes`]).
    #[must_use]
    pub(crate) fn estimated_bytes(&self) -> usize {
        fn vec<T>(values: &[T], nulls: &Option<NullBitmap>) -> usize {
            size_of_val(values) + nulls.as_ref().map_or(0, |b| size_of_val(b.words()))
        }
        match self {
            Column::Int { values, nulls } => vec(values, nulls),
            Column::Float { values, nulls } => vec(values, nulls),
            Column::Bool { values, nulls } => vec(values, nulls),
            Column::Text { codes, dict, nulls } => vec(codes, nulls) + dict.estimated_bytes(),
            Column::Mixed(values) => {
                size_of_val(values.as_slice())
                    + (values.iter())
                        .map(|v| v.as_str().map_or(0, text_bytes))
                        .sum::<usize>()
            }
        }
    }
}

/// A relation re-shaped into typed columns.
///
/// Columns are positional and carry no attribute names: the same relation scanned under
/// different aliases (renamed schemas) reads one set of columns.  The row count is kept
/// beside them, since a relation of no columns still has rows.
#[derive(Debug, Clone)]
pub struct ColumnarRelation {
    len: usize,
    columns: Vec<Arc<Column>>,
}

impl ColumnarRelation {
    /// The columns of a relation under the default dictionary limit: a relation that is a
    /// whole converted base hands back that base's columns (an `Arc` clone per column) and
    /// builds no rows; any other is converted from its rows.
    #[must_use]
    pub fn from_relation(rel: &Relation) -> Self {
        match rel.view().and_then(ColumnView::as_base) {
            Some(base) => (**base).clone(),
            None => ColumnarRelation::from_relation_with_limit(rel, DEFAULT_DICT_LIMIT),
        }
    }

    /// Converts a relation's rows, bounding each text column's dictionary at `dict_limit`
    /// distinct strings (overflowing columns stay as plain values).
    ///
    /// Each column's cells are read in place, by reference ([`Column::from_cells`]); a text
    /// cell's string is shared into the dictionary the first time it is met, and only a
    /// [`Column::Mixed`] column copies its cells.  A cell past a row's end reads NULL.
    #[must_use]
    pub fn from_relation_with_limit(rel: &Relation, dict_limit: usize) -> Self {
        static NULL: Value = Value::Null;
        let rows = rel.rows();
        let columns = (0..rel.schema().arity())
            .map(|pos| {
                let cells = rows.iter().map(move |t| t.get(pos).unwrap_or(&NULL));
                Arc::new(Column::from_cells(cells, dict_limit))
            })
            .collect();
        ColumnarRelation {
            len: rows.len(),
            columns,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column at position `pos`.
    #[must_use]
    pub fn column(&self, pos: usize) -> Option<&Arc<Column>> {
        self.columns.get(pos)
    }

    /// All columns in position order.
    #[must_use]
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Bytes the columns hold on the heap: value vectors, null bitmaps, dictionaries (strings,
    /// hashes and index) and the cells of `Mixed` columns.
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.estimated_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, DataType, Schema, Tuple};

    fn rel(rows: Vec<Vec<Value>>) -> Relation {
        let arity = rows.first().map_or(0, Vec::len);
        let attrs = (0..arity)
            .map(|i| Attribute::new(format!("c{i}"), DataType::Null))
            .collect();
        Relation::from_validated(
            Schema::new("T", attrs),
            rows.into_iter().map(Tuple::new).collect(),
        )
    }

    fn reconstruct(col: &ColumnarRelation) -> Vec<Vec<Value>> {
        (0..col.len())
            .map(|i| {
                (0..col.arity())
                    .map(|p| col.column(p).unwrap().value_at(i))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn typed_columns_classify_by_actual_variants() {
        let r = rel(vec![
            vec![
                Value::from(1i64),
                Value::from(1.5),
                Value::from(true),
                Value::from("a"),
            ],
            vec![
                Value::from(2i64),
                Value::from(-0.0),
                Value::from(false),
                Value::from("b"),
            ],
        ]);
        let c = ColumnarRelation::from_relation(&r);
        assert!(matches!(&**c.column(0).unwrap(), Column::Int { .. }));
        assert!(matches!(&**c.column(1).unwrap(), Column::Float { .. }));
        assert!(matches!(&**c.column(2).unwrap(), Column::Bool { .. }));
        assert!(matches!(&**c.column(3).unwrap(), Column::Text { .. }));
    }

    #[test]
    fn reconstruction_is_exact_including_nulls_and_float_bits() {
        let rows = vec![
            vec![Value::from(7i64), Value::Float(-0.0), Value::from("x")],
            vec![Value::Null, Value::Float(f64::NAN), Value::Null],
            vec![Value::from(-3i64), Value::Float(2.5), Value::from("x")],
        ];
        let r = rel(rows.clone());
        let c = ColumnarRelation::from_relation(&r);
        let back = reconstruct(&c);
        for (orig, got) in rows.iter().zip(&back) {
            for (o, g) in orig.iter().zip(got) {
                // Bit-exact: compare through the total order AND the variant.
                assert_eq!(o, g);
                assert_eq!(o.data_type(), g.data_type());
                if let (Value::Float(a), Value::Float(b)) = (o, g) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn mixed_variants_fall_back_to_plain_values() {
        let r = rel(vec![vec![Value::from(1i64)], vec![Value::from("one")]]);
        let c = ColumnarRelation::from_relation(&r);
        assert!(matches!(&**c.column(0).unwrap(), Column::Mixed(_)));
        assert_eq!(reconstruct(&c)[1][0], Value::from("one"));
    }

    #[test]
    fn int_and_float_mix_is_not_coerced() {
        // 1i64 == 1.0f64 under Value's cross-type equality, but the columnar layout must keep
        // the variants distinct — coercing would change hash-join and rendering semantics.
        let r = rel(vec![vec![Value::from(1i64)], vec![Value::from(1.0)]]);
        let c = ColumnarRelation::from_relation(&r);
        assert!(matches!(&**c.column(0).unwrap(), Column::Mixed(_)));
    }

    #[test]
    fn all_null_column_reconstructs_nulls() {
        let r = rel(vec![vec![Value::Null], vec![Value::Null]]);
        let c = ColumnarRelation::from_relation(&r);
        assert_eq!(reconstruct(&c), vec![vec![Value::Null], vec![Value::Null]]);
    }

    #[test]
    fn dictionary_overflow_falls_back_to_plain_values() {
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::text(format!("s{i}"))])
            .collect();
        let r = rel(rows.clone());
        let c = ColumnarRelation::from_relation_with_limit(&r, 4);
        assert!(matches!(&**c.column(0).unwrap(), Column::Mixed(_)));
        assert_eq!(reconstruct(&c), rows);
        // A generous limit dictionary-encodes the same column.
        let c = ColumnarRelation::from_relation_with_limit(&r, 64);
        assert!(matches!(&**c.column(0).unwrap(), Column::Text { .. }));
        assert_eq!(reconstruct(&c), rows);
    }

    #[test]
    fn a_whole_base_is_handed_back_without_building_rows() {
        let r = rel(vec![vec![Value::from(1i64), Value::from("a")]; 3]);
        let base = Arc::new(ColumnarRelation::from_relation(&r));
        let at_rest = Relation::from_view(r.schema().clone(), ColumnView::from_base(base));
        let before = at_rest.estimated_bytes();
        let again = ColumnarRelation::from_relation(&at_rest.with_schema(r.schema().renamed("A")));
        let base = at_rest.view().and_then(ColumnView::as_base).unwrap();
        assert!(Arc::ptr_eq(&again.columns()[1], &base.columns()[1]));
        assert_eq!(at_rest.estimated_bytes(), before, "no rows were built");
        assert_eq!(before, base.estimated_bytes());
    }

    #[test]
    fn zero_column_relations_keep_their_rows() {
        let r = Relation::from_validated(Schema::new("T", vec![]), vec![Tuple::new(vec![]); 4]);
        let c = ColumnarRelation::from_relation(&r);
        assert_eq!((c.len(), c.arity(), c.estimated_bytes()), (4, 0, 0));
    }

    #[test]
    fn bitmap_marks_and_counts() {
        let mut b = NullBitmap::new(130);
        b.set_null(0);
        b.set_null(64);
        b.set_null(129);
        assert!(b.is_null(0) && b.is_null(64) && b.is_null(129));
        assert!(!b.is_null(1) && !b.is_null(128));
        assert_eq!(b.count_nulls(), 3);
        let rebuilt = NullBitmap::from_words(b.words().to_vec(), 130);
        assert_eq!(rebuilt, b);
        // Stray bits past `len` are cleared on rebuild.
        let noisy = NullBitmap::from_words(vec![u64::MAX], 3);
        assert_eq!(noisy.count_nulls(), 3);
    }
}
