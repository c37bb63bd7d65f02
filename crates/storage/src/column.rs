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
//! A `ColumnarRelation` keeps a strong reference to the `Arc<Vec<Tuple>>` it was built from, so
//! engines can hand out zero-copy row views of a scanned base relation while running the
//! columnar kernels, caches can key conversions by buffer identity, and a
//! [`ColumnView`](crate::ColumnView) that is still a (filtered) whole base relation can hand
//! back the original tuples instead of rebuilding them.  Operators never copy these columns:
//! what flows between them is a `ColumnView` — index vectors over the columns built here.

use crate::dictionary::{Dictionary, DEFAULT_DICT_LIMIT};
use crate::{Relation, Tuple, Value};
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

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        /// The column's dictionary (shared between gathered views of the column).
        dict: Arc<Dictionary>,
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
        let mark = |nulls: &mut Option<NullBitmap>, i: usize| {
            if let Some(b) = nulls.as_mut() {
                b.set_null(i);
            }
        };
        match kind {
            // An all-null column is a degenerate int column under a full mask.
            Kind::Unknown | Kind::Int => {
                let mut out = Vec::with_capacity(n);
                for (i, v) in cells.enumerate() {
                    match v {
                        Value::Int(x) => out.push(*x),
                        _ => {
                            out.push(0);
                            mark(&mut nulls, i);
                        }
                    }
                }
                Column::Int { values: out, nulls }
            }
            Kind::Float => {
                let mut out = Vec::with_capacity(n);
                for (i, v) in cells.enumerate() {
                    match v {
                        Value::Float(x) => out.push(*x),
                        _ => {
                            out.push(0.0);
                            mark(&mut nulls, i);
                        }
                    }
                }
                Column::Float { values: out, nulls }
            }
            Kind::Bool => {
                let mut out = Vec::with_capacity(n);
                for (i, v) in cells.enumerate() {
                    match v {
                        Value::Bool(x) => out.push(*x),
                        _ => {
                            out.push(false);
                            mark(&mut nulls, i);
                        }
                    }
                }
                Column::Bool { values: out, nulls }
            }
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
                            mark(&mut nulls, i);
                        }
                    }
                }
                dict.shrink_to_fit();
                Column::Text {
                    codes,
                    dict: Arc::new(dict),
                    nulls,
                }
            }
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Float { values, .. } => values.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Text { codes, .. } => codes.len(),
            Column::Mixed(values) => values.len(),
        }
    }

    /// Whether the column has zero rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            Column::Int { values, nulls } => {
                if nulls.as_ref().is_some_and(|b| b.is_null(i)) {
                    Value::Null
                } else {
                    Value::Int(values[i])
                }
            }
            Column::Float { values, nulls } => {
                if nulls.as_ref().is_some_and(|b| b.is_null(i)) {
                    Value::Null
                } else {
                    Value::Float(values[i])
                }
            }
            Column::Bool { values, nulls } => {
                if nulls.as_ref().is_some_and(|b| b.is_null(i)) {
                    Value::Null
                } else {
                    Value::Bool(values[i])
                }
            }
            Column::Text { codes, dict, nulls } => {
                if nulls.as_ref().is_some_and(|b| b.is_null(i)) {
                    Value::Null
                } else {
                    Value::Text(Arc::clone(
                        dict.get(codes[i]).expect("dictionary code in range"),
                    ))
                }
            }
            Column::Mixed(values) => values[i].clone(),
        }
    }
}

/// A row relation re-shaped into typed columns, pinned to the row buffer it was built from.
///
/// Columns are positional and carry no attribute names: the same buffer scanned under
/// different aliases (renamed schemas) shares one columnar conversion.
#[derive(Debug, Clone)]
pub struct ColumnarRelation {
    source: Arc<Vec<Tuple>>,
    columns: Vec<Arc<Column>>,
}

impl ColumnarRelation {
    /// Converts a relation using the default dictionary limit.
    #[must_use]
    pub fn from_relation(rel: &Relation) -> Self {
        ColumnarRelation::from_relation_with_limit(rel, DEFAULT_DICT_LIMIT)
    }

    /// Converts a relation, bounding each text column's dictionary at `dict_limit` distinct
    /// strings (overflowing columns stay as plain values).
    ///
    /// Each column's cells are read in place, by reference ([`Column::from_cells`]); a text
    /// cell's string is shared into the dictionary the first time it is met, and only a
    /// [`Column::Mixed`] column copies its cells.  A cell past a row's end reads NULL.
    #[must_use]
    pub fn from_relation_with_limit(rel: &Relation, dict_limit: usize) -> Self {
        static NULL: Value = Value::Null;
        let arity = rel.schema().arity();
        let source = rel.shared_rows();
        let columns = (0..arity)
            .map(|pos| {
                let cells = source.iter().map(move |t| t.get(pos).unwrap_or(&NULL));
                Arc::new(Column::from_cells(cells, dict_limit))
            })
            .collect();
        ColumnarRelation { source, columns }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// Whether the relation has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
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

    /// The row buffer this conversion was built from (a pointer bump).
    #[must_use]
    pub fn source(&self) -> Arc<Vec<Tuple>> {
        Arc::clone(&self.source)
    }

    /// Whether this conversion was built from the given relation's row buffer.
    #[must_use]
    pub fn matches_buffer(&self, rel: &Relation) -> bool {
        Arc::ptr_eq(&self.source, &rel.shared_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, DataType, Schema};

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
    fn conversion_pins_the_source_buffer() {
        let r = rel(vec![vec![Value::from(1i64)]]);
        let c = ColumnarRelation::from_relation(&r);
        assert!(c.matches_buffer(&r));
        assert!(c.matches_buffer(&r.renamed("Alias")));
        let other = rel(vec![vec![Value::from(1i64)]]);
        assert!(!c.matches_buffer(&other));
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
