//! Compact binary encoding of values and of relations as columnar spill segments.
//!
//! A [`BufferPool`](crate::BufferPool) writes the relations it pages out as segments
//! ([`encode_segment`] / [`decode_segment`]): this process's own temporary files, one typed
//! encoding per column, with the tagged per-value encoding ([`encode_value`] /
//! [`decode_value`]) for columns that mix variants.  Built on [`bytes`].

use crate::column::{Column, NullBitmap};
use crate::dictionary::Dictionary;
use crate::{
    ColumnarRelation, DataType, Relation, Schema, StorageError, StorageResult, Tuple, Value,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL: u8 = 4;

/// Encodes a single value into the buffer.
pub fn encode_value(buf: &mut BytesMut, value: &Value) {
    match value {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*f);
        }
        Value::Text(s) => {
            buf.put_u8(TAG_TEXT);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
    }
}

/// Decodes a single value from the buffer.
pub fn decode_value(buf: &mut Bytes) -> StorageResult<Value> {
    if !buf.has_remaining() {
        return Err(StorageError::Codec("unexpected end of buffer".into()));
    }
    let tag = buf.get_u8();
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => {
            ensure_remaining(buf, 8)?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        TAG_FLOAT => {
            ensure_remaining(buf, 8)?;
            Ok(Value::Float(buf.get_f64_le()))
        }
        TAG_TEXT => {
            ensure_remaining(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            ensure_remaining(buf, len)?;
            let raw = buf.split_to(len);
            let s = std::str::from_utf8(&raw)
                .map_err(|e| StorageError::Codec(format!("invalid utf8: {e}")))?;
            Ok(Value::text(s))
        }
        TAG_BOOL => {
            ensure_remaining(buf, 1)?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        other => Err(StorageError::Codec(format!("unknown value tag {other}"))),
    }
}

fn ensure_remaining(buf: &Bytes, needed: usize) -> StorageResult<()> {
    if buf.remaining() < needed {
        Err(StorageError::Codec(format!(
            "need {needed} more bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// Expected [`DataType`] for an encoded tag, used by schema-validation tooling.
#[must_use]
pub fn tag_data_type(tag: u8) -> Option<DataType> {
    match tag {
        TAG_NULL => Some(DataType::Null),
        TAG_INT => Some(DataType::Int),
        TAG_FLOAT => Some(DataType::Float),
        TAG_TEXT => Some(DataType::Text),
        TAG_BOOL => Some(DataType::Bool),
        _ => None,
    }
}

// ---------------------------------------------------------------------------------------------
// Columnar spill segments.
//
// Spilled relations are written column-at-a-time with per-column encodings — delta-of-int
// varints, bit-exact raw floats, run-length booleans, dictionary-coded text — falling back to
// the per-value codec for columns that mix variants.  Decoding is fully validating (every
// declared count is checked against the remaining payload before anything is allocated from
// it) and reconstruction is exact: `decode_segment(encode_segment(r))` equals `r` including
// float bit patterns and row order.

/// Version byte of the columnar segment container.
const SEGMENT_COLUMNAR: u8 = 1;

const COL_INT: u8 = 0;
const COL_FLOAT: u8 = 1;
const COL_BOOL: u8 = 2;
const COL_TEXT: u8 = 3;
const COL_MIXED: u8 = 4;

/// Text-code sub-encodings: one varint code per row, or run-length `(code, len)` pairs.
const TEXT_PLAIN: u8 = 0;
const TEXT_RLE: u8 = 1;

/// Decoded-side allocation guard: `with_capacity` is clamped to this many elements so a
/// hostile declared count cannot reserve unbounded memory before the per-element remaining
/// checks reject it.
const MAX_PREALLOC: usize = 1 << 20;

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut Bytes) -> StorageResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(StorageError::Codec("truncated varint".into()));
        }
        if shift >= 64 {
            return Err(StorageError::Codec("varint overflows u64".into()));
        }
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_nulls(buf: &mut BytesMut, nulls: Option<&NullBitmap>) {
    match nulls {
        Some(bitmap) => {
            buf.put_u8(1);
            for word in bitmap.words() {
                buf.put_u64_le(*word);
            }
        }
        None => buf.put_u8(0),
    }
}

fn get_nulls(buf: &mut Bytes, rows: usize) -> StorageResult<Option<NullBitmap>> {
    ensure_remaining(buf, 1)?;
    if buf.get_u8() == 0 {
        return Ok(None);
    }
    let words = rows.div_ceil(64);
    ensure_remaining(buf, words * 8)?;
    let mut out = Vec::with_capacity(words.min(MAX_PREALLOC));
    for _ in 0..words {
        out.push(buf.get_u64_le());
    }
    Ok(Some(NullBitmap::from_words(out, rows)))
}

fn encode_column(buf: &mut BytesMut, col: &Column) {
    match col {
        Column::Int { values, nulls } => {
            buf.put_u8(COL_INT);
            put_nulls(buf, nulls.as_ref());
            let mut prev = 0i64;
            for &v in values {
                put_varint(buf, zigzag(v.wrapping_sub(prev)));
                prev = v;
            }
        }
        Column::Float { values, nulls } => {
            buf.put_u8(COL_FLOAT);
            put_nulls(buf, nulls.as_ref());
            for &v in values {
                buf.put_u64_le(v.to_bits());
            }
        }
        Column::Bool { values, nulls } => {
            buf.put_u8(COL_BOOL);
            put_nulls(buf, nulls.as_ref());
            let runs = runs(values);
            put_varint(buf, runs.len() as u64);
            for (value, len) in runs {
                buf.put_u8(u8::from(value));
                put_varint(buf, len);
            }
        }
        Column::Text { codes, dict, nulls } => {
            buf.put_u8(COL_TEXT);
            put_nulls(buf, nulls.as_ref());
            put_varint(buf, dict.len() as u64);
            for entry in dict.entries() {
                put_varint(buf, entry.len() as u64);
                buf.put_slice(entry.as_bytes());
            }
            let runs = runs(codes);
            // Each RLE run costs at least two varints; prefer it only when runs are long
            // enough that it beats one varint per row.
            if runs.len() * 2 <= codes.len() {
                buf.put_u8(TEXT_RLE);
                put_varint(buf, runs.len() as u64);
                for (code, len) in runs {
                    put_varint(buf, u64::from(code));
                    put_varint(buf, len);
                }
            } else {
                buf.put_u8(TEXT_PLAIN);
                for &code in codes {
                    put_varint(buf, u64::from(code));
                }
            }
        }
        Column::Mixed(values) => {
            buf.put_u8(COL_MIXED);
            for v in values {
                encode_value(buf, v);
            }
        }
    }
}

/// `values` as (value, run length) pairs.
fn runs<T: Copy + PartialEq>(values: &[T]) -> Vec<(T, u64)> {
    let mut runs: Vec<(T, u64)> = Vec::new();
    for &v in values {
        match runs.last_mut() {
            Some((value, len)) if *value == v => *len += 1,
            _ => runs.push((v, 1)),
        }
    }
    runs
}

/// The `rows` values of a `kind` column written as [`runs`], each run's value read by `value`.
fn get_runs<T: Clone>(
    buf: &mut Bytes,
    rows: usize,
    kind: &str,
    value: impl Fn(&mut Bytes) -> StorageResult<T>,
) -> StorageResult<Vec<T>> {
    let run_count = get_varint(buf)? as usize;
    if run_count > rows {
        return Err(StorageError::Codec(format!(
            "{kind} column declares {run_count} runs for {rows} rows"
        )));
    }
    let mut values = Vec::with_capacity(rows.min(MAX_PREALLOC));
    for _ in 0..run_count {
        let value = value(buf)?;
        let len = get_varint(buf)? as usize;
        if len > rows - values.len() {
            return Err(StorageError::Codec(format!(
                "{kind} column runs exceed the declared row count"
            )));
        }
        values.resize(values.len() + len, value);
    }
    if values.len() != rows {
        return Err(StorageError::Codec(format!(
            "{kind} column runs cover {} of {rows} rows",
            values.len()
        )));
    }
    Ok(values)
}

fn decode_column(buf: &mut Bytes, rows: usize) -> StorageResult<Column> {
    ensure_remaining(buf, 1)?;
    let kind = buf.get_u8();
    match kind {
        COL_INT => {
            let nulls = get_nulls(buf, rows)?;
            ensure_remaining(buf, rows)?; // every delta takes at least one byte
            let mut values = Vec::with_capacity(rows.min(MAX_PREALLOC));
            let mut prev = 0i64;
            for _ in 0..rows {
                prev = prev.wrapping_add(unzigzag(get_varint(buf)?));
                values.push(prev);
            }
            Ok(Column::Int { values, nulls })
        }
        COL_FLOAT => {
            let nulls = get_nulls(buf, rows)?;
            ensure_remaining(buf, rows * 8)?;
            let mut values = Vec::with_capacity(rows.min(MAX_PREALLOC));
            for _ in 0..rows {
                values.push(f64::from_bits(buf.get_u64_le()));
            }
            Ok(Column::Float { values, nulls })
        }
        COL_BOOL => {
            let nulls = get_nulls(buf, rows)?;
            let values = get_runs(buf, rows, "bool", |buf| {
                ensure_remaining(buf, 1)?;
                Ok(buf.get_u8() != 0)
            })?;
            Ok(Column::Bool { values, nulls })
        }
        COL_TEXT => {
            let nulls = get_nulls(buf, rows)?;
            let dict_len = get_varint(buf)? as usize;
            if dict_len > buf.remaining() {
                return Err(StorageError::Codec(format!(
                    "text dictionary declares {dict_len} entries, only {} bytes remain",
                    buf.remaining()
                )));
            }
            let mut entries: Vec<Arc<str>> = Vec::with_capacity(dict_len.min(MAX_PREALLOC));
            for _ in 0..dict_len {
                let len = get_varint(buf)? as usize;
                ensure_remaining(buf, len)?;
                let raw = buf.split_to(len);
                let s = std::str::from_utf8(&raw)
                    .map_err(|e| StorageError::Codec(format!("invalid utf8: {e}")))?;
                entries.push(Arc::from(s));
            }
            let dict = Dictionary::from_values(entries);
            let check = |code: u64| -> StorageResult<u32> {
                if (code as usize) < dict.len() {
                    Ok(code as u32)
                } else {
                    Err(StorageError::Codec(format!(
                        "text code {code} out of range for a {}-entry dictionary",
                        dict.len()
                    )))
                }
            };
            ensure_remaining(buf, 1)?;
            let codes = match buf.get_u8() {
                TEXT_PLAIN => {
                    let mut codes = Vec::with_capacity(rows.min(MAX_PREALLOC));
                    for _ in 0..rows {
                        codes.push(check(get_varint(buf)?)?);
                    }
                    codes
                }
                TEXT_RLE => get_runs(buf, rows, "text", |buf| check(get_varint(buf)?))?,
                other => {
                    return Err(StorageError::Codec(format!(
                        "unknown text code encoding {other}"
                    )))
                }
            };
            Ok(Column::Text { codes, dict, nulls })
        }
        COL_MIXED => {
            ensure_remaining(buf, rows)?; // every encoded value takes at least one byte
            let mut values = Vec::with_capacity(rows.min(MAX_PREALLOC));
            for _ in 0..rows {
                values.push(decode_value(buf)?);
            }
            Ok(Column::Mixed(values))
        }
        other => Err(StorageError::Codec(format!("unknown column kind {other}"))),
    }
}

/// Encodes a relation as a columnar spill segment (see the module docs for the per-column
/// encodings).  The schema is not written: the pool keeps it resident.
#[must_use]
pub fn encode_segment(relation: &Relation) -> Bytes {
    let columnar = ColumnarRelation::from_relation(relation);
    let mut buf = BytesMut::with_capacity(64 + relation.estimated_bytes() / 2);
    buf.put_u8(SEGMENT_COLUMNAR);
    buf.put_u64_le(columnar.len() as u64);
    buf.put_u32_le(columnar.arity() as u32);
    for col in columnar.columns() {
        encode_column(&mut buf, col);
    }
    buf.freeze()
}

/// Decodes a spill segment produced by [`encode_segment`] into a relation with the given
/// schema.
///
/// Decoding is fully validating and never panics on hostile input: truncated or corrupt
/// payloads (an unknown version byte included) surface as typed [`StorageError::Codec`]
/// errors, and decoded rows that do not fit `schema` as the same typed
/// [`StorageError::ArityMismatch`] / [`StorageError::TypeMismatch`] errors as
/// [`Relation::push`].
pub fn decode_segment(schema: Schema, mut bytes: Bytes) -> StorageResult<Relation> {
    ensure_remaining(&bytes, 1)?;
    let version = bytes.get_u8();
    if version != SEGMENT_COLUMNAR {
        return Err(StorageError::Codec(format!(
            "unknown segment version {version}"
        )));
    }
    ensure_remaining(&bytes, 12)?;
    let rows = bytes.get_u64_le() as usize;
    let cols = bytes.get_u32_le() as usize;
    if rows > 0 && cols.saturating_mul(2) > bytes.remaining() {
        // Every non-empty column takes at least a kind byte and a null-presence byte.
        return Err(StorageError::Codec(format!(
            "declared {cols} columns exceed the {} remaining payload bytes",
            bytes.remaining()
        )));
    }
    let mut columns = Vec::with_capacity(cols.min(MAX_PREALLOC));
    for _ in 0..cols {
        columns.push(decode_column(&mut bytes, rows)?);
    }
    let tuples: Vec<Tuple> = (0..rows)
        .map(|i| Tuple::new(columns.iter().map(|c| c.value_at(i)).collect()))
        .collect();
    Relation::new(schema, tuples)
}

/// The "raw" size of a relation, which the spill path reports beside a columnar segment's
/// actual size: what writing it row by row, value by value would take.  Defined
/// arithmetically — 8 bytes for the row count, then per row 4 bytes for the arity and per
/// value what [`encode_value`] writes (1 for NULL, 9 for an `Int` or `Float`, 2 for a `Bool`,
/// 5 plus its UTF-8 length for a `Text`).
#[must_use]
pub fn encoded_rows_len(relation: &Relation) -> usize {
    let mut total = 8; // row-count header
    for row in relation.iter() {
        total += 4; // arity prefix
        for v in row.iter() {
            total += match v {
                Value::Null => 1,
                Value::Int(_) | Value::Float(_) => 9,
                Value::Bool(_) => 2,
                Value::Text(s) => 5 + s.len(),
            };
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, Schema};

    fn sample_relation() -> Relation {
        let schema = Schema::new(
            "Sample",
            vec![
                Attribute::new("id", DataType::Int),
                Attribute::new("name", DataType::Text),
                Attribute::new("price", DataType::Float),
                Attribute::new("active", DataType::Bool),
                Attribute::new("note", DataType::Text),
            ],
        );
        Relation::new(
            schema,
            vec![
                Tuple::new(vec![
                    Value::from(1i64),
                    Value::from("widget"),
                    Value::from(9.75),
                    Value::from(true),
                    Value::Null,
                ]),
                Tuple::new(vec![
                    Value::from(2i64),
                    Value::from("gadget"),
                    Value::from(-3.5),
                    Value::from(false),
                    Value::from("backorder"),
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn value_roundtrip() {
        let values = vec![
            Value::Null,
            Value::from(i64::MIN),
            Value::from(i64::MAX),
            Value::from(0.0),
            Value::from(-1.25e10),
            Value::from(""),
            Value::from("hello world"),
            Value::from(true),
            Value::from(false),
        ];
        for v in values {
            let mut buf = BytesMut::new();
            encode_value(&mut buf, &v);
            let mut bytes = buf.freeze();
            let decoded = decode_value(&mut bytes).unwrap();
            assert_eq!(decoded, v);
            assert!(!bytes.has_remaining());
        }
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, &Value::from("backorder"));
        let bytes = buf.freeze();
        let mut truncated = bytes.slice(0..bytes.len() - 3);
        let err = decode_value(&mut truncated).unwrap_err();
        assert!(matches!(err, StorageError::Codec(_)));
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        let mut bytes = buf.freeze();
        assert!(matches!(
            decode_value(&mut bytes),
            Err(StorageError::Codec(_))
        ));
    }

    #[test]
    fn zero_length_input_is_an_error_everywhere() {
        let rel = sample_relation();
        assert!(matches!(
            decode_segment(rel.schema().clone(), Bytes::from(Vec::new())),
            Err(StorageError::Codec(_))
        ));
        assert!(matches!(
            decode_value(&mut Bytes::from(Vec::new())),
            Err(StorageError::Codec(_))
        ));
    }

    #[test]
    fn mid_value_truncation_is_an_error() {
        // A column that mixes variants is written value by value: wherever the segment is
        // cut — inside a tag, a length, a text payload — decoding is a typed codec error.
        let rel = mixed_relation();
        let bytes = encode_segment(&rel);
        for cut in 0..bytes.len() {
            let err = decode_segment(rel.schema().clone(), bytes.slice(0..cut)).unwrap_err();
            assert!(
                matches!(err, StorageError::Codec(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn wrong_schema_payloads_are_typed_errors() {
        let rel = sample_relation();
        let bytes = encode_segment(&rel);
        // Fewer attributes than the payload's tuples: arity mismatch.
        let narrow = Schema::new("Narrow", vec![Attribute::new("id", DataType::Int)]);
        assert!(matches!(
            decode_segment(narrow, bytes.clone()),
            Err(StorageError::ArityMismatch { .. })
        ));
        // Same arity, incompatible attribute type: type mismatch.
        let wrong_type = Schema::new(
            "Wrong",
            vec![
                Attribute::new("id", DataType::Text), // payload has Int here
                Attribute::new("name", DataType::Text),
                Attribute::new("price", DataType::Float),
                Attribute::new("active", DataType::Bool),
                Attribute::new("note", DataType::Text),
            ],
        );
        assert!(matches!(
            decode_segment(wrong_type, bytes),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn absurd_declared_counts_are_rejected_before_allocating() {
        // A text length far beyond the payload must fail fast instead of reserving.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_TEXT);
        buf.put_u32_le(u32::MAX);
        buf.put_u8(b'x');
        assert!(matches!(
            decode_value(&mut buf.freeze()),
            Err(StorageError::Codec(_))
        ));
    }

    #[test]
    fn tag_types() {
        assert_eq!(tag_data_type(TAG_INT), Some(DataType::Int));
        assert_eq!(tag_data_type(TAG_TEXT), Some(DataType::Text));
        assert_eq!(tag_data_type(200), None);
    }

    // --- columnar segments ---

    fn segment_roundtrip(rel: &Relation) -> Relation {
        decode_segment(rel.schema().clone(), encode_segment(rel)).unwrap()
    }

    #[test]
    fn varints_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(get_varint(&mut buf.freeze()).unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn segment_round_trips_every_column_kind() {
        let rel = sample_relation();
        let back = segment_roundtrip(&rel);
        assert_eq!(back, rel);
        // Bit-exact floats, not just total_cmp-equal.
        for (a, b) in rel.rows().iter().zip(back.rows()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.data_type(), y.data_type());
                if let (Value::Float(x), Value::Float(y)) = (x, y) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn segment_round_trips_empty_relations() {
        let rel = Relation::empty(sample_relation().schema().clone());
        assert_eq!(segment_roundtrip(&rel), rel);
        let no_cols = Relation::empty(Schema::new("Unit", vec![]));
        assert_eq!(segment_roundtrip(&no_cols), no_cols);
    }

    #[test]
    fn segment_round_trips_single_run_rle_columns() {
        // One bool run and one text run across the whole column.
        let schema = Schema::new(
            "Runs",
            vec![
                Attribute::new("flag", DataType::Bool),
                Attribute::new("tag", DataType::Text),
            ],
        );
        let rows = (0..100)
            .map(|_| Tuple::new(vec![Value::from(true), Value::from("only")]))
            .collect();
        let rel = Relation::new(schema, rows).unwrap();
        let encoded = encode_segment(&rel);
        assert_eq!(
            decode_segment(rel.schema().clone(), encoded.clone()).unwrap(),
            rel
        );
        // The whole 100-row segment collapses to a handful of run headers.
        assert!(
            encoded.len() < 64,
            "single-run segment took {} bytes",
            encoded.len()
        );
    }

    #[test]
    fn segment_round_trips_negative_deltas_and_extremes() {
        let schema = Schema::new("Ints", vec![Attribute::new("v", DataType::Int)]);
        let values = [0i64, -1, 100, -100, i64::MIN, i64::MAX, 7, 7, 7];
        let rows = values
            .iter()
            .map(|&v| Tuple::new(vec![Value::from(v)]))
            .collect();
        let rel = Relation::new(schema, rows).unwrap();
        assert_eq!(segment_roundtrip(&rel), rel);
    }

    #[test]
    fn segment_round_trips_null_patterns() {
        let schema = Schema::new(
            "Nulls",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("b", DataType::Text),
                Attribute::new("c", DataType::Float),
            ],
        );
        let rows = (0..70)
            .map(|i| {
                Tuple::new(vec![
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::from(i as i64)
                    },
                    if i % 2 == 0 {
                        Value::Null
                    } else {
                        Value::text(format!("t{}", i % 4))
                    },
                    Value::Null, // all-null column
                ])
            })
            .collect();
        let rel = Relation::new(schema, rows).unwrap();
        assert_eq!(segment_roundtrip(&rel), rel);
    }

    fn mixed_relation() -> Relation {
        let schema = Schema::new("Mix", vec![Attribute::new("v", DataType::Null)]);
        let rows = vec![
            Tuple::new(vec![Value::from(1i64)]),
            Tuple::new(vec![Value::from("one")]),
            Tuple::new(vec![Value::from(2.5)]),
            Tuple::new(vec![Value::Null]),
        ];
        Relation::from_validated(schema, rows)
    }

    #[test]
    fn segment_round_trips_mixed_columns_via_row_fallback() {
        let rel = mixed_relation();
        assert_eq!(segment_roundtrip(&rel), rel);
    }

    #[test]
    fn truncated_segments_are_typed_errors() {
        let rel = sample_relation();
        let bytes = encode_segment(&rel);
        for cut in 0..bytes.len() {
            let truncated = bytes.slice(0..cut);
            let err = decode_segment(rel.schema().clone(), truncated).unwrap_err();
            assert!(
                matches!(err, StorageError::Codec(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn hostile_segment_counts_are_rejected_before_allocating() {
        // Absurd row count.
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(u64::MAX);
        buf.put_u32_le(1);
        buf.put_u8(0); // COL_INT
        buf.put_u8(0); // no nulls
        let schema = Schema::new("H", vec![Attribute::new("v", DataType::Int)]);
        assert!(matches!(
            decode_segment(schema.clone(), buf.freeze()),
            Err(StorageError::Codec(_))
        ));
        // Out-of-range text code.
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(1);
        buf.put_u32_le(1);
        buf.put_u8(3); // COL_TEXT
        buf.put_u8(0); // no nulls
        buf.put_u8(1); // dict len 1
        buf.put_u8(1); // entry byte-len 1
        buf.put_u8(b'x');
        buf.put_u8(0); // plain codes
        buf.put_u8(9); // code 9 out of range
        let schema = Schema::new("H", vec![Attribute::new("v", DataType::Text)]);
        assert!(matches!(
            decode_segment(schema.clone(), buf.freeze()),
            Err(StorageError::Codec(_))
        ));
        // Bool runs that under-cover the declared rows.
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(10);
        buf.put_u32_le(1);
        buf.put_u8(2); // COL_BOOL
        buf.put_u8(0); // no nulls
        buf.put_u8(1); // one run
        buf.put_u8(1); // true
        buf.put_u8(3); // covering 3 of 10 rows
        let schema = Schema::new("H", vec![Attribute::new("v", DataType::Bool)]);
        assert!(matches!(
            decode_segment(schema, buf.freeze()),
            Err(StorageError::Codec(_))
        ));
        // Unknown version bytes: anything but the one `encode_segment` writes.
        for version in [0u8, 9] {
            assert!(matches!(
                decode_segment(
                    Schema::new("H", vec![]),
                    Bytes::from(vec![version, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
                ),
                Err(StorageError::Codec(_))
            ));
        }
    }

    #[test]
    fn encoded_rows_len_matches_the_row_codec_exactly() {
        // The documented sum, with each value priced by what `encode_value` really writes.
        for rel in [
            sample_relation(),
            Relation::empty(sample_relation().schema().clone()),
        ] {
            let mut values = BytesMut::new();
            for v in rel.iter().flat_map(Tuple::iter) {
                encode_value(&mut values, v);
            }
            assert_eq!(encoded_rows_len(&rel), 8 + 4 * rel.len() + values.len());
        }
    }

    #[test]
    fn columnar_segments_beat_the_row_codec_on_repetitive_data() {
        // A shape like the generated workloads: sequential ints, few distinct strings, a flag.
        let schema = Schema::new(
            "Wide",
            vec![
                Attribute::new("id", DataType::Int),
                Attribute::new("city", DataType::Text),
                Attribute::new("active", DataType::Bool),
            ],
        );
        let rows = (0..2000)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    Value::text(format!("city-{}", i % 7)),
                    Value::from(i % 3 == 0),
                ])
            })
            .collect();
        let rel = Relation::new(schema, rows).unwrap();
        let encoded = encode_segment(&rel);
        let raw = encoded_rows_len(&rel);
        assert_eq!(segment_roundtrip(&rel), rel);
        assert!(
            encoded.len() * 5 < raw * 2,
            "columnar segment {} bytes vs raw {} bytes (need <= 0.4x)",
            encoded.len(),
            raw
        );
    }
}
