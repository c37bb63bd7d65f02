//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use urm_storage::codec;
use urm_storage::{Attribute, DataType, Relation, Schema, Tuple, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::from),
        // Finite floats only: NaN equality is defined but ordinary data never contains NaN.
        (-1.0e12f64..1.0e12f64).prop_map(Value::from),
        "[a-zA-Z0-9 _-]{0,24}".prop_map(|s| Value::from(s.as_str())),
        any::<bool>().prop_map(Value::from),
    ]
}

fn arb_tuple(max_arity: usize) -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_value(), 0..=max_arity).prop_map(Tuple::new)
}

proptest! {
    #[test]
    fn value_codec_roundtrip(v in arb_value()) {
        let mut buf = bytes::BytesMut::new();
        codec::encode_value(&mut buf, &v);
        let mut bytes = buf.freeze();
        let decoded = codec::decode_value(&mut bytes).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert!(!bytes.len() > 0 || bytes.is_empty());
    }

    #[test]
    fn value_equality_implies_hash_equality(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        if a == b {
            prop_assert_eq!(hash(&a), hash(&b));
        }
    }

    #[test]
    fn value_ordering_is_consistent_with_equality(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        let ord = a.cmp(&b);
        if a == b {
            prop_assert_eq!(ord, Ordering::Equal);
        }
        if ord == Ordering::Equal {
            // Total order equality must agree with Eq.
            prop_assert_eq!(&a, &b);
        }
        prop_assert_eq!(b.cmp(&a), ord.reverse());
    }

    #[test]
    fn tuple_projection_length_matches_positions(
        t in arb_tuple(8),
        positions in prop::collection::vec(0usize..10, 0..6),
    ) {
        let projected = t.project(&positions);
        prop_assert_eq!(projected.arity(), positions.len());
    }

    #[test]
    fn tuple_concat_arity_is_sum(a in arb_tuple(6), b in arb_tuple(6)) {
        let c = a.concat(&b);
        prop_assert_eq!(c.arity(), a.arity() + b.arity());
        for (i, v) in a.iter().enumerate() {
            prop_assert_eq!(c.get(i), Some(v));
        }
        for (i, v) in b.iter().enumerate() {
            prop_assert_eq!(c.get(a.arity() + i), Some(v));
        }
    }

    #[test]
    fn relation_codec_roundtrip(rows in prop::collection::vec(
        (any::<i64>(), "[a-z]{0,12}", -1.0e6f64..1.0e6f64), 0..40)
    ) {
        let schema = Schema::new(
            "R",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("b", DataType::Text),
                Attribute::new("c", DataType::Float),
            ],
        );
        let tuples: Vec<Tuple> = rows
            .into_iter()
            .map(|(a, b, c)| Tuple::new(vec![Value::from(a), Value::from(b.as_str()), Value::from(c)]))
            .collect();
        let rel = Relation::new(schema, tuples).unwrap();
        let back = codec::decode_segment(rel.schema().clone(), codec::encode_segment(&rel));
        prop_assert_eq!(back.unwrap(), rel);
    }
}
