//! Deterministic catalog partitioning for scatter-gather sharding.
//!
//! A batch over N > 1 shards gives shard `i` slice `i` of every source relation, cut by a
//! [`ShardScheme`] and registered under [`slice_relation_name`].  Partitioning is
//! **deterministic** (FNV-1a over the key column, or contiguous row ranges — never a seeded
//! std hasher) and covers every row exactly once, in its original relative order within its
//! slice.

use crate::{Relation, Tuple, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Suffix of the relation name a shard catalog registers its slice of a base relation under.
/// `::` cannot occur in generated relation names, so slices never collide with bases.
const SLICE_SUFFIX: &str = "::slice";

/// The relation name shard catalogs register slice `i` of `base` under.
///
/// Deliberately shard-*independent*: a plan rewritten to scan a slice is textually identical
/// on every shard, so its fingerprint — and with it bind-cache hits and DAG node sharing — is
/// too.
#[must_use]
pub fn slice_relation_name(base: &str) -> String {
    format!("{base}{SLICE_SUFFIX}")
}

/// The base relation a (possibly slice) relation name refers to: the inverse of
/// [`slice_relation_name`], and the identity on base names.  The optimizer orders a slice
/// scan by its base's cardinality, so a plan has one shape on every shard.
#[must_use]
pub fn base_relation_name(name: &str) -> &str {
    name.strip_suffix(SLICE_SUFFIX).unwrap_or(name)
}

/// How rows of a relation are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardScheme {
    /// FNV-1a hash of the key column (the relation's first attribute) modulo the shard count.
    ///
    /// Key-correlated rows land on the same shard regardless of their position in the
    /// relation, so appends never move existing rows between shards.
    Hash,
    /// Contiguous row ranges: shard `i` of `n` gets rows `[i·⌈len/n⌉, (i+1)·⌈len/n⌉)`.
    Range,
}

impl fmt::Display for ShardScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardScheme::Hash => write!(f, "hash"),
            ShardScheme::Range => write!(f, "range"),
        }
    }
}

impl std::str::FromStr for ShardScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hash" => Ok(ShardScheme::Hash),
            "range" => Ok(ShardScheme::Range),
            other => Err(format!("unknown shard scheme '{other}' (hash|range)")),
        }
    }
}

/// FNV-1a over a value's type tag and payload bytes.
///
/// Std hashers are randomly seeded per process, which would make shard assignment differ
/// between coordinator and shards (or between runs); FNV-1a is fixed, fast and good enough
/// for the key domains the generators produce.
#[must_use]
pub fn fnv1a_value(value: &Value) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    match value {
        Value::Null => eat(&[0]),
        Value::Int(i) => {
            eat(&[1]);
            eat(&i.to_le_bytes());
        }
        Value::Float(x) => {
            eat(&[2]);
            eat(&x.to_bits().to_le_bytes());
        }
        Value::Bool(b) => eat(&[3, u8::from(*b)]),
        Value::Text(s) => {
            eat(&[4]);
            eat(s.as_bytes());
        }
    }
    hash
}

/// The shard each row of `relation` is assigned to under `scheme` (deterministic).
///
/// Hash partitioning keys on the first attribute — the generated schemas all lead with the
/// relation's key column — and rows of an empty-arity relation all land on shard 0.
#[must_use]
pub fn row_shards(relation: &Relation, shards: usize, scheme: ShardScheme) -> Vec<usize> {
    let shards = shards.max(1);
    match scheme {
        ShardScheme::Hash => relation
            .rows()
            .iter()
            .map(|row| match row.get(0) {
                Some(key) => (fnv1a_value(key) % shards as u64) as usize,
                None => 0,
            })
            .collect(),
        ShardScheme::Range => {
            let len = relation.len();
            let chunk = len.div_ceil(shards).max(1);
            (0..len).map(|i| (i / chunk).min(shards - 1)).collect()
        }
    }
}

/// Cuts a relation into `shards` slices (slice `i` holds this relation's rows assigned to
/// shard `i`, in original relative order).  Slices carry the source schema unchanged.
#[must_use]
pub fn partition(relation: &Relation, shards: usize, scheme: ShardScheme) -> Vec<Relation> {
    let shards = shards.max(1);
    let assignment = row_shards(relation, shards, scheme);
    let mut slices: Vec<Vec<Tuple>> = vec![Vec::new(); shards];
    for (row, shard) in relation.rows().iter().zip(&assignment) {
        slices[*shard].push(row.clone());
    }
    slices
        .into_iter()
        .map(|rows| Relation::from_validated(relation.schema().clone(), rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, DataType, Schema};

    fn sample(n: usize) -> Relation {
        let schema = Schema::new(
            "Orders",
            vec![
                Attribute::new("orderNum", DataType::Int),
                Attribute::new("clerk", DataType::Text),
            ],
        );
        let rows = (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    Value::from(format!("clerk{}", i % 7)),
                ])
            })
            .collect();
        Relation::new(schema, rows).unwrap()
    }

    #[test]
    fn scheme_round_trips_through_strings() {
        for scheme in [ShardScheme::Hash, ShardScheme::Range] {
            assert_eq!(scheme.to_string().parse::<ShardScheme>(), Ok(scheme));
        }
        assert!("zipf".parse::<ShardScheme>().is_err());
    }

    #[test]
    fn hashing_is_deterministic_across_calls() {
        let rel = sample(100);
        for _ in 0..3 {
            assert_eq!(
                row_shards(&rel, 4, ShardScheme::Hash),
                row_shards(&rel, 4, ShardScheme::Hash)
            );
        }
    }

    #[test]
    fn partitions_cover_every_row_exactly_once() {
        let rel = sample(101);
        for scheme in [ShardScheme::Hash, ShardScheme::Range] {
            for shards in 1..=5 {
                let slices = partition(&rel, shards, scheme);
                assert_eq!(slices.len(), shards);
                let total: usize = slices.iter().map(Relation::len).sum();
                assert_eq!(total, rel.len(), "{scheme} × {shards}");
            }
        }
    }

    #[test]
    fn hash_spreads_rows_across_shards() {
        let rel = sample(400);
        let slices = partition(&rel, 4, ShardScheme::Hash);
        for (i, slice) in slices.iter().enumerate() {
            assert!(!slice.is_empty(), "shard {i} got no rows");
        }
    }

    #[test]
    fn range_slices_are_contiguous() {
        let rel = sample(10);
        let slices = partition(&rel, 3, ShardScheme::Range);
        assert_eq!(
            slices.iter().map(Relation::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        assert_eq!(slices[0].rows(), &rel.rows()[..4]);
        assert_eq!(slices[2].rows(), &rel.rows()[8..]);
    }

    #[test]
    fn merge_reproduces_the_exact_relation() {
        // Taking each row from the next unread row of its assigned slice rebuilds the input:
        // every row lands in exactly one slice, in its original relative order.
        let rel = sample(97);
        for scheme in [ShardScheme::Hash, ShardScheme::Range] {
            for shards in 1..=4 {
                let slices = partition(&rel, shards, scheme);
                let mut cursors = vec![0; shards];
                let rows: Vec<Tuple> = row_shards(&rel, shards, scheme)
                    .into_iter()
                    .map(|shard| {
                        cursors[shard] += 1;
                        slices[shard].rows()[cursors[shard] - 1].clone()
                    })
                    .collect();
                let lens: Vec<usize> = slices.iter().map(Relation::len).collect();
                assert_eq!(cursors, lens, "{scheme} × {shards}: rows left unmerged");
                let merged = Relation::new(slices[0].schema().clone(), rows).unwrap();
                assert_eq!(merged.schema(), rel.schema());
                assert_eq!(merged.rows(), rel.rows(), "{scheme} × {shards}");
            }
        }
    }

    #[test]
    fn empty_relation_partitions_cleanly() {
        let rel = Relation::empty(sample(0).schema().clone());
        for scheme in [ShardScheme::Hash, ShardScheme::Range] {
            let slices = partition(&rel, 4, scheme);
            assert_eq!(slices.len(), 4);
            assert!(slices.iter().all(Relation::is_empty));
        }
    }
}
