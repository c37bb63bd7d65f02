//! Deterministic catalog partitioning for scatter-gather sharding.
//!
//! A [`ShardSpec`] describes one shard's view of a partitioned source instance: shard `i` of
//! `n` holds slice `i` of every source relation, cut by a [`ShardScheme`].  Partitioning is
//! **deterministic** (FNV-1a over the key column, or contiguous row ranges — never a seeded
//! std hasher) and **lossless**: [`merge`] reconstructs the exact original relation, row order
//! included, from the slices plus the row→shard assignment, so a sharded deployment can always
//! be byte-compared against the single-node catalog it was cut from.

use crate::{Relation, StorageError, StorageResult, Tuple, Value};
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

/// One shard's identity within a partitioned deployment: `index` of `shards` total, cut by
/// `scheme`.  Merging slice `0..shards` of every relation reproduces the exact single-node
/// catalog the spec partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Total number of shards in the deployment.
    pub shards: usize,
    /// This shard's index in `0..shards`.
    pub index: usize,
    /// The partitioning scheme every relation is cut with.
    pub scheme: ShardScheme,
}

impl ShardSpec {
    /// Creates a validated spec (`shards ≥ 1`, `index < shards`).
    pub fn new(shards: usize, index: usize, scheme: ShardScheme) -> StorageResult<ShardSpec> {
        if shards == 0 || index >= shards {
            return Err(StorageError::InvalidShardSpec { shards, index });
        }
        Ok(ShardSpec {
            shards,
            index,
            scheme,
        })
    }

    /// This shard's slice of a relation (relative row order preserved).
    #[must_use]
    pub fn slice(&self, relation: &Relation) -> Relation {
        partition(relation, self.shards, self.scheme)
            .into_iter()
            .nth(self.index)
            .expect("index < shards by construction")
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {}/{} ({})", self.index, self.shards, self.scheme)
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

/// Reassembles the original relation from its slices and the row→shard assignment that
/// [`partition`] used (recompute it with [`row_shards`]).  The result is byte-identical to
/// the partitioned relation — schema, rows *and row order*.
pub fn merge(slices: &[Relation], assignment: &[usize]) -> StorageResult<Relation> {
    let Some(first) = slices.first() else {
        return Err(StorageError::InvalidShardSpec {
            shards: 0,
            index: 0,
        });
    };
    let total: usize = slices.iter().map(Relation::len).sum();
    if assignment.len() != total {
        return Err(StorageError::ShardMergeMismatch {
            relation: first.schema().name().to_string(),
            expected: assignment.len(),
            actual: total,
        });
    }
    let mut cursors = vec![0usize; slices.len()];
    let mut rows = Vec::with_capacity(total);
    for &shard in assignment {
        let slice = slices.get(shard).ok_or(StorageError::InvalidShardSpec {
            shards: slices.len(),
            index: shard,
        })?;
        let row =
            slice
                .rows()
                .get(cursors[shard])
                .ok_or_else(|| StorageError::ShardMergeMismatch {
                    relation: first.schema().name().to_string(),
                    expected: assignment.len(),
                    actual: total,
                })?;
        cursors[shard] += 1;
        rows.push(row.clone());
    }
    Ok(Relation::from_validated(first.schema().clone(), rows))
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
    fn spec_validates_bounds() {
        assert!(ShardSpec::new(0, 0, ShardScheme::Hash).is_err());
        assert!(ShardSpec::new(2, 2, ShardScheme::Hash).is_err());
        assert!(ShardSpec::new(2, 1, ShardScheme::Range).is_ok());
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
        let rel = sample(97);
        for scheme in [ShardScheme::Hash, ShardScheme::Range] {
            for shards in 1..=4 {
                let slices = partition(&rel, shards, scheme);
                let assignment = row_shards(&rel, shards, scheme);
                let merged = merge(&slices, &assignment).unwrap();
                assert_eq!(merged.schema(), rel.schema());
                assert_eq!(merged.rows(), rel.rows(), "{scheme} × {shards}");
            }
        }
    }

    #[test]
    fn spec_slice_matches_partition() {
        let rel = sample(50);
        let slices = partition(&rel, 3, ShardScheme::Hash);
        for (index, slice) in slices.iter().enumerate() {
            let spec = ShardSpec::new(3, index, ShardScheme::Hash).unwrap();
            assert_eq!(spec.slice(&rel).rows(), slice.rows());
        }
    }

    #[test]
    fn merge_rejects_mismatched_assignment() {
        let rel = sample(10);
        let slices = partition(&rel, 2, ShardScheme::Hash);
        assert!(merge(&slices, &[0, 1]).is_err());
        assert!(merge(&[], &[]).is_err());
    }

    #[test]
    fn empty_relation_partitions_cleanly() {
        let rel = Relation::empty(sample(0).schema().clone());
        for scheme in [ShardScheme::Hash, ShardScheme::Range] {
            let slices = partition(&rel, 4, scheme);
            assert_eq!(slices.len(), 4);
            assert!(slices.iter().all(Relation::is_empty));
            let merged = merge(&slices, &[]).unwrap();
            assert!(merged.is_empty());
        }
    }
}
