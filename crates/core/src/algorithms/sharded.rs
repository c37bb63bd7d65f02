//! Tests of the [`batch`](super::batch) coordinator on sets of several shards: the answers of
//! a sliced epoch against the one-shard batch, its warm and budgeted batches, and its routing.

#[cfg(test)]
mod tests {
    use crate::algorithms::batch::tests::{
        assert_bit_identical, assert_budget_zero_matches_unconstrained, assert_matches_sequential,
        assert_warm_batch_reuses_results, paper_queries, set,
    };
    use crate::algorithms::batch::{
        evaluate_batch, evaluate_batch_sharded, BatchOptions, ShardSet,
    };
    use crate::testkit;
    use urm_storage::shard::slice_relation_name;
    use urm_storage::ShardScheme;

    #[test]
    fn sharded_answers_are_byte_identical_to_unsharded() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let single =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        for shards in 2..=4 {
            for scheme in [ShardScheme::Hash, ShardScheme::Range] {
                for workers in [1, 4] {
                    let sharded = assert_matches_sequential(shards, scheme, workers);
                    for ((query, a), b) in queries
                        .iter()
                        .zip(&single.evaluations)
                        .zip(&sharded.evaluations)
                    {
                        assert_bit_identical(
                            &a.answer,
                            &b.answer,
                            &format!("{} × {shards} {scheme} shards × {workers}", query.name()),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn warm_sharded_batches_stay_identical_and_reuse_results() {
        assert_warm_batch_reuses_results(3);
    }

    #[test]
    fn memory_budgeted_shards_stay_identical() {
        assert_budget_zero_matches_unconstrained(2);
    }

    #[test]
    fn routing_classifies_aggregates_as_singletons() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let options = BatchOptions::sequential();
        let four = set(&catalog, 4);
        let tuples =
            evaluate_batch_sharded(&[testkit::q0()], &mappings, &catalog, &options, &four).unwrap();
        assert!(tuples.shards.scatter_roots > 0);
        assert_eq!(tuples.shards.singleton_roots, 0);
        assert_eq!(
            tuples.shards.fanouts,
            tuples.shards.scatter_roots * 4,
            "every scatter root must reach every shard"
        );
        let aggregates = evaluate_batch_sharded(
            &[testkit::count_query()],
            &mappings,
            &catalog,
            &options,
            &four,
        )
        .unwrap();
        assert!(aggregates.shards.singleton_roots > 0);
        assert_eq!(aggregates.shards.scatter_roots, 0);
        assert_eq!(aggregates.shards.shard_times.len(), 4);
    }

    #[test]
    fn slice_names_cannot_collide_with_bases() {
        assert_eq!(slice_relation_name("Orders"), "Orders::slice");
        let catalog = testkit::figure2_catalog();
        let set = ShardSet::new(&catalog, 2, ShardScheme::Range, None);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.scheme(), ShardScheme::Range);
        for index in 0..set.len() {
            // Each shard sees every base (full replica) and every slice.
            assert_eq!(set.catalog(index).len(), catalog.len() * 2);
        }
    }
}
