//! The probabilistic-query evaluation algorithms of the paper.
//!
//! * [`basic`] — reformulate and run one source query per mapping (Section III-B.1);
//! * [`ebasic`] — deduplicate identical source queries first (Section III-B.2);
//! * [`emqo`] — evaluate the distinct source queries through a shared global plan built by a
//!   multi-query optimiser (Section III-B.3);
//! * [`qsharing`] — partition the mappings with the partition tree and evaluate one source
//!   query per representative mapping (Section IV);
//! * [`osharing`] — interleave reformulation and execution operator by operator, sharing work
//!   whenever mappings agree on the correspondences an operator needs (Sections V–VI);
//! * [`topk`] — the probabilistic top-k algorithm built on the o-sharing u-trace (Section VII);
//! * [`batch`] — batch evaluation of many queries over one mapping set, lowered onto one
//!   merged shared-operator DAG per epoch, with optional parallel scheduling — the entry point
//!   of the `urm-service` serving layer.
//!
//! The algorithms differ only in which source queries they generate and what they share, and
//! all of them but `basic` run those queries one way, the batch's: each source query's
//! optimised product is split into its factors, the factors are DAG roots, and
//! [`crate::answer::aggregate`] counts the answers from them.  q-sharing, e-basic and e-MQO
//! are policies over the batch's lowering (one query, one epoch per cluster, one epoch after
//! the global-plan search); the u-trace's leaves resolve the same factors on its own DAG.
//! `basic` stays the literal, unshared reference the others are checked against.

pub mod basic;
pub mod batch;
pub mod ebasic;
pub mod emqo;
pub mod osharing;
pub mod qsharing;
pub mod topk;

use crate::metrics::Evaluation;
use crate::query::TargetQuery;
use crate::strategy::Strategy;
use crate::CoreResult;
use urm_matching::MappingSet;
use urm_storage::Catalog;

/// Which evaluation algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// One source query per mapping.
    Basic,
    /// One source query per *distinct* reformulation.
    EBasic,
    /// Distinct source queries evaluated through a shared (MQO) global plan.
    EMqo,
    /// Query-level sharing via the partition tree.
    QSharing,
    /// Operator-level sharing with the given operator-selection strategy.
    OSharing(Strategy),
}

impl Algorithm {
    /// Short human-readable name (matches the labels used in the paper's figures).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Basic => "basic",
            Algorithm::EBasic => "e-basic",
            Algorithm::EMqo => "e-MQO",
            Algorithm::QSharing => "q-sharing",
            Algorithm::OSharing(Strategy::Random { .. }) => "o-sharing(Random)",
            Algorithm::OSharing(Strategy::Snf) => "o-sharing(SNF)",
            Algorithm::OSharing(Strategy::Sef) => "o-sharing(SEF)",
        }
    }
}

/// Evaluates a probabilistic query with the chosen algorithm.
///
/// All algorithms return identical probabilistic answers (that is the correctness claim the
/// integration tests verify); they differ in the amount of reformulation and execution work,
/// reported in [`Evaluation::metrics`].
pub fn evaluate(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
    algorithm: Algorithm,
) -> CoreResult<Evaluation> {
    match algorithm {
        Algorithm::Basic => basic::evaluate(query, mappings, catalog),
        Algorithm::EBasic => ebasic::evaluate(query, mappings, catalog),
        Algorithm::EMqo => emqo::evaluate(query, mappings, catalog),
        Algorithm::QSharing => qsharing::evaluate(query, mappings, catalog),
        Algorithm::OSharing(strategy) => osharing::evaluate(query, mappings, catalog, strategy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Basic.name(), "basic");
        assert_eq!(Algorithm::EBasic.name(), "e-basic");
        assert_eq!(Algorithm::EMqo.name(), "e-MQO");
        assert_eq!(Algorithm::QSharing.name(), "q-sharing");
        assert_eq!(Algorithm::OSharing(Strategy::Sef).name(), "o-sharing(SEF)");
        assert_eq!(
            Algorithm::OSharing(Strategy::Random { seed: 7 }).name(),
            "o-sharing(Random)"
        );
    }
}
