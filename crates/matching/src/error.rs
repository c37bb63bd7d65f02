//! Error types for the schema-matching substrate.

use std::fmt;

/// Result alias used throughout the matching crate.
pub type MatchingResult<T> = Result<T, MatchingError>;

/// Errors raised by the matching substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchingError {
    /// A similarity score was set for an attribute that is not part of the schema.
    UnknownAttribute {
        /// Which side of the matching was addressed.
        side: &'static str,
        /// The unknown attribute in `relation.attr` form.
        attribute: String,
    },
    /// The requested number of mappings is zero or exceeds what the similarity matrix supports.
    InvalidMappingCount {
        /// Requested number of mappings.
        requested: usize,
        /// Explanation.
        reason: String,
    },
    /// Probabilities of a mapping set do not form a distribution.
    InvalidDistribution {
        /// The sum that was observed.
        sum: f64,
    },
    /// A mapping violates the one-to-one constraint.
    NotOneToOne {
        /// The source attribute that is matched more than once.
        attribute: String,
    },
    /// The similarity matrix has no positive entries, so no mapping can be generated.
    EmptySimilarity,
    /// The mappings use more distinct source attributes than a mapping set numbers.
    TooManySourceAttributes {
        /// The most distinct source attributes a mapping set holds.
        limit: usize,
    },
}

impl fmt::Display for MatchingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchingError::UnknownAttribute { side, attribute } => {
                write!(f, "unknown {side} attribute '{attribute}'")
            }
            MatchingError::InvalidMappingCount { requested, reason } => {
                write!(f, "cannot generate {requested} mappings: {reason}")
            }
            MatchingError::InvalidDistribution { sum } => {
                write!(f, "mapping probabilities sum to {sum}, expected 1.0")
            }
            MatchingError::NotOneToOne { attribute } => {
                write!(f, "source attribute '{attribute}' matched more than once")
            }
            MatchingError::EmptySimilarity => {
                write!(f, "similarity matrix has no positive entries")
            }
            MatchingError::TooManySourceAttributes { limit } => {
                write!(
                    f,
                    "mappings use more than {limit} distinct source attributes"
                )
            }
        }
    }
}

impl std::error::Error for MatchingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MatchingError::EmptySimilarity
            .to_string()
            .contains("similarity"));
        assert!(MatchingError::InvalidDistribution { sum: 0.5 }
            .to_string()
            .contains("0.5"));
        assert!(MatchingError::NotOneToOne {
            attribute: "Customer.cname".into()
        }
        .to_string()
        .contains("Customer.cname"));
        assert!(MatchingError::UnknownAttribute {
            side: "target",
            attribute: "Person.phone".into()
        }
        .to_string()
        .contains("target"));
        assert!(MatchingError::InvalidMappingCount {
            requested: 0,
            reason: "h must be positive".into()
        }
        .to_string()
        .contains("h must be positive"));
        assert!(MatchingError::TooManySourceAttributes { limit: 65_535 }
            .to_string()
            .contains("65535"));
    }
}
