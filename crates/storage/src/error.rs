//! Error types for the storage layer.

use std::fmt;

/// Result alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A tuple's arity does not match the arity of the relation's schema.
    ArityMismatch {
        /// Relation the tuple was inserted into.
        relation: String,
        /// Number of attributes declared by the schema.
        expected: usize,
        /// Number of values in the offending tuple.
        actual: usize,
    },
    /// A value's type does not match the declared attribute type.
    TypeMismatch {
        /// Relation the tuple was inserted into.
        relation: String,
        /// Attribute whose type was violated.
        attribute: String,
        /// Declared type.
        expected: crate::DataType,
        /// Type of the value that was supplied.
        actual: crate::DataType,
    },
    /// An attribute name was not found in a schema.
    UnknownAttribute {
        /// Relation that was searched.
        relation: String,
        /// Attribute that was requested.
        attribute: String,
    },
    /// A relation name was not found in the catalog.
    UnknownRelation(String),
    /// A relation with the same name is already registered in the catalog.
    DuplicateRelation(String),
    /// A schema declared two attributes with the same name.
    DuplicateAttribute {
        /// Relation declaring the duplicate.
        relation: String,
        /// The duplicated attribute name.
        attribute: String,
    },
    /// A serialised tuple could not be decoded.
    Codec(String),
    /// An I/O operation on a spill segment (or other storage file) failed.
    ///
    /// Carries the rendered `std::io::Error` so the error type stays `Clone + PartialEq`.
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch inserting into '{relation}': schema has {expected} attributes, tuple has {actual}"
            ),
            StorageError::TypeMismatch {
                relation,
                attribute,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch in '{relation}.{attribute}': expected {expected}, got {actual}"
            ),
            StorageError::UnknownAttribute {
                relation,
                attribute,
            } => write!(f, "unknown attribute '{attribute}' in relation '{relation}'"),
            StorageError::UnknownRelation(name) => write!(f, "unknown relation '{name}'"),
            StorageError::DuplicateRelation(name) => {
                write!(f, "relation '{name}' is already registered")
            }
            StorageError::DuplicateAttribute {
                relation,
                attribute,
            } => write!(
                f,
                "relation '{relation}' declares attribute '{attribute}' more than once"
            ),
            StorageError::Codec(msg) => write!(f, "codec error: {msg}"),
            StorageError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    #[test]
    fn display_arity_mismatch() {
        let err = StorageError::ArityMismatch {
            relation: "Customer".into(),
            expected: 6,
            actual: 4,
        };
        let msg = err.to_string();
        assert!(msg.contains("Customer"));
        assert!(msg.contains('6'));
        assert!(msg.contains('4'));
    }

    #[test]
    fn display_type_mismatch() {
        let err = StorageError::TypeMismatch {
            relation: "Customer".into(),
            attribute: "cid".into(),
            expected: DataType::Int,
            actual: DataType::Text,
        };
        assert!(err.to_string().contains("cid"));
    }

    #[test]
    fn display_unknown_names() {
        assert!(StorageError::UnknownRelation("Nope".into())
            .to_string()
            .contains("Nope"));
        assert!(StorageError::UnknownAttribute {
            relation: "R".into(),
            attribute: "a".into()
        }
        .to_string()
        .contains('a'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&StorageError::UnknownRelation("x".into()));
    }
}
