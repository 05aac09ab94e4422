//! Error types for the sorted-list substrate.

use std::fmt;

use crate::item::ItemId;

/// Errors raised while building or validating sorted lists and databases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListError {
    /// A local score was NaN or infinite.
    NonFiniteScore,
    /// A list was empty where a non-empty list is required.
    EmptyList,
    /// The same item appears more than once in a single list.
    DuplicateItem(ItemId),
    /// The entries passed to `SortedList::from_sorted` are not in descending
    /// score order.
    NotSorted {
        /// 0-based index of the first out-of-order entry.
        index: usize,
    },
    /// A database was built from zero lists.
    NoLists,
    /// Two lists of the same database have different lengths.
    LengthMismatch {
        /// Length of the first list.
        expected: usize,
        /// Index of the offending list.
        list: usize,
        /// Length of the offending list.
        found: usize,
    },
    /// An item present in one list of a database is missing from another.
    MissingItem {
        /// The item that could not be found.
        item: ItemId,
        /// Index of the list it is missing from.
        list: usize,
    },
    /// A requested list index does not exist.
    ListIndexOutOfRange {
        /// The requested index.
        index: usize,
        /// Number of lists in the database.
        len: usize,
    },
    /// A mutation referenced an item that is not in the list.
    UnknownItem(ItemId),
    /// A database insert supplied the wrong number of local scores.
    ScoreCountMismatch {
        /// Number of lists in the database.
        expected: usize,
        /// Number of scores supplied.
        found: usize,
    },
}

impl fmt::Display for ListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListError::NonFiniteScore => write!(f, "local scores must be finite (not NaN or ±∞)"),
            ListError::EmptyList => write!(f, "sorted list must contain at least one entry"),
            ListError::DuplicateItem(item) => {
                write!(f, "item {item} appears more than once in the list")
            }
            ListError::NotSorted { index } => write!(
                f,
                "entries are not in descending score order (first violation at index {index})"
            ),
            ListError::NoLists => write!(f, "a database must contain at least one list"),
            ListError::LengthMismatch {
                expected,
                list,
                found,
            } => write!(
                f,
                "list {list} has {found} entries but the first list has {expected}; \
                 every item must appear exactly once in every list"
            ),
            ListError::MissingItem { item, list } => {
                write!(f, "item {item} is missing from list {list}")
            }
            ListError::ListIndexOutOfRange { index, len } => {
                write!(
                    f,
                    "list index {index} out of range for database with {len} lists"
                )
            }
            ListError::UnknownItem(item) => {
                write!(f, "item {item} is not in the list")
            }
            ListError::ScoreCountMismatch { expected, found } => {
                write!(
                    f,
                    "insert supplied {found} local scores but the database has {expected} lists"
                )
            }
        }
    }
}

impl std::error::Error for ListError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_human_readable_messages() {
        assert!(ListError::NonFiniteScore.to_string().contains("finite"));
        assert!(ListError::DuplicateItem(ItemId(3))
            .to_string()
            .contains("d3"));
        assert!(ListError::NotSorted { index: 4 }.to_string().contains('4'));
        assert!(ListError::NoLists.to_string().contains("at least one"));
        let e = ListError::LengthMismatch {
            expected: 10,
            list: 2,
            found: 9,
        };
        assert!(e.to_string().contains("list 2"));
        let e = ListError::MissingItem {
            item: ItemId(1),
            list: 0,
        };
        assert!(e.to_string().contains("missing"));
        let e = ListError::ListIndexOutOfRange { index: 9, len: 3 };
        assert!(e.to_string().contains("out of range"));
        assert!(ListError::UnknownItem(ItemId(7)).to_string().contains("d7"));
        let e = ListError::ScoreCountMismatch {
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains("3 lists"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_e: E) {}
        assert_error(ListError::EmptyList);
    }
}
