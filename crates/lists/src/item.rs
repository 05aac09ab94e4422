//! Basic value types: data-item identifiers, 1-based list positions and
//! totally ordered local scores.

use std::fmt;

use crate::error::ListError;

/// Identifier of a data item (`d` in the paper).
///
/// Items are identified by an opaque `u64`. Application layers (see the
/// `topk-apps` crate) map their own keys — tuple ids, document ids, URLs —
/// onto `ItemId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u64);

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl From<u64> for ItemId {
    fn from(value: u64) -> Self {
        ItemId(value)
    }
}

/// A **1-based** position in a sorted list, matching the paper's convention
/// ("let j be the number of data items which are before a data item d in a
/// list Li, then the position of d in Li is equal to (j + 1)").
///
/// Positions are strictly positive; `Position::new(0)` is rejected. The
/// "no position seen yet" state used by best-position tracking is not a
/// `Position` but an `Option<Position>` (or the tracker-specific
/// `best_position() == None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Position(usize);

impl Position {
    /// Creates a position from a 1-based index. Returns `None` for `0`.
    pub fn new(pos: usize) -> Option<Self> {
        if pos == 0 {
            None
        } else {
            Some(Position(pos))
        }
    }

    /// The first position of every non-empty list.
    pub const FIRST: Position = Position(1);

    /// Returns the 1-based value of this position.
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }

    /// Returns the corresponding 0-based vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 - 1
    }

    /// Builds a position from a 0-based vector index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Position(index + 1)
    }

    /// The next (deeper) position.
    #[inline]
    pub fn next(self) -> Self {
        Position(self.0 + 1)
    }

    /// The previous (shallower) position, or `None` when at the head.
    #[inline]
    pub fn prev(self) -> Option<Self> {
        Position::new(self.0 - 1)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A non-negative local or overall score with a *total* order.
///
/// The paper defines local scores as non-negative reals. `Score` wraps an
/// `f64` and
///
/// * rejects NaN and ±∞ at construction ([`Score::new`]),
/// * orders by `f64::total_cmp`, so scores can be sorted and used as keys
///   in ordered collections without `unwrap`ping partial comparisons.
///
/// Negative values are accepted (the Gaussian generator of the paper's own
/// evaluation produces them); monotonicity of the scoring function is the
/// only property the algorithms rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score(f64);

impl Score {
    /// Creates a score, rejecting every non-finite value (NaN and ±∞):
    /// an infinite local score makes overall scores `∞ + (−∞) = NaN`,
    /// which no threshold comparison can rank.
    pub fn new(value: f64) -> Result<Self, ListError> {
        if value.is_finite() {
            Ok(Score(value))
        } else {
            Err(ListError::NonFiniteScore)
        }
    }

    /// Creates a score without the NaN check.
    ///
    /// Intended for literals and internal arithmetic whose operands were
    /// already validated. Panics in debug builds if `value` is NaN.
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        debug_assert!(!value.is_nan(), "Score must not be NaN");
        Score(value)
    }

    /// The zero score.
    pub const ZERO: Score = Score(0.0);

    /// Returns the underlying `f64` value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Eq for Score {}

impl Ord for Score {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Score {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Score> for f64 {
    fn from(score: Score) -> f64 {
        score.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_id_display_matches_paper_notation() {
        assert_eq!(ItemId(5).to_string(), "d5");
    }

    #[test]
    fn item_id_from_u64() {
        let id: ItemId = 42u64.into();
        assert_eq!(id, ItemId(42));
    }

    #[test]
    fn position_is_one_based() {
        assert!(Position::new(0).is_none());
        let p = Position::new(3).unwrap();
        assert_eq!(p.get(), 3);
        assert_eq!(p.index(), 2);
        assert_eq!(Position::from_index(2), p);
    }

    #[test]
    fn position_first_next_prev() {
        assert_eq!(Position::FIRST.get(), 1);
        assert_eq!(Position::FIRST.next().get(), 2);
        assert_eq!(Position::FIRST.prev(), None);
        assert_eq!(Position::new(5).unwrap().prev(), Position::new(4));
    }

    #[test]
    fn position_ordering_follows_depth() {
        assert!(Position::new(1).unwrap() < Position::new(2).unwrap());
    }

    #[test]
    fn score_rejects_nan() {
        assert!(Score::new(f64::NAN).is_err());
        assert_eq!(Score::new(f64::INFINITY), Err(ListError::NonFiniteScore));
        assert_eq!(
            Score::new(f64::NEG_INFINITY),
            Err(ListError::NonFiniteScore)
        );
        assert!(Score::new(1.5).is_ok());
        assert!(Score::new(f64::MAX).is_ok());
    }

    #[test]
    fn score_total_order() {
        let mut scores = vec![
            Score::from_f64(3.0),
            Score::from_f64(-1.0),
            Score::from_f64(0.0),
        ];
        scores.sort();
        assert_eq!(
            scores,
            vec![
                Score::from_f64(-1.0),
                Score::from_f64(0.0),
                Score::from_f64(3.0)
            ]
        );
    }

    #[test]
    fn score_accessors() {
        let s = Score::new(2.5).unwrap();
        assert_eq!(s.value(), 2.5);
        let f: f64 = s.into();
        assert_eq!(f, 2.5);
        assert_eq!(Score::ZERO.value(), 0.0);
        assert_eq!(s.to_string(), "2.5");
    }
}
