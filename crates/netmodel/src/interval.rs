//! Half-closed intervals over the packet-header field space.
//!
//! The Delta-net paper (§3.1) observes that an IP prefix such as
//! `0.0.0.10/31` is exactly the half-closed interval `[10 : 12)` of 32-bit
//! destination addresses. All of Delta-net's bookkeeping is phrased in terms
//! of such intervals, so this module provides the shared [`Interval`] type
//! together with the set-algebra helpers (intersection, adjacency, covering
//! checks) that both the Delta-net engine and the Veriflow-RI baseline need.
//!
//! Bounds are stored as `u128` so that any header field of up to 127 bits is
//! representable; IPv4 destination prefixes (the paper's evaluation) use the
//! sub-range `[0, 2^32]`.

use std::fmt;

/// The scalar type used for interval bounds.
///
/// `u128` comfortably holds the exclusive upper bound `2^k` for any field
/// width `k ≤ 127`. IPv4 uses `k = 32`.
pub type Bound = u128;

/// A half-closed interval `[lo : hi)` of packet-header field values.
///
/// Invariant: `lo < hi` for any interval produced by [`Interval::new`];
/// the empty interval is represented explicitly via [`Interval::is_empty`]
/// only when constructed through [`Interval::intersection`].
///
/// # Examples
///
/// ```
/// use netmodel::interval::Interval;
///
/// let a = Interval::new(10, 12); // the prefix 0.0.0.10/31
/// let b = Interval::new(0, 16);  // the prefix 0.0.0.0/28
/// assert!(b.contains_interval(&a));
/// assert_eq!(a.len(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    lo: Bound,
    hi: Bound,
}

impl Interval {
    /// Creates the half-closed interval `[lo : hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (an inverted interval is always a logic error in
    /// the callers; an empty interval `lo == hi` is permitted so that
    /// set-algebra helpers can return it).
    #[inline]
    pub fn new(lo: Bound, hi: Bound) -> Self {
        assert!(lo <= hi, "inverted interval [{lo} : {hi})");
        Interval { lo, hi }
    }

    /// The inclusive lower bound.
    #[inline]
    pub fn lo(&self) -> Bound {
        self.lo
    }

    /// The exclusive upper bound.
    #[inline]
    pub fn hi(&self) -> Bound {
        self.hi
    }

    /// Number of field values covered by the interval.
    #[inline]
    pub fn len(&self) -> Bound {
        self.hi - self.lo
    }

    /// Whether the interval covers no field value at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether the single value `x` lies inside the interval.
    #[inline]
    pub fn contains(&self, x: Bound) -> bool {
        self.lo <= x && x < self.hi
    }

    /// Whether `other` is fully covered by `self`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Whether the two intervals share at least one value.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// The intersection of the two intervals (possibly empty).
    #[inline]
    pub fn intersection(&self, other: &Interval) -> Interval {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo >= hi {
            Interval { lo, hi: lo }
        } else {
            Interval { lo, hi }
        }
    }

    /// Whether the two intervals are adjacent (touch without overlapping),
    /// i.e. their union would be a single interval.
    #[inline]
    pub fn adjacent(&self, other: &Interval) -> bool {
        self.hi == other.lo || other.hi == self.lo
    }

    /// The union of two overlapping or adjacent intervals.
    ///
    /// Returns `None` when the union would not be a single interval.
    pub fn union(&self, other: &Interval) -> Option<Interval> {
        if self.is_empty() {
            return Some(*other);
        }
        if other.is_empty() {
            return Some(*self);
        }
        if self.overlaps(other) || self.adjacent(other) {
            Some(Interval {
                lo: self.lo.min(other.lo),
                hi: self.hi.max(other.hi),
            })
        } else {
            None
        }
    }

    /// The parts of `self` not covered by `other`: zero, one, or two
    /// intervals, in increasing order.
    pub fn difference(&self, other: &Interval) -> Vec<Interval> {
        if !self.overlaps(other) {
            return if self.is_empty() { vec![] } else { vec![*self] };
        }
        let mut out = Vec::with_capacity(2);
        if self.lo < other.lo {
            out.push(Interval::new(self.lo, other.lo));
        }
        if other.hi < self.hi {
            out.push(Interval::new(other.hi, self.hi));
        }
        out
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} : {})", self.lo, self.hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} : {})", self.lo, self.hi)
    }
}

/// Normalizes a set of intervals: sorts them and merges overlapping or
/// adjacent ones, producing the unique minimal sorted representation.
///
/// Used by the lattice and query layers when reporting packet sets back to
/// users in interval form.
pub fn normalize(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|iv| !iv.is_empty());
    intervals.sort();
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        match out.last_mut() {
            Some(last) if last.hi() >= iv.lo() => {
                if iv.hi() > last.hi() {
                    *last = Interval::new(last.lo(), iv.hi());
                }
            }
            _ => out.push(iv),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_prefix_10_slash_31() {
        // 0.0.0.10/31 == [10 : 12) == {10, 11}
        let iv = Interval::new(10, 12);
        assert!(iv.contains(10));
        assert!(iv.contains(11));
        assert!(!iv.contains(12));
        assert!(!iv.contains(9));
        assert_eq!(iv.len(), 2);
    }

    #[test]
    fn contains_interval_and_overlap() {
        let outer = Interval::new(0, 16);
        let inner = Interval::new(10, 12);
        assert!(outer.contains_interval(&inner));
        assert!(!inner.contains_interval(&outer));
        assert!(outer.overlaps(&inner));
        assert!(inner.overlaps(&outer));
    }

    #[test]
    fn disjoint_intervals_do_not_overlap() {
        let a = Interval::new(0, 10);
        let b = Interval::new(10, 20);
        assert!(!a.overlaps(&b));
        assert!(a.adjacent(&b));
        assert!(b.adjacent(&a));
    }

    #[test]
    fn intersection_basics() {
        let a = Interval::new(0, 16);
        let b = Interval::new(10, 32);
        assert_eq!(a.intersection(&b), Interval::new(10, 16));
        let c = Interval::new(20, 24);
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn intersection_is_commutative_on_examples() {
        let cases = [
            (Interval::new(0, 5), Interval::new(3, 9)),
            (Interval::new(1, 2), Interval::new(2, 3)),
            (Interval::new(0, 100), Interval::new(50, 60)),
        ];
        for (a, b) in cases {
            assert_eq!(a.intersection(&b), b.intersection(&a));
        }
    }

    #[test]
    fn union_of_overlapping() {
        let a = Interval::new(0, 12);
        let b = Interval::new(10, 16);
        assert_eq!(a.union(&b), Some(Interval::new(0, 16)));
    }

    #[test]
    fn union_of_adjacent() {
        let a = Interval::new(0, 10);
        let b = Interval::new(10, 16);
        assert_eq!(a.union(&b), Some(Interval::new(0, 16)));
    }

    #[test]
    fn union_of_disjoint_is_none() {
        let a = Interval::new(0, 4);
        let b = Interval::new(8, 16);
        assert_eq!(a.union(&b), None);
    }

    #[test]
    fn difference_splits_in_two() {
        let outer = Interval::new(0, 16);
        let inner = Interval::new(10, 12);
        let diff = outer.difference(&inner);
        assert_eq!(diff, vec![Interval::new(0, 10), Interval::new(12, 16)]);
    }

    #[test]
    fn difference_non_overlapping_returns_self() {
        let a = Interval::new(0, 4);
        let b = Interval::new(8, 16);
        assert_eq!(a.difference(&b), vec![a]);
    }

    #[test]
    fn difference_fully_covered_is_empty() {
        let a = Interval::new(10, 12);
        let b = Interval::new(0, 16);
        assert!(a.difference(&b).is_empty());
    }

    #[test]
    fn empty_interval_behaviour() {
        let e = Interval::new(5, 5);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!e.contains(5));
        let a = Interval::new(0, 10);
        assert!(a.contains_interval(&e));
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_interval_panics() {
        let _ = Interval::new(10, 5);
    }

    #[test]
    fn normalize_merges_and_sorts() {
        let set = vec![
            Interval::new(10, 12),
            Interval::new(0, 4),
            Interval::new(4, 8),
            Interval::new(11, 20),
            Interval::new(30, 30), // empty, dropped
        ];
        assert_eq!(
            normalize(set),
            vec![Interval::new(0, 8), Interval::new(10, 20)]
        );
    }

    #[test]
    fn normalize_idempotent() {
        let set = vec![Interval::new(0, 8), Interval::new(10, 20)];
        assert_eq!(normalize(set.clone()), set);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Interval::new(10, 12).to_string(), "[10 : 12)");
    }
}
