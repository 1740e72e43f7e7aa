//! Multi-field header spaces.
//!
//! The paper phrases Delta-net over a single packet-header field (the
//! destination address), remarking that the interval representation
//! generalizes. This module is that generalization: a [`HeaderSpace`]
//! declares which fields a data plane matches on (e.g. `[dst]`,
//! `[dst, src]`, `[dst, src, dport]`), and a [`SecondaryMatch`] carries a
//! rule's half-closed interval for each secondary field it constrains (the
//! primary interval is the rule's prefix).
//!
//! The first field is the **primary** field: it is the axis the atom
//! machinery, the labels, and shard partitioning run on, exactly as in the
//! single-field engine. The remaining fields are **secondary**: rules may
//! constrain them with an interval each, and the verification engines
//! intersect those constraints at check time. A rule that constrains no
//! secondary field behaves bit-identically to a single-field rule, which is
//! what keeps `[dst]` a first-class fast path rather than a degenerate case.

use crate::interval::{Bound, Interval};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of secondary fields a header space may declare (the
/// primary field is always present, so up to `1 + MAX_SECONDARY_FIELDS`
/// fields total — enough for `[dst, src, dport]`).
pub const MAX_SECONDARY_FIELDS: usize = 2;

/// Maximum bit-width of a *secondary* field. Secondary bounds are stored
/// inline in every rule as `u64`s (the compact representation keeps
/// `Rule` small enough that single-field replay speed is unaffected by the
/// multi-field support), so a secondary field's exclusive upper bound
/// `2^width` must fit in 64 bits with a spare bit. The primary field keeps
/// the full 1–127-bit range of the `u128` atom machinery.
pub const MAX_SECONDARY_WIDTH: u8 = 63;

/// Display names of the field positions: the primary field first, then
/// the secondaries.
const FIELD_NAMES: [&str; 1 + MAX_SECONDARY_FIELDS] = ["dst", "src", "dport"];

/// The declared shape of a data plane's match space: the bit-width of the
/// primary field plus the widths of zero or more secondary fields.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HeaderSpace {
    widths: [u8; 1 + MAX_SECONDARY_FIELDS],
    count: u8,
}

impl HeaderSpace {
    /// A single-field space over a `width`-bit primary field — the paper's
    /// shape, and the fast path throughout the engines.
    pub fn single(width: u8) -> Self {
        HeaderSpace::new(&[width])
    }

    /// A space over the given field widths (primary first).
    ///
    /// # Panics
    ///
    /// Panics if no field is given, more than `1 + MAX_SECONDARY_FIELDS`
    /// are, or any width is 0 or exceeds 127 bits (the `u128` bound
    /// representation needs one spare bit for the exclusive upper end).
    pub fn new(widths: &[u8]) -> Self {
        assert!(
            !widths.is_empty(),
            "a header space needs at least one field"
        );
        assert!(
            widths.len() <= 1 + MAX_SECONDARY_FIELDS,
            "at most {} fields supported, got {}",
            1 + MAX_SECONDARY_FIELDS,
            widths.len()
        );
        let mut stored = [0u8; 1 + MAX_SECONDARY_FIELDS];
        for (i, &w) in widths.iter().enumerate() {
            assert!(w > 0 && w <= 127, "unsupported field width {w}");
            assert!(
                i == 0 || w <= MAX_SECONDARY_WIDTH,
                "unsupported field width {w}: secondary fields are limited to \
                 {MAX_SECONDARY_WIDTH} bits"
            );
            stored[i] = w;
        }
        HeaderSpace {
            widths: stored,
            count: widths.len() as u8,
        }
    }

    /// Total number of fields (primary included), at least 1.
    #[inline]
    pub fn field_count(&self) -> usize {
        self.count as usize
    }

    /// Number of secondary fields.
    #[inline]
    pub fn secondary_count(&self) -> usize {
        self.count as usize - 1
    }

    /// Width in bits of the primary field.
    #[inline]
    pub fn primary_width(&self) -> u8 {
        self.widths[0]
    }

    /// The field widths, primary first.
    pub fn widths(&self) -> &[u8] {
        &self.widths[..self.count as usize]
    }
}

impl fmt::Debug for HeaderSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (name, width)) in FIELD_NAMES.iter().zip(self.widths()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}:{width}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for HeaderSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A rule's per-field secondary constraints: one interval for each of the
/// first `count` secondary fields of the data plane's header space.
///
/// The default value constrains nothing (`count == 0`), which is how every
/// pre-existing single-field constructor keeps compiling — and behaving —
/// unchanged.
/// The bounds live inline in every `Rule`, so the representation is kept
/// compact: `u64` bound pairs rather than the `u128` intervals of the
/// primary axis (hence [`MAX_SECONDARY_WIDTH`]). Growing this struct grows
/// `Rule` — and with it every trace buffer and the rule registry — which
/// measurably slows single-field replay, so think twice.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SecondaryMatch {
    lo: [u64; MAX_SECONDARY_FIELDS],
    hi: [u64; MAX_SECONDARY_FIELDS],
    count: u8,
}

impl Default for SecondaryMatch {
    fn default() -> Self {
        SecondaryMatch {
            lo: [0; MAX_SECONDARY_FIELDS],
            hi: [0; MAX_SECONDARY_FIELDS],
            count: 0,
        }
    }
}

/// The constrained intervals of a [`SecondaryMatch`], materialized by
/// [`SecondaryMatch::intervals`]. Derefs to `[Interval]`, so slice methods
/// (`.iter()`, indexing, `.len()`) work directly; iterating the value
/// itself yields `Interval`s.
#[derive(Clone, Copy)]
pub struct SecIntervals {
    buf: [Interval; MAX_SECONDARY_FIELDS],
    len: u8,
}

impl std::ops::Deref for SecIntervals {
    type Target = [Interval];
    #[inline]
    fn deref(&self) -> &[Interval] {
        &self.buf[..self.len as usize]
    }
}

impl IntoIterator for SecIntervals {
    type Item = Interval;
    type IntoIter = std::iter::Take<std::array::IntoIter<Interval, MAX_SECONDARY_FIELDS>>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

impl SecondaryMatch {
    /// A constraint over the given secondary intervals (in field order).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SECONDARY_FIELDS`] intervals are given,
    /// any interval is empty (a rule matching nothing is meaningless), or
    /// any bound exceeds the [`MAX_SECONDARY_WIDTH`]-bit field range.
    pub fn new(intervals: &[Interval]) -> Self {
        assert!(
            intervals.len() <= MAX_SECONDARY_FIELDS,
            "at most {MAX_SECONDARY_FIELDS} secondary fields supported"
        );
        let mut sec = SecondaryMatch {
            count: intervals.len() as u8,
            ..SecondaryMatch::default()
        };
        for (i, iv) in intervals.iter().enumerate() {
            assert!(!iv.is_empty(), "empty secondary match interval {iv}");
            assert!(
                iv.hi() <= 1u128 << MAX_SECONDARY_WIDTH,
                "secondary bound {} exceeds the {MAX_SECONDARY_WIDTH}-bit field range",
                iv.hi()
            );
            sec.lo[i] = iv.lo() as u64;
            sec.hi[i] = iv.hi() as u64;
        }
        sec
    }

    /// Number of constrained secondary fields.
    #[inline]
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Whether no secondary field is constrained (the single-field shape).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The constrained intervals, in field order.
    #[inline]
    pub fn intervals(&self) -> SecIntervals {
        let mut buf = [Interval::new(0, 0); MAX_SECONDARY_FIELDS];
        for (i, slot) in buf.iter_mut().take(self.count as usize).enumerate() {
            *slot = Interval::new(self.lo[i] as u128, self.hi[i] as u128);
        }
        SecIntervals {
            buf,
            len: self.count,
        }
    }

    /// The constraint on secondary field `i`, or `None` when the field is
    /// unconstrained (matches its whole range).
    #[inline]
    pub fn get(&self, i: usize) -> Option<Interval> {
        (i < self.count as usize).then(|| Interval::new(self.lo[i] as u128, self.hi[i] as u128))
    }

    /// Whether the given secondary field values satisfy every constraint.
    /// Values past `count` are unconstrained and always match.
    #[inline]
    pub fn matches(&self, values: &[Bound]) -> bool {
        self.count as usize <= values.len()
            && (0..self.count as usize)
                .all(|i| (self.lo[i] as u128..self.hi[i] as u128).contains(&values[i]))
    }

    /// Whether two constraints overlap on every secondary field. A field
    /// unconstrained on either side is a wildcard and overlaps anything.
    pub fn overlaps(&self, other: &SecondaryMatch) -> bool {
        let shared = self.count.min(other.count) as usize;
        (0..shared).all(|i| self.lo[i] < other.hi[i] && other.lo[i] < self.hi[i])
    }

    /// Whether `self` matches every value `other` matches: each field
    /// `self` constrains, `other` constrains to a sub-interval. A field
    /// only `self` constrains is never covered, even by its full range.
    pub fn covers(&self, other: &SecondaryMatch) -> bool {
        self.count <= other.count
            && (0..self.count as usize)
                .all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }
}

impl fmt::Debug for SecondaryMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, iv) in self.intervals().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={}:{}", FIELD_NAMES[1 + i], iv.lo(), iv.hi())?;
        }
        Ok(())
    }
}

impl fmt::Display for SecondaryMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_shapes() {
        let s = HeaderSpace::single(32);
        assert_eq!(s.field_count(), 1);
        assert_eq!(s.secondary_count(), 0);
        assert_eq!(s.primary_width(), 32);
        assert_eq!(s.widths(), &[32]);

        let ds = HeaderSpace::new(&[32, 16]);
        assert_eq!(ds.secondary_count(), 1);
        assert_eq!(ds.widths(), &[32, 16]);
        assert_eq!(ds.to_string(), "[dst:32, src:16]");

        let three = HeaderSpace::new(&[32, 32, 16]);
        assert_eq!(three.secondary_count(), 2);
        assert_eq!(three.to_string(), "[dst:32, src:32, dport:16]");
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_fields_panics() {
        HeaderSpace::new(&[8, 8, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "unsupported field width")]
    fn zero_width_panics() {
        HeaderSpace::new(&[8, 0]);
    }

    #[test]
    #[should_panic(expected = "secondary fields are limited")]
    fn wide_secondary_field_panics() {
        // The primary field may use the full 127-bit range; secondary
        // fields are capped so their bounds pack into the u64 inline
        // representation.
        HeaderSpace::new(&[127, 64]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 63-bit field range")]
    fn wide_secondary_bound_panics() {
        SecondaryMatch::new(&[Interval::new(0, (1u128 << 63) + 1)]);
    }

    #[test]
    fn secondary_match_semantics() {
        let none = SecondaryMatch::default();
        assert!(none.is_empty());
        assert!(none.matches(&[5, 9]));
        assert!(none.matches(&[]));

        let m = SecondaryMatch::new(&[Interval::new(10, 20)]);
        assert_eq!(m.count(), 1);
        assert_eq!(m.get(0), Some(Interval::new(10, 20)));
        assert_eq!(m.get(1), None);
        assert!(m.matches(&[10]));
        assert!(m.matches(&[19, 777]));
        assert!(!m.matches(&[20]));
        assert!(!m.matches(&[]), "constrained field needs a value");

        // Wildcard on either side overlaps anything.
        assert!(m.overlaps(&none));
        assert!(none.overlaps(&m));
        let disjoint = SecondaryMatch::new(&[Interval::new(30, 40)]);
        assert!(!m.overlaps(&disjoint));
        let two = SecondaryMatch::new(&[Interval::new(15, 35), Interval::new(0, 4)]);
        assert!(m.overlaps(&two));
        assert_eq!(two.to_string(), "src=15:35 dport=0:4");

        // A wildcard covers everything and is covered only by a wildcard.
        assert!(none.covers(&m) && none.covers(&none));
        assert!(!m.covers(&none));
        let inner = SecondaryMatch::new(&[Interval::new(12, 20), Interval::new(0, 4)]);
        assert!(m.covers(&inner) && !inner.covers(&m));
        assert!(!m.covers(&two), "15:35 reaches past 20");
        let both = SecondaryMatch::new(&[Interval::new(10, 20), Interval::new(0, 8)]);
        assert!(both.covers(&inner));
        assert!(!both.covers(&m), "a field only the outer match constrains");
    }
}
