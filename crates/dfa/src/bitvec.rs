//! Dense fixed-width bit vectors.
//!
//! The data-flow analyses of the paper are bit-vector problems (Tables 1
//! and 2). A [`BitVec`] is one owned vector: the boundary values,
//! scratch rows and per-program sets the analyses keep outside a
//! [`BitMatrix`](crate::BitMatrix). Its set algebra is the row algebra
//! of [`RowMut`], which it lends through [`BitVec::as_row_mut`], plus
//! change-reporting variants (`*_changed`) for worklist convergence
//! checks.

use std::fmt;

use crate::matrix::{IterOnes, Row, RowMut, BITS};

/// A fixed-length vector of bits.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    blocks: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a vector of `len` bits, all set to `value`.
    pub fn new(len: usize, value: bool) -> BitVec {
        let mut v = BitVec {
            blocks: vec![0; len.div_ceil(BITS)],
            len,
        };
        if value {
            v.fill(true);
        }
        v
    }

    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> BitVec {
        BitVec::new(len, false)
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> BitVec {
        BitVec::new(len, true)
    }

    /// The vector as a read-only row view.
    #[inline]
    pub fn as_row(&self) -> Row<'_> {
        Row::new(&self.blocks, self.len)
    }

    /// The vector as a writable row view.
    #[inline]
    pub fn as_row_mut(&mut self) -> RowMut<'_> {
        RowMut::new(&mut self.blocks, self.len)
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.as_row().get(i)
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        self.as_row_mut().set(i, value);
    }

    /// Sets all bits to `value`.
    pub fn fill(&mut self, value: bool) {
        self.as_row_mut().fill(value);
    }

    /// Whether no bit is set.
    pub fn none(&self) -> bool {
        self.as_row().none()
    }

    /// Whether at least one bit is set.
    pub fn any(&self) -> bool {
        !self.none()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.as_row().count_ones()
    }

    /// Overwrites `self` with `other`'s bits without reallocating.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.as_row_mut().copy_from(other.as_row());
    }

    /// `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn union_with(&mut self, other: &BitVec) {
        self.as_row_mut().union_with(other.as_row());
    }

    /// `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn intersect_with(&mut self, other: &BitVec) {
        self.as_row_mut().intersect_with(other.as_row());
    }

    /// `self &= !other` (set difference).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn difference_with(&mut self, other: &BitVec) {
        self.as_row_mut().difference_with(other.as_row());
    }

    /// `self |= other`, reporting whether any bit changed.
    pub fn union_with_changed(&mut self, other: &BitVec) -> bool {
        self.as_row_mut().union_with_changed(other.as_row())
    }

    /// `self &= other`, reporting whether any bit changed.
    pub fn intersect_with_changed(&mut self, other: &BitVec) -> bool {
        self.as_row_mut().intersect_with_changed(other.as_row())
    }

    /// `self &= other`, skipping words of `self` that are already zero;
    /// returns the number of words combined (see
    /// [`RowMut::intersect_with_skip`]).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn intersect_with_skip(&mut self, other: &BitVec) -> u64 {
        self.as_row_mut().intersect_with_skip(other.as_row())
    }

    /// `self |= other`, skipping all-zero words of `other`; returns the
    /// number of words combined (see [`RowMut::union_with_skip`]).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn union_with_skip(&mut self, other: &BitVec) -> u64 {
        self.as_row_mut().union_with_skip(other.as_row())
    }

    /// Flips every bit in place.
    pub fn negate(&mut self) {
        self.as_row_mut().negate();
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        self.as_row().is_subset_of(other.as_row())
    }

    /// Iterates over indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        self.as_row().iter_ones()
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec{:?}", self.as_row())
    }
}

impl FromIterator<usize> for BitVec {
    /// Collects set-bit indices; the length is one past the maximum index.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> BitVec {
        let indices: Vec<usize> = iter.into_iter().collect();
        let len = indices.iter().max().map_or(0, |m| m + 1);
        let mut v = BitVec::zeros(len);
        for i in indices {
            v.set(i, true);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_masking() {
        let v = BitVec::ones(70);
        assert_eq!(v.len(), 70);
        assert_eq!(v.count_ones(), 70);
        assert!(v.get(69));
        let z = BitVec::zeros(70);
        assert!(z.none());
        assert!(!z.any());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut v = BitVec::zeros(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn set_algebra() {
        let a: BitVec = [1usize, 3, 5].into_iter().collect();
        let mut b: BitVec = [3usize, 4, 5].into_iter().collect();
        // lengths: a has len 6, b has len 6
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![3, 5]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert!(i.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        b.negate();
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn changed_variants_report_accurately() {
        let mut a: BitVec = [1usize, 2].into_iter().collect();
        let same = a.clone();
        assert!(!a.union_with_changed(&same));
        let mut more = BitVec::zeros(3);
        more.set(0, true);
        assert!(a.union_with_changed(&more));
        assert!(a.get(0));
        let mut b = BitVec::ones(3);
        assert!(b.intersect_with_changed(&a) || b == a);
    }

    #[test]
    fn skip_variants_match_dense_and_count_sparsely() {
        // 130 bits = 3 words; word 1 of `a` is zero, word 2 of `b` is zero.
        let mut a = BitVec::zeros(130);
        a.set(0, true);
        a.set(129, true);
        let mut b = BitVec::zeros(130);
        b.set(0, true);
        b.set(64, true);

        let mut dense = a.clone();
        dense.intersect_with(&b);
        let mut sparse = a.clone();
        let ops = sparse.intersect_with_skip(&b);
        assert_eq!(sparse, dense);
        assert_eq!(ops, 2, "the all-zero middle word of `a` is skipped");

        let mut dense = a.clone();
        dense.union_with(&b);
        let mut sparse = a.clone();
        let ops = sparse.union_with_skip(&b);
        assert_eq!(sparse, dense);
        assert_eq!(ops, 2, "the all-zero tail word of `b` is skipped");
    }

    #[test]
    fn iter_ones_across_blocks() {
        let v: BitVec = [0usize, 63, 64, 128].into_iter().collect();
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 128]);
    }

    #[test]
    fn negate_respects_tail_mask() {
        let mut v = BitVec::zeros(65);
        v.negate();
        assert_eq!(v.count_ones(), 65);
        v.negate();
        assert!(v.none());
    }

    #[test]
    fn fill_and_empty() {
        let mut v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert!(v.none());
        v.fill(true);
        assert_eq!(v.count_ones(), 0);
        let mut w = BitVec::zeros(9);
        w.fill(true);
        assert_eq!(w.count_ones(), 9);
    }

    #[test]
    fn debug_format_lists_ones() {
        let v: BitVec = [2usize, 4].into_iter().collect();
        assert_eq!(format!("{v:?}"), "BitVec[5]{2,4}");
    }
}
