//! Row-strided bit matrices and the row views every solve reads.
//!
//! A bit-vector solve keeps one vector per node for each quantity it
//! computes (entry, exit, gen, kill, ...). [`BitMatrix`] stores all rows
//! of one quantity in a single `Vec<u64>`: row `r` is the word slice
//! `[r·stride, (r+1)·stride)` with `stride = ⌈width/64⌉`, so a one-word
//! problem needs no special code and a solve costs a constant number of
//! allocations however many nodes it has. Bits past `width` in a row's
//! last word are always zero.
//!
//! Readers borrow a row as a [`Row`] (the read API of
//! [`BitVec`](crate::BitVec): `get`, `iter_ones`, `none`/`any`,
//! `count_ones`, and an explicit `to_bitvec` for callers that keep a
//! copy); writers borrow a [`RowMut`], which carries the set algebra.
//! `BitVec` is the one-row, owned case and lends both views.

use std::fmt;

use crate::bitvec::BitVec;

pub(crate) const BITS: usize = 64;

/// Mask of the valid bits in the last word of a `width`-bit row.
fn tail_mask(width: usize) -> u64 {
    match width % BITS {
        0 => !0,
        rem => (1u64 << rem) - 1,
    }
}

/// A fixed number of `width`-bit rows in one row-strided allocation.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    words: Vec<u64>,
    rows: usize,
    width: usize,
    stride: usize,
}

impl BitMatrix {
    /// Creates `rows` rows of `width` bits, every bit set to `value`.
    pub fn new(rows: usize, width: usize, value: bool) -> BitMatrix {
        let stride = width.div_ceil(BITS);
        let mut words = vec![if value { !0u64 } else { 0 }; rows * stride];
        if value && stride > 0 {
            let mask = tail_mask(width);
            for last in words.iter_mut().skip(stride - 1).step_by(stride) {
                *last &= mask;
            }
        }
        BitMatrix {
            words,
            rows,
            width,
            stride,
        }
    }

    /// Creates `rows` all-zero rows of `width` bits.
    pub fn zeros(rows: usize, width: usize) -> BitMatrix {
        BitMatrix::new(rows, width, false)
    }

    /// Creates `rows` all-one rows of `width` bits.
    pub fn ones(rows: usize, width: usize) -> BitMatrix {
        BitMatrix::new(rows, width, true)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bits per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per row: `⌈width/64⌉`.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> Row<'_> {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        Row {
            words: &self.words[r * self.stride..(r + 1) * self.stride],
            width: self.width,
        }
    }

    /// Borrows row `r` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> RowMut<'_> {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        RowMut {
            words: &mut self.words[r * self.stride..(r + 1) * self.stride],
            width: self.width,
        }
    }

    /// Iterates over the rows in index order.
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> {
        (0..self.rows).map(|r| self.row(r))
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A borrowed, read-only `width`-bit row.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Row<'a> {
    words: &'a [u64],
    width: usize,
}

impl<'a> Row<'a> {
    #[inline]
    pub(crate) fn new(words: &'a [u64], width: usize) -> Row<'a> {
        debug_assert_eq!(words.len(), width.div_ceil(BITS));
        Row { words, width }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.width
    }

    /// Whether the row has zero width.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "bit index {i} out of range {}", self.width);
        (self.words[i / BITS] >> (i % BITS)) & 1 == 1
    }

    /// Whether no bit is set.
    #[inline]
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether at least one bit is set.
    pub fn any(&self) -> bool {
        !self.none()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `self ⊆ other`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn is_subset_of(&self, other: Row<'_>) -> bool {
        check_width(self.width, other.width);
        self.words.iter().zip(other.words).all(|(a, b)| a & !b == 0)
    }

    /// Iterates over indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'a> {
        IterOnes {
            words: self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// An owned copy of the row.
    pub fn to_bitvec(&self) -> BitVec {
        let mut v = BitVec::zeros(self.width);
        v.as_row_mut().copy_from(*self);
        v
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]{{", self.width)?;
        for (k, i) in self.iter_ones().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

/// A borrowed, writable `width`-bit row: the set algebra of the solvers.
/// Every operand is a [`Row`] of the same width.
pub struct RowMut<'a> {
    words: &'a mut [u64],
    width: usize,
}

impl<'a> RowMut<'a> {
    #[inline]
    pub(crate) fn new(words: &'a mut [u64], width: usize) -> RowMut<'a> {
        debug_assert_eq!(words.len(), width.div_ceil(BITS));
        RowMut { words, width }
    }

    /// A read-only view of the row.
    #[inline]
    pub fn as_row(&self) -> Row<'_> {
        Row {
            words: self.words,
            width: self.width,
        }
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
        assert!(i < self.width, "bit index {i} out of range {}", self.width);
        let mask = 1u64 << (i % BITS);
        if value {
            self.words[i / BITS] |= mask;
        } else {
            self.words[i / BITS] &= !mask;
        }
    }

    /// Sets all bits to `value`.
    pub fn fill(&mut self, value: bool) {
        self.words.fill(if value { !0 } else { 0 });
        self.mask_tail();
    }

    /// Flips every bit.
    pub fn negate(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.mask_tail();
    }

    fn mask_tail(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.width);
        }
    }

    /// Overwrites the row with `other`.
    pub fn copy_from(&mut self, other: Row<'_>) {
        check_width(self.width, other.width);
        self.words.copy_from_slice(other.words);
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: Row<'_>) {
        self.zip_with(other, |a, b| a | b);
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: Row<'_>) {
        self.zip_with(other, |a, b| a & b);
    }

    /// `self &= !other` (set difference).
    pub fn difference_with(&mut self, other: Row<'_>) {
        self.zip_with(other, |a, b| a & !b);
    }

    /// `self |= other`, reporting whether any bit changed.
    pub fn union_with_changed(&mut self, other: Row<'_>) -> bool {
        self.zip_with(other, |a, b| a | b)
    }

    /// `self &= other`, reporting whether any bit changed.
    pub fn intersect_with_changed(&mut self, other: Row<'_>) -> bool {
        self.zip_with(other, |a, b| a & b)
    }

    /// Combines word by word, reporting whether any word changed.
    fn zip_with(&mut self, other: Row<'_>, op: impl Fn(u64, u64) -> u64) -> bool {
        check_width(self.width, other.width);
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(other.words) {
            let new = op(*a, b);
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self &= other`, skipping words of `self` that are already zero
    /// (they cannot change under intersection). Returns the number of
    /// words actually combined — the sparse word-operation count used by
    /// the priority solver's `word_ops` accounting.
    pub fn intersect_with_skip(&mut self, other: Row<'_>) -> u64 {
        check_width(self.width, other.width);
        let mut ops = 0;
        for (a, b) in self.words.iter_mut().zip(other.words) {
            if *a != 0 {
                *a &= b;
                ops += 1;
            }
        }
        ops
    }

    /// `self |= other`, skipping words where `other` contributes nothing
    /// (all-zero words are the union identity). Returns the number of
    /// words actually combined.
    pub fn union_with_skip(&mut self, other: Row<'_>) -> u64 {
        check_width(self.width, other.width);
        let mut ops = 0;
        for (a, &b) in self.words.iter_mut().zip(other.words) {
            if b != 0 {
                *a |= b;
                ops += 1;
            }
        }
        ops
    }

    /// Overwrites the row with `gen ∪ (input ∖ kill)` — one gen/kill
    /// transfer — reporting whether any bit changed.
    pub fn set_transfer(&mut self, input: Row<'_>, gen: Row<'_>, kill: Row<'_>) -> bool {
        check_width(self.width, input.width);
        check_width(self.width, gen.width);
        check_width(self.width, kill.width);
        let mut changed = false;
        for (w, out) in self.words.iter_mut().enumerate() {
            let new = gen.words[w] | (input.words[w] & !kill.words[w]);
            changed |= new != *out;
            *out = new;
        }
        changed
    }
}

impl fmt::Debug for RowMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_row().fmt(f)
    }
}

fn check_width(a: usize, b: usize) {
    assert_eq!(a, b, "bit vector length mismatch: {a} vs {b}");
}

/// Iterator over the set bits of a row, produced by
/// [`Row::iter_ones`] and [`BitVec::iter_ones`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_is_words_per_row() {
        for (width, stride) in [(0, 0), (1, 1), (64, 1), (65, 2), (128, 2), (129, 3)] {
            let m = BitMatrix::zeros(3, width);
            assert_eq!(m.stride(), stride, "width {width}");
            assert_eq!(m.row(2).words.len(), stride);
        }
    }

    #[test]
    fn ones_masks_every_row_tail() {
        for width in [1, 20, 63, 64, 65, 96, 128, 130] {
            let m = BitMatrix::ones(4, width);
            for row in m.iter() {
                assert_eq!(row.count_ones(), width, "width {width}");
            }
        }
    }

    #[test]
    fn rows_are_independent() {
        let mut m = BitMatrix::zeros(3, 70);
        m.row_mut(1).set(69, true);
        m.row_mut(1).set(0, true);
        assert!(m.row(0).none() && m.row(2).none());
        assert_eq!(m.row(1).iter_ones().collect::<Vec<_>>(), vec![0, 69]);
        m.row_mut(2).fill(true);
        assert_eq!(m.row(2).count_ones(), 70);
        assert_eq!(m.row(1).count_ones(), 2);
        m.row_mut(2).negate();
        assert!(m.row(2).none());
    }

    #[test]
    fn set_transfer_lets_gen_win_and_reports_change() {
        let mut m = BitMatrix::zeros(4, 4);
        // input {2,3}, gen {0,1}, kill {1,2}: out = {0,1,3}.
        for (r, bits) in [(0, [2, 3]), (1, [0, 1]), (2, [1, 2])] {
            for b in bits {
                m.row_mut(r).set(b, true);
            }
        }
        let (input, gen, kill) = (
            m.row(0).to_bitvec(),
            m.row(1).to_bitvec(),
            m.row(2).to_bitvec(),
        );
        let mut out = m.row_mut(3);
        assert!(out.set_transfer(input.as_row(), gen.as_row(), kill.as_row()));
        assert_eq!(out.as_row().iter_ones().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert!(!out.set_transfer(input.as_row(), gen.as_row(), kill.as_row()));
    }

    #[test]
    fn zero_rows_are_the_identity_transfer() {
        let zeros = BitMatrix::zeros(1, 70);
        let mut x = BitVec::zeros(70);
        for b in [0, 13, 64, 69] {
            x.set(b, true);
        }
        let mut out = BitVec::ones(70);
        let mut row = out.as_row_mut();
        assert!(row.set_transfer(x.as_row(), zeros.row(0), zeros.row(0)));
        assert_eq!(out, x);
    }

    #[test]
    fn row_views_compare_and_copy() {
        let mut m = BitMatrix::zeros(2, 130);
        m.row_mut(0).set(129, true);
        assert_ne!(m.row(0), m.row(1));
        let copy = m.row(0).to_bitvec();
        m.row_mut(1).copy_from(copy.as_row());
        assert_eq!(m.row(0), m.row(1));
        assert_eq!(format!("{:?}", m.row(1)), "[130]{129}");
    }
}
