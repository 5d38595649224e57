//! Structure-of-arrays bitset rows in one contiguous allocation.
//!
//! A [`MaskMatrix`] stores a fixed number of equal-universe bitset rows
//! back to back in a single `Vec<u64>`. Compared to a `Vec<TypedBitSet>`
//! it removes one pointer indirection per row and keeps consecutive rows
//! on adjacent cache lines, which is what the [`crate::Hypergraph`]
//! edge/incidence folds iterate: the hot loops stream contiguous lane
//! columns instead of chasing per-row heap allocations.
//!
//! Rows obey the same tail invariant as [`crate::bitset::TypedBitSet`]
//! (bits at positions `>= row_bits` of a row's last word are zero), so
//! the [`crate::lanes`] kernels apply to rows directly. The typed
//! mutators below are the only way to write a row from outside the
//! crate, and each preserves the invariant.

use std::marker::PhantomData;

use crate::bitset::{Ix, TypedBitSet};
use crate::lanes;

const BITS: usize = u64::BITS as usize;

/// A dense matrix of bitset rows over a shared universe, stored as one
/// contiguous block array (structure-of-arrays layout).
///
/// `I` tags the universe exactly as in [`TypedBitSet`]: a
/// `MaskMatrix<Edge>` holds edge-set rows, a `MaskMatrix<Vertex>`
/// vertex-set rows, and the two cannot be mixed up.
pub struct MaskMatrix<I> {
    blocks: Vec<u64>,
    /// Words per row: `nbits.div_ceil(64)`.
    stride: usize,
    /// Universe size of every row.
    nbits: usize,
    _tag: PhantomData<fn(I) -> I>,
}

impl<I> Default for MaskMatrix<I> {
    /// A matrix with no rows over the empty universe; sized on first
    /// [`MaskMatrix::reset`].
    fn default() -> Self {
        MaskMatrix {
            blocks: Vec::new(),
            stride: 0,
            nbits: 0,
            _tag: PhantomData,
        }
    }
}

impl<I> Clone for MaskMatrix<I> {
    fn clone(&self) -> Self {
        MaskMatrix {
            blocks: self.blocks.clone(),
            stride: self.stride,
            nbits: self.nbits,
            _tag: PhantomData,
        }
    }
}

impl<I: Ix> MaskMatrix<I> {
    /// An empty matrix (no rows, empty universe).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes to `rows` zeroed rows over a universe of `nbits`
    /// elements, reusing the block storage when it is large enough.
    ///
    /// Returns `true` if the buffer had to grow (an allocation
    /// happened) — scratch-workspace users thread this into their
    /// regrowth meters, exactly like [`TypedBitSet::reset`].
    pub fn reset(&mut self, rows: usize, nbits: usize) -> bool {
        let stride = nbits.div_ceil(BITS);
        let words = rows * stride;
        let grew = words > self.blocks.capacity();
        self.blocks.clear();
        self.blocks.resize(words, 0);
        self.stride = stride;
        self.nbits = nbits;
        grew
    }

    /// The raw blocks of row `r`, low words first. The tail invariant
    /// guarantees bits past the row universe are zero.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        let start = r * self.stride;
        &self.blocks[start..start + self.stride]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        let start = r * self.stride;
        &mut self.blocks[start..start + self.stride]
    }

    /// Sets row `r` to a copy of `src` (same universe required).
    #[inline]
    pub fn set_row(&mut self, r: usize, src: &TypedBitSet<I>) {
        debug_assert_eq!(self.nbits, src.capacity());
        self.row_mut(r).copy_from_slice(src.as_blocks());
    }

    /// `dst |= row(r)` — fold a row into an accumulator set.
    #[inline]
    pub fn or_row_into(&self, r: usize, dst: &mut TypedBitSet<I>) {
        debug_assert_eq!(self.nbits, dst.capacity());
        lanes::or_assign(dst.as_blocks_mut(), self.row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::{Vertex, VertexSet};

    fn vs(n: usize, elems: &[u32]) -> VertexSet {
        VertexSet::from_iter(n, elems.iter().map(|&v| Vertex(v)))
    }

    #[test]
    fn rows_round_trip_through_bitsets() {
        let mut m: MaskMatrix<Vertex> = MaskMatrix::new();
        m.reset(3, 130);
        m.set_row(0, &vs(130, &[0, 64, 129]));
        m.set_row(1, &vs(130, &[5, 64]));
        assert_eq!(m.row(0), vs(130, &[0, 64, 129]).as_blocks());

        let mut out = VertexSet::empty(130);
        m.or_row_into(0, &mut out);
        m.or_row_into(1, &mut out);
        m.or_row_into(2, &mut out);
        assert_eq!(out, vs(130, &[0, 5, 64, 129]));
        assert!(out.tail_invariant_ok());
    }

    #[test]
    fn reset_reuses_storage_and_zeroes() {
        let mut m: MaskMatrix<Vertex> = MaskMatrix::new();
        assert!(m.reset(4, 256));
        m.set_row(3, &vs(256, &[255]));
        m.set_row(1, &vs(256, &[7]));
        // Shrinking reuses the buffer and clears stale content.
        assert!(!m.reset(2, 100));
        assert_eq!(m.row(0), VertexSet::empty(100).as_blocks());
        assert_eq!(m.row(1), VertexSet::empty(100).as_blocks());
    }
}
