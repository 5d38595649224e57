//! Dense, typed bitsets over a fixed universe.
//!
//! Component computation, cover checks and connectedness checks are the hot
//! loops of every decomposition algorithm in this workspace; all of them
//! reduce to word-parallel operations on these sets. The `I: Ix` type
//! parameter statically separates vertex sets from edge sets so that an
//! `EdgeSet` can never be intersected with a `VertexSet` by accident.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

use crate::lanes;

/// An index newtype usable inside a [`TypedBitSet`].
pub trait Ix: Copy + Eq {
    /// Converts the index to a `usize` position.
    fn index(self) -> usize;
    /// Builds the index from a `usize` position.
    fn from_index(i: usize) -> Self;
}

/// A vertex of a hypergraph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Vertex(pub u32);

/// A (hyper)edge of a hypergraph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge(pub u32);

impl Ix for Vertex {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        Vertex(i as u32)
    }
}

impl Ix for Edge {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        Edge(i as u32)
    }
}

const BITS: usize = u64::BITS as usize;

/// A fixed-capacity bitset over indices of type `I`.
///
/// All binary operations require both operands to have the same capacity
/// (the universe size of the hypergraph they belong to); this is checked
/// with `debug_assert!` in the hot paths.
///
/// # Tail invariant
///
/// `blocks.len() == nbits.div_ceil(64)` and every bit at position
/// `>= nbits` of the last block is **zero**. Every constructor
/// establishes this and every mutating operation preserves it (asserted
/// in debug builds via [`Self::tail_invariant_ok`]). The
/// [`crate::lanes`] kernels rely on it: counting kernels popcount raw
/// blocks without re-masking, and equality/hashing compare raw blocks.
pub struct TypedBitSet<I> {
    blocks: Vec<u64>,
    nbits: usize,
    _tag: PhantomData<fn(I) -> I>,
}

impl<I> Default for TypedBitSet<I> {
    /// The empty set over the empty universe; sized on first `reset`.
    fn default() -> Self {
        TypedBitSet {
            blocks: Vec::new(),
            nbits: 0,
            _tag: PhantomData,
        }
    }
}

impl<I> Clone for TypedBitSet<I> {
    fn clone(&self) -> Self {
        TypedBitSet {
            blocks: self.blocks.clone(),
            nbits: self.nbits,
            _tag: PhantomData,
        }
    }

    /// Reuses `self`'s block storage when capacities allow — the solvers'
    /// scratch buffers rely on this to stay allocation-free in the steady
    /// state.
    fn clone_from(&mut self, other: &Self) {
        self.blocks.clone_from(&other.blocks);
        self.nbits = other.nbits;
    }
}

/// Set of vertices of a hypergraph.
pub type VertexSet = TypedBitSet<Vertex>;
/// Set of edges of a hypergraph.
pub type EdgeSet = TypedBitSet<Edge>;

impl<I: Ix> TypedBitSet<I> {
    /// Creates an empty set over a universe of `nbits` elements.
    pub fn empty(nbits: usize) -> Self {
        TypedBitSet {
            blocks: vec![0; nbits.div_ceil(BITS)],
            nbits,
            _tag: PhantomData,
        }
    }

    /// Creates the full set over a universe of `nbits` elements.
    pub fn full(nbits: usize) -> Self {
        let mut s = Self::empty(nbits);
        for b in &mut s.blocks {
            *b = !0;
        }
        s.mask_tail();
        s
    }

    /// Creates a set from an iterator of indices.
    pub fn from_iter<T: IntoIterator<Item = I>>(nbits: usize, it: T) -> Self {
        let mut s = Self::empty(nbits);
        for i in it {
            s.insert(i);
        }
        s
    }

    #[inline]
    fn mask_tail(&mut self) {
        let used = self.nbits % BITS;
        if used != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// Checks the tail invariant: the block count matches the universe
    /// size and no bit past `nbits` is set. Constant-time (only the last
    /// block carries tail bits). Mutating operations `debug_assert!`
    /// this; the lane kernels and raw-block consumers rely on it.
    pub fn tail_invariant_ok(&self) -> bool {
        if self.blocks.len() != self.nbits.div_ceil(BITS) {
            return false;
        }
        let used = self.nbits % BITS;
        if used == 0 {
            return true;
        }
        match self.blocks.last() {
            Some(&last) => last & !((1u64 << used) - 1) == 0,
            None => true,
        }
    }

    #[inline]
    fn debug_assert_tail(&self) {
        debug_assert!(
            self.tail_invariant_ok(),
            "bitset tail invariant violated: bits past len {} are set",
            self.nbits
        );
    }

    /// The raw 64-bit blocks backing the set, low indices first. The
    /// tail invariant guarantees bits past [`Self::capacity`] are zero.
    #[inline]
    pub fn as_blocks(&self) -> &[u64] {
        &self.blocks
    }

    #[inline]
    pub(crate) fn as_blocks_mut(&mut self) -> &mut [u64] {
        &mut self.blocks
    }

    /// The universe size this set was created with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Inserts `i`; returns `true` if it was not present.
    #[inline]
    pub fn insert(&mut self, i: I) -> bool {
        let idx = i.index();
        debug_assert!(idx < self.nbits, "index {idx} out of range {}", self.nbits);
        let (w, b) = (idx / BITS, idx % BITS);
        let had = self.blocks[w] & (1 << b) != 0;
        self.blocks[w] |= 1 << b;
        self.debug_assert_tail();
        !had
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: I) -> bool {
        let idx = i.index();
        debug_assert!(idx < self.nbits);
        let (w, b) = (idx / BITS, idx % BITS);
        let had = self.blocks[w] & (1 << b) != 0;
        self.blocks[w] &= !(1 << b);
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: I) -> bool {
        let idx = i.index();
        if idx >= self.nbits {
            return false;
        }
        self.blocks[idx / BITS] & (1 << (idx % BITS)) != 0
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        lanes::count_ones(&self.blocks)
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements.
    #[inline]
    pub fn clear(&mut self) {
        for b in &mut self.blocks {
            *b = 0;
        }
    }

    /// Makes `self` an empty set over a universe of `nbits` elements,
    /// reusing the existing block storage when it is large enough.
    ///
    /// Returns `true` if the buffer had to grow (an allocation happened) —
    /// scratch-workspace users track this to verify steady-state reuse.
    pub fn reset(&mut self, nbits: usize) -> bool {
        let words = nbits.div_ceil(BITS);
        let grew = words > self.blocks.capacity();
        self.blocks.clear();
        self.blocks.resize(words, 0);
        self.nbits = nbits;
        grew
    }

    /// Makes `self` a copy of `other`, reusing the existing block storage
    /// when possible (the in-place counterpart of `clone`).
    ///
    /// Returns `true` if the block buffer had to grow (an allocation
    /// happened) — scratch-workspace users thread this into their regrowth
    /// meters, exactly like [`Self::reset`].
    #[inline]
    pub fn copy_from(&mut self, other: &Self) -> bool {
        let grew = other.blocks.len() > self.blocks.capacity();
        self.clone_from(other);
        grew
    }

    /// In-place union: `self ∪= other`.
    #[inline]
    pub fn union_with(&mut self, other: &Self) {
        debug_assert_eq!(self.nbits, other.nbits);
        lanes::or_assign(&mut self.blocks, &other.blocks);
        self.debug_assert_tail();
    }

    /// In-place intersection: `self ∩= other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &Self) {
        debug_assert_eq!(self.nbits, other.nbits);
        lanes::and_assign(&mut self.blocks, &other.blocks);
        self.debug_assert_tail();
    }

    /// In-place difference: `self \= other`.
    #[inline]
    pub fn difference_with(&mut self, other: &Self) {
        debug_assert_eq!(self.nbits, other.nbits);
        lanes::andnot_assign(&mut self.blocks, &other.blocks);
        self.debug_assert_tail();
    }

    /// Unions `src` into both `a` and `b` in one pass over `src`'s
    /// blocks (the component BFS absorbs every member row into the
    /// component's vertex set *and* the next frontier — fused, `src` is
    /// loaded once).
    #[inline]
    pub fn union_into_both(a: &mut Self, b: &mut Self, src: &Self) {
        debug_assert_eq!(a.nbits, src.nbits);
        debug_assert_eq!(b.nbits, src.nbits);
        lanes::or_assign2(&mut a.blocks, &mut b.blocks, &src.blocks);
        a.debug_assert_tail();
        b.debug_assert_tail();
    }

    /// Returns `self ∪ other` as a new set.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a new set.
    #[inline]
    pub fn intersection(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other` as a new set.
    #[inline]
    pub fn difference(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Subset test: `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(&self, other: &Self) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        !lanes::any_andnot(&self.blocks, &other.blocks)
    }

    /// Disjointness test: `self ∩ other = ∅`.
    #[inline]
    pub fn is_disjoint_from(&self, other: &Self) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        !lanes::any_and(&self.blocks, &other.blocks)
    }

    /// Non-empty intersection test.
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        !self.is_disjoint_from(other)
    }

    /// `(self ∩ other).len()` without allocating.
    #[inline]
    pub fn intersection_len(&self, other: &Self) -> usize {
        debug_assert_eq!(self.nbits, other.nbits);
        lanes::and_count(&self.blocks, &other.blocks)
    }

    /// `|(self ∩ b) ∪ c|` in one pass, nothing materialised — the λp
    /// pre-filter's exclusion count (members touching the inadmissible
    /// set, unioned with the λc-level baseline), previously an
    /// `intersect_with` + `union_with` + `len` chain that destroyed the
    /// mask buffer.
    #[inline]
    pub fn count_intersect_union(&self, b: &Self, c: &Self) -> usize {
        debug_assert_eq!(self.nbits, b.nbits);
        debug_assert_eq!(self.nbits, c.nbits);
        lanes::count_and_or(&self.blocks, &b.blocks, &c.blocks)
    }

    /// `self = a ∩ b` in one fused pass, resizing to `a`'s universe.
    /// Returns `true` if the block buffer had to grow (see
    /// [`Self::reset`]).
    #[inline]
    pub fn assign_and(&mut self, a: &Self, b: &Self) -> bool {
        debug_assert_eq!(a.nbits, b.nbits);
        let grew = self.reset_uninit(a.nbits);
        lanes::assign_and(&mut self.blocks, &a.blocks, &b.blocks);
        self.debug_assert_tail();
        grew
    }

    /// `self = (a \ b) ∩ c` in one fused pass, resizing to `a`'s
    /// universe. Returns the grow flag.
    #[inline]
    pub fn assign_diff_and(&mut self, a: &Self, b: &Self, c: &Self) -> bool {
        debug_assert_eq!(a.nbits, b.nbits);
        debug_assert_eq!(a.nbits, c.nbits);
        let grew = self.reset_uninit(a.nbits);
        lanes::assign_diff_and(&mut self.blocks, &a.blocks, &b.blocks, &c.blocks);
        self.debug_assert_tail();
        grew
    }

    /// `self = a ∩ b ∩ c` in one fused pass, resizing to `a`'s universe.
    /// Returns the grow flag.
    #[inline]
    pub fn assign_and3(&mut self, a: &Self, b: &Self, c: &Self) -> bool {
        debug_assert_eq!(a.nbits, b.nbits);
        debug_assert_eq!(a.nbits, c.nbits);
        let grew = self.reset_uninit(a.nbits);
        lanes::assign_and3(&mut self.blocks, &a.blocks, &b.blocks, &c.blocks);
        self.debug_assert_tail();
        grew
    }

    /// `self = ((up \ uc) ∩ vs) ∪ (cuc \ up)` in one fused pass — the λp
    /// pre-filter's inadmissible-vertex set assembled per candidate pair.
    /// Returns `(grew, nonempty)`.
    #[inline]
    pub fn assign_lp_bad(&mut self, up: &Self, uc: &Self, vs: &Self, cuc: &Self) -> (bool, bool) {
        debug_assert_eq!(up.nbits, uc.nbits);
        debug_assert_eq!(up.nbits, vs.nbits);
        debug_assert_eq!(up.nbits, cuc.nbits);
        let grew = self.reset_uninit(up.nbits);
        let nonempty = lanes::lp_bad_assign(
            &mut self.blocks,
            &up.blocks,
            &uc.blocks,
            &vs.blocks,
            &cuc.blocks,
        );
        self.debug_assert_tail();
        (grew, nonempty)
    }

    /// Sizes `self` for `nbits` without zeroing: every block is about to
    /// be overwritten by a fused assigning kernel. Same grow metering as
    /// [`Self::reset`].
    #[inline]
    fn reset_uninit(&mut self, nbits: usize) -> bool {
        let words = nbits.div_ceil(BITS);
        let grew = words > self.blocks.capacity();
        self.blocks.resize(words, 0);
        self.nbits = nbits;
        grew
    }

    /// `(self \ other).is_empty()` without allocating — i.e. subset test.
    /// Kept as an alias mirroring the paper's `(f1 ∩ f2) \ U ≠ ∅` tests.
    #[inline]
    pub fn difference_is_empty(&self, other: &Self) -> bool {
        self.is_subset_of(other)
    }

    /// True iff `(self ∩ other) \ exclude ≠ ∅`. This is the `[U]`-adjacency
    /// test from Definition 3.2 of the paper, fully word-parallel.
    #[inline]
    pub fn intersects_outside(&self, other: &Self, exclude: &Self) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        debug_assert_eq!(self.nbits, exclude.nbits);
        lanes::any_and_andnot(&self.blocks, &other.blocks, &exclude.blocks)
    }

    /// Number of 64-bit blocks backing the set.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The `w`-th 64-bit block (word-level access for fused hot loops
    /// that intersect two sets while mutating one of them).
    #[inline]
    pub fn block(&self, w: usize) -> u64 {
        self.blocks[w]
    }

    /// Smallest element, if any.
    #[inline]
    pub fn first(&self) -> Option<I> {
        for (w, &b) in self.blocks.iter().enumerate() {
            if b != 0 {
                return Some(I::from_index(w * BITS + b.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Removes and returns the smallest element, if any.
    #[inline]
    pub fn pop_first(&mut self) -> Option<I> {
        let first = self.first()?;
        self.remove(first);
        Some(first)
    }

    /// Iterates the elements in increasing index order.
    pub fn iter(&self) -> Iter<'_, I> {
        Iter {
            blocks: &self.blocks,
            word: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
            _tag: PhantomData,
        }
    }

    /// Collects the elements into a `Vec` in increasing order.
    pub fn to_vec(&self) -> Vec<I> {
        self.iter().collect()
    }
}

/// Iterator over the elements of a [`TypedBitSet`].
pub struct Iter<'a, I> {
    blocks: &'a [u64],
    word: usize,
    bits: u64,
    _tag: PhantomData<fn(I) -> I>,
}

impl<I: Ix> Iterator for Iter<'_, I> {
    type Item = I;

    #[inline]
    fn next(&mut self) -> Option<I> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(I::from_index(self.word * BITS + b));
            }
            self.word += 1;
            if self.word >= self.blocks.len() {
                return None;
            }
            self.bits = self.blocks[self.word];
        }
    }
}

impl<'a, I: Ix> IntoIterator for &'a TypedBitSet<I> {
    type Item = I;
    type IntoIter = Iter<'a, I>;
    fn into_iter(self) -> Iter<'a, I> {
        self.iter()
    }
}

impl<I: Ix> PartialEq for TypedBitSet<I> {
    fn eq(&self, other: &Self) -> bool {
        self.nbits == other.nbits && self.blocks == other.blocks
    }
}

impl<I: Ix> Eq for TypedBitSet<I> {}

impl<I: Ix> Hash for TypedBitSet<I> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.blocks.hash(state);
    }
}

impl<I: Ix> PartialOrd for TypedBitSet<I> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<I: Ix> Ord for TypedBitSet<I> {
    /// Lexicographic order on block content; used only to canonicalise
    /// cache keys, not semantically meaningful.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.blocks.cmp(&other.blocks)
    }
}

impl<I: Ix + fmt::Debug> fmt::Debug for TypedBitSet<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(n: usize, elems: &[u32]) -> VertexSet {
        VertexSet::from_iter(n, elems.iter().map(|&v| Vertex(v)))
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = VertexSet::empty(130);
        assert!(s.insert(Vertex(0)));
        assert!(s.insert(Vertex(64)));
        assert!(s.insert(Vertex(129)));
        assert!(!s.insert(Vertex(129)));
        assert!(s.contains(Vertex(64)));
        assert!(!s.contains(Vertex(63)));
        assert_eq!(s.len(), 3);
        assert!(s.remove(Vertex(64)));
        assert!(!s.remove(Vertex(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn full_masks_tail() {
        let s = VertexSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(Vertex(69)));
        assert!(!s.contains(Vertex(70)));
    }

    #[test]
    fn set_algebra() {
        let a = vs(100, &[1, 2, 3, 64, 99]);
        let b = vs(100, &[2, 64, 65]);
        assert_eq!(a.intersection(&b), vs(100, &[2, 64]));
        assert_eq!(a.union(&b), vs(100, &[1, 2, 3, 64, 65, 99]));
        assert_eq!(a.difference(&b), vs(100, &[1, 3, 99]));
        assert_eq!(a.intersection_len(&b), 2);
        assert!(vs(100, &[2, 64]).is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(a.intersects(&b));
        assert!(vs(100, &[7]).is_disjoint_from(&a));
    }

    #[test]
    fn intersects_outside_matches_definition() {
        // (a ∩ b) \ u ≠ ∅ ?
        let a = vs(80, &[1, 5, 70]);
        let b = vs(80, &[5, 70]);
        let u = vs(80, &[5]);
        assert!(a.intersects_outside(&b, &u)); // 70 survives
        let u2 = vs(80, &[5, 70]);
        assert!(!a.intersects_outside(&b, &u2));
    }

    #[test]
    fn iter_and_first() {
        let s = vs(200, &[3, 64, 128, 199]);
        let v: Vec<u32> = s.iter().map(|x| x.0).collect();
        assert_eq!(v, vec![3, 64, 128, 199]);
        assert_eq!(s.first(), Some(Vertex(3)));
        let mut s2 = s.clone();
        assert_eq!(s2.pop_first(), Some(Vertex(3)));
        assert_eq!(s2.first(), Some(Vertex(64)));
    }

    #[test]
    fn empty_set_behaviour() {
        let s = VertexSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        assert_eq!(s.iter().count(), 0);
    }

    /// Regression for the tail-invariant audit: every mutating op must
    /// keep bits past `len` cleared, at ragged universe sizes straddling
    /// word and lane-chunk boundaries. The lane kernels (raw-block
    /// popcounts, equality on raw blocks) rely on this.
    #[test]
    fn mutating_ops_preserve_tail_invariant() {
        for n in [1usize, 63, 64, 65, 130, 255, 256, 257] {
            let universe: Vec<u32> = (0..n as u32).collect();
            let evens: Vec<u32> = universe.iter().copied().filter(|v| v % 2 == 0).collect();
            let a = vs(n, &evens);
            let b = VertexSet::full(n);
            assert!(a.tail_invariant_ok());
            assert!(b.tail_invariant_ok());

            let mut s = a.clone();
            s.union_with(&b);
            assert!(s.tail_invariant_ok());
            assert_eq!(s.len(), n, "full ∪ evens must be the whole universe");
            s.difference_with(&a);
            assert!(s.tail_invariant_ok());
            s.intersect_with(&b);
            assert!(s.tail_invariant_ok());

            let mut s = VertexSet::default();
            s.assign_and(&a, &b);
            assert!(s.tail_invariant_ok());
            assert_eq!(s, a);
            s.assign_diff_and(&b, &a, &b);
            assert!(s.tail_invariant_ok());
            assert_eq!(s.len(), n - evens.len());
            s.assign_and3(&a, &b, &b);
            assert!(s.tail_invariant_ok());
            let (_, nonempty) = s.assign_lp_bad(&b, &a, &b, &a);
            assert!(s.tail_invariant_ok());
            // ((full \ evens) ∩ full) ∪ (evens \ full) = odds.
            assert_eq!(nonempty, n > 1);
            assert_eq!(s.len(), n - evens.len());

            let mut t = a.clone();
            let mut u = VertexSet::empty(n);
            VertexSet::union_into_both(&mut t, &mut u, &b);
            assert!(t.tail_invariant_ok() && u.tail_invariant_ok());
            assert_eq!(u, b);

            let mut r = b.clone();
            r.insert(Vertex(0));
            r.remove(Vertex(0));
            assert!(r.tail_invariant_ok());
            r.clear();
            assert!(r.tail_invariant_ok());
            r.reset(n + 3);
            assert!(r.tail_invariant_ok());
            r.copy_from(&a);
            assert!(r.tail_invariant_ok());
        }
    }

    /// The fused counting kernels must agree with the materialising
    /// set algebra — including at ragged tails where a stale tail bit
    /// would skew a raw-block popcount.
    #[test]
    fn fused_counts_match_materialised_sets() {
        for n in [5usize, 64, 70, 130, 300] {
            let a = vs(n, &[0, 1, 4, (n as u32) - 1]);
            let b = vs(n, &[1, 4, (n as u32) - 1]);
            let c = vs(n, &[0, 2 % n as u32]);
            assert_eq!(
                a.count_intersect_union(&b, &c),
                a.intersection(&b).union(&c).len()
            );
            assert_eq!(a.intersection_len(&b), a.intersection(&b).len());
            assert_eq!(
                a.intersects_outside(&b, &c),
                !a.intersection(&b).difference(&c).is_empty()
            );
        }
    }

    #[test]
    fn eq_and_hash_ignore_capacity_only_when_equal() {
        let a = vs(100, &[1, 2]);
        let b = vs(100, &[1, 2]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }
}
