//! Lane-chunked word kernels — the vectorised substrate under every
//! bitset operation in the workspace.
//!
//! All hot loops of the decomposition engines reduce to operations over
//! `&[u64]` block slices ([`crate::bitset::TypedBitSet`] storage, or the
//! hypergraph's edge/incidence rows in a [`crate::matrix::MaskMatrix`]).
//! This module implements them in
//! explicit-width chunks of [`LANES`] words: the chunked bodies are
//! shaped so LLVM autovectorises them to full-width SIMD on any target
//! that has it, while the remainder loops are the plain scalar fallback —
//! no `unsafe`, no target-feature dispatch, panic-free by construction
//! (every loop is `zip`-bounded; lengths are only `debug_assert`ed).
//!
//! Two kinds of kernels live here:
//!
//! * **Two-operand primitives** (`or_assign`, `and_assign`, …) backing
//!   the classic bitset algebra.
//! * **Fused multi-operand kernels** (`lp_bad_assign`, `count_and_or`,
//!   `assign_diff_and`, …) that evaluate a whole hot-path expression in
//!   one pass over the operands. The engines' inner loops previously
//!   chained two-operand calls — `copy_from` + `difference_with` +
//!   `intersect_with` + `union_with` is four full passes over the block
//!   arrays, each a load+store round trip — where one fused pass does
//!   `LANES`-wide loads of every operand and a single store. On
//!   word-sized sets the difference is noise; on HyperBench-scale
//!   instances whose sets span dozens of words it is the dominant cost
//!   of the λc/λp candidate loops (see `micro/bitset`'s wide group).
//!
//! # Tail invariant
//!
//! Every kernel *preserves* the bitset tail invariant (bits at positions
//! `>= nbits` of the last block are zero — see
//! [`crate::bitset::TypedBitSet`]): inspection of each expression shows
//! that a zero tail in every input operand produces a zero tail in the
//! output. Negated operands (`!b`) only ever appear conjoined with a
//! non-negated operand, so the all-ones tail of a complement never
//! reaches a destination. Counting kernels rely on this — they popcount
//! raw blocks without re-masking.

/// Words per lane chunk. Four `u64`s = 256 bits, matching the widest
/// integer vectors mainstream targets autovectorise to (AVX2); narrower
/// targets simply split a chunk across registers.
pub const LANES: usize = 4;

/// `dst |= src`.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (a, b) in d.by_ref().zip(s.by_ref()) {
        for i in 0..LANES {
            a[i] |= b[i];
        }
    }
    for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a |= b;
    }
}

/// `dst &= src`.
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (a, b) in d.by_ref().zip(s.by_ref()) {
        for i in 0..LANES {
            a[i] &= b[i];
        }
    }
    for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a &= b;
    }
}

/// `dst &= !src` (set difference).
#[inline]
pub fn andnot_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (a, b) in d.by_ref().zip(s.by_ref()) {
        for i in 0..LANES {
            a[i] &= !b[i];
        }
    }
    for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a &= !b;
    }
}

/// `dst1 |= src` and `dst2 |= src` in one pass: `src` is loaded once per
/// chunk and stored into both destinations. The component BFS unions
/// every absorbed member's vertex row into both the component's vertex
/// set and the next frontier — this kernel halves that loop's loads.
#[inline]
pub fn or_assign2(dst1: &mut [u64], dst2: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst1.len(), src.len());
    debug_assert_eq!(dst2.len(), src.len());
    let mut d1 = dst1.chunks_exact_mut(LANES);
    let mut d2 = dst2.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for ((a, b), c) in d1.by_ref().zip(d2.by_ref()).zip(s.by_ref()) {
        for i in 0..LANES {
            a[i] |= c[i];
            b[i] |= c[i];
        }
    }
    for ((a, b), c) in d1
        .into_remainder()
        .iter_mut()
        .zip(d2.into_remainder().iter_mut())
        .zip(s.remainder())
    {
        *a |= c;
        *b |= c;
    }
}

/// Number of set bits in `a`.
#[inline]
pub fn count_ones(a: &[u64]) -> usize {
    let mut chunks = a.chunks_exact(LANES);
    let mut n = 0usize;
    for c in chunks.by_ref() {
        let mut t = 0u32;
        for w in c {
            t += w.count_ones();
        }
        n += t as usize;
    }
    for w in chunks.remainder() {
        n += w.count_ones() as usize;
    }
    n
}

/// `|a ∩ b|` — popcount of the intersection, nothing materialised.
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut n = 0usize;
    for (x, y) in ac.by_ref().zip(bc.by_ref()) {
        let mut t = 0u32;
        for i in 0..LANES {
            t += (x[i] & y[i]).count_ones();
        }
        n += t as usize;
    }
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        n += (x & y).count_ones() as usize;
    }
    n
}

/// `|(a ∩ b) ∪ c|` in one pass — the λp pre-filter's exclusion counter
/// (`|(touch_bad ∩ E') ∪ touch_x|`), previously an `intersect_with` +
/// `union_with` + `len` chain mutating the mask buffer.
#[inline]
pub fn count_and_or(a: &[u64], b: &[u64], c: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut cc = c.chunks_exact(LANES);
    let mut n = 0usize;
    for ((x, y), z) in ac.by_ref().zip(bc.by_ref()).zip(cc.by_ref()) {
        let mut t = 0u32;
        for i in 0..LANES {
            t += ((x[i] & y[i]) | z[i]).count_ones();
        }
        n += t as usize;
    }
    for ((x, y), z) in ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(cc.remainder())
    {
        n += ((x & y) | z).count_ones() as usize;
    }
    n
}

/// Whether `a ∩ b ≠ ∅`.
///
/// Probe kernels stay word-at-a-time on purpose: the engine's hits
/// cluster in the low words (vertices are numbered from 0), so a
/// word-level early exit beats processing a whole lane chunk before the
/// first check — measured 2× on the `intersects_outside_4096` probe.
#[inline]
pub fn any_and(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Whether `a \ b ≠ ∅` (i.e. `a ⊄ b`). Word-level early exit — see
/// [`any_and`].
#[inline]
pub fn any_andnot(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(x, y)| x & !y != 0)
}

/// Whether `(a ∩ b) \ e ≠ ∅` — the `[U]`-adjacency test
/// (Definition 3.2) in one pass over three operands. Word-level early
/// exit — see [`any_and`].
#[inline]
pub fn any_and_andnot(a: &[u64], b: &[u64], e: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), e.len());
    a.iter().zip(b).zip(e).any(|((x, y), z)| x & y & !z != 0)
}

/// `dst = a ∩ b` — fused copy + intersection.
#[inline]
pub fn assign_and(dst: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for ((o, x), y) in d.by_ref().zip(ac.by_ref()).zip(bc.by_ref()) {
        for i in 0..LANES {
            o[i] = x[i] & y[i];
        }
    }
    for ((o, x), y) in d
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *o = x & y;
    }
}

/// `dst = (a \ b) ∩ c` — the λc pre-filter's connector-exclusion set
/// `X = (Conn \ ⋃λc) ∩ V(H')`, previously copy + difference + intersect.
#[inline]
pub fn assign_diff_and(dst: &mut [u64], a: &[u64], b: &[u64], c: &[u64]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    debug_assert_eq!(dst.len(), c.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut cc = c.chunks_exact(LANES);
    for (((o, x), y), z) in d
        .by_ref()
        .zip(ac.by_ref())
        .zip(bc.by_ref())
        .zip(cc.by_ref())
    {
        for i in 0..LANES {
            o[i] = (x[i] & !y[i]) & z[i];
        }
    }
    for (((o, x), y), z) in d
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
        .zip(cc.remainder())
    {
        *o = (x & !y) & z;
    }
}

/// `dst = a ∩ b ∩ c` — the λc pre-filter's covered-connector set
/// `Conn ∩ ⋃λc ∩ V(H')`.
#[inline]
pub fn assign_and3(dst: &mut [u64], a: &[u64], b: &[u64], c: &[u64]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    debug_assert_eq!(dst.len(), c.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut cc = c.chunks_exact(LANES);
    for (((o, x), y), z) in d
        .by_ref()
        .zip(ac.by_ref())
        .zip(bc.by_ref())
        .zip(cc.by_ref())
    {
        for i in 0..LANES {
            o[i] = x[i] & y[i] & z[i];
        }
    }
    for (((o, x), y), z) in d
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
        .zip(cc.remainder())
    {
        *o = x & y & z;
    }
}

/// The λp `bad`-set in one pass:
/// `dst = ((up \ uc) ∩ vs) ∪ (cuc \ up)`, returning whether `dst` is
/// non-empty. This is the inadmissible-vertex set
/// `bad = ((⋃λp \ ⋃λc) ∩ V(H')) ∪ ((Conn ∩ ⋃λc ∩ V(H')) \ ⋃λp)` of the
/// λp admissibility pre-filter — per candidate pair, previously four
/// chained two-operand passes plus an emptiness scan.
#[inline]
pub fn lp_bad_assign(dst: &mut [u64], up: &[u64], uc: &[u64], vs: &[u64], cuc: &[u64]) -> bool {
    debug_assert_eq!(dst.len(), up.len());
    debug_assert_eq!(dst.len(), uc.len());
    debug_assert_eq!(dst.len(), vs.len());
    debug_assert_eq!(dst.len(), cuc.len());
    let mut nonzero = 0u64;
    let mut d = dst.chunks_exact_mut(LANES);
    let mut upc = up.chunks_exact(LANES);
    let mut ucc = uc.chunks_exact(LANES);
    let mut vsc = vs.chunks_exact(LANES);
    let mut cc = cuc.chunks_exact(LANES);
    for ((((o, p), q), v), u) in d
        .by_ref()
        .zip(upc.by_ref())
        .zip(ucc.by_ref())
        .zip(vsc.by_ref())
        .zip(cc.by_ref())
    {
        for i in 0..LANES {
            let w = ((p[i] & !q[i]) & v[i]) | (u[i] & !p[i]);
            o[i] = w;
            nonzero |= w;
        }
    }
    for ((((o, p), q), v), u) in d
        .into_remainder()
        .iter_mut()
        .zip(upc.remainder())
        .zip(ucc.remainder())
        .zip(vsc.remainder())
        .zip(cc.remainder())
    {
        let w = ((p & !q) & v) | (u & !p);
        *o = w;
        nonzero |= w;
    }
    nonzero != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // Naive single-word reference loops the kernels are pinned against
    // (the proptest suite in `tests/lane_kernels.rs` does the same over
    // arbitrary widths; these unit tests cover the chunk/remainder seams
    // deterministically).
    fn words(n: usize, f: impl Fn(usize) -> u64) -> Vec<u64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn assign_kernels_match_naive_at_all_chunk_seams() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 32, 33] {
            let a = words(n, |i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let b = words(n, |i| (i as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ 7);
            let c = words(n, |i| !(i as u64) ^ 0x5555_5555_5555_5555);
            let e = words(n, |i| (i as u64) << 17 | (i as u64 >> 3));

            let mut dst = vec![0u64; n];
            assign_and(&mut dst, &a, &b);
            assert_eq!(dst, words(n, |i| a[i] & b[i]));

            assign_diff_and(&mut dst, &a, &b, &c);
            assert_eq!(dst, words(n, |i| (a[i] & !b[i]) & c[i]));

            assign_and3(&mut dst, &a, &b, &c);
            assert_eq!(dst, words(n, |i| a[i] & b[i] & c[i]));

            let nonempty = lp_bad_assign(&mut dst, &a, &b, &c, &e);
            let expect = words(n, |i| ((a[i] & !b[i]) & c[i]) | (e[i] & !a[i]));
            assert_eq!(dst, expect);
            assert_eq!(nonempty, expect.iter().any(|&w| w != 0));

            let mut x = a.clone();
            or_assign(&mut x, &b);
            assert_eq!(x, words(n, |i| a[i] | b[i]));
            let mut x = a.clone();
            and_assign(&mut x, &b);
            assert_eq!(x, words(n, |i| a[i] & b[i]));
            let mut x = a.clone();
            andnot_assign(&mut x, &b);
            assert_eq!(x, words(n, |i| a[i] & !b[i]));

            let mut d1 = a.clone();
            let mut d2 = b.clone();
            or_assign2(&mut d1, &mut d2, &c);
            assert_eq!(d1, words(n, |i| a[i] | c[i]));
            assert_eq!(d2, words(n, |i| b[i] | c[i]));
        }
    }

    #[test]
    fn counting_and_test_kernels_match_naive() {
        for n in [0usize, 1, 4, 5, 8, 13, 32, 37] {
            let a = words(n, |i| (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
            let b = words(n, |i| (i as u64).rotate_left(i as u32 % 63) ^ 3);
            let c = words(n, |i| (i as u64).wrapping_sub(0xdead_beef));

            let naive_count: usize = (0..n).map(|i| a[i].count_ones() as usize).sum();
            assert_eq!(count_ones(&a), naive_count);
            let naive_and: usize = (0..n).map(|i| (a[i] & b[i]).count_ones() as usize).sum();
            assert_eq!(and_count(&a, &b), naive_and);
            let naive_cao: usize = (0..n)
                .map(|i| ((a[i] & b[i]) | c[i]).count_ones() as usize)
                .sum();
            assert_eq!(count_and_or(&a, &b, &c), naive_cao);

            assert_eq!(any_and(&a, &b), (0..n).any(|i| a[i] & b[i] != 0));
            assert_eq!(any_andnot(&a, &b), (0..n).any(|i| a[i] & !b[i] != 0));
            assert_eq!(
                any_and_andnot(&a, &b, &c),
                (0..n).any(|i| a[i] & b[i] & !c[i] != 0)
            );
        }
    }
}
