//! Differential tests pinning every lane-chunked kernel bit-identical to
//! a naive scalar loop, at arbitrary block counts — including lengths
//! that are not a multiple of the 4-word lane chunk, so both the
//! `chunks_exact` body and the remainder loop are exercised — and at
//! arbitrary typed-set widths with ragged tails (non-multiples of 256
//! bits). The vectorized substrate is pure strength reduction: it must
//! never change a single bit of any result, flag, or count.

use hypergraph::{lanes, MaskMatrix, Vertex, VertexSet};
use proptest::prelude::*;

/// Same-length random block vectors; lengths straddle the LANES=4 chunk
/// boundary on purpose (0..=11 covers 0–2 full chunks plus every
/// remainder length).
fn blocks4() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>)> {
    (0usize..12).prop_flat_map(|len| {
        (
            prop::collection::vec(0u64..=u64::MAX, len),
            prop::collection::vec(0u64..=u64::MAX, len),
            prop::collection::vec(0u64..=u64::MAX, len),
            prop::collection::vec(0u64..=u64::MAX, len),
        )
    })
}

/// Typed sets of a shared ragged width: `n` avoids multiples of 256 by
/// construction often enough, and explicitly includes single-word and
/// sub-word tails via the 1..=530 range.
fn typed_sets() -> impl Strategy<Value = (usize, VertexSet, VertexSet, VertexSet, VertexSet)> {
    (1usize..=530).prop_flat_map(|n| {
        let set = move || {
            prop::collection::vec(0u32..n as u32, 0..64)
                .prop_map(move |v| VertexSet::from_iter(n, v.into_iter().map(Vertex)))
        };
        (Just(n), set(), set(), set(), set())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // ---- raw block kernels vs per-word scalar loops ----

    #[test]
    fn raw_kernels_match_scalar_loops((a, b, c, d) in blocks4()) {
        let n = a.len();

        let mut dst = a.clone();
        lanes::or_assign(&mut dst, &b);
        prop_assert_eq!(&dst, &(0..n).map(|i| a[i] | b[i]).collect::<Vec<_>>());

        let mut dst = a.clone();
        lanes::and_assign(&mut dst, &b);
        prop_assert_eq!(&dst, &(0..n).map(|i| a[i] & b[i]).collect::<Vec<_>>());

        let mut dst = a.clone();
        lanes::andnot_assign(&mut dst, &b);
        prop_assert_eq!(&dst, &(0..n).map(|i| a[i] & !b[i]).collect::<Vec<_>>());

        let (mut d1, mut d2) = (a.clone(), b.clone());
        lanes::or_assign2(&mut d1, &mut d2, &c);
        prop_assert_eq!(&d1, &(0..n).map(|i| a[i] | c[i]).collect::<Vec<_>>());
        prop_assert_eq!(&d2, &(0..n).map(|i| b[i] | c[i]).collect::<Vec<_>>());

        let mut dst = d.clone();
        lanes::assign_and(&mut dst, &a, &b);
        prop_assert_eq!(&dst, &(0..n).map(|i| a[i] & b[i]).collect::<Vec<_>>());

        let mut dst = d.clone();
        lanes::assign_diff_and(&mut dst, &a, &b, &c);
        prop_assert_eq!(&dst, &(0..n).map(|i| (a[i] & !b[i]) & c[i]).collect::<Vec<_>>());

        let mut dst = d.clone();
        lanes::assign_and3(&mut dst, &a, &b, &c);
        prop_assert_eq!(&dst, &(0..n).map(|i| a[i] & b[i] & c[i]).collect::<Vec<_>>());
    }

    #[test]
    fn raw_counting_and_probe_kernels_match((a, b, c, _d) in blocks4()) {
        let n = a.len();

        let ones: u32 = a.iter().map(|w| w.count_ones()).sum();
        prop_assert_eq!(lanes::count_ones(&a), ones as usize);

        let and: u32 = (0..n).map(|i| (a[i] & b[i]).count_ones()).sum();
        prop_assert_eq!(lanes::and_count(&a, &b), and as usize);

        let cao: u32 = (0..n).map(|i| ((a[i] & b[i]) | c[i]).count_ones()).sum();
        prop_assert_eq!(lanes::count_and_or(&a, &b, &c), cao as usize);

        prop_assert_eq!(lanes::any_and(&a, &b), (0..n).any(|i| a[i] & b[i] != 0));
        prop_assert_eq!(lanes::any_andnot(&a, &b), (0..n).any(|i| a[i] & !b[i] != 0));
        prop_assert_eq!(
            lanes::any_and_andnot(&a, &b, &c),
            (0..n).any(|i| (a[i] & b[i]) & !c[i] != 0)
        );
    }

    #[test]
    fn raw_lp_bad_kernel_matches((up, uc, vs, cuc) in blocks4()) {
        let n = up.len();
        let mut dst = vec![0u64; n];
        let nonzero = lanes::lp_bad_assign(&mut dst, &up, &uc, &vs, &cuc);
        let want: Vec<u64> = (0..n)
            .map(|i| ((up[i] & !uc[i]) & vs[i]) | (cuc[i] & !up[i]))
            .collect();
        prop_assert_eq!(&dst, &want);
        prop_assert_eq!(nonzero, want.iter().any(|&w| w != 0));
    }

    // ---- typed fused methods vs chained public set algebra ----

    #[test]
    fn fused_typed_methods_match_chained_ops((n, a, b, c, d) in typed_sets()) {
        // |(a ∩ b) ∪ c|
        prop_assert_eq!(
            a.count_intersect_union(&b, &c),
            a.intersection(&b).union(&c).len()
        );

        let mut out = VertexSet::empty(n);
        out.assign_and(&a, &b);
        prop_assert_eq!(&out, &a.intersection(&b));
        prop_assert!(out.tail_invariant_ok());

        out.assign_diff_and(&a, &b, &c);
        prop_assert_eq!(&out, &a.difference(&b).intersection(&c));
        prop_assert!(out.tail_invariant_ok());

        out.assign_and3(&a, &b, &c);
        prop_assert_eq!(&out, &a.intersection(&b).intersection(&c));
        prop_assert!(out.tail_invariant_ok());

        // bad = ((up \ uc) ∩ vs) ∪ (cuc \ up), with (up, uc, vs, cuc) =
        // (a, b, c, d): the λp pre-filter's one-pass kernel.
        let (_, nonempty) = out.assign_lp_bad(&a, &b, &c, &d);
        let want = a.difference(&b).intersection(&c).union(&d.difference(&a));
        prop_assert_eq!(&out, &want);
        prop_assert_eq!(nonempty, !want.is_empty());
        prop_assert!(out.tail_invariant_ok());

        let (mut x, mut y) = (a.clone(), b.clone());
        VertexSet::union_into_both(&mut x, &mut y, &c);
        prop_assert_eq!(&x, &a.union(&c));
        prop_assert_eq!(&y, &b.union(&c));
        prop_assert!(x.tail_invariant_ok() && y.tail_invariant_ok());
    }

    // ---- SoA matrix rows vs the typed sets they mirror ----

    #[test]
    fn matrix_rows_agree_with_typed_sets((n, a, b, c, _d) in typed_sets()) {
        let mut m = MaskMatrix::<Vertex>::new();
        m.reset(2, n);
        m.set_row(0, &a);
        m.set_row(1, &b);

        prop_assert_eq!(m.row(0), a.as_blocks());
        prop_assert_eq!(m.row(1), b.as_blocks());

        let mut out = c.clone();
        m.or_row_into(0, &mut out);
        prop_assert_eq!(&out, &a.union(&c));
        prop_assert!(out.tail_invariant_ok());

        m.or_row_into(1, &mut out);
        prop_assert_eq!(&out, &a.union(&b).union(&c));
        prop_assert!(out.tail_invariant_ok());
    }
}
