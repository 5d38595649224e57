//! Enumeration of bounded-size edge subsets — the λ-label search space.
//!
//! Every solver in this workspace searches over subsets `λ ⊆ cands` with
//! `1 ≤ |λ| ≤ k`. The enumeration is provided in three flavours:
//!
//! * a zero-allocation callback driver ([`for_each_subset`]) used in the
//!   hot search loops, with early exit through [`ControlFlow`];
//! * a lead-partitioned variant ([`for_each_subset_with_lead`]) which
//!   enumerates only the subsets whose *smallest* member is `cands[lead]`.
//!   The lead index partitions the full space, which is exactly how the
//!   paper's implementation splits the separator search across cores
//!   (Appendix D.1);
//! * a connector-cover walk ([`for_each_cover_subset_in`]) which visits
//!   only the subsets whose union covers a connector `Conn`, pruning the
//!   rest by per-candidate cover masks — the λ-label search of
//!   det-k-decomp (Gottlob & Samer), where a label that misses part of
//!   `Conn` can never be a valid node.
//!
//! [`for_each_subset`] produces subsets in ascending-size, lexicographic
//! order so that cheap (small) separators are tried first; the engine's
//! λp walk uses that order. The engine's λc walk is *lead-major*: it
//! visits the leads `0, 1, …` in turn, each through
//! [`for_each_subset_with_lead_in`], so ascending size holds only within
//! a lead (every subset of lead 0, up to size `k`, comes before the
//! singleton of lead 1). Leads that race across a pool partition the same
//! space.

use std::ops::ControlFlow;

use crate::bitset::{Edge, VertexSet};
use crate::graph::Hypergraph;

/// Invokes `f` on every subset of `cands` with size in `1..=k`.
///
/// Returns `Some(t)` if `f` broke with `t`, `None` if the space was
/// exhausted. The slice passed to `f` is only valid for the duration of
/// the call.
pub fn for_each_subset<T>(
    cands: &[Edge],
    k: usize,
    f: impl FnMut(&[Edge]) -> ControlFlow<T>,
) -> Option<T> {
    let mut buf: Vec<Edge> = Vec::with_capacity(k);
    for_each_subset_in(cands, k, &mut buf, f)
}

/// Like [`for_each_subset`], drawing the enumeration buffer from the
/// caller so repeated enumerations don't allocate (the engine's scratch
/// workspace holds one buffer per recursion level).
pub fn for_each_subset_in<T>(
    cands: &[Edge],
    k: usize,
    buf: &mut Vec<Edge>,
    mut f: impl FnMut(&[Edge]) -> ControlFlow<T>,
) -> Option<T> {
    buf.clear();
    for r in 1..=k.min(cands.len()) {
        if let ControlFlow::Break(t) = combos(cands, 0, r, buf, &mut f) {
            return Some(t);
        }
    }
    None
}

/// Invokes `f` on every subset of `cands` whose smallest member is
/// `cands[lead]`, with total size in `1..=k`.
pub fn for_each_subset_with_lead<T>(
    cands: &[Edge],
    lead: usize,
    k: usize,
    f: impl FnMut(&[Edge]) -> ControlFlow<T>,
) -> Option<T> {
    let mut buf: Vec<Edge> = Vec::with_capacity(k);
    for_each_subset_with_lead_in(cands, lead, k, &mut buf, f)
}

/// Like [`for_each_subset_with_lead`] with a caller-owned buffer.
pub fn for_each_subset_with_lead_in<T>(
    cands: &[Edge],
    lead: usize,
    k: usize,
    buf: &mut Vec<Edge>,
    mut f: impl FnMut(&[Edge]) -> ControlFlow<T>,
) -> Option<T> {
    if k == 0 || lead >= cands.len() {
        return None;
    }
    buf.clear();
    buf.push(cands[lead]);
    let rest = &cands[lead + 1..];
    // Tail sizes 0..=k-1, ascending so small subsets come first.
    for r in 0..k.min(rest.len() + 1) {
        if let ControlFlow::Break(t) = combos(rest, 0, r, buf, &mut f) {
            return Some(t);
        }
    }
    None
}

fn combos<T>(
    cands: &[Edge],
    start: usize,
    remaining: usize,
    buf: &mut Vec<Edge>,
    f: &mut impl FnMut(&[Edge]) -> ControlFlow<T>,
) -> ControlFlow<T> {
    if remaining == 0 {
        return f(buf);
    }
    // Leave room for the remaining-1 picks after this one.
    let last = cands.len().saturating_sub(remaining - 1);
    for i in start..last {
        buf.push(cands[i]);
        let r = combos(cands, i + 1, remaining - 1, buf, f);
        buf.pop();
        r?;
    }
    ControlFlow::Continue(())
}

/// Reusable buffers of the connector-cover walk
/// ([`for_each_cover_subset_in`]).
///
/// The connector's vertices are numbered `0..|Conn|`; every mask below
/// spans `ceil(|Conn| / 64)` words over those positions. Buffers are
/// resized per walk and only grow, so a warm scratch walks without
/// allocating; [`CoverScratch::grow_events`] meters the growth.
#[derive(Debug, Default)]
pub struct CoverScratch {
    /// Words per mask row.
    words: usize,
    /// Row `i`: the connector positions `cands[i]` covers.
    cov: Vec<u64>,
    /// Row `i`: OR of `cov` rows `i..`; row `cands.len()` is empty.
    suf: Vec<u64>,
    /// All `|Conn|` positions.
    full: Vec<u64>,
    /// Row `d`: OR of the `cov` rows of the first `d` picks.
    prefix: Vec<u64>,
    /// Per vertex word of `conn`: the connector vertices in earlier words.
    base: Vec<usize>,
    /// The current subset.
    buf: Vec<Edge>,
    /// Buffer growth events (allocations) so far.
    pub grow_events: u64,
}

/// Resizes `v` to `len` zeroed words, counting a growth event in `grow`.
fn zeroed(v: &mut Vec<u64>, len: usize, grow: &mut u64) {
    *grow += (v.capacity() < len) as u64;
    v.clear();
    v.resize(len, 0);
}

impl CoverScratch {
    /// Fills the cover masks and suffix ORs of `cands` against `conn`.
    fn prepare(&mut self, hg: &Hypergraph, cands: &[Edge], conn: &VertexSet, k: usize) {
        let n = cands.len();
        let conn_len = conn.len();
        let words = conn_len.div_ceil(64);
        self.words = words;
        let grow = &mut self.grow_events;
        zeroed(&mut self.cov, n * words, grow);
        zeroed(&mut self.suf, (n + 1) * words, grow);
        zeroed(&mut self.full, words, grow);
        zeroed(&mut self.prefix, (k.min(n) + 1) * words, grow);
        let buf_cap = self.buf.capacity();
        self.buf.clear();
        self.buf.reserve(k.min(n));
        *grow += (self.buf.capacity() > buf_cap) as u64;
        if words == 0 {
            return;
        }
        for (w, full) in self.full.iter_mut().enumerate() {
            let bits = conn_len - 64 * w;
            *full = if bits >= 64 { !0 } else { (1 << bits) - 1 };
        }
        // A connector vertex's position is its rank within `conn`: the
        // count of connector vertices in earlier words (`base`) plus those
        // below it in its own word.
        let conn_blocks = conn.as_blocks();
        let base_cap = self.base.capacity();
        self.base.clear();
        self.base.extend(conn_blocks.iter().scan(0, |rank, &c| {
            let r = *rank;
            *rank += c.count_ones() as usize;
            Some(r)
        }));
        *grow += (self.base.capacity() > base_cap) as u64;
        for (i, &e) in cands.iter().enumerate() {
            let row = &mut self.cov[i * words..(i + 1) * words];
            let blocks = conn_blocks.iter().zip(hg.edge(e).as_blocks());
            for ((&c, &b), &base) in blocks.zip(&self.base) {
                let mut hit = c & b;
                while hit != 0 {
                    let p = base + (c & ((1u64 << hit.trailing_zeros()) - 1)).count_ones() as usize;
                    row[p / 64] |= 1 << (p % 64);
                    hit &= hit - 1;
                }
            }
        }
        for i in (0..n).rev() {
            for w in 0..words {
                self.suf[i * words + w] = self.cov[i * words + w] | self.suf[(i + 1) * words + w];
            }
        }
    }
}

/// One step of a connector-cover walk (see [`for_each_cover_subset_in`]).
#[derive(Debug)]
pub enum CoverStep<'a> {
    /// The walk entered a new top-level lead (first pick). Sent before any
    /// subset under that lead is visited, so a caller can poll deadlines
    /// even while the walk prunes for a long time between visits.
    Lead,
    /// A subset that covers the connector (valid for the duration of the
    /// call).
    Visit(&'a [Edge]),
}

/// Invokes `f` on exactly the subsets [`for_each_subset_in`] produces that
/// cover `conn` (`conn ⊆ ⋃λ`), in the same order.
///
/// The walk is `for_each_subset_in` with two prunes over per-candidate
/// cover masks: a last pick is visited only when it completes the
/// prefix's cover of `conn`, and an inner pick is descended into only when
/// the candidates from it onward can still complete it. Since those
/// suffix ORs only shrink as the pick moves right, the first pick that
/// fails ends its loop. With `conn = ∅` every subset covers and the walk
/// is exactly `for_each_subset_in`. `Break` from any step ends the walk.
pub fn for_each_cover_subset_in<T>(
    hg: &Hypergraph,
    cands: &[Edge],
    conn: &VertexSet,
    k: usize,
    scratch: &mut CoverScratch,
    mut f: impl FnMut(CoverStep<'_>) -> ControlFlow<T>,
) -> Option<T> {
    scratch.prepare(hg, cands, conn, k);
    let CoverScratch {
        words,
        cov,
        suf,
        full,
        prefix,
        buf,
        ..
    } = scratch;
    let masks = CoverMasks {
        cands,
        words: *words,
        cov,
        suf,
        full,
    };
    let (root, stack) = prefix.split_at_mut(masks.words);
    for r in 1..=k.min(cands.len()) {
        if let ControlFlow::Break(t) = masks.combos(0, r, root, stack, buf, &mut f) {
            return Some(t);
        }
    }
    None
}

/// The read-only half of a [`CoverScratch`] during one walk.
struct CoverMasks<'a> {
    cands: &'a [Edge],
    words: usize,
    cov: &'a [u64],
    suf: &'a [u64],
    full: &'a [u64],
}

impl CoverMasks<'_> {
    #[inline]
    fn row<'m>(&self, rows: &'m [u64], i: usize) -> &'m [u64] {
        &rows[i * self.words..(i + 1) * self.words]
    }

    /// Whether `a | b` is the full mask.
    #[inline]
    fn completes(&self, a: &[u64], b: &[u64]) -> bool {
        (0..self.words).all(|w| a[w] | b[w] == self.full[w])
    }

    /// Picks `remaining` more candidates from `start..` on top of the
    /// prefix cover `pre`; `stack` holds the rows of deeper prefixes.
    fn combos<T>(
        &self,
        start: usize,
        remaining: usize,
        pre: &[u64],
        stack: &mut [u64],
        buf: &mut Vec<Edge>,
        f: &mut impl FnMut(CoverStep<'_>) -> ControlFlow<T>,
    ) -> ControlFlow<T> {
        let last = self.cands.len().saturating_sub(remaining - 1);
        for i in start..last {
            // `cov[i] | suf[i + 1] = suf[i]`: if even every candidate from
            // here on cannot complete the cover, no later pick can either.
            if !self.completes(pre, self.row(self.suf, i)) {
                break;
            }
            if buf.is_empty() {
                f(CoverStep::Lead)?;
            }
            let cov = self.row(self.cov, i);
            if remaining == 1 {
                if self.completes(pre, cov) {
                    buf.push(self.cands[i]);
                    let r = f(CoverStep::Visit(buf));
                    buf.pop();
                    r?;
                }
                continue;
            }
            let (next, deeper) = stack.split_at_mut(self.words);
            for w in 0..self.words {
                next[w] = pre[w] | cov[w];
            }
            buf.push(self.cands[i]);
            let r = self.combos(i + 1, remaining - 1, next, deeper, buf, f);
            buf.pop();
            r?;
        }
        ControlFlow::Continue(())
    }
}

/// Number of subsets with size in `1..=k` — the search-space volume.
/// Saturates at `u128::MAX`.
pub fn subset_space_size(n: usize, k: usize) -> u128 {
    let mut total: u128 = 0;
    let mut c: u128 = 1; // C(n, 0)
    for r in 1..=k.min(n) {
        // C(n, r) = C(n, r-1) * (n - r + 1) / r
        c = c
            .saturating_mul((n - r + 1) as u128)
            .checked_div(r as u128)
            .unwrap_or(u128::MAX);
        total = total.saturating_add(c);
    }
    total
}

/// Collects all subsets with size in `1..=k` (testing/diagnostics only).
pub fn all_subsets(cands: &[Edge], k: usize) -> Vec<Vec<Edge>> {
    let mut out = Vec::new();
    for_each_subset::<()>(cands, k, |s| {
        out.push(s.to_vec());
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vertex;

    fn edges(n: u32) -> Vec<Edge> {
        (0..n).map(Edge).collect()
    }

    #[test]
    fn enumerates_all_bounded_subsets() {
        let all = all_subsets(&edges(4), 2);
        // C(4,1) + C(4,2) = 4 + 6
        assert_eq!(all.len(), 10);
        assert_eq!(subset_space_size(4, 2), 10);
        // Ascending-size order: singletons first.
        assert!(all[..4].iter().all(|s| s.len() == 1));
        assert!(all[4..].iter().all(|s| s.len() == 2));
    }

    #[test]
    fn k_larger_than_n_is_fine() {
        let all = all_subsets(&edges(3), 10);
        assert_eq!(all.len(), 7); // 2^3 - 1
        assert_eq!(subset_space_size(3, 10), 7);
    }

    #[test]
    fn lead_partitions_the_space() {
        let cands = edges(5);
        let k = 3;
        let mut by_lead = Vec::new();
        for lead in 0..cands.len() {
            for_each_subset_with_lead::<()>(&cands, lead, k, |s| {
                by_lead.push(s.to_vec());
                ControlFlow::Continue(())
            });
        }
        let mut whole = all_subsets(&cands, k);
        by_lead.sort();
        whole.sort();
        assert_eq!(by_lead, whole);
    }

    #[test]
    fn early_exit_stops_enumeration() {
        let mut seen = 0;
        let res = for_each_subset(&edges(10), 3, |s| {
            seen += 1;
            if s.len() == 2 {
                ControlFlow::Break(s.to_vec())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(res.unwrap().len(), 2);
        assert_eq!(seen, 11); // 10 singletons + the first pair
    }

    #[test]
    fn empty_candidates_yield_nothing() {
        assert!(all_subsets(&[], 3).is_empty());
        assert_eq!(subset_space_size(0, 3), 0);
        assert!(for_each_subset_with_lead::<()>(&[], 0, 3, |_| ControlFlow::Break(())).is_none());
    }

    /// A hypergraph over vertices `0..n` (ids equal to the numbers) with
    /// the given edges.
    fn graph(n: u32, edge_lists: &[Vec<u32>]) -> Hypergraph {
        let mut b = crate::HypergraphBuilder::new();
        for v in 0..n {
            b.intern_vertex(&format!("v{v}"));
        }
        for (i, list) in edge_lists.iter().enumerate() {
            let names: Vec<String> = list.iter().map(|v| format!("v{v}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            b.add_edge(&format!("e{i}"), &refs);
        }
        b.build()
    }

    fn cover_visits(
        hg: &Hypergraph,
        cands: &[Edge],
        conn: &VertexSet,
        k: usize,
        scratch: &mut CoverScratch,
    ) -> Vec<Vec<Edge>> {
        let mut out = Vec::new();
        for_each_cover_subset_in::<()>(hg, cands, conn, k, scratch, |step| {
            if let CoverStep::Visit(s) = step {
                out.push(s.to_vec());
            }
            ControlFlow::Continue(())
        });
        out
    }

    fn filtered_visits(
        hg: &Hypergraph,
        cands: &[Edge],
        conn: &VertexSet,
        k: usize,
    ) -> Vec<Vec<Edge>> {
        all_subsets(cands, k)
            .into_iter()
            .filter(|s| conn.is_subset_of(&hg.union_of_slice(s)))
            .collect()
    }

    const COVER_N: u32 = 140;
    const CONN_SIZES: [usize; 6] = [0, 1, 63, 64, 65, 130];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn cover_walk_is_the_filtered_plain_walk(
            edge_lists in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0..COVER_N, 0..90),
                0..9,
            ),
            k in 1usize..11,
            size_at in 0usize..CONN_SIZES.len(),
            rotate in 0usize..COVER_N as usize,
            poison in 0u32..4,
        ) {
            let hg = graph(COVER_N, &edge_lists);
            let cands: Vec<Edge> = hg.edge_ids().collect();
            let union = hg.union_of_slice(&cands);
            // Connector drawn from the candidates' union first (rotated),
            // then from outside it: large sizes span several words and may
            // be uncoverable.
            let mut order: Vec<Vertex> = union.iter().collect();
            let turn = rotate % order.len().max(1);
            order.rotate_left(turn);
            order.extend(hg.vertex_ids().filter(|v| !union.contains(*v)));
            let size = CONN_SIZES[size_at];
            let mut conn = VertexSet::from_iter(hg.num_vertices(), order.iter().copied().take(size));
            if poison == 0 {
                // A vertex no candidate covers: nothing may be visited.
                if let Some(v) = hg.vertex_ids().find(|v| !union.contains(*v)) {
                    conn.insert(v);
                    let mut scratch = CoverScratch::default();
                    proptest::prop_assert!(cover_visits(&hg, &cands, &conn, k, &mut scratch).is_empty());
                }
            }

            let mut scratch = CoverScratch::default();
            let walked = cover_visits(&hg, &cands, &conn, k, &mut scratch);
            proptest::prop_assert_eq!(&walked, &filtered_visits(&hg, &cands, &conn, k));
            // The same scratch, reused with an empty connector, is the
            // plain walk.
            let empty = VertexSet::empty(hg.num_vertices());
            let plain = cover_visits(&hg, &cands, &empty, k, &mut scratch);
            proptest::prop_assert_eq!(plain, all_subsets(&cands, k));
        }
    }

    #[test]
    fn cover_walk_break_stops_the_walk() {
        // Star around vertex 0: every edge covers the connector {0}.
        let lists: Vec<Vec<u32>> = (1..=8).map(|v| vec![0, v]).collect();
        let hg = graph(9, &lists);
        let cands: Vec<Edge> = hg.edge_ids().collect();
        let conn = VertexSet::from_iter(9, [Vertex(0)]);
        let mut scratch = CoverScratch::default();
        let mut seen = 0usize;
        let hit = for_each_cover_subset_in(&hg, &cands, &conn, 3, &mut scratch, |step| {
            if let CoverStep::Visit(s) = step {
                seen += 1;
                if s.len() == 2 {
                    return ControlFlow::Break(s.to_vec());
                }
            }
            ControlFlow::Continue(())
        });
        assert_eq!(hit, Some(vec![cands[0], cands[1]]));
        assert_eq!(seen, 9); // 8 singletons + the first pair
    }

    #[test]
    fn cover_walk_announces_every_lead_before_its_subsets() {
        // Path 0-1-2-3-4 with connector {0, 4}: only pairs holding both
        // end edges cover it, so most of the walk is pruned.
        let hg = graph(5, &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        let cands: Vec<Edge> = hg.edge_ids().collect();
        let conn = VertexSet::from_iter(5, [Vertex(0), Vertex(4)]);
        let mut scratch = CoverScratch::default();
        let mut lead: Option<(usize, Edge)> = None;
        let mut leads = 0usize;
        let mut announced = true;
        let mut pending_lead = false;
        for_each_cover_subset_in::<()>(&hg, &cands, &conn, 3, &mut scratch, |step| {
            match step {
                CoverStep::Lead => {
                    leads += 1;
                    pending_lead = true;
                }
                CoverStep::Visit(s) => {
                    if lead != Some((s.len(), s[0])) {
                        announced &= pending_lead;
                        lead = Some((s.len(), s[0]));
                    }
                    pending_lead = false;
                }
            }
            ControlFlow::Continue(())
        });
        assert!(announced, "a subset's first pick must follow a Lead step");
        assert!(leads >= 1);
        assert_eq!(
            cover_visits(&hg, &cands, &conn, 3, &mut scratch),
            vec![
                vec![cands[0], cands[3]],
                vec![cands[0], cands[1], cands[3]],
                vec![cands[0], cands[2], cands[3]]
            ]
        );
        // Warm scratch: a second walk of the same shape allocates nothing.
        let warm = scratch.grow_events;
        cover_visits(&hg, &cands, &conn, 3, &mut scratch);
        assert_eq!(scratch.grow_events, warm);
    }

    #[test]
    fn space_size_matches_enumeration_for_larger_inputs() {
        for n in 0..8u32 {
            for k in 0..5usize {
                let count = all_subsets(&edges(n), k).len() as u128;
                assert_eq!(count, subset_space_size(n as usize, k), "n={n} k={k}");
            }
        }
    }
}
