//! Shared, lock-striped memo table for `det-k-decomp`.
//!
//! The hybrid strategy (Appendix D.2 of the log-k-decomp paper) hands
//! simple subproblems to `det-k-decomp` from *many* places: every rayon
//! branch and every recursion level below the hybrid threshold. Each
//! handoff used to build a fresh, private memo table, so the extensive
//! `(component, connector)` memoisation the algorithm's practicality rests
//! on (Gottlob & Samer) restarted from zero each time. This module makes
//! the table shareable:
//!
//! * **Resolved keys.** The old key included `Vec<SpecialId>` — ids local
//!   to one branch's [`SpecialArena`]. Keys here resolve specials to their
//!   vertex sets (stored sorted, matched as a multiset), so the same
//!   subproblem met under different arenas is one entry.
//! * **Portable values.** Positive results are stored as
//!   [`PortableFragment`]s and re-interned against the prober's arena on a
//!   hit — the same id-rewrite pass the engine's unified subproblem cache
//!   uses.
//!
//! The striping, borrowed-key probing and under-lock dedup are the shared
//! [`decomp::striped`] core — the same machinery behind the engine's
//! subproblem cache — instantiated here with `Option<PortableFragment>`
//! values (`None` = exhaustively refuted) and the [`EntryCap`] retention
//! policy, which mirrors the paper's memory-limit discipline: beyond the
//! cap the table keeps serving hits but stops memoising.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use decomp::{EntryCap, Fragment, InsertOutcome, PortableFragment, StripedTable};
use hypergraph::{SpecialArena, Subproblem, VertexSet};

/// Result of a borrowed-key memo probe.
pub enum MemoProbe {
    /// Memoised verdict: `None` (refuted) or the fragment re-interned
    /// against the prober's arena.
    Hit(Option<Fragment>),
    /// Unknown; carries the key hash for the follow-up insert.
    Miss(u64),
}

decomp::counters! {
    /// Point-in-time counters of a [`SharedMemo`].
    pub struct MemoSnapshot {
        /// Width bound the table's verdicts are relative to.
        k: usize = max,
        /// Entries currently stored.
        entries: usize = max,
        /// Configured entry cap.
        cap: usize = max,
    }

    /// The live lookup counters of a [`SharedMemo`].
    atomic MemoCounters {
        /// Lookups answered from the table.
        hits: u64 = sum,
        /// Lookups that found nothing.
        misses: u64 = sum,
        /// Entries inserted.
        inserts: u64 = sum,
    }
}

/// The shared `det-k-decomp` memo table. One instance serves every hybrid
/// handoff and rayon branch of a solve.
///
/// `None` values mean "exhaustively refuted"; `Some` values are
/// arena-independent witnesses, `Arc`-wrapped so a hit can leave the
/// shard lock before the re-interning clone pass runs.
pub struct SharedMemo {
    table: StripedTable<Option<Arc<PortableFragment>>, EntryCap>,
    /// Width bound the memoised verdicts are relative to. A verdict for
    /// `k = 2` is meaningless at `k = 3` (and vice versa), so sharers are
    /// checked against this at attach time.
    k: usize,
    counters: MemoCounters,
}

impl SharedMemo {
    /// Creates an empty table for width bound `k`, capped at `cap`
    /// entries. Every engine sharing the table must search at this `k` —
    /// [`super::DetKDecomp::with_shared_memo`] enforces it.
    pub fn new(k: usize, cap: usize) -> Self {
        SharedMemo {
            table: StripedTable::new(EntryCap::new(cap)),
            k,
            counters: MemoCounters::default(),
        }
    }

    /// The width bound this table's verdicts are relative to.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured entry cap.
    pub fn cap(&self) -> usize {
        self.table.policy().cap()
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Looks up `(sub, conn)` without building an owned key. A positive
    /// hit clones only an `Arc` under the shard lock; the re-interning
    /// pass over the fragment runs after the lock is released, so
    /// concurrent handoffs don't convoy behind fragment clones.
    pub fn probe(&self, arena: &SpecialArena, sub: &Subproblem, conn: &VertexSet) -> MemoProbe {
        let (hash, hit) = self
            .table
            .probe_with(arena, sub, conn, None, |result| result.clone());
        match hit {
            Some(None) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return MemoProbe::Hit(None);
            }
            Some(Some(pf)) => {
                if let Some((frag, _rewrites)) = pf.instantiate(arena, &sub.specials) {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    return MemoProbe::Hit(Some(frag));
                }
                debug_assert!(false, "matched memo entry failed to instantiate");
            }
            None => {}
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        MemoProbe::Miss(hash)
    }

    /// Memoises the verdict for `(sub, conn)` under the cap discipline.
    pub fn insert(
        &self,
        hash: u64,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        result: &Option<Fragment>,
    ) {
        // Early-out before the (portable-conversion) value build: past
        // the cap nothing will be admitted anyway.
        if self.len() >= self.cap() {
            return;
        }
        let value = result
            .as_ref()
            .map(|f| Arc::new(PortableFragment::from_fragment(f, arena)));
        if self.table.insert(hash, arena, sub, conn, None, value, 0) == InsertOutcome::Inserted {
            self.counters.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time snapshot of the counters.
    pub fn snapshot(&self) -> MemoSnapshot {
        MemoSnapshot {
            k: self.k,
            entries: self.len(),
            cap: self.cap(),
            ..self.counters.snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{Edge, Hypergraph, Vertex};

    #[test]
    fn memo_resolves_specials_across_arenas() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let n = hg.num_vertices();
        let memo = SharedMemo::new(2, 1 << 10);

        let mut a1 = SpecialArena::new();
        let s1 = a1.push(VertexSet::from_iter(n, [Vertex(0), Vertex(3)]));
        let mut sub1 = Subproblem::empty(&hg);
        sub1.edges.insert(Edge(1));
        sub1.specials.push(s1);
        let conn = hg.vertex_set();

        let hash = match memo.probe(&a1, &sub1, &conn) {
            MemoProbe::Miss(h) => h,
            _ => panic!("fresh memo must miss"),
        };
        let mut frag = Fragment::leaf(vec![Edge(1)], hg.union_of_slice(&[Edge(1)]));
        frag.attach_under(0, Fragment::special_leaf(s1, a1.get(s1).clone()));
        memo.insert(hash, &a1, &sub1, &conn, &Some(frag));

        // A different arena with a different id for the same set hits.
        let mut a2 = SpecialArena::new();
        let _pad = a2.push(VertexSet::from_iter(n, [Vertex(2)]));
        let s2 = a2.push(VertexSet::from_iter(n, [Vertex(0), Vertex(3)]));
        let mut sub2 = Subproblem::empty(&hg);
        sub2.edges.insert(Edge(1));
        sub2.specials.push(s2);
        match memo.probe(&a2, &sub2, &conn) {
            MemoProbe::Hit(Some(f)) => assert_eq!(f.find_special_leaf(s2), Some(1)),
            _ => panic!("resolved key must hit across arenas"),
        }
        assert_eq!(memo.snapshot().hits, 1);
    }

    #[test]
    fn cap_freezes_inserts() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        let memo = SharedMemo::new(2, 1);
        for e in 0..3u32 {
            let mut sub = Subproblem::empty(&hg);
            sub.edges.insert(Edge(e));
            let hash = match memo.probe(&arena, &sub, &conn) {
                MemoProbe::Miss(h) => h,
                _ => panic!("must miss"),
            };
            memo.insert(hash, &arena, &sub, &conn, &None);
        }
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.snapshot().inserts, 1);
    }

    #[test]
    fn negative_verdicts_hit() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2]]);
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        let memo = SharedMemo::new(2, 16);
        let sub = Subproblem::whole(&hg);
        let hash = match memo.probe(&arena, &sub, &conn) {
            MemoProbe::Miss(h) => h,
            _ => panic!("must miss"),
        };
        memo.insert(hash, &arena, &sub, &conn, &None);
        assert!(matches!(
            memo.probe(&arena, &sub, &conn),
            MemoProbe::Hit(None)
        ));
    }
}
