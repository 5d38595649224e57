//! The memo table of the workspace: one lock-striped, borrowed-key table
//! of subproblem verdicts, used by the engine's subproblem cache and by
//! `det-k-decomp`'s per-`(component, connector)` memo alike. Both memoise
//! the same kind of key — a resolved extended subproblem — and the same
//! kind of value — "exhaustively refuted", or a witness fragment — under
//! the same concurrency discipline and the same byte budget:
//!
//! * **Resolved keys.** Special edges are keyed by *vertex set*, not by
//!   branch-local [`SpecialArena`] id: ids mean different sets in
//!   different arenas, vertex sets are canonical. Stored keys keep their
//!   specials sorted; probes match them as a multiset
//!   ([`specials_multiset_match`]) without sorting. The optional
//!   `allowed` edge alphabet participates in the key behind an [`Arc`]
//!   shared with the prober's recursion, so storing a key bumps a
//!   refcount instead of cloning the set. The engine cache keys on it;
//!   the det-k memo probes with `None`.
//! * **Portable values.** A found fragment is stored arena-independent
//!   ([`PortableFragment`]); a hit re-interns it against the prober's
//!   arena by a set-preserving id-rewrite pass, so a witness found in one
//!   branch, handoff or solve is reused verbatim by every other.
//! * **One width bound.** A table records the `k` its verdicts hold for
//!   ([`StripedTable::k`]); "refuted at k" and "a witness of width ≤ k"
//!   mean nothing at another bound, so every engine asserts `k` when a
//!   table is attached.
//! * **Borrowed-key probes.** A lookup never builds an owned key: it
//!   hashes the borrowed `(edges, specials, conn[, allowed])` directly —
//!   per-special hashes are combined *commutatively* (`wrapping_add`), so
//!   the unsorted branch-local view and the sorted stored key hash
//!   identically without a sort buffer — and walks the hash's bucket
//!   comparing stored entries against the borrowed data. A hit clones one
//!   `Arc` under the shard lock; the re-interning pass runs unlocked.
//! * **Owned-key-on-insert.** The owned key is built exactly once, when a
//!   verdict is actually stored. The probe hands its hash back on a miss
//!   so the follow-up insert does not recompute it.
//! * **Lock striping.** Keys are spread over [`SHARDS`] mutex shards by
//!   hash; parallel branches rarely contend on the same lock, and
//!   poisoned locks are ignored (the table holds no invariants across a
//!   panicking insert).
//! * **Under-lock dedup.** An insert whose key is already present (a
//!   racing branch beat us) keeps the incumbent — entry counts and the
//!   byte budget never leak on the race.
//! * **CLOCK eviction under a byte budget.** Each entry is charged its
//!   estimated key and fragment bytes. When an insert would overflow the
//!   budget, the shard runs a second-chance sweep: entries touched since
//!   the last sweep get their reference bit cleared, cold entries are
//!   evicted until the new entry fits. The sweep evicts from the
//!   inserting shard only, so an entry that shard cannot make room for
//!   (one larger than the whole budget, or one whose overflow exceeds
//!   the bytes the shard holds) is rejected before anything is evicted.
//!   Bytes are reserved atomically before the sweep, so the budget holds
//!   exactly under concurrent inserts on different shards. A budget of
//!   `0` disables the table: every probe misses and every insert is
//!   dropped.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hypergraph::{EdgeSet, SpecialArena, Subproblem, VertexSet};

use crate::fragment::Fragment;
use crate::portable::{specials_multiset_match, PortableFragment};

/// Number of lock stripes. Keys spread uniformly by hash, so per-shard
/// pressure tracks global pressure.
pub const SHARDS: usize = 16;

/// Default byte budget of a memo table (32 MiB), mirroring the
/// memory-limit discipline of the paper's experiments.
pub const DEFAULT_CACHE_BYTES: usize = 32 << 20;

/// Canonical identity of a memoised subproblem: resolved edges, specials
/// (sorted vertex sets), connector, and optionally the allowed λ alphabet.
#[derive(Debug)]
struct StripedKey {
    edges: EdgeSet,
    /// Special edges resolved to vertex sets, sorted canonically.
    specials: Vec<VertexSet>,
    conn: VertexSet,
    /// Shared with the prober's recursion: storing a key is a refcount
    /// bump, not a set clone.
    allowed: Option<Arc<EdgeSet>>,
}

impl StripedKey {
    /// Builds the owned (canonical) key from the borrowed probe parts.
    fn build(
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: Option<&Arc<EdgeSet>>,
    ) -> Self {
        let mut specials: Vec<VertexSet> =
            sub.specials.iter().map(|&s| arena.get(s).clone()).collect();
        specials.sort_unstable();
        StripedKey {
            edges: sub.edges.clone(),
            specials,
            conn: conn.clone(),
            allowed: allowed.map(Arc::clone),
        }
    }

    /// Estimated heap footprint in bytes. The `allowed` set is physically
    /// shared via `Arc` but counted in full — a conservative over-estimate
    /// that can only make eviction earlier, never let a table overrun its
    /// budget.
    fn approx_bytes(&self) -> usize {
        let set_bytes = |s: &EdgeSet| s.capacity().div_ceil(64) * 8 + 32;
        let vset_bytes = |s: &VertexSet| s.capacity().div_ceil(64) * 8 + 32;
        set_bytes(&self.edges)
            + self.allowed.as_deref().map_or(0, set_bytes)
            + vset_bytes(&self.conn)
            + self.specials.iter().map(vset_bytes).sum::<usize>()
            + 48 // slot + Vec header overhead
    }

    /// Whether this stored key describes the borrowed subproblem — the
    /// single definition of key identity, used by probe and insert alike.
    fn matches(
        &self,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: Option<&Arc<EdgeSet>>,
    ) -> bool {
        let allowed_match = match (&self.allowed, allowed) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || **a == **b,
            _ => false,
        };
        allowed_match
            && self.edges == sub.edges
            && self.conn == *conn
            && specials_multiset_match(&self.specials, arena, &sub.specials)
    }
}

/// A stored verdict: `None` = exhaustively refuted, `Some` = a witness,
/// `Arc`-wrapped so a hit can leave the shard lock before the
/// re-interning clone pass runs — parallel branches must not convoy
/// behind fragment clones.
type Verdict = Option<Arc<PortableFragment>>;

/// One stored entry: key, verdict, the byte cost charged against the
/// budget, and the CLOCK reference bit.
struct Entry {
    hash: u64,
    key: StripedKey,
    verdict: Verdict,
    cost: usize,
    /// Set on every hit, cleared (second chance) by the eviction sweep.
    referenced: bool,
}

/// One lock stripe: a slab of entries plus a hash → slot index. The slab
/// gives the CLOCK hand a stable circular order, which a plain `HashMap`
/// iteration cannot.
#[derive(Default)]
struct Shard {
    slots: Vec<Option<Entry>>,
    free: Vec<u32>,
    index: HashMap<u64, Vec<u32>>,
    hand: usize,
    /// Bytes charged by this shard's entries: the most its sweep can free.
    bytes: usize,
}

impl Shard {
    fn find(
        &self,
        hash: u64,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: Option<&Arc<EdgeSet>>,
    ) -> Option<u32> {
        let ids = self.index.get(&hash)?;
        ids.iter().copied().find(|&id| {
            let entry = self.slots[id as usize]
                .as_ref()
                .expect("indexed slots are occupied");
            entry.hash == hash && entry.key.matches(arena, sub, conn, allowed)
        })
    }

    fn remove_slot(&mut self, id: u32) -> Entry {
        let entry = self.slots[id as usize].take().expect("slot occupied");
        if let Some(ids) = self.index.get_mut(&entry.hash) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                self.index.remove(&entry.hash);
            }
        }
        self.free.push(id);
        self.bytes -= entry.cost;
        entry
    }

    fn place(&mut self, entry: Entry) {
        let hash = entry.hash;
        self.bytes += entry.cost;
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(entry);
                id
            }
            None => {
                let id = self.slots.len() as u32;
                self.slots.push(Some(entry));
                id
            }
        };
        self.index.entry(hash).or_default().push(id);
    }
}

crate::counters! {
    /// A point-in-time snapshot of a [`StripedTable`], for stats
    /// reporting.
    pub struct CacheSnapshot {
        /// Entries evicted by the second-chance sweep.
        evictions: u64 = sum,
        /// Entries currently stored.
        entries: usize = max,
        /// Estimated bytes currently stored.
        bytes: usize = max,
        /// Configured byte budget (0 = table disabled).
        byte_budget: usize = max,
    }

    /// The live lookup and insert counters of a [`StripedTable`],
    /// shared across rayon branches.
    atomic Counters {
        /// Lookups answered with a reusable fragment.
        pos_hits: u64 = sum,
        /// Lookups answered "known unsolvable".
        neg_hits: u64 = sum,
        /// Lookups that found nothing.
        misses: u64 = sum,
        /// Entries inserted.
        inserts: u64 = sum,
        /// Insertions dropped because the entry did not fit: larger than
        /// the whole budget, or eviction could not make room.
        rejected: u64 = sum,
        /// Special-leaf id rewrites performed while re-interning positive
        /// fragments into prober arenas.
        id_rewrites: u64 = sum,
    }
}

impl CacheSnapshot {
    /// Total hits, positive and negative.
    pub fn hits(&self) -> u64 {
        self.pos_hits + self.neg_hits
    }
}

/// Result of a [`StripedTable::probe`].
pub enum Probe {
    /// Memoised verdict: `None` (refuted) or the stored fragment
    /// re-interned against the prober's arena.
    Hit(Option<Fragment>),
    /// Unknown; carries the key hash so the follow-up insert does not
    /// recompute it.
    Miss(u64),
}

/// The memo table. See the module docs for the invariants.
pub struct StripedTable {
    shards: Vec<Mutex<Shard>>,
    hasher: RandomState,
    /// Width bound the stored verdicts hold for.
    k: usize,
    byte_budget: usize,
    /// Reserved atomically under a shard lock by every admitted insert
    /// and released on eviction, so the budget holds exactly even when
    /// inserts race on different shards.
    bytes: AtomicUsize,
    entries: AtomicUsize,
    evictions: AtomicU64,
    counters: Counters,
}

impl StripedTable {
    /// An empty table for verdicts at width bound `k`, bounded by
    /// `byte_budget` bytes; `0` disables it.
    pub fn new(k: usize, byte_budget: usize) -> Self {
        StripedTable {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            hasher: RandomState::new(),
            k,
            byte_budget,
            bytes: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// The width bound the stored verdicts hold for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether lookups can ever hit.
    #[inline]
    fn enabled(&self) -> bool {
        self.byte_budget > 0
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hashes the borrowed key parts. Per-special hashes are combined
    /// with a commutative `wrapping_add`, so the canonical (sorted)
    /// stored key and the unsorted branch-local view hash identically
    /// without materialising a sorted buffer.
    fn hash_key(
        &self,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: Option<&EdgeSet>,
    ) -> u64 {
        let mut h = self.hasher.hash_one(&sub.edges);
        h = h.rotate_left(17) ^ self.hasher.hash_one(conn);
        if let Some(allowed) = allowed {
            h = h.rotate_left(17) ^ self.hasher.hash_one(allowed);
        }
        let mut sp = 0u64;
        for &s in &sub.specials {
            sp = sp.wrapping_add(self.hasher.hash_one(arena.get(s)));
        }
        h ^ sp
    }

    fn shard(&self, hash: u64) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[(hash as usize) % SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up the subproblem without building an owned key. A positive
    /// hit is re-interned against `arena` (special-leaf ids rewritten to
    /// `sub.specials`). A disabled table misses without hashing (the
    /// returned hash is unused: its inserts are dropped).
    pub fn probe(
        &self,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: Option<&Arc<EdgeSet>>,
    ) -> Probe {
        if !self.enabled() {
            return Probe::Miss(0);
        }
        let hash = self.hash_key(arena, sub, conn, allowed.map(Arc::as_ref));
        // Under the lock: find, mark referenced, and clone the verdict's
        // `Arc` handle. The re-interning runs unlocked.
        let hit = {
            let mut shard = self.shard(hash);
            shard.find(hash, arena, sub, conn, allowed).map(|id| {
                let entry = shard.slots[id as usize].as_mut().expect("found slot");
                entry.referenced = true;
                entry.verdict.clone()
            })
        };
        match hit {
            Some(None) => {
                self.counters.neg_hits.fetch_add(1, Ordering::Relaxed);
                return Probe::Hit(None);
            }
            Some(Some(pf)) => {
                if let Some((frag, rewrites)) = pf.instantiate(arena, &sub.specials) {
                    self.counters.pos_hits.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .id_rewrites
                        .fetch_add(rewrites, Ordering::Relaxed);
                    return Probe::Hit(Some(frag));
                }
                // A matched key must instantiate: the leaf multiset
                // equals the key's specials equals the probe's.
                debug_assert!(false, "matched positive entry failed to instantiate");
            }
            None => {}
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        Probe::Miss(hash)
    }

    /// Memoises the verdict for the subproblem (`hash` from its
    /// [`Probe::Miss`]): `None` records an exhaustive refutation, `Some`
    /// a found fragment, resolved to arena-independent form. Only verdicts
    /// of a search that ran to completion may be stored — a pruned or
    /// interrupted search has no verdict.
    pub fn insert(
        &self,
        hash: u64,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: Option<&Arc<EdgeSet>>,
        verdict: Option<&Fragment>,
    ) {
        if !self.enabled() {
            return;
        }
        let verdict = verdict.map(|frag| {
            let portable = PortableFragment::from_fragment(frag, arena);
            debug_assert_eq!(
                portable.num_special_leaves(),
                sub.specials.len(),
                "a fragment covers each special of its subproblem by one leaf"
            );
            Arc::new(portable)
        });
        let key = StripedKey::build(arena, sub, conn, allowed);
        let cost =
            key.approx_bytes() + verdict.as_deref().map_or(0, PortableFragment::approx_bytes);
        let mut shard = self.shard(hash);
        // Fault site *inside* the critical section: an injected panic
        // here poisons the shard mutex mid-insert — the exact scenario
        // the `unwrap_or_else(into_inner)` recovery pattern exists for.
        // (The shard's state is still coherent: nothing was mutated yet.)
        crate::faults::hit("striped/insert_locked");
        if shard.find(hash, arena, sub, conn, allowed).is_some() {
            return; // a racing branch beat us: keep the incumbent
        }
        if !self.admit(&mut shard, cost) {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        shard.place(Entry {
            hash,
            key,
            verdict,
            cost,
            referenced: false,
        });
        self.counters.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Reserves `cost` bytes and one entry for an insert into `shard`,
    /// sweeping the shard when the budget would overflow; `false` rejects
    /// the insert with nothing reserved. An entry the shard cannot make
    /// room for — one larger than the whole budget, or one whose overflow
    /// exceeds the bytes the shard holds — is rejected before the sweep,
    /// which would otherwise evict cold entries of the shard for nothing.
    fn admit(&self, shard: &mut Shard, cost: usize) -> bool {
        if cost > self.byte_budget {
            return false;
        }
        let prev = self.bytes.fetch_add(cost, Ordering::Relaxed);
        let overflow = (prev + cost).saturating_sub(self.byte_budget);
        if overflow > 0 {
            if overflow <= shard.bytes {
                self.sweep(shard);
            }
            if self.bytes.load(Ordering::Relaxed) > self.byte_budget {
                self.bytes.fetch_sub(cost, Ordering::Relaxed);
                return false;
            }
        }
        self.entries.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Second-chance sweep over one shard: referenced entries are spared
    /// once (bit cleared), unreferenced entries are evicted, until the
    /// global footprint fits the budget or two full revolutions have
    /// given every entry its chance.
    fn sweep(&self, shard: &mut Shard) {
        let n = shard.slots.len();
        let mut steps = 0usize;
        while steps < 2 * n && self.bytes.load(Ordering::Relaxed) > self.byte_budget {
            let i = shard.hand % n;
            shard.hand = (shard.hand + 1) % n.max(1);
            steps += 1;
            let Some(entry) = shard.slots[i].as_mut() else {
                continue;
            };
            if entry.referenced {
                entry.referenced = false;
                continue;
            }
            let evicted = shard.remove_slot(i as u32);
            self.bytes.fetch_sub(evicted.cost, Ordering::Relaxed);
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time snapshot of counters and footprint.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            bytes: self.bytes.load(Ordering::Relaxed),
            byte_budget: self.byte_budget,
            ..self.counters.snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{Edge, Hypergraph, Vertex};

    fn hg4() -> Hypergraph {
        Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]])
    }

    fn sub_of(hg: &Hypergraph, edges: &[u32]) -> Subproblem {
        let mut sub = Subproblem::empty(hg);
        for &e in edges {
            sub.edges.insert(Edge(e));
        }
        sub
    }

    fn miss_hash(probe: Probe) -> u64 {
        match probe {
            Probe::Miss(h) => h,
            Probe::Hit(_) => panic!("expected a miss"),
        }
    }

    fn key_cost(arena: &SpecialArena, sub: &Subproblem, conn: &VertexSet) -> usize {
        StripedKey::build(arena, sub, conn, None).approx_bytes()
    }

    /// The 66 two-edge subproblems of a 12-cycle with their hashes,
    /// grouped by shard (the sweep is per-shard).
    fn keys_by_shard(
        hg: &Hypergraph,
        table: &StripedTable,
        arena: &SpecialArena,
    ) -> Vec<Vec<(Subproblem, u64)>> {
        let conn = hg.vertex_set();
        let mut by_shard: Vec<Vec<(Subproblem, u64)>> = (0..SHARDS).map(|_| Vec::new()).collect();
        for i in 0..12u32 {
            for j in i + 1..12 {
                let sub = sub_of(hg, &[i, j]);
                let h = miss_hash(table.probe(arena, &sub, &conn, None));
                by_shard[(h as usize) % SHARDS].push((sub, h));
            }
        }
        by_shard
    }

    /// Three keys of one shard: 66 keys over 16 shards must put three in
    /// one, whatever the run's hash seed.
    fn same_shard_triple(
        hg: &Hypergraph,
        table: &StripedTable,
        arena: &SpecialArena,
    ) -> Vec<(Subproblem, u64)> {
        let mut triple = keys_by_shard(hg, table, arena)
            .into_iter()
            .find(|v| v.len() >= 3)
            .expect("66 keys over 16 shards must collide");
        triple.truncate(3);
        triple
    }

    fn cycle12() -> Hypergraph {
        let edges: Vec<Vec<u32>> = (0..12u32).map(|i| vec![i, (i + 1) % 12]).collect();
        Hypergraph::from_edge_lists(&edges)
    }

    #[test]
    fn negative_verdict_roundtrips_and_counts() {
        let hg = hg4();
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        let table = StripedTable::new(2, 1 << 20);
        let sub = sub_of(&hg, &[0, 1]);
        let hash = miss_hash(table.probe(&arena, &sub, &conn, None));
        table.insert(hash, &arena, &sub, &conn, None, None);
        assert!(matches!(
            table.probe(&arena, &sub, &conn, None),
            Probe::Hit(None)
        ));
        let other = sub_of(&hg, &[0, 2]);
        assert!(matches!(
            table.probe(&arena, &other, &conn, None),
            Probe::Miss(_)
        ));
        let snap = table.snapshot();
        assert_eq!((snap.neg_hits, snap.misses, snap.inserts), (1, 2, 1));
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.bytes, key_cost(&arena, &sub, &conn));
        assert_eq!(table.k(), 2);
    }

    #[test]
    fn positive_fragment_reinterns_across_arenas() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let n = hg.num_vertices();
        let conn = hg.vertex_set();
        let mut a1 = SpecialArena::new();
        let s1 = a1.push(VertexSet::from_iter(n, [Vertex(0), Vertex(3)]));
        let mut sub1 = sub_of(&hg, &[1]);
        sub1.specials.push(s1);
        // The same vertex set under a different id in another arena.
        let mut a2 = SpecialArena::new();
        let _pad = a2.push(VertexSet::from_iter(n, [Vertex(2)]));
        let s2 = a2.push(VertexSet::from_iter(n, [Vertex(0), Vertex(3)]));
        let mut sub2 = sub_of(&hg, &[1]);
        sub2.specials.push(s2);

        let mut frag = Fragment::leaf(vec![Edge(1)], hg.union_of_slice(&[Edge(1)]));
        frag.attach_under(0, Fragment::special_leaf(s1, a1.get(s1).clone()));
        let table = StripedTable::new(2, 1 << 20);
        let hash = miss_hash(table.probe(&a1, &sub1, &conn, None));
        table.insert(hash, &a1, &sub1, &conn, None, Some(&frag));

        match table.probe(&a2, &sub2, &conn, None) {
            Probe::Hit(Some(got)) => assert_eq!(got.find_special_leaf(s2), Some(1)),
            _ => panic!("the resolved key must hit across arenas"),
        }
        let snap = table.snapshot();
        assert_eq!((snap.pos_hits, snap.id_rewrites), (1, 1));
    }

    #[test]
    fn duplicate_insert_keeps_the_incumbent() {
        let hg = hg4();
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        let table = StripedTable::new(2, 1 << 20);
        let sub = sub_of(&hg, &[2]);
        let hash = miss_hash(table.probe(&arena, &sub, &conn, None));
        table.insert(hash, &arena, &sub, &conn, None, None);
        let bytes_once = table.snapshot().bytes;
        let frag = Fragment::leaf(vec![Edge(2)], hg.union_of_slice(&[Edge(2)]));
        table.insert(hash, &arena, &sub, &conn, None, Some(&frag));
        assert!(
            matches!(table.probe(&arena, &sub, &conn, None), Probe::Hit(None)),
            "the racing insert must not replace the verdict"
        );
        let snap = table.snapshot();
        assert_eq!((snap.inserts, snap.entries), (1, 1));
        assert_eq!(snap.bytes, bytes_once, "a duplicate must not leak bytes");
    }

    #[test]
    fn allowed_alphabet_distinguishes_keys() {
        let hg = hg4();
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        let sub = sub_of(&hg, &[0]);
        let all = Arc::new(hg.all_edges());
        let mut restricted = hg.all_edges();
        restricted.remove(Edge(3));
        let restricted = Arc::new(restricted);
        let table = StripedTable::new(2, 1 << 20);
        let hash = miss_hash(table.probe(&arena, &sub, &conn, Some(&all)));
        table.insert(hash, &arena, &sub, &conn, Some(&all), None);
        for (allowed, hits) in [
            (Some(&restricted), false),
            (None, false),
            (Some(&all), true),
        ] {
            let hit = matches!(table.probe(&arena, &sub, &conn, allowed), Probe::Hit(_));
            assert_eq!(hit, hits, "the allowed alphabet is part of the key");
        }
    }

    #[test]
    fn clock_eviction_keeps_referenced_entries() {
        let hg = cycle12();
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        // All candidate keys have the same capacity-derived cost.
        let one_cost = key_cost(&arena, &sub_of(&hg, &[0, 1]), &conn);
        let budget = 2 * one_cost + one_cost / 2;
        let table = StripedTable::new(2, budget);
        let triple = same_shard_triple(&hg, &table, &arena);
        let [(hot, h_hot), (cold, h_cold), (new, h_new)] = &triple[..] else {
            unreachable!()
        };
        table.insert(*h_hot, &arena, hot, &conn, None, None);
        table.insert(*h_cold, &arena, cold, &conn, None, None);
        // Touch the hot entry so its reference bit is set.
        assert!(matches!(
            table.probe(&arena, hot, &conn, None),
            Probe::Hit(None)
        ));
        // The third insert overflows the budget: the sweep gives the hot
        // entry its second chance and evicts the cold one.
        table.insert(*h_new, &arena, new, &conn, None, None);
        assert_eq!(table.snapshot().evictions, 1);
        for (sub, kept) in [(hot, true), (new, true), (cold, false)] {
            let hit = matches!(table.probe(&arena, sub, &conn, None), Probe::Hit(None));
            assert_eq!(hit, kept);
        }
        assert!(table.snapshot().bytes <= budget);
    }

    #[test]
    fn oversize_insert_is_rejected_without_evicting() {
        let hg = cycle12();
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        let one_cost = key_cost(&arena, &sub_of(&hg, &[0, 1]), &conn);
        let budget = 2 * one_cost + one_cost / 2;
        let table = StripedTable::new(2, budget);
        let triple = same_shard_triple(&hg, &table, &arena);
        let [(a, h_a), (b, h_b), (big, h_big)] = &triple[..] else {
            unreachable!()
        };
        table.insert(*h_a, &arena, a, &conn, None, None);
        table.insert(*h_b, &arena, b, &conn, None, None);
        // A witness with one node per vertex costs more than the whole
        // budget on its own.
        let mut frag = Fragment::leaf(big.edges.iter().collect(), hg.union_of(&big.edges));
        for v in 0..12 {
            frag.attach_under(
                0,
                Fragment::leaf(vec![Edge(v)], hg.union_of_slice(&[Edge(v)])),
            );
        }
        assert!(PortableFragment::from_fragment(&frag, &arena).approx_bytes() > budget);
        table.insert(*h_big, &arena, big, &conn, None, Some(&frag));
        let snap = table.snapshot();
        assert_eq!((snap.rejected, snap.evictions, snap.entries), (1, 0, 2));
        assert_eq!(
            snap.bytes,
            2 * one_cost,
            "the rejected entry reserved nothing"
        );
        for sub in [a, b] {
            assert!(matches!(
                table.probe(&arena, sub, &conn, None),
                Probe::Hit(None)
            ));
        }
    }

    /// When cold entries of *other* shards hold the bytes, the inserting
    /// shard cannot make room by sweeping itself: the insert is rejected
    /// and nothing is evicted.
    #[test]
    fn insert_the_shard_cannot_make_room_for_evicts_nothing() {
        let hg = cycle12();
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        let one_cost = key_cost(&arena, &sub_of(&hg, &[0, 1]), &conn);
        let table = StripedTable::new(2, 4 * one_cost);
        let mut pairs = keys_by_shard(&hg, &table, &arena)
            .into_iter()
            .filter(|v| v.len() >= 2);
        let (Some(full), Some(mut target)) = (pairs.next(), pairs.next()) else {
            panic!(
                "66 keys over 16 shards leave two shards with two keys unless the hash is skewed"
            );
        };
        let (new, h_new) = target.pop().expect("two keys");
        let cold: Vec<_> = full
            .into_iter()
            .take(2)
            .chain(target.into_iter().take(1))
            .collect();
        for (sub, h) in &cold {
            table.insert(*h, &arena, sub, &conn, None, None);
        }
        // A 404-byte entry (key and a two-node witness) fits the budget
        // but overflows it by more than the target shard's one cold key.
        let mut frag = Fragment::leaf(new.edges.iter().collect(), hg.union_of(&new.edges));
        frag.attach_under(
            0,
            Fragment::leaf(vec![Edge(0)], hg.union_of_slice(&[Edge(0)])),
        );
        let cost = key_cost(&arena, &new, &conn)
            + PortableFragment::from_fragment(&frag, &arena).approx_bytes();
        assert!(cost > 2 * one_cost && cost <= 4 * one_cost, "cost {cost}");
        table.insert(h_new, &arena, &new, &conn, None, Some(&frag));
        let snap = table.snapshot();
        assert_eq!((snap.evictions, snap.rejected, snap.entries), (0, 1, 3));
        for (sub, _) in &cold {
            assert!(matches!(
                table.probe(&arena, sub, &conn, None),
                Probe::Hit(None)
            ));
        }
    }

    #[test]
    fn insert_is_rejected_when_nothing_fits() {
        let hg = hg4();
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        let sub = sub_of(&hg, &[0]);
        let table = StripedTable::new(2, key_cost(&arena, &sub, &conn) / 2);
        let hash = miss_hash(table.probe(&arena, &sub, &conn, None));
        table.insert(hash, &arena, &sub, &conn, None, None);
        let snap = table.snapshot();
        assert_eq!((snap.inserts, snap.rejected, snap.bytes), (0, 1, 0));
        assert!(table.is_empty());
    }

    #[test]
    fn disabled_table_never_stores() {
        let hg = hg4();
        let arena = SpecialArena::new();
        let conn = hg.vertex_set();
        let table = StripedTable::new(2, 0);
        assert!(!table.enabled());
        let sub = sub_of(&hg, &[0]);
        let hash = miss_hash(table.probe(&arena, &sub, &conn, None));
        table.insert(hash, &arena, &sub, &conn, None, None);
        assert!(matches!(
            table.probe(&arena, &sub, &conn, None),
            Probe::Miss(_)
        ));
        assert!(table.is_empty());
        assert_eq!(table.snapshot(), CacheSnapshot::default());
    }
}
