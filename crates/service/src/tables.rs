//! Cross-request memo-table sharing with soundness enforcement.
//!
//! Cached subproblem verdicts are only valid relative to one hypergraph
//! (its edge numbering) and one width bound `k` — sharing them across
//! *different* instances or widths would be unsound. The [`TableHub`]
//! therefore keys [`SharedTables`] by *instance content* and `k`:
//! content-equal hypergraphs submitted by different clients are
//! canonicalised to one `Arc`, so their requests genuinely warm each
//! other's caches, while everything else gets (and pollutes) only its
//! own tables.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hypergraph::{Hypergraph, Ix};
use logk::SharedTables;

/// One canonicalised instance: the `Arc` every content-equal submission
/// is rewritten to, plus its per-width tables.
struct InstanceEntry {
    /// Canonical copy — all [`SharedTables::for_instance`] tables below
    /// are bound to *this* allocation, so `LogK`'s address check passes
    /// for every sharer.
    hg: Arc<Hypergraph>,
    /// Width-keyed tables, built lazily per requested `k`.
    tables: HashMap<usize, SharedTables>,
    /// LRU tick of the last checkout.
    last_used: u64,
}

/// Registry of shared memo tables, keyed by `(instance content, k)`.
///
/// Byte budget: each table caps its subproblem cache at `cache_bytes`,
/// and the hub holds at most `max_instances` instances (LRU-evicted), so
/// the memory the hub holds across requests is bounded by
/// `max_instances × widths-per-instance × cache_bytes`. That is all it
/// holds: the `det-k-decomp` memo of a hybrid solve is built and freed
/// by that solve, under its own `cache_bytes` budget.
pub struct TableHub {
    cache_bytes: usize,
    max_instances: usize,
    inner: Mutex<HashMap<u64, InstanceEntry>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Counter snapshot of a [`TableHub`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubSnapshot {
    /// Distinct canonicalised instances currently held.
    pub instances: u64,
    /// Tables currently held across all instances (one per instance
    /// and width).
    pub tables: u64,
    /// Checkouts that found an existing table.
    pub hits: u64,
    /// Checkouts that built a fresh table.
    pub misses: u64,
    /// Instances evicted by the LRU cap.
    pub evictions: u64,
}

impl TableHub {
    /// A hub handing out tables of `cache_bytes` each, holding at most
    /// `max_instances` distinct instances.
    pub fn new(cache_bytes: usize, max_instances: usize) -> Self {
        TableHub {
            cache_bytes,
            max_instances: max_instances.max(1),
            inner: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Checks out the table for (`hg`, `k`): the canonical `Arc` for
    /// `hg`'s content plus the table bound to it, building either on
    /// first sight. Solve with the *returned* hypergraph — the table's
    /// soundness check is by address against it.
    ///
    /// Fingerprint collisions (content-distinct instances hashing alike)
    /// degrade safely: the newcomer gets a fresh *unshared* table bound
    /// to its own `Arc`, and the incumbent keeps its slot.
    pub fn checkout(&self, hg: &Arc<Hypergraph>, k: usize) -> (Arc<Hypergraph>, SharedTables) {
        let fp = fingerprint(hg);
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match map.get_mut(&fp) {
            Some(entry) if same_instance(&entry.hg, hg) => {
                entry.last_used = now;
                let canonical = Arc::clone(&entry.hg);
                let mut built = false;
                let table = entry
                    .tables
                    .entry(k)
                    .or_insert_with(|| {
                        built = true;
                        SharedTables::for_instance(Arc::clone(&canonical), k, self.cache_bytes)
                    })
                    .clone();
                let counter = if built { &self.misses } else { &self.hits };
                counter.fetch_add(1, Ordering::Relaxed);
                (canonical, table)
            }
            Some(_) => {
                // Fingerprint collision: don't share, don't evict.
                self.misses.fetch_add(1, Ordering::Relaxed);
                let canonical = Arc::clone(hg);
                let table = SharedTables::for_instance(Arc::clone(&canonical), k, self.cache_bytes);
                (canonical, table)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let canonical = Arc::clone(hg);
                let table = SharedTables::for_instance(Arc::clone(&canonical), k, self.cache_bytes);
                let mut tables = HashMap::new();
                tables.insert(k, table.clone());
                map.insert(
                    fp,
                    InstanceEntry {
                        hg: Arc::clone(&canonical),
                        tables,
                        last_used: now,
                    },
                );
                if map.len() > self.max_instances {
                    // Evict the least-recently checked-out instance
                    // (never the one just inserted: its tick is `now`).
                    if let Some((&old, _)) = map.iter().min_by_key(|(_, e)| e.last_used) {
                        map.remove(&old);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                (canonical, table)
            }
        }
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> HubSnapshot {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        HubSnapshot {
            instances: map.len() as u64,
            tables: map.values().map(|e| e.tables.len() as u64).sum(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for TableHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableHub")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// Content fingerprint: vertex count plus every edge's vertex list, in
/// edge order (edge numbering is part of verdict identity, so order
/// matters — no sorting). Doubles as the in-flight coalescing key in
/// `server` (paired with [`same_instance`] against collisions).
pub(crate) fn fingerprint(hg: &Hypergraph) -> u64 {
    let mut h = DefaultHasher::new();
    hg.num_vertices().hash(&mut h);
    hg.num_edges().hash(&mut h);
    for e in hg.edge_ids() {
        for v in hg.edge(e).iter() {
            v.index().hash(&mut h);
        }
        // Edge delimiter, so [{1,2},{3}] and [{1},{2,3}] differ.
        usize::MAX.hash(&mut h);
    }
    h.finish()
}

/// Exact content equality (guards against fingerprint collisions).
pub(crate) fn same_instance(a: &Hypergraph, b: &Hypergraph) -> bool {
    if std::ptr::eq(a, b) {
        return true;
    }
    a.num_vertices() == b.num_vertices()
        && a.num_edges() == b.num_edges()
        && a.edge_ids().all(|e| a.edge(e).iter().eq(b.edge(e).iter()))
}
