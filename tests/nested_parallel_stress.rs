//! Nested-parallelism stress: the full hybrid configuration — parallel
//! `log-k-decomp` branching with `det-k-decomp` handoffs — run under a
//! deliberately tiny 2-worker pool, the regime where the old vendored
//! rayon's oversubscription bug fired (workers spawned by an outer
//! `find_map_any` did not inherit the installed bound, so nested races
//! fell back to `available_parallelism()` and multiplied their thread
//! count). Under the work-stealing runtime the bound holds by
//! construction — only a pool's workers execute its jobs, and nested
//! `join` races stay on those workers — but it remains the load-bearing
//! invariant, so this suite keeps pinning it end to end: engine-shaped
//! nested races, hybrid det-k handoffs on pool workers, and the
//! steal/park counters the solver surfaces.
//!
//! CI additionally re-runs the *entire* test suite with
//! `RAYON_NUM_THREADS=2` and `=1` (the ambient pool size every unpooled
//! parallel call inherits; `=1` is the fully sequential degenerate), so
//! every parallel test doubles as a stress test.
//!
//! Every `logk` solve here goes through `LogK::search_with_stats`, the
//! search without the bounds pass, so instances the pass would settle
//! (k = 1, minor-bounded refutations) still exercise the engine.

use std::sync::atomic::{AtomicUsize, Ordering};

use decomp::{validate_hd_width, Control};
use logk::LogK;
use rayon::prelude::*;
use workloads::{families, hyperbench_like, CorpusConfig};

/// Corpus sweep with hybrid handoffs enabled under a 2-thread pool:
/// verdicts match the sequential engine, witnesses validate. Quick tier:
/// instances of at most 26 edges.
#[test]
fn hybrid_under_two_thread_pool_matches_sequential() {
    check_hybrid_matches_sequential(26);
}

/// [`hybrid_under_two_thread_pool_matches_sequential`] over every
/// instance of at most 30 edges, which takes minutes in debug builds.
#[test]
#[ignore = "exhaustive tier: CI runs it"]
fn hybrid_under_two_thread_pool_matches_sequential_exhaustive() {
    check_hybrid_matches_sequential(30);
}

fn check_hybrid_matches_sequential(max_edges: usize) {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 99,
        scale: 1.0 / 120.0,
    });
    let ctrl = Control::unlimited();
    let hybrid = LogK::hybrid(2);
    let seq = LogK::sequential();
    let mut handoffs = 0u64;
    let mut checked = 0usize;
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= max_edges) {
        for k in 1..=3usize {
            let (dh, sh) = hybrid.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            let ds = seq
                .search_with_stats(&inst.hg, k, &ctrl)
                .unwrap()
                .0
                .is_some();
            assert_eq!(
                dh.is_some(),
                ds,
                "hybrid(2) and sequential disagree on {} at k={k}",
                inst.name
            );
            if let Some(d) = &dh {
                validate_hd_width(&inst.hg, d, k).unwrap();
            }
            handoffs += sh.detk_handoffs;
            if dh.is_some() {
                break;
            }
        }
        checked += 1;
    }
    assert!(checked > 10, "corpus slice unexpectedly small");
    assert!(
        handoffs > 0,
        "stress run must actually exercise det-k handoffs"
    );
}

/// The grid workload (deep recursion, heavy λ racing) with hybrid
/// handoffs under a 2-thread pool — the heaviest nested-parallel shape
/// the engine produces.
#[test]
fn grid_hybrid_under_two_thread_pool() {
    let ctrl = Control::unlimited();
    let hg = families::grid(4, 4);
    let d = LogK::hybrid(2)
        .search_with_stats(&hg, 3, &ctrl)
        .unwrap()
        .0
        .expect("the 4×4 grid has hw = 3");
    validate_hd_width(&hg, &d, 3).unwrap();
}

/// End-to-end pin of the oversubscription fix at the integration level:
/// engine-shaped nested `find_map_any` races under a 2-thread pool never
/// have more than 2 innermost closures live at once. (The unit-level
/// regression test lives in `vendor/rayon`; this one exercises the same
/// path through the workspace's actual dependency graph.)
#[test]
fn nested_find_map_any_stays_within_installed_bound() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let live = AtomicUsize::new(0);
    let max_seen = AtomicUsize::new(0);
    pool.install(|| {
        (0..6usize).into_par_iter().find_map_any(|_| {
            (0..6usize).into_par_iter().find_map_any(|_| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
                None::<()>
            })
        })
    });
    let max = max_seen.load(Ordering::SeqCst);
    assert!(max >= 1, "the race must have run at all");
    assert!(
        max <= 2,
        "nested races oversubscribed the 2-thread pool: {max} live workers"
    );
}

/// Same bound for the *ambient* pool (no installed pool): nested races
/// through the workspace dependency graph stay within `RAYON_NUM_THREADS`
/// — this is what the `=1`/`=2` CI jobs pin across the whole suite.
#[test]
fn ambient_nested_races_stay_within_env_bound() {
    let ambient = rayon::current_num_threads();
    let live = AtomicUsize::new(0);
    let max_seen = AtomicUsize::new(0);
    (0..6usize).into_par_iter().find_map_any(|_| {
        (0..6usize).into_par_iter().find_map_any(|_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            max_seen.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
            None::<()>
        })
    });
    let max = max_seen.load(Ordering::SeqCst);
    assert!(max >= 1, "the race must have run at all");
    assert!(
        max <= ambient,
        "ambient nested races exceeded RAYON_NUM_THREADS={ambient}: {max} live"
    );
}

/// `join`/`scope` directly (the primitives the engine's λc race now runs
/// on): a scope full of spawns that each run nested joins never exceeds
/// the pool's two workers.
#[test]
fn scope_and_join_respect_the_pool_bound() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let live = AtomicUsize::new(0);
    let max_seen = AtomicUsize::new(0);
    let tick = || {
        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
        max_seen.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(1));
        live.fetch_sub(1, Ordering::SeqCst);
    };
    pool.scope(|s| {
        for _ in 0..8 {
            s.spawn(|_| {
                rayon::join(|| rayon::join(tick, tick), || rayon::join(tick, tick));
            });
        }
    });
    let max = max_seen.load(Ordering::SeqCst);
    assert!(
        (1..=2).contains(&max),
        "scope/join bound violated: {max} live"
    );
}

/// The hybrid driver under the stealing pool, with the scheduler's own
/// activity surfaced: per-solve pools report steal/park counters through
/// `SolveStats`, and a corpus of hybrid solves (det-k handoffs under
/// 2-worker pools) both stays correct and actually exercises the
/// scheduler (workers park when idle and/or steal published λc leads).
#[test]
fn hybrid_handoffs_surface_scheduler_counters() {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 31,
        scale: 1.0 / 150.0,
    });
    let ctrl = Control::unlimited();
    let hybrid = LogK::hybrid(2);
    let mut handoffs = 0u64;
    let mut sched_activity = 0u64;
    let mut solves = 0usize;
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 24) {
        for k in 1..=3usize {
            let (d, stats) = hybrid.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            if let Some(d) = &d {
                validate_hd_width(&inst.hg, d, k).unwrap();
            }
            handoffs += stats.detk_handoffs;
            sched_activity += stats.sched_steals + stats.sched_parks;
            solves += 1;
            if d.is_some() {
                break;
            }
        }
    }
    assert!(solves > 10, "corpus slice unexpectedly small");
    assert!(
        handoffs > 0,
        "stress run must actually exercise det-k handoffs"
    );
    assert!(
        sched_activity > 0,
        "2-worker pools over {solves} solves must report steals or parks"
    );
}
