//! Micro benchmarks for the substrate hot paths: bitset algebra,
//! `[U]`-component computation, and bounded-subset enumeration — the three
//! loops every solver in the workspace spends its time in.
//!
//! The solver groups that measure the search itself (`neg_cache`,
//! `pos_cache`, `lp_prune`, `par_scaling`) call `LogK::search_with_stats`,
//! the search without the bounds pass: the pass would refute the twin-K5
//! instance at k = 2 outright (minor-min-width 4 ≥ k · r). The other
//! solver rows (`ctrl_overhead`, `race`) time the production path, pass
//! included.

use std::ops::ControlFlow;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use decomp::Control;
use hypergraph::subsets::{for_each_cover_subset_in, for_each_subset, CoverScratch, CoverStep};
use hypergraph::{
    separate, separate_into, Edge, Hypergraph, Scratch, Separation, SpecialArena, Subproblem,
    Vertex, VertexSet,
};
use logk::LogK;
use std::hint::black_box;
use workloads::{families, hyperbench_like, CorpusConfig};

fn bench_bitsets(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/bitset");
    let a = VertexSet::from_iter(4096, (0..4096).step_by(3).map(Vertex));
    let b = VertexSet::from_iter(4096, (0..4096).step_by(5).map(Vertex));
    let u = VertexSet::from_iter(4096, (0..4096).step_by(7).map(Vertex));
    g.bench_function("intersects_outside_4096", |bch| {
        bch.iter(|| black_box(&a).intersects_outside(black_box(&b), black_box(&u)))
    });
    g.bench_function("union_4096", |bch| {
        bch.iter_batched(
            || a.clone(),
            |mut x| {
                x.union_with(black_box(&b));
                x
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("iter_4096", |bch| {
        bch.iter(|| black_box(&a).iter().map(|v| v.0 as u64).sum::<u64>())
    });

    // Wide-instance group: the fused one-pass kernels against the chained
    // public-API sequence they replaced (copy + difference + intersect +
    // union — the pre-fusion engine hot path), at word-sized (64-bit),
    // 8-word (512-bit) and 32-word (2048-bit) set widths. The λp `bad`-set
    // assembly and the prefilter's exclusion count are the two shapes the
    // engine runs per λp candidate; the 32-word pair is the acceptance
    // measurement (fused ≥ 1.5× chained).
    for (label, nbits) in [("1w", 64usize), ("8w", 512), ("32w", 2048)] {
        let up = VertexSet::from_iter(nbits, (0..nbits).step_by(3).map(|v| Vertex(v as u32)));
        let uc = VertexSet::from_iter(nbits, (0..nbits).step_by(5).map(|v| Vertex(v as u32)));
        let vs = VertexSet::from_iter(nbits, (0..nbits).step_by(2).map(|v| Vertex(v as u32)));
        let cuc = VertexSet::from_iter(nbits, (0..nbits).step_by(7).map(|v| Vertex(v as u32)));
        let mut bad = VertexSet::empty(nbits);
        let mut tmp = VertexSet::empty(nbits);
        g.bench_function(format!("lp_bad_chained_{label}"), |bch| {
            bch.iter(|| {
                bad.copy_from(black_box(&up));
                bad.difference_with(black_box(&uc));
                bad.intersect_with(black_box(&vs));
                tmp.copy_from(black_box(&cuc));
                tmp.difference_with(black_box(&up));
                bad.union_with(&tmp);
                black_box(!bad.is_empty())
            })
        });
        g.bench_function(format!("lp_bad_fused_{label}"), |bch| {
            bch.iter(|| {
                let (_, nonempty) = bad.assign_lp_bad(
                    black_box(&up),
                    black_box(&uc),
                    black_box(&vs),
                    black_box(&cuc),
                );
                black_box(nonempty)
            })
        });
        g.bench_function(format!("count_and_or_chained_{label}"), |bch| {
            bch.iter(|| {
                tmp.copy_from(black_box(&up));
                tmp.intersect_with(black_box(&uc));
                tmp.union_with(black_box(&vs));
                black_box(tmp.len())
            })
        });
        g.bench_function(format!("count_and_or_fused_{label}"), |bch| {
            bch.iter(|| black_box(&up).count_intersect_union(black_box(&uc), black_box(&vs)))
        });
    }
    g.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/components");
    for (name, hg) in [
        ("cycle100", families::cycle(100)),
        ("grid6x6", families::grid(6, 6)),
        ("csp100", families::random_csp(7, 120, 100, 4)),
    ] {
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        // Separator: the union of three spread-out edges.
        let mut sep = hg.vertex_set();
        for e in [
            0u32,
            hg.num_edges() as u32 / 3,
            2 * hg.num_edges() as u32 / 3,
        ] {
            sep.union_with(hg.edge(Edge(e)));
        }
        // The allocating convenience wrapper…
        g.bench_function(name, |bch| {
            bch.iter(|| separate(black_box(&hg), &arena, &sub, black_box(&sep)))
        });
        // …versus the scratch-workspace hot path the engine actually runs:
        // identical output, zero steady-state allocations.
        let mut scratch = Scratch::new();
        let mut out = Separation::new();
        g.bench_function(format!("{name}_into"), |bch| {
            bch.iter(|| {
                separate_into(
                    black_box(&hg),
                    &arena,
                    &sub,
                    black_box(&sep),
                    &mut scratch,
                    &mut out,
                );
                out.components.len()
            })
        });
    }
    g.finish();
}

/// One decision by the search alone, without the bounds pass.
fn search(solver: &LogK, hg: &Hypergraph, k: usize) -> bool {
    let ctrl = Control::unlimited();
    solver.search_with_stats(hg, k, &ctrl).unwrap().0.is_some()
}

fn bench_neg_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/neg_cache");
    // Two K5 cliques sharing two vertices, searched at the failing width
    // k = 2: the textbook memoisation workload — the same failed
    // subproblems recur under many λ candidates, so the cached engine
    // refutes each once while the uncached engine re-explores it every
    // time (~80 hits, two orders of magnitude wall-clock). Plus a cyclic
    // bounded-width instance as the low-reuse contrast. Hit counts > 0
    // are asserted by tests/cache_differential.rs; here the wall-clock
    // delta is recorded.
    let mut edges = Vec::new();
    for a in 0..5u32 {
        for b in a + 1..5 {
            edges.push(vec![a, b]);
        }
    }
    for a in 3..8u32 {
        for b in a + 1..8 {
            edges.push(vec![a, b]);
        }
    }
    let twin_k5 = hypergraph::Hypergraph::from_edge_lists(&edges);
    let bounded = workloads::known_width(workloads::KnownWidthConfig::new(11, 40, 3)).0;
    for (name, hg, k) in [
        ("twin_k5_k2_neg", &twin_k5, 2usize),
        ("bounded40_k2", &bounded, 2),
    ] {
        let cached = LogK::sequential();
        let uncached = LogK::sequential().with_cache_bytes(0);
        g.bench_function(format!("{name}_cached"), |bch| {
            bch.iter(|| black_box(search(&cached, black_box(hg), k)))
        });
        g.bench_function(format!("{name}_uncached"), |bch| {
            bch.iter(|| black_box(search(&uncached, black_box(hg), k)))
        });
    }
    g.finish();
}

fn bench_pos_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/pos_cache");
    // The positive-memoisation showcase: the 5×6 grid at its true width
    // k = 3. The search keeps re-deriving the same *solvable* subproblems
    // — below-fragments recomputed across λp retries and recursion levels
    // (~100 positive hits, plus heavy negative reuse) — so the unified
    // cache turns an ~8.8 s uncached solve into ~0.2 s (~40×). This is
    // the repeated-subproblem positive corpus of the PR 2 acceptance
    // criterion (≥ 2× required; measured ~40×).
    let grid = families::grid(5, 6);
    let cached = LogK::sequential();
    let uncached = LogK::sequential().with_cache_bytes(0);
    g.bench_function("grid5x6_k3_pos_cached", |bch| {
        bch.iter(|| black_box(search(&cached, black_box(&grid), 3)))
    });
    g.bench_function("grid5x6_k3_pos_uncached", |bch| {
        bch.iter(|| black_box(search(&uncached, black_box(&grid), 3)))
    });
    g.finish();
}

fn bench_lp_prune(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/lp_prune");
    // The λp admissibility pre-filter showcase: the 4×4 grid at its true
    // width k = 3. Grid searches reject millions of λp candidates per
    // solve, and most rejections are decidable from coverage bitmasks
    // alone — with the pre-filter on, the `[λp]`-BFS runs ~10× less often
    // (17 004 → 1 696 `separate_into` calls on this instance; ~22–36× on
    // the larger grids the sweep counters track) for a ~2.5× wall-clock
    // win. The differential suite (tests/lp_prefilter_differential.rs)
    // pins that both modes return identical, validated answers.
    let grid = families::grid(4, 4);
    let filtered = LogK::sequential();
    let unfiltered = LogK::sequential().with_lambda_p_prefilter(false);
    g.bench_function("grid4x4_k3_prefiltered", |bch| {
        bch.iter(|| black_box(search(&filtered, black_box(&grid), 3)))
    });
    g.bench_function("grid4x4_k3_unfiltered", |bch| {
        bch.iter(|| black_box(search(&unfiltered, black_box(&grid), 3)))
    });

    // Wide variant: the 260-vertex cycle at its true width k = 2. Every
    // vertex set spans five 64-bit words, so the pre-filter's per-pair
    // walks touch several words per `bad` vertex here.
    let wide = families::cycle(260);
    let wide_unf = LogK::sequential().with_lambda_p_prefilter(false);
    g.bench_function("cycle260_k2_prefiltered", |bch| {
        bch.iter(|| black_box(search(&filtered, black_box(&wide), 2)))
    });
    g.bench_function("cycle260_k2_unfiltered", |bch| {
        bch.iter(|| black_box(search(&wide_unf, black_box(&wide), 2)))
    });
    g.finish();
}

fn bench_par_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/par_scaling");
    // Parallel-runtime scaling probe on 1/2/4 workers. A solve on two or
    // more workers runs work-first: inline on the bench thread for up to
    // `INLINE_SEPARATIONS` (1000) separations, and in the pool, racing its
    // λc leads at depths < 2, only past them. The 4×4 grid at its true
    // width k = 3 needs 685 separations, so `grid4x4_k3_t{2,4}` answer
    // inline and time the gate: they should read as `grid4x4_k3_t1`,
    // where `LogK::parallel(1)` is `LogK::sequential()` and never has a
    // pool. The disjoint union below needs 1370, so
    // `dgrid4x4x2_k3_t2` still times the race — join-splitting of the
    // lead space, steal latency and early-cancel — after the spent
    // inline phase. The `_t2`/`_t4` pools come from the process-wide
    // cache (`logk::shared_pool`), as in production: the first solve
    // that enters one pays the one-off spawn, every later one reuses the
    // warm workers.
    let grid = families::grid(4, 4);
    for threads in [1usize, 2, 4] {
        let solver = LogK::parallel(threads);
        g.bench_function(format!("grid4x4_k3_t{threads}"), |bch| {
            bch.iter(|| black_box(search(&solver, black_box(&grid), 3)))
        });
    }
    // A disjoint union of two 4×4 grids: the empty root connector splits
    // every root candidate into one `[λc]`-component per grid. The
    // components recurse in order; only the λc race runs in parallel, and
    // at 2 workers it runs past the inline budget.
    let multi = families::disjoint_union(&[families::grid(4, 4), families::grid(4, 4)]);
    for threads in [1usize, 2] {
        let solver = LogK::parallel(threads);
        g.bench_function(format!("dgrid4x4x2_k3_t{threads}"), |bch| {
            bch.iter(|| black_box(search(&solver, black_box(&multi), 3)))
        });
    }
    g.finish();
}

fn bench_ctrl_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/ctrl_overhead");
    // The cancellation tax: `Control::checkpoint` sits on every solver's
    // innermost loop, so its cost *is* the price of interruptibility.
    // Three tiers, in ascending work per poll:
    //   - unlimited: one relaxed load of the stop flag;
    //   - deadline: plus the per-thread poll-stride bookkeeping (clock
    //     consulted every CLOCK_STRIDE-th poll, amortised to ~nothing);
    //   - deep child: plus the ancestor stop-flag walk a service's
    //     root→request→per-width control chain pays (depth 3 here).
    // Each iteration runs 1024 checkpoints so per-call cost lands in a
    // measurable range; divide the reported time by 1024.
    const POLLS_PER_ITER: u32 = 1024;
    let unlimited = Control::unlimited();
    g.bench_function("checkpoint_unlimited_x1024", |bch| {
        bch.iter(|| {
            for _ in 0..POLLS_PER_ITER {
                black_box(black_box(&unlimited).checkpoint().is_ok());
            }
        })
    });
    let deadline = Control::with_timeout(std::time::Duration::from_secs(3600));
    g.bench_function("checkpoint_deadline_x1024", |bch| {
        bch.iter(|| {
            for _ in 0..POLLS_PER_ITER {
                black_box(black_box(&deadline).checkpoint().is_ok());
            }
        })
    });
    let root = std::sync::Arc::new(Control::with_timeout(std::time::Duration::from_secs(3600)));
    let grandchild = root.child().child();
    g.bench_function("checkpoint_child_depth3_x1024", |bch| {
        bch.iter(|| {
            for _ in 0..POLLS_PER_ITER {
                black_box(black_box(&grandchild).checkpoint().is_ok());
            }
        })
    });
    // End-to-end: the same solve polled through an unlimited control
    // versus a (never-firing) deadline chain — the whole-solve overhead
    // the service adds to every request. The two medians should be
    // within noise of each other; that *is* the claim.
    let cyc = families::cycle(24);
    let solver = LogK::sequential();
    g.bench_function("solve_cycle24_k2_unlimited", |bch| {
        bch.iter(|| {
            let ctrl = Control::unlimited();
            black_box(solver.decide(black_box(&cyc), 2, &ctrl).unwrap())
        })
    });
    g.bench_function("solve_cycle24_k2_deadline_chain", |bch| {
        bch.iter(|| {
            let root =
                std::sync::Arc::new(Control::with_timeout(std::time::Duration::from_secs(3600)));
            let ctrl = root.child();
            black_box(solver.decide(black_box(&cyc), 2, &ctrl).unwrap())
        })
    });
    g.finish();
}

fn bench_subsets(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/subsets");
    let cands: Vec<Edge> = (0..30).map(Edge).collect();
    g.bench_function("enumerate_30_choose_le2", |bch| {
        bch.iter(|| {
            let mut n = 0u64;
            for_each_subset::<()>(black_box(&cands), 2, |s| {
                n += s.len() as u64;
                ControlFlow::Continue(())
            });
            n
        })
    });
    // A space of the same size (the 30 edges of a 30-cycle, ≤ 2 picks),
    // restricted to labels that cover a connector of two opposite cycle
    // vertices (4 of the 465 subsets).
    let cyc = families::cycle(30);
    let conn = VertexSet::from_iter(cyc.num_vertices(), [Vertex(0), Vertex(15)]);
    let cyc_cands: Vec<Edge> = cyc.edge_ids().collect();
    let mut cover = CoverScratch::default();
    g.bench_function("cover_walk_30_choose_le2", |bch| {
        bch.iter(|| {
            let mut n = 0u64;
            for_each_cover_subset_in::<()>(
                &cyc,
                black_box(&cyc_cands),
                black_box(&conn),
                2,
                &mut cover,
                |step| {
                    if let CoverStep::Visit(s) = step {
                        n += s.len() as u64;
                    }
                    ControlFlow::Continue(())
                },
            );
            n
        })
    });
    g.finish();
}

/// det-k-decomp refutations, which walk the whole connector-cover label
/// space: `clique8_k3` (hw 4) and the corpus instance whose hybrid k = 2
/// refutation was the slowest in the `hb_sweep_t1` sweep (hw 3).
fn bench_detk(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/detk");
    let csp = hyperbench_like(CorpusConfig::default())
        .into_iter()
        .find(|inst| inst.name == "syn_csp_074e_0010")
        .expect("the default corpus holds syn_csp_074e_0010")
        .hg;
    for (name, hg, k) in [
        ("clique8_k3", families::clique(8), 3),
        ("syn_csp_074e_0010_k2", csp, 2),
    ] {
        assert!(!detk::decide_detk(&hg, k, &Control::unlimited()).unwrap());
        g.bench_function(name, |bch| {
            bch.iter(|| {
                let ctrl = Control::unlimited();
                black_box(detk::decide_detk(black_box(&hg), k, &ctrl).unwrap())
            })
        });
    }
    g.finish();
}

/// The racing layer: the anytime width sweep and the algorithm
/// portfolio, on three corpus families with deliberately different
/// per-width cost profiles.
///
/// * `grid6x6_b700` — the slice-burn family. With a 700 ms per-width
///   budget, k = 3 is undecidable inside its slice (refuting it takes
///   ~1.6 s alone) while k = 4 witnesses in ~300 ms, so the sweep pays
///   the burn and then the witness (~1.0 s), with certified bounds
///   `[3, 4]` and a recorded timeout.
/// * `band_cycle120` — the all-fast contrast (hw = 2, every width
///   millisecond-scale).
/// * `chorded48` — a pure refutation ladder (every width up to `k_max`
///   refuted).
///
/// The `*_sweep_seq` arms time `width_bounds_with`, the sweep a
/// `MinimalWidth` request runs. The `*_portfolio_k*` arms race the
/// portfolio's field (`logk-seq` against `detk`) at a fixed width.
/// When the filter selects the group, each configuration also runs once
/// outside the timing loop to report verdicts, winners and race
/// counters to stderr.
fn bench_race(c: &mut Criterion) {
    use std::sync::Arc;
    use std::time::Duration;

    let mut g = c.benchmark_group("micro/race");
    let fams: Vec<(&str, hypergraph::Hypergraph, usize, Option<Duration>, usize)> = vec![
        (
            "grid6x6_b700",
            families::grid(6, 6),
            4,
            Some(Duration::from_millis(700)),
            2,
        ),
        ("band_cycle120", families::band_cycle(120, 4, 2), 4, None, 2),
        ("chorded48", families::chorded_cycle(48, 16, 3), 3, None, 3),
    ];
    let port = portfolio::Portfolio::default();
    for (name, hg, k_max, budget, port_k) in &fams {
        let sweep = || {
            let ctrl = Arc::new(Control::unlimited());
            logk::width_bounds_with(hg, *k_max, &ctrl, *budget, |_| LogK::sequential())
        };
        if g.selected() {
            let b = sweep();
            eprintln!(
                "micro/race {name}_sweep_seq: bounds=[{}, {:?}] witness={}",
                b.proven_lower,
                b.best_upper,
                b.witness.is_some(),
            );
            let ctrl = Arc::new(Control::unlimited());
            let out = port.race(hg, *port_k, &ctrl);
            eprintln!(
                "micro/race {name}_portfolio_k{port_k}: verdict={} winner={} \
                 probes={} race_cancels={} speculative_wasted={}",
                match &out.verdict {
                    Ok(Some(_)) => "witness",
                    Ok(None) => "refuted",
                    Err(_) => "interrupted",
                },
                out.winner.map_or("none", |w| w.name()),
                out.stats.probes,
                out.stats.race_cancels,
                out.stats.speculative_wasted,
            );
        }
        g.bench_function(format!("{name}_sweep_seq"), |bch| {
            bch.iter(|| black_box(sweep()))
        });
        g.bench_function(format!("{name}_portfolio_k{port_k}"), |bch| {
            bch.iter(|| {
                let ctrl = Arc::new(Control::unlimited());
                black_box(port.race(black_box(hg), *port_k, &ctrl))
            })
        });
    }
    g.finish();
}

fn bench_gyo(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/gyo");
    for (name, hg) in [
        ("chain60", families::chain(60, 3)),
        ("cycle60", families::cycle(60)),
    ] {
        g.bench_function(name, |bch| {
            bch.iter(|| hypergraph::is_acyclic(black_box(&hg)))
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(400))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_bitsets, bench_components, bench_subsets, bench_detk, bench_gyo, bench_neg_cache, bench_pos_cache, bench_lp_prune, bench_par_scaling, bench_ctrl_overhead, bench_race
}
criterion_main!(benches);
