//! The in-process workloads: `hb_sweep_t1` (optimal-width sweeps over
//! the HyperBench-shaped corpus at one thread) and `hblarge_t2`
//! (decisions at the certified width over `HB_large` at two threads).
//!
//! One load thread walks the committed instance list in passes, each in
//! a seed-shuffled order. Every witness is certified inline with
//! `decomp::validate_hd_width`, as the paper's runner does; a wrong
//! verdict or an invalid witness ends the run with a non-zero exit.

use std::time::{Duration, Instant};

use decomp::{validate_hd_width, Control, Decomposition};
use hypergraph::Hypergraph;
use logk::{LogK, SolveStats};

use crate::corpus::{self, Source, Task};
use crate::report::{self, median, ms, percentile, ratio, Metrics, Outcome};
use crate::trace::Tracer;
use crate::{fatal, Args};

/// Whole-operation deadline: far above any listed instance's calibrated
/// time (calibration keeps instances under [`CALIBRATION_BUDGET`]).
pub const OP_DEADLINE: Duration = Duration::from_secs(10);
/// Per-instance budget of calibration.
pub const CALIBRATION_BUDGET: Duration = Duration::from_millis(300);
/// Set-ups per run; `setup_s` is the median of their quieter half.
const SETUP_REPEATS: usize = 9;
/// Operations solved (untimed) at the end of each set-up.
const WARMUP_OPS: usize = 16;

/// What one operation asks of an instance.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Decide k = 1, 2, … up to the first witness; expect the optimum.
    Sweep,
    /// Decide `hw ≤ k` at the listed width; expect "yes".
    Decide,
}

pub struct Spec {
    pub name: &'static str,
    pub mode: Mode,
    /// The solver family, given a thread count.
    pub solver: fn(usize) -> LogK,
    pub threads: usize,
    pub sources: fn() -> Vec<Source>,
}

impl Spec {
    /// The workload's solver on `threads` workers of the shared pool.
    pub fn solver(&self, threads: usize) -> LogK {
        (self.solver)(threads).with_pool(logk::shared_pool(threads))
    }
}

pub const HB_SWEEP_T1: Spec = Spec {
    name: "hb_sweep_t1",
    mode: Mode::Sweep,
    solver: LogK::hybrid,
    threads: 1,
    sources: corpus::hyperbench,
};

pub const HBLARGE_T2: Spec = Spec {
    name: "hblarge_t2",
    mode: Mode::Decide,
    // Not `hybrid`: its WeightedCount metric hands every HB_large
    // instance to det-k-decomp at the root, which would leave log-k's
    // parallel search unmeasured.
    solver: LogK::parallel,
    threads: 2,
    sources: corpus::hb_large,
};

/// Engine counters of one or more operations, summed.
#[derive(Default)]
pub struct Counters {
    pub calls: u64,
    pub decomp_calls: u64,
    pub max_depth: usize,
    pub separations: u64,
    pub lambda_c_rejected: u64,
    pub lambda_p_rejected: u64,
    pub lambda_p_prefiltered: u64,
    pub cache_hits: u64,
    pub cache_probes: u64,
    pub cache_evictions: u64,
    pub child_splits: u64,
    pub child_cancels: u64,
    pub steals: u64,
    pub parks: u64,
    pub detk_handoffs: u64,
    pub memo_hits: u64,
    pub memo_probes: u64,
}

impl Counters {
    fn add(&mut self, s: &SolveStats) {
        self.calls += 1;
        self.decomp_calls += s.decomp_calls;
        self.max_depth = self.max_depth.max(s.max_depth);
        self.separations += s.separations;
        self.lambda_c_rejected += s.lambda_c_rejected;
        self.lambda_p_rejected += s.lambda_p_rejected;
        self.lambda_p_prefiltered += s.lambda_p_prefiltered;
        self.cache_hits += s.cache.hits();
        self.cache_probes += s.cache.hits() + s.cache.misses;
        self.cache_evictions += s.cache.evictions;
        self.child_splits += s.child_splits;
        self.child_cancels += s.child_cancels;
        self.steals += s.sched_steals;
        self.parks += s.sched_parks;
        self.detk_handoffs += s.detk_handoffs;
        self.memo_hits += s.detk_memo.hits;
        self.memo_probes += s.detk_memo.hits + s.detk_memo.misses;
    }
}

/// Runs one operation on `task`. `Ok(true)` is a certified answer,
/// `Ok(false)` a deadline hit; a wrong verdict or witness is fatal.
pub fn solve_op(
    mode: Mode,
    solver: &LogK,
    task: &Task,
    deadline: Duration,
    tracer: &Tracer,
    op: u64,
    counters: &mut Counters,
) -> bool {
    let root = tracer.open("op", op, 0);
    let ctrl = Control::with_timeout(deadline);
    let first = match mode {
        Mode::Sweep => 1,
        Mode::Decide => task.k,
    };
    let mut answered = false;
    for k in first..=task.k {
        let span = tracer.open("logk.solve", op, root.id());
        let result = solver.decompose_with_stats(&task.hg, k, &ctrl);
        let Ok((witness, stats)) = result else {
            tracer.close(span);
            break;
        };
        counters.add(&stats);
        match witness {
            None if k < task.k => tracer.close_as(span, "logk.no"),
            None => fatal(&format!(
                "{}: no decomposition of width {k}, expected one",
                task.name
            )),
            Some(_) if k < task.k => fatal(&format!(
                "{}: witness at width {k}, below the expected optimum {}",
                task.name, task.k
            )),
            Some(d) => {
                tracer.close_as(span, "logk.yes");
                certify(&task.name, &task.hg, &d, k, tracer, op, root.id());
                answered = true;
            }
        }
    }
    tracer.close(root);
    answered
}

/// Validates `d` as a hypertree decomposition of `hg` of width ≤ `k`.
pub fn certify(
    name: &str,
    hg: &Hypergraph,
    d: &Decomposition,
    k: usize,
    tracer: &Tracer,
    op: u64,
    parent: u64,
) {
    let span = tracer.open("decomp.validate", op, parent);
    if let Err(v) = validate_hd_width(hg, d, k) {
        fatal(&format!("{name}: invalid witness at width {k}: {v:?}"));
    }
    tracer.close(span);
}

/// Generates, selects and builds the listed instances of `spec`.
pub fn load_tasks(spec: &Spec, tracer: &Tracer) -> (Vec<Task>, usize) {
    let gen = tracer.open("workloads.gen", 0, 0);
    let sources = (spec.sources)();
    tracer.close(gen);
    let list = corpus::list(spec.name);
    let selected = corpus::select(sources, &list).unwrap_or_else(|e| fatal(&e));
    let build = tracer.open("hypergraph.build", 0, 0);
    let tasks = selected
        .into_iter()
        .map(|(s, k)| Task {
            hg: Hypergraph::from_edge_lists(&s.edges),
            name: s.name,
            k,
        })
        .collect();
    tracer.close(build);
    (tasks, list.excluded)
}

struct Pass {
    wall: Duration,
    /// Share of the allowed CPUs' time the hypervisor stole meanwhile.
    steal: f64,
    traced: bool,
}

pub fn run(spec: &Spec, args: &Args) -> (Metrics, Outcome) {
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let mut metrics = Metrics::default();

    // Set-up, repeated; the last one's state is measured.
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let steal0 = report::steal_ticks();
        let t0 = Instant::now();
        let (tasks, excluded) = load_tasks(spec, &tracer);
        let solver = spec.solver(spec.threads);
        let mut warm = Counters::default();
        for (i, task) in tasks.iter().take(WARMUP_OPS).enumerate() {
            solve_op(
                spec.mode,
                &solver,
                task,
                OP_DEADLINE,
                &off,
                i as u64,
                &mut warm,
            );
        }
        let wall = t0.elapsed();
        setups.push((wall.as_secs_f64(), report::steal_frac(steal0, wall)));
        state = Some((tasks, excluded, solver));
    }
    let (tasks, excluded, solver) = state.expect("at least one set-up");
    metrics.set("setup_s", report::quiet_median(&setups));

    // Timed passes: every other pass is traced in a traced run, so the
    // tracing overhead is measured inside one process.
    let mut counters = Counters::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut per_task: Vec<Vec<f64>> = vec![Vec::new(); tasks.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut op = 0u64;
    let cpu0 = report::process_cpu();
    let steal0 = report::steal_ticks();
    let started = Instant::now();
    while passes.len() < args.min_passes() || started.elapsed() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        let tr = if traced { &tracer } else { &off };
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        corpus::shuffle(&mut order, &mut corpus::rng(args.seed, passes.len() as u64));
        let steal0 = report::steal_ticks();
        let t0 = Instant::now();
        for &i in &order {
            op += 1;
            attempted += 1;
            let s = Instant::now();
            if solve_op(
                spec.mode,
                &solver,
                &tasks[i],
                OP_DEADLINE,
                tr,
                op,
                &mut counters,
            ) {
                if !traced {
                    per_task[i].push(ms(s.elapsed()));
                }
            } else {
                failed += 1;
                eprintln!("{}: {} hit the deadline", spec.name, tasks[i].name);
            }
        }
        let wall = t0.elapsed();
        passes.push(Pass {
            wall,
            steal: report::steal_frac(steal0, wall),
            traced,
        });
    }
    let cpu = report::process_cpu().saturating_sub(cpu0);
    let steal = report::steal_frac(steal0, started.elapsed());
    let ok = attempted - failed;
    // Each instance's median over the untraced passes: a burst of
    // machine noise (on a shared VM, the hypervisor taking the CPU away
    // for tens of milliseconds) moves no instance's figure, while it
    // lands in nearly every pass's wall time. All passes count, not only
    // the quieter half as in `wire_mix`: a run makes as few as nine.
    let latencies: Vec<f64> = per_task
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| median(l))
        .collect();
    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall.as_secs_f64())
            .collect()
    };
    // The list's total solve time, each instance at its median.
    let batch = latencies.iter().sum::<f64>() / 1e3;
    metrics.set("batch_s", batch);
    metrics.set(
        "throughput_rps",
        ratio(ok as f64 / passes.len() as f64, batch),
    );
    metrics.set("latency_p50_ms", percentile(&latencies, 0.50));
    metrics.set("latency_p95_ms", percentile(&latencies, 0.95));
    metrics.set("success_frac", ratio(ok as f64, attempted as f64));
    metrics.set("peak_rss_mib", report::peak_rss_mib());
    metrics.set("cpu_ms_per_op", ratio(ms(cpu), ok as f64));
    eprintln!(
        "{}: {} instances ({} excluded by calibration), {} passes, {} ops, {} failed, \
         steal {:.1}%; pass walls {:.3?}",
        spec.name,
        tasks.len(),
        excluded,
        passes.len(),
        attempted,
        failed,
        steal * 100.0,
        passes
            .iter()
            .map(|p| (p.wall.as_secs_f64(), p.steal))
            .collect::<Vec<_>>()
    );

    if args.trace {
        let n = passes.len() as f64;
        let traced_passes = walls(true).len().max(1) as f64;
        let per_pass = |x: u64| x as f64 / n;
        metrics.set(
            "workloads.gen_ms",
            tracer.total_ms("workloads.gen") / SETUP_REPEATS as f64,
        );
        metrics.set("workloads.excluded", excluded as f64);
        metrics.set(
            "hypergraph.build_ms",
            tracer.total_ms("hypergraph.build") / SETUP_REPEATS as f64,
        );
        metrics.set(
            "hypergraph.words_max",
            tasks
                .iter()
                .map(|t| corpus::words(&t.hg))
                .max()
                .unwrap_or(0) as f64,
        );
        metrics.set("logk.yes_ms", tracer.total_ms("logk.yes") / traced_passes);
        metrics.set("logk.no_ms", tracer.total_ms("logk.no") / traced_passes);
        metrics.set(
            "decomp.validate_ms",
            tracer.total_ms("decomp.validate") / traced_passes,
        );
        metrics.set("logk.calls", per_pass(counters.calls));
        metrics.set("logk.decomp_calls", per_pass(counters.decomp_calls));
        metrics.set("logk.max_depth", counters.max_depth as f64);
        metrics.set("logk.separations", per_pass(counters.separations));
        metrics.set(
            "logk.lambda_c_rejected",
            per_pass(counters.lambda_c_rejected),
        );
        metrics.set(
            "logk.lambda_p_rejected",
            per_pass(counters.lambda_p_rejected),
        );
        metrics.set(
            "logk.lambda_p_prefiltered",
            per_pass(counters.lambda_p_prefiltered),
        );
        metrics.set(
            "logk.cache_hit_ratio",
            ratio(counters.cache_hits as f64, counters.cache_probes as f64),
        );
        metrics.set("logk.cache_evictions", per_pass(counters.cache_evictions));
        metrics.set("logk.child_splits", per_pass(counters.child_splits));
        metrics.set("logk.child_cancels", per_pass(counters.child_cancels));
        metrics.set("rayon.steals", per_pass(counters.steals));
        metrics.set("rayon.parks", per_pass(counters.parks));
        metrics.set("detk.handoffs", per_pass(counters.detk_handoffs));
        metrics.set(
            "detk.memo_hit_ratio",
            ratio(counters.memo_hits as f64, counters.memo_probes as f64),
        );
        metrics.set("env.steal_frac", steal);
        let share = latencies.iter().copied().fold(0.0, f64::max);
        metrics.set("logk.max_instance_share", ratio(share / 1e3, batch));
        metrics.set(
            "trace.batch_s_ratio",
            ratio(median(&walls(true)), median(&walls(false))),
        );
        metrics.set(
            "trace.throughput_ratio",
            ratio(median(&walls(false)), median(&walls(true))),
        );
        metrics.set("logk.t2_speedup", t2_speedup(spec, &tasks));
        let path = crate::spans_path(spec.name, args.seed);
        if let Err(e) = tracer.write(&path) {
            eprintln!(
                "{}: could not write spans to {}: {e}",
                spec.name,
                path.display()
            );
        }
    }
    (metrics, Outcome { attempted, failed })
}

/// Wall time of the first half of the list at one thread over the same
/// slice at two threads, in fixed order.
fn t2_speedup(spec: &Spec, tasks: &[Task]) -> f64 {
    let slice = &tasks[..tasks.len().div_ceil(2)];
    let off = Tracer::new(false);
    let time = |threads: usize| {
        let solver = spec.solver(threads);
        let mut c = Counters::default();
        let t0 = Instant::now();
        for (i, task) in slice.iter().enumerate() {
            solve_op(
                spec.mode,
                &solver,
                task,
                OP_DEADLINE,
                &off,
                i as u64,
                &mut c,
            );
        }
        t0.elapsed().as_secs_f64()
    };
    ratio(time(1), time(2))
}
