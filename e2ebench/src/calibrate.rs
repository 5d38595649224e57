//! Calibration mode: builds the committed instance lists.
//!
//! `e2ebench --calibrate <workload>` regenerates the workload's source
//! instances, keeps those that finish inside the calibration budget,
//! cross-checks every kept verdict once against `detk::decide_detk` (an
//! independent engine), and writes `lists/<workload>.tsv`. Instances
//! that reach a budget, or whose cross-check does not finish, are
//! excluded and counted in the list header.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use decomp::{validate_hd_width, Control};
use hypergraph::Hypergraph;
use logk::LogK;

use crate::corpus::{self, content_hash, Source};
use crate::fatal;
use crate::inproc::{self, Mode, Spec, CALIBRATION_BUDGET};
use crate::wire_mix::Job;

/// Widest sweep calibration tries before excluding an instance.
const K_MAX: usize = 12;
/// Budget of one cross-check decision.
const CROSS_CHECK_BUDGET: Duration = Duration::from_secs(10);
/// Budget of a fresh wire-mix base instance: its solve must take
/// milliseconds.
pub const FRESH_BUDGET: Duration = Duration::from_millis(50);
/// Budget of a hot wire-mix shape's sweep or decision.
const HOT_BUDGET: Duration = Duration::from_secs(30);
/// Budget of the SAT refutation behind a cross-check.
const SAT_BUDGET: Duration = Duration::from_secs(60);

struct Kept {
    name: String,
    hash: u64,
    k: usize,
    ms: f64,
}

#[derive(Default)]
struct Tally {
    kept: Vec<Kept>,
    over_budget: usize,
    unchecked: usize,
}

/// Optimal width by sweeping k = 1.. under one budget; the witness is
/// validated. `None` when the budget fires or no k ≤ `K_MAX` works.
fn sweep(solver: &LogK, name: &str, hg: &Hypergraph, budget: Duration) -> Option<usize> {
    let ctrl = Control::with_timeout(budget);
    for k in 1..=K_MAX {
        match solver.decompose(hg, k, &ctrl) {
            Ok(None) => continue,
            Ok(Some(d)) => {
                if let Err(v) = validate_hd_width(hg, &d, k) {
                    fatal(&format!("{name}: invalid witness at width {k}: {v:?}"));
                }
                return Some(k);
            }
            Err(_) => return None,
        }
    }
    None
}

/// Decides `hw ≤ k` under `budget`, validating a witness.
fn decide(solver: &LogK, name: &str, hg: &Hypergraph, k: usize, budget: Duration) -> Option<bool> {
    let ctrl = Control::with_timeout(budget);
    match solver.decompose(hg, k, &ctrl) {
        Ok(Some(d)) => {
            if let Err(v) = validate_hd_width(hg, &d, k) {
                fatal(&format!("{name}: invalid witness at width {k}: {v:?}"));
            }
            Some(true)
        }
        Ok(None) => Some(false),
        Err(_) => None,
    }
}

/// Answers `hw ≤ k` with an engine independent of log-k-decomp:
/// det-k-decomp, or for a refutation it cannot finish, an unsatisfiable
/// `ghw ≤ k` SAT encoding (every HD is a GHD, so `ghw > k` ⇒ `hw > k`).
/// `None` when neither finishes.
fn independent(hg: &Hypergraph, k: usize) -> Option<bool> {
    let ctrl = Control::with_timeout(CROSS_CHECK_BUDGET);
    if let Ok(verdict) = detk::decide_detk(hg, k, &ctrl) {
        return Some(verdict);
    }
    let ctrl = Control::with_timeout(SAT_BUDGET);
    match htdsat::decide_ghw(hg, k, &ctrl) {
        Ok(None) => Some(false),
        _ => None,
    }
}

/// Cross-checks `hw = w` (`exact`), `hw ≤ w`, or — for `w > k_job` on
/// a decision at `k_job` — `hw > k_job`. `None` when a check does not
/// finish; a disagreement is fatal.
fn cross_check(
    name: &str,
    hg: &Hypergraph,
    w: usize,
    exact: bool,
    k_job: Option<usize>,
) -> Option<()> {
    if let Some(k) = k_job.filter(|&k| w > k) {
        if independent(hg, k)? {
            fatal(&format!("{name}: the independent engine finds width {k}"));
        }
        return Some(());
    }
    if !independent(hg, w)? {
        fatal(&format!("{name}: the independent engine refutes width {w}"));
    }
    if exact && w > 1 && independent(hg, w - 1)? {
        fatal(&format!(
            "{name}: the independent engine finds width {}, below {w}",
            w - 1
        ));
    }
    Some(())
}

fn calibrate_inproc(spec: &Spec, tally: &mut Tally) {
    let solver = spec.solver(spec.threads);
    for s in (spec.sources)() {
        let hg = Hypergraph::from_edge_lists(&s.edges);
        let t0 = Instant::now();
        let k = match spec.mode {
            Mode::Sweep => sweep(&solver, &s.name, &hg, CALIBRATION_BUDGET),
            Mode::Decide => {
                let k = s
                    .width_upper
                    .expect("HB_large instances carry a width bound");
                match decide(&solver, &s.name, &hg, k, CALIBRATION_BUDGET) {
                    Some(true) => Some(k),
                    Some(false) => fatal(&format!("{}: refuted at its certified width", s.name)),
                    None => None,
                }
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        keep(s, &hg, k, ms, spec.mode == Mode::Sweep, None, tally);
    }
}

fn keep(
    s: Source,
    hg: &Hypergraph,
    k: Option<usize>,
    ms: f64,
    exact: bool,
    k_job: Option<usize>,
    tally: &mut Tally,
) {
    let Some(k) = k else {
        tally.over_budget += 1;
        eprintln!("calibrate: {} over budget, excluded", s.name);
        return;
    };
    if cross_check(&s.name, hg, k, exact, k_job).is_none() {
        tally.unchecked += 1;
        eprintln!("calibrate: {} cross-check did not finish, excluded", s.name);
        return;
    }
    tally.kept.push(Kept {
        hash: content_hash(&s.edges),
        name: s.name,
        k,
        ms,
    });
}

fn calibrate_wire(tally: &mut Tally) {
    let solver = LogK::sequential();
    for s in corpus::hot_shapes() {
        let hg = Hypergraph::from_edge_lists(&s.edges);
        let t0 = Instant::now();
        // A decision row records `k` for "yes" and `k + 1` (a proven
        // lower bound) for "no"; the sweep row records the exact width.
        let (w, k_job) = match crate::wire_mix::hot_job(&s.name) {
            (Job::Sweep, _) => (sweep(&solver, &s.name, &hg, HOT_BUDGET), None),
            (Job::Decide, k) => {
                let verdict = decide(&solver, &s.name, &hg, k, HOT_BUDGET);
                (verdict.map(|yes| if yes { k } else { k + 1 }), Some(k))
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if w.is_none() {
            fatal(&format!(
                "hot shape {} has no verdict within budget",
                s.name
            ));
        }
        keep(s, &hg, w, ms, k_job.is_none(), k_job, tally);
    }
    for s in corpus::application_cqs() {
        let hg = Hypergraph::from_edge_lists(&s.edges);
        let k = s.width_upper.expect("filtered on a certified width");
        let t0 = Instant::now();
        let verdict = decide(&solver, &s.name, &hg, k, FRESH_BUDGET);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if verdict == Some(false) {
            fatal(&format!("{}: refuted at its certified width", s.name));
        }
        keep(s, &hg, verdict.map(|_| k), ms, false, None, tally);
    }
}

pub fn run(workload: &str) {
    let mut tally = Tally::default();
    let (generator, budget) = match workload {
        "hb_sweep_t1" => {
            calibrate_inproc(&inproc::HB_SWEEP_T1, &mut tally);
            (
                "hyperbench_like(CorpusConfig::default()), LogK::hybrid(1) sweeps".to_string(),
                CALIBRATION_BUDGET,
            )
        }
        "hblarge_t2" => {
            calibrate_inproc(&inproc::HBLARGE_T2, &mut tally);
            (
                format!(
                    "hb_large_like({:#x}, {}), LogK::parallel(2) decisions at width_upper",
                    corpus::HBLARGE_SEED,
                    corpus::HBLARGE_COUNT
                ),
                CALIBRATION_BUDGET,
            )
        }
        "wire_mix" => {
            calibrate_wire(&mut tally);
            (
                "hot loadgen shapes, then Application CQs of hyperbench_like(CorpusConfig::default()) \
                 with a certified width, LogK::sequential decisions"
                    .to_string(),
                FRESH_BUDGET,
            )
        }
        other => fatal(&format!("unknown workload {other}")),
    };
    let total_ms: f64 = tally.kept.iter().map(|k| k.ms).sum();
    let mut out = String::new();
    let _ = writeln!(out, "# e2ebench calibrated list for {workload}");
    let _ = writeln!(out, "# generator: {generator}");
    let _ = writeln!(
        out,
        "# budget_ms={} kept={} over_budget={} cross_check_unfinished={} kept_total_ms={total_ms:.1}",
        budget.as_millis(),
        tally.kept.len(),
        tally.over_budget,
        tally.unchecked
    );
    let _ = writeln!(out, "# excluded={}", tally.over_budget + tally.unchecked);
    let _ = writeln!(out, "# name\tcontent_hash\texpected_k\tcalibration_ms");
    for k in &tally.kept {
        let _ = writeln!(out, "{}\t{:016x}\t{}\t{:.2}", k.name, k.hash, k.k, k.ms);
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("lists")
        .join(format!("{workload}.tsv"));
    std::fs::write(&path, out).unwrap_or_else(|e| fatal(&format!("write {}: {e}", path.display())));
    eprintln!(
        "calibrate: {workload}: kept {}, over budget {}, cross-check unfinished {}, kept total {total_ms:.0} ms -> {}",
        tally.kept.len(),
        tally.over_budget,
        tally.unchecked,
        path.display()
    );
}
