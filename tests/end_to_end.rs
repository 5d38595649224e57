//! Cross-crate integration: solvers must agree with each other and with
//! certified ground truth across the workload generator's families.

use decomp::{validate_hd_width, Control};
use hypergraph::is_acyclic;
use logk::LogK;
use workloads::{hyperbench_like, known_width, CorpusConfig, KnownWidthConfig};

#[test]
fn solvers_agree_on_a_small_corpus() {
    // A tiny deterministic corpus slice; instances stay small enough that
    // every method terminates without a timeout.
    let corpus = hyperbench_like(CorpusConfig {
        seed: 2024,
        scale: 1.0 / 150.0,
    });
    let ctrl = Control::unlimited();
    let logk_solver = LogK::hybrid(2);
    let mut checked = 0usize;
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 22) {
        let k_max = 5;
        let ours = logk_solver.minimal_width(&inst.hg, k_max, &ctrl).unwrap();
        let theirs = (1..=k_max).find_map(|k| {
            detk::decompose_detk(&inst.hg, k, &ctrl)
                .unwrap()
                .map(|d| (k, d))
        });
        match (&ours, &theirs) {
            (Some((a, da)), Some((b, db))) => {
                assert_eq!(a, b, "{}: hybrid={a} detk={b}", inst.name);
                validate_hd_width(&inst.hg, da, *a).unwrap();
                validate_hd_width(&inst.hg, db, *b).unwrap();
            }
            (None, None) => {}
            _ => panic!("{}: solvers disagree on solvability", inst.name),
        }
        if let (Some((w, _)), Some(upper)) = (&ours, inst.width_upper) {
            assert!(
                *w <= upper,
                "{}: hw {w} above certified bound {upper}",
                inst.name
            );
        }
        checked += 1;
    }
    assert!(checked >= 5, "corpus slice too small to be meaningful");
}

#[test]
fn acyclicity_equals_width_one() {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 99,
        scale: 1.0 / 400.0,
    });
    let ctrl = Control::unlimited();
    let solver = LogK::sequential();
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 30) {
        let gyo = is_acyclic(&inst.hg);
        // The search alone: `decide` would answer k = 1 with GYO itself.
        let (hd1, _) = solver.search_with_stats(&inst.hg, 1, &ctrl).unwrap();
        assert_eq!(gyo, hd1.is_some(), "{}: GYO and hw<=1 disagree", inst.name);
    }
}

#[test]
fn known_width_instances_solve_within_bound() {
    let ctrl = Control::unlimited();
    let solver = LogK::hybrid(2);
    for seed in 0..8u64 {
        for k in 1..=3usize {
            let (hg, witness) = known_width(KnownWidthConfig::new(seed * 31 + 7, 25, k));
            validate_hd_width(&hg, &witness, k).unwrap();
            let (w, d) = solver
                .minimal_width(&hg, k + 1, &ctrl)
                .unwrap()
                .expect("must solve within k+1");
            assert!(w <= k, "seed={seed} k={k}: found {w}");
            validate_hd_width(&hg, &d, w).unwrap();
        }
    }
}

#[test]
fn ghw_lower_bounds_hw_everywhere() {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 55,
        scale: 1.0 / 500.0,
    });
    let ctrl = Control::unlimited();
    let solver = LogK::sequential();
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 14) {
        let hw = solver.minimal_width(&inst.hg, 4, &ctrl).unwrap();
        let ghw = htdsat::optimal_ghw(&inst.hg, 4, &ctrl).ok().flatten();
        if let (Some((hw, _)), Some((ghw, _))) = (hw, ghw) {
            assert!(ghw <= hw, "{}: ghw {ghw} > hw {hw}", inst.name);
        }
    }
}

#[test]
fn timeouts_never_return_answers() {
    let (hg, _) = known_width(KnownWidthConfig::new(3, 60, 4));
    let ctrl = Control::with_timeout(std::time::Duration::from_millis(1));
    // Either an Err(timeout) or a very fast honest answer — never a wrong
    // "no".
    match LogK::hybrid(2).decompose(&hg, 4, &ctrl) {
        Ok(Some(d)) => validate_hd_width(&hg, &d, 4).unwrap(),
        Ok(None) => panic!("width-4 instance declared unsolvable under timeout"),
        Err(_) => {}
    }
}
