//! A HyperBench-shaped benchmark corpus.
//!
//! HyperBench (Fischl et al., JEA 2021) is not redistributable inside this
//! repository, so the harness generates a *deterministic* corpus that
//! mirrors its documented structure: hypergraphs from applications (CQs:
//! chains, stars, snowflakes, mildly cyclic queries) and synthetically
//! generated ones (random CSPs, grids, cliques, bounded-width instances),
//! distributed over the same origin × edge-count groups as Table 1 of the
//! paper and in the same proportions. `scale` shrinks every group count
//! uniformly so the whole evaluation fits in CI-class time budgets.

use hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::families;
use crate::known_width::{known_width, KnownWidthConfig};

/// Where an instance (nominally) comes from, as in Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Origin {
    /// CQ-shaped instances from applications.
    Application,
    /// Synthetically generated CSP instances.
    Synthetic,
}

impl std::fmt::Display for Origin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Origin::Application => write!(f, "Application"),
            Origin::Synthetic => write!(f, "Synthetic"),
        }
    }
}

/// Edge-count bands of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SizeBand {
    /// `|E| ≤ 10`
    UpTo10,
    /// `10 < |E| ≤ 50`
    To50,
    /// `50 < |E| ≤ 75`
    To75,
    /// `75 < |E| ≤ 100`
    To100,
    /// `|E| > 100`
    Over100,
}

impl SizeBand {
    /// Classifies an edge count.
    pub fn of(m: usize) -> SizeBand {
        match m {
            0..=10 => SizeBand::UpTo10,
            11..=50 => SizeBand::To50,
            51..=75 => SizeBand::To75,
            76..=100 => SizeBand::To100,
            _ => SizeBand::Over100,
        }
    }

    /// Display label in the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            SizeBand::UpTo10 => "|E| <= 10",
            SizeBand::To50 => "10 < |E| <= 50",
            SizeBand::To75 => "50 < |E| <= 75",
            SizeBand::To100 => "75 < |E| <= 100",
            SizeBand::Over100 => "|E| > 100",
        }
    }
}

/// A corpus instance.
pub struct Instance {
    /// Stable, human-readable identifier.
    pub name: String,
    /// Origin group.
    pub origin: Origin,
    /// The hypergraph.
    pub hg: Hypergraph,
    /// A certified upper bound on `hw`, if the generator provides one.
    pub width_upper: Option<usize>,
}

impl Instance {
    /// Edge-count band of this instance.
    pub fn band(&self) -> SizeBand {
        SizeBand::of(self.hg.num_edges())
    }
}

/// Corpus generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct CorpusConfig {
    /// Master seed; same seed ⇒ identical corpus.
    pub seed: u64,
    /// Fraction of HyperBench's group sizes to generate (e.g. `1.0/12.0`
    /// yields ≈ 300 instances with the paper's proportions).
    pub scale: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0xB0BA_CAFE,
            scale: 1.0 / 12.0,
        }
    }
}

/// HyperBench group sizes from Table 1: (origin, band, count).
pub const HYPERBENCH_GROUPS: &[(Origin, SizeBand, usize)] = &[
    (Origin::Application, SizeBand::To100, 405),
    (Origin::Application, SizeBand::To75, 514),
    (Origin::Application, SizeBand::To50, 369),
    (Origin::Application, SizeBand::UpTo10, 915),
    (Origin::Synthetic, SizeBand::Over100, 66),
    (Origin::Synthetic, SizeBand::To100, 422),
    (Origin::Synthetic, SizeBand::To75, 215),
    (Origin::Synthetic, SizeBand::To50, 647),
    (Origin::Synthetic, SizeBand::UpTo10, 95),
];

fn band_edge_count(rng: &mut StdRng, band: SizeBand) -> usize {
    match band {
        SizeBand::UpTo10 => rng.random_range(2..=10),
        SizeBand::To50 => rng.random_range(11..=50),
        SizeBand::To75 => rng.random_range(51..=75),
        SizeBand::To100 => rng.random_range(76..=100),
        SizeBand::Over100 => rng.random_range(101..=160),
    }
}

/// Generates the full HyperBench-shaped corpus.
pub fn hyperbench_like(cfg: CorpusConfig) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::new();
    for &(origin, band, full_count) in HYPERBENCH_GROUPS {
        let count = ((full_count as f64 * cfg.scale).round() as usize).max(1);
        for i in 0..count {
            let m = band_edge_count(&mut rng, band);
            let mut inst = match origin {
                Origin::Application => application_instance(&mut rng, i, m),
                Origin::Synthetic => synthetic_instance(&mut rng, i, m),
            };
            // Structured families (grids, cliques, snowflakes) can only hit
            // certain edge counts; when one drifts out of its band, replace
            // it by an exact-size bounded-width instance so the corpus
            // keeps the paper's group proportions.
            if inst.band() != band {
                let seed = rng.random::<u64>();
                let k = match origin {
                    Origin::Application => 1 + (seed % 3) as usize,
                    Origin::Synthetic => 3 + (seed % 4) as usize,
                };
                let (hg, _) = known_width(KnownWidthConfig::new(seed, m, k));
                inst = Instance {
                    name: format!(
                        "{}_bounded_{m:03}e_{i:04}",
                        if origin == Origin::Application {
                            "app"
                        } else {
                            "syn"
                        }
                    ),
                    origin,
                    hg,
                    width_upper: Some(k),
                };
            }
            out.push(inst);
        }
    }
    out
}

fn application_instance(rng: &mut StdRng, i: usize, m: usize) -> Instance {
    let m32 = m as u32;
    let seed = rng.random::<u64>();
    let (kind, hg, width_upper): (&str, Hypergraph, Option<usize>) = match i % 6 {
        0 => ("chain", families::chain(m32, 3), Some(1)),
        1 => ("star", families::star(m32), Some(1)),
        2 if m >= 2 => (
            "snowflake",
            families::snowflake(m32 - 1, 1 + (seed % 3) as u32),
            Some(1),
        ),
        3 if m >= 5 => (
            "cyclic_cq",
            families::chorded_cycle(m32 - m32 / 5, m32 / 5, seed),
            None,
        ),
        4 if m >= 3 => ("cycle_cq", families::cycle(m32), Some(2)),
        _ => {
            let k = 1 + (seed % 3) as usize; // widths 1..3: CQ-like
            let (hg, _) = known_width(KnownWidthConfig::new(seed, m, k));
            ("join_tree", hg, Some(k))
        }
    };
    Instance {
        name: format!("app_{kind}_{m:03}e_{i:04}"),
        origin: Origin::Application,
        hg,
        width_upper,
    }
}

fn synthetic_instance(rng: &mut StdRng, i: usize, m: usize) -> Instance {
    let m32 = m as u32;
    let seed = rng.random::<u64>();
    let (kind, hg, width_upper): (&str, Hypergraph, Option<usize>) = match i % 5 {
        0 => {
            // Random CSP, density tuned to keep width moderate-but-varied.
            let n = (m32 * 2).max(4);
            ("csp", families::random_csp(seed, n, m32, 3), None)
        }
        1 if m >= 4 => {
            // Grid with roughly m edges: m ≈ 2·r·c − r − c.
            let rows = (2..=6u32)
                .rev()
                .find(|r| (m32 + r) / (2 * r).max(1) >= 2)
                .unwrap_or(2);
            let cols = ((m32 + rows) / (2 * rows)).max(2);
            ("grid", families::grid(rows, cols), None)
        }
        2 if m >= 10 => {
            // Clique with q(q−1)/2 ≈ m edges: high width on purpose.
            let q = (1..=20u32).find(|q| q * (q + 1) / 2 >= m32).unwrap_or(20) + 1;
            ("clique", families::clique(q.max(5)), None)
        }
        3 => {
            let k = 3 + (seed % 4) as usize; // widths 3..6
            let (hg, _) = known_width(KnownWidthConfig::new(seed, m, k));
            ("bounded", hg, Some(k))
        }
        _ => {
            // Dense random CSP: fewer vertices, higher width pressure.
            let n = (m32).max(4);
            ("dense_csp", families::random_csp(seed, n, m32, 4), None)
        }
    };
    let _ = rng;
    Instance {
        name: format!("syn_{kind}_{m:03}e_{i:04}"),
        origin: Origin::Synthetic,
        hg,
        width_upper,
    }
}

/// Configuration for the wide-instance corpus.
#[derive(Clone, Copy, Debug)]
pub struct WideConfig {
    /// Master seed for the randomized families.
    pub seed: u64,
}

impl Default for WideConfig {
    fn default() -> Self {
        WideConfig { seed: 0xD1DE_CAFE }
    }
}

/// The wide-instance corpus: HyperBench's `|V| > 100` tail, which the
/// Table-1 corpus under-represents because its bands are keyed on *edge*
/// counts. Every instance has hundreds of vertices, so its bitsets span
/// many 64-bit words — the regime the lane-chunked kernels target.
///
/// Instances with `width_upper: Some(_)` are known-width CQ shapes that
/// decompose quickly; the rest (grids, hypercube, overlap-heavy CSPs) are
/// kernel-level stressors that differential suites should bound by edge
/// count or skip in favour of the benches.
pub fn wide_corpus(cfg: WideConfig) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::new();
    let mut push = |name: &str, origin: Origin, hg: Hypergraph, width_upper: Option<usize>| {
        out.push(Instance {
            name: name.to_string(),
            origin,
            hg,
            width_upper,
        });
    };

    // Realistic wide CQ shapes: acyclic or near-acyclic, fast to solve.
    push(
        "wide_band_262v",
        Origin::Application,
        families::band_cq(130, 4, 2),
        Some(1),
    );
    push(
        "wide_bandcycle_260v",
        Origin::Application,
        families::band_cycle(130, 4, 2),
        None,
    );
    push(
        "wide_chain_271v",
        Origin::Application,
        families::chain(90, 4),
        Some(1),
    );
    push(
        "wide_snowflake_325v",
        Origin::Application,
        families::snowflake(65, 4),
        Some(1),
    );
    push(
        "wide_star_301v",
        Origin::Application,
        families::star(300),
        Some(1),
    );
    push(
        "wide_cycle_260v",
        Origin::Application,
        families::cycle(260),
        Some(2),
    );

    // Adversarial generators promoted from the differential suites'
    // proptest shapes, scaled to many-word bitsets.
    push(
        "wide_spill_260v",
        Origin::Synthetic,
        families::spill(rng.random(), 2, 10, 48, 3, 5),
        None,
    );
    push(
        "wide_overlap_320v",
        Origin::Synthetic,
        families::overlap_heavy(rng.random(), 320, 32, 20, 48),
        None,
    );
    push(
        "wide_csp_300v",
        Origin::Synthetic,
        families::random_csp(rng.random(), 300, 130, 4),
        None,
    );

    // Certified bounded-width wide instance: ground truth for k-search.
    let (hg, _) = known_width(KnownWidthConfig::new(rng.random(), 150, 4));
    push("wide_bounded_k4", Origin::Synthetic, hg, Some(4));

    // Kernel-level stressors: high width, hundreds of vertices, many
    // hundreds of edges. Solving these exactly is out of scope for test
    // time budgets; they exist for the bench suites and for exercising
    // BFS/fold kernels at scale.
    push(
        "wide_grid_3x90",
        Origin::Synthetic,
        families::grid(3, 90),
        None,
    );
    push(
        "wide_grid3d_3x3x30",
        Origin::Synthetic,
        families::grid3d(3, 3, 30),
        None,
    );
    push(
        "wide_hypercube_q8",
        Origin::Synthetic,
        families::hypercube(8),
        None,
    );

    out
}

/// The `HB_large` analogue of Section 5.2: instances with more than 50
/// edges known to have `hw ≤ 6`. Used by the scaling study (Figure 1) and
/// the hybrid-metric study (Table 2).
pub fn hb_large_like(seed: u64, count: usize) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let m = rng.random_range(51..=110);
        let inst = match i % 3 {
            0 => {
                let k = 2 + (i / 3) % 4; // widths 2..5
                let s = rng.random::<u64>();
                let (hg, _) = known_width(KnownWidthConfig::new(s, m, k));
                Instance {
                    name: format!("hblarge_bounded_{m:03}e_{i:04}"),
                    origin: Origin::Synthetic,
                    hg,
                    width_upper: Some(k),
                }
            }
            1 => {
                let s = rng.random::<u64>();
                Instance {
                    name: format!("hblarge_cyclic_{m:03}e_{i:04}"),
                    origin: Origin::Application,
                    hg: families::chorded_cycle(m as u32 - m as u32 / 6, m as u32 / 6, s),
                    width_upper: Some(6),
                }
            }
            _ => Instance {
                name: format!("hblarge_cycle_{m:03}e_{i:04}"),
                origin: Origin::Application,
                hg: families::cycle(m as u32),
                width_upper: Some(2),
            },
        };
        out.push(inst);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_matches_group_quotas() {
        let cfg = CorpusConfig {
            seed: 1,
            scale: 1.0 / 50.0,
        };
        let corpus = hyperbench_like(cfg);
        for &(origin, band, full) in HYPERBENCH_GROUPS {
            let want = ((full as f64 / 50.0).round() as usize).max(1);
            let got = corpus
                .iter()
                .filter(|i| i.origin == origin && i.band() == band)
                .count();
            assert!(
                got >= want,
                "group {origin:?}/{band:?}: got {got}, want at least {want}"
            );
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let cfg = CorpusConfig {
            seed: 7,
            scale: 1.0 / 100.0,
        };
        let a = hyperbench_like(cfg);
        let b = hyperbench_like(cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.hg.num_edges(), y.hg.num_edges());
        }
    }

    #[test]
    fn bands_classify_correctly() {
        assert_eq!(SizeBand::of(5), SizeBand::UpTo10);
        assert_eq!(SizeBand::of(10), SizeBand::UpTo10);
        assert_eq!(SizeBand::of(11), SizeBand::To50);
        assert_eq!(SizeBand::of(75), SizeBand::To75);
        assert_eq!(SizeBand::of(100), SizeBand::To100);
        assert_eq!(SizeBand::of(101), SizeBand::Over100);
    }

    #[test]
    fn instances_live_in_their_band() {
        let corpus = hyperbench_like(CorpusConfig {
            seed: 3,
            scale: 1.0 / 60.0,
        });
        for inst in &corpus {
            assert!(inst.hg.num_edges() > 0, "{} is empty", inst.name);
            // Structured families (grid/clique/snowflake) may deviate a
            // little from the drawn edge count, but must stay in a sane
            // range; the table groups them by their *actual* band anyway.
            assert!(inst.hg.num_edges() <= 250, "{} too large", inst.name);
        }
    }

    #[test]
    fn wide_corpus_is_wide_and_deterministic() {
        let a = wide_corpus(WideConfig::default());
        let b = wide_corpus(WideConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            for e in x.hg.edge_ids() {
                assert_eq!(x.hg.edge(e), y.hg.edge(e));
            }
        }
        for inst in &a {
            assert!(
                inst.hg.num_vertices() >= 250,
                "{} has only {} vertices",
                inst.name,
                inst.hg.num_vertices()
            );
            // Bound the corpus so CI-class runs stay tractable.
            assert!(inst.hg.num_edges() <= 1100, "{} too large", inst.name);
        }
        // The corpus must cross the multi-word bitset threshold: > 256
        // vertices means more than four 64-bit blocks per vertex set.
        assert!(a.iter().filter(|i| i.hg.num_vertices() > 256).count() >= 5);
    }

    #[test]
    fn hb_large_instances_are_large() {
        let v = hb_large_like(11, 12);
        assert_eq!(v.len(), 12);
        for inst in &v {
            assert!(inst.hg.num_edges() > 50, "{}", inst.name);
            assert!(inst.width_upper.unwrap_or(6) <= 6);
        }
    }
}
