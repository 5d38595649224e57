//! Instance sources and the committed calibrated lists.
//!
//! Each workload draws its instances from a `workloads` generator at a
//! fixed generator seed. Calibration (`--calibrate`) keeps the instances
//! that finish inside a budget, records each one's expected verdict
//! (cross-checked by an independent engine), and writes the list to
//! `lists/<workload>.tsv`, keyed by instance name and content hash. The
//! lists are compiled into the binary; a run rebuilds the instances from
//! the generator and refuses to start if any content hash differs.

use hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use workloads::{families, hb_large_like, hyperbench_like, CorpusConfig, Origin};

/// Seed and count of the `HB_large` draw behind `hblarge_t2`.
pub const HBLARGE_SEED: u64 = 0x5EED;
pub const HBLARGE_COUNT: usize = 300;

/// One generated instance, as the program's input: edge lists.
pub struct Source {
    pub name: String,
    pub edges: Vec<Vec<u32>>,
    /// The generator's certified width upper bound, if any.
    pub width_upper: Option<usize>,
}

/// An instance ready to run: built, with its expected verdict.
pub struct Task {
    pub name: String,
    pub hg: Hypergraph,
    /// Optimal width (sweeps) or the width decided "yes" (decisions).
    pub k: usize,
}

/// One row of a calibrated list.
pub struct Entry {
    pub name: String,
    pub hash: u64,
    pub k: usize,
}

/// A calibrated list: its rows plus the calibration's exclusion count.
pub struct List {
    pub entries: Vec<Entry>,
    pub excluded: usize,
}

pub fn edge_lists(hg: &Hypergraph) -> Vec<Vec<u32>> {
    hg.edge_ids()
        .map(|e| hg.edge(e).iter().map(|v| v.0).collect())
        .collect()
}

/// FNV-1a over the edge lists (edge boundaries included).
pub fn content_hash(edges: &[Vec<u32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in edges {
        eat(u32::MAX);
        for &v in e {
            eat(v);
        }
    }
    h
}

/// Words of the widest bitset `hg` needs (vertex or edge sets).
pub fn words(hg: &Hypergraph) -> usize {
    hg.num_vertices().max(hg.num_edges()).div_ceil(64)
}

fn source(name: String, hg: &Hypergraph, width_upper: Option<usize>) -> Source {
    Source {
        name,
        edges: edge_lists(hg),
        width_upper,
    }
}

/// The HyperBench-shaped corpus at its default configuration.
pub fn hyperbench() -> Vec<Source> {
    hyperbench_like(CorpusConfig::default())
        .into_iter()
        .map(|i| source(i.name, &i.hg, i.width_upper))
        .collect()
}

/// The `HB_large` draw.
pub fn hb_large() -> Vec<Source> {
    hb_large_like(HBLARGE_SEED, HBLARGE_COUNT)
        .into_iter()
        .map(|i| source(i.name, &i.hg, i.width_upper))
        .collect()
}

/// Application-group CQs of the default corpus with a certified width:
/// the bases of the wire mix's fresh requests.
pub fn application_cqs() -> Vec<Source> {
    hyperbench_like(CorpusConfig::default())
        .into_iter()
        .filter(|i| i.origin == Origin::Application && i.width_upper.is_some())
        .map(|i| source(i.name, &i.hg, i.width_upper))
        .collect()
}

/// The wire mix's hot shapes, by traffic class (the `loadgen` shapes).
pub fn hot_shapes() -> Vec<Source> {
    vec![
        source("decide_small".into(), &families::cycle(24), None),
        source("width_grid".into(), &families::grid(4, 4), None),
        source("race_small".into(), &families::cycle(24), None),
        source(
            "decide_hard".into(),
            &families::chorded_cycle(64, 24, 7),
            None,
        ),
    ]
}

/// The committed list of `workload`.
pub fn list(workload: &str) -> List {
    let text = match workload {
        "hb_sweep_t1" => include_str!("../lists/hb_sweep_t1.tsv"),
        "hblarge_t2" => include_str!("../lists/hblarge_t2.tsv"),
        "wire_mix" => include_str!("../lists/wire_mix.tsv"),
        other => panic!("no list for workload {other}"),
    };
    parse_list(text)
}

fn parse_list(text: &str) -> List {
    let mut entries = Vec::new();
    let mut excluded = 0;
    for line in text.lines() {
        if let Some(meta) = line.strip_prefix("# excluded=") {
            excluded = meta.trim().parse().expect("list header: excluded count");
            continue;
        }
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        assert!(f.len() >= 3, "list row needs name, hash and k: {line}");
        entries.push(Entry {
            name: f[0].to_string(),
            hash: u64::from_str_radix(f[1], 16).expect("list row: hex content hash"),
            k: f[2].parse().expect("list row: expected width"),
        });
    }
    List { entries, excluded }
}

/// Matches `list` against freshly generated `sources`. Errors name the
/// first row whose instance is missing or whose content changed.
pub fn select(sources: Vec<Source>, list: &List) -> Result<Vec<(Source, usize)>, String> {
    let mut by_name: std::collections::HashMap<String, Source> =
        sources.into_iter().map(|s| (s.name.clone(), s)).collect();
    list.entries
        .iter()
        .map(|e| {
            let s = by_name
                .remove(&e.name)
                .ok_or_else(|| format!("listed instance {} is not generated", e.name))?;
            if content_hash(&s.edges) != e.hash {
                return Err(format!(
                    "instance {} changed content: re-run calibration",
                    e.name
                ));
            }
            Ok((s, e.k))
        })
        .collect()
}

/// A copy of `edges` under a random vertex relabelling: the same
/// instance up to isomorphism (same width), but distinct content.
pub fn relabel(edges: &[Vec<u32>], rng: &mut StdRng) -> Vec<Vec<u32>> {
    let n = edges.iter().flatten().max().map_or(0, |&m| m as usize + 1);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    edges
        .iter()
        .map(|e| e.iter().map(|&v| perm[v as usize]).collect())
        .collect()
}

/// Deterministic RNG for `seed` and a stream label.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Shuffles `v` in place.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}
