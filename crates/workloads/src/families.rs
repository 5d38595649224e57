//! Deterministic hypergraph families.
//!
//! Structured families (cycles, grids, chains, stars, snowflakes, cliques)
//! have known or well-understood hypertree width; random families model the
//! CQ/CSP mix of HyperBench. Everything is seeded and reproducible.

use hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The cycle `C_n` with binary edges `{i, i+1 mod n}`; `hw = 2` for
/// `n ≥ 3` (`n = 10` is the paper's Appendix B example).
pub fn cycle(n: u32) -> Hypergraph {
    assert!(n >= 3);
    let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
    Hypergraph::from_edge_lists(&edges)
}

/// A path with `m` binary edges; acyclic (`hw = 1`).
pub fn path(m: u32) -> Hypergraph {
    assert!(m >= 1);
    let edges: Vec<Vec<u32>> = (0..m).map(|i| vec![i, i + 1]).collect();
    Hypergraph::from_edge_lists(&edges)
}

/// A star with `m` binary edges around a hub; acyclic (`hw = 1`).
pub fn star(m: u32) -> Hypergraph {
    assert!(m >= 1);
    let edges: Vec<Vec<u32>> = (1..=m).map(|i| vec![0, i]).collect();
    Hypergraph::from_edge_lists(&edges)
}

/// A snowflake/star-schema query: a fact relation of arity `dims` joined
/// to `dims` dimension relations, each with `leaf` private attributes.
/// Acyclic (`hw = 1`) — the classic data-warehouse CQ shape.
pub fn snowflake(dims: u32, leaf: u32) -> Hypergraph {
    assert!(dims >= 1);
    let mut edges = Vec::new();
    // Fact table over join keys 0..dims.
    edges.push((0..dims).collect::<Vec<u32>>());
    let mut next = dims;
    for d in 0..dims {
        let mut dim = vec![d];
        for _ in 0..leaf {
            dim.push(next);
            next += 1;
        }
        edges.push(dim);
    }
    Hypergraph::from_edge_lists(&edges)
}

/// A chain CQ: `m` relations of arity `a`, adjacent relations sharing one
/// variable. Acyclic (`hw = 1`).
pub fn chain(m: u32, a: u32) -> Hypergraph {
    assert!(m >= 1 && a >= 2);
    let mut edges = Vec::new();
    let mut start = 0u32;
    for _ in 0..m {
        let edge: Vec<u32> = (start..start + a).collect();
        edges.push(edge);
        start += a - 1; // share last variable with the next relation
    }
    Hypergraph::from_edge_lists(&edges)
}

/// A cycle of length `n` with `chords` extra chord edges; cyclic with
/// small width (2–3) — the "slightly cyclic CQ" shape common in practice.
pub fn chorded_cycle(n: u32, chords: u32, seed: u64) -> Hypergraph {
    assert!(n >= 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
    for _ in 0..chords {
        let a = rng.random_range(0..n);
        let off = rng.random_range(2..n - 1);
        let b = (a + off) % n;
        edges.push(vec![a.min(b), a.max(b)]);
    }
    Hypergraph::from_edge_lists(&edges)
}

/// The `rows × cols` grid graph with binary edges. Treewidth is
/// `min(rows, cols)`, so the hypertree width grows with the smaller side —
/// a standard scalable-width CSP family.
pub fn grid(rows: u32, cols: u32) -> Hypergraph {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2);
    let v = |r: u32, c: u32| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push(vec![v(r, c), v(r, c + 1)]);
            }
            if r + 1 < rows {
                edges.push(vec![v(r, c), v(r + 1, c)]);
            }
        }
    }
    Hypergraph::from_edge_lists(&edges)
}

/// The clique `K_q` as binary edges: `hw = ⌈q/2⌉`, i.e. arbitrarily high
/// width — HyperBench's "known hard by graph-theoretic arguments" class.
pub fn clique(q: u32) -> Hypergraph {
    assert!(q >= 3);
    let mut edges = Vec::new();
    for a in 0..q {
        for b in a + 1..q {
            edges.push(vec![a, b]);
        }
    }
    Hypergraph::from_edge_lists(&edges)
}

/// A random CSP-style hypergraph: `m` edges over `n` vertices with arity
/// drawn from `2..=max_arity`. Connectivity is not enforced.
pub fn random_csp(seed: u64, n: u32, m: u32, max_arity: u32) -> Hypergraph {
    assert!(n >= 2 && max_arity >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let arity = rng.random_range(2..=max_arity.min(n));
        let mut edge = Vec::with_capacity(arity as usize);
        while edge.len() < arity as usize {
            let v = rng.random_range(0..n);
            if !edge.contains(&v) {
                edge.push(v);
            }
        }
        edge.sort_unstable();
        edges.push(edge);
    }
    Hypergraph::from_edge_lists(&edges)
}

/// The `nx × ny × nz` solid grid with binary edges along all three axes.
/// Treewidth grows with the smaller cross-section (`≈ min` of the three
/// pairwise products), so thin-but-long boxes stay tractable while the
/// vertex count reaches into the hundreds — the wide-instance analogue of
/// [`grid`].
pub fn grid3d(nx: u32, ny: u32, nz: u32) -> Hypergraph {
    assert!(nx >= 1 && ny >= 1 && nz >= 1 && nx * ny * nz >= 2);
    let v = |x: u32, y: u32, z: u32| (z * ny + y) * nx + x;
    let mut edges = Vec::new();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push(vec![v(x, y, z), v(x + 1, y, z)]);
                }
                if y + 1 < ny {
                    edges.push(vec![v(x, y, z), v(x, y + 1, z)]);
                }
                if z + 1 < nz {
                    edges.push(vec![v(x, y, z), v(x, y, z + 1)]);
                }
            }
        }
    }
    Hypergraph::from_edge_lists(&edges)
}

/// The `dim`-dimensional hypercube graph `Q_dim`: `2^dim` vertices,
/// `dim · 2^(dim-1)` binary edges. Width grows roughly like
/// `2^dim / √dim`, making it a dense high-width stressor whose bitsets
/// span many words.
pub fn hypercube(dim: u32) -> Hypergraph {
    assert!((1..=16).contains(&dim));
    let n = 1u32 << dim;
    let mut edges = Vec::new();
    for v in 0..n {
        for b in 0..dim {
            let w = v ^ (1 << b);
            if v < w {
                edges.push(vec![v, w]);
            }
        }
    }
    Hypergraph::from_edge_lists(&edges)
}

/// A band CQ: `m` relations of arity `a`, adjacent relations sharing
/// `overlap` variables — the wide-arity generalisation of [`chain`].
/// Acyclic (`hw = 1`), with `m·(a−overlap) + overlap` vertices.
pub fn band_cq(m: u32, a: u32, overlap: u32) -> Hypergraph {
    assert!(m >= 1 && a >= 2 && overlap >= 1 && overlap < a);
    let step = a - overlap;
    let edges: Vec<Vec<u32>> = (0..m).map(|i| (i * step..i * step + a).collect()).collect();
    Hypergraph::from_edge_lists(&edges)
}

/// A closed band: like [`band_cq`] but the last relation wraps around to
/// share `overlap` variables with the first. Cyclic for `m ≥ 3`, the
/// wide-arity generalisation of [`cycle`] (width stays small — a pair of
/// opposite relations separates the band).
pub fn band_cycle(m: u32, a: u32, overlap: u32) -> Hypergraph {
    assert!(m >= 3 && a >= 2 && overlap >= 1 && overlap < a);
    let step = a - overlap;
    let n = m * step;
    assert!(a <= n, "arity exceeds the wrapped vertex count");
    let edges: Vec<Vec<u32>> = (0..m)
        .map(|i| (0..a).map(|j| (i * step + j) % n).collect())
        .collect();
    Hypergraph::from_edge_lists(&edges)
}

/// λp-spill stressor (promoted from the differential suites' proptest
/// shapes): `cores` wide hub relations partition a hub set, and `m` spoke
/// relations each pick `picks` hub vertices — straddling core boundaries —
/// plus `tail` private vertices. Parent candidates routinely cover
/// vertices outside `⋃λc` (the spokes' private tails), which is exactly
/// the `bad`-set spill path the λp pre-filter has to count.
pub fn spill(
    seed: u64,
    cores: u32,
    hubs_per_core: u32,
    m: u32,
    picks: u32,
    tail: u32,
) -> Hypergraph {
    assert!(cores >= 1 && hubs_per_core >= 1 && picks >= 1);
    let hubs = cores * hubs_per_core;
    assert!(picks <= hubs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<Vec<u32>> = (0..cores)
        .map(|c| (c * hubs_per_core..(c + 1) * hubs_per_core).collect())
        .collect();
    let mut next = hubs;
    for _ in 0..m {
        let mut e: Vec<u32> = Vec::with_capacity((picks + tail) as usize);
        while e.len() < picks as usize {
            let h = rng.random_range(0..hubs);
            if !e.contains(&h) {
                e.push(h);
            }
        }
        for _ in 0..tail {
            e.push(next);
            next += 1;
        }
        edges.push(e);
    }
    Hypergraph::from_edge_lists(&edges)
}

/// Overlap-heavy stressor: `m` relations of arity `a` over `n` vertices,
/// each biased to include about half of a `kernel`-sized shared core, so
/// pairwise intersections are large. Exercises the fused
/// intersect/union/count kernels on many-word sets where naive chained
/// passes are most expensive.
pub fn overlap_heavy(seed: u64, n: u32, m: u32, a: u32, kernel: u32) -> Hypergraph {
    assert!(n >= 2 && a >= 2 && kernel <= n && a <= n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let mut e: Vec<u32> = Vec::with_capacity(a as usize);
        // Roughly half the kernel, then random fill from the whole pool.
        for v in 0..kernel {
            if e.len() + 1 < a as usize && rng.random_range(0..2u32) == 0 {
                e.push(v);
            }
        }
        while e.len() < a as usize {
            let v = rng.random_range(0..n);
            if !e.contains(&v) {
                e.push(v);
            }
        }
        e.sort_unstable();
        edges.push(e);
    }
    Hypergraph::from_edge_lists(&edges)
}

/// The disjoint union of `parts` on renamed (offset) vertices:
/// `hw = max` over the parts, and the union splits into one
/// `[λc]`-component per part at the root — the canonical multi-component
/// workload, whose components the engines recurse into one by one.
pub fn disjoint_union(parts: &[Hypergraph]) -> Hypergraph {
    assert!(!parts.is_empty());
    let mut edges: Vec<Vec<u32>> = Vec::new();
    let mut offset = 0u32;
    for hg in parts {
        for e in hg.edge_ids() {
            edges.push(hg.edge(e).iter().map(|v| v.0 + offset).collect());
        }
        offset += hg.num_vertices() as u32;
    }
    Hypergraph::from_edge_lists(&edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::is_acyclic;

    #[test]
    fn acyclic_families_are_acyclic() {
        assert!(is_acyclic(&path(10)));
        assert!(is_acyclic(&star(8)));
        assert!(is_acyclic(&snowflake(4, 3)));
        assert!(is_acyclic(&chain(6, 3)));
    }

    #[test]
    fn cyclic_families_are_cyclic() {
        assert!(!is_acyclic(&cycle(10)));
        assert!(!is_acyclic(&grid(3, 3)));
        assert!(!is_acyclic(&clique(5)));
    }

    #[test]
    fn sizes_are_as_requested() {
        assert_eq!(cycle(10).num_edges(), 10);
        assert_eq!(path(7).num_edges(), 7);
        assert_eq!(star(9).num_edges(), 9);
        assert_eq!(snowflake(4, 2).num_edges(), 5);
        assert_eq!(grid(3, 4).num_edges(), 17);
        assert_eq!(clique(6).num_edges(), 15);
        assert_eq!(random_csp(1, 20, 30, 4).num_edges(), 30);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = random_csp(42, 20, 25, 5);
        let b = random_csp(42, 20, 25, 5);
        assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edge_ids() {
            assert_eq!(a.edge(e), b.edge(e));
        }
        let c = chorded_cycle(12, 3, 7);
        let d = chorded_cycle(12, 3, 7);
        for e in c.edge_ids() {
            assert_eq!(c.edge(e), d.edge(e));
        }
    }

    #[test]
    fn disjoint_union_offsets_vertices() {
        let h = disjoint_union(&[cycle(4), path(2)]);
        assert_eq!(h.num_edges(), 6);
        assert_eq!(h.num_vertices(), 7);
        // No edge straddles the part boundary.
        for e in h.edge_ids() {
            let left = h.edge(e).iter().all(|v| v.0 < 4);
            let right = h.edge(e).iter().all(|v| v.0 >= 4);
            assert!(left || right, "edge straddles the union boundary");
        }
    }

    #[test]
    fn wide_families_have_expected_shapes() {
        // 3D grid: vertex count is the product, edge count is the sum of
        // axis-aligned links.
        let (nx, ny, nz) = (2u32, 3, 4);
        let g = grid3d(nx, ny, nz);
        assert_eq!(g.num_vertices(), 24);
        assert_eq!(
            g.num_edges(),
            ((nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)) as usize
        );
        assert!(!is_acyclic(&g));

        let q = hypercube(4);
        assert_eq!(q.num_vertices(), 16);
        assert_eq!(q.num_edges(), 32);
        assert!(!is_acyclic(&q));

        // Band CQ: acyclic, wide, adjacent relations share `overlap` vars.
        let b = band_cq(50, 6, 2);
        assert_eq!(b.num_vertices(), 50 * 4 + 2);
        assert!(is_acyclic(&b));
        for i in 0..49u32 {
            let x = b.edge(hypergraph::Edge(i));
            let y = b.edge(hypergraph::Edge(i + 1));
            assert_eq!(x.intersection_len(y), 2);
        }

        // Closed band: cyclic, wraps to exactly `m·(a−overlap)` vertices.
        let c = band_cycle(40, 6, 2);
        assert_eq!(c.num_vertices(), 160);
        assert!(!is_acyclic(&c));
    }

    #[test]
    fn adversarial_generators_are_wide_and_deterministic() {
        let s1 = spill(9, 2, 8, 40, 3, 6);
        let s2 = spill(9, 2, 8, 40, 3, 6);
        assert_eq!(s1.num_vertices(), 16 + 40 * 6);
        assert_eq!(s1.num_edges(), 2 + 40);
        for e in s1.edge_ids() {
            assert_eq!(s1.edge(e), s2.edge(e));
        }

        let o1 = overlap_heavy(5, 300, 24, 20, 40);
        let o2 = overlap_heavy(5, 300, 24, 20, 40);
        assert_eq!(o1.num_edges(), 24);
        assert!(o1.num_vertices() <= 300);
        for e in o1.edge_ids() {
            assert_eq!(o1.edge(e).len(), 20);
            assert_eq!(o1.edge(e), o2.edge(e));
        }
    }

    #[test]
    fn chain_shares_exactly_one_variable() {
        let h = chain(5, 3);
        assert_eq!(h.num_edges(), 5);
        // Adjacent edges overlap in exactly 1 vertex.
        for i in 0..4u32 {
            let a = h.edge(hypergraph::Edge(i));
            let b = h.edge(hypergraph::Edge(i + 1));
            assert_eq!(a.intersection_len(b), 1);
        }
    }
}
