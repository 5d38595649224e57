//! Set-preserving special-id rewrites.
//!
//! [`PortableFragment::instantiate`] rebuilds a memoised fragment for a
//! new subproblem by pairing each stored leaf set with a distinct caller
//! id resolving to an equal set. The bijective multiset matching it needs
//! lives here as [`SpecialClaims`]: the rewrite is sound because
//! extended-HD validity (Definition 3.3) and the stitching contract only
//! depend on the vertex sets of special edges — two specials with equal
//! sets are interchangeable interfaces, so any set-preserving bijection
//! between old leaves and new ids yields a valid fragment.
//!
//! [`PortableFragment::instantiate`]: crate::PortableFragment::instantiate

use hypergraph::{SpecialArena, SpecialId, VertexSet};

/// Bijective, set-preserving claims of special ids.
///
/// Wraps a slice of candidate ids (resolved through an arena) and hands
/// out, per requested vertex set, a *distinct* id whose resolved set is
/// equal. Duplicate sets pair up bijectively: two requests for the same
/// set consume two different ids holding that set, or the second request
/// fails.
pub struct SpecialClaims<'a> {
    arena: &'a SpecialArena,
    candidates: &'a [SpecialId],
    used: Vec<bool>,
    claims: u64,
}

impl<'a> SpecialClaims<'a> {
    /// A claimer over `candidates`, resolved through `arena`.
    pub fn new(arena: &'a SpecialArena, candidates: &'a [SpecialId]) -> Self {
        SpecialClaims {
            arena,
            candidates,
            used: vec![false; candidates.len()],
            claims: 0,
        }
    }

    /// Claims an unused candidate id resolving to a set equal to `set`,
    /// or `None` if every such candidate is already claimed.
    pub fn claim(&mut self, set: &VertexSet) -> Option<SpecialId> {
        let slot = self
            .candidates
            .iter()
            .enumerate()
            .position(|(i, &s)| !self.used[i] && self.arena.get(s) == set)?;
        self.used[slot] = true;
        self.claims += 1;
        Some(self.candidates[slot])
    }

    /// Number of successful claims so far.
    pub fn claims(&self) -> u64 {
        self.claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::Vertex;

    fn vset(n: usize, vs: &[u32]) -> VertexSet {
        VertexSet::from_iter(n, vs.iter().map(|&v| Vertex(v)))
    }

    #[test]
    fn claims_pair_equal_sets_bijectively() {
        let mut arena = SpecialArena::new();
        let a = arena.push(vset(4, &[0, 1]));
        let b = arena.push(vset(4, &[0, 1]));
        let c = arena.push(vset(4, &[2]));
        let ids = [a, b, c];
        let mut claims = SpecialClaims::new(&arena, &ids);
        let first = claims.claim(&vset(4, &[0, 1])).unwrap();
        let second = claims.claim(&vset(4, &[0, 1])).unwrap();
        assert_ne!(first, second, "duplicate sets must claim distinct ids");
        assert!(claims.claim(&vset(4, &[0, 1])).is_none());
        assert_eq!(claims.claim(&vset(4, &[2])), Some(c));
        assert!(claims.claim(&vset(4, &[3])).is_none());
        assert_eq!(claims.claims(), 3);
    }
}
