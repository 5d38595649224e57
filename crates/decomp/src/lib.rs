//! Decomposition structures and validators.
//!
//! * [`counters`](mod@counters) — the [`counters!`] macro: one declaration per
//!   statistics field, generating the snapshot, its atomic twin, the
//!   merge and the field list;
//! * [`tree`] — the [`Decomposition`] type (shared by HDs and GHDs);
//! * [`fragment`] — HD-fragments with special-edge leaves and the
//!   stitching operations used by `log-k-decomp`'s soundness construction;
//! * [`portable`] — arena-independent fragments (special leaves resolved
//!   to vertex sets), the storable form shared by the memoisation caches;
//! * [`rewrite`] — the set-preserving special-id claims behind cache
//!   re-interning;
//! * [`striped`] — the memo table of subproblem verdicts: lock-striped,
//!   borrowed-key, CLOCK-evicting under a byte budget; the engine's
//!   subproblem cache and det-k's memo are both instances;
//! * [`validate`] — exact checkers for the GHD conditions, the HD special
//!   condition, the six conditions of Definition 3.3 (HDs of extended
//!   subhypergraphs), and the normal form of Definition 3.5.
//!
//! Paper: Gottlob, Lanzinger, Okulmus, Pichler. *Fast Parallel Hypertree
//! Decompositions in Logarithmic Recursion Depth.* PODS 2022.

pub mod control;
pub mod counters;
pub mod export;
pub mod faults;
pub mod fragment;
pub mod portable;
pub mod rewrite;
pub mod striped;
pub mod tree;
pub mod validate;

pub use control::{Control, Interrupted};
pub use export::{to_dtd_text, to_gml};
pub use fragment::{FragLabel, FragNode, Fragment};
pub use portable::{specials_multiset_match, PortableFragment, PortableLabel, PortableNode};
pub use rewrite::SpecialClaims;
pub use striped::{CacheSnapshot, Probe, StripedTable, DEFAULT_CACHE_BYTES};
pub use tree::{Decomposition, Node, NodeId};
pub use validate::{
    is_normal_form, validate_extended_hd, validate_ghd, validate_hd, validate_hd_width, Violation,
};
