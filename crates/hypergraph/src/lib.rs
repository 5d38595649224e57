//! Hypergraph substrate for the `log-k-decomp` workspace.
//!
//! This crate provides everything below the decomposition algorithms:
//!
//! * [`bitset`] — dense, typed bitsets ([`VertexSet`], [`EdgeSet`]) whose
//!   word-parallel operations are the hot loops of every solver;
//! * [`lanes`] — the lane-chunked `u64` kernels those operations lower
//!   to: fused multi-operand single-pass loops shaped for
//!   autovectorization;
//! * [`matrix`] — [`MaskMatrix`], a structure-of-arrays block of bitset
//!   rows sharing one contiguous allocation (the hypergraph's edge and
//!   incidence storage);
//! * [`graph`] — the interned [`Hypergraph`] type and its builder;
//! * [`parse`] — HyperBench and PACE 2019 readers/writers;
//! * [`extended`] — extended subhypergraphs `⟨E', Sp, Conn⟩`
//!   (Definition 3.1 of the paper) with arena-allocated special edges;
//! * [`components`] — `[U]`-components (Definition 3.2), the balanced
//!   separation primitive;
//! * [`gyo`](mod@gyo) — GYO reduction / α-acyclicity (hw ≤ 1);
//! * [`bounds`] — certified lower bounds checked before the search: GYO
//!   at k = 1 and minor-min-width above, each refutation with a
//!   re-checkable certificate;
//! * [`subsets`] — bounded-size subset enumeration with lead-partitioning
//!   for parallel search;
//! * [`levels`] — the generic depth-indexed [`LevelStack`] scratch
//!   workspace every solver's recursion runs on.
//!
//! Paper: Gottlob, Lanzinger, Okulmus, Pichler. *Fast Parallel Hypertree
//! Decompositions in Logarithmic Recursion Depth.* PODS 2022.

pub mod bitset;
pub mod bounds;
pub mod components;
pub mod extended;
pub mod graph;
pub mod gyo;
pub mod lanes;
pub mod levels;
pub mod matrix;
pub mod parse;
pub mod subsets;

pub use bitset::{Edge, EdgeSet, Ix, TypedBitSet, Vertex, VertexSet};
pub use components::{separate, separate_into, Component, Scratch, Separation};
pub use extended::{SpecialArena, SpecialId, Subproblem};
pub use graph::{Hypergraph, HypergraphBuilder};
pub use gyo::{gyo, is_acyclic, GyoResult};
pub use levels::LevelStack;
pub use matrix::MaskMatrix;
pub use parse::{parse_hyperbench, parse_pace, write_hyperbench, write_pace, ParseError};
