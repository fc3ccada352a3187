//! # Taxonomy — interlinked multilingual taxonomic hierarchies
//!
//! The substrate behind the SemEQUAL (Ω) operator: WordNet-style noun
//! hierarchies in multiple languages, linked by synset-equivalence edges —
//! the `TH` structure of the paper's Definition in §2.2.
//!
//! The paper stored the entire English WordNet (~115 K synsets, ~152 K word
//! forms) in database tables and, for multilingual experiments, *replicated*
//! it per language with equivalence links between corresponding synsets
//! (§5.1).  We do exactly the same one level down: [`generator`] synthesizes
//! a hierarchy with WordNet's structural statistics (size, depth, heavy-
//! tailed fan-out), and [`Taxonomy::replicate_linked`] produces the linked
//! multilingual copies.
//!
//! Ω's containment test reads [`intervals`]: interval-set labels that
//! decide every (root, synset) pair and every closure size exactly, with
//! no closure materialized.  [`closure`] keeps the paper's §4.3 walk — the
//! hierarchy *pinned in main memory*, a closure computed by graph search —
//! as the index's test oracle and Figure 8's pinned-memory curve.

pub mod closure;
pub mod fragment;
pub mod generator;
pub mod hierarchy;
pub mod intervals;

pub use fragment::books_fragment;
pub use generator::{generate, synsets_near_closure_sizes, GeneratorConfig};
pub use hierarchy::{SynsetId, Taxonomy, TaxonomyStats};
pub use intervals::IntervalIndex;
