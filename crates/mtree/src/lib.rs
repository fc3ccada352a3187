//! # M-Tree — a height-balanced access method for metric spaces
//!
//! Implementation of the M-Tree of Ciaccia, Patella & Zezula (VLDB 1997),
//! the index structure the paper added to PostgreSQL through GiST to speed
//! up the fuzzy phonemic matching of the LexEQUAL operator (§4.2.1).
//!
//! The tree stores byte-string keys under an arbitrary [`Metric`].
//! Internal entries are *routing objects* with a covering radius; range
//! search prunes a subtree when the triangle inequality proves that no key
//! inside the covering ball can lie within the query radius.
//!
//! A metric may also *sketch* its keys ([`Metric::sketch`]): an edit
//! distance over symbols is at least `max(|Δlen|, |A∖B|, |B∖A|)` for the
//! symbol sets `A` and `B` of its operands, the count and length filter of
//! filter-and-verify string joins (Gravano et al., VLDB 2001).  Each leaf
//! entry then carries its key's sketch, and each routing entry its
//! subtree's length range and the union and intersection of its sketches,
//! so a search skips entries and whole subtrees whose bound exceeds the
//! radius before computing any distance.  A metric that sketches nothing —
//! a plain closure — gives the paper's triangle-only tree.
//!
//! A node keeps its keys back to back in one byte arena; a leaf keeps its
//! sketches in one dense array, which a search sweeps before it reads any
//! entry.
//!
//! A node splits by promoting two entries drawn at random — the paper's
//! choice: "we specifically chose the random-split alternative ... since
//! it offers the best index modification time".
//!
//! Search statistics ([`QueryStats`]) expose distance-computation,
//! node-visit and prune counts, which is how the evaluation explains *why*
//! the paper's M-Tree is only marginally effective on short discrete-metric
//! strings (§5.3: "poor pruning efficiency").

#![forbid(unsafe_code)]

mod tree;

pub use tree::{Hit, MTree, Metric, QueryStats};

/// Default maximum number of entries per node.  The paper's GiST pages
/// held a node of phoneme strings (~16 bytes each plus radii) in one
/// 8 KiB disk page; here a full leaf of 64 dozen-symbol keys takes about
/// 2.5 KiB of arena and dense arrays.  The kernel's access-method adapter
/// reports nodes as the index's pages.
pub const DEFAULT_NODE_CAPACITY: usize = 64;
