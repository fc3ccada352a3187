//! # M-Tree — a height-balanced access method for metric spaces
//!
//! Implementation of the M-Tree of Ciaccia, Patella & Zezula (VLDB 1997),
//! the index structure the paper added to PostgreSQL through GiST to speed
//! up the fuzzy phonemic matching of the LexEQUAL operator (§4.2.1).
//!
//! The tree stores keys from an arbitrary metric space.  Internal entries
//! are *routing objects* with a covering radius; range search prunes a
//! subtree when the triangle inequality proves that no key inside the
//! covering ball can lie within the query radius.
//!
//! A node splits by promoting two entries drawn at random — the paper's
//! choice: "we specifically chose the random-split alternative ... since
//! it offers the best index modification time".
//!
//! Search statistics ([`QueryStats`]) expose distance-computation and
//! node-visit counts, which is how the evaluation explains *why* the M-Tree
//! is only marginally effective on short discrete-metric strings (§5.3:
//! "poor pruning efficiency").

#![forbid(unsafe_code)]

mod tree;

pub use tree::{MTree, Metric, QueryStats};

/// Default maximum number of entries per node.  Chosen so a node of phoneme
/// strings (~16 bytes each plus radii) is roughly one 8 KiB disk page — the
/// kernel's access-method adapter charges one page read per visited node.
pub const DEFAULT_NODE_CAPACITY: usize = 64;
