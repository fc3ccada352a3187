//! Access methods — the kernel's GiST-equivalent extensibility layer.
//!
//! PostgreSQL's GiST let the paper add an M-Tree "using the GiST feature
//! ... that provides a framework for managing a balanced index structure
//! that can be extended to support index semantics" (§4.2.1).  Our
//! equivalent: an [`AccessMethod`] factory registered in the catalog by
//! name, producing [`IndexInstance`]s that answer *strategy* queries
//! (`"eq"`, `"lt"`, `"within"`, ...).  The built-in [`btree`] access method
//! serves equality and ranges; `mlql-mural` registers an `"mtree"` access
//! method whose `"within"` strategy serves LexEQUAL probes.
//!
//! Index instances are memory-resident and are **not WAL-logged** — a
//! faithful reproduction of the PostgreSQL-7.4 GiST caveat the paper calls
//! out (§4.2.1): after a crash, recovery rebuilds every index from the
//! recovered heap.  Each instance reports `pages()` (its size in page
//! units, used by the optimizer) and per-search node-visit counts (charged
//! to the engine's I/O statistics by the index-scan executor).

pub mod btree;

use crate::error::Result;
use crate::storage::TupleId;
use crate::value::Datum;

/// Result of one index search.
#[derive(Debug, Clone, Default)]
pub struct IndexSearch {
    /// Matching tuple ids.
    pub tids: Vec<TupleId>,
    /// Index nodes visited (charged as page reads).
    pub node_visits: u64,
    /// Key-comparison / distance computations performed.
    pub comparisons: u64,
}

/// A live index over one column of one table.
///
/// `Sync` is required so a built instance can sit behind a `RwLock` in the
/// catalog: searches (`&self`) from concurrent sessions share a read
/// guard, while maintenance (`&mut self`) takes the write guard.
pub trait IndexInstance: Send + Sync {
    /// Insert a key → tuple-id entry.
    fn insert(&mut self, key: &Datum, tid: TupleId) -> Result<()>;

    /// Remove an entry (best effort; used by DELETE).
    fn delete(&mut self, key: &Datum, tid: TupleId) -> Result<()>;

    /// Search with a strategy:
    /// * `"eq"` — `key = probe` (extra ignored),
    /// * `"lt" | "le" | "gt" | "ge"` — ranges (extra ignored),
    /// * `"within"` — metric range: distance(key, probe) ≤ extra (Int).
    ///
    /// Unsupported strategies must return an error, *not* empty results —
    /// the planner only pairs an index with strategies its access method
    /// advertised.
    fn search(&self, strategy: &str, probe: &Datum, extra: &Datum) -> Result<IndexSearch>;

    /// Size in page units, for the optimizer's cost model.
    fn pages(&self) -> u64;

    /// Number of entries.
    fn len(&self) -> usize;

    /// True when the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Factory for index instances, registered in the catalog by name.
pub trait AccessMethod: Send + Sync {
    /// Access-method name (`"btree"`, `"mtree"`, ...).
    fn name(&self) -> &str;

    /// Strategies this access method can serve.
    fn strategies(&self) -> &[&str];

    /// Create an empty index instance.
    fn create(&self) -> Result<Box<dyn IndexInstance>>;
}

/// The built-in B+Tree access method.
pub struct BTreeAm;

impl AccessMethod for BTreeAm {
    fn name(&self) -> &str {
        "btree"
    }

    fn strategies(&self) -> &[&str] {
        &["eq", "lt", "le", "gt", "ge"]
    }

    fn create(&self) -> Result<Box<dyn IndexInstance>> {
        Ok(Box::new(btree::BTreeIndex::new()))
    }
}
