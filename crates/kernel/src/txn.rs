//! Transaction manager: monotonic transaction ids and MVCC snapshots.
//!
//! Snapshot isolation, PostgreSQL-style but simplified to this engine's
//! needs (in the spirit of rustmemodb's `TransactionManager`):
//!
//! * Every writing statement runs inside a transaction — explicit
//!   (`BEGIN` … `COMMIT`/`ROLLBACK`) or an ephemeral autocommit wrapper.
//! * Ids are handed out monotonically starting at 2 (0 = invalid /
//!   "no `xmax`", 1 = the frozen id checkpoint vacuum stamps — see
//!   [`crate::storage::FROZEN_TXN_ID`]).
//! * A [`TxnSnapshot`] captures the id high-water mark plus the set of
//!   transactions in flight at that instant; a transaction id is
//!   *committed for that snapshot* iff it was allocated before the
//!   snapshot, was not in flight, and did not abort.
//! * Heap tuples carry `xmin`/`xmax` stamps; [`TxnVisibility`] combines a
//!   snapshot with the reader's own id so a transaction always sees its
//!   own writes ("read your own writes") and never sees anyone's
//!   uncommitted ones.
//!
//! Aborted ids accumulate in a shared set (copy-on-write, so snapshots
//! are cheap `Arc` clones); checkpoint vacuum physically removes dead
//! versions and clears the set.

use parking_lot::Mutex;
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The id stamped into `xmax` of live tuples ("never deleted"), and the
/// `txn` field of autocommit WAL records ("committed at append").
pub const INVALID_TXN_ID: u64 = 0;

/// First real transaction id (see [`crate::storage::FROZEN_TXN_ID`] = 1).
const FIRST_TXN_ID: u64 = 2;

#[derive(Default)]
struct TxnState {
    /// Transactions begun and neither committed nor aborted.
    active: BTreeSet<u64>,
    /// Every transaction that aborted since the last checkpoint vacuum.
    /// Copy-on-write: snapshots share the `Arc`, aborts replace it.
    aborted: Arc<HashSet<u64>>,
}

/// Engine-wide transaction bookkeeping.  One per [`crate::Engine`].
pub struct TransactionManager {
    /// Next id to hand out.  Written only under the state mutex so that
    /// id allocation and active-set insertion are atomic with respect to
    /// snapshot capture.
    next: AtomicU64,
    state: Mutex<TxnState>,
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionManager {
    /// A fresh manager; ids start at 2.
    pub fn new() -> TransactionManager {
        TransactionManager {
            next: AtomicU64::new(FIRST_TXN_ID),
            state: Mutex::new(TxnState::default()),
        }
    }

    /// Begin a transaction: allocate an id and mark it in flight.
    pub fn begin(&self) -> u64 {
        let mut s = self.state.lock();
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        s.active.insert(id);
        id
    }

    /// Commit `id`: it leaves the active set and becomes visible to every
    /// snapshot taken from now on.
    pub fn commit(&self, id: u64) {
        let mut s = self.state.lock();
        s.active.remove(&id);
    }

    /// Abort `id`: its versions stay dead for every snapshot, past and
    /// future, until checkpoint vacuum reclaims them.
    pub fn abort(&self, id: u64) {
        let mut s = self.state.lock();
        s.active.remove(&id);
        let mut aborted = (*s.aborted).clone();
        aborted.insert(id);
        s.aborted = Arc::new(aborted);
    }

    /// Capture a consistent snapshot of the transaction state.
    pub fn snapshot(&self) -> TxnSnapshot {
        let s = self.state.lock();
        TxnSnapshot {
            high: self.next.load(Ordering::Relaxed),
            active: s.active.iter().copied().collect(),
            aborted: Arc::clone(&s.aborted),
        }
    }

    /// Are any transactions currently in flight?  (Checkpoints refuse to
    /// run with open transactions: vacuum would pull versions out from
    /// under their snapshots.)
    pub fn has_active(&self) -> bool {
        !self.state.lock().active.is_empty()
    }

    /// Has `id` aborted (since the last vacuum)?
    pub fn is_aborted(&self, id: u64) -> bool {
        self.state.lock().aborted.contains(&id)
    }

    /// Forget the aborted set — called after checkpoint vacuum has
    /// physically deleted every version those transactions wrote.
    pub fn clear_aborted(&self) {
        self.state.lock().aborted = Arc::new(HashSet::new());
    }
}

/// A point-in-time view of the transaction state.
#[derive(Debug, Clone)]
pub struct TxnSnapshot {
    /// Ids `>= high` were allocated after this snapshot.
    pub high: u64,
    /// Ids in flight when the snapshot was taken (sorted).
    pub active: Arc<[u64]>,
    /// Every id aborted before the snapshot (shared, copy-on-write).
    pub aborted: Arc<HashSet<u64>>,
}

impl TxnSnapshot {
    /// Is `id` committed *as of this snapshot*?  The frozen id (1) is
    /// always committed; 0 never is.
    pub fn committed(&self, id: u64) -> bool {
        id != INVALID_TXN_ID
            && id < self.high
            && self.active.binary_search(&id).is_err()
            && !self.aborted.contains(&id)
    }
}

/// Everything a scan needs to decide tuple visibility: the snapshot plus
/// the reading transaction's own id (0 for autocommit readers, which own
/// no uncommitted versions).
#[derive(Debug, Clone)]
pub struct TxnVisibility {
    /// The reader's transaction id, or 0 when reading outside any
    /// transaction.
    pub txn: u64,
    /// The snapshot visibility is judged against.
    pub snap: TxnSnapshot,
}

impl TxnVisibility {
    /// Snapshot-isolation visibility check for a `(xmin, xmax)` stamped
    /// tuple: the inserting transaction must be us or committed, and the
    /// deleting transaction (if any) must be neither.
    pub fn sees(&self, xmin: u64, xmax: u64) -> bool {
        let mine = |id: u64| self.txn != INVALID_TXN_ID && id == self.txn;
        if !mine(xmin) && !self.snap.committed(xmin) {
            return false;
        }
        if xmax == INVALID_TXN_ID {
            return true;
        }
        !(mine(xmax) || self.snap.committed(xmax))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FROZEN_TXN_ID;

    #[test]
    fn ids_are_monotonic_from_two() {
        let tm = TransactionManager::new();
        let a = tm.begin();
        let b = tm.begin();
        assert_eq!(a, 2);
        assert_eq!(b, 3);
    }

    #[test]
    fn snapshot_excludes_active_and_future() {
        let tm = TransactionManager::new();
        let a = tm.begin();
        let snap = tm.snapshot();
        assert!(!snap.committed(a), "in-flight is not committed");
        tm.commit(a);
        assert!(!snap.committed(a), "old snapshots never change");
        assert!(tm.snapshot().committed(a), "new snapshots see the commit");
        let b = tm.begin();
        tm.commit(b);
        assert!(!snap.committed(b), "ids past the high-water mark invisible");
        assert!(snap.committed(FROZEN_TXN_ID), "frozen is always committed");
        assert!(!snap.committed(INVALID_TXN_ID));
    }

    #[test]
    fn aborted_ids_never_commit() {
        let tm = TransactionManager::new();
        let a = tm.begin();
        tm.abort(a);
        assert!(tm.is_aborted(a));
        assert!(!tm.snapshot().committed(a));
        tm.clear_aborted();
        assert!(!tm.is_aborted(a));
    }

    #[test]
    fn visibility_rules() {
        let tm = TransactionManager::new();
        let committed = tm.begin();
        tm.commit(committed);
        let me = tm.begin();
        let other = tm.begin();
        let vis = TxnVisibility {
            txn: me,
            snap: tm.snapshot(),
        };
        // Committed insert, live → visible.
        assert!(vis.sees(committed, 0));
        // My own uncommitted insert → visible (read your own writes).
        assert!(vis.sees(me, 0));
        // Someone else's in-flight insert → invisible (no dirty reads).
        assert!(!vis.sees(other, 0));
        // My own delete hides the row from me.
        assert!(!vis.sees(committed, me));
        // Someone else's in-flight delete does not hide it.
        assert!(vis.sees(committed, other));
        // Frozen tuples are visible to everyone, including autocommit.
        let auto = TxnVisibility {
            txn: INVALID_TXN_ID,
            snap: tm.snapshot(),
        };
        assert!(auto.sees(FROZEN_TXN_ID, 0));
        assert!(!auto.sees(other, 0));
    }

    #[test]
    fn has_active_tracks_open_txns() {
        let tm = TransactionManager::new();
        assert!(!tm.has_active());
        let a = tm.begin();
        assert!(tm.has_active());
        tm.commit(a);
        assert!(!tm.has_active());
    }
}
