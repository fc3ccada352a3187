//! Heap files: unordered tuple storage over the buffer pool.

use crate::error::Result;
use crate::storage::page::{page_tuple_ranges, read_tuple, tuple_range};
use crate::storage::{BufferPool, FileId, Page, PageNo};

/// Physical address of a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId {
    /// Page within the heap file.
    pub page: PageNo,
    /// Slot within the page.
    pub slot: u16,
}

/// A heap file handle.  Stateless beyond the file id — all data lives in
/// the buffer pool / backend, so handles are copy-cheap.
#[derive(Debug, Clone, Copy)]
pub struct HeapFile {
    file: FileId,
}

impl HeapFile {
    /// Create a fresh heap file in the pool.
    pub fn create(pool: &BufferPool) -> Result<HeapFile> {
        let file = pool.create_file()?;
        Ok(HeapFile { file })
    }

    /// Re-attach to an existing file (catalog bootstrap / recovery).
    pub fn attach(file: FileId) -> HeapFile {
        HeapFile { file }
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of pages.
    pub fn pages(&self, pool: &BufferPool) -> Result<u32> {
        pool.page_count(self.file)
    }

    /// Insert a tuple, appending a page when the last page is full.
    ///
    /// Insertion targets the *last* page only (append-style, like
    /// PostgreSQL without FSM); deletes do not reclaim space.
    pub fn insert(&self, pool: &BufferPool, tuple: &[u8]) -> Result<TupleId> {
        let n = pool.page_count(self.file)?;
        if n > 0 {
            let page_no = n - 1;
            let slot = pool.with_page_mut(self.file, page_no, |buf| {
                let mut page = Page::new(buf);
                if page.fits(tuple.len()) {
                    Some(page.insert(tuple))
                } else {
                    None
                }
            })?;
            if let Some(slot) = slot {
                return Ok(TupleId {
                    page: page_no,
                    slot: slot?,
                });
            }
        }
        // Need a fresh page.
        let page_no = pool.allocate_page(self.file)?;
        let slot = pool.with_page_mut(self.file, page_no, |buf| {
            let mut page = Page::new(buf);
            page.init();
            page.insert(tuple)
        })??;
        Ok(TupleId {
            page: page_no,
            slot,
        })
    }

    /// Fetch a tuple by id; `None` when deleted.
    pub fn get(&self, pool: &BufferPool, tid: TupleId) -> Result<Option<Vec<u8>>> {
        pool.with_page(self.file, tid.page, |buf| {
            read_tuple(buf, tid.slot).map(<[u8]>::to_vec)
        })
    }

    /// Delete a tuple.
    pub fn delete(&self, pool: &BufferPool, tid: TupleId) -> Result<()> {
        pool.with_page_mut(self.file, tid.page, |buf| {
            let mut page = Page::new(buf);
            page.delete(tid.slot)
        })?
    }

    /// Visit every live tuple in file order.  The callback receives the
    /// tuple id and bytes; returning `false` stops the scan early.
    pub fn scan(
        &self,
        pool: &BufferPool,
        mut visit: impl FnMut(TupleId, &[u8]) -> bool,
    ) -> Result<()> {
        self.scan_pages(pool, |page_no, buf| {
            page_tuple_ranges(buf).all(|(slot, r)| {
                visit(
                    TupleId {
                        page: page_no,
                        slot,
                    },
                    &buf[r],
                )
            })
        })
    }

    /// Overwrite `bytes` at offset `at` *inside* an existing tuple,
    /// without moving it.  Used by MVCC to stamp `xmax` (and to freeze
    /// version headers at checkpoint): the tuple length never changes,
    /// so no slot bookkeeping is touched.  Returns `false` when the slot
    /// is dead or the write would run past the tuple's end.
    pub fn patch(&self, pool: &BufferPool, tid: TupleId, at: usize, bytes: &[u8]) -> Result<bool> {
        pool.with_page_mut(self.file, tid.page, |buf| {
            match tuple_range(buf, tid.slot) {
                Some(r) if at + bytes.len() <= r.len() => {
                    let start = r.start + at;
                    buf[start..start + bytes.len()].copy_from_slice(bytes);
                    true
                }
                _ => false,
            }
        })
    }

    /// Count live tuples (scans the file).
    pub fn count(&self, pool: &BufferPool) -> Result<u64> {
        let mut n = 0u64;
        self.scan(pool, |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// Visit every page image in file order, borrowed from the buffer
    /// pool; returning `false` stops the scan early.
    pub fn scan_pages(
        &self,
        pool: &BufferPool,
        mut visit: impl FnMut(PageNo, &[u8]) -> bool,
    ) -> Result<()> {
        let n = pool.page_count(self.file)?;
        for page_no in 0..n {
            let keep_going = pool.with_page(self.file, page_no, |buf| visit(page_no, buf))?;
            if !keep_going {
                break;
            }
        }
        Ok(())
    }

    /// Enumerate live `(slot, tuple)` pairs of one page buffer.
    pub fn page_tuples(buf: &[u8]) -> impl Iterator<Item = (u16, &[u8])> {
        page_tuple_ranges(buf).map(move |(s, r)| (s, &buf[r]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemBackend;

    fn setup() -> (BufferPool, HeapFile) {
        let pool = BufferPool::new(Box::new(MemBackend::new()), 16);
        let heap = HeapFile::create(&pool).unwrap();
        (pool, heap)
    }

    #[test]
    fn insert_get_roundtrip() {
        let (pool, heap) = setup();
        let tid = heap.insert(&pool, b"alpha").unwrap();
        assert_eq!(heap.get(&pool, tid).unwrap().unwrap(), b"alpha");
    }

    #[test]
    fn spills_to_multiple_pages() {
        let (pool, heap) = setup();
        let tuple = vec![9u8; 2000];
        for _ in 0..20 {
            heap.insert(&pool, &tuple).unwrap();
        }
        assert!(heap.pages(&pool).unwrap() >= 5, "2 KB × 20 needs ≥ 5 pages");
        assert_eq!(heap.count(&pool).unwrap(), 20);
    }

    #[test]
    fn delete_hides_tuple_from_scan() {
        let (pool, heap) = setup();
        let a = heap.insert(&pool, b"a").unwrap();
        heap.insert(&pool, b"b").unwrap();
        heap.delete(&pool, a).unwrap();
        assert_eq!(heap.get(&pool, a).unwrap(), None);
        let mut seen = Vec::new();
        heap.scan(&pool, |_, t| {
            seen.push(t.to_vec());
            true
        })
        .unwrap();
        assert_eq!(seen, vec![b"b".to_vec()]);
    }

    #[test]
    fn patch_overwrites_in_place() {
        let (pool, heap) = setup();
        let tid = heap.insert(&pool, b"0123456789").unwrap();
        assert!(heap.patch(&pool, tid, 2, b"XY").unwrap());
        assert_eq!(heap.get(&pool, tid).unwrap().unwrap(), b"01XY456789");
        // Out-of-bounds writes and dead slots are refused.
        assert!(!heap.patch(&pool, tid, 9, b"AB").unwrap());
        heap.delete(&pool, tid).unwrap();
        assert!(!heap.patch(&pool, tid, 0, b"Z").unwrap());
        assert!(!heap
            .patch(&pool, TupleId { page: 0, slot: 99 }, 0, b"Z")
            .unwrap());
    }

    #[test]
    fn scan_early_termination() {
        let (pool, heap) = setup();
        for i in 0..10u8 {
            heap.insert(&pool, &[i]).unwrap();
        }
        let mut n = 0;
        heap.scan(&pool, |_, _| {
            n += 1;
            n < 3
        })
        .unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn page_tuples_matches_scan() {
        let (pool, heap) = setup();
        for i in 0..50u8 {
            heap.insert(&pool, &[i, i]).unwrap();
        }
        let mut via_pages = 0;
        heap.scan_pages(&pool, |_, buf| {
            via_pages += HeapFile::page_tuples(buf).count();
            true
        })
        .unwrap();
        assert_eq!(via_pages, 50);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::storage::MemBackend;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Random insert/delete interleavings match a reference Vec model.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((any::<bool>(), 1usize..300), 1..120)) {
            let pool = BufferPool::new(Box::new(MemBackend::new()), 8);
            let heap = HeapFile::create(&pool).unwrap();
            let mut model: Vec<(TupleId, Vec<u8>)> = Vec::new();
            let mut counter = 0u8;
            for (insert, size) in ops {
                if insert || model.is_empty() {
                    counter = counter.wrapping_add(1);
                    let tuple = vec![counter; size];
                    let tid = heap.insert(&pool, &tuple).unwrap();
                    model.push((tid, tuple));
                } else {
                    let (tid, _) = model.remove(model.len() / 2);
                    heap.delete(&pool, tid).unwrap();
                }
            }
            // Every live tuple is readable by id with the right contents.
            for (tid, tuple) in &model {
                let got = heap.get(&pool, *tid).unwrap();
                prop_assert_eq!(got.as_deref(), Some(tuple.as_slice()));
            }
            // The scan sees exactly the live set.
            let mut seen = Vec::new();
            heap.scan(&pool, |tid, bytes| {
                seen.push((tid, bytes.to_vec()));
                true
            }).unwrap();
            let mut expect = model.clone();
            expect.sort_by_key(|(t, _)| *t);
            seen.sort_by_key(|(t, _)| *t);
            prop_assert_eq!(seen, expect);
        }
    }
}
