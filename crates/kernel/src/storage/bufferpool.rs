//! Buffer pool with clock eviction and I/O accounting.
//!
//! Every executor touches pages only through [`BufferPool::with_page`] /
//! [`BufferPool::with_page_mut`], so [`IoStats`] faithfully counts the
//! logical and physical page traffic that the optimizer's cost model
//! estimates — the precondition for the Figure 6 experiment.

use crate::error::Result;
use crate::storage::{FileId, PageNo, StorageBackend, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Cumulative I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests served (hit or miss).
    pub logical_reads: u64,
    /// Pages fetched from the backend (buffer misses).
    pub physical_reads: u64,
    /// Dirty pages written back to the backend.
    pub physical_writes: u64,
}

impl IoStats {
    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads - earlier.logical_reads,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
        }
    }
}

struct Frame {
    file: FileId,
    page: PageNo,
    data: Box<[u8]>,
    dirty: bool,
    referenced: bool,
    occupied: bool,
}

struct Inner {
    backend: Box<dyn StorageBackend>,
    frames: Vec<Frame>,
    map: HashMap<(FileId, PageNo), usize>,
    clock: usize,
    stats: IoStats,
}

/// The buffer pool.  Interior mutability (one mutex around the whole pool)
/// keeps the executor API simple; the engine is single-writer.
pub struct BufferPool {
    inner: Mutex<Inner>,
}

impl BufferPool {
    /// Acquire the pool mutex, charging contended acquisitions to the
    /// current query as a `buffer_pool` wait.  The uncontended fast path
    /// is one failed `try_lock` branch.
    fn lock_inner(&self) -> parking_lot::MutexGuard<'_, Inner> {
        if let Some(g) = self.inner.try_lock() {
            return g;
        }
        crate::obs::waits::time_wait(crate::obs::WaitClass::BufferPool, || self.inner.lock())
    }

    /// Pool with `capacity` frames over `backend`.
    pub fn new(backend: Box<dyn StorageBackend>, capacity: usize) -> Self {
        assert!(capacity >= 1);
        let frames = (0..capacity)
            .map(|_| Frame {
                file: FileId(0),
                page: 0,
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                dirty: false,
                referenced: false,
                occupied: false,
            })
            .collect();
        BufferPool {
            inner: Mutex::new(Inner {
                backend,
                frames,
                map: HashMap::new(),
                clock: 0,
                stats: IoStats::default(),
            }),
        }
    }

    /// Create a new storage file.
    pub fn create_file(&self) -> Result<FileId> {
        self.lock_inner().backend.create_file()
    }

    /// Number of pages in a file (buffered allocations are flushed through
    /// `allocate_page` immediately, so the backend count is authoritative).
    pub fn page_count(&self, file: FileId) -> Result<u32> {
        self.lock_inner().backend.page_count(file)
    }

    /// Allocate a fresh page in `file`.
    pub fn allocate_page(&self, file: FileId) -> Result<PageNo> {
        self.lock_inner().backend.allocate_page(file)
    }

    /// Read access to a page.
    pub fn with_page<T>(
        &self,
        file: FileId,
        page: PageNo,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<T> {
        let mut inner = self.lock_inner();
        let idx = inner.fetch(file, page)?;
        Ok(f(&inner.frames[idx].data))
    }

    /// Write access to a page (marks it dirty).
    pub fn with_page_mut<T>(
        &self,
        file: FileId,
        page: PageNo,
        f: impl FnOnce(&mut [u8]) -> T,
    ) -> Result<T> {
        let mut inner = self.lock_inner();
        let idx = inner.fetch(file, page)?;
        inner.frames[idx].dirty = true;
        Ok(f(&mut inner.frames[idx].data))
    }

    /// Flush all dirty pages to the backend; returns how many were written.
    pub fn flush_all(&self) -> Result<u64> {
        let mut inner = self.lock_inner();
        let dirty: Vec<usize> = inner
            .frames
            .iter()
            .enumerate()
            .filter(|(_, fr)| fr.occupied && fr.dirty)
            .map(|(i, _)| i)
            .collect();
        let flushed = dirty.len() as u64;
        for i in dirty {
            inner.writeback(i)?;
        }
        Ok(flushed)
    }

    /// Current I/O statistics.
    ///
    /// Counters are cumulative for the life of the pool and never reset;
    /// per-query measurement takes a snapshot before and
    /// [`IoStats::since`] after, so concurrent readers can each hold
    /// their own baseline.  (A destructive `reset_stats` used to exist
    /// and silently zeroed other readers' baselines.)
    pub fn stats(&self) -> IoStats {
        self.lock_inner().stats
    }

    /// Drop every cached page (simulates a cold cache; used by benches to
    /// measure physical-I/O-bound behaviour).
    pub fn clear_cache(&self) -> Result<()> {
        self.flush_all()?;
        let mut inner = self.lock_inner();
        inner.map.clear();
        for fr in &mut inner.frames {
            fr.occupied = false;
            fr.dirty = false;
            fr.referenced = false;
        }
        Ok(())
    }
}

impl Inner {
    fn fetch(&mut self, file: FileId, page: PageNo) -> Result<usize> {
        self.stats.logical_reads += 1;
        crate::obs::metrics().bufferpool_logical_reads_total.inc();
        if let Some(&idx) = self.map.get(&(file, page)) {
            self.frames[idx].referenced = true;
            return Ok(idx);
        }
        self.stats.physical_reads += 1;
        crate::obs::metrics().bufferpool_physical_reads_total.inc();
        let victim = self.find_victim()?;
        if self.frames[victim].occupied {
            if self.frames[victim].dirty {
                self.writeback(victim)?;
            }
            let key = (self.frames[victim].file, self.frames[victim].page);
            self.map.remove(&key);
        }
        {
            let fr = &mut self.frames[victim];
            fr.file = file;
            fr.page = page;
            fr.dirty = false;
            fr.referenced = true;
            fr.occupied = true;
        }
        // Split borrows: read into a temporary to satisfy the borrow checker
        // without unsafe.
        let mut buf = std::mem::take(&mut self.frames[victim].data);
        let res = self.backend.read_page(file, page, &mut buf);
        self.frames[victim].data = buf;
        res?;
        self.map.insert((file, page), victim);
        Ok(victim)
    }

    /// Clock (second-chance) eviction.
    fn find_victim(&mut self) -> Result<usize> {
        let n = self.frames.len();
        for _ in 0..2 * n {
            let i = self.clock;
            self.clock = (self.clock + 1) % n;
            if !self.frames[i].occupied {
                return Ok(i);
            }
            if self.frames[i].referenced {
                self.frames[i].referenced = false;
            } else {
                return Ok(i);
            }
        }
        // All referenced twice around: take the current hand.
        Ok(self.clock)
    }

    fn writeback(&mut self, idx: usize) -> Result<()> {
        self.stats.physical_writes += 1;
        let (file, page) = (self.frames[idx].file, self.frames[idx].page);
        let buf = std::mem::take(&mut self.frames[idx].data);
        let res = self.backend.write_page(file, page, &buf);
        self.frames[idx].data = buf;
        res?;
        self.frames[idx].dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemBackend;

    fn pool(frames: usize) -> (BufferPool, FileId) {
        let pool = BufferPool::new(Box::new(MemBackend::new()), frames);
        let f = pool.create_file().unwrap();
        (pool, f)
    }

    #[test]
    fn read_write_through_pool() {
        let (pool, f) = pool(4);
        let p = pool.allocate_page(f).unwrap();
        pool.with_page_mut(f, p, |buf| buf[0] = 0x42).unwrap();
        let b = pool.with_page(f, p, |buf| buf[0]).unwrap();
        assert_eq!(b, 0x42);
    }

    #[test]
    fn hits_do_not_count_as_physical() {
        let (pool, f) = pool(4);
        let p = pool.allocate_page(f).unwrap();
        for _ in 0..10 {
            pool.with_page(f, p, |_| ()).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.logical_reads, 10);
        assert_eq!(s.physical_reads, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (pool, f) = pool(2);
        let pages: Vec<_> = (0..5).map(|_| pool.allocate_page(f).unwrap()).collect();
        for (i, &p) in pages.iter().enumerate() {
            pool.with_page_mut(f, p, |buf| buf[0] = i as u8).unwrap();
        }
        // Re-read everything; evictions must have persisted the writes.
        for (i, &p) in pages.iter().enumerate() {
            let b = pool.with_page(f, p, |buf| buf[0]).unwrap();
            assert_eq!(b, i as u8);
        }
        assert!(pool.stats().physical_writes >= 3);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let (pool, f) = pool(8);
        let pages: Vec<_> = (0..4).map(|_| pool.allocate_page(f).unwrap()).collect();
        for _ in 0..3 {
            for &p in &pages {
                pool.with_page(f, p, |_| ()).unwrap();
            }
        }
        assert_eq!(pool.stats().physical_reads, 4, "only cold misses");
    }

    #[test]
    fn clear_cache_forces_refetch() {
        let (pool, f) = pool(4);
        let p = pool.allocate_page(f).unwrap();
        pool.with_page_mut(f, p, |buf| buf[7] = 9).unwrap();
        pool.clear_cache().unwrap();
        assert_eq!(pool.with_page(f, p, |buf| buf[7]).unwrap(), 9);
        assert_eq!(pool.stats().physical_reads, 2);
    }

    #[test]
    fn stats_since_snapshot() {
        let (pool, f) = pool(4);
        let p = pool.allocate_page(f).unwrap();
        pool.with_page(f, p, |_| ()).unwrap();
        let snap = pool.stats();
        pool.with_page(f, p, |_| ()).unwrap();
        let d = pool.stats().since(&snap);
        assert_eq!(d.logical_reads, 1);
        assert_eq!(d.physical_reads, 0);
    }

    #[test]
    fn flush_all_counts_writes_via_snapshot_delta() {
        let (pool, f) = pool(4);
        let p = pool.allocate_page(f).unwrap();
        pool.with_page_mut(f, p, |buf| buf[0] = 1).unwrap();
        let snap = pool.stats();
        assert_eq!(pool.flush_all().unwrap(), 1);
        let d = pool.stats().since(&snap);
        assert_eq!(d.physical_writes, 1);
        assert_eq!(d.logical_reads, 0, "flush does not read pages");
        // Counters are cumulative: the absolute value keeps history.
        assert!(pool.stats().physical_writes >= 1);
    }
}
