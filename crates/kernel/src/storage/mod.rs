//! Storage layer: pages, backends, buffer pool, heap files, WAL.
//!
//! The paper's cost models (Table 3) are expressed in disk I/O (page
//! counts) plus CPU; to validate them (Figure 6) the engine's runtime must
//! actually be driven by the same quantities the optimizer estimates.  The
//! buffer pool therefore accounts every logical and physical page access in
//! [`IoStats`], and the executors do all tuple access through it.

mod backend;
mod bufferpool;
pub mod crc32;
mod heapfile;
mod page;
mod tuple;
mod wal;

pub use backend::{FaultInjector, FaultyBackend, FileBackend, MemBackend, StorageBackend};
pub use bufferpool::{BufferPool, IoStats};
pub use heapfile::{HeapFile, TupleId};
pub(crate) use page::{page_tuple_ranges, read_tuple};
pub use page::{Page, PAGE_SIZE};
pub use tuple::{
    decode_row, encode_row, encode_version, read_field, split_version, FROZEN_TXN_ID,
    VERSION_HEADER_LEN,
};
pub use wal::{SharedWal, SyncMode, Wal, WalReader, WalRecord, WAL_HEADER_LEN};

pub(crate) use wal::sync_parent_dir;

/// Identifier of a storage file (one per table heap / index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Page number within a file.
pub type PageNo = u32;
