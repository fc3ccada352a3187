//! Redo-only write-ahead log, v2 format.
//!
//! Logical logging: every committed heap mutation appends one record; on
//! recovery, records are replayed against the checkpointed heaps (or empty
//! heaps when no checkpoint exists).  This matches the level of durability
//! the paper's evaluation relied on — with one deliberate reproduction of
//! its §4.2.1 caveat: **index structures are not WAL-logged** (PostgreSQL
//! 7.4's GiST had no WAL support), so recovery rebuilds all indexes from
//! the recovered heaps.
//!
//! ## On-disk layout
//!
//! ```text
//! file   := header frame*
//! header := magic:"MLQLWAL2" (8)  base_lsn:u64le (8)
//! frame  := lsn:u64le  crc:u32le  len:u32le  payload[len]
//! ```
//!
//! `crc` covers `lsn ‖ len ‖ payload`, so any complete frame can be
//! validated in isolation.  LSNs start at `base_lsn + 1` and increase by
//! exactly one per frame; `base_lsn` is rewritten when a checkpoint
//! truncates the log, which keeps LSNs monotonic for the life of the
//! database and lets recovery skip records already covered by a snapshot.
//!
//! The CRC + strict LSN sequence is what distinguishes the two failure
//! shapes replay must treat differently:
//!
//! * **torn tail** — the file ends mid-frame (a crash during an append).
//!   Everything before the tear is intact; the tear is discarded.
//! * **mid-log corruption** — a *complete* frame fails its CRC or breaks
//!   the LSN sequence.  Committed records beyond it may be lost, so replay
//!   must stop with an error naming the LSN and byte offset rather than
//!   silently dropping the rest of the log.
//!
//! ## Group commit
//!
//! [`SharedWal`] wraps a [`Wal`] for the multi-session engine.  Appends are
//! buffered under the inner mutex (rank 5 in the engine's lock hierarchy);
//! durability happens at *commit* time, after the statement has released
//! its DML/catalog locks.  In `fsync` mode commits elect a leader that
//! flushes and `sync_data`s once for every record appended so far, while
//! followers wait on a condvar until their LSN is covered — one fsync per
//! batch instead of one per record.

use crate::error::{Error, Result};
use crate::storage::crc32::Crc32;
use parking_lot::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Magic bytes identifying a v2 WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"MLQLWAL2";
/// File-header length (magic + base LSN).
pub const WAL_HEADER_LEN: u64 = 16;
/// Frame-header length (lsn + crc + len).
const FRAME_HEADER_LEN: usize = 16;

/// One logical WAL record.
///
/// DML records carry the id of the transaction that wrote them.  `txn == 0`
/// means *committed at append time* — the autocommit path, where the
/// statement's group-commit fsync is the commit point.  `txn > 0` marks an
/// explicit transaction: replay applies those records only when a matching
/// [`WalRecord::Commit`] follows in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A tuple was inserted into the table with this catalog id.  `tuple`
    /// holds plain row bytes — version headers are a heap-only concern;
    /// replay re-stamps recovered tuples as frozen/committed.
    Insert {
        table_id: u32,
        txn: u64,
        tuple: Vec<u8>,
    },
    /// A tuple was deleted (page/slot of the pre-recovery layout are not
    /// stable, so deletes log the tuple bytes and recovery deletes by
    /// content — adequate for the append-mostly workloads of the paper).
    Delete {
        table_id: u32,
        txn: u64,
        tuple: Vec<u8>,
    },
    /// DDL: the original SQL text, re-executed on replay.  Covers CREATE
    /// TABLE / CREATE INDEX / DROP TABLE / DROP INDEX; replay order equals
    /// append order, so table ids are reassigned identically.
    Ddl { sql: String },
    /// An explicit transaction committed: its DML records become real.
    Commit { txn: u64 },
    /// An explicit transaction rolled back.  Purely informational (replay
    /// drops uncommitted work by default); logged without an fsync.
    Abort { txn: u64 },
}

impl WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Insert {
                table_id,
                txn,
                tuple,
            } => {
                out.push(1);
                out.extend_from_slice(&table_id.to_le_bytes());
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(tuple);
            }
            WalRecord::Delete {
                table_id,
                txn,
                tuple,
            } => {
                out.push(2);
                out.extend_from_slice(&table_id.to_le_bytes());
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(tuple);
            }
            WalRecord::Ddl { sql } => {
                out.push(3);
                out.extend_from_slice(sql.as_bytes());
            }
            WalRecord::Commit { txn } => {
                out.push(4);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            WalRecord::Abort { txn } => {
                out.push(5);
                out.extend_from_slice(&txn.to_le_bytes());
            }
        }
    }

    /// Decode one payload (the frame CRC has already been verified, so a
    /// malformed payload here is corruption, not a torn write).
    fn decode(payload: &[u8]) -> std::result::Result<WalRecord, String> {
        let tag = *payload.first().ok_or("empty payload")?;
        match tag {
            1 | 2 => {
                if payload.len() < 13 {
                    return Err(format!("DML payload too short ({} bytes)", payload.len()));
                }
                let table_id = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes"));
                let txn = u64::from_le_bytes(payload[5..13].try_into().expect("8 bytes"));
                let tuple = payload[13..].to_vec();
                Ok(if tag == 1 {
                    WalRecord::Insert {
                        table_id,
                        txn,
                        tuple,
                    }
                } else {
                    WalRecord::Delete {
                        table_id,
                        txn,
                        tuple,
                    }
                })
            }
            3 => {
                let sql = std::str::from_utf8(&payload[1..])
                    .map_err(|_| "DDL payload is not UTF-8".to_string())?;
                Ok(WalRecord::Ddl {
                    sql: sql.to_string(),
                })
            }
            4 | 5 => {
                if payload.len() < 9 {
                    return Err(format!(
                        "txn-control payload too short ({} bytes)",
                        payload.len()
                    ));
                }
                let txn = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
                Ok(if tag == 4 {
                    WalRecord::Commit { txn }
                } else {
                    WalRecord::Abort { txn }
                })
            }
            other => Err(format!("unknown record tag {other}")),
        }
    }
}

/// How a frame scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanEnd {
    /// Clean end-of-file on a frame boundary.
    Clean,
    /// The file ends mid-frame (torn append); `offset` of the tear is the
    /// reader's position when it stopped.
    TornTail,
}

/// Streaming WAL reader: yields `(lsn, record)` pairs through a
/// [`BufReader`], so recovery memory is bounded by the largest record, not
/// the log size.  A torn tail ends iteration silently; a complete frame
/// with a bad CRC, a broken LSN sequence, or an undecodable payload raises
/// [`Error::WalCorrupt`] with the failing LSN and byte offset.
pub struct WalReader {
    reader: BufReader<File>,
    base_lsn: u64,
    next_lsn: u64,
    offset: u64,
    end: Option<ScanEnd>,
}

impl WalReader {
    /// Open the log at `path`; `Ok(None)` when the file does not exist.
    /// A file shorter than its header is treated as empty (a crash during
    /// initial creation — nothing was ever committed through it).
    pub fn open(path: impl AsRef<Path>) -> Result<Option<WalReader>> {
        let file = match File::open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut reader = BufReader::new(file);
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        if read_up_to(&mut reader, &mut header)? < header.len() {
            return Ok(Some(WalReader {
                reader,
                base_lsn: 0,
                next_lsn: 1,
                offset: 0,
                end: Some(ScanEnd::TornTail),
            }));
        }
        if &header[..8] != WAL_MAGIC {
            return Err(Error::WalCorrupt {
                lsn: 0,
                offset: 0,
                detail: "bad magic: not a v2 WAL file".into(),
            });
        }
        let base_lsn = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        Ok(Some(WalReader {
            reader,
            base_lsn,
            next_lsn: base_lsn + 1,
            offset: WAL_HEADER_LEN,
            end: None,
        }))
    }

    /// The base LSN from the file header (last LSN truncated away).
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// Byte offset of the next frame (for error reporting).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// True when iteration stopped at a torn (partially written) tail
    /// rather than a clean frame boundary.
    pub fn tail_was_torn(&self) -> bool {
        self.end == Some(ScanEnd::TornTail)
    }

    /// Next record, or `None` at end of log (clean or torn tail).
    pub fn next_record(&mut self) -> Result<Option<(u64, WalRecord)>> {
        if self.end.is_some() {
            return Ok(None);
        }
        let mut fh = [0u8; FRAME_HEADER_LEN];
        let got = read_up_to(&mut self.reader, &mut fh)?;
        if got < fh.len() {
            // Zero bytes at a frame boundary is a clean end; a partial
            // frame header is a torn append.
            self.end = Some(if got == 0 {
                ScanEnd::Clean
            } else {
                ScanEnd::TornTail
            });
            return Ok(None);
        }
        let lsn = u64::from_le_bytes(fh[0..8].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(fh[8..12].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(fh[12..16].try_into().expect("4 bytes")) as u64;
        // Read the payload through `take`, so a garbage length from a torn
        // header cannot force a giant allocation: we only ever buffer what
        // the file actually contains.
        let mut payload = Vec::new();
        let got = (&mut self.reader).take(len).read_to_end(&mut payload)?;
        if (got as u64) < len {
            self.end = Some(ScanEnd::TornTail);
            return Ok(None);
        }
        let mut hasher = Crc32::new();
        hasher.update(&fh[0..8]);
        hasher.update(&fh[12..16]);
        hasher.update(&payload);
        if hasher.finish() != crc {
            return Err(Error::WalCorrupt {
                lsn: self.next_lsn,
                offset: self.offset,
                detail: "frame CRC mismatch".into(),
            });
        }
        if lsn != self.next_lsn {
            return Err(Error::WalCorrupt {
                lsn: self.next_lsn,
                offset: self.offset,
                detail: format!(
                    "LSN sequence broken: found {lsn}, expected {}",
                    self.next_lsn
                ),
            });
        }
        let record = WalRecord::decode(&payload).map_err(|detail| Error::WalCorrupt {
            lsn,
            offset: self.offset,
            detail,
        })?;
        self.offset += (FRAME_HEADER_LEN as u64) + len;
        self.next_lsn += 1;
        Ok(Some((lsn, record)))
    }
}

/// Fill `buf` as far as the stream allows; the count distinguishes a clean
/// boundary (0) from a torn partial read (`0 < n < buf.len()`).
fn read_up_to(r: &mut impl Read, buf: &mut [u8]) -> Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

/// The write-ahead log: a single append-only file (plus header).
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    base_lsn: u64,
    next_lsn: u64,
    records_written: u64,
}

impl Wal {
    /// Open (or create) the log at `path`.
    ///
    /// An existing log is scanned: a torn tail is physically truncated away
    /// (those bytes were never acknowledged), and mid-log corruption is
    /// reported as an error — opening for append must not write after a
    /// frame that replay would refuse.
    ///
    /// `base_floor` is the LSN the log must at least have reached (the
    /// checkpoint LSN during recovery; 0 otherwise).  A fresh or empty log
    /// starts its header there; an existing log whose records end *below*
    /// the floor is from an older life of the database and is rejected.
    pub fn open(path: impl AsRef<Path>, base_floor: u64) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        // Scan to find the end of the valid prefix.
        let (valid_end, last_lsn, base_lsn, had_header) = match WalReader::open(&path)? {
            None => (WAL_HEADER_LEN, 0, base_floor, false),
            Some(mut r) => {
                if r.offset() == 0 {
                    // Short header: treat as empty, rewrite below.
                    (WAL_HEADER_LEN, 0, base_floor, false)
                } else {
                    let mut last = r.base_lsn();
                    while let Some((lsn, _)) = r.next_record()? {
                        last = lsn;
                    }
                    (r.offset(), last, r.base_lsn(), true)
                }
            }
        };
        if had_header && last_lsn < base_floor {
            return Err(Error::WalCorrupt {
                lsn: last_lsn,
                offset: valid_end,
                detail: format!(
                    "log ends at LSN {last_lsn} but the checkpoint requires {base_floor}; \
                     the WAL predates the checkpoint"
                ),
            });
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if !had_header {
            // Fresh file (or torn header): write a clean header.
            file.set_len(0)?;
            let mut f = &file;
            f.write_all(WAL_MAGIC)?;
            f.write_all(&base_lsn.to_le_bytes())?;
        } else {
            // Discard any torn tail so future appends start on a boundary.
            file.set_len(valid_end)?;
        }
        let mut writer = BufWriter::new(file);
        writer.seek(SeekFrom::End(0))?;
        Ok(Wal {
            path,
            writer,
            base_lsn,
            next_lsn: last_lsn.max(base_lsn) + 1,
            records_written: 0,
        })
    }

    /// Append a record to the write buffer; returns its LSN.  Durability is
    /// the caller's business (see [`SharedWal`] / [`SyncMode`]).
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let lsn = self.next_lsn;
        let mut payload = Vec::with_capacity(64);
        record.encode(&mut payload);
        let len = payload.len() as u32;
        let mut hasher = Crc32::new();
        hasher.update(&lsn.to_le_bytes());
        hasher.update(&len.to_le_bytes());
        hasher.update(&payload);
        let crc = hasher.finish();
        self.writer.write_all(&lsn.to_le_bytes())?;
        self.writer.write_all(&crc.to_le_bytes())?;
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(&payload)?;
        self.next_lsn += 1;
        self.records_written += 1;
        let m = crate::obs::metrics();
        m.wal_records_total.inc();
        m.wal_bytes_total
            .add(FRAME_HEADER_LEN as u64 + payload.len() as u64);
        Ok(lsn)
    }

    /// Flush the userspace buffer to the OS.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Flush and `sync_data` (true durability barrier).
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// A second handle onto the log file, for fsyncing outside the lock.
    pub(crate) fn file_handle(&self) -> Result<File> {
        Ok(self.writer.get_ref().try_clone()?)
    }

    /// LSN of the last appended record (`base_lsn` when empty).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// The header's base LSN.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// Records appended through this handle.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Truncate the log after a checkpoint: every record up to and
    /// including [`Wal::last_lsn`] is covered by the snapshot.  The new
    /// (empty) log carries `base_lsn = last_lsn`, so LSNs keep ascending.
    ///
    /// Crash-safe via write-to-temp + rename: a crash before the rename
    /// leaves the old log intact (its records are simply skipped on
    /// recovery because the snapshot covers them).
    pub fn truncate(&mut self) -> Result<()> {
        self.writer.flush()?;
        let new_base = self.last_lsn();
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(WAL_MAGIC)?;
            f.write_all(&new_base.to_le_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .truncate(false)
            .open(&self.path)?;
        let mut writer = BufWriter::new(file);
        writer.seek(SeekFrom::End(0))?;
        self.writer = writer;
        self.base_lsn = new_base;
        self.next_lsn = new_base + 1;
        Ok(())
    }

    /// Read every record currently in the log (tests and tools; recovery
    /// streams through [`WalReader`] instead).
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<WalRecord>> {
        let mut out = Vec::new();
        if let Some(mut r) = WalReader::open(path)? {
            while let Some((_, rec)) = r.next_record()? {
                out.push(rec);
            }
        }
        Ok(out)
    }
}

/// Best-effort directory fsync so a rename is durable on its own (POSIX
/// requires the parent directory to be synced; failures are ignored —
/// some filesystems refuse to fsync directories).
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
}

// ------------------------------------------------------------ group commit

/// Durability policy for WAL appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Buffered only; the OS (and a checkpoint) decide when bytes land.
    Off,
    /// Flush the userspace buffer per statement (survives process crash,
    /// not OS crash).
    Flush,
    /// Group commit: one `sync_data` per batch of concurrent commits
    /// (survives OS crash; the default for durable databases).
    Fsync,
    /// One `sync_data` per appended record, inside the WAL lock — the
    /// naive baseline group commit is measured against.
    FsyncPerRecord,
}

impl SyncMode {
    /// Parse a `wal_sync_mode` setting.
    pub fn parse(s: &str) -> Option<SyncMode> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(SyncMode::Off),
            "flush" => Some(SyncMode::Flush),
            "fsync" => Some(SyncMode::Fsync),
            "fsync_per_record" => Some(SyncMode::FsyncPerRecord),
            _ => None,
        }
    }

    /// Canonical setting string.
    pub fn as_str(&self) -> &'static str {
        match self {
            SyncMode::Off => "off",
            SyncMode::Flush => "flush",
            SyncMode::Fsync => "fsync",
            SyncMode::FsyncPerRecord => "fsync_per_record",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            SyncMode::Off => 0,
            SyncMode::Flush => 1,
            SyncMode::Fsync => 2,
            SyncMode::FsyncPerRecord => 3,
        }
    }

    fn from_u8(v: u8) -> SyncMode {
        match v {
            0 => SyncMode::Off,
            1 => SyncMode::Flush,
            3 => SyncMode::FsyncPerRecord,
            _ => SyncMode::Fsync,
        }
    }
}

#[derive(Default)]
struct SyncState {
    synced_lsn: u64,
    leader_running: bool,
}

/// Thread-safe WAL with group commit.
///
/// Lock order: the inner WAL mutex and the sync-state mutex are never held
/// together — the commit leader releases the sync state before flushing
/// under the inner lock, and fsyncs on a cloned file handle with *neither*
/// lock held, so appends from other sessions proceed during the fsync.
pub struct SharedWal {
    inner: Mutex<Wal>,
    mode: AtomicU8,
    /// LSN of the last buffered append (read by commits without the lock).
    written_lsn: AtomicU64,
    sync: Mutex<SyncState>,
    cond: Condvar,
}

impl SharedWal {
    /// Wrap a log with the given initial durability mode.
    pub fn new(wal: Wal, mode: SyncMode) -> SharedWal {
        let written = wal.last_lsn();
        SharedWal {
            inner: Mutex::new(wal),
            mode: AtomicU8::new(mode.to_u8()),
            written_lsn: AtomicU64::new(written),
            sync: Mutex::new(SyncState {
                synced_lsn: written,
                leader_running: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Current durability mode.
    pub fn mode(&self) -> SyncMode {
        SyncMode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Change the durability mode (the `wal_sync_mode` knob).
    pub fn set_mode(&self, mode: SyncMode) {
        self.mode.store(mode.to_u8(), Ordering::Relaxed);
    }

    /// Append a record; returns its LSN.  In `fsync` mode the record is
    /// only buffered — call [`SharedWal::commit`] (after releasing
    /// statement locks!) to make it durable.
    pub fn append(&self, record: &WalRecord) -> Result<u64> {
        let mode = self.mode();
        let lsn = {
            let mut wal = self.inner.lock();
            let lsn = wal.append(record)?;
            match mode {
                SyncMode::Off | SyncMode::Fsync => {}
                SyncMode::Flush => wal.flush()?,
                SyncMode::FsyncPerRecord => {
                    wal.sync()?;
                    crate::obs::metrics().wal_fsyncs_total.inc();
                }
            }
            self.written_lsn.store(lsn, Ordering::Release);
            lsn
        };
        if mode == SyncMode::FsyncPerRecord {
            let mut s = self.sync.lock();
            if lsn > s.synced_lsn {
                s.synced_lsn = lsn;
            }
            drop(s);
            self.cond.notify_all();
        }
        Ok(lsn)
    }

    /// Make everything appended so far durable according to the mode.  In
    /// `fsync` mode this is the group-commit rendezvous: the first waiter
    /// becomes the leader and fsyncs once for the whole batch.
    pub fn commit(&self) -> Result<()> {
        if self.mode() != SyncMode::Fsync {
            return Ok(());
        }
        // The whole rendezvous — leading the fsync or waiting for the
        // leader's — is durability-blocked time; charge it to the
        // committing query as a `wal_commit` wait.
        crate::obs::waits::time_wait(crate::obs::WaitClass::WalCommit, || self.commit_inner())
    }

    fn commit_inner(&self) -> Result<()> {
        let target = self.written_lsn.load(Ordering::Acquire);
        let mut s = self.sync.lock();
        while s.synced_lsn < target {
            if s.leader_running {
                self.cond.wait(&mut s);
                continue;
            }
            s.leader_running = true;
            drop(s);
            let res = self.flush_and_sync();
            s = self.sync.lock();
            s.leader_running = false;
            match res {
                Ok(synced) => {
                    s.synced_lsn = s.synced_lsn.max(synced);
                    self.cond.notify_all();
                }
                Err(e) => {
                    self.cond.notify_all();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Unconditional durability barrier (checkpoints): flush + fsync
    /// regardless of mode; returns the last durable LSN.
    pub fn sync_now(&self) -> Result<u64> {
        let synced = self.flush_and_sync()?;
        let mut s = self.sync.lock();
        if synced > s.synced_lsn {
            s.synced_lsn = synced;
        }
        drop(s);
        self.cond.notify_all();
        Ok(synced)
    }

    /// Flush under the inner lock, then fsync a cloned handle with no lock
    /// held; returns the LSN covered by the fsync.
    fn flush_and_sync(&self) -> Result<u64> {
        let (lsn, file) = {
            let mut wal = self.inner.lock();
            wal.flush()?;
            (wal.last_lsn(), wal.file_handle()?)
        };
        file.sync_data()?;
        crate::obs::metrics().wal_fsyncs_total.inc();
        Ok(lsn)
    }

    /// LSN of the last appended record.
    pub fn last_lsn(&self) -> u64 {
        self.written_lsn.load(Ordering::Acquire)
    }

    /// Records appended through this handle.
    pub fn records_written(&self) -> u64 {
        self.inner.lock().records_written()
    }

    /// Truncate after a checkpoint (see [`Wal::truncate`]).  The caller
    /// must have quiesced writers (the engine holds the DML lock and the
    /// catalog guard across checkpoints).
    pub fn truncate(&self) -> Result<()> {
        self.inner.lock().truncate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn temp_wal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mlql-wal-{name}-{}", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Ddl {
                sql: "CREATE TABLE book (id INT)".into(),
            },
            WalRecord::Insert {
                table_id: 0,
                txn: 0,
                tuple: vec![1, 2, 3],
            },
            WalRecord::Delete {
                table_id: 0,
                txn: 7,
                tuple: vec![1, 2, 3],
            },
            WalRecord::Commit { txn: 7 },
            WalRecord::Abort { txn: 9 },
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = temp_wal("rt");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, 0).unwrap();
        let records = sample_records();
        for (i, r) in records.iter().enumerate() {
            assert_eq!(wal.append(r).unwrap(), i as u64 + 1, "LSNs start at 1");
        }
        assert_eq!(wal.records_written(), 5);
        wal.flush().unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        assert!(Wal::replay(temp_wal("missing")).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_wal("torn");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, 0).unwrap();
        wal.append(&WalRecord::Insert {
            table_id: 9,
            txn: 0,
            tuple: vec![7; 100],
        })
        .unwrap();
        wal.flush().unwrap();
        drop(wal);
        // Simulate a torn write: append a garbage prefix of a frame.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[1, 0, 0]).unwrap();
        drop(f);
        let mut r = WalReader::open(&path).unwrap().unwrap();
        let mut n = 0;
        while r.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 1);
        assert!(r.tail_was_torn());
        // Reopening for append truncates the tear and keeps LSNs going.
        let mut wal = Wal::open(&path, 0).unwrap();
        assert_eq!(
            wal.append(&WalRecord::Insert {
                table_id: 9,
                txn: 0,
                tuple: vec![8],
            })
            .unwrap(),
            2
        );
        wal.flush().unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_reported_with_lsn_and_offset() {
        let path = temp_wal("corrupt");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, 0).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Flip one byte inside the *second* frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = {
            let mut r = WalReader::open(&path).unwrap().unwrap();
            r.next_record().unwrap();
            r.offset() as usize
        };
        bytes[first_len + FRAME_HEADER_LEN + 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut r = WalReader::open(&path).unwrap().unwrap();
        assert!(r.next_record().unwrap().is_some(), "first record intact");
        let err = r.next_record().unwrap_err();
        match err {
            Error::WalCorrupt { lsn, offset, .. } => {
                assert_eq!(lsn, 2);
                assert_eq!(offset, first_len as u64);
            }
            other => panic!("expected WalCorrupt, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_keeps_lsns_monotonic() {
        let path = temp_wal("trunc");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, 0).unwrap();
        wal.append(&WalRecord::Insert {
            table_id: 1,
            txn: 0,
            tuple: vec![1],
        })
        .unwrap();
        wal.append(&WalRecord::Insert {
            table_id: 1,
            txn: 0,
            tuple: vec![2],
        })
        .unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.base_lsn(), 2);
        let lsn = wal
            .append(&WalRecord::Insert {
                table_id: 2,
                txn: 0,
                tuple: vec![3],
            })
            .unwrap();
        assert_eq!(lsn, 3, "LSNs continue past the truncation point");
        wal.flush().unwrap();
        drop(wal);
        let mut r = WalReader::open(&path).unwrap().unwrap();
        assert_eq!(r.base_lsn(), 2);
        let (lsn, rec) = r.next_record().unwrap().unwrap();
        assert_eq!(lsn, 3);
        assert_eq!(
            rec,
            WalRecord::Insert {
                table_id: 2,
                txn: 0,
                tuple: vec![3]
            }
        );
        assert!(r.next_record().unwrap().is_none());
        // Reopen after truncation resumes from the preserved base.
        let wal = Wal::open(&path, 0).unwrap();
        assert_eq!(wal.last_lsn(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_wal_older_than_checkpoint() {
        let path = temp_wal("floor");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, 0).unwrap();
        wal.append(&WalRecord::Insert {
            table_id: 0,
            txn: 0,
            tuple: vec![1],
        })
        .unwrap();
        wal.flush().unwrap();
        drop(wal);
        // A checkpoint at LSN 10 cannot be paired with a log ending at 1.
        assert!(matches!(
            Wal::open(&path, 10),
            Err(Error::WalCorrupt { .. })
        ));
        // But an empty log accepts any floor.
        std::fs::remove_file(&path).unwrap();
        let wal = Wal::open(&path, 10).unwrap();
        assert_eq!(wal.base_lsn(), 10);
        assert_eq!(wal.last_lsn(), 10);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let path = temp_wal("group");
        let _ = std::fs::remove_file(&path);
        let shared = Arc::new(SharedWal::new(
            Wal::open(&path, 0).unwrap(),
            SyncMode::Fsync,
        ));
        let threads = 4;
        let per_thread = 25;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        shared
                            .append(&WalRecord::Insert {
                                table_id: t,
                                txn: 0,
                                tuple: vec![i as u8],
                            })
                            .unwrap();
                        shared.commit().unwrap();
                    }
                });
            }
        });
        assert_eq!(shared.records_written(), (threads * per_thread) as u64);
        drop(shared);
        assert_eq!(
            Wal::replay(&path).unwrap().len(),
            (threads * per_thread) as usize
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_mode_parse_roundtrip() {
        for m in [
            SyncMode::Off,
            SyncMode::Flush,
            SyncMode::Fsync,
            SyncMode::FsyncPerRecord,
        ] {
            assert_eq!(SyncMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(SyncMode::parse("FSYNC"), Some(SyncMode::Fsync));
        assert_eq!(SyncMode::parse("nope"), None);
    }
}
