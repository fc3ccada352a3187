//! Slotted pages.
//!
//! Layout (offsets in bytes, little-endian):
//! ```text
//! 0..2    slot_count
//! 2..4    free_start  (end of slot array growth region)
//! 4..6    free_end    (start of tuple data region, grows downward)
//! 6..8    reserved (flags)
//! 8..     slot array: per slot {offset: u16, len: u16}; len == 0 ⇒ dead
//! ...     free space
//! ...     tuple data (packed at the end of the page)
//! ```
//!
//! [`Page`] writes a page; the read side — [`read_tuple`],
//! [`page_tuple_ranges`] — works over a borrowed `&[u8]`, so a reader
//! never copies a page to look into it.

use crate::error::{Error, Result};
use std::ops::Range;

/// Size of every page, matching PostgreSQL's default.
pub const PAGE_SIZE: usize = 8192;

const HEADER: usize = 8;
const SLOT: usize = 4;

/// A typed view over one page buffer.
pub struct Page<'a> {
    buf: &'a mut [u8],
}

impl<'a> Page<'a> {
    /// Wrap a raw page buffer (must be `PAGE_SIZE` bytes).
    pub fn new(buf: &'a mut [u8]) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        Page { buf }
    }

    /// Format an empty page in place.
    pub fn init(&mut self) {
        self.set_u16(0, 0); // slot_count
        self.set_u16(2, HEADER as u16); // free_start
        self.set_u16(4, PAGE_SIZE as u16); // free_end
        self.set_u16(6, 0);
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16_at(self.buf, off)
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots (live + dead).
    pub fn slot_count(&self) -> usize {
        self.u16_at(0) as usize
    }

    fn free_start(&self) -> usize {
        self.u16_at(2) as usize
    }

    fn free_end(&self) -> usize {
        self.u16_at(4) as usize
    }

    /// Contiguous free bytes remaining (tuple + new slot entry).
    pub fn free_space(&self) -> usize {
        self.free_end().saturating_sub(self.free_start())
    }

    /// Can a tuple of `len` bytes be inserted?
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT
    }

    /// Insert a tuple; returns the slot number.
    pub fn insert(&mut self, tuple: &[u8]) -> Result<u16> {
        if tuple.is_empty() {
            return Err(Error::Storage("empty tuple".into()));
        }
        if tuple.len() > u16::MAX as usize {
            return Err(Error::Storage(format!(
                "tuple of {} bytes exceeds page",
                tuple.len()
            )));
        }
        if !self.fits(tuple.len()) {
            return Err(Error::Storage("page full".into()));
        }
        let slot = self.slot_count() as u16;
        let data_start = self.free_end() - tuple.len();
        self.buf[data_start..data_start + tuple.len()].copy_from_slice(tuple);
        let slot_off = HEADER + slot as usize * SLOT;
        self.set_u16(slot_off, data_start as u16);
        self.set_u16(slot_off + 2, tuple.len() as u16);
        self.set_u16(0, slot + 1);
        self.set_u16(2, (slot_off + SLOT) as u16);
        self.set_u16(4, data_start as u16);
        Ok(slot)
    }

    /// Mark a slot dead.  Space is not compacted (VACUUM is out of scope);
    /// dead slots are skipped by scans.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        if slot as usize >= self.slot_count() {
            return Err(Error::Storage(format!("no slot {slot}")));
        }
        let slot_off = HEADER + slot as usize * SLOT;
        self.set_u16(slot_off + 2, 0);
        Ok(())
    }
}

fn u16_at(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Where the tuple in `slot` lies in the page image `buf`; `None` when
/// the slot is dead or absent.
pub(crate) fn tuple_range(buf: &[u8], slot: u16) -> Option<Range<usize>> {
    if slot >= u16_at(buf, 0) {
        return None;
    }
    let slot_off = HEADER + slot as usize * SLOT;
    let off = u16_at(buf, slot_off) as usize;
    let len = u16_at(buf, slot_off + 2) as usize;
    (len > 0).then(|| off..off + len)
}

/// The tuple in `slot` of the page image `buf`; `None` when the slot is
/// dead or absent.
pub(crate) fn read_tuple(buf: &[u8], slot: u16) -> Option<&[u8]> {
    tuple_range(buf, slot).map(|r| &buf[r])
}

/// `(slot, range of buf)` of every live tuple of the page image `buf`, in
/// slot order.
pub(crate) fn page_tuple_ranges(buf: &[u8]) -> impl Iterator<Item = (u16, Range<usize>)> + '_ {
    (0..u16_at(buf, 0)).filter_map(move |s| tuple_range(buf, s).map(|r| (s, r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        Page::new(&mut buf).init();
        buf
    }

    fn live(buf: &[u8]) -> Vec<&[u8]> {
        page_tuple_ranges(buf).map(|(_, r)| &buf[r]).collect()
    }

    #[test]
    fn insert_and_get() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(read_tuple(&buf, s0), Some(&b"hello"[..]));
        assert_eq!(read_tuple(&buf, s1), Some(&b"world!"[..]));
        assert_eq!(read_tuple(&buf, 99), None);
    }

    #[test]
    fn delete_marks_dead() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        let s = p.insert(b"gone").unwrap();
        p.delete(s).unwrap();
        assert!(p.delete(42).is_err());
        assert_eq!(read_tuple(&buf, s), None);
        assert!(live(&buf).is_empty());
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        let tuple = vec![7u8; 1000];
        let mut n = 0;
        while p.fits(tuple.len()) {
            p.insert(&tuple).unwrap();
            n += 1;
        }
        assert_eq!(n, 8, "8×(1000+4) + header fits in 8192");
        assert!(p.insert(&tuple).is_err());
        // Smaller tuples still fit in the remainder.
        assert!(p.insert(&[1u8; 50]).is_ok());
    }

    #[test]
    fn iter_skips_dead_preserves_order() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        for b in [b"a", b"b", b"c"] {
            p.insert(&b[..]).unwrap();
        }
        p.delete(1).unwrap();
        assert_eq!(live(&buf), vec![&b"a"[..], &b"c"[..]]);
        let slots: Vec<u16> = page_tuple_ranges(&buf).map(|(s, _)| s).collect();
        assert_eq!(slots, vec![0, 2]);
    }

    #[test]
    fn empty_and_oversized_tuples_rejected() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        assert!(p.insert(b"").is_err());
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_err());
    }

    #[test]
    fn persists_across_reinterpretation() {
        let mut buf = fresh();
        Page::new(&mut buf).insert(b"durable").unwrap();
        let copy = buf.clone();
        assert_eq!(read_tuple(&copy, 0), Some(&b"durable"[..]));
    }
}
