//! Row ⇄ tuple-bytes serialization.
//!
//! Variable-length encoding, one byte of type tag per field:
//! ```text
//! 0x00 NULL
//! 0x01 Bool       + 1 byte
//! 0x02 Int        + 8 bytes LE
//! 0x03 Float      + 8 bytes LE (f64 bits)
//! 0x04 Text       + u32 len + bytes (UTF-8)
//! 0x05 Ext        + u32 type id + u32 len + bytes
//! ```

use crate::error::{Error, Result};
use crate::schema::Row;
use crate::value::{Datum, DatumRef, ExtTypeId};

/// Length of the MVCC version header that prefixes every heap tuple:
/// `xmin:u64le ‖ xmax:u64le`.  WAL records and the wire carry plain row
/// bytes; only the heap stores versioned tuples.
pub const VERSION_HEADER_LEN: usize = 16;

/// The `xmin` of a frozen tuple: visible to every snapshot.  Checkpoint
/// vacuum freezes surviving versions to this; real transaction ids start
/// at 2 so they can never collide with it (0 = invalid / "no xmax").
pub const FROZEN_TXN_ID: u64 = 1;

/// Prefix `row_bytes` with an MVCC version header.
pub fn encode_version(xmin: u64, xmax: u64, row_bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(VERSION_HEADER_LEN + row_bytes.len());
    out.extend_from_slice(&xmin.to_le_bytes());
    out.extend_from_slice(&xmax.to_le_bytes());
    out.extend_from_slice(row_bytes);
    out
}

/// Split a versioned heap tuple into `(xmin, xmax, row_bytes)`.
pub fn split_version(bytes: &[u8]) -> Result<(u64, u64, &[u8])> {
    if bytes.len() < VERSION_HEADER_LEN {
        return Err(Error::Storage(format!(
            "heap tuple shorter than its version header ({} bytes)",
            bytes.len()
        )));
    }
    let xmin = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let xmax = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    Ok((xmin, xmax, &bytes[VERSION_HEADER_LEN..]))
}

/// Encode a row into a fresh byte vector.
pub fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 9);
    for d in row {
        match d {
            Datum::Null => out.push(0x00),
            Datum::Bool(b) => {
                out.push(0x01);
                out.push(u8::from(*b));
            }
            Datum::Int(i) => {
                out.push(0x02);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Datum::Float(f) => {
                out.push(0x03);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Datum::Text(s) => {
                out.push(0x04);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Datum::Ext { ty, bytes } => {
                out.push(0x05);
                out.extend_from_slice(&ty.0.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }
    out
}

/// Decode a tuple produced by [`encode_row`].  `arity` fields are read.
pub fn decode_row(mut bytes: &[u8], arity: usize) -> Result<Row> {
    let mut row = Row::with_capacity(arity);
    for _ in 0..arity {
        row.push(next_field(&mut bytes)?.to_datum());
    }
    Ok(row)
}

/// Field `i` of a tuple produced by [`encode_row`], borrowed from `bytes`
/// with no allocation.  All `arity` fields are walked and checked as
/// [`decode_row`] checks them, so it errors exactly where `decode_row`
/// does, with the same error.
pub fn read_field(mut bytes: &[u8], arity: usize, i: usize) -> Result<DatumRef<'_>> {
    let mut field = None;
    for at in 0..arity {
        let d = next_field(&mut bytes)?;
        if at == i {
            field = Some(d);
        }
    }
    field.ok_or_else(|| Error::Execution(format!("column {i} out of range")))
}

/// Read the field at the front of `bytes` and advance past it.  Inlined
/// into its two callers: as a call it returns a 40-byte `Result` through
/// memory, which made [`read_field`] ~5× slower (48 vs 10 ns for an
/// `(INT, UNITEXT)` row, 2-vCPU host).
#[inline(always)]
fn next_field<'a>(bytes: &mut &'a [u8]) -> Result<DatumRef<'a>> {
    let corrupt = || Error::Storage("corrupt tuple".into());
    let b: &'a [u8] = bytes;
    let tag = *b.first().ok_or_else(corrupt)?;
    // The `n` bytes after the tag, and the `len` bytes after those.
    let fixed = |n: usize| b.get(1..1 + n).ok_or_else(corrupt);
    let body = |n: usize, len: usize| {
        b.get(1 + n..)
            .and_then(|r| r.get(..len))
            .ok_or_else(corrupt)
    };
    let u32_of = |v: &[u8]| u32::from_le_bytes(v.try_into().expect("4 bytes")) as usize;
    let u64_of = |v: &[u8]| u64::from_le_bytes(v.try_into().expect("8 bytes"));
    let (d, used) = match tag {
        0x00 => (DatumRef::Null, 1),
        0x01 => (DatumRef::Bool(fixed(1)?[0] != 0), 2),
        0x02 => (DatumRef::Int(u64_of(fixed(8)?) as i64), 9),
        0x03 => (DatumRef::Float(f64::from_bits(u64_of(fixed(8)?))), 9),
        0x04 => {
            let len = u32_of(fixed(4)?);
            let text = std::str::from_utf8(body(4, len)?).map_err(|_| corrupt())?;
            (DatumRef::Text(text), 5 + len)
        }
        0x05 => {
            let head = fixed(8)?;
            let len = u32_of(&head[4..]);
            let ty = ExtTypeId(u32_of(&head[..4]) as u32);
            (
                DatumRef::Ext {
                    ty,
                    bytes: body(8, len)?,
                },
                9 + len,
            )
        }
        _ => return Err(corrupt()),
    };
    *bytes = &b[used..];
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(row: Row) {
        let bytes = encode_row(&row);
        let back = decode_row(&bytes, row.len()).unwrap();
        assert_eq!(row.len(), back.len());
        for (a, b) in row.iter().zip(&back) {
            match (a, b) {
                (Datum::Null, Datum::Null) => {}
                _ => assert!(a.eq_sql(b), "{a} != {b}"),
            }
        }
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Int(-42),
            Datum::Float(2.625),
            Datum::text("héllo ☃ நேரு"),
            Datum::ext(ExtTypeId(3), vec![0u8, 255, 7]),
        ]);
    }

    #[test]
    fn roundtrip_empty_payloads() {
        roundtrip(vec![Datum::text(""), Datum::ext(ExtTypeId(0), Vec::new())]);
    }

    #[test]
    fn truncated_input_is_detected() {
        let bytes = encode_row(&vec![Datum::Int(7)]);
        assert!(decode_row(&bytes[..bytes.len() - 1], 1).is_err());
        assert!(decode_row(&[], 1).is_err());
        assert!(decode_row(&[0xff], 1).is_err());
    }

    #[test]
    fn arity_mismatch_reads_prefix() {
        let bytes = encode_row(&vec![Datum::Int(1), Datum::Int(2)]);
        let one = decode_row(&bytes, 1).unwrap();
        assert_eq!(one.len(), 1);
        assert!(one[0].eq_sql(&Datum::Int(1)));
    }

    #[test]
    fn version_header_roundtrip() {
        let row = encode_row(&vec![Datum::Int(7), Datum::text("x")]);
        let versioned = encode_version(42, 0, &row);
        assert_eq!(versioned.len(), VERSION_HEADER_LEN + row.len());
        let (xmin, xmax, rest) = split_version(&versioned).unwrap();
        assert_eq!((xmin, xmax), (42, 0));
        assert_eq!(rest, &row[..]);
        // decode_row on the stripped bytes recovers the row.
        let back = decode_row(rest, 2).unwrap();
        assert!(back[0].eq_sql(&Datum::Int(7)));
    }

    #[test]
    fn short_version_header_rejected() {
        assert!(split_version(&[0u8; 15]).is_err());
        assert!(split_version(&[]).is_err());
        let (xmin, xmax, rest) = split_version(&[0u8; 16]).unwrap();
        assert_eq!((xmin, xmax), (0, 0));
        assert!(rest.is_empty());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = vec![0x04];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_row(&bytes, 1).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_datum() -> impl Strategy<Value = Datum> {
        prop_oneof![
            Just(Datum::Null),
            any::<bool>().prop_map(Datum::Bool),
            any::<i64>().prop_map(Datum::Int),
            any::<f64>().prop_map(Datum::Float),
            ".{0,40}".prop_map(Datum::text),
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64))
                .prop_map(|(t, b)| Datum::ext(ExtTypeId(t), b)),
        ]
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(row in proptest::collection::vec(arb_datum(), 0..8)) {
            let bytes = encode_row(&row);
            let back = decode_row(&bytes, row.len()).unwrap();
            prop_assert_eq!(row.len(), back.len());
            for (a, b) in row.iter().zip(&back) {
                match (a, b) {
                    (Datum::Null, Datum::Null) => {}
                    (Datum::Float(x), Datum::Float(y)) => {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "NaN-safe float identity");
                    }
                    (Datum::Ext { ty: t1, bytes: b1 }, Datum::Ext { ty: t2, bytes: b2 }) => {
                        prop_assert_eq!(t1, t2);
                        prop_assert_eq!(b1, b2);
                    }
                    _ => prop_assert!(a.eq_sql(b), "{} != {}", a, b),
                }
            }
        }

        #[test]
        fn truncation_never_panics(row in proptest::collection::vec(arb_datum(), 1..6),
                                   cut in 0usize..64) {
            let bytes = encode_row(&row);
            let cut = cut.min(bytes.len());
            // Any prefix either decodes (when the cut lands after the full
            // row) or errors — it must never panic.
            let _ = decode_row(&bytes[..cut], row.len());
        }

        #[test]
        fn read_field_borrows_the_decoded_column(row in proptest::collection::vec(arb_datum(), 1..8)) {
            let bytes = encode_row(&row);
            let arity = row.len();
            let decoded = decode_row(&bytes, arity).unwrap();
            for (i, want) in decoded.iter().enumerate() {
                let got = read_field(&bytes, arity, i).unwrap().to_datum();
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "column {}", i);
                if let (Datum::Float(x), Datum::Float(y)) = (&got, want) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            prop_assert!(read_field(&bytes, arity, arity).is_err());
            // Every truncated prefix, and every byte overwritten with a
            // bad tag (or a bad length or text byte, wherever it lands),
            // errors exactly where decode_row errors, with its error.
            let mut damaged: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
            for at in 0..bytes.len() {
                for bad in [0x06, 0x80, 0xff] {
                    let mut b = bytes.clone();
                    b[at] = bad;
                    damaged.push(b);
                }
            }
            for b in &damaged {
                let whole = decode_row(b, arity).map(|_| ()).map_err(|e| e.to_string());
                for i in 0..arity {
                    let one = read_field(b, arity, i).map(|_| ()).map_err(|e| e.to_string());
                    prop_assert_eq!(&one, &whole, "column {} of {:?}", i, b);
                }
            }
        }

        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128),
                                arity in 0usize..6) {
            let _ = decode_row(&bytes, arity);
            for i in 0..=arity {
                let _ = read_field(&bytes, arity, i);
            }
        }
    }
}
