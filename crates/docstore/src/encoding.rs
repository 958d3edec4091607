//! Binary encoding of [`Value`]s, documents and WAL frames.
//!
//! A small, versioned, self-describing format (one type-tag byte per value,
//! little-endian fixed-width lengths). Chosen over a textual format because
//! the WAL sits on the write path of every ingest and replays at startup;
//! the encoding is allocation-light and validates eagerly so corruption is
//! caught at the frame that contains it.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cryptext_common::{Error, Result};

use crate::value::{Document, Value};

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ARRAY: u8 = 6;
const TAG_OBJECT: u8 = 7;

/// Append the encoding of `v` to `buf`.
pub fn encode_value(v: &Value, buf: &mut BytesMut) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        Value::Array(items) => {
            buf.put_u8(TAG_ARRAY);
            buf.put_u32_le(items.len() as u32);
            for item in items {
                encode_value(item, buf);
            }
        }
        Value::Object(map) => encode_object(map.len(), map.iter(), buf),
    }
}

/// Append an object's encoding from borrowed fields (`n` of them, in
/// iteration order).
fn encode_object<'a>(
    n: usize,
    fields: impl Iterator<Item = (&'a String, &'a Value)>,
    buf: &mut BytesMut,
) {
    buf.put_u8(TAG_OBJECT);
    buf.put_u32_le(n as u32);
    for (k, val) in fields {
        put_str(buf, k);
        encode_value(val, buf);
    }
}

/// Decode one value from the front of `buf`.
pub fn decode_value(buf: &mut Bytes) -> Result<Value> {
    if buf.is_empty() {
        return Err(Error::corrupt("unexpected end of value stream"));
    }
    let tag = buf.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => {
            ensure(buf, 8)?;
            Value::Int(buf.get_i64_le())
        }
        TAG_FLOAT => {
            ensure(buf, 8)?;
            Value::Float(buf.get_f64_le())
        }
        TAG_STR => Value::Str(get_str(buf)?),
        TAG_ARRAY => {
            ensure(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            // Guard against corrupt lengths demanding absurd allocation:
            // each element needs at least its 1-byte tag.
            if n > buf.remaining() {
                return Err(Error::corrupt(format!("array length {n} exceeds frame")));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(buf)?);
            }
            Value::Array(items)
        }
        TAG_OBJECT => {
            ensure(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            if n > buf.remaining() {
                return Err(Error::corrupt(format!("object length {n} exceeds frame")));
            }
            let mut map = std::collections::BTreeMap::new();
            for _ in 0..n {
                let k = get_str(buf)?;
                let v = decode_value(buf)?;
                map.insert(k, v);
            }
            Value::Object(map)
        }
        other => return Err(Error::corrupt(format!("unknown value tag {other}"))),
    })
}

/// Encode a document (as its object value), straight from its fields:
/// the bytes equal `encode_value(&doc.to_value(), buf)` without cloning
/// the field map first.
pub fn encode_document(doc: &Document, buf: &mut BytesMut) {
    encode_object(doc.len(), doc.iter(), buf);
}

/// Decode a document; errors when the value is not an object.
pub fn decode_document(buf: &mut Bytes) -> Result<Document> {
    let v = decode_value(buf)?;
    Document::from_value(v).ok_or_else(|| Error::corrupt("document is not an object"))
}

/// Append a length-prefixed string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed string.
pub fn get_str(buf: &mut Bytes) -> Result<String> {
    ensure(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    ensure(buf, len)?;
    let bytes = buf.split_to(len);
    String::from_utf8(bytes.to_vec()).map_err(|e| Error::corrupt(format!("invalid utf-8: {e}")))
}

fn ensure(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(Error::corrupt(format!(
            "truncated value: need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) used to frame WAL records and
/// validate snapshots. Implemented locally to stay inside the approved
/// dependency set.
///
/// Slicing-by-8: each step folds eight input bytes through eight lookup
/// tables (built at compile time), and the last `len % 8` bytes go one at
/// a time through the first table, which is the classic bytewise one. The
/// checksums are exactly the bytewise algorithm's, so every stored frame
/// and snapshot keeps its bytes.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// `CRC32_TABLES[0][b]` is the CRC register after shifting byte `b`
/// through the reflected polynomial; `CRC32_TABLES[k][b]` is that after
/// `k` further zero bytes, so table `k` accounts for a byte `k` positions
/// before the end of an 8-byte word.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// The one-bit-at-a-time CRC-32 the tables are derived from: the
/// reference [`crc32`] is held to.
#[cfg(test)]
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn round_trip(v: &Value) -> Value {
        let mut buf = BytesMut::new();
        encode_value(v, &mut buf);
        let mut bytes = buf.freeze();
        let out = decode_value(&mut bytes).expect("decode");
        assert!(bytes.is_empty(), "all bytes consumed");
        out
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Float(-0.0),
            Value::Str(String::new()),
            Value::Str("ünïcødé 🙂".into()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn float_nan_round_trips_as_nan() {
        let out = round_trip(&Value::Float(f64::NAN));
        match out {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Object(BTreeMap::from([
            ("token".to_string(), Value::Str("suic1de".into())),
            (
                "codes".to_string(),
                Value::Array(vec![Value::Str("SU243".into()), Value::Str("SU230".into())]),
            ),
            (
                "meta".to_string(),
                Value::Object(BTreeMap::from([
                    ("count".to_string(), Value::Int(12)),
                    ("ratio".to_string(), Value::Float(0.5)),
                    ("flag".to_string(), Value::Bool(true)),
                    ("nothing".to_string(), Value::Null),
                ])),
            ),
        ]));
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn document_round_trip() {
        let doc = Document::new().with("a", 1i64).with("b", "x");
        let mut buf = BytesMut::new();
        encode_document(&doc, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_document(&mut bytes).unwrap(), doc);
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut bytes = Bytes::from_static(&[99]);
        assert!(decode_value(&mut bytes).is_err());
    }

    #[test]
    fn decode_rejects_truncation_at_every_prefix() {
        let v = Value::Object(BTreeMap::from([(
            "k".to_string(),
            Value::Array(vec![Value::Int(1), Value::Str("s".into())]),
        )]));
        let mut buf = BytesMut::new();
        encode_value(&v, &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut prefix = full.slice(0..cut);
            assert!(
                decode_value(&mut prefix).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn decode_rejects_absurd_length() {
        // Array claiming u32::MAX elements with a 1-byte body.
        let mut buf = BytesMut::new();
        buf.put_u8(6);
        buf.put_u32_le(u32::MAX);
        buf.put_u8(0);
        let mut bytes = buf.freeze();
        assert!(decode_value(&mut bytes).is_err());
    }

    #[test]
    fn decode_rejects_non_object_document() {
        let mut buf = BytesMut::new();
        encode_value(&Value::Int(5), &mut buf);
        let mut bytes = buf.freeze();
        assert!(decode_document(&mut bytes).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_short_length_and_alignment() {
        let buf: Vec<u8> = (0..72u32).map(|i| (i * 151 + 7) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bitwise(data),
                    "offset {offset} len {len}"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn value_strategy() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite floats only: NaN breaks PartialEq round-trip checks.
            (-1e12f64..1e12).prop_map(Value::Float),
            "\\PC{0,16}".prop_map(Value::Str),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(Value::Object),
            ]
        })
    }

    proptest! {
        /// Slicing-by-8 computes the one-bit-at-a-time checksum over any
        /// bytes, from any start offset.
        #[test]
        fn crc32_equals_the_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..1024),
            skip in 0usize..8,
        ) {
            let data = &data[skip.min(data.len())..];
            prop_assert_eq!(crc32(data), crc32_bitwise(data));
        }

        /// Every value round-trips bit-exactly through the binary encoding.
        #[test]
        fn encode_decode_round_trip(v in value_strategy()) {
            let mut buf = BytesMut::new();
            encode_value(&v, &mut buf);
            let mut bytes = buf.freeze();
            let out = decode_value(&mut bytes).expect("decode");
            prop_assert!(bytes.is_empty());
            prop_assert_eq!(out, v);
        }

        /// A document encodes from borrows to exactly the bytes of its
        /// cloned object value.
        #[test]
        fn encode_document_matches_its_object_value(
            fields in proptest::collection::btree_map("[a-z_]{1,8}", value_strategy(), 0..6),
        ) {
            let doc = Document::from_value(Value::Object(fields)).expect("object");
            let mut borrowed = BytesMut::new();
            encode_document(&doc, &mut borrowed);
            let mut cloned = BytesMut::new();
            encode_value(&doc.to_value(), &mut cloned);
            prop_assert_eq!(borrowed.to_vec(), cloned.to_vec());
        }

        /// Corrupting any single byte of an encoded value either still
        /// decodes (the byte was inert, e.g. inside a string) or errors —
        /// it must never panic.
        #[test]
        fn single_byte_corruption_never_panics(v in value_strategy(), idx in any::<prop::sample::Index>(), flip in 1u8..=255) {
            let mut buf = BytesMut::new();
            encode_value(&v, &mut buf);
            let mut data = buf.to_vec();
            if !data.is_empty() {
                let i = idx.index(data.len());
                data[i] ^= flip;
                let mut bytes = Bytes::from(data);
                let _ = decode_value(&mut bytes); // must not panic
            }
        }
    }
}
