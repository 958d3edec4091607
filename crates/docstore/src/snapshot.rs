//! Point-in-time snapshots.
//!
//! A snapshot is a single file capturing every collection (documents and
//! next-id counters). Layout:
//!
//! ```text
//! magic "CXDB" | version u32 | body... | crc32(body) u32
//! body := n_collections u32, then per collection:
//!         name | next_id u64 | n_indexes u32 (always 0) | n_docs u64, (id u64, doc)*
//! ```
//!
//! `n_indexes` is always 0: collections have no secondary indexes. A
//! snapshot that declares any (a field name each, after the count) was
//! written by a store that had them, and is refused as corrupt rather than
//! loaded without them.
//!
//! Snapshots are written to a temporary file and atomically renamed into
//! place, so a crash during checkpointing leaves the previous snapshot
//! intact.

use std::io::{Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cryptext_common::failpoint::{self, FailAction};
use cryptext_common::{Error, Result};

use crate::collection::Collection;
use crate::encoding::{crc32, decode_document, encode_document, get_str, put_str};

const MAGIC: &[u8; 4] = b"CXDB";
const VERSION: u32 = 1;

/// Serialize `collections` into snapshot bytes.
pub fn encode_snapshot(collections: &[&Collection]) -> Vec<u8> {
    let mut body = BytesMut::with_capacity(4096);
    body.put_u32_le(collections.len() as u32);
    for coll in collections {
        put_str(&mut body, coll.name());
        body.put_u64_le(coll.next_id());
        body.put_u32_le(0); // n_indexes
        let docs: Vec<_> = coll.scan().collect();
        body.put_u64_le(docs.len() as u64);
        for (id, doc) in docs {
            body.put_u64_le(id.0);
            encode_document(doc, &mut body);
        }
    }

    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// Parse snapshot bytes back into collections.
pub fn decode_snapshot(data: &[u8]) -> Result<Vec<Collection>> {
    if data.len() < 12 {
        return Err(Error::corrupt("snapshot too small"));
    }
    if &data[..4] != MAGIC {
        return Err(Error::corrupt("bad snapshot magic"));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(Error::corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let body = &data[8..data.len() - 4];
    let stored_crc = u32::from_le_bytes(data[data.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Err(Error::corrupt("snapshot crc mismatch"));
    }

    let mut buf = Bytes::copy_from_slice(body);
    if buf.remaining() < 4 {
        return Err(Error::corrupt("snapshot body truncated"));
    }
    let n_collections = buf.get_u32_le() as usize;
    // Corrupt (or crafted — the CRC is not tamper-proof) counts must
    // surface as `Err`, never as a sized allocation: each collection needs
    // at least its 24-byte fixed header, so a count beyond the remaining
    // bytes is impossible and `with_capacity` on it could abort the
    // process on allocation failure before any per-item bounds check runs.
    if n_collections > buf.remaining() {
        return Err(Error::corrupt(format!(
            "snapshot claims {n_collections} collections in {} bytes",
            buf.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n_collections);
    for _ in 0..n_collections {
        let name = get_str(&mut buf)?;
        if buf.remaining() < 8 {
            return Err(Error::corrupt("snapshot collection header truncated"));
        }
        let next_id = buf.get_u64_le();
        if buf.remaining() < 4 {
            return Err(Error::corrupt("snapshot index header truncated"));
        }
        let n_indexes = buf.get_u32_le();
        if n_indexes != 0 {
            return Err(Error::corrupt(format!(
                "snapshot collection {name} declares {n_indexes} secondary indexes, \
                 which this version no longer keeps"
            )));
        }
        if buf.remaining() < 8 {
            return Err(Error::corrupt("snapshot doc count truncated"));
        }
        let n_docs = buf.get_u64_le() as usize;
        let mut coll = Collection::new(name);
        for _ in 0..n_docs {
            if buf.remaining() < 8 {
                return Err(Error::corrupt("snapshot doc id truncated"));
            }
            let id = buf.get_u64_le();
            let doc = decode_document(&mut buf)?;
            coll.insert_with_id(id, doc);
        }
        // insert_with_id advances next_id past the max id; restore the
        // recorded counter if it was further ahead (deleted tail ids).
        if coll.next_id() < next_id {
            coll.bump_next_id(next_id);
        }
        out.push(coll);
    }
    if !buf.is_empty() {
        return Err(Error::corrupt("trailing bytes in snapshot"));
    }
    Ok(out)
}

/// Write a snapshot atomically: temp file in the same directory, fsync,
/// rename over `path`. A crash anywhere before the rename leaves the
/// previous snapshot untouched (at worst a stale `.tmp` file remains,
/// which the next successful write replaces).
pub fn write_snapshot(path: &Path, collections: &[&Collection]) -> Result<()> {
    let bytes = encode_snapshot(collections);
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        match failpoint::trigger("snapshot.write") {
            Some(FailAction::Kill) => return Err(failpoint::injected("snapshot.write")),
            Some(FailAction::Torn(k)) => {
                // Crash mid-write: a partial tmp file is left behind, the
                // live snapshot is untouched.
                f.write_all(&bytes[..k.min(bytes.len())])?;
                return Err(failpoint::injected("snapshot.write"));
            }
            Some(FailAction::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            None => {}
        }
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    match failpoint::trigger("snapshot.rename") {
        Some(FailAction::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        Some(_) => return Err(failpoint::injected("snapshot.rename")),
        None => {}
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read a snapshot file; a missing file yields an empty collection set.
pub fn read_snapshot(path: &Path) -> Result<Vec<Collection>> {
    let mut data = Vec::new();
    match std::fs::File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    }
    decode_snapshot(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Document;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cryptext-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build_collection() -> Collection {
        let mut c = Collection::new("tokens");
        c.insert(
            Document::new()
                .with("token", "the")
                .with("codes", vec!["TH000"]),
        );
        c.insert(
            Document::new()
                .with("token", "dirty")
                .with("codes", vec!["DI630"]),
        );
        let id = c.insert(
            Document::new()
                .with("token", "temp")
                .with("codes", vec!["TE510"]),
        );
        c.delete(id); // leaves a gap so next_id > max live id
        c
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = build_collection();
        let bytes = encode_snapshot(&[&c]);
        let restored = decode_snapshot(&bytes).unwrap();
        assert_eq!(restored.len(), 1);
        let r = &restored[0];
        assert_eq!(r.name(), "tokens");
        assert_eq!(r.len(), 2);
        assert_eq!(r.next_id(), c.next_id(), "id counter survives deletes");
        // Every document comes back under its id.
        for (id, doc) in c.scan() {
            assert_eq!(r.get(id), Some(doc));
        }
    }

    #[test]
    fn multiple_collections_round_trip() {
        let a = build_collection();
        let mut b = Collection::new("posts");
        b.insert(Document::new().with("body", "hello"));
        let bytes = encode_snapshot(&[&a, &b]);
        let restored = decode_snapshot(&bytes).unwrap();
        assert_eq!(restored.len(), 2);
        let names: Vec<&str> = restored.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["tokens", "posts"]);
    }

    #[test]
    fn empty_snapshot_round_trip() {
        let bytes = encode_snapshot(&[]);
        assert!(decode_snapshot(&bytes).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_magic_version_crc() {
        let c = build_collection();
        let good = encode_snapshot(&[&c]);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode_snapshot(&bad).is_err(), "magic");

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(decode_snapshot(&bad).is_err(), "version");

        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(decode_snapshot(&bad).is_err(), "crc");

        assert!(decode_snapshot(&good[..8]).is_err(), "truncated");
    }

    /// Re-frame a tampered body with a valid CRC, so decoding exercises
    /// the structural guards rather than stopping at the checksum.
    fn reframe(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out
    }

    #[test]
    fn absurd_collection_count_is_error_not_abort() {
        // A valid-CRC snapshot claiming u32::MAX collections in a handful
        // of bytes: the old code passed the count straight to
        // `Vec::with_capacity`, which aborts the process on allocation
        // failure — a corrupt file must return `Err` instead.
        let mut body = Vec::new();
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_snapshot(&reframe(&body)).unwrap_err();
        assert!(matches!(err, cryptext_common::Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn absurd_index_count_is_error_not_abort() {
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes()); // one collection
        body.extend_from_slice(&1u32.to_le_bytes()); // name len 1
        body.push(b'c');
        body.extend_from_slice(&0u64.to_le_bytes()); // next_id
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // n_indexes: absurd
        let err = decode_snapshot(&reframe(&body)).unwrap_err();
        assert!(matches!(err, cryptext_common::Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn truncated_file_at_every_prefix_is_error_not_panic() {
        let c = build_collection();
        let good = encode_snapshot(&[&c]);
        for cut in 0..good.len() {
            assert!(
                decode_snapshot(&good[..cut]).is_err(),
                "prefix of {cut} bytes must be a clean error"
            );
        }
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = tmp_dir("file");
        let path = dir.join("db.snapshot");
        assert!(read_snapshot(&path).unwrap().is_empty(), "missing = empty");
        let c = build_collection();
        write_snapshot(&path, &[&c]).unwrap();
        let restored = read_snapshot(&path).unwrap();
        assert_eq!(restored[0].len(), 2);
        // No temp file left behind.
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = tmp_dir("rewrite");
        let path = dir.join("db.snapshot");
        let c = build_collection();
        write_snapshot(&path, &[&c]).unwrap();
        let mut c2 = Collection::new("other");
        c2.insert(Document::new().with("x", 1i64));
        write_snapshot(&path, &[&c2]).unwrap();
        let restored = read_snapshot(&path).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].name(), "other");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes fed to the snapshot decoder either decode or
        /// error — never panic, never abort on a sized allocation. (The
        /// load path runs at process start; a corrupt file must surface as
        /// a recoverable `Err` from `Database::open`.)
        #[test]
        fn decode_snapshot_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_snapshot(&bytes);
        }

        /// Same property with a well-formed frame (magic/version/CRC all
        /// valid) around arbitrary body bytes, so the structural decoders
        /// past the checksum are the code actually exercised.
        #[test]
        fn decode_framed_garbage_never_panics(body in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut data = Vec::with_capacity(body.len() + 12);
            data.extend_from_slice(MAGIC);
            data.extend_from_slice(&VERSION.to_le_bytes());
            data.extend_from_slice(&body);
            data.extend_from_slice(&crc32(&body).to_le_bytes());
            let _ = decode_snapshot(&data);
        }
    }
}
