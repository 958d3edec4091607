//! Write-ahead log.
//!
//! Every mutation is appended here before being applied in memory. Records
//! are framed `[len: u32][crc32: u32][payload]`; recovery reads frames
//! until end-of-file or the first frame whose length/CRC fails, treating a
//! torn tail (a crash mid-append) as a clean end of log — standard
//! ARIES-style physical logging, minus the undo side because applies happen
//! strictly after append. A frame that passes its CRC but does not decode
//! is no tear: [`read_wal`] reports it as corrupt instead of dropping it and
//! every record after it.
//!
//! The framing layer ([`FrameWriter`], [`read_frames`]) is generic over the
//! payload and is reused by the streaming-ingest delta logs in
//! `cryptext-core`; [`WalWriter`]/[`read_wal`] specialize it to [`WalOp`]
//! payloads.
//!
//! Opening a writer is *recovering*: [`FrameWriter::open`] scans the file
//! and truncates anything past the last intact frame before appending.
//! Without that, a writer reopened after a crash would append fresh frames
//! *after* the torn bytes, and recovery — which stops at the first bad
//! frame — would silently discard every frame written after the crash.

use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cryptext_common::failpoint::{self, FailAction};
use cryptext_common::{Error, Result};

use crate::encoding::{crc32, decode_document, encode_document, get_str, put_str};
use crate::value::Document;

/// One logical WAL operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A collection came into existence.
    CreateCollection {
        /// Collection name.
        name: String,
    },
    /// A collection was dropped.
    DropCollection {
        /// Collection name.
        name: String,
    },
    /// A document was inserted (or replaced at an explicit id).
    Insert {
        /// Collection name.
        collection: String,
        /// Assigned document id.
        id: u64,
        /// Full document payload.
        doc: Document,
    },
    /// A document was replaced.
    Update {
        /// Collection name.
        collection: String,
        /// Target document id.
        id: u64,
        /// New document payload.
        doc: Document,
    },
    /// A document was deleted.
    Delete {
        /// Collection name.
        collection: String,
        /// Target document id.
        id: u64,
    },
    /// A collection was renamed, replacing any collection already at the
    /// destination name. One WAL record, applied atomically on replay —
    /// this is the commit point crash-safe persists pivot on: build the
    /// new state under a staging name, then rename it over the live name.
    RenameCollection {
        /// Source collection name (must exist).
        from: String,
        /// Destination name; an existing collection here is replaced.
        to: String,
    },
}

const OP_CREATE_COLLECTION: u8 = 1;
const OP_DROP_COLLECTION: u8 = 2;
// Tag 3 recorded a secondary index's creation, and was retired with the
// indexes. It is never reused: a log that holds one decodes as corrupt.
pub(crate) const OP_INSERT: u8 = 4;
pub(crate) const OP_UPDATE: u8 = 5;
const OP_DELETE: u8 = 6;
const OP_RENAME_COLLECTION: u8 = 7;

impl WalOp {
    /// Append the op payload (without framing) to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        match self {
            WalOp::CreateCollection { name } => {
                buf.put_u8(OP_CREATE_COLLECTION);
                put_str(buf, name);
            }
            WalOp::DropCollection { name } => {
                buf.put_u8(OP_DROP_COLLECTION);
                put_str(buf, name);
            }
            WalOp::Insert {
                collection,
                id,
                doc,
            } => encode_doc_op(OP_INSERT, collection, *id, doc, buf),
            WalOp::Update {
                collection,
                id,
                doc,
            } => encode_doc_op(OP_UPDATE, collection, *id, doc, buf),
            WalOp::Delete { collection, id } => {
                buf.put_u8(OP_DELETE);
                put_str(buf, collection);
                buf.put_u64_le(*id);
            }
            WalOp::RenameCollection { from, to } => {
                buf.put_u8(OP_RENAME_COLLECTION);
                put_str(buf, from);
                put_str(buf, to);
            }
        }
    }

    /// Decode an op payload.
    pub fn decode(mut buf: Bytes) -> Result<WalOp> {
        if buf.is_empty() {
            return Err(Error::corrupt("empty wal record"));
        }
        let tag = buf.get_u8();
        let op = match tag {
            OP_CREATE_COLLECTION => WalOp::CreateCollection {
                name: get_str(&mut buf)?,
            },
            OP_DROP_COLLECTION => WalOp::DropCollection {
                name: get_str(&mut buf)?,
            },
            OP_INSERT => {
                let collection = get_str(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(Error::corrupt("truncated insert record"));
                }
                let id = buf.get_u64_le();
                let doc = decode_document(&mut buf)?;
                WalOp::Insert {
                    collection,
                    id,
                    doc,
                }
            }
            OP_UPDATE => {
                let collection = get_str(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(Error::corrupt("truncated update record"));
                }
                let id = buf.get_u64_le();
                let doc = decode_document(&mut buf)?;
                WalOp::Update {
                    collection,
                    id,
                    doc,
                }
            }
            OP_DELETE => {
                let collection = get_str(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(Error::corrupt("truncated delete record"));
                }
                let id = buf.get_u64_le();
                WalOp::Delete { collection, id }
            }
            OP_RENAME_COLLECTION => WalOp::RenameCollection {
                from: get_str(&mut buf)?,
                to: get_str(&mut buf)?,
            },
            other => return Err(Error::corrupt(format!("unknown wal op tag {other}"))),
        };
        if !buf.is_empty() {
            return Err(Error::corrupt("trailing bytes in wal record"));
        }
        Ok(op)
    }
}

/// Append the payload of an insert (`tag` [`OP_INSERT`]) or update
/// ([`OP_UPDATE`]) record, encoded from borrows: the same bytes as the
/// owned [`WalOp`]'s [`WalOp::encode`], without cloning the document into
/// one first.
pub(crate) fn encode_doc_op(
    tag: u8,
    collection: &str,
    id: u64,
    doc: &Document,
    buf: &mut BytesMut,
) {
    buf.put_u8(tag);
    put_str(buf, collection);
    buf.put_u64_le(id);
    encode_document(doc, buf);
}

/// Scan raw log bytes, returning `(intact_len, frames)`: the byte length
/// of the longest prefix made of whole valid frames, and those frames'
/// payloads in order. Everything past `intact_len` is a torn tail.
///
/// That includes a zero-filled tail. A file system can extend a file
/// before its data lands, and a crash between the two leaves zero bytes;
/// eight of them frame an empty payload with a valid CRC. No writer
/// appends an empty payload ([`FrameWriter::append_frame`] refuses one),
/// so empty frames at the end are unwritten space, not records.
fn scan_frames(data: &[u8]) -> (usize, Vec<Bytes>) {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        if data.len() - offset < 8 {
            break;
        }
        let len =
            u32::from_le_bytes(data[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let body_start = offset + 8;
        if data.len() - body_start < len {
            break;
        }
        let payload = &data[body_start..body_start + len];
        if crc32(payload) != crc {
            break;
        }
        frames.push(Bytes::copy_from_slice(payload));
        offset = body_start + len;
    }
    while frames.last().is_some_and(|f| f.is_empty()) {
        frames.pop();
        offset -= 8;
    }
    (offset, frames)
}

/// Outcome of reading a framed log file.
#[derive(Debug)]
pub struct FrameReadResult {
    /// Payloads of all intact frames, in append order.
    pub frames: Vec<Bytes>,
    /// True when the file ended with a torn/corrupt frame that was
    /// discarded (expected after a crash; alarming otherwise).
    pub truncated_tail: bool,
}

/// Read all intact frames from the log at `path`. A missing file reads as
/// an empty log; a torn or zero-filled tail is reported in
/// [`FrameReadResult::truncated_tail`].
pub fn read_frames(path: &Path) -> Result<FrameReadResult> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(FrameReadResult {
                frames: Vec::new(),
                truncated_tail: false,
            })
        }
        Err(e) => return Err(e.into()),
    }
    let (intact_len, frames) = scan_frames(&data);
    Ok(FrameReadResult {
        frames,
        truncated_tail: intact_len < data.len(),
    })
}

/// Append-side handle to a CRC-framed log file. Generic over payloads;
/// [`WalWriter`] specializes it to [`WalOp`] records, the streaming-ingest
/// delta logs append their own record encodings.
#[derive(Debug)]
pub struct FrameWriter {
    file: File,
    sync_every_append: bool,
    appended: u64,
    failpoint: &'static str,
}

impl FrameWriter {
    /// Open (creating if missing) the framed log at `path` for appending,
    /// in recovery mode: any torn tail left by a crash is truncated away
    /// first, so new frames land directly after the last intact one and
    /// stay reachable by recovery scans. `failpoint` names the crash
    /// boundary this writer's appends hit (fault-injection tests).
    pub fn open(path: &Path, sync_every_append: bool, failpoint: &'static str) -> Result<Self> {
        // Scan for the intact prefix and chop off any torn tail.
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let (intact_len, _) = scan_frames(&data);
        if intact_len < data.len() {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(intact_len as u64)?;
            f.sync_data()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FrameWriter {
            file,
            sync_every_append,
            appended: 0,
            failpoint,
        })
    }

    /// Append one framed payload, handing the header and the payload to
    /// the OS together (one `writev`, no copy into a frame buffer), and
    /// optionally fsync before returning, so a successful append is at
    /// worst torn, never silent. An empty payload is refused: its frame
    /// would read as a zero-filled tail (see [`read_frames`]).
    pub fn append_frame(&mut self, payload: &[u8]) -> Result<()> {
        if payload.is_empty() {
            return Err(Error::invalid("empty frame payload"));
        }
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        match failpoint::trigger(self.failpoint) {
            Some(FailAction::Kill) => return Err(failpoint::injected(self.failpoint)),
            Some(FailAction::Torn(k)) => {
                // Simulate a crash mid-write(2): the first k bytes of the
                // frame reach the file, then the "process dies".
                let head = &header[..k.min(8)];
                let body = &payload[..(k - head.len()).min(payload.len())];
                write_all_vectored(&mut self.file, head, body)?;
                return Err(failpoint::injected(self.failpoint));
            }
            Some(FailAction::Delay(ms)) => {
                // A slow disk, not a dead one: stall, then write normally.
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            None => {}
        }
        write_all_vectored(&mut self.file, &header, payload)?;
        if self.sync_every_append {
            self.file.sync_data()?;
        }
        self.appended += 1;
        Ok(())
    }

    /// Frames appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Force an fsync regardless of the per-append setting.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// Write `head` then `body` to `file`, as one `writev` unless the OS takes
/// the bytes in parts.
fn write_all_vectored(file: &mut File, head: &[u8], body: &[u8]) -> io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    // Drop leading empty slices: an all-empty write returns 0, which the
    // loop would take for a full disk.
    IoSlice::advance_slices(&mut rest, 0);
    while !rest.is_empty() {
        match file.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Append-side handle to a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    inner: FrameWriter,
    /// The payload buffer every append encodes into, kept between appends
    /// so a run of large records (a compaction's ~130KB blocks) encodes
    /// without growing a fresh buffer each time.
    payload: BytesMut,
}

impl WalWriter {
    /// Open (creating if missing) the WAL at `path` for appending. Opens in
    /// recovery mode: a torn tail from a prior crash is truncated before
    /// the first append (see [`FrameWriter::open`]).
    pub fn open(path: &Path, sync_every_append: bool) -> Result<Self> {
        Ok(WalWriter {
            inner: FrameWriter::open(path, sync_every_append, "wal.append")?,
            payload: BytesMut::new(),
        })
    }

    /// Append one framed record (see [`FrameWriter::append_frame`]).
    pub fn append(&mut self, op: &WalOp) -> Result<()> {
        self.append_with(|buf| op.encode(buf))
    }

    /// Append one record whose payload `encode` writes into the reused
    /// buffer (see [`encode_doc_op`]).
    pub(crate) fn append_with(&mut self, encode: impl FnOnce(&mut BytesMut)) -> Result<()> {
        self.payload.clear();
        encode(&mut self.payload);
        self.inner.append_frame(&self.payload)
    }

    /// Records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.inner.appended()
    }

    /// Force an fsync regardless of the per-append setting.
    pub fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

/// Outcome of reading a WAL file.
#[derive(Debug)]
pub struct WalReadResult {
    /// Successfully decoded operations, in append order.
    pub ops: Vec<WalOp>,
    /// True when the file ended with a torn/corrupt frame that was
    /// discarded (expected after a crash; alarming otherwise).
    pub truncated_tail: bool,
}

/// Read all intact records from the WAL at `path`. A missing file reads as
/// an empty log.
///
/// A frame that passes its CRC but does not decode (an unknown or retired
/// op tag, a malformed body) is [`Error::Corrupt`]: a crash tears a frame,
/// failing its length or CRC check, so such a frame comes from another
/// writer, and reading past it or stopping at it would both lose records.
pub fn read_wal(path: &Path) -> Result<WalReadResult> {
    let read = read_frames(path)?;
    let ops = read
        .frames
        .into_iter()
        .map(WalOp::decode)
        .collect::<Result<_>>()?;
    Ok(WalReadResult {
        ops,
        truncated_tail: read.truncated_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cryptext-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::CreateCollection {
                name: "tokens".into(),
            },
            WalOp::Insert {
                collection: "tokens".into(),
                id: 0,
                doc: Document::new().with("token", "the").with("count", 1i64),
            },
            WalOp::Update {
                collection: "tokens".into(),
                id: 0,
                doc: Document::new().with("token", "the").with("count", 2i64),
            },
            WalOp::Delete {
                collection: "tokens".into(),
                id: 0,
            },
            WalOp::RenameCollection {
                from: "tokens__staging".into(),
                to: "tokens".into(),
            },
            WalOp::DropCollection {
                name: "tokens".into(),
            },
        ]
    }

    fn encoded(op: &WalOp) -> BytesMut {
        let mut buf = BytesMut::new();
        op.encode(&mut buf);
        buf
    }

    #[test]
    fn ops_encode_decode_round_trip() {
        for op in sample_ops() {
            assert_eq!(WalOp::decode(encoded(&op).freeze()).unwrap(), op);
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut buf = encoded(&WalOp::CreateCollection { name: "x".into() });
        buf.put_u8(0xFF);
        assert!(WalOp::decode(buf.freeze()).is_err());
    }

    #[test]
    fn append_then_read_back() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.log");
        let ops = sample_ops();
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
            assert_eq!(w.appended(), ops.len() as u64);
        }
        let read = read_wal(&path).unwrap();
        assert_eq!(read.ops, ops);
        assert!(!read.truncated_tail);
    }

    #[test]
    fn missing_file_is_empty_log() {
        let dir = tmp_dir("missing");
        let read = read_wal(&dir.join("nope.log")).unwrap();
        assert!(read.ops.is_empty());
        assert!(!read.truncated_tail);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        let ops = sample_ops();
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
        }
        // Chop bytes off the end to simulate a crash mid-append.
        let full = std::fs::read(&path).unwrap();
        for cut in [1usize, 3, 7] {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let read = read_wal(&path).unwrap();
            assert!(read.truncated_tail, "cut {cut} detected");
            assert_eq!(read.ops, ops[..ops.len() - 1], "only the last record lost");
        }
    }

    #[test]
    fn reopen_after_torn_tail_truncates_then_appends() {
        // The crash-recovery append path: a torn tail must not poison
        // frames appended after reopen. Before `open` recovered, the new
        // frame landed after the garbage bytes and `read_wal` — which
        // stops at the first bad frame — never saw it.
        let dir = tmp_dir("torn-reopen");
        let path = dir.join("wal.log");
        let ops = sample_ops();
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        for cut in [1usize, 3, 7, 11] {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            {
                let mut w = WalWriter::open(&path, false).unwrap();
                w.append(&WalOp::CreateCollection {
                    name: "post-crash".into(),
                })
                .unwrap();
            }
            let read = read_wal(&path).unwrap();
            assert!(!read.truncated_tail, "cut {cut}: tail was truncated");
            let mut want = ops[..ops.len() - 1].to_vec();
            want.push(WalOp::CreateCollection {
                name: "post-crash".into(),
            });
            assert_eq!(read.ops, want, "cut {cut}: prefix + post-crash append");
        }
    }

    #[test]
    fn corrupt_crc_stops_replay_at_that_frame() {
        let dir = tmp_dir("crc");
        let path = dir.join("wal.log");
        let ops = sample_ops();
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
        }
        let mut data = std::fs::read(&path).unwrap();
        // Flip one payload byte in the middle of the file.
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let read = read_wal(&path).unwrap();
        assert!(read.truncated_tail);
        assert!(read.ops.len() < ops.len());
        // Whatever was read must be a prefix of the original sequence.
        assert_eq!(read.ops[..], ops[..read.ops.len()]);
    }

    #[test]
    fn garbage_wal_file_reads_as_torn_not_panic() {
        // A WAL replaced wholesale with non-WAL bytes (the load path's
        // worst case) must come back as a clean empty-or-prefix read with
        // the torn flag set — never a panic or abort during replay.
        let dir = tmp_dir("garbage");
        let path = dir.join("wal.log");
        std::fs::write(&path, [0xDEu8, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03]).unwrap();
        let read = read_wal(&path).unwrap();
        assert!(read.ops.is_empty());
        assert!(read.truncated_tail);
    }

    #[test]
    fn absurd_frame_length_is_torn_tail() {
        // A frame header declaring a body far past end-of-file: the reader
        // must treat it as a torn tail instead of slicing out of bounds or
        // allocating the declared length.
        let dir = tmp_dir("absurd-len");
        let path = dir.join("wal.log");
        let ops = sample_ops();
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&ops[0]).unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes()); // len: absurd
        frame.extend_from_slice(&0u32.to_le_bytes()); // crc: irrelevant
        frame.extend_from_slice(b"short");
        data.extend_from_slice(&frame);
        std::fs::write(&path, &data).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.ops, vec![ops[0].clone()], "intact prefix kept");
        assert!(read.truncated_tail);
    }

    #[test]
    fn append_is_durable_across_reopen() {
        let dir = tmp_dir("reopen");
        let path = dir.join("wal.log");
        {
            let mut w = WalWriter::open(&path, true).unwrap();
            w.append(&WalOp::CreateCollection { name: "a".into() })
                .unwrap();
        }
        {
            let mut w = WalWriter::open(&path, true).unwrap();
            w.append(&WalOp::CreateCollection { name: "b".into() })
                .unwrap();
            w.sync().unwrap();
        }
        let read = read_wal(&path).unwrap();
        assert_eq!(
            read.ops,
            vec![
                WalOp::CreateCollection { name: "a".into() },
                WalOp::CreateCollection { name: "b".into() },
            ]
        );
    }

    #[test]
    fn generic_frames_round_trip() {
        let dir = tmp_dir("frames");
        let path = dir.join("delta.log");
        let payloads: Vec<&[u8]> = vec![b"alpha", b"\x00", b"\x00\x01\x02", b"last"];
        {
            let mut w = FrameWriter::open(&path, false, "test.append").unwrap();
            for p in &payloads {
                w.append_frame(p).unwrap();
            }
            assert!(w.append_frame(b"").is_err(), "empty payloads are refused");
            assert_eq!(w.appended(), payloads.len() as u64);
        }
        let read = read_frames(&path).unwrap();
        assert!(!read.truncated_tail);
        let got: Vec<&[u8]> = read.frames.iter().map(|b| b.as_ref()).collect();
        assert_eq!(got, payloads);
    }

    #[test]
    fn failpoint_kill_leaves_no_partial_frame() {
        let dir = tmp_dir("fp-kill");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path, false).unwrap();
        w.append(&WalOp::CreateCollection { name: "a".into() })
            .unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        {
            cryptext_common::failpoint::reset_hits();
            let _g = cryptext_common::failpoint::arm("wal.append", "kill@1");
            let err = w
                .append(&WalOp::CreateCollection { name: "b".into() })
                .unwrap_err();
            assert!(cryptext_common::failpoint::is_injected(&err));
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            before,
            "kill fires before any bytes are written"
        );
        let read = read_wal(&path).unwrap();
        assert_eq!(read.ops.len(), 1);
        assert!(!read.truncated_tail);
    }

    #[test]
    fn kill_at_every_byte_prefix_recovers_valid_prefix_state() {
        // Exhaustive crash simulation: truncate the log at *every* byte
        // offset. Whatever the cut, reading must not panic, must yield a
        // prefix of the original op sequence, and a writer reopened on the
        // wreckage must recover (truncate the tail) and append cleanly.
        let dir = tmp_dir("every-prefix");
        let path = dir.join("wal.log");
        let ops = sample_ops();
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let read = read_wal(&path).unwrap();
            assert!(read.ops.len() <= ops.len());
            assert_eq!(
                read.ops[..],
                ops[..read.ops.len()],
                "cut {cut}: recovered ops must be a prefix"
            );
            // Reopen-and-append must leave a clean log: prefix + new op.
            {
                let mut w = WalWriter::open(&path, false).unwrap();
                w.append(&WalOp::CreateCollection { name: "z".into() })
                    .unwrap();
            }
            let after = read_wal(&path).unwrap();
            assert!(!after.truncated_tail, "cut {cut}: clean after recovery");
            assert_eq!(
                after.ops.last(),
                Some(&WalOp::CreateCollection { name: "z".into() }),
                "cut {cut}: post-recovery append visible"
            );
            assert_eq!(after.ops.len(), read.ops.len() + 1);
        }
    }

    #[test]
    fn failpoint_torn_write_recovers_to_prefix() {
        // `torn@1:k` leaves exactly the first k bytes of the frame on disk,
        // whether the tear falls inside its 8-byte header (k = 6) or
        // inside its payload (k = 12 of 14).
        let a = WalOp::CreateCollection { name: "a".into() };
        let b = WalOp::CreateCollection { name: "b".into() };
        let c = WalOp::CreateCollection { name: "c".into() };
        let payload = encoded(&b);
        let len = (payload.len() as u32).to_le_bytes();
        let frame = [&len[..], &crc32(&payload).to_le_bytes(), &payload].concat();
        assert_eq!(frame.len(), 14);
        for k in [6usize, 12] {
            let dir = tmp_dir(&format!("fp-torn-{k}"));
            let path = dir.join("wal.log");
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&a).unwrap();
            let intact = std::fs::read(&path).unwrap();
            {
                cryptext_common::failpoint::reset_hits();
                let _g = cryptext_common::failpoint::arm("wal.append", &format!("torn@1:{k}"));
                let err = w.append(&b).unwrap_err();
                assert!(cryptext_common::failpoint::is_injected(&err));
            }
            let torn = [&intact[..], &frame[..k]].concat();
            assert_eq!(std::fs::read(&path).unwrap(), torn, "torn@1:{k}");
            let read = read_wal(&path).unwrap();
            assert_eq!(read.ops, vec![a.clone()]);
            assert!(read.truncated_tail);
            // Reopen recovers: truncate the torn bytes, append cleanly.
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&c).unwrap();
            let read = read_wal(&path).unwrap();
            assert!(!read.truncated_tail);
            assert_eq!(read.ops, vec![a.clone(), c.clone()]);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Frame payloads another writer could leave: real records, real
    /// records with one byte changed, and arbitrary bytes, never empty (a
    /// writer refuses an empty payload; empty frames at the end of a log
    /// are a zero-filled tail).
    fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
        let record = (0u8..4, "[a-z]{0,6}", any::<u64>(), any::<i64>())
            .prop_map(|(kind, name, id, n)| {
                let op = match kind {
                    0 => WalOp::CreateCollection { name },
                    1 => WalOp::Insert {
                        collection: name,
                        id,
                        doc: Document::new().with("n", n),
                    },
                    2 => WalOp::Delete {
                        collection: name,
                        id,
                    },
                    _ => WalOp::RenameCollection {
                        from: name.clone(),
                        to: name,
                    },
                };
                let mut buf = BytesMut::new();
                op.encode(&mut buf);
                buf.to_vec()
            })
            .boxed();
        let changed = (record.clone(), any::<prop::sample::Index>(), 1u8..=255).prop_map(
            |(mut payload, at, flip)| {
                let at = at.index(payload.len());
                payload[at] ^= flip;
                payload
            },
        );
        prop_oneof![
            record,
            changed,
            proptest::collection::vec(any::<u8>(), 1..24)
        ]
    }

    proptest! {
        /// A log of CRC-valid frames decodes whole or is `Corrupt`:
        /// `read_wal` never panics, never stops early, and never reports
        /// such a frame as a torn tail. (Recovery runs it over whatever a
        /// crash or another writer left on disk.)
        #[test]
        fn read_wal_decodes_every_crc_valid_frame_or_is_corrupt(
            payloads in proptest::collection::vec(payload_strategy(), 0..6),
        ) {
            let mut data = Vec::new();
            for p in &payloads {
                data.extend_from_slice(&(p.len() as u32).to_le_bytes());
                data.extend_from_slice(&crc32(p).to_le_bytes());
                data.extend_from_slice(p);
            }
            let path = std::env::temp_dir().join(format!(
                "cryptext-wal-prop-{}-{:?}.log",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::write(&path, &data).unwrap();
            match read_wal(&path) {
                Ok(read) => {
                    prop_assert_eq!(read.ops.len(), payloads.len());
                    prop_assert!(!read.truncated_tail);
                }
                Err(e) => prop_assert!(matches!(e, Error::Corrupt(_)), "{}", e),
            }
            let _ = std::fs::remove_file(&path);
        }

        /// Arbitrary bytes fed to the frame scanner either parse as a
        /// valid frame prefix or stop — never a panic, never an
        /// out-of-bounds slice. (Recovery runs this over whatever a crash
        /// left on disk.)
        #[test]
        fn scan_frames_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let (intact_len, frames) = scan_frames(&bytes);
            prop_assert!(intact_len <= bytes.len());
            // Re-scanning the intact prefix reproduces the same frames.
            let (len2, frames2) = scan_frames(&bytes[..intact_len]);
            prop_assert_eq!(len2, intact_len);
            prop_assert_eq!(frames2, frames);
        }

        /// A log of arbitrary payload frames truncated at an arbitrary
        /// offset always scans to a prefix of the payload sequence.
        #[test]
        fn truncated_frame_log_scans_to_prefix(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..32), 0..8),
            cut_pct in 0u32..=100,
        ) {
            let mut data = Vec::new();
            for p in &payloads {
                data.extend_from_slice(&(p.len() as u32).to_le_bytes());
                data.extend_from_slice(&crc32(p).to_le_bytes());
                data.extend_from_slice(p);
            }
            let cut = data.len() * (cut_pct as usize) / 100;
            let (_, frames) = scan_frames(&data[..cut.min(data.len())]);
            prop_assert!(frames.len() <= payloads.len());
            for (got, want) in frames.iter().zip(payloads.iter()) {
                prop_assert_eq!(got.as_ref(), &want[..]);
            }
        }
    }
}
