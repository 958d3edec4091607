//! # cryptext-docstore
//!
//! An embedded document database — CrypText's MongoDB substitute.
//!
//! The paper keeps its `H_k` hash maps and per-token metadata in MongoDB
//! (§III-F). The durable token store needs less than a query engine from
//! it: named collections of documents it writes whole and reads back whole,
//! made crash-safe. This crate supplies exactly that in-process:
//!
//! * [`Value`]/[`Document`] — a BSON-like dynamic value model.
//! * [`Collection`] — documents under primary keys ([`DocId`]), read by id
//!   or by a scan ([`Collection::scan`]); there is no query language and
//!   no secondary index.
//! * [`Database`] — named collections, a write-ahead log with CRC-framed
//!   records, point-in-time [snapshots](snapshot), and crash recovery that
//!   replays the WAL over the latest snapshot and tolerates a torn tail.
//!
//! # Durability contract
//!
//! Every mutation is appended to the WAL before being applied in memory;
//! [`Database::checkpoint`] writes a snapshot atomically (temp file +
//! fsync + rename) and truncates the log. The precise guarantees:
//!
//! * **After `append` returns** — the record is flushed to the OS. A
//!   process crash cannot lose it; an OS/power crash can, unless
//!   [`WalSync::EveryAppend`] was chosen (then the append also `fsync`s
//!   and survives both). Appends are framed `[len][crc32][payload]`, so a
//!   crash mid-append leaves at worst a *torn tail*: recovery keeps the
//!   intact frame prefix and discards the tear — never a partial record.
//! * **After [`Database::sync`] returns** — every record appended so far
//!   is `fsync`ed, whatever the [`WalSync`] mode: the way to make one
//!   commit point power-loss durable without paying an fsync per append.
//! * **After a torn write** — [`wal::read_wal`]/[`wal::read_frames`] stop
//!   at the first bad frame, or at a zero-filled tail (what a crash leaves
//!   when a file's new size reached the disk before its data), and report
//!   `truncated_tail`; reopening a writer ([`wal::FrameWriter::open`])
//!   truncates the torn bytes *before* appending, so post-crash appends
//!   stay reachable. Nothing before the tear is ever lost; nothing after
//!   it is ever half-applied.
//! * **Never a guess** — a CRC-valid record this version cannot decode
//!   (an unknown or retired op tag, such as tag 3, which recorded a
//!   secondary index's creation) cannot come from a crash, only from
//!   another writer. [`Database::open`] refuses it as
//!   [`Error::Corrupt`](cryptext_common::Error::Corrupt) and leaves the
//!   files as it found them, as it refuses a snapshot that declares
//!   secondary indexes: replaying around either would drop state.
//! * **After `checkpoint` returns** — the snapshot file alone reconstructs
//!   the full state (collections, documents, id counters) and has been
//!   `fsync`ed. A crash *between* the snapshot rename and the WAL
//!   truncation is benign: replaying the stale WAL over the new snapshot
//!   is idempotent (explicit document ids; inserts replace).
//! * **Rename as commit point** — [`Database::rename_collection`] is a
//!   single WAL record with replace semantics. Crash-safe bulk rebuilds
//!   write into a staging collection and rename over the live name; a
//!   reopen observes either the complete old state or the complete new
//!   one, never a mix.
//!
//! These properties are enforced by fault-injection tests (see
//! `cryptext_common::failpoint`) that kill or tear writes at every
//! boundary and assert recovery lands on a valid prefix state.

#![warn(missing_docs)]

pub mod collection;
pub mod db;
pub mod encoding;
pub mod snapshot;
pub mod value;
pub mod wal;

pub use collection::{Collection, DocId};
pub use db::{Database, DbOptions, WalSync};
pub use value::{Document, Value};
