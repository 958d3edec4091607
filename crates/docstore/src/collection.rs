//! A collection: documents stored under primary keys.

use cryptext_common::hash::FxHashMap;
use cryptext_common::{Error, Result};

use crate::value::Document;

/// Identifier of a document within its collection, assigned at insert.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct DocId(pub u64);

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An in-memory collection of documents, read by id or by a full
/// [`scan`](Collection::scan).
///
/// `Collection` is a plain data structure; concurrency and durability are
/// layered on by [`Database`](crate::db::Database), which serializes
/// mutations through the WAL.
#[derive(Debug, Default)]
pub struct Collection {
    name: String,
    docs: FxHashMap<u64, Document>,
    next_id: u64,
}

impl Collection {
    /// New empty collection.
    pub fn new(name: impl Into<String>) -> Self {
        Collection {
            name: name.into(),
            docs: FxHashMap::default(),
            next_id: 0,
        }
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the collection (rename-commit support; the database keeps
    /// the map key and this field in lockstep).
    pub(crate) fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Next id that would be assigned (exposed for WAL bookkeeping).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Raise the id counter to at least `next_id` (snapshot restore: the
    /// counter may exceed the max live id when tail documents were deleted).
    pub fn bump_next_id(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Insert a document, assigning the next id.
    pub fn insert(&mut self, doc: Document) -> DocId {
        let id = self.next_id;
        self.insert_with_id(id, doc);
        DocId(id)
    }

    /// Insert under an explicit id (WAL replay / snapshot load). Advances
    /// `next_id` past `id`. Replaces any existing document at `id`.
    pub fn insert_with_id(&mut self, id: u64, doc: Document) {
        // Remove, then insert (here and in `update`): a replaced document
        // takes a fresh slot, and the slots set the order a snapshot
        // writes documents in, so its bytes stay those of older writers.
        self.docs.remove(&id);
        self.docs.insert(id, doc);
        self.next_id = self.next_id.max(id + 1);
    }

    /// Fetch by id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.docs.get(&id.0)
    }

    /// Replace the document at `id`.
    pub fn update(&mut self, id: DocId, doc: Document) -> Result<()> {
        self.docs
            .remove(&id.0)
            .ok_or_else(|| Error::not_found(format!("{}{id}", self.name)))?;
        self.docs.insert(id.0, doc);
        Ok(())
    }

    /// Delete by id; true when a document was removed.
    pub fn delete(&mut self, id: DocId) -> bool {
        self.docs.remove(&id.0).is_some()
    }

    /// Iterate all `(id, document)` pairs in unspecified order.
    pub fn scan(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs.iter().map(|(&id, doc)| (DocId(id), doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn token_doc(token: &str, codes: Vec<&str>, count: i64) -> Document {
        Document::new()
            .with("token", token)
            .with(
                "codes",
                codes.into_iter().map(Value::from).collect::<Vec<_>>(),
            )
            .with("count", count)
    }

    #[test]
    fn insert_assigns_monotonic_ids() {
        let mut c = Collection::new("tokens");
        let a = c.insert(token_doc("the", vec!["TH000"], 1));
        let b = c.insert(token_doc("thee", vec!["TH000"], 1));
        assert_eq!(a, DocId(0));
        assert_eq!(b, DocId(1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn get_update_delete_cycle() {
        let mut c = Collection::new("t");
        let id = c.insert(token_doc("dirty", vec!["DI630"], 1));
        assert_eq!(c.get(id).unwrap().get("token"), Some(&Value::from("dirty")));

        c.update(id, token_doc("dirty", vec!["DI630"], 5)).unwrap();
        assert_eq!(c.get(id).unwrap().get("count"), Some(&Value::Int(5)));

        assert!(c.delete(id));
        assert!(!c.delete(id), "double delete is false");
        assert_eq!(c.get(id), None);
    }

    #[test]
    fn update_missing_errors() {
        let mut c = Collection::new("t");
        assert!(c.update(DocId(42), Document::new()).is_err());
    }

    #[test]
    fn insert_with_id_advances_next_id_and_replaces() {
        let mut c = Collection::new("t");
        c.insert_with_id(10, Document::new().with("x", 1i64));
        assert_eq!(c.next_id(), 11);
        // Replaying the same id replaces the document.
        c.insert_with_id(10, Document::new().with("x", 2i64));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(DocId(10)).unwrap().get("x"), Some(&Value::Int(2)));
        let id = c.insert(Document::new());
        assert_eq!(id, DocId(11));
    }
}
