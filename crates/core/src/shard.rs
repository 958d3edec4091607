//! Consistent-hash sharding of the token database.
//!
//! [`ShardedTokenDatabase`] splits the corpus across N independent
//! [`TokenDatabase`] shards so dictionaries that outgrow one instance
//! (the paper mines ~3.6M perturbations and keeps growing) scale out
//! instead of up. The pieces:
//!
//! * **Routing** — every token is owned by exactly one shard, selected by
//!   [`jump_hash`](cryptext_common::hash::jump_hash) over the Fx hash of
//!   the token's **primary `H_1` Soundex code** (tokens without phonetic
//!   content fall back to hashing the raw token). Hashing the sound
//!   rather than the spelling keeps a clean word and the bulk of its
//!   perturbations colocated, and jump hashing keeps a future shard-count
//!   change from reshuffling the whole corpus.
//! * **Shard-local id spaces** — each shard keeps its own dense `u32`
//!   record ids (the `CodeIndex` postings stay small and cache-friendly);
//!   the router remaps them to globally unique ids at the
//!   [`TokenStore`] boundary as `global = local * n_shards + shard`.
//! * **Reads** — a query is encoded **once** into an
//!   [`EncodedQuery`] (codes + hashes + fold) and every shard's walk
//!   shares it; records are disjoint across shards, so no cross-shard
//!   dedup is needed and results are byte-identical to the
//!   single-instance backend (proptest-pinned below). `&self` reads are
//!   lock-free and `Sync`, so bulk endpoints fan out across cores without
//!   serializing behind any writer.
//! * **Skip-empty routing** — each shard's per-level code interner keeps a
//!   [`Bloom`](cryptext_common::hash::Bloom) summary of its code set
//!   (maintained at intern time, so ingest, resharding, and persist/load
//!   keep it current for free). A query walks only the shards whose
//!   summaries admit at least one of its codes
//!   ([`TokenDatabase::may_match`]); a ruled-out shard could not have
//!   produced a hit, so skipping it is invisible to results.
//! * **One sequential walk per query** —
//!   [`TokenStore::for_each_sound_mate`] walks the matching shards one
//!   after another in shard order on the caller's thread and scratch, so
//!   a visitor's [`ControlFlow::Break`] (a deadline probe, a capped
//!   result) stops the walk at that candidate and leaves the later shards
//!   unwalked. Each served request runs on its connection's thread, and
//!   bulk endpoints parallelize across queries; a query does not fan out
//!   across shards.
//! * **Batch ingest** — the one batch prepare shared with the single
//!   instance, [`crate::database::PreparedBatch`] (tokenize, gate,
//!   confusable fold, 3-level Soundex, per text through
//!   [`cryptext_common::par`]), routes every word as above into per-shard
//!   queues that merge **in parallel, one worker per touched shard**.
//! * **Persistence** — one document-store collection per shard plus a
//!   manifest record carrying the shard count and a **generation**
//!   number; persist and load fan out across shards through the same
//!   pool. A persist is crash-safe: the new layout is written first under
//!   a fresh generation (`{name}__g{g}__shard{i}`), the manifest swap
//!   (staging collection renamed over the live name — one WAL record) is
//!   the single commit point, and stale generations are swept only after
//!   the swap. A crash at any boundary leaves the previous persist fully
//!   loadable (fault-injection-pinned below).
//! * **Live resharding** — [`ShardedTokenDatabase::grow_one_shard`] grows
//!   N→N+1 in place. Jump hashing moves a key only to the *new* shard, so
//!   ~1/(N+1) of the records relocate (reusing their stored codes, no
//!   re-encoding) and the result is pinned byte-identical to a fresh
//!   (N+1)-shard build of the same corpus.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use cryptext_common::failpoint;
use cryptext_common::hash::{FxHashSet, ShardRing};
use cryptext_common::metrics::{Counter, MetricsRegistry};
use cryptext_common::par::{par_map, try_par_map};
use cryptext_common::{Error, Result};
use cryptext_docstore::{Database, Document, Value};
use cryptext_phonetics::CustomSoundex;
use parking_lot::Mutex;

use crate::database::{
    EncodedQuery, Inputs, PreparedBatch, SoundScratch, TokenDatabase, TokenRecord, TokenStats,
    MAX_CLEAN_SENTENCES, NUM_LEVELS,
};
use crate::durable::DeltaStore;
use crate::store::TokenStore;

/// A token database split across consistent-hash shards. See the module
/// docs for the routing and id-space design; the public surface is the
/// [`TokenStore`] trait plus a few shard-introspection helpers.
pub struct ShardedTokenDatabase {
    ring: ShardRing,
    soundex: [CustomSoundex; NUM_LEVELS],
    shards: Vec<TokenDatabase>,
    clean_sentences: Vec<String>,
    /// Shard walks actually performed (Bloom summary admitted the query).
    shard_walks: Counter,
    /// Shard walks skipped outright by the Bloom summaries.
    shard_skips: Counter,
}

impl ShardedTokenDatabase {
    /// An empty store over `shards` consistent-hash shards (clamped to at
    /// least 1).
    pub fn in_memory(shards: usize) -> Self {
        let ring = ShardRing::new(shards);
        ShardedTokenDatabase {
            ring,
            soundex: [
                CustomSoundex::new(0),
                CustomSoundex::new(1),
                CustomSoundex::new(2),
            ],
            shards: (0..ring.shards())
                .map(|_| TokenDatabase::in_memory())
                .collect(),
            clean_sentences: Vec::new(),
            shard_walks: Counter::new(),
            shard_skips: Counter::new(),
        }
    }

    /// An empty sharded store pre-seeded with the English lexicon.
    pub fn with_lexicon(shards: usize) -> Self {
        let mut db = Self::in_memory(shards);
        db.seed_lexicon_impl();
        db
    }

    /// Reshard an existing single-instance database: every record keeps
    /// its token, occurrence count, and lexicon status; clean sentences
    /// carry over. Statistics and retrieval results are preserved exactly.
    pub fn from_database(db: &TokenDatabase, shards: usize) -> Self {
        let mut out = Self::in_memory(shards);
        for rec in db.records() {
            let s = out.route(&rec.token);
            out.shards[s].upsert_token(&rec.token, rec.count);
        }
        for sentence in db.clean_sentences() {
            out.record_clean_sentence_impl(sentence);
        }
        out
    }

    /// The shard that owns `token`: jump hash of the primary `H_1` code,
    /// falling back to the raw token for strings without phonetic content.
    /// The batch prepare routes every word with it, so the delta logs of a
    /// durable store are keyed by it too.
    #[inline]
    pub(crate) fn route(&self, token: &str) -> usize {
        match self.soundex[1].encode(token) {
            Some(code) => self.ring.route_str(code.as_str()),
            None => self.ring.route_str(token),
        }
    }

    /// Read access to one shard (for introspection and tests).
    pub fn shard(&self, i: usize) -> &TokenDatabase {
        &self.shards[i]
    }

    /// How many of a query's shard walks the Bloom summaries skip — the
    /// `skip-rate` statistic of the bench's `shards` dimension.
    pub fn skipped_shards(&self, query: &EncodedQuery) -> usize {
        self.shards.iter().filter(|s| !s.may_match(query)).count()
    }

    fn record_clean_sentence_impl(&mut self, text: &str) {
        if self.clean_sentences.len() < MAX_CLEAN_SENTENCES {
            self.clean_sentences.push(text.to_string());
        }
    }

    fn seed_lexicon_impl(&mut self) {
        for w in cryptext_corpus::english_lexicon() {
            let s = self.route(w);
            self.shards[s].upsert_token(w, 0);
        }
    }

    /// Merged Table-I view across shards: identical to what a single
    /// instance over the same corpus would produce (each record lives in
    /// exactly one shard, and both sides sort codes and tokens).
    pub fn hashmap_view(&self, k: usize) -> Result<Vec<(String, Vec<String>)>> {
        TokenDatabase::check_level(k)?;
        let mut merged: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for shard in &self.shards {
            for (code, tokens) in shard.hashmap_view(k)? {
                merged.entry(code).or_default().extend(tokens);
            }
        }
        Ok(merged
            .into_iter()
            .map(|(code, mut tokens)| {
                tokens.sort();
                (code, tokens)
            })
            .collect())
    }

    /// The name of shard `i`'s collection under generation `g` of a
    /// persist of `collection`.
    fn shard_collection(collection: &str, g: u64, i: usize) -> String {
        format!("{collection}__g{g}__shard{i}")
    }

    /// Parse the generation out of a `{collection}__g{g}__shard{i}`-style
    /// name — including the `__staging` suffixes a crashed shard persist
    /// can leave behind. `None` for names that are not part of a sharded
    /// layout of `collection` (the stale-generation sweep only ever drops
    /// names this function recognizes). Parsing the number rather than
    /// string-prefix matching keeps `g1` from swallowing `g10`.
    fn collection_generation(collection: &str, name: &str) -> Option<u64> {
        let rest = name.strip_prefix(collection)?.strip_prefix("__g")?;
        let end = rest.find(|c: char| !c.is_ascii_digit())?;
        if end == 0 || !rest[end..].starts_with("__shard") {
            return None;
        }
        rest[..end].parse().ok()
    }

    /// Read the `(shard_count, generation)` pair recorded by a sharded
    /// persist of `collection`, or `None` when the collection is absent or
    /// not a sharded layout. The fields are read in place from the
    /// lowest-id document: on a flat layout that is a whole record block,
    /// which is never cloned.
    fn manifest_meta(store: &Database, collection: &str) -> Result<Option<(usize, u64)>> {
        if !store.has_collection(collection) {
            return Ok(None);
        }
        store.read_collection(collection, |docs| {
            let (_, doc) = docs.scan().min_by_key(|&(id, _)| id)?;
            let n = doc
                .get("shard_manifest")
                .and_then(Value::as_int)
                .filter(|&n| n > 0)?;
            let g = doc
                .get("generation")
                .and_then(Value::as_int)
                .unwrap_or(0)
                .max(0) as u64;
            Some((n as usize, g))
        })
    }

    /// Read the shard count recorded by a sharded persist of `collection`,
    /// or `None` when the collection is absent or not a sharded layout.
    pub fn manifest_shards(store: &Database, collection: &str) -> Result<Option<usize>> {
        Ok(Self::manifest_meta(store, collection)?.map(|(n, _)| n))
    }

    /// Route a stored record against `ring` without re-running the Soundex
    /// encoder: records keep their codes, and `encode_all` lists the
    /// primary `H_1` reading first, so resharding reuses it (with the same
    /// raw-token fallback as [`Self::route`] for records without phonetic
    /// content).
    fn route_record(ring: &ShardRing, rec: &TokenRecord) -> usize {
        match rec.codes[1].first() {
            Some(code) => ring.route_str(code.as_str()),
            None => ring.route_str(&rec.token),
        }
    }

    /// Grow the store by one shard in place, relocating only the records
    /// whose jump-hash home changes. Jump consistent hashing guarantees a
    /// key's route either stays put or moves to the *new* shard, so going
    /// N→N+1 touches ~1/(N+1) of the corpus and every retained shard keeps
    /// its records (and record order) byte-identical to a fresh
    /// (N+1)-shard build of the same corpus. Reads pause only for the
    /// rebuild itself (`&mut self`); before and after, every query surface
    /// — lookups, stats, Table-I views, Bloom routing — matches the fresh
    /// build (proptest-pinned below). Returns the number of records moved.
    pub fn grow_one_shard(&mut self) -> usize {
        let old_n = self.shards.len();
        let new_ring = ShardRing::new(old_n + 1);
        let mut movers: Vec<TokenRecord> = Vec::new();
        for s in 0..old_n {
            let shard = std::mem::take(&mut self.shards[s]);
            let mut keep = TokenDatabase::in_memory();
            for rec in shard.into_records() {
                let home = Self::route_record(&new_ring, &rec);
                // Jump hash moves keys only to the new last shard;
                // anything else breaks the minimal-movement contract.
                debug_assert!(home == s || home == old_n);
                if home == s {
                    keep.insert_record_raw(rec);
                } else {
                    movers.push(rec);
                }
            }
            self.shards[s] = keep;
        }
        let moved = movers.len();
        let mut fresh = TokenDatabase::in_memory();
        for rec in movers {
            fresh.insert_record_raw(rec);
        }
        self.shards.push(fresh);
        self.ring = new_ring;
        moved
    }
}

impl TokenStore for ShardedTokenDatabase {
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn for_each_sound_mate<'a, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        mut f: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(u32, &'a TokenRecord) -> ControlFlow<()>,
    {
        let n = self.shards.len() as u32;
        // Tally walk/skip decisions locally and flush as two adds per
        // query (early exit included), never per shard.
        let mut walked = 0u64;
        let mut skipped = 0u64;
        let mut flow = ControlFlow::Continue(());
        for (s, shard) in self.shards.iter().enumerate() {
            if !shard.may_match(query) {
                skipped += 1;
                continue; // Bloom says no bucket here can match.
            }
            walked += 1;
            let s = s as u32;
            if shard
                .for_each_sound_mate(query, scratch, |local, rec| f(local * n + s, rec))
                .is_break()
            {
                flow = ControlFlow::Break(());
                break;
            }
        }
        self.shard_walks.add(walked);
        self.shard_skips.add(skipped);
        flow
    }

    fn get(&self, token: &str) -> Option<&TokenRecord> {
        self.shards[self.route(token)].get(token)
    }

    fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "cryptext_store_shard_walks_total",
            "Per-query shard walks the Bloom summaries admitted",
            &[],
            &self.shard_walks,
        );
        registry.register_counter(
            "cryptext_store_shard_skips_total",
            "Per-query shard walks skipped by the Bloom summaries",
            &[],
            &self.shard_skips,
        );
    }

    fn stats(&self) -> TokenStats {
        let mut stats = TokenStats {
            unique_tokens: 0,
            total_occurrences: 0,
            unique_sounds: [0; NUM_LEVELS],
            english_tokens: 0,
        };
        for shard in &self.shards {
            let s = shard.stats();
            stats.unique_tokens += s.unique_tokens;
            stats.total_occurrences += s.total_occurrences;
            stats.english_tokens += s.english_tokens;
        }
        // Sounds are not disjoint across shards (a code can host tokens in
        // several shards through ambiguous secondary readings), so the
        // per-level counts are unions, not sums.
        for k in 0..NUM_LEVELS {
            let mut seen: FxHashSet<&str> = FxHashSet::default();
            for shard in &self.shards {
                for name in shard.code_names(k) {
                    seen.insert(name);
                }
            }
            stats.unique_sounds[k] = seen.len();
        }
        stats
    }

    fn unique_tokens(&self) -> usize {
        self.shards.iter().map(|s| s.records().len()).sum()
    }

    fn clean_sentences(&self) -> &[String] {
        &self.clean_sentences
    }

    fn soundex(&self, k: usize) -> Result<&CustomSoundex> {
        TokenDatabase::check_level(k)?;
        Ok(&self.soundex[k])
    }

    fn hashmap_view(&self, k: usize) -> Result<Vec<(String, Vec<String>)>> {
        ShardedTokenDatabase::hashmap_view(self, k)
    }

    fn ingest_token(&mut self, token: &str) {
        let s = self.route(token);
        self.shards[s].ingest_token(token);
    }

    // `ingest_text` uses the trait's default implementation: the canonical
    // tokenize/gate/clean-sentence loop over `ingest_token` +
    // `record_clean_sentence`, shared with the single-instance backend so
    // the two can never drift.

    fn ingest_texts<T: AsRef<str> + Sync>(&mut self, texts: &[T]) -> usize {
        self.merge(self.prepare(texts.iter().map(AsRef::as_ref), Inputs::Texts))
    }

    fn record_clean_sentence(&mut self, text: &str) {
        self.record_clean_sentence_impl(text)
    }

    fn seed_lexicon(&mut self) {
        self.seed_lexicon_impl()
    }

    fn persist_to(&self, store: &Database, collection: &str) -> Result<()> {
        // Crash-safe replace: write the new layout under a fresh
        // generation first, swap the manifest last, clean stale
        // generations only after the swap. The manifest rename is the
        // single commit point — a crash anywhere else leaves the previous
        // persist fully loadable.
        let live = Self::manifest_meta(store, collection)?.map_or(0, |(_, g)| g);
        let ceiling = store
            .collections_with_prefix(&format!("{collection}__g"))
            .iter()
            .filter_map(|name| Self::collection_generation(collection, name))
            .fold(live, u64::max);
        let generation = ceiling + 1;

        failpoint::check("persist.shards.write")?;
        // Fan out: one collection per shard, persisted in parallel (the
        // document store takes per-collection locks, so writers do not
        // contend). The live generation's collections are untouched.
        let jobs: Vec<(usize, &TokenDatabase)> = self.shards.iter().enumerate().collect();
        try_par_map(&jobs, |&(i, shard)| {
            shard.persist_to(store, &Self::shard_collection(collection, generation, i))
        })?;

        // Stage the manifest and rename it over the live name: the rename
        // is a single WAL record with replace semantics, so recovery sees
        // the old manifest or the new one, never neither.
        let staging = format!("{collection}__manifest_staging");
        if store.has_collection(&staging) {
            store.drop_collection(&staging)?;
        }
        store.create_collection(&staging)?;
        store.insert(
            &staging,
            Document::new()
                .with("shard_manifest", self.shards.len() as i64)
                .with("generation", generation as i64),
        )?;
        failpoint::check("persist.manifest.swap")?;
        store.rename_collection(&staging, collection)?;

        // Only now is every other generation garbage — including leftovers
        // from persists that crashed before their swap.
        for name in store.collections_with_prefix(&format!("{collection}__g")) {
            match Self::collection_generation(collection, &name) {
                Some(g) if g != generation => store.drop_collection(&name)?,
                _ => {}
            }
        }
        Ok(())
    }

    fn load_from(store: &Database, collection: &str) -> Result<Self> {
        let (n, generation) = Self::manifest_meta(store, collection)?.ok_or_else(|| {
            Error::corrupt(format!(
                "collection {collection} has no shard-count manifest"
            ))
        })?;
        let idx: Vec<usize> = (0..n).collect();
        let shards = try_par_map(&idx, |&i| {
            TokenDatabase::load_from(store, &Self::shard_collection(collection, generation, i))
        })?;
        let mut out = Self::in_memory(n);
        out.shards = shards;
        Ok(out)
    }
}

impl DeltaStore for ShardedTokenDatabase {
    fn fresh(shards: usize) -> Self {
        ShardedTokenDatabase::in_memory(shards)
    }

    fn prepare<'t>(
        &self,
        inputs: impl IntoIterator<Item = &'t str>,
        kind: Inputs,
    ) -> PreparedBatch<'t> {
        PreparedBatch::new(inputs, kind, &self.shards, |t| self.route(t))
    }

    /// Clean sentences at the router (the rule is per text, not per
    /// shard), then each touched shard's queue on its own worker — shards
    /// are disjoint, so each queue applies independently.
    fn merge(&mut self, batch: PreparedBatch<'_>) -> usize {
        for text in batch.clean {
            self.record_clean_sentence_impl(text);
        }
        // Each Mutex is locked exactly once, by the worker that owns that
        // shard's merge.
        let jobs: Vec<Mutex<_>> = self
            .shards
            .iter_mut()
            .zip(batch.queues)
            .filter(|(_, queue)| !queue.is_empty())
            .map(Mutex::new)
            .collect();
        par_map(&jobs, |job| {
            let (shard, queue) = &mut *job.lock();
            for word in queue.drain(..).flatten() {
                shard.merge_word(word);
            }
        });
        batch.words
    }

    fn apply_upsert(&mut self, token: &str, delta: u64) {
        let s = self.route(token);
        self.shards[s].upsert_token(token, delta);
    }

    fn seed_shard(&mut self, shard: usize) {
        for w in cryptext_corpus::english_lexicon() {
            if self.route(w) == shard {
                self.shards[shard].upsert_token(w, 0);
            }
        }
    }
}

impl std::fmt::Debug for ShardedTokenDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = TokenStore::stats(self);
        f.debug_struct("ShardedTokenDatabase")
            .field("shards", &self.shards.len())
            .field("unique_tokens", &s.unique_tokens)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::{look_up, LookupParams};

    const FIXTURE_TEXTS: [&str; 6] = [
        "the dirrty republicans",
        "thee dirty repubLIEcans",
        "the dirty republic@@ns",
        "the demokRATs and the democrats",
        "thinking about suic1de",
        "suicide prevention matters",
    ];

    fn single() -> TokenDatabase {
        let mut db = TokenDatabase::in_memory();
        for t in FIXTURE_TEXTS {
            db.ingest_text(t);
        }
        db
    }

    fn sharded(n: usize) -> ShardedTokenDatabase {
        let mut db = ShardedTokenDatabase::in_memory(n);
        for t in FIXTURE_TEXTS {
            TokenStore::ingest_text(&mut db, t);
        }
        db
    }

    fn assert_equivalent(flat: &TokenDatabase, wide: &ShardedTokenDatabase) {
        assert_eq!(TokenStore::stats(wide), flat.stats());
        assert_eq!(wide.clean_sentences(), flat.clean_sentences());
        for k in 0..NUM_LEVELS {
            assert_eq!(
                ShardedTokenDatabase::hashmap_view(wide, k).unwrap(),
                flat.hashmap_view(k).unwrap(),
                "H_{k} identical"
            );
        }
        for q in [
            "republicans",
            "democrats",
            "suic1de",
            "the",
            "zzzzzz",
            "vãccine",
        ] {
            for k in 0..NUM_LEVELS {
                for d in 0..4 {
                    for params in [
                        LookupParams::new(k, d),
                        LookupParams::new(k, d).perturbations_only(),
                        LookupParams::new(k, d).observed(),
                    ] {
                        assert_eq!(
                            look_up(wide, q, params).unwrap(),
                            look_up(flat, q, params).unwrap(),
                            "query {q:?} params {params:?}"
                        );
                    }
                }
            }
            assert_eq!(TokenStore::get(wide, q), flat.get(q));
        }
    }

    #[test]
    fn sharded_matches_single_for_every_shard_count() {
        let flat = single();
        for n in 1..=8 {
            let wide = sharded(n);
            assert_eq!(wide.num_shards(), n);
            assert_equivalent(&flat, &wide);
        }
    }

    #[test]
    fn every_record_lives_in_exactly_one_shard() {
        let wide = sharded(4);
        let flat = single();
        let total: usize = (0..4).map(|i| wide.shard(i).records().len()).sum();
        assert_eq!(total, flat.stats().unique_tokens);
        // With more than one shard and this corpus, the records actually
        // spread out (the router is not degenerate).
        let populated = (0..4)
            .filter(|&i| !wide.shard(i).records().is_empty())
            .count();
        assert!(populated > 1, "tokens spread across shards");
    }

    #[test]
    fn routing_groups_primary_sound_mates() {
        let wide = sharded(8);
        // Tokens sharing a primary H_1 code are colocated by construction.
        let a = wide.route("dirty");
        let b = wide.route("dirrty");
        assert_eq!(a, b, "same primary H_1 code → same shard");
    }

    #[test]
    fn global_ids_decode_back_to_records() {
        let wide = sharded(3);
        // global = local * n_shards + shard
        let record = |id: u32| {
            wide.shard((id % 3) as usize)
                .records()
                .get((id / 3) as usize)
        };
        let mut scratch = SoundScratch::new();
        let query = EncodedQuery::for_token("republicans", 1).unwrap();
        let mut seen = 0;
        let flow = TokenStore::for_each_sound_mate(&wide, &query, &mut scratch, |id, rec| {
            assert_eq!(
                record(id).expect("global id resolves"),
                rec,
                "id ↔ record agree through the shard remap"
            );
            seen += 1;
            ControlFlow::Continue(())
        });
        assert!(flow.is_continue());
        assert!(seen >= 3, "all republicans variants visited");
        assert!(record(u32::MAX).is_none());
    }

    /// A walk cut at its first hit examines only the candidates before it:
    /// whether a deadline probe fires there or a visitor breaks there, the
    /// examined tally equals the position of that hit in the plain
    /// sound-mate walk, on queries that match several shards.
    #[test]
    fn a_walk_cut_at_its_first_hit_examines_only_its_prefix() {
        use crate::lookup::{for_each_hit, for_each_hit_until, look_up_cancellable, LookupScratch};
        use crate::metrics::StageMetrics;
        use cryptext_corpus::{generator::generate, CorpusConfig};
        use std::sync::Arc;

        let texts = generate(CorpusConfig::small(7)).texts();
        let mut wide = ShardedTokenDatabase::with_lexicon(4);
        TokenStore::ingest_texts(&mut wide, &texts);
        let params = LookupParams::new(1, 3);

        let mut words: Vec<&str> = Vec::new();
        let mut seen: FxHashSet<&str> = FxHashSet::default();
        for text in &texts {
            for tok in cryptext_tokenizer::tokenize_spans(text) {
                if tok.is_word() && seen.insert(tok.text(text)) {
                    words.push(tok.text(text));
                }
            }
        }
        words.truncate(400);

        let stages = Arc::new(StageMetrics::new());
        let mut scratch = LookupScratch::new();
        scratch.attach_stages(Some(Arc::clone(&stages)));
        let mut sound = SoundScratch::new();
        let (mut checked, mut cut_short) = (0usize, 0usize);
        for word in words {
            let query = EncodedQuery::for_token(word, params.k).unwrap();
            if (0..4).filter(|&s| wide.shard(s).may_match(&query)).count() < 2 {
                continue;
            }
            let mut hits = Vec::new();
            for_each_hit(&wide, word, params, &mut scratch, |id, _, _| hits.push(id)).unwrap();
            let Some(&first_hit) = hits.first() else {
                continue;
            };
            // The candidates a plain walk visits up to and including the
            // first hit, and in total.
            let (mut prefix, mut total) = (None, 0u64);
            let _ = TokenStore::for_each_sound_mate(&wide, &query, &mut sound, |id, _| {
                total += 1;
                if id == first_hit {
                    prefix.get_or_insert(total);
                }
                ControlFlow::Continue(())
            });
            let prefix = prefix.expect("the first hit is a sound mate");
            checked += 1;
            cut_short += usize::from(prefix < total);

            let examined = || stages.lookup_filter_candidates.get();
            let before = examined();
            let err = look_up_cancellable(&wide, word, params, &mut scratch, &mut || {
                Some(Error::DeadlineExceeded { budget_ms: 1 })
            })
            .unwrap_err();
            assert!(matches!(err, Error::DeadlineExceeded { .. }));
            assert_eq!(
                examined() - before,
                prefix,
                "{word:?}: probe fires at the first hit"
            );
            let before = examined();
            for_each_hit_until(&wide, word, params, &mut scratch, |_, _, _| {
                ControlFlow::Break(())
            })
            .unwrap();
            assert_eq!(
                examined() - before,
                prefix,
                "{word:?}: visitor breaks at the first hit"
            );
        }
        assert!(
            checked >= 20,
            "only {checked} queries match 2+ shards with hits"
        );
        assert!(
            cut_short > 0,
            "some first hit must come before the last candidate"
        );
    }

    #[test]
    fn bloom_routing_skips_shards_without_losing_hits() {
        // At 8 shards most queries route to a strict subset; every hit a
        // full (skip-free) walk finds must still be found.
        let wide = sharded(8);
        let mut skipped_total = 0usize;
        for token in ["republicans", "democrats", "suic1de", "the", "dirty"] {
            let query = EncodedQuery::for_token(token, 1).unwrap();
            let skipped = wide.skipped_shards(&query);
            skipped_total += skipped;
            // Walk the skipped shards exhaustively: none may contain a hit.
            let mut scratch = SoundScratch::new();
            let mut walked_skipped = 0;
            for s in 0..8 {
                if wide.shard(s).may_match(&query) {
                    continue;
                }
                walked_skipped += 1;
                let mut found = 0usize;
                let _ = wide
                    .shard(s)
                    .for_each_sound_mate(&query, &mut scratch, |_, _| {
                        found += 1;
                        ControlFlow::Continue(())
                    });
                assert_eq!(found, 0, "skipped shard {s} had a hit for {token:?}");
            }
            assert_eq!(walked_skipped, skipped, "skipped_shards counts them");
        }
        assert!(
            skipped_total > 0,
            "with 8 shards and this corpus, routing must actually skip"
        );
    }

    #[test]
    fn batch_ingest_matches_sequential_and_single() {
        let texts: Vec<String> = (0..40)
            .map(|i| match i % 5 {
                0 => format!("the dirrty republicans round {i}"),
                1 => "thee dirty repubLIEcans".to_string(),
                2 => format!("vacc1ne mandate pushback {i}"),
                3 => "the vaccine mandate was announced".to_string(),
                _ => "thinking about suic1de 🙂 ok".to_string(),
            })
            .collect();

        let mut flat = TokenDatabase::in_memory();
        let mut expect_n = 0;
        for t in &texts {
            expect_n += flat.ingest_text(t);
        }

        for n in [1usize, 3, 8] {
            let mut seq = ShardedTokenDatabase::in_memory(n);
            for t in &texts {
                TokenStore::ingest_text(&mut seq, t);
            }
            let mut par = ShardedTokenDatabase::in_memory(n);
            let got_n = TokenStore::ingest_texts(&mut par, &texts);
            assert_eq!(got_n, expect_n, "{n} shards: token count");
            for i in 0..n {
                assert_eq!(
                    par.shard(i).records(),
                    seq.shard(i).records(),
                    "{n} shards: shard {i} byte-identical to sequential"
                );
            }
            assert_eq!(par.clean_sentences(), seq.clean_sentences());
            assert_equivalent(&flat, &par);
        }
    }

    #[test]
    fn batch_ingest_on_prepopulated_store() {
        let mut flat = TokenDatabase::with_lexicon();
        let mut wide = ShardedTokenDatabase::with_lexicon(4);
        let texts = ["the demokRATs rallied", "the demokRATs rallied again"];
        for t in texts {
            flat.ingest_text(t);
        }
        TokenStore::ingest_texts(&mut wide, &texts);
        assert_eq!(TokenStore::get(&wide, "demokRATs").unwrap().count, 2);
        assert_equivalent(&flat, &wide);
    }

    #[test]
    fn from_database_preserves_everything() {
        let flat = single();
        for n in [1usize, 2, 5, 8] {
            let wide = ShardedTokenDatabase::from_database(&flat, n);
            assert_equivalent(&flat, &wide);
        }
    }

    #[test]
    fn persist_load_round_trip_per_shard_count() {
        let flat = single();
        for n in [1usize, 2, 4, 8] {
            let wide = sharded(n);
            let store = Database::in_memory();
            TokenStore::persist_to(&wide, &store, "tokens").unwrap();
            assert_eq!(
                ShardedTokenDatabase::manifest_shards(&store, "tokens").unwrap(),
                Some(n)
            );
            let restored = ShardedTokenDatabase::load_from(&store, "tokens").unwrap();
            assert_eq!(restored.num_shards(), n);
            assert_eq!(TokenStore::stats(&restored), flat.stats());
            for k in 0..NUM_LEVELS {
                assert_eq!(
                    ShardedTokenDatabase::hashmap_view(&restored, k).unwrap(),
                    flat.hashmap_view(k).unwrap()
                );
            }
            assert_eq!(
                look_up(&restored, "republicans", LookupParams::paper_default()).unwrap(),
                look_up(&flat, "republicans", LookupParams::paper_default()).unwrap()
            );
        }
    }

    /// Count the shard collections (any generation) persisted under
    /// `collection`.
    fn shard_collection_count(store: &Database, collection: &str) -> usize {
        store
            .collections_with_prefix(&format!("{collection}__g"))
            .iter()
            .filter(|name| ShardedTokenDatabase::collection_generation(collection, name).is_some())
            .count()
    }

    #[test]
    fn repersist_replaces_and_drops_stale_shards() {
        // Persist with 8 shards, then re-persist the same corpus with 2:
        // the load must see exactly 2 shards and the 8 stale collections
        // must be gone (double-persist is replace, never append).
        let store = Database::in_memory();
        TokenStore::persist_to(&sharded(8), &store, "tokens").unwrap();
        assert_eq!(shard_collection_count(&store, "tokens"), 8);

        let two = sharded(2);
        TokenStore::persist_to(&two, &store, "tokens").unwrap();
        TokenStore::persist_to(&two, &store, "tokens").unwrap(); // double persist
        assert_eq!(shard_collection_count(&store, "tokens"), 2);

        let restored = ShardedTokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(restored.num_shards(), 2);
        assert_eq!(TokenStore::stats(&restored), single().stats());
    }

    #[test]
    fn persist_kill_between_steps_preserves_previous_state() {
        use cryptext_common::failpoint;

        let store = Database::in_memory();
        let old = sharded(3);
        TokenStore::persist_to(&old, &store, "tokens").unwrap();
        let mut newer = sharded(3);
        TokenStore::ingest_text(&mut newer, "entirely fresh zebra vocabulary");
        let old_stats = TokenStore::stats(&old);
        let new_stats = TokenStore::stats(&newer);
        assert_ne!(old_stats, new_stats);

        // Kill before the shard writes, then between the shard writes and
        // the manifest swap: both must leave the old persist loadable.
        for point in ["persist.shards.write", "persist.manifest.swap"] {
            let guard = failpoint::arm(point, "kill");
            let err = TokenStore::persist_to(&newer, &store, "tokens").unwrap_err();
            assert!(failpoint::is_injected(&err), "{point}: {err}");
            drop(guard);
            let loaded = ShardedTokenDatabase::load_from(&store, "tokens").unwrap();
            assert_eq!(
                TokenStore::stats(&loaded),
                old_stats,
                "{point}: old state intact after injected crash"
            );
        }

        // With no failpoint armed the persist commits and sweeps every
        // stale generation, including the crashed attempts' leftovers.
        TokenStore::persist_to(&newer, &store, "tokens").unwrap();
        let loaded = ShardedTokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(TokenStore::stats(&loaded), new_stats);
        let gens: std::collections::BTreeSet<u64> = store
            .collections_with_prefix("tokens__g")
            .iter()
            .filter_map(|n| ShardedTokenDatabase::collection_generation("tokens", n))
            .collect();
        assert_eq!(gens.len(), 1, "exactly one generation survives");
        assert!(!store.has_collection("tokens__manifest_staging"));
    }

    #[test]
    fn flat_persist_kill_at_commit_preserves_previous_state() {
        use cryptext_common::failpoint;

        let store = Database::in_memory();
        let old = single();
        old.persist_to(&store, "tokens").unwrap();
        let mut newer = single();
        newer.ingest_text("entirely fresh zebra vocabulary");

        let guard = failpoint::arm("persist.commit", "kill");
        let err = newer.persist_to(&store, "tokens").unwrap_err();
        assert!(failpoint::is_injected(&err));
        drop(guard);
        let loaded = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(loaded.stats(), old.stats(), "old state intact");

        newer.persist_to(&store, "tokens").unwrap();
        let loaded = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(loaded.stats(), newer.stats());
        assert!(
            store.collections_with_prefix("tokens__").is_empty(),
            "staging swept after commit"
        );
    }

    #[test]
    fn grow_one_shard_moves_minimum_and_matches_fresh_build() {
        let flat = single();
        for n in 1usize..=8 {
            let mut grown = sharded(n);
            let total: usize = (0..n).map(|i| grown.shard(i).records().len()).sum();
            let moved = grown.grow_one_shard();
            assert_eq!(grown.num_shards(), n + 1);

            let fresh = sharded(n + 1);
            // Exactly the records whose jump-hash home changed moved, and
            // they all landed in the new shard — the same population a
            // fresh (n+1)-shard build routes there.
            assert_eq!(moved, fresh.shard(n).records().len(), "n={n}: movers");
            assert!(moved <= total);
            // Retained shards are byte-identical to the fresh build; the
            // new shard holds the same record set (arrival order differs —
            // movers drain in shard order, not corpus order).
            for i in 0..n {
                assert_eq!(
                    grown.shard(i).records(),
                    fresh.shard(i).records(),
                    "n={n}: retained shard {i} byte-identical"
                );
            }
            let sorted = |db: &ShardedTokenDatabase| {
                let mut v: Vec<TokenRecord> = db.shard(n).records().to_vec();
                v.sort_by(|a, b| a.token.cmp(&b.token));
                v
            };
            assert_eq!(sorted(&grown), sorted(&fresh), "n={n}: new shard set");
            assert_equivalent(&flat, &grown);
        }
    }

    #[test]
    fn grow_then_persist_load_round_trips() {
        let flat = single();
        for n in [1usize, 3, 7] {
            let mut grown = sharded(n);
            grown.grow_one_shard();
            let store = Database::in_memory();
            TokenStore::persist_to(&grown, &store, "tokens").unwrap();
            let restored = ShardedTokenDatabase::load_from(&store, "tokens").unwrap();
            assert_eq!(restored.num_shards(), n + 1);
            assert_eq!(TokenStore::stats(&restored), flat.stats());
            for k in 0..NUM_LEVELS {
                assert_eq!(
                    ShardedTokenDatabase::hashmap_view(&restored, k).unwrap(),
                    flat.hashmap_view(k).unwrap()
                );
            }
            assert_eq!(
                look_up(&restored, "republicans", LookupParams::paper_default()).unwrap(),
                look_up(&flat, "republicans", LookupParams::paper_default()).unwrap()
            );
        }
    }

    #[test]
    fn load_from_without_manifest_is_corrupt() {
        let store = Database::in_memory();
        single().persist_to(&store, "tokens").unwrap();
        let err = ShardedTokenDatabase::load_from(&store, "tokens").unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)));
        assert!(ShardedTokenDatabase::load_from(&store, "missing").is_err());
    }

    #[test]
    fn crawler_feeds_sharded_store_identically() {
        use crate::ingest::Crawler;
        let platform = cryptext_stream::SocialPlatform::simulate(cryptext_stream::StreamConfig {
            n_posts: 200,
            seed: 3,
            ..cryptext_stream::StreamConfig::default()
        });
        let mut flat = TokenDatabase::in_memory();
        let mut wide = ShardedTokenDatabase::in_memory(4);
        let a = Crawler::new().run_once(&platform, &mut flat, 0);
        let b = Crawler::new().run_once(&platform, &mut wide, 0);
        assert_eq!(a, b, "crawl statistics agree");
        assert_eq!(TokenStore::stats(&wide), flat.stats());
    }

    #[test]
    fn normalize_identical_across_backends() {
        let mut flat = TokenDatabase::with_lexicon();
        for t in FIXTURE_TEXTS {
            flat.ingest_text(t);
        }
        let lm = cryptext_lm::NgramLm::train([
            "biden belongs to the democrats",
            "the republicans blocked the bill",
            "suicide prevention is important",
        ]);
        let n = crate::normalize::Normalizer::new(&lm);
        let wide = ShardedTokenDatabase::from_database(&flat, 5);
        for text in [
            "Biden belongs to the demokRATs",
            "thinking about suic1de",
            "the dirty republic@@ns everywhere",
            "clean text stays clean",
        ] {
            assert_eq!(
                n.normalize(&wide, text, crate::normalize::NormalizeParams::default())
                    .unwrap(),
                n.normalize(&flat, text, crate::normalize::NormalizeParams::default())
                    .unwrap(),
                "text {text:?}"
            );
        }
    }

    /// Regression for the Bloom growth policy: after a large ingest — the
    /// `exp_bench_json` corpus (4 000 simulated posts, seed 7) plus
    /// enough distinct-code vocabulary that **every** shard rebuilds its
    /// summaries wider — the 8-shard skip rate over the bench query mix
    /// must hold the PR 4 baseline (85 of 96 shard walks skipped):
    /// growing a summary may only *sharpen* routing, never dull it. And
    /// the routing must stay exact: no skipped shard hides a hit.
    #[test]
    fn grown_summaries_hold_the_bench_skip_rate_at_8_shards() {
        let platform = cryptext_stream::SocialPlatform::simulate(cryptext_stream::StreamConfig {
            n_posts: 4_000,
            seed: 7,
            ..cryptext_stream::StreamConfig::default()
        });
        let mut flat = TokenDatabase::with_lexicon();
        for post in platform.posts() {
            flat.ingest_text(&post.text);
        }
        // The simulated platform's vocabulary alone stays under the
        // growth threshold; the long tail of a real crawl is what pushes
        // the interners past it. Synthesize that tail with pairwise
        // distinct-code tokens (disjoint from the query mix by prefix).
        for i in 0..8 * 2_800 {
            flat.ingest_token(&super::proptests::distinct_sound_token(i));
        }
        let wide = ShardedTokenDatabase::from_database(&flat, 8);
        for s in 0..8 {
            assert!(
                wide.shard(s).summary_bits(0) > 4_096,
                "shard {s} must have rebuilt its level-0 summary wider"
            );
        }

        let queries = [
            "democrats",
            "republicans",
            "vaccine",
            "suicide",
            "muslim",
            "depression",
            "vacc1ne",
            "the",
            "demokrats",
            "zzzmiss",
            "lesbian",
            "dirty",
        ];
        let k = LookupParams::paper_default().k;
        let mut walks = 0usize;
        let mut skipped = 0usize;
        let mut scratch = SoundScratch::new();
        for q in queries {
            let query = EncodedQuery::for_token(q, k).unwrap();
            walks += 8;
            skipped += wide.skipped_shards(&query);
            // Exactness: every shard the router skips truly has no hits.
            for s in 0..8 {
                if wide.shard(s).may_match(&query) {
                    continue;
                }
                let mut found = 0usize;
                let _ = wide
                    .shard(s)
                    .for_each_sound_mate(&query, &mut scratch, |_, _| {
                        found += 1;
                        ControlFlow::Continue(())
                    });
                assert_eq!(found, 0, "skipped shard {s} had a hit for {q:?}");
            }
        }
        assert!(
            skipped >= 85,
            "skip-rate regression: {skipped}/{walks} shard walks skipped \
             (PR 4 baseline: 85/96)"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::lookup::{look_up, LookupParams};
    use proptest::prelude::*;

    /// Multi-word text over an alphabet that exercises leet fan-out
    /// (1 ↔ i/l, @ ↔ a) against the seeded lexicon.
    fn text_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec("[a-e1@]{2,8}", 0..6).prop_map(|ws| ws.join(" "))
    }

    /// Every `(global id, token)` the sound-mate walk visits, in order.
    fn walk_sequence(store: &ShardedTokenDatabase, query: &EncodedQuery) -> Vec<(u32, String)> {
        let mut scratch = SoundScratch::new();
        let mut out = Vec::new();
        let _ = TokenStore::for_each_sound_mate(store, query, &mut scratch, |id, rec| {
            out.push((id, rec.token.clone()));
            ControlFlow::Continue(())
        });
        out
    }

    proptest! {
        /// The tentpole pin: for any corpus and any shard count 1–8, the
        /// sharded backend returns byte-identical Look Up hits, statistics,
        /// and Table-I views to the single instance — including after a
        /// per-shard persist/load round trip, which also keeps the walk's
        /// exact visit sequence.
        #[test]
        fn sharded_equals_single_reference(
            tokens in proptest::collection::vec("[a-e1@O]{2,9}", 1..25),
            queries in proptest::collection::vec("[a-e1@O]{2,9}", 1..5),
            shards in 1usize..=8,
            k in 0usize..=2,
            d in 0usize..=4,
            exclude_identity in proptest::arbitrary::any::<bool>(),
            observed_only in proptest::arbitrary::any::<bool>(),
        ) {
            let mut flat = TokenDatabase::in_memory();
            let mut wide = ShardedTokenDatabase::in_memory(shards);
            for t in &tokens {
                flat.ingest_token(t);
                TokenStore::ingest_token(&mut wide, t);
            }
            let mut params = LookupParams::new(k, d);
            params.exclude_identity = exclude_identity;
            params.observed_only = observed_only;

            prop_assert_eq!(TokenStore::stats(&wide), flat.stats());
            for level in 0..NUM_LEVELS {
                prop_assert_eq!(
                    ShardedTokenDatabase::hashmap_view(&wide, level).unwrap(),
                    flat.hashmap_view(level).unwrap()
                );
            }
            for q in &queries {
                prop_assert_eq!(
                    look_up(&wide, q, params).unwrap(),
                    look_up(&flat, q, params).unwrap(),
                    "query {:?} params {:?}", q, params
                );
                prop_assert_eq!(TokenStore::get(&wide, q), flat.get(q));
            }

            // Persist/load round trip at this shard count.
            let store = Database::in_memory();
            TokenStore::persist_to(&wide, &store, "tokens").unwrap();
            let restored = ShardedTokenDatabase::load_from(&store, "tokens").unwrap();
            prop_assert_eq!(restored.num_shards(), shards);
            prop_assert_eq!(TokenStore::stats(&restored), flat.stats());
            for q in &queries {
                prop_assert_eq!(
                    look_up(&restored, q, params).unwrap(),
                    look_up(&flat, q, params).unwrap(),
                    "after round trip: query {:?}", q
                );
                // The round trip keeps every record's global id and the
                // walk's visit order, not just the sorted hits.
                let query = EncodedQuery::for_token(q, k).unwrap();
                prop_assert_eq!(
                    walk_sequence(&restored, &query),
                    walk_sequence(&wide, &query),
                    "after round trip: walk of {:?}", q
                );
            }
        }

        /// Normalization over the sharded backend is byte-identical to the
        /// single instance at every shard count, 1 included: same corrected
        /// text, same spans, same scores, same full candidate ordering.
        #[test]
        fn sharded_normalize_equals_single(
            corpus in proptest::collection::vec(text_strategy(), 1..6),
            texts in proptest::collection::vec(text_strategy(), 1..4),
            shards in 1usize..=8,
        ) {
            let mut flat = TokenDatabase::with_lexicon();
            for t in &corpus {
                flat.ingest_text(t);
            }
            let wide = ShardedTokenDatabase::from_database(&flat, shards);
            let lm = cryptext_lm::NgramLm::train(corpus.iter().map(|s| s.as_str()));
            let n = crate::normalize::Normalizer::new(&lm);
            let params = crate::normalize::NormalizeParams::default();
            for text in &texts {
                prop_assert_eq!(
                    n.normalize(&wide, text, params).unwrap(),
                    n.normalize(&flat, text, params).unwrap(),
                    "text {:?} shards {}", text, shards
                );
            }
        }

        /// `for_each_hit_until` with a breaking visitor observes exactly
        /// the prefix of the non-breaking visit sequence, on both backends.
        #[test]
        fn early_exit_hits_are_a_prefix(
            tokens in proptest::collection::vec("[a-e1@O]{2,9}", 1..20),
            query in "[a-e1@O]{2,9}",
            shards in 1usize..=8,
            d in 0usize..=3,
            cut in 0usize..=5,
        ) {
            let mut flat = TokenDatabase::in_memory();
            let mut wide = ShardedTokenDatabase::in_memory(shards);
            for t in &tokens {
                flat.ingest_token(t);
                TokenStore::ingest_token(&mut wide, t);
            }
            let params = LookupParams::new(1, d);
            let mut scratch = crate::lookup::LookupScratch::new();
            for backend in [true, false] {
                let full: Vec<(u32, usize)> = {
                    let mut out = Vec::new();
                    if backend {
                        crate::lookup::for_each_hit(&wide, &query, params, &mut scratch,
                            |id, _, dist| out.push((id, dist))).unwrap();
                    } else {
                        crate::lookup::for_each_hit(&flat, &query, params, &mut scratch,
                            |id, _, dist| out.push((id, dist))).unwrap();
                    }
                    out
                };
                let mut seen: Vec<(u32, usize)> = Vec::new();
                let visit = |seen: &mut Vec<(u32, usize)>, id: u32, dist: usize| {
                    seen.push((id, dist));
                    if seen.len() > cut { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
                };
                if backend {
                    crate::lookup::for_each_hit_until(&wide, &query, params, &mut scratch,
                        |id, _, dist| visit(&mut seen, id, dist)).unwrap();
                } else {
                    crate::lookup::for_each_hit_until(&flat, &query, params, &mut scratch,
                        |id, _, dist| visit(&mut seen, id, dist)).unwrap();
                }
                let want = &full[..full.len().min(cut + 1)];
                prop_assert_eq!(&seen[..], want, "backend sharded={}", backend);
            }
        }

        /// The resharding pin: growing N→N+1 moves only the jump-hash
        /// movers (retained shards stay byte-identical) and every query
        /// surface matches a fresh (N+1)-shard build of the same corpus —
        /// including after a persist/load round trip of the grown store.
        #[test]
        fn grow_one_shard_equals_fresh_build(
            tokens in proptest::collection::vec("[a-e1@O]{2,9}", 1..25),
            queries in proptest::collection::vec("[a-e1@O]{2,9}", 1..5),
            shards in 1usize..=8,
            k in 0usize..=2,
            d in 0usize..=4,
        ) {
            let mut grown = ShardedTokenDatabase::in_memory(shards);
            let mut fresh = ShardedTokenDatabase::in_memory(shards + 1);
            for t in &tokens {
                TokenStore::ingest_token(&mut grown, t);
                TokenStore::ingest_token(&mut fresh, t);
            }
            let moved = grown.grow_one_shard();
            prop_assert_eq!(grown.num_shards(), shards + 1);
            prop_assert_eq!(moved, fresh.shard(shards).records().len());
            for i in 0..shards {
                prop_assert_eq!(
                    grown.shard(i).records(),
                    fresh.shard(i).records(),
                    "retained shard {}", i
                );
            }
            prop_assert_eq!(TokenStore::stats(&grown), TokenStore::stats(&fresh));
            for level in 0..NUM_LEVELS {
                prop_assert_eq!(
                    ShardedTokenDatabase::hashmap_view(&grown, level).unwrap(),
                    ShardedTokenDatabase::hashmap_view(&fresh, level).unwrap()
                );
            }
            let params = LookupParams::new(k, d);
            for q in &queries {
                prop_assert_eq!(
                    look_up(&grown, q, params).unwrap(),
                    look_up(&fresh, q, params).unwrap(),
                    "query {:?}", q
                );
                prop_assert_eq!(TokenStore::get(&grown, q), TokenStore::get(&fresh, q));
            }

            // Persist/load round trip of the grown store.
            let store = Database::in_memory();
            TokenStore::persist_to(&grown, &store, "tokens").unwrap();
            let restored = ShardedTokenDatabase::load_from(&store, "tokens").unwrap();
            prop_assert_eq!(restored.num_shards(), shards + 1);
            for q in &queries {
                prop_assert_eq!(
                    look_up(&restored, q, params).unwrap(),
                    look_up(&fresh, q, params).unwrap(),
                    "after round trip: query {:?}", q
                );
            }
        }

        /// Parallel sharded batch ingest is byte-identical (per shard) to
        /// sequential sharded ingest of the same texts in order.
        #[test]
        fn sharded_batch_ingest_equals_sequential(
            texts in proptest::collection::vec(text_strategy(), 1..10),
            shards in 1usize..=6,
        ) {
            let mut seq = ShardedTokenDatabase::in_memory(shards);
            let mut expect_n = 0;
            for t in &texts {
                expect_n += TokenStore::ingest_text(&mut seq, t);
            }
            let mut par = ShardedTokenDatabase::in_memory(shards);
            let n = TokenStore::ingest_texts(&mut par, &texts);
            prop_assert_eq!(n, expect_n);
            for i in 0..shards {
                prop_assert_eq!(par.shard(i).records(), seq.shard(i).records(), "shard {}", i);
            }
            prop_assert_eq!(par.clean_sentences(), seq.clean_sentences());
        }
    }

    /// `i` → a token with a distinct customized-Soundex code at *every*
    /// level: base-5 digits pick one consonant per Soundex class, never
    /// repeating the previous class, so no adjacent digits collapse and
    /// the class sequence (hence the code) is injective in `i`.
    pub(super) fn distinct_sound_token(mut i: usize) -> String {
        // One representative per Soundex class 1-6.
        const CLASS: [char; 6] = ['b', 'k', 'd', 'l', 'm', 'r'];
        let mut out = String::from("y");
        let mut prev = usize::MAX;
        loop {
            let d = i % 5;
            i /= 5;
            let class = (0..CLASS.len())
                .filter(|&c| c != prev)
                .nth(d)
                .expect("five choices remain");
            out.push(CLASS[class]);
            prev = class;
            if i == 0 {
                break;
            }
        }
        out
    }

    proptest! {
        /// Bloom growth never costs correctness: after every shard's
        /// level-0 interner is pushed past the growth threshold (so each
        /// summary was rebuilt from the exact interner at least once),
        /// routing still has **no false negatives** — every stored probe
        /// token is found through the routed walk, and every shard the
        /// router skips truly holds no hits.
        #[test]
        fn grown_summaries_never_produce_false_negatives(
            probes in proptest::collection::vec("[a-e1@O]{2,9}", 1..24),
            shards in 2usize..=4,
        ) {
            let mut wide = ShardedTokenDatabase::in_memory(shards);
            for i in 0..shards * 900 {
                TokenStore::ingest_token(&mut wide, &distinct_sound_token(i));
            }
            for p in &probes {
                TokenStore::ingest_token(&mut wide, p);
            }
            for s in 0..shards {
                prop_assert!(
                    wide.shard(s).summary_bits(0) > 4_096,
                    "shard {} level-0 summary must have been rebuilt wider", s
                );
            }

            let mut scratch = SoundScratch::new();
            for p in &probes {
                for k in 0..NUM_LEVELS {
                    let query = EncodedQuery::for_token(p, k).unwrap();

                    // The stored probe itself must surface via routing…
                    let mut found_self = false;
                    let _ = TokenStore::for_each_sound_mate(
                        &wide, &query, &mut scratch, |_, rec| {
                            found_self |= rec.token == *p;
                            ControlFlow::Continue(())
                        });
                    prop_assert!(found_self, "probe {:?} lost at level {}", p, k);

                    // …and skipped shards must be exactly empty for it.
                    for s in 0..shards {
                        if wide.shard(s).may_match(&query) {
                            continue;
                        }
                        let mut hits = 0usize;
                        let _ = wide.shard(s).for_each_sound_mate(
                            &query, &mut scratch, |_, _| {
                                hits += 1;
                                ControlFlow::Continue(())
                            });
                        prop_assert_eq!(
                            hits, 0,
                            "skipped shard {} had a hit for {:?} at level {}", s, p, k
                        );
                    }
                }
            }
        }
    }
}
