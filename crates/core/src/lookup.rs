//! Look Up (§III-B): retrieving the perturbation set `P_x`.
//!
//! The SMS property: a perturbation of `x` is a stored token with the same
//! **S**ound (shared `H_k` bucket at phonetic level `k`), the same
//! **M**eaning (approximated by case-folded Levenshtein distance ≤ `d`),
//! and (optionally) different **S**pelling. Defaults are the paper's
//! `k = 1, d = 3`.

use std::cell::RefCell;
use std::ops::ControlFlow;
use std::sync::Arc;

use cryptext_common::Result;
use cryptext_editdist::{levenshtein_bounded_chars, levenshtein_bounded_scratch, EditScratch};

use crate::database::{EncodedQuery, SoundScratch, TokenDatabase, TokenRecord};
use crate::metrics::StageMetrics;
use crate::store::TokenStore;

/// Parameters of a Look Up query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LookupParams {
    /// Phonetic level (`k ≤ 2`).
    pub k: usize,
    /// Levenshtein bound `d` (case-folded).
    pub d: usize,
    /// Drop hits whose case-folded spelling equals the query's (keep only
    /// true perturbations). Off by default: the paper's `P_x` includes the
    /// query token itself.
    pub exclude_identity: bool,
    /// Keep only hits actually observed in a corpus (count > 0), dropping
    /// lexicon-seeded entries. Off by default.
    pub observed_only: bool,
}

impl LookupParams {
    /// Custom `k` and `d`.
    pub fn new(k: usize, d: usize) -> Self {
        LookupParams {
            k,
            d,
            exclude_identity: false,
            observed_only: false,
        }
    }

    /// The paper's GUI defaults: `k = 1, d = 3`.
    pub fn paper_default() -> Self {
        LookupParams::new(1, 3)
    }

    /// Builder: drop identity spellings.
    pub fn perturbations_only(mut self) -> Self {
        self.exclude_identity = true;
        self
    }

    /// Builder: only corpus-observed tokens.
    pub fn observed(mut self) -> Self {
        self.observed_only = true;
        self
    }
}

impl Default for LookupParams {
    fn default() -> Self {
        LookupParams::paper_default()
    }
}

/// One member of `P_x`.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupHit {
    /// The stored case-sensitive token.
    pub token: String,
    /// Corpus frequency.
    pub count: u64,
    /// Case-folded Levenshtein distance to the query.
    pub distance: usize,
    /// Is the hit a dictionary word?
    pub is_english: bool,
}

/// Reusable working memory for [`look_up_with`] / [`for_each_hit`]: the
/// generation-marked bucket-walk state, the bounded-Levenshtein scratch
/// (DP rows + Myers bitmaps), and the [`EncodedQuery`] buffers (code set,
/// code hashes, case fold). One instance per thread (or per bulk request)
/// makes the whole retrieval path allocation-free per candidate — and, for
/// ASCII queries, per query.
#[derive(Debug, Default)]
pub struct LookupScratch {
    sound: SoundScratch,
    edit: EditScratch,
    query: EncodedQuery,
    /// Optional per-stage instrument bundle. `None` (the default) keeps
    /// every instrumentation site in the retrieval path on its no-op
    /// branch; attaching shares the service's live cells.
    pub(crate) stages: Option<Arc<StageMetrics>>,
}

impl LookupScratch {
    /// Fresh scratch space (allocates lazily on first use).
    pub fn new() -> Self {
        LookupScratch::default()
    }

    /// Attach (or, with `None`, detach) a stage-metrics bundle. While
    /// attached, every retrieval through this scratch records encode/walk
    /// timings and filter/hit volumes into the bundle's shared cells.
    pub fn attach_stages(&mut self, stages: Option<Arc<StageMetrics>>) {
        self.stages = stages;
    }

    /// The currently attached stage-metrics bundle, if any.
    pub fn stages(&self) -> Option<&Arc<StageMetrics>> {
        self.stages.as_ref()
    }
}

thread_local! {
    static SHARED_LOOKUP_SCRATCH: RefCell<LookupScratch> = RefCell::new(LookupScratch::new());
}

/// Execute a Look Up against any [`TokenStore`] backend. Hits are ordered
/// by `(distance asc, count desc, token asc)` — closest and most frequent
/// perturbations first, deterministic throughout (and therefore identical
/// across backends, whatever order their buckets are walked in).
///
/// Uses a thread-local [`LookupScratch`]; callers managing their own
/// scratch (bulk endpoints, benches) should call [`look_up_with`].
pub fn look_up<S: TokenStore>(db: &S, token: &str, params: LookupParams) -> Result<Vec<LookupHit>> {
    SHARED_LOOKUP_SCRATCH.with(|scratch| look_up_with(db, token, params, &mut scratch.borrow_mut()))
}

/// The SMS hit filter shared by every retrieval path: `None` when the
/// candidate cannot be a hit or the caller's `keep` rejects it,
/// `Some(distance)` otherwise.
#[inline]
fn hit_distance<P: Fn(&TokenRecord) -> bool>(
    rec: &TokenRecord,
    query_folded: &str,
    query_chars: usize,
    params: LookupParams,
    keep: &P,
    edit: &mut EditScratch,
) -> Option<usize> {
    if params.observed_only && rec.count == 0 {
        return None;
    }
    // Cheap pre-filter: the length gap lower-bounds the distance.
    if query_chars.abs_diff(rec.folded_chars as usize) > params.d {
        return None;
    }
    if params.exclude_identity && rec.folded == query_folded {
        return None;
    }
    if !keep(rec) {
        return None;
    }
    levenshtein_bounded_scratch(query_folded, &rec.folded, params.d, edit)
}

/// Visit every Look Up hit for `token` without materializing owned hit
/// structs — the zero-copy sibling of [`look_up_with`] and the engine under
/// Normalization candidate scoring.
///
/// `f` receives each matching record's id, the borrowed
/// [`crate::database::TokenRecord`], and its case-folded Levenshtein
/// distance to the query. Records arrive in **bucket insertion order**
/// (the order [`TokenDatabase::for_each_sound_mate`] walks postings, shard
/// by shard for sharded backends), not hit-sorted order; callers that need
/// the public `(distance, count, token)` ordering should use
/// [`look_up_with`], which sorts.
///
/// The query is encoded (Soundex code set, code hashes, case fold) exactly
/// once into the scratch's [`EncodedQuery`], regardless of how many shards
/// back `db`. The hot loop is allocation-free per candidate *and* per
/// ASCII query: each candidate's precomputed fold/length comes straight
/// off its record, a length-difference pre-filter skips hopeless
/// candidates before any distance work, and the bounded Levenshtein runs
/// bit-parallel (Myers) through reusable scratch. Sharded backends skip
/// shards via their Bloom summaries and walk the rest one after another
/// on the caller's thread, filtering each candidate as it is visited.
pub fn for_each_hit<'a, S, F>(
    db: &'a S,
    token: &str,
    params: LookupParams,
    scratch: &mut LookupScratch,
    mut f: F,
) -> Result<()>
where
    S: TokenStore,
    F: FnMut(u32, &'a TokenRecord, usize),
{
    for_each_hit_until(db, token, params, scratch, |id, rec, distance| {
        f(id, rec, distance);
        ControlFlow::Continue(())
    })
}

/// [`for_each_hit`] with an early-exit visitor: returning
/// [`ControlFlow::Break`] stops the retrieval at that hit, on every
/// backend, so the candidates after it (later shards included) are never
/// examined. The visited prefix is identical to what the non-breaking
/// visitor would have seen — pinned across backends by the proptests in
/// `shard.rs`.
pub fn for_each_hit_until<'a, S, F>(
    db: &'a S,
    token: &str,
    params: LookupParams,
    scratch: &mut LookupScratch,
    f: F,
) -> Result<()>
where
    S: TokenStore,
    F: FnMut(u32, &'a TokenRecord, usize) -> ControlFlow<()>,
{
    for_each_hit_where(db, token, params, scratch, |_| true, f)
}

/// [`for_each_hit_until`] visiting only the hits whose record satisfies
/// `keep`: exactly the unfiltered sequence with the rejected records
/// removed (same ids, distances and order). `keep` runs after the cheap
/// pre-filters and before the bounded Levenshtein, so a rejected record
/// never pays for an edit distance. The examined-candidates tally still
/// counts every walked record.
pub(crate) fn for_each_hit_where<'a, S, P, F>(
    db: &'a S,
    token: &str,
    params: LookupParams,
    scratch: &mut LookupScratch,
    keep: P,
    mut f: F,
) -> Result<()>
where
    S: TokenStore,
    P: Fn(&TokenRecord) -> bool,
    F: FnMut(u32, &'a TokenRecord, usize) -> ControlFlow<()>,
{
    let LookupScratch {
        sound,
        edit,
        query,
        stages,
    } = scratch;
    let stages = stages.as_deref();
    {
        // Scope the encode timer to the encode alone; the guard records
        // on drop, before `?` can propagate an encode error.
        let _t = stages.map(|s| s.lookup_encode_us.start_timer());
        query.encode(token, params.k)?;
    }
    let query_folded: &str = query.folded();
    let query_chars = query.folded_chars();

    // Volume tallies accumulate locally and flush as one atomic add per
    // walk, never per candidate.
    let mut examined: u64 = 0;
    let mut hits: u64 = 0;
    let _walk = stages.map(|s| s.lookup_walk_us.start_timer());
    let _ = db.for_each_sound_mate(query, sound, |id, rec| {
        examined += 1;
        match hit_distance(rec, query_folded, query_chars, params, &keep, edit) {
            Some(distance) => {
                hits += 1;
                f(id, rec, distance)
            }
            None => ControlFlow::Continue(()),
        }
    });
    if let Some(s) = stages {
        s.lookup_filter_candidates.add(examined);
        s.lookup_hits.add(hits);
    }
    Ok(())
}

/// [`look_up`] with caller-provided scratch buffers: the
/// [`look_up_cancellable`] walk with a probe that never fires.
pub fn look_up_with<S: TokenStore>(
    db: &S,
    token: &str,
    params: LookupParams,
    scratch: &mut LookupScratch,
) -> Result<Vec<LookupHit>> {
    look_up_cancellable(db, token, params, scratch, &mut || None)
}

/// Look Up with caller-provided scratch and a cooperative cancellation
/// probe, for callers whose request carries a deadline (the service
/// gateway), and the one place the sorted public hit list is built.
/// `cancel` is consulted before each candidate hit is accepted, and the
/// first `Some(err)` it returns stops the walk at that hit — through
/// [`for_each_hit_until`]'s early exit, so the candidates after it, later
/// shards included, are never examined — and surfaces `err` to the
/// caller. A query that is never cancelled returns the whole sorted hit
/// list.
pub fn look_up_cancellable<S: TokenStore>(
    db: &S,
    token: &str,
    params: LookupParams,
    scratch: &mut LookupScratch,
    cancel: &mut dyn FnMut() -> Option<cryptext_common::Error>,
) -> Result<Vec<LookupHit>> {
    let mut hits: Vec<LookupHit> = Vec::with_capacity(16);
    let mut aborted: Option<cryptext_common::Error> = None;
    for_each_hit_until(db, token, params, scratch, |_, rec, distance| {
        if let Some(err) = cancel() {
            aborted = Some(err);
            return ControlFlow::Break(());
        }
        hits.push(LookupHit {
            token: rec.token.clone(),
            count: rec.count,
            distance,
            is_english: rec.is_english,
        });
        ControlFlow::Continue(())
    })?;
    if let Some(err) = aborted {
        return Err(err);
    }
    // Hit keys are unique (one record per token string), so an unstable
    // sort yields the same order as the reference's stable sort.
    hits.sort_unstable_by(hit_order);
    Ok(hits)
}

/// The pre-optimization Look Up, kept as the differential-testing and
/// benchmarking reference. It reproduces the seed engine faithfully:
/// candidates come from a `Vec<&TokenRecord>` deduplicated with an O(n²)
/// `Vec::contains` scan over string-probed buckets, and per candidate it
/// lowercases, collects `Vec<char>`, and runs the allocating bounded DP.
/// Must return byte-identical hits in identical order to [`look_up`].
pub fn look_up_naive(
    db: &TokenDatabase,
    token: &str,
    params: LookupParams,
) -> Result<Vec<LookupHit>> {
    TokenDatabase::check_level(params.k)?;
    let query_folded: Vec<char> = token.to_lowercase().chars().collect();

    let mut hits: Vec<LookupHit> = Vec::new();
    for rec in sound_mates_naive(db, params.k, token)? {
        if params.observed_only && rec.count == 0 {
            continue;
        }
        let cand_folded: Vec<char> = rec.token.to_lowercase().chars().collect();
        if params.exclude_identity && cand_folded == query_folded {
            continue;
        }
        if let Some(distance) = levenshtein_bounded_chars(&query_folded, &cand_folded, params.d) {
            hits.push(LookupHit {
                token: rec.token.clone(),
                count: rec.count,
                distance,
                is_english: rec.is_english,
            });
        }
    }
    sort_hits(&mut hits);
    Ok(hits)
}

/// The seed's candidate gathering: linear-scan dedup (`seen.contains`)
/// over per-code bucket probes — O(candidates²) — kept verbatim so the
/// naive baseline measures what the engine replaced.
fn sound_mates_naive<'a>(
    db: &'a TokenDatabase,
    k: usize,
    token: &str,
) -> Result<Vec<&'a TokenRecord>> {
    let mut seen: Vec<u32> = Vec::new();
    for code in db.soundex(k)?.encode_all(token) {
        for &id in db.bucket(k, code.as_str())? {
            if !seen.contains(&id) {
                seen.push(id);
            }
        }
    }
    let records = db.records();
    Ok(seen.into_iter().map(|id| &records[id as usize]).collect())
}

/// Look Up's hit order as a sort key: distance ascending, then count
/// descending, then token ascending. The derived `Ord` compares the fields
/// in that order. [`hit_order`] sorts owned hits by it; Perturbation sorts
/// borrowed records by it when it builds a choice list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct HitKey<'a> {
    distance: usize,
    count: std::cmp::Reverse<u64>,
    token: &'a str,
}

impl<'a> HitKey<'a> {
    pub(crate) fn new(distance: usize, count: u64, token: &'a str) -> Self {
        HitKey {
            distance,
            count: std::cmp::Reverse(count),
            token,
        }
    }

    fn of(hit: &'a LookupHit) -> Self {
        HitKey::new(hit.distance, hit.count, &hit.token)
    }

    pub(crate) fn token(&self) -> &'a str {
        self.token
    }
}

fn hit_order(a: &LookupHit, b: &LookupHit) -> std::cmp::Ordering {
    HitKey::of(a).cmp(&HitKey::of(b))
}

fn sort_hits(hits: &mut [LookupHit]) {
    hits.sort_by(hit_order);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TokenDatabase {
        let mut db = TokenDatabase::in_memory();
        for s in [
            "the dirrty republicans",
            "thee dirty repubLIEcans",
            "the dirty republic@@ns",
            "the demokRATs and the democrats",
            "thinking about suic1de",
            "suicide prevention matters",
        ] {
            db.ingest_text(s);
        }
        db
    }

    #[test]
    fn paper_example_k1_d1() {
        let hits = look_up(&db(), "republicans", LookupParams::new(1, 1)).unwrap();
        let tokens: Vec<&str> = hits.iter().map(|h| h.token.as_str()).collect();
        assert_eq!(tokens, vec!["republicans", "repubLIEcans"]);
    }

    #[test]
    fn widening_d_admits_more() {
        let hits = look_up(&db(), "republicans", LookupParams::new(1, 2)).unwrap();
        let tokens: Vec<&str> = hits.iter().map(|h| h.token.as_str()).collect();
        assert!(tokens.contains(&"republic@@ns"));
        assert_eq!(tokens.len(), 3);
    }

    #[test]
    fn identity_exclusion() {
        let hits = look_up(
            &db(),
            "republicans",
            LookupParams::new(1, 2).perturbations_only(),
        )
        .unwrap();
        assert!(hits
            .iter()
            .all(|h| !h.token.eq_ignore_ascii_case("republicans")));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn ambiguous_leet_reachable_both_directions() {
        let d = db();
        // Clean → perturbed.
        let hits = look_up(&d, "suicide", LookupParams::paper_default()).unwrap();
        assert!(hits.iter().any(|h| h.token == "suic1de"));
        // Perturbed → clean.
        let hits = look_up(&d, "suic1de", LookupParams::paper_default()).unwrap();
        assert!(hits.iter().any(|h| h.token == "suicide"));
    }

    #[test]
    fn ordering_distance_then_count() {
        let mut d = TokenDatabase::in_memory();
        // Three same-sound variants at different distances/counts.
        d.ingest_text("dirty dirty dirty dirrty dirrty dirrrty");
        let hits = look_up(&d, "dirty", LookupParams::paper_default()).unwrap();
        let tokens: Vec<&str> = hits.iter().map(|h| h.token.as_str()).collect();
        assert_eq!(tokens, vec!["dirty", "dirrty", "dirrrty"]);
        assert_eq!(hits[0].distance, 0);
        assert!(hits[1].count >= hits[2].count);
    }

    #[test]
    fn case_emphasis_is_distance_zero() {
        let hits = look_up(&db(), "democrats", LookupParams::new(1, 0)).unwrap();
        let tokens: Vec<&str> = hits.iter().map(|h| h.token.as_str()).collect();
        assert!(!tokens.contains(&"demokRATs"));
        assert!(tokens.contains(&"democrats"));
        // demokRATs is distance 1 (k→c after folding).
        let hits = look_up(&db(), "democrats", LookupParams::new(1, 1)).unwrap();
        assert!(hits.iter().any(|h| h.token == "demokRATs"));
    }

    #[test]
    fn unknown_token_returns_empty_not_error() {
        let hits = look_up(&db(), "zzzzzz", LookupParams::paper_default()).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn invalid_level_is_error() {
        assert!(look_up(&db(), "the", LookupParams::new(5, 1)).is_err());
    }

    #[test]
    fn observed_only_drops_lexicon_seeds() {
        let mut d = TokenDatabase::with_lexicon();
        d.ingest_text("the demokRATs rallied");
        let all = look_up(&d, "democrats", LookupParams::paper_default()).unwrap();
        assert!(all.iter().any(|h| h.count == 0), "lexicon seed present");
        let observed = look_up(&d, "democrats", LookupParams::paper_default().observed()).unwrap();
        assert!(observed.iter().all(|h| h.count > 0));
        assert!(observed.iter().any(|h| h.token == "demokRATs"));
    }

    #[test]
    fn optimized_matches_naive_on_fixture_db() {
        let d = db();
        let mut scratch = LookupScratch::new();
        for q in [
            "republicans",
            "democrats",
            "suic1de",
            "the",
            "zzzzzz",
            "vãccine",
        ] {
            for k in 0..3 {
                for dist in 0..4 {
                    for params in [
                        LookupParams::new(k, dist),
                        LookupParams::new(k, dist).perturbations_only(),
                        LookupParams::new(k, dist).observed(),
                    ] {
                        let fast = look_up_with(&d, q, params, &mut scratch).unwrap();
                        let slow = look_up_naive(&d, q, params).unwrap();
                        assert_eq!(fast, slow, "query {q:?} params {params:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn visitor_yields_exactly_the_lookup_hits() {
        let d = db();
        let mut scratch = LookupScratch::new();
        for q in ["republicans", "suic1de", "the", "zzzzzz", "vãccine"] {
            for params in [
                LookupParams::paper_default(),
                LookupParams::new(1, 2).perturbations_only(),
                LookupParams::new(0, 3).observed(),
            ] {
                let mut visited: Vec<LookupHit> = Vec::new();
                for_each_hit(&d, q, params, &mut scratch, |id, rec, distance| {
                    assert_eq!(d.records()[id as usize], *rec, "id ↔ record agree");
                    visited.push(LookupHit {
                        token: rec.token.clone(),
                        count: rec.count,
                        distance,
                        is_english: rec.is_english,
                    });
                })
                .unwrap();
                visited.sort_unstable_by(hit_order);
                let reference = look_up_with(&d, q, params, &mut scratch).unwrap();
                assert_eq!(visited, reference, "query {q:?} params {params:?}");
            }
        }
    }

    #[test]
    fn visitor_rejects_invalid_level() {
        let d = db();
        let mut scratch = LookupScratch::new();
        assert!(for_each_hit(
            &d,
            "the",
            LookupParams::new(9, 1),
            &mut scratch,
            |_, _, _| {}
        )
        .is_err());
    }

    #[test]
    fn cancellable_lookup_matches_plain_when_never_cancelled() {
        let d = db();
        let mut scratch = LookupScratch::new();
        for q in ["republicans", "suic1de", "zzzzzz"] {
            let plain = look_up_with(&d, q, LookupParams::paper_default(), &mut scratch).unwrap();
            let cancellable = look_up_cancellable(
                &d,
                q,
                LookupParams::paper_default(),
                &mut scratch,
                &mut || None,
            )
            .unwrap();
            assert_eq!(plain, cancellable, "query {q:?}");
        }
    }

    #[test]
    fn cancellable_lookup_aborts_mid_walk_with_the_probe_error() {
        let d = db();
        let mut scratch = LookupScratch::new();
        // Sanity: the query has several hits, so a cancel after the first
        // candidate really does abort mid-walk.
        let all = look_up_with(&d, "republicans", LookupParams::new(1, 2), &mut scratch).unwrap();
        assert!(all.len() >= 2);
        let mut probes = 0u32;
        let err = look_up_cancellable(
            &d,
            "republicans",
            LookupParams::new(1, 2),
            &mut scratch,
            &mut || {
                probes += 1;
                (probes > 1).then_some(cryptext_common::Error::DeadlineExceeded { budget_ms: 7 })
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            cryptext_common::Error::DeadlineExceeded { budget_ms: 7 }
        ));
    }

    #[test]
    fn k_zero_is_coarser_than_k_one() {
        let mut d = TokenDatabase::in_memory();
        d.ingest_token("losbian");
        d.ingest_token("lesbian");
        // k=0: classic-style collision (both L…), so lookup finds both.
        let hits = look_up(&d, "lesbian", LookupParams::new(0, 2)).unwrap();
        assert_eq!(hits.len(), 2);
        // k=1: distinct prefixes LO/LE → only the exact word.
        let hits = look_up(&d, "lesbian", LookupParams::new(1, 2)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].token, "lesbian");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::shard::ShardedTokenDatabase;
    use proptest::prelude::*;

    fn small_db(tokens: &[String]) -> TokenDatabase {
        let mut db = TokenDatabase::in_memory();
        for t in tokens {
            db.ingest_token(t);
        }
        db
    }

    /// Dictionary words with case variants and leet spellings of them, so
    /// one bucket mixes dictionary records with their perturbations.
    const VOCAB: [&str; 16] = [
        "bad", "BAD", "b@d", "Bad", "dumb", "DUMB", "dumbb", "the", "The", "th3", "thee", "they",
        "vaccine", "VACCINE", "vacc1ne", "vaccin",
    ];

    fn corpus_word() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..VOCAB.len()).prop_map(|i| VOCAB[i].to_string()),
            "[a-eA-E1@O]{2,9}",
        ]
    }

    /// Every `(id, distance, is_english)` the walk visits, in visit order:
    /// the unfiltered walk for `None`, else the predicate walk keeping the
    /// records whose `is_english` equals `english`.
    fn visits<S: TokenStore>(
        db: &S,
        query: &str,
        params: LookupParams,
        english: Option<bool>,
    ) -> Vec<(u32, usize, bool)> {
        let mut scratch = LookupScratch::new();
        let mut out = Vec::new();
        let visit = |id: u32, rec: &TokenRecord, distance: usize| {
            out.push((id, distance, rec.is_english));
            ControlFlow::Continue(())
        };
        match english {
            None => for_each_hit_until(db, query, params, &mut scratch, visit),
            Some(want) => for_each_hit_where(
                db,
                query,
                params,
                &mut scratch,
                |rec| rec.is_english == want,
                visit,
            ),
        }
        .unwrap();
        out
    }

    proptest! {
        /// Every hit satisfies the SMS contract: within distance d, and
        /// sharing at least one H_k code with the query.
        #[test]
        fn hits_respect_sms_contract(
            tokens in proptest::collection::vec("[a-e]{2,7}", 1..20),
            query in "[a-e]{2,7}",
            k in 0usize..=2,
            d in 0usize..=3,
        ) {
            let db = small_db(&tokens);
            let hits = look_up(&db, &query, LookupParams::new(k, d)).unwrap();
            let sx = db.soundex(k).unwrap();
            let query_codes = sx.encode_all(&query);
            for h in &hits {
                prop_assert!(h.distance <= d, "{} at distance {}", h.token, h.distance);
                prop_assert_eq!(
                    cryptext_editdist::levenshtein(&h.token.to_lowercase(), &query.to_lowercase()),
                    h.distance
                );
                let cand_codes = sx.encode_all(&h.token);
                prop_assert!(
                    cand_codes.iter().any(|c| query_codes.contains(c)),
                    "{} shares a sound with {}", h.token, query
                );
            }
            // Sorted by (distance, count desc, token).
            for w in hits.windows(2) {
                prop_assert!(w[0].distance <= w[1].distance);
            }
        }

        /// Widening d only adds hits (monotone retrieval).
        #[test]
        fn widening_d_is_monotone(
            tokens in proptest::collection::vec("[a-e]{2,7}", 1..20),
            query in "[a-e]{2,7}",
            d in 0usize..=2,
        ) {
            let db = small_db(&tokens);
            let narrow = look_up(&db, &query, LookupParams::new(1, d)).unwrap();
            let wide = look_up(&db, &query, LookupParams::new(1, d + 1)).unwrap();
            for h in &narrow {
                prop_assert!(
                    wide.iter().any(|w| w.token == h.token),
                    "{} lost when widening d", h.token
                );
            }
        }

        /// A stored token is always findable from itself (reflexivity), at
        /// any k and d.
        #[test]
        fn stored_tokens_find_themselves(
            token in "[a-e]{2,7}",
            k in 0usize..=2,
        ) {
            let db = small_db(std::slice::from_ref(&token));
            let hits = look_up(&db, &token, LookupParams::new(k, 0)).unwrap();
            prop_assert!(hits.iter().any(|h| h.token == token));
        }

        /// Differential pin: the read-optimized engine returns
        /// byte-identical hits in identical order to the kept naive
        /// reference, across random corpora (including leet/confusable
        /// glyphs that fan out to multiple codes), queries, levels and
        /// bounds, and all parameter flags.
        #[test]
        fn optimized_equals_naive_reference(
            tokens in proptest::collection::vec("[a-e1@O]{2,9}", 1..30),
            query in "[a-e1@O]{2,9}",
            k in 0usize..=2,
            d in 0usize..=4,
            exclude_identity in proptest::arbitrary::any::<bool>(),
            observed_only in proptest::arbitrary::any::<bool>(),
        ) {
            let db = small_db(&tokens);
            let mut params = LookupParams::new(k, d);
            params.exclude_identity = exclude_identity;
            params.observed_only = observed_only;

            let mut scratch = LookupScratch::new();
            let fast = look_up_with(&db, &query, params, &mut scratch).unwrap();
            let slow = look_up_naive(&db, &query, params).unwrap();
            prop_assert_eq!(&fast, &slow, "params {:?} query {:?}", params, query);

            // The thread-local convenience wrapper agrees too.
            let wrapped = look_up(&db, &query, params).unwrap();
            prop_assert_eq!(&wrapped, &slow);
        }

        /// The record-predicate walk visits exactly the unfiltered walk's
        /// `(id, distance)` sequence with the rejected records removed,
        /// for a predicate and its negation, on the flat backend and at
        /// 1–8 shards.
        #[test]
        fn predicate_walk_filters_the_unfiltered_sequence(
            observed in proptest::collection::vec(corpus_word(), 1..24),
            queries in proptest::collection::vec(corpus_word(), 1..4),
            shards in 1usize..=8,
            k in 0usize..=2,
            d in 0usize..=4,
            exclude_identity in proptest::arbitrary::any::<bool>(),
            observed_only in proptest::arbitrary::any::<bool>(),
        ) {
            // Lexicon words arrive as count-0 records, which
            // `observed_only` drops; ingested words count from 1.
            let mut flat = TokenDatabase::with_lexicon();
            for t in &observed {
                flat.ingest_token(t);
            }
            let wide = ShardedTokenDatabase::from_database(&flat, shards);
            let mut params = LookupParams::new(k, d);
            params.exclude_identity = exclude_identity;
            params.observed_only = observed_only;

            for q in &queries {
                for sharded in [false, true] {
                    let walk = |english| if sharded {
                        visits(&wide, q, params, english)
                    } else {
                        visits(&flat, q, params, english)
                    };
                    let all = walk(None);
                    // `is_english`, then its negation.
                    for want in [true, false] {
                        let expected: Vec<_> =
                            all.iter().filter(|v| v.2 == want).copied().collect();
                        prop_assert_eq!(
                            walk(Some(want)), expected,
                            "query {:?} params {:?} sharded {} english {}",
                            q, params, sharded, want
                        );
                    }
                }
            }
        }
    }
}
