//! Embedded English lexicons.
//!
//! A compact but realistic vocabulary: function words, per-topic content
//! vocabularies, sentiment lexicons, a mild insult list for toxicity, and
//! the *sensitive targets* the paper shows being perturbed in the wild.
//! `english_lexicon()` is the dictionary the Normalization function treats
//! as "correctly-spelled English words" (§III-A).

use std::collections::HashSet;
use std::sync::OnceLock;

use cryptext_common::hash::FxHashSet;

/// Topic of a generated document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Topic {
    /// Elections, parties, congress.
    Politics,
    /// Vaccines, pandemic, healthcare.
    Health,
    /// Leagues, matches, players.
    Sports,
    /// Software, gadgets, platforms.
    Tech,
    /// Movies, music, celebrities.
    Entertainment,
}

impl Topic {
    /// All topics in canonical order.
    pub const ALL: [Topic; 5] = [
        Topic::Politics,
        Topic::Health,
        Topic::Sports,
        Topic::Tech,
        Topic::Entertainment,
    ];

    /// Dense class index for the categorization classifier.
    pub fn class_index(self) -> usize {
        match self {
            Topic::Politics => 0,
            Topic::Health => 1,
            Topic::Sports => 2,
            Topic::Tech => 3,
            Topic::Entertainment => 4,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Topic::Politics => "politics",
            Topic::Health => "health",
            Topic::Sports => "sports",
            Topic::Tech => "tech",
            Topic::Entertainment => "entertainment",
        }
    }

    /// The topic's content vocabulary.
    pub fn vocabulary(self) -> &'static [&'static str] {
        match self {
            Topic::Politics => POLITICS,
            Topic::Health => HEALTH,
            Topic::Sports => SPORTS,
            Topic::Tech => TECH,
            Topic::Entertainment => ENTERTAINMENT,
        }
    }

    /// Sensitive, frequently-perturbed targets within this topic.
    pub fn sensitive_targets(self) -> &'static [&'static str] {
        match self {
            Topic::Politics => &[
                "democrats",
                "republicans",
                "muslim",
                "chinese",
                "immigrants",
            ],
            Topic::Health => &["vaccine", "suicide", "depression", "abortion", "overdose"],
            Topic::Sports => &["doping", "gambling", "cheating"],
            Topic::Tech => &["porn", "hackers", "censorship"],
            Topic::Entertainment => &["lesbian", "racist", "scandal"],
        }
    }
}

/// Function words (never perturbed, glue for templates).
pub const FUNCTION_WORDS: &[&str] = &[
    "the",
    "a",
    "an",
    "and",
    "or",
    "but",
    "if",
    "then",
    "because",
    "about",
    "with",
    "without",
    "into",
    "onto",
    "over",
    "under",
    "again",
    "very",
    "really",
    "just",
    "still",
    "even",
    "also",
    "only",
    "not",
    "never",
    "always",
    "sometimes",
    "often",
    "now",
    "today",
    "yesterday",
    "tomorrow",
    "here",
    "there",
    "this",
    "that",
    "these",
    "those",
    "they",
    "them",
    "their",
    "we",
    "our",
    "you",
    "your",
    "he",
    "she",
    "his",
    "her",
    "it",
    "its",
    "who",
    "what",
    "when",
    "where",
    "why",
    "how",
    "all",
    "some",
    "any",
    "many",
    "much",
    "more",
    "most",
    "few",
    "less",
    "least",
    "own",
    "other",
    "another",
    "such",
    "both",
    "each",
    "every",
    "no",
    "nor",
    "too",
    "so",
    "than",
    "of",
    "in",
    "on",
    "at",
    "by",
    "for",
    "from",
    "to",
    "up",
    "down",
    "out",
    "off",
    "as",
    "is",
    "are",
    "was",
    "were",
    "be",
    "been",
    "being",
    "have",
    "has",
    "had",
    "do",
    "does",
    "did",
    "will",
    "would",
    "can",
    "could",
    "should",
    "may",
    "might",
    "must",
    "shall",
];

/// Politics vocabulary.
pub const POLITICS: &[&str] = &[
    "democrats",
    "republicans",
    "senate",
    "congress",
    "election",
    "ballot",
    "vote",
    "voters",
    "president",
    "senator",
    "governor",
    "campaign",
    "policy",
    "legislation",
    "bill",
    "law",
    "debate",
    "caucus",
    "primary",
    "midterms",
    "liberal",
    "conservative",
    "progressive",
    "moderate",
    "coalition",
    "filibuster",
    "impeachment",
    "lobbyist",
    "mandate",
    "reform",
    "borders",
    "immigration",
    "immigrants",
    "taxes",
    "budget",
    "deficit",
    "inflation",
    "economy",
    "muslim",
    "chinese",
    "russia",
    "sanctions",
    "treaty",
    "diplomat",
    "protest",
    "rally",
    "supporters",
    "opposition",
    "scandal",
    "corruption",
    "media",
    "propaganda",
    "freedom",
    "rights",
    "amendment",
    "constitution",
    "court",
    "justice",
    "ruling",
    "veto",
    "majority",
    "minority",
    "district",
    "county",
    "federal",
    "state",
    "national",
    "capitol",
];

/// Health vocabulary.
pub const HEALTH: &[&str] = &[
    "vaccine",
    "vaccination",
    "mandate",
    "booster",
    "doses",
    "pandemic",
    "virus",
    "variant",
    "infection",
    "immunity",
    "hospital",
    "clinic",
    "doctor",
    "nurse",
    "patient",
    "treatment",
    "therapy",
    "medicine",
    "prescription",
    "symptoms",
    "diagnosis",
    "recovery",
    "quarantine",
    "masks",
    "lockdown",
    "outbreak",
    "epidemic",
    "disease",
    "illness",
    "chronic",
    "mental",
    "depression",
    "anxiety",
    "suicide",
    "overdose",
    "addiction",
    "wellness",
    "fitness",
    "nutrition",
    "diet",
    "exercise",
    "sleep",
    "stress",
    "insurance",
    "medicare",
    "abortion",
    "surgery",
    "emergency",
    "ambulance",
    "pharmacy",
    "trial",
    "research",
    "study",
    "science",
    "effectiveness",
    "safety",
    "risks",
    "benefits",
    "experts",
    "guidelines",
];

/// Sports vocabulary.
pub const SPORTS: &[&str] = &[
    "match",
    "game",
    "season",
    "league",
    "playoff",
    "championship",
    "tournament",
    "finals",
    "team",
    "coach",
    "player",
    "striker",
    "goalkeeper",
    "quarterback",
    "pitcher",
    "captain",
    "goal",
    "score",
    "points",
    "win",
    "loss",
    "draw",
    "defeat",
    "victory",
    "record",
    "transfer",
    "contract",
    "injury",
    "training",
    "stadium",
    "fans",
    "referee",
    "penalty",
    "offside",
    "foul",
    "doping",
    "gambling",
    "cheating",
    "underdog",
    "favorite",
    "ranking",
    "medal",
    "olympics",
    "marathon",
    "sprint",
    "basketball",
    "football",
    "soccer",
    "baseball",
    "hockey",
    "tennis",
    "golf",
    "boxing",
    "racing",
];

/// Tech vocabulary.
pub const TECH: &[&str] = &[
    "software",
    "hardware",
    "startup",
    "platform",
    "algorithm",
    "database",
    "server",
    "cloud",
    "network",
    "internet",
    "browser",
    "website",
    "application",
    "update",
    "release",
    "launch",
    "feature",
    "interface",
    "privacy",
    "security",
    "encryption",
    "hackers",
    "breach",
    "leak",
    "malware",
    "phishing",
    "password",
    "authentication",
    "censorship",
    "moderation",
    "content",
    "users",
    "accounts",
    "profiles",
    "posts",
    "comments",
    "likes",
    "shares",
    "followers",
    "trending",
    "viral",
    "streaming",
    "gaming",
    "console",
    "smartphone",
    "gadget",
    "chip",
    "processor",
    "battery",
    "robot",
    "automation",
    "porn",
    "spam",
    "bots",
];

/// Entertainment vocabulary.
pub const ENTERTAINMENT: &[&str] = &[
    "movie",
    "film",
    "director",
    "actor",
    "actress",
    "celebrity",
    "premiere",
    "trailer",
    "sequel",
    "franchise",
    "blockbuster",
    "boxoffice",
    "album",
    "single",
    "concert",
    "tour",
    "festival",
    "award",
    "oscars",
    "grammys",
    "nomination",
    "drama",
    "comedy",
    "thriller",
    "horror",
    "romance",
    "documentary",
    "series",
    "episode",
    "season",
    "finale",
    "streaming",
    "soundtrack",
    "lyrics",
    "band",
    "singer",
    "rapper",
    "audience",
    "critics",
    "review",
    "rating",
    "scandal",
    "gossip",
    "interview",
    "paparazzi",
    "lesbian",
    "racist",
    "diva",
];

/// Positive sentiment words.
pub const SENTIMENT_POSITIVE: &[&str] = &[
    "love",
    "loved",
    "great",
    "wonderful",
    "amazing",
    "fantastic",
    "excellent",
    "brilliant",
    "beautiful",
    "awesome",
    "superb",
    "perfect",
    "happy",
    "glad",
    "delighted",
    "proud",
    "hopeful",
    "inspiring",
    "impressive",
    "outstanding",
    "remarkable",
    "refreshing",
    "enjoyable",
    "pleasant",
    "friendly",
    "helpful",
    "honest",
    "fair",
    "strong",
    "smart",
    "thoughtful",
    "supportive",
    "grateful",
    "thankful",
    "best",
    "better",
    "good",
    "win",
    "winning",
    "success",
    "successful",
    "progress",
    "improvement",
    "promising",
    "safe",
    "effective",
    "reliable",
    "trustworthy",
    "celebrate",
    "recommend",
    "appreciate",
];

/// Negative sentiment words.
pub const SENTIMENT_NEGATIVE: &[&str] = &[
    "hate",
    "hated",
    "terrible",
    "awful",
    "horrible",
    "disgusting",
    "dreadful",
    "appalling",
    "pathetic",
    "miserable",
    "angry",
    "furious",
    "outraged",
    "disappointed",
    "disappointing",
    "sad",
    "worried",
    "scared",
    "afraid",
    "dangerous",
    "harmful",
    "toxic",
    "corrupt",
    "dishonest",
    "unfair",
    "weak",
    "stupid",
    "foolish",
    "reckless",
    "shameful",
    "disgraceful",
    "worst",
    "worse",
    "bad",
    "fail",
    "failing",
    "failure",
    "disaster",
    "crisis",
    "collapse",
    "broken",
    "useless",
    "worthless",
    "lies",
    "lying",
    "fraud",
    "scam",
    "betrayal",
    "threat",
    "ruined",
    "destroy",
    "destroying",
];

/// Mild insults for the toxicity corpus (kept non-graphic deliberately —
/// the experiments only need a separable toxic register).
pub const TOXIC_WORDS: &[&str] = &[
    "idiot",
    "idiots",
    "stupid",
    "moron",
    "morons",
    "loser",
    "losers",
    "clown",
    "clowns",
    "trash",
    "garbage",
    "pathetic",
    "dumb",
    "fool",
    "fools",
    "ignorant",
    "disgusting",
    "worthless",
    "coward",
    "cowards",
    "liar",
    "liars",
    "crook",
    "crooks",
    "parasite",
    "parasites",
    "traitor",
    "traitors",
    "scum",
    "creep",
    "creeps",
    "jerk",
    "jerks",
    "hypocrite",
    "hypocrites",
    "sheep",
    "bootlicker",
    "shill",
    "shills",
    "troll",
    "trolls",
];

/// General filler content words (verbs/nouns used across topics).
pub const GENERAL: &[&str] = &[
    "people",
    "person",
    "world",
    "country",
    "city",
    "community",
    "family",
    "friends",
    "children",
    "school",
    "work",
    "job",
    "money",
    "time",
    "year",
    "week",
    "day",
    "night",
    "morning",
    "story",
    "news",
    "report",
    "reports",
    "statement",
    "announcement",
    "decision",
    "plan",
    "plans",
    "idea",
    "ideas",
    "problem",
    "problems",
    "solution",
    "question",
    "questions",
    "answer",
    "answers",
    "reason",
    "reasons",
    "result",
    "results",
    "change",
    "changes",
    "situation",
    "moment",
    "thing",
    "things",
    "way",
    "ways",
    "place",
    "home",
    "house",
    "street",
    "everyone",
    "everybody",
    "nobody",
    "someone",
    "something",
    "nothing",
    "dirty",
    "clean",
    "announced",
    "checked",
    "check",
    "talking",
    "saying",
    "thinking",
    "feeling",
    "watching",
    "reading",
    "writing",
    "sharing",
    "posting",
    "spreading",
    "pushing",
    "blocking",
    "supporting",
    "opposing",
    "defending",
    "attacking",
    "claiming",
    "denying",
    "admitting",
    "ignoring",
    "demanding",
    "promising",
];

/// Every distinct word across all lexicons — the "correctly-spelled English
/// dictionary" for normalization. Includes the literal glue words of the
/// sentence templates so generated clean text is fully in-dictionary.
pub fn english_lexicon() -> &'static [&'static str] {
    static LEXICON: OnceLock<Vec<&'static str>> = OnceLock::new();
    LEXICON.get_or_init(|| {
        let mut set: HashSet<&'static str> = HashSet::new();
        set.extend(FUNCTION_WORDS);
        set.extend(GENERAL);
        set.extend(SENTIMENT_POSITIVE);
        set.extend(SENTIMENT_NEGATIVE);
        set.extend(TOXIC_WORDS);
        for t in Topic::ALL {
            set.extend(t.vocabulary());
            set.extend(t.sensitive_targets());
        }
        // Template glue: every literal (non-slot) word in the templates.
        for template in crate::templates::POSITIVE_TEMPLATES
            .iter()
            .chain(crate::templates::NEGATIVE_TEMPLATES)
            .chain(crate::templates::TOXIC_TEMPLATES)
        {
            for word in template.split_whitespace() {
                if !word.contains('{') && word.bytes().all(|b| b.is_ascii_lowercase()) {
                    set.insert(word);
                }
            }
        }
        let mut v: Vec<&'static str> = set.into_iter().collect();
        v.sort_unstable();
        v
    })
}

/// Is `w` (case-insensitively) a dictionary word?
///
/// Probes an Fx-hashed set of the lexicon's own `&'static str`s. The set
/// holds only lexicon words and never grows: input words are looked up,
/// never inserted, so none can be chosen to lengthen a probe chain.
pub fn is_english_word(w: &str) -> bool {
    static SET: OnceLock<FxHashSet<&'static str>> = OnceLock::new();
    let set = SET.get_or_init(|| english_lexicon().iter().copied().collect());
    // Tokens on the Normalization/ingest hot paths are usually already
    // lowercase; skip the per-probe String allocation for them.
    if w.bytes().any(|b| b.is_ascii_uppercase()) {
        set.contains(w.to_ascii_lowercase().as_str())
    } else {
        set.contains(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicon_is_deduped_sorted_and_sizeable() {
        let lex = english_lexicon();
        assert!(lex.len() > 400, "got {}", lex.len());
        assert!(lex.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
    }

    #[test]
    fn lexicon_words_are_lowercase_ascii() {
        for w in english_lexicon() {
            assert!(
                w.bytes().all(|b| b.is_ascii_lowercase()),
                "{w} must be lowercase ascii"
            );
        }
    }

    #[test]
    fn membership_checks_case_insensitively() {
        assert!(is_english_word("democrats"));
        assert!(is_english_word("DEMOCRATS"));
        assert!(is_english_word("Vaccine"));
        assert!(!is_english_word("demokrats"));
        assert!(!is_english_word("dem0crats"));
        assert!(!is_english_word(""));
    }

    #[test]
    fn sensitive_targets_are_dictionary_words() {
        for t in Topic::ALL {
            for w in t.sensitive_targets() {
                assert!(is_english_word(w), "{w}");
            }
        }
    }

    #[test]
    fn paper_examples_present() {
        for w in [
            "democrats",
            "republicans",
            "vaccine",
            "muslim",
            "chinese",
            "suicide",
            "porn",
            "depression",
            "lesbian",
        ] {
            assert!(is_english_word(w), "{w} from the paper must be present");
        }
    }

    #[test]
    fn topic_indices_dense_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for t in Topic::ALL {
            assert!(t.class_index() < Topic::ALL.len());
            assert!(seen.insert(t.class_index()));
            assert!(!t.vocabulary().is_empty());
            assert!(!t.sensitive_targets().is_empty());
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn sentiment_lexicons_disjoint() {
        let pos: HashSet<_> = SENTIMENT_POSITIVE.iter().collect();
        let neg: HashSet<_> = SENTIMENT_NEGATIVE.iter().collect();
        assert!(pos.is_disjoint(&neg));
    }
}
