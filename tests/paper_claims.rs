//! Integration tests pinning the paper's concrete claims and examples —
//! the executable version of EXPERIMENTS.md.

use cryptext::attacks::{HumanPerturber, Strategy, TokenPerturber};
use cryptext::common::SplitMix64;
use cryptext::confusables::are_confusable;
use cryptext::core::database::TokenDatabase;
use cryptext::core::{CrypText, LookupParams, NormalizeParams};
use cryptext::phonetics::{classic_soundex, CustomSoundex};

/// §I intro examples: the motivating perturbations must be recognized as
/// confusable / sound-alike with their base words.
#[test]
fn intro_examples_are_recognized() {
    // "democRATs", "RepubLIEcans", "suic1de", "mus-lim", "chi-nese".
    assert!(are_confusable("democRATs", "democrats"));
    assert!(are_confusable("suic1de", "suicide"));

    let sx = CustomSoundex::new(1);
    assert_eq!(sx.encode("mus-lim"), sx.encode("muslim"));
    assert_eq!(sx.encode("chi-nese"), sx.encode("chinese"));
    // RepubLIEcans differs by an inserted syllable — same bucket, distance 1.
    assert_eq!(sx.encode("RepubLIEcans"), sx.encode("republiecans"));
    assert_eq!(
        cryptext::editdist::levenshtein("republiecans", "republicans"),
        1
    );
}

/// Table I: the three-sentence corpus produces exactly the paper's H_1
/// groupings.
#[test]
fn table1_groupings() {
    let mut db = TokenDatabase::in_memory();
    for s in [
        "the dirrty republicans",
        "thee dirty repubLIEcans",
        "the dirty republic@@ns",
    ] {
        db.ingest_text(s);
    }
    let view = db.hashmap_view(1).unwrap();
    let find = |tok: &str| {
        view.iter()
            .find(|(_, tokens)| tokens.iter().any(|t| t == tok))
            .map(|(code, tokens)| (code.clone(), tokens.clone()))
            .unwrap()
    };
    let (the_code, the_group) = find("the");
    assert_eq!(the_code, "TH000", "paper literal");
    assert_eq!(the_group, vec!["the", "thee"]);

    let (dirty_code, dirty_group) = find("dirty");
    assert_eq!(dirty_code, "DI630", "paper literal");
    assert_eq!(dirty_group, vec!["dirrty", "dirty"]);

    let (_, rep_group) = find("republicans");
    assert_eq!(
        rep_group,
        vec!["repubLIEcans", "republic@@ns", "republicans"],
        "all three republicans variants share one key"
    );
}

/// §III-B: the worked Look Up example — query "republicans" with k=1, d=1
/// over Table I's corpus returns exactly {republicans, repubLIEcans}.
#[test]
fn section3b_lookup_example() {
    let mut db = TokenDatabase::in_memory();
    for s in [
        "the dirrty republicans",
        "thee dirty repubLIEcans",
        "the dirty republic@@ns",
    ] {
        db.ingest_text(s);
    }
    let cx = CrypText::new(db);
    let hits = cx.look_up("republicans", LookupParams::new(1, 1)).unwrap();
    let mut tokens: Vec<&str> = hits.iter().map(|h| h.token.as_str()).collect();
    tokens.sort();
    assert_eq!(tokens, vec!["repubLIEcans", "republicans"]);
}

/// §III-A: the losbian/lesbian motivation — classic collides, k=1 splits.
#[test]
fn section3a_losbian_motivation() {
    assert_eq!(
        classic_soundex("losbian").unwrap().as_str(),
        "L215",
        "paper literal"
    );
    assert_eq!(classic_soundex("lesbian").unwrap().as_str(), "L215");
    let sx = CustomSoundex::new(1);
    assert_eq!(sx.encode("losbian").unwrap().as_str(), "LO215");
    assert_eq!(sx.encode("lesbian").unwrap().as_str(), "LE215");
}

/// §II-C: every wild strategy the paper lists is generated by the human
/// perturber and survives the SMS property (findable via Look Up).
#[test]
fn section2c_strategies_round_trip_through_lookup() {
    let mut rng = SplitMix64::new(9);
    for (word, strategy) in [
        ("democrats", Strategy::Emphasis),
        ("muslim", Strategy::Hyphenation),
        ("porn", Strategy::Repetition),
        ("suicide", Strategy::Leet),
        ("depression", Strategy::PhoneticSub),
    ] {
        let perturber = HumanPerturber::only(strategy);
        let perturbed = perturber
            .perturb_token(word, &mut rng)
            .unwrap_or_else(|| panic!("{} applies to {word}", strategy.name()));

        let mut db = TokenDatabase::in_memory();
        db.ingest_token(&perturbed);
        let hits = cryptext::core::look_up(&db, word, LookupParams::paper_default()).unwrap();
        assert!(
            hits.iter().any(|h| h.token == perturbed),
            "{word} → {perturbed} ({}) findable via SMS lookup",
            strategy.name()
        );
    }
}

/// §III-C: the Fig. 2 flow — a perturbed political sentence normalizes to
/// its clean form using LM context.
#[test]
fn figure2_normalization_flow() {
    let mut db = TokenDatabase::with_lexicon();
    db.ingest_text("the demokRATs rallied");
    db.record_clean_sentence("biden belongs to the democrats");
    db.record_clean_sentence("the democrats proposed the bill");
    let out = CrypText::new(db)
        .normalize("Biden belongs to the demokRATs", NormalizeParams::default())
        .unwrap();
    assert_eq!(out.text, "Biden belongs to the democrats");
}

/// §I scale claim shape: tokens-per-sound ratio exceeds 1 and grows with
/// corpus size (the 2M/400K ≈ 5:1 shape at laptop scale).
#[test]
fn scale_shape_tokens_exceed_sounds() {
    let corpus = cryptext::corpus::datasets::hatespeech_dataset(5, 3_000);
    let mut db = TokenDatabase::in_memory();
    for doc in &corpus.docs {
        db.ingest_text(&doc.text);
    }
    let stats = db.stats();
    assert!(stats.unique_tokens > stats.unique_sounds[1]);
    let ratio = stats.unique_tokens as f64 / stats.unique_sounds[1] as f64;
    assert!(
        ratio > 1.5,
        "perturbation families share sounds: {ratio:.2}"
    );
}
