//! Named dataset builders mimicking the paper's curated corpora.
//!
//! §III-A: *"Most of them are originally curated for detecting abusive
//! materials online (e.g., rumors \[4\], hatespeech \[5\], cyberbullying \[6\])
//! and often contain many perturbations."* Each builder tunes the generator
//! toward the register of its namesake; together they seed the token
//! database the way the paper's mix of datasets does.

use crate::generator::{generate, CorpusConfig, GeneratedCorpus};

/// Rumour-verification-style data (Kochkina et al., ACL'18): heavy
/// politics/health, mildly negative, some perturbation.
pub fn rumor_dataset(seed: u64, n_docs: usize) -> GeneratedCorpus {
    generate(CorpusConfig {
        n_docs,
        seed,
        topic_weights: [2.0, 2.0, 0.3, 0.7, 0.5],
        negative_fraction: 0.6,
        toxic_given_negative: 0.15,
        perturb_prob_negative: 0.45,
        perturb_prob_positive: 0.10,
        secondary_perturb_prob: 0.08,
    })
}

/// Hate-speech-detection-style data (Gomez et al., WACV'20): highly
/// negative and toxic, the densest perturbation rates (evasion attempts).
pub fn hatespeech_dataset(seed: u64, n_docs: usize) -> GeneratedCorpus {
    generate(CorpusConfig {
        n_docs,
        seed,
        topic_weights: [2.5, 1.0, 0.5, 0.8, 1.2],
        negative_fraction: 0.8,
        toxic_given_negative: 0.75,
        perturb_prob_negative: 0.65,
        perturb_prob_positive: 0.15,
        secondary_perturb_prob: 0.15,
    })
}

/// Cyberbullying / Wikipedia-personal-attacks-style data (Wulczyn et al.):
/// personal, toxic, moderate perturbation.
pub fn cyberbullying_dataset(seed: u64, n_docs: usize) -> GeneratedCorpus {
    generate(CorpusConfig {
        n_docs,
        seed,
        topic_weights: [1.0, 1.0, 1.5, 1.5, 1.5],
        negative_fraction: 0.7,
        toxic_given_negative: 0.6,
        perturb_prob_negative: 0.5,
        perturb_prob_positive: 0.1,
        secondary_perturb_prob: 0.12,
    })
}

/// The combined curation mix the token database is built from: one part
/// rumor, one part hate speech, one part cyberbullying.
pub fn curation_mix(seed: u64, n_docs_each: usize) -> Vec<GeneratedCorpus> {
    vec![
        rumor_dataset(seed, n_docs_each),
        hatespeech_dataset(seed.wrapping_add(1), n_docs_each),
        cyberbullying_dataset(seed.wrapping_add(2), n_docs_each),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sentiment;

    #[test]
    fn hatespeech_is_most_toxic() {
        let rumor = rumor_dataset(1, 800);
        let hate = hatespeech_dataset(1, 800);
        let toxic_frac = |c: &GeneratedCorpus| {
            c.docs.iter().filter(|d| d.toxic).count() as f64 / c.docs.len() as f64
        };
        assert!(
            toxic_frac(&hate) > toxic_frac(&rumor) + 0.2,
            "{} vs {}",
            toxic_frac(&hate),
            toxic_frac(&rumor)
        );
    }

    #[test]
    fn hatespeech_is_most_perturbed() {
        let rumor = rumor_dataset(2, 800);
        let hate = hatespeech_dataset(2, 800);
        assert!(hate.perturbed_fraction() > rumor.perturbed_fraction());
    }

    #[test]
    fn all_datasets_skew_negative() {
        for c in curation_mix(3, 500) {
            let neg = c
                .docs
                .iter()
                .filter(|d| d.sentiment == Sentiment::Negative)
                .count() as f64
                / c.docs.len() as f64;
            assert!(neg > 0.5, "abuse corpora are negative-heavy: {neg}");
        }
    }

    #[test]
    fn curation_mix_has_three_distinct_corpora() {
        let mix = curation_mix(4, 50);
        assert_eq!(mix.len(), 3);
        assert_ne!(mix[0].docs, mix[1].docs);
        assert_ne!(mix[1].docs, mix[2].docs);
    }
}
