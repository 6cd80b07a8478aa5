//! Training the extraction models (paper §2.4).
//!
//! The CRF is trained on annotations synthesised by data programming over
//! curated entity lists — no manual labels. Features include word
//! embeddings trained on the crawled corpus itself, discretised into k-means
//! cluster ids.

use kg_corpus::{GoldReport, SimulatedWeb};
use kg_extract::crf::{Crf, CrfConfig, Example};
use kg_extract::features::{FeatureConfig, FeatureMap, Featurizer, Gazetteer};
use kg_extract::labeling::{standard_lfs, LabelModel};
use kg_extract::LabelSet;
use kg_nlp::{
    analyze, AnalyzedSentence, EmbeddingConfig, Embeddings, IocMatcher, KMeans, PosTagger,
};
use std::time::Instant;

/// Where the training labels come from (the E3 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelSource {
    /// Data programming with the EM label model (the paper's approach).
    DataProgramming,
    /// Majority vote over labeling functions (no label model).
    MajorityVote,
    /// Oracle gold labels (upper bound; impossible on the real web).
    Gold,
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Number of training articles sampled round-robin across sources.
    pub articles: usize,
    /// Fraction of world entity names present on the curated lists.
    pub lf_coverage: f64,
    pub label_source: LabelSource,
    pub features: FeatureConfig,
    pub crf: CrfConfig,
    pub embeddings: EmbeddingConfig,
    /// k for the embedding-cluster feature (0 disables).
    pub clusters: usize,
    /// Also expose the curated lists to the CRF as gazetteer features.
    pub gazetteer_features: bool,
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            articles: 400,
            lf_coverage: 0.8,
            label_source: LabelSource::DataProgramming,
            features: FeatureConfig::default(),
            crf: CrfConfig::default(),
            embeddings: EmbeddingConfig {
                epochs: 2,
                ..EmbeddingConfig::default()
            },
            clusters: 24,
            gazetteer_features: true,
            seed: 0x7241,
        }
    }
}

/// A trained NER model plus the featurizer it must be decoded with.
pub struct TrainedNer {
    pub crf: Crf,
    pub featurizer: Featurizer,
    /// Learned labeling-function accuracies (diagnostics; empty for
    /// gold-label training).
    pub lf_accuracies: Vec<(String, f64)>,
    /// Where the training time went.
    pub phases: TrainingPhases,
}

/// Wall time of each [`train_ner`] phase, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainingPhases {
    /// Collecting the training reports and analysing them into sentences.
    pub analyze_us: u64,
    /// Labeling functions and the label model (or the vote, or gold).
    pub label_model_us: u64,
    /// Word embeddings, their k-means clusters and the gazetteers.
    pub embeddings_us: u64,
    /// Interning every sentence's features.
    pub featurize_us: u64,
    /// CRF training.
    pub train_us: u64,
}

impl TrainedNer {
    /// Wrap into the full extraction pipeline.
    pub fn into_pipeline(self) -> kg_extract::NerPipeline {
        kg_extract::NerPipeline::new(self.crf, self.featurizer)
    }
}

/// Collect gold reports by article index range, round-robin across sources
/// (ads skipped). `which(i)` filters article indices, so training and
/// evaluation can use disjoint slices (e.g. even vs odd).
pub fn collect_gold(
    web: &SimulatedWeb,
    max_reports: usize,
    which: impl Fn(usize) -> bool,
) -> Vec<GoldReport> {
    let mut out = Vec::new();
    let max_articles = web
        .sources()
        .iter()
        .map(|s| s.article_count)
        .max()
        .unwrap_or(0);
    'outer: for article in 0..max_articles {
        if !which(article) {
            continue;
        }
        for source in web.sources() {
            if article >= source.article_count {
                continue;
            }
            if let Some(gold) = web.gold(&source.name, article) {
                out.push(gold);
                if out.len() >= max_reports {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// Analyse a gold report's text into sentences.
pub fn analyze_gold(
    gold: &GoldReport,
    matcher: &IocMatcher,
    tagger: &PosTagger,
) -> Vec<AnalyzedSentence> {
    analyze(&gold.text, matcher, tagger)
}

/// Gold BIO label ids for one analysed sentence.
pub fn gold_labels(
    gold: &GoldReport,
    sentence: &AnalyzedSentence,
    labels: &LabelSet,
) -> Vec<kg_extract::LabelId> {
    let spans: Vec<(usize, usize)> = sentence.tokens.iter().map(|t| (t.start, t.end)).collect();
    let tags = kg_corpus::bio_tags(&gold.mentions, &spans);
    tags.iter()
        .map(|t| labels.id(t).unwrap_or(LabelSet::O))
        .collect()
}

/// Train the NER model on the web's training slice (even article indices).
pub fn train_ner(web: &SimulatedWeb, config: &TrainingConfig) -> TrainedNer {
    let mut phase_start = Instant::now();
    let mut lap = || {
        let now = Instant::now();
        let us = now.duration_since(phase_start).as_micros() as u64;
        phase_start = now;
        us
    };
    let matcher = IocMatcher::standard();
    let tagger = PosTagger::standard();
    let labels = LabelSet::standard();

    let gold_reports = collect_gold(web, config.articles, |i| i % 2 == 0);

    // Analyse all training sentences (and remember their source report for
    // gold-label training).
    let mut sentences: Vec<AnalyzedSentence> = Vec::new();
    let mut sentence_gold: Vec<usize> = Vec::new();
    for (ri, gold) in gold_reports.iter().enumerate() {
        for s in analyze_gold(gold, &matcher, &tagger) {
            sentences.push(s);
            sentence_gold.push(ri);
        }
    }
    let analyze_us = lap();

    // Labels.
    let curated = web.world().curated_lists(config.lf_coverage, config.seed);
    let lfs = standard_lfs(
        curated.malware.clone(),
        curated.actors.clone(),
        curated.techniques.clone(),
        curated.tools.clone(),
        curated.software.clone(),
    );
    let (label_seqs, lf_accuracies) = match config.label_source {
        LabelSource::DataProgramming => {
            let (model, seqs) = LabelModel::fit(&lfs, &sentences, &labels, 10);
            let acc = model
                .names()
                .iter()
                .cloned()
                .zip(model.accuracies().iter().copied())
                .collect();
            (seqs, acc)
        }
        LabelSource::MajorityVote => (
            LabelModel::majority_vote(&lfs, &sentences, &labels),
            Vec::new(),
        ),
        LabelSource::Gold => {
            let seqs = sentences
                .iter()
                .zip(&sentence_gold)
                .map(|(s, &ri)| gold_labels(&gold_reports[ri], s, &labels))
                .collect();
            (seqs, Vec::new())
        }
    };
    let label_model_us = lap();

    // Embedding features.
    let mut featurizer = Featurizer::new(config.features.clone());
    if config.clusters > 0 && config.features.clusters {
        let token_corpus: Vec<Vec<String>> = sentences
            .iter()
            .map(|s| s.tokens.iter().map(|t| t.text.to_lowercase()).collect())
            .collect();
        let embeddings = Embeddings::train(&token_corpus, &config.embeddings);
        featurizer.clusters = Some(KMeans::fit(&embeddings, config.clusters, 25, config.seed));
    }
    if config.gazetteer_features && config.features.gazetteers {
        featurizer.gazetteers = vec![
            Gazetteer::new("malware", curated.malware),
            Gazetteer::new("actor", curated.actors),
            Gazetteer::new("technique", curated.techniques),
            Gazetteer::new("tool", curated.tools),
            Gazetteer::new("software", curated.software),
        ];
    }
    let embeddings_us = lap();

    // Featurize + train.
    let mut map = FeatureMap::default();
    let examples: Vec<Example> = sentences
        .iter()
        .zip(label_seqs)
        .map(|(s, labels)| Example {
            features: featurizer.features_interned(s, &mut map),
            labels,
        })
        .collect();
    let featurize_us = lap();
    let crf = Crf::train(labels, map, &examples, &config.crf);
    let train_us = lap();
    TrainedNer {
        crf,
        featurizer,
        lf_accuracies,
        phases: TrainingPhases {
            analyze_us,
            label_model_us,
            embeddings_us,
            featurize_us,
            train_us,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_corpus::{standard_sources, SimulatedWeb, World, WorldConfig};

    fn web() -> SimulatedWeb {
        SimulatedWeb::new(
            World::generate(WorldConfig::tiny(5)),
            standard_sources(10),
            9,
        )
    }

    #[test]
    fn collect_gold_respects_filter_and_cap() {
        let web = web();
        let even = collect_gold(&web, 30, |i| i % 2 == 0);
        assert_eq!(even.len(), 30);
        let odd = collect_gold(&web, 30, |i| i % 2 == 1);
        let even_keys: std::collections::HashSet<&str> =
            even.iter().map(|g| g.key.as_str()).collect();
        for o in &odd {
            assert!(
                !even_keys.contains(o.key.as_str()),
                "train/test slices must be disjoint"
            );
        }
    }

    #[test]
    fn gold_labels_align_with_tokens() {
        let web = web();
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        let labels = LabelSet::standard();
        let gold = collect_gold(&web, 5, |_| true);
        for g in &gold {
            for s in analyze_gold(g, &matcher, &tagger) {
                let seq = gold_labels(g, &s, &labels);
                assert_eq!(seq.len(), s.tokens.len());
            }
        }
    }

    #[test]
    fn training_produces_a_usable_model() {
        let web = web();
        let config = TrainingConfig {
            articles: 60,
            crf: CrfConfig {
                epochs: 4,
                ..CrfConfig::default()
            },
            clusters: 8,
            ..TrainingConfig::default()
        };
        let trained = train_ner(&web, &config);
        assert!(!trained.lf_accuracies.is_empty());
        let pipeline = trained.into_pipeline();
        // The model must at least find IOCs and some named entity in a
        // corpus-like sentence.
        let mentions =
            pipeline.mentions("the wannacry ransomware dropped tasksche.exe on the host.");
        assert!(mentions
            .iter()
            .any(|m| m.kind == kg_ontology::EntityKind::FileName));
        assert!(
            mentions
                .iter()
                .any(|m| m.kind == kg_ontology::EntityKind::Malware),
            "{mentions:?}"
        );
    }
}
