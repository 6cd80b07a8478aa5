//! Security knowledge extraction (paper §2.4).
//!
//! The source-independent extractors: given report text, produce entity and
//! relation mentions for the unified CTI representation.
//!
//! - [`label`] — the BIO label space over ontology entity kinds.
//! - [`features`] — feature templates for the sequence models (word shape,
//!   lemma, POS, affixes, IOC class, gazetteers, embedding clusters).
//! - [`crf`] — a linear-chain Conditional Random Field trained by SGD on the
//!   log-likelihood, decoded with Viterbi (the paper's model choice).
//! - [`labeling`] — data programming: labeling functions over curated lists
//!   plus a generative label model fit by EM, used to synthesise training
//!   annotations programmatically (Ratner et al., as cited by the paper).
//! - [`ner`] — the full NER pipeline (IOC scanner + sequence model) and the
//!   regex/gazetteer baseline the paper claims to outperform.
//! - [`relation`] — shallow-parse SVO relation extraction between recognised
//!   entities, with passive-voice inversion and coordination handling.
//! - [`metrics`] — precision / recall / F1 for spans and relations.

pub mod crf;
pub mod features;
pub mod label;
pub mod labeling;
pub mod metrics;
pub mod ner;
pub mod relation;

pub use crf::{Crf, CrfConfig};
pub use features::{FeatureConfig, Featurizer};
pub use label::{LabelId, LabelSet};
pub use labeling::{LabelModel, LabelingFunction, Lf};
pub use metrics::{Prf, SpanMatch};
pub use ner::{NerPipeline, RegexNerBaseline};
pub use relation::{extract_relations, ExtractedRelation};
