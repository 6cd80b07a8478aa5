//! The user-provided configuration file (paper §2.1: "the system can be
//! configured through a user-provided configuration file, which specifies
//! the set of components to use and the additional parameters ... passed to
//! these components"). The components themselves — extractor and connector
//! — are objects handed to the runners; the file carries their parameters.

use serde::{Deserialize, Serialize};

/// Worker counts per parallelisable stage. Missing fields in a config file
/// take their defaults, so older files without `connect` keep parsing;
/// unknown fields are errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct StageWorkers {
    pub check: usize,
    pub parse: usize,
    pub extract: usize,
    /// Resolve-phase workers of the split connector (the serial apply phase
    /// always runs on exactly one writer thread).
    pub connect: usize,
}

impl Default for StageWorkers {
    fn default() -> Self {
        StageWorkers {
            check: 1,
            parse: 2,
            extract: 4,
            connect: 2,
        }
    }
}

/// Fault injection for hardening tests. Not part of the configuration
/// file — it is skipped by (de)serialisation and only reachable from code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultInjection {
    /// Corrupt the payload of the Nth (0-based) message leaving the porter
    /// in serialize-transport mode, so downstream decoding fails and the
    /// message must take the quarantine path.
    pub corrupt_port_message: Option<usize>,
}

/// Full pipeline configuration. Missing fields take their defaults;
/// unknown fields are errors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct PipelineConfig {
    /// Checker threshold: minimum article text length.
    pub checker_min_text_len: usize,
    pub workers: StageWorkers,
    /// Bounded channel capacity between stages (backpressure).
    pub channel_capacity: usize,
    /// Serialise messages crossing stage boundaries to bytes, as a
    /// multi-host deployment would (§2.1 scalability ablation).
    pub serialize_transport: bool,
    /// Minimum CRF span confidence for NER mentions (the "threshold values
    /// for entity recognition" the paper's config file passes to components).
    /// Confidences are forward–backward marginals, which decode computes
    /// only when this is above 0; at 0 (the default) decode is Viterbi alone.
    pub ner_min_confidence: f64,
    /// Test-only fault injection; never read from or written to JSON.
    #[serde(skip)]
    pub fault: FaultInjection,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            checker_min_text_len: 40,
            workers: StageWorkers::default(),
            channel_capacity: 256,
            serialize_transport: false,
            ner_min_confidence: 0.0,
            fault: FaultInjection::default(),
        }
    }
}

impl PipelineConfig {
    /// Parse from a JSON configuration file's contents. Missing fields take
    /// their defaults; unknown fields (a misspelled key, or a removed one
    /// such as `extractor`) are rejected loudly rather than silently ignored.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Render as a JSON configuration file.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips() {
        let c = PipelineConfig::default();
        let back = PipelineConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn partial_config_fills_defaults() {
        let c = PipelineConfig::from_json(
            r#"{"checker_min_text_len": 60, "workers": {"check": 2, "parse": 2, "extract": 8}}"#,
        )
        .unwrap();
        assert_eq!(c.checker_min_text_len, 60);
        assert_eq!(c.workers.extract, 8);
        // `connect` is absent from the (older-style) file: default applies.
        assert_eq!(c.workers.connect, StageWorkers::default().connect);
        assert_eq!(
            c.channel_capacity,
            PipelineConfig::default().channel_capacity
        );
    }

    #[test]
    fn fault_injection_stays_out_of_the_config_file() {
        let mut c = PipelineConfig::default();
        c.fault.corrupt_port_message = Some(3);
        let json = c.to_json();
        assert!(!json.contains("fault"), "{json}");
        let back = PipelineConfig::from_json(&json).unwrap();
        assert_eq!(back.fault, FaultInjection::default());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(PipelineConfig::from_json("{\"serialize_transport\": \"Quantum\"}").is_err());
        assert!(PipelineConfig::from_json("not json").is_err());
    }

    #[test]
    fn unknown_keys_are_rejected() {
        for text in [
            r#"{"chanel_capacity": 8}"#,
            r#"{"extractor": "IocOnly"}"#,
            r#"{"connector": "Tabular"}"#,
            r#"{"workers": {"extract": 8, "resolve": 2}}"#,
        ] {
            let err = PipelineConfig::from_json(text).expect_err(text);
            assert!(err.to_string().contains("unknown field"), "{text}: {err}");
        }
        assert_eq!(
            PipelineConfig::from_json("{}").unwrap(),
            PipelineConfig::default()
        );
    }
}
