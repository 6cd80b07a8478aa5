//! SecurityKG — automated OSCTI gathering and management.
//!
//! The facade crate: wires the crawler, the extraction models, the staged
//! backend pipeline, the knowledge graph and the exploration UI backend into
//! one system, mirroring the paper's architecture (Figure 1):
//!
//! ```text
//! collection (kg-crawler over kg-corpus)
//!   → processing (kg-pipeline: porter/checker/parser/extractor)
//!   → storage (graph connector: kg-graph + kg-search)
//!   → applications (Explorer, Cypher, fusion, layout)
//! ```
//!
//! Typical use:
//!
//! ```
//! use securitykg::{SecurityKg, SystemConfig};
//!
//! let mut config = SystemConfig::default();
//! config.articles_per_source = 3;       // tiny corpus for the doctest
//! config.world.malware_count = 12;
//! config.world.actor_count = 6;
//! config.training.articles = 40;
//! let mut kg = SecurityKg::bootstrap(&config);
//! let report = kg.crawl_and_ingest();
//! assert!(report.reports_ingested > 0);
//! assert!(kg.graph().node_count() > 0);
//! let hits = kg.keyword_search("wannacry", 5);
//! let _ = hits; // tiny corpora may or may not mention the demo malware
//! ```

pub mod durable;
pub mod evalx;
pub mod explorer;
pub mod journal;
pub mod quality;
pub mod stix;
pub mod train;

// Re-export the subsystem crates so downstream users need a single
// dependency.
pub use kg_corpus as corpus;
pub use kg_crawler as crawler;
pub use kg_extract as extract;
pub use kg_fusion as fusion;
pub use kg_graph as graph;
pub use kg_hunting as hunting;
pub use kg_ir as ir;
pub use kg_layout as layout;
pub use kg_nlp as nlp;
pub use kg_ontology as ontology;
pub use kg_persist as persist;
pub use kg_pipeline as pipeline;
pub use kg_search as search;
pub use kg_serve as serve;

pub use durable::{
    graph_digest, open_store, run_durable, verify_dir, write_store, DurableOptions, DurableReport,
    RecoverSummary, StoredKg, DEFAULT_START_MS,
};
pub use evalx::{evaluate_ner, evaluate_relations, ExtractionScores};
pub use explorer::{Explorer, ViewNode, ViewSnapshot};
pub use journal::{replay, Journal, JournalError, JournalRecord, Replay};
pub use quality::{source_quality, QualityReport, VendorQuality};
pub use stix::{export_bundle, import_bundle};
pub use train::{collect_gold, train_ner, LabelSource, TrainedNer, TrainingConfig, TrainingPhases};

use kg_corpus::{standard_sources, FaultProfile, SimulatedWeb, World, WorldConfig};
use kg_crawler::{crawl_all, CrawlMetrics, CrawlState, CrawlerConfig};
use kg_fusion::{FusionConfig, FusionReport};
use kg_graph::{GraphStore, NodeId};
use kg_pipeline::{
    GraphConnector, IocOnlyExtractor, NerExtractor, ParserRegistry, PipelineConfig,
    PipelineMetrics, TraceEvent, TraceLog,
};
use kg_search::SearchIndex;
use std::sync::Arc;

/// Whole-system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The synthetic threat universe.
    pub world: WorldConfig,
    /// Articles per source in the simulated web.
    pub articles_per_source: usize,
    /// Web / generation seed.
    pub seed: u64,
    /// Injected fault rates layered on the simulated web (quiet by default;
    /// chaos runs turn them up).
    pub faults: FaultProfile,
    pub crawler: CrawlerConfig,
    pub pipeline: PipelineConfig,
    pub training: TrainingConfig,
    pub fusion: FusionConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            world: WorldConfig::default(),
            articles_per_source: 40,
            seed: 0x5ec_417,
            faults: FaultProfile::default(),
            crawler: CrawlerConfig::default(),
            pipeline: PipelineConfig::default(),
            training: TrainingConfig::default(),
            fusion: FusionConfig::default(),
        }
    }
}

/// The gazetteer baseline extractor (IOC scanner + exact matching over the
/// curated lists) for a given web — shared by [`SecurityKg`] and the durable
/// ingest driver, which needs extraction without CRF training.
pub(crate) fn gazetteer_extractor(
    web: &SimulatedWeb,
    training: &TrainingConfig,
) -> IocOnlyExtractor {
    let curated = web
        .world()
        .curated_lists(training.lf_coverage, training.seed);
    IocOnlyExtractor {
        baseline: Arc::new(kg_extract::RegexNerBaseline::new(vec![
            (kg_ontology::EntityKind::Malware, curated.malware),
            (kg_ontology::EntityKind::ThreatActor, curated.actors),
            (kg_ontology::EntityKind::Technique, curated.techniques),
            (kg_ontology::EntityKind::Tool, curated.tools),
            (kg_ontology::EntityKind::Software, curated.software),
        ])),
    }
}

/// Summary of one crawl-and-ingest round.
#[derive(Debug, Clone)]
pub struct IngestReport {
    pub crawl: CrawlMetrics,
    pub pipeline: PipelineMetrics,
    pub reports_ingested: usize,
}

/// The assembled SecurityKG system.
pub struct SecurityKg {
    config: SystemConfig,
    web: SimulatedWeb,
    crawl_state: CrawlState,
    registry: ParserRegistry,
    ner: Option<Arc<kg_extract::NerPipeline>>,
    connector: GraphConnector,
    /// Incremental epoch builder for O(delta) serving publishes; seeded
    /// lazily on the first [`SecurityKg::serving_snapshot_incremental`].
    epoch: Option<kg_serve::EpochBuilder>,
    /// Structured event log accumulated across ingest rounds.
    trace: TraceLog,
    /// Simulated clock for incremental crawls.
    pub now_ms: u64,
}

impl SecurityKg {
    /// Build the system: generate the world + web, train the extractor on
    /// the training slice of the corpus, and prepare an empty knowledge
    /// graph.
    pub fn bootstrap(config: &SystemConfig) -> Self {
        let world = World::generate(config.world.clone());
        let web = SimulatedWeb::with_faults(
            world,
            standard_sources(config.articles_per_source),
            config.seed,
            config.faults,
        );
        let trained = train_ner(&web, &config.training);
        let trace = TraceLog::new();
        let phases = trained.phases;
        trace.record(TraceEvent::NerTrained {
            analyze_us: phases.analyze_us,
            label_model_us: phases.label_model_us,
            embeddings_us: phases.embeddings_us,
            featurize_us: phases.featurize_us,
            train_us: phases.train_us,
        });
        let mut pipeline = trained.into_pipeline();
        pipeline.min_confidence = config.pipeline.ner_min_confidence;
        SecurityKg {
            config: config.clone(),
            web,
            crawl_state: CrawlState::new(),
            registry: ParserRegistry::new(),
            ner: Some(Arc::new(pipeline)),
            connector: GraphConnector::new(),
            epoch: None,
            trace,
            now_ms: u64::MAX / 4,
        }
    }

    /// Build without CRF training: extraction falls back to the IOC scanner
    /// plus exact gazetteer matching over the curated lists (the "naive
    /// regex-rule" configuration). Much faster to construct; used by tests
    /// and as the E3 baseline system.
    pub fn bootstrap_without_ner(config: &SystemConfig) -> Self {
        let world = World::generate(config.world.clone());
        let web = SimulatedWeb::with_faults(
            world,
            standard_sources(config.articles_per_source),
            config.seed,
            config.faults,
        );
        SecurityKg {
            config: config.clone(),
            web,
            crawl_state: CrawlState::new(),
            registry: ParserRegistry::new(),
            ner: None,
            connector: GraphConnector::new(),
            epoch: None,
            trace: TraceLog::new(),
            now_ms: u64::MAX / 4,
        }
    }

    /// The gazetteer baseline extractor over this web's curated lists.
    fn baseline_extractor(&self) -> IocOnlyExtractor {
        gazetteer_extractor(&self.web, &self.config.training)
    }

    /// The simulated web (for experiments needing ground truth).
    pub fn web(&self) -> &SimulatedWeb {
        &self.web
    }

    /// The trained NER pipeline, if any.
    pub fn ner(&self) -> Option<&Arc<kg_extract::NerPipeline>> {
        self.ner.as_ref()
    }

    /// Crawl every source incrementally and push everything new through the
    /// processing pipeline into the knowledge graph.
    pub fn crawl_and_ingest(&mut self) -> IngestReport {
        let (reports, crawl) = crawl_all(
            &self.web,
            &mut self.crawl_state,
            &self.config.crawler,
            self.now_ms,
        );
        self.trace.record(TraceEvent::IngestStarted {
            pages: reports.len(),
        });
        let connector = std::mem::take(&mut self.connector);
        let out = match &self.ner {
            Some(ner) => kg_pipeline::run_pipelined(
                reports,
                &self.registry,
                &NerExtractor {
                    pipeline: Arc::clone(ner),
                },
                connector,
                &self.config.pipeline,
            ),
            None => kg_pipeline::run_pipelined(
                reports,
                &self.registry,
                &self.baseline_extractor(),
                connector,
                &self.config.pipeline,
            ),
        };
        self.connector = out.connector;
        self.trace.absorb(&out.trace);
        self.trace.record(TraceEvent::IngestFinished {
            connected: out.metrics.connected,
            quarantined: out.metrics.quarantined,
            wall_us: out.metrics.wall_us,
        });
        IngestReport {
            crawl,
            reports_ingested: out.metrics.connected,
            pipeline: out.metrics,
        }
    }

    /// The accumulated structured event log (extractor training phases,
    /// pipeline stages, quarantines, ingest rounds).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Run the knowledge-fusion stage (§2.5) over the current graph.
    pub fn fuse(&mut self) -> FusionReport {
        kg_fusion::fuse(&mut self.connector.graph, &self.config.fusion)
    }

    /// The knowledge graph.
    pub fn graph(&self) -> &GraphStore {
        &self.connector.graph
    }

    /// Mutable access (applications layer).
    pub fn graph_mut(&mut self) -> &mut GraphStore {
        &mut self.connector.graph
    }

    /// The keyword index.
    pub fn search_index(&self) -> &SearchIndex<NodeId> {
        &self.connector.search
    }

    /// Find an entity node by name **or recorded alias** (fusion may have
    /// absorbed the queried name into a canonical sibling).
    pub fn find_entity(&self, label: &str, name: &str) -> Option<NodeId> {
        self.find_entity_lowered(label, &name.to_lowercase())
    }

    /// [`SecurityKg::find_entity`] with the name already lowercased, so
    /// per-label loops normalise the query once instead of once per kind.
    fn find_entity_lowered(&self, label: &str, name: &str) -> Option<NodeId> {
        if let Some(id) = self.connector.graph.node_by_name(label, name) {
            return Some(id);
        }
        self.connector
            .graph
            .nodes_with_label(label)
            .into_iter()
            .find(|&id| {
                match self
                    .connector
                    .graph
                    .node(id)
                    .and_then(|n| n.props.get("aliases"))
                {
                    Some(kg_graph::Value::List(xs)) => xs.iter().any(|v| v.as_text() == Some(name)),
                    _ => false,
                }
            })
    }

    /// Keyword search (Elasticsearch path in the paper's UI): returns
    /// matching *report* nodes plus the entity nodes they describe — the
    /// serving layer's composition, with a name lookup that also matches
    /// fused aliases.
    pub fn keyword_search(&self, query: &str, k: usize) -> Vec<NodeId> {
        let bm25 = self.connector.search.search(query, k);
        kg_serve::keyword_search(
            query,
            k,
            |label, name| self.find_entity_lowered(label, name),
            bm25.into_iter().map(|hit| hit.doc),
        )
    }

    /// Cypher query (Neo4j path in the paper's UI).
    pub fn cypher(
        &mut self,
        query: &str,
    ) -> Result<kg_graph::QueryResult, kg_graph::cypher::CypherError> {
        self.connector.graph.query(query)
    }

    /// Start an exploration session (the web UI backend).
    pub fn explorer(&self) -> Explorer<'_> {
        Explorer::new(self)
    }

    /// Freeze the current knowledge base into an immutable serving snapshot
    /// (`kg-serve`'s publication unit): graph + keyword index + expansion
    /// adjacency, stamped with the graph's canonical digest — the same
    /// fingerprint [`graph_digest`] computes, so serving epochs and durable
    /// snapshots are directly comparable. This is the O(graph) full rebuild;
    /// [`SecurityKg::serving_snapshot_incremental`] is the O(delta) path.
    pub fn serving_snapshot(&self) -> kg_serve::KgSnapshot {
        kg_serve::KgSnapshot::build(self.connector.graph.clone(), self.connector.search.clone())
    }

    /// Freeze a serving snapshot incrementally: digest and adjacency are
    /// carried forward from the previous freeze and patched with whatever
    /// ingestion touched since (O(delta)), and the graph/index clones are
    /// refcount bumps over `Arc`'d segments. The first call seeds the epoch
    /// builder with one full scan; digest-identical to
    /// [`SecurityKg::serving_snapshot`] at every state.
    pub fn serving_snapshot_incremental(&mut self) -> kg_serve::KgSnapshot {
        if self.epoch.is_none() {
            self.epoch = Some(kg_serve::EpochBuilder::new(&mut self.connector.graph));
        }
        self.epoch
            .as_mut()
            .expect("seeded above")
            .freeze(&mut self.connector.graph, &self.connector.search)
    }

    /// Register a standing-query hub on the live graph's delta log (its own
    /// cursor — independent of the epoch builder's). Pair with
    /// [`SecurityKg::serving_snapshot_incremental`]: subscriptions are
    /// evaluated against each publish's delta via
    /// [`SecurityKg::evaluate_subscriptions`], turning polling into push
    /// alerts.
    pub fn subscription_hub(&mut self) -> kg_serve::SubscriptionHub {
        kg_serve::SubscriptionHub::new(&mut self.connector.graph)
    }

    /// Evaluate `hub`'s standing queries over the delta sealed by `next`'s
    /// freeze, diffing each touched element between `prev` and `next`
    /// (O(delta × subscriptions)). Matches land in the subscribers'
    /// mailboxes; `SubscriptionMatched`/`MailboxOverflow` land on the
    /// system trace.
    pub fn evaluate_subscriptions(
        &mut self,
        hub: &kg_serve::SubscriptionHub,
        prev: &kg_serve::KgSnapshot,
        next: &kg_serve::KgSnapshot,
    ) -> kg_serve::DeliveryReport {
        hub.evaluate(&mut self.connector.graph, prev, next, Some(&self.trace))
    }

    /// Build a threat hunter from the knowledge graph (the paper's future
    /// work: knowledge-enhanced threat protection). Extracts a behaviour
    /// graph for every malware node with at least `min_indicators` IOC
    /// indicators.
    pub fn hunter(&self, min_indicators: usize) -> kg_hunting::Hunter {
        kg_hunting::Hunter::new(kg_hunting::behavior::behaviors_with_label(
            &self.connector.graph,
            kg_ontology::EntityKind::Malware.label(),
            min_indicators,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SystemConfig {
        SystemConfig {
            world: WorldConfig::tiny(7),
            articles_per_source: 4,
            training: TrainingConfig {
                articles: 60,
                ..TrainingConfig::default()
            },
            ..SystemConfig::default()
        }
    }

    #[test]
    fn end_to_end_build_query_fuse() {
        let mut kg = SecurityKg::bootstrap(&tiny_config());
        let events: Vec<TraceEvent> = kg.trace().snapshot().into_iter().map(|r| r.event).collect();
        assert!(
            matches!(events[..], [TraceEvent::NerTrained { train_us, .. }] if train_us > 0),
            "{events:?}"
        );
        let report = kg.crawl_and_ingest();
        assert!(report.reports_ingested > 0);
        assert!(kg.graph().node_count() > report.reports_ingested);
        assert!(kg.graph().edge_count() > 0);

        // Incremental second round: nothing new.
        let second = kg.crawl_and_ingest();
        assert_eq!(second.reports_ingested, 0);

        // Cypher works over the built graph.
        let result = kg
            .cypher("MATCH (v:CtiVendor)-[:PUBLISHES]->(r) RETURN count(*)")
            .unwrap();
        let published = result.rows[0][0].as_int().unwrap();
        assert_eq!(published as usize, report.reports_ingested);

        // Fusion runs and is idempotent.
        let f1 = kg.fuse();
        let f2 = kg.fuse();
        assert_eq!(f2.nodes_removed, 0);
        let _ = f1;
    }

    #[test]
    fn ingest_rounds_accumulate_in_the_trace() {
        let mut kg = SecurityKg::bootstrap_without_ner(&tiny_config());
        assert!(kg.trace().is_empty());
        let first = kg.crawl_and_ingest();
        let events: Vec<TraceEvent> = kg.trace().snapshot().into_iter().map(|r| r.event).collect();
        assert!(matches!(events[0], TraceEvent::IngestStarted { .. }));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::StageFinished { .. })));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::IngestFinished { connected, quarantined: 0, .. })
                if *connected == first.reports_ingested
        ));
        let after_first = kg.trace().total_recorded();
        // A second (empty) round still books-ends its events.
        kg.crawl_and_ingest();
        assert!(kg.trace().total_recorded() > after_first);
        assert!(!kg.trace().render_tail(5).is_empty());
    }

    #[test]
    fn serving_snapshot_matches_live_graph_and_digest() {
        let mut kg = SecurityKg::bootstrap_without_ner(&tiny_config());
        kg.crawl_and_ingest();
        let snap = kg.serving_snapshot();
        assert_eq!(snap.node_count(), kg.graph().node_count());
        assert_eq!(snap.edge_count(), kg.graph().edge_count());
        assert_eq!(
            snap.digest(),
            durable::graph_digest(kg.graph()),
            "serving digest must equal the durable graph digest"
        );
        // The incremental freeze agrees with the full rebuild, now and
        // after another ingest round mutates the graph.
        let inc = kg.serving_snapshot_incremental();
        assert_eq!(inc.digest(), snap.digest());
        assert_eq!(inc.mode(), kg_serve::SnapshotMode::Incremental);
        kg.crawl_and_ingest();
        let inc2 = kg.serving_snapshot_incremental();
        assert_eq!(inc2.digest(), kg.serving_snapshot().digest());
        assert_eq!(inc2.digest(), durable::graph_digest(kg.graph()));
        // The snapshot answers the same keyword query as the live system.
        let malware = kg.graph().nodes_with_label("Malware");
        assert!(!malware.is_empty());
        let name = kg
            .graph()
            .node(malware[0])
            .unwrap()
            .name()
            .unwrap()
            .to_owned();
        assert_eq!(snap.keyword_search(&name, 10), kg.keyword_search(&name, 10));
    }

    #[test]
    fn standing_queries_fire_across_ingest_rounds() {
        let mut kg = SecurityKg::bootstrap_without_ner(&tiny_config());
        let hub = kg.subscription_hub();
        let sub = hub.subscribe(
            kg_serve::WatchSpec::Node {
                label: Some("Malware".into()),
                predicate: None,
            },
            usize::MAX,
        );
        let prev = kg.serving_snapshot_incremental();
        kg.crawl_and_ingest();
        let next = kg.serving_snapshot_incremental();
        let report = kg.evaluate_subscriptions(&hub, &prev, &next);
        // Every malware node ingested this round appears exactly once, and
        // the incremental match set equals the full-rescan oracle.
        let malware = kg.graph().nodes_with_label("Malware");
        assert!(!malware.is_empty());
        let appeared: Vec<_> = sub
            .drain()
            .into_iter()
            .filter(|e| e.kind == kg_serve::MatchKind::Appeared)
            .map(|e| e.node)
            .collect();
        assert_eq!(appeared.len(), malware.len());
        assert_eq!(
            report.matches,
            kg_serve::rescan_matches(
                &kg_serve::WatchSpec::Node {
                    label: Some("Malware".into()),
                    predicate: None,
                },
                sub.id(),
                &prev,
                &next,
            )
        );
        assert!(kg.trace().snapshot().iter().any(|r| matches!(
            r.event,
            TraceEvent::SubscriptionMatched { matched, .. } if matched == appeared.len()
        )));
        // A quiet round fires nothing.
        kg.crawl_and_ingest();
        let next2 = kg.serving_snapshot_incremental();
        let report = kg.evaluate_subscriptions(&hub, &next, &next2);
        assert_eq!(report.matched, 0);
    }

    #[test]
    fn keyword_and_cypher_find_the_same_entity() {
        let mut config = tiny_config();
        config.articles_per_source = 12;
        let mut kg = SecurityKg::bootstrap_without_ner(&config);
        kg.crawl_and_ingest();
        // Find some malware that exists in the graph.
        let malware = kg.graph().nodes_with_label("Malware");
        assert!(!malware.is_empty());
        let name = kg
            .graph()
            .node(malware[0])
            .unwrap()
            .name()
            .unwrap()
            .to_owned();
        let keyword_hits = kg.keyword_search(&name, 10);
        assert!(keyword_hits.contains(&malware[0]), "{name}");
        let r = kg
            .cypher(&format!("match (n) where n.name = \"{name}\" return n"))
            .unwrap();
        assert_eq!(r.node_ids(), vec![malware[0]]);
    }
}
