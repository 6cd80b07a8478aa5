//! Persistence of a built knowledge base: the graph store plus the keyword
//! index, loadable without the web/world/extractor machinery — what a
//! deployment hands to the applications layer (UI server, CLI, hunting).

use kg_graph::{GraphStore, NodeId};
use kg_search::SearchIndex;
use serde::{Deserialize, Serialize};

/// A self-contained, queryable knowledge base.
#[derive(Serialize, Deserialize)]
pub struct KnowledgeBase {
    pub graph: GraphStore,
    pub search: SearchIndex<NodeId>,
}

impl KnowledgeBase {
    /// Serialise to JSON bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, serde_json::Error> {
        serde_json::to_vec(self)
    }

    /// Load from JSON bytes (graph indexes are rebuilt).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, serde_json::Error> {
        let mut kb: KnowledgeBase = serde_json::from_slice(bytes)?;
        // GraphStore's secondary indexes are #[serde(skip)]; rebuild in place.
        kb.graph.rebuild_after_load();
        Ok(kb)
    }

    /// Freeze this knowledge base into a `kg-serve` publication snapshot.
    pub fn into_serving(self) -> kg_serve::KgSnapshot {
        kg_serve::KgSnapshot::build(self.graph, self.search)
    }
}

impl crate::SecurityKg {
    /// Snapshot the built knowledge base (graph + keyword index).
    pub fn snapshot(&self) -> Result<Vec<u8>, serde_json::Error> {
        KnowledgeBase {
            graph: self.graph().clone(),
            search: self.search_index().clone(),
        }
        .to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SecurityKg, SystemConfig, TrainingConfig};
    use kg_corpus::WorldConfig;

    #[test]
    fn snapshot_round_trips_and_stays_queryable() {
        let config = SystemConfig {
            world: WorldConfig::tiny(4),
            articles_per_source: 6,
            training: TrainingConfig {
                articles: 30,
                ..TrainingConfig::default()
            },
            ..SystemConfig::default()
        };
        let mut kg = SecurityKg::bootstrap_without_ner(&config);
        kg.crawl_and_ingest();
        let bytes = kg.snapshot().unwrap();
        let kb = KnowledgeBase::from_bytes(&bytes).unwrap();
        assert_eq!(kb.graph.node_count(), kg.graph().node_count());

        // Read-only Cypher works on the restored graph.
        let r = kb
            .graph
            .query_readonly("MATCH (n:CtiVendor) RETURN count(*)")
            .unwrap();
        assert!(r.rows[0][0].as_int().unwrap() > 0);

        // Keyword search works on the restored index, through the snapshot
        // the KB serves from.
        let malware = kb.graph.nodes_with_label("Malware");
        assert!(!malware.is_empty());
        let name = kb
            .graph
            .node(malware[0])
            .unwrap()
            .name()
            .unwrap()
            .to_owned();
        let snapshot = kb.into_serving();
        assert!(snapshot.keyword_search(&name, 5).contains(&malware[0]));
    }

    #[test]
    fn garbage_bytes_error() {
        assert!(KnowledgeBase::from_bytes(b"not json").is_err());
    }
}
