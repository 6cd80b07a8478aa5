//! The immutable published snapshot readers query against.
//!
//! A [`KgSnapshot`] owns a frozen copy of the graph, the BM25 index and a
//! precomputed adjacency table (the explorer's expansion structure), plus the
//! graph's canonical digest. Once built it is never mutated — readers share
//! it via `Arc` and every answer it produces is consistent with exactly this
//! one graph state, whatever the ingest writer does meanwhile.

use crate::read::ReadView;
use kg_graph::cypher::CypherError;
use kg_graph::store::{Edge, EdgeId, Node};
use kg_graph::{parse, CompiledPlan, GraphSnapshot, GraphStore, NodeId, QueryResult, Value};
use kg_search::SearchIndex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How a snapshot was frozen: full rebuild (the oracle) or incrementally
/// via [`crate::EpochBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Digest and adjacency recomputed from scratch ([`KgSnapshot::build`]).
    Full,
    /// Digest and adjacency carried forward and patched with the delta.
    Incremental,
}

impl SnapshotMode {
    /// Stable lowercase label for traces and stats output.
    pub fn label(&self) -> &'static str {
        match self {
            SnapshotMode::Full => "full",
            SnapshotMode::Incremental => "incremental",
        }
    }
}

/// An immutable, self-contained read snapshot of the knowledge base.
pub struct KgSnapshot {
    /// Publish sequence number, assigned by [`crate::KgServe::publish`]
    /// (0 until published).
    version: u64,
    /// The graph's content digest — `GraphStore::digest()`, the same
    /// commutative per-element fingerprint `securitykg::graph_digest`
    /// computes, so serving and durable-ingest snapshots are comparable.
    digest: u64,
    graph: GraphStore,
    search: SearchIndex<NodeId>,
    /// node → distinct neighbours (both directions, edge order) — the
    /// explorer's expansion adjacency, precomputed once per snapshot so
    /// k-hop expansion never walks edge lists under load. Lists are `Arc`'d:
    /// the incremental builder re-freezes only delta-touched entries.
    adjacency: HashMap<NodeId, Arc<Vec<NodeId>>>,
    /// Wall time spent freezing this snapshot, microseconds.
    build_us: u64,
    /// Full rebuild or incremental patch.
    mode: SnapshotMode,
}

/// A normalized serving query: the three read paths of the paper's UI
/// (§2.6 — Elasticsearch keyword search, Neo4j Cypher, node expansion).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// BM25 keyword search (plus direct entity-name hits), top `k`.
    Search { q: String, k: usize },
    /// Read-only Cypher.
    Cypher { q: String },
    /// k-hop neighbourhood of the entity named `name` (any entity label),
    /// capped at `cap` nodes.
    Expand {
        name: String,
        hops: usize,
        cap: usize,
    },
}

impl Query {
    /// Canonical cache-key text: whitespace collapsed, parameters embedded,
    /// search terms lowercased (the tokenizer lowercases anyway). Two
    /// queries with the same key have the same answer on a given snapshot.
    pub fn cache_key(&self) -> String {
        match self {
            Query::Search { q, k } => format!("s:{k}:{}", normalize(q).to_lowercase()),
            Query::Cypher { q } => format!("c:{}", normalize(q)),
            Query::Expand { name, hops, cap } => {
                format!("x:{hops}:{cap}:{}", normalize(name).to_lowercase())
            }
        }
    }
}

/// Collapse runs of whitespace to single spaces and trim the ends.
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for word in text.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    out
}

/// `fnv1a64(normalize(text))`, streamed word by word without building the
/// normalized text.
pub(crate) fn normalized_hash(text: &str) -> u64 {
    let mut words = text.split_whitespace();
    let first = kg_ir::fnv1a64(words.next().unwrap_or_default().as_bytes());
    words.fold(first, |h, word| {
        kg_ir::fnv1a64_extend(kg_ir::fnv1a64_extend(h, b" "), word.as_bytes())
    })
}

/// `normalize(a) == normalize(b)`, compared in place.
pub(crate) fn same_normalized(a: &str, b: &str) -> bool {
    a.split_whitespace().eq(b.split_whitespace())
}

/// What a query evaluates to. `Error` is an answer too: a malformed Cypher
/// query fails identically on every snapshot with the same digest, so it is
/// cacheable like any other result.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Node ids (search and expand paths).
    Nodes(Vec<NodeId>),
    /// A Cypher projection.
    Rows {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
    /// A query-level failure (parse/execution error), rendered.
    Error(String),
}

impl Answer {
    /// Every node id referenced by the answer (for consistency checks).
    pub fn node_ids(&self) -> Vec<NodeId> {
        match self {
            Answer::Nodes(ids) => ids.clone(),
            Answer::Rows { rows, .. } => {
                let mut out = Vec::new();
                for row in rows {
                    for value in row {
                        if let Value::Node(id) = value {
                            if !out.contains(id) {
                                out.push(*id);
                            }
                        }
                    }
                }
                out
            }
            Answer::Error(_) => Vec::new(),
        }
    }
}

/// A Cypher result as an answer: the projection, or the rendered error.
impl From<Result<QueryResult, CypherError>> for Answer {
    fn from(result: Result<QueryResult, CypherError>) -> Answer {
        match result {
            Ok(result) => Answer::Rows {
                columns: result.columns,
                rows: result.rows,
            },
            Err(e) => Answer::Error(e.to_string()),
        }
    }
}

impl KgSnapshot {
    /// Freeze a graph + index pair into a publishable snapshot: computes the
    /// canonical digest and the expansion adjacency from scratch. This is
    /// the O(graph) path — the correctness oracle the incremental
    /// [`crate::EpochBuilder`] is proven against.
    pub fn build(graph: GraphStore, search: SearchIndex<NodeId>) -> KgSnapshot {
        let start = Instant::now();
        let digest = graph.digest();
        let adjacency = graph
            .all_nodes()
            .map(|node| (node.id, Arc::new(graph.neighbors(node.id))))
            .collect();
        KgSnapshot {
            version: 0,
            digest,
            graph,
            search,
            adjacency,
            build_us: start.elapsed().as_micros() as u64,
            mode: SnapshotMode::Full,
        }
    }

    /// Assemble a snapshot from components an [`crate::EpochBuilder`]
    /// maintained incrementally.
    pub(crate) fn from_parts(
        graph: GraphStore,
        search: SearchIndex<NodeId>,
        adjacency: HashMap<NodeId, Arc<Vec<NodeId>>>,
        digest: u64,
        build_us: u64,
    ) -> KgSnapshot {
        KgSnapshot {
            version: 0,
            digest,
            graph,
            search,
            adjacency,
            build_us,
            mode: SnapshotMode::Incremental,
        }
    }

    pub(crate) fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Publish sequence number (0 until published).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Canonical graph digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Wall time spent freezing this snapshot, microseconds.
    pub fn build_us(&self) -> u64 {
        self.build_us
    }

    /// How this snapshot was frozen.
    pub fn mode(&self) -> SnapshotMode {
        self.mode
    }

    /// The precomputed expansion adjacency of one node (empty when the node
    /// has no edges or does not exist). Exposed so equivalence tests can
    /// compare incremental against full-rebuilt tables entry by entry.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.adjacency.get(&id).map_or(&[][..], |v| v.as_slice())
    }

    /// Number of adjacency entries (one per live node at freeze time).
    pub fn adjacency_len(&self) -> usize {
        self.adjacency.len()
    }

    /// The frozen graph.
    pub fn graph(&self) -> &GraphStore {
        &self.graph
    }

    /// The frozen keyword index.
    pub fn search_index(&self) -> &SearchIndex<NodeId> {
        &self.search
    }

    /// Live nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Live edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Keyword search: direct entity-name hits first, then BM25 hits —
    /// the composition every read view shares ([`crate::keyword_search`]).
    pub fn keyword_search(&self, query: &str, k: usize) -> Vec<NodeId> {
        crate::keyword_search(query, k, |l, n| self.by_name(l, n), self.bm25(query, k))
    }

    /// Evaluate a [`Query`] fresh against this snapshot (no cache; Cypher
    /// compiled here — the serving layer's [`crate::PlanCache`] is the
    /// plan-reusing path).
    pub fn answer(&self, query: &Query) -> Answer {
        crate::read::answer(
            self,
            |q| Ok(Arc::new(CompiledPlan::compile(&parse(q)?)?)),
            query,
        )
    }
}

/// Compiled plans bind directly to the frozen snapshot. Everything
/// delegates to the frozen graph except [`GraphSnapshot::khop_adjacency`],
/// which serves the precomputed expansion adjacency — so var-length
/// patterns (`-[*1..k]-`) walk the frozen table instead of per-edge
/// records.
impl GraphSnapshot for KgSnapshot {
    fn node(&self, id: NodeId) -> Option<&Node> {
        self.graph.node(id)
    }

    fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.graph.edge(id)
    }

    fn out_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        self.graph.out_edge_ids(id)
    }

    fn in_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        self.graph.in_edge_ids(id)
    }

    fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
        self.graph.nodes_with_label(label)
    }

    fn node_by_name(&self, label: &str, name: &str) -> Option<NodeId> {
        self.graph.node_by_name(label, name)
    }

    fn all_node_ids(&self) -> Vec<NodeId> {
        self.graph.all_nodes().map(|n| n.id).collect()
    }

    fn nodes_with_prop_eq(&self, key: &str, value: &Value) -> Option<Vec<NodeId>> {
        self.graph.nodes_with_prop_eq(key, value)
    }

    fn khop_adjacency(&self, id: NodeId) -> Option<&[NodeId]> {
        self.adjacency.get(&id).map(|a| a.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_graph::Value;

    fn snapshot() -> KgSnapshot {
        let mut graph = GraphStore::new();
        let m = graph.create_node("Malware", [("name", Value::from("wannacry"))]);
        let f = graph.create_node("FileName", [("name", Value::from("tasksche.exe"))]);
        let d = graph.create_node("Domain", [("name", Value::from("kill.switch.test"))]);
        graph
            .create_edge(m, "DROP", f, [] as [(&str, Value); 0])
            .unwrap();
        graph
            .create_edge(m, "CONNECTS_TO", d, [] as [(&str, Value); 0])
            .unwrap();
        let mut search = SearchIndex::default();
        search.add(m, "wannacry ransomware drops tasksche.exe");
        search.add(f, "tasksche.exe dropped file");
        KgSnapshot::build(graph, search)
    }

    #[test]
    fn digest_matches_canonical_graph_digest() {
        let snap = snapshot();
        assert_eq!(snap.digest(), snap.graph().digest());
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.mode(), SnapshotMode::Full);
        assert_eq!(snap.mode().label(), "full");
        // One adjacency entry per live node, matching the live graph.
        assert_eq!(snap.adjacency_len(), snap.node_count());
        for node in snap.graph().all_nodes() {
            assert_eq!(snap.neighbors(node.id), snap.graph().neighbors(node.id));
        }
    }

    #[test]
    fn keyword_search_prefers_named_entity() {
        let snap = snapshot();
        let m = snap.graph().node_by_name("Malware", "wannacry").unwrap();
        let hits = snap.keyword_search("wannacry", 5);
        assert_eq!(hits.first(), Some(&m));
    }

    #[test]
    fn answers_cover_all_query_kinds() {
        let snap = snapshot();
        let m = snap.graph().node_by_name("Malware", "wannacry").unwrap();
        assert_eq!(
            snap.answer(&Query::Search {
                q: "wannacry".into(),
                k: 5
            })
            .node_ids()
            .first(),
            Some(&m)
        );
        match snap.answer(&Query::Cypher {
            q: "MATCH (n:Malware) RETURN n".into(),
        }) {
            Answer::Rows { rows, .. } => assert_eq!(rows.len(), 1),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            snap.answer(&Query::Cypher {
                q: "NOT CYPHER".into()
            }),
            Answer::Error(_)
        ));
        assert_eq!(
            snap.answer(&Query::Expand {
                name: "WannaCry".into(),
                hops: 1,
                cap: 10
            })
            .node_ids()
            .len(),
            3
        );
    }

    #[test]
    fn cache_keys_normalize_whitespace_and_case() {
        let a = Query::Search {
            q: "  WannaCry   ransomware ".into(),
            k: 5,
        };
        let b = Query::Search {
            q: "wannacry ransomware".into(),
            k: 5,
        };
        assert_eq!(a.cache_key(), b.cache_key());
        let c = Query::Cypher {
            q: "MATCH (n)  RETURN n".into(),
        };
        let d = Query::Cypher {
            q: "MATCH (n) RETURN n".into(),
        };
        assert_eq!(c.cache_key(), d.cache_key());
        // Cypher string literals stay case-sensitive.
        assert_ne!(
            Query::Cypher {
                q: "MATCH (n {name: 'A'}) RETURN n".into()
            }
            .cache_key(),
            Query::Cypher {
                q: "MATCH (n {name: 'a'}) RETURN n".into()
            }
            .cache_key()
        );
    }
}
