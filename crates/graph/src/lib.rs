//! An embedded property-graph database with a Cypher-subset query engine —
//! the storage backend of the security knowledge graph (paper §2.5, replacing
//! Neo4j per the substitution table in DESIGN.md).
//!
//! - [`value`] — the property value model and its ordering/comparison rules.
//! - [`store`] — the graph store: nodes, directed typed edges, label and
//!   `(label, name)` indexes, exact-description `MERGE` semantics, adjacency
//!   queries, JSON persistence.
//! - [`cypher`] — a Cypher subset: `MATCH` patterns with labels, property
//!   maps and typed directed relationships; `WHERE` expressions; `RETURN`
//!   projections with `count(...)`, `ORDER BY`, `SKIP`, `LIMIT`; plus
//!   `CREATE`, `MERGE` and `DETACH DELETE`.
//!
//! The demo query from the paper's §3 runs verbatim:
//!
//! ```
//! use kg_graph::{GraphStore, Value};
//! let mut g = GraphStore::new();
//! g.create_node("Malware", [("name", Value::from("wannacry"))]);
//! let result = g.query("match (n) where n.name = \"wannacry\" return n").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

pub mod cypher;
pub mod snapshot;
pub mod store;
pub mod value;

pub use cypher::{parse, CompiledNodePredicate, CompiledPlan, Params, QueryResult, ScatterRow};
pub use snapshot::GraphSnapshot;
pub use store::{
    canon_shard, edge_digest, id_shard, node_digest, node_shard, terms_hashed_on_this_thread,
    DeltaBatch, DeltaCursor, Edge, EdgeId, GraphChanges, GraphStore, Node, NodeId, SegmentTerms,
    StoreError, DIGEST_SEED,
};
pub use value::Value;
