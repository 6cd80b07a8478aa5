//! The three read paths of the paper's UI (§2.6 — keyword search, Cypher,
//! node expansion), written once. A [`ReadView`] is what a path needs from
//! the state it answers from; a whole [`KgSnapshot`] is the N = 1 view and
//! a pinned vector of shard snapshots the N-shard view, so [`answer`] is
//! the only place a [`Query`] turns into an [`Answer`].

use crate::shard::{ShardDoc, ShardSnapshot};
use crate::snapshot::{Answer, KgSnapshot, Query};
use kg_graph::cypher::CypherError;
use kg_graph::{canon_shard, CompiledPlan, GraphSnapshot, NodeId, Params, ScatterRow};
use kg_search::{CorpusStats, Hit, SearchIndex};
use std::collections::HashSet;
use std::sync::Arc;

/// The lookups the read paths are built from.
pub(crate) trait ReadView {
    /// `(label, lowercased name)` point lookup.
    fn by_name(&self, label: &str, name: &str) -> Option<NodeId>;
    /// A live node's expansion neighbours; `None` when the view does not
    /// hold the node.
    fn adjacency(&self, id: NodeId) -> Option<&[NodeId]>;
    /// BM25 top-`k` document subjects for `query`, best first.
    fn bm25(&self, query: &str, k: usize) -> Vec<NodeId>;
    /// Every scatter row of `plan` over the view, each from the snapshot
    /// owning its anchor.
    fn scatter(&self, plan: &CompiledPlan) -> Result<Vec<ScatterRow>, CypherError>;
}

/// Evaluate `query` against `view`; Cypher text is compiled by `plan`
/// (a plan cache, or a fresh compile).
pub(crate) fn answer(
    view: &(impl ReadView + ?Sized),
    plan: impl FnOnce(&str) -> Result<Arc<CompiledPlan>, CypherError>,
    query: &Query,
) -> Answer {
    match query {
        Query::Search { q, k } => Answer::Nodes(keyword_search(
            q,
            *k,
            |label, name| view.by_name(label, name),
            view.bm25(q, *k),
        )),
        Query::Cypher { q } => {
            Answer::from(plan(q).and_then(|plan| Ok(plan.gather(view.scatter(&plan)?))))
        }
        Query::Expand { name, hops, cap } => {
            let lowered = name.to_lowercase();
            let start = kg_ontology::EntityKind::ALL
                .iter()
                .find_map(|kind| view.by_name(kind.label(), &lowered));
            Answer::Nodes(start.map_or_else(Vec::new, |start| {
                expand(start, *hops, *cap, |id| view.adjacency(id))
            }))
        }
    }
}

/// Keyword search: the entity named by the query under each entity label
/// (`by_name` gets the label and the lowercased query) first, then the
/// `bm25` hits, without duplicates, truncated to `max(k, 1)`.
pub fn keyword_search(
    query: &str,
    k: usize,
    by_name: impl Fn(&str, &str) -> Option<NodeId>,
    bm25: impl IntoIterator<Item = NodeId>,
) -> Vec<NodeId> {
    let lowered = query.to_lowercase();
    let named = kg_ontology::EntityKind::ALL
        .iter()
        .filter_map(|kind| by_name(kind.label(), &lowered));
    let bm25 = bm25.into_iter();
    // Room for every candidate the answer can keep, allocated once.
    let room = k
        .max(1)
        .min(kg_ontology::EntityKind::ALL.len() + bm25.size_hint().0);
    let mut out = Vec::with_capacity(room);
    for id in named.chain(bm25) {
        if !out.contains(&id) {
            out.push(id);
        }
    }
    out.truncate(k.max(1));
    out
}

/// BFS from `start`: `start` plus everything within `hops`, in BFS order,
/// capped at `cap` nodes — empty when `neighbors` does not hold `start`.
fn expand<'a>(
    start: NodeId,
    hops: usize,
    cap: usize,
    neighbors: impl Fn(NodeId) -> Option<&'a [NodeId]>,
) -> Vec<NodeId> {
    let mut out = Vec::new();
    if neighbors(start).is_none() || cap == 0 {
        return out;
    }
    let mut frontier = vec![start];
    let mut seen: HashSet<NodeId> = [start].into_iter().collect();
    out.push(start);
    for _ in 0..hops {
        let mut next = Vec::new();
        for &node in &frontier {
            for &neighbor in neighbors(node).unwrap_or_default() {
                if out.len() >= cap {
                    return out;
                }
                if seen.insert(neighbor) {
                    out.push(neighbor);
                    next.push(neighbor);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    out
}

/// N = 1: the whole frozen graph, index and adjacency.
impl ReadView for KgSnapshot {
    fn by_name(&self, label: &str, name: &str) -> Option<NodeId> {
        self.graph().node_by_name(label, name)
    }

    fn adjacency(&self, id: NodeId) -> Option<&[NodeId]> {
        self.khop_adjacency(id)
    }

    fn bm25(&self, query: &str, k: usize) -> Vec<NodeId> {
        let hits = self.search_index().search(query, k);
        hits.into_iter().map(|hit| hit.doc).collect()
    }

    fn scatter(&self, plan: &CompiledPlan) -> Result<Vec<ScatterRow>, CypherError> {
        plan.scatter_on(self, &Params::new(), &|_| true)
    }
}

/// N pinned shards: a name resolves on the shard its canon key routes to,
/// a node's neighbours on the shard owning it, BM25 scores every partition
/// with the merged global statistics, and Cypher scatters to the owners.
impl ReadView for [Arc<ShardSnapshot>] {
    fn by_name(&self, label: &str, name: &str) -> Option<NodeId> {
        self[canon_shard(label, name, self.len())]
            .graph()
            .node_by_name(label, name)
    }

    fn adjacency(&self, id: NodeId) -> Option<&[NodeId]> {
        self.iter().find_map(|pin| pin.khop_adjacency(id))
    }

    /// DFS-query-then-fetch: merge per-partition stats into the global
    /// stats, score each partition with them injected, then k-merge by
    /// `(score desc, global slot asc)` — bit-identical to the unsharded
    /// index.
    fn bm25(&self, query: &str, k: usize) -> Vec<NodeId> {
        let terms = SearchIndex::<NodeId>::terms(query);
        let mut stats = CorpusStats::default();
        for pin in self {
            pin.search_partition().add_corpus_stats(&terms, &mut stats);
        }
        let mut merged: Vec<Hit<ShardDoc>> = Vec::new();
        for pin in self {
            let hits = pin
                .search_partition()
                .search_terms_with_stats(&terms, k, &stats);
            if merged.is_empty() {
                merged = hits;
            } else {
                merged.extend(hits);
            }
        }
        merged.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.0.cmp(&b.doc.0))
        });
        merged.truncate(k);
        merged.into_iter().map(|hit| hit.doc.1).collect()
    }

    fn scatter(&self, plan: &CompiledPlan) -> Result<Vec<ScatterRow>, CypherError> {
        let params = Params::new();
        let mut rows = Vec::new();
        for pin in self {
            rows.extend(plan.scatter_on(pin.as_ref(), &params, &|id| pin.owns(id))?);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn expand_walks_bfs_layers_under_the_cap() {
        // 0 — 1 — 2, 0 — 3; node 4 is not held by the view.
        let adjacency: HashMap<NodeId, Vec<NodeId>> = [
            (NodeId(0), vec![NodeId(1), NodeId(3)]),
            (NodeId(1), vec![NodeId(0), NodeId(2)]),
            (NodeId(2), vec![NodeId(1)]),
            (NodeId(3), vec![NodeId(0)]),
        ]
        .into_iter()
        .collect();
        let neighbors = |id: NodeId| adjacency.get(&id).map(Vec::as_slice);
        let ids = |xs: &[u64]| xs.iter().map(|&x| NodeId(x)).collect::<Vec<_>>();
        assert_eq!(expand(NodeId(0), 1, 10, neighbors), ids(&[0, 1, 3]));
        assert_eq!(expand(NodeId(0), 2, 10, neighbors), ids(&[0, 1, 3, 2]));
        assert_eq!(expand(NodeId(0), 2, 2, neighbors), ids(&[0, 1]));
        assert_eq!(expand(NodeId(0), 0, 10, neighbors), ids(&[0]));
        assert!(expand(NodeId(0), 1, 0, neighbors).is_empty());
        assert!(expand(NodeId(4), 1, 10, neighbors).is_empty());
    }

    #[test]
    fn keyword_search_puts_name_hits_first_without_duplicates() {
        let by_name = |label: &str, name: &str| {
            (label == "Malware" && name == "wannacry").then_some(NodeId(7))
        };
        let bm25 = [NodeId(3), NodeId(7), NodeId(5)];
        assert_eq!(
            keyword_search("WannaCry", 5, by_name, bm25),
            vec![NodeId(7), NodeId(3), NodeId(5)]
        );
        assert_eq!(keyword_search("WannaCry", 2, by_name, bm25).len(), 2);
        // k = 0 still returns the best hit.
        assert_eq!(
            keyword_search("WannaCry", 0, by_name, bm25),
            vec![NodeId(7)]
        );
    }
}
