//! Shared fixtures and table formatting for the experiment harnesses
//! (E1–E18 in DESIGN.md and EXPERIMENTS.md).

use kg_corpus::{standard_sources, SimulatedWeb, World, WorldConfig};
use kg_graph::{GraphStore, NodeId, Value};
use kg_search::SearchIndex;

/// Far-future simulated timestamp: every article is published.
pub const FOREVER: u64 = u64::MAX / 4;

/// Build the standard simulated web at a given per-source article scale.
pub fn standard_web(articles_per_source: usize, seed: u64) -> SimulatedWeb {
    let world = World::generate(WorldConfig {
        seed,
        ..WorldConfig::default()
    });
    SimulatedWeb::new(world, standard_sources(articles_per_source), seed)
}

/// Build a small web for fast benches.
pub fn small_web(seed: u64) -> SimulatedWeb {
    let world = World::generate(WorldConfig::tiny(seed));
    SimulatedWeb::new(world, standard_sources(10), seed)
}

// ---- synthetic-graph fixture (E13, E14, E15, E18) -------------------------

/// Deterministic synthetic graph: `n` nodes over a handful of labels, each
/// wired to ~2 earlier nodes (CTI graphs are sparse), and one indexed doc
/// per 8th node so the search index has realistic posting weight.
pub fn build_graph(n: usize) -> (GraphStore, SearchIndex<NodeId>) {
    const LABELS: [&str; 4] = ["Malware", "ThreatActor", "Tool", "FileName"];
    let mut graph = GraphStore::new();
    let mut search: SearchIndex<NodeId> = SearchIndex::default();
    let mut ids: Vec<NodeId> = Vec::with_capacity(n);
    for i in 0..n {
        let label = LABELS[i % LABELS.len()];
        let id = graph.create_node(
            label,
            [
                ("name", Value::from(format!("{}-{i}", label.to_lowercase()))),
                ("first_seen", Value::from(i as i64)),
            ],
        );
        if i > 0 {
            let a = ids[(i * 7 + 3) % ids.len()];
            graph.merge_edge(a, "RELATED_TO", id).expect("node exists");
            if i % 3 == 0 {
                let b = ids[(i * 13 + 5) % ids.len()];
                let _ = graph.merge_edge(id, "USE", b);
            }
        }
        if i % 8 == 0 {
            search.add(id, &format!("report {i} covering campaign wave {}", i % 17));
        }
        ids.push(id);
    }
    (graph, search)
}

/// Mutate `delta` elements: a mix of new entities (with edges), property
/// updates on existing nodes, and the occasional deletion — the shape of an
/// incremental ingest round.
pub fn apply_delta(graph: &mut GraphStore, round: usize, delta: usize) {
    let live: Vec<NodeId> = graph.all_nodes().map(|n| n.id).collect();
    for j in 0..delta {
        let salt = round * delta + j;
        match j % 4 {
            0 => {
                let id =
                    graph.create_node("Malware", [("name", Value::from(format!("fresh-{salt}")))]);
                let peer = live[(salt * 11 + 1) % live.len()];
                let _ = graph.merge_edge(peer, "RELATED_TO", id);
            }
            1 | 2 => {
                let id = live[(salt * 17 + 7) % live.len()];
                let _ = graph.set_node_prop(id, "last_seen", Value::from(salt as i64));
            }
            _ => {
                // Delete one of this round's own fresh nodes, if any —
                // keeps the graph size stable-ish and exercises removal.
                if let Some(id) = graph.node_by_name("Malware", &format!("fresh-{}", salt - 3)) {
                    let _ = graph.delete_node(id);
                }
            }
        }
    }
}

/// Median of a small sample set.
pub fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}-|", "-".repeat(w + 2 - 1)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("| name  | value |"), "{s}");
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn webs_build() {
        assert_eq!(small_web(1).sources().len(), 42);
        assert_eq!(standard_web(2, 1).sources().len(), 42);
    }
}
