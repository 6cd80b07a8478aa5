//! Shared fixtures and table formatting for the experiment harnesses
//! (E1–E18 in DESIGN.md and EXPERIMENTS.md).

use kg_corpus::{standard_sources, SimulatedWeb, World, WorldConfig};

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
