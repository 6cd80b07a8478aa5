//! Inside the backend (paper §2.1, §2.4): run each pipeline stage by hand,
//! swap components, and use the configuration file.
//!
//! ```sh
//! cargo run --example pipeline_anatomy --release
//! ```
//!
//! Shows the modular design: porter → checker → parser → extractor →
//! connector, the config file passing parameters to the components, and the
//! SQL-style connector swap the paper calls out as the extensibility story.

use securitykg::crawler::{crawl_all, CrawlState, CrawlerConfig};
use securitykg::extract::RegexNerBaseline;
use securitykg::pipeline::{
    run_pipelined, Checker, Connector, DefaultChecker, DefaultPorter, GraphConnector,
    IocOnlyExtractor, ParserRegistry, PipelineConfig, Porter, TabularConnector,
};
use std::sync::Arc;

fn main() {
    // A small simulated web and one crawl cycle.
    let web = securitykg::corpus::standard_web(6, 42);
    let mut state = CrawlState::new();
    let (raw_pages, metrics) = crawl_all(&web, &mut state, &CrawlerConfig::default(), u64::MAX / 4);
    println!(
        "collection: {} raw pages from {} sources ({} whole reports)",
        raw_pages.len(),
        metrics.sources_crawled,
        metrics.new_reports
    );

    // ---- Stage by stage, by hand ------------------------------------------
    println!("\nprocessing one report through each stage:");
    let mut porter = DefaultPorter::new();
    let mut first_report = None;
    for page in raw_pages.clone() {
        if let Some(report) = porter.feed(page) {
            first_report = Some(report);
            break;
        }
    }
    let report = first_report.expect("at least one single-page report");
    println!(
        "  porter   → IntermediateReport {} ({} page(s))",
        report.id,
        report.pages.len()
    );

    let checker = DefaultChecker::default();
    println!("  checker  → keep = {}", checker.check(&report));

    let registry = ParserRegistry::new();
    let mut cti = registry.parse(&report).expect("parses");
    println!(
        "  parser   → IntermediateCti: category={:?}, {} structured fields, {} text bytes",
        cti.category,
        cti.structured.len(),
        cti.text.len()
    );

    let extractor = IocOnlyExtractor {
        baseline: Arc::new(RegexNerBaseline::new(vec![])),
    };
    use securitykg::pipeline::Extractor as _;
    extractor.extract(&mut cti);
    println!(
        "  extractor→ {} entity mentions, {} relations",
        cti.mentions.len(),
        cti.relations.len()
    );

    let mut connector = GraphConnector::new();
    connector.connect(&cti);
    println!(
        "  connector→ graph now has {} nodes, {} edges",
        connector.graph.node_count(),
        connector.graph.edge_count()
    );

    // ---- The configuration file -------------------------------------------
    println!("\nconfiguration file (JSON):");
    let config_text = r#"{
        "checker_min_text_len": 60,
        "workers": {"check": 1, "parse": 2, "extract": 4},
        "serialize_transport": true
    }"#;
    let config = PipelineConfig::from_json(config_text).expect("valid config");
    println!("{}", config.to_json());

    // ---- Full pipelined run with the SQL-style connector swapped in --------
    // The components are objects handed to the runner; the file above only
    // carries their parameters.
    let out = run_pipelined(
        raw_pages,
        &registry,
        &extractor,
        TabularConnector::new(),
        &config,
    );
    println!(
        "\npipelined run with TabularConnector (serialized transport on):\n  \
         {} reports connected, {} screened out, entity table: {} rows, \
         relation table: {} rows, mention table: {} rows",
        out.metrics.connected,
        out.metrics.screened_out,
        out.connector.entities.len(),
        out.connector.relations.len(),
        out.connector.mentions.len()
    );
    println!("  per-stage busy ms: {:?}", out.metrics.stage_busy_ms);
}
