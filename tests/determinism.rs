//! Reproducibility: the whole system is a pure function of its seeds.

use securitykg::corpus::{standard_sources, ArticleGenerator, SimulatedWeb, World, WorldConfig};
use securitykg::crawler::{crawl_all, CrawlState, CrawlerConfig};
use securitykg::extract::RegexNerBaseline;
use securitykg::pipeline::{
    run_sequential, GraphConnector, IocOnlyExtractor, ParserRegistry, PipelineConfig,
};
use std::sync::Arc;

fn build_graph(seed: u64) -> securitykg::graph::GraphStore {
    let world = World::generate(WorldConfig::tiny(seed));
    let web = SimulatedWeb::new(world, standard_sources(8), seed);
    let mut state = CrawlState::new();
    // The crawl returns reports in source order whatever its thread count,
    // so graph node ids are comparable across runs.
    let (reports, _) = crawl_all(&web, &mut state, &CrawlerConfig::default(), u64::MAX / 4);
    let extractor = IocOnlyExtractor {
        baseline: Arc::new(RegexNerBaseline::new(vec![])),
    };
    run_sequential(
        reports,
        &ParserRegistry::new(),
        &extractor,
        GraphConnector::new(),
        &PipelineConfig::default(),
    )
    .connector
    .graph
}

#[test]
fn same_seed_same_graph() {
    let a = build_graph(99);
    let b = build_graph(99);
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    // Same nodes with same names and labels, id by id.
    for node in a.all_nodes() {
        let other = b.node(node.id).expect("same ids");
        assert_eq!(node.label, other.label);
        assert_eq!(node.name(), other.name());
    }
}

#[test]
fn different_seed_different_graph() {
    let a = build_graph(99);
    let b = build_graph(100);
    // Worlds differ → article routing differs → graphs differ.
    assert!(
        a.node_count() != b.node_count() || a.edge_count() != b.edge_count(),
        "distinct seeds should not collide exactly"
    );
}

#[test]
fn article_generation_is_stable_across_generator_instances() {
    let world = World::generate(WorldConfig::tiny(5));
    let sources = standard_sources(10);
    let a = ArticleGenerator::new(&world, 7).generate(&sources[3], 4);
    let b = ArticleGenerator::new(&world, 7).generate(&sources[3], 4);
    assert_eq!(a, b);
}

#[test]
fn crawl_state_serialisation_resumes_identically() {
    let world = World::generate(WorldConfig::tiny(3));
    let web = SimulatedWeb::new(world, standard_sources(12), 3);
    let config = CrawlerConfig::default();

    // Crawl halfway (time-gated), snapshot state, resume from the snapshot.
    let t_half = web.sources()[0].publish_time_ms(5);
    let mut state = CrawlState::new();
    let _ = crawl_all(&web, &mut state, &config, t_half);
    let snapshot = state.to_bytes().unwrap();

    let (rest_direct, _) = crawl_all(&web, &mut state, &config, u64::MAX / 4);
    let mut resumed = CrawlState::from_bytes(&snapshot).unwrap();
    let (rest_resumed, _) = crawl_all(&web, &mut resumed, &config, u64::MAX / 4);

    let mut keys_direct: Vec<String> = rest_direct
        .iter()
        .map(|r| format!("{}/{}/{}", r.source_name, r.report_key, r.page))
        .collect();
    let mut keys_resumed: Vec<String> = rest_resumed
        .iter()
        .map(|r| format!("{}/{}/{}", r.source_name, r.report_key, r.page))
        .collect();
    keys_direct.sort();
    keys_resumed.sort();
    assert_eq!(keys_direct, keys_resumed);
}
