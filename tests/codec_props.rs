//! Property tests for the `KGBIN001` binary payload codec, with the JSON
//! encoding as the differential oracle: for every generated segment the
//! binary round trip must agree byte-for-value with the serde_json round
//! trip (`binary decode ≡ JSON decode ≡ original`), the one-pass validator
//! must accept exactly what the decoder accepts, and adversarial inputs —
//! every truncation, strided bit flips — must come back as clean errors,
//! never a panic or an over-read.

use kg_codec::{
    decode_doc_segment, decode_edge_segment, decode_node_segment, decode_posting_shard,
    encode_doc_segment, encode_edge_segment, encode_node_segment, encode_posting_shard,
    validate_payload,
};
use proptest::prelude::*;
use securitykg::graph::{Edge, EdgeId, Node, NodeId, Value};
use securitykg::search::ShardTerms;
use std::collections::BTreeMap;

/// Build one property value from generated primitives, covering every
/// `Value` variant (lists nest one level, enough to exercise recursion).
fn value_from(tag: u8, i: i64, s: &str) -> Value {
    match tag % 8 {
        0 => Value::Null,
        1 => Value::Bool(i & 1 == 1),
        2 => Value::Int(i),
        // Halves round-trip exactly through both JSON and f64 bits.
        3 => Value::Float((i % 1_000_000) as f64 / 2.0),
        4 => Value::Text(s.to_owned()),
        5 => Value::List(vec![Value::Int(i), Value::Text(s.to_owned()), Value::Null]),
        6 => Value::Node(NodeId(i as u64 & 0xFFFF)),
        _ => Value::Edge(EdgeId(i as u64 & 0xFFFF)),
    }
}

type PropSpec = (String, u8, i64, String);

fn props_from(specs: &[PropSpec]) -> BTreeMap<String, Value> {
    specs
        .iter()
        .map(|(key, tag, i, s)| (key.clone(), value_from(*tag, *i, s)))
        .collect()
}

type NodeSpec = (bool, u64, String, Vec<PropSpec>);

fn nodes_from(specs: &[NodeSpec]) -> Vec<Option<Node>> {
    specs
        .iter()
        .map(|(live, id, label, props)| {
            live.then(|| Node {
                id: NodeId(*id),
                label: label.clone(),
                props: props_from(props),
            })
        })
        .collect()
}

fn prop_spec() -> impl Strategy<Value = PropSpec> {
    ("[a-z_]{1,6}", any::<u8>(), any::<i64>(), "\\PC{0,12}")
}

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    (
        any::<bool>(),
        any::<u64>(),
        "[A-Za-z]{1,10}",
        prop::collection::vec(prop_spec(), 0..5),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn node_segment_binary_decode_equals_json_decode(
        specs in prop::collection::vec(node_spec(), 0..20)
    ) {
        let slots = nodes_from(&specs);
        let bin = encode_node_segment(&slots);
        let json = serde_json::to_vec(&slots).expect("segment serialises");

        validate_payload(&bin).expect("canonical encoding validates");
        let from_bin = decode_node_segment(&bin).expect("canonical encoding decodes");
        let from_json: Vec<Option<Node>> =
            serde_json::from_slice(&json).expect("oracle decodes");
        prop_assert_eq!(&from_bin, &from_json);
        prop_assert_eq!(&from_bin, &slots);
        // The oracle's bytes are not a payload: the decoder rejects them.
        prop_assert!(decode_node_segment(&json).is_err());
    }

    #[test]
    fn edge_segment_binary_decode_equals_json_decode(
        specs in prop::collection::vec(
            (any::<bool>(), (any::<u64>(), any::<u64>(), any::<u64>()), "[A-Z_]{1,12}",
             prop::collection::vec(prop_spec(), 0..4)),
            0..20,
        )
    ) {
        let slots: Vec<Option<Edge>> = specs
            .iter()
            .map(|(live, (id, from, to), rel, props)| {
                live.then(|| Edge {
                    id: EdgeId(*id),
                    from: NodeId(*from),
                    to: NodeId(*to),
                    rel_type: rel.clone(),
                    props: props_from(props),
                })
            })
            .collect();
        let bin = encode_edge_segment(&slots);
        let json = serde_json::to_vec(&slots).expect("segment serialises");

        validate_payload(&bin).expect("canonical encoding validates");
        let from_bin = decode_edge_segment(&bin).expect("canonical encoding decodes");
        let from_json: Vec<Option<Edge>> =
            serde_json::from_slice(&json).expect("oracle decodes");
        prop_assert_eq!(&from_bin, &from_json);
        prop_assert_eq!(&from_bin, &slots);
        prop_assert!(decode_edge_segment(&json).is_err());
    }

    #[test]
    fn doc_segment_and_shard_binary_decode_equals_json_decode(
        docs in prop::collection::vec((any::<u64>(), any::<u32>()), 0..256),
        terms in prop::collection::vec(
            ("[a-z]{1,8}", prop::collection::vec((1u32..50, 1u32..9), 0..6)),
            0..12,
        )
    ) {
        let docs: Vec<(NodeId, u32)> =
            docs.into_iter().map(|(id, n)| (NodeId(id), n)).collect();
        let bin = encode_doc_segment(&docs);
        validate_payload(&bin).expect("doc segment validates");
        prop_assert_eq!(decode_doc_segment(&bin).unwrap(), docs.clone());
        let json = serde_json::to_vec(&docs).expect("doc segment serialises");
        let from_json: Vec<(NodeId, u32)> = serde_json::from_slice(&json).expect("oracle decodes");
        prop_assert_eq!(from_json, docs);

        // Posting shards need strictly-ascending unique terms and ascending
        // docs per term: dedup via a BTreeMap and prefix-sum the doc gaps.
        let shard: ShardTerms = terms
            .into_iter()
            .map(|(term, posts)| {
                let mut doc = 0u32;
                let postings = posts
                    .into_iter()
                    .map(|(gap, tf)| {
                        doc += gap;
                        (doc, tf)
                    })
                    .collect();
                (term, postings)
            })
            .collect::<BTreeMap<String, Vec<(u32, u32)>>>()
            .into_iter()
            .collect();
        let bin = encode_posting_shard(&shard);
        validate_payload(&bin).expect("shard validates");
        prop_assert_eq!(decode_posting_shard(&bin).unwrap(), shard.clone());
        let json = serde_json::to_vec(&shard).expect("shard serialises");
        let from_json: ShardTerms = serde_json::from_slice(&json).expect("oracle decodes");
        prop_assert_eq!(decode_posting_shard(&bin).unwrap(), from_json);
    }

    #[test]
    fn truncations_and_bit_flips_err_cleanly_never_panic(
        specs in prop::collection::vec(node_spec(), 1..10)
    ) {
        let slots = nodes_from(&specs);
        let bin = encode_node_segment(&slots);
        // Every truncation must be a clean error (the payload is
        // length-exact: nothing shorter can be structurally complete).
        for cut in 0..bin.len() {
            prop_assert!(decode_node_segment(&bin[..cut]).is_err(), "cut {}", cut);
            prop_assert!(validate_payload(&bin[..cut]).is_err(), "cut {}", cut);
        }
        // Strided bit flips: the frame checksum upstream owns integrity, so
        // a flip may still decode — but it must never panic or over-read,
        // and validator and decoder must agree on acceptance.
        for byte in (0..bin.len()).step_by(3) {
            let mut flipped = bin.clone();
            flipped[byte] ^= 0x10;
            let decoded = decode_node_segment(&flipped);
            let validated = validate_payload(&flipped);
            prop_assert_eq!(decoded.is_ok(), validated.is_ok(), "byte {}", byte);
        }
    }
}
