//! Fixed-layout binary encoding (`KGBIN001`) for the hot checkpoint payloads:
//! graph arena segments, search doc-table segments, and posting shards.
//!
//! `kg-persist` frames every blob with a length + FNV checksum, so by the
//! time recovery hands a payload to this crate its bytes are already proven
//! intact. What used to remain was a serde_json parse — an allocation per
//! field. The binary layout here is positional instead: one pass over the
//! bytes both **validates** the structure (every length bounds-checked
//! against the remaining buffer, every offset required to equal the running
//! cursor, strings checked as UTF-8 in place) and **decodes** it, with
//! allocations only for the strings and vectors that end up in the live
//! structures. [`validate_payload`] runs the same walk without materialising
//! anything, for callers that only need a verdict.
//!
//! ## Layout
//!
//! Every payload starts with an 8-byte magic + 1-byte kind + u32 LE count:
//!
//! ```text
//! "KGBIN001" | kind u8 | count u32
//! ```
//!
//! - kind 1 (node segment) / kind 2 (edge segment):
//!   `count × offset u32` (offset table, `0xFFFF_FFFF` = tombstone slot),
//!   then `body_len u32`, then the packed records. Offsets are relative to
//!   the body start and **must** equal the decoder's running cursor — the
//!   encoding is canonical and the table doubles as a structural proof.
//!   A node record is `id u64 | label str | nprops u32 | (key str, value)…`
//!   with property keys strictly ascending; an edge record is
//!   `id u64 | from u64 | to u64 | rel_type str | nprops u32 | …`.
//! - kind 3 (doc segment): `count × (doc_key u64, token_len u32)` — fixed
//!   12-byte records, no per-record framing needed.
//! - kind 4 (posting shard): `count` term records, each
//!   `term str | npostings u32 | (doc u32, tf u32)…`, terms strictly
//!   ascending and postings strictly ascending by doc.
//!
//! `str` is `len u32 | UTF-8 bytes`. Values are tagged:
//! `0` Null, `1` Bool + u8, `2` Int + i64, `3` Float + f64 bits,
//! `4` Text + str, `5` List + count u32 + values, `6` Node + u64,
//! `7` Edge + u64. List nesting is capped at [`MAX_DEPTH`] so adversarial
//! payloads cannot overflow the decoder's stack. Trailing bytes after the
//! last record are an error.
//!
//! ## One format
//!
//! `KGBIN001` is the only payload encoding a segment store holds. A payload
//! that does not open with the magic — a serde_json blob, say — is a
//! [`CodecError`] at byte 0, so recovery quarantines its checkpoint like any
//! other corruption. The serde_json encodings of the same values remain the
//! differential oracle in the tests: `binary decode ≡ JSON decode` for every
//! generated segment.

use std::collections::BTreeMap;

use kg_graph::store::SEG_CAP;
use kg_graph::{Edge, EdgeId, Node, NodeId, Value};
use kg_search::{ShardTerms, DOC_SEG};

/// Leading magic of every payload; anything else fails to decode.
pub const BIN_MAGIC: &[u8; 8] = b"KGBIN001";

/// Offset-table sentinel marking an empty (tombstoned) arena slot.
pub const TOMBSTONE: u32 = 0xFFFF_FFFF;

/// Maximum `Value::List` nesting the decoder will follow.
pub const MAX_DEPTH: usize = 64;

/// Payload kind byte, directly after the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PayloadKind {
    /// Graph node arena segment (`n{i}` blobs).
    NodeSegment = 1,
    /// Graph edge arena segment (`e{i}` blobs).
    EdgeSegment = 2,
    /// Search doc-table segment (`d{i}` blobs).
    DocSegment = 3,
    /// Search posting shard (`s{s}` blobs).
    PostingShard = 4,
}

impl PayloadKind {
    fn from_byte(b: u8) -> Option<PayloadKind> {
        match b {
            1 => Some(PayloadKind::NodeSegment),
            2 => Some(PayloadKind::EdgeSegment),
            3 => Some(PayloadKind::DocSegment),
            4 => Some(PayloadKind::PostingShard),
            _ => None,
        }
    }
}

/// Structural decode failure: where the walk stopped and why. Decoders
/// return this for any malformed input — they never panic or read past the
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset the decoder had reached when the violation was found.
    pub offset: usize,
    /// Human-readable violation.
    pub reason: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Text(s) => {
            out.push(4);
            put_str(s, out);
        }
        Value::List(items) => {
            out.push(5);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                put_value(item, out);
            }
        }
        Value::Node(NodeId(id)) => {
            out.push(6);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Value::Edge(EdgeId(id)) => {
            out.push(7);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

fn put_props(props: &BTreeMap<String, Value>, out: &mut Vec<u8>) {
    out.extend_from_slice(&(props.len() as u32).to_le_bytes());
    for (key, value) in props {
        put_str(key, out);
        put_value(value, out);
    }
}

fn put_node(node: &Node, out: &mut Vec<u8>) {
    out.extend_from_slice(&node.id.0.to_le_bytes());
    put_str(&node.label, out);
    put_props(&node.props, out);
}

fn put_edge(edge: &Edge, out: &mut Vec<u8>) {
    out.extend_from_slice(&edge.id.0.to_le_bytes());
    out.extend_from_slice(&edge.from.0.to_le_bytes());
    out.extend_from_slice(&edge.to.0.to_le_bytes());
    put_str(&edge.rel_type, out);
    put_props(&edge.props, out);
}

/// Shared encoder for the two offset-table kinds: header, slot offset table
/// (tombstones as [`TOMBSTONE`]), body length, packed records in slot order.
fn encode_slots_into<T>(
    kind: PayloadKind,
    slots: &[Option<T>],
    put: impl Fn(&T, &mut Vec<u8>),
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(BIN_MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&(slots.len() as u32).to_le_bytes());
    let table_at = out.len();
    // Reserve the offset table plus the body_len word; both are patched once
    // the records are packed.
    out.resize(table_at + slots.len() * 4 + 4, 0);
    let body_at = out.len();
    for (i, slot) in slots.iter().enumerate() {
        let cell = table_at + i * 4;
        match slot {
            None => out[cell..cell + 4].copy_from_slice(&TOMBSTONE.to_le_bytes()),
            Some(record) => {
                let off = (out.len() - body_at) as u32;
                out[cell..cell + 4].copy_from_slice(&off.to_le_bytes());
                put(record, out);
            }
        }
    }
    let body_len = (out.len() - body_at) as u32;
    out[body_at - 4..body_at].copy_from_slice(&body_len.to_le_bytes());
}

/// Encode one node arena segment, appending to `out`.
pub fn encode_node_segment_into(slots: &[Option<Node>], out: &mut Vec<u8>) {
    encode_slots_into(PayloadKind::NodeSegment, slots, put_node, out);
}

/// Encode one node arena segment into a fresh buffer.
pub fn encode_node_segment(slots: &[Option<Node>]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_node_segment_into(slots, &mut out);
    out
}

/// Encode one edge arena segment, appending to `out`.
pub fn encode_edge_segment_into(slots: &[Option<Edge>], out: &mut Vec<u8>) {
    encode_slots_into(PayloadKind::EdgeSegment, slots, put_edge, out);
}

/// Encode one edge arena segment into a fresh buffer.
pub fn encode_edge_segment(slots: &[Option<Edge>]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_edge_segment_into(slots, &mut out);
    out
}

/// Encode one doc-table segment (`(doc key, token count)` rows), appending.
pub fn encode_doc_segment_into(slots: &[(NodeId, u32)], out: &mut Vec<u8>) {
    out.extend_from_slice(BIN_MAGIC);
    out.push(PayloadKind::DocSegment as u8);
    out.extend_from_slice(&(slots.len() as u32).to_le_bytes());
    for (key, tokens) in slots {
        out.extend_from_slice(&key.0.to_le_bytes());
        out.extend_from_slice(&tokens.to_le_bytes());
    }
}

/// Encode one doc-table segment into a fresh buffer.
pub fn encode_doc_segment(slots: &[(NodeId, u32)]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_doc_segment_into(slots, &mut out);
    out
}

/// Encode one posting shard (sorted `(term, postings)` rows), appending.
pub fn encode_posting_shard_into(terms: &ShardTerms, out: &mut Vec<u8>) {
    out.extend_from_slice(BIN_MAGIC);
    out.push(PayloadKind::PostingShard as u8);
    out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for (term, postings) in terms {
        put_str(term, out);
        out.extend_from_slice(&(postings.len() as u32).to_le_bytes());
        for (doc, tf) in postings {
            out.extend_from_slice(&doc.to_le_bytes());
            out.extend_from_slice(&tf.to_le_bytes());
        }
    }
}

/// Encode one posting shard into a fresh buffer.
pub fn encode_posting_shard(terms: &ShardTerms) -> Vec<u8> {
    let mut out = Vec::new();
    encode_posting_shard_into(terms, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

/// Bounds-checked forward reader over a payload. Every accessor fails with
/// a positioned [`CodecError`] instead of reading past the end.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn err<T>(&self, reason: impl Into<String>) -> Result<T> {
        Err(CodecError {
            offset: self.pos,
            reason: reason.into(),
        })
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return self.err(format!(
                "truncated: need {n} byte(s) for {what}, {} left",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Length-prefixed UTF-8 string, validated in place (no allocation).
    fn str_(&mut self, what: &str) -> Result<&'a str> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => {
                self.pos -= len;
                self.err(format!("{what}: invalid UTF-8"))
            }
        }
    }

    /// Read a count that prefixes records of at least `min_record` bytes
    /// each, rejecting counts the remaining buffer cannot possibly hold —
    /// the guard that keeps adversarial payloads from provoking huge
    /// allocations.
    fn count(&mut self, min_record: usize, what: &str) -> Result<usize> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_record) > self.remaining() {
            return self.err(format!(
                "{what}: count {n} cannot fit in {} remaining byte(s)",
                self.remaining()
            ));
        }
        Ok(n)
    }
}

/// Check magic + kind byte; returns the cursor positioned at the count.
fn header<'a>(bytes: &'a [u8], want: PayloadKind) -> Result<Cur<'a>> {
    let mut cur = Cur::new(bytes);
    let magic = cur.take(BIN_MAGIC.len(), "magic")?;
    if magic != BIN_MAGIC {
        cur.pos = 0;
        return cur.err("bad magic (not a KGBIN001 payload)");
    }
    let kind = cur.u8("kind")?;
    match PayloadKind::from_byte(kind) {
        Some(k) if k == want => Ok(cur),
        Some(k) => cur.err(format!("payload kind {k:?}, want {want:?}")),
        None => cur.err(format!("unknown payload kind {kind}")),
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Walk one value. `build` materialises; `None` return only on build=false.
fn walk_value(cur: &mut Cur<'_>, depth: usize, build: bool) -> Result<Option<Value>> {
    if depth > MAX_DEPTH {
        return cur.err(format!("list nesting deeper than {MAX_DEPTH}"));
    }
    let tag = cur.u8("value tag")?;
    let v = match tag {
        0 => Value::Null,
        1 => match cur.u8("bool")? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            b => return cur.err(format!("bool byte {b}, want 0 or 1")),
        },
        2 => Value::Int(cur.u64("int")? as i64),
        3 => Value::Float(f64::from_bits(cur.u64("float")?)),
        4 => {
            let s = cur.str_("text value")?;
            if !build {
                return Ok(None);
            }
            Value::Text(s.to_owned())
        }
        5 => {
            let n = cur.count(1, "list")?;
            let mut items = if build {
                Vec::with_capacity(n)
            } else {
                Vec::new()
            };
            for _ in 0..n {
                if let Some(item) = walk_value(cur, depth + 1, build)? {
                    items.push(item);
                }
            }
            if !build {
                return Ok(None);
            }
            Value::List(items)
        }
        6 => Value::Node(NodeId(cur.u64("node ref")?)),
        7 => Value::Edge(EdgeId(cur.u64("edge ref")?)),
        t => return cur.err(format!("unknown value tag {t}")),
    };
    Ok(if build { Some(v) } else { None })
}

/// Property map: count, then strictly-ascending `(key, value)` pairs — the
/// ordering a `BTreeMap` encoder always produces, enforced so the encoding
/// is canonical (one byte string per logical map).
fn walk_props<'a>(cur: &mut Cur<'a>, build: bool) -> Result<BTreeMap<String, Value>> {
    // Smallest possible property: 4-byte key length + 1-byte value tag.
    let n = cur.count(5, "property count")?;
    let mut props = BTreeMap::new();
    let mut prev: Option<&'a str> = None;
    for _ in 0..n {
        let key_at = cur.pos;
        let key = cur.str_("property key")?;
        if let Some(p) = prev {
            if key <= p {
                cur.pos = key_at;
                return cur.err(format!("property keys not strictly ascending at {key:?}"));
            }
        }
        prev = Some(key);
        let value = walk_value(cur, 0, build)?;
        if build {
            props.insert(key.to_owned(), value.expect("build mode returns a value"));
        }
    }
    Ok(props)
}

fn walk_node(cur: &mut Cur<'_>, build: bool) -> Result<Option<Node>> {
    let id = NodeId(cur.u64("node id")?);
    let label = cur.str_("node label")?;
    let label = if build {
        label.to_owned()
    } else {
        String::new()
    };
    let props = walk_props(cur, build)?;
    Ok(if build {
        Some(Node { id, label, props })
    } else {
        None
    })
}

fn walk_edge(cur: &mut Cur<'_>, build: bool) -> Result<Option<Edge>> {
    let id = EdgeId(cur.u64("edge id")?);
    let from = NodeId(cur.u64("edge from")?);
    let to = NodeId(cur.u64("edge to")?);
    let rel_type = cur.str_("edge rel_type")?;
    let rel_type = if build {
        rel_type.to_owned()
    } else {
        String::new()
    };
    let props = walk_props(cur, build)?;
    Ok(if build {
        Some(Edge {
            id,
            from,
            to,
            rel_type,
            props,
        })
    } else {
        None
    })
}

/// Shared decoder for the offset-table kinds. One pass: the offset table is
/// read up front, then each populated slot's offset must equal the running
/// cursor — so a single forward walk proves the table, the record bounds,
/// and the exact body length all agree.
fn decode_slots<T>(
    bytes: &[u8],
    kind: PayloadKind,
    mut walk: impl FnMut(&mut Cur<'_>, bool) -> Result<Option<T>>,
    build: bool,
) -> Result<Vec<Option<T>>> {
    let mut cur = header(bytes, kind)?;
    let n = cur.u32("slot count")? as usize;
    if n > SEG_CAP {
        return cur.err(format!("slot count {n} exceeds segment capacity {SEG_CAP}"));
    }
    let mut offsets = Vec::with_capacity(n);
    for _ in 0..n {
        offsets.push(cur.u32("offset table")?);
    }
    let body_len = cur.u32("body length")? as usize;
    let body_start = cur.pos;
    if bytes.len() - body_start != body_len {
        return cur.err(format!(
            "body length {body_len} disagrees with {} byte(s) present",
            bytes.len() - body_start
        ));
    }
    let mut out = if build {
        Vec::with_capacity(n)
    } else {
        Vec::new()
    };
    for (i, off) in offsets.iter().enumerate() {
        if *off == TOMBSTONE {
            if build {
                out.push(None);
            }
            continue;
        }
        let at = (cur.pos - body_start) as u32;
        if *off != at {
            return cur.err(format!("offset[{i}] = {off}, but record starts at {at}"));
        }
        let record = walk(&mut cur, build)?;
        if build {
            out.push(record);
        }
    }
    if cur.remaining() != 0 {
        return cur.err(format!(
            "{} trailing byte(s) after last record",
            cur.remaining()
        ));
    }
    Ok(out)
}

/// Decode a binary node segment ([`PayloadKind::NodeSegment`]).
pub fn decode_node_segment(bytes: &[u8]) -> Result<Vec<Option<Node>>> {
    decode_slots(bytes, PayloadKind::NodeSegment, walk_node, true)
}

/// Decode a binary edge segment ([`PayloadKind::EdgeSegment`]).
pub fn decode_edge_segment(bytes: &[u8]) -> Result<Vec<Option<Edge>>> {
    decode_slots(bytes, PayloadKind::EdgeSegment, walk_edge, true)
}

fn decode_docs(bytes: &[u8], build: bool) -> Result<Vec<(NodeId, u32)>> {
    let mut cur = header(bytes, PayloadKind::DocSegment)?;
    let n = cur.count(12, "doc count")?;
    if n > DOC_SEG {
        return cur.err(format!("doc count {n} exceeds segment capacity {DOC_SEG}"));
    }
    let mut out = if build {
        Vec::with_capacity(n)
    } else {
        Vec::new()
    };
    for _ in 0..n {
        let key = NodeId(cur.u64("doc key")?);
        let tokens = cur.u32("doc token count")?;
        if build {
            out.push((key, tokens));
        }
    }
    if cur.remaining() != 0 {
        return cur.err(format!(
            "{} trailing byte(s) after last doc",
            cur.remaining()
        ));
    }
    Ok(out)
}

/// Decode a binary doc-table segment ([`PayloadKind::DocSegment`]).
pub fn decode_doc_segment(bytes: &[u8]) -> Result<Vec<(NodeId, u32)>> {
    decode_docs(bytes, true)
}

fn decode_shard(bytes: &[u8], build: bool) -> Result<ShardTerms> {
    let mut cur = header(bytes, PayloadKind::PostingShard)?;
    // Smallest possible term record: 4-byte term length + 4-byte posting
    // count (empty term, zero postings).
    let n = cur.count(8, "term count")?;
    let mut out = if build {
        Vec::with_capacity(n)
    } else {
        Vec::new()
    };
    let mut prev: Option<&str> = None;
    for _ in 0..n {
        let term_at = cur.pos;
        let term = cur.str_("term")?;
        if let Some(p) = prev {
            if term <= p {
                cur.pos = term_at;
                return cur.err(format!("terms not strictly ascending at {term:?}"));
            }
        }
        prev = Some(term);
        let npost = cur.count(8, "posting count")?;
        let mut postings = if build {
            Vec::with_capacity(npost)
        } else {
            Vec::new()
        };
        let mut prev_doc: Option<u32> = None;
        for _ in 0..npost {
            let doc = cur.u32("posting doc")?;
            let tf = cur.u32("posting tf")?;
            if let Some(p) = prev_doc {
                if doc <= p {
                    return cur.err(format!("postings for {term:?} not ascending at doc {doc}"));
                }
            }
            prev_doc = Some(doc);
            if build {
                postings.push((doc, tf));
            }
        }
        if build {
            out.push((term.to_owned(), postings));
        }
    }
    if cur.remaining() != 0 {
        return cur.err(format!(
            "{} trailing byte(s) after last term",
            cur.remaining()
        ));
    }
    Ok(out)
}

/// Decode a binary posting shard ([`PayloadKind::PostingShard`]).
pub fn decode_posting_shard(bytes: &[u8]) -> Result<ShardTerms> {
    decode_shard(bytes, true)
}

/// One-pass structural validation without materialising anything: magic,
/// kind, every offset/length bounds-checked, strings UTF-8-checked in
/// place, ordering invariants enforced. Returns the payload kind.
pub fn validate_payload(bytes: &[u8]) -> Result<PayloadKind> {
    let mut probe = Cur::new(bytes);
    let magic = probe.take(BIN_MAGIC.len(), "magic")?;
    if magic != BIN_MAGIC {
        probe.pos = 0;
        return probe.err("bad magic (not a KGBIN001 payload)");
    }
    let kind = probe.u8("kind")?;
    match PayloadKind::from_byte(kind) {
        Some(PayloadKind::NodeSegment) => {
            decode_slots(bytes, PayloadKind::NodeSegment, walk_node, false)?;
            Ok(PayloadKind::NodeSegment)
        }
        Some(PayloadKind::EdgeSegment) => {
            decode_slots(bytes, PayloadKind::EdgeSegment, walk_edge, false)?;
            Ok(PayloadKind::EdgeSegment)
        }
        Some(PayloadKind::DocSegment) => {
            decode_docs(bytes, false)?;
            Ok(PayloadKind::DocSegment)
        }
        Some(PayloadKind::PostingShard) => {
            decode_shard(bytes, false)?;
            Ok(PayloadKind::PostingShard)
        }
        None => probe.err(format!("unknown payload kind {kind}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64, label: &str, props: &[(&str, Value)]) -> Node {
        Node {
            id: NodeId(id),
            label: label.to_owned(),
            props: props
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    fn edge(id: u64, from: u64, to: u64, rel: &str) -> Edge {
        Edge {
            id: EdgeId(id),
            from: NodeId(from),
            to: NodeId(to),
            rel_type: rel.to_owned(),
            props: BTreeMap::new(),
        }
    }

    fn sample_nodes() -> Vec<Option<Node>> {
        vec![
            Some(node(
                0,
                "Malware",
                &[
                    ("name", Value::from("wannacry")),
                    ("score", Value::Float(0.75)),
                    ("seen", Value::Int(-3)),
                    ("tags", Value::List(vec![Value::from("worm"), Value::Null])),
                ],
            )),
            None,
            Some(node(2, "ThreatActor", &[("active", Value::Bool(true))])),
            None,
            Some(node(4, "Tool", &[("ref", Value::Node(NodeId(2)))])),
        ]
    }

    #[test]
    fn node_segment_round_trips() {
        let slots = sample_nodes();
        let bytes = encode_node_segment(&slots);
        assert_eq!(validate_payload(&bytes).unwrap(), PayloadKind::NodeSegment);
        assert_eq!(decode_node_segment(&bytes).unwrap(), slots);
    }

    #[test]
    fn edge_segment_round_trips() {
        let mut e = edge(7, 0, 2, "uses");
        e.props.insert("weight".into(), Value::Float(1.5));
        let slots = vec![None, Some(e), Some(edge(9, 2, 4, "drops"))];
        let bytes = encode_edge_segment(&slots);
        assert_eq!(validate_payload(&bytes).unwrap(), PayloadKind::EdgeSegment);
        assert_eq!(decode_edge_segment(&bytes).unwrap(), slots);
    }

    #[test]
    fn doc_segment_round_trips() {
        let slots: Vec<(NodeId, u32)> = (0..17).map(|i| (NodeId(i * 3), i as u32 + 1)).collect();
        let bytes = encode_doc_segment(&slots);
        assert_eq!(validate_payload(&bytes).unwrap(), PayloadKind::DocSegment);
        assert_eq!(decode_doc_segment(&bytes).unwrap(), slots);
    }

    #[test]
    fn posting_shard_round_trips() {
        let terms: ShardTerms = vec![
            ("apt".into(), vec![(0, 2), (5, 1)]),
            ("wannacry".into(), vec![(1, 1), (2, 4), (9, 1)]),
            ("worm".into(), vec![(3, 1)]),
        ];
        let bytes = encode_posting_shard(&terms);
        assert_eq!(validate_payload(&bytes).unwrap(), PayloadKind::PostingShard);
        assert_eq!(decode_posting_shard(&bytes).unwrap(), terms);
    }

    #[test]
    fn empty_payloads_round_trip() {
        assert_eq!(
            decode_node_segment(&encode_node_segment(&[])).unwrap(),
            vec![]
        );
        assert_eq!(
            decode_doc_segment(&encode_doc_segment(&[])).unwrap(),
            vec![]
        );
        assert_eq!(
            decode_posting_shard(&encode_posting_shard(&ShardTerms::new())).unwrap(),
            ShardTerms::new()
        );
    }

    #[test]
    fn serde_json_bytes_are_rejected_at_the_magic() {
        let json = serde_json::to_vec(&sample_nodes()).unwrap();
        let err = decode_node_segment(&json).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.reason.contains("bad magic"), "{err}");
    }

    #[test]
    fn every_truncation_errs_cleanly() {
        let slots = sample_nodes();
        let bytes = encode_node_segment(&slots);
        for cut in 0..bytes.len() {
            assert!(
                decode_node_segment(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
            assert!(validate_payload(&bytes[..cut]).is_err());
        }
        let shard = encode_posting_shard(&vec![("term".into(), vec![(1, 1)])]);
        for cut in 0..shard.len() {
            assert!(decode_posting_shard(&shard[..cut]).is_err());
        }
    }

    #[test]
    fn bit_flips_never_panic_or_over_read() {
        let slots = sample_nodes();
        let base = encode_node_segment(&slots);
        for byte in 0..base.len() {
            for bit in [0, 3, 7] {
                let mut bytes = base.clone();
                bytes[byte] ^= 1 << bit;
                // A flip may still decode (the frame checksum upstream is the
                // integrity layer); the codec's contract is no panic and no
                // over-read, which the bounds-checked cursor guarantees.
                let _ = decode_node_segment(&bytes);
                let _ = validate_payload(&bytes);
            }
        }
    }

    #[test]
    fn arbitrary_bytes_err_cleanly() {
        // splitmix64-driven garbage, including buffers opening with the magic.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for case in 0..500 {
            let len = (next() % 200) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if case % 3 == 0 && bytes.len() >= 9 {
                bytes[..8].copy_from_slice(BIN_MAGIC);
                bytes[8] = (next() % 6) as u8;
            }
            let _ = decode_node_segment(&bytes);
            let _ = decode_edge_segment(&bytes);
            let _ = decode_doc_segment(&bytes);
            let _ = decode_posting_shard(&bytes);
            let _ = validate_payload(&bytes);
        }
    }

    #[test]
    fn deep_list_nesting_is_capped() {
        let mut v = Value::Int(1);
        for _ in 0..(MAX_DEPTH + 8) {
            v = Value::List(vec![v]);
        }
        let slots = vec![Some(node(0, "N", &[("deep", v)]))];
        let bytes = encode_node_segment(&slots);
        let err = decode_node_segment(&bytes).unwrap_err();
        assert!(err.reason.contains("nesting"), "{err}");
    }

    #[test]
    fn wrong_kind_and_trailing_bytes_are_rejected() {
        let doc = encode_doc_segment(&[(NodeId(1), 2)]);
        assert!(decode_node_segment(&doc).is_err());
        let mut padded = doc.clone();
        padded.push(0);
        assert!(decode_doc_segment(&padded).is_err());
        assert!(validate_payload(&padded).is_err());
    }

    #[test]
    fn non_canonical_offset_tables_are_rejected() {
        let slots = sample_nodes();
        let mut bytes = encode_node_segment(&slots);
        // Corrupt the second populated slot's offset (table starts at 13).
        let cell = 13 + 2 * 4;
        let off = u32::from_le_bytes(bytes[cell..cell + 4].try_into().unwrap());
        bytes[cell..cell + 4].copy_from_slice(&(off + 1).to_le_bytes());
        let err = decode_node_segment(&bytes).unwrap_err();
        assert!(err.reason.contains("offset"), "{err}");
    }

    #[test]
    fn unordered_props_and_terms_are_rejected() {
        // Hand-build a shard with descending terms.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(BIN_MAGIC);
        bytes.push(PayloadKind::PostingShard as u8);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for term in ["zz", "aa"] {
            bytes.extend_from_slice(&(term.len() as u32).to_le_bytes());
            bytes.extend_from_slice(term.as_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
        }
        let err = decode_posting_shard(&bytes).unwrap_err();
        assert!(err.reason.contains("ascending"), "{err}");
    }

    #[test]
    fn huge_counts_are_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(BIN_MAGIC);
        bytes.push(PayloadKind::PostingShard as u8);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_posting_shard(&bytes).is_err());
        let mut doc = Vec::new();
        doc.extend_from_slice(BIN_MAGIC);
        doc.push(PayloadKind::DocSegment as u8);
        doc.extend_from_slice(&0xffff_0000u32.to_le_bytes());
        assert!(decode_doc_segment(&doc).is_err());
    }
}
