//! The property-graph store.
//!
//! Nodes live in an arena indexed by dense [`NodeId`]s; deleted slots are
//! tombstoned (ids are never reused, so external references stay unambiguous,
//! which the fusion stage relies on when migrating edges). Secondary indexes:
//! per-label node lists and a unique `(label, name)` index implementing the
//! paper's §2.5 merge rule — "we only merge nodes with exactly the same
//! description text".
//!
//! Two properties serve the O(delta) publication path (kg-serve's
//! `EpochBuilder`):
//!
//! - **Structural sharing**: the node/edge arenas are split into `Arc`'d
//!   segments of [`SEG_CAP`] slots. `Clone` bumps one refcount per segment;
//!   only segments the writer touches afterwards are deep-copied
//!   (`Arc::make_mut`), so freezing a snapshot of an N-element graph copies
//!   O(delta) elements, not O(N). The property index is shared whole:
//!   clones of one graph version read one index, and the writer's next
//!   node mutation detaches to a fresh, unseeded one. The label, name and
//!   edge indexes, the touched sets and the delta log are still copied by
//!   every clone.
//! - **Change tracking**: every mutation records the touched node/edge id
//!   (edges with their endpoints, captured at touch time because a deleted
//!   edge can no longer be looked up). The accumulated touched-set is sealed
//!   into sequence-numbered [`DeltaBatch`]es on a **multi-consumer delta
//!   log**: each consumer registers a [`DeltaCursor`] and reads every batch
//!   exactly once ([`GraphStore::collect_changes`]); batches are pruned once
//!   the slowest cursor has passed them. Incremental digest/adjacency
//!   maintenance (kg-serve's `EpochBuilder`) is cursor reader #1 and standing
//!   query subscriptions are reader #2 — neither can starve the other.

use crate::value::Value;
use kg_ir::{fnv1a64_pinned, fnv1a64_pinned_extend, splitmix64};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Composite `(label, name)` index key: `label`, NUL, `name`. Labels never
/// contain NUL (they come from the ontology's label set), so the encoding is
/// unambiguous and lets the index use one `String` per entry instead of a
/// two-`String` tuple.
fn name_key(label: &str, name: &str) -> String {
    let mut key = String::with_capacity(label.len() + name.len() + 1);
    key.push_str(label);
    key.push('\u{0}');
    key.push_str(name);
    key
}

thread_local! {
    /// Scratch buffer for index probes, so the hot `merge_node`/`node_by_name`
    /// paths never allocate a key just to look it up.
    static KEY_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Run `f` with the composite key for `(label, name)` built in a reusable
/// thread-local buffer — zero heap allocation once the buffer has warmed up.
fn with_name_key<R>(label: &str, name: &str, f: impl FnOnce(&str) -> R) -> R {
    KEY_SCRATCH.with(|buf| {
        let mut key = buf.borrow_mut();
        key.clear();
        key.push_str(label);
        key.push('\u{0}');
        key.push_str(name);
        f(&key)
    })
}

/// Dense node identifier (never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u64);

/// Dense edge identifier (never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u64);

/// A stored node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    pub id: NodeId,
    pub label: String,
    pub props: BTreeMap<String, Value>,
}

impl Node {
    /// The node's `name` property, if textual.
    pub fn name(&self) -> Option<&str> {
        self.props.get("name").and_then(Value::as_text)
    }
}

/// A stored directed, typed edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    pub id: EdgeId,
    pub from: NodeId,
    pub to: NodeId,
    pub rel_type: String,
    pub props: BTreeMap<String, Value>,
}

/// Store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    NoSuchNode(NodeId),
    NoSuchEdge(EdgeId),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchNode(id) => write!(f, "no such node: {}", id.0),
            StoreError::NoSuchEdge(id) => write!(f, "no such edge: {}", id.0),
        }
    }
}

impl std::error::Error for StoreError {}

// ---- graph digest -----------------------------------------------------------

/// Digest of the empty graph; every element term is added on top.
pub const DIGEST_SEED: u64 = 0x5ec0_09a9_d16e_5701;

/// Domain separator mixed into node terms ("NODE").
const TAG_NODE: u64 = 0x4e4f_4445;

/// Domain separator mixed into edge terms ("EDGE").
const TAG_EDGE: u64 = 0x4544_4745;

thread_local! {
    /// Reused JSON buffer for digest terms, so hashing an element allocates
    /// nothing once the buffer has grown to the largest element seen.
    static TERM_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
    /// Element terms hashed on this thread (see [`terms_hashed_on_this_thread`]).
    static TERMS_HASHED: Cell<u64> = const { Cell::new(0) };
}

/// `splitmix64(fnv1a64(canonical JSON of element) ^ tag)`; the JSON is
/// written into [`TERM_SCRATCH`], never into a fresh `String`.
fn element_term<T: Serialize>(element: &T, tag: u64) -> u64 {
    TERMS_HASHED.with(|n| n.set(n.get() + 1));
    TERM_SCRATCH.with(|buf| {
        let mut json = buf.borrow_mut();
        json.clear();
        element.write_json(&mut json);
        splitmix64(fnv1a64_pinned(json.as_bytes()) ^ tag)
    })
}

/// How many element digest terms ([`node_digest`]/[`edge_digest`]) this
/// thread has hashed so far. Instrumentation: it lets a test see that a
/// consumer of a reassembled store reads the terms the store carries
/// instead of hashing the elements again.
pub fn terms_hashed_on_this_thread() -> u64 {
    TERMS_HASHED.with(Cell::get)
}

/// The digest term one node contributes to [`GraphStore::digest`].
pub fn node_digest(node: &Node) -> u64 {
    element_term(node, TAG_NODE)
}

/// The digest term one edge contributes to [`GraphStore::digest`].
pub fn edge_digest(edge: &Edge) -> u64 {
    element_term(edge, TAG_EDGE)
}

/// The digest terms of one arena segment's slots, indexed by slot (a
/// tombstone's entry is 0), and their seedless sum. A loader hashes each
/// segment as it decodes it ([`SegmentTerms::of_nodes`],
/// [`SegmentTerms::of_edges`]) and hands the terms to
/// [`GraphStore::from_hashed_segments`], so nothing downstream of the load
/// hashes an element again.
#[derive(Debug)]
pub struct SegmentTerms {
    terms: Vec<u64>,
    sum: u64,
}

impl SegmentTerms {
    fn of<T>(slots: &[Option<T>], term: fn(&T) -> u64) -> Self {
        let terms: Vec<u64> = slots.iter().map(|s| s.as_ref().map_or(0, term)).collect();
        let sum = terms.iter().fold(0u64, |sum, &t| sum.wrapping_add(t));
        SegmentTerms { terms, sum }
    }

    /// Hash a node segment's live slots.
    pub fn of_nodes(slots: &[Option<Node>]) -> Self {
        Self::of(slots, node_digest)
    }

    /// Hash an edge segment's live slots.
    pub fn of_edges(slots: &[Option<Edge>]) -> Self {
        Self::of(slots, edge_digest)
    }

    /// The seedless wrapping sum of the segment's live terms.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// The digest terms a reassembled store carries, indexed by slot: what
/// the loader hashed, valid until the first element mutation drops them.
#[derive(Debug)]
struct ElementTerms {
    nodes: Vec<u64>,
    edges: Vec<u64>,
}

// ---- canon-key shard routing ------------------------------------------------

/// The shard owning canon key `(label, name)` out of `shards` partitions —
/// the routing function for sharded serving. It hashes the same composite
/// key the `(label, name)` merge index uses, so the entities the paper's
/// §2.5 merge rule would unify always land on the same shard.
pub fn canon_shard(label: &str, name: &str, shards: usize) -> usize {
    // The hash of `name_key(label, name)`, streamed without building the key.
    let label_nul = fnv1a64_pinned_extend(fnv1a64_pinned(label.as_bytes()), b"\0");
    let hash = fnv1a64_pinned_extend(label_nul, name.as_bytes());
    (hash % shards.max(1) as u64) as usize
}

/// Fallback routing for elements with no usable canon key: hash the dense
/// (never reused) id.
pub fn id_shard(id: u64, shards: usize) -> usize {
    (splitmix64(id) % shards.max(1) as u64) as usize
}

/// The shard owning `node`: canon-key routing when the node has a textual
/// name, [`id_shard`] otherwise. Renaming a node migrates its ownership;
/// nothing else moves.
pub fn node_shard(node: &Node, shards: usize) -> usize {
    match node.name() {
        Some(name) => canon_shard(&node.label, name, shards),
        None => id_shard(node.id.0, shards),
    }
}

// ---- segmented arenas -------------------------------------------------------

const SEG_BITS: usize = 8;

/// Slots per arena segment.
pub const SEG_CAP: usize = 1 << SEG_BITS;

/// A tombstoning arena in `Arc`'d fixed-size segments: `Clone` is one
/// refcount bump per segment, and mutation copies-on-write only the segment
/// it lands in. Serialises as the flat JSON array the pre-segmented arena
/// used, so persisted graphs are layout-independent.
#[derive(Debug, Clone)]
struct Segments<T> {
    segs: Vec<Arc<Vec<Option<T>>>>,
    /// Total slots ever allocated, live or tombstoned.
    slots: usize,
    /// Segments mutated since the last [`Segments::clear_dirty`] — the
    /// incremental-checkpoint write set (kg-persist persists exactly these).
    /// Not serialised; a deserialised arena is conservatively all-dirty.
    dirty: BTreeSet<usize>,
}

impl<T> Default for Segments<T> {
    fn default() -> Self {
        Segments {
            segs: Vec::new(),
            slots: 0,
            dirty: BTreeSet::new(),
        }
    }
}

impl<T: Clone> Segments<T> {
    fn slots(&self) -> usize {
        self.slots
    }

    fn get(&self, index: u64) -> Option<&T> {
        let index = index as usize;
        self.segs
            .get(index >> SEG_BITS)?
            .get(index & (SEG_CAP - 1))?
            .as_ref()
    }

    fn get_mut(&mut self, index: u64) -> Option<&mut T> {
        let index = index as usize;
        if index >= self.slots {
            return None;
        }
        self.dirty.insert(index >> SEG_BITS);
        Arc::make_mut(&mut self.segs[index >> SEG_BITS])
            .get_mut(index & (SEG_CAP - 1))?
            .as_mut()
    }

    /// Append a live value in the next slot.
    fn push(&mut self, value: T) {
        if self.slots == self.segs.len() * SEG_CAP {
            self.segs.push(Arc::new(Vec::with_capacity(SEG_CAP)));
        }
        self.dirty.insert(self.slots >> SEG_BITS);
        Arc::make_mut(self.segs.last_mut().expect("segment exists")).push(Some(value));
        self.slots += 1;
    }

    /// Tombstone a slot (no-op when out of bounds).
    fn clear(&mut self, index: u64) {
        let index = index as usize;
        if index < self.slots {
            self.dirty.insert(index >> SEG_BITS);
            Arc::make_mut(&mut self.segs[index >> SEG_BITS])[index & (SEG_CAP - 1)] = None;
        }
    }

    /// Live values, in slot order.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.segs
            .iter()
            .flat_map(|seg| seg.iter())
            .filter_map(Option::as_ref)
    }

    /// Number of arena segments (including the partial tail segment).
    fn seg_count(&self) -> usize {
        self.segs.len()
    }

    /// Slot vector of one segment (`None` entries are tombstones).
    fn segment(&self, index: usize) -> Option<&Vec<Option<T>>> {
        self.segs.get(index).map(|seg| seg.as_ref())
    }

    /// Segment indices mutated since the last [`Segments::clear_dirty`].
    fn dirty_segments(&self) -> Vec<usize> {
        self.dirty.iter().copied().collect()
    }

    /// Forget dirtiness — call only after the dirty set has been durably
    /// persisted.
    fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Reassemble an arena from per-segment slot vectors (the inverse of
    /// reading each [`Segments::segment`]). Every segment but the last must
    /// hold exactly [`SEG_CAP`] slots. The result is clean (not dirty): by
    /// construction it matches what is on disk.
    fn from_parts(parts: Vec<Vec<Option<T>>>) -> Result<Self, String> {
        let mut slots = 0;
        for (i, part) in parts.iter().enumerate() {
            let last = i + 1 == parts.len();
            if !last && part.len() != SEG_CAP {
                return Err(format!(
                    "segment {i}: {} slots, every segment but the last must hold {SEG_CAP}",
                    part.len()
                ));
            }
            if part.is_empty() || part.len() > SEG_CAP {
                return Err(format!(
                    "segment {i}: {} slots out of range 1..={SEG_CAP}",
                    part.len()
                ));
            }
            slots += part.len();
        }
        Ok(Segments {
            segs: parts.into_iter().map(Arc::new).collect(),
            slots,
            dirty: BTreeSet::new(),
        })
    }
}

impl<T: Serialize> Serialize for Segments<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        let mut first = true;
        for slot in self.segs.iter().flat_map(|seg| seg.iter()) {
            if !first {
                out.push(',');
            }
            first = false;
            slot.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Deserialize> Deserialize for Segments<T> {
    fn read_json(p: &mut serde::read::Parser<'_>) -> Result<Self, serde::Error> {
        let flat: Vec<Option<T>> = Deserialize::read_json(p)?;
        let slots = flat.len();
        let mut segs: Vec<Arc<Vec<Option<T>>>> = Vec::with_capacity(slots.div_ceil(SEG_CAP));
        let mut current: Vec<Option<T>> = Vec::with_capacity(SEG_CAP.min(slots));
        for slot in flat {
            current.push(slot);
            if current.len() == SEG_CAP {
                let full = std::mem::replace(&mut current, Vec::with_capacity(SEG_CAP));
                segs.push(Arc::new(full));
            }
        }
        if !current.is_empty() {
            segs.push(Arc::new(current));
        }
        // A deserialised arena has no checkpoint to be incremental against:
        // conservatively mark every segment dirty.
        let dirty = (0..segs.len()).collect();
        Ok(Segments { segs, slots, dirty })
    }
}

// ---- change tracking --------------------------------------------------------

/// One sealed span of changes on the delta log: everything touched between
/// two seal points. Ids are deduplicated and sorted within a batch; a
/// "change" is conservative (created, mutated or deleted — the consumer
/// re-reads the live element to find out which).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphChanges {
    /// Touched node ids.
    pub nodes: Vec<NodeId>,
    /// Touched edge ids with their `(from, to)` endpoints, recorded when the
    /// edge was touched — a deleted edge can no longer be looked up, and
    /// endpoints are immutable for an edge's lifetime.
    pub edges: Vec<(EdgeId, NodeId, NodeId)>,
}

impl GraphChanges {
    /// True when nothing was touched.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }

    /// Touched elements in total.
    pub fn len(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }
}

/// Handle for one registered consumer of the delta log. Obtained from
/// [`GraphStore::register_delta_consumer`]; pass it back to
/// [`GraphStore::collect_changes`] to read. Cursors belong to the store
/// instance they were registered on (a cloned store carries the positions
/// along, but consumers should keep reading from the original writer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeltaCursor(u64);

/// A sealed, sequence-numbered change batch as read through a cursor.
/// Sequence numbers are global to the store: two consumers reading the same
/// span see the same `seq` on the same batch.
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    /// Position of this batch on the log (strictly increasing, never reused).
    pub seq: u64,
    /// The sealed changes; shared, not copied, between consumers.
    pub changes: Arc<GraphChanges>,
}

/// The multi-consumer delta log: sealed batches retained until the slowest
/// registered cursor has read them.
#[derive(Debug, Clone, Default)]
struct DeltaLog {
    /// Sealed batches, oldest first; `batches[i]` has seq `base_seq + i`.
    batches: VecDeque<Arc<GraphChanges>>,
    /// Sequence number of the oldest retained batch.
    base_seq: u64,
    /// cursor id → next sequence number that consumer has not yet read.
    cursors: HashMap<u64, u64>,
    next_cursor_id: u64,
}

impl DeltaLog {
    /// Sequence number the next sealed batch will get.
    fn tail_seq(&self) -> u64 {
        self.base_seq + self.batches.len() as u64
    }
}

/// How a `(key, text)` property picks its bucket: SipHash under keys drawn
/// per index, so values crafted to collide cannot pile into one bucket.
#[derive(Debug, Clone)]
struct PropHash {
    keys: RandomState,
    /// The hash function (tests substitute a colliding one).
    hash: fn(&RandomState, &str, &str) -> u64,
}

impl Default for PropHash {
    fn default() -> Self {
        PropHash {
            keys: RandomState::new(),
            hash: |keys, key, text| keys.hash_one((key, text)),
        }
    }
}

impl PropHash {
    fn of(&self, key: &str, text: &str) -> u64 {
        (self.hash)(&self.keys, key, text)
    }
}

/// The equality index over `Text`-valued node properties, seeded by the
/// first read that needs it and repaired lazily after that: mutators mark
/// nodes stale (cheap), and the first indexed read after a batch of writes
/// re-derives just those nodes' entries. Restricted to `Text` because text
/// equality has no cross-type coercion partner under `eq_cypher`
/// (`Int`/`Float` coerce into each other, so an exact-value index would
/// miss matches).
///
/// Buckets are keyed by the [`PropHash`] of `(key, text)`, not by the
/// strings, so seeding copies no string. Pairs with colliding hashes share
/// a bucket; every caller re-checks its candidates against the predicate,
/// so a collision can only cost a wasted check.
#[derive(Debug, Clone, Default)]
struct PropIndex {
    /// Bucket hash → live node ids with a text property hashing there,
    /// ascending.
    buckets: HashMap<u64, Vec<NodeId>>,
    /// node → the buckets its entries live under, so a stale node can be
    /// un-indexed without knowing its old values. Derived from `buckets` by
    /// the first repair: an index that never repairs (a frozen snapshot's)
    /// never builds it.
    entries: Option<HashMap<NodeId, Vec<u64>>>,
    /// Nodes touched since the last repair.
    stale: HashSet<NodeId>,
    /// Whether the full-scan seed has run; until a read needs the index,
    /// writes cost nothing.
    seeded: bool,
    /// Full seeds this index has run.
    seeds: u64,
    hash: PropHash,
}

impl PropIndex {
    /// Bring the index up to date with `nodes`: the full seed on first use,
    /// afterwards a repair of the stale nodes only.
    fn refresh(&mut self, nodes: &Segments<Node>) {
        if !self.seeded {
            self.seeded = true;
            self.seeds += 1;
            for node in nodes.iter() {
                self.insert_node(node);
            }
            return;
        }
        if self.stale.is_empty() {
            return;
        }
        let entries = self.entries.get_or_insert_with(|| {
            let mut entries: HashMap<NodeId, Vec<u64>> = HashMap::new();
            for (&bucket, ids) in &self.buckets {
                for &id in ids {
                    entries.entry(id).or_default().push(bucket);
                }
            }
            entries
        });
        for &id in &self.stale {
            for bucket in entries.remove(&id).unwrap_or_default() {
                if let Some(ids) = self.buckets.get_mut(&bucket) {
                    if let Ok(pos) = ids.binary_search(&id) {
                        ids.remove(pos);
                    }
                    if ids.is_empty() {
                        self.buckets.remove(&bucket);
                    }
                }
            }
        }
        for id in std::mem::take(&mut self.stale) {
            if let Some(node) = nodes.get(id.0) {
                self.insert_node(node);
            }
        }
    }

    fn insert_node(&mut self, node: &Node) {
        for (key, value) in &node.props {
            let Some(text) = value.as_text() else {
                continue;
            };
            let bucket = self.hash.of(key, text);
            let ids = self.buckets.entry(bucket).or_default();
            if let Err(pos) = ids.binary_search(&node.id) {
                ids.insert(pos, node.id);
            }
            if let Some(entries) = &mut self.entries {
                entries.entry(node.id).or_default().push(bucket);
            }
        }
    }

    fn candidates(&self, key: &str, text: &str) -> Vec<NodeId> {
        self.buckets
            .get(&self.hash.of(key, text))
            .cloned()
            .unwrap_or_default()
    }
}

/// The shared cell around [`PropIndex`]. Clones of one graph version share
/// one index (`Clone` is a refcount bump), so it is seeded at most once
/// however many frozen replicas read it. Reads repair staleness under the
/// lock, so the index lives behind `&self` like every other read path; an
/// up-to-date index is read under the shared lock only.
#[derive(Debug, Clone, Default)]
struct PropIndexCell(Arc<RwLock<PropIndex>>);

impl PropIndexCell {
    /// The writer's own index. If a clone shares it, the writer detaches
    /// to a fresh, unseeded index: the shared one keeps describing the one
    /// graph version its sharers froze, and whatever a reader of a frozen
    /// clone seeded there is never copied on the write path.
    fn exclusive(&mut self) -> &mut PropIndex {
        if Arc::get_mut(&mut self.0).is_none() {
            let hash = self.0.read().hash.clone();
            self.0 = Arc::new(RwLock::new(PropIndex {
                hash,
                ..PropIndex::default()
            }));
        }
        Arc::get_mut(&mut self.0)
            .expect("detached index is exclusive")
            .get_mut()
    }
}

/// The graph store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GraphStore {
    nodes: Segments<Node>,
    edges: Segments<Edge>,
    /// label → live node ids.
    #[serde(skip)]
    label_index: HashMap<String, Vec<NodeId>>,
    /// Composite `label\0name` key (see [`name_key`]) → live node ids bearing
    /// that name, in insertion order (multi-valued: `create_node`/renames may
    /// duplicate names; lookups resolve to the most recent writer,
    /// `merge_node` keeps names unique).
    #[serde(skip)]
    name_index: HashMap<String, Vec<NodeId>>,
    /// node → outgoing edge ids.
    #[serde(skip)]
    out_edges: HashMap<NodeId, Vec<EdgeId>>,
    /// node → incoming edge ids.
    #[serde(skip)]
    in_edges: HashMap<NodeId, Vec<EdgeId>>,
    /// Nodes touched since the last seal point (the un-sealed tail of the
    /// delta log).
    #[serde(skip)]
    touched_nodes: HashSet<NodeId>,
    /// Edges touched since the last seal point, with endpoints captured at
    /// touch time (see [`GraphChanges::edges`]).
    #[serde(skip)]
    touched_edges: HashMap<EdgeId, (NodeId, NodeId)>,
    /// Sealed change batches + per-consumer cursors.
    #[serde(skip)]
    delta: DeltaLog,
    /// Equality index over `Text` node properties (see [`PropIndex`]).
    #[serde(skip)]
    prop_index: PropIndexCell,
    /// The element digest terms hashed when this store was reassembled
    /// ([`GraphStore::from_hashed_segments`]), shared by clones. Every
    /// element mutation drops them (`touch_node`/`touch_edge`), so a
    /// carried term always describes the live element in its slot.
    #[serde(skip)]
    terms: Option<Arc<ElementTerms>>,
    live_nodes: usize,
    live_edges: usize,
}

impl GraphStore {
    /// An empty store.
    pub fn new() -> Self {
        GraphStore::default()
    }

    // ---- nodes -----------------------------------------------------------

    /// Create a node unconditionally.
    pub fn create_node<K, V>(
        &mut self,
        label: &str,
        props: impl IntoIterator<Item = (K, V)>,
    ) -> NodeId
    where
        K: Into<String>,
        V: Into<Value>,
    {
        let id = NodeId(self.nodes.slots() as u64);
        let props: BTreeMap<String, Value> = props
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect();
        let node = Node {
            id,
            label: label.to_owned(),
            props,
        };
        if let Some(name) = node.name() {
            self.name_index
                .entry(name_key(&node.label, name))
                .or_default()
                .push(id);
        }
        self.label_index
            .entry(node.label.clone())
            .or_default()
            .push(id);
        self.nodes.push(node);
        self.live_nodes += 1;
        self.touch_node(id);
        id
    }

    /// Record a change to node `id`: on the delta log's pending tail, as
    /// stale in the property index, and by dropping any carried digest
    /// terms. The property index is free until first seeded by a read,
    /// apart from detaching an index a frozen clone still shares.
    fn touch_node(&mut self, id: NodeId) {
        self.touched_nodes.insert(id);
        self.terms = None;
        let idx = self.prop_index.exclusive();
        if idx.seeded {
            idx.stale.insert(id);
        }
    }

    /// Record a change to edge `id` (endpoints captured now, see
    /// [`GraphChanges::edges`]) and drop any carried digest terms.
    fn touch_edge(&mut self, id: EdgeId, from: NodeId, to: NodeId) {
        self.touched_edges.insert(id, (from, to));
        self.terms = None;
    }

    /// Candidate node ids for `key = value`, ascending: every live node
    /// whose `key` property equals `value`, plus, only under a 64-bit hash
    /// collision, nodes that do not match. Callers re-check each candidate.
    /// `None` when the value kind is not indexable (only `Text` is — other
    /// kinds coerce under `eq_cypher`, so callers must fall back to a
    /// filtered scan). The first read seeds the index; later reads repair
    /// staleness from the touched set, so the cost after a write burst is
    /// proportional to the delta, not the graph.
    pub fn nodes_with_prop_eq(&self, key: &str, value: &Value) -> Option<Vec<NodeId>> {
        let text = value.as_text()?;
        {
            let idx = self.prop_index.0.read();
            if idx.seeded && idx.stale.is_empty() {
                return Some(idx.candidates(key, text));
            }
        }
        let mut idx = self.prop_index.0.write();
        idx.refresh(&self.nodes);
        Some(idx.candidates(key, text))
    }

    /// Full seeds the property index shared by this store has run.
    #[cfg(test)]
    pub(crate) fn prop_index_seeds(&self) -> u64 {
        self.prop_index.0.read().seeds
    }

    /// Make every property-index bucket collide (a fresh, unseeded index).
    #[cfg(test)]
    pub(crate) fn collide_prop_index(&mut self) {
        *self.prop_index.exclusive() = PropIndex {
            hash: PropHash {
                hash: |_, _, _| 0,
                ..PropHash::default()
            },
            ..PropIndex::default()
        };
    }

    /// Get-or-create by `(label, name)` — the §2.5 exact-text merge. When the
    /// node exists, `extra_props` fill gaps but never overwrite.
    pub fn merge_node<K, V>(
        &mut self,
        label: &str,
        name: &str,
        extra_props: impl IntoIterator<Item = (K, V)>,
    ) -> NodeId
    where
        K: Into<String>,
        V: Into<Value>,
    {
        if let Some(id) = with_name_key(label, name, |key| {
            self.name_index.get(key).and_then(|ids| ids.last()).copied()
        }) {
            let mut changed = false;
            if let Some(node) = self.nodes.get_mut(id.0) {
                for (k, v) in extra_props {
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        node.props.entry(k.into())
                    {
                        slot.insert(v.into());
                        changed = true;
                    }
                }
            }
            if changed {
                self.touch_node(id);
            }
            return id;
        }
        let mut props: Vec<(String, Value)> = extra_props
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect();
        props.push(("name".to_owned(), Value::from(name)));
        self.create_node(label, props)
    }

    /// Fetch a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0)
    }

    /// Mutable property access. Conservatively marks the node as changed.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get(id.0)?;
        self.touch_node(id);
        self.nodes.get_mut(id.0)
    }

    /// Update a node property, maintaining the name index.
    pub fn set_node_prop(&mut self, id: NodeId, key: &str, value: Value) -> Result<(), StoreError> {
        let node = self.nodes.get_mut(id.0).ok_or(StoreError::NoSuchNode(id))?;
        if key == "name" {
            if let Some(old) = node.name() {
                let k = name_key(&node.label, old);
                if let Some(ids) = self.name_index.get_mut(&k) {
                    ids.retain(|&n| n != id);
                    if ids.is_empty() {
                        self.name_index.remove(&k);
                    }
                }
            }
            if let Some(new_name) = value.as_text() {
                self.name_index
                    .entry(name_key(&node.label, new_name))
                    .or_default()
                    .push(id);
            }
        }
        // `node` was invalidated by the name-index borrows above; re-fetch.
        let node = self.nodes.get_mut(id.0).ok_or(StoreError::NoSuchNode(id))?;
        node.props.insert(key.to_owned(), value);
        self.touch_node(id);
        Ok(())
    }

    /// Delete a node and (detach) all its edges.
    pub fn delete_node(&mut self, id: NodeId) -> Result<(), StoreError> {
        let node = self.nodes.get(id.0).ok_or(StoreError::NoSuchNode(id))?;
        let label = node.label.clone();
        let name = node.name().map(str::to_owned);
        let touching: Vec<EdgeId> = self
            .out_edges
            .get(&id)
            .into_iter()
            .flatten()
            .chain(self.in_edges.get(&id).into_iter().flatten())
            .copied()
            .collect();
        for eid in touching {
            let _ = self.delete_edge(eid);
        }
        self.nodes.clear(id.0);
        self.live_nodes -= 1;
        self.touch_node(id);
        if let Some(ids) = self.label_index.get_mut(&label) {
            ids.retain(|&n| n != id);
        }
        if let Some(name) = name {
            let key = name_key(&label, &name);
            if let Some(ids) = self.name_index.get_mut(&key) {
                ids.retain(|&n| n != id);
                if ids.is_empty() {
                    self.name_index.remove(&key);
                }
            }
        }
        self.out_edges.remove(&id);
        self.in_edges.remove(&id);
        Ok(())
    }

    /// Look up by the `(label, name)` index. With duplicate names (possible
    /// via unconstrained `create_node`/renames) the most recent writer wins;
    /// [`GraphStore::nodes_by_name`] returns all of them.
    pub fn node_by_name(&self, label: &str, name: &str) -> Option<NodeId> {
        with_name_key(label, name, |key| {
            self.name_index.get(key).and_then(|ids| ids.last()).copied()
        })
    }

    /// Every live node with this `(label, name)`, oldest first.
    pub fn nodes_by_name(&self, label: &str, name: &str) -> Vec<NodeId> {
        with_name_key(label, name, |key| {
            self.name_index.get(key).cloned().unwrap_or_default()
        })
    }

    /// Live nodes with a label, in creation order.
    pub fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
        self.label_index.get(label).cloned().unwrap_or_default()
    }

    /// All live node ids, in creation order.
    pub fn all_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    // ---- edges -----------------------------------------------------------

    /// Create a directed edge.
    pub fn create_edge<K, V>(
        &mut self,
        from: NodeId,
        rel_type: &str,
        to: NodeId,
        props: impl IntoIterator<Item = (K, V)>,
    ) -> Result<EdgeId, StoreError>
    where
        K: Into<String>,
        V: Into<Value>,
    {
        if self.node(from).is_none() {
            return Err(StoreError::NoSuchNode(from));
        }
        if self.node(to).is_none() {
            return Err(StoreError::NoSuchNode(to));
        }
        let id = EdgeId(self.edges.slots() as u64);
        let props: BTreeMap<String, Value> = props
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect();
        self.edges.push(Edge {
            id,
            from,
            to,
            rel_type: rel_type.to_owned(),
            props,
        });
        self.out_edges.entry(from).or_default().push(id);
        self.in_edges.entry(to).or_default().push(id);
        self.live_edges += 1;
        self.touch_edge(id, from, to);
        Ok(id)
    }

    /// Get-or-create an edge with this exact `(from, rel_type, to)`.
    pub fn merge_edge(
        &mut self,
        from: NodeId,
        rel_type: &str,
        to: NodeId,
    ) -> Result<EdgeId, StoreError> {
        if let Some(existing) = self.out_edges.get(&from).into_iter().flatten().find(|&&e| {
            self.edge(e)
                .is_some_and(|edge| edge.to == to && edge.rel_type == rel_type)
        }) {
            return Ok(*existing);
        }
        self.create_edge(from, rel_type, to, std::iter::empty::<(String, Value)>())
    }

    /// Fetch an edge.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(id.0)
    }

    /// Mutable edge access. Conservatively marks the edge as changed.
    pub fn edge_mut(&mut self, id: EdgeId) -> Option<&mut Edge> {
        let (from, to) = {
            let edge = self.edges.get(id.0)?;
            (edge.from, edge.to)
        };
        self.touch_edge(id, from, to);
        self.edges.get_mut(id.0)
    }

    /// Delete an edge.
    pub fn delete_edge(&mut self, id: EdgeId) -> Result<(), StoreError> {
        let edge = self.edges.get(id.0).ok_or(StoreError::NoSuchEdge(id))?;
        let (from, to) = (edge.from, edge.to);
        self.edges.clear(id.0);
        self.live_edges -= 1;
        self.touch_edge(id, from, to);
        if let Some(es) = self.out_edges.get_mut(&from) {
            es.retain(|&e| e != id);
        }
        if let Some(es) = self.in_edges.get_mut(&to) {
            es.retain(|&e| e != id);
        }
        Ok(())
    }

    /// Outgoing edge ids of a node, in creation order, zero-alloc. Callers
    /// resolve through [`GraphStore::edge`] (which returns `None` for
    /// tombstones), exactly as [`GraphStore::outgoing_iter`] does.
    pub fn out_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        self.out_edges.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Incoming edge ids of a node, in creation order, zero-alloc.
    pub fn in_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        self.in_edges.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Outgoing edges of a node, lazily — no per-call `Vec`.
    pub fn outgoing_iter(&self, id: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.out_edges
            .get(&id)
            .into_iter()
            .flatten()
            .filter_map(|&e| self.edge(e))
    }

    /// Incoming edges of a node, lazily — no per-call `Vec`.
    pub fn incoming_iter(&self, id: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.in_edges
            .get(&id)
            .into_iter()
            .flatten()
            .filter_map(|&e| self.edge(e))
    }

    /// Outgoing edges of a node.
    pub fn outgoing(&self, id: NodeId) -> Vec<&Edge> {
        self.outgoing_iter(id).collect()
    }

    /// Incoming edges of a node.
    pub fn incoming(&self, id: NodeId) -> Vec<&Edge> {
        self.incoming_iter(id).collect()
    }

    /// Distinct neighbor node ids (both directions), in edge order, lazily.
    /// Dedup state lives inside the iterator, so callers that stop early
    /// (`any`, `take`) never pay for the full adjacency list.
    pub fn neighbors_iter(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut seen: Vec<NodeId> = Vec::new();
        self.outgoing_iter(id)
            .map(|e| e.to)
            .chain(self.incoming_iter(id).map(|e| e.from))
            .filter(move |n| {
                if seen.contains(n) {
                    false
                } else {
                    seen.push(*n);
                    true
                }
            })
    }

    /// Distinct neighbor node ids (both directions), in edge order.
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        self.neighbors_iter(id).collect()
    }

    /// Total degree (in + out).
    pub fn degree(&self, id: NodeId) -> usize {
        self.out_edges.get(&id).map_or(0, Vec::len) + self.in_edges.get(&id).map_or(0, Vec::len)
    }

    /// All live edges.
    pub fn all_edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    // ---- digest & change tracking -----------------------------------------

    /// Deterministic fingerprint of the graph: [`DIGEST_SEED`] plus the
    /// wrapping sum of every live element's [`node_digest`]/[`edge_digest`]
    /// term. The combine is commutative, so the digest is maintainable
    /// incrementally (subtract the old term, add the new one) and two graphs
    /// agree whenever their live node/edge sets agree — independent of
    /// tombstone layout or the order elements were touched.
    pub fn digest(&self) -> u64 {
        let nodes = self.node_terms().map(|(_, term)| term);
        let edges = self.edge_terms().map(|(_, term)| term);
        nodes
            .chain(edges)
            .fold(DIGEST_SEED, |digest, term| digest.wrapping_add(term))
    }

    /// Every live node with its [`node_digest`] term, in slot order: the
    /// term the store was reassembled with when it still carries terms
    /// (no element has changed since), else hashed now.
    pub fn node_terms(&self) -> impl Iterator<Item = (&Node, u64)> {
        let carried = self.terms.as_deref().map(|t| t.nodes.as_slice());
        self.all_nodes().map(move |node| {
            let term = carried.map_or_else(|| node_digest(node), |t| t[node.id.0 as usize]);
            (node, term)
        })
    }

    /// Every live edge with its [`edge_digest`] term, in slot order; see
    /// [`GraphStore::node_terms`].
    pub fn edge_terms(&self) -> impl Iterator<Item = (&Edge, u64)> {
        let carried = self.terms.as_deref().map(|t| t.edges.as_slice());
        self.all_edges().map(move |edge| {
            let term = carried.map_or_else(|| edge_digest(edge), |t| t[edge.id.0 as usize]);
            (edge, term)
        })
    }

    /// Register a new consumer of the delta log. Pending (un-sealed) changes
    /// are sealed first and the fresh cursor is positioned *after* them: a
    /// new consumer sees exactly the changes made after registration, never
    /// history it has no baseline for. A freshly loaded store
    /// ([`GraphStore::from_segments`] or [`GraphStore::rebuild_after_load`])
    /// starts with an empty log — incremental consumers must re-seed from a
    /// full scan after a load.
    pub fn register_delta_consumer(&mut self) -> DeltaCursor {
        self.seal_pending();
        let id = self.delta.next_cursor_id;
        self.delta.next_cursor_id += 1;
        let tail = self.delta.tail_seq();
        self.delta.cursors.insert(id, tail);
        self.prune_delta();
        DeltaCursor(id)
    }

    /// Deregister a cursor so its unread batches no longer pin the log.
    /// Unknown/already-released cursors are ignored.
    pub fn release_delta_consumer(&mut self, cursor: DeltaCursor) {
        if self.delta.cursors.remove(&cursor.0).is_some() {
            self.prune_delta();
        }
    }

    /// Seal the pending touched-set into a sequence-numbered batch on the
    /// log (no-op when nothing is pending). Consumers normally never call
    /// this — [`GraphStore::collect_changes`] seals implicitly — but an
    /// explicit seal point lets a second consumer later read *exactly up to*
    /// this moment via [`GraphStore::collect_sealed_changes`], even if the
    /// writer has mutated again in between.
    pub fn seal_changes(&mut self) {
        self.seal_pending();
        self.prune_delta();
    }

    /// Seal pending changes, then return every batch this cursor has not
    /// seen yet (oldest first) and advance the cursor past them. Each batch
    /// is delivered to each registered cursor exactly once; batches all
    /// cursors have passed are pruned. An unregistered cursor reads nothing.
    pub fn collect_changes(&mut self, cursor: DeltaCursor) -> Vec<DeltaBatch> {
        self.seal_pending();
        self.collect_sealed_changes(cursor)
    }

    /// Like [`GraphStore::collect_changes`] but without sealing: the cursor
    /// reads only up to the last explicit seal point, leaving changes made
    /// after it on the pending tail for a future batch.
    pub fn collect_sealed_changes(&mut self, cursor: DeltaCursor) -> Vec<DeltaBatch> {
        let Some(pos) = self.delta.cursors.get(&cursor.0).copied() else {
            return Vec::new();
        };
        let tail = self.delta.tail_seq();
        let start = pos.max(self.delta.base_seq);
        let mut out = Vec::with_capacity((tail - start) as usize);
        for seq in start..tail {
            let idx = (seq - self.delta.base_seq) as usize;
            out.push(DeltaBatch {
                seq,
                changes: Arc::clone(&self.delta.batches[idx]),
            });
        }
        self.delta.cursors.insert(cursor.0, tail);
        self.prune_delta();
        out
    }

    /// Elements currently recorded as touched (pending — not yet sealed
    /// into a batch).
    pub fn pending_changes(&self) -> usize {
        self.touched_nodes.len() + self.touched_edges.len()
    }

    /// Sealed batches currently retained on the log (waiting for the
    /// slowest cursor).
    pub fn delta_backlog(&self) -> usize {
        self.delta.batches.len()
    }

    fn seal_pending(&mut self) {
        if self.touched_nodes.is_empty() && self.touched_edges.is_empty() {
            return;
        }
        let mut nodes: Vec<NodeId> = self.touched_nodes.drain().collect();
        nodes.sort_unstable();
        let mut edges: Vec<(EdgeId, NodeId, NodeId)> = self
            .touched_edges
            .drain()
            .map(|(id, (from, to))| (id, from, to))
            .collect();
        edges.sort_unstable();
        self.delta
            .batches
            .push_back(Arc::new(GraphChanges { nodes, edges }));
    }

    /// Drop batches every registered cursor has already read. With no
    /// cursors registered, every batch goes: a cursor registered later
    /// starts at the tail and could never read them.
    fn prune_delta(&mut self) {
        let min =
            (self.delta.cursors.values().copied().min()).unwrap_or_else(|| self.delta.tail_seq());
        while self.delta.base_seq < min && self.delta.batches.pop_front().is_some() {
            self.delta.base_seq += 1;
        }
    }

    // ---- stats & persistence ----------------------------------------------

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Node counts per label, sorted by label.
    pub fn label_histogram(&self) -> BTreeMap<String, usize> {
        self.label_index
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, v)| (k.clone(), v.len()))
            .collect()
    }

    /// Rebuild the derived state (label/name/property indexes, adjacency,
    /// delta log) after deserialising a store whose `#[serde(skip)]` fields
    /// came back empty — e.g. a whole-KB JSON snapshot load. The hot
    /// checkpoint path uses [`GraphStore::from_segments`] instead, which
    /// calls this internally.
    pub fn rebuild_after_load(&mut self) {
        self.rebuild_indexes();
    }

    // ---- segment persistence (kg-persist) ---------------------------------
    //
    // The checkpoint unit is one arena segment (SEG_CAP slots), matching the
    // copy-on-write granularity: a mutation dirties exactly the segments it
    // copies, so an incremental checkpoint writes exactly those.

    /// Total node slots ever allocated (live + tombstoned).
    pub fn node_slot_count(&self) -> usize {
        self.nodes.slots()
    }

    /// Number of node arena segments.
    pub fn node_segment_count(&self) -> usize {
        self.nodes.seg_count()
    }

    /// Number of edge arena segments.
    pub fn edge_segment_count(&self) -> usize {
        self.edges.seg_count()
    }

    /// One node arena segment as raw slots (`None` entries are tombstones) —
    /// what `kg-codec` packs into a `KGBIN001` binary payload.
    pub fn node_segment_slots(&self, index: usize) -> Option<&[Option<Node>]> {
        self.nodes.segment(index).map(Vec::as_slice)
    }

    /// One edge arena segment as raw slots (`None` entries are tombstones).
    pub fn edge_segment_slots(&self, index: usize) -> Option<&[Option<Edge>]> {
        self.edges.segment(index).map(Vec::as_slice)
    }

    /// Node segments mutated since [`GraphStore::clear_segment_dirty`].
    pub fn dirty_node_segments(&self) -> Vec<usize> {
        self.nodes.dirty_segments()
    }

    /// Edge segments mutated since [`GraphStore::clear_segment_dirty`].
    pub fn dirty_edge_segments(&self) -> Vec<usize> {
        self.edges.dirty_segments()
    }

    /// Forget segment dirtiness. Call only once a checkpoint containing the
    /// dirty segments is durably committed — clearing early loses writes
    /// from the next incremental checkpoint.
    pub fn clear_segment_dirty(&mut self) {
        self.nodes.clear_dirty();
        self.edges.clear_dirty();
    }

    /// Reassemble a store from per-segment slot vectors (the inverse of
    /// reading every `*_segment_slots`). Validates the arena shape and that
    /// each element sits in the slot its id names; indexes are rebuilt and
    /// the dirty sets stay clear (the reassembled state *is* the disk state,
    /// so the next incremental checkpoint need not rewrite it).
    pub fn from_segments(
        node_parts: Vec<Vec<Option<Node>>>,
        edge_parts: Vec<Vec<Option<Edge>>>,
    ) -> Result<Self, String> {
        let nodes = Segments::from_parts(node_parts).map_err(|e| format!("node arena: {e}"))?;
        let edges = Segments::from_parts(edge_parts).map_err(|e| format!("edge arena: {e}"))?;
        let mut live_nodes = 0;
        for (slot, node) in nodes
            .segs
            .iter()
            .flat_map(|seg| seg.iter())
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|n| (i, n)))
        {
            if node.id.0 != slot as u64 {
                return Err(format!("node id {} stored in slot {slot}", node.id.0));
            }
            live_nodes += 1;
        }
        let mut live_edges = 0;
        for (slot, edge) in edges
            .segs
            .iter()
            .flat_map(|seg| seg.iter())
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i, e)))
        {
            if edge.id.0 != slot as u64 {
                return Err(format!("edge id {} stored in slot {slot}", edge.id.0));
            }
            live_edges += 1;
        }
        let mut store = GraphStore {
            nodes,
            edges,
            live_nodes,
            live_edges,
            ..GraphStore::default()
        };
        store.rebuild_indexes();
        store.clear_segment_dirty();
        Ok(store)
    }

    /// [`GraphStore::from_segments`] over segments a loader hashed while
    /// decoding them: the store carries their digest terms, so
    /// [`GraphStore::digest`], [`GraphStore::node_terms`] and
    /// [`GraphStore::edge_terms`] read them instead of hashing again,
    /// until the first element mutation drops them. Each segment's terms
    /// must come from its own slots.
    pub fn from_hashed_segments(
        node_parts: Vec<(Vec<Option<Node>>, SegmentTerms)>,
        edge_parts: Vec<(Vec<Option<Edge>>, SegmentTerms)>,
    ) -> Result<Self, String> {
        type Parts<T> = Vec<Vec<Option<T>>>;
        fn split<T>(
            parts: Vec<(Vec<Option<T>>, SegmentTerms)>,
        ) -> Result<(Parts<T>, Vec<u64>), String> {
            let mut terms = Vec::with_capacity(parts.len() * SEG_CAP);
            let mut slots = Vec::with_capacity(parts.len());
            for (i, (part, hashed)) in parts.into_iter().enumerate() {
                if part.len() != hashed.terms.len() {
                    return Err(format!(
                        "segment {i}: {} terms for {} slots",
                        hashed.terms.len(),
                        part.len()
                    ));
                }
                terms.extend_from_slice(&hashed.terms);
                slots.push(part);
            }
            Ok((slots, terms))
        }
        let (node_parts, nodes) = split(node_parts).map_err(|e| format!("node arena: {e}"))?;
        let (edge_parts, edges) = split(edge_parts).map_err(|e| format!("edge arena: {e}"))?;
        let mut store = Self::from_segments(node_parts, edge_parts)?;
        store.terms = Some(Arc::new(ElementTerms { nodes, edges }));
        Ok(store)
    }

    fn rebuild_indexes(&mut self) {
        self.label_index.clear();
        self.name_index.clear();
        self.out_edges.clear();
        self.in_edges.clear();
        self.touched_nodes.clear();
        self.touched_edges.clear();
        self.delta = DeltaLog::default();
        self.prop_index = PropIndexCell::default();
        let mut label_entries: Vec<(String, NodeId)> = Vec::new();
        let mut name_entries: Vec<(String, NodeId)> = Vec::new();
        for node in self.nodes.iter() {
            label_entries.push((node.label.clone(), node.id));
            if let Some(name) = node.name() {
                name_entries.push((name_key(&node.label, name), node.id));
            }
        }
        for (label, id) in label_entries {
            self.label_index.entry(label).or_default().push(id);
        }
        for (key, id) in name_entries {
            self.name_index.entry(key).or_default().push(id);
        }
        let edge_entries: Vec<(NodeId, NodeId, EdgeId)> = self
            .edges
            .iter()
            .map(|edge| (edge.from, edge.to, edge.id))
            .collect();
        for (from, to, id) in edge_entries {
            self.out_edges.entry(from).or_default().push(id);
            self.in_edges.entry(to).or_default().push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialise through serde_json and parse the bytes back.
    fn json_round_trip<T: Serialize + ?Sized, U: Deserialize>(value: &T) -> U {
        serde_json::from_slice(&serde_json::to_vec(value).unwrap()).unwrap()
    }

    #[test]
    fn create_and_lookup() {
        let mut g = GraphStore::new();
        let a = g.create_node("Malware", [("name", Value::from("wannacry"))]);
        assert_eq!(g.node(a).unwrap().name(), Some("wannacry"));
        assert_eq!(g.node_by_name("Malware", "wannacry"), Some(a));
        assert_eq!(g.node_by_name("Tool", "wannacry"), None);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn merge_node_deduplicates_exact_name() {
        let mut g = GraphStore::new();
        let a = g.merge_node(
            "Malware",
            "wannacry",
            [("vendor", Value::from("securelist"))],
        );
        let b = g.merge_node("Malware", "wannacry", [("vendor", Value::from("talos"))]);
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
        // First-writer wins on existing props.
        assert_eq!(
            g.node(a).unwrap().props["vendor"],
            Value::from("securelist")
        );
        // Different label ≠ same node.
        let c = g.merge_node("Tool", "wannacry", [] as [(&str, Value); 0]);
        assert_ne!(a, c);
    }

    #[test]
    fn edges_and_adjacency() {
        let mut g = GraphStore::new();
        let m = g.create_node("Malware", [("name", Value::from("wannacry"))]);
        let f = g.create_node("FileName", [("name", Value::from("tasksche.exe"))]);
        let e = g
            .create_edge(m, "DROP", f, [("confidence", Value::from(0.9))])
            .unwrap();
        assert_eq!(g.edge(e).unwrap().rel_type, "DROP");
        assert_eq!(g.outgoing(m).len(), 1);
        assert_eq!(g.incoming(f).len(), 1);
        assert_eq!(g.neighbors(m), vec![f]);
        assert_eq!(g.neighbors(f), vec![m]);
        assert_eq!(g.degree(m), 1);
    }

    #[test]
    fn iterator_adjacency_matches_vec_variants() {
        let mut g = GraphStore::new();
        let m = g.create_node("Malware", [("name", Value::from("wannacry"))]);
        let f = g.create_node("FileName", [("name", Value::from("tasksche.exe"))]);
        let d = g.create_node("Domain", [("name", Value::from("kill.switch"))]);
        g.create_edge(m, "DROP", f, [] as [(&str, Value); 0])
            .unwrap();
        g.create_edge(m, "CONNECTS_TO", d, [] as [(&str, Value); 0])
            .unwrap();
        g.create_edge(d, "MENTIONS", m, [] as [(&str, Value); 0])
            .unwrap();
        assert_eq!(
            g.outgoing_iter(m).map(|e| e.id).collect::<Vec<_>>(),
            g.outgoing(m).iter().map(|e| e.id).collect::<Vec<_>>()
        );
        assert_eq!(
            g.incoming_iter(m).map(|e| e.id).collect::<Vec<_>>(),
            g.incoming(m).iter().map(|e| e.id).collect::<Vec<_>>()
        );
        // d is both an outgoing target and an incoming source of m — the
        // lazy dedup must keep it single like the Vec variant does.
        assert_eq!(g.neighbors_iter(m).collect::<Vec<_>>(), g.neighbors(m));
        assert_eq!(g.neighbors(m), vec![f, d]);
        // Early exit works without draining the adjacency.
        assert!(g.neighbors_iter(m).any(|n| n == d));
    }

    #[test]
    fn merge_edge_is_idempotent() {
        let mut g = GraphStore::new();
        let a = g.create_node("Malware", [("name", Value::from("x"))]);
        let b = g.create_node("FileName", [("name", Value::from("y.exe"))]);
        let e1 = g.merge_edge(a, "DROP", b).unwrap();
        let e2 = g.merge_edge(a, "DROP", b).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
        let e3 = g.merge_edge(a, "EXECUTES", b).unwrap();
        assert_ne!(e1, e3);
    }

    #[test]
    fn delete_node_detaches() {
        let mut g = GraphStore::new();
        let a = g.create_node("Malware", [("name", Value::from("x"))]);
        let b = g.create_node("FileName", [("name", Value::from("y.exe"))]);
        g.create_edge(a, "DROP", b, [] as [(&str, Value); 0])
            .unwrap();
        g.delete_node(b).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.outgoing(a).is_empty());
        assert_eq!(g.node_by_name("FileName", "y.exe"), None);
        assert!(g.delete_node(b).is_err());
    }

    #[test]
    fn rename_maintains_index() {
        let mut g = GraphStore::new();
        let a = g.create_node("Malware", [("name", Value::from("wcry"))]);
        g.set_node_prop(a, "name", Value::from("wannacry")).unwrap();
        assert_eq!(g.node_by_name("Malware", "wannacry"), Some(a));
        assert_eq!(g.node_by_name("Malware", "wcry"), None);
    }

    #[test]
    fn label_histogram_counts() {
        let mut g = GraphStore::new();
        g.create_node("Malware", [("name", Value::from("a"))]);
        g.create_node("Malware", [("name", Value::from("b"))]);
        g.create_node("Tool", [("name", Value::from("c"))]);
        let h = g.label_histogram();
        assert_eq!(h["Malware"], 2);
        assert_eq!(h["Tool"], 1);
    }

    #[test]
    fn persistence_round_trip() {
        let mut g = GraphStore::new();
        let m = g.create_node("Malware", [("name", Value::from("wannacry"))]);
        let f = g.create_node("FileName", [("name", Value::from("tasksche.exe"))]);
        g.create_edge(m, "DROP", f, [] as [(&str, Value); 0])
            .unwrap();
        let bytes = serde_json::to_vec(&g).unwrap();
        let mut back: GraphStore = serde_json::from_slice(&bytes).unwrap();
        back.rebuild_after_load();
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.edge_count(), 1);
        assert_eq!(back.node_by_name("Malware", "wannacry"), Some(m));
        assert_eq!(back.neighbors(m), vec![f]);
        // The digest survives the round trip (tombstone layout included).
        assert_eq!(back.digest(), g.digest());
        // A fresh load reports a clean change-tracking baseline.
        assert_eq!(back.pending_changes(), 0);
    }

    #[test]
    fn segment_dirty_tracking_is_exact_and_from_segments_round_trips() {
        let mut g = GraphStore::new();
        // Fill past one segment boundary so there are multiple segments.
        let ids: Vec<NodeId> = (0..SEG_CAP + 10)
            .map(|i| g.create_node("Malware", [("name", Value::from(format!("m{i}")))]))
            .collect();
        g.create_edge(ids[0], "DROP", ids[1], [] as [(&str, Value); 0])
            .unwrap();
        // Everything is dirty on first build.
        assert_eq!(g.dirty_node_segments(), vec![0, 1]);
        assert_eq!(g.dirty_edge_segments(), vec![0]);
        g.clear_segment_dirty();
        assert!(g.dirty_node_segments().is_empty());
        // A mutation dirties exactly the segment it lands in.
        g.set_node_prop(ids[SEG_CAP + 2], "family", Value::from("worm"))
            .unwrap();
        assert_eq!(g.dirty_node_segments(), vec![1]);
        g.delete_node(ids[3]).unwrap();
        assert_eq!(g.dirty_node_segments(), vec![0, 1]);
        assert!(g.dirty_edge_segments().is_empty()); // edge of ids[0]–ids[1] untouched

        // Round trip through per-segment JSON.
        let node_parts: Vec<Vec<Option<Node>>> = (0..g.node_segment_count())
            .map(|i| json_round_trip(g.node_segment_slots(i).unwrap()))
            .collect();
        let edge_parts: Vec<Vec<Option<Edge>>> = (0..g.edge_segment_count())
            .map(|i| json_round_trip(g.edge_segment_slots(i).unwrap()))
            .collect();
        let back = GraphStore::from_segments(node_parts, edge_parts).unwrap();
        assert_eq!(back.digest(), g.digest());
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.node_slot_count(), g.node_slot_count());
        // Reassembled state equals disk state: nothing is dirty.
        assert!(back.dirty_node_segments().is_empty());
        assert!(back.dirty_edge_segments().is_empty());

        // Shape violations are clean errors, not panics.
        assert!(GraphStore::from_segments(vec![vec![None::<Node>]; 2], Vec::new()).is_err());
        let mut wrong_slot: Vec<Option<Node>> = json_round_trip(g.node_segment_slots(0).unwrap());
        wrong_slot.rotate_right(1);
        assert!(GraphStore::from_segments(vec![wrong_slot], Vec::new()).is_err());
    }

    #[test]
    fn duplicate_names_resolve_to_latest_and_never_lose_entries() {
        let mut g = GraphStore::new();
        let a = g.create_node("Malware", [("name", Value::from("x"))]);
        let b = g.create_node("Malware", [("name", Value::from("y"))]);
        // Rename b to collide with a: lookup now prefers b (latest writer)...
        g.set_node_prop(b, "name", Value::from("x")).unwrap();
        assert_eq!(g.node_by_name("Malware", "x"), Some(b));
        assert_eq!(g.nodes_by_name("Malware", "x"), vec![a, b]);
        // ...and removing b restores a instead of losing the name.
        g.delete_node(b).unwrap();
        assert_eq!(g.node_by_name("Malware", "x"), Some(a));
        // Renaming the survivor away clears the entry entirely.
        g.set_node_prop(a, "name", Value::from("z")).unwrap();
        assert_eq!(g.node_by_name("Malware", "x"), None);
        assert!(g.nodes_by_name("Malware", "x").is_empty());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut g = GraphStore::new();
        let a = g.create_node("Malware", [("name", Value::from("a"))]);
        g.delete_node(a).unwrap();
        let b = g.create_node("Malware", [("name", Value::from("b"))]);
        assert_ne!(a, b);
        assert!(g.node(a).is_none());
    }

    #[test]
    fn segments_span_boundaries_and_serialise_flat() {
        let mut g = GraphStore::new();
        let n = SEG_CAP + SEG_CAP / 2;
        let ids: Vec<NodeId> = (0..n)
            .map(|i| g.create_node("Malware", [("name", Value::from(format!("m{i}")))]))
            .collect();
        for pair in ids.windows(2).take(SEG_CAP + 3) {
            g.create_edge(pair[0], "RELATED_TO", pair[1], [] as [(&str, Value); 0])
                .unwrap();
        }
        g.delete_node(ids[SEG_CAP]).unwrap();
        assert_eq!(g.node_count(), n - 1);
        assert!(g.node(ids[SEG_CAP]).is_none());
        assert_eq!(g.node(ids[SEG_CAP + 1]).unwrap().name(), Some("m257"));
        // The JSON shape is the flat array the unsegmented arena produced:
        // one top-level array with a null at the tombstone.
        let bytes = serde_json::to_vec(&g).unwrap();
        let mut back: GraphStore = serde_json::from_slice(&bytes).unwrap();
        back.rebuild_after_load();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.digest(), g.digest());
        assert_eq!(back.neighbors(ids[1]), g.neighbors(ids[1]));
    }

    #[test]
    fn clone_shares_segments_until_mutated() {
        let mut g = GraphStore::new();
        for i in 0..(3 * SEG_CAP) {
            g.create_node("Malware", [("name", Value::from(format!("m{i}")))]);
        }
        let frozen = g.clone();
        // Mutating the original never shows through the clone.
        let id = g.node_by_name("Malware", "m0").unwrap();
        g.set_node_prop(id, "vendor", Value::from("x")).unwrap();
        assert!(!frozen.node(id).unwrap().props.contains_key("vendor"));
        assert!(g.node(id).unwrap().props.contains_key("vendor"));
        // New nodes in the original don't appear in the clone.
        g.create_node("Tool", [("name", Value::from("t"))]);
        assert_eq!(frozen.node_count(), 3 * SEG_CAP);
    }

    #[test]
    fn digest_is_incrementally_maintainable() {
        let mut g = GraphStore::new();
        let m = g.create_node("Malware", [("name", Value::from("wannacry"))]);
        let f = g.create_node("FileName", [("name", Value::from("tasksche.exe"))]);
        let e = g
            .create_edge(m, "DROP", f, [] as [(&str, Value); 0])
            .unwrap();
        let full = g.digest();
        // Rebuild the digest from individual terms: same combine.
        let manual = DIGEST_SEED
            .wrapping_add(node_digest(g.node(m).unwrap()))
            .wrapping_add(node_digest(g.node(f).unwrap()))
            .wrapping_add(edge_digest(g.edge(e).unwrap()));
        assert_eq!(full, manual);
        // Incremental update across a mutation: subtract old, add new.
        let old_term = node_digest(g.node(m).unwrap());
        g.set_node_prop(m, "vendor", Value::from("talos")).unwrap();
        let incremental = full
            .wrapping_sub(old_term)
            .wrapping_add(node_digest(g.node(m).unwrap()));
        assert_eq!(incremental, g.digest());
        // Deletion: the edge term and the node term drop out.
        let edge_term = edge_digest(g.edge(e).unwrap());
        let f_term = node_digest(g.node(f).unwrap());
        g.delete_node(f).unwrap();
        assert_eq!(
            g.digest(),
            incremental.wrapping_sub(edge_term).wrapping_sub(f_term)
        );
        // Digest depends on live content only, not tombstone history: a
        // fresh store that never saw f or the edge agrees element-for-element.
        let mut h = GraphStore::new();
        let hm = h.create_node("Malware", [("name", Value::from("wannacry"))]);
        h.set_node_prop(hm, "vendor", Value::from("talos")).unwrap();
        assert_eq!(g.digest(), h.digest());
    }

    #[test]
    fn change_tracking_drains_touched_elements() {
        let mut g = GraphStore::new();
        assert_eq!(g.pending_changes(), 0);
        let cursor = g.register_delta_consumer();
        // Everything the cursor has not read yet, merged across batches.
        let drain = |g: &mut GraphStore| {
            let batches = g.collect_changes(cursor);
            assert!(batches.len() <= 1, "one seal point per collect");
            batches
                .first()
                .map(|batch| GraphChanges::clone(&batch.changes))
                .unwrap_or_default()
        };
        let m = g.create_node("Malware", [("name", Value::from("a"))]);
        let f = g.create_node("FileName", [("name", Value::from("b.exe"))]);
        let e = g
            .create_edge(m, "DROP", f, [] as [(&str, Value); 0])
            .unwrap();
        let changes = drain(&mut g);
        assert_eq!(changes.nodes, vec![m, f]);
        assert_eq!(changes.edges, vec![(e, m, f)]);
        assert!(drain(&mut g).is_empty());
        // Deleting the node touches it and its edge (endpoints preserved).
        g.delete_node(f).unwrap();
        let changes = drain(&mut g);
        assert_eq!(changes.nodes, vec![f]);
        assert_eq!(changes.edges, vec![(e, m, f)]);
        // A no-op merge on an existing node does not dirty it.
        drain(&mut g);
        g.merge_node("Malware", "a", [] as [(&str, Value); 0]);
        assert!(drain(&mut g).is_empty());
        // A prop-filling merge does.
        g.merge_node("Malware", "a", [("vendor", Value::from("x"))]);
        assert_eq!(drain(&mut g).nodes, vec![m]);
    }

    /// The regression the delta log exists for: with a destructive
    /// single-consumer drain, whichever consumer read first emptied the
    /// touched-set and the other silently saw nothing. Two cursors must each
    /// observe every change exactly once, regardless of interleaving.
    #[test]
    fn two_interleaved_consumers_each_see_every_change_exactly_once() {
        let mut g = GraphStore::new();
        let c1 = g.register_delta_consumer();
        let c2 = g.register_delta_consumer();

        let a = g.create_node("Malware", [("name", Value::from("a"))]);
        // Consumer 1 reads first — under the destructive API this would have
        // drained the change out from under consumer 2.
        let got1 = g.collect_changes(c1);
        assert_eq!(got1.len(), 1);
        assert_eq!(got1[0].changes.nodes, vec![a]);

        let b = g.create_node("Tool", [("name", Value::from("b"))]);
        let e = g
            .create_edge(a, "USES", b, [] as [(&str, Value); 0])
            .unwrap();

        // Consumer 2 catches up: both spans, exactly once, in order.
        let got2 = g.collect_changes(c2);
        let nodes2: Vec<NodeId> = got2
            .iter()
            .flat_map(|batch| batch.changes.nodes.iter().copied())
            .collect();
        let edges2: Vec<EdgeId> = got2
            .iter()
            .flat_map(|batch| batch.changes.edges.iter().map(|&(id, _, _)| id))
            .collect();
        assert_eq!(nodes2, vec![a, b]);
        assert_eq!(edges2, vec![e]);

        // Consumer 1 sees only the second span (it already consumed `a`),
        // under the same sequence number consumer 2 saw for that span.
        let got1 = g.collect_changes(c1);
        assert_eq!(got1.len(), 1);
        assert_eq!(got1[0].changes.nodes, vec![b]);
        assert_eq!(got1[0].seq, got2.last().unwrap().seq);

        // Fully drained on both sides: nothing more to read.
        assert!(g.collect_changes(c1).is_empty());
        assert!(g.collect_changes(c2).is_empty());
    }

    #[test]
    fn delta_log_prunes_once_the_slowest_cursor_catches_up() {
        let mut g = GraphStore::new();
        let fast = g.register_delta_consumer();
        let slow = g.register_delta_consumer();
        for i in 0..4 {
            g.create_node("Malware", [("name", Value::from(format!("m{i}")))]);
            assert_eq!(g.collect_changes(fast).len(), 1);
        }
        // The slow cursor pins all four sealed batches.
        assert_eq!(g.delta_backlog(), 4);
        assert_eq!(g.collect_changes(slow).len(), 4);
        assert_eq!(g.delta_backlog(), 0);

        // Releasing a lagging cursor also unpins the log.
        g.create_node("Tool", [("name", Value::from("t"))]);
        g.seal_changes();
        assert_eq!(g.delta_backlog(), 1);
        g.release_delta_consumer(slow);
        assert_eq!(g.collect_changes(fast).len(), 1);
        assert_eq!(g.delta_backlog(), 0);
        // A released cursor reads nothing, even after new changes.
        g.create_node("Tool", [("name", Value::from("u"))]);
        assert!(g.collect_changes(slow).is_empty());
    }

    /// `collect_sealed_changes` reads only up to the last explicit seal
    /// point, leaving post-seal mutations pending for the next epoch.
    #[test]
    fn sealed_only_collection_stops_at_the_seal_point() {
        let mut g = GraphStore::new();
        let c = g.register_delta_consumer();
        let a = g.create_node("Malware", [("name", Value::from("a"))]);
        g.seal_changes();
        let b = g.create_node("Malware", [("name", Value::from("b"))]);
        let sealed = g.collect_sealed_changes(c);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].changes.nodes, vec![a]);
        assert_eq!(g.pending_changes(), 1);
        // The pending tail arrives with the next sealing collection.
        let rest = g.collect_changes(c);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].changes.nodes, vec![b]);
    }

    /// A fixed graph whose labels, keys and values cover every JSON escape
    /// and every `Value` variant (NaN and ±0.0 included, which encode as
    /// `null`, `0` and `-0`), with a delete and a rename in its history.
    fn golden_graph() -> GraphStore {
        let mut every_control: String = (0u8..0x20).map(char::from).collect();
        every_control.push('\u{7f}');
        let mut g = GraphStore::new();
        let a = g.create_node(
            "Malware",
            [
                ("name", Value::from("wanna\"cry\\")),
                ("controls", Value::from(every_control.clone())),
                ("empty", Value::from("")),
                (
                    "utf8",
                    Value::from("h\u{e9}llo \u{2028}\u{2029} \u{1F600} \u{4e2d}"),
                ),
                ("null", Value::Null),
                ("yes", Value::Bool(true)),
                ("no", Value::Bool(false)),
                ("int", Value::Int(i64::MIN)),
                ("nan", Value::Float(f64::NAN)),
                ("zero", Value::Float(0.0)),
                ("neg_zero", Value::Float(-0.0)),
                ("float", Value::Float(-1.0e-300)),
                ("inf", Value::Float(f64::INFINITY)),
            ],
        );
        let b = g.create_node(
            "File\"Name",
            [
                ("name", Value::from("tasks\tche\n.exe")),
                ("key \"\\\u{1}\u{2028}", Value::from("escaped key")),
                (every_control.as_str(), Value::Int(7)),
            ],
        );
        let c = g.create_node("Tool", [("name", Value::from("gone"))]);
        let d = g.create_node("ThreatActor", [("name", Value::from("lazarus"))]);
        g.set_node_prop(
            a,
            "list",
            Value::List(vec![
                Value::Int(1),
                Value::from("\u{8}\u{c}"),
                Value::List(vec![Value::Null, Value::Float(2.5)]),
                Value::Node(b),
                Value::Edge(EdgeId(0)),
            ]),
        )
        .unwrap();
        g.create_edge(a, "DROP", b, [("why", Value::Node(d))])
            .unwrap();
        g.create_edge(d, "USE\\", a, [("seen", Value::Edge(EdgeId(0)))])
            .unwrap();
        g.create_edge(c, "USE", a, [] as [(&str, Value); 0])
            .unwrap();
        g.delete_node(c).unwrap();
        g.set_node_prop(d, "name", Value::from("hidden cobra \u{7f}"))
            .unwrap();
        g
    }

    /// Pins canon-key routing: the streamed hash equals hashing the
    /// composite merge-index key, shard by shard.
    #[test]
    fn canon_shard_is_pinned() {
        for (label, name, want) in [
            ("Malware", "wannacry", [1, 0, 0]),
            ("ThreatActor", "lazarus group", [1, 2, 0]),
            ("Tool", "mimikatz", [1, 1, 2]),
        ] {
            let key = name_key(label, name);
            for (shards, want) in [2usize, 3, 7].into_iter().zip(want) {
                assert_eq!(canon_shard(label, name, shards), want, "{label}/{name}");
                let whole = (fnv1a64_pinned(key.as_bytes()) % shards as u64) as usize;
                assert_eq!(canon_shard(label, name, shards), whole);
            }
        }
    }

    /// Pins the bytes every digest term hashes: any change to the element
    /// JSON encoding (escaping, map keys, numbers) moves this constant.
    #[test]
    fn golden_digest_is_pinned() {
        let g = golden_graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(
            g.digest(),
            0x1a6a_3642_3529_13a2,
            "golden digest moved: {:#018x}",
            g.digest()
        );
    }
}
