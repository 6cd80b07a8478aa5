//! Plan-once / bind-many compilation of read queries.
//!
//! [`CompiledPlan::compile`] lowers a parsed [`Query::Read`] into a logical
//! plan: an index-backed scan choice per pattern (name index → equality
//! property index → label index → full scan, replicating the interpreter's
//! candidate precedence exactly), compiled node/edge matchers with dense
//! slot-indexed rows instead of `HashMap` bindings, compiled expressions,
//! and a projection program. Plans are snapshot-independent — they evaluate
//! against anything implementing [`GraphSnapshot`], so one artifact serves
//! the live store, frozen epochs, and per-shard replicas — and parameter
//! references (`$name`) resolve at execution time, so one plan serves many
//! bindings.
//!
//! A plan runs through one pipeline whether one snapshot or N shards
//! answer: [`CompiledPlan::scatter_on`] matches, filters and materializes
//! the rows whose anchor a snapshot owns, and [`CompiledPlan::gather`]
//! merges and projects them. [`CompiledPlan::execute_on`] is the unsharded
//! call — one scatter owning every anchor, then the gather.
//!
//! Correctness contract: for every query and every snapshot,
//! `plan.execute_on(snap, params)` returns byte-identical results (and
//! errors) to the interpreted oracle,
//! [`super::execute_read_with_params`], and the gather of any ownership
//! partition's scatters equals it too. The differential
//! proptest battery in `tests/plan_props.rs` enforces this. The subtle part
//! is scan selection under WHERE-conjunct lifting: narrowing candidates via
//! the property index must not skip rows whose filter evaluation would have
//! *errored* in the oracle (unbound parameter, aggregate in WHERE), so a
//! lifted conjunct is used only when every conjunct evaluated before it is
//! infallible under the current bindings — otherwise the plan degrades to
//! the interpreter's own scan at bind time.

use super::exec::QueryResult;
use super::{CmpOp, CypherError, Direction, Expr, NodePattern, Params, Query};
use crate::snapshot::GraphSnapshot;
use crate::store::{EdgeId, NodeId};
use crate::value::Value;
use std::collections::HashSet;

/// A variable binding in a dense slot row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CBinding {
    Node(NodeId),
    Edge(EdgeId),
}

/// One partial match: slot index → binding. `Vec` clone + index beats the
/// interpreter's per-row `HashMap` on every hot path.
type CRow = Vec<Option<CBinding>>;

/// A literal or a parameter reference, resolved at bind time.
#[derive(Debug, Clone)]
enum CValue {
    Lit(Value),
    Param(usize),
}

/// How to enumerate candidates for a pattern's anchor node.
#[derive(Debug, Clone)]
enum Scan {
    /// The anchor variable is already bound by an earlier pattern.
    Bound(usize),
    /// `(label, name)` point lookup — latest writer wins, exactly like the
    /// interpreter's name-index fast path.
    ByName { label: String, name: String },
    /// Label index scan (may be tightened to a property-index scan at bind
    /// time, see [`CPattern::map_eq`] / [`CompiledPlan::lifted`]).
    ByLabel(String),
    /// Full node scan (same bind-time tightening applies).
    Full,
}

/// Compiled node matcher: label + literal property map, with the slot the
/// node binds (if the pattern names a variable).
#[derive(Debug, Clone)]
struct CNode {
    slot: Option<usize>,
    label: Option<String>,
    props: Vec<(String, Value)>,
}

/// One compiled relationship hop.
#[derive(Debug, Clone)]
struct CStep {
    rel_type: Option<String>,
    direction: Direction,
    /// `Some((lo, hi))` for var-length expansion.
    hops: Option<(usize, usize)>,
    edge_slot: Option<usize>,
    node: CNode,
}

/// One compiled path pattern.
#[derive(Debug, Clone)]
struct CPattern {
    scan: Scan,
    /// First `Text`-valued literal from the anchor's property map — an
    /// always-safe equality-index opportunity (the anchor matcher re-checks
    /// every constraint, so index and scan produce identical row sets).
    map_eq: Option<(String, Value)>,
    anchor: CNode,
    steps: Vec<CStep>,
}

/// Compiled expression over slot rows.
#[derive(Debug, Clone)]
enum CExpr {
    Lit(Value),
    Param(usize),
    Var(usize),
    /// Variable not bound by any pattern — NULL, like the interpreter.
    UnboundVar,
    Prop(usize, String),
    UnboundProp,
    Compare(Box<CExpr>, CmpOp, Box<CExpr>),
    And(Box<CExpr>, Box<CExpr>),
    Or(Box<CExpr>, Box<CExpr>),
    Not(Box<CExpr>),
    Contains(Box<CExpr>, Box<CExpr>),
    StartsWith(Box<CExpr>, Box<CExpr>),
    EndsWith(Box<CExpr>, Box<CExpr>),
    /// Any aggregate in an expression position — always an evaluation
    /// error ("aggregate outside RETURN"), so the inner is not kept.
    Aggregate,
}

/// One compiled RETURN item.
#[derive(Debug, Clone)]
enum CItem {
    Value(CExpr),
    CountStar,
    Count(CExpr),
}

impl CItem {
    fn is_aggregate(&self) -> bool {
        matches!(self, CItem::CountStar | CItem::Count(_))
    }
}

/// The compiled projection program.
#[derive(Debug, Clone)]
struct CReturn {
    columns: Vec<String>,
    distinct: bool,
    items: Vec<CItem>,
    order_by: Option<(CExpr, bool)>,
    /// On the aggregate path, the RETURN column whose AST expression equals
    /// the ORDER BY expression (precomputed from the ASTs).
    order_col: Option<usize>,
    has_aggregate: bool,
    skip: usize,
    limit: Option<usize>,
}

/// A `WHERE` conjunct `anchor.key = <text literal | $param>` lifted into
/// pattern 0's anchor scan, with the safety facts needed to decide at bind
/// time whether narrowing is observable-behavior-preserving.
#[derive(Debug, Clone)]
struct LiftedEq {
    key: String,
    value: CValue,
    /// Parameters referenced by conjuncts the interpreter would evaluate
    /// *before* this one; if any is unbound, the oracle may error on a row
    /// the narrowed scan would skip, so the lift is abandoned.
    prefix_params: Vec<usize>,
    /// Same reasoning for aggregates in preceding conjuncts (always an
    /// evaluation error in WHERE).
    prefix_has_aggregate: bool,
}

/// One materialized row produced by [`CompiledPlan::scatter_on`] on the
/// snapshot (or shard) owning its anchor node. Values are evaluated
/// scatter-side (each shard holds a full replica, so property lookups
/// resolve locally); [`CompiledPlan::gather`] re-orders by `(anchor, seq)`
/// and runs the projection over the materialized values.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterRow {
    /// The first pattern's first-node binding — the row's routing anchor.
    pub anchor: NodeId,
    /// Per-scatter running row number; for a fixed anchor, local generation
    /// order equals global generation order.
    pub seq: u32,
    /// Per RETURN item: the evaluated expression, except aggregates —
    /// `count(expr)` stores the evaluated inner expression (so gather can
    /// count non-NULLs) and `count(*)` stores a NULL placeholder.
    pub items: Vec<Value>,
    /// The ORDER BY expression evaluated against the source row; only
    /// populated on the non-aggregate path, where ordering is per-row.
    pub order: Option<Value>,
}

/// A compiled, snapshot-independent query plan. See the module docs.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Slot names (node/edge variables) in first-appearance order.
    slots: Vec<String>,
    /// Parameter names in first-use order; [`CExpr::Param`] indexes this.
    params: Vec<String>,
    patterns: Vec<CPattern>,
    filter: Option<CExpr>,
    lifted: Option<LiftedEq>,
    ret: CReturn,
}

/// Bind-time state: the snapshot plus resolved parameter references.
struct Ctx<'a, S: ?Sized> {
    snap: &'a S,
    resolved: Vec<Option<&'a Value>>,
}

fn slot_of(slots: &mut Vec<String>, name: &str) -> usize {
    match slots.iter().position(|s| s == name) {
        Some(i) => i,
        None => {
            slots.push(name.to_owned());
            slots.len() - 1
        }
    }
}

fn param_of(params: &mut Vec<String>, name: &str) -> usize {
    match params.iter().position(|s| s == name) {
        Some(i) => i,
        None => {
            params.push(name.to_owned());
            params.len() - 1
        }
    }
}

fn compile_expr(expr: &Expr, slots: &[String], params: &mut Vec<String>) -> CExpr {
    let slot = |name: &str| slots.iter().position(|s| s == name);
    match expr {
        Expr::Literal(v) => CExpr::Lit(v.clone()),
        Expr::Param(name) => CExpr::Param(param_of(params, name)),
        Expr::Var(name) => match slot(name) {
            Some(i) => CExpr::Var(i),
            None => CExpr::UnboundVar,
        },
        Expr::Prop(var, key) => match slot(var) {
            Some(i) => CExpr::Prop(i, key.clone()),
            None => CExpr::UnboundProp,
        },
        Expr::Compare(l, op, r) => CExpr::Compare(
            Box::new(compile_expr(l, slots, params)),
            *op,
            Box::new(compile_expr(r, slots, params)),
        ),
        Expr::And(l, r) => CExpr::And(
            Box::new(compile_expr(l, slots, params)),
            Box::new(compile_expr(r, slots, params)),
        ),
        Expr::Or(l, r) => CExpr::Or(
            Box::new(compile_expr(l, slots, params)),
            Box::new(compile_expr(r, slots, params)),
        ),
        Expr::Not(e) => CExpr::Not(Box::new(compile_expr(e, slots, params))),
        Expr::Contains(l, r) => CExpr::Contains(
            Box::new(compile_expr(l, slots, params)),
            Box::new(compile_expr(r, slots, params)),
        ),
        Expr::StartsWith(l, r) => CExpr::StartsWith(
            Box::new(compile_expr(l, slots, params)),
            Box::new(compile_expr(r, slots, params)),
        ),
        Expr::EndsWith(l, r) => CExpr::EndsWith(
            Box::new(compile_expr(l, slots, params)),
            Box::new(compile_expr(r, slots, params)),
        ),
        Expr::CountStar | Expr::Count(_) => CExpr::Aggregate,
    }
}

/// Flatten an `AND` tree into conjuncts in the interpreter's left-to-right,
/// short-circuiting evaluation order.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::And(l, r) = e {
            walk(l, out);
            walk(r, out);
        } else {
            out.push(e);
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

fn collect_params<'a>(expr: &'a Expr, out: &mut Vec<&'a str>) {
    match expr {
        Expr::Param(name) => out.push(name),
        Expr::Compare(l, _, r)
        | Expr::And(l, r)
        | Expr::Or(l, r)
        | Expr::Contains(l, r)
        | Expr::StartsWith(l, r)
        | Expr::EndsWith(l, r) => {
            collect_params(l, out);
            collect_params(r, out);
        }
        Expr::Not(e) | Expr::Count(e) => collect_params(e, out),
        Expr::Literal(_) | Expr::Var(_) | Expr::Prop(..) | Expr::CountStar => {}
    }
}

impl CompiledPlan {
    /// Compile a read query. Write queries are rejected with the same error
    /// the interpreted read path raises.
    pub fn compile(query: &Query) -> Result<CompiledPlan, CypherError> {
        let Query::Read {
            patterns,
            filter,
            ret,
        } = query
        else {
            return Err(CypherError::Exec(
                "write query on the read-only path".into(),
            ));
        };
        let mut slots: Vec<String> = Vec::new();
        let mut params: Vec<String> = Vec::new();
        let mut cpatterns: Vec<CPattern> = Vec::new();
        let mut bound: HashSet<usize> = HashSet::new();

        for pattern in patterns {
            let anchor_np = &pattern.nodes[0];
            let anchor_slot = anchor_np.var.as_deref().map(|v| slot_of(&mut slots, v));
            let scan = match anchor_slot {
                Some(s) if bound.contains(&s) => Scan::Bound(s),
                _ => match &anchor_np.label {
                    Some(label) => match first_name_text(anchor_np) {
                        Some(name) => Scan::ByName {
                            label: label.clone(),
                            name: name.to_owned(),
                        },
                        None => Scan::ByLabel(label.clone()),
                    },
                    None => Scan::Full,
                },
            };
            let map_eq = match scan {
                Scan::ByLabel(_) | Scan::Full => anchor_np
                    .props
                    .iter()
                    .find(|(_, v)| v.as_text().is_some())
                    .map(|(k, v)| (k.clone(), v.clone())),
                _ => None,
            };
            let anchor = CNode {
                slot: anchor_slot,
                label: anchor_np.label.clone(),
                props: anchor_np.props.clone(),
            };
            let mut steps = Vec::with_capacity(pattern.rels.len());
            for (i, rel) in pattern.rels.iter().enumerate() {
                let np = &pattern.nodes[i + 1];
                steps.push(CStep {
                    rel_type: rel.rel_type.clone(),
                    direction: rel.direction,
                    hops: rel.hops,
                    edge_slot: rel.var.as_deref().map(|v| slot_of(&mut slots, v)),
                    node: CNode {
                        slot: np.var.as_deref().map(|v| slot_of(&mut slots, v)),
                        label: np.label.clone(),
                        props: np.props.clone(),
                    },
                });
            }
            // Everything this pattern names is bound in every surviving row.
            bound.extend(anchor_slot);
            for s in &steps {
                bound.extend(s.edge_slot);
                bound.extend(s.node.slot);
            }
            cpatterns.push(CPattern {
                scan,
                map_eq,
                anchor,
                steps,
            });
        }

        let cfilter = filter
            .as_ref()
            .map(|e| compile_expr(e, &slots, &mut params));
        let lifted = filter
            .as_ref()
            .and_then(|f| analyze_lift(f, &patterns[0].nodes[0], &cpatterns[0], &mut params));

        let items: Vec<CItem> = ret
            .items
            .iter()
            .map(|i| match &i.expr {
                Expr::CountStar => CItem::CountStar,
                Expr::Count(inner) => CItem::Count(compile_expr(inner, &slots, &mut params)),
                e => CItem::Value(compile_expr(e, &slots, &mut params)),
            })
            .collect();
        let has_aggregate = items.iter().any(CItem::is_aggregate);
        let order_by = ret
            .order_by
            .as_ref()
            .map(|(e, asc)| (compile_expr(e, &slots, &mut params), *asc));
        let order_col = ret
            .order_by
            .as_ref()
            .and_then(|(e, _)| ret.items.iter().position(|i| &i.expr == e));
        let cret = CReturn {
            columns: ret
                .items
                .iter()
                .map(|i| i.alias.clone().unwrap_or_else(|| i.text.trim().to_owned()))
                .collect(),
            distinct: ret.distinct,
            items,
            order_by,
            order_col,
            has_aggregate,
            skip: ret.skip.unwrap_or(0),
            limit: ret.limit,
        };

        Ok(CompiledPlan {
            slots,
            params,
            patterns: cpatterns,
            filter: cfilter,
            lifted,
            ret: cret,
        })
    }

    /// Parameter names this plan references, in first-use order.
    pub fn param_names(&self) -> &[String] {
        &self.params
    }

    /// Human-readable plan description: scan kind per pattern (and which
    /// index backs it), hop bounds, filter/projection facts.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.patterns.iter().enumerate() {
            out.push_str(&format!("pattern {i}: "));
            match &p.scan {
                Scan::Bound(slot) => {
                    out.push_str(&format!("bound({})", self.slots[*slot]));
                }
                Scan::ByName { label, name } => {
                    out.push_str(&format!("name-index({label}, {name:?})"));
                }
                Scan::ByLabel(label) => out.push_str(&format!("label-index({label})")),
                Scan::Full => out.push_str("full-scan"),
            }
            if let Some((key, value)) = &p.map_eq {
                out.push_str(&format!(" + prop-index({key} = {value:?})"));
            }
            if i == 0 {
                if let Some(l) = &self.lifted {
                    let v = match &l.value {
                        CValue::Lit(v) => format!("{v:?}"),
                        CValue::Param(p) => format!("${}", self.params[*p]),
                    };
                    out.push_str(&format!(
                        " + prop-index({} = {v}, lifted from WHERE)",
                        l.key
                    ));
                }
            }
            for s in &p.steps {
                let arrow = match s.direction {
                    Direction::Out => "->",
                    Direction::In => "<-",
                    Direction::Either => "--",
                };
                let t = s.rel_type.as_deref().unwrap_or("*any*");
                match s.hops {
                    Some((lo, hi)) => out.push_str(&format!(" {arrow}[{t} *{lo}..{hi}]")),
                    None => out.push_str(&format!(" {arrow}[{t}]")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "filter: {}, params: [{}], aggregate: {}, distinct: {}\n",
            if self.filter.is_some() { "yes" } else { "no" },
            self.params.join(", "),
            self.ret.has_aggregate,
            self.ret.distinct,
        ));
        out
    }

    /// Execute against any snapshot: the scatter half owning every anchor,
    /// then the gather. Differentially equal to the interpreted oracle
    /// (`execute_read_with_params`) — results *and* errors.
    pub fn execute_on<S: GraphSnapshot + ?Sized>(
        &self,
        snap: &S,
        params: &Params,
    ) -> Result<QueryResult, CypherError> {
        Ok(self.gather(self.scatter_on(snap, params, &|_| true)?))
    }

    /// Shard-side half of a read: run the match/filter pipeline restricted
    /// to rows whose *anchor* — pattern 0's first-node candidate —
    /// satisfies `owns`, and materialize each surviving row's RETURN-item
    /// and ORDER BY values.
    ///
    /// Every row has exactly one anchor, so running this on each shard of a
    /// partition (with `owns` = that shard's ownership test) produces every
    /// row of the unsharded read exactly once across the fleet. Candidate
    /// enumeration is ascending-id on every scan (ids are dense and never
    /// reused; the label, name and property indexes preserve creation
    /// order), and later patterns and path extensions run against the
    /// snapshot's full replica, so sorting the union by `(anchor, seq)`
    /// reproduces the single-store row order exactly.
    pub fn scatter_on<S: GraphSnapshot + ?Sized>(
        &self,
        snap: &S,
        params: &Params,
        owns: &dyn Fn(NodeId) -> bool,
    ) -> Result<Vec<ScatterRow>, CypherError> {
        let ctx = self.bind(snap, params);
        // Pattern 0: enumerate anchors, keep only owned ones. The anchor
        // scan is never `Bound` (a first pattern's variable cannot be bound
        // before any pattern ran).
        let first = &self.patterns[0];
        let mut anchored: Vec<(NodeId, CRow)> = Vec::new();
        for start in self.static_candidates(&ctx, 0) {
            if !owns(start) {
                continue;
            }
            let mut row: CRow = vec![None; self.slots.len()];
            if let Some(slot) = first.anchor.slot {
                row[slot] = Some(CBinding::Node(start));
            }
            let mut out = Vec::new();
            self.extend(&ctx, first, 0, start, row, &mut Vec::new(), &mut out);
            anchored.extend(out.into_iter().map(|r| (start, r)));
        }
        // Remaining patterns join against the full replica, anchor unchanged.
        for pi in 1..self.patterns.len() {
            let statics = match self.patterns[pi].scan {
                Scan::Bound(_) => None,
                _ => Some(self.static_candidates(&ctx, pi)),
            };
            let mut next = Vec::new();
            for (anchor, row) in anchored {
                let mut out = Vec::new();
                self.expand_row(&ctx, pi, row, statics.as_deref(), &mut out);
                next.extend(out.into_iter().map(|r| (anchor, r)));
            }
            anchored = next;
        }
        // WHERE.
        if let Some(expr) = &self.filter {
            let mut kept = Vec::with_capacity(anchored.len());
            for (anchor, row) in anchored {
                if self.eval(&ctx, &row, expr)?.truthy() {
                    kept.push((anchor, row));
                }
            }
            anchored = kept;
        }
        // Materialize in the oracle's evaluation order, so the first error
        // raised is the one it raises: every row's projected items first,
        // then the per-row ORDER BY keys — or, with aggregates, the
        // `count(expr)` inputs (`count(*)` keeps a NULL placeholder).
        let mut out = Vec::with_capacity(anchored.len());
        for (seq, (anchor, row)) in anchored.iter().enumerate() {
            let mut items = Vec::with_capacity(self.ret.items.len());
            for item in &self.ret.items {
                items.push(match item {
                    CItem::Value(expr) => self.eval(&ctx, row, expr)?,
                    CItem::CountStar | CItem::Count(_) => Value::Null,
                });
            }
            out.push(ScatterRow {
                anchor: *anchor,
                seq: seq as u32,
                items,
                order: None,
            });
        }
        if self.ret.has_aggregate {
            for (scattered, (_, row)) in out.iter_mut().zip(&anchored) {
                for (value, item) in scattered.items.iter_mut().zip(&self.ret.items) {
                    if let CItem::Count(inner) = item {
                        *value = self.eval(&ctx, row, inner)?;
                    }
                }
            }
        } else if let Some((expr, _)) = &self.ret.order_by {
            for (scattered, (_, row)) in out.iter_mut().zip(&anchored) {
                scattered.order = Some(self.eval(&ctx, row, expr)?);
            }
        }
        Ok(out)
    }

    /// Gather-side half of a read: merge [`CompiledPlan::scatter_on`] rows
    /// (from one snapshot or from every shard) back into global row order
    /// and run the projection — implicit aggregate grouping, ORDER BY,
    /// DISTINCT, SKIP, LIMIT — over the materialized values. Needs no
    /// snapshot: every value was evaluated scatter-side.
    pub fn gather(&self, mut scatter: Vec<ScatterRow>) -> QueryResult {
        let ret = &self.ret;
        scatter.sort_by(|a, b| a.anchor.cmp(&b.anchor).then(a.seq.cmp(&b.seq)));
        let mut out_rows: Vec<Vec<Value>> = if ret.has_aggregate {
            // Implicit grouping by the non-aggregate items, first-seen order.
            let mut groups: Vec<(Vec<Value>, Vec<&ScatterRow>)> = Vec::new();
            for row in &scatter {
                let key: Vec<Value> = ret
                    .items
                    .iter()
                    .zip(&row.items)
                    .filter(|(i, _)| !i.is_aggregate())
                    .map(|(_, v)| v.clone())
                    .collect();
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            let mut rows: Vec<Vec<Value>> = groups
                .into_iter()
                .map(|(key, members)| {
                    let mut key = key.into_iter();
                    ret.items
                        .iter()
                        .enumerate()
                        .map(|(col, item)| match item {
                            CItem::CountStar => Value::Int(members.len() as i64),
                            CItem::Count(_) => Value::Int(
                                members
                                    .iter()
                                    .filter(|m| !matches!(m.items[col], Value::Null))
                                    .count() as i64,
                            ),
                            CItem::Value(_) => key.next().unwrap_or(Value::Null),
                        })
                        .collect()
                })
                .collect();
            // ORDER BY sorts on the RETURN column it names, if any.
            if let (Some((_, asc)), Some(col)) = (&ret.order_by, ret.order_col) {
                rows.sort_by(|a, b| directed(a[col].cmp_order(&b[col]), *asc));
            }
            rows
        } else {
            if let Some((_, asc)) = &ret.order_by {
                fn key(r: &ScatterRow) -> &Value {
                    r.order.as_ref().unwrap_or(&Value::Null)
                }
                scatter.sort_by(|a, b| directed(key(a).cmp_order(key(b)), *asc));
            }
            scatter.into_iter().map(|r| r.items).collect()
        };
        if ret.distinct {
            let mut seen: Vec<Vec<Value>> = Vec::new();
            out_rows.retain(|row| {
                if seen.contains(row) {
                    false
                } else {
                    seen.push(row.clone());
                    true
                }
            });
        }
        out_rows.drain(..ret.skip.min(out_rows.len()));
        if let Some(limit) = ret.limit {
            out_rows.truncate(limit);
        }
        QueryResult {
            columns: ret.columns.clone(),
            rows: out_rows,
            ..QueryResult::default()
        }
    }

    // ---- internals -------------------------------------------------------

    fn bind<'a, S: ?Sized>(&self, snap: &'a S, params: &'a Params) -> Ctx<'a, S> {
        Ctx {
            snap,
            resolved: self.params.iter().map(|n| params.get(n)).collect(),
        }
    }

    /// Candidates for a non-`Bound` anchor scan; row-independent, so callers
    /// compute this once per pattern per execution.
    fn static_candidates<S: GraphSnapshot + ?Sized>(
        &self,
        ctx: &Ctx<'_, S>,
        pi: usize,
    ) -> Vec<NodeId> {
        let pat = &self.patterns[pi];
        let matches = |id: &NodeId| cnode_matches(ctx.snap, *id, &pat.anchor);
        match &pat.scan {
            Scan::Bound(_) => Vec::new(),
            Scan::ByName { label, name } => ctx
                .snap
                .node_by_name(label, name)
                .into_iter()
                .filter(matches)
                .collect(),
            Scan::ByLabel(label) => match self.index_candidates(ctx, pi) {
                Some(ids) => ids.into_iter().filter(matches).collect(),
                None => ctx
                    .snap
                    .nodes_with_label(label)
                    .into_iter()
                    .filter(matches)
                    .collect(),
            },
            Scan::Full => match self.index_candidates(ctx, pi) {
                Some(ids) => ids.into_iter().filter(matches).collect(),
                None => ctx
                    .snap
                    .all_node_ids()
                    .into_iter()
                    .filter(matches)
                    .collect(),
            },
        }
    }

    /// Equality-property-index candidates for pattern `pi`'s anchor, if an
    /// index applies *and* narrowing is safe under the current bindings.
    /// `None` falls back to the interpreter's own scan.
    fn index_candidates<S: GraphSnapshot + ?Sized>(
        &self,
        ctx: &Ctx<'_, S>,
        pi: usize,
    ) -> Option<Vec<NodeId>> {
        let pat = &self.patterns[pi];
        if let Some((key, value)) = &pat.map_eq {
            // Prop-map constraints are re-checked by the anchor matcher, so
            // the index is always safe when the snapshot provides one.
            return ctx.snap.nodes_with_prop_eq(key, value);
        }
        if pi != 0 {
            return None;
        }
        let lifted = self.lifted.as_ref()?;
        if lifted.prefix_has_aggregate {
            return None;
        }
        if lifted
            .prefix_params
            .iter()
            .any(|&p| ctx.resolved[p].is_none())
        {
            return None;
        }
        let value: &Value = match &lifted.value {
            CValue::Lit(v) => v,
            CValue::Param(p) => ctx.resolved[*p]?,
        };
        ctx.snap.nodes_with_prop_eq(&lifted.key, value)
    }

    fn expand_row<S: GraphSnapshot + ?Sized>(
        &self,
        ctx: &Ctx<'_, S>,
        pi: usize,
        row: CRow,
        statics: Option<&[NodeId]>,
        out: &mut Vec<CRow>,
    ) {
        let pat = &self.patterns[pi];
        let bound_candidate = match pat.scan {
            Scan::Bound(slot) => match row[slot] {
                Some(CBinding::Node(id)) if cnode_matches(ctx.snap, id, &pat.anchor) => {
                    Some(vec![id])
                }
                _ => Some(Vec::new()),
            },
            _ => None,
        };
        let candidates: &[NodeId] = match &bound_candidate {
            Some(c) => c,
            None => statics.unwrap_or(&[]),
        };
        for &start in candidates {
            let mut row = row.clone();
            if let Some(slot) = pat.anchor.slot {
                row[slot] = Some(CBinding::Node(start));
            }
            self.extend(ctx, pat, 0, start, row, &mut Vec::new(), out);
        }
    }

    /// Extend a partial path match from `pat.steps[step]` bound to `at` —
    /// the compiled mirror of the interpreter's `extend`.
    #[allow(clippy::too_many_arguments)]
    fn extend<S: GraphSnapshot + ?Sized>(
        &self,
        ctx: &Ctx<'_, S>,
        pat: &CPattern,
        step: usize,
        at: NodeId,
        row: CRow,
        used_edges: &mut Vec<EdgeId>,
        out: &mut Vec<CRow>,
    ) {
        if step == pat.steps.len() {
            out.push(row);
            return;
        }
        let s = &pat.steps[step];

        if let Some((lo, hi)) = s.hops {
            for other in var_length_endpoints(ctx.snap, at, s, lo, hi) {
                if let Some(slot) = s.node.slot {
                    match row[slot] {
                        Some(CBinding::Node(bound)) if bound != other => continue,
                        Some(CBinding::Edge(_)) => continue,
                        _ => {}
                    }
                }
                if !cnode_matches(ctx.snap, other, &s.node) {
                    continue;
                }
                let mut next_row = row.clone();
                if let Some(slot) = s.node.slot {
                    next_row[slot] = Some(CBinding::Node(other));
                }
                self.extend(ctx, pat, step + 1, other, next_row, used_edges, out);
            }
            return;
        }

        let try_edge =
            |edge_id: EdgeId, other: NodeId, used_edges: &mut Vec<EdgeId>, out: &mut Vec<CRow>| {
                if used_edges.contains(&edge_id) {
                    return;
                }
                if let Some(slot) = s.edge_slot {
                    if let Some(existing) = row[slot] {
                        if existing != CBinding::Edge(edge_id) {
                            return;
                        }
                    }
                }
                if let Some(slot) = s.node.slot {
                    match row[slot] {
                        Some(CBinding::Node(bound)) if bound != other => return,
                        Some(CBinding::Edge(_)) => return,
                        _ => {}
                    }
                }
                if !cnode_matches(ctx.snap, other, &s.node) {
                    return;
                }
                let mut next_row = row.clone();
                if let Some(slot) = s.edge_slot {
                    next_row[slot] = Some(CBinding::Edge(edge_id));
                }
                if let Some(slot) = s.node.slot {
                    next_row[slot] = Some(CBinding::Node(other));
                }
                used_edges.push(edge_id);
                self.extend(ctx, pat, step + 1, other, next_row, used_edges, out);
                used_edges.pop();
            };

        if matches!(s.direction, Direction::Out | Direction::Either) {
            for &eid in ctx.snap.out_edge_ids(at) {
                let Some(edge) = ctx.snap.edge(eid) else {
                    continue;
                };
                if type_matches(s.rel_type.as_deref(), &edge.rel_type) {
                    try_edge(eid, edge.to, used_edges, out);
                }
            }
        }
        if matches!(s.direction, Direction::In | Direction::Either) {
            for &eid in ctx.snap.in_edge_ids(at) {
                let Some(edge) = ctx.snap.edge(eid) else {
                    continue;
                };
                if type_matches(s.rel_type.as_deref(), &edge.rel_type) {
                    try_edge(eid, edge.from, used_edges, out);
                }
            }
        }
    }

    fn eval<S: GraphSnapshot + ?Sized>(
        &self,
        ctx: &Ctx<'_, S>,
        row: &CRow,
        expr: &CExpr,
    ) -> Result<Value, CypherError> {
        eval_expr(ctx.snap, &ctx.resolved, &self.params, row, expr)
    }
}

/// `o` in ascending order, reversed for descending.
fn directed(o: std::cmp::Ordering, asc: bool) -> std::cmp::Ordering {
    if asc {
        o
    } else {
        o.reverse()
    }
}

/// Compiled-expression evaluation over a slot row — shared by plan
/// execution and [`CompiledNodePredicate`]. `resolved` are the bind-time
/// parameter lookups (indexed by [`CExpr::Param`]), `names` the parameter
/// names for Bind error messages.
fn eval_expr<S: GraphSnapshot + ?Sized>(
    snap: &S,
    resolved: &[Option<&Value>],
    names: &[String],
    row: &CRow,
    expr: &CExpr,
) -> Result<Value, CypherError> {
    Ok(match expr {
        CExpr::Lit(v) => v.clone(),
        CExpr::Param(i) => match resolved[*i] {
            Some(v) => v.clone(),
            None => {
                return Err(CypherError::Bind(format!(
                    "unbound parameter ${}",
                    names[*i]
                )))
            }
        },
        CExpr::Var(slot) => match row[*slot] {
            Some(CBinding::Node(id)) => Value::Node(id),
            Some(CBinding::Edge(id)) => Value::Edge(id),
            None => Value::Null,
        },
        CExpr::UnboundVar | CExpr::UnboundProp => Value::Null,
        CExpr::Prop(slot, key) => match row[*slot] {
            Some(CBinding::Node(id)) => snap
                .node(id)
                .and_then(|n| n.props.get(key))
                .cloned()
                .unwrap_or(Value::Null),
            Some(CBinding::Edge(id)) => snap
                .edge(id)
                .and_then(|e| e.props.get(key))
                .cloned()
                .unwrap_or(Value::Null),
            None => Value::Null,
        },
        CExpr::Compare(l, op, r) => {
            let a = eval_expr(snap, resolved, names, row, l)?;
            let b = eval_expr(snap, resolved, names, row, r)?;
            if matches!(a, Value::Null) || matches!(b, Value::Null) {
                return Ok(Value::Null);
            }
            let result = match op {
                CmpOp::Eq => a.eq_cypher(&b),
                CmpOp::Ne => !a.eq_cypher(&b),
                CmpOp::Lt => a.cmp_order(&b) == std::cmp::Ordering::Less,
                CmpOp::Le => a.cmp_order(&b) != std::cmp::Ordering::Greater,
                CmpOp::Gt => a.cmp_order(&b) == std::cmp::Ordering::Greater,
                CmpOp::Ge => a.cmp_order(&b) != std::cmp::Ordering::Less,
            };
            Value::Bool(result)
        }
        CExpr::And(l, r) => Value::Bool(
            eval_expr(snap, resolved, names, row, l)?.truthy()
                && eval_expr(snap, resolved, names, row, r)?.truthy(),
        ),
        CExpr::Or(l, r) => Value::Bool(
            eval_expr(snap, resolved, names, row, l)?.truthy()
                || eval_expr(snap, resolved, names, row, r)?.truthy(),
        ),
        CExpr::Not(e) => Value::Bool(!eval_expr(snap, resolved, names, row, e)?.truthy()),
        CExpr::Contains(l, r) => string_op(snap, resolved, names, row, l, r, |a, b| a.contains(b))?,
        CExpr::StartsWith(l, r) => {
            string_op(snap, resolved, names, row, l, r, |a, b| a.starts_with(b))?
        }
        CExpr::EndsWith(l, r) => {
            string_op(snap, resolved, names, row, l, r, |a, b| a.ends_with(b))?
        }
        CExpr::Aggregate => return Err(CypherError::Exec("aggregate outside RETURN".into())),
    })
}

fn string_op<S: GraphSnapshot + ?Sized>(
    snap: &S,
    resolved: &[Option<&Value>],
    names: &[String],
    row: &CRow,
    l: &CExpr,
    r: &CExpr,
    f: impl Fn(&str, &str) -> bool,
) -> Result<Value, CypherError> {
    let a = eval_expr(snap, resolved, names, row, l)?;
    let b = eval_expr(snap, resolved, names, row, r)?;
    match (a.as_text(), b.as_text()) {
        (Some(x), Some(y)) => Ok(Value::Bool(f(x, y))),
        _ => Ok(Value::Null),
    }
}

/// A `WHERE`-style predicate over a single node variable, compiled to the
/// plan expression form — the standing-query twin of
/// [`super::exec::node_satisfies`], but snapshot-generic and with the
/// variable resolved to a slot once at compile time.
#[derive(Debug, Clone)]
pub struct CompiledNodePredicate {
    expr: CExpr,
    params: Vec<String>,
}

impl CompiledNodePredicate {
    /// Compile `expr` with `var` bound to the candidate node.
    pub fn compile(expr: &Expr, var: &str) -> CompiledNodePredicate {
        let slots = vec![var.to_owned()];
        let mut params = Vec::new();
        CompiledNodePredicate {
            expr: compile_expr(expr, &slots, &mut params),
            params,
        }
    }

    /// Whether `id` satisfies the predicate — same truthiness and NULL
    /// propagation as `WHERE`; evaluation errors (unbound `$param`,
    /// aggregates) are non-matches, exactly like the interpreted path.
    pub fn matches<S: GraphSnapshot + ?Sized>(&self, snap: &S, id: NodeId) -> bool {
        let resolved: Vec<Option<&Value>> = vec![None; self.params.len()];
        let row: CRow = vec![Some(CBinding::Node(id))];
        eval_expr(snap, &resolved, &self.params, &row, &self.expr)
            .map(|v| v.truthy())
            .unwrap_or(false)
    }
}

fn type_matches(want: Option<&str>, got: &str) -> bool {
    want.is_none_or(|t| t == got)
}

fn first_name_text(np: &NodePattern) -> Option<&str> {
    np.props
        .iter()
        .find(|(k, _)| k == "name")
        .and_then(|(_, v)| match v {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        })
}

fn cnode_matches<S: GraphSnapshot + ?Sized>(snap: &S, id: NodeId, cn: &CNode) -> bool {
    let Some(node) = snap.node(id) else {
        return false;
    };
    if let Some(label) = &cn.label {
        if &node.label != label {
            return false;
        }
    }
    cn.props
        .iter()
        .all(|(k, v)| node.props.get(k).is_some_and(|pv| pv.eq_cypher(v)))
}

/// The compiled twin of the interpreter's `var_length_endpoints` — same
/// level-set walk, same ascending-id result order, but untyped undirected
/// steps ride a snapshot's frozen k-hop adjacency when it offers one (the
/// adjacency table *is* the deduplicated undirected neighbor set, so the
/// per-level frontier is identical either way).
fn var_length_endpoints<S: GraphSnapshot + ?Sized>(
    snap: &S,
    at: NodeId,
    s: &CStep,
    lo: usize,
    hi: usize,
) -> Vec<NodeId> {
    let untyped_undirected = s.rel_type.is_none() && s.direction == Direction::Either;
    let mut result: HashSet<NodeId> = HashSet::new();
    let mut frontier: HashSet<NodeId> = HashSet::new();
    frontier.insert(at);
    for level in 1..=hi {
        let mut next: HashSet<NodeId> = HashSet::new();
        for &node in &frontier {
            if untyped_undirected {
                if let Some(adj) = snap.khop_adjacency(node) {
                    next.extend(adj.iter().copied());
                    continue;
                }
            }
            if matches!(s.direction, Direction::Out | Direction::Either) {
                for &eid in snap.out_edge_ids(node) {
                    let Some(edge) = snap.edge(eid) else { continue };
                    if type_matches(s.rel_type.as_deref(), &edge.rel_type) {
                        next.insert(edge.to);
                    }
                }
            }
            if matches!(s.direction, Direction::In | Direction::Either) {
                for &eid in snap.in_edge_ids(node) {
                    let Some(edge) = snap.edge(eid) else { continue };
                    if type_matches(s.rel_type.as_deref(), &edge.rel_type) {
                        next.insert(edge.from);
                    }
                }
            }
        }
        if level >= lo {
            result.extend(next.iter().copied());
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    let mut out: Vec<NodeId> = result.into_iter().collect();
    out.sort();
    out
}

/// Find the first `WHERE` conjunct of the form `anchor.key = <text literal>`
/// or `anchor.key = $param` (either operand order) that can tighten pattern
/// 0's anchor scan, recording the bind-time safety facts.
fn analyze_lift(
    filter: &Expr,
    anchor_np: &NodePattern,
    cpat: &CPattern,
    params: &mut Vec<String>,
) -> Option<LiftedEq> {
    if !matches!(cpat.scan, Scan::ByLabel(_) | Scan::Full) || cpat.map_eq.is_some() {
        return None;
    }
    let anchor_var = anchor_np.var.as_deref()?;
    let cs = conjuncts(filter);
    for (i, c) in cs.iter().enumerate() {
        let Expr::Compare(l, CmpOp::Eq, r) = c else {
            continue;
        };
        let eq = match (l.as_ref(), r.as_ref()) {
            (Expr::Prop(var, key), rhs) if var == anchor_var => Some((key, rhs)),
            (lhs, Expr::Prop(var, key)) if var == anchor_var => Some((key, lhs)),
            _ => None,
        };
        let Some((key, operand)) = eq else { continue };
        let value = match operand {
            Expr::Literal(v @ Value::Text(_)) => CValue::Lit(v.clone()),
            Expr::Param(name) => CValue::Param(param_of(params, name)),
            _ => continue,
        };
        let mut prefix_names: Vec<&str> = Vec::new();
        let mut prefix_has_aggregate = false;
        for p in &cs[..i] {
            collect_params(p, &mut prefix_names);
            prefix_has_aggregate |= p.contains_aggregate();
        }
        let prefix_params = prefix_names
            .into_iter()
            .map(|n| param_of(params, n))
            .collect();
        return Some(LiftedEq {
            key: key.clone(),
            value,
            prefix_params,
            prefix_has_aggregate,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;
    use crate::store::GraphStore;

    fn demo_store() -> GraphStore {
        let mut g = GraphStore::new();
        let wannacry = g.create_node("Malware", [("name", Value::from("wannacry"))]);
        let emotet = g.create_node("Malware", [("name", Value::from("emotet"))]);
        let file = g.create_node("FileName", [("name", Value::from("tasksche.exe"))]);
        let actor = g.create_node("ThreatActor", [("name", Value::from("lazarus group"))]);
        let t1 = g.create_node("Technique", [("name", Value::from("smb exploitation"))]);
        let t2 = g.create_node("Technique", [("name", Value::from("keylogging"))]);
        g.create_edge(wannacry, "DROP", file, [] as [(&str, Value); 0])
            .unwrap();
        g.create_edge(wannacry, "ATTRIBUTED_TO", actor, [] as [(&str, Value); 0])
            .unwrap();
        g.create_edge(actor, "USES", t1, [] as [(&str, Value); 0])
            .unwrap();
        g.create_edge(actor, "USES", t2, [] as [(&str, Value); 0])
            .unwrap();
        g.create_edge(emotet, "USES", t2, [] as [(&str, Value); 0])
            .unwrap();
        g
    }

    fn check(g: &GraphStore, text: &str) {
        let query = parse(text).unwrap();
        let oracle = super::super::exec::execute_read(g, &query);
        let plan = CompiledPlan::compile(&query).unwrap();
        let compiled = plan.execute_on(g, &Params::new());
        match (oracle, compiled) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.columns, b.columns, "{text}");
                assert_eq!(a.rows, b.rows, "{text}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{text}"),
            (a, b) => panic!("{text}: oracle {a:?} vs compiled {b:?}"),
        }
    }

    #[test]
    fn compiled_matches_oracle_on_representative_queries() {
        let g = demo_store();
        for q in [
            "MATCH (n) RETURN n.name ORDER BY n.name",
            "MATCH (m:Malware) RETURN m.name",
            "MATCH (m:Malware {name: 'wannacry'})-[:DROP]->(f) RETURN f.name",
            "MATCH (a)-[:USES]->(t:Technique) RETURN a.name, count(t) AS uses ORDER BY count(t) DESC",
            "MATCH (n) WHERE n.name = 'emotet' RETURN n",
            "MATCH (n:Technique) RETURN count(*)",
            "MATCH (a)-[:USES]->(t) RETURN DISTINCT t.name ORDER BY t.name SKIP 1 LIMIT 1",
            "MATCH (m:Malware)-[*1..2]-(x) RETURN m.name, x.name ORDER BY x.name",
            "MATCH (m:Malware)-[:USES*1..3]->(t) RETURN t.name",
            "MATCH (e:Malware {name: 'emotet'})-[:USES]->(t), (a:ThreatActor)-[:USES]->(t) \
             RETURN a.name, t.name",
            "MATCH (n) WHERE count(*) > 1 RETURN n",
        ] {
            check(&g, q);
        }
    }

    #[test]
    fn params_bind_at_execution_time() {
        let g = demo_store();
        let query = parse("MATCH (n) WHERE n.name = $who RETURN n.name").unwrap();
        let plan = CompiledPlan::compile(&query).unwrap();
        let mut params = Params::new();
        params.insert("who".into(), Value::from("emotet"));
        let r = plan.execute_on(&g, &params).unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("emotet")]]);
        // Same plan, different binding.
        params.insert("who".into(), Value::from("wannacry"));
        let r = plan.execute_on(&g, &params).unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("wannacry")]]);
        // Unbound parameter: the same lazy Bind error the oracle raises.
        let err = plan.execute_on(&g, &Params::new()).unwrap_err();
        assert_eq!(err, CypherError::Bind("unbound parameter $who".into()));
        let oracle =
            super::super::exec::execute_read_with_params(&g, &query, &Params::new()).unwrap_err();
        assert_eq!(err, oracle);
    }

    #[test]
    fn explain_names_the_chosen_scan() {
        let q = parse("MATCH (m:Malware {name: 'x'})-[:USES*1..3]->(t) RETURN t").unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let ex = plan.explain();
        assert!(ex.contains("name-index(Malware"), "{ex}");
        assert!(ex.contains("*1..3"), "{ex}");
        let q = parse("MATCH (n) WHERE n.name = $who RETURN n").unwrap();
        let ex = CompiledPlan::compile(&q).unwrap().explain();
        assert!(ex.contains("lifted from WHERE"), "{ex}");
    }

    #[test]
    fn scatter_gather_matches_the_oracle() {
        let g = demo_store();
        for text in [
            "MATCH (n) WHERE n.name CONTAINS 'o' RETURN n.name ORDER BY n.name",
            "MATCH (a)-[:USES]->(t:Technique) RETURN a.name, count(t) AS uses ORDER BY count(t) DESC",
            "MATCH (m:Malware)-[*1..2]-(x) RETURN x.name ORDER BY x.name",
            "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a)-[:USES]->(t) RETURN t.name",
            "MATCH (n:Technique) RETURN count(*)",
            "MATCH (a)-[:USES]->(t) RETURN DISTINCT t.name ORDER BY t.name SKIP 1 LIMIT 1",
            "MATCH (e:Malware {name: 'emotet'})-[:USES]->(t), (a:ThreatActor)-[:USES]->(t) \
             RETURN a.name, t.name",
            "MATCH (n) WHERE n.name = $who RETURN n",
            "MATCH (n) RETURN count($late), $early",
        ] {
            let query = parse(text).unwrap();
            let oracle = super::super::exec::execute_read_with_params(&g, &query, &Params::new());
            let plan = CompiledPlan::compile(&query).unwrap();
            // Fan out over "shards" owning ids by residue, merge, project.
            for shards in [1u64, 2, 3] {
                let mut rows = Vec::new();
                let mut failed = None;
                for shard in 0..shards {
                    let owns = |id: NodeId| id.0 % shards == shard;
                    match plan.scatter_on(&g, &Params::new(), &owns) {
                        Ok(part) => rows.extend(part),
                        Err(e) => failed = failed.or(Some(e)),
                    }
                }
                match (&oracle, failed) {
                    (Ok(want), None) => {
                        let merged = plan.gather(rows);
                        assert_eq!(want.columns, merged.columns, "{text}");
                        assert_eq!(want.rows, merged.rows, "{text} at {shards} shards");
                    }
                    (Err(want), Some(got)) => {
                        assert_eq!(want.to_string(), got.to_string(), "{text} at {shards} shards")
                    }
                    (want, got) => panic!("{text} at {shards} shards: {want:?} vs {got:?}"),
                }
            }
        }
    }
}
