//! Query execution: backtracking pattern matching + expression evaluation.
//!
//! This is the *interpreted* executor. The compiled planner
//! ([`super::planner`]) is the production read path, sharded or not; this
//! module runs writes and remains the read semantics reference — the
//! differential test battery asserts the compiled engine byte-matches it on
//! arbitrary graphs, queries and ownership partitions.

use super::{CmpOp, CypherError, Direction, Expr, NodePattern, Params, Pattern, Query, Return};
use crate::store::{EdgeId, GraphStore, NodeId};
use crate::value::Value;
use std::collections::HashMap;

/// A variable binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    Node(NodeId),
    Edge(EdgeId),
}

type Row = HashMap<String, Binding>;

/// Write-statistics of a query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    pub nodes_created: usize,
    pub edges_created: usize,
    pub nodes_deleted: usize,
    pub edges_deleted: usize,
}

/// The result of a query.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub stats: WriteStats,
}

impl QueryResult {
    /// Node ids in the result (any column projecting whole nodes).
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for row in &self.rows {
            for v in row {
                if let Value::Node(id) = v {
                    if !out.contains(id) {
                        out.push(*id);
                    }
                }
            }
        }
        out
    }
}

/// Execute a read-only query against an immutable store; write queries are
/// rejected. This is the path UI sessions use, so exploration never needs a
/// write lock on the knowledge graph.
pub fn execute_read(store: &GraphStore, query: &Query) -> Result<QueryResult, CypherError> {
    execute_read_with_params(store, query, &Params::new())
}

/// [`execute_read`] with `$param` bindings.
pub fn execute_read_with_params(
    store: &GraphStore,
    query: &Query,
    params: &Params,
) -> Result<QueryResult, CypherError> {
    match query {
        Query::Read {
            patterns,
            filter,
            ret,
        } => {
            let rows = match_patterns(store, patterns)?;
            let rows = apply_filter(store, rows, filter, params)?;
            project(store, rows, ret, params)
        }
        _ => Err(CypherError::Exec(
            "write query on the read-only path".into(),
        )),
    }
}

/// Execute a parsed query.
pub fn execute(store: &mut GraphStore, query: &Query) -> Result<QueryResult, CypherError> {
    execute_with_params(store, query, &Params::new())
}

/// [`execute`] with `$param` bindings.
pub fn execute_with_params(
    store: &mut GraphStore,
    query: &Query,
    params: &Params,
) -> Result<QueryResult, CypherError> {
    match query {
        Query::Read {
            patterns,
            filter,
            ret,
        } => {
            let rows = match_patterns(store, patterns)?;
            let rows = apply_filter(store, rows, filter, params)?;
            project(store, rows, ret, params)
        }
        Query::Create { patterns } => {
            let mut stats = WriteStats::default();
            let mut bound: Row = HashMap::new();
            for pattern in patterns {
                create_pattern(store, pattern, &mut bound, &mut stats)?;
            }
            Ok(QueryResult {
                stats,
                ..QueryResult::default()
            })
        }
        Query::Merge { pattern, ret } => {
            let mut stats = WriteStats::default();
            let row = merge_pattern(store, pattern, &mut stats)?;
            let result = match ret {
                Some(ret) => {
                    let mut r = project(store, vec![row], ret, params)?;
                    r.stats = stats;
                    r
                }
                None => QueryResult {
                    stats,
                    ..QueryResult::default()
                },
            };
            Ok(result)
        }
        Query::Delete {
            patterns,
            filter,
            vars,
            detach,
        } => {
            let rows = match_patterns(store, patterns)?;
            let rows = apply_filter(store, rows, filter, params)?;
            let mut stats = WriteStats::default();
            let mut nodes: Vec<NodeId> = Vec::new();
            let mut edges: Vec<EdgeId> = Vec::new();
            for row in &rows {
                for var in vars {
                    match row.get(var) {
                        Some(Binding::Node(id)) if !nodes.contains(id) => nodes.push(*id),
                        Some(Binding::Edge(id)) if !edges.contains(id) => edges.push(*id),
                        Some(_) => {}
                        None => return Err(CypherError::Exec(format!("unbound variable {var}"))),
                    }
                }
            }
            for e in edges {
                if store.delete_edge(e).is_ok() {
                    stats.edges_deleted += 1;
                }
            }
            for n in nodes {
                if store.node(n).is_none() {
                    continue;
                }
                let degree = store.degree(n);
                if degree > 0 && !detach {
                    return Err(CypherError::Exec(
                        "cannot DELETE a node with relationships; use DETACH DELETE".into(),
                    ));
                }
                stats.edges_deleted += degree;
                store
                    .delete_node(n)
                    .map_err(|e| CypherError::Exec(e.to_string()))?;
                stats.nodes_deleted += 1;
            }
            Ok(QueryResult {
                stats,
                ..QueryResult::default()
            })
        }
    }
}

// ---- pattern matching ------------------------------------------------------

fn match_patterns(store: &GraphStore, patterns: &[Pattern]) -> Result<Vec<Row>, CypherError> {
    let mut rows = vec![Row::new()];
    for pattern in patterns {
        let mut next = Vec::new();
        for row in rows {
            match_pattern(store, pattern, row, &mut next);
        }
        rows = next;
    }
    Ok(rows)
}

fn node_matches(store: &GraphStore, id: NodeId, np: &NodePattern) -> bool {
    let Some(node) = store.node(id) else {
        return false;
    };
    if let Some(label) = &np.label {
        if &node.label != label {
            return false;
        }
    }
    np.props
        .iter()
        .all(|(k, v)| node.props.get(k).is_some_and(|pv| pv.eq_cypher(v)))
}

fn candidates(store: &GraphStore, np: &NodePattern, row: &Row) -> Vec<NodeId> {
    if let Some(var) = &np.var {
        if let Some(binding) = row.get(var) {
            return match binding {
                Binding::Node(id) if node_matches(store, *id, np) => vec![*id],
                _ => Vec::new(),
            };
        }
    }
    // (label, name) fast path.
    if let Some(label) = &np.label {
        if let Some((_, Value::Text(name))) = np.props.iter().find(|(k, _)| k == "name") {
            return store
                .node_by_name(label, name)
                .into_iter()
                .filter(|&id| node_matches(store, id, np))
                .collect();
        }
        return store
            .nodes_with_label(label)
            .into_iter()
            .filter(|&id| node_matches(store, id, np))
            .collect();
    }
    store
        .all_nodes()
        .map(|n| n.id)
        .filter(|&id| node_matches(store, id, np))
        .collect()
}

fn match_pattern(store: &GraphStore, pattern: &Pattern, row: Row, out: &mut Vec<Row>) {
    for start in candidates(store, &pattern.nodes[0], &row) {
        let mut row = row.clone();
        if let Some(var) = &pattern.nodes[0].var {
            row.insert(var.clone(), Binding::Node(start));
        }
        extend(store, pattern, 0, start, row, &mut Vec::new(), out);
    }
}

/// Extend a partial path match from `pattern.nodes[step]` bound to `at`.
fn extend(
    store: &GraphStore,
    pattern: &Pattern,
    step: usize,
    at: NodeId,
    row: Row,
    used_edges: &mut Vec<EdgeId>,
    out: &mut Vec<Row>,
) {
    if step == pattern.rels.len() {
        out.push(row);
        return;
    }
    let rel = &pattern.rels[step];
    let next_np = &pattern.nodes[step + 1];

    if let Some((lo, hi)) = rel.hops {
        // Var-length: the far node binds each distinct endpoint reachable
        // via lo..=hi typed/directed hops (walk semantics — level sets, so
        // revisits are allowed and relationship uniqueness is not tracked
        // across the expansion). Ascending-id order keeps candidate
        // enumeration deterministic for the scatter (anchor, seq) contract.
        for other in var_length_endpoints(store, at, rel.rel_type.as_deref(), rel.direction, lo, hi)
        {
            if let Some(var) = &next_np.var {
                if let Some(Binding::Node(bound)) = row.get(var) {
                    if *bound != other {
                        continue;
                    }
                } else if row.contains_key(var) {
                    continue;
                }
            }
            if !node_matches(store, other, next_np) {
                continue;
            }
            let mut next_row = row.clone();
            if let Some(var) = &next_np.var {
                next_row.insert(var.clone(), Binding::Node(other));
            }
            extend(store, pattern, step + 1, other, next_row, used_edges, out);
        }
        return;
    }

    let try_edge =
        |edge_id: EdgeId, other: NodeId, used_edges: &mut Vec<EdgeId>, out: &mut Vec<Row>| {
            if used_edges.contains(&edge_id) {
                return;
            }
            let edge = match store.edge(edge_id) {
                Some(e) => e,
                None => return,
            };
            if let Some(t) = &rel.rel_type {
                if &edge.rel_type != t {
                    return;
                }
            }
            // Edge-variable consistency.
            if let Some(var) = &rel.var {
                if let Some(existing) = row.get(var) {
                    if *existing != Binding::Edge(edge_id) {
                        return;
                    }
                }
            }
            // Node-pattern check including variable consistency.
            if let Some(var) = &next_np.var {
                if let Some(Binding::Node(bound)) = row.get(var) {
                    if *bound != other {
                        return;
                    }
                } else if row.contains_key(var) {
                    return;
                }
            }
            if !node_matches(store, other, next_np) {
                return;
            }
            let mut next_row = row.clone();
            if let Some(var) = &rel.var {
                next_row.insert(var.clone(), Binding::Edge(edge_id));
            }
            if let Some(var) = &next_np.var {
                next_row.insert(var.clone(), Binding::Node(other));
            }
            used_edges.push(edge_id);
            extend(store, pattern, step + 1, other, next_row, used_edges, out);
            used_edges.pop();
        };

    if matches!(rel.direction, Direction::Out | Direction::Either) {
        for edge in store.outgoing(at) {
            try_edge(edge.id, edge.to, used_edges, out);
        }
    }
    if matches!(rel.direction, Direction::In | Direction::Either) {
        for edge in store.incoming(at) {
            try_edge(edge.id, edge.from, used_edges, out);
        }
    }
}

/// Distinct endpoints reachable from `at` via `lo..=hi` hops along edges
/// matching `rel_type`/`direction` — level-set iteration (walk semantics):
/// `S_0 = {at}`, `S_{l+1} = step(S_l)`, result = `S_lo ∪ … ∪ S_hi`, sorted
/// ascending by id. The compiled planner implements the identical expansion
/// (optionally over a snapshot's frozen adjacency), so the two engines agree
/// endpoint-for-endpoint.
fn var_length_endpoints(
    store: &GraphStore,
    at: NodeId,
    rel_type: Option<&str>,
    direction: Direction,
    lo: usize,
    hi: usize,
) -> Vec<NodeId> {
    use std::collections::HashSet;
    let mut result: HashSet<NodeId> = HashSet::new();
    let mut frontier: HashSet<NodeId> = HashSet::new();
    frontier.insert(at);
    for level in 1..=hi {
        let mut next: HashSet<NodeId> = HashSet::new();
        for &node in &frontier {
            if matches!(direction, Direction::Out | Direction::Either) {
                for edge in store.outgoing_iter(node) {
                    if rel_type.is_none_or(|t| edge.rel_type == t) {
                        next.insert(edge.to);
                    }
                }
            }
            if matches!(direction, Direction::In | Direction::Either) {
                for edge in store.incoming_iter(node) {
                    if rel_type.is_none_or(|t| edge.rel_type == t) {
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

// ---- expression evaluation --------------------------------------------------

/// Evaluate a WHERE-style predicate against a single node bound to `var` —
/// the standing-query entry point into the exact evaluator `WHERE` uses
/// (same truthiness, same NULL propagation). Aggregates are execution
/// errors here just as they are in `WHERE`.
pub fn node_satisfies(
    store: &GraphStore,
    id: NodeId,
    var: &str,
    expr: &Expr,
) -> Result<bool, CypherError> {
    let mut row = Row::new();
    row.insert(var.to_owned(), Binding::Node(id));
    Ok(eval(store, &row, expr, &Params::new())?.truthy())
}

fn eval(store: &GraphStore, row: &Row, expr: &Expr, params: &Params) -> Result<Value, CypherError> {
    Ok(match expr {
        Expr::Literal(v) => v.clone(),
        Expr::Param(name) => match params.get(name) {
            Some(v) => v.clone(),
            None => return Err(CypherError::Bind(format!("unbound parameter ${name}"))),
        },
        Expr::Var(name) => match row.get(name) {
            Some(Binding::Node(id)) => Value::Node(*id),
            Some(Binding::Edge(id)) => Value::Edge(*id),
            None => Value::Null,
        },
        Expr::Prop(var, key) => match row.get(var) {
            Some(Binding::Node(id)) => store
                .node(*id)
                .and_then(|n| n.props.get(key))
                .cloned()
                .unwrap_or(Value::Null),
            Some(Binding::Edge(id)) => store
                .edge(*id)
                .and_then(|e| e.props.get(key))
                .cloned()
                .unwrap_or(Value::Null),
            None => Value::Null,
        },
        Expr::Compare(l, op, r) => {
            let (a, b) = (eval(store, row, l, params)?, eval(store, row, r, params)?);
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
        Expr::And(l, r) => Value::Bool(
            eval(store, row, l, params)?.truthy() && eval(store, row, r, params)?.truthy(),
        ),
        Expr::Or(l, r) => Value::Bool(
            eval(store, row, l, params)?.truthy() || eval(store, row, r, params)?.truthy(),
        ),
        Expr::Not(e) => Value::Bool(!eval(store, row, e, params)?.truthy()),
        Expr::Contains(l, r) => string_op(store, row, l, r, params, |a, b| a.contains(b))?,
        Expr::StartsWith(l, r) => string_op(store, row, l, r, params, |a, b| a.starts_with(b))?,
        Expr::EndsWith(l, r) => string_op(store, row, l, r, params, |a, b| a.ends_with(b))?,
        Expr::CountStar | Expr::Count(_) => {
            return Err(CypherError::Exec("aggregate outside RETURN".into()))
        }
    })
}

fn string_op(
    store: &GraphStore,
    row: &Row,
    l: &Expr,
    r: &Expr,
    params: &Params,
    f: impl Fn(&str, &str) -> bool,
) -> Result<Value, CypherError> {
    let (a, b) = (eval(store, row, l, params)?, eval(store, row, r, params)?);
    match (a.as_text(), b.as_text()) {
        (Some(x), Some(y)) => Ok(Value::Bool(f(x, y))),
        _ => Ok(Value::Null),
    }
}

fn apply_filter(
    store: &GraphStore,
    rows: Vec<Row>,
    filter: &Option<Expr>,
    params: &Params,
) -> Result<Vec<Row>, CypherError> {
    match filter {
        None => Ok(rows),
        Some(expr) => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                if eval(store, &row, expr, params)?.truthy() {
                    out.push(row);
                }
            }
            Ok(out)
        }
    }
}

// ---- projection --------------------------------------------------------------

fn project(
    store: &GraphStore,
    rows: Vec<Row>,
    ret: &Return,
    params: &Params,
) -> Result<QueryResult, CypherError> {
    let columns: Vec<String> = ret
        .items
        .iter()
        .map(|i| i.alias.clone().unwrap_or_else(|| i.text.trim().to_owned()))
        .collect();
    let has_aggregate = ret.items.iter().any(|i| i.expr.is_aggregate());

    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    if has_aggregate {
        // Implicit grouping by the non-aggregate items (Cypher semantics).
        let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
        for row in rows {
            let key: Vec<Value> = ret
                .items
                .iter()
                .filter(|i| !i.expr.is_aggregate())
                .map(|i| eval(store, &row, &i.expr, params))
                .collect::<Result<_, _>>()?;
            match groups
                .iter_mut()
                .find(|(k, _)| k.len() == key.len() && k.iter().zip(&key).all(|(a, b)| a == b))
            {
                Some((_, members)) => members.push(row),
                None => groups.push((key, vec![row])),
            }
        }
        for (key, members) in groups {
            let mut row_out = Vec::with_capacity(ret.items.len());
            let mut key_iter = key.into_iter();
            for item in &ret.items {
                match &item.expr {
                    Expr::CountStar => row_out.push(Value::Int(members.len() as i64)),
                    Expr::Count(inner) => {
                        let mut n = 0i64;
                        for m in &members {
                            if !matches!(eval(store, m, inner, params)?, Value::Null) {
                                n += 1;
                            }
                        }
                        row_out.push(Value::Int(n));
                    }
                    _ => row_out.push(key_iter.next().unwrap_or(Value::Null)),
                }
            }
            out_rows.push(row_out);
        }
    } else {
        for row in &rows {
            let projected: Vec<Value> = ret
                .items
                .iter()
                .map(|i| eval(store, row, &i.expr, params))
                .collect::<Result<_, _>>()?;
            out_rows.push(projected);
        }
        // ORDER BY evaluates against the source rows.
        if let Some((expr, asc)) = &ret.order_by {
            let mut keyed: Vec<(Value, Vec<Value>)> = rows
                .iter()
                .zip(out_rows)
                .map(|(row, out)| Ok((eval(store, row, expr, params)?, out)))
                .collect::<Result<_, CypherError>>()?;
            keyed.sort_by(|a, b| {
                let o = a.0.cmp_order(&b.0);
                if *asc {
                    o
                } else {
                    o.reverse()
                }
            });
            out_rows = keyed.into_iter().map(|(_, o)| o).collect();
        }
    }

    if has_aggregate {
        if let Some((expr, asc)) = &ret.order_by {
            // For aggregated results, ORDER BY may reference an aggregate or
            // a projected column; sort on the matching column when possible.
            if let Some(col) = ret.items.iter().position(|i| &i.expr == expr) {
                out_rows.sort_by(|a, b| {
                    let o = a[col].cmp_order(&b[col]);
                    if *asc {
                        o
                    } else {
                        o.reverse()
                    }
                });
            }
        }
    }

    if ret.distinct {
        let mut seen: Vec<Vec<Value>> = Vec::new();
        out_rows.retain(|row| {
            if seen.iter().any(|s| s == row) {
                false
            } else {
                seen.push(row.clone());
                true
            }
        });
    }
    let skip = ret.skip.unwrap_or(0);
    if skip > 0 {
        out_rows.drain(..skip.min(out_rows.len()));
    }
    if let Some(limit) = ret.limit {
        out_rows.truncate(limit);
    }

    Ok(QueryResult {
        columns,
        rows: out_rows,
        stats: WriteStats::default(),
    })
}

// ---- writes -------------------------------------------------------------------

fn create_pattern(
    store: &mut GraphStore,
    pattern: &Pattern,
    bound: &mut Row,
    stats: &mut WriteStats,
) -> Result<(), CypherError> {
    let mut node_ids = Vec::with_capacity(pattern.nodes.len());
    for np in &pattern.nodes {
        // Re-use a node bound earlier in the same CREATE statement.
        if let Some(var) = &np.var {
            if let Some(Binding::Node(id)) = bound.get(var) {
                node_ids.push(*id);
                continue;
            }
        }
        let label = np.label.clone().unwrap_or_else(|| "Node".to_owned());
        let id = store.create_node(&label, np.props.clone());
        stats.nodes_created += 1;
        if let Some(var) = &np.var {
            bound.insert(var.clone(), Binding::Node(id));
        }
        node_ids.push(id);
    }
    for (i, rel) in pattern.rels.iter().enumerate() {
        if rel.hops.is_some() {
            return Err(CypherError::Exec(
                "var-length patterns cannot be created".into(),
            ));
        }
        let (from, to) = match rel.direction {
            Direction::Out | Direction::Either => (node_ids[i], node_ids[i + 1]),
            Direction::In => (node_ids[i + 1], node_ids[i]),
        };
        let rel_type = rel
            .rel_type
            .clone()
            .unwrap_or_else(|| "RELATED_TO".to_owned());
        store
            .create_edge(from, &rel_type, to, std::iter::empty::<(String, Value)>())
            .map_err(|e| CypherError::Exec(e.to_string()))?;
        stats.edges_created += 1;
    }
    Ok(())
}

fn merge_pattern(
    store: &mut GraphStore,
    pattern: &Pattern,
    stats: &mut WriteStats,
) -> Result<Row, CypherError> {
    // Every node pattern needs a label and a textual name property.
    let mut ids = Vec::with_capacity(pattern.nodes.len());
    for np in &pattern.nodes {
        let label = np
            .label
            .as_deref()
            .ok_or_else(|| CypherError::Exec("MERGE requires a label on every node".into()))?;
        let name = np
            .props
            .iter()
            .find(|(k, _)| k == "name")
            .and_then(|(_, v)| v.as_text())
            .ok_or_else(|| CypherError::Exec("MERGE requires a textual name property".into()))?;
        let before = store.node_count();
        let extra: Vec<(String, Value)> = np
            .props
            .iter()
            .filter(|(k, _)| k != "name")
            .cloned()
            .collect();
        let id = store.merge_node(label, name, extra);
        if store.node_count() > before {
            stats.nodes_created += 1;
        }
        ids.push(id);
    }
    for (i, rel) in pattern.rels.iter().enumerate() {
        if rel.hops.is_some() {
            return Err(CypherError::Exec(
                "var-length patterns cannot be merged".into(),
            ));
        }
        let (from, to) = match rel.direction {
            Direction::Out | Direction::Either => (ids[i], ids[i + 1]),
            Direction::In => (ids[i + 1], ids[i]),
        };
        let rel_type = rel
            .rel_type
            .clone()
            .unwrap_or_else(|| "RELATED_TO".to_owned());
        let before = store.edge_count();
        store
            .merge_edge(from, &rel_type, to)
            .map_err(|e| CypherError::Exec(e.to_string()))?;
        if store.edge_count() > before {
            stats.edges_created += 1;
        }
    }
    let mut row = Row::new();
    for (np, id) in pattern.nodes.iter().zip(&ids) {
        if let Some(var) = &np.var {
            row.insert(var.clone(), Binding::Node(*id));
        }
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_store() -> GraphStore {
        let mut g = GraphStore::new();
        let wannacry = g.create_node("Malware", [("name", Value::from("wannacry"))]);
        let emotet = g.create_node("Malware", [("name", Value::from("emotet"))]);
        let file = g.create_node("FileName", [("name", Value::from("tasksche.exe"))]);
        let cve = g.create_node("Vulnerability", [("name", Value::from("CVE-2017-0144"))]);
        let actor = g.create_node("ThreatActor", [("name", Value::from("lazarus group"))]);
        let t1 = g.create_node("Technique", [("name", Value::from("smb exploitation"))]);
        let t2 = g.create_node("Technique", [("name", Value::from("keylogging"))]);
        g.create_edge(wannacry, "DROP", file, [] as [(&str, Value); 0])
            .unwrap();
        g.create_edge(wannacry, "EXPLOITS", cve, [] as [(&str, Value); 0])
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

    #[test]
    fn the_paper_demo_query_returns_the_wannacry_node() {
        let mut g = demo_store();
        let r = g
            .query("match (n) where n.name = \"wannacry\" return n")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let id = match r.rows[0][0] {
            Value::Node(id) => id,
            ref other => panic!("unexpected {other:?}"),
        };
        assert_eq!(g.node(id).unwrap().name(), Some("wannacry"));
    }

    #[test]
    fn path_patterns_with_direction() {
        let mut g = demo_store();
        let r = g
            .query("MATCH (m:Malware)-[:DROP]->(f:FileName) RETURN m.name, f.name")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::from("wannacry"), Value::from("tasksche.exe")]]
        );
        // Reverse direction finds nothing.
        let r = g
            .query("MATCH (m:Malware)<-[:DROP]-(f:FileName) RETURN m.name")
            .unwrap();
        assert!(r.rows.is_empty());
        // Undirected finds it from either side.
        let r = g
            .query("MATCH (f:FileName)-[:DROP]-(m:Malware) RETURN m.name")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn two_hop_pattern() {
        let mut g = demo_store();
        let r = g
            .query(
                "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a)-[:USES]->(t:Technique) \
                 RETURN t.name ORDER BY t.name",
            )
            .unwrap();
        let names: Vec<&str> = r.rows.iter().map(|row| row[0].as_text().unwrap()).collect();
        assert_eq!(names, vec!["keylogging", "smb exploitation"]);
    }

    #[test]
    fn where_filters_and_string_ops() {
        let mut g = demo_store();
        let r = g
            .query("MATCH (n) WHERE n.name STARTS WITH 'wanna' RETURN n.name")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("wannacry")]]);
        let r = g
            .query("MATCH (n) WHERE n.name CONTAINS 'o' AND NOT n.name = 'emotet' RETURN n.name ORDER BY n.name")
            .unwrap();
        let names: Vec<&str> = r.rows.iter().map(|row| row[0].as_text().unwrap()).collect();
        assert_eq!(
            names,
            vec!["keylogging", "lazarus group", "smb exploitation"]
        );
    }

    #[test]
    fn count_with_implicit_grouping() {
        let mut g = demo_store();
        let r = g
            .query(
                "MATCH (a)-[:USES]->(t:Technique) RETURN a.name, count(t) AS uses ORDER BY count(t) DESC",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["a.name", "uses"]);
        assert_eq!(r.rows[0], vec![Value::from("lazarus group"), Value::Int(2)]);
        assert_eq!(r.rows[1], vec![Value::from("emotet"), Value::Int(1)]);
    }

    #[test]
    fn count_star_without_grouping() {
        let mut g = demo_store();
        let r = g.query("MATCH (n:Technique) RETURN count(*)").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn order_skip_limit_distinct() {
        let mut g = demo_store();
        let r = g
            .query("MATCH (n:Malware) RETURN n.name ORDER BY n.name ASC SKIP 1 LIMIT 1")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("wannacry")]]);
        let r = g
            .query("MATCH (a)-[:USES]->(t) RETURN DISTINCT t.name ORDER BY t.name")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn create_and_merge_write_stats() {
        let mut g = GraphStore::new();
        let r = g
            .query("CREATE (m:Malware {name: 'x'})-[:DROP]->(f:FileName {name: 'y.exe'})")
            .unwrap();
        assert_eq!(r.stats.nodes_created, 2);
        assert_eq!(r.stats.edges_created, 1);
        // MERGE of the same node is a no-op.
        let r = g.query("MERGE (m:Malware {name: 'x'})").unwrap();
        assert_eq!(r.stats.nodes_created, 0);
        let r = g
            .query("MERGE (m:Malware {name: 'z'}) RETURN m.name")
            .unwrap();
        assert_eq!(r.stats.nodes_created, 1);
        assert_eq!(r.rows, vec![vec![Value::from("z")]]);
        // MERGE of a path merges endpoints and edge.
        let r = g
            .query("MERGE (m:Malware {name: 'x'})-[:DROP]->(f:FileName {name: 'y.exe'})")
            .unwrap();
        assert_eq!(r.stats.nodes_created, 0);
        assert_eq!(r.stats.edges_created, 0);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn delete_requires_detach_when_connected() {
        let mut g = demo_store();
        let err = g.query("MATCH (m:Malware) WHERE m.name = 'wannacry' DELETE m");
        assert!(err.is_err());
        let r = g
            .query("MATCH (m:Malware) WHERE m.name = 'wannacry' DETACH DELETE m")
            .unwrap();
        assert_eq!(r.stats.nodes_deleted, 1);
        assert_eq!(r.stats.edges_deleted, 3);
        assert_eq!(g.node_by_name("Malware", "wannacry"), None);
    }

    #[test]
    fn shared_variables_join_patterns() {
        let mut g = demo_store();
        // Actors that use a technique also used by emotet.
        let r = g
            .query(
                "MATCH (e:Malware {name: 'emotet'})-[:USES]->(t), (a:ThreatActor)-[:USES]->(t) \
                 RETURN a.name, t.name",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![
                Value::from("lazarus group"),
                Value::from("keylogging")
            ]]
        );
    }

    #[test]
    fn null_property_comparisons_filter_out() {
        let mut g = demo_store();
        let r = g.query("MATCH (n) WHERE n.missing = 'x' RETURN n").unwrap();
        assert!(r.rows.is_empty());
        let r = g
            .query("MATCH (n) WHERE n.missing <> 'x' RETURN n")
            .unwrap();
        assert!(r.rows.is_empty(), "NULL <> x is NULL, not true");
    }

    #[test]
    fn relationship_uniqueness_within_a_match() {
        let mut g = GraphStore::new();
        let a = g.create_node("N", [("name", Value::from("a"))]);
        let b = g.create_node("N", [("name", Value::from("b"))]);
        g.create_edge(a, "R", b, [] as [(&str, Value); 0]).unwrap();
        // A 2-step path a-b-a cannot reuse the single edge.
        let r = g
            .query("MATCH (x)-[:R]-(y)-[:R]-(z) RETURN x.name")
            .unwrap();
        assert!(r.rows.is_empty());
    }
}
