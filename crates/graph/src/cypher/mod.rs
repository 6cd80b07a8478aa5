//! A Cypher subset: enough of the language for the paper's §3 demo and the
//! exploration UI — `MATCH` path patterns, `WHERE`, `RETURN` with implicit
//! grouping for `count(...)`, `ORDER BY` / `SKIP` / `LIMIT` / `DISTINCT`,
//! plus `CREATE`, `MERGE` and `(DETACH) DELETE`.
//!
//! Grammar (informal):
//!
//! ```text
//! query   := MATCH pattern (',' pattern)* [WHERE expr]
//!            ( RETURN items [ORDER BY expr [ASC|DESC]] [SKIP n] [LIMIT n]
//!            | [DETACH] DELETE var (',' var)* )
//!          | CREATE pattern (',' pattern)*
//!          | MERGE pattern [RETURN items]
//! pattern := node (rel node)*
//! node    := '(' [var] [':' Label] [props] ')'
//! rel     := '-' '[' [var] [':' TYPE] ']' '->' | '<-' '[' ... ']' '-'
//!          | '-' '[' ... ']' '-'
//! ```

mod exec;
mod lexer;
mod parser;
pub mod planner;

pub use exec::{
    execute, execute_read, execute_read_with_params, execute_with_params, node_satisfies,
    QueryResult,
};
pub use parser::{parse, parse_predicate, MAX_EXPR_DEPTH, MAX_PATTERN_HOPS};
pub use planner::{CompiledNodePredicate, CompiledPlan, ScatterRow};

use crate::value::Value;

/// `$param` bindings supplied at execution time; one compiled plan serves
/// many bindings.
pub type Params = std::collections::HashMap<String, Value>;

/// Direction of a relationship pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `-[..]->`
    Out,
    /// `<-[..]-`
    In,
    /// `-[..]-`
    Either,
}

/// `(var:Label {prop: literal, ...})`
#[derive(Debug, Clone, PartialEq)]
pub struct NodePattern {
    pub var: Option<String>,
    pub label: Option<String>,
    pub props: Vec<(String, Value)>,
}

/// `-[var:TYPE]->`, or a var-length pattern `-[:TYPE*lo..hi]->`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelPattern {
    pub var: Option<String>,
    pub rel_type: Option<String>,
    pub direction: Direction,
    /// `Some((lo, hi))` for a var-length pattern `-[*lo..hi]->`: the far node
    /// binds to every distinct endpoint reachable via `lo..=hi` hops.
    /// `None` for an ordinary single-hop relationship.
    pub hops: Option<(usize, usize)>,
}

/// A path pattern: nodes joined by relationships.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pattern {
    pub nodes: Vec<NodePattern>,
    pub rels: Vec<RelPattern>,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// WHERE / RETURN expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// A bound variable (node or edge).
    Var(String),
    /// `var.prop`
    Prop(String, String),
    Compare(Box<Expr>, CmpOp, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Contains(Box<Expr>, Box<Expr>),
    StartsWith(Box<Expr>, Box<Expr>),
    EndsWith(Box<Expr>, Box<Expr>),
    /// `$name` — a query parameter, bound at execution time.
    Param(String),
    /// `count(*)`
    CountStar,
    /// `count(var)` / `count(var.prop)`
    Count(Box<Expr>),
}

impl Expr {
    /// Whether the expression contains an aggregate.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Expr::CountStar | Expr::Count(_))
    }

    /// Whether an aggregate appears *anywhere* in the tree — used to reject
    /// aggregates in contexts that evaluate row-at-a-time (standing-query
    /// predicates) before they can become runtime errors.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::CountStar | Expr::Count(_) => true,
            Expr::Compare(l, _, r)
            | Expr::And(l, r)
            | Expr::Or(l, r)
            | Expr::Contains(l, r)
            | Expr::StartsWith(l, r)
            | Expr::EndsWith(l, r) => l.contains_aggregate() || r.contains_aggregate(),
            Expr::Not(e) => e.contains_aggregate(),
            Expr::Literal(_) | Expr::Var(_) | Expr::Prop(..) | Expr::Param(_) => false,
        }
    }
}

/// One RETURN item.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnItem {
    pub expr: Expr,
    pub alias: Option<String>,
    /// Source text, used as the column name when no alias is given.
    pub text: String,
}

/// The RETURN clause.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Return {
    pub distinct: bool,
    pub items: Vec<ReturnItem>,
    pub order_by: Option<(Expr, bool)>,
    pub skip: Option<usize>,
    pub limit: Option<usize>,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Read {
        patterns: Vec<Pattern>,
        filter: Option<Expr>,
        ret: Return,
    },
    Create {
        patterns: Vec<Pattern>,
    },
    Merge {
        pattern: Pattern,
        ret: Option<Return>,
    },
    Delete {
        patterns: Vec<Pattern>,
        filter: Option<Expr>,
        vars: Vec<String>,
        detach: bool,
    },
}

/// Errors from parsing, parameter binding, or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CypherError {
    Lex(String),
    Parse(String),
    /// A parameter reference could not be resolved against the supplied
    /// bindings (e.g. `$who` with no `who` binding).
    Bind(String),
    Exec(String),
}

impl std::fmt::Display for CypherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CypherError::Lex(m) => write!(f, "lex error: {m}"),
            CypherError::Parse(m) => write!(f, "parse error: {m}"),
            CypherError::Bind(m) => write!(f, "bind error: {m}"),
            CypherError::Exec(m) => write!(f, "execution error: {m}"),
        }
    }
}

impl std::error::Error for CypherError {}

impl crate::store::GraphStore {
    /// Parse and execute a Cypher query against this store. Read queries
    /// run through the compiled planner; writes take the interpreted path.
    pub fn query(&mut self, text: &str) -> Result<QueryResult, CypherError> {
        let query = parse(text)?;
        if matches!(query, Query::Read { .. }) {
            let plan = CompiledPlan::compile(&query)?;
            return plan.execute_on(self, &Params::new());
        }
        execute(self, &query)
    }

    /// Parse and execute a *read-only* Cypher query; `CREATE`/`MERGE`/
    /// `DELETE` are rejected. Runs through the compiled planner.
    pub fn query_readonly(&self, text: &str) -> Result<QueryResult, CypherError> {
        self.query_readonly_with_params(text, &Params::new())
    }

    /// [`Self::query_readonly`] with `$param` bindings.
    pub fn query_readonly_with_params(
        &self,
        text: &str,
        params: &Params,
    ) -> Result<QueryResult, CypherError> {
        let query = parse(text)?;
        if !matches!(query, Query::Read { .. }) {
            return Err(CypherError::Exec(
                "write query on the read-only path".into(),
            ));
        }
        let plan = CompiledPlan::compile(&query)?;
        plan.execute_on(self, params)
    }
}
