//! Recursive-descent parser for the Cypher subset.

use super::lexer::{lex, Tok};
use super::{
    CmpOp, CypherError, Direction, Expr, NodePattern, Pattern, Query, RelPattern, Return,
    ReturnItem,
};
use crate::value::Value;

/// Maximum expression nesting depth (parens, `NOT` chains, `count(...)`).
/// Unbounded nesting would recurse the parser off the stack — an abort, not
/// an error — on adversarial input; past this limit parsing fails cleanly.
pub const MAX_EXPR_DEPTH: usize = 128;

/// Maximum relationship hops in a single path pattern. Execution recurses
/// once per hop, so a pathological million-hop pattern must be rejected at
/// parse time instead of overflowing the stack at match time.
pub const MAX_PATTERN_HOPS: usize = 256;

/// Parse a query string into an AST.
pub fn parse(text: &str) -> Result<Query, CypherError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parse a standalone WHERE-style predicate expression (no MATCH/RETURN
/// framing) — the compiled-predicate form standing queries share with the
/// Cypher `WHERE` evaluator.
pub fn parse_predicate(text: &str) -> Result<Expr, CypherError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let expr = p.expr()?;
    p.expect_end()?;
    Ok(expr)
}

struct Parser<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
    /// Current expression nesting depth (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn expect_end(&self) -> Result<(), CypherError> {
        if self.pos != self.toks.len() {
            return Err(CypherError::Parse(format!(
                "trailing input at token {}: {:?}",
                self.pos,
                self.toks.get(self.pos)
            )));
        }
        Ok(())
    }

    fn descend(&mut self) -> Result<(), CypherError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(CypherError::Parse(format!(
                "expression nesting exceeds {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos)
    }

    /// Consume one token. Tokens borrow the query text, so this copies no
    /// string (except one a quoted escape had to unescape).
    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok<'_>) -> Result<(), CypherError> {
        match self.next() {
            Some(t) if &t == tok => Ok(()),
            other => Err(CypherError::Parse(format!(
                "expected {tok:?}, found {other:?}"
            ))),
        }
    }

    /// Case-insensitive keyword check without consuming.
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, CypherError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s.to_owned()),
            other => Err(CypherError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn query(&mut self) -> Result<Query, CypherError> {
        if self.eat_keyword("create") {
            let patterns = self.patterns()?;
            return Ok(Query::Create { patterns });
        }
        if self.eat_keyword("merge") {
            let pattern = self.pattern()?;
            let ret = if self.eat_keyword("return") {
                Some(self.return_clause()?)
            } else {
                None
            };
            return Ok(Query::Merge { pattern, ret });
        }
        if !self.eat_keyword("match") {
            return Err(CypherError::Parse(
                "query must start with MATCH, CREATE or MERGE".into(),
            ));
        }
        let patterns = self.patterns()?;
        let filter = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        if self.eat_keyword("detach") {
            if !self.eat_keyword("delete") {
                return Err(CypherError::Parse(
                    "DETACH must be followed by DELETE".into(),
                ));
            }
            let vars = self.var_list()?;
            return Ok(Query::Delete {
                patterns,
                filter,
                vars,
                detach: true,
            });
        }
        if self.eat_keyword("delete") {
            let vars = self.var_list()?;
            return Ok(Query::Delete {
                patterns,
                filter,
                vars,
                detach: false,
            });
        }
        if !self.eat_keyword("return") {
            return Err(CypherError::Parse("expected RETURN or DELETE".into()));
        }
        let ret = self.return_clause()?;
        Ok(Query::Read {
            patterns,
            filter,
            ret,
        })
    }

    fn var_list(&mut self) -> Result<Vec<String>, CypherError> {
        let mut vars = vec![self.ident()?];
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.next();
            vars.push(self.ident()?);
        }
        Ok(vars)
    }

    fn patterns(&mut self) -> Result<Vec<Pattern>, CypherError> {
        let mut patterns = vec![self.pattern()?];
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.next();
            patterns.push(self.pattern()?);
        }
        Ok(patterns)
    }

    fn pattern(&mut self) -> Result<Pattern, CypherError> {
        let mut pattern = Pattern {
            nodes: vec![self.node_pattern()?],
            rels: Vec::new(),
        };
        while let Some(Tok::Dash) | Some(Tok::BackArrow) = self.peek() {
            if pattern.rels.len() >= MAX_PATTERN_HOPS {
                return Err(CypherError::Parse(format!(
                    "pattern exceeds {MAX_PATTERN_HOPS} relationship hops"
                )));
            }
            let rel = self.rel_pattern()?;
            let node = self.node_pattern()?;
            pattern.rels.push(rel);
            pattern.nodes.push(node);
        }
        Ok(pattern)
    }

    fn node_pattern(&mut self) -> Result<NodePattern, CypherError> {
        self.expect(&Tok::LParen)?;
        let mut node = NodePattern {
            var: None,
            label: None,
            props: Vec::new(),
        };
        if let Some(Tok::Ident(_)) = self.peek() {
            node.var = Some(self.ident()?);
        }
        if matches!(self.peek(), Some(Tok::Colon)) {
            self.next();
            node.label = Some(self.ident()?);
        }
        if matches!(self.peek(), Some(Tok::LBrace)) {
            node.props = self.prop_map()?;
        }
        self.expect(&Tok::RParen)?;
        Ok(node)
    }

    /// `-[v:TYPE]->`, `<-[v:TYPE]-`, `-[v:TYPE]-`, or the var-length forms
    /// `-[*n]->` / `-[:TYPE*lo..hi]->`.
    fn rel_pattern(&mut self) -> Result<RelPattern, CypherError> {
        let leading_back = matches!(self.peek(), Some(Tok::BackArrow));
        if leading_back {
            self.next();
        } else {
            self.expect(&Tok::Dash)?;
        }
        let mut rel = RelPattern {
            var: None,
            rel_type: None,
            direction: Direction::Either,
            hops: None,
        };
        if matches!(self.peek(), Some(Tok::LBracket)) {
            self.next();
            if let Some(Tok::Ident(_)) = self.peek() {
                rel.var = Some(self.ident()?);
            }
            if matches!(self.peek(), Some(Tok::Colon)) {
                self.next();
                rel.rel_type = Some(self.ident()?);
            }
            if matches!(self.peek(), Some(Tok::Star)) {
                self.next();
                rel.hops = Some(self.hop_range()?);
                if rel.var.is_some() {
                    return Err(CypherError::Parse(
                        "a var-length relationship cannot bind an edge variable".into(),
                    ));
                }
            }
            self.expect(&Tok::RBracket)?;
        }
        match self.next() {
            Some(Tok::Arrow) => {
                if leading_back {
                    return Err(CypherError::Parse("<-[..]-> is not a valid pattern".into()));
                }
                rel.direction = Direction::Out;
            }
            Some(Tok::Dash) => {
                rel.direction = if leading_back {
                    Direction::In
                } else {
                    Direction::Either
                };
            }
            other => {
                return Err(CypherError::Parse(format!(
                    "expected -> or -, found {other:?}"
                )))
            }
        }
        Ok(rel)
    }

    /// The `lo..hi` (or bare `n`) bounds after `*` in a var-length pattern.
    fn hop_range(&mut self) -> Result<(usize, usize), CypherError> {
        let lo = self.usize_literal()?;
        let hi = if matches!(self.peek(), Some(Tok::Dot)) {
            self.expect(&Tok::Dot)?;
            self.expect(&Tok::Dot)?;
            self.usize_literal()?
        } else {
            lo
        };
        if lo == 0 {
            return Err(CypherError::Parse(
                "var-length patterns require at least one hop (*0 is not supported)".into(),
            ));
        }
        if hi < lo {
            return Err(CypherError::Parse(format!(
                "var-length range *{lo}..{hi} is empty"
            )));
        }
        if hi > MAX_PATTERN_HOPS {
            return Err(CypherError::Parse(format!(
                "var-length range exceeds {MAX_PATTERN_HOPS} hops"
            )));
        }
        Ok((lo, hi))
    }

    fn prop_map(&mut self) -> Result<Vec<(String, Value)>, CypherError> {
        self.expect(&Tok::LBrace)?;
        let mut props = Vec::new();
        loop {
            if matches!(self.peek(), Some(Tok::RBrace)) {
                self.next();
                break;
            }
            let key = self.ident()?;
            self.expect(&Tok::Colon)?;
            let value = self.literal()?;
            props.push((key, value));
            match self.peek() {
                Some(Tok::Comma) => {
                    self.next();
                }
                Some(Tok::RBrace) => {}
                other => {
                    return Err(CypherError::Parse(format!(
                        "expected , or }} in property map, found {other:?}"
                    )))
                }
            }
        }
        Ok(props)
    }

    fn literal(&mut self) -> Result<Value, CypherError> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(Value::Text(s.into_owned())),
            Some(Tok::Int(i)) => Ok(Value::Int(i)),
            Some(Tok::Float(f)) => Ok(Value::Float(f)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            other => Err(CypherError::Parse(format!(
                "expected literal, found {other:?}"
            ))),
        }
    }

    // ---- expressions (precedence: OR < AND < NOT < comparison < atom) -----

    fn expr(&mut self) -> Result<Expr, CypherError> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("or") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, CypherError> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("and") {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, CypherError> {
        if self.eat_keyword("not") {
            self.descend()?;
            let inner = self.not_expr()?;
            self.ascend();
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, CypherError> {
        let left = self.atom()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Some(CmpOp::Eq),
            Some(Tok::Ne) => Some(CmpOp::Ne),
            Some(Tok::Lt) => Some(CmpOp::Lt),
            Some(Tok::Le) => Some(CmpOp::Le),
            Some(Tok::Gt) => Some(CmpOp::Gt),
            Some(Tok::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.atom()?;
            return Ok(Expr::Compare(Box::new(left), op, Box::new(right)));
        }
        if self.at_keyword("contains") {
            self.next();
            let right = self.atom()?;
            return Ok(Expr::Contains(Box::new(left), Box::new(right)));
        }
        if self.at_keyword("starts") {
            self.next();
            if !self.eat_keyword("with") {
                return Err(CypherError::Parse("STARTS must be followed by WITH".into()));
            }
            let right = self.atom()?;
            return Ok(Expr::StartsWith(Box::new(left), Box::new(right)));
        }
        if self.at_keyword("ends") {
            self.next();
            if !self.eat_keyword("with") {
                return Err(CypherError::Parse("ENDS must be followed by WITH".into()));
            }
            let right = self.atom()?;
            return Ok(Expr::EndsWith(Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<Expr, CypherError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                self.next();
                self.descend()?;
                let e = self.expr()?;
                self.ascend();
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Str(_)) | Some(Tok::Int(_)) | Some(Tok::Float(_)) => {
                Ok(Expr::Literal(self.literal()?))
            }
            Some(Tok::Param(name)) => {
                self.next();
                Ok(Expr::Param(name.to_owned()))
            }
            Some(Tok::Ident(name)) => {
                if name.eq_ignore_ascii_case("count") {
                    self.next();
                    self.expect(&Tok::LParen)?;
                    if matches!(self.peek(), Some(Tok::Star)) {
                        self.next();
                        self.expect(&Tok::RParen)?;
                        return Ok(Expr::CountStar);
                    }
                    self.descend()?;
                    let inner = self.atom()?;
                    self.ascend();
                    self.expect(&Tok::RParen)?;
                    return Ok(Expr::Count(Box::new(inner)));
                }
                if name.eq_ignore_ascii_case("true")
                    || name.eq_ignore_ascii_case("false")
                    || name.eq_ignore_ascii_case("null")
                {
                    return Ok(Expr::Literal(self.literal()?));
                }
                self.next();
                if matches!(self.peek(), Some(Tok::Dot)) {
                    self.next();
                    let prop = self.ident()?;
                    return Ok(Expr::Prop(name.to_owned(), prop));
                }
                Ok(Expr::Var(name.to_owned()))
            }
            other => Err(CypherError::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }

    fn return_clause(&mut self) -> Result<Return, CypherError> {
        let mut ret = Return {
            distinct: self.eat_keyword("distinct"),
            ..Return::default()
        };
        loop {
            let start = self.pos;
            let expr = self.expr()?;
            let text = self.render_tokens(start, self.pos);
            let alias = if self.eat_keyword("as") {
                Some(self.ident()?)
            } else {
                None
            };
            ret.items.push(ReturnItem { expr, alias, text });
            if matches!(self.peek(), Some(Tok::Comma)) {
                self.next();
            } else {
                break;
            }
        }
        if self.eat_keyword("order") {
            if !self.eat_keyword("by") {
                return Err(CypherError::Parse("ORDER must be followed by BY".into()));
            }
            let expr = self.expr()?;
            let asc = if self.eat_keyword("desc") {
                false
            } else {
                self.eat_keyword("asc");
                true
            };
            ret.order_by = Some((expr, asc));
        }
        if self.eat_keyword("skip") {
            ret.skip = Some(self.usize_literal()?);
        }
        if self.eat_keyword("limit") {
            ret.limit = Some(self.usize_literal()?);
        }
        Ok(ret)
    }

    fn usize_literal(&mut self) -> Result<usize, CypherError> {
        match self.next() {
            Some(Tok::Int(i)) if i >= 0 => Ok(i as usize),
            other => Err(CypherError::Parse(format!(
                "expected non-negative integer, found {other:?}"
            ))),
        }
    }

    fn render_tokens(&self, from: usize, to: usize) -> String {
        let mut s = String::new();
        for t in &self.toks[from..to] {
            match t {
                Tok::Ident(x) => s.push_str(x),
                Tok::Str(x) => {
                    s.push('"');
                    s.push_str(x);
                    s.push('"');
                }
                Tok::Int(i) => s.push_str(&i.to_string()),
                Tok::Float(f) => s.push_str(&f.to_string()),
                Tok::Param(x) => {
                    s.push('$');
                    s.push_str(x);
                }
                Tok::Dot => s.push('.'),
                Tok::Star => s.push('*'),
                Tok::LParen => s.push('('),
                Tok::RParen => s.push(')'),
                _ => s.push(' '),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_demo_query() {
        let q = parse("match (n) where n.name = \"wannacry\" return n").unwrap();
        match q {
            Query::Read {
                patterns,
                filter,
                ret,
            } => {
                assert_eq!(patterns.len(), 1);
                assert_eq!(patterns[0].nodes[0].var.as_deref(), Some("n"));
                assert!(matches!(filter, Some(Expr::Compare(..))));
                assert_eq!(ret.items.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_path_pattern_with_types() {
        let q = parse("MATCH (m:Malware)-[r:DROP]->(f:FileName) RETURN m.name, f.name").unwrap();
        match q {
            Query::Read { patterns, .. } => {
                let p = &patterns[0];
                assert_eq!(p.nodes.len(), 2);
                assert_eq!(p.rels.len(), 1);
                assert_eq!(p.rels[0].rel_type.as_deref(), Some("DROP"));
                assert_eq!(p.rels[0].direction, Direction::Out);
                assert_eq!(p.nodes[1].label.as_deref(), Some("FileName"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_incoming_and_undirected() {
        let q = parse("MATCH (a)<-[:USES]-(b) RETURN a").unwrap();
        if let Query::Read { patterns, .. } = q {
            assert_eq!(patterns[0].rels[0].direction, Direction::In);
        } else {
            panic!();
        }
        let q = parse("MATCH (a)-[]-(b) RETURN a").unwrap();
        if let Query::Read { patterns, .. } = q {
            assert_eq!(patterns[0].rels[0].direction, Direction::Either);
        } else {
            panic!();
        }
    }

    #[test]
    fn parses_property_map_and_literals() {
        let q = parse("MATCH (n:Malware {name: 'wannacry', score: 3.5}) RETURN n").unwrap();
        if let Query::Read { patterns, .. } = q {
            let props = &patterns[0].nodes[0].props;
            assert_eq!(props[0], ("name".into(), Value::from("wannacry")));
            assert_eq!(props[1], ("score".into(), Value::Float(3.5)));
        } else {
            panic!();
        }
    }

    #[test]
    fn parses_boolean_where() {
        let q = parse(
            "MATCH (n) WHERE n.name STARTS WITH 'wanna' AND NOT n.score > 3 OR n.x = true RETURN n",
        )
        .unwrap();
        if let Query::Read {
            filter: Some(e), ..
        } = q
        {
            assert!(matches!(e, Expr::Or(..)));
        } else {
            panic!();
        }
    }

    #[test]
    fn parses_aggregates_order_limit() {
        let q = parse(
            "MATCH (a:ThreatActor)-[:USES]->(t) RETURN a.name, count(t) AS uses ORDER BY count(t) DESC SKIP 1 LIMIT 5",
        )
        .unwrap();
        if let Query::Read { ret, .. } = q {
            assert_eq!(ret.items.len(), 2);
            assert!(ret.items[1].expr.is_aggregate());
            assert_eq!(ret.items[1].alias.as_deref(), Some("uses"));
            assert_eq!(ret.limit, Some(5));
            assert_eq!(ret.skip, Some(1));
            let (_, asc) = ret.order_by.unwrap();
            assert!(!asc);
        } else {
            panic!();
        }
    }

    #[test]
    fn parses_create_merge_delete() {
        assert!(matches!(
            parse("CREATE (m:Malware {name: 'x'})-[:DROP]->(f:FileName {name: 'y.exe'})"),
            Ok(Query::Create { .. })
        ));
        assert!(matches!(
            parse("MERGE (m:Malware {name: 'x'})"),
            Ok(Query::Merge { .. })
        ));
        assert!(matches!(
            parse("MATCH (m:Malware) WHERE m.name = 'x' DETACH DELETE m"),
            Ok(Query::Delete { detach: true, .. })
        ));
    }

    #[test]
    fn parse_predicate_accepts_where_expressions_only() {
        let e = parse_predicate("n.label = 'Technique' AND n.name CONTAINS 'T1486'").unwrap();
        assert!(matches!(e, Expr::And(..)));
        // Full query framing is trailing input for a predicate.
        assert!(parse_predicate("MATCH (n) RETURN n").is_err());
        assert!(parse_predicate("n.name = 'x' RETURN n").is_err());
        assert!(parse_predicate("").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded_not_a_stack_overflow() {
        // Deep-but-legal nesting parses.
        let ok = format!("{}n.x = 1{}", "(".repeat(100), ")".repeat(100));
        assert!(parse_predicate(&ok).is_ok());
        // Past the limit: a clean parse error, even at depths that would
        // otherwise blow the stack.
        let deep = format!("{}n.x = 1{}", "(".repeat(50_000), ")".repeat(50_000));
        assert!(matches!(parse_predicate(&deep), Err(CypherError::Parse(_))));
        let nots = format!("{} n.x = 1", "NOT ".repeat(50_000));
        assert!(matches!(parse_predicate(&nots), Err(CypherError::Parse(_))));
    }

    #[test]
    fn pattern_hop_count_is_bounded() {
        let hops = "-[:R]->(n)".repeat(MAX_PATTERN_HOPS + 1);
        let q = format!("MATCH (a){hops} RETURN a");
        assert!(matches!(parse(&q), Err(CypherError::Parse(_))));
        // At the limit it still parses.
        let hops = "-[:R]->(n)".repeat(MAX_PATTERN_HOPS);
        let q = format!("MATCH (a){hops} RETURN a");
        assert!(parse(&q).is_ok());
    }

    #[test]
    fn parses_var_length_patterns() {
        let q = parse("MATCH (a)-[:USES*1..3]->(b) RETURN b").unwrap();
        if let Query::Read { patterns, .. } = q {
            let rel = &patterns[0].rels[0];
            assert_eq!(rel.hops, Some((1, 3)));
            assert_eq!(rel.rel_type.as_deref(), Some("USES"));
            assert_eq!(rel.direction, Direction::Out);
        } else {
            panic!();
        }
        let q = parse("MATCH (a)-[*2]-(b) RETURN b").unwrap();
        if let Query::Read { patterns, .. } = q {
            assert_eq!(patterns[0].rels[0].hops, Some((2, 2)));
            assert_eq!(patterns[0].rels[0].direction, Direction::Either);
        } else {
            panic!();
        }
        // Zero hops, inverted/oversized ranges, and edge vars are clean errors.
        assert!(matches!(
            parse("MATCH (a)-[*0..2]->(b) RETURN b"),
            Err(CypherError::Parse(_))
        ));
        assert!(matches!(
            parse("MATCH (a)-[*3..2]->(b) RETURN b"),
            Err(CypherError::Parse(_))
        ));
        assert!(matches!(
            parse(&format!(
                "MATCH (a)-[*1..{}]->(b) RETURN b",
                MAX_PATTERN_HOPS + 1
            )),
            Err(CypherError::Parse(_))
        ));
        assert!(matches!(
            parse("MATCH (a)-[r*1..2]->(b) RETURN b"),
            Err(CypherError::Parse(_))
        ));
    }

    #[test]
    fn parses_parameters_as_expression_atoms_only() {
        let q = parse("MATCH (n) WHERE n.name = $who RETURN n").unwrap();
        if let Query::Read {
            filter: Some(Expr::Compare(_, _, rhs)),
            ..
        } = q
        {
            assert_eq!(*rhs, Expr::Param("who".into()));
        } else {
            panic!();
        }
        // RETURN column text renders the parameter reference.
        let q = parse("MATCH (n) RETURN $who").unwrap();
        if let Query::Read { ret, .. } = q {
            assert_eq!(ret.items[0].text, "$who");
        } else {
            panic!();
        }
        // Parameters are not literals: prop maps reject them cleanly.
        assert!(matches!(
            parse("MATCH (n {name: $who}) RETURN n"),
            Err(CypherError::Parse(_))
        ));
        assert!(matches!(
            parse("MATCH (n) RETURN n LIMIT $k"),
            Err(CypherError::Parse(_))
        ));
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("RETURN 1").is_err());
        assert!(parse("MATCH (n RETURN n").is_err());
        assert!(parse("MATCH (n) RETURN").is_err());
        assert!(parse("MATCH (a)<-[:X]->(b) RETURN a").is_err());
        assert!(parse("MATCH (n) WHERE n.name STARTS 'x' RETURN n").is_err());
        assert!(parse("MATCH (n) RETURN n LIMIT x").is_err());
        assert!(parse("MATCH (n) RETURN n extra").is_err());
    }
}
