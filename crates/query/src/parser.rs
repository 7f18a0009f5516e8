//! Recursive-descent parser for the query language.

use fundb_relational::{RelationName, Tuple, Value};

use crate::ast::{AggOp, FieldRef, Predicate, Query, ReprSpec, ViewSpec};
use crate::error::ParseError;
use crate::token::{lex, Token};

/// Parses one query.
///
/// # Errors
///
/// Returns [`ParseError`] describing the first offending token.
///
/// # Example
///
/// ```
/// use fundb_query::{parse, Query};
///
/// let q = parse("find 5 in R")?;
/// assert_eq!(q.to_string(), "find 5 in R");
/// # Ok::<(), fundb_query::ParseError>(())
/// ```
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::at(self.pos, message)
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(self.err(format!("unexpected trailing input near '{t}'"))),
        }
    }

    /// Consumes a keyword (case-insensitive identifier).
    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            Some(t) => Err(self.err(format!("expected '{kw}', found '{t}'"))),
            None => Err(self.err(format!("expected '{kw}', found end of input"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn relation_name(&mut self) -> Result<RelationName, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(RelationName::new(&s)),
            Some(t) => Err(self.err(format!("expected relation name, found '{t}'"))),
            None => Err(self.err("expected relation name, found end of input")),
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Str(s)) => Ok(Value::from(s.as_str())),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Some(t) => Err(self.err(format!("expected a value, found '{t}'"))),
            None => Err(self.err("expected a value, found end of input")),
        }
    }

    /// `value` or `(value, value, …)`.
    fn tuple(&mut self) -> Result<Tuple, ParseError> {
        if self.peek() == Some(&Token::LParen) {
            self.next();
            let mut fields = vec![self.value()?];
            loop {
                match self.next() {
                    Some(Token::Comma) => fields.push(self.value()?),
                    Some(Token::RParen) => break,
                    Some(t) => return Err(self.err(format!("expected ',' or ')', found '{t}'"))),
                    None => return Err(self.err("unterminated tuple")),
                }
            }
            Ok(Tuple::new(fields))
        } else {
            Ok(Tuple::new(vec![self.value()?]))
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        let head = match self.peek() {
            Some(Token::Ident(s)) => s.to_ascii_lowercase(),
            Some(t) => return Err(self.err(format!("expected a query keyword, found '{t}'"))),
            None => return Err(self.err("empty query")),
        };
        match head.as_str() {
            "insert" => {
                self.next();
                let tuple = self.tuple()?;
                self.keyword("into")?;
                let relation = self.relation_name()?;
                Ok(Query::Insert { relation, tuple })
            }
            "find" => {
                self.next();
                let key = self.value()?;
                if self.peek_keyword("to") {
                    self.next();
                    let hi = self.value()?;
                    self.keyword("in")?;
                    let relation = self.relation_name()?;
                    Ok(Query::FindRange {
                        relation,
                        lo: key,
                        hi,
                    })
                } else {
                    self.keyword("in")?;
                    let relation = self.relation_name()?;
                    Ok(Query::Find { relation, key })
                }
            }
            "delete" => {
                self.next();
                let key = self.value()?;
                self.keyword("from")?;
                let relation = self.relation_name()?;
                Ok(Query::Delete { relation, key })
            }
            "replace" => {
                self.next();
                let tuple = self.tuple()?;
                self.keyword("in")?;
                let relation = self.relation_name()?;
                Ok(Query::Replace { relation, tuple })
            }
            "select" => {
                self.next();
                let projection = if self.peek_keyword("from") {
                    None
                } else {
                    let mut fields = vec![self.field_ref()?];
                    while self.peek() == Some(&Token::Comma) {
                        self.next();
                        fields.push(self.field_ref()?);
                    }
                    Some(fields)
                };
                self.keyword("from")?;
                let relation = self.relation_name()?;
                let predicate = if self.peek_keyword("where") {
                    self.next();
                    Some(self.predicate()?)
                } else {
                    None
                };
                Ok(Query::Select {
                    relation,
                    projection,
                    predicate,
                })
            }
            "create" => {
                self.next();
                if self.peek_keyword("index") {
                    self.next();
                    let name = self.attr_name()?;
                    self.keyword("on")?;
                    let relation = self.relation_name()?;
                    match self.next() {
                        Some(Token::LParen) => {}
                        _ => return Err(self.err("expected '(' before the indexed fields")),
                    }
                    let mut fields = vec![self.field_ref()?];
                    loop {
                        match self.next() {
                            Some(Token::Comma) => fields.push(self.field_ref()?),
                            Some(Token::RParen) => break,
                            Some(t) => {
                                return Err(self.err(format!("expected ',' or ')', found '{t}'")))
                            }
                            None => return Err(self.err("unterminated indexed field list")),
                        }
                    }
                    return Ok(Query::CreateIndex {
                        relation,
                        name,
                        fields,
                    });
                }
                if self.peek_keyword("view") {
                    self.next();
                    let name = self.relation_name()?;
                    self.keyword("as")?;
                    let spec = self.view_spec()?;
                    return Ok(Query::CreateView { name, spec });
                }
                self.keyword("relation")?;
                let relation = self.relation_name()?;
                let schema = if self.peek() == Some(&Token::LParen) {
                    self.next();
                    let mut attrs = vec![self.attr_name()?];
                    loop {
                        match self.next() {
                            Some(Token::Comma) => attrs.push(self.attr_name()?),
                            Some(Token::RParen) => break,
                            Some(t) => {
                                return Err(self.err(format!("expected ',' or ')', found '{t}'")))
                            }
                            None => return Err(self.err("unterminated attribute list")),
                        }
                    }
                    Some(attrs)
                } else {
                    None
                };
                let repr = if self.peek_keyword("as") {
                    self.next();
                    self.repr_spec()?
                } else {
                    ReprSpec::List
                };
                Ok(Query::Create {
                    relation,
                    schema,
                    repr,
                })
            }
            "count" => {
                self.next();
                let relation = self.relation_name()?;
                Ok(Query::Count { relation })
            }
            "sum" | "min" | "max" => {
                let op = match head.as_str() {
                    "sum" => AggOp::Sum,
                    "min" => AggOp::Min,
                    _ => AggOp::Max,
                };
                self.next();
                let field = self.field_ref()?;
                self.keyword("of")?;
                let relation = self.relation_name()?;
                Ok(Query::Aggregate {
                    relation,
                    op,
                    field,
                })
            }
            "join" => {
                self.next();
                let left = self.relation_name()?;
                self.keyword("with")?;
                let right = self.relation_name()?;
                let on = if self.peek_keyword("on") {
                    self.next();
                    let l = self.field_ref()?;
                    match self.next() {
                        Some(Token::Eq) => {}
                        _ => return Err(self.err("expected '=' between join fields")),
                    }
                    let r = self.field_ref()?;
                    Some((l, r))
                } else {
                    None
                };
                Ok(Query::Join { left, right, on })
            }
            "explain" => {
                self.next();
                let inner = self.query()?;
                Ok(Query::Explain(Box::new(inner)))
            }
            "relations" => {
                self.next();
                Ok(Query::Names)
            }
            other => Err(self.err(format!("unknown query keyword '{other}'"))),
        }
    }

    /// The derivation of a `create view … as` clause: `select from R
    /// [where P]`, `join L with R on f = f`, `count R by f`, or
    /// `sum f of R by f`.
    fn view_spec(&mut self) -> Result<ViewSpec, ParseError> {
        let head = match self.peek() {
            Some(Token::Ident(s)) => s.to_ascii_lowercase(),
            Some(t) => return Err(self.err(format!("expected a view derivation, found '{t}'"))),
            None => return Err(self.err("expected a view derivation, found end of input")),
        };
        match head.as_str() {
            "select" => {
                self.next();
                self.keyword("from")?;
                let relation = self.relation_name()?;
                let predicate = if self.peek_keyword("where") {
                    self.next();
                    Some(self.predicate()?)
                } else {
                    None
                };
                Ok(ViewSpec::Select {
                    relation,
                    predicate,
                })
            }
            "join" => {
                self.next();
                let left = self.relation_name()?;
                self.keyword("with")?;
                let right = self.relation_name()?;
                self.keyword("on")?;
                let l = self.field_ref()?;
                match self.next() {
                    Some(Token::Eq) => {}
                    _ => return Err(self.err("expected '=' between join fields")),
                }
                let r = self.field_ref()?;
                Ok(ViewSpec::Join {
                    left,
                    right,
                    on: (l, r),
                })
            }
            "count" => {
                self.next();
                let relation = self.relation_name()?;
                self.keyword("by")?;
                let group = self.field_ref()?;
                Ok(ViewSpec::Count { relation, group })
            }
            "sum" => {
                self.next();
                let field = self.field_ref()?;
                self.keyword("of")?;
                let relation = self.relation_name()?;
                self.keyword("by")?;
                let group = self.field_ref()?;
                Ok(ViewSpec::Sum {
                    relation,
                    field,
                    group,
                })
            }
            other => Err(self.err(format!(
                "a view derives from select, join, count or sum, not '{other}'"
            ))),
        }
    }

    fn repr_spec(&mut self) -> Result<ReprSpec, ParseError> {
        let found = match self.next() {
            Some(Token::Ident(s)) => match s.to_ascii_lowercase().as_str() {
                "list" => return Ok(ReprSpec::List),
                "tree" => return Ok(ReprSpec::Tree),
                "btree" => return Ok(ReprSpec::BTree(self.paren_usize("minimum degree", 2)?)),
                other => format!("'{other}'"),
            },
            Some(t) => format!("'{t}'"),
            None => "end of input".into(),
        };
        Err(self.err(format!(
            "expected representation (list, tree, btree(n)), found {found}"
        )))
    }

    /// Parses `(n)` with `n >= min`.
    fn paren_usize(&mut self, what: &str, min: usize) -> Result<usize, ParseError> {
        match self.next() {
            Some(Token::LParen) => {}
            _ => return Err(self.err(format!("expected '(' before {what}"))),
        }
        let n = match self.next() {
            Some(Token::Int(i)) if i >= min as i64 => i as usize,
            Some(Token::Int(i)) => {
                return Err(self.err(format!("{what} must be at least {min}, got {i}")))
            }
            _ => return Err(self.err(format!("expected {what} as an integer"))),
        };
        match self.next() {
            Some(Token::RParen) => Ok(n),
            _ => Err(self.err(format!("expected ')' after {what}"))),
        }
    }

    /// `#INT` or a bare attribute name.
    fn field_ref(&mut self) -> Result<FieldRef, ParseError> {
        match self.peek() {
            Some(Token::Hash) => {
                self.next();
                match self.next() {
                    Some(Token::Int(i)) if i >= 0 => Ok(FieldRef::Index(i as usize)),
                    _ => Err(self.err("expected a field index after '#'")),
                }
            }
            Some(Token::Ident(_)) => {
                let Some(Token::Ident(name)) = self.next() else {
                    unreachable!("peeked an identifier");
                };
                Ok(FieldRef::Name(name))
            }
            Some(t) => Err(self.err(format!("expected '#i' or attribute name, found '{t}'"))),
            None => Err(self.err("expected a field reference, found end of input")),
        }
    }

    fn attr_name(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(self.err(format!("expected attribute name, found '{t}'"))),
            None => Err(self.err("expected attribute name, found end of input")),
        }
    }

    /// `pred := conj { "or" conj }`
    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let mut left = self.conjunction()?;
        while self.peek_keyword("or") {
            self.next();
            let right = self.conjunction()?;
            left = Predicate::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// `conj := atom { "and" atom }`
    fn conjunction(&mut self) -> Result<Predicate, ParseError> {
        let mut left = self.atom()?;
        while self.peek_keyword("and") {
            self.next();
            let right = self.atom()?;
            left = Predicate::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// `atom := field op value | "(" pred ")"` where `field` is `#INT` or
    /// an attribute name.
    fn atom(&mut self) -> Result<Predicate, ParseError> {
        match self.peek() {
            Some(Token::LParen) => {
                self.next();
                let p = self.predicate()?;
                match self.next() {
                    Some(Token::RParen) => Ok(p),
                    _ => Err(self.err("expected ')' closing predicate group")),
                }
            }
            Some(Token::Hash) | Some(Token::Ident(_)) => {
                let field = self.field_ref()?;
                let op = self.next();
                let value = self.value()?;
                match op {
                    Some(Token::Eq) => Ok(Predicate::FieldEq(field, value)),
                    Some(Token::Neq) => Ok(Predicate::FieldNe(field, value)),
                    Some(Token::Lt) => Ok(Predicate::FieldLt(field, value)),
                    Some(Token::Gt) => Ok(Predicate::FieldGt(field, value)),
                    Some(t) => Err(self.err(format!("expected comparison operator, found '{t}'"))),
                    None => Err(self.err("expected comparison operator")),
                }
            }
            Some(t) => Err(self.err(format!("expected a field or '(', found '{t}'"))),
            None => Err(self.err("expected predicate, found end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_transactions() {
        // The exact transaction mix of Figure 2-3.
        for q in [
            "insert x into R",
            "insert z into S",
            "find x in R",
            "insert y into S",
            "find z in S",
        ] {
            // `x`, `y`, `z` are identifiers, not values, in our stricter
            // grammar; the paper's symbolic data maps to strings.
            let q = q
                .replace(" x ", " 'x' ")
                .replace(" y ", " 'y' ")
                .replace(" z ", " 'z' ");
            assert!(parse(&q).is_ok(), "{q}");
        }
    }

    #[test]
    fn insert_forms() {
        let q = parse("insert 5 into R").unwrap();
        assert_eq!(q.to_string(), "insert (5) into R");
        let q = parse("insert (1, 'ada', true) into Emp").unwrap();
        assert_eq!(q.to_string(), "insert (1, 'ada', true) into Emp");
    }

    #[test]
    fn find_range_forms() {
        assert_eq!(
            parse("find 3 to 9 in R").unwrap().to_string(),
            "find 3 to 9 in R"
        );
        assert_eq!(
            parse("find 'a' to 'z' in Names").unwrap().to_string(),
            "find 'a' to 'z' in Names"
        );
        assert!(parse("find 3 to in R").is_err());
        assert!(parse("find 3 to 9 R").is_err());
    }

    #[test]
    fn find_delete_replace() {
        assert_eq!(parse("find 5 in R").unwrap().to_string(), "find 5 in R");
        assert_eq!(
            parse("delete 'k' from S").unwrap().to_string(),
            "delete 'k' from S"
        );
        assert_eq!(
            parse("replace (1, 'b') in R").unwrap().to_string(),
            "replace (1, 'b') in R"
        );
    }

    #[test]
    fn select_with_predicates() {
        let q = parse("select from R").unwrap();
        assert_eq!(q.to_string(), "select from R");
        let q = parse("select from R where #0 = 1 and #1 < 'm' or #2 != true").unwrap();
        // `and` binds tighter than `or`.
        assert_eq!(
            q.to_string(),
            "select from R where ((#0 = 1 and #1 < 'm') or #2 != true)"
        );
        let q = parse("select from R where #0 = 1 and (#1 < 'm' or #2 > 3)").unwrap();
        assert_eq!(
            q.to_string(),
            "select from R where (#0 = 1 and (#1 < 'm' or #2 > 3))"
        );
    }

    #[test]
    fn create_variants() {
        assert_eq!(
            parse("create relation R").unwrap(),
            Query::Create {
                relation: "R".into(),
                schema: None,
                repr: ReprSpec::List
            }
        );
        assert_eq!(
            parse("create relation R as tree").unwrap().to_string(),
            "create relation R as tree"
        );
        assert_eq!(
            parse("create relation R as btree(8)").unwrap().to_string(),
            "create relation R as btree(8)"
        );
    }

    #[test]
    fn create_index_forms() {
        assert_eq!(
            parse("create index by_dept on Emp (#2)").unwrap(),
            Query::CreateIndex {
                relation: "Emp".into(),
                name: "by_dept".into(),
                fields: vec![FieldRef::Index(2)],
            }
        );
        assert_eq!(
            parse("create index by_dept_name on Emp (#2, name)").unwrap(),
            Query::CreateIndex {
                relation: "Emp".into(),
                name: "by_dept_name".into(),
                fields: vec![FieldRef::Index(2), FieldRef::Name("name".into())],
            }
        );
        // Named fields and round-tripping through Display (the WAL replay
        // path re-parses the displayed form).
        for q in [
            "create index by_dept on Emp (#2)",
            "create index by_name on Emp (name)",
            "create index by_dept_name on Emp (#2, name)",
            "create index wide on R (#1, #2, #3)",
        ] {
            assert_eq!(parse(q).unwrap().to_string(), q);
        }
        for bad in [
            "create index on Emp (#2)",
            "create index ix Emp (#2)",
            "create index ix on Emp #2",
            "create index ix on Emp (#2",
            "create index ix on Emp ()",
            "create index ix on Emp (#1,)",
            "create index ix on Emp (#1 #2)",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn create_view_forms() {
        assert_eq!(
            parse("create view V as select from R").unwrap(),
            Query::CreateView {
                name: "V".into(),
                spec: ViewSpec::Select {
                    relation: "R".into(),
                    predicate: None,
                },
            }
        );
        assert_eq!(
            parse("create view J as join L with R on #1 = #2").unwrap(),
            Query::CreateView {
                name: "J".into(),
                spec: ViewSpec::Join {
                    left: "L".into(),
                    right: "R".into(),
                    on: (FieldRef::Index(1), FieldRef::Index(2)),
                },
            }
        );
        // Round-trip through Display: the WAL replay path re-parses the
        // displayed form.
        for q in [
            "create view V as select from R",
            "create view V as select from R where (#1 = 7 and #2 < 'm')",
            "create view V as select from Emp where dept = 'eng'",
            "create view J as join L with R on #1 = #2",
            "create view J as join Emp with Dept on dept = #0",
            "create view C as count R by #1",
            "create view S as sum #2 of R by #1",
            "create view S as sum qty of Orders by region",
        ] {
            assert_eq!(parse(q).unwrap().to_string(), q);
        }
        for bad in [
            "create view V",
            "create view V as",
            "create view V as frobnicate R",
            "create view V as select #1 from R", // views keep whole rows
            "create view V as join L with R",    // 'on' is required
            "create view V as join L with R on #1",
            "create view V as count R",
            "create view V as sum #1 of R",
            "create view as select from R",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn aggregate_forms() {
        assert_eq!(parse("sum #1 of R").unwrap().to_string(), "sum #1 of R");
        assert_eq!(
            parse("min salary of Emp").unwrap().to_string(),
            "min salary of Emp"
        );
        assert_eq!(parse("max #0 of R").unwrap().to_string(), "max #0 of R");
        assert!(parse("sum of R").is_err());
        assert!(parse("sum #1 R").is_err());
    }

    #[test]
    fn join_form() {
        assert_eq!(parse("join R with S").unwrap().to_string(), "join R with S");
        assert_eq!(
            parse("join R with S on #2 = #0").unwrap(),
            Query::Join {
                left: "R".into(),
                right: "S".into(),
                on: Some((FieldRef::Index(2), FieldRef::Index(0))),
            }
        );
        assert_eq!(
            parse("join Emp with Dept on dept = #0")
                .unwrap()
                .to_string(),
            "join Emp with Dept on dept = #0"
        );
        assert!(parse("join R S").is_err());
        assert!(parse("join R with").is_err());
        assert!(parse("join R with S on #1").is_err());
        assert!(parse("join R with S on #1 = ").is_err());
        assert!(parse("join R with S on #1 < #2").is_err());
    }

    #[test]
    fn explain_forms() {
        for q in [
            "explain select from R where #1 = 7",
            "explain join R with S on #2 = #0",
            "explain find 5 in R",
        ] {
            assert_eq!(parse(q).unwrap().to_string(), q);
        }
        assert_eq!(
            parse("explain join R with S").unwrap(),
            Query::Explain(Box::new(Query::Join {
                left: "R".into(),
                right: "S".into(),
                on: None,
            }))
        );
        assert!(parse("explain").is_err());
        assert!(parse("explain frobnicate R").is_err());
    }

    #[test]
    fn count_and_names() {
        assert_eq!(
            parse("count R").unwrap(),
            Query::Count {
                relation: "R".into()
            }
        );
        assert_eq!(parse("relations").unwrap(), Query::Names);
        assert_eq!(parse("RELATIONS").unwrap(), Query::Names);
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse("INSERT 1 INTO R").is_ok());
        assert!(parse("Find 1 In R").is_ok());
    }

    #[test]
    fn booleans_as_values() {
        let q = parse("insert (1, true, false) into R").unwrap();
        assert_eq!(q.to_string(), "insert (1, true, false) into R");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "insert into R",
            "insert 1 R",
            "find in R",
            "frobnicate R",
            "select R",
            "select from R where",
            "select from R where #x = 1",
            "select from R where #0 ~ 1",
            "create relation R as btree(1)",
            "create relation R as paged(4)",
            "create relation R as hashmap",
            "insert (1,) into R",
            "insert (1 into R",
            "find 1 in R extra",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
        for unknown in [
            "create relation R as paged(4)",
            "create relation R as hashmap",
            "create relation R as 5",
            "create relation R as",
        ] {
            let e = parse(unknown).unwrap_err();
            assert!(
                e.to_string().contains("list, tree, btree(n)"),
                "{unknown}: {e}"
            );
        }
    }

    #[test]
    fn error_positions_monotone() {
        let e = parse("find 1 in R trailing").unwrap_err();
        assert!(e.position >= 4, "{e}");
        assert!(e.to_string().contains("trailing"));
    }
}
