//! Property test: any AST the language can express survives a
//! display -> parse round trip, including deeply nested predicates.

use fundb_query::{parse, AggOp, FieldRef, Predicate, Query, ReprSpec, ViewSpec};
use fundb_relational::{RelationName, Tuple, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-z][a-z0-9\' ]{0,8}".prop_map(|s| Value::from(s.as_str())),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(value_strategy(), 1..5).prop_map(Tuple::new)
}

fn name_strategy() -> impl Strategy<Value = RelationName> {
    "[A-Za-z][A-Za-z0-9_]{0,9}".prop_map(|s| RelationName::new(&s))
}

fn field_ref_strategy() -> impl Strategy<Value = FieldRef> {
    prop_oneof![
        (0usize..6).prop_map(FieldRef::Index),
        // Avoid the connective keywords, which end a predicate atom.
        "[a-z][a-z0-9_]{0,7}"
            .prop_filter("not a keyword", |s| {
                !["and", "or", "true", "false", "to", "from", "where", "of"].contains(&s.as_str())
            })
            .prop_map(FieldRef::Name),
    ]
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        (field_ref_strategy(), value_strategy()).prop_map(|(f, v)| Predicate::FieldEq(f, v)),
        (field_ref_strategy(), value_strategy()).prop_map(|(f, v)| Predicate::FieldNe(f, v)),
        (field_ref_strategy(), value_strategy()).prop_map(|(f, v)| Predicate::FieldLt(f, v)),
        (field_ref_strategy(), value_strategy()).prop_map(|(f, v)| Predicate::FieldGt(f, v)),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Predicate::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Predicate::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn repr_strategy() -> impl Strategy<Value = ReprSpec> {
    prop_oneof![
        Just(ReprSpec::List),
        Just(ReprSpec::Tree),
        (2usize..32).prop_map(ReprSpec::BTree),
    ]
}

fn view_spec_strategy() -> impl Strategy<Value = ViewSpec> {
    prop_oneof![
        (name_strategy(), prop::option::of(predicate_strategy())).prop_map(
            |(relation, predicate)| ViewSpec::Select {
                relation,
                predicate
            }
        ),
        (
            name_strategy(),
            name_strategy(),
            field_ref_strategy(),
            field_ref_strategy()
        )
            .prop_map(|(left, right, lf, rf)| ViewSpec::Join {
                left,
                right,
                on: (lf, rf)
            }),
        (name_strategy(), field_ref_strategy())
            .prop_map(|(relation, group)| ViewSpec::Count { relation, group }),
        (name_strategy(), field_ref_strategy(), field_ref_strategy()).prop_map(
            |(relation, field, group)| ViewSpec::Sum {
                relation,
                field,
                group
            }
        ),
    ]
}

fn query_strategy() -> impl Strategy<Value = Query> {
    prop_oneof![
        (name_strategy(), tuple_strategy())
            .prop_map(|(relation, tuple)| Query::Insert { relation, tuple }),
        (name_strategy(), value_strategy())
            .prop_map(|(relation, key)| Query::Find { relation, key }),
        (name_strategy(), value_strategy(), value_strategy())
            .prop_map(|(relation, lo, hi)| Query::FindRange { relation, lo, hi }),
        (name_strategy(), value_strategy())
            .prop_map(|(relation, key)| Query::Delete { relation, key }),
        (name_strategy(), tuple_strategy())
            .prop_map(|(relation, tuple)| Query::Replace { relation, tuple }),
        (
            name_strategy(),
            prop::option::of(prop::collection::vec(field_ref_strategy(), 1..4)),
            prop::option::of(predicate_strategy())
        )
            .prop_map(|(relation, projection, predicate)| Query::Select {
                relation,
                projection,
                predicate
            }),
        (
            name_strategy(),
            prop::option::of(prop::collection::vec("[a-z][a-z0-9_]{0,7}", 1..4)),
            repr_strategy()
        )
            .prop_map(|(relation, schema, repr)| {
                // Schemas must have unique attribute names to round trip.
                let schema = schema.map(|mut attrs: Vec<String>| {
                    attrs.sort();
                    attrs.dedup();
                    attrs
                });
                Query::Create {
                    relation,
                    schema,
                    repr,
                }
            }),
        name_strategy().prop_map(|relation| Query::Count { relation }),
        (
            name_strategy(),
            name_strategy(),
            prop::option::of((field_ref_strategy(), field_ref_strategy()))
        )
            .prop_map(|(left, right, on)| Query::Join { left, right, on }),
        (
            name_strategy(),
            "[a-z][a-z0-9_]{0,7}",
            prop::collection::vec(field_ref_strategy(), 1..4)
        )
            .prop_map(|(relation, name, fields)| Query::CreateIndex {
                relation,
                name,
                fields
            }),
        (name_strategy(), view_spec_strategy())
            .prop_map(|(name, spec)| Query::CreateView { name, spec }),
        (
            name_strategy(),
            prop_oneof![Just(AggOp::Sum), Just(AggOp::Min), Just(AggOp::Max)],
            field_ref_strategy()
        )
            .prop_map(|(relation, op, field)| Query::Aggregate {
                relation,
                op,
                field
            }),
        Just(Query::Names),
    ]
}

/// Relation names that collide with the grammar's *contextual* keywords can
/// change the parse (e.g. `find 1 to 2 in R` vs a relation named `to`).
/// The language reserves nothing globally, but round-tripping is only
/// guaranteed away from the two context-sensitive spots.
fn ambiguous(q: &Query) -> bool {
    let keywordish = |s: &str| {
        ["to", "from", "where", "with", "as", "and", "or", "of"]
            .iter()
            .any(|k| s.eq_ignore_ascii_case(k))
    };
    match q {
        Query::Find { relation, .. } | Query::FindRange { relation, .. } => {
            keywordish(relation.as_str())
        }
        Query::Select {
            relation,
            projection,
            predicate,
        } => {
            keywordish(relation.as_str())
                || (predicate.is_none() && relation.as_str().eq_ignore_ascii_case("where"))
                // A projection whose first field is the bare name "from"
                // parses as an unprojected select.
                || projection.as_ref().is_some_and(|p| {
                    p.iter().any(|f| matches!(f, FieldRef::Name(n) if keywordish(n)))
                })
        }
        Query::Create { relation, .. } => keywordish(relation.as_str()),
        // A right relation named "on" would swallow an absent join clause's
        // keyword; join field names that are connectives are equally shifty.
        Query::Join { left, right, on } => {
            keywordish(left.as_str())
                || keywordish(right.as_str())
                || right.as_str().eq_ignore_ascii_case("on")
                || on.as_ref().is_some_and(|(l, r)| {
                    [l, r].iter().any(
                        |f| matches!(f, FieldRef::Name(n) if keywordish(n) || n.eq_ignore_ascii_case("on")),
                    )
                })
        }
        Query::CreateIndex {
            relation, fields, ..
        } => {
            keywordish(relation.as_str())
                || fields
                    .iter()
                    .any(|f| matches!(f, FieldRef::Name(n) if keywordish(n)))
        }
        Query::Aggregate {
            relation, field, ..
        } => keywordish(relation.as_str()) || matches!(field, FieldRef::Name(n) if keywordish(n)),
        // View specs add `by` and `on` as contextual keywords on top of
        // the base set, for the view name, every base name, and every
        // named field position.
        Query::CreateView { name, spec } => {
            let viewish =
                |s: &str| keywordish(s) || ["by", "on"].iter().any(|k| s.eq_ignore_ascii_case(k));
            let fieldish = |f: &FieldRef| matches!(f, FieldRef::Name(n) if viewish(n));
            viewish(name.as_str())
                || match spec {
                    ViewSpec::Select { relation, .. } => viewish(relation.as_str()),
                    ViewSpec::Join { left, right, on } => {
                        viewish(left.as_str())
                            || viewish(right.as_str())
                            || fieldish(&on.0)
                            || fieldish(&on.1)
                    }
                    ViewSpec::Count { relation, group } => {
                        viewish(relation.as_str()) || fieldish(group)
                    }
                    ViewSpec::Sum {
                        relation,
                        field,
                        group,
                    } => viewish(relation.as_str()) || fieldish(field) || fieldish(group),
                }
        }
        _ => false,
    }
}

proptest! {
    #[test]
    fn display_parse_round_trip(q in query_strategy()) {
        prop_assume!(!ambiguous(&q));
        let printed = q.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse '{printed}': {e}"));
        prop_assert_eq!(reparsed, q);
    }
}

mod select_semantics {
    use fundb_query::{apply_select, FieldRef, Predicate};
    use fundb_relational::{Schema, Tuple, Value};
    use proptest::prelude::*;

    fn tuples() -> impl Strategy<Value = Vec<Tuple>> {
        prop::collection::vec(
            prop::collection::vec(any::<i16>(), 3..3 + 1).prop_map(|vals| {
                Tuple::new(vals.into_iter().map(|v| Value::Int(i64::from(v))).collect())
            }),
            0..40,
        )
    }

    proptest! {
        #[test]
        fn apply_select_equals_manual_filter_map(
            ts in tuples(),
            threshold in any::<i16>(),
            cols in prop::collection::vec(0usize..3, 1..3),
        ) {
            let threshold = Value::Int(i64::from(threshold));
            let predicate = Some(Predicate::FieldGt(FieldRef::Index(1), threshold.clone()));
            let projection = Some(cols.iter().map(|&i| FieldRef::Index(i)).collect());
            let got = apply_select(ts.clone(), None, &projection, &predicate).unwrap();
            let want: Vec<Tuple> = ts
                .iter()
                .filter(|t| t.get(1).unwrap() > &threshold)
                .map(|t| {
                    Tuple::new(cols.iter().map(|&i| t.get(i).unwrap().clone()).collect())
                })
                .collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn named_and_positional_selects_agree(ts in tuples(), threshold in any::<i16>()) {
            let schema = Schema::new(&["a", "b", "c"]).unwrap();
            let threshold = Value::Int(i64::from(threshold));
            let by_name = apply_select(
                ts.clone(),
                Some(&schema),
                &Some(vec![FieldRef::Name("c".into())]),
                &Some(Predicate::FieldLt(FieldRef::Name("b".into()), threshold.clone())),
            )
            .unwrap();
            let by_index = apply_select(
                ts,
                None,
                &Some(vec![FieldRef::Index(2)]),
                &Some(Predicate::FieldLt(FieldRef::Index(1), threshold)),
            )
            .unwrap();
            prop_assert_eq!(by_name, by_index);
        }
    }
}
