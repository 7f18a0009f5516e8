//! Routing: shard-aware query dispatch, and multi-hop paths over explicit
//! topologies.
//!
//! Two kinds of routing live here. [`plan_route`] is the *logical* kind: a
//! pure function from a parsed query to where it must execute on a
//! partitioned cluster — the owning shard for keyed operations, a
//! scatter-gather over every shard for scans, every primary for DDL, and
//! nowhere for a statement no shard can answer from its own partition. It is
//! pure so the shard-aware client can be tested without a cluster: a
//! miswired round-robin (reads for a key bouncing to a sibling shard's
//! replicas) is caught by a unit test on the plan, not by a flaky empty
//! read. [`combine_gather`] folds the per-shard partial responses of a
//! scattered read back into one response.
//!
//! [`Router`] is the *physical* kind: "Nodes which route information
//! within the network must, of course, take the physical topology into
//! account." (Section 3.4.) On the broadcast medium routing is trivial;
//! `Router` provides the point-to-point view used when the cluster is
//! mapped onto one of the simulator topologies — it computes greedy
//! shortest next-hops and whole paths, and accounts hop counts for delay
//! models.

use std::fmt;

use fundb_query::{AggOp, FieldRef, Query, Response, ViewSpec};
use fundb_rediflow::Topology;
use fundb_relational::{Tuple, Value};

use crate::message::SiteId;

/// How the partial responses of a scattered read are folded into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherKind {
    /// Concatenate tuple sets and sort by value order (hash partitioning
    /// interleaves keys across shards, so a deterministic merged order has
    /// to be re-established; value order matches what a single key-ordered
    /// store would scan).
    Tuples,
    /// Sum the counts.
    Count,
    /// Fold the per-shard aggregates with the same operation.
    Agg(AggOp),
    /// Every shard must succeed (DDL); the first response stands in for
    /// all of them, except that a created view's row count is summed.
    AllOk,
}

/// Where a query must execute on a partitioned cluster.
///
/// The plan is in terms of *shards*, not sites: the client maps the owning
/// shard to its primary (writes) or round-robins over that shard's — and
/// only that shard's — replicas (reads).
#[derive(Debug, Clone, PartialEq)]
pub enum RoutePlan {
    /// A single-key write: the owning shard's primary, directly.
    WriteKey(Value),
    /// A single-key read: the owning shard's read set.
    ReadKey(Value),
    /// A read that touches every partition: scatter to each shard's read
    /// set, gather with the given combine.
    GatherRead(GatherKind),
    /// DDL that must hold on every shard: scatter to every primary.
    AllPrimaries(GatherKind),
    /// A catalog read any single shard can answer (every shard holds the
    /// full catalog).
    AnyShard,
    /// A statement no shard can answer from its own partition: refused
    /// with this reason, sent nowhere.
    Refuse(String),
}

/// Routes a parsed query on a hash-partitioned cluster.
///
/// Keyed operations go to the key's owner; scans and aggregates scatter;
/// DDL broadcasts to every primary (every shard holds every relation —
/// only the tuples are partitioned). Keys are hash-partitioned identically
/// for every relation, so a join on both keys (`join L with R`, or
/// `on #0 = #0`) finds all its matches on one shard and stays a *gather*
/// whose partial joins just concatenate. Any other join — a named field
/// included, since the client holds no schema to resolve it — would meet
/// only the matches inside each partition, and a `count`/`sum` view would
/// keep one partial row per shard and group, so those are refused.
pub fn plan_route(query: &Query) -> RoutePlan {
    match query {
        Query::Join { on: Some(on), .. }
        | Query::CreateView {
            spec: ViewSpec::Join { on, .. },
            ..
        } if on != &(FieldRef::Index(0), FieldRef::Index(0)) => RoutePlan::Refuse(format!(
            "a sharded cluster joins only on the key and resolves no field names: \
             `on {} = {}` must be `on #0 = #0`, or a key join without `on`",
            on.0, on.1
        )),
        Query::CreateView {
            spec: ViewSpec::Count { .. } | ViewSpec::Sum { .. },
            ..
        } => RoutePlan::Refuse(
            "a sharded cluster cannot keep a grouped view: a group's rows span shards".into(),
        ),
        Query::Insert { tuple, .. } | Query::Replace { tuple, .. } => {
            RoutePlan::WriteKey(tuple.key().clone())
        }
        Query::Delete { key, .. } => RoutePlan::WriteKey(key.clone()),
        Query::Find { key, .. } => RoutePlan::ReadKey(key.clone()),
        Query::FindRange { .. } | Query::Select { .. } | Query::Join { .. } => {
            RoutePlan::GatherRead(GatherKind::Tuples)
        }
        Query::Count { .. } => RoutePlan::GatherRead(GatherKind::Count),
        Query::Aggregate { op, .. } => RoutePlan::GatherRead(GatherKind::Agg(*op)),
        // `create view` is DDL like `create`/`create index`: every shard
        // holds the full catalog and maintains the view over its own
        // partition of the bases, so the definition must hold everywhere.
        Query::Create { .. } | Query::CreateIndex { .. } | Query::CreateView { .. } => {
            RoutePlan::AllPrimaries(GatherKind::AllOk)
        }
        // A plan is advisory: any shard can produce one from its local
        // catalog and (partition-local) cardinalities.
        Query::Explain(_) | Query::Names => RoutePlan::AnyShard,
    }
}

/// Folds per-shard partial responses into the response the client sees.
///
/// `partials` is sorted by responding site first, so the fold — in
/// particular which error surfaces when several shards fail — does not
/// depend on reply arrival order.
pub fn combine_gather(kind: GatherKind, mut partials: Vec<(SiteId, Response)>) -> Response {
    partials.sort_by_key(|(site, _)| *site);
    if let Some((_, err)) = partials.iter().find(|(_, r)| r.is_error()) {
        return err.clone();
    }
    match kind {
        GatherKind::Tuples => {
            let mut tuples: Vec<Tuple> = Vec::new();
            for (site, r) in partials {
                match r {
                    Response::Tuples(ts) => tuples.extend(ts),
                    other => {
                        return Response::Error(format!(
                            "{site} answered a tuple gather with {other}"
                        ))
                    }
                }
            }
            tuples.sort();
            Response::Tuples(tuples)
        }
        GatherKind::Count => {
            let mut total = 0usize;
            for (site, r) in partials {
                match r {
                    Response::Count(n) => total += n,
                    other => {
                        return Response::Error(format!(
                            "{site} answered a count gather with {other}"
                        ))
                    }
                }
            }
            Response::Count(total)
        }
        GatherKind::Agg(op) => {
            let mut acc: Option<Value> = None;
            let mut op_name = op.to_string();
            for (site, r) in partials {
                match r {
                    Response::Aggregate { op: name, value } => {
                        op_name = name;
                        acc = match (acc, value) {
                            (a, None) => a,
                            (None, Some(v)) => Some(v),
                            (Some(a), Some(v)) => Some(match op {
                                AggOp::Sum => {
                                    let (a, v) = (a.as_int().unwrap_or(0), v.as_int().unwrap_or(0));
                                    match a.checked_add(v) {
                                        Some(sum) => Value::Int(sum),
                                        None => return Response::Error("sum overflows i64".into()),
                                    }
                                }
                                AggOp::Min => {
                                    if v < a {
                                        v
                                    } else {
                                        a
                                    }
                                }
                                AggOp::Max => {
                                    if v > a {
                                        v
                                    } else {
                                        a
                                    }
                                }
                            }),
                        };
                    }
                    other => {
                        return Response::Error(format!(
                            "{site} answered an aggregate gather with {other}"
                        ))
                    }
                }
            }
            Response::Aggregate {
                op: op_name,
                value: acc,
            }
        }
        GatherKind::AllOk => {
            let mut rest = partials.into_iter().map(|(_, r)| r);
            let first = rest.next();
            let first = first.unwrap_or_else(|| Response::Error("gather over zero shards".into()));
            // A view's rows are spread over the shards like its bases'.
            rest.fold(first, |all, r| match (all, r) {
                (
                    Response::ViewCreated { name, rows },
                    Response::ViewCreated { rows: more, .. },
                ) => Response::ViewCreated {
                    name,
                    rows: rows + more,
                },
                (all, _) => all,
            })
        }
    }
}

/// Computes routes over a [`Topology`].
pub struct Router<'a> {
    topology: &'a dyn Topology,
}

impl fmt::Debug for Router<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Router[{}]", self.topology.name())
    }
}

impl<'a> Router<'a> {
    /// A router over `topology`. Sites map to topology nodes by index.
    pub fn new(topology: &'a dyn Topology) -> Self {
        Router { topology }
    }

    /// Number of addressable sites.
    pub fn sites(&self) -> usize {
        self.topology.nodes()
    }

    /// Hop distance between two sites.
    ///
    /// # Panics
    ///
    /// Panics if either site is out of range for the topology.
    pub fn hops(&self, from: SiteId, to: SiteId) -> u32 {
        self.topology.distance(from.0 as usize, to.0 as usize)
    }

    /// The next hop from `from` toward `to`: the neighbour strictly closer
    /// to the destination (lowest index among ties). Returns `None` when
    /// already there.
    pub fn next_hop(&self, from: SiteId, to: SiteId) -> Option<SiteId> {
        if from == to {
            return None;
        }
        let best = self
            .topology
            .neighbors(from.0 as usize)
            .into_iter()
            .min_by_key(|&n| (self.topology.distance(n, to.0 as usize), n))
            .expect("connected topology has neighbours");
        Some(SiteId(best as u32))
    }

    /// The full greedy path `from → … → to` (inclusive of both ends).
    ///
    /// On the provided topologies (hypercube, mesh, ring, complete) greedy
    /// next-hops always decrease the distance, so the path length equals
    /// [`hops`](Self::hops).
    pub fn path(&self, from: SiteId, to: SiteId) -> Vec<SiteId> {
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            let next = self
                .next_hop(cur, to)
                .expect("loop guard: cur != to implies a next hop");
            assert!(
                self.hops(next, to) < self.hops(cur, to),
                "greedy routing made no progress at {cur}"
            );
            path.push(next);
            cur = next;
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_rediflow::{Complete, EuclideanCube, Hypercube, Ring};

    #[test]
    fn off_key_joins_and_grouped_views_route_nowhere() {
        let plan = |q: &str| plan_route(&fundb_query::parse(q).unwrap());
        for q in [
            "join L with R on #1 = #1",
            "join L with R on id = id",
            "create view J as join L with R on #0 = #1",
            "create view G as count L by #1",
            "create view S as sum #1 of L by #2",
        ] {
            assert!(matches!(plan(q), RoutePlan::Refuse(_)), "{q}");
        }
        for q in ["join L with R", "join L with R on #0 = #0"] {
            assert_eq!(plan(q), RoutePlan::GatherRead(GatherKind::Tuples), "{q}");
        }
        for q in [
            "create view K as join L with R on #0 = #0",
            "create view V as select from L where #1 > 2",
        ] {
            assert_eq!(plan(q), RoutePlan::AllPrimaries(GatherKind::AllOk), "{q}");
        }
    }

    #[test]
    fn a_gathered_sum_past_i64_max_is_an_error() {
        let partial = |site, value: i64| {
            (
                SiteId(site),
                Response::Aggregate {
                    op: "sum".into(),
                    value: Some(Value::Int(value)),
                },
            )
        };
        let sum = |partials| combine_gather(GatherKind::Agg(AggOp::Sum), partials);
        assert_eq!(
            sum(vec![partial(0, i64::MAX), partial(1, 1)]),
            Response::Error("sum overflows i64".into())
        );
        assert_eq!(
            sum(vec![partial(1, -1), partial(0, i64::MAX)]),
            Response::Aggregate {
                op: "sum".into(),
                value: Some(Value::Int(i64::MAX - 1)),
            }
        );
    }

    #[test]
    fn hypercube_paths_have_hamming_length() {
        let topo = Hypercube::new(3);
        let r = Router::new(&topo);
        assert_eq!(r.sites(), 8);
        let path = r.path(SiteId(0b000), SiteId(0b111));
        assert_eq!(path.len(), 4); // 3 hops + origin
        assert_eq!(path[0], SiteId(0));
        assert_eq!(*path.last().unwrap(), SiteId(7));
        assert_eq!(r.hops(SiteId(0), SiteId(7)), 3);
    }

    #[test]
    fn self_path_is_trivial() {
        let topo = Ring::new(5);
        let r = Router::new(&topo);
        assert_eq!(r.path(SiteId(2), SiteId(2)), vec![SiteId(2)]);
        assert_eq!(r.next_hop(SiteId(2), SiteId(2)), None);
    }

    #[test]
    fn mesh_paths_progress_monotonically() {
        let topo = EuclideanCube::new(3);
        let r = Router::new(&topo);
        for from in 0..27u32 {
            for to in 0..27u32 {
                let path = r.path(SiteId(from), SiteId(to));
                assert_eq!(path.len() as u32, r.hops(SiteId(from), SiteId(to)) + 1);
            }
        }
    }

    #[test]
    fn ring_takes_short_way_round() {
        let topo = Ring::new(6);
        let r = Router::new(&topo);
        let path = r.path(SiteId(0), SiteId(5));
        assert_eq!(path, vec![SiteId(0), SiteId(5)]);
    }

    #[test]
    fn complete_is_single_hop() {
        let topo = Complete::new(4);
        let r = Router::new(&topo);
        assert_eq!(r.path(SiteId(0), SiteId(3)).len(), 2);
    }
}
