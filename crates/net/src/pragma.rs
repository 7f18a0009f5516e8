//! Site-selection pragmas (Section 3.2).
//!
//! "Logically, the site at which database functions are processed is
//! irrelevant. However, it may be physically more efficient … to choose one
//! site over another for the application of a given function. For this
//! reason, we suggest the use of a site pragma: `RESULT-ON:[expr, site]`
//! yields the value of the first argument, but requires the outermost
//! function to be computed on the specified site; `MY-SITE:[]` gives the
//! executing site."
//!
//! [`SitePool`] simulates a set of sites as dedicated executor threads;
//! [`SitePool::result_on`] ships a closure to a chosen site and returns its
//! value; [`my_site`] reads the executing site from within such a closure.

use std::cell::Cell;
use std::fmt;

use crossbeam::channel::{self, Sender};
use fundb_lenient::Lenient;

use crate::message::SiteId;

thread_local! {
    static MY_SITE: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Renders a query pinned to `site` with the `RESULT-ON` pragma, as a
/// textual prefix: `result-on site3: find 7 in R`.
///
/// The paper's `RESULT-ON:[expr, site]` "yields the value of the first
/// argument, but requires the outermost function to be computed on the
/// specified site". On the cluster the outermost function of a query is
/// its execution, so the prefix directs *routing*: the client strips it
/// with [`strip_result_on`] and sends the bare query to exactly that
/// site, bypassing shard routing.
/// [`ShardedCluster::owning_site`](crate::ShardedCluster::owning_site)
/// gives the site that owns a key,
/// so a caller can pin follow-up queries where the data lives.
pub fn result_on_prefix(site: SiteId, query: &str) -> String {
    format!("result-on {site}: {query}")
}

/// Parses a [`result_on_prefix`]-shaped pragma off the front of `query`:
/// `result-on site<N>: <rest>` → `(site, rest)`. Returns `None` when the
/// prefix is absent or malformed — the text is then parsed as an
/// ordinary query, so a botched pragma is answered at the client with its
/// parse error and sends nothing.
pub fn strip_result_on(query: &str) -> Option<(SiteId, &str)> {
    let rest = query.trim_start().strip_prefix("result-on")?;
    let rest = rest.trim_start().strip_prefix("site")?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let n: u32 = rest[..digits].parse().ok()?;
    let rest = rest[digits..].trim_start().strip_prefix(':')?;
    Some((SiteId(n), rest.trim_start()))
}

/// The paper's `MY-SITE:[]`: the site whose executor is running the current
/// code, or `None` outside any site (e.g. on the test's main thread).
pub fn my_site() -> Option<SiteId> {
    MY_SITE.with(|s| s.get().map(SiteId))
}

type SiteJob = Box<dyn FnOnce() + Send + 'static>;

/// A set of simulated sites, each a dedicated executor thread whose
/// `MY-SITE` is fixed.
pub struct SitePool {
    senders: Vec<Sender<SiteJob>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for SitePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SitePool[{} sites]", self.senders.len())
    }
}

impl SitePool {
    /// Spins up `sites` executor threads.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is zero.
    pub fn new(sites: usize) -> Self {
        assert!(sites > 0, "a site pool needs at least one site");
        let mut senders = Vec::with_capacity(sites);
        let mut handles = Vec::with_capacity(sites);
        for site in 0..sites {
            let (tx, rx) = channel::unbounded::<SiteJob>();
            senders.push(tx);
            handles.push(std::thread::spawn(move || {
                MY_SITE.with(|s| s.set(Some(site as u32)));
                for job in rx {
                    job();
                }
            }));
        }
        SitePool { senders, handles }
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.senders.len()
    }

    /// The paper's `RESULT-ON`: evaluates `f` on `site` and returns the
    /// resulting value to the caller. Blocks until the value is available
    /// (the value, as always, may itself contain lenient components that
    /// are still being computed).
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn result_on<T, F>(&self, site: SiteId, f: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let cell: Lenient<T> = Lenient::new();
        let out = cell.clone();
        let sender = self
            .senders
            .get(site.0 as usize)
            .unwrap_or_else(|| panic!("no such site: {site}"));
        sender
            .send(Box::new(move || {
                let value = f();
                let _ = cell.fill(value);
            }))
            .expect("site executor alive until pool drop");
        out.wait_cloned()
    }

    /// Fire-and-forget execution on a site.
    pub fn spawn_on<F: FnOnce() + Send + 'static>(&self, site: SiteId, f: F) {
        let sender = self
            .senders
            .get(site.0 as usize)
            .unwrap_or_else(|| panic!("no such site: {site}"));
        sender
            .send(Box::new(f))
            .expect("site executor alive until pool drop");
    }
}

impl Drop for SitePool {
    fn drop(&mut self) {
        self.senders.clear(); // close channels; executors drain and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn my_site_outside_pool_is_none() {
        assert_eq!(my_site(), None);
    }

    #[test]
    fn result_on_runs_on_requested_site() {
        let pool = SitePool::new(4);
        for s in 0..4u32 {
            let got = pool.result_on(SiteId(s), my_site);
            assert_eq!(got, Some(SiteId(s)));
        }
    }

    #[test]
    fn result_on_returns_values() {
        let pool = SitePool::new(2);
        let v = pool.result_on(SiteId(1), || 6 * 7);
        assert_eq!(v, 42);
    }

    #[test]
    fn nested_result_on_changes_site() {
        // A function on site 0 delegates a subexpression to site 1 — the
        // paper's "that function could likewise specify the execution of
        // subsidiary functions on particular sites".
        let pool = std::sync::Arc::new(SitePool::new(2));
        let inner_pool = pool.clone();
        let (outer, inner) = pool.result_on(SiteId(0), move || {
            let inner = inner_pool.result_on(SiteId(1), my_site);
            (my_site(), inner)
        });
        assert_eq!(outer, Some(SiteId(0)));
        assert_eq!(inner, Some(SiteId(1)));
    }

    #[test]
    fn spawn_on_executes() {
        let pool = SitePool::new(2);
        let cell: Lenient<u32> = Lenient::new();
        let c = cell.clone();
        pool.spawn_on(SiteId(1), move || {
            c.fill(9).unwrap();
        });
        assert_eq!(*cell.wait(), 9);
    }

    #[test]
    #[should_panic(expected = "no such site")]
    fn out_of_range_site_panics() {
        let pool = SitePool::new(1);
        pool.result_on(SiteId(5), || ());
    }

    #[test]
    fn result_on_prefix_round_trips() {
        let q = result_on_prefix(SiteId(3), "find 7 in R");
        assert_eq!(q, "result-on site3: find 7 in R");
        assert_eq!(strip_result_on(&q), Some((SiteId(3), "find 7 in R")));
        assert_eq!(
            strip_result_on("  result-on  site10 :  count R"),
            Some((SiteId(10), "count R"))
        );
    }

    #[test]
    fn strip_result_on_rejects_malformed() {
        assert_eq!(strip_result_on("find 7 in R"), None);
        assert_eq!(strip_result_on("result-on site: find 7 in R"), None);
        assert_eq!(strip_result_on("result-on 3: find 7 in R"), None);
        assert_eq!(strip_result_on("result-on site3 find 7 in R"), None);
    }
}
