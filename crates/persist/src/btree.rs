//! Persistent B-trees.
//!
//! Section 3.3 of the paper: "It is common to use a balanced tree strategy
//! in which the size of a tree node is one physical page … the cost of
//! reconstructing the page, as required by applicative updates, is likely to
//! be negligible" next to the page-transit time. This module is that
//! strategy: a copy-on-write B-tree whose node capacity models the page
//! size. Every write is one [`BTree::merge_batch`]: it copies the
//! root-to-leaf paths of the "pages" its effects touch, each page once,
//! shares the rest, and returns the number of pages it allocated, walking
//! nothing else. [`BTree::insert`] and [`BTree::remove`] are one-effect
//! batches. The `_counted` forms are the same operations followed by a walk
//! of the result that counts the pages shared — the measurement behind the
//! `(log n)/n` claim, for benches and tests.
//!
//! A functional B-tree in this style was implemented for the paper's group
//! by Paul Hudak (Section 5); this is the Rust equivalent.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::iter::FromIterator;
use std::sync::Arc;

use crate::report::CopyReport;

struct BNode<K, V> {
    keys: Vec<(K, V)>,
    /// Empty for leaf nodes; otherwise `keys.len() + 1` children.
    children: Vec<Arc<BNode<K, V>>>,
}

impl<K, V> BNode<K, V> {
    fn leaf() -> Self {
        BNode {
            keys: Vec::new(),
            children: Vec::new(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

impl<K: Clone, V: Clone> Clone for BNode<K, V> {
    fn clone(&self) -> Self {
        BNode {
            keys: self.keys.clone(),
            children: self.children.clone(),
        }
    }
}

/// A persistent B-tree map with run-time configurable minimum degree.
///
/// With minimum degree `t`, every node except the root holds between `t-1`
/// and `2t-1` entries; a node models one physical page. All operations are
/// copy-on-write: the previous version remains valid and shares all
/// untouched pages with the new one.
///
/// # Example
///
/// ```
/// use fundb_persist::BTree;
///
/// let v1: BTree<u32, &str> = BTree::new(16);
/// let v2 = v1.insert(1, "one");
/// assert_eq!(v2.get(&1), Some(&"one"));
/// assert_eq!(v1.get(&1), None); // the old page set is untouched
/// ```
pub struct BTree<K, V> {
    root: Arc<BNode<K, V>>,
    len: usize,
    min_degree: usize,
}

impl<K, V> Clone for BTree<K, V> {
    fn clone(&self) -> Self {
        BTree {
            root: Arc::clone(&self.root),
            len: self.len,
            min_degree: self.min_degree,
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for BTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for BTree<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: Eq, V: Eq> Eq for BTree<K, V> {}

impl<K, V> BTree<K, V> {
    /// Creates an empty B-tree with the given minimum degree `t` (so pages
    /// hold at most `2t - 1` entries).
    ///
    /// # Panics
    ///
    /// Panics if `min_degree < 2` — degree 1 would not be a B-tree.
    pub fn new(min_degree: usize) -> Self {
        assert!(min_degree >= 2, "B-tree minimum degree must be at least 2");
        BTree {
            root: Arc::new(BNode::leaf()),
            len: 0,
            min_degree,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured minimum degree `t`.
    pub fn min_degree(&self) -> usize {
        self.min_degree
    }

    /// Maximum entries per page (`2t - 1`).
    pub fn page_capacity(&self) -> usize {
        2 * self.min_degree - 1
    }

    /// Tree height (an empty tree has height 0, a single page height 1).
    pub fn height(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let mut h = 1;
        let mut cur = &self.root;
        while !cur.is_leaf() {
            h += 1;
            cur = &cur.children[0];
        }
        h
    }

    /// Total pages reachable from the root.
    pub fn node_count(&self) -> u64 {
        fn go<K, V>(n: &BNode<K, V>) -> u64 {
            1 + n.children.iter().map(|c| go(c)).sum::<u64>()
        }
        if self.len == 0 {
            0
        } else {
            go(&self.root)
        }
    }

    /// `true` if `self` and `other` share their root page (hence are the
    /// same tree, by immutability).
    pub fn ptr_eq(&self, other: &BTree<K, V>) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Reassembles a page from its parts — the inverse of one `fold_nodes`
    /// step. Checkpoint load uses this to rebuild the *exact* stored page
    /// layout (rather than re-inserting entries, which canonicalizes it),
    /// so the first checkpoint after recovery re-deduplicates against the
    /// node store instead of rewriting every page.
    ///
    /// `children` must be empty (a leaf page) or hold `keys.len() + 1`
    /// subtrees; `min_degree` must be at least 2. Only arity is checked
    /// here; occupancy, ordering, and depth are whole-tree properties, so
    /// the caller is expected to run
    /// [`check_invariants`](Self::check_invariants) on the finished root.
    pub fn from_parts(
        min_degree: usize,
        keys: Vec<(K, V)>,
        children: Vec<BTree<K, V>>,
    ) -> Option<BTree<K, V>> {
        if min_degree < 2 || (!children.is_empty() && children.len() != keys.len() + 1) {
            return None;
        }
        let len = keys.len() + children.iter().map(|c| c.len).sum::<usize>();
        let root = Arc::new(BNode {
            keys,
            children: children.into_iter().map(|c| c.root).collect(),
        });
        Some(BTree {
            root,
            len,
            min_degree,
        })
    }

    /// Memoized post-order fold over the physical pages — the serialization
    /// visitor used by sharing-aware checkpoints.
    ///
    /// `f` receives a page's entries and its children's fold results (empty
    /// for leaf pages). Results are memoized by page address, so pages
    /// shared with previously folded versions are pruned at their root and
    /// re-folding a successor version costs O(copied path) — the paper's
    /// "reconstruct one page per level" bound (Section 3.3) on the visitor.
    ///
    /// Addresses are only stable while the pages are alive — a caller that
    /// reuses `memo` across calls must keep every previously folded tree
    /// alive for as long as the memo is.
    pub fn fold_nodes<R, F>(&self, memo: &mut HashMap<usize, R>, f: &mut F) -> R
    where
        R: Clone,
        F: FnMut(&[(K, V)], &[R]) -> R,
    {
        fn go<K, V, R, F>(node: &Arc<BNode<K, V>>, memo: &mut HashMap<usize, R>, f: &mut F) -> R
        where
            R: Clone,
            F: FnMut(&[(K, V)], &[R]) -> R,
        {
            let addr = Arc::as_ptr(node) as usize;
            if let Some(r) = memo.get(&addr) {
                return r.clone();
            }
            let child_results: Vec<R> = node.children.iter().map(|c| go(c, memo, f)).collect();
            let result = f(&node.keys, &child_results);
            memo.insert(addr, result.clone());
            result
        }
        go(&self.root, memo, f)
    }

    /// In-order iterator over `(key, value)` pairs.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut it = Iter { stack: Vec::new() };
        if self.len > 0 {
            it.descend(&self.root);
        }
        it
    }

    /// Verifies B-tree invariants: sorted keys, occupancy bounds, uniform
    /// leaf depth, and a length that matches the entry count. For tests.
    pub fn check_invariants(&self) -> bool
    where
        K: Ord,
    {
        fn go<K: Ord, V>(
            n: &BNode<K, V>,
            t: usize,
            is_root: bool,
            lo: Option<&K>,
            hi: Option<&K>,
        ) -> Option<(usize, usize)> {
            let k = n.keys.len();
            if !is_root && (k < t - 1 || k > 2 * t - 1) {
                return None;
            }
            if is_root && k > 2 * t - 1 {
                return None;
            }
            for w in n.keys.windows(2) {
                if w[0].0 >= w[1].0 {
                    return None;
                }
            }
            if let Some(lo) = lo {
                if let Some(first) = n.keys.first() {
                    if first.0 <= *lo {
                        return None;
                    }
                }
            }
            if let Some(hi) = hi {
                if let Some(last) = n.keys.last() {
                    if last.0 >= *hi {
                        return None;
                    }
                }
            }
            if n.is_leaf() {
                return Some((1, k));
            }
            if n.children.len() != k + 1 {
                return None;
            }
            let mut depth = None;
            let mut count = k;
            for i in 0..n.children.len() {
                let clo = if i == 0 { lo } else { Some(&n.keys[i - 1].0) };
                let chi = if i == k { hi } else { Some(&n.keys[i].0) };
                let (d, c) = go(&n.children[i], t, false, clo, chi)?;
                match depth {
                    None => depth = Some(d),
                    Some(prev) if prev != d => return None,
                    _ => {}
                }
                count += c;
            }
            Some((depth.unwrap() + 1, count))
        }
        if self.len == 0 {
            return self.root.keys.is_empty() && self.root.children.is_empty();
        }
        match go(&self.root, self.min_degree, true, None, None) {
            Some((_, count)) => count == self.len,
            None => false,
        }
    }
}

impl<K: Ord, V> BTree<K, V> {
    /// Looks up `key`, or any borrowed form of it that orders the same way
    /// (a `&[T]` for `Arc<[T]>` keys, say), so a probe builds no key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur: &BNode<K, V> = &self.root;
        loop {
            match cur.keys.binary_search_by(|(k, _)| k.borrow().cmp(key)) {
                Ok(i) => return Some(&cur.keys[i].1),
                Err(i) => {
                    if cur.is_leaf() {
                        return None;
                    }
                    cur = &cur.children[i];
                }
            }
        }
    }

    /// `true` if `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// All entries with `lo <= key <= hi`, ascending; prunes pages wholly
    /// outside the range (O(log n + answer size) pages touched). The bounds
    /// may be borrowed forms of the key, as for [`get`](Self::get).
    pub fn range<Q>(&self, lo: &Q, hi: &Q) -> Vec<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        fn go<'a, K: Borrow<Q>, V, Q: Ord + ?Sized>(
            n: &'a BNode<K, V>,
            lo: &Q,
            hi: &Q,
            out: &mut Vec<(&'a K, &'a V)>,
        ) {
            let start = n.keys.partition_point(|(k, _)| k.borrow() < lo);
            // Child i precedes key i; visit child `start` through the child
            // after the last in-range key.
            let mut i = start;
            if !n.is_leaf() {
                go(&n.children[i], lo, hi, out);
            }
            while i < n.keys.len() && n.keys[i].0.borrow() <= hi {
                let (k, v) = &n.keys[i];
                out.push((k, v));
                if !n.is_leaf() {
                    go(&n.children[i + 1], lo, hi, out);
                }
                i += 1;
            }
        }
        let mut out = Vec::new();
        if self.len > 0 && lo <= hi {
            go(&self.root, lo, hi, &mut out);
        }
        out
    }

    /// The smallest entry.
    pub fn min(&self) -> Option<(&K, &V)> {
        if self.len == 0 {
            return None;
        }
        let mut cur = &self.root;
        while !cur.is_leaf() {
            cur = &cur.children[0];
        }
        cur.keys.first().map(|(k, v)| (k, v))
    }

    /// The largest entry.
    pub fn max(&self) -> Option<(&K, &V)> {
        if self.len == 0 {
            return None;
        }
        let mut cur = &self.root;
        while !cur.is_leaf() {
            cur = cur.children.last().expect("internal node has children");
        }
        cur.keys.last().map(|(k, v)| (k, v))
    }
}

impl<K: Ord + Clone, V: Clone> BTree<K, V> {
    /// Inserts or replaces `key`, returning the new tree: a one-effect
    /// [`merge_batch`](Self::merge_batch).
    pub fn insert(&self, key: K, value: V) -> BTree<K, V> {
        self.merge_batch(&[(key, Some(value))]).0
    }

    /// [`insert`](Self::insert) plus a [`CopyReport`] of pages copied versus
    /// shared (the `shared` count is an O(n) walk; use in benches/tests).
    pub fn insert_counted(&self, key: K, value: V) -> (BTree<K, V>, CopyReport) {
        self.merge_batch_counted(&[(key, Some(value))])
    }

    /// Removes `key`, returning the new tree and removed value, or `None`
    /// if absent: a one-effect [`merge_batch`](Self::merge_batch).
    pub fn remove(&self, key: &K) -> Option<(BTree<K, V>, V)> {
        let value = self.get(key)?.clone();
        Some((self.merge_batch(&[(key.clone(), None)]).0, value))
    }
}

/// The smallest entry under `node`, or `None` for an empty subtree. Below
/// a page holding keys every page is legal, so only a chain of keyless
/// pages can end in an empty leaf.
fn min_entry<K: Clone, V: Clone>(node: &Arc<BNode<K, V>>) -> Option<(K, V)> {
    let mut cur = node;
    while let Some(first) = cur.children.first() {
        cur = first;
    }
    cur.keys.first().cloned()
}

/// `page` as an owned page to rewrite. A page this batch made is taken
/// over in place; a page the old tree still holds is copied, and counted.
/// The old tree holds all its pages while a batch runs, so none of them is
/// ever taken over, and each is copied at most once: later rewrites find
/// the copy.
fn own<K: Clone, V: Clone>(page: Arc<BNode<K, V>>, copied: &mut u64) -> BNode<K, V> {
    Arc::try_unwrap(page).unwrap_or_else(|shared| {
        *copied += 1;
        (*shared).clone()
    })
}

/// [`own`] for a page left in its slot: the slot ends up holding the page
/// to rewrite, taken over or copied by the same rule.
fn writable<'a, K: Clone, V: Clone>(
    page: &'a mut Arc<BNode<K, V>>,
    copied: &mut u64,
) -> &'a mut BNode<K, V> {
    if Arc::get_mut(page).is_none() {
        *copied += 1;
    }
    Arc::make_mut(page)
}

/// Legal pages in key order and the separators that go between them.
type Pieces<K, V> = (Vec<Arc<BNode<K, V>>>, Vec<(K, V)>);

/// Cuts a page into legal pages filled to capacity left to right, the
/// last two balanced so the last keeps at least `t - 1` keys — the bulk
/// loader's fill, so appends leave full pages behind. A page of at most
/// `2t - 1` keys comes back whole. The first piece is the page itself;
/// each further one is a new page.
fn split_legal<K, V>(page: BNode<K, V>, t: usize, copied: &mut u64) -> Pieces<K, V> {
    let (cap, min) = (2 * t - 1, t - 1);
    let leaf = page.is_leaf();
    let mut left = page.keys.len();
    let mut keys = page.keys.into_iter();
    let mut children = page.children.into_iter();
    let (mut pages, mut seps) = (Vec::new(), Vec::new());
    loop {
        let mut take = cap.min(left);
        // Keys after this piece, the separator included.
        let after = left - take;
        if after > 0 && after - 1 < min {
            take = (left - 1 - min).max(min);
        }
        left -= take;
        pages.push(Arc::new(BNode {
            keys: keys.by_ref().take(take).collect(),
            children: if leaf {
                Vec::new()
            } else {
                children.by_ref().take(take + 1).collect()
            },
        }));
        match keys.next() {
            Some(sep) => {
                seps.push(sep);
                left -= 1;
            }
            None => break,
        }
    }
    *copied += pages.len() as u64 - 1;
    (pages, seps)
}

/// Fuses two neighbouring same-height pages and the separator between
/// them into one page and repairs the seam below it. The result may be
/// overfull; the caller cuts it. `l` is rewritten (copied if the old tree
/// holds it); `r`'s entries move into it.
fn fuse_pages<K: Clone, V: Clone>(
    l: Arc<BNode<K, V>>,
    sep: (K, V),
    r: Arc<BNode<K, V>>,
    t: usize,
    copied: &mut u64,
) -> BNode<K, V> {
    let mut page = own(l, copied);
    let r = Arc::try_unwrap(r).unwrap_or_else(|shared| (*shared).clone());
    page.keys.push(sep);
    page.keys.extend(r.keys);
    page.children.extend(r.children);
    repair(&mut page, t, copied);
    page
}

/// Makes every child of `page` legal: an overfull child is cut into legal
/// pages spliced in its place, an underfull one is fused with a neighbour.
/// A sole underfull child is left for the level above to fuse (or, under
/// the root, to collapse). Only pages this batch rewrote can be illegal,
/// so the repair touches the changed pages, one neighbour of each that
/// underflows, and the pages along the seam a fuse leaves below.
fn repair<K: Clone, V: Clone>(page: &mut BNode<K, V>, t: usize, copied: &mut u64) {
    let mut i = 0;
    while i < page.children.len() {
        let n = page.children[i].keys.len();
        if n > 2 * t - 1 {
            let (pages, seps) = split_legal(own(page.children.remove(i), copied), t, copied);
            let added = pages.len();
            page.children.splice(i..i, pages);
            page.keys.splice(i..i, seps);
            i += added;
        } else if n < t - 1 && page.children.len() > 1 {
            // Fuse children j and j + 1: the right neighbour, or the left
            // one for the last child. The fused page is checked again.
            let j = i.min(page.children.len() - 2);
            let r = page.children.remove(j + 1);
            let sep = page.keys.remove(j);
            let fused = fuse_pages(page.children.remove(j), sep, r, t, copied);
            page.children.insert(j, Arc::new(fused));
            i = j;
        } else {
            i += 1;
        }
    }
}

/// Merges `batch` into the subtree under `node` in one pass, leaving
/// `node` as it is when nothing under it changes. The page left in the
/// slot may hold too many or too few keys — the level above repairs it —
/// but every page below it is legal, save a sole underfull child of a page
/// left with no keys. `delta` accumulates the net entry-count change.
fn merge_page<K: Ord + Clone, V: Clone>(
    node: &mut Arc<BNode<K, V>>,
    batch: &[(K, Option<V>)],
    t: usize,
    copied: &mut u64,
    delta: &mut i64,
) {
    if batch.is_empty() {
        return;
    }
    if node.is_leaf() {
        let touched = batch
            .iter()
            .any(|(k, eff)| eff.is_some() || node.keys.binary_search_by(|(x, _)| x.cmp(k)).is_ok());
        if !touched {
            return;
        }
        // Each effect finds its place by binary search in the entries
        // still to come; the entries between two effects move in bulk.
        let mut keys = Vec::with_capacity(node.keys.len() + batch.len());
        let mut rest = &node.keys[..];
        for (bk, eff) in batch {
            let at = rest.partition_point(|(k, _)| k < bk);
            let found = rest.get(at).is_some_and(|(k, _)| k == bk);
            keys.extend_from_slice(&rest[..at]);
            rest = &rest[at + usize::from(found)..];
            if let Some(v) = eff {
                keys.push((bk.clone(), v.clone()));
            }
            *delta += i64::from(eff.is_some()) - i64::from(found);
        }
        keys.extend_from_slice(rest);
        match Arc::get_mut(node) {
            Some(page) => page.keys = keys,
            None => {
                *copied += 1;
                *node = Arc::new(BNode {
                    keys,
                    children: Vec::new(),
                });
            }
        }
        return;
    }
    // Internal page: an effect on a separator lands here; each run of
    // effects between two separators goes to the child between them.
    // Children without effects are not visited.
    let mut removed_separators = Vec::new();
    let mut rest = batch;
    while let Some((key, eff)) = rest.first() {
        let slot = node.keys.partition_point(|(k, _)| k < key);
        let Some((sep, _)) = node.keys.get(slot) else {
            merge_child(node, slot, rest, t, copied, delta);
            break;
        };
        if sep == key {
            match eff {
                Some(v) => writable(node, copied).keys[slot].1 = v.clone(),
                None => removed_separators.push(slot),
            }
            rest = &rest[1..];
        } else {
            let (run, after) = rest.split_at(rest.partition_point(|(k, _)| k < sep));
            merge_child(node, slot, run, t, copied, delta);
            rest = after;
        }
    }
    // Right to left, so a dropped separator shifts none still to come.
    for i in removed_separators.into_iter().rev() {
        *delta -= 1;
        let page = writable(node, copied);
        match min_entry(&page.children[i + 1]) {
            // The right subtree's minimum moves up to separate.
            Some(min) => {
                let remove_min = [(min.0.clone(), None)];
                merge_page(&mut page.children[i + 1], &remove_min, t, copied, &mut 0);
                page.keys[i] = min;
            }
            // Nothing survives right of the separator: it goes with its
            // empty subtree.
            None => {
                page.keys.remove(i);
                page.children.remove(i + 1);
            }
        }
    }
    // A page the old tree still holds is one nothing changed.
    if let Some(page) = Arc::get_mut(node) {
        repair(page, t, copied);
    }
}

/// Merges `run` into child `slot` of `node`. A page this batch made hands
/// its child over to be rewritten in place; a page the old tree holds is
/// copied only once the child comes back changed.
fn merge_child<K: Ord + Clone, V: Clone>(
    node: &mut Arc<BNode<K, V>>,
    slot: usize,
    run: &[(K, Option<V>)],
    t: usize,
    copied: &mut u64,
    delta: &mut i64,
) {
    if let Some(page) = Arc::get_mut(node) {
        return merge_page(&mut page.children[slot], run, t, copied, delta);
    }
    let mut child = Arc::clone(&node.children[slot]);
    merge_page(&mut child, run, t, copied, delta);
    if !Arc::ptr_eq(&child, &node.children[slot]) {
        writable(node, copied).children[slot] = child;
    }
}

impl<K: Ord + Clone, V: Clone> BTree<K, V> {
    /// Folds a strictly ascending batch of per-key effects into the tree in
    /// one structural pass: `Some(v)` sets the key, `None` removes it if
    /// present. Each page is copied at most once per batch, so `k` nearby
    /// effects cost O(k + touched pages) copies instead of `k` full
    /// root-to-leaf path copies. Returns the new tree and the number of
    /// pages it allocated.
    ///
    /// Pages the batch overfills or underfills are repaired where they
    /// sit: an overfull page is cut into legal pages spliced into its
    /// parent, an underfull one is fused with one neighbour, a deleted
    /// separator is replaced by the minimum of the subtree to its right,
    /// and the root grows or collapses a level as needed. A split or a
    /// fuse copies the pages it writes and nothing else.
    ///
    /// An empty tree routes through [`BTree::from_sorted_entries`] — the
    /// bulk-load path — so initial loads are O(n).
    ///
    /// # Panics
    ///
    /// Panics if batch keys are not strictly ascending.
    pub fn merge_batch(&self, batch: &[(K, Option<V>)]) -> (BTree<K, V>, u64) {
        crate::batch::assert_ascending(batch);
        let t = self.min_degree;
        if self.is_empty() {
            let entries: Vec<(K, V)> = batch
                .iter()
                .filter_map(|(k, v)| v.as_ref().map(|v| (k.clone(), v.clone())))
                .collect();
            let out = BTree::from_sorted_entries(t, entries);
            let copied = out.node_count();
            return (out, copied);
        }
        let mut copied = 0u64;
        let mut delta = 0i64;
        let mut root = self.root.clone();
        merge_page(&mut root, batch, t, &mut copied, &mut delta);
        // The root grows a level while it is overfull, and collapses
        // while it has no keys and one child.
        while root.keys.len() > 2 * t - 1 {
            let (children, keys) = split_legal(own(root, &mut copied), t, &mut copied);
            root = Arc::new(BNode { keys, children });
            copied += 1;
        }
        while root.keys.is_empty() && !root.is_leaf() {
            root = root.children[0].clone();
        }
        let out = BTree {
            root,
            len: (self.len as i64 + delta) as usize,
            min_degree: t,
        };
        (out, copied)
    }

    /// [`merge_batch`](Self::merge_batch) plus a [`CopyReport`] (the
    /// `shared` count is an O(n) walk; use in benches/tests).
    pub fn merge_batch_counted(&self, batch: &[(K, Option<V>)]) -> (BTree<K, V>, CopyReport) {
        let (out, copied) = self.merge_batch(batch);
        let shared = out.node_count().saturating_sub(copied);
        (out, CopyReport::new(copied, shared))
    }
}

impl<K: Ord + Clone, V: Clone> BTree<K, V> {
    /// Bulk-loads from entries that are already sorted by strictly
    /// ascending key — O(n), against O(n log n) repeated insertion.
    ///
    /// Builds maximally-filled pages: the entries start as one leaf, which
    /// is cut into legal pages under a new root until the root fits —
    /// the way `merge_batch` grows an overfull root.
    ///
    /// # Panics
    ///
    /// Panics if the keys are not strictly ascending (duplicates included).
    pub fn from_sorted_entries<I>(min_degree: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
    {
        assert!(min_degree >= 2, "B-tree minimum degree must be at least 2");
        let keys: Vec<(K, V)> = entries.into_iter().collect();
        for (i, w) in keys.windows(2).enumerate() {
            assert!(
                w[0].0 < w[1].0,
                "bulk load requires strictly ascending keys (violated at index {})",
                i + 1
            );
        }
        let len = keys.len();
        let mut root = BNode {
            keys,
            children: Vec::new(),
        };
        while root.keys.len() > 2 * min_degree - 1 {
            let (children, keys) = split_legal(root, min_degree, &mut 0);
            root = BNode { keys, children };
        }
        BTree {
            root: Arc::new(root),
            len,
            min_degree,
        }
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for BTree<K, V> {
    /// Builds with the default page size (minimum degree 8, i.e. pages of
    /// up to 15 entries). Use [`BTree::new`] to choose a page size.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut t = BTree::new(8);
        for (k, v) in iter {
            t = t.insert(k, v);
        }
        t
    }
}

/// In-order iterator over a [`BTree`]; see [`BTree::iter`].
pub struct Iter<'a, K, V> {
    /// (node, index of the next key to emit); children up to that key have
    /// been queued already.
    stack: Vec<(&'a BNode<K, V>, usize)>,
}

impl<K, V> fmt::Debug for Iter<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("btree::Iter")
    }
}

impl<'a, K, V> Iter<'a, K, V> {
    fn descend(&mut self, mut node: &'a BNode<K, V>) {
        loop {
            self.stack.push((node, 0));
            if node.is_leaf() {
                return;
            }
            node = &node.children[0];
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            let (node, i) = self.stack.pop()?;
            if i < node.keys.len() {
                self.stack.push((node, i + 1));
                if !node.is_leaf() {
                    self.descend(&node.children[i + 1]);
                }
                let (k, v) = &node.keys[i];
                return Some((k, v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn fold_nodes_memoizes_shared_pages() {
        let mut t: BTree<i32, i32> = BTree::new(3);
        for i in 0..256 {
            t = t.insert(i, i);
        }
        let mut memo: HashMap<usize, i64> = HashMap::new();
        let visited = std::cell::Cell::new(0usize);
        let mut f = |keys: &[(i32, i32)], rs: &[i64]| {
            visited.set(visited.get() + 1);
            keys.iter().map(|(k, _)| i64::from(*k)).sum::<i64>() + rs.iter().sum::<i64>()
        };
        let sum1 = t.fold_nodes(&mut memo, &mut f);
        assert_eq!(sum1, (0..256i64).sum::<i64>());
        assert_eq!(visited.get() as u64, t.node_count());

        let t2 = t.insert(300, 300);
        visited.set(0);
        let sum2 = t2.fold_nodes(&mut memo, &mut f);
        assert_eq!(sum2, sum1 + 300);
        // An insert copies (and possibly splits) one root-to-leaf path; far
        // fewer than the ~70 pages of the whole tree.
        assert!(
            (visited.get() as u64) <= 2 * t.height() as u64 + 2,
            "only the copied root-to-leaf path should be revisited, got {}",
            visited.get()
        );
    }

    #[test]
    fn empty_tree() {
        let t: BTree<i32, i32> = BTree::new(2);
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.height(), 0);
        assert_eq!(t.node_count(), 0);
        assert!(t.check_invariants());
    }

    #[test]
    #[should_panic(expected = "minimum degree")]
    fn degree_one_rejected() {
        let _: BTree<i32, i32> = BTree::new(1);
    }

    #[test]
    fn insert_get_many_degrees() {
        for t in [2, 3, 4, 8] {
            let mut tree: BTree<i32, i32> = BTree::new(t);
            for i in 0..500 {
                tree = tree.insert(i * 7 % 500, i);
            }
            assert!(tree.check_invariants(), "degree {t}");
            for i in 0..500 {
                assert!(tree.contains_key(&(i * 7 % 500)));
            }
        }
    }

    #[test]
    fn replace_keeps_len() {
        let t: BTree<i32, i32> = BTree::new(2).insert(1, 1).insert(1, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1), Some(&2));
    }

    #[test]
    fn persistence_old_version_intact() {
        let v1: BTree<i32, i32> = (0..100).map(|i| (i, i)).collect();
        let v2 = v1.insert(1000, 1000);
        let (v3, removed) = v2.remove(&50).unwrap();
        assert_eq!(removed, 50);
        assert_eq!(v1.len(), 100);
        assert_eq!(v2.len(), 101);
        assert_eq!(v3.len(), 100);
        assert_eq!(v1.get(&1000), None);
        assert_eq!(v2.get(&50), Some(&50));
        assert_eq!(v3.get(&50), None);
    }

    #[test]
    fn path_copy_is_logarithmic() {
        let tree: BTree<u32, u32> = (0..2000).map(|i| (i, i)).collect();
        let (_t2, report) = tree.insert_counted(99999, 0);
        assert!(
            report.copied as usize <= tree.height() + 3,
            "copied {} height {}",
            report.copied,
            tree.height()
        );
        assert!(report.copied_fraction() < 0.1, "{report}");
    }

    #[test]
    fn height_grows_slowly() {
        let tree: BTree<u32, u32> = (0..10_000).map(|i| (i, i)).collect();
        assert!(tree.height() <= 6, "height {}", tree.height());
    }

    #[test]
    fn iteration_sorted() {
        let tree: BTree<i32, i32> = [9, 1, 8, 2, 7, 3].iter().map(|&k| (k, k)).collect();
        let keys: Vec<i32> = tree.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 7, 8, 9]);
    }

    #[test]
    fn min_max() {
        let tree: BTree<i32, i32> = [4, 2, 9].iter().map(|&k| (k, k)).collect();
        assert_eq!(tree.min(), Some((&2, &2)));
        assert_eq!(tree.max(), Some((&9, &9)));
    }

    #[test]
    fn remove_missing_none() {
        let tree: BTree<i32, i32> = (0..10).map(|i| (i, i)).collect();
        assert!(tree.remove(&100).is_none());
    }

    #[test]
    fn remove_all_in_various_orders_small_degrees() {
        for t in [2, 3] {
            for n in [1usize, 2, 7, 20, 50] {
                let mut tree: BTree<usize, usize> = BTree::new(t);
                for i in 0..n {
                    tree = tree.insert(i, i);
                }
                // Ascending removal.
                let mut cur = tree.clone();
                for i in 0..n {
                    let (next, v) = cur.remove(&i).unwrap();
                    assert_eq!(v, i);
                    assert!(next.check_invariants(), "t={t} n={n} i={i}");
                    cur = next;
                }
                assert!(cur.is_empty());
                // Descending removal.
                let mut cur = tree.clone();
                for i in (0..n).rev() {
                    let (next, v) = cur.remove(&i).unwrap();
                    assert_eq!(v, i);
                    assert!(next.check_invariants(), "t={t} n={n} i={i} desc");
                    cur = next;
                }
                assert!(cur.is_empty());
            }
        }
    }

    #[test]
    fn random_ops_match_btreemap() {
        let mut model = BTreeMap::new();
        let mut tree: BTree<u32, u32> = BTree::new(3);
        let mut state = 0xdeadbeefu64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for step in 0..3000 {
            let k = rand() % 300;
            if rand() % 3 == 0 {
                let got = tree.remove(&k);
                let want = model.remove(&k);
                assert_eq!(got.as_ref().map(|(_, v)| v), want.as_ref(), "step {step}");
                if let Some((t2, _)) = got {
                    tree = t2;
                }
            } else {
                let v = rand();
                // The counted form is the same insert plus the walk.
                let (counted, report) = tree.insert_counted(k, v);
                let plain = tree.insert(k, v);
                assert_eq!(counted, plain, "step {step}");
                assert_eq!(report.total(), plain.node_count(), "step {step}");
                tree = plain;
                model.insert(k, v);
            }
            if step % 500 == 0 {
                assert!(tree.check_invariants(), "step {step}");
            }
        }
        assert!(tree.check_invariants());
        let got: Vec<(u32, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u32, u32)> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn equality_and_debug() {
        let a: BTree<i32, i32> = [(1, 1), (2, 2)].into_iter().collect();
        let b: BTree<i32, i32> = [(2, 2), (1, 1)].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(
            format!("{:?}", BTree::<i32, i32>::new(2).insert(1, 9)),
            "{1: 9}"
        );
    }

    #[test]
    fn bulk_load_matches_incremental() {
        for t in [2usize, 3, 8] {
            for n in [0usize, 1, 2, 5, 14, 15, 16, 99, 500] {
                let entries: Vec<(u32, u32)> = (0..n as u32).map(|k| (k, k * 3)).collect();
                let bulk = BTree::from_sorted_entries(t, entries.clone());
                assert!(bulk.check_invariants(), "t={t} n={n}");
                assert_eq!(bulk.len(), n, "t={t} n={n}");
                let mut incr = BTree::new(t);
                for (k, v) in entries {
                    incr = incr.insert(k, v);
                }
                assert_eq!(bulk, incr, "t={t} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bulk_load_rejects_unsorted() {
        let _ = BTree::from_sorted_entries(2, vec![(2u32, 0u32), (1, 0)]);
    }

    #[test]
    fn range_queries() {
        for t in [2usize, 3, 8] {
            let mut tree: BTree<i32, i32> = BTree::new(t);
            for k in (0..100).filter(|k| k % 2 == 0) {
                tree = tree.insert(k, k);
            }
            let got: Vec<i32> = tree.range(&10, &20).iter().map(|(k, _)| **k).collect();
            assert_eq!(got, vec![10, 12, 14, 16, 18, 20], "degree {t}");
            assert!(tree.range(&1, &1).is_empty());
            assert!(tree.range(&20, &10).is_empty());
            assert_eq!(tree.range(&-10, &1000).len(), 50);
        }
        let e: BTree<i32, i32> = BTree::new(2);
        assert!(e.range(&0, &1).is_empty());
    }

    #[test]
    fn range_matches_iter_filter() {
        let tree: BTree<i32, i32> = (0..300).map(|k| ((k * 11) % 300, k)).collect();
        for (lo, hi) in [(0, 299), (100, 120), (7, 7), (295, 400), (-5, 5)] {
            let want: Vec<i32> = tree
                .iter()
                .filter(|(k, _)| **k >= lo && **k <= hi)
                .map(|(k, _)| *k)
                .collect();
            let got: Vec<i32> = tree.range(&lo, &hi).iter().map(|(k, _)| **k).collect();
            assert_eq!(got, want, "range {lo}..={hi}");
        }
    }

    #[test]
    fn page_capacity_reported() {
        let t: BTree<i32, i32> = BTree::new(8);
        assert_eq!(t.min_degree(), 8);
        assert_eq!(t.page_capacity(), 15);
    }

    /// The keys of every page at height `min_height` or more (leaves are
    /// height 1): the separators a delete there has to replace.
    fn keys_at_height<K: Clone, V>(tree: &BTree<K, V>, min_height: usize) -> Vec<K> {
        fn go<K: Clone, V>(n: &BNode<K, V>, h: usize, min: usize, out: &mut Vec<K>) {
            if h < min {
                return;
            }
            out.extend(n.keys.iter().map(|(k, _)| k.clone()));
            for c in &n.children {
                go(c, h - 1, min, out);
            }
        }
        let mut out = Vec::new();
        go(&tree.root, tree.height(), min_height, &mut out);
        out
    }

    /// Addresses of every page reachable from the root.
    fn page_addrs<K, V>(tree: &BTree<K, V>) -> std::collections::HashSet<usize> {
        let mut memo = HashMap::new();
        tree.fold_nodes(&mut memo, &mut |_, _| ());
        memo.into_keys().collect()
    }

    #[test]
    fn merge_batch_matches_sequential_application() {
        for t in [2usize, 3, 4, 16] {
            let mut state = 0xabcd_1234u64 ^ (t as u64);
            let mut rand = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u32
            };
            // Keys 1000 apart leave room for dense runs inside one leaf;
            // 3000 keys give every degree a height of at least 3.
            let mut tree: BTree<u32, u32> =
                BTree::from_sorted_entries(t, (0..3000u32).map(|k| (k * 1000, k)));
            let mut model: BTreeMap<u32, u32> = tree.iter().map(|(k, v)| (*k, *v)).collect();
            for round in 0..48 {
                let mut batch: Vec<(u32, Option<u32>)> = Vec::new();
                match round % 6 {
                    // More than a page of inserts into one leaf's gap: the
                    // leaf comes back several pages wide.
                    0 | 3 => {
                        let base = (rand() % 3000) * 1000;
                        let run = 5 * (2 * t as u32 - 1);
                        batch.extend((1..=run).map(|d| (base + d, Some(rand()))));
                    }
                    // Delete every separator at height 3 and up, with some
                    // keys around them.
                    1 => {
                        let mut keys = keys_at_height(&tree, 3);
                        keys.extend(model.keys().copied().filter(|_| rand() % 7 == 0));
                        keys.sort_unstable();
                        keys.dedup();
                        batch.extend(keys.into_iter().map(|k| (k, None)));
                    }
                    // Delete all keys but one, then grow back from it.
                    4 if round > 20 => {
                        let keep = rand() as usize % model.len().max(1);
                        let keys = model.keys().enumerate().filter(|(i, _)| *i != keep);
                        batch.extend(keys.map(|(_, k)| (*k, None)));
                    }
                    // Sparse mixed inserts, replaces and deletes.
                    _ => {
                        let mut last = rand() % 1_000_000;
                        for _ in 0..(1 + rand() % 60) {
                            last += 1 + rand() % 40_000;
                            let eff = if rand() % 3 == 0 { None } else { Some(rand()) };
                            batch.push((last, eff));
                        }
                    }
                }
                let (merged, report) = tree.merge_batch_counted(&batch);
                let (plain, copied) = tree.merge_batch(&batch);
                assert_eq!(merged, plain, "t={t} round {round}");
                assert_eq!(report.copied, copied, "t={t} round {round}");
                for (k, eff) in &batch {
                    match eff {
                        Some(v) => {
                            model.insert(*k, *v);
                        }
                        None => {
                            model.remove(k);
                        }
                    }
                }
                assert!(merged.check_invariants(), "t={t} round {round}");
                assert_eq!(merged.len(), model.len(), "t={t} round {round}");
                let got: Vec<(u32, u32)> = merged.iter().map(|(k, v)| (*k, *v)).collect();
                let want: Vec<(u32, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "t={t} round {round}");
                // Every page of the result the old tree lacks was counted.
                let old = page_addrs(&tree);
                let fresh = page_addrs(&merged).difference(&old).count() as u64;
                assert!(
                    copied >= fresh,
                    "t={t} round {round}: {fresh} new pages, {copied} counted"
                );
                tree = merged;
            }
        }
    }

    #[test]
    fn merge_batch_repairs_a_split_leaf_locally() {
        // Bulk loading fills every page, so one insert splits its leaf
        // and every full page above it.
        let tree: BTree<u32, u32> =
            BTree::from_sorted_entries(16, (0..20_000u32).map(|k| (k * 2, k)));
        let bound = 2 * tree.height() as u64 + 1;
        let mut model: BTreeMap<u32, u32> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let matches = |t: &BTree<u32, u32>, model: &BTreeMap<u32, u32>| {
            t.check_invariants() && t.iter().map(|(k, v)| (*k, *v)).eq(model.clone())
        };
        let (split, copied) = tree.merge_batch(&[(1, Some(0))]);
        model.insert(1, 0);
        assert!(matches(&split, &model));
        assert!(
            copied <= bound,
            "an insert into a full leaf copied {copied} pages, bound {bound}"
        );
        // A delete in the first leaf left with t - 1 keys underfills it,
        // and it fuses with a neighbour.
        fn first_key_of_minimal_leaf(n: &BNode<u32, u32>, t: usize) -> Option<u32> {
            if n.is_leaf() {
                return (n.keys.len() == t - 1).then(|| n.keys[0].0);
            }
            n.children
                .iter()
                .find_map(|c| first_key_of_minimal_leaf(c, t))
        }
        let key =
            first_key_of_minimal_leaf(&split.root, 16).expect("a split leaves a minimal leaf");
        let (fused, copied) = split.merge_batch(&[(key, None)]);
        model.remove(&key);
        assert!(matches(&fused, &model));
        assert!(
            copied <= bound,
            "a delete that underfills a leaf copied {copied} pages, bound {bound}"
        );
    }

    #[test]
    fn merge_batch_on_empty_bulk_loads() {
        for t in [2usize, 4] {
            let batch: Vec<(u32, Option<u32>)> = (0..300)
                .map(|k| (k, if k % 5 == 0 { None } else { Some(k * 2) }))
                .collect();
            let empty: BTree<u32, u32> = BTree::new(t);
            let (built, report) = empty.merge_batch_counted(&batch);
            assert!(built.check_invariants(), "t={t}");
            assert_eq!(built.len(), 240, "t={t}");
            assert_eq!(report.copied, built.node_count(), "t={t}");
            assert_eq!(report.shared, 0, "t={t}");
        }
    }

    #[test]
    fn merge_batch_copies_far_less_than_singles() {
        let tree: BTree<u32, u32> =
            BTree::from_sorted_entries(4, (0..10_000u32).map(|k| (k * 2, k)));
        // 256 inserts into one adjacent odd-key region.
        let batch: Vec<(u32, Option<u32>)> =
            (0..256u32).map(|i| (8_000 + i * 2 + 1, Some(i))).collect();
        let (merged, copied) = tree.merge_batch(&batch);
        assert!(merged.check_invariants());
        assert_eq!(merged.len(), 10_256);

        let mut model: BTreeMap<u32, u32> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        model.extend(batch.iter().map(|(k, v)| (*k, v.unwrap())));
        assert!(merged.iter().map(|(k, v)| (*k, *v)).eq(model));

        // The same effects as one-effect batches, one after another.
        let mut singles = 0u64;
        let mut seq = tree.clone();
        for effect in &batch {
            let (next, c) = seq.merge_batch(std::slice::from_ref(effect));
            singles += c;
            seq = next;
        }
        assert!(
            copied * 2 <= singles,
            "batch copied {copied} vs {singles} for singles"
        );
    }

    #[test]
    fn merge_batch_noop_deletes_share_everything() {
        let tree: BTree<u32, u32> = BTree::from_sorted_entries(3, (0..500u32).map(|k| (k * 2, k)));
        let batch: Vec<(u32, Option<u32>)> = (0..100u32).map(|i| (i * 2 + 1, None)).collect();
        let (merged, copied) = tree.merge_batch(&batch);
        assert!(tree.ptr_eq(&merged));
        assert_eq!(copied, 0);
    }

    #[test]
    fn merge_batch_mixed_inserts_and_deletes() {
        let tree: BTree<u32, u32> = BTree::from_sorted_entries(3, (0..1000u32).map(|k| (k, k)));
        let mut batch: Vec<(u32, Option<u32>)> = Vec::new();
        for k in (0..400u32).step_by(2) {
            batch.push((k, None)); // delete evens below 400
        }
        for k in 500..600u32 {
            batch.push((k, Some(k + 7))); // replace a run
        }
        for k in 2000..2050u32 {
            batch.push((k, Some(k))); // append new keys
        }
        let (merged, copied) = tree.merge_batch(&batch);
        assert!(merged.check_invariants());
        assert_eq!(merged.len(), 1000 - 200 + 50);
        assert_eq!(merged.get(&0), None);
        assert_eq!(merged.get(&1), Some(&1));
        assert_eq!(merged.get(&550), Some(&557));
        assert_eq!(merged.get(&2049), Some(&2049));
        assert!(copied > 0 && copied < merged.node_count());
    }

    #[test]
    #[should_panic(expected = "strictly ascending keys (violated at index 1)")]
    fn merge_batch_rejects_unsorted() {
        let tree: BTree<u32, u32> = BTree::new(2);
        let _ = tree.merge_batch(&[(5, Some(0)), (1, Some(0))]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending keys (violated at index 2)")]
    fn bulk_load_names_offending_index() {
        let _ = BTree::from_sorted_entries(2, vec![(1u32, 0u32), (5, 0), (5, 0)]);
    }
}
