//! Persistent 2-3 trees: the secondary-index map.
//!
//! The paper cites Hoffman & O'Donnell's equational 2-3 tree code (and its
//! FEL transcription by Mamdouh Ibrahim) as the canonical functional tree.
//! This module is that structure — a balanced search tree whose interior
//! nodes hold one or two keys — in the one role it keeps: the map from an
//! indexed value to its posting list behind every secondary index.
//! Relations themselves are stored in the [`BTree`](crate::BTree).
//!
//! Its one write is [`Tree23::merge_batch`]: a strictly ascending run of
//! per-key effects folded in one structural pass that copies each touched
//! node once and shares every untouched subtree — the `(log n)/n` copying
//! bound of Section 2.2 at batch granularity. It returns the number of
//! nodes it allocated and walks nothing else.

use std::fmt;
use std::sync::Arc;

type Entry<K, V> = (K, V);

enum Node<K, V> {
    /// Empty subtree; all leaves sit at the same depth.
    Leaf,
    /// One entry, two children.
    Two(Arc<Node<K, V>>, Entry<K, V>, Arc<Node<K, V>>),
    /// Two entries, three children.
    Three(
        Arc<Node<K, V>>,
        Entry<K, V>,
        Arc<Node<K, V>>,
        Entry<K, V>,
        Arc<Node<K, V>>,
    ),
}

impl<K, V> Node<K, V> {
    fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf)
    }
}

/// Result of growing a subtree: it either still fits in the same height,
/// or it split and kicks an entry up to the parent.
enum Ins<K, V> {
    Fit(Arc<Node<K, V>>),
    Split(Arc<Node<K, V>>, Entry<K, V>, Arc<Node<K, V>>),
}

/// Result of deleting from a subtree: same height, or one shorter ("hole").
enum Del<K, V> {
    Same(Arc<Node<K, V>>),
    Hole(Arc<Node<K, V>>),
}

/// A persistent 2-3 tree map.
///
/// All operations are purely functional: they return a new tree sharing all
/// untouched nodes with the receiver.
///
/// # Example
///
/// ```
/// use fundb_persist::Tree23;
///
/// let (t1, _) = Tree23::new().merge_batch(&[(1, Some("a")), (2, Some("b"))]);
/// let (t2, _) = t1.merge_batch(&[(3, Some("c"))]);
/// assert_eq!(t2.get(&3), Some(&"c"));
/// assert_eq!(t1.get(&3), None); // old version untouched
/// ```
pub struct Tree23<K, V> {
    root: Arc<Node<K, V>>,
    len: usize,
}

impl<K, V> Clone for Tree23<K, V> {
    fn clone(&self) -> Self {
        Tree23 {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K, V> Default for Tree23<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for Tree23<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for Tree23<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: Eq, V: Eq> Eq for Tree23<K, V> {}

impl<K, V> Tree23<K, V> {
    /// The empty map.
    pub fn new() -> Self {
        Tree23 {
            root: Arc::new(Node::Leaf),
            len: 0,
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

    /// Height of the tree (empty tree has height 0).
    pub fn height(&self) -> usize {
        fn go<K, V>(n: &Node<K, V>) -> usize {
            match n {
                Node::Leaf => 0,
                Node::Two(l, _, _) => 1 + go(l),
                Node::Three(l, _, _, _, _) => 1 + go(l),
            }
        }
        go(&self.root)
    }

    /// `true` if `self` and `other` share their root node (hence are the
    /// same tree, by immutability). Lets callers prove structural sharing.
    pub fn ptr_eq(&self, other: &Tree23<K, V>) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// In-order iterator over `(key, value)` pairs.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        iter.push_left(&self.root);
        iter
    }

    /// Checks the 2-3 invariants: all leaves at equal depth and keys in
    /// strictly ascending order. Intended for tests.
    pub fn check_invariants(&self) -> bool
    where
        K: Ord,
    {
        fn depth_ok<K, V>(n: &Node<K, V>) -> Option<usize> {
            match n {
                Node::Leaf => Some(0),
                Node::Two(l, _, r) => {
                    let dl = depth_ok(l)?;
                    let dr = depth_ok(r)?;
                    (dl == dr).then_some(dl + 1)
                }
                Node::Three(l, _, m, _, r) => {
                    let dl = depth_ok(l)?;
                    let dm = depth_ok(m)?;
                    let dr = depth_ok(r)?;
                    (dl == dm && dm == dr).then_some(dl + 1)
                }
            }
        }
        if depth_ok(&self.root).is_none() {
            return false;
        }
        let keys: Vec<&K> = self.iter().map(|(k, _)| k).collect();
        keys.windows(2).all(|w| w[0] < w[1]) && keys.len() == self.len
    }
}

impl<K: Ord, V> Tree23<K, V> {
    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut cur: &Node<K, V> = &self.root;
        loop {
            match cur {
                Node::Leaf => return None,
                Node::Two(l, (k, v), r) => match key.cmp(k) {
                    std::cmp::Ordering::Less => cur = l,
                    std::cmp::Ordering::Equal => return Some(v),
                    std::cmp::Ordering::Greater => cur = r,
                },
                Node::Three(l, (k1, v1), m, (k2, v2), r) => {
                    if key == k1 {
                        return Some(v1);
                    }
                    if key == k2 {
                        return Some(v2);
                    }
                    cur = if key < k1 {
                        l
                    } else if key < k2 {
                        m
                    } else {
                        r
                    };
                }
            }
        }
    }

    /// All entries with `lo <= key <= hi`, in ascending key order. Prunes
    /// subtrees wholly outside the range, so the cost is
    /// O(log n + answer size).
    pub fn range(&self, lo: &K, hi: &K) -> Vec<(&K, &V)> {
        fn go<'a, K: Ord, V>(n: &'a Node<K, V>, lo: &K, hi: &K, out: &mut Vec<(&'a K, &'a V)>) {
            match n {
                Node::Leaf => {}
                Node::Two(l, e, r) => {
                    if *lo < e.0 {
                        go(l, lo, hi, out);
                    }
                    if e.0 >= *lo && e.0 <= *hi {
                        out.push((&e.0, &e.1));
                    }
                    if *hi > e.0 {
                        go(r, lo, hi, out);
                    }
                }
                Node::Three(l, e1, m, e2, r) => {
                    if *lo < e1.0 {
                        go(l, lo, hi, out);
                    }
                    if e1.0 >= *lo && e1.0 <= *hi {
                        out.push((&e1.0, &e1.1));
                    }
                    if *lo < e2.0 && *hi > e1.0 {
                        go(m, lo, hi, out);
                    }
                    if e2.0 >= *lo && e2.0 <= *hi {
                        out.push((&e2.0, &e2.1));
                    }
                    if *hi > e2.0 {
                        go(r, lo, hi, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        if lo <= hi {
            go(&self.root, lo, hi, &mut out);
        }
        out
    }

    /// The smallest key and its value.
    pub fn min(&self) -> Option<(&K, &V)> {
        let mut cur: &Node<K, V> = &self.root;
        let mut best = None;
        loop {
            match cur {
                Node::Leaf => return best,
                Node::Two(l, e, _) => {
                    best = Some((&e.0, &e.1));
                    cur = l;
                }
                Node::Three(l, e, _, _, _) => {
                    best = Some((&e.0, &e.1));
                    cur = l;
                }
            }
        }
    }

    /// The largest key and its value.
    pub fn max(&self) -> Option<(&K, &V)> {
        let mut cur: &Node<K, V> = &self.root;
        let mut best = None;
        loop {
            match cur {
                Node::Leaf => return best,
                Node::Two(_, e, r) => {
                    best = Some((&e.0, &e.1));
                    cur = r;
                }
                Node::Three(_, _, _, e, r) => {
                    best = Some((&e.0, &e.1));
                    cur = r;
                }
            }
        }
    }
}

impl<K: Ord + Clone, V: Clone> Tree23<K, V> {
    /// Merges a strictly-ascending batch of per-key effects in one
    /// structural pass: `Some(v)` sets `key` to `v` (insert or replace),
    /// `None` removes `key` if present (and is a no-op otherwise). Returns
    /// the new tree and the number of nodes it allocated.
    ///
    /// Untouched subtrees are shared wholesale and each touched node is
    /// copied once, so k effects cost O(k + touched·log n) node copies
    /// instead of the k·O(log n) of one merge per key.
    ///
    /// # Panics
    ///
    /// Panics if keys are not strictly ascending.
    pub fn merge_batch(&self, batch: &[(K, Option<V>)]) -> (Tree23<K, V>, u64) {
        crate::batch::assert_ascending(batch);
        let mut copied = 0u64;
        let mut delta = 0i64;
        let h = self.height();
        let (root, _) = merge_node(&self.root, h, batch, &mut copied, &mut delta);
        let out = Tree23 {
            root,
            len: (self.len as i64 + delta) as usize,
        };
        (out, copied)
    }
}

fn two<K, V>(l: Arc<Node<K, V>>, e: Entry<K, V>, r: Arc<Node<K, V>>) -> Arc<Node<K, V>> {
    Arc::new(Node::Two(l, e, r))
}

#[allow(clippy::many_single_char_names)]
fn three<K, V>(
    l: Arc<Node<K, V>>,
    e1: Entry<K, V>,
    m: Arc<Node<K, V>>,
    e2: Entry<K, V>,
    r: Arc<Node<K, V>>,
) -> Arc<Node<K, V>> {
    Arc::new(Node::Three(l, e1, m, e2, r))
}

/// Rebalances a Two node whose left child is a hole.
fn fix_two_left<K: Clone, V: Clone>(
    hole: Arc<Node<K, V>>,
    e: Entry<K, V>,
    right: &Arc<Node<K, V>>,
    copied: &mut u64,
) -> Del<K, V> {
    match &**right {
        Node::Two(rl, b, rr) => {
            // Merge: parent becomes a hole of a Three node.
            *copied += 1;
            Del::Hole(three(hole, e, rl.clone(), b.clone(), rr.clone()))
        }
        Node::Three(rl, b, rm, c, rr) => {
            // Borrow from the rich sibling.
            *copied += 3;
            Del::Same(two(
                two(hole, e, rl.clone()),
                b.clone(),
                two(rm.clone(), c.clone(), rr.clone()),
            ))
        }
        Node::Leaf => unreachable!("hole sibling cannot be a leaf"),
    }
}

/// Rebalances a Three node whose left child `a` is a hole.
fn fix_three_left<K: Clone, V: Clone>(
    a: Arc<Node<K, V>>,
    e1: Entry<K, V>,
    b: &Arc<Node<K, V>>,
    e2: Entry<K, V>,
    c: Arc<Node<K, V>>,
    copied: &mut u64,
) -> Del<K, V> {
    match &**b {
        Node::Two(bl, x, br) => {
            *copied += 2;
            Del::Same(two(three(a, e1, bl.clone(), x.clone(), br.clone()), e2, c))
        }
        Node::Three(bl, x, bm, y, br) => {
            *copied += 3;
            Del::Same(three(
                two(a, e1, bl.clone()),
                x.clone(),
                two(bm.clone(), y.clone(), br.clone()),
                e2,
                c,
            ))
        }
        Node::Leaf => unreachable!("hole sibling cannot be a leaf"),
    }
}

/// Removes the minimum entry of a subtree, returning it alongside the
/// shrunken-or-not subtree.
fn delete_min<K: Ord + Clone, V: Clone>(
    node: &Arc<Node<K, V>>,
    copied: &mut u64,
) -> (Del<K, V>, Entry<K, V>) {
    match &**node {
        Node::Leaf => unreachable!("delete_min on empty subtree"),
        Node::Two(l, e, r) => {
            if l.is_leaf() {
                return (Del::Hole(Arc::new(Node::Leaf)), e.clone());
            }
            let (dl, min) = delete_min(l, copied);
            let del = match dl {
                Del::Same(nl) => {
                    *copied += 1;
                    Del::Same(two(nl, e.clone(), r.clone()))
                }
                Del::Hole(nl) => fix_two_left(nl, e.clone(), r, copied),
            };
            (del, min)
        }
        Node::Three(l, e1, m, e2, r) => {
            if l.is_leaf() {
                *copied += 1;
                return (
                    Del::Same(two(Arc::new(Node::Leaf), e2.clone(), Arc::new(Node::Leaf))),
                    e1.clone(),
                );
            }
            let (dl, min) = delete_min(l, copied);
            let del = match dl {
                Del::Same(nl) => {
                    *copied += 1;
                    Del::Same(three(nl, e1.clone(), m.clone(), e2.clone(), r.clone()))
                }
                Del::Hole(nl) => fix_three_left(nl, e1.clone(), m, e2.clone(), r.clone(), copied),
            };
            (del, min)
        }
    }
}

/// Joins `l` (height `hl`), a separating entry, and `r` (height `hr`) —
/// every key in `l` < `e.0` < every key in `r` — into one uniform-depth
/// tree, copying O(|hl − hr| + 1) nodes along the taller side's spine.
fn join_nodes<K: Ord + Clone, V: Clone>(
    l: Arc<Node<K, V>>,
    hl: usize,
    e: Entry<K, V>,
    r: Arc<Node<K, V>>,
    hr: usize,
    copied: &mut u64,
) -> (Arc<Node<K, V>>, usize) {
    use std::cmp::Ordering::*;
    let finish = |ins: Ins<K, V>, h: usize, copied: &mut u64| match ins {
        Ins::Fit(n) => (n, h),
        Ins::Split(a, up, b) => {
            *copied += 1;
            (two(a, up, b), h + 1)
        }
    };
    match hl.cmp(&hr) {
        Equal => {
            *copied += 1;
            (two(l, e, r), hl + 1)
        }
        Greater => {
            let ins = join_right(&l, hl, e, r, hr, copied);
            finish(ins, hl, copied)
        }
        Less => {
            let ins = join_left(l, hl, e, &r, hr, copied);
            finish(ins, hr, copied)
        }
    }
}

/// Descends the right spine of `node` (height `h` > `rh`) and grafts `r`
/// beside the height-`rh` subtree, propagating splits up the spine.
fn join_right<K: Ord + Clone, V: Clone>(
    node: &Arc<Node<K, V>>,
    h: usize,
    e: Entry<K, V>,
    r: Arc<Node<K, V>>,
    rh: usize,
    copied: &mut u64,
) -> Ins<K, V> {
    if h == rh {
        return Ins::Split(node.clone(), e, r);
    }
    match &**node {
        Node::Leaf => unreachable!("h > rh implies an interior node"),
        Node::Two(a, e1, b) => match join_right(b, h - 1, e, r, rh, copied) {
            Ins::Fit(nb) => {
                *copied += 1;
                Ins::Fit(two(a.clone(), e1.clone(), nb))
            }
            Ins::Split(x, up, y) => {
                *copied += 1;
                Ins::Fit(three(a.clone(), e1.clone(), x, up, y))
            }
        },
        Node::Three(a, e1, b, e2, c) => match join_right(c, h - 1, e, r, rh, copied) {
            Ins::Fit(nc) => {
                *copied += 1;
                Ins::Fit(three(a.clone(), e1.clone(), b.clone(), e2.clone(), nc))
            }
            Ins::Split(x, up, y) => {
                *copied += 2;
                Ins::Split(
                    two(a.clone(), e1.clone(), b.clone()),
                    e2.clone(),
                    two(x, up, y),
                )
            }
        },
    }
}

/// Mirror of [`join_right`]: descends the left spine of `node`
/// (height `h` > `lh`) and grafts `l` beside the height-`lh` subtree.
fn join_left<K: Ord + Clone, V: Clone>(
    l: Arc<Node<K, V>>,
    lh: usize,
    e: Entry<K, V>,
    node: &Arc<Node<K, V>>,
    h: usize,
    copied: &mut u64,
) -> Ins<K, V> {
    if h == lh {
        return Ins::Split(l, e, node.clone());
    }
    match &**node {
        Node::Leaf => unreachable!("h > lh implies an interior node"),
        Node::Two(a, e1, b) => match join_left(l, lh, e, a, h - 1, copied) {
            Ins::Fit(na) => {
                *copied += 1;
                Ins::Fit(two(na, e1.clone(), b.clone()))
            }
            Ins::Split(x, up, y) => {
                *copied += 1;
                Ins::Fit(three(x, up, y, e1.clone(), b.clone()))
            }
        },
        Node::Three(a, e1, b, e2, c) => match join_left(l, lh, e, a, h - 1, copied) {
            Ins::Fit(na) => {
                *copied += 1;
                Ins::Fit(three(na, e1.clone(), b.clone(), e2.clone(), c.clone()))
            }
            Ins::Split(x, up, y) => {
                *copied += 2;
                Ins::Split(
                    two(x, up, y),
                    e1.clone(),
                    two(b.clone(), e2.clone(), c.clone()),
                )
            }
        },
    }
}

/// Joins two trees with no separating entry by popping the minimum of the
/// right side as the separator.
fn join2_nodes<K: Ord + Clone, V: Clone>(
    l: Arc<Node<K, V>>,
    hl: usize,
    r: Arc<Node<K, V>>,
    hr: usize,
    copied: &mut u64,
) -> (Arc<Node<K, V>>, usize) {
    if r.is_leaf() {
        return (l, hl);
    }
    let (dr, min) = delete_min(&r, copied);
    match dr {
        Del::Same(nr) => join_nodes(l, hl, min, nr, hr, copied),
        Del::Hole(nr) => join_nodes(l, hl, min, nr, hr - 1, copied),
    }
}

/// Builds a uniform-depth 2-3 tree of exactly height `h` from strictly
/// ascending entries; `h` must admit `entries.len()` (between `2^h − 1`
/// and `3^h − 1`).
fn build_to_height<K: Clone, V: Clone>(
    entries: &[Entry<K, V>],
    h: usize,
    copied: &mut u64,
) -> Arc<Node<K, V>> {
    let n = entries.len();
    if h == 0 {
        debug_assert_eq!(n, 0, "height 0 holds no entries");
        return Arc::new(Node::Leaf);
    }
    // Child capacity at height h − 1.
    let min = (1usize << (h - 1)) - 1;
    let max = 3usize.pow((h - 1) as u32) - 1;
    if n > 2 * min && n - 1 <= 2 * max {
        // Two node: split n − 1 entries evenly across both children.
        let nl = ((n - 1) / 2).clamp(min, max.min(n - 1 - min));
        *copied += 1;
        two(
            build_to_height(&entries[..nl], h - 1, copied),
            entries[nl].clone(),
            build_to_height(&entries[nl + 1..], h - 1, copied),
        )
    } else {
        // Three node: split n − 2 entries across three children.
        let rem = n - 2;
        let na = (rem / 3).clamp(min, max.min(rem - 2 * min));
        let rem2 = rem - na;
        let nb = (rem2 / 2).clamp(min, max.min(rem2 - min));
        *copied += 1;
        three(
            build_to_height(&entries[..na], h - 1, copied),
            entries[na].clone(),
            build_to_height(&entries[na + 1..na + 1 + nb], h - 1, copied),
            entries[na + 1 + nb].clone(),
            build_to_height(&entries[na + 2 + nb..], h - 1, copied),
        )
    }
}

/// Builds a minimal-height 2-3 tree from strictly ascending entries,
/// allocating exactly one node per 1–2 entries.
fn build_sorted<K: Clone, V: Clone>(
    entries: &[Entry<K, V>],
    copied: &mut u64,
) -> (Arc<Node<K, V>>, usize) {
    if entries.is_empty() {
        return (Arc::new(Node::Leaf), 0);
    }
    let (mut h, mut max) = (0usize, 0usize);
    while max < entries.len() {
        h += 1;
        max = 3 * max + 2;
    }
    (build_to_height(entries, h, copied), h)
}

/// The one-pass batch merge: splits the batch around each node's keys,
/// recurses, and reassembles with joins. Subtrees whose batch slice is
/// empty are shared wholesale.
fn merge_node<K: Ord + Clone, V: Clone>(
    node: &Arc<Node<K, V>>,
    h: usize,
    batch: &[(K, Option<V>)],
    copied: &mut u64,
    delta: &mut i64,
) -> (Arc<Node<K, V>>, usize) {
    if batch.is_empty() {
        return (node.clone(), h);
    }
    // Applies one key's effect while joining its flanking subtrees.
    #[allow(clippy::too_many_arguments)]
    fn reattach<K: Ord + Clone, V: Clone>(
        l: Arc<Node<K, V>>,
        hl: usize,
        e: &Entry<K, V>,
        effect: Option<&Option<V>>,
        r: Arc<Node<K, V>>,
        hr: usize,
        copied: &mut u64,
        delta: &mut i64,
    ) -> (Arc<Node<K, V>>, usize) {
        match effect {
            None => join_nodes(l, hl, e.clone(), r, hr, copied),
            Some(Some(v)) => join_nodes(l, hl, (e.0.clone(), v.clone()), r, hr, copied),
            Some(None) => {
                *delta -= 1;
                join2_nodes(l, hl, r, hr, copied)
            }
        }
    }
    match &**node {
        Node::Leaf => {
            let entries: Vec<Entry<K, V>> = batch
                .iter()
                .filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v)))
                .collect();
            if entries.is_empty() {
                // Nothing but no-op deletes of absent keys: share the leaf.
                return (node.clone(), 0);
            }
            *delta += entries.len() as i64;
            build_sorted(&entries, copied)
        }
        Node::Two(l, e, r) => {
            let (lo, me, hi) = crate::batch::split_batch(batch, &e.0);
            let (nl, hl) = merge_node(l, h - 1, lo, copied, delta);
            let (nr, hr) = merge_node(r, h - 1, hi, copied, delta);
            if me.is_none() && Arc::ptr_eq(&nl, l) && Arc::ptr_eq(&nr, r) {
                // Every effect was a no-op delete: share wholesale.
                return (node.clone(), h);
            }
            reattach(nl, hl, e, me, nr, hr, copied, delta)
        }
        Node::Three(l, e1, m, e2, r) => {
            let (lo, m1, rest) = crate::batch::split_batch(batch, &e1.0);
            let (mid, m2, hi) = crate::batch::split_batch(rest, &e2.0);
            let (nl, hl) = merge_node(l, h - 1, lo, copied, delta);
            let (nm, hm) = merge_node(m, h - 1, mid, copied, delta);
            let (nr, hr) = merge_node(r, h - 1, hi, copied, delta);
            if m1.is_none()
                && m2.is_none()
                && Arc::ptr_eq(&nl, l)
                && Arc::ptr_eq(&nm, m)
                && Arc::ptr_eq(&nr, r)
            {
                return (node.clone(), h);
            }
            let (t, ht) = reattach(nl, hl, e1, m1, nm, hm, copied, delta);
            reattach(t, ht, e2, m2, nr, hr, copied, delta)
        }
    }
}

/// In-order iterator over a [`Tree23`]; see [`Tree23::iter`].
pub struct Iter<'a, K, V> {
    /// Stack of (node, next child index to descend / entry to emit).
    stack: Vec<(&'a Node<K, V>, u8)>,
}

impl<K, V> fmt::Debug for Iter<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("tree23::Iter")
    }
}

impl<'a, K, V> Iter<'a, K, V> {
    fn push_left(&mut self, mut node: &'a Node<K, V>) {
        loop {
            match node {
                Node::Leaf => return,
                Node::Two(l, _, _) => {
                    self.stack.push((node, 0));
                    node = l;
                }
                Node::Three(l, _, _, _, _) => {
                    self.stack.push((node, 0));
                    node = l;
                }
            }
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        let (node, state) = self.stack.pop()?;
        match (node, state) {
            (Node::Two(_, e, r), 0) => {
                // Everything left of e has been emitted; queue r's leftmost
                // path and emit e now.
                self.push_left(r);
                Some((&e.0, &e.1))
            }
            (Node::Three(_, e1, m, _, _), 0) => {
                self.stack.push((node, 1));
                self.push_left(m);
                Some((&e1.0, &e1.1))
            }
            (Node::Three(_, _, _, e2, r), 1) => {
                self.push_left(r);
                Some((&e2.0, &e2.1))
            }
            _ => unreachable!("invalid 2-3 iterator state"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A tree holding `entries` (the last value per key wins), landed as
    /// one merge into the empty tree.
    fn build<K: Ord + Clone, V: Clone>(entries: impl IntoIterator<Item = (K, V)>) -> Tree23<K, V> {
        let model: BTreeMap<K, V> = entries.into_iter().collect();
        let batch: Vec<(K, Option<V>)> = model.into_iter().map(|(k, v)| (k, Some(v))).collect();
        Tree23::new().merge_batch(&batch).0
    }

    /// A tree holding `keys` (each mapped to itself), landed one merge per
    /// key in the given order — the shapes a one-key-at-a-time writer
    /// leaves, unlike [`build`]'s minimal-height one.
    fn grown(keys: impl IntoIterator<Item = u32>) -> Tree23<u32, u32> {
        keys.into_iter()
            .fold(Tree23::new(), |t, k| t.merge_batch(&[(k, Some(k))]).0)
    }

    fn node_count<K, V>(t: &Tree23<K, V>) -> u64 {
        fn go<K, V>(n: &Node<K, V>) -> u64 {
            match n {
                Node::Leaf => 0,
                Node::Two(l, _, r) => 1 + go(l) + go(r),
                Node::Three(l, _, m, _, r) => 1 + go(l) + go(m) + go(r),
            }
        }
        go(&t.root)
    }

    fn entries<K: Clone, V: Clone>(t: &Tree23<K, V>) -> Vec<(K, V)> {
        t.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    #[test]
    fn empty_tree() {
        let t: Tree23<i32, i32> = Tree23::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(&1), None);
        assert_eq!(t.height(), 0);
        assert!(t.check_invariants());
    }

    #[test]
    fn get_finds_every_entry() {
        let t = build((0..100).map(|i| (i, i * 10)));
        assert_eq!(t.len(), 100);
        for i in 0..100 {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        assert_eq!(t.get(&100), None);
        assert!(t.check_invariants());
    }

    #[test]
    fn persistence_across_merges() {
        let t1 = build((0..10).map(|i| (i, i)));
        let (t2, _) = t1.merge_batch(&[(3, None), (100, Some(100))]);
        assert_eq!(t1.len(), 10);
        assert_eq!(t2.len(), 10);
        assert_eq!(t1.get(&100), None);
        assert_eq!(t1.get(&3), Some(&3));
        assert_eq!(t2.get(&100), Some(&100));
        assert_eq!(t2.get(&3), None);
    }

    #[test]
    fn iteration_is_sorted() {
        let t = grown([5, 3, 8, 1, 9, 2, 7]);
        let keys: Vec<u32> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 5, 7, 8, 9]);
        assert!(t.check_invariants());
    }

    #[test]
    fn height_is_logarithmic() {
        let t = grown(0..1000);
        // log2(1000) ≈ 10; a 2-3 tree is at most that and at least log3.
        assert!(t.height() <= 10, "height {}", t.height());
        assert!(t.height() >= 6, "height {}", t.height());
        assert!(t.check_invariants());
    }

    #[test]
    fn one_key_merge_copies_one_path() {
        let t = grown(0..1000);
        let (t2, copied) = t.merge_batch(&[(5000, Some(0))]);
        // Path copy: O(height) new nodes, everything else shared.
        assert!(copied as usize <= 2 * t.height() + 2, "copied {copied}");
        assert!(node_count(&t2) - copied > 300);
        assert!((copied as f64) < 0.05 * node_count(&t2) as f64);
    }

    #[test]
    fn min_max() {
        let t = build([4, 2, 9].iter().map(|&k| (k, k)));
        assert_eq!(t.min(), Some((&2, &2)));
        assert_eq!(t.max(), Some((&9, &9)));
        let e: Tree23<i32, i32> = Tree23::new();
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
    }

    #[test]
    fn removing_each_key_keeps_the_invariants() {
        // Remove each key from small trees of every shape a one-key-at-a-
        // time writer leaves, checking invariants each time.
        for n in 1..30u32 {
            let t = grown((0..n).rev());
            for k in 0..n {
                let (t2, _) = t.merge_batch(&[(k, None)]);
                assert_eq!(t2.len() as u32, n - 1);
                assert!(t2.check_invariants(), "n={n} k={k}");
                assert_eq!(t2.get(&k), None);
                // Old version intact.
                assert_eq!(t.get(&k), Some(&k));
            }
        }
    }

    #[test]
    fn random_ops_match_btreemap() {
        // Deterministic pseudo-random runs of small batches vs std reference.
        let mut model = BTreeMap::new();
        let mut t: Tree23<u32, u32> = Tree23::new();
        let mut state = 0x12345678u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..600 {
            let mut effects: BTreeMap<u32, Option<u32>> = BTreeMap::new();
            for _ in 0..1 + rand() % 6 {
                let k = rand() % 200;
                effects.insert(k, (rand() % 3 != 0).then(&mut rand));
            }
            let batch: Vec<(u32, Option<u32>)> = effects.into_iter().collect();
            for (k, v) in &batch {
                match v {
                    Some(v) => model.insert(*k, *v),
                    None => model.remove(k),
                };
            }
            t = t.merge_batch(&batch).0;
            assert!(t.check_invariants());
            assert_eq!(t.len(), model.len());
        }
        let want: Vec<(u32, u32)> = model.into_iter().collect();
        assert_eq!(entries(&t), want);
    }

    #[test]
    fn equality_is_structural() {
        let a = build([(1, 1), (2, 2)]);
        let b = grown([2, 1]);
        assert_eq!(a, b);
        let (c, _) = a.merge_batch(&[(3, Some(3))]);
        assert_ne!(a, c);
    }

    #[test]
    fn debug_renders_as_map() {
        let t = build([(1, 10)]);
        assert_eq!(format!("{t:?}"), "{1: 10}");
    }

    #[test]
    fn range_queries() {
        let t = build((0..100).filter(|k| k % 2 == 0).map(|k| (k, k)));
        let got: Vec<i32> = t.range(&10, &20).iter().map(|(k, _)| **k).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
        // Bounds between keys.
        let got: Vec<i32> = t.range(&11, &15).iter().map(|(k, _)| **k).collect();
        assert_eq!(got, vec![12, 14]);
        // Whole tree.
        assert_eq!(t.range(&-100, &1000).len(), 50);
        // Empty and inverted ranges.
        assert!(t.range(&21, &21).is_empty());
        assert!(t.range(&20, &10).is_empty());
        let e: Tree23<i32, i32> = Tree23::new();
        assert!(e.range(&0, &10).is_empty());
    }

    #[test]
    fn range_matches_iter_filter() {
        let t = grown((0..200).map(|k| (k * 7) % 200));
        for (lo, hi) in [(0, 199), (50, 60), (13, 13), (190, 300), (0, 5)] {
            let want: Vec<u32> = t
                .iter()
                .filter(|(k, _)| **k >= lo && **k <= hi)
                .map(|(k, _)| *k)
                .collect();
            let got: Vec<u32> = t.range(&lo, &hi).iter().map(|(k, _)| **k).collect();
            assert_eq!(got, want, "range {lo}..={hi}");
        }
    }

    #[test]
    fn merge_batch_matches_btreemap() {
        let mut state = 0xfeed_f00d_u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..60 {
            let size = rand() % 150;
            let mut model: BTreeMap<u32, u32> = (0..size).map(|i| (i * 3, i)).collect();
            let t = build(model.clone());
            let mut effects: BTreeMap<u32, Option<u32>> = BTreeMap::new();
            for _ in 0..(rand() % 50) {
                let k = rand() % 500;
                if rand() % 3 == 0 {
                    effects.insert(k, None);
                } else {
                    effects.insert(k, Some(rand()));
                }
            }
            let batch: Vec<(u32, Option<u32>)> = effects.into_iter().collect();
            let (merged, _) = t.merge_batch(&batch);
            for (k, v) in &batch {
                match v {
                    Some(v) => model.insert(*k, *v),
                    None => model.remove(k),
                };
            }
            assert!(merged.check_invariants(), "round {round}");
            let want: Vec<(u32, u32)> = model.into_iter().collect();
            assert_eq!(entries(&merged), want, "round {round}");
        }
    }

    #[test]
    fn merge_batch_on_empty_builds_uniform_depth() {
        for n in [0u32, 1, 2, 3, 7, 26, 27, 100, 500] {
            let batch: Vec<(u32, Option<u32>)> = (0..n).map(|k| (k, Some(k))).collect();
            let (t, copied) = Tree23::new().merge_batch(&batch);
            assert!(t.check_invariants(), "n={n}");
            assert_eq!(t.len(), n as usize);
            assert_eq!(copied, node_count(&t), "n={n}");
        }
    }

    #[test]
    fn merge_batch_copies_far_less_than_singles() {
        let t = build((0..10_000).map(|i| (i * 2, i)));
        // 256 fresh odd keys in one adjacent region.
        let batch: Vec<(u32, Option<u32>)> =
            (0..256).map(|i| (4000 + i * 2 + 1, Some(i))).collect();
        let (merged, copied) = t.merge_batch(&batch);
        assert!(merged.check_invariants());
        assert_eq!(merged.len(), 10_000 + 256);
        let mut singles = 0u64;
        let mut seq = t.clone();
        for effect in &batch {
            let (next, c) = seq.merge_batch(std::slice::from_ref(effect));
            singles += c;
            seq = next;
        }
        assert!(
            copied * 2 <= singles,
            "merge copied {copied} vs one key at a time {singles}"
        );
        assert_eq!(merged, seq);
    }

    #[test]
    fn merge_batch_noop_deletes_share_everything() {
        let t = build((0..100).map(|i| (i * 2, i)));
        let batch: Vec<(u32, Option<u32>)> = (0..50).map(|i| (i * 4 + 1, None)).collect();
        let (merged, copied) = t.merge_batch(&batch);
        assert!(t.ptr_eq(&merged));
        assert_eq!(copied, 0);
    }

    #[test]
    fn merge_batch_mixed_inserts_and_deletes() {
        let t = build((0..1000).map(|i| (i, i)));
        // Delete all evens, replace 100..200, insert beyond the max key.
        let mut batch: Vec<(u32, Option<u32>)> = Vec::new();
        for k in 0..1000 {
            if (100..200).contains(&k) {
                batch.push((k, Some(k + 7)));
            } else if k % 2 == 0 {
                batch.push((k, None));
            }
        }
        for k in 2000..2050 {
            batch.push((k, Some(k)));
        }
        let (merged, _) = t.merge_batch(&batch);
        assert!(merged.check_invariants());
        assert_eq!(merged.get(&150), Some(&157));
        assert_eq!(merged.get(&48), None);
        assert_eq!(merged.get(&49), Some(&49));
        assert_eq!(merged.get(&2049), Some(&2049));
    }

    #[test]
    #[should_panic(expected = "strictly ascending keys (violated at index 1)")]
    fn merge_batch_rejects_unsorted() {
        let t: Tree23<u32, u32> = Tree23::new();
        let _ = t.merge_batch(&[(5, Some(5)), (1, Some(1))]);
    }
}
