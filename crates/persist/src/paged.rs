//! The data-page / directory-page organization of Figure 2-2.
//!
//! "Suppose that a relation is implemented as a set of pages, with each page
//! containing a set of tuples, and that there is a directory page which
//! indexes the other pages. If an insertion or modification affects only a
//! few pages, then all other pages can be shared. A new directory structure
//! is created, the old one being left intact."
//!
//! [`PagedStore`] is exactly that picture: immutable data pages holding
//! tuples, addressed through an immutable directory. An update copies the
//! affected data page and builds a new directory, sharing every other page
//! with the previous version. [`PageSharingReport::between`] inspects two
//! versions and reports which pages they physically share — the benches use
//! it to regenerate the figure.

use std::fmt;
use std::sync::Arc;

use crate::report::CopyReport;

/// One immutable data page holding up to `capacity` items.
struct Page<T> {
    items: Vec<T>,
}

/// A persistent paged store: a directory of shared, immutable data pages.
///
/// Items are kept in insertion order across pages (each page is filled up
/// to the configured capacity before a new page starts). Updates copy one
/// data page plus the directory.
///
/// # Example
///
/// ```
/// use fundb_persist::PagedStore;
///
/// let v1: PagedStore<u32> = PagedStore::with_capacity(4, 0..16);
/// let v2 = v1.insert(99);
/// // All four original pages still live in v1; v2 shares all full pages.
/// let report = fundb_persist::PageSharingReport::between(&v1, &v2);
/// assert_eq!(report.shared_pages, 4);
/// assert_eq!(report.new_pages, 1);
/// ```
pub struct PagedStore<T> {
    /// The directory page: an indexed set of references to data pages.
    directory: Arc<Vec<Arc<Page<T>>>>,
    page_capacity: usize,
    len: usize,
}

impl<T> Clone for PagedStore<T> {
    fn clone(&self) -> Self {
        PagedStore {
            directory: Arc::clone(&self.directory),
            page_capacity: self.page_capacity,
            len: self.len,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for PagedStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedStore")
            .field("pages", &self.directory.len())
            .field("page_capacity", &self.page_capacity)
            .field("len", &self.len)
            .finish()
    }
}

impl<T> PagedStore<T> {
    /// Creates an empty store with the given page capacity.
    ///
    /// # Panics
    ///
    /// Panics if `page_capacity` is zero.
    pub fn new(page_capacity: usize) -> Self {
        assert!(page_capacity > 0, "page capacity must be positive");
        PagedStore {
            directory: Arc::new(Vec::new()),
            page_capacity,
            len: 0,
        }
    }

    /// Creates a store with the given capacity, pre-filled from an iterator.
    pub fn with_capacity<I: IntoIterator<Item = T>>(page_capacity: usize, items: I) -> Self {
        assert!(page_capacity > 0, "page capacity must be positive");
        let mut pages: Vec<Arc<Page<T>>> = Vec::new();
        let mut current: Vec<T> = Vec::new();
        let mut len = 0;
        for item in items {
            len += 1;
            current.push(item);
            if current.len() == page_capacity {
                pages.push(Arc::new(Page {
                    items: std::mem::take(&mut current),
                }));
            }
        }
        if !current.is_empty() {
            pages.push(Arc::new(Page { items: current }));
        }
        PagedStore {
            directory: Arc::new(pages),
            page_capacity,
            len,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if there are no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of data pages.
    pub fn page_count(&self) -> usize {
        self.directory.len()
    }

    /// The configured per-page item capacity.
    pub fn page_capacity(&self) -> usize {
        self.page_capacity
    }

    /// The item at logical position `index`.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        // Pages are full except possibly the last, so indexing is direct.
        let page = index / self.page_capacity;
        let slot = index % self.page_capacity;
        self.directory.get(page)?.items.get(slot)
    }

    /// Iterates all items in logical order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.directory.iter().flat_map(|p| p.items.iter())
    }

    /// `true` if `self` and `other` share their directory page (hence are
    /// the same store, by immutability).
    pub fn ptr_eq(&self, other: &PagedStore<T>) -> bool {
        Arc::ptr_eq(&self.directory, &other.directory)
    }

    /// Stable addresses of this version's data pages (for sharing
    /// inspection).
    fn page_addrs(&self) -> Vec<usize> {
        self.directory
            .iter()
            .map(|p| Arc::as_ptr(p) as usize)
            .collect()
    }
}

impl<T: Clone> PagedStore<T> {
    /// Inserts `item` at the end, returning the new version.
    ///
    /// Copies at most one data page (the trailing partial page) and builds
    /// a new directory; all full pages are shared with `self`.
    pub fn insert(&self, item: T) -> PagedStore<T> {
        self.insert_counted(item).0
    }

    /// [`insert`](Self::insert) plus a [`CopyReport`] counting pages
    /// (directory excluded; it is always rebuilt, as in Figure 2-2).
    pub fn insert_counted(&self, item: T) -> (PagedStore<T>, CopyReport) {
        let mut pages: Vec<Arc<Page<T>>> = self.directory.as_ref().clone();
        let mut copied = 0u64;
        match pages.last() {
            Some(last) if last.items.len() < self.page_capacity => {
                let mut items = last.items.clone();
                items.push(item);
                let idx = pages.len() - 1;
                pages[idx] = Arc::new(Page { items });
                copied += 1;
            }
            _ => {
                pages.push(Arc::new(Page { items: vec![item] }));
                copied += 1;
            }
        }
        let shared = (pages.len() as u64).saturating_sub(copied);
        (
            PagedStore {
                directory: Arc::new(pages),
                page_capacity: self.page_capacity,
                len: self.len + 1,
            },
            CopyReport::new(copied, shared),
        )
    }

    /// Replaces the item at `index`, returning the new version, or `None`
    /// if out of bounds. Copies exactly the page containing `index`.
    pub fn replace(&self, index: usize, item: T) -> Option<PagedStore<T>> {
        if index >= self.len {
            return None;
        }
        let page = index / self.page_capacity;
        let slot = index % self.page_capacity;
        let mut pages: Vec<Arc<Page<T>>> = self.directory.as_ref().clone();
        let mut items = pages[page].items.clone();
        items[slot] = item;
        pages[page] = Arc::new(Page { items });
        Some(PagedStore {
            directory: Arc::new(pages),
            page_capacity: self.page_capacity,
            len: self.len,
        })
    }
}

/// Which pages two versions of a [`PagedStore`] physically share.
///
/// This regenerates the claim of Figure 2-2: after an update, the new
/// directory points mostly at the *old* data pages; only the modified page
/// is new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSharingReport {
    /// Pages of the new version also reachable from the old version.
    pub shared_pages: usize,
    /// Pages only the new version has.
    pub new_pages: usize,
    /// Pages only the old version has (superseded pages).
    pub superseded_pages: usize,
}

impl PageSharingReport {
    /// Compares two versions by physical page identity.
    pub fn between<T>(old: &PagedStore<T>, new: &PagedStore<T>) -> Self {
        let old_addrs = old.page_addrs();
        let new_addrs = new.page_addrs();
        let shared = new_addrs.iter().filter(|a| old_addrs.contains(a)).count();
        PageSharingReport {
            shared_pages: shared,
            new_pages: new_addrs.len() - shared,
            superseded_pages: old_addrs.iter().filter(|a| !new_addrs.contains(a)).count(),
        }
    }
}

impl fmt::Display for PageSharingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shared, {} new, {} superseded",
            self.shared_pages, self.new_pages, self.superseded_pages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store() {
        let s: PagedStore<u32> = PagedStore::new(4);
        assert!(s.is_empty());
        assert_eq!(s.page_count(), 0);
        assert_eq!(s.get(0), None);
    }

    #[test]
    #[should_panic(expected = "page capacity")]
    fn zero_capacity_rejected() {
        let _: PagedStore<u32> = PagedStore::new(0);
    }

    #[test]
    fn fill_and_read() {
        let s: PagedStore<u32> = PagedStore::with_capacity(4, 0..10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.page_count(), 3); // 4 + 4 + 2
        for i in 0..10 {
            assert_eq!(s.get(i), Some(&(i as u32)));
        }
        assert_eq!(s.get(10), None);
        assert_eq!(
            s.iter().copied().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn insert_into_partial_page_shares_full_pages() {
        let v1: PagedStore<u32> = PagedStore::with_capacity(4, 0..10);
        let (v2, copy) = v1.insert_counted(99);
        assert_eq!(v2.len(), 11);
        assert_eq!(copy.copied, 1);
        assert_eq!(copy.shared, 2);
        let report = PageSharingReport::between(&v1, &v2);
        assert_eq!(report.shared_pages, 2);
        assert_eq!(report.new_pages, 1);
        assert_eq!(report.superseded_pages, 1); // the old partial page
                                                // Old version untouched.
        assert_eq!(v1.len(), 10);
        assert_eq!(v1.get(10), None);
        assert_eq!(v2.get(10), Some(&99));
    }

    #[test]
    fn insert_after_full_page_adds_page() {
        let v1: PagedStore<u32> = PagedStore::with_capacity(4, 0..8);
        let v2 = v1.insert(42);
        assert_eq!(v2.page_count(), 3);
        let report = PageSharingReport::between(&v1, &v2);
        assert_eq!(report.shared_pages, 2);
        assert_eq!(report.new_pages, 1);
        assert_eq!(report.superseded_pages, 0);
    }

    #[test]
    fn replace_copies_exactly_one_page() {
        let v1: PagedStore<u32> = PagedStore::with_capacity(4, 0..12);
        let v2 = v1.replace(5, 500).unwrap();
        assert_eq!(v2.get(5), Some(&500));
        assert_eq!(v1.get(5), Some(&5));
        let report = PageSharingReport::between(&v1, &v2);
        assert_eq!(report.shared_pages, 2);
        assert_eq!(report.new_pages, 1);
    }

    #[test]
    fn replace_out_of_bounds_is_none() {
        let v1: PagedStore<u32> = PagedStore::with_capacity(4, 0..4);
        assert!(v1.replace(4, 0).is_none());
    }

    #[test]
    fn sharing_fraction_improves_with_more_pages() {
        // The paper: the more pages, the more sharing.
        let small: PagedStore<u32> = PagedStore::with_capacity(4, 0..8);
        let big: PagedStore<u32> = PagedStore::with_capacity(4, 0..80);
        let (_, small_copy) = small.insert_counted(1);
        let (_, big_copy) = big.insert_counted(1);
        assert!(big_copy.copied_fraction() < small_copy.copied_fraction());
    }

    #[test]
    fn display_report() {
        let v1: PagedStore<u32> = PagedStore::with_capacity(4, 0..8);
        let v2 = v1.insert(9);
        let s = PageSharingReport::between(&v1, &v2).to_string();
        assert!(s.contains("2 shared"), "got {s}");
    }
}
