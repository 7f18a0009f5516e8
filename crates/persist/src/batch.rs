//! Shared plumbing for the `merge_batch` kernels.
//!
//! Every backend takes the same batch shape: a strictly-ascending run of
//! `(key, Option<value>)` final per-key effects, where `Some(v)` sets the
//! key and `None` removes it if present. These helpers validate such runs;
//! the structural work lives with each backend.
//!
//! [`assert_ascending_by`] is public so that *derived* batch consumers —
//! secondary-index maintenance in `fundb-relational` feeds per-key effect
//! runs of its own shape — can reject unsorted or duplicate-key input with
//! exactly the same panic discipline as the kernels themselves.

/// Panics unless `key(item)` is strictly ascending across `items`, with the
/// same message (and the same 1-based offending index) as the `merge_batch`
/// kernels use for their `(key, effect)` runs.
pub fn assert_ascending_by<T, K: Ord, F: Fn(&T) -> &K>(items: &[T], key: F) {
    for (i, w) in items.windows(2).enumerate() {
        assert!(
            key(&w[0]) < key(&w[1]),
            "merge_batch requires strictly ascending keys (violated at index {})",
            i + 1
        );
    }
}

/// Panics unless `batch` keys are strictly ascending, naming the first
/// offending index.
pub(crate) fn assert_ascending<K: Ord, V>(batch: &[(K, Option<V>)]) {
    assert_ascending_by(batch, |(k, _)| k);
}
