//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start).max(1) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A `Vec` whose length is drawn from `size` and whose elements come from
/// `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy { element, size }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_bounds() {
        let strategy = vec(0u8..10, 2..6);
        let mut rng = TestRng::for_case(0);
        for _ in 0..100 {
            let v = strategy.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| *x < 10));
        }
    }
}
