//! Collection strategies (subset of `proptest::collection`).

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Length specifications accepted by [`vec()`] (the role of
/// `proptest::collection::SizeRange`).
pub trait IntoSizeRange {
    /// Returns the inclusive `(min, max)` length bounds.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl IntoSizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty size range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start() <= self.end(), "empty size range");
        (*self.start(), *self.end())
    }
}

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (min_len, max_len) = size.bounds();
    VecStrategy {
        element,
        min_len,
        max_len,
    }
}

/// The result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    min_len: usize,
    max_len: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Debug,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.sample_range(self.min_len..=self.max_len);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
