//! Chunk partitioning for ring collectives.
//!
//! Ring AllReduce on `n` workers splits a tensor into `n` contiguous chunks;
//! each reduce-scatter / all-gather step moves exactly one chunk between ring
//! neighbors. [`partition`] produces the canonical split used across the
//! workspace: chunk sizes differ by at most one element and every element is
//! covered exactly once.

/// A contiguous element range `[start, end)` within a flattened tensor.
///
/// # Examples
///
/// ```
/// let ranges = rna_tensor::partition(10, 3);
/// assert_eq!(ranges.len(), 3);
/// assert_eq!(ranges[0].len() + ranges[1].len() + ranges[2].len(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRange {
    /// Inclusive start index.
    pub start: usize,
    /// Exclusive end index.
    pub end: usize,
}

impl ChunkRange {
    /// Number of elements in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range covers no elements.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Converts to a standard `Range<usize>`.
    pub fn as_range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Splits `len` elements into `n` contiguous chunks whose sizes differ by at
/// most one element (the first `len % n` chunks get the extra element).
///
/// This is the chunking used by ring reduce-scatter: worker `i` ends the
/// scatter phase owning the fully reduced chunk `i`.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use rna_tensor::partition;
///
/// let chunks = partition(7, 3);
/// assert_eq!(chunks[0].as_range(), 0..3);
/// assert_eq!(chunks[1].as_range(), 3..5);
/// assert_eq!(chunks[2].as_range(), 5..7);
/// ```
pub fn partition(len: usize, n: usize) -> Vec<ChunkRange> {
    assert!(n > 0, "cannot partition into zero chunks");
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        out.push(ChunkRange {
            start,
            end: start + size,
        });
        start += size;
    }
    out
}

/// Returns the largest chunk size produced by [`partition`], which bounds the
/// per-step payload of ring collectives.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn max_chunk_len(len: usize, n: usize) -> usize {
    assert!(n > 0, "cannot partition into zero chunks");
    len / n + usize::from(!len.is_multiple_of(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn partition_even() {
        let c = partition(9, 3);
        assert_eq!(c.iter().map(ChunkRange::len).collect::<Vec<_>>(), [3, 3, 3]);
    }

    #[test]
    fn partition_uneven_front_loads_extras() {
        let c = partition(10, 4);
        assert_eq!(
            c.iter().map(ChunkRange::len).collect::<Vec<_>>(),
            [3, 3, 2, 2]
        );
    }

    #[test]
    fn partition_len_smaller_than_n_yields_empty_chunks() {
        let c = partition(2, 4);
        assert_eq!(
            c.iter().map(ChunkRange::len).collect::<Vec<_>>(),
            [1, 1, 0, 0]
        );
        assert!(c[3].is_empty());
    }

    #[test]
    fn partition_single_chunk() {
        let c = partition(5, 1);
        assert_eq!(c, vec![ChunkRange { start: 0, end: 5 }]);
    }

    #[test]
    #[should_panic(expected = "zero chunks")]
    fn partition_zero_chunks_panics() {
        partition(5, 0);
    }

    #[test]
    fn max_chunk_len_matches_partition() {
        for (len, n) in [(10, 3), (9, 3), (0, 2), (1, 5), (100, 7)] {
            let expected = partition(len, n).iter().map(ChunkRange::len).max().unwrap();
            assert_eq!(max_chunk_len(len, n), expected, "len={len} n={n}");
        }
    }

    proptest! {
        #[test]
        fn chunks_cover_exactly(len in 0usize..5000, n in 1usize..64) {
            let chunks = partition(len, n);
            prop_assert_eq!(chunks.len(), n);
            // Contiguous cover: chunk i starts where chunk i-1 ended.
            let mut pos = 0;
            for c in &chunks {
                prop_assert_eq!(c.start, pos);
                pos = c.end;
            }
            prop_assert_eq!(pos, len);
        }

        #[test]
        fn chunk_sizes_differ_by_at_most_one(len in 0usize..5000, n in 1usize..64) {
            let sizes: Vec<usize> =
                partition(len, n).iter().map(ChunkRange::len).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1);
        }

        #[test]
        fn fewer_elements_than_chunks(len in 0usize..64, extra in 1usize..64) {
            // len < n: the first len chunks hold one element each, the
            // remaining n − len chunks are empty (and harmless to iterate).
            let n = len + extra;
            let chunks = partition(len, n);
            for (i, c) in chunks.iter().enumerate() {
                if i < len {
                    prop_assert_eq!(c.len(), 1, "chunk {i}");
                    prop_assert_eq!(c.as_range(), i..i + 1);
                } else {
                    prop_assert!(c.is_empty(), "chunk {i}");
                }
            }
        }

        #[test]
        fn zero_elements_yields_all_empty_chunks(n in 1usize..64) {
            let chunks = partition(0, n);
            prop_assert_eq!(chunks.len(), n);
            for c in &chunks {
                prop_assert!(c.is_empty());
                prop_assert_eq!(c.as_range().len(), 0);
            }
            prop_assert_eq!(max_chunk_len(0, n), 0);
        }

        #[test]
        fn single_chunk_spans_everything(len in 0usize..5000) {
            let chunks = partition(len, 1);
            prop_assert_eq!(chunks.len(), 1);
            prop_assert_eq!(chunks[0].as_range(), 0..len);
            prop_assert_eq!(max_chunk_len(len, 1), len);
        }
    }
}
