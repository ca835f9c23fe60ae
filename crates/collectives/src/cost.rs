//! Virtual-time cost of collectives under the α–β link model.
//!
//! For a ring of `n` workers synchronizing `bytes` of gradients over a link
//! with latency α and bandwidth B:
//!
//! ```text
//! T_ring = 2 (n − 1) · (α + bytes / (n · B))
//! ```
//!
//! Per-worker traffic is `2 (n − 1) / n × bytes → 2 × bytes` as `n → ∞`,
//! which is the bandwidth-optimality property (§2.2) that makes AllReduce
//! beat a parameter server at scale, whose one link serializes all `n`
//! flows.

use rna_simnet::{LinkModel, SimDuration};

/// Fixed wire-framing overhead per message, in bytes.
///
/// Every frame the gradient codec emits starts with a
/// [`rna_tensor::codec::FRAME_HEADER_BYTES`]-byte header (codec tag,
/// parameter, element count). The α term of the link model covers
/// *latency*, not framing, so byte-accurate accounting must charge the
/// header on every message — the `*_framed` methods below do.
pub const MSG_HEADER_BYTES: u64 = rna_tensor::codec::FRAME_HEADER_BYTES;

/// Cost calculator for the collectives used in the reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveCost {
    link: LinkModel,
}

impl CollectiveCost {
    /// Creates a calculator over the given link model (all ring links are
    /// assumed symmetric, as in the paper's single-switch testbeds).
    pub fn new(link: LinkModel) -> Self {
        CollectiveCost { link }
    }

    /// The link model in use.
    pub fn link(&self) -> LinkModel {
        self.link
    }

    /// Ring AllReduce: `2(n−1)` steps, each moving a `bytes/n` chunk.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn ring_allreduce(&self, n: usize, bytes: u64) -> SimDuration {
        assert!(n > 0, "collective over zero workers");
        if n == 1 {
            return SimDuration::ZERO;
        }
        let chunk = bytes.div_ceil(n as u64);
        self.link.transfer_time(chunk) * (2 * (n as u64 - 1))
    }

    /// Ring (pipelined) broadcast of `bytes` from one source to `n−1`
    /// receivers: the pipeline fills in `n−1` chunk-hops.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn ring_broadcast(&self, n: usize, bytes: u64) -> SimDuration {
        assert!(n > 0, "collective over zero workers");
        if n == 1 {
            return SimDuration::ZERO;
        }
        let chunk = bytes.div_ceil(n as u64);
        // Pipeline: first chunk crosses n−1 hops, remaining n−1 chunks
        // stream behind it.
        self.link.transfer_time(chunk) * (n as u64 - 1)
            + self.link.serialization_time(chunk) * (n as u64 - 1)
    }

    /// Point-to-point transfer of `bytes` (AD-PSGD pairwise averaging moves
    /// one model copy each way; the two directions overlap on a full-duplex
    /// link, so one transfer time is charged).
    pub fn point_to_point(&self, bytes: u64) -> SimDuration {
        self.link.transfer_time(bytes)
    }

    /// Per-worker bytes on the wire for a ring AllReduce
    /// (`2 (n−1)/n × bytes`) — the bandwidth-optimality figure.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn ring_bytes_per_worker(&self, n: usize, bytes: u64) -> u64 {
        assert!(n > 0, "collective over zero workers");
        if n == 1 {
            0
        } else {
            2 * (n as u64 - 1) * bytes.div_ceil(n as u64)
        }
    }

    /// Total chunk messages a ring AllReduce puts on the wire: `2 n (n−1)`
    /// (each of the `n` workers sends one chunk per step across `2(n−1)`
    /// steps). This is exactly the transfer count
    /// [`crate::ring_allreduce`] returns when no chunk is empty
    /// (`elements ≥ n`), which the tests cross-check.
    pub fn ring_messages(n: usize) -> u64 {
        if n <= 1 {
            0
        } else {
            2 * n as u64 * (n as u64 - 1)
        }
    }

    /// Ring AllReduce where every message carries a fixed `frame_bytes` —
    /// an encoded chunk *plus* its per-message wire header
    /// ([`MSG_HEADER_BYTES`]). `2(n−1)` steps, one frame per step per
    /// worker.
    ///
    /// With `frame_bytes = bytes.div_ceil(n)` (header 0) this degenerates
    /// to [`CollectiveCost::ring_allreduce`] exactly; the codec-aware call
    /// sites pass `Compression::frame_bytes(chunk_elements)` instead, so
    /// virtual time reflects encoded chunks and real framing.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn ring_allreduce_framed(&self, n: usize, frame_bytes: u64) -> SimDuration {
        assert!(n > 0, "collective over zero workers");
        if n == 1 {
            return SimDuration::ZERO;
        }
        self.link.transfer_time(frame_bytes) * (2 * (n as u64 - 1))
    }

    /// Per-worker wire bytes for the framed ring: `2(n−1)` messages of
    /// `frame_bytes` each. Multiplying by `n` gives the cluster-wide total,
    /// which equals [`CollectiveCost::ring_messages`]` × frame_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn ring_bytes_per_worker_framed(&self, n: usize, frame_bytes: u64) -> u64 {
        assert!(n > 0, "collective over zero workers");
        if n == 1 {
            0
        } else {
            2 * (n as u64 - 1) * frame_bytes
        }
    }
}

impl Default for CollectiveCost {
    fn default() -> Self {
        CollectiveCost::new(LinkModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cost() -> CollectiveCost {
        CollectiveCost::new(LinkModel::new(SimDuration::from_micros(10), 1e9))
    }

    #[test]
    fn single_worker_collectives_are_free() {
        let c = cost();
        assert_eq!(c.ring_allreduce(1, 1 << 20), SimDuration::ZERO);
        assert_eq!(c.ring_broadcast(1, 1 << 20), SimDuration::ZERO);
        assert_eq!(c.ring_bytes_per_worker(1, 1 << 20), 0);
    }

    #[test]
    fn ring_allreduce_formula() {
        let c = cost();
        // n=4, 4000 bytes → chunk 1000 bytes = 1us + 10us latency, 6 steps.
        assert_eq!(c.ring_allreduce(4, 4000).as_micros(), 6 * 11);
    }

    #[test]
    fn ring_time_roughly_scale_invariant() {
        // Bandwidth term: 2(n−1)/n·bytes/B approaches 2·bytes/B — growing n
        // must not blow up the bandwidth component (paper: "independent of
        // the number of workers").
        let c = CollectiveCost::new(LinkModel::new(SimDuration::ZERO, 1e9));
        let t8 = c.ring_allreduce(8, 1 << 27).as_secs_f64();
        let t64 = c.ring_allreduce(64, 1 << 27).as_secs_f64();
        assert!((t64 / t8 - 1.0).abs() < 0.15, "t8={t8} t64={t64}");
    }

    #[test]
    fn bytes_per_worker_bandwidth_optimal() {
        let c = cost();
        let bytes = 1_000_000u64;
        let per8 = c.ring_bytes_per_worker(8, bytes) as f64;
        // 2*(8-1)/8 = 1.75× payload.
        assert!((per8 / bytes as f64 - 1.75).abs() < 0.01);
    }

    #[test]
    fn broadcast_cheaper_than_allreduce() {
        let c = cost();
        assert!(c.ring_broadcast(8, 1 << 20) < c.ring_allreduce(8, 1 << 20));
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn zero_workers_panics() {
        cost().ring_allreduce(0, 100);
    }

    #[test]
    fn framed_with_zero_header_degenerates_to_legacy() {
        let c = cost();
        for n in [1usize, 2, 4, 7] {
            for bytes in [0u64, 64, 4000, 1 << 20] {
                let chunk = if n == 1 { 0 } else { bytes.div_ceil(n as u64) };
                assert_eq!(
                    c.ring_allreduce_framed(n, chunk),
                    c.ring_allreduce(n, bytes)
                );
                assert_eq!(
                    c.ring_bytes_per_worker_framed(n, chunk),
                    c.ring_bytes_per_worker(n, bytes)
                );
            }
        }
    }

    #[test]
    fn framed_charge_cross_checks_counted_ring_transfers() {
        // The message count in the cost formula must be the message count
        // the data-movement implementation actually performs, and the total
        // framed charge must equal messages × (chunk + header) — and, for
        // the DES's lossy rings, messages × each codec's encoded chunk frame.
        use rna_tensor::codec::Compression;
        use rna_tensor::{ReduceOp, Tensor};
        for n in [2usize, 3, 5, 8] {
            let elems = n * 8; // divisible: every chunk non-empty and equal
            let mut bufs: Vec<Tensor> = (0..n).map(|_| Tensor::filled(elems, 1.0)).collect();
            let transfers = crate::ring_allreduce(&mut bufs, ReduceOp::Sum);
            assert_eq!(transfers, CollectiveCost::ring_messages(n), "n={n}");

            let chunk = elems / n;
            let payload = 4 * chunk as u64; // bytes per chunk
            let frame = payload + MSG_HEADER_BYTES;
            assert_eq!(Compression::Lossless.frame_bytes(chunk), frame);
            let c = cost();
            for codec in [
                Compression::Lossless,
                Compression::Fp16,
                Compression::Int8,
                Compression::TopK { permille: 100 },
                Compression::TopK { permille: 500 },
            ] {
                let frame = codec.frame_bytes(chunk);
                assert_eq!(
                    c.ring_bytes_per_worker_framed(n, frame) * n as u64,
                    transfers * frame,
                    "total framed bytes must be messages × frame size ({} n={n})",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn header_makes_framed_strictly_dearer_than_legacy() {
        let c = cost();
        for n in [2usize, 4, 8] {
            let bytes = 1_000_000u64;
            let frame = bytes.div_ceil(n as u64) + MSG_HEADER_BYTES;
            assert!(c.ring_allreduce_framed(n, frame) > c.ring_allreduce(n, bytes));
            assert!(c.ring_bytes_per_worker_framed(n, frame) > c.ring_bytes_per_worker(n, bytes));
        }
    }

    proptest! {
        #[test]
        fn costs_monotone_in_bytes(n in 1usize..64, b1 in 0u64..1 << 28, b2 in 0u64..1 << 28) {
            let c = cost();
            let (lo, hi) = (b1.min(b2), b1.max(b2));
            prop_assert!(c.ring_allreduce(n, lo) <= c.ring_allreduce(n, hi));
            prop_assert!(c.ring_broadcast(n, lo) <= c.ring_broadcast(n, hi));
        }
    }
}
