//! Network cost models and per-link faults.
//!
//! The simulator charges each message `latency + bytes / bandwidth` on the
//! link it crosses, the standard α–β cost model for collective
//! communication. The defaults match the paper's testbeds: a 10 Gb Ethernet
//! toy cluster (§2.3.1) and an EDR InfiniBand evaluation cluster (§7.1).

use crate::{SimDuration, SimRng, SimTime};

/// Latency/bandwidth cost model for a point-to-point link (the α–β model).
///
/// # Examples
///
/// ```
/// use rna_simnet::LinkModel;
///
/// let link = LinkModel::ethernet_10g();
/// let t = link.transfer_time(1_250_000); // 1.25 MB at 1.25 GB/s + 50us
/// assert_eq!(t.as_micros(), 1050);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way message latency (the α term).
    pub latency: SimDuration,
    /// Link bandwidth in bytes per second (the 1/β term).
    pub bandwidth_bps: f64,
}

impl LinkModel {
    /// Creates a link model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive and finite.
    pub fn new(latency: SimDuration, bandwidth_bps: f64) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive and finite"
        );
        LinkModel {
            latency,
            bandwidth_bps,
        }
    }

    /// 10 Gb Ethernet: 50 µs latency, 1.25 GB/s (the motivation cluster).
    pub fn ethernet_10g() -> Self {
        LinkModel::new(SimDuration::from_micros(50), 1.25e9)
    }

    /// EDR InfiniBand: 2 µs latency, 12.5 GB/s (the evaluation cluster).
    pub fn infiniband_edr() -> Self {
        LinkModel::new(SimDuration::from_micros(2), 12.5e9)
    }

    /// PCIe 3.0 x16: 1 µs latency, 15.75 GB/s. Used by the GPU↔CPU
    /// transfer-overhead model (Table 5).
    pub fn pcie_gen3() -> Self {
        LinkModel::new(SimDuration::from_micros(1), 15.75e9)
    }

    /// Time to move `bytes` across the link: `latency + bytes / bandwidth`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// Serialization-only component (no latency), for pipelined transfers
    /// where only the first message pays α.
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::ethernet_10g()
    }
}

/// A timed cut of the cluster: every link between an `island` node and a
/// non-island node is severed for the window, except links touching a
/// `bridge` node (bridges stay reachable from both sides).
#[derive(Debug, Clone, PartialEq)]
struct Cut {
    island: Vec<usize>,
    bridges: Vec<usize>,
    from: SimTime,
    until: SimTime,
}

impl Cut {
    /// Whether this cut severs the `a`↔`b` link at `now`.
    fn severs(&self, a: usize, b: usize, now: SimTime) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        if self.bridges.contains(&a) || self.bridges.contains(&b) {
            return false;
        }
        self.island.contains(&a) != self.island.contains(&b)
    }
}

/// The fault side of the fabric: per-link drop probabilities, timed link
/// down-windows (flaps), and timed partitions, all evaluated at delivery
/// time.
///
/// Randomness is per-edge and seeded: edge `{a, b}` draws from its own
/// ChaCha stream derived from (`seed`, `min(a,b)`, `max(a,b)`), so whether
/// a given send on one link survives is independent of traffic on every
/// other link — and bit-identical across runs with the same seed.
///
/// This type is the *mechanism*; the shared cross-world *vocabulary*
/// (`NetFaultPlan` in `rna-core`) compiles down to it.
#[derive(Debug, Clone)]
pub struct NetFaults {
    seed: u64,
    drops: Vec<((usize, usize), f64)>,
    downs: Vec<((usize, usize), (SimTime, SimTime))>,
    cuts: Vec<Cut>,
    /// Interned per-drop-edge state, sorted by edge key: the combined
    /// survive probability and the edge's ChaCha stream, both precomputed
    /// when drops are declared. The admit path is then a binary search —
    /// no map insertion, no RNG construction, no per-message iteration
    /// over the whole drop list (which cost O(drops) per send on a
    /// 100k-worker fabric).
    edge_streams: Vec<((usize, usize), f64, SimRng)>,
}

impl PartialEq for NetFaults {
    fn eq(&self, other: &Self) -> bool {
        // RNG state is derived (and advanced by traffic); two fault sets
        // are "the same faults" when their plans coincide.
        self.seed == other.seed
            && self.drops == other.drops
            && self.downs == other.downs
            && self.cuts == other.cuts
    }
}

fn edge_key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl NetFaults {
    /// A fault set with no faults, drawing from `seed` if any are added.
    pub fn new(seed: u64) -> Self {
        NetFaults {
            seed,
            drops: Vec::new(),
            downs: Vec::new(),
            cuts: Vec::new(),
            edge_streams: Vec::new(),
        }
    }

    /// Re-interns the per-edge streams after a drop declaration. Streams
    /// are (re)seeded from scratch, which is fine because `with_drop` is
    /// builder-stage: no traffic has consumed randomness yet. The seeding
    /// formula is the per-edge derivation documented on the type, so a
    /// given `(seed, edge)` pair always yields the same fate sequence.
    fn rebuild_streams(&mut self) {
        let mut keys: Vec<(usize, usize)> = self.drops.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        let seed = self.seed;
        let drops = &self.drops;
        self.edge_streams = keys
            .into_iter()
            .map(|key| {
                let survive_p: f64 = drops
                    .iter()
                    .filter(|(k, _)| *k == key)
                    .map(|(_, p)| 1.0 - p)
                    .product();
                let stream = (((key.0 as u64) << 32) | key.1 as u64).wrapping_add(1);
                let rng = SimRng::seed(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                (key, survive_p, rng)
            })
            .collect();
    }

    /// Each message on the `a`↔`b` link (either direction) is dropped
    /// independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop(mut self, a: usize, b: usize, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.drops.push((edge_key(a, b), p));
        self.rebuild_streams();
        self
    }

    /// The `a`↔`b` link is down (drops everything) in `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn with_down(mut self, a: usize, b: usize, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "empty down-window");
        self.downs.push((edge_key(a, b), (from, until)));
        self
    }

    /// Severs every `island`↔outside link in `[from, until)`, except links
    /// touching a node in `bridges`.
    ///
    /// # Panics
    ///
    /// Panics if `island` is empty or the window is empty.
    pub fn with_cut(
        mut self,
        island: Vec<usize>,
        bridges: Vec<usize>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(!island.is_empty(), "empty partition island");
        assert!(from < until, "empty partition window");
        self.cuts.push(Cut {
            island,
            bridges,
            from,
            until,
        });
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty() && self.downs.is_empty() && self.cuts.is_empty()
    }

    /// Whether the `a`↔`b` link is structurally up at `now` (no active
    /// down-window or partition). Probabilistic drops do not count: a lossy
    /// link is up. Consumes no randomness.
    pub fn link_up(&self, a: usize, b: usize, now: SimTime) -> bool {
        if a == b {
            return true;
        }
        let key = edge_key(a, b);
        if self
            .downs
            .iter()
            .any(|(k, (from, until))| *k == key && *from <= now && now < *until)
        {
            return false;
        }
        !self.cuts.iter().any(|c| c.severs(a, b, now))
    }

    /// Rolls the fate of one message on `a`→`b` at `now`: `true` if it is
    /// delivered, `false` if the fabric eats it. Advances the edge's RNG
    /// stream only when a probabilistic drop is configured *and* the link
    /// is structurally up, so flap/cut windows do not perturb the drop
    /// sequence.
    pub fn admits(&mut self, a: usize, b: usize, now: SimTime) -> bool {
        if a == b {
            return true;
        }
        if !self.link_up(a, b, now) {
            return false;
        }
        let key = edge_key(a, b);
        let Ok(i) = self.edge_streams.binary_search_by_key(&key, |&(k, _, _)| k) else {
            return true; // no drop configured on this edge
        };
        let (_, survive_p, rng) = &mut self.edge_streams[i];
        if *survive_p >= 1.0 {
            return true;
        }
        rng.bernoulli(*survive_p)
    }
}

/// A cluster-wide network model: one link model for every pair, and an
/// optional fault set applied at delivery time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkModel {
    default_link: LinkModel,
    faults: Option<NetFaults>,
}

impl NetworkModel {
    /// A uniform network where every pair uses `link`.
    pub fn uniform(link: LinkModel) -> Self {
        NetworkModel {
            default_link: link,
            faults: None,
        }
    }

    /// Attaches a fault set, applied by [`NetworkModel::try_delivery`].
    pub fn with_faults(mut self, faults: NetFaults) -> Self {
        self.faults = if faults.is_empty() {
            None
        } else {
            Some(faults)
        };
        self
    }

    /// Whether any network faults are configured.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Whether the `a`↔`b` link is structurally up at `now` (see
    /// [`NetFaults::link_up`]). Always `true` on a fault-free fabric.
    pub fn link_up(&self, a: usize, b: usize, now: SimTime) -> bool {
        self.faults.as_ref().is_none_or(|f| f.link_up(a, b, now))
    }

    /// Delivery time of a `bytes`-sized message sent from `a` to `b` at
    /// `now`.
    pub fn delivery(&self, a: usize, b: usize, bytes: u64, now: SimTime) -> SimTime {
        if a == b {
            // Local delivery is free: same-process hand-off.
            return now;
        }
        now + self.default_link.transfer_time(bytes)
    }

    /// Like [`NetworkModel::delivery`], but subject to the attached fault
    /// set: returns `None` when the fabric drops the message (lossy link,
    /// down-window, or partition). Self-delivery never fails.
    pub fn try_delivery(
        &mut self,
        a: usize,
        b: usize,
        bytes: u64,
        now: SimTime,
    ) -> Option<SimTime> {
        if a != b {
            if let Some(f) = self.faults.as_mut() {
                if !f.admits(a, b, now) {
                    return None;
                }
            }
        }
        Some(self.delivery(a, b, bytes, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn transfer_time_alpha_beta() {
        let link = LinkModel::new(SimDuration::from_micros(10), 1e9);
        // 1000 bytes at 1 GB/s = 1us, plus 10us latency.
        assert_eq!(link.transfer_time(1000).as_micros(), 11);
        assert_eq!(link.serialization_time(1000).as_micros(), 1);
    }

    #[test]
    fn transfer_time_zero_bytes_is_latency() {
        let link = LinkModel::ethernet_10g();
        assert_eq!(link.transfer_time(0), link.latency);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        LinkModel::new(SimDuration::ZERO, 0.0);
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let eth = LinkModel::ethernet_10g();
        let ib = LinkModel::infiniband_edr();
        let payload = 10_000_000;
        assert!(ib.transfer_time(payload) < eth.transfer_time(payload));
    }

    #[test]
    fn self_delivery_is_instant() {
        let net = NetworkModel::default();
        let now = SimTime::from_nanos(42);
        assert_eq!(net.delivery(3, 3, 1 << 20, now), now);
        assert!(net.delivery(0, 1, 1 << 20, now) > now);
    }

    fn us(t: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(t)
    }

    #[test]
    fn drop_probability_extremes() {
        let mut always = NetFaults::new(1).with_drop(0, 1, 1.0);
        let mut never = NetFaults::new(1).with_drop(0, 1, 0.0);
        for _ in 0..50 {
            assert!(!always.admits(0, 1, us(0)));
            assert!(never.admits(0, 1, us(0)));
        }
        // Unconfigured links and self-sends are untouched.
        assert!(always.admits(2, 3, us(0)));
        assert!(always.admits(1, 1, us(0)));
    }

    #[test]
    fn drop_sequence_is_seed_deterministic_and_per_edge() {
        let mut a = NetFaults::new(7).with_drop(0, 1, 0.5).with_drop(2, 3, 0.5);
        let mut b = a.clone();
        let seq_a: Vec<bool> = (0..64).map(|i| a.admits(0, 1, us(i))).collect();
        let seq_b: Vec<bool> = (0..64).map(|i| b.admits(0, 1, us(i))).collect();
        assert_eq!(seq_a, seq_b, "same seed, same edge → same fate sequence");
        assert!(seq_a.iter().any(|&x| x) && seq_a.iter().any(|&x| !x));

        // Traffic on another edge does not perturb this edge's stream.
        let mut c = NetFaults::new(7).with_drop(0, 1, 0.5).with_drop(2, 3, 0.5);
        let seq_c: Vec<bool> = (0..64)
            .map(|i| {
                c.admits(2, 3, us(i));
                c.admits(0, 1, us(i))
            })
            .collect();
        assert_eq!(seq_a, seq_c, "edges draw from independent streams");
    }

    #[test]
    fn down_window_is_half_open() {
        let f = NetFaults::new(0).with_down(0, 2, us(100), us(200));
        assert!(f.link_up(0, 2, us(99)));
        assert!(!f.link_up(0, 2, us(100)));
        assert!(!f.link_up(2, 0, us(199)), "flaps are symmetric");
        assert!(f.link_up(0, 2, us(200)));
        assert!(f.link_up(0, 1, us(150)), "other links unaffected");
    }

    #[test]
    fn cut_severs_island_but_not_bridges() {
        // Island {2, 3}, bridge 4 (the controller), window [10, 20).
        let f = NetFaults::new(0).with_cut(vec![2, 3], vec![4], us(10), us(20));
        assert!(!f.link_up(2, 0, us(10)), "island↔outside severed");
        assert!(!f.link_up(0, 3, us(15)));
        assert!(f.link_up(2, 3, us(15)), "island-internal links stay up");
        assert!(f.link_up(0, 1, us(15)), "outside-internal links stay up");
        assert!(f.link_up(2, 4, us(15)), "bridge reachable from the island");
        assert!(f.link_up(4, 0, us(15)), "bridge reachable from outside");
        assert!(f.link_up(2, 0, us(20)), "heals at window end");
        let mut f = f;
        assert!(!f.admits(2, 0, us(12)), "admits respects cuts");
    }

    #[test]
    fn try_delivery_reports_drops() {
        let mut net = NetworkModel::uniform(LinkModel::ethernet_10g())
            .with_faults(NetFaults::new(0).with_down(0, 1, us(0), us(50)));
        assert!(net.has_faults());
        assert_eq!(net.try_delivery(0, 1, 100, us(10)), None);
        let healed = net.try_delivery(0, 1, 100, us(60));
        assert_eq!(healed, Some(net.delivery(0, 1, 100, us(60))));
        assert_eq!(
            net.try_delivery(1, 1, 100, us(10)),
            Some(us(10)),
            "self-delivery never fails"
        );
    }

    #[test]
    fn empty_faults_are_dropped_from_the_model() {
        let net = NetworkModel::default().with_faults(NetFaults::new(3));
        assert!(!net.has_faults());
        assert!(net.link_up(0, 1, us(0)));
    }

    #[test]
    fn fault_equality_ignores_rng_state() {
        let mut a = NetFaults::new(5).with_drop(0, 1, 0.5);
        let b = a.clone();
        a.admits(0, 1, us(0));
        assert_eq!(a, b, "consumed randomness does not change the plan");
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn rejects_bad_drop_probability() {
        let _ = NetFaults::new(0).with_drop(0, 1, 1.5);
    }

    #[test]
    #[should_panic(expected = "empty partition window")]
    fn rejects_empty_cut_window() {
        let _ = NetFaults::new(0).with_cut(vec![0], vec![], us(5), us(5));
    }

    proptest! {
        #[test]
        fn drop_rate_tracks_probability(p in 0.0f64..1.0, seed in 0u64..1000) {
            let mut f = NetFaults::new(seed).with_drop(0, 1, p);
            let n = 400;
            let delivered = (0..n).filter(|&i| f.admits(0, 1, us(i))).count();
            let expect = (1.0 - p) * n as f64;
            // Loose 4-sigma-ish bound; the point is "roughly p", not a
            // statistical test.
            let slack = 4.0 * (n as f64 * p.max(0.05) * (1.0 - p).max(0.05)).sqrt() + 1.0;
            prop_assert!((delivered as f64 - expect).abs() <= slack,
                "p={p} delivered {delivered}/{n}");
        }

        #[test]
        fn link_up_outside_all_windows(from in 0u64..1000, len in 1u64..1000) {
            let f = NetFaults::new(0)
                .with_down(0, 1, us(from), us(from + len))
                .with_cut(vec![0], vec![], us(from), us(from + len));
            prop_assert!(f.link_up(0, 1, us(from + len)));
            if from > 0 {
                prop_assert!(f.link_up(0, 1, us(from - 1)));
            }
            prop_assert!(!f.link_up(0, 1, us(from)));
        }

        #[test]
        fn transfer_time_monotone_in_bytes(b1 in 0u64..1 << 30, b2 in 0u64..1 << 30) {
            let link = LinkModel::ethernet_10g();
            let (lo, hi) = (b1.min(b2), b1.max(b2));
            prop_assert!(link.transfer_time(lo) <= link.transfer_time(hi));
        }
    }
}
