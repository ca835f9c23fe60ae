//! The election (§3.2): what fires a round's partial collective and who
//! initiates it, under every [`SyncMode`] and in every world.
//!
//! [`Election`] holds the rule with no clock, socket, thread or simulator
//! context inside: the power-of-`d` draw, first-reply acceptance and expiry,
//! the retry ladder, the stall rule and the counted modes' quorum. The
//! simulator's `GroupState` drives it from messages and virtual timers, the
//! real worlds' controller from its mirror and the wall clock; each keeps
//! what differs per world (how probes travel, what "live" and "ready" mean,
//! when a retry is due) and passes in what it sees.

use rna_simnet::SimRng;
use rna_tensor::wire::{self, Reader};

use crate::fault::ToleranceConfig;
use crate::probe::ProbeRound;

/// What fires a round's partial collective, in every world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// RNA: probe `d` live members; the first ready reply initiates.
    Rna,
    /// eager-SGD: a live majority of the electorate holds a gradient.
    EagerMajority,
    /// Horovod's strict barrier: every member of the electorate reported.
    Bsp,
    /// Backup workers: all but `b ≥ 1` members reported.
    Backup(usize),
}

impl SyncMode {
    /// The barrier family (`Bsp`, `Backup`): members report one gradient
    /// per round, and the quorum counts reports.
    pub fn reports(self) -> bool {
        matches!(self, SyncMode::Bsp | SyncMode::Backup(_))
    }
}

/// One group's election, carried across its rounds.
#[derive(Debug, Clone)]
pub struct Election {
    mode: SyncMode,
    /// `d`, clamped to the pool on every draw.
    probes: usize,
    base_us: u64,
    cap_us: u64,
    /// The admitted probes of the latest attempt (`None`: none outstanding).
    probe: Option<ProbeRound>,
    /// Counted modes: this round's election is open and has not fired.
    armed: bool,
    /// Bumped by every attempt and takeover; older retry timers are stale.
    epoch: u64,
    /// RNA's retry interval: the base on `open`, ×2 after a lost attempt,
    /// capped.
    backoff_us: u64,
}

impl Election {
    /// An election under `mode`, drawing `probes` per attempt and retrying
    /// on `tolerance`'s backoff ladder.
    ///
    /// # Panics
    ///
    /// Panics with the [`crate::fault::ConfigError`] of an invalid
    /// `tolerance`: a zero base would re-arm a retry at +0 µs forever.
    pub fn new(mode: SyncMode, probes: usize, tolerance: &ToleranceConfig) -> Self {
        if let Err(e) = tolerance.validate() {
            panic!("invalid tolerance config: {e}");
        }
        Election {
            mode,
            probes,
            base_us: tolerance.probe_backoff_us,
            cap_us: tolerance.probe_backoff_cap_us,
            probe: None,
            armed: false,
            epoch: 0,
            backoff_us: 0,
        }
    }

    /// The policy.
    pub fn mode(&self) -> SyncMode {
        self.mode
    }

    /// Opens a round: RNA restarts its ladder (the caller then draws), the
    /// counted modes arm their quorum.
    pub fn open(&mut self) {
        self.probe = None;
        if self.mode == SyncMode::Rna {
            self.backoff_us = self.base_us;
        } else {
            self.armed = true;
        }
    }

    /// One probe attempt for `round`: after a `lost` attempt the ladder
    /// doubles, then one draw of `min(d, |pool|)` distinct ids from `pool`,
    /// each admitted iff `reach` (called in drawn order) returns `true`.
    /// Returns the attempt's epoch; `None` for an empty pool.
    pub fn draw(
        &mut self,
        round: u64,
        pool: &[usize],
        lost: bool,
        rng: &mut SimRng,
        mut reach: impl FnMut(usize) -> bool,
    ) -> Option<u64> {
        if lost {
            self.backoff_us = self.backoff_us.saturating_mul(2).min(self.cap_us);
        }
        self.probe = None;
        if pool.is_empty() {
            return None;
        }
        let d = self.probes.clamp(1, pool.len());
        let admitted: Vec<usize> = (rng.choose_distinct(pool.len(), d).into_iter())
            .map(|i| pool[i])
            .filter(|&w| reach(w))
            .collect();
        self.epoch += 1;
        self.probe = (!admitted.is_empty()).then(|| ProbeRound::from_probed(round, admitted));
        Some(self.epoch)
    }

    /// The outstanding probes, in drawn order.
    pub fn probed(&self) -> &[usize] {
        self.probe.as_ref().map_or(&[], ProbeRound::probed)
    }

    /// The current retry interval in microseconds.
    pub fn backoff_us(&self) -> u64 {
        self.backoff_us
    }

    /// Whether a retry armed for `round` at epoch `attempt` is still due:
    /// it is the latest attempt and nobody has won.
    pub fn retry_due(&self, round: u64, attempt: u64) -> bool {
        attempt == self.epoch
            && (self.probe.as_ref()).is_some_and(|p| p.round() == round && p.winner().is_none())
    }

    /// The stall rule: no winner yet and every probed id is dead in `live`.
    pub fn stalled(&self, live: &[bool]) -> bool {
        (self.probe.as_ref())
            .is_some_and(|p| p.winner().is_none() && probe_round_stalled(p.probed(), live))
    }

    /// A reply from `member` for `round`: `true` iff it initiates. A stale
    /// round, an unprobed member and every later reply expire (§3.2).
    pub fn offer_reply(&mut self, member: usize, round: u64) -> bool {
        (self.probe.as_mut()).is_some_and(|p| p.offer_reply(member, round))
    }

    /// Whether a counted election is open and has not fired.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The counted trigger: once `ready` (in member order) holds the mode's
    /// count of `electorate` — a live majority, all, or all but `b` — its
    /// first member initiates and the election closes.
    pub fn quorum(
        &mut self,
        electorate: usize,
        ready: impl Iterator<Item = usize>,
    ) -> Option<usize> {
        if !self.armed {
            return None;
        }
        let need = match self.mode {
            SyncMode::Rna => return None,
            SyncMode::EagerMajority => live_majority(electorate),
            SyncMode::Bsp => electorate,
            SyncMode::Backup(b) => electorate.saturating_sub(b),
        };
        let first = quorum_initiator(ready, need)?;
        self.armed = false;
        Some(first)
    }

    /// A takeover: no election open, and the epoch bump expires every
    /// timer the dead controller armed.
    pub fn reset(&mut self) {
        self.probe = None;
        self.armed = false;
        self.epoch += 1;
    }

    /// Writes `(epoch, backoff)` into a checkpoint.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.epoch);
        wire::put_u64(out, self.backoff_us);
    }

    /// Restores what [`Election::encode_into`] wrote, closed.
    pub fn restore_from(&mut self, r: &mut Reader<'_>) -> Option<()> {
        self.epoch = r.u64()?;
        self.backoff_us = r.u64()?;
        self.probe = None;
        self.armed = false;
        Some(())
    }
}

/// How many ready members an eager-majority round needs, given the number
/// of *live* members: a majority of survivors, never less than one.
pub(crate) fn live_majority(live_members: usize) -> usize {
    (live_members / 2 + 1).max(1)
}

/// Every counted trigger: the first `ready` member (in member order) once
/// at least `need` are ready, never on an empty set.
pub(crate) fn quorum_initiator(
    mut ready: impl Iterator<Item = usize>,
    need: usize,
) -> Option<usize> {
    let first = ready.next()?;
    (1 + ready.count() >= need).then_some(first)
}

/// Whether every probed id is dead in `live` — member-local ids in the
/// simulator, global worker ids in the real worlds. An empty probe set is
/// not stalled, and an id outside `live` (transiently, while a rejoining
/// worker is re-admitted) counts as dead.
pub(crate) fn probe_round_stalled(probed: &[usize], live: &[bool]) -> bool {
    !probed.is_empty()
        && probed
            .iter()
            .all(|&l| live.get(l).is_none_or(|&alive| !alive))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tolerance(base_us: u64, cap_us: u64) -> ToleranceConfig {
        ToleranceConfig {
            probe_backoff_us: base_us,
            probe_backoff_cap_us: cap_us,
            ..ToleranceConfig::default()
        }
    }

    #[test]
    fn the_ladder_starts_at_the_base_doubles_only_after_a_loss_and_caps() {
        let mut e = Election::new(SyncMode::Rna, 1, &tolerance(250, 1_000));
        let mut rng = SimRng::seed(4);
        let pool = [0, 1, 2];
        e.open();
        assert_eq!(e.backoff_us(), 250);
        e.draw(0, &pool, false, &mut rng, |_| true);
        assert_eq!(e.backoff_us(), 250, "a clean attempt keeps the interval");
        let mut ladder = Vec::new();
        for _ in 0..4 {
            e.draw(0, &pool, true, &mut rng, |_| true);
            ladder.push(e.backoff_us());
        }
        assert_eq!(ladder, [500, 1_000, 1_000, 1_000]);
        e.open();
        assert_eq!(e.backoff_us(), 250, "the next round starts over");
    }

    #[test]
    fn every_attempt_bumps_the_epoch_and_expires_older_retries() {
        let mut e = Election::new(SyncMode::Rna, 2, &ToleranceConfig::default());
        let mut rng = SimRng::seed(5);
        e.open();
        let first = e.draw(3, &[0, 1, 2, 3], false, &mut rng, |_| true);
        assert_eq!(first, Some(1));
        assert!(e.retry_due(3, 1));
        assert!(!e.retry_due(2, 1), "a stale round");
        let second = e.draw(3, &[0, 1, 2, 3], true, &mut rng, |_| true);
        assert_eq!(second, Some(2));
        assert!(!e.retry_due(3, 1), "an older attempt");
        // An empty pool is no attempt: nothing outstanding, epoch kept.
        assert_eq!(e.draw(3, &[], true, &mut rng, |_| true), None);
        assert!(e.probed().is_empty() && !e.retry_due(3, 2));
        // A takeover expires the timers of the dead controller.
        e.draw(3, &[0, 1], false, &mut rng, |_| true);
        e.reset();
        assert!(e.probed().is_empty() && !e.retry_due(3, 3));
    }

    #[test]
    fn the_first_reply_initiates_and_every_other_expires() {
        let mut e = Election::new(SyncMode::Rna, 2, &ToleranceConfig::default());
        e.open();
        e.draw(7, &[10, 11, 12, 13], false, &mut SimRng::seed(2), |_| true);
        let (a, b) = (e.probed()[0], e.probed()[1]);
        let unprobed = (10..14).find(|w| !e.probed().contains(w)).unwrap();
        assert!(!e.offer_reply(a, 6), "a stale round");
        assert!(!e.offer_reply(unprobed, 7), "an unprobed member");
        assert!(e.offer_reply(b, 7));
        assert!(!e.offer_reply(a, 7), "a second reply");
        assert!(!e.stalled(&[false; 14]), "a decided round never stalls");
    }

    #[test]
    fn the_draw_admits_only_what_the_caller_reaches_in_drawn_order() {
        let pool = [4, 5, 6, 7];
        let mut expected = SimRng::seed(9).choose_distinct(pool.len(), 3);
        expected.retain(|&i| pool[i] != 5);
        let mut seen = Vec::new();
        let mut e = Election::new(SyncMode::Rna, 3, &ToleranceConfig::default());
        e.draw(0, &pool, false, &mut SimRng::seed(9), |w| {
            seen.push(w);
            w != 5
        });
        let admitted: Vec<usize> = expected.iter().map(|&i| pool[i]).collect();
        assert_eq!(e.probed(), admitted.as_slice());
        assert_eq!(seen.len(), 3);
        // Nothing reached: nothing is outstanding, and no reply elects.
        e.draw(0, &pool, false, &mut SimRng::seed(9), |_| false);
        assert!(e.probed().is_empty());
        assert!(pool.iter().all(|&w| !e.offer_reply(w, 0)));
    }

    #[test]
    fn the_stall_rule_reads_the_callers_liveness() {
        let mut e = Election::new(SyncMode::Rna, 2, &ToleranceConfig::default());
        e.draw(0, &[1, 2], false, &mut SimRng::seed(0), |_| true);
        assert!(e.stalled(&[true, false, false, true]));
        assert!(!e.stalled(&[true, true, false, true]));
    }

    #[test]
    fn each_count_fires_on_its_own_need_and_names_the_first_ready() {
        let fire = |mode, electorate, ready: &[usize]| {
            let mut e = Election::new(mode, 2, &ToleranceConfig::default());
            assert_eq!(e.quorum(electorate, ready.iter().copied()), None, "closed");
            e.open();
            e.quorum(electorate, ready.iter().copied())
        };
        // The majority shrinks with its electorate: 3 of 4, 2 of 3, 1 of 1.
        assert_eq!(fire(SyncMode::EagerMajority, 4, &[1, 2]), None);
        assert_eq!(fire(SyncMode::EagerMajority, 4, &[1, 2, 3]), Some(1));
        assert_eq!(fire(SyncMode::EagerMajority, 3, &[2, 3]), Some(2));
        assert_eq!(fire(SyncMode::EagerMajority, 1, &[3]), Some(3));
        // The barrier needs everyone, one backup everyone but one.
        assert_eq!(fire(SyncMode::Bsp, 4, &[0, 1, 2]), None);
        assert_eq!(fire(SyncMode::Bsp, 4, &[0, 1, 2, 3]), Some(0));
        assert_eq!(fire(SyncMode::Backup(1), 4, &[1, 2, 3]), Some(1));
        assert_eq!(fire(SyncMode::Backup(2), 4, &[3]), None);
        assert_eq!(fire(SyncMode::Backup(2), 4, &[2, 3]), Some(2));
        // RNA elects by reply, never by count.
        assert_eq!(fire(SyncMode::Rna, 1, &[0]), None);
    }

    #[test]
    fn a_fired_quorum_closes_until_the_next_open() {
        let mut e = Election::new(SyncMode::Bsp, 2, &ToleranceConfig::default());
        e.open();
        assert_eq!(e.quorum(2, [0, 1].into_iter()), Some(0));
        assert!(!e.armed());
        assert_eq!(e.quorum(2, [0, 1].into_iter()), None);
        e.open();
        assert_eq!(e.quorum(2, [0, 1].into_iter()), Some(0));
    }

    #[test]
    fn the_checkpoint_carries_epoch_and_backoff() {
        let mut e = Election::new(SyncMode::Rna, 1, &tolerance(300, 900));
        let mut rng = SimRng::seed(1);
        e.open();
        e.draw(0, &[0, 1], false, &mut rng, |_| true);
        e.draw(0, &[0, 1], true, &mut rng, |_| true);
        let mut out = Vec::new();
        e.encode_into(&mut out);
        let mut back = Election::new(SyncMode::Rna, 1, &tolerance(300, 900));
        back.restore_from(&mut Reader::new(&out))
            .expect("roundtrip");
        assert_eq!((back.epoch, back.backoff_us()), (2, 600));
        assert!(back.probed().is_empty());
        assert!(back.restore_from(&mut Reader::new(&out[..12])).is_none());
    }
}
