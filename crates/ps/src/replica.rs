//! Primary/replica mirroring for parameter-server state.
//!
//! A single-copy parameter server is a single point of failure for the
//! hierarchical exchange (§4): if the node holding a group's slot dies,
//! every later push or pull for that slot wedges. This module keeps a
//! warm mirror next to each primary copy:
//!
//! * **Writes** land on the primary only; the mirror catches up lazily via
//!   **read-repair** on the next pull (asynchronous replication — a push
//!   never pays a synchronous second copy).
//! * **A primary crash** ([`ReplicatedGroupServer::kill_primary`]) freezes
//!   that slot at its last-repaired mirror value. Pushes and pulls for the
//!   slot transparently degrade to the mirror; everything else is
//!   unaffected. Writes that landed on the primary after the last
//!   read-repair are lost — the honest cost of asynchronous replication.
//!
//! The blended pull recomputes the cross-slot mean in slot order, exactly
//! like the primary server does, so with every primary alive the
//! replicated server is bit-identical to the plain one.

use rna_tensor::Tensor;

use crate::GroupServer;

/// A [`GroupServer`] whose per-group slots are each mirrored to a warm
/// replica, with read-repair on pull and per-slot primary failover.
///
/// # Examples
///
/// ```
/// use rna_ps::ReplicatedGroupServer;
/// use rna_tensor::Tensor;
///
/// let mut ps = ReplicatedGroupServer::new(Tensor::from_vec(vec![0.0]), 2);
/// ps.push(0, &Tensor::from_vec(vec![2.0]));
/// assert_eq!(ps.pull_slot(0).as_slice(), &[2.0]); // read-repairs the mirror
/// ps.kill_primary(0);
/// assert_eq!(ps.pull_slot(0).as_slice(), &[2.0]); // served by the replica
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedGroupServer {
    primary: GroupServer,
    /// Replica copy of each slot plus the primary version it mirrors.
    mirror: Vec<(Tensor, u64)>,
    primary_alive: Vec<bool>,
    read_repairs: u64,
    failovers: u64,
}

impl ReplicatedGroupServer {
    /// Creates a replicated server for `num_groups` groups; both copies of
    /// every slot start from `init`.
    ///
    /// # Panics
    ///
    /// Panics if `num_groups == 0` or `init` is empty (the
    /// [`GroupServer::new`] conditions).
    pub fn new(init: Tensor, num_groups: usize) -> Self {
        let primary = GroupServer::new(init.clone(), num_groups);
        ReplicatedGroupServer {
            primary,
            mirror: vec![(init, 0); num_groups],
            primary_alive: vec![true; num_groups],
            read_repairs: 0,
            failovers: 0,
        }
    }

    /// Number of registered groups.
    pub fn num_groups(&self) -> usize {
        self.primary.num_groups()
    }

    /// Whether the slot's primary copy is still alive.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn primary_alive(&self, group: usize) -> bool {
        self.primary_alive[group]
    }

    /// Mirror copies refreshed by read-repair so far.
    pub fn read_repairs(&self) -> u64 {
        self.read_repairs
    }

    /// Primary copies that crashed and degraded to their replica.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The server's update counter. Version metadata lives on the
    /// controller side and survives shard crashes.
    pub fn version(&self) -> u64 {
        self.primary.version()
    }

    /// How many global updates `group` has missed since its last push
    /// (delegates to the primary's version metadata).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn staleness(&self, group: usize) -> u64 {
        self.primary.staleness(group)
    }

    /// Stores `params` in the group's slot. With a live primary this is a
    /// plain primary write (the mirror catches up on the next pull); after
    /// a crash the write lands on the replica directly.
    ///
    /// # Panics
    ///
    /// Panics under the [`GroupServer::push`] conditions.
    pub fn push(&mut self, group: usize, params: &Tensor) {
        if self.primary_alive[group] {
            self.primary.push(group, params);
        } else {
            // The replica is now the authoritative copy; keep the version
            // metadata moving so staleness accounting stays meaningful.
            self.primary.push(group, params);
            let (t, v) = &mut self.mirror[group];
            t.copy_from(params);
            *v = self.primary.slot_version(group);
        }
    }

    /// The authoritative value of one slot: the primary copy when alive
    /// (read-repairing the mirror as a side effect), the replica after a
    /// crash.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn pull_slot(&mut self, group: usize) -> &Tensor {
        if self.primary_alive[group] {
            let version = self.primary.slot_version(group);
            if self.mirror[group].1 != version {
                let (t, v) = &mut self.mirror[group];
                t.copy_from(self.primary.slot(group));
                *v = version;
                self.read_repairs += 1;
            }
            self.primary.slot(group)
        } else {
            &self.mirror[group].0
        }
    }

    /// The blended global parameters: the mean over every slot's
    /// authoritative copy, accumulated in slot order — bit-identical to
    /// [`GroupServer::pull`] while every primary is alive.
    pub fn pull_blended(&self) -> Tensor {
        let mut out = Tensor::zeros(self.primary.pull().len());
        for group in 0..self.num_groups() {
            if self.primary_alive[group] {
                out.add_assign(self.primary.slot(group));
            } else {
                out.add_assign(&self.mirror[group].0);
            }
        }
        out.scale(1.0 / self.num_groups() as f32);
        out
    }

    /// Rebuilds the slot layout for a new grouping, seeding every slot
    /// (primary and replica alike) from the blended handoff value
    /// `master`.
    ///
    /// The caller folds every old slot's authoritative copy into `master`
    /// first (e.g. via [`ReplicatedGroupServer::pull_blended`]), so the
    /// handoff is replica-backed: a slot whose primary died contributes
    /// its mirror value to the blend and no pull ever wedges. Returns the
    /// number of slot keys the handoff touched — every old slot drained
    /// plus every new slot seeded.
    ///
    /// Lifetime counters ([`ReplicatedGroupServer::read_repairs`],
    /// [`ReplicatedGroupServer::failovers`]) survive the rebalance. Slot
    /// version metadata restarts from zero and every new primary starts
    /// alive: the new layout is a fresh shard placement, and every group
    /// leaves the swap synchronized to `master`.
    ///
    /// # Panics
    ///
    /// Panics if `new_groups == 0` or `master` is empty (the
    /// [`GroupServer::new`] conditions).
    pub fn rebalance(&mut self, master: &Tensor, new_groups: usize) -> u64 {
        let moved = (self.num_groups() + new_groups) as u64;
        self.primary = GroupServer::new(master.clone(), new_groups);
        self.mirror = vec![(master.clone(), 0); new_groups];
        self.primary_alive = vec![true; new_groups];
        moved
    }

    /// Kills the slot's primary copy: later pushes and pulls for `group`
    /// degrade to the mirror, which holds the value of the last
    /// read-repair — primary writes since then are lost. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn kill_primary(&mut self, group: usize) {
        assert!(group < self.num_groups(), "group out of range");
        if self.primary_alive[group] {
            self.primary_alive[group] = false;
            self.failovers += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[f32]) -> Tensor {
        Tensor::from_vec(vals.to_vec())
    }

    #[test]
    fn healthy_replicated_server_matches_plain() {
        let mut plain = GroupServer::new(t(&[0.0, 0.0]), 3);
        let mut repl = ReplicatedGroupServer::new(t(&[0.0, 0.0]), 3);
        for (g, v) in [(0, 1.0f32), (2, -4.0), (1, 2.5), (0, 7.0)] {
            let params = t(&[v, v * 2.0]);
            plain.push(g, &params);
            repl.push(g, &params);
            assert_eq!(plain.pull(), &repl.pull_blended());
            assert_eq!(plain.version(), repl.version());
        }
        assert_eq!(repl.failovers(), 0);
    }

    #[test]
    fn pull_read_repairs_the_mirror() {
        let mut ps = ReplicatedGroupServer::new(t(&[0.0]), 2);
        ps.push(0, &t(&[5.0]));
        assert_eq!(ps.read_repairs(), 0);
        assert_eq!(ps.pull_slot(0).as_slice(), &[5.0]);
        assert_eq!(ps.read_repairs(), 1);
        // Repaired, so a second pull repairs nothing.
        assert_eq!(ps.pull_slot(0).as_slice(), &[5.0]);
        assert_eq!(ps.read_repairs(), 1);
    }

    #[test]
    fn crash_degrades_to_last_repaired_value() {
        let mut ps = ReplicatedGroupServer::new(t(&[0.0]), 2);
        ps.push(0, &t(&[5.0]));
        ps.pull_slot(0); // mirror now holds 5.0
        ps.push(0, &t(&[9.0])); // never repaired → lost on crash
        ps.kill_primary(0);
        assert_eq!(ps.pull_slot(0).as_slice(), &[5.0]);
        assert_eq!(ps.failovers(), 1);
        ps.kill_primary(0); // idempotent
        assert_eq!(ps.failovers(), 1);
    }

    #[test]
    fn dead_slot_accepts_writes_on_the_replica() {
        let mut ps = ReplicatedGroupServer::new(t(&[0.0]), 2);
        ps.kill_primary(1);
        ps.push(1, &t(&[3.0]));
        assert_eq!(ps.pull_slot(1).as_slice(), &[3.0]);
        // The blend sees the replica's value too.
        assert_eq!(ps.pull_blended().as_slice(), &[1.5]);
    }

    #[test]
    fn staleness_metadata_survives_crash() {
        let mut ps = ReplicatedGroupServer::new(t(&[0.0]), 2);
        ps.push(0, &t(&[1.0]));
        ps.kill_primary(0);
        ps.push(1, &t(&[1.0]));
        assert_eq!(ps.staleness(0), 1);
        assert_eq!(ps.staleness(1), 0);
    }

    #[test]
    fn rebalance_reseeds_slots_and_survives_dead_primary() {
        let mut ps = ReplicatedGroupServer::new(t(&[0.0]), 2);
        ps.push(0, &t(&[4.0]));
        ps.pull_slot(0); // mirror now holds 4.0
        ps.kill_primary(0);
        let master = ps.pull_blended(); // (4.0 + 0.0) / 2, replica-backed
        assert_eq!(master.as_slice(), &[2.0]);
        let moved = ps.rebalance(&master, 3);
        assert_eq!(moved, 5, "2 old slots drained + 3 new slots seeded");
        assert_eq!(ps.num_groups(), 3);
        for g in 0..3 {
            assert!(ps.primary_alive(g), "new placement starts healthy");
            assert_eq!(ps.pull_slot(g).as_slice(), &[2.0]);
            assert_eq!(ps.staleness(g), 0);
        }
        assert_eq!(ps.failovers(), 1, "lifetime counters survive");
    }

    #[test]
    #[should_panic(expected = "group out of range")]
    fn kill_unknown_group_panics() {
        ReplicatedGroupServer::new(t(&[0.0]), 1).kill_primary(3);
    }
}
