//! Convergence tracking and stopping criteria.
//!
//! [`History`] records `(virtual time, iteration, loss, accuracy)` points —
//! the raw material of the paper's Figure 7 convergence curves — and
//! [`EarlyStopping`] reimplements the Keras callback the paper uses to
//! terminate training (patience 10, §8.1).

/// One convergence measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryPoint {
    /// Virtual seconds since training started.
    pub time_s: f64,
    /// Global synchronization round at which the point was taken.
    pub iteration: u64,
    /// Evaluation loss.
    pub loss: f64,
    /// Evaluation accuracy in `[0, 1]` (0 for regression).
    pub accuracy: f64,
}

/// An append-only convergence log.
///
/// # Examples
///
/// ```
/// use rna_training::History;
///
/// let mut h = History::new();
/// h.record(0.0, 0, 2.3, 0.1);
/// h.record(1.0, 10, 1.1, 0.6);
/// assert_eq!(h.best_loss(), Some(1.1));
/// assert_eq!(h.final_accuracy(), Some(0.6));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    points: Vec<HistoryPoint>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends a measurement.
    pub fn record(&mut self, time_s: f64, iteration: u64, loss: f64, accuracy: f64) {
        self.points.push(HistoryPoint {
            time_s,
            iteration,
            loss,
            accuracy,
        });
    }

    /// All recorded points in order.
    pub fn points(&self) -> &[HistoryPoint] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The minimum loss seen (a diverged replica's NaN loss is skipped).
    pub fn best_loss(&self) -> Option<f64> {
        self.points.iter().map(|p| p.loss).reduce(f64::min)
    }

    /// The last recorded loss.
    pub fn final_loss(&self) -> Option<f64> {
        self.points.last().map(|p| p.loss)
    }

    /// The last recorded accuracy.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.points.last().map(|p| p.accuracy)
    }

    /// The maximum accuracy seen.
    pub fn best_accuracy(&self) -> Option<f64> {
        self.points.iter().map(|p| p.accuracy).reduce(f64::max)
    }

    /// The first virtual time at which loss dropped to `target` or below —
    /// the paper's time-to-target-loss performance metric (§7.3).
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.loss <= target)
            .map(|p| p.time_s)
    }

    /// The first virtual time at which accuracy reached `target` or above.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.accuracy >= target)
            .map(|p| p.time_s)
    }

    /// The best loss achieved up to `frac` of the run's wall time — the
    /// milestone used as the cross-approach "target loss" in the
    /// evaluation. Picking an *interior* point (the paper's target losses
    /// are likewise reached well before saturation) keeps the
    /// time-to-target comparison meaningful: a baseline that keeps
    /// improving until its budget expires would otherwise only reach its
    /// own best loss at the very end, inflating every speedup against it.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `(0, 1]`.
    pub fn loss_milestone(&self, frac: f64) -> Option<f64> {
        assert!(frac > 0.0 && frac <= 1.0, "fraction must be in (0, 1]");
        let end = self.points.last()?.time_s;
        let cutoff = end * frac;
        self.points
            .iter()
            .filter(|p| p.time_s <= cutoff)
            .map(|p| p.loss)
            .reduce(f64::min)
    }
}

/// Keras-style early stopping on loss: stop when the monitored loss has not
/// improved by at least `min_delta` for `patience` consecutive checks.
///
/// # Examples
///
/// ```
/// use rna_training::EarlyStopping;
///
/// let mut stop = EarlyStopping::new(2, 0.0);
/// assert!(!stop.update(1.0));
/// assert!(!stop.update(0.9)); // improved
/// assert!(!stop.update(0.95)); // strike 1
/// assert!(stop.update(0.91)); // strike 2 → stop
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EarlyStopping {
    patience: u32,
    min_delta: f64,
    best: f64,
    strikes: u32,
}

impl EarlyStopping {
    /// Creates a stopper. The paper uses `patience = 10` with the default
    /// delta.
    ///
    /// # Panics
    ///
    /// Panics if `min_delta` is negative or NaN.
    pub fn new(patience: u32, min_delta: f64) -> Self {
        assert!(min_delta >= 0.0, "min_delta must be non-negative");
        EarlyStopping {
            patience,
            min_delta,
            best: f64::INFINITY,
            strikes: 0,
        }
    }

    /// The paper's configuration: patience 10.
    pub fn paper_default() -> Self {
        EarlyStopping::new(10, 0.0)
    }

    /// Feeds one loss observation; returns `true` when training should stop.
    pub fn update(&mut self, loss: f64) -> bool {
        if loss < self.best - self.min_delta {
            self.best = loss;
            self.strikes = 0;
            false
        } else {
            self.strikes += 1;
            self.strikes >= self.patience
        }
    }

    /// Best loss observed so far.
    pub fn best(&self) -> f64 {
        self.best
    }

    /// Consecutive non-improving checks so far.
    pub fn strikes(&self) -> u32 {
        self.strikes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_tracks_extremes() {
        let mut h = History::new();
        assert!(h.is_empty());
        assert_eq!(h.best_loss(), None);
        h.record(0.0, 0, 3.0, 0.2);
        h.record(1.0, 5, 1.0, 0.7);
        h.record(2.0, 10, 1.5, 0.6);
        assert_eq!(h.len(), 3);
        assert_eq!(h.best_loss(), Some(1.0));
        assert_eq!(h.final_loss(), Some(1.5));
        assert_eq!(h.best_accuracy(), Some(0.7));
        assert_eq!(h.final_accuracy(), Some(0.6));
    }

    /// A diverged replica records a NaN loss; the summaries skip it instead
    /// of panicking, and it never counts as reaching a target.
    #[test]
    fn nan_loss_is_skipped_by_the_summaries() {
        let mut h = History::new();
        h.record(0.0, 0, 2.0, 0.5);
        h.record(1.0, 5, f64::NAN, 0.0);
        assert_eq!(h.best_loss(), Some(2.0));
        assert_eq!(h.loss_milestone(1.0), Some(2.0));
        assert_eq!(h.best_accuracy(), Some(0.5));
        assert_eq!(h.time_to_loss(10.0), Some(0.0));
        assert!(h.final_loss().unwrap().is_nan());
    }

    #[test]
    fn time_to_loss_finds_first_crossing() {
        let mut h = History::new();
        h.record(0.0, 0, 3.0, 0.0);
        h.record(5.0, 5, 1.9, 0.0);
        h.record(9.0, 9, 1.2, 0.0);
        assert_eq!(h.time_to_loss(2.0), Some(5.0));
        assert_eq!(h.time_to_loss(1.0), None);
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let mut h = History::new();
        h.record(0.0, 0, 1.0, 0.3);
        h.record(4.0, 4, 0.5, 0.8);
        assert_eq!(h.time_to_accuracy(0.75), Some(4.0));
        assert_eq!(h.time_to_accuracy(0.99), None);
    }

    #[test]
    fn loss_milestone_is_interior() {
        let mut h = History::new();
        h.record(0.0, 0, 3.0, 0.0);
        h.record(5.0, 5, 2.0, 0.0);
        h.record(10.0, 10, 1.0, 0.0);
        // At 70% of wall time (7.0s) the best loss so far is 2.0.
        assert_eq!(h.loss_milestone(0.7), Some(2.0));
        assert_eq!(h.loss_milestone(1.0), Some(1.0));
        assert_eq!(History::new().loss_milestone(0.5), None);
    }

    #[test]
    fn loss_milestone_ignores_later_regressions() {
        let mut h = History::new();
        h.record(0.0, 0, 3.0, 0.0);
        h.record(2.0, 2, 1.0, 0.0);
        h.record(4.0, 4, 2.5, 0.0);
        assert_eq!(h.loss_milestone(1.0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn loss_milestone_rejects_bad_fraction() {
        let _ = History::new().loss_milestone(0.0);
    }

    #[test]
    fn early_stopping_resets_on_improvement() {
        let mut s = EarlyStopping::new(3, 0.0);
        assert!(!s.update(2.0));
        assert!(!s.update(2.1)); // strike 1
        assert!(!s.update(2.2)); // strike 2
        assert!(!s.update(1.9)); // improvement resets
        assert_eq!(s.strikes(), 0);
        assert_eq!(s.best(), 1.9);
        assert!(!s.update(2.0));
        assert!(!s.update(2.0));
        assert!(s.update(2.0)); // 3 strikes
    }

    #[test]
    fn min_delta_requires_meaningful_improvement() {
        let mut s = EarlyStopping::new(1, 0.5);
        assert!(!s.update(2.0));
        // 1.8 improves by 0.2 < 0.5 → counts as a strike and stops.
        assert!(s.update(1.8));
    }

    #[test]
    fn paper_default_has_patience_ten() {
        let mut s = EarlyStopping::paper_default();
        s.update(1.0);
        for _ in 0..9 {
            assert!(!s.update(1.0));
        }
        assert!(s.update(1.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_delta() {
        EarlyStopping::new(1, -0.1);
    }
}
