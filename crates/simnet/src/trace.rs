//! Per-worker span accounting.
//!
//! Figure 1 of the paper splits a worker's iteration into *computation* time
//! and *waiting* time (communication + blocked-on-barrier). [`SpanTracker`]
//! accumulates those spans as a protocol engine runs and produces the same
//! breakdown.

use crate::{SimDuration, SimTime};

/// What a worker is doing during a span of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Forward/backward propagation (the useful work).
    Compute,
    /// Blocked on a synchronization barrier (idle).
    Wait,
    /// Actively exchanging gradients/parameters.
    Communicate,
}

/// Accumulated busy/idle time for one worker.
///
/// # Examples
///
/// ```
/// use rna_simnet::trace::{SpanKind, TimeBreakdown};
/// use rna_simnet::SimDuration;
///
/// let mut b = TimeBreakdown::default();
/// b.add(SpanKind::Compute, SimDuration::from_millis(30));
/// b.add(SpanKind::Wait, SimDuration::from_millis(10));
/// assert!((b.compute_fraction() - 0.75).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeBreakdown {
    /// Total computation time.
    pub compute: SimDuration,
    /// Total barrier-blocked time.
    pub wait: SimDuration,
    /// Total communication time.
    pub communicate: SimDuration,
}

impl TimeBreakdown {
    /// Adds `d` to the bucket for `kind`.
    pub fn add(&mut self, kind: SpanKind, d: SimDuration) {
        match kind {
            SpanKind::Compute => self.compute += d,
            SpanKind::Wait => self.wait += d,
            SpanKind::Communicate => self.communicate += d,
        }
    }

    /// Total accounted time.
    pub fn total(&self) -> SimDuration {
        self.compute + self.wait + self.communicate
    }

    /// Waiting time in the paper's Figure-1 sense: blocked + communicating
    /// (everything that is not computation).
    pub fn waiting(&self) -> SimDuration {
        self.wait + self.communicate
    }

    /// Fraction of accounted time spent computing, or 0.0 when nothing has
    /// been accounted.
    pub fn compute_fraction(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.compute.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// One recorded span transition: worker `w` entered `kind` at `at`.
pub type SpanEvent = (usize, SpanKind, SimTime);

/// Accumulates typed spans for a set of workers, optionally logging every
/// transition (capped) so execution timelines can be rendered afterwards.
#[derive(Debug, Clone, Default)]
pub struct SpanTracker {
    per_worker: Vec<TimeBreakdown>,
    open: Vec<Option<(SpanKind, SimTime)>>,
    log: Vec<SpanEvent>,
    log_cap: usize,
}

impl SpanTracker {
    /// Creates a tracker for `n` workers with transition logging capped at
    /// 40,000 events (enough for thousands of rounds; older runs simply
    /// stop extending the timeline).
    pub fn new(n: usize) -> Self {
        SpanTracker {
            per_worker: vec![TimeBreakdown::default(); n],
            open: vec![None; n],
            log: Vec::new(),
            log_cap: 40_000,
        }
    }

    /// The recorded span transitions, in chronological order.
    pub fn log(&self) -> &[SpanEvent] {
        &self.log
    }

    /// Takes ownership of the recorded transitions.
    pub fn take_log(&mut self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.log)
    }

    /// Number of tracked workers.
    pub fn len(&self) -> usize {
        self.per_worker.len()
    }

    /// Whether the tracker has no workers.
    pub fn is_empty(&self) -> bool {
        self.per_worker.is_empty()
    }

    /// Begins a span of `kind` for `worker` at `now`, closing any span that
    /// was already open (its elapsed time is credited to its own kind).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn begin(&mut self, worker: usize, kind: SpanKind, now: SimTime) {
        self.end(worker, now);
        self.open[worker] = Some((kind, now));
        if self.log.len() < self.log_cap {
            self.log.push((worker, kind, now));
        }
    }

    /// Closes the open span (if any) for `worker` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn end(&mut self, worker: usize, now: SimTime) {
        if let Some((kind, start)) = self.open[worker].take() {
            self.per_worker[worker].add(kind, now.elapsed_since(start));
        }
    }

    /// Directly credits `d` of `kind` to `worker` without an open span.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn credit(&mut self, worker: usize, kind: SpanKind, d: SimDuration) {
        self.per_worker[worker].add(kind, d);
    }

    /// Closes all open spans at `now` and returns the per-worker breakdowns.
    pub fn finish(mut self, now: SimTime) -> Vec<TimeBreakdown> {
        for w in 0..self.open.len() {
            self.end(w, now);
        }
        self.per_worker
    }

    /// A read-only view of the breakdowns accumulated so far (open spans are
    /// not included).
    pub fn snapshot(&self) -> &[TimeBreakdown] {
        &self.per_worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn breakdown_buckets() {
        let mut b = TimeBreakdown::default();
        b.add(SpanKind::Compute, SimDuration::from_millis(10));
        b.add(SpanKind::Wait, SimDuration::from_millis(5));
        b.add(SpanKind::Communicate, SimDuration::from_millis(5));
        assert_eq!(b.total(), SimDuration::from_millis(20));
        assert_eq!(b.waiting(), SimDuration::from_millis(10));
        assert!((b.compute_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        assert_eq!(TimeBreakdown::default().compute_fraction(), 0.0);
    }

    #[test]
    fn spans_accumulate() {
        let mut tr = SpanTracker::new(2);
        tr.begin(0, SpanKind::Compute, t(0));
        tr.begin(0, SpanKind::Wait, t(30)); // closes compute at 30ms
        tr.begin(1, SpanKind::Compute, t(0));
        let out = tr.finish(t(50));
        assert_eq!(out[0].compute, SimDuration::from_millis(30));
        assert_eq!(out[0].wait, SimDuration::from_millis(20));
        assert_eq!(out[1].compute, SimDuration::from_millis(50));
    }

    #[test]
    fn begin_closes_previous_span() {
        let mut tr = SpanTracker::new(1);
        tr.begin(0, SpanKind::Compute, t(0));
        tr.begin(0, SpanKind::Communicate, t(10));
        tr.begin(0, SpanKind::Compute, t(15));
        let out = tr.finish(t(25));
        assert_eq!(out[0].compute, SimDuration::from_millis(20));
        assert_eq!(out[0].communicate, SimDuration::from_millis(5));
    }

    #[test]
    fn end_without_open_span_is_noop() {
        let mut tr = SpanTracker::new(1);
        tr.end(0, t(10));
        let out = tr.finish(t(20));
        assert_eq!(out[0].total(), SimDuration::ZERO);
    }

    #[test]
    fn credit_bypasses_spans() {
        let mut tr = SpanTracker::new(1);
        tr.credit(0, SpanKind::Communicate, SimDuration::from_millis(7));
        assert_eq!(tr.snapshot()[0].communicate, SimDuration::from_millis(7));
    }

    #[test]
    fn len_and_is_empty() {
        assert!(SpanTracker::new(0).is_empty());
        assert_eq!(SpanTracker::new(3).len(), 3);
    }
}
