//! Workload trace recording and replay.
//!
//! Researchers evaluating straggler mitigation often want to re-run a
//! *measured* workload rather than a parametric model (the paper itself
//! replays injected delays "following the experiment setting as Hop").
//! [`WorkloadTrace`] records per-worker iteration durations, serializes to
//! a simple line-oriented text format (`worker_id duration_ns` per line),
//! and converts back into [`ComputeTimeModel::Empirical`] replays.

use std::fmt::Write as _;

use rna_simnet::SimDuration;

use crate::ComputeTimeModel;

/// A recorded set of per-worker iteration durations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkloadTrace {
    per_worker: Vec<Vec<SimDuration>>,
}

impl WorkloadTrace {
    /// Creates an empty trace for `n` workers.
    pub fn new(n: usize) -> Self {
        WorkloadTrace {
            per_worker: vec![Vec::new(); n],
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Records one iteration duration for `worker`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn record(&mut self, worker: usize, duration: SimDuration) {
        self.per_worker[worker].push(duration);
    }

    /// The recorded durations of `worker`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn durations(&self, worker: usize) -> &[SimDuration] {
        &self.per_worker[worker]
    }

    /// Total recorded iterations across all workers.
    pub fn len(&self) -> usize {
        self.per_worker.iter().map(Vec::len).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A replay model for one worker
    /// ([`ComputeTimeModel::Empirical`]); `None` if that worker recorded
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn replay_model(&self, worker: usize) -> Option<ComputeTimeModel> {
        let samples = &self.per_worker[worker];
        if samples.is_empty() {
            None
        } else {
            Some(ComputeTimeModel::Empirical(samples.clone()))
        }
    }

    /// A replay model pooling every worker's samples.
    ///
    /// Returns `None` for an empty trace.
    pub fn pooled_replay_model(&self) -> Option<ComputeTimeModel> {
        let all: Vec<SimDuration> = self.per_worker.iter().flatten().copied().collect();
        if all.is_empty() {
            None
        } else {
            Some(ComputeTimeModel::Empirical(all))
        }
    }

    /// Serializes to the line format `worker_id duration_ns`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (w, samples) in self.per_worker.iter().enumerate() {
            for d in samples {
                writeln!(out, "{w} {}", d.as_nanos()).expect("string write");
            }
        }
        out
    }

    /// Parses the line format produced by [`WorkloadTrace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut per_worker: Vec<Vec<SimDuration>> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let w: usize = parts
                .next()
                .ok_or_else(|| format!("line {}: missing worker id", lineno + 1))?
                .parse()
                .map_err(|e| format!("line {}: bad worker id: {e}", lineno + 1))?;
            let ns: u64 = parts
                .next()
                .ok_or_else(|| format!("line {}: missing duration", lineno + 1))?
                .parse()
                .map_err(|e| format!("line {}: bad duration: {e}", lineno + 1))?;
            if parts.next().is_some() {
                return Err(format!("line {}: trailing tokens", lineno + 1));
            }
            if per_worker.len() <= w {
                per_worker.resize(w + 1, Vec::new());
            }
            per_worker[w].push(SimDuration::from_nanos(ns));
        }
        Ok(WorkloadTrace { per_worker })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna_simnet::SimRng;

    fn ms(m: u64) -> SimDuration {
        SimDuration::from_millis(m)
    }

    #[test]
    fn record_and_query() {
        let mut t = WorkloadTrace::new(2);
        assert!(t.is_empty());
        t.record(0, ms(5));
        t.record(0, ms(7));
        t.record(1, ms(9));
        assert_eq!(t.len(), 3);
        assert_eq!(t.durations(0), &[ms(5), ms(7)]);
        assert_eq!(t.num_workers(), 2);
    }

    #[test]
    fn text_roundtrip() {
        let mut t = WorkloadTrace::new(3);
        t.record(0, ms(5));
        t.record(2, ms(11));
        t.record(2, SimDuration::from_nanos(123));
        let text = t.to_text();
        let back = WorkloadTrace::from_text(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn parser_tolerates_comments_and_blanks() {
        let t = WorkloadTrace::from_text("# header\n\n0 1000\n 1 2000 \n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.durations(1), &[SimDuration::from_nanos(2000)]);
    }

    #[test]
    fn parser_reports_bad_lines() {
        assert!(WorkloadTrace::from_text("x 5").is_err());
        assert!(WorkloadTrace::from_text("0").is_err());
        assert!(WorkloadTrace::from_text("0 5 9").is_err());
    }

    #[test]
    fn replay_model_samples_recorded_values() {
        let mut t = WorkloadTrace::new(1);
        t.record(0, ms(3));
        t.record(0, ms(30));
        let model = t.replay_model(0).unwrap();
        let mut rng = SimRng::seed(1);
        for _ in 0..50 {
            let s = model.sample(&mut rng, None);
            assert!(s == ms(3) || s == ms(30), "sampled {s}");
        }
        // Mean of the empirical model is the sample mean.
        assert_eq!(model.mean(0.0), SimDuration::from_millis_f64(16.5));
        assert!(WorkloadTrace::new(1).replay_model(0).is_none());
    }

    #[test]
    fn pooled_model_covers_all_workers() {
        let mut t = WorkloadTrace::new(2);
        t.record(0, ms(1));
        t.record(1, ms(100));
        let model = t.pooled_replay_model().unwrap();
        let mut rng = SimRng::seed(2);
        let mut seen = [false, false];
        for _ in 0..100 {
            match model.sample(&mut rng, None) {
                d if d == ms(1) => seen[0] = true,
                d if d == ms(100) => seen[1] = true,
                other => panic!("unexpected {other}"),
            }
        }
        assert!(seen[0] && seen[1]);
        assert!(WorkloadTrace::new(0).pooled_replay_model().is_none());
    }
}
