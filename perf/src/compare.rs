//! `perf --compare <a> <b>`: two result files side by side, per workload and
//! end-to-end metric — both medians, the relative difference, the bound,
//! and a verdict. `a` is the base; a positive difference means `b` is
//! worse. `unresolved` means a side's own quartile spread is wider than
//! the bound, so the run cannot tell.

use crate::harness::{Json, Stat};
use crate::{Better, EndToEnd, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`, and what that means
/// against the metric's bound.
pub fn judge(metric: &EndToEnd, a: Stat, b: Stat) -> (f64, Verdict) {
    let change = (b.value - a.value) / a.value.abs();
    let worse = match metric.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let verdict = if a.spread().max(b.spread()) > metric.bound {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    };
    (worse, verdict)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn stat(doc: &Json, workload: &str, metric: &str) -> Option<Stat> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let part = |key| m.get(key).and_then(Json::as_f64).unwrap_or(value);
    Some(Stat {
        value,
        q1: part("q1"),
        q3: part("q3"),
        samples: m.get("samples").and_then(Json::as_f64).unwrap_or(1.0) as usize,
    })
}

/// Prints the table; true when no pairing failed and none was missing.
pub fn run(path_a: &str, path_b: &str) -> bool {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("perf --compare: {e}");
            }
            return false;
        }
    };
    for (doc, path) in [(&a, path_a), (&b, path_b)] {
        let text = |key| doc.get(key).and_then(Json::as_str).unwrap_or("?");
        println!(
            "{path}: commit {} seed {} threads {}",
            text("commit"),
            doc.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN),
            doc.get("threads")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
    }
    println!(
        "| workload | metric | a (median) | b (median) | b worse by | bound | verdict |\n|---|---|---|---|---|---|---|"
    );
    let mut ok = true;
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                stat(&a, workload, metric.name),
                stat(&b, workload, metric.name),
            ) else {
                println!(
                    "| {workload} | {} | missing | missing | | | fail |",
                    metric.name
                );
                ok = false;
                continue;
            };
            let (worse, verdict) = judge(metric, sa, sb);
            ok &= verdict != Verdict::Fail;
            println!(
                "| {workload} | {} | {} | {} | {:+.2}% | {:.0}% | {} |",
                metric.name,
                sa.value,
                sb.value,
                100.0 * worse,
                100.0 * metric.bound,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Fail => "FAIL",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(value: f64, rel: f64) -> Stat {
        Stat {
            value,
            q1: value * (1.0 - rel / 2.0),
            q3: value * (1.0 + rel / 2.0),
            samples: 5,
        }
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        let rate = EndToEnd {
            name: "rounds_per_s",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
        };
        // A higher-is-better metric that dropped 20 % fails; a 5 % drop and
        // any gain pass.
        let (worse, v) = judge(&rate, Stat::exact(100.0), Stat::exact(80.0));
        assert!((worse - 0.2).abs() < 1e-12);
        assert_eq!(v, Verdict::Fail);
        let verdict = |m, a, b| judge(m, Stat::exact(a), Stat::exact(b)).1;
        assert_eq!(verdict(&rate, 100.0, 95.0), Verdict::Pass);
        assert_eq!(verdict(&rate, 100.0, 150.0), Verdict::Pass);
        // A lower-is-better metric reads the other way.
        let setup = EndToEnd {
            name: "setup_s",
            unit: "s",
            better: Better::Lower,
            bound: 0.25,
        };
        assert_eq!(verdict(&setup, 1.0, 1.5), Verdict::Fail);
        assert_eq!(verdict(&setup, 1.0, 0.5), Verdict::Pass);
        // A side noisier than the bound cannot resolve either way.
        assert_eq!(
            judge(&rate, spread(100.0, 0.3), Stat::exact(50.0)).1,
            Verdict::Unresolved
        );
    }
}
