//! `--compare a.jsonl b.jsonl`: two sets of recorded runs side by side, judged
//! by the bounds of `BENCHMARK.json` (never by bounds of its own).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::stats;

struct Bounded {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// End-to-end values per workload and metric, over every untraced run of a file
/// written with `--out` (one JSON object per line).
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (number, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", number + 1))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no result.metrics", number + 1))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                runs.entry((workload.to_string(), name.clone())).or_default().push(value);
            }
        }
    }
    Ok(runs)
}

fn read_bounds(manifest: &str) -> Result<(Vec<String>, Vec<Bounded>), String> {
    let manifest = json::parse(manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
    };
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let mut metrics = Vec::new();
    for metric in list("end_to_end")? {
        let field = |key: &str| metric.get(key).ok_or_else(|| format!("metric without {key}"));
        metrics.push(Bounded {
            name: field("name")?.as_str().ok_or("metric name is not a string")?.to_string(),
            lower_is_better: field("better")?.as_str() == Some("lower"),
            bound: field("bound")?.as_f64().ok_or("metric bound is not a number")?,
        });
    }
    Ok((workloads, metrics))
}

/// The comparison table: per workload and end-to-end metric both medians, the
/// ratio with its base, the bound, and a verdict. `worse`: b's median is worse
/// than a's by more than the bound. `unresolved`: not worse, but a side's
/// spread between quartiles exceeds the bound (or a side has fewer than two
/// runs) and b's runs are not all better than a's. `within`: otherwise.
pub fn compare(manifest: &str, a_text: &str, b_text: &str) -> Result<String, String> {
    let (workloads, metrics) = read_bounds(manifest)?;
    let (a, b) = (read_runs(a_text)?, read_runs(b_text)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<17} {:<22} {:>12} {:>12} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "iqr a", "iqr b", "bound"
    );
    for workload in &workloads {
        for metric in &metrics {
            let key = (workload.clone(), metric.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else { continue };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let worse_by = if metric.lower_is_better { mb - ma } else { ma - mb } / ma.abs();
            let spreads = stats::spread(va).zip(stats::spread(vb));
            let b_wins_every_pair = va
                .iter()
                .all(|x| vb.iter().all(|y| if metric.lower_is_better { y < x } else { y > x }));
            let verdict = if worse_by > metric.bound {
                "worse"
            } else if spreads.is_none_or(|(sa, sb)| sa.max(sb) > metric.bound) && !b_wins_every_pair
            {
                "unresolved"
            } else {
                "within"
            };
            let pct =
                |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
            let _ = writeln!(
                out,
                "{:<17} {:<22} {:>12.4} {:>12.4} {:>8.4}x {:>7} {:>7} {:>5.1}%  {verdict}",
                workload,
                metric.name,
                ma,
                mb,
                mb / ma,
                pct(spreads.map(|s| s.0)),
                pct(spreads.map(|s| s.1)),
                metric.bound * 100.0,
            );
        }
    }
    let _ = writeln!(
        out,
        "ratios are b over a; medians over {} and {} runs per row at most",
        a.values().map(Vec::len).max().unwrap_or(0),
        b.values().map(Vec::len).max().unwrap_or(0)
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"{"workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [
            {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.05},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}]}"#;

    fn runs(latency: &[f64], rate: &[f64]) -> String {
        latency
            .iter()
            .zip(rate)
            .map(|(l, r)| {
                format!(
                    "{{\"workload\":\"w\",\"result\":{{\"metrics\":{{\
                     \"latency_ms\":{{\"value\":{l},\"unit\":\"ms\"}},\
                     \"rate\":{{\"value\":{r},\"unit\":\"1/s\"}}}}}}}}\n"
                )
            })
            .collect()
    }

    fn verdicts(table: &str) -> Vec<&str> {
        table.lines().skip(1).filter_map(|l| l.split_whitespace().last()).take(2).collect()
    }

    #[test]
    fn judges_by_the_manifest_bounds() {
        let steady = runs(&[10.0, 10.1, 9.9, 10.0], &[100.0, 101.0, 99.0, 100.0]);
        // 10 % slower and 10 % less: worse on both directions of "better".
        let slow = runs(&[11.0, 11.1, 10.9, 11.0], &[90.0, 91.0, 89.0, 90.0]);
        assert_eq!(verdicts(&compare(MANIFEST, &steady, &slow).unwrap()), ["worse", "worse"]);
        assert_eq!(verdicts(&compare(MANIFEST, &steady, &steady).unwrap()), ["within", "within"]);
        // Same medians, but a spread far wider than the bound.
        let noisy = runs(&[8.0, 12.0, 9.0, 11.0], &[80.0, 120.0, 90.0, 110.0]);
        assert_eq!(
            verdicts(&compare(MANIFEST, &steady, &noisy).unwrap()),
            ["unresolved", "unresolved"]
        );
        // A single run per side has no spread to resolve anything with …
        let one = runs(&[10.0], &[100.0]);
        assert_eq!(verdicts(&compare(MANIFEST, &one, &one).unwrap()), ["unresolved", "unresolved"]);
        // … unless every run of b beats every run of a.
        let fast = runs(&[5.0, 5.5, 4.5, 5.0], &[200.0, 210.0, 190.0, 200.0]);
        assert_eq!(verdicts(&compare(MANIFEST, &noisy, &fast).unwrap()), ["within", "within"]);
        assert!(compare("{}", &steady, &steady).is_err());
        assert!(compare(MANIFEST, "not json", &steady).is_err());
    }
}
