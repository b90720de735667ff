//! `compare A.json B.json`: did B get worse than A?
//!
//! Per end-to-end metric and workload one verdict, against the bound the
//! benchmark fixes for the metric; per exact count a flag when the two
//! records disagree. A is the base of every ratio.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The values differ by more than the bound, but each record's own
    /// repetition-to-repetition quartile range reaches into the other's:
    /// the difference cannot be told from scatter.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    /// Metric `name` in section `section` of a workload's record.
    fn of(workload: &Json, section: &str, name: &str) -> Option<Stat> {
        let metric = workload.get(section)?.get(name)?;
        let value = metric.get("value")?.as_f64()?;
        let quartile = |key| metric.get(key).and_then(Json::as_f64).unwrap_or(value);
        Some(Stat {
            value,
            q1: quartile("q1"),
            q3: quartile("q3"),
        })
    }
}

/// Five significant digits: what a reader of a comparison needs.
fn rounded(v: f64) -> String {
    let decimals = (4 - v.abs().max(1e-9).log10().floor() as i32).clamp(0, 9);
    format!("{v:.*}", decimals as usize)
}

/// By what share of `a` is `b` worse (negative: better)?
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(m: &EndToEnd, a: Stat, b: Stat) -> Verdict {
    if a.value == 0.0 {
        // no base to take a share of
        return if b.value == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let by = worse_by(m, a.value, b.value);
    if by.abs() <= m.bound {
        Verdict::Same
    } else if a.q1 <= b.q3 && b.q1 <= a.q3 {
        Verdict::Unresolved
    } else if by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

#[derive(Debug, Default)]
pub struct Comparison {
    /// One printable line per metric and workload compared.
    pub lines: Vec<String>,
    pub worse: usize,
    /// Exact counts on which the two records disagree.
    pub differing_counts: usize,
}

fn workloads(record: &Json) -> Result<&[(String, Json)], String> {
    record
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| "record has no \"workloads\" object".to_string())
}

/// Compares record `b` against base record `a`.
///
/// # Errors
///
/// Returns a message when a record is not one this benchmark wrote, or the
/// two share no workload.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    let mut shared = 0;
    for (name, wa) in workloads(a)? {
        let Some(wb) = workloads(b)?
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w)
        else {
            out.lines.push(format!("{name}: only in the first record"));
            continue;
        };
        shared += 1;
        for m in &END_TO_END {
            let stat = |w| Stat::of(w, "end_to_end", m.name);
            let (Some(sa), Some(sb)) = (stat(wa), stat(wb)) else {
                continue;
            };
            let v = verdict(m, sa, sb);
            out.worse += usize::from(v == Verdict::Worse);
            out.lines.push(format!(
                "{name} {} {} -> {} {} ({:+.1}%, bound {:.0}%) {}",
                m.name,
                rounded(sa.value),
                rounded(sb.value),
                m.unit,
                100.0 * (sb.value - sa.value) / sa.value,
                100.0 * m.bound,
                v.as_str()
            ));
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let stat = |w| Stat::of(w, "per_layer", m.name);
            let (Some(sa), Some(sb)) = (stat(wa), stat(wb)) else {
                continue;
            };
            if sa.value != sb.value {
                out.differing_counts += 1;
                out.lines.push(format!(
                    "{name} {} {} -> {} {} COUNT DIFFERS (behaviour change)",
                    m.name, sa.value, sb.value, m.unit
                ));
            }
        }
    }
    if shared == 0 {
        return Err("the two records share no workload".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn stat(value: f64, q1: f64, q3: f64) -> Stat {
        Stat { value, q1, q3 }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_overlap() {
        let lower = end_to_end("e2e_ms_p50").unwrap();
        let b = lower.bound;
        let tight = |v: f64| stat(v, v * 0.99, v * 1.01);
        assert_eq!(
            verdict(lower, tight(100.0), tight(100.0 * (1.0 + b * 0.9))),
            Verdict::Same
        );
        assert_eq!(
            verdict(lower, tight(100.0), tight(100.0 * (1.0 - b * 0.9))),
            Verdict::Same
        );
        assert_eq!(
            verdict(lower, tight(100.0), tight(100.0 * (1.0 + b * 1.5))),
            Verdict::Worse
        );
        assert_eq!(
            verdict(lower, tight(100.0), tight(100.0 * (1.0 - b * 1.5))),
            Verdict::Better
        );
        // the same shift with scatter as wide as the shift: cannot tell
        let wide = |v: f64| stat(v, v * 0.7, v * 1.3);
        assert_eq!(
            verdict(lower, wide(100.0), wide(100.0 * (1.0 + b * 1.5))),
            Verdict::Unresolved
        );
        // a rate: higher is better, so a drop is worse
        let higher = end_to_end("deliveries_per_s").unwrap();
        assert_eq!(
            verdict(
                higher,
                tight(1000.0),
                tight(1000.0 * (1.0 - higher.bound * 2.0))
            ),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                higher,
                tight(1000.0),
                tight(1000.0 * (1.0 + higher.bound * 2.0))
            ),
            Verdict::Better
        );
        // no base
        assert_eq!(verdict(lower, tight(0.0), tight(0.0)), Verdict::Same);
        assert_eq!(verdict(lower, tight(0.0), tight(1.0)), Verdict::Unresolved);
    }

    fn record(e2e_ms: f64, steps: f64) -> Json {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::from(v)), ("unit", Json::from(unit))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "serve_dense",
                Json::obj([
                    (
                        "end_to_end",
                        Json::obj([("e2e_ms_p50", metric(e2e_ms, "ms"))]),
                    ),
                    (
                        "per_layer",
                        Json::obj([
                            ("core.steps", metric(steps, "count")),
                            ("core.run_ms", metric(e2e_ms, "ms")),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn compare_counts_worse_rows_and_flags_differing_counts() {
        let same = compare(&record(100.0, 5000.0), &record(101.0, 5000.0)).unwrap();
        assert_eq!((same.worse, same.differing_counts), (0, 0));
        assert!(same.lines[0].ends_with("same"), "{:?}", same.lines);

        let worse = compare(&record(100.0, 5000.0), &record(150.0, 5001.0)).unwrap();
        assert_eq!((worse.worse, worse.differing_counts), (1, 1));
        assert!(worse
            .lines
            .iter()
            .any(|l| l.contains("core.steps") && l.contains("COUNT DIFFERS")));
        // a timing that is not an exact count is never flagged
        assert!(!worse.lines.iter().any(|l| l.contains("core.run_ms")));

        let other = Json::obj([(
            "workloads",
            Json::obj([(
                "explore_fig1",
                Json::obj([("end_to_end", Json::Obj(Vec::new()))]),
            )]),
        )]);
        assert!(compare(&record(1.0, 1.0), &other).is_err());
        assert!(compare(&Json::Null, &record(1.0, 1.0)).is_err());
    }
}
