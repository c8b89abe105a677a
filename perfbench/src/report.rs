//! Result files and their comparison.
//!
//! A report holds, per workload, each end-to-end metric's median,
//! quartiles and sample count, and each per-layer value. `compare`
//! judges two reports against the regression bounds of
//! `BENCHMARK.json`, which is compiled in.

use crate::json::{self, obj, Json};
use crate::measure::{Measured, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::fmt::Write as _;

/// The benchmark's definition file.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// An end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the end-to-end metric definitions out of `BENCHMARK.json`.
///
/// # Errors
///
/// Describes what is missing or malformed.
pub fn end_to_end_specs(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = json::parse(text)?;
    let metrics = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no `end_to_end`")?
        .as_array();
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            let better = field("better")?.as_str().unwrap_or_default();
            if better != "lower" && better != "higher" {
                return Err(format!("`better` must be lower or higher, not {better:?}"));
            }
            Ok(MetricSpec {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                unit: field("unit")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: better == "lower",
                bound: field("bound")?.as_f64().ok_or("`bound` is not a number")?,
            })
        })
        .collect()
}

fn summary_json(unit: &str, s: &Summary) -> Json {
    obj([
        ("unit", Json::Str(unit.to_string())),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
    ])
}

fn summary_of(j: &Json) -> Option<Summary> {
    let f = |k: &str| j.get(k).and_then(Json::as_f64);
    Some(Summary {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        n: f("n")? as usize,
    })
}

/// One workload's section of a report.
pub fn workload_json(m: &Measured) -> Json {
    let e2e = END_TO_END
        .iter()
        .zip(&m.end_to_end)
        .map(|((name, unit), s)| (*name, summary_json(unit, s)));
    let layer = PER_LAYER.iter().zip(&m.per_layer).map(|((name, unit), v)| {
        (
            *name,
            obj([
                ("unit", Json::Str(unit.to_string())),
                ("value", Json::Num(*v)),
            ]),
        )
    });
    obj([
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        (
            "fail_frac",
            Json::Num(m.failed as f64 / m.attempted.max(1) as f64),
        ),
        ("correct", Json::Bool(m.correct())),
        (
            "first_failure",
            m.first_failure.clone().map_or(Json::Null, Json::Str),
        ),
        ("end_to_end", obj(e2e)),
        ("per_layer", obj(layer)),
    ])
}

/// The one-line result of a single-workload run: the end-to-end
/// medians, or with `traced` the per-layer values.
pub fn result_line(m: &Measured, traced: bool) -> Json {
    let metric = |unit: &str, v: f64| {
        obj([
            ("value", Json::Num(v)),
            ("unit", Json::Str(unit.to_string())),
        ])
    };
    let metrics: Vec<(&str, Json)> = if traced {
        PER_LAYER
            .iter()
            .zip(&m.per_layer)
            .map(|((k, u), v)| (*k, metric(u, *v)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&m.end_to_end)
            .map(|((k, u), s)| (*k, metric(u, s.median)))
            .collect()
    };
    obj([
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", obj(metrics)),
    ])
}

/// How a metric moved between two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The base's own interquartile spread exceeds the bound, so a move
    /// within that spread cannot be told from noise.
    Unresolved,
}

/// Judges `new_median` against the base summary under `spec`'s bound.
pub fn verdict(spec: &MetricSpec, base: &Summary, new_median: f64) -> Verdict {
    if base.spread() > spec.bound {
        return Verdict::Unresolved;
    }
    if base.median == 0.0 {
        return if new_median == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let rel = (new_median - base.median) / base.median.abs();
    let worse_by = if spec.lower_is_better { rel } else { -rel };
    if worse_by > spec.bound {
        Verdict::Worse
    } else if worse_by < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn pct(base: f64, new: f64) -> String {
    if base == 0.0 {
        if new == 0.0 {
            "0.0%".into()
        } else {
            "n/a".into()
        }
    } else {
        format!("{:+.1}%", (new - base) / base.abs() * 100.0)
    }
}

/// Compares two reports: one row per workload and end-to-end metric,
/// then a per-layer table. Returns the text and whether any verdict is
/// `Worse`.
pub fn compare(specs: &[MetricSpec], base: &Json, new: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let empty = Json::Null;
    let base_w = base.get("workloads").unwrap_or(&empty);
    let new_w = new.get("workloads").unwrap_or(&empty);
    let _ = writeln!(
        out,
        "{:<15} {:<17} {:>26} {:>26} {:>8}  verdict (bound)",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change"
    );
    for (wname, b) in base_w.entries() {
        let Some(n) = new_w.get(wname) else {
            let _ = writeln!(out, "{wname:<15} missing from the new report");
            continue;
        };
        for spec in specs {
            let pick = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|e| e.get(&spec.name))
                    .and_then(summary_of)
            };
            let (Some(bs), Some(ns)) = (pick(b), pick(n)) else {
                let _ = writeln!(out, "{wname:<15} {:<17} missing", spec.name);
                continue;
            };
            let v = verdict(spec, &bs, ns.median);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{wname:<15} {:<17} {:>26} {:>26} {:>8}  {v:?} ({:.0}%)",
                spec.name,
                format!("{:.4e} [{:.3e}, {:.3e}]", bs.median, bs.q1, bs.q3),
                format!("{:.4e} [{:.3e}, {:.3e}]", ns.median, ns.q1, ns.q3),
                pct(bs.median, ns.median),
                spec.bound * 100.0
            );
        }
    }
    let _ = writeln!(out, "\nper-layer");
    let _ = writeln!(
        out,
        "{:<15} {:<36} {:>14} {:>14} {:>8}",
        "workload", "metric", "base", "new", "change"
    );
    for (wname, b) in base_w.entries() {
        let Some(n) = new_w.get(wname) else { continue };
        let bl = b.get("per_layer").unwrap_or(&empty);
        let nl = n.get("per_layer").unwrap_or(&empty);
        for (k, bv) in bl.entries() {
            let value = |j: &Json| j.get("value").and_then(Json::as_f64);
            let (Some(x), Some(y)) = (value(bv), nl.get(k).and_then(value)) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{wname:<15} {k:<36} {x:>14.6e} {y:>14.6e} {:>8}",
                pct(x, y)
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool) -> MetricSpec {
        MetricSpec {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: 0.10,
        }
    }

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let base = s(1.0, 0.99, 1.01);
        assert_eq!(verdict(&spec(true), &base, 1.05), Verdict::Same);
        assert_eq!(verdict(&spec(true), &base, 1.2), Verdict::Worse);
        assert_eq!(verdict(&spec(true), &base, 0.8), Verdict::Better);
        assert_eq!(verdict(&spec(false), &base, 1.2), Verdict::Better);
        assert_eq!(verdict(&spec(false), &base, 0.8), Verdict::Worse);
    }

    #[test]
    fn wide_base_spread_is_unresolved() {
        let base = s(1.0, 0.9, 1.15);
        assert_eq!(verdict(&spec(true), &base, 2.0), Verdict::Unresolved);
        assert_eq!(verdict(&spec(true), &base, 1.0), Verdict::Unresolved);
    }

    #[test]
    fn benchmark_json_defines_what_the_benchmark_emits() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let specs = end_to_end_specs(BENCHMARK_JSON).unwrap();
        let e2e: Vec<(&str, &str)> = specs
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layer: Vec<(&str, &str)> = doc
            .get("per_layer")
            .unwrap()
            .as_array()
            .iter()
            .map(|m| {
                let f = |k| m.get(k).and_then(Json::as_str).unwrap();
                (f("name"), f("unit"))
            })
            .collect();
        assert_eq!(layer, PER_LAYER);
        let setup = specs.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(specs
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn compare_flags_a_regression_and_reads_its_own_reports() {
        let report = |wall: f64| {
            obj([(
                "workloads",
                obj([(
                    "vorbis_sw",
                    obj([
                        (
                            "end_to_end",
                            obj([(
                                "wall_s",
                                summary_json("s", &s(wall, wall * 0.99, wall * 1.01)),
                            )]),
                        ),
                        (
                            "per_layer",
                            obj([("core.elab_ns", obj([("value", Json::Num(5.0))]))]),
                        ),
                    ]),
                )]),
            )])
        };
        let base = json::parse(&report(1.0).to_string()).unwrap();
        let (text, worse) = compare(&[spec(true)], &base, &report(1.02));
        assert!(!worse, "{text}");
        assert!(text.contains("Same") && text.contains("core.elab_ns"));
        let (text, worse) = compare(&[spec(true)], &base, &report(1.3));
        assert!(worse && text.contains("Worse"), "{text}");
    }
}
