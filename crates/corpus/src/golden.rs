//! The one golden comparison: a fresh corpus run against the committed
//! `CORPUS_stats.json`.
//!
//! [`check`] is the gate: timing stripped, only a byte-identical rendering
//! passes.  A mismatch is explained by [`diff`], which walks both parsed
//! documents and names every differing field by path, e.g.
//! `entries[mult4x4].scenarios[mult4x4/rand16/mix].glitch_pulses: golden 4, fresh 9`.
//! Numbers compare by their bits, so one ULP of energy is a difference.
//! Array elements are named by their `name` or `label` member, so a
//! missing or extra entry or scenario is reported by name.

use crate::json::{self, Value};
use crate::stats::CorpusStats;

/// Compares a fresh corpus run against the golden document text.  On a
/// mismatch the error lists every differing field, one per line, or says
/// that only the formatting drifted (which fails all the same).
pub fn check(golden: &str, mut fresh: CorpusStats) -> Result<(), String> {
    fresh.strip_timing();
    let rendered = fresh.to_json();
    if rendered == golden {
        return Ok(());
    }
    let golden = json::parse(golden).map_err(|error| format!("golden is not JSON: {error}"))?;
    let fresh = json::parse(&rendered).expect("CorpusStats::to_json renders valid JSON");
    let fields = diff("", &golden, &fresh);
    Err(if fields.is_empty() {
        "formatting drift: no value differs but the bytes do (spacing, number spelling, \
         or member or element order)"
            .to_string()
    } else {
        fields.join("\n")
    })
}

/// Every field where `fresh` differs from `golden`, as
/// `path: golden X, fresh Y` lines with paths rooted at `path`.
pub fn diff(path: &str, golden: &Value, fresh: &Value) -> Vec<String> {
    let mut out = Vec::new();
    walk(path, Some(golden), Some(fresh), &mut out);
    out
}

fn walk(path: &str, golden: Option<&Value>, fresh: Option<&Value>, out: &mut Vec<String>) {
    match (children(path, golden), children(path, fresh)) {
        (Some(golden_children), Some(fresh_children)) => {
            for (child, value) in &golden_children {
                walk(child, Some(value), find(&fresh_children, child), out);
            }
            for (child, value) in &fresh_children {
                if find(&golden_children, child).is_none() {
                    walk(child, None, Some(value), out);
                }
            }
        }
        _ => {
            let same = match (golden, fresh) {
                (Some(Value::Number(a)), Some(Value::Number(b))) => a.to_bits() == b.to_bits(),
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            if !same {
                out.push(format!(
                    "{path}: golden {}, fresh {}",
                    render(golden),
                    render(fresh)
                ));
            }
        }
    }
}

fn find<'a>(children: &[(String, &'a Value)], wanted: &str) -> Option<&'a Value> {
    let found = children.iter().find(|(child, _)| child == wanted);
    found.map(|&(_, value)| value)
}

/// The members of an object (`path.key`) or the elements of an array
/// (`path[name]`, named by their `name` or `label` member, else by index)
/// with their paths; `None` for a scalar or a missing value.
fn children<'a>(path: &str, value: Option<&'a Value>) -> Option<Vec<(String, &'a Value)>> {
    match value? {
        Value::Object(members) => Some(
            members
                .iter()
                .map(|(key, value)| match path {
                    "" => (key.clone(), value),
                    _ => (format!("{path}.{key}"), value),
                })
                .collect(),
        ),
        Value::Array(items) => Some(
            items
                .iter()
                .enumerate()
                .map(|(index, item)| {
                    let name = item.get("name").or_else(|| item.get("label"));
                    let name = name.and_then(Value::as_str).map(str::to_string);
                    let name = name.unwrap_or_else(|| index.to_string());
                    (format!("{path}[{name}]"), item)
                })
                .collect(),
        ),
        _ => None,
    }
}

fn render(value: Option<&Value>) -> String {
    match value {
        None => "missing".to_string(),
        Some(Value::Null) => "null".to_string(),
        Some(Value::Bool(flag)) => flag.to_string(),
        Some(Value::Number(n)) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{n}"),
        Some(Value::Number(n)) => json::number(*n),
        Some(Value::String(text)) => json::string(text),
        Some(Value::Array(_) | Value::Object(_)) => "present".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use halotis_sim::SimulationStats;

    use super::*;
    use crate::stats::{EntryRecord, ScenarioRecord};

    fn sample() -> CorpusStats {
        let scenario = |model: &str, glitch_pulses, events_per_cycle| ScenarioRecord {
            label: format!("e/s/{}", model.to_lowercase()),
            model: model.to_string(),
            stats: SimulationStats {
                events_processed: 100,
                queue_high_water: 17,
                ..SimulationStats::default()
            },
            events_per_cycle,
            glitch_pulses,
            energy_joules: 1.25e-13,
            wall_time_ns: None,
        };
        CorpusStats {
            entries: vec![EntryRecord {
                name: "e".into(),
                circuit: "c".into(),
                gates: 6,
                nets: 11,
                suite: "s".into(),
                scenarios: vec![
                    scenario("DDM", 3, Some(14.25)),
                    scenario("CDM", 5, None),
                    scenario("MIX", 4, Some(14.25)),
                ],
                wall_time_ns: None,
            }],
        }
    }

    #[test]
    fn timing_only_differences_pass() {
        let mut timed = sample();
        timed.entries[0].wall_time_ns = Some(123_456);
        timed.entries[0].scenarios[0].wall_time_ns = Some(7890);
        timed.entries[0].scenarios[2].wall_time_ns = Some(4242);
        assert_eq!(check(&sample().to_json(), timed), Ok(()));
    }

    /// The cases of the retired Python gate's self-test, one row each: every
    /// drift fails with a line naming the drifted field and both values.
    #[test]
    fn every_value_drift_fails_with_its_path() {
        type Mutation = fn(&mut Vec<ScenarioRecord>);
        let cases: [(&str, Mutation); 8] = [
            ("ddm].glitch_pulses: golden 3, fresh 4", |s| {
                s[0].glitch_pulses = 4
            }),
            (
                "ddm].energy_joules: golden 1.25e-13, fresh 1.2500000000000002e-13",
                |s| s[0].energy_joules = f64::from_bits(s[0].energy_joules.to_bits() + 1),
            ),
            ("mix].glitch_pulses: golden 4, fresh 9", |s| {
                s[2].glitch_pulses = 9
            }),
            ("mix].model: golden \"MIX\", fresh \"DDM+overrides\"", |s| {
                s[2].model = "DDM+overrides".into()
            }),
            ("mix]: golden present, fresh missing", |s| {
                s.remove(2);
            }),
            ("ddm].queue_high_water: golden 17, fresh 18", |s| {
                s[0].stats.queue_high_water = 18
            }),
            ("ddm].events_per_cycle: golden 1.425e1, fresh 1.45e1", |s| {
                s[0].events_per_cycle = Some(14.5)
            }),
            ("mix].events_per_cycle: golden 1.425e1, fresh null", |s| {
                s[2].events_per_cycle = None
            }),
        ];
        for (line, mutate) in cases {
            let mut fresh = sample();
            mutate(&mut fresh.entries[0].scenarios);
            let error = check(&sample().to_json(), fresh).expect_err(line);
            let want = format!("entries[e].scenarios[e/s/{line}");
            assert!(error.lines().any(|l| l == want), "{want} not in:\n{error}");
        }
    }

    #[test]
    fn a_byte_difference_without_a_value_difference_still_fails() {
        let respaced = sample().to_json().replace("\"gates\": 6", "\"gates\":  6");
        let mut reordered = sample();
        reordered.entries[0].scenarios.swap(0, 1);
        for error in [
            check(&respaced, sample()),
            check(&sample().to_json(), reordered),
        ] {
            assert!(error.unwrap_err().starts_with("formatting drift"));
        }
        assert!(check("{", sample())
            .unwrap_err()
            .starts_with("golden is not JSON"));
    }
}
