//! What `BENCHMARK.json` declares, read from the copy compiled into the
//! binary: the run length, the workloads, and each metric's unit,
//! direction and bound.

use sjc_bench::baseline::{parse, Value};

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

impl MetricDecl {
    /// How much worse `b` is than `a`, as a share of `a`: positive when
    /// the metric moved against its direction.
    pub fn worsening(&self, a: f64, b: f64) -> f64 {
        if self.higher_is_better {
            (a - b) / a
        } else {
            (b - a) / a
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("`{key}` is not a string")),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Arr(items)) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}

fn metrics(v: &Value, key: &str) -> Result<Vec<MetricDecl>, String> {
    array(v, key)?
        .iter()
        .map(|m| {
            let better = string(m, "better")?;
            Ok(MetricDecl {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` is `{other}`")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

pub fn parse_decl(text: &str) -> Result<Decl, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    Ok(Decl {
        run_seconds: v
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("`run_seconds` is not a whole number")?,
        workloads: array(&v, "workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics(&v, "end_to_end")?,
        per_layer: metrics(&v, "per_layer")?,
    })
}

/// The compiled-in declaration. A malformed file is a build-time mistake
/// the package's own tests catch, so this panics.
pub fn decl() -> Decl {
    parse_decl(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layers, workloads, E2E};

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// Every name the binary can emit is declared, and the other way round.
    #[test]
    fn declared_and_emitted_names_are_the_same() {
        let d = decl();
        assert_eq!(d.workloads, workloads::NAMES);
        let pairs = |ms: &[MetricDecl]| {
            ms.iter().map(|m| (m.name.clone(), m.unit.clone())).collect::<Vec<_>>()
        };
        let own = |ms: &[(&str, &str)]| {
            ms.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
        };
        assert_eq!(pairs(&d.end_to_end), own(&E2E));
        assert_eq!(pairs(&d.per_layer), own(&layers::METRICS));
        for name in
            d.workloads.iter().chain(d.end_to_end.iter().chain(&d.per_layer).map(|m| &m.name))
        {
            assert!(well_formed(name), "{name}");
        }
        let mut names: Vec<&String> =
            d.end_to_end.iter().chain(&d.per_layer).map(|m| &m.name).collect();
        names.extend(&d.workloads);
        names.sort();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "a name is used twice");
    }

    #[test]
    fn bounds_and_run_length_fit_the_contract() {
        let d = decl();
        assert!((1..=60).contains(&d.run_seconds));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        assert!(!setup.higher_is_better && setup.unit == "s");
        let widest = d.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "set-up time has the largest bound");
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = MetricDecl {
            name: "t".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        let higher = MetricDecl { higher_is_better: true, ..lower.clone() };
        assert!((lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((higher.worsening(100.0, 110.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn malformed_declarations_are_errors() {
        assert!(parse_decl("{").is_err());
        assert!(parse_decl(r#"{"run_seconds": 1.5}"#).is_err());
        assert!(parse_decl(r#"{"run_seconds": 5, "workloads": [{"name": 3}]}"#).is_err());
    }
}
