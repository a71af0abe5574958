//! Self-test at a tiny population: the catalogue agrees with
//! `BENCHMARK.json`, every workload emits every metric of its mode with its
//! unit and passes its checks, the two ingest tiers drain identical
//! estimates, and a corrupted reference makes every workload fail.

use crate::json::{self, Value};
use crate::report::{END_TO_END, PER_LAYER};
use crate::{parse_args, run, RunConfig, WORKLOADS};

fn tiny(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace,
        population: 20_000,
        users: 1_500,
        rss_probes: 0,
        rss_probe: false,
        flip_reference: false,
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(
        bench.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = bench["workloads"]
        .as_arr()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(names_and_units(&bench["end_to_end"]), owned(END_TO_END));
    assert_eq!(names_and_units(&bench["per_layer"]), owned(PER_LAYER));
    for metric in bench["end_to_end"].as_arr() {
        let Some(Value::Num(bound)) = metric.get("bound") else {
            panic!("{metric:?} has no numeric bound");
        };
        assert!(*bound > 0.0 && *bound <= 0.25, "{metric:?}");
    }
}

/// Runs `cfg` as `main` does and parses its result line.
fn run_and_parse(cfg: &RunConfig) -> (Value, Vec<String>) {
    let mut out = run(cfg);
    let line = out.result_line(cfg.trace);
    (
        json::parse(&line).expect("the result line is JSON"),
        out.errors,
    )
}

#[test]
fn every_workload_emits_its_catalogue_and_passes_its_checks() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (line, errors) = run_and_parse(&tiny(workload, trace));
            let context = format!("{workload} trace={trace}: {errors:?}");
            assert_eq!(
                line.keys(),
                ["correct", "attempted", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(line["correct"], Value::Bool(true), "{context}");
            assert_eq!(line["failed"], Value::Num(0.0), "{context}");
            assert!(
                matches!(line["attempted"], Value::Num(n) if n >= 1.0),
                "{context}"
            );
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            let metrics = &line["metrics"];
            assert_eq!(
                metrics.keys(),
                catalogue.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
                "{context}"
            );
            for &(name, unit) in catalogue {
                let metric = &metrics[name];
                assert_eq!(metric["unit"].as_str(), Some(unit), "{context} {name}");
                let Value::Num(value) = metric["value"] else {
                    panic!("{context}: {name} is not a number");
                };
                assert!(value.is_finite(), "{context}: {name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{context}: end-to-end {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn ingest_tiers_drain_identical_estimates() {
    let local = run(&tiny("ingest-local", false));
    let wire = run(&tiny("ingest-wire", false));
    assert!(local.correct() && wire.correct());
    assert_eq!(local.digest, wire.digest);
    let other_seed = run(&RunConfig {
        seed: 4,
        ..tiny("ingest-local", false)
    });
    assert_ne!(
        local.digest, other_seed.digest,
        "the seed must reach the inputs"
    );
}

#[test]
fn a_wrong_reference_trips_the_checks() {
    for workload in WORKLOADS {
        let cfg = RunConfig {
            flip_reference: true,
            ..tiny(workload, false)
        };
        let (line, errors) = run_and_parse(&cfg);
        assert_eq!(line["correct"], Value::Bool(false), "{workload}");
        assert!(!errors.is_empty(), "{workload}");
    }
}

#[test]
fn arguments_are_validated() {
    let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let cfg = parse_args(args(
        "--workload ingest-wire --seed 9 --seconds 20 --trace 1",
    ))
    .unwrap();
    assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 20.0, true));
    for bad in [
        "--workload nope",
        "--workload ingest-local --trace 2",
        "--workload ingest-local --seed x",
        "--workload ingest-local --seconds -1",
        "--workload ingest-local --bogus 1",
        "--seed 1",
    ] {
        assert!(parse_args(args(bad)).is_err(), "{bad}");
    }
}
