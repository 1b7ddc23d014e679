//! Smoke test: a tiny run of every workload, untraced and traced, must
//! pass every correctness check and report every metric `BENCHMARK.json`
//! names, each finite. Run with `cargo test --release` from this
//! directory.

use std::time::Duration;

use compadres_perfbench::{run, END_TO_END, PER_LAYER, WORKLOADS};

/// The `"name"` values of the objects in the JSON array under `key`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name ends")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_harness() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(
        names_under(&json, "workloads"),
        WORKLOADS.map(String::from).to_vec()
    );
    assert_eq!(names_under(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(names_under(&json, "per_layer"), names(&PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn every_workload_passes_and_reports_every_metric() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let report = run(workload, 7, Duration::from_millis(1500), traced)
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(
                report.correct(),
                "{workload} (traced {traced}): {} of {} failed; {:?}",
                report.failed,
                report.attempted,
                report.problems
            );
            assert!(report.attempted > 0, "{workload}: nothing attempted");
            let expected: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            for (name, _) in expected {
                let v = report.metrics.get(*name).copied().unwrap_or(f64::NAN);
                assert!(v.is_finite(), "{workload}: {name} = {v}");
            }
        }
    }
}

#[test]
fn traced_counts_are_exact_per_request() {
    let report = run("fig11_small", 3, Duration::from_millis(800), true).expect("traced run");
    // One client and one server request-processing component per request,
    // two client and three server handler hops.
    assert_eq!(report.metrics["core.activations_per_req"], 2.0);
    assert_eq!(report.metrics["core.hops_per_req"], 5.0);
}
