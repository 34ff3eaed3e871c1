//! `BENCHMARK.json` names exactly the workloads and metrics the benchmark
//! prints, in each mode.

use dex_perfbench::bench::{self, Options};
use dex_perfbench::workload::{Workload, WORKLOADS};

/// The `"name": "..."` values between `from` and `to` in the file.
fn names(text: &str, from: &str, to: Option<&str>) -> Vec<String> {
    let start = text.find(from).expect("section present");
    let end = to.map_or(text.len(), |t| text.find(t).expect("section present"));
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads = names(&text, "\"workloads\"", Some("\"end_to_end\""));
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);

    let small = Workload {
        name: "echo_flood_n7",
        flags: "--n 7 --t 1 --workload bernoulli:0.8 --underlying oracle",
        pool: 2,
        slots: 0,
    };
    for (trace, from, to) in [
        (false, "\"end_to_end\"", Some("\"per_layer\"")),
        (true, "\"per_layer\"", None),
    ] {
        let printed: Vec<String> = bench::run(
            &small,
            &Options {
                seed: 1,
                seconds: 0.01,
                trace,
            },
        )
        .metrics
        .into_iter()
        .map(|m| m.name)
        .collect();
        assert_eq!(printed, names(&text, from, to), "trace={trace}");
    }
}
