//! Tiny-size smoke test of every workload: each run must pass every check
//! and print exactly the metrics `BENCHMARK.json` names, each with its unit.

use gossip_telemetry::Value;
use std::process::Command;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one tiny workload and returns its environment and result lines.
fn run(workload: &str, trace: bool, trace_out: &str) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--tiny",
            "--trace-out",
            trace_out,
        ])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: missing output lines:\n{stdout}"
    );
    let parse = |l: &str| serde_json::from_str::<Value>(l).expect("a JSON line");
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn check_workload(workload: &str) {
    let spec = spec();
    assert!(
        spec.get("workloads")
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .any(|w| w.get("name").and_then(Value::as_str) == Some(workload)),
        "{workload} is not in BENCHMARK.json"
    );
    let dir = env!("CARGO_TARGET_TMPDIR");
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let trace_out = format!("{dir}/smoke-{workload}.json");
        let (env, result) = run(workload, trace, &trace_out);
        let env = env.get("env").expect("an env line");
        for field in ["nproc", "rayon_threads", "l3_bytes", "seed", "ops_timed"] {
            assert!(
                env.get(field).and_then(Value::as_u64).is_some(),
                "env lacks {field}"
            );
        }
        assert_eq!(
            result.get("correct").and_then(Value::as_bool),
            Some(true),
            "{workload}: {result:?}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 2);
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{name} has no value"
                );
                (
                    name.clone(),
                    m.get("unit")
                        .and_then(Value::as_str)
                        .expect("a unit")
                        .to_string(),
                )
            })
            .collect();
        assert_eq!(printed, listed(&spec, key), "{workload} trace={trace}");
        if trace {
            let spans = std::fs::read_to_string(&trace_out).expect("spans written");
            assert!(
                spans.contains("\"name\":\"op\""),
                "no op spans in {trace_out}"
            );
        }
    }
}

#[test]
fn plan_gnp8k_smoke() {
    check_workload("plan-gnp8k");
}

#[test]
fn tree_gnp32k_smoke() {
    check_workload("tree-gnp32k");
}

#[test]
fn recover_gnp256_smoke() {
    check_workload("recover-gnp256");
}
