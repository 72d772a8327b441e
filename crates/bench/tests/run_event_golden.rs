//! Golden test of the full run-event stream of the two executors that
//! drive the kernel segment by segment: a lossy `ResilientExecutor` run
//! with one crash, and a `ChurnExecutor` run whose generated plan
//! invalidates in-flight deliveries.
//!
//! Both runs record through the production chain
//! `AlertEngine(Tee(MetricsRecorder, FlightRecorder))`, so one test pins
//! every sink at once: the JSONL event lines (wall-clock fields `t_ms`,
//! `elapsed_ns` and `done_ns` masked) and the `.gfr` capture bytes are
//! compared exactly against `tests/golden/`. Regenerate with
//! `BLESS=1 cargo test -p gossip-bench --test run_event_golden`.

use gossip_core::{ChurnExecutor, GossipPlanner, ResilientExecutor};
use gossip_model::{ChurnPlan, FaultPlan, FlatSchedule};
use gossip_telemetry::{
    AlertEngine, FlightHeader, FlightRecorder, MetricsRecorder, RuleSet, SharedBuffer, Tee, Value,
};
use gossip_workloads::petersen;

/// One JSONL line with the wall-clock fields removed, re-rendered as
/// compact JSON so field order and values are pinned exactly.
fn masked(line: &Value) -> String {
    let kept: Vec<(String, Value)> = line
        .as_object()
        .expect("event object")
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "t_ms" | "elapsed_ns" | "done_ns"))
        .cloned()
        .collect();
    serde_json::to_string(&Value::Object(kept)).expect("renders")
}

/// The recording chain every CLI run command builds: metrics and the
/// flight capture teed behind the watchdog.
struct Chain {
    events: SharedBuffer,
    metrics: MetricsRecorder,
    flight: FlightRecorder,
}

impl Chain {
    fn new(engine: &str, flat: &FlatSchedule, origins: &[usize], radius: u32) -> Chain {
        let events = SharedBuffer::new();
        Chain {
            metrics: MetricsRecorder::with_sink(Box::new(events.clone())),
            flight: FlightRecorder::new(FlightHeader {
                n: origins.len() as u32,
                n_msgs: origins.len() as u32,
                radius,
                engine: engine.to_string(),
                graph_digest: 0,
                schedule_digest: flat.digest(),
                fault_digest: 0,
                origins: origins.iter().map(|&o| o as u32).collect(),
            }),
            events,
        }
    }

    /// Compares the masked event lines and the capture bytes against the
    /// `name` goldens; returns the masked lines for further checks.
    fn check(&self, name: &str) -> Vec<String> {
        let lines: Vec<String> = self.events.lines().iter().map(masked).collect();
        let jsonl = lines.join("\n") + "\n";
        let gfr = self.flight.finish();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        let jsonl_path = format!("{dir}/{name}.jsonl");
        let gfr_path = format!("{dir}/{name}.gfr");
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(&jsonl_path, &jsonl).unwrap();
            std::fs::write(&gfr_path, &gfr).unwrap();
        }
        let want = std::fs::read_to_string(&jsonl_path)
            .expect("golden file missing — regenerate with BLESS=1");
        assert_eq!(
            jsonl, want,
            "{name}: event stream drifted from the golden; BLESS=1 to regenerate"
        );
        let want = std::fs::read(&gfr_path).expect("golden file missing — regenerate with BLESS=1");
        assert!(
            gfr == want,
            "{name}: flight capture drifted from the golden ({} vs {} bytes); BLESS=1 to regenerate",
            gfr.len(),
            want.len()
        );
        lines
    }
}

fn count(lines: &[String], event: &str) -> usize {
    let needle = format!("\"event\":\"{event}\"");
    lines.iter().filter(|l| l.contains(&needle)).count()
}

#[test]
fn lossy_resilient_run_with_a_crash_golden() {
    let g = petersen();
    let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
    let faults = FaultPlan::new(3).with_loss_rate(0.2).with_crash(4, 3);
    let flat = FlatSchedule::from_schedule(&plan.schedule);
    let chain = Chain::new("resilient", &flat, &plan.origin_of_message, plan.radius);
    let tee = Tee::new(&chain.metrics, &chain.flight);
    let engine = AlertEngine::new(&tee, RuleSet::default())
        .bound(plan.guarantee() as u64)
        .total_pairs((g.n() * plan.origin_of_message.len()) as u64)
        .max_epochs(8);
    let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
        .max_epochs(8)
        .recorder(&engine)
        .run()
        .unwrap();
    assert!(report.epochs.len() > 1, "the losses force repair epochs");
    assert!(report.lost_deliveries > 0);
    chain.metrics.flush();

    let lines = chain.check("resilient_crash");
    assert_eq!(count(&lines, "loss"), report.lost_deliveries);
    assert_eq!(count(&lines, "epoch_start"), report.epochs.len());
    assert_eq!(count(&lines, "round_start"), count(&lines, "round_end"));
    assert_eq!(count(&lines, "alert"), engine.sink().len());
}

#[test]
fn churn_run_with_invalidated_deliveries_golden() {
    let g = petersen();
    let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
    // The CLI's default aim: events land while entries are in flight.
    let horizon = plan.schedule.makespan().saturating_sub(2).max(1) as u32;
    let churn = ChurnPlan::generate(&g, 0.3, 0, horizon);
    let flat = FlatSchedule::from_schedule(&plan.schedule);
    let chain = Chain::new("churn", &flat, &plan.origin_of_message, plan.radius);
    let tee = Tee::new(&chain.metrics, &chain.flight);
    let engine = AlertEngine::new(&tee, RuleSet::default())
        .bound(plan.guarantee() as u64)
        .total_pairs((g.n() * plan.origin_of_message.len()) as u64)
        .max_epochs(8);
    let report = ChurnExecutor::new(&g, &churn)
        .max_epochs(8)
        .recorder(&engine)
        .run()
        .unwrap();
    assert!(report.deliveries_invalidated > 0, "{report:?}");
    chain.metrics.flush();

    let lines = chain.check("churn_petersen");
    let invalidated = lines
        .iter()
        .filter(|l| l.contains("\"cause\":\"churn_invalidated\""))
        .count();
    assert_eq!(invalidated, report.deliveries_invalidated);
    assert_eq!(count(&lines, "churn"), report.events_applied);
    assert_eq!(count(&lines, "round_start"), count(&lines, "round_end"));
    assert_eq!(count(&lines, "alert"), engine.sink().len());
}
