//! Golden flight-record round trip on C_8: record an oracle run with the
//! [`FlightRecorder`], decode the bytes, and re-encode them byte-identically.
//! The schedule is the deterministic ring rotation (every vertex forwards
//! the message it just learned to its clockwise neighbour), so the capture
//! is stable across runs and the assertions below are golden values.

use gossip_graph::GraphBuilder;
use gossip_model::{identity_origins, CommModel, Schedule, Simulator, Transmission};
use gossip_telemetry::flight::{FlightHeader, FlightLog, FlightRecord, FlightRecorder};

const N: usize = 8;

fn ring() -> gossip_graph::Graph {
    let mut b = GraphBuilder::new(N);
    for v in 0..N {
        b.add_edge_unchecked(v, (v + 1) % N).unwrap();
    }
    b.build()
}

/// Round `t`: vertex `v` multicasts message `(v - t) mod 8` — the one it
/// received last round — to `(v + 1) mod 8`. Seven rounds complete gossip.
fn rotation_schedule() -> Schedule {
    let mut s = Schedule::new(N);
    for t in 0..N - 1 {
        for v in 0..N {
            let m = ((v + N - t) % N) as u32;
            s.add_transmission(t, Transmission::new(m, v, vec![(v + 1) % N]));
        }
    }
    s.trim();
    s
}

fn header() -> FlightHeader {
    FlightHeader {
        n: N as u32,
        n_msgs: N as u32,
        radius: 4,
        engine: "oracle".to_string(),
        graph_digest: 0xc8c8,
        schedule_digest: 0x5eed,
        fault_digest: 0,
        origins: (0..N as u32).collect(),
    }
}

#[test]
fn c8_capture_roundtrips_byte_identically() {
    let g = ring();
    let schedule = rotation_schedule();
    let rec = FlightRecorder::new(header());
    let mut sim = Simulator::new(&g, CommModel::Multicast, &identity_origins(N)).unwrap();
    let outcome = sim.run_recorded(&schedule, &rec).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.rounds_executed, N - 1);

    let bytes = rec.finish();
    assert_eq!(&bytes[..4], b"GFR1", "magic prefix");

    let log = FlightLog::decode(&bytes).unwrap();
    assert_eq!(log.encode(), bytes, "decode -> encode must be the identity");

    // Golden shape: 8 senders per round for 7 rounds, no losses, and the
    // knowledge curve ends at all 64 (vertex, message) pairs.
    assert_eq!(log.header.n, N as u32);
    assert_eq!(log.header.engine, "oracle");
    assert_eq!(log.rounds(), N - 1);
    assert_eq!(log.txs().len(), N * (N - 1));
    assert!(log.losses().is_empty());
    let curve = log.known_pairs_curve();
    assert_eq!(curve.first(), Some(&(0, 2 * N as u64)));
    assert_eq!(curve.last(), Some(&((N - 2) as u32, (N * N) as u64)));
}

#[test]
fn c8_capture_decodes_to_the_recorded_transmissions() {
    let g = ring();
    let schedule = rotation_schedule();
    let rec = FlightRecorder::new(header());
    let mut sim = Simulator::new(&g, CommModel::Multicast, &identity_origins(N)).unwrap();
    sim.run_recorded(&schedule, &rec).unwrap();

    let log = FlightLog::decode(&rec.finish()).unwrap();
    // Every scheduled transmission appears with its exact round, message,
    // sender, and destination set.
    let txs = log.txs();
    for (t, round) in schedule.rounds.iter().enumerate() {
        for tx in &round.transmissions {
            let want: Vec<u32> = tx.to.iter().map(|&d| d as u32).collect();
            assert!(
                txs.iter().any(|ft| ft.round == t as u32
                    && ft.msg == tx.msg
                    && ft.from == tx.from as u32
                    && ft.dests == want.as_slice()),
                "transmission round {t} msg {} from {} missing from capture",
                tx.msg,
                tx.from
            );
        }
    }
    // A second decode of the re-encoded bytes yields the same records.
    let again = FlightLog::decode(&log.encode()).unwrap();
    let records: Vec<&FlightRecord> = log.records.iter().collect();
    let records2: Vec<&FlightRecord> = again.records.iter().collect();
    assert_eq!(records, records2);
}

/// The `.gfr` code tables live in telemetry, but the labels they encode
/// come from the model (`LossCause::label`, `ChurnOp::label`) and the
/// watchdog (rule names, `Severity::label`). A label missing from its
/// table would silently encode as code 255 ("unknown"); this pins that
/// every label any of them produces has a real code that decodes back to
/// the same label — through a capture, as a run writes them.
#[test]
fn every_produced_label_has_a_flight_code() {
    use gossip_model::{ChurnOp, LossCause};
    use gossip_telemetry::flight::{
        alert_rule_code, alert_rule_label, alert_severity_code, alert_severity_label, cause_code,
        cause_label, churn_op_code, churn_op_label,
    };
    use gossip_telemetry::watch::Severity;
    use gossip_telemetry::{AlertEngine, Recorder, RuleSet, RunEvent, CHURN_INVALIDATED};

    fn roundtrips(label: &str, code: fn(&str) -> u8, decode: fn(u8) -> &'static str) {
        let c = code(label);
        assert_ne!(c, 255, "label {label:?} has no flight code");
        assert_eq!(decode(c), label, "code {c} decodes to another label");
    }

    // The arrays are exhaustive: a new variant fails to compile the match
    // until it is listed here too.
    let causes = [
        LossCause::Sampled,
        LossCause::LinkDown,
        LossCause::SenderCrashed,
        LossCause::ReceiverCrashed,
        LossCause::NotHeld,
    ];
    for c in causes {
        match c {
            LossCause::Sampled
            | LossCause::LinkDown
            | LossCause::SenderCrashed
            | LossCause::ReceiverCrashed
            | LossCause::NotHeld => roundtrips(c.label(), cause_code, cause_label),
        }
    }
    roundtrips(CHURN_INVALIDATED, cause_code, cause_label);
    let ops = [
        ChurnOp::EdgeAdd,
        ChurnOp::EdgeRemove,
        ChurnOp::NodeLeave,
        ChurnOp::NodeJoin,
        ChurnOp::LinkFlap,
    ];
    for op in ops {
        match op {
            ChurnOp::EdgeAdd
            | ChurnOp::EdgeRemove
            | ChurnOp::NodeLeave
            | ChurnOp::NodeJoin
            | ChurnOp::LinkFlap => roundtrips(op.label(), churn_op_code, churn_op_label),
        }
    }
    for s in [Severity::Info, Severity::Warn, Severity::Critical] {
        match s {
            Severity::Info | Severity::Warn | Severity::Critical => {
                roundtrips(s.label(), alert_severity_code, alert_severity_label)
            }
        }
    }

    // Rule names exist only where rules fire, so fire every rule once:
    // the default set's rules and severities, with thresholds every one of
    // them trips on this short scripted stream.
    let rules: RuleSet = r#"{"rules": [
        {"rule": "stall", "budget_ms": 0},
        {"rule": "flatline", "rounds": 1},
        {"rule": "bound"},
        {"rule": "loss_spike", "rate": 0, "min_count": 1},
        {"rule": "epoch_budget", "fraction": 1},
        {"rule": "churn_storm", "invalidated": 1}
    ]}"#
    .parse()
    .unwrap();
    let rec = FlightRecorder::new(header());
    let engine = AlertEngine::new(&rec, rules)
        .bound(2)
        .total_pairs(100)
        .max_epochs(1);
    engine.event(RunEvent::EpochStart {
        epoch: 1,
        start_round: 0,
    });
    std::thread::sleep(std::time::Duration::from_millis(2));
    for cause in [LossCause::Sampled.label(), CHURN_INVALIDATED] {
        engine.event(RunEvent::Loss {
            round: 0,
            msg: 0,
            from: 0,
            to: 1,
            cause,
        });
    }
    for round in 0..2 {
        engine.event(RunEvent::RoundEnd {
            round,
            delivered: 0,
            lost: Some(2),
            known_pairs: 5,
        });
    }
    let fired = engine.sink().alerts();
    let mut names: Vec<&str> = fired.iter().map(|a| a.rule.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "bound",
            "churn_storm",
            "epoch_budget",
            "flatline",
            "loss_spike",
            "stall"
        ],
        "every rule fires once"
    );
    for a in &fired {
        roundtrips(&a.rule, alert_rule_code, alert_rule_label);
        roundtrips(
            a.severity.label(),
            alert_severity_code,
            alert_severity_label,
        );
    }
    let log = FlightLog::decode(&rec.finish()).unwrap();
    let captured: Vec<(&str, &str)> = log
        .alerts()
        .iter()
        .map(|a| (alert_rule_label(a.rule), alert_severity_label(a.severity)))
        .collect();
    let want: Vec<(&str, &str)> = fired
        .iter()
        .map(|a| (a.rule.as_str(), a.severity.label()))
        .collect();
    assert_eq!(captured, want);
    let losses: Vec<&str> = log.losses().iter().map(|l| cause_label(l.cause)).collect();
    assert_eq!(losses, ["sampled", CHURN_INVALIDATED]);
}
