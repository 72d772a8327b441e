//! The run-event vocabulary: every structured event the workspace reports
//! through [`crate::Recorder::event`].
//!
//! [`RunEvent`] is closed — one variant per event kind, with typed
//! payloads — so a sink `match`es on variants instead of re-parsing
//! strings, and a renamed event or field is a compile error rather than a
//! silently dead alert rule or `.gfr` record. The wire form (event name,
//! field names, key order) lives only in [`RunEvent::name`] and
//! [`RunEvent::fields`], which both line encoders (the
//! [`crate::MetricsRecorder`] JSONL sink and the [`crate::LiveRegistry`]
//! NDJSON tap) render through.
//!
//! Loss causes, churn ops, alert rules and severities travel as the stable
//! labels the flight recorder's code tables hold
//! ([`crate::flight::CAUSE_LABELS`] and its siblings).

use crate::Value;

/// Loss-cause label of an in-flight delivery a topology change removed
/// before it ran (its edge died, or an endpoint left).
pub const CHURN_INVALIDATED: &str = "churn_invalidated";

/// One structured run event. Field names match the wire names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunEvent<'a> {
    /// The kernel is about to execute absolute round `round`.
    RoundStart {
        /// Absolute round.
        round: u64,
    },
    /// The kernel finished absolute round `round`.
    RoundEnd {
        /// Absolute round.
        round: u64,
        /// Deliveries that landed this round.
        delivered: u64,
        /// Deliveries suppressed this round; `Some` only in lossy runs.
        lost: Option<u64>,
        /// (processor, message) pairs known after the round.
        known_pairs: u64,
    },
    /// One suppressed delivery.
    Loss {
        /// Absolute round of the suppression.
        round: u64,
        /// Message id.
        msg: u64,
        /// Sending processor.
        from: u64,
        /// The destination that did not receive.
        to: u64,
        /// Cause label (a [`crate::flight::CAUSE_LABELS`] entry).
        cause: &'a str,
    },
    /// The oracle simulator's per-round probe.
    Round {
        /// Round index.
        round: u64,
        /// Transmissions sent.
        sent: u64,
        /// Deliveries made.
        deliveries: u64,
        /// Largest destination set.
        max_fanout: u64,
        /// Processors that received nothing.
        idle_receivers: u64,
        /// Fraction of all pairs known after the round.
        coverage: f64,
        /// (processor, message) pairs known after the round.
        known_pairs: u64,
    },
    /// A minimum-depth spanning tree was chosen.
    SpanningTree {
        /// BFS sweeps run.
        sweeps: u64,
        /// Root candidates pruned; `Some` only for the fast (pruning,
        /// multi-source) sweep, `None` for the sequential one.
        pruned: Option<u64>,
        /// Radius of the chosen tree.
        radius: u64,
        /// Root of the chosen tree.
        root: u64,
    },
    /// A repair epoch is about to execute.
    EpochStart {
        /// Epoch index (0 = the base schedule).
        epoch: u64,
        /// Absolute round the epoch starts at.
        start_round: u64,
    },
    /// A repair epoch finished.
    EpochEnd {
        /// Epoch index.
        epoch: u64,
        /// Absolute round the epoch started at.
        start_round: u64,
        /// Rounds executed.
        rounds: u64,
        /// Deliveries that landed.
        delivered: u64,
        /// Deliveries suppressed.
        lost: u64,
        /// Missing pairs among live processors afterwards.
        residual_after: u64,
    },
    /// One applied topology change.
    Churn {
        /// Absolute round the change fired at.
        round: u64,
        /// Op label (a [`crate::flight::CHURN_OP_LABELS`] entry).
        op: &'a str,
        /// First endpoint (the departing/joining node for node events).
        u: u64,
        /// Second endpoint (equal to `u` for node events).
        v: u64,
    },
    /// One thread of the threaded online executor finished.
    OnlineThread {
        /// The thread's vertex label.
        label: u64,
        /// The vertex it ran.
        vertex: u64,
        /// Multicasts it sent.
        sends: u64,
        /// Wall nanoseconds from the run start to the thread's finish.
        done_ns: u64,
    },
    /// A watchdog rule fired.
    Alert {
        /// Rule label (a [`crate::flight::ALERT_RULE_LABELS`] entry).
        rule: &'a str,
        /// The last completed round when the rule fired.
        round: u64,
        /// Severity label (a [`crate::flight::ALERT_SEVERITY_LABELS`]
        /// entry).
        severity: &'a str,
        /// Human-readable description.
        message: &'a str,
        /// The observed value that tripped the rule.
        value: f64,
        /// The configured threshold it tripped against.
        threshold: f64,
    },
    /// One completed span occurrence.
    Span {
        /// The `/`-joined span path.
        path: &'a str,
        /// Wall nanoseconds the span took.
        elapsed_ns: u64,
    },
}

impl RunEvent<'_> {
    /// The wire name (the `event` field of a rendered line).
    pub fn name(&self) -> &'static str {
        match self {
            RunEvent::RoundStart { .. } => "round_start",
            RunEvent::RoundEnd { .. } => "round_end",
            RunEvent::Loss { .. } => "loss",
            RunEvent::Round { .. } => "round",
            RunEvent::SpanningTree { .. } => "spanning_tree",
            RunEvent::EpochStart { .. } => "epoch_start",
            RunEvent::EpochEnd { .. } => "epoch_end",
            RunEvent::Churn { .. } => "churn",
            RunEvent::OnlineThread { .. } => "online_thread",
            RunEvent::Alert { .. } => "alert",
            RunEvent::Span { .. } => "span",
        }
    }

    /// The payload as `(wire key, value)` pairs, in wire order.
    pub fn fields(&self) -> Vec<(&'static str, Value)> {
        let u = Value::from_u64;
        let s = |x: &str| Value::String(x.to_string());
        match *self {
            RunEvent::RoundStart { round } => vec![("round", u(round))],
            RunEvent::RoundEnd {
                round,
                delivered,
                lost,
                known_pairs,
            } => {
                let mut fields = vec![("round", u(round)), ("delivered", u(delivered))];
                if let Some(lost) = lost {
                    fields.push(("lost", u(lost)));
                }
                fields.push(("known_pairs", u(known_pairs)));
                fields
            }
            RunEvent::Loss {
                round,
                msg,
                from,
                to,
                cause,
            } => vec![
                ("round", u(round)),
                ("msg", u(msg)),
                ("from", u(from)),
                ("to", u(to)),
                ("cause", s(cause)),
            ],
            RunEvent::Round {
                round,
                sent,
                deliveries,
                max_fanout,
                idle_receivers,
                coverage,
                known_pairs,
            } => vec![
                ("round", u(round)),
                ("sent", u(sent)),
                ("deliveries", u(deliveries)),
                ("max_fanout", u(max_fanout)),
                ("idle_receivers", u(idle_receivers)),
                ("coverage", Value::from_f64(coverage)),
                ("known_pairs", u(known_pairs)),
            ],
            RunEvent::SpanningTree {
                sweeps,
                pruned,
                radius,
                root,
            } => {
                let mode = if pruned.is_some() {
                    "fast"
                } else {
                    "sequential"
                };
                let mut fields = vec![("mode", s(mode)), ("sweeps", u(sweeps))];
                if let Some(pruned) = pruned {
                    fields.push(("pruned", u(pruned)));
                }
                fields.extend([("radius", u(radius)), ("root", u(root))]);
                fields
            }
            RunEvent::EpochStart { epoch, start_round } => {
                vec![("epoch", u(epoch)), ("start_round", u(start_round))]
            }
            RunEvent::EpochEnd {
                epoch,
                start_round,
                rounds,
                delivered,
                lost,
                residual_after,
            } => vec![
                ("epoch", u(epoch)),
                ("start_round", u(start_round)),
                ("rounds", u(rounds)),
                ("delivered", u(delivered)),
                ("lost", u(lost)),
                ("residual_after", u(residual_after)),
            ],
            RunEvent::Churn { round, op, u: a, v } => {
                vec![("round", u(round)), ("op", s(op)), ("u", u(a)), ("v", u(v))]
            }
            RunEvent::OnlineThread {
                label,
                vertex,
                sends,
                done_ns,
            } => vec![
                ("label", u(label)),
                ("vertex", u(vertex)),
                ("sends", u(sends)),
                ("done_ns", u(done_ns)),
            ],
            RunEvent::Alert {
                rule,
                round,
                severity,
                message,
                value,
                threshold,
            } => vec![
                ("rule", s(rule)),
                ("round", u(round)),
                ("severity", s(severity)),
                ("message", s(message)),
                ("value", Value::from_f64(value)),
                ("threshold", Value::from_f64(threshold)),
            ],
            RunEvent::Span { path, elapsed_ns } => {
                vec![("path", s(path)), ("elapsed_ns", u(elapsed_ns))]
            }
        }
    }

    /// `(round, known_pairs)` when this event marks a completed round —
    /// the kernel's [`RunEvent::RoundEnd`] or the oracle simulator's
    /// [`RunEvent::Round`] probe, the two shapes of one knowledge-curve
    /// point. Every sink that reacts to round completion asks here.
    pub fn completed_round(&self) -> Option<(u64, u64)> {
        match *self {
            RunEvent::RoundEnd {
                round, known_pairs, ..
            }
            | RunEvent::Round {
                round, known_pairs, ..
            } => Some((round, known_pairs)),
            _ => None,
        }
    }

    /// Renders one line: `head` (the encoder's own leading keys), then
    /// `event` and the payload.
    pub(crate) fn to_line(self, mut head: Vec<(String, Value)>) -> String {
        head.push(("event".to_string(), Value::String(self.name().to_string())));
        head.extend(self.fields().into_iter().map(|(k, v)| (k.to_string(), v)));
        serde_json::to_string(&Value::Object(head)).unwrap_or_else(|_| String::from("{}"))
    }
}
