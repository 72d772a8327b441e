//! Post-mortem analysis of flight records: time-travel inspection,
//! cross-run divergence diffing, and anomaly flagging.
//!
//! A `.gfr` capture ([`gossip_telemetry::flight::FlightLog`]) holds the
//! run's initial knowledge (the origin table) and every attempted
//! transmission plus every suppressed delivery — which is exactly enough
//! to reconstruct every processor's hold set after any round, without the
//! graph or the schedule at hand. Everything here is built on that replay:
//!
//! - [`inspect`] answers "what did every processor know after round
//!   `t`?" — the time-travel query behind `gossip inspect RUN.gfr
//!   --round t` — and cross-checks the replayed knowledge count against
//!   the capture's recorded `round_end` curve.
//! - [`diff`] aligns two captures round by round and reports the first
//!   round where their applied deliveries differ, per-(message, vertex)
//!   first-delivery-time deltas, and retransmission deltas. Captures of
//!   the same schedule from different engines (oracle vs kernel, offline
//!   vs threaded-online) diff as identical; a clean-vs-lossy pair
//!   diverges exactly at the fault plan's first suppressed delivery.
//! - [`anomalies`] flags straggler rounds (interior rounds delivering far
//!   below the run's median), utilization dips (far fewer active senders
//!   than typical), and messages whose completion exceeds the paper's
//!   `n + r` bound.

use gossip_telemetry::flight::{
    alert_rule_label, alert_severity_label, cause_label, churn_op_label, FlightAlert, FlightChurn,
    FlightLog,
};
use gossip_telemetry::CHURN_INVALIDATED;
use std::collections::HashSet;
use std::fmt::Write as _;

/// One run replayed from its capture: hold sets, first-delivery times,
/// and per-round applied-delivery detail.
struct RunView {
    n: usize,
    n_msgs: usize,
    rounds: usize,
    /// Hold sets as `n_msgs`-bit rows, one per vertex (`words` words each).
    hold: Vec<u64>,
    words: usize,
    /// `first_hold[m * n + v]`: the time vertex `v` first held message `m`
    /// (origins at 0; a delivery in round `t` lands at `t + 1`);
    /// `u32::MAX` = never.
    first_hold: Vec<u32>,
    /// Applied deliveries per round as sorted `(msg, from, to)` triples.
    applied: Vec<Vec<(u32, u32, u32)>>,
    /// Distinct senders per round.
    senders: Vec<usize>,
    /// Deliveries that landed on a vertex already holding the message.
    retransmissions: usize,
    /// Attempted transmissions / suppressed deliveries.
    tx_count: usize,
    loss_count: usize,
}

impl RunView {
    fn known_pairs(&self) -> u64 {
        self.hold.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    fn holds(&self, v: usize, m: usize) -> bool {
        self.hold[v * self.words + m / 64] & (1u64 << (m % 64)) != 0
    }

    fn vertex_count(&self, v: usize) -> usize {
        self.hold[v * self.words..(v + 1) * self.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// Replays `log` up to and including round `upto` (`None` = the whole
/// capture). Errors on structurally corrupt captures (out-of-range
/// processors or messages) rather than panicking.
fn replay(log: &FlightLog, upto: Option<usize>) -> Result<RunView, String> {
    let n = log.header.n as usize;
    let n_msgs = log.header.n_msgs as usize;
    if log.header.origins.len() != n_msgs {
        return Err(format!(
            "corrupt capture: {} origin(s) for {} message(s)",
            log.header.origins.len(),
            n_msgs
        ));
    }
    let words = n_msgs.div_ceil(64).max(1);
    let mut view = RunView {
        n,
        n_msgs,
        rounds: log.rounds(),
        hold: vec![0u64; n * words],
        words,
        first_hold: vec![u32::MAX; n * n_msgs],
        applied: Vec::new(),
        senders: Vec::new(),
        retransmissions: 0,
        tx_count: 0,
        loss_count: 0,
    };
    for (m, &o) in log.header.origins.iter().enumerate() {
        let v = o as usize;
        if v >= n {
            return Err(format!("corrupt capture: origin {o} of message {m} >= n"));
        }
        view.hold[v * words + m / 64] |= 1u64 << (m % 64);
        view.first_hold[m * n + v] = 0;
    }
    let losses = log.losses();
    let lost_set: HashSet<(u32, u32, u32, u32)> = losses
        .iter()
        .map(|l| (l.round, l.msg, l.from, l.to))
        .collect();
    view.loss_count = losses.len();
    let limit = upto.map(|r| r + 1).unwrap_or(usize::MAX);
    let mut txs = log.txs().into_iter().peekable();
    view.tx_count = log.txs().len();
    let mut round = 0usize;
    while txs.peek().is_some() && round < limit {
        round = txs.peek().expect("peeked").round as usize;
        if round >= limit {
            break;
        }
        let mut applied = Vec::new();
        let mut senders = HashSet::new();
        while txs.peek().map(|t| t.round as usize) == Some(round) {
            let tx = txs.next().expect("peeked");
            let (m, from) = (tx.msg as usize, tx.from as usize);
            if m >= n_msgs || from >= n {
                return Err(format!(
                    "corrupt capture: transmission (msg {m}, from {from}) out of range"
                ));
            }
            senders.insert(tx.from);
            for &d in tx.dests {
                let v = d as usize;
                if v >= n {
                    return Err(format!("corrupt capture: destination {v} >= n"));
                }
                if lost_set.contains(&(tx.round, tx.msg, tx.from, d)) {
                    continue;
                }
                let slot = v * words + m / 64;
                let bit = 1u64 << (m % 64);
                if view.hold[slot] & bit != 0 {
                    view.retransmissions += 1;
                } else {
                    view.hold[slot] |= bit;
                    view.first_hold[m * n + v] = tx.round + 1;
                }
                applied.push((tx.msg, tx.from, d));
            }
        }
        // Pad empty rounds so `applied[t]` is indexed by absolute round.
        while view.applied.len() < round {
            view.applied.push(Vec::new());
            view.senders.push(0);
        }
        applied.sort_unstable();
        view.applied.push(applied);
        view.senders.push(senders.len());
    }
    Ok(view)
}

/// Everything `gossip inspect` reports about one capture at one round.
#[derive(Debug, Clone)]
pub struct InspectReport {
    /// Engine label from the header.
    pub engine: String,
    /// Processor count.
    pub n: usize,
    /// Message count.
    pub n_msgs: usize,
    /// Graph radius from the header.
    pub radius: usize,
    /// Rounds covered by the capture.
    pub rounds: usize,
    /// Attempted transmissions.
    pub tx_count: usize,
    /// Suppressed deliveries.
    pub loss_count: usize,
    /// `(epoch, start_round)` repair epochs.
    pub epochs: Vec<(u32, u32)>,
    /// Applied topology changes, in round order (churn captures only).
    pub churn_events: Vec<FlightChurn>,
    /// Deliveries invalidated by churn (losses with cause
    /// `churn_invalidated`), over the whole capture.
    pub churn_invalidated: usize,
    /// Of those, `(message, destination)` pairs the repaired schedule
    /// delivered anyway by the end of the run.
    pub churn_repaired: usize,
    /// Watchdog alerts captured in the record, in firing order.
    pub alerts: Vec<FlightAlert>,
    /// Records evicted by the ring buffer (nonzero = truncated capture).
    pub dropped: u64,
    /// The round inspected (state after this round applied).
    pub round: usize,
    /// (processor, message) pairs known after `round`, from replay.
    pub known_pairs: u64,
    /// The capture's own `round_end` knowledge count at `round`, when
    /// present — an integrity cross-check for the replay.
    pub recorded_known_pairs: Option<u64>,
    /// `known_pairs / (n * n_msgs)`.
    pub coverage: f64,
    /// Messages held per vertex after `round`.
    pub hold_counts: Vec<usize>,
    /// Per-vertex missing message lists (only populated for `n <= 32`).
    pub missing: Vec<(usize, Vec<u32>)>,
    /// Whether gossip is complete at `round`.
    pub complete: bool,
}

/// Reconstructs the run's state after `round` (`None` = final state) —
/// the time-travel query. `round` past the end of the capture clamps to
/// the final round.
pub fn inspect(log: &FlightLog, round: Option<usize>) -> Result<InspectReport, String> {
    let rounds = log.rounds();
    let last = rounds.saturating_sub(1);
    let round = round.map(|r| r.min(last)).unwrap_or(last);
    let view = replay(log, Some(round))?;
    let known = view.known_pairs();
    let total = (view.n * view.n_msgs) as u64;
    let hold_counts: Vec<usize> = (0..view.n).map(|v| view.vertex_count(v)).collect();
    let missing = if view.n <= 32 {
        (0..view.n)
            .map(|v| {
                let miss: Vec<u32> = (0..view.n_msgs)
                    .filter(|&m| !view.holds(v, m))
                    .map(|m| m as u32)
                    .collect();
                (v, miss)
            })
            .collect()
    } else {
        Vec::new()
    };
    let recorded = log
        .known_pairs_curve()
        .iter()
        .find(|&&(r, _)| r as usize == round)
        .map(|&(_, k)| k);
    let churn_events = log.churn_events();
    let invalidated: Vec<(u32, u32)> = log
        .losses()
        .iter()
        .filter(|l| cause_label(l.cause) == CHURN_INVALIDATED)
        .map(|l| (l.msg, l.to))
        .collect();
    let churn_repaired = if invalidated.is_empty() {
        0
    } else {
        // "Repaired" is a whole-run judgment: replay to the end and ask
        // whether the pair landed anyway via the repaired schedule.
        let full = replay(log, None)?;
        invalidated
            .iter()
            .filter(|&&(m, to)| {
                (m as usize) < full.n_msgs
                    && (to as usize) < full.n
                    && full.first_hold[m as usize * full.n + to as usize] != u32::MAX
            })
            .count()
    };
    Ok(InspectReport {
        engine: log.header.engine.clone(),
        n: view.n,
        n_msgs: view.n_msgs,
        radius: log.header.radius as usize,
        rounds,
        tx_count: replayed_tx_count(log),
        loss_count: view.loss_count,
        epochs: log.epochs(),
        churn_invalidated: invalidated.len(),
        churn_repaired,
        churn_events,
        alerts: log.alerts(),
        dropped: log.dropped,
        round,
        known_pairs: known,
        recorded_known_pairs: recorded,
        coverage: if total == 0 {
            1.0
        } else {
            known as f64 / total as f64
        },
        hold_counts,
        missing,
        complete: known == total,
    })
}

fn replayed_tx_count(log: &FlightLog) -> usize {
    log.txs().len()
}

/// Renders an [`InspectReport`] as the `gossip inspect` text output.
pub fn render_inspect(r: &InspectReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight record: engine {}, n = {}, n_msgs = {}, radius r = {}",
        r.engine, r.n, r.n_msgs, r.radius
    );
    let epochs = if r.epochs.is_empty() {
        String::from("no repair epochs")
    } else {
        format!("{} repair epoch(s)", r.epochs.len())
    };
    let _ = writeln!(
        out,
        "capture: {} round(s), {} transmission(s), {} suppressed delivery(ies), {epochs}",
        r.rounds, r.tx_count, r.loss_count
    );
    if r.dropped > 0 {
        let _ = writeln!(
            out,
            "warning: ring buffer evicted {} record(s) — replay is partial",
            r.dropped
        );
    }
    if !r.churn_events.is_empty() {
        let _ = writeln!(out, "topology churn: {} event(s)", r.churn_events.len());
        for c in &r.churn_events {
            let what = churn_op_label(c.op);
            if c.u == c.v {
                let _ = writeln!(out, "  round {:>3}: {what} v{}", c.round, c.u);
            } else {
                let _ = writeln!(out, "  round {:>3}: {what} {}-{}", c.round, c.u, c.v);
            }
        }
        let _ = writeln!(
            out,
            "churn repair: {} delivery(ies) invalidated, {} of them delivered anyway by the repaired schedule",
            r.churn_invalidated, r.churn_repaired
        );
    }
    if !r.alerts.is_empty() {
        let _ = writeln!(out, "alert timeline: {} alert(s)", r.alerts.len());
        for a in &r.alerts {
            let _ = writeln!(
                out,
                "  round {:>3}: [{}] {} — value {:.2}, threshold {:.2}",
                a.round,
                alert_severity_label(a.severity),
                alert_rule_label(a.rule),
                a.value,
                a.threshold
            );
        }
    }
    let _ = writeln!(
        out,
        "state after round {}: {} of {} pairs known ({:.1}% coverage){}",
        r.round,
        r.known_pairs,
        r.n as u64 * r.n_msgs as u64,
        r.coverage * 100.0,
        if r.complete { " — complete" } else { "" }
    );
    match r.recorded_known_pairs {
        Some(k) if k == r.known_pairs => {
            let _ = writeln!(out, "integrity: replay matches recorded known_pairs ({k})");
        }
        Some(k) => {
            let _ = writeln!(
                out,
                "integrity: MISMATCH — replay {} vs recorded {k}",
                r.known_pairs
            );
        }
        None => {}
    }
    if !r.hold_counts.is_empty() {
        let mut sorted = r.hold_counts.clone();
        sorted.sort_unstable();
        let _ = writeln!(
            out,
            "per-vertex knowledge: min {}, median {}, max {}",
            sorted[0],
            sorted[sorted.len() / 2],
            sorted[sorted.len() - 1]
        );
    }
    for (v, miss) in &r.missing {
        if miss.is_empty() {
            let _ = writeln!(out, "  v{v:<3} holds {}/{}", r.n_msgs, r.n_msgs);
        } else {
            let list: Vec<String> = miss.iter().take(12).map(|m| m.to_string()).collect();
            let more = if miss.len() > 12 { ", ..." } else { "" };
            let _ = writeln!(
                out,
                "  v{v:<3} holds {}/{}  missing: {}{more}",
                r.n_msgs - miss.len(),
                r.n_msgs,
                list.join(",")
            );
        }
    }
    out
}

/// What `gossip diff A.gfr B.gfr` found.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Engine labels of the two captures.
    pub engines: (String, String),
    /// Header observations (digest or fingerprint mismatches). These are
    /// informational: engine labels legitimately differ across engines,
    /// and a clean-vs-lossy pair differs in fault digest by construction.
    pub notes: Vec<String>,
    /// Whether the captures are comparable at all (same `n` / `n_msgs`).
    pub comparable: bool,
    /// Rounds covered by each capture.
    pub rounds: (usize, usize),
    /// Attempted transmissions in each capture.
    pub tx_counts: (usize, usize),
    /// Suppressed deliveries in each capture.
    pub loss_counts: (usize, usize),
    /// Deliveries landing on an already-knowing vertex, per capture.
    pub retransmissions: (usize, usize),
    /// First round whose applied-delivery sets differ, if any.
    pub first_divergent_round: Option<usize>,
    /// Applied-delivery counts at the first divergent round.
    pub divergent_deliveries: Option<(usize, usize)>,
    /// (message, vertex) pairs first delivered later in B than in A.
    pub later_in_b: usize,
    /// (message, vertex) pairs first delivered earlier in B than in A.
    pub earlier_in_b: usize,
    /// Largest first-delivery delay of B relative to A, in rounds.
    pub max_delay: u32,
    /// Pairs delivered in A but never in B, and vice versa.
    pub only_in_a: usize,
    /// Pairs delivered in B but never in A.
    pub only_in_b: usize,
    /// The verdict: no divergent round and identical round counts.
    pub identical: bool,
}

/// Aligns two captures and reports where (and how) they diverge.
pub fn diff(a: &FlightLog, b: &FlightLog) -> Result<DiffReport, String> {
    let mut notes = Vec::new();
    if a.header.engine != b.header.engine {
        notes.push(format!(
            "engines differ: {} vs {}",
            a.header.engine, b.header.engine
        ));
    }
    for (what, x, y) in [
        ("graph", a.header.graph_digest, b.header.graph_digest),
        (
            "schedule",
            a.header.schedule_digest,
            b.header.schedule_digest,
        ),
        ("fault plan", a.header.fault_digest, b.header.fault_digest),
    ] {
        if x != y {
            notes.push(format!("{what} digests differ: {x:#018x} vs {y:#018x}"));
        }
    }
    if a.dropped > 0 || b.dropped > 0 {
        notes.push(format!(
            "ring buffer evictions: {} vs {} — diff is over partial captures",
            a.dropped, b.dropped
        ));
    }
    if a.header.n != b.header.n || a.header.n_msgs != b.header.n_msgs {
        return Ok(DiffReport {
            engines: (a.header.engine.clone(), b.header.engine.clone()),
            notes,
            comparable: false,
            rounds: (a.rounds(), b.rounds()),
            tx_counts: (0, 0),
            loss_counts: (0, 0),
            retransmissions: (0, 0),
            first_divergent_round: None,
            divergent_deliveries: None,
            later_in_b: 0,
            earlier_in_b: 0,
            max_delay: 0,
            only_in_a: 0,
            only_in_b: 0,
            identical: false,
        });
    }
    let va = replay(a, None)?;
    let vb = replay(b, None)?;
    let rounds = va.applied.len().max(vb.applied.len());
    let empty: Vec<(u32, u32, u32)> = Vec::new();
    let mut first_divergent = None;
    let mut divergent_deliveries = None;
    for t in 0..rounds {
        let ra = va.applied.get(t).unwrap_or(&empty);
        let rb = vb.applied.get(t).unwrap_or(&empty);
        if ra != rb {
            first_divergent = Some(t);
            divergent_deliveries = Some((ra.len(), rb.len()));
            break;
        }
    }
    let (mut later, mut earlier, mut only_a, mut only_b) = (0usize, 0usize, 0usize, 0usize);
    let mut max_delay = 0u32;
    for (fa, fb) in va.first_hold.iter().zip(&vb.first_hold) {
        match (*fa, *fb) {
            (u32::MAX, u32::MAX) => {}
            (u32::MAX, _) => only_b += 1,
            (_, u32::MAX) => only_a += 1,
            (x, y) if y > x => {
                later += 1;
                max_delay = max_delay.max(y - x);
            }
            (x, y) if y < x => earlier += 1,
            _ => {}
        }
    }
    let identical = first_divergent.is_none() && va.applied.len() == vb.applied.len();
    Ok(DiffReport {
        engines: (a.header.engine.clone(), b.header.engine.clone()),
        notes,
        comparable: true,
        rounds: (va.rounds, vb.rounds),
        tx_counts: (va.tx_count, vb.tx_count),
        loss_counts: (va.loss_count, vb.loss_count),
        retransmissions: (va.retransmissions, vb.retransmissions),
        first_divergent_round: first_divergent,
        divergent_deliveries,
        later_in_b: later,
        earlier_in_b: earlier,
        max_delay,
        only_in_a: only_a,
        only_in_b: only_b,
        identical,
    })
}

/// Renders a [`DiffReport`] as the `gossip diff` text output.
pub fn render_diff(r: &DiffReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "diff: A (engine {}) vs B (engine {})",
        r.engines.0, r.engines.1
    );
    for note in &r.notes {
        let _ = writeln!(out, "note: {note}");
    }
    if !r.comparable {
        let _ = writeln!(
            out,
            "verdict: captures are NOT COMPARABLE (different n or n_msgs)"
        );
        return out;
    }
    let _ = writeln!(
        out,
        "rounds: A {}, B {}; transmissions: A {}, B {}; losses: A {}, B {}",
        r.rounds.0, r.rounds.1, r.tx_counts.0, r.tx_counts.1, r.loss_counts.0, r.loss_counts.1
    );
    let _ = writeln!(
        out,
        "retransmissions: A {}, B {} ({:+})",
        r.retransmissions.0,
        r.retransmissions.1,
        r.retransmissions.1 as i64 - r.retransmissions.0 as i64
    );
    match r.first_divergent_round {
        Some(t) => {
            let (da, db) = r.divergent_deliveries.unwrap_or((0, 0));
            let _ = writeln!(
                out,
                "first divergent round: {t} (A applied {da} delivery(ies), B applied {db})"
            );
            let _ = writeln!(
                out,
                "delivery-time deltas: {} pair(s) later in B (max +{} round(s)), \
                 {} earlier; {} pair(s) only in A, {} only in B",
                r.later_in_b, r.max_delay, r.earlier_in_b, r.only_in_a, r.only_in_b
            );
            let _ = writeln!(out, "verdict: runs DIVERGE at round {t}");
        }
        None if r.identical => {
            let _ = writeln!(
                out,
                "verdict: runs are identical ({} round(s), {} transmission(s))",
                r.rounds.0, r.tx_counts.0
            );
        }
        None => {
            let _ = writeln!(
                out,
                "verdict: runs DIVERGE in length (A {} round(s), B {})",
                r.rounds.0, r.rounds.1
            );
        }
    }
    out
}

/// What the anomaly pass flags in one capture.
#[derive(Debug, Clone, Default)]
pub struct Anomalies {
    /// Interior rounds whose applied deliveries fall below half the
    /// run's median: `(round, deliveries, median)`.
    pub stragglers: Vec<(usize, usize, f64)>,
    /// Interior rounds with under half the median distinct senders:
    /// `(round, senders, median)`.
    pub utilization_dips: Vec<(usize, usize, f64)>,
    /// Messages whose completion time exceeds the paper's `n + r` bound:
    /// `(msg, completion_time, bound)`.
    pub slow_messages: Vec<(u32, usize, usize)>,
    /// Messages that never reached every vertex.
    pub incomplete_messages: Vec<u32>,
}

impl Anomalies {
    /// Whether the pass flagged anything at all.
    pub fn is_clean(&self) -> bool {
        self.stragglers.is_empty()
            && self.utilization_dips.is_empty()
            && self.slow_messages.is_empty()
            && self.incomplete_messages.is_empty()
    }
}

fn median(mut xs: Vec<usize>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2] as f64
}

/// Flags straggler rounds, utilization dips, and `n + r` violations in
/// one capture. Only interior rounds (strictly between the first and
/// last round that applied anything) can be stragglers or dips — ramp-up
/// and tail-off are the expected shape of a gossip run, not anomalies.
pub fn anomalies(log: &FlightLog) -> Result<Anomalies, String> {
    let view = replay(log, None)?;
    let mut out = Anomalies::default();
    let active: Vec<usize> = (0..view.applied.len())
        .filter(|&t| !view.applied[t].is_empty())
        .collect();
    if let (Some(&first), Some(&last)) = (active.first(), active.last()) {
        let deliveries: Vec<usize> = view.applied.iter().map(Vec::len).collect();
        let med_d = median(deliveries[first..=last].to_vec());
        let med_s = median(view.senders[first..=last].to_vec());
        for (t, &d) in deliveries.iter().enumerate().take(last).skip(first + 1) {
            if (d as f64) < med_d / 2.0 {
                out.stragglers.push((t, d, med_d));
            }
            let s = view.senders[t];
            if (s as f64) < med_s / 2.0 {
                out.utilization_dips.push((t, s, med_s));
            }
        }
    }
    let bound = view.n + log.header.radius as usize;
    for m in 0..view.n_msgs {
        let row = &view.first_hold[m * view.n..(m + 1) * view.n];
        if row.contains(&u32::MAX) {
            out.incomplete_messages.push(m as u32);
        } else {
            let completion = row.iter().copied().max().unwrap_or(0) as usize;
            if completion > bound {
                out.slow_messages.push((m as u32, completion, bound));
            }
        }
    }
    Ok(out)
}

/// Renders the anomaly pass as text (one line when clean).
pub fn render_anomalies(a: &Anomalies) -> String {
    if a.is_clean() {
        return String::from("anomalies: none\n");
    }
    let mut out = String::new();
    for (t, d, med) in &a.stragglers {
        let _ = writeln!(
            out,
            "anomaly: straggler round {t} applied {d} delivery(ies) (run median {med:.0})"
        );
    }
    for (t, s, med) in &a.utilization_dips {
        let _ = writeln!(
            out,
            "anomaly: utilization dip at round {t} — {s} sender(s) active (run median {med:.0})"
        );
    }
    for (m, c, b) in &a.slow_messages {
        let _ = writeln!(
            out,
            "anomaly: message {m} completed at time {c}, past the n + r bound {b}"
        );
    }
    for m in &a.incomplete_messages {
        let _ = writeln!(out, "anomaly: message {m} never reached every vertex");
    }
    out
}

/// A one-line classification of a capture's losses by cause, for summary
/// output (`sampled 4, not_held 11`). Empty string when lossless.
pub fn loss_breakdown(log: &FlightLog) -> String {
    let mut counts: Vec<(u8, usize)> = Vec::new();
    for l in log.losses() {
        match counts.iter_mut().find(|(c, _)| *c == l.cause) {
            Some((_, k)) => *k += 1,
            None => counts.push((l.cause, 1)),
        }
    }
    counts.sort_by_key(|&(c, _)| c);
    counts
        .iter()
        .map(|&(c, k)| format!("{} {k}", cause_label(c)))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_telemetry::flight::{FlightHeader, FlightRecord};

    fn header(n: u32, engine: &str) -> FlightHeader {
        FlightHeader {
            n,
            n_msgs: n,
            radius: 1,
            engine: engine.to_string(),
            graph_digest: 1,
            schedule_digest: 2,
            fault_digest: 0,
            origins: (0..n).collect(),
        }
    }

    /// A 3-vertex path gossiped by hand: txs chosen so the run completes.
    fn tiny_log(lossy: bool) -> FlightLog {
        let mut records = vec![
            FlightRecord::Tx {
                round: 0,
                msg: 0,
                from: 0,
                dests: vec![1],
            },
            FlightRecord::Tx {
                round: 0,
                msg: 2,
                from: 2,
                dests: vec![1],
            },
            FlightRecord::RoundEnd {
                round: 0,
                known_pairs: 5,
            },
            FlightRecord::Tx {
                round: 1,
                msg: 1,
                from: 1,
                dests: vec![0, 2],
            },
            FlightRecord::RoundEnd {
                round: 1,
                known_pairs: 7,
            },
            FlightRecord::Tx {
                round: 2,
                msg: 2,
                from: 1,
                dests: vec![0],
            },
            FlightRecord::Tx {
                round: 3,
                msg: 0,
                from: 1,
                dests: vec![2],
            },
        ];
        if lossy {
            records.insert(
                1,
                FlightRecord::Loss {
                    round: 0,
                    msg: 2,
                    from: 2,
                    to: 1,
                    cause: 0,
                },
            );
        }
        FlightLog {
            header: header(3, if lossy { "lossy" } else { "kernel" }),
            records,
            dropped: 0,
        }
    }

    #[test]
    fn inspect_time_travels() {
        let log = tiny_log(false);
        let at0 = inspect(&log, Some(0)).unwrap();
        assert_eq!(at0.known_pairs, 5);
        assert_eq!(at0.recorded_known_pairs, Some(5));
        assert!(!at0.complete);
        assert_eq!(at0.hold_counts, vec![1, 3, 1]);
        let end = inspect(&log, None).unwrap();
        assert_eq!(end.known_pairs, 9);
        assert!(end.complete);
        assert!(render_inspect(&end).contains("complete"));
        // Past-the-end rounds clamp.
        assert_eq!(inspect(&log, Some(99)).unwrap().round, 3);
    }

    #[test]
    fn diff_identical_and_divergent() {
        let a = tiny_log(false);
        let same = diff(&a, &a).unwrap();
        assert!(same.identical);
        assert_eq!(same.first_divergent_round, None);
        assert!(render_diff(&same).contains("identical"));

        let b = tiny_log(true);
        let d = diff(&a, &b).unwrap();
        assert!(!d.identical);
        assert_eq!(d.first_divergent_round, Some(0), "loss is at round 0");
        assert_eq!(d.loss_counts, (0, 1));
        assert!(d.only_in_a >= 1, "msg 2 never reaches v1/v0 in B");
        assert!(render_diff(&d).contains("DIVERGE at round 0"));
    }

    #[test]
    fn diff_rejects_incomparable_headers() {
        let a = tiny_log(false);
        let mut b = tiny_log(false);
        b.header.n = 4;
        b.header.origins.push(3);
        b.header.n_msgs = 4;
        let d = diff(&a, &b).unwrap();
        assert!(!d.comparable);
        assert!(!d.identical);
        assert!(render_diff(&d).contains("NOT COMPARABLE"));
    }

    #[test]
    fn anomaly_pass_flags_incomplete_and_slow() {
        let clean = anomalies(&tiny_log(false)).unwrap();
        assert!(clean.slow_messages.is_empty());
        assert!(clean.incomplete_messages.is_empty());
        let lossy = anomalies(&tiny_log(true)).unwrap();
        assert_eq!(lossy.incomplete_messages, vec![2]);
        assert!(render_anomalies(&lossy).contains("message 2 never reached"));
    }

    #[test]
    fn retransmissions_are_counted() {
        let mut log = tiny_log(false);
        log.records.push(FlightRecord::Tx {
            round: 4,
            msg: 0,
            from: 0,
            dests: vec![1],
        });
        let d = diff(&tiny_log(false), &log).unwrap();
        assert_eq!(d.retransmissions, (0, 1));
        assert!(!d.identical, "extra round in B");
        assert_eq!(d.first_divergent_round, Some(4));
    }

    #[test]
    fn loss_breakdown_labels_causes() {
        assert_eq!(loss_breakdown(&tiny_log(false)), "");
        assert_eq!(loss_breakdown(&tiny_log(true)), "sampled 1");
    }

    #[test]
    fn inspect_surfaces_alert_timeline() {
        use gossip_telemetry::flight::{alert_rule_code, alert_severity_code};
        let mut log = tiny_log(true);
        log.records.push(FlightRecord::Alert {
            round: 1,
            rule: alert_rule_code("loss_spike"),
            severity: alert_severity_code("warn"),
            value_bits: 0.75f64.to_bits(),
            threshold_bits: 0.5f64.to_bits(),
        });
        log.records.push(FlightRecord::Alert {
            round: 3,
            rule: alert_rule_code("bound"),
            severity: alert_severity_code("critical"),
            value_bits: 9.0f64.to_bits(),
            threshold_bits: 5.0f64.to_bits(),
        });
        let report = inspect(&log, None).unwrap();
        assert_eq!(report.alerts.len(), 2);
        let text = render_inspect(&report);
        assert!(text.contains("alert timeline: 2 alert(s)"), "{text}");
        assert!(
            text.contains("round   1: [warn] loss_spike — value 0.75, threshold 0.50"),
            "{text}"
        );
        assert!(
            text.contains("round   3: [critical] bound — value 9.00, threshold 5.00"),
            "{text}"
        );
        // Alert-free captures render no timeline header.
        let clean = inspect(&tiny_log(false), None).unwrap();
        assert!(!render_inspect(&clean).contains("alert timeline"));
    }

    #[test]
    fn inspect_surfaces_churn_timeline_and_repairs() {
        use gossip_telemetry::flight::churn_op_code;
        // A churn capture by hand: the 1-2 edge dies at round 1,
        // invalidating msg 1's delivery to v2; a repair resends it at
        // round 3 (delivered). Msg 0's delivery to v2 is invalidated too
        // and never repaired.
        let records = vec![
            FlightRecord::Tx {
                round: 0,
                msg: 1,
                from: 1,
                dests: vec![0],
            },
            FlightRecord::Churn {
                round: 1,
                op: churn_op_code("edge_remove"),
                u: 1,
                v: 2,
            },
            FlightRecord::Churn {
                round: 1,
                op: churn_op_code("node_leave"),
                u: 2,
                v: 2,
            },
            FlightRecord::Loss {
                round: 1,
                msg: 1,
                from: 1,
                to: 2,
                cause: 5,
            },
            FlightRecord::Loss {
                round: 2,
                msg: 0,
                from: 0,
                to: 2,
                cause: 5,
            },
            FlightRecord::Tx {
                round: 3,
                msg: 1,
                from: 1,
                dests: vec![2],
            },
        ];
        let log = FlightLog {
            header: header(3, "churn"),
            records,
            dropped: 0,
        };
        let report = inspect(&log, None).unwrap();
        assert_eq!(report.churn_events.len(), 2);
        assert_eq!(report.churn_invalidated, 2);
        assert_eq!(report.churn_repaired, 1, "msg 1 -> v2 lands at round 3");
        let text = render_inspect(&report);
        assert!(text.contains("topology churn: 2 event(s)"), "{text}");
        assert!(text.contains("edge_remove 1-2"), "{text}");
        assert!(text.contains("node_leave v2"), "{text}");
        assert!(
            text.contains("2 delivery(ies) invalidated, 1 of them"),
            "{text}"
        );
    }
}
