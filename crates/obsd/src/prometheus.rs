//! Prometheus text exposition format v0.0.4 for a [`LiveRegistry`].
//!
//! Name mapping: every registry name is prefixed with `gossip_` and every
//! character outside `[a-zA-Z0-9_:]` (the registry uses `/` as its
//! namespace separator) becomes `_`, so `recovery/residual_pairs` is
//! scraped as `gossip_recovery_residual_pairs`. Histograms are rendered
//! against the fixed bucket layout [`BUCKETS`] computed at scrape time from
//! the raw samples — the registry stores exact values, so re-bucketing
//! never loses information and the layout can evolve without touching
//! recording sites. Span *durations* are wall-clock and therefore
//! nondeterministic; `/metrics` exposes spans only as completion counts
//! (`gossip_span_completed_total{path="..."}`), keeping the whole document
//! deterministic for a deterministic run (the golden test relies on this).

use gossip_telemetry::{AlertSink, Histogram, LiveRegistry};
use std::fmt::Write as _;

/// Upper bounds (`le`) of the histogram buckets, in ascending order; a
/// final `+Inf` bucket is always appended. The layout spans unitless
/// per-round observations (fan-out, idle receivers) up to nanosecond
/// timings (`online/round_ns`).
pub const BUCKETS: [f64; 17] = [
    0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
];

/// `gossip_` + the registry name with every invalid character folded to
/// `_`.
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 7);
    out.push_str("gossip_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats a sample value the Prometheus way: integral values without a
/// fractional part, everything else via the shortest `f64` display.
fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_histogram(out: &mut String, name: &str, raw: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} Histogram \"{raw}\".");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let values = h.values();
    for le in BUCKETS {
        let cum = values.iter().filter(|&&v| v <= le).count();
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", fmt_value(le));
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", values.len());
    let _ = writeln!(out, "{name}_sum {}", fmt_value(h.sum()));
    let _ = writeln!(out, "{name}_count {}", values.len());
}

/// Renders the whole registry as one exposition document: counters, then
/// gauges, then histograms (all name-sorted within their group), then span
/// completion counts and the event counter.
pub fn render(registry: &LiveRegistry) -> String {
    render_with_alerts(registry, None)
}

/// [`render`], but with an attached [`AlertSink`] as the authoritative
/// source for `gossip_alerts_total`. The registry's `alerts/...` counters
/// only see alerts the engine emitted downstream; the sink also holds
/// wall-clock poll firings the engine has not flushed yet, so a scrape
/// arriving between the poll and the next recorded event still reports
/// them.
pub fn render_with_alerts(registry: &LiveRegistry, sink: Option<&AlertSink>) -> String {
    let mut out = String::new();
    // Watchdog counters (`alerts/<rule>/<severity>`) render as one
    // labeled family instead of a name per series; collected while the
    // plain counters stream out, emitted right after them. A run with no
    // alerts leaves the document byte-identical to pre-watchdog builds.
    let mut alert_series: Vec<(String, String, u64)> = match sink {
        Some(s) => s
            .counts()
            .into_iter()
            .map(|((rule, severity), v)| (rule, severity.to_string(), v))
            .collect(),
        None => Vec::new(),
    };
    for (raw, v) in registry.counters() {
        if let Some((rule, severity)) = raw
            .strip_prefix("alerts/")
            .and_then(|rest| rest.split_once('/'))
        {
            // With a sink attached its counts already cover these.
            if sink.is_none() {
                alert_series.push((rule.to_string(), severity.to_string(), v));
            }
            continue;
        }
        let name = metric_name(&raw);
        let _ = writeln!(out, "# HELP {name} Counter \"{raw}\".");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    if !alert_series.is_empty() {
        let _ = writeln!(
            out,
            "# HELP gossip_alerts_total Watchdog alerts fired, by rule and severity."
        );
        let _ = writeln!(out, "# TYPE gossip_alerts_total counter");
        for (rule, severity, v) in alert_series {
            let _ = writeln!(
                out,
                "gossip_alerts_total{{rule=\"{}\",severity=\"{}\"}} {v}",
                escape_label(&rule),
                escape_label(&severity)
            );
        }
    }
    for (raw, v) in registry.gauges() {
        let name = metric_name(&raw);
        let _ = writeln!(out, "# HELP {name} Gauge \"{raw}\".");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_value(v));
    }
    for (raw, h) in registry.histograms() {
        render_histogram(&mut out, &metric_name(&raw), &raw, &h);
    }
    let spans = registry.spans();
    if !spans.is_empty() {
        let _ = writeln!(
            out,
            "# HELP gossip_span_completed_total Completed spans by nested path."
        );
        let _ = writeln!(out, "# TYPE gossip_span_completed_total counter");
        for (path, h) in spans {
            let _ = writeln!(
                out,
                "gossip_span_completed_total{{path=\"{}\"}} {}",
                escape_label(&path),
                h.count()
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP gossip_events_emitted_total Telemetry events emitted."
    );
    let _ = writeln!(out, "# TYPE gossip_events_emitted_total counter");
    let _ = writeln!(
        out,
        "gossip_events_emitted_total {}",
        registry.events_emitted()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_telemetry::{Recorder, RunEvent};

    #[test]
    fn name_mapping_folds_separators() {
        assert_eq!(
            metric_name("recovery/residual_pairs"),
            "gossip_recovery_residual_pairs"
        );
        assert_eq!(metric_name("round_current"), "gossip_round_current");
        assert_eq!(
            metric_name("exec/lost/not_held"),
            "gossip_exec_lost_not_held"
        );
    }

    #[test]
    fn values_format_like_prometheus() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(0.5), "0.5");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(1e9), "1000000000");
    }

    #[test]
    fn exposition_has_every_family_and_cumulative_buckets() {
        let r = LiveRegistry::new();
        r.counter("exec/deliveries", 7);
        r.gauge("round_current", 3.0);
        r.gauge("known_pairs", 40.0);
        r.observe("sim/fanout_max", 1.0);
        r.observe("sim/fanout_max", 3.0);
        r.observe("sim/fanout_max", 600.0);
        r.event(RunEvent::RoundEnd {
            round: 2,
            delivered: 4,
            lost: None,
            known_pairs: 40,
        });
        let text = render(&r);
        assert!(text.contains("# TYPE gossip_exec_deliveries counter\ngossip_exec_deliveries 7\n"));
        assert!(text.contains("# TYPE gossip_round_current gauge\ngossip_round_current 3\n"));
        assert!(text.contains("gossip_known_pairs 40\n"));
        // Buckets are cumulative: le=1 sees one sample, le=5 two, le=1000
        // and +Inf all three.
        assert!(text.contains("gossip_sim_fanout_max_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("gossip_sim_fanout_max_bucket{le=\"5\"} 2\n"));
        assert!(text.contains("gossip_sim_fanout_max_bucket{le=\"1000\"} 3\n"));
        assert!(text.contains("gossip_sim_fanout_max_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("gossip_sim_fanout_max_sum 604\n"));
        assert!(text.contains("gossip_sim_fanout_max_count 3\n"));
        assert!(text.contains("gossip_events_emitted_total 1\n"));
        // Every non-comment line is `name{labels} value` with a finite or
        // +Inf-labelled value; spot-check the document parses line-wise.
        for line in text.lines() {
            assert!(!line.is_empty());
            if !line.starts_with('#') {
                assert!(line.starts_with("gossip_"), "bad family in {line:?}");
                assert!(line.rsplit(' ').next().unwrap().parse::<f64>().is_ok());
            }
        }
    }

    #[test]
    fn alert_counters_render_as_one_labeled_family() {
        let r = LiveRegistry::new();
        r.counter("alerts/stall/critical", 1);
        r.counter("alerts/loss_spike/warn", 2);
        r.counter("exec/deliveries", 7);
        let text = render(&r);
        assert!(text.contains("# TYPE gossip_alerts_total counter\n"));
        assert!(text.contains("gossip_alerts_total{rule=\"stall\",severity=\"critical\"} 1\n"));
        assert!(text.contains("gossip_alerts_total{rule=\"loss_spike\",severity=\"warn\"} 2\n"));
        // The raw per-severity counter names must not leak as families.
        assert!(!text.contains("gossip_alerts_stall_critical"));
        assert!(text.contains("gossip_exec_deliveries 7\n"));
        // No alerts: the family is absent entirely, keeping alert-free
        // expositions byte-identical to pre-watchdog builds.
        let clean = LiveRegistry::new();
        clean.counter("exec/deliveries", 7);
        assert!(!render(&clean).contains("gossip_alerts_total"));
    }

    #[test]
    fn span_counts_expose_without_durations() {
        let r = LiveRegistry::new();
        r.span_observe("recover/epoch", 123_456);
        r.span_observe("recover/epoch", 99);
        let text = render(&r);
        assert!(text.contains("gossip_span_completed_total{path=\"recover/epoch\"} 2\n"));
        assert!(
            !text.contains("123456"),
            "span durations must not leak into the deterministic exposition"
        );
    }
}
