//! [`Paced`]: a recorder decorator that slows a run down to watchable
//! speed.
//!
//! A simulated gossip run over a small graph finishes in microseconds —
//! nothing a human pointing `curl` at `/metrics`, or a CI smoke job
//! scraping twice, could ever catch mid-flight. `Paced` wraps any
//! [`Recorder`] and stretches the round cadence without touching any
//! executor API: pacing is purely an observer concern, so it lives in the
//! observability layer.
//!
//! The sleep happens *between* rounds — a completed round arms a pending
//! delay that the next `round_start` consumes — so the final round of a
//! run ends immediately instead of tacking one useless delay onto every
//! paced execution.

use gossip_telemetry::{Recorder, RunEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Forwards everything to `inner`, sleeping `delay` between one round's
/// end and the next round's start (a zero delay forwards transparently).
pub struct Paced<'r> {
    inner: &'r dyn Recorder,
    delay: Duration,
    /// Set by a completed round, consumed (with the sleep) by the next
    /// `round_start` — never by run teardown.
    pending: AtomicBool,
}

impl<'r> Paced<'r> {
    /// Wraps `inner`, pausing `delay` between consecutive rounds.
    pub fn new(inner: &'r dyn Recorder, delay: Duration) -> Paced<'r> {
        Paced {
            inner,
            delay,
            pending: AtomicBool::new(false),
        }
    }
}

impl Recorder for Paced<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn counter(&self, name: &str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.inner.gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.inner.observe(name, value);
    }

    fn event(&self, event: RunEvent<'_>) {
        if matches!(event, RunEvent::RoundStart { .. })
            && self.pending.swap(false, Ordering::Relaxed)
            && !self.delay.is_zero()
        {
            std::thread::sleep(self.delay);
        }
        self.inner.event(event);
        if event.completed_round().is_some() {
            self.pending.store(true, Ordering::Relaxed);
        }
    }

    fn span_observe(&self, path: &str, nanos: u64) {
        self.inner.span_observe(path, nanos);
    }

    fn wants_transmissions(&self) -> bool {
        self.inner.wants_transmissions()
    }

    fn transmission(&self, round: usize, msg: u32, from: u32, dests: &[u32]) {
        self.inner.transmission(round, msg, from, dests);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_telemetry::LiveRegistry;
    use std::time::Instant;

    fn round_end(paced: &Paced<'_>, round: u64) {
        paced.event(RunEvent::RoundEnd {
            round,
            delivered: 1,
            lost: None,
            known_pairs: round + 1,
        });
    }

    #[test]
    fn delays_between_rounds_but_not_after_the_last() {
        let reg = LiveRegistry::new();
        let paced = Paced::new(&reg, Duration::from_millis(20));
        let start = Instant::now();
        paced.counter("c", 1);
        paced.gauge("g", 2.0);
        paced.event(RunEvent::Loss {
            round: 0,
            msg: 0,
            from: 0,
            to: 1,
            cause: "sampled",
        });
        paced.event(RunEvent::RoundStart { round: 0 });
        round_end(&paced, 0);
        assert!(
            start.elapsed() < Duration::from_millis(15),
            "a round_end alone must not sleep — the delay is armed, not paid"
        );
        paced.event(RunEvent::RoundStart { round: 1 });
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "the next round_start pays the armed delay"
        );
        let mid = Instant::now();
        round_end(&paced, 1);
        paced.event(RunEvent::EpochEnd {
            epoch: 0,
            start_round: 0,
            rounds: 2,
            delivered: 2,
            lost: 1,
            residual_after: 0,
        });
        assert!(
            mid.elapsed() < Duration::from_millis(15),
            "the final round_end must not sleep"
        );
        assert_eq!(reg.counter_value("c"), 1);
        assert_eq!(reg.gauge_value("g"), Some(2.0));
        assert_eq!(reg.events_emitted(), 6);
    }

    #[test]
    fn forwards_transmissions_to_the_inner_recorder() {
        use gossip_telemetry::flight::FlightHeader;
        use gossip_telemetry::FlightRecorder;

        let flight = FlightRecorder::new(FlightHeader {
            n: 2,
            n_msgs: 2,
            radius: 1,
            engine: "test".into(),
            graph_digest: 0,
            schedule_digest: 0,
            fault_digest: 0,
            origins: vec![0, 1],
        });
        let paced = Paced::new(&flight, Duration::ZERO);
        assert!(
            paced.wants_transmissions(),
            "pacing must not hide the inner recorder's interest in transmissions"
        );
        paced.transmission(0, 1, 0, &[1]);
        assert_eq!(flight.len(), 1);
    }
}
