//! Concurrency stress for [`LiveRegistry`]: writer threads hammer counters,
//! gauges, histograms, and events while scraper threads render the
//! Prometheus exposition and merger threads fold per-thread registries into
//! a shared one — exactly the shape `gossip serve` runs in (executor
//! threads writing, the HTTP thread scraping mid-run). Nothing may deadlock
//! or panic, and once the dust settles the merged totals must equal the
//! serial sum.

use gossip_obsd::prometheus;
use gossip_telemetry::{LiveRegistry, Recorder, RunEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const WRITERS: usize = 4;
const MERGERS: usize = 2;
const OPS_PER_WRITER: u64 = 5_000;
const MERGES_PER_MERGER: u64 = 50;
const MERGE_COUNTER_BUMP: u64 = 3;

/// One writer's workload against a registry: counters, a gauge, a
/// histogram sample, and an event per iteration.
fn writer_pass(reg: &LiveRegistry, thread_id: usize, i: u64) {
    reg.counter("stress/transmissions", 1);
    reg.counter(&format!("stress/thread/{thread_id}"), 2);
    reg.gauge("stress/round", i as f64);
    reg.observe("stress/fanout", (i % 7) as f64);
    reg.event(RunEvent::RoundStart { round: i });
}

#[test]
fn concurrent_writes_scrapes_and_merges_sum_exactly() {
    let shared = Arc::new(LiveRegistry::new());
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    // Writers record straight into the shared registry, as the paced
    // executor does while the obsd server owns the same registry.
    for t in 0..WRITERS {
        let reg = Arc::clone(&shared);
        handles.push(thread::spawn(move || {
            for i in 0..OPS_PER_WRITER {
                writer_pass(&reg, t, i);
            }
        }));
    }
    // Mergers fold fresh per-epoch registries in mid-run, as recovery
    // epochs do.
    for _ in 0..MERGERS {
        let reg = Arc::clone(&shared);
        handles.push(thread::spawn(move || {
            for i in 0..MERGES_PER_MERGER {
                let epoch = LiveRegistry::new();
                epoch.counter("stress/merged", MERGE_COUNTER_BUMP);
                epoch.observe("stress/epoch_len", i as f64);
                reg.merge(&epoch);
            }
        }));
    }
    // Scrapers render the Prometheus exposition concurrently with every
    // write above; they only need to observe *some* consistent snapshot.
    let mut scrapers = Vec::new();
    for _ in 0..2 {
        let reg = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        scrapers.push(thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let text = prometheus::render(&reg);
                assert!(text.contains("gossip_events_emitted"), "{text}");
                scrapes += 1;
            }
            scrapes
        }));
    }

    for h in handles {
        h.join().expect("writer/merger thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    for s in scrapers {
        let scrapes = s.join().expect("scraper thread panicked");
        assert!(scrapes > 0, "scraper never completed a render");
    }

    // Serial ground truth: every delta lands exactly once.
    assert_eq!(
        shared.counter_value("stress/transmissions"),
        WRITERS as u64 * OPS_PER_WRITER
    );
    for t in 0..WRITERS {
        assert_eq!(
            shared.counter_value(&format!("stress/thread/{t}")),
            2 * OPS_PER_WRITER
        );
    }
    assert_eq!(
        shared.counter_value("stress/merged"),
        MERGERS as u64 * MERGES_PER_MERGER * MERGE_COUNTER_BUMP
    );
    assert_eq!(shared.events_emitted(), WRITERS as u64 * OPS_PER_WRITER);
    let hist = shared.histogram("stress/fanout").expect("fanout histogram");
    assert_eq!(hist.count() as u64, WRITERS as u64 * OPS_PER_WRITER);
    let epochs = shared
        .histogram("stress/epoch_len")
        .expect("epoch histogram");
    assert_eq!(epochs.count() as u64, MERGERS as u64 * MERGES_PER_MERGER);
    // The gauge holds whichever writer stored last — any of the recorded
    // round values is a consistent outcome.
    let round = shared.gauge_value("stress/round").expect("round gauge");
    assert!(round >= 0.0 && round < OPS_PER_WRITER as f64);

    // And the post-stress exposition renders every family with the summed
    // values.
    let text = prometheus::render(&shared);
    assert!(
        text.contains(&format!(
            "gossip_stress_transmissions {}",
            WRITERS as u64 * OPS_PER_WRITER
        )),
        "{text}"
    );
}

/// The same race, but with the ground truth computed by replaying the
/// identical op sequence serially: merged per-thread registries must be
/// indistinguishable from one thread doing all the work.
#[test]
fn merged_per_thread_registries_equal_the_serial_sum() {
    let serial = LiveRegistry::new();
    for t in 0..WRITERS {
        for i in 0..OPS_PER_WRITER {
            writer_pass(&serial, t, i);
        }
    }

    let merged = Arc::new(LiveRegistry::new());
    let mut handles = Vec::new();
    for t in 0..WRITERS {
        let merged = Arc::clone(&merged);
        handles.push(thread::spawn(move || {
            let local = LiveRegistry::new();
            for i in 0..OPS_PER_WRITER {
                writer_pass(&local, t, i);
            }
            merged.merge(&local);
        }));
    }
    for h in handles {
        h.join().expect("thread panicked");
    }

    assert_eq!(merged.counters(), serial.counters());
    assert_eq!(merged.events_emitted(), serial.events_emitted());
    let m = merged.histogram("stress/fanout").unwrap();
    let s = serial.histogram("stress/fanout").unwrap();
    assert_eq!(m.count(), s.count());
    assert_eq!(m.sum(), s.sum());
    // Gauges are last-write-wins; both ends of the race stored the same
    // final per-thread value, so merged must equal serial here too.
    assert_eq!(
        merged.gauge_value("stress/round"),
        serial.gauge_value("stress/round")
    );
}
