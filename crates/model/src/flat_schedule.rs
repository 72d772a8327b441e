//! Arena-backed CSR schedule representation: the replay-side view of a
//! [`Schedule`].
//!
//! [`Schedule`] stores one `Vec<Transmission>` per round, each transmission
//! owning its own destination `Vec` — friendly to incremental construction,
//! hostile to replay: an n = 2048 gossip schedule is millions of tuples
//! scattered across twice as many allocations. [`FlatSchedule`] packs the
//! same data, in the same order, into five flat `u32` arrays (round-major
//! transmissions over CSR destination lists), built once and then replayed
//! any number of times by [`crate::SimKernel`] with zero pointer chasing.
//!
//! The conversion is lossless for every schedule a real graph can carry:
//! processor ids are stored as `u32` (ids above `u32::MAX`, impossible for
//! any in-range destination since `Graph` caps `n` well below that, are
//! saturated and thus still rejected as out-of-range by the validators).
//!
//! [`FlatSchedule::validate`] is the rayon round-parallel structural rule
//! check: rounds are independent for every rule except the hold-set one
//! (rule 4, execution-state dependent, enforced by the kernel during
//! replay), so each round is checked on its own core with word-parallel
//! sender/receiver dedup bitmaps. The rules themselves live in `rules.rs`,
//! shared with the kernel's checked replay modes.

use crate::error::ModelError;
use crate::models::CommModel;
use crate::round::CommRound;
use crate::rules::{RoundRules, RoundState};
use crate::schedule::{Schedule, ScheduleStats};
use gossip_graph::Graph;
use rayon::prelude::*;

#[inline]
fn id32(v: usize) -> u32 {
    v.min(u32::MAX as usize) as u32
}

/// A [`Schedule`] flattened into round-major CSR arrays.
///
/// Layout: transmissions of round `t` are `round_offsets[t]..round_offsets
/// [t + 1]` in `tx_msg` / `tx_from`; the destinations of transmission `i`
/// are `dest_offsets[i]..dest_offsets[i + 1]` in `dests`. Iteration order
/// is identical to [`Schedule::iter`], so transmission indices double as
/// the provenance layer's `tx_id`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSchedule {
    n: usize,
    round_offsets: Vec<u32>,
    tx_msg: Vec<u32>,
    tx_from: Vec<u32>,
    dest_offsets: Vec<u32>,
    dests: Vec<u32>,
    max_fanout: usize,
    busiest_round: usize,
}

impl FlatSchedule {
    /// Flattens `schedule` (trailing empty rounds are dropped, exactly as
    /// [`Schedule::makespan`] ignores them).
    ///
    /// # Panics
    ///
    /// Panics if the schedule has `u32::MAX` or more transmissions or
    /// deliveries — beyond any schedule this workspace can build (gossip on
    /// n = 8192 is ~67M tuples) but a hard cap of the `u32` CSR offsets.
    pub fn from_schedule(schedule: &Schedule) -> FlatSchedule {
        FlatSchedule::from_rounds(schedule.n, &schedule.rounds[..schedule.makespan()])
    }

    /// Flattens `rounds` of an `n`-processor schedule, keeping every one —
    /// empty rounds included, trailing ones too — so a window of a longer
    /// schedule replays round for round.
    ///
    /// # Panics
    ///
    /// As [`FlatSchedule::from_schedule`].
    pub fn from_rounds(n: usize, rounds: &[CommRound]) -> FlatSchedule {
        let _phase = gossip_telemetry::profile::phase("flatten");
        let mut tx_count = 0usize;
        let mut deliveries = 0usize;
        for r in rounds {
            tx_count += r.transmissions.len();
            deliveries += r.deliveries();
        }
        assert!(
            tx_count < u32::MAX as usize && deliveries < u32::MAX as usize,
            "schedule too large for u32 CSR offsets ({tx_count} transmissions, {deliveries} deliveries)"
        );
        let mut out = FlatSchedule {
            n,
            round_offsets: Vec::with_capacity(rounds.len() + 1),
            tx_msg: Vec::with_capacity(tx_count),
            tx_from: Vec::with_capacity(tx_count),
            dest_offsets: Vec::with_capacity(tx_count + 1),
            dests: Vec::with_capacity(deliveries),
            max_fanout: 0,
            busiest_round: 0,
        };
        out.round_offsets.push(0);
        out.dest_offsets.push(0);
        for r in rounds {
            out.busiest_round = out.busiest_round.max(r.transmissions.len());
            for tx in &r.transmissions {
                out.tx_msg.push(tx.msg);
                out.tx_from.push(id32(tx.from));
                out.max_fanout = out.max_fanout.max(tx.to.len());
                for &d in &tx.to {
                    out.dests.push(id32(d));
                }
                out.dest_offsets.push(out.dests.len() as u32);
            }
            out.round_offsets.push(out.tx_msg.len() as u32);
        }
        // Every element of the five CSR arrays is a u32 write.
        let csr_words = out.round_offsets.len()
            + out.tx_msg.len()
            + out.tx_from.len()
            + out.dest_offsets.len()
            + out.dests.len();
        gossip_telemetry::profile::count("csr_bytes", 4 * csr_words as u64);
        out
    }

    /// Assembles a `FlatSchedule` directly from its five CSR arrays — the
    /// fast planner's entry point: generators that emit straight into CSR
    /// (no `Vec`-of-tuples `Schedule`, no [`FlatSchedule::from_schedule`]
    /// pass) hand their arenas over here.
    ///
    /// `max_fanout` and `busiest_round` are derived from the arrays, so a
    /// CSR-direct build is indistinguishable (including [`PartialEq`] and
    /// [`FlatSchedule::digest`]) from flattening the equivalent `Schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are not a well-formed CSR: offsets must start
    /// at 0, be monotone, and end at the length of the array they index,
    /// and the two transmission arrays must have equal length.
    pub fn from_raw_parts(
        n: usize,
        round_offsets: Vec<u32>,
        tx_msg: Vec<u32>,
        tx_from: Vec<u32>,
        dest_offsets: Vec<u32>,
        dests: Vec<u32>,
    ) -> FlatSchedule {
        assert_eq!(tx_msg.len(), tx_from.len(), "tx arrays disagree");
        for (name, offsets, indexed_len) in [
            ("round_offsets", &round_offsets, tx_msg.len()),
            ("dest_offsets", &dest_offsets, dests.len()),
        ] {
            assert_eq!(offsets.first(), Some(&0), "{name} must start at 0");
            assert!(
                offsets.windows(2).all(|w| w[0] <= w[1]),
                "{name} must be monotone"
            );
            assert_eq!(
                *offsets.last().expect("nonempty") as usize,
                indexed_len,
                "{name} must end at the indexed array's length"
            );
        }
        assert_eq!(
            dest_offsets.len(),
            tx_msg.len() + 1,
            "one destination range per transmission"
        );
        let max_fanout = dest_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        let busiest_round = round_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        let out = FlatSchedule {
            n,
            round_offsets,
            tx_msg,
            tx_from,
            dest_offsets,
            dests,
            max_fanout,
            busiest_round,
        };
        let csr_words = out.round_offsets.len()
            + out.tx_msg.len()
            + out.tx_from.len()
            + out.dest_offsets.len()
            + out.dests.len();
        gossip_telemetry::profile::count("csr_bytes", 4 * csr_words as u64);
        out
    }

    /// Number of processors the source schedule was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of rounds (the source schedule's makespan).
    #[inline]
    pub fn rounds(&self) -> usize {
        self.round_offsets.len() - 1
    }

    /// Total number of transmissions across all rounds.
    #[inline]
    pub fn tx_count(&self) -> usize {
        self.tx_msg.len()
    }

    /// Total number of deliveries (sum of destination-set sizes).
    #[inline]
    pub fn deliveries(&self) -> usize {
        self.dests.len()
    }

    /// The transmission index range of round `t`.
    #[inline]
    pub fn round_range(&self, t: usize) -> std::ops::Range<usize> {
        self.round_offsets[t] as usize..self.round_offsets[t + 1] as usize
    }

    /// The message id of transmission `i`.
    #[inline]
    pub fn msg_of(&self, i: usize) -> u32 {
        self.tx_msg[i]
    }

    /// The sender of transmission `i`.
    #[inline]
    pub fn from_of(&self, i: usize) -> u32 {
        self.tx_from[i]
    }

    /// The destination list of transmission `i` (same order as the source
    /// transmission's `to`).
    #[inline]
    pub fn dests_of(&self, i: usize) -> &[u32] {
        &self.dests[self.dest_offsets[i] as usize..self.dest_offsets[i + 1] as usize]
    }

    /// A stable fingerprint of the flattened schedule — the CSR arrays
    /// hashed in layout order — stamped into flight-record headers so
    /// `gossip diff` can tell whether two captures replayed the same
    /// schedule. Identical schedules digest identically regardless of
    /// which engine later executes them.
    pub fn digest(&self) -> u64 {
        let mut d = gossip_telemetry::flight::Digest::new();
        d.write_u64(self.n as u64);
        for arr in [
            &self.round_offsets,
            &self.tx_msg,
            &self.tx_from,
            &self.dest_offsets,
            &self.dests,
        ] {
            d.write_u64(arr.len() as u64);
            for &x in arr {
                d.write_u64(u64::from(x));
            }
        }
        d.finish()
    }

    /// Summary statistics — identical to [`Schedule::stats`] on the source
    /// schedule.
    pub fn stats(&self) -> ScheduleStats {
        ScheduleStats {
            n: self.n,
            makespan: self.rounds(),
            transmissions: self.tx_count(),
            deliveries: self.deliveries(),
            max_fanout: self.max_fanout,
            busiest_round: self.busiest_round,
        }
    }

    /// Round-parallel structural validation: every rule of the paper's §1
    /// model that does not depend on execution state — index ranges, empty
    /// and duplicate destinations, one send and one receive per processor
    /// per round (word-parallel dedup bitmaps), adjacency, and the
    /// model-specific fan-out restriction. The one state-dependent rule,
    /// sender-holds-message, is enforced by [`crate::SimKernel`] at replay.
    ///
    /// Rounds are checked concurrently; the reported error is the first
    /// failing rule of the earliest failing round. For a schedule whose
    /// earliest failing round only violates the hold-set rule, the oracle
    /// [`crate::Simulator`] and this pass therefore disagree on *which*
    /// error surfaces — use [`crate::SimKernel::run`] when byte-identical
    /// oracle errors matter.
    pub fn validate(&self, g: &Graph, model: CommModel, n_msgs: usize) -> Result<(), ModelError> {
        // Round checks run on rayon workers, so only the calling thread's
        // wall-clock wait is attributed (see the profiler's threading
        // caveat).
        let _phase = gossip_telemetry::profile::phase("validate");
        if self.n != g.n() {
            return Err(ModelError::SizeMismatch {
                graph_n: g.n(),
                schedule_n: self.n,
            });
        }
        let rules = RoundRules {
            g,
            model,
            n_msgs,
            hold_rule: false,
        };
        let words = self.n.div_ceil(64);
        (0..self.rounds())
            .into_par_iter()
            .map(|t| {
                let mut state = RoundBitmaps {
                    g,
                    sent: vec![0; words],
                    received: vec![0; words],
                };
                self.check_round(t, t, &rules, &mut state)
            })
            .collect::<Result<Vec<()>, ModelError>>()?;
        Ok(())
    }

    /// Checks every transmission of round `r` against `rules`, stamping
    /// errors with `time` — the one loop over a round that both
    /// [`FlatSchedule::validate`] and the kernel's checked modes share.
    pub(crate) fn check_round(
        &self,
        r: usize,
        time: usize,
        rules: &RoundRules<'_>,
        state: &mut impl RoundState,
    ) -> Result<(), ModelError> {
        for i in self.round_range(r) {
            let dests = self.dests_of(i).iter().map(|&d| d as usize);
            rules.check(state, time, self.tx_msg[i], self.tx_from[i] as usize, dests)?;
        }
        Ok(())
    }
}

/// One round's dedup bitmaps for the round-parallel validator; each rayon
/// worker owns its own, and adjacency comes from the graph's sorted
/// neighbour lists.
struct RoundBitmaps<'g> {
    g: &'g Graph,
    sent: Vec<u64>,
    received: Vec<u64>,
}

/// Sets bit `i` of `words`; `false` if it was already set.
#[inline]
fn claim_bit(words: &mut [u64], i: usize) -> bool {
    let (w, b) = (i / 64, 1u64 << (i % 64));
    let fresh = words[w] & b == 0;
    words[w] |= b;
    fresh
}

impl RoundState for RoundBitmaps<'_> {
    #[inline]
    fn claim_sender(&mut self, from: usize, _msg: u32) -> bool {
        claim_bit(&mut self.sent, from)
    }

    /// Structural validation never applies the hold rule.
    fn holds(&self, _from: usize, _msg: u32) -> bool {
        true
    }

    #[inline]
    fn adjacent(&self, from: usize, to: usize) -> bool {
        self.g.has_edge(from, to)
    }

    #[inline]
    fn claim_receiver(&mut self, to: usize) -> bool {
        claim_bit(&mut self.received, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Transmission;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

    fn ring_schedule(n: usize) -> Schedule {
        let mut s = Schedule::new(n);
        for t in 0..n - 1 {
            for p in 0..n {
                let msg = ((p + n - t) % n) as u32;
                s.add_transmission(t, Transmission::unicast(msg, p, (p + 1) % n));
            }
        }
        s
    }

    #[test]
    fn flattening_preserves_iteration_order_and_stats() {
        let s = ring_schedule(6);
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(flat.stats(), s.stats());
        let mut i = 0;
        for (t, tx) in s.iter() {
            assert!(flat.round_range(t).contains(&i));
            assert_eq!(flat.msg_of(i), tx.msg);
            assert_eq!(flat.from_of(i) as usize, tx.from);
            let dests: Vec<usize> = flat.dests_of(i).iter().map(|&d| d as usize).collect();
            assert_eq!(dests, tx.to);
            i += 1;
        }
        assert_eq!(i, flat.tx_count());
    }

    #[test]
    fn trailing_empty_rounds_dropped() {
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.rounds.resize_with(7, crate::round::CommRound::new);
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(flat.rounds(), 1);
        assert_eq!(flat.tx_count(), 1);
    }

    #[test]
    fn validate_accepts_ring_schedule() {
        let n = 8;
        let g = ring(n);
        let flat = FlatSchedule::from_schedule(&ring_schedule(n));
        assert!(flat.validate(&g, CommModel::Multicast, n).is_ok());
        // Telephone also holds (all unicasts); broadcast does not (degree 2).
        assert!(flat.validate(&g, CommModel::Telephone, n).is_ok());
        assert!(matches!(
            flat.validate(&g, CommModel::Broadcast, n).unwrap_err(),
            ModelError::ModelViolation { .. }
        ));
    }

    #[test]
    fn validate_reports_earliest_round_error() {
        let g = ring(4);
        let mut s = Schedule::new(4);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.add_transmission(2, Transmission::unicast(0, 0, 2)); // not adjacent
        s.add_transmission(5, Transmission::unicast(9, 0, 1)); // msg range
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(
            flat.validate(&g, CommModel::Multicast, 4).unwrap_err(),
            ModelError::NotAdjacent {
                round: 2,
                sender: 0,
                receiver: 2
            }
        );
    }

    #[test]
    fn validate_word_dedup_catches_conflicts() {
        let g = Graph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 2));
        s.add_transmission(0, Transmission::unicast(1, 1, 2));
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(
            flat.validate(&g, CommModel::Multicast, 3).unwrap_err(),
            ModelError::DuplicateReceiver {
                round: 0,
                receiver: 2
            }
        );
        let mut s2 = Schedule::new(3);
        s2.add_transmission(0, Transmission::unicast(0, 0, 2));
        s2.add_transmission(0, Transmission::unicast(0, 0, 2));
        let flat2 = FlatSchedule::from_schedule(&s2);
        assert_eq!(
            flat2.validate(&g, CommModel::Multicast, 3).unwrap_err(),
            ModelError::DuplicateSender {
                round: 0,
                sender: 0
            }
        );
    }

    #[test]
    fn validate_rejects_size_mismatch() {
        let g = ring(4);
        let flat = FlatSchedule::from_schedule(&Schedule::new(5));
        assert!(matches!(
            flat.validate(&g, CommModel::Multicast, 5).unwrap_err(),
            ModelError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn from_raw_parts_matches_from_schedule() {
        let s = ring_schedule(6);
        let flat = FlatSchedule::from_schedule(&s);
        let rebuilt = FlatSchedule::from_raw_parts(
            flat.n,
            flat.round_offsets.clone(),
            flat.tx_msg.clone(),
            flat.tx_from.clone(),
            flat.dest_offsets.clone(),
            flat.dests.clone(),
        );
        assert_eq!(rebuilt, flat);
        assert_eq!(rebuilt.digest(), flat.digest());
        assert_eq!(rebuilt.stats(), flat.stats());
    }

    #[test]
    fn from_raw_parts_empty() {
        let flat = FlatSchedule::from_raw_parts(4, vec![0], vec![], vec![], vec![0], vec![]);
        assert_eq!(flat.rounds(), 0);
        assert_eq!(flat, FlatSchedule::from_schedule(&Schedule::new(4)));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_raw_parts_rejects_descending_offsets() {
        FlatSchedule::from_raw_parts(
            2,
            vec![0, 2, 1, 2],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1, 2],
            vec![1, 0],
        );
    }

    #[test]
    #[should_panic(expected = "one destination range per transmission")]
    fn from_raw_parts_rejects_missing_dest_range() {
        FlatSchedule::from_raw_parts(2, vec![0, 1], vec![0], vec![0], vec![0], vec![]);
    }

    #[test]
    fn empty_schedule_flattens() {
        let flat = FlatSchedule::from_schedule(&Schedule::new(4));
        assert_eq!(flat.rounds(), 0);
        assert_eq!(flat.tx_count(), 0);
        assert_eq!(flat.stats().deliveries, 0);
        assert!(flat.validate(&ring(4), CommModel::Multicast, 4).is_ok());
    }
}
