//! The paper's per-round rules, written once for every production checker.
//!
//! A transmission is legal when its sender and message exist, its
//! destination set is non-empty and allowed by the fan-out model, and it
//! names only distinct neighbours of the sender; within a round every
//! processor sends at most once and receives at most once; and, when
//! execution state is tracked, the sender holds what it sends.
//! [`RoundRules::check`] applies these rules in the oracle
//! [`crate::Simulator`]'s exact order, so every caller reports the
//! identical first [`ModelError`]:
//!
//! sender range → message range → empty destination set → duplicate
//! sender → (hold rule) → fan-out model → per destination: range →
//! duplicate destination → adjacency → duplicate receiver.
//!
//! Callers differ only in the per-round state they bring ([`RoundState`]):
//! [`crate::FlatSchedule::validate`] uses per-round dedup bitmaps and the
//! graph's adjacency lists (one round per rayon worker), [`crate::SimKernel`]
//! round-stamped dedup tables and its adjacency bitmap, and
//! [`crate::ScheduleBuilder`] its incremental occupancy maps. The oracle
//! keeps its own copy of the rules as the independent spec.

use crate::error::ModelError;
use crate::models::CommModel;
use gossip_graph::Graph;

/// Per-round bookkeeping a caller of [`RoundRules::check`] provides.
pub(crate) trait RoundState {
    /// Records `from` as a sender of `msg` this round; `false` if that
    /// breaks the one-send rule.
    fn claim_sender(&mut self, from: usize, msg: u32) -> bool;

    /// Whether `from` holds `msg`; consulted only when the hold rule is on.
    fn holds(&self, from: usize, msg: u32) -> bool;

    /// Whether `to` is a neighbour of `from`.
    fn adjacent(&self, from: usize, to: usize) -> bool;

    /// Records `to` as receiving this round; `false` if that breaks the
    /// one-receive rule.
    fn claim_receiver(&mut self, to: usize) -> bool;
}

/// What a round is checked against: the network, its fan-out model, the
/// message count, and whether the hold rule applies (strict replay) or not
/// (structural validation and lossy replay, where faults legitimately
/// break relay chains).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundRules<'g> {
    pub g: &'g Graph,
    pub model: CommModel,
    pub n_msgs: usize,
    pub hold_rule: bool,
}

impl RoundRules<'_> {
    /// Checks one transmission of `msg` from `from` to `dests`, sent at
    /// `round` (the time stamped into any error).
    #[inline]
    pub fn check<S: RoundState>(
        &self,
        state: &mut S,
        round: usize,
        msg: u32,
        from: usize,
        dests: impl ExactSizeIterator<Item = usize>,
    ) -> Result<(), ModelError> {
        let n = self.g.n();
        if from >= n {
            return Err(ModelError::ProcessorOutOfRange {
                round,
                proc: from,
                n,
            });
        }
        if msg as usize >= self.n_msgs {
            return Err(ModelError::MessageOutOfRange {
                round,
                msg,
                n: self.n_msgs,
            });
        }
        if dests.len() == 0 {
            return Err(ModelError::EmptyDestination {
                round,
                sender: from,
            });
        }
        if !state.claim_sender(from, msg) {
            return Err(ModelError::DuplicateSender {
                round,
                sender: from,
            });
        }
        if self.hold_rule {
            hold_rule(state.holds(from, msg), round, from, msg)?;
        }
        self.model
            .check_fanout(self.g.degree(from), dests.len())
            .map_err(|reason| ModelError::ModelViolation {
                round,
                sender: from,
                reason,
            })?;
        let mut prev: Option<usize> = None;
        for d in dests {
            if d >= n {
                return Err(ModelError::ProcessorOutOfRange { round, proc: d, n });
            }
            if prev == Some(d) {
                return Err(ModelError::DuplicateDestination {
                    round,
                    sender: from,
                    receiver: d,
                });
            }
            prev = Some(d);
            if !state.adjacent(from, d) {
                return Err(ModelError::NotAdjacent {
                    round,
                    sender: from,
                    receiver: d,
                });
            }
            if !state.claim_receiver(d) {
                return Err(ModelError::DuplicateReceiver { round, receiver: d });
            }
        }
        Ok(())
    }
}

/// The hold rule on its own: `from` may send `msg` at `round` only if it
/// holds it. Replay of an already validated schedule checks nothing else.
#[inline]
pub(crate) fn hold_rule(held: bool, round: usize, from: usize, msg: u32) -> Result<(), ModelError> {
    if held {
        Ok(())
    } else {
        Err(ModelError::MessageNotHeld {
            round,
            sender: from,
            msg,
        })
    }
}
