//! Incremental schedule construction with immediate conflict checking.
//!
//! [`Schedule::add_transmission`] is append-only and unchecked — fine for
//! algorithms whose correctness is proven elsewhere, hostile for a user
//! assembling a schedule by hand (conflicts surface only at simulation
//! time, far from the mistake). [`ScheduleBuilder`] rejects an offending
//! insertion on the spot: duplicate senders, contested receivers,
//! non-edges, and hold-set violations (via incremental earliest-hold
//! tracking) are all reported with the exact round and processors involved.

use crate::error::ModelError;
use crate::models::CommModel;
use crate::round::Transmission;
use crate::rules::{RoundRules, RoundState};
use crate::schedule::Schedule;
use gossip_graph::Graph;
use std::collections::HashMap;

/// A checked, incremental builder for [`Schedule`].
///
/// # Examples
///
/// ```
/// use gossip_graph::Graph;
/// use gossip_model::{ScheduleBuilder, CommModel};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let mut b = ScheduleBuilder::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
/// b.send(0, 0, 0, &[1]).unwrap();          // t=0: 0 -> 1 (msg 0)
/// b.send(1, 0, 1, &[2]).unwrap();          // t=1: relay
/// assert!(b.send(0, 2, 0, &[1]).is_err()); // msg 2 not held by 0 at t=0
/// let schedule = b.finish();
/// assert_eq!(schedule.makespan(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleBuilder<'g> {
    g: &'g Graph,
    model: CommModel,
    n_msgs: usize,
    schedule: Schedule,
    /// `(proc, msg)` -> earliest hold time.
    earliest: HashMap<(usize, u32), usize>,
    /// `(proc, t)` -> already sending this round.
    send_busy: HashMap<(usize, usize), u32>,
    /// `(proc, t)` -> already receiving at time t (arrival slot).
    recv_busy: HashMap<(usize, usize), ()>,
}

impl<'g> ScheduleBuilder<'g> {
    /// Starts a builder over `g` with the given origin table
    /// (`origins[m]` = processor where message `m` starts; arbitrary
    /// multiplicity allowed).
    pub fn new(g: &'g Graph, model: CommModel, origins: &[usize]) -> Result<Self, ModelError> {
        let mut earliest = HashMap::new();
        for (m, &p) in origins.iter().enumerate() {
            if p >= g.n() {
                return Err(ModelError::BadOriginTable {
                    reason: format!("message {m} at out-of-range processor {p}"),
                });
            }
            earliest.insert((p, m as u32), 0);
        }
        Ok(ScheduleBuilder {
            g,
            model,
            n_msgs: origins.len(),
            schedule: Schedule::new(g.n()),
            earliest,
            send_busy: HashMap::new(),
            recv_busy: HashMap::new(),
        })
    }

    /// Adds a multicast of `msg` from `from` to `to` at round `t`,
    /// rejecting it (without state change) on any rule violation.
    ///
    /// Note: insertions may come in any time order; hold-set checking uses
    /// the earliest-known hold time, so inserting a *later* enabling
    /// transmission after a dependent one is rejected — insert in causal
    /// order.
    pub fn send(
        &mut self,
        t: usize,
        msg: u32,
        from: usize,
        to: &[usize],
    ) -> Result<(), ModelError> {
        let rules = RoundRules {
            g: self.g,
            model: self.model,
            n_msgs: self.n_msgs,
            hold_rule: true,
        };
        let mut pending = Pending {
            b: self,
            t,
            receivers: Vec::with_capacity(to.len()),
        };
        rules.check(&mut pending, t, msg, from, to.iter().copied())?;
        let tx = Transmission::new(msg, from, to.to_vec());
        // Commit.
        let widening = self.send_busy.insert((from, t), msg).is_some();
        for &d in &tx.to {
            self.recv_busy.insert((d, t + 1), ());
            let e = self.earliest.entry((d, msg)).or_insert(t + 1);
            *e = (*e).min(t + 1);
        }
        if widening {
            // Same sender, same round, same message: widen the existing
            // multicast rather than emitting a second transmission (which
            // the simulator would reject as a duplicate sender).
            let existing = self.schedule.rounds[t]
                .transmissions
                .iter_mut()
                .find(|x| x.from == from)
                .expect("send_busy implies a recorded transmission");
            let mut to = std::mem::take(&mut existing.to);
            to.extend_from_slice(&tx.to);
            to.sort_unstable();
            existing.to = to;
        } else {
            self.schedule.add_transmission(t, tx);
        }
        Ok(())
    }

    /// Whether `proc` holds `msg` at time `t` given the insertions so far.
    pub fn holds_at(&self, proc: usize, msg: u32, t: usize) -> bool {
        self.earliest.get(&(proc, msg)).is_some_and(|&h| h <= t)
    }

    /// Finalizes the schedule (trailing empty rounds trimmed).
    pub fn finish(mut self) -> Schedule {
        let _phase = gossip_telemetry::profile::phase("builder_finish");
        gossip_telemetry::profile::count(
            "transmissions",
            self.schedule.stats().transmissions as u64,
        );
        self.schedule.trim();
        self.schedule
    }
}

/// One [`ScheduleBuilder::send`] under check: the rules read the
/// builder's occupancy maps at round `t`, and receivers claimed by this
/// transmission stay local until it passes, so a rejected insertion leaves
/// the builder untouched.
struct Pending<'a, 'g> {
    b: &'a ScheduleBuilder<'g>,
    t: usize,
    receivers: Vec<usize>,
}

impl RoundState for Pending<'_, '_> {
    /// A sender may be named again in its round only to widen the same
    /// message's multicast.
    fn claim_sender(&mut self, from: usize, msg: u32) -> bool {
        self.b
            .send_busy
            .get(&(from, self.t))
            .is_none_or(|&m| m == msg)
    }

    fn holds(&self, from: usize, msg: u32) -> bool {
        self.b.holds_at(from, msg, self.t)
    }

    fn adjacent(&self, from: usize, to: usize) -> bool {
        self.b.g.has_edge(from, to)
    }

    fn claim_receiver(&mut self, to: usize) -> bool {
        if self.b.recv_busy.contains_key(&(to, self.t + 1)) || self.receivers.contains(&to) {
            return false;
        }
        self.receivers.push(to);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::simulate_gossip;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn builds_a_valid_gossip() {
        let g = path3();
        let mut b = ScheduleBuilder::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
        b.send(0, 1, 1, &[0, 2]).unwrap();
        b.send(0, 0, 0, &[1]).unwrap();
        b.send(1, 2, 2, &[1]).unwrap();
        b.send(1, 0, 1, &[2]).unwrap();
        b.send(2, 2, 1, &[0]).unwrap();
        let s = b.finish();
        let o = simulate_gossip(&g, &s, &[0, 1, 2]).unwrap();
        assert!(o.complete);
        assert_eq!(o.completion_time, Some(3));
    }

    #[test]
    fn rejects_unheld_message() {
        let g = path3();
        let mut b = ScheduleBuilder::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
        assert!(matches!(
            b.send(0, 2, 0, &[1]),
            Err(ModelError::MessageNotHeld { .. })
        ));
        // Held only from t=1 after this delivery:
        b.send(0, 2, 2, &[1]).unwrap();
        assert!(matches!(
            b.send(0, 2, 1, &[0]),
            Err(ModelError::MessageNotHeld { .. })
        ));
        b.send(1, 2, 1, &[0]).unwrap();
    }

    #[test]
    fn rejects_receiver_conflict() {
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        let mut b = ScheduleBuilder::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
        b.send(0, 0, 0, &[1]).unwrap();
        assert!(matches!(
            b.send(0, 2, 2, &[1]),
            Err(ModelError::DuplicateReceiver { .. })
        ));
    }

    #[test]
    fn rejects_sender_conflict_but_allows_same_message_widening() {
        let g = Graph::from_edges(3, &[(1, 0), (1, 2)]).unwrap();
        let mut b = ScheduleBuilder::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
        b.send(0, 1, 1, &[0]).unwrap();
        // Same round, same message, different destination: allowed (it is
        // one multicast split across two calls).
        b.send(0, 1, 1, &[2]).unwrap();
        // Different message: rejected.
        assert!(matches!(
            b.send(0, 0, 1, &[0]),
            Err(ModelError::DuplicateSender { .. })
        ));
        // The widened multicast is a single transmission the simulator accepts.
        let s = b.finish();
        assert_eq!(s.stats().transmissions, 1);
        assert_eq!(s.stats().deliveries, 2);
        let mut sim =
            crate::simulator::Simulator::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
        sim.run(&s).unwrap();
    }

    #[test]
    fn rejects_non_edges_and_bad_ids() {
        let g = path3();
        let mut b = ScheduleBuilder::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
        assert!(matches!(
            b.send(0, 0, 0, &[2]),
            Err(ModelError::NotAdjacent { .. })
        ));
        assert!(matches!(
            b.send(0, 0, 5, &[1]),
            Err(ModelError::ProcessorOutOfRange { .. })
        ));
        assert!(matches!(
            b.send(0, 0, 0, &[]),
            Err(ModelError::EmptyDestination { .. })
        ));
    }

    #[test]
    fn rejects_what_the_simulator_rejects() {
        let g = Graph::from_edges(4, &[(1, 0), (1, 2), (1, 3)]).unwrap();
        let mut b = ScheduleBuilder::new(&g, CommModel::Multicast, &[0, 1, 2, 3]).unwrap();
        assert!(matches!(
            b.send(0, 4, 1, &[0]),
            Err(ModelError::MessageOutOfRange { msg: 4, .. })
        ));
        // A receiver named twice, not back to back, in one destination set.
        assert!(matches!(
            b.send(0, 1, 1, &[0, 2, 0]),
            Err(ModelError::DuplicateReceiver { receiver: 0, .. })
        ));
        b.send(0, 1, 1, &[0, 2]).unwrap();
    }

    #[test]
    fn telephone_restriction_enforced() {
        let g = Graph::from_edges(3, &[(1, 0), (1, 2)]).unwrap();
        let mut b = ScheduleBuilder::new(&g, CommModel::Telephone, &[0, 1, 2]).unwrap();
        assert!(matches!(
            b.send(0, 1, 1, &[0, 2]),
            Err(ModelError::ModelViolation { .. })
        ));
        b.send(0, 1, 1, &[0]).unwrap();
    }

    #[test]
    fn holds_at_tracks_deliveries() {
        let g = path3();
        let mut b = ScheduleBuilder::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
        assert!(b.holds_at(0, 0, 0));
        assert!(!b.holds_at(1, 0, 0));
        b.send(0, 0, 0, &[1]).unwrap();
        assert!(b.holds_at(1, 0, 1));
        assert!(!b.holds_at(1, 0, 0));
    }

    #[test]
    fn failed_insert_leaves_state_untouched() {
        let g = path3();
        let mut b = ScheduleBuilder::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
        let _ = b.send(0, 2, 0, &[1]);
        // 0 still free to send at t=0 and 1 free to receive at t=1.
        b.send(0, 0, 0, &[1]).unwrap();
        let s = b.finish();
        assert_eq!(s.stats().transmissions, 1);
    }
}
