//! The bitset simulation kernel: word-parallel replay of flat schedules.
//!
//! [`crate::Simulator`] is the oracle — it executes [`crate::Schedule`]s
//! tuple by tuple and is the semantics every other executor is checked
//! against. [`SimKernel`] is the fast path: the same rules, the same
//! errors, the same hold-set evolution, but over a [`FlatSchedule`] with
//!
//! - knowledge sets as one flat `Vec<u64>` arena (`n` rows of
//!   `ceil(n_msgs / 64)` words; union is a word-wise OR, the completion
//!   check a popcount-maintained counter);
//! - adjacency as a precomputed bitmap, so the rule-3 check is one AND
//!   instead of a binary search over neighbour lists;
//! - per-round send/receive dedup via round-stamped tables, exactly as the
//!   oracle.
//!
//! The rules are the crate's single structural check (`rules.rs`, shared
//! with [`FlatSchedule::validate`]), run in the oracle's exact
//! per-transmission order, so any invalid schedule is rejected with the
//! *identical* [`ModelError`] the oracle produces (the differential suite
//! in `tests/` enforces this). When a schedule has already passed the
//! rayon structural pass [`FlatSchedule::validate`],
//! [`SimKernel::run_prevalidated`] skips the structural checks and replays
//! with only the state-dependent hold-set rule plus the word-OR applies —
//! the amortized replay mode benchmarks and the recovery executor use.
//!
//! Strict, prevalidated and lossy replay, with or without a recorder, all
//! run through one per-round driver; the public `run*` methods only pick
//! the mode and the recorder.
//!
//! Lossy mode ([`SimKernel::run_lossy`]) replicates the oracle's
//! [`crate::Simulator::step_lossy`] bit for bit, including its in-round
//! hold-set visibility: the apply pass mutates hold rows while walking the
//! round's transmissions, so a `NotHeld` classification sees deliveries
//! that landed earlier in the same round. Fault suppression is evaluated
//! per delivery against the [`FaultPlan`] at the kernel's absolute round
//! index, keeping multi-epoch recovery replays deterministic.

use crate::bitset::BitSet;
use crate::error::ModelError;
use crate::fault_plan::FaultPlan;
use crate::flat_schedule::FlatSchedule;
use crate::lossy::{LossCause, LossyOutcome, LostDelivery};
use crate::models::CommModel;
use crate::rules::{hold_rule, RoundRules, RoundState};
use crate::simulator::SimOutcome;
use gossip_graph::Graph;
use gossip_telemetry::{NoopRecorder, Recorder, RunEvent};

/// Word-parallel schedule replayer over flat hold-set and adjacency
/// bitmaps. Mirrors the [`crate::Simulator`] API where the two overlap.
#[derive(Debug, Clone)]
pub struct SimKernel<'g> {
    g: &'g Graph,
    model: CommModel,
    n: usize,
    n_msgs: usize,
    /// Words per hold row (`ceil(n_msgs / 64)`).
    hold_words: usize,
    /// `n * hold_words` arena; row `v` is `hold[v * hold_words ..][..hold_words]`.
    hold: Vec<u64>,
    /// Words per adjacency row (`ceil(n / 64)`).
    adj_words: usize,
    /// `n * adj_words` adjacency bitmap.
    adj: Vec<u64>,
    time: usize,
    send_stamp: Vec<u64>,
    recv_stamp: Vec<u64>,
    round_stamp: u64,
    known_pairs: usize,
}

impl<'g> SimKernel<'g> {
    /// Creates a kernel where message `m` initially resides only at
    /// processor `origin_of_message[m]` — the same permutation-origin
    /// contract (and errors) as [`crate::Simulator::new`].
    pub fn new(
        g: &'g Graph,
        model: CommModel,
        origin_of_message: &[usize],
    ) -> Result<Self, ModelError> {
        let n = g.n();
        if origin_of_message.len() != n {
            return Err(ModelError::BadOriginTable {
                reason: format!("{} origins for {n} processors", origin_of_message.len()),
            });
        }
        let mut seen = vec![false; n];
        for (m, &p) in origin_of_message.iter().enumerate() {
            if p < n && seen.get(p).copied().unwrap_or(false) {
                return Err(ModelError::BadOriginTable {
                    reason: format!("processor {p} originates two messages (message {m})"),
                });
            }
            if p < n {
                seen[p] = true;
            }
        }
        Self::with_origins(g, model, origin_of_message)
    }

    /// Creates a kernel over an arbitrary origin table (the
    /// weighted/pipelined setting), mirroring
    /// [`crate::Simulator::with_origins`].
    pub fn with_origins(
        g: &'g Graph,
        model: CommModel,
        origins: &[usize],
    ) -> Result<Self, ModelError> {
        let n = g.n();
        let n_msgs = origins.len();
        let hold_words = n_msgs.div_ceil(64);
        let mut hold = vec![0u64; n * hold_words];
        let mut known_pairs = 0;
        for (m, &p) in origins.iter().enumerate() {
            if p >= n {
                return Err(ModelError::BadOriginTable {
                    reason: format!("message {m} originates at out-of-range processor {p}"),
                });
            }
            let slot = p * hold_words + m / 64;
            let bit = 1u64 << (m % 64);
            if hold[slot] & bit == 0 {
                hold[slot] |= bit;
                known_pairs += 1;
            }
        }
        Ok(Self::assemble(g, model, n_msgs, hold, known_pairs))
    }

    /// Creates a kernel whose knowledge is seeded from explicit hold sets
    /// — one [`BitSet`] per processor, all with the same capacity (which
    /// becomes `n_msgs`) — with its clock at absolute round `time`. This
    /// resumes replay from a mid-run state: when the topology changes the
    /// kernel must be rebuilt over the patched graph, but the processors'
    /// accumulated knowledge and the run's round count persist.
    pub fn with_holds(
        g: &'g Graph,
        model: CommModel,
        holds: &[BitSet],
        time: usize,
    ) -> Result<Self, ModelError> {
        let n = g.n();
        if holds.len() != n {
            return Err(ModelError::BadOriginTable {
                reason: format!("{} hold sets for {n} processors", holds.len()),
            });
        }
        let n_msgs = holds.first().map_or(0, BitSet::capacity);
        if holds.iter().any(|h| h.capacity() != n_msgs) {
            return Err(ModelError::BadOriginTable {
                reason: "hold sets have mixed capacities".to_string(),
            });
        }
        let hold_words = n_msgs.div_ceil(64);
        let mut hold = vec![0u64; n * hold_words];
        let mut known_pairs = 0;
        for (p, h) in holds.iter().enumerate() {
            let row = p * hold_words;
            hold[row..row + h.words().len()].copy_from_slice(h.words());
            known_pairs += h.len();
        }
        let mut kernel = Self::assemble(g, model, n_msgs, hold, known_pairs);
        kernel.time = time;
        Ok(kernel)
    }

    /// Wraps a seeded hold arena with `g`'s adjacency bitmap and fresh
    /// dedup tables at time 0.
    fn assemble(
        g: &'g Graph,
        model: CommModel,
        n_msgs: usize,
        hold: Vec<u64>,
        known_pairs: usize,
    ) -> Self {
        let n = g.n();
        let adj_words = n.div_ceil(64);
        let mut adj = vec![0u64; n * adj_words];
        for v in 0..n {
            let row = v * adj_words;
            for u in g.neighbors(v) {
                adj[row + u / 64] |= 1u64 << (u % 64);
            }
        }
        SimKernel {
            g,
            model,
            n,
            n_msgs,
            hold_words: n_msgs.div_ceil(64),
            hold,
            adj_words,
            adj,
            time: 0,
            send_stamp: vec![0; n],
            recv_stamp: vec![0; n],
            round_stamp: 0,
            known_pairs,
        }
    }

    /// The current time (number of rounds executed).
    #[inline]
    pub fn time(&self) -> usize {
        self.time
    }

    /// Number of messages in flight.
    #[inline]
    pub fn n_msgs(&self) -> usize {
        self.n_msgs
    }

    /// Whether processor `p` currently holds message `m`. Out-of-range
    /// pairs are never held.
    #[inline]
    pub fn contains(&self, p: usize, m: usize) -> bool {
        p < self.n && m < self.n_msgs && row_bit(&self.hold, self.hold_words, p, m)
    }

    /// The raw hold-row words of processor `p` (bits at or above `n_msgs`
    /// are always zero).
    #[inline]
    pub fn hold_row(&self, p: usize) -> &[u64] {
        &self.hold[p * self.hold_words..(p + 1) * self.hold_words]
    }

    /// The hold set of processor `p` as a [`BitSet`], for oracle-parity
    /// comparisons and handoff to [`BitSet`]-based consumers.
    pub fn hold_bitset(&self, p: usize) -> BitSet {
        BitSet::from_words(self.hold_row(p).to_vec(), self.n_msgs)
    }

    /// All hold sets, indexed by processor — the shape
    /// `gossip_core::recovery::plan_completion` consumes.
    pub fn hold_bitsets(&self) -> Vec<BitSet> {
        (0..self.n).map(|p| self.hold_bitset(p)).collect()
    }

    /// Whether every processor holds every message (O(1): the kernel
    /// maintains the known-pair popcount incrementally).
    #[inline]
    pub fn gossip_complete(&self) -> bool {
        self.known_pairs == self.n * self.n_msgs
    }

    /// Number of (processor, message) pairs currently known.
    #[inline]
    pub fn known_pairs(&self) -> usize {
        self.known_pairs
    }

    /// Fraction of all (processor, message) pairs currently known.
    pub fn coverage(&self) -> f64 {
        let total = self.n * self.n_msgs;
        if total == 0 {
            1.0
        } else {
            self.known_pairs as f64 / total as f64
        }
    }

    /// Executes round `r` of `flat` with full rule validation in the
    /// oracle's exact check order; on error the kernel state is unchanged.
    /// Errors are stamped with the kernel's absolute time, exactly as
    /// [`crate::Simulator::step`].
    pub fn step_round(&mut self, flat: &FlatSchedule, r: usize) -> Result<(), ModelError> {
        self.step(flat, r, &mut Mode::Strict).map(drop)
    }

    /// Executes round `r` of `flat` under `plan`, degrading on
    /// fault-induced failures exactly as [`crate::Simulator::step_lossy`]:
    /// structural violations error with state unchanged, the hold-set rule
    /// becomes a recorded [`LossCause::NotHeld`] cascade, and the loss log
    /// receives identical entries in identical order. Returns deliveries
    /// that landed.
    pub fn step_round_lossy(
        &mut self,
        flat: &FlatSchedule,
        r: usize,
        plan: &FaultPlan,
        lost: &mut Vec<LostDelivery>,
    ) -> Result<usize, ModelError> {
        self.step(flat, r, &mut Mode::Lossy { plan, lost })
    }

    /// Runs a whole flat schedule with full validation — the kernel-side
    /// equivalent of [`crate::Simulator::run`], producing the identical
    /// [`SimOutcome`] (or the identical first [`ModelError`]).
    pub fn run(&mut self, flat: &FlatSchedule) -> Result<SimOutcome, ModelError> {
        self.run_recorded(flat, &NoopRecorder)
    }

    /// Runs a flat schedule that already passed [`FlatSchedule::validate`]
    /// for this kernel's graph, model, and message count — skips the
    /// structural checks and replays with hold-rule checks plus word-OR
    /// applies only. Calling this on a schedule that was *not* validated
    /// can silently apply structurally illegal rounds; it never corrupts
    /// memory (all index arithmetic stays bounds-checked) but forfeits
    /// oracle parity.
    pub fn run_prevalidated(&mut self, flat: &FlatSchedule) -> Result<SimOutcome, ModelError> {
        self.run_clean(flat, Mode::Prevalidated, &NoopRecorder)
    }

    /// Runs a whole flat schedule with full validation, streaming live
    /// instrumentation into `recorder` — the clean-run counterpart of
    /// [`SimKernel::run_lossy_recorded`]: per round a `round_start` /
    /// `round_end` event pair, `exec/deliveries` counters, and the
    /// knowledge-curve gauges `round_current` / `known_pairs`. Recorders
    /// that opt into `wants_transmissions` (the flight recorder) also get
    /// every transmission as it executes. With a disabled recorder this is
    /// exactly [`SimKernel::run`].
    pub fn run_recorded(
        &mut self,
        flat: &FlatSchedule,
        recorder: &dyn Recorder,
    ) -> Result<SimOutcome, ModelError> {
        self.run_clean(flat, Mode::Strict, recorder)
    }

    fn run_clean(
        &mut self,
        flat: &FlatSchedule,
        mode: Mode<'_>,
        recorder: &dyn Recorder,
    ) -> Result<SimOutcome, ModelError> {
        let replay = self.drive(flat, mode, recorder)?;
        Ok(SimOutcome {
            complete: self.gossip_complete(),
            rounds_executed: flat.rounds(),
            completion_time: replay.completion_time,
            stats: flat.stats(),
        })
    }

    /// Runs a whole flat schedule under `plan` from the kernel's current
    /// time — the kernel-side equivalent of [`crate::Simulator::run_lossy`]
    /// (absolute rounds index the fault plan, so one kernel carried across
    /// repair epochs keeps sampling the same deterministic fault sequence).
    pub fn run_lossy(
        &mut self,
        flat: &FlatSchedule,
        plan: &FaultPlan,
        lost: &mut Vec<LostDelivery>,
    ) -> Result<LossyOutcome, ModelError> {
        self.run_lossy_recorded(flat, plan, lost, &NoopRecorder)
    }

    /// [`SimKernel::run_lossy`] with live instrumentation: per round a
    /// `round_start`/`round_end` event pair, a `loss` event per lost
    /// delivery (with its cause label), `exec/deliveries` /
    /// `exec/losses` / per-cause `exec/lost/<cause>` counters, and the
    /// knowledge-curve gauges `round_current` / `known_pairs`. Recorders
    /// that opt into `wants_transmissions` (the flight recorder) also get
    /// every attempted transmission. With a disabled recorder this is
    /// exactly [`SimKernel::run_lossy`].
    pub fn run_lossy_recorded(
        &mut self,
        flat: &FlatSchedule,
        plan: &FaultPlan,
        lost: &mut Vec<LostDelivery>,
        recorder: &dyn Recorder,
    ) -> Result<LossyOutcome, ModelError> {
        let before = lost.len();
        let replay = self.drive(flat, Mode::Lossy { plan, lost }, recorder)?;
        Ok(LossyOutcome {
            rounds_executed: flat.rounds(),
            delivered: replay.delivered,
            lost: lost.len() - before,
            complete_among_alive: self.residual_count(plan) == 0,
        })
    }

    /// The one loop over rounds: executes every round of `flat` in `mode`
    /// from the kernel's current time, reporting each round to `recorder`
    /// when it is enabled.
    fn drive(
        &mut self,
        flat: &FlatSchedule,
        mut mode: Mode<'_>,
        recorder: &dyn Recorder,
    ) -> Result<Replay, ModelError> {
        if flat.n() != self.n {
            return Err(ModelError::SizeMismatch {
                graph_n: self.n,
                schedule_n: flat.n(),
            });
        }
        let recorder = Some(recorder).filter(|r| r.enabled());
        let wants_tx = recorder.is_some_and(|r| r.wants_transmissions());
        let mut replay = Replay {
            delivered: 0,
            completion_time: self.gossip_complete().then_some(self.time),
        };
        for r in 0..flat.rounds() {
            let t = self.time;
            if let Some(rec) = recorder {
                rec.event(RunEvent::RoundStart { round: t as u64 });
                if wants_tx {
                    // Every *attempt* is captured, including transmissions
                    // whose deliveries are all suppressed — the matching
                    // `loss` events record which ones, so replay is txs
                    // minus losses.
                    for i in flat.round_range(r) {
                        rec.transmission(t, flat.msg_of(i), flat.from_of(i), flat.dests_of(i));
                    }
                }
            }
            let lost_before = mode.lost().map_or(0, <[_]>::len);
            let delivered = self.step(flat, r, &mut mode)?;
            replay.delivered += delivered;
            if replay.completion_time.is_none() && self.gossip_complete() {
                replay.completion_time = Some(self.time);
            }
            if let Some(rec) = recorder {
                let losses = mode.lost().map(|l| &l[lost_before..]);
                self.record_round_end(rec, t, delivered, losses);
            }
        }
        Ok(replay)
    }

    /// Executes round `r` of `flat` in `mode`: checks the whole round, then
    /// applies it, so on error the kernel state is unchanged. Returns the
    /// deliveries that landed.
    fn step(
        &mut self,
        flat: &FlatSchedule,
        r: usize,
        mode: &mut Mode<'_>,
    ) -> Result<usize, ModelError> {
        let t = self.time;
        if let Mode::Prevalidated = mode {
            // Structure was established by `FlatSchedule::validate`; only
            // the execution-state rule remains.
            for i in flat.round_range(r) {
                let (from, msg) = (flat.from_of(i) as usize, flat.msg_of(i));
                hold_rule(self.contains(from, msg as usize), t, from, msg)?;
            }
        } else {
            self.round_stamp += 1;
            let rules = RoundRules {
                g: self.g,
                model: self.model,
                n_msgs: self.n_msgs,
                hold_rule: matches!(mode, Mode::Strict),
            };
            let mut state = KernelRound {
                stamp: self.round_stamp,
                send_stamp: &mut self.send_stamp,
                recv_stamp: &mut self.recv_stamp,
                adj: &self.adj,
                adj_words: self.adj_words,
                hold: &self.hold,
                hold_words: self.hold_words,
            };
            flat.check_round(r, t, &rules, &mut state)?;
        }
        let delivered = match mode {
            Mode::Lossy { plan, lost } => self.apply_lossy(flat, r, plan, lost),
            _ => self.apply(flat, r),
        };
        self.time += 1;
        Ok(delivered)
    }

    /// Applies every delivery of a checked round (word-OR per delivery).
    /// Kept out of line so the hot delivery loop gets registers of its own
    /// rather than sharing them with the inlined rule checks.
    #[inline(never)]
    fn apply(&mut self, flat: &FlatSchedule, r: usize) -> usize {
        let mut delivered = 0;
        for i in flat.round_range(r) {
            let m = flat.msg_of(i) as usize;
            let (w, b) = (m / 64, 1u64 << (m % 64));
            let dests = flat.dests_of(i);
            for &d in dests {
                self.deliver(d as usize * self.hold_words + w, b);
            }
            delivered += dests.len();
        }
        delivered
    }

    /// Applies a checked round under `plan`: deliveries land unless a fault
    /// condition intercepts. Hold rows mutate in transmission order, so the
    /// `NotHeld` classification sees earlier same-round deliveries — the
    /// oracle's exact in-round visibility.
    fn apply_lossy(
        &mut self,
        flat: &FlatSchedule,
        r: usize,
        plan: &FaultPlan,
        lost: &mut Vec<LostDelivery>,
    ) -> usize {
        let t = self.time;
        let mut delivered = 0;
        for i in flat.round_range(r) {
            let from = flat.from_of(i) as usize;
            let msg = flat.msg_of(i);
            let m = msg as usize;
            let (w, b) = (m / 64, 1u64 << (m % 64));
            let whole_tx_cause = if plan.is_crashed(from, t) {
                Some(LossCause::SenderCrashed)
            } else if !self.contains(from, m) {
                Some(LossCause::NotHeld)
            } else {
                None
            };
            for &d32 in flat.dests_of(i) {
                let d = d32 as usize;
                let cause = whole_tx_cause.or_else(|| {
                    if plan.is_crashed(d, t) {
                        Some(LossCause::ReceiverCrashed)
                    } else if plan.link_down(from, d, t) {
                        Some(LossCause::LinkDown)
                    } else if plan.loses(t, from, d) {
                        Some(LossCause::Sampled)
                    } else {
                        None
                    }
                });
                match cause {
                    Some(cause) => lost.push(LostDelivery {
                        round: t,
                        msg,
                        from,
                        to: d,
                        cause,
                    }),
                    None => {
                        self.deliver(d * self.hold_words + w, b);
                        delivered += 1;
                    }
                }
            }
        }
        delivered
    }

    /// ORs `bit` into hold word `slot`, counting a newly known pair.
    #[inline]
    fn deliver(&mut self, slot: usize, bit: u64) {
        let newly = self.hold[slot] & bit == 0;
        self.hold[slot] |= bit;
        self.known_pairs += newly as usize;
    }

    /// Streams the end of round `t` to `recorder`: the round's losses (in
    /// lossy mode), counters, knowledge-curve gauges, and `round_end`.
    fn record_round_end(
        &self,
        recorder: &dyn Recorder,
        t: usize,
        delivered: usize,
        losses: Option<&[LostDelivery]>,
    ) {
        for l in losses.unwrap_or_default() {
            recorder.counter(&format!("exec/lost/{}", l.cause.label()), 1);
            recorder.event(RunEvent::Loss {
                round: l.round as u64,
                msg: u64::from(l.msg),
                from: l.from as u64,
                to: l.to as u64,
                cause: l.cause.label(),
            });
        }
        recorder.counter("exec/deliveries", delivered as u64);
        if let Some(l) = losses {
            recorder.counter("exec/losses", l.len() as u64);
        }
        recorder.gauge("round_current", self.time as f64);
        recorder.gauge("known_pairs", self.known_pairs as f64);
        recorder.event(RunEvent::RoundEnd {
            round: t as u64,
            delivered: delivered as u64,
            lost: losses.map(|l| l.len() as u64),
            known_pairs: self.known_pairs as u64,
        });
    }

    /// The missing (message, vertex) pairs among processors still alive at
    /// the current time, in the oracle's (vertex-major, message-ascending)
    /// order — extracted by a word-level complement walk instead of a
    /// per-pair probe.
    pub fn residual(&self, plan: &FaultPlan) -> Vec<(u32, usize)> {
        let alive = plan.alive_at(self.n, self.time);
        let tail = self.n_msgs % 64;
        let mut out = Vec::new();
        for (v, &v_alive) in alive.iter().enumerate() {
            if !v_alive {
                continue;
            }
            for (wi, &word) in self.hold_row(v).iter().enumerate() {
                let mut missing = !word;
                if tail != 0 && wi == self.hold_words - 1 {
                    missing &= (1u64 << tail) - 1;
                }
                while missing != 0 {
                    let m = wi * 64 + missing.trailing_zeros() as usize;
                    missing &= missing - 1;
                    out.push((m as u32, v));
                }
            }
        }
        out
    }

    /// Number of missing (message, vertex) pairs among alive processors —
    /// popcount only, no materialization.
    pub fn residual_count(&self, plan: &FaultPlan) -> usize {
        let alive = plan.alive_at(self.n, self.time);
        (0..self.n)
            .filter(|&v| alive[v])
            .map(|v| {
                let held: usize = self
                    .hold_row(v)
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum();
                self.n_msgs - held
            })
            .sum()
    }
}

/// How a replay treats each round's rules and deliveries.
enum Mode<'a> {
    /// Every rule, the hold rule included, errors.
    Strict,
    /// The schedule already passed [`FlatSchedule::validate`]; only the
    /// hold rule is checked.
    Prevalidated,
    /// Structural rules error; the hold rule and `plan`'s faults turn
    /// deliveries into entries of `lost`.
    Lossy {
        plan: &'a FaultPlan,
        lost: &'a mut Vec<LostDelivery>,
    },
}

impl Mode<'_> {
    /// The loss log, in lossy mode.
    fn lost(&self) -> Option<&[LostDelivery]> {
        match self {
            Mode::Lossy { lost, .. } => Some(lost),
            _ => None,
        }
    }
}

/// What [`SimKernel::drive`] established beyond the kernel's own state.
struct Replay {
    delivered: usize,
    completion_time: Option<usize>,
}

/// The kernel's per-round view for [`RoundRules::check`]: round-stamped
/// dedup tables, the adjacency bitmap, and the hold arena.
struct KernelRound<'k> {
    stamp: u64,
    send_stamp: &'k mut [u64],
    recv_stamp: &'k mut [u64],
    adj: &'k [u64],
    adj_words: usize,
    hold: &'k [u64],
    hold_words: usize,
}

/// Bit `col` of row `row` in a row-major bitmap with `words` words per row.
#[inline]
fn row_bit(bits: &[u64], words: usize, row: usize, col: usize) -> bool {
    bits[row * words + col / 64] & (1u64 << (col % 64)) != 0
}

impl RoundState for KernelRound<'_> {
    #[inline]
    fn claim_sender(&mut self, from: usize, _msg: u32) -> bool {
        std::mem::replace(&mut self.send_stamp[from], self.stamp) != self.stamp
    }

    #[inline]
    fn holds(&self, from: usize, msg: u32) -> bool {
        row_bit(self.hold, self.hold_words, from, msg as usize)
    }

    #[inline]
    fn adjacent(&self, from: usize, to: usize) -> bool {
        row_bit(self.adj, self.adj_words, from, to)
    }

    #[inline]
    fn claim_receiver(&mut self, to: usize) -> bool {
        std::mem::replace(&mut self.recv_stamp[to], self.stamp) != self.stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Transmission;
    use crate::schedule::Schedule;
    use crate::simulator::Simulator;

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

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn ring_replay_matches_oracle_outcome() {
        let n = 8;
        let g = ring(n);
        let s = ring_schedule(n);
        let flat = FlatSchedule::from_schedule(&s);
        let mut oracle = Simulator::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let want = oracle.run(&s).unwrap();
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let got = k.run(&flat).unwrap();
        assert_eq!(got, want);
        assert!(k.gossip_complete());
        for v in 0..n {
            assert_eq!(k.hold_bitset(v), oracle.holds(v).clone());
        }
    }

    #[test]
    fn prevalidated_replay_matches_full_run() {
        let n = 8;
        let g = ring(n);
        let flat = FlatSchedule::from_schedule(&ring_schedule(n));
        flat.validate(&g, CommModel::Multicast, n).unwrap();
        let mut full = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let mut fast = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let a = full.run(&flat).unwrap();
        let b = fast.run_prevalidated(&flat).unwrap();
        assert_eq!(a, b);
        assert_eq!(full.hold_bitsets(), fast.hold_bitsets());
    }

    #[test]
    fn rejects_unheld_message_like_oracle() {
        let g = ring(3);
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(1, 0, 1));
        let flat = FlatSchedule::from_schedule(&s);
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(3)).unwrap();
        let err = k.run(&flat).unwrap_err();
        let want = Simulator::new(&g, CommModel::Multicast, &identity(3))
            .unwrap()
            .run(&s)
            .unwrap_err();
        assert_eq!(err, want);
        // State unchanged on error: sender 0 still lacks message 1.
        assert_eq!(k.time(), 0);
        assert!(!k.contains(0, 1));
    }

    #[test]
    fn failed_round_leaves_state_unchanged() {
        let g = Graph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 2));
        s.add_transmission(0, Transmission::unicast(1, 1, 2));
        let flat = FlatSchedule::from_schedule(&s);
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(3)).unwrap();
        assert_eq!(
            k.run(&flat).unwrap_err(),
            ModelError::DuplicateReceiver {
                round: 0,
                receiver: 2
            }
        );
        assert!(!k.contains(2, 0));
        assert_eq!(k.time(), 0);
    }

    #[test]
    fn lossy_replay_matches_oracle() {
        let n = 8;
        let g = ring(n);
        let s = ring_schedule(n);
        let flat = FlatSchedule::from_schedule(&s);
        let plan = FaultPlan::new(42).with_loss_rate(0.3).with_crash(3, 4);
        let mut oracle = Simulator::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let mut want_lost = Vec::new();
        let want = oracle.run_lossy(&s, &plan, &mut want_lost).unwrap();
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let mut got_lost = Vec::new();
        let got = k.run_lossy(&flat, &plan, &mut got_lost).unwrap();
        assert_eq!(got, want);
        assert_eq!(got_lost, want_lost);
        assert_eq!(k.residual(&plan), oracle.residual(&plan));
        assert_eq!(k.residual_count(&plan), oracle.residual(&plan).len());
        for v in 0..n {
            assert_eq!(k.hold_bitset(v), oracle.holds(v).clone());
        }
    }

    #[test]
    fn absolute_rounds_survive_split_replay() {
        let n = 8;
        let g = ring(n);
        let s = ring_schedule(n);
        let plan = FaultPlan::new(123).with_loss_rate(0.3);
        let run = |split: usize| {
            let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
            let mut lost = Vec::new();
            let mut first = Schedule::new(n);
            let mut second = Schedule::new(n);
            for (t, tx) in s.iter() {
                if t < split {
                    first.add_transmission(t, tx.clone());
                } else {
                    second.add_transmission(t - split, tx.clone());
                }
            }
            k.run_lossy(&FlatSchedule::from_schedule(&first), &plan, &mut lost)
                .unwrap();
            k.run_lossy(&FlatSchedule::from_schedule(&second), &plan, &mut lost)
                .unwrap();
            (lost, k.hold_bitsets())
        };
        assert_eq!(run(7), run(3));
    }

    #[test]
    fn with_holds_resumes_a_split_run() {
        let n = 8;
        let g = ring(n);
        let s = ring_schedule(n);
        let split = 4;
        let mut first = Schedule::new(n);
        let mut second = Schedule::new(n);
        for (t, tx) in s.iter() {
            if t < split {
                first.add_transmission(t, tx.clone());
            } else {
                second.add_transmission(t - split, tx.clone());
            }
        }
        let mut whole = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        whole.run(&FlatSchedule::from_schedule(&s)).unwrap();
        let mut head = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        head.run(&FlatSchedule::from_schedule(&first)).unwrap();
        // Rebuild a fresh kernel from the mid-run hold sets (as the churn
        // executor does across a topology patch) and finish the run.
        let mid = head.hold_bitsets();
        let mut tail = SimKernel::with_holds(&g, CommModel::Multicast, &mid, head.time()).unwrap();
        tail.run(&FlatSchedule::from_schedule(&second)).unwrap();
        assert_eq!(tail.time(), whole.time(), "the resumed clock is absolute");
        assert_eq!(tail.hold_bitsets(), whole.hold_bitsets());
        assert_eq!(tail.known_pairs(), whole.known_pairs());
        assert!(tail.gossip_complete());
    }

    #[test]
    fn with_holds_rejects_bad_shapes() {
        let g = ring(3);
        let short = vec![BitSet::new(3); 2];
        assert!(SimKernel::with_holds(&g, CommModel::Multicast, &short, 0).is_err());
        let mixed = vec![BitSet::new(3), BitSet::new(3), BitSet::new(4)];
        assert!(SimKernel::with_holds(&g, CommModel::Multicast, &mixed, 0).is_err());
    }

    #[test]
    fn origin_table_errors_match_oracle() {
        let g = ring(3);
        for bad in [vec![0usize, 0, 1], vec![0, 1], vec![0, 1, 3]] {
            let k = SimKernel::new(&g, CommModel::Multicast, &bad).map(|_| ());
            let s = Simulator::new(&g, CommModel::Multicast, &bad).map(|_| ());
            assert_eq!(k.unwrap_err(), s.unwrap_err());
        }
    }

    #[test]
    fn size_mismatch_rejected() {
        let g = ring(3);
        let flat = FlatSchedule::from_schedule(&Schedule::new(4));
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(3)).unwrap();
        assert!(matches!(
            k.run(&flat).unwrap_err(),
            ModelError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn singleton_and_empty_edge_cases() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let flat = FlatSchedule::from_schedule(&Schedule::new(1));
        let mut k = SimKernel::new(&g, CommModel::Multicast, &[0]).unwrap();
        let out = k.run(&flat).unwrap();
        assert!(out.complete);
        assert_eq!(out.completion_time, Some(0));
        assert!((k.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wide_message_space_crosses_word_boundaries() {
        // 130 messages on a 3-path: hold rows span 3 words; exercise the
        // tail-masking in residual().
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let origins: Vec<usize> = (0..130).map(|m| m % 3).collect();
        let mut k = SimKernel::with_origins(&g, CommModel::Multicast, &origins).unwrap();
        let mut oracle = Simulator::with_origins(&g, CommModel::Multicast, &origins).unwrap();
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(64, 1, 0));
        s.add_transmission(0, Transmission::unicast(129, 0, 1));
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(k.run(&flat).unwrap(), oracle.run(&s).unwrap());
        assert_eq!(
            k.residual(&FaultPlan::none()),
            oracle.residual(&FaultPlan::none())
        );
    }
}
