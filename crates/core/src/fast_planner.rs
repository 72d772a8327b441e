//! CSR-direct **ConcurrentUpDown**: the fast planner's generator.
//!
//! [`concurrent_updown`](crate::concurrent_updown) materializes a
//! `Vec`-of-`Vec` [`Schedule`](gossip_model::Schedule) (one allocation per
//! transmission plus a `BTreeMap` per vertex) and then flattens it; at
//! n = 10⁵ that intermediate representation is the dominant cost of
//! planning. This module emits the *same* schedule straight into
//! [`FlatSchedule`] CSR arenas with a **round-major sweep**:
//!
//! - [`FlatLabels`] packs the per-label parameters (`j`, `k`, parent, child
//!   lists) into flat arrays — the arena-backed replacement for
//!   [`LabelView`](crate::LabelView)'s `Vec<Vec<u32>>` children;
//! - the sweep visits rounds in order and, within a round, the senders in
//!   ascending label order, appending each transmission to the end of the
//!   CSR arrays — exactly the order [`FlatSchedule::from_schedule`]
//!   produces from the reference generator, with every write sequential;
//! - an internal vertex's Propagate-Up (U3/U4) and own-subtree (D3) events
//!   are functions of the round; its o-message forwards (D2) read the
//!   parent's down message of the previous round from a double-buffered
//!   per-label array (a parent's label is lower than its children's), and
//!   the two arrivals the busy window defers wait in two slots. State is
//!   O(n) in total, against the reference's Θ(n²) `recv_from_parent`
//!   table;
//! - a leaf sends exactly once (its own message, to its parent), so leaves
//!   are bucketed by that round and merged with the internal vertices by
//!   label;
//! - destination sets are slices of two per-label lists sorted by vertex
//!   id (the children, and the children plus the parent), or such a slice
//!   with one child dropped, so nothing is sorted while emitting;
//! - a **count pass** sizes every CSR array exactly, then an **emit pass**
//!   runs the same sweep and fills them. No re-allocation, no sort, no
//!   intermediate `Schedule`.
//!
//! On the same tree the two pipelines are **byte-identical** (same
//! [`digest`](FlatSchedule::digest)); the equivalence tests below and the
//! `planner_equivalence` suite pin that down.

use crate::concurrent::tree_origins;
use gossip_graph::{RootedTree, NO_PARENT};
use gossip_model::FlatSchedule;
use gossip_telemetry::{Recorder, RecorderExt};

/// The child part of a transmission's destination set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Down {
    /// Pure Propagate-Up send: no child destinations.
    No,
    /// All children: D2 forwards and the own-message D3.
    All,
    /// All children except the one (given by label) whose subtree contains
    /// the message: D3 for `m > i`.
    Except(u32),
}

/// The per-label parameter arena: everything the generator reads, packed
/// into flat arrays indexed by DFS label (children as CSR).
#[derive(Debug, Clone)]
pub struct FlatLabels {
    /// Subtree range end `j` per label (`i..=j` is the subtree).
    j: Vec<u32>,
    /// Level `k` per label (root = 0).
    k: Vec<u32>,
    /// Parent label per label; [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// Original vertex id per label.
    vertex: Vec<u32>,
    /// CSR offsets into `child_labels`, length n + 1.
    child_offsets: Vec<u32>,
    /// Children as labels, ascending within each vertex (DFS order).
    child_labels: Vec<u32>,
    /// Tree height (max level).
    height: u32,
}

impl FlatLabels {
    /// Packs `tree` into the flat label-space arena (the fast planner's
    /// `label_flat` phase).
    pub fn new(tree: &RootedTree) -> Self {
        let _phase = gossip_telemetry::profile::phase("label_flat");
        let n = tree.n();
        let mut j = Vec::with_capacity(n);
        let mut k = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        let mut vertex = Vec::with_capacity(n);
        let mut child_offsets = Vec::with_capacity(n + 1);
        let mut child_labels = Vec::with_capacity(n.saturating_sub(1));
        child_offsets.push(0u32);
        for label in 0..n as u32 {
            let v = tree.vertex_of_label(label);
            let (i0, j0) = tree.subtree_range(v);
            debug_assert_eq!(i0, label);
            j.push(j0);
            k.push(tree.level(v));
            parent.push(match tree.parent(v) {
                Some(p) => tree.label(p),
                None => NO_PARENT,
            });
            vertex.push(v as u32);
            for &c in tree.children(v) {
                child_labels.push(tree.label(c as usize));
            }
            child_offsets.push(child_labels.len() as u32);
        }
        debug_assert!(
            child_offsets
                .windows(2)
                .all(|w| child_labels[w[0] as usize..w[1] as usize].is_sorted()),
            "DFS child labels must ascend within each vertex"
        );
        FlatLabels {
            j,
            k,
            parent,
            vertex,
            child_offsets,
            child_labels,
            height: tree.height(),
        }
    }

    /// Number of vertices (= messages).
    #[inline]
    pub fn n(&self) -> usize {
        self.vertex.len()
    }

    /// Tree height.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Subtree range end `j` of `label`.
    #[inline]
    fn j(&self, label: u32) -> u32 {
        self.j[label as usize]
    }

    /// Level `k` of `label`.
    #[inline]
    fn k(&self, label: u32) -> u32 {
        self.k[label as usize]
    }

    /// Parent label of `label` ([`NO_PARENT`] for the root).
    #[inline]
    fn parent(&self, label: u32) -> u32 {
        self.parent[label as usize]
    }

    /// Original vertex id of `label`.
    #[inline]
    fn vertex(&self, label: u32) -> u32 {
        self.vertex[label as usize]
    }

    /// Children of `label` as labels, ascending.
    #[inline]
    fn children(&self, label: u32) -> &[u32] {
        let lo = self.child_offsets[label as usize] as usize;
        let hi = self.child_offsets[label as usize + 1] as usize;
        &self.child_labels[lo..hi]
    }

    /// The origin table for the simulator (same as
    /// [`tree_origins`](crate::tree_origins)).
    pub fn origins(&self) -> Vec<usize> {
        self.vertex.iter().map(|&v| v as usize).collect()
    }
}

/// No message: an empty slot in the `down` arrays or a deferred-forward
/// slot.
const NONE: u32 = u32::MAX;

/// One internal vertex's sweep state.
///
/// The Propagate-Up (U3/U4) and own-subtree (D3) events are functions of
/// the round alone; only the containing-child cursor and the two deferred
/// D2 forwards carry over from one round to the next.
struct Internal {
    /// Label `i`.
    i: u32,
    /// Subtree range end `j`.
    j: u32,
    /// Level `k`.
    k: u32,
    /// Parent label; [`NO_PARENT`] for the root.
    parent: u32,
    /// (U3) the lip-message `i` goes up at round 0 (`i = i' + 1`).
    lip: bool,
    /// (U4) rip-message `m = t + k` goes up at round `t` for
    /// `m ∈ [rip_lo, j]`; empty (`rip_lo > j`) for the root.
    rip_lo: u32,
    /// (D3) round of the own message: `i - k`, or `j - k + 1` when `i = k`.
    own_t: u32,
    /// Index (into the children) of the child whose subtree holds the
    /// current D3 message. D3 messages `m > i` ascend with the round and
    /// the child subtree ranges partition `(i, j]`, so it only advances.
    child_idx: usize,
    /// (D2) arrivals at rounds `i - k` and `i - k + 1`, sent at `j - k + 1`
    /// and `j - k + 2`.
    deferred: [u32; 2],
}

impl Internal {
    fn new(fl: &FlatLabels, i: u32) -> Self {
        let (j, k, parent) = (fl.j(i), fl.k(i), fl.parent(i));
        let is_root = parent == NO_PARENT;
        Internal {
            i,
            j,
            k,
            parent,
            lip: !is_root && i == parent + 1,
            rip_lo: if is_root { j + 1 } else { i.max(parent + 2) },
            own_t: if i == k { j - k + 1 } else { i - k },
            child_idx: 0,
            deferred: [NONE; 2],
        }
    }

    /// Round `t` at this vertex: takes the parent's round `t - 1` down
    /// message (`arrival`), reports at most one transmission to `sink`,
    /// and returns this round's down message for the children ([`NONE`]
    /// when there is none). A D3 event enters the down stream even when
    /// its transmission is suppressed: the children filter own-subtree
    /// messages, so it costs them nothing.
    fn step<S: Sink>(&mut self, fl: &FlatLabels, t: u32, arrival: u32, sink: &mut S) -> u32 {
        let (i, j, k) = (self.i, self.j, self.k);
        // (D2) an o-message from the parent is forwarded on arrival unless
        // it lands in the busy window's first two rounds.
        let mut fwd = NONE;
        if arrival != NONE && !(i..=j).contains(&arrival) {
            if t == i - k {
                self.deferred[0] = arrival;
            } else if t == i - k + 1 {
                self.deferred[1] = arrival;
            } else {
                fwd = arrival;
            }
        }
        if let Some(slot) = t.checked_sub(j - k + 1).filter(|&d| d < 2) {
            let late = std::mem::replace(&mut self.deferred[slot as usize], NONE);
            if late != NONE {
                debug_assert_eq!(fwd, NONE, "vertex {i} scheduled two forwards at round {t}");
                fwd = late;
            }
        }
        let m = t + k;
        let up = if t == 0 && self.lip {
            i
        } else if (self.rip_lo..=j).contains(&m) {
            m
        } else {
            NONE
        };
        let own = if t == self.own_t {
            i
        } else if m > i && m <= j {
            m
        } else {
            NONE
        };

        if fwd != NONE {
            debug_assert!(
                up == NONE && own == NONE,
                "vertex {i} scheduled a forward and another message at round {t}"
            );
            sink.tx(i, fwd, false, Down::All);
            return fwd;
        }
        if own == NONE {
            if up != NONE {
                sink.tx(i, up, true, Down::No);
            }
            return NONE;
        }
        let kids = fl.children(i);
        let down = if own == i {
            Down::All
        } else {
            while fl.j(kids[self.child_idx]) < own {
                self.child_idx += 1;
            }
            Down::Except(kids[self.child_idx])
        };
        if up != NONE {
            // U4 + D3 merge: both carry the same message.
            debug_assert_eq!(up, own, "U4/D3 disagree at vertex {i} round {t}");
            sink.tx(i, own, true, down);
        } else if own == i || kids.len() > 1 {
            // D3 alone, suppressed when the only child is the one whose
            // subtree holds the message.
            sink.tx(i, own, false, down);
        }
        own
    }
}

/// Where the sweep reports transmissions: a counting pass and a writing
/// pass run the same [`sweep`], so their event sequences are identical by
/// construction.
trait Sink {
    /// Vertex `label` sends `msg` this round, to its parent when
    /// `to_parent` and to the children selected by `down`.
    fn tx(&mut self, label: u32, msg: u32, to_parent: bool, down: Down);
    /// The current round is complete.
    fn end_round(&mut self);
}

/// Sweeps rounds `0..rounds` in order and, within each round, the senders
/// in ascending label order — the reference flatten's order — reporting
/// every transmission to `sink`.
///
/// Internal vertices are visited every round. A leaf sends exactly once,
/// its own message to its parent: at round 0 when it is a lip-message
/// (`i = i' + 1`), otherwise at `i - k` (U4). Leaves are bucketed by that
/// round and merged with the internal vertices by label.
fn sweep<S: Sink>(fl: &FlatLabels, rounds: usize, sink: &mut S) {
    let n = fl.n();
    let mut internals: Vec<Internal> = Vec::new();
    let mut leaf_offsets = vec![0u32; rounds + 1];
    let leaf_round = |i: u32| {
        if i == fl.parent(i) + 1 {
            0
        } else {
            (i - fl.k(i)) as usize
        }
    };
    for i in 0..n as u32 {
        if fl.children(i).is_empty() {
            leaf_offsets[leaf_round(i) + 1] += 1;
        } else {
            internals.push(Internal::new(fl, i));
        }
    }
    for t in 0..rounds {
        leaf_offsets[t + 1] += leaf_offsets[t];
    }
    let mut leaves = vec![0u32; leaf_offsets[rounds] as usize];
    let mut fill = leaf_offsets.clone();
    for i in (0..n as u32).filter(|&i| fl.children(i).is_empty()) {
        let t = leaf_round(i);
        leaves[fill[t] as usize] = i;
        fill[t] += 1;
    }

    // `down_prev[label]`: the vertex's down message of the previous round,
    // read by its children; `down_cur` collects this round's. Only
    // internal vertices ever write either array.
    let mut down_prev = vec![NONE; n];
    let mut down_cur = vec![NONE; n];
    for t in 0..rounds {
        let bucket = &leaves[leaf_offsets[t] as usize..leaf_offsets[t + 1] as usize];
        let mut next_leaf = 0;
        for v in &mut internals {
            while let Some(&leaf) = bucket.get(next_leaf).filter(|&&l| l < v.i) {
                sink.tx(leaf, leaf, true, Down::No);
                next_leaf += 1;
            }
            let arrival = if v.parent == NO_PARENT {
                NONE
            } else {
                down_prev[v.parent as usize]
            };
            down_cur[v.i as usize] = v.step(fl, t as u32, arrival, sink);
        }
        for &leaf in &bucket[next_leaf..] {
            sink.tx(leaf, leaf, true, Down::No);
        }
        sink.end_round();
        std::mem::swap(&mut down_prev, &mut down_cur);
    }
    debug_assert!(
        internals.iter().all(|v| v.deferred == [NONE; 2]),
        "a deferred forward was never sent"
    );
}

/// The count pass: exact transmission and delivery totals, the merged
/// U4 + D3 multicasts, and the number of rounds up to the last send.
struct Count<'a> {
    fl: &'a FlatLabels,
    transmissions: u64,
    deliveries: u64,
    merged_multicasts: u64,
    /// Rounds ended so far.
    round: usize,
    /// Rounds up to and including the last one that sent.
    rounds: usize,
}

impl Sink for Count<'_> {
    fn tx(&mut self, label: u32, _msg: u32, to_parent: bool, down: Down) {
        let nc = self.fl.children(label).len() as u64;
        let child_dc = match down {
            Down::No => 0,
            Down::All => nc,
            Down::Except(_) => nc - 1,
        };
        self.transmissions += 1;
        self.deliveries += to_parent as u64 + child_dc;
        if to_parent && child_dc > 0 {
            self.merged_multicasts += 1;
        }
        self.rounds = self.round + 1;
    }

    fn end_round(&mut self) {
        self.round += 1;
    }
}

/// One destination list per label, ascending by vertex id (the order
/// `Transmission::new` normalizes destination sets to, which the kernel
/// binary-searches), as CSR. The emit pass keeps two: the children alone,
/// and the children plus the parent. Every destination set the sweep
/// emits is one of these lists or one with a single child dropped, so it
/// copies slices and never sorts.
struct DestList {
    /// CSR offsets into `items`, length n + 1.
    offsets: Vec<u32>,
    items: Vec<u32>,
    /// Per child label: its position in its parent's list.
    at: Vec<u32>,
}

impl DestList {
    /// The children of every label, plus the parent of every internal
    /// non-root label when `with_parent`. Vertices are appended to the
    /// lists they belong to in ascending id order, so each list is built
    /// sorted.
    fn new(fl: &FlatLabels, with_parent: bool) -> Self {
        let n = fl.n();
        let lists_parent =
            |i: u32| with_parent && !fl.children(i).is_empty() && fl.parent(i) != NO_PARENT;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for i in 0..n as u32 {
            let len = fl.children(i).len() as u32 + lists_parent(i) as u32;
            offsets.push(offsets[i as usize] + len);
        }
        let mut fill = offsets[..n].to_vec();
        let mut items = vec![0; offsets[n] as usize];
        let mut at = vec![0; n];
        let mut label_of = vec![0u32; n];
        for i in 0..n as u32 {
            label_of[fl.vertex(i) as usize] = i;
        }
        for (v, &i) in label_of.iter().enumerate() {
            let p = fl.parent(i);
            if p != NO_PARENT {
                let slot = &mut fill[p as usize];
                at[i as usize] = *slot - offsets[p as usize];
                items[*slot as usize] = v as u32;
                *slot += 1;
            }
            for &c in fl.children(i) {
                if lists_parent(c) {
                    items[fill[c as usize] as usize] = v as u32;
                    fill[c as usize] += 1;
                }
            }
        }
        DestList { offsets, items, at }
    }

    fn of(&self, label: u32) -> &[u32] {
        &self.items
            [self.offsets[label as usize] as usize..self.offsets[label as usize + 1] as usize]
    }
}

/// The emit pass: appends every transmission to the CSR arrays, which the
/// count pass sized exactly.
struct Emit<'a> {
    fl: &'a FlatLabels,
    kids: DestList,
    kids_up: DestList,
    round_offsets: Vec<u32>,
    tx_msg: Vec<u32>,
    tx_from: Vec<u32>,
    dest_offsets: Vec<u32>,
    dests: Vec<u32>,
}

impl Sink for Emit<'_> {
    fn tx(&mut self, label: u32, msg: u32, to_parent: bool, down: Down) {
        self.tx_msg.push(msg);
        self.tx_from.push(self.fl.vertex(label));
        let lists = if to_parent { &self.kids_up } else { &self.kids };
        match down {
            Down::No => self.dests.push(self.fl.vertex(self.fl.parent(label))),
            Down::All => self.dests.extend_from_slice(lists.of(label)),
            Down::Except(c) => {
                let (list, at) = (lists.of(label), lists.at[c as usize] as usize);
                self.dests.extend_from_slice(&list[..at]);
                self.dests.extend_from_slice(&list[at + 1..]);
            }
        }
        self.dest_offsets.push(self.dests.len() as u32);
    }

    fn end_round(&mut self) {
        self.round_offsets.push(self.tx_msg.len() as u32);
    }
}

/// CSR-direct ConcurrentUpDown on a prebuilt [`FlatLabels`] arena.
///
/// Byte-identical to `FlatSchedule::from_schedule(&concurrent_updown(tree))`
/// on the same tree, in O(output) time and O(output + n) memory.
///
/// # Panics
///
/// Panics when the schedule exceeds `u32` CSR offsets (more than
/// `u32::MAX - 1` transmissions or deliveries — gossiping delivers exactly
/// `n(n-1)` messages, so this caps at n = 65536).
pub fn concurrent_updown_flat_on(fl: &FlatLabels, recorder: &dyn Recorder) -> FlatSchedule {
    let _span = recorder.span("concurrent_updown_flat");
    let _phase = gossip_telemetry::profile::phase("generate_csr");
    let n = fl.n();
    if n <= 1 {
        return FlatSchedule::from_raw_parts(
            n,
            vec![0],
            Vec::new(),
            Vec::new(),
            vec![0],
            Vec::new(),
        );
    }

    // Pass 1: exact sizes. The makespan is exactly n + r (Theorem 1), so
    // the last send fires at t = n + r - 1; sweep a couple of slack rounds
    // and keep the rounds up to the last send.
    let mut count = Count {
        fl,
        transmissions: 0,
        deliveries: 0,
        merged_multicasts: 0,
        round: 0,
        rounds: 0,
    };
    let limit = n + fl.height() as usize + 2;
    {
        let _count = gossip_telemetry::profile::phase("count_pass");
        sweep(fl, limit, &mut count);
    }
    let (tx_total, deliv_total, rounds) = (count.transmissions, count.deliveries, count.rounds);
    assert!(
        rounds < limit,
        "schedule still sending in round {limit} - 1, past n + r"
    );
    assert!(
        tx_total < u32::MAX as u64 && deliv_total < u32::MAX as u64,
        "schedule too large to flatten: {tx_total} transmissions / {deliv_total} \
         deliveries overflow u32 CSR offsets"
    );

    // Pass 2: the same sweep appends every transmission in round-major,
    // ascending-sender order, so each CSR array is written sequentially.
    let emit = {
        let _emit = gossip_telemetry::profile::phase("emit_pass");
        let mut emit = Emit {
            fl,
            kids: DestList::new(fl, false),
            kids_up: DestList::new(fl, true),
            round_offsets: Vec::with_capacity(rounds + 1),
            tx_msg: Vec::with_capacity(tx_total as usize),
            tx_from: Vec::with_capacity(tx_total as usize),
            dest_offsets: Vec::with_capacity(tx_total as usize + 1),
            dests: Vec::with_capacity(deliv_total as usize),
        };
        emit.round_offsets.push(0);
        emit.dest_offsets.push(0);
        sweep(fl, rounds, &mut emit);
        emit
    };
    debug_assert_eq!(emit.tx_msg.len() as u64, tx_total);
    debug_assert_eq!(emit.dests.len() as u64, deliv_total);
    let Emit {
        round_offsets,
        tx_msg,
        tx_from,
        dest_offsets,
        dests,
        ..
    } = emit;

    gossip_telemetry::profile::count("transmissions", tx_total);
    if recorder.enabled() {
        recorder.counter("generate/transmissions", tx_total);
        recorder.counter("generate/deliveries", deliv_total);
        recorder.counter("generate/merged_multicasts", count.merged_multicasts);
        recorder.gauge("generate/makespan", rounds as f64);
    }
    FlatSchedule::from_raw_parts(n, round_offsets, tx_msg, tx_from, dest_offsets, dests)
}

/// Builds the ConcurrentUpDown schedule for `tree` directly in
/// [`FlatSchedule`] form — equal (including [`FlatSchedule::digest`]) to
/// flattening [`concurrent_updown`](crate::concurrent_updown), without ever
/// materializing the intermediate `Schedule`. Records the `label_flat` and
/// `generate_csr` (`count_pass` / `emit_pass`) phases plus the same
/// `generate/*` counters the reference generator records.
///
/// # Examples
///
/// ```
/// use gossip_graph::{RootedTree, NO_PARENT};
/// use gossip_core::{concurrent_updown, concurrent_updown_flat};
/// use gossip_model::FlatSchedule;
/// use gossip_telemetry::NoopRecorder;
///
/// let tree = RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2, 3]).unwrap();
/// let fast = concurrent_updown_flat(&tree, &NoopRecorder);
/// let reference = FlatSchedule::from_schedule(&concurrent_updown(&tree));
/// assert_eq!(fast, reference);
/// ```
pub fn concurrent_updown_flat(tree: &RootedTree, recorder: &dyn Recorder) -> FlatSchedule {
    let labels = {
        let _s = recorder.span("labeling");
        FlatLabels::new(tree)
    };
    concurrent_updown_flat_on(&labels, recorder)
}

/// A complete fast-path gossip plan: like
/// [`GossipPlan`](crate::GossipPlan) but carrying the schedule in flat CSR
/// form (the `Vec`-of-`Vec` `Schedule` is never built).
#[derive(Debug, Clone)]
pub struct FastGossipPlan {
    /// The minimum-depth spanning tree all communication runs on.
    pub tree: RootedTree,
    /// The communication schedule, CSR-flat, in vertex space.
    pub schedule: FlatSchedule,
    /// `origin_of_message[m]` = the processor whose message is labeled `m`.
    pub origin_of_message: Vec<usize>,
    /// The network radius `r` (= tree height).
    pub radius: u32,
}

impl FastGossipPlan {
    /// The schedule's total communication time.
    pub fn makespan(&self) -> usize {
        self.schedule.rounds()
    }

    /// The paper's guarantee for this plan: `n + r`.
    pub fn guarantee(&self) -> usize {
        if self.tree.n() <= 1 {
            0
        } else {
            self.tree.n() + self.radius as usize
        }
    }
}

/// Builds a [`FastGossipPlan`] on a caller-supplied spanning tree.
pub(crate) fn fast_plan_on_tree(tree: RootedTree, recorder: &dyn Recorder) -> FastGossipPlan {
    let schedule = concurrent_updown_flat(&tree, recorder);
    FastGossipPlan {
        origin_of_message: tree_origins(&tree),
        radius: tree.height(),
        tree,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::concurrent_updown;
    use gossip_graph::NO_PARENT;
    use gossip_model::CommModel;
    use gossip_telemetry::NoopRecorder;

    fn fig5() -> RootedTree {
        let mut p = vec![0u32; 16];
        for (v, par) in [
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 0),
            (5, 4),
            (6, 5),
            (7, 5),
            (8, 4),
            (9, 8),
            (10, 8),
            (11, 0),
            (12, 11),
            (13, 12),
            (14, 12),
            (15, 11),
        ] {
            p[v] = par;
        }
        p[0] = NO_PARENT;
        RootedTree::from_parents(0, &p).unwrap()
    }

    fn assert_matches_reference(tree: &RootedTree) {
        let fast = concurrent_updown_flat(tree, &NoopRecorder);
        let reference = FlatSchedule::from_schedule(&concurrent_updown(tree));
        assert_eq!(fast, reference, "CSR mismatch on {tree:?}");
        assert_eq!(fast.digest(), reference.digest());
        fast.validate(&tree.to_graph(), CommModel::Multicast, tree.n())
            .expect("fast schedule must validate");
    }

    #[test]
    fn matches_reference_flatten_on_fig5() {
        let tree = fig5();
        assert_matches_reference(&tree);
        let fast = concurrent_updown_flat(&tree, &NoopRecorder);
        assert_eq!(fast.rounds(), 16 + 3); // n + r
    }

    #[test]
    fn matches_reference_on_structured_trees() {
        // Path of 7 rooted at the center.
        assert_matches_reference(
            &RootedTree::from_parents(3, &[1, 2, 3, NO_PARENT, 3, 4, 5]).unwrap(),
        );
        // Path of 5 rooted at an end (every vertex on the leftmost path:
        // exercises the i = k exception at every level).
        assert_matches_reference(&RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2, 3]).unwrap());
        // Star (every non-root a leaf; the root multicasts everything).
        let mut star = vec![0u32; 9];
        star[0] = NO_PARENT;
        assert_matches_reference(&RootedTree::from_parents(0, &star).unwrap());
        // Caterpillar: spine 0-1-2-3, one leaf per spine vertex.
        assert_matches_reference(
            &RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2, 0, 1, 2, 3]).unwrap(),
        );
        // Permuted vertex ids: label space != vertex space.
        assert_matches_reference(&RootedTree::from_parents(2, &[2, 0, NO_PARENT, 2, 3]).unwrap());
        // Pair.
        assert_matches_reference(&RootedTree::from_parents(0, &[NO_PARENT, 0]).unwrap());
    }

    #[test]
    fn matches_reference_on_synthetic_families() {
        // Binary-ish heap shapes and skewed mixed trees, a few hundred
        // vertices: deep D2 deferral chains and single-child vertices.
        for n in [33usize, 100, 257] {
            let mut p: Vec<u32> = (0..n).map(|v| (v.saturating_sub(1) / 2) as u32).collect();
            p[0] = NO_PARENT;
            assert_matches_reference(&RootedTree::from_parents(0, &p).unwrap());

            // Mixed: alternate chain and fan parents.
            let mut q: Vec<u32> = Vec::with_capacity(n);
            q.push(NO_PARENT);
            for v in 1..n {
                let par = if v % 3 == 0 { v - 1 } else { v / 3 };
                q.push(par as u32);
            }
            assert_matches_reference(&RootedTree::from_parents(0, &q).unwrap());
        }
    }

    #[test]
    fn singleton_is_empty() {
        let t = RootedTree::from_parents(0, &[NO_PARENT]).unwrap();
        let fast = concurrent_updown_flat(&t, &NoopRecorder);
        assert_eq!(fast.rounds(), 0);
        assert_eq!(fast.tx_count(), 0);
        assert_eq!(fast, FlatSchedule::from_schedule(&concurrent_updown(&t)));
    }

    #[test]
    fn flat_labels_round_trip() {
        let tree = fig5();
        let fl = FlatLabels::new(&tree);
        assert_eq!(fl.n(), 16);
        assert_eq!(fl.height(), 3);
        assert_eq!(fl.children(0), &[1, 4, 11]);
        assert_eq!(fl.children(4), &[5, 8]);
        assert_eq!(fl.children(3), &[] as &[u32]);
        assert_eq!(fl.j(4), 10);
        assert_eq!(fl.k(8), 2);
        assert_eq!(fl.parent(0), NO_PARENT);
        assert_eq!(fl.parent(5), 4);
        assert_eq!(fl.origins(), tree_origins(&tree));
    }
}
