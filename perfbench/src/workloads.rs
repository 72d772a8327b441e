//! The three workloads: input generation from the run seed, the op each one
//! times, the correctness checks on every op's outputs, and the probes a
//! traced run adds outside the op.

use crate::trace::Tracer;
use gossip_core::{
    concurrent_updown_flat_on, plan_completion, FlatLabels, GossipPlan, GossipPlanner,
    RecoveryReport, ResilientExecutor, DEFAULT_MAX_EPOCHS,
};
use gossip_graph::{min_depth_spanning_tree_fast, ChildOrder, Graph, RootedTree};
use gossip_model::{CommModel, FaultPlan, FlatSchedule, SimKernel};
use gossip_telemetry::flight::Digest;
use gossip_telemetry::profile::{Profile, Profiler};
use gossip_telemetry::{
    AlertEngine, FlightHeader, FlightLog, FlightRecord, FlightRecorder, NoopRecorder, RuleSet,
};
use std::collections::BTreeMap;

/// Input size: the benchmark's own, or a tiny one for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Per-op layer values that are not span times (counts, ratios, sizes).
pub type Layer = BTreeMap<&'static str, f64>;

/// What the end-to-end metrics need from one checked op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Facts {
    /// Makespan over the Theorem 1 bound `n + r`.
    pub rounds_over_bound: f64,
    /// Repair deliveries attempted.
    pub repair_attempted: u64,
    /// Deliveries lost.
    pub lost: u64,
}

/// One workload. Inputs are generated per `rep` from the run seed; ops
/// rotate over the inputs. `op` is the only timed call.
pub trait Workload {
    type Input;
    type Check;
    type Output;

    /// How many inputs a run generates; ops rotate over them, and each is
    /// built just before the first op that uses it.
    fn inputs(&self) -> u64 {
        3
    }
    /// How many set-ups a run times for `setup_s`, at least one per input:
    /// the inputs as they are built, then repeats after the ops until there
    /// are this many.
    fn setup_samples(&self) -> u64 {
        9
    }
    /// Generates input number `rep` (graph, and fault plans where used).
    fn setup(&self, seed: u64, rep: u64) -> Self::Input;
    /// Untimed facts the checks compare against (e.g. the graph radius).
    fn reference(&self, input: &Self::Input) -> Result<Self::Check, String>;
    /// The timed op. Spans go to `t` when tracing, other layer values to
    /// `layer`.
    fn op(
        &self,
        input: &Self::Input,
        t: &mut Tracer,
        layer: &mut Layer,
    ) -> Result<Self::Output, String>;
    /// Checks one op's outputs. Runs after the op's clock stopped; traced
    /// runs also record their out-of-op probes here.
    fn check(
        &self,
        input: &Self::Input,
        reference: &mut Self::Check,
        out: &Self::Output,
        t: &mut Tracer,
        layer: &mut Layer,
    ) -> Result<Facts, String>;
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Graphs and the radius certificate.

/// Scalar BFS distances from `s` (`u32::MAX` = unreached).
fn bfs_dist(g: &Graph, s: usize, dist: &mut Vec<u32>, queue: &mut Vec<u32>) {
    dist.clear();
    dist.resize(g.n(), u32::MAX);
    queue.clear();
    dist[s] = 0;
    queue.push(s as u32);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head] as usize;
        head += 1;
        let dv = dist[v] + 1;
        for &u in g.neighbors_raw(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = dv;
                queue.push(u);
            }
        }
    }
}

/// The exact radius of a connected graph, computed independently of the
/// planner: eccentricity lower bounds `lb[v] = max_s d(s, v)` from BFS
/// sweeps, each sweep started at the vertex with the smallest bound (whose
/// eccentricity it makes exact) and followed by one from that vertex's
/// farthest vertex, until no bound is below the best exact eccentricity.
pub fn certified_radius(g: &Graph) -> Result<u32, String> {
    let n = g.n();
    if n == 0 {
        return Err("empty graph".into());
    }
    let mut lb = vec![0u32; n];
    let mut exact = vec![false; n];
    let mut best = u32::MAX;
    let (mut dist, mut queue) = (Vec::new(), Vec::new());
    let mut sweep = |s: usize, lb: &mut [u32]| -> Result<(u32, usize), String> {
        bfs_dist(g, s, &mut dist, &mut queue);
        if queue.len() != n {
            return Err("graph is disconnected".into());
        }
        let far = *queue.last().expect("non-empty") as usize;
        for (b, &d) in lb.iter_mut().zip(&dist) {
            *b = (*b).max(d);
        }
        Ok((dist[far], far))
    };
    loop {
        let (v, &low) = lb
            .iter()
            .enumerate()
            .filter(|&(v, _)| !exact[v])
            .min_by_key(|&(v, &b)| (b, v))
            .map_or((usize::MAX, &u32::MAX), |x| x);
        if v == usize::MAX || low >= best {
            return Ok(best);
        }
        let (ecc, far) = sweep(v, &mut lb)?;
        exact[v] = true;
        lb[v] = ecc;
        best = best.min(ecc);
        if !exact[far] {
            let (ecc_far, _) = sweep(far, &mut lb)?;
            exact[far] = true;
            lb[far] = ecc_far;
            best = best.min(ecc_far);
        }
    }
}

/// The tree sweep's work counters from the phase profiler: BFS sweeps run
/// and candidate roots pruned after the first filter, per vertex.
fn tree_counters(p: &Profile, n: usize, layer: &mut Layer) {
    let per_vertex = |name| p.named_counter(name) as f64 / n as f64;
    layer.insert(
        "graph.tree_fast.prune_ratio",
        per_vertex("candidates_pruned"),
    );
    layer.insert("graph.tree_fast.sweep_ratio", per_vertex("bfs_sweeps"));
}

/// Checks, independently of the tree type's own validation, that `tree`
/// spans `g`: every non-root vertex hangs off a graph neighbour one level
/// up. Returns the height.
fn check_spanning(g: &Graph, tree: &RootedTree) -> Result<u32, String> {
    if tree.n() != g.n() {
        return Err(format!("tree has {} vertices, graph {}", tree.n(), g.n()));
    }
    if tree.level(tree.root()) != 0 {
        return Err("root is not at level 0".into());
    }
    let mut height = 0;
    for v in 0..g.n() {
        if v == tree.root() {
            continue;
        }
        let p = tree.parent(v).ok_or(format!("vertex {v} has no parent"))?;
        if !g.has_edge(v, p) {
            return Err(format!("tree edge {v}-{p} is not a graph edge"));
        }
        if tree.level(v) != tree.level(p) + 1 {
            return Err(format!("vertex {v} is not one level below its parent"));
        }
        height = height.max(tree.level(v));
    }
    Ok(height)
}

// ---------------------------------------------------------------------------
// plan-gnp8k: the full fast pipeline as one op.

/// The fast pipeline: tree → labels → CSR emission → validate → replay,
/// on `random_connected(n, p, seed)`.
pub struct Plan {
    pub n: usize,
    pub p: f64,
}

impl Plan {
    pub fn gnp8k(scale: Scale) -> Plan {
        match scale {
            Scale::Full => Plan { n: 8192, p: 0.002 },
            Scale::Tiny => Plan { n: 256, p: 0.03 },
        }
    }
}

/// Per-input check state for the plan workloads.
pub struct PlanCheck {
    radius: u32,
    digest: Option<u64>,
}

pub struct PlanOutput {
    flat: FlatSchedule,
    complete: bool,
}

impl Workload for Plan {
    type Input = Graph;
    type Check = PlanCheck;
    type Output = PlanOutput;

    fn setup(&self, seed: u64, rep: u64) -> Graph {
        gossip_workloads::random_connected(self.n, self.p, mix(seed, rep))
    }

    fn reference(&self, g: &Graph) -> Result<PlanCheck, String> {
        Ok(PlanCheck {
            radius: certified_radius(g)?,
            digest: None,
        })
    }

    fn op(&self, g: &Graph, t: &mut Tracer, layer: &mut Layer) -> Result<PlanOutput, String> {
        let n = g.n();
        // Traced ops run under the phase profiler for the emission's
        // count/emit passes and the tree's pruning counter.
        let profiler = t.enabled().then(Profiler::begin);
        let tree = t.span("graph.tree_fast", || {
            min_depth_spanning_tree_fast(g, ChildOrder::ById)
        });
        let tree = tree.map_err(|e| format!("tree: {e}"))?;
        let labels = t.span("core.labels", || FlatLabels::new(&tree));
        let flat = t.span("core.emit", || {
            concurrent_updown_flat_on(&labels, &NoopRecorder)
        });
        let profile = profiler.map(Profiler::finish);
        t.span("model.validate", || {
            flat.validate(g, CommModel::Multicast, n)
        })
        .map_err(|e| format!("validate: {e}"))?;
        let origins = labels.origins();
        let mut kernel = t
            .span("model.kernel.setup", || {
                SimKernel::with_origins(g, CommModel::Multicast, &origins)
            })
            .map_err(|e| format!("kernel: {e}"))?;
        let outcome = t
            .span("model.kernel.replay", || kernel.run_prevalidated(&flat))
            .map_err(|e| format!("replay: {e}"))?;
        if let Some(p) = profile {
            tree_counters(&p, n, layer);
            layer.insert(
                "core.emit.count_pass_s",
                p.named_total_ms("count_pass") / 1e3,
            );
            layer.insert("core.emit.emit_pass_s", p.named_total_ms("emit_pass") / 1e3);
            layer.insert("deliveries", flat.deliveries() as f64);
            layer.insert("core.emit.bytes_computed", csr_bytes(&flat) as f64);
        }
        Ok(PlanOutput {
            flat,
            complete: outcome.complete,
        })
    }

    fn check(
        &self,
        g: &Graph,
        reference: &mut PlanCheck,
        out: &PlanOutput,
        _t: &mut Tracer,
        _layer: &mut Layer,
    ) -> Result<Facts, String> {
        let bound = g.n() + reference.radius as usize;
        if !out.complete {
            return Err("replay did not complete gossip".into());
        }
        if out.flat.rounds() > bound {
            return Err(format!(
                "makespan {} exceeds n + r = {bound}",
                out.flat.rounds()
            ));
        }
        let digest = out.flat.digest();
        match reference.digest {
            None => reference.digest = Some(digest),
            Some(first) if first != digest => {
                return Err(format!(
                    "CSR digest {digest:#x} differs from the first op's {first:#x}"
                ))
            }
            Some(_) => {}
        }
        Ok(Facts {
            rounds_over_bound: out.flat.rounds() as f64 / bound as f64,
            ..Facts::default()
        })
    }
}

/// Bytes of the CSR arrays the emission writes, computed from their
/// lengths (u32 each): round offsets, message and sender per transmission,
/// destination offsets, destinations.
fn csr_bytes(flat: &FlatSchedule) -> u64 {
    let words =
        (flat.rounds() + 1) + 2 * flat.tx_count() + (flat.tx_count() + 1) + flat.deliveries();
    4 * words as u64
}

// ---------------------------------------------------------------------------
// tree-gnp32k: the tree sweep and labels only.

pub struct TreeOnly {
    pub n: usize,
    pub p: f64,
}

impl TreeOnly {
    pub fn gnp32k(scale: Scale) -> TreeOnly {
        match scale {
            Scale::Full => TreeOnly {
                n: 32768,
                p: 0.00055,
            },
            Scale::Tiny => TreeOnly { n: 512, p: 0.02 },
        }
    }
}

pub struct TreeOutput {
    tree: RootedTree,
    labels: FlatLabels,
}

impl Workload for TreeOnly {
    type Input = Graph;
    type Check = u32;
    type Output = TreeOutput;

    fn setup(&self, seed: u64, rep: u64) -> Graph {
        gossip_workloads::random_connected(self.n, self.p, mix(seed, rep))
    }

    /// Each set-up takes ~4.6 s here, so only the inputs are timed:
    /// repeats would cost the op loop its time budget.
    fn setup_samples(&self) -> u64 {
        3
    }

    fn reference(&self, g: &Graph) -> Result<u32, String> {
        certified_radius(g)
    }

    fn op(&self, g: &Graph, t: &mut Tracer, layer: &mut Layer) -> Result<TreeOutput, String> {
        let profiler = t.enabled().then(Profiler::begin);
        let tree = t.span("graph.tree_fast", || {
            min_depth_spanning_tree_fast(g, ChildOrder::ById)
        });
        let profile = profiler.map(Profiler::finish);
        let tree = tree.map_err(|e| format!("tree: {e}"))?;
        let labels = t.span("core.labels", || FlatLabels::new(&tree));
        if let Some(p) = profile {
            tree_counters(&p, g.n(), layer);
        }
        Ok(TreeOutput { tree, labels })
    }

    fn check(
        &self,
        g: &Graph,
        radius: &mut u32,
        out: &TreeOutput,
        _t: &mut Tracer,
        _layer: &mut Layer,
    ) -> Result<Facts, String> {
        let height = check_spanning(g, &out.tree)?;
        if height != *radius || out.tree.height() != height {
            return Err(format!("tree height {height} is not the radius {radius}"));
        }
        if out.labels.n() != g.n() || out.labels.height() != height {
            return Err("labels disagree with the tree".into());
        }
        // No schedule is emitted: the makespan is the one Theorem 1's
        // construction gives on this tree, n + height.
        let n = g.n() as f64;
        Ok(Facts {
            rounds_over_bound: (n + height as f64) / (n + *radius as f64),
            ..Facts::default()
        })
    }
}

// ---------------------------------------------------------------------------
// recover-gnp256: reference plan, then resilient execution under faults
// with the flight recorder and the alert engine attached. The graph has
// the mean degree (~10) of G(768, 0.013) at a third of the vertices, so
// that a run holds ~60 ops and their median is steady despite the slow
// repairs after interior crashes (~1 op in 4).

pub struct Recover {
    pub n: usize,
    pub p: f64,
}

/// Graphs (each with its fault plan) generated per run: each op draws a
/// fresh one until they run out, because op cost varies widely from one
/// draw to the next (a crashed vertex with tree children makes repair
/// several times slower than a crashed leaf).
const RECOVER_INPUTS: u64 = 64;
/// Per-delivery loss probability of every fault plan.
const LOSS_RATE: f64 = 0.01;

impl Recover {
    pub fn gnp256(scale: Scale) -> Recover {
        match scale {
            Scale::Full => Recover { n: 256, p: 0.04 },
            Scale::Tiny => Recover { n: 64, p: 0.1 },
        }
    }
}

pub struct RecoverInput {
    g: Graph,
    faults: FaultPlan,
}

pub struct RecoverOutput {
    plan: GossipPlan,
    report: RecoveryReport,
    flight: Vec<u8>,
    alerts: usize,
}

impl Workload for Recover {
    type Input = RecoverInput;
    type Check = ();
    type Output = RecoverOutput;

    fn inputs(&self) -> u64 {
        RECOVER_INPUTS
    }

    fn setup(&self, seed: u64, rep: u64) -> RecoverInput {
        let s = mix(seed, rep);
        let g = gossip_workloads::random_connected(self.n, self.p, s);
        let f = mix(s, 1000);
        let vertex = (mix(f, 1) % self.n as u64) as usize;
        let round = (mix(f, 2) % self.n as u64) as usize;
        let faults = FaultPlan::new(f)
            .with_loss_rate(LOSS_RATE)
            .with_crash(vertex, round);
        RecoverInput { g, faults }
    }

    fn reference(&self, _input: &RecoverInput) -> Result<(), String> {
        Ok(())
    }

    fn op(
        &self,
        input: &RecoverInput,
        t: &mut Tracer,
        _layer: &mut Layer,
    ) -> Result<RecoverOutput, String> {
        let (g, faults) = (&input.g, &input.faults);
        let planner = GossipPlanner::new(g).map_err(|e| format!("planner: {e}"))?;
        let plan = t
            .span("core.plan_ref", || planner.plan())
            .map_err(|e| format!("plan: {e}"))?;
        // The flight header carries the flattened schedule's digest, as
        // `gossip recover --flight-out` writes it.
        let flat = t.span("model.flatten", || {
            FlatSchedule::from_schedule(&plan.schedule)
        });
        let header = FlightHeader {
            n: g.n() as u32,
            n_msgs: plan.origin_of_message.len() as u32,
            radius: plan.radius,
            engine: "resilient".to_string(),
            graph_digest: graph_digest(g),
            schedule_digest: flat.digest(),
            fault_digest: fault_digest(faults),
            origins: plan.origin_of_message.iter().map(|&o| o as u32).collect(),
        };
        drop(flat);
        let rec = FlightRecorder::new(header);
        let engine = AlertEngine::new(&rec, RuleSet::default())
            .bound(plan.guarantee() as u64)
            .total_pairs((g.n() * plan.origin_of_message.len()) as u64)
            .max_epochs(DEFAULT_MAX_EPOCHS as u64);
        let report = t
            .span("core.recovery.run", || {
                ResilientExecutor::new(g, &plan.schedule, &plan.origin_of_message, faults)
                    .max_epochs(DEFAULT_MAX_EPOCHS)
                    .recorder(&engine)
                    .run()
            })
            .map_err(|e| format!("recover: {e}"))?;
        let alerts = engine.sink().len();
        let flight = t.span("telemetry.finish", || rec.finish());
        Ok(RecoverOutput {
            plan,
            report,
            flight,
            alerts,
        })
    }

    fn check(
        &self,
        input: &RecoverInput,
        _reference: &mut (),
        out: &RecoverOutput,
        t: &mut Tracer,
        layer: &mut Layer,
    ) -> Result<Facts, String> {
        let r = &out.report;
        if !r.recovered || !r.unresolved.is_empty() {
            return Err(format!(
                "not recovered: {} unresolved pairs",
                r.unresolved.len()
            ));
        }
        let log = t
            .span("telemetry.decode", || FlightLog::decode(&out.flight))
            .map_err(|e| format!("flight decode: {e}"))?;
        let rounds = log
            .records
            .iter()
            .filter(|rec| matches!(rec, FlightRecord::RoundEnd { .. }))
            .count();
        if rounds != r.total_rounds {
            return Err(format!(
                "flight record holds {rounds} rounds, report {}",
                r.total_rounds
            ));
        }
        if t.enabled() {
            self.probes(input, out, t, layer)?;
        }
        Ok(Facts {
            rounds_over_bound: r.total_rounds as f64 / out.plan.guarantee() as f64,
            repair_attempted: r.retransmissions as u64,
            lost: r.lost_deliveries as u64,
        })
    }
}

impl Recover {
    /// Traced runs only, outside the op: the base lossy run on a bare
    /// kernel, one residual plan on its outcome, and the executor again
    /// with no recorder (the telemetry overhead's baseline).
    fn probes(
        &self,
        input: &RecoverInput,
        out: &RecoverOutput,
        t: &mut Tracer,
        layer: &mut Layer,
    ) -> Result<(), String> {
        let (g, faults) = (&input.g, &input.faults);
        let r = &out.report;
        let repair = &r.epochs[1..];
        let attempted: usize = repair.iter().map(|e| e.attempted).sum();
        let delivered: usize = repair.iter().map(|e| e.delivered).sum();
        layer.insert("core.recovery.epochs", repair.len() as f64);
        layer.insert(
            "core.recovery.residual_pairs",
            r.epochs[0].residual_after as f64,
        );
        layer.insert(
            "core.recovery.useful_ratio",
            if attempted == 0 {
                1.0
            } else {
                delivered as f64 / attempted as f64
            },
        );
        layer.insert("telemetry.flight_bytes", out.flight.len() as f64);
        layer.insert("telemetry.alerts_fired", out.alerts as f64);

        let plan = &out.plan;
        let flat = FlatSchedule::from_schedule(&plan.schedule);
        let mut kernel = t
            .span("model.kernel.setup", || {
                SimKernel::with_origins(g, CommModel::Multicast, &plan.origin_of_message)
            })
            .map_err(|e| format!("kernel: {e}"))?;
        let mut lost = Vec::new();
        t.span("model.kernel.lossy", || {
            kernel.run_lossy(&flat, faults, &mut lost)
        })
        .map_err(|e| format!("lossy: {e}"))?;
        let holds = kernel.hold_bitsets();
        let alive = faults.alive_at(g.n(), kernel.time());
        let completion = t.span("core.recovery.completion", || {
            plan_completion(g, &holds, &alive)
        });
        std::hint::black_box(&completion);
        let noop = t
            .span("telemetry.noop_run", || {
                ResilientExecutor::new(g, &plan.schedule, &plan.origin_of_message, faults)
                    .max_epochs(DEFAULT_MAX_EPOCHS)
                    .run()
            })
            .map_err(|e| format!("recover (noop): {e}"))?;
        if noop.total_rounds != r.total_rounds || noop.retransmissions != r.retransmissions {
            return Err("recorded and unrecorded executions disagree".into());
        }
        Ok(())
    }
}

/// FNV digest of the adjacency, as the flight header's graph digest.
fn graph_digest(g: &Graph) -> u64 {
    let mut d = Digest::new();
    d.write_u64(g.n() as u64);
    for v in 0..g.n() {
        for &u in g.neighbors_raw(v) {
            d.write_u64(v as u64);
            d.write_u64(u64::from(u));
        }
    }
    d.finish()
}

/// FNV digest of the fault plan's fields, as the flight header's fault
/// digest.
fn fault_digest(f: &FaultPlan) -> u64 {
    let mut d = Digest::new();
    d.write_u64(f.seed);
    d.write_u64(f.loss_rate.to_bits());
    for c in &f.crashes {
        d.write_u64(c.vertex as u64);
        d.write_u64(c.at_round as u64);
    }
    d.finish()
}
