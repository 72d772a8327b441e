//! The repository benchmark. One process runs one workload as a closed
//! loop with a single client: each op starts after the previous one has
//! finished, been checked, and had its outputs dropped.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--tiny] [--trace-out <file>]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (name → value and unit) — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it records the environment. A traced run alternates
//! untraced and traced ops, and writes its spans to `--trace-out`
//! (default `perfbench/out/trace-<workload>-seed<seed>.json`).

mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{Tracer, OP};
use workloads::{Facts, Layer, Plan, Recover, Scale, TreeOnly, Workload};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rounds_over_bound", "ratio"),
    ("retx_per_lost", "ratio"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload's op
/// never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.tree_fast.s", "s"),
    ("graph.tree_fast.prune_ratio", "ratio"),
    ("graph.tree_fast.sweep_ratio", "ratio"),
    ("core.labels.s", "s"),
    ("core.emit.s", "s"),
    ("core.emit.count_pass_s", "s"),
    ("core.emit.emit_pass_s", "s"),
    ("core.emit.ns_per_delivery", "ns"),
    ("core.emit.bytes_computed", "B"),
    ("core.emit.bw_fraction", "ratio"),
    ("model.validate.s", "s"),
    ("model.validate.ns_per_delivery", "ns"),
    ("model.kernel.setup_s", "s"),
    ("model.kernel.replay_s", "s"),
    ("model.kernel.ns_per_delivery", "ns"),
    ("model.kernel.lossy_s", "s"),
    ("model.flatten.s", "s"),
    ("core.plan_ref.s", "s"),
    ("core.recovery.run_s", "s"),
    ("core.recovery.completion_s", "s"),
    ("core.recovery.epochs", "count"),
    ("core.recovery.residual_pairs", "count"),
    ("core.recovery.useful_ratio", "ratio"),
    ("telemetry.overhead_s", "s"),
    ("telemetry.finish_s", "s"),
    ("telemetry.decode_s", "s"),
    ("telemetry.flight_bytes", "B"),
    ("telemetry.alerts_fired", "count"),
    ("mem.write_gbs", "GB/s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Span name → the per-layer time metric holding its self time.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("graph.tree_fast", "graph.tree_fast.s"),
    ("core.labels", "core.labels.s"),
    ("core.emit", "core.emit.s"),
    ("model.validate", "model.validate.s"),
    ("model.kernel.setup", "model.kernel.setup_s"),
    ("model.kernel.replay", "model.kernel.replay_s"),
    ("model.kernel.lossy", "model.kernel.lossy_s"),
    ("model.flatten", "model.flatten.s"),
    ("core.plan_ref", "core.plan_ref.s"),
    ("core.recovery.run", "core.recovery.run_s"),
    ("core.recovery.completion", "core.recovery.completion_s"),
    ("telemetry.finish", "telemetry.finish_s"),
    ("telemetry.decode", "telemetry.decode_s"),
    (OP, "trace.unattributed_s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    let mut trace_out = None;
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            scale = Scale::Tiny;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        scale,
        trace_out,
    })
}

/// Everything one run measured.
struct Run {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    untraced_s: Vec<f64>,
    /// Traced minus untraced wall time of each op pair on one input.
    overhead_s: Vec<f64>,
    facts: Vec<Facts>,
    /// Per traced op: its id, wall time and the workload's layer values.
    traced: Vec<(u32, f64, Layer)>,
    tracer: Tracer,
    /// Share of the machine's CPU time stolen by the hypervisor during
    /// the op loop.
    steal_share: f64,
    /// Peak RSS (MiB) during each op.
    peak_rss_mb: Vec<f64>,
}

/// Runs `w` as a closed loop: ops for `seconds`, each input built just
/// before its first op. The first op is timed like the rest: a user of the
/// CLI pays its cold start on every run. Traced runs alternate untraced and
/// traced ops.
fn run<W: Workload>(w: &W, a: &Args) -> Result<Run, String> {
    let n_inputs = w.inputs() as usize;
    let mut inputs = Vec::with_capacity(n_inputs);
    let mut refs = Vec::with_capacity(n_inputs);
    let mut r = Run {
        attempted: 0,
        failed: 0,
        setup_s: Vec::new(),
        untraced_s: Vec::new(),
        overhead_s: Vec::new(),
        facts: Vec::new(),
        traced: Vec::new(),
        tracer: Tracer::new(),
        steal_share: 0.0,
        peak_rss_mb: Vec::new(),
    };
    let window = Duration::from_secs(a.seconds);
    let ticks_before = sys::cpu_ticks();
    let start = Instant::now();
    // Time spent building inputs, which does not count against `window`.
    let mut building = Duration::ZERO;
    let mut untraced_wall = None;
    for op in 0u32.. {
        // A traced run times each input twice in a row, untraced then
        // traced, so the tracing overhead compares like with like.
        let slot = if a.trace { op / 2 } else { op };
        let k = slot as usize % n_inputs;
        if k == inputs.len() {
            // Built here rather than all before the first op, so that the
            // set-up samples spread over the run as the ops do: the host's
            // speed drifts from one second to the next.
            let t0 = Instant::now();
            inputs.push(std::hint::black_box(w.setup(a.seed, k as u64)));
            r.setup_s.push(t0.elapsed().as_secs_f64());
            let check = w.reference(&inputs[k]);
            refs.push(check.map_err(|e| format!("reference check of input {k}: {e}"))?);
            building += t0.elapsed();
        }
        let traced = a.trace && op % 2 == 1;
        r.tracer.set_enabled(traced);
        r.tracer.set_op(op);
        let mut layer = Layer::new();

        sys::reset_peak_rss();
        let t0 = Instant::now();
        let open = r.tracer.begin(OP);
        let out = w.op(&inputs[k], &mut r.tracer, &mut layer);
        r.tracer.end(open);
        let wall = t0.elapsed().as_secs_f64();
        r.peak_rss_mb.push(sys::peak_rss_mb());

        r.attempted += 1;
        let checked =
            out.and_then(|o| w.check(&inputs[k], &mut refs[k], &o, &mut r.tracer, &mut layer));
        r.tracer.set_enabled(false);
        match checked {
            Err(e) => {
                r.failed += 1;
                untraced_wall = None;
                eprintln!("op {op} failed: {e}");
            }
            Ok(f) if traced => {
                r.facts.push(f);
                r.traced.push((op, wall, layer));
                if let Some(u) = untraced_wall.take() {
                    r.overhead_s.push(wall - u);
                }
            }
            Ok(f) => {
                r.facts.push(f);
                r.untraced_s.push(wall);
                untraced_wall = Some(wall);
            }
        }
        let done = !a.trace || !r.overhead_s.is_empty() || r.failed == r.attempted;
        if start.elapsed() - building >= window && done {
            break;
        }
    }
    let ticks_after = sys::cpu_ticks();
    let all = ticks_after.0.saturating_sub(ticks_before.0).max(1);
    r.steal_share = ticks_after.1.saturating_sub(ticks_before.1) as f64 / all as f64;
    // The remaining set-up samples, built and dropped.
    while (r.setup_s.len() as u64) < w.setup_samples().max(w.inputs()) {
        let t0 = Instant::now();
        std::hint::black_box(w.setup(a.seed, r.setup_s.len() as u64 % w.inputs()));
        r.setup_s.push(t0.elapsed().as_secs_f64());
    }
    Ok(r)
}

/// One traced op's per-layer values: its spans' self times under their
/// metric names, the workload's own values, and the derived rates.
fn layer_values(times: &BTreeMap<&str, f64>, mut layer: Layer, wall: f64, write_gbs: f64) -> Layer {
    for (name, s) in times {
        if let Some((_, metric)) = SPAN_METRICS.iter().find(|(span, _)| span == name) {
            *layer.entry(metric).or_default() += s;
        }
    }
    if let Some(noop) = times.get("telemetry.noop_run") {
        let recorded = times.get("core.recovery.run").copied().unwrap_or(0.0);
        layer.insert("telemetry.overhead_s", recorded - noop);
    }
    layer.insert(
        "trace.unattributed_share",
        layer.get("trace.unattributed_s").copied().unwrap_or(0.0) / wall,
    );
    if let Some(&d) = layer.get("deliveries") {
        for (time, rate) in [
            ("core.emit.s", "core.emit.ns_per_delivery"),
            ("model.validate.s", "model.validate.ns_per_delivery"),
            ("model.kernel.replay_s", "model.kernel.ns_per_delivery"),
        ] {
            let s = layer.get(time).copied().unwrap_or(0.0);
            layer.insert(rate, s * 1e9 / d);
        }
    }
    if let (Some(&bytes), Some(&s)) = (
        layer.get("core.emit.bytes_computed"),
        layer.get("core.emit.emit_pass_s"),
    ) {
        layer.insert("core.emit.bw_fraction", bytes / s / (write_gbs * 1e9));
    }
    layer
}

/// Median of one per-layer value over the traced ops (0 when no op has it).
fn layer_median(layers: &[Layer], name: &str) -> f64 {
    let v: Vec<f64> = layers.iter().filter_map(|l| l.get(name).copied()).collect();
    sys::median(&v)
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("String write");
    }
    out.push('}');
    out
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <plan-gnp8k|tree-gnp32k|recover-gnp256> \
                 --seed <n> --seconds <s> --trace <0|1> [--tiny] [--trace-out <file>]"
            );
            std::process::exit(2);
        }
    };
    // No workload uses more threads than there are cores: pin rayon's
    // worker count before any pool is created.
    let nproc = sys::nproc();
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());

    let scale = a.scale;
    let result = match a.workload.as_str() {
        "plan-gnp8k" => run(&Plan::gnp8k(scale), &a),
        "tree-gnp32k" => run(&TreeOnly::gnp32k(scale), &a),
        "recover-gnp256" => run(&Recover::gnp256(scale), &a),
        other => Err(format!("unknown workload {other}")),
    };
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let (l3, l3_source) = match sys::l3_bytes() {
        Some(b) => (b, "sysfs"),
        None => (32 << 20, "assumed"),
    };
    let op_p50 = sys::median(&r.untraced_s);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut bw_array = 0;
    if a.trace {
        // The emission's bandwidth denominator: a plain sequential write
        // over an array at least 4x the L3.
        let array = match scale {
            Scale::Full => (4 * l3).max(64 << 20),
            Scale::Tiny => 8 << 20,
        };
        let bw = sys::write_bandwidth(array, 5);
        bw_array = bw.array_bytes;
        let by_op = trace::self_seconds_by_op(r.tracer.spans());
        let layers: Vec<Layer> = r
            .traced
            .iter()
            .map(|(op, wall, layer)| {
                let times = by_op.get(op).cloned().unwrap_or_default();
                layer_values(&times, layer.clone(), *wall, bw.write_gbs)
            })
            .collect();
        let overhead = sys::median(&r.overhead_s);
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "mem.write_gbs" => bw.write_gbs,
                "trace.overhead_s" => overhead,
                "trace.overhead_share" => overhead / op_p50,
                _ => layer_median(&layers, name),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let rounds: Vec<f64> = r.facts.iter().map(|f| f.rounds_over_bound).collect();
        let retx: u64 = r.facts.iter().map(|f| f.repair_attempted).sum();
        let lost: u64 = r.facts.iter().map(|f| f.lost).sum();
        for &(name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => sys::median(&r.setup_s),
                "op_p50_s" => op_p50,
                "peak_rss_mb" => sys::median(&r.peak_rss_mb),
                "rounds_over_bound" => sys::median(&rounds),
                // +1 on both sides: 1 when nothing is lost or repaired.
                "retx_per_lost" => (retx + 1) as f64 / (lost + 1) as f64,
                "ok_ratio" => (r.attempted - r.failed) as f64 / r.attempted as f64,
                _ => unreachable!("every end-to-end metric has a value"),
            };
            metrics.push((name, value, unit));
        }
    }

    let tail = sys::tail_percentile(&r.untraced_s).map_or("null".to_string(), |(p, v)| {
        format!("{{\"p\": {p}, \"s\": {v}}}")
    });
    let env = format!(
        "{{\"workload\": \"{}\", \"scale\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rayon_threads\": {nproc}, \"l3_bytes\": {l3}, \"l3_source\": \"{l3_source}\", \
         \"bw_array_bytes\": {bw_array}, \"setup_reps\": {}, \
         \"ops_timed\": {}, \"ops_traced\": {}, \"op_tail\": {tail}, \"steal_share\": {}}}",
        a.workload,
        if scale == Scale::Full { "full" } else { "tiny" },
        a.seed,
        a.seconds,
        a.trace,
        r.setup_s.len(),
        r.untraced_s.len(),
        r.traced.len(),
        r.steal_share,
    );
    if a.trace {
        let path = a
            .trace_out
            .clone()
            .unwrap_or_else(|| format!("perfbench/out/trace-{}-seed{}.json", a.workload, a.seed));
        let body = format!(
            "{{\"env\": {env},\n\"spans\": {}}}\n",
            trace::spans_json(r.tracer.spans())
        );
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, body));
        if let Err(e) = written {
            eprintln!("perfbench: writing spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{{\"env\": {env}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics_json(&metrics)
    );
}
