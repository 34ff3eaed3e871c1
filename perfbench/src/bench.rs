//! One benchmark run of one workload: set-up, the timed closed loop, and
//! either the end-to-end metrics (untraced) or the per-layer split
//! (traced), with every run's output checked.

use crate::codec;
use crate::exec::{self, ClusterRun};
use crate::report::{median, nearest_rank, tail_rank, Metric};
use crate::shim::{self, Clock, Layer, Tap};
use crate::speed::Gauge;
use crate::workload::{dex_nodes, Pool, Workload};
use dex_harness::pipeline::PipelineOutcome;
use dex_harness::runner::{run_instance, run_instance_traced, Outcome, RunResult, UnderlyingKind};
use dex_simnet::{NetStats, Simulation};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The set-up is repeated at least this many times, and until it has
/// taken `SETUP_MIN_S`; the median of the scaled times is `setup_s`.
const SETUP_REPS: usize = 5;
/// Wall seconds of set-ups after which no more are made, past `SETUP_REPS`.
const SETUP_MIN_S: f64 = 1.0;
/// Encode/decode passes over the recorded stream in the codec post-pass.
const CODEC_REPS: usize = 5;

/// How to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Report the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every run passed its checks, the checker found no violation, and
    /// (traced) the shim reproduced every run.
    pub correct: bool,
    /// Timed runs attempted.
    pub attempted: u64,
    /// Timed runs that failed their checks.
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the metrics.
    pub notes: Vec<String>,
}

/// Protocol counts of one instance: fixed for a seed.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    decisions: u64,
    delivered: u64,
    bytes: u64,
    steps: u64,
    one_step: u64,
    two_step: u64,
    correct_decisions: u64,
}

impl Counts {
    fn single(r: &RunResult) -> Self {
        let mut c = Counts {
            decisions: 1,
            delivered: r.net.delivered,
            bytes: r.net.bytes_on_wire,
            ..Counts::default()
        };
        for o in &r.outcomes {
            if let Outcome::Decided(p) = o {
                c.correct_decisions += 1;
                c.steps += u64::from(p.steps);
                c.one_step += u64::from(p.path == "1-step");
                c.two_step += u64::from(p.path == "2-step");
            }
        }
        c
    }

    fn pipeline(out: &PipelineOutcome, cluster: &ClusterRun) -> Self {
        let mut c = Counts {
            decisions: out.log.len() as u64,
            delivered: out.net.delivered,
            bytes: out.net.bytes_on_wire,
            ..Counts::default()
        };
        for p in &cluster.paths {
            c.correct_decisions += 1;
            c.steps += u64::from(p.depth.get());
            c.one_step += u64::from(p.path == dex_core::DecisionPath::OneStep);
            c.two_step += u64::from(p.path == dex_core::DecisionPath::TwoStep);
        }
        c
    }

    fn add(&mut self, o: &Counts) {
        self.decisions += o.decisions;
        self.delivered += o.delivered;
        self.bytes += o.bytes;
        self.steps += o.steps;
        self.one_step += o.one_step;
        self.two_step += o.two_step;
        self.correct_decisions += o.correct_decisions;
    }
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
struct Traced {
    clock: Clock,
    untraced_ns: u128,
    traced_ns: u128,
    delivered: u64,
    payload_clones: u64,
    /// Shim runs, and those that did not reproduce their untraced run.
    shim_runs: u64,
    shim_mismatches: u64,
    /// Counts of the first traced run of each pool member.
    first: Vec<Option<FirstTrace>>,
}

impl Traced {
    /// Counts one transparency-gate verdict and passes it through.
    fn transparent(&mut self, same: bool) -> bool {
        self.shim_runs += 1;
        self.shim_mismatches += u64::from(!same);
        same
    }
}

/// Counts of one traced run: fixed for a seed.
struct FirstTrace {
    clock: Clock,
    cluster: Option<ClusterRun>,
}

/// A pool member's first result, which every later run of it must equal.
enum First {
    Single(RunResult),
    Pipeline(PipelineOutcome),
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn set_up(w: &Workload, seed: u64) -> (Pool, f64) {
    let mut gauge = Gauge::new();
    let mut times = Vec::new();
    let mut pool = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        let t = Instant::now();
        let p = w.pool(seed);
        match &p {
            Pool::Single(v) => drop(run_instance(&v[0])),
            Pool::Pipeline(v) => drop(exec::execute(&v[0])),
        }
        let s = t.elapsed().as_secs_f64();
        gauge.after(s * 1e3);
        times.push(s);
        pool = Some(p);
    }
    gauge.finish();
    for (k, s) in times.iter_mut().enumerate() {
        *s *= gauge.scale(k);
    }
    (pool.expect("at least one set-up"), median(&times))
}

/// Runs workload `w` under `opts`.
pub fn run(w: &Workload, opts: &Options) -> Report {
    let (pool, setup_s) = set_up(w, opts.seed);
    let n = pool.len();
    let mut notes = vec![
        format!(
            "workload {} | seed {} | {} instances | {}",
            w.name,
            opts.seed,
            n,
            if opts.trace { "traced" } else { "untraced" }
        ),
        format!("replay: {}", w.replay(opts.seed)),
    ];
    let mut first: Vec<Option<First>> = (0..n).map(|_| None).collect();
    let mut counts: Vec<Option<Counts>> = vec![None; n];
    let mut acc = Traced {
        first: (0..n).map(|_| None).collect(),
        ..Traced::default()
    };
    let mut run_ms = Vec::new();
    let (mut failed, mut decided) = (0u64, 0u64);
    // Untraced runs are scaled to the reference speed; traced runs report
    // shares and ratios of one run's own time, which need no scaling.
    let mut gauge = (!opts.trace).then(Gauge::new);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut k = 0;
    while k < n || start.elapsed() < budget {
        let i = k % n;
        k += 1;
        let t = Instant::now();
        let (ok, decisions) = match &pool {
            Pool::Single(v) => {
                let r = run_instance(&v[i]);
                let dt = t.elapsed();
                run_ms.push(ms(dt));
                let mut ok = exec::sound(&r, &v[i]);
                if opts.trace {
                    let timed = traced(
                        &mut acc,
                        i,
                        dt,
                        || exec::shim_instance(&v[i]),
                        |r| &r.net,
                        |_| None,
                    );
                    ok &= acc.transparent(timed == r);
                }
                if counts[i].is_none() {
                    counts[i] = Some(Counts::single(&r));
                }
                ok &= same_as_first(&mut first[i], First::Single(r));
                (ok, 1)
            }
            Pool::Pipeline(v) => match exec::execute(&v[i]) {
                None => {
                    run_ms.push(ms(t.elapsed()));
                    (false, 0)
                }
                Some(out) => {
                    let dt = t.elapsed();
                    run_ms.push(ms(dt));
                    let mut ok = out.log.len() as u64 == v[i].slots
                        && out.committed_values == v[i].slots * v[i].batch;
                    if opts.trace {
                        let timed = traced(
                            &mut acc,
                            i,
                            dt,
                            || exec::shim_cluster(&v[i]),
                            |r| &r.net,
                            |r| Some(r.clone()),
                        );
                        ok &= acc.transparent(timed.matches(&out));
                    }
                    let decisions = out.log.len() as u64;
                    ok &= same_as_first(&mut first[i], First::Pipeline(out));
                    (ok, decisions)
                }
            },
        };
        if ok {
            decided += decisions;
        } else {
            failed += 1;
        }
        if let Some(g) = gauge.as_mut() {
            g.after(run_ms[run_ms.len() - 1]);
        }
    }
    if let Some(g) = gauge.as_mut() {
        g.finish();
    }
    let peak_rss_mb = peak_rss_mb();

    // Untimed: protocol counts for pipelined runs need the replicas' own
    // decision records, which `execute` does not return; a plain replay
    // of each pool member supplies them and must reproduce it exactly.
    if let Pool::Pipeline(v) = &pool {
        for (i, run) in v.iter().enumerate() {
            let Some(First::Pipeline(out)) = &first[i] else {
                continue;
            };
            let replay = exec::plain_cluster(run);
            if !replay.matches(out) {
                notes.push(format!("replay of pipeline instance {i} diverged"));
                failed += 1;
            }
            counts[i] = Some(Counts::pipeline(out, &replay));
        }
    }
    let mut total = Counts::default();
    for c in counts.iter().flatten() {
        total.add(c);
    }
    let checker_ok = check_instance(&pool, &first, &mut notes);
    let attempted = k as u64;
    notes.push(format!(
        "failed_frac = {} ({failed} of {attempted} runs)",
        failed as f64 / attempted as f64
    ));
    notes.push(format!(
        "path mix: one_step_frac = {}, two_step_frac = {}",
        ratio(total.one_step, total.correct_decisions),
        ratio(total.two_step, total.correct_decisions)
    ));

    let mut correct = failed == 0 && checker_ok;
    let metrics = match &gauge {
        None => {
            let (metrics, ok) = layer_metrics(w, &pool, &acc, &total, &mut notes);
            correct &= ok;
            metrics
        }
        Some(g) => end_to_end(
            setup_s,
            decided,
            &run_ms,
            g,
            &total,
            peak_rss_mb,
            &mut notes,
        ),
    };
    Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// The end-to-end metrics of an untraced run: times scaled to the
/// reference speed, with the raw wall figures and the scale in the notes.
fn end_to_end(
    setup_s: f64,
    decided: u64,
    run_ms: &[f64],
    gauge: &Gauge,
    total: &Counts,
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let raw_s = run_ms.iter().sum::<f64>() / 1e3;
    let mut raw = run_ms.to_vec();
    raw.sort_by(f64::total_cmp);
    notes.push(format!(
        "wall clock, unscaled: run_ms_p50 = {} ms, decisions_per_s = {} 1/s",
        nearest_rank(&raw, 50),
        decided as f64 / raw_s
    ));
    notes.push(format!(
        "reference kernel: median {} ms here, {} ms at the reference speed",
        gauge.kernel_median_ms(),
        crate::speed::REFERENCE_MS
    ));
    let mut sorted: Vec<f64> = run_ms
        .iter()
        .enumerate()
        .map(|(j, ms)| ms * gauge.scale(j))
        .collect();
    let timed_s = sorted.iter().sum::<f64>() / 1e3;
    sorted.sort_by(f64::total_cmp);
    let tail = match tail_rank(sorted.len()) {
        Some((p, idx)) => {
            notes.push(format!("run_ms_tail is p{p} of {} runs", sorted.len()));
            sorted[idx]
        }
        None => {
            notes.push(format!(
                "run_ms_tail is the maximum: {} runs leave no percentile with 10 beyond",
                sorted.len()
            ));
            sorted[sorted.len() - 1]
        }
    };
    vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("decisions_per_s", "1/s", decided as f64 / timed_s),
        Metric::new("run_ms_p50", "ms", nearest_rank(&sorted, 50)),
        Metric::new("run_ms_tail", "ms", tail),
        Metric::new(
            "msgs_per_decision",
            "count",
            ratio(total.delivered, total.decisions),
        ),
        Metric::new(
            "bytes_per_decision",
            "bytes",
            ratio(total.bytes, total.decisions),
        ),
        Metric::new(
            "steps_per_decision",
            "steps",
            ratio(total.steps, total.correct_decisions),
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Records `next` as the first result of its pool member, or checks it
/// equals the one recorded (the simulator is deterministic for a seed).
fn same_as_first(slot: &mut Option<First>, next: First) -> bool {
    match (slot.as_ref(), &next) {
        (None, _) => {
            *slot = Some(next);
            true
        }
        (Some(First::Single(a)), First::Single(b)) => a == b,
        (Some(First::Pipeline(a)), First::Pipeline(b)) => a.log == b.log && a.net == b.net,
        _ => false,
    }
}

/// Replays instance 0 with event recording through the `dex-obs`
/// checker: zero violations, a nonzero check count, and the same result
/// as the untraced run.
fn check_instance(pool: &Pool, first: &[Option<First>], notes: &mut Vec<String>) -> bool {
    let (report, same) = match (pool, &first[0]) {
        (Pool::Single(v), Some(First::Single(r))) => {
            let traced = run_instance_traced(&v[0]);
            (dex_obs::check(&traced.trace), traced.result == *r)
        }
        (Pool::Pipeline(v), Some(First::Pipeline(out))) => {
            let (o, trace) = v[0].traced();
            (dex_obs::check(&trace), o.log == out.log && o.net == out.net)
        }
        _ => return false,
    };
    notes.push(format!(
        "checker: {} violations over {} checks on instance 0",
        report.violations.len(),
        report.total_checks()
    ));
    report.is_ok() && report.total_checks() > 0 && same
}

/// Runs `shim_run` with a fresh clock and folds its time and counters into
/// `acc`; the first run of pool member `i` also keeps its own counts.
fn traced<R>(
    acc: &mut Traced,
    i: usize,
    untraced: Duration,
    shim_run: impl FnOnce() -> R,
    net: impl Fn(&R) -> &NetStats,
    cluster: impl Fn(&R) -> Option<ClusterRun>,
) -> R {
    shim::take_clock();
    let t = Instant::now();
    let r = shim_run();
    let dt = t.elapsed();
    let clock = shim::take_clock();
    acc.clock.merge(&clock);
    acc.untraced_ns += untraced.as_nanos();
    acc.traced_ns += dt.as_nanos();
    acc.delivered += net(&r).delivered;
    acc.payload_clones += net(&r).payload_clones;
    if acc.first[i].is_none() {
        acc.first[i] = Some(FirstTrace {
            clock,
            cluster: cluster(&r),
        });
    }
    r
}

/// The per-layer metrics of a traced run, and whether its layer gates
/// (the shim reproduced every run, zero payload clones, zero codec
/// failures) held.
fn layer_metrics(
    w: &Workload,
    pool: &Pool,
    acc: &Traced,
    total: &Counts,
    notes: &mut Vec<String>,
) -> (Vec<Metric>, bool) {
    notes.push(format!(
        "transparency gate: {} of {} shim runs differ from their untraced run",
        acc.shim_mismatches, acc.shim_runs
    ));
    let wall = acc.traced_ns as f64;
    let handlers = acc.clock.handler_ns() as f64;
    let firsts: Vec<&FirstTrace> = acc.first.iter().flatten().collect();
    let sum = |f: &dyn Fn(&FirstTrace) -> u64| firsts.iter().map(|x| f(x)).sum::<u64>();
    let per_run = |f: &dyn Fn(&FirstTrace) -> u64| sum(f) as f64 / firsts.len() as f64;
    let cluster = |f: fn(&ClusterRun) -> u64| move |x: &FirstTrace| x.cluster.as_ref().map_or(0, f);
    let mut m = vec![
        Metric::new(
            "simnet.self_ns_per_msg",
            "ns",
            (wall - handlers) / acc.delivered as f64,
        ),
        Metric::new("simnet.self_share", "ratio", (wall - handlers) / wall),
        Metric::new(
            "simnet.delivered",
            "count",
            ratio(total.delivered, firsts.len() as u64),
        ),
        Metric::new("simnet.payload_clones", "count", acc.payload_clones as f64),
    ];
    for (li, layer) in Layer::ALL.iter().enumerate() {
        let calls = acc.clock.calls[li];
        let name = layer.name();
        m.push(Metric::new(
            format!("{name}.calls"),
            "count",
            per_run(&|x| x.clock.calls[li]),
        ));
        m.push(Metric::new(
            format!("{name}.ns_per_call"),
            "ns",
            ratio(acc.clock.ns[li], calls),
        ));
        m.push(Metric::new(
            format!("{name}.share"),
            "ratio",
            acc.clock.ns[li] as f64 / wall,
        ));
        if matches!(layer, Layer::EchoBatch | Layer::ReplicaEchoBatch) {
            m.push(Metric::new(
                format!("{name}.entries_per_call"),
                "count",
                ratio(acc.clock.entries[li], calls),
            ));
        }
    }
    m.push(Metric::new(
        "replication.recycle_ratio",
        "ratio",
        ratio(
            sum(&cluster(|r| r.recycled)),
            sum(&cluster(|r| r.checkouts)),
        ),
    ));
    m.push(Metric::new(
        "replication.uc_coalesced",
        "count",
        per_run(&cluster(|r| r.uc_coalesced)),
    ));
    m.push(Metric::new(
        "replication.echoes_coalesced",
        "count",
        per_run(&cluster(|r| r.echoes_coalesced)),
    ));
    let codec = codec_pass(w, pool, notes);
    m.extend([
        Metric::new("netd.encode_ns_per_msg", "ns", codec.encode_ns_per_msg),
        Metric::new("netd.decode_ns_per_msg", "ns", codec.decode_ns_per_msg),
        Metric::new(
            "netd.frame_bytes_per_msg",
            "bytes",
            codec.frame_bytes_per_msg,
        ),
        Metric::new(
            "netd.decode_failures",
            "count",
            codec.decode_failures as f64,
        ),
        Metric::new("trace.overhead", "ratio", wall / acc.untraced_ns as f64),
        Metric::new(
            "one_step_frac",
            "ratio",
            ratio(total.one_step, total.correct_decisions),
        ),
        Metric::new(
            "two_step_frac",
            "ratio",
            ratio(total.two_step, total.correct_decisions),
        ),
    ]);
    let ok = acc.payload_clones == 0 && codec.decode_failures == 0;
    (m, ok)
}

/// Runs the codec post-pass over instance 0's delivered-message stream
/// when the workload's traffic is what `dex-netd` carries (single-shot
/// DEX over the oracle); zeros otherwise.
fn codec_pass(w: &Workload, pool: &Pool, notes: &mut Vec<String>) -> codec::CodecReport {
    let Pool::Single(v) = pool else {
        return codec::CodecReport::default();
    };
    let inst = &v[0];
    if inst.underlying != UnderlyingKind::Oracle {
        return codec::CodecReport::default();
    }
    let log = Rc::new(RefCell::new(Vec::new()));
    let nodes: Vec<_> = dex_nodes(inst)
        .into_iter()
        .map(|inner| Tap {
            inner,
            log: Rc::clone(&log),
        })
        .collect();
    let mut sim = Simulation::builder(nodes)
        .seed(inst.seed)
        .delay(inst.delay.clone())
        .faults(inst.faults.clone())
        .build();
    sim.run(inst.max_events);
    let stream: Vec<(u32, codec::NetdMsg)> = log
        .borrow()
        .iter()
        .filter_map(|(d, m)| codec::to_netd(m).map(|m| (*d, m)))
        .collect();
    let report = codec::measure(&stream, CODEC_REPS);
    notes.push(format!(
        "netd codec post-pass ({}): {} messages, {} decode failures",
        w.name, report.msgs, report.decode_failures
    ));
    report
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
