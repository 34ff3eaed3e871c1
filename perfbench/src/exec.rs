//! One run of one instance: through the library's entry point, or through
//! the same actors wrapped in the timing shim.

use crate::shim::Timed;
use crate::workload::{dex_nodes, log_nodes, LogNode};
use dex_harness::nodes::DexNode;
use dex_harness::pipeline::{PipelineOutcome, PipelineRun};
use dex_harness::runner::{Outcome, ProcessResult, RunInstance, RunResult};
use dex_replication::{Node, SlotPath};
use dex_simnet::{Actor, DelayModel, NetStats, Simulation};

/// Whether a single-shot run is sound: quiescent, every correct process
/// decided, agreement and unanimity hold.
pub fn sound(run: &RunResult, inst: &RunInstance) -> bool {
    run.quiescent
        && run.all_decided()
        && run.agreement_ok()
        && run.unanimity_ok(&inst.input, &inst.fault_plan)
}

/// Runs `inst` with every actor wrapped in the timing shim and reads the
/// result back in `run_instance`'s form.
pub fn shim_instance(inst: &RunInstance) -> RunResult {
    let nodes: Vec<Timed<DexNode>> = dex_nodes(inst).into_iter().map(Timed).collect();
    let mut sim = Simulation::builder(nodes)
        .seed(inst.seed)
        .delay(inst.delay.clone())
        .faults(inst.faults.clone())
        .build();
    let run = sim.run(inst.max_events);
    RunResult {
        outcomes: sim.actors().iter().map(|a| dex_outcome(&a.0)).collect(),
        quiescent: run.quiescent,
        messages: sim.stats().delivered,
        net: sim.stats().clone(),
    }
}

/// A DEX node's outcome, as `run_instance` reports it.
pub fn dex_outcome(node: &DexNode) -> Outcome {
    let decision = match node {
        DexNode::Byz(_) => return Outcome::Faulty,
        DexNode::Freq(a) => a.decision(),
        DexNode::Prv(a) => a.decision(),
    };
    match decision {
        None => Outcome::Undecided,
        Some(d) => Outcome::Decided(ProcessResult {
            value: d.value,
            path: d.path.label(),
            steps: d.depth.get(),
            latency: d.at.as_units(),
        }),
    }
}

/// `PipelineRun::execute`, with a non-converging cluster (which it
/// reports by panicking) returned as `None`.
pub fn execute(run: &PipelineRun) -> Option<PipelineOutcome> {
    std::panic::catch_unwind(|| run.execute()).ok()
}

/// What a replica cluster run built outside `PipelineRun` produced.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// Committed log of every replica.
    pub logs: Vec<Vec<Vec<u64>>>,
    /// Slot decisions of every replica.
    pub paths: Vec<SlotPath>,
    /// Slot instances taken from the recycling pool, over all replicas.
    pub recycled: u64,
    /// Slot instances checked out (recycled or freshly allocated).
    pub checkouts: u64,
    /// UC messages saved by coalescing, over all replicas.
    pub uc_coalesced: u64,
    /// Echo sends saved by aggregation, over all replicas.
    pub echoes_coalesced: u64,
    /// Virtual time at which the cluster drained.
    pub ticks: u64,
    /// Network counters.
    pub net: NetStats,
    /// Whether the network drained.
    pub quiescent: bool,
}

impl ClusterRun {
    /// Whether this run is the one `execute` returned: every replica's log
    /// equals it, and the clock, wire and coalescing counters agree.
    pub fn matches(&self, out: &PipelineOutcome) -> bool {
        self.quiescent
            && self.logs.iter().all(|log| *log == out.log)
            && self.ticks == out.ticks
            && self.net == out.net
            && self.recycled == out.recycled
            && self.uc_coalesced == out.uc_coalesced
            && self.echoes_coalesced == out.echoes_coalesced
    }
}

/// Runs the replicas `PipelineRun::execute` runs, each passed through
/// `wrap` (the timing shim, or nothing).
pub fn cluster<A: Actor>(
    run: &PipelineRun,
    wrap: impl Fn(LogNode) -> A,
    inner: impl Fn(&A) -> &LogNode,
) -> ClusterRun {
    let nodes: Vec<A> = log_nodes(run).into_iter().map(wrap).collect();
    let mut sim = Simulation::builder(nodes)
        .seed(run.seed)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .build();
    let outcome = sim.run(50_000_000);
    let mut out = ClusterRun {
        logs: Vec::new(),
        paths: Vec::new(),
        recycled: 0,
        checkouts: 0,
        uc_coalesced: 0,
        echoes_coalesced: 0,
        ticks: outcome.ended_at.as_units(),
        net: sim.stats().clone(),
        quiescent: outcome.quiescent,
    };
    for node in sim.actors() {
        let Node::Correct(r) = inner(node) else {
            unreachable!("the pipelined workload is fault-free")
        };
        out.logs.push(r.log().prefix());
        out.paths.extend_from_slice(r.paths());
        out.recycled += r.mux().recycled();
        out.checkouts += r.mux().recycled() + r.mux().allocated();
        out.uc_coalesced += r.uc_coalesced();
        out.echoes_coalesced += r.echoes_coalesced();
    }
    out
}

/// [`cluster`] with every replica in the timing shim.
pub fn shim_cluster(run: &PipelineRun) -> ClusterRun {
    cluster(run, Timed, |t: &Timed<LogNode>| &t.0)
}

/// [`cluster`] with the replicas unwrapped.
pub fn plain_cluster(run: &PipelineRun) -> ClusterRun {
    cluster(run, |n| n, |n| n)
}
