//! The benchmark's workloads, each written as `dex-sim` flags, and the
//! per-instance inputs derived from a seed exactly as `dex-sim` derives
//! batch member `i`.

use dex_adversary::{ByzantineActor, FaultPlan};
use dex_conditions::FrequencyPair;
use dex_core::{DexActor, DexProcess};
use dex_harness::nodes::DexNode;
use dex_harness::pipeline::PipelineRun;
use dex_harness::runner::{Algo, Placement, RunInstance, UnderlyingKind};
use dex_harness::spec::RunSpec;
use dex_harness::AnyUc;
use dex_replication::{Node, Replica, TotalOrder};
use dex_types::ProcessId;
use dex_workloads::slot_batches;
use rand::rngs::StdRng;

/// Replicas of the pipelined workload replicate batches of client values.
pub type LogNode = Node<TotalOrder<Vec<u64>>>;

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// `dex-sim` flags, without `--seed` and `--runs`.
    pub flags: &'static str,
    /// Instances generated per seed; the timed loop cycles through them,
    /// so the protocol counts are fixed for a seed however fast the run.
    pub pool: usize,
    /// Log slots per pipelined run (0 for single-shot workloads).
    pub slots: u64,
}

/// The benchmark's workloads. Why each exists is in `perfbench/README.md`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "echo_flood",
        flags: "--n 31 --t 5 --workload bernoulli:0.8 --underlying oracle",
        // Some instances fall back and run longer; a large pool keeps their
        // share, and so `run_ms_tail`, nearly the same from seed to seed.
        pool: 256,
        slots: 0,
    },
    Workload {
        name: "byz_fallback",
        flags: "--n 31 --t 5 --f 5 --adversary equivocate --workload zipf:8:1.0 --underlying mvc",
        pool: 64,
        slots: 0,
    },
    Workload {
        name: "pipeline_batched",
        flags: "--n 31 --t 5 --pipeline 8:4 --aggregate",
        pool: 6,
        slots: 24,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The inputs of one workload for one seed.
pub enum Pool {
    /// Single-shot consensus instances (`run_instance`).
    Single(Vec<RunInstance>),
    /// Whole pipelined cluster runs (`PipelineRun::execute`).
    Pipeline(Vec<PipelineRun>),
}

impl Pool {
    /// Number of instances.
    pub fn len(&self) -> usize {
        match self {
            Pool::Single(v) => v.len(),
            Pool::Pipeline(v) => v.len(),
        }
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Workload {
    /// The workload as a `dex-sim` spec whose batch starts at `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the built-in flags do not parse.
    pub fn spec(&self, seed: u64) -> RunSpec {
        let mut args: Vec<String> = self.flags.split_whitespace().map(str::to_string).collect();
        args.extend([
            "--seed".into(),
            seed.to_string(),
            "--runs".into(),
            self.pool.to_string(),
        ]);
        RunSpec::from_args(&args).expect("workload flags parse")
    }

    /// Generates the pool of instances for `seed`.
    pub fn pool(&self, seed: u64) -> Pool {
        let spec = self.spec(seed);
        if spec.pipeline.is_off() {
            Pool::Single((0..self.pool).map(|i| instance(&spec, i)).collect())
        } else {
            Pool::Pipeline(
                (0..self.pool as u64)
                    .map(|i| {
                        let member = RunSpec {
                            seed: seed + i,
                            ..spec.clone()
                        };
                        PipelineRun::from_spec(&member, self.slots).expect("pipeline spec")
                    })
                    .collect(),
            )
        }
    }

    /// The `dex-sim` invocation that replays the pool of `seed`.
    pub fn replay(&self, seed: u64) -> String {
        if self.slots == 0 {
            format!("dex-sim {} --seed {seed} --runs {}", self.flags, self.pool)
        } else {
            format!(
                "dex-sim {} --seed <s> for s in {seed}..{} (dex-sim commits 16 slots, \
                 the benchmark {})",
                self.flags,
                seed + self.pool as u64,
                self.slots
            )
        }
    }
}

/// Batch member `i` of `spec`, seeded as `dex-sim` seeds it: run seed
/// `seed + i`, workload and placement drawn from `seed ^ 0x5EED_5EED`,
/// the input before the fault plan.
///
/// # Panics
///
/// Panics when the spec is invalid.
pub fn instance(spec: &RunSpec, i: usize) -> RunInstance {
    let config = spec.config().expect("valid workload spec");
    let seed = spec.seed + i as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
    let input = spec.workload.generator().generate(config.n(), &mut rng);
    let fault_plan = match spec.placement {
        Placement::LastK => FaultPlan::last_k(config, spec.f),
        Placement::RandomK => FaultPlan::random_k(config, spec.f, &mut rng),
    };
    RunInstance {
        config,
        algo: spec.algo,
        underlying: spec.underlying_kind(),
        strategy: spec.adversary.strategy(),
        faults: spec.chaos.build(config, &fault_plan),
        fault_plan,
        input,
        delay: spec.delay.clone(),
        seed,
        max_events: spec.max_events,
        aggregate: spec.aggregate.is_on(),
    }
}

/// The actors `run_instance` builds for a DEX-freq instance, rebuilt here
/// so the timing shim can wrap them. The transparency gate checks that
/// they behave identically.
///
/// # Panics
///
/// Panics for algorithms other than DEX-freq.
pub fn dex_nodes(inst: &RunInstance) -> Vec<DexNode> {
    assert_eq!(inst.algo, Algo::DexFreq, "the workloads run DEX-freq");
    let cfg = inst.config;
    cfg.processes()
        .map(|me| {
            if inst.fault_plan.is_faulty(me) {
                return DexNode::Byz(ByzantineActor::new(inst.strategy.clone()));
            }
            let uc = match inst.underlying {
                UnderlyingKind::Oracle => AnyUc::oracle(cfg, me, inst.fault_plan.coordinator(cfg)),
                UnderlyingKind::Mvc { coin_seed } => AnyUc::mvc(cfg, me, coin_seed),
            };
            let pair = FrequencyPair::new(cfg).expect("n > 6t");
            let mut node = DexNode::Freq(DexActor::new(
                DexProcess::new(cfg, me, pair, uc),
                *inst.input.get(me),
            ));
            if inst.aggregate {
                node.enable_aggregation();
            }
            node
        })
        .collect()
}

/// The replicas `PipelineRun::execute` builds, rebuilt here for the shim.
pub fn log_nodes(run: &PipelineRun) -> Vec<LogNode> {
    let queue = slot_batches(run.seed, run.slots, run.batch);
    (0..run.config.n())
        .map(|i| {
            let mut r = Replica::new(
                run.config,
                ProcessId::new(i),
                ProcessId::new(0),
                queue.clone(),
                run.slots,
            );
            if run.window > 1 {
                r.enable_pipelining(run.window);
            }
            if run.aggregate {
                r.enable_echo_aggregation();
            }
            Node::Correct(r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_harness::runner::{run_instance, traced_batch_run};

    #[test]
    fn workload_flags_parse_and_names_are_unique() {
        for w in WORKLOADS {
            let spec = w.spec(1);
            assert_eq!(spec.runs, w.pool);
            assert_eq!(spec.pipeline.is_off(), w.slots == 0, "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.flags), Some(w.flags));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn instance_i_is_dex_sim_batch_member_i() {
        let spec = RunSpec::from_args(&[
            "--n",
            "7",
            "--t",
            "1",
            "--f",
            "1",
            "--adversary",
            "equivocate",
            "--workload",
            "zipf:8:1.0",
            "--underlying",
            "mvc",
            "--seed",
            "5",
            "--runs",
            "3",
        ])
        .unwrap();
        for i in 0..3 {
            let ours = run_instance(&instance(&spec, i));
            let batch = spec.with_batch(|b| traced_batch_run(b, i)).unwrap();
            assert_eq!(ours, batch.result, "member {i}");
        }
    }
}
