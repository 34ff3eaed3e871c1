//! Full-stack determinism: identical seeds reproduce identical executions
//! bit-for-bit, across every algorithm and adversary. This is what makes
//! every number in EXPERIMENTS.md reproducible.

use dex::adversary::{ByzantineStrategy, FaultPlan};
use dex::harness::runner::{run_instance, Algo, RunInstance, UnderlyingKind};
use dex::simnet::DelayModel;
use dex::types::{InputVector, SystemConfig};

fn spec(algo: Algo, underlying: UnderlyingKind, seed: u64) -> RunInstance {
    let config = SystemConfig::new(8, 1).unwrap();
    RunInstance {
        faults: dex::simnet::FaultSchedule::none(),
        config,
        algo,
        underlying,
        strategy: ByzantineStrategy::EchoPoison { values: vec![0, 9] },
        fault_plan: FaultPlan::last_k(config, 1),
        input: InputVector::new(vec![1, 1, 1, 0, 1, 0, 1, 1]),
        delay: DelayModel::Exponential { mean: 7 },
        seed,
        max_events: 20_000_000,
        aggregate: false,
    }
}

#[test]
fn identical_seeds_reproduce_runs() {
    for algo in [Algo::DexFreq, Algo::DexPrv { m: 1 }, Algo::Bosco] {
        let a = run_instance(&spec(algo, UnderlyingKind::Oracle, 42));
        let b = run_instance(&spec(algo, UnderlyingKind::Oracle, 42));
        assert_eq!(a, b, "{} must replay identically", algo.label());
    }
}

#[test]
fn different_seeds_change_schedules() {
    let a = run_instance(&spec(Algo::DexFreq, UnderlyingKind::Oracle, 1));
    let b = run_instance(&spec(Algo::DexFreq, UnderlyingKind::Oracle, 2));
    // Values must agree across runs only *within* a run; message counts
    // almost surely differ between seeds.
    assert!(a.agreement_ok() && b.agreement_ok());
    assert_ne!(
        (a.messages, a.outcomes),
        (b.messages, b.outcomes),
        "distinct seeds should explore distinct schedules"
    );
}

#[test]
fn randomized_underlying_replays_too() {
    let a = run_instance(&spec(
        Algo::DexFreq,
        UnderlyingKind::Mvc { coin_seed: 3 },
        9,
    ));
    let b = run_instance(&spec(
        Algo::DexFreq,
        UnderlyingKind::Mvc { coin_seed: 3 },
        9,
    ));
    assert_eq!(a, b);
}

#[test]
fn pipelined_slot_recycling_replays_identically() {
    // Which freed instance a new slot reuses is recorded in every
    // `SlotReuse` event, so it must not depend on hash-map iteration order:
    // two runs in one process (distinct map instances) must match event for
    // event.
    use dex::harness::pipeline::PipelineRun;
    let run = PipelineRun {
        config: SystemConfig::new(7, 1).unwrap(),
        window: 8,
        batch: 4,
        slots: 24,
        seed: 1,
        aggregate: true,
    };
    let (a, trace_a) = run.traced();
    let (b, trace_b) = run.traced();
    assert!(a.recycled > 0, "the run must recycle slot instances");
    assert_eq!((a.recycled, a.ticks), (b.recycled, b.ticks));
    assert_eq!(trace_a.processes.len(), trace_b.processes.len());
    for (pa, pb) in trace_a.processes.iter().zip(&trace_b.processes) {
        let first_diff = pa.events.iter().zip(&pb.events).position(|(x, y)| x != y);
        assert_eq!(first_diff, None, "process {} diverged", pa.id);
        assert_eq!(pa.events.len(), pb.events.len(), "process {}", pa.id);
    }
}
