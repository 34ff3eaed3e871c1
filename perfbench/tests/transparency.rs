//! The shim transparency gate on n = 7 variants of each workload shape:
//! a run through the timing shim must reproduce the library's entry point
//! exactly, or the per-layer split would describe a different run.

use dex_harness::runner::run_instance;
use dex_perfbench::bench::{self, Options};
use dex_perfbench::exec;
use dex_perfbench::shim::{take_clock, Layer};
use dex_perfbench::workload::{Pool, Workload};

const ECHO: Workload = Workload {
    name: "echo_flood_n7",
    flags: "--n 7 --t 1 --workload bernoulli:0.8 --underlying oracle",
    pool: 4,
    slots: 0,
};
const BYZ: Workload = Workload {
    name: "byz_fallback_n7",
    flags: "--n 7 --t 1 --f 1 --adversary equivocate --workload zipf:8:1.0 --underlying mvc",
    pool: 4,
    slots: 0,
};
const PIPE: Workload = Workload {
    name: "pipeline_batched_n7",
    flags: "--n 7 --t 1 --pipeline 8:4 --aggregate",
    pool: 2,
    slots: 24,
};

fn calls(layer: Layer) -> u64 {
    take_clock().calls[layer as usize]
}

#[test]
fn shim_reproduces_single_shot_runs() {
    for (w, busiest) in [(ECHO, Layer::IdbEcho), (BYZ, Layer::Uc)] {
        let Pool::Single(pool) = w.pool(3) else {
            panic!("{} is single-shot", w.name)
        };
        for (i, inst) in pool.iter().enumerate() {
            let plain = run_instance(inst);
            take_clock();
            let timed = exec::shim_instance(inst);
            assert_eq!(plain, timed, "{} instance {i}", w.name);
            assert!(exec::sound(&plain, inst), "{} instance {i}", w.name);
            assert!(calls(busiest) > 0, "{} instance {i}", w.name);
        }
    }
}

#[test]
fn shim_reproduces_pipelined_runs() {
    let Pool::Pipeline(pool) = PIPE.pool(3) else {
        panic!("pipelined workload")
    };
    for (i, run) in pool.iter().enumerate() {
        let out = exec::execute(run).expect("cluster converges");
        take_clock();
        let timed = exec::shim_cluster(run);
        assert!(timed.matches(&out), "instance {i}");
        assert!(calls(Layer::ReplicaEchoBatch) > 0, "instance {i}");
        assert!(exec::plain_cluster(run).matches(&out), "instance {i}");
        assert!(timed.recycled > 0, "24 slots at window 8 recycle instances");
    }
}

#[test]
fn traced_and_untraced_reports_pass_their_gates() {
    for w in [ECHO, BYZ, PIPE] {
        for trace in [false, true] {
            let r = bench::run(
                &w,
                &Options {
                    seed: 1,
                    seconds: 0.01,
                    trace,
                },
            );
            assert!(r.correct, "{} trace={trace}: {:?}", w.name, r.notes);
            assert_eq!(r.failed, 0);
            assert!(r.attempted >= w.pool as u64, "one full pass at least");
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            let expect = if trace {
                "trace.overhead"
            } else {
                "decisions_per_s"
            };
            assert!(names.contains(&expect), "{} trace={trace}", w.name);
        }
    }
}
