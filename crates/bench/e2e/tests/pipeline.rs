//! The benchmark's own pipeline on tiny inputs: the engine-driven loop
//! agrees with the traced replay on every op, and the metrics it reports
//! are exactly the ones `BENCHMARK.json` names.

use pcqe_e2e_bench::check::mismatches;
use pcqe_e2e_bench::drive::{load, run_epoch};
use pcqe_e2e_bench::gen::{self, generate, Params, Round};
use pcqe_e2e_bench::replay::replay;
use pcqe_e2e_bench::report::{end_to_end, per_layer, Run, MIN_SAMPLES};
use pcqe_e2e_bench::stats::valid_name;

/// A workload's shape on a few dozen customers.
fn tiny(mut p: Params, rounds: usize) -> Params {
    p.customers = 64;
    p.regions = 16;
    p.rounds = rounds;
    p.round = match p.round {
        Round::Improve {
            queries,
            theta,
            previews,
            batch_queries,
            ..
        } => Round::Improve {
            queries,
            query_regions: 4,
            theta,
            previews,
            batch_queries,
        },
        other => other,
    };
    p
}

fn run_one_epoch(params: &Params, seed: u64) -> (Run, pcqe_e2e_bench::replay::Replay) {
    let inputs = generate(params, seed);
    let mut run = Run {
        nproc: 1,
        ..Run::default()
    };
    let mut db = load(&inputs).expect("tiny inputs load");
    let (complete, wall) = run_epoch(&mut db, &inputs, &mut run.records, &mut run.skipped, |_| {
        false
    });
    assert!(complete);
    run.loop_secs = wall.as_secs_f64();
    run.setups.push(0.001);
    run.epochs = (1, 1);
    run.engine_first = db.metrics_snapshot();
    run.absorb_engine(&run.engine_first.clone());
    let replayed = replay(&inputs).expect("tiny inputs replay");
    (run, replayed)
}

#[test]
fn engine_and_traced_replay_agree_on_every_op() {
    for name in gen::WORKLOADS {
        let params = tiny(gen::workload(name).expect("known workload"), 6);
        let (run, replayed) = run_one_epoch(&params, 3);
        assert!(!run.records.is_empty(), "{name}: no ops ran");
        assert!(
            run.records.iter().all(|r| r.ok),
            "{name}: an op failed its checks"
        );
        let observed: Vec<_> = run.records.iter().map(|r| (r.index, r.fp)).collect();
        assert_eq!(
            mismatches(&observed, &replayed.reference),
            0,
            "{name}: replay disagrees"
        );
        assert_eq!(replayed.counts.invalid_proposals, 0, "{name}");
    }
}

/// Metric names listed under `key` in the repository's BENCHMARK.json.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = pcqe_obs::json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_owned()
        })
        .collect()
}

#[test]
fn reported_metrics_are_the_declared_ones() {
    // Enough rounds that every timed op type reaches its p90 sample floor.
    let params = tiny(gen::improve_whatif(), MIN_SAMPLES);
    let (run, replayed) = run_one_epoch(&params, 5);
    let e2e = end_to_end(&run).expect("enough samples for every percentile");
    let layers = per_layer(&run, &replayed);
    let names =
        |m: &pcqe_e2e_bench::stats::Metrics| m.0.iter().map(|x| x.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&e2e), declared("end_to_end"));
    assert_eq!(names(&layers), declared("per_layer"));
    for m in e2e.0.iter().chain(&layers.0) {
        assert!(valid_name(&m.name), "{}", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}
