//! Vectorized-execution benchmark: the morsel-driven columnar executor
//! measured against the logical tree-walker (the equivalence oracle,
//! tuple-at-a-time over the same optimised plan) on scan-heavy, join and
//! aggregation workloads, at 1, 2 and 4 worker threads — checked for
//! bit-identical results before timing.
//!
//! The headline number is the scan workload: the vectorized table scan
//! fuses its residual predicate over *borrowed* stored rows and only
//! materialises survivors into columnar batches, where the logical
//! walker clones every row first and filters afterwards. On a
//! selective predicate over wide rows that asymmetry alone is worth
//! several-fold, independent of core count — which is what makes the
//! speedup contract enforceable on a single-core CI runner. The
//! thread-count sweep exports the full curve so multi-core runs show
//! the morsel-parallel scaling on top.
//!
//! The run emits a `pcqe-obs` metrics JSON document to the path given as
//! the first argument (default `results/vectorized_exec.json`); CI gates
//! it against `results/baseline_vectorized.json` with
//! `pcqe-obs-validate --gate`.

use pcqe_algebra::{execute_vectorized_with, execute_with, lower, optimize, Plan, ResultSet};
use pcqe_bench::timing::{bench, group};
use pcqe_lineage::Rng64;
use pcqe_par::Parallelism;
use pcqe_sql::parse_and_plan;
use pcqe_storage::{Catalog, Column, DataType, Schema, Value};

/// Rows in the scanned fact table. Large enough that per-row clone cost
/// dominates; small enough that the full sweep stays in CI budget.
const READINGS: i64 = 40_000;
/// Distinct sensors (the join/aggregate key domain).
const SENSORS: i64 = 64;

/// The workload grid: a highly selective scan over wide rows, an
/// equi-join of the filtered fact table with its dimension table, and a
/// grouped aggregation over the same filter.
const WORKLOADS: &[(&str, &str)] = &[
    (
        "scan",
        "SELECT sensor, value, label FROM readings WHERE value < 50",
    ),
    (
        "join",
        "SELECT r.sensor, r.value, s.id FROM readings r JOIN sensors s \
         ON r.sensor = s.id WHERE r.value < 120",
    ),
    (
        "aggregate",
        "SELECT sensor, COUNT(*) AS n FROM readings WHERE value < 200 \
         GROUP BY sensor",
    ),
];

/// A deterministic catalog: `READINGS` wide rows (an INT key, an INT
/// measure 0..1000, and a TEXT label that makes row clones expensive)
/// plus a small dimension table.
fn build_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.create_table(
        "readings",
        Schema::new(vec![
            Column::new("sensor", DataType::Int),
            Column::new("value", DataType::Int),
            Column::new("label", DataType::Text),
        ])
        .expect("schema"),
    )
    .expect("table");
    c.create_table(
        "sensors",
        Schema::new(vec![Column::new("id", DataType::Int)]).expect("schema"),
    )
    .expect("table");
    let mut rng = Rng64::seed_from_u64(0x00B4_7C4E);
    for i in 0..READINGS {
        let sensor = rng.below_u64(SENSORS as u64) as i64;
        let value = rng.below_u64(1000) as i64;
        c.insert(
            "readings",
            vec![
                Value::Int(sensor),
                Value::Int(value),
                Value::text(format!("reading {i} from sensor {sensor}")),
            ],
            rng.range_f64(0.05, 0.99),
        )
        .expect("row");
    }
    for id in 0..SENSORS {
        c.insert("sensors", vec![Value::Int(id)], rng.range_f64(0.5, 0.99))
            .expect("row");
    }
    c
}

/// The optimised logical plan the oracle walks and the vectorized
/// executor runs once lowered.
fn logical(sql: &str, catalog: &Catalog) -> Plan {
    let plan = parse_and_plan(sql, catalog).expect("plans");
    optimize(&plan, catalog).expect("optimises")
}

fn threads(n: usize) -> Parallelism {
    Parallelism {
        worker_threads: Some(n),
        parallel_threshold: 1,
    }
}

/// Bit-identity: rows, order and lineage must match the logical oracle
/// exactly (DerivedTuple equality covers values and lineage terms).
fn assert_identical(a: &ResultSet, b: &ResultSet, label: &str) {
    assert_eq!(
        a.rows().len(),
        b.rows().len(),
        "{label}: row count diverged"
    );
    for (i, (x, y)) in a.rows().iter().zip(b.rows()).enumerate() {
        assert_eq!(x, y, "{label}: row {i} diverged");
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/vectorized_exec.json".to_owned());
    let recorder = pcqe_obs::Recorder::new();
    let catalog = build_catalog();

    // Correctness before timing: the vectorized executor must be
    // bit-identical to the logical oracle on every workload at every
    // thread count in the sweep.
    for &(name, sql) in WORKLOADS {
        let plan = logical(sql, &catalog);
        let phys = lower(&plan, &catalog).expect("lowers");
        let reference = execute_with(&plan, &catalog, &threads(1)).expect("logical");
        assert!(
            !reference.rows().is_empty(),
            "{name}: workload must produce rows to be meaningful"
        );
        for t in [1usize, 2, 4] {
            let v = execute_vectorized_with(&phys, &catalog, &threads(t)).expect("vectorized");
            assert_identical(&reference, &v, name);
        }
        recorder.counter_add(
            &format!("bench.vectorized.{name}.rows"),
            reference.rows().len() as u64,
        );
    }

    // The timed sweep: each workload, logical vs vectorized, across the
    // thread curve. `best` of 10 keeps the numbers stable on a noisy
    // shared runner.
    let mut scan_speedup_t4 = 0.0f64;
    for &(name, sql) in WORKLOADS {
        group(&format!("vectorized_exec/{name}"));
        let plan = logical(sql, &catalog);
        let phys = lower(&plan, &catalog).expect("lowers");
        for t in [1usize, 2, 4] {
            let par = threads(t);
            let walker = bench(&format!("{name}/logical/t{t}"), 10, || {
                execute_with(&plan, &catalog, &par).expect("logical")
            });
            let vector = bench(&format!("{name}/vectorized/t{t}"), 10, || {
                execute_vectorized_with(&phys, &catalog, &par).expect("vectorized")
            });
            recorder.histogram_record(
                &format!("bench.vectorized.{name}.logical.t{t}.seconds"),
                walker.best,
            );
            recorder.histogram_record(
                &format!("bench.vectorized.{name}.t{t}.seconds"),
                vector.best,
            );
            let speedup = walker.best / vector.best.max(1e-12);
            recorder.gauge_set(&format!("bench.vectorized.{name}.speedup.t{t}"), speedup);
            println!("  {name} @ {t} thread(s): {speedup:.2}x vectorized vs logical");
            if name == "scan" && t == 4 {
                scan_speedup_t4 = speedup;
            }
        }
    }

    // The contract the CI gate pins: ≥2x end-to-end on the scan-heavy
    // workload at 4 threads, vectorized vs the logical walker at the same
    // thread count (so the bar holds even on a single-core runner, where the
    // win is scan fusion rather than parallel speedup).
    recorder.gauge_set("bench.vectorized.speedup", scan_speedup_t4);
    assert!(
        scan_speedup_t4 >= 2.0,
        "vectorized execution must be at least 2x faster on the \
         scan-heavy workload at 4 threads, measured {scan_speedup_t4:.2}x"
    );

    let json = pcqe_obs::export::to_json(&recorder.snapshot());
    let path = std::path::Path::new(&out);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(path, &json).expect("write bench JSON");
    println!("\nwrote {out}");
}
