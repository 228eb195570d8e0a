//! Physical-planning benchmark: the three performance levers the
//! logical → physical pipeline adds, each measured against its baseline
//! and checked for bit-identical answers before timing. Physical plans
//! run on the vectorized executor, the engine's only one.
//!
//! 1. **Hash join vs nested loop** — both strategies run over the same
//!    equi-join at growing sizes; the crossover point where hashing wins
//!    is reported alongside the strategy the cost-based planner picked.
//! 2. **Index scan vs table scan** — a point-lookup query over a large
//!    table, planned with and without an equality index on the key.
//! 3. **β-gated vs ungated cached scoring** — a low-confidence
//!    DISTINCT-join workload under a policy whose threshold β provably
//!    rejects every row: the engine skips exact Shannon expansion for all
//!    of them (`lineage.exact_skipped`) and releases exactly what the
//!    logical oracle releases; the gated scorer is then timed against
//!    ungated cached scoring of the same result set.
//!
//! Like the figure benches, the run emits a JSON document — here the
//! `pcqe-obs` metrics export, validated in CI by `pcqe-obs-validate` —
//! to the path given as the first argument (default
//! `results/physical_planning.json`).

use pcqe_algebra::{
    execute, execute_vectorized_with, lower, optimize, PhysicalPlan, Plan, ResultSet, ScalarExpr,
};
use pcqe_bench::oracle;
use pcqe_bench::timing::{bench, group};
use pcqe_engine::{Database, EngineConfig, QueryRequest, User};
use pcqe_lineage::{CircuitCache, Evaluator, Rng64};
use pcqe_par::Parallelism;
use pcqe_policy::ConfidencePolicy;
use pcqe_sql::parse_and_plan;
use pcqe_storage::{Catalog, Column, DataType, Schema, TupleId, Value};
use std::collections::BTreeMap;

/// Execute a physical plan sequentially on the vectorized executor.
fn run(plan: &PhysicalPlan, catalog: &Catalog) -> ResultSet {
    execute_vectorized_with(plan, catalog, &Parallelism::sequential()).expect("executes")
}

/// Two `n`-row tables keyed so every left row matches exactly one right
/// row, with deterministic confidences.
fn join_catalog(n: u64) -> Catalog {
    let mut rng = Rng64::seed_from_u64(7 + n);
    let mut catalog = Catalog::new();
    for name in ["l", "r"] {
        catalog
            .create_table(
                name,
                Schema::new(vec![
                    Column::new("k", DataType::Int),
                    Column::new("v", DataType::Int),
                ])
                .expect("schema"),
            )
            .expect("table");
    }
    for i in 0..n {
        let c = 0.05 + 0.9 * rng.next_f64();
        catalog
            .insert("l", vec![Value::Int(i as i64), Value::Int(1)], c)
            .expect("row");
        let c = 0.05 + 0.9 * rng.next_f64();
        catalog
            .insert("r", vec![Value::Int(i as i64), Value::Int(2)], c)
            .expect("row");
    }
    catalog
}

/// Assert two result sets are bit-identical (rows, order, lineage).
fn assert_same(a: &pcqe_algebra::ResultSet, b: &pcqe_algebra::ResultSet, what: &str) {
    assert_eq!(a.rows().len(), b.rows().len(), "{what}: row count");
    for (x, y) in a.rows().iter().zip(b.rows()) {
        assert_eq!(x.tuple, y.tuple, "{what}: values");
        assert_eq!(x.lineage, y.lineage, "{what}: lineage");
    }
}

fn join_crossover(recorder: &pcqe_obs::Recorder) {
    group("physical_planning/join_crossover");
    let mut crossover: Option<u64> = None;
    for n in [4u64, 16, 64, 256, 1024] {
        let catalog = join_catalog(n);
        let scan = |t: &str| PhysicalPlan::TableScan {
            table: t.to_owned(),
            alias: None,
            residual: None,
        };
        let hash = PhysicalPlan::HashJoin {
            left: Box::new(scan("l")),
            right: Box::new(scan("r")),
            keys: vec![(0, 2)],
            residual: None,
        };
        let nl = PhysicalPlan::NestedLoopJoin {
            left: Box::new(scan("l")),
            right: Box::new(scan("r")),
            predicate: Some(ScalarExpr::column(0).eq(ScalarExpr::column(2))),
        };
        assert_same(
            &run(&hash, &catalog),
            &run(&nl, &catalog),
            "hash vs nested loop",
        );

        let t_hash = bench(&format!("join/hash/n{n}"), 10, || run(&hash, &catalog));
        let t_nl = bench(&format!("join/nested_loop/n{n}"), 10, || run(&nl, &catalog));
        recorder.histogram_record(&format!("bench.join.hash.n{n}.seconds"), t_hash.best);
        recorder.histogram_record(&format!("bench.join.nested_loop.n{n}.seconds"), t_nl.best);
        if crossover.is_none() && t_hash.best < t_nl.best {
            crossover = Some(n);
        }

        // What the cost-based planner actually picks at this size.
        let logical = Plan::scan("l").join(
            Plan::scan("r"),
            ScalarExpr::column(0).eq(ScalarExpr::column(2)),
        );
        let logical = optimize(&logical, &catalog).expect("optimize");
        let physical = lower(&logical, &catalog).expect("lower");
        let chosen = if physical.to_string().contains("HashJoin") {
            "hash"
        } else {
            "nested_loop"
        };
        println!("n={n}: planner chose {chosen}");
        recorder.counter_add(&format!("bench.join.planner_chose.{chosen}.n{n}"), 1);
    }
    match crossover {
        Some(n) => {
            println!("hash join first wins at n={n}");
            recorder.gauge_set("bench.join.crossover_rows", n as f64);
        }
        None => println!("nested loop won at every measured size"),
    }
}

fn index_vs_table_scan(recorder: &pcqe_obs::Recorder) {
    group("physical_planning/index_scan");
    const N: u64 = 20_000;
    let mut plain = join_catalog(0);
    plain
        .create_table(
            "t",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ])
            .expect("schema"),
        )
        .expect("table");
    let mut rng = Rng64::seed_from_u64(99);
    for i in 0..N {
        let c = 0.05 + 0.9 * rng.next_f64();
        catalog_insert(&mut plain, i, c);
    }
    let mut indexed = plain.clone();
    indexed.create_index("t", "k").expect("index");

    let logical = Plan::scan("t")
        .select(ScalarExpr::column(0).eq(ScalarExpr::literal(Value::Int((N / 2) as i64))));
    let logical = optimize(&logical, &plain).expect("optimize");
    let table_plan = lower(&logical, &plain).expect("lower");
    let index_plan = lower(&logical, &indexed).expect("lower");
    assert!(table_plan.to_string().contains("TableScan"), "{table_plan}");
    assert!(index_plan.to_string().contains("IndexScan"), "{index_plan}");
    let a = run(&table_plan, &plain);
    let b = run(&index_plan, &indexed);
    assert_same(&a, &b, "index vs table scan");
    // And both agree with the logical executor.
    let c = execute(&logical, &plain).expect("logical");
    assert_same(&a, &c, "physical vs logical");

    let t_table = bench("scan/table/point_lookup", 20, || run(&table_plan, &plain));
    let t_index = bench("scan/index/point_lookup", 20, || run(&index_plan, &indexed));
    recorder.histogram_record("bench.scan.table.seconds", t_table.best);
    recorder.histogram_record("bench.scan.index.seconds", t_index.best);
    let speedup = t_table.best / t_index.best.max(1e-12);
    recorder.gauge_set("bench.scan.index_speedup", speedup);
    println!("index-scan speedup over table scan: {speedup:.1}x ({N} rows)");
}

fn catalog_insert(catalog: &mut Catalog, i: u64, confidence: f64) {
    catalog
        .insert(
            "t",
            vec![Value::Int(i as i64), Value::Int((i % 7) as i64)],
            confidence,
        )
        .expect("row");
}

/// A low-confidence workload under a policy threshold β that provably
/// rejects every result: group `g`'s lineage is an OR over 16 AND-pairs
/// of 0.001-confidence tuples, so its union bound (16 × 0.001 = 0.016)
/// stays at or below β = 0.05 and the gate skips every exact Shannon
/// expansion without changing what is released.
fn beta_database() -> Database {
    let config = EngineConfig {
        worker_threads: Some(1),
        ..EngineConfig::default()
    };
    let mut db = Database::new(config);
    db.create_table(
        "a",
        Schema::new(vec![
            Column::new("g", DataType::Int),
            Column::new("x", DataType::Int),
        ])
        .expect("schema"),
    )
    .expect("table");
    db.create_table(
        "b",
        Schema::new(vec![Column::new("x", DataType::Int)]).expect("schema"),
    )
    .expect("table");
    const GROUPS: i64 = 60;
    const FAN: i64 = 4; // 4×4 = 16 derivations per group
    for g in 0..GROUPS {
        for i in 0..FAN {
            db.insert("a", vec![Value::Int(g), Value::Int(g * FAN + i)], 0.001)
                .expect("row");
        }
    }
    for g in 0..GROUPS {
        for i in 0..FAN {
            for _ in 0..FAN {
                // FAN b-rows per a-key: the join fans out and DISTINCT
                // merges the derivations back into one row per group.
                db.insert("b", vec![Value::Int(g * FAN + i)], 0.001)
                    .expect("row");
            }
        }
    }
    db.add_policy(ConfidencePolicy::new("analyst", "report", 0.05).expect("policy"));
    db
}

/// A fresh circuit cache holding the current confidence of every base
/// tuple the result set reads (what the engine syncs before scoring).
fn synced_cache(rows: &ResultSet, catalog: &Catalog) -> CircuitCache {
    let mut cache = CircuitCache::new();
    for row in rows.rows() {
        for v in row.lineage.vars() {
            if let Some(p) = catalog.confidence(TupleId(v.0)) {
                cache.set_prob(v, p);
            }
        }
    }
    cache
}

fn beta_gate(recorder: &pcqe_obs::Recorder) {
    group("physical_planning/beta_gate");
    const SQL: &str = "SELECT DISTINCT g FROM a JOIN b ON a.x = b.x";
    const BETA: f64 = 0.05;
    let user = User::new("ann", "analyst");
    let request = QueryRequest::new(SQL, "report").expecting(0.0);

    let mut db = beta_database();
    let resp = db.query(&user, &request).expect("query");
    let expected = oracle::released(&db, SQL, BETA, &BTreeMap::new());
    oracle::assert_matches(&resp, &expected, "β-gated engine vs oracle");
    let skipped = db.metrics_snapshot().counter("lineage.exact_skipped");
    assert!(skipped > 0, "low-β workload must skip exact evaluations");
    println!(
        "exact evaluations skipped: {skipped} (of {} rows)",
        resp.withheld
    );
    recorder.counter_add("bench.beta.exact_skipped", skipped);

    // Time the two cached scorers over the same executed result set,
    // each from a fresh cache so neither sees the other's memos.
    let catalog = db.catalog();
    let plan = optimize(&parse_and_plan(SQL, catalog).expect("plans"), catalog).expect("optimises");
    let rows = run(&lower(&plan, catalog).expect("lowers"), catalog);
    let ev = Evaluator::default();
    let t_gated = bench("beta_gate/gated", 10, || {
        let mut cache = synced_cache(&rows, catalog);
        rows.score_gated_cached_morsels_traced(&mut cache, &ev, BETA, None, None)
            .expect("scores")
    });
    let t_ungated = bench("beta_gate/ungated", 10, || {
        let mut cache = synced_cache(&rows, catalog);
        rows.score_cached(&mut cache, &ev).expect("scores")
    });
    recorder.histogram_record("bench.beta.gated.seconds", t_gated.best);
    recorder.histogram_record("bench.beta.ungated.seconds", t_ungated.best);
    let speedup = t_ungated.best / t_gated.best.max(1e-12);
    recorder.gauge_set("bench.beta.speedup", speedup);
    println!("β-gated scoring speedup over ungated cached scoring: {speedup:.2}x");
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/physical_planning.json".to_owned());
    let recorder = pcqe_obs::Recorder::new();

    join_crossover(&recorder);
    index_vs_table_scan(&recorder);
    beta_gate(&recorder);

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
