//! Circuit-cache benchmark: the Figure-11-style repeated what-if
//! workload the cache was built for, measured cache-on vs cache-off and
//! checked for bit-identical confidences before timing.
//!
//! The workload mirrors the engine's θ-improvement loop: one query's
//! result circuits (overlapping lineage over a shared base-tuple pool)
//! are scored once, then repeatedly re-scored while single base-tuple
//! confidences are bumped, one per probe. With the cache on, each probe
//! invalidates only the pooled subcircuits whose var-set contains the
//! touched variable and answers every other circuit from its memo; with
//! the cache off, every probe re-runs Shannon expansion on every
//! circuit from scratch.
//!
//! A second section runs the same loop end-to-end through
//! `Database::what_if`, which always scores through the cache: every
//! preview is checked against the uncached logical oracle, and the
//! engine's previews are timed against the oracle's.
//!
//! The run emits a `pcqe-obs` metrics JSON document to the path given as
//! the first argument (default `results/confidence_cache.json`); CI
//! gates it against `results/baseline_confidence_cache.json` with
//! `pcqe-obs-validate --gate`.

use pcqe_bench::oracle;
use pcqe_bench::timing::{bench, group};
use pcqe_engine::{Database, EngineConfig, QueryRequest, User};
use pcqe_lineage::{CircuitCache, Evaluator, Lineage, Rng64, VarId};
use pcqe_policy::ConfidencePolicy;
use pcqe_storage::{Column, DataType, Schema, TupleId, Value};
use std::collections::BTreeMap;

/// Base tuples in the shared pool.
const BASES: u64 = 24;
/// Result circuits per query, with overlapping lineage.
const RESULTS: u64 = 40;
/// What-if probes; each bumps one base tuple's confidence.
const PROBES: u64 = 50;
/// Shannon budget (the engine default).
const BUDGET: usize = 4096;

/// Result circuit `j`: an OR over AND-pairs that share base variables
/// with each other and with neighbouring circuits, so exact evaluation
/// needs Shannon expansion and the pool sees real cross-circuit sharing.
fn circuit(j: u64) -> Lineage {
    Lineage::or(vec![
        Lineage::and(vec![Lineage::var(j % BASES), Lineage::var((j + 1) % BASES)]),
        Lineage::and(vec![
            Lineage::var((j + 1) % BASES),
            Lineage::var((j + 7) % BASES),
        ]),
        Lineage::and(vec![
            Lineage::var(j % BASES),
            Lineage::var((j + 13) % BASES),
        ]),
    ])
}

/// The probe sequence: probe `i` sets base `i % BASES` to a fresh
/// deterministic confidence.
fn probes() -> Vec<(VarId, f64)> {
    let mut rng = Rng64::seed_from_u64(0x00CA_BE7C);
    (0..PROBES)
        .map(|i| (VarId(i % BASES), rng.range_f64(0.05, 0.95)))
        .collect()
}

fn initial_probs() -> BTreeMap<VarId, f64> {
    let mut rng = Rng64::seed_from_u64(0x00CA_0B0B);
    (0..BASES)
        .map(|v| (VarId(v), rng.range_f64(0.05, 0.95)))
        .collect()
}

/// Run the whole workload through the cache; returns the final scores.
fn run_cached(cache: &mut CircuitCache) -> Vec<f64> {
    for (v, p) in initial_probs() {
        cache.set_prob(v, p);
    }
    let ids: Vec<_> = (0..RESULTS)
        .map(|j| cache.compile(&circuit(j), BUDGET).expect("fits budget"))
        .collect();
    let mut scores = Vec::with_capacity(RESULTS as usize);
    for (v, p) in probes() {
        cache.set_prob(v, p);
        scores.clear();
        for &id in &ids {
            scores.push(cache.score(id).expect("known vars"));
        }
    }
    scores
}

/// The same workload with no cache: every probe re-evaluates every
/// circuit from its formula.
fn run_uncached() -> Vec<f64> {
    let ev = Evaluator::exact_only(BUDGET);
    let mut probs = initial_probs();
    let circuits: Vec<Lineage> = (0..RESULTS).map(circuit).collect();
    let mut scores = Vec::with_capacity(RESULTS as usize);
    for (v, p) in probes() {
        probs.insert(v, p);
        scores.clear();
        for c in &circuits {
            scores.push(ev.probability(c, &probs).expect("known vars"));
        }
    }
    scores
}

/// Bit-identity and hit-count checks, then the timed comparison.
fn rescoring_sweep(recorder: &pcqe_obs::Recorder) {
    group("confidence_cache/rescoring");

    // Correctness first: every probe's scores must agree bit for bit.
    // (Run the cached and uncached probe loops in lockstep.)
    {
        let ev = Evaluator::exact_only(BUDGET);
        let mut cache = CircuitCache::new();
        for (v, p) in initial_probs() {
            cache.set_prob(v, p);
        }
        let ids: Vec<_> = (0..RESULTS)
            .map(|j| cache.compile(&circuit(j), BUDGET).expect("fits budget"))
            .collect();
        let circuits: Vec<Lineage> = (0..RESULTS).map(circuit).collect();
        let mut probs = initial_probs();
        for (probe, (v, p)) in probes().into_iter().enumerate() {
            cache.set_prob(v, p);
            probs.insert(v, p);
            for (j, (&id, c)) in ids.iter().zip(&circuits).enumerate() {
                let cached = cache.score(id).expect("known vars");
                let plain = ev.probability(c, &probs).expect("known vars");
                assert_eq!(
                    cached.to_bits(),
                    plain.to_bits(),
                    "probe {probe}, circuit {j}: cached {cached} vs uncached {plain}"
                );
            }
        }
        let stats = cache.stats();
        assert!(stats.hits() > 0, "the probe loop must hit the memo");
        assert!(
            stats.invalidated > 0,
            "every probe must invalidate the touched subcircuits"
        );
        println!(
            "pool: {} nodes, {} circuits; compiled={} hits={} invalidated={}",
            cache.pool_size(),
            cache.circuit_count(),
            stats.compiled,
            stats.hits(),
            stats.invalidated
        );
        recorder.counter_add("bench.cache.compiled", stats.compiled);
        recorder.counter_add("bench.cache.hits", stats.hits());
        recorder.counter_add("bench.cache.invalidated", stats.invalidated);
    }

    let t_on = bench("rescoring/cache_on", 10, || {
        let mut cache = CircuitCache::new();
        run_cached(&mut cache)
    });
    let t_off = bench("rescoring/cache_off", 10, run_uncached);
    recorder.histogram_record("bench.cache.on.seconds", t_on.best);
    recorder.histogram_record("bench.cache.off.seconds", t_off.best);
    let speedup = t_off.best / t_on.best.max(1e-12);
    recorder.gauge_set("bench.cache.speedup", speedup);
    println!(
        "repeated what-if re-scoring: {speedup:.1}x faster with the cache \
         ({RESULTS} circuits x {PROBES} probes over {BASES} bases)"
    );
    assert!(
        speedup >= 5.0,
        "circuit cache must be at least 5x faster on the repeated \
         what-if workload, measured {speedup:.2}x"
    );
}

/// A Section 3.1-shaped database: 12 companies with three low-confidence
/// proposals each.
fn paper_db() -> Database {
    let config = EngineConfig {
        worker_threads: Some(1),
        ..EngineConfig::default()
    };
    let mut db = Database::new(config);
    db.create_table(
        "Proposal",
        Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("proposal", DataType::Text),
            Column::new("funding", DataType::Real),
        ])
        .expect("schema"),
    )
    .expect("table");
    db.create_table(
        "CompanyInfo",
        Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("income", DataType::Real),
        ])
        .expect("schema"),
    )
    .expect("table");
    let mut rng = Rng64::seed_from_u64(0x00CA_DB01);
    for c in 0..12i64 {
        let company = format!("Co{c}");
        for p in 0..3i64 {
            db.insert(
                "Proposal",
                vec![
                    Value::text(&company),
                    Value::text(format!("p{p}")),
                    Value::Real(500_000.0),
                ],
                rng.range_f64(0.02, 0.06),
            )
            .expect("row");
        }
        db.insert(
            "CompanyInfo",
            vec![Value::text(&company), Value::Real(1000.0 * c as f64)],
            rng.range_f64(0.02, 0.06),
        )
        .expect("row");
    }
    db.add_policy(ConfidencePolicy::new("Manager", "investment", 0.06).expect("policy"));
    db
}

const SQL: &str = "SELECT DISTINCT CompanyInfo.company, income \
    FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
    WHERE funding < 1000000.0";

/// End-to-end: query once, then preview the proposal repeatedly through
/// `Database::what_if`, checked against the oracle and timed against it.
fn what_if_sweep(recorder: &pcqe_obs::Recorder) {
    group("confidence_cache/what_if");
    const BETA: f64 = 0.06;
    let user = User::new("mark", "Manager");
    let request = QueryRequest::new(SQL, "investment");

    // Correctness: the response and every preview release exactly the
    // oracle's rows, bit for bit.
    let mut db = paper_db();
    let resp = db.query(&user, &request).expect("query");
    let expected = oracle::released(&db, SQL, BETA, &BTreeMap::new());
    oracle::assert_matches(&resp, &expected, "query vs oracle");
    let proposal = resp.proposal.expect("the withheld rows admit a strategy");
    let overrides: BTreeMap<TupleId, f64> = proposal
        .increments
        .iter()
        .map(|i| (i.tuple_id, i.to))
        .collect();
    let expected = oracle::released(&db, SQL, BETA, &overrides);
    for _ in 0..8 {
        let preview = db.what_if(&user, &request, &proposal).expect("preview");
        oracle::assert_matches(&preview, &expected, "what-if vs oracle");
    }
    let hits = db.metrics_snapshot().counter("lineage.cache_hit");
    assert!(hits > 0, "repeated previews must hit the engine's cache");
    recorder.counter_add("bench.what_if.engine_cache_hits", hits);

    // Eight previews per sample on the already-queried engine (the
    // repeated-probe fast path) against eight oracle previews.
    let t_engine = bench("what_if/engine", 10, || {
        for _ in 0..8 {
            db.what_if(&user, &request, &proposal).expect("preview");
        }
    });
    let t_oracle = bench("what_if/oracle", 10, || {
        for _ in 0..8 {
            oracle::released(&db, SQL, BETA, &overrides);
        }
    });
    recorder.histogram_record("bench.what_if.engine.seconds", t_engine.best);
    recorder.histogram_record("bench.what_if.oracle.seconds", t_oracle.best);
    let speedup = t_oracle.best / t_engine.best.max(1e-12);
    recorder.gauge_set("bench.what_if.speedup", speedup);
    println!("repeated what-if previews: {speedup:.2}x faster than the uncached oracle");
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/confidence_cache.json".to_owned());
    let recorder = pcqe_obs::Recorder::new();

    rescoring_sweep(&recorder);
    what_if_sweep(&recorder);

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
