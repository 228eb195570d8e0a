//! Circuit-cache acceptance suite.
//!
//! The contract of `lineage::cache` (DESIGN.md §10) is that the
//! query-scoped circuit cache is a pure performance decision: for every
//! query in the grid below, over randomised databases, the engine — which
//! always scores through the cache, β-gated — must release exactly what
//! the uncached logical oracle (`common::oracle`) releases: same rows in
//! the same order, same lineage, same confidence bits, same withheld
//! counts, at any worker-thread count. Every proposal it makes must be
//! valid under the oracle, and the audit log must record the oracle's
//! counts. Repeated what-if previews (the memo-warming,
//! incrementally-invalidated fast path) must preview the oracle's futures
//! bit for bit.

mod common;

use common::{
    assert_audited, assert_matches_oracle, assert_proposal_valid, for_each_case, oracle,
    oracle_with, paper_db, PAPER_QUERY,
};
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::lineage::Rng64;
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Column, DataType, Schema, Value};

const CASES: u64 = 16;

/// Query shapes whose lineage exercises the pool: conjunctive joins
/// (shared base tuples across result rows), DISTINCT (disjunctive
/// lineage), set operations (negation), aggregation.
const QUERIES: &[&str] = &[
    "SELECT * FROM orders WHERE amount > 2",
    "SELECT DISTINCT cust FROM orders WHERE amount > 1",
    "SELECT o.amount FROM orders o JOIN customers c ON o.cust = c.id",
    "SELECT o.amount, c.score FROM orders o, customers c WHERE o.cust = c.id AND amount > 1",
    "SELECT cust FROM orders WHERE amount > 1 UNION SELECT id FROM customers WHERE id > 0",
    "SELECT cust FROM orders EXCEPT SELECT id FROM customers WHERE id > 1",
    "SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust HAVING n > 0",
];

fn build_db(
    config: EngineConfig,
    beta: f64,
    orders: &[(i64, i64, f64)],
    customers: &[(i64, f64, f64)],
) -> Database {
    let mut db = Database::new(config);
    db.create_table(
        "orders",
        Schema::new(vec![
            Column::new("cust", DataType::Int),
            Column::new("amount", DataType::Int),
        ])
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "customers",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("score", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    for &(cust, amount, conf) in orders {
        db.insert("orders", vec![Value::Int(cust), Value::Int(amount)], conf)
            .unwrap();
    }
    for &(id, score, conf) in customers {
        db.insert("customers", vec![Value::Int(id), Value::Real(score)], conf)
            .unwrap();
    }
    db.add_policy(ConfidencePolicy::new("analyst", "research", beta).unwrap());
    db
}

fn random_orders(rng: &mut Rng64) -> Vec<(i64, i64, f64)> {
    let n = rng.below_usize(7);
    (0..n)
        .map(|_| {
            (
                rng.below_u64(3) as i64,
                rng.below_u64(6) as i64,
                rng.range_f64(0.05, 0.95),
            )
        })
        .collect()
}

fn random_customers(rng: &mut Rng64) -> Vec<(i64, f64, f64)> {
    let n = rng.below_usize(4);
    (0..n)
        .map(|_| {
            (
                rng.below_u64(3) as i64,
                rng.range_f64(-2.0, 2.0),
                rng.range_f64(0.05, 0.95),
            )
        })
        .collect()
}

/// The engine against the oracle over the randomised grid, sequential
/// and 4-thread: released sets, confidence bits and withheld counts must
/// match, proposals must be valid, and the audit log must agree.
#[test]
fn cached_engine_is_bit_identical_to_uncached() {
    for_each_case(CASES, 0x00CA_0001, |rng| {
        let orders = random_orders(rng);
        let customers = random_customers(rng);
        let user = User::new("ada", "analyst");
        for beta in [0.1, 0.45] {
            for threads in [Some(1), Some(4)] {
                let config = EngineConfig {
                    worker_threads: threads,
                    parallel_threshold: 1,
                    ..EngineConfig::default()
                };
                let mut db = build_db(config, beta, &orders, &customers);
                for (i, sql) in QUERIES.iter().enumerate() {
                    let request = QueryRequest::new(*sql, "research");
                    let resp = db.query(&user, &request).expect("engine query");
                    let context = format!("{sql} (beta={beta}, threads={threads:?})");
                    assert_matches_oracle(&resp, &oracle(&db, sql, beta), &context);
                    if let Some(p) = &resp.proposal {
                        assert_proposal_valid(&db, &[(sql, p.requested)], beta, p, &context);
                    }
                    assert_audited(&db.audit_log()[i], &resp, &context);
                }
                assert_eq!(db.audit_log().len(), QUERIES.len());
            }
        }
    });
}

// ---------------------------------------------------------------------------
// What-if previews: the repeated-probe fast path.

/// Query → proposal → repeated what-if previews against the oracle:
/// every preview must agree bit for bit, and the repeated probes must
/// actually hit the cache's memoised subcircuits.
#[test]
fn what_if_previews_are_bit_identical_and_hit_the_cache() {
    let mut db = paper_db(EngineConfig::default().sequential());
    let user = User::new("mark", "Manager");
    let request = QueryRequest::new(PAPER_QUERY, "investment");
    const BETA: f64 = 0.06;

    let resp = db.query(&user, &request).expect("engine query");
    assert_matches_oracle(&resp, &oracle(&db, PAPER_QUERY, BETA), "paper query");
    let proposal = resp.proposal.expect("the paper example yields a strategy");
    assert_proposal_valid(
        &db,
        &[(PAPER_QUERY, proposal.requested)],
        BETA,
        &proposal,
        "paper query",
    );
    let overrides = proposal
        .increments
        .iter()
        .map(|i| (i.tuple_id, i.to))
        .collect();

    // Probe the same future repeatedly: the engine warms its memo on the
    // first preview and answers the rest from it; the invalidation walk
    // between catalog-backed and override-backed probabilities must not
    // change a single bit.
    for probe in 0..3 {
        let preview = db.what_if(&user, &request, &proposal).expect("preview");
        let expected = oracle_with(&db, PAPER_QUERY, BETA, true, &overrides);
        assert_matches_oracle(&preview, &expected, &format!("what-if probe {probe}"));
        assert_eq!(preview.released.len(), 1, "the fixed t03 releases the row");
        assert!((preview.released[0].confidence - 0.065).abs() < 1e-12);
    }
    // Previews are not audited.
    assert_eq!(db.audit_log().len(), 1);

    let snapshot = db.metrics_snapshot();
    let compiled = snapshot.counters.get("lineage.circuit_compiled").copied();
    let hits = snapshot.counters.get("lineage.cache_hit").copied();
    let invalidated = snapshot.counters.get("lineage.cache_invalidated").copied();
    assert!(
        compiled.unwrap_or(0) > 0,
        "the engine never compiled into the pool: {compiled:?}"
    );
    assert!(
        hits.unwrap_or(0) > 0,
        "repeated what-if probes never hit the cache: {hits:?}"
    );
    assert!(
        invalidated.unwrap_or(0) > 0,
        "override/restore probes never invalidated a memo: {invalidated:?}"
    );
}
