//! The logical oracle the engine benches check against before timing:
//! the optimised logical plan executed by the tree-walker, every row
//! scored exactly and uncached, then the policy gate — a row is released
//! iff its exact confidence is strictly above β.

use pcqe_algebra::{execute_with, optimize, ScoredTuple};
use pcqe_engine::{Database, QueryResponse};
use pcqe_lineage::{Evaluator, VarId};
use pcqe_par::Parallelism;
use pcqe_policy::{evaluate_results, ConfidencePolicy};
use pcqe_sql::parse_and_plan;
use pcqe_storage::TupleId;
use std::collections::BTreeMap;

/// The rows the oracle releases for `sql` over `db`'s catalog under
/// threshold `beta`, with base confidences replaced by `overrides` where
/// given (a what-if preview).
pub fn released(
    db: &Database,
    sql: &str,
    beta: f64,
    overrides: &BTreeMap<TupleId, f64>,
) -> Vec<ScoredTuple> {
    let catalog = db.catalog();
    let plan = parse_and_plan(sql, catalog).expect("oracle plans");
    let plan = optimize(&plan, catalog).expect("oracle optimises");
    let rows = execute_with(&plan, catalog, &Parallelism::sequential()).expect("oracle executes");
    let probs = |v: VarId| {
        let id = TupleId(v.0);
        overrides
            .get(&id)
            .copied()
            .or_else(|| catalog.confidence(id))
    };
    let scored = rows
        .score(&probs, &Evaluator::default())
        .expect("oracle scores");
    let policy = ConfidencePolicy::new("oracle", "oracle", beta).expect("valid β");
    let confidences: Vec<f64> = scored.iter().map(|s| s.confidence).collect();
    evaluate_results(&policy, &confidences)
        .released
        .iter()
        .map(|&i| scored[i].clone())
        .collect()
}

/// Assert an engine response releases exactly the oracle's rows: same
/// values in the same order, same confidence bits.
pub fn assert_matches(resp: &QueryResponse, expected: &[ScoredTuple], what: &str) {
    assert_eq!(
        resp.released.len(),
        expected.len(),
        "{what}: released count"
    );
    for (x, y) in resp.released.iter().zip(expected) {
        assert_eq!(x.tuple, y.tuple, "{what}: released values");
        assert_eq!(
            x.confidence.to_bits(),
            y.confidence.to_bits(),
            "{what}: confidence bits"
        );
    }
}
