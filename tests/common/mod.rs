//! Shared support for the seeded property suites and the engine oracle.
//!
//! The workspace builds fully offline, so the former `proptest` suites
//! are driven by the in-repo [`Rng64`] generator instead: each test runs
//! a fixed number of cases, each case derived from a per-case seed, so a
//! failure prints the exact seed needed to replay it in isolation.
//!
//! [`oracle`] is the reference every engine-level equivalence test
//! compares against: the logical tree-walker, sequential uncached
//! scoring and the policy gate, with none of the engine's lowering,
//! vectorized execution, circuit cache or β-gating in between. The
//! property it pins is the paper's release rule — a row is released iff
//! its exact confidence is strictly above β.

#![allow(dead_code)]

use pcqe::algebra::{execute_with, optimize, ScoredTuple};
use pcqe::cost::CostFn;
use pcqe::engine::{AuditEntry, Database, EngineConfig, ImprovementProposal, QueryResponse};
use pcqe::lineage::{Evaluator, Lineage, Rng64, VarId};
use pcqe::par::Parallelism;
use pcqe::policy::{evaluate_results, ConfidencePolicy};
use pcqe::sql::parse_and_plan;
use pcqe::storage::{Column, DataType, Schema, TupleId, Value};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

/// The paper's Section 3.1 query: companies with a sub-million proposal.
pub const PAPER_QUERY: &str = "SELECT DISTINCT CompanyInfo.company, income \
    FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
    WHERE funding < 1000000.0";

/// The Section 3.1 database: proposals t02 (p = 0.3, raising it costs
/// 1000 per unit) and t03 (p = 0.4, cost 100), company info t13 (p = 0.1,
/// cost 10 000), and the policies ⟨Secretary, analysis, 0.05⟩ and
/// ⟨Manager, investment, 0.06⟩. The query scores 0.058, so the secretary
/// sees the row and the manager gets a proposal raising t03 to 0.5.
pub fn paper_db(config: EngineConfig) -> Database {
    let mut db = Database::new(config);
    db.create_table(
        "Proposal",
        Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("proposal", DataType::Text),
            Column::new("funding", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "CompanyInfo",
        Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("income", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    let proposal = |name: &str, funding: f64| {
        vec![
            Value::text("SkyCam"),
            Value::text(name),
            Value::Real(funding),
        ]
    };
    let t02 = db
        .insert("Proposal", proposal("drone v1", 800_000.0), 0.3)
        .unwrap();
    let t03 = db
        .insert("Proposal", proposal("drone v2", 900_000.0), 0.4)
        .unwrap();
    let t13 = db
        .insert(
            "CompanyInfo",
            vec![Value::text("SkyCam"), Value::Real(500_000.0)],
            0.1,
        )
        .unwrap();
    db.set_cost(t02, CostFn::linear(1000.0).unwrap()).unwrap();
    db.set_cost(t03, CostFn::linear(100.0).unwrap()).unwrap();
    db.set_cost(t13, CostFn::linear(10_000.0).unwrap()).unwrap();
    db.add_policy(ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap());
    db.add_policy(ConfidencePolicy::new("Manager", "investment", 0.06).unwrap());
    db
}

/// What the oracle releases for one query.
pub struct OracleAnswer {
    /// The result schema.
    pub schema: Schema,
    /// Released rows, in result order, with exact confidences.
    pub released: Vec<ScoredTuple>,
    /// Number of withheld rows.
    pub withheld: usize,
}

/// Run `sql` against `db`'s current catalog through the logical oracle
/// under threshold `beta`: the optimised logical plan executed by the
/// tree-walker, every row scored exactly by the default evaluator, then
/// the policy gate.
pub fn oracle(db: &Database, sql: &str, beta: f64) -> OracleAnswer {
    oracle_with(db, sql, beta, true, &BTreeMap::new())
}

/// [`oracle`] with the logical optimiser switched on or off and base
/// confidences replaced by `overrides` where given (a what-if preview).
pub fn oracle_with(
    db: &Database,
    sql: &str,
    beta: f64,
    optimized: bool,
    overrides: &BTreeMap<TupleId, f64>,
) -> OracleAnswer {
    let catalog = db.catalog();
    let mut plan = parse_and_plan(sql, catalog).expect("oracle plans");
    if optimized {
        plan = optimize(&plan, catalog).expect("oracle optimises");
    }
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
    let decision = evaluate_results(&policy, &confidences);
    OracleAnswer {
        schema: rows.schema().clone(),
        released: decision
            .released
            .iter()
            .map(|&i| scored[i].clone())
            .collect(),
        withheld: decision.withheld.len(),
    }
}

/// Assert an engine response releases exactly what the oracle releases:
/// same schema, same rows in the same order, same lineage, same
/// confidence bits, same withheld count.
pub fn assert_matches_oracle(resp: &QueryResponse, expected: &OracleAnswer, context: &str) {
    assert_eq!(
        resp.schema, expected.schema,
        "schema diverged from the oracle for {context}"
    );
    assert_eq!(
        resp.withheld, expected.withheld,
        "withheld count diverged from the oracle for {context}"
    );
    assert_eq!(
        resp.released.len(),
        expected.released.len(),
        "released count diverged from the oracle for {context}"
    );
    for (i, (x, y)) in resp.released.iter().zip(&expected.released).enumerate() {
        assert_eq!(x.tuple, y.tuple, "released row {i} diverged for {context}");
        assert_eq!(
            x.lineage, y.lineage,
            "released lineage {i} diverged for {context}"
        );
        assert_eq!(
            x.confidence.to_bits(),
            y.confidence.to_bits(),
            "confidence bits {i} diverged for {context}"
        );
    }
}

/// Assert the audit entry records the response's decision.
pub fn assert_audited(entry: &AuditEntry, resp: &QueryResponse, context: &str) {
    match entry {
        AuditEntry::Query {
            released,
            withheld,
            proposed,
            ..
        } => {
            assert_eq!(*released, resp.released.len(), "audit released, {context}");
            assert_eq!(*withheld, resp.withheld, "audit withheld, {context}");
            assert_eq!(
                *proposed,
                resp.proposal.is_some(),
                "audit proposed, {context}"
            );
        }
        other => panic!("expected a query audit entry for {context}, got {other:?}"),
    }
}

/// Assert a proposal is valid: its cost is the sum of its increments'
/// costs, and with its raised confidences substituted in, the oracle
/// releases at least `requested` rows of every `(sql, requested)` query.
pub fn assert_proposal_valid(
    db: &Database,
    queries: &[(&str, usize)],
    beta: f64,
    proposal: &ImprovementProposal,
    context: &str,
) {
    let sum: f64 = proposal.increments.iter().map(|i| i.cost).sum();
    assert!(
        (proposal.cost - sum).abs() <= 1e-9 * proposal.cost.abs().max(1.0),
        "proposal cost {} is not the sum of its increments {sum} for {context}",
        proposal.cost
    );
    let overrides: BTreeMap<TupleId, f64> = proposal
        .increments
        .iter()
        .map(|i| (i.tuple_id, i.to))
        .collect();
    for &(sql, requested) in queries {
        let released = oracle_with(db, sql, beta, true, &overrides).released.len();
        assert!(
            released >= requested,
            "proposal releases {released} < {requested} rows of {sql} for {context}"
        );
    }
}

/// Run `f` once per case with an independently seeded generator.
///
/// Each case's RNG is seeded from `base_seed` mixed with the case index,
/// so cases are independent and any failure is replayable: the panic
/// message names the case index and exact seed.
pub fn for_each_case(cases: u64, base_seed: u64, mut f: impl FnMut(&mut Rng64)) {
    for case in 0..cases {
        let seed = base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng64::seed_from_u64(seed);
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut rng))) {
            eprintln!("seeded suite failed at case {case} (seed {seed:#018x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A random lineage formula over variables `0..max_vars`, negation and
/// constants included (the shape space of the old proptest strategy).
pub fn random_lineage(rng: &mut Rng64, max_vars: u64, depth: u32) -> Lineage {
    // At depth 0 — or one time in four — emit a leaf.
    if depth == 0 || rng.below_u64(4) == 0 {
        if rng.chance(0.75) {
            Lineage::var(rng.below_u64(max_vars))
        } else {
            Lineage::Const(rng.chance(0.5))
        }
    } else {
        match rng.below_u64(3) {
            0 => Lineage::not(random_lineage(rng, max_vars, depth - 1)),
            1 => Lineage::and(
                (0..rng.range_usize(1, 4))
                    .map(|_| random_lineage(rng, max_vars, depth - 1))
                    .collect(),
            ),
            _ => Lineage::or(
                (0..rng.range_usize(1, 4))
                    .map(|_| random_lineage(rng, max_vars, depth - 1))
                    .collect(),
            ),
        }
    }
}

/// A random negation-free lineage over variables `0..max_vars` (the
/// monotone shape space assumed by the solvers' pruning rules).
pub fn random_positive_lineage(rng: &mut Rng64, max_vars: u64, depth: u32) -> Lineage {
    if depth == 0 || rng.below_u64(4) == 0 {
        Lineage::var(rng.below_u64(max_vars))
    } else if rng.chance(0.5) {
        Lineage::and(
            (0..rng.range_usize(1, 4))
                .map(|_| random_positive_lineage(rng, max_vars, depth - 1))
                .collect(),
        )
    } else {
        Lineage::or(
            (0..rng.range_usize(1, 4))
                .map(|_| random_positive_lineage(rng, max_vars, depth - 1))
                .collect(),
        )
    }
}

/// `n` uniform probabilities in `[0, 1)`.
pub fn random_probs(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64()).collect()
}

/// A random string of length `0..=max_len` drawn from `alphabet`.
pub fn random_string(rng: &mut Rng64, alphabet: &[char], max_len: usize) -> String {
    let len = rng.below_usize(max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.below_usize(alphabet.len())])
        .collect()
}

/// A random Unicode scalar value (any `char`, surrogates excluded).
pub fn random_char(rng: &mut Rng64) -> char {
    loop {
        if let Some(c) = char::from_u32(rng.below_u64(0x11_0000) as u32) {
            return c;
        }
    }
}
