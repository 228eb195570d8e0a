//! End-to-end scenarios across the whole stack: role hierarchies, partial
//! fractions, provenance-backed inserts, union/except queries, and the
//! improvement loop under each solver.

#![allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract

mod common;

use pcqe::core::dnc::DncOptions;
use pcqe::core::greedy::GreedyOptions;
use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig, NoProposal, QueryRequest, SolverChoice, User};
use pcqe::policy::{ConfidencePolicy, Role};
use pcqe::provenance::{CollectionMethod, ProvenanceRecord, Source};
use pcqe::storage::{Column, DataType, Schema, Value};

fn orders_db(config: EngineConfig) -> Database {
    let mut db = Database::new(config);
    db.create_table(
        "Orders",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("region", DataType::Text),
            Column::new("amount", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    for (i, (region, amount, conf)) in [
        ("west", 100.0, 0.9),
        ("west", 200.0, 0.3),
        ("west", 300.0, 0.25),
        ("east", 400.0, 0.35),
        ("east", 500.0, 0.9),
        ("east", 600.0, 0.2),
    ]
    .iter()
    .enumerate()
    {
        let id = db
            .insert(
                "Orders",
                vec![
                    Value::Int(i as i64),
                    Value::text(*region),
                    Value::Real(*amount),
                ],
                *conf,
            )
            .unwrap();
        db.set_cost(id, CostFn::linear(10.0 * (i + 1) as f64).unwrap())
            .unwrap();
    }
    db.add_policy(ConfidencePolicy::new("clerk", "reporting", 0.5).unwrap());
    db
}

#[test]
fn fraction_request_yields_minimal_proposal() {
    let mut db = orders_db(EngineConfig::default());
    let clerk = User::new("carl", "clerk");
    // 2 of 6 rows pass already; ask for two thirds → 2 more needed.
    let request =
        QueryRequest::new("SELECT id, amount FROM Orders", "reporting").expecting(2.0 / 3.0);
    let resp = db.query(&clerk, &request).unwrap();
    assert_eq!(resp.released.len(), 2);
    let proposal = resp.proposal.clone().expect("improvable");
    assert_eq!(proposal.requested, 4);
    assert_eq!(proposal.projected_released, 4);
    db.apply(&proposal).unwrap();
    let resp = db.query(&clerk, &request).unwrap();
    assert!(resp.released.len() >= 4);
    assert!(matches!(resp.no_proposal, Some(NoProposal::NotNeeded)));
}

#[test]
fn all_solver_choices_reach_the_quota() {
    for solver in [
        SolverChoice::Auto,
        SolverChoice::Greedy(GreedyOptions::default()),
        SolverChoice::Greedy(GreedyOptions::incremental()),
        SolverChoice::Dnc(DncOptions::default()),
        SolverChoice::Heuristic(pcqe::core::heuristic::HeuristicOptions::all()),
    ] {
        let mut db = orders_db(EngineConfig {
            solver,
            ..EngineConfig::default()
        });
        let clerk = User::new("carl", "clerk");
        let request = QueryRequest::new("SELECT id FROM Orders", "reporting");
        let resp = db.query_with_improvement(&clerk, &request).unwrap();
        assert_eq!(resp.released.len(), 6, "full release after improvement");
    }
}

/// The engine always optimises; the oracle runs the unoptimised logical
/// plan. Released rows (sorted, since the optimiser may reorder them)
/// and confidences must agree.
#[test]
fn optimizer_toggle_gives_identical_results() {
    let queries = [
        "SELECT id, amount FROM Orders WHERE region = 'west' AND amount > 150.0",
        "SELECT region, COUNT(*) AS n FROM Orders GROUP BY region ORDER BY region",
        "SELECT o.id FROM Orders o JOIN Orders p ON o.region = p.region WHERE o.amount < p.amount",
    ];
    let mut db = orders_db(EngineConfig::default());
    db.add_policy(ConfidencePolicy::new("clerk", "audit", 0.0).unwrap());
    let clerk = User::new("carl", "clerk");
    let unoptimized = std::collections::BTreeMap::new();
    for sql in queries {
        let a = db.query(&clerk, &QueryRequest::new(sql, "audit")).unwrap();
        let b = common::oracle_with(&db, sql, 0.0, false, &unoptimized);
        let mut ra: Vec<String> = a
            .released
            .iter()
            .map(|r| format!("{} {:.9}", r.tuple, r.confidence))
            .collect();
        let mut rb: Vec<String> = b
            .released
            .iter()
            .map(|r| format!("{} {:.9}", r.tuple, r.confidence))
            .collect();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb, "{sql}");
        assert_eq!(a.withheld, b.withheld, "{sql}");
        // And the optimised plan visibly differs for the filter query.
        if sql.contains("region = 'west'") {
            assert!(db.explain(sql).unwrap().contains("Select"));
        }
    }
}

#[test]
fn purpose_specialisation_applies_policies() {
    let mut db = orders_db(EngineConfig::default());
    db.add_purpose_specialisation(
        &pcqe::policy::Purpose::new("quarterly-close"),
        &pcqe::policy::Purpose::new("reporting"),
    )
    .unwrap();
    let resp = db
        .query(
            &User::new("carl", "clerk"),
            &QueryRequest::new("SELECT id FROM Orders", "quarterly-close"),
        )
        .unwrap();
    assert_eq!(resp.threshold, 0.5, "specialised purpose found the policy");
}

#[test]
fn role_hierarchy_applies_policies_to_seniors() {
    let mut db = orders_db(EngineConfig::default());
    db.add_role_inheritance(&Role::new("supervisor"), &Role::new("clerk"))
        .unwrap();
    let boss = User::new("beth", "supervisor");
    let resp = db
        .query(
            &boss,
            &QueryRequest::new("SELECT id FROM Orders", "reporting"),
        )
        .unwrap();
    assert_eq!(resp.threshold, 0.5, "inherited the clerk policy");
}

#[test]
fn provenance_assessed_rows_flow_through_policies() {
    let mut db = Database::new(EngineConfig::default());
    db.create_table(
        "Readings",
        Schema::new(vec![Column::new("v", DataType::Int)]).unwrap(),
    )
    .unwrap();
    let strong = Source::new("calibrated-sensor", 0.95).unwrap();
    let weak = Source::new("crowd-report", 0.3).unwrap();
    db.insert_assessed(
        "Readings",
        vec![Value::Int(1)],
        &[ProvenanceRecord::new(strong, CollectionMethod::Automated)],
    )
    .unwrap();
    db.insert_assessed(
        "Readings",
        vec![Value::Int(2)],
        &[ProvenanceRecord::new(
            weak,
            CollectionMethod::ThirdPartyFeed,
        )],
    )
    .unwrap();
    db.add_policy(ConfidencePolicy::new("ops", "alerting", 0.5).unwrap());
    let resp = db
        .query(
            &User::new("olga", "ops"),
            &QueryRequest::new("SELECT v FROM Readings", "alerting").expecting(0.5),
        )
        .unwrap();
    assert_eq!(resp.released.len(), 1);
    assert_eq!(resp.released[0].tuple.get(0), Some(&Value::Int(1)));
}

#[test]
fn union_queries_merge_lineage_across_tables() {
    let mut db = Database::new(EngineConfig::default());
    for t in ["A", "B"] {
        db.create_table(
            t,
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
    }
    db.insert("A", vec![Value::Int(7)], 0.4).unwrap();
    db.insert("B", vec![Value::Int(7)], 0.4).unwrap();
    db.add_policy(ConfidencePolicy::new("r", "p", 0.5).unwrap());
    // Individually each source is below β, but the OR of both reaches
    // 1 − 0.6² = 0.64 > 0.5.
    let resp = db
        .query(
            &User::new("u", "r"),
            &QueryRequest::new("SELECT x FROM A UNION SELECT x FROM B", "p"),
        )
        .unwrap();
    assert_eq!(resp.released.len(), 1);
    assert!((resp.released[0].confidence - 0.64).abs() < 1e-12);
}

#[test]
fn improvement_is_idempotent_once_satisfied() {
    let mut db = orders_db(EngineConfig::default());
    let clerk = User::new("carl", "clerk");
    let request = QueryRequest::new("SELECT id FROM Orders", "reporting");
    let after = db.query_with_improvement(&clerk, &request).unwrap();
    assert_eq!(after.released.len(), 6);
    // A second round finds nothing to do.
    let again = db.query(&clerk, &request).unwrap();
    assert!(again.proposal.is_none());
    assert!(matches!(again.no_proposal, Some(NoProposal::NotNeeded)));
}

#[test]
fn proposal_costs_are_consistent_with_cost_functions() {
    let mut db = orders_db(EngineConfig::default());
    let clerk = User::new("carl", "clerk");
    let resp = db
        .query(
            &clerk,
            &QueryRequest::new("SELECT id FROM Orders", "reporting"),
        )
        .unwrap();
    let proposal = resp.proposal.unwrap();
    let recomputed: f64 = proposal.increments.iter().map(|i| i.cost).sum();
    assert!((recomputed - proposal.cost).abs() < 1e-6);
    for inc in &proposal.increments {
        assert!(inc.to > inc.from);
        assert!(inc.to <= 1.0 + 1e-12);
    }
}

#[test]
fn where_clause_arithmetic_and_strings() {
    let mut db = orders_db(EngineConfig::default());
    db.add_policy(ConfidencePolicy::new("clerk", "audit", 0.0).unwrap());
    let resp = db
        .query(
            &User::new("carl", "clerk"),
            &QueryRequest::new(
                "SELECT id FROM Orders WHERE amount / 100.0 >= 4 AND region = 'east'",
                "audit",
            ),
        )
        .unwrap();
    assert_eq!(resp.released.len(), 3);
}
