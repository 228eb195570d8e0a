//! The engine's one query path — optimise, lower, vectorized execution,
//! cached β-gated scoring — against the logical oracle of
//! `common::oracle` on hand-built databases where the expected outcome
//! is known: the paper's Section 3.1 example and a join with a row whose
//! bound proves it hopeless. Released rows, confidence bits, withheld
//! counts, audit entries and policy counters must be the oracle's, and
//! proposals must be valid under it.

mod common;

use common::{
    assert_audited, assert_matches_oracle, assert_proposal_valid, oracle, paper_db, PAPER_QUERY,
};
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Column, DataType, Schema, Value};

/// For both of the paper's users, the engine releases exactly what the
/// logical oracle releases, the θ path proposes the cheap fix from
/// exact confidences, and the audit entries and `policy.*` counters
/// record the oracle's counts. On the paper example the union bound
/// (0.2) exceeds both β values, so the β-gate skips nothing — and must
/// say so.
#[test]
fn paper_example_matches_the_oracle_and_its_audit() {
    let mut db = paper_db(EngineConfig::default());
    let cases = [
        (User::new("sue", "Secretary"), "analysis", 0.05),
        (User::new("mark", "Manager"), "investment", 0.06),
    ];
    let (mut released, mut withheld) = (0, 0);
    for (i, (user, purpose, beta)) in cases.iter().enumerate() {
        let resp = db
            .query(user, &QueryRequest::new(PAPER_QUERY, *purpose))
            .unwrap();
        let expected = oracle(&db, PAPER_QUERY, *beta);
        assert_matches_oracle(&resp, &expected, purpose);
        if let Some(p) = &resp.proposal {
            assert!((p.cost - 10.0).abs() < 1e-9, "{purpose}: cost {}", p.cost);
            assert_proposal_valid(&db, &[(PAPER_QUERY, p.requested)], *beta, p, purpose);
        }
        assert_eq!(resp.proposal.is_some(), i == 1, "{purpose}");
        assert_audited(&db.audit_log()[i], &resp, purpose);
        released += resp.released.len() as u64;
        withheld += resp.withheld as u64;
    }
    // The secretary sees the row; the manager gets a proposal instead.
    assert_eq!((released, withheld), (1, 1));
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("policy.released"), released);
    assert_eq!(snap.counter("policy.withheld"), withheld);
    assert_eq!(snap.counter("lineage.exact_skipped"), 0);
}

/// A row whose upper bound is at or below β skips exact evaluation, and
/// is re-scored exactly only when it feeds strategy finding.
#[test]
fn beta_gating_skips_exact_evaluation_for_hopeless_rows() {
    let mut db = Database::new(EngineConfig::default());
    for table in ["a", "b"] {
        db.create_table(
            table,
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
    }
    // Row 1: AND-lineage with upper bound min(0.2, 0.9) = 0.2 ≤ β but
    // exact 0.18 — the short-circuit case.
    db.insert("a", vec![Value::Int(1)], 0.2).unwrap();
    db.insert("b", vec![Value::Int(1)], 0.9).unwrap();
    // Row 2: bound 0.9 > β, exact 0.855 > β — released.
    db.insert("a", vec![Value::Int(2)], 0.9).unwrap();
    db.insert("b", vec![Value::Int(2)], 0.95).unwrap();
    db.add_policy(ConfidencePolicy::new("r", "p", 0.5).unwrap());
    let sql = "SELECT a.x FROM a JOIN b ON a.x = b.x";
    let user = User::new("u", "r");

    // θ = 0.5 is met by the released row: the hopeless row's exact
    // confidence is never computed.
    let resp = db
        .query(&user, &QueryRequest::new(sql, "p").expecting(0.5))
        .unwrap();
    assert_matches_oracle(&resp, &oracle(&db, sql, 0.5), "θ = 0.5");
    assert!((resp.released[0].confidence - 0.855).abs() < 1e-12);
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("lineage.exact_skipped"), 1);
    assert_eq!(snap.counter("lineage.exact_rescored"), 0);

    // θ = 1.0 pulls the withheld row into strategy finding, which is
    // exempt from gating: the row is re-scored exactly first, and the
    // proposal is valid under the oracle's exact confidences.
    let resp = db.query(&user, &QueryRequest::new(sql, "p")).unwrap();
    assert_matches_oracle(&resp, &oracle(&db, sql, 0.5), "θ = 1.0");
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("lineage.exact_skipped"), 2);
    assert_eq!(snap.counter("lineage.exact_rescored"), 1);
    let proposal = resp.proposal.expect("a strategy exists");
    assert_eq!(proposal.requested, 2);
    assert_proposal_valid(&db, &[(sql, 2)], 0.5, &proposal, "θ = 1.0");
}
