//! The end-to-end run: a single-client closed loop over
//! `pcqe_engine::Database`, which is the only API it calls.

use crate::check::{engine_plan, Fingerprint, Plan};
use crate::gen::{Inputs, Op, OpKind, SLOTS};
use pcqe_engine::{Database, EngineConfig, EngineError, ImprovementProposal, QueryRequest, User};
use pcqe_policy::ConfidencePolicy;
use pcqe_storage::{Column, Schema, TupleId, Value};
use std::time::{Duration, Instant};

/// One executed op.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Index of the op in the epoch.
    pub index: usize,
    /// Op type.
    pub kind: OpKind,
    /// Latency of the `Database` call(s), seconds.
    pub secs: f64,
    /// The call returned `Ok` and the op's own checks held.
    pub ok: bool,
    /// Outcome fingerprint, compared against the traced replay.
    pub fp: Option<u64>,
}

/// A proposal held for later what-if previews and applies, with the
/// number of results its first query must release once it is applied.
#[derive(Debug, Clone)]
struct Held {
    proposal: ImprovementProposal,
    quota: usize,
}

/// Load the inputs into an empty `Database` built with the default
/// configuration: tables, indexes, policy and costs. This is the span
/// `setup_s` times.
pub fn load(inputs: &Inputs) -> Result<Database, EngineError> {
    let mut db = Database::new(EngineConfig::default());
    let mut ids: Vec<TupleId> = Vec::with_capacity(inputs.base_rows());
    for t in &inputs.tables {
        let columns = t
            .columns
            .iter()
            .map(|&(name, ty)| Column::new(name, ty))
            .collect();
        db.create_table(t.name, Schema::new(columns)?)?;
        for row in &t.rows {
            ids.push(db.insert(t.name, row.values.clone(), row.confidence)?);
        }
    }
    for &(table, column) in &inputs.indexes {
        db.create_index(table, column)?;
    }
    db.add_policy(ConfidencePolicy::new(
        inputs.role.as_str(),
        inputs.purpose.as_str(),
        inputs.beta,
    )?);
    for (ordinal, cost) in &inputs.costs {
        let id = ids.get(*ordinal).copied().ok_or(EngineError::Storage(
            pcqe_storage::StorageError::UnknownTuple(*ordinal as u64),
        ))?;
        db.set_cost(id, cost.clone())?;
    }
    Ok(db)
}

/// An op with its request objects built ahead of timing.
enum Ready<'a> {
    Write(&'a str, Vec<(Vec<Value>, f64)>),
    Query(QueryRequest, usize),
    WhatIf(QueryRequest, usize, (usize, usize), bool),
    Batch(Vec<QueryRequest>, usize),
    Apply(usize),
}

fn ready<'a>(op: &'a Op, purpose: &str) -> Ready<'a> {
    let request = |sql: &str, theta: f64| QueryRequest::new(sql, purpose).expecting(theta);
    match op {
        Op::Write { table, rows } => Ready::Write(
            table,
            rows.iter()
                .map(|r| (r.values.clone(), r.confidence))
                .collect(),
        ),
        Op::Query {
            sql,
            expecting,
            into,
        } => Ready::Query(request(sql, *expecting), *into),
        Op::WhatIf {
            sql,
            from,
            keep,
            check_quota,
        } => Ready::WhatIf(request(sql, 1.0), *from, *keep, *check_quota),
        Op::Batch {
            sqls,
            expecting,
            into,
        } => Ready::Batch(sqls.iter().map(|s| request(s, *expecting)).collect(), *into),
        Op::Apply { from } => Ready::Apply(*from),
    }
}

/// The first `ceil(len * num / den)` increments of a proposal.
pub fn prefix(len: usize, (num, den): (usize, usize)) -> usize {
    (len * num).div_ceil(den.max(1)).min(len)
}

/// Fingerprint of a write: the ids it was given.
pub fn write_fp(ids: &[u64]) -> u64 {
    let mut fp = Fingerprint::default();
    for id in ids {
        fp.num(*id);
    }
    fp.finish()
}

/// Fingerprint of an apply: how many increments it applied.
pub fn apply_fp(increments: usize) -> u64 {
    let mut fp = Fingerprint::default();
    fp.num(increments as u64);
    fp.finish()
}

/// Run one epoch's ops against `db`, appending a record per executed op,
/// until the epoch ends or `stop` says so. Returns whether the epoch
/// completed and the loop's wall time. Ops that need a proposal their
/// source op did not produce are skipped (counted in `skipped`).
pub fn run_epoch(
    db: &mut Database,
    inputs: &Inputs,
    records: &mut Vec<OpRecord>,
    skipped: &mut u64,
    mut stop: impl FnMut(&[OpRecord]) -> bool,
) -> (bool, Duration) {
    let user = User::new("bench", inputs.role.as_str());
    let mut slots: Vec<Option<Held>> = vec![None; SLOTS];
    let started = Instant::now();
    for (index, op) in inputs.epoch.iter().enumerate() {
        if stop(records) {
            return (false, started.elapsed());
        }
        let kind = op.kind();
        let record = |secs: f64, ok: bool, fp: Option<u64>| OpRecord {
            index,
            kind,
            secs,
            ok,
            fp,
        };
        match ready(op, &inputs.purpose) {
            Ready::Write(table, rows) => {
                let mut ids = Vec::with_capacity(rows.len());
                let t0 = Instant::now();
                let mut ok = true;
                for (values, confidence) in rows {
                    match db.insert(table, values, confidence) {
                        Ok(id) => ids.push(id.0),
                        Err(_) => ok = false,
                    }
                }
                let secs = t0.elapsed().as_secs_f64();
                records.push(record(secs, ok, ok.then(|| write_fp(&ids))));
            }
            Ready::Query(request, into) => {
                let t0 = Instant::now();
                let out = db.query(&user, &request);
                let secs = t0.elapsed().as_secs_f64();
                match out {
                    Ok(r) => {
                        let ok = r
                            .proposal
                            .as_ref()
                            .is_none_or(|p| Plan::of(p).cost_adds_up());
                        let mut fp = Fingerprint::default();
                        fp.response(&r);
                        engine_plan(&mut fp, r.proposal.as_ref(), r.no_proposal.as_ref());
                        slots[into] = r.proposal.map(|p| Held {
                            quota: p.requested,
                            proposal: p,
                        });
                        records.push(record(secs, ok, Some(fp.finish())));
                    }
                    Err(_) => {
                        slots[into] = None;
                        records.push(record(secs, false, None));
                    }
                }
            }
            Ready::WhatIf(request, from, keep, check_quota) => {
                let Some(held) = &slots[from] else {
                    *skipped += 1;
                    continue;
                };
                let mut preview = held.proposal.clone();
                preview
                    .increments
                    .truncate(prefix(preview.increments.len(), keep));
                let t0 = Instant::now();
                let out = db.what_if(&user, &request, &preview);
                let secs = t0.elapsed().as_secs_f64();
                match out {
                    Ok(r) => {
                        let ok = !check_quota || r.released.len() >= held.quota;
                        let mut fp = Fingerprint::default();
                        fp.response(&r);
                        records.push(record(secs, ok, Some(fp.finish())));
                    }
                    Err(_) => records.push(record(secs, false, None)),
                }
            }
            Ready::Batch(requests, into) => {
                let t0 = Instant::now();
                let out = db.query_batch(&user, &requests);
                let secs = t0.elapsed().as_secs_f64();
                match out {
                    Ok(b) => {
                        let ok = b
                            .proposal
                            .as_ref()
                            .is_none_or(|p| Plan::of(p).cost_adds_up());
                        let mut fp = Fingerprint::default();
                        for r in &b.responses {
                            fp.response(r);
                        }
                        engine_plan(&mut fp, b.proposal.as_ref(), b.no_proposal.as_ref());
                        let first = b
                            .responses
                            .first()
                            .map_or(0, |r| r.released.len() + r.withheld);
                        let theta = requests.first().map_or(0.0, |r| r.min_fraction);
                        slots[into] = b.proposal.map(|p| Held {
                            quota: (theta * first as f64).ceil() as usize,
                            proposal: p,
                        });
                        records.push(record(secs, ok, Some(fp.finish())));
                    }
                    Err(_) => {
                        slots[into] = None;
                        records.push(record(secs, false, None));
                    }
                }
            }
            Ready::Apply(from) => {
                let Some(held) = slots[from].take() else {
                    *skipped += 1;
                    continue;
                };
                let t0 = Instant::now();
                let out = db.apply(&held.proposal);
                let secs = t0.elapsed().as_secs_f64();
                let fp = apply_fp(held.proposal.increments.len());
                records.push(record(secs, out.is_ok(), out.is_ok().then_some(fp)));
            }
        }
    }
    (true, started.elapsed())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_round_up_and_cover_the_whole() {
        assert_eq!(prefix(7, (1, 3)), 3);
        assert_eq!(prefix(7, (2, 3)), 5);
        assert_eq!(prefix(7, (3, 3)), 7);
        assert_eq!(prefix(0, (1, 1)), 0);
    }
}
