//! The traced run: the same ops replayed stage by stage through the layer
//! crates' public functions, each call wrapped in a benchmark-owned span.
//!
//! The stages mirror what `Database::query`, `what_if`, `query_batch`,
//! `insert` and `apply` do under `EngineConfig::default()` — physical
//! planning, vectorized execution, cached scoring with the β-gate, the
//! `Auto` solver rule — so the replay's released sets, confidences and
//! proposals must equal the engine's bit for bit. Each op's outcome is
//! fingerprinted exactly as the engine-driven loop fingerprints it; the
//! replay's fingerprints are the reference the loop is checked against.

use crate::check::{Fingerprint, NoPlan, Plan};
use crate::drive::{apply_fp, prefix, write_fp};
use crate::gen::{Inputs, Op, SLOTS};
use crate::spans::Spans;
use pcqe_algebra::{
    execute_vectorized_traced, lower, optimize, ExecProfile, ResultSet, ScoredTuple,
};
use pcqe_core::dnc::{self, DncOptions};
use pcqe_core::greedy::{self, GreedyOptions};
use pcqe_core::heuristic::{self, HeuristicOptions};
use pcqe_core::multi::{solve_greedy, MultiQueryProblem};
use pcqe_core::{CoreError, ProblemBuilder, ProblemInstance, Solution};
use pcqe_cost::CostFn;
use pcqe_engine::EngineConfig;
use pcqe_lineage::{CircuitCache, VarId};
use pcqe_obs::Recorder;
use pcqe_policy::{evaluate_results, ConfidencePolicy, PolicyStore, Purpose, Role};
use pcqe_sql::parse_and_plan;
use pcqe_storage::{Catalog, Column, Schema, TupleId};
use std::collections::{BTreeMap, BTreeSet};

/// Work counts accumulated over the replay.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Rows produced by all operators (the engine's `exec.rows_out`).
    pub rows_out: u64,
    /// Lineage nodes built by all operators.
    pub lineage_nodes: u64,
    /// Result rows scored.
    pub rows_scored: u64,
    /// Rows whose exact scoring the β-gate skipped.
    pub beta_skipped: u64,
    /// Skipped rows re-scored exactly for strategy finding.
    pub rescored: u64,
    /// Rows released by the gate.
    pub released: u64,
    /// Rows withheld by the gate.
    pub withheld: u64,
    /// Base tuples over all strategy problems built.
    pub problem_bases: u64,
    /// Results over all strategy problems built.
    pub problem_results: u64,
    /// Proposals whose validity check failed.
    pub invalid_proposals: u64,
}

/// What the replay of one epoch produced.
#[derive(Debug)]
pub struct Replay {
    /// Reference fingerprint per op index (`None`: the op was skipped,
    /// failed, or produced an invalid proposal).
    pub reference: Vec<Option<u64>>,
    /// The spans of every replayed op.
    pub spans: Spans,
    /// Work counts.
    pub counts: Counts,
    /// The replay's circuit cache (for its statistics and pool size).
    pub cache: CircuitCache,
    /// Scheduler and solver telemetry (`par.*`, `solver.*`).
    pub recorder: Recorder,
    /// Per-op scheduler busy time, ns, in op order.
    pub busy_nanos: Vec<u64>,
}

type Fail = String;

fn fail(e: impl std::fmt::Display) -> Fail {
    e.to_string()
}

/// A mirror of the engine's state, driven through the layer crates.
struct Mirror<'a> {
    inputs: &'a Inputs,
    catalog: Catalog,
    policies: PolicyStore,
    costs: BTreeMap<TupleId, CostFn>,
    config: EngineConfig,
    cache: CircuitCache,
    recorder: Recorder,
    counts: Counts,
}

/// A withheld-or-released split of one scored query.
struct Gated {
    scored: Vec<ScoredTuple>,
    released: Vec<usize>,
    withheld: Vec<usize>,
}

impl Gated {
    fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.num(self.released.len() as u64);
        for &i in &self.released {
            fp.row(&self.scored[i].tuple, self.scored[i].confidence);
        }
        fp.num(self.withheld.len() as u64);
    }

    fn withheld(&self) -> Vec<&ScoredTuple> {
        self.withheld.iter().map(|&i| &self.scored[i]).collect()
    }
}

impl<'a> Mirror<'a> {
    fn load(inputs: &'a Inputs) -> Result<Mirror<'a>, Fail> {
        let mut catalog = Catalog::new();
        let mut ids = Vec::with_capacity(inputs.base_rows());
        for t in &inputs.tables {
            let columns = t
                .columns
                .iter()
                .map(|&(name, ty)| Column::new(name, ty))
                .collect();
            catalog
                .create_table(t.name, Schema::new(columns).map_err(fail)?)
                .map_err(fail)?;
            for row in &t.rows {
                ids.push(
                    catalog
                        .insert(t.name, row.values.clone(), row.confidence)
                        .map_err(fail)?,
                );
            }
        }
        for &(table, column) in &inputs.indexes {
            catalog.create_index(table, column).map_err(fail)?;
        }
        let mut policies = PolicyStore::new();
        policies.add(
            ConfidencePolicy::new(inputs.role.as_str(), inputs.purpose.as_str(), inputs.beta)
                .map_err(fail)?,
        );
        let costs = inputs
            .costs
            .iter()
            .filter_map(|(ord, c)| ids.get(*ord).map(|id| (*id, c.clone())))
            .collect();
        Ok(Mirror {
            inputs,
            catalog,
            policies,
            costs,
            config: EngineConfig::default(),
            cache: CircuitCache::new(),
            recorder: Recorder::new(),
            counts: Counts::default(),
        })
    }

    fn policy(&self, sp: &mut Spans) -> Result<ConfidencePolicy, Fail> {
        let role = Role::new(self.inputs.role.as_str());
        let purpose = Purpose::new(self.inputs.purpose.as_str());
        sp.time("policy.select", || {
            self.policies.select(&role, &purpose).cloned()
        })
        .map_err(fail)
    }

    /// Parse, plan, optimise, lower and execute one query.
    fn execute(&mut self, sp: &mut Spans, sql: &str) -> Result<ResultSet, Fail> {
        let catalog = &self.catalog;
        let plan = sp
            .time("sql.parse_plan", || parse_and_plan(sql, catalog))
            .map_err(fail)?;
        let plan = sp
            .time("algebra.optimize", || optimize(&plan, catalog))
            .map_err(fail)?;
        let phys = sp
            .time("algebra.lower", || lower(&plan, catalog))
            .map_err(fail)?;
        let par = self.config.parallelism();
        let recorder = &self.recorder;
        let (rs, profile): (ResultSet, ExecProfile) = sp
            .time("algebra.execute", || {
                execute_vectorized_traced(&phys, catalog, &par, Some(recorder), None)
            })
            .map_err(fail)?;
        for op in &profile.operators {
            self.counts.rows_out += op.rows_out;
            self.counts.lineage_nodes += op.lineage_nodes;
        }
        Ok(rs)
    }

    /// Push current (or overridden) probabilities of every variable the
    /// rows read into the cache, as the engine does before cached scoring.
    fn sync(&mut self, sp: &mut Spans, rs: &ResultSet, overrides: &BTreeMap<TupleId, f64>) {
        let catalog = &self.catalog;
        let cache = &mut self.cache;
        sp.time("lineage.sync", || {
            for row in rs.rows() {
                for v in row.lineage.vars() {
                    let id = TupleId(v.0);
                    if let Some(p) = overrides
                        .get(&id)
                        .copied()
                        .or_else(|| catalog.confidence(id))
                    {
                        cache.set_prob(v, p);
                    }
                }
            }
        });
    }

    fn gate(
        &mut self,
        sp: &mut Spans,
        policy: &ConfidencePolicy,
        scored: Vec<ScoredTuple>,
    ) -> Gated {
        let decision = sp.time("policy.gate", || {
            let confidences: Vec<f64> = scored.iter().map(|s| s.confidence).collect();
            evaluate_results(policy, &confidences)
        });
        self.counts.released += decision.released.len() as u64;
        self.counts.withheld += decision.withheld.len() as u64;
        Gated {
            scored,
            released: decision.released,
            withheld: decision.withheld,
        }
    }

    /// The engine's problem construction for one query's withheld rows;
    /// `None` when too few are monotone.
    fn instance(
        &mut self,
        withheld: &[&ScoredTuple],
        beta: f64,
        needed: usize,
    ) -> Result<Option<ProblemInstance>, Fail> {
        let improvable: Vec<&&ScoredTuple> = withheld
            .iter()
            .filter(|s| !s.lineage.contains_not())
            .collect();
        if improvable.len() < needed {
            return Ok(None);
        }
        let mut builder =
            ProblemBuilder::new(beta, self.config.delta).lineage_budget(self.config.lineage_budget);
        let mut seen = BTreeSet::new();
        for s in &improvable {
            for v in s.lineage.vars() {
                if seen.insert(v.0) {
                    let id = TupleId(v.0);
                    let initial = self
                        .catalog
                        .confidence(id)
                        .ok_or_else(|| format!("lineage references unknown tuple {id}"))?;
                    let cost = self
                        .costs
                        .get(&id)
                        .cloned()
                        .unwrap_or_else(|| self.config.default_cost.clone());
                    builder.base(v.0, initial, cost);
                }
            }
        }
        for s in &improvable {
            builder
                .result_from_lineage_cached(&s.lineage, &mut self.cache)
                .map_err(fail)?;
        }
        let problem = builder.require(needed).build().map_err(fail)?;
        self.counts.problem_bases += problem.bases.len() as u64;
        self.counts.problem_results += problem.results.len() as u64;
        Ok(Some(problem))
    }

    /// The engine's `Auto` solver rule.
    fn solve(&self, problem: &ProblemInstance) -> Result<Solution, CoreError> {
        let sink = &self.recorder;
        let greedy_opts = GreedyOptions {
            parallelism: self.config.parallelism(),
            ..GreedyOptions::default()
        };
        if problem.bases.len() <= 12 {
            let seed = greedy::solve(problem, &greedy_opts)?;
            seed.stats.emit(sink);
            let opts = HeuristicOptions {
                node_limit: Some(2_000_000),
                ..HeuristicOptions::all().with_seed(seed.solution)
            };
            let out = heuristic::solve(problem, &opts)?;
            out.stats.emit(sink);
            Ok(out.solution)
        } else if problem.results.len() > 64 {
            let opts = DncOptions {
                greedy: greedy_opts,
                ..DncOptions::default()
            };
            let out = dnc::solve(problem, &opts)?;
            out.stats.emit(sink);
            Ok(out.solution)
        } else {
            let out = greedy::solve(problem, &greedy_opts)?;
            out.stats.emit(sink);
            Ok(out.solution)
        }
    }

    /// `Database::query`.
    fn query(&mut self, sp: &mut Spans, sql: &str, expecting: f64) -> Result<Outcome, Fail> {
        let policy = self.policy(sp)?;
        let rs = self.execute(sp, sql)?;
        self.sync(sp, &rs, &BTreeMap::new());
        let evaluator = self.config.evaluator.clone();
        let cache = &mut self.cache;
        let recorder = &self.recorder;
        let (gated, _paths) = sp
            .time("lineage.score", || {
                rs.score_gated_cached_morsels_traced(
                    cache,
                    &evaluator,
                    policy.threshold,
                    Some(recorder),
                    None,
                )
            })
            .map_err(fail)?;
        self.counts.rows_scored += gated.scored.len() as u64;
        self.counts.beta_skipped += gated.exact_skipped as u64;
        let skipped = gated.skipped;
        let mut g = self.gate(sp, &policy, gated.scored);
        let requested = (expecting.clamp(0.0, 1.0) * g.scored.len() as f64).ceil() as usize;
        let already = g.released.len();
        let plan = if already >= requested {
            Err(NoPlan::NotNeeded)
        } else {
            let cache = &mut self.cache;
            let rescored = sp
                .time("lineage.rescore", || {
                    ResultSet::rescore_exact_cached(&mut g.scored, &skipped, cache, &evaluator)
                })
                .map_err(fail)?;
            self.counts.rescored += rescored as u64;
            let withheld = g.withheld();
            sp.begin("core.build");
            let problem = self.instance(&withheld, policy.threshold, requested - already);
            sp.end();
            match problem? {
                None => Err(NoPlan::NonMonotone),
                Some(problem) => match sp.time("core.solve", || self.solve(&problem)) {
                    Ok(solution) => {
                        let increments = solution
                            .increments(&problem)
                            .into_iter()
                            .map(|i| (i.id, i.from, i.to, i.cost))
                            .collect();
                        Ok(plan(
                            solution.cost,
                            increments,
                            already + solution.satisfied.len(),
                            requested,
                        ))
                    }
                    Err(CoreError::Infeasible { achievable, .. }) => Err(NoPlan::Infeasible {
                        achievable: already + achievable,
                        requested,
                    }),
                    Err(CoreError::GaveUp(_)) => Err(NoPlan::GaveUp),
                    Err(e) => return Err(fail(e)),
                },
            }
        };
        Ok(Outcome {
            sets: vec![(rs, g, requested, policy)],
            plan: Some(plan),
        })
    }

    /// `Database::what_if`.
    fn what_if(
        &mut self,
        sp: &mut Spans,
        sql: &str,
        plan: &Plan,
        keep: (usize, usize),
    ) -> Result<Outcome, Fail> {
        let rs = self.execute(sp, sql)?;
        let overrides: BTreeMap<TupleId, f64> = plan.increments
            [..prefix(plan.increments.len(), keep)]
            .iter()
            .map(|i| (TupleId(i.0), i.2))
            .collect();
        self.sync(sp, &rs, &overrides);
        let evaluator = self.config.evaluator.clone();
        let cache = &mut self.cache;
        let scored = sp
            .time("lineage.score", || rs.score_cached(cache, &evaluator))
            .map_err(fail)?;
        self.counts.rows_scored += scored.len() as u64;
        let policy = self.policy(sp)?;
        let g = self.gate(sp, &policy, scored);
        Ok(Outcome {
            sets: vec![(rs, g, 0, policy)],
            plan: None,
        })
    }

    /// `Database::query_batch`.
    fn batch(&mut self, sp: &mut Spans, sqls: &[String], expecting: f64) -> Result<Outcome, Fail> {
        let mut instances = Vec::new();
        let mut sets = Vec::new();
        let mut non_monotone = false;
        let evaluator = self.config.evaluator.clone();
        for sql in sqls {
            let rs = self.execute(sp, sql)?;
            self.sync(sp, &rs, &BTreeMap::new());
            let cache = &mut self.cache;
            let scored = sp
                .time("lineage.score", || rs.score_cached(cache, &evaluator))
                .map_err(fail)?;
            self.counts.rows_scored += scored.len() as u64;
            let policy = self.policy(sp)?;
            let g = self.gate(sp, &policy, scored);
            let requested = (expecting.clamp(0.0, 1.0) * g.scored.len() as f64).ceil() as usize;
            let shortfall = requested.saturating_sub(g.released.len());
            if shortfall > 0 {
                let withheld = g.withheld();
                sp.begin("core.build");
                let instance = self.instance(&withheld, policy.threshold, shortfall);
                sp.end();
                match instance? {
                    Some(i) => instances.push(i),
                    None => non_monotone = true,
                }
            }
            sets.push((rs, g, requested, policy));
        }
        let released: usize = sets.iter().map(|s| s.1.released.len()).sum();
        let combined = if non_monotone {
            Err(NoPlan::NonMonotone)
        } else if instances.is_empty() {
            Err(NoPlan::NotNeeded)
        } else {
            let multi = sp
                .time("core.build", || MultiQueryProblem::merge(&instances))
                .map_err(fail)?;
            let opts = GreedyOptions {
                parallelism: self.config.parallelism(),
                ..GreedyOptions::default()
            };
            match sp.time("core.solve", || solve_greedy(&multi, &opts)) {
                Ok(out) => {
                    out.stats.emit_as("solver.multi", &self.recorder);
                    let increments = out
                        .solution
                        .levels
                        .iter()
                        .zip(&multi.bases)
                        .filter(|(l, b)| **l > b.initial + 1e-12)
                        .map(|(l, b)| (b.id, b.initial, *l, b.cost.cost(b.initial, *l)))
                        .collect();
                    Ok(plan(
                        out.solution.cost,
                        increments,
                        released + out.solution.satisfied.len(),
                        instances.iter().map(|i| i.required).sum(),
                    ))
                }
                Err(CoreError::Infeasible {
                    achievable,
                    required,
                }) => Err(NoPlan::Infeasible {
                    achievable,
                    requested: required,
                }),
                Err(CoreError::GaveUp(_)) => Err(NoPlan::GaveUp),
                Err(e) => return Err(fail(e)),
            }
        };
        Ok(Outcome {
            sets,
            plan: Some(combined),
        })
    }

    /// Fingerprint an outcome and check its proposal: applied, it must
    /// release at least what each of its queries requested. Scoring here
    /// bypasses the cache, so the check does not depend on the scoring
    /// path under test. Runs outside the op's span.
    fn finish(&mut self, out: &Outcome) -> Result<(u64, Option<Plan>), Fail> {
        let mut fp = Fingerprint::default();
        for (_, g, _, _) in &out.sets {
            g.fingerprint(&mut fp);
        }
        let Some(plan) = &out.plan else {
            return Ok((fp.finish(), None));
        };
        fp.plan(plan.as_ref());
        let Ok(p) = plan else {
            return Ok((fp.finish(), None));
        };
        let overrides: BTreeMap<u64, f64> = p.increments.iter().map(|i| (i.0, i.2)).collect();
        let probs = |v: VarId| {
            overrides
                .get(&v.0)
                .copied()
                .or_else(|| self.catalog.confidence(TupleId(v.0)))
        };
        for (rs, _, requested, policy) in &out.sets {
            let scored = rs.score(&probs, &self.config.evaluator).map_err(fail)?;
            let released = scored
                .iter()
                .filter(|s| policy.admits(s.confidence))
                .count();
            if released < *requested {
                self.counts.invalid_proposals += 1;
                return Err(format!(
                    "proposal releases {released} of the {requested} a query requested"
                ));
            }
        }
        Ok((fp.finish(), Some(p.clone())))
    }
}

/// What one query, what-if or batch op produced: per query its result
/// set, gate split, requested count and policy; and the proposal (or the
/// reason there is none), absent for a what-if.
struct Outcome {
    sets: Vec<(ResultSet, Gated, usize, ConfidencePolicy)>,
    plan: Option<Result<Plan, NoPlan>>,
}

/// A proposal from solver output, increments ordered by tuple id as the
/// engine orders them.
fn plan(
    cost: f64,
    mut increments: Vec<(u64, f64, f64, f64)>,
    projected: usize,
    requested: usize,
) -> Plan {
    increments.sort_by_key(|i| i.0);
    Plan {
        cost,
        increments,
        projected,
        requested,
    }
}

/// Fingerprint and check an op's outcome; `(None, None)` when it failed.
fn settle(m: &mut Mirror<'_>, out: Result<Outcome, Fail>) -> (Option<u64>, Option<Plan>) {
    match out.and_then(|o| m.finish(&o)) {
        Ok((fp, plan)) => (Some(fp), plan),
        Err(_) => (None, None),
    }
}

/// Replay one epoch of `inputs` from a freshly loaded state.
pub fn replay(inputs: &Inputs) -> Result<Replay, Fail> {
    let mut m = Mirror::load(inputs)?;
    let mut sp = Spans::new();
    let mut reference = Vec::with_capacity(inputs.epoch.len());
    let mut busy_nanos = Vec::with_capacity(inputs.epoch.len());
    let mut slots: Vec<Option<Plan>> = vec![None; SLOTS];
    for op in &inputs.epoch {
        let busy_before = m.recorder.snapshot().counter("par.busy_nanos");
        let fp = match op {
            Op::Write { table, rows } => {
                let rows: Vec<_> = rows
                    .iter()
                    .map(|r| (r.values.clone(), r.confidence))
                    .collect();
                let mut ids = Vec::with_capacity(rows.len());
                sp.begin("write");
                let mut ok = true;
                for (values, confidence) in rows {
                    match sp.time("storage.insert", || {
                        m.catalog.insert(table, values, confidence)
                    }) {
                        Ok(id) => ids.push(id.0),
                        Err(_) => ok = false,
                    }
                }
                sp.end();
                ok.then(|| write_fp(&ids))
            }
            Op::Query {
                sql,
                expecting,
                into,
            } => {
                sp.begin("query");
                let out = m.query(&mut sp, sql, *expecting);
                sp.end();
                let (fp, plan) = settle(&mut m, out);
                slots[*into] = plan;
                fp
            }
            Op::WhatIf {
                sql, from, keep, ..
            } => match slots[*from].clone() {
                None => None,
                Some(plan) => {
                    sp.begin("what_if");
                    let out = m.what_if(&mut sp, sql, &plan, *keep);
                    sp.end();
                    settle(&mut m, out).0
                }
            },
            Op::Batch {
                sqls,
                expecting,
                into,
            } => {
                sp.begin("batch");
                let out = m.batch(&mut sp, sqls, *expecting);
                sp.end();
                let (fp, plan) = settle(&mut m, out);
                slots[*into] = plan;
                fp
            }
            Op::Apply { from } => match slots[*from].take() {
                None => None,
                Some(plan) => {
                    sp.begin("apply");
                    let mut ok = true;
                    for &(id, _, to, _) in &plan.increments {
                        let out = sp.time("storage.raise", || {
                            m.catalog.raise_confidence(TupleId(id), to)
                        });
                        ok &= out.is_ok();
                    }
                    sp.end();
                    ok.then(|| apply_fp(plan.increments.len()))
                }
            },
        };
        busy_nanos.push(
            m.recorder
                .snapshot()
                .counter("par.busy_nanos")
                .saturating_sub(busy_before),
        );
        reference.push(fp);
    }
    Ok(Replay {
        reference,
        spans: sp,
        counts: m.counts,
        cache: m.cache,
        recorder: m.recorder,
        busy_nanos,
    })
}
