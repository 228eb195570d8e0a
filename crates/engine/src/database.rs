//! The `Database` façade: storage + policies + query pipeline.

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::improve::{self, ProposeOutcome};
use crate::response::{NoProposal, QueryResponse, ReleasedTuple};
use crate::Result;
use pcqe_algebra::{execute_vectorized_traced, execute_vectorized_with, ExecProfile};
use pcqe_core::clock::{Clock, SystemClock};
use pcqe_core::estimator::RuntimeEstimator;
use pcqe_cost::CostFn;
use pcqe_par::{ConfidencePath, Decision, ParObserver, TraceSink};
use pcqe_policy::{evaluate_results, ConfidencePolicy, PolicyStore, Purpose, Role};
use pcqe_provenance::{Assigner, ProvenanceRecord};
use pcqe_sql::parse_and_plan;
use pcqe_storage::{Catalog, Schema, TupleId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A user: a name and the role under which policies are selected.
#[derive(Debug, Clone, PartialEq)]
pub struct User {
    /// Display name.
    pub name: String,
    /// RBAC role.
    pub role: Role,
}

impl User {
    /// Create a user with a role.
    pub fn new(name: impl Into<String>, role: impl Into<Role>) -> User {
        User {
            name: name.into(),
            role: role.into(),
        }
    }
}

/// The user's query input ⟨Q, pu, perc⟩ (Section 3.2).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The SQL text `Q`.
    pub sql: String,
    /// The stated purpose `pu`.
    pub purpose: Purpose,
    /// The fraction of results the user expects to receive (`perc`, the
    /// paper's θ). Defaults to 1.0.
    pub min_fraction: f64,
}

impl QueryRequest {
    /// A request expecting every result to be released.
    pub fn new(sql: impl Into<String>, purpose: impl Into<Purpose>) -> QueryRequest {
        QueryRequest {
            sql: sql.into(),
            purpose: purpose.into(),
            min_fraction: 1.0,
        }
    }

    /// Set the expected released fraction θ.
    pub fn expecting(mut self, fraction: f64) -> QueryRequest {
        self.min_fraction = fraction.clamp(0.0, 1.0);
        self
    }
}

/// The outcome of a DDL/DML statement executed via [`Database::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum StatementOutcome {
    /// A table was created.
    TableCreated,
    /// Rows were inserted, with their new tuple ids.
    Inserted(Vec<TupleId>),
}

/// A PCQE database: confidence-carrying tables, confidence policies, cost
/// functions, and the query/improve/apply loop of Figure 1.
#[derive(Debug)]
pub struct Database {
    pub(crate) catalog: Catalog,
    pub(crate) policies: PolicyStore,
    pub(crate) costs: BTreeMap<TupleId, CostFn>,
    config: EngineConfig,
    estimator: RuntimeEstimator,
    assigner: Assigner,
    audit: Vec<crate::audit::AuditEntry>,
    recorder: pcqe_obs::Recorder,
    /// Causal tracer for [`Database::trace_query`]. Disabled at rest —
    /// every instrumentation point then costs one relaxed atomic load —
    /// and shares the recorder's clock so span timestamps and metric
    /// timings never drift apart.
    tracer: Arc<pcqe_obs::Tracer>,
    version: u64,
    /// Query-scoped circuit pool every scoring pass and strategy problem
    /// runs through (DESIGN.md §10). Probabilities are re-synced from the
    /// catalog (or what-if overrides) before every scoring pass, so the
    /// pool survives across queries and `apply` calls without going stale.
    cache: pcqe_lineage::CircuitCache,
}

impl Database {
    /// Create an empty database.
    pub fn new(config: EngineConfig) -> Database {
        Database::with_clock(config, Arc::new(SystemClock))
    }

    /// Create an empty database whose recorder *and* tracer read the given
    /// clock. Tests pass a [`pcqe_core::clock::ManualClock`] here so both
    /// metric timings and trace timestamps are fully scripted — the
    /// byte-stable trace goldens in `tests/golden/` depend on it.
    pub fn with_clock(config: EngineConfig, clock: Arc<dyn Clock + Send + Sync>) -> Database {
        let recorder = pcqe_obs::Recorder::with_clock(clock.clone());
        recorder.set_enabled(config.record_metrics);
        let tracer = Arc::new(pcqe_obs::Tracer::with_clock(
            clock,
            pcqe_obs::trace::DEFAULT_TRACE_CAPACITY,
        ));
        tracer.set_enabled(false);
        let mut cache = pcqe_lineage::CircuitCache::new();
        cache.set_trace(Some(tracer.clone()));
        Database {
            catalog: Catalog::new(),
            policies: PolicyStore::new(),
            costs: BTreeMap::new(),
            config,
            estimator: RuntimeEstimator::new(),
            assigner: Assigner::default(),
            audit: Vec::new(),
            recorder,
            tracer,
            version: 0,
            cache,
        }
    }

    /// Create a table.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        self.catalog.create_table(name, schema)?;
        Ok(())
    }

    /// Insert a row with an explicit confidence (Figure 1's confidence-
    /// assignment component, when the caller already knows the value).
    pub fn insert(&mut self, table: &str, values: Vec<Value>, confidence: f64) -> Result<TupleId> {
        let id = self.catalog.insert(table, values, confidence)?;
        self.version += 1;
        Ok(id)
    }

    /// Create an equality index on `table.column` (INT/TEXT/BOOL columns
    /// only). Indexes are maintained on every insert and change only
    /// *access paths* chosen by the physical planner — never query
    /// results. Returns the indexed column's position. Idempotent.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<usize> {
        Ok(self.catalog.create_index(table, column)?)
    }

    /// Insert a row whose confidence is assessed from provenance records.
    pub fn insert_assessed(
        &mut self,
        table: &str,
        values: Vec<Value>,
        provenance: &[ProvenanceRecord],
    ) -> Result<TupleId> {
        let confidence = self.assigner.assess(provenance)?;
        self.insert(table, values, confidence)
    }

    /// Attach a cost function to a base tuple (tuples without one use
    /// [`EngineConfig::default_cost`]).
    pub fn set_cost(&mut self, id: TupleId, cost: CostFn) -> Result<()> {
        if self.catalog.find_tuple(id).is_none() {
            return Err(pcqe_storage::StorageError::UnknownTuple(id.0).into());
        }
        self.costs.insert(id, cost);
        Ok(())
    }

    /// Add a confidence policy.
    pub fn add_policy(&mut self, policy: ConfidencePolicy) {
        self.policies.add(policy);
    }

    /// Declare that `senior` inherits policies from `junior`.
    pub fn add_role_inheritance(&mut self, senior: &Role, junior: &Role) -> Result<()> {
        self.policies
            .hierarchy_mut()
            .add_inheritance(senior, junior)?;
        Ok(())
    }

    /// Declare that queries for `specialised` fall under policies written
    /// for `general` (purpose specialisation).
    pub fn add_purpose_specialisation(
        &mut self,
        specialised: &Purpose,
        general: &Purpose,
    ) -> Result<()> {
        self.policies
            .purposes_mut()
            .add_specialisation(specialised, general)?;
        Ok(())
    }

    /// The underlying catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current confidence of a base tuple.
    pub fn confidence(&self, id: TupleId) -> Option<f64> {
        self.catalog.confidence(id)
    }

    /// The runtime estimator fed by past strategy-finding runs
    /// (Section 6's advance-time statistics).
    pub fn estimator(&self) -> &RuntimeEstimator {
        &self.estimator
    }

    /// The append-only audit trail of policy decisions and applied
    /// improvements.
    pub fn audit_log(&self) -> &[crate::audit::AuditEntry] {
        &self.audit
    }

    /// The metrics recorder. Recording starts out matching
    /// [`EngineConfig::record_metrics`] and can be toggled at runtime with
    /// [`pcqe_obs::Recorder::set_enabled`]; it never changes query
    /// answers, proposals, or the audit trail.
    pub fn recorder(&self) -> &pcqe_obs::Recorder {
        &self.recorder
    }

    /// The causal tracer behind [`Database::trace_query`]. Disabled at
    /// rest; enabling it by hand records events from ordinary
    /// [`Database::query`] calls too (drain with
    /// [`pcqe_obs::Tracer::drain`]). Like the recorder, it is write-only:
    /// toggling it never changes query answers, proposals, or the audit
    /// trail.
    pub fn tracer(&self) -> &pcqe_obs::Tracer {
        &self.tracer
    }

    /// A point-in-time snapshot of every metric recorded so far. The
    /// `policy.released` / `policy.withheld` counters are running totals
    /// of exactly the per-query counts in [`Database::audit_log`], and
    /// `improvement.applied` / `improvement.tuples` mirror its
    /// improvement entries (while recording is enabled).
    pub fn metrics_snapshot(&self) -> pcqe_obs::MetricsSnapshot {
        self.recorder.snapshot()
    }

    /// True when metric recording is active.
    fn recording(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Push a query audit entry and mirror its counts into the recorder,
    /// so `metrics_snapshot()` and `audit_log()` agree by construction.
    fn record_query_decision(
        &mut self,
        user: &User,
        request: &QueryRequest,
        threshold: f64,
        released: usize,
        withheld: usize,
        proposed: bool,
    ) {
        self.record_cache_activity();
        if self.recording() {
            self.recorder.counter_add("query.total", 1);
            self.recorder
                .counter_add("policy.released", released as u64);
            self.recorder
                .counter_add("policy.withheld", withheld as u64);
            if proposed {
                self.recorder.counter_add("query.proposals", 1);
            }
        }
        self.audit.push(crate::audit::AuditEntry::Query {
            user: user.name.clone(),
            role: user.role.name().to_owned(),
            purpose: request.purpose.name().to_owned(),
            threshold,
            released,
            withheld,
            proposed,
        });
    }

    /// Drain the circuit cache's activity counters into the recorder as
    /// `lineage.*` metric deltas. Called from the same helpers that write
    /// the audit log (and after what-if previews), so cache activity is
    /// attributed to the decision that caused it. Draining happens even
    /// with recording off — the deltas are simply discarded — so toggling
    /// metrics never changes what a later snapshot attributes to a query.
    /// Zero deltas are not emitted, so an engine that never touched the
    /// pool (cache off, or no scoring) records no `lineage.*` counters.
    fn record_cache_activity(&mut self) {
        let stats = self.cache.take_stats();
        if !self.recording() {
            return;
        }
        let emit = |name: &str, delta: u64| {
            if delta > 0 {
                self.recorder.counter_add(name, delta);
            }
        };
        emit("lineage.circuit_compiled", stats.compiled);
        emit("lineage.cache_hit", stats.hits());
        emit("lineage.cache_invalidated", stats.invalidated);
    }

    /// Push an improvement audit entry and mirror it into the recorder.
    fn record_improvement(&mut self, tuples: usize, cost: f64) {
        if self.recording() {
            self.recorder.counter_add("improvement.applied", 1);
            self.recorder
                .counter_add("improvement.tuples", tuples as u64);
            self.recorder.histogram_record("improvement.cost", cost);
        }
        self.audit
            .push(crate::audit::AuditEntry::Improvement { tuples, cost });
    }

    /// Fold an execution profile into the recorder as `exec.*` counters.
    fn record_exec_profile(&self, profile: &ExecProfile) {
        self.recorder
            .counter_add("exec.operators", profile.operators.len() as u64);
        for op in &profile.operators {
            self.recorder.counter_add("exec.rows_out", op.rows_out);
            self.recorder
                .counter_add("exec.lineage_nodes", op.lineage_nodes);
        }
    }

    /// Execute a DDL/DML statement (`CREATE TABLE` or
    /// `INSERT … [WITH CONFIDENCE c]`). Queries must go through
    /// [`Database::query`] since they need a user and purpose; passing one
    /// here returns an error.
    pub fn execute(&mut self, sql: &str) -> Result<StatementOutcome> {
        match pcqe_sql::parse_statement(sql)? {
            pcqe_sql::Statement::CreateTable { name, columns } => {
                let cols = columns
                    .into_iter()
                    .map(|c| pcqe_storage::Column::new(c.name, c.data_type))
                    .collect();
                self.create_table(name, Schema::new(cols)?)?;
                Ok(StatementOutcome::TableCreated)
            }
            pcqe_sql::Statement::Insert {
                table,
                rows,
                confidence,
            } => {
                let confidence = confidence.unwrap_or(1.0);
                let mut ids = Vec::with_capacity(rows.len());
                for row in &rows {
                    let values = pcqe_sql::literal_row(row)?;
                    ids.push(self.insert(&table, values, confidence)?);
                }
                Ok(StatementOutcome::Inserted(ids))
            }
            pcqe_sql::Statement::Query(_) => Err(EngineError::Sql(pcqe_sql::SqlError::Parse {
                pos: 0,
                message: "queries need a user and purpose; use Database::query".into(),
            })),
        }
    }

    /// Render the optimised logical plan for a query — an `EXPLAIN`
    /// facility for debugging and teaching.
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(self.plan_sql(sql)?.to_string())
    }

    /// Render the logical and physical plans side by side — the shell's
    /// `.plan` view. The physical column names the join strategy
    /// (`HashJoin` vs `NestedLoopJoin`), the access path (`TableScan` vs
    /// `IndexScan`) and every pushed-down predicate.
    pub fn explain_physical(&self, sql: &str) -> Result<String> {
        let plan = self.plan_sql(sql)?;
        let phys = pcqe_algebra::lower(&plan, &self.catalog)?;
        Ok(pcqe_algebra::render_side_by_side(&plan, &phys))
    }

    /// Execute a query and render its physical plan annotated with
    /// observed per-operator `rows_in` / `rows_out` / `lineage_nodes` /
    /// `batches` counts — an `EXPLAIN ANALYZE` facility. Runs the plan for
    /// real (read-only) but skips scoring and policy checking, so
    /// index-scan savings and join-strategy fan-out are directly visible.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let phys = pcqe_algebra::lower(&self.plan_sql(sql)?, &self.catalog)?;
        let par = self.config.parallelism();
        let (_result, profile) = execute_vectorized_traced(&phys, &self.catalog, &par, None, None)?;
        Ok(profile.render())
    }

    /// Parse, plan and optimise a SQL query.
    fn plan_sql(&self, sql: &str) -> Result<pcqe_algebra::Plan> {
        let plan = parse_and_plan(sql, &self.catalog)?;
        Ok(pcqe_algebra::optimize(&plan, &self.catalog)?)
    }

    /// Lower a planned query and run it on the vectorized executor,
    /// recording an execution profile when metrics are on and feeding
    /// the tracer when it is enabled. Lowering and vectorized execution
    /// are bit-identical to the logical tree-walker for every query (see
    /// [`pcqe_algebra::physical`]), so they never change which tuples a
    /// policy sees.
    fn run_plan(
        &self,
        plan: &pcqe_algebra::Plan,
        par: &pcqe_par::Parallelism,
        recording: bool,
    ) -> Result<pcqe_algebra::ResultSet> {
        let phys = pcqe_algebra::lower(plan, &self.catalog)?;
        let tracing = self.tracer.is_enabled();
        if !recording && !tracing {
            return Ok(execute_vectorized_with(&phys, &self.catalog, par)?);
        }
        let trace: Option<&dyn TraceSink> = if tracing {
            Some(self.tracer.as_ref())
        } else {
            None
        };
        // While tracing, scheduler telemetry fans out to both sinks: the
        // recorder keeps its metrics (it no-ops when disabled) and the
        // tracer records per-batch worker-lane events.
        let pair;
        let observer: &dyn ParObserver = if tracing {
            pair = pcqe_obs::trace::ObserverPair::new(&self.recorder, self.tracer.as_ref());
            &pair
        } else {
            &self.recorder
        };
        let (result_set, profile) =
            execute_vectorized_traced(&phys, &self.catalog, par, Some(observer), trace)?;
        if recording {
            self.record_exec_profile(&profile);
        }
        Ok(result_set)
    }

    /// Run the full pipeline: evaluate, score, policy-check, and — when
    /// fewer than `perc` of the results survive — find the cheapest
    /// confidence-increment strategy and attach it as a proposal.
    pub fn query(&mut self, user: &User, request: &QueryRequest) -> Result<QueryResponse> {
        let par = self.config.parallelism();
        let recording = self.recording();
        let tracing = self.tracer.is_enabled();
        // Select the policy before scoring: β-gated scoring needs the
        // threshold up front, and selection is independent of the rows.
        let policy = self.policies.select(&user.role, &request.purpose)?.clone();
        let span = self.recorder.span("query");
        let t_query = self.tracer.span_begin("query");
        let plan = {
            let _plan_span = span.child("plan");
            let t_plan = self.tracer.span_begin("plan");
            self.tracer.instant("parse", &request.sql);
            let plan = self.plan_sql(&request.sql)?;
            self.tracer.span_end(t_plan);
            plan
        };
        let result_set = {
            let _exec_span = span.child("execute");
            let t_exec = self.tracer.span_begin("execute");
            let result_set = self.run_plan(&plan, &par, recording)?;
            self.tracer.span_end(t_exec);
            result_set
        };
        let probs = |v: pcqe_lineage::VarId| self.catalog.confidence(TupleId(v.0));
        let pair;
        let observer: Option<&dyn ParObserver> = if tracing {
            pair = pcqe_obs::trace::ObserverPair::new(&self.recorder, self.tracer.as_ref());
            Some(&pair)
        } else if recording {
            Some(&self.recorder)
        } else {
            None
        };
        let trace_sink: Option<&dyn TraceSink> = if tracing {
            Some(self.tracer.as_ref())
        } else {
            None
        };
        // β-gated cached scoring: rows whose confidence upper bound is
        // already ≤ β are withheld without exact Shannon/Monte-Carlo
        // evaluation, and every other row is scored through the shared
        // circuit pool in one sequential memoized pass — bit-identical to
        // uncached scoring at any thread count (DESIGN.md §10). `skipped`
        // remembers which rows carry a bound so the strategy-finding path
        // below can restore exact values first. `paths` tags every row
        // with how its gate-facing confidence was obtained — the causal
        // record behind each trace `Decision`. The pass is chunked by
        // morsel so scheduler telemetry (`par.batch`) covers scoring too.
        let (mut scored, skipped, paths) = {
            let _score_span = span.child("score");
            let t_score = self.tracer.span_begin("score");
            sync_cache_probs(&mut self.cache, result_set.rows(), &probs);
            let (gated, paths) = result_set.score_gated_cached_morsels_traced(
                &mut self.cache,
                &self.config.evaluator,
                policy.threshold,
                observer,
                trace_sink,
            )?;
            if recording {
                self.recorder
                    .counter_add("lineage.exact_skipped", gated.exact_skipped as u64);
            }
            self.tracer.span_end(t_score);
            (gated.scored, gated.skipped, paths)
        };

        let confidences: Vec<f64> = scored.iter().map(|s| s.confidence).collect();
        let t_gate = self.tracer.span_begin("gate");
        let decision = evaluate_results(&policy, &confidences);
        if tracing {
            // One Decision per scored row, in row order (deterministic):
            // the released flags partition exactly as the audit entry's
            // released/withheld counts.
            for (i, s) in scored.iter().enumerate() {
                self.tracer.decision(&Decision {
                    tuple: i as u64,
                    released: decision.released.contains(&i),
                    path: paths.get(i).copied().unwrap_or(ConfidencePath::Exact),
                    beta: policy.threshold,
                    confidence: s.confidence,
                    lineage_size: s.lineage.size(),
                });
            }
        }
        self.tracer.span_end(t_gate);

        let released = released_tuples(&scored, &decision.released);
        let n = scored.len();
        let requested = (request.min_fraction * n as f64).ceil() as usize;

        let mut response = QueryResponse {
            schema: result_set.schema().clone(),
            released,
            withheld: decision.withheld.len(),
            threshold: policy.threshold,
            proposal: None,
            no_proposal: None,
        };

        if response.released.len() >= requested {
            response.no_proposal = Some(NoProposal::NotNeeded);
            drop(span);
            self.tracer.span_end(t_query);
            self.record_query_decision(
                user,
                request,
                response.threshold,
                response.released.len(),
                response.withheld,
                false,
            );
            return Ok(response);
        }

        // Strategy finding (Figure 1, steps 5–6). The θ path is exempt
        // from β-gating: improvement inputs must be *exact* confidences,
        // so any short-circuited rows are re-scored first. (Released rows
        // are never skipped — a skipped row's bound is ≤ β, which can
        // never admit — so only withheld rows are touched here.)
        // Probabilities were synced before gating and nothing has changed
        // them since, so the memoized exact values are still current.
        let rescored = pcqe_algebra::ResultSet::rescore_exact_cached(
            &mut scored,
            &skipped,
            &mut self.cache,
            &self.config.evaluator,
        )?;
        if recording {
            self.recorder
                .counter_add("lineage.exact_rescored", rescored as u64);
        }
        let withheld = withheld_tuples(&scored, &decision.withheld);
        let needed = requested - response.released.len();
        let ctx = improve::ProposeContext {
            catalog: &self.catalog,
            costs: &self.costs,
            config: &self.config,
            beta: policy.threshold,
            needed,
            already_released: response.released.len(),
            requested,
            version: self.version,
        };
        let (outcome, stats) = {
            let _propose_span = span.child("propose");
            let t_propose = self.tracer.span_begin("propose");
            let out = improve::propose(&ctx, &withheld, &self.recorder, &mut self.cache)?;
            self.tracer.span_end(t_propose);
            out
        };
        drop(span);
        self.tracer.span_end(t_query);
        if let Some(s) = stats {
            self.estimator.record(s.problem_size, s.elapsed);
        }
        match outcome {
            ProposeOutcome::Proposal(p) => response.proposal = Some(p),
            ProposeOutcome::No(reason) => response.no_proposal = Some(reason),
        }
        self.record_query_decision(
            user,
            request,
            response.threshold,
            response.released.len(),
            response.withheld,
            response.proposal.is_some(),
        );
        Ok(response)
    }

    /// [`Database::query`] with the causal tracer enabled for exactly this
    /// call: returns the response alongside the drained [`QueryTrace`] —
    /// lifecycle spans (`query` > `plan`/`execute`/`score`/`gate`, plus
    /// `propose` when strategy finding runs), per-operator `op:*` spans,
    /// circuit-cache `cache.*` events, β-gate `beta.skip`/`score.exact`
    /// instants, and one [`pcqe_par::Decision`] per result row.
    ///
    /// Tracing is write-only: the response (and any audit entry) is
    /// bit-identical to an untraced [`Database::query`] of the same
    /// request. On error the buffered events are discarded so the next
    /// trace starts clean.
    pub fn trace_query(
        &mut self,
        user: &User,
        request: &QueryRequest,
    ) -> Result<(QueryResponse, pcqe_obs::QueryTrace)> {
        self.tracer.set_enabled(true);
        let result = self.query(user, request);
        self.tracer.set_enabled(false);
        let trace = self.tracer.drain();
        Ok((result?, trace))
    }

    /// Run several queries as one batch (the multiple-query extension at
    /// the end of the paper's Section 4): each query is evaluated and
    /// policy-checked individually, and a *single* combined improvement
    /// strategy is computed over the union of their base tuples so that
    /// every query's requested fraction is met at once — shared tuples
    /// are paid for once.
    ///
    /// The batch is all-or-nothing for the audit trail: every request's
    /// policy is selected before any of them is evaluated, and the
    /// per-query audit entries (and their metric mirrors) are pushed only
    /// once the whole batch has succeeded, so a failing request leaves no
    /// entries behind.
    pub fn query_batch(
        &mut self,
        user: &User,
        requests: &[QueryRequest],
    ) -> Result<crate::response::BatchResponse> {
        let par = self.config.parallelism();
        let recording = self.recording();
        let policies = requests
            .iter()
            .map(|r| Ok(self.policies.select(&user.role, &r.purpose)?.clone()))
            .collect::<Result<Vec<ConfidencePolicy>>>()?;
        let mut responses = Vec::with_capacity(requests.len());
        let mut instances = Vec::new();
        let mut non_monotone = false;
        for (request, policy) in requests.iter().zip(&policies) {
            // Evaluate without per-query proposals (done jointly below).
            // Scoring stays exact here: every withheld row may feed the
            // combined improvement instance, so β-gating would only add a
            // re-scoring pass.
            let plan = self.plan_sql(&request.sql)?;
            let result_set = self.run_plan(&plan, &par, recording)?;
            let probs = |v: pcqe_lineage::VarId| self.catalog.confidence(TupleId(v.0));
            sync_cache_probs(&mut self.cache, result_set.rows(), &probs);
            let scored = result_set.score_cached(&mut self.cache, &self.config.evaluator)?;
            let confidences: Vec<f64> = scored.iter().map(|s| s.confidence).collect();
            let decision = evaluate_results(policy, &confidences);
            let released = released_tuples(&scored, &decision.released);
            let requested = (request.min_fraction * scored.len() as f64).ceil() as usize;
            let shortfall = requested.saturating_sub(released.len());
            if shortfall > 0 {
                let withheld = withheld_tuples(&scored, &decision.withheld);
                match improve::build_instance(
                    &self.catalog,
                    &self.costs,
                    &self.config,
                    &withheld,
                    policy.threshold,
                    shortfall,
                    &mut self.cache,
                )? {
                    Some(instance) => instances.push(instance),
                    None => non_monotone = true,
                }
            }
            responses.push(QueryResponse {
                schema: result_set.schema().clone(),
                released,
                withheld: decision.withheld.len(),
                threshold: policy.threshold,
                proposal: None,
                no_proposal: None,
            });
        }
        let batch = self.combined_proposal(responses, &instances, non_monotone)?;
        // Audit each query's policy decision, exactly as single-query
        // evaluation does (the combined proposal is audited when it is
        // applied; per-query `proposed` is therefore always false).
        for (request, response) in requests.iter().zip(&batch.responses) {
            self.record_query_decision(
                user,
                request,
                response.threshold,
                response.released.len(),
                response.withheld,
                false,
            );
        }
        Ok(batch)
    }

    /// Solve the batch's merged improvement instance into one combined
    /// proposal (or a reason there is none).
    fn combined_proposal(
        &self,
        responses: Vec<QueryResponse>,
        instances: &[pcqe_core::ProblemInstance],
        non_monotone: bool,
    ) -> Result<crate::response::BatchResponse> {
        use pcqe_core::greedy::GreedyOptions;
        use pcqe_core::multi::{solve_greedy, MultiQueryProblem};

        let mut batch = crate::response::BatchResponse {
            responses,
            proposal: None,
            no_proposal: None,
        };
        if non_monotone {
            batch.no_proposal = Some(NoProposal::NonMonotone);
            return Ok(batch);
        }
        if instances.is_empty() {
            batch.no_proposal = Some(NoProposal::NotNeeded);
            return Ok(batch);
        }
        let multi = MultiQueryProblem::merge(instances)?;
        let greedy_opts = GreedyOptions {
            parallelism: self.config.parallelism(),
            ..GreedyOptions::default()
        };
        match solve_greedy(&multi, &greedy_opts) {
            Ok(out) => {
                if self.recording() {
                    out.stats.emit_as("solver.multi", &self.recorder);
                }
                let mut increments: Vec<crate::response::ProposedIncrement> = out
                    .solution
                    .levels
                    .iter()
                    .zip(&multi.bases)
                    .filter(|(l, b)| **l > b.initial + 1e-12)
                    .map(|(l, b)| crate::response::ProposedIncrement {
                        tuple_id: TupleId(b.id),
                        from: b.initial,
                        to: *l,
                        cost: b.cost.cost(b.initial, *l),
                    })
                    .collect();
                increments.sort_by_key(|i| i.tuple_id);
                let requested: usize = instances.iter().map(|i| i.required).sum();
                batch.proposal = Some(crate::response::ImprovementProposal {
                    cost: out.solution.cost,
                    increments,
                    projected_released: batch
                        .responses
                        .iter()
                        .map(|r| r.released.len())
                        .sum::<usize>()
                        + out.solution.satisfied.len(),
                    requested,
                    version: self.version,
                });
            }
            Err(pcqe_core::CoreError::Infeasible {
                achievable,
                required,
            }) => {
                batch.no_proposal = Some(NoProposal::Infeasible {
                    achievable,
                    requested: required,
                });
            }
            Err(pcqe_core::CoreError::GaveUp(m)) => {
                batch.no_proposal = Some(NoProposal::SolverGaveUp(m));
            }
            Err(e) => return Err(e.into()),
        }
        Ok(batch)
    }

    /// Preview a proposal without applying it: re-evaluate the query with
    /// the proposal's confidences substituted in, returning what the user
    /// *would* see after accepting. Nothing observable in the database
    /// changes — this is the "report the cost and the data to the manager"
    /// step of Section 3.1, with the outcome made inspectable. (The
    /// preview warms/invalidates circuit-pool memos, which is why the
    /// receiver is `&mut`; the next scoring pass re-syncs probabilities
    /// from the catalog, so answers are unaffected.)
    ///
    /// This is the incremental-re-scoring fast path: overriding one base
    /// tuple's confidence invalidates only the pool nodes whose var-set
    /// intersects it, so repeated what-if probes re-evaluate a sliver of
    /// each circuit instead of re-expanding every formula.
    pub fn what_if(
        &mut self,
        user: &User,
        request: &QueryRequest,
        proposal: &crate::response::ImprovementProposal,
    ) -> Result<QueryResponse> {
        let par = self.config.parallelism();
        let plan = self.plan_sql(&request.sql)?;
        let result_set = self.run_plan(&plan, &par, false)?;
        let overrides: BTreeMap<TupleId, f64> = proposal
            .increments
            .iter()
            .map(|i| (i.tuple_id, i.to))
            .collect();
        let probs = |v: pcqe_lineage::VarId| {
            let id = TupleId(v.0);
            overrides
                .get(&id)
                .copied()
                .or_else(|| self.catalog.confidence(id))
        };
        sync_cache_probs(&mut self.cache, result_set.rows(), &probs);
        let scored = result_set.score_cached(&mut self.cache, &self.config.evaluator)?;
        self.record_cache_activity();
        let policy = self.policies.select(&user.role, &request.purpose)?;
        let confidences: Vec<f64> = scored.iter().map(|s| s.confidence).collect();
        let decision = evaluate_results(policy, &confidences);
        Ok(QueryResponse {
            schema: result_set.schema().clone(),
            released: released_tuples(&scored, &decision.released),
            withheld: decision.withheld.len(),
            threshold: policy.threshold,
            proposal: None,
            no_proposal: Some(NoProposal::NotNeeded),
        })
    }

    /// Accept a proposal: apply its increments to the database (Figure 1,
    /// steps 8–9, the data-quality improvement component). Rejects
    /// proposals computed against an older database version.
    pub fn apply(&mut self, proposal: &crate::response::ImprovementProposal) -> Result<()> {
        if proposal.version != self.version {
            return Err(EngineError::StaleProposal);
        }
        for inc in &proposal.increments {
            self.catalog.raise_confidence(inc.tuple_id, inc.to)?;
        }
        self.version += 1;
        self.record_improvement(proposal.increments.len(), proposal.cost);
        Ok(())
    }

    /// Convenience: query, and if a proposal comes back, accept it and
    /// re-run the query (the full loop of Figure 1).
    pub fn query_with_improvement(
        &mut self,
        user: &User,
        request: &QueryRequest,
    ) -> Result<QueryResponse> {
        let first = self.query(user, request)?;
        match &first.proposal {
            Some(p) => {
                let p = p.clone();
                self.apply(&p)?;
                self.query(user, request)
            }
            None => Ok(first),
        }
    }
}

/// Materialize the released-tuple payload for the indices a policy
/// decision selected. `PolicyDecision` indices are in-bounds by
/// construction, but the query path must stay panic-free (PCQE-P002), so
/// this goes through checked `get` — an impossible out-of-range index is
/// dropped instead of unwinding mid-release.
fn released_tuples(scored: &[pcqe_algebra::ScoredTuple], indices: &[usize]) -> Vec<ReleasedTuple> {
    indices
        .iter()
        .filter_map(|&i| scored.get(i))
        .map(|s| ReleasedTuple {
            tuple: s.tuple.clone(),
            lineage: s.lineage.clone(),
            confidence: s.confidence,
        })
        .collect()
}

/// Borrow the withheld scored tuples for strategy finding, with the same
/// checked-indexing discipline as [`released_tuples`].
fn withheld_tuples<'a>(
    scored: &'a [pcqe_algebra::ScoredTuple],
    indices: &[usize],
) -> Vec<&'a pcqe_algebra::ScoredTuple> {
    indices.iter().filter_map(|&i| scored.get(i)).collect()
}

/// Push the current probability of every variable the result set reads
/// into the circuit cache before a cached scoring pass. `set_prob` is a
/// bitwise-compared no-op for unchanged values, so this only invalidates
/// memos for tuples whose confidence actually moved (an `apply`, or a
/// what-if override) — the incremental-re-scoring entry point. Variables
/// the source does not know are left unset so cached scoring fails with
/// the same `UnknownVar` the uncached evaluator reports.
fn sync_cache_probs<F: Fn(pcqe_lineage::VarId) -> Option<f64>>(
    cache: &mut pcqe_lineage::CircuitCache,
    rows: &[pcqe_algebra::DerivedTuple],
    prob_of: &F,
) {
    for row in rows {
        for v in row.lineage.vars() {
            if let Some(p) = prob_of(v) {
                cache.set_prob(v, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcqe_storage::{Column, DataType};

    /// The paper's running example, end to end.
    fn paper_db() -> Database {
        paper_db_with(EngineConfig::default())
    }

    /// The paper's running example under an explicit configuration.
    fn paper_db_with(config: EngineConfig) -> Database {
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
        // Tuple 02 (p=0.3, +0.1 costs 100) and tuple 03 (p=0.4, +0.1
        // costs 10), as in Section 3.1.
        let t02 = db
            .insert(
                "Proposal",
                vec![
                    Value::text("SkyCam"),
                    Value::text("drone v1"),
                    Value::Real(800_000.0),
                ],
                0.3,
            )
            .unwrap();
        let t03 = db
            .insert(
                "Proposal",
                vec![
                    Value::text("SkyCam"),
                    Value::text("drone v2"),
                    Value::Real(900_000.0),
                ],
                0.4,
            )
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
        // Make raising t13 expensive so the optimal fix is t03, as in the
        // paper's narrative.
        db.set_cost(t13, CostFn::linear(10_000.0).unwrap()).unwrap();
        db.add_policy(ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap());
        db.add_policy(ConfidencePolicy::new("Manager", "investment", 0.06).unwrap());
        db
    }

    const QUERY: &str = "SELECT DISTINCT CompanyInfo.company, income \
        FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
        WHERE funding < 1000000.0";

    #[test]
    fn secretary_sees_the_result() {
        let mut db = paper_db();
        let resp = db
            .query(
                &User::new("sue", "Secretary"),
                &QueryRequest::new(QUERY, "analysis"),
            )
            .unwrap();
        assert_eq!(resp.released.len(), 1);
        assert!((resp.released[0].confidence - 0.058).abs() < 1e-12);
        assert!(matches!(resp.no_proposal, Some(NoProposal::NotNeeded)));
    }

    #[test]
    fn manager_gets_a_proposal_choosing_the_cheap_tuple() {
        let mut db = paper_db();
        let resp = db
            .query(
                &User::new("mark", "Manager"),
                &QueryRequest::new(QUERY, "investment"),
            )
            .unwrap();
        assert!(resp.released.is_empty(), "0.058 < β = 0.06");
        assert_eq!(resp.withheld, 1);
        let proposal = resp.proposal.expect("a strategy exists");
        // Optimal fix: raise t03 from 0.4 to 0.5, cost 10 (Section 3.1).
        assert!(
            (proposal.cost - 10.0).abs() < 1e-9,
            "cost {}",
            proposal.cost
        );
        assert_eq!(proposal.increments.len(), 1);
        let inc = &proposal.increments[0];
        assert!((inc.from - 0.4).abs() < 1e-12);
        assert!((inc.to - 0.5).abs() < 1e-12);
        assert_eq!(proposal.projected_released, 1);
    }

    #[test]
    fn applying_the_proposal_releases_the_result() {
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query_with_improvement(&user, &request).unwrap();
        assert_eq!(resp.released.len(), 1);
        // p38 after the fix: (0.3 + 0.5 − 0.15) · 0.1 = 0.065.
        assert!((resp.released[0].confidence - 0.065).abs() < 1e-12);
    }

    #[test]
    fn stale_proposals_are_rejected() {
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query(&user, &request).unwrap();
        let proposal = resp.proposal.unwrap();
        // Any write invalidates the proposal.
        db.insert(
            "CompanyInfo",
            vec![Value::text("Other"), Value::Real(1.0)],
            0.5,
        )
        .unwrap();
        assert_eq!(db.apply(&proposal), Err(EngineError::StaleProposal));
    }

    #[test]
    fn partial_fraction_requests_no_proposal_when_met() {
        let mut db = paper_db();
        // Add a second, certain result so half the results already pass.
        db.insert(
            "Proposal",
            vec![
                Value::text("SureThing"),
                Value::text("app"),
                Value::Real(100.0),
            ],
            0.9,
        )
        .unwrap();
        db.insert(
            "CompanyInfo",
            vec![Value::text("SureThing"), Value::Real(5.0)],
            0.9,
        )
        .unwrap();
        let resp = db
            .query(
                &User::new("mark", "Manager"),
                &QueryRequest::new(QUERY, "investment").expecting(0.5),
            )
            .unwrap();
        assert_eq!(resp.released.len(), 1, "only the certain pair passes");
        assert!(matches!(resp.no_proposal, Some(NoProposal::NotNeeded)));
    }

    #[test]
    fn infeasible_improvement_reported() {
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "t",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        db.insert("t", vec![Value::Int(1)], 0.2).unwrap();
        // β = 1.0 can never be strictly exceeded.
        db.add_policy(ConfidencePolicy::new("r", "p", 1.0).unwrap());
        let resp = db
            .query(
                &User::new("u", "r"),
                &QueryRequest::new("SELECT x FROM t", "p"),
            )
            .unwrap();
        assert!(resp.released.is_empty());
        assert!(matches!(
            resp.no_proposal,
            Some(NoProposal::Infeasible { .. })
        ));
    }

    #[test]
    fn negated_lineage_is_not_improvable() {
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "a",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        db.create_table(
            "b",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        db.insert("a", vec![Value::Int(1)], 0.4).unwrap();
        db.insert("b", vec![Value::Int(1)], 0.4).unwrap();
        db.add_policy(ConfidencePolicy::new("r", "p", 0.5).unwrap());
        let resp = db
            .query(
                &User::new("u", "r"),
                &QueryRequest::new("SELECT x FROM a EXCEPT SELECT x FROM b", "p"),
            )
            .unwrap();
        assert!(resp.released.is_empty());
        assert!(matches!(resp.no_proposal, Some(NoProposal::NonMonotone)));
    }

    #[test]
    fn missing_policy_is_an_error() {
        let mut db = paper_db();
        assert!(matches!(
            db.query(
                &User::new("x", "Intern"),
                &QueryRequest::new(QUERY, "analysis")
            ),
            Err(EngineError::Policy(_))
        ));
    }

    #[test]
    fn estimator_collects_samples_from_proposals() {
        let mut db = paper_db();
        assert!(db.estimator().is_empty());
        let _ = db
            .query(
                &User::new("mark", "Manager"),
                &QueryRequest::new(QUERY, "investment"),
            )
            .unwrap();
        assert_eq!(db.estimator().len(), 1);
    }

    #[test]
    fn audit_log_records_queries_and_improvements() {
        use crate::audit::AuditEntry;
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query(&user, &request).unwrap();
        db.apply(&resp.proposal.unwrap()).unwrap();
        let _ = db.query(&user, &request).unwrap();
        let log = db.audit_log();
        assert_eq!(log.len(), 3);
        assert!(matches!(
            &log[0],
            AuditEntry::Query { user, released: 0, withheld: 1, proposed: true, .. }
                if user == "mark"
        ));
        assert!(matches!(
            &log[1],
            AuditEntry::Improvement { tuples: 1, cost } if (cost - 10.0).abs() < 1e-9
        ));
        assert!(matches!(
            &log[2],
            AuditEntry::Query {
                released: 1,
                proposed: false,
                ..
            }
        ));
    }

    #[test]
    fn metrics_snapshot_mirrors_the_audit_log() {
        use crate::audit::AuditEntry;
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query(&user, &request).unwrap();
        db.apply(&resp.proposal.unwrap()).unwrap();
        let _ = db.query(&user, &request).unwrap();
        let _ = db
            .query(
                &User::new("sue", "Secretary"),
                &QueryRequest::new(QUERY, "analysis"),
            )
            .unwrap();

        let (mut queries, mut released, mut withheld, mut improvements, mut tuples) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for entry in db.audit_log() {
            match entry {
                AuditEntry::Query {
                    released: r,
                    withheld: w,
                    ..
                } => {
                    queries += 1;
                    released += *r as u64;
                    withheld += *w as u64;
                }
                AuditEntry::Improvement { tuples: t, .. } => {
                    improvements += 1;
                    tuples += *t as u64;
                }
            }
        }
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("query.total"), queries);
        assert_eq!(snap.counter("policy.released"), released);
        assert_eq!(snap.counter("policy.withheld"), withheld);
        assert_eq!(snap.counter("improvement.applied"), improvements);
        assert_eq!(snap.counter("improvement.tuples"), tuples);
        // Solver and execution instrumentation fired too.
        assert_eq!(snap.counter("query.proposals"), 1);
        assert!(snap.counter("exec.operators") > 0);
        assert!(snap.counter("solver.quota.required") > 0);
        assert!(!snap.spans.is_empty(), "query spans were recorded");
    }

    #[test]
    fn batch_queries_are_audited_like_single_queries() {
        use crate::audit::AuditEntry;
        let mut db = paper_db();
        let user = User::new("sue", "Secretary");
        let requests = [
            QueryRequest::new(QUERY, "analysis"),
            QueryRequest::new(QUERY, "analysis"),
        ];
        let _ = db.query_batch(&user, &requests).unwrap();
        let log = db.audit_log();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|e| matches!(
            e,
            AuditEntry::Query {
                released: 1,
                withheld: 0,
                proposed: false,
                ..
            }
        )));
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("query.total"), 2);
        assert_eq!(snap.counter("policy.released"), 2);
    }

    #[test]
    fn recording_off_is_result_neutral_and_records_nothing() {
        let mut on = paper_db();
        let mut off = paper_db_with(EngineConfig {
            record_metrics: false,
            ..EngineConfig::default()
        });
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let r_on = on.query(&user, &request).unwrap();
        let r_off = off.query(&user, &request).unwrap();
        assert_eq!(r_on.released.len(), r_off.released.len());
        assert_eq!(r_on.withheld, r_off.withheld);
        assert_eq!(r_on.proposal, r_off.proposal);
        assert!(off.metrics_snapshot().is_empty(), "recording off is silent");
        assert!(!on.metrics_snapshot().is_empty());
        // Audit entries are identical either way.
        assert_eq!(on.audit_log(), off.audit_log());
    }

    #[test]
    fn explain_analyze_annotates_observed_row_counts() {
        let db = paper_db();
        let text = db.explain_analyze(QUERY).unwrap();
        // Physical operators with true observed sizes: the pushed-down σ
        // keeps both sub-million proposals, the join emits 2 SkyCam pairs,
        // and DISTINCT merges them into 1.
        assert!(text.contains("TableScan Proposal [filter:"), "got:\n{text}");
        assert!(text.contains("(rows_in=2 rows_out=2"), "got:\n{text}");
        assert!(
            text.contains("TableScan CompanyInfo (rows_in=1 rows_out=1"),
            "got:\n{text}"
        );
        assert!(
            text.contains("NestedLoopJoin") && text.contains("(rows_in=3 rows_out=2"),
            "got:\n{text}"
        );
        assert!(
            text.contains("Project DISTINCT [company, income] (rows_in=2 rows_out=1"),
            "got:\n{text}"
        );
        // EXPLAIN ANALYZE is read-only: no audit entry, no policy metrics.
        assert!(db.audit_log().is_empty());
        assert_eq!(db.metrics_snapshot().counter("query.total"), 0);
    }

    #[test]
    fn explain_analyze_surfaces_batch_counts() {
        // The vectorized profile annotates batch-producing operators;
        // scans materialise one morsel batch here.
        let db = paper_db();
        let text = db.explain_analyze(QUERY).unwrap();
        assert!(text.contains("batches=1"), "got:\n{text}");
    }

    #[test]
    fn explain_physical_shows_both_plans() {
        let db = paper_db();
        let text = db.explain_physical(QUERY).unwrap();
        assert!(text.contains("LOGICAL"), "got:\n{text}");
        assert!(text.contains("PHYSICAL"), "got:\n{text}");
        assert!(text.contains("NestedLoopJoin"), "got:\n{text}");
        assert!(text.contains("TableScan Proposal [filter:"), "got:\n{text}");
    }

    #[test]
    fn index_changes_access_path_but_not_results() {
        let mut db = paper_db();
        let user = User::new("sue", "Secretary");
        let sql = "SELECT proposal FROM Proposal WHERE company = 'SkyCam'";
        let before = db
            .query(&user, &QueryRequest::new(sql, "analysis"))
            .unwrap();
        let col = db.create_index("Proposal", "company").unwrap();
        assert_eq!(col, 0);
        let text = db.explain_physical(sql).unwrap();
        assert!(
            text.contains("IndexScan Proposal (company = 'SkyCam')"),
            "got:\n{text}"
        );
        let after = db
            .query(&user, &QueryRequest::new(sql, "analysis"))
            .unwrap();
        assert_eq!(before.released, after.released);
        assert_eq!(before.withheld, after.withheld);
    }

    #[test]
    fn trace_query_is_result_neutral_and_decisions_match_audit() {
        use pcqe_obs::trace::TraceEventKind;
        let mut traced = paper_db();
        let mut plain = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let (resp, trace) = traced.trace_query(&user, &request).unwrap();
        let expected = plain.query(&user, &request).unwrap();
        // Tracing is write-only: same release decision, same proposal,
        // same audit trail as an untraced run.
        assert_eq!(resp.released, expected.released);
        assert_eq!(resp.withheld, expected.withheld);
        assert_eq!(resp.proposal, expected.proposal);
        assert_eq!(traced.audit_log(), plain.audit_log());
        // Exactly one Decision per scored row, matching the audit entry's
        // released/withheld accounting.
        let decisions = trace.decisions();
        assert_eq!(decisions.len(), resp.released.len() + resp.withheld);
        assert!(decisions.iter().all(|d| !d.released));
        assert!((decisions[0].beta - 0.06).abs() < 1e-12);
        assert!((decisions[0].confidence - 0.058).abs() < 1e-12);
        assert!(decisions[0].lineage_size > 0);
        // Lifecycle and operator spans are present.
        let begins: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::SpanBegin { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        for name in ["query", "plan", "execute", "score", "gate", "propose"] {
            assert!(begins.contains(&name), "missing span {name}: {begins:?}");
        }
        assert!(
            begins.iter().any(|n| n.starts_with("op:")),
            "operator spans missing: {begins:?}"
        );
        // The tracer is disabled again afterwards and its buffer drained.
        assert!(!traced.tracer().is_enabled());
        assert!(traced.tracer().drain().events.is_empty());
    }

    #[test]
    fn what_if_previews_without_mutating() {
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query(&user, &request).unwrap();
        let proposal = resp.proposal.unwrap();
        let preview = db.what_if(&user, &request, &proposal).unwrap();
        assert_eq!(preview.released.len(), 1);
        assert!((preview.released[0].confidence - 0.065).abs() < 1e-12);
        // The real database is untouched: the manager still sees nothing.
        let again = db.query(&user, &request).unwrap();
        assert!(again.released.is_empty());
        // And the original proposal is still applicable afterwards.
        db.apply(&proposal).unwrap();
    }

    #[test]
    fn batch_queries_share_one_strategy() {
        // Two tables whose rows derive from... actually two queries over
        // the same table: improving the shared base tuples once must
        // satisfy both queries.
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "m",
            Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("grp", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
        let shared = db
            .insert("m", vec![Value::Int(1), Value::text("both")], 0.3)
            .unwrap();
        db.insert("m", vec![Value::Int(2), Value::text("a")], 0.3)
            .unwrap();
        db.insert("m", vec![Value::Int(3), Value::text("b")], 0.9)
            .unwrap();
        db.set_cost(shared, CostFn::linear(10.0).unwrap()).unwrap();
        db.add_policy(ConfidencePolicy::new("r", "p", 0.5).unwrap());
        let user = User::new("u", "r");
        let q1 = QueryRequest::new("SELECT x FROM m WHERE grp = 'both' OR grp = 'a'", "p")
            .expecting(0.5);
        let q2 = QueryRequest::new("SELECT x FROM m WHERE grp = 'both' OR grp = 'b'", "p");
        let batch = db.query_batch(&user, &[q1.clone(), q2.clone()]).unwrap();
        assert_eq!(batch.responses.len(), 2);
        let proposal = batch.proposal.clone().expect("a combined strategy exists");
        // The shared cheap tuple is raised once and serves both queries.
        assert!(proposal.increments.iter().any(|i| i.tuple_id == shared));
        db.apply(&proposal).unwrap();
        let r1 = db.query(&user, &q1).unwrap();
        let r2 = db.query(&user, &q2).unwrap();
        assert!(!r1.released.is_empty());
        assert_eq!(r2.released.len(), 2);
    }

    /// Run a batch whose second request fails, and check it left no
    /// audit entry or policy counter behind for the first.
    fn assert_failing_batch_is_not_audited(second: QueryRequest) {
        let mut db = paper_db();
        let user = User::new("sue", "Secretary");
        let first = QueryRequest::new(QUERY, "analysis");
        assert!(db.query_batch(&user, &[first.clone(), second]).is_err());
        assert!(db.audit_log().is_empty());
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("query.total"), 0);
        assert_eq!(snap.counter("policy.released"), 0);
        assert_eq!(snap.counter("policy.withheld"), 0);
        // A batch that succeeds afterwards is audited as usual.
        db.query_batch(&user, &[first]).unwrap();
        assert_eq!(db.audit_log().len(), 1);
        assert_eq!(db.metrics_snapshot().counter("query.total"), 1);
    }

    #[test]
    fn batch_with_a_missing_policy_leaves_no_audit_entries() {
        // The secretary has no policy for the "investment" purpose.
        assert_failing_batch_is_not_audited(QueryRequest::new(QUERY, "investment"));
    }

    #[test]
    fn batch_with_bad_sql_leaves_no_audit_entries() {
        assert_failing_batch_is_not_audited(QueryRequest::new("SELECT FROM WHERE", "analysis"));
    }

    #[test]
    fn batch_with_nothing_to_do_reports_not_needed() {
        let mut db = paper_db();
        let user = User::new("sue", "Secretary");
        let batch = db
            .query_batch(&user, &[QueryRequest::new(QUERY, "analysis")])
            .unwrap();
        assert!(batch.proposal.is_none());
        assert!(matches!(batch.no_proposal, Some(NoProposal::NotNeeded)));
    }

    #[test]
    fn ddl_and_dml_statements() {
        let mut db = Database::new(EngineConfig::default());
        assert_eq!(
            db.execute("CREATE TABLE t (x INT, label TEXT)").unwrap(),
            StatementOutcome::TableCreated
        );
        let out = db
            .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b') WITH CONFIDENCE 0.7")
            .unwrap();
        let StatementOutcome::Inserted(ids) = out else {
            panic!("expected inserted rows");
        };
        assert_eq!(ids.len(), 2);
        assert_eq!(db.confidence(ids[0]), Some(0.7));
        // Default confidence is 1.0.
        let StatementOutcome::Inserted(ids) = db.execute("INSERT INTO t VALUES (3, 'c')").unwrap()
        else {
            panic!()
        };
        assert_eq!(db.confidence(ids[0]), Some(1.0));
        // Queries are rejected through execute.
        assert!(db.execute("SELECT * FROM t").is_err());
        // Type errors surface.
        assert!(db.execute("INSERT INTO t VALUES ('wrong', 1)").is_err());
    }

    #[test]
    fn provenance_backed_inserts() {
        use pcqe_provenance::{CollectionMethod, ProvenanceRecord, Source};
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "t",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        let id = db
            .insert_assessed(
                "t",
                vec![Value::Int(1)],
                &[ProvenanceRecord::new(
                    Source::new("registry", 0.9).unwrap(),
                    CollectionMethod::Audited,
                )],
            )
            .unwrap();
        assert!((db.confidence(id).unwrap() - 0.9).abs() < 1e-12);
    }
}
