//! Engine configuration.

use pcqe_core::dnc::DncOptions;
use pcqe_core::greedy::GreedyOptions;
use pcqe_core::heuristic::HeuristicOptions;
use pcqe_cost::CostFn;
use pcqe_lineage::Evaluator;

/// Which strategy-finding algorithm the engine should use.
#[derive(Debug, Clone, Default)]
pub enum SolverChoice {
    /// Pick automatically by problem size: exact branch-and-bound for tiny
    /// problems, greedy for small ones, divide-and-conquer at scale —
    /// mirroring the crossovers of Figure 11(c).
    #[default]
    Auto,
    /// Always use the heuristic branch-and-bound.
    Heuristic(HeuristicOptions),
    /// Always use the two-phase greedy.
    Greedy(GreedyOptions),
    /// Always use divide-and-conquer.
    Dnc(DncOptions),
}

/// Engine-wide configuration.
///
/// Every query takes the same path regardless of configuration: the
/// plan is optimised, lowered to a physical plan and run on the
/// vectorized executor, and results are scored through the query-scoped
/// circuit cache with the β-gate on (DESIGN.md §10, §12). The settings
/// below change answers (δ, evaluator, costs, solver, lineage budget) or
/// only speed and telemetry (threads, threshold, metrics) — never which
/// rows a policy sees.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Confidence-increment granularity δ (Table 4 default: 0.1).
    pub delta: f64,
    /// Confidence evaluator used to score query results.
    pub evaluator: Evaluator,
    /// Cost function assumed for base tuples without an explicit one.
    pub default_cost: CostFn,
    /// Strategy-finding algorithm.
    pub solver: SolverChoice,
    /// Shannon budget when compiling lineage into the strategy problem.
    pub lineage_budget: usize,
    /// Worker threads for plan execution, result scoring and solver
    /// rescans. `None` uses every available core; `Some(1)` reproduces
    /// the sequential engine bit-for-bit (any setting produces identical
    /// answers — threads only change speed).
    pub worker_threads: Option<usize>,
    /// Minimum batch size (rows to execute, lineages to score, bases to
    /// rescan) before worker threads are spawned.
    pub parallel_threshold: usize,
    /// Record operator, solver, scheduler and policy metrics into the
    /// database's [`pcqe_obs::Recorder`]. Recording is result-neutral:
    /// query answers, proposals and audit entries are bit-identical with
    /// recording on or off, at any thread count — metrics only observe.
    pub record_metrics: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            delta: 0.1,
            evaluator: Evaluator::default(),
            default_cost: CostFn::linear(100.0).expect("constant is valid"),
            solver: SolverChoice::Auto,
            lineage_budget: 4096,
            worker_threads: None,
            parallel_threshold: pcqe_par::DEFAULT_PARALLEL_THRESHOLD,
            record_metrics: true,
        }
    }
}

impl EngineConfig {
    /// The [`pcqe_par::Parallelism`] policy this configuration encodes.
    pub fn parallelism(&self) -> pcqe_par::Parallelism {
        pcqe_par::Parallelism {
            worker_threads: self.worker_threads,
            parallel_threshold: self.parallel_threshold,
        }
    }

    /// This configuration restricted to one worker thread (the sequential
    /// engine of the paper).
    pub fn sequential(mut self) -> Self {
        self.worker_threads = Some(1);
        self
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_4() {
        let c = EngineConfig::default();
        assert_eq!(c.delta, 0.1);
        assert!(matches!(c.solver, SolverChoice::Auto));
    }
}
