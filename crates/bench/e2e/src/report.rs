//! From raw records and spans to the named metrics.

use crate::drive::OpRecord;
use crate::gen::OpKind;
use crate::replay::Replay;
use crate::stats::{median, percentile, Metrics};
use pcqe_obs::MetricsSnapshot;
use std::collections::BTreeMap;

/// Op types that must each reach [`MIN_SAMPLES`] in a run, so that their
/// p90 has ten samples beyond it.
pub const TIMED_KINDS: [OpKind; 4] = [OpKind::Query, OpKind::WhatIf, OpKind::Batch, OpKind::Write];

/// Samples each timed op type needs per run.
pub const MIN_SAMPLES: usize = 100;

/// Everything the end-to-end run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Every executed op, in order, across epochs.
    pub records: Vec<OpRecord>,
    /// Set-up durations, seconds.
    pub setups: Vec<f64>,
    /// Σ wall time of the epochs' op loops, seconds.
    pub loop_secs: f64,
    /// Epochs started / completed.
    pub epochs: (usize, usize),
    /// Ops skipped for lack of a proposal to preview or apply.
    pub skipped: u64,
    /// Peak resident set size, MiB.
    pub peak_rss_mib: f64,
    /// Worker threads the engine uses (host cores).
    pub nproc: usize,
    /// The engine's own telemetry for the first epoch.
    pub engine_first: MetricsSnapshot,
    /// The engine's `query/*` span totals over all epochs: (count, ns).
    pub engine_spans: BTreeMap<String, (u64, u64)>,
}

impl Run {
    /// Latencies of one op type, seconds.
    pub fn secs(&self, kind: OpKind) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.secs)
            .collect()
    }

    /// True once every timed op type has enough samples.
    pub fn enough_samples(records: &[OpRecord]) -> bool {
        TIMED_KINDS
            .iter()
            .all(|k| records.iter().filter(|r| r.kind == *k).count() >= MIN_SAMPLES)
    }

    /// Fold one epoch's engine snapshot into the span totals.
    pub fn absorb_engine(&mut self, snapshot: &MetricsSnapshot) {
        for (path, stat) in &snapshot.spans {
            let e = self.engine_spans.entry(path.clone()).or_default();
            e.0 += stat.count;
            e.1 += stat.total_nanos;
        }
    }
}

/// The end-to-end metrics (the `--trace 0` result), or the name of the
/// first one the run could not support. Tail latencies are left out: see
/// [`tails`].
pub fn end_to_end(run: &Run) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let setup = median(&run.setups).ok_or("setup_s: no set-up was timed")?;
    m.put("setup_s", setup, "s");
    for (kind, name, scale, unit) in [
        (OpKind::Query, "query_p50_ms", 1e3, "ms"),
        (OpKind::WhatIf, "what_if_p50_ms", 1e3, "ms"),
        (OpKind::Batch, "batch_p50_ms", 1e3, "ms"),
        (OpKind::Write, "write_p50_us", 1e6, "us"),
    ] {
        let s = run.secs(kind);
        let v = percentile(&s, 0.5)
            .ok_or_else(|| format!("{name}: {} samples leave fewer than ten beyond it", s.len()))?;
        m.put(name, v * scale, unit);
    }
    let completed = run.records.iter().filter(|r| r.ok).count();
    m.put(
        "ops_per_s",
        completed as f64 / run.loop_secs.max(1e-9),
        "op/s",
    );
    m.put("peak_rss_mb", run.peak_rss_mib, "MiB");
    Ok(m)
}

/// p90 latency of queries, what-if previews and batches, each reported
/// only with at least ten samples beyond it. They are printed but not in
/// the result line: on the 2-vCPU host used to set the bounds, contention
/// from other tenants spread them by up to 0.44 of their median between
/// runs (first to third quartile over ten seeds), beyond the largest bound
/// the benchmark may set.
pub fn tails(run: &Run) -> Metrics {
    let mut m = Metrics::default();
    for (kind, name) in [
        (OpKind::Query, "query_p90_ms"),
        (OpKind::WhatIf, "what_if_p90_ms"),
        (OpKind::Batch, "batch_p90_ms"),
    ] {
        if let Some(v) = percentile(&run.secs(kind), 0.9) {
            m.put(name, v * 1e3, "ms");
        }
    }
    m
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Median per-op self time of spans named `name`, in `scale` units per
/// nanosecond; 0 when no replayed op reached that layer.
fn layer(replay: &Replay, name: &str, scale: f64) -> f64 {
    let per_op: Vec<f64> = replay
        .spans
        .per_op_self(name)
        .into_iter()
        .map(|n| n as f64 * scale)
        .collect();
    median(&per_op).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer timings printed but left out of the result line because
/// some workload never reaches the layer, so the value would read exactly
/// 0 on every run: `lineage.rescore_ms` (`report_join` runs no θ query).
pub fn printed_only(replay: &Replay) -> Metrics {
    let mut m = Metrics::default();
    m.put(
        "lineage.rescore_ms",
        layer(replay, "lineage.rescore", 1e-6),
        "ms",
    );
    m
}

/// The per-layer metrics (the `--trace 1` result).
pub fn per_layer(run: &Run, replay: &Replay) -> Metrics {
    let mut m = Metrics::default();
    let c = &replay.counts;
    let count = |m: &mut Metrics, name: &str, v: u64| m.put(name, v as f64, "count");
    m.put(
        "sql.parse_plan_ms",
        layer(replay, "sql.parse_plan", 1e-6),
        "ms",
    );
    m.put(
        "algebra.optimize_ms",
        layer(replay, "algebra.optimize", 1e-6),
        "ms",
    );
    m.put(
        "algebra.lower_ms",
        layer(replay, "algebra.lower", 1e-6),
        "ms",
    );
    m.put(
        "algebra.execute_ms",
        layer(replay, "algebra.execute", 1e-6),
        "ms",
    );
    count(&mut m, "algebra.rows_out", c.rows_out);
    count(&mut m, "algebra.lineage_nodes", c.lineage_nodes);
    m.put("lineage.sync_ms", layer(replay, "lineage.sync", 1e-6), "ms");
    m.put(
        "lineage.score_ms",
        layer(replay, "lineage.score", 1e-6),
        "ms",
    );
    count(&mut m, "lineage.rows_scored", c.rows_scored);
    count(&mut m, "lineage.beta_skipped", c.beta_skipped);
    m.put(
        "lineage.skip_ratio",
        ratio(c.beta_skipped as f64, c.rows_scored as f64),
        "ratio",
    );
    count(&mut m, "lineage.rescored", c.rescored);
    let stats = replay.cache.stats();
    count(&mut m, "lineage.cache.compiled", stats.compiled);
    count(&mut m, "lineage.cache.hits", stats.hits());
    count(&mut m, "lineage.cache.invalidated", stats.invalidated);
    m.put(
        "lineage.cache.hit_ratio",
        ratio(stats.hits() as f64, (stats.hits() + stats.compiled) as f64),
        "ratio",
    );
    count(
        &mut m,
        "lineage.cache.pool_nodes",
        replay.cache.pool_size() as u64,
    );
    m.put("policy.gate_ms", layer(replay, "policy.gate", 1e-6), "ms");
    count(&mut m, "policy.released", c.released);
    count(&mut m, "policy.withheld", c.withheld);
    m.put("core.build_ms", layer(replay, "core.build", 1e-6), "ms");
    m.put("core.solve_ms", layer(replay, "core.solve", 1e-6), "ms");
    count(&mut m, "core.problem_bases", c.problem_bases);
    count(&mut m, "core.problem_results", c.problem_results);
    let solver = replay.recorder.snapshot();
    for name in [
        "multi.iterations",
        "multi.evals",
        "greedy.iterations",
        "greedy.evals",
    ] {
        count(
            &mut m,
            &format!("core.solver.{name}"),
            solver.counter(&format!("solver.{name}")),
        );
    }
    m.put(
        "storage.insert_us",
        layer(replay, "storage.insert", 1e-3),
        "us",
    );
    m.put(
        "storage.raise_us",
        layer(replay, "storage.raise", 1e-3),
        "us",
    );
    let busy: Vec<f64> = replay.busy_nanos.iter().map(|&n| ms(n)).collect();
    m.put("par.busy_ms", median(&busy).unwrap_or(0.0), "ms");
    count(&mut m, "par.chunks", solver.counter("par.chunks"));
    count(
        &mut m,
        "par.reassembly_stalls",
        solver.counter("par.reassembly_stalls"),
    );
    let (roots, covered) = replay.spans.coverage_parts();
    let busy_total: u64 = replay.busy_nanos.iter().sum();
    m.put(
        "par.utilization",
        ratio(busy_total as f64, roots as f64 * run.nproc.max(1) as f64),
        "ratio",
    );
    m.put(
        "trace.coverage",
        ratio(covered as f64, roots as f64),
        "ratio",
    );
    m.put(
        "trace.overhead_ratio",
        ratio(roots as f64 / 1e9, untraced_epoch_secs(run, replay)),
        "ratio",
    );
    for phase in ["plan", "execute", "score"] {
        let (n, total) = run
            .engine_spans
            .get(&format!("query/{phase}"))
            .copied()
            .unwrap_or_default();
        m.put(
            format!("engine.query.{phase}_ms"),
            ratio(ms(total), n as f64),
            "ms",
        );
    }
    for name in [
        "exec.rows_out",
        "lineage.circuit_compiled",
        "lineage.cache_hit",
    ] {
        count(
            &mut m,
            &format!("engine.{name}"),
            run.engine_first.counter(name),
        );
    }
    m
}

/// Σ over the replayed ops of each op's mean untraced latency across
/// epochs: the untraced cost of the ops the replay traced.
fn untraced_epoch_secs(run: &Run, replay: &Replay) -> f64 {
    let mut sums: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for r in &run.records {
        let e = sums.entry(r.index).or_default();
        e.0 += r.secs;
        e.1 += 1;
    }
    replay
        .reference
        .iter()
        .enumerate()
        .filter_map(|(i, fp)| fp.and(sums.get(&i)))
        .map(|(sum, n)| sum / *n as f64)
        .sum()
}
