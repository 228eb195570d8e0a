//! Result sets: derived tuples with lineage, and confidence scoring.

use crate::error::AlgebraError;
use crate::Result;
use pcqe_lineage::{CircuitCache, Evaluator, Lineage, ProbSource};
use pcqe_par::{ConfidencePath, TraceSink};
use pcqe_storage::{Schema, Tuple};
use std::fmt;

/// One derived tuple: values plus the boolean lineage deriving it.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedTuple {
    /// The tuple's values.
    pub tuple: Tuple,
    /// Lineage over base-tuple variables.
    pub lineage: Lineage,
}

/// A derived tuple with its computed confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredTuple {
    /// The tuple's values.
    pub tuple: Tuple,
    /// Lineage over base-tuple variables.
    pub lineage: Lineage,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
}

/// The output of executing a plan: a schema and derived tuples.
#[derive(Debug, Clone)]
pub struct ResultSet {
    schema: Schema,
    rows: Vec<DerivedTuple>,
}

impl ResultSet {
    /// Construct a result set.
    pub fn new(schema: Schema, rows: Vec<DerivedTuple>) -> Self {
        ResultSet { schema, rows }
    }

    /// The result schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The derived rows.
    pub fn rows(&self) -> &[DerivedTuple] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Consume the result set, yielding its rows.
    pub fn into_rows(self) -> Vec<DerivedTuple> {
        self.rows
    }

    /// Compute every row's confidence from base-tuple probabilities.
    pub fn score<P: ProbSource>(
        &self,
        probs: &P,
        evaluator: &Evaluator,
    ) -> Result<Vec<ScoredTuple>> {
        self.rows
            .iter()
            .map(|row| {
                let confidence = evaluator
                    .probability(&row.lineage, probs)
                    .map_err(|e| AlgebraError::Lineage(e.to_string()))?;
                Ok(ScoredTuple {
                    tuple: row.tuple.clone(),
                    lineage: row.lineage.clone(),
                    confidence,
                })
            })
            .collect()
    }

    /// [`Self::score`] through a shared [`CircuitCache`]: rows with equal
    /// or overlapping lineage share compiled subcircuits and memoized
    /// probabilities. Bit-identical to [`Self::score`] whenever
    /// `cache.probs()` agrees with the probability source it was given —
    /// the cache replays the interpreter's float operations in the same
    /// order, and memo hits return the identical f64.
    ///
    /// The pass is sequential by construction (memoized evaluation is a
    /// shared-state walk), which is what makes it thread-count independent:
    /// there is no scheduling to vary.
    pub fn score_cached(
        &self,
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
    ) -> Result<Vec<ScoredTuple>> {
        self.rows
            .iter()
            .map(|row| {
                let confidence = cache
                    .score_lineage(&row.lineage, evaluator)
                    .map_err(|e| AlgebraError::Lineage(e.to_string()))?;
                Ok(ScoredTuple {
                    tuple: row.tuple.clone(),
                    lineage: row.lineage.clone(),
                    confidence,
                })
            })
            .collect()
    }

    /// β-gated scoring through a shared [`CircuitCache`]: skip exact
    /// confidence computation for rows whose cheap monotone upper bound
    /// ([`pcqe_lineage::upper_bound`], linear in lineage size) already
    /// proves the row cannot pass the policy threshold `beta`, and serve
    /// every other row's exact score from the cache.
    ///
    /// A policy admits a row iff its confidence is **strictly** greater
    /// than β. The Fréchet upper bound is sound under any dependence
    /// structure, so `upper ≤ β` implies `exact ≤ β` — the row is withheld
    /// either way, and the released-tuple set is provably identical to
    /// exact scoring. Skipped rows carry their upper bound as `confidence`
    /// (a labelled over-estimate, never an admit) and are flagged in
    /// [`GatedScore::skipped`] so callers that later need exact values
    /// (strategy finding over withheld rows) can re-score just those rows
    /// via [`ResultSet::rescore_exact_cached`]. Unskipped rows are
    /// bit-identical to [`Self::score`].
    ///
    /// Rows are scored sequentially (memoized evaluation is a shared-state
    /// walk) but in morsel-sized chunks, and each morsel surfaces one
    /// single-worker [`pcqe_par::BatchReport`] to the observer so `.trace`
    /// files show the scoring pass's batch structure alongside the
    /// executor's — chunking changes *reporting*, never evaluation. The
    /// per-row [`ConfidencePath`] report says `BetaSkipped` for gated
    /// rows, `CacheHit` when the whole circuit came from the root memo and
    /// `Exact` when compilation (or the Monte-Carlo fallback) ran; it only
    /// *reads* the stats counters the cache was already keeping. One
    /// `beta.skip`/`score.exact` instant per row goes to `trace` after
    /// the pass, in row order.
    pub fn score_gated_cached_morsels_traced(
        &self,
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
        beta: f64,
        observer: Option<&dyn pcqe_par::ParObserver>,
        trace: Option<&dyn TraceSink>,
    ) -> Result<(GatedScore, Vec<ConfidencePath>)> {
        let mut scored = Vec::with_capacity(self.rows.len());
        let mut skipped = Vec::with_capacity(self.rows.len());
        let mut paths = Vec::with_capacity(self.rows.len());
        let mut exact_skipped = 0usize;
        let morsel = pcqe_storage::morsel_rows(self.rows.len());
        for chunk in self.rows.chunks(morsel.max(1)) {
            let started = observer.map(|o| o.now_nanos());
            for row in chunk {
                let upper = pcqe_lineage::upper_bound(&row.lineage, cache.probs())
                    .map_err(|e| AlgebraError::Lineage(e.to_string()))?;
                let (confidence, was_skipped, path) = if upper <= beta {
                    (upper, true, ConfidencePath::BetaSkipped)
                } else {
                    let before = cache.stats();
                    let exact = cache
                        .score_lineage(&row.lineage, evaluator)
                        .map_err(|e| AlgebraError::Lineage(e.to_string()))?;
                    (exact, false, classify_cached(before, cache.stats()))
                };
                scored.push(ScoredTuple {
                    tuple: row.tuple.clone(),
                    lineage: row.lineage.clone(),
                    confidence,
                });
                skipped.push(was_skipped);
                paths.push(path);
                if was_skipped {
                    exact_skipped += 1;
                }
            }
            if let (Some(obs), Some(t0)) = (observer, started) {
                obs.batch(&pcqe_par::BatchReport {
                    items: chunk.len(),
                    workers: 1,
                    chunks: 1,
                    chunks_claimed: vec![1],
                    busy_nanos: vec![obs.now_nanos().saturating_sub(t0)],
                    reassembly_stalls: 0,
                });
            }
        }
        let gated = GatedScore {
            scored,
            skipped,
            exact_skipped,
        };
        if let Some(sink) = trace {
            emit_gate_instants(sink, &gated, beta);
        }
        Ok((gated, paths))
    }

    /// Replace bound-valued confidences with exact ones for the rows
    /// flagged in `skipped` (in place over a [`GatedScore::scored`]
    /// vector), served from (and memoized into) the shared pool. Used
    /// before computing improvement strategies over withheld tuples,
    /// which need true confidences. Returns the number of rows re-scored.
    pub fn rescore_exact_cached(
        scored: &mut [ScoredTuple],
        skipped: &[bool],
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
    ) -> Result<usize> {
        let mut n = 0usize;
        for (i, &was_skipped) in skipped.iter().enumerate() {
            if !was_skipped {
                continue;
            }
            if let Some(s) = scored.get_mut(i) {
                s.confidence = cache
                    .score_lineage(&s.lineage, evaluator)
                    .map_err(|e| AlgebraError::Lineage(e.to_string()))?;
                n += 1;
            }
        }
        Ok(n)
    }
}

/// The outcome of [`ResultSet::score_gated_cached_morsels_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatedScore {
    /// One scored tuple per result row, in row order. Rows with
    /// `skipped[i] == true` carry their confidence *upper bound* (≤ β)
    /// instead of the exact value.
    pub scored: Vec<ScoredTuple>,
    /// Per-row flag: `true` when exact evaluation was short-circuited.
    pub skipped: Vec<bool>,
    /// Number of rows whose exact evaluation was skipped
    /// (`skipped.iter().filter(|s| **s).count()`).
    pub exact_skipped: usize,
}

/// Classify one cached scoring step from the stats delta it left: no
/// fresh root compile plus at least one compile-memo hit means the pool
/// answered ([`ConfidencePath::CacheHit`]); anything else ran fresh
/// arithmetic ([`ConfidencePath::Exact`], including the Monte-Carlo
/// fallback).
fn classify_cached(
    before: pcqe_lineage::CacheStats,
    after: pcqe_lineage::CacheStats,
) -> ConfidencePath {
    if after.compiled == before.compiled && after.compile_hits > before.compile_hits {
        ConfidencePath::CacheHit
    } else {
        ConfidencePath::Exact
    }
}

/// One `beta.skip` / `score.exact` instant per row, in row order. The
/// payload carries the row index only: the skipped row's Fréchet upper
/// bound and the β it lost to are deliberately not rendered — trace
/// files travel further than the audit log, and the Decision record is
/// the designed outlet for those values (PCQE-F002, PCQE-F003).
fn emit_gate_instants(sink: &dyn TraceSink, gated: &GatedScore, _beta: f64) {
    for (i, &was_skipped) in gated.skipped.iter().enumerate() {
        if was_skipped {
            sink.instant("beta.skip", &format!("row={i}"));
        } else {
            sink.instant("score.exact", &format!("row={i}"));
        }
    }
}

impl fmt::Display for ResultSet {
    /// Render the result set as a `header | header` text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.display_name())
            .collect();
        writeln!(f, "{}", headers.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.tuple.values().iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcqe_lineage::VarId;
    use pcqe_storage::{Column, DataType, Value};
    use std::collections::HashMap;

    fn simple() -> ResultSet {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        ResultSet::new(
            schema,
            vec![
                DerivedTuple {
                    tuple: Tuple::new(vec![Value::Int(1)]),
                    lineage: Lineage::var(0),
                },
                DerivedTuple {
                    tuple: Tuple::new(vec![Value::Int(2)]),
                    lineage: Lineage::and(vec![Lineage::var(0), Lineage::var(1)]),
                },
            ],
        )
    }

    fn probs() -> HashMap<VarId, f64> {
        [(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect()
    }

    fn seeded_cache(probs: &HashMap<VarId, f64>) -> CircuitCache {
        let mut cache = CircuitCache::new();
        let mut sorted: Vec<(VarId, f64)> = probs.iter().map(|(&v, &p)| (v, p)).collect();
        sorted.sort_by_key(|&(v, _)| v);
        for (v, p) in sorted {
            cache.set_prob(v, p);
        }
        cache
    }

    fn gated(rs: &ResultSet, cache: &mut CircuitCache, beta: f64) -> GatedScore {
        rs.score_gated_cached_morsels_traced(cache, &Evaluator::default(), beta, None, None)
            .unwrap()
            .0
    }

    #[test]
    fn scoring_computes_probabilities() {
        let rs = simple();
        let scored = rs.score(&probs(), &Evaluator::default()).unwrap();
        assert_eq!(scored.len(), 2);
        assert!((scored[0].confidence - 0.5).abs() < 1e-12);
        assert!((scored[1].confidence - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scoring_fails_on_unknown_base_tuple() {
        let rs = simple();
        let probs: HashMap<VarId, f64> = [(VarId(0), 0.5)].into_iter().collect();
        assert!(matches!(
            rs.score(&probs, &Evaluator::default()),
            Err(AlgebraError::Lineage(_))
        ));
        let mut cache = seeded_cache(&probs);
        assert!(matches!(
            rs.score_cached(&mut cache, &Evaluator::default()),
            Err(AlgebraError::Lineage(_))
        ));
    }

    #[test]
    fn display_renders_table() {
        let text = simple().to_string();
        assert!(text.starts_with("x\n"));
        assert!(text.contains('2'));
    }

    #[test]
    fn gated_scoring_skips_only_provably_failing_rows() {
        let rs = simple();
        let probs = probs();
        // Row 0: exact 0.5; row 1 (AND): exact 0.2, upper bound
        // min(0.5, 0.4) = 0.4.
        let (gated, paths) = rs
            .score_gated_cached_morsels_traced(
                &mut seeded_cache(&probs),
                &Evaluator::default(),
                0.45,
                None,
                None,
            )
            .unwrap();
        assert_eq!(gated.exact_skipped, 1);
        assert_eq!(gated.skipped, vec![false, true]);
        assert_eq!(paths[1], ConfidencePath::BetaSkipped);
        // Unskipped rows carry exact confidence; skipped rows carry the
        // (≤ β) upper bound.
        let exact = rs.score(&probs, &Evaluator::default()).unwrap();
        assert_eq!(
            gated.scored[0].confidence.to_bits(),
            exact[0].confidence.to_bits()
        );
        assert!((gated.scored[1].confidence - 0.4).abs() < 1e-12);
        // Classification against β is identical to exact scoring.
        for (g, e) in gated.scored.iter().zip(&exact) {
            assert_eq!(g.confidence > 0.45, e.confidence > 0.45);
        }
    }

    #[test]
    fn gated_scoring_with_high_bound_matches_exact() {
        let rs = simple();
        let probs = probs();
        // β = 0.1: no row's bound proves failure, so nothing is skipped
        // and every confidence is exact, bit for bit.
        let gated = gated(&rs, &mut seeded_cache(&probs), 0.1);
        assert_eq!(gated.exact_skipped, 0);
        let exact = rs.score(&probs, &Evaluator::default()).unwrap();
        assert_eq!(gated.scored, exact);
    }

    #[test]
    fn cached_scoring_is_bit_identical_to_plain() {
        let rs = simple();
        let probs = probs();
        let plain = rs.score(&probs, &Evaluator::default()).unwrap();
        let mut cache = seeded_cache(&probs);
        // Score twice: the second pass is pure memo hits and must not
        // perturb a single bit.
        for pass in 0..2 {
            let cached = rs.score_cached(&mut cache, &Evaluator::default()).unwrap();
            assert_eq!(cached.len(), plain.len());
            for (c, p) in cached.iter().zip(&plain) {
                assert_eq!(
                    c.confidence.to_bits(),
                    p.confidence.to_bits(),
                    "pass {pass}"
                );
            }
        }
        assert!(cache.stats().hits() > 0);
    }

    #[test]
    fn rescore_exact_restores_true_confidences() {
        let rs = simple();
        let probs = probs();
        let mut cache = seeded_cache(&probs);
        let mut cached = gated(&rs, &mut cache, 0.45);
        let n = ResultSet::rescore_exact_cached(
            &mut cached.scored,
            &cached.skipped,
            &mut cache,
            &Evaluator::default(),
        )
        .unwrap();
        assert_eq!(n, 1);
        let exact = rs.score(&probs, &Evaluator::default()).unwrap();
        for (c, p) in cached.scored.iter().zip(&exact) {
            assert_eq!(c.confidence.to_bits(), p.confidence.to_bits());
        }
    }
}
