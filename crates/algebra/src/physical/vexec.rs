//! Vectorized, morsel-driven physical plan execution — the engine's
//! only production executor.
//!
//! It runs a lowered [`PhysicalPlan`] with the lineage rules and
//! ordered-map determinism of the logical tree-walker in [`crate::exec`],
//! but data flows as columnar batches ([`VBatch`]: per-column value
//! vectors plus a per-row lineage vector, seeded from
//! [`pcqe_storage::Batch`] at the scans) and work is dispatched as whole
//! morsels across `pcqe-par` workers via
//! [`pcqe_par::morsel::map_morsels`], with a deterministic in-order
//! merge.
//!
//! ## The identity contract
//!
//! For any logical plan `p`, `execute_vectorized_with(&lower(&p, c)?, c,
//! par)` produces a result set **bit-identical** to
//! `crate::execute_with(&p, c, par)` — same rows, same order, same
//! lineage expressions, and the same first error on failing inputs — at
//! any thread count. The logical walker is kept as the equivalence
//! oracle for exactly this contract. Three rules enforce it:
//!
//! 1. **Expressions evaluate row-wise, in row order.** Batches change
//!    *data movement*, never evaluation order: predicates and
//!    projections run through [`ScalarExpr::eval_view`] over a
//!    [`ColumnarRow`], the same monomorphized body the logical walker
//!    runs over row slices, so the first error surfaced is the same row's
//!    error. Column-wise evaluation would be faster still but could
//!    reorder which error wins — it is deliberately off the table.
//! 2. **Pipeline breakers reuse the row-native helpers.** Sort,
//!    Aggregate, Union, Difference, distinct-merge and the join kernels
//!    convert batches to rows (a move, not a clone) and run literally
//!    the same `or_merge`/`sort_rows`/`eval_aggregate` code as the
//!    logical walker.
//! 3. **Partitioned hash state stays ordered.** The hash-join build side
//!    is hash-partitioned by [`pcqe_storage::partition`]'s deterministic
//!    FNV-1a (partition count capped by the build table's NDV when the
//!    catalog knows it); each partition is a `BTreeMap` filled with
//!    ascending global row indexes, so a key's match list is identical
//!    to the single global map the logical walker builds.
//!
//! Where the speed comes from: scans fuse their residual predicate
//! *before* materialising — the logical walker clones every stored row
//! and then filters, the vectorized scan evaluates on borrowed storage
//! and clones only survivors — and all later movement (filter, project,
//! batch-to-row conversion) moves values instead of cloning them.
//!
//! All observer and trace emission happens post-batch on the calling
//! thread (the morsel dispatcher reports once, after its scope joins),
//! never inside worker closures, so traces stay deterministic in
//! structure.

use crate::exec::{eval_aggregate, eval_items, or_merge, sort_rows, Ctx, ExecProfile, Profiler};
use crate::expr::{ColumnarRow, ScalarExpr};
use crate::physical::plan::PhysicalPlan;
use crate::result::{DerivedTuple, ResultSet};
use crate::Result;
use pcqe_lineage::Lineage;
use pcqe_par::morsel::{map_morsels, try_map_morsels};
use pcqe_par::{ParObserver, Parallelism, TraceSink};
use pcqe_storage::{
    morsel_rows, partition_count, partition_of, Batch, Catalog, StoredTuple, Tuple, Value,
};
use std::collections::BTreeMap;

/// Execute a physical plan on the vectorized path under a parallelism
/// policy. Output is byte-identical for any policy — and byte-identical
/// to [`crate::execute_with`] on the logical plan it was lowered from.
pub fn execute_vectorized_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    par: &Parallelism,
) -> Result<ResultSet> {
    let schema = plan.schema(catalog)?;
    let ctx = Ctx {
        catalog,
        par,
        observer: None,
        trace: None,
    };
    let out = run_v(plan, &ctx, 0, &mut Profiler::off())?;
    Ok(ResultSet::new(schema, out.into_rows()))
}

/// [`execute_vectorized_with`], additionally collecting a per-operator
/// [`ExecProfile`] whose `batches` field counts columnar batches
/// produced, optionally feeding a [`ParObserver`] and a causal
/// [`TraceSink`]: operators wrap execution in `op:<label>` spans exactly
/// like the logical walker, and morsel batches surface as the existing
/// `par.batch`/`par.lane` instants via the observer. Pass `None` for
/// both to get just the profile (EXPLAIN ANALYZE).
pub fn execute_vectorized_traced(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    par: &Parallelism,
    observer: Option<&dyn ParObserver>,
    trace: Option<&dyn TraceSink>,
) -> Result<(ResultSet, ExecProfile)> {
    let schema = plan.schema(catalog)?;
    let ctx = Ctx {
        catalog,
        par,
        observer,
        trace,
    };
    let mut prof = Profiler::on();
    let out = run_v(plan, &ctx, 0, &mut prof)?;
    Ok((ResultSet::new(schema, out.into_rows()), prof.finish()))
}

/// A columnar batch inside the executor: per-column value vectors plus a
/// per-row symbolic lineage vector (seeded from the storage batch's
/// lineage-id column at the scans, combined by the operators above).
#[derive(Debug)]
pub(crate) struct VBatch {
    /// One vector per output column; all `lineage.len()` long.
    cols: Vec<Vec<Value>>,
    /// Per-row lineage, aligned with the column vectors.
    lineage: Vec<Lineage>,
}

impl VBatch {
    fn from_storage(batch: Batch) -> VBatch {
        let (cols, _confidence, ids) = batch.into_parts();
        VBatch {
            cols,
            lineage: ids.into_iter().map(Lineage::var).collect(),
        }
    }

    fn len(&self) -> usize {
        self.lineage.len()
    }

    fn is_empty(&self) -> bool {
        self.lineage.is_empty()
    }

    /// Keep only rows whose mask entry is `true`, moving (not cloning)
    /// the surviving values.
    fn retain_mask(self, mask: &[bool]) -> VBatch {
        let keep = |i: usize| mask.get(i).copied().unwrap_or(false);
        VBatch {
            cols: self
                .cols
                .into_iter()
                .map(|col| {
                    col.into_iter()
                        .enumerate()
                        .filter_map(|(i, v)| keep(i).then_some(v))
                        .collect()
                })
                .collect(),
            lineage: self
                .lineage
                .into_iter()
                .enumerate()
                .filter_map(|(i, l)| keep(i).then_some(l))
                .collect(),
        }
    }

    /// Transpose into row-major derived tuples, moving every value.
    fn into_rows(self) -> Vec<DerivedTuple> {
        let arity = self.cols.len();
        let mut rows: Vec<Vec<Value>> =
            (0..self.len()).map(|_| Vec::with_capacity(arity)).collect();
        for col in self.cols {
            for (row, v) in rows.iter_mut().zip(col) {
                row.push(v);
            }
        }
        rows.into_iter()
            .zip(self.lineage)
            .map(|(values, lineage)| DerivedTuple {
                tuple: Tuple::new(values),
                lineage,
            })
            .collect()
    }
}

/// An operator's output: still columnar, or already row-native (after a
/// pipeline breaker). Row-native output flows through the exact same
/// helper code as the logical walker, which is what keeps the two
/// executors bit-identical by construction.
pub(crate) enum VOut {
    /// Columnar batches, in row order across the vector.
    Batches(Vec<VBatch>),
    /// Row-native output (joins, sorts, aggregates, set operations).
    Rows(Vec<DerivedTuple>),
}

impl VOut {
    fn row_count(&self) -> usize {
        match self {
            VOut::Batches(bs) => bs.iter().map(VBatch::len).sum(),
            VOut::Rows(rows) => rows.len(),
        }
    }

    fn lineage_nodes(&self) -> u64 {
        let fold = |acc: u64, l: &Lineage| acc.saturating_add(l.size() as u64);
        match self {
            VOut::Batches(bs) => bs.iter().flat_map(|b| b.lineage.iter()).fold(0u64, fold),
            VOut::Rows(rows) => rows.iter().map(|r| &r.lineage).fold(0u64, fold),
        }
    }

    fn batch_count(&self) -> u64 {
        match self {
            VOut::Batches(bs) => bs.len() as u64,
            VOut::Rows(_) => 0,
        }
    }

    /// Materialise as row-native derived tuples (moves, no clones).
    fn into_rows(self) -> Vec<DerivedTuple> {
        match self {
            VOut::Batches(bs) => {
                let mut rows = Vec::with_capacity(bs.iter().map(VBatch::len).sum());
                for b in bs {
                    rows.append(&mut b.into_rows());
                }
                rows
            }
            VOut::Rows(rows) => rows,
        }
    }
}

fn run_v(plan: &PhysicalPlan, ctx: &Ctx<'_>, depth: usize, prof: &mut Profiler) -> Result<VOut> {
    let slot = prof.enter(depth, || plan.node_label());
    let span = ctx
        .trace
        .map(|t| t.span_begin(&format!("op:{}", plan.node_label())));
    let (rows_in, out) = run_v_node(plan, ctx, depth, prof)?;
    if let (Some(t), Some(id)) = (ctx.trace, span) {
        t.span_end(id);
    }
    prof.exit_counts(
        slot,
        rows_in,
        out.row_count(),
        out.lineage_nodes(),
        out.batch_count(),
    );
    Ok(out)
}

/// Scan-fused residual: evaluate the predicate on *borrowed* stored rows
/// and materialise only survivors into a columnar batch. One morsel in,
/// one batch out; evaluation is row-wise in row order.
fn scan_morsel(
    arity: usize,
    chunk: &[&StoredTuple],
    residual: &Option<ScalarExpr>,
) -> Result<VBatch> {
    let mut batch = Batch::empty(arity);
    match residual {
        None => {
            batch.reserve(chunk.len());
            for r in chunk {
                batch.push_stored(r)?;
            }
        }
        Some(p) => {
            for r in chunk {
                if p.eval_predicate(r.tuple.values())? {
                    batch.push_stored(r)?;
                }
            }
        }
    }
    Ok(VBatch::from_storage(batch))
}

/// Morsel-parallel scan over already-fetched stored rows: cut into
/// morsels, fuse the residual, drop empty batches.
fn scan_batches(
    arity: usize,
    rows: Vec<&StoredTuple>,
    residual: &Option<ScalarExpr>,
    ctx: &Ctx<'_>,
) -> Result<Vec<VBatch>> {
    let weight = rows.len();
    let units: Vec<&[&StoredTuple]> = rows.chunks(morsel_rows(weight)).collect();
    let batches = try_map_morsels(
        ctx.par,
        &units,
        weight,
        |_, chunk| scan_morsel(arity, chunk, residual),
        ctx.observer,
    )?;
    Ok(batches.into_iter().filter(|b| !b.is_empty()).collect())
}

/// Single-key NDV of the hash-join build side, when the catalog knows
/// it: a base-table scan with table statistics for the key column, or an
/// index scan pinned to one key value. Used to cap the partition count —
/// with `d` distinct keys, more than `d` partitions cannot help.
fn build_side_ndv(
    right: &PhysicalPlan,
    keys: &[(usize, usize)],
    left_arity: usize,
    catalog: &Catalog,
) -> Option<usize> {
    if keys.len() != 1 {
        return None;
    }
    let rc = keys.first()?.1.checked_sub(left_arity)?;
    match right {
        PhysicalPlan::TableScan { table, .. } => {
            // A residual can only shrink the distinct-key set, so the
            // base table's NDV stays a valid upper bound.
            catalog.table(table).ok()?.stats().distinct_keys(rc)
        }
        PhysicalPlan::IndexScan { column, .. } if *column == rc => Some(1),
        _ => None,
    }
}

/// Execute one node; returns `(rows consumed from direct inputs, output)`
/// with the same `rows_in` accounting as the logical walker.
fn run_v_node(
    plan: &PhysicalPlan,
    ctx: &Ctx<'_>,
    depth: usize,
    prof: &mut Profiler,
) -> Result<(usize, VOut)> {
    let catalog = ctx.catalog;
    let par = ctx.par;
    match plan {
        PhysicalPlan::TableScan {
            table, residual, ..
        } => {
            let t = catalog.table(table)?;
            let arity = t.schema().arity();
            let rows: Vec<&StoredTuple> = t.rows().iter().collect();
            let rows_in = rows.len();
            let batches = scan_batches(arity, rows, residual, ctx)?;
            Ok((rows_in, VOut::Batches(batches)))
        }
        PhysicalPlan::IndexScan {
            table,
            column,
            key,
            residual,
            ..
        } => {
            let t = catalog.table(table)?;
            let index = t.index_on(*column).ok_or_else(|| {
                crate::error::AlgebraError::Plan(format!(
                    "physical plan requires an index on column {column} of `{table}`, \
                     but the catalog has none"
                ))
            })?;
            let stored = t.rows();
            let positions = index.lookup(key);
            let mut rows = Vec::with_capacity(positions.len());
            for &pos in positions {
                rows.push(stored.get(pos).ok_or_else(|| {
                    crate::error::AlgebraError::Plan(format!(
                        "index on `{table}` points at row {pos} beyond table length {}",
                        stored.len()
                    ))
                })?);
            }
            let rows_in = rows.len();
            let batches = scan_batches(t.schema().arity(), rows, residual, ctx)?;
            Ok((rows_in, VOut::Batches(batches)))
        }
        PhysicalPlan::Filter { input, predicate } => {
            match run_v(input, ctx, depth + 1, prof)? {
                VOut::Batches(batches) => {
                    let rows_in: usize = batches.iter().map(VBatch::len).sum();
                    // Parallel row-wise masks over borrowed batches, then
                    // a move-gather of survivors — the columnar analogue
                    // of mask-then-filter in the logical walker.
                    let masks = try_map_morsels(
                        par,
                        &batches,
                        rows_in,
                        |_, b| -> Result<Vec<bool>> {
                            (0..b.len())
                                .map(|i| {
                                    predicate.eval_predicate_view(&ColumnarRow {
                                        cols: &b.cols,
                                        row: i,
                                    })
                                })
                                .collect()
                        },
                        ctx.observer,
                    )?;
                    let out: Vec<VBatch> = batches
                        .into_iter()
                        .zip(masks)
                        .map(|(b, mask)| b.retain_mask(&mask))
                        .filter(|b| !b.is_empty())
                        .collect();
                    Ok((rows_in, VOut::Batches(out)))
                }
                VOut::Rows(rows) => {
                    let rows_in = rows.len();
                    let keep = pcqe_par::try_map_observed(
                        par,
                        &rows,
                        |row| predicate.eval_predicate(row.tuple.values()),
                        ctx.observer,
                    )?;
                    let out: Vec<DerivedTuple> = rows
                        .into_iter()
                        .zip(keep)
                        .filter_map(|(row, k)| k.then_some(row))
                        .collect();
                    Ok((rows_in, VOut::Rows(out)))
                }
            }
        }
        PhysicalPlan::Project {
            input,
            items,
            distinct,
        } => {
            let v = run_v(input, ctx, depth + 1, prof)?;
            let rows_in = v.row_count();
            let projected: VOut = match v {
                VOut::Batches(batches) => {
                    // Parallel per-batch projection into fresh columns;
                    // lineage vectors are then moved across, never cloned.
                    let new_cols = try_map_morsels(
                        par,
                        &batches,
                        rows_in,
                        |_, b| -> Result<Vec<Vec<Value>>> {
                            let mut cols: Vec<Vec<Value>> =
                                items.iter().map(|_| Vec::with_capacity(b.len())).collect();
                            for i in 0..b.len() {
                                let view = ColumnarRow {
                                    cols: &b.cols,
                                    row: i,
                                };
                                for (item, col) in items.iter().zip(cols.iter_mut()) {
                                    col.push(item.expr.eval_view(&view)?);
                                }
                            }
                            Ok(cols)
                        },
                        ctx.observer,
                    )?;
                    VOut::Batches(
                        batches
                            .into_iter()
                            .zip(new_cols)
                            .map(|(b, cols)| VBatch {
                                cols,
                                lineage: b.lineage,
                            })
                            .collect(),
                    )
                }
                VOut::Rows(rows) => {
                    let values = pcqe_par::try_map_observed(
                        par,
                        &rows,
                        |row| eval_items(items, row.tuple.values()),
                        ctx.observer,
                    )?;
                    VOut::Rows(
                        rows.into_iter()
                            .zip(values)
                            .map(|(row, values)| DerivedTuple {
                                tuple: Tuple::new(values),
                                lineage: row.lineage,
                            })
                            .collect(),
                    )
                }
            };
            if *distinct {
                // Duplicate merging is a pipeline breaker: go row-native
                // and reuse the logical walker's or_merge verbatim.
                Ok((rows_in, VOut::Rows(or_merge(projected.into_rows()))))
            } else {
                Ok((rows_in, projected))
            }
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            keys,
            residual,
        } => {
            let left_arity = left.schema(catalog)?.arity();
            let l = run_v(left, ctx, depth + 1, prof)?.into_rows();
            let r = run_v(right, ctx, depth + 1, prof)?.into_rows();
            let rows_in = l.len() + r.len();
            // Key extraction over the build side, morsel-parallel with
            // first-error-in-row-order — the same error the logical
            // walker's sequential build loop reports. Each key is
            // tagged with its partition up front.
            let parts = partition_count(r.len(), build_side_ndv(right, keys, left_arity, catalog));
            let rkeys: Vec<Option<(usize, Vec<Value>)>> = pcqe_par::try_map_observed(
                par,
                &r,
                |rr| -> Result<Option<(usize, Vec<Value>)>> {
                    let mut key = Vec::with_capacity(keys.len());
                    for &(_, rc) in keys {
                        let v = rr.tuple.get(rc - left_arity).cloned().ok_or_else(|| {
                            crate::error::AlgebraError::Type(format!(
                                "join key column {rc} out of range"
                            ))
                        })?;
                        if v.is_null() {
                            return Ok(None); // NULL never equi-joins
                        }
                        key.push(v);
                    }
                    let p = partition_of(&key, parts);
                    Ok(Some((p, key)))
                },
                ctx.observer,
            )?;
            // Build the partitions in parallel: each partition scans the
            // tagged keys and keeps its own, inserting ascending global
            // row indexes — so any key's match list is identical to the
            // single ordered map the logical walker builds (PCQE-D001:
            // BTreeMap, never a seeded hash map).
            let part_ids: Vec<usize> = (0..parts).collect();
            let tables: Vec<BTreeMap<&[Value], Vec<usize>>> = map_morsels(
                par,
                &part_ids,
                r.len(),
                |_, &p| {
                    let mut table: BTreeMap<&[Value], Vec<usize>> = BTreeMap::new();
                    for (i, tagged) in rkeys.iter().enumerate() {
                        if let Some((kp, key)) = tagged {
                            if *kp == p {
                                table.entry(key.as_slice()).or_default().push(i);
                            }
                        }
                    }
                    table
                },
                ctx.observer,
            );
            // Probe morsel-parallel over left rows; per-left match lists
            // flattened in input order reproduce the sequential loop.
            let weight = l.len();
            let units: Vec<&[DerivedTuple]> = l.chunks(morsel_rows(weight).max(1)).collect();
            let per_chunk = try_map_morsels(
                par,
                &units,
                weight,
                |_, chunk| -> Result<Vec<DerivedTuple>> {
                    let mut out = Vec::new();
                    for lr in *chunk {
                        let mut key = Vec::with_capacity(keys.len());
                        let mut null_key = false;
                        for &(lc, _) in keys {
                            let v = lr.tuple.get(lc).cloned().ok_or_else(|| {
                                crate::error::AlgebraError::Type(format!(
                                    "join key column {lc} out of range"
                                ))
                            })?;
                            if v.is_null() {
                                null_key = true; // NULL never equi-joins
                                break;
                            }
                            key.push(v);
                        }
                        if null_key {
                            continue;
                        }
                        let matches = tables
                            .get(partition_of(&key, parts))
                            .and_then(|t| t.get(key.as_slice()));
                        let Some(matches) = matches else {
                            continue;
                        };
                        for &ri in matches {
                            let rr = r.get(ri).ok_or_else(|| {
                                crate::error::AlgebraError::Plan(
                                    "hash table entry out of range".into(),
                                )
                            })?;
                            let combined = lr.tuple.concat(&rr.tuple);
                            let keep = match residual {
                                Some(res) => res.eval_predicate(combined.values())?,
                                None => true,
                            };
                            if keep {
                                out.push(DerivedTuple {
                                    tuple: combined,
                                    lineage: Lineage::and(vec![
                                        lr.lineage.clone(),
                                        rr.lineage.clone(),
                                    ]),
                                });
                            }
                        }
                    }
                    Ok(out)
                },
                ctx.observer,
            )?;
            Ok((
                rows_in,
                VOut::Rows(per_chunk.into_iter().flatten().collect()),
            ))
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let l = run_v(left, ctx, depth + 1, prof)?.into_rows();
            let r = run_v(right, ctx, depth + 1, prof)?.into_rows();
            let rows_in = l.len() + r.len();
            let out: Vec<Vec<DerivedTuple>> = match predicate {
                // Pure cross product: infallible per-row work.
                None => pcqe_par::map_observed(
                    par,
                    &l,
                    |lr| {
                        r.iter()
                            .map(|rr| DerivedTuple {
                                tuple: lr.tuple.concat(&rr.tuple),
                                lineage: Lineage::and(vec![lr.lineage.clone(), rr.lineage.clone()]),
                            })
                            .collect::<Vec<_>>()
                    },
                    ctx.observer,
                ),
                // Predicated nested loop, morsel-parallel over left rows.
                Some(p) => pcqe_par::try_map_observed(
                    par,
                    &l,
                    |lr| -> Result<Vec<DerivedTuple>> {
                        let mut matches = Vec::new();
                        for rr in &r {
                            let combined = lr.tuple.concat(&rr.tuple);
                            if p.eval_predicate(combined.values())? {
                                matches.push(DerivedTuple {
                                    tuple: combined,
                                    lineage: Lineage::and(vec![
                                        lr.lineage.clone(),
                                        rr.lineage.clone(),
                                    ]),
                                });
                            }
                        }
                        Ok(matches)
                    },
                    ctx.observer,
                )?,
            };
            Ok((rows_in, VOut::Rows(out.into_iter().flatten().collect())))
        }
        PhysicalPlan::Union { left, right } => {
            // Schema compatibility is checked by PhysicalPlan::schema.
            plan.schema(catalog)?;
            let mut rows = run_v(left, ctx, depth + 1, prof)?.into_rows();
            rows.extend(run_v(right, ctx, depth + 1, prof)?.into_rows());
            let rows_in = rows.len();
            Ok((rows_in, VOut::Rows(or_merge(rows))))
        }
        PhysicalPlan::Difference { left, right } => {
            plan.schema(catalog)?;
            let l = or_merge(run_v(left, ctx, depth + 1, prof)?.into_rows());
            let r = or_merge(run_v(right, ctx, depth + 1, prof)?.into_rows());
            let rows_in = l.len() + r.len();
            let right_by_value: BTreeMap<&Tuple, &Lineage> =
                r.iter().map(|d| (&d.tuple, &d.lineage)).collect();
            let mut out = Vec::new();
            for row in &l {
                let lineage = match right_by_value.get(&row.tuple) {
                    Some(rl) => {
                        Lineage::and(vec![row.lineage.clone(), Lineage::not((*rl).clone())])
                    }
                    None => row.lineage.clone(),
                };
                if lineage != Lineage::Const(false) {
                    out.push(DerivedTuple {
                        tuple: row.tuple.clone(),
                        lineage,
                    });
                }
            }
            Ok((rows_in, VOut::Rows(out)))
        }
        PhysicalPlan::Sort { input, keys } => {
            let mut rows = run_v(input, ctx, depth + 1, prof)?.into_rows();
            let rows_in = rows.len();
            sort_rows(&mut rows, keys)?;
            Ok((rows_in, VOut::Rows(rows)))
        }
        PhysicalPlan::Limit { input, count } => {
            match run_v(input, ctx, depth + 1, prof)? {
                VOut::Batches(batches) => {
                    let rows_in: usize = batches.iter().map(VBatch::len).sum();
                    // Keep whole batches until the limit, then cut the
                    // boundary batch — no row materialisation needed.
                    let mut taken = 0usize;
                    let mut out = Vec::new();
                    for b in batches {
                        if taken >= *count {
                            break;
                        }
                        let remaining = *count - taken;
                        if b.len() <= remaining {
                            taken += b.len();
                            out.push(b);
                        } else {
                            let mask: Vec<bool> = (0..b.len()).map(|i| i < remaining).collect();
                            out.push(b.retain_mask(&mask));
                            taken = *count;
                        }
                    }
                    Ok((rows_in, VOut::Batches(out)))
                }
                VOut::Rows(mut rows) => {
                    let rows_in = rows.len();
                    rows.truncate(*count);
                    Ok((rows_in, VOut::Rows(rows)))
                }
            }
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let rows = run_v(input, ctx, depth + 1, prof)?.into_rows();
            let rows_in = rows.len();
            // Group rows by key values, preserving first-seen order —
            // identical to the logical walker's Aggregate.
            let mut index: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
            let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                let mut key = Vec::with_capacity(group_by.len());
                for g in group_by {
                    key.push(g.expr.eval(row.tuple.values())?);
                }
                match index.get(&key) {
                    Some(&gi) => {
                        if let Some(group) = groups.get_mut(gi) {
                            group.1.push(i);
                        }
                    }
                    None => {
                        index.insert(key.clone(), groups.len());
                        groups.push((key, vec![i]));
                    }
                }
            }
            if group_by.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            let mut out = Vec::with_capacity(groups.len());
            for (key, members) in groups {
                let mut values = key;
                for agg in aggregates {
                    values.push(eval_aggregate(agg, &members, &rows)?);
                }
                let lineage = if members.is_empty() {
                    Lineage::certain()
                } else {
                    Lineage::or(
                        members
                            .iter()
                            .filter_map(|&i| rows.get(i).map(|r| r.lineage.clone()))
                            .collect(),
                    )
                };
                out.push(DerivedTuple {
                    tuple: Tuple::new(values),
                    lineage,
                });
            }
            Ok((rows_in, VOut::Rows(out)))
        }
    }
}
