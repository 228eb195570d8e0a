//! Output checks: op fingerprints and their comparison.
//!
//! Every query, what-if and batch op is reduced to a 64-bit FNV-1a
//! fingerprint of its released rows (values and confidence bits, in
//! order), its withheld count and its proposal (increment ids, target
//! levels, costs) or the reason it has none. The engine-driven loop and
//! the traced stage-by-stage replay compute fingerprints the same way;
//! an op whose fingerprint differs from the replay's counts as failed.

use pcqe_engine::{ImprovementProposal, NoProposal, QueryResponse};
use pcqe_storage::{Tuple, Value};

/// A proposal in benchmark terms (the engine's type cannot be built
/// outside the engine).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Total cost.
    pub cost: f64,
    /// `(tuple id, from, to, cost)`, ordered by tuple id.
    pub increments: Vec<(u64, f64, f64, f64)>,
    /// Results released once applied.
    pub projected: usize,
    /// Results requested.
    pub requested: usize,
}

impl Plan {
    /// Convert an engine proposal.
    pub fn of(p: &ImprovementProposal) -> Plan {
        Plan {
            cost: p.cost,
            increments: p
                .increments
                .iter()
                .map(|i| (i.tuple_id.0, i.from, i.to, i.cost))
                .collect(),
            projected: p.projected_released,
            requested: p.requested,
        }
    }

    /// The proposal's total equals the sum of its increments' costs (to
    /// rounding).
    pub fn cost_adds_up(&self) -> bool {
        let sum: f64 = self.increments.iter().map(|i| i.3).sum();
        (self.cost - sum).abs() <= 1e-9 * self.cost.abs().max(1.0)
    }
}

/// Why an op has no proposal, in benchmark terms.
#[derive(Debug, Clone, PartialEq)]
pub enum NoPlan {
    /// The request is already met.
    NotNeeded,
    /// Unreachable even at full confidence.
    Infeasible {
        /// Results achievable.
        achievable: usize,
        /// Results requested.
        requested: usize,
    },
    /// Too few monotone results.
    NonMonotone,
    /// The solver gave up.
    GaveUp,
}

impl NoPlan {
    /// Convert an engine reason.
    pub fn of(n: &NoProposal) -> NoPlan {
        match n {
            NoProposal::NotNeeded => NoPlan::NotNeeded,
            NoProposal::Infeasible {
                achievable,
                requested,
            } => NoPlan::Infeasible {
                achievable: *achievable,
                requested: *requested,
            },
            NoProposal::NonMonotone => NoPlan::NonMonotone,
            NoProposal::SolverGaveUp(_) => NoPlan::GaveUp,
        }
    }
}

/// An incremental FNV-1a 64 hasher over the canonical bytes of an op's
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in a number.
    pub fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    /// Mix in a float by its bit pattern.
    pub fn float(&mut self, x: f64) {
        self.num(x.to_bits());
    }

    /// Mix in one released row: its values and confidence bits.
    pub fn row(&mut self, tuple: &Tuple, confidence: f64) {
        self.num(tuple.arity() as u64);
        for v in tuple.values() {
            match v {
                Value::Null => self.num(0),
                Value::Bool(b) => {
                    self.num(1);
                    self.num(u64::from(*b));
                }
                Value::Int(i) => {
                    self.num(2);
                    self.bytes(&i.to_le_bytes());
                }
                Value::Real(r) => {
                    self.num(3);
                    self.float(*r);
                }
                Value::Text(s) => {
                    self.num(4);
                    self.num(s.len() as u64);
                    self.bytes(s.as_bytes());
                }
            }
        }
        self.float(confidence);
    }

    /// Mix in a proposal or the reason there is none.
    pub fn plan(&mut self, plan: Result<&Plan, &NoPlan>) {
        match plan {
            Ok(p) => {
                self.num(1);
                self.float(p.cost);
                self.num(p.projected as u64);
                self.num(p.requested as u64);
                self.num(p.increments.len() as u64);
                for &(id, from, to, cost) in &p.increments {
                    self.num(id);
                    self.float(from);
                    self.float(to);
                    self.float(cost);
                }
            }
            Err(NoPlan::NotNeeded) => self.num(2),
            Err(NoPlan::Infeasible {
                achievable,
                requested,
            }) => {
                self.num(3);
                self.num(*achievable as u64);
                self.num(*requested as u64);
            }
            Err(NoPlan::NonMonotone) => self.num(4),
            Err(NoPlan::GaveUp) => self.num(5),
        }
    }

    /// Mix in an engine response's released rows and withheld count (its
    /// proposal is mixed in separately, since batch responses carry one
    /// combined proposal).
    pub fn response(&mut self, r: &QueryResponse) {
        self.num(r.released.len() as u64);
        for t in &r.released {
            self.row(&t.tuple, t.confidence);
        }
        self.num(r.withheld as u64);
    }

    /// The finished fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Mix in an engine response's proposal or reason.
pub fn engine_plan(
    fp: &mut Fingerprint,
    proposal: Option<&ImprovementProposal>,
    no: Option<&NoProposal>,
) {
    match (proposal, no) {
        (Some(p), _) => fp.plan(Ok(&Plan::of(p))),
        (None, Some(n)) => fp.plan(Err(&NoPlan::of(n))),
        (None, None) => fp.num(0),
    }
}

/// True when an op's fingerprint equals the reference for its index. An
/// op without a fingerprint (it errored) or without a reference (the
/// replay's op failed) never agrees.
pub fn agrees(reference: &[Option<u64>], index: usize, fp: Option<u64>) -> bool {
    matches!((reference.get(index).copied().flatten(), fp), (Some(a), Some(b)) if a == b)
}

/// Number of observed `(op index, fingerprint)` pairs that disagree with
/// the reference.
pub fn mismatches(observed: &[(usize, Option<u64>)], reference: &[Option<u64>]) -> usize {
    observed
        .iter()
        .filter(|(i, fp)| !agrees(reference, *i, *fp))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn released(rows: &[(i64, &str, f64)]) -> u64 {
        let mut fp = Fingerprint::default();
        fp.num(rows.len() as u64);
        for &(id, seg, c) in rows {
            fp.row(&Tuple::new(vec![Value::Int(id), Value::text(seg)]), c);
        }
        fp.num(3);
        fp.finish()
    }

    #[test]
    fn a_tampered_released_set_is_a_failed_op() {
        let good = [(1, "retail", 0.75), (2, "smb", 0.5)];
        let reference = vec![Some(released(&good))];
        assert_eq!(mismatches(&[(0, Some(released(&good)))], &reference), 0);
        let dropped = released(&good[..1]);
        let flipped = released(&[
            (1, "retail", 0.75),
            (2, "smb", f64::from_bits(0.5f64.to_bits() + 1)),
        ]);
        let renamed = released(&[(1, "retail", 0.75), (2, "smc", 0.5)]);
        for bad in [dropped, flipped, renamed] {
            assert_eq!(mismatches(&[(0, Some(bad))], &reference), 1);
        }
        assert_eq!(
            mismatches(&[(0, None)], &reference),
            1,
            "an errored op fails"
        );
    }

    #[test]
    fn plan_cost_must_add_up() {
        let mut p = Plan {
            cost: 30.0,
            increments: vec![(1, 0.1, 0.2, 10.0), (2, 0.1, 0.3, 20.0)],
            projected: 1,
            requested: 1,
        };
        assert!(p.cost_adds_up());
        p.cost = 31.0;
        assert!(!p.cost_adds_up());
    }
}
