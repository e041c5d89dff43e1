//! Counterexample replay: SAT witnesses fed back into bit-parallel
//! simulation, after Lee et al., *Simulation-Guided Boolean
//! Resubstitution*.
//!
//! Every SAT refutation of a clause yields a witness: a primary-input
//! vector under which the site is observable and every literal of the
//! clause is false. A [`WitnessPool`] keeps the most recent witnesses of
//! a run packed 64 per word and, before a candidate reaches the SAT
//! prover, simulates them against it. A pooled vector that refutes one of
//! the candidate's clauses is an exact counterexample on the current
//! netlist, so the candidate is refuted without building an encoding.
//! Replay never claims validity: a candidate no pooled vector refutes
//! still goes to SAT.

use crate::Site;
use netlist::{Netlist, NetlistError, SignalId};
use sim::{simulate, ObsPlan, ObservabilityEngine, SimResult, VectorSet};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The most witnesses a pool keeps (four simulation words); the oldest
/// is dropped first.
const POOL_CAP: usize = 256;

/// The SAT witnesses of one run, with their simulation on the current
/// netlist version. The optimizer keeps one per pipeline run, shared by
/// its delay and area rounds.
///
/// The witnesses themselves are input vectors and stay meaningful across
/// edits. What depends on the netlist — the levelization, the simulated
/// values and the per-site observability rows — is built lazily and
/// dropped by [`netlist_changed`](Self::netlist_changed).
///
/// # Example
///
/// ```
/// use gdo::{Site, WitnessPool};
/// use netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_gate(GateKind::And, &[a, b])?;
/// nl.add_output("y", g);
/// let mut pool = WitnessPool::default();
/// pool.push(vec![true, true]);
/// // Under a=b=1, a is observable and the literal !b is false, so the
/// // clause (!O_a + !b) is refuted; (!O_a + b) is not.
/// assert!(pool.refute(&nl, Site::Stem(a), &[vec![(b, false)]])?.is_some());
/// assert!(pool.refute(&nl, Site::Stem(a), &[vec![(b, true)]])?.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct WitnessPool {
    rows: VecDeque<Vec<bool>>,
    plan: Option<Arc<ObsPlan>>,
    sim: Option<SimResult>,
    /// Observability of each queried site under the pooled vectors.
    obs: HashMap<Site, Vec<u64>>,
}

impl WitnessPool {
    /// Adds a SAT witness, evicting the oldest one when the pool is full.
    pub fn push(&mut self, witness: Vec<bool>) {
        if self.rows.len() == POOL_CAP {
            self.rows.pop_front();
        }
        self.rows.push_back(witness);
        self.sim = None;
        self.obs.clear();
    }

    /// Forgets everything derived from the netlist. Call after any edit
    /// (apply, revert, rollback) before the next replay.
    pub fn netlist_changed(&mut self) {
        self.plan = None;
        self.sim = None;
        self.obs.clear();
    }

    /// Returns a pooled vector under which `site` is observable and every
    /// literal of some clause in `clauses` is false, if there is one.
    /// Clauses are given as [`Rewrite::clauses`](crate::Rewrite::clauses)
    /// returns them.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
    pub fn refute(
        &mut self,
        nl: &Netlist,
        site: Site,
        clauses: &[Vec<(SignalId, bool)>],
    ) -> Result<Option<Vec<bool>>, NetlistError> {
        if self.rows.is_empty() {
            return Ok(None);
        }
        if self.plan.is_none() {
            self.plan = Some(Arc::new(ObsPlan::new(nl)?));
        }
        if self.sim.is_none() {
            let vectors = VectorSet::from_rows(nl.inputs().len(), self.rows.make_contiguous());
            self.sim = Some(simulate(nl, &vectors)?);
        }
        let (Some(plan), Some(sim)) = (&self.plan, &self.sim) else {
            unreachable!("built above");
        };
        let obs = self.obs.entry(site).or_insert_with(|| {
            let mut engine = ObservabilityEngine::with_plan(nl, sim, Arc::clone(plan));
            match site {
                Site::Stem(s) => engine.observability(s).to_vec(),
                Site::Branch(b) => engine.observability_branch(b).to_vec(),
            }
        });
        for clause in clauses {
            for (w, &observable) in obs.iter().enumerate() {
                let all_false = clause.iter().fold(observable, |acc, &(s, positive)| {
                    let value = sim.value(s)[w];
                    acc & if positive { !value } else { value }
                });
                if all_false != 0 {
                    // Padding lanes repeat the last row.
                    let lane = w * 64 + all_false.trailing_zeros() as usize;
                    let row = lane.min(self.rows.len() - 1);
                    return Ok(Some(self.rows[row].clone()));
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;

    /// y = OR(a, AND(a, b)): t = AND(a, b) is observable iff a = 0.
    fn absorption() -> (Netlist, [SignalId; 4]) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[a, t]).unwrap();
        nl.add_output("y", y);
        (nl, [a, b, t, y])
    }

    #[test]
    fn empty_pool_refutes_nothing() {
        let (nl, [_, _, t, _]) = absorption();
        let mut pool = WitnessPool::default();
        assert_eq!(pool.refute(&nl, Site::Stem(t), &[vec![]]).unwrap(), None);
    }

    #[test]
    fn refutes_only_with_an_observable_all_false_vector() {
        let (nl, [a, b, t, _]) = absorption();
        let mut pool = WitnessPool::default();
        // a=1 blocks t: no clause over t is refuted by this vector.
        pool.push(vec![true, true]);
        assert_eq!(pool.refute(&nl, Site::Stem(t), &[vec![]]).unwrap(), None);
        // a=0, b=1: t observable; (!O_t + !b) has every literal false.
        pool.push(vec![false, true]);
        assert_eq!(
            pool.refute(&nl, Site::Stem(t), &[vec![(b, false)]])
                .unwrap(),
            Some(vec![false, true])
        );
        // (!O_t + b) is not refuted by either vector, but the second
        // clause of a combination can still be.
        assert_eq!(
            pool.refute(&nl, Site::Stem(t), &[vec![(b, true)]]).unwrap(),
            None
        );
        assert!(pool
            .refute(&nl, Site::Stem(t), &[vec![(b, true)], vec![(a, true)]])
            .unwrap()
            .is_some());
    }

    #[test]
    fn evicts_the_oldest_witness_past_the_cap() {
        let (nl, [_, b, t, _]) = absorption();
        let mut pool = WitnessPool::default();
        pool.push(vec![false, true]);
        for _ in 0..POOL_CAP {
            pool.push(vec![true, true]);
        }
        assert_eq!(pool.rows.len(), POOL_CAP);
        assert_eq!(
            pool.refute(&nl, Site::Stem(t), &[vec![(b, false)]])
                .unwrap(),
            None
        );
    }

    #[test]
    fn netlist_change_drops_the_simulation() {
        let (mut nl, [a, b, t, y]) = absorption();
        let mut pool = WitnessPool::default();
        pool.push(vec![false, true]);
        assert!(pool
            .refute(&nl, Site::Stem(t), &[vec![(b, false)]])
            .unwrap()
            .is_some());
        // Rewire y = OR(a, a): t no longer reaches the output.
        nl.rewire_branch(netlist::Branch { cell: y, pin: 1 }, a)
            .unwrap();
        pool.netlist_changed();
        assert_eq!(
            pool.refute(&nl, Site::Stem(t), &[vec![(b, false)]])
                .unwrap(),
            None
        );
    }
}
