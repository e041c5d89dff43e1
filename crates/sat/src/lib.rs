//! Boolean satisfiability for clause proving and equivalence checking.
//!
//! The paper proves *potentially valid clause combinations* (PVCCs) either
//! by ATPG \[10\] or by BDD verification of the modified circuit. This
//! crate provides the ATPG-equivalent path:
//!
//! * [`Cnf`], [`Var`], [`Lit`] — clause database primitives;
//! * [`Solver`] — a from-scratch CDCL solver (two-watched literals, 1UIP
//!   learning, VSIDS decisions, phase saving, Luby restarts, incremental
//!   solving under assumptions);
//! * [`CircuitCnf`] — the Larrabee-style characteristic-formula encoding
//!   of Section 2 of the paper (each gate contributes the clauses of its
//!   consistency function);
//! * [`check_equiv`] — miter-based combinational equivalence;
//! * [`ClauseProver`] — decides validity of the paper's observability
//!   clauses `(!O_a + l_1 + ... + l_k)` exactly, by building a faulty copy
//!   of the fanout cone of `a` and asking for a distinguishing vector.
//!
//! # Example
//!
//! ```
//! use sat::{Solver, Lit, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! solver.add_clause(&[Lit::neg(a)]);
//! match solver.solve(&[]) {
//!     SatResult::Sat(model) => {
//!         assert!(!model.value(Lit::pos(a)));
//!         assert!(model.value(Lit::pos(b)));
//!     }
//!     SatResult::Unsat => unreachable!("formula is satisfiable"),
//! }
//! ```

mod cnf;
mod dimacs;
mod encode;
mod miter;
mod prove;
mod solver;
pub mod sweep;

pub use cnf::{Cnf, Lit, Var};
pub use dimacs::{parse_dimacs, solver_from_cnf, write_dimacs, DimacsError};
pub use encode::CircuitCnf;
pub use miter::{build_miter, check_equiv, check_equiv_stats, EquivError};
pub use prove::{ClauseOutcome, ClauseProver, FaultSite};
pub use solver::{Model, SatResult, Solver, SolverStats};
pub use sweep::{check_equiv_sweep, check_equiv_sweep_stats, SweepStats};
