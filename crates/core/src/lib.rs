//! MOELA: a hybrid multi-objective evolutionary/learning optimizer.
//!
//! This crate implements the paper's primary contribution — Algorithm 1 —
//! over the generic [`moela_moo::Problem`] trait, so the same engine that
//! explores 3D-NoC manycore designs (`moela_manycore::ManycoreProblem`)
//! also solves any other multi-objective problem (the validation suite
//! runs it on ZDT/DTLZ), realizing the paper's closing claim that MOELA
//! generalizes "across many other problem domains".
//!
//! The moving parts:
//!
//! * [`MoelaConfig`] — Algorithm 1's inputs (`N`, `gen`, `iter_early`,
//!   `n_local`, `δ`, `|S_train|` cap) plus practical budgets;
//! * [`Moela`] — the full loop: ML-guided start selection (Algorithm 2,
//!   via a [`moela_ml::RandomForest`]), local search, `Eval` retraining,
//!   and the decomposition EA step.
//!
//! The decomposition population (Das–Dennis weights, Tchebycheff
//! neighborhoods, the eq. (10) update and the EA pass) and the eq. (8)
//! weighted-sum descent live in `moela-moo` as
//! [`moela_moo::population::Population`] and
//! [`moela_moo::local_search::greedy_descent`], shared with the MOEA/D,
//! MOOS and multi-start baselines; this crate adds the learned guidance
//! on top of them.
//!
//! # Example
//!
//! ```
//! use moela_core::{Moela, MoelaConfig};
//! use moela_moo::problems::Zdt;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = Zdt::zdt1(12);
//! let config = MoelaConfig::builder()
//!     .population(16)
//!     .generations(10)
//!     .build()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let outcome = Moela::new(config, &problem).run(&mut rng);
//! println!("final front: {} designs", outcome.front().len());
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod moela;

pub use config::{BuildConfigError, MoelaConfig, MoelaConfigBuilder};
pub use moela::{Moela, MoelaOutcome};
