//! Baseline multi-objective optimizers for the MOELA comparison study.
//!
//! Every algorithm the paper evaluates against (plus two naive brackets)
//! is implemented here over the same [`moela_moo::Problem`] trait MOELA
//! uses, and returns the same [`moela_moo::run::RunResult`], so the
//! benchmark harness compares them on identical footing:
//!
//! * [`Moead`] — MOEA/D (Zhang & Li 2007), the decomposition EA;
//! * [`Moos`] — MOOS (Deshwal et al. 2019), ML-guided direction-adaptive
//!   local search;
//! * [`MooStage`] — MOO-STAGE (Joardar et al. 2019), STAGE-style learned
//!   restart policy;
//! * [`Nsga2`] — NSGA-II (Deb et al. 2002);
//! * [`random_search`] and [`multi_start_local_search`] — naive brackets.

use moela_moo::local_search::LocalSearchBudget;

pub mod moead;
pub mod moo_stage;
pub mod moos;
pub mod nsga2;
pub mod simple;

pub use moead::{Moead, MoeadConfig, MoeadState};
pub use moo_stage::{MooStage, MooStageConfig, MooStageState};
pub use moos::{Moos, MoosConfig, MoosState};
pub use nsga2::{Nsga2, Nsga2Config, Nsga2State};
pub use simple::{
    multi_start_local_search, random_search, random_search_restore, random_search_start,
    MultiStartConfig, RandomSearchConfig, RandomSearchState,
};

/// The descent budget of the learning-free baselines (MOOS, multi-start):
/// the descent ends after three non-improving neighbor batches in a row,
/// so one unlucky sample does not end it.
pub(crate) fn descent_budget(max_steps: usize, neighbors_per_step: usize) -> LocalSearchBudget {
    LocalSearchBudget { max_steps, neighbors_per_step, stall_evaluations: 3 * neighbors_per_step }
}
