//! The step-driven [`Optimizer`] trait: one interface for every search
//! method.
//!
//! An optimizer *proposes* one candidate at a time (mutating the
//! environment), the caller evaluates it against the oracle it owns, and
//! the optimizer *observes* the verdict. So budget enforcement, target
//! bookkeeping, checkpointing and report assembly live once, in the generic
//! [`Driver`](crate::runner::Driver): it supplies the only search loop.
//!
//! Three types implement the trait and cover all four built-in methods:
//! [`MultiLevelPlacer`](crate::MultiLevelPlacer),
//! [`FlatQPlacer`](crate::FlatQPlacer), and [`Annealer`] (SA, or random
//! search under [`Annealer::random`]).
//!
//! # Snapshots
//!
//! [`Optimizer::snapshot`] serialises the *entire* method state — Q-tables,
//! temperature schedule, episode/step position, RNG stream position,
//! warm-start anchors — as a JSON value; [`Optimizer::restore`] rebuilds it
//! so a resumed run continues with a bit-identical draw sequence. The
//! run's best placement is the driver's record, not the method's. Snapshots
//! are only taken between an `observe` and the next `propose` (the
//! quiescent points), which the driver guarantees.

use breaksym_anneal::{AcceptRule, Annealer, StepOutcome};
use breaksym_layout::LayoutEnv;

use crate::mlma::Sample;

/// What an [`Optimizer`] wants the driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proposal {
    /// A move was applied to the environment: evaluate its cost and pass
    /// the verdict to [`Optimizer::observe`].
    Evaluate {
        /// `true` for real candidates (counted against the best-so-far and
        /// trajectory); `false` for calibration probes (SA auto-temperature)
        /// that are undone after observation and only consume budget.
        candidate: bool,
    },
    /// The method's schedule is exhausted (episodes done, temperature
    /// floor reached, or the placement is fully locked).
    Finished,
}

/// A cheap, method-agnostic progress summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizerStatus {
    /// Total Q-table states across all agents (0 for non-learning methods).
    pub qtable_states: usize,
    /// Accepted moves (SA/random; 0 for the Q placers, which never reject).
    pub accepted: u64,
    /// Rejected moves (Metropolis rejections; 0 elsewhere).
    pub rejected: u64,
}

/// A step-driven search method over [`LayoutEnv`] placements.
///
/// Lifecycle: [`init`](Optimizer::init) once with the initial placement's
/// sample, then a `propose` → evaluate → `observe` cycle until either the
/// optimizer returns [`Proposal::Finished`] or the caller's budget ends.
/// The caller owns the cost oracle and all stopping decisions; the
/// optimizer owns its schedule and learning state.
pub trait Optimizer {
    /// Stable method label used in reports (e.g. `"mlma-q"`, `"sa"`).
    fn label(&self) -> &'static str;

    /// Starts a run from `env`'s current placement, whose oracle verdict
    /// is `initial`.
    fn init(&mut self, env: &LayoutEnv, initial: Sample);

    /// Applies the next proposed move to `env`, or reports the schedule
    /// finished. After `Evaluate` the caller must evaluate `env` and call
    /// [`observe`](Optimizer::observe) exactly once before proposing again.
    fn propose(&mut self, env: &mut LayoutEnv) -> Proposal;

    /// Feeds the oracle's verdict for the pending proposal. May mutate
    /// `env` (a Metropolis rejection undoes the move; a probe is undone
    /// unconditionally).
    fn observe(&mut self, sample: Sample, env: &mut LayoutEnv);

    /// Progress counters for reports and monitoring.
    fn status(&self) -> OptimizerStatus;

    /// Serialises the full method state (learning tables, schedule
    /// position, RNG) for checkpointing. Only meaningful at quiescent
    /// points — between an `observe` and the next `propose`.
    ///
    /// # Errors
    ///
    /// Propagates serialisation failures (practically impossible for the
    /// built-in methods).
    fn snapshot(&self) -> Result<serde_json::Value, serde_json::Error>;

    /// Restores state captured by [`snapshot`](Optimizer::snapshot); the
    /// next `propose` continues the interrupted run bit-identically.
    ///
    /// # Errors
    ///
    /// Fails on malformed or mismatched snapshots.
    fn restore(&mut self, snapshot: &serde_json::Value) -> Result<(), serde_json::Error>;
}

impl Optimizer for Annealer {
    fn label(&self) -> &'static str {
        match self.rule() {
            AcceptRule::Metropolis => "sa",
            AcceptRule::Always => "random",
        }
    }

    fn init(&mut self, _env: &LayoutEnv, initial: Sample) {
        self.begin(initial.cost);
    }

    fn propose(&mut self, env: &mut LayoutEnv) -> Proposal {
        match self.step(env) {
            StepOutcome::Evaluate { candidate } => Proposal::Evaluate { candidate },
            StepOutcome::Finished => Proposal::Finished,
        }
    }

    fn observe(&mut self, sample: Sample, env: &mut LayoutEnv) {
        self.feed(sample.cost, env);
    }

    fn status(&self) -> OptimizerStatus {
        let (accepted, rejected) = self.search().map_or((0, 0), |s| (s.accepted(), s.rejected()));
        OptimizerStatus { qtable_states: 0, accepted, rejected }
    }

    fn snapshot(&self) -> Result<serde_json::Value, serde_json::Error> {
        serde_json::to_value(self)
    }

    fn restore(&mut self, snapshot: &serde_json::Value) -> Result<(), serde_json::Error> {
        *self = serde_json::from_value(snapshot.clone())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{wirelength, Budget, Driver};
    use crate::RunTracker;
    use breaksym_anneal::SaConfig;
    use breaksym_geometry::GridSpec;
    use breaksym_netlist::circuits;

    fn ota() -> LayoutEnv {
        LayoutEnv::sequential(circuits::five_transistor_ota(), GridSpec::square(14)).unwrap()
    }

    fn diff_pair() -> LayoutEnv {
        LayoutEnv::sequential(circuits::diff_pair(), GridSpec::square(10)).unwrap()
    }

    /// Runs `opt` on `env` through the production loop under `cfg`'s
    /// evaluation budget, on the wirelength cost.
    fn run(opt: &mut dyn Optimizer, cfg: &SaConfig, env: &mut LayoutEnv) -> RunTracker {
        Driver::new(Budget::from_sa(cfg, None)).run_with_cost(env, opt, wirelength)
    }

    #[test]
    fn annealing_reduces_wirelength() {
        let mut env = ota();
        let cfg = SaConfig { max_evals: 1500, seed: 1, ..SaConfig::default() };
        let mut sa = Annealer::new(cfg);
        let t = run(&mut sa, &cfg, &mut env);
        assert!(t.best_cost <= t.trajectory[0].1);
        assert!(t.evals <= 1500);
        let status = sa.status();
        assert!(status.accepted + status.rejected > 0);
        // Env holds the best placement.
        assert_eq!(env.placement(), &t.best_placement);
        assert!((wirelength(&env).cost - t.best_cost).abs() < 1e-9);
        env.validate().unwrap();
    }

    #[test]
    fn trajectory_is_monotone_decreasing() {
        let cfg = SaConfig { max_evals: 500, seed: 3, ..SaConfig::default() };
        let t = run(&mut Annealer::new(cfg), &cfg, &mut diff_pair());
        for w in t.trajectory.windows(2) {
            assert!(w[1].1 <= w[0].1, "best-so-far must not increase");
            assert!(w[1].0 >= w[0].0, "evaluation indices must not decrease");
        }
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let sa = |seed| {
            let cfg = SaConfig { max_evals: 300, seed, ..SaConfig::default() };
            run(&mut Annealer::new(cfg), &cfg, &mut diff_pair())
        };
        let a = sa(7);
        let b = sa(7);
        let c = sa(8);
        assert_eq!(a, b);
        assert!(a != c || a.best_cost == c.best_cost, "different seeds explore differently");
    }

    #[test]
    fn respects_eval_budget() {
        let mut env = diff_pair();
        let cfg = SaConfig { max_evals: 50, seed: 0, ..SaConfig::default() };
        let mut calls = 0u64;
        let t = Driver::new(Budget::from_sa(&cfg, None)).run_with_cost(
            &mut env,
            &mut Annealer::new(cfg),
            |e| {
                calls += 1;
                wirelength(e)
            },
        );
        assert_eq!(calls, t.evals);
        assert!(calls <= 50);
    }

    #[test]
    fn random_search_finds_improvements_but_anneal_matches_or_beats_it() {
        let run_rs = |seed| {
            let cfg = SaConfig { max_evals: 800, seed, ..SaConfig::default() };
            run(&mut Annealer::random(cfg), &cfg, &mut ota())
        };
        let run_sa = |seed| {
            let cfg = SaConfig { max_evals: 800, seed, ..SaConfig::default() };
            run(&mut Annealer::new(cfg), &cfg, &mut ota())
        };
        let rs = run_rs(9);
        assert!(rs.best_cost < rs.trajectory[0].1, "random walks still stumble onto gains");
        // Averaged over a few seeds, SA should not lose to pure chance.
        let (mut sa_total, mut rs_total) = (0.0, 0.0);
        for seed in [1u64, 2, 3] {
            sa_total += run_sa(seed).best_cost;
            rs_total += run_rs(seed).best_cost;
        }
        assert!(
            sa_total <= rs_total * 1.05,
            "sa ({sa_total:.2}) must roughly match/beat random ({rs_total:.2})"
        );
    }

    #[test]
    fn swap_proposals_are_exercised_and_legal() {
        // With unit/group moves disabled, every accepted proposal is a swap.
        let mut env = ota();
        let cfg = SaConfig {
            group_move_prob: 0.0,
            swap_prob: 1.0,
            max_evals: 300,
            seed: 5,
            ..SaConfig::default()
        };
        let mut sa = Annealer::new(cfg);
        let t = run(&mut sa, &cfg, &mut env);
        env.validate().unwrap();
        let status = sa.status();
        assert!(status.accepted + status.rejected > 0);
        assert!(t.best_cost <= t.trajectory[0].1);
    }

    #[test]
    fn fixed_temperature_config_skips_probing() {
        let cfg =
            SaConfig { initial_temp: Some(10.0), max_evals: 100, seed: 2, ..SaConfig::default() };
        let t = run(&mut Annealer::new(cfg), &cfg, &mut diff_pair());
        // One initial eval + moves; no 12 probe evals needed before moving.
        assert!(t.evals > 1);
    }
}
