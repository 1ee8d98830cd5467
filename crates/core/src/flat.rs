//! Single-level, single-agent Q-learning — the scalability ablation.
//!
//! One monolithic agent over the **full** placement state
//! ([`LayoutEnv::state_key`]) with the complete `(unit, direction)` action
//! set. This is what the paper's multi-level decomposition replaces: the
//! table grows with every distinct full placement visited, so it explodes
//! combinatorially with circuit size while the hierarchical tables stay
//! small.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use breaksym_geometry::Direction;
use breaksym_layout::{LayoutEnv, Placement, PlacementMove, UnitMove};
use breaksym_netlist::UnitId;

use crate::mlma::{select_action, Sample};
use crate::optimizer::{Optimizer, OptimizerStatus, Proposal};
use crate::qtable::AgentTable;
use crate::{MlmaConfig, QTable};

/// The flat (single-level, single-agent) tabular Q-learning placer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatQPlacer {
    cfg: MlmaConfig,
    table: AgentTable,
    num_units: usize,
    /// In-progress step-driven run, when one is active.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    state: Option<FlatRunState>,
}

/// A pending Bellman update awaiting its cost verdict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct FlatPending {
    state: u64,
    action: usize,
    next_state: u64,
    flip: bool,
}

/// Where a step-driven flat-Q run is in its episode schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum FlatPhase {
    /// About to start (warm-start reset) episode `episode`.
    Episode { episode: usize },
    /// Move `mv` of `episode`.
    Step { episode: usize, mv: usize },
    /// Episodes exhausted or the placement fully locked.
    Done,
}

/// The transient state of one step-driven flat-Q run (see the multi-level
/// `QRunState` — this is its single-agent sibling).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FlatRunState {
    #[serde(with = "crate::rng_serde")]
    rng: ChaCha8Rng,
    phase: FlatPhase,
    initial_cost: f64,
    initial_placement: Placement,
    current: f64,
    scale: f64,
    best_cost: f64,
    best_placement: Placement,
    moves_per_episode: usize,
    pending: Option<FlatPending>,
}

impl FlatQPlacer {
    /// Builds the single agent for `env`'s circuit.
    pub fn new(env: &LayoutEnv, cfg: MlmaConfig) -> Self {
        let num_units = env.circuit().num_units();
        FlatQPlacer {
            cfg,
            table: AgentTable::new(num_units * 8, cfg.double_q),
            num_units,
            state: None,
        }
    }

    /// The agent's (primary) Q-table.
    pub fn table(&self) -> &QTable {
        self.table.primary()
    }

    /// States visited — compare with
    /// [`MultiLevelPlacer::total_states`](crate::MultiLevelPlacer::total_states).
    pub fn total_states(&self) -> usize {
        self.table.len()
    }
}

impl Optimizer for FlatQPlacer {
    fn label(&self) -> &'static str {
        "flat-q"
    }

    fn init(&mut self, env: &LayoutEnv, initial: Sample) {
        let moves_per_episode = self.cfg.steps_per_episode * (1 + env.circuit().groups().len());
        self.state = Some(FlatRunState {
            rng: ChaCha8Rng::seed_from_u64(self.cfg.seed),
            phase: FlatPhase::Episode { episode: 0 },
            initial_cost: initial.cost,
            initial_placement: env.placement().clone(),
            current: initial.cost,
            scale: self.cfg.reward_scale / initial.cost.abs().max(1e-12),
            best_cost: initial.cost,
            best_placement: env.placement().clone(),
            moves_per_episode,
            pending: None,
        });
    }

    /// Applies the next agent action; `Finished` when episodes are
    /// exhausted *or* the placement is fully locked (the flat agent cannot
    /// recover from a lock, unlike the hierarchy).
    fn propose(&mut self, env: &mut LayoutEnv) -> Proposal {
        let state = self.state.as_mut().expect("init() before propose()");
        assert!(state.pending.is_none(), "observe() the previous proposal first");
        loop {
            match state.phase {
                FlatPhase::Done => return Proposal::Finished,
                FlatPhase::Episode { episode } => {
                    if episode >= self.cfg.episodes {
                        state.phase = FlatPhase::Done;
                        continue;
                    }
                    let (start, current) =
                        if self.cfg.reset_to_best && episode % 3 != 0 && episode > 0 {
                            (state.best_placement.clone(), state.best_cost)
                        } else {
                            (state.initial_placement.clone(), state.initial_cost)
                        };
                    env.set_placement(start).expect("recorded placements are valid");
                    state.current = current;
                    state.phase = FlatPhase::Step { episode, mv: 0 };
                }
                FlatPhase::Step { episode, mv } => {
                    if mv >= state.moves_per_episode {
                        state.phase = FlatPhase::Episode { episode: episode + 1 };
                        continue;
                    }
                    let s = env.state_key();
                    let legal = legal_actions(self.num_units, env);
                    let Some(a) = select_action(
                        &self.table,
                        s,
                        &legal,
                        &self.cfg.exploration,
                        episode,
                        &mut state.rng,
                    ) else {
                        // Fully locked — the historic loop ended the run.
                        state.phase = FlatPhase::Done;
                        return Proposal::Finished;
                    };
                    let action = decode(a);
                    env.apply(action).expect("legal actions apply");
                    let next_state = env.state_key();
                    let flip = state.rng.gen_range(0.0..1.0) < 0.5;
                    state.pending = Some(FlatPending { state: s, action: a, next_state, flip });
                    state.phase = FlatPhase::Step { episode, mv: mv + 1 };
                    return Proposal::Evaluate { candidate: true };
                }
            }
        }
    }

    /// Performs the deferred Bellman update and tracks the best placement.
    fn observe(&mut self, sample: Sample, env: &mut LayoutEnv) {
        let state = self.state.as_mut().expect("init() before observe()");
        let p = state.pending.take().expect("observe() follows a proposal");
        let r = (state.current - sample.cost) * state.scale;
        self.table.update(
            p.state,
            p.action,
            r,
            p.next_state,
            self.cfg.q.alpha,
            self.cfg.q.gamma,
            p.flip,
        );
        state.current = sample.cost;
        if sample.cost < state.best_cost {
            state.best_cost = sample.cost;
            state.best_placement = env.placement().clone();
        }
    }

    fn status(&self) -> OptimizerStatus {
        OptimizerStatus { qtable_states: self.total_states(), ..OptimizerStatus::default() }
    }

    fn snapshot(&self) -> Result<serde_json::Value, serde_json::Error> {
        serde_json::to_value(self)
    }

    fn restore(&mut self, snapshot: &serde_json::Value) -> Result<(), serde_json::Error> {
        *self = serde_json::from_value(snapshot.clone())?;
        Ok(())
    }
}

fn legal_actions(num_units: usize, env: &LayoutEnv) -> Vec<usize> {
    let mut out = Vec::new();
    for u in 0..num_units as u32 {
        for dir in env.legal_unit_moves(UnitId::new(u)) {
            out.push(u as usize * 8 + dir.index());
        }
    }
    out
}

fn decode(action: usize) -> PlacementMove {
    let dir = Direction::from_index(action % 8).expect("index < 8 by construction");
    UnitMove { unit: UnitId::new((action / 8) as u32), dir }.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{wirelength, Budget, Driver};
    use breaksym_geometry::GridSpec;
    use breaksym_netlist::circuits;

    #[test]
    fn flat_placer_improves_and_learns() {
        let mut env = LayoutEnv::sequential(circuits::diff_pair(), GridSpec::square(10)).unwrap();
        let cfg = MlmaConfig {
            episodes: 5,
            steps_per_episode: 20,
            max_evals: 600,
            seed: 4,
            ..MlmaConfig::default()
        };
        let mut placer = FlatQPlacer::new(&env, cfg);
        let t =
            Driver::new(Budget::from_mlma(&cfg)).run_with_cost(&mut env, &mut placer, wirelength);
        assert!(t.best_cost <= t.trajectory[0].1);
        assert!(placer.total_states() > 0);
        env.validate().unwrap();
    }

    #[test]
    fn flat_state_space_grows_faster_than_hierarchical() {
        // The core scalability claim (§II.A): on the same budget the flat
        // agent visits far more distinct states than all hierarchical
        // agents combined, because its state is the whole placement.
        let cfg = MlmaConfig {
            episodes: 4,
            steps_per_episode: 25,
            max_evals: 500,
            seed: 9,
            ..MlmaConfig::default()
        };
        let driver = Driver::new(Budget::from_mlma(&cfg));
        let mut env_flat =
            LayoutEnv::sequential(circuits::current_mirror_medium(), GridSpec::square(16)).unwrap();
        let mut flat = FlatQPlacer::new(&env_flat, cfg);
        let tf = driver.run_with_cost(&mut env_flat, &mut flat, wirelength);

        let mut env_ml =
            LayoutEnv::sequential(circuits::current_mirror_medium(), GridSpec::square(16)).unwrap();
        let mut ml = crate::MultiLevelPlacer::new(&env_ml, cfg);
        let tm = driver.run_with_cost(&mut env_ml, &mut ml, wirelength);

        assert!(
            flat.total_states() > ml.total_states(),
            "flat {} must exceed hierarchical {}",
            flat.total_states(),
            ml.total_states()
        );
        // Both ran on comparable budgets.
        assert!(tf.evals <= 500 && tm.evals <= 500);
    }
}
