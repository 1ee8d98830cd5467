//! The multi-level, multi-agent Q-learning placer (Fig. 2c).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use breaksym_geometry::Direction;
use breaksym_layout::{GroupMove, LayoutEnv, Placement, PlacementMove, UnitMove};
use breaksym_netlist::GroupId;

use serde::{Deserialize, Serialize};

use crate::optimizer::{Optimizer, OptimizerStatus, Proposal};
use crate::qtable::AgentTable;
use crate::{Exploration, MlmaConfig, QTable};

/// Action selection under the configured exploration policy.
pub(crate) fn select_action(
    table: &AgentTable,
    state: u64,
    legal: &[usize],
    exploration: &Exploration,
    episode: usize,
    rng: &mut ChaCha8Rng,
) -> Option<usize> {
    if legal.is_empty() {
        return None;
    }
    match exploration {
        Exploration::EpsilonGreedy(sched) => {
            if rng.gen_range(0.0..1.0) < sched.at(episode) {
                Some(legal[rng.gen_range(0..legal.len())])
            } else {
                table.greedy(state, legal)
            }
        }
        Exploration::Softmax(sched) => {
            let temp = sched.at(episode);
            let qs: Vec<f64> = legal.iter().map(|&a| table.q(state, a)).collect();
            let max = qs.iter().fold(f64::NEG_INFINITY, |m, &q| m.max(q));
            let weights: Vec<f64> = qs.iter().map(|q| ((q - max) / temp).exp()).collect();
            let total: f64 = weights.iter().sum();
            let mut r = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            for (i, w) in weights.iter().enumerate() {
                if r < *w {
                    return Some(legal[i]);
                }
                r -= w;
            }
            legal.last().copied()
        }
    }
}

/// One simulator verdict: the scalar objective the agents minimise plus
/// the raw primary (mismatch/offset) metric the paper sets targets on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Objective cost (normalised primary + regularisers).
    pub cost: f64,
    /// Raw primary metric (mismatch % or offset V).
    pub primary: f64,
}

/// Shared run bookkeeping: budget, best-so-far, trajectory, target.
///
/// The [`Driver`](crate::runner::Driver) keeps one per run and checkpoints
/// it; callers that drive an [`Optimizer`] step by step themselves — e.g.
/// benchmarks timing each step — use it to keep the same accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTracker {
    /// Oracle queries spent so far (including the initial evaluation).
    pub evals: u64,
    /// The query budget the run stops at.
    pub max_evals: u64,
    /// The primary-metric target, when one was set.
    pub target_primary: Option<f64>,
    /// Whether reaching the target ends the run early.
    pub stop_at_target: bool,
    /// Best objective cost reached.
    pub best_cost: f64,
    /// Primary metric of the best-cost placement.
    pub best_primary: f64,
    /// The best-cost placement itself.
    pub best_placement: Placement,
    /// `(evaluation index, best-so-far cost)` improvement points.
    pub trajectory: Vec<(u64, f64)>,
    /// Whether any candidate met the target.
    pub reached_target: bool,
    /// The first evaluation at which the target was met, if ever.
    pub sims_to_target: Option<u64>,
}

impl RunTracker {
    /// Bookkeeping seeded with the initial placement's sample, under an
    /// explicit budget (from an [`MlmaConfig`] or a `SaConfig` alike).
    pub fn with_budget(
        initial: Sample,
        placement: Placement,
        max_evals: u64,
        target_primary: Option<f64>,
        stop_at_target: bool,
    ) -> Self {
        let reached = target_primary.is_some_and(|t| initial.primary <= t);
        RunTracker {
            evals: 1, // the initial evaluation
            max_evals,
            target_primary,
            stop_at_target,
            best_cost: initial.cost,
            best_primary: initial.primary,
            best_placement: placement,
            trajectory: vec![(1, initial.cost)],
            reached_target: reached,
            sims_to_target: reached.then_some(1),
        }
    }

    /// Records one evaluation; returns `true` when the run must stop.
    pub fn record(&mut self, sample: Sample, env: &LayoutEnv) -> bool {
        self.evals += 1;
        if sample.cost < self.best_cost {
            self.best_cost = sample.cost;
            self.best_primary = sample.primary;
            self.best_placement = env.placement().clone();
            self.trajectory.push((self.evals, sample.cost));
        }
        // Candidate-level check: a placement that meets the target counts
        // even if a regulariser keeps it from being the best-cost one.
        if !self.reached_target && self.target_primary.is_some_and(|t| sample.primary <= t) {
            self.reached_target = true;
            self.sims_to_target = Some(self.evals);
        }
        self.done()
    }

    /// Records a *probe* evaluation (SA auto-temperature calibration):
    /// budget and target bookkeeping only — probes are always undone, so
    /// they never become the best placement or a trajectory point. Returns
    /// `true` when the run must stop.
    pub fn record_probe(&mut self, sample: Sample) -> bool {
        self.evals += 1;
        if !self.reached_target && self.target_primary.is_some_and(|t| sample.primary <= t) {
            self.reached_target = true;
            self.sims_to_target = Some(self.evals);
        }
        self.done()
    }

    /// Whether the run's stopping condition is met.
    pub fn done(&self) -> bool {
        (self.reached_target && self.stop_at_target) || self.evals >= self.max_evals
    }
}

/// The multi-level, multi-agent placer.
///
/// One Q-table learns **group** translations at the top level; one Q-table
/// per group learns **unit** rearrangements at the bottom. The agents act
/// in an interleaved round-robin (top agent, then every bottom agent),
/// which keeps moves conflict-free: only one agent touches the placement
/// at a time, and a bottom agent only moves its own group's units.
///
/// All agents share the global, simulator-derived reward — the framework
/// is cooperative: every agent optimises the same circuit objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiLevelPlacer {
    cfg: MlmaConfig,
    top: AgentTable,
    bottom: Vec<AgentTable>,
    /// In-progress step-driven run, when one is active. Skipped when
    /// absent so learned-table checkpoints keep their historic format.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    state: Option<QRunState>,
}

/// Which agent's Bellman update is pending the next cost verdict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PendingUpdate {
    /// `None` = the top-level (group) agent; `Some(i)` = bottom agent `i`.
    agent: Option<usize>,
    state: u64,
    action: usize,
    next_state: u64,
    flip: bool,
}

/// Where a step-driven Q run is in its episode schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum QPhase {
    /// About to start (warm-start reset) episode `episode`.
    Episode { episode: usize },
    /// The top agent's turn at `step` of `episode`.
    Top { episode: usize, step: usize },
    /// Bottom agent `group`'s turn at `step` of `episode`.
    Bottom {
        episode: usize,
        step: usize,
        group: usize,
    },
    /// All episodes exhausted.
    Done,
}

/// The full transient state of one step-driven Q-learning run: schedule
/// position, RNG stream, reward normalisation, warm-start anchors, and the
/// pending Bellman update. Serialisable so mid-run checkpoints resume with
/// a bit-identical draw sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QRunState {
    #[serde(with = "crate::rng_serde")]
    rng: ChaCha8Rng,
    phase: QPhase,
    initial_cost: f64,
    initial_placement: Placement,
    current: f64,
    scale: f64,
    best_cost: f64,
    best_placement: Placement,
    pending: Option<PendingUpdate>,
}

impl QRunState {
    fn start(env: &LayoutEnv, initial: Sample, cfg: &MlmaConfig) -> Self {
        QRunState {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            phase: QPhase::Episode { episode: 0 },
            initial_cost: initial.cost,
            initial_placement: env.placement().clone(),
            current: initial.cost,
            scale: cfg.reward_scale / initial.cost.abs().max(1e-12),
            best_cost: initial.cost,
            best_placement: env.placement().clone(),
            pending: None,
        }
    }

    fn note_best(&mut self, sample: Sample, env: &LayoutEnv) {
        if sample.cost < self.best_cost {
            self.best_cost = sample.cost;
            self.best_placement = env.placement().clone();
        }
    }
}

impl MultiLevelPlacer {
    /// Builds the agent hierarchy for `env`'s circuit.
    pub fn new(env: &LayoutEnv, cfg: MlmaConfig) -> Self {
        let groups = env.circuit().groups().len();
        let bottom = env
            .circuit()
            .group_ids()
            .map(|g| AgentTable::new(env.units_of_group(g).len() * 8, cfg.double_q))
            .collect();
        MultiLevelPlacer {
            cfg,
            top: AgentTable::new(groups * 8, cfg.double_q),
            bottom,
            state: None,
        }
    }

    /// The top-level agent's (primary) Q-table.
    pub fn top_table(&self) -> &QTable {
        self.top.primary()
    }

    /// The bottom-level agents, one per group.
    pub fn bottom_agents(&self) -> &[AgentTable] {
        &self.bottom
    }

    /// Total states across all tables (both halves of double agents) — the
    /// scalability measure of the multi-level ablation.
    pub fn total_states(&self) -> usize {
        self.top.len() + self.bottom.iter().map(AgentTable::len).sum::<usize>()
    }

    /// The run configuration.
    pub fn config(&self) -> &MlmaConfig {
        &self.cfg
    }

    /// Replaces the configuration (e.g. to lower exploration before a
    /// resumed run) while keeping everything learned.
    pub fn set_config(&mut self, cfg: MlmaConfig) {
        self.cfg = cfg;
    }

    /// Plays the learned policy **greedily** — no exploration, no learning,
    /// no simulations — for up to `rounds` interleaved rounds, applying
    /// moves to `env` and returning them. This extracts what the agents
    /// actually learned as a deterministic placement-refinement macro.
    ///
    /// Agents only act in states they have positive learned value for;
    /// rounds stop early when nobody acts, which also bounds policy cycles.
    pub fn greedy_rollout(&self, env: &mut LayoutEnv, rounds: usize) -> Vec<PlacementMove> {
        let group_ids: Vec<GroupId> = env.circuit().group_ids().collect();
        let mut moves = Vec::new();
        for _ in 0..rounds {
            let mut acted = false;
            let s_top = env.group_state_key();
            let legal = top_legal_actions(env, &group_ids);
            if let Some(a) = self.top.greedy(s_top, &legal) {
                if self.top.q(s_top, a) > 0.0 {
                    let mv = decode_top(a, &group_ids);
                    env.apply(mv).expect("legal actions apply");
                    moves.push(mv);
                    acted = true;
                }
            }
            for &g in &group_ids {
                let s = env.local_state_key(g);
                let units = env.units_of_group(g).to_vec();
                let legal = bottom_legal_actions(env, &units);
                if let Some(a) = self.bottom[g.index()].greedy(s, &legal) {
                    if self.bottom[g.index()].q(s, a) > 0.0 {
                        let mv = decode_bottom(a, &units);
                        env.apply(mv).expect("legal actions apply");
                        moves.push(mv);
                        acted = true;
                    }
                }
            }
            if !acted {
                break;
            }
        }
        moves
    }

    /// Serialises the whole learned state (configuration + every Q-table)
    /// to JSON — the checkpoint format.
    ///
    /// # Errors
    ///
    /// Propagates serialisation failures (practically impossible for this
    /// type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a placer from a [`MultiLevelPlacer::to_json`] checkpoint.
    /// Running it resumes learning with the saved tables — transfer across
    /// sessions or across related placements of the same circuit.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl Optimizer for MultiLevelPlacer {
    fn label(&self) -> &'static str {
        "mlma-q"
    }

    fn init(&mut self, env: &LayoutEnv, initial: Sample) {
        self.state = Some(QRunState::start(env, initial, &self.cfg));
    }

    /// Applies the next agent action following the interleaved round-robin
    /// schedule (top agent, then every bottom agent, per step). Warm-start
    /// resets (two episodes out of three restart from the best placement)
    /// happen here at episode boundaries.
    fn propose(&mut self, env: &mut LayoutEnv) -> Proposal {
        let group_ids: Vec<GroupId> = env.circuit().group_ids().collect();
        let state = self.state.as_mut().expect("init() before propose()");
        assert!(state.pending.is_none(), "observe() the previous proposal first");
        loop {
            match state.phase {
                QPhase::Done => return Proposal::Finished,
                QPhase::Episode { episode } => {
                    if episode >= self.cfg.episodes {
                        state.phase = QPhase::Done;
                        continue;
                    }
                    // Warm-start policy: exploit from the best placement
                    // two episodes out of three, explore from the initial
                    // otherwise.
                    let (start, current) =
                        if self.cfg.reset_to_best && episode % 3 != 0 && episode > 0 {
                            (state.best_placement.clone(), state.best_cost)
                        } else {
                            (state.initial_placement.clone(), state.initial_cost)
                        };
                    env.set_placement(start).expect("recorded placements are valid");
                    state.current = current;
                    state.phase = QPhase::Top { episode, step: 0 };
                }
                QPhase::Top { episode, step } => {
                    if step >= self.cfg.steps_per_episode {
                        state.phase = QPhase::Episode { episode: episode + 1 };
                        continue;
                    }
                    // --- top level: one group translation ---
                    let s_top = env.group_state_key();
                    let legal = top_legal_actions(env, &group_ids);
                    state.phase = QPhase::Bottom { episode, step, group: 0 };
                    if let Some(a) = select_action(
                        &self.top,
                        s_top,
                        &legal,
                        &self.cfg.exploration,
                        episode,
                        &mut state.rng,
                    ) {
                        let mv = decode_top(a, &group_ids);
                        env.apply(mv).expect("legal actions apply");
                        let next_state = env.group_state_key();
                        let flip = state.rng.gen_range(0.0..1.0) < 0.5;
                        state.pending = Some(PendingUpdate {
                            agent: None,
                            state: s_top,
                            action: a,
                            next_state,
                            flip,
                        });
                        return Proposal::Evaluate { candidate: true };
                    }
                }
                QPhase::Bottom { episode, step, group } => {
                    if group >= group_ids.len() {
                        state.phase = QPhase::Top { episode, step: step + 1 };
                        continue;
                    }
                    // --- bottom level: every group agent, interleaved ---
                    let g = group_ids[group];
                    let s = env.local_state_key(g);
                    let units = env.units_of_group(g).to_vec();
                    let legal = bottom_legal_actions(env, &units);
                    state.phase = QPhase::Bottom { episode, step, group: group + 1 };
                    if let Some(a) = select_action(
                        &self.bottom[g.index()],
                        s,
                        &legal,
                        &self.cfg.exploration,
                        episode,
                        &mut state.rng,
                    ) {
                        let mv = decode_bottom(a, &units);
                        env.apply(mv).expect("legal actions apply");
                        let next_state = env.local_state_key(g);
                        let flip = state.rng.gen_range(0.0..1.0) < 0.5;
                        state.pending = Some(PendingUpdate {
                            agent: Some(g.index()),
                            state: s,
                            action: a,
                            next_state,
                            flip,
                        });
                        return Proposal::Evaluate { candidate: true };
                    }
                }
            }
        }
    }

    /// Performs the deferred Bellman update (reward = scaled cost
    /// improvement, shared by all agents) and tracks the best placement.
    fn observe(&mut self, sample: Sample, env: &mut LayoutEnv) {
        let state = self.state.as_mut().expect("init() before observe()");
        let p = state.pending.take().expect("observe() follows a proposal");
        let r = (state.current - sample.cost) * state.scale;
        let (alpha, gamma) = (self.cfg.q.alpha, self.cfg.q.gamma);
        match p.agent {
            None => self.top.update(p.state, p.action, r, p.next_state, alpha, gamma, p.flip),
            Some(i) => {
                self.bottom[i].update(p.state, p.action, r, p.next_state, alpha, gamma, p.flip);
            }
        }
        state.current = sample.cost;
        state.note_best(sample, env);
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

/// Encodes `(group, direction)` as `group_index * 8 + dir_index`.
fn top_legal_actions(env: &LayoutEnv, groups: &[GroupId]) -> Vec<usize> {
    let mut out = Vec::new();
    for (gi, &g) in groups.iter().enumerate() {
        for dir in env.legal_group_moves(g) {
            out.push(gi * 8 + dir.index());
        }
    }
    out
}

fn decode_top(action: usize, groups: &[GroupId]) -> PlacementMove {
    let dir = Direction::from_index(action % 8).expect("index < 8 by construction");
    GroupMove { group: groups[action / 8], dir }.into()
}

/// Encodes `(unit-in-group, direction)` as `unit_pos * 8 + dir_index`.
fn bottom_legal_actions(env: &LayoutEnv, units: &[breaksym_netlist::UnitId]) -> Vec<usize> {
    let mut out = Vec::new();
    for (ui, &u) in units.iter().enumerate() {
        for dir in env.legal_unit_moves(u) {
            out.push(ui * 8 + dir.index());
        }
    }
    out
}

fn decode_bottom(action: usize, units: &[breaksym_netlist::UnitId]) -> PlacementMove {
    let dir = Direction::from_index(action % 8).expect("index < 8 by construction");
    UnitMove { unit: units[action / 8], dir }.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{wirelength as wl, Budget, Driver};
    use breaksym_geometry::GridSpec;
    use breaksym_netlist::circuits;

    /// Runs `placer` on `env` through the production loop under its own
    /// configuration's budget, on the wirelength cost.
    fn run(placer: &mut MultiLevelPlacer, env: &mut LayoutEnv) -> RunTracker {
        Driver::new(Budget::from_mlma(placer.config())).run_with_cost(env, placer, wl)
    }

    fn small_cfg(seed: u64) -> MlmaConfig {
        MlmaConfig {
            episodes: 6,
            steps_per_episode: 20,
            max_evals: 1200,
            seed,
            ..MlmaConfig::default()
        }
    }

    #[test]
    fn improves_wirelength_and_tracks_best() {
        let mut env =
            LayoutEnv::sequential(circuits::five_transistor_ota(), GridSpec::square(14)).unwrap();
        let mut placer = MultiLevelPlacer::new(&env, small_cfg(1));
        let t = run(&mut placer, &mut env);
        assert!(t.best_cost <= t.trajectory[0].1);
        assert!(t.evals <= 1200);
        // Env holds the best placement at the end.
        assert!((wl(&env).cost - t.best_cost).abs() < 1e-9);
        env.validate().unwrap();
        // Learning happened.
        assert!(placer.total_states() > 0);
        assert!(
            !placer.top_table().is_empty() || placer.bottom_agents().iter().any(|t| !t.is_empty())
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut env =
                LayoutEnv::sequential(circuits::diff_pair(), GridSpec::square(10)).unwrap();
            let mut placer = MultiLevelPlacer::new(&env, small_cfg(seed));
            let t = run(&mut placer, &mut env);
            (t.best_cost, t.evals, t.trajectory)
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn target_stops_early() {
        let mut env = LayoutEnv::sequential(circuits::diff_pair(), GridSpec::square(10)).unwrap();
        let initial = wl(&env);
        let cfg = MlmaConfig {
            target_primary: Some(initial.primary * 2.0), // trivially satisfied
            ..small_cfg(0)
        };
        let mut placer = MultiLevelPlacer::new(&env, cfg);
        let t = run(&mut placer, &mut env);
        assert!(t.reached_target);
        assert_eq!(t.evals, 1, "already at target: only the initial eval");
    }

    #[test]
    fn action_codecs_round_trip() {
        let env = LayoutEnv::sequential(circuits::fig2_example(), GridSpec::square(8)).unwrap();
        let groups: Vec<GroupId> = env.circuit().group_ids().collect();
        for a in top_legal_actions(&env, &groups) {
            match decode_top(a, &groups) {
                PlacementMove::Group(gm) => {
                    assert_eq!(gm.group, groups[a / 8]);
                    assert_eq!(gm.dir.index(), a % 8);
                    env.check(gm.into()).expect("legal action must check out");
                }
                other => panic!("expected group move, got {other}"),
            }
        }
        let units = env.units_of_group(groups[0]).to_vec();
        for a in bottom_legal_actions(&env, &units) {
            match decode_bottom(a, &units) {
                PlacementMove::Unit(um) => {
                    assert_eq!(um.unit, units[a / 8]);
                    env.check(um.into()).expect("legal action must check out");
                }
                other => panic!("expected unit move, got {other}"),
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_and_resumes() {
        let mut env =
            LayoutEnv::sequential(circuits::five_transistor_ota(), GridSpec::square(14)).unwrap();
        let mut placer = MultiLevelPlacer::new(&env, small_cfg(2));
        let first = run(&mut placer, &mut env);
        assert!(placer.total_states() > 0);

        // Round trip through JSON preserves everything learned.
        let json = placer.to_json().expect("serialises");
        let mut restored = MultiLevelPlacer::from_json(&json).expect("deserialises");
        assert_eq!(&restored, &placer);

        // Resuming from the checkpoint keeps learning (tables only grow).
        let states_before = restored.total_states();
        let mut env2 =
            LayoutEnv::sequential(circuits::five_transistor_ota(), GridSpec::square(14)).unwrap();
        let second = run(&mut restored, &mut env2);
        assert!(restored.total_states() >= states_before);
        // The resumed run is at least not worse than the fresh one started
        // from the same initial placement.
        assert!(second.best_cost <= first.trajectory[0].1);
    }

    #[test]
    fn double_q_placer_runs_and_counts_both_tables() {
        let env = LayoutEnv::sequential(circuits::diff_pair(), GridSpec::square(10)).unwrap();
        let cfg = MlmaConfig { double_q: true, ..small_cfg(5) };
        let mut placer = MultiLevelPlacer::new(&env, cfg);
        let mut env2 = env.clone();
        let t = run(&mut placer, &mut env2);
        assert!(t.best_cost <= t.trajectory[0].1);
        assert!(placer.total_states() > 0);
    }

    #[test]
    fn softmax_exploration_runs() {
        use crate::{Exploration, SoftmaxSchedule};
        let env = LayoutEnv::sequential(circuits::diff_pair(), GridSpec::square(10)).unwrap();
        let cfg = MlmaConfig {
            exploration: Exploration::Softmax(SoftmaxSchedule::default()),
            ..small_cfg(6)
        };
        let mut placer = MultiLevelPlacer::new(&env, cfg);
        let mut env2 = env.clone();
        let t = run(&mut placer, &mut env2);
        assert!(t.best_cost <= t.trajectory[0].1);
        env2.validate().unwrap();
    }

    #[test]
    fn greedy_rollout_is_deterministic_and_legal() {
        let mut env =
            LayoutEnv::sequential(circuits::five_transistor_ota(), GridSpec::square(14)).unwrap();
        let mut placer = MultiLevelPlacer::new(&env, small_cfg(3));
        run(&mut placer, &mut env);

        // Roll out from the initial placement twice: identical move lists.
        let mut env1 =
            LayoutEnv::sequential(circuits::five_transistor_ota(), GridSpec::square(14)).unwrap();
        let mut env2 = env1.clone();
        let m1 = placer.greedy_rollout(&mut env1, 10);
        let m2 = placer.greedy_rollout(&mut env2, 10);
        assert_eq!(m1, m2);
        env1.validate().unwrap();
        assert_eq!(env1.state_key(), env2.state_key());
        // Bounded by rounds × (1 + #groups) actions.
        assert!(m1.len() <= 10 * (1 + env1.circuit().groups().len()));
    }

    #[test]
    fn untrained_placer_rolls_out_nothing() {
        let mut env = LayoutEnv::sequential(circuits::diff_pair(), GridSpec::square(10)).unwrap();
        let placer = MultiLevelPlacer::new(&env, small_cfg(0));
        let moves = placer.greedy_rollout(&mut env, 5);
        assert!(moves.is_empty(), "zero-valued tables must not act");
    }

    #[test]
    fn bottom_tables_match_group_sizes() {
        let env =
            LayoutEnv::sequential(circuits::current_mirror_medium(), GridSpec::square(16)).unwrap();
        let placer = MultiLevelPlacer::new(&env, MlmaConfig::default());
        assert_eq!(placer.bottom_agents().len(), env.circuit().groups().len());
        for (g, t) in env.circuit().group_ids().zip(placer.bottom_agents()) {
            assert_eq!(t.num_actions(), env.units_of_group(g).len() * 8);
        }
        assert_eq!(placer.top_table().num_actions(), env.circuit().groups().len() * 8);
    }
}
