//! Simulated annealing for placement — the non-ML baseline of the paper.
//!
//! The paper compares its multi-level multi-agent Q-learning against a
//! simulated-annealing placer sharing the same environment, move set, and
//! simulator-driven cost ("SA … has been extensively used in physical
//! design", the paper's ref 2). This crate provides that baseline:
//!
//! - the same legal moves as the RL agents (unit pushes + group
//!   translations from [`LayoutEnv`]),
//! - Metropolis acceptance with a geometric cooling schedule and an
//!   optional automatic initial temperature,
//! - the same machine with an always-accept rule as the random-search
//!   floor ([`Annealer::random`]).
//!
//! [`Annealer`] wraps one step machine, [`SearchRun`], which inverts
//! control: instead of calling a cost closure itself, it *proposes* one
//! move at a time ([`SearchRun::step`]) and is *fed* the verdict
//! ([`SearchRun::feed`]). That shape lets an external harness own the
//! budget, the oracle, the best-so-far record and checkpointing —
//! `breaksym-core`'s `Optimizer` trait drives both rules through exactly
//! this interface, and its `Driver` keeps the run's best placement and
//! trajectory.
//!
//! # Examples
//!
//! ```
//! use breaksym_anneal::{Annealer, SaConfig, StepOutcome};
//! use breaksym_geometry::GridSpec;
//! use breaksym_layout::LayoutEnv;
//! use breaksym_netlist::circuits;
//! use breaksym_route::RoutingEstimate;
//!
//! let mut env = LayoutEnv::sequential(circuits::diff_pair(), GridSpec::square(10))?;
//! // Cheap wirelength cost for the example; real runs pass the simulator.
//! let cost = |e: &LayoutEnv| RoutingEstimate::of(e).weighted_um;
//! let initial = cost(&env);
//! let mut sa = Annealer::new(SaConfig::default());
//! sa.begin(initial);
//! // The caller owns the budget (200 evaluations, the initial one
//! // included) and the best-so-far record.
//! let mut best = initial;
//! for _ in 1..200 {
//!     match sa.step(&mut env) {
//!         StepOutcome::Finished => break,
//!         StepOutcome::Evaluate { candidate } => {
//!             let c = cost(&env);
//!             if candidate {
//!                 best = best.min(c);
//!             }
//!             sa.feed(c, &mut env);
//!         }
//!     }
//! }
//! let run = sa.search().expect("the run was begun");
//! assert!(run.accepted() > 0);
//! assert!(best <= initial);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use breaksym_geometry::Direction;
use breaksym_layout::{AppliedMove, GroupMove, LayoutEnv, PlacementMove, SwapMove, UnitMove};
use breaksym_netlist::{GroupId, UnitId};

// The RNG serde adapters physically live in `breaksym-core` (the
// checkpoint layer's home) and are compiled into this crate by path, so
// historic `breaksym_anneal::rng_serde` users keep working without a
// circular dependency — core depends on this crate, so a plain re-export
// is impossible in that direction.
#[path = "../../core/src/rng_serde.rs"]
pub mod rng_serde;

/// Probe moves spent calibrating the initial temperature when
/// [`SaConfig::initial_temp`] is `None`.
const PROBE_MOVES: u32 = 12;

/// Configuration of one annealing run.
///
/// Deserialisation fills omitted fields from [`SaConfig::default`], so
/// wire-format configs (e.g. a serve-job submission) only need to name the
/// knobs they change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct SaConfig {
    /// Initial temperature; `None` calibrates it automatically from the
    /// cost spread of random probe moves.
    pub initial_temp: Option<f64>,
    /// Geometric cooling factor per temperature step (e.g. 0.95).
    pub cooling: f64,
    /// Proposed moves per temperature step.
    pub steps_per_temp: usize,
    /// Stop when the temperature falls below this value.
    pub min_temp: f64,
    /// Hard budget on cost evaluations (simulations).
    pub max_evals: u64,
    /// Probability of proposing a group translation instead of a unit push.
    pub group_move_prob: f64,
    /// Probability of proposing a two-unit swap. Swaps let SA tunnel
    /// through packed placements, but they are **not** part of the paper's
    /// shared action space, so the default is 0 (move-set parity with the
    /// Q-learning agents); enable explicitly for a stronger SA.
    pub swap_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SaConfig {
    /// This configuration with a different seed — handy when fanning one
    /// method out across a seed sweep (the portfolio runner does this).
    #[must_use]
    pub fn with_seed(self, seed: u64) -> Self {
        SaConfig { seed, ..self }
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            initial_temp: None,
            cooling: 0.92,
            steps_per_temp: 40,
            min_temp: 1e-4,
            max_evals: 5_000,
            group_move_prob: 0.25,
            swap_prob: 0.0,
            seed: 0,
        }
    }
}

/// How a [`SearchRun`] resolves each evaluated candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AcceptRule {
    /// Metropolis acceptance at the current temperature, with geometric
    /// cooling and optional auto-temperature probing — simulated annealing.
    #[default]
    Metropolis,
    /// Accept every proposal — pure random search.
    Always,
}

/// What the caller must do after [`SearchRun::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A move was applied to the environment: evaluate its cost and pass
    /// the verdict to [`SearchRun::feed`].
    Evaluate {
        /// `false` for auto-temperature probe moves, which are always
        /// undone and never become the best placement; `true` for real
        /// candidates.
        candidate: bool,
    },
    /// The schedule is exhausted or the placement is fully locked; no move
    /// was applied and `feed` must not be called.
    Finished,
}

/// Where the run is in its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Phase {
    /// Auto-temperature calibration; `left` probe iterations remain.
    Probe {
        left: u32,
    },
    /// The main loop at temperature `temp`, `step` proposals into the
    /// current cooling batch. (Random search never reads the temperature.)
    Main {
        temp: f64,
        step: usize,
    },
    Finished,
}

/// What kind of evaluation the fed cost resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    Probe,
    Move,
}

/// An applied-but-unjudged move awaiting its cost verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    undo: AppliedMove,
    kind: PendingKind,
}

/// The proposal/acceptance step machine behind [`Annealer`], under either
/// [`AcceptRule`].
///
/// Control is inverted: the caller owns the loop, the cost oracle and the
/// best-so-far record.
///
/// ```text
/// let mut run = SearchRun::start(cfg, AcceptRule::Metropolis, c0);
/// while budget_left {
///     match run.step(&mut env) {
///         StepOutcome::Finished => break,
///         StepOutcome::Evaluate { .. } => run.feed(cost(&env), &mut env),
///     }
/// }
/// ```
///
/// The cost oracle never consumes the search RNG, so per-seed trajectories
/// are bit-for-bit reproducible. The whole state — RNG position,
/// temperature schedule, current cost — is serde-serialisable for
/// checkpointing; snapshots are only valid at *quiescent* points (after
/// `feed`, see [`SearchRun::is_quiescent`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchRun {
    config: SaConfig,
    rule: AcceptRule,
    #[serde(with = "rng_serde")]
    rng: ChaCha8Rng,
    phase: Phase,
    current: f64,
    accepted: u64,
    rejected: u64,
    probe_deltas: Vec<f64>,
    #[serde(skip)]
    pending: Option<Pending>,
}

impl SearchRun {
    /// Starts a run from the environment's current placement, whose cost
    /// is `initial_cost`.
    pub fn start(config: SaConfig, rule: AcceptRule, initial_cost: f64) -> Self {
        let phase = match (rule, config.initial_temp) {
            // Random search has no temperature; annealing with an explicit
            // temperature skips the probe phase.
            (AcceptRule::Always, _) => Phase::Main { temp: 0.0, step: 0 },
            (AcceptRule::Metropolis, Some(t)) => Phase::Main { temp: t, step: 0 },
            (AcceptRule::Metropolis, None) => Phase::Probe { left: PROBE_MOVES },
        };
        SearchRun {
            config,
            rule,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            phase,
            current: initial_cost,
            accepted: 0,
            rejected: 0,
            probe_deltas: Vec::new(),
            pending: None,
        }
    }

    /// Applies the next proposed move to `env` (or finishes). On
    /// `Evaluate`, the caller must compute the cost of `env`'s new
    /// placement and [`feed`](SearchRun::feed) it before stepping again.
    pub fn step(&mut self, env: &mut LayoutEnv) -> StepOutcome {
        assert!(self.is_quiescent(), "feed() the previous evaluation before stepping again");
        if self.rule == AcceptRule::Always {
            return self.step_always(env);
        }
        loop {
            match self.phase {
                Phase::Finished => return StepOutcome::Finished,
                Phase::Probe { left } => {
                    if left == 0 {
                        self.phase = Phase::Main { temp: self.calibrated_temp(), step: 0 };
                        continue;
                    }
                    self.phase = Phase::Probe { left: left - 1 };
                    // A probe iteration with nothing to propose is simply
                    // consumed.
                    if let Some(mv) = propose_move(&self.config, env, &mut self.rng) {
                        let undo = env.apply(mv).expect("proposed moves are legal");
                        self.pending = Some(Pending { undo, kind: PendingKind::Probe });
                        return StepOutcome::Evaluate { candidate: false };
                    }
                }
                Phase::Main { temp, step } => {
                    if step >= self.config.steps_per_temp {
                        self.phase = Phase::Main { temp: temp * self.config.cooling, step: 0 };
                        continue;
                    }
                    if step == 0 && temp <= self.config.min_temp {
                        self.phase = Phase::Finished;
                        return StepOutcome::Finished;
                    }
                    let Some(mv) = propose_move(&self.config, env, &mut self.rng) else {
                        // Fully locked placement.
                        self.phase = Phase::Finished;
                        return StepOutcome::Finished;
                    };
                    let undo = env.apply(mv).expect("proposed moves are legal");
                    self.pending = Some(Pending { undo, kind: PendingKind::Move });
                    self.phase = Phase::Main { temp, step: step + 1 };
                    return StepOutcome::Evaluate { candidate: true };
                }
            }
        }
    }

    fn step_always(&mut self, env: &mut LayoutEnv) -> StepOutcome {
        let Some(mv) = propose_move(&self.config, env, &mut self.rng) else {
            self.phase = Phase::Finished;
            return StepOutcome::Finished;
        };
        let undo = env.apply(mv).expect("proposed moves are legal");
        self.pending = Some(Pending { undo, kind: PendingKind::Move });
        StepOutcome::Evaluate { candidate: true }
    }

    /// Resolves the pending evaluation: records a probe delta (and undoes
    /// the probe), or accepts/rejects the candidate under the run's rule.
    ///
    /// # Panics
    ///
    /// Panics when no evaluation is pending.
    pub fn feed(&mut self, cost: f64, env: &mut LayoutEnv) {
        let pending = self.pending.take().expect("feed() follows a Evaluate step");
        match pending.kind {
            PendingKind::Probe => {
                self.probe_deltas.push((cost - self.current).abs());
                env.undo(pending.undo);
            }
            PendingKind::Move => match self.rule {
                AcceptRule::Always => {
                    self.accepted += 1;
                    self.current = cost;
                }
                AcceptRule::Metropolis => {
                    let temp = match self.phase {
                        Phase::Main { temp, .. } => temp,
                        _ => unreachable!("moves are only pending in the main phase"),
                    };
                    let delta = cost - self.current;
                    let accept = delta <= 0.0 || {
                        let p = (-delta / temp).exp();
                        self.rng.gen_range(0.0..1.0) < p
                    };
                    if accept {
                        self.current = cost;
                        self.accepted += 1;
                    } else {
                        env.undo(pending.undo);
                        self.rejected += 1;
                    }
                }
            },
        }
    }

    /// Mean |Δcost| of the probes, scaled — the auto-calibrated initial
    /// temperature.
    fn calibrated_temp(&self) -> f64 {
        let mean = if self.probe_deltas.is_empty() {
            0.0
        } else {
            self.probe_deltas.iter().sum::<f64>() / self.probe_deltas.len() as f64
        };
        (mean * 3.0).max(1e-6)
    }

    /// Accepted moves so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Rejected moves so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// `true` when no evaluation is pending — the only points at which
    /// serialising this run is meaningful (pending undo tokens cannot be
    /// serialised and are dropped by serde).
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_none()
    }
}

/// The simulated-annealing engine, and under [`Annealer::random`] the
/// random-search floor: the same move set with every proposal accepted,
/// which both SA and Q-learning must clear to justify themselves.
///
/// Serialises as `{config, state}`; the accept rule of a started run
/// travels inside `state`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Annealer {
    config: SaConfig,
    /// The rule [`Annealer::begin`] starts with, until a run carries its own.
    #[serde(skip)]
    rule: AcceptRule,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    state: Option<SearchRun>,
}

impl Annealer {
    /// Creates an annealer with the given configuration.
    pub fn new(config: SaConfig) -> Self {
        Annealer { config, rule: AcceptRule::Metropolis, state: None }
    }

    /// Creates a random searcher: every proposal is accepted, so only
    /// `max_evals`, the move-mix probabilities and `seed` of the config
    /// are used.
    pub fn random(config: SaConfig) -> Self {
        Annealer { config, rule: AcceptRule::Always, state: None }
    }

    /// The configuration.
    pub fn config(&self) -> &SaConfig {
        &self.config
    }

    /// The accept rule: the started run's, else the constructor's.
    pub fn rule(&self) -> AcceptRule {
        self.state.as_ref().map_or(self.rule, |s| s.rule)
    }

    /// Starts a step-driven run (the `Optimizer`-trait entry used by
    /// `breaksym-core`'s generic driver) from the environment's current
    /// placement, whose cost is `initial_cost`; see [`SearchRun`].
    pub fn begin(&mut self, initial_cost: f64) {
        self.state = Some(SearchRun::start(self.config, self.rule(), initial_cost));
    }

    /// Steps the in-progress run; see [`SearchRun::step`].
    ///
    /// # Panics
    ///
    /// Panics unless [`Annealer::begin`] was called.
    pub fn step(&mut self, env: &mut LayoutEnv) -> StepOutcome {
        self.state.as_mut().expect("begin() before step()").step(env)
    }

    /// Feeds the pending cost verdict; see [`SearchRun::feed`].
    ///
    /// # Panics
    ///
    /// Panics unless a step returned [`StepOutcome::Evaluate`].
    pub fn feed(&mut self, cost: f64, env: &mut LayoutEnv) {
        self.state.as_mut().expect("begin() before feed()").feed(cost, env);
    }

    /// The in-progress step-driven run, when one was started.
    pub fn search(&self) -> Option<&SearchRun> {
        self.state.as_ref()
    }
}

/// Proposes a random legal move, or `None` when nothing can move.
///
/// Legal directions are enumerated into a stack buffer
/// ([`LayoutEnv::legal_unit_moves_into`]) — the proposal loop runs once
/// per evaluation, so it must not allocate. The enumeration order
/// matches the allocating variants, keeping per-seed runs bit-identical.
fn propose_move(config: &SaConfig, env: &LayoutEnv, rng: &mut ChaCha8Rng) -> Option<PlacementMove> {
    let circuit = env.circuit();
    let mut dirs = [Direction::North; 8];
    for _ in 0..64 {
        let draw: f64 = rng.gen_range(0.0..1.0);
        if draw < config.group_move_prob {
            let g = GroupId::new(rng.gen_range(0..circuit.groups().len() as u32));
            let n = env.legal_group_moves_into(g, &mut dirs);
            if let Some(&dir) = pick(rng, &dirs[..n]) {
                return Some(GroupMove { group: g, dir }.into());
            }
        } else if draw < config.group_move_prob + config.swap_prob {
            let a = UnitId::new(rng.gen_range(0..circuit.num_units() as u32));
            let b = UnitId::new(rng.gen_range(0..circuit.num_units() as u32));
            // Same-device swaps are no-ops for the objective; skip them.
            if a != b && circuit.unit(a).device != circuit.unit(b).device {
                let mv: PlacementMove = SwapMove { a, b }.into();
                if env.check(mv).is_ok() {
                    return Some(mv);
                }
            }
        } else {
            let u = UnitId::new(rng.gen_range(0..circuit.num_units() as u32));
            let n = env.legal_unit_moves_into(u, &mut dirs);
            if let Some(&dir) = pick(rng, &dirs[..n]) {
                return Some(UnitMove { unit: u, dir }.into());
            }
        }
    }
    // Exhaustive fallback so a nearly-locked placement still anneals.
    for u in 0..circuit.num_units() as u32 {
        let unit = UnitId::new(u);
        let n = env.legal_unit_moves_into(unit, &mut dirs);
        if let Some(&dir) = pick(rng, &dirs[..n]) {
            return Some(UnitMove { unit, dir }.into());
        }
    }
    None
}

fn pick<'a>(rng: &mut ChaCha8Rng, dirs: &'a [Direction]) -> Option<&'a Direction> {
    if dirs.is_empty() {
        None
    } else {
        Some(&dirs[rng.gen_range(0..dirs.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_geometry::GridSpec;
    use breaksym_netlist::circuits;
    use breaksym_route::RoutingEstimate;

    fn wirelength_cost(env: &LayoutEnv) -> f64 {
        RoutingEstimate::of(env).weighted_um
    }

    #[test]
    fn search_run_snapshot_resumes_identically() {
        // Run A straight through; run B is serialised + restored halfway.
        let cfg = SaConfig { max_evals: 300, seed: 21, ..SaConfig::default() };
        let fresh = || {
            LayoutEnv::sequential(circuits::five_transistor_ota(), GridSpec::square(14)).unwrap()
        };
        let drive_n = |run: &mut SearchRun, env: &mut LayoutEnv, n: u64| {
            let mut spent = 0;
            while spent < n {
                match run.step(env) {
                    StepOutcome::Finished => break,
                    StepOutcome::Evaluate { .. } => {
                        spent += 1;
                        let c = wirelength_cost(env);
                        run.feed(c, env);
                    }
                }
            }
        };

        let mut env_a = fresh();
        let c0 = wirelength_cost(&env_a);
        let mut a = SearchRun::start(cfg, AcceptRule::Metropolis, c0);
        drive_n(&mut a, &mut env_a, 250);

        let mut env_b = fresh();
        let mut b = SearchRun::start(cfg, AcceptRule::Metropolis, c0);
        drive_n(&mut b, &mut env_b, 100);
        assert!(b.is_quiescent());
        let json = serde_json::to_string(&b).unwrap();
        let placement_json = serde_json::to_string(env_b.placement()).unwrap();

        let mut restored: SearchRun = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, b, "the snapshot round-trips the whole run");
        let mut env_c = fresh();
        env_c.set_placement(serde_json::from_str(&placement_json).unwrap()).unwrap();
        drive_n(&mut restored, &mut env_c, 150);

        assert_eq!(restored, a, "RNG, schedule, current cost and counters all match");
        assert_eq!(env_c.placement(), env_a.placement(), "the walk ends on the same placement");
    }
}
