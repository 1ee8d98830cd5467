//! The experiment harness reproducing every figure of the paper.
//!
//! Each `figN`/`ablation_*` function regenerates one artifact of the
//! paper's evaluation as structured rows; the `repro` binary pretty-prints
//! them, the Criterion benches time scaled-down versions, and the
//! workspace integration tests assert their qualitative *shape* (who wins,
//! by roughly what factor).
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | E1 | Fig. 1(b)(c) symmetric layout styles     | [`fig1`] |
//! | E2 | Fig. 2(a)(b) environment & legal moves   | [`fig2`] |
//! | E3 | Fig. 3 main results (CM/COMP/OTA)        | [`fig3`] |
//! | A1 | §III SA-vs-Q convergence                 | [`ablation_trajectories`] |
//! | A2 | §II.A multi-level scalability            | [`ablation_multilevel`] |
//! | A3 | §I/§III linear-vs-non-linear variation   | [`ablation_linearity`] |
//! | A4 | §I dummy area/benefit trade-off          | [`ablation_dummies`] |
//! | A5 | exploration policy & double-Q extension  | [`ablation_policies`] |
//! | A6 | seed robustness of the Fig. 3 comparison  | [`ablation_seeds`] |
//! | A7 | objective-weight sensitivity (FOM terms)  | [`ablation_weights`] |
//! | A8 | budget scaling of Q vs SA                  | [`ablation_budget`] |
//! | P1 | deterministic parallel portfolio sweep     | [`portfolio_sweep`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use breaksym_anneal::SaConfig;
use breaksym_core::{
    run_portfolio, runner, EpsilonSchedule, Exploration, MethodSpec, MlmaConfig, PlaceError,
    PlacementTask, SoftmaxSchedule,
};
use breaksym_layout::LayoutEnv;
use breaksym_lde::LdeModel;
use breaksym_netlist::{circuits, Circuit, UnitId};
use breaksym_route::{congestion_score, CongestionMap, MazeRouter, RouteConfig};
use breaksym_symmetry::{axis_symmetry_score, pair_centroid_error};
use serde::Serialize;

/// Grid side used per benchmark circuit.
pub fn grid_side(circuit: &Circuit) -> i32 {
    match circuit.name() {
        "ota_folded_cascode" => 18,
        _ => 16,
    }
}

/// The three benchmark tasks of Fig. 3 under the standard non-linear LDE
/// model.
pub fn benchmark_tasks(seed: u64) -> Vec<PlacementTask> {
    [
        circuits::current_mirror_medium(),
        circuits::comparator(),
        circuits::folded_cascode_ota(),
    ]
    .into_iter()
    .map(|c| {
        let side = grid_side(&c);
        PlacementTask::new(c, side, LdeModel::nonlinear(1.0, seed))
    })
    .collect()
}

// ---------------------------------------------------------------- Fig. 1

/// One row of the Fig. 1 comparison: a layout style of the folded-cascode
/// OTA under a given LDE regime.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Row {
    /// LDE regime label (`"linear"` / `"nonlinear"`).
    pub regime: String,
    /// Layout style label.
    pub style: String,
    /// Input-referred offset in volts.
    pub offset_v: f64,
    /// Layout area in µm².
    pub area_um2: f64,
    /// Estimated wirelength in µm.
    pub wirelength_um: f64,
    /// Footprint symmetry score (1 = perfectly Y-symmetric).
    pub symmetry: f64,
    /// Mean mirrored-centroid error of matched pairs, in cells.
    pub centroid_error: f64,
    /// Total maze-routed length in µm (the paper's routability angle).
    pub routed_um: f64,
    /// Differential-input routed-length skew in cells.
    pub input_skew_cells: Option<u32>,
    /// Quadratic congestion score of the routed layout.
    pub congestion: f64,
}

/// Regenerates Fig. 1: the two conventional layout styles of the
/// folded-cascode OTA, evaluated under linear and non-linear LDEs.
///
/// # Errors
///
/// Propagates layout/simulation failures.
pub fn fig1(seed: u64) -> Result<Vec<Fig1Row>, PlaceError> {
    let mut rows = Vec::new();
    for (regime, lde) in [
        ("linear", LdeModel::linear(1.0)),
        ("nonlinear", LdeModel::nonlinear(1.0, seed)),
    ] {
        let task = PlacementTask::new(circuits::folded_cascode_ota(), 18, lde);
        for which in [
            runner::Baseline::Sequential,
            runner::Baseline::MirrorY,
            runner::Baseline::CommonCentroid,
            runner::Baseline::Interdigitated,
        ] {
            let r = runner::run_baseline(&task, which)?;
            let env = LayoutEnv::new(task.circuit.clone(), task.spec, r.best_placement.clone())?;
            // Routability: actually route each style and compare.
            let routed = MazeRouter::new(RouteConfig::default()).route(&env);
            let input_skew_cells = env
                .circuit()
                .port(breaksym_netlist::PortRole::InP)
                .zip(env.circuit().port(breaksym_netlist::PortRole::InN))
                .and_then(|(p, n)| routed.matched_skew_cells(p, n));
            let congestion = congestion_score(&CongestionMap::new(&routed, env.spec()));
            rows.push(Fig1Row {
                regime: regime.into(),
                style: r.method.clone(),
                offset_v: r.best_primary(),
                area_um2: r.best_metrics.area_um2,
                wirelength_um: r.best_metrics.wirelength_um,
                symmetry: axis_symmetry_score(&env),
                centroid_error: pair_centroid_error(&env),
                routed_um: routed.total_length_um,
                input_skew_cells,
                congestion,
            });
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------- Fig. 2

/// The environment statistics of Fig. 2: the example circuit's action
/// space and its legality structure.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Stats {
    /// Total units in the example (paper: 12).
    pub units: usize,
    /// Groups (paper: 3).
    pub groups: usize,
    /// The full action space per unit (paper: 8 possible moves).
    pub actions_per_unit: usize,
    /// Legal-move count per unit under the initial placement.
    pub legal_per_unit: Vec<usize>,
    /// ASCII rendering of the environment.
    pub ascii: String,
}

/// Regenerates Fig. 2: the 3-group × 2-device × 2-unit example
/// environment and its legal-move structure.
///
/// # Errors
///
/// Propagates layout construction failures.
pub fn fig2() -> Result<Fig2Stats, PlaceError> {
    let env =
        LayoutEnv::sequential(circuits::fig2_example(), breaksym_geometry::GridSpec::square(8))?;
    let units = env.circuit().num_units();
    let legal_per_unit =
        (0..units as u32).map(|u| env.legal_unit_moves(UnitId::new(u)).len()).collect();
    Ok(Fig2Stats {
        units,
        groups: env.circuit().groups().len(),
        actions_per_unit: 8,
        legal_per_unit,
        ascii: env.render_ascii(),
    })
}

// ---------------------------------------------------------------- Fig. 3

/// One row of the Fig. 3 table.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    /// Circuit label (CM / COMP / OTA).
    pub circuit: String,
    /// Method label.
    pub method: String,
    /// Static mismatch (%) or offset (V) — the class's primary metric.
    pub primary: f64,
    /// Unit of `primary`.
    pub primary_unit: &'static str,
    /// FOM against the best symmetric layout (1.0 = parity, higher wins).
    pub fom: f64,
    /// Simulations spent in total.
    pub sims: u64,
    /// First simulation at which the method matched the symmetric target.
    pub sims_to_target: Option<u64>,
    /// Whether the method reached the symmetric target.
    pub reached_target: bool,
}

/// Regenerates the Fig. 3 table: for each benchmark circuit, the best
/// symmetric layout (the target), simulated annealing, and multi-level
/// multi-agent Q-learning on equal simulation budgets.
///
/// # Errors
///
/// Propagates layout/simulation failures.
pub fn fig3(budget: u64, seed: u64) -> Result<Vec<Fig3Row>, PlaceError> {
    let mut rows = Vec::new();
    for task in benchmark_tasks(seed) {
        let label = short_name(task.circuit.name());
        let unit = primary_unit(&task.circuit);

        let sym = runner::best_symmetric_baseline(&task)?;
        rows.push(Fig3Row {
            circuit: label.clone(),
            method: format!("symmetric ({})", sym.method),
            primary: sym.best_primary(),
            primary_unit: unit,
            fom: 1.0,
            sims: sym.evaluations,
            sims_to_target: None,
            reached_target: false,
        });

        let sa = runner::run_sa(
            &task,
            &SaConfig { max_evals: budget, seed, ..SaConfig::default() },
            Some(sym.best_primary()),
        )?;
        rows.push(Fig3Row {
            circuit: label.clone(),
            method: "sa".into(),
            primary: sa.best_primary(),
            primary_unit: unit,
            fom: sa.fom_against(&sym.best_metrics).value,
            sims: sa.evaluations,
            sims_to_target: sa.sims_to_target,
            reached_target: sa.reached_target,
        });

        let rl = runner::run_mlma(&task, &fig3_q_config(budget, sym.best_primary(), seed))?;
        rows.push(Fig3Row {
            circuit: label,
            method: "mlma-q".into(),
            primary: rl.best_primary(),
            primary_unit: unit,
            fom: rl.fom_against(&sym.best_metrics).value,
            sims: rl.evaluations,
            sims_to_target: rl.sims_to_target,
            reached_target: rl.reached_target,
        });
    }
    Ok(rows)
}

/// The Q-learning configuration used for the Fig. 3 rows: a fairly greedy
/// schedule (the Q-tables converge within a few hundred simulations on
/// these problem sizes) running the full budget while recording when the
/// symmetric target was first matched.
pub fn fig3_q_config(budget: u64, target_primary: f64, seed: u64) -> MlmaConfig {
    MlmaConfig {
        episodes: 80,
        steps_per_episode: 10,
        exploration: Exploration::EpsilonGreedy(EpsilonSchedule {
            start: 0.3,
            end: 0.01,
            decay_episodes: 16.0,
        }),
        max_evals: budget,
        target_primary: Some(target_primary),
        stop_at_target: false, // run the budget; record sims-to-target
        seed,
        ..MlmaConfig::default()
    }
}

fn short_name(name: &str) -> String {
    match name {
        "cm_medium" => "CM".into(),
        "comp_strongarm" => "COMP".into(),
        "ota_folded_cascode" => "OTA".into(),
        other => other.into(),
    }
}

fn primary_unit(c: &Circuit) -> &'static str {
    match c.class() {
        breaksym_netlist::CircuitClass::CurrentMirror => "%",
        _ => "V",
    }
}

// ------------------------------------------------------------- Ablations

/// Convergence trajectories of SA vs Q-learning on one circuit (A1).
#[derive(Debug, Clone, Serialize)]
pub struct TrajectoryPair {
    /// Circuit label.
    pub circuit: String,
    /// `(simulations, best cost)` improvements of SA.
    pub sa: Vec<(u64, f64)>,
    /// `(simulations, best cost)` improvements of MLMA-Q.
    pub mlma: Vec<(u64, f64)>,
}

/// A1 — best-cost-vs-simulations trajectories of SA and Q-learning on the
/// OTA (the paper's "Q-learning was faster" claim).
///
/// # Errors
///
/// Propagates layout/simulation failures.
pub fn ablation_trajectories(budget: u64, seed: u64) -> Result<TrajectoryPair, PlaceError> {
    let task =
        PlacementTask::new(circuits::folded_cascode_ota(), 18, LdeModel::nonlinear(1.0, seed));
    let sa =
        runner::run_sa(&task, &SaConfig { max_evals: budget, seed, ..SaConfig::default() }, None)?;
    let rl = runner::run_mlma(
        &task,
        &MlmaConfig {
            episodes: 24,
            steps_per_episode: 40,
            max_evals: budget,
            seed,
            ..MlmaConfig::default()
        },
    )?;
    Ok(TrajectoryPair { circuit: "OTA".into(), sa: sa.trajectory, mlma: rl.trajectory })
}

/// One row of the multi-level scalability ablation (A2).
#[derive(Debug, Clone, Serialize)]
pub struct MultilevelRow {
    /// Circuit label.
    pub circuit: String,
    /// Units in the circuit (scalability axis).
    pub units: usize,
    /// Best cost reached by the flat single-agent placer.
    pub flat_cost: f64,
    /// Q-table states visited by the flat placer.
    pub flat_states: usize,
    /// Best cost reached by the multi-level placer.
    pub mlma_cost: f64,
    /// Total Q-table states across the hierarchy.
    pub mlma_states: usize,
}

/// A2 — flat vs multi-level Q-learning on the same budget: table growth
/// and solution quality as circuits scale (the paper's §II.A motivation).
///
/// # Errors
///
/// Propagates layout/simulation failures.
pub fn ablation_multilevel(budget: u64, seed: u64) -> Result<Vec<MultilevelRow>, PlaceError> {
    let mut rows = Vec::new();
    for circuit in [
        circuits::diff_pair(),
        circuits::five_transistor_ota(),
        circuits::current_mirror_medium(),
        circuits::folded_cascode_ota(),
    ] {
        let side = grid_side(&circuit).max(14);
        let task = PlacementTask::new(circuit, side, LdeModel::nonlinear(1.0, seed));
        let cfg = MlmaConfig {
            episodes: 12,
            steps_per_episode: 30,
            max_evals: budget,
            seed,
            ..MlmaConfig::default()
        };
        let flat = runner::run_flat(&task, &cfg)?;
        let ml = runner::run_mlma(&task, &cfg)?;
        rows.push(MultilevelRow {
            circuit: short_name(task.circuit.name()),
            units: task.circuit.num_units(),
            flat_cost: flat.best_cost,
            flat_states: flat.qtable_states,
            mlma_cost: ml.best_cost,
            mlma_states: ml.qtable_states,
        });
    }
    Ok(rows)
}

/// One row of the linearity sweep (A3).
#[derive(Debug, Clone, Serialize)]
pub struct LinearityRow {
    /// Non-linearity dial α (0 = purely linear field).
    pub alpha: f64,
    /// Offset of the best symmetric layout, in volts.
    pub symmetric_offset: f64,
    /// Offset of the RL layout, in volts.
    pub rl_offset: f64,
    /// `symmetric / rl` improvement factor (>1: RL wins).
    pub rl_advantage: f64,
}

/// A3 — sweeps LDE non-linearity from 0 (symmetry is optimal) to 1 (the
/// paper's regime), measuring the gap between the best symmetric layout
/// and RL. Reproduces the paper's core explanation: symmetric layouts are
/// only optimal when variation is linear.
///
/// # Errors
///
/// Propagates layout/simulation failures.
pub fn ablation_linearity(budget: u64, seed: u64) -> Result<Vec<LinearityRow>, PlaceError> {
    let mut rows = Vec::new();
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let task = PlacementTask::new(
            circuits::five_transistor_ota(),
            14,
            LdeModel::blend(1.0, alpha, seed),
        );
        let sym = runner::best_symmetric_baseline(&task)?;
        let rl = runner::run_mlma(
            &task,
            &MlmaConfig {
                episodes: 12,
                steps_per_episode: 30,
                max_evals: budget,
                target_primary: None, // run the full budget: we want the gap
                seed,
                ..MlmaConfig::default()
            },
        )?;
        let s = sym.best_primary();
        let r = rl.best_primary();
        rows.push(LinearityRow {
            alpha,
            symmetric_offset: s,
            rl_offset: r,
            rl_advantage: s / r.max(1e-12),
        });
    }
    Ok(rows)
}

/// One row of the dummy ablation (A4).
#[derive(Debug, Clone, Serialize)]
pub struct DummyRow {
    /// Layout label.
    pub style: String,
    /// Mismatch in % (CM benchmark).
    pub mismatch_pct: f64,
    /// Area in µm².
    pub area_um2: f64,
}

/// A4 — dummy fill around matched groups: mismatch benefit vs the area
/// cost the paper warns about ("can double circuit area").
///
/// # Errors
///
/// Propagates layout/simulation failures.
pub fn ablation_dummies(seed: u64) -> Result<Vec<DummyRow>, PlaceError> {
    let task =
        PlacementTask::new(circuits::current_mirror_medium(), 16, LdeModel::nonlinear(1.0, seed));
    let mut rows = Vec::new();
    for which in runner::Baseline::ALL {
        let r = runner::run_baseline(&task, which)?;
        rows.push(DummyRow {
            style: r.method.clone(),
            mismatch_pct: r.best_metrics.mismatch_pct.unwrap_or(f64::NAN),
            area_um2: r.best_metrics.area_um2,
        });
    }
    Ok(rows)
}

/// One row of the exploration-policy ablation (A5).
#[derive(Debug, Clone, Serialize)]
pub struct PolicyRow {
    /// Policy label.
    pub policy: String,
    /// Best offset reached, in volts.
    pub best_primary: f64,
    /// First simulation matching the symmetric target, if ever.
    pub sims_to_target: Option<u64>,
    /// Total Q-table states learned.
    pub qtable_states: usize,
}

/// A5 — exploration-policy extension study: ε-greedy vs Boltzmann
/// (softmax), each with and without double Q-learning, on the 5-transistor
/// OTA with a shared budget and the symmetric layout as target.
///
/// # Errors
///
/// Propagates layout/simulation failures.
pub fn ablation_policies(budget: u64, seed: u64) -> Result<Vec<PolicyRow>, PlaceError> {
    let task =
        PlacementTask::new(circuits::five_transistor_ota(), 14, LdeModel::nonlinear(1.0, seed));
    let sym = runner::best_symmetric_baseline(&task)?;
    let eps =
        Exploration::EpsilonGreedy(EpsilonSchedule { start: 0.3, end: 0.01, decay_episodes: 16.0 });
    let soft = Exploration::Softmax(SoftmaxSchedule {
        temp_start: 30.0,
        temp_end: 0.5,
        decay_episodes: 16.0,
    });
    let mut rows = Vec::new();
    for (label, exploration, double_q) in [
        ("eps-greedy", eps, false),
        ("eps-greedy + double-q", eps, true),
        ("softmax", soft, false),
        ("softmax + double-q", soft, true),
    ] {
        let cfg = MlmaConfig {
            episodes: 80,
            steps_per_episode: 10,
            exploration,
            double_q,
            max_evals: budget,
            target_primary: Some(sym.best_primary()),
            stop_at_target: false,
            seed,
            ..MlmaConfig::default()
        };
        let r = runner::run_mlma(&task, &cfg)?;
        rows.push(PolicyRow {
            policy: label.into(),
            best_primary: r.best_primary(),
            sims_to_target: r.sims_to_target,
            qtable_states: r.qtable_states,
        });
    }
    Ok(rows)
}

/// One row of the seed-robustness sweep (A6).
#[derive(Debug, Clone, Serialize)]
pub struct SeedRow {
    /// RNG / LDE seed.
    pub seed: u64,
    /// Best symmetric mismatch (%).
    pub symmetric: f64,
    /// SA mismatch (%) at budget (paper-parity move set).
    pub sa: f64,
    /// SA mismatch (%) with the swap-move extension enabled.
    pub sa_swap: f64,
    /// MLMA-Q mismatch (%) at budget.
    pub mlma: f64,
    /// SA sims to the symmetric target.
    pub sa_sims_to_target: Option<u64>,
    /// Q sims to the symmetric target.
    pub mlma_sims_to_target: Option<u64>,
}

/// A6 — repeats the CM row of Fig. 3 across independent seeds (which
/// randomise both the LDE field and the optimizers), in parallel. The
/// paper reports a single configuration; this sweep checks its comparison
/// is not a seed artifact.
///
/// # Errors
///
/// Propagates the first per-seed failure.
pub fn ablation_seeds(budget: u64, seeds: &[u64]) -> Result<Vec<SeedRow>, PlaceError> {
    let results: Vec<Result<SeedRow, PlaceError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                scope.spawn(move || -> Result<SeedRow, PlaceError> {
                    let task = PlacementTask::new(
                        circuits::current_mirror_medium(),
                        16,
                        LdeModel::nonlinear(1.0, seed),
                    );
                    let sym = runner::best_symmetric_baseline(&task)?;
                    let sa = runner::run_sa(
                        &task,
                        &SaConfig { max_evals: budget, seed, ..SaConfig::default() },
                        Some(sym.best_primary()),
                    )?;
                    let sa_swap = runner::run_sa(
                        &task,
                        &SaConfig {
                            max_evals: budget,
                            seed,
                            swap_prob: 0.15,
                            ..SaConfig::default()
                        },
                        Some(sym.best_primary()),
                    )?;
                    let rl =
                        runner::run_mlma(&task, &fig3_q_config(budget, sym.best_primary(), seed))?;
                    Ok(SeedRow {
                        seed,
                        symmetric: sym.best_primary(),
                        sa: sa.best_primary(),
                        sa_swap: sa_swap.best_primary(),
                        mlma: rl.best_primary(),
                        sa_sims_to_target: sa.sims_to_target,
                        mlma_sims_to_target: rl.sims_to_target,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker threads do not panic"))
            .collect()
    });
    results.into_iter().collect()
}

/// One row of the objective-weight sweep (A7).
#[derive(Debug, Clone, Serialize)]
pub struct WeightRow {
    /// `[w_primary, w_area, w_wirelength]`.
    pub weights: [f64; 3],
    /// Mismatch reached (%).
    pub mismatch_pct: f64,
    /// Area reached (µm²).
    pub area_um2: f64,
    /// Wirelength reached (µm).
    pub wirelength_um: f64,
}

/// A7 — objective-weight sensitivity on the CM benchmark: how the agent
/// trades mismatch against area/wirelength as the regulariser weights
/// grow. Maps out the Pareto-ish front behind the paper's FOM.
///
/// # Errors
///
/// Propagates layout/simulation failures.
pub fn ablation_weights(budget: u64, seed: u64) -> Result<Vec<WeightRow>, PlaceError> {
    let task =
        PlacementTask::new(circuits::current_mirror_medium(), 16, LdeModel::nonlinear(1.0, seed));
    let cfg = MlmaConfig {
        episodes: 40,
        steps_per_episode: 15,
        exploration: Exploration::EpsilonGreedy(EpsilonSchedule {
            start: 0.3,
            end: 0.01,
            decay_episodes: 10.0,
        }),
        max_evals: budget,
        seed,
        ..MlmaConfig::default()
    };
    let mut rows = Vec::new();
    for weights in [
        (1.0, 0.0, 0.0),
        (1.0, 0.05, 0.03),
        (1.0, 0.3, 0.1),
        (1.0, 1.0, 0.5),
    ] {
        let r = runner::run_mlma_weighted(&task, &cfg, weights)?;
        rows.push(WeightRow {
            weights: [weights.0, weights.1, weights.2],
            mismatch_pct: r.best_metrics.mismatch_pct.unwrap_or(f64::NAN),
            area_um2: r.best_metrics.area_um2,
            wirelength_um: r.best_metrics.wirelength_um,
        });
    }
    Ok(rows)
}

/// One row of the budget-scaling sweep (A8).
#[derive(Debug, Clone, Serialize)]
pub struct BudgetRow {
    /// Simulation budget.
    pub budget: u64,
    /// SA best objective cost at that budget (normalised; monotone in
    /// budget since longer runs extend shorter ones).
    pub sa_cost: f64,
    /// Q best objective cost at that budget.
    pub mlma_cost: f64,
}

/// A8 — how solution quality scales with the simulation budget for SA and
/// Q on the 5T OTA. Q's learning should pay off increasingly with budget.
///
/// # Errors
///
/// Propagates layout/simulation failures.
pub fn ablation_budget(seed: u64) -> Result<Vec<BudgetRow>, PlaceError> {
    let mut rows = Vec::new();
    for budget in [150u64, 400, 1000, 2500] {
        let task =
            PlacementTask::new(circuits::five_transistor_ota(), 14, LdeModel::nonlinear(1.0, seed));
        let sa = runner::run_sa(
            &task,
            &SaConfig { max_evals: budget, seed, ..SaConfig::default() },
            None,
        )?;
        let rl = runner::run_mlma(&task, &fig3_q_config(budget, 0.0, seed))?;
        rows.push(BudgetRow { budget, sa_cost: sa.best_cost, mlma_cost: rl.best_cost });
    }
    Ok(rows)
}

// ------------------------------------------------------------- Portfolio

/// One job of the portfolio sweep (P1).
#[derive(Debug, Clone, Serialize)]
pub struct PortfolioRow {
    /// Method label.
    pub method: String,
    /// RNG seed of the job.
    pub seed: u64,
    /// Best objective cost reached.
    pub best_cost: f64,
    /// Best primary mismatch/offset metric reached.
    pub best_primary: f64,
    /// Oracle queries spent.
    pub evaluations: u64,
    /// Wall-clock milliseconds of the job inside the parallel run.
    pub elapsed_ms: u64,
}

/// The portfolio sweep result: per-job rows plus the sequential-vs-parallel
/// wall-clock comparison that backs the determinism claim.
#[derive(Debug, Clone, Serialize)]
pub struct PortfolioSummary {
    /// Benchmark circuit.
    pub circuit: String,
    /// Worker threads of the parallel run.
    pub threads: usize,
    /// Total jobs (seeds × methods).
    pub jobs: usize,
    /// Wall-clock of the single-threaded run (ms).
    pub sequential_ms: u64,
    /// Wall-clock of the parallel run (ms).
    pub parallel_ms: u64,
    /// `sequential_ms / parallel_ms`.
    pub speedup: f64,
    /// Per-job results, in job order (from the parallel run; bit-identical
    /// to the sequential one).
    pub rows: Vec<PortfolioRow>,
}

/// P1 — the deterministic portfolio sweep on the OTA benchmark: Q-learning
/// and SA across four seeds, run once sequentially and once on `threads`
/// workers. The two runs are checked **bit-identical** (costs,
/// trajectories, evaluation counts) before the timings are reported — a
/// failed check is an error, not a warning.
///
/// # Errors
///
/// Propagates layout/simulation failures, and reports a
/// [`PlaceError::BadConfig`] if parallel execution ever diverged from
/// sequential (which would falsify the determinism design).
pub fn portfolio_sweep(
    budget: u64,
    seed: u64,
    threads: usize,
) -> Result<PortfolioSummary, PlaceError> {
    let task =
        PlacementTask::new(circuits::folded_cascode_ota(), 18, LdeModel::nonlinear(1.0, seed));
    let q = MlmaConfig {
        episodes: 80,
        steps_per_episode: 10,
        max_evals: budget,
        ..MlmaConfig::default()
    };
    let sa = SaConfig { max_evals: budget, ..SaConfig::default() };
    let methods = [MethodSpec::Mlma(q), MethodSpec::Sa(sa)];
    let seeds: Vec<u64> = (0..4).map(|i| seed + 2 * i).collect();

    let t0 = std::time::Instant::now();
    let sequential = run_portfolio(&task, &methods, &seeds, 1)?;
    let sequential_ms = t0.elapsed().as_millis() as u64;
    let t1 = std::time::Instant::now();
    let parallel = run_portfolio(&task, &methods, &seeds, threads)?;
    let parallel_ms = t1.elapsed().as_millis() as u64;

    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        if s.best_cost.to_bits() != p.best_cost.to_bits()
            || s.trajectory != p.trajectory
            || s.evaluations != p.evaluations
        {
            return Err(PlaceError::BadConfig {
                reason: format!(
                    "portfolio job {i} ({}) diverged between 1 and {threads} threads",
                    s.method
                ),
            });
        }
    }

    let rows = parallel
        .iter()
        .zip(seeds.iter().flat_map(|&s| std::iter::repeat_n(s, methods.len())))
        .map(|(r, seed)| PortfolioRow {
            method: r.method.clone(),
            seed,
            best_cost: r.best_cost,
            best_primary: r.best_primary(),
            evaluations: r.evaluations,
            elapsed_ms: r.elapsed_ms,
        })
        .collect();
    Ok(PortfolioSummary {
        circuit: short_name(task.circuit.name()),
        threads,
        jobs: sequential.len(),
        sequential_ms,
        parallel_ms,
        speedup: sequential_ms as f64 / parallel_ms.max(1) as f64,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_matches_paper_dimensions() {
        let s = fig2().unwrap();
        assert_eq!(s.units, 12);
        assert_eq!(s.groups, 3);
        assert_eq!(s.actions_per_unit, 8);
        assert_eq!(s.legal_per_unit.len(), 12);
        // Legality prunes the action space: no unit can use all 8 moves in
        // the packed initial placement.
        assert!(s.legal_per_unit.iter().all(|&n| n < 8));
        assert!(s.ascii.contains('A') && s.ascii.contains('C'));
    }

    #[test]
    fn fig1_rows_cover_both_regimes_and_styles() {
        let rows = fig1(3).unwrap();
        assert_eq!(rows.len(), 8);
        let my: Vec<_> = rows.iter().filter(|r| r.style == "mirror-y").collect();
        assert_eq!(my.len(), 2);
        for r in my {
            assert!(r.symmetry > 0.999, "mirror-y must be symmetric");
            assert!(r.centroid_error < 1e-9);
        }
        let seq: Vec<_> = rows.iter().filter(|r| r.style == "sequential").collect();
        assert!(seq.iter().all(|r| r.symmetry < 0.999));
    }

    #[test]
    fn dummies_grow_area() {
        let rows = ablation_dummies(1).unwrap();
        let get = |s: &str| {
            rows.iter()
                .find(|r| r.style == s)
                .unwrap_or_else(|| panic!("{s} missing"))
                .clone()
        };
        let plain = get("mirror-y");
        let dum = get("mirror-y+dummies");
        assert!(dum.area_um2 > plain.area_um2 * 1.3, "dummies must cost area");
    }
}
