//! Chaos harness: randomized job mixes against an in-process engine
//! under a seeded fault schedule, with global invariants checked after
//! the dust settles.
//!
//! One call to [`run_chaos`] derives — deterministically from a single
//! seed — a [`FaultPlan`] over the
//! workspace's failpoints (`sim::evaluate`, `sim::cache_insert`,
//! `serve::slice`) and a mix of placement jobs, runs the jobs on a real
//! [`ServeEngine`] while the faults fire, then disarms the faults and
//! asserts the service-level invariants no failure mode may violate:
//!
//! - **no job lost or stuck** — every submitted job reaches a terminal
//!   state;
//! - **`/stats` accounting is exact** — the terminal counters sum to the
//!   submissions and match the observed per-job states;
//! - **checkpoints resume bit-identically** — any checkpoint left behind
//!   (done jobs keep none) resumes to the same report twice in a row;
//! - **served equals direct** — every completed job that no injected
//!   simulator failure reached reports exactly what one unsliced direct
//!   run of its spec reports: slicing, cache loss and the other jobs'
//!   faults changed nothing;
//! - **reported placements are legal** — every completed job's
//!   `best_placement` applies cleanly to a fresh environment;
//! - **cached equals fresh** — every completed job's `best_metrics` is
//!   reproduced by a fresh, cache-free evaluation of its placement.
//!
//! With one worker (the default) the whole run — fault schedule, job
//! states, verdicts — is reproducible from the seed; `repro chaos
//! --seed N` runs the harness twice and diffs the two reports to prove
//! it.

use std::time::Duration;

use breaksym_core::{Driver, MethodSpec, MlmaConfig, RunReport, SimCounter};
use breaksym_sim::{FAIL_CACHE_INSERT, FAIL_EVALUATE};
use breaksym_testkit::{fault, FaultAction, FaultPlan};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::engine::{ServeConfig, ServeEngine, FAIL_SLICE};
use crate::protocol::{JobId, JobSpec, TaskSpec};

/// Knobs of one chaos run. Everything downstream — the fault plan, the
/// job mix, the final verdicts — is a pure function of these values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Master seed: drives both the fault plan and the job mix.
    pub seed: u64,
    /// Jobs submitted, each once the one before it has settled, to an
    /// engine with one worker: the whole run replays bit-identically
    /// from the seed.
    pub jobs: usize,
    /// Triggers sampled into the fault plan.
    pub faults: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { seed: 0, jobs: 6, faults: 5 }
    }
}

/// Verdict of one invariant check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvariantResult {
    /// Which invariant.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was checked, and what broke when `ok` is false.
    pub details: String,
}

impl InvariantResult {
    fn new(name: &str, ok: bool, details: String) -> Self {
        InvariantResult { name: name.to_string(), ok, details }
    }
}

/// Everything one chaos run produced: the derived fault plan, the final
/// state of every job, and the invariant verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The configuration the run was derived from.
    pub config: ChaosConfig,
    /// The seed-derived fault schedule that was armed during the run.
    pub plan: FaultPlan,
    /// Final state label of each job, in submission order.
    pub job_states: Vec<String>,
    /// One verdict per invariant.
    pub invariants: Vec<InvariantResult>,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.invariants.iter().all(|inv| inv.ok)
    }
}

/// The failpoints a chaos run may trigger, with the actions each site
/// understands. Clock and delay actions are deliberately absent: the
/// harness asserts logical invariants, not timing.
fn palette() -> Vec<(&'static str, Vec<FaultAction>)> {
    vec![
        (
            FAIL_EVALUATE,
            vec![
                FaultAction::Fail { what: "singular".into() },
                FaultAction::Fail { what: "no_convergence".into() },
            ],
        ),
        (FAIL_CACHE_INSERT, vec![FaultAction::Drop]),
        (
            FAIL_SLICE,
            vec![
                FaultAction::Fail { what: "chaos".into() },
                FaultAction::Panic { msg: "chaos".into() },
            ],
        ),
    ]
}

/// The seed-derived job mix: small MLMA/flat-Q placements of the
/// `diff_pair` benchmark with varied seeds, budgets, and slice sizes —
/// quick enough to run many, different enough to exercise distinct
/// schedules. Public so the multi-node chaos harness in
/// `breaksym-cluster` derives its fleet-wide mixes from the same
/// generator.
pub fn job_mix(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a0_5bad);
    (0..jobs)
        .map(|_| {
            let cfg = MlmaConfig {
                episodes: 2,
                steps_per_episode: 8,
                max_evals: rng.gen_range(40..=90),
                seed: rng.gen(),
                ..MlmaConfig::default()
            };
            let method = if rng.gen_bool(0.7) {
                MethodSpec::Mlma(cfg)
            } else {
                MethodSpec::Flat(cfg)
            };
            let mut spec = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), method);
            spec.slice_evals = Some(rng.gen_range(8..=24));
            spec
        })
        .collect()
}

/// Runs one chaos round: arm the seed-derived faults, run the
/// seed-derived jobs, disarm, check every invariant. Never panics on an
/// invariant violation — the verdicts are data, so a driver can diff two
/// runs or fail a test on [`ChaosReport::ok`].
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let owned_palette = palette();
    let borrowed: Vec<(&str, &[FaultAction])> = owned_palette
        .iter()
        .map(|(site, actions)| (*site, actions.as_slice()))
        .collect();
    let plan = FaultPlan::sample(config.seed, &borrowed, config.faults, 200);
    let specs = job_mix(config.seed, config.jobs);

    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_cap: config.jobs.max(16),
        ..ServeConfig::default()
    });
    let handle = engine.handle();

    // Faults are armed only while the jobs run; the post-hoc invariant
    // checks below (resume, fresh evaluation) must be fault-free.
    let guard = fault::install(plan.clone());
    // Each job is submitted once the one before it settled, so the
    // `sim::evaluate` hits between two settles are exactly one job's.
    let mut ids: Vec<JobId> = Vec::with_capacity(specs.len());
    let mut job_states = Vec::with_capacity(specs.len());
    let mut stuck = Vec::new();
    let mut evaluator_faulted = Vec::with_capacity(specs.len());
    for spec in &specs {
        let before = fault::hits(FAIL_EVALUATE);
        let id = handle.submit(spec.clone()).expect("chaos submit");
        ids.push(id);
        match handle.wait(id, Duration::from_secs(120)) {
            Ok(resp) => job_states.push(resp.state.label().to_string()),
            Err(e) => {
                job_states.push(format!("stuck ({e})"));
                stuck.push(id);
            }
        }
        let after = fault::hits(FAIL_EVALUATE);
        evaluator_faulted.push(plan.triggers.iter().any(|t| {
            t.site == FAIL_EVALUATE && t.at <= after && t.at + t.count.max(1) > before + 1
        }));
    }
    drop(guard);

    let mut invariants = Vec::new();

    // 1. No job lost or stuck.
    invariants.push(InvariantResult::new(
        "no-lost-or-stuck-jobs",
        stuck.is_empty(),
        format!("{} jobs terminal, {} stuck {:?}", ids.len() - stuck.len(), stuck.len(), stuck),
    ));

    // 2. /stats accounting is exact against the observed states.
    let stats = handle.stats();
    let count = |label: &str| job_states.iter().filter(|s| s.as_str() == label).count() as u64;
    let (done, failed) = (count("done"), count("failed"));
    let (timed_out, cancelled) = (count("timed_out"), count("cancelled"));
    let submitted_ok = stats.jobs_submitted == ids.len() as u64;
    let sum_ok = stats.jobs_done + stats.jobs_failed + stats.jobs_timed_out + stats.jobs_cancelled
        == stats.jobs_submitted;
    let per_state_ok = stats.jobs_done == done
        && stats.jobs_failed == failed
        && stats.jobs_timed_out == timed_out
        && stats.jobs_cancelled == cancelled
        && stats.jobs_panicked <= stats.jobs_failed;
    invariants.push(InvariantResult::new(
        "stats-accounting-exact",
        submitted_ok && sum_ok && per_state_ok,
        format!(
            "stats: {}/{}/{}/{}/{} submitted/done/failed/timed_out/cancelled \
             ({} panicked); observed: {done}/{failed}/{timed_out}/{cancelled}",
            stats.jobs_submitted,
            stats.jobs_done,
            stats.jobs_failed,
            stats.jobs_timed_out,
            stats.jobs_cancelled,
            stats.jobs_panicked,
        ),
    ));

    // 3–5. Per-job post-mortems, faults disarmed.
    let mut resume_checked = 0usize;
    let mut resume_bad = Vec::new();
    let mut report_checked = 0usize;
    let mut illegal = Vec::new();
    let mut mismatched = Vec::new();
    let (mut direct_checked, mut diverged) = (0usize, Vec::new());
    for ((&id, spec), faulted) in ids.iter().zip(&specs).zip(evaluator_faulted) {
        if let Ok(Some(ckpt)) = handle.checkpoint(id) {
            resume_checked += 1;
            if !resumes_bit_identically(spec, &ckpt) {
                resume_bad.push(id);
            }
        }
        if let Ok(report) = handle.report(id) {
            report_checked += 1;
            match verify_report(spec, &report) {
                ReportVerdict::Ok => {}
                ReportVerdict::IllegalPlacement => illegal.push(id),
                ReportVerdict::MetricsMismatch => mismatched.push(id),
            }
            // An injected simulator failure is a penalised sample: it
            // steers the search, so such a run has no direct twin.
            if !faulted {
                direct_checked += 1;
                if !direct_report(spec).is_some_and(|direct| reports_match(&report, &direct)) {
                    diverged.push(id);
                }
            }
        }
    }
    invariants.push(InvariantResult::new(
        "checkpoints-resume-bit-identically",
        resume_bad.is_empty(),
        format!("{resume_checked} checkpoints resumed twice, divergent: {resume_bad:?}"),
    ));
    invariants.push(InvariantResult::new(
        "served-equals-direct-run",
        diverged.is_empty(),
        format!(
            "{direct_checked} of {report_checked} reports compared with direct runs (the rest \
             took an injected simulator failure), divergent: {diverged:?}"
        ),
    ));
    invariants.push(InvariantResult::new(
        "reported-placements-legal",
        illegal.is_empty(),
        format!("{report_checked} reports checked, illegal placements: {illegal:?}"),
    ));
    invariants.push(InvariantResult::new(
        "cached-equals-fresh-evaluation",
        mismatched.is_empty(),
        format!("{report_checked} reports re-evaluated fresh, mismatches: {mismatched:?}"),
    ));

    engine.shutdown();
    ChaosReport { config: config.clone(), plan, job_states, invariants }
}

/// Resumes the job's checkpoint twice from scratch and compares the two
/// reports field-for-field (costs at the bit level). Public for the
/// multi-node harness, whose replicated checkpoints must satisfy the
/// same bit-identity.
pub fn resumes_bit_identically(spec: &JobSpec, ckpt: &breaksym_core::RunCheckpoint) -> bool {
    let run = || -> Option<RunReport> {
        let task = spec.task.resolve().ok()?;
        let (method, budget) = spec.resolved_method();
        let mut opt = method.build(&task).ok()?;
        Driver::new(budget).resume(&task, opt.as_mut(), ckpt).ok()
    };
    match (run(), run()) {
        (Some(a), Some(b)) => reports_match(&a, &b),
        _ => false,
    }
}

/// Runs the spec directly, in one unsliced call on a fresh driver — the
/// ground truth a served report must match bit for bit. Public for the
/// multi-node harness.
pub fn direct_report(spec: &JobSpec) -> Option<RunReport> {
    let task = spec.task.resolve().ok()?;
    let (method, budget) = spec.resolved_method();
    let mut opt = method.build(&task).ok()?;
    Driver::new(budget).run(&task, opt.as_mut()).ok()
}

/// Whether two reports of the same job agree on what the search did:
/// evaluations, best cost at the bit level, trajectory and best
/// placement. Public for the multi-node harness.
pub fn reports_match(a: &RunReport, b: &RunReport) -> bool {
    a.evaluations == b.evaluations
        && a.best_cost.to_bits() == b.best_cost.to_bits()
        && a.trajectory == b.trajectory
        && a.best_placement == b.best_placement
}

/// Outcome of replaying a completed job's reported claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportVerdict {
    /// The placement applies and a fresh evaluation reproduces the
    /// reported metrics exactly.
    Ok,
    /// The reported best placement does not apply to a fresh environment.
    IllegalPlacement,
    /// A fresh, cache-free evaluation disagrees with the reported
    /// metrics.
    MetricsMismatch,
}

/// Replays a completed job's claim: its best placement must apply to a
/// fresh environment, and a fresh cache-free evaluation must reproduce
/// the reported metrics exactly. Public for the multi-node harness.
pub fn verify_report(spec: &JobSpec, report: &RunReport) -> ReportVerdict {
    let Ok(task) = spec.task.resolve() else {
        return ReportVerdict::IllegalPlacement;
    };
    let Ok(mut env) = task.initial_env() else {
        return ReportVerdict::IllegalPlacement;
    };
    if env.set_placement(report.best_placement.clone()).is_err() {
        return ReportVerdict::IllegalPlacement;
    }
    let fresh = task.evaluator(SimCounter::new()).evaluate(&env);
    match fresh {
        Ok(metrics) if metrics == report.best_metrics => ReportVerdict::Ok,
        _ => ReportVerdict::MetricsMismatch,
    }
}
