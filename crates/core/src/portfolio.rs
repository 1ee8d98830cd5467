//! Deterministic parallel portfolio runner: N seeds × M methods fanned
//! across a bounded pool of OS threads.
//!
//! Each job gets its own [`LayoutEnv`](breaksym_layout::LayoutEnv),
//! evaluator, and simulation counter, plus its own RNG stream (the seed is
//! injected into the method's config), so trajectories are **bit-identical
//! regardless of thread count or scheduling** — `run_portfolio(.., 1)` and
//! `run_portfolio(.., 8)` return the same costs, trajectories, and
//! placements. Jobs share one [`EvalCache`] keyed by placement
//! fingerprint: cached metrics are bit-identical to fresh solves, so
//! sharing only changes the hit/miss/simulation *accounting*, never a
//! cost. Those accounting fields are therefore the only
//! scheduling-dependent part of a report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use breaksym_anneal::SaConfig;
use breaksym_sim::{EvalCache, DEFAULT_CACHE_CAPACITY};
use serde::{Deserialize, Serialize};

use crate::optimizer::Optimizer;
use crate::runner::{Budget, Driver};
use crate::{FlatQPlacer, MlmaConfig, MultiLevelPlacer, PlaceError, PlacementTask, RunReport};

/// One search method plus its full configuration, ready to be seeded and
/// launched as a portfolio job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MethodSpec {
    /// The paper's multi-level multi-agent Q placer.
    Mlma(MlmaConfig),
    /// The flat single-agent Q ablation.
    Flat(MlmaConfig),
    /// The simulated-annealing baseline.
    Sa(SaConfig),
    /// The random-search floor.
    Random(SaConfig),
}

impl MethodSpec {
    /// The method label its reports will carry.
    pub fn label(&self) -> &'static str {
        match self {
            MethodSpec::Mlma(_) => "mlma-q",
            MethodSpec::Flat(_) => "flat-q",
            MethodSpec::Sa(_) => "sa",
            MethodSpec::Random(_) => "random",
        }
    }

    /// The same method with its RNG seed replaced — how the portfolio
    /// derives per-seed jobs from one template config.
    #[must_use]
    pub fn with_seed(self, seed: u64) -> Self {
        match self {
            MethodSpec::Mlma(cfg) => MethodSpec::Mlma(cfg.with_seed(seed)),
            MethodSpec::Flat(cfg) => MethodSpec::Flat(cfg.with_seed(seed)),
            MethodSpec::Sa(cfg) => MethodSpec::Sa(cfg.with_seed(seed)),
            MethodSpec::Random(cfg) => MethodSpec::Random(cfg.with_seed(seed)),
        }
    }

    /// Builds the configured optimizer, ready to be driven — how both the
    /// portfolio runner and the serving layer turn a wire-format method
    /// spec into a running job (the serving layer pairs it with
    /// [`Driver::run_slice`](crate::runner::Driver::run_slice)).
    ///
    /// # Errors
    ///
    /// Fails when the circuit does not fit the task's grid.
    pub fn build(&self, task: &PlacementTask) -> Result<Box<dyn Optimizer + Send>, PlaceError> {
        Ok(match self {
            MethodSpec::Mlma(cfg) => Box::new(MultiLevelPlacer::new(&task.initial_env()?, *cfg)),
            MethodSpec::Flat(cfg) => Box::new(FlatQPlacer::new(&task.initial_env()?, *cfg)),
            MethodSpec::Sa(cfg) => Box::new(breaksym_anneal::Annealer::new(*cfg)),
            MethodSpec::Random(cfg) => Box::new(breaksym_anneal::RandomSearch::new(*cfg)),
        })
    }

    /// The [`Budget`] this method's own configuration implies — what the
    /// historic `run_*` wrappers enforce for it.
    pub fn budget(&self) -> Budget {
        match self {
            MethodSpec::Mlma(cfg) | MethodSpec::Flat(cfg) => Budget::from_mlma(cfg),
            MethodSpec::Sa(cfg) | MethodSpec::Random(cfg) => Budget::from_sa(cfg, None),
        }
    }

    /// Runs this job through the generic [`Driver`], sharing `cache` with
    /// the rest of the portfolio.
    ///
    /// # Errors
    ///
    /// As [`Driver::run`].
    pub fn run(&self, task: &PlacementTask, cache: EvalCache) -> Result<RunReport, PlaceError> {
        let mut opt = self.build(task)?;
        Driver::new(self.budget()).with_shared_cache(cache).run(task, opt.as_mut())
    }
}

/// Runs every `seeds × methods` combination on `task` across at most
/// `threads` worker threads, returning reports in job order (seed-major:
/// all methods for `seeds[0]`, then `seeds[1]`, …).
///
/// Work is pulled from a shared atomic queue, so long jobs never leave
/// workers idle behind a fixed partition; results land in pre-assigned
/// slots, so completion order never affects output order. See the module
/// docs for why trajectories are scheduling-independent.
///
/// # Errors
///
/// Returns the first per-job failure (in job order).
pub fn run_portfolio(
    task: &PlacementTask,
    methods: &[MethodSpec],
    seeds: &[u64],
    threads: usize,
) -> Result<Vec<RunReport>, PlaceError> {
    let jobs: Vec<MethodSpec> = seeds
        .iter()
        .flat_map(|&seed| methods.iter().map(move |m| m.clone().with_seed(seed)))
        .collect();
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
    let workers = threads.max(1).min(jobs.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunReport, PlaceError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let result = jobs[i].run(task, cache.clone());
                *slots[i].lock().expect("no worker panics holding a slot") = Some(result);
            });
        }
    })
    .expect("portfolio workers do not panic");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics holding a slot")
                .expect("every job index below jobs.len() is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_lde::LdeModel;
    use breaksym_netlist::circuits;

    fn task() -> PlacementTask {
        PlacementTask::new(circuits::diff_pair(), 10, LdeModel::nonlinear(1.0, 7))
    }

    fn quick_cfg() -> MlmaConfig {
        MlmaConfig { episodes: 3, steps_per_episode: 8, max_evals: 150, ..MlmaConfig::default() }
    }

    fn quick_sa() -> SaConfig {
        SaConfig { max_evals: 150, ..SaConfig::default() }
    }

    #[test]
    fn portfolio_preserves_seed_major_job_order() {
        let methods = [
            MethodSpec::Mlma(quick_cfg()),
            MethodSpec::Random(quick_sa()),
        ];
        let reports = run_portfolio(&task(), &methods, &[1, 2], 2).unwrap();
        let labels: Vec<&str> = reports.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(labels, ["mlma-q", "random", "mlma-q", "random"]);
    }

    #[test]
    fn empty_portfolio_is_empty() {
        assert!(run_portfolio(&task(), &[], &[1, 2], 4).unwrap().is_empty());
        assert!(run_portfolio(&task(), &[MethodSpec::Sa(quick_sa())], &[], 4)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn parallel_portfolio_is_bit_identical_to_sequential() {
        let t = task();
        let methods = [
            MethodSpec::Mlma(quick_cfg()),
            MethodSpec::Flat(quick_cfg()),
            MethodSpec::Sa(quick_sa()),
            MethodSpec::Random(quick_sa()),
        ];
        let seeds = [11u64, 12];
        let sequential = run_portfolio(&t, &methods, &seeds, 1).unwrap();
        let parallel = run_portfolio(&t, &methods, &seeds, 4).unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.method, p.method);
            assert_eq!(s.best_cost.to_bits(), p.best_cost.to_bits(), "{}", s.method);
            assert_eq!(s.initial_cost.to_bits(), p.initial_cost.to_bits());
            assert_eq!(s.trajectory, p.trajectory, "{}", s.method);
            assert_eq!(s.evaluations, p.evaluations, "{}", s.method);
            assert_eq!(s.best_placement, p.best_placement, "{}", s.method);
            // `simulations` and cache stats are intentionally not compared:
            // who warms the shared cache first is scheduling-dependent.
        }
    }

    #[test]
    fn build_and_budget_match_the_historic_wrappers() {
        let t = task();
        let cfg = quick_cfg().with_seed(9);
        let spec = MethodSpec::Mlma(cfg);
        assert_eq!(spec.budget().max_evals, cfg.max_evals);
        let mut opt = spec.build(&t).unwrap();
        assert_eq!(opt.label(), spec.label());
        let driven = Driver::new(spec.budget()).run(&t, opt.as_mut()).unwrap();
        let direct = crate::runner::run_mlma(&t, &cfg).unwrap();
        assert_eq!(driven.best_cost.to_bits(), direct.best_cost.to_bits());
        assert_eq!(driven.trajectory, direct.trajectory);
    }

    #[test]
    fn shared_cache_does_not_change_solo_trajectories() {
        // A portfolio job must match the stand-alone wrapper bit-for-bit:
        // the shared cache only changes accounting, never costs.
        let t = task();
        let cfg = quick_cfg().with_seed(5);
        let portfolio = run_portfolio(&t, &[MethodSpec::Mlma(cfg)], &[5], 3).unwrap().remove(0);
        let solo = crate::runner::run_mlma(&t, &cfg).unwrap();
        assert_eq!(portfolio.best_cost.to_bits(), solo.best_cost.to_bits());
        assert_eq!(portfolio.trajectory, solo.trajectory);
        assert_eq!(portfolio.evaluations, solo.evaluations);
        assert_eq!(portfolio.best_placement, solo.best_placement);
    }
}
