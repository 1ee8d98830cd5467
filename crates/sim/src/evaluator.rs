//! The placement → metrics oracle the optimizers call.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use parking_lot::Mutex;

use breaksym_layout::LayoutEnv;
use breaksym_lde::{LdeModel, LdeScratch, ParamShift};
use breaksym_netlist::NetId;
use breaksym_route::ParasiticsScratch;

use crate::{
    CacheStats, EvalCache, EvalOptions, ExtractionTech, Metrics, SimCounter, SimError,
    SolverWorkspace, Testbench,
};

/// Failpoint hit on every evaluator call (see `breaksym_testkit::fault`).
/// A `Fail { what: "singular" }` action injects [`SimError::SingularMatrix`];
/// any other `Fail` injects [`SimError::NoConvergence`].
pub const FAIL_EVALUATE: &str = "sim::evaluate";

/// Failpoint hit before each cache memoization; a `Drop` action skips the
/// insert (simulating eviction pressure) without affecting the returned
/// metrics.
pub const FAIL_CACHE_INSERT: &str = "sim::cache_insert";

/// Maps a `Fail` fault action to the [`SimError`] it injects.
fn injected_sim_error(action: &breaksym_testkit::FaultAction) -> Option<SimError> {
    match action {
        breaksym_testkit::FaultAction::Fail { what } if what == "singular" => {
            Some(SimError::SingularMatrix { column: 0 })
        }
        breaksym_testkit::FaultAction::Fail { .. } => {
            Some(SimError::NoConvergence { iterations: 0, residual: f64::INFINITY })
        }
        _ => None,
    }
}

/// Reusable per-evaluator buffers: incremental LDE and parasitics state,
/// the `shifts` / `node_caps` vectors handed to the testbench, and the
/// [`SolverWorkspace`] every MNA solve draws from. Kept behind a mutex so
/// `evaluate(&self)` stays shareable; never cloned — each evaluator clone
/// starts with fresh (empty) scratch. Every piece of it is
/// self-invalidating, so a result never depends on what the scratch held
/// before.
#[derive(Debug, Default)]
struct EvalScratch {
    lde: LdeScratch,
    route: ParasiticsScratch,
    shifts: Vec<ParamShift>,
    node_caps: Vec<(NetId, f64)>,
    ws: SolverWorkspace,
}

/// Evaluates placements: applies the LDE model, extracts parasitics, runs
/// the class testbench, and tallies the simulation count.
///
/// This is the "simulator" of the paper's objective-driven loop: every call
/// to [`Evaluator::evaluate`] that actually solves is one entry in the
/// "#simulations" column of Fig. 3.
///
/// # Caching
///
/// By default every call solves (and counts). Attaching an [`EvalCache`]
/// with [`Evaluator::with_cache`] memoizes metrics by placement
/// fingerprint: revisited placements are answered from the cache
/// **without** incrementing the counter — a lookup is not a simulation.
/// Monte-Carlo calls (non-empty `extra` shifts) always bypass the cache.
///
/// On a cache miss (or without a cache) the evaluation is *incremental*:
/// per-unit field samples and per-net parasitics are reused from scratch
/// buffers and recomputed only for units/nets that moved since the last
/// call. Results are bit-for-bit identical to a from-scratch evaluation.
/// The buffers belong to this evaluator alone: a clone shares the counter
/// and the cache but starts with empty scratch.
///
/// # Examples
///
/// ```
/// use breaksym_geometry::GridSpec;
/// use breaksym_layout::LayoutEnv;
/// use breaksym_lde::LdeModel;
/// use breaksym_netlist::circuits;
/// use breaksym_sim::Evaluator;
///
/// let env = LayoutEnv::sequential(circuits::five_transistor_ota(), GridSpec::square(12))?;
/// let eval = Evaluator::new(LdeModel::nonlinear(1.0, 3));
/// let m = eval.evaluate(&env)?;
/// assert!(m.offset_v.expect("OTA reports offset").is_finite());
/// assert!(m.gain_db.expect("OTA reports gain") > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Evaluator {
    lde: LdeModel,
    tech: ExtractionTech,
    bench: Testbench,
    counter: SimCounter,
    cache: Option<EvalCache>,
    /// Salt mixed into cache keys, derived from everything besides the
    /// placement that determines the metrics (LDE model, tech, options).
    /// Lets differently-configured evaluators share one cache safely.
    cache_salt: u64,
    scratch: Mutex<EvalScratch>,
}

impl Clone for Evaluator {
    /// Clones share the counter and the cache (both are shared handles)
    /// but start with fresh scratch buffers, so two clones never
    /// serialise on one lock.
    fn clone(&self) -> Self {
        Evaluator {
            lde: self.lde.clone(),
            tech: self.tech,
            bench: self.bench.clone(),
            counter: self.counter.clone(),
            cache: self.cache.clone(),
            cache_salt: self.cache_salt,
            scratch: Mutex::default(),
        }
    }
}

impl Evaluator {
    /// Creates an evaluator with default extraction and testbench options.
    pub fn new(lde: LdeModel) -> Self {
        let mut eval = Evaluator {
            lde,
            tech: ExtractionTech::default(),
            bench: Testbench::default(),
            counter: SimCounter::new(),
            cache: None,
            cache_salt: 0,
            scratch: Mutex::default(),
        };
        eval.refresh_cache_salt();
        eval
    }

    /// Overrides the extraction technology constants.
    pub fn with_tech(mut self, tech: ExtractionTech) -> Self {
        self.tech = tech;
        self.refresh_cache_salt();
        self
    }

    /// Overrides the testbench options.
    pub fn with_options(mut self, options: EvalOptions) -> Self {
        self.bench.options = options;
        self.refresh_cache_salt();
        self
    }

    /// Shares an external simulation counter (e.g. one owned by an
    /// optimisation run).
    pub fn with_counter(mut self, counter: SimCounter) -> Self {
        self.counter = counter;
        self
    }

    /// Attaches a shared [`EvalCache`]. Subsequent evaluations of an
    /// already-seen placement return the memoized metrics without running
    /// the simulator (and without incrementing the counter).
    pub fn with_cache(mut self, cache: EvalCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The simulation counter.
    pub fn counter(&self) -> &SimCounter {
        &self.counter
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&EvalCache> {
        self.cache.as_ref()
    }

    /// Statistics of the attached cache ([`None`] when uncached).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(EvalCache::stats)
    }

    /// The LDE model in use.
    pub fn lde(&self) -> &LdeModel {
        &self.lde
    }

    /// Recomputes the key salt covering every metric-determining input
    /// except the placement itself. `Debug` output covers every numeric
    /// field of these configs, which is exactly the identity we need.
    fn refresh_cache_salt(&mut self) {
        let mut h = DefaultHasher::new();
        format!("{:?}", self.lde).hash(&mut h);
        format!("{:?}", self.tech).hash(&mut h);
        format!("{:?}", self.bench.options).hash(&mut h);
        self.cache_salt = h.finish();
    }

    /// The memoization key of `env`'s current placement: its Zobrist
    /// fingerprint mixed with circuit and grid identity plus the
    /// evaluator's config salt, so one cache can serve multiple tasks.
    fn cache_key(&self, env: &LayoutEnv) -> u64 {
        let mut h = DefaultHasher::new();
        env.circuit().name().hash(&mut h);
        env.circuit().num_units().hash(&mut h);
        env.circuit().devices().len().hash(&mut h);
        env.spec().cols().hash(&mut h);
        env.spec().rows().hash(&mut h);
        env.spec().pitch_x().value().to_bits().hash(&mut h);
        env.spec().pitch_y().value().to_bits().hash(&mut h);
        h.finish() ^ env.fingerprint() ^ self.cache_salt
    }

    /// Evaluates the current placement of `env`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures (non-convergence, singular matrices) and
    /// testbench structural errors.
    pub fn evaluate(&self, env: &LayoutEnv) -> Result<Metrics, SimError> {
        self.evaluate_with_extra_shifts(env, &[])
    }

    /// Like [`Evaluator::evaluate`] with additional per-device shifts added
    /// on top of the systematic LDE shifts — the Monte-Carlo hook for
    /// random (Pelgrom) mismatch.
    ///
    /// `extra` must be empty or one entry per device. Calls with non-empty
    /// `extra` are never cached (the extra shifts are not part of the
    /// placement fingerprint).
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::evaluate`], plus [`SimError::BadCircuit`] when
    /// `extra` is non-empty and its length differs from the device count
    /// (nothing is simulated or counted then).
    pub fn evaluate_with_extra_shifts(
        &self,
        env: &LayoutEnv,
        extra: &[ParamShift],
    ) -> Result<Metrics, SimError> {
        // Failpoint: tests inject solver failures on the Nth evaluator
        // call, before the cache can answer — exactly where a flaky
        // simulator would surface to callers.
        if let Some(action) = breaksym_testkit::fault::hit(FAIL_EVALUATE) {
            if let Some(err) = injected_sim_error(&action) {
                return Err(err);
            }
        }
        let devices = env.circuit().devices().len();
        if !extra.is_empty() && extra.len() != devices {
            return Err(SimError::BadCircuit {
                reason: format!("{} extra shifts for {devices} devices", extra.len()),
            });
        }
        let mut guard = self.scratch.lock();
        if extra.is_empty() {
            if let Some(cache) = &self.cache {
                let key = self.cache_key(env);
                if let Some(metrics) = cache.get(key) {
                    // A memoized answer is not a simulation: the counter
                    // (the paper's "#simulations") stays untouched.
                    return Ok(metrics);
                }
                let metrics = self.solve_locked(env, extra, &mut guard)?;
                // Failpoint: a `Drop` here loses the memoization (eviction
                // pressure) — the metrics themselves are still returned.
                if !matches!(
                    breaksym_testkit::fault::hit(FAIL_CACHE_INSERT),
                    Some(breaksym_testkit::FaultAction::Drop)
                ) {
                    cache.insert(key, metrics);
                }
                return Ok(metrics);
            }
        }
        self.solve_locked(env, extra, &mut guard)
    }

    /// One real oracle call: LDE shifts → parasitics → testbench. Always
    /// increments the simulation counter. Incremental: reuses the scratch
    /// buffers, recomputing only what the placement delta requires.
    fn solve_locked(
        &self,
        env: &LayoutEnv,
        extra: &[ParamShift],
        scratch: &mut EvalScratch,
    ) -> Result<Metrics, SimError> {
        self.counter.increment();
        let circuit = env.circuit();

        let EvalScratch { lde, route, shifts, node_caps, ws } = scratch;

        let device_shifts = self.lde.device_shifts_into(env, lde);
        shifts.clear();
        shifts.extend_from_slice(device_shifts);
        // The caller checked that a non-empty `extra` is per-device.
        for (s, e) in shifts.iter_mut().zip(extra) {
            *s += *e;
        }

        // Routing effects folded into the simulation, as in the paper.
        let parasitics = route.estimate(env, &self.tech);
        node_caps.clear();
        node_caps.extend(parasitics.nets.iter().map(|n| (n.net, n.c_farads)));
        let total_length_um = parasitics.total_length_um;

        let mut metrics = self.bench.run_ws(circuit, shifts, node_caps, ws)?;
        metrics.area_um2 = env.area_um2();
        metrics.wirelength_um = total_length_um;
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_geometry::GridSpec;
    use breaksym_netlist::circuits;

    fn env_of(c: breaksym_netlist::Circuit, side: i32) -> LayoutEnv {
        LayoutEnv::sequential(c, GridSpec::square(side)).unwrap()
    }

    #[test]
    fn evaluates_all_three_benchmark_classes() {
        let eval = Evaluator::new(LdeModel::nonlinear(1.0, 5));

        let cm = eval.evaluate(&env_of(circuits::current_mirror_medium(), 16)).unwrap();
        assert!(cm.mismatch_pct.unwrap() >= 0.0);
        assert!(cm.power_w.unwrap() > 0.0);
        assert!(cm.area_um2 > 0.0);

        let ota = eval.evaluate(&env_of(circuits::folded_cascode_ota(), 18)).unwrap();
        assert!(ota.offset_v.unwrap().is_finite());
        assert!(
            ota.gain_db.unwrap() > 20.0,
            "folded cascode must have gain, got {:?}",
            ota.gain_db
        );
        assert!(ota.ugb_hz.unwrap() > 1e5);
        assert!(ota.phase_margin_deg.unwrap() > 0.0);

        let comp = eval.evaluate(&env_of(circuits::comparator(), 16)).unwrap();
        assert!(comp.offset_v.unwrap().is_finite());
        assert!(comp.delay_s.unwrap() > 0.0);
        assert!(comp.power_w.unwrap() > 0.0);

        assert_eq!(eval.counter().count(), 3);
    }

    #[test]
    fn zero_lde_means_near_zero_offset() {
        let eval = Evaluator::new(LdeModel::none());
        let m = eval.evaluate(&env_of(circuits::five_transistor_ota(), 12)).unwrap();
        assert!(
            m.offset_v.unwrap().abs() < 1e-4,
            "no LDE ⇒ (near) zero systematic offset, got {:?}",
            m.offset_v
        );
        let cm = eval.evaluate(&env_of(circuits::current_mirror_medium(), 16)).unwrap();
        assert!(cm.mismatch_pct.unwrap() < 0.5, "got {:?}", cm.mismatch_pct);
    }

    #[test]
    fn nonlinear_lde_creates_measurable_offset() {
        let eval = Evaluator::new(LdeModel::nonlinear(1.0, 11));
        let m = eval.evaluate(&env_of(circuits::five_transistor_ota(), 12)).unwrap();
        assert!(
            m.offset_v.unwrap().abs() > 1e-5,
            "strong LDE must produce visible offset, got {:?}",
            m.offset_v
        );
    }

    #[test]
    fn placement_changes_change_the_metrics() {
        let eval = Evaluator::new(LdeModel::nonlinear(1.0, 2));
        let mut env = env_of(circuits::current_mirror_medium(), 16);
        let before = eval.evaluate(&env).unwrap().mismatch_pct.unwrap();
        // Push the mirror group around a few times.
        let g = env.circuit().find_group("g_mirror").unwrap();
        for _ in 0..4 {
            let dirs = env.legal_group_moves(g);
            if dirs.is_empty() {
                break;
            }
            env.apply(breaksym_layout::GroupMove { group: g, dir: dirs[0] }.into()).unwrap();
        }
        let after = eval.evaluate(&env).unwrap().mismatch_pct.unwrap();
        assert_ne!(before, after, "moving a group must change mismatch");
        assert_eq!(eval.counter().count(), 2);
    }

    fn metric_bits(m: &Metrics) -> Vec<u64> {
        [
            m.mismatch_pct,
            m.offset_v,
            m.gain_db,
            m.ugb_hz,
            m.phase_margin_deg,
            m.cmrr_db,
            m.noise_nv_rthz,
            m.psrr_db,
            m.delay_s,
            m.power_w,
            Some(m.area_um2),
            Some(m.wirelength_um),
        ]
        .iter()
        .map(|v| v.unwrap_or(f64::NAN).to_bits())
        .collect()
    }

    #[test]
    fn cache_hits_skip_the_counter_and_return_identical_metrics() {
        let cache = crate::EvalCache::new(64);
        let eval = Evaluator::new(LdeModel::nonlinear(1.0, 5)).with_cache(cache.clone());
        let env = env_of(circuits::current_mirror_medium(), 16);

        let first = eval.evaluate(&env).unwrap();
        assert_eq!(eval.counter().count(), 1);
        let second = eval.evaluate(&env).unwrap();
        assert_eq!(eval.counter().count(), 1, "a cache hit is not a simulation");
        assert_eq!(metric_bits(&first), metric_bits(&second));
        let stats = eval.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cached_and_uncached_agree_across_moves() {
        let cached =
            Evaluator::new(LdeModel::nonlinear(1.0, 4)).with_cache(crate::EvalCache::new(64));
        let mut env = env_of(circuits::current_mirror_medium(), 16);
        for _ in 0..6 {
            // A fresh evaluator per step: no scratch reuse, no cache.
            let fresh = Evaluator::new(LdeModel::nonlinear(1.0, 4));
            let a = cached.evaluate(&env).unwrap();
            let b = fresh.evaluate(&env).unwrap();
            assert_eq!(metric_bits(&a), metric_bits(&b));
            let g = env.circuit().find_group("g_mirror").unwrap();
            let dirs = env.legal_group_moves(g);
            if dirs.is_empty() {
                break;
            }
            env.apply(breaksym_layout::GroupMove { group: g, dir: dirs[0] }.into()).unwrap();
        }
    }

    #[test]
    fn monte_carlo_extra_shifts_bypass_the_cache() {
        let cache = crate::EvalCache::new(64);
        let eval = Evaluator::new(LdeModel::none()).with_cache(cache.clone());
        let env = env_of(circuits::five_transistor_ota(), 12);
        let n = env.circuit().devices().len();
        let extra = vec![ParamShift::new(1e-3, 0.0, 0.0); n];
        eval.evaluate_with_extra_shifts(&env, &extra).unwrap();
        eval.evaluate_with_extra_shifts(&env, &extra).unwrap();
        assert_eq!(eval.counter().count(), 2, "MC draws must always solve");
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 0, "MC never touches the cache");
    }

    #[test]
    fn differently_configured_evaluators_can_share_one_cache() {
        let cache = crate::EvalCache::new(64);
        let env = env_of(circuits::current_mirror_medium(), 16);
        let a = Evaluator::new(LdeModel::nonlinear(1.0, 1)).with_cache(cache.clone());
        let b = Evaluator::new(LdeModel::nonlinear(1.0, 2)).with_cache(cache.clone());
        let ma = a.evaluate(&env).unwrap();
        let mb = b.evaluate(&env).unwrap();
        // Different LDE seeds → different metrics → must not collide.
        assert_ne!(metric_bits(&ma), metric_bits(&mb));
        assert_eq!(cache.stats().misses, 2, "distinct salts, distinct keys");
        // And each evaluator still hits its own entry.
        assert_eq!(metric_bits(&a.evaluate(&env).unwrap()), metric_bits(&ma));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn clone_shares_cache_but_not_scratch() {
        let cache = crate::EvalCache::new(64);
        let a = Evaluator::new(LdeModel::nonlinear(1.0, 8)).with_cache(cache.clone());
        let env = env_of(circuits::current_mirror_medium(), 16);
        a.evaluate(&env).unwrap();
        let b = a.clone();
        b.evaluate(&env).unwrap();
        assert_eq!(a.counter().count(), 1, "clone's lookup hits the shared cache");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn scratch_reused_across_circuits_is_bit_identical_to_fresh_scratch() {
        // One evaluator alternates between *different* circuits, repeatedly
        // — the worst case for stale incremental state. Every result must
        // match a fresh-evaluator solve bit for bit.
        let eval = Evaluator::new(LdeModel::nonlinear(1.0, 5));
        let mirror = env_of(circuits::current_mirror_medium(), 16);
        let ota = env_of(circuits::five_transistor_ota(), 12);
        for _ in 0..2 {
            for env in [&mirror, &ota, &ota, &mirror] {
                let reused = eval.evaluate(env).unwrap();
                let fresh = Evaluator::new(LdeModel::nonlinear(1.0, 5)).evaluate(env).unwrap();
                assert_eq!(metric_bits(&reused), metric_bits(&fresh));
            }
        }
    }

    #[test]
    fn extra_shifts_of_the_wrong_length_are_an_error() {
        let eval = Evaluator::new(LdeModel::none());
        let env = env_of(circuits::five_transistor_ota(), 12);
        let n = env.circuit().devices().len();
        for len in [n - 1, n + 1] {
            let extra = vec![ParamShift::new(1e-3, 0.0, 0.0); len];
            let err = eval.evaluate_with_extra_shifts(&env, &extra).unwrap_err();
            assert!(matches!(err, SimError::BadCircuit { .. }), "{len}: {err}");
        }
        assert_eq!(eval.counter().count(), 0, "a rejected call simulates nothing");
    }

    #[test]
    fn extra_shifts_add_on_top() {
        let eval = Evaluator::new(LdeModel::none());
        let env = env_of(circuits::five_transistor_ota(), 12);
        let n = env.circuit().devices().len();
        let mut extra = vec![ParamShift::ZERO; n];
        let m1 = env.circuit().find_device("M1").unwrap();
        extra[m1.index()] = ParamShift::new(5e-3, 0.0, 0.0);
        let shifted = eval.evaluate_with_extra_shifts(&env, &extra).unwrap();
        assert!(
            shifted.offset_v.unwrap().abs() > 1e-3,
            "a 5 mV input-device shift must appear as ≈5 mV offset, got {:?}",
            shifted.offset_v
        );
        // Input-pair Vth shift refers ≈1:1 to the input.
        assert!(shifted.offset_v.unwrap().abs() < 20e-3);
    }
}

#[cfg(test)]
mod cmrr_tests {
    use super::*;
    use breaksym_geometry::GridSpec;
    use breaksym_lde::ParamShift;
    use breaksym_netlist::circuits;

    #[test]
    fn cmrr_is_reported_and_degrades_with_mismatch() {
        let env =
            LayoutEnv::sequential(circuits::five_transistor_ota(), GridSpec::square(12)).unwrap();
        let eval = Evaluator::new(LdeModel::none());
        let matched = eval.evaluate(&env).unwrap();
        let cmrr_matched = matched.cmrr_db.expect("OTA reports CMRR");
        assert!(cmrr_matched > 20.0, "matched CMRR should be decent, got {cmrr_matched}");

        // A deliberate input-pair imbalance must reduce CMRR.
        let n = env.circuit().devices().len();
        let mut extra = vec![ParamShift::ZERO; n];
        let m1 = env.circuit().find_device("M1").unwrap();
        extra[m1.index()] = ParamShift::new(15e-3, 0.05, 0.0);
        let skewed = eval.evaluate_with_extra_shifts(&env, &extra).unwrap();
        let cmrr_skewed = skewed.cmrr_db.expect("still reported");
        assert!(
            cmrr_skewed < cmrr_matched,
            "mismatch must degrade CMRR ({cmrr_skewed} vs {cmrr_matched})"
        );
    }

    #[test]
    fn comparator_and_mirror_do_not_report_cmrr() {
        let eval = Evaluator::new(LdeModel::none());
        let comp = LayoutEnv::sequential(circuits::comparator(), GridSpec::square(16)).unwrap();
        assert!(eval.evaluate(&comp).unwrap().cmrr_db.is_none());
        let cm =
            LayoutEnv::sequential(circuits::current_mirror_medium(), GridSpec::square(16)).unwrap();
        assert!(eval.evaluate(&cm).unwrap().cmrr_db.is_none());
    }
}
