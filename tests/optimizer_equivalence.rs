//! Pinned behaviour of the one search loop, `Driver::drive`.
//!
//! `golden/run_fingerprints.json` pins what the driver produces for every
//! search method on the paper's benchmark circuits — counts, exact cost
//! bits, trajectories, best placements and learned policies — so any change
//! to a method's search shows up digit by digit. The checkpoint/resume and
//! portfolio paths must reproduce the plain run bit for bit.

use breaksym::anneal::SaConfig;
use breaksym::core::{
    run_portfolio, runner, Budget, Driver, MethodSpec, MlmaConfig, MultiLevelPlacer, PlacementTask,
    RunCheckpoint, SliceOutcome,
};
use breaksym::lde::LdeModel;
use breaksym::netlist::circuits;
use serde_json::{json, Value};

fn benchmark_tasks() -> Vec<(&'static str, PlacementTask)> {
    vec![
        (
            "CM",
            PlacementTask::new(circuits::current_mirror_medium(), 16, LdeModel::nonlinear(1.0, 7)),
        ),
        (
            "COMP",
            PlacementTask::new(circuits::comparator(), 16, LdeModel::nonlinear(1.0, 7)),
        ),
        (
            "OTA",
            PlacementTask::new(circuits::folded_cascode_ota(), 18, LdeModel::nonlinear(1.0, 7)),
        ),
    ]
}

fn quick_q(seed: u64) -> MlmaConfig {
    MlmaConfig { episodes: 3, steps_per_episode: 8, max_evals: 120, seed, ..MlmaConfig::default() }
}

fn quick_sa(seed: u64) -> SaConfig {
    SaConfig { max_evals: 120, seed, ..SaConfig::default() }
}

/// Every run pinned in `golden/run_fingerprints.json`: the three benchmark
/// circuits under MLMA, SA and random search with two seeds each, the flat
/// ablation on CM, and one MLMA run that stops at a primary target. The
/// budgets carry the Q placers through episodes 1 and 2, which restart from
/// the best placement, and SA past its calibration probes and a cooling
/// step.
fn pinned_runs() -> Vec<(String, PlacementTask, MethodSpec)> {
    let q = |seed| MlmaConfig {
        episodes: 4,
        steps_per_episode: 4,
        max_evals: 150,
        seed,
        ..MlmaConfig::default()
    };
    let sa = |seed| SaConfig { max_evals: 120, seed, ..SaConfig::default() };
    let mut runs = Vec::new();
    for (name, task) in benchmark_tasks() {
        for seed in [11u64, 12] {
            for spec in [
                MethodSpec::Mlma(q(seed)),
                MethodSpec::Sa(sa(seed)),
                MethodSpec::Random(sa(seed)),
            ] {
                runs.push((format!("{name}/{}/{seed}", spec.label()), task.clone(), spec));
            }
            if name == "CM" {
                let spec = MethodSpec::Flat(q(seed));
                runs.push((format!("{name}/{}/{seed}", spec.label()), task.clone(), spec));
            }
        }
    }
    let (name, task) = benchmark_tasks().swap_remove(0);
    let spec = MethodSpec::Mlma(MlmaConfig { target_primary: Some(TARGET_CM), ..q(11) });
    runs.push((format!("{name}/{}/11/target", spec.label()), task, spec));
    runs
}

/// A CM mismatch target (%) the MLMA run first meets in its episode 2.
const TARGET_CM: f64 = 2.5;

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// What a run's report pins: every search-determined field, floats as exact
/// bits, and for MLMA the greedy rollout of its learned tables. Nothing here
/// depends on a `DefaultHasher` value, only on key equality.
fn fingerprint(task: &PlacementTask, spec: &MethodSpec) -> Value {
    let mut opt = spec.build(task).unwrap();
    let r = Driver::new(spec.budget()).run(task, opt.as_mut()).unwrap();
    let trajectory: Vec<Value> = r.trajectory.iter().map(|&(e, c)| json!([e, bits(c)])).collect();
    let placement: Vec<[i32; 2]> =
        r.best_placement.positions().iter().map(|p| [p.x, p.y]).collect();
    let mut fp = json!({
        "method": r.method,
        "evaluations": r.evaluations,
        "simulations": r.simulations,
        "reached_target": r.reached_target,
        "sims_to_target": r.sims_to_target,
        "qtable_states": r.qtable_states,
        "initial_cost": bits(r.initial_cost),
        "best_cost": bits(r.best_cost),
        "best_primary": bits(r.best_metrics.primary()),
        "trajectory": trajectory,
        "best_placement": placement
    });
    if let MethodSpec::Mlma(_) = spec {
        let placer: MultiLevelPlacer = serde_json::from_value(opt.snapshot().unwrap()).unwrap();
        let mut env = task.initial_env().unwrap();
        let moves: Vec<String> =
            placer.greedy_rollout(&mut env, 8).iter().map(ToString::to_string).collect();
        fp.as_object_mut().unwrap().insert("greedy_rollout".into(), json!(moves));
    }
    fp
}

/// Runs every pinned run that `select` picks and compares its fingerprint
/// with the pin, field by field. The pin file must hold exactly the runs of
/// `pinned_runs`, so no pin goes unchecked.
fn assert_pins_match(select: fn(&MethodSpec) -> bool) {
    let pins: Value = serde_json::from_str(include_str!("golden/run_fingerprints.json")).unwrap();
    let pins = pins.as_object().unwrap();
    let runs = pinned_runs();
    assert_eq!(pins.len(), runs.len(), "one pin per run");
    for (id, task, spec) in runs.iter().filter(|(_, _, spec)| select(spec)) {
        let want = pins.get(id).unwrap_or_else(|| panic!("{id}: not pinned"));
        let got = fingerprint(task, spec);
        let got = got.as_object().unwrap();
        assert_eq!(got.len(), want.as_object().unwrap().len(), "{id}: pinned fields");
        for (field, value) in got.iter() {
            assert_eq!(value, &want[field.as_str()], "{id}: {field}");
        }
    }
}

/// The MLMA, SA and random-search pins were generated while the
/// closure-driven `run` methods still existed and matched the driver bit for
/// bit, so they hold what those loops produced on every benchmark circuit.
#[test]
fn driver_reproduces_the_closure_loops_on_every_benchmark() {
    assert_pins_match(|spec| !matches!(spec, MethodSpec::Flat(_)));
}

/// The same for the flat ablation's closure loop, pinned on CM.
#[test]
fn driver_reproduces_the_flat_closure_loop() {
    assert_pins_match(|spec| matches!(spec, MethodSpec::Flat(_)));
}

#[test]
fn checkpoint_roundtrip_resumes_bit_identically() {
    let task =
        PlacementTask::new(circuits::current_mirror_medium(), 16, LdeModel::nonlinear(1.0, 7));
    let cfg = quick_q(19);
    let full = runner::run_mlma(&task, &cfg).unwrap();

    let mut placer = MultiLevelPlacer::new(&task.initial_env().unwrap(), cfg);
    let outcome = Driver::new(Budget::from_mlma(&cfg)).run_slice(&task, &mut placer, 50);
    let SliceOutcome::Paused(ckpt) = outcome.unwrap() else {
        panic!("a 120-eval run pauses after a 50-eval slice");
    };
    // The initial evaluation plus the slice's 50.
    assert_eq!(ckpt.evals, 51);

    // Serialise, parse, resume with a *fresh* placer.
    let json = ckpt.to_json().unwrap();
    let parsed = RunCheckpoint::from_json(&json).unwrap();
    // Serde-skipped placement indices are rebuilt by `resume`, so the
    // parsed checkpoint only matches field-wise on the serialised state.
    assert_eq!(parsed.method, ckpt.method);
    assert_eq!(parsed.evals, ckpt.evals);
    assert_eq!(parsed.tracker.trajectory, ckpt.tracker.trajectory);
    assert_eq!(parsed.optimizer, ckpt.optimizer);
    let mut fresh = MultiLevelPlacer::new(&task.initial_env().unwrap(), cfg);
    let resumed = Driver::new(Budget::from_mlma(&cfg)).resume(&task, &mut fresh, &parsed).unwrap();

    assert_eq!(resumed.best_cost.to_bits(), full.best_cost.to_bits());
    assert_eq!(resumed.trajectory, full.trajectory);
    assert_eq!(resumed.evaluations, full.evaluations);
    assert_eq!(resumed.best_placement, full.best_placement);
}

#[test]
fn portfolio_is_bit_identical_across_thread_counts() {
    let task =
        PlacementTask::new(circuits::current_mirror_medium(), 16, LdeModel::nonlinear(1.0, 7));
    let methods = [MethodSpec::Mlma(quick_q(0)), MethodSpec::Sa(quick_sa(0))];
    let seeds = [21u64, 22];
    let sequential = run_portfolio(&task, &methods, &seeds, 1).unwrap();
    let parallel = run_portfolio(&task, &methods, &seeds, 4).unwrap();
    assert_eq!(sequential.len(), 4);
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.method, p.method);
        assert_eq!(s.best_cost.to_bits(), p.best_cost.to_bits(), "{}", s.method);
        assert_eq!(s.trajectory, p.trajectory, "{}", s.method);
        assert_eq!(s.evaluations, p.evaluations, "{}", s.method);
        assert_eq!(s.best_placement, p.best_placement, "{}", s.method);
    }
    // The portfolio jobs also match the stand-alone wrappers: the shared
    // cache changes accounting, never trajectories.
    let solo = runner::run_mlma(&task, &quick_q(0).with_seed(21)).unwrap();
    assert_eq!(sequential[0].best_cost.to_bits(), solo.best_cost.to_bits());
    assert_eq!(sequential[0].trajectory, solo.trajectory);
}

/// The wall-clock acceptance check of the ISSUE: ≥ 2× speedup fanning an
/// OTA multi-seed sweep over 4 threads. Timing-sensitive, so ignored by
/// default; run with `cargo test -- --ignored` on a quiet ≥ 4-core box.
#[test]
#[ignore = "wall-clock assertion; needs a quiet multi-core machine"]
fn portfolio_speedup_on_ota_multi_seed_sweep() {
    let task = PlacementTask::new(circuits::folded_cascode_ota(), 18, LdeModel::nonlinear(1.0, 7));
    let cfg =
        MlmaConfig { episodes: 20, steps_per_episode: 10, max_evals: 600, ..MlmaConfig::default() };
    let methods = [MethodSpec::Mlma(cfg)];
    let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];

    let t0 = std::time::Instant::now();
    let sequential = run_portfolio(&task, &methods, &seeds, 1).unwrap();
    let sequential_ms = t0.elapsed().as_millis() as f64;
    let t1 = std::time::Instant::now();
    let parallel = run_portfolio(&task, &methods, &seeds, 4).unwrap();
    let parallel_ms = t1.elapsed().as_millis() as f64;

    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.best_cost.to_bits(), p.best_cost.to_bits());
        assert_eq!(s.trajectory, p.trajectory);
    }
    let speedup = sequential_ms / parallel_ms.max(1.0);
    assert!(
        speedup >= 2.0,
        "4 threads over 8 OTA seeds: {sequential_ms:.0} ms -> {parallel_ms:.0} ms ({speedup:.2}x < 2x)"
    );
}
