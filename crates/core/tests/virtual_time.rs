//! Deterministic elapsed-time accounting: the driver reads a virtual
//! `TestClock` that a fault plan steps from inside the evaluator — no
//! sleeps, no real time. A clock step shows in `elapsed_ms` and nowhere
//! else, and a sliced run carries the time of earlier slices in its
//! checkpoints.
//!
//! These tests arm the global failpoint registry, so they live in their own
//! test binary; every test takes a `FaultGuard` (even an empty one) so the
//! registry serialises them against each other.

use breaksym_core::runner::{Budget, Driver};
use breaksym_core::{
    MlmaConfig, MultiLevelPlacer, PlacementTask, RunCheckpoint, RunReport, SliceOutcome,
};
use breaksym_lde::LdeModel;
use breaksym_netlist::circuits;
use breaksym_sim::FAIL_EVALUATE;
use breaksym_testkit::{fault, FaultAction, FaultGuard, FaultPlan, TestClock};

fn task() -> PlacementTask {
    PlacementTask::new(circuits::diff_pair(), 10, LdeModel::nonlinear(1.0, 7))
}

fn cfg() -> MlmaConfig {
    MlmaConfig {
        episodes: 4,
        steps_per_episode: 10,
        max_evals: 250,
        seed: 1,
        ..MlmaConfig::default()
    }
}

fn placer() -> MultiLevelPlacer {
    MultiLevelPlacer::new(&task().initial_env().unwrap(), cfg())
}

/// A fresh clock plus a plan that advances it by 200 ms at the 6th
/// evaluator call; the guard keeps the plan installed.
fn midflight_advance() -> (TestClock, FaultGuard) {
    let clock = TestClock::new();
    let plan = FaultPlan::new().with(FAIL_EVALUATE, 6, FaultAction::AdvanceClockMs { ms: 200 });
    let guard = fault::install_with_clock(plan, clock.clone());
    (clock, guard)
}

/// One driven run under a fresh clock that steps 200 ms mid-flight.
fn run_with_midflight_advance() -> RunReport {
    let (clock, _guard) = midflight_advance();
    Driver::new(Budget::from_mlma(&cfg()))
        .with_clock(clock.to_shared())
        .run(&task(), &mut placer())
        .unwrap()
}

/// One driven run under a clock that never moves.
fn run_with_frozen_clock() -> RunReport {
    // Quiesce the registry (other tests in this binary install real plans).
    let _guard = fault::install(FaultPlan::new());
    Driver::new(Budget::from_mlma(&cfg()))
        .with_clock(TestClock::new().to_shared())
        .run(&task(), &mut placer())
        .unwrap()
}

fn assert_same_search(got: &RunReport, want: &RunReport, label: &str) {
    assert_eq!(got.evaluations, want.evaluations, "{label}");
    assert_eq!(got.best_cost.to_bits(), want.best_cost.to_bits(), "{label}");
    assert_eq!(got.trajectory, want.trajectory, "{label}");
    assert_eq!(got.best_placement, want.best_placement, "{label}");
}

#[test]
fn elapsed_is_virtual_and_a_clock_step_changes_no_verdict() {
    let stepped = run_with_midflight_advance();
    // The 200 ms step lands mid-run (evaluator call 6): the report shows
    // exactly the virtual time, and the run goes on long after the step.
    assert_eq!(stepped.elapsed_ms, 200, "elapsed is virtual, not wall");
    assert!(stepped.evaluations > 100, "{} evals", stepped.evaluations);
    assert!(stepped.best_cost <= stepped.initial_cost);

    // Time never steers the search: bit-identical to a frozen-clock run.
    let frozen = run_with_frozen_clock();
    assert_eq!(frozen.elapsed_ms, 0);
    assert_same_search(&stepped, &frozen, "stepped vs frozen");

    // Same seed, fresh clock and plan: bit-identical again.
    let second = run_with_midflight_advance();
    assert_eq!(second.elapsed_ms, stepped.elapsed_ms);
    assert_same_search(&second, &stepped, "replay");
}

#[test]
fn sliced_run_carries_elapsed_time_across_resumes() {
    let frozen = run_with_frozen_clock();
    let (clock, _guard) = midflight_advance();
    let driver = Driver::new(Budget::from_mlma(&cfg())).with_clock(clock.to_shared());

    // Slices of 20 evals: the clock steps inside the first one (its setup
    // is evaluator call 1, so call 6 is the slice's 5th evaluation), and
    // every later slice spends no virtual time at all.
    let mut outcome = driver.run_slice(&task(), &mut placer(), 20).unwrap();
    let mut pauses = 0;
    let report = loop {
        match outcome {
            SliceOutcome::Finished(r) => break *r,
            SliceOutcome::Paused(ckpt) => {
                pauses += 1;
                assert_eq!(ckpt.elapsed_ms, 200, "pause {pauses} carries the first slice's step");
                // Each resume goes through JSON into a fresh placer, as a
                // serving worker's would.
                let parsed = RunCheckpoint::from_json(&ckpt.to_json().unwrap()).unwrap();
                outcome = driver.resume_slice(&task(), &mut placer(), &parsed, 20).unwrap();
            }
        }
    };
    assert!(pauses >= 2, "the step must lie slices before the end, got {pauses} pauses");
    // The last slice added nothing, so its 200 ms came from the checkpoint.
    assert_eq!(report.elapsed_ms, 200);
    assert_same_search(&report, &frozen, "sliced vs frozen");
}
