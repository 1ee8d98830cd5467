//! Fault-injection and chaos tests for the serving engine.
//!
//! Everything here arms the *global* failpoint registry, so these tests
//! live in their own test binary (a separate process from the ordinary
//! service tests); within the binary the `FaultGuard` serialises them.
//! Timing-sensitive scenarios run on a [`TestClock`] stepped explicitly
//! or from inside a fault trigger — no sleeps longer than a 5 ms poll.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use breaksym_core::{MethodSpec, MlmaConfig};
use breaksym_serve::chaos::{run_chaos, ChaosConfig};
use breaksym_serve::{
    HttpServer, JobSpec, JobState, ServeConfig, ServeEngine, ServeError, TaskSpec,
    FAIL_HTTP_RESPOND, FAIL_SLICE,
};
use breaksym_sim::FAIL_EVALUATE;
use breaksym_testkit::{fault, FaultAction, FaultPlan, TestClock};

fn quick_cfg() -> MlmaConfig {
    MlmaConfig { episodes: 4, steps_per_episode: 10, max_evals: 120, ..MlmaConfig::default() }
}

/// Effectively endless on the test's timescale: only cancel, drain,
/// timeout, or an injected fault ends it.
fn long_cfg() -> MlmaConfig {
    MlmaConfig {
        episodes: 5_000,
        steps_per_episode: 20,
        max_evals: 2_000_000,
        ..MlmaConfig::default()
    }
}

fn long_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(long_cfg()));
    spec.seed = Some(seed);
    spec
}

#[test]
fn first_slice_longer_than_the_timeout_still_times_out() {
    // The 400-eval first slice "takes" 200 virtual ms — injected by a
    // fault trigger at the 5th evaluator call, mid-slice — against a
    // 150 ms job timeout. The old accounting read elapsed time from the
    // *last checkpoint* — 0 until a slice completed — so a job like this
    // sailed straight past its timeout; the clock-threaded engine must
    // time it out at the first slice boundary.
    let clock = TestClock::new();
    let plan = FaultPlan::new().with(FAIL_EVALUATE, 5, FaultAction::AdvanceClockMs { ms: 200 });
    let _guard = fault::install_with_clock(plan, clock.clone());

    let engine = ServeEngine::start_with_clock(
        ServeConfig { workers: 1, ..ServeConfig::default() },
        clock.to_shared(),
    );
    let handle = engine.handle();
    let mut spec = long_spec(21);
    spec.slice_evals = Some(400);
    spec.timeout_ms = Some(150);
    let id = handle.submit(spec).unwrap();

    let done = handle.wait(id, Duration::from_secs(120)).unwrap();
    match done.state {
        // Timed out at the first slice boundary, keeping the checkpoint.
        JobState::TimedOut { resumable } => assert!(resumable),
        other => panic!("expected TimedOut, got {other:?}"),
    }
    let ckpt = handle.checkpoint(id).unwrap().expect("timed-out job keeps its checkpoint");
    assert!(ckpt.evals > 0);
    // The checkpoint's elapsed time is exactly the virtual advance —
    // deterministic, where real time would wobble.
    assert_eq!(ckpt.elapsed_ms, 200);
    match handle.report(id) {
        Err(ServeError::NotReady { reason }) => {
            assert!(reason.contains("timed out"), "{reason}")
        }
        other => panic!("expected NotReady, got {other:?}"),
    }
    let stats = handle.stats();
    assert_eq!(stats.jobs_timed_out, 1);
    assert_eq!(stats.jobs_failed, 0);
    engine.shutdown();
}

#[test]
fn slice_panic_becomes_a_failed_job_and_the_worker_survives() {
    // The panic fires on the 2nd slice-boundary hit: one slice completes
    // (leaving a checkpoint), then the optimizer "panics" mid-job.
    let guard = fault::install(FaultPlan::new().with(
        FAIL_SLICE,
        2,
        FaultAction::Panic { msg: "blown gasket".into() },
    ));
    let engine =
        ServeEngine::start(ServeConfig { workers: 1, slice_evals: 20, ..ServeConfig::default() });
    let handle = engine.handle();

    let id = handle.submit(long_spec(41)).unwrap();
    let done = handle.wait(id, Duration::from_secs(120)).unwrap();
    match &done.state {
        JobState::Failed { error } => {
            assert!(error.contains("panicked mid-slice"), "{error}");
            assert!(error.contains("blown gasket"), "{error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // The panic is terminal but not destructive: the last slice-boundary
    // checkpoint is still fetchable.
    let ckpt = handle.checkpoint(id).unwrap().expect("panicked job keeps its checkpoint");
    assert!(ckpt.evals >= 20);
    let stats = handle.stats();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_panicked, 1);

    // The worker thread caught the unwind and lives on: with the faults
    // disarmed it picks up and completes the next job. The empty plan
    // keeps the registry held, so this job's evaluator calls cannot count
    // against another test's plan.
    drop(guard);
    let _quiet = fault::install(FaultPlan::new());
    let mut spec = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(quick_cfg()));
    spec.seed = Some(5);
    let next = handle.submit(spec).unwrap();
    let done = handle.wait(next, Duration::from_secs(120)).unwrap();
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    engine.shutdown();
}

#[test]
fn injected_slice_failure_fails_the_job_cleanly() {
    let _guard = fault::install(FaultPlan::new().with(
        FAIL_SLICE,
        1,
        FaultAction::Fail { what: "wedged".into() },
    ));
    let engine =
        ServeEngine::start(ServeConfig { workers: 1, slice_evals: 20, ..ServeConfig::default() });
    let handle = engine.handle();

    let id = handle.submit(long_spec(43)).unwrap();
    let done = handle.wait(id, Duration::from_secs(120)).unwrap();
    match &done.state {
        JobState::Failed { error } => {
            assert!(error.contains("injected slice failure: wedged"), "{error}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    let stats = handle.stats();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_panicked, 0, "an error return is not a panic");
    engine.shutdown();
}

#[test]
fn http_responder_drop_failpoint_severs_the_connection() {
    let engine = ServeEngine::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut server = HttpServer::bind(engine.handle(), "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let _guard = fault::install(FaultPlan::new().with(FAIL_HTTP_RESPOND, 1, FaultAction::Drop));

    // First request: routed and served, but the response is dropped on
    // the floor — the client reads EOF with zero payload bytes.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(response.is_empty(), "dropped connection must carry no response: {response:?}");

    // The trigger is spent; the next request is served normally.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    server.stop();
    engine.shutdown();
}

#[test]
fn wait_deadlines_are_virtual_under_a_test_clock() {
    // Quiesce the registry so this test serialises with the others.
    let _guard = fault::install(FaultPlan::new());
    let clock = TestClock::new();
    let engine = ServeEngine::start_with_clock(
        ServeConfig { workers: 1, slice_evals: 16, ..ServeConfig::default() },
        clock.to_shared(),
    );
    let handle = engine.handle();
    let id = handle.submit(long_spec(31)).unwrap();

    // A 100 ms wait on a frozen clock never expires on its own; it
    // expires exactly when virtual time passes the deadline, because the
    // clock's waker unparks the waiter to re-check.
    let waiter = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.wait(id, Duration::from_millis(100)))
    };
    let bail = Instant::now() + Duration::from_secs(30);
    while !waiter.is_finished() {
        assert!(Instant::now() < bail, "the virtual deadline never fired");
        clock.advance_ms(150);
        std::thread::sleep(Duration::from_millis(5));
    }
    match waiter.join().unwrap() {
        Err(ServeError::NotReady { .. }) => {}
        other => panic!("expected NotReady from an expired virtual deadline, got {other:?}"),
    }

    handle.cancel(id).unwrap();
    let ended = handle.wait(id, Duration::from_secs(120)).unwrap();
    assert!(ended.state.is_terminal(), "{:?}", ended.state);
    engine.shutdown();
}

#[test]
fn chaos_invariants_hold_and_replay_identically() {
    let cfg = ChaosConfig { seed: 1, jobs: 4, faults: 4 };
    let first = run_chaos(&cfg);
    assert!(first.ok(), "invariants violated: {:#?}", first.invariants);
    let second = run_chaos(&cfg);
    assert_eq!(first, second, "chaos must replay bit-identically from its seed");
}

/// The nightly soak: the full chaos harness over a fixed seed matrix,
/// each seed run twice to prove determinism. Minutes of runtime, so it is
/// ignored by default; CI's scheduled job runs it with `--ignored`.
#[test]
#[ignore = "chaos soak (minutes); run with --ignored or via the nightly CI job"]
fn chaos_soak_fixed_seed_matrix() {
    for seed in [0u64, 1, 2, 3, 5, 8, 13, 21] {
        let cfg = ChaosConfig { seed, ..ChaosConfig::default() };
        let first = run_chaos(&cfg);
        assert!(first.ok(), "seed {seed}: invariants violated: {:#?}", first.invariants);
        let second = run_chaos(&cfg);
        assert_eq!(first, second, "seed {seed} must replay identically");
    }
}
