//! Integration tests for `breaksym-cluster`: a real fleet of serve nodes
//! behind real sockets, one coordinator, and the failure modes the crate
//! exists for — node death, resume on survivors, deterministic chaos.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use breaksym_cluster::{
    run_cluster_chaos, ClusterChaosConfig, ClusterConfig, ClusterHandle, Coordinator, HashRing,
    NodeClient, WalRecord, WalStore, FAIL_FORWARD, FAIL_HEARTBEAT, FAIL_REBALANCE, FAIL_STATS,
};
use breaksym_core::{Driver, MethodSpec, MlmaConfig, RunCheckpoint, RunReport, SliceOutcome};
use breaksym_serve::{
    Healthz, HttpServer, JobExport, JobId, JobSpec, JobState, ServeConfig, ServeEngine, ServeError,
    SubmitResponse, TaskSpec, FAIL_SLICE,
};
use breaksym_testkit::{fault, FaultAction, FaultPlan, FaultTrigger, TestClock};

/// The fault registry is process-global, and several tests here arm it
/// (directly or via the chaos harness). Running them concurrently would
/// let one test's coordinator consume another's failpoint hits, so every
/// test in this binary takes this lock first.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A diff-pair MLMA job whose `max_evals` budget, not its episode
/// schedule, ends the run, so a kill lands mid-run.
fn job(seed: u64, max_evals: u64, slice: u64) -> JobSpec {
    let cfg = MlmaConfig {
        episodes: 1_000,
        steps_per_episode: 6,
        max_evals,
        seed,
        ..MlmaConfig::default()
    };
    let mut spec = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(cfg));
    spec.slice_evals = Some(slice);
    spec
}

/// A plan that pauses `ms` before every slice the fleet runs while it
/// is installed.
fn pausing_slices(ms: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.triggers.push(FaultTrigger {
        site: FAIL_SLICE.to_string(),
        at: 1,
        count: 100_000,
        action: FaultAction::DelayMs { ms },
    });
    plan
}

/// Adds to `plan` a 100 ms pause before every slice. Jobs then crawl
/// from one slice boundary to the next, so a scripted heartbeat history
/// cannot race a job to its finish; dropping the plan's guard releases
/// them.
fn holding_slices(mut plan: FaultPlan) -> FaultPlan {
    plan.triggers.extend(pausing_slices(100).triggers);
    plan
}

/// Waits, with virtual time frozen, until no heartbeat is between its
/// two node probes. Installing a plan resets the hit counters, and a
/// beat straddling the install would consume hits out of alignment; a
/// plan installed after this counts heartbeat hits from a beat boundary.
/// Needs a 2-node fleet and an installed plan (which counts the hits).
fn settle_beats() {
    thread::sleep(Duration::from_millis(50));
    assert!(poll_until(Duration::from_secs(10), || fault::hits(FAIL_HEARTBEAT).is_multiple_of(2)));
}

struct Node {
    engine: ServeEngine,
    server: HttpServer,
}

fn fleet(n: usize) -> (Vec<Node>, Vec<String>) {
    fleet_of(n, 1)
}

fn fleet_of(n: usize, workers: usize) -> (Vec<Node>, Vec<String>) {
    let mut nodes = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let engine = ServeEngine::start(ServeConfig { workers, ..ServeConfig::default() });
        let server = HttpServer::bind(engine.handle(), "127.0.0.1:0").expect("node binds");
        addrs.push(server.addr().to_string());
        nodes.push(Node { engine, server });
    }
    (nodes, addrs)
}

fn teardown(nodes: Vec<Node>) {
    for mut node in nodes {
        node.server.stop();
        node.engine.shutdown();
    }
}

fn poll_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if done() {
            return true;
        }
        thread::sleep(Duration::from_millis(5));
    }
    done()
}

fn state_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "breaksym-cluster-test-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The spec executed directly on a fresh driver — the uninterrupted
/// answer a cluster-served report must match bit for bit.
fn direct_report(spec: &JobSpec) -> RunReport {
    let task = spec.task.resolve().expect("task resolves");
    let method = match spec.seed {
        Some(seed) => spec.method.clone().with_seed(seed),
        None => spec.method.clone(),
    };
    let mut opt = method.build(&task).expect("method builds");
    let mut budget = method.budget();
    if let Some(max_evals) = spec.max_evals {
        budget.max_evals = max_evals;
    }
    Driver::new(budget).run(&task, opt.as_mut()).expect("direct run")
}

/// `spec` resumed directly from `checkpoint` on a fresh driver, as a node
/// resumes a submitted checkpoint.
fn direct_resume(spec: &JobSpec, checkpoint: &RunCheckpoint) -> RunReport {
    let task = spec.task.resolve().expect("task resolves");
    let (method, budget) = spec.resolved_method();
    let mut opt = method.build(&task).expect("method builds");
    Driver::new(budget)
        .resume(&task, opt.as_mut(), checkpoint)
        .expect("direct resume")
}

fn assert_bit_identical(report: &RunReport, direct: &RunReport) {
    assert_eq!(report.evaluations, direct.evaluations);
    assert_eq!(report.best_cost.to_bits(), direct.best_cost.to_bits());
    assert_eq!(report.trajectory, direct.trajectory);
    assert_eq!(report.best_placement, direct.best_placement);
}

#[test]
fn node_client_keeps_the_connection_alive() {
    let _serial = serial();
    let (nodes, addrs) = fleet(1);
    let mut client = NodeClient::new(addrs[0].clone(), Duration::from_secs(2));
    for _ in 0..3 {
        let resp = client.get("/healthz").expect("healthz");
        assert_eq!(resp.status, 200);
        let healthz: Healthz = resp.json().expect("healthz parses");
        assert!(healthz.ok);
    }
    assert_eq!(client.reconnects(), 1, "three GETs must ride one connection");
    teardown(nodes);
}

/// A fake node that answers one request per connection with each of
/// `responses` in turn, then closes.
fn fake_node(responses: &'static [&'static str]) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("fake node binds");
    let addr = listener.local_addr().expect("fake node addr").to_string();
    let server = thread::spawn(move || {
        for response in responses {
            let (mut stream, _) = listener.accept().expect("fake node accepts");
            let mut request = Vec::new();
            let mut byte = [0u8; 1];
            while !request.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap_or(0) == 1 {
                request.push(byte[0]);
            }
            stream.write_all(response.as_bytes()).expect("fake node answers");
        }
    });
    (addr, server)
}

/// A response whose body cannot be framed is an error, never an empty
/// body whose bytes would be read as the next response.
#[test]
fn node_client_refuses_a_response_it_cannot_frame() {
    let (addr, server) = fake_node(&[
        "HTTP/1.1 200 OK\r\nContent-Length: 7x\r\n\r\n{\"a\":1}",
        "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello",
    ]);
    let mut client = NodeClient::new(addr, Duration::from_secs(2));
    for case in ["malformed length", "conflicting lengths"] {
        let err = client.request("GET", "/healthz", None).expect_err(case);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
    }
    assert_eq!(client.reconnects(), 2, "a refused response must drop the connection");
    server.join().expect("fake node exits");
}

#[test]
fn coordinator_routes_jobs_and_aggregates_stats() {
    let _serial = serial();
    let (nodes, addrs) = fleet(2);
    let coordinator = Coordinator::start(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(50),
            rpc_timeout: Duration::from_secs(2),
            ..ClusterConfig::default()
        },
    );
    let handle = coordinator.handle();

    let ids: Vec<_> = (0..3).map(|i| handle.submit(job(i, 60, 16)).expect("submit")).collect();
    for &id in &ids {
        let done = handle.wait(id, Duration::from_secs(60)).expect("job settles");
        assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
        let report = handle.report(id).expect("report fetchable");
        assert!(report.best_cost <= report.initial_cost);
    }

    let stats = handle.stats();
    assert_eq!(stats.nodes_total, 2);
    assert_eq!(stats.nodes_alive, 2);
    assert_eq!(stats.jobs_routed, 3);
    assert_eq!(stats.jobs_done, 3);
    assert_eq!(stats.node_deaths, 0);
    assert_eq!(stats.fold.jobs_done, 3, "fold must sum node counters");
    assert!(handle.healthz().ok);
    assert_eq!(handle.export_jobs().len(), 3);

    coordinator.shutdown();
    teardown(nodes);
}

/// A task no node can resolve is refused by the node the submission is
/// forwarded to, and its 400 reaches the client as the same
/// [`ServeError::BadRequest`]; nothing is routed.
#[test]
fn an_unresolvable_task_is_a_bad_request_end_to_end() {
    let _serial = serial();
    let (nodes, addrs) = fleet(2);
    let coordinator = Coordinator::start(addrs, ClusterConfig::default());
    let handle = coordinator.handle();

    let mut spec = job(1, 60, 16);
    spec.task = TaskSpec::benchmark("no_such_circuit", 7);
    match handle.submit(spec) {
        Err(ServeError::BadRequest { reason }) => assert!(reason.contains("no_such_circuit")),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let stats = handle.stats();
    assert_eq!((stats.jobs_routed, stats.reroutes), (0, 0));
    assert!(handle.inspect().is_empty());

    coordinator.shutdown();
    teardown(nodes);
}

/// Each node's bounded queue is the cluster's backpressure valve: when a
/// submission's first-choice node is full, its 429 reaches the client as
/// the node's own [`ServeError::QueueFull`]. The submission takes no
/// detour to the node with room, and nothing is routed or rerouted.
#[test]
fn a_full_first_choice_node_refuses_the_submission_end_to_end() {
    let _serial = serial();
    let mut nodes = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let engine =
            ServeEngine::start(ServeConfig { workers: 1, queue_cap: 1, ..ServeConfig::default() });
        let server = HttpServer::bind(engine.handle(), "127.0.0.1:0").expect("node binds");
        addrs.push(server.addr().to_string());
        nodes.push(Node { engine, server });
    }
    let coordinator = Coordinator::start(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(50),
            rpc_timeout: Duration::from_secs(2),
            ..ClusterConfig::default()
        },
    );
    let handle = coordinator.handle();
    let hold = fault::install(holding_slices(FaultPlan::new()));

    // Cluster ids count up from 1 and route by the coordinator's ring
    // (16 virtual nodes per node). The first two ids routed to `full`
    // fill it, one job running and one queued; the third meets the full
    // queue. Jobs routed to the other node are cancelled as they come,
    // so that node keeps room a detour could use.
    let ring = HashRing::new(2, 16);
    let full = ring.preferred(1).expect("the ring has nodes");
    let to_full: Vec<u64> = (1..).filter(|&id| ring.preferred(id) == Some(full)).take(3).collect();
    for id in 1..to_full[2] {
        let submitted = handle.submit(job(id, 600, 8));
        if !to_full.contains(&id) {
            if let Ok(other) = submitted {
                handle.cancel(other).expect("cancel");
            }
            continue;
        }
        assert_eq!(submitted, Ok(JobId(id)), "the node has room");
        let placed = handle.inspect().into_iter().find(|j| j.id == id).expect("routed");
        assert_eq!(placed.node, full, "the test's ring differs from the coordinator's");
        if id == to_full[0] {
            // The worker must hold the first job before the second
            // arrives, or the second would meet a full queue.
            let engine = nodes[full].engine.handle();
            assert!(poll_until(Duration::from_secs(30), || {
                let copy = engine.status(JobId(placed.node_job_id)).expect("copy known");
                copy.state == JobState::Running
            }));
        }
    }

    let before = handle.stats();
    let refused = handle.submit(job(to_full[2], 600, 8));
    assert!(matches!(refused, Err(ServeError::QueueFull { capacity: 1 })), "{refused:?}");
    let after = handle.stats();
    assert_eq!(
        (after.jobs_routed, after.reroutes),
        (before.jobs_routed, before.reroutes),
        "a refused submission is neither routed nor rerouted"
    );
    drop(hold);

    coordinator.shutdown();
    teardown(nodes);
}

#[test]
fn dead_node_jobs_resume_on_a_survivor() {
    let _serial = serial();
    let (mut nodes, addrs) = fleet(2);
    let coordinator = Coordinator::start(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(20),
            failure_threshold: 3,
            rpc_timeout: Duration::from_secs(2),
        },
    );
    let handle = coordinator.handle();

    let id = handle.submit(job(11, 600, 8)).expect("submit");
    // Wait for a mid-run checkpoint to replicate, so the kill lands
    // mid-slice and the resume genuinely continues from partial work.
    assert!(
        poll_until(Duration::from_secs(30), || {
            handle.inspect().first().is_some_and(|j| j.has_checkpoint)
        }),
        "no checkpoint replicated in time: {:?}",
        handle.inspect()
    );
    let home = handle.inspect()[0].node;
    nodes[home].server.stop();

    let done = handle.wait(id, Duration::from_secs(120)).expect("job settles");
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    let report = handle.report(id).expect("report fetchable after resume");
    assert_eq!(report.evaluations, 600);

    let inspect = handle.inspect();
    assert_eq!(inspect[0].resumes, 1, "{inspect:?}");
    assert_ne!(inspect[0].node, home, "job must have moved off the dead node");
    let stats = handle.stats();
    assert_eq!(stats.node_deaths, 1);
    assert_eq!(stats.jobs_resumed, 1);
    assert!(stats.reroutes >= 1);
    assert!(!stats.nodes[home].alive);

    coordinator.shutdown();
    teardown(nodes);
}

#[test]
fn a_finished_jobs_report_outlives_its_node_and_the_coordinator() {
    let _serial = serial();
    let (mut nodes, addrs) = fleet(2);
    let dir = state_dir("report");
    let cfg = ClusterConfig {
        heartbeat_interval: Duration::from_millis(20),
        failure_threshold: 3,
        rpc_timeout: Duration::from_secs(2),
    };
    let coordinator = Coordinator::start_durable(addrs.clone(), cfg, &dir).expect("starts");
    let handle = coordinator.handle();

    let spec = job(5, 120, 16);
    let id = handle.submit(spec.clone()).expect("submit");
    let done = handle.wait(id, Duration::from_secs(60)).expect("job settles");
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    assert!(
        poll_until(Duration::from_secs(30), || handle.inspect()[0].has_report),
        "no report replicated in time: {:?}",
        handle.inspect()
    );

    // The node the job finished on dies; the report does not.
    let home = handle.inspect()[0].node;
    nodes[home].server.stop();
    assert!(poll_until(Duration::from_secs(30), || !handle.node_alive(home)));
    let direct = direct_report(&spec);
    assert_bit_identical(&handle.report(id).expect("report outlives its node"), &direct);
    assert_eq!(handle.inspect()[0].resumes, 0, "a finished job never moves");

    // Nor does a coordinator restart, with the node still dead.
    drop(coordinator);
    let coordinator = Coordinator::start_durable(addrs, cfg, &dir).expect("restarts");
    let handle = coordinator.handle();
    assert!(!handle.node_alive(home));
    assert_bit_identical(&handle.report(id).expect("report outlives a restart"), &direct);

    coordinator.shutdown();
    teardown(nodes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heartbeat_failpoint_kills_a_node_on_the_virtual_clock() {
    let _serial = serial();
    let (nodes, addrs) = fleet(2);
    // With both nodes alive each beat probes node 0 then node 1, so
    // heartbeat hits 1, 3, 5 are three consecutive probes of node 0 —
    // exactly the failure threshold.
    let plan = FaultPlan::new()
        .with(FAIL_HEARTBEAT, 1, FaultAction::Fail { what: "miss".into() })
        .with(FAIL_HEARTBEAT, 3, FaultAction::Fail { what: "miss".into() })
        .with(FAIL_HEARTBEAT, 5, FaultAction::Fail { what: "miss".into() });
    let guard = fault::install(plan);

    let clock = TestClock::new();
    let coordinator = Coordinator::start_with_clock(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(100),
            failure_threshold: 3,
            rpc_timeout: Duration::from_secs(2),
        },
        clock.to_shared(),
    );
    let handle = coordinator.handle();

    // Step virtual time beat by beat until the misses accumulate. The
    // trigger indices pin *which* node misses; how many advances it
    // takes to deliver three beats is timing we need not assume.
    let dead = poll_until(Duration::from_secs(30), || {
        clock.advance_ms(100);
        !handle.node_alive(0)
    });
    assert!(dead, "node 0 must be declared dead after three injected misses");
    assert!(handle.node_alive(1), "node 1 answered every probe");
    assert_eq!(handle.stats().node_deaths, 1);
    drop(guard);

    coordinator.shutdown();
    teardown(nodes);
}

#[test]
fn durable_coordinator_survives_an_abrupt_restart() {
    let _serial = serial();
    let (nodes, addrs) = fleet(2);
    let dir = state_dir("restart");
    let cfg = ClusterConfig {
        heartbeat_interval: Duration::from_millis(20),
        failure_threshold: 3,
        rpc_timeout: Duration::from_secs(2),
    };
    let coordinator = Coordinator::start_durable(addrs.clone(), cfg, &dir).expect("durable start");
    let handle = coordinator.handle();

    let specs: Vec<JobSpec> = (0..3).map(|i| job(20 + i, 300, 8)).collect();
    let ids: Vec<_> = specs.iter().map(|s| handle.submit(s.clone()).expect("submit")).collect();
    // Let the restart land mid-run: every job checkpointed (or already
    // done) before the coordinator goes away.
    assert!(
        poll_until(Duration::from_secs(30), || {
            handle.inspect().iter().all(|j| j.has_checkpoint || j.state == "done")
        }),
        "jobs did not checkpoint in time: {:?}",
        handle.inspect()
    );

    // An abrupt drop is WAL-equivalent to a SIGKILL: every append was
    // flushed when it happened and drop compacts nothing, so recovery
    // replays the log exactly as it would after a kill -9. (The CI
    // cluster-smoke job exercises the literal kill -9 on a real
    // `repro coord` process.)
    drop(coordinator);

    let coordinator = Coordinator::start_durable(addrs, cfg, &dir).expect("restart recovers");
    let handle = coordinator.handle();
    for (&id, spec) in ids.iter().zip(&specs) {
        let done = handle.wait(id, Duration::from_secs(120)).expect("job settles after restart");
        assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
        let report = handle.report(id).expect("report fetchable after restart");
        assert_bit_identical(&report, &direct_report(spec));
    }
    let stats = handle.stats();
    assert_eq!(stats.jobs_routed, 3, "routing counters survive the restart");
    assert_eq!(stats.jobs_done, 3);

    coordinator.shutdown();
    teardown(nodes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives the full death-then-rejoin cycle on the virtual clock: kill
/// the job's home node with scripted heartbeat misses (its server never
/// stops), watch the job resume on the survivor, then let the revival
/// hysteresis re-admit the node. The job is held at slice boundaries
/// until the rebalance has dealt with it. With `rebalance_blocked` the
/// [`FAIL_REBALANCE`] failpoint eats the migration and the job must
/// simply finish on its survivor. Either way the copy the death-resume
/// left on the home node is cancelled when the node revives.
fn rejoin_round(rebalance_blocked: bool) {
    let (nodes, addrs) = fleet(2);
    let clock = TestClock::new();
    let coordinator = Coordinator::start_with_clock(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(100),
            failure_threshold: 3,
            rpc_timeout: Duration::from_secs(2),
        },
        clock.to_shared(),
    );
    let handle = coordinator.handle();

    let hold = fault::install(holding_slices(FaultPlan::new()));
    let id = handle.submit(job(11, 600, 8)).expect("submit");
    let home = handle.inspect()[0].node;
    let home_copy = JobId(handle.inspect()[0].node_job_id);
    // Drive beats until a mid-run checkpoint replicates, so the kill
    // interrupts real partial work.
    assert!(
        poll_until(Duration::from_secs(30), || {
            clock.advance_ms(100);
            handle.inspect()[0].has_checkpoint
        }),
        "no checkpoint replicated: {:?}",
        handle.inspect()
    );

    settle_beats();

    // Installing resets the hit counters, so beats count from zero here:
    // with 2 nodes every beat consumes two heartbeat hits in node order,
    // and node `home`'s probe on beat b is hit (b-1)*2 + home + 1. Three
    // consecutive beats' worth is exactly the failure threshold.
    let miss = |beat: u64| (beat - 1) * 2 + home as u64 + 1;
    let mut plan = holding_slices(FaultPlan::new())
        .with(FAIL_HEARTBEAT, miss(1), FaultAction::Fail { what: "miss".into() })
        .with(FAIL_HEARTBEAT, miss(2), FaultAction::Fail { what: "miss".into() })
        .with(FAIL_HEARTBEAT, miss(3), FaultAction::Fail { what: "miss".into() });
    if rebalance_blocked {
        plan = plan.with(FAIL_REBALANCE, 1, FaultAction::Drop);
    }
    drop(hold);
    let guard = fault::install(plan);

    assert!(
        poll_until(Duration::from_secs(30), || {
            clock.advance_ms(100);
            !handle.node_alive(home)
        }),
        "home node not declared dead"
    );
    // The server behind it never stopped, so the next three probes are
    // healthy and the hysteresis re-admits it.
    assert!(
        poll_until(Duration::from_secs(30), || {
            clock.advance_ms(100);
            handle.node_alive(home)
        }),
        "home node not revived"
    );
    // The revival's rebalance runs on the heartbeat thread: release the
    // job only once it has moved home, or had its move blocked.
    assert!(
        poll_until(Duration::from_secs(30), || if rebalance_blocked {
            fault::hits(FAIL_REBALANCE) == 1
        } else {
            handle.inspect()[0].resumes == 2
        }),
        "rebalance did not reach the job: {:?}",
        handle.inspect()
    );
    // The home node never stopped, so it still held the job's first copy;
    // its revival cancels that copy instead of letting it run to the end.
    let home_engine = nodes[home].engine.handle();
    assert!(
        poll_until(Duration::from_secs(30), || {
            let copy = home_engine.status(home_copy).expect("home copy known");
            matches!(copy.state, JobState::Cancelled { .. })
        }),
        "the revived home node kept running the stale copy: {:?}",
        home_engine.status(home_copy)
    );
    drop(guard);

    let done = handle.wait(id, Duration::from_secs(120)).expect("job settles");
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    let report = handle.report(id).expect("report fetchable");
    assert_eq!(report.evaluations, 600, "no work lost across death and rejoin");

    let inspect = handle.inspect();
    let stats = handle.stats();
    assert_eq!(stats.node_deaths, 1);
    assert_eq!(stats.node_revivals, 1);
    assert!(stats.nodes[home].alive);
    if rebalance_blocked {
        assert_eq!(inspect[0].resumes, 1, "blocked migration leaves the survivor copy");
        assert_ne!(inspect[0].node, home);
    } else {
        assert_eq!(inspect[0].resumes, 2, "death-resume + rejoin migration: {inspect:?}");
        assert_eq!(inspect[0].node, home, "job must finish back on its home node");
    }
    assert_eq!(stats.jobs_resumed, u64::from(inspect[0].resumes));
    assert_eq!(
        stats.reroutes,
        u64::from(inspect[0].resumes) + u64::from(inspect[0].detours),
        "reroutes == detours + resumes must survive rejoin"
    );

    coordinator.shutdown();
    teardown(nodes);
}

#[test]
fn revived_node_takes_back_its_home_jobs() {
    let _serial = serial();
    rejoin_round(false);
}

#[test]
fn rebalance_failpoint_leaves_the_job_on_its_survivor() {
    let _serial = serial();
    rejoin_round(true);
}

/// A move home goes to the home node or nowhere: when the revived home
/// node fails the forward, the job stays on its survivor as it was — no
/// move is committed and its copy there keeps running — instead of being
/// restarted on the survivor from its replica.
#[test]
fn a_move_home_the_home_node_refuses_leaves_the_job_in_place() {
    let _serial = serial();
    let (nodes, addrs) = fleet(2);
    let clock = TestClock::new();
    let coordinator = Coordinator::start_with_clock(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(100),
            failure_threshold: 3,
            rpc_timeout: Duration::from_secs(2),
        },
        clock.to_shared(),
    );
    let handle = coordinator.handle();

    let hold = fault::install(holding_slices(FaultPlan::new()));
    let spec = job(19, 600, 8);
    let id = handle.submit(spec.clone()).expect("submit");
    let home = handle.inspect()[0].node;
    let survivor = 1 - home;
    assert!(
        poll_until(Duration::from_secs(30), || {
            clock.advance_ms(100);
            handle.inspect()[0].has_checkpoint
        }),
        "no checkpoint replicated: {:?}",
        handle.inspect()
    );
    settle_beats();

    // Three missed probes kill the home node; the death-resume's forward
    // is the first since this install, the move home's the second.
    let miss = |beat: u64| (beat - 1) * 2 + home as u64 + 1;
    let plan = holding_slices(FaultPlan::new())
        .with(FAIL_HEARTBEAT, miss(1), FaultAction::Fail { what: "miss".into() })
        .with(FAIL_HEARTBEAT, miss(2), FaultAction::Fail { what: "miss".into() })
        .with(FAIL_HEARTBEAT, miss(3), FaultAction::Fail { what: "miss".into() })
        .with(FAIL_FORWARD, 2, FaultAction::Fail { what: "home refuses".into() });
    drop(hold);
    let guard = fault::install(plan);
    assert!(
        poll_until(Duration::from_secs(30), || {
            clock.advance_ms(100);
            handle.inspect()[0].resumes == 1
        }),
        "the job did not move off its dead home: {:?}",
        handle.inspect()
    );
    let moved = handle.inspect()[0].clone();
    assert_eq!(moved.node, survivor);
    assert!(
        poll_until(Duration::from_secs(30), || {
            clock.advance_ms(100);
            fault::hits(FAIL_REBALANCE) == 1
        }),
        "the home node was not revived: {:?}",
        handle.inspect()
    );
    // The rebalance runs inside the revival's heartbeat, so any later
    // heartbeat hit comes after it finished.
    let beats = fault::hits(FAIL_HEARTBEAT);
    assert!(poll_until(Duration::from_secs(30), || {
        clock.advance_ms(100);
        fault::hits(FAIL_HEARTBEAT) > beats
    }));

    let inspect = handle.inspect();
    assert_eq!(fault::hits(FAIL_FORWARD), 2, "the move home tried another node: {inspect:?}");
    assert_eq!(
        (inspect[0].node, inspect[0].node_job_id, inspect[0].resumes),
        (survivor, moved.node_job_id, 1),
        "the job left its survivor copy: {inspect:?}"
    );
    assert_eq!(handle.stats().jobs_resumed, 1, "a move was committed");
    assert_eq!(nodes[survivor].engine.handle().stats().jobs_submitted, 1);
    drop(guard);

    let done = handle.wait(id, Duration::from_secs(120)).expect("job settles");
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    assert_bit_identical(&handle.report(id).expect("report"), &direct_report(&spec));

    coordinator.shutdown();
    teardown(nodes);
}

/// A client cancel that lands while a death-resume's forward is out must
/// stick: the coordinator commits no move for the job, counts it once,
/// as cancelled, and cancels the copy the forward placed on the survivor.
#[test]
fn a_cancel_during_a_death_resume_sticks() {
    let _serial = serial();
    let (nodes, addrs) = fleet(2);
    let clock = TestClock::new();
    let coordinator = Coordinator::start_with_clock(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(100),
            failure_threshold: 3,
            rpc_timeout: Duration::from_secs(2),
        },
        clock.to_shared(),
    );
    let handle = coordinator.handle();

    let hold = fault::install(holding_slices(FaultPlan::new()));
    let id = handle.submit(job(13, 600, 8)).expect("submit");
    let home = handle.inspect()[0].node;
    let survivor = 1 - home;
    assert!(
        poll_until(Duration::from_secs(30), || {
            clock.advance_ms(100);
            handle.inspect()[0].has_checkpoint
        }),
        "no checkpoint replicated: {:?}",
        handle.inspect()
    );
    settle_beats();

    // Three missed probes kill the home node; the death-resume's forward,
    // the first forward since this install, then stalls for a second.
    let miss = |beat: u64| (beat - 1) * 2 + home as u64 + 1;
    let plan = holding_slices(FaultPlan::new())
        .with(FAIL_HEARTBEAT, miss(1), FaultAction::Fail { what: "miss".into() })
        .with(FAIL_HEARTBEAT, miss(2), FaultAction::Fail { what: "miss".into() })
        .with(FAIL_HEARTBEAT, miss(3), FaultAction::Fail { what: "miss".into() })
        .with(FAIL_FORWARD, 1, FaultAction::DelayMs { ms: 1000 });
    drop(hold);
    let guard = fault::install(plan);
    assert!(
        poll_until(Duration::from_secs(30), || {
            clock.advance_ms(100);
            fault::hits(FAIL_FORWARD) == 1
        }),
        "the death-resume never forwarded"
    );
    let answer = handle.cancel(id).expect("cancel");
    assert!(matches!(answer.state, JobState::Cancelled { .. }), "{:?}", answer.state);

    // The forward lands on the survivor; that copy must end there too.
    let copy = nodes[survivor].engine.handle();
    assert!(
        poll_until(Duration::from_secs(60), || {
            clock.advance_ms(100);
            let stats = copy.stats();
            stats.jobs_submitted == 1 && stats.jobs_cancelled + stats.jobs_done == 1
        }),
        "the survivor's copy never ended: {:?}",
        copy.stats()
    );
    for _ in 0..5 {
        clock.advance_ms(100);
        thread::sleep(Duration::from_millis(20));
    }
    drop(guard);

    let inspect = handle.inspect();
    assert_eq!(inspect[0].state, "cancelled", "{inspect:?}");
    assert_eq!(inspect[0].resumes, 0, "no move was committed: {inspect:?}");
    let stats = handle.stats();
    assert_eq!((stats.jobs_done, stats.jobs_cancelled), (0, 1));
    assert_eq!(
        stats.jobs_done + stats.jobs_failed + stats.jobs_timed_out + stats.jobs_cancelled,
        stats.jobs_routed
    );
    assert_eq!(copy.stats().jobs_cancelled, 1, "the survivor's copy was not cancelled");

    coordinator.shutdown();
    teardown(nodes);
}

/// A submission that carries a checkpoint is logged with it once, inside
/// the spec exactly as submitted, and resumes from it to the
/// uninterrupted report.
#[test]
fn a_resumed_submission_logs_its_checkpoint_once() {
    let _serial = serial();
    let (nodes, addrs) = fleet(1);
    let dir = state_dir("checkpoint-once");
    let clock = TestClock::new();
    let coordinator = Coordinator::start_durable_with_clock(
        addrs,
        ClusterConfig::default(),
        &dir,
        clock.to_shared(),
    )
    .expect("durable start");
    let handle = coordinator.handle();

    let mut spec = job(17, 96, 16);
    let task = spec.task.resolve().expect("task resolves");
    let mut opt = spec.method.build(&task).expect("method builds");
    let driver = Driver::new(spec.method.budget());
    let Ok(SliceOutcome::Paused(ckpt)) = driver.run_slice(&task, opt.as_mut(), 32) else {
        panic!("the first slice should pause");
    };
    spec.checkpoint = Some(ckpt.clone());
    let id = handle.submit(spec.clone()).expect("submit");

    let log = std::fs::read_to_string(dir.join("wal.jsonl")).expect("the log exists");
    let routed: serde_json::Value =
        serde_json::from_str(log.lines().next().expect("a routed record")).expect("json");
    assert_eq!(routed["op"], "routed");
    assert_eq!(routed["job"]["spec"]["checkpoint"]["tracker"]["evals"], ckpt.tracker.evals);
    assert!(routed["job"].get("checkpoint").is_none(), "the job holds a second copy");

    let done = handle.wait(id, Duration::from_secs(120)).expect("job settles");
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    assert_bit_identical(&handle.report(id).expect("report"), &direct_report(&spec));

    coordinator.shutdown();
    teardown(nodes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lost replica costs rework, never a different report. Two jobs
/// replicate on one node, one plain and one submitted with a checkpoint
/// whose budget the client edited; then that node and the coordinator
/// fail together. The restarted coordinator holds no replica, so each
/// job resumes on the survivor from its spec: the plain one from scratch,
/// the other from the checkpoint it was submitted with.
#[test]
fn a_double_fault_resumes_every_job_from_its_spec() {
    let _serial = serial();
    let (mut nodes, addrs) = fleet_of(2, 2);
    let dir = state_dir("double-fault");
    let cfg = ClusterConfig {
        heartbeat_interval: Duration::from_millis(20),
        failure_threshold: 3,
        rpc_timeout: Duration::from_secs(2),
    };
    let hold = fault::install(holding_slices(FaultPlan::new()));
    let coordinator = Coordinator::start_durable(addrs.clone(), cfg, &dir).expect("durable start");
    let handle = coordinator.handle();

    let plain = job(61, 400, 8);
    let mut edited = job(62, 400, 8);
    let task = edited.task.resolve().expect("task resolves");
    let mut opt = edited.method.build(&task).expect("method builds");
    let Ok(SliceOutcome::Paused(mut ckpt)) =
        Driver::new(edited.method.budget()).run_slice(&task, opt.as_mut(), 16)
    else {
        panic!("the first slice should pause");
    };
    ckpt.tracker.max_evals = ckpt.tracker.evals + 120;
    edited.checkpoint = Some(ckpt.clone());
    // Cluster id 1 routes to node 0 and ids 2 and 3 to node 1, so a short
    // first job puts the two under test on one node.
    handle.submit(job(60, 8, 8)).expect("submit");
    let ids = [plain.clone(), edited.clone()].map(|spec| handle.submit(spec).expect("submit"));

    // Both jobs run on one node, and each has a replica fresher than what
    // it was submitted with.
    let replicated = || {
        let exports = handle.export_jobs();
        let evals = |i: usize| exports[i].checkpoint.as_ref().map_or(0, |c| c.tracker.evals);
        evals(1) > 0 && evals(2) > ckpt.tracker.evals
    };
    assert!(poll_until(Duration::from_secs(30), replicated), "{:?}", handle.export_jobs());
    let home = handle.inspect()[1].node;
    assert_eq!(handle.inspect()[2].node, home, "both jobs share a home node");

    drop(coordinator);
    nodes[home].server.stop();
    let coordinator = Coordinator::start_durable(addrs, cfg, &dir).expect("restart recovers");
    drop(hold);
    let handle = coordinator.handle();
    let directs = [direct_report(&plain), direct_resume(&edited, &ckpt)];
    assert_eq!(directs[1].evaluations, ckpt.tracker.evals + 120, "the edited budget holds");
    for (&id, direct) in ids.iter().zip(&directs) {
        let done = handle.wait(id, Duration::from_secs(120)).expect("job settles");
        assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
        assert_bit_identical(&handle.report(id).expect("report"), direct);
    }
    let inspect = &handle.inspect()[1..];
    assert!(inspect.iter().all(|job| job.node != home && job.resumes == 1), "{inspect:?}");

    coordinator.shutdown();
    teardown(nodes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that the coordinator's view equals the state its WAL
/// recovers: every job's state, node and accounting, every settled job's
/// progress, and every routing counter. Replicated checkpoints and an
/// unsettled job's progress are not durable: a coordinator restarted
/// over a copy of `dir` re-reads that progress from the job's node while
/// it reconciles, so for a running job its answer must be at least as
/// far along as the live one. (A job queued by a move still shows the
/// progress its previous placement made.)
fn assert_live_equals_recovered(handle: &ClusterHandle, dir: &Path, addrs: &[String]) {
    let recovered = WalStore::open(dir)
        .and_then(|mut store| store.load())
        .expect("state loads")
        .expect("the log holds state");
    let (inspect, exports) = (handle.inspect(), handle.export_jobs());
    let copy = state_dir("restarted-copy");
    std::fs::create_dir_all(&copy).expect("copy dir");
    for file in ["snapshot.json", "wal.jsonl"] {
        if dir.join(file).exists() {
            std::fs::copy(dir.join(file), copy.join(file)).expect("copy state");
        }
    }
    let cfg = ClusterConfig { rpc_timeout: Duration::from_secs(2), ..ClusterConfig::default() };
    let frozen = TestClock::new().to_shared();
    let restarted = Coordinator::start_durable_with_clock(addrs.to_vec(), cfg, &copy, frozen)
        .expect("restart over the copy");
    let reconciled = restarted.shutdown().export_jobs();
    let _ = std::fs::remove_dir_all(&copy);
    assert_eq!(recovered.jobs.len(), inspect.len());
    for (((job, live), export), again) in
        recovered.jobs.iter().zip(&inspect).zip(&exports).zip(&reconciled)
    {
        assert_eq!(job.id, live.id);
        assert_eq!(job.state, export.state, "job {} state", job.id);
        if job.state.is_terminal() {
            assert_eq!(job.status, export.status, "job {} progress", job.id);
        } else if job.state == JobState::Running {
            let evals = |export: &JobExport| export.status.map_or(0, |status| status.evals);
            assert!(
                evals(again) >= evals(export),
                "job {}: the restarted coordinator's progress {:?} trails the live {:?}",
                job.id,
                again.status,
                export.status
            );
        }
        assert_eq!(
            (job.node, job.node_job_id, job.resumes, job.detours, job.cancel_requested),
            (live.node, live.node_job_id, live.resumes, live.detours, live.cancel_requested),
            "job {} routing",
            job.id
        );
    }
    let (c, stats) = (recovered.routing_stats(), handle.stats());
    assert_eq!(
        [
            c.jobs_routed,
            c.jobs_done,
            c.jobs_failed,
            c.jobs_timed_out,
            c.jobs_cancelled,
            c.reroutes,
            c.node_deaths,
            c.node_revivals,
            c.jobs_resumed,
        ],
        [
            stats.jobs_routed,
            stats.jobs_done,
            stats.jobs_failed,
            stats.jobs_timed_out,
            stats.jobs_cancelled,
            stats.reroutes,
            stats.node_deaths,
            stats.node_revivals,
            stats.jobs_resumed,
        ],
        "routing counters"
    );
}

/// Scripts a history on the virtual clock — two submits, replicated
/// progress and checkpoints, a cancel, a death of the second job's home
/// node with progress observed on the survivor, the home node's revival
/// and the migration back — and checks, at quiescent points, that the
/// live coordinator and the state its WAL recovers are the same.
#[test]
fn live_state_equals_recovered_state() {
    let _serial = serial();
    let (nodes, addrs) = fleet(2);
    let dir = state_dir("live-equals-recovered");
    let clock = TestClock::new();
    let cfg = ClusterConfig {
        heartbeat_interval: Duration::from_millis(100),
        failure_threshold: 3,
        rpc_timeout: Duration::from_secs(2),
    };
    let beat = || {
        clock.advance_ms(100);
        thread::sleep(Duration::from_millis(5));
    };
    let hold = fault::install(holding_slices(FaultPlan::new()));
    let coordinator =
        Coordinator::start_durable_with_clock(addrs.clone(), cfg, &dir, clock.to_shared())
            .expect("durable start");
    let handle = coordinator.handle();
    let cancelled = handle.submit(job(51, 600, 8)).expect("submit");
    let moved = handle.submit(job(52, 600, 8)).expect("submit");

    // Beats replicate progress and checkpoints; the first job is
    // cancelled once it has some, and its node stops it at a slice
    // boundary.
    let replicated = |index: usize| handle.inspect()[index].has_checkpoint;
    assert!(poll_until(Duration::from_secs(30), || {
        beat();
        replicated(0)
    }));
    handle.cancel(cancelled).expect("cancel");
    assert!(
        poll_until(Duration::from_secs(30), || {
            beat();
            handle.inspect()[0].state == "cancelled" && replicated(1)
        }),
        "{:?}",
        handle.inspect()
    );

    // Kill the second job's home node with scripted misses, and keep its
    // revival probes failing until the survivor has reported progress
    // twice within one state — a progress-only observation.
    let home = handle.inspect()[1].node;
    settle_beats();
    let miss = |beat: u64| (beat - 1) * 2 + home as u64 + 1;
    let plan = (1..=400).fold(holding_slices(FaultPlan::new()), |plan, beat| {
        plan.with(FAIL_HEARTBEAT, miss(beat), FaultAction::Fail { what: "miss".into() })
    });
    drop(hold);
    let hold = fault::install(plan);
    assert!(
        poll_until(Duration::from_secs(30), || {
            beat();
            handle.inspect()[1].resumes == 1
        }),
        "the second job did not move off its dead home: {:?}",
        handle.inspect()
    );
    let mut first_seen = None;
    assert!(
        poll_until(Duration::from_secs(30), || {
            beat();
            let export = &handle.export_jobs()[1];
            export.state == JobState::Running
                && *first_seen.get_or_insert(export.status) != export.status
        }),
        "no progress replicated from the survivor"
    );

    // Let the home node answer again: the revival migrates the job back,
    // and a beat sees it running there.
    drop(hold);
    let hold = fault::install(holding_slices(FaultPlan::new()));
    assert!(
        poll_until(Duration::from_secs(30), || {
            beat();
            let job = &handle.inspect()[1];
            job.resumes == 2 && job.state == "running"
        }),
        "the second job did not migrate home: {:?}",
        handle.inspect()
    );
    let handle = coordinator.shutdown();
    let stats = handle.stats();
    assert_eq!((stats.node_deaths, stats.node_revivals, stats.jobs_resumed), (1, 1, 2));
    assert_eq!(handle.inspect()[1].node, home);
    assert_live_equals_recovered(&handle, &dir, &addrs);

    // Recover from the log, release the jobs and finish the second one
    // through status polls: the states agree at the end too.
    let coordinator =
        Coordinator::start_durable_with_clock(addrs.clone(), cfg, &dir, clock.to_shared())
            .expect("restart recovers");
    drop(hold);
    let handle = coordinator.handle();
    let done = handle.wait(moved, Duration::from_secs(120)).expect("job settles");
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    let handle = coordinator.shutdown();
    assert_live_equals_recovered(&handle, &dir, &addrs);

    teardown(nodes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Client polls commit a job's state changes but not its progress. With
/// the heartbeat frozen on a virtual clock, a job polled to its finish
/// logs its `routed` record plus one record per state change the polls
/// saw, however many progress updates they answered.
#[test]
fn status_polls_log_state_changes_only() {
    let _serial = serial();
    let (nodes, addrs) = fleet(1);
    let dir = state_dir("polls-log-states");
    let clock = TestClock::new();
    let coordinator = Coordinator::start_durable_with_clock(
        addrs.clone(),
        ClusterConfig::default(),
        &dir,
        clock.to_shared(),
    )
    .expect("durable start");
    let handle = coordinator.handle();
    // A short pause before every slice, so the polls see many of them.
    let pause = fault::install(pausing_slices(10));
    let id = handle.submit(job(53, 600, 8)).expect("submit");
    let (mut states, mut evals, mut progress_only) = (vec![JobState::Queued], None, 0);
    assert!(poll_until(Duration::from_secs(120), || {
        let resp = handle.status(id).expect("status");
        let seen = resp.status.map(|status| status.evals);
        if states.last() != Some(&resp.state) {
            states.push(resp.state.clone());
        } else if seen != evals {
            progress_only += 1;
        }
        evals = seen;
        resp.state.is_terminal()
    }));
    drop(pause);
    assert!(matches!(states.last(), Some(JobState::Done)), "{states:?}");
    assert!(progress_only >= 2, "too few progress-only updates seen: {progress_only}");

    let handle = coordinator.shutdown();
    let log = std::fs::read_to_string(dir.join("wal.jsonl")).expect("the log exists");
    assert_eq!(log.lines().count(), states.len(), "records for states {states:?}");
    assert_live_equals_recovered(&handle, &dir, &addrs);

    teardown(nodes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The heartbeat commits a job's state changes but not its progress.
/// With no client polls, a job beaten to its finish on a virtual clock
/// logs its `routed` record, one `observed` record per state change and
/// its `reported` record, however many progress updates the beats
/// replicated.
#[test]
fn heartbeats_log_state_changes_only() {
    let _serial = serial();
    let (nodes, addrs) = fleet(1);
    let dir = state_dir("beats-log-states");
    let clock = TestClock::new();
    let cfg = ClusterConfig {
        heartbeat_interval: Duration::from_millis(100),
        rpc_timeout: Duration::from_secs(2),
        ..ClusterConfig::default()
    };
    let coordinator =
        Coordinator::start_durable_with_clock(addrs.clone(), cfg, &dir, clock.to_shared())
            .expect("durable start");
    let handle = coordinator.handle();
    let pause = fault::install(pausing_slices(10));
    handle.submit(job(54, 600, 8)).expect("submit");
    // Only the coordinator's memory is read: no client poll reaches the
    // node, so every observation is a heartbeat's.
    let (mut states, mut progress, mut progress_only) = (vec![JobState::Queued], None, 0);
    assert!(poll_until(Duration::from_secs(120), || {
        clock.advance_ms(100);
        thread::sleep(Duration::from_millis(5));
        let export = handle.export_jobs().remove(0);
        if states.last() != Some(&export.state) {
            states.push(export.state.clone());
        } else if export.status != progress {
            progress_only += 1;
        }
        progress = export.status;
        handle.inspect()[0].has_report
    }));
    drop(pause);
    assert!(matches!(states.last(), Some(JobState::Done)), "{states:?}");
    assert!(progress_only >= 2, "too few progress-only updates seen: {progress_only}");

    let handle = coordinator.shutdown();
    let log = std::fs::read_to_string(dir.join("wal.jsonl")).expect("the log exists");
    let logged: Vec<String> = log
        .lines()
        .map(|line| match serde_json::from_str::<WalRecord>(line).expect("a record") {
            WalRecord::Observed { state, .. } => state.label().to_string(),
            WalRecord::Routed { .. } => "routed".into(),
            WalRecord::Reported { .. } => "reported".into(),
            other => panic!("unexpected record {other:?}"),
        })
        .collect();
    let mut expected = vec!["routed".to_string()];
    expected.extend(states[1..].iter().map(|state| state.label().to_string()));
    expected.push("reported".into());
    assert_eq!(logged, expected);
    assert_live_equals_recovered(&handle, &dir, &addrs);

    teardown(nodes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_folds_last_known_snapshot_when_a_fetch_fails() {
    let _serial = serial();
    let (nodes, addrs) = fleet(2);
    let coordinator = Coordinator::start(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(50),
            rpc_timeout: Duration::from_secs(2),
            ..ClusterConfig::default()
        },
    );
    let handle = coordinator.handle();

    let id = handle.submit(job(31, 60, 16)).expect("submit");
    let done = handle.wait(id, Duration::from_secs(60)).expect("job settles");
    assert!(matches!(done.state, JobState::Done));
    // First poll: fresh everywhere, and it seeds the last-known store.
    let fresh = handle.stats();
    assert!(fresh.nodes.iter().all(|n| !n.stale), "{:?}", fresh.nodes);
    assert_eq!(fresh.fold.jobs_done, 1);

    // Stats consumes one cluster::stats hit per node per call in node
    // order, so hit 1 fails exactly the first node's next fetch — the
    // same window a node dying between its jobs finishing and the poll
    // hits.
    let guard = fault::install(FaultPlan::new().with(FAIL_STATS, 1, FaultAction::Drop));
    let degraded = handle.stats();
    drop(guard);
    assert!(degraded.nodes[0].stale, "failed fetch must fall back, marked stale");
    assert!(!degraded.nodes[1].stale);
    assert_eq!(
        degraded.nodes[0].stats, fresh.nodes[0].stats,
        "fallback is the last-known snapshot"
    );
    assert_eq!(
        degraded.fold.jobs_done, fresh.fold.jobs_done,
        "finished work must not vanish from the fold"
    );

    coordinator.shutdown();
    teardown(nodes);
}

#[test]
fn report_on_an_unreachable_node_is_retryable() {
    let _serial = serial();
    let (mut nodes, addrs) = fleet(2);
    let coordinator = Coordinator::start(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(20),
            failure_threshold: 3,
            rpc_timeout: Duration::from_millis(500),
        },
    );
    let handle = coordinator.handle();

    let id = handle.submit(job(41, 600, 8)).expect("submit");
    assert!(
        poll_until(Duration::from_secs(30), || {
            handle.inspect().first().is_some_and(|j| j.has_checkpoint)
        }),
        "no checkpoint replicated: {:?}",
        handle.inspect()
    );
    let home = handle.inspect()[0].node;
    nodes[home].server.stop();

    // Mid-death — the node is gone but not yet declared dead — a report
    // fetch must come back as a graceful retryable NotReady, never as a
    // raw transport error.
    let err = handle.report(id).expect_err("report can't succeed mid-death");
    assert!(
        matches!(err, ServeError::NotReady { .. }),
        "mid-death report must be retryable, got {err:?}"
    );

    // And retrying eventually succeeds, once the job resumes and
    // finishes on the survivor.
    let done = handle.wait(id, Duration::from_secs(120)).expect("job settles");
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    let report = handle.report(id).expect("report after the resume");
    assert_eq!(report.evaluations, 600);

    coordinator.shutdown();
    teardown(nodes);
}

/// One request over a short-lived connection, the way the pre-keep-alive
/// clients (and curl) talk to the front-end.
fn http_request(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn cluster_serves_the_same_http_protocol_as_a_node() {
    let _serial = serial();
    let (nodes, addrs) = fleet(2);
    let coordinator = Coordinator::start(
        addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(50),
            rpc_timeout: Duration::from_secs(2),
            ..ClusterConfig::default()
        },
    );
    let mut front = HttpServer::bind(coordinator.handle(), "127.0.0.1:0").expect("front binds");
    let front_addr = front.addr().to_string();

    let spec = serde_json::to_string(&job(3, 60, 16)).unwrap();
    let (status, body) = http_request(&front_addr, "POST", "/jobs", Some(&spec));
    assert_eq!(status, 200, "{body}");
    let submit: SubmitResponse = serde_json::from_str(&body).expect("submit response");

    let path = format!("/jobs/{}", submit.id);
    assert!(
        poll_until(Duration::from_secs(60), || {
            let (status, body) = http_request(&front_addr, "GET", &path, None);
            status == 200 && body.contains("\"done\"")
        }),
        "job did not finish through the cluster front-end"
    );

    let (status, body) = http_request(&front_addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"nodes_total\":2"), "{body}");
    let (status, body) = http_request(&front_addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "{body}");
    let (status, _) = http_request(&front_addr, "GET", "/jobs/999", None);
    assert_eq!(status, 404);

    front.stop();
    coordinator.shutdown();
    teardown(nodes);
}

#[test]
fn chaos_invariants_hold_and_replay_identically() {
    let _serial = serial();
    let config = ClusterChaosConfig {
        seed: 5,
        nodes: 3,
        jobs: 4,
        faults: 3,
        ..ClusterChaosConfig::default()
    };
    let first = run_cluster_chaos(&config);
    assert!(first.ok(), "invariants violated: {:#?}", first.invariants);
    let second = run_cluster_chaos(&config);
    assert!(second.ok(), "invariants violated on replay: {:#?}", second.invariants);
    assert_eq!(
        first.deterministic_view(),
        second.deterministic_view(),
        "two runs from seed {} disagree",
        config.seed
    );
}

#[test]
fn chaos_with_coordinator_restart_and_revival_replays_identically() {
    let _serial = serial();
    let config = ClusterChaosConfig {
        seed: 7,
        nodes: 3,
        jobs: 4,
        faults: 2,
        coordinator_restart: true,
        revive: true,
    };
    let first = run_cluster_chaos(&config);
    assert!(first.ok(), "invariants violated: {:#?}", first.invariants);
    let second = run_cluster_chaos(&config);
    assert!(second.ok(), "invariants violated on replay: {:#?}", second.invariants);
    assert_eq!(
        first.deterministic_view(),
        second.deterministic_view(),
        "two runs from seed {} disagree",
        config.seed
    );
}

/// Nightly seed-matrix soak: `cargo test -p breaksym-cluster --test
/// cluster -- --ignored` runs the multi-node chaos harness across seeds,
/// each twice, checking invariants and run-twice determinism.
#[test]
#[ignore = "multi-minute soak; run explicitly or from the nightly workflow"]
fn chaos_seed_matrix_soak() {
    let _serial = serial();
    for seed in 1..=6 {
        // Alternate the variants across the matrix so the soak covers
        // the plain kill, the durable coordinator restart, and the
        // kill-then-revive cycle (and their combination).
        let config = ClusterChaosConfig {
            seed,
            nodes: 3,
            jobs: 6,
            faults: 4,
            coordinator_restart: seed % 2 == 0,
            revive: seed % 3 == 0,
        };
        let first = run_cluster_chaos(&config);
        assert!(first.ok(), "seed {seed}: {:#?}", first.invariants);
        let second = run_cluster_chaos(&config);
        assert!(second.ok(), "seed {seed} replay: {:#?}", second.invariants);
        assert_eq!(
            first.deterministic_view(),
            second.deterministic_view(),
            "seed {seed}: runs disagree"
        );
    }
}
