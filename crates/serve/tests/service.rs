//! End-to-end tests of the placement service: bit-identity of served runs
//! against direct driver runs, queue backpressure, mid-run cancellation
//! with resumable checkpoints, graceful drain, terminal-job retention,
//! wall-clock timeouts, the HTTP front-end (including its resistance to
//! stalled and hostile clients), and stop paths that never hang.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use breaksym_core::{runner, Budget, Driver, MethodSpec, MlmaConfig, SliceOutcome};
use breaksym_serve::{
    HttpServer, JobId, JobSpec, JobState, ServeConfig, ServeEngine, ServeError, ServeHandle,
    StatusResponse, TaskSpec, KEEP_ALIVE_IDLE,
};
use breaksym_testkit::TestClock;

/// Small enough to finish in seconds, large enough to cross several
/// 25-eval slices.
fn quick_cfg() -> MlmaConfig {
    MlmaConfig { episodes: 4, steps_per_episode: 10, max_evals: 120, ..MlmaConfig::default() }
}

/// Effectively endless on the test's timescale: only cancel, drain, or
/// timeout ends it.
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

fn wait_until(
    handle: &ServeHandle,
    id: JobId,
    pred: impl Fn(&StatusResponse) -> bool,
) -> StatusResponse {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = handle.status(id).unwrap();
        if pred(&status) {
            return status;
        }
        assert!(Instant::now() < deadline, "timed out on job {id}: {:?}", status.state);
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn served_reports_are_bit_identical_to_direct_runs() {
    let engine =
        ServeEngine::start(ServeConfig { workers: 2, slice_evals: 25, ..ServeConfig::default() });
    let handle = engine.handle();

    // CM and COMP concurrently, on two workers, each crossing several
    // slice boundaries.
    let jobs = [("cm", 9u64), ("comp", 11u64)];
    let ids: Vec<JobId> = jobs
        .iter()
        .map(|&(name, seed)| {
            let mut spec =
                JobSpec::new(TaskSpec::benchmark(name, 7), MethodSpec::Mlma(quick_cfg()));
            spec.seed = Some(seed);
            handle.submit(spec).unwrap()
        })
        .collect();

    for (&(name, seed), &id) in jobs.iter().zip(&ids) {
        let done = handle.wait(id, Duration::from_secs(120)).unwrap();
        assert!(matches!(done.state, JobState::Done), "{name}: {:?}", done.state);

        let served = handle.report(id).unwrap();
        let task = TaskSpec::benchmark(name, 7).resolve().unwrap();
        let direct = runner::run_mlma(&task, &quick_cfg().with_seed(seed)).unwrap();

        // Everything deterministic must match bit for bit; only the
        // simulation/cache *accounting* may differ (each slice re-probes
        // the initial placement through the job's shared cache).
        assert_eq!(served.method, direct.method, "{name}");
        assert_eq!(served.best_cost.to_bits(), direct.best_cost.to_bits(), "{name}");
        assert_eq!(served.initial_cost.to_bits(), direct.initial_cost.to_bits(), "{name}");
        assert_eq!(served.trajectory, direct.trajectory, "{name}");
        assert_eq!(served.evaluations, direct.evaluations, "{name}");
        assert_eq!(served.best_placement, direct.best_placement, "{name}");
        assert_eq!(served.reached_target, direct.reached_target, "{name}");
        assert_eq!(served.sims_to_target, direct.sims_to_target, "{name}");

        // The final status poll reflects the finished run.
        let status = handle.status(id).unwrap().status.unwrap();
        assert_eq!(status.evals, direct.evaluations, "{name}");
        assert!(status.cache.sims > 0, "{name}");
    }

    let stats = handle.stats();
    assert_eq!(stats.jobs_done, 2);
    assert_eq!(stats.jobs_failed, 0);
    assert!(stats.cache.sims > 0);
    engine.shutdown();
}

#[test]
fn full_queue_rejects_submissions() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        slice_evals: 16,
        ..ServeConfig::default()
    });
    let handle = engine.handle();

    // Occupy the only worker, then the only queue slot.
    let running = handle.submit(long_spec(1)).unwrap();
    wait_until(&handle, running, |s| matches!(s.state, JobState::Running));
    let queued = handle.submit(long_spec(2)).unwrap();

    match handle.submit(long_spec(3)) {
        Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 1),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(handle.stats().queue_depth, 1);

    // A queued job cancels instantly and never ran, so nothing to resume.
    let cancelled = handle.cancel(queued).unwrap();
    assert!(
        matches!(cancelled.state, JobState::Cancelled { resumable: false }),
        "{:?}",
        cancelled.state
    );

    handle.cancel(running).unwrap();
    let ended = handle.wait(running, Duration::from_secs(120)).unwrap();
    assert!(matches!(ended.state, JobState::Cancelled { .. }), "{:?}", ended.state);
    assert_eq!(handle.stats().jobs_cancelled, 2);
    engine.shutdown();
}

#[test]
fn cancel_mid_run_leaves_a_resumable_checkpoint() {
    let engine =
        ServeEngine::start(ServeConfig { workers: 1, slice_evals: 20, ..ServeConfig::default() });
    let handle = engine.handle();

    let id = handle.submit(long_spec(3)).unwrap();
    // Let at least one slice complete so a checkpoint exists.
    wait_until(&handle, id, |s| s.status.is_some_and(|rs| rs.evals >= 20));
    handle.cancel(id).unwrap();
    let done = handle.wait(id, Duration::from_secs(120)).unwrap();
    assert!(
        matches!(done.state, JobState::Cancelled { resumable: true }),
        "{:?}",
        done.state
    );

    let ckpt = handle.checkpoint(id).unwrap().expect("cancelled mid-run keeps its checkpoint");
    assert!(ckpt.evals >= 20);
    engine.shutdown();

    // The checkpoint is genuinely resumable: cap the run 40 evaluations
    // past the cancellation point and drive it to a clean finish in a
    // freshly built optimizer.
    let task = TaskSpec::benchmark("diff_pair", 7).resolve().unwrap();
    let mut opt = MethodSpec::Mlma(long_cfg().with_seed(3)).build(&task).unwrap();
    let mut capped = ckpt.clone();
    capped.tracker.max_evals = ckpt.evals + 40;
    let outcome = Driver::new(Budget::evals(capped.tracker.max_evals))
        .resume_slice(&task, opt.as_mut(), &capped, u64::MAX)
        .unwrap();
    match outcome {
        SliceOutcome::Finished(report) => {
            assert_eq!(report.evaluations, ckpt.evals + 40);
            assert!(report.best_cost <= ckpt.tracker.best_cost);
        }
        SliceOutcome::Paused(_) => panic!("a capped resume must finish, not pause"),
    }
}

#[test]
fn graceful_drain_requeues_running_jobs_with_checkpoints() {
    let engine =
        ServeEngine::start(ServeConfig { workers: 1, slice_evals: 15, ..ServeConfig::default() });
    let handle = engine.handle();

    let id = handle.submit(long_spec(5)).unwrap();
    wait_until(&handle, id, |s| s.status.is_some_and(|rs| rs.evals >= 15));

    // Drain: the in-flight job goes back to the queue with its progress
    // persisted, ready for a future server to resume.
    let handle = engine.shutdown();
    let status = handle.status(id).unwrap();
    assert!(matches!(status.state, JobState::Queued), "{:?}", status.state);
    let ckpt = handle.checkpoint(id).unwrap().expect("drained job keeps its checkpoint");
    assert!(ckpt.evals >= 15);
    // The requeue is not an outcome: the worker's one job is counted, and
    // no terminal counter moves.
    let stats = handle.stats();
    assert_eq!(stats.queue_depth, 1);
    assert_eq!(stats.busy_workers, 0);
    assert_eq!(stats.worker_jobs, vec![1]);
    assert_eq!(stats.jobs_submitted, 1);
    let outcomes = [
        stats.jobs_done,
        stats.jobs_failed,
        stats.jobs_panicked,
        stats.jobs_timed_out,
        stats.jobs_cancelled,
    ];
    assert_eq!(outcomes, [0; 5]);
    let health = handle.healthz();
    assert!(health.draining);
    assert_eq!(health.queue_depth, 1);

    match handle.submit(long_spec(6)) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }

    // The requeued job leaves the queue when it is cancelled.
    handle.cancel(id).unwrap();
    let stats = handle.stats();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.jobs_submitted, 1);
}

/// Runs `cycle` `cycles` times on a thread of its own, and fails when one
/// cycle takes longer than 5 s: a stop path that loses its wake-up leaves
/// a join waiting forever.
fn assert_cycles_finish(what: &str, cycles: usize, cycle: impl Fn() + Send + 'static) {
    let (tick, ticks) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        for i in 0..cycles {
            cycle();
            if tick.send(i).is_err() {
                return;
            }
        }
    });
    for i in 0..cycles {
        assert!(
            ticks.recv_timeout(Duration::from_secs(5)).is_ok(),
            "{what} hung in cycle {i} of {cycles}"
        );
    }
    runner.join().unwrap();
}

/// A worker that has checked the drain flag but not yet parked must still
/// see the drain, or `shutdown` joins it forever.
#[test]
fn engine_shutdown_never_loses_the_drain_wake_up() {
    assert_cycles_finish("ServeEngine start -> shutdown", 20_000, || {
        ServeEngine::start(ServeConfig { workers: 2, ..ServeConfig::default() }).shutdown();
    });
}

/// A connection handler that has checked the stop flag but not yet
/// parked must still see the stop, or `HttpServer::stop` joins it forever.
#[test]
fn http_stop_never_loses_the_stop_wake_up() {
    let engine = ServeEngine::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let handle = engine.handle();
    assert_cycles_finish("HttpServer bind -> stop", 5_000, move || {
        HttpServer::bind_with(handle.clone(), "127.0.0.1:0", 2).unwrap().stop();
    });
    engine.shutdown();
}

/// A one-shot HTTP/1.1 request over a plain TCP socket, returning
/// `(status, parsed JSON body)`.
fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, serde_json::Value) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("status code");
    let payload = response.split("\r\n\r\n").nth(1).unwrap_or("");
    let value = serde_json::from_str(payload).expect("JSON body");
    (status, value)
}

/// Reads one whole response from a keep-alive `stream`: the head up to its
/// blank line, then exactly `Content-Length` body bytes. The server sends a
/// response in one write, but one `read` may still return part of it.
fn read_response(stream: &mut TcpStream) -> String {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    let len: usize = head
        .lines()
        .find_map(|line| {
            let line = line.to_ascii_lowercase();
            line.strip_prefix("content-length:").map(|v| v.trim().parse().unwrap())
        })
        .expect("Content-Length header");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    head + std::str::from_utf8(&body).unwrap()
}

#[test]
fn eviction_preserves_stats_totals_and_answers_410() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        slice_evals: 25,
        retain_max: 1,
        ..ServeConfig::default()
    });
    let handle = engine.handle();

    // The same deterministic job twice, so each run's private cache and
    // simulation accounting is bit-identical.
    let spec = || {
        let mut spec = JobSpec::new(TaskSpec::benchmark("cm", 7), MethodSpec::Mlma(quick_cfg()));
        spec.seed = Some(9);
        spec
    };
    let first = handle.submit(spec()).unwrap();
    let done = handle.wait(first, Duration::from_secs(120)).unwrap();
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    let before = handle.stats();
    assert_eq!(before.jobs_retired, 0);
    assert!(before.cache.sims > 0);
    handle.report(first).unwrap();

    let second = handle.submit(spec()).unwrap();
    let done = handle.wait(second, Duration::from_secs(120)).unwrap();
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);

    // The second completion pushed the retained-terminal count past the
    // cap, so the next retention beat (this stats poll) evicts the oldest
    // terminal job — distinguishable from an id that never existed.
    let after = handle.stats();
    match handle.status(first) {
        Err(ServeError::JobEvicted { id }) => assert_eq!(id, first),
        other => panic!("expected JobEvicted, got {other:?}"),
    }
    match handle.report(first) {
        Err(ServeError::JobEvicted { .. }) => {}
        other => panic!("expected JobEvicted, got {other:?}"),
    }
    match handle.status(JobId(999)) {
        Err(ServeError::UnknownJob { .. }) => {}
        other => panic!("expected UnknownJob, got {other:?}"),
    }

    // The retired accumulator keeps `/stats` totals exact: two identical
    // jobs, so exactly double one job's accounting, eviction or not.
    assert_eq!(after.jobs_retired, 1);
    assert_eq!(after.jobs_done, 2);
    assert_eq!(after.cache.sims, 2 * before.cache.sims);
    assert_eq!(after.cache.hits, 2 * before.cache.hits);
    assert_eq!(after.cache.misses, 2 * before.cache.misses);
    handle.report(second).unwrap();

    // Over HTTP the eviction maps to 410 Gone.
    let mut server = HttpServer::bind(engine.handle(), "127.0.0.1:0").unwrap();
    let (status, v) = http_request(server.addr(), "GET", &format!("/jobs/{first}"), "");
    assert_eq!(status, 410, "{v}");
    assert_eq!(v["error"], "job_evicted");
    server.stop();
    engine.shutdown();
}

#[test]
fn terminal_ttl_evicts_on_the_stats_beat() {
    // Virtual time: the TTL is measured on a TestClock, so the test
    // controls exactly when the job expires — no sleeps, no racing the
    // real clock.
    let clock = TestClock::new();
    let engine = ServeEngine::start_with_clock(
        ServeConfig {
            workers: 1,
            slice_evals: 25,
            retain_ttl: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
        clock.to_shared(),
    );
    let handle = engine.handle();

    let mut spec = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(quick_cfg()));
    spec.seed = Some(13);
    let id = handle.submit(spec).unwrap();
    let done = handle.wait(id, Duration::from_secs(120)).unwrap();
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);

    // Virtual time is frozen at the job's terminal stamp, so this stats
    // poll can never evict it — deterministically, not just probably.
    let before = handle.stats();
    assert_eq!(before.jobs_retired, 0);

    // Step past the TTL: the next stats poll retires the job; the cache
    // totals survive the record.
    clock.advance_ms(80);
    let after = handle.stats();
    assert_eq!(after.jobs_retired, 1);
    assert_eq!(after.cache, before.cache);
    match handle.status(id) {
        Err(ServeError::JobEvicted { .. }) => {}
        other => panic!("expected JobEvicted, got {other:?}"),
    }
    engine.shutdown();
}

// The first-slice-timeout regression lives in `tests/chaos.rs`: it needs
// the fault registry to step a virtual clock mid-slice, and fault tests
// get their own test binary so the armed plan can't leak into this one.

#[test]
fn stalled_connections_do_not_block_other_requests() {
    let engine = ServeEngine::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut server = HttpServer::bind(engine.handle(), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Clients that open a connection, send half a request line, and go
    // silent. A sequential accept loop would sit in each one's 10 s
    // socket timeout while every later request waits behind it.
    let stalled: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"GET /sta").unwrap();
            stream
        })
        .collect();
    // Wait until both stalled sockets genuinely occupy handler slots —
    // observed on the busy-handler gauge, not guessed with a sleep — so
    // the fast request really does arrive behind them.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.busy_handlers() < 2 {
        assert!(Instant::now() < deadline, "handlers never picked up the stalled sockets");
        std::thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    let (status, v) = http_request(addr, "GET", "/stats", "");
    let waited = started.elapsed();
    assert_eq!(status, 200, "{v}");
    assert!(
        waited < Duration::from_secs(5),
        "a stalled client must not delay other requests ({waited:?})"
    );

    drop(stalled);
    server.stop();
    engine.shutdown();
}

#[test]
fn oversized_headers_and_chunked_bodies_are_rejected() {
    let engine = ServeEngine::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut server = HttpServer::bind(engine.handle(), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // A 64 KiB header line must bounce off the 8 KiB budget with 431,
    // not get buffered into an ever-growing String.
    let mut stream = TcpStream::connect(addr).unwrap();
    let huge = "a".repeat(64 * 1024);
    stream
        .write_all(format!("GET /stats HTTP/1.1\r\nX-Huge: {huge}\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");

    // Chunked uploads are refused loudly (501), not treated as empty.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 501"), "{response}");

    // A Content-Length that does not parse, or a second one that
    // disagrees, must not frame the body as empty: its bytes would then be
    // served as a second, smuggled request. One 400, then EOF.
    for lengths in [
        "Content-Length: x\r\n",
        "Content-Length: 23\r\nContent-Length: 0\r\n",
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let smuggled = "GET /stats HTTP/1.1\r\n\r\n";
        stream
            .write_all(
                format!("POST /jobs HTTP/1.1\r\nHost: t\r\n{lengths}\r\n{smuggled}").as_bytes(),
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("the server closes the connection");
        assert!(response.starts_with("HTTP/1.1 400"), "{lengths}: {response}");
        assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{lengths}: {response}");
    }

    // A sane request on the same server still works afterwards.
    let (status, _) = http_request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);

    server.stop();
    engine.shutdown();
}

#[test]
fn http_front_end_serves_submit_poll_report_stats() {
    let engine = ServeEngine::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut server = HttpServer::bind(engine.handle(), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // A terse hand-written body: omitted config fields take defaults.
    let job = r#"{"task": {"kind": "benchmark", "name": "diff_pair", "lde_seed": 5},
                  "method": {"Mlma": {"episodes": 3, "steps_per_episode": 8,
                                      "max_evals": 80, "seed": 5}}}"#;
    let (status, v) = http_request(addr, "POST", "/jobs", job);
    assert_eq!(status, 200, "{v}");
    let id = v["id"].as_u64().expect("job id");

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, v) = http_request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{v}");
        match v["state"].as_str().expect("state tag") {
            "done" => break,
            "failed" | "cancelled" => panic!("job ended badly: {v}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job did not finish over HTTP");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, report) = http_request(addr, "GET", &format!("/jobs/{id}/report"), "");
    assert_eq!(status, 200, "{report}");
    assert_eq!(report["method"], "mlma-q");
    assert!(report["evaluations"].as_u64().unwrap() > 0);
    assert!(report["best_cost"].as_f64().unwrap() <= report["initial_cost"].as_f64().unwrap());

    let (status, stats) = http_request(addr, "GET", "/stats", "");
    assert_eq!(status, 200, "{stats}");
    assert!(stats["jobs_done"].as_u64().unwrap() >= 1);
    assert_eq!(stats["workers"].as_u64().unwrap(), 1);

    let (status, _) = http_request(addr, "GET", "/jobs/999", "");
    assert_eq!(status, 404);
    let (status, _) = http_request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    let (status, v) = http_request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(v["draining"], true);
    assert!(engine.handle().is_draining());

    server.stop();
    engine.shutdown();
}

#[test]
fn virtual_idle_expiry_closes_keep_alive_connections() {
    // The keep-alive idle deadline is measured on the injected clock and
    // enforced by its waker hooks: a parked handler blocks on the socket
    // and is woken by shutdown, not by a real-time poll tick. On a
    // frozen TestClock the connection must therefore close as soon as
    // *virtual* time passes KEEP_ALIVE_IDLE — far inside the 5 s the
    // real-clock fallback would take.
    let clock = TestClock::new();
    let engine = ServeEngine::start_with_clock(
        ServeConfig { workers: 1, ..ServeConfig::default() },
        clock.to_shared(),
    );
    let mut server =
        HttpServer::bind_with_clock(engine.handle(), "127.0.0.1:0", 1, clock.to_shared()).unwrap();
    let addr = server.addr();

    // One keep-alive request; the handler answers and parks for the next.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    assert!(read_response(&mut stream).starts_with("HTTP/1.1 200"), "healthz reply");

    // Advance virtual time past the idle budget until the server hangs
    // up. One advance can race the handler registering its deadline (the
    // waker skips connections that are not parked yet), but the next
    // advance lands past any deadline measured from the already-advanced
    // clock, so a couple of rounds always suffice.
    let started = Instant::now();
    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let mut buf = [0u8; 4096];
    let mut closed = false;
    for _ in 0..30 {
        clock.advance(KEEP_ALIVE_IDLE + Duration::from_millis(1));
        match stream.read(&mut buf) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(_) => panic!("unexpected bytes after idle expiry"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                closed = true;
                break;
            }
            Err(e) => panic!("unexpected socket error: {e}"),
        }
    }
    assert!(closed, "server never closed the idle keep-alive connection");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "idle close took {:?} — the real-clock timeout path, not the waker",
        started.elapsed()
    );

    server.stop();
    engine.shutdown();
}

#[test]
fn a_cancelled_queued_job_is_retired_like_a_finished_one() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        slice_evals: 20,
        retain_max: 0,
        ..ServeConfig::default()
    });
    let handle = engine.handle();

    // With nothing retained, a job that ends Done is evicted at the next
    // retention beat — after its waiter has read how it ended...
    let mut quick =
        JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(quick_cfg()));
    quick.seed = Some(9);
    let done = handle.submit(quick).unwrap();
    let ended = handle.wait(done, Duration::from_secs(120)).unwrap();
    assert_eq!(ended.state, JobState::Done);
    assert_eq!(handle.stats().jobs_retired, 1);
    assert!(matches!(handle.status(done), Err(ServeError::JobEvicted { id }) if id == done));

    // ...and so is a queued job cancelled before any worker claims it.
    // The one worker is busy with the endless job, so the second waits.
    let running = handle.submit(long_spec(3)).unwrap();
    let queued = handle.submit(long_spec(5)).unwrap();
    let cancelled = handle.cancel(queued).unwrap();
    assert_eq!(cancelled.state, JobState::Cancelled { resumable: false });
    let stats = handle.stats();
    assert_eq!((stats.jobs_cancelled, stats.jobs_retired), (1, 2));
    match handle.status(queued) {
        Err(ServeError::JobEvicted { id }) => assert_eq!(id, queued),
        other => panic!("expected JobEvicted, got {other:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(120);

    handle.cancel(running).unwrap();
    while handle.stats().jobs_retired < 3 {
        assert!(Instant::now() < deadline, "job {running} never stopped");
        std::thread::sleep(Duration::from_millis(5));
    }
    engine.shutdown();
}

#[test]
fn a_checkpoint_with_an_inconsistent_tracker_fails_its_job() {
    let engine =
        ServeEngine::start(ServeConfig { workers: 1, slice_evals: 20, ..ServeConfig::default() });
    let handle = engine.handle();

    let id = handle.submit(long_spec(7)).unwrap();
    wait_until(&handle, id, |s| s.status.is_some_and(|rs| rs.evals >= 20));
    handle.cancel(id).unwrap();
    handle.wait(id, Duration::from_secs(120)).unwrap();
    let mut ckpt = handle.checkpoint(id).unwrap().expect("cancelled mid-run keeps its checkpoint");

    // A checkpoint whose trajectory was emptied would resume to a report
    // with the wrong initial cost; the driver rejects it instead, and the
    // job fails like any other driver error.
    ckpt.tracker.trajectory.clear();
    let mut spec = long_spec(7);
    spec.checkpoint = Some(Box::new(ckpt));
    let resumed = handle.submit(spec).unwrap();
    let done = handle.wait(resumed, Duration::from_secs(120)).unwrap();
    match done.state {
        JobState::Failed { error } => assert!(error.contains("empty trajectory"), "{error}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    engine.shutdown();
}

#[test]
fn a_done_job_keeps_no_checkpoint() {
    let engine =
        ServeEngine::start(ServeConfig { workers: 1, slice_evals: 25, ..ServeConfig::default() });
    let handle = engine.handle();
    let mut server = HttpServer::bind(handle.clone(), "127.0.0.1:0").unwrap();

    // 120 evaluations in 25-eval slices: the run paused at checkpoints
    // before it finished.
    let mut spec = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(quick_cfg()));
    spec.seed = Some(3);
    let id = handle.submit(spec).unwrap();
    let done = handle.wait(id, Duration::from_secs(120)).unwrap();
    assert!(matches!(done.state, JobState::Done), "{:?}", done.state);
    assert_eq!(done.status.unwrap().evals, 120);

    // The report supersedes the last checkpoint; nothing keeps it.
    assert!(handle.checkpoint(id).unwrap().is_none(), "a done job keeps a checkpoint");
    let (status, exports) = http_request(server.addr(), "GET", "/checkpoints", "");
    assert_eq!(status, 200, "{exports}");
    assert_eq!(exports[0]["id"], id.0);
    assert_eq!(exports[0]["state"], "done");
    assert!(exports[0]["checkpoint"].is_null(), "{}", exports[0]["checkpoint"]);
    let (status, _) = http_request(server.addr(), "GET", &format!("/jobs/{id}/checkpoint"), "");
    assert_eq!(status, 409);

    server.stop();
    engine.shutdown();
}

/// Every response leaves in one write on a `TCP_NODELAY` socket. Sent as
/// a head write and a body write, the body waited behind Nagle's
/// algorithm for the client's delayed ACK — about 40 ms on Linux
/// loopback — so these 40 requests took about 1.7 s.
#[test]
fn keep_alive_requests_do_not_wait_for_delayed_acks() {
    let engine = ServeEngine::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut server = HttpServer::bind(engine.handle(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut healthz = || {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert!(read_response(&mut stream).starts_with("HTTP/1.1 200"), "healthz reply");
    };
    // Warm-up: a fresh connection ACKs its first segments at once.
    for _ in 0..5 {
        healthz();
    }
    let started = Instant::now();
    for _ in 0..40 {
        healthz();
    }
    let took = started.elapsed();
    assert!(took < Duration::from_millis(800), "40 keep-alive requests took {took:?}");

    server.stop();
    engine.shutdown();
}

/// The accept thread blocks in `accept`; `stop` must wake it, also when
/// the server is bound to the unspecified address.
#[test]
fn stop_wakes_an_accept_that_never_saw_a_connection() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let engine = ServeEngine::start(ServeConfig { workers: 1, ..ServeConfig::default() });
        let mut server = HttpServer::bind(engine.handle(), bind).unwrap();
        let (stopped, wait) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            let _ = stopped.send(());
        });
        assert!(
            wait.recv_timeout(Duration::from_secs(1)).is_ok(),
            "{bind}: stop did not return within 1 s"
        );
        engine.shutdown();
    }
}
