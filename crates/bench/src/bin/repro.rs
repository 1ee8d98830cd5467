//! `repro` — regenerates every figure of the paper from the command line.
//!
//! ```text
//! cargo run --release -p breaksym-bench --bin repro -- all
//! cargo run --release -p breaksym-bench --bin repro -- fig3 --budget 3000 --seed 7
//! cargo run --release -p breaksym-bench --bin repro -- serve --addr 127.0.0.1:8077
//! ```
//!
//! Subcommands: `fig1`, `fig2`, `fig3`, `ablation-traj`,
//! `ablation-multilevel`, `ablation-linearity`, `ablation-dummies`,
//! `portfolio`, `serve`, `cluster`, `coord`, `chaos`, `genbench`, `all`.
//!
//! `genbench --family mirror|ota|comparator --seed N` prints one
//! seed-deterministic generated benchmark as SPICE with its ground-truth
//! `.group` annotations (`--unannotated` strips them, `--json` wraps the
//! dump with the ground truth); `--check` runs the automatic symmetry
//! extractor against the ground truth and exits 2 on any mismatch.
//!
//! `chaos --seed N` runs the seeded fault-injection harness twice and
//! fails (exit 1) if any invariant breaks or the two runs differ — the
//! determinism check in executable form. With `--nodes N` (N ≥ 2) it
//! runs the *multi-node* harness instead: a real fleet behind a
//! coordinator, the busiest node killed mid-run, every affected job
//! resumed on a survivor from its replicated checkpoint.
//! `--coord-restart` additionally kills and restarts a durable
//! coordinator mid-run; `--revive` lets the killed node rejoin and take
//! its jobs back.
//!
//! `cluster --nodes N` starts an in-process fleet of N serve nodes
//! behind one coordinator; `coord --node A --node B ...` fronts serve
//! nodes that are already running elsewhere (add `--state-dir D` to
//! write-ahead log the job table so a coordinator restarted over the
//! same directory re-adopts the fleet). Both speak the same HTTP
//! protocol a single `serve` does.
//!
//! Ctrl-C is latched, never fatal mid-write: figure runs stop cleanly at
//! the next experiment boundary (exit 130), and `serve` drains its worker
//! pool — every in-flight job persists a resumable checkpoint — before
//! exiting.

use std::env;
use std::str::FromStr;
use std::time::Duration;

use breaksym_bench as bench;
use breaksym_cluster::{run_cluster_chaos, ClusterChaosConfig, ClusterConfig, Coordinator};
use breaksym_serve::chaos::{run_chaos, ChaosConfig};
use breaksym_serve::{HttpServer, ServeConfig, ServeEngine};

/// A latched SIGINT flag, installed with raw `signal(2)` so no external
/// signal-handling crate is needed. The handler only stores to an atomic
/// (async-signal-safe); all real work happens on the main thread, which
/// polls [`sigint::requested`].
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    mod imp {
        use std::sync::atomic::Ordering;

        const SIGINT: i32 = 2;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }

        extern "C" fn on_sigint(_signum: i32) {
            super::REQUESTED.store(true, Ordering::SeqCst);
        }

        pub fn install() {
            // SAFETY: registering a handler that only stores to a static
            // atomic, which is async-signal-safe.
            unsafe {
                signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
            }
        }
    }

    #[cfg(not(unix))]
    mod imp {
        pub fn install() {}
    }

    pub fn install() {
        imp::install();
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

struct Args {
    cmd: String,
    budget: u64,
    seed: u64,
    threads: usize,
    json: bool,
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
}

fn parse_args() -> Args {
    let argv: Vec<String> = env::args().skip(1).collect();
    let mut args = Args {
        cmd: "all".into(),
        budget: 3_000,
        seed: 7,
        threads: default_threads(),
        json: false,
    };
    let mut it = argv.iter();
    if let Some(first) = it.next() {
        args.cmd = first.clone();
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--budget" => args.budget = flag_value(&mut it, "--budget needs an integer"),
            "--seed" => args.seed = flag_value(&mut it, "--seed needs an integer"),
            "--threads" => args.threads = flag_value(&mut it, "--threads needs an integer"),
            "--json" => args.json = true,
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    args
}

/// The next argument parsed as `T`; a missing or unparsable value exits
/// 2 with `msg`.
fn flag_value<T: FromStr>(it: &mut std::slice::Iter<'_, String>, msg: &str) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| die(msg))
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2)
}

fn main() {
    sigint::install();
    let argv: Vec<String> = env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        serve(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("cluster") {
        cluster(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("coord") {
        coord(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("chaos") {
        chaos(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("genbench") {
        genbench(&argv[1..]);
        return;
    }
    let args = parse_args();
    // Checked at every experiment boundary: a latched Ctrl-C stops the
    // sweep cleanly between figures instead of dying mid-write.
    let run = |name: &str| {
        if sigint::requested() {
            eprintln!("repro: interrupted; stopping before `{name}` (completed output is intact)");
            std::process::exit(130);
        }
        args.cmd == name || args.cmd == "all"
    };
    let mut ran = false;

    // --json prints one machine-readable JSON document per experiment
    // instead of the human tables.
    macro_rules! emit_json {
        ($name:literal, $value:expr) => {{
            let value = $value.unwrap_or_else(|e| die(&e.to_string()));
            let doc = serde_json::json!({ "experiment": $name, "rows": value });
            println!("{}", serde_json::to_string_pretty(&doc).expect("serialises"));
        }};
    }

    if run("fig1") {
        ran = true;
        if args.json {
            emit_json!("fig1", bench::fig1(args.seed));
        } else {
            fig1(args.seed);
        }
    }
    if run("fig2") {
        ran = true;
        if args.json {
            emit_json!("fig2", bench::fig2());
        } else {
            fig2();
        }
    }
    if run("fig3") {
        ran = true;
        if args.json {
            emit_json!("fig3", bench::fig3(args.budget, args.seed));
        } else {
            fig3(args.budget, args.seed);
        }
    }
    if run("ablation-traj") {
        ran = true;
        if args.json {
            emit_json!("ablation-traj", bench::ablation_trajectories(args.budget, args.seed));
        } else {
            ablation_traj(args.budget, args.seed);
        }
    }
    if run("ablation-multilevel") {
        ran = true;
        if args.json {
            emit_json!(
                "ablation-multilevel",
                bench::ablation_multilevel(args.budget.min(1_500), args.seed)
            );
        } else {
            ablation_multilevel(args.budget.min(1_500), args.seed);
        }
    }
    if run("ablation-linearity") {
        ran = true;
        if args.json {
            emit_json!(
                "ablation-linearity",
                bench::ablation_linearity(args.budget.min(1_500), args.seed)
            );
        } else {
            ablation_linearity(args.budget.min(1_500), args.seed);
        }
    }
    if run("ablation-dummies") {
        ran = true;
        if args.json {
            emit_json!("ablation-dummies", bench::ablation_dummies(args.seed));
        } else {
            ablation_dummies(args.seed);
        }
    }
    if run("ablation-policy") {
        ran = true;
        if args.json {
            emit_json!(
                "ablation-policy",
                bench::ablation_policies(args.budget.min(1_500), args.seed)
            );
        } else {
            ablation_policy(args.budget.min(1_500), args.seed);
        }
    }
    if run("ablation-weights") {
        ran = true;
        if args.json {
            emit_json!(
                "ablation-weights",
                bench::ablation_weights(args.budget.min(1_200), args.seed)
            );
        } else {
            ablation_weights(args.budget.min(1_200), args.seed);
        }
    }
    if run("ablation-budget") {
        ran = true;
        if args.json {
            emit_json!("ablation-budget", bench::ablation_budget(args.seed));
        } else {
            ablation_budget(args.seed);
        }
    }
    if run("ablation-seeds") {
        ran = true;
        if args.json {
            emit_json!(
                "ablation-seeds",
                bench::ablation_seeds(args.budget.min(1_500), &[3, 7, 11, 19, 23])
            );
        } else {
            ablation_seeds(args.budget.min(1_500));
        }
    }
    if run("portfolio") {
        ran = true;
        if args.json {
            emit_json!(
                "portfolio",
                bench::portfolio_sweep(args.budget.min(1_500), args.seed, args.threads)
            );
        } else {
            portfolio(args.budget.min(1_500), args.seed, args.threads);
        }
    }
    if !ran {
        die(&format!(
            "unknown subcommand `{}` (try: fig1 fig2 fig3 ablation-traj ablation-multilevel ablation-linearity ablation-dummies ablation-policy ablation-seeds ablation-weights ablation-budget portfolio serve cluster coord chaos genbench all)",
            args.cmd
        ));
    }
}

/// `repro serve` — start the placement service and block until Ctrl-C
/// (or a `POST /shutdown`), then drain gracefully: workers stop at their
/// next slice boundary and every in-flight job is requeued with a
/// resumable checkpoint.
fn serve(flags: &[String]) {
    let mut addr = "127.0.0.1:8077".to_string();
    let mut workers = default_threads().min(4);
    let mut queue_cap = 64usize;
    let mut slice_evals = 64u64;
    let mut conn_workers = breaksym_serve::DEFAULT_CONN_WORKERS;
    // Long-lived-server defaults: terminal jobs linger an hour for their
    // reports, the registry never holds more than 1024 of them.
    let mut retain_secs = 3600u64;
    let mut retain_max = 1024usize;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = flag_value(&mut it, "--addr needs host:port"),
            "--workers" => workers = flag_value(&mut it, "--workers needs an integer"),
            "--queue-cap" => queue_cap = flag_value(&mut it, "--queue-cap needs an integer"),
            "--slice" => slice_evals = flag_value(&mut it, "--slice needs an integer"),
            "--conn-workers" => {
                conn_workers = flag_value(&mut it, "--conn-workers needs an integer")
            }
            "--retain-secs" => {
                retain_secs =
                    flag_value(&mut it, "--retain-secs needs an integer (0 disables the TTL)")
            }
            "--retain-max" => retain_max = flag_value(&mut it, "--retain-max needs an integer"),
            other => die(&format!(
                "unknown serve flag `{other}` (try: --addr --workers --queue-cap --slice \
                 --conn-workers --retain-secs --retain-max)"
            )),
        }
    }

    let engine = ServeEngine::start(ServeConfig {
        workers,
        queue_cap,
        slice_evals,
        retain_ttl: (retain_secs > 0).then(|| Duration::from_secs(retain_secs)),
        retain_max,
    });
    let handle = engine.handle();
    let mut server = HttpServer::bind_with(handle.clone(), addr.as_str(), conn_workers)
        .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));

    println!("breaksym-serve listening on http://{}", server.addr());
    println!("  POST /jobs                  submit a JobSpec (JSON)");
    println!("  GET  /jobs/{{id}}             poll state + live progress");
    println!("  GET  /jobs/{{id}}/report      final RunReport");
    println!("  GET  /jobs/{{id}}/checkpoint  latest resumable checkpoint");
    println!("  POST /jobs/{{id}}/cancel      cancel (keeps the checkpoint)");
    println!("  GET  /stats                 queue/worker/cache snapshot");
    println!("  POST /shutdown              graceful drain");
    println!(
        "{workers} workers, queue capacity {queue_cap}, {slice_evals} evals/slice, \
         {conn_workers} connection handlers; terminal jobs kept {retain_secs} s (max \
         {retain_max}); Ctrl-C drains"
    );

    while !sigint::requested() && !handle.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let interrupted = sigint::requested();
    eprintln!("repro serve: draining (workers finish their current slice)...");
    handle.request_drain();
    server.stop();
    let handle = engine.shutdown();
    let stats = handle.stats();
    eprintln!(
        "repro serve: drained — {} done, {} failed, {} cancelled, {} left queued with \
         checkpoints; {}",
        stats.jobs_done, stats.jobs_failed, stats.jobs_cancelled, stats.queue_depth, stats.cache
    );
    std::process::exit(if interrupted { 130 } else { 0 });
}

/// `repro genbench` — emit one seed-deterministic generated benchmark
/// circuit as SPICE (ground-truth `.group` annotations included unless
/// `--unannotated`), and with `--check` differentially verify that the
/// automatic symmetry extractor reproduces the generator's ground truth
/// (exit 2 on mismatch). Every `(family, seed)` pair is a reproducible
/// test case for the whole parse → extract → place pipeline.
fn genbench(flags: &[String]) {
    use breaksym_genbench::{generate, Family};
    use breaksym_symmetry::extract::{canonical, extract_groups};

    let mut family = Family::Ota;
    let mut seed = 0u64;
    let mut json = false;
    let mut unannotated = false;
    let mut check = false;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--family" => {
                family = flag_value(&mut it, "--family needs one of: mirror ota comparator")
            }
            "--seed" => seed = flag_value(&mut it, "--seed needs an integer"),
            "--json" => json = true,
            "--unannotated" => unannotated = true,
            "--check" => check = true,
            other => die(&format!(
                "unknown genbench flag `{other}` (try: --family --seed --json --unannotated \
                 --check)"
            )),
        }
    }

    let g = generate(family, seed);
    if check {
        let derived = canonical(&extract_groups(&g.circuit).groups);
        let truth = canonical(&g.groups);
        if derived != truth {
            eprintln!("repro genbench: extraction MISMATCH on {family} seed {seed}");
            eprintln!("  ground truth: {truth:?}");
            eprintln!("  derived     : {derived:?}");
            std::process::exit(2);
        }
        eprintln!(
            "repro genbench: extraction matches ground truth on {family} seed {seed} \
             ({} groups)",
            g.groups.len()
        );
    }
    let spice = if unannotated {
        &g.spice_unannotated
    } else {
        &g.spice
    };
    if json {
        let doc = serde_json::json!({
            "family": family.to_string(),
            "seed": seed,
            "grid": g.grid_side,
            "groups": g.groups,
            "spice": spice,
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialises"));
    } else {
        print!("{spice}");
    }
}

/// `repro chaos` — run the seeded chaos/invariant harness twice with the
/// same seed, assert every invariant held in both runs, and assert the
/// two reports (fault plan, job states, verdicts) are identical. Exit 0
/// only if chaos is both survivable and deterministic.
fn chaos(flags: &[String]) {
    let mut cfg = ChaosConfig::default();
    let mut nodes = 1usize;
    let mut jobs: Option<usize> = None;
    let mut faults: Option<usize> = None;
    let mut coordinator_restart = false;
    let mut revive = false;
    let mut json = false;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => cfg.seed = flag_value(&mut it, "--seed needs an integer"),
            "--jobs" => jobs = Some(flag_value(&mut it, "--jobs needs an integer")),
            "--faults" => faults = Some(flag_value(&mut it, "--faults needs an integer")),
            "--nodes" => nodes = flag_value(&mut it, "--nodes needs an integer"),
            "--coord-restart" => coordinator_restart = true,
            "--revive" => revive = true,
            "--json" => json = true,
            other => die(&format!(
                "unknown chaos flag `{other}` (try: --seed --jobs --faults --nodes \
                 --coord-restart --revive --json)"
            )),
        }
    }
    if (coordinator_restart || revive) && nodes <= 1 {
        die("--coord-restart and --revive need a fleet (--nodes 2 or more)");
    }
    if nodes > 1 {
        let defaults = ClusterChaosConfig::default();
        cluster_chaos(
            ClusterChaosConfig {
                seed: cfg.seed,
                nodes,
                jobs: jobs.unwrap_or(defaults.jobs),
                faults: faults.unwrap_or(defaults.faults),
                coordinator_restart,
                revive,
            },
            json,
        );
    }
    if let Some(jobs) = jobs {
        cfg.jobs = jobs;
    }
    if let Some(faults) = faults {
        cfg.faults = faults;
    }

    println!(
        "== chaos — seed {}, {} jobs, {} sampled faults, 1 worker ==",
        cfg.seed, cfg.jobs, cfg.faults
    );
    let first = run_chaos(&cfg);
    let second = run_chaos(&cfg);

    if json {
        let doc = serde_json::json!({ "experiment": "chaos", "report": first });
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialises"));
    } else {
        println!("fault plan: {} triggers", first.plan.triggers.len());
        for t in &first.plan.triggers {
            println!("  {} @ hit {} -> {:?}", t.site, t.at, t.action);
        }
        println!("job states: {:?}", first.job_states);
        for inv in &first.invariants {
            println!("  [{}] {} — {}", if inv.ok { "ok" } else { "FAIL" }, inv.name, inv.details);
        }
    }

    let deterministic = first == second;
    if !deterministic {
        eprintln!("repro chaos: NON-DETERMINISTIC — two runs with seed {} differ", cfg.seed);
        eprintln!("  first : {:?} / {:?}", first.job_states, first.invariants);
        eprintln!("  second: {:?} / {:?}", second.job_states, second.invariants);
    }
    let ok = first.ok() && second.ok() && deterministic;
    println!(
        "chaos verdict: invariants {}, determinism {}",
        if first.ok() && second.ok() {
            "held"
        } else {
            "VIOLATED"
        },
        if deterministic { "held" } else { "VIOLATED" },
    );
    std::process::exit(if ok { 0 } else { 1 });
}

/// `repro chaos --nodes N` — the multi-node variant: a real fleet behind
/// a coordinator, the busiest node killed mid-run, every affected job
/// resumed on a survivor. Run twice; the timing-independent projections
/// of the two runs must be identical.
fn cluster_chaos(cfg: ClusterChaosConfig, json: bool) -> ! {
    println!(
        "== cluster chaos — seed {}, {} nodes, {} jobs, {} sampled faults{}{} ==",
        cfg.seed,
        cfg.nodes,
        cfg.jobs,
        cfg.faults,
        if cfg.coordinator_restart {
            ", coordinator restart"
        } else {
            ""
        },
        if cfg.revive { ", node revival" } else { "" },
    );
    let first = run_cluster_chaos(&cfg);
    let second = run_cluster_chaos(&cfg);

    if json {
        let doc = serde_json::json!({ "experiment": "cluster-chaos", "report": first });
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialises"));
    } else {
        println!("fault plan: {} triggers", first.plan.triggers.len());
        for t in &first.plan.triggers {
            println!("  {} @ hit {} -> {:?}", t.site, t.at, t.action);
        }
        println!(
            "killed node {} (the busiest); job states: {:?}",
            first.doomed_node, first.job_states
        );
        for inv in &first.invariants {
            println!("  [{}] {} — {}", if inv.ok { "ok" } else { "FAIL" }, inv.name, inv.details);
        }
    }

    let deterministic = first.deterministic_view() == second.deterministic_view();
    if !deterministic {
        eprintln!(
            "repro chaos: NON-DETERMINISTIC — two cluster runs with seed {} differ",
            cfg.seed
        );
        eprintln!("  first : {:?}", first.deterministic_view());
        eprintln!("  second: {:?}", second.deterministic_view());
    }
    let ok = first.ok() && second.ok() && deterministic;
    println!(
        "cluster chaos verdict: invariants {}, determinism {}",
        if first.ok() && second.ok() {
            "held"
        } else {
            "VIOLATED"
        },
        if deterministic { "held" } else { "VIOLATED" },
    );
    std::process::exit(if ok { 0 } else { 1 });
}

/// `repro cluster` — start an in-process fleet of N serve nodes plus a
/// coordinator fronting them, and block until Ctrl-C. One process, real
/// sockets: the quickest way to try the cluster protocol.
fn cluster(flags: &[String]) -> ! {
    let mut nodes = 3usize;
    let mut addr = "127.0.0.1:8078".to_string();
    let mut workers = 1usize;
    let mut queue_cap = 64usize;
    let mut slice_evals = 64u64;
    let mut heartbeat_ms = 1000u64;
    let mut threshold = 3u32;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--nodes" => nodes = flag_value(&mut it, "--nodes needs an integer"),
            "--addr" => addr = flag_value(&mut it, "--addr needs host:port"),
            "--workers" => workers = flag_value(&mut it, "--workers needs an integer (per node)"),
            "--queue-cap" => {
                queue_cap = flag_value(&mut it, "--queue-cap needs an integer (per node)")
            }
            "--slice" => slice_evals = flag_value(&mut it, "--slice needs an integer"),
            "--heartbeat-ms" => {
                heartbeat_ms = flag_value(&mut it, "--heartbeat-ms needs an integer")
            }
            "--threshold" => threshold = flag_value(&mut it, "--threshold needs an integer"),
            other => die(&format!(
                "unknown cluster flag `{other}` (try: --nodes --addr --workers --queue-cap \
                 --slice --heartbeat-ms --threshold)"
            )),
        }
    }
    if nodes == 0 {
        die("--nodes must be at least 1");
    }

    let mut local = Vec::with_capacity(nodes);
    let mut node_addrs = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let engine = ServeEngine::start(ServeConfig {
            workers,
            queue_cap,
            slice_evals,
            ..ServeConfig::default()
        });
        let server = HttpServer::bind(engine.handle(), "127.0.0.1:0")
            .unwrap_or_else(|e| die(&format!("cannot bind a node socket: {e}")));
        node_addrs.push(server.addr().to_string());
        local.push((engine, server));
    }
    println!(
        "{nodes} in-process nodes ({workers} worker(s), queue {queue_cap}, {slice_evals} \
         evals/slice each): {}",
        node_addrs.join(", ")
    );

    let coordinator = Coordinator::start(
        node_addrs,
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(heartbeat_ms),
            failure_threshold: threshold,
            ..ClusterConfig::default()
        },
    );
    run_cluster_front(coordinator, &addr, local)
}

/// `repro coord` — front serve nodes that are already running elsewhere
/// (each started with `repro serve --addr ...`) with one coordinator.
fn coord(flags: &[String]) -> ! {
    let mut node_addrs: Vec<String> = Vec::new();
    let mut addr = "127.0.0.1:8078".to_string();
    let mut state_dir: Option<String> = None;
    let mut heartbeat_ms = 1000u64;
    let mut threshold = 3u32;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--node" => node_addrs.push(flag_value(&mut it, "--node needs host:port")),
            "--addr" => addr = flag_value(&mut it, "--addr needs host:port"),
            "--state-dir" => state_dir = Some(flag_value(&mut it, "--state-dir needs a path")),
            "--heartbeat-ms" => {
                heartbeat_ms = flag_value(&mut it, "--heartbeat-ms needs an integer")
            }
            "--threshold" => threshold = flag_value(&mut it, "--threshold needs an integer"),
            other => die(&format!(
                "unknown coord flag `{other}` (try: --node --addr --state-dir --heartbeat-ms \
                 --threshold)"
            )),
        }
    }
    if node_addrs.is_empty() {
        die("coord needs at least one --node host:port (a running `repro serve`)");
    }
    println!("fronting {} node(s): {}", node_addrs.len(), node_addrs.join(", "));

    let cluster_cfg = ClusterConfig {
        heartbeat_interval: Duration::from_millis(heartbeat_ms),
        failure_threshold: threshold,
        ..ClusterConfig::default()
    };
    let coordinator = match state_dir {
        Some(dir) => {
            println!("durable: write-ahead logging to {dir} (restarts re-adopt the fleet)");
            Coordinator::start_durable(node_addrs, cluster_cfg, dir)
                .unwrap_or_else(|e| die(&format!("cannot open --state-dir: {e}")))
        }
        None => Coordinator::start(node_addrs, cluster_cfg),
    };
    run_cluster_front(coordinator, &addr, Vec::new())
}

/// The shared tail of `cluster` and `coord`: mount the coordinator
/// behind the same HTTP front-end a single node uses, block until
/// Ctrl-C (or `POST /shutdown`), then drain the stack in order —
/// front-end, coordinator, and any in-process nodes.
fn run_cluster_front(
    coordinator: Coordinator,
    addr: &str,
    local: Vec<(ServeEngine, HttpServer)>,
) -> ! {
    let handle = coordinator.handle();
    let mut front = HttpServer::bind(handle.clone(), addr)
        .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));

    println!("breaksym-cluster coordinator listening on http://{}", front.addr());
    println!("  POST /jobs                  submit a JobSpec (consistent-hash routed)");
    println!("  GET  /jobs/{{id}}             poll state + live progress");
    println!("  GET  /jobs/{{id}}/report      final RunReport");
    println!("  GET  /jobs/{{id}}/checkpoint  latest replicated checkpoint");
    println!("  POST /jobs/{{id}}/cancel      cancel cluster-wide");
    println!("  GET  /stats                 cluster fold + per-node detail");
    println!("  GET  /healthz               coordinator liveness");
    println!("  POST /shutdown              graceful drain");

    while !sigint::requested() && !handle.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let interrupted = sigint::requested();
    eprintln!("repro cluster: draining...");
    handle.request_drain();
    front.stop();
    let handle = coordinator.shutdown();
    let stats = handle.stats();
    eprintln!(
        "repro cluster: drained — {} routed, {} done, {} failed, {} cancelled; {} reroutes, \
         {} node deaths, {} resumed",
        stats.jobs_routed,
        stats.jobs_done,
        stats.jobs_failed,
        stats.jobs_cancelled,
        stats.reroutes,
        stats.node_deaths,
        stats.jobs_resumed
    );
    for (engine, mut server) in local {
        server.stop();
        engine.shutdown();
    }
    std::process::exit(if interrupted { 130 } else { 0 });
}

fn fig1(seed: u64) {
    println!("== Fig. 1 — conventional symmetric layout styles (folded-cascode OTA) ==");
    let rows = bench::fig1(seed).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "{:10} {:16} {:>12} {:>10} {:>10} {:>9} {:>8} {:>9} {:>7}",
        "regime",
        "style",
        "offset[mV]",
        "area[um2]",
        "routed[um]",
        "symmetry",
        "ctr-err",
        "congest",
        "skew"
    );
    for r in rows {
        println!(
            "{:10} {:16} {:>12.4} {:>10.1} {:>10.1} {:>9.3} {:>8.4} {:>9.1} {:>7}",
            r.regime,
            r.style,
            r.offset_v * 1e3,
            r.area_um2,
            r.routed_um,
            r.symmetry,
            r.centroid_error,
            r.congestion,
            r.input_skew_cells.map_or("-".into(), |s| s.to_string()),
        );
    }
    println!();
}

fn fig2() {
    println!("== Fig. 2 — layout environment and legal moves ==");
    let s = bench::fig2().unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "{} units in {} groups; action space = {} moves/unit",
        s.units, s.groups, s.actions_per_unit
    );
    println!("legal moves per unit (initial placement): {:?}", s.legal_per_unit);
    println!("{}", s.ascii);
}

fn fig3(budget: u64, seed: u64) {
    println!("== Fig. 3 — placement results (budget {budget} sims, seed {seed}) ==");
    let rows = bench::fig3(budget, seed).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "{:5} {:28} {:>16} {:>8} {:>8} {:>10}",
        "ckt", "method", "mismatch/offset", "FOM", "#sims", "sims@tgt"
    );
    for r in &rows {
        let primary = if r.primary_unit == "%" {
            format!("{:.3} %", r.primary)
        } else {
            format!("{:.4} mV", r.primary * 1e3)
        };
        println!(
            "{:5} {:28} {:>16} {:>8.3} {:>8} {:>10}",
            r.circuit,
            r.method,
            primary,
            r.fom,
            r.sims,
            r.sims_to_target.map_or("-".into(), |s| s.to_string()),
        );
    }
    println!();
}

fn ablation_traj(budget: u64, seed: u64) {
    println!("== A1 — SA vs Q-learning convergence (OTA, budget {budget}) ==");
    let t = bench::ablation_trajectories(budget, seed).unwrap_or_else(|e| die(&e.to_string()));
    println!("sa improvements   : {:?}", concise(&t.sa));
    println!("mlma improvements : {:?}", concise(&t.mlma));
    let sa_final = t.sa.last().map(|x| x.1).unwrap_or(f64::NAN);
    let rl_final = t.mlma.last().map(|x| x.1).unwrap_or(f64::NAN);
    println!("final best cost   : sa {sa_final:.4} vs mlma {rl_final:.4}\n");
}

fn concise(tr: &[(u64, f64)]) -> Vec<(u64, f64)> {
    let mut v: Vec<(u64, f64)> = tr.iter().map(|&(e, c)| (e, (c * 1e4).round() / 1e4)).collect();
    if v.len() > 12 {
        let tail = v.split_off(v.len() - 4);
        v.truncate(8);
        v.extend(tail);
    }
    v
}

fn ablation_multilevel(budget: u64, seed: u64) {
    println!("== A2 — flat vs multi-level Q (budget {budget}) ==");
    let rows = bench::ablation_multilevel(budget, seed).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "{:6} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "ckt", "units", "flat cost", "flat states", "mlma cost", "mlma states"
    );
    for r in rows {
        println!(
            "{:6} {:>6} {:>12.4} {:>12} {:>12.4} {:>12}",
            r.circuit, r.units, r.flat_cost, r.flat_states, r.mlma_cost, r.mlma_states
        );
    }
    println!();
}

fn ablation_linearity(budget: u64, seed: u64) {
    println!("== A3 — symmetric-vs-RL gap over LDE non-linearity (budget {budget}) ==");
    println!("{:>6} {:>18} {:>14} {:>14}", "alpha", "symmetric[mV]", "rl[mV]", "rl advantage");
    let rows = bench::ablation_linearity(budget, seed).unwrap_or_else(|e| die(&e.to_string()));
    for r in rows {
        println!(
            "{:>6.2} {:>18.4} {:>14.4} {:>13.2}x",
            r.alpha,
            r.symmetric_offset * 1e3,
            r.rl_offset * 1e3,
            r.rl_advantage
        );
    }
    println!();
}

fn ablation_policy(budget: u64, seed: u64) {
    println!("== A5 — exploration policy & double-Q (5T OTA, budget {budget}) ==");
    let rows = bench::ablation_policies(budget, seed).unwrap_or_else(|e| die(&e.to_string()));
    println!("{:24} {:>14} {:>10} {:>10}", "policy", "offset[mV]", "sims@tgt", "q-states");
    for r in rows {
        println!(
            "{:24} {:>14.4} {:>10} {:>10}",
            r.policy,
            r.best_primary * 1e3,
            r.sims_to_target.map_or("-".into(), |s| s.to_string()),
            r.qtable_states
        );
    }
    println!();
}

fn ablation_weights(budget: u64, seed: u64) {
    println!("== A7 — objective-weight sensitivity (CM, budget {budget}) ==");
    let rows = bench::ablation_weights(budget, seed).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "{:>22} {:>14} {:>12} {:>10}",
        "weights (p/a/wl)", "mismatch[%]", "area[um2]", "wl[um]"
    );
    for r in rows {
        println!(
            "{:>22} {:>14.3} {:>12.1} {:>10.1}",
            format!("{:.2}/{:.2}/{:.2}", r.weights[0], r.weights[1], r.weights[2]),
            r.mismatch_pct,
            r.area_um2,
            r.wirelength_um
        );
    }
    println!();
}

fn ablation_budget(seed: u64) {
    println!("== A8 — quality vs simulation budget (5T OTA, seed {seed}) ==");
    let rows = bench::ablation_budget(seed).unwrap_or_else(|e| die(&e.to_string()));
    println!("{:>8} {:>12} {:>12}", "budget", "sa cost", "q cost");
    for r in rows {
        println!("{:>8} {:>12.4} {:>12.4}", r.budget, r.sa_cost, r.mlma_cost);
    }
    println!();
}

fn ablation_seeds(budget: u64) {
    println!("== A6 — seed robustness of the CM comparison (budget {budget}) ==");
    let seeds = [3u64, 7, 11, 19, 23];
    let rows = bench::ablation_seeds(budget, &seeds).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "seed", "sym[%]", "sa[%]", "sa+swap[%]", "q[%]", "sa sims@tgt", "q sims@tgt"
    );
    let mut q_wins = 0;
    for r in &rows {
        if r.mlma <= r.sa {
            q_wins += 1;
        }
        println!(
            "{:>6} {:>12.3} {:>10.3} {:>12.3} {:>10.3} {:>12} {:>12}",
            r.seed,
            r.symmetric,
            r.sa,
            r.sa_swap,
            r.mlma,
            r.sa_sims_to_target.map_or("-".into(), |s| s.to_string()),
            r.mlma_sims_to_target.map_or("-".into(), |s| s.to_string()),
        );
    }
    println!("q beats or matches sa on {q_wins}/{} seeds\n", rows.len());
}

fn portfolio(budget: u64, seed: u64, threads: usize) {
    println!("== P1 — deterministic portfolio sweep (OTA, budget {budget}, {threads} threads) ==");
    let s = bench::portfolio_sweep(budget, seed, threads).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "{:10} {:>6} {:>12} {:>14} {:>8} {:>10}",
        "method", "seed", "best cost", "primary", "#sims", "job[ms]"
    );
    for r in &s.rows {
        println!(
            "{:10} {:>6} {:>12.4} {:>14.4e} {:>8} {:>10}",
            r.method, r.seed, r.best_cost, r.best_primary, r.evaluations, r.elapsed_ms
        );
    }
    println!(
        "{} jobs bit-identical across schedules; sequential {} ms vs parallel {} ms -> {:.2}x speedup\n",
        s.jobs, s.sequential_ms, s.parallel_ms, s.speedup
    );
}

fn ablation_dummies(seed: u64) {
    println!("== A4 — dummy fill: matching benefit vs area cost (CM) ==");
    let rows = bench::ablation_dummies(seed).unwrap_or_else(|e| die(&e.to_string()));
    println!("{:26} {:>14} {:>12}", "style", "mismatch[%]", "area[um2]");
    for r in rows {
        println!("{:26} {:>14.3} {:>12.1}", r.style, r.mismatch_pct, r.area_um2);
    }
    println!();
}
