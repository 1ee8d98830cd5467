//! Multi-node chaos: a real fleet (N single-worker serve engines behind
//! their HTTP front-ends, one coordinator over real sockets), a seeded
//! job mix, seeded faults on the cluster seams, and one scripted node
//! kill mid-run — then the invariants that no failure mode may violate:
//!
//! - **no job lost or stuck** — every submitted job reaches a terminal
//!   state through the coordinator, node death notwithstanding;
//! - **cluster `/stats` accounting is exact** — routed/terminal counters
//!   match the observed states, `reroutes` equals the per-job sum of
//!   detours and resumes, `jobs_resumed` equals the per-job resume sum,
//!   and the killed node is accounted dead — after a plain kill, with
//!   at least one of its jobs moved (every slice the fleet runs while
//!   the faults are armed is held a few milliseconds, so the kill
//!   catches a job mid-run on any host);
//! - **replicated checkpoints resume bit-identically** — every
//!   checkpoint in the coordinator's replica store when the kill lands
//!   (at least one), and every one it still holds once the jobs settle,
//!   passes the same twice-resumed comparison the single-node harness
//!   uses;
//! - **cluster reports match direct runs** — every report fetched
//!   through the coordinator is bit-identical to the same spec executed
//!   directly on a fresh [`Driver`](breaksym_core::Driver), even when
//!   the job was resumed on a survivor halfway through;
//! - **reported placements are legal and fresh** — the single-node
//!   replay checks, unchanged.
//!
//! # Determinism across runs
//!
//! `repro chaos --nodes N --seed S` runs this twice and diffs the
//! [`DeterministicView`]s. Wall-clock timing varies between runs — the
//! kill lands at a different slice, heartbeats count differently — so
//! the view contains only timing-independent projections: final state
//! labels, report fingerprints (which checkpoint/resume bit-identity
//! makes independent of *where* a job was interrupted), the doomed node
//! (a pure function of routing), and invariant verdicts. For the same
//! reason the sampled fault palette covers only the `cluster::forward`
//! and `cluster::replicate` seams: a sampled `cluster::heartbeat` miss
//! could align with real timing to kill a healthy node in one run and
//! not the other. The heartbeat failpoint is exercised by the
//! deterministic clock-driven tests in `tests/cluster.rs` instead, where
//! a [`TestClock`](breaksym_testkit::TestClock) makes miss alignment
//! exact. Forward triggers are additionally spaced at least `nodes` hits
//! apart, so an injected transport failure always detours to a survivor
//! instead of exhausting the candidate list.
//!
//! # Variants
//!
//! Two optional twists compose with the base round (and each other):
//!
//! - [`ClusterChaosConfig::coordinator_restart`] — the coordinator runs
//!   durable ([`Coordinator::start_durable`]) in a scratch state
//!   directory and is abruptly dropped and restarted over the same
//!   directory mid-run, once the doomed node's jobs are replicated. The
//!   restarted coordinator must re-adopt the fleet and the round's
//!   invariants must hold exactly as if it had never died.
//! - [`ClusterChaosConfig::revive`] — instead of stopping the doomed
//!   node's front-end for good, the kill is *scripted* through
//!   [`FAIL_HEARTBEAT`]: because every node consumes exactly one
//!   heartbeat hit per beat, three triggers at beat-aligned hit counts
//!   inject exactly `failure_threshold` consecutive misses for the
//!   doomed node — deterministically, unlike a *sampled* heartbeat
//!   fault. The node (which never actually stopped) then answers the
//!   revival hysteresis and rejoins, and home-keyed jobs move back.
//!   The doomed node here is *predicted* from the pure ring rather than
//!   observed, so the trigger schedule is a seed function. Invariants
//!   additionally require a revival, the doomed node alive at the end,
//!   and a job that moved off its home node and back (it ends there with
//!   at least two resumes).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use breaksym_core::{MethodSpec, MlmaConfig, RunCheckpoint, RunReport};
use breaksym_serve::chaos::{
    direct_report, reports_match, resumes_bit_identically, verify_report, ReportVerdict,
};
use breaksym_serve::{
    HttpServer, InvariantResult, JobId, JobSpec, ServeConfig, ServeEngine, TaskSpec, FAIL_SLICE,
};
use breaksym_testkit::{fault, FaultAction, FaultPlan, FaultTrigger};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::coordinator::{
    ClusterConfig, Coordinator, FAIL_FORWARD, FAIL_HEARTBEAT, FAIL_REPLICATE,
};
use crate::ring::{HashRing, VNODES};

/// Knobs of one multi-node chaos run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterChaosConfig {
    /// Master seed: drives the fault plan and the job mix.
    pub seed: u64,
    /// Nodes in the fleet (at least 2 — someone has to survive).
    pub nodes: usize,
    /// Jobs submitted through the coordinator.
    pub jobs: usize,
    /// Triggers sampled into the fault plan.
    pub faults: usize,
    /// Run the coordinator durable and kill-and-restart it mid-run (see
    /// the module docs).
    #[serde(default)]
    pub coordinator_restart: bool,
    /// Kill the doomed node via scripted heartbeat misses instead of
    /// stopping it, then require it to revive and take its jobs back
    /// (see the module docs).
    #[serde(default)]
    pub revive: bool,
}

impl Default for ClusterChaosConfig {
    fn default() -> Self {
        ClusterChaosConfig {
            seed: 0,
            nodes: 3,
            jobs: 6,
            faults: 4,
            coordinator_restart: false,
            revive: false,
        }
    }
}

/// A timing-independent report fingerprint: enough to prove two runs
/// produced the same answer, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobFingerprint {
    /// Evaluations the report charged.
    pub evaluations: u64,
    /// `best_cost` at the bit level.
    pub best_cost_bits: u64,
}

impl JobFingerprint {
    fn of(report: &RunReport) -> Self {
        JobFingerprint {
            evaluations: report.evaluations,
            best_cost_bits: report.best_cost.to_bits(),
        }
    }
}

/// Everything one multi-node chaos run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterChaosReport {
    /// The configuration the run was derived from.
    pub config: ClusterChaosConfig,
    /// The fault schedule armed during the run: the seed-derived
    /// triggers plus the slice hold.
    pub plan: FaultPlan,
    /// The node the harness killed (the one routing the most jobs).
    pub doomed_node: usize,
    /// Final state label of each job, in submission order.
    pub job_states: Vec<String>,
    /// Per job, the fingerprint of its spec executed directly — the
    /// answer the cluster must have agreed with; `None` for jobs that
    /// did not finish with a report.
    pub fingerprints: Vec<Option<JobFingerprint>>,
    /// One verdict per invariant.
    pub invariants: Vec<InvariantResult>,
}

impl ClusterChaosReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.invariants.iter().all(|inv| inv.ok)
    }

    /// The run's timing-independent projection; two runs from the same
    /// seed must produce equal views (see the module docs for why only
    /// these fields qualify).
    pub fn deterministic_view(&self) -> DeterministicView {
        DeterministicView {
            doomed_node: self.doomed_node,
            job_states: self.job_states.clone(),
            fingerprints: self.fingerprints.clone(),
            invariants: self.invariants.iter().map(|inv| (inv.name.clone(), inv.ok)).collect(),
        }
    }
}

/// The projection of a chaos run that must replay identically from the
/// seed — what `repro chaos --nodes N` diffs between its two runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeterministicView {
    /// The node the harness killed.
    pub doomed_node: usize,
    /// Final state label per job.
    pub job_states: Vec<String>,
    /// Direct-run fingerprint per completed job.
    pub fingerprints: Vec<Option<JobFingerprint>>,
    /// `(name, held)` per invariant.
    pub invariants: Vec<(String, bool)>,
}

/// The seed-derived fleet job mix: the single-node generator's shape,
/// but with budgets big enough (hundreds of evaluations over small
/// slices) that the scripted kill reliably lands mid-run. The episode
/// count is ample so the evaluation budget, not the schedule, ends each
/// job.
pub fn cluster_job_mix(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00c1_a57e);
    (0..jobs)
        .map(|_| {
            let cfg = MlmaConfig {
                episodes: 1_000,
                steps_per_episode: 8,
                max_evals: rng.gen_range(400..=700),
                seed: rng.gen(),
                ..MlmaConfig::default()
            };
            let method = if rng.gen_bool(0.7) {
                MethodSpec::Mlma(cfg)
            } else {
                MethodSpec::Flat(cfg)
            };
            let mut spec = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), method);
            spec.slice_evals = Some(rng.gen_range(8..=16));
            spec
        })
        .collect()
}

/// Samples the cluster-seam fault plan: forward and replication failures
/// only (see the module docs), with forward triggers spaced at least
/// `nodes` hits apart so no single forward walk meets two of them.
pub fn cluster_fault_plan(seed: u64, faults: usize, nodes: usize) -> FaultPlan {
    let owned: Vec<(&str, Vec<FaultAction>)> = vec![
        (FAIL_FORWARD, vec![FaultAction::Fail { what: "chaos".into() }]),
        (FAIL_REPLICATE, vec![FaultAction::Fail { what: "chaos".into() }]),
    ];
    let palette: Vec<(&str, &[FaultAction])> =
        owned.iter().map(|(site, actions)| (*site, actions.as_slice())).collect();
    let mut plan = FaultPlan::sample(seed, &palette, faults, 40);
    let mut forwards: Vec<u64> =
        plan.triggers.iter().filter(|t| t.site == FAIL_FORWARD).map(|t| t.at).collect();
    forwards.sort_unstable();
    let mut kept = Vec::new();
    for at in forwards {
        if kept.last().is_none_or(|&last| at >= last + nodes as u64) {
            kept.push(at);
        }
    }
    plan.triggers.retain(|t| t.site != FAIL_FORWARD || kept.contains(&t.at));
    plan
}

/// Milliseconds every slice sleeps while a chaos round's plan is armed.
/// Jobs then outlast the heartbeat that replicates their first
/// checkpoint by far, so the kill lands mid-run on any host.
const SLICE_HOLD_MS: u64 = 10;

/// The beat (1-indexed) at which revive mode's scripted kill starts —
/// early, while the busiest node (one worker, at least two jobs) still
/// has work queued, so jobs it hands to survivors are still unfinished
/// three beats later, when it revives and takes them back. Fixed, so the
/// trigger schedule is a pure seed function.
const REVIVE_KILL_BEAT: u64 = 3;

/// Predicts the busiest node from the pure ring — where revive mode aims
/// its scripted kill. Home routes (whole fleet alive) for ids
/// `1..=jobs`, ties to the lowest index: a pure function of the
/// configuration, so both runs of a seed aim at the same node.
fn predicted_busiest(nodes: usize, jobs: usize) -> usize {
    let ring = HashRing::new(nodes, VNODES);
    let mut counts = vec![0usize; nodes];
    for id in 1..=jobs as u64 {
        if let Some(node) = ring.preferred(id) {
            counts[node] += 1;
        }
    }
    let mut busiest = 0;
    for (node, &count) in counts.iter().enumerate() {
        if count > counts[busiest] {
            busiest = node;
        }
    }
    busiest
}

/// A scratch state directory for the durable-coordinator variant.
fn scratch_state_dir(seed: u64) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "breaksym-cluster-chaos-{}-{}-{seed}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn is_terminal_label(label: &str) -> bool {
    matches!(label, "done" | "failed" | "timed_out" | "cancelled")
}

/// Runs one multi-node chaos round: boot the fleet, arm the seed-derived
/// faults, submit the seed-derived jobs, kill the busiest node once its
/// jobs are replicated, wait for every job to settle, then check every
/// invariant fault-free. Never panics on a violation — the verdicts are
/// data (see [`ClusterChaosReport::ok`]).
pub fn run_cluster_chaos(config: &ClusterChaosConfig) -> ClusterChaosReport {
    let nodes = config.nodes.max(2);
    let mut engines = Vec::with_capacity(nodes);
    let mut servers = Vec::with_capacity(nodes);
    let mut addrs = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        // One worker per node: each node's job execution is sequential,
        // so per-job results are scheduling-independent.
        let engine = ServeEngine::start(ServeConfig {
            workers: 1,
            queue_cap: config.jobs.max(16),
            ..ServeConfig::default()
        });
        let server = HttpServer::bind(engine.handle(), "127.0.0.1:0").expect("chaos node binds");
        addrs.push(server.addr().to_string());
        engines.push(engine);
        servers.push(server);
    }
    let cluster_cfg = ClusterConfig {
        heartbeat_interval: Duration::from_millis(25),
        failure_threshold: 3,
        rpc_timeout: Duration::from_secs(2),
    };
    let state_dir = config.coordinator_restart.then(|| scratch_state_dir(config.seed));
    let mut coordinator = match &state_dir {
        Some(dir) => Coordinator::start_durable(addrs.clone(), cluster_cfg, dir)
            .expect("chaos durable coordinator starts"),
        None => Coordinator::start(addrs.clone(), cluster_cfg),
    };
    let mut handle = coordinator.handle();

    let mut plan = cluster_fault_plan(config.seed, config.faults, nodes);
    if config.revive {
        // Script the kill: exactly `failure_threshold` consecutive
        // missed probes for the predicted-busiest node, beat-aligned —
        // node `k`'s probe on beat `b` is heartbeat hit
        // `(b - 1) * nodes + k + 1` (see the module docs).
        let target = predicted_busiest(nodes, config.jobs);
        for beat in REVIVE_KILL_BEAT..REVIVE_KILL_BEAT + 3 {
            let at = (beat - 1) * nodes as u64 + target as u64 + 1;
            plan = plan.with(
                FAIL_HEARTBEAT,
                at,
                FaultAction::Fail { what: "chaos revive kill".into() },
            );
        }
    }
    // Hold every slice the fleet runs while the plan is armed, so a job
    // is still running on the doomed node when the kill lands however
    // fast the host: a kill that catches nothing mid-run moves no job and
    // checks no resume.
    plan.triggers.push(FaultTrigger {
        site: FAIL_SLICE.to_string(),
        at: 1,
        count: u64::MAX,
        action: FaultAction::DelayMs { ms: SLICE_HOLD_MS },
    });
    let specs = cluster_job_mix(config.seed, config.jobs);
    let guard = fault::install(plan.clone());
    let ids: Vec<JobId> = specs
        .iter()
        .map(|spec| handle.submit(spec.clone()).expect("cluster chaos submit"))
        .collect();

    // The doomed node: in revive mode, the ring prediction the trigger
    // schedule already aimed at; otherwise the one routing the most
    // jobs — a pure function of the (deterministic) routing, ties to the
    // lowest index.
    let doomed_node = if config.revive {
        predicted_busiest(nodes, config.jobs)
    } else {
        let mut counts = vec![0usize; nodes];
        for job in handle.inspect() {
            counts[job.node] += 1;
        }
        let mut doomed = 0;
        for (node, &count) in counts.iter().enumerate() {
            if count > counts[doomed] {
                doomed = node;
            }
        }
        doomed
    };

    // Let the kill land mid-run: wait until every job on the doomed node
    // has a replicated mid-run checkpoint (or already finished).
    let ready_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let ready = handle
            .inspect()
            .iter()
            .filter(|job| job.node == doomed_node)
            .all(|job| job.has_checkpoint || is_terminal_label(&job.state));
        if ready || Instant::now() >= ready_deadline {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    // The replicated checkpoints as they stand mid-run, resume-checked
    // fault-free below: once a job's report is replicated its checkpoint
    // is freed, so the settled store holds none for a finished job.
    let mid_run: Vec<(JobId, Box<RunCheckpoint>)> = handle
        .export_jobs()
        .into_iter()
        .filter_map(|export| Some((export.id, export.checkpoint?)))
        .collect();

    // Kill and restart the coordinator mid-run: an abrupt drop (the WAL
    // is flushed per append, so recovery from a drop is exactly recovery
    // from a SIGKILL), then a fresh durable coordinator over the same
    // state directory, which must re-adopt the fleet before the node
    // kill lands under it.
    if let Some(dir) = &state_dir {
        drop(coordinator);
        coordinator = Coordinator::start_durable(addrs.clone(), cluster_cfg, dir)
            .expect("chaos coordinator restarts");
        handle = coordinator.handle();
    }

    if !config.revive {
        // Partition the doomed node: its front-end goes away, heartbeats
        // start missing, and the coordinator must declare it dead and
        // move its jobs. (The engine behind it keeps running — exactly
        // like a real partition — and is drained at teardown.) In revive
        // mode the scripted heartbeat misses already do the killing, and
        // the untouched node then answers the revival hysteresis.
        servers[doomed_node].stop();
    }

    let mut job_states = Vec::with_capacity(ids.len());
    let mut stuck = Vec::new();
    for &id in &ids {
        match handle.wait(id, Duration::from_secs(120)) {
            Ok(resp) => job_states.push(resp.state.label().to_string()),
            Err(e) => {
                job_states.push(format!("stuck ({e})"));
                stuck.push(id);
            }
        }
    }

    // In revive mode the doomed node must die and rejoin before the
    // verdicts are taken; fast jobs can settle before the scripted kill
    // even lands, so wait on the monotone counters, not on liveness.
    if config.revive {
        let revived_deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = handle.stats();
            if (stats.node_deaths >= 1 && stats.node_revivals >= 1)
                || Instant::now() >= revived_deadline
            {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }
    drop(guard);

    let mut invariants = Vec::new();

    // 1. No job lost or stuck.
    invariants.push(InvariantResult {
        name: "no-lost-or-stuck-jobs".into(),
        ok: stuck.is_empty(),
        details: format!(
            "{} jobs terminal, {} stuck {:?}",
            ids.len() - stuck.len(),
            stuck.len(),
            stuck
        ),
    });

    // 2. Cluster /stats accounting is exact.
    let stats = handle.stats();
    let inspect = handle.inspect();
    let count = |label: &str| job_states.iter().filter(|s| s.as_str() == label).count() as u64;
    let (done, failed) = (count("done"), count("failed"));
    let (timed_out, cancelled) = (count("timed_out"), count("cancelled"));
    let resumes_total: u64 = inspect.iter().map(|job| u64::from(job.resumes)).sum();
    let detours_total: u64 = inspect.iter().map(|job| u64::from(job.detours)).sum();
    let routed_ok = stats.jobs_routed == ids.len() as u64;
    let sum_ok = stats.jobs_done + stats.jobs_failed + stats.jobs_timed_out + stats.jobs_cancelled
        == stats.jobs_routed;
    let per_state_ok = stats.jobs_done == done
        && stats.jobs_failed == failed
        && stats.jobs_timed_out == timed_out
        && stats.jobs_cancelled == cancelled;
    let reroute_ok =
        stats.jobs_resumed == resumes_total && stats.reroutes == resumes_total + detours_total;
    // In revive mode, jobs that moved off their home node and back: they
    // end there having been resumed at least twice.
    let ring = HashRing::new(nodes, VNODES);
    let moved_home = inspect
        .iter()
        .filter(|job| job.resumes >= 2 && ring.preferred(job.id) == Some(job.node))
        .count();
    let death_ok = if config.revive {
        // The revival must have taken a job back, or no move home was
        // checked.
        stats.node_deaths >= 1
            && stats.node_revivals >= 1
            && stats.nodes[doomed_node].alive
            && moved_home >= 1
    } else {
        // The kill must have moved a job, or no resume was checked.
        stats.node_deaths >= 1 && !stats.nodes[doomed_node].alive && resumes_total >= 1
    };
    invariants.push(InvariantResult {
        name: "cluster-stats-accounting-exact".into(),
        ok: routed_ok && sum_ok && per_state_ok && reroute_ok && death_ok,
        details: format!(
            "stats: {}/{}/{}/{}/{} routed/done/failed/timed_out/cancelled, \
             {} reroutes ({} detours + {} resumes over {} resumed jobs), \
             {} node deaths / {} revivals (doomed {} alive: {}), \
             {moved_home} jobs moved off their home and back; observed: \
             {done}/{failed}/{timed_out}/{cancelled}",
            stats.jobs_routed,
            stats.jobs_done,
            stats.jobs_failed,
            stats.jobs_timed_out,
            stats.jobs_cancelled,
            stats.reroutes,
            detours_total,
            resumes_total,
            stats.jobs_resumed,
            stats.node_deaths,
            stats.node_revivals,
            doomed_node,
            stats.nodes[doomed_node].alive,
        ),
    });

    // 3. Replicated checkpoints resume bit-identically: the mid-run
    // snapshot, then whatever the settled store still holds (jobs that
    // did not finish). The snapshot holds at least the doomed node's
    // unfinished jobs, so a round that checks none checked nothing.
    let settled = handle
        .export_jobs()
        .into_iter()
        .filter_map(|export| Some((export.id, export.checkpoint?)));
    let mut resume_checked = 0usize;
    let mut resume_bad = Vec::new();
    for (id, ckpt) in mid_run.into_iter().chain(settled) {
        let Some(pos) = ids.iter().position(|&known| known == id) else {
            continue;
        };
        resume_checked += 1;
        if !resumes_bit_identically(&specs[pos], &ckpt) {
            resume_bad.push(id);
        }
    }
    invariants.push(InvariantResult {
        name: "replicated-checkpoints-resume-bit-identically".into(),
        ok: resume_checked >= 1 && resume_bad.is_empty(),
        details: format!(
            "{resume_checked} replicated checkpoints resumed twice, divergent: {resume_bad:?}"
        ),
    });

    // 4 + 5. Cluster reports vs direct runs, and the legality/freshness
    // replay — all fault-free, after the dust has settled.
    let directs: Vec<Option<RunReport>> = specs.iter().map(direct_report).collect();
    let mut report_checked = 0usize;
    let mut diverged = Vec::new();
    let mut illegal = Vec::new();
    let mut mismatched = Vec::new();
    for (pos, &id) in ids.iter().enumerate() {
        let Ok(report) = handle.report(id) else {
            continue;
        };
        report_checked += 1;
        match directs[pos] {
            Some(ref direct) if reports_match(direct, &report) => {}
            _ => diverged.push(id),
        }
        match verify_report(&specs[pos], &report) {
            ReportVerdict::Ok => {}
            ReportVerdict::IllegalPlacement => illegal.push(id),
            ReportVerdict::MetricsMismatch => mismatched.push(id),
        }
    }
    invariants.push(InvariantResult {
        name: "cluster-reports-match-direct-runs".into(),
        ok: diverged.is_empty(),
        details: format!(
            "{report_checked} cluster reports compared to direct runs, divergent: {diverged:?}"
        ),
    });
    invariants.push(InvariantResult {
        name: "reported-placements-legal-and-fresh".into(),
        ok: illegal.is_empty() && mismatched.is_empty(),
        details: format!(
            "{report_checked} reports replayed, illegal: {illegal:?}, stale: {mismatched:?}"
        ),
    });

    // Fingerprints come from the direct runs, not the cluster's reports:
    // a job that finished on the doomed node just before the kill has no
    // fetchable report if no heartbeat replicated it first, and which
    // jobs those are depends on timing.
    // Invariant 4 pins cluster reports to these same direct runs.
    let fingerprints: Vec<Option<JobFingerprint>> = job_states
        .iter()
        .zip(&directs)
        .map(|(label, direct)| {
            if label == "done" {
                direct.as_ref().map(JobFingerprint::of)
            } else {
                None
            }
        })
        .collect();

    coordinator.shutdown();
    for server in &mut servers {
        server.stop();
    }
    for engine in engines {
        engine.shutdown();
    }
    if let Some(dir) = &state_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    ClusterChaosReport {
        config: ClusterChaosConfig { nodes, ..config.clone() },
        plan,
        doomed_node,
        job_states,
        fingerprints,
        invariants,
    }
}
