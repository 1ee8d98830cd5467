//! Forward/backward compatibility of the serialized wire formats.
//!
//! The wire stays additive: every field added to a wire struct after its
//! first release carries `#[serde(default)]` (or is an `Option`, which
//! serde already treats as omittable). That makes a concrete promise:
//! JSON written by an older build — equivalently, today's JSON with those
//! keys deleted — must deserialize to the same value. Persisted state is
//! versioned instead: a checkpoint and a coordinator's state directory
//! carry `breaksym_core::FORMAT`, which is never optional, and readers
//! refuse another number rather than migrate it. The property tests here
//! delete *random subsets* of the deletable keys rather than one fixed
//! set, and for run checkpoints go further: the stripped checkpoint must
//! resume to a bit-identical report.

use std::sync::OnceLock;

use breaksym::anneal::SaConfig;
use breaksym::cluster::{fold_stats, ClusterHealthz, ClusterStats, JobInspect, NodeReport};
use breaksym::core::{
    Budget, Driver, MethodSpec, MlmaConfig, MultiLevelPlacer, PlacementTask, RunCheckpoint,
    RunReport, SliceOutcome,
};
use breaksym::geometry::GridSpec;
use breaksym::layout::{LayoutEnv, Placement};
use breaksym::lde::LdeModel;
use breaksym::netlist::{circuits, UnitId};
use breaksym::serve::{
    JobExport, JobId, JobSpec, JobState, RunStatus, ServeError, ServerStats, StatusResponse,
    TaskSpec,
};
use breaksym::sim::StatsSnapshot;
use breaksym_testkit::check_cases;
use rand::Rng;
use serde_json::Value;

// ------------------------------------------------------------ helpers

/// Collects the path of every `null`-valued object entry, skipping the
/// subtrees named in `opaque`: those hold verbatim `serde_json::Value`
/// payloads (e.g. an optimizer snapshot) where a null is *data*, not an
/// omittable struct field.
fn null_paths(v: &Value, opaque: &[&str]) -> Vec<Vec<String>> {
    fn walk(v: &Value, opaque: &[&str], prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        match v {
            Value::Object(map) => {
                for (k, val) in map.iter() {
                    if prefix.is_empty() && opaque.contains(&k.as_str()) {
                        continue;
                    }
                    prefix.push(k.clone());
                    if val.is_null() {
                        out.push(prefix.clone());
                    } else {
                        walk(val, opaque, prefix, out);
                    }
                    prefix.pop();
                }
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    prefix.push(i.to_string());
                    walk(item, opaque, prefix, out);
                    prefix.pop();
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(v, opaque, &mut Vec::new(), &mut out);
    out
}

/// Deletes the object entry at `path` (array indices are numeric path
/// segments).
fn remove_path(v: &mut Value, path: &[String]) {
    let (last, parents) = path.split_last().expect("paths are non-empty");
    let mut cur = v;
    for seg in parents {
        cur = match cur {
            Value::Object(map) => map.get_mut(seg).expect("path stays valid"),
            Value::Array(items) => {
                let i: usize = seg.parse().expect("array segments are indices");
                items.get_mut(i).expect("path stays valid")
            }
            _ => unreachable!("scalar mid-path"),
        };
    }
    if let Value::Object(map) = cur {
        map.remove(last);
    }
}

// ------------------------------------------------- checkpoint fixture

struct Fixture {
    task: PlacementTask,
    cfg: MlmaConfig,
    checkpoint: RunCheckpoint,
    baseline: RunReport,
}

/// One real mid-run checkpoint plus the report its resume produces,
/// computed once and shared by every case.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let task = PlacementTask::new(circuits::diff_pair(), 10, LdeModel::nonlinear(1.0, 7));
        // Enough episodes that the 120-eval budget, not the schedule,
        // ends the run (2 episodes stop at 49 evals, before the pause).
        let cfg = MlmaConfig {
            episodes: 8,
            steps_per_episode: 8,
            max_evals: 120,
            ..MlmaConfig::default()
        };
        let mut placer = MultiLevelPlacer::new(&task.initial_env().unwrap(), cfg);
        let outcome = Driver::new(Budget::from_mlma(&cfg)).run_slice(&task, &mut placer, 50);
        let SliceOutcome::Paused(checkpoint) = outcome.unwrap() else {
            panic!("a 120-eval run pauses after a 50-eval slice");
        };
        // The initial evaluation plus the slice's 50.
        assert_eq!(checkpoint.tracker.evals, 51);
        let checkpoint = *checkpoint;
        let mut fresh = MultiLevelPlacer::new(&task.initial_env().unwrap(), cfg);
        let baseline = Driver::new(Budget::from_mlma(&cfg))
            .resume(&task, &mut fresh, &checkpoint)
            .unwrap();
        Fixture { task, cfg, checkpoint, baseline }
    })
}

#[test]
fn checkpoint_stripped_of_every_optional_key_resumes_bit_identically() {
    let fx = fixture();
    let mut v = serde_json::to_value(&fx.checkpoint).unwrap();
    let paths = null_paths(&v, &["optimizer"]);
    assert!(!paths.is_empty(), "expected some optional keys in a checkpoint: {v}");
    for path in &paths {
        remove_path(&mut v, path);
    }
    let stripped: RunCheckpoint = serde_json::from_value(v).unwrap();
    assert_eq!(stripped, fx.checkpoint);

    let mut placer = MultiLevelPlacer::new(&fx.task.initial_env().unwrap(), fx.cfg);
    let resumed = Driver::new(Budget::from_mlma(&fx.cfg))
        .resume(&fx.task, &mut placer, &stripped)
        .unwrap();
    assert_eq!(resumed.evaluations, fx.baseline.evaluations);
    assert_eq!(resumed.best_cost.to_bits(), fx.baseline.best_cost.to_bits());
    assert_eq!(resumed.trajectory, fx.baseline.trajectory);
    assert_eq!(resumed.best_placement, fx.baseline.best_placement);
}

/// SA and random-search checkpoints once carried a shadow best in the
/// optimizer snapshot (`initial_cost`, `best`, `best_placement` under
/// `state`); the run's best lives in the checkpoint's tracker alone now.
/// A checkpoint written with those keys must still resume bit-identically
/// to the unsliced run, under the same method label.
#[test]
fn sa_and_random_checkpoints_with_the_old_shadow_best_still_resume() {
    let task = PlacementTask::new(circuits::diff_pair(), 10, LdeModel::nonlinear(1.0, 7));
    let cfg = SaConfig { max_evals: 160, seed: 4, ..SaConfig::default() };
    for (spec, label) in [
        (MethodSpec::Sa(cfg), "sa"),
        (MethodSpec::Random(cfg), "random"),
    ] {
        let driver = Driver::new(spec.budget());
        let unsliced = driver.run(&task, spec.build(&task).unwrap().as_mut()).unwrap();
        let outcome = driver.run_slice(&task, spec.build(&task).unwrap().as_mut(), 60).unwrap();
        let SliceOutcome::Paused(ckpt) = outcome else {
            panic!("{label}: a 160-eval run pauses after a 60-eval slice");
        };
        let mut old = (*ckpt).clone();
        let Value::Object(snapshot) = &mut old.optimizer else {
            panic!("{label}: the optimizer snapshot is an object")
        };
        let Some(Value::Object(state)) = snapshot.get_mut("state") else {
            panic!("{label}: a started run's snapshot has a `state`");
        };
        let t = &ckpt.tracker;
        let shadow = [
            ("initial_cost", serde_json::to_value(t.trajectory[0].1).unwrap()),
            ("best", serde_json::to_value(t.best_cost).unwrap()),
            ("best_placement", serde_json::to_value(&t.best_placement).unwrap()),
        ];
        for (key, value) in shadow {
            assert!(!state.contains_key(key), "{label}: today's snapshot has no `{key}`");
            state.insert(key.into(), value);
        }
        let old: RunCheckpoint =
            serde_json::from_str(&serde_json::to_string(&old).unwrap()).unwrap();

        let mut opt = spec.build(&task).unwrap();
        let resumed = driver.resume(&task, opt.as_mut(), &old).unwrap();
        assert_eq!(opt.label(), label);
        assert_eq!(resumed.method, label);
        assert_eq!(resumed.evaluations, unsliced.evaluations, "{label}");
        assert_eq!(resumed.best_cost.to_bits(), unsliced.best_cost.to_bits(), "{label}");
        assert_eq!(resumed.trajectory, unsliced.trajectory, "{label}");
        assert_eq!(resumed.best_placement, unsliced.best_placement, "{label}");
    }
}

/// A placement read back from JSON (a report's best placement, say)
/// carries no occupancy index or fingerprint. An environment built on it
/// must rebuild both, or its legality checks and cache keys go wrong.
#[test]
fn an_environment_built_on_a_placement_read_from_json_is_indexed() {
    let env = LayoutEnv::sequential(circuits::fig2_example(), GridSpec::square(8)).unwrap();
    let json = serde_json::to_string(env.placement()).unwrap();
    let read: Placement = serde_json::from_str(&json).unwrap();
    let built = LayoutEnv::new(env.circuit().clone(), *env.spec(), read).unwrap();
    assert_eq!(built.fingerprint(), env.fingerprint());
    for u in 0..env.circuit().num_units() as u32 {
        let unit = UnitId::new(u);
        assert_eq!(built.legal_unit_moves(unit), env.legal_unit_moves(unit), "unit {u}");
    }
}

/// Any *subset* of a checkpoint's optional keys may be absent — not
/// just all-present (today's writer) or all-absent (the oldest
/// writer), but every mixture a rolling upgrade can produce.
#[test]
fn prop_checkpoint_survives_any_subset_of_missing_keys() {
    check_cases(16, |rng| {
        let mask: Vec<bool> = (0..32).map(|_| rng.gen()).collect();
        let fx = fixture();
        let mut v = serde_json::to_value(&fx.checkpoint).unwrap();
        let paths = null_paths(&v, &["optimizer"]);
        for (path, &drop) in paths.iter().zip(mask.iter().chain(std::iter::repeat(&true))) {
            if drop {
                remove_path(&mut v, path);
            }
        }
        let stripped: RunCheckpoint = serde_json::from_value(v).expect("still deserializes");
        assert_eq!(&stripped, &fx.checkpoint);
    });
}

/// Protocol structs tolerate missing optional keys the same way: a
/// stats or job-spec document with any subset of its nullable keys
/// deleted reads back as the same value.
#[test]
fn prop_protocol_documents_survive_any_subset_of_missing_keys() {
    check_cases(16, |rng| {
        let mask: Vec<bool> = (0..16).map(|_| rng.gen()).collect();
        let seed = rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1000));
        let timeout_ms = rng.gen_bool(0.5).then(|| rng.gen_range(1u64..100_000));
        let cfg = MlmaConfig {
            episodes: 1,
            steps_per_episode: 4,
            max_evals: 20,
            ..MlmaConfig::default()
        };
        let mut spec = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(cfg));
        spec.seed = seed;
        spec.timeout_ms = timeout_ms;
        let mut v = serde_json::to_value(&spec).unwrap();
        let paths = null_paths(&v, &[]);
        for (path, &drop) in paths.iter().zip(mask.iter().chain(std::iter::repeat(&true))) {
            if drop {
                remove_path(&mut v, path);
            }
        }
        let back: JobSpec = serde_json::from_value(v).expect("still deserializes");
        assert_eq!(&back, &spec);
    });
}

#[test]
fn stats_written_before_the_newer_counters_still_deserialize() {
    // `jobs_panicked`, `jobs_timed_out`, and `jobs_retired` all postdate
    // the first ServerStats wire format; a document without them must
    // read back with those counters at zero and everything else intact.
    let stats = ServerStats {
        queue_depth: 1,
        queue_cap: 16,
        workers: 2,
        busy_workers: 1,
        worker_jobs: vec![4, 5],
        worker_busy_ms: vec![100, 200],
        uptime_ms: 1234,
        jobs_submitted: 9,
        jobs_done: 5,
        jobs_failed: 2,
        jobs_panicked: 1,
        jobs_timed_out: 1,
        jobs_cancelled: 1,
        jobs_retired: 3,
        cache: StatsSnapshot { hits: 50, misses: 350, entries: 40, sims: 350 },
    };
    let mut v = serde_json::to_value(&stats).unwrap();
    let obj = v.as_object_mut().unwrap();
    for newer in ["jobs_panicked", "jobs_timed_out", "jobs_retired"] {
        assert!(obj.remove(newer).is_some(), "{newer} missing from the wire format");
    }
    let back: ServerStats = serde_json::from_value(v).unwrap();
    assert_eq!(back.jobs_panicked, 0);
    assert_eq!(back.jobs_timed_out, 0);
    assert_eq!(back.jobs_retired, 0);
    assert_eq!(back.jobs_submitted, stats.jobs_submitted);
    assert_eq!(back.cache, stats.cache);
}

// ------------------------------------------------- cluster wire types

fn sample_node_stats() -> ServerStats {
    ServerStats {
        queue_depth: 2,
        queue_cap: 16,
        workers: 1,
        busy_workers: 1,
        worker_jobs: vec![3],
        worker_busy_ms: vec![150],
        uptime_ms: 900,
        jobs_submitted: 5,
        jobs_done: 3,
        jobs_failed: 1,
        jobs_panicked: 0,
        jobs_timed_out: 0,
        jobs_cancelled: 1,
        jobs_retired: 0,
        cache: StatsSnapshot { hits: 7, misses: 40, entries: 30, sims: 40 },
    }
}

fn sample_cluster_stats() -> ClusterStats {
    ClusterStats {
        nodes_total: 2,
        nodes_alive: 1,
        jobs_routed: 9,
        jobs_inflight: 2,
        jobs_done: 5,
        jobs_failed: 1,
        jobs_timed_out: 1,
        jobs_cancelled: 0,
        reroutes: 4,
        node_deaths: 1,
        node_revivals: 1,
        jobs_resumed: 2,
        fold: fold_stats([&sample_node_stats()]),
        nodes: vec![
            NodeReport {
                addr: "127.0.0.1:8101".into(),
                alive: true,
                missed_heartbeats: 0,
                stale: false,
                stats: Some(sample_node_stats()),
            },
            NodeReport {
                addr: "127.0.0.1:8102".into(),
                alive: false,
                missed_heartbeats: 3,
                stale: true,
                stats: None,
            },
        ],
    }
}

#[test]
fn cluster_stats_written_before_the_routing_counters_still_deserialize() {
    // `reroutes`, `node_deaths`, `node_revivals`, and `jobs_resumed`
    // postdate the first cluster `/stats` wire format, as do
    // `missed_heartbeats` and `stale` on the per-node reports; a document
    // without them must read back with those counters at zero and
    // everything else intact.
    let stats = sample_cluster_stats();
    let mut v = serde_json::to_value(&stats).unwrap();
    let obj = v.as_object_mut().unwrap();
    for newer in ["reroutes", "node_deaths", "node_revivals", "jobs_resumed"] {
        assert!(obj.remove(newer).is_some(), "{newer} missing from the wire format");
    }
    let Some(Value::Array(nodes)) = obj.get_mut("nodes") else {
        panic!("`nodes` must be an array");
    };
    for node in nodes {
        let node = node.as_object_mut().unwrap();
        assert!(node.remove("missed_heartbeats").is_some());
        assert!(node.remove("stale").is_some());
    }
    let back: ClusterStats = serde_json::from_value(v).unwrap();
    assert_eq!(back.reroutes, 0);
    assert_eq!(back.node_deaths, 0);
    assert_eq!(back.node_revivals, 0);
    assert_eq!(back.jobs_resumed, 0);
    assert_eq!(back.nodes[1].missed_heartbeats, 0);
    assert!(!back.nodes[1].stale);
    assert_eq!(back.jobs_routed, stats.jobs_routed);
    assert_eq!(back.fold, stats.fold);
    assert_eq!(back.nodes[0].stats, stats.nodes[0].stats);
}

#[test]
fn cluster_healthz_and_job_inspect_without_optional_keys_still_deserialize() {
    let healthz = ClusterHealthz {
        ok: true,
        draining: false,
        uptime_ms: 5_000,
        nodes_total: 3,
        nodes_alive: 3,
    };
    let mut v = serde_json::to_value(&healthz).unwrap();
    assert!(v.as_object_mut().unwrap().remove("draining").is_some());
    let back: ClusterHealthz = serde_json::from_value(v).unwrap();
    assert_eq!(back, healthz);

    let inspect = JobInspect {
        id: 4,
        node: 1,
        node_job_id: 2,
        state: "running".into(),
        has_checkpoint: true,
        has_report: true,
        detours: 1,
        resumes: 1,
        cancel_requested: false,
    };
    let mut v = serde_json::to_value(&inspect).unwrap();
    let obj = v.as_object_mut().unwrap();
    for newer in ["has_report", "detours", "resumes", "cancel_requested"] {
        assert!(obj.remove(newer).is_some(), "{newer} missing from the wire format");
    }
    let back: JobInspect = serde_json::from_value(v).unwrap();
    assert!(!back.has_report);
    assert_eq!(back.detours, 0);
    assert_eq!(back.resumes, 0);
    assert!(!back.cancel_requested);
    assert_eq!(back.id, inspect.id);
    assert_eq!(back.state, inspect.state);
}

#[test]
fn unknown_wire_tags_reject_with_an_error_not_a_panic() {
    // A build from the future may speak job states and error kinds this
    // one has never heard of; they must surface as deserialization
    // errors a caller can handle, never panics.
    let err = serde_json::from_value::<ServeError>(serde_json::json!({
        "error": "warp_core_breach",
        "reason": "plasma leak",
    }));
    assert!(err.is_err(), "unknown error tag must be rejected: {err:?}");

    let state = serde_json::from_value::<JobState>(serde_json::json!({
        "state": "transcended",
    }));
    assert!(state.is_err(), "unknown state tag must be rejected: {state:?}");

    let status = serde_json::from_value::<StatusResponse>(serde_json::json!({
        "id": 1,
        "state": "transcended",
    }));
    assert!(status.is_err(), "unknown flattened state tag must be rejected: {status:?}");
}

/// Cluster `/stats` documents tolerate any subset of their
/// serde-defaulted keys going missing — the coordinator-side
/// counters and the per-node extras alike.
#[test]
fn prop_cluster_stats_survive_any_subset_of_missing_keys() {
    check_cases(16, |rng| {
        let mask: Vec<bool> = (0..16).map(|_| rng.gen()).collect();
        let stats = sample_cluster_stats();
        let mut v = serde_json::to_value(&stats).unwrap();
        let mut paths = null_paths(&v, &[]);
        for newer in ["reroutes", "node_deaths", "node_revivals", "jobs_resumed"] {
            paths.push(vec![newer.to_string()]);
        }
        for i in 0..stats.nodes.len() {
            paths.push(vec!["nodes".into(), i.to_string(), "missed_heartbeats".into()]);
            paths.push(vec!["nodes".into(), i.to_string(), "stale".into()]);
        }
        for (path, &drop) in paths.iter().zip(mask.iter().chain(std::iter::repeat(&true))) {
            if drop {
                remove_path(&mut v, path);
            }
        }
        let back: ClusterStats = serde_json::from_value(v).expect("still deserializes");
        // Dropped keys land on their defaults; everything else survives.
        assert_eq!(back.nodes_total, stats.nodes_total);
        assert_eq!(back.jobs_routed, stats.jobs_routed);
        assert_eq!(&back.fold, &stats.fold);
        assert_eq!(&back.nodes[0].addr, &stats.nodes[0].addr);
        assert_eq!(back.nodes[1].alive, stats.nodes[1].alive);
    });
}

#[test]
fn status_responses_written_before_warnings_still_deserialize() {
    // `warnings` postdates the first StatusResponse wire format and is
    // skipped when empty, so old documents and warning-free new ones are
    // byte-compatible; a populated list round-trips.
    let v = serde_json::json!({ "id": 7, "state": "done" });
    let back: StatusResponse = serde_json::from_value(v).unwrap();
    assert_eq!(back.state, JobState::Done);
    assert!(back.warnings.is_empty());
    assert!(
        !serde_json::to_value(&back)
            .unwrap()
            .as_object()
            .unwrap()
            .contains_key("warnings"),
        "an empty warning list must stay off the wire"
    );

    let noisy = StatusResponse {
        id: back.id,
        state: JobState::Queued,
        status: None,
        warnings: vec!["derived 3 symmetry groups automatically".into()],
    };
    let round: StatusResponse =
        serde_json::from_value(serde_json::to_value(&noisy).unwrap()).unwrap();
    assert_eq!(round, noisy);
}

/// Generated benchmark circuits survive a parse → write → parse
/// round-trip with their symmetry partition and unit count intact,
/// for any (family, seed) the generator can produce.
#[test]
fn prop_generated_spice_round_trips() {
    use breaksym::genbench::{generate, FAMILIES};
    use breaksym::netlist::spice;
    use breaksym::symmetry::extract::{canonical, hand_annotations};

    check_cases(24, |rng| {
        let g = generate(FAMILIES[rng.gen_range(0usize..3)], rng.gen_range(0u64..512));
        let parsed = spice::parse(&g.spice).expect("generated dump parses");
        let reparsed = spice::parse(&spice::write(&parsed)).expect("rewrite parses");
        assert_eq!(parsed.num_units(), reparsed.num_units());
        assert_eq!(canonical(&hand_annotations(&parsed)), canonical(&hand_annotations(&reparsed)));
        assert_eq!(canonical(&hand_annotations(&parsed)), canonical(&g.groups));
    });
}

#[test]
fn oldest_job_spec_wire_format_still_parses() {
    // Submissions from before the per-job knobs existed: task + method
    // only. All four knobs must come back `None`.
    let cfg =
        MlmaConfig { episodes: 1, steps_per_episode: 4, max_evals: 20, ..MlmaConfig::default() };
    let full = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(cfg));
    let v = serde_json::json!({
        "task": serde_json::to_value(&full.task).unwrap(),
        "method": serde_json::to_value(&full.method).unwrap(),
    });
    let back: JobSpec = serde_json::from_value(v).unwrap();
    assert_eq!(back, full);
}

/// One cache entry in the shape nodes exported before the eval cache
/// stopped leaving the process: a key and the metrics it memoized.
fn retired_cache_entry() -> Value {
    serde_json::json!({
        "key": 0x9e37_79b9_7f4a_7c15_u64,
        "metrics": serde_json::to_value(fixture().baseline.best_metrics).unwrap(),
    })
}

#[test]
fn job_specs_that_still_carry_replicated_cache_entries_parse_without_them() {
    let fx = fixture();
    let mut full = JobSpec::new(TaskSpec::benchmark("diff_pair", 7), MethodSpec::Mlma(fx.cfg));
    full.checkpoint = Some(Box::new(fx.checkpoint.clone()));
    let mut v = serde_json::to_value(&full).unwrap();
    v.as_object_mut()
        .unwrap()
        .insert("warm_cache".into(), Value::Array(vec![retired_cache_entry()]));
    let back: JobSpec = serde_json::from_value(v).unwrap();
    assert_eq!(back, full);
}

#[test]
fn node_exports_that_still_carry_cache_entries_parse_at_the_coordinator() {
    // A node from before the deletion still sends `cache` beside each
    // checkpoint. The coordinator reads `/checkpoints` as a JSON array of
    // `JobExport`; if the old key failed that parse, replication would
    // stop silently during a rolling upgrade.
    let fx = fixture();
    let export = JobExport {
        id: JobId(3),
        state: JobState::Running,
        status: Some(RunStatus {
            evals: fx.checkpoint.tracker.evals,
            best_cost: fx.checkpoint.tracker.best_cost,
            elapsed_ms: 12,
            cache: StatsSnapshot { hits: 4, misses: 47, entries: 47, sims: 47 },
        }),
        checkpoint: Some(Box::new(fx.checkpoint.clone())),
    };
    let mut v = serde_json::to_value(&export).unwrap();
    v.as_object_mut()
        .unwrap()
        .insert("cache".into(), Value::Array(vec![retired_cache_entry(), retired_cache_entry()]));
    let body = serde_json::to_string(&Value::Array(vec![v])).unwrap();
    let back: Vec<JobExport> = serde_json::from_str(&body).unwrap();
    assert_eq!(back, [export]);
}
