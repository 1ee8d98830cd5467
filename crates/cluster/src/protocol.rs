//! Cluster-level wire types: what the coordinator's `/stats` and
//! `/healthz` return, over and above the per-node payloads it folds.
//!
//! Forward-compatibility follows the workspace rule: every field added
//! after a type's first release carries `#[serde(default)]`, so JSON
//! written by an older coordinator still parses (the root
//! `tests/forward_compat.rs` suite pins this with property tests).

use serde::{Deserialize, Serialize};

use breaksym_core::StatsSnapshot;
use breaksym_serve::ServerStats;

/// One node's entry in the cluster `/stats` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// The node's address, as configured at coordinator start.
    pub addr: String,
    /// Whether the node is currently considered alive.
    pub alive: bool,
    /// Consecutive heartbeats the node has missed (0 when healthy; dead
    /// nodes freeze at the threshold that killed them).
    #[serde(default)]
    pub missed_heartbeats: u32,
    /// Whether `stats` is a last-known snapshot rather than a fresh
    /// fetch — set for dead nodes and for live nodes whose `/stats`
    /// fetch raced their death.
    #[serde(default)]
    pub stale: bool,
    /// The node's own `/stats` snapshot: fresh from this poll when
    /// `stale` is false, otherwise the last snapshot the coordinator
    /// managed to fetch (absent only if it never fetched one).
    #[serde(default)]
    pub stats: Option<ServerStats>,
}

/// The coordinator's `/stats` payload: per-node detail, a cluster-wide
/// fold, and the coordinator's own routing counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Nodes configured.
    pub nodes_total: usize,
    /// Nodes currently alive.
    pub nodes_alive: usize,
    /// Jobs accepted and routed to a node, lifetime total.
    pub jobs_routed: u64,
    /// Routed jobs not yet observed terminal.
    pub jobs_inflight: u64,
    /// Jobs observed completing with a report.
    pub jobs_done: u64,
    /// Jobs observed failing.
    pub jobs_failed: u64,
    /// Jobs observed timing out.
    pub jobs_timed_out: u64,
    /// Jobs observed cancelled.
    pub jobs_cancelled: u64,
    /// Forwarding detours: every time a job went to a node other than
    /// the one the ring first named — transport trouble at submit plus
    /// every death-resume.
    #[serde(default)]
    pub reroutes: u64,
    /// Nodes declared dead after missing the heartbeat threshold.
    #[serde(default)]
    pub node_deaths: u64,
    /// Dead nodes revived after answering the heartbeat threshold's
    /// worth of consecutive probes.
    #[serde(default)]
    pub node_revivals: u64,
    /// Jobs resumed from a replicated checkpoint on another node —
    /// death-resumes, rejoin migrations, and restart reconciliations.
    #[serde(default)]
    pub jobs_resumed: u64,
    /// Field-wise fold of every node's [`ServerStats`] — fresh where the
    /// node was reachable, its last-known snapshot otherwise: counters
    /// summed, per-worker vectors concatenated in node order, uptime
    /// maxed, cache snapshots merged.
    pub fold: ServerStats,
    /// Per-node detail, in configuration order.
    pub nodes: Vec<NodeReport>,
}

/// The coordinator's `/healthz` payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterHealthz {
    /// Whether the coordinator accepts new work: not draining and at
    /// least one node alive.
    pub ok: bool,
    /// Whether a drain has been requested.
    #[serde(default)]
    pub draining: bool,
    /// Milliseconds since the coordinator started.
    pub uptime_ms: u64,
    /// Nodes configured.
    pub nodes_total: usize,
    /// Nodes currently alive.
    pub nodes_alive: usize,
}

/// One routed job's coordinator-side view — what `ClusterHandle::inspect`
/// returns for tests and the chaos harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobInspect {
    /// The cluster-wide job id.
    pub id: u64,
    /// Index of the node currently responsible for the job.
    pub node: usize,
    /// The job's id on that node.
    pub node_job_id: u64,
    /// Last observed lifecycle state label.
    pub state: String,
    /// Whether a replicated checkpoint is held for the job.
    pub has_checkpoint: bool,
    /// Whether the job's final report is replicated.
    #[serde(default)]
    pub has_report: bool,
    /// Submit-time detours: forwards that fell past the ring's first
    /// choice because of transport errors or node rejections.
    #[serde(default)]
    pub detours: u32,
    /// Times the job was moved and resumed from a replicated checkpoint:
    /// death-resumes, rejoin migrations, restart reconciliations.
    #[serde(default)]
    pub resumes: u32,
    /// Whether a cancel was requested through the coordinator.
    #[serde(default)]
    pub cancel_requested: bool,
}

/// Folds per-node [`ServerStats`] into one cluster-wide view: counters
/// summed, per-worker vectors concatenated in the given order, uptime
/// maxed (the fleet has been up as long as its oldest node), cache
/// snapshots merged.
pub fn fold_stats<'a>(per_node: impl IntoIterator<Item = &'a ServerStats>) -> ServerStats {
    let mut fold = ServerStats {
        queue_depth: 0,
        queue_cap: 0,
        workers: 0,
        busy_workers: 0,
        worker_jobs: Vec::new(),
        worker_busy_ms: Vec::new(),
        uptime_ms: 0,
        jobs_submitted: 0,
        jobs_done: 0,
        jobs_failed: 0,
        jobs_panicked: 0,
        jobs_timed_out: 0,
        jobs_cancelled: 0,
        jobs_retired: 0,
        cache: StatsSnapshot::default(),
    };
    for stats in per_node {
        fold.queue_depth += stats.queue_depth;
        fold.queue_cap += stats.queue_cap;
        fold.workers += stats.workers;
        fold.busy_workers += stats.busy_workers;
        fold.worker_jobs.extend_from_slice(&stats.worker_jobs);
        fold.worker_busy_ms.extend_from_slice(&stats.worker_busy_ms);
        fold.uptime_ms = fold.uptime_ms.max(stats.uptime_ms);
        fold.jobs_submitted += stats.jobs_submitted;
        fold.jobs_done += stats.jobs_done;
        fold.jobs_failed += stats.jobs_failed;
        fold.jobs_panicked += stats.jobs_panicked;
        fold.jobs_timed_out += stats.jobs_timed_out;
        fold.jobs_cancelled += stats.jobs_cancelled;
        fold.jobs_retired += stats.jobs_retired;
        fold.cache = fold.cache.merged(stats.cache);
    }
    fold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_stats(done: u64, uptime: u64) -> ServerStats {
        ServerStats {
            queue_depth: 1,
            queue_cap: 16,
            workers: 2,
            busy_workers: 1,
            worker_jobs: vec![done, 0],
            worker_busy_ms: vec![10, 20],
            uptime_ms: uptime,
            jobs_submitted: done,
            jobs_done: done,
            jobs_failed: 0,
            jobs_panicked: 0,
            jobs_timed_out: 0,
            jobs_cancelled: 0,
            jobs_retired: 0,
            cache: StatsSnapshot { hits: 1, misses: 2, entries: 2, sims: 2 },
        }
    }

    #[test]
    fn fold_sums_concats_and_maxes() {
        let a = node_stats(3, 100);
        let b = node_stats(5, 250);
        let fold = fold_stats([&a, &b]);
        assert_eq!(fold.jobs_done, 8);
        assert_eq!(fold.workers, 4);
        assert_eq!(fold.queue_cap, 32);
        assert_eq!(fold.worker_jobs, vec![3, 0, 5, 0]);
        assert_eq!(fold.uptime_ms, 250, "fleet uptime is the oldest node's");
        assert_eq!(fold.cache.misses, 4);
    }

    #[test]
    fn cluster_stats_round_trips() {
        let stats = ClusterStats {
            nodes_total: 2,
            nodes_alive: 1,
            jobs_routed: 7,
            jobs_inflight: 2,
            jobs_done: 4,
            jobs_failed: 1,
            jobs_timed_out: 0,
            jobs_cancelled: 0,
            reroutes: 3,
            node_deaths: 1,
            node_revivals: 1,
            jobs_resumed: 2,
            fold: fold_stats([&node_stats(4, 10)]),
            nodes: vec![NodeReport {
                addr: "127.0.0.1:1".into(),
                alive: true,
                missed_heartbeats: 0,
                stale: false,
                stats: Some(node_stats(4, 10)),
            }],
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: ClusterStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
