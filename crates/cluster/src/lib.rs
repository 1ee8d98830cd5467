//! `breaksym-cluster` — a sharded multi-node coordinator for placement
//! serving: one [`Coordinator`] fronting N `breaksym-serve` nodes over
//! the existing std-net HTTP/1.1 + serde-JSON protocol.
//!
//! The coordinator speaks the *same* client-facing protocol a single
//! node does — submit, status, report, checkpoint, cancel, `/stats`,
//! `/healthz` — so existing clients point at a cluster unchanged (it
//! implements [`JobApi`](breaksym_serve::JobApi) and mounts behind the
//! same [`HttpServer`](breaksym_serve::HttpServer)). Behind that facade:
//!
//! - **consistent-hash routing** ([`ring`]): job ids map to nodes via an
//!   FNV-1a virtual-node ring, stable across processes and restarts,
//!   with a deterministic per-key fallback order when nodes are down;
//! - **checkpoint replication** ([`coordinator`]): every heartbeat pulls
//!   each node's bulk `/checkpoints` export, so the coordinator holds (in
//!   memory) a recent resumable checkpoint for every running job and the final
//!   report of every job seen done (which replaces its checkpoint);
//! - **death detection and resume**: a node missing
//!   [`ClusterConfig::failure_threshold`] consecutive `/healthz` probes
//!   is declared dead and its unfinished jobs are resubmitted to
//!   survivors with their replicated checkpoints — and because resume
//!   rides the driver's checkpoint path, the moved job's final report is
//!   bit-identical to one that never moved;
//! - **rejoin rebalancing**: a dead node that answers the same
//!   threshold's worth of *consecutive* probes (hysteresis) is revived,
//!   and unfinished jobs whose home ring position is the revived node
//!   move back the way a death-resume moves a job — resumed at home from
//!   the replicated checkpoint, then the survivor's copy cancelled; a
//!   job the home node does not take stays on its survivor —
//!   keeping the `reroutes == detours + resumes` accounting identity;
//! - **coordinator durability** ([`wal`]): started with a state
//!   directory ([`Coordinator::start_durable`]), every decision — a
//!   job's routing, state change, move or report, a node's death or
//!   revival — is one write-ahead-logged record (no replicas, no
//!   progress), and a restarted coordinator re-adopts the fleet —
//!   replaying the log, probing every node, adopting live exports, resuming
//!   orphans from their resume points — before accepting traffic, so a SIGKILLed
//!   coordinator loses zero jobs;
//! - **aggregated observability**: cluster `/stats` folds every node's
//!   counters ([`fold_stats`]) — last-known snapshots standing in for
//!   unreachable nodes — and adds the coordinator's own: routed jobs,
//!   reroutes, node deaths and revivals, resumed jobs.
//!
//! All timeout and heartbeat decisions go through the injected
//! [`Clock`](breaksym_testkit::Clock), the cluster seams carry named
//! failpoints ([`FAIL_FORWARD`], [`FAIL_HEARTBEAT`], [`FAIL_REPLICATE`],
//! [`FAIL_REBALANCE`], [`FAIL_STATS`], [`FAIL_WAL`]), and [`chaos`]
//! extends the single-node chaos harness to whole fleets — `repro chaos
//! --nodes 3 --seed N` kills the busiest node mid-run (with optional
//! coordinator kill-and-restart and node-revival variants) and proves,
//! twice, that nothing is lost and everything resumes bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod coordinator;
pub mod protocol;
pub mod ring;
pub mod wal;

pub use chaos::{
    run_cluster_chaos, ClusterChaosConfig, ClusterChaosReport, DeterministicView, JobFingerprint,
};
pub use client::{HttpResponse, NodeClient};
pub use coordinator::{
    ClusterConfig, ClusterHandle, Coordinator, FAIL_FORWARD, FAIL_HEARTBEAT, FAIL_REBALANCE,
    FAIL_REPLICATE, FAIL_STATS,
};
pub use protocol::{fold_stats, ClusterHealthz, ClusterStats, JobInspect, NodeReport};
pub use ring::HashRing;
pub use wal::{CoordState, PersistedCounters, PersistedJob, WalRecord, WalStore, FAIL_WAL};
