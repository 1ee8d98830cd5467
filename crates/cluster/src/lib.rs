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
//! - **bounded in-flight windows** ([`ClusterConfig::inflight_window`]):
//!   cluster-level backpressure in front of each node's bounded queue,
//!   propagating the 429/503 semantics end-to-end;
//! - **checkpoint replication** ([`coordinator`]): every heartbeat pulls
//!   each node's bulk `/checkpoints` export, so the coordinator holds a
//!   recent resumable checkpoint for every running job;
//! - **death detection and resume**: a node missing
//!   [`ClusterConfig::failure_threshold`] consecutive `/healthz` probes
//!   is declared dead and its unfinished jobs are resubmitted to
//!   survivors with their replicated checkpoints — and because resume
//!   rides the driver's checkpoint path, the moved job's final report is
//!   bit-identical to one that never moved;
//! - **rejoin rebalancing**: a dead node that answers the same
//!   threshold's worth of *consecutive* probes (hysteresis) is revived,
//!   and unfinished jobs whose home ring position is the revived node
//!   migrate back at a slice boundary — cancel-with-checkpoint on the
//!   survivor, resume at home — keeping the
//!   `reroutes == detours + resumes` accounting identity;
//! - **coordinator durability** ([`wal`]): started with a state
//!   directory ([`Coordinator::start_durable`]), every change to the
//!   job table and counters is one write-ahead-logged record, and a
//!   restarted coordinator re-adopts the fleet — replaying the log,
//!   probing every node, adopting live exports, resuming orphans from
//!   replicated checkpoints — before accepting traffic, so a SIGKILLed
//!   coordinator loses zero jobs;
//! - **cross-node cache sharing**: the hot eval-cache entries each node
//!   exports alongside its checkpoints are replicated too, and every
//!   resume carries them as the spec's warm cache, so a moved job
//!   re-hits instead of re-simulating;
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
