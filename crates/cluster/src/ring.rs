//! Consistent hashing of job ids onto nodes.
//!
//! A classic virtual-node hash ring: each node contributes `vnodes`
//! points hashed onto a `u64` circle, and a job id routes to the owner
//! of the first point at or clockwise-after the id's own hash. Dead
//! nodes are skipped by continuing around the ring, so a job's fallback
//! order is itself deterministic. The hash is FNV-1a — a specified
//! algorithm, so it is stable across processes, platforms, runs and
//! toolchains. `DefaultHasher` is not: std leaves its algorithm
//! unspecified and free to change between releases (it is `RandomState`
//! that keys hashers randomly per process). Cross-run stability is what
//! makes the chaos harness's run-twice determinism possible, and it
//! means a restarted coordinator routes identically to its predecessor.

/// Virtual nodes per real node on every coordinator's ring.
pub(crate) const VNODES: usize = 16;

/// FNV-1a over a byte string: tiny, dependency-free, and stable — the
/// properties that matter here; cryptographic strength does not.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A consistent-hash ring over `nodes` nodes with `vnodes` virtual
/// points each.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, node)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// Builds the ring. More virtual nodes smooth the key distribution
    /// at the cost of a larger (still tiny) sorted table; 16–64 per node
    /// is plenty at this fleet size.
    pub fn new(nodes: usize, vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(nodes * vnodes);
        for node in 0..nodes {
            for vnode in 0..vnodes {
                points.push((fnv1a(format!("node-{node}/vnode-{vnode}").as_bytes()), node));
            }
        }
        points.sort_unstable();
        HashRing { points, nodes }
    }

    /// Number of nodes the ring was built over.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the ring is empty (zero nodes).
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// The node owning `key`, skipping nodes whose `alive` entry is
    /// false; `None` when no node is alive. Walking the ring (rather
    /// than re-hashing) keeps each key's fallback order fixed, so every
    /// coordinator decision — first placement and every reroute — is a
    /// pure function of the key and the liveness vector.
    pub fn route(&self, key: u64, alive: &[bool]) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let hash = fnv1a(&key.to_le_bytes());
        let start = self.points.partition_point(|&(point, _)| point < hash) % self.points.len();
        for offset in 0..self.points.len() {
            let (_, node) = self.points[(start + offset) % self.points.len()];
            if alive.get(node).copied().unwrap_or(false) {
                return Some(node);
            }
        }
        None
    }

    /// The node owning `key` when every node is alive — the "home" node
    /// a job returns to in a fully healthy fleet.
    pub fn preferred(&self, key: u64) -> Option<usize> {
        self.route(key, &vec![true; self.nodes])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::new(3, 16);
        let alive = [true, true, true];
        for key in 0..200u64 {
            let a = ring.route(key, &alive).unwrap();
            let b = ring.route(key, &alive).unwrap();
            assert_eq!(a, b);
            assert!(a < 3);
        }
    }

    #[test]
    fn every_node_owns_some_keys() {
        let ring = HashRing::new(4, 32);
        let alive = [true; 4];
        let mut owned = [0usize; 4];
        for key in 0..1000u64 {
            owned[ring.route(key, &alive).unwrap()] += 1;
        }
        for (node, &count) in owned.iter().enumerate() {
            assert!(count > 0, "node {node} owns no keys: {owned:?}");
        }
    }

    #[test]
    fn dead_nodes_are_skipped_and_survivors_keep_their_keys() {
        let ring = HashRing::new(3, 16);
        let all = [true, true, true];
        let without_1 = [true, false, true];
        for key in 0..300u64 {
            let home = ring.route(key, &all).unwrap();
            let rerouted = ring.route(key, &without_1).unwrap();
            assert_ne!(rerouted, 1, "dead node got key {key}");
            if home != 1 {
                // Keys not owned by the dead node must not move.
                assert_eq!(home, rerouted, "key {key} moved needlessly");
            }
        }
        assert_eq!(ring.route(7, &[false, false, false]), None);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned values: the ring must hash identically forever, or a
        // coordinator restart would reshuffle every job's home node.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
