//! The RL-facing layout environment.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use breaksym_geometry::{Direction, GridPoint, GridRect, GridSpec};
use breaksym_netlist::{Circuit, GroupId, UnitId};

use crate::{
    connectivity::is_connected4, AppliedMove, GroupMove, LayoutError, Placement, PlacementMove,
    SwapMove, UnitMove,
};

/// A placement grid bound to a circuit: the environment the agents of the
/// paper interact with.
///
/// Owns the [`Circuit`], the [`GridSpec`], and the current [`Placement`],
/// and enforces the three legality rules of Fig. 2(b):
///
/// 1. targets stay inside the grid,
/// 2. targets are vacant,
/// 3. every group remains 4-connected.
///
/// # Examples
///
/// ```
/// use breaksym_geometry::{Direction, GridSpec};
/// use breaksym_layout::{LayoutEnv, UnitMove};
/// use breaksym_netlist::{circuits, UnitId};
///
/// let mut env = LayoutEnv::sequential(circuits::fig2_example(), GridSpec::square(8))?;
/// // Find any unit with at least one legal move and take it.
/// let (unit, legal) = (0..env.circuit().num_units() as u32)
///     .map(|i| (UnitId::new(i), env.legal_unit_moves(UnitId::new(i))))
///     .find(|(_, moves)| !moves.is_empty())
///     .expect("some unit is movable");
/// let undo = env.apply(UnitMove { unit, dir: legal[0] }.into())?;
/// env.undo(undo);
/// # Ok::<(), breaksym_layout::LayoutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LayoutEnv {
    circuit: Circuit,
    spec: GridSpec,
    placement: Placement,
    /// Cached `group → units` index (groups and units are immutable).
    group_units: Vec<Vec<UnitId>>,
}

impl LayoutEnv {
    /// Wraps an existing placement, installed through
    /// [`set_placement`](LayoutEnv::set_placement) so a deserialised one
    /// gets its index.
    ///
    /// # Errors
    ///
    /// Fails when the placement has the wrong unit count, places a unit out
    /// of bounds, or leaves any group disconnected.
    pub fn new(
        circuit: Circuit,
        spec: GridSpec,
        placement: Placement,
    ) -> Result<Self, LayoutError> {
        let group_units: Vec<Vec<UnitId>> =
            circuit.group_ids().map(|g| circuit.units_of_group(g)).collect();
        let empty = Placement::from_positions(Vec::new()).expect("no units, no clash");
        let mut env = LayoutEnv { circuit, spec, placement: empty, group_units };
        env.set_placement(placement)?;
        Ok(env)
    }

    /// Builds the paper's initial placement: groups laid out shelf-by-shelf
    /// in declaration order, units within each group filled sequentially
    /// into a near-square connected block.
    ///
    /// Use [`LayoutEnv::sequential_with_order`] to supply a signal-flow
    /// ordering instead of declaration order.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::GridTooSmall`] when the circuit cannot fit.
    pub fn sequential(circuit: Circuit, spec: GridSpec) -> Result<Self, LayoutError> {
        let order: Vec<GroupId> = circuit.group_ids().collect();
        Self::sequential_with_order(circuit, spec, &order)
    }

    /// Like [`LayoutEnv::sequential`] with an explicit group order (e.g.
    /// from the signal-flow graph).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::GridTooSmall`] when the circuit cannot fit,
    /// and propagates placement-construction errors.
    pub fn sequential_with_order(
        circuit: Circuit,
        spec: GridSpec,
        order: &[GroupId],
    ) -> Result<Self, LayoutError> {
        let needed = circuit.num_units() as u64;
        if needed > spec.bounds().area() {
            return Err(LayoutError::GridTooSmall { capacity: spec.bounds().area(), needed });
        }
        let mut positions = vec![GridPoint::ORIGIN; circuit.num_units()];
        // Shelf packer: groups go left→right, a new shelf starts when the
        // next block would overflow the grid width.
        let mut cursor_x = 0i32;
        let mut shelf_y = 0i32;
        let mut shelf_h = 0i32;
        for &g in order {
            let units = circuit.units_of_group(g);
            let n = units.len() as i32;
            let w = (f64::from(n).sqrt().ceil() as i32).max(1);
            let h = (n + w - 1) / w;
            if cursor_x + w > spec.cols() {
                shelf_y += shelf_h + 1;
                cursor_x = 0;
                shelf_h = 0;
            }
            if cursor_x + w > spec.cols() || shelf_y + h > spec.rows() {
                return Err(LayoutError::GridTooSmall { capacity: spec.bounds().area(), needed });
            }
            // Row-major fill keeps the block 4-connected even when the last
            // row is partial.
            for (k, &u) in units.iter().enumerate() {
                let k = k as i32;
                positions[u.index()] = GridPoint::new(cursor_x + k % w, shelf_y + k / w);
            }
            cursor_x += w + 1; // one vacant column between groups
            shelf_h = shelf_h.max(h);
        }
        let placement = Placement::from_positions(positions)?;
        LayoutEnv::new(circuit, spec, placement)
    }

    /// The circuit being placed.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The grid specification.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The current placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Replaces the placement wholesale (used by baseline generators,
    /// warm-start resets and resumes). A legal placement has its
    /// occupancy map and fingerprint rebuilt before it is installed: a
    /// deserialised placement arrives without them, and legality checks,
    /// the LDE model and the evaluation cache all read them. This is the
    /// one place a stored placement gets its index, so placements kept in
    /// search state or checkpoints need no fix-up of their own.
    ///
    /// # Errors
    ///
    /// Same validation as [`LayoutEnv::new`]
    /// ([`LayoutEnv::validate_placement`]); the current placement stays.
    pub fn set_placement(&mut self, mut placement: Placement) -> Result<(), LayoutError> {
        self.validate_placement(&placement)?;
        placement.rebuild_index();
        self.placement = placement;
        Ok(())
    }

    /// The placement's incrementally maintained Zobrist fingerprint — see
    /// [`Placement::fingerprint`]. Suitable as a memoization key for
    /// anything that depends only on the placement (LDE shifts, parasitics,
    /// simulated metrics) of a fixed circuit on a fixed grid.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.placement.fingerprint()
    }

    /// Units of a group, in device-major order (cached).
    pub fn units_of_group(&self, g: GroupId) -> &[UnitId] {
        &self.group_units[g.index()]
    }

    /// Full legality audit of the current placement: bounds, unit count,
    /// and per-group connectivity.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), LayoutError> {
        self.validate_placement(&self.placement)
    }

    /// The audit of [`LayoutEnv::validate`] applied to any placement of
    /// this circuit — what [`LayoutEnv::set_placement`] checks before
    /// installing one. Reads positions and dummies only, so a
    /// deserialised placement needs no index first.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate_placement(&self, placement: &Placement) -> Result<(), LayoutError> {
        if placement.len() != self.circuit.num_units() {
            return Err(LayoutError::WrongUnitCount {
                got: placement.len(),
                expected: self.circuit.num_units(),
            });
        }
        let bounds = self.spec.bounds();
        for &p in placement.positions() {
            if !bounds.contains(p) {
                return Err(LayoutError::OutOfBounds { cell: p });
            }
        }
        for &d in placement.dummies() {
            if !bounds.contains(d) {
                return Err(LayoutError::OutOfBounds { cell: d });
            }
        }
        for (gi, units) in self.group_units.iter().enumerate() {
            let cells: Vec<GridPoint> = units.iter().map(|&u| placement.position(u)).collect();
            if !is_connected4(&cells) {
                return Err(LayoutError::DisconnectsGroup { group: GroupId::new(gi as u32) });
            }
        }
        Ok(())
    }

    /// Checks one move against all three legality rules without applying it.
    ///
    /// # Errors
    ///
    /// Describes the violated rule.
    pub fn check(&self, mv: PlacementMove) -> Result<(), LayoutError> {
        match mv {
            PlacementMove::Unit(UnitMove { unit, dir }) => {
                let target = self.placement.position(unit) + dir.vector();
                if !self.spec.bounds().contains(target) {
                    return Err(LayoutError::OutOfBounds { cell: target });
                }
                if let Some(by) = self.placement.unit_at(target) {
                    return Err(LayoutError::Occupied { cell: target, by: Some(by) });
                }
                if self.placement.dummies().contains(&target) {
                    return Err(LayoutError::Occupied { cell: target, by: None });
                }
                let g = self.circuit.group_of_unit(unit);
                let cells: Vec<GridPoint> = self
                    .units_of_group(g)
                    .iter()
                    .map(|&u| {
                        if u == unit {
                            target
                        } else {
                            self.placement.position(u)
                        }
                    })
                    .collect();
                if !is_connected4(&cells) {
                    return Err(LayoutError::DisconnectsGroup { group: g });
                }
                Ok(())
            }
            PlacementMove::Group(GroupMove { group, dir }) => {
                let dv = dir.vector();
                let moving: std::collections::HashSet<UnitId> =
                    self.units_of_group(group).iter().copied().collect();
                for &u in self.units_of_group(group) {
                    let target = self.placement.position(u) + dv;
                    if !self.spec.bounds().contains(target) {
                        return Err(LayoutError::OutOfBounds { cell: target });
                    }
                    if let Some(by) = self.placement.unit_at(target) {
                        if !moving.contains(&by) {
                            return Err(LayoutError::Occupied { cell: target, by: Some(by) });
                        }
                    }
                    if self.placement.dummies().contains(&target) {
                        return Err(LayoutError::Occupied { cell: target, by: None });
                    }
                }
                Ok(())
            }
            PlacementMove::Swap(SwapMove { a, b }) => {
                // Swapping does not change the occupied cell set, so only
                // group connectivity can break — and only when the units
                // belong to different groups.
                let ga = self.circuit.group_of_unit(a);
                let gb = self.circuit.group_of_unit(b);
                if a == b || ga == gb {
                    return Ok(());
                }
                let pa = self.placement.position(a);
                let pb = self.placement.position(b);
                for (g, lost, gained) in [(ga, pa, pb), (gb, pb, pa)] {
                    let cells: Vec<GridPoint> = self
                        .units_of_group(g)
                        .iter()
                        .map(|&u| {
                            let p = self.placement.position(u);
                            if p == lost {
                                gained
                            } else {
                                p
                            }
                        })
                        .collect();
                    if !is_connected4(&cells) {
                        return Err(LayoutError::DisconnectsGroup { group: g });
                    }
                }
                Ok(())
            }
        }
    }

    /// Units whose cells `unit` could legally swap with (excluding
    /// same-group swaps of identical effect is left to the caller — a
    /// same-group swap is always legal).
    pub fn legal_swaps(&self, unit: UnitId) -> Vec<UnitId> {
        (0..self.circuit.num_units() as u32)
            .map(UnitId::new)
            .filter(|&other| {
                other != unit
                    && self.check(PlacementMove::Swap(SwapMove { a: unit, b: other })).is_ok()
            })
            .collect()
    }

    /// The legal subset of the eight unit moves (Fig. 2b).
    pub fn legal_unit_moves(&self, unit: UnitId) -> Vec<Direction> {
        let mut buf = [Direction::North; 8];
        let n = self.legal_unit_moves_into(unit, &mut buf);
        buf[..n].to_vec()
    }

    /// Allocation-free variant of [`legal_unit_moves`](Self::legal_unit_moves):
    /// writes the legal directions into `out` (in [`Direction::ALL`] order,
    /// identical to the `Vec` variant) and returns how many there are.
    /// Hot-loop callers keep `out` on the stack and skip the per-query
    /// `Vec` allocation.
    pub fn legal_unit_moves_into(&self, unit: UnitId, out: &mut [Direction; 8]) -> usize {
        let mut n = 0;
        for dir in Direction::ALL {
            if self.check(PlacementMove::Unit(UnitMove { unit, dir })).is_ok() {
                out[n] = dir;
                n += 1;
            }
        }
        n
    }

    /// The legal subset of the eight group translations.
    pub fn legal_group_moves(&self, group: GroupId) -> Vec<Direction> {
        let mut buf = [Direction::North; 8];
        let n = self.legal_group_moves_into(group, &mut buf);
        buf[..n].to_vec()
    }

    /// Allocation-free variant of [`legal_group_moves`](Self::legal_group_moves);
    /// same contract as [`legal_unit_moves_into`](Self::legal_unit_moves_into).
    pub fn legal_group_moves_into(&self, group: GroupId, out: &mut [Direction; 8]) -> usize {
        let mut n = 0;
        for dir in Direction::ALL {
            if self.check(PlacementMove::Group(GroupMove { group, dir })).is_ok() {
                out[n] = dir;
                n += 1;
            }
        }
        n
    }

    /// Applies a move after checking legality.
    ///
    /// # Errors
    ///
    /// Returns the legality violation; the environment is unchanged on
    /// error.
    pub fn apply(&mut self, mv: PlacementMove) -> Result<AppliedMove, LayoutError> {
        self.check(mv)?;
        match mv {
            PlacementMove::Unit(UnitMove { unit, dir }) => {
                let target = self.placement.position(unit) + dir.vector();
                self.placement.move_unit(unit, target).expect("checked vacant above");
            }
            PlacementMove::Group(GroupMove { group, dir }) => {
                let units = self.group_units[group.index()].clone();
                self.placement
                    .translate_units(&units, dir.vector())
                    .expect("checked vacant above");
            }
            PlacementMove::Swap(SwapMove { a, b }) => {
                self.placement.swap_units(a, b);
            }
        }
        Ok(AppliedMove { mv })
    }

    /// Reverts a move previously applied to this environment.
    ///
    /// Apply/undo must pair up LIFO; undoing in any other order may panic
    /// on occupancy.
    ///
    /// # Panics
    ///
    /// Panics if the inverse move is blocked, which can only happen when
    /// undo records are replayed out of order.
    pub fn undo(&mut self, token: AppliedMove) {
        match token.mv {
            PlacementMove::Unit(UnitMove { unit, dir }) => {
                let back = self.placement.position(unit) + dir.opposite().vector();
                self.placement
                    .move_unit(unit, back)
                    .expect("undo target must be the original vacant cell");
            }
            PlacementMove::Group(GroupMove { group, dir }) => {
                let units = self.group_units[group.index()].clone();
                self.placement
                    .translate_units(&units, dir.opposite().vector())
                    .expect("undo target must be the original cells");
            }
            PlacementMove::Swap(SwapMove { a, b }) => {
                // A swap is its own inverse.
                self.placement.swap_units(a, b);
            }
        }
    }

    /// A hash of the complete placement — the state of a *flat* (single-
    /// level) agent.
    pub fn state_key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.placement.positions().hash(&mut h);
        h.finish()
    }

    /// A hash of the group-level configuration (each group's bounding-box
    /// corner) — the state of the **top-level** agent. Deliberately blind
    /// to intra-group arrangement, which keeps the top-level table small.
    pub fn group_state_key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for units in &self.group_units {
            let bb = self.placement.bounding_box_of(units).expect("groups are never empty");
            bb.min().hash(&mut h);
        }
        h.finish()
    }

    /// A hash of one group's internal arrangement, translation-invariant
    /// (positions relative to the group's bounding-box corner) — the state
    /// of that group's **bottom-level** agent. Translation invariance means
    /// top-level group moves do not disturb the bottom-level tables.
    pub fn local_state_key(&self, group: GroupId) -> u64 {
        let units = &self.group_units[group.index()];
        let bb = self.placement.bounding_box_of(units).expect("groups are never empty");
        let mut h = DefaultHasher::new();
        for &u in units {
            (self.placement.position(u) - bb.min()).hash(&mut h);
        }
        h.finish()
    }

    /// Area of the layout in grid cells (bounding box over units and
    /// dummies).
    pub fn area_cells(&self) -> u64 {
        self.placement.bounding_box().map_or(0, |b| b.area())
    }

    /// Area of the layout in µm².
    pub fn area_um2(&self) -> f64 {
        self.spec.cells_area_um2(self.area_cells())
    }

    /// Fraction of the layout bounding box actually occupied by units and
    /// dummies — packing density, 1.0 for a perfect rectangle of silicon.
    pub fn utilization(&self) -> f64 {
        let area = self.area_cells();
        if area == 0 {
            return 1.0;
        }
        let occupied = self.placement.len() + self.placement.dummies().len();
        occupied as f64 / area as f64
    }

    /// Aspect ratio (width / height) of the layout bounding box; 1.0 is
    /// square, large values are wide slivers routers dislike.
    pub fn aspect_ratio(&self) -> f64 {
        match self.placement.bounding_box() {
            Some(bb) if bb.height() > 0 => f64::from(bb.width()) / f64::from(bb.height()),
            _ => 1.0,
        }
    }

    /// Bounding box of one group.
    pub fn group_bbox(&self, g: GroupId) -> GridRect {
        self.placement
            .bounding_box_of(&self.group_units[g.index()])
            .expect("groups are never empty")
    }
}

impl fmt::Display for LayoutEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} ({} units, area {} cells)",
            self.circuit.name(),
            self.spec,
            self.placement.len(),
            self.area_cells()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_netlist::circuits;
    use breaksym_testkit::check_cases;
    use rand::Rng;

    fn fig2_env() -> LayoutEnv {
        LayoutEnv::sequential(circuits::fig2_example(), GridSpec::square(8)).unwrap()
    }

    #[test]
    fn sequential_placement_is_valid_for_all_benchmarks() {
        for c in [
            circuits::fig2_example(),
            circuits::current_mirror_medium(),
            circuits::comparator(),
            circuits::folded_cascode_ota(),
            circuits::five_transistor_ota(),
            circuits::diff_pair(),
        ] {
            let side = (c.num_units() as f64).sqrt().ceil() as i32 * 3;
            let env = LayoutEnv::sequential(c, GridSpec::square(side.max(8)))
                .expect("sequential placement must fit");
            env.validate().expect("must be legal");
        }
    }

    #[test]
    fn grid_too_small_is_reported() {
        let c = circuits::folded_cascode_ota(); // 32 units
        let err = LayoutEnv::sequential(c, GridSpec::square(5));
        assert!(matches!(err, Err(LayoutError::GridTooSmall { .. })));
    }

    #[test]
    fn legal_moves_respect_bounds_vacancy_connectivity() {
        let env = fig2_env();
        for u in 0..env.circuit().num_units() as u32 {
            let unit = UnitId::new(u);
            for dir in env.legal_unit_moves(unit) {
                // Each reported-legal move must pass check().
                env.check(PlacementMove::Unit(UnitMove { unit, dir })).unwrap();
            }
        }
    }

    #[test]
    fn apply_then_undo_restores_state_key() {
        let mut env = fig2_env();
        let key0 = env.state_key();
        // Corner units of a 2x2 block can be fully locked; pick any unit
        // that can actually move.
        let (unit, dirs) = (0..env.circuit().num_units() as u32)
            .map(|i| (UnitId::new(i), env.legal_unit_moves(UnitId::new(i))))
            .find(|(_, d)| !d.is_empty())
            .expect("some unit must be movable");
        let undo = env.apply(UnitMove { unit, dir: dirs[0] }.into()).unwrap();
        assert_ne!(env.state_key(), key0, "move must change the state");
        env.undo(undo);
        assert_eq!(env.state_key(), key0);
        env.validate().unwrap();
    }

    #[test]
    fn group_move_preserves_local_state_key() {
        let mut env = fig2_env();
        let g = GroupId::new(0);
        let local0 = env.local_state_key(g);
        let dirs = env.legal_group_moves(g);
        assert!(!dirs.is_empty());
        let undo = env.apply(GroupMove { group: g, dir: dirs[0] }.into()).unwrap();
        // Translation-invariance: the bottom agent's state is unchanged.
        assert_eq!(env.local_state_key(g), local0);
        // But the top-level state changed.
        env.undo(undo);
        env.validate().unwrap();
    }

    #[test]
    fn group_state_key_ignores_internal_shuffle() {
        let env = fig2_env();
        let gkey = env.group_state_key();
        // Find a unit move that keeps its group bbox corner unchanged.
        let mut found = false;
        'outer: for u in 0..env.circuit().num_units() as u32 {
            let unit = UnitId::new(u);
            let g = env.circuit().group_of_unit(unit);
            let bb = env.group_bbox(g);
            for dir in env.legal_unit_moves(unit) {
                let mut probe = env.clone();
                probe.apply(UnitMove { unit, dir }.into()).unwrap();
                if probe.group_bbox(g).min() == bb.min() {
                    assert_eq!(probe.group_state_key(), gkey);
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "expected at least one bbox-preserving unit move");
    }

    #[test]
    fn disconnecting_move_is_rejected() {
        // Three units of one device in a row; moving the middle one north
        // disconnects the remaining pair from it only if it ends diagonal…
        // Build a 1x3 row and try to tear the end unit away diagonally.
        use breaksym_netlist::{
            CircuitBuilder, CircuitClass, GroupKind, MosParams, MosPolarity, NetKind,
        };
        let mut b = CircuitBuilder::new("row", CircuitClass::Generic);
        let vss = b.net("vss", NetKind::Ground);
        let g = b.add_group("g", GroupKind::Custom).unwrap();
        let p = MosParams::nmos_default(1.0, 0.1);
        b.add_mos("M1", MosPolarity::Nmos, p, 3, g, vss, vss, vss, vss).unwrap();
        let c = b.build().unwrap();
        let env = LayoutEnv::sequential(c, GridSpec::square(6)).unwrap();
        // Sequential places 3 units in a 2x2 block footprint (w=2):
        // u0=(0,0) u1=(1,0) u2=(0,1). Moving u2 north leaves it diagonal? No:
        // u2 at (0,1) → (0,2): still adjacent to nothing? u0 at (0,0) is two
        // below → disconnected.
        let err = env
            .check(PlacementMove::Unit(UnitMove { unit: UnitId::new(2), dir: Direction::North }));
        assert!(matches!(err, Err(LayoutError::DisconnectsGroup { .. })));
    }

    #[test]
    fn corner_unit_has_fewer_legal_moves() {
        let env = fig2_env();
        // Find the unit at the grid corner (0,0) — sequential packs one there.
        let corner = env.placement().unit_at(GridPoint::ORIGIN).expect("corner occupied");
        let legal = env.legal_unit_moves(corner);
        assert!(legal.len() < 8, "corner unit cannot have all 8 moves");
        for d in &legal {
            assert!(
                !matches!(
                    d,
                    Direction::West
                        | Direction::South
                        | Direction::SouthWest
                        | Direction::NorthWest
                        | Direction::SouthEast
                ),
                "{d} would leave the grid from the corner"
            );
        }
    }

    #[test]
    fn set_placement_rolls_back_on_invalid() {
        let mut env = fig2_env();
        let good = env.placement().clone();
        let bad = Placement::from_positions(vec![GridPoint::new(100, 100); 1]).unwrap();
        assert!(env.set_placement(bad).is_err());
        assert_eq!(env.placement(), &good, "failed set must roll back");
    }

    #[test]
    fn fingerprint_follows_apply_and_undo() {
        let mut env = fig2_env();
        let fp0 = env.fingerprint();
        let (unit, dirs) = (0..env.circuit().num_units() as u32)
            .map(|i| (UnitId::new(i), env.legal_unit_moves(UnitId::new(i))))
            .find(|(_, d)| !d.is_empty())
            .expect("some unit must be movable");
        let tok = env.apply(UnitMove { unit, dir: dirs[0] }.into()).unwrap();
        assert_ne!(env.fingerprint(), fp0);
        env.undo(tok);
        assert_eq!(env.fingerprint(), fp0);
        // The fingerprint agrees with a from-scratch recomputation.
        let mut fresh = env.placement().clone();
        fresh.rebuild_index();
        assert_eq!(env.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn legal_moves_into_matches_vec_variant() {
        let env = fig2_env();
        let mut buf = [Direction::North; 8];
        for u in 0..env.circuit().num_units() as u32 {
            let unit = UnitId::new(u);
            let n = env.legal_unit_moves_into(unit, &mut buf);
            assert_eq!(&buf[..n], env.legal_unit_moves(unit).as_slice());
        }
        for g in env.circuit().group_ids() {
            let n = env.legal_group_moves_into(g, &mut buf);
            assert_eq!(&buf[..n], env.legal_group_moves(g).as_slice());
        }
    }

    #[test]
    fn area_accounting() {
        let env = fig2_env();
        let bb = env.placement().bounding_box().unwrap();
        assert_eq!(env.area_cells(), bb.area());
        assert!(env.area_um2() > 0.0);
    }

    #[test]
    fn utilization_and_aspect() {
        let env = fig2_env();
        // fig2 initial: three 2x2 blocks with single-column gaps on one
        // shelf: bbox 8x2 = 16 cells, 12 units → utilization 0.75.
        assert!((env.utilization() - 12.0 / 16.0).abs() < 1e-12);
        assert!((env.aspect_ratio() - 4.0).abs() < 1e-12);
        // Utilization never exceeds 1.
        assert!(env.utilization() <= 1.0);
    }

    /// Two 3-unit groups interlocking across a border:
    /// ```text
    ///  .BB.      A = (0,0) (1,0) (1,1)
    ///  AAB.      B = (2,0) (2,1) (3,1)  — wait, rendered: row0 = AAB,
    ///  ```                                row1 = .BB
    /// Swapping A's corner (1,1) with B's (2,0) keeps both connected.
    fn interlocked_env() -> LayoutEnv {
        use breaksym_netlist::{
            CircuitBuilder, CircuitClass, GroupKind, MosParams, MosPolarity, NetKind,
        };
        let mut b = CircuitBuilder::new("interlock", CircuitClass::Generic);
        let vss = b.net("vss", NetKind::Ground);
        let p = MosParams::nmos_default(1.0, 0.1);
        let ga = b.add_group("ga", GroupKind::Custom).unwrap();
        let gb = b.add_group("gb", GroupKind::Custom).unwrap();
        b.add_mos("MA", MosPolarity::Nmos, p, 3, ga, vss, vss, vss, vss).unwrap();
        b.add_mos("MB", MosPolarity::Nmos, p, 3, gb, vss, vss, vss, vss).unwrap();
        let c = b.build().unwrap();
        let placement = Placement::from_positions(vec![
            GridPoint::new(0, 0), // u0 (A)
            GridPoint::new(1, 0), // u1 (A)
            GridPoint::new(1, 1), // u2 (A)
            GridPoint::new(2, 0), // u3 (B)
            GridPoint::new(2, 1), // u4 (B)
            GridPoint::new(3, 1), // u5 (B)
        ])
        .unwrap();
        LayoutEnv::new(c, GridSpec::square(6), placement).unwrap()
    }

    #[test]
    fn swap_is_self_inverse_and_checked() {
        let mut env = interlocked_env();
        let key0 = env.state_key();
        // Legal interlocking swap: A's (1,1) with B's (2,0).
        let mv = PlacementMove::Swap(SwapMove { a: UnitId::new(2), b: UnitId::new(3) });
        let tok = env.apply(mv).unwrap();
        env.validate().unwrap();
        assert_ne!(env.state_key(), key0, "cross-group swap changes state");
        assert_eq!(env.placement().position(UnitId::new(2)), GridPoint::new(2, 0));
        assert_eq!(env.placement().position(UnitId::new(3)), GridPoint::new(1, 1));
        env.undo(tok);
        assert_eq!(env.state_key(), key0);

        // Illegal swap: A's far end (0,0) into B's far end (3,1) tears both.
        let bad = PlacementMove::Swap(SwapMove { a: UnitId::new(0), b: UnitId::new(5) });
        assert!(matches!(env.check(bad), Err(LayoutError::DisconnectsGroup { .. })));
        // legal_swaps finds the interlocking partner.
        assert!(env.legal_swaps(UnitId::new(2)).contains(&UnitId::new(3)));
    }

    #[test]
    fn same_group_swap_is_always_legal() {
        let env = fig2_env();
        let g0_units = env.units_of_group(breaksym_netlist::GroupId::new(0)).to_vec();
        let mv = PlacementMove::Swap(SwapMove { a: g0_units[0], b: g0_units[3] });
        env.check(mv).expect("same-group swaps never break the group's cell set");
        // Self-swap is legal too.
        let mv = PlacementMove::Swap(SwapMove { a: g0_units[1], b: g0_units[1] });
        env.check(mv).unwrap();
    }

    #[test]
    fn disconnecting_swap_is_rejected_and_legal_swaps_enumerates() {
        let env = fig2_env();
        // Units at the far ends of groups A and C: swapping a corner unit
        // of A into C's block would tear A apart (blocks are 3 cells apart).
        let a_units = env.units_of_group(breaksym_netlist::GroupId::new(0)).to_vec();
        let c_units = env.units_of_group(breaksym_netlist::GroupId::new(2)).to_vec();
        let mv = PlacementMove::Swap(SwapMove { a: a_units[0], b: c_units[3] });
        assert!(matches!(env.check(mv), Err(LayoutError::DisconnectsGroup { .. })));
        // legal_swaps only reports checked-legal partners.
        for partner in env.legal_swaps(a_units[0]) {
            env.check(PlacementMove::Swap(SwapMove { a: a_units[0], b: partner })).unwrap();
        }
    }

    /// Random legal walks keep every invariant intact, and replaying the
    /// undo stack restores the exact initial state.
    #[test]
    fn prop_random_walk_validates_and_undoes() {
        check_cases(256, |rng| {
            let mut env = fig2_env();
            let key0 = env.state_key();
            let mut undos = Vec::new();
            for _ in 0..rng.gen_range(1..40) {
                let unit = UnitId::new(rng.gen_range(0u32..12));
                let dir = Direction::from_index(rng.gen_range(0usize..8)).unwrap();
                if let Ok(tok) = env.apply(UnitMove { unit, dir }.into()) {
                    undos.push(tok);
                    env.validate().expect("every applied move keeps the env valid");
                }
            }
            while let Some(tok) = undos.pop() {
                env.undo(tok);
            }
            assert_eq!(env.state_key(), key0);
        });
    }

    /// Mixed unit/group/swap walks: the full action vocabulary keeps
    /// every invariant, and LIFO undo restores the exact state.
    #[test]
    fn prop_mixed_move_walk_validates_and_undoes() {
        check_cases(256, |rng| {
            let mut env = fig2_env();
            let key0 = env.state_key();
            let mut undos = Vec::new();
            for _ in 0..rng.gen_range(1..50) {
                let kind = rng.gen_range(0u8..3);
                let (a, b) = (rng.gen_range(0u32..12), rng.gen_range(0u32..12));
                let dir = Direction::from_index(rng.gen_range(0usize..8)).unwrap();
                let mv: PlacementMove = match kind {
                    0 => UnitMove { unit: UnitId::new(a), dir }.into(),
                    1 => GroupMove { group: breaksym_netlist::GroupId::new(a % 3), dir }.into(),
                    _ => SwapMove { a: UnitId::new(a), b: UnitId::new(b) }.into(),
                };
                if let Ok(tok) = env.apply(mv) {
                    undos.push(tok);
                    env.validate().expect("every applied move keeps the env valid");
                }
            }
            while let Some(tok) = undos.pop() {
                env.undo(tok);
            }
            assert_eq!(env.state_key(), key0);
            env.validate().unwrap();
        });
    }
}
