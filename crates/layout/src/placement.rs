//! Unit → cell assignment with a reverse occupancy index.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use breaksym_geometry::{GridPoint, GridRect};
use breaksym_netlist::UnitId;

use crate::LayoutError;

/// SplitMix64 finaliser — a cheap, high-quality 64-bit mixer.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pseudo unit id used when hashing dummy fill cells into the fingerprint.
const DUMMY_TOKEN: u64 = u32::MAX as u64;

/// Zobrist hash of one `(occupant, cell)` pair. XOR-ing these over all
/// occupied cells yields a placement fingerprint that is independent of
/// iteration order and can be updated incrementally: moving a unit XORs
/// out its old pair and XORs in the new one.
#[inline]
fn cell_hash(token: u64, p: GridPoint) -> u64 {
    let packed = ((p.x as u32 as u64) << 32) | (p.y as u32 as u64);
    splitmix64(packed ^ splitmix64(token ^ 0xA076_1D64_78BD_642F))
}

/// An assignment of every unit to a distinct grid cell, plus optional
/// *dummy fill* cells that occupy space without belonging to any unit.
///
/// `Placement` is pure data: it knows nothing about groups, bounds, or
/// legality — that context lives in [`LayoutEnv`](crate::LayoutEnv). It
/// maintains the forward map (`unit → cell`), the reverse occupancy map
/// (`cell → unit`), and a Zobrist [`fingerprint`](Placement::fingerprint)
/// in lock-step.
///
/// Equality compares the unit positions and dummy cells only: the
/// occupancy map and fingerprint are derived from them and are not
/// serialised, so a deserialised placement equals the one it was written
/// from before [`rebuild_index`](Placement::rebuild_index) runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Placement {
    positions: Vec<GridPoint>,
    #[serde(skip)]
    occupancy: HashMap<GridPoint, UnitId>,
    dummies: Vec<GridPoint>,
    #[serde(skip)]
    fingerprint: u64,
}

impl PartialEq for Placement {
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions && self.dummies == other.dummies
    }
}

impl Eq for Placement {}

impl Placement {
    /// Creates a placement from one position per unit (index = unit id).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::DuplicateCell`] when two units share a cell.
    pub fn from_positions(positions: Vec<GridPoint>) -> Result<Self, LayoutError> {
        let mut occupancy = HashMap::with_capacity(positions.len());
        let mut fingerprint = 0u64;
        for (i, &p) in positions.iter().enumerate() {
            if occupancy.insert(p, UnitId::new(i as u32)).is_some() {
                return Err(LayoutError::DuplicateCell { cell: p });
            }
            fingerprint ^= cell_hash(u64::from(i as u32), p);
        }
        Ok(Placement { positions, occupancy, dummies: Vec::new(), fingerprint })
    }

    /// A stable 64-bit Zobrist hash of the full placement state (unit
    /// positions *and* dummy cells), maintained incrementally by every
    /// mutator in `O(cells touched)`.
    ///
    /// Two placements of the same circuit on the same grid have equal
    /// fingerprints iff every unit sits on the same cell and the dummy
    /// *sets* coincide (dummy order is irrelevant — it has no physical
    /// meaning). The hash is order-independent by construction, so the
    /// path taken to reach a placement never matters. Collisions between
    /// distinct placements are possible but need ≈ 2³² states to become
    /// likely (birthday bound on 64 bits).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of placed units.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the placement holds no units.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The cell of a unit.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range for this placement.
    #[inline]
    pub fn position(&self, unit: UnitId) -> GridPoint {
        self.positions[unit.index()]
    }

    /// All positions, indexed by unit id.
    pub fn positions(&self) -> &[GridPoint] {
        &self.positions
    }

    /// The unit occupying `cell`, if any.
    #[inline]
    pub fn unit_at(&self, cell: GridPoint) -> Option<UnitId> {
        self.occupancy.get(&cell).copied()
    }

    /// Whether `cell` is free of units *and* dummies.
    #[inline]
    pub fn is_vacant(&self, cell: GridPoint) -> bool {
        !self.occupancy.contains_key(&cell) && !self.dummies.contains(&cell)
    }

    /// Moves `unit` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Occupied`] when the target holds another unit
    /// or a dummy. Moving a unit onto its own cell is a no-op `Ok`.
    pub fn move_unit(&mut self, unit: UnitId, to: GridPoint) -> Result<(), LayoutError> {
        let from = self.position(unit);
        if from == to {
            return Ok(());
        }
        if let Some(&other) = self.occupancy.get(&to) {
            return Err(LayoutError::Occupied { cell: to, by: Some(other) });
        }
        if self.dummies.contains(&to) {
            return Err(LayoutError::Occupied { cell: to, by: None });
        }
        self.occupancy.remove(&from);
        self.occupancy.insert(to, unit);
        self.positions[unit.index()] = to;
        let token = u64::from(unit.index() as u32);
        self.fingerprint ^= cell_hash(token, from) ^ cell_hash(token, to);
        Ok(())
    }

    /// Translates every unit in `units` by `(dv)`. All-or-nothing: either
    /// every move succeeds or the placement is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Occupied`] when any target cell is occupied by
    /// a unit outside `units` or by a dummy.
    pub fn translate_units(
        &mut self,
        units: &[UnitId],
        dv: breaksym_geometry::GridVector,
    ) -> Result<(), LayoutError> {
        let moving: std::collections::HashSet<UnitId> = units.iter().copied().collect();
        for &u in units {
            let target = self.position(u) + dv;
            if let Some(other) = self.unit_at(target) {
                if !moving.contains(&other) {
                    return Err(LayoutError::Occupied { cell: target, by: Some(other) });
                }
            }
            if self.dummies.contains(&target) {
                return Err(LayoutError::Occupied { cell: target, by: None });
            }
        }
        for &u in units {
            self.occupancy.remove(&self.positions[u.index()]);
        }
        for &u in units {
            let from = self.positions[u.index()];
            let target = from + dv;
            self.positions[u.index()] = target;
            self.occupancy.insert(target, u);
            let token = u64::from(u.index() as u32);
            self.fingerprint ^= cell_hash(token, from) ^ cell_hash(token, target);
        }
        Ok(())
    }

    /// Swaps the cells of two units.
    pub fn swap_units(&mut self, a: UnitId, b: UnitId) {
        if a == b {
            return;
        }
        let pa = self.position(a);
        let pb = self.position(b);
        self.positions[a.index()] = pb;
        self.positions[b.index()] = pa;
        self.occupancy.insert(pb, a);
        self.occupancy.insert(pa, b);
        let (ta, tb) = (u64::from(a.index() as u32), u64::from(b.index() as u32));
        self.fingerprint ^=
            cell_hash(ta, pa) ^ cell_hash(ta, pb) ^ cell_hash(tb, pb) ^ cell_hash(tb, pa);
    }

    /// Replaces the dummy fill cells.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Occupied`] if a dummy lands on a unit, or
    /// [`LayoutError::DuplicateCell`] if two dummies coincide.
    pub fn set_dummies(&mut self, dummies: Vec<GridPoint>) -> Result<(), LayoutError> {
        let mut seen = std::collections::HashSet::with_capacity(dummies.len());
        for &d in &dummies {
            if let Some(u) = self.unit_at(d) {
                return Err(LayoutError::Occupied { cell: d, by: Some(u) });
            }
            if !seen.insert(d) {
                return Err(LayoutError::DuplicateCell { cell: d });
            }
        }
        for &d in &self.dummies {
            self.fingerprint ^= cell_hash(DUMMY_TOKEN, d);
        }
        for &d in &dummies {
            self.fingerprint ^= cell_hash(DUMMY_TOKEN, d);
        }
        self.dummies = dummies;
        Ok(())
    }

    /// The dummy fill cells.
    pub fn dummies(&self) -> &[GridPoint] {
        &self.dummies
    }

    /// Bounding box of all units **and** dummies (silicon actually used).
    ///
    /// Returns `None` for an empty placement.
    pub fn bounding_box(&self) -> Option<GridRect> {
        GridRect::bounding(self.positions.iter().chain(self.dummies.iter()).copied())
    }

    /// Bounding box of a subset of units.
    pub fn bounding_box_of(&self, units: &[UnitId]) -> Option<GridRect> {
        GridRect::bounding(units.iter().map(|&u| self.position(u)))
    }

    /// Centroid of a subset of units in continuous cell coordinates.
    ///
    /// Returns `None` for an empty subset.
    pub fn centroid_of(&self, units: &[UnitId]) -> Option<(f64, f64)> {
        if units.is_empty() {
            return None;
        }
        let (mut sx, mut sy) = (0.0, 0.0);
        for &u in units {
            let p = self.position(u);
            sx += f64::from(p.x);
            sy += f64::from(p.y);
        }
        let n = units.len() as f64;
        Some((sx / n, sy / n))
    }

    /// Rebuilds the reverse occupancy index and the fingerprint, which
    /// serde skips. [`LayoutEnv::set_placement`](crate::LayoutEnv::set_placement)
    /// calls it on every placement it installs; call it directly only to
    /// query a deserialised placement outside an environment.
    pub fn rebuild_index(&mut self) {
        self.occupancy = self
            .positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, UnitId::new(i as u32)))
            .collect();
        let mut fingerprint = 0u64;
        for (i, &p) in self.positions.iter().enumerate() {
            fingerprint ^= cell_hash(u64::from(i as u32), p);
        }
        for &d in &self.dummies {
            fingerprint ^= cell_hash(DUMMY_TOKEN, d);
        }
        self.fingerprint = fingerprint;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_geometry::GridVector;
    use breaksym_testkit::check_cases;
    use rand::Rng;

    fn three_in_a_row() -> Placement {
        Placement::from_positions(vec![
            GridPoint::new(0, 0),
            GridPoint::new(1, 0),
            GridPoint::new(2, 0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_rejects_duplicates() {
        let err = Placement::from_positions(vec![GridPoint::ORIGIN, GridPoint::ORIGIN]);
        assert!(matches!(err, Err(LayoutError::DuplicateCell { .. })));
    }

    #[test]
    fn forward_and_reverse_maps_agree() {
        let p = three_in_a_row();
        for i in 0..3u32 {
            let u = UnitId::new(i);
            assert_eq!(p.unit_at(p.position(u)), Some(u));
        }
        assert_eq!(p.unit_at(GridPoint::new(9, 9)), None);
        assert!(p.is_vacant(GridPoint::new(0, 1)));
        assert!(!p.is_vacant(GridPoint::new(1, 0)));
    }

    #[test]
    fn move_unit_updates_both_maps() {
        let mut p = three_in_a_row();
        let u0 = UnitId::new(0);
        p.move_unit(u0, GridPoint::new(0, 1)).unwrap();
        assert_eq!(p.position(u0), GridPoint::new(0, 1));
        assert_eq!(p.unit_at(GridPoint::new(0, 1)), Some(u0));
        assert_eq!(p.unit_at(GridPoint::new(0, 0)), None);
        // Moving onto another unit fails and changes nothing.
        let err = p.move_unit(u0, GridPoint::new(1, 0));
        assert!(matches!(err, Err(LayoutError::Occupied { .. })));
        assert_eq!(p.position(u0), GridPoint::new(0, 1));
        // No-op move succeeds.
        p.move_unit(u0, GridPoint::new(0, 1)).unwrap();
    }

    #[test]
    fn translate_units_is_atomic_and_allows_internal_overlap() {
        let mut p = three_in_a_row();
        let all = [UnitId::new(0), UnitId::new(1), UnitId::new(2)];
        // Shifting right by 1 overlaps internally (0→1, 1→2) but is legal.
        p.translate_units(&all, GridVector::new(1, 0)).unwrap();
        assert_eq!(p.position(UnitId::new(0)), GridPoint::new(1, 0));
        assert_eq!(p.position(UnitId::new(2)), GridPoint::new(3, 0));
        // A blocked translation leaves everything unchanged.
        let mut q = three_in_a_row();
        let pair = [UnitId::new(0), UnitId::new(1)];
        let err = q.translate_units(&pair, GridVector::new(1, 0));
        assert!(matches!(err, Err(LayoutError::Occupied { .. })));
        assert_eq!(q, three_in_a_row());
    }

    #[test]
    fn swap_units_exchanges_cells() {
        let mut p = three_in_a_row();
        p.swap_units(UnitId::new(0), UnitId::new(2));
        assert_eq!(p.position(UnitId::new(0)), GridPoint::new(2, 0));
        assert_eq!(p.position(UnitId::new(2)), GridPoint::new(0, 0));
        assert_eq!(p.unit_at(GridPoint::new(0, 0)), Some(UnitId::new(2)));
        p.swap_units(UnitId::new(1), UnitId::new(1)); // self-swap is a no-op
        assert_eq!(p.position(UnitId::new(1)), GridPoint::new(1, 0));
    }

    #[test]
    fn dummies_block_cells_and_extend_bbox() {
        let mut p = three_in_a_row();
        p.set_dummies(vec![GridPoint::new(3, 0), GridPoint::new(0, 2)]).unwrap();
        assert!(!p.is_vacant(GridPoint::new(3, 0)));
        let err = p.move_unit(UnitId::new(0), GridPoint::new(3, 0));
        assert!(matches!(err, Err(LayoutError::Occupied { by: None, .. })));
        let bb = p.bounding_box().unwrap();
        assert_eq!(bb.height(), 3); // dummy at y=2 stretches the box
                                    // Dummy on a unit is rejected.
        assert!(p.set_dummies(vec![GridPoint::new(1, 0)]).is_err());
        // Duplicate dummies rejected.
        assert!(p.set_dummies(vec![GridPoint::new(5, 5), GridPoint::new(5, 5)]).is_err());
    }

    #[test]
    fn centroid_and_bbox_of_subset() {
        let p = three_in_a_row();
        let subset = [UnitId::new(0), UnitId::new(2)];
        assert_eq!(p.centroid_of(&subset), Some((1.0, 0.0)));
        let bb = p.bounding_box_of(&subset).unwrap();
        assert_eq!(bb.width(), 3);
        assert_eq!(p.centroid_of(&[]), None);
    }

    #[test]
    fn rebuild_index_restores_reverse_map() {
        let mut p = three_in_a_row();
        p.occupancy.clear();
        p.fingerprint = 0;
        p.rebuild_index();
        assert_eq!(p.unit_at(GridPoint::new(2, 0)), Some(UnitId::new(2)));
        assert_eq!(p.fingerprint(), three_in_a_row().fingerprint());
    }

    #[test]
    fn fingerprint_is_path_independent_and_reversible() {
        let base = three_in_a_row();
        let fp0 = base.fingerprint();
        assert_ne!(fp0, 0, "three occupied cells should not hash to zero");

        // Move away and back restores the fingerprint exactly.
        let mut p = base.clone();
        p.move_unit(UnitId::new(0), GridPoint::new(0, 3)).unwrap();
        assert_ne!(p.fingerprint(), fp0);
        p.move_unit(UnitId::new(0), GridPoint::new(0, 0)).unwrap();
        assert_eq!(p.fingerprint(), fp0);

        // Two different move sequences reaching the same placement agree.
        let mut a = base.clone();
        a.move_unit(UnitId::new(0), GridPoint::new(0, 1)).unwrap();
        a.move_unit(UnitId::new(2), GridPoint::new(2, 1)).unwrap();
        let mut b = base.clone();
        b.move_unit(UnitId::new(2), GridPoint::new(5, 5)).unwrap();
        b.move_unit(UnitId::new(0), GridPoint::new(0, 1)).unwrap();
        b.move_unit(UnitId::new(2), GridPoint::new(2, 1)).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Identity matters: unit 0 on (1,0) + unit 1 on (0,0) is a
        // different placement from the base even though the same set of
        // cells is occupied.
        let mut s = base.clone();
        s.swap_units(UnitId::new(0), UnitId::new(1));
        assert_ne!(s.fingerprint(), fp0);
        s.swap_units(UnitId::new(0), UnitId::new(1));
        assert_eq!(s.fingerprint(), fp0);
    }

    #[test]
    fn fingerprint_tracks_translations_and_dummies() {
        let base = three_in_a_row();
        let all = [UnitId::new(0), UnitId::new(1), UnitId::new(2)];

        let mut p = base.clone();
        p.translate_units(&all, GridVector::new(0, 2)).unwrap();
        let mut q = base.clone();
        for i in 0..3u32 {
            q.move_unit(UnitId::new(i), GridPoint::new(i as i32, 2)).unwrap();
        }
        assert_eq!(p.fingerprint(), q.fingerprint());

        // A failed (blocked) translation leaves the fingerprint untouched.
        let mut r = base.clone();
        let pair = [UnitId::new(0), UnitId::new(1)];
        assert!(r.translate_units(&pair, GridVector::new(1, 0)).is_err());
        assert_eq!(r.fingerprint(), base.fingerprint());

        // Dummies participate: adding changes the hash, clearing restores,
        // and dummy order is irrelevant.
        let d1 = GridPoint::new(4, 0);
        let d2 = GridPoint::new(4, 1);
        let mut w = base.clone();
        w.set_dummies(vec![d1, d2]).unwrap();
        assert_ne!(w.fingerprint(), base.fingerprint());
        let mut v = base.clone();
        v.set_dummies(vec![d2, d1]).unwrap();
        assert_eq!(w.fingerprint(), v.fingerprint());
        w.set_dummies(Vec::new()).unwrap();
        assert_eq!(w.fingerprint(), base.fingerprint());
    }

    #[test]
    fn prop_random_moves_keep_maps_consistent() {
        check_cases(256, |rng| {
            let mut p =
                Placement::from_positions((0..5).map(|i| GridPoint::new(i, 0)).collect()).unwrap();
            for _ in 0..rng.gen_range(1..60) {
                let u = rng.gen_range(0u32..5);
                let (x, y) = (rng.gen_range(-3i32..8), rng.gen_range(-3i32..8));
                let _ = p.move_unit(UnitId::new(u), GridPoint::new(x, y));
                // Invariant: forward and reverse maps agree and are bijective.
                let mut seen = std::collections::HashSet::new();
                for i in 0..5u32 {
                    let unit = UnitId::new(i);
                    let pos = p.position(unit);
                    assert!(seen.insert(pos), "two units on {pos}");
                    assert_eq!(p.unit_at(pos), Some(unit));
                }
            }
        });
    }
}
