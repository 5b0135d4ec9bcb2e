//! Checkpoint support: a built hierarchy round-trips through
//! [`fdbscan_device::snapshot`] JSON, so an index phase interrupted
//! *after* construction never has to rebuild.
//!
//! Bounds are stored as raw `f32` bit patterns — exact for every value,
//! including the infinities of a degenerate empty scene box.

use fdbscan_device::json::Json;
use fdbscan_device::snapshot::{
    f32s_to_json, json_to_f32s, json_to_u32s, req_field, req_u64, u32s_to_json,
};
use fdbscan_device::{Checkpointable, SnapshotError};
use fdbscan_geom::{Aabb, Point};

use crate::node::NodeRef;
use crate::Bvh;

fn aabbs_to_json<const D: usize>(boxes: &[Aabb<D>]) -> Json {
    let mut flat = Vec::with_capacity(boxes.len() * 2 * D);
    for b in boxes {
        flat.extend_from_slice(&b.min.coords);
        flat.extend_from_slice(&b.max.coords);
    }
    f32s_to_json(&flat)
}

fn json_to_aabbs<const D: usize>(value: &Json) -> Result<Vec<Aabb<D>>, SnapshotError> {
    let flat = json_to_f32s(value)?;
    if flat.len() % (2 * D) != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "bounds array of {} floats is not a multiple of {}",
            flat.len(),
            2 * D
        )));
    }
    Ok(flat
        .chunks_exact(2 * D)
        .map(|chunk| {
            let mut min = [0.0f32; D];
            let mut max = [0.0f32; D];
            min.copy_from_slice(&chunk[..D]);
            max.copy_from_slice(&chunk[D..]);
            Aabb { min: Point { coords: min }, max: Point { coords: max } }
        })
        .collect())
}

impl<const D: usize> Checkpointable for Bvh<D> {
    const KIND: &'static str = "bvh.tree";

    fn to_snapshot(&self) -> Json {
        let children: Vec<u32> =
            self.children.iter().flat_map(|pair| pair.iter().map(|r| r.0)).collect();
        let ranges: Vec<u32> = self.ranges.iter().flatten().copied().collect();
        Json::obj([
            ("dims", Json::U64(D as u64)),
            ("internal_bounds", aabbs_to_json(&self.internal_bounds)),
            ("children", u32s_to_json(&children)),
            ("ranges", u32s_to_json(&ranges)),
            ("leaf_bounds", aabbs_to_json(&self.leaf_bounds)),
            ("leaf_payload", u32s_to_json(&self.leaf_payload)),
            ("positions", u32s_to_json(&self.positions)),
            ("scene", aabbs_to_json(std::slice::from_ref(&self.scene))),
        ])
    }

    fn from_snapshot(snapshot: &Json) -> Result<Self, SnapshotError> {
        let dims = req_u64(snapshot, "dims")?;
        if dims != D as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot is {dims}-dimensional, expected {D}"
            )));
        }
        let internal_bounds = json_to_aabbs::<D>(req_field(snapshot, "internal_bounds")?)?;
        let children_flat = json_to_u32s(req_field(snapshot, "children")?)?;
        let ranges_flat = json_to_u32s(req_field(snapshot, "ranges")?)?;
        let leaf_bounds = json_to_aabbs::<D>(req_field(snapshot, "leaf_bounds")?)?;
        let leaf_payload = json_to_u32s(req_field(snapshot, "leaf_payload")?)?;
        let positions = json_to_u32s(req_field(snapshot, "positions")?)?;
        let scene = json_to_aabbs::<D>(req_field(snapshot, "scene")?)?;
        let n = leaf_bounds.len();
        let internal = n.saturating_sub(1);
        if internal_bounds.len() != internal
            || children_flat.len() != 2 * internal
            || ranges_flat.len() != 2 * internal
            || leaf_payload.len() != n
            || positions.len() != n
            || scene.len() != 1
        {
            return Err(SnapshotError::Corrupt(
                "bvh snapshot arrays have inconsistent lengths".to_string(),
            ));
        }
        let mut bvh = Bvh {
            internal_bounds,
            children: children_flat
                .chunks_exact(2)
                .map(|c| [NodeRef(c[0]), NodeRef(c[1])])
                .collect(),
            ranges: ranges_flat.chunks_exact(2).map(|c| [c[0], c[1]]).collect(),
            leaf_bounds,
            leaf_payload,
            positions,
            internal_skip: Vec::new(),
            leaf_skip: Vec::new(),
            leaf_lo: fdbscan_geom::SoaPoints::new(),
            leaf_hi: fdbscan_geom::SoaPoints::new(),
            scene: scene[0],
        };
        // Ropes and SoA corners are derived data: not serialized (the
        // snapshot format predates them), rebuilt on restore instead.
        bvh.derive_traversal();
        Ok(bvh)
    }
}

#[cfg(test)]
mod tests {
    use fdbscan_device::{Checkpointable, Device};
    use fdbscan_geom::{Aabb, Point2};

    use crate::Bvh;

    fn grid_points(n: usize) -> Vec<Aabb<2>> {
        (0..n)
            .map(|i| {
                let p = Point2::new([(i % 13) as f32 * 0.7, (i / 13) as f32 * 1.3]);
                Aabb::from_point(p)
            })
            .collect()
    }

    #[test]
    fn snapshot_round_trips_full_state() {
        let device = Device::with_defaults();
        let bvh = Bvh::build(&device, &grid_points(137));
        let restored = Bvh::<2>::from_snapshot(&bvh.to_snapshot()).unwrap();
        // Full-state equality via the canonical serialization.
        assert_eq!(restored.to_snapshot(), bvh.to_snapshot());
        // And the restored tree answers queries identically.
        for probe in [[0.0, 0.0], [4.5, 6.5], [100.0, -3.0]] {
            let q = Point2::new(probe);
            let mut a = bvh.collect_in_radius(&q, 2.0);
            let mut b = restored.collect_in_radius(&q, 2.0);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn snapshot_rejects_wrong_dimension_and_corruption() {
        let device = Device::with_defaults();
        let bvh = Bvh::build(&device, &grid_points(8));
        let snap = bvh.to_snapshot();
        assert!(Bvh::<3>::from_snapshot(&snap).is_err(), "dimension mismatch must fail");
        let mut truncated = snap.clone();
        if let fdbscan_device::json::Json::Obj(map) = &mut truncated {
            map.insert("positions".to_string(), fdbscan_device::json::Json::Arr(vec![]));
        }
        assert!(Bvh::<2>::from_snapshot(&truncated).is_err(), "length mismatch must fail");
    }

    #[test]
    fn tiny_trees_round_trip() {
        let device = Device::with_defaults();
        for n in [1usize, 2, 3] {
            let bvh = Bvh::build(&device, &grid_points(n));
            let restored = Bvh::<2>::from_snapshot(&bvh.to_snapshot()).unwrap();
            assert_eq!(restored.to_snapshot(), bvh.to_snapshot(), "n = {n}");
        }
    }
}
