//! Checkpoint support: a built hierarchy is a [`Checkpointable`] phase
//! output, so an index phase interrupted *after* construction never has
//! to rebuild — the checkpoint holds a clone of the tree, ropes
//! included.
//!
//! The JSON encoding below feeds phase hashes and the saved checkpoint
//! file. It writes the core arrays only; the ropes are derived from
//! them. Bounds are stored as raw `f32` bit patterns —
//! exact for every value, including the infinities of a degenerate
//! empty scene box.

use fdbscan_device::json::Json;
use fdbscan_device::snapshot::{f32s_to_json, u32s_to_json};
use fdbscan_device::Checkpointable;
use fdbscan_geom::Aabb;

use crate::Bvh;

fn aabbs_to_json<const D: usize>(boxes: &[Aabb<D>]) -> Json {
    let mut flat = Vec::with_capacity(boxes.len() * 2 * D);
    for b in boxes {
        flat.extend_from_slice(&b.min.coords);
        flat.extend_from_slice(&b.max.coords);
    }
    f32s_to_json(&flat)
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
}
