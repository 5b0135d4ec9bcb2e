//! Fully parallel LBVH construction (Karras 2012 topology, built
//! bottom-up in a single pass after Apetrei 2014).
//!
//! Construction runs as three device submissions, mirroring a fused GPU
//! pipeline:
//!
//! 1. **`bvh.morton_bounds`** — reduce the scene bounds (the only input
//!    the Morton keygen needs; codes themselves are never materialised
//!    unsorted),
//! 2. **`sort.pipeline`** — one batched radix-sort launch over virtual
//!    `(morton_code(i), i)` pairs. The final scatter's fused epilogue
//!    writes the sorted codes, the permuted leaf bounds, the payload and
//!    the inverse permutation directly — the old `bvh.morton` and
//!    `bvh.permute` kernels are folded away,
//! 3. **`bvh.build_bottom_up`** — one kernel, one thread per leaf, that
//!    emits the internal topology, merges AABBs, *and* derives the rope
//!    skip links in the same climb. Threads start at their leaf and walk
//!    toward the root; at each completed node the thread deposits its
//!    subtree at the merge boundary and dies unless it is the second to
//!    arrive (per-boundary arrival counters), in which case it creates
//!    the parent and keeps climbing. Exactly one thread reaches the root.
//!
//! The parent of a completed range `[F, L]` merges toward the outer
//! neighbor with the longer common prefix (Apetrei's observation); with
//! the `code ## index` augmentation all codes are distinct, which makes
//! the choice strict and the resulting tree exactly the Karras radix
//! tree — node indices are computed closed-form from the range ends, so
//! `children`/`ranges` keep their Karras layout (root at internal 0).
//!
//! Ropes fall out of the same pass: when a parent with children `(l, r)`
//! is created, every node on the right spine of `l`'s subtree (including
//! `l`) has its subtree end at the new split, so its rope is exactly
//! `r`; the creating thread walks that spine and assigns it. The root's
//! creator terminates the root's right spine with [`NodeRef::NONE`].
//! Every node lies on exactly one such spine, so each rope is written
//! once and the aggregate walk cost is `O(n)`.
//!
//! Ties between equal Morton codes are broken with the primitive index
//! (the standard `code ## index` augmentation), so duplicate positions —
//! common in clustering data — still produce a balanced tree.
//!
//! Scratch (sorted codes, arrival flags, rendezvous slots) comes from a
//! [`BufferArena`], so repeated builds on one device reuse their
//! allocations instead of re-reserving.

use std::sync::atomic::Ordering;

use fdbscan_device::shared::{as_atomic_u32, SharedMut};
use fdbscan_device::{BufferArena, Device, DeviceError};
use fdbscan_geom::{
    morton::{bits_per_axis, morton_code},
    Aabb, SoaPoints,
};

use crate::node::NodeRef;
use crate::Bvh;

impl<const D: usize> Bvh<D> {
    /// Builds a hierarchy over `bounds`; the payload of leaf `k` is the
    /// caller index `k` (recoverable with [`Bvh::leaf_payload`]).
    ///
    /// Convenience wrapper over [`Bvh::build_in`] using the device's own
    /// arena.
    ///
    /// # Panics
    /// Panics if scratch allocation exceeds the device memory budget or
    /// a kernel fails; budgeted or fault-injected callers should use
    /// [`Bvh::build_in`] and handle the error.
    pub fn build(device: &Device, bounds: &[Aabb<D>]) -> Self {
        match Self::build_in(device, device.arena(), bounds) {
            Ok(bvh) => bvh,
            Err(error) => panic!("BVH build failed: {error}"),
        }
    }

    /// Builds a hierarchy over `bounds` with construction scratch checked
    /// out of `arena`.
    ///
    /// Runs entirely as device kernels — a scene-bounds reduction, one
    /// batched sort launch, and one bottom-up build kernel. `bounds` may
    /// be empty.
    ///
    /// # Errors
    /// Propagates [`DeviceError`] from scratch allocation (budget
    /// exhaustion or injected faults) and from the device launches.
    pub fn build_in(
        device: &Device,
        arena: &BufferArena,
        bounds: &[Aabb<D>],
    ) -> Result<Self, DeviceError> {
        let n = bounds.len();
        if n == 0 {
            return Ok(Self {
                internal_bounds: Vec::new(),
                children: Vec::new(),
                ranges: Vec::new(),
                leaf_bounds: Vec::new(),
                leaf_payload: Vec::new(),
                positions: Vec::new(),
                internal_skip: Vec::new(),
                leaf_skip: Vec::new(),
                leaf_lo: SoaPoints::new(),
                leaf_hi: SoaPoints::new(),
                scene: Aabb::empty(),
            });
        }
        assert!(n < (1usize << 31), "primitive count exceeds NodeRef range");

        // 1. Scene bounds (parallel merge reduction) — the only
        //    precomputation the Morton keygen needs.
        let scene = device.try_reduce_named(
            "bvh.morton_bounds",
            n,
            Aabb::empty(),
            |i| bounds[i],
            |a, b| a.merged(&b),
        )?;

        // 2. Sort primitives by code (stable: ties keep index order).
        //    Codes are generated on the fly inside the sort; its fused
        //    scatter epilogue writes every per-leaf array in sorted
        //    order, replacing the old morton + permute kernels. The key
        //    width is known analytically, so no max-key reduction runs.
        let mut codes = arena.take::<u64>(n)?;
        let mut payload = vec![0u32; n];
        let mut positions = vec![0u32; n];
        let mut leaf_bounds = vec![Aabb::<D>::empty(); n];
        {
            let codes_view = SharedMut::new(&mut codes[..]);
            let payload_view = SharedMut::new(&mut payload);
            let positions_view = SharedMut::new(&mut positions);
            let leaf_view = SharedMut::new(&mut leaf_bounds);
            let scene_ref = &scene;
            let key_bits = (bits_per_axis(D) * D as u32).max(1);
            fdbscan_psort::sort_by_key_fused(
                device,
                arena,
                n,
                key_bits,
                |i| morton_code(&bounds[i].center(), scene_ref),
                |pos, code, id| {
                    // SAFETY: sorted positions are unique (emit contract)
                    // and `id` is a permutation, so every slot has
                    // exactly one writer.
                    unsafe {
                        codes_view.write(pos, code);
                        payload_view.write(pos, id);
                        positions_view.write(id as usize, pos as u32);
                        leaf_view.write(pos, bounds[id as usize]);
                    }
                },
            )?;
        }

        if n == 1 {
            let leaf_lo = SoaPoints::from_points(&[leaf_bounds[0].min]);
            let leaf_hi = SoaPoints::from_points(&[leaf_bounds[0].max]);
            return Ok(Self {
                internal_bounds: Vec::new(),
                children: Vec::new(),
                ranges: Vec::new(),
                leaf_bounds,
                leaf_payload: payload,
                positions,
                internal_skip: Vec::new(),
                leaf_skip: vec![NodeRef::NONE],
                leaf_lo,
                leaf_hi,
                scene,
            });
        }

        // 3. Single bottom-up pass: topology + bounds + ropes + SoA leaf
        //    corners, one thread per leaf.
        let internal_count = n - 1;
        let mut children = vec![[NodeRef::internal(0); 2]; internal_count];
        let mut ranges = vec![[0u32; 2]; internal_count];
        let mut internal_bounds = vec![Aabb::<D>::empty(); internal_count];
        let mut internal_skip = vec![NodeRef::NONE; internal_count];
        let mut leaf_skip = vec![NodeRef::NONE; n];
        let mut lo_flat = vec![0.0f32; D * n];
        let mut hi_flat = vec![0.0f32; D * n];

        // Rendezvous state, one slot pair per leaf boundary b (between
        // sorted leaves b and b+1): the completed subtree ending at b
        // deposits in slot 2b, the one starting at b+1 in slot 2b+1.
        // `take` hands the flags back zeroed.
        let mut flags_buf = arena.take::<u32>(internal_count)?;
        let mut pend_node = arena.take::<u32>(2 * internal_count)?;
        let mut pend_far = arena.take::<u32>(2 * internal_count)?;
        let mut pend_bounds = arena.take::<Aabb<D>>(2 * internal_count)?;
        {
            let flags = as_atomic_u32(&mut flags_buf[..]);
            let children_view = SharedMut::new(&mut children);
            let ranges_view = SharedMut::new(&mut ranges);
            let bounds_view = SharedMut::new(&mut internal_bounds);
            let iskip_view = SharedMut::new(&mut internal_skip);
            let lskip_view = SharedMut::new(&mut leaf_skip);
            let lo_view = SharedMut::new(&mut lo_flat);
            let hi_view = SharedMut::new(&mut hi_flat);
            let pnode_view = SharedMut::new(&mut pend_node[..]);
            let pfar_view = SharedMut::new(&mut pend_far[..]);
            let pbounds_view = SharedMut::new(&mut pend_bounds[..]);
            let codes_ref: &[u64] = &codes;
            let leaf_bounds_ref = &leaf_bounds;

            // Assigns `rope` to `from` and the whole right spine of its
            // subtree: each of those nodes' subtrees ends where `from`'s
            // does, so they share the rope. Reads of descendants'
            // children are ordered by the arrival-flag acquire chain.
            let assign_spine = |from: NodeRef, rope: NodeRef| {
                let mut x = from;
                loop {
                    // SAFETY: every node lies on exactly one assigned
                    // spine, so its rope slot has a single writer.
                    if x.is_leaf() {
                        unsafe { lskip_view.write(x.index() as usize, rope) };
                        return;
                    }
                    unsafe {
                        iskip_view.write(x.index() as usize, rope);
                        x = children_view.read(x.index() as usize)[1];
                    }
                }
            };

            device.try_launch_named("bvh.build_bottom_up", n, |leaf| {
                // Dimension-major leaf corners (SoA traversal lanes).
                let lb = leaf_bounds_ref[leaf];
                // SAFETY: each leaf owns its own SoA lane entries.
                unsafe {
                    for d in 0..D {
                        lo_view.write(d * n + leaf, lb.min[d]);
                        hi_view.write(d * n + leaf, lb.max[d]);
                    }
                }

                // Climb: `node` covers sorted leaves [first, last] and
                // `nb` is its merged bounds.
                let mut node = NodeRef::leaf(leaf as u32);
                let mut first = leaf;
                let mut last = leaf;
                let mut nb = lb;
                loop {
                    if first == 0 && last == n - 1 {
                        // `node` is the root: nothing follows its
                        // subtree, so its right spine ropes to NONE.
                        assign_spine(node, NodeRef::NONE);
                        return;
                    }
                    // Merge toward the outer neighbor with the longer
                    // common prefix. Augmented codes are distinct, so
                    // the comparison is strict except at the root
                    // (handled above); `first == 0` forces the left
                    // branch, so `first - 1` cannot underflow.
                    let dl = delta(codes_ref, first as i64, first as i64 - 1);
                    let dr = delta(codes_ref, last as i64, last as i64 + 1);
                    let (boundary, is_left) =
                        if dr > dl { (last, true) } else { (first - 1, false) };
                    // SAFETY: exactly one subtree ends at this boundary
                    // and one starts right after it; each owns its slot.
                    unsafe {
                        let slot = 2 * boundary + usize::from(!is_left);
                        pnode_view.write(slot, node.0);
                        pfar_view.write(slot, if is_left { first as u32 } else { last as u32 });
                        pbounds_view.write(slot, nb);
                    }
                    // AcqRel: releases our slot writes to the later
                    // arrival and acquires the earlier one's (plus,
                    // transitively, its whole subtree).
                    if flags[boundary].fetch_add(1, Ordering::AcqRel) == 0 {
                        return; // first arrival: the sibling builds the parent
                    }
                    // SAFETY: the sibling's deposit happened-before our
                    // fetch_add observed its arrival.
                    let (sib_node, sib_far, sib_bounds) = unsafe {
                        let slot = 2 * boundary + usize::from(is_left);
                        (
                            NodeRef(pnode_view.read(slot)),
                            pfar_view.read(slot) as usize,
                            pbounds_view.read(slot),
                        )
                    };
                    let (nf, nl, lchild, rchild) = if is_left {
                        (first, sib_far, node, sib_node)
                    } else {
                        (sib_far, last, sib_node, node)
                    };
                    let merged = nb.merged(&sib_bounds);
                    // Karras index of [nf, nl]: the endpoint whose outer
                    // neighbor is less similar; the root is node 0.
                    let parent = if nf == 0 && nl == n - 1 {
                        0
                    } else if delta(codes_ref, nl as i64, nl as i64 + 1)
                        < delta(codes_ref, nf as i64, nf as i64 - 1)
                    {
                        nf
                    } else {
                        nl
                    };
                    // SAFETY: each internal node is created by exactly
                    // one thread (the second boundary arrival).
                    unsafe {
                        children_view.write(parent, [lchild, rchild]);
                        ranges_view.write(parent, [nf as u32, nl as u32]);
                        bounds_view.write(parent, merged);
                    }
                    // The left child's right spine ends at the new
                    // split, so it ropes to the right child.
                    assign_spine(lchild, rchild);
                    node = NodeRef::internal(parent as u32);
                    first = nf;
                    last = nl;
                    nb = merged;
                }
            })?;
        }

        Ok(Self {
            internal_bounds,
            children,
            ranges,
            leaf_bounds,
            leaf_payload: payload,
            positions,
            internal_skip,
            leaf_skip,
            leaf_lo: SoaPoints::from_dim_major(lo_flat, n),
            leaf_hi: SoaPoints::from_dim_major(hi_flat, n),
            scene,
        })
    }

    /// Recomputes the derived traversal structures — rope skip links and
    /// the dimension-major leaf corners — from the core arrays.
    ///
    /// [`Bvh::build_in`] fills the same data inside the
    /// `bvh.build_bottom_up` kernel; this host-side twin serves snapshot
    /// restore, where no device is in scope. Parent links are not
    /// serialized (they are build scaffolding) and are rederived from
    /// `children` here.
    pub(crate) fn derive_traversal(&mut self) {
        let n = self.len();
        let mins: Vec<_> = self.leaf_bounds.iter().map(|b| b.min).collect();
        let maxs: Vec<_> = self.leaf_bounds.iter().map(|b| b.max).collect();
        self.leaf_lo = SoaPoints::from_points(&mins);
        self.leaf_hi = SoaPoints::from_points(&maxs);
        if n < 2 {
            self.internal_skip = Vec::new();
            self.leaf_skip = vec![NodeRef::NONE; n];
            return;
        }
        let mut internal_parent = vec![0u32; n - 1];
        let mut leaf_parent = vec![0u32; n];
        for (i, pair) in self.children.iter().enumerate() {
            for child in pair {
                if child.is_leaf() {
                    leaf_parent[child.index() as usize] = i as u32;
                } else {
                    internal_parent[child.index() as usize] = i as u32;
                }
            }
        }
        self.internal_skip = (0..n - 1)
            .map(|i| {
                skip_link(
                    &self.children,
                    &internal_parent,
                    &leaf_parent,
                    NodeRef::internal(i as u32),
                )
            })
            .collect();
        self.leaf_skip = (0..n)
            .map(|pos| {
                skip_link(&self.children, &internal_parent, &leaf_parent, NodeRef::leaf(pos as u32))
            })
            .collect();
    }
}

/// The rope of `node`: the next node in preorder after `node`'s subtree,
/// or [`NodeRef::NONE`] when the subtree is the tail of the preorder.
///
/// Walks up while `node` is a right child; the first ancestor that is a
/// left child yields its right sibling. Every step strictly decreases the
/// subtree depth, so the walk is bounded by the tree depth.
fn skip_link(
    children: &[[NodeRef; 2]],
    internal_parent: &[u32],
    leaf_parent: &[u32],
    node: NodeRef,
) -> NodeRef {
    let mut cur = node;
    loop {
        if !cur.is_leaf() && cur.index() == 0 {
            return NodeRef::NONE; // root: nothing follows its subtree
        }
        let parent = if cur.is_leaf() {
            leaf_parent[cur.index() as usize]
        } else {
            internal_parent[cur.index() as usize]
        };
        let [left, right] = children[parent as usize];
        if cur == left {
            return right;
        }
        cur = NodeRef::internal(parent);
    }
}

/// Longest-common-prefix metric over augmented codes `code ## index`.
/// Out-of-range `j` yields -1 (strictly smaller than any real prefix).
#[inline]
fn delta(codes: &[u64], i: i64, j: i64) -> i64 {
    if j < 0 || j >= codes.len() as i64 {
        return -1;
    }
    let ci = codes[i as usize];
    let cj = codes[j as usize];
    if ci != cj {
        (ci ^ cj).leading_zeros() as i64
    } else {
        64 + ((i as u64) ^ (j as u64)).leading_zeros() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::DeviceConfig;
    use fdbscan_geom::Point;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn point_boxes(points: &[Point<2>]) -> Vec<Aabb<2>> {
        points.iter().map(|p| Aabb::from_point(*p)).collect()
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)]))
            .collect()
    }

    /// Walks the tree and checks every structural invariant.
    fn validate<const D: usize>(bvh: &Bvh<D>) {
        let n = bvh.len();
        if n < 2 {
            assert!(bvh.children.is_empty());
            return;
        }
        assert_eq!(bvh.children.len(), n - 1);
        assert_eq!(bvh.ranges.len(), n - 1);

        // Every leaf must be reachable exactly once; ranges must nest.
        let mut leaf_seen = vec![false; n];
        let mut stack = vec![NodeRef::internal(0)];
        while let Some(node) = stack.pop() {
            if node.is_leaf() {
                let pos = node.index() as usize;
                assert!(!leaf_seen[pos], "leaf {pos} reached twice");
                leaf_seen[pos] = true;
                continue;
            }
            let i = node.index() as usize;
            let [l, r] = bvh.children[i];
            let [first, last] = bvh.ranges[i];
            assert!(first < last, "internal node must cover >= 2 leaves");
            // Children bounds are contained in the parent bounds.
            let pb = &bvh.internal_bounds[i];
            for child in [l, r] {
                let cb = if child.is_leaf() {
                    &bvh.leaf_bounds[child.index() as usize]
                } else {
                    &bvh.internal_bounds[child.index() as usize]
                };
                assert_eq!(pb.merged(cb), *pb, "child bounds escape parent");
                // Child ranges are within the parent's.
                let (cf, cl) = if child.is_leaf() {
                    (child.index(), child.index())
                } else {
                    let [f, l2] = bvh.ranges[child.index() as usize];
                    (f, l2)
                };
                assert!(first <= cf && cl <= last, "child range escapes parent");
            }
            stack.push(l);
            stack.push(r);
        }
        assert!(leaf_seen.iter().all(|&s| s), "not all leaves reachable");

        // The payload must be a permutation with a correct inverse.
        let mut payload_sorted = bvh.leaf_payload.clone();
        payload_sorted.sort_unstable();
        assert!(payload_sorted.iter().enumerate().all(|(i, &p)| p == i as u32));
        for id in 0..n as u32 {
            assert_eq!(bvh.leaf_payload(bvh.leaf_pos_of(id)), id);
        }

        // Ropes: a full descent that always takes the left child and
        // follows leaf ropes must enumerate the exact preorder sequence.
        let mut preorder = Vec::new();
        let mut stack = vec![NodeRef::internal(0)];
        while let Some(node) = stack.pop() {
            preorder.push(node);
            if !node.is_leaf() {
                let [l, r] = bvh.children[node.index() as usize];
                stack.push(r);
                stack.push(l);
            }
        }
        let mut via_ropes = Vec::new();
        let mut node = NodeRef::internal(0);
        while node != NodeRef::NONE {
            via_ropes.push(node);
            node = if node.is_leaf() {
                bvh.leaf_skip[node.index() as usize]
            } else {
                bvh.children[node.index() as usize][0]
            };
        }
        assert_eq!(via_ropes, preorder, "rope walk diverges from preorder");

        // Every rope must land on the subtree starting right after the
        // node's covered leaf range (NONE only for range suffixes).
        let first_of = |r: NodeRef| {
            if r.is_leaf() {
                r.index()
            } else {
                bvh.ranges[r.index() as usize][0]
            }
        };
        for i in 0..(n - 1) {
            let last = bvh.ranges[i][1];
            match bvh.internal_skip[i] {
                NodeRef::NONE => assert_eq!(last as usize, n - 1),
                skip => assert_eq!(first_of(skip), last + 1),
            }
        }
        for pos in 0..n as u32 {
            match bvh.leaf_skip[pos as usize] {
                NodeRef::NONE => assert_eq!(pos as usize, n - 1),
                skip => assert_eq!(first_of(skip), pos + 1),
            }
        }

        // SoA leaf corners must mirror the AoS leaf bounds exactly.
        for (pos, b) in bvh.leaf_bounds.iter().enumerate() {
            for d in 0..D {
                assert_eq!(bvh.leaf_lo.coord(d, pos), b.min[d]);
                assert_eq!(bvh.leaf_hi.coord(d, pos), b.max[d]);
            }
        }
    }

    #[test]
    fn empty_build() {
        let device = Device::with_defaults();
        let bvh = Bvh::<2>::build(&device, &[]);
        assert!(bvh.is_empty());
        assert!(bvh.scene_bounds().is_empty());
    }

    #[test]
    fn single_leaf() {
        let device = Device::with_defaults();
        let bvh = Bvh::build(&device, &point_boxes(&[Point::new([1.0, 2.0])]));
        assert_eq!(bvh.len(), 1);
        assert_eq!(bvh.leaf_payload(0), 0);
        assert_eq!(bvh.leaf_pos_of(0), 0);
        validate(&bvh);
    }

    #[test]
    fn two_leaves() {
        let device = Device::with_defaults();
        let bvh =
            Bvh::build(&device, &point_boxes(&[Point::new([0.0, 0.0]), Point::new([5.0, 5.0])]));
        assert_eq!(bvh.len(), 2);
        validate(&bvh);
        // Root bounds must equal the scene.
        assert_eq!(bvh.internal_bounds[0], bvh.scene_bounds());
    }

    #[test]
    fn random_build_is_valid() {
        let device = Device::new(DeviceConfig::default().with_workers(3));
        for n in [3usize, 7, 64, 255, 1000, 4096] {
            let bvh = Bvh::build(&device, &point_boxes(&random_points(n, n as u64)));
            assert_eq!(bvh.len(), n);
            validate(&bvh);
        }
    }

    #[test]
    fn all_duplicate_points_build_balanced() {
        let device = Device::new(DeviceConfig::default().with_workers(3));
        let points = vec![Point::new([1.0, 1.0]); 1024];
        let bvh = Bvh::build(&device, &point_boxes(&points));
        validate(&bvh);
        // With the index tiebreak the tree over identical codes is a
        // radix tree over indices: depth must be logarithmic, not linear.
        let mut max_depth = 0usize;
        let mut stack = vec![(NodeRef::internal(0), 1usize)];
        while let Some((node, depth)) = stack.pop() {
            if node.is_leaf() {
                max_depth = max_depth.max(depth);
                continue;
            }
            let [l, r] = bvh.children[node.index() as usize];
            stack.push((l, depth + 1));
            stack.push((r, depth + 1));
        }
        assert!(max_depth <= 12, "depth {max_depth} too large for 1024 duplicates");
    }

    #[test]
    fn collinear_points() {
        let device = Device::with_defaults();
        let points: Vec<Point<2>> = (0..500).map(|i| Point::new([i as f32, 0.0])).collect();
        let bvh = Bvh::build(&device, &point_boxes(&points));
        validate(&bvh);
    }

    #[test]
    fn mixed_boxes_and_points() {
        let device = Device::with_defaults();
        let mut bounds = point_boxes(&random_points(100, 5));
        bounds.push(Aabb::from_corners(Point::new([-1.0, -1.0]), Point::new([1.0, 1.0])));
        bounds.push(Aabb::from_corners(Point::new([3.0, 3.0]), Point::new([4.0, 9.0])));
        let bvh = Bvh::build(&device, &bounds);
        validate(&bvh);
    }

    #[test]
    fn build_3d() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let mut rng = StdRng::seed_from_u64(9);
        let bounds: Vec<Aabb<3>> = (0..2000)
            .map(|_| {
                Aabb::from_point(Point::new([
                    rng.gen_range(0.0..64.0),
                    rng.gen_range(0.0..64.0),
                    rng.gen_range(0.0..64.0),
                ]))
            })
            .collect();
        let bvh = Bvh::build(&device, &bounds);
        assert_eq!(bvh.len(), 2000);
        // Spot-check: root bounds contain every input box.
        let root = bvh.internal_bounds[0];
        for b in &bounds {
            assert_eq!(root.merged(b), root);
        }
    }

    #[test]
    fn build_is_three_launches() {
        // Fused pipeline: morton_bounds reduce + batched sort +
        // bottom-up build, regardless of worker count.
        for workers in [1usize, 3] {
            let device = Device::new(DeviceConfig::default().with_workers(workers));
            let before = device.counters().snapshot().kernel_launches;
            let bvh = Bvh::build(&device, &point_boxes(&random_points(4096, 8)));
            validate(&bvh);
            let launches = device.counters().snapshot().kernel_launches - before;
            assert_eq!(launches, 3, "workers = {workers}");
        }
    }

    #[test]
    fn repeated_builds_reuse_arena_scratch() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let bounds = point_boxes(&random_points(3000, 4));
        for round in 0..3 {
            let fresh_before = device.memory().reservations_made();
            let bvh = Bvh::build_in(&device, device.arena(), &bounds).unwrap();
            validate(&bvh);
            let fresh = device.memory().reservations_made() - fresh_before;
            if round == 0 {
                assert!(fresh > 0, "first build must allocate scratch");
            } else {
                assert_eq!(fresh, 0, "round {round} must recycle all scratch");
            }
        }
    }

    #[test]
    fn matches_host_derived_traversal() {
        // The in-kernel ropes and SoA corners must agree exactly with
        // the host-side twin used by snapshot restore.
        let device = Device::new(DeviceConfig::default().with_workers(3));
        for n in [2usize, 3, 255, 2048] {
            let bvh = Bvh::build(&device, &point_boxes(&random_points(n, 77 + n as u64)));
            let mut rederived = bvh.clone();
            rederived.derive_traversal();
            assert_eq!(bvh.internal_skip, rederived.internal_skip, "n = {n}");
            assert_eq!(bvh.leaf_skip, rederived.leaf_skip, "n = {n}");
        }
    }

    #[test]
    fn memory_accounting_positive() {
        let device = Device::with_defaults();
        let bvh = Bvh::build(&device, &point_boxes(&random_points(100, 1)));
        assert!(bvh.memory_bytes() > 100 * std::mem::size_of::<Aabb<2>>());
    }
}
