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
//!    `(morton_code(i), i)` pairs. The sort hands back the sorted codes
//!    in its own key buffer, and the final scatter's fused epilogue
//!    writes the permuted leaves, the payload and the inverse
//!    permutation directly — the old `bvh.morton` and `bvh.permute`
//!    kernels are folded away,
//! 3. **`bvh.build_bottom_up`** — one kernel, one thread per leaf, that
//!    emits the internal topology, merges AABBs, *and* derives the rope
//!    skip links in the same climb. Threads start at their leaf and walk
//!    toward the root; at each completed node the thread deposits its
//!    subtree in the merge boundary's rendezvous word and dies unless it
//!    is the second to arrive, in which case it creates the parent and
//!    keeps climbing. Exactly one thread reaches the root.
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
//! `r`; the creating thread walks that spine and assigns it. The
//! *mirrored* ropes (the next node in right-child-first preorder) are
//! the same construction reflected: every node on the left spine of `r`
//! starts at the split, so its mirrored rope is `l`. The root's creator
//! terminates the root's right spine and left spine with
//! [`NodeRef::NONE`]. Every node lies on exactly one spine of each kind,
//! so each rope is written once and the aggregate walk cost is `O(n)`.
//!
//! Ties between equal Morton codes are broken with the primitive index
//! (the standard `code ## index` augmentation), so duplicate positions —
//! common in clustering data — still produce a balanced tree.
//!
//! Scratch (the sort's buffers, whose returned key buffer holds the
//! sorted codes, and the rendezvous words) comes from the device's
//! [`fdbscan_device::BufferArena`] and is released when the build
//! returns. A rendezvous word holds only the deposited nodes: their
//! covered ranges and bounds are read back from the nodes themselves
//! (`ranges`/`internal_bounds`, or the leaf's position and its point or
//! box).

use std::sync::atomic::Ordering;

use fdbscan_device::shared::{as_atomic_u64, SharedMut};
use fdbscan_device::{Device, DeviceError};
use fdbscan_geom::{
    morton::{bits_per_axis, morton_code},
    Aabb,
};

use crate::node::{Leaf, NodeRef, LEAF_FLAG};
use crate::Bvh;

impl<const D: usize, L: Leaf<D>> Bvh<D, L> {
    /// Builds a hierarchy over `leaves`; the payload of leaf `k` is the
    /// caller index `k` (recoverable with [`Bvh::leaf_payload`]).
    ///
    /// # Panics
    /// Panics where [`Bvh::build_in`] would return an error; budgeted or
    /// fault-injected callers should use [`Bvh::build_in`] and handle it.
    pub fn build(device: &Device, leaves: &[L]) -> Self {
        match Self::build_in(device, leaves) {
            Ok(bvh) => bvh,
            Err(error) => panic!("BVH build failed: {error}"),
        }
    }

    /// Builds a hierarchy over `leaves` — points or boxes — with
    /// construction scratch checked out of the device's buffer arena.
    ///
    /// Runs entirely as device kernels — a scene-bounds reduction, one
    /// batched sort launch, and one bottom-up build kernel. `leaves` may
    /// be empty.
    ///
    /// # Errors
    /// [`DeviceError::InvalidInput`] for 2^31 leaves or more, which a
    /// [`NodeRef`] cannot number. Propagates [`DeviceError`] from scratch
    /// allocation (budget exhaustion or injected faults) and from the
    /// device launches.
    pub fn build_in(device: &Device, leaves: &[L]) -> Result<Self, DeviceError> {
        let n = leaves.len();
        if n == 0 {
            return Ok(Self {
                internal_bounds: Vec::new(),
                children: Vec::new(),
                ranges: Vec::new(),
                leaves: Vec::new(),
                leaf_payload: Vec::new(),
                positions: Vec::new(),
                internal_skip: Vec::new(),
                leaf_skip: Vec::new(),
                internal_lskip: Vec::new(),
                leaf_lskip: Vec::new(),
                scene: Aabb::empty(),
            });
        }
        check_leaf_count(n)?;

        // 1. Scene bounds (parallel merge reduction) — the only
        //    precomputation the Morton keygen needs.
        let scene = device.try_reduce_named(
            "bvh.morton_bounds",
            n,
            Aabb::empty(),
            |i| leaves[i].bounds(),
            |a, b| a.merged(&b),
        )?;

        // 2. Sort primitives by code (stable: ties keep index order).
        //    Codes are generated on the fly inside the sort, which hands
        //    them back sorted; its fused scatter epilogue writes every
        //    per-leaf array in sorted order, replacing the old morton +
        //    permute kernels. The key width is known analytically, so no
        //    max-key reduction runs.
        let mut payload = vec![0u32; n];
        let mut positions = vec![0u32; n];
        let mut sorted = vec![L::default(); n];
        let codes = {
            let payload_view = SharedMut::new(&mut payload);
            let positions_view = SharedMut::new(&mut positions);
            let leaf_view = SharedMut::new(&mut sorted);
            let scene_ref = &scene;
            let key_bits = (bits_per_axis(D) * D as u32).max(1);
            fdbscan_psort::sort_by_key_fused(
                device,
                n,
                key_bits,
                |i| morton_code(&leaves[i].center(), scene_ref),
                |pos, id| {
                    // SAFETY: sorted positions are unique (emit contract)
                    // and `id` is a permutation, so every slot has
                    // exactly one writer.
                    unsafe {
                        payload_view.write(pos, id);
                        positions_view.write(id as usize, pos as u32);
                        leaf_view.write(pos, leaves[id as usize]);
                    }
                },
            )?
        };

        if n == 1 {
            return Ok(Self {
                internal_bounds: Vec::new(),
                children: Vec::new(),
                ranges: Vec::new(),
                leaves: sorted,
                leaf_payload: payload,
                positions,
                internal_skip: Vec::new(),
                leaf_skip: vec![NodeRef::NONE],
                internal_lskip: Vec::new(),
                leaf_lskip: vec![NodeRef::NONE],
                scene,
            });
        }

        // 3. Single bottom-up pass: topology + bounds + both rope kinds,
        //    one thread per leaf.
        let internal_count = n - 1;
        let mut children = vec![[NodeRef::internal(0); 2]; internal_count];
        let mut ranges = vec![[0u32; 2]; internal_count];
        let mut internal_bounds = vec![Aabb::<D>::empty(); internal_count];
        let mut internal_skip = vec![NodeRef::NONE; internal_count];
        let mut leaf_skip = vec![NodeRef::NONE; n];
        let mut internal_lskip = vec![NodeRef::NONE; internal_count];
        let mut leaf_lskip = vec![NodeRef::NONE; n];

        // Rendezvous state, one word per leaf boundary b (between sorted
        // leaves b and b+1): the completed subtree ending at b deposits
        // its node (+1, so an empty half reads 0) in the low half, the one
        // starting at b+1 in the high half. Taken after the sort has
        // released its other buffers, so next to the sorted codes it
        // stays within the sort's peak; `take` hands it back zeroed.
        let mut rendezvous = device.arena().take::<u64>(n)?;
        {
            let words = as_atomic_u64(&mut rendezvous[..]);
            let children_view = SharedMut::new(&mut children);
            let ranges_view = SharedMut::new(&mut ranges);
            let bounds_view = SharedMut::new(&mut internal_bounds);
            let iskip_view = SharedMut::new(&mut internal_skip);
            let lskip_view = SharedMut::new(&mut leaf_skip);
            let ilskip_view = SharedMut::new(&mut internal_lskip);
            let llskip_view = SharedMut::new(&mut leaf_lskip);
            let codes_ref: &[u64] = &codes;
            let leaves_ref = &sorted;

            // Assigns `rope` to `from` and the whole spine of its subtree
            // on side `side` (1: right spine, forward ropes; 0: left
            // spine, mirrored ropes): each of those nodes' subtrees ends
            // (starts) where `from`'s does, so they share the rope. Reads
            // of descendants' children are ordered by the rendezvous
            // acquire chain.
            let assign_spine = |from: NodeRef, rope: NodeRef, side: usize| {
                let (leaf_view, internal_view) = if side == 1 {
                    (&lskip_view, &iskip_view)
                } else {
                    (&llskip_view, &ilskip_view)
                };
                let mut x = from;
                loop {
                    // SAFETY: every node lies on exactly one spine of each
                    // side, so its rope slot has a single writer.
                    if x.is_leaf() {
                        unsafe { leaf_view.write(x.index() as usize, rope) };
                        return;
                    }
                    unsafe {
                        internal_view.write(x.index() as usize, rope);
                        x = children_view.read(x.index() as usize)[side];
                    }
                }
            };

            device.try_launch_named("bvh.build_bottom_up", n, |leaf| {
                // Climb: `node` covers sorted leaves [first, last] and
                // `nb` is its merged bounds.
                let mut node = NodeRef::leaf(leaf as u32);
                let mut first = leaf;
                let mut last = leaf;
                let mut nb = leaves_ref[leaf].bounds();
                loop {
                    if first == 0 && last == n - 1 {
                        // `node` is the root: nothing follows its subtree
                        // in either preorder, so both spines rope to NONE.
                        assign_spine(node, NodeRef::NONE, 1);
                        assign_spine(node, NodeRef::NONE, 0);
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
                    // Exactly one subtree ends at this boundary and one
                    // starts right after it; each owns its half of the
                    // word. AcqRel: releases our node's range and bounds
                    // to the later arrival and acquires the earlier one's
                    // (plus, transitively, its whole subtree).
                    let (ours, theirs) = if is_left { (0, 32) } else { (32, 0) };
                    let deposit = u64::from(node.0 + 1) << ours;
                    let seen =
                        (words[boundary].fetch_or(deposit, Ordering::AcqRel) >> theirs) as u32;
                    if seen == 0 {
                        return; // first arrival: the sibling builds the parent
                    }
                    let sib_node = NodeRef(seen - 1);
                    // The sibling's covered range and bounds, read back from
                    // the node itself.
                    let (sib_range, sib_bounds) = if sib_node.is_leaf() {
                        let pos = sib_node.index();
                        ([pos, pos], leaves_ref[pos as usize].bounds())
                    } else {
                        let i = sib_node.index() as usize;
                        // SAFETY: the sibling's creator wrote its range and
                        // bounds before its own arrival here, which our
                        // fetch_add acquired; no thread writes them again.
                        unsafe { (ranges_view.read(i), bounds_view.read(i)) }
                    };
                    let (nf, nl, lchild, rchild) = if is_left {
                        (first, sib_range[1] as usize, node, sib_node)
                    } else {
                        (sib_range[0] as usize, last, sib_node, node)
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
                    // The left child's right spine ends at the new split,
                    // so it ropes to the right child; the right child's
                    // left spine starts there, so its mirrored rope is the
                    // left child.
                    assign_spine(lchild, rchild, 1);
                    assign_spine(rchild, lchild, 0);
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
            leaves: sorted,
            leaf_payload: payload,
            positions,
            internal_skip,
            leaf_skip,
            internal_lskip,
            leaf_lskip,
            scene,
        })
    }

    /// Recomputes the derived traversal structures — both rope kinds —
    /// from the core arrays.
    ///
    /// [`Bvh::build_in`] fills the same data inside the
    /// `bvh.build_bottom_up` kernel; this host-side twin is the reference
    /// that derivation is tested against. Parent links are build
    /// scaffolding and are rederived from `children` here.
    #[cfg(test)]
    pub(crate) fn derive_traversal(&mut self) {
        let n = self.len();
        if n < 2 {
            self.internal_skip = Vec::new();
            self.leaf_skip = vec![NodeRef::NONE; n];
            self.internal_lskip = Vec::new();
            self.leaf_lskip = vec![NodeRef::NONE; n];
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
        let rope = |node: NodeRef, mirrored: bool| {
            skip_link(&self.children, &internal_parent, &leaf_parent, node, mirrored)
        };
        let internal = || (0..n - 1).map(|i| NodeRef::internal(i as u32));
        let leaves = || (0..n).map(|pos| NodeRef::leaf(pos as u32));
        let internal_skip = internal().map(|x| rope(x, false)).collect();
        let leaf_skip = leaves().map(|x| rope(x, false)).collect();
        let internal_lskip = internal().map(|x| rope(x, true)).collect();
        let leaf_lskip = leaves().map(|x| rope(x, true)).collect();
        self.internal_skip = internal_skip;
        self.leaf_skip = leaf_skip;
        self.internal_lskip = internal_lskip;
        self.leaf_lskip = leaf_lskip;
    }
}

/// [`Bvh::build_in`]'s check that every leaf position fits a
/// [`NodeRef`]'s 31 index bits.
fn check_leaf_count(leaves: usize) -> Result<(), DeviceError> {
    if leaves < LEAF_FLAG as usize {
        Ok(())
    } else {
        Err(DeviceError::InvalidInput { reason: "primitive count exceeds NodeRef range".into() })
    }
}

/// The rope of `node`: the next node in preorder after `node`'s subtree,
/// or [`NodeRef::NONE`] when the subtree is the tail of the preorder.
/// With `mirrored`, the same in right-child-first preorder.
///
/// Walks up while `node` is the child visited second; the first ancestor
/// visited first yields its sibling. Every step strictly decreases the
/// subtree depth, so the walk is bounded by the tree depth.
#[cfg(test)]
fn skip_link(
    children: &[[NodeRef; 2]],
    internal_parent: &[u32],
    leaf_parent: &[u32],
    node: NodeRef,
    mirrored: bool,
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
        let (first, second) = if mirrored { (right, left) } else { (left, right) };
        if cur == first {
            return second;
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
    fn validate<const D: usize, L: Leaf<D>>(bvh: &Bvh<D, L>) {
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
                    bvh.leaves[child.index() as usize].bounds()
                } else {
                    bvh.internal_bounds[child.index() as usize]
                };
                assert_eq!(pb.merged(&cb), *pb, "child bounds escape parent");
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
        // follows leaf ropes must enumerate the exact preorder sequence;
        // mirrored ropes, descending right children, the right-child-first
        // preorder.
        for mirrored in [false, true] {
            let (first, second) = if mirrored { (1, 0) } else { (0, 1) };
            let mut preorder = Vec::new();
            let mut stack = vec![NodeRef::internal(0)];
            while let Some(node) = stack.pop() {
                preorder.push(node);
                if !node.is_leaf() {
                    let pair = bvh.children[node.index() as usize];
                    stack.push(pair[second]);
                    stack.push(pair[first]);
                }
            }
            let leaf_ropes = if mirrored { &bvh.leaf_lskip } else { &bvh.leaf_skip };
            let mut via_ropes = Vec::new();
            let mut node = NodeRef::internal(0);
            while node != NodeRef::NONE {
                via_ropes.push(node);
                node = if node.is_leaf() {
                    leaf_ropes[node.index() as usize]
                } else {
                    bvh.children[node.index() as usize][first]
                };
            }
            assert_eq!(
                via_ropes, preorder,
                "rope walk diverges from preorder (mirrored {mirrored})"
            );
        }

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
        // Every mirrored rope must land on the subtree ending right before
        // the node's covered leaf range (NONE only for range prefixes).
        let last_of = |r: NodeRef| {
            if r.is_leaf() {
                r.index()
            } else {
                bvh.ranges[r.index() as usize][1]
            }
        };
        for i in 0..(n - 1) {
            let first = bvh.ranges[i][0];
            match bvh.internal_lskip[i] {
                NodeRef::NONE => assert_eq!(first, 0),
                skip => assert_eq!(last_of(skip) + 1, first),
            }
        }
        for pos in 0..n as u32 {
            match bvh.leaf_lskip[pos as usize] {
                NodeRef::NONE => assert_eq!(pos, 0),
                skip => assert_eq!(last_of(skip) + 1, pos),
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
    fn repeated_builds_release_their_scratch() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let bounds = point_boxes(&random_points(3000, 4));
        for _ in 0..3 {
            device.memory().reset_peak();
            let bvh = Bvh::build_in(&device, &bounds).unwrap();
            validate(&bvh);
            assert_eq!(device.memory().in_use(), 0);
            assert_eq!(device.memory().peak(), Bvh::<2>::build_scratch_bytes(bounds.len()));
        }
    }

    #[test]
    fn matches_host_derived_traversal() {
        // The in-kernel ropes (both kinds) must agree exactly with the
        // host-side reference derivation.
        let device = Device::new(DeviceConfig::default().with_workers(3));
        for n in [2usize, 3, 255, 2048] {
            let bvh = Bvh::build(&device, &point_boxes(&random_points(n, 77 + n as u64)));
            let mut rederived = bvh.clone();
            rederived.derive_traversal();
            assert_eq!(bvh.internal_skip, rederived.internal_skip, "n = {n}");
            assert_eq!(bvh.leaf_skip, rederived.leaf_skip, "n = {n}");
            assert_eq!(bvh.internal_lskip, rederived.internal_lskip, "n = {n}");
            assert_eq!(bvh.leaf_lskip, rederived.leaf_lskip, "n = {n}");
        }
    }

    #[test]
    fn leaf_count_check_stops_at_the_node_ref_range() {
        // Called directly: a 2^31-leaf build would allocate far too much.
        assert!(check_leaf_count((1 << 31) - 1).is_ok());
        match check_leaf_count(1 << 31) {
            Err(DeviceError::InvalidInput { reason }) => {
                assert_eq!(reason, "primitive count exceeds NodeRef range")
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn memory_accounting_positive() {
        let device = Device::with_defaults();
        let bvh = Bvh::build(&device, &point_boxes(&random_points(100, 1)));
        assert!(bvh.memory_bytes() > 100 * std::mem::size_of::<Aabb<2>>());
    }
}
