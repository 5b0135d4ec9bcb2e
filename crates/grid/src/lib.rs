#![warn(missing_docs)]

//! Dense-cell grid for FDBSCAN-DenseBox (paper §4.2).
//!
//! A regular Cartesian grid with cell edge `eps / sqrt(d)` is superimposed
//! over the data, guaranteeing each cell's diameter is at most `eps`, so
//! any cell holding at least `minpts` points consists entirely of core
//! points of one cluster (a *dense cell*, Fig. 2).
//!
//! The grid is never materialized as a dense array — the paper's 3-D
//! problem has 3.5 **billion** cells of which only 28 million are
//! non-empty. Instead, points are sorted by cell key and non-empty cells
//! are the segments of the sorted order:
//!
//! 1. radix-sort `(cell key, point id)` — the 64-bit Morton cell keys
//!    are generated on the fly inside the sort's first pass, and the
//!    fused scatter epilogue writes the sorted directory arrays directly,
//! 2. derive the directory in one batched launch: mark segment heads,
//!    scan the marks to number the non-empty cells, record each cell's
//!    start offset, and classify cells with `count >= minpts` as dense.
//!
//! The directory is the sorted ids plus, per non-empty cell, its start,
//! key and dense flag; no per-point cell map is kept. A cell's members
//! are a slice of the sorted ids ([`DenseGrid::cell_members`]), and the
//! cell at given coordinates is a binary search over the keys
//! ([`DenseGrid::find_cell`]).
//!
//! Together with the scene-bounds and dense-census reductions the whole
//! build is four kernel launches, and its scratch is checked out of the
//! device's [`fdbscan_device::BufferArena`] and released when it returns.
//!
//! [`DenseGrid::mixed_primitives`] then produces the primitive set of the
//! FDBSCAN-DenseBox tree: one box per dense cell plus every point outside
//! dense cells.
//!
//! # Example
//!
//! ```
//! use fdbscan_device::Device;
//! use fdbscan_geom::Point2;
//! use fdbscan_grid::DenseGrid;
//!
//! let device = Device::with_defaults();
//! // Ten stacked points and one straggler.
//! let mut points = vec![Point2::new([1.0, 1.0]); 10];
//! points.push(Point2::new([5.0, 5.0]));
//!
//! let grid = DenseGrid::build(&device, &points, 0.5, 5);
//! assert_eq!(grid.num_cells(), 2);
//! assert_eq!(grid.num_dense_cells(), 1);
//! // Cells are numbered in key order: the stack's cell is dense.
//! assert!(grid.cell_members(0).contains(&0) && grid.is_dense(0));
//! assert_eq!((grid.cell_members(1), grid.is_dense(1)), (&[10][..], false));
//!
//! let mixed = grid.mixed_primitives(&points);
//! assert_eq!(mixed.refs.len(), 2); // one box + one isolated point
//! ```

use std::hash::{Hash, Hasher};

use fdbscan_device::shared::SharedMut;
use fdbscan_device::{BatchStage, Device, DeviceError};
use fdbscan_geom::{morton, Aabb, Point};
use fdbscan_psort::sort_by_key_fused;

/// High bit of a [`PrimitiveRef`] marks a dense-cell box.
pub const CELL_FLAG: u32 = 1 << 31;

/// Reference to a mixed primitive: either an isolated point (payload =
/// point id) or a dense cell (payload = non-empty-cell index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct PrimitiveRef(pub u32);

impl PrimitiveRef {
    /// A point primitive carrying the original point id.
    #[inline]
    pub fn point(id: u32) -> Self {
        debug_assert!(id & CELL_FLAG == 0);
        Self(id)
    }

    /// A dense-cell primitive carrying the non-empty-cell index.
    #[inline]
    pub fn cell(index: u32) -> Self {
        debug_assert!(index & CELL_FLAG == 0);
        Self(index | CELL_FLAG)
    }

    /// Whether this is a dense-cell box.
    #[inline]
    pub fn is_cell(self) -> bool {
        self.0 & CELL_FLAG != 0
    }

    /// The payload (point id or cell index).
    #[inline]
    pub fn index(self) -> u32 {
        self.0 & !CELL_FLAG
    }
}

/// The mixed primitive set FDBSCAN-DenseBox builds its BVH from.
#[derive(Clone, Debug)]
pub struct MixedPrimitives<const D: usize> {
    /// Bounding volume of each primitive.
    pub bounds: Vec<Aabb<D>>,
    /// What each primitive is.
    pub refs: Vec<PrimitiveRef>,
}

/// A sparse dense-cell grid over a point set.
#[derive(Clone, Debug)]
pub struct DenseGrid<const D: usize> {
    /// Cell edge length (`eps / sqrt(D)`).
    cell_len: f32,
    /// Grid origin (scene minimum corner).
    origin: Point<D>,
    /// Point ids grouped by cell (cell segments are contiguous).
    sorted_ids: Vec<u32>,
    /// Segment start of non-empty cell `c` in `sorted_ids`
    /// (`len = num_cells + 1`; the last entry is `n`).
    cell_starts: Vec<u32>,
    /// Sorted cell key of each non-empty cell.
    cell_keys: Vec<u64>,
    /// Whether each non-empty cell is dense (`count >= minpts`).
    dense: Vec<bool>,
    /// Number of dense cells.
    num_dense: usize,
    /// Number of points living in dense cells.
    points_in_dense: usize,
}

impl<const D: usize> DenseGrid<D> {
    /// Builds the grid with the paper's cell edge `eps / sqrt(D)` (so each
    /// cell's diameter is at most `eps`). `eps` must be positive and
    /// finite; `minpts >= 1`.
    ///
    /// # Panics
    /// Panics where [`DenseGrid::build_in`] would return an error.
    pub fn build(device: &Device, points: &[Point<D>], eps: f32, minpts: usize) -> Self {
        match Self::build_in(device, points, eps, minpts) {
            Ok(grid) => grid,
            Err(error) => panic!("grid build failed: {error}"),
        }
    }

    /// [`DenseGrid::build`] with device errors propagated instead of
    /// panicking.
    ///
    /// A cell is dense when it holds at least `minpts` points *and* its
    /// tight box's corner pair passes the oracle's own test,
    /// `min.dist_sq(&max) <= eps * eps`: then every member pair passes
    /// too, because `f32` subtraction, squaring and the in-order sum are
    /// monotone. (With the `f32` cell side `eps / sqrt(D)` a full cell's
    /// diagonal can come out one rounding longer than `eps`.) A cell that
    /// fails stays sparse, so its members become point leaves of the
    /// DenseBox tree.
    ///
    /// The whole directory is produced in four launches:
    /// 1. `grid.scene_bounds` — reduction fixing the origin,
    /// 2. one fused sort batch — cell keys are generated on the fly
    ///    inside the first radix pass and the fused scatter epilogue
    ///    writes the sorted `(key, id)` arrays directly (no standalone
    ///    key kernel, no post-sort permute),
    /// 3. `grid.directory` — head flags, cell scan, segment offsets and
    ///    dense classification as stages of one batched launch,
    /// 4. `grid.dense_census` — reduction counting dense cells/points.
    ///
    /// # Errors
    /// [`DeviceError::InvalidInput`] when `eps` is not positive and
    /// finite, when `minpts` is 0, or when an axis needs more cells than
    /// its Morton key bits can number (`eps` too small for the data
    /// extent). Propagates [`DeviceError`] from scratch allocation
    /// (budget exhaustion or injected faults) and from the device
    /// launches.
    pub fn build_in(
        device: &Device,
        points: &[Point<D>],
        eps: f32,
        minpts: usize,
    ) -> Result<Self, DeviceError> {
        Self::build_directory(device, points, eps / (D as f32).sqrt(), eps * eps, minpts)
    }

    /// Builds the grid with an explicit cell edge length, in the same
    /// four launches as [`DenseGrid::build_in`]. Used by CUDA-DClust's
    /// directory index, which wants `cell_len == eps` so a point's
    /// neighbors all live in the 3^D surrounding cells. Dense
    /// classification (`is_dense`) is by count alone here, so it is only
    /// meaningful when the cell diameter is at most `eps` — directory
    /// users should pass a `minpts` that disables it (e.g. `usize::MAX`).
    ///
    /// # Errors
    /// As [`DenseGrid::build_in`], with `cell_len` in place of `eps`.
    pub fn build_with_cell_len_in(
        device: &Device,
        points: &[Point<D>],
        cell_len: f32,
        minpts: usize,
    ) -> Result<Self, DeviceError> {
        Self::build_directory(device, points, cell_len, f32::INFINITY, minpts)
    }

    /// The grid with cell edge `cell_len`, where a cell holding at least
    /// `minpts` points is dense if its tight box's corner pair is within
    /// `eps_sq` ([`DenseGrid::build_in`]).
    fn build_directory(
        device: &Device,
        points: &[Point<D>],
        cell_len: f32,
        eps_sq: f32,
        minpts: usize,
    ) -> Result<Self, DeviceError> {
        // `build_in`'s edge `eps / sqrt(D)` is positive and finite only if
        // `eps` is, so this one check covers both entry points.
        let invalid = |reason: &str| Err(DeviceError::InvalidInput { reason: reason.into() });
        if !(cell_len > 0.0 && cell_len.is_finite()) {
            return invalid("eps must be positive and finite");
        }
        if minpts == 0 {
            return invalid("minpts must be at least 1");
        }
        let n = points.len();

        if n == 0 {
            return Ok(Self {
                cell_len,
                origin: Point::origin(),
                sorted_ids: Vec::new(),
                cell_starts: vec![0],
                cell_keys: Vec::new(),
                dense: Vec::new(),
                num_dense: 0,
                points_in_dense: 0,
            });
        }

        // Scene bounds (reduction) fix the grid origin.
        let scene = device.try_reduce_named(
            "grid.scene_bounds",
            n,
            Aabb::empty(),
            |i| Aabb::from_point(points[i]),
            |a, b| a.merged(&b),
        )?;
        let origin = scene.min;

        // Grid resolution: Morton keys give `bits_per_axis(D)` bits per
        // axis (21 in 3-D), so a small enough eps over a wide enough
        // extent cannot be keyed; that is an input this grid cannot take,
        // not a bug. The per-axis cell counts also bound the interleaved
        // key width, which caps the radix passes the fused sort runs.
        let bits = morton::bits_per_axis(D);
        let mut axis_bits = 1u32;
        for axis in 0..D {
            let extent = scene.max[axis] - scene.min[axis];
            let cells = ((extent / cell_len).ceil() as u64).saturating_add(1);
            if cells >= (1u64 << bits) {
                return Err(DeviceError::InvalidInput {
                    reason: format!(
                        "grid axis {axis} needs {cells} cells, exceeding the {bits}-bit key \
                         range; eps is too small relative to the data extent"
                    ),
                });
            }
            axis_bits = axis_bits.max(64 - (cells - 1).leading_zeros());
        }
        let key_bits = (axis_bits * D as u32).min(64);

        // 1. Sort point ids by cell key. Keys are generated inside the
        //    sort itself, which hands them back sorted; its fused
        //    epilogue delivers the sorted ids straight into the
        //    directory.
        let mut sorted_ids = vec![0u32; n];
        let sorted_keys = {
            let ids_view = SharedMut::new(&mut sorted_ids);
            let origin_ref = &origin;
            sort_by_key_fused(
                device,
                n,
                key_bits,
                |i| cell_key::<D>(&points[i], origin_ref, cell_len),
                // SAFETY: the sort emits each destination rank exactly once.
                |pos, id| unsafe { ids_view.write(pos, id) },
            )?
        };

        // 2. Derive the directory from the sorted order in one batched
        //    launch: head flags -> cell scan -> segment offsets -> dense
        //    classification. The number of non-empty cells is only known
        //    after the in-batch scan, so cell-indexed arrays are sized at
        //    the worst case (n cells) and truncated afterwards.
        let arena = device.arena();
        let mut head = arena.take::<u32>(n)?;
        let mut total_slot = arena.take::<u32>(1)?;
        let mut cell_starts = vec![0u32; n + 1];
        let mut cell_keys = vec![0u64; n];
        let mut dense = vec![false; n];
        {
            let head_view = SharedMut::new(&mut head[..]);
            let total_view = SharedMut::new(&mut total_slot[..]);
            let starts_view = SharedMut::new(&mut cell_starts);
            let keys_out_view = SharedMut::new(&mut cell_keys);
            let dense_view = SharedMut::new(&mut dense);
            let (head_view, total_view) = (&head_view, &total_view);
            let (starts_view, keys_out_view) = (&starts_view, &keys_out_view);
            let dense_view = &dense_view;
            let keys_ref: &[u64] = &sorted_keys;
            let ids_ref: &[u32] = &sorted_ids;
            device.try_batch_named(
                "grid.directory",
                vec![
                    BatchStage::new("grid.head_flags", n, move |i| {
                        let is_head = i == 0 || keys_ref[i] != keys_ref[i - 1];
                        // SAFETY: one writer per index.
                        unsafe { head_view.write(i, is_head as u32) };
                    }),
                    // Single-thread exclusive scan of the head flags (a
                    // block-parallel scan is not worth a standalone launch
                    // here); afterwards each head position holds its cell
                    // index and the total is the non-empty cell count.
                    BatchStage::new("grid.cell_scan", 1, move |_| {
                        let mut acc = 0u32;
                        for i in 0..n {
                            // SAFETY: the only thread of this stage.
                            unsafe {
                                let flag = head_view.read(i);
                                head_view.write(i, acc);
                                acc += flag;
                            }
                        }
                        unsafe { total_view.write(0, acc) };
                    }),
                    BatchStage::new("grid.segment", n, move |i| {
                        // After the exclusive scan, a head's position holds
                        // the number of heads strictly before it: its own
                        // cell index.
                        // SAFETY: heads write disjoint cells; thread 0
                        // alone writes the sentinel start.
                        unsafe {
                            if i == 0 || keys_ref[i] != keys_ref[i - 1] {
                                let cell = head_view.read(i) as usize;
                                starts_view.write(cell, i as u32);
                                keys_out_view.write(cell, keys_ref[i]);
                            }
                            if i == 0 {
                                starts_view.write(total_view.read(0) as usize, n as u32);
                            }
                        }
                    }),
                    // One thread per potential cell; threads past the scan
                    // total exit immediately.
                    BatchStage::new("grid.dense_flags", n, move |c| {
                        // SAFETY: one writer per cell.
                        unsafe {
                            if c >= total_view.read(0) as usize {
                                return;
                            }
                            let start = starts_view.read(c) as usize;
                            let end = starts_view.read(c + 1) as usize;
                            let dense = end - start >= minpts && {
                                let members = ids_ref[start..end].iter();
                                let tight =
                                    Aabb::from_points(members.map(|&id| &points[id as usize]));
                                tight.min.dist_sq(&tight.max) <= eps_sq
                            };
                            dense_view.write(c, dense);
                        }
                    }),
                ],
            )?;
        }
        let num_cells = total_slot[0] as usize;
        cell_starts.truncate(num_cells + 1);
        cell_keys.truncate(num_cells);
        dense.truncate(num_cells);

        // 3. Dense census.
        let (num_dense, points_in_dense) = {
            let starts_ref = &cell_starts;
            let dense_ref = &dense;
            device.try_reduce_named(
                "grid.dense_census",
                num_cells,
                (0usize, 0usize),
                |c| {
                    if dense_ref[c] {
                        (1, (starts_ref[c + 1] - starts_ref[c]) as usize)
                    } else {
                        (0, 0)
                    }
                },
                |a, b| (a.0 + b.0, a.1 + b.1),
            )?
        };

        Ok(Self {
            cell_len,
            origin,
            sorted_ids,
            cell_starts,
            cell_keys,
            dense,
            num_dense,
            points_in_dense,
        })
    }

    /// Integer cell coordinates of a point.
    pub fn coords_of_point(&self, p: &Point<D>) -> [u64; D] {
        let mut coords = [0u64; D];
        for axis in 0..D {
            let offset = (p[axis] - self.origin[axis]).max(0.0);
            coords[axis] = (offset / self.cell_len) as u64;
        }
        coords
    }

    /// Looks up the non-empty-cell index at integer coordinates, if that
    /// cell holds any points (binary search over sorted cell keys).
    pub fn find_cell(&self, coords: [u64; D]) -> Option<u32> {
        let key = morton::interleave(coords);
        self.cell_keys.binary_search(&key).ok().map(|i| i as u32)
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cell_keys.len()
    }

    /// Number of dense cells.
    pub fn num_dense_cells(&self) -> usize {
        self.num_dense
    }

    /// Number of points living in dense cells.
    pub fn points_in_dense_cells(&self) -> usize {
        self.points_in_dense
    }

    /// Fraction of all points living in dense cells (0 for empty input).
    pub fn dense_fraction(&self) -> f64 {
        if self.sorted_ids.is_empty() {
            0.0
        } else {
            self.points_in_dense as f64 / self.sorted_ids.len() as f64
        }
    }

    /// Whether non-empty cell `c` is dense.
    #[inline]
    pub fn is_dense(&self, c: u32) -> bool {
        self.dense[c as usize]
    }

    /// The point ids of non-empty cell `c` (a contiguous slice).
    #[inline]
    pub fn cell_members(&self, c: u32) -> &[u32] {
        let c = c as usize;
        let start = self.cell_starts[c] as usize;
        let end = self.cell_starts[c + 1] as usize;
        &self.sorted_ids[start..end]
    }

    /// The geometric box of non-empty cell `c`.
    ///
    /// Recovered from the cell key, so it is the exact grid-aligned cell,
    /// independent of which points it holds.
    pub fn cell_aabb(&self, c: u32) -> Aabb<D> {
        let key = self.cell_keys[c as usize];
        let coords = deinterleave::<D>(key);
        let mut min = [0.0f32; D];
        let mut max = [0.0f32; D];
        for axis in 0..D {
            min[axis] = self.origin[axis] + coords[axis] as f32 * self.cell_len;
            max[axis] = min[axis] + self.cell_len;
        }
        Aabb::from_corners(Point::new(min), Point::new(max))
    }

    /// Builds the mixed primitive set for the FDBSCAN-DenseBox tree: one
    /// box per dense cell, plus one point primitive per point outside any
    /// dense cell (paper Fig. 2, right).
    ///
    /// Dense cells are bounded by the *tight* bounding box of their
    /// members rather than the full grid cell: semantically identical
    /// (still diameter <= eps) but it prunes queries that would only
    /// graze an empty corner of the cell, sparing the linear member scan.
    pub fn mixed_primitives(&self, points: &[Point<D>]) -> MixedPrimitives<D> {
        let mut bounds = Vec::new();
        let mut refs = Vec::new();
        for c in 0..self.num_cells() as u32 {
            if self.is_dense(c) {
                let tight =
                    Aabb::from_points(self.cell_members(c).iter().map(|&id| &points[id as usize]));
                bounds.push(tight);
                refs.push(PrimitiveRef::cell(c));
            } else {
                for &id in self.cell_members(c) {
                    bounds.push(Aabb::from_point(points[id as usize]));
                    refs.push(PrimitiveRef::point(id));
                }
            }
        }
        MixedPrimitives { bounds, refs }
    }

    /// Approximate device-memory footprint in bytes:
    /// [`DenseGrid::bytes_for`] its point and cell counts.
    pub fn memory_bytes(&self) -> usize {
        Self::bytes_for(self.sorted_ids.len(), self.num_cells())
    }

    /// Device bytes of a grid over `points` points in `cells` non-empty
    /// cells: the sorted ids, and per cell its start (plus the end
    /// sentinel), key and dense flag.
    pub fn bytes_for(points: usize, cells: usize) -> usize {
        points * 4 + (cells + 1) * 4 + cells * (8 + 1)
    }

    /// Peak device bytes a build over `points` points holds in scratch
    /// from the device's buffer arena, all released when it returns: the
    /// sort's scratch, then the sorted keys the sort returns next to the
    /// `u32` head flags and the cell count.
    pub fn build_scratch_bytes(points: usize) -> usize {
        match points {
            0 => 0,
            n => fdbscan_psort::fused_scratch_bytes(n).max(n * (8 + 4) + 4),
        }
    }
}

/// A built grid is a checkpointable phase output: restoring it clones
/// the recorded directory and skips the entire sort and classification
/// pipeline. Its content hash covers every field, the cell edge length
/// by bit pattern.
impl<const D: usize> Hash for DenseGrid<D> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Self {
            cell_len,
            origin,
            sorted_ids,
            cell_starts,
            cell_keys,
            dense,
            num_dense,
            points_in_dense,
        } = self;
        let cell_len = cell_len.to_bits();
        (cell_len, origin, sorted_ids, cell_starts, cell_keys, dense, num_dense, points_in_dense)
            .hash(state);
    }
}

/// Morton cell key of a point.
#[inline]
fn cell_key<const D: usize>(p: &Point<D>, origin: &Point<D>, cell_len: f32) -> u64 {
    let mut coords = [0u64; D];
    for axis in 0..D {
        // Points on the max boundary land in the last cell; offsets are
        // nonnegative by construction (origin = scene min).
        let offset = (p[axis] - origin[axis]).max(0.0);
        coords[axis] = (offset / cell_len) as u64;
    }
    morton::interleave(coords)
}

/// Inverse of [`fdbscan_geom::morton::interleave`] (per-axis extraction).
fn deinterleave<const D: usize>(key: u64) -> [u64; D] {
    let bits = morton::bits_per_axis(D);
    let mut coords = [0u64; D];
    for b in 0..bits {
        for (axis, coord) in coords.iter_mut().enumerate() {
            let bit = (key >> (b as usize * D + axis)) & 1;
            *coord |= bit << b;
        }
    }
    coords
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::DeviceConfig;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(DeviceConfig::default().with_workers(2))
    }

    #[test]
    fn primitive_ref_round_trip() {
        let p = PrimitiveRef::point(42);
        assert!(!p.is_cell());
        assert_eq!(p.index(), 42);
        let c = PrimitiveRef::cell(7);
        assert!(c.is_cell());
        assert_eq!(c.index(), 7);
    }

    #[test]
    fn deinterleave_inverts_interleave() {
        for coords in [[0u64, 0], [1, 0], [0, 1], [123, 456], [100_000, 99_999]] {
            let key = morton::interleave(coords);
            assert_eq!(deinterleave::<2>(key), coords);
        }
        for coords in [[0u64, 0, 0], [1, 2, 3], [1000, 2000, 3000]] {
            let key = morton::interleave(coords);
            assert_eq!(deinterleave::<3>(key), coords);
        }
    }

    #[test]
    fn phase_hash_sees_every_directory_value() {
        use fdbscan_device::PipelineCheckpoint;
        fn hash(grid: &DenseGrid<2>) -> u64 {
            let mut ckpt = PipelineCheckpoint::new("densebox");
            ckpt.record("index", grid);
            ckpt.phase_hash("index").unwrap()
        }
        fn ulp(x: &mut f32) {
            *x = f32::from_bits(x.to_bits() + 1);
        }
        // The scene minimum is (0, 0): the origin holds two zeros.
        let mut rng = StdRng::seed_from_u64(5);
        let mut points = vec![Point::new([0.0, 0.0])];
        points.extend(
            (0..300).map(|_| Point::new([rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)])),
        );
        let build = || DenseGrid::build(&Device::new(DeviceConfig::sequential()), &points, 0.4, 4);
        let grid = build();
        let base = hash(&grid);
        assert_eq!(hash(&build()), base, "equal grids hash equal");
        let c = (0..grid.num_cells() as u32).find(|&c| grid.cell_members(c).len() >= 2).unwrap();
        let start = grid.cell_starts[c as usize] as usize;
        let changed = |what: &str, change: &dyn Fn(&mut DenseGrid<2>)| {
            let mut changed = grid.clone();
            change(&mut changed);
            assert_ne!(hash(&changed), base, "{what}");
        };
        changed("origin one ulp", &|g| ulp(&mut g.origin.coords[0]));
        changed("origin -0.0", &|g| g.origin.coords[1] = -0.0);
        changed("cell length one ulp", &|g| ulp(&mut g.cell_len));
        changed("one dense flag", &|g| g.dense[0] = !g.dense[0]);
        changed("one sorted id", &|g| g.sorted_ids.swap(start, start + 1));
        changed("one cell key", &|g| g.cell_keys[0] += 1);
    }

    #[test]
    fn build_scratch_bytes_is_the_build_peak() {
        let mut rng = StdRng::seed_from_u64(6);
        for n in [1, 500, 1023, 1024, 2000] {
            let points: Vec<Point<2>> = (0..n)
                .map(|_| Point::new([rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)]))
                .collect();
            let device = Device::new(DeviceConfig::sequential());
            DenseGrid::build(&device, &points, 0.3, 4);
            assert_eq!(device.memory().peak(), DenseGrid::<2>::build_scratch_bytes(n), "{n}");
            assert_eq!(device.memory().in_use(), 0, "{n}");
        }
    }

    #[test]
    fn empty_grid() {
        let grid = DenseGrid::<2>::build(&device(), &[], 1.0, 5);
        assert_eq!(grid.num_cells(), 0);
        assert_eq!(grid.num_dense_cells(), 0);
        assert_eq!(grid.dense_fraction(), 0.0);
    }

    #[test]
    fn single_point() {
        let points = [Point::new([3.0, 4.0])];
        let grid = DenseGrid::build(&device(), &points, 1.0, 1);
        assert_eq!(grid.num_cells(), 1);
        // minpts = 1: the lone point makes its cell dense.
        assert_eq!(grid.num_dense_cells(), 1);
        assert_eq!(grid.points_in_dense_cells(), 1);
        assert_eq!(grid.cell_members(0), &[0]);
    }

    #[test]
    fn cell_diameter_at_most_eps() {
        let eps = 0.7;
        let grid = DenseGrid::<3>::build(&device(), &[Point::new([0.0, 0.0, 0.0])], eps, 2);
        let diag = grid.cell_aabb(0).diagonal();
        assert!(diag <= eps * 1.0001, "cell diagonal {diag} exceeds eps {eps}");
    }

    #[test]
    fn full_cell_whose_corners_are_past_eps_stays_sparse() {
        // Both points fill cell (0, 0, 0) at minpts 2, but the cell's f32
        // diagonal is one rounding longer than eps and so is their
        // distance: the cell is demoted, its members stay point leaves.
        let x = f32::from_bits(0x3bff_74f7);
        let eps = f32::from_bits(0x3c5d_3b6f);
        let points = [Point::new([0.0, 0.0, 0.0]), Point::new([x, x, x])];
        let grid = DenseGrid::build_in(&device(), &points, eps, 2).unwrap();
        assert_eq!(grid.num_cells(), 1);
        assert_eq!((grid.num_dense_cells(), grid.points_in_dense_cells()), (0, 0));
        assert_eq!(grid.mixed_primitives(&points).refs.len(), 2);
        // One ulp closer, the corners pass and the cell is dense.
        let closer = f32::from_bits(x.to_bits() - 1);
        let points = [Point::new([0.0, 0.0, 0.0]), Point::new([closer, closer, closer])];
        assert!(points[0].dist_sq(&points[1]) <= eps * eps);
        let grid = DenseGrid::build_in(&device(), &points, eps, 2).unwrap();
        assert_eq!(grid.num_dense_cells(), 1);
    }

    #[test]
    fn clustered_points_share_cell_and_become_dense() {
        // 10 points tightly packed plus 1 far away, minpts = 5.
        let mut points: Vec<Point<2>> =
            (0..10).map(|i| Point::new([0.01 * i as f32, 0.0])).collect();
        points.push(Point::new([100.0, 100.0]));
        let grid = DenseGrid::build(&device(), &points, 1.0, 5);
        assert!(grid.num_cells() >= 2);
        assert_eq!(grid.num_dense_cells(), 1);
        assert_eq!(grid.points_in_dense_cells(), 10);
        for c in 0..grid.num_cells() as u32 {
            let members = grid.cell_members(c);
            assert_eq!(grid.is_dense(c), members.contains(&0), "cell {c}: {members:?}");
            assert_eq!(members.contains(&10), members == [10], "cell {c}: {members:?}");
        }
    }

    #[test]
    fn cell_members_partition_points() {
        let mut rng = StdRng::seed_from_u64(5);
        let points: Vec<Point<2>> = (0..2000)
            .map(|_| Point::new([rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]))
            .collect();
        let grid = DenseGrid::build(&device(), &points, 0.5, 4);
        let mut seen = vec![false; points.len()];
        for c in 0..grid.num_cells() as u32 {
            for &id in grid.cell_members(c) {
                assert!(!seen[id as usize], "point {id} in two cells");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn members_lie_inside_cell_box() {
        let mut rng = StdRng::seed_from_u64(8);
        let points: Vec<Point<2>> = (0..500)
            .map(|_| Point::new([rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)]))
            .collect();
        let grid = DenseGrid::build(&device(), &points, 0.8, 3);
        for c in 0..grid.num_cells() as u32 {
            let cell_box = grid.cell_aabb(c);
            for &id in grid.cell_members(c) {
                let p = points[id as usize];
                // Allow boundary slack of one ulp-ish epsilon.
                assert!(
                    cell_box.dist_sq(&p) < 1e-8,
                    "point {p:?} outside its cell box {cell_box:?}"
                );
            }
        }
    }

    #[test]
    fn dense_classification_matches_counts() {
        let mut rng = StdRng::seed_from_u64(13);
        let points: Vec<Point<2>> = (0..1000)
            .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
            .collect();
        let minpts = 6;
        let grid = DenseGrid::build(&device(), &points, 1.0, minpts);
        let mut dense_points = 0;
        let mut dense_cells = 0;
        for c in 0..grid.num_cells() as u32 {
            let count = grid.cell_members(c).len();
            assert_eq!(grid.is_dense(c), count >= minpts);
            if count >= minpts {
                dense_cells += 1;
                dense_points += count;
            }
        }
        assert_eq!(grid.num_dense_cells(), dense_cells);
        assert_eq!(grid.points_in_dense_cells(), dense_points);
    }

    #[test]
    fn mixed_primitives_cover_everything_once() {
        let mut rng = StdRng::seed_from_u64(21);
        let points: Vec<Point<2>> = (0..800)
            .map(|_| Point::new([rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)]))
            .collect();
        let grid = DenseGrid::build(&device(), &points, 0.9, 10);
        let mixed = grid.mixed_primitives(&points);
        assert_eq!(mixed.bounds.len(), mixed.refs.len());

        let mut covered = vec![false; points.len()];
        for r in &mixed.refs {
            if r.is_cell() {
                assert!(grid.is_dense(r.index()));
                for &id in grid.cell_members(r.index()) {
                    assert!(!covered[id as usize]);
                    covered[id as usize] = true;
                }
            } else {
                let id = r.index() as usize;
                assert!(!covered[id]);
                covered[id] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn zero_eps_rejected() {
        DenseGrid::<2>::build(&device(), &[Point::new([0.0, 0.0])], 0.0, 2);
    }

    #[test]
    #[should_panic(expected = "minpts must be at least 1")]
    fn zero_minpts_rejected() {
        DenseGrid::<2>::build(&device(), &[Point::new([0.0, 0.0])], 1.0, 0);
    }

    #[test]
    fn bad_eps_cell_len_or_minpts_is_invalid_input() {
        let device = device();
        let points = [Point::new([0.0, 0.0]), Point::new([1.0, 1.0])];
        let expect = |built: Result<DenseGrid<2>, DeviceError>, what: &str| match built {
            Err(DeviceError::InvalidInput { reason }) => assert_eq!(reason, what),
            other => panic!("{what}: expected InvalidInput, got {other:?}"),
        };
        for bad in [0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let eps = "eps must be positive and finite";
            expect(DenseGrid::build_in(&device, &points, bad, 2), eps);
            expect(DenseGrid::build_with_cell_len_in(&device, &points, bad, 2), eps);
        }
        let minpts = "minpts must be at least 1";
        expect(DenseGrid::build_in(&device, &points, 1.0, 0), minpts);
        expect(DenseGrid::build_with_cell_len_in(&device, &points, 1.0, 0), minpts);
        // Rejected before any device work.
        assert_eq!(device.counters().snapshot().kernel_launches, 0);
    }

    #[test]
    fn unkeyable_axis_is_invalid_input() {
        // 3-D keys hold 21 bits per axis: 2^21 cells of edge 1e-3 span
        // about 2097 units, less than this extent.
        let points = [Point::new([0.0, 0.0, 0.0]), Point::new([3000.0, 0.0, 0.0])];
        let device = device();
        let err = DenseGrid::<3>::build_with_cell_len_in(&device, &points, 1e-3, 2).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidInput { .. }), "{err:?}");
    }

    #[test]
    fn build_is_four_launches() {
        // Fused pipeline: scene reduce + batched sort + directory batch +
        // dense census, regardless of worker count.
        let mut rng = StdRng::seed_from_u64(31);
        let points: Vec<Point<2>> = (0..4096)
            .map(|_| Point::new([rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]))
            .collect();
        for workers in [1usize, 3] {
            let device = Device::new(DeviceConfig::default().with_workers(workers));
            let before = device.counters().snapshot().kernel_launches;
            let grid = DenseGrid::build(&device, &points, 0.5, 4);
            assert!(grid.num_cells() > 0);
            let launches = device.counters().snapshot().kernel_launches - before;
            assert_eq!(launches, 4, "workers = {workers}");
        }
    }

    #[test]
    fn repeated_builds_release_their_scratch() {
        let device = device();
        let mut rng = StdRng::seed_from_u64(32);
        let points: Vec<Point<2>> = (0..3000)
            .map(|_| Point::new([rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)]))
            .collect();
        for _ in 0..3 {
            device.memory().reset_peak();
            let grid = DenseGrid::build_in(&device, &points, 0.4, 5).unwrap();
            assert!(grid.num_cells() > 1);
            assert_eq!(device.memory().in_use(), 0);
            assert_eq!(device.memory().peak(), DenseGrid::<2>::build_scratch_bytes(points.len()));
        }
    }

    #[test]
    fn boundary_point_lands_in_last_cell() {
        // Points exactly on the max corner must not index out of range.
        let points = [Point::new([0.0, 0.0]), Point::new([10.0, 10.0])];
        let grid = DenseGrid::build(&device(), &points, 1.0, 1);
        assert_eq!(grid.num_cells(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn same_cell_points_are_within_eps(
            seed in any::<u64>(),
            n in 1usize..300,
            eps in 0.05f32..3.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points: Vec<Point<2>> = (0..n)
                .map(|_| Point::new([rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]))
                .collect();
            let grid = DenseGrid::build(&device(), &points, eps, 2);
            // The defining property of the grid: any two points sharing a
            // cell are within eps of each other.
            for c in 0..grid.num_cells() as u32 {
                let members = grid.cell_members(c);
                for (k, &a) in members.iter().enumerate() {
                    for &b in &members[k + 1..] {
                        let d = points[a as usize].dist(&points[b as usize]);
                        prop_assert!(d <= eps * 1.0001, "cellmates at distance {d} > eps {eps}");
                    }
                }
            }
        }
    }
}
