//! Correctness of every measured clustering, against a reference computed
//! once per distinct input during set-up.
//!
//! The reference is `fdbscan_kdtree` on a sequential device: a different
//! index (a host-built k-d tree) and a different traversal from every
//! program path the benchmark measures. A measured result must have the
//! reference's core and noise sets, the reference's partition of the core
//! points, and every border point attached to a cluster that has a core
//! point within ε of it. Mismatches are returned, never panicked on, so
//! they count toward the failure fraction.

use std::ops::ControlFlow;

use fdbscan::{fdbscan_kdtree, Clustering, Params, PointClass};
use fdbscan_device::{Device, DeviceConfig};
use fdbscan_geom::Point;
use fdbscan_kdtree::KdTree;

pub struct Reference {
    clustering: Clustering,
    /// CSR over points: `allowed[offsets[i]..offsets[i + 1]]` holds the
    /// sorted reference cluster ids of the core points within ε of border
    /// point `i` (empty for core and noise points).
    offsets: Vec<u32>,
    allowed: Vec<u32>,
}

impl Reference {
    pub fn compute<const D: usize>(points: &[Point<D>], params: Params) -> Self {
        let device = Device::new(DeviceConfig::sequential().with_bvh_width(2));
        let (clustering, _) =
            fdbscan_kdtree(&device, points, params).expect("reference run on an unbudgeted device");
        let tree = KdTree::build(points);
        let mut offsets = Vec::with_capacity(points.len() + 1);
        let mut allowed = Vec::new();
        let mut near = Vec::new();
        offsets.push(0);
        for (i, p) in points.iter().enumerate() {
            if clustering.classes[i] == PointClass::Border {
                near.clear();
                tree.for_each_in_radius(p, params.eps, 0, |_, j| {
                    if clustering.classes[j as usize] == PointClass::Core {
                        near.push(clustering.assignments[j as usize] as u32);
                    }
                    ControlFlow::Continue(())
                });
                near.sort_unstable();
                near.dedup();
                allowed.extend_from_slice(&near);
            }
            offsets.push(allowed.len() as u32);
        }
        Self { clustering, offsets, allowed }
    }

    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// `Ok` when `got` is an admissible DBSCAN result for this input.
    pub fn check(&self, got: &Clustering) -> Result<(), String> {
        let want = &self.clustering;
        if got.len() != want.len() {
            return Err(format!("{} labels for {} points", got.len(), want.len()));
        }
        if got.num_clusters != want.num_clusters {
            return Err(format!("{} clusters, reference {}", got.num_clusters, want.num_clusters));
        }
        for i in 0..want.len() {
            let (g, w) = (got.classes[i], want.classes[i]);
            if (g == PointClass::Core) != (w == PointClass::Core)
                || (g == PointClass::Noise) != (w == PointClass::Noise)
            {
                return Err(format!("point {i} is {g:?}, reference {w:?}"));
            }
        }
        // The core partitions must correspond one to one.
        const UNSET: i64 = -1;
        let mut to_ref = vec![UNSET; got.num_clusters];
        let mut from_ref = vec![UNSET; want.num_clusters];
        for i in 0..want.len() {
            if want.classes[i] != PointClass::Core {
                continue;
            }
            let (g, w) = (got.assignments[i], want.assignments[i]);
            if g < 0 || g as usize >= got.num_clusters {
                return Err(format!("core point {i} has cluster id {g}"));
            }
            let (gu, wu) = (g as usize, w as usize);
            if to_ref[gu] == UNSET && from_ref[wu] == UNSET {
                to_ref[gu] = w;
                from_ref[wu] = g;
            } else if to_ref[gu] != w || from_ref[wu] != g {
                return Err(format!("core point {i} breaks the cluster correspondence"));
            }
        }
        for i in 0..want.len() {
            if want.classes[i] != PointClass::Border {
                continue;
            }
            let g = got.assignments[i];
            let mapped =
                if g >= 0 && (g as usize) < got.num_clusters { to_ref[g as usize] } else { UNSET };
            let allowed = &self.allowed[self.offsets[i] as usize..self.offsets[i + 1] as usize];
            if mapped == UNSET || allowed.binary_search(&(mapped as u32)).is_err() {
                return Err(format!(
                    "border point {i} joined cluster {g}, which has no core within eps"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{cosmo_params, Workload, SERVICE_KINDS};
    use fdbscan::labels::assert_core_equivalent;
    use fdbscan::seq::dbscan_canonical;
    use fdbscan_data::cosmology::default_snapshot;
    use fdbscan_data::Dataset2;

    fn agrees_with_canonical<const D: usize>(points: &[Point<D>], params: Params) {
        let reference = Reference::compute(points, params);
        let canonical = dbscan_canonical(points, params);
        assert_core_equivalent(reference.clustering(), &canonical);
        // The canonical border tie-break is admissible too.
        reference.check(&canonical).unwrap();
        reference.check(reference.clustering()).unwrap();
    }

    /// The reference agrees with the sequential oracle on every workload's
    /// generator and parameter rule, at oracle-sized inputs.
    #[test]
    fn reference_is_core_equivalent_to_canonical() {
        let n = 3000;
        for seed in [1, 2] {
            let halo = Workload::Halo3d;
            agrees_with_canonical(&default_snapshot(n, seed), halo.params(n));
            let taxi = Workload::Taxi2d;
            agrees_with_canonical(&Dataset2::PortoTaxi.generate(n, seed), taxi.params(n));
            for kind in SERVICE_KINDS {
                let m = kind.n.min(n);
                if kind.cosmology {
                    agrees_with_canonical(&default_snapshot(m, seed), cosmo_params(m));
                } else {
                    agrees_with_canonical(&Dataset2::PortoTaxi.generate(m, seed), kind.params(m));
                }
            }
        }
    }

    #[test]
    fn check_rejects_wrong_clusterings() {
        let points = Dataset2::PortoTaxi.generate(2000, 5);
        let params = Params::new(0.01, 20);
        let reference = Reference::compute(&points, params);
        let good = reference.clustering().clone();
        assert!(good.num_clusters >= 2, "need two clusters to corrupt");
        assert!(good.num_border() > 0, "need a border point to corrupt");

        let mut demoted = good.clone();
        let core = demoted.classes.iter().position(|c| *c == PointClass::Core).unwrap();
        demoted.classes[core] = PointClass::Border;
        assert!(reference.check(&demoted).unwrap_err().contains("reference Core"));

        let mut merged = good.clone();
        for a in merged.assignments.iter_mut() {
            if *a == 1 {
                *a = 0;
            }
        }
        assert!(reference.check(&merged).unwrap_err().contains("correspondence"));

        // Move one border point to a cluster with no core within eps.
        let mut stray = good.clone();
        let b = stray.classes.iter().position(|c| *c == PointClass::Border).unwrap();
        let allowed =
            &reference.allowed[reference.offsets[b] as usize..reference.offsets[b + 1] as usize];
        let far = (0..good.num_clusters as u32).find(|c| !allowed.contains(c)).unwrap();
        stray.assignments[b] = far as i64;
        assert!(reference.check(&stray).unwrap_err().contains("border point"));

        let mut short = good;
        short.num_clusters += 1;
        assert!(reference.check(&short).is_err());
    }
}
