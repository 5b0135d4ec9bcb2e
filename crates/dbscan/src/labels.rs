//! Clustering output and label postprocessing.

/// The cluster id assigned to noise points.
pub const NOISE: i64 = -1;

/// Classification of a point under DBSCAN (paper §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointClass {
    /// `|N_eps(x)| >= minpts`.
    Core,
    /// Density-reachable from a core point but not core itself.
    Border,
    /// Neither core nor border.
    Noise,
}

/// The result of a DBSCAN run.
#[derive(Clone, Debug, PartialEq)]
pub struct Clustering {
    /// Compact cluster id per point (`0..num_clusters`), or [`NOISE`].
    pub assignments: Vec<i64>,
    /// Number of clusters found.
    pub num_clusters: usize,
    /// Core/border/noise classification per point.
    pub classes: Vec<PointClass>,
}

impl Clustering {
    /// Builds the final clustering from flattened union-find labels and
    /// core flags (the postprocessing step shared by every parallel
    /// algorithm in this crate).
    ///
    /// Expects `labels` to be *flattened*: each entry points directly at
    /// its set representative. Clusters are numbered in order of first
    /// appearance, so the output is deterministic given the labels.
    ///
    /// Rules:
    /// * a core point belongs to the cluster of its representative,
    /// * a non-core point with `labels[i] != i` was claimed by a cluster —
    ///   it is a border point of that cluster,
    /// * a non-core point with `labels[i] == i` is noise.
    pub fn from_union_find(labels: &[u32], core: &[bool]) -> Self {
        assert_eq!(labels.len(), core.len());
        let n = labels.len();
        let mut assignments = vec![NOISE; n];
        let mut classes = vec![PointClass::Noise; n];
        // Map from representative index to compact cluster id.
        const UNSET: u32 = u32::MAX;
        let mut id_of_root = vec![UNSET; n];
        let mut next = 0u32;

        // First pass: number clusters by their core points.
        for i in 0..n {
            if core[i] {
                let root = labels[i] as usize;
                if id_of_root[root] == UNSET {
                    id_of_root[root] = next;
                    next += 1;
                }
                assignments[i] = id_of_root[root] as i64;
                classes[i] = PointClass::Core;
            }
        }
        // Second pass: borders point at a core representative.
        for i in 0..n {
            if !core[i] && labels[i] != i as u32 {
                let root = labels[i] as usize;
                debug_assert_ne!(id_of_root[root], UNSET, "border attached to a non-cluster");
                assignments[i] = id_of_root[root] as i64;
                classes[i] = PointClass::Border;
            }
        }
        Self { assignments, num_clusters: next as usize, classes }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the clustering is over an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Number of noise points.
    pub fn num_noise(&self) -> usize {
        self.classes.iter().filter(|c| **c == PointClass::Noise).count()
    }

    /// Number of core points.
    pub fn num_core(&self) -> usize {
        self.classes.iter().filter(|c| **c == PointClass::Core).count()
    }

    /// Number of border points.
    pub fn num_border(&self) -> usize {
        self.classes.iter().filter(|c| **c == PointClass::Border).count()
    }

    /// Sizes of each cluster, indexed by cluster id.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters];
        for &a in &self.assignments {
            if a >= 0 {
                sizes[a as usize] += 1;
            }
        }
        sizes
    }
}

impl std::fmt::Display for Clustering {
    /// One-line summary: `5 clusters | 840 core | 55 border | 105 noise`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} clusters | {} core | {} border | {} noise",
            self.num_clusters,
            self.num_core(),
            self.num_border(),
            self.num_noise()
        )
    }
}

/// Checks that two clusterings are equivalent up to DBSCAN's inherent
/// nondeterminism (cluster numbering and border-point tie-breaking).
///
/// Requirements (panics with a descriptive message on violation):
/// * identical core classification,
/// * identical noise sets (a point is border in one iff border in the
///   other),
/// * the partitions induced on *core points* are identical (checked via a
///   consistent bijection between cluster ids).
///
/// Border points may legitimately differ in *which* adjacent cluster they
/// joined, so their assignment is only checked for cluster validity by
/// the caller (who knows the geometry).
pub fn assert_core_equivalent(a: &Clustering, b: &Clustering) {
    assert_eq!(a.len(), b.len(), "clusterings over different point counts");
    for i in 0..a.len() {
        let ca = a.classes[i] == PointClass::Core;
        let cb = b.classes[i] == PointClass::Core;
        assert_eq!(ca, cb, "core status disagrees at point {i}");
        let na = a.classes[i] == PointClass::Noise;
        let nb = b.classes[i] == PointClass::Noise;
        assert_eq!(na, nb, "noise status disagrees at point {i}");
    }
    assert_eq!(a.num_clusters, b.num_clusters, "cluster counts disagree");
    // Core partition equality via bijection.
    let mut a_to_b = vec![i64::MIN; a.num_clusters];
    let mut b_to_a = vec![i64::MIN; b.num_clusters];
    for i in 0..a.len() {
        if a.classes[i] != PointClass::Core {
            continue;
        }
        let ca = a.assignments[i] as usize;
        let cb = b.assignments[i] as usize;
        if a_to_b[ca] == i64::MIN {
            a_to_b[ca] = cb as i64;
            assert_eq!(b_to_a[cb], i64::MIN, "two clusters of A map into one cluster of B");
            b_to_a[cb] = ca as i64;
        } else {
            assert_eq!(a_to_b[ca], cb as i64, "core point {i} breaks the cluster bijection");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_clustering() {
        let c = Clustering::from_union_find(&[], &[]);
        assert!(c.is_empty());
        assert_eq!(c.num_clusters, 0);
    }

    #[test]
    fn all_noise() {
        let labels = vec![0, 1, 2];
        let core = vec![false, false, false];
        let c = Clustering::from_union_find(&labels, &core);
        assert_eq!(c.assignments, vec![NOISE; 3]);
        assert_eq!(c.num_noise(), 3);
        assert_eq!(c.num_clusters, 0);
    }

    #[test]
    fn one_cluster_with_border() {
        // Points 0,1 core in one set rooted at 0; point 2 is a border
        // claimed by root 0; point 3 is noise.
        let labels = vec![0, 0, 0, 3];
        let core = vec![true, true, false, false];
        let c = Clustering::from_union_find(&labels, &core);
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.assignments, vec![0, 0, 0, NOISE]);
        assert_eq!(c.classes[2], PointClass::Border);
        assert_eq!(c.classes[3], PointClass::Noise);
        assert_eq!(c.cluster_sizes(), vec![3]);
    }

    #[test]
    fn cluster_ids_are_first_appearance_order() {
        // Two clusters rooted at 5 and 0, encountered in index order:
        // point 0 (root 5) first => cluster 0 is root 5's.
        let labels = vec![5, 0, 5, 0, 5, 5];
        let core = vec![true, true, true, true, true, true];
        let c = Clustering::from_union_find(&labels, &core);
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.assignments, vec![0, 1, 0, 1, 0, 0]);
    }

    #[test]
    fn singleton_core_cluster() {
        // minpts = 1 semantics: an isolated core point is its own cluster.
        let labels = vec![0];
        let core = vec![true];
        let c = Clustering::from_union_find(&labels, &core);
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.assignments, vec![0]);
    }

    #[test]
    fn display_summarizes_population() {
        let labels = vec![0, 0, 0, 3];
        let core = vec![true, true, false, false];
        let c = Clustering::from_union_find(&labels, &core);
        assert_eq!(c.to_string(), "1 clusters | 2 core | 1 border | 1 noise");
    }

    #[test]
    fn counts_add_up() {
        let labels = vec![0, 0, 2, 2, 0, 5];
        let core = vec![true, true, true, false, false, false];
        let c = Clustering::from_union_find(&labels, &core);
        assert_eq!(c.num_core() + c.num_border() + c.num_noise(), 6);
        assert_eq!(c.num_core(), 3);
        assert_eq!(c.num_border(), 2);
        assert_eq!(c.num_noise(), 1);
    }

    #[test]
    fn equivalence_accepts_renumbering() {
        let a = Clustering {
            assignments: vec![0, 0, 1, NOISE],
            num_clusters: 2,
            classes: vec![PointClass::Core, PointClass::Core, PointClass::Core, PointClass::Noise],
        };
        let b = Clustering {
            assignments: vec![1, 1, 0, NOISE],
            num_clusters: 2,
            classes: a.classes.clone(),
        };
        assert_core_equivalent(&a, &b);
    }

    #[test]
    #[should_panic(expected = "map into one cluster")]
    fn equivalence_rejects_merged_clusters() {
        let a = Clustering {
            assignments: vec![0, 1],
            num_clusters: 2,
            classes: vec![PointClass::Core, PointClass::Core],
        };
        let b = Clustering {
            assignments: vec![0, 0],
            num_clusters: 2, // lie about the count to reach the bijection check
            classes: vec![PointClass::Core, PointClass::Core],
        };
        assert_core_equivalent(&a, &b);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Generates a plausible post-flatten state: a set of core roots,
        /// core points pointing at roots, non-core points either claimed
        /// (pointing at a root) or untouched (self-labeled).
        fn arb_flattened() -> impl Strategy<Value = (Vec<u32>, Vec<bool>)> {
            (2usize..120).prop_flat_map(|n| {
                (
                    proptest::collection::vec(any::<bool>(), n),
                    proptest::collection::vec(0usize..n, n),
                    proptest::collection::vec(any::<bool>(), n),
                )
                    .prop_map(move |(core_mask, root_choice, claimed)| {
                        // Roots are the core points that chose themselves
                        // as root candidates; ensure at least one root if
                        // any core exists by making the first core point a
                        // root.
                        let mut core = core_mask;
                        let roots: Vec<u32> = core
                            .iter()
                            .enumerate()
                            .filter(|(_, &c)| c)
                            .map(|(i, _)| i as u32)
                            .collect();
                        let mut labels: Vec<u32> = (0..core.len() as u32).collect();
                        if roots.is_empty() {
                            // No cores at all: nothing points anywhere.
                            return (labels, core);
                        }
                        for i in 0..core.len() {
                            if core[i] || claimed[i] {
                                labels[i] = roots[root_choice[i] % roots.len()];
                            }
                        }
                        // Roots must be self-labeled (they are the
                        // representatives of their own sets).
                        for &r in &roots {
                            if labels.iter().enumerate().any(|(j, &l)| l == r && j as u32 != r) {
                                labels[r as usize] = r;
                                core[r as usize] = true;
                            }
                        }
                        (labels, core)
                    })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn from_union_find_invariants((labels, core) in arb_flattened()) {
                let c = Clustering::from_union_find(&labels, &core);
                // Ids are compact.
                for &a in &c.assignments {
                    prop_assert!(a == NOISE || (a as usize) < c.num_clusters);
                }
                // Every cluster id is used.
                let mut used = vec![false; c.num_clusters];
                for &a in &c.assignments {
                    if a >= 0 {
                        used[a as usize] = true;
                    }
                }
                prop_assert!(used.iter().all(|&u| u));
                // Classes and assignments are consistent.
                for ((class, &is_core), &assignment) in
                    c.classes.iter().zip(&core).zip(&c.assignments)
                {
                    match class {
                        PointClass::Core => {
                            prop_assert!(is_core);
                            prop_assert!(assignment >= 0);
                        }
                        PointClass::Border => {
                            prop_assert!(!is_core);
                            prop_assert!(assignment >= 0);
                        }
                        PointClass::Noise => {
                            prop_assert!(!is_core);
                            prop_assert_eq!(assignment, NOISE);
                        }
                    }
                }
                // Points sharing a representative share a cluster.
                for i in 0..c.len() {
                    for j in 0..c.len() {
                        if core[i] && core[j] && labels[i] == labels[j] {
                            prop_assert_eq!(c.assignments[i], c.assignments[j]);
                        }
                    }
                }
                // Population counts add up.
                prop_assert_eq!(c.num_core() + c.num_border() + c.num_noise(), c.len());
                prop_assert_eq!(
                    c.cluster_sizes().iter().sum::<usize>() + c.num_noise(),
                    c.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "core status disagrees")]
    fn equivalence_rejects_core_mismatch() {
        let a =
            Clustering { assignments: vec![0], num_clusters: 1, classes: vec![PointClass::Core] };
        let b =
            Clustering { assignments: vec![0], num_clusters: 1, classes: vec![PointClass::Border] };
        assert_core_equivalent(&a, &b);
    }
}
