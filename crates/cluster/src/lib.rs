//! Clustering substrate for the mobigrid workspace.
//!
//! The adaptive distance filter groups moving nodes into clusters of similar
//! velocity and direction using **sequential clustering** (the basic
//! sequential algorithmic scheme, BSAS, of Theodoridis & Koutroumbas — the
//! paper’s citation \[10\]): each item joins the nearest existing cluster if
//! its dissimilarity `d(MN, C)` is below the similarity bound α, otherwise a
//! new cluster is opened. Per-cluster statistics (mean feature values) then
//! drive the per-cluster distance thresholds.
//!
//! * [`Bsas`] — one-shot sequential clustering over a batch of items,
//! * [`OnlineBsas`] — incremental variant with running centroids,
//! * [`Clustering`] — the assignment + centroid result of a batch pass.
//!
//! # Examples
//!
//! ```
//! use mobigrid_cluster::Bsas;
//!
//! // 1-D velocity features: two walkers, two vehicles.
//! let velocities = vec![vec![1.2], vec![1.4], vec![8.0], vec![8.5]];
//! let clustering = Bsas::new(2.0).cluster(&velocities);
//! assert_eq!(clustering.cluster_count(), 2);
//! assert_eq!(clustering.assignment(0), clustering.assignment(1));
//! assert_ne!(clustering.assignment(0), clustering.assignment(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bsas;
mod clustering;
mod distance;

pub use bsas::{Bsas, OnlineBsas};
pub use clustering::Clustering;
pub use distance::euclidean;
