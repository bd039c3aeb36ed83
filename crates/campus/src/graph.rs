use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use mobigrid_geo::{Point, Polyline};

use crate::CampusError;

/// Identifier of a waypoint in a [`WaypointGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// The walkable waypoint graph of a campus: gates, road junctions and
/// building entrances joined by edges along roads and walkways.
///
/// Linear-movement nodes route through this graph with Dijkstra's algorithm;
/// routes come back as [`Polyline`]s ready for arc-length traversal by the
/// mobility models.
///
/// # Examples
///
/// ```
/// use mobigrid_campus::WaypointGraph;
/// use mobigrid_geo::Point;
///
/// let mut g = WaypointGraph::new();
/// let a = g.add_node(Point::new(0.0, 0.0));
/// let b = g.add_node(Point::new(10.0, 0.0));
/// let c = g.add_node(Point::new(10.0, 10.0));
/// g.add_edge(a, b).unwrap();
/// g.add_edge(b, c).unwrap();
///
/// let path = g.shortest_path(a, c).unwrap();
/// assert_eq!(path.length(), 20.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WaypointGraph {
    points: Vec<Point>,
    adjacency: Vec<Vec<(usize, f64)>>,
}

impl WaypointGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        WaypointGraph::default()
    }

    /// Adds a waypoint at `point` and returns its id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        self.points.push(point);
        self.adjacency.push(Vec::new());
        NodeId(self.points.len() - 1)
    }

    /// Adds an undirected edge between `a` and `b`, weighted by Euclidean
    /// distance.
    ///
    /// # Errors
    ///
    /// Returns [`CampusError::UnknownNode`] when either endpoint does not
    /// exist.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), CampusError> {
        if a.0 >= self.points.len() || b.0 >= self.points.len() {
            return Err(CampusError::UnknownNode);
        }
        let w = self.points[a.0].distance_to(self.points[b.0]);
        self.adjacency[a.0].push((b.0, w));
        self.adjacency[b.0].push((a.0, w));
        Ok(())
    }

    /// Number of waypoints.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// The location of waypoint `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this graph.
    #[must_use]
    pub fn point(&self, id: NodeId) -> Point {
        self.points[id.0]
    }

    /// Iterates over every waypoint id in the graph.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.points.len()).map(NodeId)
    }

    /// Shortest path from `from` to `to` as a polyline through waypoint
    /// locations, or `None` when unreachable. A path from a node to itself
    /// is `None` (there is no line to walk).
    #[must_use]
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Polyline> {
        let nodes = self.shortest_path_nodes(from, to)?;
        if nodes.len() < 2 {
            return None;
        }
        let pts: Vec<Point> = nodes.iter().map(|n| self.points[n.0]).collect();
        Some(Polyline::new(pts).expect("path has >= 2 waypoints"))
    }

    /// Shortest path as the sequence of waypoints visited (including both
    /// endpoints), or `None` when unreachable.
    #[must_use]
    pub fn shortest_path_nodes(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let n = self.points.len();
        if from.0 >= n || to.0 >= n {
            return None;
        }

        #[derive(PartialEq)]
        struct State {
            cost: f64,
            node: usize,
        }
        impl Eq for State {}
        impl Ord for State {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap by cost, tie-broken by node index for determinism.
                other
                    .cost
                    .partial_cmp(&self.cost)
                    .expect("finite costs")
                    .then_with(|| other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for State {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[from.0] = 0.0;
        heap.push(State {
            cost: 0.0,
            node: from.0,
        });

        while let Some(State { cost, node }) = heap.pop() {
            if node == to.0 {
                break;
            }
            if cost > dist[node] {
                continue;
            }
            for &(next, w) in &self.adjacency[node] {
                let nd = cost + w;
                if nd < dist[next] {
                    dist[next] = nd;
                    prev[next] = node;
                    heap.push(State {
                        cost: nd,
                        node: next,
                    });
                }
            }
        }

        if dist[to.0].is_infinite() {
            return None;
        }
        let mut path = vec![to.0];
        let mut cur = to.0;
        while cur != from.0 {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path.into_iter().map(NodeId).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diamond: a-b-d is longer than a-c-d.
    fn diamond() -> (WaypointGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = WaypointGraph::new();
        let a = g.add_node(Point::new(0.0, 0.0));
        let b = g.add_node(Point::new(0.0, 10.0));
        let c = g.add_node(Point::new(5.0, 0.0));
        let d = g.add_node(Point::new(10.0, 0.0));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(c, d).unwrap();
        (g, a, b, c, d)
    }

    #[test]
    fn shortest_path_picks_cheaper_route() {
        let (g, a, _b, c, d) = diamond();
        let nodes = g.shortest_path_nodes(a, d).unwrap();
        assert_eq!(nodes, vec![a, c, d]);
        let line = g.shortest_path(a, d).unwrap();
        assert_eq!(line.length(), 10.0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = WaypointGraph::new();
        let a = g.add_node(Point::new(0.0, 0.0));
        let b = g.add_node(Point::new(1.0, 0.0));
        assert!(g.shortest_path(a, b).is_none());
    }

    #[test]
    fn self_path_is_none() {
        let (g, a, ..) = diamond();
        assert!(g.shortest_path(a, a).is_none());
    }

    #[test]
    fn edge_to_unknown_node_errors() {
        let mut g = WaypointGraph::new();
        let a = g.add_node(Point::ORIGIN);
        let ghost = NodeId(99);
        assert_eq!(g.add_edge(a, ghost), Err(CampusError::UnknownNode));
    }

    #[test]
    fn counts_track_structure() {
        let (g, ..) = diamond();
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn path_on_chain_traverses_all_nodes() {
        let mut g = WaypointGraph::new();
        let nodes: Vec<NodeId> = (0..5)
            .map(|i| g.add_node(Point::new(f64::from(i) * 2.0, 0.0)))
            .collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let path = g.shortest_path_nodes(nodes[0], nodes[4]).unwrap();
        assert_eq!(path.len(), 5);
        assert_eq!(g.shortest_path(nodes[0], nodes[4]).unwrap().length(), 8.0);
    }
}
