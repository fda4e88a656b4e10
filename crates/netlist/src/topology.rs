//! The paper's layout estimate (§2.2).
//!
//! No layout exists for the benchmark netlists, so the paper approximates
//! wire positions from structure alone:
//!
//! * the **X** coordinate of a gate is its distance *in levels* from the
//!   primary inputs;
//! * the **Y** coordinates of the *n* PIs are `0 .. n-1` in declared order;
//!   then, level by level, each gate's Y is the **average of the Y
//!   coordinates of all the gates feeding it** — "the aggregate of all
//!   possible layouts for that PI ordering".
//!
//! Distances between two nets use the standard 2-D Euclidean metric and are
//! normalised to the largest distance among the potentially detectable
//! bridging-fault pairs (normalisation lives in the fault-sampling crate,
//! which knows the fault set).

use crate::circuit::{Circuit, Driver, NetId};

/// A 2-D estimated position of a net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Levels from the primary inputs.
    pub x: f64,
    /// Averaged vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to another point.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_netlist::Point;
    /// let a = Point { x: 0.0, y: 0.0 };
    /// let b = Point { x: 3.0, y: 4.0 };
    /// assert_eq!(a.distance(b), 5.0);
    /// ```
    pub fn distance(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Estimated placement of every net of a circuit, per the paper's model.
///
/// # Examples
///
/// ```
/// use dp_netlist::{generators::c17, Placement};
/// let c = c17();
/// let p = Placement::estimate(&c);
/// let first_pi = c.inputs()[0];
/// assert_eq!(p.point(first_pi).y, 0.0);
/// assert_eq!(p.point(first_pi).x, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Placement {
    points: Vec<Point>,
}

impl Placement {
    /// Computes the placement estimate for a circuit.
    pub fn estimate(circuit: &Circuit) -> Self {
        let levels = circuit.levels_from_inputs();
        let mut points = vec![Point { x: 0.0, y: 0.0 }; circuit.num_nets()];
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            points[pi.index()] = Point {
                x: 0.0,
                y: i as f64,
            };
        }
        // Nets are stored topologically, so fanin points are final when a
        // gate is visited.
        for n in circuit.gates() {
            if let Driver::Gate { fanins, .. } = circuit.driver(n) {
                let y =
                    fanins.iter().map(|f| points[f.index()].y).sum::<f64>() / fanins.len() as f64;
                points[n.index()] = Point {
                    x: levels[n.index()] as f64,
                    y,
                };
            }
        }
        Placement { points }
    }

    /// The estimated position of a net.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for the circuit this placement was
    /// estimated from.
    pub fn point(&self, n: NetId) -> Point {
        self.points[n.index()]
    }

    /// Euclidean distance between two nets under the estimate.
    pub fn distance(&self, a: NetId, b: NetId) -> f64 {
        self.point(a).distance(self.point(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CircuitBuilder, GateKind};

    #[test]
    fn pis_are_stacked_in_declared_order() {
        let mut b = CircuitBuilder::new("t");
        let p0 = b.input("p0");
        let p1 = b.input("p1");
        let p2 = b.input("p2");
        let g = b.gate("g", GateKind::And, &[p0, p2]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let pl = Placement::estimate(&c);
        assert_eq!(pl.point(p0).y, 0.0);
        assert_eq!(pl.point(p1).y, 1.0);
        assert_eq!(pl.point(p2).y, 2.0);
        // g averages p0 and p2.
        assert_eq!(pl.point(g).y, 1.0);
        assert_eq!(pl.point(g).x, 1.0);
    }

    #[test]
    fn deeper_gates_average_their_fanins() {
        let mut b = CircuitBuilder::new("t");
        let p0 = b.input("p0"); // y = 0
        let p1 = b.input("p1"); // y = 1
        let p2 = b.input("p2"); // y = 2
        let g1 = b.gate("g1", GateKind::Or, &[p0, p1]).unwrap(); // y = 0.5
        let g2 = b.gate("g2", GateKind::And, &[g1, p2]).unwrap(); // y = 1.25
        b.output(g2);
        let c = b.finish().unwrap();
        let pl = Placement::estimate(&c);
        assert_eq!(pl.point(g1).y, 0.5);
        assert_eq!(pl.point(g2).y, 1.25);
        assert_eq!(pl.point(g2).x, 2.0);
    }

    #[test]
    fn distance_is_euclidean() {
        let mut b = CircuitBuilder::new("t");
        let p0 = b.input("p0");
        let p1 = b.input("p1");
        let g = b.gate("g", GateKind::And, &[p0, p1]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let pl = Placement::estimate(&c);
        // p0 at (0,0), p1 at (0,1): distance 1.
        assert_eq!(pl.distance(p0, p1), 1.0);
        assert_eq!(pl.distance(p0, p0), 0.0);
    }
}
