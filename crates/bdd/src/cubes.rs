//! Cube and minterm enumeration: turning a complete test set into explicit
//! test vectors.
//!
//! Difference Propagation produces, for each fault, a BDD whose minterms are
//! *exactly* the tests detecting the fault. [`Cubes`] walks the BDD's 1-paths
//! (each path is a cube: a partial assignment whose completions are all
//! tests), and [`Minterms`] expands cubes into full vectors.

use crate::manager::{Manager, NodeId, Var};

/// A partial assignment: `values[v]` is `Some(bit)` if variable `v` is bound
/// on the 1-path, `None` if it is a don't-care.
///
/// # Examples
///
/// ```
/// use dp_bdd::Manager;
/// let mut m = Manager::new(2);
/// let a = m.var(0);
/// let cubes: Vec<_> = m.cubes(a).collect();
/// assert_eq!(cubes.len(), 1);
/// assert_eq!(cubes[0].get(0), Some(true));
/// assert_eq!(cubes[0].get(1), None);
/// assert_eq!(cubes[0].num_minterms(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cube {
    values: Vec<Option<bool>>,
}

impl Cube {
    /// The binding of variable `v`, or `None` for don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the originating manager.
    pub fn get(&self, v: Var) -> Option<bool> {
        self.values[v as usize]
    }

    /// Number of variables (bound or not) in the cube.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Number of bound literals.
    pub fn num_bound(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// Number of full minterms this cube covers (`2^unbound`).
    pub fn num_minterms(&self) -> u128 {
        1u128 << (self.num_vars() - self.num_bound())
    }

    /// Iterates the bound literals as `(var, value)` pairs.
    pub fn literals(&self) -> impl Iterator<Item = (Var, bool)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(v, b)| b.map(|bit| (v as Var, bit)))
    }

    /// One full vector consistent with the cube, don't-cares filled with
    /// `fill`.
    pub fn to_vector(&self, fill: bool) -> Vec<bool> {
        self.values.iter().map(|v| v.unwrap_or(fill)).collect()
    }
}

impl std::fmt::Display for Cube {
    /// Renders as a position string, e.g. `1-0` (var0=1, var1=don't care,
    /// var2=0).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for v in &self.values {
            let c = match v {
                Some(true) => '1',
                Some(false) => '0',
                None => '-',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Iterator over the 1-path cubes of a BDD. Produced by [`Manager::cubes`].
#[derive(Debug)]
pub struct Cubes<'a> {
    manager: &'a Manager,
    /// DFS stack of (node, partial assignment so far).
    stack: Vec<(NodeId, Vec<Option<bool>>)>,
}

impl Manager {
    /// Iterates the cubes (1-paths) of `f`.
    ///
    /// Every satisfying assignment of `f` is a completion of exactly one
    /// yielded cube, and every completion of a yielded cube satisfies `f`.
    pub fn cubes(&self, f: NodeId) -> Cubes<'_> {
        let root = vec![None; self.num_vars()];
        Cubes {
            manager: self,
            stack: if f.is_false() {
                vec![]
            } else {
                vec![(f, root)]
            },
        }
    }

    /// Iterates every satisfying full assignment of `f`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    /// let mut m = Manager::new(2);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let f = m.or(a, b);
    /// assert_eq!(m.minterms(f).count(), 3);
    /// ```
    pub fn minterms(&self, f: NodeId) -> Minterms<'_> {
        Minterms {
            cubes: self.cubes(f),
            current: None,
        }
    }
}

impl Iterator for Cubes<'_> {
    type Item = Cube;

    fn next(&mut self) -> Option<Cube> {
        while let Some((node, values)) = self.stack.pop() {
            if node.is_true() {
                return Some(Cube { values });
            }
            if node.is_false() {
                continue;
            }
            let var = self.manager.node_var(node) as usize;
            let lo = self.manager.node_lo(node);
            let hi = self.manager.node_hi(node);
            if !hi.is_false() {
                let mut v = values.clone();
                v[var] = Some(true);
                self.stack.push((hi, v));
            }
            if !lo.is_false() {
                let mut v = values;
                v[var] = Some(false);
                self.stack.push((lo, v));
            }
        }
        None
    }
}

/// Iterator over full satisfying assignments. Produced by
/// [`Manager::minterms`].
#[derive(Debug)]
pub struct Minterms<'a> {
    cubes: Cubes<'a>,
    /// Expansion state: the current cube, the indices of its free variables,
    /// and the enumeration counter over them.
    current: Option<(Cube, Vec<usize>, u64)>,
}

impl Iterator for Minterms<'_> {
    type Item = Vec<bool>;

    fn next(&mut self) -> Option<Vec<bool>> {
        loop {
            if let Some((cube, free, counter)) = &mut self.current {
                if (*counter as u128) < (1u128 << free.len()) {
                    let mut v = cube.to_vector(false);
                    for (bit, &idx) in free.iter().enumerate() {
                        v[idx] = *counter >> bit & 1 == 1;
                    }
                    *counter += 1;
                    return Some(v);
                }
                self.current = None;
            }
            let cube = self.cubes.next()?;
            let free: Vec<usize> = (0..cube.num_vars())
                .filter(|&i| cube.values[i].is_none())
                .collect();
            assert!(
                free.len() < 64,
                "minterm expansion over {} free variables is intractable",
                free.len()
            );
            self.current = Some((cube, free, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubes_of_constants() {
        let m = Manager::new(2);
        assert_eq!(m.cubes(NodeId::FALSE).count(), 0);
        let cubes: Vec<_> = m.cubes(NodeId::TRUE).collect();
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].num_bound(), 0);
        assert_eq!(cubes[0].num_minterms(), 4);
    }

    #[test]
    fn cube_display() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let nc = m.nvar(2);
        let f = m.and(a, nc);
        let cubes: Vec<_> = m.cubes(f).collect();
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].to_string(), "1-0");
    }

    #[test]
    fn cubes_partition_minterms() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let d = m.var(3);
        let ab = m.and(a, b);
        let cd = m.and(c, d);
        let f = m.or(ab, cd);
        let total: u128 = m.cubes(f).map(|c| c.num_minterms()).sum();
        assert_eq!(total, m.sat_count(f));
    }

    #[test]
    fn minterms_are_exactly_the_models() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.xor(a, b);
        let f = m.or(ab, c);
        let mut got: Vec<Vec<bool>> = m.minterms(f).collect();
        got.sort();
        got.dedup();
        assert_eq!(got.len() as u128, m.sat_count(f));
        for v in &got {
            assert!(m.eval(f, v));
        }
    }

    #[test]
    fn cube_literals_roundtrip() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let nb = m.nvar(1);
        let f = m.and(a, nb);
        let cube = m.cubes(f).next().unwrap();
        let lits: Vec<_> = cube.literals().collect();
        assert_eq!(lits, vec![(0, true), (1, false)]);
        let v = cube.to_vector(true);
        assert_eq!(v, vec![true, false, true]);
    }
}
