//! Programmatic generators for the paper's benchmark circuit set.
//!
//! The paper evaluates on C17, a full adder, "C95", the 74LS181 ALU, and the
//! ISCAS-85 circuits C432, C499, C1355 and C1908. C17, the full adder and
//! the 74181 are implemented exactly; the larger ISCAS circuits are
//! distribution-restricted data, so this module builds functionally
//! representative surrogates of matching size and role (see `DESIGN.md` §4):
//!
//! | Generator            | Role                                             | PI / PO / gates (approx.) |
//! |----------------------|--------------------------------------------------|---------------------------|
//! | [`c17`]              | exact ISCAS-85 C17                               | 5 / 2 / 6                 |
//! | [`full_adder`]       | 1-bit full adder                                  | 3 / 2 / 5                 |
//! | [`c95`]              | 4-bit carry-lookahead adder slice ("C95")        | 9 / 5 / ~30               |
//! | [`alu74181`]         | exact SN74181 4-bit ALU (positive logic)         | 14 / 8 / ~75              |
//! | [`c432_surrogate`]   | 27-channel priority interrupt controller          | 36 / 7 / ~150             |
//! | [`c499_surrogate`]   | 32-bit single-error-correcting network (XOR-rich) | 41 / 32 / ~400            |
//! | [`c1355_surrogate`]  | C499 surrogate with XORs expanded to four NANDs   | 41 / 32 / ~900            |
//! | [`c1908_surrogate`]  | 16-bit SEC/DED network, NAND-expanded             | 25 / 18 / ~700            |
//!
//! Real ISCAS netlists can be loaded with [`crate::parse_bench`] and run
//! through the identical analyses.

mod alu181;
mod ecc;
mod priority;
mod random;
mod small;

pub use alu181::alu74181;
#[cfg(test)]
pub(crate) use ecc::c1908_pre_expansion;
pub use ecc::{c1355_surrogate, c1908_surrogate, c499_surrogate};
pub use priority::c432_surrogate;
pub use random::{random_circuit, RandomCircuitConfig};
pub use small::{c17, c95, full_adder};

use crate::circuit::Circuit;

/// The full benchmark suite in the paper's order (roughly increasing size):
/// C17, full adder, C95, 74181, C432, C499, C1355, C1908.
///
/// # Examples
///
/// ```
/// let suite = dp_netlist::generators::benchmark_suite();
/// assert_eq!(suite.len(), 8);
/// let sizes: Vec<usize> = suite.iter().map(|c| c.num_gates()).collect();
/// assert!(sizes[7] > sizes[0]);
/// ```
pub fn benchmark_suite() -> Vec<Circuit> {
    vec![
        c17(),
        full_adder(),
        c95(),
        alu74181(),
        c432_surrogate(),
        c499_surrogate(),
        c1355_surrogate(),
        c1908_surrogate(),
    ]
}

/// The built-in circuit called `name` (as [`Circuit::name`] reports it:
/// `c17`, `full_adder`, `c95`, `alu74181`, `c432s`, `c499s`, `c1355s`,
/// `c1908s`), or `None` for any other name.
///
/// # Examples
///
/// ```
/// use dp_netlist::generators::by_name;
///
/// assert_eq!(by_name("c432s").unwrap().name(), "c432s");
/// assert!(by_name("c432").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Circuit> {
    Some(match name {
        "c17" => c17(),
        "full_adder" => full_adder(),
        "c95" => c95(),
        "alu74181" => alu74181(),
        "c432s" => c432_surrogate(),
        "c499s" => c499_surrogate(),
        "c1355s" => c1355_surrogate(),
        "c1908s" => c1908_surrogate(),
        _ => return None,
    })
}

/// The small half of the suite (everything cheap enough for exhaustive
/// cross-validation against the bit-parallel simulator).
pub fn small_suite() -> Vec<Circuit> {
    vec![c17(), full_adder(), c95(), alu74181()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_returns_every_suite_circuit() {
        for c in benchmark_suite() {
            let named = by_name(c.name()).unwrap_or_else(|| panic!("{} not found", c.name()));
            assert_eq!(named.name(), c.name());
            assert_eq!(named.num_gates(), c.num_gates());
        }
    }
}
