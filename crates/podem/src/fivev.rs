//! Five-valued test-generation logic as good/faulty ternary pairs.
//!
//! The classical PODEM alphabet `{0, 1, X, D, D̄}` is the composite of a
//! good-machine and a faulty-machine ternary value: `D = (1, 0)`,
//! `D̄ = (0, 1)`. Keeping the pair explicit makes gate evaluation a plain
//! three-valued evaluation applied twice, which is easy to verify.

use dp_netlist::GateKind;

/// A ternary logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tern {
    /// Definite 0.
    Zero,
    /// Definite 1.
    One,
    /// Unassigned / unknown.
    X,
}

impl Tern {
    /// Converts a Boolean.
    pub fn from_bool(b: bool) -> Tern {
        if b {
            Tern::One
        } else {
            Tern::Zero
        }
    }

    /// `true` if the value is 0 or 1.
    pub fn is_determined(self) -> bool {
        self != Tern::X
    }

    /// Ternary negation. Not the `std::ops::Not` trait: `Tern` is `Copy`
    /// and call sites read better with an inherent method.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Tern {
        match self {
            Tern::Zero => Tern::One,
            Tern::One => Tern::Zero,
            Tern::X => Tern::X,
        }
    }
}

/// Evaluates a gate over ternary inputs (Kleene semantics: the output is
/// determined whenever it is determined under every completion of the Xs).
///
/// # Panics
///
/// Panics if `inputs` has the wrong arity for the kind.
pub fn eval_tern(kind: GateKind, inputs: &[Tern]) -> Tern {
    match kind {
        GateKind::Not => {
            assert_eq!(inputs.len(), 1);
            inputs[0].not()
        }
        GateKind::Buf => {
            assert_eq!(inputs.len(), 1);
            inputs[0]
        }
        GateKind::And | GateKind::Nand => {
            assert!(inputs.len() >= 2);
            let mut any_x = false;
            let mut out = Tern::One;
            for &i in inputs {
                match i {
                    Tern::Zero => {
                        out = Tern::Zero;
                        any_x = false;
                        break;
                    }
                    Tern::X => any_x = true,
                    Tern::One => {}
                }
            }
            let out = if any_x { Tern::X } else { out };
            if kind == GateKind::Nand {
                out.not()
            } else {
                out
            }
        }
        GateKind::Or | GateKind::Nor => {
            assert!(inputs.len() >= 2);
            let mut any_x = false;
            let mut out = Tern::Zero;
            for &i in inputs {
                match i {
                    Tern::One => {
                        out = Tern::One;
                        any_x = false;
                        break;
                    }
                    Tern::X => any_x = true,
                    Tern::Zero => {}
                }
            }
            let out = if any_x { Tern::X } else { out };
            if kind == GateKind::Nor {
                out.not()
            } else {
                out
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            assert!(inputs.len() >= 2);
            let mut parity = false;
            for &i in inputs {
                match i {
                    Tern::X => return Tern::X,
                    Tern::One => parity = !parity,
                    Tern::Zero => {}
                }
            }
            let out = Tern::from_bool(parity);
            if kind == GateKind::Xnor {
                out.not()
            } else {
                out
            }
        }
    }
}

/// A composite five-valued value: the good-machine and faulty-machine
/// ternaries of one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiveV {
    /// Value in the fault-free machine.
    pub good: Tern,
    /// Value in the faulted machine.
    pub faulty: Tern,
}

impl FiveV {
    /// Completely unknown.
    pub const X: FiveV = FiveV {
        good: Tern::X,
        faulty: Tern::X,
    };

    /// Both machines carry the same definite value.
    pub fn stable(b: bool) -> FiveV {
        let t = Tern::from_bool(b);
        FiveV { good: t, faulty: t }
    }

    /// `D`: good 1, faulty 0.
    pub fn is_d(self) -> bool {
        self.good == Tern::One && self.faulty == Tern::Zero
    }

    /// `D̄`: good 0, faulty 1.
    pub fn is_dbar(self) -> bool {
        self.good == Tern::Zero && self.faulty == Tern::One
    }

    /// Carries a fault effect (`D` or `D̄`).
    pub fn is_error(self) -> bool {
        self.is_d() || self.is_dbar()
    }

    /// Fully determined in both machines.
    pub fn is_determined(self) -> bool {
        self.good.is_determined() && self.faulty.is_determined()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Tern::{One, Zero, X};

    #[test]
    fn ternary_and_family() {
        assert_eq!(eval_tern(GateKind::And, &[One, One]), One);
        assert_eq!(eval_tern(GateKind::And, &[Zero, X]), Zero); // controlled
        assert_eq!(eval_tern(GateKind::And, &[One, X]), X);
        assert_eq!(eval_tern(GateKind::Nand, &[Zero, X]), One);
        assert_eq!(eval_tern(GateKind::Nand, &[One, One]), Zero);
    }

    #[test]
    fn ternary_or_family() {
        assert_eq!(eval_tern(GateKind::Or, &[One, X]), One); // controlled
        assert_eq!(eval_tern(GateKind::Or, &[Zero, X]), X);
        assert_eq!(eval_tern(GateKind::Nor, &[One, X]), Zero);
        assert_eq!(eval_tern(GateKind::Nor, &[Zero, Zero]), One);
    }

    #[test]
    fn ternary_xor_is_strict() {
        assert_eq!(eval_tern(GateKind::Xor, &[One, X]), X);
        assert_eq!(eval_tern(GateKind::Xor, &[One, Zero]), One);
        assert_eq!(eval_tern(GateKind::Xnor, &[One, One]), One);
    }

    #[test]
    fn ternary_agrees_with_boolean_on_determined_inputs() {
        for kind in GateKind::ALL {
            let arity = if kind.is_unary() { 1 } else { 2 };
            for bits in 0u32..(1 << arity) {
                let bools: Vec<bool> = (0..arity).map(|i| bits >> i & 1 == 1).collect();
                let terns: Vec<Tern> = bools.iter().map(|&b| Tern::from_bool(b)).collect();
                assert_eq!(
                    eval_tern(kind, &terns),
                    Tern::from_bool(kind.eval(&bools)),
                    "{kind} at {bools:?}"
                );
            }
        }
    }

    #[test]
    fn five_valued_predicates() {
        let d = FiveV {
            good: One,
            faulty: Zero,
        };
        let dbar = FiveV {
            good: Zero,
            faulty: One,
        };
        assert!(d.is_d() && !d.is_dbar() && d.is_error());
        assert!(dbar.is_dbar() && dbar.is_error());
        assert!(!FiveV::stable(true).is_error());
        assert!(!FiveV::X.is_determined());
        assert!(FiveV::stable(false).is_determined());
    }
}
