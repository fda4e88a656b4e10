//! Error type for the BDD package.

use std::error::Error;
use std::fmt;

/// Errors reported by fallible [`Manager`](crate::Manager) constructors and
/// operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// The supplied variable order is not a permutation of `0..n`.
    InvalidOrder,
    /// A [`BudgetConfig`](crate::BudgetConfig) limit tripped mid-operation;
    /// the fields snapshot the manager at the moment of the trip. Results
    /// computed in the same budget window are unreliable and must be
    /// discarded (nodes allocated *before* the trip stay exact).
    BudgetExceeded {
        /// Node-table length when the budget tripped.
        nodes: usize,
        /// Operation steps consumed in the window when the budget tripped.
        op_steps: u64,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::InvalidOrder => {
                write!(f, "variable order is not a permutation of 0..n")
            }
            BddError::BudgetExceeded { nodes, op_steps } => {
                write!(
                    f,
                    "work budget exceeded at {nodes} nodes / {op_steps} op steps"
                )
            }
        }
    }
}

impl Error for BddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_period() {
        for e in [
            BddError::InvalidOrder,
            BddError::BudgetExceeded {
                nodes: 7,
                op_steps: 42,
            },
        ] {
            let msg = e.to_string();
            assert!(msg.starts_with(char::is_lowercase), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }

    #[test]
    fn budget_display_carries_the_counters() {
        let msg = BddError::BudgetExceeded {
            nodes: 7,
            op_steps: 42,
        }
        .to_string();
        assert!(msg.contains('7') && msg.contains("42"), "{msg}");
    }
}
