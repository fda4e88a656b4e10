//! Error type for netlist construction and parsing.

use std::error::Error;
use std::fmt;

use crate::circuit::GateKind;

/// Errors reported while building, transforming or parsing circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net name was declared twice.
    DuplicateNet(String),
    /// A gate referenced a net that does not exist.
    UnknownNet(String),
    /// A gate was given the wrong number of fanins for its kind.
    BadArity {
        /// Output net name of the offending gate.
        gate: String,
        /// The gate kind.
        kind: GateKind,
        /// The fanin count supplied.
        arity: usize,
    },
    /// A net was marked as a primary output twice.
    DuplicateOutput(String),
    /// The circuit declares no primary outputs.
    NoOutputs,
    /// A `.bench` line could not be parsed.
    ParseBench {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateNet(name) => write!(f, "net `{name}` declared twice"),
            NetlistError::UnknownNet(name) => write!(f, "reference to unknown net `{name}`"),
            NetlistError::BadArity { gate, kind, arity } => {
                write!(f, "gate `{gate}` of kind {kind} given {arity} fanins")
            }
            NetlistError::DuplicateOutput(name) => {
                write!(f, "net `{name}` listed twice as an output")
            }
            NetlistError::NoOutputs => write!(f, "circuit has no primary outputs"),
            NetlistError::ParseBench { line, message } => {
                write!(f, "bench parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = NetlistError::BadArity {
            gate: "g1".into(),
            kind: GateKind::Not,
            arity: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("g1"));
        assert!(msg.contains("NOT"));
        assert!(msg.contains('3'));
    }
}
