//! Variable-order selection for the engine.
//!
//! [`OrderStrategy`] names *how* a [`DiffProp`](crate::DiffProp) chooses the
//! OBDD variable order for its good functions. It lives in
//! [`EngineConfig`](crate::EngineConfig) — and therefore in
//! `SweepConfig.engine` — so every sweep worker (including the panic-rebuild
//! path) resolves the same order from the same circuit. Strategies are plain
//! `Copy` data: the actual permutation is recomputed deterministically per
//! manager from the circuit, never shipped across threads.
//!
//! The order is an *execution* knob, not a semantic one. Every summary a
//! sweep emits is a scalar of a canonical Boolean function (sat counts,
//! densities, constancy checks), so results are bit-identical across
//! strategies — pinned by `tests/prop_order.rs` — while cost (peak nodes,
//! op steps, wall clock) moves by orders of magnitude.

use dp_bdd::Var;
use dp_netlist::{ordering, Circuit};

/// How the engine picks the OBDD variable order for a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderStrategy {
    /// Declared primary-input order (the paper's §2.2 default).
    #[default]
    Identity,
    /// Fanin-weighted depth-first traversal
    /// ([`dp_netlist::ordering::fanin_dfs_order`]).
    FaninDfs,
    /// [`OrderStrategy::FaninDfs`], plus one budget-exempt Rudell sift of
    /// the good functions right after they are built, when the table is
    /// big enough to be worth it. Every engine (private or thawed from a
    /// snapshot) runs in that one sifted order.
    Auto,
    /// A seeded pseudo-random permutation (Fisher–Yates over splitmix64).
    /// Exists for the order-invariance test layer; never a good idea for
    /// performance.
    Random(u64),
}

impl OrderStrategy {
    /// Parses a command-line spelling: `identity`, `fanin-dfs`, `auto`, or
    /// `random:<seed>`.
    pub fn parse(s: &str) -> Option<OrderStrategy> {
        match s {
            "identity" => Some(OrderStrategy::Identity),
            "fanin-dfs" | "fanin_dfs" => Some(OrderStrategy::FaninDfs),
            "auto" => Some(OrderStrategy::Auto),
            _ => s
                .strip_prefix("random:")
                .and_then(|seed| seed.parse().ok())
                .map(OrderStrategy::Random),
        }
    }

    /// The stable name recorded in bench records and
    /// `sweep_report.json.execution.order`.
    pub fn name(self) -> String {
        match self {
            OrderStrategy::Identity => "identity".into(),
            OrderStrategy::FaninDfs => "fanin-dfs".into(),
            OrderStrategy::Auto => "auto".into(),
            OrderStrategy::Random(seed) => format!("random:{seed}"),
        }
    }

    /// `true` when the good-function build is sifted once after the static
    /// order (above a small-table floor).
    pub fn autosifts(self) -> bool {
        matches!(self, OrderStrategy::Auto)
    }

    /// The level→input-index permutation this strategy assigns to `circuit`.
    ///
    /// Deterministic: depends only on the strategy and the circuit, so every
    /// worker of a sweep (and every rerun) builds the same manager.
    pub fn resolve(self, circuit: &Circuit) -> Vec<Var> {
        let n = circuit.num_inputs();
        match self {
            OrderStrategy::Identity => (0..n as Var).collect(),
            OrderStrategy::FaninDfs | OrderStrategy::Auto => ordering::fanin_dfs_order(circuit),
            OrderStrategy::Random(seed) => random_permutation(n, seed),
        }
    }
}

/// Fisher–Yates shuffle of `0..n` driven by splitmix64 — deterministic in
/// `seed`, independent of platform and process.
fn random_permutation(n: usize, seed: u64) -> Vec<Var> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<Var> = (0..n as Var).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_netlist::generators::{c17, c432_surrogate, c95};

    fn is_permutation(order: &[Var], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order.iter().all(|&v| {
                let ok = (v as usize) < n && !seen[v as usize];
                if ok {
                    seen[v as usize] = true;
                }
                ok
            })
    }

    #[test]
    fn every_strategy_resolves_to_a_permutation() {
        for circuit in [c17(), c95(), c432_surrogate()] {
            for strategy in [
                OrderStrategy::Identity,
                OrderStrategy::FaninDfs,
                OrderStrategy::Auto,
                OrderStrategy::Random(7),
                OrderStrategy::Random(u64::MAX),
            ] {
                let order = strategy.resolve(&circuit);
                assert!(
                    is_permutation(&order, circuit.num_inputs()),
                    "{} on {}",
                    strategy.name(),
                    circuit.name()
                );
            }
        }
    }

    #[test]
    fn parse_round_trips_names() {
        for strategy in [
            OrderStrategy::Identity,
            OrderStrategy::FaninDfs,
            OrderStrategy::Auto,
            OrderStrategy::Random(42),
        ] {
            assert_eq!(OrderStrategy::parse(&strategy.name()), Some(strategy));
        }
        assert_eq!(
            OrderStrategy::parse("fanin_dfs"),
            Some(OrderStrategy::FaninDfs)
        );
        assert_eq!(OrderStrategy::parse("sift-harder"), None);
        assert_eq!(OrderStrategy::parse("interleave"), None, "retired strategy");
        assert_eq!(OrderStrategy::parse("random:x"), None);
    }

    #[test]
    fn random_orders_differ_by_seed_but_not_by_call() {
        let c = c95();
        let a = OrderStrategy::Random(1).resolve(&c);
        let b = OrderStrategy::Random(2).resolve(&c);
        assert_ne!(a, b);
        assert_eq!(a, OrderStrategy::Random(1).resolve(&c));
    }
}
